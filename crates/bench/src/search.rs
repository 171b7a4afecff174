//! Adversary search engine with witness shrinking.
//!
//! The sweep store (PR 8) made million-seed campaigns durable; this module
//! points that machinery *at the fault space itself*. A deterministic,
//! seeded generator samples [`ScenarioSpec`]s across the full adversary
//! surface — message drop/duplicate/corrupt grids, crash plans including
//! churn, delay models and targeted delay rules, topology partitions, GST,
//! and the `(n, t, k)` shape — and every sampled cell runs through the
//! streaming [`Runner`] (cache-aware, so a resumed campaign never
//! re-executes a computed cell).
//!
//! Outcomes fall into three classes (see [`classify`]):
//!
//! * **pass** — the checker accepted the run;
//! * **liveness refusal** — the checker refused termination, completeness,
//!   accuracy, or leadership. Under drops, partitions that never heal, or
//!   horizons shorter than the decision time, refusing to decide is the
//!   *honest* outcome — the paper's algorithms trade liveness, never
//!   safety;
//! * **checker violation** — a safety property broke (validity, agreement,
//!   decide-once, …). The only specs *expected* to produce these carry a
//!   corruption rule ([`expects_safety_violation`]): the algorithms have
//!   no payload authentication, so a corrupting channel can forge foreign
//!   estimates. A violation on any other spec is a genuine bug and is
//!   surfaced separately.
//!
//! Every expected violation enters the [`shrink`]er: greedy structural
//! passes (drop adversary rules, delay rules, topology epochs, islands
//! and overrides; weaken the crash plan; reduce `n`) interleaved with
//! binary searches over the numeric surface (horizon, GST, rule
//! percentage, corruption bound, rule and epoch windows), each candidate
//! re-run through the checker, iterated to a fixed point. The local
//! minimum is emitted as a canonical [`MinimalWitness`]: spec description,
//! fingerprint, seed, violated predicate, events-to-violation, and the
//! shrink trail — serialized as canonical JSON (sorted keys) so two runs
//! of the same search are bit-identical regardless of thread count.

use crate::json::Json;
use fd_core::KsetScenario;
use fd_detectors::scenario::{CrashPlan, Flavour, OracleChoice, Runner, ScenarioSpec, SlimReport};
use fd_detectors::{CheckOutcome, Scenario, ViolationClass};
use fd_grid::ChurnKsetScenario;
use fd_sim::{
    DelayModel, DelayRule, LinkOverride, MessageAdversary, MessageRule, PSet, ProcessId,
    RuleAction, SplitMix64, Time, TopologyEpoch, TopologySchedule, MAX_PROCESSES,
};
use std::collections::BTreeSet;

/// Schema tag stamped into every emitted witness document.
pub const WITNESS_SCHEMA: &str = "fd-minimal-witness/1";

/// Schema tag stamped into the top-level search report document.
pub const SEARCH_SCHEMA: &str = "fd-search-report/1";

/// Stream label separating the generator's draws from every other
/// consumer of the search seed.
const SEARCH_STREAM: u64 = 0x5EA2_0C11;

// ---------------------------------------------------------------------------
// Outcome classification
// ---------------------------------------------------------------------------

/// What one `(spec, seed)` cell did, viewed through the violation class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunClass {
    /// The checker accepted the run.
    Pass,
    /// The checker refused a liveness property (termination, completeness,
    /// accuracy, leadership) — the honest outcome under message loss,
    /// unhealed partitions, or too-short horizons.
    LivenessRefusal,
    /// A safety property broke. Never acceptable unless the spec carries
    /// a corruption rule (see [`expects_safety_violation`]).
    Violation,
}

/// Classifies a check outcome by its machine-readable violation class.
pub fn classify(check: &CheckOutcome) -> RunClass {
    if check.ok {
        RunClass::Pass
    } else if check.class.is_safety() {
        RunClass::Violation
    } else {
        RunClass::LivenessRefusal
    }
}

/// Whether a spec is *expected* to be able to break safety: only payload
/// corruption can — the algorithms carry no authentication, so a
/// corrupting channel forges estimates. Drops, duplicates, delays,
/// partitions, and crashes within the resilience bound must never break
/// a safety property; a [`RunClass::Violation`] on a spec where this
/// returns `false` is a genuine checker or algorithm bug.
pub fn expects_safety_violation(spec: &ScenarioSpec) -> bool {
    spec.adversary
        .rules()
        .iter()
        .any(|r| r.pct > 0 && matches!(r.action, RuleAction::Corrupt { bound } if bound > 0))
}

/// The scenario a spec runs under: churn plans use the churn-aware
/// scenario (plain k-set agreement has no notion of joiners), everything
/// else the paper's Figure 3 algorithm.
pub fn scenario_for(spec: &ScenarioSpec) -> &'static dyn Scenario {
    if matches!(spec.crashes, CrashPlan::Churn { .. }) {
        &ChurnKsetScenario
    } else {
        &KsetScenario
    }
}

/// One cached, cache-keyed run of `spec` at `seed` (goes through
/// [`Runner::sweep_fold`], the engine's only cache-aware path, so shrink
/// candidates hit the sweep store on resumed campaigns).
fn run_one(runner: &Runner, spec: &ScenarioSpec, seed: u64) -> SlimReport {
    runner
        .sweep_fold(
            scenario_for(spec),
            spec,
            seed..seed + 1,
            None,
            |acc: &mut Option<SlimReport>, slim| *acc = Some(slim),
        )
        .expect("single-seed sweep produces exactly one report")
}

/// One line summarizing a spec for labels and witness descriptions.
pub fn describe_spec(spec: &ScenarioSpec) -> String {
    let mut s = format!(
        "n={} t={} k={} gst={} horizon={} adv={} topo={} crashes={:?}",
        spec.n,
        spec.t,
        spec.k,
        spec.gst.0,
        spec.max_time.0,
        spec.adversary.describe(),
        spec.topology.describe(),
        spec.crashes,
    );
    if !spec.rules.is_empty() {
        s.push_str(&format!(" delay_rules={}", spec.rules.len()));
    }
    if spec.catch_up {
        s.push_str(" catch_up");
    }
    s
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

/// Search campaign parameters. Everything the campaign does is a pure
/// function of this configuration — same config, same witnesses,
/// bit-identically, at any thread count.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Root seed of the spec generator (not of the runs — each spec is
    /// swept over `0..seeds_per_spec` run seeds).
    pub search_seed: u64,
    /// Number of *sampled* specs, on top of the fixed probe specs.
    pub budget: u64,
    /// Run seeds swept per spec.
    pub seeds_per_spec: u64,
    /// Cap on witnesses shrunk and emitted (further violations are still
    /// counted).
    pub max_witnesses: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            search_seed: 0,
            budget: 32,
            seeds_per_spec: 4,
            max_witnesses: 3,
        }
    }
}

/// The fixed probe specs emitted before any sampling: known checker
/// violations seeded into every campaign, so even a `--budget 0` run
/// exercises the find → shrink → emit pipeline end to end.
pub fn probe_specs() -> Vec<ScenarioSpec> {
    // Bounded corruption on every link: forges foreign estimates, breaking
    // validity (seed 0) and agreement (seed 1) — the known negative
    // witness from the adversary test suite.
    vec![ScenarioSpec::new(5, 2)
        .kz(1)
        .adversary(MessageAdversary::from_rules(vec![MessageRule::corrupt(
            40, 7,
        )]))
        .max_time(Time(60_000))]
}

/// The deterministic spec stream of a campaign: probes first, then
/// `cfg.budget` sampled specs drawn from `cfg.search_seed`.
pub fn generate(cfg: &SearchConfig) -> Vec<ScenarioSpec> {
    let mut specs = probe_specs();
    let mut rng = SplitMix64::new(cfg.search_seed).stream(SEARCH_STREAM);
    for _ in 0..cfg.budget {
        specs.push(sample_spec(&mut rng));
    }
    specs
}

/// Draws one spec across the full adversary surface. Every combination
/// emitted is valid by construction (`t < n`, crash counts within the
/// bound, churn only when `2t ≤ n`), so `materialize` never panics.
fn sample_spec(rng: &mut SplitMix64) -> ScenarioSpec {
    const SHAPES: [(usize, usize, usize); 7] = [
        (4, 1, 1),
        (5, 2, 1),
        (5, 2, 2),
        (6, 2, 2),
        (7, 3, 2),
        (8, 3, 1),
        (8, 3, 3),
    ];
    let (n, t, k) = SHAPES[rng.below(SHAPES.len() as u64) as usize];
    let max_time = 2_000 + rng.below(5) * 1_000;
    let gst = 100 + rng.below(4) * 100;
    let mut spec = ScenarioSpec::new(n, t)
        .kz(k)
        .gst(Time(gst))
        .max_time(Time(max_time));

    spec = spec.delay(match rng.below(4) {
        0 => DelayModel::default(),
        1 => DelayModel::Fixed(1 + rng.below(8)),
        2 => {
            let lo = 1 + rng.below(5);
            DelayModel::Uniform {
                lo,
                hi: lo + 1 + rng.below(20),
            }
        }
        _ => DelayModel::Spiky {
            lo: 1,
            hi: 10,
            spike_pct: (5 + rng.below(30)) as u8,
            factor: 2 + rng.below(20),
        },
    });

    spec = spec.crashes(match rng.below(5) {
        0 => CrashPlan::None,
        1 => CrashPlan::Random {
            f: rng.below(t as u64 + 1) as usize,
            by: Time(1 + rng.below(max_time / 2)),
        },
        2 => CrashPlan::Initial {
            f: rng.below(t as u64 + 1) as usize,
        },
        3 => CrashPlan::Anarchic {
            by: Time(1 + rng.below(max_time)),
        },
        4 if 2 * t <= n => CrashPlan::Churn {
            crash_by: Time(1 + rng.below(max_time / 2)),
            rejoin_after: 1 + rng.below(500),
        },
        _ => CrashPlan::None,
    });

    let mut rules = Vec::new();
    for _ in 0..rng.below(3) {
        let mut rule = match rng.below(3) {
            0 => MessageRule::drop((5 + rng.below(61)) as u8),
            1 => MessageRule::duplicate((5 + rng.below(61)) as u8),
            _ => MessageRule::corrupt((5 + rng.below(46)) as u8, 1 + rng.below(8)),
        };
        if rng.chance(1, 2) {
            let a = rng.below(max_time);
            let b = a + 1 + rng.below(max_time - a);
            rule = rule.window(Time(a), Time(b));
        }
        if rng.chance(1, 4) {
            let mut from = PSet::new();
            for p in 0..n {
                if rng.chance(1, 2) {
                    from.insert(ProcessId(p));
                }
            }
            if from.is_empty() {
                from = PSet::full(n);
            }
            rule = rule.links(from, PSet::full(MAX_PROCESSES));
        }
        rules.push(rule);
    }
    spec = spec.adversary(MessageAdversary::from_rules(rules));

    if rng.chance(1, 4) {
        spec = spec.rule(DelayRule::silence_until(
            PSet::full(n),
            PSet::full(n),
            Time(1 + rng.below(gst)),
        ));
    }

    if rng.chance(1, 3) {
        let cut = 1 + rng.below(n as u64 - 1) as usize;
        let mut a = PSet::new();
        let mut b = PSet::new();
        for p in 0..n {
            if p < cut {
                a.insert(ProcessId(p));
            } else {
                b.insert(ProcessId(p));
            }
        }
        let heal = Time(1 + rng.below(2 * max_time));
        spec = spec.topology(TopologySchedule::partition_until(vec![a, b], heal));
    }

    if matches!(spec.crashes, CrashPlan::Churn { .. }) && rng.chance(1, 2) {
        spec = spec.catch_up(true);
    }
    spec
}

// ---------------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------------

/// One accepted shrink step: the pass that fired, what it did, and the
/// spec it produced (still violating — the soundness tests replay each
/// trail spec through the checker).
#[derive(Clone, Debug)]
pub struct ShrinkStep {
    /// Name of the shrink pass that produced this step.
    pub pass: &'static str,
    /// Human-readable account of the mutation.
    pub description: String,
    /// The spec after the step (re-verified to still violate).
    pub spec: ScenarioSpec,
}

/// Result of shrinking one witness to a local minimum.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The locally minimal spec (no single pass can simplify it further).
    pub spec: ScenarioSpec,
    /// Every accepted step, in order; replaying any trail spec reproduces
    /// the violation.
    pub trail: Vec<ShrinkStep>,
    /// Checker executions spent (cache lookups included).
    pub runs: u64,
}

struct Shrinker<'a> {
    runner: &'a Runner,
    seed: u64,
    class: ViolationClass,
    runs: u64,
}

type Pass = fn(&mut Shrinker<'_>, &ScenarioSpec) -> Option<(String, ScenarioSpec)>;

/// Pass order matters for cost, not correctness: structural drops first
/// (few candidates at the original horizon), then the horizon bisection —
/// after which every remaining candidate runs at the shrunk horizon.
const PASSES: [(&str, Pass); 11] = [
    ("drop-adv-rule", pass_drop_adv_rule),
    ("drop-delay-rule", pass_drop_delay_rule),
    ("drop-topo-epoch", pass_drop_topo_epoch),
    ("simplify-topo-epoch", pass_simplify_topo_epoch),
    ("weaken-crashes", pass_weaken_crashes),
    ("shrink-horizon", pass_shrink_horizon),
    ("reduce-n", pass_reduce_n),
    ("shrink-gst", pass_shrink_gst),
    ("shrink-rule-pct", pass_shrink_rule_pct),
    ("shrink-rule-bound", pass_shrink_rule_bound),
    ("narrow-rule-window", pass_narrow_rule_window),
];

/// Shrinks `start` (known to violate `class` at `seed`) to a local
/// minimum: repeatedly applies the first pass that yields a strictly
/// simpler spec still violating the *same* class at the same seed, until
/// no pass fires. Fully sequential and deterministic — the trail and the
/// minimum depend only on `(start, seed, class)`.
pub fn shrink(
    runner: &Runner,
    start: &ScenarioSpec,
    seed: u64,
    class: ViolationClass,
) -> ShrinkOutcome {
    let mut sh = Shrinker {
        runner,
        seed,
        class,
        runs: 0,
    };
    let mut current = start.clone();
    let mut trail = Vec::new();
    'outer: loop {
        for (name, pass) in PASSES {
            if let Some((description, next)) = pass(&mut sh, &current) {
                trail.push(ShrinkStep {
                    pass: name,
                    description,
                    spec: next.clone(),
                });
                current = next;
                continue 'outer;
            }
        }
        break;
    }
    ShrinkOutcome {
        spec: current,
        trail,
        runs: sh.runs,
    }
}

impl Shrinker<'_> {
    /// Does `spec` still violate the same class at the witness seed?
    fn violates(&mut self, spec: &ScenarioSpec) -> bool {
        self.runs += 1;
        let slim = run_one(self.runner, spec, self.seed);
        !slim.check.ok && slim.check.class == self.class
    }

    /// Least `v` in `[lo, hi]` with `still(v)` violating, assuming
    /// `still(hi)` does (delta-debugging style: the predicate need not be
    /// monotone — the result is then just a deterministic local choice).
    fn bisect_down(
        &mut self,
        lo: u64,
        hi: u64,
        mut still: impl FnMut(&mut Self, u64) -> bool,
    ) -> u64 {
        let (mut lo, mut hi) = (lo, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if still(self, mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        hi
    }

    /// Greatest `v` in `[lo, hi]` with `still(v)` violating, assuming
    /// `still(lo)` does.
    fn bisect_up(
        &mut self,
        lo: u64,
        hi: u64,
        mut still: impl FnMut(&mut Self, u64) -> bool,
    ) -> u64 {
        let (mut lo, mut hi) = (lo, hi);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if still(self, mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

fn pass_drop_adv_rule(
    sh: &mut Shrinker<'_>,
    spec: &ScenarioSpec,
) -> Option<(String, ScenarioSpec)> {
    for idx in 0..spec.adversary.rules().len() {
        let mut cand = spec.clone();
        cand.adversary = spec.adversary.without_rule(idx);
        if sh.violates(&cand) {
            return Some((format!("dropped message rule #{idx}"), cand));
        }
    }
    None
}

fn pass_drop_delay_rule(
    sh: &mut Shrinker<'_>,
    spec: &ScenarioSpec,
) -> Option<(String, ScenarioSpec)> {
    for idx in 0..spec.rules.len() {
        let mut cand = spec.clone();
        cand.rules.remove(idx);
        if sh.violates(&cand) {
            return Some((format!("dropped delay rule #{idx}"), cand));
        }
    }
    None
}

fn pass_drop_topo_epoch(
    sh: &mut Shrinker<'_>,
    spec: &ScenarioSpec,
) -> Option<(String, ScenarioSpec)> {
    for idx in 0..spec.topology.epochs().len() {
        let mut cand = spec.clone();
        cand.topology = spec.topology.without_epoch(idx);
        if sh.violates(&cand) {
            return Some((format!("dropped topology epoch #{idx}"), cand));
        }
    }
    None
}

fn pass_simplify_topo_epoch(
    sh: &mut Shrinker<'_>,
    spec: &ScenarioSpec,
) -> Option<(String, ScenarioSpec)> {
    for (e, ep) in spec.topology.epochs().iter().enumerate() {
        for i in 0..ep.islands.len() {
            let mut cand = spec.clone();
            cand.topology = spec
                .topology
                .with_epoch_replaced(e, ep.clone().without_island(i));
            if sh.violates(&cand) {
                return Some((format!("dropped island #{i} of epoch #{e}"), cand));
            }
        }
        for o in 0..ep.overrides.len() {
            let mut cand = spec.clone();
            cand.topology = spec
                .topology
                .with_epoch_replaced(e, ep.clone().without_override(o));
            if sh.violates(&cand) {
                return Some((format!("dropped override #{o} of epoch #{e}"), cand));
            }
        }
        // Heals past the horizon are all equivalent; clamp, then bisect
        // the heal time down to the earliest still-violating tick.
        let horizon_plus = spec.max_time.0 + 1;
        if ep.until.0 > horizon_plus {
            let mut cand = spec.clone();
            cand.topology = spec
                .topology
                .with_epoch_replaced(e, ep.clone().with_window(ep.from, Time(horizon_plus)));
            if sh.violates(&cand) {
                return Some((format!("clamped epoch #{e} heal to horizon"), cand));
            }
        } else if ep.until.0 > ep.from.0 + 1 {
            let with_until = |spec: &ScenarioSpec, ep: &TopologyEpoch, until: u64| {
                let mut cand = spec.clone();
                cand.topology = spec
                    .topology
                    .with_epoch_replaced(e, ep.clone().with_window(ep.from, Time(until)));
                cand
            };
            let min = sh.bisect_down(ep.from.0 + 1, ep.until.0, |sh, v| {
                sh.violates(&with_until(spec, ep, v))
            });
            if min < ep.until.0 {
                return Some((
                    format!("shrank epoch #{e} heal {} -> {min}", ep.until.0),
                    with_until(spec, ep, min),
                ));
            }
        }
    }
    None
}

fn pass_weaken_crashes(
    sh: &mut Shrinker<'_>,
    spec: &ScenarioSpec,
) -> Option<(String, ScenarioSpec)> {
    let mut candidates: Vec<(String, CrashPlan)> = Vec::new();
    match spec.crashes {
        CrashPlan::None => {}
        CrashPlan::Random { f, by } => {
            candidates.push(("removed crash plan".into(), CrashPlan::None));
            if f > 0 {
                candidates.push((
                    format!("reduced random crashes {f} -> {}", f - 1),
                    CrashPlan::Random { f: f - 1, by },
                ));
            }
        }
        CrashPlan::Initial { f } => {
            candidates.push(("removed crash plan".into(), CrashPlan::None));
            if f > 0 {
                candidates.push((
                    format!("reduced initial crashes {f} -> {}", f - 1),
                    CrashPlan::Initial { f: f - 1 },
                ));
            }
        }
        CrashPlan::Anarchic { .. } | CrashPlan::Churn { .. } | CrashPlan::Explicit(_) => {
            candidates.push(("removed crash plan".into(), CrashPlan::None));
        }
    }
    for (description, crashes) in candidates {
        let mut cand = spec.clone();
        cand.crashes = crashes;
        if sh.violates(&cand) {
            return Some((description, cand));
        }
    }
    if spec.catch_up {
        let mut cand = spec.clone();
        cand.catch_up = false;
        if sh.violates(&cand) {
            return Some(("disabled catch-up layer".into(), cand));
        }
    }
    None
}

fn pass_shrink_horizon(
    sh: &mut Shrinker<'_>,
    spec: &ScenarioSpec,
) -> Option<(String, ScenarioSpec)> {
    let cur = spec.max_time.0;
    if cur <= 1 {
        return None;
    }
    let with_horizon = |v: u64| {
        let mut cand = spec.clone();
        cand.max_time = Time(v);
        cand
    };
    let min = sh.bisect_down(1, cur, |sh, v| sh.violates(&with_horizon(v)));
    (min < cur).then(|| (format!("shrank horizon {cur} -> {min}"), with_horizon(min)))
}

fn pass_reduce_n(sh: &mut Shrinker<'_>, spec: &ScenarioSpec) -> Option<(String, ScenarioSpec)> {
    let n = spec.n;
    if n <= 2 || n - 1 <= spec.t || n - 1 < spec.k {
        return None;
    }
    if matches!(spec.crashes, CrashPlan::Churn { .. }) && 2 * spec.t > n - 1 {
        return None;
    }
    let mut cand = spec.clone();
    cand.n = n - 1;
    sh.violates(&cand)
        .then(|| (format!("reduced n {n} -> {}", n - 1), cand))
}

fn pass_shrink_gst(sh: &mut Shrinker<'_>, spec: &ScenarioSpec) -> Option<(String, ScenarioSpec)> {
    let cur = spec.gst.0;
    if cur == 0 {
        return None;
    }
    let with_gst = |v: u64| {
        let mut cand = spec.clone();
        cand.gst = Time(v);
        cand
    };
    let min = sh.bisect_down(0, cur, |sh, v| sh.violates(&with_gst(v)));
    (min < cur).then(|| (format!("shrank gst {cur} -> {min}"), with_gst(min)))
}

fn pass_shrink_rule_pct(
    sh: &mut Shrinker<'_>,
    spec: &ScenarioSpec,
) -> Option<(String, ScenarioSpec)> {
    for (idx, rule) in spec.adversary.rules().iter().enumerate() {
        if rule.pct <= 1 {
            continue;
        }
        let with_pct = |p: u64| {
            let mut cand = spec.clone();
            cand.adversary = spec
                .adversary
                .with_rule_replaced(idx, rule.clone().with_pct(p as u8));
            cand
        };
        let min = sh.bisect_down(1, rule.pct as u64, |sh, v| sh.violates(&with_pct(v)));
        if min < rule.pct as u64 {
            return Some((
                format!("shrank rule #{idx} pct {} -> {min}", rule.pct),
                with_pct(min),
            ));
        }
    }
    None
}

fn pass_shrink_rule_bound(
    sh: &mut Shrinker<'_>,
    spec: &ScenarioSpec,
) -> Option<(String, ScenarioSpec)> {
    for (idx, rule) in spec.adversary.rules().iter().enumerate() {
        let RuleAction::Corrupt { bound } = rule.action else {
            continue;
        };
        if bound <= 1 {
            continue;
        }
        let with_bound = |b: u64| {
            let mut cand = spec.clone();
            cand.adversary = spec
                .adversary
                .with_rule_replaced(idx, rule.clone().with_bound(b));
            cand
        };
        let min = sh.bisect_down(1, bound, |sh, v| sh.violates(&with_bound(v)));
        if min < bound {
            return Some((
                format!("shrank rule #{idx} corruption bound {bound} -> {min}"),
                with_bound(min),
            ));
        }
    }
    None
}

fn pass_narrow_rule_window(
    sh: &mut Shrinker<'_>,
    spec: &ScenarioSpec,
) -> Option<(String, ScenarioSpec)> {
    let horizon_plus = spec.max_time.0 + 1;
    for (idx, rule) in spec.adversary.rules().iter().enumerate() {
        let replace = |spec: &ScenarioSpec, rule: MessageRule| {
            let mut cand = spec.clone();
            cand.adversary = spec.adversary.with_rule_replaced(idx, rule);
            cand
        };
        // Windows past the horizon are all equivalent; clamp first so the
        // bisection below starts from a finite bound.
        if rule.active_to.0 > horizon_plus {
            let cand = replace(
                spec,
                rule.clone().window(rule.active_from, Time(horizon_plus)),
            );
            if sh.violates(&cand) {
                return Some((format!("clamped rule #{idx} window to horizon"), cand));
            }
            continue;
        }
        if rule.active_to.0 > rule.active_from.0 + 1 {
            let min = sh.bisect_down(rule.active_from.0 + 1, rule.active_to.0, |sh, v| {
                sh.violates(&replace(
                    spec,
                    rule.clone().window(rule.active_from, Time(v)),
                ))
            });
            if min < rule.active_to.0 {
                return Some((
                    format!(
                        "shrank rule #{idx} window end {} -> {min}",
                        rule.active_to.0
                    ),
                    replace(spec, rule.clone().window(rule.active_from, Time(min))),
                ));
            }
            let max = sh.bisect_up(rule.active_from.0, rule.active_to.0 - 1, |sh, v| {
                sh.violates(&replace(spec, rule.clone().window(Time(v), rule.active_to)))
            });
            if max > rule.active_from.0 {
                return Some((
                    format!(
                        "raised rule #{idx} window start {} -> {max}",
                        rule.active_from.0
                    ),
                    replace(spec, rule.clone().window(Time(max), rule.active_to)),
                ));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Witness JSON codec
// ---------------------------------------------------------------------------

/// One `{pass, description}` record of the shrink trail as persisted in
/// the witness document (the full trail with intermediate specs stays
/// in-memory on [`ShrinkOutcome`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShrinkStepRecord {
    /// Name of the shrink pass.
    pub pass: String,
    /// What the pass did.
    pub description: String,
}

/// A minimal reproducer: the locally minimal spec, the run seed, the
/// violated predicate, and how it was reached. Serializes to canonical
/// JSON (sorted keys, exact u64 tokens) — two campaigns producing the
/// same witness emit byte-identical documents.
#[derive(Clone, Debug)]
pub struct MinimalWitness {
    /// Scenario the spec runs under (`kset_omega` or `kset_churn`).
    pub scenario: String,
    /// One-line spec description.
    pub description: String,
    /// `ScenarioSpec::fingerprint()` of the minimal spec.
    pub fingerprint: u64,
    /// Run seed reproducing the violation.
    pub seed: u64,
    /// The violated predicate.
    pub class: ViolationClass,
    /// The checker's account of the violation.
    pub detail: String,
    /// Simulator events to the violation (size of the reproducer).
    pub events: u64,
    /// The shrink trail that reached the minimum.
    pub shrink_steps: Vec<ShrinkStepRecord>,
    /// The minimal spec itself.
    pub spec: ScenarioSpec,
}

impl MinimalWitness {
    /// Canonical JSON document for this witness.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(WITNESS_SCHEMA)),
            ("scenario", Json::str(self.scenario.clone())),
            ("description", Json::str(self.description.clone())),
            ("fingerprint", Json::num_u64(self.fingerprint)),
            ("seed", Json::num_u64(self.seed)),
            ("class", Json::str(self.class.name())),
            ("detail", Json::str(self.detail.clone())),
            ("events", Json::num_u64(self.events)),
            (
                "shrink_steps",
                Json::Arr(
                    self.shrink_steps
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("pass", Json::str(s.pass.clone())),
                                ("description", Json::str(s.description.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("spec", spec_to_json(&self.spec)),
        ])
    }

    /// Parses a witness document (inverse of [`MinimalWitness::to_json`]).
    pub fn from_json(doc: &Json) -> Result<MinimalWitness, String> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("witness: missing schema")?;
        if schema != WITNESS_SCHEMA {
            return Err(format!("witness: unknown schema {schema:?}"));
        }
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("witness: missing {k}"));
        let str_field = |k: &str| {
            field(k).and_then(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("witness: {k} is not a string"))
            })
        };
        let u64_field = |k: &str| {
            field(k).and_then(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("witness: {k} is not a u64"))
            })
        };
        let class_name = str_field("class")?;
        let class = ViolationClass::from_name(&class_name)
            .ok_or_else(|| format!("witness: unknown class {class_name:?}"))?;
        let mut shrink_steps = Vec::new();
        for step in field("shrink_steps")?
            .as_arr()
            .ok_or("witness: shrink_steps is not an array")?
        {
            shrink_steps.push(ShrinkStepRecord {
                pass: step
                    .get("pass")
                    .and_then(Json::as_str)
                    .ok_or("witness: step missing pass")?
                    .to_string(),
                description: step
                    .get("description")
                    .and_then(Json::as_str)
                    .ok_or("witness: step missing description")?
                    .to_string(),
            });
        }
        Ok(MinimalWitness {
            scenario: str_field("scenario")?,
            description: str_field("description")?,
            fingerprint: u64_field("fingerprint")?,
            seed: u64_field("seed")?,
            class,
            detail: str_field("detail")?,
            events: u64_field("events")?,
            shrink_steps,
            spec: spec_from_json(field("spec")?)?,
        })
    }
}

fn pset_to_json(set: PSet) -> Json {
    if set == PSet::full(MAX_PROCESSES) {
        Json::str("all")
    } else {
        Json::Arr(set.iter().map(|p| Json::num_u64(p.0 as u64)).collect())
    }
}

fn pset_from_json(doc: &Json) -> Result<PSet, String> {
    if doc.as_str() == Some("all") {
        return Ok(PSet::full(MAX_PROCESSES));
    }
    let ids = doc.as_arr().ok_or("pset: not \"all\" or an id array")?;
    let mut set = PSet::new();
    for id in ids {
        let id = id.as_u64().ok_or("pset: non-numeric id")? as usize;
        if id >= MAX_PROCESSES {
            return Err(format!("pset: id {id} out of range"));
        }
        set.insert(ProcessId(id));
    }
    Ok(set)
}

fn oracle_tag(oracle: OracleChoice) -> &'static str {
    match oracle {
        OracleChoice::None => "none",
        OracleChoice::Omega => "omega",
        OracleChoice::Sx(Flavour::Perpetual) => "sx:perpetual",
        OracleChoice::Sx(Flavour::Eventual) => "sx:eventual",
        OracleChoice::Phi(Flavour::Perpetual) => "phi:perpetual",
        OracleChoice::Phi(Flavour::Eventual) => "phi:eventual",
        OracleChoice::Psi => "psi",
        OracleChoice::SxPlusPhi(Flavour::Perpetual) => "sx_plus_phi:perpetual",
        OracleChoice::SxPlusPhi(Flavour::Eventual) => "sx_plus_phi:eventual",
        OracleChoice::Perfect(Flavour::Perpetual) => "perfect:perpetual",
        OracleChoice::Perfect(Flavour::Eventual) => "perfect:eventual",
    }
}

fn oracle_from_tag(tag: &str) -> Result<OracleChoice, String> {
    Ok(match tag {
        "none" => OracleChoice::None,
        "omega" => OracleChoice::Omega,
        "sx:perpetual" => OracleChoice::Sx(Flavour::Perpetual),
        "sx:eventual" => OracleChoice::Sx(Flavour::Eventual),
        "phi:perpetual" => OracleChoice::Phi(Flavour::Perpetual),
        "phi:eventual" => OracleChoice::Phi(Flavour::Eventual),
        "psi" => OracleChoice::Psi,
        "sx_plus_phi:perpetual" => OracleChoice::SxPlusPhi(Flavour::Perpetual),
        "sx_plus_phi:eventual" => OracleChoice::SxPlusPhi(Flavour::Eventual),
        "perfect:perpetual" => OracleChoice::Perfect(Flavour::Perpetual),
        "perfect:eventual" => OracleChoice::Perfect(Flavour::Eventual),
        other => return Err(format!("spec: unknown oracle {other:?}")),
    })
}

fn crashes_to_json(crashes: &CrashPlan) -> Json {
    match *crashes {
        CrashPlan::None => Json::obj([("kind", Json::str("none"))]),
        CrashPlan::Random { f, by } => Json::obj([
            ("kind", Json::str("random")),
            ("f", Json::num_u64(f as u64)),
            ("by", Json::num_u64(by.0)),
        ]),
        CrashPlan::Initial { f } => Json::obj([
            ("kind", Json::str("initial")),
            ("f", Json::num_u64(f as u64)),
        ]),
        CrashPlan::Anarchic { by } => {
            Json::obj([("kind", Json::str("anarchic")), ("by", Json::num_u64(by.0))])
        }
        CrashPlan::Churn {
            crash_by,
            rejoin_after,
        } => Json::obj([
            ("kind", Json::str("churn")),
            ("crash_by", Json::num_u64(crash_by.0)),
            ("rejoin_after", Json::num_u64(rejoin_after)),
        ]),
        // Explicit patterns carry an arbitrary authored history; they are
        // never produced by the generator and are not portable as JSON.
        CrashPlan::Explicit(_) => Json::obj([("kind", Json::str("explicit"))]),
    }
}

fn crashes_from_json(doc: &Json) -> Result<CrashPlan, String> {
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("crashes: missing kind")?;
    let u64_field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("crashes: missing {k}"))
    };
    Ok(match kind {
        "none" => CrashPlan::None,
        "random" => CrashPlan::Random {
            f: u64_field("f")? as usize,
            by: Time(u64_field("by")?),
        },
        "initial" => CrashPlan::Initial {
            f: u64_field("f")? as usize,
        },
        "anarchic" => CrashPlan::Anarchic {
            by: Time(u64_field("by")?),
        },
        "churn" => CrashPlan::Churn {
            crash_by: Time(u64_field("crash_by")?),
            rejoin_after: u64_field("rejoin_after")?,
        },
        other => return Err(format!("crashes: unportable kind {other:?}")),
    })
}

fn delay_to_json(delay: &DelayModel) -> Json {
    match *delay {
        DelayModel::Fixed(d) => Json::obj([("kind", Json::str("fixed")), ("d", Json::num_u64(d))]),
        DelayModel::Uniform { lo, hi } => Json::obj([
            ("kind", Json::str("uniform")),
            ("lo", Json::num_u64(lo)),
            ("hi", Json::num_u64(hi)),
        ]),
        DelayModel::Spiky {
            lo,
            hi,
            spike_pct,
            factor,
        } => Json::obj([
            ("kind", Json::str("spiky")),
            ("lo", Json::num_u64(lo)),
            ("hi", Json::num_u64(hi)),
            ("spike_pct", Json::num_u64(spike_pct as u64)),
            ("factor", Json::num_u64(factor)),
        ]),
    }
}

fn delay_from_json(doc: &Json) -> Result<DelayModel, String> {
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("delay: missing kind")?;
    let u64_field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("delay: missing {k}"))
    };
    Ok(match kind {
        "fixed" => DelayModel::Fixed(u64_field("d")?),
        "uniform" => DelayModel::Uniform {
            lo: u64_field("lo")?,
            hi: u64_field("hi")?,
        },
        "spiky" => DelayModel::Spiky {
            lo: u64_field("lo")?,
            hi: u64_field("hi")?,
            spike_pct: u64_field("spike_pct")? as u8,
            factor: u64_field("factor")?,
        },
        other => return Err(format!("delay: unknown kind {other:?}")),
    })
}

fn delay_rule_to_json(rule: &DelayRule) -> Json {
    Json::obj([
        ("from", pset_to_json(rule.from)),
        ("to", pset_to_json(rule.to)),
        ("active_from", Json::num_u64(rule.active_from.0)),
        ("active_to", Json::num_u64(rule.active_to.0)),
        (
            "deliver_not_before",
            Json::num_u64(rule.deliver_not_before.0),
        ),
    ])
}

fn delay_rule_from_json(doc: &Json) -> Result<DelayRule, String> {
    let u64_field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("delay rule: missing {k}"))
    };
    Ok(DelayRule {
        from: pset_from_json(doc.get("from").ok_or("delay rule: missing from")?)?,
        to: pset_from_json(doc.get("to").ok_or("delay rule: missing to")?)?,
        active_from: Time(u64_field("active_from")?),
        active_to: Time(u64_field("active_to")?),
        deliver_not_before: Time(u64_field("deliver_not_before")?),
    })
}

fn message_rule_to_json(rule: &MessageRule) -> Json {
    let (action, bound) = match rule.action {
        RuleAction::Drop => ("drop", None),
        RuleAction::Duplicate => ("duplicate", None),
        RuleAction::Corrupt { bound } => ("corrupt", Some(bound)),
    };
    let mut pairs = vec![
        ("action", Json::str(action)),
        ("pct", Json::num_u64(rule.pct as u64)),
        ("from", pset_to_json(rule.from)),
        ("to", pset_to_json(rule.to)),
        ("active_from", Json::num_u64(rule.active_from.0)),
        ("active_to", Json::num_u64(rule.active_to.0)),
    ];
    if let Some(bound) = bound {
        pairs.push(("bound", Json::num_u64(bound)));
    }
    Json::obj(pairs)
}

fn message_rule_from_json(doc: &Json) -> Result<MessageRule, String> {
    let u64_field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("message rule: missing {k}"))
    };
    let action = match doc.get("action").and_then(Json::as_str) {
        Some("drop") => RuleAction::Drop,
        Some("duplicate") => RuleAction::Duplicate,
        Some("corrupt") => RuleAction::Corrupt {
            bound: u64_field("bound")?,
        },
        other => return Err(format!("message rule: unknown action {other:?}")),
    };
    Ok(MessageRule {
        action,
        pct: u64_field("pct")? as u8,
        from: pset_from_json(doc.get("from").ok_or("message rule: missing from")?)?,
        to: pset_from_json(doc.get("to").ok_or("message rule: missing to")?)?,
        active_from: Time(u64_field("active_from")?),
        active_to: Time(u64_field("active_to")?),
    })
}

fn epoch_to_json(ep: &TopologyEpoch) -> Json {
    Json::obj([
        ("from", Json::num_u64(ep.from.0)),
        ("until", Json::num_u64(ep.until.0)),
        (
            "islands",
            Json::Arr(ep.islands.iter().map(|i| pset_to_json(*i)).collect()),
        ),
        (
            "overrides",
            Json::Arr(
                ep.overrides
                    .iter()
                    .map(|o| {
                        Json::obj([
                            ("from", pset_to_json(o.from)),
                            ("to", pset_to_json(o.to)),
                            (
                                "latency",
                                match o.latency {
                                    None => Json::Null,
                                    Some((lo, hi)) => {
                                        Json::Arr(vec![Json::num_u64(lo), Json::num_u64(hi)])
                                    }
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn epoch_from_json(doc: &Json) -> Result<TopologyEpoch, String> {
    let u64_field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("epoch: missing {k}"))
    };
    let mut ep = TopologyEpoch::new(Time(u64_field("from")?), Time(u64_field("until")?));
    for island in doc
        .get("islands")
        .and_then(Json::as_arr)
        .ok_or("epoch: missing islands")?
    {
        ep.islands.push(pset_from_json(island)?);
    }
    for o in doc
        .get("overrides")
        .and_then(Json::as_arr)
        .ok_or("epoch: missing overrides")?
    {
        let latency = match o.get("latency").ok_or("override: missing latency")? {
            Json::Null => None,
            lat => {
                let pair = lat.as_arr().ok_or("override: latency is not a pair")?;
                match pair {
                    [lo, hi] => Some((
                        lo.as_u64().ok_or("override: bad latency lo")?,
                        hi.as_u64().ok_or("override: bad latency hi")?,
                    )),
                    _ => return Err("override: latency is not a pair".into()),
                }
            }
        };
        ep.overrides.push(LinkOverride {
            from: pset_from_json(o.get("from").ok_or("override: missing from")?)?,
            to: pset_from_json(o.get("to").ok_or("override: missing to")?)?,
            latency,
        });
    }
    Ok(ep)
}

/// Encodes every behavior-relevant field of a spec as canonical JSON.
/// Excluded by design: `seed`, which is carried at the witness level.
pub fn spec_to_json(spec: &ScenarioSpec) -> Json {
    Json::obj([
        ("n", Json::num_u64(spec.n as u64)),
        ("t", Json::num_u64(spec.t as u64)),
        ("x", Json::num_u64(spec.x as u64)),
        ("y", Json::num_u64(spec.y as u64)),
        ("z", Json::num_u64(spec.z as u64)),
        ("k", Json::num_u64(spec.k as u64)),
        ("oracle", Json::str(oracle_tag(spec.oracle))),
        ("crashes", crashes_to_json(&spec.crashes)),
        ("delay", delay_to_json(&spec.delay)),
        (
            "delay_rules",
            Json::Arr(spec.rules.iter().map(delay_rule_to_json).collect()),
        ),
        ("gst", Json::num_u64(spec.gst.0)),
        ("max_time", Json::num_u64(spec.max_time.0)),
        ("max_steps", Json::num_u64(spec.max_steps)),
        (
            "adversary",
            Json::Arr(
                spec.adversary
                    .rules()
                    .iter()
                    .map(message_rule_to_json)
                    .collect(),
            ),
        ),
        (
            "topology",
            Json::Arr(spec.topology.epochs().iter().map(epoch_to_json).collect()),
        ),
        ("catch_up", Json::Bool(spec.catch_up)),
    ])
}

/// Parses a spec document (inverse of [`spec_to_json`]); the decoded
/// spec fingerprints identically to the encoded one.
pub fn spec_from_json(doc: &Json) -> Result<ScenarioSpec, String> {
    let u64_field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("spec: missing {k}"))
    };
    let mut spec = ScenarioSpec::new(u64_field("n")? as usize, u64_field("t")? as usize);
    spec.x = u64_field("x")? as usize;
    spec.y = u64_field("y")? as usize;
    spec.z = u64_field("z")? as usize;
    spec.k = u64_field("k")? as usize;
    spec.oracle = oracle_from_tag(
        doc.get("oracle")
            .and_then(Json::as_str)
            .ok_or("spec: missing oracle")?,
    )?;
    spec.crashes = crashes_from_json(doc.get("crashes").ok_or("spec: missing crashes")?)?;
    spec.delay = delay_from_json(doc.get("delay").ok_or("spec: missing delay")?)?;
    spec.rules = doc
        .get("delay_rules")
        .and_then(Json::as_arr)
        .ok_or("spec: missing delay_rules")?
        .iter()
        .map(delay_rule_from_json)
        .collect::<Result<_, _>>()?;
    spec.gst = Time(u64_field("gst")?);
    spec.max_time = Time(u64_field("max_time")?);
    spec.max_steps = u64_field("max_steps")?;
    spec.adversary = MessageAdversary::from_rules(
        doc.get("adversary")
            .and_then(Json::as_arr)
            .ok_or("spec: missing adversary")?
            .iter()
            .map(message_rule_from_json)
            .collect::<Result<_, _>>()?,
    );
    spec.topology = TopologySchedule::from_epochs(
        doc.get("topology")
            .and_then(Json::as_arr)
            .ok_or("spec: missing topology")?
            .iter()
            .map(epoch_from_json)
            .collect::<Result<_, _>>()?,
    );
    spec.catch_up = doc
        .get("catch_up")
        .and_then(Json::as_bool)
        .ok_or("spec: missing catch_up")?;
    Ok(spec)
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

/// Campaign tallies.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Specs examined (probes + sampled).
    pub specs: u64,
    /// Total checker executions, cache lookups included (top-level sweep
    /// cells plus every shrink candidate and final witness re-run).
    pub runs: u64,
    /// Cells the checker accepted.
    pub passes: u64,
    /// Honest liveness refusals.
    pub refusals: u64,
    /// Safety violations observed (before dedup).
    pub violations: u64,
    /// Checker executions spent inside shrinkers.
    pub shrink_runs: u64,
}

/// A safety violation on a spec that [`expects_safety_violation`] rules
/// out — a genuine bug surfaced by the search, never shrunk away.
#[derive(Clone, Debug)]
pub struct UnexpectedViolation {
    /// One-line description of the offending spec.
    pub description: String,
    /// Fingerprint of the offending spec.
    pub fingerprint: u64,
    /// Run seed that violated.
    pub seed: u64,
    /// The violated predicate.
    pub class: ViolationClass,
    /// The checker's account.
    pub detail: String,
}

impl UnexpectedViolation {
    fn to_json(&self) -> Json {
        Json::obj([
            ("description", Json::str(self.description.clone())),
            ("fingerprint", Json::num_u64(self.fingerprint)),
            ("seed", Json::num_u64(self.seed)),
            ("class", Json::str(self.class.name())),
            ("detail", Json::str(self.detail.clone())),
        ])
    }
}

/// Everything a campaign produced. [`SearchReport::to_json_string`] is
/// canonical: a re-run of the same config emits identical bytes.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// The configuration that drove the campaign.
    pub config: SearchConfig,
    /// Campaign tallies.
    pub stats: SearchStats,
    /// Shrunk, deduplicated witnesses (capped at `config.max_witnesses`).
    pub witnesses: Vec<MinimalWitness>,
    /// Shrink outcomes parallel to `witnesses` (full trails with
    /// intermediate specs, for soundness checks; not serialized).
    pub shrinks: Vec<ShrinkOutcome>,
    /// Safety violations on specs that must not produce any.
    pub unexpected: Vec<UnexpectedViolation>,
}

impl SearchReport {
    /// Canonical JSON document for the campaign.
    pub fn to_json_string(&self) -> String {
        Json::obj([
            ("schema", Json::str(SEARCH_SCHEMA)),
            ("search_seed", Json::num_u64(self.config.search_seed)),
            ("budget", Json::num_u64(self.config.budget)),
            ("seeds_per_spec", Json::num_u64(self.config.seeds_per_spec)),
            (
                "stats",
                Json::obj([
                    ("specs", Json::num_u64(self.stats.specs)),
                    ("runs", Json::num_u64(self.stats.runs)),
                    ("passes", Json::num_u64(self.stats.passes)),
                    ("refusals", Json::num_u64(self.stats.refusals)),
                    ("violations", Json::num_u64(self.stats.violations)),
                    ("shrink_runs", Json::num_u64(self.stats.shrink_runs)),
                ]),
            ),
            (
                "witnesses",
                Json::Arr(self.witnesses.iter().map(|w| w.to_json()).collect()),
            ),
            (
                "unexpected",
                Json::Arr(self.unexpected.iter().map(|u| u.to_json()).collect()),
            ),
        ])
        .emit()
    }
}

/// Runs a campaign: generate → sweep → classify → shrink → emit.
///
/// Specs are examined in generation order and shrinkers run sequentially,
/// so the report depends only on `cfg` — the runner's thread count and
/// cache change wall-clock, never output. Attach a hydrated
/// [`fd_detectors::ReportCache`] (spilling to a [`crate::SweepStore`])
/// and a killed campaign resumes without re-executing a single cell —
/// shrink candidates included.
pub fn run_search(runner: &Runner, cfg: &SearchConfig) -> SearchReport {
    let probes = probe_specs().len() as u64;
    let specs = generate(cfg);
    let mut stats = SearchStats::default();
    let mut witnesses: Vec<MinimalWitness> = Vec::new();
    let mut shrinks: Vec<ShrinkOutcome> = Vec::new();
    let mut unexpected: Vec<UnexpectedViolation> = Vec::new();
    // Dedup twice: per (starting spec, class) before the expensive shrink,
    // and per (minimal fingerprint, class) before emitting.
    let mut seen_start: BTreeSet<(u64, &'static str)> = BTreeSet::new();
    let mut seen_minimal: BTreeSet<(u64, &'static str)> = BTreeSet::new();
    let _ = probes;

    for spec in &specs {
        stats.specs += 1;
        let slims = runner.sweep_fold(
            scenario_for(spec),
            spec,
            0..cfg.seeds_per_spec,
            Vec::new(),
            |acc: &mut Vec<SlimReport>, slim| acc.push(slim),
        );
        stats.runs += slims.len() as u64;
        for slim in slims {
            match classify(&slim.check) {
                RunClass::Pass => stats.passes += 1,
                RunClass::LivenessRefusal => stats.refusals += 1,
                RunClass::Violation => {
                    stats.violations += 1;
                    if !expects_safety_violation(spec) {
                        unexpected.push(UnexpectedViolation {
                            description: describe_spec(spec),
                            fingerprint: spec.fingerprint(),
                            seed: slim.seed,
                            class: slim.check.class,
                            detail: slim.check.detail.clone(),
                        });
                        continue;
                    }
                    if witnesses.len() >= cfg.max_witnesses
                        || !seen_start.insert((spec.fingerprint(), slim.check.class.name()))
                    {
                        continue;
                    }
                    let outcome = shrink(runner, spec, slim.seed, slim.check.class);
                    stats.shrink_runs += outcome.runs;
                    stats.runs += outcome.runs;
                    let fin = run_one(runner, &outcome.spec, slim.seed);
                    stats.runs += 1;
                    if !seen_minimal.insert((outcome.spec.fingerprint(), fin.check.class.name())) {
                        continue;
                    }
                    witnesses.push(MinimalWitness {
                        scenario: scenario_for(&outcome.spec).name().to_string(),
                        description: describe_spec(&outcome.spec),
                        fingerprint: outcome.spec.fingerprint(),
                        seed: slim.seed,
                        class: fin.check.class,
                        detail: fin.check.detail.clone(),
                        events: fin.metrics.events,
                        shrink_steps: outcome
                            .trail
                            .iter()
                            .map(|s| ShrinkStepRecord {
                                pass: s.pass.to_string(),
                                description: s.description.clone(),
                            })
                            .collect(),
                        spec: outcome.spec.clone(),
                    });
                    shrinks.push(outcome);
                }
            }
        }
    }

    SearchReport {
        config: *cfg,
        stats,
        witnesses,
        shrinks,
        unexpected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn kitchen_sink_spec() -> ScenarioSpec {
        let mut island_a = PSet::new();
        island_a.insert(ProcessId(0));
        island_a.insert(ProcessId(1));
        let mut island_b = PSet::new();
        island_b.insert(ProcessId(2));
        ScenarioSpec::new(6, 2)
            .kz(2)
            .x(3)
            .y(2)
            .oracle(OracleChoice::SxPlusPhi(Flavour::Eventual))
            .crashes(CrashPlan::Churn {
                crash_by: Time(900),
                rejoin_after: 77,
            })
            .delay(DelayModel::Spiky {
                lo: 2,
                hi: 9,
                spike_pct: 13,
                factor: 11,
            })
            .rule(DelayRule::silence_until(
                PSet::full(6),
                PSet::full(6),
                Time(250),
            ))
            .gst(Time(400))
            .max_time(Time(5_000))
            .max_steps(9_999)
            .adversary(MessageAdversary::from_rules(vec![
                MessageRule::drop(30).window(Time(10), Time(90)),
                MessageRule::corrupt(15, 4).links(island_a, PSet::full(6)),
            ]))
            .topology(TopologySchedule::from_epochs(vec![TopologyEpoch::new(
                Time(100),
                Time(2_000),
            )
            .islands(vec![island_a, island_b])
            .link(LinkOverride::latency(island_a, island_b, 5, 25))
            .link(LinkOverride::silence(island_b, island_a))]))
            .catch_up(true)
    }

    #[test]
    fn spec_codec_round_trips_every_field() {
        let spec = kitchen_sink_spec();
        let doc = spec_to_json(&spec);
        let back = spec_from_json(&doc).expect("decode kitchen-sink spec");
        assert_eq!(spec.fingerprint(), back.fingerprint());
        // Canonical: re-encoding the decoded spec is byte-identical.
        assert_eq!(doc.emit(), spec_to_json(&back).emit());
        // And survives a parse of the emitted text.
        let reparsed = json::parse(&doc.emit()).expect("parse emitted spec");
        assert_eq!(
            spec_from_json(&reparsed)
                .expect("decode reparsed")
                .fingerprint(),
            spec.fingerprint()
        );
    }

    #[test]
    fn spec_codec_covers_every_oracle_and_infinity() {
        let oracles = [
            OracleChoice::None,
            OracleChoice::Omega,
            OracleChoice::Sx(Flavour::Perpetual),
            OracleChoice::Sx(Flavour::Eventual),
            OracleChoice::Phi(Flavour::Perpetual),
            OracleChoice::Phi(Flavour::Eventual),
            OracleChoice::Psi,
            OracleChoice::SxPlusPhi(Flavour::Perpetual),
            OracleChoice::SxPlusPhi(Flavour::Eventual),
            OracleChoice::Perfect(Flavour::Perpetual),
            OracleChoice::Perfect(Flavour::Eventual),
        ];
        for oracle in oracles {
            let spec = ScenarioSpec::new(4, 1)
                .oracle(oracle)
                .adversary(MessageAdversary::from_rules(vec![MessageRule::drop(10)]));
            let back = spec_from_json(&spec_to_json(&spec)).expect("decode");
            assert_eq!(back.oracle, oracle);
            // The unscoped rule's window end is Time::INFINITY (u64::MAX):
            // must survive the numeric codec exactly.
            assert_eq!(back.adversary.rules()[0].active_to, Time::INFINITY);
        }
    }

    #[test]
    fn classify_follows_the_safety_split() {
        assert_eq!(classify(&CheckOutcome::pass(None, "ok")), RunClass::Pass);
        for class in ViolationClass::ALL {
            if class == ViolationClass::None {
                continue;
            }
            let got = classify(&CheckOutcome::fail_as(class, "x"));
            let want = if class.is_safety() {
                RunClass::Violation
            } else {
                RunClass::LivenessRefusal
            };
            assert_eq!(got, want, "class {class:?}");
        }
    }

    #[test]
    fn generator_is_deterministic_and_always_valid() {
        let cfg = SearchConfig {
            search_seed: 42,
            budget: 64,
            ..SearchConfig::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.len() as u64, cfg.budget + probe_specs().len() as u64);
        for (sa, sb) in a.iter().zip(&b) {
            assert_eq!(sa.fingerprint(), sb.fingerprint());
            // Every sampled spec must materialize without panicking.
            let _ = sa.with_seed(7).materialize();
        }
        // A different search seed moves the sampled region.
        let c = generate(&SearchConfig {
            search_seed: 43,
            budget: 64,
            ..SearchConfig::default()
        });
        assert!(
            a.iter()
                .zip(&c)
                .skip(probe_specs().len())
                .any(|(x, y)| x.fingerprint() != y.fingerprint()),
            "different search seeds must sample different specs"
        );
    }

    #[test]
    fn expectation_predicate_keys_on_live_corruption() {
        let base = ScenarioSpec::new(5, 2);
        assert!(!expects_safety_violation(&base));
        let drops = base
            .clone()
            .adversary(MessageAdversary::from_rules(vec![MessageRule::drop(60)]));
        assert!(!expects_safety_violation(&drops));
        let dead_corrupt =
            base.clone()
                .adversary(MessageAdversary::from_rules(vec![MessageRule::corrupt(
                    0, 7,
                )]));
        assert!(!expects_safety_violation(&dead_corrupt));
        let corrupt = base.adversary(MessageAdversary::from_rules(vec![MessageRule::corrupt(
            40, 7,
        )]));
        assert!(expects_safety_violation(&corrupt));
    }

    #[test]
    fn churn_specs_dispatch_to_the_churn_scenario() {
        let churn = ScenarioSpec::new(6, 2).crashes(CrashPlan::Churn {
            crash_by: Time(500),
            rejoin_after: 100,
        });
        assert_eq!(scenario_for(&churn).name(), "kset_churn");
        assert_eq!(scenario_for(&ScenarioSpec::new(5, 2)).name(), "kset_omega");
    }
}
