//! The unified scenario engine: one spec, one trait, one runner, one report.
//!
//! Every algorithm and transformation in the workspace — the Figure 3
//! `k`-set agreement, the MR `◇S` consensus baseline, repeated instances,
//! the two-wheels addition, `Ψ_y → Ω_z`, the Figure 9 addition, and the
//! full pipeline — is exposed as a [`Scenario`]: a named object that turns
//! a [`ScenarioSpec`] into a [`ScenarioReport`]. The [`Runner`] executes
//! single runs, multi-seed sweeps, and full grid matrices, sequentially or
//! in parallel, with bit-identical results either way.
//!
//! The engine owns the three pieces that used to be copy-pasted across
//! `fd_core::harness`, `fd_transforms::harness`, the facade pipeline, and
//! the bench experiments:
//!
//! * **crash materialization** — [`CrashPlan::materialize`];
//! * **sim setup** — [`ScenarioSpec::sim_config`] / [`ScenarioSpec::shm_config`]
//!   and the [`run_to_decision`] / [`run_to_horizon`] drivers;
//! * **report assembly** — [`ScenarioReport::new`] and [`Metrics::from_trace`].
//!
//! ```
//! use fd_detectors::scenario::{Runner, Scenario, ScenarioReport, ScenarioSpec};
//! use fd_detectors::CheckOutcome;
//!
//! /// A toy scenario: "passes" iff the materialized pattern respects `t`.
//! struct CountCrashes;
//! impl Scenario for CountCrashes {
//!     fn name(&self) -> &'static str {
//!         "count_crashes"
//!     }
//!     fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
//!         let fp = spec.materialize();
//!         let ok = fp.num_faulty() <= spec.t;
//!         let check = if ok {
//!             CheckOutcome::pass(None, "within t")
//!         } else {
//!             CheckOutcome::fail("too many crashes")
//!         };
//!         ScenarioReport::new(self.name(), spec, fp, fd_sim::Trace::new(), check)
//!     }
//! }
//!
//! let spec = ScenarioSpec::new(5, 2);
//! let reports = Runner::parallel().sweep(&CountCrashes, &spec, 0..32);
//! assert!(reports.iter().all(|r| r.check.ok));
//! ```

use crate::check::{CheckOutcome, ViolationClass};
use crate::{OmegaOracle, PerfectOracle, PhiOracle, PsiOracle, Scope, SxOracle};
use fd_sim::{
    counter, slot, Automaton, DelayModel, DelayRule, FailurePattern, FdValue, OracleSuite,
    ProcessId, ShmConfig, Sim, SimConfig, SplitMix64, SuspectPlusQuery, Time, Trace,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

// Spec authors pick their message adversary and topology through the
// spec's knobs; re-export the knob types so they need not depend on
// `fd_sim` directly. `QueueKind` only names the one event core.
pub use fd_sim::QueueKind;
pub use fd_sim::{LinkFate, LinkOverride, TopologyEpoch, TopologySchedule};
pub use fd_sim::{MessageAdversary, MessageRule, RuleAction};

/// Seed-mixing constants, one per oracle role, so that the detectors of a
/// bundle draw from independent streams of the run's root seed.
///
/// # The reproducibility contract
///
/// Every recorded number in this repository (tables, `BENCH_sweep.json`,
/// witness seeds cited in EXPERIMENTS.md) is a function of `(spec, seed)`
/// alone. That holds only because each consumer of randomness derives its
/// stream as `root_seed` mixed with a fixed salt below, and draws from it
/// in a fixed order. Consequently:
///
/// * **changing a salt value** re-keys that consumer's stream and silently
///   changes every recorded number of the affected scenarios;
/// * **changing the number or order of RNG draws** (e.g. sampling the crash
///   time before the crash victim, or adding a draw in a loop) shifts all
///   subsequent draws of that stream and has the same effect;
/// * **changing the event order** — `fd_sim::EventQueue` pops in ascending
///   `(at, seq)`, `seq` being the insertion number — reorders activations,
///   and with them every draw made during a run.
///
/// Neither is ever a compatible change: treat salts and draw order as part
/// of the on-disk format, and regenerate all recorded artifacts when one
/// must move.
pub mod salt {
    /// `Ω_z` oracle of the Figure 3 algorithm.
    pub const OMEGA: u64 = 0x0A11;
    /// `◇S` oracle of the MR consensus baseline.
    pub const DIAMOND_S: u64 = 0x0511;
    /// Standalone `S_x` bundle built via `OracleChoice::Sx`.
    pub const SX: u64 = 0x5c0e;
    /// Standalone `φ_y` bundle built via `OracleChoice::Phi`.
    pub const PHI: u64 = 0x0f1e;
    /// `◇S_x` component of the two-wheels bundle.
    pub const WHEELS_SX: u64 = 0x5e5e;
    /// `◇φ_y` component of the two-wheels bundle.
    pub const WHEELS_PHI: u64 = 0x9191;
    /// `φ_y` inside the `Ψ_y` oracle.
    pub const PSI_PHI: u64 = 0x8888;
    /// `S_x` component of the Figure 9 addition bundle.
    pub const ADDITION_SX: u64 = 0x1f1f;
    /// `φ_y` component of the Figure 9 addition bundle.
    pub const ADDITION_PHI: u64 = 0x2e2e;
    /// `◇S_x` component of the end-to-end pipeline bundle.
    pub const PIPELINE_SX: u64 = 0xAA55;
    /// `◇φ_y` component of the end-to-end pipeline bundle.
    pub const PIPELINE_PHI: u64 = 0x55AA;
    /// Perfect-detector oracle.
    pub const PERFECT: u64 = 0x9e37;
    /// Crash-plan materialization stream.
    pub const CRASHES: u64 = 0xC4A5;
    /// Anarchic crash-plan stream (random crash count).
    pub const ANARCHY: u64 = 0xFA11;
    /// Churn crash-plan stream (crash + fresh-id rejoin).
    pub const CHURN: u64 = 0x0C4B;
    /// Message-adversary stream (drop / duplicate / corrupt decisions and
    /// duplicate-copy delays). The runtime derives it in `fd_sim` as
    /// `root.stream(0xADE5)`; the constant is mirrored here because it is
    /// part of the same contract: with [`super::MessageAdversary::None`]
    /// the stream is never drawn from, which is what makes the empty
    /// adversary bit-identical to the pre-adversary simulator.
    pub const ADVERSARY: u64 = 0xADE5;
    /// Topology-schedule stream (override-latency draws and post-heal
    /// release jitter). The runtime derives it in `fd_sim` as
    /// `root.stream(0x7090)`; mirrored here for the same reason as
    /// [`ADVERSARY`]: with [`super::TopologySchedule::None`] the stream is
    /// never drawn from, which is what keeps the empty schedule
    /// bit-identical to the pre-topology simulator.
    pub const TOPOLOGY: u64 = 0x7090;
}

/// How crashes are injected into a run.
#[derive(Clone, Debug)]
pub enum CrashPlan {
    /// Failure-free run.
    None,
    /// `f` random processes crash at random times up to `by`.
    Random {
        /// Number of crashes.
        f: usize,
        /// Latest crash time.
        by: Time,
    },
    /// `f` random processes crash before the run starts (the premise of the
    /// paper's zero-degradation property).
    Initial {
        /// Number of crashes.
        f: usize,
    },
    /// A random number of crashes in `0..=t` at random times up to `by` —
    /// the "anything the model permits" plan used by grid sweeps.
    Anarchic {
        /// Latest crash time.
        by: Time,
    },
    /// Churn: `t` processes crash at random times up to `crash_by`, and
    /// for each crash a distinct fresh process id joins the run
    /// `rejoin_after` ticks later — crash followed by simulated recovery
    /// under a new identity (the crash-stop model has no true recovery).
    /// Requires `2t ≤ n` so every crasher has a fresh id to hand over to.
    Churn {
        /// Latest crash time.
        crash_by: Time,
        /// Ticks between each crash and its fresh id joining.
        rejoin_after: u64,
    },
    /// An explicit pattern.
    Explicit(FailurePattern),
}

impl CrashPlan {
    /// Materializes the plan into a pattern for `n` processes under
    /// resilience bound `t`, deterministically in `seed`.
    ///
    /// # Panics
    ///
    /// Panics when the plan steps outside the model's envelope: a
    /// [`CrashPlan::Random`] or [`CrashPlan::Initial`] with `f > t`, or any
    /// randomized plan with `t ≥ n`. [`CrashPlan::Explicit`] patterns are
    /// exempt — witness and negative scenarios deliberately hand-craft
    /// patterns at (or past) the boundary.
    pub fn materialize(&self, n: usize, t: usize, seed: u64) -> FailurePattern {
        match self {
            CrashPlan::None => FailurePattern::all_correct(n),
            CrashPlan::Random { f, by } => {
                self.validate(n, t, *f);
                let mut rng = SplitMix64::new(seed).stream(salt::CRASHES);
                FailurePattern::random(n, *f, *by, &mut rng)
            }
            CrashPlan::Initial { f } => {
                self.validate(n, t, *f);
                let mut rng = SplitMix64::new(seed).stream(salt::CRASHES);
                FailurePattern::random_initial(n, *f, &mut rng)
            }
            CrashPlan::Anarchic { by } => {
                self.validate(n, t, 0);
                let mut rng = SplitMix64::new(seed).stream(salt::ANARCHY);
                let f = rng.below(t as u64 + 1) as usize;
                FailurePattern::random(n, f, *by, &mut rng)
            }
            CrashPlan::Churn {
                crash_by,
                rejoin_after,
            } => {
                self.validate(n, t, t);
                assert!(
                    2 * t <= n,
                    "crash plan {self:?} invalid for n={n}, t={t}: churn needs 2t ≤ n \
                     (t crashers + t fresh joiners)"
                );
                let mut rng = SplitMix64::new(seed).stream(salt::CHURN);
                FailurePattern::churn(n, t, *crash_by, *rejoin_after, &mut rng)
            }
            CrashPlan::Explicit(fp) => fp.clone(),
        }
    }

    /// Rejects specs whose crash count can exceed what the model promises,
    /// *before* the failure would surface as an opaque panic deep inside
    /// index sampling.
    fn validate(&self, n: usize, t: usize, f: usize) {
        assert!(
            t < n,
            "crash plan {self:?} invalid for n={n}, t={t}: resilience bound must satisfy t < n"
        );
        assert!(
            f <= t,
            "crash plan {self:?} invalid for n={n}, t={t}: f={f} crashes exceed the bound t"
        );
    }
}

/// Whether a detector's properties hold from the start or only eventually.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavour {
    /// Properties hold over the whole run.
    Perpetual,
    /// Properties hold from the spec's `gst` on.
    Eventual,
}

impl Flavour {
    /// The corresponding oracle scope for stabilization time `gst`.
    pub fn scope(self, gst: Time) -> Scope {
        match self {
            Flavour::Perpetual => Scope::Perpetual,
            Flavour::Eventual => Scope::Eventual(gst),
        }
    }
}

/// Which failure-detector bundle a scenario consults, built from the grid
/// parameters of the spec (`x` for `S_x`, `y` for `φ_y`, `z` for `Ω_z`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleChoice {
    /// No detector: the pure asynchronous model `AS_{n,t}[∅]`.
    None,
    /// `Ω_z` (eventual multiple leadership), stabilizing at `gst`.
    Omega,
    /// `S_x` / `◇S_x` (limited-scope accuracy).
    Sx(Flavour),
    /// `φ_y` / `◇φ_y` (query detectors).
    Phi(Flavour),
    /// `Ψ_y` (strict query detector), eventual at `gst`.
    Psi,
    /// The `S_x` + `φ_y` bundle used by the additions.
    SxPlusPhi(Flavour),
    /// `P` / `◇P` (the perfect detector).
    Perfect(Flavour),
}

/// A boxed oracle bundle, the common currency of [`ScenarioSpec::build_oracle`].
pub type BoxedOracle = Box<dyn OracleSuite>;

/// Full description of one run (or of a family of runs differing only in
/// seed): system size, grid parameters, oracle choice, crash plan, delay
/// adversary, stabilization time, seed, and horizons.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// System size.
    pub n: usize,
    /// Resilience bound.
    pub t: usize,
    /// Scope parameter `x` of `S_x` / `◇S_x`.
    pub x: usize,
    /// Query parameter `y` of `φ_y` / `Ψ_y`.
    pub y: usize,
    /// Leader parameter `z` of `Ω_z`.
    pub z: usize,
    /// Agreement degree `k` checked against the run.
    pub k: usize,
    /// The failure-detector bundle consulted by the scenario.
    pub oracle: OracleChoice,
    /// Crash injection.
    pub crashes: CrashPlan,
    /// Base message-delay distribution.
    pub delay: DelayModel,
    /// Targeted delay-adversary rules.
    pub rules: Vec<DelayRule>,
    /// Oracle stabilization time.
    pub gst: Time,
    /// Root seed; every random choice of the run derives from it.
    pub seed: u64,
    /// Message-passing horizon.
    pub max_time: Time,
    /// Shared-memory horizon (scheduler steps).
    pub max_steps: u64,
    /// The message adversary attacking the plain channels (drop /
    /// duplicate / bounded corruption; [`MessageAdversary::None`] is
    /// bit-identical to the pre-adversary engine).
    pub adversary: MessageAdversary,
    /// The structural topology schedule — partitions, heals, asymmetric
    /// links ([`TopologySchedule::None`] is bit-identical to the
    /// pre-topology engine; severed reliable-broadcast messages are
    /// delayed until the heal, never lost).
    pub topology: TopologySchedule,
    /// Whether churn-aware scenarios run their catch-up layer (rebroadcast
    /// / state transfer for late joiners), upgrading churn guarantees from
    /// safety-only to liveness. Scenarios without a catch-up variant
    /// ignore it.
    pub catch_up: bool,
}

impl ScenarioSpec {
    /// A sensible default spec: `k = x = y = z = 1`, an `Ω_z` oracle
    /// stabilizing at 300, no crashes, default delays.
    pub fn new(n: usize, t: usize) -> Self {
        ScenarioSpec {
            n,
            t,
            x: 1,
            y: 1,
            z: 1,
            k: 1,
            oracle: OracleChoice::Omega,
            crashes: CrashPlan::None,
            delay: DelayModel::default(),
            rules: Vec::new(),
            gst: Time(300),
            seed: 0,
            max_time: Time(100_000),
            max_steps: 200_000,
            adversary: MessageAdversary::None,
            topology: TopologySchedule::None,
            catch_up: false,
        }
    }

    /// Sets `x` (builder style).
    pub fn x(mut self, x: usize) -> Self {
        self.x = x;
        self
    }

    /// Sets `y` (builder style).
    pub fn y(mut self, y: usize) -> Self {
        self.y = y;
        self
    }

    /// Sets `z` (builder style).
    pub fn z(mut self, z: usize) -> Self {
        self.z = z;
        self
    }

    /// Sets `k` (builder style).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets `k` and `z` together (the common `k = z` case).
    pub fn kz(mut self, kz: usize) -> Self {
        self.k = kz;
        self.z = kz;
        self
    }

    /// Sets the oracle choice (builder style).
    pub fn oracle(mut self, oracle: OracleChoice) -> Self {
        self.oracle = oracle;
        self
    }

    /// Sets the crash plan (builder style).
    pub fn crashes(mut self, crashes: CrashPlan) -> Self {
        self.crashes = crashes;
        self
    }

    /// Sets the delay model (builder style).
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Adds a targeted delay-adversary rule (builder style).
    pub fn rule(mut self, rule: DelayRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Sets the oracle stabilization time (builder style).
    pub fn gst(mut self, gst: Time) -> Self {
        self.gst = gst;
        self
    }

    /// Sets the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the message-passing horizon (builder style).
    pub fn max_time(mut self, max_time: Time) -> Self {
        self.max_time = max_time;
        self
    }

    /// Sets the shared-memory horizon (builder style).
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the message adversary (builder style).
    pub fn adversary(mut self, adversary: MessageAdversary) -> Self {
        self.adversary = adversary;
        self
    }

    /// Sets the topology schedule (builder style).
    pub fn topology(mut self, topology: TopologySchedule) -> Self {
        self.topology = topology;
        self
    }

    /// Enables or disables the churn catch-up layer (builder style).
    pub fn catch_up(mut self, catch_up: bool) -> Self {
        self.catch_up = catch_up;
        self
    }

    /// A copy of this spec with a different seed (the sweep primitive).
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut s = self.clone();
        s.seed = seed;
        s
    }

    /// Materializes the crash plan for this spec.
    pub fn materialize(&self) -> FailurePattern {
        self.crashes.materialize(self.n, self.t, self.seed)
    }

    /// A stable 64-bit content digest of every run-shaping knob of this
    /// spec *except* the seed — the spec half of a [`ReportCache`] key
    /// (the seed is the other half, so one fingerprint covers a whole
    /// sweep).
    ///
    /// The seed is deliberately excluded: it varies per run inside a
    /// sweep.
    ///
    /// Everything else that can shape a run is folded in: sizes and grid
    /// parameters, oracle choice, crash plan (explicit patterns by
    /// content), delay model and delay rules, GST, horizons, the message
    /// adversary (rules by content), and the catch-up toggle. Uses
    /// [`DefaultHasher`], which hashes with fixed keys: stable across runs
    /// and builds of one toolchain, but not an on-disk format.
    pub fn fingerprint(&self) -> u64 {
        fn flavour_tag(f: Flavour) -> u8 {
            match f {
                Flavour::Perpetual => 0,
                Flavour::Eventual => 1,
            }
        }
        // Exhaustive destructure, no `..` rest pattern: adding a field to
        // `ScenarioSpec` must fail to compile here until the author
        // decides whether it shapes runs (hash it) or is deliberately
        // excluded like the seed below — a silent omission would hand one
        // spec's cached reports to another.
        let ScenarioSpec {
            n,
            t,
            x,
            y,
            z,
            k,
            oracle,
            crashes,
            delay,
            rules,
            gst,
            seed: _, // the cache key's other half
            max_time,
            max_steps,
            adversary,
            topology,
            catch_up,
        } = self;
        let mut h = DefaultHasher::new();
        (n, t, x, y, z, k).hash(&mut h);
        match *oracle {
            OracleChoice::None => 0u8.hash(&mut h),
            OracleChoice::Omega => 1u8.hash(&mut h),
            OracleChoice::Sx(f) => (2u8, flavour_tag(f)).hash(&mut h),
            OracleChoice::Phi(f) => (3u8, flavour_tag(f)).hash(&mut h),
            OracleChoice::Psi => 4u8.hash(&mut h),
            OracleChoice::SxPlusPhi(f) => (5u8, flavour_tag(f)).hash(&mut h),
            OracleChoice::Perfect(f) => (6u8, flavour_tag(f)).hash(&mut h),
        }
        match crashes {
            CrashPlan::None => 0u8.hash(&mut h),
            CrashPlan::Random { f, by } => (1u8, f, by.ticks()).hash(&mut h),
            CrashPlan::Initial { f } => (2u8, f).hash(&mut h),
            CrashPlan::Anarchic { by } => (3u8, by.ticks()).hash(&mut h),
            CrashPlan::Churn {
                crash_by,
                rejoin_after,
            } => (4u8, crash_by.ticks(), rejoin_after).hash(&mut h),
            CrashPlan::Explicit(fp) => {
                (5u8, fp.n()).hash(&mut h);
                for p in (0..fp.n()).map(ProcessId) {
                    fp.crash_time(p).map(|t| t.ticks()).hash(&mut h);
                    fp.start_time(p).ticks().hash(&mut h);
                }
            }
        }
        match *delay {
            DelayModel::Fixed(d) => (0u8, d).hash(&mut h),
            DelayModel::Uniform { lo, hi } => (1u8, lo, hi).hash(&mut h),
            DelayModel::Spiky {
                lo,
                hi,
                spike_pct,
                factor,
            } => (2u8, lo, hi, spike_pct, factor).hash(&mut h),
        }
        rules.len().hash(&mut h);
        for r in rules {
            r.from.words().hash(&mut h);
            r.to.words().hash(&mut h);
            (
                r.active_from.ticks(),
                r.active_to.ticks(),
                r.deliver_not_before.ticks(),
            )
                .hash(&mut h);
        }
        (gst.ticks(), max_time.ticks(), max_steps).hash(&mut h);
        let adv_rules = adversary.rules();
        (adversary.is_none(), adv_rules.len()).hash(&mut h);
        for r in adv_rules {
            match r.action {
                RuleAction::Drop => 0u8.hash(&mut h),
                RuleAction::Duplicate => 1u8.hash(&mut h),
                RuleAction::Corrupt { bound } => (2u8, bound).hash(&mut h),
            }
            r.pct.hash(&mut h);
            r.from.words().hash(&mut h);
            r.to.words().hash(&mut h);
            (r.active_from.ticks(), r.active_to.ticks()).hash(&mut h);
        }
        // Topology by full content: epoch boundaries, island membership,
        // and override link sets/latencies all shape the run, so any
        // single-tick or single-member difference must change the digest
        // (the cache-poisoning guard for the sweep store).
        let epochs = topology.epochs();
        (topology.is_none(), epochs.len()).hash(&mut h);
        for ep in epochs {
            (ep.from.ticks(), ep.until.ticks(), ep.islands.len()).hash(&mut h);
            for island in &ep.islands {
                island.words().hash(&mut h);
            }
            ep.overrides.len().hash(&mut h);
            for o in &ep.overrides {
                o.from.words().hash(&mut h);
                o.to.words().hash(&mut h);
                o.latency.hash(&mut h);
            }
        }
        catch_up.hash(&mut h);
        h.finish()
    }

    /// The message-passing simulator configuration for this spec.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            max_time: self.max_time,
            delay: self.delay.clone(),
            rules: self.rules.clone(),
            adversary: self.adversary.clone(),
            topology: self.topology.clone(),
            ..SimConfig::new(self.n, self.t)
        }
    }

    /// The shared-memory scheduler configuration for this spec.
    pub fn shm_config(&self) -> ShmConfig {
        ShmConfig {
            max_steps: self.max_steps,
            ..ShmConfig::new(self.n, self.t).seed(self.seed)
        }
    }

    /// An `Ω_z` oracle over `fp`, seeded from this spec's seed and `salt`.
    pub fn omega_oracle(&self, fp: &FailurePattern, salt: u64) -> OmegaOracle {
        OmegaOracle::new(fp.clone(), self.z, self.gst, self.seed ^ salt)
    }

    /// An `S_x`-style oracle over `fp` with scope parameter `scope_x`.
    pub fn sx_oracle(
        &self,
        fp: &FailurePattern,
        scope_x: usize,
        flavour: Flavour,
        salt: u64,
    ) -> SxOracle {
        SxOracle::new(
            fp.clone(),
            self.t,
            scope_x,
            flavour.scope(self.gst),
            self.seed ^ salt,
        )
    }

    /// A `φ_y`-style oracle over `fp`.
    pub fn phi_oracle(&self, fp: &FailurePattern, flavour: Flavour, salt: u64) -> PhiOracle {
        PhiOracle::new(
            fp.clone(),
            self.t,
            self.y,
            flavour.scope(self.gst),
            self.seed ^ salt,
        )
    }

    /// The `S_x + φ_y` bundle used by the two-wheels, the Figure 9
    /// addition, and the pipeline (each with its own salts).
    pub fn sx_plus_phi(
        &self,
        fp: &FailurePattern,
        flavour: Flavour,
        sx_salt: u64,
        phi_salt: u64,
    ) -> SuspectPlusQuery<SxOracle, PhiOracle> {
        SuspectPlusQuery {
            suspect: self.sx_oracle(fp, self.x, flavour, sx_salt),
            query: self.phi_oracle(fp, flavour, phi_salt),
        }
    }

    /// Resolves the spec's [`OracleChoice`] to its concrete oracle type
    /// (with the canonical salt for each choice) and runs `v` with it.
    ///
    /// This is the *generic* dispatch over a runtime oracle choice:
    /// everything the visitor runs — typically a whole [`fd_sim::Sim`] —
    /// is monomorphized per oracle type, so detector reads inside the
    /// activation loop stay static calls. [`ScenarioSpec::build_oracle`]
    /// is the boxing instance of this dispatch, for callers that genuinely
    /// need an erased bundle.
    pub fn with_oracle<V: OracleVisitor>(&self, fp: &FailurePattern, v: V) -> V::Out {
        match self.oracle {
            OracleChoice::None => v.visit(fd_sim::NoOracle),
            OracleChoice::Omega => v.visit(self.omega_oracle(fp, salt::OMEGA)),
            OracleChoice::Sx(f) => v.visit(self.sx_oracle(fp, self.x, f, salt::SX)),
            OracleChoice::Phi(f) => v.visit(self.phi_oracle(fp, f, salt::PHI)),
            OracleChoice::Psi => v.visit(PsiOracle::new(self.phi_oracle(
                fp,
                Flavour::Eventual,
                salt::PSI_PHI,
            ))),
            OracleChoice::SxPlusPhi(f) => {
                v.visit(self.sx_plus_phi(fp, f, salt::ADDITION_SX, salt::ADDITION_PHI))
            }
            OracleChoice::Perfect(f) => v.visit(PerfectOracle::new(
                fp.clone(),
                f.scope(self.gst),
                self.seed ^ salt::PERFECT,
            )),
        }
    }

    /// Builds the oracle bundle named by [`ScenarioSpec::oracle`], erased
    /// behind one `Box` — the [`ScenarioSpec::with_oracle`] dispatch with
    /// the boxing visitor. Use `with_oracle` directly on hot paths; the
    /// box pays one vtable hop per oracle read (see the
    /// `impl OracleSuite for Box<dyn OracleSuite>` rustdoc in `fd-sim`).
    ///
    /// [`OracleChoice::None`] yields the empty bundle
    /// ([`fd_sim::NoOracle`]): building it succeeds, but any detector
    /// access during the run panics — an algorithm for the pure
    /// asynchronous model must never consult a detector.
    pub fn build_oracle(&self, fp: &FailurePattern) -> BoxedOracle {
        struct BoxUp;
        impl OracleVisitor for BoxUp {
            type Out = BoxedOracle;
            fn visit<O: OracleSuite + 'static>(self, oracle: O) -> BoxedOracle {
                Box::new(oracle)
            }
        }
        self.with_oracle(fp, BoxUp)
    }
}

/// One monomorphic continuation over a runtime-chosen oracle bundle,
/// consumed by [`ScenarioSpec::with_oracle`].
///
/// Implementors get called with the *concrete* oracle type named by the
/// spec's [`OracleChoice`], so a simulation started inside `visit` keeps
/// every oracle read statically dispatched end to end.
pub trait OracleVisitor {
    /// The continuation's result.
    type Out;

    /// Runs the continuation with the resolved oracle bundle.
    fn visit<O: OracleSuite + 'static>(self, oracle: O) -> Self::Out;
}

/// The canonical proposal vector: process `p_i` proposes `100 + i`.
pub fn default_proposals(n: usize) -> Vec<u64> {
    (0..n).map(|i| 100 + i as u64).collect()
}

/// Runs an automaton under this spec until `stop` fires (or the horizon /
/// event cap is reached) and returns the recorded trace.
pub fn run_scenario_until<A: Automaton, O: OracleSuite>(
    spec: &ScenarioSpec,
    fp: &FailurePattern,
    make: impl FnMut(ProcessId) -> A,
    oracle: O,
    stop: impl FnMut(&Trace) -> bool,
) -> Trace {
    let sim = Sim::new(spec.sim_config(), fp.clone(), make, oracle);
    sim.run_into_trace(stop)
}

/// Runs an automaton until every correct process has decided.
pub fn run_to_decision<A: Automaton, O: OracleSuite>(
    spec: &ScenarioSpec,
    fp: &FailurePattern,
    make: impl FnMut(ProcessId) -> A,
    oracle: O,
) -> Trace {
    let correct = fp.correct();
    run_scenario_until(spec, fp, make, oracle, move |tr| {
        tr.deciders().is_superset(correct)
    })
}

/// Runs an automaton to the configured horizon (transformations have no
/// decision event; their output is judged over the whole window).
pub fn run_to_horizon<A: Automaton, O: OracleSuite>(
    spec: &ScenarioSpec,
    fp: &FailurePattern,
    make: impl FnMut(ProcessId) -> A,
    oracle: O,
) -> Trace {
    run_scenario_until(spec, fp, make, oracle, |_| false)
}

/// Which oracle output [`sample_oracle`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampledSlot {
    /// Record `suspected_i`.
    Suspected,
    /// Record `trusted_i`.
    Trusted,
}

/// Samples a (possibly adapted) oracle's outputs over a time grid into a
/// trace, so the class checkers can audit the oracle itself — the engine
/// of the grid-reduction experiments.
pub fn sample_oracle<O: OracleSuite + ?Sized>(
    oracle: &mut O,
    fp: &FailurePattern,
    horizon: Time,
    step: u64,
    which: SampledSlot,
) -> Trace {
    let mut trace = Trace::new();
    let mut now = Time::ZERO;
    while now <= horizon {
        for i in (0..fp.n()).map(ProcessId) {
            if !fp.is_alive_at(i, now) {
                continue;
            }
            match which {
                SampledSlot::Suspected => {
                    let s = oracle.suspected(i, now);
                    trace.publish(i, slot::SUSPECTED, now, FdValue::Set(s));
                }
                SampledSlot::Trusted => {
                    let s = oracle.trusted(i, now);
                    trace.publish(i, slot::TRUSTED, now, FdValue::Set(s));
                }
            }
        }
        now += step.max(1);
    }
    trace.set_horizon(horizon);
    trace
}

/// The guarantee level a churn scenario claims — the verdict envelope for
/// runs under [`CrashPlan::Churn`].
///
/// PR 3 landed churn with safety-only guarantees because the Figure 3
/// algorithm has no catch-up for late joiners; the catch-up layer upgrades
/// churn scenarios to [`ChurnGuarantee::Liveness`]. The envelope keeps the
/// two claims honest: a safety-only run must never be scored as if it
/// promised termination, and a liveness run must actually deliver it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnGuarantee {
    /// Only safety is promised: whatever was decided is valid, within `k`,
    /// and decided once per process. Late joiners may never decide.
    SafetyOnly,
    /// Safety plus termination: every correct process — *including* every
    /// late joiner — decides within the horizon.
    Liveness,
}

/// The engine-level churn verdict: safety unconditionally, termination only
/// when the scenario claims [`ChurnGuarantee::Liveness`].
///
/// This is deliberately self-contained (decisions and the failure pattern
/// are everything it reads) so that every churn-aware scenario — core
/// algorithms, transformations, the facade pipeline — can share one
/// envelope; the per-algorithm problem specs (e.g. `fd_core::spec`) remain
/// the checkers for non-churn runs.
pub fn churn_envelope(
    trace: &Trace,
    fp: &FailurePattern,
    k: usize,
    proposals: &[u64],
    guarantee: ChurnGuarantee,
) -> CheckOutcome {
    // Safety 1: validity — every decided value was proposed.
    for d in trace.decisions() {
        if !proposals.contains(&d.value) {
            return CheckOutcome::fail_as(
                ViolationClass::Validity,
                format!(
                    "churn validity: {} decided {} which was never proposed",
                    d.by, d.value
                ),
            );
        }
    }
    // Safety 2: at most k distinct decisions.
    let distinct = trace.decided_values();
    if distinct.len() > k {
        return CheckOutcome::fail_as(
            ViolationClass::Agreement,
            format!(
                "churn agreement: {} distinct values decided ({distinct:?}) > k = {k}",
                distinct.len()
            ),
        );
    }
    // Safety 3: decide-once, and only by processes that were started.
    let mut seen = fd_sim::PSet::new();
    for d in trace.decisions() {
        if !seen.insert(d.by) {
            return CheckOutcome::fail_as(
                ViolationClass::DecideOnce,
                format!("churn decide-once: {} decided twice", d.by),
            );
        }
        if d.at < fp.start_time(d.by) {
            return CheckOutcome::fail_as(
                ViolationClass::DecideOnce,
                format!(
                    "churn structure: {} decided at {} before joining at {}",
                    d.by,
                    d.at,
                    fp.start_time(d.by)
                ),
            );
        }
    }
    match guarantee {
        ChurnGuarantee::SafetyOnly => CheckOutcome::pass(
            None,
            format!(
                "churn safety envelope: {} decisions within k = {k} (liveness not claimed)",
                trace.decisions().len()
            ),
        ),
        ChurnGuarantee::Liveness => {
            let missing = fp.correct() - trace.deciders();
            if missing.is_empty() {
                CheckOutcome::pass(
                    trace.decisions().last().map(|d| d.at),
                    format!("churn liveness envelope: all correct decided within k = {k}"),
                )
            } else {
                CheckOutcome::fail_as(
                    ViolationClass::Termination,
                    format!(
                        "churn liveness: correct {missing} never decided (late joiners included)"
                    ),
                )
            }
        }
    }
}

/// Uniform run statistics, extracted from the trace once, consumed by
/// tables, benches, and tests alike.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Point-to-point messages sent.
    pub msgs_sent: u64,
    /// Reliable-broadcast invocations.
    pub rb_sent: u64,
    /// Deliveries handed to live processes.
    pub delivered: u64,
    /// Events processed by the engine.
    pub events: u64,
    /// Largest round reached by a correct process (0 if none published).
    pub max_round: u64,
    /// Distinct decided values.
    pub decided_values: Vec<u64>,
    /// Time of the first decision.
    pub first_decision: Option<Time>,
    /// Time of the last decision.
    pub last_decision: Option<Time>,
}

impl Metrics {
    /// Extracts the metrics of a recorded run.
    pub fn from_trace(trace: &Trace, fp: &FailurePattern) -> Self {
        let max_round = fp
            .correct()
            .iter()
            .filter_map(|p| trace.history(p, slot::ROUND).last())
            .map(|v| match v {
                FdValue::Num(r) => r,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        let ds = trace.decisions();
        Metrics {
            msgs_sent: trace.counter(counter::SENT),
            rb_sent: trace.counter(counter::RB_SENT),
            delivered: trace.counter(counter::DELIVERED),
            events: trace.counter(counter::EVENTS),
            max_round,
            decided_values: trace.decided_values(),
            first_decision: ds.first().map(|d| d.at),
            last_decision: ds.last().map(|d| d.at),
        }
    }
}

/// The one report type every scenario produces: the spec that ran, the
/// materialized pattern, the trace, the verdict, and the metrics.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Name of the scenario that ran.
    pub scenario: &'static str,
    /// The spec that ran (seed included).
    pub spec: ScenarioSpec,
    /// The run's failure pattern.
    pub fp: FailurePattern,
    /// Everything observed during the run.
    pub trace: Trace,
    /// The scenario's verdict: the problem spec for algorithms, the target
    /// class definition for transformations.
    pub check: CheckOutcome,
    /// Uniform run statistics.
    pub metrics: Metrics,
}

impl ScenarioReport {
    /// Assembles a report, extracting the metrics from the trace.
    pub fn new(
        scenario: &'static str,
        spec: &ScenarioSpec,
        fp: FailurePattern,
        trace: Trace,
        check: CheckOutcome,
    ) -> Self {
        ScenarioReport {
            scenario,
            spec: spec.clone(),
            metrics: Metrics::from_trace(&trace, &fp),
            fp,
            trace,
            check,
        }
    }

    /// The seed this report was produced from.
    pub fn seed(&self) -> u64 {
        self.spec.seed
    }

    /// A stable 64-bit digest of everything observable about the run: the
    /// seed, the failure pattern (crash and start times), the event and
    /// message counts, every decision, every published history sample, and
    /// the counters. Two runs are *the same run* iff their fingerprints
    /// match — the currency of the determinism tests (parallel vs
    /// sequential, rerun vs rerun, cold vs cached).
    ///
    /// Uses [`std::collections::hash_map::DefaultHasher`], which hashes
    /// with fixed keys — the digest is stable across runs and builds of
    /// the same toolchain, but is not an on-disk format.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.spec.seed.hash(&mut h);
        self.fp.n().hash(&mut h);
        for p in (0..self.fp.n()).map(ProcessId) {
            self.fp.crash_time(p).map(|t| t.ticks()).hash(&mut h);
            self.fp.start_time(p).ticks().hash(&mut h);
        }
        self.metrics.events.hash(&mut h);
        self.metrics.msgs_sent.hash(&mut h);
        self.check.ok.hash(&mut h);
        for d in self.trace.decisions() {
            (d.at.ticks(), d.by.0, d.value).hash(&mut h);
        }
        for ((p, slot), hist) in self.trace.histories() {
            (p.0, slot).hash(&mut h);
            for s in hist.samples() {
                s.at.ticks().hash(&mut h);
                hash_fd_value(s.value, &mut h);
            }
        }
        for (name, v) in self.trace.counters() {
            (name, v).hash(&mut h);
        }
        h.finish()
    }

    /// The slim view of this report: everything a summary needs, nothing a
    /// million-seed sweep can't afford to hold.
    pub fn slim(&self) -> SlimReport {
        SlimReport {
            scenario: self.scenario,
            seed: self.spec.seed,
            num_faulty: self.fp.num_faulty(),
            check: self.check.clone(),
            metrics: self.metrics.clone(),
            counters: self.trace.counters(),
        }
    }
}

fn hash_fd_value(v: FdValue, h: &mut impl Hasher) {
    match v {
        FdValue::Set(s) => match s.try_bits() {
            // Sets confined to 128 identities hash exactly as the
            // historical u128 mask did — every recorded digest for n ≤ 128
            // depends on it. Wider sets (n > 128 runs) get their own tag.
            Some(bits) => {
                0u8.hash(h);
                bits.hash(h);
            }
            None => {
                4u8.hash(h);
                s.words().hash(h);
            }
        },
        FdValue::Proc(p) => {
            1u8.hash(h);
            p.0.hash(h);
        }
        FdValue::Flag(b) => {
            2u8.hash(h);
            b.hash(h);
        }
        FdValue::Num(n) => {
            3u8.hash(h);
            n.hash(h);
        }
    }
}

/// The streaming-sweep currency: metrics, verdict, and counters of one run
/// *without* the [`Trace`]. A [`SlimReport`] is a few hundred bytes where a
/// full [`ScenarioReport`] holds every published history of the run, which
/// is what lets [`Runner::sweep_fold`] push millions of seeds while keeping
/// only `O(threads)` full reports alive at any instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlimReport {
    /// Name of the scenario that ran.
    pub scenario: &'static str,
    /// The seed of the run.
    pub seed: u64,
    /// Number of faulty processes in the materialized pattern.
    pub num_faulty: usize,
    /// The scenario's verdict.
    pub check: CheckOutcome,
    /// Uniform run statistics.
    pub metrics: Metrics,
    /// The run's named counters, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
}

impl SlimReport {
    /// A named counter's value (0 if the run never bumped it).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// Shard count of the [`ReportCache`] (a power of two; the shard index is
/// taken from the key hash's low bits).
const CACHE_SHARDS: usize = 16;

/// Default entry cap of a [`ReportCache`] (~a few hundred bytes per
/// [`SlimReport`], so the default bounds the cache at low hundreds of MB).
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

/// A content-addressed cache of completed runs, keyed on
/// `(`[`ScenarioSpec::fingerprint`]` ⊕ scenario name, seed)` and storing
/// [`SlimReport`]s — the constant-size currency of streaming sweeps.
///
/// Runs are pure functions of `(scenario, spec, seed)` (the repository's
/// determinism contract), which is what makes caching sound: a hit returns
/// exactly the report a fresh run would produce, bit for bit, so cached
/// sweeps fold to bit-identical summaries while skipping the simulation
/// entirely. Overlapping experiment grids (E4/E10-style shared cells) and
/// repeated sweeps therefore compute each `(spec, seed)` cell once.
///
/// The map is sharded ([`CACHE_SHARDS`] mutexes, shard picked by key hash)
/// so parallel sweep workers rarely contend; hit/miss tallies are atomics
/// surfaced into `BENCH_sweep.json`. Insertion stops (deterministically —
/// the cached *values* are pure, so skipping an insert can never change a
/// result) once the capacity is reached.
///
/// **When to bypass it**: anything measuring *throughput* (the bench legs
/// gate uncached runners), and anything whose spec mutates state outside
/// the report — engine scenarios never do. Attach a cache explicitly via
/// [`Runner::with_cache`]; the default runner never caches.
///
/// # Durability hooks
///
/// The cache itself is process-local, but it exposes the two hooks a
/// durable store needs to make sweeps resumable across processes:
///
/// * [`ReportCache::hydrate`] inserts an already-computed cell (read back
///   from disk) without touching the hit/miss tallies or the spill hook —
///   subsequent sweeps then hit it exactly as if this process had computed
///   it;
/// * [`ReportCache::set_spill`] registers a callback invoked once per
///   *computed* insert (never for hits, never for hydrated cells) with the
///   cell's key and [`SlimReport`], so a store can persist fresh cells as
///   they are produced. The callback runs on the sweep worker that
///   computed the run — keep it cheap (hand off to a writer thread; see
///   `fd_bench::store`). It fires even when the capacity cap skips the
///   in-memory insert: durability must not degrade when the process-local
///   map fills.
pub struct ReportCache {
    shards: Vec<Mutex<HashMap<(u64, u64), SlimReport>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Computed inserts skipped because the shard was at capacity (the
    /// cache never evicts; it stops admitting instead — deterministic, and
    /// sound because cached values are pure).
    capped: AtomicU64,
    /// Cells seeded from a durable store via [`ReportCache::hydrate`].
    hydrated: AtomicU64,
    spill: Mutex<Option<Arc<SpillFn>>>,
    per_shard_capacity: usize,
}

/// The durable-store callback type of [`ReportCache::set_spill`]: invoked
/// as `(spec_salt, seed, report)` once per computed cell.
pub type SpillFn = dyn Fn(u64, u64, &SlimReport) + Send + Sync;

impl std::fmt::Debug for ReportCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReportCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("capped_inserts", &self.capped_inserts())
            .field("hydrated", &self.hydrated())
            .field("spill", &self.spill.lock().unwrap().is_some())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .finish()
    }
}

impl Default for ReportCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ReportCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// An empty cache capped at `capacity` entries (rounded up to a
    /// multiple of the shard count).
    pub fn with_capacity(capacity: usize) -> Self {
        ReportCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capped: AtomicU64::new(0),
            hydrated: AtomicU64::new(0),
            spill: Mutex::new(None),
            per_shard_capacity: capacity.div_ceil(CACHE_SHARDS).max(1),
        }
    }

    /// The process-wide shared cache: one instance every caller (all bench
    /// experiments, any [`Runner::with_cache`] user) can point at, so
    /// overlapping grids in different experiments share cells.
    pub fn global() -> &'static ReportCache {
        static GLOBAL: OnceLock<ReportCache> = OnceLock::new();
        GLOBAL.get_or_init(ReportCache::new)
    }

    /// The scenario-plus-spec half of a cache key: the scenario's
    /// [`Scenario::cache_tag`] (which must cover any out-of-spec knobs)
    /// mixed with the spec fingerprint. Public because it *is* the
    /// content-address contract — a durable store persisting cells under
    /// `(salt, seed)` keys (see `fd_bench::store`) must derive the salt
    /// exactly as the in-memory sweeps do, or hydrated cells would never
    /// be looked up. Like [`ScenarioSpec::fingerprint`], the value is
    /// stable across runs and builds of one toolchain but is not an
    /// on-disk format across toolchains — which is why stores record the
    /// engine version in their manifest.
    pub fn salt(tag: &str, spec: &ScenarioSpec) -> u64 {
        let mut h = DefaultHasher::new();
        tag.hash(&mut h);
        spec.fingerprint().hash(&mut h);
        h.finish()
    }

    #[inline]
    fn shard(&self, key: (u64, u64)) -> &Mutex<HashMap<(u64, u64), SlimReport>> {
        // Mix both halves so sweeps (varying seeds) spread across shards.
        let mix = key.0 ^ key.1.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mix as usize) & (CACHE_SHARDS - 1)]
    }

    /// Looks up one run; tallies a hit or a miss.
    fn lookup(&self, key: (u64, u64)) -> Option<SlimReport> {
        let found = self.shard(key).lock().unwrap().get(&key).cloned();
        match found {
            Some(slim) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(slim)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores one computed run (the in-memory insert is a no-op once the
    /// shard is at capacity, tallied in [`ReportCache::capped_inserts`]),
    /// then hands the cell to the spill hook, if one is registered — the
    /// spill fires even for capped inserts, so a durable store keeps
    /// persisting after the process-local map fills.
    fn insert(&self, key: (u64, u64), slim: SlimReport) {
        {
            let mut shard = self.shard(key).lock().unwrap();
            if shard.len() < self.per_shard_capacity {
                shard.insert(key, slim.clone());
            } else {
                self.capped.fetch_add(1, Ordering::Relaxed);
            }
        }
        let spill = self.spill.lock().unwrap().clone();
        if let Some(spill) = spill {
            spill(key.0, key.1, &slim);
        }
    }

    /// Seeds one already-computed cell (read back from a durable store)
    /// under the standard `(spec salt, seed)` key. Neither the hit/miss
    /// tallies nor the spill hook fire — the cell was not computed here and
    /// is already persisted. Respects the capacity cap (a skipped insert is
    /// tallied in [`ReportCache::capped_inserts`] and only costs a
    /// recompute later). Returns whether the cell was admitted.
    pub fn hydrate(&self, key: (u64, u64), slim: SlimReport) -> bool {
        let mut shard = self.shard(key).lock().unwrap();
        if shard.len() < self.per_shard_capacity {
            shard.insert(key, slim);
            drop(shard);
            self.hydrated.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            self.capped.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Registers (or clears) the durable-store spill hook. See the type
    /// docs: the callback observes every *computed* cell, keyed exactly as
    /// the cache stores it.
    pub fn set_spill(&self, spill: Option<Arc<SpillFn>>) {
        *self.spill.lock().unwrap() = spill;
    }

    /// Completed-run lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a real run so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Inserts (computed or hydrated) skipped because the target shard was
    /// at capacity. The cache never evicts — it stops admitting — so this
    /// is the "eviction" observability counter: a nonzero value means the
    /// in-memory cache is full and store hydration is partially effective.
    pub fn capped_inserts(&self) -> u64 {
        self.capped.load(Ordering::Relaxed)
    }

    /// Cells admitted via [`ReportCache::hydrate`] so far.
    pub fn hydrated(&self) -> u64 {
        self.hydrated.load(Ordering::Relaxed)
    }

    /// Number of cached runs.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Alias of [`ReportCache::entries`] — the occupancy stat surfaced by
    /// the sweep bin's `--profile` output.
    pub fn len(&self) -> usize {
        self.entries()
    }

    /// Whether the cache holds no runs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and zeroes the tallies (the spill hook, if any,
    /// stays registered).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap().clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.capped.store(0, Ordering::Relaxed);
        self.hydrated.store(0, Ordering::Relaxed);
    }
}

/// One algorithm or transformation, exposed to the engine.
///
/// Implementations must be deterministic in `spec.seed` and must not keep
/// mutable state across runs ([`Runner`] may call [`Scenario::run`] from
/// several threads at once).
pub trait Scenario: Sync {
    /// Stable name, used in reports and tables.
    fn name(&self) -> &'static str;

    /// Executes one run of the scenario under `spec`.
    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport;

    /// The scenario half of a [`ReportCache`] key: must uniquely identify
    /// this scenario *object*, including every knob it carries outside
    /// the [`ScenarioSpec`] (the spec fingerprint and the seed are the
    /// key's other half). The default — the scenario's name — is correct
    /// for unit-struct scenarios; **any scenario with out-of-spec
    /// configuration** (an ablation switch, an instance count, a flavour)
    /// **must override this**, or differently-configured objects sharing
    /// a name would serve each other's cached runs.
    fn cache_tag(&self) -> String {
        self.name().to_string()
    }
}

/// Executes scenarios: single runs, multi-seed sweeps, grid matrices —
/// sequentially or on a thread pool, with identical results either way.
/// Optionally consults a [`ReportCache`] for its streaming sweeps.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    threads: usize,
    cache: Option<&'static ReportCache>,
}

impl Runner {
    /// A strictly sequential runner.
    pub fn sequential() -> Self {
        Runner {
            threads: 1,
            cache: None,
        }
    }

    /// A runner using all available cores.
    pub fn parallel() -> Self {
        Runner {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cache: None,
        }
    }

    /// A runner with an explicit thread count (≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
            cache: None,
        }
    }

    /// Consults `cache` in the streaming sweeps ([`Runner::sweep_fold`] /
    /// [`Runner::sweep_summary`]): cache-hit seeds skip the simulation and
    /// fold the stored [`SlimReport`] — bit-identical to a cold sweep,
    /// because runs are pure in `(scenario, spec, seed)`. Misses run and
    /// populate the cache. The `'static` bound keeps the runner `Copy`;
    /// use [`ReportCache::global`] or a deliberately leaked instance.
    pub fn with_cache(mut self, cache: &'static ReportCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The cache this runner consults, if any.
    pub fn cache(&self) -> Option<&'static ReportCache> {
        self.cache
    }

    /// The worker count this runner fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes one run.
    pub fn run(&self, scenario: &dyn Scenario, spec: &ScenarioSpec) -> ScenarioReport {
        scenario.run(spec)
    }

    /// Executes one run per seed in `seeds`, all other parameters fixed.
    /// Reports come back in seed order regardless of thread interleaving.
    pub fn sweep(
        &self,
        scenario: &dyn Scenario,
        base: &ScenarioSpec,
        seeds: Range<u64>,
    ) -> Vec<ScenarioReport> {
        let specs: Vec<ScenarioSpec> = seeds.map(|s| base.with_seed(s)).collect();
        self.grid(scenario, &specs)
    }

    /// Executes one run per spec (a full grid matrix), in spec order.
    pub fn grid(&self, scenario: &dyn Scenario, specs: &[ScenarioSpec]) -> Vec<ScenarioReport> {
        par_map(specs.len(), self.threads, |i| scenario.run(&specs[i]))
    }

    /// Streams one run per seed through `fold`, in seed order, without ever
    /// holding more than `O(threads)` reports: each run is slimmed to a
    /// [`SlimReport`] the moment it finishes and its [`Trace`] is dropped.
    ///
    /// The fold is applied in strict seed order regardless of thread
    /// interleaving, so the result is bit-identical to a sequential fold.
    /// Workers that race ahead of the fold frontier park until the window
    /// (a small multiple of the thread count) reopens, which bounds the
    /// reorder buffer on skewed workloads.
    pub fn sweep_fold<A: Send>(
        &self,
        scenario: &dyn Scenario,
        base: &ScenarioSpec,
        seeds: Range<u64>,
        init: A,
        fold: impl Fn(&mut A, SlimReport) + Sync,
    ) -> A {
        let lo = seeds.start;
        let n = usize::try_from(seeds.end.saturating_sub(lo)).expect("seed range too large");
        if n == 0 {
            return init;
        }
        // One salt per sweep: the spec fingerprint (seed-independent) mixed
        // with the scenario name; per-run keys append the seed.
        let cache = self
            .cache
            .map(|c| (c, ReportCache::salt(&scenario.cache_tag(), base)));
        let run_one = |seed: u64| -> SlimReport {
            if let Some((cache, salt)) = cache {
                let key = (salt, seed);
                if let Some(slim) = cache.lookup(key) {
                    return slim;
                }
                let slim = scenario.run(&base.with_seed(seed)).slim();
                cache.insert(key, slim.clone());
                return slim;
            }
            scenario.run(&base.with_seed(seed)).slim()
        };
        let threads = self.threads.clamp(1, n);
        if threads == 1 {
            let mut acc = init;
            for i in 0..n {
                fold(&mut acc, run_one(lo + i as u64));
            }
            return acc;
        }
        struct FoldState<A> {
            /// Finished runs waiting for the fold frontier, keyed by index.
            pending: BTreeMap<usize, SlimReport>,
            /// Next index the in-order fold expects.
            next: usize,
            acc: A,
        }
        let state = Mutex::new(FoldState {
            pending: BTreeMap::new(),
            next: 0,
            acc: init,
        });
        let frontier_moved = Condvar::new();
        let claim = AtomicUsize::new(0);
        let window = threads * 4;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = claim.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    {
                        // Park while too far ahead of the fold frontier. The
                        // worker holding the frontier index is never gated
                        // (window ≥ 1), so the frontier always advances.
                        let mut st = state.lock().unwrap();
                        while i >= st.next + window {
                            st = frontier_moved.wait(st).unwrap();
                        }
                    }
                    let slim = run_one(lo + i as u64);
                    let mut guard = state.lock().unwrap();
                    let st = &mut *guard;
                    st.pending.insert(i, slim);
                    loop {
                        let frontier = st.next;
                        match st.pending.remove(&frontier) {
                            Some(s) => {
                                fold(&mut st.acc, s);
                                st.next += 1;
                            }
                            None => break,
                        }
                    }
                    drop(guard);
                    frontier_moved.notify_all();
                });
            }
        });
        state.into_inner().unwrap().acc
    }

    /// Streams a sweep directly into a [`SweepSummary`] — the constant-memory
    /// replacement for `SweepSummary::of(&runner.sweep(..))`.
    pub fn sweep_summary(
        &self,
        scenario: &dyn Scenario,
        base: &ScenarioSpec,
        seeds: Range<u64>,
    ) -> SweepSummary {
        self.sweep_fold(
            scenario,
            base,
            seeds,
            SweepSummary::default(),
            |acc, slim| acc.absorb(&slim),
        )
    }
}

/// Deterministic work-stealing map: `f(i)` for `i in 0..n`, results in index
/// order. Indices are claimed one at a time from a shared atomic counter, so
/// a thread that draws a long run (a big-`n` cell, an anarchic schedule)
/// simply claims fewer indices while the others drain the rest — skewed
/// grids keep every core busy, unlike the old one-chunk-per-thread split.
/// Each index is computed exactly once on exactly one thread and lands in
/// its own slot, so the output is independent of the thread count.
fn par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    // A Mutex per slot rather than OnceLock: it only needs `T: Send`, and
    // the lock is always uncontended (each index is claimed exactly once).
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // One index per claim: scenario runs are ~ms-scale, so the
                // fetch_add is noise and the finest granularity wins on skew.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().unwrap() = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("par_map slot filled"))
        .collect()
}

/// Aggregate view of a sweep, for tables and benches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// Number of runs.
    pub runs: u64,
    /// Runs whose check passed.
    pub passes: u64,
    /// Sum of point-to-point messages across runs.
    pub total_msgs: u64,
    /// Sum of processed events across runs.
    pub total_events: u64,
    /// Sum of per-run max rounds.
    pub total_rounds: u64,
    /// Largest round seen in any run.
    pub max_round: u64,
    /// Sum of last-decision times over the runs that decided.
    pub total_decision_time: u64,
    /// Runs in which at least one decision was made.
    pub decided_runs: u64,
}

impl SweepSummary {
    /// Summarizes a batch of reports.
    pub fn of(reports: &[ScenarioReport]) -> Self {
        let mut s = SweepSummary::default();
        for r in reports {
            s.absorb_parts(r.check.ok, &r.metrics);
        }
        s
    }

    /// Folds one slim report into the summary (the streaming counterpart of
    /// [`SweepSummary::of`], fed by [`Runner::sweep_fold`]).
    pub fn absorb(&mut self, slim: &SlimReport) {
        self.absorb_parts(slim.check.ok, &slim.metrics);
    }

    fn absorb_parts(&mut self, ok: bool, m: &Metrics) {
        self.runs += 1;
        self.passes += ok as u64;
        self.total_msgs += m.msgs_sent;
        self.total_events += m.events;
        self.total_rounds += m.max_round;
        self.max_round = self.max_round.max(m.max_round);
        if let Some(t) = m.last_decision {
            self.total_decision_time += t.ticks();
            self.decided_runs += 1;
        }
    }

    /// Whether every run passed.
    pub fn all_pass(&self) -> bool {
        self.passes == self.runs
    }

    /// `"passes/runs"`, the tables' favourite cell.
    pub fn pass_cell(&self) -> String {
        format!("{}/{}", self.passes, self.runs)
    }

    /// Mean messages per run (0 if empty).
    pub fn avg_msgs(&self) -> u64 {
        self.total_msgs.checked_div(self.runs).unwrap_or(0)
    }

    /// Mean max-round per run (0 if empty).
    pub fn avg_rounds(&self) -> u64 {
        self.total_rounds.checked_div(self.runs).unwrap_or(0)
    }

    /// Mean last-decision time over the runs that decided.
    pub fn avg_decision_time(&self) -> Option<u64> {
        self.total_decision_time.checked_div(self.decided_runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_plans_materialize() {
        assert_eq!(CrashPlan::None.materialize(4, 1, 0).num_faulty(), 0);
        assert_eq!(
            CrashPlan::Random { f: 2, by: Time(10) }
                .materialize(5, 2, 1)
                .num_faulty(),
            2
        );
        let ini = CrashPlan::Initial { f: 3 }.materialize(7, 3, 2);
        assert_eq!(ini.num_faulty(), 3);
        assert_eq!(ini.last_crash(), Time::ZERO);
        let an = CrashPlan::Anarchic { by: Time(100) }.materialize(6, 2, 3);
        assert!(an.num_faulty() <= 2);
    }

    #[test]
    fn random_plan_respects_promised_bound_for_all_seeds() {
        // Regression for the crash-plan off-by-one: `by` is an inclusive
        // upper bound, including the degenerate `by = Time(0)`.
        for by in [0u64, 1, 10] {
            let plan = CrashPlan::Random { f: 2, by: Time(by) };
            for seed in 0..256 {
                let fp = plan.materialize(6, 2, seed);
                for p in fp.faulty() {
                    let at = fp.crash_time(p).unwrap();
                    assert!(at <= Time(by), "seed {seed}: crash at {at} > by {by}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "f=3 crashes exceed the bound")]
    fn random_plan_rejects_f_above_t() {
        let _ = CrashPlan::Random { f: 3, by: Time(5) }.materialize(7, 2, 0);
    }

    #[test]
    #[should_panic(expected = "f=9 crashes exceed the bound")]
    fn random_plan_rejects_f_above_n() {
        // f > n used to die deep inside sample_indices; now the panic names
        // the offending plan at materialization.
        let _ = CrashPlan::Random { f: 9, by: Time(5) }.materialize(5, 2, 0);
    }

    #[test]
    #[should_panic(expected = "must satisfy t < n")]
    fn initial_plan_rejects_t_at_n() {
        let _ = CrashPlan::Initial { f: 1 }.materialize(4, 4, 0);
    }

    #[test]
    #[should_panic(expected = "must satisfy t < n")]
    fn anarchic_plan_rejects_t_at_n() {
        let _ = CrashPlan::Anarchic { by: Time(10) }.materialize(3, 3, 0);
    }

    #[test]
    fn materialization_is_deterministic() {
        let plan = CrashPlan::Anarchic { by: Time(500) };
        for seed in 0..16 {
            assert_eq!(plan.materialize(7, 3, seed), plan.materialize(7, 3, seed));
        }
        let churn = CrashPlan::Churn {
            crash_by: Time(200),
            rejoin_after: 40,
        };
        for seed in 0..16 {
            assert_eq!(churn.materialize(7, 3, seed), churn.materialize(7, 3, seed));
        }
    }

    #[test]
    fn churn_plan_materializes_pairs() {
        let plan = CrashPlan::Churn {
            crash_by: Time(300),
            rejoin_after: 25,
        };
        for seed in 0..64 {
            let fp = plan.materialize(9, 4, seed);
            assert_eq!(fp.num_faulty(), 4);
            let joiners = (0..9).map(ProcessId).filter(|&p| fp.joins_late(p)).count();
            assert!(joiners <= 4);
            for v in fp.faulty() {
                assert!(fp.crash_time(v).unwrap() <= Time(300), "seed {seed}");
            }
        }
    }

    #[test]
    fn churn_plan_edge_cases() {
        // crash_by = 0: every crash is initial, every joiner starts at
        // exactly rejoin_after.
        let plan = CrashPlan::Churn {
            crash_by: Time::ZERO,
            rejoin_after: 10,
        };
        for seed in 0..32 {
            let fp = plan.materialize(6, 2, seed);
            for v in fp.faulty() {
                assert_eq!(fp.crash_time(v), Some(Time::ZERO));
            }
            for p in (0..6).map(ProcessId).filter(|&p| fp.joins_late(p)) {
                assert_eq!(fp.start_time(p), Time(10), "seed {seed}");
            }
        }
        // rejoin_after = 0 at crash_by = 0 collapses to all-initial
        // crashes with every id live from time zero.
        let fp = CrashPlan::Churn {
            crash_by: Time::ZERO,
            rejoin_after: 0,
        }
        .materialize(6, 2, 3);
        assert!(!fp.has_late_joiners());
    }

    #[test]
    #[should_panic(expected = "churn needs 2t ≤ n")]
    fn churn_plan_rejects_crowded_system() {
        let _ = CrashPlan::Churn {
            crash_by: Time(10),
            rejoin_after: 5,
        }
        .materialize(5, 3, 0);
    }

    #[test]
    fn spec_builders_compose() {
        let spec = ScenarioSpec::new(7, 3)
            .kz(2)
            .x(2)
            .y(1)
            .gst(Time(400))
            .seed(9)
            .max_time(Time(60_000));
        assert_eq!((spec.n, spec.t, spec.k, spec.z), (7, 3, 2, 2));
        assert_eq!(spec.sim_config().seed, 9);
        assert_eq!(spec.sim_config().max_time, Time(60_000));
        assert_eq!(spec.with_seed(11).seed, 11);
        assert_eq!(spec.with_seed(11).n, 7);
    }

    #[test]
    fn spec_fingerprint_covers_the_knobs_but_not_seed_or_queue() {
        fn islands_34() -> Vec<fd_sim::PSet> {
            vec![
                (0..3).map(ProcessId).collect(),
                (3..7).map(ProcessId).collect(),
            ]
        }
        fn islands_43() -> Vec<fd_sim::PSet> {
            vec![
                (0..4).map(ProcessId).collect(),
                (4..7).map(ProcessId).collect(),
            ]
        }
        let base = ScenarioSpec::new(7, 3).kz(2).gst(Time(500));
        let fp = base.fingerprint();
        // Stable across clones and reruns.
        assert_eq!(fp, base.clone().fingerprint());
        // The seed is deliberately excluded: it is the key's other half.
        assert_eq!(fp, base.clone().seed(99).fingerprint());
        // Every other knob separates.
        let variants = [
            ScenarioSpec::new(8, 3).kz(2).gst(Time(500)),
            base.clone().k(1),
            base.clone().x(2),
            base.clone().y(2),
            base.clone().gst(Time(501)),
            base.clone().max_time(Time(99_999)),
            base.clone().max_steps(7),
            base.clone().oracle(OracleChoice::Sx(Flavour::Perpetual)),
            base.clone().oracle(OracleChoice::Sx(Flavour::Eventual)),
            base.clone().crashes(CrashPlan::Anarchic { by: Time(50) }),
            base.clone().crashes(CrashPlan::Initial { f: 1 }),
            base.clone().crashes(CrashPlan::Explicit(
                FailurePattern::builder(7)
                    .crash(ProcessId(1), Time(9))
                    .build(),
            )),
            base.clone().delay(DelayModel::Fixed(3)),
            base.clone().rule(DelayRule::silence_until(
                fd_sim::PSet::singleton(ProcessId(0)),
                fd_sim::PSet::full(7),
                Time(100),
            )),
            base.clone()
                .adversary(MessageAdversary::Rules(vec![MessageRule::drop(10)])),
            base.clone()
                .adversary(MessageAdversary::Rules(vec![MessageRule::drop(11)])),
            base.clone().adversary(MessageAdversary::Rules(vec![])),
            base.clone().catch_up(true),
            // Topology schedules: empty-but-set, a partition, the same
            // partition with its epoch boundary moved one tick, the same
            // partition with one island member moved across the cut, and a
            // latency override (cache-poisoning guards for the store).
            base.clone().topology(TopologySchedule::Epochs(vec![])),
            base.clone()
                .topology(TopologySchedule::partition_until(islands_34(), Time(500))),
            base.clone()
                .topology(TopologySchedule::partition_until(islands_34(), Time(501))),
            base.clone()
                .topology(TopologySchedule::partition_until(islands_43(), Time(500))),
            base.clone()
                .topology(TopologySchedule::Epochs(vec![TopologyEpoch::new(
                    Time::ZERO,
                    Time(500),
                )
                .link(LinkOverride::latency(
                    fd_sim::PSet::singleton(ProcessId(0)),
                    fd_sim::PSet::singleton(ProcessId(1)),
                    40,
                    90,
                ))])),
            base.clone()
                .topology(TopologySchedule::Epochs(vec![TopologyEpoch::new(
                    Time::ZERO,
                    Time(500),
                )
                .link(LinkOverride::latency(
                    fd_sim::PSet::singleton(ProcessId(0)),
                    fd_sim::PSet::singleton(ProcessId(1)),
                    40,
                    91,
                ))])),
            base.clone()
                .topology(TopologySchedule::Epochs(vec![TopologyEpoch::new(
                    Time::ZERO,
                    Time(500),
                )
                .link(LinkOverride::silence(
                    fd_sim::PSet::singleton(ProcessId(0)),
                    fd_sim::PSet::singleton(ProcessId(1)),
                ))])),
        ];
        let mut prints: Vec<u64> = variants.iter().map(|s| s.fingerprint()).collect();
        prints.push(fp);
        let unique: std::collections::BTreeSet<u64> = prints.iter().copied().collect();
        assert_eq!(unique.len(), prints.len(), "spec fingerprints collided");
    }

    /// A scenario that counts how often it actually runs — the probe for
    /// "a cache hit never re-executes the simulation".
    struct CountingProbe<'a>(&'a AtomicU64);
    impl Scenario for CountingProbe<'_> {
        fn name(&self) -> &'static str {
            "counting_probe"
        }
        fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
            self.0.fetch_add(1, Ordering::Relaxed);
            Probe.run(spec)
        }
    }

    #[test]
    fn cached_sweep_is_bit_identical_and_never_reruns() {
        let cache: &'static ReportCache = Box::leak(Box::new(ReportCache::new()));
        let executed = AtomicU64::new(0);
        let probe = CountingProbe(&executed);
        let base = ScenarioSpec::new(5, 2).crashes(CrashPlan::Anarchic { by: Time(50) });
        let cold = Runner::with_threads(4)
            .with_cache(cache)
            .sweep_summary(&probe, &base, 0..200);
        assert_eq!(executed.load(Ordering::Relaxed), 200);
        assert_eq!(cache.misses(), 200);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.entries(), 200);
        // Warm sweep: bit-identical summary, zero new executions, at any
        // thread count.
        for threads in [1usize, 4] {
            let warm = Runner::with_threads(threads)
                .with_cache(cache)
                .sweep_summary(&probe, &base, 0..200);
            assert_eq!(warm, cold, "threads={threads}");
            assert_eq!(
                executed.load(Ordering::Relaxed),
                200,
                "cache hit re-ran the scenario"
            );
        }
        assert_eq!(cache.hits(), 400);
        // A different spec (or an uncached runner) does not hit.
        let other =
            Runner::sequential()
                .with_cache(cache)
                .sweep_summary(&probe, &base.clone().k(2), 0..10);
        assert_eq!(other.runs, 10);
        assert_eq!(executed.load(Ordering::Relaxed), 210);
        let uncached = Runner::sequential().sweep_summary(&probe, &base, 0..10);
        assert_eq!(uncached.runs, 10);
        assert_eq!(
            executed.load(Ordering::Relaxed),
            220,
            "default runner must not cache"
        );
    }

    #[test]
    fn cache_capacity_caps_insertions_without_changing_results() {
        let cache: &'static ReportCache = Box::leak(Box::new(ReportCache::with_capacity(16)));
        let base = ScenarioSpec::new(5, 2);
        let runner = Runner::sequential().with_cache(cache);
        let a = runner.sweep_summary(&Probe, &base, 0..100);
        assert!(
            cache.entries() <= 32,
            "per-shard rounding stays near the cap"
        );
        let b = runner.sweep_summary(&Probe, &base, 0..100);
        assert_eq!(a, b, "capped cache must not change summaries");
        assert!(cache.hits() > 0, "capped cache still serves what it holds");
        assert!(
            cache.capped_inserts() > 0,
            "skipped inserts must be observable"
        );
        cache.clear();
        assert_eq!((cache.entries(), cache.hits(), cache.misses()), (0, 0, 0));
        assert_eq!((cache.capped_inserts(), cache.hydrated()), (0, 0));
    }

    #[test]
    fn spill_hook_observes_every_computed_cell_exactly_once() {
        let cache: &'static ReportCache = Box::leak(Box::new(ReportCache::with_capacity(16)));
        let spilled: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&spilled);
        cache.set_spill(Some(Arc::new(move |salt, seed, _slim| {
            sink.lock().unwrap().push((salt, seed));
        })));
        let runner = Runner::sequential().with_cache(cache);
        let base = ScenarioSpec::new(5, 2);
        runner.sweep_summary(&Probe, &base, 0..100);
        // Every computed cell spills — including the ones the capacity cap
        // kept out of the in-memory map.
        let seen = spilled.lock().unwrap().clone();
        assert_eq!(seen.len(), 100, "one spill per computed cell");
        let salts: std::collections::BTreeSet<u64> = seen.iter().map(|&(s, _)| s).collect();
        assert_eq!(salts.len(), 1, "one spec ⇒ one salt");
        let seeds: std::collections::BTreeSet<u64> = seen.iter().map(|&(_, s)| s).collect();
        assert_eq!(seeds.len(), 100);
        assert!(cache.capped_inserts() > 0, "cap engaged during the sweep");
        // Warm lookups and hydration never re-spill.
        runner.sweep_summary(&Probe, &base, 0..10);
        let slim = SlimReport {
            scenario: "probe",
            seed: 7,
            num_faulty: 0,
            check: CheckOutcome::pass(None, "ok"),
            metrics: Metrics::default(),
            counters: Vec::new(),
        };
        cache.hydrate((1, 7), slim);
        assert_eq!(spilled.lock().unwrap().len(), 100);
        cache.set_spill(None);
        runner.sweep_summary(&Probe, &base.clone().k(2), 0..5);
        assert_eq!(
            spilled.lock().unwrap().len(),
            100,
            "cleared hook must not fire"
        );
    }

    #[test]
    fn hydrated_cells_serve_hits_without_tallying() {
        let cache: &'static ReportCache = Box::leak(Box::new(ReportCache::new()));
        let executed = AtomicU64::new(0);
        let probe = CountingProbe(&executed);
        let base = ScenarioSpec::new(5, 2);
        // Compute the cells once in a scratch cache, capturing them via the
        // spill hook — exactly what a durable store does on a cold run.
        let scratch: &'static ReportCache = Box::leak(Box::new(ReportCache::new()));
        let captured: Arc<Mutex<Vec<(u64, u64, SlimReport)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&captured);
        scratch.set_spill(Some(Arc::new(move |salt, seed, slim| {
            sink.lock().unwrap().push((salt, seed, slim.clone()));
        })));
        let cold = Runner::sequential()
            .with_cache(scratch)
            .sweep_summary(&probe, &base, 0..50);
        assert_eq!(executed.load(Ordering::Relaxed), 50);
        // Hydrate a fresh cache from the captured cells ("reopen").
        for (salt, seed, slim) in captured.lock().unwrap().iter() {
            assert!(cache.hydrate((*salt, *seed), slim.clone()));
        }
        assert_eq!(cache.hydrated(), 50);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        let warm = Runner::sequential()
            .with_cache(cache)
            .sweep_summary(&probe, &base, 0..50);
        assert_eq!(warm, cold, "hydrated sweep must be bit-identical");
        assert_eq!(
            executed.load(Ordering::Relaxed),
            50,
            "hydrated cells must serve as hits"
        );
        assert_eq!((cache.hits(), cache.misses()), (50, 0));
    }

    #[test]
    fn spec_adversary_knob_reaches_sim_config() {
        let spec = ScenarioSpec::new(5, 2);
        assert!(spec.adversary.is_none());
        assert!(spec.sim_config().adversary.is_none());
        assert!(!spec.catch_up);
        let armed = spec
            .adversary(MessageAdversary::Rules(vec![MessageRule::drop(10)]))
            .catch_up(true);
        assert_eq!(armed.sim_config().adversary.describe(), "drop10");
        assert!(armed.catch_up);
        assert!(armed.with_seed(9).catch_up, "seed copies keep the knobs");
        assert_eq!(armed.with_seed(9).adversary.describe(), "drop10");
    }

    #[test]
    fn churn_envelope_scores_safety_and_liveness() {
        let fp = FailurePattern::builder(4)
            .crash(ProcessId(0), Time(10))
            .join(ProcessId(3), Time(50))
            .build();
        let proposals = [100, 101, 102, 103];
        let mut tr = Trace::new();
        tr.decide(Time(20), ProcessId(1), 101);
        tr.decide(Time(25), ProcessId(2), 101);
        // Joiner has not decided: safety passes, liveness fails.
        let safe = churn_envelope(&tr, &fp, 1, &proposals, ChurnGuarantee::SafetyOnly);
        assert!(safe.ok, "{safe}");
        let live = churn_envelope(&tr, &fp, 1, &proposals, ChurnGuarantee::Liveness);
        assert!(!live.ok, "{live}");
        assert!(live.detail.contains("never decided"), "{live}");
        // Once the joiner decides, liveness passes too.
        tr.decide(Time(90), ProcessId(3), 101);
        let live = churn_envelope(&tr, &fp, 1, &proposals, ChurnGuarantee::Liveness);
        assert!(live.ok, "{live}");
        assert_eq!(live.stabilized_at, Some(Time(90)));
    }

    #[test]
    fn churn_envelope_rejects_safety_violations_regardless_of_guarantee() {
        let fp = FailurePattern::builder(3)
            .join(ProcessId(2), Time(40))
            .build();
        let proposals = [100, 101, 102];
        for g in [ChurnGuarantee::SafetyOnly, ChurnGuarantee::Liveness] {
            // Unproposed value.
            let mut tr = Trace::new();
            tr.decide(Time(5), ProcessId(0), 999);
            assert!(!churn_envelope(&tr, &fp, 2, &proposals, g).ok);
            // Too many distinct values.
            let mut tr = Trace::new();
            tr.decide(Time(5), ProcessId(0), 100);
            tr.decide(Time(6), ProcessId(1), 101);
            assert!(!churn_envelope(&tr, &fp, 1, &proposals, g).ok);
            // Double decision.
            let mut tr = Trace::new();
            tr.decide(Time(5), ProcessId(0), 100);
            tr.decide(Time(7), ProcessId(0), 100);
            assert!(!churn_envelope(&tr, &fp, 1, &proposals, g).ok);
            // A decision before the decider joined.
            let mut tr = Trace::new();
            tr.decide(Time(5), ProcessId(2), 100);
            let out = churn_envelope(&tr, &fp, 1, &proposals, g);
            assert!(!out.ok, "{out}");
            assert!(out.detail.contains("before joining"), "{out}");
        }
    }

    #[test]
    fn fingerprint_separates_runs_and_matches_reruns() {
        let base = ScenarioSpec::new(5, 2).crashes(CrashPlan::Anarchic { by: Time(50) });
        let a = Probe.run(&base.with_seed(1)).fingerprint();
        let b = Probe.run(&base.with_seed(1)).fingerprint();
        let c = Probe.run(&base.with_seed(2)).fingerprint();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let seq = par_map(37, 1, |i| i * i);
        for threads in [2, 3, 8, 64] {
            assert_eq!(par_map(37, threads, |i| i * i), seq);
        }
    }

    #[test]
    fn par_map_empty_and_oversized() {
        assert!(par_map(0, 8, |i| i).is_empty());
        assert_eq!(par_map(3, 100, |i| i), vec![0, 1, 2]);
    }

    struct Probe;
    impl Scenario for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
            let fp = spec.materialize();
            let mut trace = Trace::new();
            trace.decide(Time(spec.seed + 1), ProcessId(0), spec.seed);
            trace.bump("probe.runs", 1);
            ScenarioReport::new(
                self.name(),
                spec,
                fp,
                trace,
                CheckOutcome::pass(None, "probe"),
            )
        }
    }

    #[test]
    fn sweep_orders_by_seed_in_parallel() {
        let base = ScenarioSpec::new(5, 2).crashes(CrashPlan::Anarchic { by: Time(50) });
        let seq = Runner::sequential().sweep(&Probe, &base, 0..64);
        let par = Runner::with_threads(8).sweep(&Probe, &base, 0..64);
        assert_eq!(seq.len(), 64);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.seed(), b.seed());
            assert_eq!(a.fp, b.fp);
            assert_eq!(a.metrics.decided_values, b.metrics.decided_values);
        }
    }

    #[test]
    fn par_map_balances_skewed_workloads() {
        // Indices with wildly different costs: the atomic-claim scheduler
        // must still produce index-ordered, thread-count-independent output.
        let cost = |i: usize| {
            let mut acc = i as u64;
            let spins = if i.is_multiple_of(7) { 50_000 } else { 10 };
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        };
        let seq = par_map(129, 1, cost);
        for threads in [2, 4, 8, 64] {
            assert_eq!(par_map(129, threads, cost), seq, "threads={threads}");
        }
    }

    #[test]
    fn sweep_fold_matches_eager_summary_over_10k_seeds() {
        let base = ScenarioSpec::new(5, 2).crashes(CrashPlan::Anarchic { by: Time(50) });
        let eager = SweepSummary::of(&Runner::sequential().sweep(&Probe, &base, 0..10_000));
        for threads in [1usize, 3, 8] {
            let streamed = Runner::with_threads(threads).sweep_summary(&Probe, &base, 0..10_000);
            assert_eq!(streamed, eager, "threads={threads}");
        }
    }

    #[test]
    fn sweep_fold_folds_in_seed_order() {
        let base = ScenarioSpec::new(5, 2);
        for threads in [2usize, 8] {
            let seeds = Runner::with_threads(threads).sweep_fold(
                &Probe,
                &base,
                0..2_000,
                Vec::new(),
                |v, slim| v.push(slim.seed),
            );
            assert_eq!(seeds, (0..2_000).collect::<Vec<u64>>(), "threads={threads}");
        }
    }

    #[test]
    fn sweep_fold_empty_range() {
        let base = ScenarioSpec::new(5, 2);
        let s = Runner::with_threads(4).sweep_summary(&Probe, &base, 7..7);
        assert_eq!(s, SweepSummary::default());
    }

    #[test]
    fn slim_report_carries_counters_and_verdict() {
        let rep = Probe.run(&ScenarioSpec::new(5, 2).seed(3));
        let slim = rep.slim();
        assert_eq!(slim.seed, 3);
        assert!(slim.check.ok);
        assert_eq!(slim.metrics.decided_values, rep.metrics.decided_values);
        assert_eq!(slim.counter("probe.runs"), rep.trace.counter("probe.runs"));
    }

    #[test]
    fn summary_aggregates() {
        let base = ScenarioSpec::new(5, 2);
        let reports = Runner::sequential().sweep(&Probe, &base, 0..10);
        let s = SweepSummary::of(&reports);
        assert_eq!(s.runs, 10);
        assert!(s.all_pass());
        assert_eq!(s.decided_runs, 10);
        assert_eq!(s.pass_cell(), "10/10");
    }

    #[test]
    fn build_oracle_honours_choice() {
        let fp = FailurePattern::all_correct(5);
        let spec = ScenarioSpec::new(5, 2).z(2);
        let mut omega = spec.clone().oracle(OracleChoice::Omega).build_oracle(&fp);
        let leaders = omega.trusted(ProcessId(0), Time(10_000));
        assert!(!leaders.is_empty());
        let mut sx = spec
            .clone()
            .x(3)
            .oracle(OracleChoice::Sx(Flavour::Perpetual))
            .build_oracle(&fp);
        let _ = sx.suspected(ProcessId(0), Time(10));
        let mut phi = spec
            .clone()
            .oracle(OracleChoice::Phi(Flavour::Perpetual))
            .build_oracle(&fp);
        let _ = phi.query(ProcessId(0), fd_sim::PSet::full(5), Time(10));
    }
}
