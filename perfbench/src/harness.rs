//! The benchmark's instrumentation. All of it lives outside the program:
//! a harness [`Scenario`] that times every run it is handed, and, for the
//! traced run only, wrappers that record spans around each automaton
//! handler ([`Timed`]) and each oracle read ([`Counted`]).
//!
//! Hot spans (millions per second) are summed in thread-local counters
//! rather than kept as records: a run executes on one thread, so the
//! harness drains the counters when the run ends and adds them to the
//! shared [`RunLog`].

use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

use fd_core::spec::kset_spec;
use fd_core::KsetOmega;
use fd_detectors::scenario::{
    churn_envelope, default_proposals, run_to_decision, ChurnGuarantee, CrashPlan, OracleVisitor,
    Scenario, ScenarioReport, ScenarioSpec,
};
use fd_sim::{Automaton, Ctx, FailurePattern, OracleSuite, PSet, ProcessId, Time, Trace};

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

#[derive(Default)]
struct HotSpans {
    activation_ns: Cell<u64>,
    activations: Cell<u64>,
    oracle_ns: Cell<u64>,
    reads: Cell<u64>,
}

thread_local! {
    static HOT: HotSpans = HotSpans::default();
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

/// Drains this thread's hot-span counters:
/// `(activation_ns, activations, oracle_ns, reads)`.
fn take_hot() -> (u64, u64, u64, u64) {
    HOT.with(|h| {
        (
            h.activation_ns.take(),
            h.activations.take(),
            h.oracle_ns.take(),
            h.reads.take(),
        )
    })
}

/// An automaton wrapper that records one activation span per handler
/// call. Every handler forwards to the inner automaton unchanged, so a
/// run's trace and fingerprint are those of the inner automaton.
pub struct Timed<A>(pub A);

impl<A: Automaton> Timed<A> {
    fn span<R>(&mut self, f: impl FnOnce(&mut A) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.0);
        let ns = ns_since(start);
        HOT.with(|h| {
            add(&h.activation_ns, ns);
            add(&h.activations, 1);
        });
        r
    }
}

impl<A: Automaton> Automaton for Timed<A> {
    type Msg = A::Msg;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, Self::Msg, O>) {
        self.span(|a| a.on_start(ctx))
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Ctx<'_, Self::Msg, O>,
    ) {
        self.span(|a| a.on_message(from, msg, ctx))
    }

    fn on_rb_deliver<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Ctx<'_, Self::Msg, O>,
    ) {
        self.span(|a| a.on_rb_deliver(from, msg, ctx))
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, Self::Msg, O>) {
        self.span(|a| a.on_step(ctx))
    }
}

/// An oracle wrapper that records one span per read. Reads happen inside
/// activations, so these are the activation spans' children.
pub struct Counted<O>(pub O);

impl<O: OracleSuite> Counted<O> {
    fn span<R>(&mut self, f: impl FnOnce(&mut O) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.0);
        let ns = ns_since(start);
        HOT.with(|h| {
            add(&h.oracle_ns, ns);
            add(&h.reads, 1);
        });
        r
    }
}

impl<O: OracleSuite> OracleSuite for Counted<O> {
    fn suspected(&mut self, p: ProcessId, now: Time) -> PSet {
        self.span(|o| o.suspected(p, now))
    }

    fn trusted(&mut self, p: ProcessId, now: Time) -> PSet {
        self.span(|o| o.trusted(p, now))
    }

    fn query(&mut self, p: ProcessId, x: PSet, now: Time) -> bool {
        self.span(|o| o.query(p, x, now))
    }
}

/// Sums of the traced runs' spans and counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Traced runs.
    pub runs: u64,
    /// Simulator events.
    pub events: u64,
    /// Point-to-point messages sent.
    pub sent: u64,
    /// Deliveries.
    pub delivered: u64,
    /// Reliable broadcasts.
    pub rb_sent: u64,
    /// Published history samples.
    pub samples: u64,
    /// Failure pattern plus oracle construction.
    pub materialize_ns: u64,
    /// `run_to_decision`: engine plus activations.
    pub sim_ns: u64,
    /// Activation spans (oracle reads included).
    pub activation_ns: u64,
    /// Automaton handler calls.
    pub activations: u64,
    /// Oracle read spans.
    pub oracle_ns: u64,
    /// Oracle reads.
    pub reads: u64,
    /// The k-set (or churn-envelope) checker.
    pub check_ns: u64,
    /// `ScenarioReport::new` plus `fingerprint` plus `slim`.
    pub report_ns: u64,
}

impl LayerTotals {
    /// Adds `o` field by field.
    pub fn add(&mut self, o: &LayerTotals) {
        self.runs += o.runs;
        self.events += o.events;
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.rb_sent += o.rb_sent;
        self.samples += o.samples;
        self.materialize_ns += o.materialize_ns;
        self.sim_ns += o.sim_ns;
        self.activation_ns += o.activation_ns;
        self.activations += o.activations;
        self.oracle_ns += o.oracle_ns;
        self.reads += o.reads;
        self.check_ns += o.check_ns;
        self.report_ns += o.report_ns;
    }
}

/// What the harness records, shared by the runner's worker threads.
#[derive(Debug, Default)]
pub struct RunLog {
    inner: Mutex<LogInner>,
}

#[derive(Debug, Default)]
struct LogInner {
    run_ns: Vec<u64>,
    fingerprints: Vec<(u64, u64)>,
    layers: LayerTotals,
}

impl RunLog {
    fn lock(&self) -> std::sync::MutexGuard<'_, LogInner> {
        self.inner.lock().expect("a harness run panicked")
    }

    /// Takes the `(seed, fingerprint)` pairs recorded so far, in seed order.
    pub fn take_fingerprints(&self) -> Vec<(u64, u64)> {
        let mut v = std::mem::take(&mut self.lock().fingerprints);
        v.sort_unstable();
        v
    }

    /// Takes the per-run wall times recorded so far, in nanoseconds.
    pub fn take_run_ns(&self) -> Vec<u64> {
        std::mem::take(&mut self.lock().run_ns)
    }

    /// Takes the traced runs' layer totals.
    pub fn take_layers(&self) -> LayerTotals {
        std::mem::take(&mut self.lock().layers)
    }
}

/// The harness scenario: runs `inner` and records the run's wall time.
/// It keeps the inner scenario's name and cache tag, so cached cells are
/// keyed exactly as the inner scenario's would be.
///
/// With `traced`, a `kset_omega` run is re-assembled step by step —
/// materialize, `with_oracle` + `run_to_decision` over [`Timed`] and
/// [`Counted`], `kset_spec`, `ScenarioReport::new`, `fingerprint`,
/// `slim` — with a span around each step. Other scenarios are only timed.
pub struct Harness<'a> {
    /// The scenario whose runs are timed.
    pub inner: &'static dyn Scenario,
    /// Record layer spans (kset runs only).
    pub traced: bool,
    /// Record each run's fingerprint, computed after the run's clock stops.
    pub fingerprints: bool,
    /// Where records go.
    pub log: &'a RunLog,
}

impl Scenario for Harness<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cache_tag(&self) -> String {
        self.inner.cache_tag()
    }

    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let start = Instant::now();
        let (report, layers) = if self.traced && self.inner.name() == "kset_omega" {
            let (report, layers) = run_kset_traced(spec);
            (report, Some(layers))
        } else {
            (self.inner.run(spec), None)
        };
        let run_ns = ns_since(start);
        let fingerprint = self.fingerprints.then(|| report.fingerprint());
        let mut log = self.log.lock();
        log.run_ns.push(run_ns);
        if let Some(fp) = fingerprint {
            log.fingerprints.push((spec.seed, fp));
        }
        if let Some(layers) = layers {
            log.layers.add(&layers);
        }
        report
    }
}

/// One Figure 3 run, step for step as `fd_core::KsetScenario` runs it,
/// with a span around each step.
fn run_kset_traced(spec: &ScenarioSpec) -> (ScenarioReport, LayerTotals) {
    struct Visit<'a> {
        spec: &'a ScenarioSpec,
        fp: &'a FailurePattern,
        proposals: &'a [u64],
    }
    impl OracleVisitor for Visit<'_> {
        type Out = (Trace, u64);
        fn visit<O: OracleSuite + 'static>(self, oracle: O) -> (Trace, u64) {
            let start = Instant::now();
            let proposals = self.proposals;
            let trace = run_to_decision(
                self.spec,
                self.fp,
                |p| Timed(KsetOmega::new(proposals[p.0])),
                Counted(oracle),
            );
            (trace, ns_since(start))
        }
    }

    let mut t = LayerTotals {
        runs: 1,
        ..LayerTotals::default()
    };
    take_hot();
    let start = Instant::now();
    let fp = spec.materialize();
    let proposals = default_proposals(spec.n);
    t.materialize_ns = ns_since(start);

    let start = Instant::now();
    let (trace, sim_ns) = spec.with_oracle(
        &fp,
        Visit {
            spec,
            fp: &fp,
            proposals: &proposals,
        },
    );
    // Oracle construction happens inside `with_oracle`, before the run.
    t.materialize_ns += ns_since(start) - sim_ns;
    t.sim_ns = sim_ns;
    (t.activation_ns, t.activations, t.oracle_ns, t.reads) = take_hot();

    let start = Instant::now();
    let check = if matches!(spec.crashes, CrashPlan::Churn { .. }) {
        churn_envelope(&trace, &fp, spec.k, &proposals, ChurnGuarantee::SafetyOnly)
    } else {
        kset_spec(&trace, &fp, spec.k, &proposals)
    };
    t.check_ns = ns_since(start);
    t.samples = trace
        .histories()
        .map(|(_, h)| h.samples().len() as u64)
        .sum();

    let start = Instant::now();
    let report = ScenarioReport::new("kset_omega", spec, fp, trace, check);
    std::hint::black_box(report.fingerprint());
    std::hint::black_box(report.slim());
    t.report_ns = ns_since(start);

    t.events = report.metrics.events;
    t.sent = report.metrics.msgs_sent;
    t.delivered = report.metrics.delivered;
    t.rb_sent = report.metrics.rb_sent;
    (report, t)
}

/// The cost of one `Instant::now()` pair as seen by an enclosing span, in
/// nanoseconds: the median over batches of back-to-back pairs.
pub fn timer_pair_ns() -> f64 {
    const PAIRS: u32 = 20_000;
    let mut batches: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..PAIRS {
                let a = Instant::now();
                let b = Instant::now();
                std::hint::black_box(b.duration_since(a));
            }
            ns_since(start) as f64 / f64::from(PAIRS)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}
