//! The discrete-event simulation engine.
//!
//! Drives a set of [`Automaton`] processes over the asynchronous network of
//! [`crate::network`], under a [`FailurePattern`], recording a [`Trace`].
//! Everything is deterministic in the `(config, pattern, seed)` triple.

use crate::adversary::{BroadcastEffects, MessageAdversary, RouteEffects, TopologySchedule};
use crate::arena::MsgArena;
use crate::automaton::{Automaton, Ctx, Op};
use crate::event::{EventKind, EventQueue, Staged};
use crate::failure::FailurePattern;
use crate::id::{PSet, ProcessId};
use crate::network::{DelayModel, DelayRule, Network};
use crate::oracle::OracleSuite;
use crate::rng::SplitMix64;
use crate::time::Time;
use crate::trace::Trace;

/// Counter names bumped by the engine itself.
pub mod counter {
    /// Point-to-point messages sent (a broadcast counts `n`).
    pub const SENT: &str = "sim.sent";
    /// Reliable-broadcast invocations.
    pub const RB_SENT: &str = "sim.rb_sent";
    /// Deliveries actually handed to live processes.
    pub const DELIVERED: &str = "sim.delivered";
    /// Events processed by the engine.
    pub const EVENTS: &str = "sim.events";
    /// Messages lost by the message adversary.
    pub const DROPPED: &str = "sim.dropped";
    /// Messages duplicated by the message adversary.
    pub const DUPLICATED: &str = "sim.duplicated";
    /// Messages corrupted by the message adversary.
    pub const CORRUPTED: &str = "sim.corrupted";
    /// Plain messages cut by the topology schedule (structural partition
    /// loss, counted separately from probabilistic `DROPPED`).
    pub const PARTITIONED: &str = "sim.partitioned";
}

/// Static configuration of a run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of processes `n` (≤ [`crate::id::MAX_PROCESSES`]).
    pub n: usize,
    /// Resilience bound `t` (maximum number of crashes).
    pub t: usize,
    /// Root seed; all nondeterminism derives from it.
    pub seed: u64,
    /// Hard stop: no event after this time is processed.
    pub max_time: Time,
    /// Base message-delay distribution.
    pub delay: DelayModel,
    /// Targeted-delay adversary rules.
    pub rules: Vec<DelayRule>,
    /// Periodic step interval bounds `[step_min, step_max]`. Values below 1
    /// are clamped up once at [`Sim::new`] (via [`SimConfig::normalized`]);
    /// the per-activation draw then uses them as-is.
    pub step_min: u64,
    /// See `step_min`.
    pub step_max: u64,
    /// Probability (percent) that an R-broadcast by a *faulty* process
    /// reaches no correct process (the partial-broadcast freedom the
    /// reliable-broadcast spec grants the adversary).
    pub rb_partial_pct: u8,
    /// Safety valve: abort after this many events (0 = unlimited).
    pub max_events: u64,
    /// The message adversary attacking the plain channels
    /// ([`MessageAdversary::None`] is bit-identical to no adversary at
    /// all; reliable-broadcast deliveries are exempt by construction).
    pub adversary: MessageAdversary,
    /// The structural topology schedule — partitions, heals, asymmetric
    /// links ([`TopologySchedule::None`] is bit-identical to no schedule
    /// at all; severed reliable-broadcast messages are delayed until the
    /// heal, never lost).
    pub topology: TopologySchedule,
}

impl SimConfig {
    /// A reasonable default configuration for `n` processes with resilience
    /// `t`: uniform delays 1–10, steps every 1–5 ticks, horizon 50 000.
    pub fn new(n: usize, t: usize) -> Self {
        assert!(n >= 2, "need at least two processes");
        assert!(t < n, "t must be < n");
        SimConfig {
            n,
            t,
            seed: 0,
            max_time: Time(50_000),
            delay: DelayModel::default(),
            rules: Vec::new(),
            step_min: 1,
            step_max: 5,
            rb_partial_pct: 30,
            // The safety valve scales with the O(n²) messages a broadcast
            // round actually costs: a 20M floor for small systems (the
            // historical cap, which no healthy n ≤ 128 run approaches) and
            // ~200 full broadcast rounds of headroom at the n = 1024
            // frontier, where a single pre-GST round is already ~1M events.
            max_events: 20_000_000u64.max((n as u64 * n as u64).saturating_mul(200)),
            adversary: MessageAdversary::None,
            topology: TopologySchedule::None,
        }
    }

    /// Sets the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
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

    /// Sets the horizon (builder style).
    pub fn max_time(mut self, max_time: Time) -> Self {
        self.max_time = max_time;
        self
    }

    /// Sets the delay model (builder style).
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Adds a targeted-delay rule (builder style).
    pub fn rule(mut self, rule: DelayRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Clamps the step-interval bounds into the engine's documented domain
    /// (`step_min ≥ 1`, `step_max ≥ 1`) — once, at construction time,
    /// instead of re-clamping on every per-activation draw. [`Sim::new`]
    /// applies this to whatever configuration it is handed, so degenerate
    /// values (a hand-built `step_min = 0`) behave exactly as they always
    /// did: as if they were 1.
    pub fn normalized(mut self) -> Self {
        self.step_min = self.step_min.max(1);
        self.step_max = self.step_max.max(1);
        self
    }
}

/// Outcome of a run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Everything observed during the run.
    pub trace: Trace,
    /// Time of the last processed event.
    pub end: Time,
    /// Number of processed events.
    pub events: u64,
    /// Whether the run stopped because the early-stop predicate fired.
    pub stopped_early: bool,
}

/// The simulation engine.
///
/// # Examples
///
/// ```
/// use fd_sim::*;
///
/// // A trivial automaton: everyone broadcasts "hello" once and decides on
/// // the first hello it hears.
/// #[derive(Default)]
/// struct Hello { decided: bool }
/// impl Automaton for Hello {
///     type Msg = u64;
///     fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, u64, O>) {
///         ctx.broadcast(ctx.me().0 as u64);
///     }
///     fn on_message<O: OracleSuite + ?Sized>(
///         &mut self,
///         _from: ProcessId,
///         msg: u64,
///         ctx: &mut Ctx<'_, u64, O>,
///     ) {
///         if !self.decided {
///             self.decided = true;
///             ctx.decide(msg);
///             ctx.halt();
///         }
///     }
///     fn on_step<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, u64, O>) {}
/// }
///
/// let cfg = SimConfig::new(4, 1).seed(7);
/// let fp = FailurePattern::all_correct(4);
/// let mut sim = Sim::new(cfg, fp, |_p| Hello::default(), NoOracle);
/// let report = sim.run();
/// assert_eq!(report.trace.deciders().len(), 4);
/// ```
pub struct Sim<A: Automaton, O: OracleSuite> {
    cfg: SimConfig,
    fp: FailurePattern,
    procs: Vec<A>,
    halted: Vec<bool>,
    oracle: O,
    net: Network,
    queue: EventQueue,
    /// In-flight message payloads. Every routed message body lives here
    /// exactly once while any of its deliveries are pending; queued events
    /// carry only a `Copy` [`crate::arena::MsgSlot`] handle. A clean
    /// broadcast therefore clones nothing at routing time — per-recipient
    /// copies materialize lazily when the delivery pops (and deliveries to
    /// crashed recipients never pay for a clone at all).
    arena: MsgArena<A::Msg>,
    /// Recycled operation buffers: the hot loop hands one to each
    /// activation's [`Ctx`] and takes it back (emptied) after applying the
    /// ops, so steady-state event processing allocates no `Vec<Op>`.
    op_pool: Vec<Vec<Op<A::Msg>>>,
    /// Recycled broadcast staging buffer: every (plain or reliable)
    /// broadcast stages its deliveries here and flushes them through one
    /// [`EventQueue::push_batch`] call, so steady-state broadcasting
    /// allocates nothing per recipient either.
    staging: Vec<Staged>,
    /// One independent step-schedule stream per process, so that the
    /// presence or absence of one process's events never perturbs another
    /// process's step times — a prerequisite for the indistinguishable-run
    /// adversaries of the paper's irreducibility proofs.
    step_rngs: Vec<SplitMix64>,
    rb_rng: SplitMix64,
    trace: Trace,
    now: Time,
    events: u64,
}

impl<A: Automaton, O: OracleSuite> std::fmt::Debug for Sim<A, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl<A: Automaton, O: OracleSuite> Sim<A, O> {
    /// Builds a simulation: one automaton per process from the factory, the
    /// failure pattern, and the oracle bundle.
    ///
    /// # Panics
    ///
    /// Panics if the pattern size does not match `cfg.n` or if the pattern
    /// violates `t`.
    pub fn new(
        cfg: SimConfig,
        fp: FailurePattern,
        mut make: impl FnMut(ProcessId) -> A,
        oracle: O,
    ) -> Self {
        // Normalize once: every later step-delay draw uses the bounds raw.
        let cfg = cfg.normalized();
        assert_eq!(fp.n(), cfg.n, "failure pattern size mismatch");
        assert!(
            fp.num_faulty() <= cfg.t,
            "failure pattern has {} crashes but t = {}",
            fp.num_faulty(),
            cfg.t
        );
        let root = SplitMix64::new(cfg.seed);
        // The message adversary draws from its own stream (salt 0xADE5 —
        // part of the reproducibility contract, see
        // `fd_detectors::scenario::salt`): enabling it never perturbs the
        // delay stream of the messages that still get through.
        let net = Network::new(cfg.delay.clone(), cfg.rules.clone(), root.stream(0xDE1A))
            .with_adversary(cfg.adversary.clone(), root.stream(0xADE5))
            .with_topology(cfg.topology.clone(), root.stream(0x7090));
        let procs: Vec<A> = (0..cfg.n).map(|i| make(ProcessId(i))).collect();
        let mut sim = Sim {
            halted: vec![false; cfg.n],
            procs,
            oracle,
            net,
            queue: EventQueue::new(),
            arena: MsgArena::with_capacity(cfg.n),
            op_pool: Vec::new(),
            staging: Vec::with_capacity(cfg.n + 1),
            step_rngs: (0..cfg.n)
                .map(|i| root.stream(0x57E9).stream(i as u64))
                .collect(),
            rb_rng: root.stream(0x4BAD),
            trace: Trace::new(),
            now: Time::ZERO,
            events: 0,
            cfg,
            fp,
        };
        sim.bootstrap();
        sim
    }

    fn bootstrap(&mut self) {
        for i in 0..self.cfg.n {
            let p = ProcessId(i);
            if self.fp.is_alive_at(p, Time::ZERO) {
                self.activate(p, Activation::Start);
                let d = self.next_step_delay(p);
                self.queue.push(Time(d), p, EventKind::Step);
            } else if self.fp.joins_late(p) {
                // Churn: a fresh process id joining the run late. Its
                // `on_start` fires at the join instant (unless it is also
                // scheduled to crash at or before it).
                let start = self.fp.start_time(p);
                if self.fp.is_alive_at(p, start) {
                    self.queue.push(start, p, EventKind::Join);
                }
            }
        }
    }

    fn next_step_delay(&mut self, p: ProcessId) -> u64 {
        // Bounds were normalized (≥ 1) once in `Sim::new`; no re-clamping.
        self.step_rngs[p.0].range(self.cfg.step_min, self.cfg.step_max)
    }

    /// Runs until the horizon, event cap, or queue exhaustion.
    pub fn run(&mut self) -> RunReport {
        self.run_until(|_| false)
    }

    /// Runs until `stop(&trace)` returns true (checked after each event),
    /// the horizon, the event cap, or queue exhaustion.
    pub fn run_until(&mut self, stop: impl FnMut(&Trace) -> bool) -> RunReport {
        let stopped_early = self.run_core(stop);
        RunReport {
            trace: self.trace.clone(),
            end: self.now,
            events: self.events,
            stopped_early,
        }
    }

    /// As [`Sim::run_until`], but consumes the simulator and moves the
    /// trace out instead of cloning it — the scenario engine's hot path,
    /// where the trace is the only thing the caller keeps.
    pub fn run_into_trace(mut self, stop: impl FnMut(&Trace) -> bool) -> Trace {
        self.run_core(stop);
        self.trace
    }

    fn run_core(&mut self, mut stop: impl FnMut(&Trace) -> bool) -> bool {
        let mut stopped_early = false;
        while let Some(ev) = self.queue.pop() {
            if ev.at > self.cfg.max_time {
                break;
            }
            if self.cfg.max_events != 0 && self.events >= self.cfg.max_events {
                break;
            }
            self.now = ev.at;
            self.events += 1;
            self.trace.bump(counter::EVENTS, 1);
            let to = ev.to;
            match ev.kind {
                EventKind::Deliver { from, slot } => {
                    if self.fp.is_alive_at(to, self.now) {
                        let msg = self.arena.take(slot);
                        self.trace.bump(counter::DELIVERED, 1);
                        self.activate(
                            to,
                            Activation::Message {
                                from,
                                msg,
                                rb: false,
                            },
                        );
                    } else {
                        // Crashed recipient: drop the delivery without ever
                        // materializing (cloning) the payload.
                        self.arena.release(slot);
                    }
                }
                EventKind::RbDeliver { from, slot } => {
                    if self.fp.is_alive_at(to, self.now) {
                        let msg = self.arena.take(slot);
                        self.trace.bump(counter::DELIVERED, 1);
                        self.activate(
                            to,
                            Activation::Message {
                                from,
                                msg,
                                rb: true,
                            },
                        );
                    } else {
                        self.arena.release(slot);
                    }
                }
                EventKind::Step => {
                    if self.fp.is_alive_at(to, self.now) && !self.halted[to.0] {
                        self.activate(to, Activation::Step);
                        if !self.halted[to.0] {
                            let d = self.next_step_delay(to);
                            self.queue.push(self.now + d, to, EventKind::Step);
                        }
                    }
                }
                EventKind::Join => {
                    if self.fp.is_alive_at(to, self.now) && !self.halted[to.0] {
                        self.activate(to, Activation::Start);
                        if !self.halted[to.0] {
                            let d = self.next_step_delay(to);
                            self.queue.push(self.now + d, to, EventKind::Step);
                        }
                    }
                }
                EventKind::Crash => {}
            }
            if stop(&self.trace) {
                stopped_early = true;
                break;
            }
        }
        // If the run stopped early the observation window ends at the last
        // event; otherwise (horizon reached or queue drained — after which
        // nothing can change) it extends to the configured horizon.
        self.trace.set_horizon(if stopped_early {
            self.now
        } else {
            self.cfg.max_time
        });
        stopped_early
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The failure pattern of this run.
    pub fn failure_pattern(&self) -> &FailurePattern {
        &self.fp
    }

    /// Immutable access to a process automaton (for post-run inspection).
    pub fn process(&self, p: ProcessId) -> &A {
        &self.procs[p.0]
    }

    fn activate(&mut self, p: ProcessId, what: Activation<A::Msg>) {
        let buf = self.op_pool.pop().unwrap_or_default();
        let ops = {
            let proc = &mut self.procs[p.0];
            let mut ctx = Ctx::with_buffer(
                p,
                self.cfg.n,
                self.cfg.t,
                self.now,
                &mut self.oracle,
                &mut self.trace,
                buf,
            );
            match what {
                Activation::Start => proc.on_start(&mut ctx),
                Activation::Message {
                    from,
                    msg,
                    rb: false,
                } => proc.on_message(from, msg, &mut ctx),
                Activation::Message {
                    from,
                    msg,
                    rb: true,
                } => proc.on_rb_deliver(from, msg, &mut ctx),
                Activation::Step => proc.on_step(&mut ctx),
            }
            ctx.take_ops()
        };
        let emptied = self.apply_ops(p, ops);
        self.op_pool.push(emptied);
    }

    /// Records what the adversary did to one routed message. On the clean
    /// path (and always under [`MessageAdversary::None`]) this bumps
    /// nothing, keeping adversary-free traces bit-identical.
    #[inline]
    fn note_effects(&mut self, fx: RouteEffects) {
        if fx.is_clean() {
            return;
        }
        if fx.dropped {
            self.trace.bump(counter::DROPPED, 1);
        }
        if fx.duplicated {
            self.trace.bump(counter::DUPLICATED, 1);
        }
        if fx.corrupted {
            self.trace.bump(counter::CORRUPTED, 1);
        }
        if fx.severed {
            self.trace.bump(counter::PARTITIONED, 1);
        }
    }

    /// As [`Sim::note_effects`] for a whole broadcast: the counter totals
    /// are identical to bumping per recipient, in one call.
    #[inline]
    fn note_broadcast_effects(&mut self, fx: BroadcastEffects) {
        if fx.is_clean() {
            return;
        }
        if fx.dropped > 0 {
            self.trace.bump(counter::DROPPED, fx.dropped);
        }
        if fx.duplicated > 0 {
            self.trace.bump(counter::DUPLICATED, fx.duplicated);
        }
        if fx.corrupted > 0 {
            self.trace.bump(counter::CORRUPTED, fx.corrupted);
        }
        if fx.severed > 0 {
            self.trace.bump(counter::PARTITIONED, fx.severed);
        }
    }

    /// Applies the buffered operations and returns the (drained) buffer to
    /// the caller for recycling.
    fn apply_ops(&mut self, from: ProcessId, mut ops: Vec<Op<A::Msg>>) -> Vec<Op<A::Msg>> {
        for op in ops.drain(..) {
            match op {
                Op::Send { to, msg } => {
                    self.trace.bump(counter::SENT, 1);
                    let fx =
                        self.net
                            .route(&mut self.queue, &mut self.arena, from, to, self.now, msg);
                    self.note_effects(fx);
                }
                Op::Broadcast { msg } => {
                    // Batched: all n delivery delays drawn in one pass (in
                    // the per-recipient order the old loop produced, so
                    // traces are unchanged), the payload stored once in the
                    // arena, and all deliveries inserted through a single
                    // `push_batch`.
                    self.trace.bump(counter::SENT, self.cfg.n as u64);
                    let fx = self.net.route_broadcast(
                        &mut self.queue,
                        &mut self.arena,
                        from,
                        self.cfg.n,
                        self.now,
                        msg,
                        &mut self.staging,
                    );
                    self.note_broadcast_effects(fx);
                }
                Op::RBroadcast { msg } => {
                    self.trace.bump(counter::RB_SENT, 1);
                    self.rb_cast(from, msg);
                }
                Op::Timer { delay } => {
                    self.queue.push(self.now + delay, from, EventKind::Step);
                }
                Op::Halt => {
                    self.halted[from.0] = true;
                }
            }
        }
        ops
    }

    /// Reliable-broadcast semantics (paper §2.1):
    /// * validity / integrity by construction (each receiver gets one copy);
    /// * termination: if the sender is correct, every correct process
    ///   R-delivers; if the sender is faulty, the adversary may instead let
    ///   the message reach only a (possibly empty) subset of the faulty
    ///   processes — never a strict subset of the correct ones.
    fn rb_cast(&mut self, from: ProcessId, msg: A::Msg) {
        let receivers: PSet = if !self.fp.is_correct(from)
            && self.rb_rng.chance(self.cfg.rb_partial_pct as u64, 100)
        {
            // Partial broadcast: a random subset of the faulty processes.
            let faulty: Vec<ProcessId> = self.fp.faulty().iter().collect();
            let k = self.rb_rng.below(faulty.len() as u64 + 1) as usize;
            self.rb_rng
                .sample_indices(faulty.len(), k)
                .into_iter()
                .map(|i| faulty[i])
                .collect()
        } else {
            PSet::full(self.cfg.n)
        };
        // R-deliveries bypass the message adversary: the rb axioms (no
        // loss, alteration, or duplication) are a premise of the model.
        // Batched like plain broadcasts: delays drawn in receiver order,
        // one `push_batch` insert.
        self.net.route_protected_batch(
            &mut self.queue,
            &mut self.arena,
            from,
            receivers,
            self.now,
            msg,
            &mut self.staging,
        );
    }
}

enum Activation<M> {
    Start,
    Message { from: ProcessId, msg: M, rb: bool },
    Step,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NoOracle;
    use crate::trace::slot;
    use crate::trace::FdValue;

    /// Broadcasts once; counts receipts; decides when it heard everyone
    /// except up to `t` processes.
    struct Counter {
        heard: PSet,
        decided: bool,
    }

    impl Automaton for Counter {
        type Msg = ();

        fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, (), O>) {
            ctx.broadcast(());
        }

        fn on_message<O: OracleSuite + ?Sized>(
            &mut self,
            from: ProcessId,
            _msg: (),
            ctx: &mut Ctx<'_, (), O>,
        ) {
            self.heard.insert(from);
            if !self.decided && self.heard.len() >= ctx.n() - ctx.t() {
                self.decided = true;
                ctx.decide(self.heard.len() as u64);
            }
        }

        fn on_step<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, (), O>) {}
    }

    fn counter(_p: ProcessId) -> Counter {
        Counter {
            heard: PSet::EMPTY,
            decided: false,
        }
    }

    #[test]
    fn all_correct_everyone_decides() {
        let cfg = SimConfig::new(5, 1).seed(3);
        let fp = FailurePattern::all_correct(5);
        let mut sim = Sim::new(cfg, fp, counter, NoOracle);
        let rep = sim.run();
        assert_eq!(rep.trace.deciders(), PSet::full(5));
    }

    #[test]
    fn crashed_process_does_not_decide() {
        let cfg = SimConfig::new(5, 1).seed(4);
        let fp = FailurePattern::builder(5)
            .crash(ProcessId(2), Time::ZERO)
            .build();
        let mut sim = Sim::new(cfg, fp, counter, NoOracle);
        let rep = sim.run();
        assert!(!rep.trace.deciders().contains(ProcessId(2)));
        assert_eq!(rep.trace.deciders().len(), 4);
    }

    #[test]
    fn determinism() {
        let run = |seed| {
            let cfg = SimConfig::new(6, 2).seed(seed);
            let fp = FailurePattern::builder(6)
                .crash(ProcessId(0), Time(7))
                .build();
            let mut sim = Sim::new(cfg, fp, counter, NoOracle);
            let rep = sim.run();
            (
                rep.events,
                rep.trace.counter(counter::SENT),
                rep.trace.decisions().to_vec(),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn early_stop_predicate() {
        let cfg = SimConfig::new(4, 1).seed(5);
        let fp = FailurePattern::all_correct(4);
        let mut sim = Sim::new(cfg, fp, counter, NoOracle);
        let rep = sim.run_until(|t| !t.decisions().is_empty());
        assert!(rep.stopped_early);
        assert!(!rep.trace.decisions().is_empty());
    }

    /// An automaton that publishes its round on every step and halts at 3.
    struct Stepper {
        rounds: u64,
    }

    impl Automaton for Stepper {
        type Msg = ();
        fn on_start<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, (), O>) {}
        fn on_message<O: OracleSuite + ?Sized>(
            &mut self,
            _f: ProcessId,
            _m: (),
            _ctx: &mut Ctx<'_, (), O>,
        ) {
        }
        fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, (), O>) {
            self.rounds += 1;
            ctx.publish(slot::ROUND, FdValue::Num(self.rounds));
            if self.rounds == 3 {
                ctx.halt();
            }
        }
    }

    #[test]
    fn halt_stops_steps() {
        let cfg = SimConfig::new(2, 0).seed(6);
        let fp = FailurePattern::all_correct(2);
        let mut sim = Sim::new(cfg, fp, |_| Stepper { rounds: 0 }, NoOracle);
        let rep = sim.run();
        for i in 0..2 {
            assert_eq!(
                rep.trace.history(ProcessId(i), slot::ROUND).last(),
                Some(FdValue::Num(3))
            );
        }
    }

    #[test]
    fn late_joiner_starts_at_its_join_time() {
        // p2 joins at 50: it misses the t=0 broadcasts (dropped — it is
        // not alive), broadcasts its own hello at 50, and everyone else
        // hears it.
        let cfg = SimConfig::new(4, 1).seed(9);
        let fp = FailurePattern::builder(4)
            .crash(ProcessId(0), Time(30))
            .join(ProcessId(2), Time(50))
            .build();
        let mut sim = Sim::new(cfg, fp, counter, NoOracle);
        let rep = sim.run();
        // p1/p3 hear p0's pre-crash broadcast, each other, and eventually
        // p2 — enough for n - t = 3. The joiner itself missed every t≈0
        // broadcast and nobody rebroadcasts, so it hears only itself and
        // must not decide.
        assert!(rep.trace.deciders().contains(ProcessId(1)));
        assert!(rep.trace.deciders().contains(ProcessId(3)));
        assert!(!rep.trace.deciders().contains(ProcessId(2)));
        // No delivery reached p2 before its join time.
        assert!(rep.events > 0);
    }

    #[test]
    fn join_past_horizon_never_activates() {
        let cfg = SimConfig::new(3, 1).seed(2).max_time(Time(100));
        let fp = FailurePattern::builder(3)
            .join(ProcessId(2), Time(10_000))
            .build();
        let mut sim = Sim::new(cfg, fp, counter, NoOracle);
        let rep = sim.run();
        // The run completes without panicking and the joiner does nothing.
        assert!(!rep.trace.deciders().contains(ProcessId(2)));
    }

    #[test]
    fn join_at_crash_instant_is_skipped() {
        // A process scheduled to crash at its own join time never runs.
        let cfg = SimConfig::new(3, 1).seed(3);
        let fp = FailurePattern::builder(3)
            .join(ProcessId(1), Time(20))
            .crash(ProcessId(1), Time(20))
            .build();
        let mut sim = Sim::new(cfg, fp, counter, NoOracle);
        let rep = sim.run();
        assert!(!rep.trace.deciders().contains(ProcessId(1)));
    }

    /// Regression for the hoisted step clamping: a degenerate
    /// `step_min = 0` behaves exactly as it always did under the old
    /// per-draw `.max(1)` — i.e. as `step_min = 1` — and `Sim::new`
    /// normalizes instead of the hot path re-clamping.
    #[test]
    fn degenerate_step_bounds_behave_as_before() {
        let run = |step_min: u64, step_max: u64| {
            let mut cfg = SimConfig::new(5, 1).seed(17);
            cfg.step_min = step_min;
            cfg.step_max = step_max;
            let mut sim = Sim::new(cfg, FailurePattern::all_correct(5), counter, NoOracle);
            let rep = sim.run();
            (
                rep.events,
                rep.end,
                rep.trace.counter(counter::SENT),
                rep.trace.decisions().to_vec(),
            )
        };
        assert_eq!(run(0, 5), run(1, 5), "step_min = 0 must act as 1");
        assert_eq!(run(0, 0), run(1, 1), "both bounds at 0 must act as 1");
        assert_eq!(
            SimConfig::new(4, 1).normalized().step_min,
            1,
            "defaults are already normal"
        );
        let mut degenerate = SimConfig::new(4, 1);
        degenerate.step_min = 0;
        degenerate.step_max = 0;
        let n = degenerate.normalized();
        assert_eq!((n.step_min, n.step_max), (1, 1));
    }

    #[test]
    fn explicit_none_adversary_is_bit_identical_to_default() {
        let run = |adv: MessageAdversary| {
            let cfg = SimConfig::new(6, 2).seed(21).adversary(adv);
            let fp = FailurePattern::builder(6)
                .crash(ProcessId(1), Time(30))
                .build();
            let mut sim = Sim::new(cfg, fp, counter, NoOracle);
            let rep = sim.run();
            (
                rep.events,
                rep.end,
                rep.trace.counter(counter::SENT),
                rep.trace.counter(counter::DELIVERED),
                rep.trace.decisions().to_vec(),
            )
        };
        let base = run(MessageAdversary::None);
        assert_eq!(base, run(MessageAdversary::Rules(vec![])));
    }

    #[test]
    fn drop_adversary_loses_deliveries_and_counts_them() {
        let adv = MessageAdversary::Rules(vec![crate::adversary::MessageRule::drop(30)]);
        let run = |adv: MessageAdversary| {
            let cfg = SimConfig::new(5, 1).seed(11).adversary(adv);
            let fp = FailurePattern::all_correct(5);
            let mut sim = Sim::new(cfg, fp, counter, NoOracle);
            sim.run()
        };
        let clean = run(MessageAdversary::None);
        let attacked = run(adv.clone());
        let dropped = attacked.trace.counter(counter::DROPPED);
        assert!(dropped > 0, "30% drop lost nothing");
        assert_eq!(
            attacked.trace.counter(counter::DELIVERED) + dropped,
            attacked.trace.counter(counter::SENT),
            "every sent message is either delivered or counted dropped"
        );
        assert_eq!(clean.trace.counter(counter::DROPPED), 0);
        // Determinism: the attacked run reproduces bit-identically.
        let again = run(adv);
        assert_eq!(attacked.events, again.events);
        assert_eq!(
            attacked.trace.counter(counter::DROPPED),
            again.trace.counter(counter::DROPPED)
        );
    }

    #[test]
    fn duplicate_adversary_delivers_extra_copies() {
        let adv = MessageAdversary::Rules(vec![crate::adversary::MessageRule::duplicate(50)]);
        let cfg = SimConfig::new(5, 1).seed(12).adversary(adv);
        let fp = FailurePattern::all_correct(5);
        let mut sim = Sim::new(cfg, fp, counter, NoOracle);
        let rep = sim.run();
        let dup = rep.trace.counter(counter::DUPLICATED);
        assert!(dup > 0, "50% duplication duplicated nothing");
        assert_eq!(
            rep.trace.counter(counter::DELIVERED),
            rep.trace.counter(counter::SENT) + dup,
            "each duplicate is one extra delivery"
        );
        // Determinism: the duplicating run reproduces bit-identically.
        let adv = MessageAdversary::Rules(vec![crate::adversary::MessageRule::duplicate(50)]);
        let cfg = SimConfig::new(5, 1).seed(12).adversary(adv);
        let mut sim = Sim::new(cfg, FailurePattern::all_correct(5), counter, NoOracle);
        let again = sim.run();
        assert_eq!(
            (rep.events, rep.trace.decisions()),
            (again.events, again.trace.decisions())
        );
    }

    #[test]
    fn rb_deliveries_survive_a_total_drop_adversary() {
        // Everyone rb-broadcasts once; a 100% drop adversary kills every
        // plain channel, but the axiomatic rb is exempt: every process
        // still R-delivers and decides.
        struct RbOnly {
            decided: bool,
        }
        impl Automaton for RbOnly {
            type Msg = u64;
            fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, u64, O>) {
                ctx.rb_broadcast(ctx.me().0 as u64);
            }
            fn on_message<O: OracleSuite + ?Sized>(
                &mut self,
                _f: ProcessId,
                _m: u64,
                _ctx: &mut Ctx<'_, u64, O>,
            ) {
            }
            fn on_rb_deliver<O: OracleSuite + ?Sized>(
                &mut self,
                _f: ProcessId,
                m: u64,
                ctx: &mut Ctx<'_, u64, O>,
            ) {
                if !self.decided {
                    self.decided = true;
                    ctx.decide(m);
                }
            }
            fn on_step<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, u64, O>) {}
        }
        let adv = MessageAdversary::Rules(vec![crate::adversary::MessageRule::drop(100)]);
        let cfg = SimConfig::new(4, 1).seed(5).adversary(adv);
        let fp = FailurePattern::all_correct(4);
        let mut sim = Sim::new(cfg, fp, |_| RbOnly { decided: false }, NoOracle);
        let rep = sim.run();
        assert_eq!(rep.trace.deciders().len(), 4);
        assert_eq!(rep.trace.counter(counter::DROPPED), 0, "nothing plain sent");
    }

    #[test]
    fn messages_from_faulty_sender_still_delivered() {
        // p0 broadcasts at start then crashes at t=1: reliability of the
        // channel means its messages still arrive.
        struct Once;
        impl Automaton for Once {
            type Msg = u8;
            fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, u8, O>) {
                if ctx.me() == ProcessId(0) {
                    ctx.broadcast(1);
                }
            }
            fn on_message<O: OracleSuite + ?Sized>(
                &mut self,
                from: ProcessId,
                _m: u8,
                ctx: &mut Ctx<'_, u8, O>,
            ) {
                if from == ProcessId(0) && ctx.me() != ProcessId(0) {
                    ctx.decide(1);
                }
            }
            fn on_step<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, u8, O>) {}
        }
        let cfg = SimConfig::new(3, 1).seed(8);
        let fp = FailurePattern::builder(3)
            .crash(ProcessId(0), Time(1))
            .build();
        let mut sim = Sim::new(cfg, fp, |_| Once, NoOracle);
        let rep = sim.run();
        assert!(rep.trace.deciders().contains(ProcessId(1)));
        assert!(rep.trace.deciders().contains(ProcessId(2)));
    }
}
