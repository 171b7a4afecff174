//! The `Ω_k`-based `k`-set agreement algorithm — **paper Figure 3**.
//!
//! This is the paper's §3 contribution: a round-based algorithm in which
//! processes use an underlying `Ω_z` failure detector (`z ≤ k`) to converge
//! on at most `k` distinct decisions, assuming `t < n/2`. Each round has two
//! phases:
//!
//! * **Phase 1** (lines 03–08): read `trusted_i` into `L_i`, broadcast
//!   `PHASE1(r, L_i, est_i)`, wait for `n−t` such messages *and* for either
//!   a message from a member of `L_i` or a change of `trusted_i`; adopt the
//!   estimate `v_L` of a majority-supported leader set `L` into `aux_i`, or
//!   `⊥` if no such value is visible.
//! * **Phase 2** (lines 10–14): broadcast `PHASE2(r, aux_i)`, wait for `n−t`
//!   of them; adopt any non-`⊥` value as the new estimate; if *no* `⊥` was
//!   received, reliably broadcast `DECISION(est_i)`.
//!
//! A process decides when it R-delivers a `DECISION` (task T2), which also
//! disseminates the value so every correct process decides (termination).
//!
//! Properties proved in the paper and checked mechanically here
//! (`crate::spec`): validity, at most `k` distinct decisions
//! (for `z ≤ k`), and termination. The algorithm is *oracle-efficient* and
//! *zero-degrading* (§3.2): with a perfect `Ω_k` and only initial crashes
//! it decides in a single round.

use crate::rounds::{Phase1Slab, Phase2Slab, RoundWindow};
use fd_sim::{
    slot, Automaton, Corruptible, Ctx, FdValue, OracleSuite, PSet, ProcessId, SplitMix64,
};

/// Message alphabet of the Figure 3 algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KsetMsg {
    /// `PHASE1(r_i, L_i, est_i)` — paper line 04.
    Phase1 {
        /// Round number.
        r: u32,
        /// The sender's leader set `L_i` at round start.
        leaders: PSet,
        /// The sender's current estimate.
        est: u64,
    },
    /// `PHASE2(r_i, aux_i)` — paper line 10; `None` encodes `⊥`.
    Phase2 {
        /// Round number.
        r: u32,
        /// The sender's `aux_i` (`None` = `⊥`).
        aux: Option<u64>,
    },
    /// `DECISION(est)` — paper line 14, reliably broadcast.
    Decision {
        /// The decided value.
        v: u64,
    },
}

impl Corruptible for KsetMsg {
    /// The message adversary may move the *estimates* in flight (bounded):
    /// `PHASE1.est` and any non-`⊥` `PHASE2.aux`. Leader sets and round
    /// numbers stay intact (structured corruption would make messages
    /// undecodable rather than wrong, which the drop rule already models),
    /// and `DECISION`s travel by reliable broadcast, which the adversary
    /// cannot touch.
    fn corrupt(&mut self, bound: u64, rng: &mut SplitMix64) -> bool {
        match self {
            KsetMsg::Phase1 { est, .. } => fd_sim::corrupt_u64(est, bound, rng),
            KsetMsg::Phase2 { aux: Some(v), .. } => fd_sim::corrupt_u64(v, bound, rng),
            _ => false,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Phase1,
    Phase2,
    Done,
}

/// Where the algorithm reads its leader sets from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LeaderInput {
    /// Read `trusted_i` from the run's oracle bundle (the normal mode).
    #[default]
    Oracle,
    /// Use an externally supplied set, updated by an enclosing automaton —
    /// this is how the algorithm is stacked on top of the two-wheels
    /// construction (see the `fd-grid` pipeline).
    External,
}

/// One process of the `Ω_k`-based `k`-set agreement algorithm (Figure 3).
///
/// Round state lives in the bitset slabs of [`crate::rounds`]: sender
/// dedup and the `n−t` quorum counts are popcounts, the line 07/13 value
/// choices are running aggregates, and slabs of finished rounds are
/// recycled — steady-state progress allocates nothing, independent of `n`.
/// `tests/slab_reference.rs` retains the original `HashMap`-of-`Vec`
/// implementation and pins both bit-identical.
///
/// # Examples
///
/// See [`crate::harness::run_kset_omega`] for the assembled experiment.
#[derive(Clone, Debug)]
pub struct KsetOmega {
    est: u64,
    r: u32,
    li: PSet,
    stage: Stage,
    aux: Option<u64>,
    p1: RoundWindow<Phase1Slab>,
    p2: RoundWindow<Phase2Slab>,
    decided: bool,
    leader_input: LeaderInput,
    external_leaders: PSet,
}

impl KsetOmega {
    /// Creates the process with its proposal `v_i`.
    pub fn new(proposal: u64) -> Self {
        KsetOmega {
            est: proposal,
            r: 0,
            li: PSet::EMPTY,
            stage: Stage::Done, // set properly in on_start
            aux: None,
            p1: RoundWindow::new(),
            p2: RoundWindow::new(),
            decided: false,
            leader_input: LeaderInput::Oracle,
            external_leaders: PSet::EMPTY,
        }
    }

    /// Switches the leader source to [`LeaderInput::External`].
    pub fn with_external_leaders(mut self) -> Self {
        self.leader_input = LeaderInput::External;
        self
    }

    /// Updates the externally supplied leader set (external mode only).
    pub fn set_external_leaders(&mut self, l: PSet) {
        self.external_leaders = l;
    }

    /// Whether this process has decided.
    pub fn has_decided(&self) -> bool {
        self.decided
    }

    /// The current round number (1-based once started).
    pub fn round(&self) -> u32 {
        self.r
    }

    fn read_leaders<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) -> PSet {
        match self.leader_input {
            LeaderInput::Oracle => ctx.trusted(),
            LeaderInput::External => self.external_leaders,
        }
    }

    /// Lines 03–04: enter round `r+1` and broadcast `PHASE1`.
    fn begin_round<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        self.r += 1;
        // Rounds below the new current one are never read again: recycle
        // their slabs (messages for them are dropped on arrival too).
        self.p1.retire_below(self.r);
        self.p2.retire_below(self.r);
        ctx.publish(slot::ROUND, FdValue::Num(self.r as u64));
        self.li = self.read_leaders(ctx);
        self.stage = Stage::Phase1;
        ctx.broadcast(KsetMsg::Phase1 {
            r: self.r,
            leaders: self.li,
            est: self.est,
        });
    }

    /// Re-evaluates the `wait until` guards; makes all enabled transitions.
    fn try_advance<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        loop {
            match self.stage {
                Stage::Done => return,
                Stage::Phase1 => {
                    let quorum = ctx.n() - ctx.t();
                    let n = ctx.n();
                    let li = self.li;
                    let (count, from_leader) = {
                        let slab = self.p1.entry(self.r, || Phase1Slab::new(n));
                        (slab.count(), slab.heard_from(li))
                    };
                    // Line 05: n−t PHASE1(r) messages.
                    if count < quorum {
                        return;
                    }
                    // Line 06: one from a member of L_i, or trusted_i moved.
                    // (`read_leaders` queries the oracle, so it must stay
                    // short-circuited exactly as before.)
                    if !from_leader && self.read_leaders(ctx) == li {
                        return;
                    }
                    // Lines 07–08: aux_i := v_L if a majority agrees on one
                    // leader set L and some member of L supplied a value.
                    let slab = self.p1.get(self.r).expect("entry created above");
                    self.aux = slab.majority(n).and_then(|l| slab.min_member_est(l));
                    // Line 10: broadcast PHASE2.
                    self.stage = Stage::Phase2;
                    ctx.broadcast(KsetMsg::Phase2 {
                        r: self.r,
                        aux: self.aux,
                    });
                }
                Stage::Phase2 => {
                    let quorum = ctx.n() - ctx.t();
                    let slab = *self.p2.entry(self.r, Phase2Slab::default);
                    // Line 11: n−t PHASE2(r) messages.
                    if slab.count() < quorum {
                        return;
                    }
                    // Line 13: adopt any non-⊥ value (deterministically the
                    // smallest, any choice is correct).
                    if let Some(v) = slab.min_val() {
                        self.est = v;
                    }
                    // Line 14: decide if no ⊥ was received.
                    if slab.all_non_bot() {
                        ctx.rb_broadcast(KsetMsg::Decision { v: self.est });
                        self.stage = Stage::Done;
                        return;
                    }
                    self.begin_round(ctx);
                }
            }
        }
    }
}

impl Automaton for KsetOmega {
    type Msg = KsetMsg;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        self.begin_round(ctx);
        self.try_advance(ctx);
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: KsetMsg,
        ctx: &mut Ctx<'_, KsetMsg, O>,
    ) {
        match msg {
            // Messages for rounds already finished were write-only state in
            // the reference implementation (the guards only ever read the
            // current round); here they are dropped outright so retired
            // slabs stay retired.
            KsetMsg::Phase1 { r, leaders, est } if r >= self.r => {
                let n = ctx.n();
                self.p1
                    .entry(r, || Phase1Slab::new(n))
                    .insert(from, leaders, est);
            }
            KsetMsg::Phase2 { r, aux } if r >= self.r => {
                self.p2.entry(r, Phase2Slab::default).insert(from, aux);
            }
            KsetMsg::Phase1 { .. } | KsetMsg::Phase2 { .. } => {}
            // Plain channels never carry decisions, but be permissive: a
            // composed wrapper may re-route them.
            KsetMsg::Decision { v } => self.on_rb_deliver(from, KsetMsg::Decision { v }, ctx),
        }
        self.try_advance(ctx);
    }

    fn on_rb_deliver<O: OracleSuite + ?Sized>(
        &mut self,
        _from: ProcessId,
        msg: KsetMsg,
        ctx: &mut Ctx<'_, KsetMsg, O>,
    ) {
        // Task T2: on R-delivery of DECISION(v), return v.
        if let KsetMsg::Decision { v } = msg {
            if !self.decided {
                self.decided = true;
                self.stage = Stage::Done;
                ctx.decide(v);
                ctx.halt();
            }
        }
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        // trusted_i is time-dependent: the line 06 guard and the line 03
        // re-read both need periodic re-evaluation.
        self.try_advance(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_detectors::OmegaOracle;
    use fd_sim::{FailurePattern, Sim, SimConfig, Time};

    fn run(n: usize, t: usize, z: usize, gst: u64, seed: u64) -> fd_sim::Trace {
        let fp = FailurePattern::all_correct(n);
        let oracle = OmegaOracle::new(fp.clone(), z, Time(gst), seed);
        let cfg = SimConfig::new(n, t).seed(seed).max_time(Time(60_000));
        let mut sim = Sim::new(
            cfg,
            fp.clone(),
            |p| KsetOmega::new(100 + p.0 as u64),
            oracle,
        );
        let correct = fp.correct();
        sim.run_until(move |tr| tr.deciders().is_superset(correct))
            .trace
    }

    #[test]
    fn consensus_with_omega_1() {
        let tr = run(5, 2, 1, 300, 1);
        assert_eq!(tr.deciders().len(), 5);
        assert_eq!(tr.decided_values().len(), 1);
    }

    #[test]
    fn two_set_agreement_with_omega_2() {
        for seed in 0..5 {
            let tr = run(5, 2, 2, 300, seed);
            assert_eq!(tr.deciders().len(), 5);
            assert!(
                tr.decided_values().len() <= 2,
                "decided {:?}",
                tr.decided_values()
            );
        }
    }

    #[test]
    fn validity_decided_values_are_proposals() {
        let tr = run(6, 2, 2, 200, 7);
        for v in tr.decided_values() {
            assert!((100..106).contains(&v));
        }
    }

    #[test]
    fn single_round_with_perfect_oracle_and_no_crash() {
        let fp = FailurePattern::all_correct(4);
        let oracle = OmegaOracle::perfect(fp.clone(), 1, 3);
        let cfg = SimConfig::new(4, 1).seed(3);
        let mut sim = Sim::new(cfg, fp.clone(), |p| KsetOmega::new(p.0 as u64), oracle);
        let correct = fp.correct();
        let rep = sim.run_until(move |tr| tr.deciders().is_superset(correct));
        // Oracle efficiency: every process stays in round 1.
        for i in 0..4 {
            let h = rep.trace.history(ProcessId(i), slot::ROUND);
            assert_eq!(h.last(), Some(FdValue::Num(1)), "{i} left round 1");
        }
    }
}
