//! Thin one-call adapters over the scenario engine.
//!
//! All sim setup, crash materialization, oracle assembly, and report
//! assembly live in `fd_detectors::scenario` and [`crate::scenario`]; this
//! module only provides the historical entry-point names.

use crate::scenario::{run_kset_with, ConsensusScenario, KsetScenario};
pub use fd_detectors::scenario::{
    CrashPlan, LinkOverride, MessageAdversary, MessageRule, ReportCache, RuleAction,
    ScenarioReport, ScenarioSpec, TopologyEpoch, TopologySchedule,
};
use fd_detectors::scenario::{Runner, SweepSummary};
use fd_detectors::Scenario;
use fd_sim::{FailurePattern, PSet};
use std::ops::Range;

/// The conventional `k`-set agreement spec: `n` processes, resilience `t`,
/// `k = z`, `Ω_z` oracle with GST 300, no crashes.
pub fn kset_config(n: usize, t: usize, k: usize) -> ScenarioSpec {
    KsetScenario::spec(n, t, k)
}

/// Runs the Figure 3 algorithm under an (adversarial) `Ω_z` oracle and
/// checks the `k`-set agreement specification.
///
/// # Panics
///
/// Panics if the configuration violates the model (`t ≥ n`, `z > n`).
pub fn run_kset_omega(spec: &ScenarioSpec) -> ScenarioReport {
    KsetScenario.run(spec)
}

/// As [`run_kset_omega`] with a caller-supplied oracle (used by the
/// lower-bound experiments that need hand-crafted adversarial oracles).
pub fn run_kset_with_oracle(
    spec: &ScenarioSpec,
    fp: FailurePattern,
    oracle: impl fd_sim::OracleSuite,
) -> ScenarioReport {
    run_kset_with(spec, fp, oracle)
}

/// Runs the MR `◇S` consensus baseline and checks the consensus (`k = 1`)
/// specification.
pub fn run_consensus_mr(spec: &ScenarioSpec) -> ScenarioReport {
    ConsensusScenario.run(spec)
}

/// Streams a multi-seed sweep of the Figure 3 algorithm into a
/// [`SweepSummary`] without retaining per-run traces — the entry point for
/// million-seed envelope checks (memory stays `O(threads)` full reports).
pub fn sweep_kset_summary(base: &ScenarioSpec, seeds: Range<u64>, runner: Runner) -> SweepSummary {
    runner.sweep_summary(&KsetScenario, base, seeds)
}

/// As [`sweep_kset_summary`] for the MR `◇S` consensus baseline.
pub fn sweep_consensus_summary(
    base: &ScenarioSpec,
    seeds: Range<u64>,
    runner: Runner,
) -> SweepSummary {
    runner.sweep_summary(&ConsensusScenario, base, seeds)
}

/// Convenience: the set of processes that decided.
pub fn deciders(report: &ScenarioReport) -> PSet {
    report.trace.deciders()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::Time;

    #[test]
    fn kset_harness_end_to_end() {
        for seed in 0..4 {
            let cfg = kset_config(5, 2, 2).seed(seed).crashes(CrashPlan::Random {
                f: 2,
                by: Time(500),
            });
            let rep = run_kset_omega(&cfg);
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
            assert!(rep.metrics.max_round >= 1);
            assert!(rep.metrics.msgs_sent > 0);
        }
    }

    #[test]
    fn consensus_harness_end_to_end() {
        let cfg = kset_config(5, 2, 1).seed(3);
        let rep = run_consensus_mr(&cfg);
        assert!(rep.check.ok, "{}", rep.check);
        assert_eq!(rep.metrics.decided_values.len(), 1);
    }

    #[test]
    fn adversary_knob_threads_through_the_harness() {
        // Explicit None is bit-identical to the default spec; an armed
        // adversary changes the run and reports its effects as counters.
        let base = kset_config(5, 2, 2)
            .seed(4)
            .gst(Time(400))
            .crashes(CrashPlan::Anarchic { by: Time(400) });
        let default_run = run_kset_omega(&base);
        let none = run_kset_omega(&base.clone().adversary(MessageAdversary::None));
        assert_eq!(default_run.fingerprint(), none.fingerprint());
        // Within-tolerance attack on a failure-free run: silencing one
        // sender (≤ t) is crash-equivalent — the n − t quorums never needed
        // it — and duplication is always harmless. Uniform drops, by
        // contrast, are *outside* the algorithm's liveness tolerance (one
        // permanently lost phase message can wedge a round forever); the
        // negative tests in tests/scenario_engine.rs pin that side.
        use fd_sim::{PSet, ProcessId};
        let muted = ProcessId(0);
        let armed = base
            .clone()
            .crashes(CrashPlan::None)
            .adversary(MessageAdversary::Rules(vec![
                MessageRule::drop(100)
                    .links(PSet::singleton(muted), PSet::singleton(muted).complement(5)),
                MessageRule::duplicate(20),
            ]));
        let rep = run_kset_omega(&armed);
        assert!(rep.check.ok, "{}", rep.check);
        let slim = rep.slim();
        assert!(slim.counter("sim.dropped") > 0);
        assert!(slim.counter("sim.duplicated") > 0);
        assert_ne!(rep.fingerprint(), default_run.fingerprint());
        // And bit-reproducibly so.
        assert_eq!(rep.fingerprint(), run_kset_omega(&armed).fingerprint());
    }

    #[test]
    fn topology_knob_threads_through_the_harness() {
        // Explicit None is bit-identical to the default spec; a partition
        // healing before GST changes the run, severs messages (the
        // sim.partitioned counter), and still decides — and the whole
        // thing is bit-reproducible.
        use fd_sim::{ProcessId, TopologySchedule};
        // Seed 5 puts the post-GST leader in the big island; a seed whose
        // leader is the isolated p4 (e.g. 4) wedges instead — the bench
        // leg's phase diagram maps that dependence out.
        let base = kset_config(5, 2, 2).seed(5).gst(Time(400));
        let default_run = run_kset_omega(&base);
        let none = run_kset_omega(&base.clone().topology(TopologySchedule::None));
        assert_eq!(default_run.fingerprint(), none.fingerprint());
        // {0,1,2,3} | {4}: the big island holds n - t = 3 quorums and (for
        // this seed) the post-GST leader, so it decides on its own; the
        // isolated p4 cannot — its round-1 phase messages are severed — but
        // the rb DECISION is *delayed until the heal*, never lost, so p4
        // still terminates. A heal after the horizon would honestly fail
        // liveness (the bench leg's negative witness pins that side).
        let islands = vec![
            (0..4).map(ProcessId).collect(),
            (4..5).map(ProcessId).collect(),
        ];
        let cut = base
            .clone()
            .topology(TopologySchedule::partition_until(islands, Time(200)));
        let rep = run_kset_omega(&cut);
        assert!(rep.check.ok, "{}", rep.check);
        let slim = rep.slim();
        assert!(slim.counter("sim.partitioned") > 0);
        assert_eq!(slim.counter("sim.dropped"), 0, "severed is not dropped");
        assert_ne!(rep.fingerprint(), default_run.fingerprint());
        assert_eq!(rep.fingerprint(), run_kset_omega(&cut).fingerprint());
    }

    #[test]
    fn churn_plan_is_scored_by_the_safety_envelope() {
        // The bare Figure 3 algorithm has no catch-up, so churn runs claim
        // safety only — and the envelope passes them on those terms
        // (upgrading to liveness is the facade churn scenario's job).
        for seed in 0..4 {
            let cfg = kset_config(6, 2, 1)
                .seed(seed)
                .gst(Time(300))
                .max_time(Time(20_000))
                .crashes(CrashPlan::Churn {
                    crash_by: Time(200),
                    rejoin_after: 100,
                });
            let rep = run_kset_omega(&cfg);
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
            assert!(
                rep.check.detail.contains("liveness not claimed"),
                "seed {seed}: {}",
                rep.check
            );
        }
    }

    #[test]
    fn churn_plan_runs_through_the_harness() {
        // Churn regression at the adapter level. Liveness is genuinely not
        // guaranteed here: with f = t churn only n − 2t processes run the
        // whole window, which is below the n − t quorum, and a fresh
        // joiner starts in round 1 with no catch-up — so the assertions
        // are safety (validity + k-agreement of whatever was decided),
        // structure, and determinism, never termination.
        use crate::spec;
        use fd_detectors::scenario::default_proposals;
        for seed in 0..4 {
            let cfg = kset_config(5, 2, 2)
                .seed(seed)
                .gst(Time(400))
                .max_time(Time(20_000))
                .crashes(CrashPlan::Churn {
                    crash_by: Time(200),
                    rejoin_after: 100,
                });
            let rep = run_kset_omega(&cfg);
            assert_eq!(rep.fp.num_faulty(), 2, "seed {seed}");
            let proposals = default_proposals(5);
            assert!(spec::validity(&rep.trace, &proposals).ok, "seed {seed}");
            assert!(spec::k_agreement(&rep.trace, 2).ok, "seed {seed}");
            // Bit-identical on a rerun.
            let again = run_kset_omega(&cfg);
            assert_eq!(rep.fingerprint(), again.fingerprint(), "seed {seed}");
        }
    }

    #[test]
    fn streamed_sweep_matches_eager_reports() {
        let cfg = kset_config(5, 2, 2)
            .gst(Time(400))
            .crashes(CrashPlan::Random {
                f: 2,
                by: Time(500),
            });
        let eager: Vec<ScenarioReport> = (0..16)
            .map(|seed| run_kset_omega(&cfg.with_seed(seed)))
            .collect();
        let streamed = sweep_kset_summary(&cfg, 0..16, fd_detectors::scenario::Runner::parallel());
        assert_eq!(streamed.runs, 16);
        assert_eq!(
            streamed.passes,
            eager.iter().filter(|r| r.check.ok).count() as u64
        );
        assert_eq!(
            streamed.total_msgs,
            eager.iter().map(|r| r.metrics.msgs_sent).sum::<u64>()
        );
    }

    #[test]
    fn cached_kset_sweep_matches_cold_sweep_through_the_harness() {
        let cache: &'static ReportCache = Box::leak(Box::new(ReportCache::new()));
        let cfg = kset_config(5, 2, 2)
            .gst(Time(400))
            .crashes(CrashPlan::Random {
                f: 2,
                by: Time(500),
            });
        let runner = fd_detectors::scenario::Runner::with_threads(2).with_cache(cache);
        let cold = sweep_kset_summary(&cfg, 0..12, runner);
        assert_eq!((cold.runs, cache.misses()), (12, 12));
        // Warm: the same spec, so everything hits.
        let warm = sweep_kset_summary(&cfg, 0..12, runner);
        assert_eq!(warm, cold);
        assert_eq!(cache.misses(), 12, "warm sweep recomputed a run");
        assert_eq!(cache.hits(), 12);
    }

    #[test]
    fn zero_degradation_single_round() {
        // Perfect oracle (gst = 0) + only initial crashes ⇒ round 1.
        for seed in 0..4 {
            let cfg = kset_config(6, 2, 1)
                .seed(seed)
                .gst(Time::ZERO)
                .crashes(CrashPlan::Initial { f: 2 });
            let rep = run_kset_omega(&cfg);
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
            assert_eq!(
                rep.metrics.max_round, 1,
                "seed {seed} took {} rounds",
                rep.metrics.max_round
            );
        }
    }
}
