//! The monomorphization contract: resolving a spec's [`OracleChoice`]
//! through the generic `ScenarioSpec::with_oracle` dispatch (static calls
//! in the activation loop) and through the erased
//! `ScenarioSpec::build_oracle` shim (`Box<dyn OracleSuite>`) must be
//! *bit-identical* — same oracle outputs for every choice, same full-run
//! trace fingerprints across 1/2/4/8 runner threads. Devirtualizing the hot path is a pure
//! performance move; these tests pin that it stays one.

use fd_grid::fd_core::{run_kset_with, KsetScenario};
use fd_grid::fd_sim::OracleSuite;
use fd_grid::scenario::{CrashPlan, Flavour, OracleChoice, OracleVisitor, Runner, ScenarioSpec};
use fd_grid::{FailurePattern, PSet, ProcessId, Time};

/// Which primitives an oracle choice answers (the others panic by
/// contract, so the probe must not touch them).
fn primitives(choice: OracleChoice) -> (bool, bool, bool) {
    // (suspected, trusted, query)
    match choice {
        OracleChoice::None => (false, false, false),
        OracleChoice::Omega => (false, true, false),
        OracleChoice::Sx(_) => (true, false, false),
        OracleChoice::Phi(_) | OracleChoice::Psi => (false, false, true),
        OracleChoice::SxPlusPhi(_) => (true, false, true),
        OracleChoice::Perfect(_) => (true, false, false),
    }
}

/// Drives an oracle through a fixed probe schedule — every process, a time
/// grid spanning the GST, and (for query oracles) a family of probe sets —
/// and transcribes every answer. Two oracles are draw-for-draw equal iff
/// their transcripts are.
fn transcript<O: OracleSuite + ?Sized>(
    oracle: &mut O,
    fp: &FailurePattern,
    choice: OracleChoice,
) -> Vec<String> {
    let (suspected, trusted, query) = primitives(choice);
    let n = fp.n();
    let mut out = Vec::new();
    for step in 0..40u64 {
        let now = Time(step * 25);
        for p in (0..n).map(ProcessId) {
            if suspected {
                out.push(format!("s:{p}@{now}={}", oracle.suspected(p, now)));
            }
            if trusted {
                out.push(format!("t:{p}@{now}={}", oracle.trusted(p, now)));
            }
            if query {
                for width in 1..=n.min(4) {
                    let x: PSet = (0..width).map(ProcessId).collect();
                    out.push(format!("q:{p}@{now}:{x}={}", oracle.query(p, x, now)));
                }
            }
        }
    }
    out
}

fn all_choices() -> Vec<OracleChoice> {
    let mut v = vec![OracleChoice::Omega, OracleChoice::Psi];
    for f in [Flavour::Perpetual, Flavour::Eventual] {
        v.push(OracleChoice::Sx(f));
        v.push(OracleChoice::Phi(f));
        v.push(OracleChoice::SxPlusPhi(f));
        v.push(OracleChoice::Perfect(f));
    }
    v
}

/// Every oracle choice, resolved generically and resolved boxed, answers a
/// fixed probe schedule identically — so the visitor dispatch introduces
/// concrete types without perturbing a single adversarial draw.
#[test]
fn generic_and_boxed_oracles_answer_identically_for_every_choice() {
    for choice in all_choices() {
        for seed in 0..3u64 {
            let spec = ScenarioSpec::new(7, 3)
                .seed(seed)
                .gst(Time(400))
                .oracle(choice)
                .crashes(CrashPlan::Random {
                    f: 3,
                    by: Time(500),
                });
            let fp = spec.materialize();

            struct Probe<'a> {
                fp: &'a FailurePattern,
                choice: OracleChoice,
            }
            impl OracleVisitor for Probe<'_> {
                type Out = Vec<String>;
                fn visit<O: OracleSuite + 'static>(self, mut oracle: O) -> Vec<String> {
                    transcript(&mut oracle, self.fp, self.choice)
                }
            }
            let generic = spec.with_oracle(&fp, Probe { fp: &fp, choice });
            let mut boxed = spec.build_oracle(&fp);
            let boxed = transcript(&mut boxed, &fp, choice);
            assert_eq!(generic, boxed, "choice {choice:?} seed {seed}");
        }
    }
}

/// Full k-set runs: the generic scenario path (`KsetScenario::run`, which
/// dispatches through `with_oracle`) and the boxed path (`build_oracle` +
/// `run_kset_with`) produce bit-identical trace fingerprints, sequentially
/// and under 1/2/4/8 worker threads.
#[test]
fn generic_and_boxed_kset_runs_are_bit_identical_across_threads() {
    let seeds = 0..6u64;
    let spec = KsetScenario::spec(7, 3, 2)
        .gst(Time(400))
        .crashes(CrashPlan::Random {
            f: 3,
            by: Time(500),
        });
    // The boxed reference fingerprints, computed sequentially.
    let boxed: Vec<u64> = seeds
        .clone()
        .map(|seed| {
            let spec = spec.clone().seed(seed);
            let fp = spec.materialize();
            let oracle = spec.build_oracle(&fp);
            run_kset_with(&spec, fp, oracle).fingerprint()
        })
        .collect();
    for threads in [1usize, 2, 4, 8] {
        let runner = Runner::with_threads(threads);
        let generic: Vec<u64> = runner
            .sweep(&KsetScenario, &spec, seeds.clone())
            .iter()
            .map(|r| r.fingerprint())
            .collect();
        assert_eq!(
            generic, boxed,
            "{threads} threads: generic dispatch diverged from the dyn shim"
        );
    }
}
