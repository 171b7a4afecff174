//! Differential suite: the bitset-slab round automata are bit-identical
//! to the retained `HashMap`-of-`Vec` reference implementations.
//!
//! `KsetOmega`/`ConsensusMr` (slabs, `fd_core::rounds`) and
//! `KsetOmegaRef`/`ConsensusMrRef` (the pre-slab code, in the `reference`
//! module next to this file) run through the *full* scenario engine —
//! materialized failure patterns, oracles, delay sampling, message
//! adversary, decision checking — and must produce equal [`ScenarioReport::fingerprint`]s:
//! same event counts, same messages, same decisions, same counters, same
//! history samples. The grid spans process counts up to the new n = 128
//! tier, sequential and 4-thread runners, and armed/unarmed adversaries.

mod reference;

use fd_core::{ConsensusScenario, KsetScenario};
use fd_detectors::scenario::{Runner, Scenario, ScenarioSpec};
use fd_sim::{MessageAdversary, MessageRule, Time};
use reference::{ConsensusReferenceScenario, KsetReferenceScenario};

/// The conventional spec at size `n`: `k = z = 2`, `t` maximal (`< n/2`).
fn base(n: usize) -> ScenarioSpec {
    let t = (n - 1) / 2;
    ScenarioSpec::new(n, t)
        .kz(2)
        .gst(Time(400))
        .max_time(Time(30_000))
}

/// The standard armed adversary of the engine tests: early drops,
/// duplicates and bounded corruption, all windowed before GST so runs
/// still terminate.
fn armed() -> MessageAdversary {
    MessageAdversary::Rules(vec![
        MessageRule::drop(10).window(Time::ZERO, Time(400)),
        MessageRule::duplicate(10).window(Time::ZERO, Time(400)),
        MessageRule::corrupt(5, 3).window(Time::ZERO, Time(400)),
    ])
}

fn assert_identical(
    prod: &dyn Scenario,
    reference: &dyn Scenario,
    spec: &ScenarioSpec,
    what: &str,
) {
    let p = prod.run(spec);
    let r = reference.run(spec);
    assert_eq!(
        p.fingerprint(),
        r.fingerprint(),
        "{what}: slab diverged from vec reference (n={} seed={})",
        spec.n,
        spec.seed
    );
    // The differential is only meaningful if the runs go somewhere.
    assert!(p.metrics.msgs_sent > 0, "{what}: empty run");
}

/// Tentpole differential: n ∈ {5, 33, 128} × adversary off/on, full
/// scenario fingerprints.
#[test]
fn kset_slab_matches_reference_across_n_and_adversary() {
    for n in [5usize, 33, 128] {
        let seeds = if n >= 128 { 1 } else { 2 };
        for adv in [false, true] {
            for seed in 0..seeds {
                let mut spec = base(n).seed(seed);
                if adv {
                    spec = spec.adversary(armed());
                }
                assert_identical(
                    &KsetScenario,
                    &KsetReferenceScenario,
                    &spec,
                    &format!("kset adv={adv}"),
                );
            }
        }
    }
}

/// The MR `◇S` baseline gets the same treatment (its echo adoption is
/// arrival-order-sensitive, the subtlest of the slab aggregates).
#[test]
fn consensus_slab_matches_reference() {
    for n in [5usize, 33] {
        for adv in [false, true] {
            for seed in 0..2 {
                let mut spec = base(n).seed(seed);
                if adv {
                    spec = spec.adversary(armed());
                }
                assert_identical(
                    &ConsensusScenario,
                    &ConsensusReferenceScenario,
                    &spec,
                    &format!("consensus adv={adv}"),
                );
            }
        }
    }
}

/// Runner dimension: sweeps of both implementations agree seed-for-seed
/// under the sequential (1-thread) and the 4-thread runner alike.
#[test]
fn kset_slab_matches_reference_under_1_and_4_thread_runners() {
    let spec = base(33).adversary(armed());
    for runner in [Runner::with_threads(1), Runner::with_threads(4)] {
        let prod = runner.sweep(&KsetScenario, &spec, 0..4);
        let reference = runner.sweep(&KsetReferenceScenario, &spec, 0..4);
        assert_eq!(prod.len(), reference.len());
        for (p, r) in prod.iter().zip(reference.iter()) {
            assert_eq!(
                p.fingerprint(),
                r.fingerprint(),
                "seed {}: slab diverged from vec reference under runner",
                p.spec.seed
            );
        }
    }
}
