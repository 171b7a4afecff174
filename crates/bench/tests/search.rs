//! Shrinker soundness: the guarantees the adversary search's witness
//! minimizer must uphold for a checked-in reproducer to be trustworthy.
//! Every accepted shrink step still violates the original predicate at
//! the original seed (a trail is a chain of reproducers, not a log of
//! guesses), the trail and the minimum are bit-identical across thread
//! counts (shrinking is a pure function of `(start, seed, class)`), and a
//! locally minimal witness is a fixed
//! point — re-shrinking it accepts nothing.

use fd_bench::{classify, probe_specs, scenario_for, shrink, MinimalWitness, RunClass};
use fd_detectors::scenario::{ReportCache, Runner};
use fd_detectors::ViolationClass;

/// A fresh cache-backed runner (leaked: `with_cache` wants `'static`).
fn runner(threads: usize) -> Runner {
    let cache: &'static ReportCache = Box::leak(Box::new(ReportCache::new()));
    let runner = if threads == 0 {
        Runner::sequential()
    } else {
        Runner::with_threads(threads)
    };
    runner.with_cache(cache)
}

/// The probe witness every test shrinks: seed 0 of the live-corruption
/// probe spec violates validity (a corrupted estimate gets adopted and
/// decided — Figure 3 has no authentication).
fn probe_violation() -> (fd_detectors::scenario::ScenarioSpec, u64, ViolationClass) {
    let spec = probe_specs().remove(0);
    let rep = scenario_for(&spec).run(&spec.clone().seed(0));
    assert_eq!(classify(&rep.check), RunClass::Violation, "{}", rep.check);
    (spec, 0, rep.check.class)
}

#[test]
fn every_trail_spec_still_reproduces_the_violation() {
    let (start, seed, class) = probe_violation();
    let outcome = shrink(&runner(0), &start, seed, class);
    assert!(!outcome.trail.is_empty(), "the probe must shrink");
    for step in &outcome.trail {
        let rep = scenario_for(&step.spec).run(&step.spec.clone().seed(seed));
        assert!(
            !rep.check.ok && rep.check.class == class,
            "step `{}` ({}) no longer reproduces [{}]: {}",
            step.pass,
            step.description,
            class.name(),
            rep.check
        );
    }
    // The trail ends at the minimum it claims.
    let last = &outcome.trail.last().unwrap().spec;
    assert_eq!(last.fingerprint(), outcome.spec.fingerprint());
}

#[test]
fn shrinking_is_deterministic_across_threads() {
    let (start, seed, class) = probe_violation();
    let baseline = shrink(&runner(1), &start, seed, class);
    let trail_of = |o: &fd_bench::ShrinkOutcome| {
        o.trail
            .iter()
            .map(|s| format!("{}: {}", s.pass, s.description))
            .collect::<Vec<_>>()
    };
    // Shrink candidates are single-seed runs, which the runner executes
    // sequentially regardless — same trail, same minimum at any thread
    // count, and on the sequential runner.
    for threads in [4, 0] {
        let other = shrink(&runner(threads), &start, seed, class);
        assert_eq!(
            trail_of(&baseline),
            trail_of(&other),
            "threads={threads} diverged"
        );
        assert_eq!(baseline.spec.fingerprint(), other.spec.fingerprint());
    }
}

/// The minimized validity witness the search emits for the probe spec
/// (checked in as a regression document in `tests/scenario_engine.rs`
/// at the workspace root; duplicated here only as a fixed-point input).
const MINIMAL_VALIDITY_WITNESS: &str = r#"{"class":"validity","description":"n=5 t=2 k=1 gst=1 horizon=28 adv=corrupt15b4 topo=none crashes=None","detail":"validity: p3 decided 99 which was never proposed","events":137,"fingerprint":5376062410596091573,"scenario":"kset_omega","schema":"fd-minimal-witness/1","seed":0,"shrink_steps":[],"spec":{"adversary":[{"action":"corrupt","active_from":0,"active_to":21,"bound":4,"from":"all","pct":15,"to":"all"}],"catch_up":false,"crashes":{"kind":"none"},"delay":{"hi":10,"kind":"uniform","lo":1},"delay_rules":[],"gst":1,"k":1,"max_steps":200000,"max_time":28,"n":5,"oracle":"omega","t":2,"topology":[],"x":1,"y":1,"z":1}}"#;

#[test]
fn a_minimal_witness_is_a_fixed_point() {
    let doc = fd_bench::json::parse(MINIMAL_VALIDITY_WITNESS).expect("parse witness");
    let witness = MinimalWitness::from_json(&doc).expect("decode witness");
    let again = shrink(&runner(0), &witness.spec, witness.seed, witness.class);
    assert!(
        again.trail.is_empty(),
        "re-shrinking the minimum accepted steps: {:?}",
        again
            .trail
            .iter()
            .map(|s| format!("{}: {}", s.pass, s.description))
            .collect::<Vec<_>>()
    );
    assert_eq!(again.spec.fingerprint(), witness.fingerprint);
}
