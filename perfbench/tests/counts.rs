//! The benchmark's own checks: its count metrics repeat exactly, its
//! workloads are the library's, and its metric names match
//! `BENCHMARK.json`. Run with `cargo test --release`: every workload runs
//! in full.

use std::path::PathBuf;

use fd_bench::{representative_sweep, scaling_curve};
use fd_detectors::scenario::Runner;
use fd_perfbench::measure::Outcome;
use fd_perfbench::{pins, run, Config, Workload, PER_LAYER};

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// One traced iteration pair of `workload` at seed 0.
fn traced(workload: Workload, threads: usize) -> Outcome {
    let dir = work_dir(&format!("counts-{}-{threads}", workload.name()));
    let outcome = run(&Config {
        workload,
        seed: 0,
        seconds: 0.0,
        trace: true,
        threads: Some(threads),
        work_dir: dir.clone(),
    });
    let _ = std::fs::remove_dir_all(dir);
    assert!(
        outcome.correct,
        "{} failed its output checks",
        workload.name()
    );
    outcome
}

/// Metrics that count work: exact functions of the input.
fn counts(o: &Outcome) -> Vec<(&'static str, f64)> {
    o.metrics
        .iter()
        .filter(|m| matches!(m.unit, "count" | "ratio"))
        .filter(|m| !matches!(m.name, "runner.cpu_util" | "trace.overhead_ratio"))
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn count_metrics_repeat_across_runs_and_thread_counts() {
    for workload in [Workload::Grid, Workload::N256, Workload::Search] {
        let first = counts(&traced(workload, 2));
        assert_eq!(
            first,
            counts(&traced(workload, 2)),
            "{}: rerun",
            workload.name()
        );
        assert_eq!(
            first,
            counts(&traced(workload, 1)),
            "{}: 1 thread",
            workload.name()
        );
        if workload == Workload::Search {
            let get = |name| first.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            assert!(
                get("store.segments_at_open") > Some(16.0),
                "search must compact on resume"
            );
            assert!(get("adversary.corrupted_per_sent") > Some(0.0));
        }
    }
}

#[test]
fn sweep_workloads_are_the_library_legs() {
    // Seed 0's windows start at run seed 0, so they equal the sweep
    // binary's legs of the same size, bit for bit.
    let (grid_digest, grid_events) = pins::lookup(Workload::Grid, 0).expect("grid seed 0 pinned");
    let grid = representative_sweep(300, Runner::with_threads(2));
    assert_eq!(
        (grid.grid_digest(), grid.total_events),
        (grid_digest, grid_events)
    );

    let (_, n256_events) = pins::lookup(Workload::N256, 0).expect("n256 seed 0 pinned");
    let curve = scaling_curve(&[256], 4, Runner::with_threads(2));
    assert_eq!(curve.points[0].events, n256_events);
}

/// The `name` values of one array of `BENCHMARK.json`, in order.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn metric_names_match_benchmark_json_and_every_workload_has_a_held_out_pin() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names_in(&json, "per_layer"), per_layer);
    let grid = run(&Config {
        workload: Workload::Grid,
        seed: 0,
        seconds: 0.0,
        trace: false,
        threads: None,
        work_dir: work_dir("names"),
    });
    let end_to_end: Vec<&str> = grid.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names_in(&json, "end_to_end"), end_to_end);
    let workloads = [Workload::Grid, Workload::N256, Workload::Search];
    assert_eq!(names_in(&json, "workloads"), workloads.map(|w| w.name()));
    for w in workloads {
        assert!(
            pins::lookup(w, pins::HELD_OUT_SEED).is_some(),
            "{}",
            w.name()
        );
    }
}
