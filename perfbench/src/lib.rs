//! The fd-grid benchmark: three workloads driven through the crates'
//! public APIs, timed from outside the program.
//!
//! * `grid` — Figure 3 k-set over the `fd_bench::grid_cells` shape;
//! * `n256` — the `scaling_curve` cell at n = 256;
//! * `search` — a cold `run_search` campaign on a fresh `SweepStore`,
//!   then a resume of the same directory.
//!
//! [`run`] measures one workload for a given time and returns the
//! end-to-end metrics, or, with `trace`, the per-layer metrics of a
//! separately traced pass. See `README.md` for what each metric means on
//! each workload.

#![warn(missing_docs)]

pub mod harness;
pub mod measure;
pub mod pins;
pub mod search;
pub mod sweep;

use std::path::PathBuf;
use std::time::Instant;

use harness::LayerTotals;
use measure::{median, metric, percentile, ratio, secs_since, trimmed_mean, Metric, Outcome};

/// Set-ups timed per invocation of a sweep workload; `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 3;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 3 k-set over the `grid_cells` shape.
    Grid,
    /// The n = 256 scaling cell.
    N256,
    /// Adversary search campaign plus resume.
    Search,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "grid" => Some(Workload::Grid),
            "n256" => Some(Workload::N256),
            "search" => Some(Workload::Search),
            _ => None,
        }
    }

    /// Runner threads the workload uses by default: two (or one on a
    /// single core) for `grid` and `search`, one for `n256`. Two
    /// concurrent n = 256 runs contend for the caches of a small box, and
    /// the contention varies with where the host places the threads; one
    /// run at a time measures the per-run cost far more steadily.
    pub fn threads(self) -> usize {
        match self {
            Workload::N256 => 1,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::N256 => "n256",
            Workload::Search => "search",
        }
    }
}

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time; at least one iteration always runs.
    pub seconds: f64,
    /// Emit the per-layer metrics of a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Runner threads; `None` takes the workload's own count. The command
    /// line always passes `None`; the benchmark's own tests set it to check
    /// that counts repeat across thread counts.
    pub threads: Option<usize>,
    /// Where the search workload puts its run directories.
    pub work_dir: PathBuf,
}

/// How one pass of a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Timed only: the end-to-end pass.
    Plain,
    /// Timed, with each run's fingerprint recorded after its clock stops:
    /// the reference half of a traced pair.
    Fingerprinted,
    /// With layer spans and fingerprints: the traced half of a pair.
    Traced,
}

/// What one iteration of a workload measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Iteration {
    /// Set-up time, for workloads that set up per iteration.
    pub setup_s: Option<f64>,
    /// Wall time of the main phase (sweep, or cold campaign to close).
    pub main_s: f64,
    /// Wall time of the whole iteration.
    pub wall_s: f64,
    /// Simulator events the main phase executed.
    pub events: u64,
    /// Witnesses the main phase produced (passing runs on sweeps).
    pub witnesses: u64,
    /// Wall time of the resume phase.
    pub resume_s: f64,
    /// Process CPU seconds spent in the main phase.
    pub cpu_s: f64,
    /// Runs attempted.
    pub runs: u64,
    /// Runs that failed their check.
    pub failed_runs: u64,
    /// Digest of the iteration's output, compared across iterations and
    /// against the pinned value.
    pub digest: u64,
    /// A count pinned with the digest: total events on the sweeps, the
    /// campaign's runs on `search`.
    pub pinned_count: u64,
    /// Fold of the run fingerprints (0 on a `Plain` pass).
    pub fingerprints: u64,
    /// Output checks that failed, in words.
    pub errors: Vec<String>,
    /// Per-run wall times in nanoseconds.
    pub run_ns: Vec<u64>,
    /// Peak resident set of the process during the main phase, in MiB; on
    /// the sweeps, during their untimed memory probe.
    pub peak_rss_mb: f64,
}

/// A workload that [`run`] iterates.
pub trait Bench {
    /// One full set-up; returns its duration in seconds. Sweep workloads
    /// set up [`SETUP_REPS`] times before measuring; the search workload
    /// sets up inside every iteration and returns `None` here.
    fn setup(&mut self) -> Option<f64>;

    /// One iteration.
    fn iterate(&mut self, pass: Pass) -> Iteration;

    /// Layer totals of the traced passes so far.
    fn harness_layers(&self) -> LayerTotals;

    /// The workload's own per-layer metrics (store, search, cache,
    /// adversary and, on search, the campaign-wide `sim.*` counts).
    fn own_layers(&self) -> Vec<Metric>;
}

/// Runs one invocation and returns its outcome.
pub fn run(cfg: &Config) -> Outcome {
    let threads = cfg.threads.unwrap_or_else(|| cfg.workload.threads());
    let mut bench: Box<dyn Bench> = match cfg.workload {
        Workload::Grid => Box::new(sweep::SweepBench::grid(cfg.seed, threads)),
        Workload::N256 => Box::new(sweep::SweepBench::n256(cfg.seed, threads)),
        Workload::Search => Box::new(search::SearchBench::new(
            cfg.seed,
            threads,
            cfg.work_dir.clone(),
        )),
    };
    eprintln!(
        "{} seed {}, {} s, trace {}, {threads} runner thread(s)",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let mut setups: Vec<f64> = Vec::new();
    for _ in 0..SETUP_REPS {
        match bench.setup() {
            Some(s) => setups.push(s),
            None => break,
        }
    }
    let pinned = pins::lookup(cfg.workload, cfg.seed);

    let mut plain: Vec<Iteration> = Vec::new();
    let mut overheads: Vec<f64> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_digest: Option<(u64, u64)> = None;
    let mut check = |it: &Iteration, errors: &mut Vec<String>| -> bool {
        let got = (it.digest, it.pinned_count);
        let mut errs = it.errors.clone();
        if let Some(want) = pinned {
            if got != want {
                errs.push(format!("output {got:x?} differs from pinned {want:x?}"));
            }
        }
        match first_digest {
            None => first_digest = Some(got),
            Some(first) if first != got => errs.push(format!(
                "output {got:x?} differs from the first iteration's {first:x?}"
            )),
            Some(_) => {}
        }
        let ok = errs.is_empty() && it.failed_runs == 0;
        errors.extend(errs);
        ok
    };

    let start = Instant::now();
    loop {
        if cfg.trace {
            let reference = bench.iterate(Pass::Fingerprinted);
            let traced = bench.iterate(Pass::Traced);
            let mut ok = check(&reference, &mut errors) & check(&traced, &mut errors);
            if reference.fingerprints != traced.fingerprints {
                errors.push("traced fingerprints differ from untraced ones".into());
                ok = false;
            }
            overheads.push(traced.wall_s / reference.wall_s);
            attempted += reference.runs + traced.runs;
            if !ok {
                failed += reference.runs + traced.runs;
            }
            plain.push(reference);
        } else {
            let it = bench.iterate(Pass::Plain);
            attempted += it.runs;
            failed += if check(&it, &mut errors) {
                it.failed_runs
            } else {
                it.runs
            };
            plain.push(it);
        }
        if let Some(it) = plain.last() {
            eprintln!(
                "iteration {}: main {:.4} s, {:.0} events/s, resume {:.4} s, cpu {:.2} s, \
                 peak {:.1} MiB",
                plain.len(),
                it.main_s,
                ratio(it.events as f64, it.main_s),
                it.resume_s,
                it.cpu_s,
                it.peak_rss_mb
            );
        }
        if secs_since(start) >= cfg.seconds {
            break;
        }
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }

    setups.extend(plain.iter().filter_map(|it| it.setup_s));
    let metrics = if cfg.trace {
        let pair_ns = harness::timer_pair_ns();
        let mut m = harness_layer_metrics(&bench.harness_layers(), pair_ns);
        m.extend(bench.own_layers());
        let cpu: f64 = plain.iter().map(|it| it.cpu_s).sum();
        let wall: f64 = plain.iter().map(|it| it.main_s).sum();
        m.push(metric(
            "runner.cpu_util",
            ratio(cpu, wall * threads as f64),
            "ratio",
        ));
        m.push(metric("trace.timer_pair_ns", pair_ns, "ns"));
        m.push(metric("trace.overhead_ratio", median(&overheads), "ratio"));
        order_per_layer(m)
    } else {
        end_to_end_metrics(&plain, &setups)
    };
    eprintln!(
        "{} seed {}: {} iteration(s), digest {:016x}, count {}",
        cfg.workload.name(),
        cfg.seed,
        plain.len(),
        first_digest.map_or(0, |d| d.0),
        first_digest.map_or(0, |d| d.1),
    );
    Outcome {
        correct: errors.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end_metrics(its: &[Iteration], setups: &[f64]) -> Vec<Metric> {
    // Per-iteration figures are averaged without their highest and lowest
    // tenth: on `search` one invocation's resumes spread over 1.8–3.5 s,
    // and a median of about ten such values moves more between
    // invocations than their trimmed mean.
    let per_it =
        |f: &dyn Fn(&Iteration) -> f64| trimmed_mean(&its.iter().map(f).collect::<Vec<_>>());
    // A percentile is taken over every timed run of the invocation when at
    // least ten runs lie beyond it. Otherwise (`n256`, 4 runs an
    // iteration) it is taken within each iteration and averaged over the
    // iterations as above, so one slow run moves it little.
    let all_runs: Vec<u64> = its
        .iter()
        .flat_map(|it| it.run_ns.iter().copied())
        .collect();
    let run_ms = |p: f64| {
        if all_runs.len() as f64 * (1.0 - p / 100.0) >= 10.0 {
            percentile(&all_runs, p) as f64 / 1e6
        } else {
            per_it(&|it| percentile(&it.run_ns, p) as f64 / 1e6)
        }
    };
    eprintln!(
        "timed runs: {} in {} iteration(s)",
        all_runs.len(),
        its.len()
    );
    vec![
        metric(
            "events_per_s",
            per_it(&|it| ratio(it.events as f64, it.main_s)),
            "1/s",
        ),
        metric("run_ms_p50", run_ms(50.0), "ms"),
        metric("run_ms_p99", run_ms(99.0), "ms"),
        metric(
            "s_per_witness",
            per_it(&|it| ratio(it.main_s, it.witnesses as f64)),
            "s",
        ),
        metric("resume_s", per_it(&|it| it.resume_s), "s"),
        metric("setup_s", median(setups), "s"),
        // Taken before the benchmark holds anything of its own: the sweeps'
        // memory probe, or the first cold campaign on `search`. Later
        // iterations also hold what the benchmark has kept so far, and a
        // faster program runs more of them.
        metric("peak_rss_mb", its[0].peak_rss_mb, "MiB"),
    ]
}

/// Per-layer metrics from the harness spans. Self times subtract the
/// children's spans and the timer's own cost: each span over-reads by
/// half a timer pair, and each child costs its parent a whole pair.
fn harness_layer_metrics(t: &LayerTotals, pair_ns: f64) -> Vec<Metric> {
    let half = pair_ns / 2.0;
    let (events, runs) = (t.events as f64, t.runs as f64);
    let (acts, reads) = (t.activations as f64, t.reads as f64);
    let engine_ns = t.sim_ns as f64 - t.activation_ns as f64 - half * (acts + runs);
    let activation_ns = t.activation_ns as f64 - t.oracle_ns as f64 - half * (acts + reads);
    let oracle_ns = t.oracle_ns as f64 - half * reads;
    vec![
        metric("sim.events_per_run", ratio(events, runs), "count"),
        metric("sim.sent_per_event", ratio(t.sent as f64, events), "ratio"),
        metric(
            "sim.delivered_per_event",
            ratio(t.delivered as f64, events),
            "ratio",
        ),
        metric(
            "sim.rb_sent_per_event",
            ratio(t.rb_sent as f64, events),
            "ratio",
        ),
        metric(
            "trace.samples_per_event",
            ratio(t.samples as f64, events),
            "ratio",
        ),
        metric(
            "sim.engine_ns_per_event",
            ratio(engine_ns.max(0.0), events),
            "ns",
        ),
        metric("activation.calls_per_event", ratio(acts, events), "ratio"),
        metric(
            "activation.self_ns_per_event",
            ratio(activation_ns.max(0.0), events),
            "ns",
        ),
        metric("oracle.reads_per_event", ratio(reads, events), "ratio"),
        metric("oracle.ns_per_read", ratio(oracle_ns.max(0.0), reads), "ns"),
        metric("check.ns_per_run", ratio(t.check_ns as f64, runs), "ns"),
        metric(
            "scenario.materialize_ns_per_run",
            ratio(t.materialize_ns as f64, runs),
            "ns",
        ),
        metric(
            "scenario.report_ns_per_run",
            ratio(t.report_ns as f64, runs),
            "ns",
        ),
    ]
}

/// Every per-layer metric name with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events_per_run", "count"),
    ("sim.sent_per_event", "ratio"),
    ("sim.delivered_per_event", "ratio"),
    ("sim.rb_sent_per_event", "ratio"),
    ("trace.samples_per_event", "ratio"),
    ("sim.engine_ns_per_event", "ns"),
    ("adversary.dropped_per_sent", "ratio"),
    ("adversary.duplicated_per_sent", "ratio"),
    ("adversary.corrupted_per_sent", "ratio"),
    ("adversary.partitioned_per_sent", "ratio"),
    ("activation.calls_per_event", "ratio"),
    ("activation.self_ns_per_event", "ns"),
    ("oracle.reads_per_event", "ratio"),
    ("oracle.ns_per_read", "ns"),
    ("check.ns_per_run", "ns"),
    ("scenario.materialize_ns_per_run", "ns"),
    ("scenario.report_ns_per_run", "ns"),
    ("runner.cpu_util", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("store.open_s", "s"),
    ("store.segments_at_open", "count"),
    ("store.hydrate_s", "s"),
    ("store.commit_s", "s"),
    ("store.spill_ns_per_cell", "ns"),
    ("store.flush_close_s", "s"),
    ("store.cells_written", "count"),
    ("store.bytes_on_disk", "bytes"),
    ("search.generate_s", "s"),
    ("search.runs", "count"),
    ("search.shrink_runs", "count"),
    ("search.runs_per_witness", "ratio"),
    ("search.violation_ratio", "ratio"),
    ("trace.timer_pair_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// Puts the per-layer metrics in [`PER_LAYER`] order. A metric the
/// workload does not produce reads 0: that layer is not on its path.
/// Where a workload produces a metric twice, the later value wins.
fn order_per_layer(measured: Vec<Metric>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .rev()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect()
}
