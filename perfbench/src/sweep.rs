//! The sweep workloads, `grid` and `n256`: many seeds of fixed specs
//! through the streaming runner, then a resume of the same sweep from a
//! cache hydrated with its results.

use std::ops::Range;
use std::time::Instant;

use fd_bench::sweep::CellResult;
use fd_bench::SweepBenchReport;
use fd_core::harness::kset_config;
use fd_core::KsetScenario;
use fd_detectors::scenario::{
    MessageAdversary, QueueKind, ReportCache, Runner, Scenario, ScenarioSpec, SlimReport,
    SweepSummary,
};
use fd_sim::{counter, Time};

use crate::harness::{Harness, LayerTotals, RunLog};
use crate::measure::{fold_u64, metric, ratio, secs_since, Metric};
use crate::{Bench, Iteration, Pass};

/// Seeds per grid cell in one iteration: 12 cells × 300 = 3,600 runs.
pub const GRID_SEEDS_PER_CELL: u64 = 300;

/// Runs of the n = 256 cell in one iteration.
pub const N256_RUNS: u64 = 4;

/// A sweep workload: `cells` each swept over the seed window `seeds`.
pub struct SweepBench {
    name: &'static str,
    cells: Vec<(String, ScenarioSpec)>,
    seeds: Range<u64>,
    /// `n256` checks a fold of the run fingerprints, so it records them
    /// on every pass; `grid` checks `grid_digest` and records them only
    /// on the traced pair.
    always_fingerprint: bool,
    runner: Runner,
    cache: &'static ReportCache,
    log: RunLog,
    layers: LayerTotals,
    /// Adversary counters and message totals of the last main phase.
    adversary: [u64; 5],
    /// Cache tallies of the last resume phase.
    cache_tallies: (u64, u64),
    /// Peak resident set of the memory probe, in MiB, once it has run.
    probe_rss_mb: Option<f64>,
}

/// The `grid_cells` shape, one seed each, for a window starting at
/// `seed × per_cell`.
fn grid_specs() -> Vec<(String, ScenarioSpec)> {
    fd_bench::grid_cells(1, QueueKind::default())
        .into_iter()
        .map(|(label, spec, _)| (label, spec))
        .collect()
}

/// The `scaling_curve` point at n = 256: t = 127, k = 2, GST 100,
/// failure-free.
fn n256_specs() -> Vec<(String, ScenarioSpec)> {
    let (n, t) = (256, 127);
    vec![(format!("n{n}_t{t}_k2"), kset_config(n, t, 2).gst(Time(100)))]
}

impl SweepBench {
    /// The `grid` workload for input `seed`.
    pub fn grid(seed: u64, threads: usize) -> Self {
        Self::new("grid", seed, GRID_SEEDS_PER_CELL, false, threads)
    }

    /// The `n256` workload for input `seed`.
    pub fn n256(seed: u64, threads: usize) -> Self {
        Self::new("n256", seed, N256_RUNS, true, threads)
    }

    fn new(
        name: &'static str,
        seed: u64,
        per_cell: u64,
        always_fingerprint: bool,
        threads: usize,
    ) -> Self {
        let start = seed.checked_mul(per_cell).expect("seed out of range");
        SweepBench {
            name,
            cells: Vec::new(),
            seeds: start..start + per_cell,
            always_fingerprint,
            runner: Runner::with_threads(threads),
            cache: Box::leak(Box::new(ReportCache::new())),
            log: RunLog::default(),
            layers: LayerTotals::default(),
            adversary: [0; 5],
            cache_tallies: (0, 0),
            probe_rss_mb: None,
        }
    }

    /// Peak resident set in MiB of one untimed sweep streamed into
    /// summaries, as a user's sweep runs. The timed sweeps also keep every
    /// slim report for the resume, which would make a third of the figure
    /// on `grid`.
    fn memory_probe(&self) -> f64 {
        crate::measure::reset_peak_rss();
        for (_, spec) in &self.cells {
            std::hint::black_box(self.runner.sweep_summary(
                &KsetScenario,
                spec,
                self.seeds.clone(),
            ));
        }
        crate::measure::peak_rss_mb()
    }

    /// The `grid_digest` of a sweep's cells (the same digest the `sweep`
    /// binary prints for its main grid).
    fn grid_digest(&self, cells: &[CellResult]) -> u64 {
        SweepBenchReport {
            threads: self.runner.threads(),
            queue: QueueKind::default().name(),
            adversary: MessageAdversary::None.describe(),
            total_runs: 0,
            total_passes: 0,
            total_events: 0,
            wall_us: 1,
            wall_ms: 1,
            runs_per_sec: 0.0,
            events_per_sec: 0.0,
            cells: cells.to_vec(),
            stream: None,
            compare: None,
            large_n: None,
            auto_queue: None,
            cache: None,
            store: None,
            adversary_leg: None,
            topology_leg: None,
            scaling: None,
        }
        .grid_digest()
    }
}

fn cell_result(label: &str, s: &SweepSummary) -> CellResult {
    CellResult {
        label: label.to_string(),
        runs: s.runs,
        passes: s.passes,
        events: s.total_events,
        msgs: s.total_msgs,
    }
}

impl Bench for SweepBench {
    fn setup(&mut self) -> Option<f64> {
        // Build the inputs and run each cell once at the window's first
        // seed, so lazy allocation and page faults land here.
        let start = Instant::now();
        self.cells = match self.name {
            "grid" => grid_specs(),
            _ => n256_specs(),
        };
        let first = self.seeds.start;
        for (_, spec) in &self.cells {
            std::hint::black_box(KsetScenario.run(&spec.with_seed(first)));
        }
        Some(secs_since(start))
    }

    fn iterate(&mut self, pass: Pass) -> Iteration {
        let mut it = Iteration::default();
        if self.probe_rss_mb.is_none() {
            self.probe_rss_mb = Some(self.memory_probe());
        }
        it.peak_rss_mb = self.probe_rss_mb.unwrap_or_default();
        let iteration_start = Instant::now();
        let harness = Harness {
            inner: &KsetScenario,
            traced: pass == Pass::Traced,
            fingerprints: pass != Pass::Plain || self.always_fingerprint,
            log: &self.log,
        };

        // Main phase: the sweep, streamed; each slim is also kept for the
        // resume phase.
        let cpu0 = crate::measure::cpu_seconds();
        let start = Instant::now();
        let mut done: Vec<(CellResult, Vec<SlimReport>)> = Vec::with_capacity(self.cells.len());
        let mut fingerprints = Vec::new();
        for (label, spec) in &self.cells {
            let (summary, slims) = self.runner.sweep_fold(
                &harness,
                spec,
                self.seeds.clone(),
                (SweepSummary::default(), Vec::new()),
                |(summary, slims): &mut (SweepSummary, Vec<SlimReport>), slim| {
                    summary.absorb(&slim);
                    slims.push(slim);
                },
            );
            done.push((cell_result(label, &summary), slims));
            fingerprints.push(self.log.take_fingerprints());
        }
        it.main_s = secs_since(start);
        it.cpu_s = crate::measure::cpu_seconds() - cpu0;
        it.run_ns = self.log.take_run_ns();

        let cells: Vec<CellResult> = done.iter().map(|(c, _)| c.clone()).collect();
        it.runs = cells.iter().map(|c| c.runs).sum();
        it.witnesses = cells.iter().map(|c| c.passes).sum();
        it.failed_runs = it.runs - it.witnesses;
        it.events = cells.iter().map(|c| c.events).sum();
        it.pinned_count = it.events;
        it.fingerprints = fingerprints
            .iter()
            .flatten()
            .fold(0, |h, &(seed, fp)| fold_u64(fold_u64(h, seed), fp));
        it.digest = if self.always_fingerprint {
            it.fingerprints
        } else {
            self.grid_digest(&cells)
        };
        let mut adversary = [0u64; 5];
        for slim in done.iter().flat_map(|(_, s)| s) {
            adversary[0] += slim.counter(counter::DROPPED);
            adversary[1] += slim.counter(counter::DUPLICATED);
            adversary[2] += slim.counter(counter::CORRUPTED);
            adversary[3] += slim.counter(counter::PARTITIONED);
            adversary[4] += slim.metrics.msgs_sent;
        }
        self.adversary = adversary;

        // Resume phase: hydrate a fresh cache with the sweep's results and
        // replay the sweep; every run must be a hit.
        self.cache.clear();
        let start = Instant::now();
        let tag = harness.cache_tag();
        for ((_, spec), (_, slims)) in self.cells.iter().zip(done) {
            let salt = ReportCache::salt(&tag, spec);
            for slim in slims {
                self.cache.hydrate((salt, slim.seed), slim);
            }
        }
        // An all-hit replay is lookup-bound: on the runner's threads it
        // would mostly time thread start-up, so it replays on this one.
        let warm = Runner::sequential().with_cache(self.cache);
        let replay: Vec<CellResult> = self
            .cells
            .iter()
            .map(|(label, spec)| {
                cell_result(
                    label,
                    &warm.sweep_summary(&harness, spec, self.seeds.clone()),
                )
            })
            .collect();
        it.resume_s = secs_since(start);
        self.cache_tallies = (self.cache.hits(), self.cache.misses());
        if self.cache.misses() != 0 || self.cache.hits() != it.runs {
            it.errors.push(format!(
                "{} resume: {} hits / {} misses for {} runs",
                self.name,
                self.cache.hits(),
                self.cache.misses(),
                it.runs
            ));
        }
        if self.grid_digest(&replay) != self.grid_digest(&cells) {
            it.errors.push(format!(
                "{} resume: replay differs from the sweep",
                self.name
            ));
        }
        if pass == Pass::Traced {
            self.layers.add(&self.log.take_layers());
        }
        it.wall_s = secs_since(iteration_start);
        it
    }

    fn harness_layers(&self) -> LayerTotals {
        self.layers
    }

    fn own_layers(&self) -> Vec<Metric> {
        let [dropped, duplicated, corrupted, partitioned, sent] = self.adversary.map(|v| v as f64);
        let (hits, misses) = self.cache_tallies;
        vec![
            metric("adversary.dropped_per_sent", ratio(dropped, sent), "ratio"),
            metric(
                "adversary.duplicated_per_sent",
                ratio(duplicated, sent),
                "ratio",
            ),
            metric(
                "adversary.corrupted_per_sent",
                ratio(corrupted, sent),
                "ratio",
            ),
            metric(
                "adversary.partitioned_per_sent",
                ratio(partitioned, sent),
                "ratio",
            ),
            metric("cache.hits", hits as f64, "count"),
            metric("cache.misses", misses as f64, "count"),
            metric(
                "cache.hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
                "ratio",
            ),
        ]
    }
}
