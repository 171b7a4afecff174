//! The `search` workload: a cold adversary-search campaign on a fresh
//! `SweepStore` directory, wired as `sweep search --store` wires it, then
//! a resume of that same directory in a fresh store and cache, then
//! replays of the witnesses and of the probe spec's cells.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fd_bench::{
    describe_spec, generate, probe_specs, run_search, scenario_for, InvocationRecord, SearchConfig,
    SearchReport, SweepStore,
};
use fd_detectors::scenario::{
    ReportCache, Runner, Scenario, ScenarioReport, ScenarioSpec, SpillFn,
};
use fd_detectors::ViolationClass;
use fd_sim::counter;

use crate::harness::{ns_since, Harness, LayerTotals, RunLog};
use crate::measure::{fnv1a, fold_u64, median, metric, ratio, secs_since, Metric};
use crate::{Bench, Iteration, Pass};

/// Specs sampled per campaign, on top of the probe spec.
pub const BUDGET: u64 = 1000;
/// Run seeds per spec.
pub const SEEDS_PER_SPEC: u64 = 4;
/// Witnesses shrunk per campaign.
pub const MAX_WITNESSES: usize = 8;
/// Timed replays of each probe cell per iteration: 1,000 runs, so even a
/// one-iteration invocation's p99 has ten runs beyond it.
pub const PROBE_REPLAYS: u64 = 250;
/// The violation each probe cell (run seeds 0–3) must reproduce.
const PROBE_CLASSES: [ViolationClass; SEEDS_PER_SPEC as usize] = [
    ViolationClass::Validity,
    ViolationClass::Agreement,
    ViolationClass::Validity,
    ViolationClass::Validity,
];

/// Store and search tallies of one iteration.
#[derive(Clone, Copy, Debug, Default)]
struct StoreTallies {
    generate_s: f64,
    commit_s: f64,
    flush_close_s: f64,
    open_s: f64,
    hydrate_s: f64,
    segments_at_open: u64,
    cells_written: u64,
    bytes_on_disk: u64,
    hits: u64,
    misses: u64,
    runs: u64,
    shrink_runs: u64,
    witnesses: u64,
    violations: u64,
    classified: u64,
    /// Campaign-wide simulator and adversary counts, from the resumed
    /// store's cells.
    cells: u64,
    events: u64,
    sent: u64,
    delivered: u64,
    rb_sent: u64,
    dropped: u64,
    duplicated: u64,
    corrupted: u64,
    partitioned: u64,
}

/// The search workload.
pub struct SearchBench {
    cfg: SearchConfig,
    runner: Runner,
    cache: &'static ReportCache,
    work_dir: PathBuf,
    iteration: u64,
    log: RunLog,
    layers: LayerTotals,
    tallies: Vec<StoreTallies>,
    /// Traced spill calls and their summed time.
    spill_calls: Arc<AtomicU64>,
    spill_ns: Arc<AtomicU64>,
}

impl SearchBench {
    /// The workload for input `seed`; run directories go under `work_dir`.
    pub fn new(seed: u64, threads: usize, work_dir: PathBuf) -> Self {
        SearchBench {
            cfg: SearchConfig {
                search_seed: seed,
                budget: BUDGET,
                seeds_per_spec: SEEDS_PER_SPEC,
                max_witnesses: MAX_WITNESSES,
            },
            runner: Runner::with_threads(threads),
            cache: Box::leak(Box::new(ReportCache::new())),
            work_dir,
            iteration: 0,
            log: RunLog::default(),
            layers: LayerTotals::default(),
            tallies: Vec::new(),
            spill_calls: Arc::new(AtomicU64::new(0)),
            spill_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Registers the campaign's specs, hydrates the cache, wires the
    /// spill and commits the manifest — the `sweep search --store` order.
    /// Returns the hydrate and commit times in seconds.
    fn wire(&self, store: &SweepStore, specs: &[ScenarioSpec], traced: bool) -> (f64, f64) {
        for (i, spec) in specs.iter().enumerate() {
            store.register_spec(
                &format!("search[{i}] {}", describe_spec(spec)),
                &scenario_for(spec).cache_tag(),
                spec,
            );
        }
        let start = Instant::now();
        store.hydrate_into(self.cache);
        let hydrate_s = secs_since(start);
        let spill = store.spill();
        let spill: Arc<SpillFn> = if traced {
            let (calls, total) = (Arc::clone(&self.spill_calls), Arc::clone(&self.spill_ns));
            Arc::new(move |salt, seed, slim: &_| {
                let start = Instant::now();
                spill(salt, seed, slim);
                total.fetch_add(ns_since(start), Ordering::Relaxed);
                calls.fetch_add(1, Ordering::Relaxed);
            })
        } else {
            spill
        };
        self.cache.set_spill(Some(spill));
        let start = Instant::now();
        store.commit_manifest().expect("commit the manifest");
        (hydrate_s, secs_since(start))
    }

    /// Flushes, records the invocation, unhooks the spill and closes.
    fn finish(&self, store: SweepStore, report: &SearchReport, wall_s: f64) -> u64 {
        let wrote = store.flush().expect("flush the store");
        store.record_invocation(InvocationRecord {
            runs: report.stats.runs,
            hits: self.cache.hits(),
            misses: self.cache.misses(),
            wrote,
            wall_us: (wall_s * 1e6) as u64,
        });
        self.cache.set_spill(None);
        store.close().expect("close the store");
        wrote
    }
}

fn dir_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok()).map(|e| e.path()).collect())
        .unwrap_or_default()
}

fn bytes_under(dir: &Path) -> u64 {
    dir_files(dir)
        .iter()
        .map(|p| {
            if p.is_dir() {
                bytes_under(p)
            } else {
                p.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

/// Replays the probe spec's cells: replay `i` runs the cell at run seed
/// `i % cells` through the harness, so one streamed sweep replays every
/// cell while only the runner's few reports are alive.
struct ProbeReplay<'a> {
    harness: Harness<'a>,
    cells: u64,
}

impl Scenario for ProbeReplay<'_> {
    fn name(&self) -> &'static str {
        self.harness.name()
    }

    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        self.harness.run(&spec.with_seed(spec.seed % self.cells))
    }
}

impl Bench for SearchBench {
    fn setup(&mut self) -> Option<f64> {
        None
    }

    fn iterate(&mut self, pass: Pass) -> Iteration {
        let traced = pass == Pass::Traced;
        let mut it = Iteration::default();
        let mut t = StoreTallies::default();
        let iteration_start = Instant::now();
        let dir = self.work_dir.join(format!(
            "search-{}-{}",
            self.cfg.search_seed, self.iteration
        ));
        self.iteration += 1;
        let _ = std::fs::remove_dir_all(&dir);
        let runner = self.runner.with_cache(self.cache);

        // Set-up: generate the campaign, open a fresh run directory, wire it.
        let setup_start = Instant::now();
        let start = Instant::now();
        let specs = generate(&self.cfg);
        t.generate_s = secs_since(start);
        self.cache.clear();
        let store = SweepStore::open(&dir).expect("open a fresh run directory");
        let (_, commit_cold) = self.wire(&store, &specs, traced);
        it.setup_s = Some(secs_since(setup_start));

        // Cold campaign, through to a durable, closed directory.
        crate::measure::reset_peak_rss();
        let cpu0 = crate::measure::cpu_seconds();
        let start = Instant::now();
        let cold = run_search(&runner, &self.cfg);
        let search_s = secs_since(start);
        let close_start = Instant::now();
        t.cells_written = self.finish(store, &cold, search_s);
        t.flush_close_s = secs_since(close_start);
        it.main_s = secs_since(start);
        it.cpu_s = crate::measure::cpu_seconds() - cpu0;
        it.peak_rss_mb = crate::measure::peak_rss_mb();
        let (cold_hits, cold_misses) = (self.cache.hits(), self.cache.misses());
        t.bytes_on_disk = bytes_under(&dir);
        t.segments_at_open = dir_files(&dir.join("shards")).len() as u64;

        let s = &cold.stats;
        it.runs = s.runs;
        it.witnesses = cold.witnesses.len() as u64;
        t.runs = s.runs;
        t.shrink_runs = s.shrink_runs;
        t.witnesses = it.witnesses;
        t.violations = s.violations;
        t.classified = s.passes + s.refusals + s.violations;
        let json = cold.to_json_string();
        it.digest = fnv1a(json.as_bytes());
        it.pinned_count = s.runs;
        if !cold.unexpected.is_empty() {
            it.errors.push(format!(
                "search: {} unexpected safety violation(s)",
                cold.unexpected.len()
            ));
        }
        if !cold
            .witnesses
            .iter()
            .any(|w| w.class == ViolationClass::Validity)
        {
            it.errors
                .push("search: the seeded probe violation was not found".into());
        }

        // Resume: the same directory, exactly as the cold phase left it,
        // in a fresh store and cache. Every run must be a hit.
        self.cache.clear();
        let start = Instant::now();
        let store = SweepStore::open(&dir).expect("reopen the run directory");
        t.open_s = secs_since(start);
        let (hydrate_s, commit_resume) = self.wire(&store, &specs, false);
        t.hydrate_s = hydrate_s;
        let resumed = run_search(&runner, &self.cfg);
        for slim in store.cells().values() {
            t.cells += 1;
            t.events += slim.metrics.events;
            t.sent += slim.metrics.msgs_sent;
            t.delivered += slim.metrics.delivered;
            t.rb_sent += slim.metrics.rb_sent;
            t.dropped += slim.counter(counter::DROPPED);
            t.duplicated += slim.counter(counter::DUPLICATED);
            t.corrupted += slim.counter(counter::CORRUPTED);
            t.partitioned += slim.counter(counter::PARTITIONED);
        }
        self.finish(store, &resumed, secs_since(start));
        it.resume_s = secs_since(start);
        t.commit_s = (commit_cold + commit_resume) / 2.0;
        let (hits, misses) = (self.cache.hits(), self.cache.misses());
        t.hits = cold_hits + hits;
        t.misses = cold_misses + misses;
        if misses != 0 || hits != resumed.stats.runs {
            it.errors.push(format!(
                "search resume: {hits} hits / {misses} misses for {} runs",
                resumed.stats.runs
            ));
        }
        if resumed.to_json_string() != json {
            it.errors
                .push("search resume: the report differs from the cold one".into());
        }
        // The cold phase computed exactly the cells the store now holds.
        it.events = t.events;
        if t.cells != cold_misses {
            it.errors.push(format!(
                "search: {} cells on disk for {cold_misses} computed runs",
                t.cells
            ));
        }

        // Every witness must replay to its recorded class and event count.
        for w in &cold.witnesses {
            let report = scenario_for(&w.spec).run(&w.spec.with_seed(w.seed));
            if report.check.class != w.class || report.metrics.events != w.events {
                it.errors.push(format!(
                    "search replay: {} gave {} in {} events, recorded {} in {}",
                    w.description,
                    report.check.class.name(),
                    report.metrics.events,
                    w.class.name(),
                    w.events
                ));
            }
        }
        // The timed runs: the probe spec's cells, which every campaign
        // sweeps first, so they are the same at every seed; streamed
        // through the harness on the runner's threads.
        let probe = &probe_specs()[0];
        let replay = ProbeReplay {
            harness: Harness {
                inner: scenario_for(probe),
                traced,
                fingerprints: true,
                log: &self.log,
            },
            cells: self.cfg.seeds_per_spec,
        };
        let replays = self.cfg.seeds_per_spec * PROBE_REPLAYS;
        let wrong = self.runner.sweep_fold(
            &replay,
            probe,
            0..replays,
            Vec::new(),
            |wrong: &mut Vec<(u64, ViolationClass)>, slim| {
                if slim.check.class != PROBE_CLASSES[slim.seed as usize] {
                    wrong.push((slim.seed, slim.check.class));
                }
            },
        );
        for (seed, class) in wrong {
            it.failed_runs += 1;
            it.errors.push(format!(
                "search: probe seed {seed} gave {} instead of {}",
                class.name(),
                PROBE_CLASSES[seed as usize].name()
            ));
        }
        it.run_ns = self.log.take_run_ns();
        it.fingerprints = self
            .log
            .take_fingerprints()
            .iter()
            .fold(it.digest, |h, &(seed, fp)| fold_u64(fold_u64(h, seed), fp));
        if traced {
            self.layers.add(&self.log.take_layers());
        }

        // The run directory stays until the process ends: deleting its
        // fsynced files is slow on some disks, and is no part of the job.
        it.wall_s = secs_since(iteration_start);
        self.tallies.push(t);
        it
    }

    fn harness_layers(&self) -> LayerTotals {
        self.layers
    }

    fn own_layers(&self) -> Vec<Metric> {
        let med = |f: &dyn Fn(&StoreTallies) -> f64| {
            median(&self.tallies.iter().map(f).collect::<Vec<_>>())
        };
        // Counts are identical across iterations (checked by the digest),
        // so the last iteration's are the run's.
        let t = self.tallies.last().copied().unwrap_or_default();
        let events = t.events as f64;
        let sent = t.sent as f64;
        vec![
            metric("sim.events_per_run", ratio(events, t.cells as f64), "count"),
            metric("sim.sent_per_event", ratio(sent, events), "ratio"),
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
                "adversary.dropped_per_sent",
                ratio(t.dropped as f64, sent),
                "ratio",
            ),
            metric(
                "adversary.duplicated_per_sent",
                ratio(t.duplicated as f64, sent),
                "ratio",
            ),
            metric(
                "adversary.corrupted_per_sent",
                ratio(t.corrupted as f64, sent),
                "ratio",
            ),
            metric(
                "adversary.partitioned_per_sent",
                ratio(t.partitioned as f64, sent),
                "ratio",
            ),
            metric("cache.hits", t.hits as f64, "count"),
            metric("cache.misses", t.misses as f64, "count"),
            metric(
                "cache.hit_ratio",
                ratio(t.hits as f64, (t.hits + t.misses) as f64),
                "ratio",
            ),
            metric("store.open_s", med(&|t| t.open_s), "s"),
            metric("store.segments_at_open", t.segments_at_open as f64, "count"),
            metric("store.hydrate_s", med(&|t| t.hydrate_s), "s"),
            metric("store.commit_s", med(&|t| t.commit_s), "s"),
            metric(
                "store.spill_ns_per_cell",
                ratio(
                    self.spill_ns.load(Ordering::Relaxed) as f64,
                    self.spill_calls.load(Ordering::Relaxed) as f64,
                ),
                "ns",
            ),
            metric("store.flush_close_s", med(&|t| t.flush_close_s), "s"),
            metric("store.cells_written", t.cells_written as f64, "count"),
            metric("store.bytes_on_disk", t.bytes_on_disk as f64, "bytes"),
            metric("search.generate_s", med(&|t| t.generate_s), "s"),
            metric("search.runs", t.runs as f64, "count"),
            metric("search.shrink_runs", t.shrink_runs as f64, "count"),
            metric(
                "search.runs_per_witness",
                ratio(t.runs as f64, t.witnesses as f64),
                "ratio",
            ),
            metric(
                "search.violation_ratio",
                ratio(t.violations as f64, t.classified as f64),
                "ratio",
            ),
        ]
    }
}
