//! Emits `BENCH_sweep.json`: throughput of a representative grid sweep
//! (runs/sec, events/sec) through the work-stealing scenario runner, a
//! large single-cell streaming sweep that holds only `O(threads)` full
//! reports in memory, and the optional legs below.
//!
//! Usage: `cargo run -p fd-bench --bin sweep --release -- [--seeds N]
//! [--threads N] [--stream N] [--cache N] [--store-leg N] [--store DIR]
//! [--resume] [--adv N] [--adv-drop P] [--adv-dup P] [--topo N]
//! [--curve LIST] [--n-max N] [--baseline PATH] [--out PATH] [--profile]`
//!
//! Every flag is checked against the mode's flag table: an unknown flag, a
//! missing value or a value that does not parse exits with status 2 and
//! the usage text.
//!
//! Or, to aggregate previously written run directories:
//! `cargo run -p fd-bench --bin sweep --release -- analyze DIR [DIR ...]`
//!
//! Or, to run the adversary search campaign (sample the fault space,
//! classify outcomes, shrink checker violations to minimal witnesses):
//! `cargo run -p fd-bench --bin sweep --release -- search [--budget N]
//! [--search-seed S] [--seeds-per-spec N] [--max-witnesses N]
//! [--threads N] [--store DIR] [--resume] [--out PATH]`
//!
//! The search campaign is deterministic in `--search-seed`: reruns —
//! at any `--threads` — emit a byte-identical witness report. It exits
//! non-zero if any spec *without* a corruption rule breaks a safety
//! property (drops, duplicates, delays, partitions, and in-bound crashes
//! must only ever cost liveness), or if the seeded-in probe violation is
//! not found and shrunk. With `--store DIR` every computed cell — shrink
//! candidates included — persists to the run directory, and a rerun
//! resumes from it; `--resume` asserts the resumed campaign recomputed
//! nothing.
//!
//! `--profile` prints a per-phase event-count breakdown after the run:
//! every grid cell's simulated events, plus the streaming and adversary
//! phases — where the work actually goes, for sizing optimization targets.
//! With `--store`, it also prints the hydrated cache's occupancy and
//! capped-insert tallies (how effective store hydration was).
//!
//! `--store DIR` makes the main grid + streaming legs durable: DIR is
//! opened (or created) as a run directory, its cells hydrate the report
//! cache before the sweep, and every newly computed cell is persisted
//! crash-safely as it finishes. A rerun against the same DIR resumes with
//! pure cache hits and a bit-identical `grid_digest`. `--resume` asserts
//! exactly that (0 misses, >0 hydrated cells) — CI's kill-and-resume gate.
//! `--store-leg N` (default 1 seed per cell; 0 skips) proves the
//! round-trip in-process against a scratch directory: cold sweep → close →
//! reopen → hydrate a fresh cache → warm sweep must be bit-identical, all
//! hits, zero misses.
//!
//! `--threads 0` (the default) uses all available cores; `--stream 0`
//! skips the streaming demonstration. `--cache N` runs the report-cache
//! leg (default 1 seed per cell; 0 skips): a cold grid sweep through a
//! fresh cache, then a warm sweep of the same cells that must be
//! bit-identical with >0 hits, or the run aborts. `--adv N` runs the
//! adversary sweep leg at `--adv-drop`/`--adv-dup` percent (default 2
//! seeds per cell; 0 skips) — its determinism, `None`-differential, and
//! churn catch-up gates abort on failure; its grid pass-rate is recorded,
//! not gated (uniform drops are outside the algorithm's liveness tolerance
//! by design). `--topo N` runs the topology leg (default 2 seeds per heal
//! cell; 0 skips): a partition's heal time swept against the termination
//! horizon into a liveness phase diagram — its determinism,
//! `TopologySchedule::None`-differential, partition-during-join churn and
//! liveness-flip gates abort on failure; pass-rate per heal cell is
//! recorded, not gated (past-horizon heals *must* fail).
//! `--curve LIST` runs the `n`-scaling leg at the
//! comma-separated process counts in `LIST` (default `256,512,1024`; pass
//! `--curve 0` to skip), one seed per size, recording the events/s-vs-`n`
//! curve and the chosen `n` list in the JSON; `--n-max N` drops every
//! curve point above `N` (how CI trims the leg to an `n = 256` smoke).
//! `--baseline PATH` compares per-thread `runs_per_sec` against a
//! committed report and exits non-zero on a >30% regression.

use fd_bench::{BaselineVerdict, InvocationRecord, SweepStore};
use fd_detectors::scenario::{QueueKind, ReportCache, Runner};
use std::str::FromStr;

const USAGE: &str = "\
usage: sweep [--seeds N] [--threads N] [--stream N] [--cache N] [--store-leg N]
             [--store DIR] [--resume] [--adv N] [--adv-drop P] [--adv-dup P]
             [--topo N] [--curve LIST] [--n-max N] [--baseline PATH]
             [--out PATH] [--profile]
       sweep analyze DIR [DIR ...]
       sweep search [--budget N] [--search-seed S] [--seeds-per-spec N]
             [--max-witnesses N] [--threads N] [--store DIR] [--resume]
             [--out PATH]";

/// The main mode's flags: `(name, takes a value)`.
const MAIN_FLAGS: &[(&str, bool)] = &[
    ("--seeds", true),
    ("--threads", true),
    ("--stream", true),
    ("--cache", true),
    ("--store-leg", true),
    ("--store", true),
    ("--resume", false),
    ("--adv", true),
    ("--adv-drop", true),
    ("--adv-dup", true),
    ("--topo", true),
    ("--curve", true),
    ("--n-max", true),
    ("--baseline", true),
    ("--out", true),
    ("--profile", false),
];

/// The `search` mode's flags: `(name, takes a value)`.
const SEARCH_FLAGS: &[(&str, bool)] = &[
    ("--budget", true),
    ("--search-seed", true),
    ("--seeds-per-spec", true),
    ("--max-witnesses", true),
    ("--threads", true),
    ("--store", true),
    ("--resume", false),
    ("--out", true),
];

/// Prints `msg` and the usage text, then exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("sweep: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Command-line flags, checked against one mode's flag table.
struct Flags(Vec<(&'static str, Option<String>)>);

impl Flags {
    fn parse(args: &[String], table: &[(&'static str, bool)]) -> Flags {
        let mut given = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(&(name, takes_value)) = table.iter().find(|(name, _)| name == arg) else {
                usage_error(&format!("unknown argument {arg:?}"));
            };
            let value = if takes_value {
                match it.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => usage_error(&format!("{name} needs a value")),
                }
            } else {
                None
            };
            given.push((name, value));
        }
        Flags(given)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| *n == name)
    }

    /// The value of the last `name` given.
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The parsed value of `name`, or `default` when it is absent.
    fn num<T: FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("bad value {v:?} for {name}"))),
        }
    }
}

/// `sweep analyze DIR [DIR ...]` — aggregate run directories into tables.
fn run_analyze(dirs: &[String]) {
    if dirs.is_empty() {
        eprintln!("usage: sweep analyze DIR [DIR ...]");
        std::process::exit(2);
    }
    let report = fd_bench::analyze_run_dirs(dirs)
        .unwrap_or_else(|e| panic!("analyze: failed to load run dirs: {e}"));
    print!("{}", report.render());
}

/// `sweep search ...` — the adversary search campaign: sample the fault
/// space across message rules, crash plans, delays, and topology; classify
/// every cell as pass / honest liveness refusal / checker violation; and
/// shrink each expected violation to a minimal witness.
fn run_search_cmd(flags: &Flags) {
    let cfg = fd_bench::SearchConfig {
        search_seed: flags.num("--search-seed", 0),
        budget: flags.num("--budget", 32),
        seeds_per_spec: flags.num("--seeds-per-spec", 4),
        max_witnesses: flags.num("--max-witnesses", 3),
    };
    let threads: usize = flags.num("--threads", 0);
    let resume = flags.has("--resume");
    let out = flags.value("--out").unwrap_or("SEARCH_witnesses.json");
    let runner = if threads == 0 {
        Runner::parallel()
    } else {
        Runner::with_threads(threads)
    };
    // Always cache-backed: the shrinker's fixed-point loop re-visits
    // candidates, and the cache turns repeats into lookups. With --store
    // the cache additionally hydrates from / spills to the run directory,
    // making a killed campaign resumable without recomputing any cell.
    let cache: &'static ReportCache = Box::leak(Box::new(ReportCache::new()));
    let store = flags.value("--store").map(|dir| {
        let store = SweepStore::open(dir).unwrap_or_else(|e| panic!("open --store {dir}: {e}"));
        for (i, spec) in fd_bench::generate(&cfg).iter().enumerate() {
            let scenario = fd_bench::scenario_for(spec);
            store.register_spec(
                &format!("search[{i}] {}", fd_bench::describe_spec(spec)),
                &scenario.cache_tag(),
                spec,
            );
        }
        let hydrated = store.hydrate_into(cache);
        cache.set_spill(Some(store.spill()));
        // Commit the manifest before computing anything: a killed campaign
        // then leaves a trusted, resumable run directory behind.
        store
            .commit_manifest()
            .unwrap_or_else(|e| panic!("store commit manifest: {e}"));
        println!(
            "store: opened {dir} — {} cell(s) on disk, {hydrated} hydrated",
            store.loaded(),
        );
        store
    });
    let runner = runner.with_cache(cache);
    let t0 = std::time::Instant::now();
    let report = fd_bench::run_search(&runner, &cfg);
    let wall_us = t0.elapsed().as_micros() as u64;
    let s = &report.stats;
    println!(
        "search (seed {}): {} specs, {} runs in {} us — {} passes, {} refusals, \
         {} violations ({} shrink runs)",
        cfg.search_seed,
        s.specs,
        s.runs,
        wall_us,
        s.passes,
        s.refusals,
        s.violations,
        s.shrink_runs,
    );
    for w in &report.witnesses {
        println!(
            "witness [{}] seed {} ({} shrink steps, {} events to violation): {}",
            w.class.name(),
            w.seed,
            w.shrink_steps.len(),
            w.events,
            w.description,
        );
    }
    for u in &report.unexpected {
        eprintln!(
            "UNEXPECTED [{}] violation at seed {}: {} — {}",
            u.class.name(),
            u.seed,
            u.description,
            u.detail,
        );
    }
    if let Some(store) = store {
        let wrote = store.flush().unwrap_or_else(|e| panic!("store flush: {e}"));
        store.record_invocation(InvocationRecord {
            runs: s.runs,
            hits: cache.hits(),
            misses: cache.misses(),
            wrote,
            wall_us,
        });
        let dir = store.dir().display().to_string();
        store.close().unwrap_or_else(|e| panic!("store close: {e}"));
        println!(
            "store: closed {dir} — wrote {wrote} new cell(s), {} hits / {} misses this run",
            cache.hits(),
            cache.misses(),
        );
        if resume {
            assert!(
                cache.hydrated() > 0,
                "--resume: the store hydrated nothing (empty or mismatched run dir)"
            );
            assert_eq!(
                cache.misses(),
                0,
                "--resume: cells (shrink candidates included) were recomputed \
                 instead of served from the store"
            );
            assert_eq!(cache.hits(), s.runs, "--resume: not every run was a hit");
            println!(
                "store: resume verified — all {} runs served from the run directory",
                s.runs,
            );
        }
    }
    std::fs::write(out, report.to_json_string()).expect("write witness report");
    println!("wrote {out}");
    assert!(
        report.unexpected.is_empty(),
        "search surfaced {} unexpected safety violation(s): a drop/duplicate/delay/\
         topology/crash adversary broke a safety property",
        report.unexpected.len(),
    );
    assert!(
        report
            .witnesses
            .iter()
            .any(|w| w.class == fd_detectors::ViolationClass::Validity),
        "the seeded-in probe violation was not found and shrunk"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("analyze") {
        run_analyze(&args[2..]);
        return;
    }
    if args.get(1).map(String::as_str) == Some("search") {
        run_search_cmd(&Flags::parse(&args[2..], SEARCH_FLAGS));
        return;
    }
    let flags = Flags::parse(&args[1..], MAIN_FLAGS);
    let seeds: u64 = flags.num("--seeds", 25);
    let threads: usize = flags.num("--threads", 0);
    let stream_seeds: u64 = flags.num("--stream", 100_000);
    let cache_seeds: u64 = flags.num("--cache", 1);
    let store_leg_seeds: u64 = flags.num("--store-leg", 1);
    let resume = flags.has("--resume");
    let adv_seeds: u64 = flags.num("--adv", 2);
    let topo_seeds: u64 = flags.num("--topo", 2);
    let adv_drop: u8 = flags.num("--adv-drop", 10);
    let adv_dup: u8 = flags.num("--adv-dup", 10);
    // The n-scaling leg: `--curve 256,512,1024` (the default), `--curve 0`
    // to skip, `--n-max 256` to trim the list (the CI smoke shape).
    let curve_ns: Vec<usize> = {
        let raw = flags.value("--curve").unwrap_or("256,512,1024");
        if raw.trim() == "0" {
            Vec::new()
        } else {
            raw.split(',')
                .map(|p| {
                    p.trim()
                        .parse()
                        .unwrap_or_else(|_| usage_error(&format!("bad --curve entry {p:?}")))
                })
                .collect()
        }
    };
    let n_max: usize = flags.num("--n-max", usize::MAX);
    let curve_ns: Vec<usize> = curve_ns.into_iter().filter(|&n| n <= n_max).collect();
    let baseline = flags.value("--baseline");
    let profile = flags.has("--profile");
    let out = flags.value("--out").unwrap_or("BENCH_sweep.json");
    let runner = if threads == 0 {
        Runner::parallel()
    } else {
        Runner::with_threads(threads)
    };
    // --store DIR: open the run directory, hydrate the report cache from
    // it, and persist every newly computed grid/stream cell as it lands.
    let store_ctx: Option<(SweepStore, &'static ReportCache)> = flags.value("--store").map(|dir| {
        let store = SweepStore::open(dir).unwrap_or_else(|e| panic!("open --store {dir}: {e}"));
        let tag = {
            use fd_detectors::scenario::Scenario as _;
            fd_core::KsetScenario.cache_tag()
        };
        for (label, spec, _) in fd_bench::grid_cells(seeds, QueueKind::default()) {
            store.register_spec(&label, &tag, &spec);
        }
        if stream_seeds > 0 {
            let (slabel, sspec) = fd_bench::stream_cell();
            store.register_spec(&format!("stream_{slabel}"), &tag, &sspec);
        }
        // Leaked: `Runner::with_cache` wants `'static`, and the bin runs
        // one campaign per process.
        let cache: &'static ReportCache = Box::leak(Box::new(ReportCache::new()));
        let hydrated = store.hydrate_into(cache);
        cache.set_spill(Some(store.spill()));
        // Commit the manifest before computing anything: a killed sweep
        // then leaves a trusted, resumable run directory behind.
        store
            .commit_manifest()
            .unwrap_or_else(|e| panic!("store commit manifest: {e}"));
        println!(
            "store: opened {dir} — {} cell(s) on disk, {hydrated} hydrated, {} corrupt line(s){}",
            store.loaded(),
            store.corrupt(),
            if store.archived_stale() {
                ", stale shards archived"
            } else {
                ""
            },
        );
        (store, cache)
    });
    let grid_runner = match &store_ctx {
        Some((_, cache)) => runner.with_cache(cache),
        None => runner,
    };
    let mut report = fd_bench::representative_sweep(seeds, grid_runner);
    println!(
        "grid sweep ({}): {} runs ({} passed) on {} threads in {} us — {:.1} runs/s, {:.0} events/s",
        report.queue,
        report.total_runs,
        report.total_passes,
        report.threads,
        report.wall_us,
        report.runs_per_sec,
        report.events_per_sec,
    );
    if stream_seeds > 0 {
        let stream = fd_bench::streaming_sweep(stream_seeds, grid_runner);
        println!(
            "streaming sweep: {} runs ({} passed) in {} us — {:.1} runs/s, O(threads) reports held",
            stream.runs, stream.passes, stream.wall_us, stream.runs_per_sec,
        );
        assert_eq!(
            stream.passes, stream.runs,
            "streaming sweep had failing runs"
        );
        report = report.with_stream(stream);
    }
    // Finalize the run directory: record this invocation, flush, close.
    // The cache stays alive (it is 'static) for the --profile stats below.
    let store_cache: Option<&'static ReportCache> = store_ctx.map(|(store, cache)| {
        let wrote = store.flush().unwrap_or_else(|e| panic!("store flush: {e}"));
        let runs = report.total_runs + report.stream.as_ref().map_or(0, |s| s.runs);
        let wall_us = report.wall_us + report.stream.as_ref().map_or(0, |s| s.wall_us);
        store.record_invocation(InvocationRecord {
            runs,
            hits: cache.hits(),
            misses: cache.misses(),
            wrote,
            wall_us,
        });
        let dir = store.dir().display().to_string();
        store.close().unwrap_or_else(|e| panic!("store close: {e}"));
        println!(
            "store: closed {dir} — wrote {wrote} new cell(s), {} hits / {} misses this run",
            cache.hits(),
            cache.misses(),
        );
        if resume {
            assert!(
                cache.hydrated() > 0,
                "--resume: the store hydrated nothing (empty or mismatched run dir)"
            );
            assert_eq!(
                cache.misses(),
                0,
                "--resume: cells were recomputed instead of served from the store"
            );
            assert_eq!(cache.hits(), runs, "--resume: not every run was a hit");
            println!("store: resume verified — all {runs} runs served from the run directory");
        }
        cache
    });
    if cache_seeds > 0 {
        let leg = fd_bench::cache_leg(cache_seeds, runner);
        println!(
            "cache leg: {} cold runs ({} us), {} warm runs ({} us) — {} hits, {} misses, identical: {}",
            leg.cold_runs,
            leg.cold_wall_us,
            leg.warm_runs,
            leg.warm_wall_us,
            leg.hits,
            leg.misses,
            leg.identical,
        );
        assert!(
            leg.identical,
            "cache-served sweep diverged from the cold sweep"
        );
        assert!(
            leg.hits > 0,
            "overlapping warm sweep produced no cache hits"
        );
        report = report.with_cache_leg(leg);
    }
    if store_leg_seeds > 0 {
        let scratch =
            std::env::temp_dir().join(format!("fd-sweep-store-leg-{}", std::process::id()));
        std::fs::remove_dir_all(&scratch).ok();
        let leg = fd_bench::store_leg(store_leg_seeds, runner, &scratch)
            .unwrap_or_else(|e| panic!("store leg: {e}"));
        std::fs::remove_dir_all(&scratch).ok();
        println!(
            "store leg: {} cold runs ({} us, {} cells written); resume: {} us open+hydrate, \
             {} us sweep — {} hits, {} misses, identical: {}, speedup {:.0}x",
            leg.cold_runs,
            leg.cold_wall_us,
            leg.wrote,
            leg.open_wall_us,
            leg.warm_wall_us,
            leg.warm_hits,
            leg.warm_misses,
            leg.identical,
            leg.speedup,
        );
        assert!(
            leg.identical,
            "store-resumed sweep diverged from the cold sweep"
        );
        assert_eq!(
            leg.wrote, leg.cold_runs,
            "cold sweep cells not all persisted"
        );
        assert_eq!(
            leg.warm_hits, leg.warm_runs,
            "store resume was not all cache hits"
        );
        assert_eq!(leg.warm_misses, 0, "store resume recomputed cells");
        report = report.with_store_leg(leg);
    }
    if adv_seeds > 0 {
        let leg = fd_bench::adversary_leg(adv_seeds, runner, adv_drop, adv_dup);
        println!(
            "adversary leg ({}): {}/{} runs passed, {} dropped, {} duplicated — {:.1} runs/s",
            leg.adversary, leg.passes, leg.runs, leg.dropped, leg.duplicated, leg.runs_per_sec,
        );
        assert!(
            leg.deterministic,
            "adversary grid did not rerun bit-identically"
        );
        assert!(
            leg.none_identical,
            "explicit MessageAdversary::None diverged from the default spec"
        );
        assert!(
            leg.churn_catchup_live,
            "churn + catch-up failed the liveness envelope under the adversary"
        );
        assert!(
            leg.churn_safety_only,
            "churn without catch-up no longer scores safety-only"
        );
        report = report.with_adversary_leg(leg);
    }
    if topo_seeds > 0 {
        let leg = fd_bench::topology_leg(topo_seeds, runner);
        println!(
            "topology leg ({}): {}/{} runs passed, {} severed — heal grid [{}], \
             negative witness seeds {:?}",
            leg.schedule,
            leg.passes,
            leg.runs,
            leg.severed,
            leg.cells
                .iter()
                .map(|c| format!("{}:{}/{}", c.heal, c.passes, c.runs))
                .collect::<Vec<_>>()
                .join(", "),
            leg.negative_witness_seeds,
        );
        assert!(
            leg.deterministic,
            "partitioned grid did not rerun bit-identically"
        );
        assert!(
            leg.none_identical,
            "explicit TopologySchedule::None diverged from the default spec"
        );
        assert!(
            leg.churn_partition_live,
            "churn + catch-up failed liveness under a partition-during-join"
        );
        assert!(
            leg.liveness_flip,
            "heal-time phase diagram did not flip: earliest heal must pass, \
             past-horizon heal must fail"
        );
        report = report.with_topology_leg(leg);
    }
    if !curve_ns.is_empty() {
        let sc = fd_bench::scaling_curve(&curve_ns, 1, runner);
        for p in &sc.points {
            println!(
                "scaling curve (n={}): {} events in {} us — {:.0} events/s",
                p.n, p.events, p.wall_us, p.events_per_sec,
            );
            assert_eq!(
                p.passes, p.runs,
                "scaling point n={} failed its spec check",
                p.n
            );
        }
        report = report.with_scaling(sc);
    }
    if profile {
        println!("event profile (per phase):");
        for c in &report.cells {
            println!(
                "  grid      {:<28} {:>12} events  ({} runs)",
                c.label, c.events, c.runs
            );
        }
        println!(
            "  grid      {:<28} {:>12} events  ({} runs)",
            "TOTAL", report.total_events, report.total_runs
        );
        if let Some(s) = &report.stream {
            println!(
                "  stream    {:<28} {:>12} events  ({} runs)",
                s.cell, s.events, s.runs
            );
        }
        if let Some(a) = &report.adversary_leg {
            for c in &a.cells {
                println!(
                    "  adversary {:<28} {:>12} events  ({} runs)",
                    c.label, c.events, c.runs
                );
            }
            println!(
                "  adversary {:<28} {:>12} events  ({} runs)",
                "TOTAL", a.events, a.runs
            );
        }
        if let Some(t) = &report.topology_leg {
            for c in &t.cells {
                println!(
                    "  topology  heal={:<23} {:>12} events  ({} runs)",
                    c.heal, c.events, c.runs
                );
            }
            println!(
                "  topology  {:<28} {:>12} events  ({} runs)",
                "TOTAL", t.events, t.runs
            );
        }
        if let Some(cache) = store_cache {
            // Occupancy and "eviction" (capped-insert) stats: how full the
            // in-memory cache is and whether store hydration was capped.
            println!(
                "  cache     {:<28} {:>12} entries ({} hits, {} misses, {} hydrated, {} capped)",
                "report-cache",
                cache.len(),
                cache.hits(),
                cache.misses(),
                cache.hydrated(),
                cache.capped_inserts(),
            );
        }
    }
    let json = report.to_json();
    std::fs::write(out, &json).expect("write BENCH_sweep.json");
    println!("wrote {out}");
    assert_eq!(
        report.total_passes, report.total_runs,
        "grid sweep had failing cells"
    );
    if let Some(path) = baseline {
        let base =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        match fd_bench::check_baseline(&report, &base, 30) {
            BaselineVerdict::Ok(msg) => println!("baseline check ok: {msg}"),
            BaselineVerdict::Regressed(msg) => {
                eprintln!("baseline check FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
}
