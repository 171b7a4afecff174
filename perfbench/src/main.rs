//! Command line of the fd-grid benchmark.
//!
//! ```text
//! fd-perfbench --workload grid|n256|search --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human summary on stderr and, as the last line of stdout, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics).
//! A failed output check shows as `"correct": false`; the exit code is 2
//! only on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use fd_perfbench::{run, Config, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("fd-perfbench: {msg}");
    eprintln!(
        "usage: fd-perfbench --workload grid|n256|search --seed N --seconds S \
         --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let work_dir = PathBuf::from(".bench_work").join(format!("perfbench-{}", std::process::id()));
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        threads: None,
        work_dir: work_dir.clone(),
    };
    let outcome = run(&cfg);
    let _ = std::fs::remove_dir_all(&work_dir);
    for m in &outcome.metrics {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
