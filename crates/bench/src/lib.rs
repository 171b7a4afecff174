//! # fd-bench — experiment harness regenerating every paper artifact
//!
//! One experiment per figure/theorem of the paper (see DESIGN.md §3 for the
//! index), all driven by the unified scenario engine. The [`experiments`]
//! module computes the tables; the `tables` binary prints them
//! (`cargo run -p fd-bench --bin tables --release`); the `sweep` binary
//! emits the machine-readable `BENCH_sweep.json` throughput report; the
//! bench targets (`cargo bench -p fd-bench`) time the same workloads on
//! the dependency-free [`micro`] harness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
pub mod experiments;
pub mod json;
pub mod micro;
pub mod search;
pub mod store;
pub mod sweep;
pub mod table;

pub use analyze::{analyze_run_dirs, AnalyzeReport};
pub use experiments::all;
pub use micro::{BenchResult, CountingAlloc, Suite};
pub use search::{
    classify, describe_spec, expects_safety_violation, generate, probe_specs, run_search,
    scenario_for, shrink, spec_from_json, spec_to_json, MinimalWitness, RunClass, SearchConfig,
    SearchReport, SearchStats, ShrinkOutcome, ShrinkStep, ShrinkStepRecord, UnexpectedViolation,
    SEARCH_SCHEMA, WITNESS_SCHEMA,
};
pub use store::{
    decode_cell, encode_cell, load_run_dir, InvocationRecord, Manifest, RunDir, SpecEntry,
    StoreSummary, SweepStore, STORE_FORMAT, STORE_SHARDS,
};
pub use sweep::{
    adversary_leg, cache_leg, check_baseline, grid_cells, representative_sweep, scaling_curve,
    store_leg, stream_cell, streaming_sweep, topology_leg, AdversaryLeg, BaselineVerdict, CacheLeg,
    HealCell, QueueCompare, QueueRate, ScalePoint, ScalingCurve, StoreLeg, StreamResult,
    SweepBenchReport, TopologyLeg, MAX_NEGATIVE_WITNESSES,
};
pub use table::Table;
