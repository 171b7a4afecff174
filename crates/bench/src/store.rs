//! Durable, content-addressed sweep store — the on-disk twin of
//! `fd_detectors::ReportCache`.
//!
//! A [`SweepStore`] owns a **run directory** and persists every computed
//! [`SlimReport`] cell under the exact key the in-memory cache uses:
//! `(salt, seed)` where `salt = ReportCache::salt(cache_tag, spec)` digests
//! the scenario name ⊕ [`ScenarioSpec::fingerprint`]. Because the key is
//! content-addressed, any later invocation that sweeps the same scenario
//! spec — same process or not — resumes from the
//! directory with pure cache hits and a bit-identical summary.
//!
//! ## Directory layout
//!
//! ```text
//! rundir/
//!   manifest.json               # format + engine version, registered specs,
//!                               # per-invocation bookkeeping
//!   shards/
//!     s03-g000001.jsonl         # cell segments: one canonical-JSON cell
//!     s03-g000002.jsonl         # per line, sharded by key hash, ordered
//!     ...                       # by generation (last write wins)
//!   stale-0/                    # shards archived on a manifest mismatch
//! ```
//!
//! ## Crash safety and batching
//!
//! Cells are never written in place: a background writer thread buffers
//! cells per shard and flushes each batch as a fresh **segment** file —
//! written to a temp name, `sync_all`'d, then atomically renamed. A crash
//! loses at most the unflushed tail of a batch (those cells are simply
//! recomputed on resume); it can never corrupt previously-flushed segments
//! or leave a half-visible file. The sweep's critical path pays one clone
//! and one channel send per computed cell — no I/O, no fsync.
//!
//! On open, segments are replayed in generation order (last-wins per key),
//! corrupt lines are counted and dropped, and multi-segment or corrupted
//! shards are compacted back to a single clean segment.
//!
//! ## Mismatch semantics
//!
//! The manifest records the store format and the engine version that wrote
//! the directory. The cache salt is a `DefaultHasher` digest — stable for
//! one build, but not a cross-toolchain contract — so when the manifest
//! does not match this binary, [`SweepStore::open`] archives the existing
//! shards to a `stale-N/` subdirectory and starts clean: nothing is
//! hydrated, every cell is recomputed and rewritten. Never a panic, never
//! a wrong report — worst case is a cold sweep.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use fd_detectors::scenario::{Metrics, ReportCache, ScenarioSpec, SlimReport, SpillFn};
use fd_detectors::{CheckOutcome, ViolationClass};
use fd_sim::Time;

use crate::json::{self, Json};

/// On-disk shard count. Independent of the in-memory cache's shard count —
/// the shard is a storage bucket, not part of the key.
pub const STORE_SHARDS: usize = 16;

/// Store format version; bumped on any layout or codec change.
/// v2: cells carry the machine-readable `class` of a failed check.
pub const STORE_FORMAT: u64 = 2;

/// Cells buffered per shard before the writer flushes a segment. Small
/// enough that an interrupted sweep loses little; large enough that a
/// million-seed campaign writes thousands — not millions — of files.
const BATCH: usize = 128;

fn engine_version() -> String {
    // The package version plus the debug/release split: a salt is only
    // guaranteed reproducible by the same build flavor of the same engine.
    format!("fd-bench {}", env!("CARGO_PKG_VERSION"))
}

fn shard_of(key: (u64, u64)) -> usize {
    ((key.0 ^ key.1.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % STORE_SHARDS as u64) as usize
}

// ---------------------------------------------------------------------------
// String interning
// ---------------------------------------------------------------------------

/// Returns a `&'static str` equal to `s`, leaking at most once per distinct
/// string. `SlimReport` holds `&'static str` scenario and counter names;
/// cells read back from disk reconstruct them here. The leak is bounded by
/// the number of distinct scenario/counter names ever stored — a handful.
fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut pool = pool.lock().unwrap();
    if let Some(existing) = pool.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

// ---------------------------------------------------------------------------
// Cell codec
// ---------------------------------------------------------------------------

fn opt_time(t: Option<Time>) -> Json {
    match t {
        Some(t) => Json::num_u64(t.0),
        None => Json::Null,
    }
}

fn decode_opt_time(v: Option<&Json>) -> Result<Option<Time>, String> {
    match v {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j
            .as_u64()
            .map(|t| Some(Time(t)))
            .ok_or_else(|| "bad time".into()),
    }
}

/// Encodes one cell as a single canonical JSON line (no trailing newline).
pub fn encode_cell(salt: u64, seed: u64, slim: &SlimReport) -> String {
    let m = &slim.metrics;
    Json::obj([
        ("salt", Json::num_u64(salt)),
        ("seed", Json::num_u64(seed)),
        ("scenario", Json::str(slim.scenario)),
        ("num_faulty", Json::num_u64(slim.num_faulty as u64)),
        ("ok", Json::Bool(slim.check.ok)),
        ("stabilized_at", opt_time(slim.check.stabilized_at)),
        ("detail", Json::str(&slim.check.detail)),
        ("class", Json::str(slim.check.class.name())),
        (
            "metrics",
            Json::obj([
                ("msgs_sent", Json::num_u64(m.msgs_sent)),
                ("rb_sent", Json::num_u64(m.rb_sent)),
                ("delivered", Json::num_u64(m.delivered)),
                ("events", Json::num_u64(m.events)),
                ("max_round", Json::num_u64(m.max_round)),
                (
                    "decided",
                    Json::Arr(m.decided_values.iter().map(|&v| Json::num_u64(v)).collect()),
                ),
                ("first_decision", opt_time(m.first_decision)),
                ("last_decision", opt_time(m.last_decision)),
            ]),
        ),
        (
            "counters",
            Json::Arr(
                slim.counters
                    .iter()
                    .map(|&(name, v)| Json::Arr(vec![Json::str(name), Json::num_u64(v)]))
                    .collect(),
            ),
        ),
    ])
    .emit()
}

/// Decodes one cell line. Any structural problem — bad JSON, missing field,
/// wrong type — is an `Err`; the store counts it as corrupt and recomputes.
pub fn decode_cell(line: &str) -> Result<((u64, u64), SlimReport), String> {
    let doc = json::parse(line)?;
    let req_u64 = |key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing/bad {key}"))
    };
    let salt = req_u64("salt")?;
    let seed = req_u64("seed")?;
    let scenario = doc
        .get("scenario")
        .and_then(Json::as_str)
        .ok_or("missing scenario")?;
    let ok = doc.get("ok").and_then(Json::as_bool).ok_or("missing ok")?;
    let detail = doc
        .get("detail")
        .and_then(Json::as_str)
        .ok_or("missing detail")?;
    let class = doc
        .get("class")
        .and_then(Json::as_str)
        .and_then(ViolationClass::from_name)
        .ok_or("missing/bad class")?;
    let m = doc.get("metrics").ok_or("missing metrics")?;
    let m_u64 = |key: &str| -> Result<u64, String> {
        m.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing/bad metrics.{key}"))
    };
    let decided = m
        .get("decided")
        .and_then(Json::as_arr)
        .ok_or("missing decided")?
        .iter()
        .map(|v| v.as_u64().ok_or("bad decided value"))
        .collect::<Result<Vec<u64>, _>>()?;
    let counters = doc
        .get("counters")
        .and_then(Json::as_arr)
        .ok_or("missing counters")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("bad counter")?;
            let name = pair[0].as_str().ok_or("bad counter name")?;
            let v = pair[1].as_u64().ok_or("bad counter value")?;
            Ok::<(&'static str, u64), String>((intern(name), v))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let slim = SlimReport {
        scenario: intern(scenario),
        seed,
        num_faulty: req_u64("num_faulty")? as usize,
        check: CheckOutcome {
            ok,
            stabilized_at: decode_opt_time(doc.get("stabilized_at"))?,
            detail: detail.to_string(),
            class,
        },
        metrics: Metrics {
            msgs_sent: m_u64("msgs_sent")?,
            rb_sent: m_u64("rb_sent")?,
            delivered: m_u64("delivered")?,
            events: m_u64("events")?,
            max_round: m_u64("max_round")?,
            decided_values: decided,
            first_decision: decode_opt_time(m.get("first_decision"))?,
            last_decision: decode_opt_time(m.get("last_decision"))?,
        },
        counters,
    };
    if slim.seed != seed {
        return Err("seed mismatch".into());
    }
    Ok(((salt, seed), slim))
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One scenario spec registered in a run directory's manifest — enough to
/// map a cell salt back to a human label in `analyze`.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecEntry {
    /// Human label (e.g. `"grid n=5 t=2 k=1 f=2"`).
    pub label: String,
    /// The scenario's `cache_tag()`.
    pub scenario: String,
    /// `ScenarioSpec::fingerprint()` of the registered spec.
    pub fingerprint: u64,
    /// The content-address salt cells of this spec are stored under.
    pub salt: u64,
}

/// Bookkeeping for one `sweep --store` invocation, appended to the manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct InvocationRecord {
    /// Total runs requested.
    pub runs: u64,
    /// Runs served from cache (memory or hydrated store).
    pub hits: u64,
    /// Runs actually computed.
    pub misses: u64,
    /// Cells newly persisted by this invocation.
    pub wrote: u64,
    /// Wall time of the sweep portion, microseconds.
    pub wall_us: u64,
}

/// The run directory's metadata file.
#[derive(Clone, Debug, Default)]
pub struct Manifest {
    /// Store format version ([`STORE_FORMAT`] when written by this binary).
    pub format: u64,
    /// Engine that wrote the directory (see mismatch semantics).
    pub engine: String,
    /// Registered scenario specs, in registration order.
    pub specs: Vec<SpecEntry>,
    /// One record per `--store` invocation against this directory.
    pub invocations: Vec<InvocationRecord>,
}

impl Manifest {
    fn fresh() -> Manifest {
        Manifest {
            format: STORE_FORMAT,
            engine: engine_version(),
            specs: Vec::new(),
            invocations: Vec::new(),
        }
    }

    /// Whether a loaded manifest was written by this binary's codec.
    pub fn matches_engine(&self) -> bool {
        self.format == STORE_FORMAT && self.engine == engine_version()
    }

    /// The spec label registered for `salt`, if any.
    pub fn label_for_salt(&self, salt: u64) -> Option<&str> {
        self.specs
            .iter()
            .find(|s| s.salt == salt)
            .map(|s| s.label.as_str())
    }

    fn emit(&self) -> String {
        Json::obj([
            ("format", Json::num_u64(self.format)),
            ("engine", Json::str(&self.engine)),
            (
                "specs",
                Json::Arr(
                    self.specs
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("label", Json::str(&s.label)),
                                ("scenario", Json::str(&s.scenario)),
                                ("fingerprint", Json::num_u64(s.fingerprint)),
                                ("salt", Json::num_u64(s.salt)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "invocations",
                Json::Arr(
                    self.invocations
                        .iter()
                        .map(|inv| {
                            Json::obj([
                                ("runs", Json::num_u64(inv.runs)),
                                ("hits", Json::num_u64(inv.hits)),
                                ("misses", Json::num_u64(inv.misses)),
                                ("wrote", Json::num_u64(inv.wrote)),
                                ("wall_us", Json::num_u64(inv.wall_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .emit()
    }

    fn parse(text: &str) -> Result<Manifest, String> {
        let doc = json::parse(text)?;
        let format = doc
            .get("format")
            .and_then(Json::as_u64)
            .ok_or("missing format")?;
        let engine = doc
            .get("engine")
            .and_then(Json::as_str)
            .ok_or("missing engine")?
            .to_string();
        let specs = doc
            .get("specs")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|s| {
                Ok::<SpecEntry, String>(SpecEntry {
                    label: s
                        .get("label")
                        .and_then(Json::as_str)
                        .ok_or("bad spec label")?
                        .to_string(),
                    scenario: s
                        .get("scenario")
                        .and_then(Json::as_str)
                        .ok_or("bad spec scenario")?
                        .to_string(),
                    fingerprint: s
                        .get("fingerprint")
                        .and_then(Json::as_u64)
                        .ok_or("bad spec fingerprint")?,
                    salt: s
                        .get("salt")
                        .and_then(Json::as_u64)
                        .ok_or("bad spec salt")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let invocations = doc
            .get("invocations")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|inv| {
                let f = |key: &str| inv.get(key).and_then(Json::as_u64).unwrap_or(0);
                InvocationRecord {
                    runs: f("runs"),
                    hits: f("hits"),
                    misses: f("misses"),
                    wrote: f("wrote"),
                    wall_us: f("wall_us"),
                }
            })
            .collect();
        Ok(Manifest {
            format,
            engine,
            specs,
            invocations,
        })
    }
}

// ---------------------------------------------------------------------------
// Segment I/O
// ---------------------------------------------------------------------------

fn segment_name(shard: usize, generation: u64) -> String {
    format!("s{shard:02}-g{generation:06}.jsonl")
}

/// Writes `lines` as a single segment: temp file + `sync_all` + atomic
/// rename. The segment is either fully visible or absent — never partial.
fn write_segment(
    shards_dir: &Path,
    shard: usize,
    generation: u64,
    lines: &[String],
) -> io::Result<()> {
    let tmp = shards_dir.join(format!(".tmp-s{shard:02}-g{generation:06}"));
    let final_path = shards_dir.join(segment_name(shard, generation));
    {
        let mut f = fs::File::create(&tmp)?;
        let mut buf = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            buf.push_str(line);
            buf.push('\n');
        }
        f.write_all(buf.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &final_path)
}

/// Atomically replaces `path` with `contents` (temp + rename).
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

struct LoadedShards {
    /// Deduped cells, last write wins.
    cells: HashMap<(u64, u64), SlimReport>,
    /// Unreadable lines dropped during replay.
    corrupt: u64,
    /// Highest segment generation seen on disk.
    max_generation: u64,
    /// Shards that should be compacted (multiple segments, or corruption).
    dirty_shards: Vec<usize>,
}

/// Replays every segment under `shards_dir` in generation order.
fn load_shards(shards_dir: &Path) -> io::Result<LoadedShards> {
    let mut cells = HashMap::new();
    let mut corrupt = 0u64;
    let mut max_generation = 0u64;
    let mut segments_per_shard = [0u32; STORE_SHARDS];
    let mut corrupt_in_shard = [false; STORE_SHARDS];
    let mut names: Vec<String> = Vec::new();
    if shards_dir.is_dir() {
        for entry in fs::read_dir(shards_dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if name.starts_with('s') && name.ends_with(".jsonl") {
                names.push(name);
            }
        }
    }
    // Lexicographic order == generation order (zero-padded names), and
    // last-wins dedup only cares about order *within* a shard.
    names.sort();
    for name in &names {
        let shard: usize = name[1..3].parse().unwrap_or(0);
        let generation: u64 = name[5..11].parse().unwrap_or(0);
        max_generation = max_generation.max(generation);
        if shard < STORE_SHARDS {
            segments_per_shard[shard] += 1;
        }
        let text = fs::read_to_string(shards_dir.join(name))?;
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            match decode_cell(line) {
                Ok((key, slim)) => {
                    cells.insert(key, slim);
                }
                Err(_) => {
                    corrupt += 1;
                    if shard < STORE_SHARDS {
                        corrupt_in_shard[shard] = true;
                    }
                }
            }
        }
    }
    let dirty_shards = (0..STORE_SHARDS)
        .filter(|&s| segments_per_shard[s] > 1 || corrupt_in_shard[s])
        .collect();
    Ok(LoadedShards {
        cells,
        corrupt,
        max_generation,
        dirty_shards,
    })
}

// ---------------------------------------------------------------------------
// Writer thread
// ---------------------------------------------------------------------------

enum Msg {
    Cell(u64, u64, SlimReport),
    Barrier(Sender<()>),
    Shutdown,
}

struct Writer {
    shards_dir: PathBuf,
    known: HashSet<(u64, u64)>,
    buffers: Vec<Vec<String>>,
    generation: u64,
    wrote: Arc<AtomicU64>,
}

impl Writer {
    fn run(mut self, rx: mpsc::Receiver<Msg>) -> io::Result<()> {
        while let Ok(msg) = rx.recv() {
            match msg {
                Msg::Cell(salt, seed, slim) => {
                    let key = (salt, seed);
                    if !self.known.insert(key) {
                        continue; // already on disk or queued
                    }
                    let shard = shard_of(key);
                    self.buffers[shard].push(encode_cell(salt, seed, &slim));
                    if self.buffers[shard].len() >= BATCH {
                        self.flush_shard(shard)?;
                    }
                }
                Msg::Barrier(ack) => {
                    self.flush_all()?;
                    let _ = ack.send(());
                }
                Msg::Shutdown => break,
            }
        }
        // Drain: flush every partial batch before the thread exits. mpsc is
        // FIFO, so everything sent before Shutdown has been received.
        self.flush_all()
    }

    fn flush_all(&mut self) -> io::Result<()> {
        for shard in 0..STORE_SHARDS {
            if !self.buffers[shard].is_empty() {
                self.flush_shard(shard)?;
            }
        }
        Ok(())
    }

    fn flush_shard(&mut self, shard: usize) -> io::Result<()> {
        self.generation += 1;
        let lines = std::mem::take(&mut self.buffers[shard]);
        write_segment(&self.shards_dir, shard, self.generation, &lines)?;
        self.wrote.fetch_add(lines.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// SweepStore
// ---------------------------------------------------------------------------

/// Final accounting returned by [`SweepStore::close`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreSummary {
    /// Cells read back from the directory at open.
    pub loaded: usize,
    /// Corrupt lines dropped at open.
    pub corrupt: u64,
    /// Cells newly persisted during this store's lifetime.
    pub wrote: u64,
    /// Whether stale shards were archived on open (manifest mismatch).
    pub archived_stale: bool,
}

/// An open run directory: loaded cells, a manifest, and a live writer
/// thread persisting new cells. See the module docs for the layout and
/// durability contract.
#[derive(Debug)]
pub struct SweepStore {
    dir: PathBuf,
    cells: HashMap<(u64, u64), SlimReport>,
    corrupt: u64,
    archived_stale: bool,
    manifest: Mutex<Manifest>,
    // label → index into `manifest.specs`, so re-registering a campaign's
    // specs against an already-populated manifest stays O(1) per spec
    // instead of a linear label scan (quadratic over large campaigns).
    spec_index: Mutex<HashMap<String, usize>>,
    tx: Option<Sender<Msg>>,
    writer: Option<JoinHandle<io::Result<()>>>,
    wrote: Arc<AtomicU64>,
}

impl SweepStore {
    /// Opens (creating if necessary) the run directory at `dir`, replaying
    /// existing segments into memory. On a manifest mismatch the existing
    /// shards are archived and the store starts empty — see module docs.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<SweepStore> {
        let dir = dir.as_ref().to_path_buf();
        let shards_dir = dir.join("shards");
        fs::create_dir_all(&shards_dir)?;

        let manifest_path = dir.join("manifest.json");
        let mut archived_stale = false;
        let mut manifest = match fs::read_to_string(&manifest_path) {
            Ok(text) => match Manifest::parse(&text) {
                Ok(m) if m.matches_engine() => m,
                // Unreadable or mismatched: both mean "not our cells".
                Ok(_) | Err(_) => {
                    archive_shards(&dir, &shards_dir)?;
                    archived_stale = true;
                    Manifest::fresh()
                }
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // No manifest. If cells exist anyway (half-written run dir,
                // crashed before first close), treat them as stale too: the
                // salts cannot be trusted without a manifest.
                if shards_dir.read_dir()?.next().is_some() {
                    archive_shards(&dir, &shards_dir)?;
                    archived_stale = true;
                }
                Manifest::fresh()
            }
            Err(e) => return Err(e),
        };
        manifest.engine = engine_version();
        manifest.format = STORE_FORMAT;

        let loaded = load_shards(&shards_dir)?;
        let mut generation = loaded.max_generation;

        // Compact: rewrite multi-segment or corruption-scarred shards as a
        // single clean segment, then delete the originals.
        for &shard in &loaded.dirty_shards {
            let lines: Vec<String> = loaded
                .cells
                .iter()
                .filter(|(key, _)| shard_of(**key) == shard)
                .map(|(key, slim)| encode_cell(key.0, key.1, slim))
                .collect();
            generation += 1;
            let old: Vec<PathBuf> = fs::read_dir(&shards_dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with(&format!("s{shard:02}-")))
                })
                .collect();
            if !lines.is_empty() {
                write_segment(&shards_dir, shard, generation, &lines)?;
            }
            for path in old {
                fs::remove_file(path)?;
            }
        }

        let wrote = Arc::new(AtomicU64::new(0));
        let writer = Writer {
            shards_dir,
            known: loaded.cells.keys().copied().collect(),
            buffers: (0..STORE_SHARDS).map(|_| Vec::new()).collect(),
            generation,
            wrote: Arc::clone(&wrote),
        };
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("sweep-store-writer".into())
            .spawn(move || writer.run(rx))?;

        let spec_index = manifest
            .specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.label.clone(), i))
            .collect();
        Ok(SweepStore {
            dir,
            cells: loaded.cells,
            corrupt: loaded.corrupt,
            archived_stale,
            manifest: Mutex::new(manifest),
            spec_index: Mutex::new(spec_index),
            tx: Some(tx),
            writer: Some(handle),
            wrote,
        })
    }

    /// The run directory this store owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cells read back from the directory at open.
    pub fn loaded(&self) -> usize {
        self.cells.len()
    }

    /// Corrupt lines dropped at open.
    pub fn corrupt(&self) -> u64 {
        self.corrupt
    }

    /// Whether open archived stale shards (manifest mismatch).
    pub fn archived_stale(&self) -> bool {
        self.archived_stale
    }

    /// Cells flushed to disk so far by this store's writer.
    pub fn wrote(&self) -> u64 {
        self.wrote.load(Ordering::Relaxed)
    }

    /// A read-only view of the loaded cells.
    pub fn cells(&self) -> &HashMap<(u64, u64), SlimReport> {
        &self.cells
    }

    /// Seeds `cache` with every loaded cell; returns how many were
    /// admitted. Warm lookups then flow through the unchanged
    /// `Runner::with_cache` path — the store never sits on the sweep's
    /// read path.
    pub fn hydrate_into(&self, cache: &ReportCache) -> usize {
        let mut admitted = 0usize;
        for (key, slim) in &self.cells {
            if cache.hydrate(*key, slim.clone()) {
                admitted += 1;
            }
        }
        admitted
    }

    /// The spill hook to register on the cache
    /// (`cache.set_spill(Some(store.spill()))`): forwards every *computed*
    /// cell to the writer thread. Cheap on the hot path (clone + channel
    /// send); deduplication against already-persisted cells happens on the
    /// writer side. Safe to leave registered after [`SweepStore::close`] —
    /// sends to the closed channel are dropped.
    pub fn spill(&self) -> Arc<SpillFn> {
        let tx = self.tx.as_ref().expect("store is open").clone();
        Arc::new(move |salt, seed, slim: &SlimReport| {
            let _ = tx.send(Msg::Cell(salt, seed, slim.clone()));
        })
    }

    /// Registers a scenario spec in the manifest (replacing any previous
    /// entry with the same label), so `analyze` can map cell salts back to
    /// labels. Returns the content-address salt for the spec.
    pub fn register_spec(&self, label: &str, cache_tag: &str, spec: &ScenarioSpec) -> u64 {
        let salt = ReportCache::salt(cache_tag, spec);
        let entry = SpecEntry {
            label: label.to_string(),
            scenario: cache_tag.to_string(),
            fingerprint: spec.fingerprint(),
            salt,
        };
        let mut index = self.spec_index.lock().unwrap();
        let mut manifest = self.manifest.lock().unwrap();
        if let Some(&i) = index.get(&entry.label) {
            manifest.specs[i] = entry;
        } else {
            index.insert(entry.label.clone(), manifest.specs.len());
            manifest.specs.push(entry);
        }
        salt
    }

    /// Appends one invocation record to the manifest.
    pub fn record_invocation(&self, record: InvocationRecord) {
        self.manifest.lock().unwrap().invocations.push(record);
    }

    /// Writes the manifest now (atomically), without closing the store.
    ///
    /// A run directory is only trusted on open when a manifest is present
    /// — half-written shards without one are archived, not loaded. Long
    /// campaigns therefore commit the manifest right after registering
    /// their specs, *before* computing: a `SIGKILL` at any later point
    /// leaves a resumable directory in which every flushed segment loads,
    /// and only the unflushed tail of each batch is recomputed.
    pub fn commit_manifest(&self) -> io::Result<()> {
        let manifest = self.manifest.lock().unwrap().emit();
        write_atomic(&self.dir.join("manifest.json"), &manifest)
    }

    /// Durability barrier: forces every cell spilled so far onto disk and
    /// waits for it. After this returns, [`SweepStore::wrote`] is exact —
    /// which is how invocation records report an accurate `wrote` count —
    /// and a crash loses nothing already computed.
    pub fn flush(&self) -> io::Result<u64> {
        let (ack_tx, ack_rx) = mpsc::channel();
        let tx = self.tx.as_ref().expect("store is open");
        tx.send(Msg::Barrier(ack_tx))
            .map_err(|_| io::Error::other("store writer stopped"))?;
        ack_rx
            .recv()
            .map_err(|_| io::Error::other("store writer stopped"))?;
        Ok(self.wrote())
    }

    /// Flushes every pending cell, stops the writer thread, and writes the
    /// manifest (atomically). The directory is complete and resumable once
    /// this returns.
    pub fn close(mut self) -> io::Result<StoreSummary> {
        self.shutdown()?;
        Ok(StoreSummary {
            loaded: self.cells.len(),
            corrupt: self.corrupt,
            wrote: self.wrote.load(Ordering::Relaxed),
            archived_stale: self.archived_stale,
        })
    }

    fn shutdown(&mut self) -> io::Result<()> {
        if let Some(tx) = self.tx.take() {
            // Explicit sentinel: the spill closure may hold Sender clones
            // forever (it lives in a leaked 'static cache), so the writer
            // cannot rely on channel disconnect to stop.
            let _ = tx.send(Msg::Shutdown);
        }
        if let Some(handle) = self.writer.take() {
            handle
                .join()
                .map_err(|_| io::Error::other("store writer panicked"))??;
        }
        let manifest = self.manifest.lock().unwrap().emit();
        write_atomic(&self.dir.join("manifest.json"), &manifest)
    }
}

impl Drop for SweepStore {
    fn drop(&mut self) {
        // Best-effort durability if the caller forgot (or panicked past)
        // `close()`; errors have nowhere to go here.
        let _ = self.shutdown();
    }
}

fn archive_shards(dir: &Path, shards_dir: &Path) -> io::Result<()> {
    for i in 0u32.. {
        let target = dir.join(format!("stale-{i}"));
        if !target.exists() {
            fs::rename(shards_dir, &target)?;
            break;
        }
    }
    fs::create_dir_all(shards_dir)
}

// ---------------------------------------------------------------------------
// Read-only loading (analyze)
// ---------------------------------------------------------------------------

/// A run directory loaded read-only — no writer thread, no compaction, no
/// archiving. What `analyze` consumes.
#[derive(Debug)]
pub struct RunDir {
    /// The directory path.
    pub dir: PathBuf,
    /// The parsed manifest (default/empty if missing or unreadable).
    pub manifest: Manifest,
    /// Deduped cells (last write wins), keyed `(salt, seed)`.
    pub cells: HashMap<(u64, u64), SlimReport>,
    /// Corrupt lines skipped.
    pub corrupt: u64,
}

/// Loads a run directory without mutating it.
pub fn load_run_dir(dir: impl AsRef<Path>) -> io::Result<RunDir> {
    let dir = dir.as_ref().to_path_buf();
    let manifest = fs::read_to_string(dir.join("manifest.json"))
        .ok()
        .and_then(|text| Manifest::parse(&text).ok())
        .unwrap_or_default();
    let loaded = load_shards(&dir.join("shards"))?;
    Ok(RunDir {
        dir,
        manifest,
        cells: loaded.cells,
        corrupt: loaded.corrupt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_slim(seed: u64) -> SlimReport {
        SlimReport {
            scenario: "store_probe",
            seed,
            num_faulty: 2,
            check: CheckOutcome {
                ok: !seed.is_multiple_of(3),
                stabilized_at: if seed.is_multiple_of(2) {
                    Some(Time(seed.wrapping_mul(7)))
                } else {
                    None
                },
                detail: format!("detail \"quoted\" \\ line\nπ #{seed}"),
                class: if seed.is_multiple_of(3) {
                    ViolationClass::ALL[(seed as usize / 3) % ViolationClass::ALL.len()]
                } else {
                    ViolationClass::None
                },
            },
            metrics: Metrics {
                msgs_sent: seed.wrapping_mul(11),
                rb_sent: seed,
                delivered: seed.wrapping_mul(13),
                events: u64::MAX - seed,
                max_round: 9,
                decided_values: vec![seed, 101],
                first_decision: Some(Time(3)),
                last_decision: None,
            },
            counters: vec![("decisions", seed), ("r1_echo", 2)],
        }
    }

    #[test]
    fn cell_codec_round_trips_exactly() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let slim = sample_slim(seed);
            let line = encode_cell(u64::MAX - 1, seed, &slim);
            let ((salt, got_seed), decoded) = decode_cell(&line).unwrap();
            assert_eq!(salt, u64::MAX - 1);
            assert_eq!(got_seed, seed);
            assert_eq!(decoded, slim);
            // Canonical: re-encoding the decoded cell is byte-identical.
            assert_eq!(encode_cell(salt, seed, &decoded), line);
        }
    }

    #[test]
    fn decode_rejects_malformed_cells() {
        let good = encode_cell(1, 2, &sample_slim(2));
        for bad in [
            "",
            "not json",
            "{}",
            "{\"salt\":1}",
            &good[..good.len() - 10], // truncated mid-write
            &good.replace("\"seed\":2", "\"seed\":\"x\""),
        ] {
            assert!(decode_cell(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn manifest_round_trips() {
        let mut m = Manifest::fresh();
        m.specs.push(SpecEntry {
            label: "grid n=5".into(),
            scenario: "mr:n5".into(),
            fingerprint: u64::MAX,
            salt: 12345,
        });
        m.invocations.push(InvocationRecord {
            runs: 300,
            hits: 0,
            misses: 300,
            wrote: 300,
            wall_us: 123_456,
        });
        let parsed = Manifest::parse(&m.emit()).unwrap();
        assert!(parsed.matches_engine());
        assert_eq!(parsed.specs, m.specs);
        assert_eq!(parsed.invocations, m.invocations);
        assert_eq!(parsed.label_for_salt(12345), Some("grid n=5"));
        assert_eq!(parsed.label_for_salt(1), None);
    }

    #[test]
    fn interned_names_are_pointer_stable() {
        let a = intern("some_counter");
        let b = intern("some_counter");
        assert!(std::ptr::eq(a, b));
        assert_eq!(intern("other"), "other");
    }
}
