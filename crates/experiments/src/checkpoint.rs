//! Crash-tolerant checkpointing for experiment grids.
//!
//! A [`CheckpointManifest`] is an append-only JSONL file (or an in-memory
//! map, for tests) of finished grid cells, each keyed by [`cell_key`] — a
//! digest of the cell's full [`SystemConfig`] fingerprint (fault schedule
//! included), policy, mix, and instruction budget. Every
//! [`Grid`](crate::grid::Grid) records its finished cells here; after a
//! crash or kill, re-running the same grid with the same manifest (see
//! [`resume_manifest`] and `DAP_RESUME`) answers the finished cells from
//! the manifest and only simulates the rest.
//!
//! Loading is lenient by construction: a process killed mid-append leaves
//! a truncated final line, which must cost that one cell, not the whole
//! manifest — malformed lines are skipped and counted in
//! [`CheckpointManifest::parse_errors`].

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use dap_flock::FlockGuard;
use dap_telemetry::json::{obj, parse, Json};
use mem_sim::{CoreResult, RunResult, SimStats, SystemConfig};
use workloads::Mix;

use crate::exec::lock_unpoisoned;
use crate::fingerprint::ConfigFingerprint;
use crate::runner::{PolicyKind, WorkloadRun};

/// Environment variable naming the checkpoint manifest to resume from
/// (and append to): `DAP_RESUME=grid.ckpt fig06_dap_sectored`.
pub const RESUME_ENV: &str = "DAP_RESUME";

/// The process-wide manifest named by [`RESUME_ENV`]: opened on first use
/// and shared by every [`Grid`](crate::grid::Grid) in the process after
/// that. `None` when the variable is unset or empty, or when the file
/// cannot be opened (reported once on stderr).
pub fn resume_manifest() -> Option<&'static CheckpointManifest> {
    static RESUME: OnceLock<Option<CheckpointManifest>> = OnceLock::new();
    RESUME
        .get_or_init(|| {
            let path = PathBuf::from(std::env::var_os(RESUME_ENV)?);
            if path.as_os_str().is_empty() {
                return None;
            }
            CheckpointManifest::open(&path)
                .map_err(|e| {
                    eprintln!(
                        "warning: ignoring unreadable {RESUME_ENV} manifest {}: {e}",
                        path.display()
                    );
                })
                .ok()
        })
        .as_ref()
}

/// The stable identity of one grid cell: FNV-1a over the configuration
/// fingerprint (every run-affecting field, fault schedule included), the
/// policy, the mix name, and the instruction budget, prefixed with the
/// human-readable cell coordinates.
pub fn cell_key(config: &SystemConfig, kind: PolicyKind, mix: &Mix, instructions: u64) -> String {
    let mut hash = 0xcbf29ce484222325u64;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100000001b3);
        }
    };
    for &w in ConfigFingerprint::of(config).words() {
        eat(w);
    }
    for b in format!("{kind:?}").bytes() {
        eat(u64::from(b));
    }
    for b in mix.name.bytes() {
        eat(u64::from(b));
    }
    eat(instructions);
    format!("{}/{kind:?}-{hash:016x}", mix.name)
}

/// The raw durable-append primitive: one `write_all` of line + newline
/// (a single buffer, so the kernel sees one write syscall, not a line
/// that could interleave with another process between its body and its
/// newline), then flush and `sync_data` so the record survives an
/// immediately following crash or power cut — a checkpoint that only
/// lives in the page cache protects against process death but not
/// machine death.
///
/// Takes **no lock**: callers that already hold a [`FlockGuard`] on
/// `file` (the lease log holds one across its whole read-validate-append
/// cycle) must use this directly — `flock` locks belong to the open file
/// description, so a nested guard's drop would release the outer lock.
pub(crate) fn write_line_synced(mut file: &File, line: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    file.write_all(&buf)?;
    file.flush()?;
    file.sync_data()
}

/// The shared-file append primitive: takes an exclusive `flock(2)` on
/// the file around [`write_line_synced`], so concurrent *processes*
/// appending to the same manifest or lease log cannot interleave torn
/// lines. Lenient loading stays as the backstop for crashes mid-append
/// (the lock does not make a half-written line impossible, only an
/// interleaved one).
pub(crate) fn append_line_synced(file: &File, line: &str) -> std::io::Result<()> {
    let _guard = FlockGuard::exclusive(file)?;
    write_line_synced(file, line)
}

struct ManifestInner {
    file: Option<File>,
    path: Option<PathBuf>,
    completed: HashMap<String, WorkloadRun>,
    /// Earlier records overwritten by a later line with the same key —
    /// kept (not just counted) so the merge can verify the copies were
    /// bit-identical. Arises when a restarted worker re-runs a cell it
    /// had already recorded (crash between the manifest record and the
    /// lease `done`, then stealing its own expired lease back).
    superseded: Vec<(String, WorkloadRun)>,
    parse_errors: u64,
    /// How many times the skipped-lines warning was printed (at most once
    /// per manifest, however many grids share it).
    parse_warnings: u32,
}

/// An append-only store of finished grid cells keyed by [`cell_key`].
///
/// Thread-safe: [`Grid`](crate::grid::Grid) workers record finished
/// cells concurrently. Each record is one flushed JSONL line, so a crash
/// loses at most the line being written — which lenient loading skips.
pub struct CheckpointManifest {
    inner: Mutex<ManifestInner>,
}

impl CheckpointManifest {
    /// Opens (creating if absent) a manifest file, loading every parseable
    /// completed cell and skipping corrupt or truncated lines.
    ///
    /// # Errors
    ///
    /// I/O errors opening or reading the file. Corrupt *content* is never
    /// an error — it is counted in [`Self::parse_errors`].
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let mut completed = HashMap::new();
        let mut superseded = Vec::new();
        let mut parse_errors = 0u64;
        let mut torn_tail = false;
        if path.exists() {
            let text = std::fs::read_to_string(path)?;
            torn_tail = !text.is_empty() && !text.ends_with('\n');
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match parse(line).ok().and_then(|v| run_from_json(&v)) {
                    Some((key, run)) => {
                        if let Some(prev) = completed.insert(key.clone(), run) {
                            superseded.push((key, prev));
                        }
                    }
                    None => parse_errors += 1,
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if torn_tail {
            // A crash mid-append left a line without its newline; terminate
            // it (durably, through the same helper every append uses) so
            // the next record starts on a fresh line instead of gluing
            // onto the torn one.
            append_line_synced(&file, "")?;
        }
        Ok(Self {
            inner: Mutex::new(ManifestInner {
                file: Some(file),
                path: Some(path.to_path_buf()),
                completed,
                superseded,
                parse_errors,
                parse_warnings: 0,
            }),
        })
    }

    /// A manifest backed by memory only (tests, or intra-process reuse).
    pub fn in_memory() -> Self {
        Self {
            inner: Mutex::new(ManifestInner {
                file: None,
                path: None,
                completed: HashMap::new(),
                superseded: Vec::new(),
                parse_errors: 0,
                parse_warnings: 0,
            }),
        }
    }

    /// Number of completed cells loaded or recorded.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).completed.len()
    }

    /// Whether no cell has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Corrupt or truncated lines skipped while loading.
    pub fn parse_errors(&self) -> u64 {
        lock_unpoisoned(&self.inner).parse_errors
    }

    /// Warns on stderr that corrupt lines were skipped while loading —
    /// once per manifest, however many grids resume from it. Skipping is
    /// the right recovery, but doing it silently hides data loss: those
    /// cells will re-simulate, and a manifest that keeps accumulating bad
    /// lines points at a real problem (disk, concurrent writer without
    /// the lock).
    pub(crate) fn warn_parse_errors_once(&self) {
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.parse_errors == 0 || inner.parse_warnings > 0 {
            return;
        }
        inner.parse_warnings += 1;
        let path = inner
            .path
            .as_ref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "<in-memory>".to_string());
        eprintln!(
            "warning: checkpoint manifest {path}: skipped {} corrupt line(s) while \
             loading; the affected cells will be re-simulated",
            inner.parse_errors
        );
    }

    /// Every completed cell, sorted by key (deterministic iteration for
    /// merge and canonical re-serialization).
    pub fn entries(&self) -> Vec<(String, WorkloadRun)> {
        let inner = lock_unpoisoned(&self.inner);
        let mut out: Vec<_> = inner
            .completed
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The completed cell stored under `key`, if any.
    pub fn lookup(&self, key: &str) -> Option<WorkloadRun> {
        lock_unpoisoned(&self.inner).completed.get(key).cloned()
    }

    /// Records that were overwritten by a later line with the same key
    /// when the file was loaded. A sharded worker that crashed between
    /// recording a cell and marking its lease done, then stole its own
    /// expired lease back after restart, leaves such a pair — the merge
    /// verifies the copies were bit-identical just like duplicates
    /// across different workers' manifests.
    pub fn superseded(&self) -> Vec<(String, WorkloadRun)> {
        lock_unpoisoned(&self.inner).superseded.clone()
    }

    /// Records a finished cell: one appended, fsync'd JSONL line (via
    /// [`append_line_synced`]) plus the in-memory entry. Recording the
    /// same key again overwrites (the runs are deterministic, so the
    /// values agree).
    pub fn record(&self, key: &str, run: &WorkloadRun) {
        let line = run_to_json(key, run).to_string_compact();
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(file) = inner.file.as_ref() {
            // A failed append degrades the manifest to in-memory for this
            // cell; the grid result is unaffected, but say so — a user
            // relying on resume deserves to know durability was lost.
            if let Err(e) = append_line_synced(file, &line) {
                eprintln!("warning: checkpoint append for {key} failed ({e}); kept in memory only");
            }
        }
        inner.completed.insert(key.to_string(), run.clone());
    }
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

fn sim_stats_to_json(s: &SimStats) -> Json {
    obj([
        ("demand_reads", num(s.demand_reads)),
        ("demand_writes", num(s.demand_writes)),
        ("ms_read_hits", num(s.ms_read_hits)),
        ("ms_read_misses", num(s.ms_read_misses)),
        ("ms_write_hits", num(s.ms_write_hits)),
        ("ms_write_misses", num(s.ms_write_misses)),
        ("ms_cas", num(s.ms_cas)),
        ("mm_cas", num(s.mm_cas)),
        ("fills", num(s.fills)),
        ("fills_bypassed", num(s.fills_bypassed)),
        ("writes_bypassed", num(s.writes_bypassed)),
        ("forced_read_misses", num(s.forced_read_misses)),
        ("speculative_forced", num(s.speculative_forced)),
        ("speculative_wasted", num(s.speculative_wasted)),
        ("write_throughs", num(s.write_throughs)),
        ("ms_dirty_evictions", num(s.ms_dirty_evictions)),
        ("tag_cache_lookups", num(s.tag_cache_lookups)),
        ("tag_cache_misses", num(s.tag_cache_misses)),
        ("metadata_cas", num(s.metadata_cas)),
        ("footprint_prefetches", num(s.footprint_prefetches)),
        ("l3_accesses", num(s.l3_accesses)),
        ("l3_misses", num(s.l3_misses)),
        ("read_latency_sum", num(s.read_latency_sum)),
        ("read_latency_count", num(s.read_latency_count)),
    ])
}

fn sim_stats_from_json(v: &Json) -> Option<SimStats> {
    let f = |k: &str| v.get(k)?.as_u64();
    Some(SimStats {
        demand_reads: f("demand_reads")?,
        demand_writes: f("demand_writes")?,
        ms_read_hits: f("ms_read_hits")?,
        ms_read_misses: f("ms_read_misses")?,
        ms_write_hits: f("ms_write_hits")?,
        ms_write_misses: f("ms_write_misses")?,
        ms_cas: f("ms_cas")?,
        mm_cas: f("mm_cas")?,
        fills: f("fills")?,
        fills_bypassed: f("fills_bypassed")?,
        writes_bypassed: f("writes_bypassed")?,
        forced_read_misses: f("forced_read_misses")?,
        speculative_forced: f("speculative_forced")?,
        speculative_wasted: f("speculative_wasted")?,
        write_throughs: f("write_throughs")?,
        ms_dirty_evictions: f("ms_dirty_evictions")?,
        tag_cache_lookups: f("tag_cache_lookups")?,
        tag_cache_misses: f("tag_cache_misses")?,
        metadata_cas: f("metadata_cas")?,
        footprint_prefetches: f("footprint_prefetches")?,
        l3_accesses: f("l3_accesses")?,
        l3_misses: f("l3_misses")?,
        read_latency_sum: f("read_latency_sum")?,
        read_latency_count: f("read_latency_count")?,
    })
}

fn decisions_to_json(d: &dap_core::DecisionStats) -> Json {
    obj([
        ("fwb", num(d.fwb)),
        ("wb", num(d.wb)),
        ("ifrm", num(d.ifrm)),
        ("sfrm", num(d.sfrm)),
        ("write_through", num(d.write_through)),
        ("windows_partitioned", num(d.windows_partitioned)),
        ("windows_total", num(d.windows_total)),
        ("bandwidth_resolves", num(d.bandwidth_resolves)),
    ])
}

fn decisions_from_json(v: &Json) -> Option<dap_core::DecisionStats> {
    let f = |k: &str| v.get(k)?.as_u64();
    Some(dap_core::DecisionStats {
        fwb: f("fwb")?,
        wb: f("wb")?,
        ifrm: f("ifrm")?,
        sfrm: f("sfrm")?,
        write_through: f("write_through")?,
        windows_partitioned: f("windows_partitioned")?,
        windows_total: f("windows_total")?,
        bandwidth_resolves: f("bandwidth_resolves")?,
    })
}

pub(crate) fn run_to_json(key: &str, run: &WorkloadRun) -> Json {
    obj([
        ("key", Json::Str(key.to_string())),
        ("weighted_speedup", Json::Num(run.weighted_speedup)),
        (
            "per_core",
            Json::Arr(
                run.result
                    .per_core
                    .iter()
                    .map(|c| {
                        obj([
                            ("instructions", num(c.instructions)),
                            ("cycles", num(c.cycles)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("stats", sim_stats_to_json(&run.result.stats)),
        (
            "dap",
            match &run.result.dap_decisions {
                Some(d) => decisions_to_json(d),
                None => Json::Null,
            },
        ),
    ])
}

pub(crate) fn run_from_json(v: &Json) -> Option<(String, WorkloadRun)> {
    let key = v.get("key")?.as_str()?.to_string();
    let weighted_speedup = v.get("weighted_speedup")?.as_f64()?;
    let per_core = v
        .get("per_core")?
        .as_arr()?
        .iter()
        .map(|c| {
            Some(CoreResult {
                instructions: c.get("instructions")?.as_u64()?,
                cycles: c.get("cycles")?.as_u64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let stats = sim_stats_from_json(v.get("stats")?)?;
    let dap_decisions = match v.get("dap")? {
        Json::Null => None,
        d => Some(decisions_from_json(d)?),
    };
    Some((
        key,
        WorkloadRun {
            result: RunResult {
                per_core,
                stats,
                dap_decisions,
            },
            weighted_speedup,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> WorkloadRun {
        // Every SimStats/DecisionStats field gets a distinct value so a
        // field dropped from the round trip fails the equality below.
        let mut stats = SimStats::default();
        let fields: [&mut u64; 24] = [
            &mut stats.demand_reads,
            &mut stats.demand_writes,
            &mut stats.ms_read_hits,
            &mut stats.ms_read_misses,
            &mut stats.ms_write_hits,
            &mut stats.ms_write_misses,
            &mut stats.ms_cas,
            &mut stats.mm_cas,
            &mut stats.fills,
            &mut stats.fills_bypassed,
            &mut stats.writes_bypassed,
            &mut stats.forced_read_misses,
            &mut stats.speculative_forced,
            &mut stats.speculative_wasted,
            &mut stats.write_throughs,
            &mut stats.ms_dirty_evictions,
            &mut stats.tag_cache_lookups,
            &mut stats.tag_cache_misses,
            &mut stats.metadata_cas,
            &mut stats.footprint_prefetches,
            &mut stats.l3_accesses,
            &mut stats.l3_misses,
            &mut stats.read_latency_sum,
            &mut stats.read_latency_count,
        ];
        for (i, f) in fields.into_iter().enumerate() {
            *f = 1000 + i as u64;
        }
        WorkloadRun {
            result: RunResult {
                per_core: vec![
                    CoreResult {
                        instructions: 5_000,
                        cycles: 9_123,
                    },
                    CoreResult {
                        instructions: 5_000,
                        cycles: 11_001,
                    },
                ],
                stats,
                dap_decisions: Some(dap_core::DecisionStats {
                    fwb: 1,
                    wb: 2,
                    ifrm: 3,
                    sfrm: 4,
                    write_through: 5,
                    windows_partitioned: 6,
                    windows_total: 7,
                    bandwidth_resolves: 8,
                }),
            },
            weighted_speedup: 1.8259023,
        }
    }

    fn assert_same(a: &WorkloadRun, b: &WorkloadRun) {
        assert_eq!(a.result.per_core, b.result.per_core);
        assert_eq!(a.result.stats, b.result.stats);
        assert_eq!(a.result.dap_decisions, b.result.dap_decisions);
        assert_eq!(a.weighted_speedup, b.weighted_speedup);
    }

    #[test]
    fn workload_run_round_trips_exactly() {
        let run = sample_run();
        let line = run_to_json("k1", &run).to_string_compact();
        let (key, back) = run_from_json(&parse(&line).unwrap()).unwrap();
        assert_eq!(key, "k1");
        assert_same(&run, &back);
    }

    #[test]
    fn baseline_run_without_dap_stats_round_trips() {
        let mut run = sample_run();
        run.result.dap_decisions = None;
        let line = run_to_json("k2", &run).to_string_compact();
        let (_, back) = run_from_json(&parse(&line).unwrap()).unwrap();
        assert!(back.result.dap_decisions.is_none());
    }

    #[test]
    fn in_memory_manifest_records_and_looks_up() {
        let m = CheckpointManifest::in_memory();
        assert!(m.is_empty());
        assert!(m.lookup("a").is_none());
        let run = sample_run();
        m.record("a", &run);
        assert_eq!(m.len(), 1);
        assert_same(&m.lookup("a").unwrap(), &run);
    }

    #[test]
    fn reloading_tracks_superseded_records_for_duplicate_keys() {
        let dir = std::env::temp_dir().join(format!("dap-ckpt-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dup.ckpt");
        let _ = std::fs::remove_file(&path);

        let run = sample_run();
        {
            let m = CheckpointManifest::open(&path).unwrap();
            m.record("cell-a", &run);
            m.record("cell-b", &run);
            m.record("cell-a", &run); // restart re-ran its own cell
        }
        let m = CheckpointManifest::open(&path).unwrap();
        assert_eq!(m.len(), 2);
        let superseded = m.superseded();
        assert_eq!(superseded.len(), 1);
        assert_eq!(superseded[0].0, "cell-a");
        assert_same(&superseded[0].1, &run);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_manifest_survives_reopen_and_truncated_tail() {
        let dir = std::env::temp_dir().join(format!("dap-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.ckpt");
        let _ = std::fs::remove_file(&path);

        let run = sample_run();
        {
            let m = CheckpointManifest::open(&path).unwrap();
            m.record("cell-a", &run);
            m.record("cell-b", &run);
        }
        // Simulate a crash mid-append: a truncated last line plus junk.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"key\":\"cell-c\",\"weighted_sp").unwrap();
        }
        let m = CheckpointManifest::open(&path).unwrap();
        assert_eq!(m.len(), 2, "both intact cells load");
        assert_eq!(m.parse_errors(), 1, "the torn line is counted, not fatal");
        assert_same(&m.lookup("cell-a").unwrap(), &run);
        // The reopened manifest still appends.
        m.record("cell-c", &run);
        let again = CheckpointManifest::open(&path).unwrap();
        assert_eq!(again.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    /// Exhaustive torn-tail repair: a crash can truncate the manifest at
    /// any byte of its final line. For every such cut point, reopening
    /// must recover all fully-written cells, count at most one parse
    /// error, and accept further appends that a second reopen then sees.
    #[test]
    fn torn_tail_repairs_at_every_byte_offset_of_the_final_line() {
        let dir = std::env::temp_dir().join(format!("dap-ckpt-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.ckpt");
        let _ = std::fs::remove_file(&path);

        let run = sample_run();
        {
            let m = CheckpointManifest::open(&path).unwrap();
            m.record("cell-a", &run);
            m.record("cell-b", &run);
        }
        let pristine = std::fs::read(&path).unwrap();
        // Start of the final line = one past the newline terminating the
        // first line (both lines end in '\n' after a clean close).
        let first_nl = pristine.iter().position(|&b| b == b'\n').unwrap();
        let last_line_start = first_nl + 1;
        assert!(last_line_start < pristine.len() - 1, "two-line fixture");

        for cut in last_line_start..=pristine.len() {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let m = CheckpointManifest::open(&path).unwrap();
            // Losing only the trailing newline still leaves a complete,
            // parseable JSON line.
            let whole_line_survived = cut >= pristine.len() - 1;
            let expected_cells = if whole_line_survived { 2 } else { 1 };
            assert_eq!(m.len(), expected_cells, "cut at byte {cut}");
            assert!(m.parse_errors() <= 1, "cut at byte {cut}");
            assert_same(&m.lookup("cell-a").unwrap(), &run);
            if whole_line_survived {
                assert_same(&m.lookup("cell-b").unwrap(), &run);
            }
            // The repaired manifest keeps appending on a fresh line.
            m.record("cell-c", &run);
            drop(m);
            let again = CheckpointManifest::open(&path).unwrap();
            assert_eq!(again.len(), expected_cells + 1, "cut at byte {cut}");
            assert_same(&again.lookup("cell-c").unwrap(), &run);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Every grid resuming from a manifest with corrupt lines reports
    /// them, but the warning is printed once per manifest, not once per
    /// grid (Fig. F runs five grids over one `DAP_RESUME` manifest).
    #[test]
    fn corrupt_manifest_shared_by_two_grids_warns_once() {
        use crate::exec::ParallelExecutor;
        use crate::grid::Grid;
        use crate::runner::AloneIpcCache;
        use workloads::{rate_mix, spec};

        let dir = std::env::temp_dir().join(format!("dap-ckpt-warn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.ckpt");
        std::fs::write(&path, "{\"key\":\"torn\n").unwrap();
        let manifest = CheckpointManifest::open(&path).unwrap();
        assert_eq!(manifest.parse_errors(), 1);

        let config = SystemConfig::sectored_dram_cache(2);
        let mixes = vec![rate_mix(spec("libquantum").unwrap(), 2)];
        let alone = AloneIpcCache::new();
        let executor = ParallelExecutor::new(1);
        for kind in [PolicyKind::Baseline, PolicyKind::Dap] {
            let grid = Grid::new(&[(&config, kind)], &mixes, 2_000, &alone)
                .executor(&executor)
                .checkpoint(&manifest)
                .run();
            assert!(grid.is_complete(), "{:?}", grid.errors);
        }
        assert_eq!(lock_unpoisoned(&manifest.inner).parse_warnings, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cell_keys_separate_configs_policies_and_faults() {
        use mem_sim::{FaultSchedule, FaultTarget};
        use workloads::{rate_mix, spec};

        let mix = rate_mix(spec("libquantum").unwrap(), 2);
        let base = SystemConfig::sectored_dram_cache(2);
        let faulted = SystemConfig::sectored_dram_cache(2)
            .with_faults(FaultSchedule::new(1).throttle(FaultTarget::Cache, 2, 1, 0, 1_000));
        let keys = [
            cell_key(&base, PolicyKind::Dap, &mix, 10_000),
            cell_key(&base, PolicyKind::Baseline, &mix, 10_000),
            cell_key(&base, PolicyKind::Dap, &mix, 20_000),
            cell_key(&faulted, PolicyKind::Dap, &mix, 10_000),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                assert_eq!(a == b, i == j, "keys {i} and {j}: {a} vs {b}");
            }
        }
        assert_eq!(
            cell_key(&base, PolicyKind::Dap, &mix, 10_000),
            keys[0],
            "keys are stable"
        );
    }
}
