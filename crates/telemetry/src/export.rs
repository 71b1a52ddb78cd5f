//! Versioned run artifacts: the JSONL window trace, its writer and its
//! reader.
//!
//! Artifact layout (schema `dap-window-trace`, version [`SCHEMA_VERSION`]):
//! the first line is a header object carrying the schema name, version,
//! run metadata ([`TraceMeta`]), and retention counts; every following
//! line is one window record. It streams and `grep`s well, and the
//! in-tree [`crate::json`] parser reads it back losslessly (fraction
//! floats are printed shortest-round-trip).
//!
//! Writers create missing parent directories and report the offending
//! path on failure ([`ArtifactError`]) rather than a bare `io::Error`.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use dap_core::{SourceFractions, TechniqueCounts, WindowSnapshot, WindowStats};

use crate::json::{obj, parse, Json};
use crate::window::WindowTrace;

/// Name of the window-trace artifact schema.
pub const SCHEMA_NAME: &str = "dap-window-trace";

/// Version of the artifact schema. Bump when a field is added, removed,
/// or reinterpreted; parsers reject mismatching versions.
pub const SCHEMA_VERSION: u32 = 1;

/// Run-identifying metadata stored in every artifact header.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Human-chosen run label (e.g. `"dap/mix04"`).
    pub label: String,
    /// Cache architecture the controller ran (`"sectored"`, `"alloy"`,
    /// `"edram"`).
    pub arch: String,
    /// Window length `W` in CPU cycles.
    pub window_cycles: u32,
}

/// A failure to write or read a run artifact, carrying the path involved.
#[derive(Debug)]
pub enum ArtifactError {
    /// An I/O operation on `path` failed.
    Io {
        /// What was being attempted (e.g. `"create directory"`, `"write"`).
        action: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The contents of `path` did not match the schema.
    Parse {
        /// The file being parsed.
        path: PathBuf,
        /// One-based line number of the offending record.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io {
                action,
                path,
                source,
            } => write!(f, "failed to {action} `{}`: {source}", path.display()),
            ArtifactError::Parse {
                path,
                line,
                message,
            } => write!(f, "`{}` line {line}: {message}", path.display()),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io { source, .. } => Some(source),
            ArtifactError::Parse { .. } => None,
        }
    }
}

fn io_err<'a>(
    action: &'static str,
    path: &'a Path,
) -> impl FnOnce(io::Error) -> ArtifactError + 'a {
    move |source| ArtifactError::Io {
        action,
        path: path.to_path_buf(),
        source,
    }
}

/// Creates `path`'s parent directory (and ancestors) if missing.
///
/// # Errors
///
/// Returns an [`ArtifactError::Io`] naming the directory on failure.
fn ensure_parent_dir(path: &Path) -> Result<(), ArtifactError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(io_err("create directory", parent))?;
        }
    }
    Ok(())
}

fn fraction_array(values: &[f64], sources: usize) -> Json {
    Json::Arr(values.iter().take(sources).map(|&v| Json::Num(v)).collect())
}

fn technique_json(counts: &TechniqueCounts) -> Json {
    obj([
        ("fwb", Json::Num(f64::from(counts.fwb))),
        ("wb", Json::Num(f64::from(counts.wb))),
        ("ifrm", Json::Num(f64::from(counts.ifrm))),
        ("sfrm", Json::Num(f64::from(counts.sfrm))),
        ("wt", Json::Num(f64::from(counts.write_through))),
    ])
}

fn window_json(snapshot: &WindowSnapshot) -> Json {
    let sources = usize::from(snapshot.fractions.sources);
    obj([
        ("window", Json::Num(snapshot.window_index as f64)),
        ("end_cycle", Json::Num(snapshot.end_cycle as f64)),
        ("partitioned", Json::Bool(snapshot.partitioned)),
        (
            "stats",
            obj([
                ("cache", Json::Num(f64::from(snapshot.stats.cache_accesses))),
                (
                    "cache_r",
                    Json::Num(f64::from(snapshot.stats.cache_read_accesses)),
                ),
                (
                    "cache_w",
                    Json::Num(f64::from(snapshot.stats.cache_write_accesses)),
                ),
                ("mm", Json::Num(f64::from(snapshot.stats.mm_accesses))),
                ("rm", Json::Num(f64::from(snapshot.stats.read_misses))),
                ("wm", Json::Num(f64::from(snapshot.stats.writes))),
                ("crh", Json::Num(f64::from(snapshot.stats.clean_read_hits))),
            ]),
        ),
        ("granted", technique_json(&snapshot.granted)),
        ("applied", technique_json(&snapshot.applied)),
        ("sources", Json::Num(f64::from(snapshot.fractions.sources))),
        (
            "solved",
            fraction_array(&snapshot.fractions.solved, sources),
        ),
        ("ideal", fraction_array(&snapshot.fractions.ideal, sources)),
    ])
}

/// Serializes one window snapshot as a single compact JSON line (no
/// trailing newline). Used for both the JSONL artifact body and the
/// recorder's spill writer, so spilled and retained records share one
/// format.
pub(crate) fn window_jsonl_line(snapshot: &WindowSnapshot) -> String {
    window_json(snapshot).to_string_compact()
}

fn need_u64(value: &Json, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn need_u32(value: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(need_u64(value, key)?).map_err(|_| format!("field `{key}` exceeds u32"))
}

fn technique_from_json(value: &Json) -> Result<TechniqueCounts, String> {
    Ok(TechniqueCounts {
        fwb: need_u32(value, "fwb")?,
        wb: need_u32(value, "wb")?,
        ifrm: need_u32(value, "ifrm")?,
        sfrm: need_u32(value, "sfrm")?,
        write_through: need_u32(value, "wt")?,
    })
}

fn fractions_from_json(value: &Json, key: &str, sources: u8) -> Result<[f64; 3], String> {
    let arr = value
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field `{key}`"))?;
    if arr.len() != usize::from(sources) {
        return Err(format!(
            "`{key}` has {} entries, expected {sources}",
            arr.len()
        ));
    }
    let mut out = [0.0f64; 3];
    for (slot, item) in out.iter_mut().zip(arr.iter()) {
        *slot = item
            .as_f64()
            .ok_or_else(|| format!("non-numeric entry in `{key}`"))?;
    }
    Ok(out)
}

/// Parses one JSONL window line back into a snapshot.
///
/// # Errors
///
/// Returns a description of the first missing or ill-typed field.
fn window_from_jsonl_line(line: &str) -> Result<WindowSnapshot, String> {
    let value = parse(line)?;
    let stats = value.get("stats").ok_or("missing object field `stats`")?;
    let sources =
        u8::try_from(need_u64(&value, "sources")?).map_err(|_| "field `sources` exceeds u8")?;
    if !(2..=3).contains(&sources) {
        return Err(format!("`sources` must be 2 or 3, got {sources}"));
    }
    Ok(WindowSnapshot {
        window_index: need_u64(&value, "window")?,
        end_cycle: need_u64(&value, "end_cycle")?,
        partitioned: value
            .get("partitioned")
            .and_then(Json::as_bool)
            .ok_or("missing boolean field `partitioned`")?,
        stats: WindowStats {
            cache_accesses: need_u32(stats, "cache")?,
            cache_read_accesses: need_u32(stats, "cache_r")?,
            cache_write_accesses: need_u32(stats, "cache_w")?,
            mm_accesses: need_u32(stats, "mm")?,
            read_misses: need_u32(stats, "rm")?,
            writes: need_u32(stats, "wm")?,
            clean_read_hits: need_u32(stats, "crh")?,
        },
        granted: technique_from_json(
            value
                .get("granted")
                .ok_or("missing object field `granted`")?,
        )?,
        applied: technique_from_json(
            value
                .get("applied")
                .ok_or("missing object field `applied`")?,
        )?,
        fractions: SourceFractions {
            sources,
            solved: fractions_from_json(&value, "solved", sources)?,
            ideal: fractions_from_json(&value, "ideal", sources)?,
        },
    })
}

fn header_json(meta: &TraceMeta, trace: &WindowTrace) -> Json {
    obj([
        ("schema", Json::Str(SCHEMA_NAME.to_string())),
        ("version", Json::Num(f64::from(SCHEMA_VERSION))),
        ("label", Json::Str(meta.label.clone())),
        ("arch", Json::Str(meta.arch.clone())),
        ("window_cycles", Json::Num(f64::from(meta.window_cycles))),
        ("windows", Json::Num(trace.records.len() as f64)),
        ("spilled", Json::Num(trace.spilled as f64)),
        ("dropped", Json::Num(trace.dropped as f64)),
    ])
}

/// Renders a full JSONL artifact (header line + one line per window).
fn window_trace_jsonl(meta: &TraceMeta, trace: &WindowTrace) -> String {
    let mut out = header_json(meta, trace).to_string_compact();
    out.push('\n');
    for record in &trace.records {
        out.push_str(&window_jsonl_line(record));
        out.push('\n');
    }
    out
}

/// Writes the JSONL artifact to `path`, creating parent directories.
///
/// # Errors
///
/// Returns an [`ArtifactError`] naming the path that failed.
pub fn write_window_trace_jsonl(
    path: &Path,
    meta: &TraceMeta,
    trace: &WindowTrace,
) -> Result<(), ArtifactError> {
    ensure_parent_dir(path)?;
    fs::write(path, window_trace_jsonl(meta, trace)).map_err(io_err("write", path))
}

/// A window trace read back from its artifact: every record that parsed,
/// and a count of the records that could not be recovered.
#[derive(Debug, Clone)]
pub struct RecoveredWindowTrace {
    /// The artifact's run metadata.
    pub meta: TraceMeta,
    /// Every record that parsed, in file order.
    pub trace: WindowTrace,
    /// Record lines that were corrupt or truncated and were skipped.
    pub parse_errors: u64,
    /// Records the header's `windows` count declares that the file holds
    /// neither as a record nor as a skipped line: a copy cut at a line
    /// boundary loses these.
    pub missing: u64,
}

/// Reads a JSONL artifact back, validating the schema header.
///
/// A crashed or `kill -9`'d run leaves a truncated final line; a partial
/// copy or disk fault can corrupt lines anywhere or cut the file short.
/// That must cost those records, not the whole artifact: every record
/// line that fails to parse is skipped and counted in
/// [`RecoveredWindowTrace::parse_errors`], and the shortfall against the
/// header's declared window count is counted in
/// [`RecoveredWindowTrace::missing`]. The header itself must still parse:
/// without a valid schema line nothing identifies the file as a window
/// trace.
///
/// # Errors
///
/// Returns an [`ArtifactError`] only for I/O failures or an unreadable /
/// mismatching schema header, naming the path and line 1.
pub fn read_window_trace_jsonl(path: &Path) -> Result<RecoveredWindowTrace, ArtifactError> {
    let text = fs::read_to_string(path).map_err(io_err("read", path))?;
    let header_err = |message: String| ArtifactError::Parse {
        path: path.to_path_buf(),
        line: 1,
        message,
    };
    let mut lines = text.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| header_err("empty artifact".to_string()))?;
    let header = parse(header_line).map_err(header_err)?;
    if header.get("schema").and_then(Json::as_str) != Some(SCHEMA_NAME) {
        return Err(header_err(format!("not a {SCHEMA_NAME} artifact")));
    }
    let version = header.get("version").and_then(Json::as_u64);
    if version != Some(u64::from(SCHEMA_VERSION)) {
        return Err(header_err(format!(
            "unsupported schema version {version:?}, expected {SCHEMA_VERSION}"
        )));
    }
    let text_field = |key: &str| {
        header
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let meta = TraceMeta {
        label: text_field("label"),
        arch: text_field("arch"),
        window_cycles: header
            .get("window_cycles")
            .and_then(Json::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| header_err("missing `window_cycles`".to_string()))?,
    };
    let count_field = |key: &str| header.get(key).and_then(Json::as_u64);
    let mut trace = WindowTrace {
        records: Vec::new(),
        spilled: count_field("spilled").unwrap_or(0),
        dropped: count_field("dropped").unwrap_or(0),
    };
    let mut parse_errors = 0u64;
    for line in lines.filter(|line| !line.trim().is_empty()) {
        match window_from_jsonl_line(line) {
            Ok(record) => trace.records.push(record),
            Err(_) => parse_errors += 1,
        }
    }
    let read = trace.records.len() as u64 + parse_errors;
    let missing = count_field("windows").map_or(0, |declared| declared.saturating_sub(read));
    Ok(RecoveredWindowTrace {
        meta,
        trace,
        parse_errors,
        missing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_core::telemetry::sectored_fractions;
    use dap_core::{Ratio, SectoredPlan};

    fn sample_trace() -> (TraceMeta, WindowTrace) {
        let stats = WindowStats {
            cache_accesses: 40,
            mm_accesses: 2,
            read_misses: 6,
            writes: 10,
            clean_read_hits: 12,
            ..Default::default()
        };
        let plan = SectoredPlan {
            n_fwb: 6,
            wb_scaled: 45,
            ifrm_scaled: 30,
            n_sfrm: 2,
            k_plus_one_num: 15,
        };
        let records = (0..5u64)
            .map(|i| WindowSnapshot {
                window_index: i,
                end_cycle: (i + 1) * 64,
                stats,
                partitioned: i % 2 == 0,
                granted: TechniqueCounts {
                    fwb: 6,
                    wb: 3,
                    ifrm: 2,
                    sfrm: 2,
                    write_through: 0,
                },
                applied: TechniqueCounts {
                    fwb: 4,
                    wb: 3,
                    ifrm: 1,
                    sfrm: 0,
                    write_through: 0,
                },
                fractions: sectored_fractions(&stats, &plan, Ratio::new(11, 4)),
            })
            .collect();
        (
            TraceMeta {
                label: "dap/mix00".to_string(),
                arch: "sectored".to_string(),
                window_cycles: 64,
            },
            WindowTrace {
                records,
                spilled: 2,
                dropped: 1,
            },
        )
    }

    #[test]
    fn jsonl_round_trip_is_lossless() {
        let (meta, trace) = sample_trace();
        let dir = std::env::temp_dir().join("dap-telemetry-test-jsonl");
        let path = dir.join("nested/never/created/trace.jsonl");
        let _ = fs::remove_dir_all(&dir);
        write_window_trace_jsonl(&path, &meta, &trace).unwrap();
        let back = read_window_trace_jsonl(&path).unwrap();
        assert_eq!(back.meta, meta);
        assert_eq!(back.trace.records, trace.records);
        assert_eq!(back.trace.spilled, 2);
        assert_eq!(back.trace.dropped, 1);
        assert_eq!((back.parse_errors, back.missing), (0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_rejected_with_path_and_line() {
        let dir = std::env::temp_dir().join("dap-telemetry-test-ver");
        let path = dir.join("trace.jsonl");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            &path,
            "{\"schema\":\"dap-window-trace\",\"version\":99,\"window_cycles\":64}\n",
        )
        .unwrap();
        let err = read_window_trace_jsonl(&path).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("trace.jsonl"), "{text}");
        assert!(text.contains("line 1"), "{text}");
        assert!(text.contains("99"), "{text}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_failure_reports_offending_path() {
        let (meta, trace) = sample_trace();
        // Writing *under* an existing file must fail with that path named.
        let dir = std::env::temp_dir().join("dap-telemetry-test-errpath");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("blocker");
        fs::write(&blocker, "x").unwrap();
        let target = blocker.join("sub/trace.jsonl");
        let err = write_window_trace_jsonl(&target, &meta, &trace).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("blocker"), "path missing from: {text}");
        assert!(std::error::Error::source(&err).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn declared_window_count_is_validated() {
        let (meta, trace) = sample_trace();
        let text = window_trace_jsonl(&meta, &trace);
        let dir = std::env::temp_dir().join("dap-telemetry-test-count");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        // Drop the last record line but keep the header declaring 5.
        let truncated: Vec<&str> = text.lines().take(5).collect();
        fs::write(&path, truncated.join("\n")).unwrap();
        let back = read_window_trace_jsonl(&path).unwrap();
        assert_eq!(back.trace.records, trace.records[..4]);
        assert_eq!(back.parse_errors, 0);
        assert_eq!(back.missing, 1, "the header declares 5 records");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_line_matches_artifact_body_format() {
        let (_, trace) = sample_trace();
        let line = window_jsonl_line(&trace.records[0]);
        let back = window_from_jsonl_line(&line).unwrap();
        assert_eq!(back, trace.records[0]);
    }
}
