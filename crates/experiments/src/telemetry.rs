//! Telemetry collected by traced grids, plus run-artifact export.
//!
//! A [`Grid::traced`](crate::grid::Grid::traced) run gives each
//! `(variant, mix)` cell its **own** window-trace recorder — traces are
//! per-run data, and a private recorder per cell keeps the parallel grid
//! deterministic (no cross-thread interleaving can reach a trace). Each
//! *variant* shares one metrics registry across all its mixes and worker
//! threads; that is safe because counter and histogram totals are sums of
//! commutative atomic adds, so the final snapshot is identical at any
//! thread count (`tests/determinism.rs::traced_runs_stay_deterministic`
//! proves it). The result lands in one [`VariantTelemetry`] per variant.
//!
//! Artifact output is controlled by two environment variables read by
//! [`artifact_dir_from_env`]:
//!
//! * `DAP_TELEMETRY=1` — figure binaries emit window-trace artifacts;
//! * `DAP_TELEMETRY_DIR=<dir>` — where (default `target/telemetry`).

use std::path::{Path, PathBuf};

use dap_telemetry::export::{write_window_trace_jsonl, ArtifactError, TraceMeta};
use dap_telemetry::metrics::MetricsSnapshot;
use dap_telemetry::window::WindowTrace;

/// Everything telemetry collected for one grid variant.
#[derive(Debug, Clone)]
pub struct VariantTelemetry {
    /// The variant's display label (policy/architecture).
    pub label: String,
    /// Architecture tag for artifact headers.
    pub arch: &'static str,
    /// Merged subsystem metrics across every mix of this variant.
    pub metrics: MetricsSnapshot,
    /// `(mix name, trace)` per mix, in mix order.
    pub traces: Vec<(String, WindowTrace)>,
    /// Cycle-attribution rollups per mix, in mix order (empty inner
    /// vectors when profiling is disabled).
    pub profiles: Vec<(String, Vec<dap_core::ProfileWindow>)>,
}

/// Where figure binaries write telemetry artifacts, when enabled:
/// `Some(dir)` iff `DAP_TELEMETRY` is set to something other than
/// `0`/`false`/empty (directory from `DAP_TELEMETRY_DIR`, default
/// `target/telemetry`). Also answers `None` under `telemetry-off` —
/// a disabled build would only write empty traces.
pub fn artifact_dir_from_env() -> Option<PathBuf> {
    if !dap_telemetry::enabled() {
        return None;
    }
    let flag = std::env::var("DAP_TELEMETRY").ok()?;
    if flag.is_empty() || flag == "0" || flag.eq_ignore_ascii_case("false") {
        return None;
    }
    Some(
        std::env::var("DAP_TELEMETRY_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/telemetry")),
    )
}

/// Writes one variant's window traces as versioned JSONL artifacts under
/// `dir` (`<dir>/<figure>/<variant>/<mix>.jsonl`), creating directories
/// as needed. Returns the paths written.
///
/// # Errors
///
/// An [`ArtifactError`] naming the offending path if any write fails.
pub fn export_variant_traces(
    dir: &Path,
    figure: &str,
    window_cycles: u32,
    variant: &VariantTelemetry,
) -> Result<Vec<PathBuf>, ArtifactError> {
    let mut written = Vec::new();
    let safe = |s: &str| s.replace(['/', ' '], "-");
    for (mix_name, trace) in &variant.traces {
        if trace.records.is_empty() {
            continue; // non-DAP variants have no controller windows
        }
        let meta = TraceMeta {
            label: format!("{figure}/{}/{mix_name}", variant.label),
            arch: variant.arch.to_string(),
            window_cycles,
        };
        // Mix names contain dots ("astar.BigLakes"), so append the
        // extension rather than `with_extension` (which would truncate
        // at the last dot and collide e.g. soplex.ref with soplex.pds).
        let base = dir.join(safe(figure)).join(safe(&variant.label));
        let jsonl = base.join(format!("{}.jsonl", safe(mix_name)));
        write_window_trace_jsonl(&jsonl, &meta, trace)?;
        written.push(jsonl);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::runner::{AloneIpcCache, PolicyKind};
    use mem_sim::SystemConfig;
    use workloads::{rate_mix, spec};

    const INSTR: u64 = 25_000;

    #[test]
    fn traced_run_matches_untraced_numbers() {
        let config = SystemConfig::sectored_dram_cache(2);
        let mixes = vec![rate_mix(spec("libquantum").unwrap(), 2)];
        let alone = AloneIpcCache::new();
        let variants = [(&config, PolicyKind::Dap)];
        let traced = Grid::new(&variants, &mixes, INSTR, &alone)
            .traced(&["dap"])
            .run();
        let plain = Grid::new(&variants, &mixes, INSTR, &alone).run();
        let (traced_run, plain_run) = (
            traced.runs[0][0].as_ref().unwrap(),
            plain.runs[0][0].as_ref().unwrap(),
        );
        assert_eq!(traced_run.result.stats, plain_run.result.stats);
        assert_eq!(
            traced_run.weighted_speedup.to_bits(),
            plain_run.weighted_speedup.to_bits(),
            "telemetry must not perturb the simulation"
        );
        assert!(plain.telemetry.is_empty(), "untraced grids collect none");
        if dap_telemetry::enabled() {
            assert!(
                !traced.telemetry[0].traces[0].1.records.is_empty(),
                "DAP windows recorded"
            );
            let snap = &traced.telemetry[0].metrics;
            assert!(snap.counters["mem.demand_reads"] > 0);
            assert!(snap.histograms["mem.read_latency"].count > 0);
        }
    }

    #[test]
    fn baseline_runs_trace_no_windows() {
        let config = SystemConfig::sectored_dram_cache(2);
        let mixes = vec![rate_mix(spec("libquantum").unwrap(), 2)];
        let alone = AloneIpcCache::new();
        let traced = Grid::new(&[(&config, PolicyKind::Baseline)], &mixes, INSTR, &alone)
            .traced(&["base"])
            .run();
        assert!(
            traced.telemetry[0].traces[0].1.records.is_empty(),
            "no DAP controller, no windows"
        );
    }

    #[test]
    fn grid_collects_per_variant_telemetry() {
        let config = SystemConfig::sectored_dram_cache(2);
        let mixes = vec![rate_mix(spec("libquantum").unwrap(), 2)];
        let alone = AloneIpcCache::new();
        let grid = Grid::new(
            &[(&config, PolicyKind::Baseline), (&config, PolicyKind::Dap)],
            &mixes,
            INSTR,
            &alone,
        )
        .traced(&["base", "dap"])
        .run();
        assert_eq!(grid.runs.len(), 1);
        assert_eq!(grid.runs[0].len(), 2);
        let telemetry = &grid.telemetry;
        assert_eq!(telemetry.len(), 2);
        assert_eq!(telemetry[0].label, "base");
        assert_eq!(telemetry[1].arch, "sectored");
        assert_eq!(telemetry[1].traces.len(), 1);
        if dap_telemetry::enabled() {
            assert!(!telemetry[1].traces[0].1.records.is_empty());
        }
    }

    #[test]
    fn export_writes_artifacts_under_nested_dirs() {
        if !dap_telemetry::enabled() {
            return;
        }
        let config = SystemConfig::sectored_dram_cache(2);
        let mixes = vec![rate_mix(spec("libquantum").unwrap(), 2)];
        let alone = AloneIpcCache::new();
        let grid = Grid::new(&[(&config, PolicyKind::Dap)], &mixes, INSTR, &alone)
            .traced(&["dap"])
            .run();
        let dir = std::env::temp_dir().join(format!("dap-export-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let written =
            export_variant_traces(&dir, "fig-test", 64, &grid.telemetry[0]).expect("export");
        assert_eq!(written.len(), 1, "one jsonl per traced mix");
        assert!(written[0].exists(), "{} missing", written[0].display());
        let back = dap_telemetry::export::read_window_trace_jsonl(&written[0]).expect("parse back");
        assert_eq!(back.meta.arch, "sectored");
        assert!(!back.trace.records.is_empty());
        assert_eq!((back.parse_errors, back.missing), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
