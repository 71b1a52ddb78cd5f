//! Opt-in window-trace artifact emission for the figure binaries.
//!
//! Figures print their series to stdout; the machine-readable run
//! artifacts (versioned JSONL window traces, see
//! `dap_telemetry::export`) are opt-in so a plain figure run stays a
//! plain text report. Set `DAP_TELEMETRY=1` to emit them, and
//! `DAP_TELEMETRY_DIR` to choose where (default `target/telemetry`).
//!
//! The traced run is a *companion* grid — a DAP run over the first few
//! bandwidth-sensitive rate mixes on the figure's architecture — rather
//! than an instrumented rerun of the whole figure, so the artifact cost
//! scales with one policy, not the figure's full variant grid.

use experiments::runner::{AloneIpcCache, PolicyKind};
use experiments::telemetry::{artifact_dir_from_env, export_variant_traces};
use experiments::Grid;
use mem_sim::SystemConfig;
use workloads::{bandwidth_sensitive, rate_mix};

/// Mixes in the companion traced grid: enough to show per-window
/// behavior on more than one workload without doubling figure runtime.
const TRACE_MIXES: usize = 2;

/// DAP window length used by the figure grids (`build_policy` default).
const WINDOW_CYCLES: u32 = 64;

/// When `DAP_TELEMETRY` is set (and the build is not `telemetry-off`),
/// runs a traced DAP companion grid on `config` and writes JSONL
/// window-trace artifacts for `figure`, printing the paths and a human
/// summary of the first trace. No-op otherwise.
///
/// Exits with status 1 if an artifact cannot be written, naming the path.
pub fn maybe_emit_window_traces(figure: &str, config: &SystemConfig, instructions: u64) {
    let Some(dir) = artifact_dir_from_env() else {
        return;
    };
    let mixes: Vec<_> = bandwidth_sensitive()
        .into_iter()
        .take(TRACE_MIXES)
        .map(|s| rate_mix(s, config.cores))
        .collect();
    let alone = AloneIpcCache::new();
    let grid = Grid::new(&[(config, PolicyKind::Dap)], &mixes, instructions, &alone)
        .traced(&["dap"])
        .run();
    if let Some(error) = grid.errors.first() {
        panic!("{error}");
    }
    let variant = &grid.telemetry[0];
    match export_variant_traces(&dir, figure, WINDOW_CYCLES, variant) {
        Ok(paths) => {
            println!();
            println!(
                "telemetry: {} window-trace artifacts under {}",
                paths.len(),
                dir.display()
            );
            for path in &paths {
                println!("  {}", path.display());
            }
            if let Some((mix, trace)) = variant.traces.first() {
                let meta = dap_telemetry::TraceMeta {
                    label: format!("{figure}/dap/{mix}"),
                    arch: variant.arch.to_string(),
                    window_cycles: WINDOW_CYCLES,
                };
                println!();
                print!("{}", dap_telemetry::summarize(&meta, trace));
            }
            if let Some((mix, profile)) = variant.profiles.iter().find(|(_, p)| !p.is_empty()) {
                println!();
                println!("cycle attribution ({mix}):");
                print!("{}", dap_telemetry::summarize_profile_windows(profile));
            }
            println!();
            print!("{}", dap_telemetry::summarize_metrics(&variant.metrics));
        }
        Err(e) => {
            eprintln!("telemetry: {e}");
            std::process::exit(1);
        }
    }
}
