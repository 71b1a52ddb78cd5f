//! Fault-injection degradation experiment: does re-solving Eq. 4 against
//! measured bandwidth keep DAP near-optimal when a source degrades?

use mem_sim::{FaultSchedule, FaultTarget, SystemConfig, BLOCK_BYTES};

use crate::exec::CellErrorKind;
use crate::grid::Grid;
use crate::metrics::{FigureResult, Row};
use crate::runner::{AloneIpcCache, PolicyKind, WorkloadRun};

use super::sensitive_mixes;

/// Total bandwidth the run extracted from both sources, in GB/s:
/// every CAS on either bus moves one block, over the run's wall time.
pub fn delivered_gbps(run: &WorkloadRun, cpu_ghz: f64) -> f64 {
    let cycles = run
        .result
        .per_core
        .iter()
        .map(|c| c.cycles)
        .max()
        .unwrap_or(0)
        .max(1);
    let bytes = (run.result.stats.ms_cas + run.result.stats.mm_cas) as f64 * BLOCK_BYTES as f64;
    bytes * cpu_ghz / cycles as f64
}

/// The fault scenarios the figure sweeps, with the degradation starting a
/// quarter of the way into the run (`start` in CPU cycles) so most of the
/// measured window is degraded.
fn scenarios(start: u64) -> Vec<(&'static str, Option<FaultSchedule>)> {
    vec![
        ("healthy", None),
        (
            "hbm-half",
            Some(FaultSchedule::new(11).throttle(FaultTarget::Cache, 2, 1, start, u64::MAX)),
        ),
        (
            "hbm-quarter",
            Some(FaultSchedule::new(12).throttle(FaultTarget::Cache, 4, 1, start, u64::MAX)),
        ),
        (
            "hbm-ch-outage",
            Some(
                FaultSchedule::new(13)
                    .channel_outage(FaultTarget::Cache, 0, start, u64::MAX)
                    .channel_outage(FaultTarget::Cache, 1, start, u64::MAX),
            ),
        ),
        (
            "mm-half",
            Some(FaultSchedule::new(14).throttle(FaultTarget::MainMemory, 2, 1, start, u64::MAX)),
        ),
    ]
}

/// Fault-degradation figure: total delivered bandwidth (GB/s, mean over
/// the bandwidth-sensitive mixes) for no partitioning, static-Eq.4 DAP,
/// and measured-bandwidth DAP, per fault scenario — plus the ratio of
/// measured over static DAP and the number of measured-bandwidth budget
/// re-solves. Unlike the other figures, a failed cell only drops its mix
/// from the scenario's mean (with a warning) instead of aborting.
pub fn fig_fault_degradation(instructions: u64) -> FigureResult {
    let alone = AloneIpcCache::new();
    let mixes = sensitive_mixes(8);
    let cpu_ghz = SystemConfig::sectored_dram_cache(8).cpu_ghz();
    let mut rows = Vec::new();
    for (name, schedule) in scenarios(instructions / 4) {
        let mut config = SystemConfig::sectored_dram_cache(8);
        if let Some(schedule) = schedule {
            config = config.with_faults(schedule);
        }
        let grid = Grid::new(
            &[
                (&config, PolicyKind::Baseline),
                (&config, PolicyKind::Dap),
                (&config, PolicyKind::DapMeasured),
            ],
            &mixes,
            instructions,
            &alone,
        )
        .run();
        let cancelled = grid.cancelled();
        for error in &grid.errors {
            // A cancelled grid is expected to be incomplete; only genuine
            // failures deserve per-cell warnings.
            if error.kind != CellErrorKind::Cancelled {
                eprintln!("warning: {error}");
            }
        }
        let mut sums = [0.0f64; 3];
        let mut counted = 0usize;
        let mut resolves = 0u64;
        for runs in &grid.runs {
            let [Some(base), Some(dap), Some(measured)] = &runs[..] else {
                continue;
            };
            sums[0] += delivered_gbps(base, cpu_ghz);
            sums[1] += delivered_gbps(dap, cpu_ghz);
            sums[2] += delivered_gbps(measured, cpu_ghz);
            resolves += measured
                .result
                .dap_decisions
                .map_or(0, |d| d.bandwidth_resolves);
            counted += 1;
        }
        let n = counted.max(1) as f64;
        rows.push(Row::new(
            name.to_string(),
            vec![
                sums[0] / n,
                sums[1] / n,
                sums[2] / n,
                sums[2] / sums[1].max(f64::MIN_POSITIVE),
                resolves as f64,
            ],
        ));
        if cancelled {
            // Stop starting new scenarios: finished cells are in the
            // checkpoint manifest, and `DAP_RESUME` picks up from here.
            eprintln!("fig_fault_degradation: cancelled after scenario {name}; partial figure");
            break;
        }
    }
    FigureResult {
        id: "Fig. F",
        title: "Delivered bandwidth under injected faults: static Eq. 4 vs measured-bandwidth DAP"
            .into(),
        columns: vec![
            "no-DAP GB/s".into(),
            "static DAP GB/s".into(),
            "measured DAP GB/s".into(),
            "measured/static".into(),
            "resolves".into(),
        ],
        rows,
        summary: vec![],
    }
}
