//! Ablation studies for the design choices DESIGN.md calls out, beyond
//! the paper's own Table I (window size / efficiency):
//!
//! * [`ablation_thread_aware`] — the thread-aware IFRM extension the paper
//!   sketches in Section IV-A, on mixes of latency-sensitive and
//!   bandwidth-hungry threads;
//! * [`ablation_write_batch`] — the DRAM write-batching depth (channel
//!   turnaround amortization vs read-blocking bursts);
//! * [`ablation_prefetch_degree`] — the cores' stride-prefetch degree
//!   (bandwidth demand shaping upstream of DAP).

use mem_sim::dram::{DramConfig, RefreshTiming};
use mem_sim::{CacheKind, SystemConfig};
use workloads::{heterogeneous_mixes, Mix};

use crate::grid::Grid;
use crate::metrics::{geomean, FigureResult, Row};
use crate::runner::{AloneIpcCache, PolicyKind, WorkloadRun};

use crate::figures::sensitive_mixes;

/// Thread-aware IFRM vs plain DAP on the heterogeneous (dissimilar) mixes,
/// where latency-sensitive and bandwidth-hungry threads share the system.
/// Columns: normalized weighted speedup of each variant, and the *minimum*
/// per-core speedup (a fairness floor: thread-aware IFRM protects the
/// latency-sensitive threads' hits).
pub fn ablation_thread_aware(instructions: u64) -> FigureResult {
    let config = SystemConfig::sectored_dram_cache(8);
    let alone = AloneIpcCache::new();
    // The dissimilar mixes are the second half of the heterogeneous set.
    let mixes: Vec<Mix> = heterogeneous_mixes().into_iter().skip(13).take(7).collect();
    let grid = Grid::new(
        &[
            (&config, PolicyKind::Baseline),
            (&config, PolicyKind::Dap),
            (&config, PolicyKind::ThreadAwareDap),
        ],
        &mixes,
        instructions,
        &alone,
    )
    .run()
    .into_result()
    .expect("grid incomplete");
    let rows = mixes
        .iter()
        .zip(&grid)
        .map(|(mix, runs)| {
            let [base, dap, ta] = &runs[..] else {
                unreachable!()
            };
            let floor = |r: &WorkloadRun| {
                r.result
                    .per_core
                    .iter()
                    .zip(&base.result.per_core)
                    .map(|(a, b)| a.ipc() / b.ipc())
                    .fold(f64::INFINITY, f64::min)
            };
            Row::new(
                mix.name.clone(),
                vec![
                    dap.weighted_speedup / base.weighted_speedup,
                    ta.weighted_speedup / base.weighted_speedup,
                    floor(dap),
                    floor(ta),
                ],
            )
        })
        .collect();
    FigureResult {
        id: "Ablation A",
        title: "Thread-aware IFRM vs plain DAP on dissimilar mixes".into(),
        columns: vec![
            "DAP WS".into(),
            "TA-DAP WS".into(),
            "DAP floor".into(),
            "TA floor".into(),
        ],
        rows,
        summary: vec![],
    }
    .with_geomean()
}

/// One sweep point of a "reference vs modified config" ablation: runs
/// (reference baseline, modified baseline, modified DAP) over the first
/// four bandwidth-sensitive mixes and returns the geomean speedups of the
/// modified baseline and modified DAP over the reference baseline.
fn sweep_point(
    reference: &SystemConfig,
    config: &SystemConfig,
    instructions: u64,
    alone: &AloneIpcCache,
) -> (f64, f64) {
    let mixes: Vec<Mix> = sensitive_mixes(8).into_iter().take(4).collect();
    let grid = Grid::new(
        &[
            (reference, PolicyKind::Baseline),
            (config, PolicyKind::Baseline),
            (config, PolicyKind::Dap),
        ],
        &mixes,
        instructions,
        alone,
    )
    .run()
    .into_result()
    .expect("grid incomplete");
    let mut base_ws = Vec::new();
    let mut dap_ws = Vec::new();
    for runs in &grid {
        let [refr, base, dap] = &runs[..] else {
            unreachable!()
        };
        base_ws.push(base.weighted_speedup / refr.weighted_speedup);
        dap_ws.push(dap.weighted_speedup / refr.weighted_speedup);
    }
    (geomean(base_ws), geomean(dap_ws))
}

/// DRAM write-batch depth sweep: 4 / 16 (default) / 64 buffered writes per
/// drain, baseline and DAP geomean speedups over the depth-16 baseline.
pub fn ablation_write_batch(instructions: u64) -> FigureResult {
    let alone = AloneIpcCache::new();
    let reference = SystemConfig::sectored_dram_cache(8);
    let mut rows = Vec::new();
    for batch in [4usize, 16, 64] {
        let mut config = reference.clone();
        config.mm.write_batch = batch;
        if let CacheKind::Sectored { dram, .. } = &mut config.cache {
            let mut d: DramConfig = dram.clone();
            d.write_batch = batch;
            *dram = d;
        }
        let (base, dap) = sweep_point(&reference, &config, instructions, &alone);
        rows.push(Row::new(format!("batch={batch}"), vec![base, dap]));
    }
    FigureResult {
        id: "Ablation B",
        title: "Write-batch depth: baseline and DAP vs the depth-16 baseline".into(),
        columns: vec!["baseline WS".into(), "DAP WS".into()],
        rows,
        summary: vec![],
    }
}

/// DRAM refresh on/off: the presets fold refresh into the bandwidth
/// efficiency `E` (as the paper does); this ablation models it explicitly
/// (JEDEC tREFI/tRFC) on both the cache array and main memory and checks
/// that DAP's benefit survives the extra pressure.
pub fn ablation_refresh(instructions: u64) -> FigureResult {
    let alone = AloneIpcCache::new();
    let reference = SystemConfig::sectored_dram_cache(8);
    let mut rows = Vec::new();
    for enabled in [false, true] {
        let mut config = reference.clone();
        if enabled {
            config.mm = config.mm.with_refresh(RefreshTiming::ddr4());
            if let CacheKind::Sectored { dram, .. } = &mut config.cache {
                *dram = dram.clone().with_refresh(RefreshTiming::ddr4());
            }
        }
        let (base, dap) = sweep_point(&reference, &config, instructions, &alone);
        rows.push(Row::new(
            if enabled { "refresh on" } else { "refresh off" },
            vec![base, dap],
        ));
    }
    FigureResult {
        id: "Ablation E",
        title: "Explicit DRAM refresh: baseline and DAP vs the no-refresh baseline".into(),
        columns: vec!["baseline WS".into(), "DAP WS".into()],
        rows,
        summary: vec![],
    }
}

/// Stride-prefetch degree sweep {0, 2, 4}: how upstream bandwidth demand
/// shaping changes what DAP has to work with.
pub fn ablation_prefetch_degree(instructions: u64) -> FigureResult {
    let alone = AloneIpcCache::new();
    let reference = SystemConfig::sectored_dram_cache(8);
    let mut rows = Vec::new();
    for degree in [0u32, 2, 4] {
        let mut config = reference.clone();
        config.prefetch_degree = degree;
        let (base, dap) = sweep_point(&reference, &config, instructions, &alone);
        rows.push(Row::new(format!("degree={degree}"), vec![base, dap]));
    }
    FigureResult {
        id: "Ablation C",
        title: "Stride-prefetch degree: baseline and DAP vs the degree-2 baseline".into(),
        columns: vec!["baseline WS".into(), "DAP WS".into()],
        rows,
        summary: vec![],
    }
}
