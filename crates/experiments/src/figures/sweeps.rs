//! Sensitivity sweeps: Fig. 9 (main-memory technology), Fig. 10 (cache
//! capacity and bandwidth), Fig. 13 (16-core scaling).

use mem_sim::dram::DramConfig;
use mem_sim::{CacheKind, SystemConfig, CAPACITY_SCALE};

use crate::grid::Grid;
use crate::metrics::{FigureResult, Row};
use crate::runner::{AloneIpcCache, PolicyKind};

use super::sensitive_mixes;

fn dap_over_baseline(config: &SystemConfig, instructions: u64, alone: &AloneIpcCache) -> Vec<Row> {
    let mixes = sensitive_mixes(config.cores);
    let grid = Grid::new(
        &[(config, PolicyKind::Baseline), (config, PolicyKind::Dap)],
        &mixes,
        instructions,
        alone,
    )
    .run()
    .into_result()
    .expect("grid incomplete");
    mixes
        .iter()
        .zip(&grid)
        .map(|(mix, runs)| {
            let [base, dap] = &runs[..] else {
                unreachable!()
            };
            Row::new(
                mix.name.clone(),
                vec![dap.weighted_speedup / base.weighted_speedup],
            )
        })
        .collect()
}

/// Fig. 9: DAP speedup under four main-memory technologies — default
/// DDR4-2400, DDR4-2400 without I/O latency, LPDDR4-2400 (same bandwidth,
/// ~70% higher latency), and DDR4-3200 (higher bandwidth).
pub fn fig09_mm_technology(instructions: u64) -> FigureResult {
    let memories = [
        DramConfig::ddr4_2400(),
        DramConfig::ddr4_2400_no_io(),
        DramConfig::lpddr4_2400(),
        DramConfig::ddr4_3200(),
    ];
    let alone = AloneIpcCache::new();
    let mut columns = Vec::new();
    let mut per_memory_rows: Vec<Vec<Row>> = Vec::new();
    for mm in memories {
        columns.push(mm.name.to_string());
        let config = SystemConfig::sectored_dram_cache(8).with_mm(mm);
        per_memory_rows.push(dap_over_baseline(&config, instructions, &alone));
    }
    let rows = merge_columns(per_memory_rows);
    FigureResult {
        id: "Fig. 9",
        title: "DAP speedup vs main-memory latency and bandwidth".into(),
        columns,
        rows,
        summary: vec![],
    }
    .with_geomean()
}

/// Fig. 10: DAP speedup as the memory-side cache capacity varies over
/// {2, 4, 8} GB (at 102.4 GB/s) and its bandwidth over {102.4, 128,
/// 204.8} GB/s (at 4 GB).
pub fn fig10_capacity_bandwidth(instructions: u64) -> FigureResult {
    let alone = AloneIpcCache::new();
    let mut columns = Vec::new();
    let mut groups: Vec<Vec<Row>> = Vec::new();

    for capacity_gb in [2u64, 4, 8] {
        columns.push(format!("{capacity_gb} GB"));
        let mut config = SystemConfig::sectored_dram_cache(8);
        if let CacheKind::Sectored { capacity_bytes, .. } = &mut config.cache {
            *capacity_bytes = (capacity_gb << 30) / CAPACITY_SCALE;
        }
        groups.push(dap_over_baseline(&config, instructions, &alone));
    }
    for dram in [
        DramConfig::hbm_102(),
        DramConfig::hbm_128(),
        DramConfig::hbm_204(),
    ] {
        columns.push(format!("{:.1} GB/s", dram.peak_gbps()));
        let mut config = SystemConfig::sectored_dram_cache(8);
        if let CacheKind::Sectored { dram: d, .. } = &mut config.cache {
            *d = dram;
        }
        groups.push(dap_over_baseline(&config, instructions, &alone));
    }
    let rows = merge_columns(groups);
    FigureResult {
        id: "Fig. 10",
        title: "DAP speedup vs memory-side cache capacity and bandwidth".into(),
        columns,
        rows,
        summary: vec![],
    }
    .with_geomean()
}

/// Fig. 13: DAP on a sixteen-core system — 16 MB L3, 8 GB / 204.8 GB/s
/// memory-side cache, dual-channel DDR4-3200 (51.2 GB/s).
pub fn fig13_sixteen_cores(instructions: u64) -> FigureResult {
    let mut config = SystemConfig::sectored_dram_cache(16)
        .with_mm(DramConfig::ddr4_3200())
        .with_l3_sets(4096);
    if let CacheKind::Sectored {
        capacity_bytes,
        dram,
        ..
    } = &mut config.cache
    {
        *capacity_bytes = (8u64 << 30) / CAPACITY_SCALE;
        *dram = DramConfig::hbm_204();
    }
    let alone = AloneIpcCache::new();
    let rows = dap_over_baseline(&config, instructions, &alone);
    FigureResult {
        id: "Fig. 13",
        title: "DAP speedup on a 16-core system (rate-16)".into(),
        columns: vec!["norm. WS".into()],
        rows,
        summary: vec![],
    }
    .with_geomean()
}

/// Zips single-column row groups into one multi-column row set.
fn merge_columns(groups: Vec<Vec<Row>>) -> Vec<Row> {
    let mut iter = groups.into_iter();
    let mut rows = iter.next().unwrap_or_default();
    for group in iter {
        for (row, extra) in rows.iter_mut().zip(group) {
            debug_assert_eq!(row.name, extra.name);
            row.values.extend(extra.values);
        }
    }
    rows
}
