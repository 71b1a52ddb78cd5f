//! Comparisons and architecture generalization: Fig. 11 (related
//! proposals), Fig. 12 (all 44 workloads), Fig. 14 (Alloy cache),
//! Fig. 15 (eDRAM cache).

use mem_sim::{CacheKind, SystemConfig};
use workloads::all_44_workloads;

use crate::grid::Grid;
use crate::metrics::{FigureResult, Row};
use crate::runner::{AloneIpcCache, PolicyKind};

use super::sensitive_mixes;

/// Fig. 11: SBD, SBD-WT, and BATMAN against DAP, all normalized to the
/// optimized baseline, on the sectored DRAM cache.
pub fn fig11_related_proposals(instructions: u64) -> FigureResult {
    let config = SystemConfig::sectored_dram_cache(8);
    let alone = AloneIpcCache::new();
    let mixes = sensitive_mixes(8);
    let grid = Grid::new(
        &[
            (&config, PolicyKind::Baseline),
            (&config, PolicyKind::Sbd),
            (&config, PolicyKind::SbdWt),
            (&config, PolicyKind::Batman),
            (&config, PolicyKind::Dap),
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
            // invariant: the variant list above is non-empty and fixed,
            // so every grid row has a baseline plus rivals.
            let (base, rivals) = runs.split_first().expect("five runs per mix");
            let values = rivals
                .iter()
                .map(|r| r.weighted_speedup / base.weighted_speedup)
                .collect();
            Row::new(mix.name.clone(), values)
        })
        .collect();
    FigureResult {
        id: "Fig. 11",
        title: "Related proposals vs DAP (normalized weighted speedup)".into(),
        columns: vec!["SBD".into(), "SBD-WT".into(), "BATMAN".into(), "DAP".into()],
        rows,
        summary: vec![],
    }
    .with_geomean()
}

/// Fig. 12: DAP across all 44 workloads — twelve bandwidth-sensitive
/// rate-8 mixes, five bandwidth-insensitive rate-8 mixes, and the 27
/// heterogeneous mixes.
pub fn fig12_all_workloads(instructions: u64) -> FigureResult {
    let config = SystemConfig::sectored_dram_cache(8);
    let alone = AloneIpcCache::new();
    let mixes = all_44_workloads(8);
    let grid = Grid::new(
        &[(&config, PolicyKind::Baseline), (&config, PolicyKind::Dap)],
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
            let [base, dap] = &runs[..] else {
                unreachable!()
            };
            Row::new(
                mix.name.clone(),
                vec![dap.weighted_speedup / base.weighted_speedup],
            )
        })
        .collect();
    FigureResult {
        id: "Fig. 12",
        title: "DAP across all 44 workloads (normalized weighted speedup)".into(),
        columns: vec!["norm. WS".into()],
        rows,
        summary: vec![],
    }
    .with_geomean()
}

/// Fig. 14: the Alloy cache — BEAR and DAP, each normalized to the plain
/// Alloy baseline, plus the main-memory CAS fraction for all three
/// (the paper's optimal for Alloy's 2/3-effective bandwidth is 0.36).
pub fn fig14_alloy(instructions: u64) -> FigureResult {
    let alloy = SystemConfig::alloy_cache(8);
    let mut alloy_bear = alloy.clone();
    if let CacheKind::Alloy { bear, .. } = &mut alloy_bear.cache {
        *bear = true;
    }
    let alone = AloneIpcCache::new();
    let mixes = sensitive_mixes(8);
    // DAP's Alloy design builds on the BEAR presence bits + DBC.
    let grid = Grid::new(
        &[
            (&alloy, PolicyKind::Baseline),
            (&alloy_bear, PolicyKind::Baseline),
            (&alloy_bear, PolicyKind::Dap),
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
            let [base, bear, dap] = &runs[..] else {
                unreachable!()
            };
            Row::new(
                mix.name.clone(),
                vec![
                    bear.weighted_speedup / base.weighted_speedup,
                    dap.weighted_speedup / base.weighted_speedup,
                    base.result.stats.mm_cas_fraction(),
                    bear.result.stats.mm_cas_fraction(),
                    dap.result.stats.mm_cas_fraction(),
                ],
            )
        })
        .collect();
    FigureResult {
        id: "Fig. 14",
        title: "Alloy cache: BEAR and Alloy+DAP speedups; main-memory CAS fractions".into(),
        columns: vec![
            "BEAR WS".into(),
            "DAP WS".into(),
            "MM CAS base".into(),
            "MM CAS BEAR".into(),
            "MM CAS DAP".into(),
        ],
        rows,
        summary: vec![],
    }
    .with_geomean()
}

/// Fig. 15: the eDRAM cache — DAP on 256 MB, baseline 512 MB, and DAP on
/// 512 MB, all normalized to the 256 MB baseline, plus each system's hit
/// rate *change* versus the 256 MB baseline (percentage points).
pub fn fig15_edram(instructions: u64) -> FigureResult {
    let small = SystemConfig::edram_cache(8, 256);
    let large = SystemConfig::edram_cache(8, 512);
    let alone = AloneIpcCache::new();
    let mixes = sensitive_mixes(8);
    let grid = Grid::new(
        &[
            (&small, PolicyKind::Baseline),
            (&small, PolicyKind::Dap),
            (&large, PolicyKind::Baseline),
            (&large, PolicyKind::Dap),
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
            let [base, dap_small, base_large, dap_large] = &runs[..] else {
                unreachable!()
            };
            let h0 = base.result.stats.ms_hit_ratio();
            Row::new(
                mix.name.clone(),
                vec![
                    dap_small.weighted_speedup / base.weighted_speedup,
                    base_large.weighted_speedup / base.weighted_speedup,
                    dap_large.weighted_speedup / base.weighted_speedup,
                    (dap_small.result.stats.ms_hit_ratio() - h0) * 100.0,
                    (base_large.result.stats.ms_hit_ratio() - h0) * 100.0,
                    (dap_large.result.stats.ms_hit_ratio() - h0) * 100.0,
                ],
            )
        })
        .collect();
    FigureResult {
        id: "Fig. 15",
        title: "eDRAM cache: DAP at 256/512 MB vs the 256 MB baseline; hit-rate change (pp)".into(),
        columns: vec![
            "256MB DAP WS".into(),
            "512MB base WS".into(),
            "512MB DAP WS".into(),
            "256MB DAP dHit".into(),
            "512MB base dHit".into(),
            "512MB DAP dHit".into(),
        ],
        rows,
        summary: vec![],
    }
    .with_mean()
}
