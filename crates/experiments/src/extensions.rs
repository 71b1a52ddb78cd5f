//! Extensions beyond the paper's evaluation.
//!
//! [`os_visible_tiering`] realizes the claim of Section II that the
//! partitioning algorithms "can easily be extended to OS-visible
//! implementations": with the fast memory exposed as flat, OS-managed
//! capacity, Eq. 4 becomes a *placement* rule — stop promoting hot pages
//! once the fast tier's share of accesses reaches the bandwidth-optimal
//! fraction, instead of packing it full.

use mem_sim::mscache::PlacementGoal;
use mem_sim::SystemConfig;

use crate::figures::sensitive_mixes;
use crate::grid::Grid;
use crate::metrics::{FigureResult, Row};
use crate::runner::{AloneIpcCache, PolicyKind};

/// OS-visible tiering: conventional hot-page packing vs bandwidth-optimal
/// placement, both normalized to the conventional system, plus the
/// cache-mode DAP system for reference.
pub fn os_visible_tiering(instructions: u64) -> FigureResult {
    let hits = SystemConfig::flat_tier(8, PlacementGoal::MaximizeFastHits);
    let balanced = SystemConfig::flat_tier(8, PlacementGoal::BandwidthOptimal);
    let cache_mode = SystemConfig::sectored_dram_cache(8);
    let alone = AloneIpcCache::new();
    let mixes = sensitive_mixes(8);
    let grid = Grid::new(
        &[
            (&hits, PolicyKind::Baseline),
            (&balanced, PolicyKind::Baseline),
            (&cache_mode, PolicyKind::Baseline),
            (&cache_mode, PolicyKind::Dap),
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
            let [base, bal, cache_base, cache_dap] = &runs[..] else {
                unreachable!()
            };
            Row::new(
                mix.name.clone(),
                vec![
                    bal.weighted_speedup / base.weighted_speedup,
                    cache_dap.weighted_speedup / cache_base.weighted_speedup,
                    base.result.stats.ms_hit_ratio(),
                    bal.result.stats.ms_hit_ratio(),
                ],
            )
        })
        .collect();
    FigureResult {
        id: "Extension D",
        title: "OS-visible tiering: bandwidth-optimal placement vs hot-page packing \
                (cache-mode DAP shown for reference)"
            .into(),
        columns: vec![
            "balanced WS".into(),
            "cache DAP WS".into(),
            "fast frac (hits)".into(),
            "fast frac (bal)".into(),
        ],
        rows,
        summary: vec![],
    }
    .with_geomean()
}
