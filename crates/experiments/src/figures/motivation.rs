//! Section II / V motivation experiments: Fig. 1, 2, 4, 5.

use dap_core::{read_kernel_bandwidth, BandwidthSource};
use mem_sim::{CacheKind, System, SystemConfig};
use workloads::{all_specs, rate_mix, Mix, ReadKernel};

use crate::exec::CellSpec;
use crate::grid::Grid;
use crate::metrics::{FigureResult, Row};
use crate::runner::{AloneIpcCache, PolicyKind};

use super::{run_all, sensitive_mixes};

/// Simulates the gap-0 read kernel at a target hit rate and reports the
/// delivered bandwidth in GB/s.
fn read_kernel_gbps(config: SystemConfig, warm_bytes: u64, hit: f64, instructions: u64) -> f64 {
    let warm_bytes = warm_bytes.min((instructions * 64 / 4).max(64 * 128));
    let traces: Vec<Box<dyn mem_sim::trace::TraceSource>> = (0..config.cores)
        .map(|i| {
            Box::new(ReadKernel::new(
                0x1000_0000 + (i as u64) * ((1 << 36) + 0x31_1000),
                warm_bytes,
                hit,
                i as u64 + 1,
            )) as Box<dyn mem_sim::trace::TraceSource>
        })
        .collect();
    let cores = config.cores;
    let mut system = System::new(config, traces);
    let r = system.run(instructions);
    // Gap-0 kernel: every instruction moves one 64-byte block.
    let total_bytes = (instructions * cores as u64 * 64) as f64;
    let max_cycles = r.per_core.iter().map(|c| c.cycles).max().unwrap_or(1) as f64;
    total_bytes / (max_cycles / 4e9) / 1e9
}

/// Fig. 1: delivered read bandwidth against memory-side cache hit rate,
/// for the single-bus HBM DRAM cache and the split-channel eDRAM cache.
/// Columns: analytic model (Eq. 2) and simulation, in GB/s.
pub fn fig01_bw_vs_hitrate(instructions: u64) -> FigureResult {
    const HITS: [f64; 6] = [0.0, 0.25, 0.50, 0.70, 0.90, 1.0];
    let hbm = BandwidthSource::from_gbps("HBM", 102.4);
    let ed_r = BandwidthSource::from_gbps("eDRAM-R", 51.2);
    let ed_w = BandwidthSource::from_gbps("eDRAM-W", 51.2);
    let ddr = BandwidthSource::from_gbps("DDR4", 38.4);
    let gbps = |acc_per_s: f64| acc_per_s * 64.0 / 1e9;

    let mut cells = Vec::new();
    for &hit in &HITS {
        // Warm regions sized so eight copies fit their cache with headroom
        // (the paper's kernel assumes the warm set is always resident) while
        // still exceeding each core's shared-L3 slice. The eDRAM kernel uses
        // a larger-capacity part: Fig. 1 studies bandwidth, not capacity.
        cells.push(CellSpec::new(
            format!("read-kernel {hit}/sectored"),
            move || {
                read_kernel_gbps(
                    SystemConfig::sectored_dram_cache(8),
                    3 << 20,
                    hit,
                    instructions,
                )
            },
        ));
        cells.push(CellSpec::new(
            format!("read-kernel {hit}/edram"),
            move || {
                read_kernel_gbps(
                    SystemConfig::edram_cache(8, 2048),
                    1 << 20,
                    hit,
                    instructions,
                )
            },
        ));
    }
    let sims = run_all(cells);

    let rows = HITS
        .iter()
        .zip(sims.chunks(2))
        .map(|(&hit, sim)| {
            let analytic_dram = gbps(read_kernel_bandwidth(&hbm, None, &ddr, hit));
            let analytic_edram = gbps(read_kernel_bandwidth(&ed_r, Some(&ed_w), &ddr, hit));
            Row::new(
                format!("{}%", (hit * 100.0) as u32),
                vec![analytic_dram, sim[0], analytic_edram, sim[1]],
            )
        })
        .collect();
    FigureResult {
        id: "Fig. 1",
        title: "Delivered bandwidth (GB/s) vs memory-side cache hit rate".into(),
        columns: vec![
            "DRAM$ model".into(),
            "DRAM$ sim".into(),
            "eDRAM$ model".into(),
            "eDRAM$ sim".into(),
        ],
        rows,
        summary: vec![],
    }
}

/// Fig. 2: weighted speedup of a 512 MB eDRAM cache normalized to 256 MB,
/// and the drop in miss rate (percentage points), for the twelve
/// bandwidth-sensitive workloads.
pub fn fig02_edram_capacity(instructions: u64) -> FigureResult {
    let small = SystemConfig::edram_cache(8, 256);
    let large = SystemConfig::edram_cache(8, 512);
    let alone = AloneIpcCache::new();
    let mixes = sensitive_mixes(8);
    let grid = Grid::new(
        &[
            (&small, PolicyKind::Baseline),
            (&large, PolicyKind::Baseline),
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
            let [a, b] = &runs[..] else { unreachable!() };
            let ws = b.weighted_speedup / a.weighted_speedup;
            let miss_drop =
                (a.result.stats.ms_hit_ratio() - b.result.stats.ms_hit_ratio()) * -100.0;
            Row::new(mix.name.clone(), vec![ws, miss_drop])
        })
        .collect();
    FigureResult {
        id: "Fig. 2",
        title: "512 MB vs 256 MB eDRAM cache: speedup and miss-rate drop".into(),
        columns: vec!["norm. WS".into(), "miss drop (pp)".into()],
        rows,
        summary: vec![],
    }
    .with_mean()
}

/// Fig. 4: weighted speedup from doubling the DRAM-cache bandwidth
/// (204.8 GB/s vs 102.4 GB/s) and L3 MPKI, for all seventeen benchmarks.
/// Bandwidth-sensitive rows first, as in the paper.
pub fn fig04_bw_sensitivity(instructions: u64) -> FigureResult {
    let base = SystemConfig::sectored_dram_cache(8);
    let mut doubled = base.clone();
    if let CacheKind::Sectored { dram, .. } = &mut doubled.cache {
        *dram = mem_sim::dram::DramConfig::hbm_204();
    }
    let alone = AloneIpcCache::new();
    let mut specs: Vec<_> = all_specs().iter().collect();
    specs.sort_by_key(|s| s.sensitivity == workloads::Sensitivity::BandwidthInsensitive);
    let mixes: Vec<Mix> = specs.iter().map(|&s| rate_mix(s, 8)).collect();
    let grid = Grid::new(
        &[
            (&base, PolicyKind::Baseline),
            (&doubled, PolicyKind::Baseline),
        ],
        &mixes,
        instructions,
        &alone,
    )
    .run()
    .into_result()
    .expect("grid incomplete");
    let rows = specs
        .iter()
        .zip(&grid)
        .map(|(spec, runs)| {
            let [a, b] = &runs[..] else { unreachable!() };
            Row::new(
                spec.name,
                vec![b.weighted_speedup / a.weighted_speedup, a.result.l3_mpki()],
            )
        })
        .collect();
    FigureResult {
        id: "Fig. 4",
        title: "Speedup from doubling DRAM-cache bandwidth; L3 MPKI".into(),
        columns: vec!["norm. WS (2x BW)".into(), "L3 MPKI".into()],
        rows,
        summary: vec![],
    }
    .with_geomean()
}

/// Fig. 5: weighted speedup from adding the 32K-entry SRAM tag cache to
/// the sectored DRAM cache baseline, plus the tag cache's miss ratio.
pub fn fig05_tag_cache(instructions: u64) -> FigureResult {
    let with_tc = SystemConfig::sectored_dram_cache(8);
    let mut without_tc = with_tc.clone();
    if let CacheKind::Sectored { tag_cache, .. } = &mut without_tc.cache {
        *tag_cache = false;
    }
    let alone = AloneIpcCache::new();
    let mixes = sensitive_mixes(8);
    let grid = Grid::new(
        &[
            (&without_tc, PolicyKind::Baseline),
            (&with_tc, PolicyKind::Baseline),
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
            let [a, b] = &runs[..] else { unreachable!() };
            Row::new(
                mix.name.clone(),
                vec![
                    b.weighted_speedup / a.weighted_speedup,
                    b.result.stats.tag_cache_miss_ratio(),
                ],
            )
        })
        .collect();
    FigureResult {
        id: "Fig. 5",
        title: "Tag-cache speedup over no-tag-cache baseline; tag-cache miss ratio".into(),
        columns: vec!["norm. WS".into(), "TC miss ratio".into()],
        rows,
        summary: vec![],
    }
    .with_geomean()
}
