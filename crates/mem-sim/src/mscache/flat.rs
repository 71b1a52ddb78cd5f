//! OS-visible flat two-tier memory (the paper's sketched extension).
//!
//! Section II notes the partitioning algorithms "can easily be extended to
//! OS-visible implementations". In an OS-visible system the fast memory is
//! not a cache: each 4 KB page lives in exactly one tier and an epoch-based
//! migrator decides placement. Request steering (FWB/WB/IFRM) does not
//! apply — *placement* is the partitioning mechanism:
//!
//! * [`PlacementGoal::MaximizeFastHits`] — conventional tiering: pack the
//!   hottest pages into the fast tier until it is full, maximizing the
//!   fraction of accesses served fast (the analogue of maximizing hit
//!   rate).
//! * [`PlacementGoal::BandwidthOptimal`] — DAP's Eq. 4 as placement: stop
//!   promoting once the fast tier's share of *accesses* reaches
//!   `B_fast / (B_fast + B_mm)`, deliberately leaving the remaining hot
//!   traffic on the DDR channels so both sources stay busy.
//!
//! Page migrations are charged: 64 block reads from the source tier and 64
//! block writes to the destination, per 4 KB page moved.

use std::collections::{HashMap, HashSet};

use crate::clock::Cycle;
use crate::dram::{DramConfig, DramModule};

/// What the epoch migrator optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementGoal {
    /// Fill the fast tier with the hottest pages (hit-rate thinking).
    MaximizeFastHits,
    /// Stop at the bandwidth-proportional access split (Eq. 4 thinking).
    BandwidthOptimal,
}

/// Blocks per 4 KB page.
const PAGE_BLOCKS: u64 = 64;

/// The flat two-tier memory.
#[derive(Debug)]
pub struct FlatTier {
    fast: DramModule,
    goal: PlacementGoal,
    capacity_pages: usize,
    fast_fraction_target: f64,
    fast_pages: HashSet<u64>,
    counts: HashMap<u64, u32>,
    epoch_accesses: u64,
    epoch_len: u64,
    migrations: u64,
    fast_hits: u64,
    accesses: u64,
}

impl FlatTier {
    /// Creates the tier. `mm_gbps` is the slow tier's bandwidth, used to
    /// compute the bandwidth-optimal access split.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds no complete page.
    pub fn new(
        capacity_bytes: u64,
        dram: DramConfig,
        cpu_mhz: f64,
        goal: PlacementGoal,
        mm_gbps: f64,
    ) -> Self {
        let capacity_pages = (capacity_bytes / (PAGE_BLOCKS * 64)) as usize;
        assert!(capacity_pages > 0, "fast tier must hold at least one page");
        let fast_gbps = dram.peak_gbps();
        Self {
            fast: DramModule::new(dram, cpu_mhz),
            goal,
            capacity_pages,
            fast_fraction_target: fast_gbps / (fast_gbps + mm_gbps),
            fast_pages: HashSet::new(),
            counts: HashMap::new(),
            epoch_accesses: 0,
            epoch_len: 16 * 1024,
            migrations: 0,
            fast_hits: 0,
            accesses: 0,
        }
    }

    /// The placement goal.
    pub fn goal(&self) -> PlacementGoal {
        self.goal
    }

    /// Pages migrated so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Fraction of accesses served by the fast tier so far.
    pub fn fast_access_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.fast_hits as f64 / self.accesses as f64
        }
    }

    /// The fast tier's DRAM module (for CAS statistics).
    pub fn fast_module(&self) -> &DramModule {
        &self.fast
    }

    /// Flushes buffered writes.
    pub fn flush(&mut self, now: Cycle) {
        self.fast.flush_writes(now);
    }

    /// Applies a fault-injection schedule to the fast tier's channels.
    pub fn apply_faults(&mut self, schedule: &crate::faults::FaultSchedule) {
        self.fast
            .apply_faults(schedule, crate::faults::FaultTarget::Cache);
    }

    /// Serves one block access; returns the completion cycle (reads) and
    /// whether the fast tier served it.
    pub fn access(
        &mut self,
        block: u64,
        write: bool,
        now: Cycle,
        mm: &mut DramModule,
    ) -> (Cycle, bool) {
        let page = block / PAGE_BLOCKS;
        *self.counts.entry(page).or_insert(0) += 1;
        self.accesses += 1;
        self.epoch_accesses += 1;
        if self.epoch_accesses >= self.epoch_len {
            self.replan(now, mm);
        }
        if self.fast_pages.contains(&page) {
            self.fast_hits += 1;
            let done = if write {
                self.fast.write_block(block, now);
                now
            } else {
                self.fast.read_block(block, now)
            };
            (done, true)
        } else if write {
            mm.write_block(block, now);
            (now, false)
        } else {
            (mm.read_block(block, now), false)
        }
    }

    /// Epoch boundary: re-place pages according to the goal and charge the
    /// migration traffic.
    fn replan(&mut self, now: Cycle, mm: &mut DramModule) {
        self.epoch_accesses = 0;
        // Only pages with demonstrated reuse are promotion candidates:
        // migrating a once-touched (streaming) page costs 128 block moves
        // for no future benefit.
        const PROMOTE_MIN_COUNT: u32 = 4;
        let mut pages: Vec<(u64, u32)> = self
            .counts
            .iter()
            .filter(|&(_, &c)| c >= PROMOTE_MIN_COUNT)
            .map(|(&p, &c)| (p, c))
            .collect();
        pages.sort_unstable_by_key(|&(p, c)| (std::cmp::Reverse(c), p));
        let total: u64 = self.counts.values().map(|&c| u64::from(c)).sum();
        let mut chosen = 0;
        let mut covered: u64 = 0;
        for &(_, count) in &pages {
            if chosen >= self.capacity_pages {
                break;
            }
            if self.goal == PlacementGoal::BandwidthOptimal
                && total > 0
                && covered as f64 / total as f64 >= self.fast_fraction_target
            {
                break;
            }
            chosen += 1;
            covered += u64::from(count);
        }
        let chosen = &pages[..chosen];
        // Migrations reserve DRAM time, so their order is part of the
        // timing: never take it from a hash map's iteration order. Pages
        // enter the fast tier hottest first (the sorted order above) ...
        for &(page, _) in chosen {
            if !self.fast_pages.contains(&page) {
                self.migrate(page, now, mm, true);
            }
        }
        // ... and leave it (OS-visible: data must move back) by ascending
        // page number.
        let placed: HashSet<u64> = chosen.iter().map(|&(page, _)| page).collect();
        let mut leaving: Vec<u64> = self
            .fast_pages
            .iter()
            .filter(|p| !placed.contains(p))
            .copied()
            .collect();
        leaving.sort_unstable();
        for page in leaving {
            self.migrate(page, now, mm, false);
        }
        self.fast_pages = placed;
        // Age the counters so placement tracks phase changes.
        self.counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
    }

    fn migrate(&mut self, page: u64, now: Cycle, mm: &mut DramModule, into_fast: bool) {
        self.migrations += 1;
        let base = page * PAGE_BLOCKS;
        for i in 0..PAGE_BLOCKS {
            if into_fast {
                mm.read_block(base + i, now);
                self.fast.write_block(base + i, now);
            } else {
                self.fast.read_block(base + i, now);
                mm.write_block(base + i, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm() -> DramModule {
        DramModule::new(DramConfig::ddr4_2400(), 4000.0)
    }

    fn tier(goal: PlacementGoal) -> FlatTier {
        // 4 MB fast tier = 1024 pages of 4 KB.
        FlatTier::new(4 << 20, DramConfig::hbm_102(), 4000.0, goal, 38.4)
    }

    #[test]
    fn cold_accesses_go_to_main_memory() {
        let mut t = tier(PlacementGoal::MaximizeFastHits);
        let mut m = mm();
        let (done, fast) = t.access(0, false, 0, &mut m);
        assert!(done > 0);
        assert!(!fast);
        assert_eq!(t.fast_access_fraction(), 0.0);
        assert_eq!(m.stats().cas_reads, 1);
    }

    #[test]
    fn hot_pages_migrate_into_fast_tier() {
        let mut t = tier(PlacementGoal::MaximizeFastHits);
        let mut m = mm();
        // Hammer a few pages for several epochs so the post-promotion
        // phase dominates the average.
        for i in 0..60_000u64 {
            t.access(i % 256, false, i, &mut m);
        }
        assert!(t.migrations() > 0, "hot pages should have been promoted");
        assert!(
            t.fast_access_fraction() > 0.5,
            "{}",
            t.fast_access_fraction()
        );
    }

    #[test]
    fn bandwidth_optimal_leaves_accesses_on_mm() {
        let run = |goal| {
            let mut t = tier(goal);
            let mut m = mm();
            for i in 0..200_000u64 {
                t.access(i % (64 * 128), false, i * 3, &mut m); // 128 pages, uniform
            }
            t.fast_access_fraction()
        };
        let hits = run(PlacementGoal::MaximizeFastHits);
        let balanced = run(PlacementGoal::BandwidthOptimal);
        assert!(
            hits > 0.9,
            "conventional tiering packs everything fast: {hits}"
        );
        assert!(
            balanced < hits && balanced > 0.4,
            "bandwidth-optimal placement must stop near 0.73: {balanced}"
        );
    }

    #[test]
    fn migrations_charge_both_tiers() {
        let mut t = tier(PlacementGoal::MaximizeFastHits);
        let mut m = mm();
        for i in 0..20_000u64 {
            t.access(i % 64, false, i, &mut m); // one page, hot
        }
        // The page migration wrote 64 blocks into the fast tier.
        t.flush(1 << 20);
        assert!(t.fast_module().stats().cas_writes >= 64);
    }

    #[test]
    fn demotions_move_data_back() {
        let mut t = FlatTier::new(
            64 * 64 * 2, // two pages of capacity
            DramConfig::hbm_102(),
            4000.0,
            PlacementGoal::MaximizeFastHits,
            38.4,
        );
        let mut m = mm();
        // Phase 1: pages 0 and 1 are hot.
        for i in 0..40_000u64 {
            t.access((i % 2) * 64, false, i, &mut m);
        }
        let migrations_before = t.migrations();
        // Phase 2: pages 2 and 3 take over.
        for i in 0..80_000u64 {
            t.access(128 + (i % 2) * 64, false, 40_000 + i, &mut m);
        }
        assert!(
            t.migrations() > migrations_before,
            "phase change must re-place pages"
        );
    }
}
