//! Sectored (sub-blocked) die-stacked DRAM cache.
//!
//! Allocation unit: a multi-kilobyte *sector* of contiguous 64-byte blocks.
//! Only demanded (plus footprint-predicted) blocks are fetched, so the main
//! memory sees block-grain traffic while the tag store stays small. Sector
//! metadata lives in the cache DRAM itself; an SRAM [`TagCache`] absorbs
//! most metadata reads. Replacement is single-bit NRU, as in the paper.

use super::sector_dir::{SectorBlocks, SectorDirectory, SectorFill};
use super::tag_cache::TagCache;
use crate::clock::Cycle;
use crate::dram::{DramConfig, DramModule};
use crate::prefetch::FootprintPredictor;
use crate::BLOCK_BYTES;

/// Presence/dirtiness of one block in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Block absent (sector absent, or sector present without this block).
    Miss,
    /// Block present and clean.
    CleanHit,
    /// Block present and dirty.
    DirtyHit,
}

/// Outcome of a metadata probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetadataProbe {
    /// Cycle at which the block's hit/miss state is known.
    pub resolved_at: Cycle,
    /// Whether the tag cache (if any) hit.
    pub tag_cache_hit: bool,
    /// Metadata CAS operations this probe cost on the cache DRAM.
    pub metadata_cas: u32,
}

/// The sectored DRAM cache.
#[derive(Debug, Clone)]
pub struct SectoredDramCache {
    dir: SectorDirectory,
    dram: DramModule,
    tag_cache: Option<TagCache>,
    footprint: FootprintPredictor,
    blocks_per_sector: u32,
    sector_shift: u32,
    /// Synthetic address region for metadata blocks, disjoint from data.
    meta_base: u64,
}

impl SectoredDramCache {
    /// Creates a sectored cache.
    ///
    /// * `capacity_bytes` — total data capacity.
    /// * `sector_bytes` — allocation unit (power of two, 512 B .. 4 KB).
    /// * `ways` — associativity.
    /// * `dram` — the cache array's device configuration.
    /// * `with_tag_cache` — model the SRAM tag cache (the optimized
    ///   baseline) or force every probe to DRAM metadata.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not powers of two or the geometry is degenerate.
    pub fn new(
        capacity_bytes: u64,
        sector_bytes: u64,
        ways: usize,
        dram: DramConfig,
        cpu_mhz: f64,
        with_tag_cache: bool,
    ) -> Self {
        assert!(sector_bytes.is_power_of_two() && sector_bytes >= BLOCK_BYTES);
        assert!(
            capacity_bytes.is_power_of_two(),
            "capacity must be a power of two"
        );
        let blocks_per_sector = (sector_bytes / BLOCK_BYTES) as u32;
        assert!(
            blocks_per_sector <= 64,
            "sector footprint must fit a 64-bit vector"
        );
        let sectors = capacity_bytes / sector_bytes;
        let sets = sectors / ways as u64;
        assert!(
            sets > 0,
            "capacity too small for the given sector size and ways"
        );
        // SRAM helper structures scale with capacity so their coverage
        // ratios stay in the paper's regime (32K tag-cache entries against
        // the 1M sectors of a 4 GB cache; our synthetic clones have less
        // sector locality than SPEC, so the tag cache gets 1/16 coverage).
        let tag_entries = (sectors / 8).next_power_of_two().max(512);
        let footprint_entries = (sectors / 16).next_power_of_two().max(1024);
        Self {
            dir: SectorDirectory::new(sets, ways),
            dram: DramModule::new(dram, cpu_mhz),
            tag_cache: with_tag_cache.then(|| TagCache::new(tag_entries, 4, 5)),
            footprint: FootprintPredictor::new(footprint_entries, blocks_per_sector),
            blocks_per_sector,
            sector_shift: blocks_per_sector.trailing_zeros(),
            meta_base: 1 << 44,
        }
    }

    /// Blocks per sector.
    pub fn blocks_per_sector(&self) -> u32 {
        self.blocks_per_sector
    }

    /// Number of directory sets (for BATMAN's set disabling).
    pub fn sets(&self) -> u64 {
        self.dir.sets()
    }

    /// The cache DRAM array (for bandwidth statistics).
    pub fn dram(&self) -> &DramModule {
        &self.dram
    }

    /// Applies a fault-injection schedule to the cache's DRAM channels.
    pub fn apply_faults(&mut self, schedule: &crate::faults::FaultSchedule) {
        self.dram
            .apply_faults(schedule, crate::faults::FaultTarget::Cache);
    }

    /// Flushes buffered DRAM writes (end-of-run accounting).
    pub fn flush(&mut self, now: Cycle) {
        self.dram.flush_writes(now);
    }

    /// The tag cache, if modeled.
    pub fn tag_cache(&self) -> Option<&TagCache> {
        self.tag_cache.as_ref()
    }

    /// Splits a block address into (sector index, offset within sector).
    pub fn sector_of(&self, block: u64) -> (u64, u32) {
        (
            block >> self.sector_shift,
            (block & u64::from(self.blocks_per_sector - 1)) as u32,
        )
    }

    /// Directory set index of a sector.
    pub fn set_of(&self, sector: u64) -> u64 {
        sector % self.dir.sets()
    }

    /// Estimated queueing delay at the cache array.
    pub fn estimated_wait(&self, block: u64, now: Cycle) -> Cycle {
        self.dram.estimated_wait(block, now)
    }

    /// Current presence state of a block (directory only; no timing).
    pub fn state(&self, block: u64) -> BlockState {
        let (sector, off) = self.sector_of(block);
        self.dir.state(sector, off)
    }

    /// Whether the sector containing `block` is resident.
    pub fn sector_present(&self, block: u64) -> bool {
        let (sector, _) = self.sector_of(block);
        self.dir.contains(sector)
    }

    /// Resolves the block's metadata: tag-cache probe, falling back to a
    /// metadata read from the cache DRAM. Marks the directory access for
    /// replacement.
    pub fn probe_metadata(&mut self, block: u64, now: Cycle) -> MetadataProbe {
        let (sector, _) = self.sector_of(block);
        self.dir.touch(sector);
        let meta_block = self.meta_block(sector);
        let writeback_block = self.meta_base + 1;
        match &mut self.tag_cache {
            Some(tc) => {
                let p = tc.probe(sector);
                if p.hit {
                    MetadataProbe {
                        resolved_at: now + tc.latency(),
                        tag_cache_hit: true,
                        metadata_cas: 0,
                    }
                } else {
                    let mut cas = 1u32;
                    let lat = tc.latency();
                    let done = self.dram.read_block(meta_block, now + lat);
                    if p.writeback_needed {
                        self.dram.write_block(writeback_block, now);
                        cas += 1;
                    }
                    MetadataProbe {
                        resolved_at: done,
                        tag_cache_hit: false,
                        metadata_cas: cas,
                    }
                }
            }
            None => {
                let done = self.dram.read_block(meta_block, now);
                MetadataProbe {
                    resolved_at: done,
                    tag_cache_hit: true,
                    metadata_cas: 1,
                }
            }
        }
    }

    fn meta_block(&self, sector: u64) -> u64 {
        self.meta_base + sector
    }

    /// Reads a resident block's data from the cache array; returns the
    /// completion cycle and records footprint usage.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the block is not resident.
    pub fn read_data(&mut self, block: u64, now: Cycle) -> Cycle {
        debug_assert!(
            self.state(block) != BlockState::Miss,
            "read_data needs a resident block"
        );
        let (sector, off) = self.sector_of(block);
        if let Some(s) = self.dir.sector_mut(sector) {
            s.used |= 1 << off;
        }
        self.dram.read_block(block, now)
    }

    /// Writes a block into a *resident* sector (demand write or fill).
    /// Returns false if the sector is absent (caller must allocate or
    /// route the write to main memory).
    pub fn write_data(&mut self, block: u64, now: Cycle, dirty: bool) -> bool {
        let (sector, off) = self.sector_of(block);
        let Some(s) = self.dir.sector_mut(sector) else {
            return false;
        };
        s.valid |= 1 << off;
        if dirty {
            // Demand writes count toward the footprint; clean fills do not
            // (otherwise every filled block would look used and the
            // footprint would grow monotonically).
            s.used |= 1 << off;
            s.dirty |= 1 << off;
        }
        if let Some(tc) = &mut self.tag_cache {
            tc.mark_dirty(sector);
        }
        self.dram.write_block(block, now);
        true
    }

    /// Invalidates one block (write bypass of a resident block).
    pub fn invalidate_block(&mut self, block: u64) {
        let (sector, off) = self.sector_of(block);
        if let Some(s) = self.dir.sector_mut(sector) {
            s.valid &= !(1 << off);
            s.dirty &= !(1 << off);
        }
        if let Some(tc) = &mut self.tag_cache {
            tc.mark_dirty(sector);
        }
    }

    /// Allocates the sector for a demand miss to `block`: picks a victim,
    /// returns the footprint-predicted blocks to fetch and the victim's
    /// dirty blocks to evict. The caller performs the fetches (main-memory
    /// reads + [`Self::write_data`] fills) and eviction traffic.
    pub fn allocate(&mut self, block: u64, _now: Cycle) -> SectorFill {
        let (sector, off) = self.sector_of(block);
        let fill = self
            .dir
            .allocate(&mut self.footprint, sector, off, self.blocks_per_sector);
        if let Some(tc) = &mut self.tag_cache {
            tc.mark_dirty(sector);
        }
        fill
    }

    /// Flushes a directory set (BATMAN's set disabling); returns the dirty
    /// block addresses that must be written to main memory.
    pub fn flush_set(&mut self, set: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for ev in self.dir.invalidate_set(set) {
            self.footprint.record(ev.key, ev.payload.used);
            out.extend(SectorBlocks::new(
                ev.key,
                ev.payload.dirty,
                self.blocks_per_sector,
            ));
        }
        out
    }

    /// Performs the DRAM-side read of an evicted dirty block (the caller
    /// then writes it to main memory). Fire-and-forget for timing.
    pub fn read_for_eviction(&mut self, block: u64, now: Cycle) -> Cycle {
        self.dram.read_block(block, now)
    }

    /// Cleans a sector in place: clears its dirty bits and returns the
    /// blocks that were dirty (the caller reads them from the array and
    /// writes them to main memory). Used by SBD's Dirty List evictions.
    /// Returns no blocks if the sector is absent.
    pub fn clean_sector(&mut self, sector: u64) -> SectorBlocks {
        let blocks = self.blocks_per_sector;
        let Some(s) = self.dir.sector_mut(sector) else {
            return SectorBlocks::default();
        };
        SectorBlocks::new(sector, std::mem::take(&mut s.dirty), blocks)
    }
}

#[cfg(test)]
#[path = "sectored_tests.rs"]
mod tests;
