//! Sectored eDRAM memory-side cache (Section VI-C).
//!
//! Unlike the die-stacked DRAM caches, eDRAM caches keep all metadata in
//! on-die SRAM (eight-cycle lookup, no metadata bandwidth) and expose *two
//! independent channel sets*: reads are served by the read channels while
//! fills and demand writes ride the write channels — so read-miss fills do
//! not steal read bandwidth. Sector size is 1 KB, associativity 16.

use super::sector_dir::{SectorDirectory, SectorFill};
use super::sectored::BlockState;
use crate::clock::Cycle;
use crate::dram::{DramConfig, DramModule};
use crate::prefetch::FootprintPredictor;
use crate::BLOCK_BYTES;

/// The sectored eDRAM cache.
#[derive(Debug, Clone)]
pub struct EdramCache {
    dir: SectorDirectory,
    read_path: DramModule,
    write_path: DramModule,
    footprint: FootprintPredictor,
    blocks_per_sector: u32,
    sector_shift: u32,
    tag_latency: Cycle,
}

impl EdramCache {
    /// Creates an eDRAM cache with the paper's defaults: 1 KB sectors,
    /// 16 ways, eight-cycle on-die tag lookup, separate 51.2 GB/s read and
    /// write channel sets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is not a power of two or is too small for
    /// the geometry.
    pub fn new(capacity_bytes: u64, cpu_mhz: f64) -> Self {
        Self::with_geometry(
            capacity_bytes,
            1024,
            16,
            DramConfig::edram_direction(),
            cpu_mhz,
            8,
        )
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (see [`EdramCache::new`]).
    pub fn with_geometry(
        capacity_bytes: u64,
        sector_bytes: u64,
        ways: usize,
        direction: DramConfig,
        cpu_mhz: f64,
        tag_latency: Cycle,
    ) -> Self {
        assert!(sector_bytes.is_power_of_two() && sector_bytes >= BLOCK_BYTES);
        assert!(capacity_bytes.is_power_of_two());
        let blocks_per_sector = (sector_bytes / BLOCK_BYTES) as u32;
        let sets = capacity_bytes / sector_bytes / ways as u64;
        assert!(
            sets > 0,
            "capacity too small for the given sector size and ways"
        );
        Self {
            dir: SectorDirectory::new(sets, ways),
            read_path: DramModule::new(direction.clone(), cpu_mhz),
            write_path: DramModule::new(direction, cpu_mhz),
            footprint: FootprintPredictor::new(64 * 1024, blocks_per_sector),
            blocks_per_sector,
            sector_shift: blocks_per_sector.trailing_zeros(),
            tag_latency,
        }
    }

    /// Blocks per sector.
    pub fn blocks_per_sector(&self) -> u32 {
        self.blocks_per_sector
    }

    /// On-die tag lookup latency.
    pub fn tag_latency(&self) -> Cycle {
        self.tag_latency
    }

    /// The read-direction channel set (for statistics).
    pub fn read_path(&self) -> &DramModule {
        &self.read_path
    }

    /// The write-direction channel set (for statistics).
    pub fn write_path(&self) -> &DramModule {
        &self.write_path
    }

    /// Flushes buffered writes on both paths.
    pub fn flush(&mut self, now: Cycle) {
        self.read_path.flush_writes(now);
        self.write_path.flush_writes(now);
    }

    /// Applies a fault-injection schedule to both directions' channels
    /// (a cache-targeted channel fault hits the same channel index in
    /// each direction).
    pub fn apply_faults(&mut self, schedule: &crate::faults::FaultSchedule) {
        self.read_path
            .apply_faults(schedule, crate::faults::FaultTarget::Cache);
        self.write_path
            .apply_faults(schedule, crate::faults::FaultTarget::Cache);
    }

    /// Splits a block address into (sector, offset).
    pub fn sector_of(&self, block: u64) -> (u64, u32) {
        (
            block >> self.sector_shift,
            (block & u64::from(self.blocks_per_sector - 1)) as u32,
        )
    }

    /// Estimated queueing delay on the read channels.
    pub fn estimated_read_wait(&self, block: u64, now: Cycle) -> Cycle {
        self.read_path.estimated_wait(block, now)
    }

    /// Whether the sector containing `block` is resident.
    pub fn sector_present(&self, block: u64) -> bool {
        let (sector, _) = self.sector_of(block);
        self.dir.contains(sector)
    }

    /// Presence state of a block (known after the on-die tag lookup).
    pub fn state(&self, block: u64) -> BlockState {
        let (sector, off) = self.sector_of(block);
        self.dir.state(sector, off)
    }

    /// Touches the directory for replacement (call once per demand access).
    pub fn touch(&mut self, block: u64) {
        let (sector, _) = self.sector_of(block);
        self.dir.touch(sector);
    }

    /// Reads a resident block via the read channels.
    pub fn read_data(&mut self, block: u64, now: Cycle) -> Cycle {
        let (sector, off) = self.sector_of(block);
        if let Some(s) = self.dir.sector_mut(sector) {
            s.used |= 1 << off;
        }
        self.read_path.read_block(block, now + self.tag_latency)
    }

    /// Writes a block (fill or demand write) via the write channels into a
    /// resident sector. Returns false if the sector is absent.
    pub fn write_data(&mut self, block: u64, now: Cycle, dirty: bool) -> bool {
        let (sector, off) = self.sector_of(block);
        let Some(s) = self.dir.sector_mut(sector) else {
            return false;
        };
        s.valid |= 1 << off;
        if dirty {
            s.used |= 1 << off;
            s.dirty |= 1 << off;
        }
        self.write_path.write_block(block, now);
        true
    }

    /// Invalidates one block (write bypass).
    pub fn invalidate_block(&mut self, block: u64) {
        let (sector, off) = self.sector_of(block);
        if let Some(s) = self.dir.sector_mut(sector) {
            s.valid &= !(1 << off);
            s.dirty &= !(1 << off);
        }
    }

    /// Allocates a sector for a demand miss; see
    /// [`SectoredDramCache::allocate`](super::SectoredDramCache::allocate).
    /// Fetched blocks fill via the write channels; dirty victim blocks are
    /// read via the read channels and written to main memory.
    pub fn allocate(&mut self, block: u64, _now: Cycle) -> SectorFill {
        let (sector, off) = self.sector_of(block);
        self.dir
            .allocate(&mut self.footprint, sector, off, self.blocks_per_sector)
    }

    /// Reads an evicted dirty block via the read channels.
    pub fn read_for_eviction(&mut self, block: u64, now: Cycle) -> Cycle {
        self.read_path.read_block(block, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> EdramCache {
        EdramCache::new(1 << 20, 4000.0) // 1 MB: 64 sets x 16 ways x 1 KB
    }

    #[test]
    fn geometry() {
        let c = cache();
        assert_eq!(c.blocks_per_sector(), 16);
        assert_eq!(c.tag_latency(), 8);
        let (sector, off) = c.sector_of(16 * 3 + 5);
        assert_eq!((sector, off), (3, 5));
    }

    #[test]
    fn fills_use_write_path_reads_use_read_path() {
        let mut c = cache();
        c.allocate(0, 0);
        c.write_data(0, 0, false);
        c.flush(0);
        assert_eq!(c.write_path().stats().cas_writes, 1);
        assert_eq!(c.read_path().stats().cas_total(), 0);
        let done = c.read_data(0, 100);
        assert!(done > 100);
        assert_eq!(c.read_path().stats().cas_reads, 1);
    }

    #[test]
    fn read_includes_tag_latency() {
        let mut c = cache();
        c.allocate(0, 0);
        c.write_data(0, 0, false);
        let mut reference = DramModule::new(DramConfig::edram_direction(), 4000.0);
        let raw = reference.read_block(0, 1000);
        let with_tags = c.read_data(0, 1000);
        assert_eq!(with_tags, raw + 8);
    }

    #[test]
    fn state_transitions() {
        let mut c = cache();
        assert_eq!(c.state(5), BlockState::Miss);
        c.allocate(5, 0);
        c.write_data(5, 0, false);
        assert_eq!(c.state(5), BlockState::CleanHit);
        c.write_data(5, 0, true);
        assert_eq!(c.state(5), BlockState::DirtyHit);
        c.invalidate_block(5);
        assert_eq!(c.state(5), BlockState::Miss);
    }

    #[test]
    fn eviction_reports_dirty_victims() {
        let mut c = cache();
        let sets = 64u64;
        let base = 2 << 4; // sector 2, set 2
        c.allocate(base, 0);
        c.write_data(base + 1, 0, true);
        let mut dirty = Vec::new();
        // 16 ways: insert 16 conflicting sectors to evict sector 2.
        for k in 1..=16u64 {
            let a = c.allocate((2 + sets * k) << 4, 0);
            dirty.extend(a.victim_dirty);
        }
        assert_eq!(dirty, vec![base + 1]);
    }
}
