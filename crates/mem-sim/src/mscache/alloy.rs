//! Alloy cache: direct-mapped DRAM cache with fused tag-and-data (TAD).
//!
//! Every lookup reads one 72-byte TAD from the DRAM array — three channel
//! cycles of which only two move useful data, so the cache trades bandwidth
//! for hit latency. This model includes:
//!
//! * a PC-indexed hit/miss predictor that launches the main-memory read
//!   early on predicted misses (as in the original Alloy proposal),
//! * BEAR's presence-bit optimization (writes known to hit skip the TAD
//!   fetch) and a BEAR-style fill bypass that avoids evicting blocks which
//!   have demonstrated reuse,
//! * hooks for the [`DirtyBitCache`] that gates DAP's forced read misses.

use super::dbc::DirtyBitCache;
use super::sectored::BlockState;
use crate::cache::{Eviction, ReplacementKind, SetAssocCache};
use crate::clock::Cycle;
use crate::dram::{DramConfig, DramModule};
use crate::BLOCK_BYTES;

/// Per-line payload: demand hits observed since the block was filled
/// (reuse evidence for the BEAR-style fill bypass).
type Reuse = u8;

/// The Alloy cache.
#[derive(Debug, Clone)]
pub struct AlloyCache {
    dir: SetAssocCache<Reuse>,
    dram: DramModule,
    dbc: DirtyBitCache,
    predictor: Vec<u8>,
    bear: bool,
}

impl AlloyCache {
    /// Creates an Alloy cache of `capacity_bytes` (direct-mapped 64-byte
    /// TADs). `bear` enables the BEAR optimizations.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a power of two of at least one block.
    pub fn new(capacity_bytes: u64, dram: DramConfig, cpu_mhz: f64, bear: bool) -> Self {
        assert!(capacity_bytes.is_power_of_two() && capacity_bytes >= BLOCK_BYTES);
        let sets = capacity_bytes / BLOCK_BYTES;
        // The DBC scales with capacity: 32K entries against the paper's
        // 64M-set 4 GB Alloy cache = sets / 2048.
        let dbc_entries = (sets / 2048).next_power_of_two().max(256);
        Self {
            dir: SetAssocCache::new(sets, 1, ReplacementKind::Lru),
            dram: DramModule::new(dram, cpu_mhz),
            dbc: DirtyBitCache::new(dbc_entries, 4, 5),
            predictor: vec![2u8; 4096],
            bear,
        }
    }

    /// Whether BEAR optimizations are active.
    pub fn bear_enabled(&self) -> bool {
        self.bear
    }

    /// Number of direct-mapped sets.
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

    /// The direct-mapped set index of a block.
    pub fn set_of(&self, block: u64) -> u64 {
        block % self.dir.sets()
    }

    /// Estimated queueing delay at the cache array.
    pub fn estimated_wait(&self, block: u64, now: Cycle) -> Cycle {
        self.dram.estimated_wait(block, now)
    }

    /// Presence/dirtiness of a block (directory oracle; the hardware learns
    /// this from the TAD or the presence bit).
    pub fn state(&self, block: u64) -> BlockState {
        // One tag scan: presence and dirtiness from the same slot.
        match self.dir.peek_slot(block) {
            None => BlockState::Miss,
            Some(slot) if self.dir.slot_is_dirty(slot) => BlockState::DirtyHit,
            Some(_) => BlockState::CleanHit,
        }
    }

    /// Probes the DBC for the block's set (5-cycle SRAM structure):
    /// `Some(false)` = known clean, `Some(true)` = dirty, `None` = unknown.
    pub fn probe_dbc(&mut self, block: u64) -> Option<bool> {
        let set = self.set_of(block);
        self.dbc.probe(set)
    }

    /// DBC lookup latency.
    pub fn dbc_latency(&self) -> Cycle {
        self.dbc.latency()
    }

    /// Predicts whether a read from `pc` will hit.
    pub fn predict_hit(&self, pc: u64) -> bool {
        self.predictor[(pc as usize) % self.predictor.len()] >= 2
    }

    /// Trains the hit/miss predictor with an observed outcome.
    pub fn train_predictor(&mut self, pc: u64, hit: bool) {
        let idx = (pc as usize) % self.predictor.len();
        let c = &mut self.predictor[idx];
        if hit {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Reads the TAD for `block`; returns the completion cycle and marks
    /// reuse on a hit.
    pub fn read_tad(&mut self, block: u64, now: Cycle) -> Cycle {
        // One tag scan: the counted/touching lookup also hands back the
        // slot whose reuse counter the hit must bump.
        if let Some(slot) = self.dir.lookup_slot(block) {
            let reuse = self.dir.slot_payload_mut(slot);
            *reuse = reuse.saturating_add(1);
        }
        self.dram.read_tad(block, now)
    }

    /// BEAR fill bypass: a fill is allowed unless the slot's current
    /// occupant has demonstrated reuse (filling would evict a useful
    /// block). Always allows the fill when BEAR is disabled.
    pub fn bear_allow_fill(&self, block: u64) -> bool {
        if !self.bear {
            return true;
        }
        // Peek at whatever currently occupies this block's direct-mapped
        // slot; if that occupant has demonstrated reuse, keep it.
        self.dir
            .peek_set(block)
            .next()
            .is_none_or(|(_, _, &reuse)| reuse == 0)
    }

    /// Writes `block` into its slot (fill when `dirty` is false, demand
    /// write when true). Returns the evicted victim if a *different* block
    /// occupied the slot; dirty victims must be written to main memory by
    /// the caller (their data arrived with the TAD fetch, so no extra cache
    /// CAS is charged).
    pub fn install(&mut self, block: u64, now: Cycle, dirty: bool) -> Option<Eviction<Reuse>> {
        let set = self.set_of(block);
        // The insert hands back the filled slot, so the post-insert dirty
        // state (sticky across a same-block replace) needs no re-scan.
        let (ev, slot) = self.dir.insert_slot(block, 0, dirty);
        if self.dir.slot_is_dirty(slot) {
            self.dbc.mark_dirty(set);
        } else {
            self.dbc.mark_clean(set);
        }
        self.dram.write_block(block, now);
        ev
    }

    /// Marks a resident block dirty (write hit served in place).
    pub fn mark_dirty(&mut self, block: u64, now: Cycle) -> bool {
        if self.dir.mark_dirty(block) {
            let set = self.set_of(block);
            self.dbc.mark_dirty(set);
            self.dram.write_block(block, now);
            true
        } else {
            false
        }
    }

    /// Marks a resident block clean (Alloy write-through mirrored the data
    /// to main memory).
    pub fn mark_clean_after_write_through(&mut self, block: u64) {
        // In-place equivalent of the old invalidate-and-reinsert pair
        // (exact for the direct-mapped directory, where the reinsert can
        // only land in the line's own way): reset the reuse payload,
        // clear the dirty bit, and touch replacement state as the insert
        // would have.
        if let Some(slot) = self.dir.peek_slot(block) {
            *self.dir.slot_payload_mut(slot) = 0;
            self.dir.clear_dirty_slot(slot);
            self.dir.touch_slot(slot);
            self.dbc.mark_clean(self.set_of(block));
        }
    }

    /// Invalidates a block (unused by Alloy DAP — write bypass would cost a
    /// TAD access — but needed by generality tests).
    pub fn invalidate(&mut self, block: u64) -> bool {
        self.dir.invalidate(block).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> AlloyCache {
        // 1 MB direct-mapped: 16384 sets.
        AlloyCache::new(1 << 20, DramConfig::hbm_102(), 4000.0, true)
    }

    #[test]
    fn install_then_hit() {
        let mut c = cache();
        assert_eq!(c.state(5), BlockState::Miss);
        assert!(c.install(5, 0, false).is_none());
        assert_eq!(c.state(5), BlockState::CleanHit);
    }

    #[test]
    fn conflicting_install_evicts() {
        let mut c = cache();
        let sets = c.sets();
        c.install(5, 0, true);
        let ev = c
            .install(5 + sets, 0, false)
            .expect("direct-mapped conflict");
        assert_eq!(ev.key, 5);
        assert!(ev.dirty);
        assert_eq!(c.state(5), BlockState::Miss);
    }

    #[test]
    fn dbc_tracks_dirtiness() {
        let mut c = cache();
        c.install(5, 0, true);
        assert_eq!(c.probe_dbc(5), Some(true));
        c.mark_clean_after_write_through(5);
        assert_eq!(c.probe_dbc(5), Some(false));
        assert_eq!(c.state(5), BlockState::CleanHit);
    }

    #[test]
    fn predictor_learns_misses() {
        let mut c = cache();
        let pc = 0x400123;
        assert!(c.predict_hit(pc), "optimistic initial state");
        c.train_predictor(pc, false);
        c.train_predictor(pc, false);
        assert!(!c.predict_hit(pc));
        c.train_predictor(pc, true);
        c.train_predictor(pc, true);
        assert!(c.predict_hit(pc));
    }

    #[test]
    fn bear_bypasses_fill_over_reused_occupant() {
        let mut c = cache();
        c.install(5, 0, false);
        assert!(c.bear_allow_fill(5), "no reuse yet");
        let _ = c.read_tad(5, 0); // reuse observed
        assert!(!c.bear_allow_fill(5), "occupant has reuse; bypass the fill");
    }

    #[test]
    fn bear_disabled_always_fills() {
        let mut c = AlloyCache::new(1 << 20, DramConfig::hbm_102(), 4000.0, false);
        c.install(5, 0, false);
        let _ = c.read_tad(5, 0);
        assert!(c.bear_allow_fill(5));
    }

    #[test]
    fn tad_read_occupies_more_bus_than_block_read() {
        // Bus occupancy = spacing of back-to-back same-row reads: a plain
        // block burst is 10 CPU cycles on HBM, a 72-byte TAD is 15.
        let mut c = cache();
        let a = c.read_tad(64, 0);
        let b = c.read_tad(64, 0);
        assert_eq!(b - a, 15);
        let mut plain = DramModule::new(DramConfig::hbm_102(), 4000.0);
        let a = plain.read_block(64, 0);
        let b = plain.read_block(64, 0);
        assert_eq!(b - a, 10);
    }

    #[test]
    fn mark_dirty_requires_residency() {
        let mut c = cache();
        assert!(!c.mark_dirty(42, 0));
        c.install(42, 0, false);
        assert!(c.mark_dirty(42, 0));
        assert_eq!(c.state(42), BlockState::DirtyHit);
    }
}
