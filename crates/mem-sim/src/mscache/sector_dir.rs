//! The sector directory shared by the sectored DRAM cache and the eDRAM
//! cache: NRU replacement over per-sector block bit vectors, with a
//! one-entry memo of the most recent probe, and the [`SectorFill`] a
//! demand-miss allocation hands back to the routing layer.

use super::sectored::BlockState;
use crate::cache::{Eviction, ReplacementKind, SetAssocCache, Slot};
use crate::prefetch::FootprintPredictor;

/// The block traffic one sector allocation implies, as two block masks.
/// Both iterate their blocks in ascending address order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectorFill {
    /// Dirty blocks of the evicted victim sector, which must be read out
    /// of the array and written to main memory (empty if nothing was
    /// evicted).
    pub victim_dirty: SectorBlocks,
    /// Blocks of the allocated sector the footprint predictor wants
    /// fetched from main memory and filled (includes the demanded block).
    pub fetch: SectorBlocks,
}

/// A set of blocks within one sector: the sector's first block plus a
/// bit mask over its blocks (bit `i` is block `base + i`). Iterates the
/// selected block addresses, lowest first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectorBlocks {
    base: u64,
    mask: u64,
}

impl SectorBlocks {
    /// The blocks `mask` selects in `sector`, for sectors of
    /// `blocks_per_sector` (a power of two, 1..=64) blocks; mask bits past
    /// the sector's end are dropped.
    pub(super) fn new(sector: u64, mask: u64, blocks_per_sector: u32) -> Self {
        Self {
            base: sector << blocks_per_sector.trailing_zeros(),
            mask: mask & (u64::MAX >> (64 - blocks_per_sector)),
        }
    }
}

impl Iterator for SectorBlocks {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.mask == 0 {
            return None;
        }
        let i = self.mask.trailing_zeros();
        self.mask &= self.mask - 1;
        Some(self.base + u64::from(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.mask.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SectorBlocks {}

/// Per-sector payload: valid/dirty bits plus the footprint observed during
/// this residency.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Sector {
    pub(super) valid: u64,
    pub(super) dirty: u64,
    pub(super) used: u64,
}

/// A sector directory with a one-entry memo of the most recent probe, so
/// the probe → state → data sequence of a single access resolves the
/// directory once. The memo is dropped whenever directory lines move
/// (sector allocation, set flush); peeks and in-place payload updates
/// keep slots stable.
#[derive(Debug, Clone)]
pub(super) struct SectorDirectory {
    dir: SetAssocCache<Sector>,
    memo: Option<(u64, Slot)>,
}

impl SectorDirectory {
    /// An empty NRU directory of `sets x ways` sectors.
    pub(super) fn new(sets: u64, ways: usize) -> Self {
        Self {
            dir: SetAssocCache::new(sets, ways, ReplacementKind::Nru),
            memo: None,
        }
    }

    /// Number of sets.
    pub(super) fn sets(&self) -> u64 {
        self.dir.sets()
    }

    /// The memoized slot for `sector`, if the last probe resolved it.
    #[inline]
    fn memo_slot(&self, sector: u64) -> Option<Slot> {
        match self.memo {
            Some((s, slot)) if s == sector => Some(slot),
            _ => None,
        }
    }

    /// Touches `sector` for replacement (a counted lookup) and remembers
    /// its slot on a hit, so the rest of this access skips the tag scan.
    pub(super) fn touch(&mut self, sector: u64) {
        self.memo = self.dir.lookup_slot(sector).map(|slot| (sector, slot));
    }

    /// Whether `sector` is resident.
    pub(super) fn contains(&self, sector: u64) -> bool {
        self.memo_slot(sector).is_some() || self.dir.contains(sector)
    }

    /// Presence state of block `off` of `sector`.
    pub(super) fn state(&self, sector: u64, off: u32) -> BlockState {
        let payload = match self.memo_slot(sector) {
            Some(slot) => Some(self.dir.slot_payload(slot)),
            None => self.dir.peek(sector),
        };
        match payload {
            Some(s) if s.valid >> off & 1 == 1 => {
                if s.dirty >> off & 1 == 1 {
                    BlockState::DirtyHit
                } else {
                    BlockState::CleanHit
                }
            }
            _ => BlockState::Miss,
        }
    }

    /// Mutable access to a resident sector's payload, consulting and
    /// refreshing the memo (no replacement-state or counter side effects).
    pub(super) fn sector_mut(&mut self, sector: u64) -> Option<&mut Sector> {
        let slot = match self.memo_slot(sector) {
            Some(slot) => slot,
            None => {
                let slot = self.dir.peek_slot(sector)?;
                self.memo = Some((sector, slot));
                slot
            }
        };
        Some(self.dir.slot_payload_mut(slot))
    }

    /// Allocates an empty, clean `sector`, returning the victim it evicts.
    pub(super) fn insert(&mut self, sector: u64) -> Option<Eviction<Sector>> {
        self.memo = None;
        self.dir.insert(sector, Sector::default(), false)
    }

    /// Allocates `sector` for a demand miss to its block `off`: asks
    /// `footprint` which blocks to fetch, inserts the sector empty and
    /// clean, and trains `footprint` with the evicted victim's use.
    pub(super) fn allocate(
        &mut self,
        footprint: &mut FootprintPredictor,
        sector: u64,
        off: u32,
        blocks_per_sector: u32,
    ) -> SectorFill {
        let predicted = footprint.predict(sector, off);
        let victim_dirty = match self.insert(sector) {
            Some(ev) => {
                footprint.record(ev.key, ev.payload.used);
                SectorBlocks::new(ev.key, ev.payload.dirty, blocks_per_sector)
            }
            None => SectorBlocks::default(),
        };
        SectorFill {
            victim_dirty,
            fetch: SectorBlocks::new(sector, predicted, blocks_per_sector),
        }
    }

    /// Invalidates every sector of `set`, returning them.
    pub(super) fn invalidate_set(&mut self, set: u64) -> Vec<Eviction<Sector>> {
        self.memo = None;
        self.dir.invalidate_set(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_core::splitmix;

    /// The allocation as it was computed before block masks: footprint
    /// prediction, insertion, victim training, then two `Vec`s built by
    /// walking the sector's offsets in ascending order.
    fn allocate_as_vecs(
        dir: &mut SectorDirectory,
        footprint: &mut FootprintPredictor,
        sector: u64,
        off: u32,
        blocks_per_sector: u32,
    ) -> (Vec<u64>, Vec<u64>) {
        let shift = blocks_per_sector.trailing_zeros();
        let predicted = footprint.predict(sector, off);
        let mut victim_dirty_blocks = Vec::new();
        if let Some(ev) = dir.insert(sector) {
            footprint.record(ev.key, ev.payload.used);
            let base = ev.key << shift;
            for i in 0..blocks_per_sector {
                if ev.payload.dirty >> i & 1 == 1 {
                    victim_dirty_blocks.push(base + u64::from(i));
                }
            }
        }
        let mut fetch_blocks = Vec::new();
        let base = sector << shift;
        for i in 0..blocks_per_sector {
            if predicted >> i & 1 == 1 {
                fetch_blocks.push(base + u64::from(i));
            }
        }
        (victim_dirty_blocks, fetch_blocks)
    }

    /// Drives a mask-based and a `Vec`-based directory through the same
    /// seeded allocations and payload updates; every fill must list the
    /// same blocks in the same order.
    fn check_against_vecs(blocks_per_sector: u32, seed: u64) {
        let (sets, ways) = (8u64, 4usize);
        let mut masks = (
            SectorDirectory::new(sets, ways),
            FootprintPredictor::new(64, blocks_per_sector),
        );
        let mut vecs = masks.clone();
        let mut state = seed;
        let mut victims = 0;
        for step in 0..4_000 {
            let r = splitmix::next(&mut state);
            let sector = r % (sets * ways as u64 * 3);
            let off = (r >> 20) as u32 % blocks_per_sector;
            if masks.0.contains(sector) {
                // Mark some blocks of a resident sector used and dirty;
                // every fourth update dirties the whole sector.
                let bits = if step % 4 == 0 {
                    u64::MAX
                } else {
                    splitmix::next(&mut state)
                };
                let valid = bits & (u64::MAX >> (64 - blocks_per_sector));
                for (dir, _) in [&mut masks, &mut vecs] {
                    let s = dir.sector_mut(sector).expect("resident in both");
                    s.valid |= valid;
                    s.dirty |= valid & (bits >> 7 | bits);
                    s.used |= valid >> 1;
                }
                continue;
            }
            let fill = masks
                .0
                .allocate(&mut masks.1, sector, off, blocks_per_sector);
            let (victim, fetch) =
                allocate_as_vecs(&mut vecs.0, &mut vecs.1, sector, off, blocks_per_sector);
            assert_eq!(fill.victim_dirty.collect::<Vec<_>>(), victim, "step {step}");
            assert_eq!(fill.fetch.collect::<Vec<_>>(), fetch, "step {step}");
            assert_eq!(fill.victim_dirty.len(), victim.len());
            assert_eq!(fill.fetch.len(), fetch.len());
            victims += usize::from(!victim.is_empty());
        }
        assert!(victims > 100, "only {victims} dirty victims exercised");
        assert_eq!(masks.1.counts(), vecs.1.counts());
    }

    #[test]
    fn fills_match_the_vec_allocation_for_every_sector_size() {
        // 64-byte, 1 KB (eDRAM), 2 KB and 4 KB (stacked DRAM, 64 blocks).
        for (blocks, seed) in [(1, 11), (16, 12), (32, 13), (64, 14)] {
            check_against_vecs(blocks, seed);
        }
    }

    #[test]
    fn full_dirty_victim_of_a_64_block_sector_yields_every_block() {
        let mut dir = SectorDirectory::new(1, 1);
        let mut footprint = FootprintPredictor::new(64, 64);
        let first = dir.allocate(&mut footprint, 5, 0, 64);
        assert_eq!(first.victim_dirty.len(), 0);
        assert_eq!(first.fetch.collect::<Vec<_>>(), vec![5 << 6]);
        let s = dir.sector_mut(5).unwrap();
        s.valid = u64::MAX;
        s.dirty = u64::MAX;
        s.used = u64::MAX;
        let fill = dir.allocate(&mut footprint, 9, 63, 64);
        assert_eq!(fill.victim_dirty, SectorBlocks::new(5, u64::MAX, 64));
        assert_eq!(
            fill.victim_dirty.collect::<Vec<_>>(),
            ((5 << 6)..(6 << 6)).collect::<Vec<_>>()
        );
        assert_eq!(fill.fetch.collect::<Vec<_>>(), vec![(9 << 6) + 63]);
        // The victim's full footprint trains the predictor.
        assert_eq!(
            dir.allocate(&mut footprint, 5, 3, 64).fetch.len(),
            64,
            "re-allocation replays the whole footprint"
        );
    }

    #[test]
    fn mask_bits_past_the_sector_are_dropped() {
        let blocks = SectorBlocks::new(3, u64::MAX, 16);
        assert_eq!((blocks.base, blocks.mask), (48, 0xFFFF));
        assert_eq!(blocks.collect::<Vec<_>>(), (48..64).collect::<Vec<_>>());
        assert_eq!(SectorBlocks::new(7, 0b10, 1).count(), 0);
    }
}
