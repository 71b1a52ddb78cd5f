//! The sector directory shared by the sectored DRAM cache and the eDRAM
//! cache: NRU replacement over per-sector block bit vectors, with a
//! one-entry memo of the most recent probe.

use super::sectored::BlockState;
use crate::cache::{Eviction, ReplacementKind, SetAssocCache, Slot};

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

    /// Invalidates every sector of `set`, returning them.
    pub(super) fn invalidate_set(&mut self, set: u64) -> Vec<Eviction<Sector>> {
        self.memo = None;
        self.dir.invalidate_set(set)
    }
}
