//! The miss-status table in front of the memory subsystem: which blocks
//! have a memory read in flight, and the cycle each one completes.
//!
//! An open-addressing hash table built for exactly that job. Slots are
//! interleaved `(block, completion)` pairs in a power-of-two array, homed
//! by a Fibonacci multiply of the block address and probed linearly; a
//! slot whose block is `u64::MAX` is empty. Block addresses are byte
//! addresses shifted right by the block size, so they stay below 2^58 and
//! never collide with the sentinel.
//!
//! The table keeps exactly the key set a `HashMap<u64, Cycle>` would:
//! an insert of a present block overwrites its completion cycle without
//! growing [`MshrTable::len`], and [`MshrTable::retain`] removes precisely
//! the entries its predicate rejects. The hierarchy's merge behaviour
//! depends on that exactness (see `System::access_l3`), so the table
//! never drops, ages or evicts an entry on its own.
//!
//! The array doubles when an insert pushes the load above 3/4, which
//! allocates the larger array and, while the entries move, a buffer of
//! their count. `retain` re-places its survivors in the same array through
//! a scratch buffer the table keeps, so once the table has reached its
//! working size nothing it does allocates.

use crate::clock::Cycle;

/// Block address of an empty slot.
const EMPTY: u64 = u64::MAX;

/// Slots a new table starts with.
const INITIAL_SLOTS: usize = 1024;

/// Fibonacci hashing multiplier: `⌊2^64 / φ⌋`, odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Outstanding misses keyed by block address; see the module docs.
#[derive(Debug, Clone)]
pub struct MshrTable {
    /// `(block, completion cycle)` pairs; `block == EMPTY` marks a vacancy.
    slots: Vec<(u64, Cycle)>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// Occupied slots.
    len: usize,
    /// Survivors of a `retain`, kept between retains for its capacity.
    scratch: Vec<(u64, Cycle)>,
}

impl Default for MshrTable {
    fn default() -> Self {
        Self::new()
    }
}

impl MshrTable {
    /// An empty table of [`INITIAL_SLOTS`] slots.
    pub fn new() -> Self {
        Self {
            slots: vec![(EMPTY, 0); INITIAL_SLOTS],
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
            len: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of blocks in the table.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no block.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots in the array: a power of two, and at least 4/3 of
    /// [`Self::len`].
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn home(&self, block: u64) -> usize {
        (block.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The completion cycle recorded for `block`, if present.
    #[inline]
    pub fn get(&self, block: u64) -> Option<Cycle> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(block);
        loop {
            let (key, done) = self.slots[i];
            if key == block {
                return Some(done);
            }
            if key == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Records that `block` completes at `done`, overwriting the cycle of
    /// a block already present (which leaves [`Self::len`] unchanged).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `block` is the empty-slot sentinel `u64::MAX`.
    #[inline]
    pub fn insert(&mut self, block: u64, done: Cycle) {
        debug_assert_ne!(block, EMPTY, "u64::MAX marks an empty slot");
        if self.place(block, done) {
            self.len += 1;
            if self.len * 4 > self.slots.len() * 3 {
                self.grow();
            }
        }
    }

    /// Keeps only the entries for which `keep(block, done)` holds,
    /// re-placing the survivors in the same slot array.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, Cycle) -> bool) {
        let mut survivors = std::mem::take(&mut self.scratch);
        survivors.clear();
        survivors.extend(self.entries().filter(|&(block, done)| keep(block, done)));
        self.slots.fill((EMPTY, 0));
        self.refill(&survivors);
        self.scratch = survivors;
    }

    /// Doubles the slot array. The entries wait in a buffer of their exact
    /// count that is freed once they are re-placed, so only survivors of
    /// a `retain` ever occupy the kept scratch buffer.
    fn grow(&mut self) {
        let mut entries = Vec::with_capacity(self.len);
        entries.extend(self.entries());
        let slots = self.slots.len() * 2;
        // Free the old array before allocating the larger one.
        self.slots = Vec::new();
        self.slots = vec![(EMPTY, 0); slots];
        self.shift = 64 - slots.trailing_zeros();
        self.refill(&entries);
    }

    /// The occupied slots, in array order.
    fn entries(&self) -> impl Iterator<Item = (u64, Cycle)> + '_ {
        self.slots
            .iter()
            .copied()
            .filter(|&(block, _)| block != EMPTY)
    }

    /// Places `entries` (distinct blocks) into an emptied slot array.
    fn refill(&mut self, entries: &[(u64, Cycle)]) {
        for &(block, done) in entries {
            self.place(block, done);
        }
        self.len = entries.len();
    }

    /// Writes `(block, done)` into `block`'s slot or the first vacancy of
    /// its probe run; `true` if it took a vacancy (a new block).
    #[inline]
    fn place(&mut self, block: u64, done: Cycle) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = self.home(block);
        loop {
            let slot = &mut self.slots[i];
            if slot.0 == block {
                slot.1 = done;
                return false;
            }
            if slot.0 == EMPTY {
                *slot = (block, done);
                return true;
            }
            i = (i + 1) & mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_overwrites_in_place() {
        let mut t = MshrTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(7), None);
        t.insert(7, 100);
        t.insert(7, 50);
        assert_eq!((t.get(7), t.len()), (Some(50), 1));
    }

    #[test]
    fn grows_past_three_quarters_load_and_keeps_every_entry() {
        let mut t = MshrTable::new();
        let n = INITIAL_SLOTS as u64 * 5;
        for b in 0..n {
            t.insert(b * 3, b);
        }
        assert_eq!(t.len(), n as usize);
        assert!(t.slots.len() * 3 >= t.len() * 4);
        assert!(t.slots.len().is_power_of_two());
        assert!((0..n).all(|b| t.get(b * 3) == Some(b)));
        assert_eq!(t.get(1), None);
    }

    #[test]
    fn retain_rebuilds_in_the_same_array() {
        let mut t = MshrTable::new();
        for b in 0..600 {
            t.insert(b, b);
        }
        let slots = t.slots.len();
        t.retain(|_, done| done % 3 == 0);
        assert_eq!(t.len(), 200);
        assert_eq!(t.slots.len(), slots);
        assert!((0..600).all(|b| t.get(b) == (b % 3 == 0).then_some(b)));
        t.retain(|_, _| false);
        assert!(t.is_empty());
        assert_eq!(t.get(0), None);
    }
}
