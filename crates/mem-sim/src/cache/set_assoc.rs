//! A generic set-associative cache directory.
//!
//! Keys are abstract line indices (block addresses, sector indices, DBC
//! stretch ids, ...). Each line can carry a payload `P` — footprint bit
//! vectors, dirty-bit vectors, tag-cache metadata — which is returned to the
//! caller on eviction so writeback side effects can be modeled.
//!
//! # Layout
//!
//! Each line is one `u64` word: its tag above a valid bit and a dirty bit.
//! A set's words are contiguous (`set * ways + way`), so a probe reads one
//! run of `ways` words — a single host cache line for up to eight ways —
//! and a hit's dirty bit arrives with its tag. Payloads live in a parallel
//! array that is read only when a caller asks for a payload. Replacement
//! state is kept per set, and only where victim selection reads it:
//!
//! * LRU keeps one `u8` recency rank per way (0 = most recently touched),
//!   and the victim is the way ranked `ways - 1`;
//! * NRU keeps one 64-bit reference mask per set;
//! * a one-way set has no choice of victim and keeps no state at all.
//!
//! The simulator's hot loops (L1/L2/L3 probes, the sector directories, the
//! SRAM tag cache, the Alloy directory and DBC) probe these millions of
//! times per second. The large directories miss in the host's caches, so
//! the number of host cache lines a probe touches sets their speed.

use super::replacement::ReplacementKind;

/// Line-word flag: the line holds a key.
const VALID: u64 = 1;
/// Line-word flag: the line is dirty.
const DIRTY: u64 = 2;
/// The tag sits above the two flag bits.
const TAG_SHIFT: u32 = 2;
/// The largest tag a line word can hold.
const MAX_TAG: u64 = u64::MAX >> TAG_SHIFT;

/// Mask with one bit per way of a `ways`-way set (`1..=64` ways).
fn way_mask(ways: usize) -> u64 {
    u64::MAX >> (64 - ways)
}

/// Elements per 4 KB page (at least 1, for oversized `T`).
fn page_stride<T>() -> usize {
    (4096 / std::mem::size_of::<T>().max(1)).max(1)
}

/// Touches one element per page of a zero-filled allocation so its
/// backing pages are faulted in up front (see [`SetAssocCache::new`]).
/// `black_box` keeps the self-assignment from being optimized away.
fn prefault<T: Copy>(v: &mut [T]) {
    for i in (0..v.len()).step_by(page_stride::<T>()) {
        v[i] = std::hint::black_box(v[i]);
    }
}

/// A line evicted by [`SetAssocCache::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction<P> {
    /// The key the evicted line was inserted under.
    pub key: u64,
    /// Whether the line was dirty.
    pub dirty: bool,
    /// The line's payload.
    pub payload: P,
}

/// An opaque handle to a resident line, returned by the slot-returning
/// probe/insert variants so follow-up metadata updates (dirty marking,
/// payload access) skip the repeated tag scan.
///
/// A `Slot` is invalidated by any subsequent `insert`/`invalidate` on the
/// same cache; using a stale slot is a logic error (debug-asserted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(usize);

/// Per-set replacement state, kept only where victim selection reads it.
#[derive(Debug, Clone)]
enum Replacement {
    /// One way per set: that way is always the victim, under either
    /// policy, so nothing is tracked.
    Direct,
    /// Recency rank of each line (`set * ways + way`): 0 for the most
    /// recently touched way, `ways - 1` for the least. Each set's ranks
    /// are a permutation of `0..ways`.
    Lru(Vec<u8>),
    /// NRU reference bits, one 64-bit way mask per set.
    Nru(Vec<u64>),
}

/// A set-associative cache directory with LRU or NRU replacement.
///
/// ```
/// use mem_sim::cache::{ReplacementKind, SetAssocCache};
/// let mut c: SetAssocCache<()> = SetAssocCache::new(4, 2, ReplacementKind::Lru);
/// assert!(c.insert(42, (), false).is_none());
/// assert!(c.lookup(42));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<P> {
    sets: u64,
    /// `log2(sets)` when `sets` is a power of two (the common geometry):
    /// set/tag extraction becomes mask+shift instead of two divisions.
    set_shift: Option<u32>,
    ways: usize,
    /// One word per line (`set * ways + way`):
    /// `tag << TAG_SHIFT | DIRTY | VALID`, zero when invalid.
    lines: Vec<u64>,
    /// Payload of each line.
    payloads: Vec<P>,
    replacement: Replacement,
    hits: u64,
    misses: u64,
}

impl<P: Default + Clone> SetAssocCache<P> {
    /// Creates an empty cache with `sets x ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or `ways` exceeds 64 (NRU
    /// reference bits are tracked in 64-bit masks).
    pub fn new(sets: u64, ways: usize, policy: ReplacementKind) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have at least one line");
        assert!(
            ways <= 64,
            "at most 64 ways: NRU reference bits are 64-bit masks"
        );
        let lines = (sets as usize) * ways;
        let replacement = match policy {
            _ if ways == 1 => Replacement::Direct,
            // Every set starts ranked in way order. Writing every rank
            // faults its pages in, as `prefault` does below.
            ReplacementKind::Lru => {
                Replacement::Lru((0..ways as u8).collect::<Vec<_>>().repeat(sets as usize))
            }
            ReplacementKind::Nru => Replacement::Nru(vec![0; sets as usize]),
        };
        let mut cache = Self {
            sets,
            set_shift: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            ways,
            lines: vec![0; lines],
            payloads: vec![P::default(); lines],
            replacement,
            hits: 0,
            misses: 0,
        };
        // A multi-megabyte directory allocated with `vec![0; n]` maps
        // copy-on-write zero pages; left alone, the page faults land on
        // the first simulated accesses that touch each page — i.e. inside
        // the measured hot loop, where they show up as multi-millisecond
        // warmup noise in short benchmark cells. Touch one element per
        // page now, at construction, where setup cost belongs.
        prefault(&mut cache.lines);
        for i in (0..cache.payloads.len()).step_by(page_stride::<P>()) {
            let line = std::mem::take(&mut cache.payloads[i]);
            cache.payloads[i] = std::hint::black_box(line);
        }
        if let Replacement::Nru(refs) = &mut cache.replacement {
            prefault(refs);
        }
        cache
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Lifetime (hits, misses) counts from `lookup`/`lookup_payload`.
    pub fn hit_miss_counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    #[inline]
    fn split(&self, key: u64) -> (usize, u64) {
        match self.set_shift {
            Some(sh) => ((key & (self.sets - 1)) as usize, key >> sh),
            None => ((key % self.sets) as usize, key / self.sets),
        }
    }

    /// Reconstructs the key of a valid line word in `set`.
    #[inline]
    fn key_of(&self, word: u64, set: usize) -> u64 {
        (word >> TAG_SHIFT) * self.sets + set as u64
    }

    /// The line words of `set`.
    #[inline]
    fn set_lines(&self, set: usize) -> &[u64] {
        &self.lines[set * self.ways..(set + 1) * self.ways]
    }

    /// Finds `key`'s line as `(set, way)`.
    #[inline]
    fn find(&self, key: u64) -> Option<(usize, usize)> {
        let (set, tag) = self.split(key);
        if tag > MAX_TAG {
            // Too wide to have been inserted; shifting it would alias.
            return None;
        }
        let want = tag << TAG_SHIFT | VALID;
        self.set_lines(set)
            .iter()
            .position(|&w| w & !DIRTY == want)
            .map(|way| (set, way))
    }

    /// Updates replacement state for a touch of `way` in `set`. LRU moves
    /// the way to rank 0. NRU sets the way's reference bit, and when every
    /// valid line is referenced clears all bits but the touched line's,
    /// as the paper's single-bit scheme requires.
    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        let ways = self.ways;
        match &mut self.replacement {
            Replacement::Direct => {}
            Replacement::Lru(ranks) => {
                let ranks = &mut ranks[set * ways..(set + 1) * ways];
                let r = ranks[way];
                for rank in ranks.iter_mut() {
                    *rank += u8::from(*rank < r);
                }
                ranks[way] = 0;
            }
            Replacement::Nru(refs) => {
                let bit = 1u64 << way;
                let referenced = refs[set] | bit;
                let lines = &self.lines[set * ways..(set + 1) * ways];
                // Every way is either invalid or referenced: clear the
                // others. Only the unreferenced ways need their valid
                // bit read.
                let mut unref = !referenced & way_mask(ways);
                let mut all_referenced = true;
                while unref != 0 {
                    if lines[unref.trailing_zeros() as usize] & VALID != 0 {
                        all_referenced = false;
                        break;
                    }
                    unref &= unref - 1;
                }
                refs[set] = if all_referenced { bit } else { referenced };
            }
        }
    }

    /// The way to evict from a full `set`.
    fn pick_victim(&self, set: usize) -> usize {
        match &self.replacement {
            Replacement::Direct => 0,
            Replacement::Lru(ranks) => ranks[set * self.ways..(set + 1) * self.ways]
                .iter()
                .position(|&r| usize::from(r) == self.ways - 1)
                .expect("a set's LRU ranks are a permutation of its ways"),
            Replacement::Nru(refs) => {
                let unref = !refs[set] & way_mask(self.ways);
                if unref != 0 {
                    unref.trailing_zeros() as usize
                } else {
                    0
                }
            }
        }
    }

    /// Probes for `key`, updating replacement state and hit/miss counters.
    pub fn lookup(&mut self, key: u64) -> bool {
        self.lookup_slot(key).is_some()
    }

    /// [`Self::lookup`], returning the hit line's [`Slot`] so follow-up
    /// metadata updates skip a second tag scan.
    pub fn lookup_slot(&mut self, key: u64) -> Option<Slot> {
        match self.find(key) {
            Some((set, way)) => {
                self.hits += 1;
                self.touch(set, way);
                Some(Slot(set * self.ways + way))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Probes for `key` and returns mutable access to its payload on a hit.
    pub fn lookup_payload(&mut self, key: u64) -> Option<&mut P> {
        let slot = self.lookup_slot(key)?;
        Some(&mut self.payloads[slot.0])
    }

    /// Checks presence without perturbing replacement state or counters.
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Returns the hit line's [`Slot`] without perturbing replacement
    /// state or counters.
    pub fn peek_slot(&self, key: u64) -> Option<Slot> {
        self.find(key).map(|(set, way)| Slot(set * self.ways + way))
    }

    /// Returns the payload without perturbing replacement state.
    pub fn peek(&self, key: u64) -> Option<&P> {
        self.peek_slot(key).map(|slot| &self.payloads[slot.0])
    }

    /// Returns the payload mutably without perturbing replacement state.
    pub fn peek_mut(&mut self, key: u64) -> Option<&mut P> {
        self.peek_slot(key).map(|slot| &mut self.payloads[slot.0])
    }

    /// Whether the line holding `key` is dirty.
    pub fn is_dirty(&self, key: u64) -> bool {
        self.peek_slot(key)
            .is_some_and(|slot| self.slot_is_dirty(slot))
    }

    /// Marks the line holding `key` dirty; returns `false` if absent.
    pub fn mark_dirty(&mut self, key: u64) -> bool {
        match self.peek_slot(key) {
            Some(slot) => {
                self.mark_dirty_slot(slot);
                true
            }
            None => false,
        }
    }

    /// Debug check that `slot` still names a valid line.
    #[inline]
    fn debug_assert_live(&self, slot: Slot) {
        debug_assert!(self.lines[slot.0] & VALID != 0, "stale slot");
    }

    /// Reads the payload of a line found earlier (via a slot-returning
    /// probe) without a second tag scan.
    pub fn slot_payload(&self, slot: Slot) -> &P {
        self.debug_assert_live(slot);
        &self.payloads[slot.0]
    }

    /// Mutable access to the payload of a line found earlier.
    pub fn slot_payload_mut(&mut self, slot: Slot) -> &mut P {
        self.debug_assert_live(slot);
        &mut self.payloads[slot.0]
    }

    /// Whether the line at `slot` is dirty.
    pub fn slot_is_dirty(&self, slot: Slot) -> bool {
        self.lines[slot.0] & DIRTY != 0
    }

    /// Marks a line found earlier (via a slot-returning probe) dirty.
    pub fn mark_dirty_slot(&mut self, slot: Slot) {
        self.debug_assert_live(slot);
        self.lines[slot.0] |= DIRTY;
    }

    /// Clears the dirty bit of a line found earlier.
    pub fn clear_dirty_slot(&mut self, slot: Slot) {
        self.debug_assert_live(slot);
        self.lines[slot.0] &= !DIRTY;
    }

    /// Updates replacement state for a line found earlier, exactly as a
    /// `lookup` hit on it would (without the hit/miss counting).
    pub fn touch_slot(&mut self, slot: Slot) {
        self.debug_assert_live(slot);
        self.touch(slot.0 / self.ways, slot.0 % self.ways);
    }

    /// Inserts `key`, evicting a victim if the set is full. If `key` is
    /// already present its payload and dirty bit are replaced (dirty is
    /// OR-ed) and no eviction occurs.
    ///
    /// # Panics
    ///
    /// Panics if `key / sets` does not fit a line word beside its flag
    /// bits (2^62 or more).
    pub fn insert(&mut self, key: u64, payload: P, dirty: bool) -> Option<Eviction<P>> {
        self.insert_slot(key, payload, dirty).0
    }

    /// [`Self::insert`], also returning the filled line's [`Slot`] so the
    /// caller can read the post-insert metadata (e.g. the sticky dirty
    /// bit) without another tag scan.
    pub fn insert_slot(
        &mut self,
        key: u64,
        payload: P,
        dirty: bool,
    ) -> (Option<Eviction<P>>, Slot) {
        if let Some((set, way)) = self.find(key) {
            let idx = set * self.ways + way;
            self.payloads[idx] = payload;
            if dirty {
                self.lines[idx] |= DIRTY;
            }
            self.touch(set, way);
            return (None, Slot(idx));
        }
        self.insert_absent_slot(key, payload, dirty)
    }

    /// [`Self::insert`] for a key the caller has just proven absent (a
    /// preceding `lookup`/`contains` miss with no intervening insert):
    /// skips the presence scan and goes straight to victim selection.
    ///
    /// Calling this with a resident key is a logic error (debug-asserted)
    /// that would duplicate the line.
    pub fn insert_absent(&mut self, key: u64, payload: P, dirty: bool) -> Option<Eviction<P>> {
        self.insert_absent_slot(key, payload, dirty).0
    }

    /// [`Self::insert_absent`], also returning the filled line's [`Slot`].
    pub fn insert_absent_slot(
        &mut self,
        key: u64,
        payload: P,
        dirty: bool,
    ) -> (Option<Eviction<P>>, Slot) {
        debug_assert!(self.find(key).is_none(), "insert_absent on resident key");
        let (set, tag) = self.split(key);
        assert!(
            tag <= MAX_TAG,
            "key {key:#x} has a tag too wide for a line word"
        );
        // Prefer the lowest invalid way.
        let way = match self.set_lines(set).iter().position(|&w| w & VALID == 0) {
            Some(free) => free,
            None => self.pick_victim(set),
        };
        let idx = set * self.ways + way;
        let old = self.lines[idx];
        let evicted = if old & VALID != 0 {
            Some(Eviction {
                key: self.key_of(old, set),
                dirty: old & DIRTY != 0,
                payload: std::mem::take(&mut self.payloads[idx]),
            })
        } else {
            None
        };
        self.lines[idx] = tag << TAG_SHIFT | if dirty { DIRTY } else { 0 } | VALID;
        self.payloads[idx] = payload;
        self.touch(set, way);
        (evicted, Slot(idx))
    }

    /// Invalidates `key`; returns the evicted line if it was present.
    /// (Replacement state is left stale, exactly as a real directory's
    /// would be.)
    pub fn invalidate(&mut self, key: u64) -> Option<Eviction<P>> {
        let slot = self.peek_slot(key)?;
        let word = std::mem::take(&mut self.lines[slot.0]);
        Some(Eviction {
            key,
            dirty: word & DIRTY != 0,
            payload: std::mem::take(&mut self.payloads[slot.0]),
        })
    }

    /// Invalidates every line in set `set_index` (used by BATMAN's set
    /// disabling), returning the dirty lines that must be written back.
    pub fn invalidate_set(&mut self, set_index: u64) -> Vec<Eviction<P>> {
        assert!(set_index < self.sets, "set index out of range");
        let set = set_index as usize;
        let mut out = Vec::new();
        for idx in set * self.ways..(set + 1) * self.ways {
            let word = std::mem::take(&mut self.lines[idx]);
            if word & VALID != 0 {
                out.push(Eviction {
                    key: self.key_of(word, set),
                    dirty: word & DIRTY != 0,
                    payload: std::mem::take(&mut self.payloads[idx]),
                });
            }
        }
        out
    }

    /// Peeks every valid line in `key`'s set without perturbing replacement
    /// state: (reconstructed key, dirty, payload reference), in way order.
    pub fn peek_set(&self, key: u64) -> impl Iterator<Item = (u64, bool, &P)> {
        let (set, _) = self.split(key);
        let base = set * self.ways;
        self.set_lines(set)
            .iter()
            .zip(&self.payloads[base..base + self.ways])
            .filter(|(&w, _)| w & VALID != 0)
            .map(move |(&w, p)| (self.key_of(w, set), w & DIRTY != 0, p))
    }

    /// Number of valid lines (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|&&w| w & VALID != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: u64, ways: usize, policy: ReplacementKind) -> SetAssocCache<u32> {
        SetAssocCache::new(sets, ways, policy)
    }

    #[test]
    fn hit_after_insert() {
        let mut c = cache(16, 4, ReplacementKind::Lru);
        c.insert(100, 7, false);
        assert!(c.lookup(100));
        assert_eq!(c.peek(100), Some(&7));
        assert_eq!(c.hit_miss_counts(), (1, 0));
    }

    #[test]
    fn miss_on_absent() {
        let mut c = cache(16, 4, ReplacementKind::Lru);
        assert!(!c.lookup(100));
        assert_eq!(c.hit_miss_counts(), (0, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = cache(1, 2, ReplacementKind::Lru);
        c.insert(0, 0, false);
        c.insert(1, 1, false);
        c.lookup(0); // 1 is now LRU
        let ev = c.insert(2, 2, false).expect("eviction");
        assert_eq!(ev.key, 1);
        assert!(c.contains(0) && c.contains(2) && !c.contains(1));
    }

    #[test]
    fn eviction_reconstructs_key() {
        let mut c = cache(8, 1, ReplacementKind::Lru);
        c.insert(3 + 8 * 5, 0, true); // set 3, tag 5
        let ev = c.insert(3 + 8 * 9, 0, false).expect("conflict eviction");
        assert_eq!(ev.key, 3 + 8 * 5);
        assert!(ev.dirty);
    }

    #[test]
    fn nru_prefers_unreferenced_victim() {
        let mut c = cache(1, 4, ReplacementKind::Nru);
        for k in 0..4 {
            c.insert(k, k as u32, false);
        }
        // Touch 0..3 except 2.
        c.lookup(0);
        c.lookup(1);
        c.lookup(3);
        let ev = c.insert(10, 10, false).expect("eviction");
        assert_eq!(ev.key, 2, "the not-recently-used line is the victim");
    }

    #[test]
    fn nru_clears_bits_when_all_referenced() {
        let mut c = cache(1, 2, ReplacementKind::Nru);
        c.insert(0, 0, false);
        c.insert(1, 1, false);
        c.lookup(0);
        c.lookup(1); // all referenced: bits clear except line 1
        let ev = c.insert(2, 2, false).expect("eviction");
        assert_eq!(ev.key, 0);
    }

    #[test]
    fn reinsert_updates_payload_and_ors_dirty() {
        let mut c = cache(4, 2, ReplacementKind::Lru);
        c.insert(5, 1, true);
        assert!(c.insert(5, 2, false).is_none());
        assert_eq!(c.peek(5), Some(&2));
        assert!(c.is_dirty(5), "dirty bit must be sticky across re-insert");
    }

    #[test]
    fn invalidate_returns_dirty_state() {
        let mut c = cache(4, 2, ReplacementKind::Lru);
        c.insert(5, 1, false);
        c.mark_dirty(5);
        let ev = c.invalidate(5).expect("line present");
        assert!(ev.dirty);
        assert!(!c.contains(5));
    }

    #[test]
    fn invalidate_set_flushes_everything() {
        let mut c = cache(2, 2, ReplacementKind::Lru);
        c.insert(0, 0, true); // set 0
        c.insert(2, 1, false); // set 0
        c.insert(1, 2, false); // set 1
        let evs = c.invalidate_set(0);
        assert_eq!(evs.len(), 2);
        assert!(c.contains(1));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn fills_all_ways_before_evicting() {
        let mut c = cache(2, 4, ReplacementKind::Lru);
        for i in 0..4 {
            assert!(
                c.insert(i * 2, 0, false).is_none(),
                "way {i} should be free"
            );
        }
        assert!(c.insert(8, 0, false).is_some());
    }

    #[test]
    fn insert_absent_matches_insert() {
        // Drive two caches with the same stream; one uses the fused
        // absent-insert after a lookup miss. State must stay identical.
        let mut plain = cache(8, 2, ReplacementKind::Lru);
        let mut fused = cache(8, 2, ReplacementKind::Lru);
        let mut x = 7u64;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x % 64;
            let d = i % 3 == 0;
            let ev_a = if plain.lookup(k) {
                None
            } else {
                plain.insert(k, i as u32, d)
            };
            let ev_b = match fused.lookup_slot(k) {
                Some(_) => None,
                None => fused.insert_absent(k, i as u32, d),
            };
            assert_eq!(ev_a, ev_b);
        }
        assert_eq!(plain.hit_miss_counts(), fused.hit_miss_counts());
        assert_eq!(plain.occupancy(), fused.occupancy());
    }

    #[test]
    fn slot_dirty_marking_matches_keyed_marking() {
        let mut a = cache(4, 4, ReplacementKind::Lru);
        let mut b = cache(4, 4, ReplacementKind::Lru);
        a.insert(9, 0, false);
        b.insert(9, 0, false);
        a.lookup(9);
        a.mark_dirty(9);
        let slot = b.lookup_slot(9).expect("hit");
        b.mark_dirty_slot(slot);
        assert_eq!(a.is_dirty(9), b.is_dirty(9));
        let (_, slot) = b.insert_absent_slot(13, 1, false);
        b.mark_dirty_slot(slot);
        assert!(b.is_dirty(13));
    }

    #[test]
    fn sixty_four_ways_is_the_mask_limit() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(2, 64, ReplacementKind::Nru);
        for k in 0..128 {
            c.insert(k, (), false);
        }
        assert_eq!(c.occupancy(), 128);
        assert!(c.insert(128, (), false).is_some());
    }

    #[test]
    #[should_panic(expected = "64-bit masks")]
    fn more_than_sixty_four_ways_is_rejected() {
        let _: SetAssocCache<()> = SetAssocCache::new(1, 65, ReplacementKind::Lru);
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn key_too_wide_for_a_line_word_panics_at_insert() {
        let mut c = cache(1, 2, ReplacementKind::Lru);
        c.insert(1 << 62, 0, false);
    }

    #[test]
    fn oversized_key_never_aliases_a_resident_line() {
        let mut c = cache(1, 2, ReplacementKind::Nru);
        c.insert(1, 7, true);
        // Shifted into a line word, this key's tag would wrap onto key 1's.
        let wide = 1 << 62 | 1;
        assert!(!c.contains(wide));
        assert!(!c.lookup(wide));
        assert!(c.invalidate(wide).is_none());
        assert_eq!(c.peek(1), Some(&7));
    }
}
