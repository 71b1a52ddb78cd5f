//! Differential test of [`SetAssocCache`] against a reference model.
//!
//! The reference is the directory's earlier layout, kept here verbatim in
//! behaviour: tags and a global-tick LRU stamp per line, plus valid, dirty
//! and NRU way masks per set. Both are driven with the same seeded stream
//! of every public operation, and after each one every observable result
//! must agree: return values, evictions (key, dirty flag, payload), the
//! payload and dirty bit read through a returned slot, hit/miss counts and
//! occupancy. Periodically the whole key space is compared as well.

use mem_sim::cache::{Eviction, ReplacementKind, SetAssocCache, Slot};
use workloads::rng::SplitMix64;

/// The stamp-based reference directory.
struct Reference {
    sets: u64,
    ways: usize,
    tags: Vec<u64>,
    last_use: Vec<u64>,
    payloads: Vec<u32>,
    valid: Vec<u64>,
    dirty: Vec<u64>,
    nru: Vec<u64>,
    policy: ReplacementKind,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Reference {
    fn new(sets: u64, ways: usize, policy: ReplacementKind) -> Self {
        let lines = sets as usize * ways;
        Self {
            sets,
            ways,
            tags: vec![0; lines],
            last_use: vec![0; lines],
            payloads: vec![0; lines],
            valid: vec![0; sets as usize],
            dirty: vec![0; sets as usize],
            nru: vec![0; sets as usize],
            policy,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn ways_mask(&self) -> u64 {
        if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        }
    }

    fn split(&self, key: u64) -> (usize, u64) {
        ((key % self.sets) as usize, key / self.sets)
    }

    fn key_of(&self, idx: usize) -> u64 {
        self.tags[idx] * self.sets + (idx / self.ways) as u64
    }

    fn bit(&self, idx: usize) -> (usize, u64) {
        (idx / self.ways, 1u64 << (idx % self.ways))
    }

    fn find(&self, key: u64) -> Option<usize> {
        let (set, tag) = self.split(key);
        let base = set * self.ways;
        let mut mask = self.valid[set];
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            if self.tags[base + way] == tag {
                return Some(base + way);
            }
            mask &= mask - 1;
        }
        None
    }

    fn touch(&mut self, idx: usize) {
        self.tick += 1;
        self.last_use[idx] = self.tick;
        let (set, bit) = self.bit(idx);
        self.nru[set] |= bit;
        if self.policy == ReplacementKind::Nru {
            let wm = self.ways_mask();
            if (self.nru[set] | !self.valid[set]) & wm == wm {
                self.nru[set] = bit;
            }
        }
    }

    fn lookup_slot(&mut self, key: u64) -> Option<usize> {
        match self.find(key) {
            Some(i) => {
                self.hits += 1;
                self.touch(i);
                Some(i)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn is_dirty_at(&self, idx: usize) -> bool {
        let (set, bit) = self.bit(idx);
        self.dirty[set] & bit != 0
    }

    fn set_dirty_at(&mut self, idx: usize, dirty: bool) {
        let (set, bit) = self.bit(idx);
        if dirty {
            self.dirty[set] |= bit;
        } else {
            self.dirty[set] &= !bit;
        }
    }

    fn insert_slot(
        &mut self,
        key: u64,
        payload: u32,
        dirty: bool,
    ) -> (Option<Eviction<u32>>, usize) {
        if let Some(i) = self.find(key) {
            self.payloads[i] = payload;
            if dirty {
                self.set_dirty_at(i, true);
            }
            self.touch(i);
            return (None, i);
        }
        self.insert_absent_slot(key, payload, dirty)
    }

    fn insert_absent_slot(
        &mut self,
        key: u64,
        payload: u32,
        dirty: bool,
    ) -> (Option<Eviction<u32>>, usize) {
        assert!(self.find(key).is_none());
        let (set, tag) = self.split(key);
        let base = set * self.ways;
        let free = !self.valid[set] & self.ways_mask();
        let victim = if free != 0 {
            base + free.trailing_zeros() as usize
        } else {
            self.pick_victim(base)
        };
        let vbit = 1u64 << (victim % self.ways);
        let evicted = (self.valid[set] & vbit != 0).then(|| Eviction {
            key: self.key_of(victim),
            dirty: self.dirty[set] & vbit != 0,
            payload: self.payloads[victim],
        });
        self.tags[victim] = tag;
        self.valid[set] |= vbit;
        self.set_dirty_at(victim, dirty);
        self.nru[set] &= !vbit;
        self.payloads[victim] = payload;
        self.touch(victim);
        (evicted, victim)
    }

    fn pick_victim(&self, base: usize) -> usize {
        let set = base / self.ways;
        match self.policy {
            ReplacementKind::Lru => {
                let mut best = base;
                for i in base + 1..base + self.ways {
                    if self.last_use[i] < self.last_use[best] {
                        best = i;
                    }
                }
                best
            }
            ReplacementKind::Nru => {
                let unref = !self.nru[set] & self.ways_mask();
                if unref != 0 {
                    base + unref.trailing_zeros() as usize
                } else {
                    base
                }
            }
        }
    }

    fn invalidate(&mut self, key: u64) -> Option<Eviction<u32>> {
        let i = self.find(key)?;
        let (set, bit) = self.bit(i);
        self.valid[set] &= !bit;
        let dirty = self.dirty[set] & bit != 0;
        self.dirty[set] &= !bit;
        Some(Eviction {
            key,
            dirty,
            payload: std::mem::take(&mut self.payloads[i]),
        })
    }

    fn invalidate_set(&mut self, set: usize) -> Vec<Eviction<u32>> {
        let base = set * self.ways;
        let mut out = Vec::new();
        let mut mask = self.valid[set];
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            out.push(Eviction {
                key: self.key_of(base + way),
                dirty: self.dirty[set] >> way & 1 == 1,
                payload: std::mem::take(&mut self.payloads[base + way]),
            });
            mask &= mask - 1;
        }
        self.valid[set] = 0;
        self.dirty[set] = 0;
        out
    }

    fn peek_set_at(&self, set: usize) -> Vec<(u64, bool, u32)> {
        let base = set * self.ways;
        let mut out = Vec::new();
        let mut mask = self.valid[set];
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            out.push((
                self.key_of(base + way),
                self.dirty[set] >> way & 1 == 1,
                self.payloads[base + way],
            ));
            mask &= mask - 1;
        }
        out
    }

    fn occupancy(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }
}

/// One cache under test and its reference, driven in lockstep.
struct Pair {
    cache: SetAssocCache<u32>,
    reference: Reference,
    /// The slots of the last line a slot-returning operation resolved in
    /// both, until an insert or invalidation makes them stale.
    slots: Option<(Slot, usize)>,
    /// The key space the stream draws from.
    keys: Vec<u64>,
}

impl Pair {
    fn new(sets: u64, ways: usize, policy: ReplacementKind) -> Self {
        // Enough keys per set to overflow it, plus a few large keys near
        // 2^48, the top of the range the simulator's keys use.
        let mut keys: Vec<u64> = (0..sets * (ways as u64 + ways as u64 / 2 + 2)).collect();
        keys.extend((1..=4u64).map(|k| (k << 46) + k % sets));
        Self {
            cache: SetAssocCache::new(sets, ways, policy),
            reference: Reference::new(sets, ways, policy),
            slots: None,
            keys,
        }
    }

    /// Remembers a resolved line and checks what its slot reads.
    fn adopt(&mut self, slots: Option<(Slot, usize)>) {
        self.slots = slots;
        if let Some((slot, idx)) = slots {
            assert_eq!(
                *self.cache.slot_payload(slot),
                self.reference.payloads[idx],
                "payload through slot"
            );
            assert_eq!(
                self.cache.slot_is_dirty(slot),
                self.reference.is_dirty_at(idx),
                "dirty bit through slot"
            );
        }
    }

    fn step(&mut self, rng: &mut SplitMix64) {
        let key = self.keys[rng.index(self.keys.len())];
        let value = rng.next_u64() as u32;
        let dirty = rng.chance(0.3);
        let (c, r) = (&mut self.cache, &mut self.reference);
        match rng.index(20) {
            0 => assert_eq!(c.lookup(key), r.lookup_slot(key).is_some()),
            1 => {
                let (got, want) = (c.lookup_slot(key), r.lookup_slot(key));
                assert_eq!(got.is_some(), want.is_some(), "lookup_slot");
                self.adopt(got.zip(want));
            }
            2 => {
                let got = c.lookup_payload(key).map(|p| {
                    let old = *p;
                    *p = value;
                    old
                });
                let want = r
                    .lookup_slot(key)
                    .map(|i| std::mem::replace(&mut r.payloads[i], value));
                assert_eq!(got, want, "lookup_payload");
            }
            3 => assert_eq!(c.contains(key), r.find(key).is_some()),
            4 => {
                let (got, want) = (c.peek_slot(key), r.find(key));
                assert_eq!(got.is_some(), want.is_some(), "peek_slot");
                self.adopt(got.zip(want));
            }
            5 => assert_eq!(
                c.peek(key).copied(),
                r.find(key).map(|i| r.payloads[i]),
                "peek"
            ),
            6 => {
                let got = c.peek_mut(key).map(|p| std::mem::replace(p, value));
                let want = r
                    .find(key)
                    .map(|i| std::mem::replace(&mut r.payloads[i], value));
                assert_eq!(got, want, "peek_mut");
            }
            7 => assert_eq!(
                c.is_dirty(key),
                r.find(key).is_some_and(|i| r.is_dirty_at(i))
            ),
            8 => {
                let want = r.find(key).inspect(|&i| r.set_dirty_at(i, true));
                assert_eq!(c.mark_dirty(key), want.is_some());
            }
            9..=11 => {
                let got = c.insert(key, value, dirty);
                let (want, _) = r.insert_slot(key, value, dirty);
                assert_eq!(got, want, "insert");
                self.slots = None;
            }
            12 => {
                let (got, slot) = c.insert_slot(key, value, dirty);
                let (want, idx) = r.insert_slot(key, value, dirty);
                assert_eq!(got, want, "insert_slot");
                self.adopt(Some((slot, idx)));
            }
            13 => {
                // The absent-insert variants need a proven miss first.
                assert_eq!(c.lookup(key), r.lookup_slot(key).is_some());
                if !c.contains(key) {
                    if rng.chance(0.5) {
                        let got = c.insert_absent(key, value, dirty);
                        let (want, _) = r.insert_absent_slot(key, value, dirty);
                        assert_eq!(got, want, "insert_absent");
                        self.slots = None;
                    } else {
                        let (got, slot) = c.insert_absent_slot(key, value, dirty);
                        let (want, idx) = r.insert_absent_slot(key, value, dirty);
                        assert_eq!(got, want, "insert_absent_slot");
                        self.adopt(Some((slot, idx)));
                    }
                }
            }
            14 => {
                assert_eq!(c.invalidate(key), r.invalidate(key), "invalidate");
                self.slots = None;
            }
            15 => {
                // Rare: a whole-set flush empties the set for a while.
                if rng.chance(0.1) {
                    let set = rng.below(r.sets);
                    assert_eq!(
                        c.invalidate_set(set),
                        r.invalidate_set(set as usize),
                        "invalidate_set"
                    );
                    self.slots = None;
                }
            }
            16 => {
                let got: Vec<(u64, bool, u32)> =
                    c.peek_set(key).map(|(k, d, &p)| (k, d, p)).collect();
                assert_eq!(got, r.peek_set_at(r.split(key).0), "peek_set");
            }
            _ => self.slot_op(rng, value),
        }
        assert_eq!(
            self.cache.hit_miss_counts(),
            (self.reference.hits, self.reference.misses),
            "hit/miss counts"
        );
        assert_eq!(
            self.cache.occupancy(),
            self.reference.occupancy(),
            "occupancy"
        );
    }

    /// One update through the remembered slots, if any.
    fn slot_op(&mut self, rng: &mut SplitMix64, value: u32) {
        let Some((slot, idx)) = self.slots else {
            return;
        };
        let (c, r) = (&mut self.cache, &mut self.reference);
        match rng.index(4) {
            0 => {
                *c.slot_payload_mut(slot) = value;
                r.payloads[idx] = value;
            }
            1 => {
                c.mark_dirty_slot(slot);
                r.set_dirty_at(idx, true);
            }
            2 => {
                c.clear_dirty_slot(slot);
                r.set_dirty_at(idx, false);
            }
            _ => {
                c.touch_slot(slot);
                r.touch(idx);
            }
        }
        self.adopt(Some((slot, idx)));
    }

    /// Compares presence, payload and dirtiness of every key.
    fn compare_all(&self) {
        for &key in &self.keys {
            let want = self
                .reference
                .find(key)
                .map(|i| (self.reference.payloads[i], self.reference.is_dirty_at(i)));
            let got = self.cache.peek(key).map(|&p| (p, self.cache.is_dirty(key)));
            assert_eq!(got, want, "state of key {key}");
        }
    }
}

fn run(sets: u64, ways: usize, policy: ReplacementKind, seed: u64, ops: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut pair = Pair::new(sets, ways, policy);
    for i in 0..ops {
        pair.step(&mut rng);
        if i % 512 == 511 {
            pair.compare_all();
        }
    }
    pair.compare_all();
}

fn run_all(policy: ReplacementKind, seed: u64) {
    for ways in [1usize, 2, 4, 8, 16, 64] {
        // Power-of-two and odd set counts take different set/tag paths.
        for sets in [1u64, 8, 3, 5] {
            run(sets, ways, policy, seed ^ (sets << 8) ^ ways as u64, 3000);
        }
    }
}

#[test]
fn lru_matches_the_stamp_reference() {
    run_all(ReplacementKind::Lru, 0x5e7_a550c);
}

#[test]
fn nru_matches_the_stamp_reference() {
    run_all(ReplacementKind::Nru, 0x5e7_a550d);
}

/// Long streams on the simulator's own geometries: the 16-way eDRAM
/// directory (NRU), the 8- and 16-way SRAM levels (LRU) and a one-way
/// Alloy-style directory.
#[test]
fn simulator_geometries_match_over_long_streams() {
    run(64, 16, ReplacementKind::Nru, 1, 40_000);
    run(16, 8, ReplacementKind::Lru, 2, 40_000);
    run(32, 16, ReplacementKind::Lru, 3, 40_000);
    run(256, 1, ReplacementKind::Lru, 4, 40_000);
}
