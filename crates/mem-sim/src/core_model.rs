//! A lightweight out-of-order core model.
//!
//! Instead of stepping a pipeline cycle by cycle, the model tracks, per
//! instruction, when it *issues* (bounded by fetch width and reorder-buffer
//! occupancy) and when it *retires* (in order, bounded by retire width).
//! Memory-level parallelism emerges naturally: while an old load is
//! outstanding, younger instructions keep issuing until the 224-entry ROB
//! fills — exactly the behaviour that generates the bandwidth demand DAP
//! feeds on.
//!
//! Internally, time is tracked in *slots* of `1 / width` cycle so that a
//! `width`-wide core retires at most `width` instructions per cycle using
//! integer arithmetic only.

use crate::clock::Cycle;

/// The core model.
#[derive(Debug, Clone)]
pub struct CoreModel {
    /// Retire slot of each ROB entry, as a ring buffer.
    ring: Vec<u64>,
    pos: usize,
    width: u64,
    /// `log2(width)` when the width is a power of two (it always is for
    /// the shipped configs): slot-to-cycle conversion becomes a shift.
    width_shift: Option<u32>,
    last_issue_slot: u64,
    last_retire_slot: u64,
    retired: u64,
}

impl CoreModel {
    /// Creates a core with the given issue/retire `width` and ROB capacity.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `rob_entries` is zero.
    pub fn new(width: u32, rob_entries: usize) -> Self {
        assert!(width > 0 && rob_entries > 0, "degenerate core");
        Self {
            ring: vec![0; rob_entries],
            pos: 0,
            width: u64::from(width),
            width_shift: width.is_power_of_two().then(|| width.trailing_zeros()),
            last_issue_slot: 0,
            last_retire_slot: 0,
            retired: 0,
        }
    }

    /// The paper's core: four-wide with a 224-entry ROB.
    pub fn skylake_like() -> Self {
        Self::new(4, 224)
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The local cycle at which the youngest retired instruction left the
    /// ROB — the core's notion of "now".
    pub fn local_cycle(&self) -> Cycle {
        self.slots_to_cycles(self.last_retire_slot)
    }

    #[inline]
    fn slots_to_cycles(&self, slots: u64) -> Cycle {
        match self.width_shift {
            Some(sh) => slots >> sh,
            None => slots / self.width,
        }
    }

    /// The cycle at which the *next* instruction will issue (enter the ROB
    /// and, for a memory operation, access the hierarchy).
    pub fn next_issue_cycle(&self) -> Cycle {
        let slot_free = self.ring[self.pos];
        self.slots_to_cycles((self.last_issue_slot + 1).max(slot_free))
    }

    fn push(&mut self, latency_cycles: Cycle) {
        let slot_free = self.ring[self.pos];
        let issue = (self.last_issue_slot + 1).max(slot_free);
        let ready = issue + latency_cycles.max(1) * self.width;
        let retire = ready.max(self.last_retire_slot + 1);
        self.ring[self.pos] = retire;
        self.pos += 1;
        if self.pos == self.ring.len() {
            self.pos = 0;
        }
        self.last_issue_slot = issue;
        self.last_retire_slot = retire;
        self.retired += 1;
    }

    /// Executes `count` single-cycle non-memory instructions.
    ///
    /// When the ROB has drained past the batch (the common case on
    /// compute-heavy gaps), the whole batch reduces to consecutive
    /// issue/retire slots and is applied with one bounds check per ring
    /// store instead of the full per-instruction recurrence; the
    /// per-instruction loop below is the fallback and the semantic
    /// reference (the fast path is bit-identical, see
    /// `batched_nonmem_matches_stepped`).
    pub fn push_nonmem(&mut self, count: u32) {
        let k = count as usize;
        let rob = self.ring.len();
        if k > 0 && k <= rob {
            // Ring entries from `pos` are circular-monotone (in-order
            // retirement), so the largest ROB constraint among the next
            // `k` slots is the last one in each contiguous span.
            let issue_0 = self.last_issue_slot + 1;
            let end = self.pos + k;
            let max_constraint = if end <= rob {
                self.ring[end - 1]
            } else {
                self.ring[rob - 1].max(self.ring[end - 1 - rob])
            };
            if max_constraint <= issue_0 {
                // No ROB stall anywhere in the batch: issues are
                // consecutive slots, and retires follow at +1 apiece.
                let r0 = (issue_0 + self.width).max(self.last_retire_slot + 1);
                for j in 0..k as u64 {
                    self.ring[self.pos] = r0 + j;
                    self.pos += 1;
                    if self.pos == rob {
                        self.pos = 0;
                    }
                }
                self.last_issue_slot = issue_0 + k as u64 - 1;
                self.last_retire_slot = r0 + k as u64 - 1;
                self.retired += k as u64;
                return;
            }
        }
        for _ in 0..count {
            self.push(1);
        }
    }

    /// Executes one memory instruction whose data returns after
    /// `latency_cycles` (loads block retirement for that long; pass a small
    /// latency for stores, which drain via a store buffer).
    pub fn push_mem(&mut self, latency_cycles: Cycle) {
        self.push(latency_cycles);
    }

    /// Instructions per cycle so far.
    pub fn ipc(&self) -> f64 {
        let c = self.local_cycle();
        if c == 0 {
            0.0
        } else {
            self.retired as f64 / c as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_nonmem_matches_stepped() {
        // Drive two cores with an identical op stream; one uses
        // push_nonmem batches, the other steps instruction by
        // instruction. Every observable must stay identical, across
        // ROB-drained and ROB-full regimes.
        let mut x = 42u64;
        for (width, rob) in [(4u32, 224usize), (4, 8), (1, 16), (3, 7)] {
            let mut batched = CoreModel::new(width, rob);
            let mut stepped = CoreModel::new(width, rob);
            for _ in 0..2_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let gap = (x >> 33) % 40;
                let latency = if x.is_multiple_of(5) { 400 } else { 1 + x % 7 };
                batched.push_nonmem(gap as u32);
                batched.push_mem(latency);
                for _ in 0..gap {
                    stepped.push(1);
                }
                stepped.push_mem(latency);
                assert_eq!(batched.local_cycle(), stepped.local_cycle());
                assert_eq!(batched.next_issue_cycle(), stepped.next_issue_cycle());
                assert_eq!(batched.retired(), stepped.retired());
            }
            assert_eq!(batched.ring, stepped.ring);
            assert_eq!(batched.pos, stepped.pos);
        }
    }

    #[test]
    fn nonmem_retires_at_full_width() {
        let mut c = CoreModel::new(4, 224);
        c.push_nonmem(4000);
        // 4-wide: 4000 instructions in ~1000 cycles.
        assert!((c.local_cycle() as i64 - 1000).unsigned_abs() <= 2);
        assert!((c.ipc() - 4.0).abs() < 0.05);
    }

    #[test]
    fn single_long_load_blocks_retirement() {
        let mut c = CoreModel::new(4, 224);
        c.push_mem(500);
        assert!(c.local_cycle() >= 500);
        assert_eq!(c.retired(), 1);
    }

    #[test]
    fn independent_loads_overlap_within_rob() {
        // 100 loads of 400 cycles each: with a 224-entry ROB they all fit
        // and issue back to back, so total time ~ 400 + issue time, not
        // 100 * 400.
        let mut c = CoreModel::new(4, 224);
        for _ in 0..100 {
            c.push_mem(400);
        }
        assert!(
            c.local_cycle() < 500,
            "loads must overlap: {}",
            c.local_cycle()
        );
    }

    #[test]
    fn rob_capacity_limits_overlap() {
        // With a 4-entry ROB, only 4 loads overlap: 100 loads of 400 cycles
        // take ~100/4 * 400 = 10000 cycles.
        let mut c = CoreModel::new(4, 4);
        for _ in 0..100 {
            c.push_mem(400);
        }
        assert!(
            c.local_cycle() > 9_000,
            "ROB must throttle: {}",
            c.local_cycle()
        );
    }

    #[test]
    fn issue_cycle_tracks_rob_head() {
        let mut c = CoreModel::new(1, 2);
        c.push_mem(1000);
        c.push_mem(1000);
        // ROB full of slow loads: next issue waits for the head to retire.
        assert!(c.next_issue_cycle() >= 1000);
    }

    #[test]
    fn in_order_retirement_orders_completions() {
        let mut c = CoreModel::new(1, 16);
        c.push_mem(100); // retires at ~100
        c.push_nonmem(1); // completes instantly but retires after the load
        assert!(c.local_cycle() >= 100);
        assert_eq!(c.retired(), 2);
    }

    #[test]
    fn mixed_stream_ipc_between_bounds() {
        let mut c = CoreModel::new(4, 224);
        for _ in 0..1000 {
            c.push_nonmem(3);
            c.push_mem(10);
        }
        let ipc = c.ipc();
        assert!(ipc > 0.5 && ipc <= 4.0, "ipc {ipc}");
    }
}
