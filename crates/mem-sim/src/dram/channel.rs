//! A single DRAM channel: banks with row-buffer state and one data bus.
//!
//! The channel uses a resource-reservation timing discipline. Each access
//! reserves its bank (activation + column access) and then the data bus
//! (burst). Reservations never move backward, so when demand exceeds the
//! bus rate, `bus_free_at` runs ahead of the request clock and the excess
//! appears as queueing delay — the saturation behaviour DAP exploits.
//!
//! Writes are buffered and drained in batches (with one turnaround penalty
//! per batch) to model the paper's batched write scheduling.

use super::timing::ResolvedTiming;
use crate::clock::Cycle;
use crate::faults::ChannelFaults;

/// Per-channel activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Read CAS operations issued.
    pub cas_reads: u64,
    /// Write CAS operations issued (drained writes).
    pub cas_writes: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that needed activation (empty or conflicting row).
    pub row_misses: u64,
}

impl ChannelStats {
    /// Total CAS operations (data transfers).
    pub fn cas_total(&self) -> u64 {
        self.cas_reads + self.cas_writes
    }
}

/// One DRAM channel.
///
/// Bank timing state is kept in struct-of-arrays form: the per-bank
/// fields live in flat parallel vectors plus a row-open bitmask, so the
/// hot access path touches two adjacent words per bank and a refresh
/// closes every row with a single mask clear.
#[derive(Debug, Clone)]
pub struct Channel {
    timing: ResolvedTiming,
    /// Open-row address per bank (valid only when the mask bit is set).
    bank_open_row: Vec<u64>,
    /// Earliest cycle each bank's next column command may issue (tCCD).
    bank_ready_at: Vec<Cycle>,
    /// Earliest cycle each bank's open row may be precharged (tRAS).
    bank_precharge_ok_at: Vec<Cycle>,
    /// Bit `b` set = bank `b` has an open row.
    row_open: u64,
    /// Bank-index mask when the bank count is a power of two (always, for
    /// the shipped configs); `None` falls back to a modulo.
    bank_mask: Option<u32>,
    bus_free_at: Cycle,
    write_queue: Vec<(u32, u64)>,
    write_batch: usize,
    /// Start of the next refresh window (all-bank refresh).
    next_refresh_at: Cycle,
    refreshes: u64,
    stats: ChannelStats,
    /// Cycles the data bus has been reserved (bursts + turnarounds) —
    /// utilization numerator for telemetry.
    busy_cycles: Cycle,
    /// Injected fault state; `None` (the overwhelmingly common case)
    /// costs one branch per access.
    faults: Option<Box<ChannelFaults>>,
}

impl Channel {
    /// Creates an idle channel.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or `write_batch` is zero.
    pub fn new(timing: ResolvedTiming, banks: u32, write_batch: usize) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(banks <= 64, "row-open mask holds at most 64 banks");
        assert!(write_batch > 0, "write batch must be non-empty");
        Self {
            timing,
            bank_open_row: vec![0; banks as usize],
            bank_ready_at: vec![0; banks as usize],
            bank_precharge_ok_at: vec![0; banks as usize],
            row_open: 0,
            bank_mask: banks.is_power_of_two().then(|| banks - 1),
            bus_free_at: 0,
            write_queue: Vec::with_capacity(write_batch),
            write_batch,
            next_refresh_at: timing.refresh.map(|(refi, _)| refi).unwrap_or(Cycle::MAX),
            refreshes: 0,
            stats: ChannelStats::default(),
            busy_cycles: 0,
            faults: None,
        }
    }

    /// Installs (or clears) this channel's resolved fault state.
    pub(crate) fn set_faults(&mut self, faults: Option<ChannelFaults>) {
        self.faults = faults.map(Box::new);
    }

    /// Refresh windows charged so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Cycles the data bus has been reserved so far (bursts plus
    /// write-turnaround dead time). Divided by elapsed cycles this gives
    /// the channel's bus utilization.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy_cycles
    }

    /// Activity counters.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Expected queueing delay for a request arriving now (how far the bus
    /// reservation runs ahead of the clock). Used by latency-estimating
    /// policies like SBD.
    pub fn estimated_wait(&self, now: Cycle) -> Cycle {
        self.bus_free_at.saturating_sub(now)
    }

    /// Cycle at which the data bus becomes free (diagnostics).
    pub fn bus_free_at(&self) -> Cycle {
        self.bus_free_at
    }

    /// The next cycle strictly after `now` at which this channel has
    /// scheduled work of its own: the start of the next all-bank refresh
    /// window, or the point where an idle bus would opportunistically
    /// drain buffered writes. Both are *lazy* — the state mutation happens
    /// on the next access that observes the crossing — so the epoch
    /// scheduler may use this purely as an upper bound on how far it
    /// skips. Returns `Cycle::MAX` when nothing is scheduled.
    pub fn next_scheduled_event(&self, now: Cycle) -> Cycle {
        let mut next = Cycle::MAX;
        if self.timing.refresh.is_some() && self.next_refresh_at > now {
            next = self.next_refresh_at;
        }
        if !self.write_queue.is_empty() {
            // `read` drains when `now > bus_free_at + 4 * burst`.
            let drain_at = self.bus_free_at + 4 * self.timing.burst + 1;
            if drain_at > now {
                next = next.min(drain_at);
            }
        }
        next
    }

    /// Performs a read of `burst_override.unwrap_or(timing.burst)` bus
    /// cycles from `(bank, row)`; returns the completion cycle (data at the
    /// controller, including I/O delay).
    pub fn read(
        &mut self,
        bank: u32,
        row: u64,
        now: Cycle,
        burst_override: Option<Cycle>,
    ) -> Cycle {
        // Opportunistic write drain: if the bus has been idle, retire
        // buffered writes into the idle window instead of letting them pile
        // up into a large read-blocking batch later.
        if !self.write_queue.is_empty() && now > self.bus_free_at + 4 * self.timing.burst {
            let idle_start = self.bus_free_at;
            self.drain_writes(idle_start);
        }
        let burst = burst_override.unwrap_or(self.timing.burst);
        let done = self.access(bank, row, now, burst);
        self.stats.cas_reads += 1;
        done + self.timing.io
    }

    /// Enqueues a write to `(bank, row)`; drains the queue if the batch is
    /// full. Returns the batch-drain completion cycle if a drain happened.
    pub fn write(&mut self, bank: u32, row: u64, now: Cycle) -> Option<Cycle> {
        self.write_queue.push((bank, row));
        if self.write_queue.len() >= self.write_batch {
            Some(self.drain_writes(now))
        } else {
            None
        }
    }

    /// Drains all buffered writes, charging one bus-turnaround penalty for
    /// the batch. Returns the cycle the drain finishes.
    pub fn drain_writes(&mut self, now: Cycle) -> Cycle {
        if self.write_queue.is_empty() {
            return now;
        }
        // Channel turnaround: one burst worth of dead bus time.
        self.bus_free_at = self.bus_free_at.max(now) + self.timing.burst;
        self.busy_cycles += self.timing.burst;
        // Borrow the batch out and hand the same buffer back afterwards, so
        // the queue keeps its capacity and the next batch never reallocates.
        let mut queue = std::mem::take(&mut self.write_queue);
        let mut done = now;
        for &(bank, row) in &queue {
            done = self.access(bank, row, now, self.timing.burst);
            self.stats.cas_writes += 1;
        }
        queue.clear();
        self.write_queue = queue;
        done
    }

    /// Number of writes currently buffered.
    pub fn pending_writes(&self) -> usize {
        self.write_queue.len()
    }

    /// Applies injected faults to an access arriving at `now` with a
    /// nominal `burst`: storm stalls push the service timeline forward,
    /// throttles stretch the burst (and CAS, as extra latency), jitter
    /// adds pure latency. Outages never reach this point — the module
    /// routes around dark channels — so the service timeline stays
    /// finite. Returns the adjusted `(now, burst, extra_latency)`.
    fn apply_faults(&mut self, now: Cycle, burst: Cycle) -> (Cycle, Cycle, Cycle) {
        let Some(mut f) = self.faults.take() else {
            return (now, burst, 0);
        };
        // Refresh storms behave like extra all-bank refreshes, driven by
        // the service timeline exactly like the regular refresh loop.
        while let Some((at, stall)) = f.next_storm_stall(now.max(self.bus_free_at)) {
            let start = at.max(self.bus_free_at);
            self.bus_free_at = start + stall;
            self.row_open = 0;
            for r in &mut self.bank_ready_at {
                *r = (*r).max(start + stall);
            }
        }
        let probe = now.max(self.bus_free_at);
        let throttled_burst = f.throttled(probe, burst);
        let cas_extra = f.throttled(probe, self.timing.cas) - self.timing.cas;
        let jitter = f.jitter_extra(probe);
        self.faults = Some(f);
        (now, throttled_burst, cas_extra + jitter)
    }

    fn access(&mut self, bank: u32, row: u64, now: Cycle, burst: Cycle) -> Cycle {
        let (now, burst, fault_latency) = if self.faults.is_some() {
            self.apply_faults(now, burst)
        } else {
            (now, burst, 0)
        };
        let t = self.timing;
        // All-bank refresh: whenever the channel's service timeline crosses
        // a tREFI boundary, the whole channel stalls for tRFC and every row
        // buffer closes. The service timeline (not the arrival clock) is
        // what crosses boundaries under saturation.
        if let Some((refi, rfc)) = t.refresh {
            // A caller stalled on a fully-dark device elsewhere can
            // arrive with `now` astronomically far past the refresh
            // ledger. All but the final boundary only close rows and
            // advance the ledger (tREFI > tRFC, so each stall is long
            // over before the next boundary), so fold them in O(1) and
            // let the loop below finish exactly as if stepped.
            let tline = now.max(self.bus_free_at);
            if tline > self.next_refresh_at {
                let pending = (tline - self.next_refresh_at) / refi;
                if pending > (1 << 16) {
                    self.refreshes += pending - 1;
                    self.next_refresh_at += (pending - 1) * refi;
                    self.row_open = 0;
                }
            }
            while now.max(self.bus_free_at) >= self.next_refresh_at {
                let start = self.next_refresh_at.max(self.bus_free_at);
                self.bus_free_at = start + rfc;
                self.row_open = 0;
                for r in &mut self.bank_ready_at {
                    *r = (*r).max(start + rfc);
                }
                self.refreshes += 1;
                self.next_refresh_at += refi;
            }
        }
        let bi = match self.bank_mask {
            Some(m) => (bank & m) as usize,
            None => bank as usize % self.bank_open_row.len(),
        };
        let bbit = 1u64 << bi;
        // When does this access's column command issue, and when is data
        // ready at the pins? Column commands pipeline at burst (tCCD)
        // spacing. Row conflicts are charged their full tRP+tRCD *latency*
        // but do not serialize the bank: a real FR-FCFS scheduler reorders
        // requests to keep banks pipelined, and the residual throughput
        // loss is what the paper's bandwidth-efficiency factor E models.
        let cas_issue = now.max(self.bank_ready_at[bi]);
        let open = self.row_open & bbit != 0;
        let data_ready = if open && self.bank_open_row[bi] == row {
            self.stats.row_hits += 1;
            cas_issue + t.cas
        } else if !open {
            self.stats.row_misses += 1;
            self.bank_precharge_ok_at[bi] = cas_issue + t.ras;
            cas_issue + t.rcd + t.cas
        } else {
            self.stats.row_misses += 1;
            self.bank_precharge_ok_at[bi] = cas_issue + t.ras;
            cas_issue + t.rp + t.rcd + t.cas
        };
        self.bank_open_row[bi] = row;
        self.row_open |= bbit;
        self.bank_ready_at[bi] = cas_issue + burst;
        let data_at = data_ready.max(self.bus_free_at);
        let done = data_at + burst;
        self.bus_free_at = done;
        self.busy_cycles += burst;
        // Fault-injected CAS stretch and jitter are pure latency: they
        // delay this access's completion without holding the bus.
        done + fault_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramConfig;

    fn channel() -> Channel {
        let cfg = DramConfig::hbm_102();
        Channel::new(cfg.resolve(4000.0), cfg.banks_per_channel, cfg.write_batch)
    }

    // HBM timings at 4 GHz: cas=50, rcd=50, rp=50, ras=130, burst=10, io=0.

    #[test]
    fn first_access_pays_activation() {
        let mut c = channel();
        let done = c.read(0, 5, 0, None);
        assert_eq!(done, 50 + 50 + 10); // rcd + cas + burst
        assert_eq!(c.stats().row_misses, 1);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut c = channel();
        let first = c.read(0, 5, 0, None);
        let second = c.read(0, 5, first, None);
        assert_eq!(second - first, 50 + 10); // cas + burst
        assert_eq!(c.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut c = channel();
        let first = c.read(0, 5, 0, None);
        let at = first.max(130); // clear of tRAS
        let second = c.read(0, 9, at, None);
        assert_eq!(second - at, 50 + 50 + 50 + 10);
    }

    #[test]
    fn bus_saturates_under_back_to_back_demand() {
        // Issue many same-row reads to different banks at cycle 0: the bus
        // serializes them at one burst (10 cycles) apiece.
        let mut c = channel();
        let mut last = 0;
        for i in 0..16 {
            last = c.read(i, 1, 0, None);
        }
        // First access: 110; the remaining 15 add one burst each.
        assert_eq!(last, 110 + 15 * 10);
        assert_eq!(c.estimated_wait(0), last);
    }

    #[test]
    fn tad_burst_override_slows_transfer() {
        let mut c = channel();
        let mut last = 0;
        for i in 0..4 {
            last = c.read(i, 1, 0, Some(15));
        }
        assert_eq!(last, 110 + 5 + 3 * 15); // first access +5 extra burst, then 15/access
    }

    #[test]
    fn writes_buffer_until_batch() {
        let mut c = channel();
        for i in 0..15 {
            assert!(c.write(i % 4, 1, 0).is_none());
        }
        assert_eq!(c.pending_writes(), 15);
        let drained = c.write(0, 1, 0).expect("16th write triggers drain");
        assert!(drained > 0);
        assert_eq!(c.pending_writes(), 0);
        assert_eq!(c.stats().cas_writes, 16);
    }

    #[test]
    fn write_drain_delays_subsequent_reads() {
        let mut c = channel();
        for i in 0..16 {
            c.write(i % 4, 1, 0);
        }
        let read_done = c.read(8, 1, 0, None);
        // The read queues behind 16 write bursts + turnaround.
        assert!(
            read_done > 16 * 10,
            "read at {read_done} should queue behind writes"
        );
    }

    #[test]
    fn refresh_stalls_reduce_streaming_bandwidth() {
        use crate::dram::DramModule;
        let run = |with_refresh: bool| {
            let mut cfg = DramConfig::ddr4_2400();
            if with_refresh {
                cfg = cfg.with_refresh(crate::dram::RefreshTiming::ddr4());
            }
            let mut m = DramModule::new(cfg, 4000.0);
            let mut last = 0;
            for block in 0..100_000u64 {
                last = last.max(m.read_block(block, 0));
            }
            m.delivered_gbps(last, 4000.0)
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < without,
            "refresh must cost bandwidth: {with} vs {without}"
        );
        // tRFC/tREFI = 420/9360 ~ 4.5%: the loss is visible but bounded.
        assert!(
            with > without * 0.85,
            "refresh cost out of range: {with} vs {without}"
        );
    }

    #[test]
    fn refresh_closes_open_rows() {
        let cfg = DramConfig::ddr4_2400().with_refresh(crate::dram::RefreshTiming::ddr4());
        let timing = cfg.resolve(4000.0);
        let mut c = Channel::new(timing, cfg.banks_per_channel, cfg.write_batch);
        let first = c.read(0, 5, 0, None);
        // Jump far past the refresh interval: the re-read of the same row
        // must pay an activation again (row closed by refresh).
        let (refi, _) = timing.refresh.unwrap();
        let second_start = first.max(refi) + 1;
        let second = c.read(0, 5, second_start, None);
        assert!(c.refreshes() >= 1);
        assert!(
            second - second_start > timing.row_hit(),
            "row must have been closed by refresh"
        );
    }

    #[test]
    fn idle_channel_has_no_wait() {
        let c = channel();
        assert_eq!(c.estimated_wait(100), 0);
    }

    #[test]
    fn throttle_stretches_burst_and_cas() {
        use crate::faults::{FaultSchedule, FaultTarget};
        let mut plain = channel();
        let mut slow = channel();
        let s = FaultSchedule::new(0).throttle(FaultTarget::Cache, 2, 1, 0, Cycle::MAX);
        slow.set_faults(s.channel_faults(FaultTarget::Cache, 0, 1));
        let mut last_plain = 0;
        let mut last_slow = 0;
        for i in 0..16 {
            last_plain = plain.read(i, 1, 0, None);
            last_slow = slow.read(i, 1, 0, None);
        }
        // Bus-limited streaming takes ~2x as long under a 2x throttle.
        assert!(
            last_slow > last_plain + 15 * 10,
            "throttled {last_slow} vs nominal {last_plain}"
        );
    }

    #[test]
    fn inactive_schedule_leaves_timing_identical() {
        use crate::faults::{FaultSchedule, FaultTarget};
        let mut plain = channel();
        let mut faulted = channel();
        let s = FaultSchedule::new(0).throttle(FaultTarget::Cache, 4, 1, 1_000_000, 2_000_000);
        faulted.set_faults(s.channel_faults(FaultTarget::Cache, 0, 1));
        for i in 0..32 {
            assert_eq!(
                plain.read(i % 8, u64::from(i) / 3, 0, None),
                faulted.read(i % 8, u64::from(i) / 3, 0, None)
            );
        }
    }

    #[test]
    fn refresh_storm_costs_bandwidth() {
        use crate::faults::{FaultSchedule, FaultTarget};
        let mut plain = channel();
        let mut stormy = channel();
        let s = FaultSchedule::new(0).refresh_storm(FaultTarget::Cache, 1_000, 400, 0, Cycle::MAX);
        stormy.set_faults(s.channel_faults(FaultTarget::Cache, 0, 1));
        let mut last_plain = 0;
        let mut last_storm = 0;
        for i in 0..1_000u64 {
            last_plain = plain.read((i % 8) as u32, i / 8, 0, None);
            last_storm = stormy.read((i % 8) as u32, i / 8, 0, None);
        }
        assert!(
            last_storm > last_plain + last_plain / 4,
            "40% storm duty must cost substantial bandwidth: {last_storm} vs {last_plain}"
        );
    }

    #[test]
    fn write_queue_keeps_its_buffer_across_batches() {
        let mut c = channel();
        let batch = c.write_batch;
        let mut capacity = None;
        for round in 0..4u64 {
            for i in 0..batch as u32 {
                c.write(i % 4, round, round * 1_000);
            }
            assert_eq!(c.pending_writes(), 0, "a full batch drains");
            let cap = c.write_queue.capacity();
            assert!(cap >= batch, "drained queue kept {cap} < {batch} slots");
            assert_eq!(*capacity.get_or_insert(cap), cap, "round {round}");
        }
        // An opportunistic drain from an idle read hands the buffer back too.
        c.write(0, 9, 10_000);
        c.read(1, 9, 1_000_000, None);
        assert_eq!(c.pending_writes(), 0);
        assert_eq!(Some(c.write_queue.capacity()), capacity);
    }

    #[test]
    fn drain_on_empty_queue_is_noop() {
        let mut c = channel();
        assert_eq!(c.drain_writes(42), 42);
        assert_eq!(c.stats().cas_writes, 0);
    }
}
