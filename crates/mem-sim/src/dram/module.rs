//! A multi-channel DRAM module with block-interleaved channel mapping.

use super::channel::Channel;
use super::timing::DramConfig;
use crate::clock::Cycle;
use crate::faults::{dark_until, FAULT_HORIZON};
use crate::BLOCK_BYTES;

/// Routing outcome for one request under degraded interleave.
enum Route {
    /// Service on this channel immediately.
    Live(usize),
    /// Every channel is dark right now; this one restores earliest, at
    /// the given cycle — defer the request to it.
    Resumes(usize, Cycle),
    /// Every channel is dark past the fault horizon: the request is
    /// never serviced.
    Never,
}

/// Aggregated activity counters for a module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read CAS operations.
    pub cas_reads: u64,
    /// Write CAS operations.
    pub cas_writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (activations).
    pub row_misses: u64,
}

impl DramStats {
    /// Total CAS operations (data transfers).
    pub fn cas_total(&self) -> u64 {
        self.cas_reads + self.cas_writes
    }

    /// Row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// A DRAM module: `config.channels` independent [`Channel`]s with 64-byte
/// blocks interleaved across channels, then row-interleaved across banks.
#[derive(Debug, Clone)]
pub struct DramModule {
    config: DramConfig,
    channels: Vec<Channel>,
    row_blocks: u64,
    /// `(channel_shift, row_blocks_shift, bank_shift)` when channels,
    /// blocks-per-row, and banks are all powers of two (every shipped
    /// device config): [`Self::map`] becomes three shifts and two masks
    /// instead of five integer divisions.
    map_shifts: Option<(u32, u32, u32)>,
    /// Per-channel outage windows `[start, end)`, kept for degraded-
    /// interleave routing; empty when no outage is scheduled.
    outages: Vec<Vec<(Cycle, Cycle)>>,
    /// Bus cycles of an Alloy TAD read, resolved once at construction.
    tad_burst: Cycle,
}

impl DramModule {
    /// Builds an idle module clocked against a CPU at `cpu_mhz`.
    pub fn new(config: DramConfig, cpu_mhz: f64) -> Self {
        let timing = config.resolve(cpu_mhz);
        let channels = (0..config.channels)
            .map(|_| Channel::new(timing, config.banks_per_channel, config.write_batch))
            .collect();
        let row_blocks = config.row_bytes / BLOCK_BYTES;
        let nch = u64::from(config.channels);
        let banks = u64::from(config.banks_per_channel);
        let map_shifts =
            (nch.is_power_of_two() && row_blocks.is_power_of_two() && banks.is_power_of_two())
                .then(|| {
                    (
                        nch.trailing_zeros(),
                        row_blocks.trailing_zeros(),
                        banks.trailing_zeros(),
                    )
                });
        Self {
            tad_burst: config.resolve_burst_tad(),
            config,
            channels,
            row_blocks,
            map_shifts,
            outages: Vec::new(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Resolves `schedule`'s events for `target` into per-channel fault
    /// state. Channels no event touches keep their fault-free fast path.
    pub fn apply_faults(
        &mut self,
        schedule: &crate::faults::FaultSchedule,
        target: crate::faults::FaultTarget,
    ) {
        let total = self.channels.len() as u32;
        for (i, ch) in self.channels.iter_mut().enumerate() {
            ch.set_faults(schedule.channel_faults(target, i as u32, total));
        }
        self.outages = (0..total)
            .map(|i| schedule.outage_windows(target, i, total))
            .collect();
        if self.outages.iter().all(Vec::is_empty) {
            self.outages.clear();
        }
    }

    /// Degraded interleave: traffic aimed at a channel that is dark when
    /// it would be *serviced* spills to the next live channel, modelling
    /// a controller that has remapped around the failure (bandwidth
    /// drops to the live-channel fraction, matching
    /// [`FaultSchedule::bandwidth_scale`]). Darkness is judged at the
    /// service estimate `max(now, bus_free_at)`, not arrival: a request
    /// arriving just before an outage whose turn comes inside it must
    /// spill too. Channels never see outages themselves — routing is the
    /// *only* mechanism, so a dead channel's service timeline can never
    /// be pushed into its own outage window. With every channel dark the
    /// request defers to whichever channel restores earliest, or is
    /// reported as never serviced when no restore precedes the fault
    /// horizon.
    ///
    /// [`FaultSchedule::bandwidth_scale`]: crate::faults::FaultSchedule::bandwidth_scale
    fn route(&self, channel: usize, now: Cycle) -> Route {
        if self.outages.is_empty() {
            return Route::Live(channel);
        }
        let until =
            |c: usize| dark_until(&self.outages[c], now.max(self.channels[c].bus_free_at()));
        if until(channel).is_none() {
            return Route::Live(channel);
        }
        let n = self.channels.len();
        for step in 1..n {
            let c = (channel + step) % n;
            if until(c).is_none() {
                return Route::Live(c);
            }
        }
        // Every channel is dark at its service estimate: defer to the
        // earliest restore (ties keep the lowest index, deterministic).
        match (0..n).filter_map(|c| until(c).map(|e| (e, c))).min() {
            Some((end, c)) if end < FAULT_HORIZON => Route::Resumes(c, end),
            _ => Route::Never,
        }
    }

    /// Maps a block address to (channel, bank, row).
    #[inline]
    fn map(&self, block: u64) -> (usize, u32, u64) {
        if let Some((ch_sh, rb_sh, bank_sh)) = self.map_shifts {
            let channel = (block & ((1 << ch_sh) - 1)) as usize;
            let in_channel = block >> ch_sh;
            let bank = (in_channel >> rb_sh & ((1 << bank_sh) - 1)) as u32;
            let row = in_channel >> (rb_sh + bank_sh);
            return (channel, bank, row);
        }
        let nch = self.channels.len() as u64;
        let channel = (block % nch) as usize;
        let in_channel = block / nch;
        let banks = u64::from(self.config.banks_per_channel);
        let bank = ((in_channel / self.row_blocks) % banks) as u32;
        let row = in_channel / (self.row_blocks * banks);
        (channel, bank, row)
    }

    /// Reads a 64-byte block; returns the completion cycle. Under a
    /// full outage the read defers to the earliest channel restore, or
    /// reports the fault horizon when no restore is scheduled.
    pub fn read_block(&mut self, block: u64, now: Cycle) -> Cycle {
        let (ch, bank, row) = self.map(block);
        match self.route(ch, now) {
            Route::Live(ch) => self.channels[ch].read(bank, row, now, None),
            Route::Resumes(ch, at) => self.channels[ch].read(bank, row, at, None),
            Route::Never => FAULT_HORIZON,
        }
    }

    /// Reads an Alloy-cache TAD (72 bytes = 1.5x the burst of a block).
    pub fn read_tad(&mut self, block: u64, now: Cycle) -> Cycle {
        let (ch, bank, row) = self.map(block);
        let burst = self.tad_burst;
        match self.route(ch, now) {
            Route::Live(ch) => self.channels[ch].read(bank, row, now, Some(burst)),
            Route::Resumes(ch, at) => self.channels[ch].read(bank, row, at, Some(burst)),
            Route::Never => FAULT_HORIZON,
        }
    }

    /// Writes a 64-byte block (buffered; drains in batches). A write
    /// aimed at a module that is dark forever is lost with the device.
    pub fn write_block(&mut self, block: u64, now: Cycle) {
        let (ch, bank, row) = self.map(block);
        match self.route(ch, now) {
            Route::Live(ch) => {
                let _ = self.channels[ch].write(bank, row, now);
            }
            Route::Resumes(ch, at) => {
                let _ = self.channels[ch].write(bank, row, at);
            }
            Route::Never => {}
        }
    }

    /// Expected queueing delay for a read to `block` issued now.
    pub fn estimated_wait(&self, block: u64, now: Cycle) -> Cycle {
        let (ch, _, _) = self.map(block);
        match self.route(ch, now) {
            Route::Live(ch) => self.channels[ch].estimated_wait(now),
            Route::Resumes(ch, at) => (at - now) + self.channels[ch].estimated_wait(at),
            Route::Never => FAULT_HORIZON.saturating_sub(now),
        }
    }

    /// Earliest [`Channel::next_scheduled_event`] across the module's
    /// channels — the module's next refresh-window start or opportunistic
    /// write-drain point after `now`, `Cycle::MAX` when idle.
    pub fn next_scheduled_event(&self, now: Cycle) -> Cycle {
        self.channels
            .iter()
            .map(|ch| ch.next_scheduled_event(now))
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// Drains every channel's buffered writes (end-of-run accounting).
    pub fn flush_writes(&mut self, now: Cycle) {
        for ch in &mut self.channels {
            ch.drain_writes(now);
        }
    }

    /// Per-channel `(cas_total, busy_cycles)` pairs, in channel order —
    /// the raw material for channel-utilization telemetry.
    pub fn per_channel_activity(&self) -> Vec<(u64, Cycle)> {
        self.channels
            .iter()
            .map(|ch| (ch.stats().cas_total(), ch.busy_cycles()))
            .collect()
    }

    /// Aggregated counters across channels.
    pub fn stats(&self) -> DramStats {
        let mut out = DramStats::default();
        for ch in &self.channels {
            let s = ch.stats();
            out.cas_reads += s.cas_reads;
            out.cas_writes += s.cas_writes;
            out.row_hits += s.row_hits;
            out.row_misses += s.row_misses;
        }
        out
    }

    /// Delivered bandwidth over `elapsed` CPU cycles, in GB/s, given the
    /// CPU frequency in MHz.
    pub fn delivered_gbps(&self, elapsed: Cycle, cpu_mhz: f64) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let bytes = self.stats().cas_total() as f64 * BLOCK_BYTES as f64;
        let seconds = elapsed as f64 / (cpu_mhz * 1e6);
        bytes / seconds / 1e9
    }
}

impl DramConfig {
    /// Bus cycles for a 72-byte TAD transfer: 1.5x the block burst (the
    /// paper's 3-cycle TAD vs 2-cycle block on HBM).
    fn resolve_burst_tad(&self) -> Cycle {
        let block = self.resolve(4000.0).burst; // ratio is frequency-independent
        block * 3 / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hbm() -> DramModule {
        DramModule::new(DramConfig::hbm_102(), 4000.0)
    }

    #[test]
    fn consecutive_blocks_interleave_channels() {
        let m = hbm();
        let (c0, _, _) = m.map(0);
        let (c1, _, _) = m.map(1);
        let (c2, _, _) = m.map(2);
        assert_ne!(c0, c1);
        assert_ne!(c1, c2);
    }

    #[test]
    fn same_row_blocks_map_to_same_bank_row() {
        let m = hbm();
        // Blocks 0 and 4 are consecutive within channel 0 (stride = nch).
        let (c0, b0, r0) = m.map(0);
        let (c4, b4, r4) = m.map(4);
        assert_eq!((c0, b0, r0), (c4, b4, r4));
    }

    #[test]
    fn streaming_reads_achieve_near_peak_bandwidth() {
        // Saturate all channels with sequential reads and confirm the
        // delivered bandwidth approaches 102.4 GB/s.
        let mut m = hbm();
        let mut last = 0;
        let n = 40_000u64;
        for block in 0..n {
            last = last.max(m.read_block(block, 0));
        }
        let gbps = m.delivered_gbps(last, 4000.0);
        assert!(
            gbps > 0.9 * 102.4,
            "delivered {gbps} GB/s, expected near 102.4"
        );
        assert!(gbps <= 1.06 * 102.4, "delivered {gbps} GB/s exceeds peak");
    }

    #[test]
    fn ddr4_streams_at_its_lower_peak() {
        let mut m = DramModule::new(DramConfig::ddr4_2400(), 4000.0);
        let mut last = 0;
        for block in 0..20_000u64 {
            last = last.max(m.read_block(block, 0));
        }
        let gbps = m.delivered_gbps(last, 4000.0);
        assert!(
            gbps > 0.9 * 38.4 && gbps < 1.1 * 38.4,
            "delivered {gbps} GB/s"
        );
    }

    #[test]
    fn row_hit_rate_high_for_streaming() {
        let mut m = hbm();
        for block in 0..10_000u64 {
            m.read_block(block, 0);
        }
        assert!(m.stats().row_hit_rate() > 0.9);
    }

    #[test]
    fn random_accesses_suffer_row_misses() {
        let mut m = hbm();
        let mut x = 12345u64;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            m.read_block(x % (1 << 24), 0);
        }
        assert!(m.stats().row_hit_rate() < 0.5);
    }

    #[test]
    fn outaged_channel_traffic_spills_to_live_channels() {
        use crate::faults::{FaultSchedule, FaultTarget};
        let mut healthy = hbm();
        let mut faulted = hbm();
        let dead = FaultSchedule::new(0).channel_outage(FaultTarget::Cache, 0, 0, u64::MAX);
        faulted.apply_faults(&dead, FaultTarget::Cache);
        let (mut last_healthy, mut last_faulted) = (0, 0);
        for block in 0..40_000u64 {
            last_healthy = last_healthy.max(healthy.read_block(block, 0));
            last_faulted = last_faulted.max(faulted.read_block(block, 0));
        }
        // The dead channel serviced nothing; its traffic landed on the
        // survivors, so the same stream takes longer but still finishes.
        let activity = faulted.per_channel_activity();
        assert_eq!(activity[0], (0, 0), "dead channel must stay idle");
        assert_eq!(
            activity.iter().map(|&(cas, _)| cas).sum::<u64>(),
            40_000,
            "every read is serviced by a live channel"
        );
        assert!(last_faulted > last_healthy, "losing a channel costs time");
        let n = faulted.config().channels as f64;
        let degraded = faulted.delivered_gbps(last_faulted, 4000.0);
        let full = healthy.delivered_gbps(last_healthy, 4000.0);
        assert!(
            degraded < full && degraded > full * (n - 2.0) / n,
            "delivered {degraded} GB/s vs healthy {full} GB/s"
        );
    }

    #[test]
    fn fully_dark_module_saturates_at_the_fault_horizon() {
        use crate::faults::{FaultSchedule, FaultTarget, FAULT_HORIZON};
        let mut m = hbm();
        let mut all_dead = FaultSchedule::new(0);
        for ch in 0..m.config().channels {
            all_dead = all_dead.channel_outage(FaultTarget::Cache, ch, 0, u64::MAX);
        }
        m.apply_faults(&all_dead, FaultTarget::Cache);
        // Nowhere to spill: completion clamps instead of overflowing.
        assert_eq!(m.read_block(0, 0), FAULT_HORIZON);
        assert_eq!(m.read_block(123, 500), FAULT_HORIZON);
    }

    #[test]
    fn finite_all_dark_window_defers_to_the_earliest_restore() {
        use crate::faults::{FaultSchedule, FaultTarget};
        let mut m = hbm();
        let mut s = FaultSchedule::new(0);
        for ch in 0..m.config().channels {
            s = s.channel_outage(FaultTarget::Cache, ch, 0, 1_000 + u64::from(ch) * 500);
        }
        m.apply_faults(&s, FaultTarget::Cache);
        // Block 7 maps to channel 3 (dark until 2 500); with every
        // channel dark the read defers to channel 0, which restores
        // first (cycle 1 000), then pays a normal activation there.
        let done = m.read_block(7, 0);
        assert_eq!(done, 1_000 + 110);
        assert_eq!(m.per_channel_activity()[0].0, 1);
    }

    #[test]
    fn finite_outage_routing_restores_the_channel_afterwards() {
        use crate::faults::{FaultSchedule, FaultTarget};
        let mut m = hbm();
        let s = FaultSchedule::new(0).channel_outage(FaultTarget::Cache, 0, 0, 10_000);
        m.apply_faults(&s, FaultTarget::Cache);
        let nch = m.config().channels as u64;
        // Block 0 maps to channel 0: during the window it spills, after
        // the window it lands on channel 0 again.
        m.read_block(0, 0);
        assert_eq!(m.per_channel_activity()[0].0, 0);
        m.read_block(nch, 20_000);
        assert_eq!(m.per_channel_activity()[0].0, 1);
    }

    #[test]
    fn writes_count_after_flush() {
        let mut m = hbm();
        for block in 0..10u64 {
            m.write_block(block, 0);
        }
        m.flush_writes(0);
        assert_eq!(m.stats().cas_writes, 10);
    }

    #[test]
    fn estimated_wait_grows_with_congestion() {
        let mut m = hbm();
        assert_eq!(m.estimated_wait(0, 0), 0);
        for block in (0..4000u64).step_by(4) {
            m.read_block(block, 0); // hammer channel 0
        }
        assert!(m.estimated_wait(0, 0) > 1000);
        assert_eq!(m.estimated_wait(1, 0), 0, "other channels stay idle");
    }
}
