//! [`SectorCache`] and [`MemSideCache`] implementations for the two
//! sector-organized architectures: the stacked-DRAM sectored cache and
//! the on-die eDRAM cache. The shared routing skeleton they feed lives in
//! [`super::sector_routing`].

use crate::clock::Cycle;
use crate::dram::DramStats;
use crate::mscache::{BlockState, EdramCache, SectorFill, SectoredDramCache};
use crate::policy::{Observation, ReadContext, ReadRoute};

use super::sector_routing::{read_sector_cache, write_sector_cache, PreRead, Probe, SectorCache};
use super::subsystem::{MemSideCache, RouteEnv};

impl SectoredDramCache {
    /// Probes the sector metadata and accounts tag-cache traffic.
    fn probe_with_stats(&mut self, env: &mut RouteEnv, block: u64, now: Cycle) -> Cycle {
        let probe = self.probe_metadata(block, now);
        env.stats.tag_cache_lookups += 1;
        if !probe.tag_cache_hit {
            env.stats.tag_cache_misses += 1;
        }
        env.stats.metadata_cas += u64::from(probe.metadata_cas);
        if let Some(sample) = env.profile.as_deref_mut() {
            // Cycle attribution: a tag-cache hit resolves in the SRAM
            // probe phase; a miss pays the DRAM-cache tag access.
            let spent = probe.resolved_at.saturating_sub(now);
            if probe.tag_cache_hit {
                sample.tag_probe += spent;
            } else {
                sample.cache_tag += spent;
            }
        }
        for _ in 0..probe.metadata_cas {
            env.observe(Observation::CacheAccess { write: false }, now);
        }
        probe.resolved_at
    }
}

impl SectorCache for SectoredDramCache {
    fn partition_set(&self, block: u64) -> Option<u64> {
        let (sector, _) = self.sector_of(block);
        Some(self.set_of(sector))
    }

    fn read_wait(&self, block: u64, now: Cycle) -> Cycle {
        self.estimated_wait(block, now)
    }

    fn pre_read(&mut self, env: &mut RouteEnv, ctx: &ReadContext, now: Cycle) -> PreRead {
        let block = ctx.block;
        let route = env.policy.route_read(ctx);

        // SBD-style steering: serve from main memory outright when safe.
        if route == ReadRoute::SteerMainMemory && self.state(block) != BlockState::DirtyHit {
            env.observe(Observation::MmAccess, now);
            if self.state(block) == BlockState::Miss {
                env.stats.ms_read_misses += 1;
                env.observe(Observation::ReadMiss, now);
            } else {
                env.stats.ms_read_hits += 1;
            }
            return PreRead::Done(env.mm.read_block(block, now));
        }

        // SFRM launches the main-memory read in parallel with the tag
        // lookup.
        if route == ReadRoute::Speculative {
            env.stats.speculative_forced += 1;
            PreRead::Continue {
                speculative: Some(env.mm.read_block(block, now)),
            }
        } else {
            PreRead::Continue { speculative: None }
        }
    }

    fn read_probe(&mut self, env: &mut RouteEnv, block: u64, now: Cycle) -> Probe {
        let resolved_at = self.probe_with_stats(env, block, now);
        Probe {
            data_at: resolved_at,
            mm_at: resolved_at,
        }
    }

    fn write_probe(&mut self, env: &mut RouteEnv, block: u64, now: Cycle) {
        let _ = self.probe_with_stats(env, block, now);
    }

    fn state(&self, block: u64) -> BlockState {
        SectoredDramCache::state(self, block)
    }

    fn sector_present(&self, block: u64) -> bool {
        SectoredDramCache::sector_present(self, block)
    }

    fn read_data(&mut self, block: u64, at: Cycle) -> Cycle {
        SectoredDramCache::read_data(self, block, at)
    }

    fn write_data(&mut self, block: u64, now: Cycle, dirty: bool) {
        let _ = SectoredDramCache::write_data(self, block, now, dirty);
    }

    fn invalidate_block(&mut self, block: u64) {
        SectoredDramCache::invalidate_block(self, block);
    }

    fn try_fill_resident(&mut self, block: u64, now: Cycle) -> bool {
        if SectoredDramCache::sector_present(self, block) {
            let _ = SectoredDramCache::write_data(self, block, now, false);
            true
        } else {
            false
        }
    }

    fn allocate_sector(&mut self, block: u64, now: Cycle) -> SectorFill {
        self.allocate(block, now)
    }

    fn read_for_eviction(&mut self, block: u64, now: Cycle) {
        let _ = SectoredDramCache::read_for_eviction(self, block, now);
    }
}

impl MemSideCache for SectoredDramCache {
    fn read(&mut self, env: &mut RouteEnv, block: u64, core: usize, _pc: u64, now: Cycle) -> Cycle {
        read_sector_cache(self, env, block, core, now)
    }

    fn write(&mut self, env: &mut RouteEnv, block: u64, now: Cycle) {
        write_sector_cache(self, env, block, now)
    }

    fn queue_wait(&self, block: u64, now: Cycle) -> Cycle {
        self.estimated_wait(block, now)
    }

    fn flush(&mut self, now: Cycle) {
        SectoredDramCache::flush(self, now);
    }

    fn cas_total(&self) -> u64 {
        self.dram().stats().cas_total()
    }

    fn dram_stats(&self) -> Option<DramStats> {
        Some(self.dram().stats())
    }

    fn tag_cache_miss_ratio(&self) -> Option<f64> {
        self.tag_cache().map(|tc| tc.miss_ratio())
    }

    fn apply_faults(&mut self, schedule: &crate::faults::FaultSchedule) {
        SectoredDramCache::apply_faults(self, schedule);
    }

    fn next_scheduled_event(&self, now: Cycle) -> Cycle {
        self.dram().next_scheduled_event(now)
    }

    fn apply_maintenance(
        &mut self,
        env: &mut RouteEnv,
        disabled_sets: &[u64],
        sectors_to_clean: &[u64],
        now: Cycle,
    ) {
        // BATMAN: disabled sets lose their contents entirely.
        for &set in disabled_sets {
            for dirty in self.flush_set(set) {
                let _ = SectoredDramCache::read_for_eviction(self, dirty, now);
                env.mm.write_block(dirty, now);
                env.stats.ms_dirty_evictions += 1;
            }
        }
        // SBD: evicted Dirty List pages are cleaned but stay resident.
        for &sector in sectors_to_clean {
            for dirty in self.clean_sector(sector) {
                let _ = SectoredDramCache::read_for_eviction(self, dirty, now);
                env.mm.write_block(dirty, now);
                env.stats.ms_dirty_evictions += 1;
            }
        }
    }
}

impl SectorCache for EdramCache {
    fn partition_set(&self, _block: u64) -> Option<u64> {
        // On-die eDRAM has no policy-disableable sets.
        None
    }

    fn read_wait(&self, block: u64, now: Cycle) -> Cycle {
        self.estimated_read_wait(block, now)
    }

    fn read_probe(&mut self, env: &mut RouteEnv, block: u64, now: Cycle) -> Probe {
        self.touch(block);
        if let Some(sample) = env.profile.as_deref_mut() {
            // On-die tags: the check is a fixed array-tag latency, with
            // no SRAM tag-cache phase in front of it.
            sample.cache_tag += self.tag_latency();
        }
        Probe {
            // On-die tags: data reads start immediately (the array call
            // accounts its own latency); fall-through main-memory reads
            // wait for the tag check.
            data_at: now,
            mm_at: now + self.tag_latency(),
        }
    }

    fn write_probe(&mut self, env: &mut RouteEnv, block: u64, _now: Cycle) {
        self.touch(block);
        if let Some(sample) = env.profile.as_deref_mut() {
            sample.cache_tag += self.tag_latency();
        }
    }

    fn state(&self, block: u64) -> BlockState {
        EdramCache::state(self, block)
    }

    fn sector_present(&self, block: u64) -> bool {
        EdramCache::sector_present(self, block)
    }

    fn read_data(&mut self, block: u64, at: Cycle) -> Cycle {
        EdramCache::read_data(self, block, at)
    }

    fn write_data(&mut self, block: u64, now: Cycle, dirty: bool) {
        let _ = EdramCache::write_data(self, block, now, dirty);
    }

    fn invalidate_block(&mut self, block: u64) {
        EdramCache::invalidate_block(self, block);
    }

    fn try_fill_resident(&mut self, block: u64, now: Cycle) -> bool {
        EdramCache::write_data(self, block, now, false)
    }

    fn allocate_sector(&mut self, block: u64, now: Cycle) -> SectorFill {
        self.allocate(block, now)
    }

    fn read_for_eviction(&mut self, block: u64, now: Cycle) {
        let _ = EdramCache::read_for_eviction(self, block, now);
    }
}

impl MemSideCache for EdramCache {
    fn read(&mut self, env: &mut RouteEnv, block: u64, core: usize, _pc: u64, now: Cycle) -> Cycle {
        read_sector_cache(self, env, block, core, now)
    }

    fn write(&mut self, env: &mut RouteEnv, block: u64, now: Cycle) {
        write_sector_cache(self, env, block, now)
    }

    fn queue_wait(&self, block: u64, now: Cycle) -> Cycle {
        self.estimated_read_wait(block, now)
    }

    fn flush(&mut self, now: Cycle) {
        EdramCache::flush(self, now);
    }

    fn cas_total(&self) -> u64 {
        self.read_path().stats().cas_total() + self.write_path().stats().cas_total()
    }

    fn dram_stats(&self) -> Option<DramStats> {
        let r = self.read_path().stats();
        let w = self.write_path().stats();
        Some(DramStats {
            cas_reads: r.cas_reads + w.cas_reads,
            cas_writes: r.cas_writes + w.cas_writes,
            row_hits: r.row_hits + w.row_hits,
            row_misses: r.row_misses + w.row_misses,
        })
    }

    fn apply_faults(&mut self, schedule: &crate::faults::FaultSchedule) {
        EdramCache::apply_faults(self, schedule);
    }

    fn next_scheduled_event(&self, now: Cycle) -> Cycle {
        self.read_path()
            .next_scheduled_event(now)
            .min(self.write_path().next_scheduled_event(now))
    }
}
