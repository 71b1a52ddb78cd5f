//! Shared routing for sector-organized memory-side caches.
//!
//! The stacked-DRAM sectored cache and the on-die eDRAM cache have the
//! same routing *shape* — probe, policy consultation, hit/miss/fill state
//! machine, sector allocation with footprint fetch — and differ only in a
//! handful of geometry hooks (how tags are probed, whether sets can be
//! disabled, whether SBD steering / SFRM speculation apply). The
//! [`SectorCache`] abstraction captures those hooks so the paper's
//! Section IV routing is written exactly once, in [`read_sector_cache`],
//! [`write_sector_cache`], and [`fill_sector_cache`].

use crate::clock::Cycle;
use crate::mscache::{BlockState, SectorFill};
use crate::policy::{Observation, ReadContext, WriteRoute};

use super::subsystem::RouteEnv;

/// What a cache's pre-routing step decided before the array is touched.
pub(super) enum PreRead {
    /// The read was served outright (SBD steering to main memory).
    Done(Cycle),
    /// Continue through the array; `speculative` carries an already
    /// issued main-memory read (SFRM) to use on a miss.
    Continue { speculative: Option<Cycle> },
}

/// When the array's metadata answer is available.
pub(super) struct Probe {
    /// Cycle at which a data read of the array may begin.
    pub(super) data_at: Cycle,
    /// Cycle at which a fall-through main-memory read may begin.
    pub(super) mm_at: Cycle,
}

/// The geometry hooks a sector-organized cache provides to the shared
/// routing skeleton.
pub(super) trait SectorCache {
    /// The directory set partitioning applies to, or `None` if the
    /// architecture has no policy-disableable sets (every set enabled).
    fn partition_set(&self, block: u64) -> Option<u64>;

    /// Estimated queue wait for a read of `block`.
    fn read_wait(&self, block: u64, now: Cycle) -> Cycle;

    /// Pre-routing: consult the policy's read route before the array is
    /// probed. The default continues with no speculation (architectures
    /// without SBD steering / SFRM).
    fn pre_read(&mut self, _env: &mut RouteEnv, _ctx: &ReadContext, _now: Cycle) -> PreRead {
        PreRead::Continue { speculative: None }
    }

    /// Probes tags/metadata for a read and reports when data and
    /// fall-through reads may start.
    fn read_probe(&mut self, env: &mut RouteEnv, block: u64, now: Cycle) -> Probe;

    /// Probes tags/metadata for a write.
    fn write_probe(&mut self, env: &mut RouteEnv, block: u64, now: Cycle);

    /// Block residency state.
    fn state(&self, block: u64) -> BlockState;

    /// Whether the block's sector is resident.
    fn sector_present(&self, block: u64) -> bool;

    /// Reads resident data; returns the completion cycle.
    fn read_data(&mut self, block: u64, at: Cycle) -> Cycle;

    /// Writes `block` into its resident sector.
    fn write_data(&mut self, block: u64, now: Cycle, dirty: bool);

    /// Invalidates a resident block.
    fn invalidate_block(&mut self, block: u64);

    /// Fills `block` if its sector is already resident; `true` on success.
    fn try_fill_resident(&mut self, block: u64, now: Cycle) -> bool;

    /// Allocates the sector for `block`; returns the victim's dirty
    /// blocks and the blocks to fetch.
    fn allocate_sector(&mut self, block: u64, now: Cycle) -> SectorFill;

    /// Reads a victim block out of the array for eviction write-back.
    fn read_for_eviction(&mut self, block: u64, now: Cycle);
}

/// Demand read through a sector-organized cache.
pub(super) fn read_sector_cache<C: SectorCache>(
    c: &mut C,
    env: &mut RouteEnv,
    block: u64,
    core: usize,
    now: Cycle,
) -> Cycle {
    let enabled = match c.partition_set(block) {
        Some(set) => env.policy.set_enabled(set, now),
        None => true,
    };
    let ctx = env.read_context(c.read_wait(block, now), block, core, now);
    env.observe(Observation::DemandRead, now);
    env.observe(Observation::CacheAccess { write: false }, now);

    let speculative_done = match c.pre_read(env, &ctx, now) {
        PreRead::Done(done) => return done,
        PreRead::Continue { speculative } => speculative,
    };

    let probe = c.read_probe(env, block, now);

    let state = if enabled {
        c.state(block)
    } else {
        BlockState::Miss
    };
    match state {
        BlockState::DirtyHit => {
            env.stats.ms_read_hits += 1;
            if speculative_done.is_some() {
                // The speculative main-memory data is stale; drop it.
                env.stats.speculative_wasted += 1;
            }
            c.read_data(block, probe.data_at)
        }
        BlockState::CleanHit => {
            env.observe(Observation::CleanHit, now);
            // A clean hit *served by main memory* counts as a miss in the
            // paper's hit-rate metric (served-by-cache ratio).
            if let Some(done) = speculative_done {
                env.stats.ms_read_misses += 1;
                return done;
            }
            if env.policy.force_clean_hit(&ctx) {
                env.stats.ms_read_misses += 1;
                env.stats.forced_read_misses += 1;
                return env.mm.read_block(block, probe.mm_at);
            }
            env.stats.ms_read_hits += 1;
            c.read_data(block, probe.data_at)
        }
        BlockState::Miss => {
            env.stats.ms_read_misses += 1;
            env.observe(Observation::ReadMiss, now);
            env.observe(Observation::MmAccess, now);
            let done = speculative_done.unwrap_or_else(|| env.mm.read_block(block, probe.mm_at));
            // The fill this miss implies is cache *demand* whether or not it
            // is bypassed; DAP's solver sees demand, the array sees actuals.
            env.observe(Observation::CacheAccess { write: true }, now);
            if enabled && env.policy.allow_fill(block, now) {
                fill_sector_cache(c, env, block, now);
            } else {
                env.stats.fills_bypassed += 1;
            }
            done
        }
    }
}

/// Fills `block` after a read miss, allocating its sector if needed.
fn fill_sector_cache<C: SectorCache>(c: &mut C, env: &mut RouteEnv, block: u64, now: Cycle) {
    if c.try_fill_resident(block, now) {
        env.stats.fills += 1;
        return;
    }
    let fill = c.allocate_sector(block, now);
    for victim in fill.victim_dirty {
        c.read_for_eviction(victim, now);
        env.observe(Observation::CacheAccess { write: false }, now);
        env.observe(Observation::MmAccess, now);
        env.mm.write_block(victim, now);
        env.stats.ms_dirty_evictions += 1;
    }
    for fetch in fill.fetch {
        if fetch != block {
            // Footprint prefetch: fetch from main memory, fill the array.
            env.mm.read_block(fetch, now);
            env.observe(Observation::MmAccess, now);
            env.observe(Observation::CacheAccess { write: true }, now);
            env.stats.footprint_prefetches += 1;
        }
        c.write_data(fetch, now, false);
        env.stats.fills += 1;
    }
}

/// Demand write (L3 dirty eviction) through a sector-organized cache.
pub(super) fn write_sector_cache<C: SectorCache>(
    c: &mut C,
    env: &mut RouteEnv,
    block: u64,
    now: Cycle,
) {
    let enabled = match c.partition_set(block) {
        Some(set) => env.policy.set_enabled(set, now),
        None => true,
    };
    env.observe(Observation::WriteDemand, now);
    env.observe(Observation::CacheAccess { write: true }, now);

    c.write_probe(env, block, now);

    let sector_hit = enabled && c.sector_present(block);
    let block_hit = enabled && c.state(block) != BlockState::Miss;
    if block_hit {
        env.stats.ms_write_hits += 1;
    } else {
        env.stats.ms_write_misses += 1;
    }
    match env.policy.route_write(block, now, block_hit) {
        WriteRoute::Cache => {
            if sector_hit {
                c.write_data(block, now, true);
            } else {
                // No write-allocate of a whole sector: send to main memory.
                env.observe(Observation::MmAccess, now);
                env.mm.write_block(block, now);
            }
        }
        WriteRoute::MainMemory => {
            env.stats.writes_bypassed += 1;
            if block_hit {
                c.invalidate_block(block);
            }
            env.mm.write_block(block, now);
        }
        WriteRoute::Both => {
            env.stats.write_throughs += 1;
            if sector_hit {
                c.write_data(block, now, false); // clean: memory has the data
            }
            env.mm.write_block(block, now);
        }
    }
}
