//! BATMAN: Bandwidth-Aware Tiered-Memory Management (Chou et al.), as
//! characterized in Section VI-A4 of the DAP paper.
//!
//! BATMAN modulates the DRAM-cache *hit rate* toward the bandwidth-optimal
//! target `T = B_MS$ / (B_MS$ + B_MM)` by disabling cache sets: a disabled
//! set behaves as a miss and is never filled, pushing a fraction of
//! accesses to main memory. When a set is disabled its dirty blocks must
//! be flushed. The DAP paper's critique — disabled sets may not intersect
//! the hot region, cold sets take long to re-warm, and partitioning
//! happens even when the cache has bandwidth headroom — all emerge from
//! this mechanism.

use dap_core::bandwidth::proportional_split;
use mem_sim::clock::Cycle;
use mem_sim::{Observation, Partitioner};

/// Demand accesses per adjustment epoch.
const EPOCH: u64 = 8192;
/// Hysteresis around the target hit rate.
const DEADBAND: f64 = 0.02;
/// Fraction of all sets adjusted per epoch step.
const STEP_FRACTION: u64 = 64;

/// The BATMAN policy.
#[derive(Debug, Clone)]
pub struct Batman {
    target: f64,
    total_sets: u64,
    disabled: u64,
    epoch_demand: u64,
    epoch_misses: u64,
    newly_disabled: Vec<u64>,
}

impl Batman {
    /// Creates BATMAN for a cache with `total_sets` directory sets and the
    /// given cache/memory bandwidths (GB/s) defining the target hit rate.
    ///
    /// # Panics
    ///
    /// Panics if bandwidths are not positive or `total_sets` is zero.
    pub fn new(total_sets: u64, cache_gbps: f64, mm_gbps: f64) -> Self {
        assert!(total_sets > 0, "cache must have sets");
        assert!(
            cache_gbps > 0.0 && mm_gbps > 0.0,
            "bandwidths must be positive"
        );
        // The assert above rules out the all-dark case.
        let mut split = [0.0; 2];
        let _ = proportional_split(&[cache_gbps, mm_gbps], &mut split);
        Self {
            target: split[0],
            total_sets,
            disabled: 0,
            epoch_demand: 0,
            epoch_misses: 0,
            newly_disabled: Vec::new(),
        }
    }

    /// The target hit rate `B_MS$ / (B_MS$ + B_MM)`.
    pub fn target_hit_rate(&self) -> f64 {
        self.target
    }

    /// Currently disabled set count.
    pub fn disabled_sets(&self) -> u64 {
        self.disabled
    }

    fn adjust(&mut self) {
        let hit_rate = 1.0 - self.epoch_misses as f64 / self.epoch_demand as f64;
        let step = (self.total_sets / STEP_FRACTION).max(1);
        if hit_rate > self.target + DEADBAND {
            // Too many hits: disable more sets to push traffic to memory.
            let new_disabled = (self.disabled + step).min(self.total_sets / 2);
            for s in self.disabled..new_disabled {
                self.newly_disabled.push(s);
            }
            self.disabled = new_disabled;
        } else if hit_rate < self.target - DEADBAND {
            // Too many misses: re-enable sets (they re-warm over time).
            self.disabled = self.disabled.saturating_sub(step);
        }
        self.epoch_demand = 0;
        self.epoch_misses = 0;
    }
}

impl Partitioner for Batman {
    fn observe(&mut self, event: Observation, _now: Cycle) {
        match event {
            Observation::DemandRead | Observation::WriteDemand => {
                self.epoch_demand += 1;
                if self.epoch_demand >= EPOCH {
                    self.adjust();
                }
            }
            Observation::ReadMiss => self.epoch_misses += 1,
            _ => {}
        }
    }

    fn set_enabled(&mut self, set: u64, _now: Cycle) -> bool {
        set >= self.disabled
    }

    fn take_newly_disabled_sets(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.newly_disabled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_epoch(b: &mut Batman, misses_per_epoch: u64) {
        for i in 0..EPOCH {
            if i < misses_per_epoch {
                b.observe(Observation::ReadMiss, 0);
            }
            b.observe(Observation::DemandRead, 0);
        }
    }

    #[test]
    fn target_is_bandwidth_ratio() {
        let b = Batman::new(1024, 102.4, 38.4);
        assert!((b.target_hit_rate() - 102.4 / 140.8).abs() < 1e-12);
    }

    #[test]
    fn high_hit_rate_disables_sets() {
        let mut b = Batman::new(1024, 102.4, 38.4);
        drive_epoch(&mut b, 0); // 100% hit rate
        assert!(b.disabled_sets() > 0);
        let newly = b.take_newly_disabled_sets();
        assert_eq!(newly.len() as u64, b.disabled_sets());
        assert!(!b.set_enabled(0, 0));
        assert!(b.set_enabled(1023, 0));
    }

    #[test]
    fn low_hit_rate_reenables_sets() {
        let mut b = Batman::new(1024, 102.4, 38.4);
        drive_epoch(&mut b, 0);
        let disabled = b.disabled_sets();
        drive_epoch(&mut b, EPOCH); // 0% hit rate
        assert!(b.disabled_sets() < disabled);
    }

    #[test]
    fn hit_rate_near_target_is_stable() {
        let mut b = Batman::new(1024, 102.4, 38.4);
        // 72.7% hit rate ~ target: no adjustment.
        let misses = (EPOCH as f64 * (1.0 - b.target_hit_rate())) as u64;
        drive_epoch(&mut b, misses);
        assert_eq!(b.disabled_sets(), 0);
    }

    #[test]
    fn never_disables_more_than_half() {
        let mut b = Batman::new(1024, 102.4, 38.4);
        for _ in 0..500 {
            drive_epoch(&mut b, 0);
        }
        assert!(b.disabled_sets() <= 512);
    }

    #[test]
    fn disabled_sets_reported_once() {
        let mut b = Batman::new(1024, 102.4, 38.4);
        drive_epoch(&mut b, 0);
        let first = b.take_newly_disabled_sets();
        assert!(!first.is_empty());
        assert!(b.take_newly_disabled_sets().is_empty());
    }
}
