//! The telemetry seam: per-window snapshots of the DAP control loop.
//!
//! DAP's contribution is a *control loop* — observe one window, solve,
//! load credits, spend them — yet end-of-run aggregates cannot show how
//! that loop behaves: whether the credit counters converge, when SFRM
//! fires, or how far the solved partition sits from the Eq. 4 ideal
//! `f_i = B_i / ΣB`. This module defines the event the controller emits
//! at every window boundary ([`WindowSnapshot`]) and the sink interface
//! ([`TelemetrySink`]) an observability layer implements to receive it.
//!
//! The seam is deliberately lightweight: when no sink is attached the
//! controller skips all snapshot assembly (a single `Option` check per
//! window), and the `dap-telemetry` crate's `telemetry-off` feature turns
//! the recording side into no-ops without touching this crate.

use std::fmt;
use std::sync::Arc;

use crate::alloy::AlloyPlan;
use crate::bandwidth::proportional_split;
use crate::edram::EdramPlan;
use crate::ratio::Ratio;
use crate::sectored::SectoredPlan;
use crate::window::WindowStats;

/// The maximum number of bandwidth sources any architecture exposes
/// (read channels, write channels, main memory — the eDRAM case).
pub const MAX_SOURCES: usize = 3;

/// Per-technique counts, either *granted* (credits loaded at a window
/// boundary) or *applied* (credits actually consumed during a window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TechniqueCounts {
    /// Fill write bypasses.
    pub fwb: u32,
    /// Write bypasses.
    pub wb: u32,
    /// Informed forced read misses.
    pub ifrm: u32,
    /// Speculative forced read misses.
    pub sfrm: u32,
    /// Write-throughs (Alloy only).
    pub write_through: u32,
}

impl TechniqueCounts {
    /// Sum over all techniques.
    pub fn total(&self) -> u64 {
        u64::from(self.fwb)
            + u64::from(self.wb)
            + u64::from(self.ifrm)
            + u64::from(self.sfrm)
            + u64::from(self.write_through)
    }
}

/// The solved access fractions for one window, next to the Eq. 4 ideal.
///
/// `solved[i]` is the fraction of the window's accesses each bandwidth
/// source would serve *after* the computed partition plan is applied;
/// `ideal[i]` is the bandwidth-proportional optimum `B_i / ΣB`. Only the
/// first `sources` entries are meaningful. For a window with no traffic
/// the solved fractions are reported *at* the ideal (the partition a
/// traffic-free window trivially satisfies), so `Σ solved[i] = 1` holds
/// for every record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceFractions {
    /// Number of meaningful entries (2 for single-bus/Alloy, 3 for eDRAM).
    pub sources: u8,
    /// Post-plan access fraction per source.
    pub solved: [f64; MAX_SOURCES],
    /// Bandwidth-proportional ideal per source (Eq. 4).
    pub ideal: [f64; MAX_SOURCES],
}

impl SourceFractions {
    /// Largest absolute deviation `|solved_i - ideal_i|` over the sources.
    pub fn max_deviation(&self) -> f64 {
        (0..usize::from(self.sources))
            .map(|i| (self.solved[i] - self.ideal[i]).abs())
            .fold(0.0, f64::max)
    }
}

/// Everything the controller knows at one window boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSnapshot {
    /// Zero-based index of the window that just ended.
    pub window_index: u64,
    /// CPU cycle at which the window ended (`(index + 1) * W` — the
    /// controller aligns boundaries to multiples of the window length).
    pub end_cycle: u64,
    /// The access counts observed during the window.
    pub stats: WindowStats,
    /// Whether the solver produced a non-idle plan for the next window.
    pub partitioned: bool,
    /// Credits granted for the *next* window by this boundary's solve.
    pub granted: TechniqueCounts,
    /// Credits consumed *during* the window that just ended.
    pub applied: TechniqueCounts,
    /// Solved access fractions vs. the Eq. 4 ideal.
    pub fractions: SourceFractions,
}

/// Per-window cycle-attribution totals from the simulator-side profiler.
///
/// The `mem-sim` access profiler samples demand reads/writes 1-in-N by
/// address hash and decomposes each sampled access into phases (see the
/// profiler's phase taxonomy). At every window boundary the sampled
/// totals are rolled up into one of these records, so a trace can show
/// the queue-wait shift Sec. III predicts when DAP activates. All cycle
/// fields are *sums over the window's sampled accesses*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileWindow {
    /// Zero-based index of the window the totals cover.
    pub window_index: u64,
    /// Sampled accesses folded into this window.
    pub samples: u64,
    /// Sampled accesses whose route a granted DAP technique changed.
    pub grants: u64,
    /// Cycles resolving tags in the SRAM tag cache.
    pub tag_probe: u64,
    /// Cycles resolving tags/metadata in the DRAM-cache array.
    pub cache_tag: u64,
    /// Cache-queue wait cycles observed at access arrival.
    pub cache_queue_wait: u64,
    /// Main-memory-queue wait cycles observed at access arrival.
    pub mm_queue_wait: u64,
    /// Channel CAS service cycles (completion minus waits and tag work).
    pub channel_cas: u64,
    /// Cycles traded by DAP grant decisions (the queue-estimate
    /// differential between the two sources at decision time).
    pub dap_decision: u64,
}

/// A consumer of per-window controller snapshots.
///
/// Implementations must be cheap and non-blocking on the caller's side —
/// the controller invokes this once per window from the simulation hot
/// loop. `&self` plus `Send + Sync` lets one sink be shared by cloned
/// controllers and inspected from other threads.
pub trait TelemetrySink: Send + Sync {
    /// Records one window-boundary snapshot.
    fn record_window(&self, snapshot: &WindowSnapshot);

    /// Records one checked-mode audit violation (see [`crate::audit`]).
    /// The default does nothing so plain recorders need no changes.
    fn record_violation(&self, violation: &crate::audit::AuditViolation) {
        let _ = violation;
    }

    /// Records one window's profiler cycle-attribution totals (emitted by
    /// the `mem-sim` access profiler, not the controller). The default
    /// does nothing so plain recorders need no changes.
    fn record_profile_window(&self, window: &ProfileWindow) {
        let _ = window;
    }
}

/// An optional shared sink, `Debug`/`Clone` so controller types keep
/// their derives without requiring `Debug` of the sink itself.
#[derive(Clone, Default)]
pub struct SinkSlot(Option<Arc<dyn TelemetrySink>>);

impl SinkSlot {
    /// An empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a sink (replacing any previous one).
    pub fn attach(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.0 = Some(sink);
    }

    /// The sink, if one is attached.
    pub fn get(&self) -> Option<&Arc<dyn TelemetrySink>> {
        self.0.as_ref()
    }

    /// Whether a sink is attached.
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }
}

impl fmt::Debug for SinkSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "SinkSlot(attached)"
        } else {
            "SinkSlot(none)"
        })
    }
}

/// Builds a [`SourceFractions`] from post-plan access counts and raw
/// per-source bandwidth weights. The Eq. 4 ideal is the normalized weight
/// vector, so a dark source (weight zero) gets an ideal of *exactly*
/// zero — something the rational `K` encoding cannot express. If every
/// weight is zero (all sources dark) the ideal degenerates to uniform.
fn weighted(
    sources: u8,
    after: [f64; MAX_SOURCES],
    weights: [f64; MAX_SOURCES],
) -> SourceFractions {
    let n = usize::from(sources);
    let mut ideal = [0.0; MAX_SOURCES];
    if !proportional_split(&weights.map(|w| w.max(0.0))[..n], &mut ideal[..n]) {
        ideal[..n].fill(1.0 / n as f64);
    }
    let total: f64 = after[..n].iter().sum();
    let mut solved = ideal;
    if total > 0.0 {
        for i in 0..n {
            solved[i] = after[i] / total;
        }
    }
    SourceFractions {
        sources,
        solved,
        ideal,
    }
}

fn two_source(cache_after: f64, mm_after: f64, k: Ratio) -> SourceFractions {
    two_source_weighted(
        cache_after,
        mm_after,
        f64::from(k.numerator()),
        f64::from(k.denominator()),
    )
}

fn two_source_weighted(
    cache_after: f64,
    mm_after: f64,
    cache_weight: f64,
    mm_weight: f64,
) -> SourceFractions {
    weighted(
        2,
        [cache_after, mm_after, 0.0],
        [cache_weight, mm_weight, 0.0],
    )
}

fn sectored_after(stats: &WindowStats, plan: &SectoredPlan) -> (f64, f64) {
    let moved_to_mm = f64::from(plan.n_wb() + plan.n_ifrm() + plan.n_sfrm);
    let removed = f64::from(plan.n_fwb) + moved_to_mm;
    let cache_after = (f64::from(stats.cache_accesses) - removed).max(0.0);
    let mm_after = f64::from(stats.mm_accesses) + moved_to_mm;
    (cache_after, mm_after)
}

/// Post-plan fractions for the sectored (single-bus) architecture: the
/// plan removes `N_FWB + N_WB + N_IFRM + N_SFRM` accesses from the cache
/// and adds the WB/IFRM/SFRM share to main memory (a bypassed fill
/// vanishes — its read miss already paid the main-memory access).
pub fn sectored_fractions(stats: &WindowStats, plan: &SectoredPlan, k: Ratio) -> SourceFractions {
    let (cache_after, mm_after) = sectored_after(stats, plan);
    two_source(cache_after, mm_after, k)
}

/// [`sectored_fractions`] against *measured* per-source bandwidths
/// (GB/s or any common unit): the ideal is the normalized weight vector,
/// so a dark source's ideal is exactly zero.
pub fn sectored_fractions_weighted(
    stats: &WindowStats,
    plan: &SectoredPlan,
    cache_weight: f64,
    mm_weight: f64,
) -> SourceFractions {
    let (cache_after, mm_after) = sectored_after(stats, plan);
    two_source_weighted(cache_after, mm_after, cache_weight, mm_weight)
}

fn alloy_after(stats: &WindowStats, plan: &AlloyPlan) -> (f64, f64) {
    let ifrm = f64::from(plan.n_ifrm);
    let wt = f64::from(plan.n_write_through);
    let cache_after = (f64::from(stats.cache_accesses) - ifrm).max(0.0);
    let mm_after = f64::from(stats.mm_accesses) + ifrm + wt;
    (cache_after, mm_after)
}

/// Post-plan fractions for the Alloy architecture: IFRM moves reads to
/// main memory; write-through keeps the cache write and mirrors it to
/// main memory.
pub fn alloy_fractions(stats: &WindowStats, plan: &AlloyPlan, k: Ratio) -> SourceFractions {
    let (cache_after, mm_after) = alloy_after(stats, plan);
    two_source(cache_after, mm_after, k)
}

/// [`alloy_fractions`] against measured per-source bandwidth weights.
pub fn alloy_fractions_weighted(
    stats: &WindowStats,
    plan: &AlloyPlan,
    cache_weight: f64,
    mm_weight: f64,
) -> SourceFractions {
    let (cache_after, mm_after) = alloy_after(stats, plan);
    two_source_weighted(cache_after, mm_after, cache_weight, mm_weight)
}

fn edram_after(stats: &WindowStats, plan: &EdramPlan) -> [f64; MAX_SOURCES] {
    let read_after = (f64::from(stats.cache_read_accesses) - f64::from(plan.n_ifrm)).max(0.0);
    let write_after =
        (f64::from(stats.cache_write_accesses) - f64::from(plan.n_fwb + plan.n_wb)).max(0.0);
    let mm_after = f64::from(stats.mm_accesses) + f64::from(plan.n_wb + plan.n_ifrm);
    [read_after, write_after, mm_after]
}

/// Post-plan fractions for the split-channel eDRAM architecture (three
/// sources: read channels, write channels, main memory). FWB and WB
/// relieve the write channels; IFRM relieves the read channels; WB and
/// IFRM add main-memory traffic.
pub fn edram_fractions(stats: &WindowStats, plan: &EdramPlan, k: Ratio) -> SourceFractions {
    let num = f64::from(k.numerator());
    let den = f64::from(k.denominator());
    weighted(3, edram_after(stats, plan), [num, num, den])
}

/// [`edram_fractions`] against measured per-direction and main-memory
/// bandwidth weights (three sources: read channels, write channels, main
/// memory).
pub fn edram_fractions_weighted(
    stats: &WindowStats,
    plan: &EdramPlan,
    read_weight: f64,
    write_weight: f64,
    mm_weight: f64,
) -> SourceFractions {
    weighted(
        3,
        edram_after(stats, plan),
        [read_weight, write_weight, mm_weight],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn fractions_sum_to_one_and_stay_in_range() {
        let k = Ratio::new(11, 4);
        let stats = WindowStats {
            cache_accesses: 40,
            mm_accesses: 2,
            read_misses: 6,
            writes: 10,
            clean_read_hits: 12,
            ..Default::default()
        };
        let plan = SectoredPlan {
            n_fwb: 6,
            wb_scaled: 45,
            ifrm_scaled: 30,
            n_sfrm: 2,
            k_plus_one_num: 15,
        };
        let f = sectored_fractions(&stats, &plan, k);
        assert_eq!(f.sources, 2);
        let sum: f64 = f.solved[..2].iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "Σf = {sum}");
        assert!(f.solved[..2].iter().all(|&v| (0.0..=1.0).contains(&v)));
        let ideal_sum: f64 = f.ideal[..2].iter().sum();
        assert!((ideal_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_window_reports_fractions_at_the_ideal() {
        let k = Ratio::new(11, 4);
        let f = sectored_fractions(&WindowStats::default(), &SectoredPlan::default(), k);
        assert_eq!(f.solved, f.ideal);
        assert!(f.max_deviation() < 1e-15);
    }

    #[test]
    fn edram_fractions_cover_three_sources() {
        let k = Ratio::new(11, 8);
        let stats = WindowStats {
            cache_read_accesses: 20,
            cache_write_accesses: 20,
            cache_accesses: 40,
            mm_accesses: 1,
            read_misses: 4,
            writes: 12,
            clean_read_hits: 15,
        };
        let plan = EdramPlan {
            n_fwb: 4,
            n_wb: 3,
            n_ifrm: 2,
        };
        let f = edram_fractions(&stats, &plan, k);
        assert_eq!(f.sources, 3);
        let sum: f64 = f.solved.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        let ideal_sum: f64 = f.ideal.iter().sum();
        assert!((ideal_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plan_moves_solved_fractions_toward_ideal() {
        let k = Ratio::new(11, 4);
        let stats = WindowStats {
            cache_accesses: 40,
            mm_accesses: 2,
            ..Default::default()
        };
        let idle = SectoredPlan::default();
        let active = SectoredPlan {
            n_fwb: 4,
            wb_scaled: 60,
            ifrm_scaled: 30,
            n_sfrm: 1,
            k_plus_one_num: 15,
        };
        let before = sectored_fractions(&stats, &idle, k);
        let after = sectored_fractions(&stats, &active, k);
        assert!(after.max_deviation() < before.max_deviation());
    }

    #[test]
    fn weighted_ideal_zeroes_a_dark_source() {
        let stats = WindowStats {
            cache_accesses: 40,
            mm_accesses: 2,
            ..Default::default()
        };
        let f = sectored_fractions_weighted(&stats, &SectoredPlan::default(), 0.0, 38.4);
        assert_eq!(f.ideal[0], 0.0, "dark cache must get ideal exactly 0");
        assert!((f.ideal[1] - 1.0).abs() < 1e-12);
        let f = edram_fractions_weighted(&stats, &EdramPlan::default(), 51.2, 51.2, 0.0);
        assert_eq!(f.ideal[2], 0.0, "dark mm must get ideal exactly 0");
        assert!((f.ideal.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_matches_k_form_for_nominal_rates() {
        let stats = WindowStats {
            cache_accesses: 40,
            mm_accesses: 2,
            ..Default::default()
        };
        let plan = SectoredPlan {
            n_fwb: 3,
            wb_scaled: 30,
            ifrm_scaled: 15,
            n_sfrm: 1,
            k_plus_one_num: 15,
        };
        let by_k = sectored_fractions(&stats, &plan, Ratio::new(11, 4));
        let by_w = sectored_fractions_weighted(&stats, &plan, 11.0, 4.0);
        assert_eq!(by_k, by_w);
    }

    #[test]
    fn all_dark_degenerates_to_uniform_ideal() {
        let f = sectored_fractions_weighted(
            &WindowStats::default(),
            &SectoredPlan::default(),
            0.0,
            0.0,
        );
        assert!((f.ideal[0] - 0.5).abs() < 1e-12);
        assert!((f.ideal[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sink_slot_attaches_and_reports() {
        struct Collect(Mutex<Vec<u64>>);
        impl TelemetrySink for Collect {
            fn record_window(&self, s: &WindowSnapshot) {
                self.0.lock().unwrap().push(s.window_index);
            }
        }
        let mut slot = SinkSlot::new();
        assert!(!slot.is_attached());
        assert_eq!(format!("{slot:?}"), "SinkSlot(none)");
        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        slot.attach(sink.clone());
        assert!(slot.is_attached());
        assert_eq!(format!("{slot:?}"), "SinkSlot(attached)");
        let snap = WindowSnapshot {
            window_index: 7,
            end_cycle: 512,
            stats: WindowStats::default(),
            partitioned: false,
            granted: TechniqueCounts::default(),
            applied: TechniqueCounts::default(),
            fractions: sectored_fractions(
                &WindowStats::default(),
                &SectoredPlan::default(),
                Ratio::new(11, 4),
            ),
        };
        slot.get().unwrap().record_window(&snap);
        assert_eq!(*sink.0.lock().unwrap(), vec![7]);
    }
}
