//! Cycle-attribution profiling: where do a demand access's cycles go?
//!
//! The DAP paper's argument is about *queueing* — when the memory-side
//! cache saturates, reads pile up behind its channels while main-memory
//! bandwidth idles, and the controller's per-window grants should collapse
//! that cache-queue wait. This module makes the claim observable: a
//! deterministic 1-in-N sample of demand accesses is decomposed into the
//! phases of the Section IV service path
//!
//! | phase | meaning |
//! |---|---|
//! | `tag_probe` | SRAM tag-cache probe that resolved the metadata |
//! | `cache_tag` | DRAM-cache (or on-die eDRAM) tag access on a tag-cache miss |
//! | `cache_queue_wait` | memory-side-cache queue depth at arrival |
//! | `mm_queue_wait` | main-memory queue depth at arrival |
//! | `channel_cas` | residual service time at the serving source's channels |
//! | `dap_decision` | queue-wait gap `|cache - mm|` the grant decided across |
//!
//! and accumulated two ways: per-phase histograms in the shared metrics
//! registry (`prof.*`, flushed with the rest of
//! [`SubsystemTelemetry`](crate::telemetry::SubsystemTelemetry)), and
//! per-DAP-window [`ProfileWindow`] rollups pushed through the
//! `TelemetrySink` so a window trace shows the queue-wait shift in time.
//!
//! ## Determinism and cost
//!
//! Sampling is address-hash based (a SplitMix64 finalizer over the block
//! number) — no RNG, no state — so the same simulation samples the same
//! accesses at any thread count. Unsampled accesses pay one hash and one
//! branch; under the `telemetry-off` feature [`AccessProfiler::from_env`]
//! returns `None` and the entire subsystem compiles down to nothing.
//! Profiling reads only `&self` estimates and pre-existing statistics, so
//! it can never perturb simulation timing.

use std::sync::Arc;

use dap_core::{splitmix, DecisionStats, ProfileWindow, TelemetrySink};

use crate::clock::Cycle;

/// Environment variable selecting the sampling interval: profile one in
/// `N` demand accesses (default [`DEFAULT_SAMPLE_INTERVAL`]); `0`
/// disables profiling entirely.
pub const SAMPLE_ENV: &str = "DAP_PROFILE_SAMPLE";

/// Default sampling interval: one in 64 demand accesses.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 64;

/// The phase decomposition of one sampled demand access. Cycles, except
/// the flags. Routing layers fill the tag phases through
/// `RouteEnv::profile`; the subsystem fills the rest centrally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSample {
    /// Whether this was a demand write (L3 dirty eviction).
    pub write: bool,
    /// Cycles resolving tags in the SRAM tag cache.
    pub tag_probe: u64,
    /// Cycles resolving tags in the cache array itself (tag-cache miss,
    /// or on-die eDRAM tag latency).
    pub cache_tag: u64,
    /// Memory-side-cache queue depth when the access arrived.
    pub cache_queue_wait: u64,
    /// Main-memory queue depth when the access arrived.
    pub mm_queue_wait: u64,
    /// Residual channel service time at the serving source (completion
    /// latency minus the serving queue wait and tag phases).
    pub channel_cas: u64,
    /// The queue-wait gap a DAP grant decided across (`|cache - mm|`),
    /// zero when no technique fired on this access.
    pub dap_decision: u64,
    /// Whether a DAP technique credit was applied to this access.
    pub granted: bool,
}

/// Returns `true` when any technique-application counter advanced between
/// the two [`DecisionStats`] snapshots — i.e. a DAP grant fired somewhere
/// inside the routed access.
#[must_use]
pub fn grant_fired(before: &DecisionStats, after: &DecisionStats) -> bool {
    after.fwb > before.fwb
        || after.wb > before.wb
        || after.ifrm > before.ifrm
        || after.sfrm > before.sfrm
        || after.write_through > before.write_through
}

/// Deterministic 1-in-N access sampler plus the per-window rollup state.
///
/// Created by [`AccessProfiler::from_env`] when the build records
/// telemetry and the interval is non-zero; the subsystem holds it as an
/// `Option` so disabled builds pay nothing.
pub struct AccessProfiler {
    interval: u64,
    window_cycles: u64,
    current: ProfileWindow,
    /// Whether `current` has accumulated anything since the last emit.
    dirty: bool,
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl AccessProfiler {
    /// Builds a profiler sampling one in `interval` accesses over DAP
    /// windows of `window_cycles`. Returns `None` for a zero interval.
    #[must_use]
    pub fn new(interval: u64, window_cycles: u32) -> Option<Self> {
        if interval == 0 || !dap_telemetry::enabled() {
            return None;
        }
        Some(Self {
            interval,
            window_cycles: u64::from(window_cycles.max(1)),
            current: ProfileWindow::default(),
            dirty: false,
            sink: None,
        })
    }

    /// Builds the profiler from [`SAMPLE_ENV`] (default 1-in-64; `0` or
    /// an unparseable value disables). Always `None` under the
    /// `telemetry-off` feature.
    #[must_use]
    pub fn from_env(window_cycles: u32) -> Option<Self> {
        if !dap_telemetry::enabled() {
            return None;
        }
        let interval = match std::env::var(SAMPLE_ENV) {
            Ok(raw) => raw.trim().parse::<u64>().ok().unwrap_or(0),
            Err(_) => DEFAULT_SAMPLE_INTERVAL,
        };
        Self::new(interval, window_cycles)
    }

    /// The sampling interval (one in `interval` accesses).
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Whether the access to `block` is in the deterministic sample.
    #[inline]
    #[must_use]
    pub fn samples(&self, block: u64) -> bool {
        self.interval == 1 || splitmix::mix64(block).is_multiple_of(self.interval)
    }

    /// Attaches the sink that receives per-window rollups (the same sink
    /// the DAP controller's window trace goes to).
    pub fn attach_sink(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.sink = Some(sink);
    }

    /// Folds one sampled access into the rollup of the window containing
    /// `now`, emitting the previous window to the sink when a boundary
    /// was crossed.
    pub fn record(&mut self, now: Cycle, sample: &PhaseSample) {
        let index = now / self.window_cycles;
        if index != self.current.window_index {
            self.emit();
            self.current.window_index = index;
        }
        self.dirty = true;
        self.current.samples += 1;
        self.current.grants += u64::from(sample.granted);
        self.current.tag_probe += sample.tag_probe;
        self.current.cache_tag += sample.cache_tag;
        self.current.cache_queue_wait += sample.cache_queue_wait;
        self.current.mm_queue_wait += sample.mm_queue_wait;
        self.current.channel_cas += sample.channel_cas;
        self.current.dap_decision += sample.dap_decision;
    }

    /// Emits the in-progress window (if non-empty) and resets it. Called
    /// at window boundaries and from `MemorySubsystem::finalize` so the
    /// trailing partial window is never lost.
    pub fn emit(&mut self) {
        if self.dirty {
            if let Some(sink) = self.sink.as_ref() {
                sink.record_profile_window(&self.current);
            }
        }
        let index = self.current.window_index;
        self.current = ProfileWindow {
            window_index: index,
            ..ProfileWindow::default()
        };
        self.dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_near_target_rate() {
        let Some(profiler) = AccessProfiler::new(64, 64) else {
            assert!(!dap_telemetry::enabled());
            return;
        };
        let hits: Vec<u64> = (0..100_000u64).filter(|&b| profiler.samples(b)).collect();
        // The hash is uniform: 1-in-64 sampling over 100k distinct blocks
        // lands within a loose band around 1562.
        assert!(
            (1_000..2_300).contains(&hits.len()),
            "sampled {} of 100000",
            hits.len()
        );
        let again: Vec<u64> = (0..100_000u64).filter(|&b| profiler.samples(b)).collect();
        assert_eq!(hits, again, "address-hash sampling has no state");
        let every = AccessProfiler::new(1, 64).unwrap();
        assert!((0..1000u64).all(|b| every.samples(b)));
    }

    #[test]
    fn zero_interval_disables() {
        assert!(AccessProfiler::new(0, 64).is_none());
    }

    #[test]
    fn windows_roll_and_trailing_partial_is_emitted() {
        if !dap_telemetry::enabled() {
            return;
        }
        let recorder = Arc::new(dap_telemetry::WindowTraceRecorder::new(128));
        let mut profiler = AccessProfiler::new(1, 64).unwrap();
        profiler.attach_sink(recorder.clone());
        let sample = PhaseSample {
            cache_queue_wait: 10,
            granted: true,
            ..PhaseSample::default()
        };
        profiler.record(10, &sample);
        profiler.record(20, &sample);
        profiler.record(70, &sample); // crosses into window 1
        profiler.record(300, &sample); // crosses into window 4
        profiler.emit(); // finalize: flush the partial window 4
        let windows = recorder.profile_windows();
        assert_eq!(
            windows.iter().map(|w| w.window_index).collect::<Vec<_>>(),
            vec![0, 1, 4]
        );
        assert_eq!(windows[0].samples, 2);
        assert_eq!(windows[0].cache_queue_wait, 20);
        assert_eq!(windows[0].grants, 2);
        assert_eq!(windows[2].samples, 1);
        profiler.emit();
        assert_eq!(
            recorder.profile_windows().len(),
            3,
            "an empty emit adds nothing"
        );
    }

    #[test]
    fn grant_detection_diffs_every_technique_counter() {
        let before = DecisionStats::default();
        assert!(!grant_fired(&before, &before));
        for field in 0..5 {
            let mut after = DecisionStats::default();
            match field {
                0 => after.fwb = 1,
                1 => after.wb = 1,
                2 => after.ifrm = 1,
                3 => after.sfrm = 1,
                _ => after.write_through = 1,
            }
            assert!(grant_fired(&before, &after), "field {field}");
        }
        // Window bookkeeping advancing is not a grant.
        let after = DecisionStats {
            windows_total: 5,
            windows_partitioned: 2,
            bandwidth_resolves: 1,
            ..DecisionStats::default()
        };
        assert!(!grant_fired(&before, &after));
    }
}
