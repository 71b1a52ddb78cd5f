//! Deterministic fault injection for the DRAM devices.
//!
//! A [`FaultSchedule`] is a seeded list of cycle-stamped events that
//! degrade one side of the memory hierarchy (the memory-side cache's
//! DRAM or main memory):
//!
//! * **channel outage** — one channel issues nothing for the window;
//! * **bandwidth throttle** — a rational `num/den ≥ 1` multiplier
//!   stretching burst and CAS timing (thermal throttling);
//! * **refresh storm** — extra all-bank-refresh-style stalls every
//!   `interval` cycles (e.g. high-temperature double-rate refresh);
//! * **latency jitter** — a seeded, bounded extra latency per access.
//!
//! The schedule is pure data: [`DramModule::apply_faults`] resolves it
//! into per-channel state ([`ChannelFaults`]) that the channel timing
//! model consults inline — except outages, which resolve into
//! module-level routing state (traffic aimed at a dark channel spills
//! to the next live one, so a dead channel can never stall its own
//! service timeline). Everything is deterministic — the jitter PRNG
//! is seeded per `(schedule seed, target, channel)` and advanced only by
//! that channel's accesses — so a faulted run is exactly reproducible
//! regardless of thread count.
//!
//! [`FaultSchedule::bandwidth_scale`] reports the fraction of nominal
//! bandwidth a target can deliver at a given cycle; the memory subsystem
//! feeds that (as an `EffectiveBandwidth`) to degradation-aware DAP
//! policies so Eq. 4 is re-solved against measured rates.
//!
//! [`DramModule::apply_faults`]: crate::dram::DramModule::apply_faults

use dap_core::splitmix;

use crate::clock::Cycle;

/// Far-future clamp for outage-deferred service timelines. An access
/// deferred past this cycle (a *permanent* outage with no live channel
/// to spill to) is reported as completing exactly here, keeping every
/// downstream cycle computation finite instead of overflowing `u64`.
/// At 4 GHz this is ≈ 2 200 simulated seconds — unreachable by any run
/// this workspace performs, so clamping never distorts a live result.
pub(crate) const FAULT_HORIZON: Cycle = 1 << 43;

/// Which side of the hierarchy a fault event degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// The memory-side cache's DRAM devices (both directions, for
    /// split-channel eDRAM caches).
    Cache,
    /// Main memory.
    MainMemory,
}

/// What a fault event does while active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Channel `channel` (module-relative index) issues nothing.
    ChannelOutage {
        /// Zero-based channel index within the target module.
        channel: u32,
    },
    /// Burst and CAS timings stretch by `num/den` (`num ≥ den`), i.e.
    /// delivered bandwidth drops to `den/num` of nominal.
    Throttle {
        /// Numerator of the slowdown multiplier.
        num: u32,
        /// Denominator of the slowdown multiplier.
        den: u32,
    },
    /// Every `interval` cycles the whole channel stalls for `stall`
    /// cycles and all row buffers close, on top of normal refresh.
    RefreshStorm {
        /// Cycles between storm stalls.
        interval: Cycle,
        /// Length of each stall in cycles.
        stall: Cycle,
    },
    /// Each access completes up to `max_extra` cycles late (seeded,
    /// deterministic; pure latency — no bandwidth effect).
    LatencyJitter {
        /// Upper bound on the extra latency, inclusive.
        max_extra: Cycle,
    },
}

/// One cycle-stamped fault: `kind` degrades `target` during
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Which module the event degrades.
    pub target: FaultTarget,
    /// What the event does.
    pub kind: FaultKind,
    /// First cycle the event is active.
    pub start: Cycle,
    /// First cycle the event is no longer active.
    pub end: Cycle,
}

impl FaultEvent {
    /// Whether the event is active at `now`.
    pub fn active_at(&self, now: Cycle) -> bool {
        self.start <= now && now < self.end
    }
}

/// A deterministic, seeded schedule of fault events.
///
/// Built with the chaining constructors and attached to a
/// `SystemConfig` via `with_faults`; the simulator resolves it into
/// per-channel state at construction time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule; `seed` drives the latency-jitter PRNG.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    fn push(mut self, target: FaultTarget, kind: FaultKind, start: Cycle, end: Cycle) -> Self {
        assert!(start < end, "fault window must be non-empty");
        self.events.push(FaultEvent {
            target,
            kind,
            start,
            end,
        });
        self
    }

    /// Adds a channel outage on `target` during `[start, end)`.
    pub fn channel_outage(
        self,
        target: FaultTarget,
        channel: u32,
        start: Cycle,
        end: Cycle,
    ) -> Self {
        self.push(target, FaultKind::ChannelOutage { channel }, start, end)
    }

    /// Adds a `num/den` bandwidth throttle (`num ≥ den ≥ 1`) on `target`
    /// during `[start, end)`.
    pub fn throttle(
        self,
        target: FaultTarget,
        num: u32,
        den: u32,
        start: Cycle,
        end: Cycle,
    ) -> Self {
        assert!(
            den >= 1 && num >= den,
            "throttle must slow down: num ≥ den ≥ 1"
        );
        self.push(target, FaultKind::Throttle { num, den }, start, end)
    }

    /// Adds a refresh storm (`stall` every `interval` cycles,
    /// `stall < interval`) on `target` during `[start, end)`.
    pub fn refresh_storm(
        self,
        target: FaultTarget,
        interval: Cycle,
        stall: Cycle,
        start: Cycle,
        end: Cycle,
    ) -> Self {
        assert!(
            interval > 0 && stall < interval,
            "storm stall must be shorter than its interval"
        );
        self.push(
            target,
            FaultKind::RefreshStorm { interval, stall },
            start,
            end,
        )
    }

    /// Adds seeded latency jitter of up to `max_extra` cycles per access
    /// on `target` during `[start, end)`.
    pub fn latency_jitter(
        self,
        target: FaultTarget,
        max_extra: Cycle,
        start: Cycle,
        end: Cycle,
    ) -> Self {
        self.push(target, FaultKind::LatencyJitter { max_extra }, start, end)
    }

    /// The jitter PRNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every cycle at which some event starts or ends, sorted and
    /// deduplicated. Between consecutive boundaries the set of active
    /// events — and therefore [`bandwidth_scale`] — is constant, so a
    /// watcher need only re-evaluate when one is crossed.
    ///
    /// [`bandwidth_scale`]: FaultSchedule::bandwidth_scale
    pub fn boundaries(&self) -> Vec<Cycle> {
        let mut b: Vec<Cycle> = self.events.iter().flat_map(|e| [e.start, e.end]).collect();
        b.sort_unstable();
        b.dedup();
        b
    }

    /// Number of events on any target active at `now`.
    pub fn active_count(&self, now: Cycle) -> usize {
        self.events.iter().filter(|e| e.active_at(now)).count()
    }

    /// Fraction of nominal bandwidth `target` can deliver at `now`, in
    /// `[0, 1]`: the live-channel fraction times every active throttle's
    /// `den/num` times every active storm's duty factor
    /// `1 - stall/interval`. Latency jitter does not affect bandwidth.
    pub fn bandwidth_scale(&self, target: FaultTarget, now: Cycle, channels: u32) -> f64 {
        if channels == 0 {
            return 0.0;
        }
        let mut scale = 1.0f64;
        let mut dark: Vec<u32> = Vec::new();
        for e in self
            .events
            .iter()
            .filter(|e| e.target == target && e.active_at(now))
        {
            match e.kind {
                FaultKind::ChannelOutage { channel } => {
                    let channel = channel % channels;
                    if !dark.contains(&channel) {
                        dark.push(channel);
                    }
                }
                FaultKind::Throttle { num, den } => {
                    scale *= f64::from(den) / f64::from(num);
                }
                FaultKind::RefreshStorm { interval, stall } => {
                    scale *= 1.0 - stall as f64 / interval as f64;
                }
                FaultKind::LatencyJitter { .. } => {}
            }
        }
        scale * (f64::from(channels - dark.len() as u32) / f64::from(channels))
    }

    /// Outage windows `[start, end)` landing on channel `channel` (of
    /// `total_channels`) of `target`, in insertion order. The module
    /// uses these for degraded-interleave routing: traffic aimed at a
    /// dark channel spills to the next live one.
    pub(crate) fn outage_windows(
        &self,
        target: FaultTarget,
        channel: u32,
        total_channels: u32,
    ) -> Vec<(Cycle, Cycle)> {
        self.events
            .iter()
            .filter(|e| e.target == target)
            .filter_map(|e| match e.kind {
                FaultKind::ChannelOutage { channel: c }
                    if total_channels > 0 && c % total_channels == channel =>
                {
                    Some((e.start, e.end))
                }
                _ => None,
            })
            .collect()
    }

    /// Resolves the schedule into the state channel `channel` (of
    /// `total_channels`) on `target` consults inline; `None` when no
    /// event touches that channel (so unfaulted channels pay nothing).
    /// Outages are deliberately absent: they are resolved at the module
    /// level (degraded-interleave routing), so a channel's own service
    /// timeline never stalls on one.
    pub(crate) fn channel_faults(
        &self,
        target: FaultTarget,
        channel: u32,
        _total_channels: u32,
    ) -> Option<ChannelFaults> {
        let mut f = ChannelFaults {
            throttles: Vec::new(),
            storms: Vec::new(),
            jitters: Vec::new(),
            rng: jitter_seed(self.seed, target, channel),
        };
        for e in self.events.iter().filter(|e| e.target == target) {
            match e.kind {
                FaultKind::ChannelOutage { .. } => {}
                FaultKind::Throttle { num, den } => {
                    f.throttles.push((e.start, e.end, num, den));
                }
                FaultKind::RefreshStorm { interval, stall } => f.storms.push(StormState {
                    end: e.end,
                    interval,
                    stall,
                    next_at: e.start,
                }),
                FaultKind::LatencyJitter { max_extra } => {
                    f.jitters.push((e.start, e.end, max_extra));
                }
            }
        }
        if f.throttles.is_empty() && f.storms.is_empty() && f.jitters.is_empty() {
            None
        } else {
            Some(f)
        }
    }
}

/// If `t` falls inside one of `windows` (each `[start, end)`), the cycle
/// at which service may resume — chained and overlapping windows are
/// followed to the furthest reachable end. `None` when `t` is outside
/// every window.
pub(crate) fn dark_until(windows: &[(Cycle, Cycle)], t: Cycle) -> Option<Cycle> {
    let mut t = t;
    let mut pushed = None;
    loop {
        let next = windows
            .iter()
            .filter(|&&(s, e)| s <= t && t < e)
            .map(|&(_, e)| e)
            .max();
        match next {
            Some(e) if Some(e) != pushed => {
                pushed = Some(e);
                t = e;
            }
            _ => return pushed,
        }
    }
}

/// One refresh storm's live cursor: `next_at` is the next stall not yet
/// charged, advanced as the channel's service timeline crosses it.
#[derive(Debug, Clone)]
struct StormState {
    end: Cycle,
    interval: Cycle,
    stall: Cycle,
    next_at: Cycle,
}

/// Per-channel resolved fault state, consulted by the channel timing
/// model on every access. Holds the storm cursors and the jitter PRNG,
/// so it is stateful and owned by exactly one channel. Outages are not
/// represented here — the module routes around them instead.
#[derive(Debug, Clone)]
pub struct ChannelFaults {
    /// Throttle windows `(start, end, num, den)`.
    throttles: Vec<(Cycle, Cycle, u32, u32)>,
    storms: Vec<StormState>,
    /// Jitter windows `(start, end, max_extra)`.
    jitters: Vec<(Cycle, Cycle, Cycle)>,
    rng: u64,
}

impl ChannelFaults {
    /// Scales a timing value by the product of throttles active at `t`
    /// (rounding up, so a throttled burst never shortens).
    pub(crate) fn throttled(&self, t: Cycle, value: Cycle) -> Cycle {
        let mut v = value as u128;
        for &(s, e, num, den) in &self.throttles {
            if s <= t && t < e {
                v = (v * u128::from(num)).div_ceil(u128::from(den));
            }
        }
        v.min(u128::from(Cycle::MAX)) as Cycle
    }

    /// Next storm stall the service timeline `t` has reached but not yet
    /// paid: returns `(stall_start, stall_len)` and advances that
    /// storm's cursor. Call repeatedly until `None`.
    pub(crate) fn next_storm_stall(&mut self, t: Cycle) -> Option<(Cycle, Cycle)> {
        for s in &mut self.storms {
            if s.next_at < s.end && t >= s.next_at {
                // A timeline that jumped a huge distance (a caller
                // stalled on a fully-dark device elsewhere) would step
                // the cursor one interval at a time. Intermediate
                // stalls only leapfrog the bus to the next stall's
                // start, so skipping all but the last one leaves the
                // channel in the identical final state.
                let pending = (t.min(s.end - 1) - s.next_at) / s.interval;
                if pending > (1 << 16) {
                    s.next_at += (pending - 1) * s.interval;
                }
                let at = s.next_at;
                s.next_at += s.interval;
                return Some((at, s.stall));
            }
        }
        None
    }

    /// Extra completion latency for an access at `t` (0 outside jitter
    /// windows). Advances the PRNG only when jitter is active, keeping
    /// unjittered schedules byte-identical to fault-free timing.
    pub(crate) fn jitter_extra(&mut self, t: Cycle) -> Cycle {
        let Some(max_extra) = self
            .jitters
            .iter()
            .filter(|&&(s, e, _)| s <= t && t < e)
            .map(|&(_, _, m)| m)
            .max()
        else {
            return 0;
        };
        if max_extra == 0 {
            return 0;
        }
        splitmix::next(&mut self.rng) % (max_extra + 1)
    }
}

fn jitter_seed(seed: u64, target: FaultTarget, channel: u32) -> u64 {
    let tag = match target {
        FaultTarget::Cache => 1u64,
        FaultTarget::MainMemory => 2u64,
    };
    splitmix::mix64(
        seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ u64::from(channel).wrapping_mul(0xE703_7ED1_A0B4_28DB),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> FaultSchedule {
        FaultSchedule::new(7)
            .channel_outage(FaultTarget::MainMemory, 1, 1_000, 2_000)
            .throttle(FaultTarget::Cache, 2, 1, 500, 1_500)
            .refresh_storm(FaultTarget::Cache, 100, 25, 0, 400)
            .latency_jitter(FaultTarget::MainMemory, 16, 0, 3_000)
    }

    #[test]
    fn boundaries_are_sorted_and_deduped() {
        assert_eq!(
            schedule().boundaries(),
            vec![0, 400, 500, 1_000, 1_500, 2_000, 3_000]
        );
    }

    #[test]
    fn bandwidth_scale_composes_outage_throttle_and_storm() {
        let s = schedule();
        // At cycle 1200: one of two mm channels dark, jitter has no
        // bandwidth effect.
        assert!((s.bandwidth_scale(FaultTarget::MainMemory, 1_200, 2) - 0.5).abs() < 1e-12);
        // Cache at cycle 600: 2x throttle only (storm ended at 400).
        assert!((s.bandwidth_scale(FaultTarget::Cache, 600, 4) - 0.5).abs() < 1e-12);
        // Cache at cycle 100: storm duty 1 - 25/100 = 0.75 times 2x throttle? no —
        // throttle starts at 500, so just the storm.
        assert!((s.bandwidth_scale(FaultTarget::Cache, 100, 4) - 0.75).abs() < 1e-12);
        // Outside every window: full bandwidth.
        assert!((s.bandwidth_scale(FaultTarget::MainMemory, 2_500, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_outages_of_one_channel_count_once() {
        let s = FaultSchedule::new(0)
            .channel_outage(FaultTarget::Cache, 0, 0, 100)
            .channel_outage(FaultTarget::Cache, 0, 50, 100);
        assert!((s.bandwidth_scale(FaultTarget::Cache, 60, 4) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn channel_faults_resolve_only_matching_targets() {
        let s = schedule();
        // Outages resolve at the module level; channel-level mm state
        // carries only the (channel-agnostic) jitter.
        let f = s.channel_faults(FaultTarget::MainMemory, 0, 2).unwrap();
        assert!(f.throttles.is_empty() && f.storms.is_empty());
        assert_eq!(f.jitters.len(), 1);
        // Cache channels see throttle + storm but no jitter.
        let f = s.channel_faults(FaultTarget::Cache, 3, 4).unwrap();
        assert!(f.jitters.is_empty());
        assert_eq!((f.throttles.len(), f.storms.len()), (1, 1));
    }

    #[test]
    fn empty_resolution_is_none() {
        let s = FaultSchedule::new(0).channel_outage(FaultTarget::Cache, 0, 0, 10);
        assert!(s.channel_faults(FaultTarget::MainMemory, 0, 2).is_none());
        // Outages live at the module level, so even the dark channel
        // keeps its channel-level fast path.
        assert!(s.channel_faults(FaultTarget::Cache, 0, 2).is_none());
    }

    #[test]
    fn dark_until_follows_chained_windows() {
        let s = FaultSchedule::new(0)
            .channel_outage(FaultTarget::Cache, 0, 100, 200)
            .channel_outage(FaultTarget::Cache, 0, 150, 300);
        let w = s.outage_windows(FaultTarget::Cache, 0, 1);
        assert_eq!(dark_until(&w, 120), Some(300));
        assert_eq!(dark_until(&w, 50), None);
        assert_eq!(dark_until(&w, 300), None, "end cycle is outside the window");
    }

    #[test]
    fn throttling_rounds_up_and_composes() {
        let s = FaultSchedule::new(0)
            .throttle(FaultTarget::Cache, 3, 2, 0, 100)
            .throttle(FaultTarget::Cache, 2, 1, 50, 100);
        let f = s.channel_faults(FaultTarget::Cache, 0, 1).unwrap();
        assert_eq!(f.throttled(10, 10), 15);
        assert_eq!(f.throttled(60, 10), 30);
        assert_eq!(f.throttled(200, 10), 10);
        assert_eq!(f.throttled(10, 9), 14, "must round up, not truncate");
    }

    #[test]
    fn storm_cursor_charges_each_interval_once() {
        let s = FaultSchedule::new(0).refresh_storm(FaultTarget::Cache, 100, 25, 0, 250);
        let mut f = s.channel_faults(FaultTarget::Cache, 0, 1).unwrap();
        assert_eq!(f.next_storm_stall(0), Some((0, 25)));
        assert_eq!(f.next_storm_stall(0), None, "cursor advanced past 0");
        assert_eq!(f.next_storm_stall(250), Some((100, 25)));
        assert_eq!(f.next_storm_stall(250), Some((200, 25)));
        assert_eq!(f.next_storm_stall(10_000), None, "storm window ended");
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_windowed() {
        let s = FaultSchedule::new(42).latency_jitter(FaultTarget::Cache, 8, 100, 200);
        let mut a = s.channel_faults(FaultTarget::Cache, 0, 2).unwrap();
        let mut b = s.channel_faults(FaultTarget::Cache, 0, 2).unwrap();
        assert_eq!(a.jitter_extra(50), 0, "outside the window");
        assert_eq!(b.jitter_extra(50), 0);
        let xs: Vec<Cycle> = (0..32).map(|_| a.jitter_extra(150)).collect();
        let ys: Vec<Cycle> = (0..32).map(|_| b.jitter_extra(150)).collect();
        assert_eq!(xs, ys, "same seed, same sequence");
        assert!(xs.iter().all(|&x| x <= 8));
        assert!(xs.iter().any(|&x| x > 0), "jitter should actually jitter");
        // A different channel draws a different sequence.
        let mut c = s.channel_faults(FaultTarget::Cache, 1, 2).unwrap();
        let zs: Vec<Cycle> = (0..32).map(|_| c.jitter_extra(150)).collect();
        assert_ne!(xs, zs);
    }

    #[test]
    #[should_panic(expected = "fault window must be non-empty")]
    fn empty_window_rejected() {
        let _ = FaultSchedule::new(0).channel_outage(FaultTarget::Cache, 0, 10, 10);
    }

    #[test]
    #[should_panic(expected = "throttle must slow down")]
    fn speedup_throttle_rejected() {
        let _ = FaultSchedule::new(0).throttle(FaultTarget::Cache, 1, 2, 0, 10);
    }
}
