//! Sampled host-time probes around the simulator's public seams.
//!
//! The traced pass wraps every [`TraceSource`] and the [`Partitioner`]
//! from outside the simulator. Every call is counted; one call in
//! [`SAMPLE_EVERY`] on average is timed with `Instant::now()`.
//! The gaps between timed calls are drawn from a seeded xorshift rather
//! than fixed, because policy calls arrive in fixed per-access patterns
//! that a stride would alias with. Timing every call costs too much: mcf
//! makes ~11 policy calls per memory access.
//! [`ProbeCost`] measures the clock and the wrappers' own bookkeeping at
//! start-up, so the traced pass can subtract what the probes added.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use dap_core::{DecisionStats, TelemetrySink};
use mem_sim::clock::Cycle;
use mem_sim::trace::{TraceOp, TraceSource};
use mem_sim::{NoPartitioning, Observation, Partitioner, ReadContext, ReadRoute, WriteRoute};

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// What the probes cost on this host, measured at start-up.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCost {
    /// Nanoseconds one `Instant::now()` adds to the code around it.
    pub now_ns: f64,
    /// The span two back-to-back reads measure around nothing in a tight
    /// loop: what a span timed there over-reads by.
    pub floor_ns: f64,
    /// Nanoseconds a wrapper adds to a call it counts but does not time.
    pub call_ns: f64,
}

impl ProbeCost {
    /// Measures the clock (the best of several batches for the read
    /// cost, the median back-to-back span for the floor) and the
    /// counting: a wrapped baseline policy against the bare one, less
    /// the clock reads of the calls the sampler timed.
    pub fn calibrate() -> Self {
        const BATCH: u32 = 100_000;
        let best_of = |mut batch: Box<dyn FnMut()>| -> f64 {
            (0..5)
                .map(|_| {
                    let start = Instant::now();
                    batch();
                    start.elapsed().as_nanos() as f64 / f64::from(BATCH)
                })
                .fold(f64::INFINITY, f64::min)
        };
        let now_ns = best_of(Box::new(|| {
            for _ in 0..BATCH {
                std::hint::black_box(Instant::now());
            }
        }));
        let mut spans: Vec<u64> = (0..BATCH)
            .map(|_| {
                let t0 = Instant::now();
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        spans.sort_unstable();
        let policy_calls = |mut policy: Box<dyn Partitioner>| {
            Box::new(move || {
                for block in 0..u64::from(BATCH) {
                    std::hint::black_box(policy.allow_fill(std::hint::black_box(block), 0));
                }
            })
        };
        let bare = best_of(policy_calls(Box::new(NoPartitioning)));
        let wrapped = best_of(policy_calls(Box::new(ProbedPolicy::new(
            Box::new(NoPartitioning),
            Rc::new(Probe::new()),
        ))));
        Self {
            now_ns,
            floor_ns: spans[spans.len() / 2] as f64,
            call_ns: (wrapped - bare - 3.0 * now_ns / SAMPLE_EVERY as f64).max(0.0),
        }
    }
}

/// The [`Partitioner`] methods, in trait order, for per-method counts.
pub const POLICY_METHODS: [&str; 14] = [
    "tick",
    "observe",
    "route_read",
    "force_clean_hit",
    "route_write",
    "allow_fill",
    "set_enabled",
    "take_newly_disabled_sets",
    "take_sectors_to_clean",
    "dap_decisions",
    "window_cycles",
    "attach_dap_sink",
    "note_bandwidth_scale",
    "audited_totals",
];

/// What a [`Probe`] recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reading {
    /// Calls seen.
    pub calls: u64,
    /// Calls timed.
    pub timed: u64,
    /// Sum of the timed spans, nanoseconds.
    pub timed_ns: u64,
    /// Calls per policy method, indexed like [`POLICY_METHODS`] (zero for
    /// a trace probe).
    pub per_method: [u64; POLICY_METHODS.len()],
}

impl Reading {
    /// Folds another reading in.
    pub fn absorb(&mut self, other: &Reading) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
        for (a, b) in self.per_method.iter_mut().zip(&other.per_method) {
            *a += b;
        }
    }

    /// Calls of the named policy method.
    pub fn calls_of(&self, method: &str) -> u64 {
        POLICY_METHODS
            .iter()
            .position(|&m| m == method)
            .map_or(0, |i| self.per_method[i])
    }

    /// Estimated host seconds spent inside the layer: the timed spans,
    /// already net of their clock floor, scaled up from the timed calls
    /// to all calls.
    pub fn self_seconds(&self) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        self.timed_ns as f64 * (self.calls as f64 / self.timed as f64) / 1e9
    }

    /// Host seconds the probe itself added to the run: its clock reads
    /// and its counting.
    pub fn probe_seconds(&self, cost: &ProbeCost) -> f64 {
        (self.timed as f64 * 3.0 * cost.now_ns + self.calls as f64 * cost.call_ns) / 1e9
    }
}

/// Live call counter and sampled timer for one layer, shared by the
/// layer's wrappers. Plain `Cell`s keep the untimed path to a few adds.
pub struct Probe {
    calls: Cell<u64>,
    timed: Cell<u64>,
    timed_ns: Cell<u64>,
    /// Calls left until the next timed one.
    countdown: Cell<u64>,
    rng: Cell<u64>,
    per_method: [Cell<u64>; POLICY_METHODS.len()],
}

impl Probe {
    /// An empty probe. The sampler's seed is fixed so the same calls
    /// are timed on every run.
    pub fn new() -> Self {
        Self {
            calls: Cell::new(0),
            timed: Cell::new(0),
            timed_ns: Cell::new(0),
            countdown: Cell::new(SAMPLE_EVERY),
            rng: Cell::new(0x9E37_79B9_7F4A_7C15),
            per_method: Default::default(),
        }
    }

    /// What the probe has recorded so far.
    pub fn reading(&self) -> Reading {
        Reading {
            calls: self.calls.get(),
            timed: self.timed.get(),
            timed_ns: self.timed_ns.get(),
            per_method: std::array::from_fn(|i| self.per_method[i].get()),
        }
    }

    /// Runs `f`, counting it and timing it when sampled. The gap to the
    /// next timed call is drawn only when one is timed, uniform in
    /// `1..2 * SAMPLE_EVERY`, so the untimed path is a decrement.
    #[inline]
    fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        self.calls.set(self.calls.get() + 1);
        let left = self.countdown.get() - 1;
        self.countdown.set(left);
        if left > 0 {
            return f();
        }
        self.run_timed(f)
    }

    #[inline(never)]
    fn run_timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        self.countdown.set(1 + x % (2 * SAMPLE_EVERY - 1));
        // A clock read costs more here, on a cold path amid the
        // simulator's memory traffic, than in a tight loop, so each sample
        // measures its own floor: the span of a back-to-back read pair.
        let t0 = Instant::now();
        let t1 = Instant::now();
        let out = f();
        let t2 = Instant::now();
        let span = (t2 - t1).saturating_sub(t1 - t0).as_nanos() as u64;
        self.timed.set(self.timed.get() + 1);
        self.timed_ns.set(self.timed_ns.get() + span);
        out
    }

    /// Runs policy method `method` via `f`.
    #[inline]
    fn run_method<R>(&self, method: usize, f: impl FnOnce() -> R) -> R {
        let slot = &self.per_method[method];
        slot.set(slot.get() + 1);
        self.run(f)
    }
}

/// A [`TraceSource`] that counts and samples `next_op`.
pub struct ProbedSource<T> {
    inner: T,
    probe: Rc<Probe>,
}

impl<T: TraceSource> ProbedSource<T> {
    /// Wraps `inner`, recording into the shared `probe`.
    pub fn new(inner: T, probe: Rc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl<T: TraceSource> TraceSource for ProbedSource<T> {
    fn next_op(&mut self) -> TraceOp {
        self.probe.run(|| self.inner.next_op())
    }
}

/// A [`Partitioner`] that forwards every trait method to the wrapped
/// policy, counting and sampling each call. A method left to its default
/// here would silently change the simulation; the fidelity test catches
/// that by comparing `RunResult`s with and without the wrapper.
pub struct ProbedPolicy {
    inner: Box<dyn Partitioner>,
    probe: Rc<Probe>,
}

impl ProbedPolicy {
    /// Wraps `inner`, recording into the shared `probe`.
    pub fn new(inner: Box<dyn Partitioner>, probe: Rc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl Partitioner for ProbedPolicy {
    fn tick(&mut self, now: Cycle) {
        self.probe.run_method(0, || self.inner.tick(now));
    }

    fn observe(&mut self, event: Observation, now: Cycle) {
        self.probe.run_method(1, || self.inner.observe(event, now));
    }

    fn route_read(&mut self, ctx: &ReadContext) -> ReadRoute {
        self.probe.run_method(2, || self.inner.route_read(ctx))
    }

    fn force_clean_hit(&mut self, ctx: &ReadContext) -> bool {
        self.probe.run_method(3, || self.inner.force_clean_hit(ctx))
    }

    fn route_write(&mut self, block: u64, now: Cycle, hit: bool) -> WriteRoute {
        self.probe
            .run_method(4, || self.inner.route_write(block, now, hit))
    }

    fn allow_fill(&mut self, block: u64, now: Cycle) -> bool {
        self.probe
            .run_method(5, || self.inner.allow_fill(block, now))
    }

    fn set_enabled(&mut self, set: u64, now: Cycle) -> bool {
        self.probe
            .run_method(6, || self.inner.set_enabled(set, now))
    }

    fn take_newly_disabled_sets(&mut self) -> Vec<u64> {
        self.probe
            .run_method(7, || self.inner.take_newly_disabled_sets())
    }

    fn take_sectors_to_clean(&mut self) -> Vec<u64> {
        self.probe
            .run_method(8, || self.inner.take_sectors_to_clean())
    }

    fn dap_decisions(&self) -> Option<DecisionStats> {
        self.probe.run_method(9, || self.inner.dap_decisions())
    }

    fn window_cycles(&self) -> Option<u32> {
        self.probe.run_method(10, || self.inner.window_cycles())
    }

    fn attach_dap_sink(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.probe
            .run_method(11, || self.inner.attach_dap_sink(sink));
    }

    fn note_bandwidth_scale(&mut self, cache_scale: f64, mm_scale: f64, now: Cycle) {
        self.probe.run_method(12, || {
            self.inner.note_bandwidth_scale(cache_scale, mm_scale, now)
        });
    }

    fn audited_totals(&self) -> Option<(u64, u64)> {
        self.probe.run_method(13, || self.inner.audited_totals())
    }
}
