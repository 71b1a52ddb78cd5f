//! Deterministic, crash-tolerant parallel execution of experiment grids.
//!
//! The paper's evaluation is a grid of mix × policy × architecture
//! simulations, each independent and deterministic. Each simulation is a
//! named [`CellSpec`]; [`ParallelExecutor::run_cells`] drains a list of
//! them over a shared work queue on `std::thread::scope`, returning
//! results **in cell order** regardless of which thread finished which
//! cell first. Because every cell is deterministic and results are
//! reassembled by index, the parallel output is bit-identical to running
//! the same cells on one thread (`crates/experiments/tests/determinism.rs`
//! proves this).
//!
//! Every attempt runs under [`catch_unwind`], so one panicking cell cannot
//! take down its siblings: `run_cells` returns a [`CellError`] (panic
//! payload + cell identity) in that cell's slot, every other result
//! untouched, and retries failed cells a bounded number of times. The
//! mix × variant figures build their cells through
//! [`Grid`](crate::grid::Grid), which adds checkpoint/resume on top.
//!
//! Thread count comes from [`set_thread_override`] (the `--threads` CLI
//! flag) when set, else `DAP_THREADS`, else all available cores.
//!
//! Grids stop gracefully, not only crash-tolerantly: a
//! [`CancelToken`](crate::cancel::CancelToken) (tripped by Ctrl-C or a
//! test hook) and a per-cell deadline watchdog (`DAP_CELL_DEADLINE_MS`)
//! are armed as [`mem_sim::ScopedStop`] flags around every cell attempt,
//! the simulator honors them at window granularity, and the resulting
//! [`CellError`]s carry a [`CellErrorKind`] so cancellation, deadline
//! overruns, and genuine panics stay distinguishable.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mem_sim::{RunInterrupted, ScopedStop, StopCause};

use crate::cancel::{global_cancel_token, CancelToken};

/// Locks `mutex`, recovering the guard if another thread panicked while
/// holding it. Every value the executor guards stays consistent across a
/// panic (results are computed *before* the slot lock is taken, and the
/// alone-IPC cache only inserts finished entries), so the poison flag
/// carries no information here — a panicking cell must not wedge its
/// siblings.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a grid cell failed to produce a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellErrorKind {
    /// The cell's code panicked (a genuine bug or an injected fault).
    Panicked,
    /// The per-cell deadline watchdog (`DAP_CELL_DEADLINE_MS`) stopped
    /// it; retry-eligible — a transient stall clears on retry.
    DeadlineExceeded,
    /// The grid's [`CancelToken`] tripped; never retried.
    Cancelled,
}

/// A grid cell that failed to produce a result (through all of its
/// permitted attempts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// The cell's index in plan/cell order.
    pub index: usize,
    /// Human-readable cell identity (e.g. `"mix03/Dap"`).
    pub label: String,
    /// The cell's configuration fingerprint / checkpoint key, when known.
    pub fingerprint: Option<String>,
    /// The panic payload, when it was a string (panic messages are), or
    /// the interruption description.
    pub message: String,
    /// How many times the cell was attempted (0 = cancelled before its
    /// first attempt started).
    pub attempts: u32,
    /// What stopped the cell.
    pub kind: CellErrorKind,
}

impl CellError {
    /// A cell the executor never started because the grid was already
    /// cancelled when its turn came.
    fn cancelled_before_start(index: usize, label: String, fingerprint: Option<String>) -> Self {
        Self {
            index,
            label,
            fingerprint,
            message: "grid cancelled before this cell started".to_string(),
            attempts: 0,
            kind: CellErrorKind::Cancelled,
        }
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            CellErrorKind::Panicked => "panicked",
            CellErrorKind::DeadlineExceeded => "exceeded its deadline",
            CellErrorKind::Cancelled => "was cancelled",
        };
        if self.attempts == 0 {
            write!(
                f,
                "cell {} ({}) {} before starting",
                self.index, self.label, what
            )?;
        } else {
            write!(
                f,
                "cell {} ({}) {} after {} attempt{}: {}",
                self.index,
                self.label,
                what,
                self.attempts,
                if self.attempts == 1 { "" } else { "s" },
                self.message
            )?;
        }
        if let Some(fp) = &self.fingerprint {
            write!(f, " [{fp}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for CellError {}

/// Distinguishes a cooperative interruption (the run loop's typed
/// [`RunInterrupted`] payload) from a genuine panic.
fn classify(payload: &(dyn std::any::Any + Send)) -> CellErrorKind {
    match payload.downcast_ref::<RunInterrupted>() {
        Some(interrupted) => match interrupted.cause {
            StopCause::Cancelled => CellErrorKind::Cancelled,
            StopCause::DeadlineExceeded => CellErrorKind::DeadlineExceeded,
        },
        None => CellErrorKind::Panicked,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(interrupted) = payload.downcast_ref::<RunInterrupted>() {
        interrupted.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Label of a cell the next matching [`run_cells`] execution should
/// panic in (fault drills; consumed by the first attempt of the first
/// matching cell).
///
/// [`run_cells`]: ParallelExecutor::run_cells
static PANIC_INJECTION: Mutex<Option<String>> = Mutex::new(None);

/// Arms a one-shot panic in the next cell whose label equals `label`
/// (exactly). Used by the CI fault-injection smoke run and the harness
/// tests to prove a crashing cell is isolated; pass `None`-like empty
/// string via [`clear_cell_panic`] instead to disarm.
pub fn inject_cell_panic(label: &str) {
    *lock_unpoisoned(&PANIC_INJECTION) = Some(label.to_string());
}

/// Disarms any pending [`inject_cell_panic`].
pub fn clear_cell_panic() {
    *lock_unpoisoned(&PANIC_INJECTION) = None;
}

/// Panics if a panic injection is armed for `label` (consuming it).
fn fire_injected_panic(label: &str) {
    let mut armed = lock_unpoisoned(&PANIC_INJECTION);
    if armed.as_deref() == Some(label) {
        *armed = None;
        drop(armed);
        panic!("injected panic in cell {label}");
    }
}

/// One attempt at a cell: arms `stop_flags` on this thread, runs `run`
/// under [`catch_unwind`] (firing any [`inject_cell_panic`] armed for
/// `label` first), and classifies a failure into its [`CellErrorKind`]
/// and message. [`ParallelExecutor::run_cells`] and the shard explorer's
/// worker both execute cells through this one function.
pub(crate) fn attempt<T>(
    label: &str,
    stop_flags: &[(Arc<AtomicBool>, StopCause)],
    run: impl FnOnce() -> T,
) -> Result<T, (CellErrorKind, String)> {
    let _armed = ScopedStop::install(stop_flags);
    catch_unwind(AssertUnwindSafe(|| {
        fire_injected_panic(label);
        run()
    }))
    .map_err(|payload| (classify(payload.as_ref()), panic_message(payload)))
}

/// A named, re-runnable grid cell for [`ParallelExecutor::run_cells`].
pub struct CellSpec<'a, T> {
    label: String,
    fingerprint: Option<String>,
    run: Box<dyn Fn() -> T + Send + Sync + 'a>,
}

impl<'a, T> CellSpec<'a, T> {
    /// A cell running `run`, identified as `label` in errors.
    pub fn new(label: impl Into<String>, run: impl Fn() -> T + Send + Sync + 'a) -> Self {
        Self {
            label: label.into(),
            fingerprint: None,
            run: Box::new(run),
        }
    }

    /// Attaches a configuration fingerprint carried into [`CellError`].
    #[must_use]
    pub fn with_fingerprint(mut self, fingerprint: impl Into<String>) -> Self {
        self.fingerprint = Some(fingerprint.into());
        self
    }

    /// The cell's label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Process-wide thread-count override (0 = unset). Set by the `--threads`
/// CLI flag; takes precedence over `DAP_THREADS`.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the executor's worker-thread count for this process,
/// taking precedence over the `DAP_THREADS` environment variable.
/// `--threads N` on the CLI binaries calls this. A value of 0 clears
/// the override (callers validating user input should reject 0 before
/// calling — see `dap_bench::cli`).
pub fn set_thread_override(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// Runs work items over a fixed worker pool, depositing each result in
/// the slot matching the item's index so output order never depends on
/// scheduling. `run_one` must be safe to call concurrently.
fn run_indexed<T: Send>(threads: usize, n: usize, run_one: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads == 1 || n <= 1 {
        return (0..n).map(run_one).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = std::iter::repeat_with(|| Mutex::new(None))
        .take(n)
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Compute before taking the slot lock: a panicking unit
                // (caught by the caller's closure) never holds it.
                let result = run_one(i);
                *lock_unpoisoned(&slots[i]) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // invariant: run_indexed hands every index in 0..units to
                // exactly one worker, and workers fill their slot before
                // returning.
                .expect("every unit ran")
        })
        .collect()
}

/// One watched cell's deadline state. The stop flag is only mutated
/// under the `started` lock (by both the worker arming the slot and the
/// watchdog tripping it), so a trip can never leak from an expired
/// attempt into a fresh one.
struct WatchSlot {
    /// When the current attempt started; `None` between attempts.
    started: Mutex<Option<Instant>>,
    /// The stop flag installed as the attempt's `ScopedStop` entry.
    stop: Arc<AtomicBool>,
}

/// A background thread enforcing the per-cell deadline: it polls every
/// armed [`WatchSlot`] and trips the slot's stop flag once the attempt
/// has run past the deadline. The simulation notices at its next window
/// boundary and unwinds with [`StopCause::DeadlineExceeded`].
struct Watchdog {
    slots: Arc<Vec<WatchSlot>>,
    done: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn new(cells: usize, deadline: Duration) -> Self {
        let slots: Arc<Vec<WatchSlot>> = Arc::new(
            std::iter::repeat_with(|| WatchSlot {
                started: Mutex::new(None),
                stop: Arc::new(AtomicBool::new(false)),
            })
            .take(cells)
            .collect(),
        );
        let done = Arc::new(AtomicBool::new(false));
        // Poll well inside the deadline so an overrun is caught promptly,
        // but never busier than every 5 ms.
        let poll = (deadline / 8).clamp(Duration::from_millis(5), Duration::from_millis(50));
        let handle = std::thread::spawn({
            let slots = Arc::clone(&slots);
            let done = Arc::clone(&done);
            move || {
                while !done.load(Ordering::Relaxed) {
                    for slot in slots.iter() {
                        let started = lock_unpoisoned(&slot.started);
                        if let Some(t0) = *started {
                            if t0.elapsed() >= deadline {
                                slot.stop.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                    std::thread::park_timeout(poll);
                }
            }
        });
        Self {
            slots,
            done,
            handle: Some(handle),
        }
    }

    /// Arms cell `i`'s slot for a fresh attempt (resetting any trip left
    /// by a previous attempt) and returns its stop flag.
    fn arm(&self, i: usize) -> Arc<AtomicBool> {
        let slot = &self.slots[i];
        let mut started = lock_unpoisoned(&slot.started);
        slot.stop.store(false, Ordering::Relaxed);
        *started = Some(Instant::now());
        drop(started);
        Arc::clone(&slot.stop)
    }

    /// Disarms cell `i`'s slot after an attempt finishes.
    fn disarm(&self, i: usize) {
        *lock_unpoisoned(&self.slots[i].started) = None;
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// The `DAP_CELL_DEADLINE_MS` environment variable: per-cell deadline in
/// milliseconds for [`ParallelExecutor::from_env`] grids.
pub const CELL_DEADLINE_ENV: &str = "DAP_CELL_DEADLINE_MS";

/// Parses `DAP_CELL_DEADLINE_MS`; malformed or zero values are reported
/// once and ignored rather than aborting a multi-hour run.
fn deadline_from_env() -> Option<Duration> {
    let raw = std::env::var(CELL_DEADLINE_ENV).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse::<u64>() {
        Ok(ms) if ms > 0 => Some(Duration::from_millis(ms)),
        _ => {
            eprintln!(
                "warning: ignoring invalid {CELL_DEADLINE_ENV}={raw:?} \
                 (expected a positive integer of milliseconds)"
            );
            None
        }
    }
}

/// Runs [`CellSpec`] lists across a fixed number of worker threads.
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    threads: usize,
    cancel: Option<CancelToken>,
    deadline: Option<Duration>,
}

impl ParallelExecutor {
    /// An executor with an explicit thread count (clamped to at least 1)
    /// and no cancellation or deadline attached.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            cancel: None,
            deadline: None,
        }
    }

    /// Thread count from [`set_thread_override`] (the `--threads` flag)
    /// when set, else the `DAP_THREADS` environment variable, falling
    /// back to the host's available parallelism. The
    /// [`global_cancel_token`] is attached (so Ctrl-C stops the grid)
    /// along with any `DAP_CELL_DEADLINE_MS` per-cell deadline.
    pub fn from_env() -> Self {
        let overridden = THREAD_OVERRIDE.load(Ordering::Relaxed);
        let threads = if overridden > 0 {
            overridden
        } else {
            std::env::var("DAP_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                })
        };
        let mut exec = Self::new(threads).with_cancel(global_cancel_token().clone());
        if let Some(deadline) = deadline_from_env() {
            exec = exec.with_deadline(deadline);
        }
        exec
    }

    /// Attaches a cancel token: tripping it stops in-flight cells at
    /// their next simulation window and keeps queued cells from starting.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a per-cell deadline: an attempt running longer is
    /// stopped by the watchdog and reported as
    /// [`CellErrorKind::DeadlineExceeded`] (retry-eligible in
    /// [`Self::run_cells`]).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs named, re-runnable cells with bounded retry: a cell that
    /// panics or exceeds its deadline is re-attempted up to `retries`
    /// more times (transient faults — e.g. an injected fault drill or a
    /// machine stall — clear on retry; a deterministic failure exhausts
    /// every attempt) and reports a [`CellError`] carrying its label,
    /// fingerprint, attempt count, and [`CellErrorKind`] if no attempt
    /// succeeded. A tripped cancel token is never retried, and cells
    /// whose turn comes after the trip are not started.
    pub fn run_cells<'a, T: Send>(
        &self,
        cells: Vec<CellSpec<'a, T>>,
        retries: u32,
    ) -> Vec<Result<T, CellError>> {
        let cells = &cells;
        let watchdog = self.deadline.map(|d| Watchdog::new(cells.len(), d));
        let watchdog = watchdog.as_ref();
        let cancel = self.cancel.as_ref();
        run_indexed(self.threads, cells.len(), move |i| {
            let cell = &cells[i];
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    return Err(CellError::cancelled_before_start(
                        i,
                        cell.label.clone(),
                        cell.fingerprint.clone(),
                    ));
                }
            }
            let attempts = retries.saturating_add(1);
            let mut message = String::new();
            let mut kind = CellErrorKind::Panicked;
            let mut attempted = 0;
            for _ in 0..attempts {
                attempted += 1;
                let mut stop_flags = Vec::new();
                if let Some(token) = cancel {
                    stop_flags.push((token.flag(), StopCause::Cancelled));
                }
                if let Some(dog) = watchdog {
                    stop_flags.push((dog.arm(i), StopCause::DeadlineExceeded));
                }
                let outcome = attempt(&cell.label, &stop_flags, || (cell.run)());
                if let Some(dog) = watchdog {
                    dog.disarm(i);
                }
                match outcome {
                    Ok(value) => {
                        if let Some(token) = cancel {
                            token.note_completed();
                        }
                        return Ok(value);
                    }
                    Err((failure, why)) => {
                        kind = failure;
                        message = why;
                        if kind == CellErrorKind::Cancelled {
                            break;
                        }
                    }
                }
            }
            Err(CellError {
                index: i,
                label: cell.label.clone(),
                fingerprint: cell.fingerprint.clone(),
                message,
                attempts: attempted,
                kind,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order() {
        let cells = (0..64u64)
            .map(|i| {
                // Uneven cell costs so threads finish out of submission order.
                CellSpec::new(format!("cell{i}"), move || {
                    let mut acc = i;
                    for _ in 0..(i % 7) * 10_000 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    std::hint::black_box(acc);
                    i
                })
            })
            .collect();
        let out: Vec<u64> = ParallelExecutor::new(4)
            .run_cells(cells, 0)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let cells = (0..37)
            .map(|i| {
                CellSpec::new(format!("cell{i}"), || {
                    counter.fetch_add(1, Ordering::Relaxed)
                })
            })
            .collect();
        let out = ParallelExecutor::new(8).run_cells(cells, 0);
        assert_eq!(out.len(), 37);
        assert_eq!(counter.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn single_thread_runs_inline() {
        let cells = vec![CellSpec::new("a", || 41), CellSpec::new("b", || 42)];
        let out: Vec<i32> = ParallelExecutor::new(1)
            .run_cells(cells, 0)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(out, vec![41, 42]);
    }

    #[test]
    fn executor_clamps_to_one_thread() {
        assert_eq!(ParallelExecutor::new(0).threads(), 1);
        assert!(ParallelExecutor::from_env().threads() >= 1);
    }

    #[test]
    fn thread_override_beats_environment() {
        set_thread_override(3);
        assert_eq!(ParallelExecutor::from_env().threads(), 3);
        set_thread_override(0); // clear so other tests see the default
        assert!(ParallelExecutor::from_env().threads() >= 1);
    }

    #[test]
    fn panicking_cell_does_not_poison_siblings() {
        for threads in [1, 4] {
            let cells = (0..16u64)
                .map(|i| {
                    CellSpec::new(format!("cell{i}"), move || {
                        assert_ne!(i, 5, "cell 5 always crashes");
                        i * 10
                    })
                })
                .collect();
            let out = ParallelExecutor::new(threads).run_cells(cells, 0);
            assert_eq!(out.len(), 16);
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, 5);
                    assert_eq!(e.attempts, 1);
                    assert_eq!(e.kind, CellErrorKind::Panicked);
                    assert!(e.message.contains("cell 5 always crashes"), "{e}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u64 * 10, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn failed_cell_is_reported_after_siblings_drain() {
        let completed = AtomicUsize::new(0);
        let cells = vec![
            CellSpec::new("first", || {
                completed.fetch_add(1, Ordering::Relaxed);
            }),
            CellSpec::new("boom", || panic!("boom")),
            CellSpec::new("last", || {
                completed.fetch_add(1, Ordering::Relaxed);
            }),
        ];
        let out = ParallelExecutor::new(2).run_cells(cells, 0);
        let e = out[1].as_ref().unwrap_err();
        assert!(e.message.contains("boom"), "{e}");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            2,
            "healthy cells finish despite the failure"
        );
    }

    #[test]
    fn retries_recover_transient_panics() {
        let failures_left = Mutex::new(2u32);
        let cells = vec![CellSpec::new("flaky", || {
            let mut left = lock_unpoisoned(&failures_left);
            if *left > 0 {
                *left -= 1;
                drop(left);
                panic!("transient");
            }
            7u32
        })];
        let out = ParallelExecutor::new(1).run_cells(cells, 2);
        assert_eq!(out[0].as_ref().unwrap(), &7);
    }

    #[test]
    fn exhausted_retries_report_attempt_count() {
        let cells = vec![
            CellSpec::new("ok", || 1u32),
            CellSpec::new("doomed", || panic!("always")).with_fingerprint("cfg-beef"),
        ];
        let out = ParallelExecutor::new(2).run_cells(cells, 1);
        assert_eq!(out[0].as_ref().unwrap(), &1);
        let e = out[1].as_ref().unwrap_err();
        assert_eq!(e.attempts, 2);
        assert_eq!(e.label, "doomed");
        assert_eq!(e.fingerprint.as_deref(), Some("cfg-beef"));
        assert!(e.to_string().contains("cfg-beef"), "{e}");
    }

    #[test]
    fn injected_panic_fires_once_for_matching_label() {
        clear_cell_panic();
        inject_cell_panic("target");
        let cells = vec![
            CellSpec::new("other", || 0u32),
            CellSpec::new("target", || 1u32),
        ];
        let out = ParallelExecutor::new(1).run_cells(cells, 0);
        assert_eq!(out[0].as_ref().unwrap(), &0, "non-matching cell untouched");
        let e = out[1].as_ref().unwrap_err();
        assert!(e.message.contains("injected panic"), "{e}");
        // The injection is consumed: re-running the same cells succeeds.
        let cells = vec![CellSpec::new("target", || 1u32)];
        let out = ParallelExecutor::new(1).run_cells(cells, 0);
        assert_eq!(out[0].as_ref().unwrap(), &1);
    }
}
