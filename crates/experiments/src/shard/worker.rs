//! One exploration worker process.
//!
//! A worker scans the grid for claimable cells, claims one through the
//! [`LeaseLog`], simulates it with a heartbeat thread renewing the lease
//! at TTL/3 cadence, and records the finished run into its **private**
//! checkpoint manifest (`worker-<id>.ckpt`) before appending the lease
//! `done` record. That ordering is deliberate: a crash between the two
//! leaves a completed manifest entry under a lease that later expires,
//! so the cell gets stolen, re-run, and the merge step reconciles the
//! bit-identical duplicate — whereas the reverse order could mark a
//! cell done whose result no manifest holds.
//!
//! Cells are executed serially (one simulation at a time per worker);
//! parallelism comes from running N worker processes. Each cell runs as
//! one attempt through the same function the in-process executor uses,
//! with two stop flags armed through the quantum-granularity
//! [`mem_sim::ScopedStop`] seam: the process [`CancelToken`] (Ctrl-C →
//! release the lease, exit interrupted) and a stolen flag the heartbeat
//! thread trips when its renewal loses — a stolen cell is abandoned
//! without recording anything.
//!
//! Deterministic fault injection for the chaos harness rides on two
//! environment variables ([`KILL_ENV`], [`POISON_ENV`]) so a scheduled
//! SIGKILL-class death, a mid-run Ctrl-C, or a poisoned (always
//! panicking) cell can be staged at an exact claim index.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mem_sim::StopCause;

use crate::cancel::CancelToken;
use crate::checkpoint::CheckpointManifest;
use crate::exec::{attempt, CellErrorKind};
use crate::runner::{run_workload, AloneIpcCache};
use crate::shard::alone::{alone_key, AloneStore};
use crate::shard::grid::ExploreGrid;
use crate::shard::lease::{ClaimOutcome, LeaseLog, RenewOutcome};

/// Fault-injection schedule: `"<worker>:<incarnation>:<nth-claim>:<mode>"`
/// entries separated by `;`. Modes: `after-claim` (abort the process
/// right after winning the nth claim — a SIGKILL-class death holding a
/// fresh lease), `after-record` (abort after the manifest record but
/// before the lease `done` — forces a duplicate completion for the
/// merge to reconcile), `interrupt` (trip the cancel token at the nth
/// claim — a Ctrl-C: the lease is released and the worker exits 130).
pub const KILL_ENV: &str = "DAP_SHARD_KILL";

/// Label of a grid cell that panics on every attempt in every worker —
/// the poison cell the quarantine threshold is tested against.
pub const POISON_ENV: &str = "DAP_SHARD_POISON";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillMode {
    AfterClaim,
    AfterRecord,
    Interrupt,
}

#[derive(Debug, Clone, Copy)]
struct KillRule {
    nth_claim: u32,
    mode: KillMode,
}

fn kill_rules(worker_id: u32, incarnation: u32) -> Vec<KillRule> {
    let Ok(plan) = std::env::var(KILL_ENV) else {
        return Vec::new();
    };
    let mut rules = Vec::new();
    for entry in plan.split(';').filter(|e| !e.trim().is_empty()) {
        let parts: Vec<&str> = entry.trim().split(':').collect();
        let [w, inc, nth, mode] = parts.as_slice() else {
            eprintln!("warning: {KILL_ENV}: malformed entry {entry:?} ignored");
            continue;
        };
        let (Ok(w), Ok(inc), Ok(nth)) = (w.parse(), inc.parse(), nth.parse::<u32>()) else {
            eprintln!("warning: {KILL_ENV}: malformed entry {entry:?} ignored");
            continue;
        };
        let mode = match *mode {
            "after-claim" => KillMode::AfterClaim,
            "after-record" => KillMode::AfterRecord,
            "interrupt" => KillMode::Interrupt,
            other => {
                eprintln!("warning: {KILL_ENV}: unknown mode {other:?} ignored");
                continue;
            }
        };
        if (worker_id, incarnation) == (w, inc) {
            rules.push(KillRule {
                nth_claim: nth,
                mode,
            });
        }
    }
    rules
}

/// Configuration for one worker process.
pub struct WorkerConfig {
    /// Exploration output directory (shared by the whole fleet).
    pub out_dir: PathBuf,
    /// This worker's stable id (0-based; names its manifest).
    pub worker_id: u32,
    /// Restart generation (1-based; a restarted worker gets a new
    /// incarnation so stale heartbeats from its predecessor can never
    /// renew its claims).
    pub incarnation: u32,
    /// The grid to explore.
    pub grid: ExploreGrid,
    /// Lease TTL in milliseconds.
    pub ttl_ms: u64,
    /// Failures (across the fleet) that quarantine a cell.
    pub quarantine_k: u32,
    /// Cooperative cancellation (Ctrl-C).
    pub cancel: CancelToken,
}

/// What one worker process did before exiting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Cells this worker simulated, recorded, and completed.
    pub completed: usize,
    /// Cells whose simulation panicked under this worker's lease.
    pub failed: usize,
    /// Cells abandoned because the lease was stolen mid-run.
    pub abandoned: usize,
    /// The worker stopped on cancellation (exit with
    /// [`EXIT_INTERRUPTED`](crate::cancel::EXIT_INTERRUPTED)).
    pub interrupted: bool,
}

enum CellEnd {
    Completed,
    Failed,
    Abandoned,
    Interrupted,
}

/// Runs one worker to completion: returns when every grid cell is
/// completed or quarantined (`interrupted: false`) or on cancellation
/// (`interrupted: true`). Crashes — including injected ones — simply
/// kill the process; that is the failure mode the lease log exists for.
///
/// # Errors
///
/// I/O errors on the lease log or this worker's manifest. (A cell
/// panic is not an error — it is recorded as a lease failure.)
pub fn run_worker(cfg: &WorkerConfig) -> std::io::Result<WorkerSummary> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let lease = Arc::new(LeaseLog::open(
        &cfg.out_dir.join("lease.log"),
        cfg.ttl_ms,
        cfg.quarantine_k,
    )?);
    let manifest =
        CheckpointManifest::open(&cfg.out_dir.join(format!("worker-{}.ckpt", cfg.worker_id)))?;
    let alone = AloneIpcCache::new();
    // Fleet-shared alone-IPC store: without it every worker would
    // re-simulate the same alone runs the others already did, and the
    // fleet's total work would grow with N instead of staying serial-
    // equivalent.
    let alone_store = AloneStore::open(&cfg.out_dir.join("alone.log"))?;
    let worker_name = format!("w{}.{}", cfg.worker_id, cfg.incarnation);
    let pid = std::process::id();
    let rules = kill_rules(cfg.worker_id, cfg.incarnation);
    let poison = std::env::var(POISON_ENV).ok();
    let cells = &cfg.grid.cells;
    let keys = cfg.grid.keys();
    // Start each worker's scan at a different cell so the fleet fans
    // out instead of convoying on the first unclaimed cells.
    let rotation = if cells.is_empty() {
        0
    } else {
        (cfg.worker_id as usize * 7 + cfg.incarnation as usize) % cells.len()
    };

    let mut summary = WorkerSummary::default();
    let mut claims_made = 0u32;
    'scan: loop {
        if cfg.cancel.is_cancelled() {
            summary.interrupted = true;
            return Ok(summary);
        }
        let snap = lease.snapshot()?;
        if keys.iter().all(|k| snap.resolved(k)) {
            return Ok(summary);
        }
        for i in 0..cells.len() {
            let cell = &cells[(rotation + i) % cells.len()];
            if cfg.cancel.is_cancelled() {
                continue 'scan;
            }
            if !snap.claimable(&cell.key) {
                continue;
            }
            let epoch = match lease.try_claim(&cell.key, &worker_name, pid)? {
                ClaimOutcome::Won { epoch, .. } => epoch,
                // The snapshot was stale; someone beat us to it.
                _ => continue,
            };
            claims_made += 1;
            for rule in &rules {
                if rule.nth_claim == claims_made {
                    match rule.mode {
                        // SIGKILL-class death holding a fresh lease: the
                        // cell must come back via a steal after one TTL.
                        KillMode::AfterClaim => std::process::abort(),
                        // Ctrl-C mid-claim: the cell unwinds at its
                        // first quantum and the lease is released.
                        KillMode::Interrupt => cfg.cancel.cancel(),
                        KillMode::AfterRecord => {}
                    }
                }
            }
            let kill_after_record = rules
                .iter()
                .any(|r| r.nth_claim == claims_made && r.mode == KillMode::AfterRecord);
            let poisoned = poison.as_deref() == Some(cell.label.as_str());
            match run_cell(
                cfg,
                &lease,
                &manifest,
                &worker_name,
                cell,
                epoch,
                poisoned,
                kill_after_record,
                &alone,
                &alone_store,
            )? {
                CellEnd::Completed => {
                    summary.completed += 1;
                    cfg.cancel.note_completed();
                }
                CellEnd::Failed => summary.failed += 1,
                CellEnd::Abandoned => summary.abandoned += 1,
                CellEnd::Interrupted => {
                    summary.interrupted = true;
                    return Ok(summary);
                }
            }
            // Re-snapshot before scanning further: our pass is stale now.
            continue 'scan;
        }
        // Nothing claimable this pass: unresolved cells are held by
        // live leases (or freshly quarantined). Wait a fraction of the
        // TTL and rescan — if a holder died, its lease lapses and the
        // next pass steals it.
        std::thread::sleep(Duration::from_millis((cfg.ttl_ms / 4).clamp(10, 200)));
    }
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    cfg: &WorkerConfig,
    lease: &Arc<LeaseLog>,
    manifest: &CheckpointManifest,
    worker_name: &str,
    cell: &crate::shard::grid::ExploreCell,
    epoch: u64,
    poisoned: bool,
    kill_after_record: bool,
    alone: &AloneIpcCache,
    alone_store: &AloneStore,
) -> std::io::Result<CellEnd> {
    let stolen = Arc::new(AtomicBool::new(false));
    let hb_stop = Arc::new(AtomicBool::new(false));
    let heartbeat = {
        let lease = lease.clone();
        let key = cell.key.clone();
        let worker = worker_name.to_string();
        let stolen = stolen.clone();
        let hb_stop = hb_stop.clone();
        let interval = Duration::from_millis((cfg.ttl_ms / 3).max(1));
        std::thread::spawn(move || {
            let tick = Duration::from_millis(5);
            let mut since_renew = Duration::ZERO;
            while !hb_stop.load(Ordering::SeqCst) {
                std::thread::sleep(tick);
                since_renew += tick;
                if since_renew < interval {
                    continue;
                }
                since_renew = Duration::ZERO;
                match lease.renew(&key, &worker, epoch) {
                    Ok(RenewOutcome::Renewed { .. }) => {}
                    Ok(RenewOutcome::Lost) => {
                        // Superseded: stop the simulation at its next
                        // quantum; the thief owns the cell now.
                        stolen.store(true, Ordering::SeqCst);
                        return;
                    }
                    // An I/O hiccup on a heartbeat is survivable — the
                    // next tick retries; worst case the lease lapses
                    // and the cell is stolen, which is safe.
                    Err(_) => {}
                }
            }
        })
    };

    // Resolve this cell's alone runs through the fleet-shared store,
    // one benchmark at a time: reload the store right before each
    // (cheap — a few KiB), reuse a sibling's published IPC when
    // present, otherwise simulate the alone run now and publish it
    // immediately. Publishing per run rather than per cell shrinks the
    // window in which two workers duplicate the same alone run from a
    // whole cell to one alone simulation. Under the heartbeat, so the
    // lease stays renewed while the alone runs execute.
    for spec in &cell.mix.specs {
        if alone.peek(&cell.config, spec.name).is_some() {
            continue;
        }
        let key = alone_key(&cell.config, spec.name, cfg.grid.instructions);
        match alone_store.load().unwrap_or_default().get(&key) {
            Some(&ipc) => alone.seed(&cell.config, spec.name, ipc),
            None => {
                let ipc = alone.ipc(&cell.config, spec.name, cfg.grid.instructions);
                // A failed publish only costs a sibling one redundant
                // simulation; not worth failing the cell over.
                let _ = alone_store.record(&key, ipc);
            }
        }
    }

    let stop_flags = [
        (cfg.cancel.flag(), StopCause::Cancelled),
        (stolen.clone(), StopCause::Cancelled),
    ];
    let outcome = attempt(&cell.label, &stop_flags, || {
        if poisoned {
            panic!("poisoned cell (injected via {POISON_ENV})");
        }
        run_workload(
            &cell.config,
            cell.policy,
            &cell.mix,
            cfg.grid.instructions,
            alone,
        )
    });
    hb_stop.store(true, Ordering::SeqCst);
    let _ = heartbeat.join();

    match outcome {
        Ok(run) => {
            if stolen.load(Ordering::SeqCst) {
                // Lost the lease in the final quanta: the thief will
                // produce (or already produced) this result. Recording
                // ours too would be harmless — duplicates reconcile —
                // but the contract is that a lost lease records nothing.
                eprintln!(
                    "[{worker_name}] {}: finished after steal, abandoned",
                    cell.label
                );
                return Ok(CellEnd::Abandoned);
            }
            manifest.record(&cell.key, &run);
            if kill_after_record {
                // Injected crash in the record→done window: the lease
                // lapses, the cell is stolen and re-run, and the merge
                // must reconcile the duplicate bit-identically.
                std::process::abort();
            }
            lease.complete(&cell.key, worker_name, epoch)?;
            eprintln!("[{worker_name}] {}: completed", cell.label);
            Ok(CellEnd::Completed)
        }
        Err((CellErrorKind::Cancelled, _)) if stolen.load(Ordering::SeqCst) => {
            eprintln!("[{worker_name}] {}: lease stolen, abandoned", cell.label);
            Ok(CellEnd::Abandoned)
        }
        Err((CellErrorKind::Cancelled, _)) => {
            // Ctrl-C: hand the cell back gracefully so siblings can claim
            // it immediately instead of after a TTL.
            lease.release(&cell.key, worker_name, epoch)?;
            eprintln!(
                "[{worker_name}] {}: interrupted, lease released",
                cell.label
            );
            Ok(CellEnd::Interrupted)
        }
        Err((CellErrorKind::Panicked | CellErrorKind::DeadlineExceeded, message)) => {
            let fails = lease.fail(&cell.key, worker_name, epoch, &message)?;
            eprintln!(
                "[{worker_name}] {}: failed ({message}); fleet-wide failure {fails}/{}",
                cell.label, cfg.quarantine_k
            );
            Ok(CellEnd::Failed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::grid::explore_grid;
    use std::sync::Mutex;

    /// Tests here read or write the fault-injection environment, which
    /// is process-global — serialize them so a kill plan set by one test
    /// can never leak into another's `run_worker`.
    static ENV_GUARD: Mutex<()> = Mutex::new(());

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dap-worker-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn kill_rules_parse_and_filter() {
        let _env = crate::exec::lock_unpoisoned(&ENV_GUARD);
        std::env::set_var(
            KILL_ENV,
            "7:1:2:after-claim; 8:1:1:interrupt;bad;8:1:x:interrupt",
        );
        let r7 = kill_rules(7, 1);
        assert_eq!(r7.len(), 1);
        assert_eq!(r7[0].nth_claim, 2);
        assert_eq!(r7[0].mode, KillMode::AfterClaim);
        let r8 = kill_rules(8, 1);
        assert_eq!(r8.len(), 1);
        assert_eq!(r8[0].mode, KillMode::Interrupt);
        assert!(kill_rules(9, 1).is_empty());
        assert!(kill_rules(7, 2).is_empty(), "incarnation-scoped");
        std::env::remove_var(KILL_ENV);
    }

    /// A single in-process worker drains a tiny grid end to end: every
    /// cell completed, lease log resolved, manifest populated.
    #[test]
    fn single_worker_drains_a_tiny_grid() {
        let _env = crate::exec::lock_unpoisoned(&ENV_GUARD);
        let dir = temp_dir("drain");
        let mut grid = explore_grid("smoke", 2_000).unwrap();
        grid.cells.truncate(3);
        let cfg = WorkerConfig {
            out_dir: dir.clone(),
            worker_id: 0,
            incarnation: 1,
            grid: grid.clone(),
            ttl_ms: 2_000,
            quarantine_k: 3,
            cancel: CancelToken::new(),
        };
        let summary = run_worker(&cfg).unwrap();
        assert_eq!(summary.completed, 3);
        assert_eq!(summary.failed, 0);
        assert!(!summary.interrupted);
        let manifest = CheckpointManifest::open(&dir.join("worker-0.ckpt")).unwrap();
        assert_eq!(manifest.len(), 3);
        for key in grid.keys() {
            assert!(manifest.lookup(&key).is_some());
        }
        // Idempotent: a re-run finds everything resolved and does nothing.
        let again = run_worker(&cfg).unwrap();
        assert_eq!(again.completed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_worker_releases_and_exits_interrupted() {
        let _env = crate::exec::lock_unpoisoned(&ENV_GUARD);
        let dir = temp_dir("cancel");
        let mut grid = explore_grid("smoke", 2_000).unwrap();
        grid.cells.truncate(3);
        let cancel = CancelToken::new();
        // Deterministic Ctrl-C after one completed cell (the PR-4 seam).
        cancel.cancel_after(1);
        let cfg = WorkerConfig {
            out_dir: dir.clone(),
            worker_id: 0,
            incarnation: 1,
            grid,
            ttl_ms: 2_000,
            quarantine_k: 3,
            cancel,
        };
        let summary = run_worker(&cfg).unwrap();
        assert!(summary.interrupted);
        assert_eq!(summary.completed, 1);
        // No lease left dangling: the remaining cells are immediately
        // claimable by a successor (no TTL wait), and the finished cell
        // is resolved.
        let lease = LeaseLog::open(&dir.join("lease.log"), 2_000, 3).unwrap();
        let snap = lease.snapshot().unwrap();
        let resolved = snap.cells.values().filter(|c| c.done).count();
        assert_eq!(resolved, 1);
        assert!(snap
            .cells
            .values()
            .all(|c| c.done || c.holder_expires_ms.is_none()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_cell_is_quarantined_not_crash_looped() {
        let _env = crate::exec::lock_unpoisoned(&ENV_GUARD);
        let dir = temp_dir("poison");
        let mut grid = explore_grid("smoke", 2_000).unwrap();
        grid.cells.truncate(2);
        let poison_label = grid.cells[0].label.clone();
        std::env::set_var(POISON_ENV, &poison_label);
        let cfg = WorkerConfig {
            out_dir: dir.clone(),
            worker_id: 0,
            incarnation: 1,
            grid: grid.clone(),
            ttl_ms: 2_000,
            quarantine_k: 2,
            cancel: CancelToken::new(),
        };
        let summary = run_worker(&cfg).unwrap();
        std::env::remove_var(POISON_ENV);
        assert_eq!(summary.completed, 1, "the healthy cell completes");
        assert_eq!(summary.failed, 2, "poison fails K times, then quarantine");
        let lease = LeaseLog::open(&dir.join("lease.log"), 2_000, 2).unwrap();
        let snap = lease.snapshot().unwrap();
        let q = snap.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].0, grid.cells[0].key);
        assert!(q[0].2.as_deref().unwrap().contains("poisoned cell"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
