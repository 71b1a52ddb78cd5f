//! The one runner for mix × variant grids — the shape almost every figure
//! needs (N policy/architecture variants over a list of mixes).
//!
//! A [`Grid`] turns each `(mix, variant)` pair into a [`CellSpec`]
//! labelled `"{mix}/{kind:?}"` and executes them all through
//! [`ParallelExecutor::run_cells`], so every grid gets the same
//! crash isolation, cancellation, per-cell deadline
//! (`DAP_CELL_DEADLINE_MS`), and checkpoint/resume (`DAP_RESUME`). The
//! defaults come from the environment — [`ParallelExecutor::from_env`]
//! and the process-wide [`resume_manifest`] — and the builder overrides
//! them for tests and callers that manage their own:
//!
//! ```no_run
//! use experiments::{AloneIpcCache, Grid, PolicyKind};
//! use mem_sim::SystemConfig;
//! use workloads::{rate_mix, spec};
//!
//! let config = SystemConfig::sectored_dram_cache(8);
//! let mixes = vec![rate_mix(spec("mcf").unwrap(), 8)];
//! let alone = AloneIpcCache::new();
//! let rows = Grid::new(
//!     &[(&config, PolicyKind::Baseline), (&config, PolicyKind::Dap)],
//!     &mixes,
//!     100_000,
//!     &alone,
//! )
//! .run()
//! .into_result()
//! .expect("grid cell failed");
//! println!("DAP speedup {:.3}", rows[0][1].weighted_speedup / rows[0][0].weighted_speedup);
//! ```
//!
//! A finished cell is recorded into the checkpoint manifest, keyed by
//! [`cell_key`] (full system configuration, fault schedule included,
//! plus policy, mix, and instruction budget), and a later grid over the
//! same manifest answers it without simulating. Traced grids
//! ([`Grid::traced`]) always simulate: a window trace cannot be restored
//! from a manifest.

use std::fmt;
use std::sync::Arc;

use dap_telemetry::metrics::MetricsRegistry;
use dap_telemetry::window::{WindowTrace, WindowTraceRecorder};
use mem_sim::{SubsystemTelemetry, SystemConfig};
use workloads::Mix;

use crate::checkpoint::{cell_key, resume_manifest, CheckpointManifest};
use crate::exec::{CellError, CellErrorKind, CellSpec, ParallelExecutor};
use crate::progress;
use crate::runner::{
    architecture_name, run_workload, run_workload_with, AloneIpcCache, PolicyKind, WorkloadRun,
};
use crate::telemetry::VariantTelemetry;

/// Ring capacity for per-cell recorders: enough for every window of the
/// instruction budgets the figures use, without unbounded growth.
const TRACE_CAPACITY: usize = 1 << 16;

/// A mix × variant grid of simulations, configured by builder methods
/// and executed by [`Grid::run`].
#[must_use]
pub struct Grid<'a> {
    variants: &'a [(&'a SystemConfig, PolicyKind)],
    mixes: &'a [Mix],
    instructions: u64,
    alone: &'a AloneIpcCache,
    executor: Option<&'a ParallelExecutor>,
    checkpoint: Option<&'a CheckpointManifest>,
    labels: Option<&'a [&'a str]>,
}

impl<'a> Grid<'a> {
    /// A grid running every variant on every mix for `instructions` per
    /// core, with weighted speedups against `alone`'s cached alone IPCs.
    pub fn new(
        variants: &'a [(&'a SystemConfig, PolicyKind)],
        mixes: &'a [Mix],
        instructions: u64,
        alone: &'a AloneIpcCache,
    ) -> Self {
        Self {
            variants,
            mixes,
            instructions,
            alone,
            executor: None,
            checkpoint: None,
            labels: None,
        }
    }

    /// Runs on `executor` instead of [`ParallelExecutor::from_env`], so
    /// the caller controls the thread count, cancel token, and deadline.
    pub fn executor(mut self, executor: &'a ParallelExecutor) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Resumes from and records into `manifest` instead of the
    /// process-wide `DAP_RESUME` [`resume_manifest`].
    pub fn checkpoint(mut self, manifest: &'a CheckpointManifest) -> Self {
        self.checkpoint = Some(manifest);
        self
    }

    /// Attaches telemetry: one metrics registry per variant (shared
    /// across that variant's mixes and worker threads — counter and
    /// histogram totals are commutative sums, so the snapshot is the
    /// same at any thread count) and a private window-trace recorder per
    /// cell. `labels` names the variants in [`GridRun::telemetry`], in
    /// variant order. Traced cells are never answered from the manifest.
    ///
    /// # Panics
    ///
    /// Panics if `labels` and the variants differ in length.
    pub fn traced(mut self, labels: &'a [&'a str]) -> Self {
        assert_eq!(labels.len(), self.variants.len(), "one label per variant");
        self.labels = Some(labels);
        self
    }

    /// Runs every cell not already in the checkpoint manifest and
    /// collects the outcome. A failed cell never aborts its siblings; it
    /// surfaces in [`GridRun::errors`].
    pub fn run(self) -> GridRun {
        let Self {
            variants,
            mixes,
            instructions,
            alone,
            executor,
            checkpoint,
            labels,
        } = self;
        let checkpoint = match (labels, checkpoint) {
            (Some(_), _) => None,
            (None, Some(manifest)) => Some(manifest),
            (None, None) => resume_manifest(),
        };
        if let Some(manifest) = checkpoint {
            manifest.warn_parse_errors_once();
        }
        let registries: Vec<MetricsRegistry> = match labels {
            Some(_) => variants.iter().map(|_| MetricsRegistry::new()).collect(),
            None => Vec::new(),
        };
        let mut slots: Vec<Option<Result<CellOut, CellError>>> = std::iter::repeat_with(|| None)
            .take(mixes.len() * variants.len())
            .collect();
        let mut resumed = 0;
        let mut cells = Vec::new();
        let mut cell_slot = Vec::new();
        for (m, mix) in mixes.iter().enumerate() {
            for (v, &(config, kind)) in variants.iter().enumerate() {
                let slot = m * variants.len() + v;
                let key = cell_key(config, kind, mix, instructions);
                if let Some(run) = checkpoint.and_then(|manifest| manifest.lookup(&key)) {
                    slots[slot] = Some(Ok(CellOut { run, trace: None }));
                    resumed += 1;
                    continue;
                }
                let registry = registries.get(v);
                let record_key = key.clone();
                cells.push(
                    CellSpec::new(format!("{}/{kind:?}", mix.name), move || {
                        let out = simulate(config, kind, mix, instructions, alone, registry);
                        if let Some(manifest) = checkpoint {
                            manifest.record(&record_key, &out.run);
                        }
                        progress::cell_finished(progress::windows_of(&out.run));
                        out
                    })
                    .with_fingerprint(key),
                );
                cell_slot.push(slot);
            }
        }
        let _progress = progress::grid_started(cells.len());
        let from_env;
        let executor = match executor {
            Some(executor) => executor,
            None => {
                from_env = ParallelExecutor::from_env();
                &from_env
            }
        };
        for (slot, result) in cell_slot.into_iter().zip(executor.run_cells(cells, 0)) {
            slots[slot] = Some(result);
        }

        let mut errors = Vec::new();
        let mut traces: Vec<Vec<(String, WindowTrace)>> =
            registries.iter().map(|_| Vec::new()).collect();
        let mut profiles: Vec<Vec<(String, Vec<dap_core::ProfileWindow>)>> =
            registries.iter().map(|_| Vec::new()).collect();
        let mut slots = slots.into_iter();
        let runs = mixes
            .iter()
            .map(|mix| {
                (0..variants.len())
                    .map(|v| {
                        // invariant: the loop above filled each of the
                        // mixes × variants slots (resumed, run, or error).
                        match slots.next().flatten().expect("every slot filled") {
                            Ok(CellOut { run, trace }) => {
                                if let Some((trace, profile)) = trace {
                                    traces[v].push((mix.name.clone(), trace));
                                    profiles[v].push((mix.name.clone(), profile));
                                }
                                Some(run)
                            }
                            Err(error) => {
                                errors.push(error);
                                None
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        let telemetry = labels
            .unwrap_or_default()
            .iter()
            .zip(variants)
            .zip(registries.iter().zip(traces.into_iter().zip(profiles)))
            .map(
                |((label, (config, _)), (registry, (traces, profiles)))| VariantTelemetry {
                    label: label.to_string(),
                    arch: architecture_name(&config.cache),
                    metrics: registry.snapshot(),
                    traces,
                    profiles,
                },
            )
            .collect();
        GridRun {
            runs,
            errors,
            resumed,
            telemetry,
        }
    }
}

/// One simulated cell: the run, plus its window trace and profile
/// rollups when the grid is traced.
struct CellOut {
    run: WorkloadRun,
    trace: Option<(WindowTrace, Vec<dap_core::ProfileWindow>)>,
}

/// Simulates one cell, attaching a private window-trace recorder and the
/// variant's metrics registry when the grid is traced. Telemetry never
/// perturbs the simulation: traced and untraced runs are bit-identical.
fn simulate(
    config: &SystemConfig,
    kind: PolicyKind,
    mix: &Mix,
    instructions: u64,
    alone: &AloneIpcCache,
    registry: Option<&MetricsRegistry>,
) -> CellOut {
    let Some(registry) = registry else {
        let run = run_workload(config, kind, mix, instructions, alone);
        return CellOut { run, trace: None };
    };
    let recorder = Arc::new(WindowTraceRecorder::new(TRACE_CAPACITY));
    let run = run_workload_with(config, kind, mix, instructions, alone, |system| {
        system.attach_dap_sink(recorder.clone());
        system.attach_telemetry(SubsystemTelemetry::new(registry));
    });
    // Profile rollups must be read before `take()` clears both rings.
    let profile = recorder.profile_windows();
    CellOut {
        run,
        trace: Some((recorder.take(), profile)),
    }
}

/// The outcome of a [`Grid`] run.
#[derive(Debug)]
pub struct GridRun {
    /// `runs[mix][variant]`; `None` exactly where `errors` has an entry.
    pub runs: Vec<Vec<Option<WorkloadRun>>>,
    /// Every cell that failed through all its attempts, in cell order.
    pub errors: Vec<CellError>,
    /// Cells restored from the checkpoint manifest instead of simulated.
    pub resumed: usize,
    /// Per-variant telemetry, in variant order, for a [`Grid::traced`]
    /// grid (empty otherwise). A failed cell contributes no trace.
    pub telemetry: Vec<VariantTelemetry>,
}

impl GridRun {
    /// Whether every cell produced a result.
    pub fn is_complete(&self) -> bool {
        self.errors.is_empty()
    }

    /// Whether the grid was stopped by cancellation (at least one cell
    /// was cancelled rather than failing on its own).
    pub fn cancelled(&self) -> bool {
        self.errors
            .iter()
            .any(|e| e.kind == CellErrorKind::Cancelled)
    }

    /// Converts the grid into the complete per-mix rows, or the
    /// [`ExecError`] describing why it is incomplete (cancellation wins
    /// over cell failures: an interrupted grid should be resumed, not
    /// diagnosed).
    ///
    /// # Errors
    ///
    /// [`ExecError::Cancelled`] or [`ExecError::Failed`] when any cell is
    /// missing.
    pub fn into_result(self) -> Result<Vec<Vec<WorkloadRun>>, ExecError> {
        if self.cancelled() {
            let total: usize = self.runs.iter().map(Vec::len).sum();
            return Err(ExecError::Cancelled {
                completed: total - self.errors.len(),
                total,
            });
        }
        if !self.errors.is_empty() {
            return Err(ExecError::Failed(self.errors));
        }
        Ok(self
            .runs
            .into_iter()
            .map(|row| {
                row.into_iter()
                    // invariant: no errors means every slot holds a run.
                    .map(|cell| cell.expect("complete grid has every cell"))
                    .collect()
            })
            .collect())
    }
}

/// Why a grid did not complete.
#[derive(Debug)]
pub enum ExecError {
    /// The grid's cancel token tripped mid-run. Finished cells are in
    /// the checkpoint manifest (when one is in use); re-running with
    /// `DAP_RESUME` completes the grid bit-identically.
    Cancelled {
        /// Cells that finished (including checkpoint-resumed ones).
        completed: usize,
        /// Total cells in the grid.
        total: usize,
    },
    /// One or more cells failed through all their permitted attempts.
    Failed(Vec<CellError>),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Cancelled { completed, total } => {
                write!(
                    f,
                    "grid cancelled after {completed}/{total} cells completed"
                )
            }
            Self::Failed(errors) => {
                write!(f, "{} cell(s) failed", errors.len())?;
                if let Some(first) = errors.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{rate_mix, spec};

    const INSTR: u64 = 5_000;

    /// A trace cannot be restored from a manifest, so a traced grid must
    /// simulate even when every one of its cells is already checkpointed.
    #[test]
    fn traced_grid_simulates_despite_a_filled_manifest() {
        let config = SystemConfig::sectored_dram_cache(2);
        let mixes = vec![rate_mix(spec("libquantum").unwrap(), 2)];
        let alone = AloneIpcCache::new();
        let variants = [(&config, PolicyKind::Dap)];
        let executor = ParallelExecutor::new(1);
        let manifest = CheckpointManifest::in_memory();
        let filled = Grid::new(&variants, &mixes, INSTR, &alone)
            .executor(&executor)
            .checkpoint(&manifest)
            .run();
        assert!(filled.is_complete(), "{:?}", filled.errors);
        assert_eq!(manifest.len(), 1);
        let again = Grid::new(&variants, &mixes, INSTR, &alone)
            .executor(&executor)
            .checkpoint(&manifest)
            .run();
        assert_eq!(
            again.resumed, 1,
            "an untraced grid answers from the manifest"
        );

        let traced = Grid::new(&variants, &mixes, INSTR, &alone)
            .executor(&executor)
            .checkpoint(&manifest)
            .traced(&["dap"])
            .run();
        assert_eq!(traced.resumed, 0, "traced cells always simulate");
        assert_eq!(traced.telemetry[0].traces.len(), 1, "one trace per mix");
        if dap_telemetry::enabled() {
            assert!(!traced.telemetry[0].traces[0].1.records.is_empty());
        }
        let (a, b) = (
            filled.runs[0][0].as_ref().unwrap(),
            traced.runs[0][0].as_ref().unwrap(),
        );
        assert_eq!(a.result.stats, b.result.stats);
        assert_eq!(a.weighted_speedup.to_bits(), b.weighted_speedup.to_bits());
    }
}
