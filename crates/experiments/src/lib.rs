//! # experiments — the paper's evaluation, experiment by experiment
//!
//! One function per figure/table of the paper's evaluation (Sections II,
//! V, VI). Each returns a [`FigureResult`]: named rows of named columns
//! plus summary statistics, with a `Display` implementation that prints
//! the same series the paper plots. The `dap-bench` crate exposes one
//! binary per experiment.
//!
//! All experiments take an `instructions` budget per core; larger budgets
//! reduce warmup bias. Each figure's grid of independent simulations runs
//! through one [`Grid`] on the [`exec::ParallelExecutor`] (`DAP_THREADS`
//! workers, `DAP_RESUME` checkpoint), and results are bit-identical at any
//! thread count — the deterministic workloads and index-ordered result
//! slots make every run reproducible.
//!
//! ```no_run
//! use experiments::figures;
//! // Regenerate Fig. 6 (DAP on the sectored DRAM cache) at a small budget:
//! let fig = figures::fig06_dap_sectored(100_000);
//! println!("{fig}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod cancel;
pub mod checkpoint;
pub mod exec;
pub mod extensions;
pub mod figures;
pub mod fingerprint;
pub mod grid;
pub mod metrics;
pub mod progress;
pub mod runner;
pub mod shard;
pub mod telemetry;

pub use cancel::{global_cancel_token, CancelToken, EXIT_INTERRUPTED};
pub use checkpoint::{cell_key, resume_manifest, CheckpointManifest, RESUME_ENV};
pub use exec::{
    clear_cell_panic, inject_cell_panic, lock_unpoisoned, CellError, CellErrorKind, CellSpec,
    ParallelExecutor,
};
pub use fingerprint::ConfigFingerprint;
pub use grid::{ExecError, Grid, GridRun};
pub use metrics::{geomean, FigureResult, Row};
pub use progress::{cell_finished, grid_started, GridProgress};
pub use runner::{run_mix, run_workload, AloneIpcCache, PolicyKind, WorkloadRun};
pub use shard::{
    explore_grid, live_fleet_exposition, merge_worker_manifests, pareto_points, pareto_report,
    run_worker, supervise, supervise_with_tick, write_merged_manifest, ClaimOutcome, ExploreCell,
    ExploreGrid, FleetOutcome, LeaseLog, LeaseSnapshot, MergeError, MergeReport, ParetoPoint,
    SupervisorConfig, WorkerConfig, WorkerSummary,
};
pub use telemetry::{artifact_dir_from_env, export_variant_traces, VariantTelemetry};
