//! # dap-core — Dynamic Access Partitioning
//!
//! This crate implements the primary contribution of *“Near-Optimal Access
//! Partitioning for Memory Hierarchies with Multiple Heterogeneous Bandwidth
//! Sources”* (HPCA 2017): the analytical bandwidth model of Section III and
//! the DAP hardware algorithm of Section IV, for all three memory-side cache
//! architectures the paper evaluates (sectored DRAM cache, Alloy cache, and
//! sectored eDRAM cache).
//!
//! The crate is deliberately free of any simulator dependency: everything
//! here operates on per-window access counts and produces *partition plans*
//! (how many Fill Write Bypasses, Write Bypasses, Informed/Speculative Forced
//! Read Misses to perform in the next window). A memory-system simulator —
//! such as the `mem-sim` crate in this workspace — feeds observations in and
//! consumes credits out.
//!
//! ## The bandwidth equation
//!
//! For `n` parallel bandwidth sources with bandwidths `B_i` (accesses per
//! cycle) serving fractions `f_i` of the accesses, the delivered bandwidth is
//!
//! ```text
//! B = min(B_1/f_1, B_2/f_2, ..., B_n/f_n)          (Eq. 2)
//! ```
//!
//! which is maximized — at `sum(B_i)` — exactly when accesses are distributed
//! in proportion to source bandwidths, `B_1/f_1 = ... = B_n/f_n` (Eq. 4).
//! [`bandwidth`] implements this model; the solvers in [`sectored`],
//! [`alloy`], and [`edram`] chase that optimum dynamically, one observation
//! window at a time.
//!
//! ## Quick example
//!
//! ```
//! use dap_core::{DapConfig, DapController, Technique, WindowStats};
//!
//! // 102.4 GB/s HBM cache + 38.4 GB/s DDR4, 64-cycle windows @4 GHz, E=0.75.
//! let config = DapConfig::hbm_ddr4();
//! let mut dap = DapController::new(config);
//!
//! // Pretend the previous window saw heavy cache pressure:
//! let stats = WindowStats {
//!     cache_accesses: 40,
//!     mm_accesses: 2,
//!     read_misses: 6,
//!     writes: 10,
//!     clean_read_hits: 12,
//!     ..WindowStats::default()
//! };
//! dap.end_window_with(&stats);
//!
//! // The next window can now consume partitioning credits:
//! assert!(dap.try_apply(Technique::FillWriteBypass));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod controller;
pub mod telemetry;

// The pure decision arithmetic now lives in the allocation-light
// `dap-decide` crate so it can be embedded outside the simulator (the
// `dapd` daemon, firmware, `no_std` targets). Re-exported module-by-module
// so every historical `dap_core::<module>::...` path keeps resolving.
pub use dap_decide::{
    alloy, bandwidth, config, credits, degrade, edram, ratio, sectored, splitmix, window,
};

pub use alloy::{AlloyDapSolver, AlloyPlan};
pub use audit::{AuditError, AuditMode, AuditReport, AuditViolation, Invariant, WindowAuditor};
pub use bandwidth::{
    delivered_bandwidth, optimal_fractions, read_kernel_bandwidth, BandwidthSource, SystemBandwidth,
};
pub use controller::{CacheArchitecture, DapConfig, DapController, DecisionStats, Technique};
pub use credits::{CreditBank, CreditCounter, ScaledCreditCounter};
pub use degrade::{degraded_k, EffectiveBandwidth};
pub use edram::{EdramDapSolver, EdramPlan};
pub use ratio::Ratio;
pub use sectored::{SectoredDapSolver, SectoredPlan};
pub use telemetry::{
    ProfileWindow, SourceFractions, TechniqueCounts, TelemetrySink, WindowSnapshot,
};
pub use window::{WindowBudget, WindowStats};
