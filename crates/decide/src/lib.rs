//! # dap-decide — the pure DAP decision library
//!
//! The decision core of *"Near-Optimal Access Partitioning for Memory
//! Hierarchies with Multiple Heterogeneous Bandwidth Sources"* (HPCA 2017),
//! extracted from `dap-core` so that it can be embedded anywhere a routing
//! decision is made: the cycle-accurate simulator (`mem-sim` via
//! `dap-core`), the multi-tenant partitioning daemon (`dapd`), a firmware
//! memory controller, or a fleet-scale cache tier.
//!
//! Everything here is *pure decision arithmetic* — no I/O, no clocks, no
//! simulator types, and (almost) no allocation:
//!
//! * [`bandwidth`] — the analytical model of Section III: delivered
//!   bandwidth `min_i(B_i/f_i)` (Eq. 2) and the bandwidth-proportional
//!   optimum `f_i = B_i/ΣB` (Eq. 3/4).
//! * [`sectored`] / [`alloy`] / [`edram`] — the per-architecture window
//!   solvers of Section IV (Eq. 6–8 and the eDRAM cases i–iii, Eq. 9–12).
//! * [`credits`] — the saturating `(K+1)`-scaled credit counters the
//!   solvers load and datapaths drain.
//! * [`ratio`] — shift-and-add rational arithmetic for `K = B_MS$/B_MM`.
//! * [`window`] — per-window observation counts and derived budgets.
//! * [`degrade`] — measured (possibly zero) per-source bandwidth inputs
//!   for re-solving Eq. 4 against what devices actually deliver.
//! * [`config`] — the static controller configuration and decision
//!   statistics shared by every embedding.
//! * [`splitmix`] — the workspace's one SplitMix64 step and finalizer.
//!
//! ## `no_std`
//!
//! The crate is `#![no_std]` without the default `std` feature; the
//! handful of `Vec`/`String`-returning helpers in [`bandwidth`] use
//! `alloc`. The float paths avoid std-only intrinsics (`floor`/`round`)
//! via the exact integer-cast forms in the private `math` module, so the
//! same bits are computed with and without `std`.

#![cfg_attr(not(feature = "std"), no_std)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(feature = "std"))]
extern crate alloc;

pub mod alloy;
pub mod bandwidth;
pub mod config;
pub mod credits;
pub mod degrade;
pub mod edram;
mod math;
pub mod ratio;
pub mod sectored;
pub mod splitmix;
pub mod window;

pub use alloy::{AlloyDapSolver, AlloyPlan};
pub use bandwidth::{
    delivered_bandwidth, optimal_fractions, read_kernel_bandwidth, BandwidthSource, SystemBandwidth,
};
pub use config::{CacheArchitecture, DapConfig, DecisionStats, Technique};
pub use credits::{CreditBank, CreditCounter, ScaledCreditCounter};
pub use degrade::{degraded_k, EffectiveBandwidth};
pub use edram::{EdramDapSolver, EdramPlan};
pub use ratio::Ratio;
pub use sectored::{SectoredDapSolver, SectoredPlan};
pub use window::{WindowBudget, WindowStats};
