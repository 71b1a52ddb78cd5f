//! One function per paper figure/table.
//!
//! | Function | Reproduces |
//! |---|---|
//! | [`fig01_bw_vs_hitrate`] | Fig. 1 — delivered bandwidth vs hit rate |
//! | [`fig02_edram_capacity`] | Fig. 2 — 512 MB vs 256 MB eDRAM |
//! | [`fig04_bw_sensitivity`] | Fig. 4 — bandwidth-sensitivity classification |
//! | [`fig05_tag_cache`] | Fig. 5 — the tag-cache optimized baseline |
//! | [`fig06_dap_sectored`] | Fig. 6 — DAP speedup + read-miss latency |
//! | [`fig07_decision_mix`] | Fig. 7 — FWB/WB/IFRM/SFRM decision shares |
//! | [`fig08_cas_fraction`] | Fig. 8 — main-memory CAS fraction + hit rates |
//! | [`table1_w_e_sensitivity`] | Table I — window size and efficiency sweep |
//! | [`fig09_mm_technology`] | Fig. 9 — main-memory technology sweep |
//! | [`fig10_capacity_bandwidth`] | Fig. 10 — cache capacity and bandwidth sweep |
//! | [`fig11_related_proposals`] | Fig. 11 — SBD / SBD-WT / BATMAN vs DAP |
//! | [`fig12_all_workloads`] | Fig. 12 — all 44 workloads |
//! | [`fig13_sixteen_cores`] | Fig. 13 — 16-core scaling |
//! | [`fig14_alloy`] | Fig. 14 — Alloy cache + BEAR vs DAP |
//! | [`fig15_edram`] | Fig. 15 — eDRAM capacities with DAP |
//! | [`fig_fault_degradation`] | Extension — delivered bandwidth under injected faults |

mod dap;
mod fault;
mod motivation;
mod rivals;
mod sweeps;

pub use dap::{fig06_dap_sectored, fig07_decision_mix, fig08_cas_fraction, table1_w_e_sensitivity};
pub use fault::{delivered_gbps, fig_fault_degradation};
pub use motivation::{
    fig01_bw_vs_hitrate, fig02_edram_capacity, fig04_bw_sensitivity, fig05_tag_cache,
};
pub use rivals::{fig11_related_proposals, fig12_all_workloads, fig14_alloy, fig15_edram};
pub use sweeps::{fig09_mm_technology, fig10_capacity_bandwidth, fig13_sixteen_cores};

use workloads::{bandwidth_sensitive, rate_mix, Mix};

use crate::exec::{CellSpec, ParallelExecutor};

/// The twelve bandwidth-sensitive rate-`cores` mixes.
pub(crate) fn sensitive_mixes(cores: usize) -> Vec<Mix> {
    bandwidth_sensitive()
        .into_iter()
        .map(|s| rate_mix(s, cores))
        .collect()
}

/// Runs cells that are not mix × variant [`WorkloadRun`](crate::WorkloadRun)s
/// (Fig. 1, Fig. 7, Table I) on [`ParallelExecutor::from_env`] and returns
/// their results in cell order, panicking with the first failure only
/// after every cell has drained.
fn run_all<T: Send>(cells: Vec<CellSpec<'_, T>>) -> Vec<T> {
    ParallelExecutor::from_env()
        .run_cells(cells, 0)
        .into_iter()
        .map(|result| result.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}
