//! # mem-sim — cycle-approximate multi-core memory-hierarchy simulator
//!
//! The simulation substrate for the DAP reproduction. It models:
//!
//! * trace-driven out-of-order cores (4-wide, 224-entry ROB) whose
//!   memory-level parallelism emerges from the reorder window,
//! * a three-level SRAM cache hierarchy (private L1D/L2, shared L3) with a
//!   multi-stream stride prefetcher,
//! * DDR4 / LPDDR4 / HBM DRAM channel models with banks, row buffers,
//!   burst-occupied data buses, and batched writes,
//! * the three memory-side cache architectures of the paper — sectored
//!   DRAM cache (+SRAM tag cache, footprint prefetcher), Alloy cache
//!   (+dirty-bit cache, hit/miss predictor), and split-channel sectored
//!   eDRAM cache,
//! * a pluggable [`policy::Partitioner`] seam where DAP and the baseline
//!   policies (SBD, BATMAN, ...) steer traffic between the memory-side
//!   cache and main memory.
//!
//! Timing uses a resource-reservation discipline: every DRAM data transfer
//! occupies its channel's bus for the burst duration and its bank for the
//! row-activation window, so bandwidth saturation and queueing delay — the
//! two phenomena DAP exploits — are modeled faithfully, while the simulator
//! stays fast enough to sweep the paper's 44-workload evaluation.
//!
//! ```
//! use mem_sim::{System, SystemConfig};
//! use mem_sim::trace::{StrideTrace, TraceSource};
//!
//! let config = SystemConfig::sectored_dram_cache(1);
//! let traces: Vec<Box<dyn TraceSource>> =
//!     vec![Box::new(StrideTrace::new(0x1000_0000, 64, 1 << 22, 0.1))];
//! let mut system = System::new(config, traces);
//! let result = system.run(10_000);
//! assert_eq!(result.per_core[0].instructions, 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod clock;
pub mod config;
pub mod core_model;
pub mod dram;
pub mod faults;
pub mod interrupt;
pub mod mscache;
pub mod policy;
pub mod prefetch;
pub mod profile;
pub mod stats;
pub mod system;
pub mod telemetry;
pub mod trace;

pub use config::{CacheKind, SystemConfig, CAPACITY_SCALE};
pub use faults::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
pub use interrupt::{RunInterrupted, ScopedStop, StopCause};
pub use policy::{
    DapPolicy, NoPartitioning, Observation, Partitioner, ReadContext, ReadRoute, ThreadAwareDap,
    WriteRoute,
};
pub use profile::{AccessProfiler, PhaseSample};
pub use stats::{CoreResult, RunResult, SimStats};
pub use system::{KernelStats, MemAccessKind, MemorySubsystem, System};
pub use telemetry::SubsystemTelemetry;

/// Block size used throughout the hierarchy (bytes).
pub const BLOCK_BYTES: u64 = 64;
/// log2 of the block size.
pub const BLOCK_SHIFT: u32 = 6;
