//! Memory-side cache architectures.
//!
//! Three implementations, matching the paper's evaluation targets:
//!
//! * [`SectoredDramCache`] — die-stacked HBM, 4 KB sectors, 4-way, NRU,
//!   metadata in the cache DRAM behind an SRAM [`TagCache`], footprint
//!   prefetching (Section VI-A).
//! * [`AlloyCache`] — direct-mapped tag-and-data (TAD) cache with a
//!   PC-indexed hit/miss predictor, BEAR-style presence bits and fill
//!   bypass, and the [`DirtyBitCache`] that gates DAP's forced misses
//!   (Section VI-B).
//! * [`EdramCache`] — sectored eDRAM with on-die tags and independent read
//!   and write channel sets (Section VI-C).
//!
//! Each cache owns its DRAM array(s) and exposes *mechanics* (probe state,
//! read/fill/evict with timing). Routing decisions live in
//! [`crate::system`], where the [`crate::policy::Partitioner`] is consulted.

mod alloy;
mod dbc;
mod edram;
mod flat;
mod sector_dir;
mod sectored;
mod tag_cache;

pub use alloy::AlloyCache;
pub use dbc::DirtyBitCache;
pub use edram::EdramCache;
pub use flat::{FlatTier, PlacementGoal};
pub use sector_dir::{SectorBlocks, SectorFill};
pub use sectored::{BlockState, MetadataProbe, SectoredDramCache};
pub use tag_cache::{TagCache, TagProbe};
