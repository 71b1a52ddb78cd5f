//! SRAM cache structures: a generic set-associative array used for the
//! L1/L2/L3 hierarchy, the DRAM-cache tag cache, the dirty-bit cache, and
//! the sector directories of the memory-side caches; and the miss-status
//! table in front of the memory subsystem.

mod mshr;
mod replacement;
mod set_assoc;

pub use mshr::MshrTable;
pub use replacement::ReplacementKind;
pub use set_assoc::{Eviction, SetAssocCache, Slot};
