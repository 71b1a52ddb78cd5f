//! Replacement policies for [`SetAssocCache`](super::SetAssocCache).

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// Least-recently-used, tracked as an exact recency rank per way.
    Lru,
    /// Single-bit not-recently-used, as the paper's DRAM cache uses: a hit
    /// sets the line's reference bit; when all bits in a set are set they
    /// are cleared (except the just-referenced line); the victim is the
    /// first line with a clear bit.
    Nru,
}
