//! Trace sources: the instruction streams that drive the cores.
//!
//! A [`TraceSource`] yields an endless sequence of [`TraceOp`]s — each a
//! burst of non-memory instructions followed by one memory operation. The
//! `workloads` crate provides the paper's benchmark clones; this module
//! defines the interface plus simple deterministic sources used in tests
//! and microbenchmark kernels.

use dap_core::splitmix;

use crate::BLOCK_SHIFT;

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A load: blocks retirement until data returns.
    Read,
    /// A store: drains through the store buffer without blocking.
    Write,
}

/// One trace record: `gap` non-memory instructions, then a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Non-memory instructions preceding the access.
    pub gap: u32,
    /// Access kind.
    pub kind: OpKind,
    /// Byte address.
    pub addr: u64,
    /// Synthetic program counter (drives PC-indexed predictors).
    pub pc: u64,
}

impl TraceOp {
    /// The 64-byte block address of this access.
    pub fn block(&self) -> u64 {
        self.addr >> BLOCK_SHIFT
    }
}

/// An endless instruction stream.
pub trait TraceSource {
    /// Produces the next operation. Must be deterministic.
    fn next_op(&mut self) -> TraceOp;
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_op(&mut self) -> TraceOp {
        (**self).next_op()
    }
}

/// A sequential streaming source: walks a buffer block by block, wrapping
/// at the footprint, with a fixed non-memory gap and a deterministic write
/// mix.
#[derive(Debug, Clone)]
pub struct StrideTrace {
    base: u64,
    footprint_bytes: u64,
    gap: u32,
    write_period: u32,
    cursor: u64,
    count: u64,
}

impl StrideTrace {
    /// Creates a streaming source over `[base, base + footprint_bytes)`.
    /// `write_fraction` in `[0, 1)` selects how many accesses are stores
    /// (every `round(1/f)`-th access).
    ///
    /// # Panics
    ///
    /// Panics if the footprint is smaller than one block or
    /// `write_fraction` is out of range.
    pub fn new(base: u64, gap: u32, footprint_bytes: u64, write_fraction: f64) -> Self {
        assert!(
            footprint_bytes >= 64,
            "footprint must hold at least one block"
        );
        assert!(
            (0.0..1.0).contains(&write_fraction),
            "write fraction in [0, 1)"
        );
        let write_period = if write_fraction == 0.0 {
            0
        } else {
            (1.0 / write_fraction).round() as u32
        };
        Self {
            base,
            footprint_bytes,
            gap,
            write_period,
            cursor: 0,
            count: 0,
        }
    }
}

impl TraceSource for StrideTrace {
    fn next_op(&mut self) -> TraceOp {
        let addr = self.base + self.cursor;
        self.cursor = (self.cursor + 64) % self.footprint_bytes;
        self.count += 1;
        let kind =
            if self.write_period != 0 && self.count.is_multiple_of(u64::from(self.write_period)) {
                OpKind::Write
            } else {
                OpKind::Read
            };
        TraceOp {
            gap: self.gap,
            kind,
            addr,
            pc: 0x400000,
        }
    }
}

/// A pointer-chase source: serially dependent reads over a pseudo-random
/// permutation (defeats prefetching; models mcf/omnetpp-style behaviour).
/// All accesses are loads with the given gap.
#[derive(Debug, Clone)]
pub struct ChaseTrace {
    base: u64,
    blocks: u64,
    gap: u32,
    state: u64,
}

impl ChaseTrace {
    /// Creates a chase over `footprint_bytes` starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the footprint is smaller than one block.
    pub fn new(base: u64, gap: u32, footprint_bytes: u64) -> Self {
        assert!(footprint_bytes >= 64);
        Self {
            base,
            blocks: footprint_bytes / 64,
            gap,
            state: splitmix::GAMMA,
        }
    }
}

impl TraceSource for ChaseTrace {
    fn next_op(&mut self) -> TraceOp {
        // SplitMix64 step: deterministic, uniform, serially dependent.
        let z = splitmix::next(&mut self.state);
        let addr = self.base + (z % self.blocks) * 64;
        TraceOp {
            gap: self.gap,
            kind: OpKind::Read,
            addr,
            pc: 0x500000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_walks_sequentially_and_wraps() {
        let mut t = StrideTrace::new(0x1000, 2, 256, 0.0);
        let a: Vec<u64> = (0..5).map(|_| t.next_op().addr).collect();
        assert_eq!(a, vec![0x1000, 0x1040, 0x1080, 0x10C0, 0x1000]);
    }

    #[test]
    fn stride_write_fraction() {
        let mut t = StrideTrace::new(0, 0, 1 << 20, 0.25);
        let writes = (0..100)
            .filter(|_| t.next_op().kind == OpKind::Write)
            .count();
        assert_eq!(writes, 25);
    }

    #[test]
    fn zero_write_fraction_is_read_only() {
        let mut t = StrideTrace::new(0, 0, 1 << 20, 0.0);
        assert!((0..1000).all(|_| t.next_op().kind == OpKind::Read));
    }

    #[test]
    fn chase_stays_in_footprint_and_is_deterministic() {
        let mut a = ChaseTrace::new(0x8000, 1, 1 << 16);
        let mut b = ChaseTrace::new(0x8000, 1, 1 << 16);
        for _ in 0..1000 {
            let (x, y) = (a.next_op(), b.next_op());
            assert_eq!(x, y);
            assert!(x.addr >= 0x8000 && x.addr < 0x8000 + (1 << 16));
        }
    }

    #[test]
    fn block_strips_offset() {
        let op = TraceOp {
            gap: 0,
            kind: OpKind::Read,
            addr: 0x1043,
            pc: 0,
        };
        assert_eq!(op.block(), 0x1043 >> 6);
    }
}
