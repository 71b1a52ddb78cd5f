//! In-tree deterministic pseudo-random number generation.
//!
//! The workspace builds hermetically — no crates.io dependencies — so the
//! seeded randomness that the workload generators and the property tests
//! need comes from this module instead of the `rand` crate. The generator
//! is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a 64-bit counter fed
//! through a finalizing mixer, wrapped here from [`dap_decide::splitmix`]. It is tiny, passes BigCrush, and — most
//! importantly here — its output sequence is a pure function of the seed,
//! so every workload trace and every "property" test case is reproducible
//! across platforms and Rust versions (unlike `HashMap` iteration or
//! `StdRng`, whose algorithm is not stable across `rand` major versions).
//!
//! ```
//! use workloads::rng::SplitMix64;
//! let mut a = SplitMix64::new(42);
//! let mut b = SplitMix64::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// A deterministic 64-bit PRNG with SplitMix64 output mixing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Every seed — including 0 —
    /// yields a full-period, well-mixed sequence.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Seeds from arbitrary bytes (FNV-1a folded into the seed), so
    /// callers can derive independent streams from names and indices.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self::new(h)
    }

    /// The next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        dap_decide::splitmix::next(&mut self.state)
    }

    /// A uniform `f64` in `[0, 1)` (53 random mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, n)` via the multiply-shift reduction
    /// (Lemire); bias is below 2^-64 per draw, far under any tolerance the
    /// statistical tests use.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + self.below(u64::from(hi - lo) + 1) as u32
    }

    /// A uniform index in `[0, n)` for slice indexing.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// A uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range");
        lo + self.next_f64() * (hi - lo)
    }

    /// A Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sequence_matches_splitmix64() {
        // Published SplitMix64 test vector for seed 1234567.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 0x599E_D017_FB08_FC85);
        assert_eq!(r.next_u64(), 0x2C73_F084_5854_0FA5);
        assert_eq!(r.next_u64(), 0x883E_BCE5_A3F2_7C77);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(8);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn from_bytes_distinguishes_names() {
        let a = SplitMix64::from_bytes(b"mcf\x00\x00").state;
        let b = SplitMix64::from_bytes(b"mcf\x01\x00").state;
        assert_ne!(a, b);
    }

    #[test]
    fn f64_stays_in_unit_interval_with_sane_mean() {
        let mut r = SplitMix64::new(99);
        let mut sum = 0.0;
        for _ in 0..20_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 20_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SplitMix64::new(3);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_000..11_000).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn inclusive_range_covers_both_ends() {
        let mut r = SplitMix64::new(11);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1000 {
            match r.range_inclusive_u32(4, 6) {
                4 => lo_seen = true,
                6 => hi_seen = true,
                5 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let _ = SplitMix64::new(0).below(0);
    }
}
