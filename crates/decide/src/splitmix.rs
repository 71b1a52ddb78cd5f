//! SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the workspace's one
//! definition of the generator step and its output finalizer.
//!
//! Every seeded stream in the workspace — workload traces, pointer
//! chases, fault-schedule latency jitter, profiler sampling, client retry
//! backoff, and the seeded property and fuzz tests — draws from these two
//! functions, so a given seed yields the same sequence everywhere. The
//! crate is dependency-free and `no_std`, so every embedding reaches them
//! (`dap_core::splitmix` re-exports this module).
//!
//! ```
//! use dap_decide::splitmix;
//! let mut state = 1234567;
//! assert_eq!(splitmix::next(&mut state), 0x599E_D017_FB08_FC85);
//! ```

/// The state increment: the 64-bit golden ratio, `⌊2^64 / φ⌋` (odd, so
/// the state cycles through all 2^64 values).
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer: a bijective, statistically strong
/// 64-bit mix. On its own it turns structured inputs (block addresses,
/// seeds) into well-spread values without any generator state.
#[inline]
#[must_use]
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advances `state` by one SplitMix64 step and returns the next output.
#[inline]
pub fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix64(*state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sequence_matches_splitmix64() {
        // Published SplitMix64 test vector for seed 1234567.
        let mut state = 1234567;
        assert_eq!(next(&mut state), 0x599E_D017_FB08_FC85);
        assert_eq!(next(&mut state), 0x2C73_F084_5854_0FA5);
        assert_eq!(next(&mut state), 0x883E_BCE5_A3F2_7C77);
    }

    #[test]
    fn finalizer_is_a_bijection_on_a_sample() {
        assert_eq!(mix64(0), 0, "zero is the finalizer's fixed point");
        let outputs: Vec<u64> = (1..=1000u64).map(mix64).collect();
        let mut sorted = outputs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), outputs.len());
    }
}
