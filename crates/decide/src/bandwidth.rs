//! Analytical bandwidth model (Section III of the paper).
//!
//! A system has `n` distinct, non-blocking, parallel bandwidth sources.
//! Source `i` can serve `B_i` accesses per unit time; it is asked to serve a
//! fraction `f_i` of the `A` total accesses. The time to finish all accesses
//! is dominated by the slowest source, so the delivered bandwidth is
//! `min_i(B_i / f_i)` (Eq. 2) and its maximum over all feasible partitions is
//! `sum_i(B_i)`, attained when `f_i = B_i / sum(B)` (Eq. 3/4).
//!
//! With maintenance traffic (fills, dirty evictions, metadata), the served
//! access volume inflates by a factor `C >= 1` and the maximum delivered
//! *demand* bandwidth becomes `sum_i(B_i) / C` — which is why DAP both
//! partitions accesses *and* prefers techniques (like fill write bypass) that
//! reduce `C`.

#[cfg(not(feature = "std"))]
use alloc::{string::String, vec, vec::Vec};
use core::fmt;

/// A single bandwidth source: a named channel group with a peak bandwidth.
///
/// Bandwidth is expressed in *accesses per unit time*, where every access
/// transfers a fixed payload (64 bytes throughout the paper). Use
/// [`BandwidthSource::from_gbps`] to convert a GB/s figure.
///
/// ```
/// use dap_decide::BandwidthSource;
/// let hbm = BandwidthSource::from_gbps("HBM", 102.4);
/// let ddr = BandwidthSource::from_gbps("DDR4", 38.4);
/// assert!(hbm.accesses_per_sec() > ddr.accesses_per_sec());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthSource {
    name: String,
    accesses_per_sec: f64,
}

impl BandwidthSource {
    /// Bytes moved per access everywhere in this model (one cache block).
    pub const BYTES_PER_ACCESS: f64 = 64.0;

    /// Creates a source from a raw accesses-per-second rate. A rate of
    /// exactly zero is allowed and means the source is currently dark
    /// (delivering nothing — see [`crate::degrade`]).
    ///
    /// # Panics
    ///
    /// Panics if `accesses_per_sec` is not finite and non-negative.
    pub fn new(name: impl Into<String>, accesses_per_sec: f64) -> Self {
        assert!(
            accesses_per_sec.is_finite() && accesses_per_sec >= 0.0,
            "bandwidth must be finite and non-negative, got {accesses_per_sec}"
        );
        Self {
            name: name.into(),
            accesses_per_sec,
        }
    }

    /// Creates a source from a GB/s figure (1 GB = 1e9 bytes, as in the
    /// paper's 102.4 GB/s / 38.4 GB/s style numbers).
    pub fn from_gbps(name: impl Into<String>, gbps: f64) -> Self {
        Self::new(name, gbps * 1e9 / Self::BYTES_PER_ACCESS)
    }

    /// The source's label (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Peak rate in accesses per second.
    pub fn accesses_per_sec(&self) -> f64 {
        self.accesses_per_sec
    }

    /// Peak rate in GB/s.
    pub fn gbps(&self) -> f64 {
        self.accesses_per_sec * Self::BYTES_PER_ACCESS / 1e9
    }
}

impl fmt::Display for BandwidthSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:.1} GB/s)", self.name, self.gbps())
    }
}

/// Delivered bandwidth of a partition (Eq. 2): `min_i(B_i / f_i)`.
///
/// `sources` and `fractions` must have equal, non-zero length and the
/// fractions must be non-negative. Fractions need not sum exactly to 1 — the
/// caller may be exploring infeasible points — but a source with `f_i = 0`
/// simply does not constrain the minimum.
///
/// Returns the delivered bandwidth in accesses per second.
///
/// # Panics
///
/// Panics if lengths differ, the slices are empty, or any fraction is
/// negative/NaN.
///
/// ```
/// use dap_decide::{delivered_bandwidth, BandwidthSource};
/// let m1 = BandwidthSource::from_gbps("M1", 102.4);
/// let m2 = BandwidthSource::from_gbps("M2", 51.2);
/// // Half the accesses to each: bottlenecked by M2 at 102.4 GB/s total.
/// let b = delivered_bandwidth(&[m1, m2], &[0.5, 0.5]);
/// assert!((b * 64.0 / 1e9 - 102.4).abs() < 1e-6);
/// ```
pub fn delivered_bandwidth(sources: &[BandwidthSource], fractions: &[f64]) -> f64 {
    assert_eq!(sources.len(), fractions.len(), "one fraction per source");
    assert!(!sources.is_empty(), "need at least one source");
    let mut min = f64::INFINITY;
    for (s, &f) in sources.iter().zip(fractions) {
        assert!(
            f >= 0.0 && f.is_finite(),
            "fractions must be finite and non-negative"
        );
        if f > 0.0 {
            min = min.min(s.accesses_per_sec / f);
        }
    }
    // Every fraction zero means no source is assigned any accesses:
    // nothing is delivered (rather than the vacuous infinite minimum).
    if min == f64::INFINITY {
        return 0.0;
    }
    min
}

/// Eq. 4 over raw rates: writes `f_i = B_i / sum(B)` into `fractions`.
///
/// This is the workspace's one computation of the bandwidth-proportional
/// split: the sum runs left to right and each fraction is one division,
/// so every caller gets the same bits. It does not allocate, which keeps
/// `dapd`'s re-solve path allocation-free.
///
/// Returns `false`, leaving `fractions` untouched, when every source is
/// dark (`sum(B)` is not positive): there is no stream to partition, and
/// each caller chooses its own fallback.
///
/// # Panics
///
/// Panics if `rates` and `fractions` differ in length.
///
/// ```
/// use dap_decide::bandwidth::proportional_split;
/// let mut f = [0.0; 2];
/// assert!(proportional_split(&[102.4, 51.2], &mut f));
/// assert!((f[0] - 2.0 / 3.0).abs() < 1e-12);
/// assert!(!proportional_split(&[0.0, 0.0], &mut f), "all dark");
/// ```
#[must_use = "an all-dark input leaves the fractions unwritten"]
pub fn proportional_split(rates: &[f64], fractions: &mut [f64]) -> bool {
    assert_eq!(rates.len(), fractions.len(), "one fraction per source");
    let total: f64 = rates.iter().sum();
    if total > 0.0 {
        for (f, &b) in fractions.iter_mut().zip(rates) {
            *f = b / total;
        }
        true
    } else {
        false
    }
}

/// Optimal access fractions (Eq. 3): `f_i = B_i / sum(B)`.
///
/// Distributing accesses in proportion to source bandwidths equalizes
/// `B_i / f_i` and achieves the maximum delivered bandwidth `sum(B_i)`.
/// Every source dark yields all-zero fractions (not NaN from 0/0), which
/// keeps downstream arithmetic sane.
///
/// # Panics
///
/// Panics if `sources` is empty.
///
/// ```
/// use dap_decide::{optimal_fractions, BandwidthSource};
/// let f = optimal_fractions(&[
///     BandwidthSource::from_gbps("M1", 102.4),
///     BandwidthSource::from_gbps("M2", 51.2),
/// ]);
/// assert!((f[0] - 2.0 / 3.0).abs() < 1e-12);
/// assert!((f[1] - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn optimal_fractions(sources: &[BandwidthSource]) -> Vec<f64> {
    assert!(!sources.is_empty(), "need at least one source");
    let rates: Vec<f64> = sources.iter().map(|s| s.accesses_per_sec).collect();
    let mut fractions = vec![0.0; sources.len()];
    // All dark: the zeros stay.
    let _ = proportional_split(&rates, &mut fractions);
    fractions
}

/// A multi-source system together with its maintenance inflation factor `C`.
///
/// `C >= 1` is the ratio of *actual* accesses served (demand plus fills,
/// dirty evictions, metadata reads/updates, ...) to demand accesses. The
/// maximum demand bandwidth deliverable is `sum(B_i) / C`.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemBandwidth {
    sources: Vec<BandwidthSource>,
    inflation: f64,
}

impl SystemBandwidth {
    /// Builds a system description.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or `inflation < 1.0`.
    pub fn new(sources: Vec<BandwidthSource>, inflation: f64) -> Self {
        assert!(!sources.is_empty(), "need at least one source");
        assert!(inflation >= 1.0 && inflation.is_finite(), "C must be >= 1");
        Self { sources, inflation }
    }

    /// The bandwidth sources.
    pub fn sources(&self) -> &[BandwidthSource] {
        &self.sources
    }

    /// The access-volume inflation factor `C`.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// Maximum deliverable *demand* bandwidth, `sum(B_i) / C`, in accesses/s.
    pub fn max_demand_bandwidth(&self) -> f64 {
        self.sources.iter().map(|s| s.accesses_per_sec).sum::<f64>() / self.inflation
    }

    /// Optimal fractions of the (inflated) access stream per source.
    pub fn optimal_fractions(&self) -> Vec<f64> {
        optimal_fractions(&self.sources)
    }

    /// How far a measured per-source access split is from optimal, as the
    /// largest absolute fraction error. Useful for validating that a policy
    /// converged (the paper's Fig. 8 check that the main-memory CAS fraction
    /// approaches 0.27).
    pub fn partition_error(&self, measured_fractions: &[f64]) -> f64 {
        let opt = self.optimal_fractions();
        assert_eq!(
            opt.len(),
            measured_fractions.len(),
            "one fraction per source"
        );
        opt.iter()
            .zip(measured_fractions)
            .map(|(o, m)| (o - m).abs())
            .fold(0.0, f64::max)
    }
}

/// Delivered read bandwidth of the paper's Figure 1 microbenchmark model.
///
/// A read-only stream hits the memory-side cache with probability `h`.
///
/// * Single-bus cache (HBM DRAM cache): read hits *and* miss fills share the
///   cache's one set of channels, while misses are served by main memory.
///   Per demand read, the cache serves `h` (hit reads) plus `1 - h` (fill
///   writes), and main memory serves `1 - h`.
/// * Split-channel cache (eDRAM): fills go to separate write channels, so
///   the read channels serve `h` and main memory serves `1 - h`; total
///   delivered read bandwidth is the *sum* of both contributions until the
///   read channels saturate.
///
/// Returns delivered bandwidth in accesses per second.
pub fn read_kernel_bandwidth(
    cache_read: &BandwidthSource,
    cache_write: Option<&BandwidthSource>,
    main_memory: &BandwidthSource,
    hit_rate: f64,
) -> f64 {
    assert!(
        (0.0..=1.0).contains(&hit_rate),
        "hit rate must be in [0, 1]"
    );
    let h = hit_rate;
    let miss = 1.0 - h;
    match cache_write {
        // Split channels: reads limited by read channels at h per access and
        // by MM at (1-h); fills ride the write channels (limit fills too).
        Some(w) => {
            // Time per demand access on each resource; bandwidth = 1 / max.
            let t_read = if h > 0.0 {
                h / cache_read.accesses_per_sec
            } else {
                0.0
            };
            let t_mm = if miss > 0.0 {
                miss / main_memory.accesses_per_sec
            } else {
                0.0
            };
            let t_fill = if miss > 0.0 {
                miss / w.accesses_per_sec
            } else {
                0.0
            };
            // Read channels and MM operate in parallel: the stream completes
            // when the slower of the *serial* chains finishes. Misses occupy
            // MM and (for the fill) the write channels concurrently.
            let t = t_read.max(t_mm).max(t_fill);
            if t == 0.0 {
                cache_read.accesses_per_sec
            } else {
                1.0 / t
            }
        }
        // Single bus: h hit reads + (1-h) miss fills all occupy the cache
        // bus, i.e. exactly one cache-bus transfer per demand read.
        None => {
            let t_cache = 1.0 / cache_read.accesses_per_sec;
            let t_mm = if miss > 0.0 {
                miss / main_memory.accesses_per_sec
            } else {
                0.0
            };
            1.0 / t_cache.max(t_mm)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbps(b: f64) -> f64 {
        b * BandwidthSource::BYTES_PER_ACCESS / 1e9
    }

    #[test]
    fn paper_example_equal_split_is_bottlenecked() {
        // Section III example: M1 = 102.4, M2 = 51.2; f = (0.5, 0.5) delivers
        // only 102.4 GB/s, bottlenecked by M2.
        let m1 = BandwidthSource::from_gbps("M1", 102.4);
        let m2 = BandwidthSource::from_gbps("M2", 51.2);
        let b = delivered_bandwidth(&[m1, m2], &[0.5, 0.5]);
        assert!((gbps(b) - 102.4).abs() < 1e-9);
    }

    #[test]
    fn paper_example_optimal_split_sums_bandwidths() {
        // 2/3 to M1 and 1/3 to M2 delivers 153.6 GB/s.
        let m1 = BandwidthSource::from_gbps("M1", 102.4);
        let m2 = BandwidthSource::from_gbps("M2", 51.2);
        let f = optimal_fractions(&[m1.clone(), m2.clone()]);
        let b = delivered_bandwidth(&[m1, m2], &f);
        assert!((gbps(b) - 153.6).abs() < 1e-9);
    }

    #[test]
    fn all_accesses_to_one_source() {
        let m1 = BandwidthSource::from_gbps("M1", 102.4);
        let m2 = BandwidthSource::from_gbps("M2", 51.2);
        let b = delivered_bandwidth(&[m1, m2], &[1.0, 0.0]);
        assert!((gbps(b) - 102.4).abs() < 1e-9);
    }

    #[test]
    fn optimal_fractions_sum_to_one() {
        let f = optimal_fractions(&[
            BandwidthSource::from_gbps("a", 10.0),
            BandwidthSource::from_gbps("b", 20.0),
            BandwidthSource::from_gbps("c", 70.0),
        ]);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[2] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn proportional_split_keeps_the_two_source_closed_form_bits() {
        // FlatTier's and BATMAN's targets are a two-source split, and
        // figure output depends on their exact bits: the split must equal
        // the closed form `a / (a + b)`.
        for (a, b) in [(102.4, 38.4), (51.2, 51.2), (1e-3, 7.0), (38.4, 0.0)] {
            let mut f = [0.0; 2];
            assert!(proportional_split(&[a, b], &mut f));
            assert_eq!(f[0].to_bits(), (a / (a + b)).to_bits(), "{a} / ({a} + {b})");
        }
    }

    #[test]
    fn inflation_scales_max_demand_bandwidth() {
        let sys = SystemBandwidth::new(
            vec![
                BandwidthSource::from_gbps("cache", 102.4),
                BandwidthSource::from_gbps("mm", 38.4),
            ],
            1.25,
        );
        assert!((gbps(sys.max_demand_bandwidth()) - (102.4 + 38.4) / 1.25).abs() < 1e-9);
    }

    #[test]
    fn partition_error_zero_at_optimum() {
        let sys = SystemBandwidth::new(
            vec![
                BandwidthSource::from_gbps("cache", 102.4),
                BandwidthSource::from_gbps("mm", 38.4),
            ],
            1.0,
        );
        let f = sys.optimal_fractions();
        assert!(sys.partition_error(&f) < 1e-12);
        // MM's optimal fraction is the paper's 0.27.
        assert!((f[1] - 38.4 / 140.8).abs() < 1e-12);
    }

    #[test]
    fn read_kernel_single_bus_plateaus_after_crossover() {
        // HBM 102.4 single bus, DDR4 38.4: Figure 1 "DRAM$" curve — rises,
        // then stays ~flat from ~70% to 100%.
        let hbm = BandwidthSource::from_gbps("HBM", 102.4);
        let ddr = BandwidthSource::from_gbps("DDR", 38.4);
        let b0 = read_kernel_bandwidth(&hbm, None, &ddr, 0.0);
        let b70 = read_kernel_bandwidth(&hbm, None, &ddr, 0.70);
        let b100 = read_kernel_bandwidth(&hbm, None, &ddr, 1.0);
        assert!(b70 > b0, "bandwidth should rise with hit rate initially");
        // Plateau: 70% and 100% within ~10% of each other.
        assert!((gbps(b70) - gbps(b100)).abs() / gbps(b100) < 0.12);
        assert!((gbps(b100) - 102.4).abs() < 1e-9);
    }

    #[test]
    fn read_kernel_split_channels_peak_before_full_hit_rate() {
        // eDRAM 51.2+51.2 split channels: Figure 1 "EDRAM$" curve — delivered
        // bandwidth *falls* as hit rate goes beyond the optimum toward 100%.
        let rd = BandwidthSource::from_gbps("eDRAM-R", 51.2);
        let wr = BandwidthSource::from_gbps("eDRAM-W", 51.2);
        let ddr = BandwidthSource::from_gbps("DDR", 38.4);
        let b50 = read_kernel_bandwidth(&rd, Some(&wr), &ddr, 0.50);
        let b90 = read_kernel_bandwidth(&rd, Some(&wr), &ddr, 0.90);
        let b100 = read_kernel_bandwidth(&rd, Some(&wr), &ddr, 1.0);
        assert!(
            b50 > b100,
            "50% hit rate should beat 100% on split channels"
        );
        assert!(b90 > b100);
        assert!((gbps(b100) - 51.2).abs() < 1e-9);
    }

    #[test]
    fn zero_bandwidth_means_dark_source() {
        // Zero is representable (a dark source — see `degrade`); only
        // negative or non-finite rates are rejected.
        let dark = BandwidthSource::new("dark", 0.0);
        assert_eq!(dark.accesses_per_sec(), 0.0);
        let f = optimal_fractions(&[BandwidthSource::from_gbps("live", 38.4), dark]);
        assert_eq!(f[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be finite and non-negative")]
    fn negative_bandwidth_rejected() {
        let _ = BandwidthSource::new("bad", -1.0);
    }

    #[test]
    fn all_dark_sources_yield_zero_fractions_and_bandwidth() {
        let sources = [
            BandwidthSource::new("d0", 0.0),
            BandwidthSource::new("d1", 0.0),
        ];
        let f = optimal_fractions(&sources);
        assert_eq!(f, vec![0.0, 0.0], "no NaN from 0/0");
        assert_eq!(delivered_bandwidth(&sources, &f), 0.0);
        // The split itself writes nothing: the fallback is the caller's.
        let mut kept = [0.25, 0.75];
        assert!(!proportional_split(&[0.0, 0.0], &mut kept));
        assert_eq!(kept, [0.25, 0.75]);
    }

    #[test]
    #[should_panic(expected = "one fraction per source")]
    fn mismatched_lengths_rejected() {
        let m = BandwidthSource::from_gbps("m", 1.0);
        let _ = delivered_bandwidth(&[m], &[0.5, 0.5]);
    }

    #[test]
    fn display_formats_gbps() {
        let m = BandwidthSource::from_gbps("HBM", 102.4);
        assert_eq!(m.to_string(), "HBM (102.4 GB/s)");
    }
}
