//! Percentile estimation over [`Histogram`] bucket counts.
//!
//! The power-of-two histograms record only per-bucket counts, so a
//! percentile is estimated as the *upper bound of the smallest bucket
//! prefix* covering the requested rank — the same conservative estimator
//! [`Histogram::quantile_upper_bound`] uses. Estimates are therefore
//! upper bounds that never under-report a latency, and are exact for
//! values `<= 1` (bucket 0 is exact).
//!
//! Empty histograms have no percentiles: every entry point returns
//! `None` as the defined sentinel instead of panicking or fabricating a
//! zero.
//!
//! [`Histogram`]: crate::metrics::Histogram
//! [`Histogram::quantile_upper_bound`]: crate::metrics::Histogram::quantile_upper_bound

use crate::metrics::{bucket_upper_bound, HistogramSnapshot, HISTOGRAM_BUCKETS};

/// The four standard latency percentiles, as bucket upper bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Median (50th percentile).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// Smallest bucket upper bound covering at least `q` (clamped to
/// `[0, 1]`) of the samples in `buckets`, or `None` if all buckets are
/// empty (the defined empty-histogram sentinel).
pub fn quantile_from_buckets(buckets: &[u64; HISTOGRAM_BUCKETS], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= target {
            return Some(bucket_upper_bound(i));
        }
    }
    Some(u64::MAX)
}

/// Estimates p50/p90/p99/p999 from bucket counts, or `None` if the
/// histogram is empty.
pub fn percentiles_from_buckets(buckets: &[u64; HISTOGRAM_BUCKETS]) -> Option<Percentiles> {
    Some(Percentiles {
        p50: quantile_from_buckets(buckets, 0.50)?,
        p90: quantile_from_buckets(buckets, 0.90)?,
        p99: quantile_from_buckets(buckets, 0.99)?,
        p999: quantile_from_buckets(buckets, 0.999)?,
    })
}

impl HistogramSnapshot {
    /// Smallest bucket upper bound covering at least `q` of the samples,
    /// or `None` if the snapshot is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_from_buckets(&self.buckets, q)
    }

    /// The standard percentile set, or `None` if the snapshot is empty.
    pub fn percentiles(&self) -> Option<Percentiles> {
        percentiles_from_buckets(&self.buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::bucket_for;
    use dap_core::splitmix::next as splitmix64;

    #[test]
    fn empty_histogram_returns_none_sentinel() {
        let buckets = [0u64; HISTOGRAM_BUCKETS];
        assert_eq!(quantile_from_buckets(&buckets, 0.5), None);
        assert_eq!(percentiles_from_buckets(&buckets), None);
        let snap = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets,
        };
        assert_eq!(snap.percentiles(), None);
        assert_eq!(snap.quantile(0.99), None);
    }

    #[test]
    fn bucket_for_edge_cases() {
        // Zero and one share the exact first bucket.
        assert_eq!(bucket_for(0), 0);
        assert_eq!(bucket_for(1), 0);
        // Every power-of-two boundary: 2^k lands in bucket k, 2^k + 1
        // spills into bucket k + 1 (until the overflow bucket).
        for k in 1..30usize {
            let v = 1u64 << k;
            assert_eq!(bucket_for(v), k, "2^{k}");
            assert_eq!(bucket_for(v + 1), k + 1, "2^{k}+1");
            assert!(v <= bucket_upper_bound(bucket_for(v)));
        }
        // Everything above 2^30 saturates into the overflow bucket, whose
        // upper bound is u64::MAX.
        assert_eq!(bucket_for(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_for(1u64 << 40), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_upper_bound(0), 1);
    }

    #[test]
    fn known_distribution_percentiles() {
        // 100 samples of value 1, one sample of 1000: p50/p90 sit in the
        // exact low bucket, p99/p999 must reach the 1000 sample's bucket.
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[bucket_for(1)] = 100;
        buckets[bucket_for(1000)] = 1;
        let p = percentiles_from_buckets(&buckets).unwrap();
        assert_eq!(p.p50, 1);
        assert_eq!(p.p90, 1);
        assert_eq!(p.p999, bucket_upper_bound(bucket_for(1000)));
        assert_eq!(p.p999, 1024);
    }

    #[test]
    fn percentiles_are_monotone_under_seeded_random_fills() {
        // Property: for any bucket distribution, p50 <= p90 <= p99 <= p999,
        // and each percentile is a valid bucket upper bound.
        let mut state = 0xDEAD_BEEF_0BAD_CAFEu64;
        for round in 0..200 {
            let mut buckets = [0u64; HISTOGRAM_BUCKETS];
            let fills = 1 + (splitmix64(&mut state) % 64);
            for _ in 0..fills {
                let value = splitmix64(&mut state) >> (splitmix64(&mut state) % 64);
                buckets[bucket_for(value)] += 1 + splitmix64(&mut state) % 1000;
            }
            let p = percentiles_from_buckets(&buckets)
                .unwrap_or_else(|| panic!("round {round}: non-empty fill produced None"));
            assert!(p.p50 <= p.p90, "round {round}: {p:?}");
            assert!(p.p90 <= p.p99, "round {round}: {p:?}");
            assert!(p.p99 <= p.p999, "round {round}: {p:?}");
            for v in [p.p50, p.p90, p.p99, p.p999] {
                assert_eq!(v, bucket_upper_bound(bucket_for(v)), "round {round}");
            }
        }
    }

    #[test]
    fn quantile_extremes_clamp() {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[bucket_for(7)] = 10;
        // Below 0 and above 1 clamp instead of panicking.
        assert_eq!(quantile_from_buckets(&buckets, -1.0), Some(8));
        assert_eq!(quantile_from_buckets(&buckets, 2.0), Some(8));
    }

    #[test]
    fn matches_live_histogram_quantile() {
        if !crate::enabled() {
            return;
        }
        let hist = crate::metrics::Histogram::new();
        for v in [1u64, 2, 4, 8, 1000] {
            hist.record(v);
        }
        let buckets = hist.bucket_counts();
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(
                quantile_from_buckets(&buckets, q),
                hist.quantile_upper_bound(q),
                "q={q}"
            );
        }
    }
}
