//! Shared percentile math for the workspace.
//!
//! One implementation serves every consumer — the bench harness
//! ([`crate::bench`]), the net load generator, and the cluster-telemetry
//! attribution tables — so "p99" means the same thing everywhere:
//! nearest-rank with linear interpolation between adjacent order
//! statistics, `0.0` for an empty sample.
//!
//! [`percentile_from_hist`] answers the same question from a
//! fixed-bucket histogram (the [`crate::obs::DEFAULT_US_BOUNDS`]
//! histogram shape): it returns the upper bound of the bucket holding the
//! requested rank, which is the tightest claim bucketed counts support.

use std::collections::BTreeMap;

/// Value at percentile `p` (0–100) of an **unsorted** sample: sorts in
/// place, then interpolates between adjacent order statistics.
/// `0.0` for an empty sample; `p` is clamped to `[0, 100]`.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    percentile_sorted(samples, p)
}

/// [`percentile`] over an already ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// [`percentile`] over a sample held as value → count, keyed by
/// [`f64::to_bits`]. Non-negative values sort by their bits, so the map's
/// key order is the sample's sorted order and the result is bit-identical
/// to [`percentile`] over the expanded sample. Memory grows with the
/// distinct values, not the sample size.
pub fn percentile_counted(counts: &BTreeMap<u64, u64>, p: f64) -> f64 {
    debug_assert!(
        counts
            .keys()
            .all(|&bits| f64::from_bits(bits).is_sign_positive()),
        "keys sort as values only for non-negative samples"
    );
    let n: u64 = counts.values().sum();
    // The value of 0-based order statistic `k`.
    let nth = |k: u64| {
        let mut seen = 0u64;
        for (&bits, &c) in counts {
            seen += c;
            if seen > k {
                return f64::from_bits(bits);
            }
        }
        unreachable!("k < n")
    };
    match n {
        0 => 0.0,
        1 => nth(0),
        _ => {
            let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as u64;
            let hi = rank.ceil() as u64;
            let frac = rank - lo as f64;
            nth(lo) + (nth(hi) - nth(lo)) * frac
        }
    }
}

/// Percentile `p` (0–100) read off a fixed-bucket histogram: the upper
/// bound of the bucket containing the rank-`⌈p/100·total⌉` observation.
///
/// `counts` is one longer than `bounds` (overflow bucket last, the
/// obs histogram convention). Returns `0.0` when the histogram is empty and
/// `f64::INFINITY` when the rank lands in the overflow bucket — bucketed
/// counts cannot bound an overflow observation.
pub fn percentile_from_hist(bounds: &[f64], counts: &[u64], p: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((p.clamp(0.0, 100.0) / 100.0 * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bounds.get(i).copied().unwrap_or(f64::INFINITY);
        }
    }
    f64::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_zero() {
        assert_eq!(percentile(&mut [], 50.0), 0.0);
        assert_eq!(percentile_sorted(&[], 99.0), 0.0);
    }

    #[test]
    fn single_sample_is_itself_at_every_p() {
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&mut [7.5], p), 7.5);
        }
    }

    #[test]
    fn p0_and_p100_are_the_extremes() {
        let mut s = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&mut s, 0.0), 10.0);
        assert_eq!(percentile(&mut s, 100.0), 40.0);
        // Out-of-range p clamps rather than indexing out of bounds.
        assert_eq!(percentile(&mut s, -5.0), 10.0);
        assert_eq!(percentile(&mut s, 250.0), 40.0);
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        let mut s = [30.0, 10.0, 40.0, 20.0];
        assert_eq!(percentile(&mut s, 50.0), 25.0);
        assert_eq!(s, [10.0, 20.0, 30.0, 40.0], "sorts in place");
        assert_eq!(percentile_sorted(&s, 50.0), 25.0);
    }

    #[test]
    fn interpolates_between_order_statistics() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&s, 25.0), 17.5);
        assert_eq!(percentile_sorted(&s, 75.0), 32.5);
    }

    crate::rt_proptest! {
        /// The counted form equals `percentile` bit for bit on samples
        /// with repeats, at every percentile.
        fn counted_percentile_matches_sorted_sample(src) {
            let distinct = src.vec_of(1..=6, |s| s.f64_in(0.0, 1e6));
            let mut sample = src.vec_of(0..=40, |s| distinct[s.usize_in(0..=distinct.len() - 1)]);
            let mut counts = BTreeMap::new();
            for &v in &sample {
                *counts.entry(f64::to_bits(v)).or_insert(0u64) += 1;
            }
            for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0, src.f64_in(0.0, 100.0)] {
                let want = percentile(&mut sample, p);
                let got = percentile_counted(&counts, p);
                assert_eq!(got.to_bits(), want.to_bits(), "p {p}: {got} vs {want} over {sample:?}");
            }
        }
    }

    #[test]
    fn hist_percentile_returns_bucket_bounds() {
        let bounds = [10.0, 100.0, 1000.0];
        // 3 in ≤10, 6 in ≤100, 1 overflow.
        let counts = [3, 6, 0, 1];
        assert_eq!(percentile_from_hist(&bounds, &counts, 0.0), 10.0);
        assert_eq!(percentile_from_hist(&bounds, &counts, 30.0), 10.0);
        assert_eq!(percentile_from_hist(&bounds, &counts, 50.0), 100.0);
        assert_eq!(percentile_from_hist(&bounds, &counts, 90.0), 100.0);
        assert_eq!(percentile_from_hist(&bounds, &counts, 100.0), f64::INFINITY);
        assert_eq!(percentile_from_hist(&bounds, &[0, 0, 0, 0], 50.0), 0.0);
    }
}
