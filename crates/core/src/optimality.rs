//! Ground-truth optimality checking (paper §2 definitions).
//!
//! * The *response size* of device `i` for query `q` is the number of
//!   qualified buckets residing on `i`.
//! * A distribution is **strict optimal** for `q` when no device's response
//!   size exceeds `ceil(|R(q)| / M)`.
//! * It is **k-optimal** when strict optimal for *every* query with exactly
//!   `k` unspecified fields, and **perfect optimal** when k-optimal for all
//!   `k = 0 … n`.
//!
//! Everything here is exhaustive and definition-level: no sufficient
//! conditions, no shortcuts (apart from the opt-in shift-invariance fast
//! path, which is itself validated against the exhaustive path by property
//! tests). These checkers are the referee for the paper's theorems and for
//! the analysis crate.

use crate::bits::ceil_div;
use crate::method::DistributionMethod;
use crate::query::{PartialMatchQuery, Pattern};
use crate::system::SystemConfig;

/// Per-device response sizes (`r_i(q)` in the paper) for one query.
///
/// The returned vector has length `M`; entry `z` counts qualified buckets
/// on device `z`.
pub fn response_histogram<D: DistributionMethod + ?Sized>(
    method: &D,
    sys: &SystemConfig,
    query: &PartialMatchQuery,
) -> Vec<u64> {
    let mut hist = vec![0u64; sys.devices() as usize];
    let mut it = query.qualified_buckets(sys);
    while let Some(code) = it.next_code() {
        hist[method.device_of_packed(code) as usize] += 1;
    }
    hist
}

/// The *largest response size* `MAX(r_0(q), …, r_{M−1}(q))` — the paper's
/// response-time proxy for symmetric parallel devices (§5.2.1).
pub fn largest_response<D: DistributionMethod + ?Sized>(
    method: &D,
    sys: &SystemConfig,
    query: &PartialMatchQuery,
) -> u64 {
    response_histogram(method, sys, query)
        .into_iter()
        .max()
        .unwrap_or(0)
}

/// The strict-optimality bound `ceil(|R(q)| / M)` for a query.
pub fn optimal_bound(sys: &SystemConfig, query: &PartialMatchQuery) -> u64 {
    ceil_div(query.qualified_count_in(sys), sys.devices())
}

/// `true` when `method` is strict optimal for `query`.
pub fn is_strict_optimal<D: DistributionMethod + ?Sized>(
    method: &D,
    sys: &SystemConfig,
    query: &PartialMatchQuery,
) -> bool {
    largest_response(method, sys, query) <= optimal_bound(sys, query)
}

/// `true` when `method` is strict optimal for **every** query with the
/// given specification pattern.
///
/// When the method declares [`DistributionMethod::histogram_shift_invariant`]
/// only the zero representative is evaluated; otherwise every
/// `∏ F_specified` value combination is checked.
pub fn pattern_strict_optimal<D: DistributionMethod + ?Sized>(
    method: &D,
    sys: &SystemConfig,
    pattern: Pattern,
) -> bool {
    if method.histogram_shift_invariant() {
        let q = PartialMatchQuery::zero_representative(sys, pattern);
        return is_strict_optimal(method, sys, &q);
    }
    for_each_query(sys, pattern, |q| is_strict_optimal(method, sys, q))
}

/// Worst (largest) response size across every query with the pattern —
/// with the shift-invariance shortcut when available.
pub fn pattern_largest_response<D: DistributionMethod + ?Sized>(
    method: &D,
    sys: &SystemConfig,
    pattern: Pattern,
) -> u64 {
    if method.histogram_shift_invariant() {
        let q = PartialMatchQuery::zero_representative(sys, pattern);
        return largest_response(method, sys, &q);
    }
    let mut worst = 0;
    for_each_query(sys, pattern, |q| {
        worst = worst.max(largest_response(method, sys, q));
        true
    });
    worst
}

/// `true` when `method` is k-optimal: strict optimal for all queries with
/// exactly `k` unspecified fields.
pub fn is_k_optimal<D: DistributionMethod + ?Sized>(
    method: &D,
    sys: &SystemConfig,
    k: u32,
) -> bool {
    Pattern::with_unspecified_count(sys.num_fields(), k)
        .all(|p| pattern_strict_optimal(method, sys, p))
}

/// `true` when `method` is perfect optimal: k-optimal for every
/// `k = 0 … n`. Exhaustive — intended for the small systems of the paper's
/// examples and for tests.
pub fn is_perfect_optimal<D: DistributionMethod + ?Sized>(method: &D, sys: &SystemConfig) -> bool {
    Pattern::all(sys.num_fields()).all(|p| pattern_strict_optimal(method, sys, p))
}

/// Invokes `f` on every query with the given pattern (odometer over the
/// specified fields' values); stops early and returns `false` the first
/// time `f` does. Returns `true` when `f` held for every query.
pub fn for_each_query<F>(sys: &SystemConfig, pattern: Pattern, mut f: F) -> bool
where
    F: FnMut(&PartialMatchQuery) -> bool,
{
    let n = sys.num_fields();
    let specified: Vec<usize> = pattern.specified_fields(n);
    let mut values: Vec<Option<u64>> = (0..n)
        .map(|i| {
            if pattern.is_unspecified(i) {
                None
            } else {
                Some(0)
            }
        })
        .collect();
    loop {
        let q =
            PartialMatchQuery::new(sys, &values).expect("odometer generates only valid queries");
        if !f(&q) {
            return false;
        }
        // Advance the specified-value odometer (last specified field
        // fastest).
        let mut advanced = false;
        for &field in specified.iter().rev() {
            let v = values[field].as_mut().expect("specified field");
            *v += 1;
            if *v < sys.field_size(field) {
                advanced = true;
                break;
            }
            *v = 0;
        }
        if !advanced {
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Assignment, AssignmentStrategy};
    use crate::fx::FxDistribution;
    use crate::transform::TransformKind;

    fn example_1() -> (SystemConfig, FxDistribution) {
        let sys = SystemConfig::new(&[2, 8], 4).unwrap();
        let fx = FxDistribution::basic(sys.clone()).unwrap();
        (sys, fx)
    }

    /// "Since each device has two qualified buckets for this partial match
    /// query, FX distribution is strict optimal for this query."
    #[test]
    fn example_1_query_histogram() {
        let (sys, fx) = example_1();
        let q = PartialMatchQuery::new(&sys, &[Some(1), None]).unwrap();
        assert_eq!(response_histogram(&fx, &sys, &q), vec![2, 2, 2, 2]);
        assert_eq!(largest_response(&fx, &sys, &q), 2);
        assert_eq!(optimal_bound(&sys, &q), 2);
        assert!(is_strict_optimal(&fx, &sys, &q));
    }

    /// "Basic FX distribution is strict optimal for any partial match query
    /// in a file system of example 1" — i.e. perfect optimal there.
    #[test]
    fn example_1_perfect_optimal() {
        let (sys, fx) = example_1();
        assert!(is_perfect_optimal(&fx, &sys));
    }

    /// Theorem 1: Basic FX is always 0-optimal and 1-optimal — checked on a
    /// batch of assorted systems.
    #[test]
    fn theorem_1_zero_and_one_optimal() {
        for (fields, m) in [
            (vec![2u64, 8], 4u64),
            (vec![4, 4], 16),
            (vec![2, 2, 2], 16),
            (vec![8, 2, 4], 8),
            (vec![16, 16], 4),
        ] {
            let sys = SystemConfig::new(&fields, m).unwrap();
            let fx = FxDistribution::basic(sys.clone()).unwrap();
            assert!(is_k_optimal(&fx, &sys, 0), "{sys} not 0-optimal");
            assert!(is_k_optimal(&fx, &sys, 1), "{sys} not 1-optimal");
        }
    }

    /// Theorem 2: queries with ≥ 2 unspecified fields are strict optimal
    /// under Basic FX when at least one unspecified field has F ≥ M.
    #[test]
    fn theorem_2_large_unspecified_field() {
        let sys = SystemConfig::new(&[2, 8, 4], 4).unwrap();
        let fx = FxDistribution::basic(sys.clone()).unwrap();
        // Fields 1 (F=8) and 2 (F=4) are ≥ M=4.
        for pattern in [
            Pattern::from_unspecified(&[0, 1]),
            Pattern::from_unspecified(&[0, 2]),
            Pattern::from_unspecified(&[1, 2]),
            Pattern::from_unspecified(&[0, 1, 2]),
        ] {
            assert!(pattern_strict_optimal(&fx, &sys, pattern), "{pattern:?}");
        }
    }

    /// The §3 counterexample: with M = 16 and F = (2, 8), Basic FX is NOT
    /// optimal for the fully-unspecified query…
    #[test]
    fn section_3_counterexample_basic_fx() {
        let sys = SystemConfig::new(&[2, 8], 16).unwrap();
        let fx = FxDistribution::basic(sys.clone()).unwrap();
        let q = PartialMatchQuery::new(&sys, &[None, None]).unwrap();
        assert!(!is_strict_optimal(&fx, &sys, &q));
        assert!(!is_perfect_optimal(&fx, &sys));
    }

    /// …but substituting (1000)_B for (001)_B in the f1 column — a U
    /// transform — makes it perfect optimal.
    #[test]
    fn section_3_fix_with_u_transform() {
        let sys = SystemConfig::new(&[2, 8], 16).unwrap();
        let a = Assignment::from_kinds(&sys, &[TransformKind::U, TransformKind::Identity]).unwrap();
        let fx = FxDistribution::with_assignment(a);
        assert!(is_perfect_optimal(&fx, &sys));
    }

    /// Theorem 4 (Example 3): I + U on F = (4, 4), M = 16 is perfect
    /// optimal.
    #[test]
    fn theorem_4_perfect_optimal() {
        let sys = SystemConfig::new(&[4, 4], 16).unwrap();
        let a = Assignment::from_kinds(&sys, &[TransformKind::Identity, TransformKind::U]).unwrap();
        assert!(is_perfect_optimal(
            &FxDistribution::with_assignment(a),
            &sys
        ));
    }

    /// Theorem 5 (Example 5): I + IU1 on F = (4, 4), M = 16.
    #[test]
    fn theorem_5_perfect_optimal() {
        let sys = SystemConfig::new(&[4, 4], 16).unwrap();
        let a =
            Assignment::from_kinds(&sys, &[TransformKind::Identity, TransformKind::Iu1]).unwrap();
        assert!(is_perfect_optimal(
            &FxDistribution::with_assignment(a),
            &sys
        ));
    }

    /// Theorem 6: U + IU1 with two small fields.
    #[test]
    fn theorem_6_perfect_optimal() {
        for (f, m) in [(vec![4u64, 4], 16u64), (vec![2, 8], 16), (vec![4, 8], 32)] {
            let sys = SystemConfig::new(&f, m).unwrap();
            let a = Assignment::from_kinds(&sys, &[TransformKind::U, TransformKind::Iu1]).unwrap();
            assert!(
                is_perfect_optimal(&FxDistribution::with_assignment(a), &sys),
                "U+IU1 on {sys}"
            );
        }
    }

    /// Theorems 7/8: I + IU2 and U + IU2 with two small fields.
    #[test]
    fn theorems_7_8_perfect_optimal() {
        for kinds in [
            [TransformKind::Identity, TransformKind::Iu2],
            [TransformKind::U, TransformKind::Iu2],
        ] {
            for (f, m) in [(vec![8u64, 2], 16u64), (vec![2, 2], 16), (vec![4, 2], 32)] {
                let sys = SystemConfig::new(&f, m).unwrap();
                let a = Assignment::from_kinds(&sys, &kinds).unwrap();
                assert!(
                    is_perfect_optimal(&FxDistribution::with_assignment(a), &sys),
                    "{kinds:?} on {sys}"
                );
            }
        }
    }

    /// Theorem 9: with ≤ 3 small fields the auto assignment is perfect
    /// optimal — including the tricky L = 3 all-small cases.
    #[test]
    fn theorem_9_perfect_optimal() {
        for (f, m) in [
            (vec![4u64, 2, 2], 16u64),
            (vec![8, 4, 2], 16),
            (vec![2, 2, 2], 16),
            (vec![8, 8, 2], 16),
            (vec![4, 4, 4], 32),
            (vec![2, 4, 8], 32),
            (vec![4, 2, 2, 32], 32),
        ] {
            let sys = SystemConfig::new(&f, m).unwrap();
            let fx = FxDistribution::auto(sys.clone()).unwrap();
            assert!(
                is_perfect_optimal(&fx, &sys),
                "auto FX on {sys} ({})",
                fx.describe()
            );
        }
    }

    /// Example 6's system (Table 4): I, U, IU1 on F = (2, 4, 2), M = 8 is
    /// perfect optimal (all three pairwise methods differ).
    #[test]
    fn table_4_system_perfect_optimal() {
        let sys = SystemConfig::new(&[2, 4, 2], 8).unwrap();
        let a = Assignment::from_kinds(
            &sys,
            &[
                TransformKind::Identity,
                TransformKind::U,
                TransformKind::Iu1,
            ],
        )
        .unwrap();
        assert!(is_perfect_optimal(
            &FxDistribution::with_assignment(a),
            &sys
        ));
    }

    /// Same-transform small fields break optimality: I + I on
    /// F = (4, 4), M = 16 is not 2-optimal.
    #[test]
    fn same_transforms_not_optimal() {
        let sys = SystemConfig::new(&[4, 4], 16).unwrap();
        let fx = FxDistribution::basic(sys.clone()).unwrap();
        assert!(is_k_optimal(&fx, &sys, 0));
        assert!(is_k_optimal(&fx, &sys, 1));
        assert!(!is_k_optimal(&fx, &sys, 2));
    }

    #[test]
    fn for_each_query_counts() {
        let sys = SystemConfig::new(&[2, 4, 2], 8).unwrap();
        let pattern = Pattern::from_unspecified(&[1]);
        let mut count = 0;
        for_each_query(&sys, pattern, |_| {
            count += 1;
            true
        });
        assert_eq!(count, 4); // F_0 · F_2 = 2 · 2 specified combos.
    }

    #[test]
    fn for_each_query_early_exit() {
        let sys = SystemConfig::new(&[4, 4], 4).unwrap();
        let mut count = 0;
        let all = for_each_query(&sys, Pattern::EXACT, |_| {
            count += 1;
            count < 3
        });
        assert!(!all);
        assert_eq!(count, 3);
    }

    /// Shift-invariance fast path agrees with the exhaustive path for FX.
    #[test]
    fn fast_path_matches_exhaustive() {
        let sys = SystemConfig::new(&[4, 4, 2], 8).unwrap();
        let fx = FxDistribution::with_strategy(sys.clone(), AssignmentStrategy::CycleIu1).unwrap();

        /// Wrapper hiding the invariance declaration.
        struct NoInvariance<'a>(&'a FxDistribution);
        impl DistributionMethod for NoInvariance<'_> {
            fn device_of(&self, b: &[u64]) -> u64 {
                self.0.device_of(b)
            }
            fn system(&self) -> &SystemConfig {
                self.0.system()
            }
            fn name(&self) -> String {
                "fx-no-invariance".into()
            }
        }

        let slow = NoInvariance(&fx);
        for pattern in Pattern::all(sys.num_fields()) {
            assert_eq!(
                pattern_strict_optimal(&fx, &sys, pattern),
                pattern_strict_optimal(&slow, &sys, pattern),
                "{pattern:?}"
            );
            assert_eq!(
                pattern_largest_response(&fx, &sys, pattern),
                pattern_largest_response(&slow, &sys, pattern),
                "{pattern:?}"
            );
        }
    }
}
