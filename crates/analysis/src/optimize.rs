//! Searching linear FX maps beyond the paper's closed forms.
//!
//! The paper's future-work direction made concrete: when four or more
//! fields are smaller than `M`, some systems admit no perfect-optimal
//! method (\[Sung87\]) and the closed-form `I/U/IU1/IU2` assignments leave
//! some query patterns unbalanced. Any injective GF(2)-linear map per
//! small field is an FX distribution too
//! ([`FxDistribution::from_images`]), and it keeps the fast inverse and
//! targeted scatter. This module searches those maps.
//!
//! **Score.** Lexicographic: the summed largest response over every
//! specification pattern, then the number of non-strict-optimal patterns.
//! Both come from ranks
//! ([`FxDistribution::largest_response_by_rank`]), so scoring a candidate
//! allocates nothing per device and enumerates no bucket. [`objective`]
//! is the exhaustive referee.
//!
//! **Search.** Seeded random sampling from Theorem 9's map: every try
//! draws fresh random injective images for every small field (a field with
//! `F ≥ M` keeps the identity, since a pattern that leaves it open already
//! spreads over every device) and keeps the best, stopping at the analytic
//! bound.

use pmr_core::bits::ceil_div;
use pmr_core::method::DistributionMethod;
use pmr_core::optimality::pattern_largest_response;
use pmr_core::query::Pattern;
use pmr_core::system::SystemConfig;
use pmr_core::{DeviceSet, FxDistribution, Result};
use pmr_rt::Rng;
use std::cmp::Reverse;

/// Outcome of a search.
#[derive(Debug)]
pub struct SearchResult {
    /// The best map found.
    pub distribution: FxDistribution,
    /// Its score: the summed largest response over all patterns.
    pub score: u64,
    /// The score of the starting point (Theorem 9's map).
    pub initial_score: u64,
    /// The analytic lower bound on the score.
    pub lower_bound: u64,
    /// Number of strict-optimal patterns at the end.
    pub optimal_patterns: usize,
    /// Number of strict-optimal patterns at the start.
    pub initial_optimal_patterns: usize,
    /// Tries drawn before the search stopped (at the bound or the budget).
    pub tries: usize,
}

/// The exhaustive objective: summed largest response size across every
/// specification pattern, from one histogram per pattern (exact, via
/// shift invariance).
pub fn objective<D: DistributionMethod + ?Sized>(method: &D, sys: &SystemConfig) -> u64 {
    Pattern::all(sys.num_fields())
        .map(|p| pattern_largest_response(method, sys, p))
        .sum()
}

/// The analytic lower bound on [`objective`]: `Σ ceil(|R| / M)`.
pub fn objective_lower_bound(sys: &SystemConfig) -> u64 {
    Pattern::all(sys.num_fields())
        .map(|p| ceil_div(p.qualified_count(sys), sys.devices()))
        .sum()
}

/// `(summed largest response, strict-optimal pattern count)` of an FX map,
/// by rank. The sum equals [`objective`].
pub fn rank_score(fx: &FxDistribution) -> (u64, usize) {
    let sys = fx.system();
    let mut sum = 0;
    let mut optimal = 0;
    for p in Pattern::all(sys.num_fields()) {
        let largest = fx.largest_response_by_rank(p);
        sum += largest;
        if largest <= ceil_div(p.qualified_count(sys), sys.devices()) {
            optimal += 1;
        }
    }
    (sum, optimal)
}

/// Searches up to `tries` random linear maps for `sys`, from Theorem 9's
/// map, with a seeded generator (runs are deterministic per seed).
///
/// # Errors
///
/// Propagates configuration errors from building Theorem 9's map (none for
/// valid systems).
pub fn search(sys: &SystemConfig, tries: usize, seed: u64) -> Result<SearchResult> {
    let start = FxDistribution::auto(sys.clone())?;
    let lower_bound = objective_lower_bound(sys);
    let (initial_score, initial_optimal_patterns) = rank_score(&start);
    let small = sys.small_fields();
    let mut rng = Rng::seed_from_u64(seed);
    let (mut best, mut score, mut optimal_patterns) =
        (start, initial_score, initial_optimal_patterns);
    let mut used = 0;
    while score > lower_bound && used < tries && !small.is_empty() {
        used += 1;
        let mut images = best.images().to_vec();
        for &field in &small {
            images[field] = random_injective(&mut rng, sys.field_bits(field), sys.devices());
        }
        let candidate = FxDistribution::from_images(sys.clone(), images)?;
        let (s, o) = rank_score(&candidate);
        if (s, Reverse(o)) < (score, Reverse(optimal_patterns)) {
            (best, score, optimal_patterns) = (candidate, s, o);
        }
    }
    Ok(SearchResult {
        distribution: best,
        score,
        initial_score,
        lower_bound,
        optimal_patterns,
        initial_optimal_patterns,
        tries: used,
    })
}

/// `bits` uniformly random linearly independent images in `Z_M`
/// (`bits < log2 M`): each is redrawn until it leaves the span of the
/// ones before it.
fn random_injective(rng: &mut Rng, bits: u32, m: u64) -> Vec<u64> {
    let mut span = DeviceSet::single(0);
    (0..bits)
        .map(|_| loop {
            let v = rng.below(m);
            if !span.contains(v) {
                span.insert(v);
                break v;
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_core::AssignmentStrategy;

    /// The search never regresses: the result is at least as good as
    /// Theorem 9's map, and bounded below by the analytic optimum.
    #[test]
    fn never_regresses() {
        for sizes in [&[4u64, 4, 4, 4][..], &[2, 2, 2, 2, 2][..]] {
            let sys = SystemConfig::new(sizes, 16).unwrap();
            let result = search(&sys, 300, 1).unwrap();
            assert!(result.score <= result.initial_score);
            assert!(result.score >= result.lower_bound);
            assert!(result.optimal_patterns >= result.initial_optimal_patterns);
            assert_eq!(result.score, objective(&result.distribution, &sys));
        }
    }

    /// On a system where the closed forms are already perfect (≤ 3 small
    /// fields), the search recognises the bound and returns immediately.
    #[test]
    fn early_exit_at_bound() {
        let sys = SystemConfig::new(&[4, 2, 8], 16).unwrap();
        let result = search(&sys, 5_000, 2).unwrap();
        assert_eq!(result.score, result.lower_bound);
        assert_eq!(result.tries, 0, "no search needed at the bound");
    }

    /// The headline: on a 4-small-field system the search strictly
    /// improves on every closed-form assignment, up to the bound.
    #[test]
    fn improves_on_closed_forms_with_four_small_fields() {
        let sys = SystemConfig::new(&[4, 4, 4, 4], 16).unwrap();
        let best_closed = [
            AssignmentStrategy::Basic,
            AssignmentStrategy::CycleIu1,
            AssignmentStrategy::CycleIu2,
            AssignmentStrategy::TheoremNine,
        ]
        .into_iter()
        .map(|s| {
            objective(
                &FxDistribution::with_strategy(sys.clone(), s).unwrap(),
                &sys,
            )
        })
        .min()
        .unwrap();
        let result = search(&sys, 1_500, 42).unwrap();
        assert!(
            result.score < best_closed,
            "searched {} vs best closed-form {best_closed}",
            result.score
        );
        assert_eq!(result.score, result.lower_bound);
        assert_eq!(objective(&result.distribution, &sys), result.score);
    }

    /// Determinism: identical budgets and seeds give identical outcomes.
    #[test]
    fn deterministic_per_seed() {
        let sys = SystemConfig::new(&[4, 4, 2, 2], 16).unwrap();
        let a = search(&sys, 200, 9).unwrap();
        let b = search(&sys, 200, 9).unwrap();
        assert_eq!(a.score, b.score);
        assert_eq!(a.tries, b.tries);
        assert_eq!(a.distribution.images(), b.distribution.images());
    }
}
