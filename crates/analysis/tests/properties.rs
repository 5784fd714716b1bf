//! Property-based tests for the analysis engine, running under the
//! [`pmr_rt::check`] harness.

use pmr_analysis::optimize::{objective, objective_lower_bound};
use pmr_analysis::probability::{
    empirical_fraction, fx_certified_fraction, fx_certified_probability,
};
use pmr_analysis::response::{average_largest_response, optimal_average};
use pmr_baselines::ModuloDistribution;
use pmr_core::{Assignment, AssignmentStrategy, FxDistribution, SystemConfig};
use pmr_rt::check::Source;
use pmr_rt::rt_proptest;

fn gen_system(src: &mut Source) -> SystemConfig {
    let field_bits = src.vec_of(1..=4, |s| s.u32_in(0..=3));
    let m_bits = src.u32_in(1..=4).max(1);
    let sizes: Vec<u64> = field_bits.iter().map(|&b| 1u64 << b).collect();
    SystemConfig::new(&sizes, 1 << m_bits).expect("powers of two are valid")
}

fn gen_strategy(src: &mut Source) -> AssignmentStrategy {
    [
        AssignmentStrategy::Basic,
        AssignmentStrategy::CycleIu1,
        AssignmentStrategy::CycleIu2,
        AssignmentStrategy::TheoremNine,
    ][src.arm(4)]
}

rt_proptest! {
    /// Per-k averages are bounded below by the optimal average and above
    /// by the qualified count, for FX and Modulo alike.
    fn averages_are_bounded(src) {
        let sys = gen_system(src);
        let strategy = gen_strategy(src);
        let fx = FxDistribution::with_strategy(sys.clone(), strategy).unwrap();
        let dm = ModuloDistribution::new(sys.clone());
        for k in 0..=sys.num_fields() as u32 {
            let opt = optimal_average(&sys, k);
            for avg in [
                average_largest_response(&fx, &sys, k),
                average_largest_response(&dm, &sys, k),
            ] {
                assert!(avg + 1e-9 >= opt, "k = {k}: {avg} < {opt}");
                // A largest response can never exceed the full qualified
                // count of the biggest pattern at this k.
                let max_qualified = pmr_core::query::Pattern::with_unspecified_count(
                    sys.num_fields(),
                    k,
                )
                .map(|p| p.qualified_count(&sys))
                .max()
                .unwrap() as f64;
                assert!(avg <= max_qualified + 1e-9);
            }
        }
    }

    /// Certified fraction never exceeds the measured fraction
    /// (sufficient ⇒ one-sided), for any strategy and system.
    fn certified_below_empirical(src) {
        let sys = gen_system(src);
        let strategy = gen_strategy(src);
        let assignment = Assignment::from_strategy(&sys, strategy).unwrap();
        let fx = FxDistribution::with_assignment(assignment.clone());
        let certified = fx_certified_fraction(&assignment);
        let measured = empirical_fraction(&fx, &sys);
        assert!(certified <= measured + 1e-12, "{certified} > {measured} on {sys}");
    }

    /// The Bernoulli-weighted certified probability is monotone-bounded:
    /// it lies in [certified-at-p, 1] trivially at the endpoints and is a
    /// proper probability everywhere.
    fn certified_probability_is_probability(src) {
        let sys = gen_system(src);
        let strategy = gen_strategy(src);
        let p = src.f64_in(0.0, 1.0);
        let assignment = Assignment::from_strategy(&sys, strategy).unwrap();
        let prob = fx_certified_probability(&assignment, p);
        assert!((0.0..=1.0 + 1e-12).contains(&prob));
        // p = 1 certifies everything (exact match is clause 1).
        assert!((fx_certified_probability(&assignment, 1.0) - 1.0).abs() < 1e-12);
    }

    /// The search objective of any FX variant is bounded below by the
    /// analytic bound, and Basic FX ties the bound exactly when no field
    /// is small.
    fn objective_bounds(src) {
        let sys = gen_system(src);
        let strategy = gen_strategy(src);
        let fx = FxDistribution::with_strategy(sys.clone(), strategy).unwrap();
        let score = objective(&fx, &sys);
        let bound = objective_lower_bound(&sys);
        assert!(score >= bound);
        if sys.small_fields().is_empty() {
            assert_eq!(score, bound, "no small fields ⇒ Basic FX is perfect");
        }
    }
}
