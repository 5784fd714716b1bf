//! Matrix test: every distribution method in the workspace, through the
//! same invariants on the same systems.

use pmr::baselines::{
    BinaryWeightedDistribution, GdmDistribution, GrayCodeDistribution, ModuloDistribution,
    RandomDistribution, SpanningPathDistribution,
};
use pmr::core::method::DistributionMethod;
use pmr::core::optimality::{is_k_optimal, response_histogram};
use pmr::core::query::{PartialMatchQuery, Pattern};
use pmr::core::{AssignmentStrategy, FxDistribution, SystemConfig};

/// Builds every method applicable to a system.
fn all_methods(sys: &SystemConfig) -> Vec<(String, Box<dyn DistributionMethod>)> {
    let mut out: Vec<(String, Box<dyn DistributionMethod>)> = Vec::new();
    for strategy in [
        AssignmentStrategy::Basic,
        AssignmentStrategy::CycleIu1,
        AssignmentStrategy::CycleIu2,
        AssignmentStrategy::TheoremNine,
    ] {
        let fx = FxDistribution::with_strategy(sys.clone(), strategy).unwrap();
        out.push((format!("fx/{strategy}"), Box::new(fx)));
    }
    let auto = FxDistribution::auto(sys.clone()).unwrap();
    out.push((
        "fx/images".into(),
        Box::new(FxDistribution::from_images(sys.clone(), auto.images().to_vec()).unwrap()),
    ));
    out.push((
        "modulo".into(),
        Box::new(ModuloDistribution::new(sys.clone())),
    ));
    out.push((
        "gdm(3,5,7,...)".into(),
        Box::new(
            GdmDistribution::new(
                sys.clone(),
                (0..sys.num_fields() as u64).map(|i| 2 * i + 3).collect(),
            )
            .unwrap(),
        ),
    ));
    out.push((
        "random".into(),
        Box::new(RandomDistribution::new(sys.clone(), 5)),
    ));
    if let Ok(sp) = SpanningPathDistribution::build(sys.clone()) {
        out.push(("spanning-path".into(), Box::new(sp)));
    }
    if let Ok(bw) = BinaryWeightedDistribution::new(sys.clone()) {
        out.push(("binary-weighted".into(), Box::new(bw)));
    }
    if let Ok(gc) = GrayCodeDistribution::new(sys.clone()) {
        out.push(("gray-code".into(), Box::new(gc)));
    }
    out
}

fn systems() -> Vec<SystemConfig> {
    vec![
        SystemConfig::new(&[2, 8], 4).unwrap(),
        SystemConfig::new(&[4, 4, 4], 8).unwrap(),
        SystemConfig::new(&[2, 2, 2, 2], 4).unwrap(),
        SystemConfig::new(&[8, 2, 4], 16).unwrap(),
    ]
}

/// Every method maps every bucket to a device in range, and every query's
/// histogram sums to |R(q)|.
#[test]
fn conservation_holds_for_every_method() {
    for sys in systems() {
        for (name, method) in all_methods(&sys) {
            let mut buf = Vec::new();
            for idx in sys.all_indices() {
                sys.decode_index(idx, &mut buf);
                assert!(
                    method.device_of(&buf) < sys.devices(),
                    "{name} on {sys}: device out of range for {buf:?}"
                );
            }
            for pattern in Pattern::all(sys.num_fields()) {
                let q = PartialMatchQuery::zero_representative(&sys, pattern);
                let hist = response_histogram(method.as_ref(), &sys, &q);
                assert_eq!(
                    hist.iter().sum::<u64>(),
                    q.qualified_count_in(&sys),
                    "{name} on {sys}: histogram leak for {pattern:?}"
                );
            }
        }
    }
}

/// The deterministic algebraic methods are 0-optimal everywhere, and the
/// XOR/modulo families are also 1-optimal; the heuristics may not be.
#[test]
fn zero_and_one_optimality_matrix() {
    for sys in systems() {
        for (name, method) in all_methods(&sys) {
            assert!(
                is_k_optimal(method.as_ref(), &sys, 0),
                "{name} on {sys} not 0-optimal"
            );
            let one_optimal_guaranteed = name.starts_with("fx/")
                || name == "modulo"
                || name == "gdm(3,5,7,...)"
                || name == "binary-weighted";
            if one_optimal_guaranteed {
                assert!(
                    is_k_optimal(method.as_ref(), &sys, 1),
                    "{name} on {sys} not 1-optimal"
                );
            }
        }
    }
}

/// Shift-invariance declarations are honest: methods claiming it have
/// identical sorted histograms across every query of each pattern.
#[test]
fn shift_invariance_declarations_are_honest() {
    for sys in systems() {
        for (name, method) in all_methods(&sys) {
            if !method.histogram_shift_invariant() {
                continue;
            }
            for pattern in Pattern::all(sys.num_fields()) {
                let mut reference = response_histogram(
                    method.as_ref(),
                    &sys,
                    &PartialMatchQuery::zero_representative(&sys, pattern),
                );
                reference.sort_unstable();
                let ok = pmr::core::optimality::for_each_query(&sys, pattern, |q| {
                    let mut h = response_histogram(method.as_ref(), &sys, q);
                    h.sort_unstable();
                    h == reference
                });
                assert!(ok, "{name} on {sys}: dishonest invariance for {pattern:?}");
            }
        }
    }
}
