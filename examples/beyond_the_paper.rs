//! Beyond the paper: searching transformation tables the authors only
//! promised.
//!
//! The paper's closing line — "We are developing more general
//! transformation functions to achieve optimal data distribution for much
//! larger class of partial match queries" — is implemented here: FX's
//! four closed-form transforms are GF(2)-linear maps, and any injective
//! linear map per field is an FX distribution too
//! (`pmr::core::FxDistribution::from_images`); a seeded random search
//! explores that space (`pmr::analysis::optimize`).
//!
//! The demo takes a system where the paper's own machinery provably hits
//! a wall (four small fields — Theorem 9 no longer applies) and finds a
//! *perfect optimal* map, then verifies it with the exhaustive
//! ground-truth checker.
//!
//! Run with `cargo run --release --example beyond_the_paper`.

use pmr::analysis::optimize::search;
use pmr::core::method::DistributionMethod;
use pmr::core::optimality::is_perfect_optimal;
use pmr::core::{AssignmentStrategy, FxDistribution, SystemConfig};

fn main() {
    // Four fields of size 4 on sixteen devices: every field is small, so
    // none of Theorems 4-9 apply and the best closed-form assignment
    // leaves one query pattern unbalanced.
    let sys = SystemConfig::new(&[4, 4, 4, 4], 16).expect("valid configuration");
    println!(
        "system: {sys} — {} small fields\n",
        sys.small_fields().len()
    );

    for (name, strategy) in [
        ("basic (no transforms)", AssignmentStrategy::Basic),
        ("cycle I,U,IU1", AssignmentStrategy::CycleIu1),
        ("cycle I,U,IU2", AssignmentStrategy::CycleIu2),
        ("theorem-9 heuristic", AssignmentStrategy::TheoremNine),
    ] {
        let fx = FxDistribution::with_strategy(sys.clone(), strategy).expect("valid configuration");
        println!(
            "closed form {name:<22} perfect optimal: {}",
            is_perfect_optimal(&fx, &sys)
        );
    }

    println!("\nsearching linear maps…");
    let result = search(&sys, 4_000, 7).expect("valid configuration");
    println!(
        "objective {} (analytic bound {}) after {} tries, strict-optimal patterns {}/{}",
        result.score,
        result.lower_bound,
        result.tries,
        result.optimal_patterns,
        1 << sys.num_fields()
    );
    let perfect = is_perfect_optimal(&result.distribution, &sys);
    println!("ground-truth verification: perfect optimal = {perfect}");
    println!(
        "fast inverse and targeted scatter apply: {}",
        result.distribution.as_fx().is_some()
    );
    println!("\ndiscovered bit images:");
    for (i, images) in result.distribution.images().iter().enumerate() {
        println!("  field {i}: {images:?}");
    }
    println!(
        "\nNote: [Sung87] proves SOME systems with 4+ small fields admit no \
         perfect distribution; this one does, and the search constructs it."
    );
}
