//! Future-work demo: searching linear FX maps beyond the paper.
//!
//! For systems with four or more small fields — where \[Sung87\] shows
//! some systems admit no perfect-optimal method and the paper's
//! closed-form transformations leave patterns unbalanced — a seeded random
//! search over injective per-field linear maps recovers additional
//! balance.
//!
//! `cargo run --release -p pmr-bench --bin optimize_tables`

use pmr_analysis::optimize::{objective, search};
use pmr_core::{AssignmentStrategy, FxDistribution, SystemConfig};

fn main() {
    let systems = [
        (
            "4 small fields",
            SystemConfig::new(&[4, 4, 4, 4], 16).unwrap(),
        ),
        (
            "5 small fields",
            SystemConfig::new(&[2, 2, 4, 4, 8], 16).unwrap(),
        ),
        (
            "6 small fields (triple regime)",
            SystemConfig::new(&[4; 6], 64).unwrap(),
        ),
    ];
    let tries = 20_000;
    for (label, sys) in systems {
        let total_patterns = 1usize << sys.num_fields();
        println!("== {label}: {sys} ({total_patterns} query patterns) ==");

        let mut best_closed = u64::MAX;
        let mut best_closed_name = "";
        for (name, strategy) in [
            ("basic", AssignmentStrategy::Basic),
            ("cycle-iu1", AssignmentStrategy::CycleIu1),
            ("cycle-iu2", AssignmentStrategy::CycleIu2),
            ("theorem-9", AssignmentStrategy::TheoremNine),
        ] {
            let fx = FxDistribution::with_strategy(sys.clone(), strategy).expect("valid system");
            let score = objective(&fx, &sys);
            println!("  closed form {name:<10} objective {score}");
            if score < best_closed {
                best_closed = score;
                best_closed_name = name;
            }
        }

        let result = search(&sys, tries, pmr_rt::seed_from_env_or(7)).expect("valid system");
        // The rank score is exact: the exhaustive referee agrees.
        assert_eq!(objective(&result.distribution, &sys), result.score);
        println!(
            "  searched ({} of {tries} tries) objective {} (lower bound {}), \
             strict-optimal patterns {}/{} (was {}/{})",
            result.tries,
            result.score,
            result.lower_bound,
            result.optimal_patterns,
            total_patterns,
            result.initial_optimal_patterns,
            total_patterns,
        );
        let gain = best_closed.saturating_sub(result.score);
        println!(
            "  -> improvement over best closed form ({best_closed_name}): \
             {gain} objective units\n"
        );
    }
}
