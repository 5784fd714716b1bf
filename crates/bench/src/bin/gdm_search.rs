//! Automating GDM's "trial and error" parameter hunt.
//!
//! The paper: "there may be a set of multiplication parameters by which
//! GDM method can give better performance than those of GDM1, GDM2 and
//! GDM3. Even though such a set of parameters may exist, it can only be
//! found by trial and error method." This regenerator runs that trial and
//! error automatically (randomized search scored by summed largest
//! response size) and compares the result against the paper's three
//! hand-picked sets and against FX — which needs no search at all.
//!
//! `cargo run --release -p pmr-bench --bin gdm_search`

use pmr_baselines::gdm::{search, PaperGdmSet};
use pmr_baselines::GdmDistribution;
use pmr_core::method::DistributionMethod;
use pmr_core::optimality::pattern_largest_response;
use pmr_core::query::Pattern;
use pmr_core::{AssignmentStrategy, FxDistribution, SystemConfig};

fn score<D: DistributionMethod + ?Sized>(method: &D, sys: &SystemConfig) -> u64 {
    Pattern::all(sys.num_fields())
        .map(|p| pattern_largest_response(method, sys, p))
        .sum()
}

fn main() {
    let systems = [
        ("Table 2's system", SystemConfig::new(&[4, 4], 16).unwrap()),
        ("Table 7's system", SystemConfig::new(&[8; 6], 32).unwrap()),
        (
            "small-field stress",
            SystemConfig::new(&[4, 4, 4, 4], 64).unwrap(),
        ),
    ];

    for (label, sys) in systems {
        println!("== {label}: {sys} ==");
        let result = search(&sys, 4000, 64, pmr_rt::seed_from_env_or(2024));
        println!(
            "searched {} candidates -> best multipliers {:?}",
            result.evaluated, result.multipliers
        );
        println!("{:<22} {:>14} {:>14}", "method", "score", "vs bound");
        let bound = result.lower_bound;
        let mut rows: Vec<(String, u64)> = Vec::new();
        for set in [PaperGdmSet::Gdm1, PaperGdmSet::Gdm2, PaperGdmSet::Gdm3] {
            let gdm = GdmDistribution::paper_set(sys.clone(), set);
            rows.push((set.label().to_owned(), score(&gdm, &sys)));
        }
        let searched = GdmDistribution::new(sys.clone(), result.multipliers.clone())
            .expect("search returns a valid arity");
        rows.push(("GDM (searched)".to_owned(), result.score));
        debug_assert_eq!(score(&searched, &sys), result.score);
        let fx = FxDistribution::with_strategy(sys.clone(), AssignmentStrategy::TheoremNine)
            .expect("valid configuration");
        rows.push((format!("FX ({})", fx.describe()), score(&fx, &sys)));
        rows.push(("analytic bound".to_owned(), bound));
        for (name, s) in rows {
            println!("{name:<22} {s:>14} {:>13.2}x", s as f64 / bound as f64);
        }
        println!();
    }
}
