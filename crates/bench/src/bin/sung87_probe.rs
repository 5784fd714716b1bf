//! Probing the \[Sung87\] impossibility boundary.
//!
//! Sung (1987) showed that when four or more fields are smaller than the
//! device count, *there exist* file systems admitting no perfect-optimal
//! distribution — but not that every such system is hopeless. This probe
//! searches linear FX maps on a family of all-small systems and reports
//! which reach the analytic bound (a *constructive* perfect distribution,
//! beyond any closed-form method) and which resist.
//!
//! `cargo run --release -p pmr-bench --bin sung87_probe`

use pmr_analysis::optimize::search;
use pmr_core::SystemConfig;

fn main() {
    let cases: &[(&str, &[u64], u64)] = &[
        ("binary, n=4, M=4", &[2, 2, 2, 2], 4),
        ("binary, n=4, M=8", &[2, 2, 2, 2], 8),
        ("binary, n=4, M=16", &[2, 2, 2, 2], 16),
        ("binary, n=5, M=8", &[2, 2, 2, 2, 2], 8),
        ("quads,  n=4, M=16", &[4, 4, 4, 4], 16),
        ("quads,  n=4, M=32", &[4, 4, 4, 4], 32),
        ("mixed,  n=4, M=16", &[2, 4, 4, 8], 16),
        ("quads,  n=5, M=32", &[4, 4, 4, 4, 4], 32),
    ];
    println!(
        "{:<20} {:>8} {:>8} {:>9} {:>14}",
        "system", "bound", "found", "optimal%", "verdict"
    );
    println!("{}", "-".repeat(64));
    for &(label, sizes, m) in cases {
        let sys = SystemConfig::new(sizes, m).expect("probe systems are valid");
        let result = search(&sys, 20_000, pmr_rt::seed_from_env_or(11)).expect("valid system");
        let total = 1usize << sys.num_fields();
        let verdict = if result.score == result.lower_bound {
            "PERFECT FOUND"
        } else {
            "resists search"
        };
        println!(
            "{label:<20} {:>8} {:>8} {:>8.1}% {:>14}",
            result.lower_bound,
            result.score,
            100.0 * result.optimal_patterns as f64 / total as f64,
            verdict
        );
    }
    println!();
    println!(
        "\"PERFECT FOUND\" rows are constructive existence proofs: a perfect-\n\
         optimal distribution exists for that system even though 4+ fields\n\
         are small — [Sung87]'s impossibility is about SOME systems, not all.\n\
         \"resists search\" rows are evidence, not proof, that no map reaches\n\
         the bound; for binary n=4, M=4 and n=5, M=8 no linear map can\n\
         (EXPERIMENTS.md)."
    );
}
