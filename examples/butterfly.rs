//! The paper's motivating scenario: a massively parallel machine.
//!
//! "For a large number of parallel processing nodes such as Butterfly
//! machines, Modulo distribution may not be appropriate" — because with
//! `M` in the hundreds, most fields hash into *fewer* classes than there
//! are processors (`F_i < M`), exactly the regime where Disk Modulo
//! degrades and FX's field transformations keep queries balanced.
//!
//! This example declusters a file over a 128-node machine where every
//! field is smaller than `M`, and contrasts per-query concurrency (how
//! many nodes share the work) under FX and Modulo.
//!
//! Run with `cargo run --release --example butterfly`.

use pmr::baselines::ModuloDistribution;
use pmr::core::optimality::response_histogram;
use pmr::core::{FxDistribution, PartialMatchQuery, SystemConfig};

fn busy_nodes(hist: &[u64]) -> usize {
    hist.iter().filter(|&&c| c > 0).count()
}

fn main() {
    // 128 processing nodes; four fields with 8–16 hash classes each —
    // every field is far smaller than M.
    let sys = SystemConfig::new(&[16, 16, 8, 8], 128).expect("valid configuration");
    let fx = FxDistribution::auto(sys.clone()).expect("valid configuration");
    let dm = ModuloDistribution::new(sys.clone());
    println!("machine: {} nodes, file: {sys}", sys.devices());
    println!("FX transforms: {}\n", fx.describe());

    let queries: Vec<(&str, Vec<Option<u64>>)> = vec![
        ("one field free ", vec![Some(3), Some(7), Some(2), None]),
        ("two fields free", vec![Some(3), None, Some(2), None]),
        ("three free     ", vec![None, Some(7), None, None]),
        ("full scan      ", vec![None, None, None, None]),
    ];

    println!(
        "{:<16} {:>6} | {:>10} {:>10} | {:>10} {:>10}",
        "query", "|R(q)|", "FX busy", "FX max", "DM busy", "DM max"
    );
    println!("{}", "-".repeat(72));
    for (label, values) in queries {
        let q = PartialMatchQuery::new(&sys, &values).expect("valid query");
        let fx_hist = response_histogram(&fx, &sys, &q);
        let dm_hist = response_histogram(&dm, &sys, &q);
        println!(
            "{label:<16} {:>6} | {:>10} {:>10} | {:>10} {:>10}",
            q.qualified_count_in(&sys),
            busy_nodes(&fx_hist),
            fx_hist.iter().max().unwrap(),
            busy_nodes(&dm_hist),
            dm_hist.iter().max().unwrap(),
        );
    }

    println!();
    println!(
        "FX engages min(|R(q)|, {m}) nodes with level load on these queries \
         (each contains a different-transform field pair whose sizes \
         multiply to at least {m} — §4.2 condition 3/4a/5a); Modulo \
         concentrates the same buckets on a fraction of the nodes, so its \
         busiest node — which sets the response time — carries several \
         times the optimal load.",
        m = sys.devices(),
    );
}
