//! Quickstart: decluster a bucket space with FX and watch a partial match
//! query spread evenly over devices.
//!
//! Run with `cargo run --example quickstart`.

use pmr::core::method::DistributionMethod;
use pmr::core::optimality;
use pmr::core::{FxDistribution, PartialMatchQuery, SystemConfig};

fn main() {
    // A file with three hashed fields of sizes 8, 8, 4 spread over 16
    // parallel devices (all powers of two, as the paper assumes).
    let sys = SystemConfig::new(&[8, 8, 4], 16).expect("valid configuration");
    println!("system: {sys}");

    // `auto` picks transformations by the paper's Theorem 9 construction:
    // with at most three fields smaller than M, the distribution is
    // PERFECT optimal — every partial match query is spread as evenly as
    // arithmetic allows.
    let fx = FxDistribution::auto(sys.clone()).expect("valid configuration");
    println!("method: {} (transforms {})", fx.name(), fx.describe());

    // Where does bucket <3, 5, 1> live?
    let bucket = [3, 5, 1];
    println!("bucket {bucket:?} -> device {}", fx.device_of(&bucket));

    // A partial match query: second field = 5, others unspecified.
    // It qualifies 8 · 4 = 32 buckets.
    let query = PartialMatchQuery::new(&sys, &[None, Some(5), None]).unwrap();
    let histogram = optimality::response_histogram(&fx, &sys, &query);
    println!(
        "\nquery {query}: {} qualified buckets",
        query.qualified_count_in(&sys)
    );
    println!("per-device response sizes: {histogram:?}");
    println!(
        "largest response {} vs optimal bound {} -> strict optimal: {}",
        optimality::largest_response(&fx, &sys, &query),
        optimality::optimal_bound(&sys, &query),
        optimality::is_strict_optimal(&fx, &sys, &query),
    );

    // And indeed every query in this system is:
    println!(
        "perfect optimal over all {} query patterns: {}",
        1 << sys.num_fields(),
        optimality::is_perfect_optimal(&fx, &sys)
    );
}
