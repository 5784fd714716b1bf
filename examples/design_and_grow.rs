//! Designing field sizes from query statistics, then growing the file.
//!
//! Two substrate features the paper leans on without spelling out:
//!
//! 1. **Field-size design** — how many directory bits each field deserves
//!    given how often queries specify it (\[RoLo74\]/\[AhU179\]; NP-hard in
//!    general \[Du85\]).
//! 2. **Dynamic growth** — power-of-two field sizes come from dynamic
//!    hashing directories; doubling a field splits each bucket in two, and
//!    the FX distribution keeps the balance guarantee at the new size.
//!
//! Run with `cargo run --example design_and_grow`.

use pmr::core::{optimality, FxDistribution};
use pmr::mkh::directory::DynamicDirectory;
use pmr::mkh::{design_field_bits, DesignInput, FieldType, Schema};

fn main() {
    // Suppose query logs say: author specified 80% of the time, year 40%,
    // subject 25%, language 10%. Budget: 10 directory bits (1024 buckets).
    let input = DesignInput {
        spec_probability: vec![0.80, 0.40, 0.25, 0.10],
        total_bits: 10,
        max_bits: None,
    };
    let design = design_field_bits(&input).expect("valid design input");
    println!("query statistics  : {:?}", input.spec_probability);
    println!(
        "bit allocation    : {:?} (field sizes {:?})",
        design.bits, design.field_sizes
    );
    println!(
        "expected buckets  : {:.1} per query\n",
        design.expected_buckets
    );

    // Build the schema from the design and open a dynamic directory.
    let names = ["author", "year", "subject", "language"];
    let mut builder = Schema::builder();
    for (name, &size) in names.iter().zip(&design.field_sizes) {
        builder = builder.field(*name, FieldType::Str, size);
    }
    let schema = builder
        .devices(8)
        .build()
        .expect("designed schema is valid");
    let mut dir = DynamicDirectory::new(schema, 99);

    // Grow the file: each expansion doubles one field. After every step,
    // re-derive the FX distribution and verify the balance guarantee
    // empirically.
    for step in 0..4 {
        let sys = dir.schema().system().clone();
        let fx = FxDistribution::auto(sys.clone()).expect("valid configuration");
        let perfect = optimality::is_perfect_optimal(&fx, &sys);
        println!(
            "step {step}: sizes {:?} -> FX({}) perfect optimal: {perfect}",
            sys.field_sizes(),
            fx.describe(),
        );
        let doubled = dir.expand().expect("expansion fits the index budget");
        println!("        doubling field {} ({})", doubled, names[doubled]);
    }
    let final_sys = dir.schema().system().clone();
    println!(
        "\nfinal: {} buckets over {} devices after {} expansions",
        final_sys.total_buckets(),
        final_sys.devices(),
        dir.expansions()
    );
}
