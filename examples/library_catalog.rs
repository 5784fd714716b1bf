//! A realistic end-to-end scenario: a library catalog declustered over a
//! disk array, queried by partial match ("everything by this author in
//! this subject", "everything from 1984", …).
//!
//! Shows the full pipeline — schema → multi-key hashing → FX declustering
//! → parallel retrieval — and compares FX against Disk Modulo on the same
//! workload.
//!
//! Run with `cargo run --example library_catalog`. Set
//! `PMR_TRACE=stderr` (or a file path) to watch the executor's spans and
//! counters stream by; the per-workload trace summary prints either way
//! when tracing is on.

use pmr::baselines::ModuloDistribution;
use pmr::core::method::DistributionMethod;
use pmr::core::FxDistribution;
use pmr::mkh::{FieldType, Record, Schema, Value};
use pmr::rt::Rng;
use pmr::storage::exec::execute_parallel;
use pmr::storage::metrics::BalanceMetrics;
use pmr::storage::{CostModel, DeclusteredFile};

/// Catalog seed — override with `PMR_SEED` for a different synthetic
/// library.
const SEED: u64 = 7;

const AUTHORS: &[&str] = &[
    "Knuth",
    "Codd",
    "Rivest",
    "Gray",
    "Stonebraker",
    "Dijkstra",
    "Lamport",
    "Bachman",
    "McCarthy",
    "Hopper",
    "Liskov",
    "Hamilton",
];
const SUBJECTS: &[&str] = &[
    "databases",
    "algorithms",
    "os",
    "networks",
    "graphics",
    "ai",
    "crypto",
    "compilers",
];
const LANGUAGES: &[&str] = &["en", "de", "fr", "jp"];

fn catalog_schema() -> Schema {
    Schema::builder()
        .field("author", FieldType::Str, 16)
        .field("year", FieldType::Int, 8)
        .field("subject", FieldType::Str, 8)
        .field("language", FieldType::Str, 4)
        .devices(16)
        .build()
        .expect("catalog schema is valid")
}

fn synthetic_catalog(n: usize, seed: u64) -> Vec<Record> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Record::new(vec![
                (*AUTHORS[rng.gen_range(0..AUTHORS.len())]).into(),
                Value::Int(1950 + rng.gen_range(0..75i64)),
                (*SUBJECTS[rng.gen_range(0..SUBJECTS.len())]).into(),
                (*LANGUAGES[rng.gen_range(0..LANGUAGES.len())]).into(),
            ])
        })
        .collect()
}

fn run_workload<D: DistributionMethod>(label: &str, method: D) {
    let schema = catalog_schema();
    let mut file = DeclusteredFile::new(schema, method, 2024).expect("system matches");
    file.insert_all(synthetic_catalog(50_000, pmr::rt::seed_from_env_or(SEED)))
        .expect("inserts succeed");

    let cost = CostModel::disk_1988();
    let queries: Vec<(&str, Vec<(&str, Value)>)> = vec![
        ("author = Codd", vec![("author", "Codd".into())]),
        ("year = 1984", vec![("year", Value::Int(1984))]),
        (
            "author = Knuth AND subject = algorithms",
            vec![("author", "Knuth".into()), ("subject", "algorithms".into())],
        ),
        ("subject = databases", vec![("subject", "databases".into())]),
        ("language = en", vec![("language", "en".into())]),
    ];

    println!("== {label} ==");
    let mut worst_imbalance: f64 = 1.0;
    let mut spans = 0u64;
    let mut fast = 0u64;
    for (desc, specs) in queries {
        let q = file.query(&specs).expect("query is valid");
        let report = execute_parallel(&file, &q, &cost).expect("execution succeeds");
        let m = BalanceMetrics::of(&report.histogram());
        worst_imbalance = worst_imbalance.max(m.imbalance);
        if let Some(trace) = &report.trace {
            spans += trace.spans;
            fast += trace.counter(&pmr::rt::obs::EXEC_FAST_PATH_DISPATCHED);
        }
        println!(
            "  {desc:<42} buckets/device max {:>3} (optimal {:>3}) \
             records {:>5} time {:>6.1} ms speedup {:>5.2}x",
            m.largest,
            m.optimal,
            report.records.len(),
            report.simulated_response_us / 1000.0,
            report.speedup(),
        );
    }
    println!("  worst bucket-imbalance across workload: {worst_imbalance:.2}x optimal");
    if pmr::rt::obs::enabled() {
        println!(
            "  trace: {spans} spans across the workload, {fast}/5 queries on the FX fast path"
        );
    }
    println!();
}

fn main() {
    let sys = catalog_schema().system().clone();
    println!(
        "library catalog: {} buckets over {} disks\n",
        sys.total_buckets(),
        sys.devices()
    );
    run_workload(
        "FX declustering (auto transforms)",
        FxDistribution::auto(sys.clone()).expect("valid configuration"),
    );
    run_workload("Disk Modulo declustering", ModuloDistribution::new(sys));
}
