//! Cross-crate integration: schema → multi-key hashing → declustering →
//! parallel retrieval, for every distribution method.

use pmr::baselines::{GdmDistribution, ModuloDistribution, RandomDistribution};
use pmr::core::method::DistributionMethod;
use pmr::core::FxDistribution;
use pmr::mkh::{FieldType, Record, Schema, Value};
use pmr::rt::rng::SliceRandom;
use pmr::rt::Rng;
use pmr::storage::exec::execute_parallel;
use pmr::storage::metrics::BalanceMetrics;
use pmr::storage::{CostModel, DeclusteredFile};

fn schema() -> Schema {
    Schema::builder()
        .field("user", FieldType::Int, 16)
        .field("action", FieldType::Str, 8)
        .field("region", FieldType::Int, 4)
        .devices(8)
        .build()
        .unwrap()
}

fn events(n: usize, seed: u64) -> Vec<Record> {
    let mut rng = Rng::seed_from_u64(seed);
    let actions = ["view", "click", "buy", "share"];
    (0..n)
        .map(|_| {
            Record::new(vec![
                Value::Int(rng.gen_range(0..5000i64)),
                (*actions.choose(&mut rng).expect("actions is non-empty")).into(),
                Value::Int(rng.gen_range(0..50i64)),
            ])
        })
        .collect()
}

fn pipeline_roundtrip<D: DistributionMethod>(method: D) {
    let schema = schema();
    let mut file = DeclusteredFile::new(schema, method, 31).unwrap();
    let records = events(5_000, 17);
    file.insert_all(records.clone()).unwrap();
    assert_eq!(file.record_count(), 5_000);
    assert_eq!(file.record_occupancy().iter().sum::<u64>(), 5_000);

    // Every record must be retrievable through a query specifying its own
    // attribute values (spot-check a sample).
    for r in records.iter().step_by(997) {
        let q = file
            .query(&[
                ("user", r.values()[0].clone()),
                ("action", r.values()[1].clone()),
                ("region", r.values()[2].clone()),
            ])
            .unwrap();
        let got = file.retrieve_serial(&q).unwrap();
        assert!(
            got.contains(r),
            "record {r} lost by {}",
            file.method().name()
        );
    }

    // Parallel and serial retrieval agree on a broad query.
    let q = file.query(&[("action", "buy".into())]).unwrap();
    let mut serial = file.retrieve_serial(&q).unwrap();
    let report = execute_parallel(&file, &q, &CostModel::main_memory()).unwrap();
    let mut parallel = report.records.to_records();
    serial.sort_by_key(|r| format!("{r}"));
    parallel.sort_by_key(|r| format!("{r}"));
    assert_eq!(
        serial,
        parallel,
        "parallel/serial divergence under {}",
        file.method().name()
    );

    // Histogram conservation.
    assert_eq!(
        report.histogram().iter().sum::<u64>(),
        q.qualified_count_in(file.system())
    );
}

#[test]
fn fx_pipeline_roundtrip() {
    let sys = schema().system().clone();
    pipeline_roundtrip(FxDistribution::auto(sys).unwrap());
}

#[test]
fn modulo_pipeline_roundtrip() {
    let sys = schema().system().clone();
    pipeline_roundtrip(ModuloDistribution::new(sys));
}

#[test]
fn gdm_pipeline_roundtrip() {
    let sys = schema().system().clone();
    pipeline_roundtrip(GdmDistribution::new(sys, vec![3, 5, 7]).unwrap());
}

#[test]
fn random_pipeline_roundtrip() {
    let sys = schema().system().clone();
    pipeline_roundtrip(RandomDistribution::new(sys, 23));
}

/// FX's balance guarantee survives the full pipeline: for single-field
/// queries the per-device bucket histogram is strict optimal, whatever the
/// data skew.
#[test]
fn fx_balance_guarantee_end_to_end() {
    let schema = schema();
    let sys = schema.system().clone();
    let fx = FxDistribution::auto(sys.clone()).unwrap();
    let mut file = DeclusteredFile::new(schema, fx, 5).unwrap();
    // Heavily skewed data: one user generates half the events.
    let mut records = events(2_000, 3);
    records.extend(
        (0..2_000).map(|i| Record::new(vec![Value::Int(42), "view".into(), Value::Int(i % 50)])),
    );
    file.insert_all(records).unwrap();

    for (field, value) in [
        ("user", Value::Int(42)),
        ("action", "view".into()),
        ("region", Value::Int(7)),
    ] {
        let q = file.query(&[(field, value)]).unwrap();
        let report = execute_parallel(&file, &q, &CostModel::main_memory()).unwrap();
        let m = BalanceMetrics::of(&report.histogram());
        assert!(
            m.is_strict_optimal(),
            "{field}: histogram {:?} exceeds optimal {}",
            report.histogram(),
            m.optimal
        );
    }
}

/// Directory growth keeps data findable: expand a field, rebuild the file
/// at the new size, and verify every record is still retrieved.
#[test]
fn growth_preserves_retrievability() {
    use pmr::mkh::directory::DynamicDirectory;

    let mut dir = DynamicDirectory::new(schema(), 31);
    let records = events(1_000, 5);

    for _round in 0..3 {
        let sys = dir.schema().system().clone();
        let fx = FxDistribution::auto(sys).unwrap();
        let mut file = DeclusteredFile::new(dir.schema().clone(), fx, 31).unwrap();
        file.insert_all(records.clone()).unwrap();
        for r in records.iter().step_by(211) {
            let q = file.query(&[("user", r.values()[0].clone())]).unwrap();
            assert!(file.retrieve_serial(&q).unwrap().contains(r));
        }
        dir.expand().unwrap();
    }
}
