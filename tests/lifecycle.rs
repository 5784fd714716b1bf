//! Full-lifecycle integration: build → query → snapshot → reload →
//! grow → redistribute → query again, across crate boundaries.

use pmr::core::FxDistribution;
use pmr::mkh::directory::DynamicDirectory;
use pmr::mkh::{FieldType, Record, Schema, Value};
use pmr::storage::exec::{
    execute_parallel, merge_device_yields, plan_query, ExecPolicy, Executor, PlannedQuery,
    Redundancy,
};
use pmr::storage::persist;
use pmr::storage::{CostModel, DeclusteredFile};

fn schema() -> Schema {
    Schema::builder()
        .field("sensor", FieldType::Int, 16)
        .field("hour", FieldType::Int, 8)
        .field("status", FieldType::Str, 4)
        .devices(8)
        .build()
        .unwrap()
}

fn readings(n: i64) -> Vec<Record> {
    let statuses = ["ok", "warn", "err"];
    (0..n)
        .map(|i| {
            Record::new(vec![
                Value::Int(i % 200),
                Value::Int(i % 24),
                statuses[(i % 3) as usize].into(),
            ])
        })
        .collect()
}

#[test]
fn full_lifecycle() {
    let dir = std::env::temp_dir().join(format!("pmr-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. Build and fill.
    let schema0 = schema();
    let fx0 = FxDistribution::auto(schema0.system().clone()).unwrap();
    let mut file = DeclusteredFile::new(schema0.clone(), fx0, 77).unwrap();
    file.insert_all_parallel(readings(3_000)).unwrap();
    assert_eq!(file.record_count(), 3_000);

    // 2. Query (both executors agree).
    let q = file.query(&[("status", "err".into())]).unwrap();
    let generic = execute_parallel(&file, &q, &CostModel::main_memory()).unwrap();
    let fast = PlannedQuery {
        fast_path: true,
        ..plan_query(file.system(), file.method(), &q)
    };
    let fast = Executor::new(&file, CostModel::main_memory())
        .execute_planned(&[fast], &ExecPolicy::default())
        .remove(0);
    let fast = merge_device_yields(fast, Redundancy::Mirror);
    assert_eq!(generic.histogram(), fast.histogram());
    let err_count = file
        .retrieve_exact(&[("status", "err".into())])
        .unwrap()
        .len();
    assert_eq!(err_count, 1_000);

    // 3. Snapshot and reload.
    persist::save(&file, &dir).unwrap();
    let fx1 = FxDistribution::auto(schema0.system().clone()).unwrap();
    let reloaded = persist::load(&dir, schema0, fx1, 77).unwrap();
    assert_eq!(reloaded.record_count(), 3_000);
    assert_eq!(reloaded.record_occupancy(), file.record_occupancy());

    // 4. Grow the directory (double the sensor field) and redistribute.
    let mut directory = DynamicDirectory::new(schema(), 77);
    let grown_field = directory.expand().unwrap();
    let grown_schema = directory.schema().clone();
    assert_eq!(grown_field, 0);
    assert_eq!(grown_schema.system().field_size(0), 32);
    let fx2 = FxDistribution::auto(grown_schema.system().clone()).unwrap();
    let grown = reloaded.redistribute(grown_schema, fx2).unwrap();
    assert_eq!(grown.record_count(), 3_000);

    // 5. Same logical answers after growth.
    assert_eq!(
        grown
            .retrieve_exact(&[("status", "err".into())])
            .unwrap()
            .len(),
        err_count
    );
    let q2 = grown.query(&[("sensor", Value::Int(42))]).unwrap();
    let report = execute_parallel(&grown, &q2, &CostModel::disk_1988()).unwrap();
    assert_eq!(
        report.histogram().iter().sum::<u64>(),
        q2.qualified_count_in(grown.system())
    );
    // FX auto on the grown system is still balance-guaranteed for this
    // single-specified-field query.
    let m = pmr::storage::metrics::BalanceMetrics::of(&report.histogram());
    assert!(m.is_strict_optimal());

    std::fs::remove_dir_all(&dir).unwrap();
}
