//! Linear FX maps beyond the paper's closed forms, through the whole
//! system.
//!
//! Every FX transform is GF(2)-linear, so any injective linear map per
//! field is an FX distribution too, given as the device images of each
//! field's bits. The maps below are perfect optimal on the paper's
//! Tables 7–9 systems, where the paper's cycle assignments are not. Built
//! with `FxDistribution::from_images`, each must reach the analytic bound
//! (by rank and by the exhaustive checker) and keep FX's fast inverse; on
//! Table 7's map a declustered file must return the same records through
//! the executor's fast-inverse path as through the generic scan.

use pmr_analysis::optimize::{objective_lower_bound, rank_score};
use pmr_core::method::DistributionMethod;
use pmr_core::optimality::is_perfect_optimal;
use pmr_core::{FxDistribution, PartialMatchQuery, Pattern, SystemConfig};
use pmr_mkh::{Record, Schema, Value};
use pmr_storage::exec::{
    merge_device_yields, plan_query, ExecPolicy, ExecutionReport, Executor, PlannedQuery,
    Redundancy,
};
use pmr_storage::{CostModel, DeclusteredFile};

/// Table 7's system (six fields of 8, M = 32) and a perfect map on it.
fn table_7() -> (SystemConfig, Vec<Vec<u64>>) {
    let sys = SystemConfig::new(&[8; 6], 32).unwrap();
    let images = [
        [29, 24, 28],
        [16, 31, 12],
        [9, 23, 6],
        [10, 16, 2],
        [30, 13, 5],
        [20, 26, 15],
    ];
    (sys, images.iter().map(|f| f.to_vec()).collect())
}

/// Table 8's system (M = 64): six pairwise-complementary 3-subspaces.
fn table_8() -> (SystemConfig, Vec<Vec<u64>>) {
    let sys = SystemConfig::new(&[8; 6], 64).unwrap();
    let images = [
        [1, 2, 4],
        [8, 16, 32],
        [9, 18, 36],
        [10, 20, 35],
        [11, 22, 39],
        [12, 19, 38],
    ];
    (sys, images.iter().map(|f| f.to_vec()).collect())
}

/// Table 9's system (F = (8, 8, 8, 16, 16, 16), M = 512).
fn table_9() -> (SystemConfig, Vec<Vec<u64>>) {
    let sys = SystemConfig::new(&[8, 8, 8, 16, 16, 16], 512).unwrap();
    let images = vec![
        vec![279, 436, 454],
        vec![98, 298, 284],
        vec![215, 390, 456],
        vec![511, 76, 481, 417],
        vec![442, 376, 129, 385],
        vec![9, 433, 259, 205],
    ];
    (sys, images)
}

#[test]
fn tables_7_to_9_have_perfect_linear_maps() {
    for ((sys, images), bound) in [(table_7(), 16_613), (table_8(), 8_310), (table_9(), 7_013)] {
        let fx = FxDistribution::from_images(sys.clone(), images).unwrap();
        assert!(fx.as_fx().is_some(), "{sys}");
        assert_eq!(objective_lower_bound(&sys), bound, "{sys}");
        assert_eq!(rank_score(&fx), (bound, 64), "{sys}: rank score");
        assert!(is_perfect_optimal(&fx, &sys), "{sys}: exhaustive check");
    }
}

#[test]
fn table_7_map_serves_the_same_records_by_fast_inverse_and_scan() {
    let (sys, images) = table_7();
    let fx = FxDistribution::from_images(sys.clone(), images).unwrap();
    let mut file = DeclusteredFile::new(Schema::ints(&sys), fx, 7).unwrap();
    for i in 0..4_000i64 {
        let values = (0..6).map(|f| Value::Int(i * 31 + f * 7 + i / 5)).collect();
        file.insert(Record::new(values)).unwrap();
    }
    let cost = CostModel::main_memory();
    let exec = Executor::new(&file, cost);
    let run = |plan: PlannedQuery| -> ExecutionReport {
        let yields = exec
            .execute_planned(&[plan], &ExecPolicy::default())
            .remove(0);
        merge_device_yields(yields, Redundancy::Mirror)
    };
    let sorted = |report: &ExecutionReport| {
        let mut records: Vec<String> = report.records.iter().map(|r| format!("{r}")).collect();
        records.sort_unstable();
        records
    };
    let mut matched = 0;
    for pattern in Pattern::all(6) {
        for seed in 0..3u64 {
            let values: Vec<Option<u64>> = (0..6)
                .map(|i| (!pattern.is_unspecified(i)).then_some((seed * 5 + i as u64 * 3) % 8))
                .collect();
            let query = PartialMatchQuery::new(&sys, &values).unwrap();
            let planned = plan_query(&sys, file.method(), &query);
            let fast = run(PlannedQuery {
                fast_path: true,
                ..planned.clone()
            });
            let scan = run(PlannedQuery {
                fast_path: false,
                ..planned
            });
            assert_eq!(fast.histogram(), scan.histogram(), "{query}");
            assert_eq!(sorted(&fast), sorted(&scan), "{query}");
            matched += fast.records.len();
        }
    }
    assert!(matched > 0, "the queries must return records");
}
