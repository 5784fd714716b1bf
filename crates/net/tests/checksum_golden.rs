//! Golden report checksums: `loadgen::reports_checksum` of one fixed
//! Table 7 batch under each redundancy tier, with a dead device and
//! transient read errors so retries, mirror failover, parity
//! reconstruction and lost buckets all feed the fingerprint. The values
//! were recorded before reports held records as a byte region; they pin
//! that the checksum, and every report it covers, stayed bit-identical.

use pmr_core::{FxDistribution, SystemConfig};
use pmr_mkh::{Record, Schema, Value};
use pmr_net::loadgen::{query_mix, reports_checksum};
use pmr_rt::fault::{FaultPlan, RetryPolicy};
use pmr_storage::exec::{ExecPolicy, Executor, Redundancy};
use pmr_storage::{CostModel, DeclusteredFile};
use std::sync::Arc;

const SEED: u64 = 0x601D;

fn table7_file(redundancy: Redundancy) -> DeclusteredFile<FxDistribution> {
    let sys = SystemConfig::new(&[8; 6], 32).unwrap();
    let fx = FxDistribution::auto(sys.clone()).expect("auto always assigns");
    let mut file = DeclusteredFile::new(Schema::ints(&sys), fx, SEED).expect("schema matches");
    for i in 0..3_000i64 {
        let values: Vec<Value> = (0..sys.num_fields())
            .map(|f| Value::Int(i * 131 + f as i64 * 7))
            .collect();
        file.insert(Record::new(values))
            .expect("records type-check");
    }
    match redundancy {
        Redundancy::None => {}
        Redundancy::Mirror => assert!(file.enable_mirroring()),
        Redundancy::Parity { k, r } => assert!(file.enable_parity(k.into(), r.into())),
    }
    file
}

fn checksum_under(redundancy: Redundancy) -> u64 {
    let file = table7_file(redundancy);
    let plan = FaultPlan::new(SEED)
        .with_dead_device(5)
        .with_read_error(0.05);
    file.install_fault_plan(Some(Arc::new(plan)));
    let policy = ExecPolicy {
        retry: RetryPolicy {
            max_attempts: 3,
            base_us: 10,
            cap_us: 1_000,
            budget_us: 100_000,
        },
        redundancy,
        seed: SEED,
    };
    let queries = query_mix(file.system(), 96, SEED, 3);
    let exec = Executor::new(&file, CostModel::main_memory());
    reports_checksum(0, &exec.execute_batch(&queries, &policy))
}

#[test]
fn report_checksums_match_the_recorded_goldens() {
    let got = [
        checksum_under(Redundancy::None),
        checksum_under(Redundancy::Mirror),
        checksum_under(Redundancy::Parity { k: 4, r: 2 }),
    ];
    assert_eq!(
        got,
        [
            0x6c57_313b_b047_b268,
            0x2dab_223f_0f32_b706,
            0x2443_4cf9_68b4_a56f
        ]
    );
}
