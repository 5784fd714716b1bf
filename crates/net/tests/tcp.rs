//! Loopback-TCP transport equivalence (compiled only with `--features
//! tcp`): the socket transport speaks the identical frame format, so a
//! TCP cluster's reports stay bit-equal to a single-process run.
#![cfg(feature = "tcp")]

use pmr_core::{FxDistribution, SystemConfig};
use pmr_mkh::{Record, Schema, Value};
use pmr_net::{loadgen, Cluster, ClusterConfig};
use pmr_storage::exec::{ExecPolicy, Executor};
use pmr_storage::{CostModel, DeclusteredFile};

#[test]
fn tcp_cluster_is_bit_equal_to_single_process() {
    let sys = SystemConfig::new(&[8; 6], 32).unwrap();
    let schema = Schema::ints(&sys);
    let fx = FxDistribution::auto(sys.clone()).unwrap();
    let mut file = DeclusteredFile::new(schema, fx, 0xBA7C).unwrap();
    assert!(file.enable_mirroring());
    for i in 0..500i64 {
        let values: Vec<Value> = (0..sys.num_fields())
            .map(|f| Value::Int(i * 131 + f as i64 * 7))
            .collect();
        file.insert(Record::new(values)).unwrap();
    }

    let exec = Executor::new(&file, CostModel::main_memory());
    let cluster = Cluster::new_tcp(&file, CostModel::main_memory(), ClusterConfig::default())
        .expect("loopback sockets");
    let queries = loadgen::query_mix(&sys, 64, 0xBA7C, 3);
    let policy = ExecPolicy::default();

    let gathered = cluster.frontend().execute_batch(&queries, &policy);
    let local = exec.execute_batch(&queries, &policy);
    assert_eq!(
        gathered, local,
        "TCP scatter/gather must be bit-equal to single-process"
    );
}
