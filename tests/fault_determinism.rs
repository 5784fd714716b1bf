//! Seed-reproducibility of fault injection (ISSUE acceptance check):
//! every fault decision is a pure function of `(seed, device, bucket,
//! attempt)`, so two runs under the same seed must inject *identical*
//! fault streams — observed here through the `fault.injected` counter.
//!
//! Lives in its own integration-test binary: it installs the in-memory
//! trace sink and resets the global counter registry, which would race
//! with any concurrently running traced test in the same process.

use pmr_core::{FxDistribution, PartialMatchQuery, SystemConfig};
use pmr_mkh::{Record, Schema, Value};
use pmr_rt::fault::{FaultPlan, RetryPolicy};
use pmr_rt::obs::{self, TraceConfig};
use pmr_storage::exec::{execute_parallel_with, ExecPolicy, Redundancy};
use pmr_storage::{CostModel, DeclusteredFile};
use std::sync::Arc;

/// One full faulted run; returns the `fault.injected` total it produced.
fn faulted_run(seed: u64) -> u64 {
    obs::reset();
    let sys = SystemConfig::new(&[4, 4, 4], 8).unwrap();
    let schema = Schema::ints(&sys);
    let mut file =
        DeclusteredFile::new(schema, FxDistribution::auto(sys.clone()).unwrap(), seed).unwrap();
    file.enable_mirroring();
    for i in 0..500i64 {
        let values: Vec<Value> = (0..sys.num_fields())
            .map(|f| Value::Int(i * 17 + f as i64))
            .collect();
        file.insert(Record::new(values)).unwrap();
    }
    let plan = FaultPlan::parse("read=0.2,corrupt=0.05,latency=0.1:50..500", seed).unwrap();
    file.install_fault_plan(Some(Arc::new(plan)));
    let policy = ExecPolicy {
        retry: RetryPolicy::default(),
        failover: true,
        redundancy: Redundancy::Mirror,
        seed,
    };
    let cost = CostModel::main_memory();
    // A spread of query shapes so the counter aggregates many
    // (device, bucket, attempt) decisions.
    for unspecified in 1..sys.num_fields() {
        let values: Vec<Option<u64>> = (0..sys.num_fields())
            .map(|i| {
                (i < sys.num_fields() - unspecified).then(|| (i as u64 * 3) % sys.field_size(i))
            })
            .collect();
        let query = PartialMatchQuery::new(&sys, &values).unwrap();
        execute_parallel_with(&file, &query, &cost, &policy).expect("degrades, not errors");
    }
    obs::counter_total("fault.injected")
}

#[test]
fn same_seed_reproduces_the_fault_stream() {
    obs::install(TraceConfig::Memory).expect("in-memory sink");
    let first = faulted_run(0xDECADE);
    let second = faulted_run(0xDECADE);
    assert!(first > 0, "a 20% read-error rate injects something");
    assert_eq!(first, second, "same seed, same fault.injected total");
    // A different seed draws a different stream. (Equality of totals is
    // possible in principle; these two seeds are pinned as differing.)
    let other = faulted_run(0xC0FFEE);
    assert_ne!(first, other, "distinct pinned seeds diverge");
    obs::drain_events();
}
