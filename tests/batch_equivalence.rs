//! Batch-vs-serial equivalence property for the resident executor.
//!
//! The resident [`Executor`] (PR: "Resident per-device executor") must be
//! a pure throughput optimisation: for any batch of queries,
//! `execute_batch` reports are **bit-identical** to running the same
//! queries one at a time through the scoped policy path
//! ([`execute_parallel_with`]) — same records in the same order, same
//! per-device reports, same simulated times, same coverage — apart from
//! the `trace` slot, which is always `None` on batch reports. This must
//! hold on fault-free runs *and* under an installed [`FaultPlan`] with
//! mirroring or `Parity{4,2}`, where the retry/failover/lose policy runs
//! on the resident workers — and, on the mirrored file, at every chunk
//! count the executor splits its devices into (1, 2, 3 and M, forced
//! through the `with_chunks` test seam).
//!
//! The property samples random Table 7 query mixes, batch sizes, policy
//! seeds, and fault plans under the [`pmr_rt::check`] harness
//! (`PMR_CHECK_SEED` replays a failure).

use pmr_core::{FxDistribution, PartialMatchQuery, SystemConfig};
use pmr_mkh::{Record, Schema, Value};
use pmr_rt::check::Source;
use pmr_rt::fault::{FaultPlan, RetryPolicy};
use pmr_rt::rt_proptest;
use pmr_storage::exec::{execute_parallel_with, ExecPolicy, Executor, Redundancy};
use pmr_storage::{CostModel, DeclusteredFile};
use std::sync::{Arc, Mutex, OnceLock};

const SEED: u64 = 0xBA7C;

/// Serialises fault-plan installs on the shared `'static` fixtures: a
/// plan is device-wide state, and `cargo test` runs cases on concurrent
/// threads.
fn plan_gate() -> &'static Mutex<()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
}

/// The paper's Table 7 system (6 fields of 8 buckets, M = 32), mirrored,
/// built once, with executors that split the 32 devices into every
/// chunk count under test: the host's default, then 1, 2, 3 and M
/// chunks (forced whatever the batch size). The resident workers are
/// shared by every case, which is exactly the deployment model under
/// test.
fn table7() -> (
    &'static DeclusteredFile<FxDistribution>,
    &'static [Executor<FxDistribution>],
) {
    type State = (
        DeclusteredFile<FxDistribution>,
        Vec<Executor<FxDistribution>>,
    );
    static STATE: OnceLock<State> = OnceLock::new();
    let (file, execs) = STATE.get_or_init(|| {
        let sys = SystemConfig::new(&[8; 6], 32).unwrap();
        let schema = Schema::ints(&sys);
        let fx = FxDistribution::auto(sys.clone()).expect("auto always assigns");
        let mut file = DeclusteredFile::new(schema, fx, SEED).expect("schema matches system");
        assert!(file.enable_mirroring());
        for i in 0..2_000i64 {
            let values: Vec<Value> = (0..sys.num_fields())
                .map(|f| Value::Int(i * 131 + f as i64 * 7))
                .collect();
            file.insert(Record::new(values))
                .expect("records type-check");
        }
        // Mirroring is enabled before construction: the executor
        // snapshots the buddy pairing.
        let cost = CostModel::main_memory();
        let mut execs = vec![Executor::new(&file, cost)];
        for chunks in [1, 2, 3, sys.devices() as usize] {
            execs.push(Executor::new(&file, cost).with_chunks(chunks));
        }
        (file, execs)
    });
    (file, execs)
}

/// Parity twin of [`table7`]: the same system and load, protected by
/// `Parity{k = 4, r = 2}` stripes instead of buddy mirrors, with one
/// executor at the host's default chunking.
fn table7_parity() -> (
    &'static DeclusteredFile<FxDistribution>,
    &'static [Executor<FxDistribution>],
) {
    static STATE: OnceLock<(DeclusteredFile<FxDistribution>, Executor<FxDistribution>)> =
        OnceLock::new();
    let (file, exec) = STATE.get_or_init(|| {
        let sys = SystemConfig::new(&[8; 6], 32).unwrap();
        let schema = Schema::ints(&sys);
        let fx = FxDistribution::auto(sys.clone()).expect("auto always assigns");
        let mut file = DeclusteredFile::new(schema, fx, SEED).expect("schema matches system");
        for i in 0..2_000i64 {
            let values: Vec<Value> = (0..sys.num_fields())
                .map(|f| Value::Int(i * 131 + f as i64 * 7))
                .collect();
            file.insert(Record::new(values))
                .expect("records type-check");
        }
        assert!(file.enable_parity(4, 2), "k + r = 6 <= 32 devices");
        let exec = Executor::new(&file, CostModel::main_memory());
        (file, exec)
    });
    (file, std::slice::from_ref(exec))
}

/// Random Table 7 query with 1–3 unspecified fields (|R(q)| ≤ 512),
/// unspecified positions scattered rather than suffix-only.
fn gen_query(src: &mut Source, sys: &SystemConfig) -> PartialMatchQuery {
    let unspecified = src.int_in(1, 3) as usize;
    let n = sys.num_fields();
    let mut free: Vec<usize> = Vec::new();
    while free.len() < unspecified {
        let f = src.int_in(0, n as u64 - 1) as usize;
        if !free.contains(&f) {
            free.push(f);
        }
    }
    let values: Vec<Option<u64>> = (0..n)
        .map(|i| {
            if free.contains(&i) {
                None
            } else {
                Some(src.int_in(0, sys.field_size(i) - 1))
            }
        })
        .collect();
    PartialMatchQuery::new(sys, &values).expect("values in range")
}

rt_proptest! {
    /// `execute_batch` ≡ per-query `execute_parallel_with`, bit-for-bit,
    /// across random query mixes, batch sizes, seeds, and fault plans
    /// (including none): on the mirrored file at every chunk count the
    /// executor can split its devices into, and on the `Parity{4,2}`
    /// file, where dead devices' pages are rebuilt from their stripes.
    fn batch_is_bit_equal_to_per_query_execution(src) {
        let parity = src.weighted(0.3);
        let (file, execs) = if parity { table7_parity() } else { table7() };
        let sys = file.system().clone();
        let cost = CostModel::main_memory();

        let batch_size = src.int_in(1, 8) as usize;
        let queries: Vec<PartialMatchQuery> =
            (0..batch_size).map(|_| gen_query(src, &sys)).collect();
        let policy = ExecPolicy {
            retry: RetryPolicy { max_attempts: 4, base_us: 10, cap_us: 1_000, budget_us: 100_000 },
            redundancy: if parity {
                Redundancy::Parity { k: 4, r: 2 }
            } else if src.weighted(0.8) {
                Redundancy::Mirror
            } else {
                Redundancy::None
            },
            seed: src.any_u64(),
        };
        let plan = if src.weighted(0.5) {
            let mut plan = FaultPlan::new(src.any_u64());
            if src.weighted(0.6) {
                plan = plan.with_read_error(0.2);
            }
            if src.weighted(0.4) {
                plan = plan.with_dead_device(src.int_in(0, sys.devices() - 1));
            }
            Some(Arc::new(plan))
        } else {
            None
        };

        let _gate = plan_gate().lock().unwrap_or_else(|e| e.into_inner());
        file.install_fault_plan(plan.clone());
        let batches: Vec<_> = execs.iter().map(|e| e.execute_batch(&queries, &policy)).collect();
        let serial: Vec<_> = queries
            .iter()
            .map(|q| {
                let mut report =
                    execute_parallel_with(file, q, &cost, &policy).expect("policy path never errors");
                report.trace = None;
                report
            })
            .collect();
        file.install_fault_plan(None);

        for (e, batch) in batches.iter().enumerate() {
            assert_eq!(batch.len(), serial.len());
            for (i, (got, want)) in batch.iter().zip(&serial).enumerate() {
                assert_eq!(
                    got, want,
                    "executor {e}: query {i}/{batch_size} ({}) diverged under plan {:?}",
                    queries[i],
                    plan.is_some()
                );
            }
        }
    }
}
