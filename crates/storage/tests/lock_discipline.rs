//! Lock discipline of the device share reader under failover.
//!
//! A device worker reads its share of a query under one store read guard.
//! std's `RwLock` queues new readers behind a waiting writer, so if the
//! worker still held that guard when it failed over — a parity rebuild
//! reads the home device's own store, a mirror read takes another
//! device's guard — an appender queued on those stores would deadlock
//! it. Here every home device stays *live* but fails reads transiently
//! and holds pages corrupt at rest, so failover runs while the home
//! store is readable, and a writer keeps appending to the same devices'
//! primary, mirror and parity stores. The
//! batch must finish (a deadlock fails the test at the timeout instead of
//! hanging it) and match the one-shot policy path query by query.

use pmr_core::{FxDistribution, PartialMatchQuery, SystemConfig};
use pmr_mkh::{Record, Schema, Value};
use pmr_rt::fault::{FaultPlan, RetryPolicy};
use pmr_storage::exec::{execute_parallel_with, DeviceOutcome, ExecPolicy, Executor, Redundancy};
use pmr_storage::{CostModel, DeclusteredFile};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Batches run back to back while the writer appends.
const ROUNDS: usize = 20;

fn loaded(redundancy: Redundancy) -> DeclusteredFile<FxDistribution> {
    let sys = SystemConfig::new(&[8; 4], 8).unwrap();
    let mut file = DeclusteredFile::new(
        Schema::ints(&sys),
        FxDistribution::auto(sys.clone()).unwrap(),
        3,
    )
    .unwrap();
    let records: Vec<Record> = (0..3000i64)
        .map(|i| Record::new((0..4).map(|f| Value::Int(i * 31 + f * 7)).collect()))
        .collect();
    file.insert_all_parallel(records).unwrap();
    match redundancy {
        Redundancy::Mirror => assert!(file.enable_mirroring()),
        Redundancy::Parity { k, r } => assert!(file.enable_parity(k.into(), r.into())),
        Redundancy::None => {}
    }
    // Every fifth page rots at rest after its redundancy was written: its
    // read is admitted and then fails over, and a parity rebuild reads
    // the home store again for the rotten member (an erasure by CRC).
    for device in file.devices() {
        for code in device.resident_buckets().into_iter().step_by(5) {
            device.inject_corruption(code, b"\x00bitrot");
        }
    }
    file
}

/// Queries with three open fields (64 buckets on each device).
fn scans(sys: &SystemConfig) -> Vec<PartialMatchQuery> {
    (0..8u64)
        .map(|v| PartialMatchQuery::new(sys, &[Some(v), None, None, None]).unwrap())
        .collect()
}

#[test]
fn failover_under_a_concurrent_writer_finishes_and_matches_one_shot() {
    for redundancy in [Redundancy::Mirror, Redundancy::Parity { k: 4, r: 2 }] {
        let file = loaded(redundancy);
        file.install_fault_plan(Some(Arc::new(FaultPlan::new(17).with_read_error(0.3))));
        let policy = ExecPolicy {
            retry: RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            redundancy,
            seed: 5,
        };
        let queries = scans(file.system());
        let exec = Executor::new(&file, CostModel::main_memory()).with_chunks(2);

        let stop = Arc::new(AtomicBool::new(false));
        let writes = Arc::new(AtomicU64::new(0));
        let writer = {
            let devices = file.devices().to_vec();
            let (stop, writes) = (Arc::clone(&stop), Arc::clone(&writes));
            std::thread::spawn(move || {
                let record = Record::new(vec![Value::Int(1)]);
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Keys no query reads and no stripe enrolls.
                    let key = u64::MAX - n % 64;
                    let device = &devices[(n / 4 % 8) as usize];
                    match n % 4 {
                        0 => device.append(key, &record),
                        1 => device.append_mirror(key, &record),
                        2 => device.install_parity_page(key, b"not a stripe"),
                        // Keeps the appended pages small.
                        _ => {
                            device.install_page(key, &[], 0);
                            device.install_mirror_page(key, &[]);
                        }
                    }
                    n += 1;
                    writes.store(n, Ordering::Relaxed);
                }
            })
        };
        while writes.load(Ordering::Relaxed) < 1000 {
            std::thread::yield_now();
        }
        let (tx, rx) = mpsc::channel();
        {
            let (queries, policy) = (queries.clone(), policy.clone());
            std::thread::spawn(move || {
                let rounds: Vec<_> = (0..ROUNDS)
                    .map(|_| exec.execute_batch(&queries, &policy))
                    .collect();
                let _ = tx.send(rounds);
            });
        }
        let rounds = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{redundancy} batch did not finish: a reader deadlocked"));
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();

        let reports = &rounds[0];
        // A share is lost only after its failover also failed.
        let failovers = reports
            .iter()
            .flat_map(|r| &r.per_device)
            .filter(|d| {
                matches!(
                    d.outcome,
                    DeviceOutcome::FailedOver | DeviceOutcome::Reconstructed | DeviceOutcome::Lost
                )
            })
            .count();
        assert!(failovers > 0, "{redundancy}: no share failed over");
        for (q, got) in queries.iter().zip(reports) {
            let mut want =
                execute_parallel_with(&file, q, &CostModel::main_memory(), &policy).unwrap();
            want.trace = None;
            assert_eq!(got, &want, "{redundancy}");
        }
        assert!(rounds.iter().all(|round| round == reports), "{redundancy}");
    }
}
