//! Fault-injection matrix over executor paths × mirroring × fault kinds.
//!
//! The degraded executor (PR: "Deterministic fault injection") must keep
//! its promises on every combination of enumeration path ({generic scan,
//! FX fast inverse}), copy placement ({no-mirror, buddy-mirror}), and
//! fault kind ({transient read error, transient corruption, device
//! outage, at-rest corruption}):
//!
//! * served records are always a subset of the fault-free result, and
//!   `coverage` is exactly the served fraction of `|R(q)|`;
//! * transient faults are retried to full coverage;
//! * a dead device degrades without mirroring and fails over with it;
//! * at-rest corruption (bytes injected under a primary copy) is
//!   unrecoverable by retry but fully recoverable from the mirror.
//!
//! All fault decisions are pure functions of the pinned seed, so every
//! assertion here is deterministic.

use pmr_baselines::ModuloDistribution;
use pmr_core::method::DistributionMethod;
use pmr_core::{FxDistribution, PartialMatchQuery, SystemConfig};
use pmr_mkh::{Record, Schema, Value};
use pmr_rt::fault::{FaultPlan, RetryPolicy};
use pmr_rt::rt_proptest;
use pmr_storage::exec::{
    execute_parallel, execute_parallel_with, DeviceOutcome, ExecPolicy, Redundancy,
};
use pmr_storage::{CostModel, DeclusteredFile, ExecutionReport};
use std::sync::{Arc, OnceLock};

const SEED: u64 = 0xFA11;

/// Eight retries drain a 0.3-rate transient fault stream to full
/// coverage (per-bucket loss probability 0.3^8 ≈ 6.6e-5; deterministic
/// for the pinned seed either way).
fn patient_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_us: 10,
        cap_us: 1_000,
        budget_us: 1_000_000,
    }
}

fn build_file<D: DistributionMethod>(
    sys: &SystemConfig,
    method: D,
    records: i64,
    mirror: bool,
) -> DeclusteredFile<D> {
    let schema = Schema::ints(sys);
    let mut file = DeclusteredFile::new(schema, method, SEED).expect("schema matches system");
    if mirror {
        assert!(file.enable_mirroring(), "M >= 2 systems mirror");
    }
    for i in 0..records {
        let values: Vec<Value> = (0..sys.num_fields())
            .map(|f| Value::Int(i * 131 + f as i64 * 7))
            .collect();
        file.insert(Record::new(values))
            .expect("records type-check");
    }
    file
}

fn sorted_records(report: &ExecutionReport) -> Vec<String> {
    let mut v: Vec<String> = report.records.iter().map(|r| format!("{r}")).collect();
    v.sort_unstable();
    v
}

/// The matrix body for one distribution method (one enumeration path).
fn run_matrix<D: DistributionMethod>(sys: &SystemConfig, make: impl Fn() -> D, label: &str) {
    let cost = CostModel::main_memory();
    let query =
        PartialMatchQuery::new(sys, &vec![None; sys.num_fields()]).expect("all-unspecified");
    let rq = query.qualified_count_in(sys);
    for mirror in [false, true] {
        let file = build_file(sys, make(), 400, mirror);
        let policy = ExecPolicy {
            retry: patient_retry(),
            redundancy: if mirror {
                Redundancy::Mirror
            } else {
                Redundancy::None
            },
            seed: SEED,
        };
        let reference =
            execute_parallel_with(&file, &query, &cost, &policy).expect("fault-free run");
        assert_eq!(
            reference.coverage, 1.0,
            "{label} mirror={mirror} fault-free"
        );
        let reference_records = sorted_records(&reference);

        for (fault, spec) in [
            ("read", "read=0.3"),
            ("corrupt", "corrupt=0.3"),
            ("outage", "outage=2"),
        ] {
            let ctx = format!("{label} {fault} mirror={mirror}");
            let plan = FaultPlan::parse(spec, SEED).expect("spec parses");
            file.install_fault_plan(Some(Arc::new(plan)));
            let report =
                execute_parallel_with(&file, &query, &cost, &policy).expect("degrades, not errors");
            file.install_fault_plan(None);

            // Coverage is exactly the served fraction, and served records
            // are a subset of the fault-free result.
            let expect_cov = (rq - report.lost_buckets.len() as u64) as f64 / rq as f64;
            assert!(
                (report.coverage - expect_cov).abs() < 1e-12,
                "{ctx}: coverage accounting"
            );
            for r in sorted_records(&report) {
                assert!(
                    reference_records.binary_search(&r).is_ok(),
                    "{ctx}: phantom record {r}"
                );
            }

            match (fault, mirror) {
                ("outage", false) => {
                    assert!(
                        report.coverage < 1.0,
                        "{ctx}: device 2 owns qualified buckets"
                    );
                    assert_eq!(report.per_device[2].outcome, DeviceOutcome::Lost, "{ctx}");
                    assert!(!report.is_complete());
                    for &code in &report.lost_buckets {
                        assert_eq!(
                            file.method().device_of_packed(code),
                            2,
                            "{ctx}: lost bucket {code} not on the dead device"
                        );
                    }
                }
                ("outage", true) => {
                    assert_eq!(report.coverage, 1.0, "{ctx}: buddy serves the dead device");
                    assert_eq!(
                        report.per_device[2].outcome,
                        DeviceOutcome::FailedOver,
                        "{ctx}"
                    );
                    assert_eq!(sorted_records(&report), reference_records, "{ctx}");
                }
                _ => {
                    // Transient faults: retries drain the fault stream.
                    assert_eq!(report.coverage, 1.0, "{ctx}: retries recover transients");
                    assert_eq!(sorted_records(&report), reference_records, "{ctx}");
                }
            }
        }
    }
}

/// F = (4, 4, 4), M = 8: the FX fast-inverse enumeration path.
#[test]
fn fault_matrix_fx_path() {
    let sys = SystemConfig::new(&[4, 4, 4], 8).unwrap();
    run_matrix(&sys, || FxDistribution::auto(sys.clone()).unwrap(), "fx");
}

/// Same system through Modulo: the generic packed-scan path.
#[test]
fn fault_matrix_scan_path() {
    let sys = SystemConfig::new(&[4, 4, 4], 8).unwrap();
    run_matrix(&sys, || ModuloDistribution::new(sys.clone()), "scan");
}

/// At-rest corruption round trip: bytes injected under a primary copy
/// make the strict executor error and the policy executor lose exactly
/// that bucket — unless the buddy mirror still holds a clean copy.
#[test]
fn at_rest_corruption_round_trip() {
    let sys = SystemConfig::new(&[4, 4, 4], 8).unwrap();
    let cost = CostModel::main_memory();
    let query =
        PartialMatchQuery::new(&sys, &vec![None; sys.num_fields()]).expect("all-unspecified");

    for mirror in [false, true] {
        let file = build_file(
            &sys,
            FxDistribution::auto(sys.clone()).unwrap(),
            400,
            mirror,
        );
        let policy = ExecPolicy {
            retry: patient_retry(),
            redundancy: if mirror {
                Redundancy::Mirror
            } else {
                Redundancy::None
            },
            seed: SEED,
        };
        let reference = execute_parallel_with(&file, &query, &cost, &policy).unwrap();
        let victim_device = 3u64;
        let victim_code = file.devices()[victim_device as usize]
            .resident_buckets()
            .first()
            .copied()
            .expect("400 records reach every device");
        file.devices()[victim_device as usize].inject_corruption(victim_code, b"\x00garbage");

        // Strict paths surface the decode failure as an error, never a
        // panic (satellite: decode failures are typed even with faults
        // off).
        assert!(execute_parallel(&file, &query, &cost).is_err());

        let report = execute_parallel_with(&file, &query, &cost, &policy).unwrap();
        if mirror {
            assert_eq!(
                report.coverage, 1.0,
                "mirror copy serves the corrupted bucket"
            );
            assert_eq!(sorted_records(&report), sorted_records(&reference));
            assert_eq!(
                report.per_device[victim_device as usize].outcome,
                DeviceOutcome::FailedOver
            );
        } else {
            assert_eq!(report.lost_buckets, vec![victim_code]);
            assert_eq!(
                report.per_device[victim_device as usize].outcome,
                DeviceOutcome::Lost
            );
            assert!(report.coverage < 1.0);
        }
    }
}

/// The mirrored Table 7 file (F = 8^6, M = 32), built once: property
/// cases only install fault plans (reads are unaffected by plan swaps
/// between runs).
fn table7_file() -> &'static DeclusteredFile<FxDistribution> {
    static FILE: OnceLock<DeclusteredFile<FxDistribution>> = OnceLock::new();
    FILE.get_or_init(|| {
        let sys = SystemConfig::new(&[8; 6], 32).unwrap();
        build_file(
            &sys,
            FxDistribution::auto(sys.clone()).unwrap(),
            4_000,
            true,
        )
    })
}

/// The parity-protected Table 7 file (F = 8^6, M = 32, RS(4+2) stripes),
/// built once like [`table7_file`] but with erasure coding instead of
/// buddy mirroring.
fn table7_parity_file() -> &'static DeclusteredFile<FxDistribution> {
    static FILE: OnceLock<DeclusteredFile<FxDistribution>> = OnceLock::new();
    FILE.get_or_init(|| {
        let sys = SystemConfig::new(&[8; 6], 32).unwrap();
        let mut file = build_file(
            &sys,
            FxDistribution::auto(sys.clone()).unwrap(),
            4_000,
            false,
        );
        assert!(file.enable_parity(4, 2), "k + r = 6 <= 32 devices");
        file
    })
}

/// A random Table 7 query; 1–3 unspecified fields keeps |R(q)| <= 512
/// per case.
fn random_table7_query(src: &mut pmr_rt::check::Source, sys: &SystemConfig) -> PartialMatchQuery {
    let unspecified = src.int_in(1, 3) as usize;
    let values: Vec<Option<u64>> = (0..sys.num_fields())
        .map(|i| {
            if i < sys.num_fields() - unspecified {
                Some(src.int_in(0, sys.field_size(i) - 1))
            } else {
                None
            }
        })
        .collect();
    PartialMatchQuery::new(sys, &values).expect("values in range")
}

/// The qualified codes of `query` homed on any of `dead` — exactly the
/// buckets an outage of those devices puts at risk.
fn qualified_codes_on<D: DistributionMethod>(
    file: &DeclusteredFile<D>,
    query: &PartialMatchQuery,
    dead: &[u64],
) -> Vec<u64> {
    let sys = file.system().clone();
    let mut at_risk = Vec::new();
    let mut it = query.qualified_buckets(&sys);
    while let Some(code) = it.next_code() {
        if dead.contains(&file.method().device_of_packed(code)) {
            at_risk.push(code);
        }
    }
    at_risk.sort_unstable();
    at_risk
}

rt_proptest! {
    /// Mirroring turns ANY single-device outage into a non-event: every
    /// random Table 7 query completes with full coverage and exactly the
    /// fault-free record set (ISSUE acceptance property).
    fn single_outage_with_mirroring_is_invisible(src) {
        let file = table7_file();
        let sys = file.system().clone();
        let dead = src.int_in(0, sys.devices() - 1);
        let query = random_table7_query(src, &sys);
        let cost = CostModel::main_memory();
        let policy = ExecPolicy {
            retry: RetryPolicy::none(),
            redundancy: Redundancy::Mirror,
            seed: SEED,
        };

        file.install_fault_plan(None);
        let clean = execute_parallel_with(file, &query, &cost, &policy).expect("fault-free");

        file.install_fault_plan(Some(Arc::new(FaultPlan::new(SEED).with_dead_device(dead))));
        let degraded = execute_parallel_with(file, &query, &cost, &policy).expect("degrades");
        file.install_fault_plan(None);

        assert_eq!(degraded.coverage, 1.0, "device {dead} outage, query {query}");
        assert!(degraded.is_complete());
        assert_eq!(
            sorted_records(&degraded),
            sorted_records(&clean),
            "device {dead} outage, query {query}"
        );
    }

    /// Two simultaneous outages under buddy mirroring lose coverage
    /// exactly when the dead pair are buddies (`a ^ M/2 == b`): then both
    /// copies of a stripe are gone and the lost set is precisely the
    /// qualified buckets homed on the pair; any non-buddy pair still has
    /// a living copy of everything (satellite property).
    fn double_outage_with_mirroring_loses_coverage_iff_buddies(src) {
        let file = table7_file();
        let sys = file.system().clone();
        let m = sys.devices();
        let a = src.int_in(0, m - 1);
        let b = {
            let pick = src.int_in(0, m - 2);
            if pick >= a { pick + 1 } else { pick }
        };
        let query = random_table7_query(src, &sys);
        let cost = CostModel::main_memory();
        let policy = ExecPolicy {
            retry: RetryPolicy::none(),
            redundancy: Redundancy::Mirror,
            seed: SEED,
        };

        file.install_fault_plan(None);
        let clean = execute_parallel_with(file, &query, &cost, &policy).expect("fault-free");

        let plan = FaultPlan::new(SEED).with_dead_device(a).with_dead_device(b);
        file.install_fault_plan(Some(Arc::new(plan)));
        let degraded = execute_parallel_with(file, &query, &cost, &policy).expect("degrades");
        file.install_fault_plan(None);

        let buddies = file.mirroring().expect("table7_file mirrors").buddy_of(a) == b;
        if buddies {
            let at_risk = qualified_codes_on(file, &query, &[a, b]);
            let mut lost = degraded.lost_buckets.clone();
            lost.sort_unstable();
            assert_eq!(lost, at_risk, "buddy pair ({a}, {b}), query {query}");
            assert_eq!(degraded.coverage == 1.0, at_risk.is_empty());
        } else {
            assert_eq!(degraded.coverage, 1.0, "non-buddy pair ({a}, {b}), query {query}");
            assert_eq!(
                sorted_records(&degraded),
                sorted_records(&clean),
                "non-buddy pair ({a}, {b}), query {query}"
            );
        }
    }

    /// ISSUE acceptance pin: under `Parity{k=4, r=2}` on the Table 7
    /// system, ANY two simultaneous device outages are invisible —
    /// coverage stays 1.0 and the record set is bit-equal to the
    /// fault-free run, at ~r/k storage overhead instead of mirroring's 2x.
    fn double_outage_with_parity_is_invisible(src) {
        let file = table7_parity_file();
        let sys = file.system().clone();
        let m = sys.devices();
        let a = src.int_in(0, m - 1);
        let b = {
            let pick = src.int_in(0, m - 2);
            if pick >= a { pick + 1 } else { pick }
        };
        let query = random_table7_query(src, &sys);
        let cost = CostModel::main_memory();
        let policy = ExecPolicy {
            retry: RetryPolicy::none(),
            redundancy: Redundancy::Parity { k: 4, r: 2 },
            seed: SEED,
        };

        file.install_fault_plan(None);
        let clean = execute_parallel_with(file, &query, &cost, &policy).expect("fault-free");
        assert_eq!(clean.reconstructions(), 0);

        let plan = FaultPlan::new(SEED).with_dead_device(a).with_dead_device(b);
        file.install_fault_plan(Some(Arc::new(plan)));
        let degraded = execute_parallel_with(file, &query, &cost, &policy).expect("degrades");
        file.install_fault_plan(None);

        assert_eq!(degraded.coverage, 1.0, "dead pair ({a}, {b}), query {query}");
        assert!(degraded.is_complete());
        assert_eq!(
            sorted_records(&degraded),
            sorted_records(&clean),
            "dead pair ({a}, {b}), query {query}"
        );
        // Every at-risk bucket was actually served via parity decode, not
        // by luck of placement.
        let at_risk = qualified_codes_on(file, &query, &[a, b]);
        assert!(
            degraded.reconstructions() >= at_risk.len() as u64,
            "dead pair ({a}, {b}): {} at-risk buckets, {} reconstructions",
            at_risk.len(),
            degraded.reconstructions()
        );
    }
}
