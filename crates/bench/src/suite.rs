//! The shared benchmark suite: every bench group as a reusable builder.
//!
//! Each function assembles one [`Group`], runs it, and returns it so the
//! caller can collect [`Stats`]. The five standalone bench binaries
//! (`cargo bench -p pmr-bench --bench …`) are thin wrappers over these
//! builders; the `bench_all` binary runs the whole suite and records the
//! results as JSON-lines baselines (`BENCH_core.json`, `BENCH_exec.json`)
//! — see EXPERIMENTS.md for the schema and how to compare runs.
//!
//! [`SuiteOpts::smoke`] shrinks workloads and iteration counts so the
//! entire suite runs in well under a second; the `bench_smoke` integration
//! test exercises every group that way on each `cargo test`.

use crate::{cpu_time_system, random_buckets};
use pmr_baselines::gdm::PaperGdmSet;
use pmr_baselines::{GdmDistribution, ModuloDistribution, RandomDistribution};
use pmr_core::inverse::{for_each_device_code, scan_device_buckets, FxInverse};
use pmr_core::method::DistributionMethod;
use pmr_core::transform::{Transform, TransformKind};
use pmr_core::{AssignmentStrategy, FxDistribution, PartialMatchQuery};
use pmr_mkh::{FieldType, Record, Schema, Value};
use pmr_rt::bench::{black_box, Group, Stats};
use pmr_storage::exec::{
    execute_parallel, execute_parallel_with, merge_device_yields, plan_query, ExecPolicy, Executor,
    PlannedQuery, Redundancy,
};
use pmr_storage::{CostModel, DeclusteredFile};
use std::io::Write as _;
use std::path::Path;

/// Suite-wide knobs: iteration overrides and workload scaling.
#[derive(Debug, Clone, Copy)]
pub struct SuiteOpts {
    /// Timed iterations per bench; `None` honours `PMR_BENCH_ITERS`.
    pub iters: Option<usize>,
    /// Warmup iterations per bench; `None` honours `PMR_BENCH_WARMUP`.
    pub warmup: Option<usize>,
    /// Shrink workload sizes (record counts, batch sizes) for smoke runs.
    pub fast: bool,
}

impl SuiteOpts {
    /// Full-size workloads, iteration counts from the environment — what
    /// `cargo bench` and `bench_all` use.
    pub fn standard() -> Self {
        SuiteOpts {
            iters: None,
            warmup: None,
            fast: false,
        }
    }

    /// Minimal workloads and two unwarmed iterations per bench — fast
    /// enough for `cargo test`, still exercising every code path.
    pub fn smoke() -> Self {
        SuiteOpts {
            iters: Some(2),
            warmup: Some(0),
            fast: true,
        }
    }

    fn group(&self, name: &str) -> Group {
        let mut g = Group::new(name);
        if let Some(i) = self.iters {
            g = g.iters(i);
        }
        if let Some(w) = self.warmup {
            g = g.warmup(w);
        }
        g
    }

    /// `full` normally, `fast` under smoke scaling.
    fn scaled(&self, full: usize, fast: usize) -> usize {
        if self.fast {
            fast
        } else {
            full
        }
    }
}

/// §5.2.2 address-computation kernel: `device_of` per method over a
/// random bucket batch.
pub fn addr_compute(opts: &SuiteOpts) -> Group {
    let sys = cpu_time_system();
    let count = opts.scaled(4096, 64);
    let flat = random_buckets(&sys, count, pmr_rt::seed_from_env_or(42));
    let n = sys.num_fields();

    let fx_basic = FxDistribution::basic(sys.clone()).unwrap();
    let fx = FxDistribution::with_strategy(sys.clone(), AssignmentStrategy::CycleIu1).unwrap();
    let fx_iu2 = FxDistribution::with_strategy(sys.clone(), AssignmentStrategy::CycleIu2).unwrap();
    let dm = ModuloDistribution::new(sys.clone());
    let gdm = GdmDistribution::paper_set(sys.clone(), PaperGdmSet::Gdm1);
    let random = RandomDistribution::new(sys.clone(), 7);

    let mut group = opts.group("addr_compute");
    let cases: [(&str, &dyn DistributionMethod); 6] = [
        ("modulo", &dm),
        ("gdm1", &gdm),
        ("fx_basic", &fx_basic),
        ("fx_iu1", &fx),
        ("fx_iu2", &fx_iu2),
        ("random", &random),
    ];
    for (name, method) in cases {
        group.bench(name, || {
            let mut acc = 0u64;
            for chunk in flat.chunks_exact(n) {
                acc = acc.wrapping_add(method.device_of(black_box(chunk)));
            }
            acc
        });
    }

    // The lane-batched counterparts over the same buckets as packed
    // codes. Checksums match the scalar benches above record-for-record,
    // pinned by `bench_smoke` (ISSUE: batched paths are bit-equal).
    let layout = sys.packed_layout();
    let codes: Vec<u64> = flat.chunks_exact(n).map(|b| layout.pack(b)).collect();
    let mut out = vec![0u64; codes.len()];
    let batched: [(&str, &dyn DistributionMethod); 5] = [
        ("batched_modulo", &dm),
        ("batched_gdm1", &gdm),
        ("batched_fx_basic", &fx_basic),
        ("batched_fx_iu1", &fx),
        ("batched_fx_iu2", &fx_iu2),
    ];
    for (name, method) in batched {
        group.bench(name, || {
            method.device_of_batch(black_box(&codes), &mut out);
            out.iter().fold(0u64, |a, &d| a.wrapping_add(d))
        });
    }
    group
}

/// Transformation kernels forward (`transform_apply`) and inverse
/// (`transform_invert`); two groups because the paper discusses the costs
/// separately (distribution vs inverse mapping).
pub fn transforms(opts: &SuiteOpts) -> Vec<Group> {
    let f: u64 = if opts.fast { 64 } else { 256 };
    const M: u64 = 4096;
    let transforms: Vec<(&str, Transform)> = vec![
        (
            "identity",
            Transform::new(TransformKind::Identity, f, M).unwrap(),
        ),
        ("u", Transform::new(TransformKind::U, f, M).unwrap()),
        ("iu1", Transform::new(TransformKind::Iu1, f, M).unwrap()),
        ("iu2", Transform::new(TransformKind::Iu2, f, M).unwrap()),
    ];

    let mut apply = opts.group("transform_apply");
    for (name, t) in &transforms {
        apply.bench(name, || {
            let mut acc = 0u64;
            for l in 0..f {
                acc ^= t.apply(black_box(l));
            }
            acc
        });
    }

    let mut invert = opts.group("transform_invert");
    for (name, t) in &transforms {
        let images: Vec<u64> = (0..f).map(|l| t.apply(l)).collect();
        invert.bench(name, || {
            let mut acc = 0u64;
            for &v in &images {
                acc ^= t.invert(black_box(v)).expect("image point inverts");
            }
            acc
        });
    }
    vec![apply, invert]
}

/// Inverse-mapping cost on the paper's 6-field system: FX's
/// residue-indexed fast path vs the generic per-device scan.
pub fn inverse_mapping(opts: &SuiteOpts) -> Group {
    let sys = cpu_time_system();
    let fx = FxDistribution::with_strategy(sys.clone(), AssignmentStrategy::CycleIu1).unwrap();
    // Three unspecified fields: |R(q)| = 512 over 32 devices.
    let query =
        PartialMatchQuery::new(&sys, &[Some(3), None, Some(1), None, Some(7), None]).unwrap();

    let mut group = opts.group("inverse_mapping");

    group.bench("fx_fast_all_devices", || {
        let inv = FxInverse::new(&fx, &query);
        let mut total = 0u64;
        for device in 0..sys.devices() {
            total += inv.response_size(black_box(device));
        }
        total
    });

    group.bench("generic_scan_all_devices", || {
        let mut total = 0u64;
        for device in 0..sys.devices() {
            total += scan_device_buckets(&fx, &sys, &query, black_box(device)).len() as u64;
        }
        total
    });
    group
}

/// Packed codes vs tuple `Vec`s on the acceptance system
/// (`F = (8,…,8)`, `M = 32`): the legacy allocating scan, the
/// allocation-free packed scan, and FX's packed fast inverse, all
/// counting the same qualified buckets across all devices.
pub fn packed_vs_vec(opts: &SuiteOpts) -> Group {
    let sys = cpu_time_system();
    let fx = FxDistribution::with_strategy(sys.clone(), AssignmentStrategy::CycleIu1).unwrap();
    let query =
        PartialMatchQuery::new(&sys, &[Some(3), None, Some(1), None, Some(7), None]).unwrap();

    let mut group = opts.group("packed_vs_vec");

    group.bench("vec_scan_all_devices", || {
        let mut total = 0u64;
        for device in 0..sys.devices() {
            total += scan_device_buckets(&fx, &sys, &query, black_box(device)).len() as u64;
        }
        total
    });

    group.bench("packed_scan_all_devices", || {
        let mut total = 0u64;
        for device in 0..sys.devices() {
            for_each_device_code(&fx, &sys, &query, black_box(device), |_| total += 1);
        }
        total
    });

    group.bench("packed_fx_fast_all_devices", || {
        let inv = FxInverse::new(&fx, &query);
        let mut total = 0u64;
        for device in 0..sys.devices() {
            inv.for_each_code_on(black_box(device), |_| total += 1);
        }
        total
    });
    group
}

fn insert_schema() -> Schema {
    Schema::builder()
        .field("author", FieldType::Str, 8)
        .field("year", FieldType::Int, 8)
        .field("subject", FieldType::Int, 8)
        .devices(32)
        .build()
        .unwrap()
}

fn bench_insert<D: DistributionMethod + Clone>(
    group: &mut Group,
    name: &str,
    method: D,
    recs: &[Record],
) {
    group.bench(name, || {
        // A fresh file per iteration so every timed pass exercises the
        // cold append path (first-touch page creation included).
        let mut file = DeclusteredFile::new(insert_schema(), method.clone(), 11).unwrap();
        file.insert_all(recs.to_vec()).unwrap();
        file.record_occupancy().iter().sum()
    });
}

/// Bulk distribution throughput: inserting a record batch into a
/// declustered file (hash → transform → device → append), per method.
pub fn bulk_insert(opts: &SuiteOpts) -> Group {
    let batch = opts.scaled(2000, 100) as i64;
    let recs: Vec<Record> = (0..batch)
        .map(|i| {
            Record::new(vec![
                format!("author{}", i % 97).into(),
                Value::Int(1900 + i % 100),
                Value::Int(i % 23),
            ])
        })
        .collect();
    let sys = insert_schema().system().clone();

    let mut group = opts.group("bulk_insert");
    bench_insert(
        &mut group,
        "fx_auto",
        FxDistribution::auto(sys.clone()).unwrap(),
        &recs,
    );
    bench_insert(
        &mut group,
        "modulo",
        ModuloDistribution::new(sys.clone()),
        &recs,
    );
    // The streaming resident-pool path on the same FX file and batch:
    // routes codes with `device_of_batch` and ships per-device append
    // runs. Checksum equals `bulk_insert/fx_auto` (identical placement),
    // pinned by `bench_smoke`.
    let fx = FxDistribution::auto(sys).unwrap();
    group.bench("batched", || {
        let mut file = DeclusteredFile::new(insert_schema(), fx.clone(), 11).unwrap();
        file.insert_all_parallel(recs.to_vec()).unwrap();
        file.record_occupancy().iter().sum()
    });
    group
}

fn exec_schema() -> Schema {
    Schema::builder()
        .field("a", FieldType::Int, 16)
        .field("b", FieldType::Int, 8)
        .field("c", FieldType::Int, 8)
        .devices(8)
        .build()
        .unwrap()
}

fn exec_filled<D: DistributionMethod>(method: D, records: i64) -> DeclusteredFile<D> {
    let mut file = DeclusteredFile::new(exec_schema(), method, 3).unwrap();
    let records: Vec<Record> = (0..records)
        .map(|i| {
            Record::new(vec![
                Value::Int(i),
                Value::Int(i * 17 % 101),
                Value::Int(i * 29 % 53),
            ])
        })
        .collect();
    file.insert_all_parallel(records).unwrap();
    file
}

/// `query` on `file` under a forced inverse mapping (`fast_path`), as a
/// closure that runs it through `exec` and returns the largest response
/// — the forced twin of `execute_parallel`'s dispatch.
fn forced<'a, D: DistributionMethod + Clone + Send + Sync + 'static>(
    exec: &'a Executor<D>,
    file: &DeclusteredFile<D>,
    query: &PartialMatchQuery,
    fast_path: bool,
) -> impl FnMut() -> u64 + 'a {
    let planned = [PlannedQuery {
        fast_path,
        ..plan_query(file.system(), file.method(), query)
    }];
    let policy = ExecPolicy::default();
    move || {
        let yields = exec.execute_planned(&planned, &policy).remove(0);
        merge_device_yields(yields, policy.effective_redundancy()).largest_response
    }
}

/// End-to-end query execution through the storage stack: forced generic
/// scan vs forced FX fast inverse, plus a Modulo file and a serial
/// reference.
pub fn query_exec(opts: &SuiteOpts) -> Group {
    let records = opts.scaled(20_000, 1000) as i64;
    let sys = exec_schema().system().clone();
    let fx_file = exec_filled(FxDistribution::auto(sys.clone()).unwrap(), records);
    let dm_file = exec_filled(ModuloDistribution::new(sys), records);
    let cost = CostModel::main_memory();
    let query = fx_file.query(&[("b", Value::Int(7))]).unwrap();
    let dm_query = dm_file.query(&[("b", Value::Int(7))]).unwrap();

    let exec = Executor::new(&fx_file, cost);
    let mut group = opts.group("query_exec");
    group.bench(
        "fx_generic_executor",
        forced(&exec, &fx_file, &query, false),
    );
    group.bench("fx_fast_executor", forced(&exec, &fx_file, &query, true));
    group.bench("modulo_generic_executor", || {
        execute_parallel(&dm_file, &dm_query, &cost)
            .unwrap()
            .largest_response
    });
    group.bench("fx_serial_reference", || {
        fx_file.retrieve_serial(&query).unwrap().len() as u64
    });
    group
}

/// The dispatcher's fast path end-to-end: `execute_parallel` on an FX
/// file (dispatches onto [`FxInverse`] when the plan says it pays) vs the
/// forced generic scan on the same file, at two selectivities.
pub fn exec_fast_path(opts: &SuiteOpts) -> Group {
    let records = opts.scaled(20_000, 1000) as i64;
    let sys = exec_schema().system().clone();
    let file = exec_filled(FxDistribution::auto(sys).unwrap(), records);
    let cost = CostModel::main_memory();
    let narrow = file
        .query(&[("a", Value::Int(11)), ("b", Value::Int(7))])
        .unwrap();
    let wide = file.query(&[("b", Value::Int(7))]).unwrap();
    let exec = Executor::new(&file, cost);

    let mut group = opts.group("exec_fast_path");
    group.bench("dispatch_narrow", || {
        execute_parallel(&file, &narrow, &cost)
            .unwrap()
            .largest_response
    });
    group.bench("scan_narrow", forced(&exec, &file, &narrow, false));
    group.bench("dispatch_wide", || {
        execute_parallel(&file, &wide, &cost)
            .unwrap()
            .largest_response
    });
    group.bench("scan_wide", forced(&exec, &file, &wide, false));
    group
}

/// Observability overhead: the disabled-path cost of `span!` and
/// `counter_add` (the contract is one relaxed atomic load + early
/// return), against the enabled memory-sink path and a raw atomic load
/// floor for scale.
pub fn obs_overhead(opts: &SuiteOpts) -> Group {
    use pmr_rt::obs::{self, TraceConfig};
    let per_iter = opts.scaled(4096, 64);

    let mut group = opts.group("obs_overhead");

    // Floor: the cheapest conceivable guard, one relaxed atomic load.
    let flag = std::sync::atomic::AtomicU8::new(1);
    group.bench("atomic_load_floor", || {
        let mut acc = 0u64;
        for _ in 0..per_iter {
            acc += black_box(&flag).load(std::sync::atomic::Ordering::Relaxed) as u64;
        }
        acc
    });

    obs::install(TraceConfig::Off).expect("off sink installs");
    group.bench("span_disabled", || {
        let mut acc = 0u64;
        for i in 0..per_iter as u64 {
            let span = pmr_rt::span!("bench.obs", i = black_box(i));
            acc += span.is_recording() as u64;
        }
        acc
    });
    group.bench("counter_disabled", || {
        for i in 0..per_iter as u64 {
            obs::counter_add("bench.obs.counter", black_box(i) & 1);
        }
        obs::counter_total("bench.obs.counter")
    });

    obs::install(TraceConfig::Memory).expect("memory sink installs");
    group.bench("span_enabled_memory", || {
        let mut acc = 0u64;
        for i in 0..per_iter as u64 {
            let span = pmr_rt::span!("bench.obs", i = black_box(i));
            acc += span.is_recording() as u64;
        }
        obs::drain_events();
        acc
    });
    group.bench("counter_enabled_memory", || {
        for i in 0..per_iter as u64 {
            obs::counter_add("bench.obs.counter", black_box(i) & 1);
        }
        obs::counter_total("bench.obs.counter")
    });

    // Leave tracing off so later groups time the production default.
    obs::install(TraceConfig::Off).expect("off sink installs");
    obs::reset();
    group
}

/// Fault-hook overhead on the bucket-read hot path. The contract
/// (ISSUE: "Deterministic fault injection") is that a device with no
/// plan installed pays one relaxed atomic load + branch over the plain
/// `read_bucket`, and that the fault-aware executor without faults
/// tracks the strict dispatcher.
pub fn fault_overhead(opts: &SuiteOpts) -> Group {
    use pmr_rt::fault::{FaultPlan, RetryPolicy};
    use std::sync::Arc;

    let records = opts.scaled(20_000, 1000) as i64;
    let sys = exec_schema().system().clone();
    let file = exec_filled(FxDistribution::auto(sys).unwrap(), records);
    let cost = CostModel::main_memory();
    let query = file.query(&[("b", Value::Int(7))]).unwrap();
    let dev = file.devices()[0].clone();
    let codes = dev.resident_buckets();

    let mut group = opts.group("fault_overhead");
    group.bench("read_bucket_baseline", || {
        let mut n = 0u64;
        for &c in &codes {
            n += dev
                .read_bucket(black_box(c))
                .map(|r| r.len() as u64)
                .unwrap_or(0);
        }
        n
    });
    group.bench("read_attempt_no_plan", || {
        let mut n = 0u64;
        for &c in &codes {
            n += dev
                .read_bucket_attempt(black_box(c), 0)
                .map(|r| r.records.len() as u64)
                .unwrap_or(0);
        }
        n
    });
    dev.set_fault_plan(Some(Arc::new(FaultPlan::new(9).with_read_error(0.001))));
    group.bench("read_attempt_plan_installed", || {
        let mut n = 0u64;
        for &c in &codes {
            n += dev
                .read_bucket_attempt(black_box(c), 0)
                .map(|r| r.records.len() as u64)
                .unwrap_or(0);
        }
        n
    });
    dev.set_fault_plan(None);

    group.bench("strict_dispatch", || {
        execute_parallel(&file, &query, &cost)
            .unwrap()
            .largest_response
    });
    let policy = ExecPolicy {
        retry: RetryPolicy::default(),
        failover: false,
        redundancy: Redundancy::None,
        seed: 9,
    };
    group.bench("policy_no_faults", || {
        execute_parallel_with(&file, &query, &cost, &policy)
            .unwrap()
            .largest_response
    });
    // Parity-protected file, no faults: the fault-free read path must not
    // pay for reconstruction it never performs (gated in `bench_diff`
    // alongside the other fault_overhead ratios).
    let sys = exec_schema().system().clone();
    let mut parity_file = exec_filled(FxDistribution::auto(sys).unwrap(), records);
    assert!(parity_file.enable_parity(4, 2), "k + r = 6 <= 8 devices");
    let parity_query = parity_file.query(&[("b", Value::Int(7))]).unwrap();
    let parity_policy = ExecPolicy {
        retry: RetryPolicy::default(),
        failover: true,
        redundancy: Redundancy::Parity { k: 4, r: 2 },
        seed: 9,
    };
    group.bench("read_parity_no_fault", || {
        execute_parallel_with(&parity_file, &parity_query, &cost, &parity_policy)
            .unwrap()
            .largest_response
    });
    group
}

/// The decoded-page cache on the bucket-read hot path: one device's
/// resident buckets read repeatedly with the cache warm (every read an
/// `Arc` clone out of the map), thrashing (capacity 1 — every read a
/// miss, decode, and eviction), and disabled (capacity 0 — the
/// pre-cache behaviour, a full page decode per read). All three benches
/// return the identical record-count checksum — the cache is purely a
/// wall-clock optimisation — and the `read_path/` gate in `bench_diff`
/// holds the hot-over-off win (ISSUE target: ≥3x).
pub fn read_path(opts: &SuiteOpts) -> Group {
    let records = opts.scaled(20_000, 1000) as i64;
    let sys = exec_schema().system().clone();
    let file = exec_filled(FxDistribution::auto(sys).unwrap(), records);
    let dev = file.devices()[0].clone();
    let codes = dev.resident_buckets();

    let mut group = opts.group("read_path");

    dev.set_cache_capacity(codes.len().max(1));
    for &c in &codes {
        // Pre-warm so every timed hot read is a hit.
        let _ = dev.read_bucket(c);
    }
    group.bench("hot_cached", || {
        let mut n = 0u64;
        for &c in &codes {
            n += dev
                .read_bucket(black_box(c))
                .map(|r| r.len() as u64)
                .unwrap_or(0);
        }
        n
    });

    dev.set_cache_capacity(1);
    group.bench("cold", || {
        let mut n = 0u64;
        for &c in &codes {
            n += dev
                .read_bucket(black_box(c))
                .map(|r| r.len() as u64)
                .unwrap_or(0);
        }
        n
    });

    dev.set_cache_capacity(0);
    group.bench("cache_off", || {
        let mut n = 0u64;
        for &c in &codes {
            n += dev
                .read_bucket(black_box(c))
                .map(|r| r.len() as u64)
                .unwrap_or(0);
        }
        n
    });

    dev.set_cache_capacity(pmr_storage::cache::DEFAULT_CAPACITY);
    group
}

/// Reed–Solomon codec kernels (`pmr_rt::ec`) at the parity tier's
/// default `k = 4, r = 2` geometry: systematic encode of one page into
/// `k + r` framed shards, the all-shards-present fast decode, and the
/// worst-case reconstruct with `r` data shards lost. One timed iteration
/// processes one page, so page-size / median-ns is the codec's
/// throughput in bytes/ns (GB/s).
pub fn ec_codec(opts: &SuiteOpts) -> Group {
    use pmr_rt::ec::ReedSolomon;

    let rs = ReedSolomon::new(4, 2).expect("4 + 2 <= 256");
    let page: Vec<u8> = (0..opts.scaled(1 << 20, 1 << 12))
        .map(|i| (i * 31 % 251) as u8)
        .collect();
    let shards = rs.encode(&page);
    let full: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
    let mut degraded = full.clone();
    degraded[0] = None;
    degraded[1] = None;

    let mut group = opts.group("ec");
    group.bench("encode_4_2", || {
        black_box(rs.encode(black_box(&page)))
            .iter()
            .map(Vec::len)
            .sum::<usize>() as u64
    });
    group.bench("decode_4_2", || {
        rs.decode(black_box(&full)).expect("all present").len() as u64
    });
    group.bench("reconstruct_4_2", || {
        rs.decode(black_box(&degraded))
            .expect("2 lost of 4+2")
            .len() as u64
    });
    group
}

/// The file the `throughput` and `serve` groups query: the Table 7
/// system under FX `auto` (seed 13), loaded with `i·131 + f·7` integer
/// records.
fn cpu_time_file(opts: &SuiteOpts) -> DeclusteredFile<FxDistribution> {
    let sys = cpu_time_system();
    let mut file = DeclusteredFile::new(
        Schema::ints(&sys),
        FxDistribution::auto(sys.clone()).unwrap(),
        13,
    )
    .unwrap();
    let records = opts.scaled(20_000, 300) as i64;
    let recs: Vec<Record> = (0..records)
        .map(|i| {
            Record::new(
                (0..sys.num_fields())
                    .map(|f| Value::Int(i * 131 + f as i64 * 7))
                    .collect(),
            )
        })
        .collect();
    file.insert_all_parallel(recs).unwrap();
    file
}

/// Sustained multi-query throughput on the paper's Table 7 system
/// (`F = (8,…,8)`, `M = 32`): the resident batch executor
/// ([`Executor::execute_batch`]) vs the one-query-at-a-time policy path
/// (`execute_parallel_with`) vs a serial reference, at batch sizes
/// 1/16/256 over a fixed seeded query mix (2–4 unspecified fields,
/// `|R(q)|` 64–4096). Each bench's
/// checksum is the total record count over its batch, so the three
/// variants at one batch size pin the same answer.
///
/// This is the resident executor's acceptance bench: one timed iteration
/// of `resident_batch_N` answers the same N queries as one iteration of
/// `per_query_N`, so the median ratio *is* the queries/sec ratio.
pub fn throughput(opts: &SuiteOpts) -> Group {
    let file = cpu_time_file(opts);
    let sys = file.system().clone();

    let mut rng = pmr_rt::rng::Rng::seed_from_u64(pmr_rt::seed_from_env_or(42));
    let queries: Vec<PartialMatchQuery> = (0..256)
        .map(|q| {
            let unspecified = 2 + (q % 3) as usize;
            let n = sys.num_fields();
            let values: Vec<Option<u64>> = (0..n)
                .map(|i| {
                    if i < n - unspecified {
                        Some(rng.gen_range(0..sys.field_size(i)))
                    } else {
                        None
                    }
                })
                .collect();
            PartialMatchQuery::new(&sys, &values).unwrap()
        })
        .collect();

    let cost = CostModel::main_memory();
    let policy = ExecPolicy::default();
    let exec = Executor::new(&file, cost);

    // A full iteration answers 256 wide queries three times over, so
    // this group caps its default iteration counts; the
    // `PMR_BENCH_ITERS`/`PMR_BENCH_WARMUP` knobs still override.
    let mut group = opts.group("throughput");
    if opts.iters.is_none() && std::env::var("PMR_BENCH_ITERS").is_err() {
        group = group.iters(20);
    }
    if opts.warmup.is_none() && std::env::var("PMR_BENCH_WARMUP").is_err() {
        group = group.warmup(2);
    }

    for &batch in &[1usize, 16, 256] {
        // Smoke runs shrink the actual batch (names keep the nominal
        // size, and the three variants still answer identical batches).
        let slice = &queries[..opts.scaled(batch, batch.min(4))];
        group.bench(&format!("resident_batch_{batch}"), || {
            exec.execute_batch(slice, &policy)
                .iter()
                .map(|r| r.records.len() as u64)
                .sum()
        });
        group.bench(&format!("per_query_{batch}"), || {
            slice
                .iter()
                .map(|q| {
                    execute_parallel_with(&file, q, &cost, &policy)
                        .unwrap()
                        .records
                        .len() as u64
                })
                .sum()
        });
        group.bench(&format!("serial_{batch}"), || {
            slice
                .iter()
                .map(|q| file.retrieve_serial(q).unwrap().len() as u64)
                .sum()
        });
    }
    group
}

/// Sharded scatter/gather service throughput (`pmr-net`): a 4-node
/// in-process cluster over the paper's Table 7 system versus the same
/// batch on a single-process resident executor, plus the wire-protocol
/// encode/decode cost in isolation. The cluster and single-process
/// benches answer the identical seeded narrow mix (0–2 unspecified
/// fields — the `pmr loadgen` default workload) and share a checksum,
/// so the `serve/` gate pins both the service's throughput and its
/// bit-equality overhead story.
pub fn serve(opts: &SuiteOpts) -> Group {
    use pmr_net::wire::{decode_message, encode_message, GatherResponse, Message};
    use pmr_net::{loadgen, Cluster, ClusterConfig};

    let mut file = cpu_time_file(opts);
    file.enable_mirroring();
    let sys = file.system().clone();

    let batch = opts.scaled(256, 8);
    let queries = loadgen::query_mix(&sys, batch, pmr_rt::seed_from_env_or(42), 2);
    let policy = ExecPolicy::default();
    let exec = Executor::new(&file, CostModel::main_memory());
    let cluster = Cluster::new(&file, CostModel::main_memory(), ClusterConfig::default());
    let frontend = cluster.frontend();

    // One canned node response for the wire micro-benches: what node 0
    // actually ships back for this batch.
    let yields = exec.execute_planned(
        &queries
            .iter()
            .map(|q| pmr_storage::exec::plan_query(&sys, file.method(), q))
            .collect::<Vec<_>>(),
        &policy,
    );
    let response = Message::Response(GatherResponse {
        request_id: 1,
        node: 0,
        busy_us: 0,
        queries: yields,
        telemetry: None,
    });
    let frame = encode_message(&response);

    let mut group = opts.group("serve");
    if opts.iters.is_none() && std::env::var("PMR_BENCH_ITERS").is_err() {
        group = group.iters(20);
    }
    if opts.warmup.is_none() && std::env::var("PMR_BENCH_WARMUP").is_err() {
        group = group.warmup(2);
    }
    group.bench(&format!("cluster4_batch_{batch}"), || {
        frontend
            .execute_batch(&queries, &policy)
            .iter()
            .map(|r| r.records.len() as u64)
            .sum()
    });
    group.bench(&format!("single_process_batch_{batch}"), || {
        exec.execute_batch(&queries, &policy)
            .iter()
            .map(|r| r.records.len() as u64)
            .sum()
    });
    group.bench(&format!("wire_encode_response_{batch}"), || {
        black_box(encode_message(black_box(&response))).len() as u64
    });
    group.bench(
        &format!("wire_decode_response_{batch}"),
        || match decode_message(black_box(&frame)).unwrap() {
            Message::Response(r) => r.queries.len() as u64,
            _ => unreachable!(),
        },
    );
    // Cluster-telemetry overhead pin: the same scatter/gather batch with
    // tracing off (the production default — telemetry sections absent,
    // frames byte-identical to v1) versus fully on (Memory sink: spans
    // recorded, node telemetry shipped, merged, and absorbed). The
    // `serve/` gate keeps the OFF path within noise of the plain
    // cluster bench — observability must stay free when unused.
    {
        use pmr_rt::obs::{self, TraceConfig};
        group.bench(&format!("obs_overhead_off_{batch}"), || {
            frontend
                .execute_batch(&queries, &policy)
                .iter()
                .map(|r| r.records.len() as u64)
                .sum()
        });
        obs::install(TraceConfig::Memory).expect("memory sink installs");
        group.bench(&format!("obs_overhead_on_{batch}"), || {
            let records = frontend
                .execute_batch(&queries, &policy)
                .iter()
                .map(|r| r.records.len() as u64)
                .sum();
            obs::drain_events();
            records
        });
        obs::install(TraceConfig::Off).expect("off sink installs");
        obs::reset();
    }
    group
}

/// One baseline file of the `bench_all` run: output file name plus the
/// stats of every group it records.
pub struct BaselineFile {
    /// File name (`BENCH_core.json` or `BENCH_exec.json`).
    pub name: &'static str,
    /// All stats, in group order.
    pub stats: Vec<Stats>,
}

/// Runs the full suite and partitions the results into the two baseline
/// files: `BENCH_core.json` (pmr-core kernels: address computation,
/// transforms, inverse mapping, packed-vs-vec) and `BENCH_exec.json`
/// (storage-stack end-to-end: bulk insert, query execution, fast-path
/// dispatch).
pub fn run_all(opts: &SuiteOpts) -> Vec<BaselineFile> {
    let mut core_stats = Vec::new();
    core_stats.extend_from_slice(addr_compute(opts).results());
    for g in transforms(opts) {
        core_stats.extend_from_slice(g.results());
    }
    core_stats.extend_from_slice(inverse_mapping(opts).results());
    core_stats.extend_from_slice(packed_vs_vec(opts).results());
    core_stats.extend_from_slice(ec_codec(opts).results());

    let mut exec_stats = Vec::new();
    exec_stats.extend_from_slice(bulk_insert(opts).results());
    exec_stats.extend_from_slice(query_exec(opts).results());
    exec_stats.extend_from_slice(exec_fast_path(opts).results());
    exec_stats.extend_from_slice(obs_overhead(opts).results());
    exec_stats.extend_from_slice(fault_overhead(opts).results());
    exec_stats.extend_from_slice(read_path(opts).results());
    exec_stats.extend_from_slice(throughput(opts).results());
    exec_stats.extend_from_slice(serve(opts).results());

    vec![
        BaselineFile {
            name: "BENCH_core.json",
            stats: core_stats,
        },
        BaselineFile {
            name: "BENCH_exec.json",
            stats: exec_stats,
        },
    ]
}

/// Writes each baseline file as JSON lines under `dir`. Returns the
/// written paths.
pub fn write_baselines(
    files: &[BaselineFile],
    dir: &Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    let mut written = Vec::new();
    for file in files {
        let path = dir.join(file.name);
        let mut out = std::fs::File::create(&path)?;
        for s in &file.stats {
            writeln!(out, "{}", s.to_json())?;
        }
        written.push(path);
    }
    Ok(written)
}
