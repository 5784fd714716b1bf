//! Smoke-runs the full `bench_all` suite in fast mode on every
//! `cargo test`: each group executes end-to-end with tiny workloads, the
//! emitted stats round-trip through the JSON-lines format, and every
//! expected `group/name` pair is present. This keeps the bench binaries
//! from rotting between (manual) baseline runs.

use pmr_bench::suite::{run_all, write_baselines, SuiteOpts};

/// The `pmr loadgen --check` replay contract, in-process: a 4-node
/// cluster answers a seeded query mix with the same order-independent
/// checksum as the single-process batch executor over the same queries.
#[test]
fn loadgen_replay_checksum_matches_single_process() {
    use pmr_core::{FxDistribution, SystemConfig};
    use pmr_mkh::{Record, Schema, Value};
    use pmr_net::loadgen::{self, LoadgenOpts};
    use pmr_net::{Cluster, ClusterConfig};
    use pmr_storage::exec::{ExecPolicy, Executor};
    use pmr_storage::{CostModel, DeclusteredFile};

    let sys = SystemConfig::new(&[4; 4], 8).unwrap();
    let schema = Schema::ints(&sys);
    let mut file =
        DeclusteredFile::new(schema, FxDistribution::auto(sys.clone()).unwrap(), 7).unwrap();
    file.enable_mirroring();
    for i in 0..400i64 {
        let values: Vec<Value> = (0..sys.num_fields())
            .map(|f| Value::Int(i * 37 + f as i64))
            .collect();
        file.insert(Record::new(values)).unwrap();
    }

    let exec = Executor::new(&file, CostModel::main_memory());
    let cluster = Cluster::new(&file, CostModel::main_memory(), ClusterConfig::default());
    let queries = loadgen::query_mix(&sys, 32, 7, 2);
    let policy = ExecPolicy::default();
    let opts = LoadgenOpts {
        concurrency: 2,
        batch: 8,
        kill: None,
        watch: None,
    };
    let gathered = loadgen::run(
        &cluster,
        queries.len(),
        |j| queries[j].clone(),
        &policy,
        &opts,
    )
    .checksum;
    let local = exec.execute_batch(&queries, &policy);
    assert_eq!(
        gathered,
        loadgen::reports_checksum(0, &local),
        "cluster run diverged from single-process"
    );
}

/// Minimal JSON-lines sanity check: one object per line with the fields
/// the `pmr_rt::bench::Stats::to_json` schema promises. (No JSON parser
/// in-tree; the format is flat and machine-written, so field probes are
/// exact.)
fn assert_json_line(line: &str) {
    assert!(
        line.starts_with("{\"bench\":\""),
        "not a stats object: {line}"
    );
    assert!(line.ends_with('}'), "unterminated object: {line}");
    for key in [
        "\"bench\":",
        "\"iters\":",
        "\"median_ns\":",
        "\"p95_ns\":",
        "\"mean_ns\":",
        "\"min_ns\":",
        "\"max_ns\":",
        "\"checksum\":",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
}

#[test]
fn bench_all_fast_mode_produces_every_group() {
    let files = run_all(&SuiteOpts::smoke());
    assert_eq!(files.len(), 2);
    assert_eq!(files[0].name, "BENCH_core.json");
    assert_eq!(files[1].name, "BENCH_exec.json");

    let expected_core = [
        "addr_compute/modulo",
        "addr_compute/gdm1",
        "addr_compute/fx_basic",
        "addr_compute/fx_iu1",
        "addr_compute/fx_iu2",
        "addr_compute/random",
        "addr_compute/batched_modulo",
        "addr_compute/batched_gdm1",
        "addr_compute/batched_fx_basic",
        "addr_compute/batched_fx_iu1",
        "addr_compute/batched_fx_iu2",
        "transform_apply/identity",
        "transform_apply/u",
        "transform_apply/iu1",
        "transform_apply/iu2",
        "packed_vs_vec/vec_scan_all_devices",
        "packed_vs_vec/packed_scan_all_devices",
        "packed_vs_vec/packed_fx_fast_all_devices",
        "ec/parity_4_2",
        "ec/interpolate_4_2",
        "ec/crc32_page",
        "ec/crc32_4k",
    ];
    let expected_exec = [
        "bulk_insert/fx_auto",
        "bulk_insert/modulo",
        "bulk_insert/batched",
        "bulk_insert/parity_4_2",
        "query_exec/fx_generic_executor",
        "query_exec/fx_fast_executor",
        "query_exec/modulo_generic_executor",
        "query_exec/fx_serial_reference",
        "exec_fast_path/dispatch_narrow",
        "exec_fast_path/scan_narrow",
        "exec_fast_path/dispatch_wide",
        "exec_fast_path/scan_wide",
        "obs_overhead/atomic_load_floor",
        "obs_overhead/span_disabled",
        "obs_overhead/counter_disabled",
        "obs_overhead/span_enabled_memory",
        "obs_overhead/counter_enabled_memory",
        "fault_overhead/read_attempt_no_plan",
        "fault_overhead/read_attempt_plan_installed",
        "fault_overhead/strict_dispatch",
        "fault_overhead/policy_no_faults",
        "fault_overhead/read_parity_no_fault",
        "fault_overhead/read_parity_degraded",
        "read_path/decode",
        "read_path/raw_share",
        "throughput/resident_batch_1",
        "throughput/per_query_1",
        "throughput/serial_1",
        "throughput/resident_batch_16",
        "throughput/per_query_16",
        "throughput/serial_16",
        "throughput/resident_batch_256",
        "throughput/per_query_256",
        "throughput/serial_256",
        // smoke mode scales the serve batch from 256 down to 8
        "serve/cluster4_batch_8",
        "serve/single_process_batch_8",
        "serve/wire_encode_response_8",
        "serve/wire_decode_response_8",
        "serve/wire_gather_response_8",
        "serve/obs_overhead_off_8",
        "serve/obs_overhead_on_8",
    ];
    for (file, expected) in files.iter().zip([&expected_core[..], &expected_exec[..]]) {
        let names: Vec<&str> = file.stats.iter().map(|s| s.bench.as_str()).collect();
        assert_eq!(names, expected.to_vec(), "{} group set changed", file.name);
        for s in &file.stats {
            assert_json_line(&s.to_json());
            assert!(s.median_ns.is_finite() && s.median_ns >= 0.0);
        }
    }

    // Every batched addr_compute bench checksums identically to its
    // scalar counterpart: the lane kernels are bit-equal to the per-record
    // path (ISSUE: batched address computation changes no placements).
    let core = |name: &str| -> u64 {
        files[0]
            .stats
            .iter()
            .find(|s| s.bench == format!("addr_compute/{name}"))
            .expect("group present")
            .checksum
    };
    for pair in ["modulo", "gdm1", "fx_basic", "fx_iu1", "fx_iu2"] {
        assert_eq!(
            core(pair),
            core(&format!("batched_{pair}")),
            "addr_compute/{pair}"
        );
    }

    // The streaming batched bulk insert places every record exactly where
    // the serial path does: identical occupancy checksum.
    let bi = |name: &str| -> u64 {
        files[1]
            .stats
            .iter()
            .find(|s| s.bench == format!("bulk_insert/{name}"))
            .expect("group present")
            .checksum
    };
    assert_eq!(bi("batched"), bi("fx_auto"));
    // The parity ingest row inserts its 256 records, none lost.
    assert_eq!(bi("parity_4_2"), 256);

    // All three packed_vs_vec variants count the same qualified buckets.
    let pvv: Vec<u64> = files[0]
        .stats
        .iter()
        .filter(|s| s.bench.starts_with("packed_vs_vec/"))
        .map(|s| s.checksum)
        .collect();
    assert_eq!(pvv, vec![512, 512, 512]);

    // The fault hook without a plan is a pure pass-through, and the
    // fault-aware executor without faults reproduces the strict
    // dispatcher (ISSUE: disabled faults change nothing).
    let fo = |name: &str| -> u64 {
        files[1]
            .stats
            .iter()
            .find(|s| s.bench == format!("fault_overhead/{name}"))
            .expect("group present")
            .checksum
    };
    let decode = files[1]
        .stats
        .iter()
        .find(|s| s.bench == "read_path/decode")
        .expect("group present")
        .checksum;
    assert_eq!(decode, fo("read_attempt_no_plan"));
    assert_eq!(fo("strict_dispatch"), fo("policy_no_faults"));
    // A parity-protected file without faults answers identically to the
    // unprotected one (ISSUE: parity never changes fault-free results).
    assert_eq!(fo("policy_no_faults"), fo("read_parity_no_fault"));

    // A 4+2 stripe's parity is r = 2 shards, each as long as the one
    // data shard an interpolation rebuilds.
    let ec = |name: &str| -> u64 {
        files[0]
            .stats
            .iter()
            .find(|s| s.bench == format!("ec/{name}"))
            .expect("group present")
            .checksum
    };
    assert_eq!(ec("parity_4_2"), 2 * ec("interpolate_4_2"));
    // The CRC rows checksum the CRC of the bytes they hash.
    let stripe: Vec<u8> = (0..4096).map(|i| (i * 31 % 251) as u8).collect();
    assert_eq!(
        ec("crc32_page"),
        u64::from(pmr_rt::ec::crc32(&stripe[..55]))
    );
    assert_eq!(ec("crc32_4k"), u64::from(pmr_rt::ec::crc32(&stripe)));

    // At each batch size the resident batch, per-query, and serial
    // throughput variants answer the same queries: identical record
    // totals (ISSUE: batch path is a pure throughput optimisation).
    let tp = |name: &str| -> u64 {
        files[1]
            .stats
            .iter()
            .find(|s| s.bench == format!("throughput/{name}"))
            .expect("group present")
            .checksum
    };
    for batch in [1, 16, 256] {
        let resident = tp(&format!("resident_batch_{batch}"));
        assert_eq!(resident, tp(&format!("per_query_{batch}")), "batch {batch}");
        assert_eq!(resident, tp(&format!("serial_{batch}")), "batch {batch}");
    }

    // The 4-node cluster gathers bit-equal results to the single-process
    // executor on the same batch (ISSUE: the wire adds zero drift).
    let sv = |name: &str| -> u64 {
        files[1]
            .stats
            .iter()
            .find(|s| s.bench == format!("serve/{name}"))
            .expect("group present")
            .checksum
    };
    assert_eq!(sv("cluster4_batch_8"), sv("single_process_batch_8"));

    // Cluster telemetry changes what's OBSERVED, never what's ANSWERED:
    // the serve path returns identical records with tracing off and
    // fully on (ISSUE: obs-enabled vs disabled is overhead, not drift).
    assert_eq!(sv("obs_overhead_off_8"), sv("cluster4_batch_8"));
    assert_eq!(sv("obs_overhead_on_8"), sv("cluster4_batch_8"));

    // Baseline files write as valid JSON lines.
    let dir = std::env::temp_dir().join("pmr_bench_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let written = write_baselines(&files, &dir).unwrap();
    assert_eq!(written.len(), 2);
    for path in written {
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert!(!lines.is_empty());
        for line in lines {
            assert_json_line(line);
        }
    }
}
