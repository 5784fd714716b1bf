//! Frame equality between a node's two yield paths.
//!
//! A node frames its response from [`Executor::execute_planned_raw`]:
//! the stored bytes of every served page, validated but never decoded.
//! The property pins that this frame is byte-identical to
//! `encode_message` over the decoded yields of the same planned batch,
//! across every redundancy tier, every fault kind (outage, transient
//! I/O, transient corruption, corruption at rest) and the page cache on
//! or off, and at every chunk count the executor splits its range
//! into — so the frontend cannot tell the paths apart.

use pmr_core::{FxDistribution, PartialMatchQuery, SystemConfig};
use pmr_mkh::{FieldType, Record, Schema, Value};
use pmr_net::wire::{self, GatherResponse, Message, Telemetry};
use pmr_rt::check::Source;
use pmr_rt::fault::{FaultPlan, RetryPolicy};
use pmr_rt::obs::snapshot::MetricsSnapshot;
use pmr_rt::rt_proptest;
use pmr_storage::exec::{plan_query, ExecPolicy, Executor, PlannedQuery, Redundancy};
use pmr_storage::{CostModel, DeclusteredFile};
use std::sync::Arc;

/// Four fields (an int, a string, a byte string, an int) over M = 8
/// devices, so records exercise every value tag of the page format.
fn system() -> SystemConfig {
    SystemConfig::new(&[4, 4, 4, 2], 8).expect("system is valid")
}

fn build_file(src: &mut Source, redundancy: Redundancy) -> DeclusteredFile<FxDistribution> {
    let sys = system();
    let schema = Schema::builder()
        .field("id", FieldType::Int, 4)
        .field("name", FieldType::Str, 4)
        .field("blob", FieldType::Bytes, 4)
        .field("flag", FieldType::Int, 2)
        .devices(sys.devices())
        .build()
        .expect("schema is valid");
    let fx = FxDistribution::auto(sys).expect("auto always assigns");
    let mut file = DeclusteredFile::new(schema, fx, src.any_u64()).expect("schema matches");
    if redundancy == Redundancy::Mirror {
        assert!(file.enable_mirroring());
    }
    let records = src.int_in(0, 300);
    for i in 0..records as i64 {
        let name = src.string_of('a'..='é', 0..=6);
        let blob = src.vec_of(0..=5, |s| s.any_u8());
        file.insert(Record::new(vec![
            Value::Int(i * 37),
            Value::Str(name),
            Value::Bytes(blob),
            Value::Int(i % 2),
        ]))
        .expect("records type-check");
    }
    if let Redundancy::Parity { k, r } = redundancy {
        assert!(file.enable_parity(k as usize, r as usize));
    }
    file
}

fn gen_query(src: &mut Source, sys: &SystemConfig) -> PartialMatchQuery {
    let values: Vec<Option<u64>> = (0..sys.num_fields())
        .map(|i| {
            src.weighted(0.5)
                .then(|| src.int_in(0, sys.field_size(i) - 1))
        })
        .collect();
    PartialMatchQuery::new(sys, &values).expect("values in range")
}

rt_proptest! {
    /// The node's raw-path response frame ≡ `encode_message` over the
    /// decoded-path yields of the same planned batch, byte for byte.
    fn raw_frame_is_byte_identical_to_decoded_frame(src) {
        let redundancy = match src.arm(3) {
            0 => Redundancy::None,
            1 => Redundancy::Mirror,
            _ => Redundancy::Parity { k: 4, r: 2 },
        };
        let file = build_file(src, redundancy);
        let sys = file.system().clone();
        let m = sys.devices();

        let mut plan = FaultPlan::new(src.any_u64());
        if src.weighted(0.5) {
            plan = plan.with_dead_device(src.int_in(0, m - 1));
        }
        if src.weighted(0.5) {
            plan = plan.with_read_error(src.f64_in(0.0, 0.4));
        }
        if src.weighted(0.5) {
            plan = plan.with_corruption(src.f64_in(0.0, 0.4));
        }
        if src.weighted(0.3) {
            plan = plan.with_latency(0.2, 10, 500);
        }
        file.install_fault_plan(Some(Arc::new(plan)));
        if src.weighted(0.5) {
            // Corruption at rest: garbage under one resident primary page.
            let dev = &file.devices()[src.int_in(0, m - 1) as usize];
            let resident = dev.resident_buckets();
            if !resident.is_empty() {
                let bucket = resident[src.usize_in(0..=resident.len() - 1)];
                let garbage = src.vec_of(1..=12, |s| s.any_u8());
                dev.inject_corruption(bucket, &garbage);
            }
        }
        file.set_cache_capacity(if src.weighted(0.5) { 0 } else { 64 });

        let start = src.int_in(0, m - 1);
        let end = src.int_in(start + 1, m);
        // Every chunk count the executor can split the range into: one
        // chunk, two, three, one per device.
        let chunks = [1, 2, 3, (end - start) as usize][src.arm(4)];
        let exec = Executor::for_device_range(&file, CostModel::main_memory(), start..end)
            .with_chunks(chunks);
        let planned: Vec<PlannedQuery> = src
            .vec_of(1..=6, |s| gen_query(s, &sys))
            .iter()
            .map(|q| plan_query(&sys, file.method(), q))
            .collect();
        let policy = ExecPolicy {
            retry: RetryPolicy { max_attempts: 3, base_us: 10, cap_us: 1_000, budget_us: 100_000 },
            redundancy: if src.weighted(0.8) { redundancy } else { Redundancy::None },
            seed: src.any_u64(),
        };
        let telemetry = src.weighted(0.3).then(|| {
            let mut metrics = MetricsSnapshot::default();
            metrics.add_counter("records", src.any_u64());
            Telemetry { span_id: src.any_u64(), metrics }
        });

        // Decoded path twice (the second run may read through a warm
        // cache), raw path in between: all three see the same faults.
        let decoded = exec.execute_planned(&planned, &policy);
        let raw = exec.execute_planned_raw(&planned, &policy);
        let warm = exec.execute_planned(&planned, &policy);
        assert_eq!(decoded, warm, "decoded path is deterministic");
        let one_chunk = Executor::for_device_range(&file, CostModel::main_memory(), start..end)
            .with_chunks(1);
        assert_eq!(
            one_chunk.execute_planned(&planned, &policy),
            decoded,
            "{chunks} chunks diverged from one"
        );

        let (request_id, busy_us) = (src.any_u64(), src.any_u64());
        let node = src.u32_in(0..=7);
        let want = wire::encode_message(&Message::Response(GatherResponse {
            request_id,
            node,
            busy_us,
            queries: decoded,
            telemetry: telemetry.clone(),
        }));
        let got = wire::encode_response(request_id, node, busy_us, &raw, telemetry.as_ref());
        assert_eq!(got, want, "raw frame diverged under {redundancy}, {chunks} chunks");
    }
}
