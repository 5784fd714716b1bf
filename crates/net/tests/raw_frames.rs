//! Frame equality between a yield's two forms.
//!
//! A node frames its response from [`Executor::execute_planned_raw`]:
//! the stored bytes of every served page, validated but never decoded.
//! The property pins that this frame is byte-identical to
//! `encode_message` over the same yields decoded into records (the
//! record encoding is canonical), and that both decoders read it back —
//! `decode_gather` to the raw yields, `decode_message` to the decoded
//! ones — across every redundancy tier and every fault kind (outage,
//! transient I/O, transient corruption, corruption at rest), and at
//! every chunk count the executor splits its range into. A second
//! property gathers a batch from the frames of a random node partition
//! both ways — raw yields through `merge_raw_yields`, decoded ones
//! through `merge_device_yields` — and pins both to a single-process
//! `Executor::execute_batch`.

use pmr_core::{FxDistribution, PartialMatchQuery, SystemConfig};
use pmr_mkh::{FieldType, Record, Schema, Value};
use pmr_net::wire::{self, GatherResponse, Message, Telemetry};
use pmr_rt::check::Source;
use pmr_rt::fault::{FaultPlan, RetryPolicy};
use pmr_rt::obs::snapshot::MetricsSnapshot;
use pmr_rt::rt_proptest;
use pmr_storage::exec::{
    merge_device_yields, merge_raw_yields, plan_query, DeviceYield, ExecPolicy, ExecutionReport,
    Executor, PlannedQuery, RawYield, Redundancy,
};
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

/// A fault plan drawn from every fault kind, corruption at rest
/// included, installed on `file`.
fn install_faults(src: &mut Source, file: &DeclusteredFile<FxDistribution>) {
    let m = file.system().devices();
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
}

fn redundancy_tier(src: &mut Source) -> Redundancy {
    match src.arm(3) {
        0 => Redundancy::None,
        1 => Redundancy::Mirror,
        _ => Redundancy::Parity { k: 4, r: 2 },
    }
}

fn retrying(src: &mut Source, redundancy: Redundancy) -> ExecPolicy {
    ExecPolicy {
        retry: RetryPolicy {
            max_attempts: 3,
            base_us: 10,
            cap_us: 1_000,
            budget_us: 100_000,
        },
        redundancy: if src.weighted(0.8) {
            redundancy
        } else {
            Redundancy::None
        },
        seed: src.any_u64(),
    }
}

rt_proptest! {
    /// Gathered from node frames, raw ≡ decoded ≡ one process: each node
    /// of a random contiguous partition frames its raw yields; the raw
    /// decode merged through `merge_raw_yields`, the decoded one merged
    /// through `merge_device_yields`, and a single-process batch over
    /// the whole file give equal reports.
    fn raw_gather_matches_decoded_gather_and_one_process(src) {
        let redundancy = redundancy_tier(src);
        let file = build_file(src, redundancy);
        let sys = file.system().clone();
        let m = sys.devices();
        install_faults(src, &file);
        let queries: Vec<PartialMatchQuery> = src.vec_of(1..=6, |s| gen_query(s, &sys));
        let planned: Vec<PlannedQuery> =
            queries.iter().map(|q| plan_query(&sys, file.method(), q)).collect();
        let policy = retrying(src, redundancy);

        let mut cuts = vec![0, m];
        for _ in 0..src.int_in(0, 3) {
            cuts.push(src.int_in(1, m - 1));
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut raw: Vec<Vec<RawYield>> = planned.iter().map(|_| Vec::new()).collect();
        let mut decoded: Vec<Vec<DeviceYield>> = planned.iter().map(|_| Vec::new()).collect();
        for (node, range) in cuts.windows(2).enumerate() {
            let exec = Executor::for_device_range(&file, CostModel::main_memory(), range[0]..range[1]);
            let yields = exec.execute_planned_raw(&planned, &policy);
            let frame = wire::encode_response(7, node as u32, 0, &yields, None);
            let gathered = wire::decode_gather(&frame).expect("a node's frame decodes");
            for (all, q) in raw.iter_mut().zip(gathered.queries) {
                all.extend(q);
            }
            let Ok(Message::Response(resp)) = wire::decode_message(&frame) else {
                panic!("a node's frame decodes to a response");
            };
            for (all, q) in decoded.iter_mut().zip(resp.queries) {
                all.extend(q);
            }
        }
        let from_raw: Vec<ExecutionReport> =
            raw.into_iter().map(|y| merge_raw_yields(y, policy.redundancy)).collect();
        let from_decoded: Vec<ExecutionReport> = decoded
            .into_iter()
            .map(|y| merge_device_yields(y, policy.redundancy))
            .collect();
        let local = Executor::new(&file, CostModel::main_memory()).execute_batch(&queries, &policy);
        assert_eq!(from_raw, from_decoded, "raw and decoded gathers diverged under {redundancy}");
        assert_eq!(from_raw, local, "the gather diverged from one process under {redundancy}");
    }

    /// The node's raw response frame ≡ `encode_message` over the same
    /// yields decoded into records, byte for byte, and each decoder
    /// reads back its own form of the yields.
    fn raw_frame_is_byte_identical_to_decoded_frame(src) {
        let redundancy = redundancy_tier(src);
        let file = build_file(src, redundancy);
        let sys = file.system().clone();
        let m = sys.devices();
        install_faults(src, &file);

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
        let policy = retrying(src, redundancy);
        let telemetry = src.weighted(0.3).then(|| {
            let mut metrics = MetricsSnapshot::default();
            metrics.add_counter("records", src.any_u64());
            Telemetry { span_id: src.any_u64(), metrics }
        });

        let raw = exec.execute_planned_raw(&planned, &policy);
        let again = exec.execute_planned_raw(&planned, &policy);
        assert_eq!(raw, again, "the read path is deterministic");
        let one_chunk = Executor::for_device_range(&file, CostModel::main_memory(), start..end)
            .with_chunks(1);
        assert_eq!(
            one_chunk.execute_planned_raw(&planned, &policy),
            raw,
            "{chunks} chunks diverged from one"
        );
        let decoded: Vec<Vec<DeviceYield>> = raw
            .iter()
            .map(|yields| yields.iter().cloned().map(DeviceYield::from).collect())
            .collect();
        for (yields, decoded) in raw.iter().zip(&decoded) {
            let back: Vec<RawYield> = decoded.iter().cloned().map(RawYield::from).collect();
            assert_eq!(&back, yields, "re-encoding the records gives back the region");
        }

        let (request_id, busy_us) = (src.any_u64(), src.any_u64());
        let node = src.u32_in(0..=7);
        let want = wire::encode_message(&Message::Response(GatherResponse {
            request_id,
            node,
            busy_us,
            queries: decoded.clone(),
            telemetry: telemetry.clone(),
        }));
        let got = wire::encode_response(request_id, node, busy_us, &raw, telemetry.as_ref());
        assert_eq!(got, want, "raw frame diverged under {redundancy}, {chunks} chunks");
        let gathered = wire::decode_gather(&got).expect("a node's frame decodes");
        assert_eq!(gathered.queries, raw);
        assert_eq!(gathered.telemetry, telemetry);
        match wire::decode_message(&got) {
            Ok(Message::Response(resp)) => assert_eq!(resp.queries, decoded),
            other => panic!("a response frame decoded to {other:?}"),
        }
    }
}
