//! The observability contract, end to end through the storage stack:
//!
//! 1. With tracing off, an executor run records **zero** events — the
//!    disabled path is inert, not merely unflushed.
//! 2. With tracing on, `execute_parallel` emits exactly one
//!    `exec.device` span per device, each tagged with a distinct device.
//! 3. A file-sink trace round-trips: the JSON lines parse through the
//!    same aggregator `pmr stats` uses, and the aggregate agrees with
//!    the report's own `TraceSummary`.
//!
//! The obs layer is global process state, so every test takes `lock()`.

use pmr_mkh::{FieldType, Record, Schema, Value};
use pmr_net::{loadgen, Cluster, ClusterConfig, FrontendConfig};
use pmr_rt::obs::{self, agg::TraceStats, Event, TraceConfig};
use pmr_storage::exec::{execute_parallel, plan_query, route_planned, ExecPolicy};
use pmr_storage::{CostModel, DeclusteredFile};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const DEVICES: u64 = 8;

/// A small FX-declustered file: 3 fields over 8 devices, 600 records.
fn fixture() -> DeclusteredFile<pmr_core::FxDistribution> {
    let schema = Schema::builder()
        .field("a", FieldType::Int, 16)
        .field("b", FieldType::Int, 8)
        .field("c", FieldType::Int, 8)
        .devices(DEVICES)
        .build()
        .unwrap();
    let sys = schema.system().clone();
    let fx = pmr_core::FxDistribution::auto(sys).unwrap();
    let mut file = DeclusteredFile::new(schema, fx, 5).unwrap();
    let records: Vec<Record> = (0..600)
        .map(|i| {
            Record::new(vec![
                Value::Int(i),
                Value::Int(i * 17 % 101),
                Value::Int(i * 29 % 53),
            ])
        })
        .collect();
    file.insert_all(records).unwrap();
    file
}

#[test]
fn disabled_tracing_records_zero_events() {
    let _guard = lock();
    obs::install(TraceConfig::Off).unwrap();
    obs::reset();

    let file = fixture();
    let query = file.query(&[("b", Value::Int(7))]).unwrap();
    let report = execute_parallel(&file, &query, &CostModel::main_memory()).unwrap();

    assert!(report.trace.is_none(), "no capture when tracing is off");
    assert_eq!(obs::spans_recorded(), 0, "no spans recorded");
    assert!(obs::counters_snapshot().is_empty(), "no counters touched");
    assert!(obs::drain_events().is_empty(), "no events emitted");
    assert!(report.largest_response > 0, "the run itself still works");
}

/// The batched-dispatch counters: a traced `insert_all_parallel` records
/// every record under `insert.batched_records` and at least one
/// `addr.batch_calls` per routed chunk, so `pmr stats` can show the
/// batched vs scalar dispatch mix.
#[test]
fn batched_insert_counters_record_dispatch_mix() {
    let _guard = lock();
    obs::install(TraceConfig::Memory).unwrap();
    obs::reset();
    obs::drain_events();

    let schema = Schema::builder()
        .field("a", FieldType::Int, 16)
        .field("b", FieldType::Int, 8)
        .field("c", FieldType::Int, 8)
        .devices(DEVICES)
        .build()
        .unwrap();
    let fx = pmr_core::FxDistribution::auto(schema.system().clone()).unwrap();
    let mut file = DeclusteredFile::new(schema, fx, 5).unwrap();
    let records: Vec<Record> = (0..600)
        .map(|i| {
            Record::new(vec![
                Value::Int(i),
                Value::Int(i * 17 % 101),
                Value::Int(i * 29 % 53),
            ])
        })
        .collect();
    file.insert_all_parallel(records).unwrap();

    let batched = obs::INSERT_BATCHED_RECORDS.total();
    let calls = obs::ADDR_BATCH_CALLS.total();
    obs::install(TraceConfig::Off).unwrap();
    obs::reset();

    assert_eq!(batched, 600, "every record routed through the batched path");
    assert!(
        calls >= 1,
        "each routed chunk counts one device_of_batch call"
    );
}

#[test]
fn traced_run_emits_one_device_span_per_device() {
    let _guard = lock();
    obs::install(TraceConfig::Memory).unwrap();
    obs::reset();
    obs::drain_events();

    let file = fixture();
    let query = file.query(&[("b", Value::Int(7))]).unwrap();
    let report = execute_parallel(&file, &query, &CostModel::main_memory()).unwrap();
    let events = obs::drain_events();
    obs::install(TraceConfig::Off).unwrap();
    obs::reset();

    let device_spans: Vec<&obs::SpanEvent> = events
        .iter()
        .filter_map(|e| match e {
            Event::Span(s) if s.name == "exec.device" => Some(s),
            _ => None,
        })
        .collect();
    assert_eq!(
        device_spans.len() as u64,
        DEVICES,
        "one exec.device span per device"
    );

    let mut devices: Vec<u64> = device_spans
        .iter()
        .map(|s| {
            s.attrs
                .iter()
                .find(|(k, _)| k == "device")
                .expect("exec.device span carries a device attr")
                .1
        })
        .collect();
    devices.sort_unstable();
    assert_eq!(
        devices,
        (0..DEVICES).collect::<Vec<u64>>(),
        "each device exactly once"
    );

    // The report's summary saw the same run.
    let trace = report.trace.expect("capture attached while tracing");
    assert!(
        trace.spans >= DEVICES,
        "summary counts at least the device spans"
    );
    assert_eq!(trace.counter(&obs::EXEC_FAST_PATH_DISPATCHED), 1);
    assert!(trace.counter(&obs::EXEC_ADDRESSES_COMPUTED) > 0);
}

#[test]
fn file_trace_round_trips_through_the_aggregator() {
    let _guard = lock();
    let path = std::env::temp_dir().join(format!("pmr-obs-contract-{}.jsonl", std::process::id()));
    obs::install(TraceConfig::File(path.clone())).unwrap();
    obs::reset();

    let file = fixture();
    let query = file.query(&[("b", Value::Int(7))]).unwrap();
    let report = execute_parallel(&file, &query, &CostModel::main_memory()).unwrap();
    obs::flush();
    obs::install(TraceConfig::Off).unwrap();
    obs::reset();

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let stats = TraceStats::from_lines(&text).expect("trace file parses");

    // Per-device aggregation matches the executor's fan-out.
    let per_device: Vec<u64> = stats
        .by_device
        .keys()
        .filter(|(name, _)| name == "exec.device")
        .map(|&(_, device)| device)
        .collect();
    assert_eq!(per_device, (0..DEVICES).collect::<Vec<u64>>());
    let exec_device = stats
        .spans
        .get("exec.device")
        .expect("exec.device aggregated");
    assert_eq!(exec_device.count, DEVICES);

    // Flushed counter totals agree with the report's own summary.
    let trace = report.trace.expect("capture attached while tracing");
    for counter in [
        &obs::EXEC_FAST_PATH_DISPATCHED,
        &obs::EXEC_ADDRESSES_COMPUTED,
        &obs::EXEC_QUALIFIED_BUCKETS,
    ] {
        let name = counter.name();
        assert_eq!(
            stats.counters.get(name).copied().unwrap_or(0),
            trace.counter(counter),
            "counter {name} must round-trip"
        );
    }
    // The file carries every span the summary counted (plus the
    // enclosing exec.query span, which closes after the capture).
    let file_spans: u64 = stats.spans.values().map(|s| s.count).sum();
    assert!(
        file_spans >= trace.spans,
        "{file_spans} file spans < {} summary",
        trace.spans
    );
}

// -----------------------------------------------------------------
// Cluster telemetry contract: the `net.*` counters and the merged
// `node{N}.*` names, end to end through the v1.1 wire protocol.
// -----------------------------------------------------------------

/// A healthy traced cluster round-trip: every scatter is answered, the
/// frontend's `net.*` counters balance, each node's shipped telemetry
/// lands under its `node{N}.` prefix, and the merged per-node `busy_us`
/// histograms reconcile bucket-for-bucket with the frontend's own
/// `net.node_rt_us` observations — both sides bucket the identical wire
/// value with the identical bounds. Scatter is targeted: a node is asked
/// exactly the queries with a qualified bucket in its device range,
/// counted here independently by routing each query over each range.
#[test]
fn cluster_round_trip_merges_node_telemetry() {
    let _guard = lock();
    obs::install(TraceConfig::Memory).unwrap();
    obs::reset();
    obs::drain_events();

    let file = fixture();
    let cluster = Cluster::new(&file, CostModel::main_memory(), ClusterConfig::default());
    let sys = file.system().clone();
    let policy = ExecPolicy::default();
    let queries = loadgen::query_mix(&sys, 3, 3, 2);
    let batches = 4u64;
    let nodes = cluster.nodes() as u64;
    // Per node, how many of the batch's queries own a bucket in its range.
    let asked: Vec<u64> = pmr_net::partition::contiguous(DEVICES, cluster.nodes())
        .into_iter()
        .map(|range| {
            let mut codes = vec![Vec::new(); (range.end - range.start) as usize];
            queries
                .iter()
                .filter(|q| {
                    let planned = plan_query(&sys, file.method(), q);
                    route_planned(&sys, file.method(), &planned, range.clone(), &mut codes);
                    codes.iter().any(|c| !c.is_empty())
                })
                .count() as u64
        })
        .collect();
    let scattered_nodes = asked.iter().filter(|&&a| a > 0).count() as u64;
    for _ in 0..batches {
        let _ = cluster.frontend().execute_batch(&queries, &policy);
    }

    let attribution = cluster.frontend().attribution();
    let requests = obs::NET_REQUESTS.total();
    let responses = obs::NET_RESPONSES.total();
    let timeouts = obs::NET_TIMEOUTS.total();
    let late = obs::NET_LATE_RESPONSES.total();
    let node_decode_errors = obs::NET_NODE_DECODE_ERRORS.total();
    let frontend_rt = obs::histogram_counts("net.node_rt_us").expect("frontend hist exists");
    let merged: Vec<(u64, u64, Option<Vec<u64>>)> = (0..nodes)
        .map(|i| {
            (
                obs::counter_total(&format!("node{i}.requests")),
                obs::counter_total(&format!("node{i}.queries")),
                obs::histogram_counts(&format!("node{i}.busy_us")).map(|(_, c)| c),
            )
        })
        .collect();
    drop(cluster);
    obs::install(TraceConfig::Off).unwrap();
    obs::reset();

    assert_eq!(
        requests,
        batches * scattered_nodes,
        "one scatter per batch to each node the batch touches"
    );
    assert_eq!(
        responses, requests,
        "a healthy cluster answers every scatter"
    );
    assert_eq!(timeouts, 0);
    assert_eq!(late, 0);
    assert_eq!(node_decode_errors, 0);

    let mut merged_busy_total = vec![0u64; frontend_rt.1.len()];
    for (i, (node_requests, node_queries, busy)) in merged.iter().enumerate() {
        let node_batches = if asked[i] > 0 { batches } else { 0 };
        assert_eq!(
            *node_requests, node_batches,
            "node{i}.requests counts its scatters"
        );
        assert_eq!(*node_queries, batches * asked[i], "node{i}.queries");
        if node_batches == 0 {
            assert!(busy.is_none(), "node{i} was never asked");
            assert_eq!(attribution[i].responses, 0);
            continue;
        }
        let busy = busy
            .as_ref()
            .unwrap_or_else(|| panic!("node{i}.busy_us hist merged"));
        assert_eq!(
            busy.iter().sum::<u64>(),
            node_batches,
            "one busy_us sample per response"
        );
        // The merged wire histogram IS the frontend's local attribution
        // histogram: same value, same bounds, bucket for bucket.
        assert_eq!(
            busy, &attribution[i].busy_hist,
            "node{i} busy_us reconciles"
        );
        assert_eq!(attribution[i].merged_requests, node_batches);
        for (acc, b) in merged_busy_total.iter_mut().zip(busy) {
            *acc += b;
        }
    }
    assert_eq!(
        merged_busy_total, frontend_rt.1,
        "summed node{{N}}.busy_us must equal the frontend's net.node_rt_us histogram"
    );
}

/// `net.request_bytes` counts the scatter frames actually sent. A batch
/// of exact-match queries (each on one device, so one node) sends less
/// than one whole-batch frame per node; a batch of full scans touches
/// every node, so each node gets the whole-batch frame, byte for byte.
/// `net.response_bytes` counts the gathered frames.
#[test]
fn request_bytes_follow_targeted_scatter() {
    use pmr_net::wire::{
        encode_message, Message, ScatterRequest, TraceContext, WirePolicy, WireQuery,
    };

    let _guard = lock();
    let file = fixture();
    let cluster = Cluster::new(&file, CostModel::main_memory(), ClusterConfig::default());
    let sys = file.system().clone();
    let nodes = cluster.nodes() as u64;
    let policy = ExecPolicy::default();
    let exact: Vec<_> = (0..8i64)
        .map(|i| {
            file.query(&[
                ("a", Value::Int(i)),
                ("b", Value::Int(i * 3)),
                ("c", Value::Int(i * 5)),
            ])
            .unwrap()
        })
        .collect();
    let scans = vec![file.query(&[]).unwrap(); 2];

    let sent = |queries: &[pmr_core::PartialMatchQuery]| {
        obs::install(TraceConfig::Memory).unwrap();
        obs::reset();
        let _ = cluster.frontend().execute_batch(queries, &policy);
        let bytes = (
            obs::NET_REQUEST_BYTES.total(),
            obs::NET_RESPONSE_BYTES.total(),
        );
        obs::install(TraceConfig::Off).unwrap();
        obs::reset();
        // A traced scatter carries a fixed-size trace context; its ids do
        // not change the frame length.
        let whole = encode_message(&Message::Request(ScatterRequest {
            request_id: 1,
            policy: WirePolicy::from_policy(&policy),
            queries: queries
                .iter()
                .map(|q| WireQuery::from_planned(&plan_query(&sys, file.method(), q)))
                .collect(),
            trace: Some(TraceContext {
                trace_id: 1,
                parent_span: 1,
            }),
        }));
        (bytes, whole.len() as u64)
    };

    let ((exact_sent, exact_gathered), exact_frame) = sent(&exact);
    assert!(exact_gathered > 0, "responses are counted");
    assert!(
        exact_sent < nodes * exact_frame,
        "exact matches: {exact_sent} bytes sent, broadcast would send {}",
        nodes * exact_frame
    );
    let ((scan_sent, scan_gathered), scan_frame) = sent(&scans);
    assert!(scan_gathered > 0, "responses are counted");
    assert_eq!(
        scan_sent,
        nodes * scan_frame,
        "full scans touch every node: each gets the whole batch"
    );
}

/// A killed node under a short deadline surfaces as `net.timeouts` (and
/// eventually `net.late_responses` never fires — the node is silent);
/// the frontend keeps answering and the counters say why coverage fell.
#[test]
fn killed_node_counts_timeouts() {
    let _guard = lock();
    obs::install(TraceConfig::Memory).unwrap();
    obs::reset();
    obs::drain_events();

    let file = fixture();
    let cfg = ClusterConfig {
        nodes: 2,
        frontend: FrontendConfig {
            deadline: Duration::from_millis(40),
            down_after: 0,
        },
        net_faults: None,
    };
    let cluster = Cluster::new(&file, CostModel::main_memory(), cfg);
    let queries = loadgen::query_mix(&file.system().clone(), 2, 9, 2);
    cluster.kill_node(1);
    let _ = cluster
        .frontend()
        .execute_batch(&queries, &ExecPolicy::default());

    let timeouts = obs::NET_TIMEOUTS.total();
    let responses = obs::NET_RESPONSES.total();
    let merged_dead = obs::counter_total("node1.requests");
    drop(cluster);
    obs::install(TraceConfig::Off).unwrap();
    obs::reset();

    assert!(timeouts >= 1, "the killed node must cost a gather deadline");
    assert!(responses >= 1, "the surviving node still answers");
    assert_eq!(merged_dead, 0, "a silent node ships no telemetry to merge");
}

/// A frame the node cannot decode bumps `net.node.decode_errors` — the
/// node-side counter rides the shared registry, so a `pmr stats` over a
/// node trace explains every dropped frame.
#[test]
fn undecodable_frame_counts_a_node_decode_error() {
    use pmr_net::transport::mem_pair;
    use pmr_net::wire::{encode_message, Message};
    use pmr_storage::exec::Executor;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let _guard = lock();
    obs::install(TraceConfig::Memory).unwrap();
    obs::reset();
    obs::drain_events();

    let file = fixture();
    let exec = Executor::new(&file, CostModel::main_memory());
    let (mut frontend_end, node_end) = mem_pair();
    let handle = pmr_net::node::spawn(
        0,
        file.system().clone(),
        exec,
        node_end,
        Arc::new(AtomicBool::new(false)),
        None,
    );
    frontend_end
        .tx
        .send_frame(b"definitely not a PMRN frame")
        .unwrap();
    frontend_end
        .tx
        .send_frame(&encode_message(&Message::Shutdown))
        .unwrap();
    handle.join().unwrap();

    let decode_errors = obs::NET_NODE_DECODE_ERRORS.total();
    obs::install(TraceConfig::Off).unwrap();
    obs::reset();
    assert_eq!(
        decode_errors, 1,
        "one garbage frame, one counted decode error"
    );
}

/// With a zero gather deadline every response arrives after its request
/// was abandoned: the collector counts them as `net.late_responses`
/// instead of silently dropping evidence.
#[test]
fn abandoned_responses_count_as_late() {
    let _guard = lock();
    obs::install(TraceConfig::Memory).unwrap();
    obs::reset();
    obs::drain_events();

    let file = fixture();
    let cfg = ClusterConfig {
        nodes: 2,
        frontend: FrontendConfig {
            deadline: Duration::ZERO,
            down_after: 0,
        },
        net_faults: None,
    };
    let cluster = Cluster::new(&file, CostModel::main_memory(), cfg);
    let queries = loadgen::query_mix(&file.system().clone(), 2, 9, 2);
    let _ = cluster
        .frontend()
        .execute_batch(&queries, &ExecPolicy::default());

    // The nodes still execute and answer; give the collectors a moment
    // to route the now-orphaned responses before reading the counter.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut late = obs::NET_LATE_RESPONSES.total();
    while late == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        late = obs::NET_LATE_RESPONSES.total();
    }
    drop(cluster);
    obs::install(TraceConfig::Off).unwrap();
    obs::reset();
    assert!(
        late >= 1,
        "an orphaned response must be counted, not vanish"
    );
}
