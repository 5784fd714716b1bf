//! The metric table: every counter, histogram and span the workspace
//! emits, declared once as a `static` handle.
//!
//! Names are `subsystem.operation`, lowercase and dot-separated, and the
//! table is name-sorted; `tests/metric_table.rs` checks both and checks
//! that DESIGN §9 lists exactly these names and kinds. A handle owns its
//! atomics, so an enabled emit is one relaxed `fetch_add` on a slot that
//! exists from process start, and a mistyped handle fails to compile.
//! Names the table cannot know — node telemetry absorbed from the wire
//! under `node{N}.` — live in [`super::snapshot::absorb`]'s plain-data
//! store instead.

use super::{Counter, Histogram, Metric, Span};

/// Declares each handle as a `pub static` and collects them, in
/// declaration order, into [`TABLE`]. What each one records is listed
/// beside its name in DESIGN §9.
macro_rules! metric_table {
    ($($kind:ident $id:ident = $name:literal;)*) => {
        $(
            #[doc = concat!("The `", $name, "` ", stringify!($kind), " (DESIGN §9).")]
            pub static $id: $kind = $kind::new($name);
        )*

        /// Every declared metric, name-sorted.
        pub static TABLE: &[Metric] = &[$(Metric::$kind(&$id)),*];
    };
}

metric_table! {
    Counter ADDR_BATCH_CALLS = "addr.batch_calls";
    Span BENCH_OBS = "bench.obs";
    Counter BENCH_OBS_COUNTER = "bench.obs.counter";
    Span CLI_EXPERIMENT = "cli.experiment";
    Span CLI_INSERT = "cli.insert";
    Counter EXEC_ADDRESSES_COMPUTED = "exec.addresses_computed";
    Span EXEC_BATCH = "exec.batch";
    Counter EXEC_BATCH_QUERIES = "exec.batch.queries";
    Counter EXEC_DEGRADED = "exec.degraded";
    Span EXEC_DEVICE = "exec.device";
    Histogram EXEC_DEVICE_SIMULATED_US = "exec.device.simulated_us";
    Counter EXEC_FAILOVER = "exec.failover";
    Counter EXEC_FAST_PATH_DISPATCHED = "exec.fast_path.dispatched";
    Counter EXEC_QUALIFIED_BUCKETS = "exec.qualified_buckets";
    Span EXEC_QUERY = "exec.query";
    Histogram EXEC_RECONSTRUCT_US = "exec.reconstruct_us";
    Counter EXEC_RECONSTRUCTIONS = "exec.reconstructions";
    Counter EXEC_RETRIES = "exec.retries";
    Histogram EXEC_RETRY_DELAY_US = "exec.retry_delay_us";
    Counter EXEC_SCAN_DISPATCHED = "exec.scan.dispatched";
    Histogram EXEC_SIMULATED_RESPONSE_US = "exec.simulated_response_us";
    Counter FAULT_INJECTED = "fault.injected";
    Span FX_KERNEL_BUILD = "fx.kernel.build";
    Counter FX_KERNEL_TABLES_BUILT = "fx.kernel.tables_built";
    Counter INSERT_BATCHED_RECORDS = "insert.batched_records";
    Counter INVERSE_CODES_ENUMERATED = "inverse.codes_enumerated";
    Counter INVERSE_CODES_SCANNED = "inverse.codes_scanned";
    Counter NET_DECODE_ERRORS = "net.decode_errors";
    Span NET_GATHER = "net.gather";
    Span NET_GATHER_LINK = "net.gather.link";
    Counter NET_LATE_RESPONSES = "net.late_responses";
    Histogram NET_NODE_BUSY_US = "net.node.busy_us";
    Counter NET_NODE_DECODE_ERRORS = "net.node.decode_errors";
    Counter NET_NODE_DROPPED = "net.node.dropped";
    Span NET_NODE_REQUEST = "net.node.request";
    Counter NET_NODE_DOWN = "net.node_down";
    Histogram NET_NODE_RT_US = "net.node_rt_us";
    Counter NET_REQUEST_BYTES = "net.request_bytes";
    Counter NET_REQUESTS = "net.requests";
    Counter NET_RESPONSE_BYTES = "net.response_bytes";
    Counter NET_RESPONSES = "net.responses";
    Span NET_SCATTER = "net.scatter";
    Counter NET_TIMEOUTS = "net.timeouts";
    Counter OBS_MEMORY_SINK_DROPPED = "obs.memory_sink.dropped";
    Counter POOL_RESIDENT_JOB_PANICS = "pool.resident.job_panics";
    Counter POOL_RESIDENT_JOBS = "pool.resident.jobs";
    Counter POOL_RESIDENT_JOBS_EXECUTED = "pool.resident.jobs_executed";
    Counter POOL_RESIDENT_PARKS = "pool.resident.parks";
    Histogram POOL_RESIDENT_QUEUE_DEPTH = "pool.resident.queue_depth";
}
