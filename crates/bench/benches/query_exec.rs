//! End-to-end query execution through the storage stack: parallel
//! retrieval latency per method, the forced scan vs the forced FX fast
//! inverse, the `execute_parallel` fast-path dispatcher, and the
//! fault-hook overhead on the bucket-read hot path.
//!
//! Run with `cargo bench -p pmr-bench --bench query_exec`.

use pmr_bench::suite::{exec_fast_path, fault_overhead, query_exec, SuiteOpts};

fn main() {
    let opts = SuiteOpts::standard();
    query_exec(&opts);
    exec_fast_path(&opts);
    fault_overhead(&opts);
}
