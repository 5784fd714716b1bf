//! Inverse-mapping cost: FX's coset-walk fast path vs the generic
//! per-device scan, each over packed codes, beside the tuple-`Vec` scan.
//!
//! The paper (§4.2) argues inverse mapping must be cheap in main-memory
//! databases because every device repeats it per query. The generic scan
//! evaluates all `|R(q)|` addresses on each of the `M` devices
//! (`M·|R(q)|` total); `FxInverse` enumerates only the owned buckets
//! (`|R(q)|` total). Run with `cargo bench -p pmr-bench --bench inverse`.

use pmr_bench::suite::{packed_vs_vec, SuiteOpts};

fn main() {
    let opts = SuiteOpts::standard();
    packed_vs_vec(&opts);
}
