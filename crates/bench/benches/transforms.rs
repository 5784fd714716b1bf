//! Microbenches of the four transformation kernels.
//!
//! Run with `cargo bench -p pmr-bench --bench transforms`.

use pmr_bench::suite::{transforms, SuiteOpts};

fn main() {
    transforms(&SuiteOpts::standard());
}
