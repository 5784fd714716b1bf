//! # pmr-bench — benchmark harness and experiment tools
//!
//! Experiment binaries beyond the paper's tables and figures (which
//! `pmr experiment` regenerates): `cpu_time` for §5.2.2, theorem
//! verification, ablations, GDM and table searches, plus
//! [`pmr_rt::bench`] micro-benches (`addr_compute`, `distribution`,
//! `inverse`) reproducing the paper's §5.2.2 CPU-time comparison on the
//! host CPU. Benches emit JSON lines with deterministic checksums; see
//! the `pmr_rt::bench` module docs for the format and environment knobs.
//!
//! The library part hosts the pieces the binaries and benches share:
//! deterministic workload generation and a steady-clock kernel timer used
//! by the `cpu_time` regenerator (the benches give the rigorous numbers;
//! `cpu_time` prints a quick paper-shaped summary table).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod suite;

use pmr_core::method::DistributionMethod;
use pmr_core::SystemConfig;
use pmr_rt::Rng;
use std::time::Instant;

/// Generates `count` random valid buckets for a system (deterministic per
/// seed), flattened row-major for cache-friendly iteration.
pub fn random_buckets(sys: &SystemConfig, count: usize, seed: u64) -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(seed);
    let n = sys.num_fields();
    let mut out = Vec::with_capacity(count * n);
    for _ in 0..count {
        for i in 0..n {
            out.push(rng.gen_range(0..sys.field_size(i)));
        }
    }
    out
}

/// Times `method.device_of` over a bucket batch, returning
/// `(nanoseconds per address, checksum)`. The checksum is returned (and
/// printed by callers) so the compiler cannot elide the computation.
pub fn time_addresses<D: DistributionMethod + ?Sized>(
    method: &D,
    sys: &SystemConfig,
    flat_buckets: &[u64],
    repeats: usize,
) -> (f64, u64) {
    let n = sys.num_fields();
    let count = flat_buckets.len() / n;
    assert!(count > 0, "need at least one bucket");
    let mut checksum = 0u64;
    let start = Instant::now();
    for _ in 0..repeats {
        for chunk in flat_buckets.chunks_exact(n) {
            checksum = checksum.wrapping_add(method.device_of(chunk));
        }
    }
    let elapsed = start.elapsed();
    let per_address = elapsed.as_nanos() as f64 / (repeats * count) as f64;
    (per_address, checksum)
}

/// The standard 6-field system of the paper's CPU-time discussion
/// (§5.2.2 compares address computation on the Tables 7–8 workload).
pub fn cpu_time_system() -> SystemConfig {
    SystemConfig::new(&[8; 6], 32).expect("static sizes are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_core::FxDistribution;

    #[test]
    fn random_buckets_are_valid() {
        let sys = SystemConfig::new(&[4, 8, 2], 8).unwrap();
        let flat = random_buckets(&sys, 100, 7);
        assert_eq!(flat.len(), 300);
        for chunk in flat.chunks_exact(3) {
            assert!(sys.validate_bucket(chunk).is_ok());
        }
        // Deterministic per seed.
        assert_eq!(flat, random_buckets(&sys, 100, 7));
        assert_ne!(flat, random_buckets(&sys, 100, 8));
    }

    #[test]
    fn time_addresses_produces_finite_rate() {
        let sys = cpu_time_system();
        let fx = FxDistribution::basic(sys.clone()).unwrap();
        let flat = random_buckets(&sys, 64, 1);
        let (ns, checksum) = time_addresses(&fx, &sys, &flat, 10);
        assert!(ns.is_finite() && ns >= 0.0);
        // Checksum below 64 · 10 · M.
        assert!(checksum < 64 * 10 * 32);
    }
}
