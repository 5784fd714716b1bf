//! A micro-benchmark harness: warmup, N timed iterations, robust summary
//! statistics, JSON-lines output.
//!
//! Each benchmark is a closure returning a `u64` checksum. The checksum
//! serves two purposes: it defeats dead-code elimination (the closure's
//! work feeds an observable value), and it makes correctness auditable —
//! for a fixed seed the checksum is identical run-to-run, so a perf
//! regression can be distinguished from a behavior change by diffing the
//! JSON lines and ignoring only the timing fields.
//!
//! Output format (one JSON object per line on stdout):
//!
//! ```json
//! {"bench":"group/name","iters":200,"median_ns":1234.5,"p95_ns":2000.0,
//!  "mean_ns":1300.0,"min_ns":1200.0,"max_ns":2400.0,"outliers":1,
//!  "checksum":42}
//! ```
//!
//! Environment knobs: `PMR_BENCH_ITERS` (timed iterations, default 60),
//! `PMR_BENCH_WARMUP` (warmup iterations, default 10), `PMR_BENCH_RERUNS`
//! (outlier rerun budget, default 8). Smoke-testing a bench binary
//! offline: `PMR_BENCH_ITERS=2 PMR_BENCH_WARMUP=0`.
//!
//! **Warmup floor:** at least one untimed iteration always runs, even
//! with `warmup(0)` / `PMR_BENCH_WARMUP=0` — the first pass over a fresh
//! workload pays one-time costs (page faults, lazy allocations, cold
//! caches) that would otherwise pollute `max_ns` with a sample up to
//! several times the median. Timed samples more than 2× the median are
//! still counted in `outliers`, so a noisy run is visible in the JSON
//! without distorting the robust statistics (`median_ns`, `p95_ns`).
//!
//! **Rerun-on-outlier:** after the timed loop, while the slowest sample
//! exceeds 2× the median and rerun budget remains, the worst sample is
//! dropped and replaced by one fresh timed iteration. One-off
//! interference (scheduler preemption, a page-cache hiccup) thus gets
//! re-measured instead of sticking in the recorded distribution — the
//! gated baselines stay stable without touching genuine bimodality,
//! which re-measures the same and survives. The sample count is `iters`
//! either way, and residual noise is still visible in `outliers`.
//! `reruns(0)` / `PMR_BENCH_RERUNS=0` disables the pass.

use crate::obs::json::Object;
use std::hint::black_box as std_black_box;
use std::time::Instant;

/// Opaque value barrier preventing the optimizer from deleting benchmarked
/// work (re-export shape benches import).
#[inline]
pub fn black_box<T>(v: T) -> T {
    std_black_box(v)
}

/// Summary statistics of one benchmark's timed iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Fully qualified name (`group/name`).
    pub bench: String,
    /// Timed iterations.
    pub iters: usize,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// 95th-percentile nanoseconds per iteration.
    pub p95_ns: f64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest iteration.
    pub min_ns: f64,
    /// Slowest iteration.
    pub max_ns: f64,
    /// Timed samples above 2× the median — one-off interference (page
    /// faults, scheduler preemption) that the robust statistics already
    /// exclude, surfaced so noisy runs are visible in the baseline.
    pub outliers: usize,
    /// Checksum returned by the final iteration (deterministic for a
    /// fixed seed; timing-independent).
    pub checksum: u64,
}

impl Stats {
    /// The JSON-lines rendering.
    pub fn to_json(&self) -> String {
        Object::new()
            .str("bench", &self.bench)
            .u64("iters", self.iters as u64)
            .fixed("median_ns", self.median_ns, 1)
            .fixed("p95_ns", self.p95_ns, 1)
            .fixed("mean_ns", self.mean_ns, 1)
            .fixed("min_ns", self.min_ns, 1)
            .fixed("max_ns", self.max_ns, 1)
            .u64("outliers", self.outliers as u64)
            .u64("checksum", self.checksum)
            .finish()
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// A named group of benchmarks sharing configuration; results print as
/// JSON lines as each benchmark finishes.
pub struct Group {
    name: String,
    warmup: usize,
    iters: usize,
    reruns: usize,
    results: Vec<Stats>,
}

impl Group {
    /// A group with iteration counts from the environment (or defaults).
    pub fn new(name: &str) -> Self {
        Group {
            name: name.to_string(),
            warmup: env_usize("PMR_BENCH_WARMUP", 10),
            iters: env_usize("PMR_BENCH_ITERS", 60).max(1),
            reruns: env_usize("PMR_BENCH_RERUNS", 8),
            results: Vec::new(),
        }
    }

    /// Overrides the timed iteration count.
    pub fn iters(mut self, iters: usize) -> Self {
        self.iters = iters.max(1);
        self
    }

    /// Overrides the warmup iteration count. A floor of one untimed
    /// iteration always applies (see the module docs) — `warmup(0)` means
    /// "the minimum", not "none".
    pub fn warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Overrides the outlier rerun budget (see the module docs); `0`
    /// disables the rerun pass.
    pub fn reruns(mut self, reruns: usize) -> Self {
        self.reruns = reruns;
        self
    }

    /// Runs one benchmark: `max(warmup, 1)` untimed iterations, `iters`
    /// timed ones, then the rerun-on-outlier pass (see the module docs).
    /// `f` returns a checksum; see the module docs.
    pub fn bench<F: FnMut() -> u64>(&mut self, name: &str, mut f: F) -> &Stats {
        for _ in 0..self.warmup.max(1) {
            std_black_box(f());
        }
        let mut samples_ns = Vec::with_capacity(self.iters);
        let mut checksum = 0u64;
        for _ in 0..self.iters {
            let start = Instant::now();
            checksum = std_black_box(f());
            samples_ns.push(start.elapsed().as_nanos() as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("durations are not NaN"));
        // Rerun-on-outlier: replace the worst sample with a fresh
        // measurement while it exceeds 2× the median and budget remains.
        // The checksum is deterministic, so reruns never change it.
        let mut budget = self.reruns;
        while budget > 0
            && *samples_ns.last().expect("iters >= 1") > 2.0 * percentile(&samples_ns, 50.0)
        {
            samples_ns.pop();
            let start = Instant::now();
            checksum = std_black_box(f());
            let fresh = start.elapsed().as_nanos() as f64;
            let at = samples_ns.partition_point(|&s| s < fresh);
            samples_ns.insert(at, fresh);
            budget -= 1;
        }
        let median_ns = percentile(&samples_ns, 50.0);
        let stats = Stats {
            bench: format!("{}/{}", self.name, name),
            iters: self.iters,
            median_ns,
            p95_ns: percentile(&samples_ns, 95.0),
            mean_ns: samples_ns.iter().sum::<f64>() / samples_ns.len() as f64,
            min_ns: samples_ns[0],
            max_ns: samples_ns[samples_ns.len() - 1],
            outliers: samples_ns.iter().filter(|&&s| s > 2.0 * median_ns).count(),
            checksum,
        };
        println!("{}", stats.to_json());
        self.results.push(stats);
        self.results.last().expect("just pushed")
    }

    /// All results recorded so far.
    pub fn results(&self) -> &[Stats] {
        &self.results
    }
}

/// Percentile of an ascending-sorted sample set — the shared
/// [`crate::stats::percentile_sorted`] with the harness's non-empty
/// precondition made loud.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "no samples");
    crate::stats::percentile_sorted(sorted, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_is_pinned() {
        let stats = Stats {
            bench: "query_exec/fx_fast_executor".into(),
            iters: 60,
            median_ns: 1_234.56,
            p95_ns: 2_000.04,
            mean_ns: 1_300.0,
            min_ns: 999.95,
            max_ns: 5_000.0,
            outliers: 2,
            checksum: 0xdead_beef,
        };
        assert_eq!(stats.to_json(), "{\"bench\":\"query_exec/fx_fast_executor\",\"iters\":60,\"median_ns\":1234.6,\"p95_ns\":2000.0,\"mean_ns\":1300.0,\"min_ns\":1000.0,\"max_ns\":5000.0,\"outliers\":2,\"checksum\":3735928559}");
    }

    #[test]
    fn percentile_interpolates() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        assert_eq!(percentile(&s, 50.0), 25.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn bench_runs_and_reports() {
        let mut group = Group::new("selftest").iters(5);
        let stats = group.bench("sum", || (0..1000u64).sum::<u64>()).clone();
        assert_eq!(stats.bench, "selftest/sum");
        assert_eq!(stats.iters, 5);
        assert_eq!(stats.checksum, 499_500);
        assert!(stats.min_ns <= stats.median_ns);
        assert!(stats.median_ns <= stats.max_ns);
        assert!(stats.median_ns <= stats.p95_ns + 1e-9);
        let json = stats.to_json();
        assert!(json.starts_with("{\"bench\":\"selftest/sum\""));
        assert!(json.contains("\"outliers\":"));
        assert!(json.contains("\"checksum\":499500"));
        assert_eq!(group.results().len(), 1);
    }

    #[test]
    fn warmup_override_is_respected() {
        let mut calls = 0u64;
        let mut group = Group::new("warmup").iters(3).warmup(0).reruns(0);
        group.bench("count", || {
            calls += 1;
            calls
        });
        // warmup(0) still runs the one-iteration floor, then the timed
        // iterations: the first (cold) pass never lands in the samples.
        assert_eq!(calls, 4);

        let mut calls = 0u64;
        let mut group = Group::new("warmup").iters(3).warmup(5).reruns(0);
        group.bench("count", || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 8);
    }

    /// A single slow timed sample (simulated interference) is re-measured
    /// by the rerun pass: the recorded max lands well under the spike.
    #[test]
    fn rerun_pass_replaces_one_off_outliers() {
        let mut timed = 0u64;
        let mut group = Group::new("rerun").iters(8).warmup(0).reruns(4);
        let stats = group.bench("spike", || {
            timed += 1;
            // Call 2 is the first *timed* iteration (call 1 is the warmup
            // floor): sleep only there, so exactly one sample spikes.
            if timed == 2 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            std::hint::black_box((0..2000u64).sum::<u64>())
        });
        assert!(
            stats.max_ns < 10_000_000.0,
            "20ms spike survived the rerun pass: max_ns = {}",
            stats.max_ns
        );
        assert_eq!(stats.iters, 8, "sample count unchanged by reruns");
    }

    /// `reruns(0)` disables the pass: the spike stays in the samples.
    #[test]
    fn reruns_zero_keeps_outliers() {
        let mut timed = 0u64;
        let mut group = Group::new("rerun").iters(8).warmup(0).reruns(0);
        let stats = group.bench("spike", || {
            timed += 1;
            if timed == 2 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            std::hint::black_box((0..2000u64).sum::<u64>())
        });
        assert!(
            stats.max_ns >= 10_000_000.0,
            "spike should remain without reruns: max_ns = {}",
            stats.max_ns
        );
        assert!(stats.outliers >= 1);
    }

    /// `outliers` counts timed samples above 2× the median; a constant
    /// workload has none.
    #[test]
    fn outliers_counted_against_median() {
        let mut group = Group::new("outliers").iters(9).warmup(0);
        let stats = group.bench("steady", || std::hint::black_box((0..2000u64).sum::<u64>()));
        assert!(
            stats.outliers <= stats.iters,
            "outlier count {} exceeds sample count {}",
            stats.outliers,
            stats.iters
        );
        // The definition, re-applied: the field is derived from samples,
        // all of which sit between min and max.
        assert!(stats.min_ns <= stats.median_ns && stats.median_ns <= stats.max_ns);
        if stats.max_ns <= 2.0 * stats.median_ns {
            assert_eq!(stats.outliers, 0);
        } else {
            assert!(stats.outliers >= 1);
        }
    }

    #[test]
    fn checksums_are_deterministic() {
        let run = || {
            let mut group = Group::new("det").iters(2);
            let mut rng = crate::rng::Rng::seed_from_u64(42);
            let data: Vec<u64> = (0..256).map(|_| rng.next_u64()).collect();
            group
                .bench("xor", || data.iter().fold(0u64, |a, &b| a ^ b))
                .checksum
        };
        assert_eq!(run(), run());
    }
}
