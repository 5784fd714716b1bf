//! Baseline regression diffing: compares a fresh `bench_all` run against
//! the committed `BENCH_*.json` baselines and flags gross slowdowns.
//!
//! Timing medians are noisy across machines, so this is deliberately a
//! coarse gate: only benches in the [`GATED_PREFIXES`] groups
//! (`query_exec`, `exec_fast_path`, `throughput`, `serve`,
//! `addr_compute/batched_*`, `bulk_insert`, `ec`, `read_path`, and the
//! parity no-fault and degraded reads — the end-to-end and batched hot
//! paths the perf PRs pin) are compared, and only a median more than
//! [`DEFAULT_THRESHOLD`]× the committed one counts as a regression. A
//! gated bench that *disappears* from the fresh run also fails: renames
//! must update the baselines in the same change. The `bench_diff` binary
//! wires this into the verify flow (see `.claude/skills/verify`).

use pmr_rt::obs::json::{parse_object, JsonValue};
use std::collections::BTreeMap;

/// Bench-name prefixes the diff gate applies to. Everything else is
/// compared for information only.
pub const GATED_PREFIXES: &[&str] = &[
    "query_exec/",
    "exec_fast_path/",
    "throughput/",
    "serve/",
    "addr_compute/batched_",
    "bulk_insert/",
    "ec/",
    "fault_overhead/read_parity_no_fault",
    "fault_overhead/read_parity_degraded",
    "read_path/",
];

/// A fresh median this many times the committed one fails the gate.
pub const DEFAULT_THRESHOLD: f64 = 2.0;

/// Whether the regression gate applies to a bench name.
pub fn gated(name: &str) -> bool {
    GATED_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Parses one JSON-lines baseline file into `bench name → median_ns`.
pub fn parse_baseline(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let pairs = parse_object(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let field = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let bench = field("bench")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {}: missing \"bench\"", idx + 1))?;
        let median = field("median_ns")
            .and_then(JsonValue::as_num)
            .ok_or_else(|| format!("line {}: missing \"median_ns\"", idx + 1))?;
        out.insert(bench.to_string(), median);
    }
    Ok(out)
}

/// One gated bench whose fresh median exceeded the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// `group/name` of the regressed bench.
    pub bench: String,
    /// Committed baseline median, nanoseconds.
    pub baseline_ns: f64,
    /// Fresh-run median, nanoseconds.
    pub fresh_ns: f64,
    /// `fresh_ns / baseline_ns`.
    pub ratio: f64,
}

/// Outcome of one baseline comparison.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Gated benches slower than `threshold ×` baseline.
    pub regressions: Vec<Regression>,
    /// Gated benches present in the committed baseline but absent from
    /// the fresh run (a rename without a baseline update — fails).
    pub missing: Vec<String>,
    /// Gated benches only in the fresh run (informational).
    pub added: Vec<String>,
    /// Number of gated benches compared.
    pub compared: usize,
}

impl DiffReport {
    /// The gate verdict: no regressions and no vanished gated benches.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Compares fresh medians against committed ones over the gated groups.
pub fn compare(
    baseline: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    threshold: f64,
) -> DiffReport {
    let mut report = DiffReport::default();
    for (bench, &base_ns) in baseline {
        if !gated(bench) {
            continue;
        }
        let Some(&fresh_ns) = fresh.get(bench) else {
            report.missing.push(bench.clone());
            continue;
        };
        report.compared += 1;
        // A zero baseline median (sub-resolution bench) can't be rated;
        // any finite fresh time passes.
        let ratio = if base_ns > 0.0 {
            fresh_ns / base_ns
        } else {
            1.0
        };
        if ratio > threshold {
            report.regressions.push(Regression {
                bench: bench.clone(),
                baseline_ns: base_ns,
                fresh_ns,
                ratio,
            });
        }
    }
    for bench in fresh.keys() {
        if gated(bench) && !baseline.contains_key(bench) {
            report.added.push(bench.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(bench: &str, median: f64) -> String {
        format!(
            "{{\"bench\":\"{bench}\",\"iters\":10,\"median_ns\":{median},\"p95_ns\":{median},\
             \"mean_ns\":{median},\"min_ns\":{median},\"max_ns\":{median},\"outliers\":0,\
             \"checksum\":7}}"
        )
    }

    #[test]
    fn parses_baseline_lines() {
        let text = format!(
            "{}\n{}\n",
            line("query_exec/a", 100.0),
            line("bulk_insert/b", 5.5)
        );
        let parsed = parse_baseline(&text).unwrap();
        assert_eq!(parsed["query_exec/a"], 100.0);
        assert_eq!(parsed["bulk_insert/b"], 5.5);
        assert!(parse_baseline("{\"iters\":1}").is_err());
        assert!(parse_baseline("not json").is_err());
    }

    #[test]
    fn flags_gated_regressions_only() {
        let base = parse_baseline(&format!(
            "{}\n{}\n{}\n",
            line("query_exec/fx_fast_executor", 100.0),
            line("throughput/resident_batch_256", 1000.0),
            line("addr_compute/fx_basic", 10.0),
        ))
        .unwrap();
        let fresh = parse_baseline(&format!(
            "{}\n{}\n{}\n",
            line("query_exec/fx_fast_executor", 250.0), // 2.5× — fails
            line("throughput/resident_batch_256", 1500.0), // 1.5× — fine
            line("addr_compute/fx_basic", 500.0),       // 50× but ungated
        ))
        .unwrap();
        let report = compare(&base, &fresh, DEFAULT_THRESHOLD);
        assert!(!report.passed());
        assert_eq!(report.compared, 2);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].bench, "query_exec/fx_fast_executor");
        assert!((report.regressions[0].ratio - 2.5).abs() < 1e-9);
    }

    /// The batched and bulk-insert groups are gated; the scalar
    /// addr_compute benches stay informational.
    #[test]
    fn batched_and_bulk_insert_groups_are_gated() {
        assert!(gated("addr_compute/batched_fx_basic"));
        assert!(gated("addr_compute/batched_modulo"));
        assert!(gated("bulk_insert/batched"));
        assert!(gated("bulk_insert/fx_auto"));
        assert!(!gated("addr_compute/fx_basic"));
        assert!(!gated("transform_apply/identity"));
    }

    /// The cluster-telemetry overhead benches ride the `serve/` prefix
    /// into the gate: the tracing-off serve path must stay within
    /// threshold of the committed pre-telemetry baselines, and once the
    /// obs benches are in the baselines their disappearance fails too.
    #[test]
    fn serve_obs_overhead_benches_are_gated() {
        assert!(gated("serve/obs_overhead_off_256"));
        assert!(gated("serve/obs_overhead_on_256"));
        assert!(gated("serve/cluster4_batch_256"));
        // The rt-level obs micro-benches remain informational.
        assert!(!gated("obs_overhead/span_disabled"));
        assert!(!gated("obs_overhead/counter_enabled_memory"));
    }

    /// The erasure-coding codec kernels and the parity no-fault read are
    /// gated; the rest of the fault_overhead group stays informational
    /// (its micro-reads are sub-resolution on fast hosts).
    #[test]
    fn ec_and_parity_read_benches_are_gated() {
        assert!(gated("ec/parity_4_2"));
        assert!(gated("ec/interpolate_4_2"));
        assert!(gated("fault_overhead/read_parity_no_fault"));
        assert!(!gated("fault_overhead/read_attempt_no_plan"));
        assert!(!gated("fault_overhead/policy_no_faults"));
    }

    #[test]
    fn vanished_gated_bench_fails_added_is_informational() {
        let base = parse_baseline(&line("exec_fast_path/dispatch_wide", 100.0)).unwrap();
        let fresh = parse_baseline(&line("exec_fast_path/dispatch_huge", 100.0)).unwrap();
        let report = compare(&base, &fresh, DEFAULT_THRESHOLD);
        assert!(!report.passed());
        assert_eq!(
            report.missing,
            vec!["exec_fast_path/dispatch_wide".to_string()]
        );
        assert_eq!(
            report.added,
            vec!["exec_fast_path/dispatch_huge".to_string()]
        );
    }

    #[test]
    fn improvements_and_equal_times_pass() {
        let base = parse_baseline(&line("throughput/serial_16", 100.0)).unwrap();
        let fresh = parse_baseline(&line("throughput/serial_16", 40.0)).unwrap();
        assert!(compare(&base, &fresh, DEFAULT_THRESHOLD).passed());
        assert!(compare(&base, &base, DEFAULT_THRESHOLD).passed());
        // Zero baseline can't be rated.
        let zero = parse_baseline(&line("throughput/serial_16", 0.0)).unwrap();
        assert!(compare(&zero, &fresh, DEFAULT_THRESHOLD).passed());
    }
}
