//! Integration tests driving the `pmr` binary end to end.

use std::path::Path;
use std::process::{Command, Output};

fn pmr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmr"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_usage() {
    let out = pmr(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
    assert!(stdout(&out).contains("distribute"));
}

/// A reader that closes the pipe early (`pmr … | head -1`) ends every
/// subcommand quietly: exit 0 and nothing on stderr, not a panic.
#[test]
fn closed_stdout_ends_quietly() {
    use std::process::Stdio;
    let cases: [&[&str]; 3] = [
        &["experiment", "all"],
        &["optimize", "--fields", "2,2,2,2", "--devices", "4"],
        &["help"],
    ];
    for args in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pmr"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        // Close the read end before the child writes: its first write
        // fails with a broken pipe.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("child exits");
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
        assert!(err.is_empty(), "{args:?} wrote to stderr: {err}");
        assert!(out.status.success(), "{args:?} exited {:?}", out.status);
    }
}

#[test]
fn missing_command_fails_with_usage() {
    let out = pmr(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("missing command"));
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = pmr(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

/// The decoded-page cache is gone, and so is its flag: every command
/// rejects `--cache`. `stats` parses no flags but `--cluster`, so it
/// names the stray argument instead.
#[test]
fn cache_flag_is_unknown_everywhere() {
    let unknown = "unknown flag --cache";
    let cases: [(&[&str], &str); 12] = [
        (&["distribute"], unknown),
        (&["analyze"], unknown),
        (&["simulate"], unknown),
        (&["throughput"], unknown),
        (&["chaos"], unknown),
        (&["serve"], unknown),
        (&["loadgen"], unknown),
        (&["experiment", "table1"], unknown),
        (&["stats", "trace.jsonl"], "unexpected argument \"--cache\""),
        (&["optimize"], unknown),
        (&["design"], unknown),
        (&["verify"], unknown),
    ];
    for (command, message) in cases {
        let out = pmr(&[command, &["--cache", "0"]].concat());
        assert!(!out.status.success(), "{command:?} accepted --cache");
        assert!(
            stderr(&out).contains(message),
            "{command:?}: {}",
            stderr(&out)
        );
    }
}

/// A misspelt or repeated flag fails the command instead of running it
/// with defaults (or with the first of two values).
#[test]
fn unknown_and_repeated_flags_fail() {
    let out = pmr(&["simulate", "--recods", "10"]);
    assert!(!out.status.success(), "misspelt flag ran");
    assert!(
        stderr(&out).contains("unknown flag --recods"),
        "{}",
        stderr(&out)
    );
    let out = pmr(&[
        "simulate",
        "--fields",
        "8,8",
        "--devices",
        "4",
        "--records",
        "10",
        "--seed",
        "1",
        "--seed",
        "2",
    ]);
    assert!(!out.status.success(), "repeated flag ran");
    assert!(
        stderr(&out).contains("--seed given more than once"),
        "{}",
        stderr(&out)
    );
}

/// `--redundancy` is the one spelling of the redundancy tier; the old
/// `--mirror` / `--no-mirror` aliases are unknown flags.
#[test]
fn redundancy_aliases_are_unknown_flags() {
    for (command, alias) in [("simulate", "--mirror"), ("chaos", "--no-mirror")] {
        let out = pmr(&[command, alias]);
        assert!(!out.status.success(), "{command} accepted {alias}");
        assert!(
            stderr(&out).contains(&format!("unknown flag {alias}")),
            "{}",
            stderr(&out)
        );
    }
}

/// Fixed-seed `simulate` and `chaos` runs and the file under
/// `tests/golden/` holding each one's exact stdout. To re-record a case
/// after an intended output change, run `pmr <args> > tests/golden/<name>.txt`
/// and review the diff.
fn golden_cases() -> Vec<(&'static str, Vec<&'static str>)> {
    let sim = [
        "simulate",
        "--fields",
        "8,8,8,8",
        "--devices",
        "16",
        "--records",
        "5000",
        "--seed",
        "5",
    ];
    let chaos = [
        "chaos",
        "--fields",
        "8,8,8",
        "--devices",
        "16",
        "--records",
        "4000",
        "--queries",
        "6",
    ];
    let with = |base: &[&'static str], extra: &[&'static str]| [base, extra].concat();
    vec![
        ("simulate", with(&sim, &[])),
        ("simulate_json", with(&sim, &["--json"])),
        (
            "simulate_parity_faults",
            with(
                &sim,
                &[
                    "--faults",
                    "read=0.05,corrupt=0.01,outage=3",
                    "--redundancy",
                    "parity",
                ],
            ),
        ),
        (
            "simulate_mirror_outage",
            with(&sim, &["--faults", "outage=3", "--redundancy", "mirror"]),
        ),
        ("chaos", with(&chaos, &[])),
        ("chaos_outage_buddies", with(&chaos, &["--outage", "3,11"])),
        (
            "chaos_parity_outage",
            with(&chaos, &["--redundancy", "parity", "--outage", "3,5"]),
        ),
        (
            "chaos_none_outage",
            with(&chaos, &["--redundancy", "none", "--outage", "3"]),
        ),
        ("chaos_json", with(&chaos, &["--json"])),
        (
            "optimize_mixed",
            vec![
                "optimize",
                "--fields",
                "2,2,4,4,8",
                "--devices",
                "16",
                "--seed",
                "7",
            ],
        ),
        // No linear map is perfect here (EXPERIMENTS.md): the search runs
        // its whole budget.
        (
            "optimize_binary",
            vec!["optimize", "--fields", "2,2,2,2", "--devices", "4"],
        ),
    ]
}

/// Pinned determinism: every golden case prints exactly its recorded
/// stdout, twice in a row.
#[test]
fn simulate_and_chaos_match_golden_output() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (name, args) in golden_cases() {
        let path = dir.join(format!("{name}.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for run in 1..=2 {
            let out = pmr(&args);
            assert!(out.status.success(), "{name}: {}", stderr(&out));
            assert_eq!(
                stdout(&out),
                want,
                "pmr {} (run {run}) differs from {}",
                args.join(" "),
                path.display()
            );
        }
    }
}

/// `loadgen --check` at a fixed `PMR_SEED` prints a checksum recorded
/// before reports held their records as one byte region: the gathered
/// and the single-process reports both stayed bit-identical.
#[test]
fn loadgen_check_checksum_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_pmr"))
        .args(["loadgen", "--queries", "2000", "--batch", "256", "--check"])
        .env("PMR_SEED", "41")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("checksum    ea612b7aa5e31a2f  (verified"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn distribute_prints_table_1_system() {
    let out = pmr(&["distribute", "--fields", "2,8", "--devices", "4"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("F = (2, 8), M = 4"));
    // 16 bucket rows appear.
    assert!(text.lines().count() >= 18);
}

#[test]
fn distribute_rejects_bad_sizes() {
    let out = pmr(&["distribute", "--fields", "3,8", "--devices", "4"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("power of two"));
}

/// A pattern has one bit per field of a `u32`, so a 33rd field is
/// refused rather than aliased onto field 0.
#[test]
fn simulate_rejects_more_than_32_fields() {
    let fields = vec!["2"; 33].join(",");
    let out = pmr(&[
        "simulate",
        "--fields",
        &fields,
        "--devices",
        "4",
        "--records",
        "10",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("at most 32"), "{}", stderr(&out));
}

#[test]
fn distribute_rejects_huge_spaces() {
    let out = pmr(&["distribute", "--fields", "1024,1024", "--devices", "4"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("too many"));
}

#[test]
fn analyze_reports_fractions() {
    let out = pmr(&[
        "analyze",
        "--fields",
        "8,8,8,8,8,8",
        "--devices",
        "32",
        "--strategy",
        "cycle-iu1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("FX assignment: I,U,IU1,I,U,IU1"));
    assert!(text.contains("certified strict-optimal patterns"));
}

/// A system with more devices than memory can hold one histogram slot
/// for: `analyze` reports the conditions without measuring, and
/// `optimize` scores by rank, so neither allocates per device.
#[test]
fn analyze_and_optimize_handle_huge_device_counts() {
    let system = ["--fields", "2,2", "--devices", "1099511627776"];
    let out = pmr(&[&["analyze"][..], &system].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("(skipped)"), "{text}");
    assert!(text.contains("certified strict-optimal patterns"));
    let out = pmr(&[&["optimize"][..], &system, &["--steps", "50"]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("strict-optimal patterns: 4 -> 4 (of 4)"),
        "{text}"
    );
    assert!(text.contains("field 1 images"), "{text}");
}

#[test]
fn simulate_runs_queries() {
    let out = pmr(&[
        "simulate",
        "--fields",
        "8,8",
        "--devices",
        "4",
        "--records",
        "500",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("inserted 500 records"));
    assert!(text.contains("speedup"));
}

/// `--batch` pushes extra sample queries through one resident executor
/// batch and appends a throughput summary.
#[test]
fn simulate_batch_reports_resident_throughput() {
    let out = pmr(&[
        "simulate",
        "--fields",
        "8,8",
        "--devices",
        "4",
        "--records",
        "200",
        "--seed",
        "3",
        "--batch",
        "6",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("resident batch: 6 queries on 4 pinned workers"),
        "{text}"
    );
    assert!(text.contains("queries/sec"), "{text}");
}

#[test]
fn throughput_compares_variants_on_default_system() {
    let out = pmr(&[
        "throughput",
        "--records",
        "400",
        "--batch",
        "8",
        "--seed",
        "5",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("records returned by every variant"), "{text}");
    assert!(text.contains("resident batch"), "{text}");
    assert!(text.contains("\n  per query "), "{text}");
    assert!(text.contains("serial reference"), "{text}");
}

#[test]
fn throughput_json_is_machine_readable() {
    let out = pmr(&[
        "throughput",
        "--fields",
        "8,8",
        "--devices",
        "4",
        "--records",
        "200",
        "--batch",
        "4",
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let line = text.trim();
    assert!(
        line.starts_with('{') && line.ends_with('}'),
        "not JSON: {line}"
    );
    for key in [
        "\"batch\":4",
        "\"records_returned\":",
        "\"resident_qps\":",
        "\"serial_qps\":",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
}

/// `--json` switches simulate to machine-readable JSON lines: a header
/// object plus one object per query embedding the execution report.
#[test]
fn simulate_json_is_machine_readable() {
    let out = pmr(&[
        "simulate",
        "--fields",
        "8,8",
        "--devices",
        "4",
        "--records",
        "200",
        "--seed",
        "3",
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(
        lines.len(),
        2,
        "header + one query (2-field system): {text}"
    );
    assert!(lines[0].contains("\"records\":200"));
    assert!(lines[0].contains("\"record_balance\""));
    assert!(lines[1].contains("\"query\""));
    assert!(lines[1].contains("\"simulated_response_us\""));
    assert!(lines[1].contains("\"speedup\""));
    // Every line is a flat-enough JSON object (starts/ends as one).
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not JSON: {line}"
        );
    }
}

/// A `--trace` run writes JSON lines that `pmr stats` aggregates into
/// per-device and per-counter tables — the full round trip.
#[test]
fn simulate_trace_round_trips_through_stats() {
    let path = std::env::temp_dir().join(format!("pmr-cli-trace-{}.jsonl", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = pmr(&[
        "simulate",
        "--fields",
        "8,8",
        "--devices",
        "4",
        "--records",
        "300",
        "--seed",
        "7",
        "--trace",
        path_str,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    // Human output now carries the per-query trace summary.
    assert!(stdout(&out).contains("trace:"), "{}", stdout(&out));

    let stats = pmr(&["stats", path_str]);
    std::fs::remove_file(&path).ok();
    assert!(stats.status.success(), "{}", stderr(&stats));
    let text = stdout(&stats);
    assert!(text.contains("exec.device"), "{text}");
    assert!(text.contains("device"), "{text}");
    assert!(text.contains("inverse.codes_scanned"), "{text}");
    // The one query this 2-field run executes is narrow (|R(q)| = 8 on
    // M = 4), so the cost heuristic dispatches it onto the generic scan.
    assert!(text.contains("exec.scan.dispatched"), "{text}");
}

#[test]
fn stats_rejects_missing_file() {
    let out = pmr(&["stats", "/nonexistent/trace.jsonl"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn experiment_table1_matches_regenerator() {
    let out = pmr(&["experiment", "table1"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("Table 1"));
}

#[test]
fn experiment_figure_csv_prints_curves() {
    let out = pmr(&["experiment", "figure1", "--csv"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(
        text.lines().next(),
        Some("l,md_percent,fd_percent"),
        "{text}"
    );
}

#[test]
fn verify_reports_all_theorems() {
    let out = pmr(&["verify", "--max-fields", "2", "--max-buckets", "64"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.matches("VERIFIED").count(), 9);
    assert!(!text.contains("FALSIFIED"));
}

#[test]
fn optimize_prints_tables() {
    let out = pmr(&[
        "optimize",
        "--fields",
        "2,2,2,2",
        "--devices",
        "8",
        "--steps",
        "150",
        "--seed",
        "1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("analytic bound"));
    assert!(text.contains("field 0 images"));
}

#[test]
fn design_allocates_bits() {
    let out = pmr(&["design", "--probs", "0.9,0.1", "--bits", "6"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("bit allocation"));
}

#[test]
fn experiment_unknown_name_fails() {
    let out = pmr(&["experiment", "table99"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown experiment"));
}
