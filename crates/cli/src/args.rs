//! Minimal flag parsing (no external dependencies).

use pmr_core::{AssignmentStrategy, SystemConfig};

/// Top-level usage text.
pub const USAGE: &str = "\
pmr — FX declustering for partial match retrieval (Kim & Pramanik, SIGMOD 1988)

USAGE:
  pmr distribute --fields F1,F2,... --devices M [--strategy S]
      Print the bucket-to-device table for FX (and Modulo for comparison).

  pmr analyze --fields F1,F2,... --devices M [--strategy S]
      Report certified and measured optimality per unspecified-field count.

  pmr simulate --fields F1,F2,... --devices M --records N [--seed K]
               [--trace T] [--json] [--faults SPEC] [--retry POLICY]
               [--redundancy R] [--batch B] [--cache P]
      Build a synthetic declustered file and execute sample queries in
      parallel, reporting balance and simulated speedup. With --faults /
      --retry / --redundancy the fault-aware executor runs instead:
      injected faults are retried, failed over to buddy mirrors or
      rebuilt from parity, and reported as coverage + per-device
      outcomes. --batch B additionally pushes B sample queries through
      one resident executor batch and reports throughput.

  pmr throughput [--fields F1,F2,... --devices M] [--records N]
                 [--batch B] [--seed K] [--cache P] [--json]
      Time one query batch (default: the paper's Table 7 system, 64
      queries) through the resident batch executor, one-query-at-a-time
      execution, and the serial reference; all variants must return the
      same records, and queries/sec are reported for each.

  pmr chaos [--fields F1,F2,... --devices M] [--records N] [--seed K]
            [--rates R1,R2,...] [--queries Q] [--retry POLICY]
            [--outage D] [--redundancy R] [--cache P] [--json]
      Sweep fault-injection rates over a system (default: the paper's
      Table 7 system, F = 8^6, M = 32) and print a coverage /
      response-time-inflation table. Mirroring + failover are on unless
      --redundancy none; all fault decisions derive from the seed
      (PMR_SEED).

  pmr serve [--fields F1,F2,... --devices M] [--records N] [--nodes K]
            [--seed S] [--deadline-ms D] [--queries Q] [--json]
      Boot a sharded in-process cluster — K nodes, each a resident
      executor over a contiguous device subrange behind the pmr-net wire
      protocol — run a seeded smoke batch through the scatter/gather
      frontend, and report per-node topology, coverage, and counters.

  pmr loadgen [--fields F1,F2,... --devices M] [--records N] [--nodes K]
              [--queries Q] [--batch B] [--concurrency C] [--spread U]
              [--seed S] [--deadline-ms D] [--drop P] [--kill-node I]
              [--kill-at Q] [--watch MS] [--check] [--json]
      Drive a seeded query mix through the cluster closed-loop and
      report queries/sec with p50/p99 latency in wall and simulated
      time, degradation tallies, an order-independent checksum, and a
      per-node critical-path attribution table (busy_us p50/p99 and the
      share of batches each node dominated, from telemetry merged over
      the wire). --check cross-verifies the checksum against a
      single-process run; --kill-node/--kill-at kill a node mid-run
      (coverage degrades, nothing errors); --drop P drops responses with
      seeded probability; --watch MS streams live per-node JSON
      snapshots to stderr every MS milliseconds — a mid-run kill is
      visible as its recent share drains to zero.

  pmr experiment <table1..table9|figure1..figure4|all> [--trace T]
                 [--csv] [--empirical]
      Regenerate a table/figure of the paper's evaluation. On one figure,
      --csv prints its curves as CSV and --empirical adds ground-truth
      curves measured exhaustively on scaled-down systems.

  pmr stats <trace.jsonl> [--cluster]
      Aggregate a JSON-lines trace (recorded via --trace or PMR_TRACE)
      into per-span, per-device, and per-counter tables. --cluster
      additionally groups the merged node{N}.* telemetry into a per-node
      table with busy_us percentiles from the merged histograms.

  pmr optimize --fields F1,F2,... --devices M [--steps N] [--seed K]
      Anneal generalized-FX transformation tables beyond the paper's
      closed forms (useful when 4+ fields are smaller than M).

  pmr design --probs P1,P2,... [--bits B]
      Allocate directory bits to fields from per-field specification
      probabilities (expected-bucket-access model).

  pmr verify [--max-fields N] [--max-buckets B]
      Check the paper's theorems against exhaustive ground truth over a
      grid of systems.

OPTIONS:
  --fields    comma-separated power-of-two field sizes (e.g. 8,8,8)
  --devices   power-of-two device count M
  --strategy  theorem-9 (default) | basic | cycle-iu1 | cycle-iu2
  --records   number of synthetic records to insert (simulate default
              10000, chaos 20000, throughput/serve/loadgen 5000)
  --seed      RNG seed (simulate/optimize: default 42; throughput/chaos/
              serve/loadgen: default PMR_SEED, else 42)
  --steps     annealing steps (optimize; default 2000)
  --probs     comma-separated per-field specification probabilities
  --bits      total directory bits (design; default 12)
  --trace     trace sink: a file path or 'stderr' (records spans/metrics
              as JSON lines; PMR_TRACE sets the same thing globally)
  --json      machine-readable JSON-lines output (simulate/throughput/
              chaos/serve/loadgen)
  --faults    fault spec: comma-separated key=value of read=P, corrupt=P,
              latency=P:US or latency=P:LO..HI, outage=D, outage-rate=P
              (e.g. read=0.01,latency=0.1:200..2000,outage=3)
  --retry     retry policy: attempts=N,base=US,cap=US,budget=US (defaults
              3,100,10000,1000000) or the literal 'none'
  --batch     simulate/throughput: queries per resident executor batch
  --rates     chaos: comma-separated fault rates to sweep
              (default 0,0.001,0.01,0.05,0.1)
  --queries   chaos: sample queries per rate (default 8);
              serve: smoke-batch size; loadgen: total queries
  --nodes     serve/loadgen: node count (default 4)
  --concurrency  loadgen: closed-loop caller threads (default 2)
  --spread    loadgen: max unspecified fields per query (default 2)
  --deadline-ms  serve/loadgen: per-request gather deadline (default 250)
  --drop      loadgen: seeded response-drop probability (default 0)
  --kill-node loadgen: node index to kill mid-run
  --kill-at   loadgen: query index at which the kill fires (default half)
  --watch     loadgen: stream per-node telemetry JSON to stderr every MS
  --cache     simulate/throughput/chaos: decoded-page cache capacity
              per device, in pages (0 disables; default 1024). Purely a
              wall-clock knob — results are bit-equal at any setting.
              serve/loadgen refuse it: nodes ship stored page bytes and
              never read the cache
  --check     loadgen: verify the checksum against a single-process run
  --csv       experiment: print a figure's curves as CSV
  --empirical experiment: add a figure's exhaustively measured curves
  --cluster   stats: render the merged node{N}.* telemetry per node
  --outage    chaos: additionally kill device D at every swept rate
  --redundancy  simulate/chaos: none | mirror | parity | parity:K,R
              (simulate default none, chaos default mirror). mirror
              copies each bucket onto its buddy device (d XOR M/2) and
              fails reads over to it; parity is Reed-Solomon K+R
              (default 4+2); none shows undefended degradation
  --max-fields   verify: largest field count in the grid (default 3)
  --max-buckets  verify: largest bucket count in the grid (default 512)

Every flag is accepted at most once; a name missing from this list is
an error.";

/// `true` when `name` is one of the flags listed under `OPTIONS:` in
/// [`USAGE`] — the help text is the one list of accepted flags.
fn documented(name: &str) -> bool {
    let options = USAGE.split_once("\nOPTIONS:\n").map_or("", |(_, o)| o);
    options
        .lines()
        .filter_map(|line| line.strip_prefix("  --"))
        .any(|line| line.split_whitespace().next() == Some(name))
}

/// Parsed `--flag value` pairs.
pub struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

/// Flags that take no value; present means `true`.
const BOOLEAN_FLAGS: [&str; 5] = ["json", "check", "cluster", "csv", "empirical"];

impl<'a> Flags<'a> {
    /// Parses `--name value` pairs (and bare boolean flags like
    /// `--json`); rejects stray arguments, names missing from the
    /// `OPTIONS` list of [`USAGE`], and repeated names.
    pub fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument {flag:?}"));
            };
            if !documented(name) {
                return Err(format!("unknown flag --{name} (see pmr --help)"));
            }
            if pairs.iter().any(|(n, _)| *n == name) {
                return Err(format!("flag --{name} given more than once"));
            }
            if BOOLEAN_FLAGS.contains(&name) {
                pairs.push((name, "true"));
                continue;
            }
            let Some(value) = it.next() else {
                return Err(format!("flag --{name} needs a value"));
            };
            pairs.push((name, value.as_str()));
        }
        Ok(Flags { pairs })
    }

    /// `true` when a boolean flag (e.g. `--json`) was given.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The raw value of a flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Required flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Parses `--fields 8,8,4` into sizes.
    pub fn fields(&self) -> Result<Vec<u64>, String> {
        self.require("fields")?
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u64>()
                    .map_err(|e| format!("bad field size {s:?}: {e}"))
            })
            .collect()
    }

    /// Parses `--devices M`.
    pub fn devices(&self) -> Result<u64, String> {
        self.require("devices")?
            .parse()
            .map_err(|e| format!("bad device count: {e}"))
    }

    /// The system `--fields` and `--devices` describe (both required).
    pub fn system(&self) -> Result<SystemConfig, String> {
        SystemConfig::new(&self.fields()?, self.devices()?).map_err(|e| e.to_string())
    }

    /// Parses a u64 flag with a default.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad --{name}: {e}")),
        }
    }

    /// Parses `--strategy` (defaulting to theorem-9).
    pub fn strategy(&self) -> Result<AssignmentStrategy, String> {
        match self.get("strategy").unwrap_or("theorem-9") {
            "theorem-9" => Ok(AssignmentStrategy::TheoremNine),
            "basic" => Ok(AssignmentStrategy::Basic),
            "cycle-iu1" => Ok(AssignmentStrategy::CycleIu1),
            "cycle-iu2" => Ok(AssignmentStrategy::CycleIu2),
            other => Err(format!(
                "unknown strategy {other:?} (expected theorem-9|basic|cycle-iu1|cycle-iu2)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn parses_flags() {
        let args = argv(&["--fields", "8,8,4", "--devices", "16", "--seed", "7"]);
        let f = Flags::parse(&args).unwrap();
        assert_eq!(f.fields().unwrap(), vec![8, 8, 4]);
        assert_eq!(f.devices().unwrap(), 16);
        assert_eq!(f.u64_or("seed", 42).unwrap(), 7);
        assert_eq!(f.u64_or("records", 100).unwrap(), 100);
        assert_eq!(
            f.strategy().unwrap(),
            pmr_core::AssignmentStrategy::TheoremNine
        );
        assert!(!f.has("json"));
    }

    /// `--json` is a bare boolean flag: it consumes no value, so flags
    /// after it still parse.
    #[test]
    fn parses_boolean_flags() {
        let args = argv(&["--json", "--check", "--seed", "9", "--trace", "out.jsonl"]);
        let f = Flags::parse(&args).unwrap();
        assert!(f.has("json"));
        assert!(f.has("check"));
        assert!(!f.has("csv"));
        assert_eq!(f.u64_or("seed", 42).unwrap(), 9);
        assert_eq!(f.get("trace"), Some("out.jsonl"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(Flags::parse(&argv(&["stray"])).is_err());
        assert!(Flags::parse(&argv(&["--fields"])).is_err());
        let bad_fields = argv(&["--fields", "x"]);
        assert!(Flags::parse(&bad_fields).unwrap().fields().is_err());
        let bad_strategy = argv(&["--strategy", "nope"]);
        assert!(Flags::parse(&bad_strategy).unwrap().strategy().is_err());
        let empty = argv(&[]);
        assert!(Flags::parse(&empty).unwrap().require("fields").is_err());
    }

    /// A misspelt flag is an error, not a silent default.
    #[test]
    fn rejects_unknown_flags() {
        let err = Flags::parse(&argv(&["--recods", "10"])).err().unwrap();
        assert!(err.contains("--recods"), "{err}");
        assert!(Flags::parse(&argv(&["--seed", "1", "--verbose"])).is_err());
        assert!(Flags::parse(&argv(&["--", "1"])).is_err());
        // The old redundancy aliases are gone: `--redundancy` says it.
        for alias in ["--mirror", "--no-mirror"] {
            let err = Flags::parse(&argv(&[alias])).err().unwrap();
            assert!(err.contains("unknown flag"), "{err}");
        }
    }

    /// A flag given twice is an error, not first-one-wins.
    #[test]
    fn rejects_repeated_flags() {
        let err = Flags::parse(&argv(&["--seed", "1", "--seed", "2"]))
            .err()
            .unwrap();
        assert!(err.contains("--seed"), "{err}");
        assert!(Flags::parse(&argv(&["--json", "--json"])).is_err());
    }

    /// Every flag a command reads is documented, so it parses; the
    /// OPTIONS scan picks up names at every indentation the list uses.
    #[test]
    fn accepts_every_documented_flag() {
        for name in [
            "fields",
            "devices",
            "strategy",
            "records",
            "seed",
            "steps",
            "probs",
            "bits",
            "trace",
            "faults",
            "retry",
            "batch",
            "rates",
            "queries",
            "nodes",
            "concurrency",
            "spread",
            "deadline-ms",
            "drop",
            "kill-node",
            "kill-at",
            "watch",
            "cache",
            "outage",
            "redundancy",
            "max-fields",
            "max-buckets",
        ] {
            let args = argv(&[&format!("--{name}"), "1"]);
            assert!(Flags::parse(&args).is_ok(), "--{name}");
        }
        for name in BOOLEAN_FLAGS {
            assert!(documented(name), "--{name}");
        }
    }
}
