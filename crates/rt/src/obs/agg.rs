//! Trace aggregation: JSON-lines → per-span / per-device / per-counter
//! tables.
//!
//! [`TraceStats::from_lines`] reads the events a [`super`] sink wrote
//! (spans, counter totals, histogram states) and folds them into
//! summaries; [`TraceStats::render`] prints the tables the `pmr stats`
//! subcommand shows. Counter and histogram events carry running totals,
//! so the *last* event per name wins; spans accumulate.

use super::json::{parse_object, JsonValue};
use std::collections::BTreeMap;

/// Accumulated timing of one span name (or one device within it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanAgg {
    /// Spans recorded under this name.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: f64,
    /// Largest single duration, nanoseconds.
    pub max_ns: f64,
}

impl SpanAgg {
    fn fold(&mut self, elapsed_ns: f64) {
        self.count += 1;
        self.total_ns += elapsed_ns;
        self.max_ns = self.max_ns.max(elapsed_ns);
    }

    /// Mean duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns / self.count as f64
        }
    }
}

/// Aggregated contents of one JSON-lines trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Events read (spans + counters + hists).
    pub events: u64,
    /// Per-span-name aggregation.
    pub spans: BTreeMap<String, SpanAgg>,
    /// Per-device aggregation of spans carrying a `device` attribute,
    /// keyed `(span name, device)`.
    pub by_device: BTreeMap<(String, u64), SpanAgg>,
    /// Final counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Final histogram states by name.
    pub hists: BTreeMap<String, (Vec<f64>, Vec<u64>)>,
}

impl TraceStats {
    /// Parses and aggregates a JSON-lines trace. Blank lines are
    /// skipped; a malformed line fails with its line number. Lines of
    /// other flat-JSON vocabularies (e.g. bench baselines) are counted
    /// but otherwise ignored.
    pub fn from_lines(text: &str) -> Result<TraceStats, String> {
        let mut stats = TraceStats::default();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let pairs = parse_object(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            stats.events += 1;
            let get = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let Some(event) = get("event").and_then(JsonValue::as_str).map(str::to_owned) else {
                continue; // foreign vocabulary (bench lines etc.)
            };
            let name = get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("line {}: missing name", lineno + 1))?
                .to_string();
            match event.as_str() {
                "span" => {
                    let elapsed_ns = get("elapsed_ns")
                        .and_then(JsonValue::as_num)
                        .ok_or_else(|| format!("line {}: span without elapsed_ns", lineno + 1))?;
                    stats
                        .spans
                        .entry(name.clone())
                        .or_default()
                        .fold(elapsed_ns);
                    if let Some(device) = get("device").and_then(JsonValue::as_u64) {
                        stats
                            .by_device
                            .entry((name, device))
                            .or_default()
                            .fold(elapsed_ns);
                    }
                }
                "counter" => {
                    let total = get("total")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("line {}: counter without total", lineno + 1))?;
                    stats.counters.insert(name, total);
                }
                "hist" => {
                    let arr = |key: &str| -> Option<Vec<f64>> {
                        match get(key) {
                            Some(JsonValue::Arr(a)) => Some(a.clone()),
                            _ => None,
                        }
                    };
                    let bounds = arr("bounds")
                        .ok_or_else(|| format!("line {}: hist without bounds", lineno + 1))?;
                    let counts = arr("counts")
                        .ok_or_else(|| format!("line {}: hist without counts", lineno + 1))?
                        .into_iter()
                        .map(|c| c as u64)
                        .collect();
                    stats.hists.insert(name, (bounds, counts));
                }
                _ => {}
            }
        }
        Ok(stats)
    }

    /// The per-span, per-device, and per-counter tables as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("trace: {} events\n\n", self.events));

        if !self.spans.is_empty() {
            out.push_str(&format!(
                "{:<28} {:>8} {:>12} {:>12} {:>12}\n",
                "span", "count", "total_ms", "mean_us", "max_us"
            ));
            for (name, agg) in &self.spans {
                out.push_str(&format!(
                    "{:<28} {:>8} {:>12.3} {:>12.1} {:>12.1}\n",
                    name,
                    agg.count,
                    agg.total_ns / 1e6,
                    agg.mean_ns() / 1e3,
                    agg.max_ns / 1e3
                ));
            }
            out.push('\n');
        }

        if !self.by_device.is_empty() {
            out.push_str(&format!(
                "{:<28} {:>7} {:>8} {:>12} {:>12}\n",
                "span", "device", "count", "total_ms", "mean_us"
            ));
            for ((name, device), agg) in &self.by_device {
                out.push_str(&format!(
                    "{:<28} {:>7} {:>8} {:>12.3} {:>12.1}\n",
                    name,
                    device,
                    agg.count,
                    agg.total_ns / 1e6,
                    agg.mean_ns() / 1e3
                ));
            }
            out.push('\n');
        }

        if !self.counters.is_empty() {
            out.push_str(&format!("{:<36} {:>14}\n", "counter", "total"));
            for (name, total) in &self.counters {
                out.push_str(&format!("{name:<36} {total:>14}\n"));
            }
            out.push('\n');
        }

        if !self.hists.is_empty() {
            out.push_str("histograms (bucket upper bounds in us; last bucket = overflow)\n");
            for (name, (bounds, counts)) in &self.hists {
                let cells: Vec<String> = bounds
                    .iter()
                    .map(|b| format!("<={b}"))
                    .chain(std::iter::once("inf".to_string()))
                    .zip(counts)
                    .map(|(label, c)| format!("{label}:{c}"))
                    .collect();
                out.push_str(&format!("  {name}: {}\n", cells.join(" ")));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
{\"event\":\"span\",\"name\":\"exec.device\",\"id\":1,\"parent\":null,\"start_us\":10,\"elapsed_ns\":2000,\"device\":0}
{\"event\":\"span\",\"name\":\"exec.device\",\"id\":2,\"parent\":null,\"start_us\":11,\"elapsed_ns\":4000,\"device\":1}
{\"event\":\"span\",\"name\":\"exec.device\",\"id\":3,\"parent\":null,\"start_us\":12,\"elapsed_ns\":6000,\"device\":1}

{\"event\":\"counter\",\"name\":\"inverse.codes_enumerated\",\"total\":2}
{\"event\":\"counter\",\"name\":\"inverse.codes_enumerated\",\"total\":5}
{\"event\":\"hist\",\"name\":\"exec.device\",\"bounds\":[10,100],\"counts\":[3,0,0]}
";

    #[test]
    fn aggregates_spans_counters_hists() {
        let stats = TraceStats::from_lines(SAMPLE).unwrap();
        assert_eq!(stats.events, 6);
        let agg = &stats.spans["exec.device"];
        assert_eq!(agg.count, 3);
        assert_eq!(agg.total_ns, 12_000.0);
        assert_eq!(agg.max_ns, 6000.0);
        assert_eq!(agg.mean_ns(), 4000.0);
        assert_eq!(stats.by_device[&("exec.device".into(), 1)].count, 2);
        assert_eq!(stats.by_device[&("exec.device".into(), 0)].total_ns, 2000.0);
        // Last total wins.
        assert_eq!(stats.counters["inverse.codes_enumerated"], 5);
        assert_eq!(
            stats.hists["exec.device"],
            (vec![10.0, 100.0], vec![3, 0, 0])
        );
    }

    #[test]
    fn renders_tables() {
        let stats = TraceStats::from_lines(SAMPLE).unwrap();
        let text = stats.render();
        assert!(text.contains("6 events"));
        assert!(text.contains("exec.device"));
        assert!(text.contains("inverse.codes_enumerated"));
        assert!(text.contains("device"));
        assert!(text.contains("overflow"));
    }

    #[test]
    fn foreign_vocabulary_is_ignored() {
        let mixed = "{\"bench\":\"g/n\",\"iters\":2,\"median_ns\":1.0}\n\
                     {\"event\":\"counter\",\"name\":\"a\",\"total\":1}\n";
        let stats = TraceStats::from_lines(mixed).unwrap();
        assert_eq!(stats.events, 2);
        assert_eq!(stats.counters["a"], 1);
        assert!(stats.spans.is_empty());
    }

    #[test]
    fn malformed_lines_fail_with_location() {
        let err = TraceStats::from_lines("{\"event\":\"span\",\"name\":\"x\"}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = TraceStats::from_lines("not json").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert_eq!(
            TraceStats::from_lines("\n\n").unwrap(),
            TraceStats::default()
        );
    }
}
