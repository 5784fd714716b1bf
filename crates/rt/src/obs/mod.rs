//! Hermetic observability: structured spans, a metrics registry, and
//! pluggable trace sinks — zero dependencies, branch-cheap when off.
//!
//! The subsystem has three layers:
//!
//! * **Spans** — [`span!`](crate::span!) opens a [`SpanGuard`] with
//!   monotonic timing, a process-unique id, and parent linkage through a
//!   per-thread span stack; dropping the guard records the span.
//! * **Metrics registry** — named [counters](counter_add) and
//!   fixed-bucket [histograms](observe_us) accumulated in-process;
//!   span durations feed a histogram named after the span.
//! * **Sinks** — where recorded events go: a JSON-lines writer (a file
//!   or stderr, one flat object per line in the [`crate::bench`] JSON
//!   vocabulary) or an in-memory recorder for tests.
//! * **Snapshots** — [`snapshot::MetricsSnapshot`] copies registry state
//!   into mergeable plain data (same-bounds histograms add per bucket),
//!   the transport for cluster telemetry; [`emit::Emitter`] streams
//!   periodic JSON-lines snapshots for live watch modes.
//!
//! The sink is selected once from `PMR_TRACE` (`off` — the default — a
//! file path, or `stderr`) on first use, or programmatically via
//! [`install`]. **The disabled path is one relaxed atomic load and an
//! early return** — `span!`/[`counter_add`] cost single-digit
//! nanoseconds when tracing is off (pinned by the `obs_overhead` bench
//! group), so instrumentation stays compiled in everywhere.
//!
//! Aggregation of a recorded JSON-lines trace lives in [`agg`]
//! (`TraceStats`), which backs the `pmr stats` CLI subcommand.

pub mod agg;
pub mod emit;
pub mod json;
pub mod snapshot;

use crate::sync::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Environment variable selecting the trace sink: `off` (default),
/// `stderr`, or a file path.
pub const ENV_VAR: &str = "PMR_TRACE";

/// Histogram bucket upper bounds, in microseconds, used for span
/// durations and [`observe_us`]: 10µs … 1s in decades (plus an implicit
/// overflow bucket).
pub const DEFAULT_US_BOUNDS: [f64; 6] = [10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];

/// Tracing state: 0 = uninitialised, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);
/// Monotonic span-id allocator (0 is reserved for "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Spans recorded since process start (or the last [`reset`]).
static SPANS_RECORDED: AtomicU64 = AtomicU64::new(0);
/// The installed sink, if tracing is on.
static SINK: RwLock<Option<Arc<Sink>>> = RwLock::new(None);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    /// Open spans on this thread, innermost last — the parent chain.
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Is tracing on? One relaxed atomic load on the fast path; the first
/// call initialises the sink from [`ENV_VAR`].
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let cfg = match std::env::var(ENV_VAR) {
        Err(_) => TraceConfig::Off,
        Ok(v) => TraceConfig::from_str_lossy(&v),
    };
    // A bad path in the environment silently disables tracing rather than
    // poisoning every instrumented call site; the CLI's --trace flag goes
    // through `install` directly and surfaces the error.
    if install(cfg).is_err() {
        let _ = install(TraceConfig::Off);
    }
    STATE.load(Ordering::Relaxed) == 2
}

/// Sink selection for [`install`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceConfig {
    /// Tracing disabled (the default).
    Off,
    /// JSON lines to stderr.
    Stderr,
    /// JSON lines appended to a file (created/truncated on install).
    File(PathBuf),
    /// Events recorded in memory — for tests; read with [`drain_events`].
    Memory,
}

impl TraceConfig {
    /// Parses the `PMR_TRACE` / `--trace` vocabulary: `off` (or empty),
    /// `stderr`, anything else is a file path. `memory` is reserved for
    /// tests and also recognised.
    pub fn from_str_lossy(s: &str) -> TraceConfig {
        match s.trim() {
            "" | "off" | "0" | "none" => TraceConfig::Off,
            "stderr" => TraceConfig::Stderr,
            "memory" => TraceConfig::Memory,
            path => TraceConfig::File(PathBuf::from(path)),
        }
    }
}

/// Installs a sink, replacing any previous one, and flips the global
/// enable flag accordingly. Installing [`TraceConfig::Off`] disables
/// tracing but keeps the registry's accumulated totals (use [`reset`] to
/// zero them).
pub fn install(cfg: TraceConfig) -> std::io::Result<()> {
    let sink = match cfg {
        TraceConfig::Off => None,
        TraceConfig::Stderr => Some(Sink::Stderr),
        TraceConfig::Memory => Some(Sink::Memory(Mutex::new(Vec::new()))),
        TraceConfig::File(path) => Some(Sink::File(Mutex::new(std::fs::File::create(path)?))),
    };
    let enabled = sink.is_some();
    *SINK.write() = sink.map(Arc::new);
    // Sink first, then the flag: a racing `enabled()` never sees an
    // enabled state without a sink.
    STATE.store(if enabled { 2 } else { 1 }, Ordering::Release);
    epoch(); // pin the time base no later than the first install
    Ok(())
}

/// One recorded event, as seen by the in-memory sink.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A closed span.
    Span(SpanEvent),
    /// A counter's running total at flush time.
    Counter {
        /// Counter name.
        name: String,
        /// Total at the time of the flush.
        total: u64,
    },
    /// A histogram's bucket state at flush time.
    Hist {
        /// Histogram name.
        name: String,
        /// Bucket upper bounds (ascending).
        bounds: Vec<f64>,
        /// Per-bucket counts; one longer than `bounds` (overflow last).
        counts: Vec<u64>,
    },
}

/// A closed span: identity, linkage, timing, and attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name (`subsystem.operation`).
    pub name: String,
    /// Process-unique id (> 0).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Start time in microseconds since the trace epoch.
    pub start_us: u64,
    /// Wall-clock duration in nanoseconds.
    pub elapsed_ns: f64,
    /// Attributes from the [`span!`](crate::span!) call site.
    pub attrs: Vec<(String, u64)>,
}

impl Event {
    /// The JSON-lines rendering: one flat object, `event` first — the
    /// same hand-formatted vocabulary [`crate::bench::Stats::to_json`]
    /// uses, so one parser reads both.
    pub fn to_json(&self) -> String {
        match self {
            Event::Span(s) => {
                let mut out = format!(
                    "{{\"event\":\"span\",\"name\":\"{}\",\"id\":{},\"parent\":{},\
                     \"start_us\":{},\"elapsed_ns\":{:.1}",
                    s.name,
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_us,
                    s.elapsed_ns
                );
                for (k, v) in &s.attrs {
                    out.push_str(&format!(",\"{k}\":{v}"));
                }
                out.push('}');
                out
            }
            Event::Counter { name, total } => {
                format!("{{\"event\":\"counter\",\"name\":\"{name}\",\"total\":{total}}}")
            }
            Event::Hist {
                name,
                bounds,
                counts,
            } => {
                let join = |xs: &[String]| xs.join(",");
                format!(
                    "{{\"event\":\"hist\",\"name\":\"{name}\",\"bounds\":[{}],\"counts\":[{}]}}",
                    join(&bounds.iter().map(|b| format!("{b}")).collect::<Vec<_>>()),
                    join(&counts.iter().map(|c| c.to_string()).collect::<Vec<_>>()),
                )
            }
        }
    }
}

enum Sink {
    Stderr,
    File(Mutex<std::fs::File>),
    Memory(Mutex<Vec<Event>>),
}

fn emit(event: Event) {
    let sink = SINK.read().clone();
    let Some(sink) = sink else { return };
    match &*sink {
        Sink::Stderr => eprintln!("{}", event.to_json()),
        Sink::File(file) => {
            let mut f = file.lock();
            let _ = writeln!(f, "{}", event.to_json());
        }
        Sink::Memory(events) => {
            events.lock().push(event);
        }
    }
}

/// Drains and returns the in-memory sink's events (empty unless a
/// [`TraceConfig::Memory`] sink is installed).
pub fn drain_events() -> Vec<Event> {
    let sink = SINK.read().clone();
    match sink.as_deref() {
        Some(Sink::Memory(events)) => std::mem::take(&mut events.lock()),
        _ => Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

struct Hist {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; the last collects overflow.
    counts: Vec<AtomicU64>,
}

#[derive(Default)]
struct Registry {
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    hists: RwLock<HashMap<String, Arc<Hist>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    fn counter(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    fn hist(&self, name: &str) -> Arc<Hist> {
        if let Some(h) = self.hists.read().get(name) {
            return h.clone();
        }
        self.hists
            .write()
            .entry(name.to_string())
            .or_insert_with(|| {
                Arc::new(Hist {
                    bounds: DEFAULT_US_BOUNDS.to_vec(),
                    counts: (0..=DEFAULT_US_BOUNDS.len())
                        .map(|_| AtomicU64::new(0))
                        .collect(),
                })
            })
            .clone()
    }
}

/// Adds `delta` to the named counter. No-op (atomic load + return) when
/// tracing is off.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    registry().counter(name).fetch_add(delta, Ordering::Relaxed);
}

/// The named counter's running total (0 if it was never touched).
pub fn counter_total(name: &str) -> u64 {
    registry()
        .counters
        .read()
        .get(name)
        .map_or(0, |c| c.load(Ordering::Relaxed))
}

/// Records a microsecond observation into the named fixed-bucket
/// histogram ([`DEFAULT_US_BOUNDS`]). No-op when tracing is off.
pub fn observe_us(name: &str, us: f64) {
    if !enabled() {
        return;
    }
    let hist = registry().hist(name);
    let bucket = hist
        .bounds
        .iter()
        .position(|&b| us <= b)
        .unwrap_or(hist.bounds.len());
    hist.counts[bucket].fetch_add(1, Ordering::Relaxed);
}

/// The named histogram's `(bounds, counts)` state, if it exists.
pub fn histogram_counts(name: &str) -> Option<(Vec<f64>, Vec<u64>)> {
    registry().hists.read().get(name).map(|h| {
        (
            h.bounds.clone(),
            h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        )
    })
}

/// All counters with non-zero totals, name-sorted.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = registry()
        .counters
        .read()
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .filter(|(_, v)| *v > 0)
        .collect();
    out.sort();
    out
}

/// Spans recorded since process start (or the last [`reset`]).
pub fn spans_recorded() -> u64 {
    SPANS_RECORDED.load(Ordering::Relaxed)
}

/// Writes every counter total and histogram state to the sink as
/// `counter` / `hist` events. Call once at the end of a traced run so
/// the JSON-lines file carries the final registry state; `cli stats`
/// reads the *last* total per name.
pub fn flush() {
    if !enabled() {
        return;
    }
    for (name, total) in counters_snapshot() {
        emit(Event::Counter { name, total });
    }
    let hists: Vec<(String, Arc<Hist>)> = registry()
        .hists
        .read()
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    for (name, h) in hists {
        emit(Event::Hist {
            name,
            bounds: h.bounds.clone(),
            counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        });
    }
}

/// Zeroes every counter and histogram and the span count. Tests and the
/// CLI use this to scope the registry to one run; the sink is untouched.
pub fn reset() {
    for c in registry().counters.read().values() {
        c.store(0, Ordering::Relaxed);
    }
    for h in registry().hists.read().values() {
        for c in &h.counts {
            c.store(0, Ordering::Relaxed);
        }
    }
    SPANS_RECORDED.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// An open span; dropping it records the span (duration, parent linkage,
/// attributes) and feeds the duration histogram named after the span.
/// Constructed by [`span!`](crate::span!) — a disabled guard is inert.
#[must_use = "a span measures the scope it is alive in"]
pub struct SpanGuard(Option<ActiveSpan>);

struct ActiveSpan {
    name: &'static str,
    attrs: Vec<(&'static str, u64)>,
    id: u64,
    parent: Option<u64>,
    start_us: u64,
    start: Instant,
}

impl SpanGuard {
    /// Opens a span if tracing is on; the disabled path is one atomic
    /// load and an early return.
    #[inline]
    pub fn begin(name: &'static str, attrs: &[(&'static str, u64)]) -> SpanGuard {
        if !enabled() {
            return SpanGuard(None);
        }
        SpanGuard(Some(ActiveSpan::start(name, attrs)))
    }

    /// An inert guard (what [`begin`](SpanGuard::begin) returns when
    /// tracing is off).
    pub fn disabled() -> SpanGuard {
        SpanGuard(None)
    }

    /// `true` when this guard will record a span on drop.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// This span's id, if recording (for explicit cross-thread linkage).
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|s| s.id)
    }
}

impl ActiveSpan {
    fn start(name: &'static str, attrs: &[(&'static str, u64)]) -> ActiveSpan {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        ActiveSpan {
            name,
            attrs: attrs.to_vec(),
            id,
            parent,
            start_us: epoch().elapsed().as_micros() as u64,
            start: Instant::now(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.0.take() else { return };
        let elapsed_ns = span.start.elapsed().as_nanos() as f64;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards are scope-bound, so this span is the innermost open
            // one; be tolerant anyway if drop order was unusual.
            if let Some(pos) = stack.iter().rposition(|&id| id == span.id) {
                stack.remove(pos);
            }
        });
        SPANS_RECORDED.fetch_add(1, Ordering::Relaxed);
        observe_us(span.name, elapsed_ns / 1_000.0);
        emit(Event::Span(SpanEvent {
            name: span.name.to_string(),
            id: span.id,
            parent: span.parent,
            start_us: span.start_us,
            elapsed_ns,
            attrs: span
                .attrs
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect(),
        }));
    }
}

/// Opens a [`SpanGuard`] named `$name` with optional `key = value`
/// attributes (values coerced to `u64`).
///
/// The enabled check runs **before** any attribute expression is
/// evaluated: with tracing off the whole call is one `#[inline]` relaxed
/// atomic load — the attribute slice is never built and `$val`
/// expressions are not executed (so keep them side-effect free). The
/// `obs_overhead/span_disabled` bench pins this cost against the raw
/// atomic-load floor.
///
/// ```
/// let _span = pmr_rt::span!("exec.device", device = 3u64);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::obs::enabled() {
            $crate::obs::SpanGuard::begin($name, &[$((stringify!($key), ($val) as u64)),*])
        } else {
            $crate::obs::SpanGuard::disabled()
        }
    };
}

// ---------------------------------------------------------------------
// Trace capture / summary
// ---------------------------------------------------------------------

/// Aggregated view of what one instrumented operation recorded: counter
/// deltas and the number of spans closed while the capture was open.
/// Attached to execution reports so callers see *why* a run behaved the
/// way it did without parsing the trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Spans recorded during the capture.
    pub spans: u64,
    /// Counter deltas during the capture, name-sorted, zero deltas
    /// dropped.
    pub counters: Vec<(String, u64)>,
}

impl TraceSummary {
    /// The delta for one counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Flat JSON rendering (`{"spans":N,"counters":{...}}`).
    pub fn to_json(&self) -> String {
        let body = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        format!("{{\"spans\":{},\"counters\":{{{body}}}}}", self.spans)
    }
}

/// A registry snapshot opened by [`capture`]; [`finish`](TraceCapture::finish)
/// turns it into the delta [`TraceSummary`].
pub struct TraceCapture {
    spans_before: u64,
    counters_before: Vec<(String, u64)>,
}

/// Starts a capture of registry activity, or `None` when tracing is off.
/// Deltas are process-wide: concurrent instrumented operations fold into
/// the same capture.
pub fn capture() -> Option<TraceCapture> {
    if !enabled() {
        return None;
    }
    Some(TraceCapture {
        spans_before: spans_recorded(),
        counters_before: counters_snapshot(),
    })
}

impl TraceCapture {
    /// Closes the capture: counter and span-count deltas since it opened.
    pub fn finish(self) -> TraceSummary {
        let before: HashMap<&str, u64> = self
            .counters_before
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        let counters = counters_snapshot()
            .into_iter()
            .filter_map(|(name, total)| {
                let delta = total - before.get(name.as_str()).copied().unwrap_or(0).min(total);
                (delta > 0).then_some((name, delta))
            })
            .collect();
        TraceSummary {
            spans: spans_recorded().saturating_sub(self.spans_before),
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests share one lock so parallel test threads don't
    /// fight over the sink.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = lock();
        install(TraceConfig::Off).unwrap();
        let spans_before = spans_recorded();
        {
            let _s = crate::span!("test.noop", x = 1u64);
            counter_add("test.noop.counter", 5);
            observe_us("test.noop.hist", 50.0);
        }
        assert_eq!(spans_recorded(), spans_before);
        assert_eq!(counter_total("test.noop.counter"), 0);
        assert!(capture().is_none());
        assert!(drain_events().is_empty());
    }

    #[test]
    fn memory_sink_records_spans_counters_and_parents() {
        let _l = lock();
        install(TraceConfig::Memory).unwrap();
        reset();
        drain_events();
        let cap = capture().expect("tracing on");
        {
            let outer = crate::span!("test.outer");
            let outer_id = outer.id().unwrap();
            {
                let _inner = crate::span!("test.inner", device = 7u64);
                counter_add("test.hits", 2);
            }
            counter_add("test.hits", 1);
            drop(outer);
            let events = drain_events();
            let spans: Vec<&SpanEvent> = events
                .iter()
                .filter_map(|e| match e {
                    Event::Span(s) => Some(s),
                    _ => None,
                })
                .collect();
            assert_eq!(spans.len(), 2, "{events:?}");
            // Inner closes first and links to the outer span.
            assert_eq!(spans[0].name, "test.inner");
            assert_eq!(spans[0].parent, Some(outer_id));
            assert_eq!(spans[0].attrs, vec![("device".to_string(), 7)]);
            assert_eq!(spans[1].name, "test.outer");
            assert_eq!(spans[1].parent, None);
            assert!(spans[1].elapsed_ns >= spans[0].elapsed_ns);
        }
        let summary = cap.finish();
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.counter("test.hits"), 3);
        assert_eq!(summary.counter("test.absent"), 0);
        assert!(summary.to_json().contains("\"test.hits\":3"));
        install(TraceConfig::Off).unwrap();
    }

    #[test]
    fn flush_emits_registry_state_and_roundtrips() {
        let _l = lock();
        install(TraceConfig::Memory).unwrap();
        reset();
        drain_events();
        counter_add("test.flush.count", 4);
        observe_us("test.flush.lat", 5.0); // first bucket
        observe_us("test.flush.lat", 1e9); // overflow bucket
        flush();
        let events = drain_events();
        assert!(events.contains(&Event::Counter {
            name: "test.flush.count".into(),
            total: 4
        }));
        let hist = events
            .iter()
            .find_map(|e| match e {
                Event::Hist {
                    name,
                    bounds,
                    counts,
                } if name == "test.flush.lat" => Some((bounds.clone(), counts.clone())),
                _ => None,
            })
            .expect("hist flushed");
        assert_eq!(hist.0, DEFAULT_US_BOUNDS.to_vec());
        assert_eq!(hist.1[0], 1);
        assert_eq!(*hist.1.last().unwrap(), 1);
        assert_eq!(histogram_counts("test.flush.lat").unwrap(), hist);
        // Every event's JSON parses back through the mini parser.
        for e in &events {
            json::parse_object(&e.to_json()).expect("event JSON parses");
        }
        install(TraceConfig::Off).unwrap();
    }

    #[test]
    fn config_parsing_vocabulary() {
        assert_eq!(TraceConfig::from_str_lossy("off"), TraceConfig::Off);
        assert_eq!(TraceConfig::from_str_lossy(""), TraceConfig::Off);
        assert_eq!(TraceConfig::from_str_lossy("stderr"), TraceConfig::Stderr);
        assert_eq!(TraceConfig::from_str_lossy("memory"), TraceConfig::Memory);
        assert_eq!(
            TraceConfig::from_str_lossy("/tmp/t.jsonl"),
            TraceConfig::File(PathBuf::from("/tmp/t.jsonl"))
        );
    }

    #[test]
    fn span_json_shape() {
        let e = Event::Span(SpanEvent {
            name: "exec.device".into(),
            id: 9,
            parent: None,
            start_us: 42,
            elapsed_ns: 1500.0,
            attrs: vec![("device".into(), 3)],
        });
        let json = e.to_json();
        assert!(json.starts_with("{\"event\":\"span\",\"name\":\"exec.device\""));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"device\":3"));
        json::parse_object(&json).unwrap();
    }
}
