//! Hermetic observability: structured spans, one static metric table,
//! and pluggable trace sinks — zero dependencies, branch-cheap when off.
//!
//! The subsystem has these layers:
//!
//! * **The metric table** — [`table`] declares every [`Counter`],
//!   [`Histogram`] and [`Span`] the workspace emits, once, as a `static`
//!   handle (`EXEC_FAILOVER.add(1)`,
//!   `EXEC_RECONSTRUCT_US.observe_us(x)`). Each handle owns its atomics;
//!   a span handle owns the duration histogram named after the span.
//! * **Spans** — [`span!`](crate::span!) opens a [`SpanGuard`] on a span
//!   handle with monotonic timing, a process-unique id, and parent
//!   linkage through a per-thread span stack; dropping the guard records
//!   the span.
//! * **Sinks** — where recorded events go: a JSON-lines writer (a file
//!   or stderr, one flat object per line in the [`crate::bench`] JSON
//!   vocabulary) or a capped in-memory recorder.
//! * **Snapshots** — [`snapshot::MetricsSnapshot`] copies metric state
//!   into mergeable plain data (same-bounds histograms add per bucket),
//!   the transport for cluster telemetry; node telemetry absorbed from
//!   the wire lands in one such snapshot beside the table.
//!   [`emit::Emitter`] streams periodic JSON-lines snapshots for live
//!   watch modes.
//!
//! The sink is selected once from `PMR_TRACE` (`off` — the default — a
//! file path, or `stderr`) on first use, or programmatically via
//! [`install`]. **The disabled path is one relaxed atomic load and an
//! early return** — `span!`/[`Counter::add`] cost single-digit
//! nanoseconds when tracing is off (pinned by the `obs_overhead` bench
//! group), so instrumentation stays compiled in everywhere.
//!
//! Aggregation of a recorded JSON-lines trace lives in [`agg`]
//! (`TraceStats`), which backs the `pmr stats` CLI subcommand.

pub mod agg;
pub mod emit;
pub mod json;
pub mod snapshot;
pub mod table;

pub use table::*;

use crate::sync::{Mutex, RwLock};
use json::Object;
use snapshot::HIST_BUCKETS;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Environment variable selecting the trace sink: `off` (default),
/// `stderr`, or a file path.
pub const ENV_VAR: &str = "PMR_TRACE";

/// Histogram bucket upper bounds, in microseconds, shared by every
/// [`Histogram`] and span duration: 10µs … 1s in decades (plus an
/// implicit overflow bucket).
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
    /// Events recorded in memory, at most [`MEMORY_SINK_CAP`] of them —
    /// for tests and for runs that only need the metric totals; read
    /// with [`drain_events`].
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
/// tracing but keeps the metrics' accumulated totals (use [`reset`] to
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
    /// A histogram's bucket state at flush time, over
    /// [`DEFAULT_US_BOUNDS`].
    Hist {
        /// Histogram name.
        name: String,
        /// Per-bucket counts; one longer than the bounds (overflow last).
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
    /// same vocabulary [`crate::bench::Stats::to_json`] uses, so one
    /// parser reads both.
    pub fn to_json(&self) -> String {
        match self {
            Event::Span(s) => {
                let o = Object::new()
                    .str("event", "span")
                    .str("name", &s.name)
                    .u64("id", s.id);
                let o = match s.parent {
                    Some(p) => o.u64("parent", p),
                    None => o.null("parent"),
                };
                let o = o
                    .u64("start_us", s.start_us)
                    .fixed("elapsed_ns", s.elapsed_ns, 1);
                s.attrs.iter().fold(o, |o, (k, v)| o.u64(k, *v)).finish()
            }
            Event::Counter { name, total } => Object::new()
                .str("event", "counter")
                .str("name", name)
                .u64("total", *total)
                .finish(),
            Event::Hist { name, counts } => Object::new()
                .str("event", "hist")
                .str("name", name)
                .nums("bounds", &DEFAULT_US_BOUNDS)
                .u64s("counts", counts)
                .finish(),
        }
    }
}

/// Events the in-memory sink retains; later events are dropped and
/// counted under [`OBS_MEMORY_SINK_DROPPED`] until [`drain_events`]
/// empties it. An event is at most 512 bytes with its heap parts (a span
/// event is 88 bytes inline plus a table name and at most five
/// attributes), so a full sink holds at most 4 MiB.
pub const MEMORY_SINK_CAP: usize = 8_192;

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
            let mut events = events.lock();
            if events.len() < MEMORY_SINK_CAP {
                events.push(event);
            } else {
                OBS_MEMORY_SINK_DROPPED.add(1);
            }
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
// Metric handles
// ---------------------------------------------------------------------

/// A named `u64` counter: one relaxed atomic, declared in [`table`].
pub struct Counter {
    name: &'static str,
    total: AtomicU64,
}

impl Counter {
    const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            total: AtomicU64::new(0),
        }
    }

    /// Adds `delta`. No-op (atomic load + return) when tracing is off.
    #[inline]
    pub fn add(&self, delta: u64) {
        if !enabled() || delta == 0 {
            return;
        }
        self.total.fetch_add(delta, Ordering::Relaxed);
    }

    /// The running total.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The counter's table name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A named fixed-bucket microsecond histogram ([`DEFAULT_US_BOUNDS`]
/// plus an overflow bucket), declared in [`table`].
pub struct Histogram {
    name: &'static str,
    counts: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            counts: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    /// Records one microsecond observation. No-op when tracing is off.
    #[inline]
    pub fn observe_us(&self, us: f64) {
        if !enabled() {
            return;
        }
        self.counts[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// The per-bucket counts, overflow last.
    pub fn counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }
}

/// The bucket a microsecond observation falls in: the first bound it
/// does not exceed, else the overflow bucket.
fn bucket_of(us: f64) -> usize {
    DEFAULT_US_BOUNDS
        .iter()
        .position(|&b| us <= b)
        .unwrap_or(DEFAULT_US_BOUNDS.len())
}

/// A named span, opened with [`span!`](crate::span!); its closed
/// durations feed a histogram of the same name.
pub struct Span {
    hist: Histogram,
}

impl Span {
    const fn new(name: &'static str) -> Span {
        Span {
            hist: Histogram::new(name),
        }
    }

    /// The span's table name.
    pub fn name(&self) -> &'static str {
        self.hist.name
    }
}

/// One [`TABLE`] entry.
#[derive(Clone, Copy)]
pub enum Metric {
    /// A counter.
    Counter(&'static Counter),
    /// A histogram.
    Histogram(&'static Histogram),
    /// A span (and its duration histogram).
    Span(&'static Span),
}

impl Metric {
    /// The entry's name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Counter(c) => c.name,
            Metric::Histogram(h) => h.name,
            Metric::Span(s) => s.name(),
        }
    }

    /// The entry's kind as DESIGN §9 spells it: `counter`, `hist` or
    /// `span`.
    pub fn kind(self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Histogram(_) => "hist",
            Metric::Span(_) => "span",
        }
    }

    fn hist(self) -> Option<&'static Histogram> {
        match self {
            Metric::Counter(_) => None,
            Metric::Histogram(h) => Some(h),
            Metric::Span(s) => Some(&s.hist),
        }
    }

    /// A counter's total; 0 for the other kinds.
    fn total(self) -> u64 {
        match self {
            Metric::Counter(c) => c.total(),
            _ => 0,
        }
    }

    /// The entry's atomics: a counter's total or a histogram's buckets.
    fn slots(self) -> &'static [AtomicU64] {
        match self {
            Metric::Counter(c) => std::slice::from_ref(&c.total),
            Metric::Histogram(h) => &h.counts,
            Metric::Span(s) => &s.hist.counts,
        }
    }
}

/// The table entry named `name`, if any.
fn lookup(name: &str) -> Option<Metric> {
    TABLE
        .binary_search_by(|m| m.name().cmp(name))
        .ok()
        .map(|i| TABLE[i])
}

/// The named counter's running total — a table counter or an absorbed
/// `node{N}.*` one (0 when neither exists). For reading metrics by name;
/// emitters use the [`table`] handles.
pub fn counter_total(name: &str) -> u64 {
    match lookup(name) {
        Some(m) => m.total(),
        None => snapshot::ABSORBED.lock().counter(name),
    }
}

/// The named histogram's `(bounds, counts)` state — a table histogram
/// or span duration histogram, or an absorbed `node{N}.*` one.
pub fn histogram_counts(name: &str) -> Option<(Vec<f64>, Vec<u64>)> {
    let counts = match lookup(name) {
        Some(m) => m.hist()?.counts().to_vec(),
        None => snapshot::ABSORBED.lock().hist(name)?.to_vec(),
    };
    Some((DEFAULT_US_BOUNDS.to_vec(), counts))
}

/// All counters with non-zero totals, name-sorted: the table's and the
/// absorbed ones.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    snapshot::snapshot().counters
}

/// Spans recorded since process start (or the last [`reset`]).
pub fn spans_recorded() -> u64 {
    SPANS_RECORDED.load(Ordering::Relaxed)
}

/// Writes every non-zero counter total and histogram state to the sink
/// as `counter` / `hist` events, name-sorted. Call once at the end of a
/// traced run so the JSON-lines file carries the final metric state;
/// `cli stats` reads the *last* total per name.
pub fn flush() {
    if !enabled() {
        return;
    }
    let snap = snapshot::snapshot();
    for (name, total) in snap.counters {
        emit(Event::Counter { name, total });
    }
    for (name, counts) in snap.hists {
        emit(Event::Hist { name, counts });
    }
}

/// Zeroes every counter and histogram, the absorbed node telemetry and
/// the span count. Tests and the CLI use this to scope metrics to one
/// run; the sink is untouched.
pub fn reset() {
    for slot in TABLE.iter().flat_map(|m| m.slots()) {
        slot.store(0, Ordering::Relaxed);
    }
    *snapshot::ABSORBED.lock() = snapshot::MetricsSnapshot::default();
    SPANS_RECORDED.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// An open span; dropping it records the span (duration, parent linkage,
/// attributes) and feeds the span handle's duration histogram.
/// Constructed by [`span!`](crate::span!) — a disabled guard is inert.
#[must_use = "a span measures the scope it is alive in"]
pub struct SpanGuard(Option<ActiveSpan>);

struct ActiveSpan {
    span: &'static Span,
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
    pub fn begin(span: &'static Span, attrs: &[(&'static str, u64)]) -> SpanGuard {
        if !enabled() {
            return SpanGuard(None);
        }
        SpanGuard(Some(ActiveSpan::start(span, attrs)))
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
    fn start(span: &'static Span, attrs: &[(&'static str, u64)]) -> ActiveSpan {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        ActiveSpan {
            span,
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
        span.span.hist.observe_us(elapsed_ns / 1_000.0);
        emit(Event::Span(SpanEvent {
            name: span.span.name().to_string(),
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

/// Opens a [`SpanGuard`] on a [`Span`] handle from the [`table`], with
/// optional `key = value` attributes (values coerced to `u64`).
///
/// The enabled check runs **before** any attribute expression is
/// evaluated: with tracing off the whole call is one `#[inline]` relaxed
/// atomic load — the attribute slice is never built and `$val`
/// expressions are not executed (so keep them side-effect free). The
/// `obs_overhead/span_disabled` bench pins this cost against the raw
/// atomic-load floor.
///
/// ```
/// let _span = pmr_rt::span!(pmr_rt::obs::EXEC_DEVICE, device = 3u64);
/// ```
#[macro_export]
macro_rules! span {
    ($span:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::obs::enabled() {
            $crate::obs::SpanGuard::begin(&$span, &[$((stringify!($key), ($val) as u64)),*])
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
    /// Table counter deltas during the capture, name-sorted, zero deltas
    /// dropped.
    pub counters: Vec<(&'static str, u64)>,
}

impl TraceSummary {
    /// The delta for one counter (0 when absent).
    pub fn counter(&self, counter: &Counter) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == counter.name)
            .map_or(0, |(_, v)| *v)
    }

    /// Flat JSON rendering (`{"spans":N,"counters":{...}}`).
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .fold(Object::new(), |o, (k, v)| o.u64(k, *v));
        Object::new()
            .u64("spans", self.spans)
            .json("counters", &counters.finish())
            .finish()
    }
}

/// The table's counter totals when [`capture`] opened: one `u64` per
/// [`TABLE`] slot. [`finish`](TraceCapture::finish) turns it into the
/// delta [`TraceSummary`].
pub struct TraceCapture {
    spans_before: u64,
    totals: Vec<u64>,
}

/// Starts a capture of metric activity, or `None` when tracing is off.
/// Deltas are process-wide: concurrent instrumented operations fold into
/// the same capture.
pub fn capture() -> Option<TraceCapture> {
    if !enabled() {
        return None;
    }
    Some(TraceCapture {
        spans_before: spans_recorded(),
        totals: TABLE.iter().map(|m| m.total()).collect(),
    })
}

impl TraceCapture {
    /// Closes the capture: counter and span-count deltas since it opened.
    pub fn finish(self) -> TraceSummary {
        let counters = TABLE
            .iter()
            .zip(self.totals)
            .filter_map(|(m, before)| {
                let delta = m.total().saturating_sub(before);
                (delta > 0).then_some((m.name(), delta))
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

    /// Global-state tests (here and in [`super::snapshot`]) share one
    /// lock so parallel test threads don't fight over the sink.
    pub(super) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
    }

    #[test]
    fn event_and_summary_json_are_pinned() {
        let span = Event::Span(SpanEvent {
            name: "exec.device".into(),
            id: 7,
            parent: Some(3),
            start_us: 1_234,
            elapsed_ns: 4_567.25,
            attrs: vec![("device".into(), 5), ("codes".into(), 64)],
        });
        assert_eq!(span.to_json(), "{\"event\":\"span\",\"name\":\"exec.device\",\"id\":7,\"parent\":3,\"start_us\":1234,\"elapsed_ns\":4567.2,\"device\":5,\"codes\":64}");
        let root = Event::Span(SpanEvent {
            name: "exec.query".into(),
            id: 1,
            parent: None,
            start_us: 0,
            elapsed_ns: 0.04,
            attrs: vec![],
        });
        assert_eq!(root.to_json(), "{\"event\":\"span\",\"name\":\"exec.query\",\"id\":1,\"parent\":null,\"start_us\":0,\"elapsed_ns\":0.0}");
        let counter = Event::Counter {
            name: "exec.failover".into(),
            total: 42,
        };
        assert_eq!(
            counter.to_json(),
            "{\"event\":\"counter\",\"name\":\"exec.failover\",\"total\":42}"
        );
        let hist = Event::Hist {
            name: "exec.reconstruct_us".into(),
            counts: vec![1, 2, 3, 0, 0, 0, 9],
        };
        assert_eq!(hist.to_json(), "{\"event\":\"hist\",\"name\":\"exec.reconstruct_us\",\"bounds\":[10,100,1000,10000,100000,1000000],\"counts\":[1,2,3,0,0,0,9]}");
        let summary = TraceSummary {
            spans: 12,
            counters: vec![("exec.failover", 2), ("fault.injected", 5)],
        };
        assert_eq!(
            summary.to_json(),
            "{\"spans\":12,\"counters\":{\"exec.failover\":2,\"fault.injected\":5}}"
        );
        let empty = TraceSummary {
            spans: 0,
            counters: vec![],
        };
        assert_eq!(empty.to_json(), "{\"spans\":0,\"counters\":{}}");
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = lock();
        install(TraceConfig::Off).unwrap();
        reset();
        let spans_before = spans_recorded();
        {
            let _s = crate::span!(BENCH_OBS, x = 1u64);
            BENCH_OBS_COUNTER.add(5);
            EXEC_RECONSTRUCT_US.observe_us(50.0);
        }
        assert_eq!(spans_recorded(), spans_before);
        assert_eq!(BENCH_OBS_COUNTER.total(), 0);
        assert_eq!(EXEC_RECONSTRUCT_US.counts(), [0; HIST_BUCKETS]);
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
            let outer = crate::span!(CLI_EXPERIMENT);
            let outer_id = outer.id().unwrap();
            {
                let _inner = crate::span!(EXEC_DEVICE, device = 7u64);
                BENCH_OBS_COUNTER.add(2);
            }
            BENCH_OBS_COUNTER.add(1);
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
            assert_eq!(spans[0].name, "exec.device");
            assert_eq!(spans[0].parent, Some(outer_id));
            assert_eq!(spans[0].attrs, vec![("device".to_string(), 7)]);
            assert_eq!(spans[1].name, "cli.experiment");
            assert_eq!(spans[1].parent, None);
            assert!(spans[1].elapsed_ns >= spans[0].elapsed_ns);
        }
        let summary = cap.finish();
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.counter(&BENCH_OBS_COUNTER), 3);
        assert_eq!(summary.counter(&EXEC_FAILOVER), 0);
        assert!(summary.to_json().contains("\"bench.obs.counter\":3"));
        // Each closed span fed its handle's duration histogram.
        let (_, durations) = histogram_counts("exec.device").unwrap();
        assert_eq!(durations.iter().sum::<u64>(), 1);
        install(TraceConfig::Off).unwrap();
    }

    #[test]
    fn flush_emits_registry_state_and_roundtrips() {
        let _l = lock();
        install(TraceConfig::Memory).unwrap();
        reset();
        drain_events();
        BENCH_OBS_COUNTER.add(4);
        EXEC_FAILOVER.add(1);
        EXEC_RECONSTRUCT_US.observe_us(5.0); // first bucket
        EXEC_RECONSTRUCT_US.observe_us(1e9); // overflow bucket
        EXEC_RETRY_DELAY_US.observe_us(50.0);
        flush();
        let events = drain_events();
        let counters: Vec<(&str, u64)> = events
            .iter()
            .filter_map(|e| match e {
                Event::Counter { name, total } => Some((name.as_str(), *total)),
                _ => None,
            })
            .collect();
        assert_eq!(counters, [("bench.obs.counter", 4), ("exec.failover", 1)]);
        let hists: Vec<(&str, &[u64])> = events
            .iter()
            .filter_map(|e| match e {
                Event::Hist { name, counts } => Some((name.as_str(), counts.as_slice())),
                _ => None,
            })
            .collect();
        assert_eq!(
            hists.iter().map(|h| h.0).collect::<Vec<_>>(),
            ["exec.reconstruct_us", "exec.retry_delay_us"],
            "only touched histograms, name-sorted"
        );
        let (_, counts) = hists[0];
        assert_eq!(counts[0], 1);
        assert_eq!(*counts.last().unwrap(), 1);
        assert_eq!(
            histogram_counts("exec.reconstruct_us"),
            Some((DEFAULT_US_BOUNDS.to_vec(), counts.to_vec()))
        );
        assert_eq!(counter_total("bench.obs.counter"), 4);
        assert_eq!(counter_total("no.such_counter"), 0);
        // Every event's JSON parses back through the mini parser.
        for e in &events {
            json::parse_object(&e.to_json()).expect("event JSON parses");
        }
        install(TraceConfig::Off).unwrap();
    }

    /// The in-memory sink keeps the first [`MEMORY_SINK_CAP`] events and
    /// counts the rest instead of storing them; draining makes room.
    #[test]
    fn memory_sink_is_capped_and_counts_what_it_drops() {
        let _l = lock();
        install(TraceConfig::Memory).unwrap();
        reset();
        drain_events();
        for _ in 0..MEMORY_SINK_CAP + 3 {
            let _s = crate::span!(BENCH_OBS);
        }
        assert_eq!(OBS_MEMORY_SINK_DROPPED.total(), 3);
        assert_eq!(spans_recorded(), MEMORY_SINK_CAP as u64 + 3);
        assert_eq!(drain_events().len(), MEMORY_SINK_CAP);
        {
            let _s = crate::span!(BENCH_OBS);
        }
        assert_eq!(drain_events().len(), 1, "a drained sink records again");
        install(TraceConfig::Off).unwrap();
        reset();
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
