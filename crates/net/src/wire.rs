//! The binary wire protocol between the scatter/gather frontend and its
//! nodes.
//!
//! Every message is one length-prefixed frame: a `u32` little-endian
//! payload length (capped at [`MAX_FRAME_BYTES`] *before* any
//! allocation), then the payload. The payload opens with a fixed header
//! — magic, version, message kind — followed by the kind's body. All
//! integers are little-endian; simulated times travel as `f64::to_bits`
//! so gathered reports merge bit-equal to a single-process execution.
//!
//! Decoding is total: every byte boundary returns a typed [`WireError`]
//! instead of panicking, every collection length is capped and checked
//! against the remaining payload before allocation, and trailing bytes
//! are an error. The mutation suite in `crates/net/tests/wire.rs`
//! decodes every prefix, byte corruption, bit flip and length edit of
//! valid messages to pin this down (the same hardening style as
//! `pmr-storage::persist`).
//!
//! One reader parses a response into either yield form
//! ([`YieldFrame`]): [`decode_gather`] checks each record region by the
//! allocation-free validation walk ([`validate_region`]) and copies it
//! as it lies, building no record — the [`RawYield`]s the frontend
//! gathers and merges — and [`decode_message`] decodes each region into
//! [`DeviceYield`] records. Both fail alike on every input.
//!
//! ## Protocol revision v1.1 — optional trailing telemetry sections
//!
//! The v1.1 revision ([`VERSION_MINOR`]) adds cluster telemetry as
//! **optional trailing sections** after the v1 body: a request may end
//! with a [`TraceContext`] (trace id + parent span id, so node spans
//! link back to the frontend's scatter span) and a response with a
//! [`Telemetry`] block (the node's span id plus a mergeable
//! [`MetricsSnapshot`] of counter deltas and same-bounds histogram
//! buckets). The version byte stays [`VERSION`]: a frame without the
//! trailing section **is** a valid frame of the base revision and
//! decodes to `None` for the new fields, so an untraced sender emits
//! byte-identical base-revision frames.
//!
//! ## Protocol v2 — redundancy tier and reconstruction counts
//!
//! v2 ships the policy's redundancy tier (none / mirror / parity with
//! its `k`,`r` geometry) inline after the failover byte, and full-shape
//! device yields carry a `reconstructions` count (buckets served by
//! parity rebuild) plus the `reconstructed` outcome discriminant. These
//! are fixed-offset layout changes, so the version byte bumped — v1
//! frames are refused with [`WireError::BadVersion`] instead of being
//! misparsed. The v1.1 trailing-section mechanism carries over
//! unchanged.
//!
//! ## Protocol v3 — no failover byte
//!
//! v3 drops that failover byte: the redundancy tier is the only failover
//! setting, and v2 frames are refused with [`WireError::BadVersion`].

use pmr_core::{PartialMatchQuery, SystemConfig};
use pmr_mkh::Record;
use pmr_rt::buf::BufMut;
use pmr_rt::fault::RetryPolicy;
use pmr_rt::obs::snapshot::MetricsSnapshot;
use pmr_storage::encode::{
    decode_all_bytes, encode_record, encoded_len, validate_region, DecodeError,
};
use pmr_storage::exec::{
    DeviceOutcome, DeviceReport, DeviceYield, ExecPolicy, PlannedQuery, RawYield, Redundancy,
};
use std::fmt;
use std::io::{self, Read, Write};

/// Frame payload magic: `"PMRN"` little-endian.
pub const MAGIC: u32 = 0x4e52_4d50;
/// Protocol version; bumped on any layout change.
pub const VERSION: u8 = 3;
/// Protocol revision within [`VERSION`]: 1 = the optional trailing
/// trace-context / telemetry sections (see the module docs). Revisions
/// never change the version byte — they only append sections a v1
/// decoder would not have emitted, so the revision needs no negotiation.
pub const VERSION_MINOR: u8 = 1;
/// Hard cap on one frame's payload, checked before the receive buffer is
/// allocated — a corrupt or hostile length prefix cannot OOM the peer.
pub const MAX_FRAME_BYTES: u32 = 1 << 28;
/// Cap on queries per scatter request.
pub const MAX_QUERIES: u32 = 1 << 20;
/// Cap on fields per query (systems are small: the paper's Table 7 has 6).
pub const MAX_FIELDS: u32 = 64;
/// Cap on per-node device yields per query.
pub const MAX_YIELDS: u32 = 1 << 20;
/// Cap on records per device yield.
pub const MAX_RECORDS: u32 = 1 << 24;
/// Cap on one yield's encoded record region, in bytes.
pub const MAX_RECORD_BYTES: u32 = 1 << 28;
/// Cap on lost bucket codes per device yield.
pub const MAX_LOST: u32 = 1 << 24;
/// Cap on counters in one telemetry section.
pub const MAX_TELEMETRY_COUNTERS: u32 = 256;
/// Cap on histograms in one telemetry section.
pub const MAX_TELEMETRY_HISTS: u32 = 64;
/// Cap on one telemetry metric name, in bytes.
pub const MAX_TELEMETRY_NAME: u8 = 128;
/// Cap on buckets per telemetry histogram (the metric table's shape is 7).
pub const MAX_TELEMETRY_BUCKETS: u8 = 64;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_SHUTDOWN: u8 = 3;

/// Trailing-section tag on requests: a [`TraceContext`] follows.
const TAG_TRACE: u8 = 1;
/// Trailing-section tag on responses: a [`Telemetry`] block follows.
const TAG_TELEMETRY: u8 = 2;

/// Typed decode failure: which boundary broke and how.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The payload ended before `field` could be read.
    Truncated {
        /// Name of the field being read when the bytes ran out.
        field: &'static str,
    },
    /// The payload does not open with [`MAGIC`].
    BadMagic(u32),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown message kind byte.
    BadKind(u8),
    /// Unknown [`DeviceOutcome`] discriminant.
    BadOutcome(u8),
    /// Unknown [`Redundancy`] discriminant.
    BadRedundancy(u8),
    /// Unknown yield shape byte.
    BadShape(u8),
    /// A declared collection length exceeds its protocol cap or the
    /// remaining payload.
    CapExceeded {
        /// Name of the length field.
        field: &'static str,
        /// The declared length.
        got: u64,
        /// The cap it violated.
        cap: u64,
    },
    /// A record region failed to decode.
    Record(DecodeError),
    /// A record region decoded to a record count other than one its
    /// yield declares (the region's own count or the report's).
    RecordCount {
        /// Count declared on the wire.
        want: u64,
        /// Records actually decoded.
        got: usize,
    },
    /// A shipped query failed validation against the receiver's system.
    Query(String),
    /// Unknown trailing-section tag byte.
    BadTag(u8),
    /// A telemetry metric name was not valid UTF-8.
    BadName,
    /// Bytes left over after a complete message.
    TrailingBytes(usize),
    /// The underlying transport failed mid-frame.
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { field } => write!(f, "payload truncated reading {field}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown message kind {k}"),
            WireError::BadOutcome(o) => write!(f, "unknown device outcome {o}"),
            WireError::BadRedundancy(r) => write!(f, "unknown redundancy discriminant {r}"),
            WireError::BadShape(s) => write!(f, "unknown yield shape {s}"),
            WireError::CapExceeded { field, got, cap } => {
                write!(f, "{field} length {got} exceeds cap {cap}")
            }
            WireError::Record(e) => write!(f, "record region: {e:?}"),
            WireError::RecordCount { want, got } => {
                write!(f, "record region declared {want} records, decoded {got}")
            }
            WireError::Query(e) => write!(f, "invalid query: {e}"),
            WireError::BadTag(t) => write!(f, "unknown trailing-section tag {t}"),
            WireError::BadName => write!(f, "telemetry name is not valid UTF-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::Io(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One planned query on the wire: the values plus the frontend's
/// dispatch decision (see [`pmr_storage::exec::PlannedQuery`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WireQuery {
    /// Specified/unspecified field values, index-aligned with the system.
    pub values: Vec<Option<u64>>,
    /// `true` → FX fast inverse; `false` → generic scan.
    pub fast_path: bool,
    /// Fast-path lookup charge per device, as the paper's cost model counts
    /// it.
    pub free_combos: u64,
    /// `|R(q)|`.
    pub total_qualified: u64,
}

impl WireQuery {
    /// Captures a frontend-side plan for shipping.
    pub fn from_planned(p: &PlannedQuery) -> WireQuery {
        WireQuery {
            values: p.query.values().to_vec(),
            fast_path: p.fast_path,
            free_combos: p.free_combos,
            total_qualified: p.total_qualified,
        }
    }

    /// Revalidates the shipped query against the receiving node's system
    /// and rebuilds the executable plan.
    pub fn to_planned(&self, sys: &SystemConfig) -> Result<PlannedQuery, WireError> {
        let query = PartialMatchQuery::new(sys, &self.values)
            .map_err(|e| WireError::Query(format!("{e:?}")))?;
        Ok(PlannedQuery {
            query,
            fast_path: self.fast_path,
            free_combos: self.free_combos,
            total_qualified: self.total_qualified,
        })
    }
}

/// Trace context propagated frontend → node (v1.1 trailing section):
/// the node opens its `net.node.request` span carrying these ids, so a
/// cross-process trace links node spans back to the scatter that caused
/// them. Absent when the frontend is not tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The frontend's trace-scoped id for this scatter (the request id).
    pub trace_id: u64,
    /// The frontend's `net.scatter` span id — the node span's logical
    /// parent across the process boundary.
    pub parent_span: u64,
}

/// Node telemetry shipped node → frontend (v1.1 trailing section): the
/// node's request span id (so the frontend's gather can link to it) and
/// a per-request delta [`MetricsSnapshot`] — counter deltas plus
/// same-bounds histogram buckets, mergeable by addition. Absent when the
/// node is not tracing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// The node's `net.node.request` span id (0 when not recording).
    pub span_id: u64,
    /// Counter deltas and histogram bucket counts for this request.
    pub metrics: MetricsSnapshot,
}

/// A scatter request: planned queries under one execution policy. The
/// frontend sends each node the queries of its batch that touch the
/// node's device subrange, in batch order — the whole batch, as one
/// shared frame, when every query does.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterRequest {
    /// Correlates gathered responses with their scatter.
    pub request_id: u64,
    /// Retry/failover policy, applied node-side.
    pub policy: WirePolicy,
    /// The planned batch, in query order.
    pub queries: Vec<WireQuery>,
    /// v1.1: trace context for cross-process span linkage, if tracing.
    pub trace: Option<TraceContext>,
}

/// [`ExecPolicy`] flattened onto the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePolicy {
    /// `RetryPolicy::max_attempts`.
    pub max_attempts: u32,
    /// `RetryPolicy::base_us`.
    pub base_us: u64,
    /// `RetryPolicy::cap_us`.
    pub cap_us: u64,
    /// `RetryPolicy::budget_us`.
    pub budget_us: u64,
    /// `ExecPolicy::redundancy`.
    pub redundancy: Redundancy,
    /// `ExecPolicy::seed`.
    pub seed: u64,
}

impl WirePolicy {
    /// Captures an [`ExecPolicy`] for shipping.
    pub fn from_policy(p: &ExecPolicy) -> WirePolicy {
        WirePolicy {
            max_attempts: p.retry.max_attempts,
            base_us: p.retry.base_us,
            cap_us: p.retry.cap_us,
            budget_us: p.retry.budget_us,
            redundancy: p.redundancy,
            seed: p.seed,
        }
    }

    /// Rebuilds the node-side [`ExecPolicy`].
    pub fn to_policy(&self) -> ExecPolicy {
        ExecPolicy {
            retry: RetryPolicy {
                max_attempts: self.max_attempts,
                base_us: self.base_us,
                cap_us: self.cap_us,
                budget_us: self.budget_us,
            },
            redundancy: self.redundancy,
            seed: self.seed,
        }
    }
}

/// One node's gathered partial results: per query, the device yields for
/// the node's subrange, sorted by device. The yields are decoded
/// [`DeviceYield`]s in a [`Message`], or the [`RawYield`]s of
/// [`decode_gather`], whose records stay as validated bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct GatherResponse<Y = DeviceYield> {
    /// Echo of the scatter's `request_id`.
    pub request_id: u64,
    /// Responding node's index.
    pub node: u32,
    /// Wall-clock µs the node spent executing this request (diagnostic
    /// only — never merged into simulated times).
    pub busy_us: u64,
    /// Per-query yields, in the request's query order.
    pub queries: Vec<Vec<Y>>,
    /// v1.1: the node's span id + metric deltas, if the node is tracing.
    pub telemetry: Option<Telemetry>,
}

/// Every message that crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Frontend → node: execute a batch.
    Request(ScatterRequest),
    /// Node → frontend: one node's partial results.
    Response(GatherResponse),
    /// Frontend → node: drain and exit the serve loop.
    Shutdown,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_header(buf: &mut Vec<u8>, kind: u8) {
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(kind);
}

/// Encodes one message into a frame payload (no length prefix — the
/// transport adds it, see [`write_frame`]).
pub fn encode_message(msg: &Message) -> Vec<u8> {
    match msg {
        Message::Request(req) => encode_request(req),
        Message::Response(resp) => encode_response(
            resp.request_id,
            resp.node,
            resp.busy_us,
            &resp.queries,
            resp.telemetry.as_ref(),
        ),
        Message::Shutdown => {
            let mut buf = Vec::new();
            put_header(&mut buf, KIND_SHUTDOWN);
            buf
        }
    }
}

fn encode_request(req: &ScatterRequest) -> Vec<u8> {
    encode_scatter(
        req.request_id,
        &req.policy,
        req.queries.iter(),
        req.trace.as_ref(),
    )
}

/// Encodes a scatter request straight from its parts: the frame
/// [`encode_message`] gives for a [`ScatterRequest`] holding `queries`,
/// without cloning them into one. The frontend encodes each node's
/// subset of a batch this way.
pub fn encode_scatter<'a>(
    request_id: u64,
    policy: &WirePolicy,
    queries: impl ExactSizeIterator<Item = &'a WireQuery>,
    trace: Option<&TraceContext>,
) -> Vec<u8> {
    let mut buf = Vec::new();
    put_header(&mut buf, KIND_REQUEST);
    buf.put_u64_le(request_id);
    buf.put_u32_le(policy.max_attempts);
    buf.put_u64_le(policy.base_us);
    buf.put_u64_le(policy.cap_us);
    buf.put_u64_le(policy.budget_us);
    match policy.redundancy {
        Redundancy::None => {
            buf.put_u8(0);
            buf.put_u8(0);
            buf.put_u8(0);
        }
        Redundancy::Mirror => {
            buf.put_u8(1);
            buf.put_u8(0);
            buf.put_u8(0);
        }
        Redundancy::Parity { k, r } => {
            buf.put_u8(2);
            buf.put_u8(k);
            buf.put_u8(r);
        }
    }
    buf.put_u64_le(policy.seed);
    buf.put_u32_le(queries.len() as u32);
    for q in queries {
        buf.put_u8(q.values.len() as u8);
        for v in &q.values {
            match v {
                Some(x) => {
                    buf.put_u8(1);
                    buf.put_u64_le(*x);
                }
                None => buf.put_u8(0),
            }
        }
        buf.put_u8(q.fast_path as u8);
        buf.put_u64_le(q.free_combos);
        buf.put_u64_le(q.total_qualified);
    }
    if let Some(trace) = trace {
        buf.put_u8(TAG_TRACE);
        buf.put_u64_le(trace.trace_id);
        buf.put_u64_le(trace.parent_span);
    }
    buf
}

/// A device yield as a response frame carries it: a report, lost codes,
/// and the records as one encoded region. The decoded [`DeviceYield`]
/// encodes its records as it is framed and decodes them as it is read;
/// a node's [`RawYield`] already holds the region as stored, is copied
/// verbatim and read back by the validation walk. Both frame to the same
/// bytes through [`encode_response`], and one reader parses both.
pub trait YieldFrame: Sized {
    /// How the yield holds its records.
    type Records: Default;
    /// Reads a frame's record region, given the record count its header
    /// declares: the records and how many there are, or exactly the
    /// error [`pmr_storage::encode::decode_all_bytes`] raises on it.
    fn read_region(region: &[u8], declared: usize) -> Result<(Self::Records, u64), DecodeError>;
    /// The yield a frame describes.
    fn from_parts(report: DeviceReport, records: Self::Records, lost: Vec<u64>) -> Self;
    /// The per-device report.
    fn report(&self) -> &DeviceReport;
    /// Packed codes of the buckets the device could not serve.
    fn lost(&self) -> &[u64];
    /// Records in the region.
    fn record_count(&self) -> u32;
    /// Exact byte length of the region.
    fn region_len(&self) -> usize;
    /// Appends the region to `buf`.
    fn put_region(&self, buf: &mut Vec<u8>);
}

impl YieldFrame for DeviceYield {
    fn report(&self) -> &DeviceReport {
        &self.report
    }
    fn lost(&self) -> &[u64] {
        &self.lost
    }
    fn record_count(&self) -> u32 {
        self.records.len() as u32
    }
    fn region_len(&self) -> usize {
        self.records.iter().map(encoded_len).sum()
    }
    fn put_region(&self, buf: &mut Vec<u8>) {
        for rec in &self.records {
            encode_record(rec, buf);
        }
    }

    type Records = Vec<Record>;
    fn read_region(region: &[u8], declared: usize) -> Result<(Vec<Record>, u64), DecodeError> {
        let records = decode_all_bytes(region, declared)?;
        let count = records.len() as u64;
        Ok((records, count))
    }
    fn from_parts(report: DeviceReport, records: Vec<Record>, lost: Vec<u64>) -> DeviceYield {
        DeviceYield {
            report,
            records,
            lost,
        }
    }
}

impl YieldFrame for RawYield {
    fn report(&self) -> &DeviceReport {
        &self.report
    }
    fn lost(&self) -> &[u64] {
        &self.lost
    }
    fn record_count(&self) -> u32 {
        self.report.records as u32
    }
    fn region_len(&self) -> usize {
        self.region.len()
    }
    fn put_region(&self, buf: &mut Vec<u8>) {
        buf.put_slice(&self.region);
    }

    type Records = Vec<u8>;
    fn read_region(region: &[u8], _declared: usize) -> Result<(Vec<u8>, u64), DecodeError> {
        let count = validate_region(region)?;
        Ok((region.to_vec(), count))
    }
    fn from_parts(report: DeviceReport, region: Vec<u8>, lost: Vec<u64>) -> RawYield {
        RawYield {
            report,
            region,
            lost,
        }
    }
}

/// Fixed bytes of a response before its queries: header, request id,
/// node, busy time, query count.
const RESPONSE_HEAD_BYTES: usize = 6 + 8 + 4 + 8 + 4;
/// A [`SHAPE_TRIVIAL`] yield's bytes.
const TRIVIAL_YIELD_BYTES: usize = 25;
/// A [`SHAPE_FULL`] yield's bytes besides its region and lost codes.
const FULL_YIELD_BYTES: usize = 1 + 5 * 8 + 1 + 4 + 4 + 4 + 4 + 4;

/// Encodes a response frame — the bytes of
/// `encode_message(&Message::Response(..))` — from yields in either
/// form. The one response writer: [`encode_message`] calls it with
/// decoded yields and a node with the [`RawYield`]s it served. The
/// buffer is sized from the yields' region lengths up front, so framing
/// never reallocates (bar a telemetry section) and the finished buffer
/// is handed over without a copy.
pub fn encode_response<Y: YieldFrame>(
    request_id: u64,
    node: u32,
    busy_us: u64,
    queries: &[Vec<Y>],
    telemetry: Option<&Telemetry>,
) -> Vec<u8> {
    let len = RESPONSE_HEAD_BYTES
        + queries
            .iter()
            .map(|yields| 4 + yields.iter().map(yield_len).sum::<usize>())
            .sum::<usize>();
    let mut buf = Vec::with_capacity(len);
    put_header(&mut buf, KIND_RESPONSE);
    buf.put_u64_le(request_id);
    buf.put_u32_le(node);
    buf.put_u64_le(busy_us);
    buf.put_u32_le(queries.len() as u32);
    for yields in queries {
        buf.put_u32_le(yields.len() as u32);
        for y in yields {
            put_yield(&mut buf, y);
        }
    }
    debug_assert_eq!(buf.len(), len, "response size estimate is exact");
    if let Some(telemetry) = telemetry {
        encode_telemetry(&mut buf, telemetry);
    }
    buf
}

fn put_name(buf: &mut Vec<u8>, name: &str) {
    // Metric names are short dotted identifiers; clamp defensively so an
    // oversized name truncates at the sender instead of poisoning the
    // frame for the receiver.
    let bytes = &name.as_bytes()[..name.len().min(MAX_TELEMETRY_NAME as usize)];
    buf.put_u8(bytes.len() as u8);
    buf.put_slice(bytes);
}

fn encode_telemetry(buf: &mut Vec<u8>, t: &Telemetry) {
    buf.put_u8(TAG_TELEMETRY);
    buf.put_u64_le(t.span_id);
    let counters = &t.metrics.counters[..t
        .metrics
        .counters
        .len()
        .min(MAX_TELEMETRY_COUNTERS as usize)];
    buf.put_u32_le(counters.len() as u32);
    for (name, delta) in counters {
        put_name(buf, name);
        buf.put_u64_le(*delta);
    }
    let hists = &t.metrics.hists[..t.metrics.hists.len().min(MAX_TELEMETRY_HISTS as usize)];
    buf.put_u32_le(hists.len() as u32);
    for (name, counts) in hists {
        put_name(buf, name);
        let counts = &counts[..counts.len().min(MAX_TELEMETRY_BUCKETS as usize)];
        buf.put_u8(counts.len() as u8);
        for &c in counts {
            buf.put_u64_le(c);
        }
    }
}

/// Yield shape marker: the overwhelmingly common "device had nothing"
/// yield — zero qualified buckets, no records, no losses, outcome `Ok`
/// — collapses to `shape + device + addresses + simulated_us`
/// (25 bytes), skipping the record region and its allocation on both
/// ends. Narrow queries make most of a batch's yields trivial, so this
/// is the wire's hot path.
const SHAPE_TRIVIAL: u8 = 1;
const SHAPE_FULL: u8 = 0;

/// Whether `y` travels in the 25-byte [`SHAPE_TRIVIAL`] form.
fn is_trivial<Y: YieldFrame>(y: &Y) -> bool {
    let r = y.report();
    r.qualified_buckets == 0
        && r.records == 0
        && r.reconstructions == 0
        && y.record_count() == 0
        && y.lost().is_empty()
        && r.outcome == DeviceOutcome::Ok
}

/// Bytes [`put_yield`] appends for `y`.
fn yield_len<Y: YieldFrame>(y: &Y) -> usize {
    if is_trivial(y) {
        TRIVIAL_YIELD_BYTES
    } else {
        FULL_YIELD_BYTES + y.region_len() + 8 * y.lost().len()
    }
}

fn put_yield<Y: YieldFrame>(buf: &mut Vec<u8>, y: &Y) {
    let r = y.report();
    if is_trivial(y) {
        buf.put_u8(SHAPE_TRIVIAL);
        buf.put_u64_le(r.device);
        buf.put_u64_le(r.addresses_computed);
        buf.put_u64_le(r.simulated_us.to_bits());
        return;
    }
    buf.put_u8(SHAPE_FULL);
    buf.put_u64_le(r.device);
    buf.put_u64_le(r.qualified_buckets);
    buf.put_u64_le(r.records);
    buf.put_u64_le(r.addresses_computed);
    buf.put_u64_le(r.simulated_us.to_bits());
    let (outcome, retries) = match r.outcome {
        DeviceOutcome::Ok => (0u8, 0u32),
        DeviceOutcome::Retried(n) => (1, n),
        DeviceOutcome::FailedOver => (2, 0),
        DeviceOutcome::Lost => (3, 0),
        DeviceOutcome::Reconstructed => (4, 0),
    };
    buf.put_u8(outcome);
    buf.put_u32_le(retries);
    buf.put_u32_le(r.reconstructions);
    buf.put_u32_le(y.record_count());
    // The region's length prefix is patched in after the region, so a
    // decoded yield's records are walked to encode them, not again to
    // measure them.
    let len_at = buf.len();
    buf.put_u32_le(0);
    y.put_region(buf);
    let region_len = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&region_len.to_le_bytes());
    buf.put_u32_le(y.lost().len() as u32);
    for &code in y.lost() {
        buf.put_u64_le(code);
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Checked cursor over a frame payload: every read is bounds-checked and
/// names the field it was after, so truncation anywhere yields a typed
/// [`WireError::Truncated`] rather than a panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { field });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, field)?[0])
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, WireError> {
        let s = self.take(4, field)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, WireError> {
        let s = self.take(8, field)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// A collection length: capped, and cross-checked against the bytes
    /// actually left (each element needs at least `min_elem` bytes), so a
    /// hostile length cannot drive a huge allocation.
    fn len(&mut self, field: &'static str, cap: u32, min_elem: usize) -> Result<usize, WireError> {
        let n = self.u32(field)?;
        if n > cap {
            return Err(WireError::CapExceeded {
                field,
                got: n as u64,
                cap: cap as u64,
            });
        }
        let n = n as usize;
        if min_elem > 0 && n > self.remaining() / min_elem {
            return Err(WireError::Truncated { field });
        }
        Ok(n)
    }
}

/// Decodes one frame payload. Total: typed errors on every malformed
/// input, trailing bytes rejected. A response's regions are decoded
/// into records.
pub fn decode_message(payload: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(payload);
    let msg = match decode_header(&mut r)? {
        KIND_REQUEST => Message::Request(decode_request(&mut r)?),
        KIND_RESPONSE => Message::Response(decode_response(&mut r)?),
        KIND_SHUTDOWN => Message::Shutdown,
        other => return Err(WireError::BadKind(other)),
    };
    finish(&r)?;
    Ok(msg)
}

/// Decodes a response frame with its record regions left as validated
/// bytes: each region gets one validation walk and one copy, and no
/// record is built. Accepts exactly the frames [`decode_message`]
/// decodes to a [`Message::Response`], with the same yields once
/// decoded (the same reader parses both forms), and fails with the same
/// error on every other payload — a request or shutdown frame is
/// [`WireError::BadKind`].
pub fn decode_gather(payload: &[u8]) -> Result<GatherResponse<RawYield>, WireError> {
    let mut r = Reader::new(payload);
    let resp = match decode_header(&mut r)? {
        KIND_RESPONSE => decode_response(&mut r)?,
        other => return Err(WireError::BadKind(other)),
    };
    finish(&r)?;
    Ok(resp)
}

/// Checks the magic and version and returns the message kind.
fn decode_header(r: &mut Reader<'_>) -> Result<u8, WireError> {
    let magic = r.u32("magic")?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8("version")?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    r.u8("kind")
}

/// Refuses bytes left over after a complete message.
fn finish(r: &Reader<'_>) -> Result<(), WireError> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(WireError::TrailingBytes(n)),
    }
}

fn decode_request(r: &mut Reader<'_>) -> Result<ScatterRequest, WireError> {
    let request_id = r.u64("request_id")?;
    let policy = WirePolicy {
        max_attempts: r.u32("policy.max_attempts")?,
        base_us: r.u64("policy.base_us")?,
        cap_us: r.u64("policy.cap_us")?,
        budget_us: r.u64("policy.budget_us")?,
        redundancy: {
            let disc = r.u8("policy.redundancy")?;
            let k = r.u8("policy.parity_k")?;
            let rr = r.u8("policy.parity_r")?;
            match disc {
                0 => Redundancy::None,
                1 => Redundancy::Mirror,
                2 => Redundancy::Parity { k, r: rr },
                other => return Err(WireError::BadRedundancy(other)),
            }
        },
        seed: r.u64("policy.seed")?,
    };
    // Each query is at least 1 field-count byte + 17 plan bytes.
    let nqueries = r.len("queries", MAX_QUERIES, 18)?;
    let mut queries = Vec::with_capacity(nqueries);
    for _ in 0..nqueries {
        let nfields = r.u8("query.fields")? as u32;
        if nfields > MAX_FIELDS {
            return Err(WireError::CapExceeded {
                field: "query.fields",
                got: nfields as u64,
                cap: MAX_FIELDS as u64,
            });
        }
        let mut values = Vec::with_capacity(nfields as usize);
        for _ in 0..nfields {
            let present = r.u8("query.value.tag")?;
            values.push(if present != 0 {
                Some(r.u64("query.value")?)
            } else {
                None
            });
        }
        let fast_path = r.u8("query.fast_path")? != 0;
        let free_combos = r.u64("query.free_combos")?;
        let total_qualified = r.u64("query.total_qualified")?;
        queries.push(WireQuery {
            values,
            fast_path,
            free_combos,
            total_qualified,
        });
    }
    // v1.1 trailing section: absent on a v1 frame (or an untraced
    // sender), so exhausting the payload here is a complete message.
    let trace = if r.remaining() == 0 {
        None
    } else {
        match r.u8("section.tag")? {
            TAG_TRACE => Some(TraceContext {
                trace_id: r.u64("trace.trace_id")?,
                parent_span: r.u64("trace.parent_span")?,
            }),
            other => return Err(WireError::BadTag(other)),
        }
    };
    Ok(ScatterRequest {
        request_id,
        policy,
        queries,
        trace,
    })
}

fn decode_name(r: &mut Reader<'_>) -> Result<String, WireError> {
    let len = r.u8("telemetry.name_len")?;
    if len > MAX_TELEMETRY_NAME {
        return Err(WireError::CapExceeded {
            field: "telemetry.name_len",
            got: len as u64,
            cap: MAX_TELEMETRY_NAME as u64,
        });
    }
    let bytes = r.take(len as usize, "telemetry.name")?;
    std::str::from_utf8(bytes)
        .map(str::to_string)
        .map_err(|_| WireError::BadName)
}

fn decode_telemetry(r: &mut Reader<'_>) -> Result<Telemetry, WireError> {
    let span_id = r.u64("telemetry.span_id")?;
    // Each counter is at least a name-length byte + 8 delta bytes.
    let ncounters = r.len("telemetry.counters", MAX_TELEMETRY_COUNTERS, 9)?;
    let mut counters = Vec::with_capacity(ncounters);
    for _ in 0..ncounters {
        let name = decode_name(r)?;
        let delta = r.u64("telemetry.counter_delta")?;
        counters.push((name, delta));
    }
    // Each hist is at least a name-length byte + a bucket-count byte.
    let nhists = r.len("telemetry.hists", MAX_TELEMETRY_HISTS, 2)?;
    let mut hists = Vec::with_capacity(nhists);
    for _ in 0..nhists {
        let name = decode_name(r)?;
        let nbuckets = r.u8("telemetry.hist_buckets")?;
        if nbuckets > MAX_TELEMETRY_BUCKETS {
            return Err(WireError::CapExceeded {
                field: "telemetry.hist_buckets",
                got: nbuckets as u64,
                cap: MAX_TELEMETRY_BUCKETS as u64,
            });
        }
        let mut counts = Vec::with_capacity(nbuckets as usize);
        for _ in 0..nbuckets {
            counts.push(r.u64("telemetry.bucket_count")?);
        }
        hists.push((name, counts));
    }
    // MetricsSnapshot lookups assume name-sorted entries; a cooperating
    // sender already sorts, a hostile one must not break the invariant.
    counters.sort();
    hists.sort();
    Ok(Telemetry {
        span_id,
        metrics: MetricsSnapshot { counters, hists },
    })
}

fn decode_response<Y: YieldFrame>(r: &mut Reader<'_>) -> Result<GatherResponse<Y>, WireError> {
    let request_id = r.u64("request_id")?;
    let node = r.u32("node")?;
    let busy_us = r.u64("busy_us")?;
    // Each query contributes at least its 4-byte yield count.
    let nqueries = r.len("response.queries", MAX_QUERIES, 4)?;
    let mut queries = Vec::with_capacity(nqueries);
    for _ in 0..nqueries {
        // Each yield is at least the 25-byte trivial form.
        let nyields = r.len("response.yields", MAX_YIELDS, 25)?;
        let mut yields = Vec::with_capacity(nyields);
        for _ in 0..nyields {
            yields.push(decode_yield(r)?);
        }
        queries.push(yields);
    }
    // v1.1 trailing section, absent on v1 / untraced-node frames.
    let telemetry = if r.remaining() == 0 {
        None
    } else {
        match r.u8("section.tag")? {
            TAG_TELEMETRY => Some(decode_telemetry(r)?),
            other => return Err(WireError::BadTag(other)),
        }
    };
    Ok(GatherResponse {
        request_id,
        node,
        busy_us,
        queries,
        telemetry,
    })
}

fn decode_yield<Y: YieldFrame>(r: &mut Reader<'_>) -> Result<Y, WireError> {
    match r.u8("yield.shape")? {
        SHAPE_TRIVIAL => {
            let device = r.u64("yield.device")?;
            let addresses_computed = r.u64("yield.addresses_computed")?;
            let simulated_us = f64::from_bits(r.u64("yield.simulated_us")?);
            let report = DeviceReport {
                device,
                qualified_buckets: 0,
                records: 0,
                addresses_computed,
                simulated_us,
                reconstructions: 0,
                outcome: DeviceOutcome::Ok,
            };
            return Ok(Y::from_parts(report, Y::Records::default(), Vec::new()));
        }
        SHAPE_FULL => {}
        other => return Err(WireError::BadShape(other)),
    }
    let device = r.u64("yield.device")?;
    let qualified_buckets = r.u64("yield.qualified_buckets")?;
    let records_count = r.u64("yield.records_count")?;
    let addresses_computed = r.u64("yield.addresses_computed")?;
    let simulated_us = f64::from_bits(r.u64("yield.simulated_us")?);
    let outcome = match r.u8("yield.outcome")? {
        0 => DeviceOutcome::Ok,
        1 => DeviceOutcome::Retried(0),
        2 => DeviceOutcome::FailedOver,
        3 => DeviceOutcome::Lost,
        4 => DeviceOutcome::Reconstructed,
        other => return Err(WireError::BadOutcome(other)),
    };
    let retries = r.u32("yield.retries")?;
    let outcome = match outcome {
        DeviceOutcome::Retried(_) => DeviceOutcome::Retried(retries),
        o => o,
    };
    let reconstructions = r.u32("yield.reconstructions")?;
    let nrecords = r.u32("yield.nrecords")?;
    if nrecords > MAX_RECORDS {
        return Err(WireError::CapExceeded {
            field: "yield.nrecords",
            got: nrecords as u64,
            cap: MAX_RECORDS as u64,
        });
    }
    let region_len = r.u32("yield.record_bytes")?;
    if region_len > MAX_RECORD_BYTES {
        return Err(WireError::CapExceeded {
            field: "yield.record_bytes",
            got: region_len as u64,
            cap: MAX_RECORD_BYTES as u64,
        });
    }
    let region = r.take(region_len as usize, "yield.record_region")?;
    let (records, got) = Y::read_region(region, nrecords as usize).map_err(WireError::Record)?;
    for want in [nrecords as u64, records_count] {
        if got != want {
            return Err(WireError::RecordCount {
                want,
                got: got as usize,
            });
        }
    }
    let nlost = r.len("yield.lost", MAX_LOST, 8)?;
    let mut lost = Vec::with_capacity(nlost);
    for _ in 0..nlost {
        lost.push(r.u64("yield.lost_code")?);
    }
    let report = DeviceReport {
        device,
        qualified_buckets,
        records: records_count,
        addresses_computed,
        simulated_us,
        reconstructions,
        outcome,
    };
    Ok(Y::from_parts(report, records, lost))
}

// ---------------------------------------------------------------------
// Framing (byte-stream transports)
// ---------------------------------------------------------------------

/// Writes one frame — `u32` LE payload length, then the payload — to a
/// byte stream.
///
/// # Errors
///
/// Payloads over [`MAX_FRAME_BYTES`] are refused (`InvalidInput`) rather
/// than shipped to a peer that must reject them; transport failures pass
/// through.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload {} exceeds cap {MAX_FRAME_BYTES}",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame from a byte stream: `Ok(None)` on clean EOF at a
/// frame boundary, [`WireError::Truncated`] on EOF mid-frame, and
/// [`WireError::CapExceeded`] — *before* the payload buffer is allocated
/// — when the length prefix exceeds [`MAX_FRAME_BYTES`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated { field: "frame.len" }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::CapExceeded {
            field: "frame.len",
            got: len as u64,
            cap: MAX_FRAME_BYTES as u64,
        });
    }
    let mut payload = vec![0u8; len as usize];
    let mut read = 0;
    while read < payload.len() {
        match r.read(&mut payload[read..]) {
            Ok(0) => {
                return Err(WireError::Truncated {
                    field: "frame.payload",
                })
            }
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(Some(payload))
}
