//! Parallel query execution over simulated devices.
//!
//! Every execution runs one pipeline: [`plan_query`] fixes the inverse
//! mapping, a chunk of devices enumerates the qualified buckets **once**
//! and routes each code to its device ([`route_planned`]), each device
//! reads its codes through one policy path (retry → mirror or parity
//! failover → lose), and the per-device yields merge into an
//! [`ExecutionReport`]. A device's share of a query is read through one
//! [`ShareReader`](crate::ShareReader): one fault-plan snapshot and one
//! store guard for the whole share instead of a lock round trip per
//! bucket, the guard released before any failover step so a thread
//! never holds two device guards. Every served page's stored bytes are
//! validated and copied into one region per share; a node ships that
//! region as is, and the merge copies the regions into the report's
//! [`RecordRegion`], indexing each record as it passes, so no path
//! decodes a record unless its caller asks. The simulated response time
//! is the maximum per-device time — the paper's symmetric-topology
//! assumption (§5.2.1): "the response time for a partial match query is
//! determined by the device which has the largest number of qualified
//! buckets". The [`CostModel`] computes it, so a device needs no thread
//! of its own.
//!
//! Two inverse mappings back the pipeline: the **generic scan** charges
//! every device `|R(q)|` address computations (`O(M · |R(q)|)` in total)
//! and works for any [`DistributionMethod`]; the **FX fast path**
//! ([`FxInverse`]) walks only the codes each device owns, `O(|R(q)|)` in
//! total: per device, one coset of the query's open-bit map, solved by
//! elimination and walked by one XOR per code. [`plan_query`] takes the
//! fast path on FX files (detected via [`DistributionMethod::as_fx`])
//! when the cost heuristic says its setup pays. Results are identical
//! either way — only `addresses_computed` differs, and it is the paper's
//! cost model, not the walk's own cost. Benches and tests that measure
//! one mapping override [`PlannedQuery::fast_path`] and run the plan
//! through [`Executor::execute_planned_raw`].
//!
//! [`execute_parallel`] (strict: a lost bucket is an error) and
//! [`execute_parallel_with`] (under an [`ExecPolicy`]: faults degrade
//! coverage) run one query on the calling thread. [`Executor`] pipelines
//! whole batches in at most one contiguous device chunk per core, the
//! first on the calling thread and the rest on resident workers
//! ([`pmr_rt::pool::resident`]); it also serves one node's device
//! subrange in a scatter/gather deployment.

use crate::cost::CostModel;
use crate::device::{Device, PageStore, ReadFault};
use crate::encode::{self, RecordRegion};
use crate::file::{DeclusteredFile, FileError};
use crate::mirror::Mirroring;
use crate::parity::ParityStore;
use pmr_core::inverse::{for_each_routed_code, pivot_field, FxInverse};
use pmr_core::method::DistributionMethod;
use pmr_core::{PartialMatchQuery, SystemConfig};
use pmr_mkh::Record;
use pmr_rt::fault::RetryPolicy;
use pmr_rt::obs::json::Object;
use pmr_rt::obs::{self, TraceSummary};
use pmr_rt::pool::resident::ResidentPool;
use std::fmt;
use std::ops::Range;
use std::sync::{mpsc, Arc};

/// How one device's share of a query was ultimately served.
///
/// Ordered by degradation severity: aggregation across a device's buckets
/// keeps the worst case (any lost bucket → [`DeviceOutcome::Lost`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceOutcome {
    /// Every bucket read succeeded first try.
    Ok,
    /// All buckets served from the primary, after this many retries.
    Retried(u32),
    /// At least one bucket was served from the buddy's mirror copy.
    FailedOver,
    /// At least one bucket was rebuilt from its Reed–Solomon parity
    /// stripe ([`crate::parity::ParityStore`]).
    Reconstructed,
    /// At least one bucket could not be served from any copy.
    Lost,
}

impl fmt::Display for DeviceOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceOutcome::Ok => write!(f, "ok"),
            DeviceOutcome::Retried(n) => write!(f, "retried({n})"),
            DeviceOutcome::FailedOver => write!(f, "failed_over"),
            DeviceOutcome::Reconstructed => write!(f, "reconstructed"),
            DeviceOutcome::Lost => write!(f, "lost"),
        }
    }
}

/// Which redundancy tier the degraded read path fails over through.
///
/// The tier must also be materialised on the file — a `Mirror` policy
/// reads buddy copies only after [`DeclusteredFile::enable_mirroring`],
/// and `Parity` reconstructs only after
/// [`DeclusteredFile::enable_parity`]. A mode whose data is absent
/// degrades honestly (buckets are lost), it never errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// No failover: primary copies only.
    None,
    /// Buddy mirroring (`d ⊕ M/2`): survives one outage at 2x storage.
    Mirror,
    /// `k + r` Reed–Solomon parity stripes: survives any `r`
    /// simultaneous outages at `~r/k` storage overhead.
    Parity {
        /// Data shards per stripe.
        k: u8,
        /// Parity shards per stripe.
        r: u8,
    },
}

impl fmt::Display for Redundancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Redundancy::None => write!(f, "none"),
            Redundancy::Mirror => write!(f, "mirror"),
            Redundancy::Parity { k, r } => write!(f, "parity({k},{r})"),
        }
    }
}

impl Redundancy {
    /// Parses the CLI redundancy spec: `none`, `mirror`, `parity`
    /// (the default `k = 4, r = 2` geometry), or `parity:K,R`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending spec.
    pub fn parse(spec: &str) -> Result<Redundancy, String> {
        match spec.trim() {
            "none" => Ok(Redundancy::None),
            "mirror" => Ok(Redundancy::Mirror),
            "parity" => Ok(Redundancy::Parity { k: 4, r: 2 }),
            other => {
                let geometry = other.strip_prefix("parity:").ok_or_else(|| {
                    format!("unknown redundancy {other:?} (expected none|mirror|parity[:K,R])")
                })?;
                let (k, r) = geometry
                    .split_once(',')
                    .ok_or_else(|| format!("parity geometry {geometry:?} is not K,R"))?;
                let k = k
                    .trim()
                    .parse::<u8>()
                    .map_err(|e| format!("bad parity k {k:?}: {e}"))?;
                let r = r
                    .trim()
                    .parse::<u8>()
                    .map_err(|e| format!("bad parity r {r:?}: {e}"))?;
                if k == 0 || r == 0 {
                    return Err(format!("parity geometry k={k} r={r}: both must be >= 1"));
                }
                Ok(Redundancy::Parity { k, r })
            }
        }
    }
}

/// Execution policy for the fault-aware path
/// ([`execute_parallel_with`]): how hard to retry, which redundancy tier
/// to fail over through, and the seed for backoff jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPolicy {
    /// Per-copy retry policy (backoff in simulated µs).
    pub retry: RetryPolicy,
    /// The tier that serves buckets the primary cannot (`None`: no
    /// failover); it must also be enabled on the file.
    pub redundancy: Redundancy,
    /// Seed for backoff jitter — conventionally the run's `PMR_SEED`, so
    /// retry schedules replay with the fault decisions.
    pub seed: u64,
}

impl Default for ExecPolicy {
    /// Default retry policy, failover through buddy mirroring, seed 0.
    fn default() -> Self {
        ExecPolicy {
            retry: RetryPolicy::default(),
            redundancy: Redundancy::Mirror,
            seed: 0,
        }
    }
}

impl ExecPolicy {
    /// `redundancy`. Kept only for `perfbench/`, which calls it; remove it
    /// when the benchmark is next rebuilt (ROADMAP item 1).
    pub fn effective_redundancy(&self) -> Redundancy {
        self.redundancy
    }
}

/// Per-device outcome of one query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device id.
    pub device: u64,
    /// Qualified buckets on this device (the paper's response size
    /// `r_i(q)`), counting empty buckets — the cost model charges per
    /// bucket *access*.
    pub qualified_buckets: u64,
    /// Records actually retrieved.
    pub records: u64,
    /// Bucket addresses this worker evaluated during inverse mapping.
    pub addresses_computed: u64,
    /// Simulated device time under the execution's cost model, including
    /// injected latency, retry backoff, failover reads, and parity
    /// reconstruction.
    pub simulated_us: f64,
    /// Buckets on this device rebuilt from their parity stripes (0
    /// everywhere except the `Redundancy::Parity` degraded path).
    pub reconstructions: u32,
    /// How this device's share was served (always [`DeviceOutcome::Ok`]
    /// on the strict, non-policy paths).
    pub outcome: DeviceOutcome,
}

/// Outcome of one parallel query execution.
///
/// `PartialEq` compares every field, including the simulated times
/// bit-for-bit — the equivalence contract between the strict, policy,
/// and batch executors is pinned with whole-report equality.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Per-device breakdown, indexed by device id.
    pub per_device: Vec<DeviceReport>,
    /// All retrieved records, concatenated in device order, as their
    /// validated stored bytes: read them through
    /// [`RecordRegion::iter`] and decode with
    /// [`RecordRegion::to_records`].
    pub records: RecordRegion,
    /// The largest response size `MAX(r_i(q))`.
    pub largest_response: u64,
    /// Simulated parallel response time: `max_i` device time.
    pub simulated_response_us: f64,
    /// Simulated serial time: `Σ_i` device time (what a single-device
    /// system would pay) — `serial / parallel` is the speedup.
    pub simulated_serial_us: f64,
    /// Fraction of `R(q)` actually served: `(qualified − lost) /
    /// qualified`, `1.0` for an empty query. Below `1.0` the execution is
    /// **degraded** — `records` is missing the lost buckets' contents.
    pub coverage: f64,
    /// Packed codes of the qualified buckets that could not be served
    /// from any copy, sorted. Empty on a fully-covered execution.
    pub lost_buckets: Vec<u64>,
    /// The policy's redundancy tier this execution failed over through
    /// ([`Redundancy::None`] on the strict paths).
    pub redundancy: Redundancy,
    /// What the observability layer recorded during this execution
    /// (counter deltas, spans) — `None` when tracing is off.
    pub trace: Option<TraceSummary>,
}

impl ExecutionReport {
    /// Parallel speedup over a serial scan of the same buckets:
    /// `serial / parallel`.
    ///
    /// Degenerate time combinations are clamped to `1.0` rather than
    /// producing `NaN` or `f64::INFINITY`: a zero parallel time means no
    /// device did measurable work, so nothing was sped up — this covers
    /// both the truly empty execution (`sum = 0` because `max = 0`) and
    /// externally constructed reports with inconsistent fields.
    pub fn speedup(&self) -> f64 {
        if self.simulated_response_us == 0.0 {
            1.0
        } else {
            self.simulated_serial_us / self.simulated_response_us
        }
    }

    /// The response histogram (qualified buckets per device).
    pub fn histogram(&self) -> Vec<u64> {
        self.per_device
            .iter()
            .map(|d| d.qualified_buckets)
            .collect()
    }

    /// `true` when every qualified bucket was served (possibly via
    /// retries or failover) — the negation of *degraded*.
    pub fn is_complete(&self) -> bool {
        self.lost_buckets.is_empty()
    }

    /// Total buckets served by parity reconstruction across all devices.
    pub fn reconstructions(&self) -> u64 {
        self.per_device
            .iter()
            .map(|d| u64::from(d.reconstructions))
            .sum()
    }

    /// Machine-readable rendering: one flat JSON object (the workspace's
    /// JSON-lines vocabulary), including the per-device breakdown and the
    /// [`TraceSummary`] when tracing was on. Retrieved records are
    /// summarised by count, not serialised.
    pub fn to_json(&self) -> String {
        let devices = self.per_device.iter().map(|d| {
            Object::new()
                .u64("device", d.device)
                .u64("qualified_buckets", d.qualified_buckets)
                .u64("records", d.records)
                .u64("addresses_computed", d.addresses_computed)
                .fixed("simulated_us", d.simulated_us, 3)
                .u64("reconstructions", u64::from(d.reconstructions))
                .str("outcome", &d.outcome.to_string())
                .finish()
        });
        let o = Object::new()
            .u64("largest_response", self.largest_response)
            .u64("records", self.records.len() as u64)
            .fixed("simulated_response_us", self.simulated_response_us, 3)
            .fixed("simulated_serial_us", self.simulated_serial_us, 3)
            .fixed("speedup", self.speedup(), 4)
            .fixed("coverage", self.coverage, 6)
            .str("redundancy", &self.redundancy.to_string())
            .u64("reconstructions", self.reconstructions())
            .u64s("lost_buckets", &self.lost_buckets)
            .json_array("per_device", devices);
        match &self.trace {
            Some(trace) => o.json("trace", &trace.to_json()),
            None => o.null("trace"),
        }
        .finish()
    }
}

/// One device's yield from one query with its records decoded: the
/// decoded form of a [`RawYield`] (`From` converts either way, exactly,
/// because the record encoding is canonical). The executor, the wire
/// and the frontend all run on [`RawYield`]; this form remains for
/// callers that build or read yields as records.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceYield {
    /// The per-device report that lands in `ExecutionReport::per_device`.
    pub report: DeviceReport,
    /// Records retrieved from this device, in bucket-enumeration order.
    pub records: Vec<Record>,
    /// Packed codes of qualified buckets this device could not serve.
    pub lost: Vec<u64>,
}

/// One device's yield from one query: its report, its records as the
/// served pages' stored bytes, and the packed codes of any buckets it
/// could not serve (always empty on the strict paths).
///
/// This is the partial-result unit of the executor: a full
/// [`ExecutionReport`] is exactly [`merge_raw_yields`] over the
/// per-device yields, so yields can cross process or wire boundaries
/// (a `pmr-net` node ships its region as it lies, the frontend
/// validates it on arrival) and merge back bit-equal to a
/// single-process execution. `region` is the served pages' bytes
/// exactly as stored, concatenated in bucket-enumeration order — the
/// [`crate::encode`] format a response frame carries — and
/// `report.records` counts the records in it.
#[derive(Debug, Clone, PartialEq)]
pub struct RawYield {
    /// The per-device report that lands in `ExecutionReport::per_device`.
    pub report: DeviceReport,
    /// The served pages' stored bytes, validated.
    pub region: Vec<u8>,
    /// Packed codes of qualified buckets this device could not serve.
    pub lost: Vec<u64>,
}

impl From<DeviceYield> for RawYield {
    fn from(y: DeviceYield) -> RawYield {
        let mut region = Vec::with_capacity(y.records.iter().map(encode::encoded_len).sum());
        for record in &y.records {
            encode::encode_record(record, &mut region);
        }
        RawYield {
            report: y.report,
            region,
            lost: y.lost,
        }
    }
}

impl From<RawYield> for DeviceYield {
    /// # Panics
    ///
    /// When the region does not decode: a `RawYield`'s region is
    /// validated.
    fn from(y: RawYield) -> DeviceYield {
        DeviceYield {
            records: encode::decode_all_bytes(&y.region, y.report.records as usize)
                .expect("a yield's region is validated"),
            report: y.report,
            lost: y.lost,
        }
    }
}

/// Merges per-device yields into a full [`ExecutionReport`] — the public
/// face of the executor's merge, for callers that gathered the yields
/// themselves (the `pmr-net` frontend, after collecting each node's
/// subrange).
/// Yields may arrive in any order and from any partition of the device
/// set; the merge orders them by device, so the result is bit-equal to a
/// single-process execution over the same devices. The `trace` slot is
/// always `None` (gathered yields carry no capture). `redundancy` must
/// be the redundancy tier of the policy the yields ran under, so
/// the merged report stays bit-equal to the local one.
///
/// # Panics
///
/// When a yield's region is not a valid record region; every
/// [`RawYield`] the executor and the wire decoder produce is validated.
pub fn merge_raw_yields(yields: Vec<RawYield>, redundancy: Redundancy) -> ExecutionReport {
    assemble(yields, redundancy, None)
}

/// [`merge_raw_yields`] over decoded yields: each yield's records are
/// encoded back into a region first.
pub fn merge_device_yields(yields: Vec<DeviceYield>, redundancy: Redundancy) -> ExecutionReport {
    merge_raw_yields(yields.into_iter().map(RawYield::from).collect(), redundancy)
}

/// Core aggregation shared by the one-shot entry points and the batch
/// executor: orders yields by device, concatenates their regions in
/// device order into the report's [`RecordRegion`] (so every path
/// reports records in the same order) — the first region holding
/// records is taken over without a copy, the rest are copied, each
/// indexed by one validate-and-index walk and none decoded — and
/// derives the report-level aggregates. The `f64` folds run in device
/// order — part of the bit-equality contract between the executors.
fn assemble(
    mut yields: Vec<RawYield>,
    redundancy: Redundancy,
    capture: Option<obs::TraceCapture>,
) -> ExecutionReport {
    yields.sort_by_key(|y| y.report.device);
    let (bytes, count, lost) = yields.iter().fold((0, 0, 0), |(b, n, l), y| {
        (
            b + y.region.len(),
            n + y.report.records as usize,
            l + y.lost.len(),
        )
    });
    let mut per_device = Vec::with_capacity(yields.len());
    let mut records = RecordRegion::new();
    let mut lost_buckets = Vec::with_capacity(lost);
    let invalid = "a yield's region is validated";
    for RawYield {
        report,
        region,
        lost: mut lost_codes,
    } in yields
    {
        per_device.push(report);
        if records.is_empty() {
            // The first region holding records becomes the report's,
            // grown in place for the rest.
            if !region.is_empty() {
                records = RecordRegion::from_bytes(region).expect(invalid);
                records.reserve(bytes, count);
            }
        } else {
            records.extend_validated(&region).expect(invalid);
        }
        lost_buckets.append(&mut lost_codes);
    }
    lost_buckets.sort_unstable();
    let largest_response = per_device
        .iter()
        .map(|d| d.qualified_buckets)
        .max()
        .unwrap_or(0);
    let simulated_response_us = per_device
        .iter()
        .map(|d| d.simulated_us)
        .fold(0.0f64, f64::max);
    let simulated_serial_us: f64 = per_device.iter().map(|d| d.simulated_us).sum();
    let total_qualified: u64 = per_device.iter().map(|d| d.qualified_buckets).sum();
    let coverage = if total_qualified == 0 {
        1.0
    } else {
        (total_qualified - lost_buckets.len() as u64) as f64 / total_qualified as f64
    };
    if coverage < 1.0 {
        obs::EXEC_DEGRADED.add(1);
    }
    if obs::enabled() {
        obs::EXEC_ADDRESSES_COMPUTED.add(per_device.iter().map(|d| d.addresses_computed).sum());
        obs::EXEC_QUALIFIED_BUCKETS.add(total_qualified);
        obs::EXEC_SIMULATED_RESPONSE_US.observe_us(simulated_response_us);
    }
    ExecutionReport {
        per_device,
        records,
        largest_response,
        simulated_response_us,
        simulated_serial_us,
        coverage,
        lost_buckets,
        redundancy,
        trace: capture.map(obs::TraceCapture::finish),
    }
}

/// Estimated fixed overhead of the FX fast path, in address-computation
/// units: preparing the [`FxInverse`] (the XOR constant and the
/// elimination of the open bits) costs roughly this many
/// `device_of_packed` evaluations.
/// Calibrated against the recorded `exec_fast_path` bench group, where
/// narrow queries (`|R(q)| = 8` on an `M = 8` system) measured faster
/// under the brute scan and wide ones under the fast inverse. It feeds
/// only the dispatch decision; the address charge stays the paper's
/// (see [`PlannedQuery::addresses_computed`]).
const FAST_PATH_SETUP_ADDR: u64 = 96;

/// The strict contract as a policy: one attempt per bucket, no failover.
/// With no fault plan installed — strict callers install none — a bucket
/// is lost only when its page is corrupt at rest.
const STRICT: ExecPolicy = ExecPolicy {
    retry: RetryPolicy::none(),
    redundancy: Redundancy::None,
    seed: 0,
};

/// Executes `query` against `file`, strictly: every qualified bucket must
/// decode. Runs the batch pipeline for one query on the calling thread,
/// with the inverse mapping [`plan_query`] picks (the FX fast inverse or
/// the generic packed scan). Strict callers install no fault plan;
/// under one, an injected fault loses its bucket (one attempt, no
/// failover) and degrades the report instead of erroring.
///
/// # Errors
///
/// [`FileError::Decode`] for the first bucket, in device order, whose
/// page is corrupt at rest — the error a plain
/// [`Device::read_bucket`] of that page raises.
pub fn execute_parallel<D: DistributionMethod>(
    file: &DeclusteredFile<D>,
    query: &PartialMatchQuery,
    cost: &CostModel,
) -> Result<ExecutionReport, FileError> {
    execute_one(file, query, cost, &STRICT, true)
}

/// Executes `query` under an [`ExecPolicy`]: the fault-aware, gracefully
/// degrading path, one query on the calling thread.
///
/// Each qualified bucket is read with per-attempt fault decisions from
/// the devices' installed [`pmr_rt::fault::FaultPlan`] (none installed →
/// clean reads). Transient faults are retried per `policy.retry`, with
/// capped exponential backoff charged to the *simulated* clock. When the
/// primary copy is exhausted and `policy.redundancy` names a tier, the
/// read fails over to the buddy's mirror copy (requires
/// [`DeclusteredFile::enable_mirroring`]) or rebuilds the page from its
/// parity stripe (requires [`DeclusteredFile::enable_parity`]). Buckets
/// no copy can serve degrade the report — `coverage < 1.0` and their
/// codes land in `lost_buckets` — instead of erroring: a partial answer
/// with an honest account beats no answer.
///
/// With no fault plan and no redundancy this produces the same report as
/// [`execute_parallel`] (outcomes all [`DeviceOutcome::Ok`]), except that
/// a genuinely corrupt page at rest is *lost* (degrading coverage) rather
/// than failing the whole execution.
///
/// # Errors
///
/// None today: faults never error this path.
pub fn execute_parallel_with<D: DistributionMethod>(
    file: &DeclusteredFile<D>,
    query: &PartialMatchQuery,
    cost: &CostModel,
    policy: &ExecPolicy,
) -> Result<ExecutionReport, FileError> {
    execute_one(file, query, cost, policy, false)
}

/// The one-shot front end to the batch pipeline: plan, run the whole
/// device range as one chunk here, merge. `strict` turns the first lost
/// bucket into its decode error.
fn execute_one<D: DistributionMethod>(
    file: &DeclusteredFile<D>,
    query: &PartialMatchQuery,
    cost: &CostModel,
    policy: &ExecPolicy,
    strict: bool,
) -> Result<ExecutionReport, FileError> {
    let sys = file.system();
    let m = sys.devices();
    let capture = obs::capture();
    let planned = [plan_query(sys, file.method(), query)];
    let _span = pmr_rt::span!(
        obs::EXEC_QUERY,
        devices = m,
        qualified = planned[0].total_qualified
    );
    count_dispatch(&planned);
    let inputs = Inputs {
        devices: file.devices(),
        sys,
        method: file.method(),
        mirroring: file.mirroring().copied(),
        parity: file.parity().map(|p| p.as_ref()),
        cost,
    };
    let yields = run_chunk(&inputs, policy, &planned, 0..m)
        .pop()
        .expect("one share per query");
    if strict {
        // Strict installs no fault plan, so a lost bucket's page is
        // corrupt at rest: re-reading it raises the error to report.
        for y in &yields {
            for &code in &y.lost {
                file.devices()[y.report.device as usize]
                    .read_bucket(code)
                    .map_err(FileError::Decode)?;
            }
        }
    }
    Ok(assemble(yields, policy.redundancy, capture))
}

/// Counts each planned query under the inverse mapping it dispatches.
fn count_dispatch(planned: &[PlannedQuery]) {
    let fast = planned.iter().filter(|p| p.fast_path).count() as u64;
    if fast > 0 {
        obs::EXEC_FAST_PATH_DISPATCHED.add(fast);
    }
    if fast < planned.len() as u64 {
        obs::EXEC_SCAN_DISPATCHED.add(planned.len() as u64 - fast);
    }
}

/// The failover targets one device's degraded read may fall back to,
/// per the policy's [`Redundancy`]: a mirror buddy, a parity store,
/// or neither.
#[derive(Clone, Copy)]
struct FailoverPath<'a> {
    /// Buddy device id when mirroring is in effect.
    buddy: Option<u64>,
    /// Stripe store when the tier is parity.
    parity: Option<&'a ParityStore>,
}

/// Reads every code on one device under the policy: retry → failover
/// (mirror buddy *or* parity reconstruction, per the policy's
/// redundancy) → lose. Every page served — read from a primary or
/// mirror store ([`crate::ShareReader::copy_attempt`]) or rebuilt from
/// its stripe — has passed a validation walk and is appended, as
/// stored, to the yield's one region, so a page corrupt at rest fails
/// over exactly as a failed decode would.
///
/// The primary pass reads runs ([`crate::ShareReader::copy_run`]): each
/// serves codes up to the first one whose first attempt would fault or
/// fail its walk, and that code alone takes the per-code path. The next
/// run starts after a code the primary served; after one it failed, the
/// next code takes the per-code path too, so a dead device pays no run
/// that would stop at once. With no fault plan and no corrupt page a
/// share is one run.
///
/// The whole share reads through one primary share reader, opened on
/// its first code. It releases its store guard before any failover step
/// and takes it again on its next admitted read, so this thread never
/// holds two device guards at once: a parity rebuild reads the home
/// device's own store too, and re-entering a read lock this thread
/// holds would deadlock behind a queued writer.
fn resilient_device_read(
    devices: &[Arc<Device>],
    device: u64,
    codes: &[u64],
    failover: FailoverPath<'_>,
    cost: &CostModel,
    policy: &ExecPolicy,
    addresses_computed: u64,
) -> RawYield {
    let FailoverPath { buddy, parity } = failover;
    let dev = &devices[device as usize];
    let mut region = Vec::new();
    let mut records = 0u64;
    let mut lost = Vec::new();
    let mut extra_us = 0.0f64;
    let mut retries_total = 0u32;
    let mut failed_over = false;
    let mut reconstructions = 0u32;
    let mut primary = None;
    let mut next = 0;
    let mut run_first = true;
    while next < codes.len() {
        let primary = primary.get_or_insert_with(|| dev.reader(PageStore::Primary));
        if run_first {
            let (run, run_records) = primary.copy_run(&codes[next..], &mut region);
            records += run_records;
            next += run;
        }
        // The run stopped before `code`, or the previous code failed: it
        // takes the per-code path.
        let Some(&code) = codes.get(next) else {
            break;
        };
        next += 1;
        let (served, primary_us, primary_retries) =
            read_with_retry(policy, device, code, |attempt| {
                let read = primary.copy_attempt(code, attempt, &mut region)?;
                records += read.records;
                Ok(read.injected_latency_us)
            });
        extra_us += primary_us;
        retries_total += primary_retries;
        run_first = served;
        if served {
            continue;
        }
        primary.release();
        if let Some(buddy_id) = buddy {
            let mut mirror = devices[buddy_id as usize].reader(PageStore::Mirror);
            let (served, mirror_us, mirror_retries) =
                read_with_retry(policy, buddy_id, code, |attempt| {
                    let read = mirror.copy_attempt(code, attempt, &mut region)?;
                    records += read.records;
                    Ok(read.injected_latency_us)
                });
            // The failover read and its backoff are charged to the home
            // worker — it is the one waiting on the bucket.
            extra_us += mirror_us + cost.device_time_us(1, 0);
            retries_total += mirror_retries;
            if served {
                obs::EXEC_FAILOVER.add(1);
                failed_over = true;
                continue;
            }
        }
        if let Some(store) = parity {
            // Degraded read: rebuild the page from its stripe's surviving
            // shards. The shard reads and their injected latency are
            // charged to the home worker, like the mirror failover.
            if let Ok(page) = store.rebuild(devices, code, 0) {
                if let Ok(rebuilt) = encode::validate_region(&page.bytes) {
                    records += rebuilt;
                    region.extend_from_slice(&page.bytes);
                    let charge = cost.device_time_us(u64::from(page.shard_reads), 0)
                        + page.injected_latency_us as f64;
                    extra_us += charge;
                    obs::EXEC_RECONSTRUCTIONS.add(1);
                    obs::EXEC_RECONSTRUCT_US.observe_us(charge);
                    reconstructions += 1;
                    continue;
                }
            }
        }
        lost.push(code);
    }
    let qualified_buckets = codes.len() as u64;
    let simulated_us = cost.device_time_us(qualified_buckets, addresses_computed) + extra_us;
    obs::EXEC_DEVICE_SIMULATED_US.observe_us(simulated_us);
    let outcome = if !lost.is_empty() {
        DeviceOutcome::Lost
    } else if reconstructions > 0 {
        DeviceOutcome::Reconstructed
    } else if failed_over {
        DeviceOutcome::FailedOver
    } else if retries_total > 0 {
        DeviceOutcome::Retried(retries_total)
    } else {
        DeviceOutcome::Ok
    };
    let report = DeviceReport {
        device,
        qualified_buckets,
        records,
        addresses_computed,
        simulated_us,
        reconstructions,
        outcome,
    };
    RawYield {
        report,
        region,
        lost,
    }
}

/// One copy's retry loop: attempts `read(attempt)` up to
/// `policy.retry.max_attempts` times, charging jittered backoff between
/// attempts to the simulated clock, bounded by the policy's backoff
/// budget. Outages short-circuit (retrying a dead device cannot help).
/// `read` returns the attempt's injected latency on success. Returns
/// `(served, simulated µs charged, retries performed)`.
fn read_with_retry<F>(policy: &ExecPolicy, device: u64, code: u64, mut read: F) -> (bool, f64, u32)
where
    F: FnMut(u32) -> Result<u64, ReadFault>,
{
    let mut charged_us = 0.0f64;
    let mut backoff_spent = 0u64;
    let mut retries = 0u32;
    let mut attempt = 0u32;
    loop {
        match read(attempt) {
            Ok(injected_latency_us) => {
                charged_us += injected_latency_us as f64;
                return (true, charged_us, retries);
            }
            Err(ReadFault::Outage) => return (false, charged_us, retries),
            Err(_) => {
                let next = attempt + 1;
                if next >= policy.retry.max_attempts {
                    return (false, charged_us, retries);
                }
                let backoff = policy.retry.backoff_us(next, policy.seed, device, code);
                if policy.retry.budget_us > 0
                    && backoff_spent.saturating_add(backoff) > policy.retry.budget_us
                {
                    // Budget exhausted: forfeit the remaining attempts.
                    return (false, charged_us, retries);
                }
                backoff_spent += backoff;
                charged_us += backoff as f64;
                retries += 1;
                obs::EXEC_RETRIES.add(1);
                obs::EXEC_RETRY_DELAY_US.observe_us(backoff as f64);
                attempt = next;
            }
        }
    }
}

/// Break-even for fanning a batch out across threads, in qualified
/// buckets per batch (the executor's expected share of `Σ |R(q)|`).
/// Below it the whole device range runs as one chunk on the calling
/// thread: waking a resident worker and collecting its result costs
/// about as much as serving this many buckets inline. Calibrated like
/// [`FAST_PATH_SETUP_ADDR`]: on a 2-core x86-64 host, batches of 1–256
/// queries with 0–3 open fields on the Table 7 file (20k records,
/// mirrored) ran one chunk against two. Two chunks lost on every mix
/// below ~1,000 qualified buckets and won or tied on every mix from
/// 2,048 on.
const FAN_OUT_BREAK_EVEN: u64 = 2048;

/// A resident query executor: the paper's `M` per-device workers, carried
/// by at most one thread per core and fed whole batches, so a stream of
/// queries pays no thread spawn/join.
///
/// [`Executor::new`] snapshots the file's devices, method, mirroring
/// pairing, and a cost model; [`Executor::execute_batch`] then pipelines
/// any number of queries through the devices. Devices are shared by
/// `Arc`, so a [`pmr_rt::fault::FaultPlan`] installed on the file *after*
/// construction is honoured. The mirroring pairing, by contrast, is
/// snapshotted — construct the executor after
/// [`DeclusteredFile::enable_mirroring`].
///
/// **Threads.** The device range splits into `min(cores, devices)`
/// contiguous *chunks* (`cores` is `available_parallelism`, read once at
/// construction). Chunk 0 runs on the calling thread; the others run on
/// resident workers ([`pmr_rt::pool::resident`]), so a pinned or
/// single-core process starts no worker at all. A batch qualifying fewer
/// buckets than `FAN_OUT_BREAK_EVEN` runs as one chunk on the caller:
/// there the hand-off costs more than the reads it would spread. Within
/// a chunk each query is enumerated **once** and its codes routed to the
/// chunk's devices ([`for_each_routed_code`],
/// [`FxInverse::for_each_routed_code`]); every device then reads its
/// codes through the same policy path as [`execute_parallel_with`].
///
/// Fault-free batch reports are bit-equal to per-query
/// [`execute_parallel_with`] (the same pipeline run as one chunk, which
/// itself matches the strict [`execute_parallel`]) at every chunk count:
/// same records in the same order, same per-device reports, same
/// simulated times. The one
/// exception is `trace`, always `None` on batch reports — per-query trace
/// capture would serialise the pipeline.
///
/// An executor can also serve a contiguous *subrange* of the device set
/// ([`Executor::for_device_range`]) — one node's share of a
/// scatter/gather deployment. Planning ([`plan_query`]), subrange
/// execution ([`Executor::execute_planned_raw`]), and merging
/// ([`merge_raw_yields`]) are exposed separately so the split-out
/// pipeline reproduces `execute_batch` bit-for-bit.
pub struct Executor<D> {
    shared: Arc<Shared<D>>,
    /// Devices this executor serves. `shared.devices` always spans the
    /// full system — buddy failover may read another device's mirror
    /// pages even when that device executes elsewhere.
    range: Range<u64>,
    /// Contiguous chunks a wide batch splits the range into.
    chunks: usize,
    /// Batches below this many expected qualified buckets run as one
    /// chunk ([`FAN_OUT_BREAK_EVEN`]; `0` under [`Executor::with_chunks`]).
    break_even: u64,
    /// Resident workers for chunks `1..chunks`; `None` with one chunk.
    pool: Option<ResidentPool>,
}

/// The executor's immutable snapshot, shared with its resident workers.
struct Shared<D> {
    devices: Vec<Arc<Device>>,
    sys: SystemConfig,
    method: D,
    mirroring: Option<Mirroring>,
    parity: Option<Arc<ParityStore>>,
    cost: CostModel,
}

/// A query plus the batch executor's dispatch decision, computed once on
/// (and shippable from) the planning side.
///
/// [`plan_query`] is the planning half of [`Executor::execute_batch`],
/// split out so a scatter/gather frontend plans each query once and
/// ships the decision to every node instead of re-running the cost
/// heuristic per node. `fast_path` fixes the inverse mapping (FX fast
/// inverse vs generic scan) and `free_combos`/`total_qualified` fix the
/// `addresses_computed` accounting, so any executor honouring the plan
/// produces per-device yields bit-equal to a local run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// The validated query.
    pub query: PartialMatchQuery,
    /// `true` → dispatch the FX fast inverse; `false` → generic scan.
    pub fast_path: bool,
    /// Per-device lookup charge on the fast path (`|R(q)| / F_pivot`,
    /// one per setting of the non-pivot open fields, as the paper's
    /// inverse counts it); `1` when there is no pivot.
    pub free_combos: u64,
    /// `|R(q)|` — the generic scan's per-device address charge.
    pub total_qualified: u64,
}

impl PlannedQuery {
    /// `addresses_computed` charged to a device that owns `owned` of the
    /// query's qualified buckets: one lookup per free-field setting plus
    /// its owned buckets on the fast path, or the generic scan's full
    /// `|R(q)|`. This is the paper's cost model, kept fixed so
    /// simulated times do not move with the walk: the coset walk itself
    /// costs one pass over the rows per device range, then one XOR per
    /// owning device and one per owned bucket.
    pub fn addresses_computed(&self, owned: u64) -> u64 {
        if self.fast_path {
            self.free_combos + owned
        } else {
            self.total_qualified
        }
    }
}

/// The yield of a device on which `planned` qualifies no bucket: `Ok`,
/// no buckets, no records, and only the plan's address charge for an
/// owner of nothing. Exactly what the executor's read path returns for an
/// empty code list, so a scatter/gather frontend can fill in the devices
/// it never asked without changing a bit of the merged report.
pub fn idle_yield(planned: &PlannedQuery, device: u64, cost: &CostModel) -> RawYield {
    let addresses_computed = planned.addresses_computed(0);
    RawYield {
        report: DeviceReport {
            device,
            qualified_buckets: 0,
            records: 0,
            addresses_computed,
            simulated_us: cost.device_time_us(0, addresses_computed),
            reconstructions: 0,
            outcome: DeviceOutcome::Ok,
        },
        region: Vec::new(),
        lost: Vec::new(),
    }
}

/// Plans one query for `method`: the dispatch decision and the
/// address-accounting inputs, without executing anything.
///
/// The FX fast inverse is taken only when its estimated address work
/// undercuts the generic scan's `M · |R(q)|`: `|R(q)|` (each qualified
/// bucket enumerated exactly once across all devices) plus `M` lookups
/// per free-field combination (`free_combos = |R(q)| / F_pivot`), plus a
/// fixed setup charge (`FAST_PATH_SETUP_ADDR`). That estimate is the
/// paper's cost model, not the coset walk's cost (one elimination, then
/// one XOR per owning device and one per owned code); it stays fixed so
/// the dispatch and `addresses_computed` — hence every simulated time —
/// do not move with the implementation. On narrow queries the setup
/// dominates and the scan wins — dispatching those onto the fast path anyway was the
/// `exec_fast_path/dispatch_narrow` regression. The pivot comes from
/// [`pivot_field`], a pure function of the system and the pattern, so
/// planning builds no inverse and touches no shared state.
pub fn plan_query<D: DistributionMethod>(
    sys: &SystemConfig,
    method: &D,
    query: &PartialMatchQuery,
) -> PlannedQuery {
    let total_qualified = query.qualified_count_in(sys);
    let (fast_path, free_combos) = if method.as_fx().is_some() {
        let free_combos = match pivot_field(sys, query.pattern()) {
            Some(p) => total_qualified / sys.field_size(p),
            None => 1,
        };
        let m = sys.devices();
        let fast = FAST_PATH_SETUP_ADDR + total_qualified + m * free_combos < m * total_qualified;
        (fast, free_combos)
    } else {
        (false, 1)
    };
    PlannedQuery {
        query: query.clone(),
        fast_path,
        free_combos,
        total_qualified,
    }
}

/// Enumerates `planned`'s qualified buckets on the devices in `devices`
/// **once** — the FX fast inverse or the generic scan, as planned — and
/// routes each code to `codes[device - devices.start]`, in the order the
/// per-device enumeration visits them. `codes` must hold one buffer per
/// device of the range; they are cleared first.
pub fn route_planned<D: DistributionMethod + ?Sized>(
    sys: &SystemConfig,
    method: &D,
    planned: &PlannedQuery,
    devices: Range<u64>,
    codes: &mut [Vec<u64>],
) {
    debug_assert_eq!(codes.len() as u64, devices.end - devices.start);
    for c in codes.iter_mut() {
        c.clear();
    }
    let start = devices.start;
    let route = |device: u64, code: u64| codes[(device - start) as usize].push(code);
    if planned.fast_path {
        let fx = method.as_fx().expect("a fast plan implies an FX method");
        FxInverse::new(fx, &planned.query).for_each_routed_code(devices, route);
    } else {
        for_each_routed_code(method, sys, &planned.query, devices, route);
    }
}

impl<D: DistributionMethod + Clone + Send + Sync + 'static> Executor<D> {
    /// Builds an executor over all `M` devices of `file`'s system (see
    /// the type docs for what is shared vs snapshotted).
    pub fn new(file: &DeclusteredFile<D>, cost: CostModel) -> Executor<D> {
        let m = file.system().devices();
        Self::for_device_range(file, cost, 0..m)
    }

    /// Builds an executor for the devices in `range` only — one node's
    /// share of a scatter/gather deployment. The executor still
    /// snapshots every device (buddy failover reads mirror pages that may
    /// live outside the range), but only `range`'s devices execute, so
    /// [`Executor::execute_planned_raw`] yields exactly that subrange.
    ///
    /// # Panics
    ///
    /// When `range` is empty or extends past the system's device count.
    pub fn for_device_range(
        file: &DeclusteredFile<D>,
        cost: CostModel,
        range: Range<u64>,
    ) -> Executor<D> {
        let sys = file.system().clone();
        assert!(
            range.start < range.end && range.end <= sys.devices(),
            "device range {range:?} invalid for M = {}",
            sys.devices()
        );
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let exec = Executor {
            shared: Arc::new(Shared {
                devices: file.devices().to_vec(),
                sys,
                method: file.method().clone(),
                mirroring: file.mirroring().copied(),
                parity: file.parity().cloned(),
                cost,
            }),
            range,
            chunks: 1,
            break_even: FAN_OUT_BREAK_EVEN,
            pool: None,
        };
        exec.chunked(cores)
    }

    /// Test seam: splits every batch into `chunks` contiguous chunks
    /// (clamped to `1..=devices`), whatever its size — the batch ≡ serial
    /// properties run each chunk count through this.
    #[doc(hidden)]
    pub fn with_chunks(self, chunks: usize) -> Executor<D> {
        Executor {
            break_even: 0,
            ..self.chunked(chunks)
        }
    }

    /// Re-sizes the chunking to `min(chunks, devices)` and starts the
    /// resident workers the extra chunks need.
    fn chunked(mut self, chunks: usize) -> Executor<D> {
        self.chunks = chunks.clamp(1, self.workers() as usize);
        self.pool = (self.chunks > 1).then(|| ResidentPool::new(self.chunks - 1));
        self
    }

    /// Number of devices this executor serves (`M`, or the subrange
    /// length) — the paper's per-device workers, however many threads
    /// carry them.
    pub fn workers(&self) -> u64 {
        self.range.end - self.range.start
    }

    /// Executes a batch of queries, pipelined: each chunk of devices
    /// receives the whole batch at once and enumerates every query once
    /// for all of its devices. Reports come back in query order.
    ///
    /// Fault handling is [`execute_parallel_with`]'s policy path running
    /// unchanged per device — degraded coverage, never an error.
    ///
    /// # Panics
    ///
    /// Re-raises a resident worker's panic on the calling thread.
    pub fn execute_batch(
        &self,
        queries: &[PartialMatchQuery],
        policy: &ExecPolicy,
    ) -> Vec<ExecutionReport> {
        if queries.is_empty() {
            return Vec::new();
        }
        let planned: Vec<PlannedQuery> = queries
            .iter()
            .map(|q| plan_query(&self.shared.sys, &self.shared.method, q))
            .collect();
        self.execute_planned_raw(&planned, policy)
            .into_iter()
            .map(|yields| merge_raw_yields(yields, policy.redundancy))
            .collect()
    }

    /// Executes pre-planned queries over this executor's device range and
    /// returns the unmerged per-device yields: one `Vec` per query, in query
    /// order, each sorted by device.
    ///
    /// This is the node half of the scatter/gather split and the one
    /// batch pipeline: a frontend plans once ([`plan_query`]), every
    /// node executes its subrange, and the gathered yields merge
    /// ([`merge_raw_yields`]) into reports bit-equal to a full-range
    /// [`Executor::execute_batch`] — same records in the same order, same
    /// per-device reports, same simulated times. The range splits into
    /// chunks: chunk 0 runs here, the rest on resident workers, and each
    /// query's yields are stitched back together in device order.
    ///
    /// # Panics
    ///
    /// Re-raises a worker panic on the calling thread, like
    /// [`Executor::execute_batch`].
    pub fn execute_planned_raw(
        &self,
        planned: &[PlannedQuery],
        policy: &ExecPolicy,
    ) -> Vec<Vec<RawYield>> {
        if planned.is_empty() {
            return Vec::new();
        }
        let devices = self.workers();
        let _span = pmr_rt::span!(
            obs::EXEC_BATCH,
            queries = planned.len() as u64,
            devices = devices
        );
        obs::EXEC_BATCH_QUERIES.add(planned.len() as u64);
        count_dispatch(planned);
        // The range's expected share of the batch's qualified buckets.
        let qualified = planned.iter().map(|p| p.total_qualified).sum::<u64>() * devices
            / self.shared.sys.devices();
        let inputs = self.shared.inputs();
        let pool = match &self.pool {
            Some(pool) if qualified >= self.break_even => pool,
            _ => return run_chunk(&inputs, policy, planned, self.range.clone()),
        };
        let chunk = |i: usize| {
            let at = |i: usize| self.range.start + devices * i as u64 / self.chunks as u64;
            at(i)..at(i + 1)
        };
        let batch = Arc::new((policy.clone(), planned.to_vec()));
        let (tx, rx) = mpsc::channel::<(usize, Vec<Vec<RawYield>>)>();
        for i in 1..self.chunks {
            let (shared, batch, tx, range) = (
                Arc::clone(&self.shared),
                Arc::clone(&batch),
                tx.clone(),
                chunk(i),
            );
            pool.submit(i - 1, move || {
                let yields = run_chunk(&shared.inputs(), &batch.0, &batch.1, range);
                // Collector gone (batch abandoned) is fine to ignore.
                let _ = tx.send((i, yields));
            });
        }
        drop(tx);
        let mut by_chunk: Vec<Option<Vec<Vec<RawYield>>>> =
            (0..self.chunks).map(|_| None).collect();
        by_chunk[0] = Some(run_chunk(&inputs, policy, planned, chunk(0)));
        for (i, yields) in rx {
            by_chunk[i] = Some(yields);
        }
        let Some(chunks) = by_chunk.into_iter().collect::<Option<Vec<_>>>() else {
            // A worker died mid-batch; surface its panic here.
            if let Some(payload) = pool.take_panic() {
                std::panic::resume_unwind(payload);
            }
            panic!("resident worker stopped without reporting a panic");
        };
        // Chunks are contiguous and in device order, so appending each
        // chunk's share of a query gives its yields sorted by device.
        let mut chunks: Vec<_> = chunks.into_iter().map(Vec::into_iter).collect();
        (0..planned.len())
            .map(|_| {
                let mut yields = Vec::with_capacity(devices as usize);
                for c in &mut chunks {
                    yields.extend(c.next().expect("one share per query per chunk"));
                }
                yields
            })
            .collect()
    }
}

/// What a chunk reads with, borrowed from a file ([`execute_parallel`])
/// or from an executor's [`Shared`] snapshot: nothing is cloned per call.
struct Inputs<'a, D> {
    devices: &'a [Arc<Device>],
    sys: &'a SystemConfig,
    method: &'a D,
    mirroring: Option<Mirroring>,
    parity: Option<&'a ParityStore>,
    cost: &'a CostModel,
}

impl<D> Shared<D> {
    fn inputs(&self) -> Inputs<'_, D> {
        Inputs {
            devices: &self.devices,
            sys: &self.sys,
            method: &self.method,
            mirroring: self.mirroring,
            parity: self.parity.as_deref(),
            cost: &self.cost,
        }
    }
}

/// One chunk's share of a batch: for each query, enumerate its qualified
/// buckets once for the whole chunk ([`route_planned`]), then read each
/// device's codes under the policy. Returns, per query, the chunk's
/// yields in device order. The code buffers live for the whole batch.
fn run_chunk<D: DistributionMethod>(
    inputs: &Inputs<'_, D>,
    policy: &ExecPolicy,
    planned: &[PlannedQuery],
    devices: Range<u64>,
) -> Vec<Vec<RawYield>> {
    let buddies = inputs
        .mirroring
        .filter(|_| policy.redundancy == Redundancy::Mirror);
    let parity = inputs
        .parity
        .filter(|_| matches!(policy.redundancy, Redundancy::Parity { .. }));
    let mut codes = vec![Vec::new(); (devices.end - devices.start) as usize];
    planned
        .iter()
        .map(|p| {
            route_planned(inputs.sys, inputs.method, p, devices.clone(), &mut codes);
            devices
                .clone()
                .zip(&codes)
                .map(|(device, device_codes)| {
                    let _span = pmr_rt::span!(obs::EXEC_DEVICE, device = device);
                    resilient_device_read(
                        inputs.devices,
                        device,
                        device_codes,
                        FailoverPath {
                            buddy: buddies.map(|b| b.buddy_of(device)),
                            parity,
                        },
                        inputs.cost,
                        policy,
                        p.addresses_computed(device_codes.len() as u64),
                    )
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_core::FxDistribution;
    use pmr_mkh::{FieldType, Record, Schema, Value};

    #[test]
    fn execution_report_json_is_pinned() {
        let device = |device, outcome| DeviceReport {
            device,
            qualified_buckets: 4,
            records: 9,
            addresses_computed: 16,
            simulated_us: 123.456_7,
            reconstructions: 1,
            outcome,
        };
        let traced = ExecutionReport {
            per_device: vec![
                device(0, DeviceOutcome::Ok),
                device(1, DeviceOutcome::Retried(2)),
            ],
            records: RecordRegion::new(),
            largest_response: 4,
            simulated_response_us: 123.456_7,
            simulated_serial_us: 246.913_4,
            coverage: 0.987_654_32,
            lost_buckets: vec![17, 40],
            redundancy: Redundancy::Parity { k: 4, r: 2 },
            trace: Some(TraceSummary {
                spans: 3,
                counters: vec![("exec.retries", 2)],
            }),
        };
        assert_eq!(traced.to_json(), "{\"largest_response\":4,\"records\":0,\"simulated_response_us\":123.457,\"simulated_serial_us\":246.913,\"speedup\":2.0000,\"coverage\":0.987654,\"redundancy\":\"parity(4,2)\",\"reconstructions\":2,\"lost_buckets\":[17,40],\"per_device\":[{\"device\":0,\"qualified_buckets\":4,\"records\":9,\"addresses_computed\":16,\"simulated_us\":123.457,\"reconstructions\":1,\"outcome\":\"ok\"},{\"device\":1,\"qualified_buckets\":4,\"records\":9,\"addresses_computed\":16,\"simulated_us\":123.457,\"reconstructions\":1,\"outcome\":\"retried(2)\"}],\"trace\":{\"spans\":3,\"counters\":{\"exec.retries\":2}}}");
        let bare = ExecutionReport {
            per_device: vec![device(3, DeviceOutcome::FailedOver)],
            records: RecordRegion::new(),
            largest_response: 0,
            simulated_response_us: 0.0,
            simulated_serial_us: 0.0,
            coverage: 1.0,
            lost_buckets: vec![],
            redundancy: Redundancy::Mirror,
            trace: None,
        };
        assert_eq!(bare.to_json(), "{\"largest_response\":0,\"records\":0,\"simulated_response_us\":0.000,\"simulated_serial_us\":0.000,\"speedup\":1.0000,\"coverage\":1.000000,\"redundancy\":\"mirror\",\"reconstructions\":1,\"lost_buckets\":[],\"per_device\":[{\"device\":3,\"qualified_buckets\":4,\"records\":9,\"addresses_computed\":16,\"simulated_us\":123.457,\"reconstructions\":1,\"outcome\":\"failed_over\"}],\"trace\":null}");
    }

    fn build_file(records: i64) -> DeclusteredFile<FxDistribution> {
        let schema = Schema::builder()
            .field("k", FieldType::Int, 8)
            .field("cat", FieldType::Int, 8)
            .devices(4)
            .build()
            .unwrap();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut file = DeclusteredFile::new(schema, fx, 5).unwrap();
        for i in 0..records {
            file.insert(Record::new(vec![Value::Int(i), Value::Int(i % 16)]))
                .unwrap();
        }
        file
    }

    /// `q` under a forced inverse mapping, run through the batch
    /// executor — how benches and tests pin one mapping.
    fn forced(
        file: &DeclusteredFile<FxDistribution>,
        q: &PartialMatchQuery,
        fast_path: bool,
    ) -> ExecutionReport {
        let planned = PlannedQuery {
            fast_path,
            ..plan_query(file.system(), file.method(), q)
        };
        let exec = Executor::new(file, CostModel::main_memory());
        let yields = exec.execute_planned_raw(&[planned], &STRICT).remove(0);
        merge_raw_yields(yields, Redundancy::None)
    }

    #[test]
    fn parallel_matches_serial() {
        let file = build_file(500);
        let q = file.query(&[("cat", Value::Int(3))]).unwrap();
        let report = execute_parallel(&file, &q, &CostModel::main_memory()).unwrap();
        let mut serial = file.retrieve_serial(&q).unwrap();
        let mut parallel = report.records.to_records();
        serial.sort_by_key(|r| format!("{r}"));
        parallel.sort_by_key(|r| format!("{r}"));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn histogram_is_conserved_and_balanced() {
        let file = build_file(100);
        let q = file.query(&[("k", Value::Int(7))]).unwrap();
        let report = execute_parallel(&file, &q, &CostModel::main_memory()).unwrap();
        let hist = report.histogram();
        assert_eq!(
            hist.iter().sum::<u64>(),
            q.qualified_count_in(file.system())
        );
        // FX auto is perfect optimal here: 8 qualified buckets over 4
        // devices → exactly 2 each.
        assert_eq!(hist, vec![2, 2, 2, 2]);
        assert_eq!(report.largest_response, 2);
    }

    #[test]
    fn speedup_reflects_parallelism() {
        let file = build_file(2000);
        let q = file.query(&[]).unwrap(); // full scan: 64 buckets
        let cost = CostModel {
            seek_us: 0.0,
            transfer_us_per_bucket: 1.0,
            cpu_us_per_address: 0.0,
        };
        let report = execute_parallel(&file, &q, &cost).unwrap();
        // Perfectly balanced 64 buckets over 4 devices: speedup 4.
        assert!(
            (report.speedup() - 4.0).abs() < 1e-9,
            "speedup {}",
            report.speedup()
        );
        assert_eq!(report.simulated_response_us, 16.0);
        assert_eq!(report.simulated_serial_us, 64.0);
    }

    /// `speedup` clamps every degenerate time combination to a finite
    /// value: all-zero is a no-op (1.0), and a hand-built report with
    /// serial work but zero parallel time clamps to 1.0 as well — a zero
    /// parallel time means no device did measurable work, so reporting an
    /// infinite speedup would be meaningless.
    #[test]
    fn speedup_degenerate_times() {
        let empty = ExecutionReport {
            per_device: Vec::new(),
            records: RecordRegion::new(),
            largest_response: 0,
            simulated_response_us: 0.0,
            simulated_serial_us: 0.0,
            coverage: 1.0,
            lost_buckets: Vec::new(),
            redundancy: Redundancy::None,
            trace: None,
        };
        assert_eq!(empty.speedup(), 1.0);
        let inconsistent = ExecutionReport {
            simulated_response_us: 0.0,
            simulated_serial_us: 3.5,
            ..empty
        };
        assert_eq!(inconsistent.speedup(), 1.0);
        assert!(inconsistent.speedup().is_finite());
        let serial_only = ExecutionReport {
            simulated_response_us: 2.0,
            simulated_serial_us: 0.0,
            ..inconsistent
        };
        assert_eq!(serial_only.speedup(), 0.0);
    }

    #[test]
    fn fx_executor_matches_generic() {
        let file = build_file(800);
        for specs in [
            vec![("cat", Value::Int(5))],
            vec![],
            vec![("k", Value::Int(2))],
        ] {
            let q = file.query(&specs).unwrap();
            let generic = forced(&file, &q, false);
            let fx_exec = forced(&file, &q, true);
            assert_eq!(generic.histogram(), fx_exec.histogram());
            assert_eq!(generic.largest_response, fx_exec.largest_response);
            let mut a = generic.records.to_records();
            let mut b = fx_exec.records.to_records();
            a.sort_by_key(|r| format!("{r}"));
            b.sort_by_key(|r| format!("{r}"));
            assert_eq!(a, b);
            // The fast path evaluates at most as many addresses in total.
            let generic_addr: u64 = generic
                .per_device
                .iter()
                .map(|d| d.addresses_computed)
                .sum();
            let fx_addr: u64 = fx_exec
                .per_device
                .iter()
                .map(|d| d.addresses_computed)
                .sum();
            assert!(fx_addr <= generic_addr);
        }
    }

    /// `execute_parallel` dispatches per the cost heuristic, pinning the
    /// crossover: a wide query (the empty query, `|R(q)| = 64`) takes the
    /// FX fast inverse (total address work `O(|R(q)|)`), while narrow
    /// queries (`|R(q)| = 8`) take the generic scan — dispatching narrow
    /// queries onto the fast path was the
    /// `exec_fast_path/dispatch_narrow` regression this fixes.
    #[test]
    fn dispatch_follows_cost_heuristic() {
        let file = build_file(800);
        let sys = file.system();
        let m = sys.devices();
        let wide = file.query(&[]).unwrap();
        assert!(plan_query(sys, file.method(), &wide).fast_path);
        let rq = wide.qualified_count_in(sys);
        let auto = execute_parallel(&file, &wide, &CostModel::main_memory()).unwrap();
        let auto_addr: u64 = auto.per_device.iter().map(|d| d.addresses_computed).sum();
        assert!(
            auto_addr <= 2 * rq,
            "wide query must take the fast path: {auto_addr} addresses for |R(q)| = {rq}"
        );
        for specs in [vec![("cat", Value::Int(5))], vec![("k", Value::Int(2))]] {
            let q = file.query(&specs).unwrap();
            assert!(!plan_query(sys, file.method(), &q).fast_path);
            let rq = q.qualified_count_in(sys);
            let auto = execute_parallel(&file, &q, &CostModel::main_memory()).unwrap();
            let scan = forced(&file, &q, false);
            let auto_addr: u64 = auto.per_device.iter().map(|d| d.addresses_computed).sum();
            assert_eq!(auto_addr, m * rq, "narrow query must take the generic scan");
            assert_eq!(auto.histogram(), scan.histogram());
        }
        // The crossover itself, on this 8×8-bucket, M = 4 system: with
        // `free_combos = |R(q)|/8`, fast wins iff
        // `96 + |R(q)| + 4·|R(q)|/8 < 4·|R(q)|`, i.e. |R(q)| > 38.4 —
        // so the full grid (64) is fast and a one-field query (8) scans.
        let fully_specified = file
            .query(&[("k", Value::Int(1)), ("cat", Value::Int(2))])
            .unwrap();
        assert!(!plan_query(sys, file.method(), &fully_specified).fast_path);
    }

    /// `execute_batch` on a resident [`Executor`] is bit-equal to the
    /// per-query policy path on fault-free runs, apart from the always-
    /// `None` trace slot — whole-report equality, including record order
    /// and simulated times.
    #[test]
    fn batch_matches_per_query_policy_path() {
        let file = build_file(600);
        let exec = Executor::new(&file, CostModel::main_memory());
        let policy = ExecPolicy::default();
        let queries: Vec<_> = [
            vec![("cat", Value::Int(5))],
            vec![],
            vec![("k", Value::Int(2))],
            vec![("k", Value::Int(1)), ("cat", Value::Int(2))],
        ]
        .iter()
        .map(|specs| file.query(specs).unwrap())
        .collect();
        let batch = exec.execute_batch(&queries, &policy);
        assert_eq!(batch.len(), queries.len());
        for (q, got) in queries.iter().zip(&batch) {
            let mut want =
                execute_parallel_with(&file, q, &CostModel::main_memory(), &policy).unwrap();
            want.trace = None;
            assert_eq!(got, &want);
        }
    }

    /// The fault/retry/failover policy path runs unchanged on resident
    /// workers: under a dead device with mirroring, the batch report
    /// equals the scoped policy path's, failover outcome included.
    #[test]
    fn batch_preserves_fault_policy_semantics() {
        let mut file = build_file(500);
        assert!(file.enable_mirroring());
        let exec = Executor::new(&file, CostModel::main_memory());
        file.install_fault_plan(Some(Arc::new(
            pmr_rt::fault::FaultPlan::new(7).with_dead_device(1),
        )));
        let policy = ExecPolicy {
            seed: 7,
            ..ExecPolicy::default()
        };
        let q = file.query(&[("cat", Value::Int(3))]).unwrap();
        let batch = exec.execute_batch(std::slice::from_ref(&q), &policy);
        let mut want =
            execute_parallel_with(&file, &q, &CostModel::main_memory(), &policy).unwrap();
        want.trace = None;
        assert_eq!(batch[0], want);
        assert_eq!(batch[0].per_device[1].outcome, DeviceOutcome::FailedOver);
        assert_eq!(batch[0].coverage, 1.0);
        file.install_fault_plan(None);
    }

    /// Share readers count bucket reads locally and add them on drop:
    /// after a batch, every device's `bucket_reads` has grown exactly as
    /// much as reading the same codes one `read_bucket_attempt` at a time
    /// grows it, with a dead device's outages (no read) and its buddy's
    /// mirror reads in the count.
    #[test]
    fn share_readers_count_bucket_reads_like_per_bucket_reads() {
        let mut file = build_file(500);
        assert!(file.enable_mirroring());
        file.install_fault_plan(Some(Arc::new(
            pmr_rt::fault::FaultPlan::new(3).with_dead_device(2),
        )));
        let exec = Executor::new(&file, CostModel::main_memory()).with_chunks(2);
        let planned: Vec<PlannedQuery> = [vec![], vec![("cat", Value::Int(5))]]
            .iter()
            .map(|specs| plan_query(file.system(), file.method(), &file.query(specs).unwrap()))
            .collect();
        let devices = file.devices();
        let reads = || devices.iter().map(|d| d.bucket_reads()).collect::<Vec<_>>();
        let grown = |before: Vec<u64>| -> Vec<u64> {
            reads()
                .iter()
                .zip(before)
                .map(|(after, b)| after - b)
                .collect()
        };

        let before = reads();
        exec.execute_planned_raw(&planned, &ExecPolicy::default());
        let raw = grown(before);

        let before = reads();
        let buddies = file.mirroring().copied().unwrap();
        let mut codes = vec![Vec::new(); devices.len()];
        for p in &planned {
            route_planned(file.system(), file.method(), p, 0..4, &mut codes);
            for (device, device_codes) in codes.iter().enumerate() {
                for &code in device_codes {
                    if devices[device].read_bucket_attempt(code, 0).is_err() {
                        let buddy = buddies.buddy_of(device as u64) as usize;
                        devices[buddy]
                            .reader(PageStore::Mirror)
                            .decode_attempt(code, 0)
                            .unwrap();
                    }
                }
            }
        }
        let per_bucket = grown(before);
        file.install_fault_plan(None);

        assert_eq!(per_bucket[2], 0, "a dead device issues no read");
        assert!(per_bucket.iter().sum::<u64>() > 0);
        assert_eq!(raw, per_bucket);
    }

    /// `idle_yield` is the executor's own yield for a device on which the
    /// query qualifies nothing — on both dispatch paths, fault-free and
    /// with that very device dead (no read, so nothing to fail).
    #[test]
    fn idle_yield_matches_an_empty_device_read() {
        let mut file = build_file(300);
        assert!(file.enable_mirroring());
        let cost = CostModel::main_memory();
        let exec = Executor::new(&file, cost);
        let q = file
            .query(&[("k", Value::Int(2)), ("cat", Value::Int(5))])
            .unwrap();
        let planned = plan_query(file.system(), file.method(), &q);
        let policy = ExecPolicy::default();
        for fast_path in [false, true] {
            let p = PlannedQuery {
                fast_path,
                ..planned.clone()
            };
            let clean = exec.execute_planned_raw(std::slice::from_ref(&p), &policy);
            let home = clean[0]
                .iter()
                .find(|y| y.report.qualified_buckets > 0)
                .expect("an exact match owns one bucket")
                .report
                .device;
            let idle = (home + 1) % 4;
            file.install_fault_plan(Some(Arc::new(
                pmr_rt::fault::FaultPlan::new(3).with_dead_device(idle),
            )));
            let degraded = exec.execute_planned_raw(std::slice::from_ref(&p), &policy);
            file.install_fault_plan(None);
            for yields in [&clean[0], &degraded[0]] {
                for y in yields.iter().filter(|y| y.report.device != home) {
                    assert_eq!(y, &idle_yield(&p, y.report.device, &cost));
                }
            }
        }
    }

    /// One executor serves many batches; identical queries yield
    /// identical reports within and across batches, and an empty batch is
    /// a no-op.
    #[test]
    fn executor_is_reusable_across_batches() {
        let file = build_file(300);
        let exec = Executor::new(&file, CostModel::main_memory());
        let policy = ExecPolicy::default();
        let q = file.query(&[("k", Value::Int(7))]).unwrap();
        let first = exec.execute_batch(std::slice::from_ref(&q), &policy);
        let second = exec.execute_batch(&[q.clone(), q.clone()], &policy);
        assert_eq!(first[0], second[0]);
        assert_eq!(second[0], second[1]);
        assert!(exec.execute_batch(&[], &policy).is_empty());
    }

    /// A corrupted resident page fails the whole strict execution with a
    /// decode error, under both inverse mappings.
    #[test]
    fn corruption_fails_execution() {
        let mut file = build_file(0);
        let r = Record::new(vec![Value::Int(1), Value::Int(2)]);
        let (bucket, device) = {
            let bucket = file.mkh().bucket_of(&r).unwrap();
            let device = file.method().device_of(&bucket);
            file.insert(r).unwrap();
            (bucket, device)
        };
        let index = file.system().linear_index(&bucket);
        file.devices()[device as usize].inject_corruption(index, &[0xff; 7]);
        let full = file.query(&[]).unwrap();
        let exact = file
            .query(&[("k", Value::Int(1)), ("cat", Value::Int(2))])
            .unwrap();
        for (q, fast_path) in [(full, true), (exact, false)] {
            assert_eq!(
                plan_query(file.system(), file.method(), &q).fast_path,
                fast_path
            );
            assert!(matches!(
                execute_parallel(&file, &q, &CostModel::main_memory()),
                Err(FileError::Decode(_))
            ));
        }
    }

    #[test]
    fn report_json_is_machine_readable() {
        let file = build_file(100);
        let q = file.query(&[("k", Value::Int(7))]).unwrap();
        let report = execute_parallel(&file, &q, &CostModel::main_memory()).unwrap();
        let json = report.to_json();
        assert!(json.starts_with("{\"largest_response\":2,"));
        assert!(json.contains("\"per_device\":[{\"device\":0,"));
        assert!(json.contains("\"speedup\":"));
        // Tracing is off in unit tests, so the trace slot is null.
        if report.trace.is_none() {
            assert!(json.ends_with("\"trace\":null}"));
        }
    }

    /// The `trace` field mirrors the observability state: populated
    /// exactly when tracing is on (off in the default test environment).
    #[test]
    fn trace_field_reflects_obs_state() {
        let file = build_file(10);
        let q = file.query(&[]).unwrap();
        let report = execute_parallel(&file, &q, &CostModel::main_memory()).unwrap();
        assert_eq!(report.trace.is_some(), pmr_rt::obs::enabled());
    }

    #[test]
    fn empty_file_executes_cleanly() {
        let file = build_file(0);
        let q = file.query(&[("k", Value::Int(0))]).unwrap();
        let report = execute_parallel(&file, &q, &CostModel::disk_1988()).unwrap();
        assert!(report.records.is_empty());
        assert_eq!(report.histogram().iter().sum::<u64>(), 8);
        assert_eq!(report.coverage, 1.0);
        assert!(report.is_complete());
    }

    /// With no fault plan and no mirroring, the policy path reproduces
    /// the strict path's report exactly — results, histogram, addresses,
    /// and simulated times — with all-Ok outcomes. This is the acceptance
    /// criterion "faults disabled → `execute_parallel` results unchanged"
    /// extended to the new API.
    #[test]
    fn policy_path_without_faults_matches_strict() {
        let file = build_file(600);
        for specs in [
            vec![("cat", Value::Int(5))],
            vec![],
            vec![("k", Value::Int(2))],
        ] {
            let q = file.query(&specs).unwrap();
            let strict = execute_parallel(&file, &q, &CostModel::main_memory()).unwrap();
            let policied =
                execute_parallel_with(&file, &q, &CostModel::main_memory(), &ExecPolicy::default())
                    .unwrap();
            assert_eq!(strict.histogram(), policied.histogram());
            assert_eq!(strict.largest_response, policied.largest_response);
            assert_eq!(strict.simulated_response_us, policied.simulated_response_us);
            assert_eq!(policied.coverage, 1.0);
            assert!(policied.lost_buckets.is_empty());
            assert!(policied
                .per_device
                .iter()
                .all(|d| d.outcome == DeviceOutcome::Ok));
            let mut a = strict.records.to_records();
            let mut b = policied.records.to_records();
            a.sort_by_key(|r| format!("{r}"));
            b.sort_by_key(|r| format!("{r}"));
            assert_eq!(a, b);
            for (s, p) in strict.per_device.iter().zip(&policied.per_device) {
                assert_eq!(s.addresses_computed, p.addresses_computed);
                assert_eq!(s.simulated_us, p.simulated_us);
            }
        }
    }

    /// Transient read errors retried to success: full coverage, Retried
    /// outcomes, response-time inflation from backoff.
    #[test]
    fn transient_faults_are_retried_to_success() {
        let file = build_file(400);
        let q = file.query(&[]).unwrap();
        let clean =
            execute_parallel_with(&file, &q, &CostModel::main_memory(), &ExecPolicy::default())
                .unwrap();
        file.install_fault_plan(Some(Arc::new(
            pmr_rt::fault::FaultPlan::new(42).with_read_error(0.3),
        )));
        // Generous attempt allowance: every 30%-likely transient fault
        // re-rolls to success well within 12 attempts.
        let policy = ExecPolicy {
            retry: pmr_rt::fault::RetryPolicy {
                max_attempts: 12,
                base_us: 100,
                cap_us: 10_000,
                budget_us: 10_000_000,
            },
            redundancy: Redundancy::None,
            seed: 42,
        };
        let faulted = execute_parallel_with(&file, &q, &CostModel::main_memory(), &policy).unwrap();
        assert_eq!(faulted.coverage, 1.0, "lost {:?}", faulted.lost_buckets);
        let mut a = clean.records.to_records();
        let mut b = faulted.records.to_records();
        a.sort_by_key(|r| format!("{r}"));
        b.sort_by_key(|r| format!("{r}"));
        assert_eq!(a, b, "retried run must retrieve the same records");
        assert!(
            faulted
                .per_device
                .iter()
                .any(|d| matches!(d.outcome, DeviceOutcome::Retried(_))),
            "rate 0.3 over 64 buckets should retry somewhere: {:?}",
            faulted
                .per_device
                .iter()
                .map(|d| d.outcome)
                .collect::<Vec<_>>()
        );
        assert!(
            faulted.simulated_response_us > clean.simulated_response_us,
            "backoff must inflate the simulated response time"
        );
        file.install_fault_plan(None);
    }

    /// A dead device with mirroring on: full coverage via failover, and
    /// record-set equality with the fault-free run.
    #[test]
    fn outage_with_mirroring_fails_over_to_full_coverage() {
        let mut file = build_file(500);
        assert!(file.enable_mirroring());
        let q = file.query(&[("cat", Value::Int(3))]).unwrap();
        let clean =
            execute_parallel_with(&file, &q, &CostModel::main_memory(), &ExecPolicy::default())
                .unwrap();
        file.install_fault_plan(Some(Arc::new(
            pmr_rt::fault::FaultPlan::new(7).with_dead_device(1),
        )));
        let policy = ExecPolicy {
            seed: 7,
            ..ExecPolicy::default()
        };
        let faulted = execute_parallel_with(&file, &q, &CostModel::main_memory(), &policy).unwrap();
        assert_eq!(faulted.coverage, 1.0);
        assert!(faulted.lost_buckets.is_empty());
        assert_eq!(faulted.per_device[1].outcome, DeviceOutcome::FailedOver);
        let mut a = clean.records.to_records();
        let mut b = faulted.records.to_records();
        a.sort_by_key(|r| format!("{r}"));
        b.sort_by_key(|r| format!("{r}"));
        assert_eq!(a, b, "failover must retrieve the same records");
        file.install_fault_plan(None);
    }

    /// A dead device with no mirror degrades the report instead of
    /// erroring: coverage < 1, lost buckets listed, outcome Lost.
    #[test]
    fn outage_without_mirroring_degrades() {
        let file = build_file(300);
        file.install_fault_plan(Some(Arc::new(
            pmr_rt::fault::FaultPlan::new(7).with_dead_device(2),
        )));
        let q = file.query(&[]).unwrap();
        let report =
            execute_parallel_with(&file, &q, &CostModel::main_memory(), &ExecPolicy::default())
                .unwrap();
        let expected_lost = report.per_device[2].qualified_buckets;
        assert_eq!(report.lost_buckets.len() as u64, expected_lost);
        assert_eq!(report.per_device[2].outcome, DeviceOutcome::Lost);
        assert!(!report.is_complete());
        let total: u64 = report.histogram().iter().sum();
        let want = (total - expected_lost) as f64 / total as f64;
        assert!((report.coverage - want).abs() < 1e-12);
        // The JSON surfaces the degradation.
        let json = report.to_json();
        assert!(json.contains("\"outcome\":\"lost\""));
        assert!(json.contains("\"lost_buckets\":["));
        file.install_fault_plan(None);
    }

    /// Persistent at-rest corruption on the primary is served from the
    /// mirror copy; without a mirror it is lost, not a panic or error.
    #[test]
    fn at_rest_corruption_fails_over_or_degrades() {
        let mut file = build_file(0);
        let r = Record::new(vec![Value::Int(1), Value::Int(2)]);
        let bucket = file.mkh().bucket_of(&r).unwrap();
        let device = file.method().device_of(&bucket);
        file.enable_mirroring();
        file.insert(r.clone()).unwrap();
        let index = file.system().linear_index(&bucket);
        file.devices()[device as usize].inject_corruption(index, &[0xff; 7]);
        let q = file.query(&[]).unwrap();
        let report =
            execute_parallel_with(&file, &q, &CostModel::main_memory(), &ExecPolicy::default())
                .unwrap();
        assert_eq!(
            report.coverage, 1.0,
            "mirror copy must serve the corrupted bucket"
        );
        assert!(report.records.to_records().contains(&r));
        assert_eq!(
            report.per_device[device as usize].outcome,
            DeviceOutcome::FailedOver
        );
        // Without failover, the bucket is lost but the execution completes.
        let no_failover = ExecPolicy {
            redundancy: Redundancy::None,
            ..ExecPolicy::default()
        };
        let degraded =
            execute_parallel_with(&file, &q, &CostModel::main_memory(), &no_failover).unwrap();
        assert_eq!(degraded.lost_buckets, vec![index]);
        assert!(degraded.coverage < 1.0);
    }

    /// A page corrupt at rest stops a run and takes the per-code path
    /// alone: wherever it sits in a mirrored 12-code share, the share's
    /// yield equals a reference built from one `copy_attempt` per code,
    /// with the buddy's mirror page standing in for the corrupt one, and
    /// every code is read once (the corrupt one on both copies).
    #[test]
    fn a_corrupt_page_anywhere_in_a_share_fails_over_alone() {
        let mut file = build_file(500);
        assert!(file.enable_mirroring());
        let (device, cost, addresses) = (1u64, CostModel::main_memory(), 40);
        let buddy = file.mirroring().unwrap().buddy_of(device);
        let devices = file.devices();
        let home = &devices[device as usize];
        let planned = plan_query(file.system(), file.method(), &file.query(&[]).unwrap());
        let mut routed = vec![Vec::new(); 4];
        route_planned(file.system(), file.method(), &planned, 0..4, &mut routed);
        let codes = &routed[device as usize][..12];
        let failover = FailoverPath {
            buddy: Some(buddy),
            parity: None,
        };
        let policy = ExecPolicy {
            retry: RetryPolicy::none(),
            ..ExecPolicy::default()
        };
        let reads = || (home.bucket_reads(), devices[buddy as usize].bucket_reads());
        for bad in 0..codes.len() {
            let page = home
                .raw_page(codes[bad])
                .expect("every bucket holds records");
            home.inject_corruption(codes[bad], &[0xff; 7]);
            let mut region = Vec::new();
            let mut records = 0;
            for (i, &code) in codes.iter().enumerate() {
                let (from, store) = if i == bad {
                    (buddy, PageStore::Mirror)
                } else {
                    (device, PageStore::Primary)
                };
                let mut reader = devices[from as usize].reader(store);
                records += reader.copy_attempt(code, 0, &mut region).unwrap().records;
            }
            let expected = RawYield {
                report: DeviceReport {
                    device,
                    qualified_buckets: 12,
                    records,
                    addresses_computed: addresses,
                    simulated_us: cost.device_time_us(12, addresses) + cost.device_time_us(1, 0),
                    reconstructions: 0,
                    outcome: DeviceOutcome::FailedOver,
                },
                region,
                lost: Vec::new(),
            };
            let (home_before, buddy_before) = reads();
            let got =
                resilient_device_read(devices, device, codes, failover, &cost, &policy, addresses);
            let (home_after, buddy_after) = reads();
            assert_eq!(got, expected, "corrupt page at position {bad}");
            assert_eq!(
                (home_after - home_before, buddy_after - buddy_before),
                (12, 1)
            );
            home.install_page(codes[bad], &page, 0);
        }
    }

    /// Policy path on a non-FX method exercises the generic enumeration.
    #[test]
    fn policy_path_covers_generic_methods() {
        /// Disk-Modulo-like toy method: sum of coordinates mod `M`,
        /// deliberately *not* an `FxDistribution`, so `as_fx()` is `None`
        /// and the policy path must use the generic scan.
        struct SumMod(SystemConfig);
        impl pmr_core::method::DistributionMethod for SumMod {
            fn device_of(&self, bucket: &[u64]) -> u64 {
                bucket.iter().sum::<u64>() % self.0.devices()
            }
            fn system(&self) -> &SystemConfig {
                &self.0
            }
            fn name(&self) -> String {
                "sum-mod".into()
            }
        }
        let schema = Schema::builder()
            .field("k", FieldType::Int, 8)
            .field("cat", FieldType::Int, 8)
            .devices(4)
            .build()
            .unwrap();
        let method = SumMod(schema.system().clone());
        let mut file = DeclusteredFile::new(schema, method, 5).unwrap();
        for i in 0..200 {
            file.insert(Record::new(vec![Value::Int(i), Value::Int(i % 16)]))
                .unwrap();
        }
        file.enable_mirroring();
        file.install_fault_plan(Some(Arc::new(
            pmr_rt::fault::FaultPlan::new(9).with_dead_device(0),
        )));
        let q = file.query(&[("cat", Value::Int(1))]).unwrap();
        let report =
            execute_parallel_with(&file, &q, &CostModel::main_memory(), &ExecPolicy::default())
                .unwrap();
        assert_eq!(report.coverage, 1.0);
        let mut got = report.records.to_records();
        file.install_fault_plan(None);
        let mut want = file.retrieve_serial(&q).unwrap();
        got.sort_by_key(|r| format!("{r}"));
        want.sort_by_key(|r| format!("{r}"));
        assert_eq!(got, want);

        // The strict path reads generic methods through the same scan: a
        // page corrupt at rest fails it, mirror copy or not.
        let r = Record::new(vec![Value::Int(1), Value::Int(1)]);
        let bucket = file.mkh().bucket_of(&r).unwrap();
        let device = file.method().device_of(&bucket);
        let index = file.system().linear_index(&bucket);
        file.devices()[device as usize].inject_corruption(index, &[0xff; 7]);
        assert!(matches!(
            execute_parallel(&file, &q, &CostModel::main_memory()),
            Err(FileError::Decode(_))
        ));
    }

    #[test]
    fn redundancy_parse_round_trips() {
        assert_eq!(Redundancy::parse("none"), Ok(Redundancy::None));
        assert_eq!(Redundancy::parse("mirror"), Ok(Redundancy::Mirror));
        assert_eq!(
            Redundancy::parse("parity"),
            Ok(Redundancy::Parity { k: 4, r: 2 })
        );
        assert_eq!(
            Redundancy::parse(" parity:3,1 "),
            Ok(Redundancy::Parity { k: 3, r: 1 })
        );
        assert!(Redundancy::parse("raid6").is_err());
        assert!(Redundancy::parse("parity:0,2").is_err());
        assert!(Redundancy::parse("parity:4").is_err());
        assert!(Redundancy::parse("parity:4,x").is_err());
        for r in [
            Redundancy::None,
            Redundancy::Mirror,
            Redundancy::Parity { k: 4, r: 2 },
        ] {
            let spec = match r {
                Redundancy::Parity { k, r } => format!("parity:{k},{r}"),
                other => other.to_string(),
            };
            assert_eq!(Redundancy::parse(&spec), Ok(r), "{spec}");
        }
    }

    /// A dead device under a parity policy is served by stripe
    /// reconstruction: full coverage, `Reconstructed` outcome, counted
    /// reconstructions — and bit-equal records to the fault-free run.
    #[test]
    fn parity_reconstructs_a_dead_device() {
        let mut file = build_file(300);
        assert!(file.enable_parity(2, 1), "k + r = 3 <= 4 devices");
        let policy = ExecPolicy {
            redundancy: Redundancy::Parity { k: 2, r: 1 },
            ..ExecPolicy::default()
        };
        let q = file.query(&[]).unwrap();
        let clean = execute_parallel_with(&file, &q, &CostModel::main_memory(), &policy).unwrap();
        assert_eq!(clean.reconstructions(), 0);

        file.install_fault_plan(Some(Arc::new(
            pmr_rt::fault::FaultPlan::new(9).with_dead_device(1),
        )));
        let report = execute_parallel_with(&file, &q, &CostModel::main_memory(), &policy).unwrap();
        file.install_fault_plan(None);

        assert_eq!(report.coverage, 1.0, "parity must serve the dead device");
        assert_eq!(report.per_device[1].outcome, DeviceOutcome::Reconstructed);
        assert!(report.per_device[1].reconstructions > 0);
        assert_eq!(
            report.reconstructions(),
            u64::from(report.per_device[1].reconstructions)
        );
        assert_eq!(report.redundancy, Redundancy::Parity { k: 2, r: 1 });
        let mut got = report.records.to_records();
        let mut want = clean.records.to_records();
        got.sort_by_key(|r| format!("{r}"));
        want.sort_by_key(|r| format!("{r}"));
        assert_eq!(got, want);
        // The reconstruction work is charged as simulated time.
        assert!(report.per_device[1].simulated_us > clean.per_device[1].simulated_us);
    }

    /// A parity policy on a file with no parity enabled degrades
    /// honestly — the dead device's buckets are lost, never an error.
    /// A `Redundancy::None` policy does the same even with parity
    /// materialised.
    #[test]
    fn parity_policy_without_parity_data_degrades_honestly() {
        let file = build_file(300);
        let policy = ExecPolicy {
            retry: RetryPolicy::none(),
            redundancy: Redundancy::Parity { k: 2, r: 1 },
            seed: 0,
        };
        let q = file.query(&[]).unwrap();
        file.install_fault_plan(Some(Arc::new(
            pmr_rt::fault::FaultPlan::new(9).with_dead_device(1),
        )));
        let report = execute_parallel_with(&file, &q, &CostModel::main_memory(), &policy).unwrap();
        assert!(report.coverage < 1.0);
        assert_eq!(report.per_device[1].outcome, DeviceOutcome::Lost);
        assert_eq!(report.reconstructions(), 0);

        let mut file = file;
        assert!(file.enable_parity(2, 1));
        let killed = ExecPolicy {
            redundancy: Redundancy::None,
            ..policy
        };
        let report = execute_parallel_with(&file, &q, &CostModel::main_memory(), &killed).unwrap();
        file.install_fault_plan(None);
        assert!(
            report.coverage < 1.0,
            "Redundancy::None must disable parity too"
        );
        assert_eq!(
            report.redundancy,
            Redundancy::None,
            "effective tier is reported"
        );
    }
}
