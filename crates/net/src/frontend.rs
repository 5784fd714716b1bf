//! The scatter/gather frontend.
//!
//! The frontend plans each query **once** ([`pmr_storage::exec::plan_query`]
//! — the same cost heuristic the single-process executor uses) and sends
//! each live node one request frame holding only the queries that touch
//! the node's device subrange, in batch order; each node executes its
//! subrange and ships raw per-device yields back. Gathering validates
//! each yield's record region as it arrives ([`wire::decode_gather`]:
//! no record built) and merges the yields with
//! [`pmr_storage::exec::merge_raw_yields`], which copies their bytes
//! into the report's record region; so a fully-answered request is
//! bit-equal to a single-process
//! [`Executor::execute_batch`](pmr_storage::exec::Executor::execute_batch)
//! over the same file.
//!
//! ## Targeted scatter
//!
//! Under FX a query's device set has a closed form
//! ([`pmr_core::FxDistribution::device_set`]: an affine subspace of
//! `Z_M`, no bucket enumerated), so the frontend knows which nodes own
//! at least one of its qualified buckets. A node none of whose devices a
//! query touches is not asked about it; the frontend fills in each of
//! those devices' *idle yield* ([`pmr_storage::exec::idle_yield`]: `Ok`,
//! no buckets, the plan's address charge), which is exactly what the
//! node would have answered. A node no query of the batch touches gets
//! no frame at all — no pending slot, no deadline wait, no timeout. Nodes
//! that every query touches share one frame, encoded once. Other
//! distribution methods have no closed form and broadcast the whole
//! batch to every live node.
//!
//! ## Deadlines and node failure
//!
//! Gathering waits at most [`FrontendConfig::deadline`] (wall clock) per
//! request. A node that misses the deadline — dead, killed, or dropped
//! by a [`crate::chaos::NetFaultPlan`] — does not fail the request:
//! for each query it was asked, the frontend routes the query's
//! qualified buckets over that node's range itself (it has the plan) and
//! reports every device holding some as `Lost`; devices holding none
//! report their idle yield, as in a single process. The merged report
//! degrades exactly like a device outage does — `coverage < 1`, lost
//! codes listed. After [`FrontendConfig::down_after`] consecutive
//! timeouts a node is marked **down** and skipped entirely, so a dead
//! node costs one deadline a few times, not one per request forever.
//! Simulated time is never charged for wall-clock waits: a timed-out
//! node's `Lost` devices report `simulated_us = 0`. A query that touches
//! no dead or down node is unaffected by it, bit for bit.
//!
//! Responses are decoded ([`wire::decode_gather`]) and routed by one
//! collector thread per node into a shared pending table keyed by
//! request id, so any number of callers may have
//! requests in flight concurrently (the closed-loop `loadgen` drives
//! this). A response that arrives after its deadline is counted
//! (`net.late_responses`) and discarded. `net.request_bytes` and
//! `net.response_bytes` count the frame bytes sent and gathered.
//!
//! ## Cluster telemetry and critical-path attribution
//!
//! When tracing is on, scatters carry a [`wire::TraceContext`] (request
//! id + scatter span id) so node spans link back to this frontend, and
//! gathered responses carry [`wire::Telemetry`] blocks the frontend
//! [absorbs](pmr_rt::obs::snapshot::absorb) beside its own metric table
//! under `node{N}.`-prefixed names — one process then holds the whole
//! cluster's counters and same-bounds histograms. Independently of
//! tracing, every gather attributes the batch's **critical path**: the
//! answering node with the largest `busy_us` dominated the batch's wall
//! time. [`Frontend::attribution`] turns that into a per-node
//! p50/p99/share table, with a recent-window share (last
//! [`RECENT_WINDOW`] batches) that drops to zero when a node dies —
//! that is what `loadgen --watch` renders live via
//! [`Frontend::watch_json`].

use crate::transport::{Duplex, FrameRx, FrameTx};
use crate::wire::{self, GatherResponse, Message, TraceContext, WirePolicy, WireQuery};
use pmr_core::method::DistributionMethod;
use pmr_core::{PartialMatchQuery, SystemConfig};
use pmr_rt::obs;
use pmr_rt::obs::json::Object;
use pmr_rt::obs::snapshot::{absorb, MetricsSnapshot, HIST_BUCKETS};
use pmr_storage::cost::CostModel;
use pmr_storage::exec::{
    idle_yield, merge_raw_yields, plan_query, route_planned, DeviceOutcome, DeviceReport,
    ExecPolicy, ExecutionReport, PlannedQuery, RawYield,
};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Gather/degradation tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendConfig {
    /// Per-request gather deadline: how long to wait for all scattered
    /// nodes before degrading the missing ones.
    pub deadline: Duration,
    /// Consecutive timeouts before a node is marked down and skipped
    /// (the circuit breaker). `0` disables the breaker.
    pub down_after: u32,
}

impl Default for FrontendConfig {
    /// 250 ms deadline, down after 3 consecutive timeouts.
    fn default() -> Self {
        FrontendConfig {
            deadline: Duration::from_millis(250),
            down_after: 3,
        }
    }
}

/// One node's live counters, snapshotted by [`Frontend::node_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Node index.
    pub node: u32,
    /// The device subrange the node serves.
    pub devices: Range<u64>,
    /// Requests scattered to this node.
    pub requests: u64,
    /// Responses gathered in time.
    pub responses: u64,
    /// Requests that missed the gather deadline.
    pub timeouts: u64,
    /// Whether the circuit breaker has removed the node.
    pub down: bool,
}

impl NodeStats {
    /// One flat JSON object (the workspace's JSON-lines vocabulary), as
    /// `pmr serve --json` and [`crate::LoadgenSummary::to_json`] embed it.
    pub fn to_json(&self) -> String {
        Object::new()
            .u64("node", u64::from(self.node))
            .u64s("devices", &[self.devices.start, self.devices.end])
            .u64("requests", self.requests)
            .u64("responses", self.responses)
            .u64("timeouts", self.timeouts)
            .bool("down", self.down)
            .finish()
    }
}

/// Batches covered by the sliding recent-critical window in
/// [`Frontend::attribution`]: long enough to smooth jitter, short enough
/// that a killed node's recent share hits zero within a few seconds of
/// load.
pub const RECENT_WINDOW: usize = 64;

/// One node's slice of the critical-path attribution table — see
/// [`Frontend::attribution`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAttribution {
    /// Node index.
    pub node: u32,
    /// Responses gathered in time (the attribution sample count).
    pub responses: u64,
    /// Median observed `busy_us` across gathered responses.
    pub busy_p50_us: f64,
    /// 99th-percentile observed `busy_us`.
    pub busy_p99_us: f64,
    /// Sum of observed `busy_us` (reconciles against merged counters).
    pub busy_total_us: u64,
    /// Batches where this node's `busy_us` was the maximum — it set the
    /// batch's critical path.
    pub critical_batches: u64,
    /// `critical_batches / total attributed batches` (0 when none).
    pub critical_share: f64,
    /// Critical share within the last [`RECENT_WINDOW`] attributed
    /// batches — a killed node's recent share reaches exactly 0.
    pub recent_critical_share: f64,
    /// Frontend-observed `busy_us` bucketed into the
    /// [`obs::DEFAULT_US_BOUNDS`] histogram shape. Summed across nodes
    /// this equals the frontend's `net.node_rt_us` histogram (when
    /// tracing), and per node it equals the merged `node{N}.busy_us` —
    /// both sides bucket the same wire value with the same bounds.
    pub busy_hist: Vec<u64>,
    /// The `requests` counter summed over this node's shipped telemetry
    /// (0 unless tracing shipped telemetry) — what lands as
    /// `node{N}.requests`.
    pub merged_requests: u64,
    /// The same sum of `queries`.
    pub merged_queries: u64,
    /// The same sum of `records`.
    pub merged_records: u64,
}

/// Shared mutable node state (collector threads and callers both touch
/// it).
struct NodeState {
    down: AtomicBool,
    consecutive_timeouts: AtomicU32,
    requests: AtomicU64,
    responses: AtomicU64,
    timeouts: AtomicU64,
    /// Every gathered `busy_us`, for attribution percentiles. Bounded by
    /// the number of batches a frontend serves in its lifetime.
    busy_samples: Mutex<Vec<f64>>,
    /// Sum of gathered `busy_us`.
    busy_total_us: AtomicU64,
    /// Batches this node's `busy_us` dominated.
    critical: AtomicU64,
    /// Shipped telemetry's [`MERGED`] counters, summed.
    merged: [AtomicU64; 3],
}

/// The node telemetry counters [`NodeAttribution`] reports per node.
const MERGED: [&str; 3] = ["requests", "queries", "records"];

struct NodeLink {
    tx: Mutex<Box<dyn FrameTx>>,
    range: Range<u64>,
    state: Arc<NodeState>,
}

/// Response routing table: request id → one slot per node, filled by the
/// collectors, awaited under the condvar by `execute_planned`.
struct Pending {
    slots: Mutex<HashMap<u64, Vec<Option<GatherResponse<RawYield>>>>>,
    ready: Condvar,
}

/// The scatter/gather query frontend — see the module docs.
///
/// Shareable across caller threads (`Arc<Frontend<_>>`): request ids are
/// allocated atomically and gathers are routed per id, so any number of
/// batches may be in flight at once.
pub struct Frontend<D> {
    sys: SystemConfig,
    method: Arc<D>,
    /// The nodes' cost model, for the idle yields of unasked devices.
    cost: CostModel,
    nodes: Vec<NodeLink>,
    pending: Arc<Pending>,
    next_id: AtomicU64,
    cfg: FrontendConfig,
    collectors: Vec<std::thread::JoinHandle<()>>,
    /// Batches that had at least one response to attribute.
    batches_attributed: AtomicU64,
    /// Ring of the last [`RECENT_WINDOW`] critical node ids.
    recent_critical: Mutex<RecentRing>,
}

/// Fixed-capacity ring of the most recent critical node ids.
#[derive(Default)]
struct RecentRing {
    buf: Vec<u32>,
    pos: usize,
}

impl RecentRing {
    fn push(&mut self, node: u32) {
        if self.buf.len() < RECENT_WINDOW {
            self.buf.push(node);
        } else {
            self.buf[self.pos] = node;
        }
        self.pos = (self.pos + 1) % RECENT_WINDOW;
    }

    fn share_of(&self, node: u32) -> f64 {
        if self.buf.is_empty() {
            return 0.0;
        }
        self.buf.iter().filter(|&&n| n == node).count() as f64 / self.buf.len() as f64
    }
}

impl<D> Frontend<D> {
    /// Number of nodes (live or down).
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The system this frontend plans against.
    pub fn system(&self) -> &SystemConfig {
        &self.sys
    }

    /// Per-node counters, in node order.
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, link)| NodeStats {
                node: i as u32,
                devices: link.range.clone(),
                requests: link.state.requests.load(Ordering::Relaxed),
                responses: link.state.responses.load(Ordering::Relaxed),
                timeouts: link.state.timeouts.load(Ordering::Relaxed),
                down: link.state.down.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The per-node critical-path attribution table, in node order: who
    /// dominated each gathered batch's wall time, with what busy-time
    /// distribution. Always available (the samples are v1 wire data);
    /// the `merged_*` counter totals additionally require tracing, which
    /// is when nodes ship telemetry.
    pub fn attribution(&self) -> Vec<NodeAttribution> {
        let total = self.batches_attributed.load(Ordering::Relaxed);
        let recent = self.recent_critical.lock().unwrap();
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, link)| {
                let mut samples = link.state.busy_samples.lock().unwrap().clone();
                let busy_p50_us = pmr_rt::stats::percentile(&mut samples, 50.0);
                let busy_p99_us = pmr_rt::stats::percentile(&mut samples, 99.0);
                let mut hist = MetricsSnapshot::default();
                for &us in &samples {
                    hist.observe_us("busy_us", us);
                }
                let busy_hist = hist
                    .hist("busy_us")
                    .map(<[u64]>::to_vec)
                    .unwrap_or_else(|| vec![0; HIST_BUCKETS]);
                let critical_batches = link.state.critical.load(Ordering::Relaxed);
                let [merged_requests, merged_queries, merged_records] = link
                    .state
                    .merged
                    .each_ref()
                    .map(|c| c.load(Ordering::Relaxed));
                NodeAttribution {
                    node: i as u32,
                    responses: link.state.responses.load(Ordering::Relaxed),
                    busy_p50_us,
                    busy_p99_us,
                    busy_total_us: link.state.busy_total_us.load(Ordering::Relaxed),
                    critical_batches,
                    critical_share: if total > 0 {
                        critical_batches as f64 / total as f64
                    } else {
                        0.0
                    },
                    recent_critical_share: recent.share_of(i as u32),
                    busy_hist,
                    merged_requests,
                    merged_queries,
                    merged_records,
                }
            })
            .collect()
    }

    /// One live-status JSON line for the watch emitter: total attributed
    /// batches plus, per node, request/response/timeout counts, the
    /// down flag, the recent critical share, and busy percentiles. A
    /// killed node is visible here as `down:true` / `recent_share:0`
    /// while the run is still going.
    pub fn watch_json(&self) -> String {
        let batches = self.batches_attributed.load(Ordering::Relaxed);
        let stats = self.node_stats();
        let nodes = self.attribution().into_iter().zip(&stats).map(|(a, s)| {
            Object::new()
                .u64("node", u64::from(a.node))
                .u64("requests", s.requests)
                .u64("responses", s.responses)
                .u64("timeouts", s.timeouts)
                .bool("down", s.down)
                .fixed("recent_share", a.recent_critical_share, 3)
                .fixed("busy_p50_us", a.busy_p50_us, 1)
                .fixed("busy_p99_us", a.busy_p99_us, 1)
                .finish()
        });
        Object::new()
            .str("event", "watch")
            .u64("batches", batches)
            .json_array("nodes", nodes)
            .finish()
    }

    /// Asks every node to exit its serve loop. Idempotent; called by
    /// `Drop` as well.
    pub fn shutdown(&self) {
        let frame = wire::encode_message(&Message::Shutdown);
        for link in &self.nodes {
            // Down or already-exited nodes are fine to miss.
            let _ = link.tx.lock().unwrap().send_frame(&frame);
        }
    }

    fn mark_down(&self, node: usize) {
        if !self.nodes[node].state.down.swap(true, Ordering::Relaxed) {
            obs::NET_NODE_DOWN.add(1);
        }
    }
}

impl<D: DistributionMethod + Clone + Send + Sync + 'static> Frontend<D> {
    /// Wires a frontend to its nodes: one `(connection, device range)`
    /// per node, in node-index order. `cost` must be the model the nodes
    /// execute under. Spawns one collector thread per node.
    pub fn new(
        sys: SystemConfig,
        method: Arc<D>,
        cost: CostModel,
        links: Vec<(Duplex, Range<u64>)>,
        cfg: FrontendConfig,
    ) -> Frontend<D> {
        let pending = Arc::new(Pending {
            slots: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
        });
        let mut nodes = Vec::with_capacity(links.len());
        let mut collectors = Vec::with_capacity(links.len());
        for (i, (duplex, range)) in links.into_iter().enumerate() {
            let Duplex { tx, rx } = duplex;
            let state = Arc::new(NodeState {
                down: AtomicBool::new(false),
                consecutive_timeouts: AtomicU32::new(0),
                requests: AtomicU64::new(0),
                responses: AtomicU64::new(0),
                timeouts: AtomicU64::new(0),
                busy_samples: Mutex::new(Vec::new()),
                busy_total_us: AtomicU64::new(0),
                critical: AtomicU64::new(0),
                merged: Default::default(),
            });
            collectors.push(spawn_collector(i as u32, rx, Arc::clone(&pending)));
            nodes.push(NodeLink {
                tx: Mutex::new(tx),
                range,
                state,
            });
        }
        Frontend {
            sys,
            method,
            cost,
            nodes,
            pending,
            next_id: AtomicU64::new(1),
            cfg,
            collectors,
            batches_attributed: AtomicU64::new(0),
            recent_critical: Mutex::new(RecentRing::default()),
        }
    }

    /// Plans, scatters, gathers, and merges one batch. The distributed
    /// equivalent of [`Executor::execute_batch`]: with every node a query
    /// touches answering, its report is bit-equal to the single-process
    /// batch's (trace slot `None` included); with such a node missing,
    /// the devices holding the query's buckets there degrade to `Lost`
    /// instead of erroring.
    ///
    /// [`Executor::execute_batch`]: pmr_storage::exec::Executor::execute_batch
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
            .map(|q| plan_query(&self.sys, &*self.method, q))
            .collect();
        self.execute_planned(&planned, policy)
    }

    /// [`Frontend::execute_batch`] for already-planned queries.
    pub fn execute_planned(
        &self,
        planned: &[PlannedQuery],
        policy: &ExecPolicy,
    ) -> Vec<ExecutionReport> {
        if planned.is_empty() {
            return Vec::new();
        }
        let n = self.nodes.len();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.pending
            .slots
            .lock()
            .unwrap()
            .insert(id, (0..n).map(|_| None).collect());

        // Scatter: each live node gets the queries that touch it, in
        // batch order; nodes that every query touches share one frame.
        let touched = self.route(planned);
        let touches = |q: usize, node: usize| match &touched {
            Some(t) => t[q * n + node],
            None => true,
        };
        let mut scattered = vec![false; n];
        {
            let span = pmr_rt::span!(
                obs::NET_SCATTER,
                queries = planned.len() as u64,
                nodes = n as u64
            );
            // v1.1: when tracing, ship this scatter's identity so node
            // spans can link back to it across the process boundary.
            let trace = span.id().map(|parent_span| TraceContext {
                trace_id: id,
                parent_span,
            });
            let wire_policy = WirePolicy::from_policy(policy);
            let queries: Vec<WireQuery> = planned.iter().map(WireQuery::from_planned).collect();
            let mut broadcast: Option<Vec<u8>> = None;
            let mut subset = Vec::with_capacity(planned.len());
            for (i, link) in self.nodes.iter().enumerate() {
                if link.state.down.load(Ordering::Relaxed) {
                    continue;
                }
                subset.clear();
                subset.extend((0..planned.len()).filter(|&q| touches(q, i)));
                if subset.is_empty() {
                    continue;
                }
                let own;
                let frame: &[u8] = if subset.len() == planned.len() {
                    broadcast.get_or_insert_with(|| {
                        wire::encode_scatter(id, &wire_policy, queries.iter(), trace.as_ref())
                    })
                } else {
                    own = wire::encode_scatter(
                        id,
                        &wire_policy,
                        subset.iter().map(|&q| &queries[q]),
                        trace.as_ref(),
                    );
                    &own
                };
                link.state.requests.fetch_add(1, Ordering::Relaxed);
                obs::NET_REQUESTS.add(1);
                obs::NET_REQUEST_BYTES.add(frame.len() as u64);
                match link.tx.lock().unwrap().send_frame(frame) {
                    Ok(()) => scattered[i] = true,
                    Err(_) => self.mark_down(i),
                }
            }
        }

        // Gather: wait for every scattered node, bounded by the deadline.
        // The span stays open through the accounting loop below so the
        // per-response `net.gather.link` spans parent beneath it.
        let deadline = Instant::now() + self.cfg.deadline;
        let gather_span = pmr_rt::span!(
            obs::NET_GATHER,
            nodes = scattered.iter().filter(|&&s| s).count() as u64
        );
        let responses: Vec<Option<GatherResponse<RawYield>>> = {
            let mut slots = self.pending.slots.lock().unwrap();
            loop {
                let filled = slots.get(&id).expect("pending entry lives until removal");
                let complete = scattered
                    .iter()
                    .enumerate()
                    .all(|(i, &sent)| !sent || filled[i].is_some());
                if complete {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (relocked, _) = self
                    .pending
                    .ready
                    .wait_timeout(slots, deadline - now)
                    .unwrap();
                slots = relocked;
            }
            slots
                .remove(&id)
                .expect("pending entry lives until removal")
        };

        // Account per-node outcomes, absorb shipped telemetry, attribute
        // the batch's critical path, and drive the circuit breaker.
        let mut critical: Option<(u32, u64)> = None;
        for (i, link) in self.nodes.iter().enumerate() {
            if !scattered[i] {
                continue;
            }
            match &responses[i] {
                Some(resp) => {
                    link.state.consecutive_timeouts.store(0, Ordering::Relaxed);
                    link.state.responses.fetch_add(1, Ordering::Relaxed);
                    obs::NET_RESPONSES.add(1);
                    obs::NET_NODE_RT_US.observe_us(resp.busy_us as f64);
                    link.state
                        .busy_samples
                        .lock()
                        .unwrap()
                        .push(resp.busy_us as f64);
                    link.state
                        .busy_total_us
                        .fetch_add(resp.busy_us, Ordering::Relaxed);
                    let dominates = match critical {
                        Some((_, best)) => resp.busy_us > best,
                        None => true,
                    };
                    if dominates {
                        critical = Some((i as u32, resp.busy_us));
                    }
                    if let Some(t) = &resp.telemetry {
                        // A zero-body marker span tying this gather to
                        // the node's request span on the other side of
                        // the wire.
                        let _link = pmr_rt::span!(
                            obs::NET_GATHER_LINK,
                            node = i as u64,
                            remote_span = t.span_id,
                            busy_us = resp.busy_us
                        );
                        for (total, name) in link.state.merged.iter().zip(MERGED) {
                            total.fetch_add(t.metrics.counter(name), Ordering::Relaxed);
                        }
                        absorb(&format!("node{i}."), &t.metrics);
                    }
                }
                None => {
                    link.state.timeouts.fetch_add(1, Ordering::Relaxed);
                    obs::NET_TIMEOUTS.add(1);
                    let consecutive = link
                        .state
                        .consecutive_timeouts
                        .fetch_add(1, Ordering::Relaxed)
                        + 1;
                    if self.cfg.down_after > 0 && consecutive >= self.cfg.down_after {
                        self.mark_down(i);
                    }
                }
            }
        }
        if let Some((node, _)) = critical {
            self.nodes[node as usize]
                .state
                .critical
                .fetch_add(1, Ordering::Relaxed);
            self.batches_attributed.fetch_add(1, Ordering::Relaxed);
            self.recent_critical.lock().unwrap().push(node);
        }
        drop(gather_span);

        // Merge: a node a query does not touch contributes idle yields;
        // an answering node contributes its next query's yields, and a
        // missing one degrades to synthesized Lost yields.
        let mut per_node: Vec<Option<std::vec::IntoIter<Vec<RawYield>>>> = responses
            .into_iter()
            .map(|r| r.map(|resp| resp.queries.into_iter()))
            .collect();
        planned
            .iter()
            .enumerate()
            .map(|(q, p)| {
                let mut yields = Vec::with_capacity(self.sys.devices() as usize);
                for (i, link) in self.nodes.iter().enumerate() {
                    if !touches(q, i) {
                        yields.extend(link.range.clone().map(|d| idle_yield(p, d, &self.cost)));
                        continue;
                    }
                    match per_node[i].as_mut().and_then(Iterator::next) {
                        Some(node_yields) => yields.extend(node_yields),
                        None => lost_yields(
                            &self.sys,
                            &*self.method,
                            &self.cost,
                            p,
                            link.range.clone(),
                            &mut yields,
                        ),
                    }
                }
                merge_raw_yields(yields, policy.redundancy)
            })
            .collect()
    }

    /// Which nodes each query must ask: entry `q · nodes + i` says whether
    /// query `q` qualifies a bucket on a device of node `i`, from the FX
    /// closed-form device set. `None` for methods without one: every
    /// query asks every node.
    fn route(&self, planned: &[PlannedQuery]) -> Option<Vec<bool>> {
        let fx = self.method.as_fx()?;
        let mut touched = Vec::with_capacity(planned.len() * self.nodes.len());
        for p in planned {
            let set = fx.device_set(&p.query);
            touched.extend(self.nodes.iter().map(|link| set.meets(link.range.clone())));
        }
        Some(touched)
    }
}

impl<D> Drop for Frontend<D> {
    /// Shuts the nodes down and joins the collectors: nodes exit on the
    /// `Shutdown` frame (or on the senders dropping), which closes the
    /// collectors' receive sides.
    fn drop(&mut self) {
        let frame = wire::encode_message(&Message::Shutdown);
        for link in &self.nodes {
            let _ = link.tx.lock().unwrap().send_frame(&frame);
        }
        self.nodes.clear();
        for collector in self.collectors.drain(..) {
            let _ = collector.join();
        }
    }
}

fn spawn_collector(
    node: u32,
    mut rx: Box<dyn FrameRx>,
    pending: Arc<Pending>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("pmr-net-gather-{node}"))
        .spawn(move || {
            while let Ok(frame) = rx.recv_frame() {
                match wire::decode_gather(&frame) {
                    Ok(resp) => {
                        let mut slots = pending.slots.lock().unwrap();
                        let (request_id, slot) = (resp.request_id, resp.node as usize);
                        match slots.get_mut(&request_id) {
                            Some(filled) if slot < filled.len() => {
                                obs::NET_RESPONSE_BYTES.add(frame.len() as u64);
                                filled[slot] = Some(resp);
                                pending.ready.notify_all();
                            }
                            // Deadline already expired and the entry is gone,
                            // or the node id is nonsense.
                            _ => obs::NET_LATE_RESPONSES.add(1),
                        }
                    }
                    Err(_) => obs::NET_DECODE_ERRORS.add(1),
                }
            }
        })
        .expect("spawn collector thread")
}

/// The degraded stand-ins for the devices of a node that never
/// answered: the frontend routes the query's qualified buckets over the
/// node's whole range once (it has the plan) and reports each device's
/// share lost. `simulated_us` stays `0` — wall deadlines are not
/// simulated device time. A device holding none of the query's buckets
/// had nothing to lose and reports its idle yield, as in one process.
fn lost_yields<D: DistributionMethod>(
    sys: &SystemConfig,
    method: &D,
    cost: &CostModel,
    planned: &PlannedQuery,
    range: Range<u64>,
    out: &mut Vec<RawYield>,
) {
    let mut codes = vec![Vec::new(); (range.end - range.start) as usize];
    route_planned(sys, method, planned, range.clone(), &mut codes);
    out.extend(range.zip(codes).map(|(device, lost)| {
        if lost.is_empty() {
            return idle_yield(planned, device, cost);
        }
        let qualified_buckets = lost.len() as u64;
        RawYield {
            report: DeviceReport {
                device,
                qualified_buckets,
                records: 0,
                addresses_computed: planned.addresses_computed(qualified_buckets),
                simulated_us: 0.0,
                reconstructions: 0,
                outcome: DeviceOutcome::Lost,
            },
            region: Vec::new(),
            lost,
        }
    }));
}
