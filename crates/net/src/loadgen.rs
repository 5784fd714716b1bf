//! Closed-loop load generation against a [`Cluster`].
//!
//! `run` drives a pre-generated, seeded query mix through the cluster's
//! frontend from `concurrency` caller threads, each executing whole
//! batches back-to-back (closed loop: a worker issues its next batch
//! only when the previous one returns). It reports throughput
//! (queries/sec, wall clock), latency percentiles in **both** clocks —
//! wall-µs per batch and simulated-µs per query — and the degradation
//! tally, plus an order-independent checksum of every report that can
//! be compared against a single-process
//! [`Executor::execute_batch`](pmr_storage::exec::Executor::execute_batch)
//! run over the same queries ([`reports_checksum`]).
//!
//! Everything is derived from one seed: the mix ([`query_mix`]), the
//! policy's backoff jitter, any storage [`pmr_rt::fault::FaultPlan`],
//! and any [`crate::chaos::NetFaultPlan`] — so a full multi-node run,
//! degradations included, replays from `PMR_SEED`. The optional
//! [`KillSpec`] is deterministic too: it fires when the workload reaches
//! a query *index*, not a wall time.

use crate::cluster::Cluster;
use crate::frontend::{NodeAttribution, NodeStats};
use pmr_core::method::DistributionMethod;
use pmr_core::{PartialMatchQuery, SystemConfig};
use pmr_rt::obs;
use pmr_rt::obs::emit::Emitter;
use pmr_rt::rng::{splitmix64, Rng};
use pmr_storage::encode::encode_one;
use pmr_storage::exec::{ExecPolicy, ExecutionReport};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kill one node when the workload reaches a query index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillSpec {
    /// Node to kill.
    pub node: usize,
    /// Fires on the first batch whose start index is ≥ this.
    pub at_query: usize,
}

/// Loadgen tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenOpts {
    /// Closed-loop caller threads sharing the frontend.
    pub concurrency: usize,
    /// Queries per scatter request.
    pub batch: usize,
    /// Optional mid-run node kill.
    pub kill: Option<KillSpec>,
    /// Emit a live [`Frontend::watch_json`](crate::Frontend::watch_json)
    /// line to stderr at this interval while the run is going (plus one
    /// final line), so a mid-run kill is visible as it happens.
    pub watch: Option<Duration>,
}

impl Default for LoadgenOpts {
    /// Two callers, 512-query batches, no kill, no watch.
    fn default() -> Self {
        LoadgenOpts {
            concurrency: 2,
            batch: 512,
            kill: None,
            watch: None,
        }
    }
}

/// What a loadgen run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenSummary {
    /// Queries executed.
    pub queries: usize,
    /// Scatter requests issued.
    pub batches: usize,
    /// Wall-clock duration of the whole run, seconds.
    pub wall_s: f64,
    /// Queries per wall-clock second.
    pub qps: f64,
    /// Median wall latency of one batch round-trip, µs.
    pub batch_p50_us: f64,
    /// 99th-percentile wall latency of one batch round-trip, µs.
    pub batch_p99_us: f64,
    /// Median simulated response time per query, µs.
    pub sim_p50_us: f64,
    /// 99th-percentile simulated response time per query, µs.
    pub sim_p99_us: f64,
    /// Mean coverage over all queries (1.0 = nothing lost).
    pub mean_coverage: f64,
    /// Queries with coverage < 1.
    pub degraded: usize,
    /// Total lost buckets across all queries.
    pub lost_buckets: u64,
    /// Order-independent checksum over all reports — comparable to
    /// [`reports_checksum`] of a single-process run.
    pub checksum: u64,
    /// Gather deadline misses summed over nodes.
    pub timeouts: u64,
    /// Per-node counters at the end of the run.
    pub node_stats: Vec<NodeStats>,
    /// Per-node critical-path attribution at the end of the run.
    pub attribution: Vec<NodeAttribution>,
    /// The frontend's `net.node_rt_us` histogram buckets (all zeros when
    /// tracing is off). Reconciliation invariant: summed per bucket over
    /// `attribution[*].busy_hist` equals this — both sides bucket the
    /// same wire `busy_us` with the same bounds.
    pub node_rt_us_hist: Vec<u64>,
}

impl LoadgenSummary {
    /// One flat JSON object (the workspace's JSON-lines vocabulary).
    pub fn to_json(&self) -> String {
        let nodes = self
            .node_stats
            .iter()
            .map(NodeStats::to_json)
            .collect::<Vec<_>>()
            .join(",");
        let join_u64 = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let attribution = self
            .attribution
            .iter()
            .map(|a| {
                format!(
                    "{{\"node\":{},\"responses\":{},\"busy_p50_us\":{:.1},\
                     \"busy_p99_us\":{:.1},\"busy_total_us\":{},\"critical_batches\":{},\
                     \"critical_share\":{:.4},\"recent_critical_share\":{:.4},\
                     \"busy_hist\":[{}],\"merged_requests\":{},\"merged_queries\":{},\
                     \"merged_records\":{}}}",
                    a.node,
                    a.responses,
                    a.busy_p50_us,
                    a.busy_p99_us,
                    a.busy_total_us,
                    a.critical_batches,
                    a.critical_share,
                    a.recent_critical_share,
                    join_u64(&a.busy_hist),
                    a.merged_requests,
                    a.merged_queries,
                    a.merged_records,
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"queries\":{},\"batches\":{},\"wall_s\":{:.4},\"qps\":{:.1},\
             \"batch_p50_us\":{:.1},\"batch_p99_us\":{:.1},\"sim_p50_us\":{:.3},\
             \"sim_p99_us\":{:.3},\"mean_coverage\":{:.6},\"degraded\":{},\
             \"lost_buckets\":{},\"checksum\":\"{:016x}\",\"timeouts\":{},\
             \"nodes\":[{nodes}],\"attribution\":[{attribution}],\
             \"node_rt_us_hist\":[{}]}}",
            self.queries,
            self.batches,
            self.wall_s,
            self.qps,
            self.batch_p50_us,
            self.batch_p99_us,
            self.sim_p50_us,
            self.sim_p99_us,
            self.mean_coverage,
            self.degraded,
            self.lost_buckets,
            self.checksum,
            self.timeouts,
            join_u64(&self.node_rt_us_hist),
        )
    }
}

/// A seeded partial-match mix: query `j` leaves `j % (max_unspecified+1)`
/// fields unspecified, at seeded positions, with seeded specified
/// values — the same mix for the same `(sys, count, seed,
/// max_unspecified)` on every run and every machine.
pub fn query_mix(
    sys: &SystemConfig,
    count: usize,
    seed: u64,
    max_unspecified: usize,
) -> Vec<PartialMatchQuery> {
    let fields = sys.num_fields();
    let max_unspecified = max_unspecified.min(fields);
    (0..count)
        .map(|j| {
            let mut rng = Rng::stream(seed, j as u64);
            let unspecified = j % (max_unspecified + 1);
            let mut positions: Vec<usize> = (0..fields).collect();
            // Partial Fisher–Yates: the first `unspecified` slots.
            for i in 0..unspecified {
                let pick = i + rng.gen_range(0..(fields - i) as u64) as usize;
                positions.swap(i, pick);
            }
            let mut values: Vec<Option<u64>> = (0..fields)
                .map(|f| Some(rng.gen_range(0..sys.field_size(f))))
                .collect();
            for &p in &positions[..unspecified] {
                values[p] = None;
            }
            PartialMatchQuery::new(sys, &values).expect("generated query is valid")
        })
        .collect()
}

/// Order-independent checksum of a report sequence: each report is
/// fingerprinted (records, lost codes, response sizes, simulated times —
/// all bit-exact) and folded in with its query index, so two runs match
/// iff every query's report matches, regardless of batch boundaries or
/// completion order.
pub fn reports_checksum<'a, I>(reports: I) -> u64
where
    I: IntoIterator<Item = &'a ExecutionReport>,
{
    let mut total = 0u64;
    for (i, report) in reports.into_iter().enumerate() {
        total = total.wrapping_add(query_fingerprint(i, report));
    }
    total
}

/// One query's slot in [`reports_checksum`].
pub fn query_fingerprint(index: usize, report: &ExecutionReport) -> u64 {
    splitmix64((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ report_checksum(report))
}

/// Fingerprint of one [`ExecutionReport`], covering everything the
/// bit-equality contract pins: record bytes in order, lost codes,
/// per-device response sizes, and both simulated times bit-for-bit.
pub fn report_checksum(report: &ExecutionReport) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3u64;
    let mut mix = |v: u64| h = splitmix64(h ^ v);
    mix(report.largest_response);
    mix(report.simulated_response_us.to_bits());
    mix(report.simulated_serial_us.to_bits());
    mix(report.coverage.to_bits());
    for d in &report.per_device {
        mix(d.device);
        mix(d.qualified_buckets);
        mix(d.addresses_computed);
        mix(d.simulated_us.to_bits());
    }
    for record in &report.records {
        for chunk in encode_one(record).chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            mix(u64::from_le_bytes(word));
        }
    }
    for &code in &report.lost_buckets {
        mix(code);
    }
    h
}

/// The workspace's shared percentile ([`pmr_rt::stats::percentile`]):
/// sorts in place, interpolates between order statistics, `0.0` for an
/// empty sample — the same math as the bench harness and the attribution
/// tables.
pub use pmr_rt::stats::percentile;

/// Drives `queries` through `cluster`'s frontend, closed-loop — see the
/// module docs. Batches are claimed from a shared cursor, so workers
/// stay busy until the mix is drained; per-query order (and therefore
/// the checksum) is index-stable regardless of which worker ran which
/// batch.
pub fn run<D: DistributionMethod + Clone + Send + Sync + 'static>(
    cluster: &Cluster<D>,
    queries: &[PartialMatchQuery],
    policy: &ExecPolicy,
    opts: &LoadgenOpts,
) -> LoadgenSummary {
    let frontend = cluster.frontend();
    let batch = opts.batch.max(1);
    let concurrency = opts.concurrency.max(1);
    let next_batch = AtomicUsize::new(0);
    let killed = AtomicBool::new(false);
    let batches_total = queries.len().div_ceil(batch);

    struct WorkerTally {
        batch_us: Vec<f64>,
        sim_us: Vec<f64>,
        coverage_sum: f64,
        degraded: usize,
        lost: u64,
        checksum: u64,
    }

    // Live watch: a background emitter streaming the frontend's per-node
    // status to stderr while the workers run.
    let watcher = opts.watch.map(|interval| {
        let frontend = Arc::clone(&frontend);
        Emitter::stderr(interval, move || Some(frontend.watch_json()))
    });

    let started = Instant::now();
    let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(concurrency);
        for _ in 0..concurrency {
            let frontend = Arc::clone(&frontend);
            let next_batch = &next_batch;
            let killed = &killed;
            workers.push(scope.spawn(move || {
                let mut tally = WorkerTally {
                    batch_us: Vec::new(),
                    sim_us: Vec::new(),
                    coverage_sum: 0.0,
                    degraded: 0,
                    lost: 0,
                    checksum: 0u64,
                };
                loop {
                    let b = next_batch.fetch_add(1, Ordering::Relaxed);
                    let start = b * batch;
                    if start >= queries.len() {
                        break;
                    }
                    if let Some(kill) = opts.kill {
                        if start >= kill.at_query && !killed.swap(true, Ordering::Relaxed) {
                            cluster.kill_node(kill.node);
                        }
                    }
                    let end = (start + batch).min(queries.len());
                    let t0 = Instant::now();
                    let reports = frontend.execute_batch(&queries[start..end], policy);
                    tally.batch_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    for (offset, report) in reports.iter().enumerate() {
                        tally.sim_us.push(report.simulated_response_us);
                        tally.coverage_sum += report.coverage;
                        if report.coverage < 1.0 {
                            tally.degraded += 1;
                        }
                        tally.lost += report.lost_buckets.len() as u64;
                        tally.checksum = tally
                            .checksum
                            .wrapping_add(query_fingerprint(start + offset, report));
                    }
                }
                tally
            }));
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("loadgen worker"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    // Stop the watcher before printing the summary: its final line lands
    // on stderr first, so watch output never interleaves with the report.
    if let Some(watcher) = watcher {
        watcher.stop();
    }

    let mut batch_us = Vec::new();
    let mut sim_us = Vec::new();
    let mut coverage_sum = 0.0;
    let mut degraded = 0;
    let mut lost = 0u64;
    let mut checksum = 0u64;
    for mut t in tallies {
        batch_us.append(&mut t.batch_us);
        sim_us.append(&mut t.sim_us);
        coverage_sum += t.coverage_sum;
        degraded += t.degraded;
        lost += t.lost;
        checksum = checksum.wrapping_add(t.checksum);
    }
    let node_stats = frontend.node_stats();
    let attribution = frontend.attribution();
    let node_rt_us_hist = obs::histogram_counts("net.node_rt_us")
        .map(|(_, counts)| counts)
        .unwrap_or_else(|| vec![0; pmr_rt::obs::snapshot::HIST_BUCKETS]);
    LoadgenSummary {
        queries: queries.len(),
        batches: batches_total,
        wall_s,
        qps: if wall_s > 0.0 {
            queries.len() as f64 / wall_s
        } else {
            0.0
        },
        batch_p50_us: percentile(&mut batch_us, 50.0),
        batch_p99_us: percentile(&mut batch_us, 99.0),
        sim_p50_us: percentile(&mut sim_us, 50.0),
        sim_p99_us: percentile(&mut sim_us, 99.0),
        mean_coverage: if queries.is_empty() {
            1.0
        } else {
            coverage_sum / queries.len() as f64
        },
        degraded,
        lost_buckets: lost,
        checksum,
        timeouts: node_stats.iter().map(|s| s.timeouts).sum(),
        node_stats,
        attribution,
        node_rt_us_hist,
    }
}
