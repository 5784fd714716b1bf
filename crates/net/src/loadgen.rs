//! Closed-loop load generation against a [`Cluster`].
//!
//! `run` drives a seeded query mix, generated batch by batch, through
//! the cluster's frontend from `concurrency` caller threads, each
//! executing whole batches back-to-back (closed loop: a worker issues
//! its next batch only when the previous one returns). It reports
//! throughput (queries/sec, wall clock), latency percentiles in **both**
//! clocks — wall-µs per batch and simulated-µs per query — and the
//! degradation tally, plus an order-independent checksum of every report
//! that can be compared against a single-process
//! [`Executor::execute_batch`](pmr_storage::exec::Executor::execute_batch)
//! run over the same queries ([`reports_checksum`]).
//!
//! Everything is derived from one seed: the mix ([`mix_query`]), the
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
use pmr_rt::obs::json::Object;
use pmr_rt::rng::{splitmix64, Rng};
use pmr_rt::stats::{percentile, percentile_counted};
use pmr_storage::encode::encode_one;
use pmr_storage::exec::{ExecPolicy, ExecutionReport};
use std::collections::BTreeMap;
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
        let attribution = self.attribution.iter().map(|a| {
            Object::new()
                .u64("node", u64::from(a.node))
                .u64("responses", a.responses)
                .fixed("busy_p50_us", a.busy_p50_us, 1)
                .fixed("busy_p99_us", a.busy_p99_us, 1)
                .u64("busy_total_us", a.busy_total_us)
                .u64("critical_batches", a.critical_batches)
                .fixed("critical_share", a.critical_share, 4)
                .fixed("recent_critical_share", a.recent_critical_share, 4)
                .u64s("busy_hist", &a.busy_hist)
                .u64("merged_requests", a.merged_requests)
                .u64("merged_queries", a.merged_queries)
                .u64("merged_records", a.merged_records)
                .finish()
        });
        Object::new()
            .u64("queries", self.queries as u64)
            .u64("batches", self.batches as u64)
            .fixed("wall_s", self.wall_s, 4)
            .fixed("qps", self.qps, 1)
            .fixed("batch_p50_us", self.batch_p50_us, 1)
            .fixed("batch_p99_us", self.batch_p99_us, 1)
            .fixed("sim_p50_us", self.sim_p50_us, 3)
            .fixed("sim_p99_us", self.sim_p99_us, 3)
            .fixed("mean_coverage", self.mean_coverage, 6)
            .u64("degraded", self.degraded as u64)
            .u64("lost_buckets", self.lost_buckets)
            .str("checksum", &format!("{:016x}", self.checksum))
            .u64("timeouts", self.timeouts)
            .json_array("nodes", self.node_stats.iter().map(NodeStats::to_json))
            .json_array("attribution", attribution)
            .u64s("node_rt_us_hist", &self.node_rt_us_hist)
            .finish()
    }
}

/// A seeded partial-match mix: `(0..count)` through [`mix_query`] —
/// the same mix for the same `(sys, count, seed, max_unspecified)` on
/// every run and every machine.
pub fn query_mix(
    sys: &SystemConfig,
    count: usize,
    seed: u64,
    max_unspecified: usize,
) -> Vec<PartialMatchQuery> {
    (0..count)
        .map(|j| mix_query(sys, seed, max_unspecified, j))
        .collect()
}

/// Query `j` of the seeded mix: it leaves `j % (max_unspecified+1)`
/// fields unspecified, at seeded positions, with seeded specified
/// values, all drawn from `j`'s own stream — so any slice of the mix can
/// be generated without the rest.
pub fn mix_query(
    sys: &SystemConfig,
    seed: u64,
    max_unspecified: usize,
    j: usize,
) -> PartialMatchQuery {
    let fields = sys.num_fields();
    let mut rng = Rng::stream(seed, j as u64);
    let unspecified = j % (max_unspecified.min(fields) + 1);
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
}

/// Order-independent checksum of the reports of queries `first..`: each
/// report is fingerprinted (records, lost codes, response sizes,
/// simulated times — all bit-exact) and folded in with its query index,
/// so two runs match iff every query's report matches, regardless of
/// batch boundaries or completion order — checksums of consecutive
/// slices add up (wrapping) to the whole run's.
pub fn reports_checksum(first: usize, reports: &[ExecutionReport]) -> u64 {
    (first..)
        .zip(reports)
        .fold(0, |sum, (i, r)| sum.wrapping_add(query_fingerprint(i, r)))
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

/// Drives queries `0..count` through `cluster`'s frontend, closed-loop —
/// see the module docs. Batches are claimed from a shared cursor, so
/// workers stay busy until the mix is drained; a worker builds a batch's
/// queries with `query(j)` only when it claims the batch, so the mix is
/// never held whole. Per-query order (and therefore the checksum) is
/// index-stable regardless of which worker ran which batch.
pub fn run<D: DistributionMethod + Clone + Send + Sync + 'static>(
    cluster: &Cluster<D>,
    count: usize,
    query: impl Fn(usize) -> PartialMatchQuery + Sync,
    policy: &ExecPolicy,
    opts: &LoadgenOpts,
) -> LoadgenSummary {
    let frontend = cluster.frontend();
    let batch = opts.batch.max(1);
    let concurrency = opts.concurrency.max(1);
    let next_batch = AtomicUsize::new(0);
    let killed = AtomicBool::new(false);
    let batches_total = count.div_ceil(batch);

    #[derive(Default)]
    struct Tally {
        batch_us: Vec<f64>,
        /// Simulated response µs → query count, keyed by `f64::to_bits`:
        /// a run has a handful of distinct simulated times, so this stays
        /// small however many queries it runs.
        sim_us: BTreeMap<u64, u64>,
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
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(concurrency);
        for _ in 0..concurrency {
            let frontend = Arc::clone(&frontend);
            let next_batch = &next_batch;
            let killed = &killed;
            let query = &query;
            workers.push(scope.spawn(move || {
                let mut tally = Tally::default();
                loop {
                    let b = next_batch.fetch_add(1, Ordering::Relaxed);
                    let start = b * batch;
                    if start >= count {
                        break;
                    }
                    if let Some(kill) = opts.kill {
                        if start >= kill.at_query && !killed.swap(true, Ordering::Relaxed) {
                            cluster.kill_node(kill.node);
                        }
                    }
                    let queries: Vec<PartialMatchQuery> =
                        (start..(start + batch).min(count)).map(query).collect();
                    let t0 = Instant::now();
                    let reports = frontend.execute_batch(&queries, policy);
                    tally.batch_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    for report in &reports {
                        *tally
                            .sim_us
                            .entry(report.simulated_response_us.to_bits())
                            .or_insert(0) += 1;
                        tally.coverage_sum += report.coverage;
                        if report.coverage < 1.0 {
                            tally.degraded += 1;
                        }
                        tally.lost += report.lost_buckets.len() as u64;
                    }
                    tally.checksum = tally
                        .checksum
                        .wrapping_add(reports_checksum(start, &reports));
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

    let mut all = Tally::default();
    for mut t in tallies {
        all.batch_us.append(&mut t.batch_us);
        for (bits, n) in t.sim_us {
            *all.sim_us.entry(bits).or_insert(0) += n;
        }
        all.coverage_sum += t.coverage_sum;
        all.degraded += t.degraded;
        all.lost += t.lost;
        all.checksum = all.checksum.wrapping_add(t.checksum);
    }
    let node_stats = frontend.node_stats();
    let attribution = frontend.attribution();
    let node_rt_us_hist = obs::NET_NODE_RT_US.counts().to_vec();
    LoadgenSummary {
        queries: count,
        batches: batches_total,
        wall_s,
        qps: if wall_s > 0.0 {
            count as f64 / wall_s
        } else {
            0.0
        },
        batch_p50_us: percentile(&mut all.batch_us, 50.0),
        batch_p99_us: percentile(&mut all.batch_us, 99.0),
        sim_p50_us: percentile_counted(&all.sim_us, 50.0),
        sim_p99_us: percentile_counted(&all.sim_us, 99.0),
        mean_coverage: if count == 0 {
            1.0
        } else {
            all.coverage_sum / count as f64
        },
        degraded: all.degraded,
        lost_buckets: all.lost,
        checksum: all.checksum,
        timeouts: node_stats.iter().map(|s| s.timeouts).sum(),
        node_stats,
        attribution,
        node_rt_us_hist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_stats(node: u32) -> NodeStats {
        NodeStats {
            node,
            devices: u64::from(node) * 8..u64::from(node + 1) * 8,
            requests: 40,
            responses: 39,
            timeouts: 1,
            down: node == 1,
        }
    }

    #[test]
    fn node_stats_json_is_pinned() {
        assert_eq!(node_stats(1).to_json(), "{\"node\":1,\"devices\":[8,16],\"requests\":40,\"responses\":39,\"timeouts\":1,\"down\":true}");
    }

    #[test]
    fn loadgen_summary_json_is_pinned() {
        let summary = LoadgenSummary {
            queries: 2_000,
            batches: 8,
            wall_s: 0.123_456_7,
            qps: 16_200.04,
            batch_p50_us: 812.25,
            batch_p99_us: 1_999.96,
            sim_p50_us: 33.333_3,
            sim_p99_us: 66.666_6,
            mean_coverage: 0.999_999_5,
            degraded: 3,
            lost_buckets: 12,
            checksum: 0x00ab_cdef_0123,
            timeouts: 1,
            node_stats: vec![node_stats(0), node_stats(1)],
            attribution: vec![NodeAttribution {
                node: 0,
                responses: 39,
                busy_p50_us: 101.25,
                busy_p99_us: 250.75,
                busy_total_us: 4_000,
                critical_batches: 5,
                critical_share: 0.625,
                recent_critical_share: 0.333_33,
                busy_hist: vec![0, 3, 36, 0, 0, 0, 0],
                merged_requests: 40,
                merged_queries: 1_000,
                merged_records: 25_000,
            }],
            node_rt_us_hist: vec![0, 3, 36, 0, 0, 0, 0],
        };
        assert_eq!(summary.to_json(), "{\"queries\":2000,\"batches\":8,\"wall_s\":0.1235,\"qps\":16200.0,\"batch_p50_us\":812.2,\"batch_p99_us\":2000.0,\"sim_p50_us\":33.333,\"sim_p99_us\":66.667,\"mean_coverage\":1.000000,\"degraded\":3,\"lost_buckets\":12,\"checksum\":\"000000abcdef0123\",\"timeouts\":1,\"nodes\":[{\"node\":0,\"devices\":[0,8],\"requests\":40,\"responses\":39,\"timeouts\":1,\"down\":false},{\"node\":1,\"devices\":[8,16],\"requests\":40,\"responses\":39,\"timeouts\":1,\"down\":true}],\"attribution\":[{\"node\":0,\"responses\":39,\"busy_p50_us\":101.2,\"busy_p99_us\":250.8,\"busy_total_us\":4000,\"critical_batches\":5,\"critical_share\":0.6250,\"recent_critical_share\":0.3333,\"busy_hist\":[0,3,36,0,0,0,0],\"merged_requests\":40,\"merged_queries\":1000,\"merged_records\":25000}],\"node_rt_us_hist\":[0,3,36,0,0,0,0]}");
    }
}
