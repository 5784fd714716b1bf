//! Cluster-level acceptance properties from the pmr-net issue.
//!
//! - Any N-way partition is a disjoint contiguous cover of `0..M`.
//! - Scatter/gather over an in-process cluster is **bit-equal** to a
//!   single-process [`Executor::execute_batch`] on the paper's Table 7
//!   system — fault-free and under an installed [`FaultPlan`] with
//!   mirroring.
//! - Killing a node mid-run degrades coverage per query (never an
//!   error) and eventually circuit-breaks the node.

use pmr_core::{FxDistribution, PartialMatchQuery, SystemConfig};
use pmr_mkh::{Record, Schema, Value};
use pmr_net::loadgen;
use pmr_net::{Cluster, ClusterConfig, FrontendConfig, NetFaultPlan};
use pmr_rt::check::Source;
use pmr_rt::fault::{FaultPlan, RetryPolicy};
use pmr_rt::rt_proptest;
use pmr_storage::exec::{DeviceOutcome, ExecPolicy, Executor, Redundancy};
use pmr_storage::{CostModel, DeclusteredFile};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

const SEED: u64 = 0xBA7C;

/// Table 7 (6 fields of 8, M = 32), mirrored, 2000 records — the same
/// fixture as the repo's batch-equivalence suite, plus a 4-node cluster
/// over the same file. The mutex serialises fault-plan installs against
/// every test that reads the file.
struct Fixture {
    file: DeclusteredFile<FxDistribution>,
    exec: Executor<FxDistribution>,
    cluster: Cluster<FxDistribution>,
    plan_gate: Mutex<()>,
}

fn fixture() -> &'static Fixture {
    static STATE: OnceLock<Fixture> = OnceLock::new();
    STATE.get_or_init(|| {
        let file = table7_file();
        let exec = Executor::new(&file, CostModel::main_memory());
        let cluster = Cluster::new(&file, CostModel::main_memory(), ClusterConfig::default());
        Fixture {
            file,
            exec,
            cluster,
            plan_gate: Mutex::new(()),
        }
    })
}

fn table7_file() -> DeclusteredFile<FxDistribution> {
    let sys = SystemConfig::new(&[8; 6], 32).unwrap();
    let schema = Schema::ints(&sys);
    let fx = FxDistribution::auto(sys.clone()).expect("auto always assigns");
    let mut file = DeclusteredFile::new(schema, fx, SEED).expect("schema matches system");
    assert!(file.enable_mirroring());
    for i in 0..2_000i64 {
        let values: Vec<Value> = (0..sys.num_fields())
            .map(|f| Value::Int(i * 131 + f as i64 * 7))
            .collect();
        file.insert(Record::new(values))
            .expect("records type-check");
    }
    file
}

fn gen_query(src: &mut Source, sys: &SystemConfig, max_open: u64) -> PartialMatchQuery {
    let unspecified = src.int_in(0, max_open) as usize;
    let n = sys.num_fields();
    let mut free: Vec<usize> = Vec::new();
    while free.len() < unspecified {
        let f = src.int_in(0, n as u64 - 1) as usize;
        if !free.contains(&f) {
            free.push(f);
        }
    }
    let values: Vec<Option<u64>> = (0..n)
        .map(|i| {
            if free.contains(&i) {
                None
            } else {
                Some(src.int_in(0, sys.field_size(i) - 1))
            }
        })
        .collect();
    PartialMatchQuery::new(sys, &values).expect("values in range")
}

rt_proptest! {
    /// Partitioning property: for any device count and node count, the
    /// contiguous partition is a disjoint cover of `0..M` with every
    /// node nonempty.
    fn partition_is_a_disjoint_cover(src) {
        let m = src.int_in(1, 512);
        let n = src.int_in(1, m.min(64)) as usize;
        let ranges = pmr_net::partition::contiguous(m, n);
        assert_eq!(ranges.len(), n);
        let mut next = 0u64;
        for (i, r) in ranges.iter().enumerate() {
            assert_eq!(r.start, next, "node {i} must start where node {} ended", i.wrapping_sub(1));
            assert!(r.start < r.end, "node {i} must own at least one device");
            next = r.end;
        }
        assert_eq!(next, m, "partition must cover every device");
        // Sizes differ by at most one — no node is starved.
        let sizes: Vec<u64> = ranges.iter().map(|r| r.end - r.start).collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(hi - lo <= 1, "imbalanced partition: {sizes:?}");
    }
}

rt_proptest! {
    /// ISSUE acceptance property: scatter/gather over 1..=M nodes ≡
    /// single-process `execute_batch`, bit-for-bit, across random query
    /// mixes, policies, and fault plans (including none), with
    /// mirroring enabled throughout. Narrow batches (0–1 open fields)
    /// leave most nodes untouched, so targeted scatter sends partial node
    /// sets and the frontend fills in the rest.
    fn gather_is_bit_equal_to_single_process(src) {
        let fx = fixture();
        let sys = fx.file.system().clone();

        let nodes = src.int_in(1, sys.devices()) as usize;
        let cluster = Cluster::new(
            &fx.file,
            CostModel::main_memory(),
            ClusterConfig { nodes, ..ClusterConfig::default() },
        );
        let batch_size = src.int_in(1, 6) as usize;
        let max_open = if src.weighted(0.5) { 1 } else { 3 };
        let queries: Vec<PartialMatchQuery> =
            (0..batch_size).map(|_| gen_query(src, &sys, max_open)).collect();
        let policy = ExecPolicy {
            retry: RetryPolicy { max_attempts: 4, base_us: 10, cap_us: 1_000, budget_us: 100_000 },
            redundancy: if src.weighted(0.8) { Redundancy::Mirror } else { Redundancy::None },
            seed: src.any_u64(),
        };
        let plan = if src.weighted(0.5) {
            let mut plan = FaultPlan::new(src.any_u64());
            if src.weighted(0.6) {
                plan = plan.with_read_error(0.2);
            }
            if src.weighted(0.4) {
                plan = plan.with_dead_device(src.int_in(0, sys.devices() - 1));
            }
            Some(Arc::new(plan))
        } else {
            None
        };

        let _gate = fx.plan_gate.lock().unwrap();
        fx.file.install_fault_plan(plan.clone());
        let gathered = cluster.frontend().execute_batch(&queries, &policy);
        let local = fx.exec.execute_batch(&queries, &policy);
        fx.file.install_fault_plan(None);

        assert_eq!(gathered.len(), local.len());
        for (i, (got, want)) in gathered.iter().zip(&local).enumerate() {
            assert_eq!(
                got, want,
                "query {i}/{batch_size} ({}) on {nodes} nodes diverged under plan {:?}",
                queries[i],
                plan.is_some()
            );
        }
    }
}

/// ISSUE acceptance pin, cluster path: on a `Parity{k=4, r=2}` Table 7
/// file served by 4 nodes, any two simultaneous *device* outages are
/// invisible end-to-end — gathered reports stay at coverage 1.0, are
/// bit-equal to the single-process batch path, and carry the same
/// records as the fault-free run. The redundancy policy rides the v2
/// wire format to the nodes.
#[test]
fn double_outage_with_parity_on_cluster_is_invisible() {
    let sys = SystemConfig::new(&[8; 6], 32).unwrap();
    let schema = Schema::ints(&sys);
    let fx = FxDistribution::auto(sys.clone()).expect("auto always assigns");
    let mut file = DeclusteredFile::new(schema, fx, SEED).expect("schema matches system");
    for i in 0..2_000i64 {
        let values: Vec<Value> = (0..sys.num_fields())
            .map(|f| Value::Int(i * 131 + f as i64 * 7))
            .collect();
        file.insert(Record::new(values))
            .expect("records type-check");
    }
    // Parity is enabled before construction: node executors snapshot the
    // stripe directory.
    assert!(file.enable_parity(4, 2), "k + r = 6 <= 32 devices");
    let exec = Executor::new(&file, CostModel::main_memory());
    let cluster = Cluster::new(&file, CostModel::main_memory(), ClusterConfig::default());
    let policy = ExecPolicy {
        retry: RetryPolicy::none(),
        redundancy: Redundancy::Parity { k: 4, r: 2 },
        seed: SEED,
    };

    // Wide query (3 unspecified fields → 512 buckets over all devices),
    // so every node and every outage pair is exercised.
    let values: Vec<Option<u64>> = vec![Some(1), None, Some(2), None, Some(3), None];
    let wide = PartialMatchQuery::new(&sys, &values).unwrap();
    let queries = vec![wide];

    let clean = cluster.frontend().execute_batch(&queries, &policy);
    assert_eq!(clean[0].coverage, 1.0);

    // Same-node, cross-node, and extreme pairs.
    for dead in [[3u64, 7], [5, 21], [0, 31]] {
        let plan = FaultPlan::new(SEED)
            .with_dead_device(dead[0])
            .with_dead_device(dead[1]);
        file.install_fault_plan(Some(Arc::new(plan)));
        let gathered = cluster.frontend().execute_batch(&queries, &policy);
        let local = exec.execute_batch(&queries, &policy);
        file.install_fault_plan(None);

        assert_eq!(
            gathered, local,
            "dead pair {dead:?}: gathered ≡ single-process"
        );
        let report = &gathered[0];
        assert_eq!(report.coverage, 1.0, "dead pair {dead:?} must be invisible");
        assert!(report.lost_buckets.is_empty());
        assert!(
            report.reconstructions() > 0,
            "dead pair {dead:?} must reconstruct, not luck out"
        );
        let mut got: Vec<String> = report.records.iter().map(|r| format!("{r}")).collect();
        let mut want: Vec<String> = clean[0].records.iter().map(|r| format!("{r}")).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(
            got, want,
            "dead pair {dead:?}: records must match the fault-free run"
        );
    }
}

/// The loadgen checksum agrees between a cluster run and a
/// single-process run over the same seeded mix — end-to-end, through
/// the wire, batching, and multi-threaded completion order.
#[test]
fn loadgen_checksum_matches_single_process() {
    let fx = fixture();
    // The gather property installs fault plans on the same file: hold
    // them off so both runs read fault-free.
    let _gate = fx.plan_gate.lock().unwrap_or_else(|e| e.into_inner());
    let queries = loadgen::query_mix(fx.file.system(), 300, SEED, 2);
    let policy = ExecPolicy::default();

    let summary = loadgen::run(
        &fx.cluster,
        queries.len(),
        |j| queries[j].clone(),
        &policy,
        &loadgen::LoadgenOpts {
            concurrency: 2,
            batch: 64,
            kill: None,
            watch: None,
        },
    );
    let local = fx.exec.execute_batch(&queries, &policy);
    let expected = loadgen::reports_checksum(0, &local);

    assert_eq!(
        summary.checksum, expected,
        "cluster and single-process checksums diverged"
    );
    assert_eq!(summary.queries, 300);
    assert_eq!(summary.degraded, 0);
    assert!((summary.mean_coverage - 1.0).abs() < 1e-12);
}

/// Killing a node mid-run: queries keep answering, the killed node's
/// devices degrade to `Lost` per query, and the circuit breaker stops
/// asking after `down_after` consecutive timeouts.
#[test]
fn killed_node_degrades_instead_of_failing() {
    let file = table7_file();
    let cfg = ClusterConfig {
        nodes: 4,
        frontend: FrontendConfig {
            deadline: Duration::from_millis(100),
            down_after: 2,
        },
        net_faults: None,
    };
    let cluster = Cluster::new(&file, CostModel::main_memory(), cfg);
    let sys = file.system().clone();
    let policy = ExecPolicy::default();

    // Wide query: 3 unspecified fields → 512 buckets over all 32
    // devices, so every node's range matters.
    let values: Vec<Option<u64>> = vec![Some(1), None, Some(2), None, Some(3), None];
    let wide = PartialMatchQuery::new(&sys, &values).unwrap();

    let healthy = cluster
        .frontend()
        .execute_batch(std::slice::from_ref(&wide), &policy);
    assert_eq!(healthy[0].coverage, 1.0);
    assert!(healthy[0].lost_buckets.is_empty());

    cluster.kill_node(2);
    let degraded = cluster
        .frontend()
        .execute_batch(std::slice::from_ref(&wide), &policy);
    let report = &degraded[0];
    assert!(
        report.coverage < 1.0,
        "killed node must cost coverage, got {}",
        report.coverage
    );
    assert!(!report.lost_buckets.is_empty());
    // Exactly the killed node's devices (16..24) are lost.
    for d in &report.per_device {
        let in_dead_range = (16..24).contains(&d.device);
        let lost = matches!(d.outcome, pmr_storage::exec::DeviceOutcome::Lost);
        assert_eq!(
            lost, in_dead_range,
            "device {} outcome {:?}",
            d.device, d.outcome
        );
        if lost {
            assert_eq!(
                d.simulated_us, 0.0,
                "wall deadline must not be charged as simulated time"
            );
        }
    }
    // Records from surviving nodes still arrive.
    let healthy_outside: usize = healthy[0].records.len();
    assert!(report.records.len() <= healthy_outside);

    // One more timeout trips the breaker (down_after = 2) …
    let _ = cluster
        .frontend()
        .execute_batch(std::slice::from_ref(&wide), &policy);
    let stats = cluster.frontend().node_stats();
    assert!(
        stats[2].down,
        "node 2 must be circuit-broken after 2 consecutive timeouts"
    );
    assert!(stats[2].timeouts >= 2);

    // … after which requests skip it: no more deadline stalls, still
    // degraded, and the skipped node's request counter stops moving.
    let before = cluster.frontend().node_stats()[2].requests;
    let after_break = cluster
        .frontend()
        .execute_batch(std::slice::from_ref(&wide), &policy);
    assert!(after_break[0].coverage < 1.0);
    assert_eq!(cluster.frontend().node_stats()[2].requests, before);
}

/// A dead node that no query of the batch touches costs the batch
/// nothing: it is never asked (its request and timeout counters stay
/// still, and no gather deadline is waited), and every report is
/// bit-equal to the single-process one.
#[test]
fn dead_node_the_batch_does_not_touch_costs_nothing() {
    let fx = fixture();
    // No fault plan may land on the shared file mid-test.
    let _gate = fx.plan_gate.lock().unwrap_or_else(|e| e.into_inner());
    let sys = fx.file.system().clone();
    let cfg = ClusterConfig {
        nodes: 4,
        frontend: FrontendConfig {
            // Long enough that a wait on the dead node would stall the
            // test visibly; the counters below catch it outright.
            deadline: Duration::from_secs(10),
            down_after: 0,
        },
        net_faults: None,
    };
    let cluster = Cluster::new(&fx.file, CostModel::main_memory(), cfg);
    let dead = 2;
    let dead_range = 16..24;
    // Exact matches and 1-open queries on I fields stay inside one node;
    // keep those that miss the dead node's devices.
    let queries: Vec<PartialMatchQuery> = loadgen::query_mix(&sys, 200, 41, 1)
        .into_iter()
        .filter(|q| !fx.file.method().device_set(q).meets(dead_range.clone()))
        .take(24)
        .collect();
    assert!(
        queries.iter().any(|q| q.unspecified_count() == 1),
        "the batch holds 1-open queries too"
    );
    assert_eq!(queries.len(), 24);

    cluster.kill_node(dead);
    let before = cluster.frontend().node_stats()[dead].clone();
    let gathered = cluster
        .frontend()
        .execute_batch(&queries, &ExecPolicy::default());
    let after = cluster.frontend().node_stats()[dead].clone();
    let local = fx.exec.execute_batch(&queries, &ExecPolicy::default());

    assert_eq!(gathered, local, "untouched dead node: gathered ≡ local");
    assert_eq!(
        after.requests, before.requests,
        "the dead node is not asked"
    );
    assert_eq!(after.timeouts, before.timeouts, "and costs no deadline");
    assert!(!after.down);
}

/// A query that touches only some of a dead node's devices loses exactly
/// those devices: the others had nothing to lose and report their idle
/// yield, bit-equal to the single-process report.
#[test]
fn dead_node_loses_only_devices_with_qualified_buckets() {
    let fx = fixture();
    // No fault plan may land on the shared file mid-test.
    let _gate = fx.plan_gate.lock().unwrap_or_else(|e| e.into_inner());
    let sys = fx.file.system().clone();
    let cfg = ClusterConfig {
        nodes: 4,
        frontend: FrontendConfig {
            deadline: Duration::from_millis(100),
            down_after: 0,
        },
        net_faults: None,
    };
    let cluster = Cluster::new(&fx.file, CostModel::main_memory(), cfg);
    let dead_range = 16..24u64;
    // A query whose devices meet the dead node's range without covering it.
    let query = loadgen::query_mix(&sys, 200, 43, 1)
        .into_iter()
        .rev()
        .find(|q| {
            let set = fx.file.method().device_set(q);
            set.meets(dead_range.clone()) && dead_range.clone().any(|d| !set.contains(d))
        })
        .expect("the mix holds a query touching part of node 2");
    let set = fx.file.method().device_set(&query);

    cluster.kill_node(2);
    let policy = ExecPolicy::default();
    let gathered = cluster
        .frontend()
        .execute_batch(std::slice::from_ref(&query), &policy);
    let local = fx.exec.execute_batch(std::slice::from_ref(&query), &policy);
    let (got, want) = (&gathered[0], &local[0]);
    assert!(got.coverage < 1.0, "the touched devices are lost");
    for (g, w) in got.per_device.iter().zip(&want.per_device) {
        if dead_range.contains(&g.device) && set.contains(g.device) {
            assert_eq!(g.outcome, DeviceOutcome::Lost, "device {}", g.device);
            assert_eq!(g.qualified_buckets, w.qualified_buckets);
            assert_eq!(g.simulated_us, 0.0);
        } else {
            assert_eq!(g, w, "device {} had nothing on the dead node", g.device);
        }
    }
}

/// Seeded net-fault drops degrade deterministically: same seed, same
/// drops, same lost devices — and zero drop probability is a no-op.
#[test]
fn net_fault_drops_are_seed_deterministic() {
    let file = table7_file();
    let sys = file.system().clone();
    let policy = ExecPolicy::default();
    let queries = loadgen::query_mix(&sys, 8, 7, 2);

    let run = |seed: u64| {
        let cfg = ClusterConfig {
            nodes: 4,
            frontend: FrontendConfig {
                deadline: Duration::from_millis(100),
                down_after: 0,
            },
            net_faults: Some(NetFaultPlan::new(seed, 0.35)),
        };
        let cluster = Cluster::new(&file, CostModel::main_memory(), cfg);
        cluster
            .frontend()
            .execute_batch(&queries, &policy)
            .iter()
            .map(loadgen::report_checksum)
            .collect::<Vec<_>>()
    };

    let a = run(99);
    let b = run(99);
    assert_eq!(a, b, "same net-fault seed must replay the same degradation");
}

/// `down_after = 0` disables the circuit breaker: a dead node keeps
/// costing deadlines but is still asked — by every query that touches
/// it.
#[test]
fn breaker_disabled_keeps_asking() {
    let file = table7_file();
    let cfg = ClusterConfig {
        nodes: 2,
        frontend: FrontendConfig {
            deadline: Duration::from_millis(50),
            down_after: 0,
        },
        net_faults: None,
    };
    let cluster = Cluster::new(&file, CostModel::main_memory(), cfg);
    let sys = file.system().clone();
    // Three unspecified fields put buckets on every device, so the query
    // touches node 0 (devices 0..16) and the frontend must ask it.
    let values: Vec<Option<u64>> = vec![Some(1), None, Some(2), None, Some(3), None];
    let queries = vec![PartialMatchQuery::new(&sys, &values).unwrap()];
    assert!(file.method().device_set(&queries[0]).meets(0..16));
    cluster.kill_node(0);
    for _ in 0..3 {
        let _ = cluster
            .frontend()
            .execute_batch(&queries, &ExecPolicy::default());
    }
    let stats = cluster.frontend().node_stats();
    assert!(!stats[0].down);
    assert_eq!(stats[0].requests, 3);
}

// -----------------------------------------------------------------
// Critical-path attribution (frontend-local; no tracing required)
// -----------------------------------------------------------------

/// Every gathered batch elects exactly one critical node (the max
/// `busy_us` responder): shares sum to one, response counts agree with
/// `node_stats`, and the busy histogram holds one sample per response.
#[test]
fn attribution_elects_one_critical_node_per_batch() {
    let file = table7_file();
    let cluster = Cluster::new(&file, CostModel::main_memory(), ClusterConfig::default());
    let sys = file.system().clone();
    let policy = ExecPolicy::default();
    let queries = loadgen::query_mix(&sys, 40, 11, 2);
    let batches = queries.chunks(8).count() as u64;
    for chunk in queries.chunks(8) {
        let _ = cluster.frontend().execute_batch(chunk, &policy);
    }

    let attr = cluster.frontend().attribution();
    let stats = cluster.frontend().node_stats();
    assert_eq!(attr.len(), stats.len());
    let mut critical_total = 0u64;
    let mut share_total = 0.0;
    let mut recent_total = 0.0;
    for (a, s) in attr.iter().zip(&stats) {
        assert_eq!(a.node, s.node);
        assert_eq!(a.responses, s.responses);
        assert_eq!(
            a.busy_hist.iter().sum::<u64>(),
            a.responses,
            "node {}: one histogram sample per gathered response",
            a.node
        );
        assert!(
            a.busy_p50_us <= a.busy_p99_us,
            "node {}: p50 must not exceed p99",
            a.node
        );
        critical_total += a.critical_batches;
        share_total += a.critical_share;
        recent_total += a.recent_critical_share;
    }
    assert_eq!(
        critical_total, batches,
        "each batch elects exactly one critical node"
    );
    assert!(
        (share_total - 1.0).abs() < 1e-9,
        "critical shares must sum to 1, got {share_total}"
    );
    assert!(
        (recent_total - 1.0).abs() < 1e-9,
        "recent shares must sum to 1, got {recent_total}"
    );
}

/// The acceptance scenario from the issue: after a kill, the dead node's
/// recent critical share drains to exactly zero while the run keeps
/// answering from the survivors.
#[test]
fn killed_node_recent_critical_share_drains_to_zero() {
    let file = table7_file();
    let cfg = ClusterConfig {
        nodes: 4,
        frontend: FrontendConfig {
            deadline: Duration::from_millis(100),
            down_after: 2,
        },
        net_faults: None,
    };
    let cluster = Cluster::new(&file, CostModel::main_memory(), cfg);
    let sys = file.system().clone();
    let policy = ExecPolicy::default();
    let queries = loadgen::query_mix(&sys, 4, 23, 2);

    for _ in 0..8 {
        let _ = cluster.frontend().execute_batch(&queries, &policy);
    }
    cluster.kill_node(1);
    // More than RECENT_WINDOW batches flush node 1 out of the ring even
    // if it dominated every pre-kill batch.
    for _ in 0..(pmr_net::RECENT_WINDOW + 4) {
        let _ = cluster.frontend().execute_batch(&queries, &policy);
    }

    let attr = cluster.frontend().attribution();
    assert_eq!(
        attr[1].recent_critical_share, 0.0,
        "killed node must vanish from the recent window"
    );
    let survivors: f64 = attr
        .iter()
        .filter(|a| a.node != 1)
        .map(|a| a.recent_critical_share)
        .sum();
    assert!(
        (survivors - 1.0).abs() < 1e-9,
        "survivors own the whole recent window"
    );
    // The historical share remembers the pre-kill era.
    assert!(attr[1].critical_share < 1.0);
}
