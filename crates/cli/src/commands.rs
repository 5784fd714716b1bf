//! Command implementations.

use crate::args::Flags;
use crate::fixture::Synthetic;
use pmr_analysis::experiments::{self, Experiment};
use pmr_analysis::probability;
use pmr_analysis::tables::distribution_table;
use pmr_baselines::ModuloDistribution;
use pmr_core::method::DistributionMethod;
use pmr_core::{FxDistribution, PartialMatchQuery, SystemConfig};
use pmr_rt::fault::{FaultPlan, RetryPolicy};
use pmr_rt::obs::{self, TraceConfig};
use pmr_rt::Rng;
use pmr_storage::exec::{
    execute_parallel, execute_parallel_with, DeviceOutcome, ExecPolicy, Redundancy,
};
use pmr_storage::metrics::BalanceMetrics;
use pmr_storage::{CostModel, DeclusteredFile};
use std::sync::Arc;

/// Installs the trace sink requested by `--trace` (a path, `stderr`, or
/// `off`). Without the flag the ambient `PMR_TRACE` selection stands.
/// Returns whether tracing is on afterwards.
fn install_trace(flags: &Flags<'_>) -> Result<bool, String> {
    if let Some(value) = flags.get("trace") {
        obs::install(TraceConfig::from_str_lossy(value))
            .map_err(|e| format!("cannot open trace sink {value:?}: {e}"))?;
    }
    Ok(obs::enabled())
}

/// The fault-aware policy `simulate` and `chaos` run under: `--retry`
/// (default [`RetryPolicy::default`]), failover whenever `redundancy` is
/// on, and fault decisions seeded by `seed`.
fn fault_policy(
    flags: &Flags<'_>,
    redundancy: Redundancy,
    seed: u64,
) -> Result<ExecPolicy, String> {
    Ok(ExecPolicy {
        retry: flags
            .get("retry")
            .map_or(Ok(RetryPolicy::default()), RetryPolicy::parse)?,
        failover: redundancy != Redundancy::None,
        redundancy,
        seed,
    })
}

/// A sample query: the first `n − k` fields fixed to values drawn from
/// `rng`, the last `k` left open.
fn trailing_open(sys: &SystemConfig, k: usize, rng: &mut Rng) -> Result<PartialMatchQuery, String> {
    let n = sys.num_fields();
    let values: Vec<Option<u64>> = (0..n)
        .map(|i| (i < n - k).then(|| rng.gen_range(0..sys.field_size(i))))
        .collect();
    PartialMatchQuery::new(sys, &values).map_err(|e| e.to_string())
}

/// `count` sample queries cycling 1, 2, 3 open trailing fields (capped
/// at the field count).
fn sample_batch(
    sys: &SystemConfig,
    count: usize,
    rng: &mut Rng,
) -> Result<Vec<PartialMatchQuery>, String> {
    (0..count)
        .map(|j| trailing_open(sys, (1 + j % 3).min(sys.num_fields()), rng))
        .collect()
}

/// `pmr distribute` — print the bucket map.
pub fn distribute(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let sys = flags.system()?;
    if sys.total_buckets() > 4096 {
        return Err(format!(
            "{} buckets is too many to print; keep the space under 4096",
            sys.total_buckets()
        ));
    }
    let fx =
        FxDistribution::with_strategy(sys.clone(), flags.strategy()?).map_err(|e| e.to_string())?;
    let dm = ModuloDistribution::new(sys.clone());
    println!("{sys} with {}", fx.name());
    let methods: [(&str, &dyn DistributionMethod); 2] = [("FX", &fx), ("Modulo", &dm)];
    print!("{}", distribution_table(&sys, &methods));
    Ok(())
}

/// `pmr analyze` — certified + measured optimality per k.
pub fn analyze(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let sys = flags.system()?;
    if sys.num_fields() > 16 {
        return Err("analyze supports up to 16 fields".into());
    }
    let fx =
        FxDistribution::with_strategy(sys.clone(), flags.strategy()?).map_err(|e| e.to_string())?;
    let report = pmr_core::report::OptimalityReport::analyze(fx.assignment());
    print!("{}", report.render());
    if report.measured {
        let dm_measured =
            probability::empirical_fraction(&ModuloDistribution::new(sys.clone()), &sys);
        println!(
            "measured  (Modulo, for comparison): {:.1}%",
            100.0 * dm_measured
        );
    }
    Ok(())
}

/// `pmr simulate` — synthetic file + parallel query execution.
///
/// `--trace <path|stderr>` records spans and metrics as JSON lines
/// (aggregate them later with `pmr stats`); `--json` switches stdout to
/// machine-readable JSON lines, one object per query, embedding each
/// [`pmr_storage::exec::ExecutionReport`] and its trace summary.
///
/// Any of `--faults <spec>` / `--retry <policy>` /
/// `--redundancy <none|mirror|parity[:K,R]>` switches the query loop to
/// the fault-aware executor ([`execute_parallel_with`]): injected
/// faults are retried with simulated-time backoff, failed over through
/// the selected redundancy tier (buddy mirrors, or parity
/// reconstruction under `--redundancy parity`), and reported as
/// coverage + per-device outcomes instead of errors.
pub fn simulate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let spec = Synthetic::from_flags(&flags, false, 10_000, 42)?;
    let (sys, records, seed) = (&spec.sys, spec.records, spec.seed);
    let json = flags.has("json");
    let fault_spec = flags.get("faults");
    let redundancy = flags
        .get("redundancy")
        .map_or(Ok(Redundancy::None), Redundancy::parse)?;
    let fault_mode = fault_spec.is_some() || flags.has("retry") || redundancy != Redundancy::None;
    let policy = fault_policy(&flags, redundancy, seed)?;
    let traced = install_trace(&flags)?;
    let (file, mut rng) = spec.build(&flags, redundancy)?;

    let occupancy = file.record_occupancy();
    let occ = BalanceMetrics::of(&occupancy);
    if json {
        println!(
            "{{\"system\":\"{sys}\",\"records\":{records},\"seed\":{seed},\
             \"record_balance\":{{\"mean\":{:.3},\"largest\":{},\"std_dev\":{:.3}}}}}",
            occ.mean, occ.largest, occ.std_dev
        );
    } else {
        println!("inserted {records} records into {} devices", sys.devices());
        println!(
            "static record balance: mean {:.1}/device, max {}, stddev {:.1}",
            occ.mean, occ.largest, occ.std_dev
        );
        println!();
    }

    if let Some(spec) = fault_spec {
        let plan = FaultPlan::parse(spec, seed)?;
        file.install_fault_plan(Some(Arc::new(plan)));
    }

    // Execute one query per unspecified-field count (k = 1 … n−1).
    let cost = CostModel::disk_1988();
    for k in 1..sys.num_fields() {
        let q = trailing_open(sys, k, &mut rng)?;
        let report = if fault_mode {
            execute_parallel_with(&file, &q, &cost, &policy).map_err(|e| e.to_string())?
        } else {
            execute_parallel(&file, &q, &cost).map_err(|e| e.to_string())?
        };
        let metrics = BalanceMetrics::of(&report.histogram());
        if json {
            println!(
                "{{\"query\":\"{q}\",\"qualified\":{},\"optimal\":{},\"report\":{}}}",
                q.qualified_count_in(sys),
                metrics.optimal,
                report.to_json()
            );
            continue;
        }
        // FX files take the fast inverse path, so this stays O(|R|)
        // rather than O(M·|R|).
        let addresses: u64 = report.per_device.iter().map(|d| d.addresses_computed).sum();
        println!(
            "query {q}: |R| = {}, largest response {} (optimal {}), \
             {addresses} addresses computed, simulated {:.1} ms, speedup {:.2}x",
            q.qualified_count_in(sys),
            report.largest_response,
            metrics.optimal,
            report.simulated_response_us / 1000.0,
            report.speedup()
        );
        if fault_mode {
            let mut retries = 0u32;
            let (mut failed_over, mut reconstructed, mut lost_devices) = (0usize, 0usize, 0usize);
            for d in &report.per_device {
                match d.outcome {
                    DeviceOutcome::Ok => {}
                    DeviceOutcome::Retried(n) => retries += n,
                    DeviceOutcome::FailedOver => failed_over += 1,
                    DeviceOutcome::Reconstructed => reconstructed += 1,
                    DeviceOutcome::Lost => lost_devices += 1,
                }
            }
            println!(
                "  coverage {:.4}: {retries} retries, {failed_over} devices failed over, \
                 {reconstructed} devices reconstructed ({} buckets), \
                 {lost_devices} devices lost buckets ({} lost total)",
                report.coverage,
                report.reconstructions(),
                report.lost_buckets.len()
            );
        }
        if let Some(trace) = &report.trace {
            println!(
                "  trace: {} spans, plan cache {} hit / {} miss, {} codes enumerated",
                trace.spans,
                trace.counter("inverse.plan_cache.hit"),
                trace.counter("inverse.plan_cache.miss"),
                trace.counter("inverse.codes_enumerated"),
            );
        }
    }
    // `--batch B`: push B additional sample queries through one resident
    // batch (the long-lived per-device executor) and report throughput.
    if let Some(spec) = flags.get("batch") {
        let batch: usize = spec.parse().map_err(|e| format!("bad --batch: {e}"))?;
        if batch == 0 {
            return Err("--batch needs at least one query".into());
        }
        let queries = sample_batch(sys, batch, &mut rng)?;
        let exec = pmr_storage::exec::Executor::new(&file, cost);
        let start = std::time::Instant::now();
        let reports = exec.execute_batch(&queries, &policy);
        let elapsed = start.elapsed();
        let total_records: u64 = reports.iter().map(|r| r.records.len() as u64).sum();
        let mean_coverage = reports.iter().map(|r| r.coverage).sum::<f64>() / reports.len() as f64;
        let qps = batch as f64 / elapsed.as_secs_f64().max(f64::EPSILON);
        if json {
            println!(
                "{{\"batch\":{batch},\"workers\":{},\"records_returned\":{total_records},\
                 \"mean_coverage\":{mean_coverage:.4},\"wall_us\":{},\"queries_per_sec\":{qps:.0}}}",
                exec.workers(),
                elapsed.as_micros()
            );
        } else {
            println!();
            println!(
                "resident batch: {batch} queries on {} pinned workers in {:.2} ms \
                 ({qps:.0} queries/sec)",
                exec.workers(),
                elapsed.as_secs_f64() * 1e3
            );
            println!("  {total_records} records returned, mean coverage {mean_coverage:.4}");
        }
    }
    if traced {
        // Final registry state into the trace file, for `pmr stats`.
        obs::flush();
    }
    Ok(())
}

/// `pmr throughput` — compare the resident batch executor against
/// one-query-at-a-time and serial execution on one batch of sample
/// queries.
///
/// Defaults to the paper's Table 7 system (six 8-ary fields on M = 32).
/// All three variants answer the identical query batch; the command
/// verifies they return the same record totals before reporting
/// queries/sec, so a throughput win is never a correctness trade.
pub fn throughput(args: &[String]) -> Result<(), String> {
    use pmr_storage::exec::Executor;
    use std::time::Instant;

    let flags = Flags::parse(args)?;
    let spec = Synthetic::from_flags(&flags, true, 5_000, pmr_rt::seed_from_env_or(42))?;
    let sys = &spec.sys;
    let batch = flags.u64_or("batch", 64)? as usize;
    if batch == 0 {
        return Err("--batch needs at least one query".into());
    }
    let json = flags.has("json");
    let (file, mut rng) = spec.build(&flags, Redundancy::None)?;
    let queries = sample_batch(sys, batch, &mut rng)?;

    let cost = CostModel::main_memory();
    let policy = ExecPolicy::default();
    let exec = Executor::new(&file, cost);

    let time = |f: &dyn Fn() -> u64| -> Result<(f64, u64), String> {
        let warm = f(); // one unwarmed pass populates plan caches
        let start = Instant::now();
        let total = f();
        let secs = start.elapsed().as_secs_f64().max(f64::EPSILON);
        if warm != total {
            return Err("nondeterministic record totals across passes".into());
        }
        Ok((secs, total))
    };
    let (resident_s, resident_n) = time(&|| {
        exec.execute_batch(&queries, &policy)
            .iter()
            .map(|r| r.records.len() as u64)
            .sum()
    })?;
    let (per_query_s, per_query_n) = time(&|| {
        queries
            .iter()
            .map(|q| {
                execute_parallel_with(&file, q, &cost, &policy)
                    .map(|r| r.records.len() as u64)
                    .unwrap_or(0)
            })
            .sum()
    })?;
    let (serial_s, serial_n) = time(&|| {
        queries
            .iter()
            .map(|q| file.retrieve_serial(q).map(|r| r.len() as u64).unwrap_or(0))
            .sum()
    })?;
    if resident_n != per_query_n || resident_n != serial_n {
        return Err(format!(
            "variants disagree: resident {resident_n}, per query {per_query_n}, \
             serial {serial_n} records"
        ));
    }

    let qps = |secs: f64| batch as f64 / secs;
    if json {
        println!(
            "{{\"system\":\"{sys}\",\"batch\":{batch},\"records_returned\":{resident_n},\
             \"resident_qps\":{:.0},\"per_query_qps\":{:.0},\"serial_qps\":{:.0}}}",
            qps(resident_s),
            qps(per_query_s),
            qps(serial_s)
        );
    } else {
        println!("{sys}: {batch} queries, {resident_n} records returned by every variant");
        println!(
            "  resident batch   {:>10.0} queries/sec ({:.2}x vs per query, {:.2}x vs serial)",
            qps(resident_s),
            per_query_s / resident_s,
            serial_s / resident_s
        );
        println!("  per query        {:>10.0} queries/sec", qps(per_query_s));
        println!("  serial reference {:>10.0} queries/sec", qps(serial_s));
    }
    Ok(())
}

/// `pmr chaos` — sweep fault-injection rates and print a coverage /
/// response-time-inflation table.
///
/// Defaults to the paper's Table 7 system (six 8-ary fields on M = 32)
/// with buddy-device mirroring + failover on; `--redundancy
/// none|mirror|parity[:K,R]` selects the redundancy tier instead. Each
/// swept rate `r` installs a [`FaultPlan`] with read-error probability
/// `r`, corruption `r/4`, and latency spikes at probability `r` in
/// 200–2000 simulated µs; `--outage D[,D…]` additionally holds those
/// devices dead at every rate. All fault decisions derive
/// deterministically from the seed (`--seed`, default `PMR_SEED` or 42).
/// Response-time inflation is relative to a fault-free run of the same
/// query set, so `1.00x` means retries and failovers cost nothing.
///
/// When `--outage` lists devices, a *survivability* sweep precedes the
/// rate table: for each outage-count prefix of the list (1 dead device,
/// then 2, …) the query set runs with only those outages injected, and
/// the row reports the coverage that survived — `1.0000` up to the
/// tier's tolerance (any 1 loss under mirroring, any `r` under
/// `parity:K,R`), degrading beyond it. The same rows appear as
/// `"event":"survivability"` objects under `--json`.
pub fn chaos(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let spec = Synthetic::from_flags(&flags, true, 20_000, pmr_rt::seed_from_env_or(42))?;
    let (sys, records, seed) = (&spec.sys, spec.records, spec.seed);
    let queries = flags.u64_or("queries", 8)? as usize;
    let json = flags.has("json");
    let redundancy = flags
        .get("redundancy")
        .map_or(Ok(Redundancy::Mirror), Redundancy::parse)?;
    let policy = fault_policy(&flags, redundancy, seed)?;
    let dead_devices: Vec<u64> = match flags.get("outage") {
        None => Vec::new(),
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u64>()
                    .map_err(|e| format!("bad --outage {s:?}: {e}"))
            })
            .collect::<Result<_, _>>()?,
    };
    for &d in &dead_devices {
        if d >= sys.devices() {
            return Err(format!("--outage {d} out of range (M = {})", sys.devices()));
        }
    }
    let rates: Vec<f64> = match flags.get("rates") {
        None => vec![0.0, 0.001, 0.01, 0.05, 0.1],
        Some(list) => list
            .split(',')
            .map(|s| {
                let r = s
                    .trim()
                    .parse::<f64>()
                    .map_err(|e| format!("bad rate {s:?}: {e}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("rate {r} outside [0, 1]"));
                }
                Ok(r)
            })
            .collect::<Result<_, _>>()?,
    };
    let traced = install_trace(&flags)?;
    // The injected/retry/failover counters only record while tracing is
    // on; fall back to the in-memory sink so the table has them.
    if !obs::enabled() {
        obs::install(TraceConfig::Memory).map_err(|e| e.to_string())?;
    }

    let (file, mut rng) = spec.build(&flags, redundancy)?;

    // A fixed query set reused at every rate: unspecified-field count
    // cycles 1 … n−1, positions and values drawn from the seeded RNG.
    let n = sys.num_fields();
    let queryset: Vec<PartialMatchQuery> = (0..queries)
        .map(|i| {
            let k = 1 + (i % (n.max(2) - 1));
            let mut order: Vec<usize> = (0..n).collect();
            for j in 0..k.min(n) {
                let pick = j + rng.gen_range(0..(n - j) as u64) as usize;
                order.swap(j, pick);
            }
            let unspecified = &order[..k.min(n)];
            let values: Vec<Option<u64>> = (0..n)
                .map(|f| (!unspecified.contains(&f)).then(|| rng.gen_range(0..sys.field_size(f))))
                .collect();
            PartialMatchQuery::new(sys, &values).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;

    let cost = CostModel::disk_1988();
    let baseline_total: f64 = {
        let mut total = 0.0;
        for q in &queryset {
            total += execute_parallel_with(&file, q, &cost, &policy)
                .map_err(|e| e.to_string())?
                .simulated_response_us;
        }
        total
    };

    if json {
        println!(
            "{{\"system\":\"{sys}\",\"records\":{records},\"seed\":{seed},\"queries\":{},\
             \"redundancy\":\"{redundancy}\",\"baseline_us\":{baseline_total:.1}}}",
            queryset.len()
        );
    } else {
        println!(
            "chaos sweep over {sys}: {records} records, {} queries/rate, redundancy {}",
            queryset.len(),
            redundancy
        );
        println!(
            "retry attempts={} base={}µs cap={}µs budget={}µs; fault seed {seed}",
            policy.retry.max_attempts,
            policy.retry.base_us,
            policy.retry.cap_us,
            policy.retry.budget_us
        );
        if !dead_devices.is_empty() {
            println!("devices {dead_devices:?} held dead at every rate");
        }
    }

    // Survivability sweep: outage-count prefixes of the --outage list,
    // no other faults — how much coverage each additional simultaneous
    // outage costs under the selected redundancy tier.
    if !dead_devices.is_empty() {
        if !json {
            println!();
            println!("survivability (outages only, no transient faults):");
            println!(
                "{:>8}  {:>9}  {:>10}  {:>14}  {:>6}",
                "outages", "coverage", "failovers", "reconstructed", "lost"
            );
        }
        for count in 1..=dead_devices.len() {
            let mut plan = FaultPlan::new(seed);
            for &d in &dead_devices[..count] {
                plan = plan.with_dead_device(d);
            }
            file.install_fault_plan(Some(Arc::new(plan)));
            let failovers0 = obs::counter_total("exec.failover");
            let reconstructed0 = obs::counter_total("exec.reconstructions");
            let (mut qualified, mut lost) = (0u64, 0u64);
            for q in &queryset {
                let report =
                    execute_parallel_with(&file, q, &cost, &policy).map_err(|e| e.to_string())?;
                qualified += q.qualified_count_in(sys);
                lost += report.lost_buckets.len() as u64;
            }
            let coverage = if qualified == 0 {
                1.0
            } else {
                (qualified - lost) as f64 / qualified as f64
            };
            let failovers = obs::counter_total("exec.failover") - failovers0;
            let reconstructed = obs::counter_total("exec.reconstructions") - reconstructed0;
            if json {
                println!(
                    "{{\"event\":\"survivability\",\"outages\":{count},\
                     \"coverage\":{coverage:.6},\"failovers\":{failovers},\
                     \"reconstructed\":{reconstructed},\"lost\":{lost}}}"
                );
            } else {
                println!(
                    "{count:>8}  {coverage:>9.4}  {failovers:>10}  {reconstructed:>14}  \
                     {lost:>6}"
                );
            }
        }
        file.install_fault_plan(None);
    }

    if !json {
        println!();
        println!(
            "{:>8}  {:>9}  {:>12}  {:>9}  {:>8}  {:>10}  {:>7}  {:>6}",
            "rate",
            "coverage",
            "rt-inflation",
            "injected",
            "retries",
            "failovers",
            "reconst",
            "lost"
        );
    }

    // Per-device critical-path attribution across the whole sweep:
    // which device's simulated time set each query's response time —
    // the disk-level analogue of loadgen's per-node table.
    let mut device_samples: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    let mut device_critical: std::collections::BTreeMap<u64, u64> = Default::default();
    let mut attributed_queries = 0u64;

    for &rate in &rates {
        let mut plan = FaultPlan::new(seed)
            .with_read_error(rate)
            .with_corruption(rate / 4.0)
            .with_latency(rate, 200, 2_000);
        for &d in &dead_devices {
            plan = plan.with_dead_device(d);
        }
        file.install_fault_plan(Some(Arc::new(plan)));
        let injected0 = obs::counter_total("fault.injected");
        let retries0 = obs::counter_total("exec.retries");
        let failovers0 = obs::counter_total("exec.failover");
        let reconstructed0 = obs::counter_total("exec.reconstructions");
        let (mut total_us, mut qualified, mut served, mut lost) = (0.0f64, 0u64, 0u64, 0u64);
        for q in &queryset {
            let report =
                execute_parallel_with(&file, q, &cost, &policy).map_err(|e| e.to_string())?;
            total_us += report.simulated_response_us;
            let rq = q.qualified_count_in(sys);
            qualified += rq;
            lost += report.lost_buckets.len() as u64;
            served += rq - report.lost_buckets.len() as u64;
            let mut critical: Option<(u64, f64)> = None;
            for d in &report.per_device {
                device_samples
                    .entry(d.device)
                    .or_default()
                    .push(d.simulated_us);
                let dominates = match critical {
                    Some((_, best)) => d.simulated_us > best,
                    None => true,
                };
                if dominates {
                    critical = Some((d.device, d.simulated_us));
                }
            }
            if let Some((dev, _)) = critical {
                *device_critical.entry(dev).or_default() += 1;
                attributed_queries += 1;
            }
        }
        let coverage = if qualified == 0 {
            1.0
        } else {
            served as f64 / qualified as f64
        };
        let inflation = if baseline_total > 0.0 {
            total_us / baseline_total
        } else {
            1.0
        };
        let injected = obs::counter_total("fault.injected") - injected0;
        let retries = obs::counter_total("exec.retries") - retries0;
        let failovers = obs::counter_total("exec.failover") - failovers0;
        let reconstructed = obs::counter_total("exec.reconstructions") - reconstructed0;
        if json {
            println!(
                "{{\"rate\":{rate},\"outages\":{},\"coverage\":{coverage:.6},\
                 \"rt_inflation\":{inflation:.4},\"injected\":{injected},\
                 \"retries\":{retries},\"failovers\":{failovers},\
                 \"reconstructed\":{reconstructed},\"lost\":{lost}}}",
                dead_devices.len()
            );
        } else {
            println!(
                "{rate:>8.4}  {coverage:>9.4}  {inflation:>11.2}x  {injected:>9}  {retries:>8}  \
                 {failovers:>10}  {reconstructed:>7}  {lost:>6}"
            );
        }
    }
    file.install_fault_plan(None);

    // Attribution table: devices ranked by how often they set a query's
    // critical path, with simulated-time percentiles over the sweep.
    if attributed_queries > 0 {
        let mut ranked: Vec<(u64, u64)> = device_critical.iter().map(|(&d, &c)| (d, c)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        if json {
            for &(dev, critical) in &ranked {
                let samples = device_samples
                    .get_mut(&dev)
                    .expect("critical device sampled");
                let p50 = pmr_rt::stats::percentile(samples, 50.0);
                let p99 = pmr_rt::stats::percentile(samples, 99.0);
                println!(
                    "{{\"event\":\"attribution\",\"device\":{dev},\"critical_queries\":\
                     {critical},\"critical_share\":{:.4},\"sim_p50_us\":{p50:.3},\
                     \"sim_p99_us\":{p99:.3}}}",
                    critical as f64 / attributed_queries as f64
                );
            }
        } else {
            println!();
            println!(
                "critical-path attribution over {attributed_queries} executions \
                 ({} device(s) ever critical):",
                ranked.len()
            );
            println!(
                "{:>8}  {:>9}  {:>7}  {:>12}  {:>12}",
                "device", "critical", "share", "sim p50 µs", "sim p99 µs"
            );
            for &(dev, critical) in ranked.iter().take(8) {
                let samples = device_samples
                    .get_mut(&dev)
                    .expect("critical device sampled");
                let p50 = pmr_rt::stats::percentile(samples, 50.0);
                let p99 = pmr_rt::stats::percentile(samples, 99.0);
                println!(
                    "{dev:>8}  {critical:>9}  {:>6.1}%  {p50:>12.3}  {p99:>12.3}",
                    critical as f64 / attributed_queries as f64 * 100.0
                );
            }
            if ranked.len() > 8 {
                println!("     … {} more device(s)", ranked.len() - 8);
            }
        }
    }

    if traced {
        obs::flush();
    }
    Ok(())
}

/// `pmr stats` — aggregate a JSON-lines trace into tables. With
/// `--cluster`, additionally group the merged `node{N}.*` telemetry
/// (recorded by a traced `loadgen`/`serve` run) into a per-node table.
pub fn stats(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("stats needs a trace file (recorded with --trace or PMR_TRACE)".into());
    };
    let cluster = match &args[1..] {
        [] => false,
        [flag] if flag == "--cluster" => true,
        rest => return Err(format!("unexpected argument {:?}", rest[0])),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let stats =
        pmr_rt::obs::agg::TraceStats::from_lines(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", stats.render());
    if cluster {
        print!("{}", render_cluster_table(&stats));
    }
    Ok(())
}

/// The `--cluster` rendering: one row per node id found among the
/// merged `node{N}.*` counter/histogram names, with busy-time
/// percentiles read off the merged fixed-bucket histograms.
fn render_cluster_table(stats: &pmr_rt::obs::agg::TraceStats) -> String {
    use std::fmt::Write as _;
    let mut nodes: std::collections::BTreeSet<u64> = Default::default();
    for name in stats.counters.keys().chain(stats.hists.keys()) {
        if let Some(rest) = name.strip_prefix("node") {
            if let Some((id, _)) = rest.split_once('.') {
                if let Ok(id) = id.parse() {
                    nodes.insert(id);
                }
            }
        }
    }
    let mut out = String::new();
    if nodes.is_empty() {
        writeln!(
            out,
            "\nno merged node{{N}}.* telemetry in this trace — record one with a \
             traced cluster run (e.g. pmr loadgen --trace t.jsonl)"
        )
        .unwrap();
        return out;
    }
    // Histogram percentiles resolve to a bucket's upper bound (the
    // overflow bucket has none), so render them as bounds.
    let bound = |us: f64| -> String {
        if us.is_finite() {
            format!("≤{us:.0}")
        } else {
            ">1000000".into()
        }
    };
    writeln!(out, "\nCluster (merged node telemetry)").unwrap();
    writeln!(
        out,
        "{:>6}  {:>9}  {:>9}  {:>9}  {:>6}  {:>10}  {:>10}",
        "node", "requests", "queries", "records", "lost", "busy p50", "busy p99"
    )
    .unwrap();
    for &n in &nodes {
        let c = |key: &str| {
            stats
                .counters
                .get(&format!("node{n}.{key}"))
                .copied()
                .unwrap_or(0)
        };
        let (p50, p99) = match stats.hists.get(&format!("node{n}.busy_us")) {
            Some((bounds, counts)) => (
                pmr_rt::stats::percentile_from_hist(bounds, counts, 50.0),
                pmr_rt::stats::percentile_from_hist(bounds, counts, 99.0),
            ),
            None => (0.0, 0.0),
        };
        writeln!(
            out,
            "{n:>6}  {:>9}  {:>9}  {:>9}  {:>6}  {:>10}  {:>10}",
            c("requests"),
            c("queries"),
            c("records"),
            c("lost"),
            bound(p50),
            bound(p99)
        )
        .unwrap();
    }
    out
}

/// `pmr optimize` — anneal generalized-FX tables for a system.
pub fn optimize(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let sys = flags.system()?;
    if sys.num_fields() > 12 || sys.total_buckets() > 1 << 20 {
        return Err("optimize supports up to 12 fields / 2^20 buckets".into());
    }
    let steps = flags.u64_or("steps", 2000)? as usize;
    let seed = flags.u64_or("seed", 42)?;
    let options = pmr_analysis::optimize::AnnealOptions {
        steps,
        initial_temperature: 4.0,
        seed,
        restarts: 4,
    };
    let result = pmr_analysis::optimize::anneal(&sys, &options).map_err(|e| e.to_string())?;
    let total = 1usize << sys.num_fields();
    println!("{sys}");
    println!("objective (sum of largest responses over {total} patterns):");
    println!("  theorem-9 start : {}", result.initial_score);
    println!("  annealed        : {}", result.score);
    println!("  analytic bound  : {}", result.lower_bound);
    println!(
        "strict-optimal patterns: {} -> {} (of {total})",
        result.initial_optimal_patterns, result.optimal_patterns
    );
    println!("accepted moves: {}", result.accepted);
    println!();
    for (i, table) in result.distribution.tables().iter().enumerate() {
        println!("field {i} table: {:?}", &table[..]);
    }
    Ok(())
}

/// `pmr design` — field-size design from specification probabilities.
pub fn design(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let probs: Vec<f64> = flags
        .require("probs")?
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|e| format!("bad probability {s:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let bits = flags.u64_or("bits", 12)? as u32;
    let input = pmr_mkh::DesignInput {
        spec_probability: probs.clone(),
        total_bits: bits,
        max_bits: None,
    };
    let out = pmr_mkh::design_field_bits(&input).map_err(|e| e.to_string())?;
    println!("specification probabilities: {probs:?}");
    println!("directory bits: {bits}");
    println!("bit allocation: {:?}", out.bits);
    println!("field sizes   : {:?}", out.field_sizes);
    println!("expected buckets per query: {:.2}", out.expected_buckets);
    Ok(())
}

/// `pmr verify` — check the paper's theorems against ground truth.
pub fn verify(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let max_fields = flags.u64_or("max-fields", 3)? as usize;
    let max_buckets = flags.u64_or("max-buckets", 512)?;
    println!(
        "verifying Theorems 1-9 + the §4.2 summary over all systems with <= \
         {max_fields} fields (sizes 1/2/4/8, M in 2/4/8/16, <= {max_buckets} buckets)\n"
    );
    let mut failed = false;
    for report in pmr_core::theory::verify_all(max_fields, max_buckets) {
        let status = if report.verified() {
            "VERIFIED"
        } else {
            "FALSIFIED"
        };
        println!(
            "{status:<10} {:<38} {:>9} instances",
            report.claim.label(),
            report.instances
        );
        for ce in &report.counterexamples {
            failed = true;
            println!("           counterexample: {ce}");
        }
    }
    if failed {
        Err("counterexamples found".into())
    } else {
        Ok(())
    }
}

/// `pmr experiment` — regenerate a paper table/figure.
///
/// `--trace <path|stderr>` records the run's spans and metrics so the
/// cost of regenerating a table can be inspected with `pmr stats`. On a
/// single figure, `--csv` prints its curves as CSV and `--empirical`
/// adds the ground-truth curves measured by exhaustive checking on
/// scaled-down systems.
pub fn experiment(args: &[String]) -> Result<(), String> {
    let Some(which) = args.first() else {
        return Err("experiment needs a name (table1..table9, figure1..figure4, all)".into());
    };
    let flags = Flags::parse(&args[1..])?;
    let (csv, empirical) = (flags.has("csv"), flags.has("empirical"));
    if (csv || empirical) && !which.starts_with("figure") {
        return Err("--csv and --empirical apply to figure1..figure4 only".into());
    }
    let traced = install_trace(&flags)?;
    let run_one = |exp: Experiment| -> Result<(), String> {
        let _span = pmr_rt::span!("cli.experiment");
        let out = match exp {
            Experiment::Table1
            | Experiment::Table2
            | Experiment::Table3
            | Experiment::Table4
            | Experiment::Table5
            | Experiment::Table6 => experiments::table_distribution(exp),
            Experiment::Table7 | Experiment::Table8 | Experiment::Table9 => {
                experiments::render_table_response(exp)
            }
            _ => return print_figure(exp, csv, empirical).map_err(|e| e.to_string()),
        }
        .map_err(|e| e.to_string())?;
        println!("{out}");
        Ok(())
    };
    let result = match which.as_str() {
        "all" => {
            for exp in Experiment::ALL {
                run_one(exp)?;
                println!("{}", "=".repeat(72));
            }
            Ok(())
        }
        name => {
            let exp = Experiment::ALL
                .into_iter()
                .find(|e| e.label().to_lowercase().replace(' ', "") == name.to_lowercase())
                .ok_or_else(|| format!("unknown experiment {name:?}"))?;
            run_one(exp)
        }
    };
    if traced {
        obs::flush();
    }
    result
}

/// Prints one of Figures 1–4: its certified curves as a text table or
/// CSV, then, with `empirical`, the exhaustively measured curves.
fn print_figure(exp: Experiment, csv: bool, empirical: bool) -> pmr_core::Result<()> {
    let print_csv = |header: &str, curves: &probability::FigureCurves| {
        println!("{header}");
        for (i, l) in curves.l_values.iter().enumerate() {
            println!(
                "{l},{:.4},{:.4}",
                curves.md_percent[i], curves.fd_percent[i]
            );
        }
    };
    if csv {
        print_csv("l,md_percent,fd_percent", &experiments::figure(exp)?);
    } else {
        println!("{}", experiments::render_figure_experiment(exp)?);
    }
    if empirical {
        let curves = probability::empirical_curves(&experiments::figure_config(exp))?;
        if csv {
            print_csv("l,md_empirical_percent,fd_empirical_percent", &curves);
        } else {
            let title = format!(
                "{} (empirical ground truth, scaled-down sizes)",
                exp.label()
            );
            println!("{}", pmr_analysis::tables::render_figure(&curves, &title));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Sharded multi-node service (pmr-net)
// ---------------------------------------------------------------------

/// Builds the mirrored synthetic file plus an N-node in-process cluster
/// over it — the shared setup for `pmr serve` and `pmr loadgen`.
///
/// Every random choice (record values, query mixes, fault plans)
/// derives from `seed`, which itself defaults to `PMR_SEED`, so a whole
/// multi-node run replays from one number.
fn build_cluster(
    flags: &Flags<'_>,
) -> Result<
    (
        DeclusteredFile<FxDistribution>,
        pmr_net::Cluster<FxDistribution>,
        u64,
    ),
    String,
> {
    if flags.get("cache").is_some() {
        return Err(
            "--cache does not apply to serve/loadgen: nodes ship stored page \
                    bytes and never read the decoded-page cache (use it with \
                    simulate, throughput or chaos)"
                .into(),
        );
    }
    let spec = Synthetic::from_flags(flags, true, 5_000, pmr_rt::seed_from_env_or(42))?;
    let (sys, seed) = (&spec.sys, spec.seed);
    let nodes = flags.u64_or("nodes", 4)? as usize;
    if nodes == 0 || nodes as u64 > sys.devices() {
        return Err(format!(
            "--nodes must be between 1 and the device count ({})",
            sys.devices()
        ));
    }
    let deadline_ms = flags.u64_or("deadline-ms", 250)?;
    let drop_probability = match flags.get("drop") {
        None => 0.0,
        Some(v) => {
            let p: f64 = v.parse().map_err(|e| format!("bad --drop: {e}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("--drop must be a probability, got {p}"));
            }
            p
        }
    };

    // Mirror wherever the system can: a one-device cluster runs bare.
    let redundancy = if sys.devices() > 1 {
        Redundancy::Mirror
    } else {
        Redundancy::None
    };
    let (file, _) = spec.build(flags, redundancy)?;

    let cfg = pmr_net::ClusterConfig {
        nodes,
        frontend: pmr_net::FrontendConfig {
            deadline: std::time::Duration::from_millis(deadline_ms),
            down_after: 3,
        },
        net_faults: (drop_probability > 0.0)
            .then(|| pmr_net::NetFaultPlan::new(seed, drop_probability)),
    };
    let cluster = pmr_net::Cluster::new(&file, CostModel::main_memory(), cfg);
    Ok((file, cluster, seed))
}

/// `pmr serve` — boot a sharded in-process cluster and smoke it.
///
/// K nodes each run a resident executor over a contiguous device
/// subrange and speak the pmr-net wire protocol to a scatter/gather
/// frontend; the command reports the topology, pushes one seeded smoke
/// batch through the frontend, and prints coverage plus per-node
/// counters. It demonstrates (and exercises end-to-end) exactly the
/// pipeline `pmr loadgen` measures.
pub fn serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let traced = install_trace(&flags)?;
    let json = flags.has("json");
    let smoke = flags.u64_or("queries", 16)? as usize;
    let (file, cluster, seed) = build_cluster(&flags)?;
    let sys = file.system().clone();

    let queries = pmr_net::loadgen::query_mix(&sys, smoke, seed, 2);
    let start = std::time::Instant::now();
    let reports = cluster
        .frontend()
        .execute_batch(&queries, &ExecPolicy::default());
    let wall = start.elapsed();
    let records: usize = reports.iter().map(|r| r.records.len()).sum();
    let mean_coverage =
        reports.iter().map(|r| r.coverage).sum::<f64>() / reports.len().max(1) as f64;
    let stats = cluster.frontend().node_stats();

    if json {
        let nodes = stats
            .iter()
            .map(pmr_net::NodeStats::to_json)
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "{{\"system\":\"{sys}\",\"seed\":{seed},\"nodes\":{},\"smoke_queries\":{smoke},\
             \"records\":{records},\"mean_coverage\":{mean_coverage:.6},\
             \"wall_us\":{:.1},\"node_stats\":[{nodes}]}}",
            cluster.nodes(),
            wall.as_secs_f64() * 1e6,
        );
    } else {
        println!(
            "{sys}: {} nodes over the pmr-net wire protocol (seed {seed})",
            cluster.nodes()
        );
        for s in &stats {
            println!(
                "  node {} serves devices {:>3}..{:<3} — {} request(s), {} response(s)",
                s.node, s.devices.start, s.devices.end, s.requests, s.responses
            );
        }
        println!(
            "smoke batch: {smoke} queries → {records} records, mean coverage \
             {mean_coverage:.4}, {:.2} ms",
            wall.as_secs_f64() * 1e3
        );
    }
    drop(cluster);
    if traced {
        obs::flush();
    }
    Ok(())
}

/// `pmr loadgen` — closed-loop load generation against the cluster.
///
/// Generates a seeded query mix, drives it from `--concurrency` caller
/// threads in `--batch`-sized scatter requests, and reports qps,
/// wall/simulated latency percentiles, degradation, and the
/// order-independent report checksum. `--check` re-executes the same
/// mix on a single-process resident executor and verifies checksum
/// equality — the wire adds zero semantic drift. `--kill-node I
/// --kill-at Q` crashes a node mid-run: queries keep answering with
/// per-query degraded coverage. `--watch MS` streams per-node telemetry
/// snapshots to stderr while the run is in flight.
pub fn loadgen(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let traced = install_trace(&flags)?;
    // The per-node merged counters (node{N}.requests …) only exist while
    // tracing: fall back to the in-memory sink, scoped to this run, so
    // the attribution table is always fully populated.
    if !obs::enabled() {
        obs::install(TraceConfig::Memory).map_err(|e| e.to_string())?;
        obs::reset();
    }
    let json = flags.has("json");
    let total = flags.u64_or("queries", 20_000)? as usize;
    let batch = flags.u64_or("batch", 512)? as usize;
    let concurrency = flags.u64_or("concurrency", 2)? as usize;
    let spread = flags.u64_or("spread", 2)? as usize;
    if total == 0 || batch == 0 || concurrency == 0 {
        return Err("--queries, --batch and --concurrency all need at least 1".into());
    }
    let kill = match flags.get("kill-node") {
        None => None,
        Some(v) => {
            let node: usize = v.parse().map_err(|e| format!("bad --kill-node: {e}"))?;
            let at_query = flags.u64_or("kill-at", total as u64 / 2)? as usize;
            Some(pmr_net::KillSpec { node, at_query })
        }
    };
    let watch = match flags.get("watch") {
        None => None,
        Some(v) => {
            let ms: u64 = v.parse().map_err(|e| format!("bad --watch: {e}"))?;
            if ms == 0 {
                return Err("--watch needs an interval of at least 1 ms".into());
            }
            Some(std::time::Duration::from_millis(ms))
        }
    };

    let (file, cluster, seed) = build_cluster(&flags)?;
    if let Some(k) = kill {
        if k.node >= cluster.nodes() {
            return Err(format!(
                "--kill-node {} out of range ({} nodes)",
                k.node,
                cluster.nodes()
            ));
        }
    }
    let sys = file.system().clone();
    let queries = pmr_net::loadgen::query_mix(&sys, total, seed, spread);
    let policy = ExecPolicy::default();
    let opts = pmr_net::LoadgenOpts {
        concurrency,
        batch,
        kill,
        watch,
    };
    let summary = pmr_net::loadgen::run(&cluster, &queries, &policy, &opts);

    if flags.has("check") {
        if kill.is_some() || flags.get("drop").is_some() {
            return Err("--check needs a fault-free run (drop --kill-node/--drop)".into());
        }
        let exec = pmr_storage::exec::Executor::new(&file, CostModel::main_memory());
        let local = exec.execute_batch(&queries, &policy);
        let expected = pmr_net::loadgen::reports_checksum(local.iter());
        if summary.checksum != expected {
            return Err(format!(
                "checksum mismatch: cluster {:016x}, single-process {expected:016x}",
                summary.checksum
            ));
        }
    }

    if json {
        println!("{}", summary.to_json());
    } else {
        println!(
            "{sys}: {} queries in {} batches over {} node(s), {} caller thread(s)",
            summary.queries,
            summary.batches,
            cluster.nodes(),
            concurrency
        );
        println!(
            "  throughput  {:>12.0} queries/sec  ({:.3} s wall)",
            summary.qps, summary.wall_s
        );
        println!(
            "  batch wall  p50 {:>9.1} µs   p99 {:>9.1} µs",
            summary.batch_p50_us, summary.batch_p99_us
        );
        println!(
            "  simulated   p50 {:>9.3} µs   p99 {:>9.3} µs  (per query)",
            summary.sim_p50_us, summary.sim_p99_us
        );
        println!(
            "  degradation mean coverage {:.6}, {} degraded quer{}, {} lost bucket(s), \
             {} timeout(s)",
            summary.mean_coverage,
            summary.degraded,
            if summary.degraded == 1 { "y" } else { "ies" },
            summary.lost_buckets,
            summary.timeouts
        );
        println!(
            "  checksum    {:016x}{}",
            summary.checksum,
            if flags.has("check") {
                "  (verified against single-process execution)"
            } else {
                ""
            }
        );
        for s in &summary.node_stats {
            println!(
                "  node {} [{:>3}..{:<3}] {:>6} req {:>6} resp {:>4} timeout{}",
                s.node,
                s.devices.start,
                s.devices.end,
                s.requests,
                s.responses,
                s.timeouts,
                if s.down { "  DOWN" } else { "" }
            );
        }
        if !summary.attribution.is_empty() {
            println!("  critical-path attribution (busy_us over the wire):");
            println!(
                "  {:>6}  {:>9}  {:>9}  {:>9}  {:>8}  {:>8}  {:>10}",
                "node", "responses", "p50 µs", "p99 µs", "share", "recent", "merged req"
            );
            for a in &summary.attribution {
                println!(
                    "  {:>6}  {:>9}  {:>9.1}  {:>9.1}  {:>7.1}%  {:>7.1}%  {:>10}",
                    a.node,
                    a.responses,
                    a.busy_p50_us,
                    a.busy_p99_us,
                    a.critical_share * 100.0,
                    a.recent_critical_share * 100.0,
                    a.merged_requests
                );
            }
        }
    }
    drop(cluster);
    if traced {
        obs::flush();
    }
    Ok(())
}
