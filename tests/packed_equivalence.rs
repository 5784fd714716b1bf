//! Packed-code equivalence properties across every in-tree
//! [`DistributionMethod`].
//!
//! The packed bucket representation (PR: "Packed bucket codes") is only
//! admissible if it is *lossless*: for every method, every bucket, and
//! every query, the packed paths (`device_of_packed`,
//! `QualifiedBuckets::next_code`, `for_each_device_code`,
//! `FxInverse::for_each_code_on`, the dispatching executor) must produce
//! byte-identical results to the legacy tuple/`Vec<u64>` paths. These
//! properties pin that equivalence over randomly sampled systems,
//! methods, and queries under the [`pmr_rt::check`] harness
//! (`PMR_CHECK_SEED` replays a failure).

use pmr_baselines::gdm::PaperGdmSet;
use pmr_baselines::{
    BinaryWeightedDistribution, GdmDistribution, GrayCodeDistribution, ModuloDistribution,
    RandomDistribution, SpanningPathDistribution,
};
use pmr_core::inverse::{
    for_each_device_code, for_each_routed_code, scan_device_buckets, FxInverse,
};
use pmr_core::method::DistributionMethod;
use pmr_core::optimality::response_histogram;
use pmr_core::{
    Assignment, AssignmentStrategy, FxDistribution, PartialMatchQuery, SystemConfig, TransformKind,
};
use pmr_mkh::{Record, Schema, Value};
use pmr_rt::check::Source;
use pmr_rt::rt_proptest;
use pmr_storage::encode::RecordRegion;
use pmr_storage::exec::{
    execute_parallel, merge_raw_yields, plan_query, route_planned, ExecPolicy, Executor,
    PlannedQuery, Redundancy,
};
use pmr_storage::{CostModel, DeclusteredFile};

/// Random small system: 1–4 fields, sizes 2^0..2^4, devices 2^1..2^5.
fn gen_system(src: &mut Source) -> SystemConfig {
    let field_bits = src.vec_of(1..=4, |s| s.u32_in(0..=4));
    let m_bits = src.u32_in(1..=5).max(1);
    let sizes: Vec<u64> = field_bits.iter().map(|&b| 1u64 << b).collect();
    SystemConfig::new(&sizes, 1 << m_bits).expect("powers of two are valid")
}

/// Random valid query for a system.
fn gen_query(src: &mut Source, sys: &SystemConfig) -> PartialMatchQuery {
    let values: Vec<Option<u64>> = (0..sys.num_fields())
        .map(|i| {
            let f = sys.field_size(i);
            if src.weighted(0.5) {
                None
            } else {
                Some(src.int_in(0, f - 1).min(f - 1))
            }
        })
        .collect();
    PartialMatchQuery::new(sys, &values).expect("values drawn in range")
}

/// Every in-tree method applicable to `sys` (spanning and the binary-CPF
/// allocators gate themselves on system shape).
fn all_methods(src: &mut Source, sys: &SystemConfig) -> Vec<Box<dyn DistributionMethod>> {
    let strategy = [
        AssignmentStrategy::Basic,
        AssignmentStrategy::CycleIu1,
        AssignmentStrategy::CycleIu2,
    ][src.arm(3)];
    let fx = FxDistribution::with_strategy(sys.clone(), strategy)
        .unwrap_or_else(|_| FxDistribution::auto(sys.clone()).expect("auto always assigns"));
    let mut methods: Vec<Box<dyn DistributionMethod>> = vec![
        Box::new(FxDistribution::from_images(sys.clone(), fx.images().to_vec()).expect("valid")),
        Box::new(fx),
        Box::new(ModuloDistribution::new(sys.clone())),
        Box::new(GdmDistribution::paper_set(sys.clone(), PaperGdmSet::Gdm1)),
        Box::new(RandomDistribution::new(sys.clone(), src.int_in(0, 1 << 20))),
    ];
    if sys.total_buckets() <= 256 {
        methods.push(Box::new(
            SpanningPathDistribution::build(sys.clone()).expect("small bucket space"),
        ));
    }
    if (0..sys.num_fields()).all(|i| sys.field_size(i) == 2) {
        methods.push(Box::new(
            BinaryWeightedDistribution::new(sys.clone()).expect("binary system"),
        ));
        methods.push(Box::new(
            GrayCodeDistribution::new(sys.clone()).expect("binary system"),
        ));
    }
    methods
}

rt_proptest! {
    /// `device_of_packed` agrees with `device_of` on every bucket, for
    /// every method.
    fn packed_device_matches_tuple(src) {
        let sys = gen_system(src);
        let mut buf = Vec::new();
        for method in all_methods(src, &sys) {
            for code in sys.all_indices() {
                sys.decode_index(code, &mut buf);
                assert_eq!(
                    method.device_of_packed(code),
                    method.device_of(&buf),
                    "{} on {sys} code {code}",
                    method.name()
                );
            }
        }
    }

    /// `device_of_batch` is bit-equal to per-record `device_of_packed`
    /// for every method, over random code batches (exercising both the
    /// full fixed-width lanes and the scalar tails of every override).
    fn batched_devices_match_scalar(src) {
        let sys = gen_system(src);
        let count = src.int_in(0, 200) as usize;
        let codes: Vec<u64> = (0..count)
            .map(|_| src.int_in(0, sys.total_buckets() - 1))
            .collect();
        for method in all_methods(src, &sys) {
            let mut out = vec![u64::MAX; codes.len()];
            method.device_of_batch(&codes, &mut out);
            for (&code, &dev) in codes.iter().zip(&out) {
                assert_eq!(
                    dev,
                    method.device_of_packed(code),
                    "{} on {sys} code {code}",
                    method.name()
                );
            }
        }
    }

    /// Packed enumeration produces byte-identical device histograms and
    /// per-device bucket sets as the legacy `Vec<u64>` scan.
    fn packed_enumeration_matches_vec_scan(src) {
        let sys = gen_system(src);
        let query = gen_query(src, &sys);
        for method in all_methods(src, &sys) {
            // Histogram via the packed loop (response_histogram) vs a
            // hand-rolled tuple loop.
            let packed_hist = response_histogram(method.as_ref(), &sys, &query);
            let mut tuple_hist = vec![0u64; sys.devices() as usize];
            let mut it = query.qualified_buckets(&sys);
            while let Some(bucket) = it.next_bucket() {
                tuple_hist[method.device_of(bucket) as usize] += 1;
            }
            assert_eq!(packed_hist, tuple_hist, "{} on {sys} query {query}", method.name());

            for device in 0..sys.devices() {
                let mut codes = Vec::new();
                for_each_device_code(method.as_ref(), &sys, &query, device, |c| codes.push(c));
                let legacy: Vec<u64> = scan_device_buckets(method.as_ref(), &sys, &query, device)
                    .iter()
                    .map(|b| sys.linear_index(b))
                    .collect();
                assert_eq!(
                    codes, legacy,
                    "{} on {sys} query {query} device {device}",
                    method.name()
                );
                assert_eq!(codes.len() as u64, packed_hist[device as usize]);
            }
        }
    }

    /// The routed scan over a random device range gives every device of
    /// the range exactly `for_each_device_code`'s codes, in the same
    /// order, for every method — and both match a plain filter over the
    /// query odometer. The FX fast walk routes the same way.
    fn routed_scan_matches_per_device_scan(src) {
        let sys = gen_system(src);
        let query = gen_query(src, &sys);
        let m = sys.devices();
        let start = src.int_in(0, m - 1);
        let end = src.int_in(start + 1, m);
        for method in all_methods(src, &sys) {
            let mut routed = vec![Vec::new(); m as usize];
            for_each_routed_code(method.as_ref(), &sys, &query, start..end, |d, c| {
                assert!((start..end).contains(&d), "{} routed device {d}", method.name());
                routed[d as usize].push(c);
            });
            for device in 0..m {
                let mut want = Vec::new();
                if (start..end).contains(&device) {
                    for_each_device_code(method.as_ref(), &sys, &query, device, |c| want.push(c));
                    let mut filtered = Vec::new();
                    let mut it = query.qualified_buckets(&sys);
                    while let Some(code) = it.next_code() {
                        if method.device_of_packed(code) == device {
                            filtered.push(code);
                        }
                    }
                    assert_eq!(want, filtered, "{} on {sys} query {query}", method.name());
                }
                assert_eq!(
                    routed[device as usize], want,
                    "{} on {sys} query {query} range {start}..{end} device {device}",
                    method.name()
                );
            }
            if let Some(fx) = method.as_fx() {
                let inv = FxInverse::new(fx, &query);
                let mut routed = vec![Vec::new(); m as usize];
                inv.for_each_routed_code(start..end, |d, c| routed[d as usize].push(c));
                for device in start..end {
                    let mut want = Vec::new();
                    inv.for_each_code_on(device, |c| want.push(c));
                    assert_eq!(routed[device as usize], want, "fx walk {sys} query {query}");
                }
            }
        }
    }

    /// The FX fast inverse enumerates exactly the same per-device bucket
    /// sets as the generic packed scan.
    fn fx_fast_inverse_matches_scan(src) {
        let sys = gen_system(src);
        let strategy = [
            AssignmentStrategy::Basic,
            AssignmentStrategy::CycleIu1,
            AssignmentStrategy::CycleIu2,
        ][src.arm(3)];
        let fx = FxDistribution::with_strategy(sys.clone(), strategy)
            .unwrap_or_else(|_| FxDistribution::auto(sys.clone()).expect("auto always assigns"));
        let query = gen_query(src, &sys);
        let inv = FxInverse::new(&fx, &query);
        for device in 0..sys.devices() {
            let mut fast = Vec::new();
            inv.for_each_code_on(device, |c| fast.push(c));
            fast.sort_unstable();
            let mut scan = Vec::new();
            for_each_device_code(&fx, &sys, &query, device, |c| scan.push(c));
            scan.sort_unstable();
            assert_eq!(fast, scan, "{sys} query {query} device {device}");
        }
    }

    /// The dispatching executor (fast path), the forced generic scan, and
    /// the explicit FX executor return the same `ExecutionReport` content:
    /// records, histogram, and largest response.
    fn fx_executor_matches_generic_executor(src) {
        let sys = gen_system(src);
        // Keep the storage build small: re-draw oversized systems down to
        // a fixed shape would skew coverage, so just bound the records.
        let schema = Schema::ints(&sys);
        let fx = FxDistribution::auto(sys.clone()).expect("auto always assigns");
        let mut file = DeclusteredFile::new(schema, fx, src.int_in(0, 1 << 16))
            .expect("schema system matches");
        let records = src.int_in(0, 200);
        for i in 0..records as i64 {
            let values: Vec<Value> =
                (0..sys.num_fields()).map(|f| Value::Int(i * 31 + f as i64)).collect();
            file.insert(Record::new(values)).expect("records type-check");
        }
        let query = gen_query(src, &sys);
        let cost = CostModel::main_memory();

        let auto = execute_parallel(&file, &query, &cost).expect("no corruption");
        let planned = plan_query(&sys, file.method(), &query);
        let exec = Executor::new(&file, cost);
        let forced = |fast_path: bool| {
            let plan = PlannedQuery { fast_path, ..planned.clone() };
            let yields = exec.execute_planned_raw(&[plan], &ExecPolicy::default()).remove(0);
            merge_raw_yields(yields, Redundancy::Mirror)
        };
        let scan = forced(false);
        let fx_exec = forced(true);

        for other in [&scan, &fx_exec] {
            assert_eq!(auto.histogram(), other.histogram(), "{sys} query {query}");
            assert_eq!(auto.largest_response, other.largest_response);
        }
        let sorted = |r: &RecordRegion| {
            let mut v: Vec<String> = r.iter().map(|x| format!("{x}")).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&auto.records), sorted(&scan.records));
        assert_eq!(sorted(&auto.records), sorted(&fx_exec.records));
        // The dispatcher followed the cost heuristic: its address totals
        // match the explicit FX executor when the fast path pays, and the
        // M·|R(q)| scan when it does not.
        let total = |r: &pmr_storage::exec::ExecutionReport| {
            r.per_device.iter().map(|d| d.addresses_computed).sum::<u64>()
        };
        if planned.fast_path {
            assert_eq!(total(&auto), total(&fx_exec));
        } else {
            assert_eq!(total(&auto), total(&scan));
        }
        assert_eq!(total(&scan), sys.devices() * query.qualified_count_in(&sys));
    }

    /// FX's closed-form device set is exactly the set of devices the
    /// inverse mapping routes at least one code to — over random systems
    /// (fields both smaller and larger than `M`, `M` from 1 to 64), every
    /// assignment strategy plus random explicit kinds (I, U, IU1, IU2),
    /// and random queries. Its range test agrees with the routed devices
    /// on a random range.
    fn fx_device_set_matches_routed_devices(src) {
        let m_bits = src.u32_in(0..=6);
        let mut field_bits = src.vec_of(1..=5, |s| s.u32_in(0..=8));
        // Keep a full scan enumerable.
        while field_bits.iter().sum::<u32>() > 16 {
            field_bits.pop();
        }
        let sizes: Vec<u64> = field_bits.iter().map(|&b| 1u64 << b).collect();
        let sys = SystemConfig::new(&sizes, 1 << m_bits).expect("powers of two are valid");
        let m = sys.devices();
        let fx = match src.arm(5) {
            4 => {
                let kinds: Vec<TransformKind> = (0..sys.num_fields())
                    .map(|i| {
                        if sys.field_size(i) < m {
                            TransformKind::ALL[src.arm(4)]
                        } else {
                            TransformKind::Identity
                        }
                    })
                    .collect();
                FxDistribution::with_assignment(
                    Assignment::from_kinds(&sys, &kinds).expect("small fields take any kind"),
                )
            }
            arm => {
                let strategy = [
                    AssignmentStrategy::Basic,
                    AssignmentStrategy::CycleIu1,
                    AssignmentStrategy::CycleIu2,
                    AssignmentStrategy::TheoremNine,
                ][arm];
                FxDistribution::with_strategy(sys.clone(), strategy).unwrap_or_else(|_| {
                    FxDistribution::auto(sys.clone()).expect("auto always assigns")
                })
            }
        };
        let query = gen_query(src, &sys);
        let planned = plan_query(&sys, &fx, &query);
        let mut codes = vec![Vec::new(); m as usize];
        route_planned(&sys, &fx, &planned, 0..m, &mut codes);
        let routed: Vec<u64> = (0..m).filter(|&d| !codes[d as usize].is_empty()).collect();

        let set = fx.device_set(&query);
        let what = format!("{} on {sys} query {query}", fx.name());
        assert_eq!(set.iter().collect::<Vec<_>>(), routed, "{what}");
        for device in 0..m {
            assert_eq!(set.contains(device), routed.contains(&device), "{what} device {device}");
        }
        let start = src.int_in(0, m - 1);
        let end = src.int_in(start, m);
        assert_eq!(
            set.meets(start..end),
            routed.iter().any(|d| (start..end).contains(d)),
            "{what} range {start}..{end}"
        );
    }
}
