//! The FX fast inverse's order contract.
//!
//! `FxInverse::for_each_code_on(d)` visits device `d`'s qualified codes
//! in ascending *key order*: the query's open fields read as one number
//! whose least significant digit is the pivot field (`pivot_field`),
//! then the other open fields from last to first.
//! `FxInverse::for_each_routed_code` is device-major: those sequences,
//! joined in ascending device order. The other inverse tests sort both
//! sides before comparing, and the golden digests pin order on four
//! systems only; these properties pin it on random systems — fields of
//! 2 to 64 values on both sides of `M`, `M` from 2 to 2^17 — under every
//! assignment strategy and random explicit maps.

use pmr_core::inverse::{pivot_field, FxInverse};
use pmr_core::method::DistributionMethod;
use pmr_core::{AssignmentStrategy, FxDistribution, PartialMatchQuery, Pattern, SystemConfig};
use pmr_rt::check::Source;
use pmr_rt::rt_proptest;

/// Random system: 1–5 fields of 2 to 64 values (at most 2^16 buckets, so
/// a scan stays cheap), `M` from 2 to 2^17.
fn gen_system(src: &mut Source) -> SystemConfig {
    let mut field_bits = src.vec_of(1..=5, |s| s.u32_in(1..=6).max(1));
    while field_bits.iter().sum::<u32>() > 16 {
        field_bits.pop();
    }
    let sizes: Vec<u64> = field_bits.iter().map(|&b| 1u64 << b).collect();
    let m_bits = src.u32_in(1..=17).max(1);
    SystemConfig::new(&sizes, 1 << m_bits).expect("powers of two are valid")
}

/// An FX map on `sys`: one of the four strategies, or random images that
/// are injective on a field with `F < M` and onto `Z_M` otherwise.
fn gen_fx(src: &mut Source, sys: &SystemConfig) -> FxDistribution {
    let strategy = match src.arm(5) {
        0 => AssignmentStrategy::Basic,
        1 => AssignmentStrategy::CycleIu1,
        2 => AssignmentStrategy::CycleIu2,
        3 => AssignmentStrategy::TheoremNine,
        _ => loop {
            let images = (0..sys.num_fields())
                .map(|i| {
                    (0..sys.field_bits(i))
                        .map(|_| src.rng().gen_range(0..sys.devices()))
                        .collect()
                })
                .collect();
            if let Ok(fx) = FxDistribution::from_images(sys.clone(), images) {
                return fx;
            }
        },
    };
    FxDistribution::with_strategy(sys.clone(), strategy)
        .unwrap_or_else(|_| FxDistribution::auto(sys.clone()).expect("auto always assigns"))
}

/// Random query: each field open with probability one half.
fn gen_query(src: &mut Source, sys: &SystemConfig) -> PartialMatchQuery {
    let values: Vec<Option<u64>> = (0..sys.num_fields())
        .map(|i| {
            let f = sys.field_size(i);
            (!src.weighted(0.5)).then(|| src.rng().gen_range(0..f))
        })
        .collect();
    PartialMatchQuery::new(sys, &values).expect("values drawn in range")
}

/// The documented key of `code` under `pattern`.
fn key(sys: &SystemConfig, pattern: Pattern, code: u64) -> u64 {
    let layout = sys.packed_layout();
    let pivot = pivot_field(sys, pattern);
    let others = (0..sys.num_fields())
        .rev()
        .filter(|&i| pattern.is_unspecified(i) && Some(i) != pivot);
    let (mut key, mut shift) = (0, 0);
    for field in pivot.into_iter().chain(others) {
        key |= layout.field(code, field) << shift;
        shift += sys.field_bits(field);
    }
    key
}

/// The generic scan's `(device, code)` pairs, sorted by device, then key.
fn scan_in_contract_order(
    fx: &FxDistribution,
    sys: &SystemConfig,
    query: &PartialMatchQuery,
) -> Vec<(u64, u64)> {
    let mut pairs = Vec::new();
    let mut it = query.qualified_buckets(sys);
    while let Some(code) = it.next_code() {
        pairs.push((fx.device_of_packed(code), code));
    }
    pairs.sort_by_key(|&(d, code)| (d, key(sys, query.pattern(), code)));
    pairs
}

rt_proptest! {
    /// Each device's `for_each_code_on` sequence is the scan's codes for
    /// that device in key order.
    fn per_device_codes_come_in_key_order(src) {
        let sys = gen_system(src);
        let fx = gen_fx(src, &sys);
        let query = gen_query(src, &sys);
        let want = scan_in_contract_order(&fx, &sys, &query);
        let inv = FxInverse::new(&fx, &query);
        let (mut at, mut got) = (0, Vec::new());
        for device in 0..sys.devices() {
            got.clear();
            inv.for_each_code_on(device, |code| got.push((device, code)));
            let end = at + want[at..].partition_point(|&(d, _)| d == device);
            assert_eq!(got, want[at..end], "{sys} {} {query} device {device}", fx.name());
            at = end;
        }
        assert_eq!(at, want.len(), "{sys} {} {query}", fx.name());
    }

    /// `for_each_routed_code` over the whole range, and over a random
    /// sub-range, is the per-device sequences joined in device order.
    fn routed_codes_are_device_major(src) {
        let sys = gen_system(src);
        let fx = gen_fx(src, &sys);
        let query = gen_query(src, &sys);
        let want = scan_in_contract_order(&fx, &sys, &query);
        let inv = FxInverse::new(&fx, &query);
        let m = sys.devices();
        let start = src.rng().gen_range(0..m);
        let end = src.rng().gen_range(start..=m);
        for range in [0..m, start..end] {
            let mut got = Vec::new();
            inv.for_each_routed_code(range.clone(), |d, code| got.push((d, code)));
            let joined: Vec<(u64, u64)> =
                want.iter().copied().filter(|(d, _)| range.contains(d)).collect();
            assert_eq!(got, joined, "{sys} {} {query} devices {range:?}", fx.name());
        }
    }
}
