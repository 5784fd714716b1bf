//! Golden digests of the FX fast inverse.
//!
//! The other inverse-mapping tests compare implementations with each
//! other (fast inverse against the scan, routed against per-device), so
//! an order change or a bug both sides share passes them. These digests
//! pin the exact output instead. Per system and assignment, one 64-bit
//! value folds, for every covered pattern and for two sets of specified
//! values (all zero, and seeded):
//!
//! * the `(device, code)` sequence of `FxInverse::for_each_routed_code`
//!   over every device, which is device-major;
//! * the code sequence of `FxInverse::for_each_code_on(d)` for each
//!   device `d` in turn;
//! * `plan_query`'s `(fast_path, free_combos)`.
//!
//! The values were recorded from the per-pattern plan-cache inverse and
//! re-derived once, when the routed walk became device-major: from the
//! residue-class inverse it replaced, whose routed output, regrouped
//! stably by device, was folded beside its unchanged per-device
//! sequences and plans. A refactor of the inverse must reproduce them
//! without editing them.

use pmr_core::inverse::FxInverse;
use pmr_core::{AssignmentStrategy, FxDistribution, PartialMatchQuery, Pattern, SystemConfig};
use pmr_storage::exec::plan_query;

/// Order-sensitive 64-bit fold (FNV-1a over whole words, then a rotate so
/// equal words at different positions do not cancel).
fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29)
}

/// SplitMix64 step: a fixed, dependency-free source of seeded values.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The digest of every pattern of `sys` with at most `max_open` open
/// fields under `strategy`.
fn digest(sys: &SystemConfig, strategy: AssignmentStrategy, max_open: u32) -> u64 {
    let fx = FxDistribution::with_strategy(sys.clone(), strategy).unwrap();
    let m = sys.devices();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut seed = 0x5eed_u64;
    for pattern in Pattern::all(sys.num_fields()).filter(|p| p.unspecified_count() <= max_open) {
        for seeded in [false, true] {
            let values: Vec<Option<u64>> = (0..sys.num_fields())
                .map(|i| {
                    if pattern.is_unspecified(i) {
                        None
                    } else if seeded {
                        Some(splitmix(&mut seed) % sys.field_size(i))
                    } else {
                        Some(0)
                    }
                })
                .collect();
            let query = PartialMatchQuery::new(sys, &values).unwrap();
            let inv = FxInverse::new(&fx, &query);
            inv.for_each_routed_code(0..m, |d, code| h = fold(fold(h, d), code));
            for d in 0..m {
                h = fold(h, u64::MAX - d);
                inv.for_each_code_on(d, |code| h = fold(h, code));
            }
            let planned = plan_query(sys, &fx, &query);
            h = fold(fold(h, u64::from(planned.fast_path)), planned.free_combos);
        }
    }
    h
}

fn check(fields: &[u64], m: u64, max_open: u32, want: [u64; 2]) {
    let sys = SystemConfig::new(fields, m).unwrap();
    let strategies = [
        AssignmentStrategy::TheoremNine,
        AssignmentStrategy::CycleIu1,
    ];
    let got = strategies.map(|s| digest(&sys, s, max_open));
    assert_eq!(
        got.map(|d| format!("{d:#018x}")),
        want.map(|d| format!("{d:#018x}")),
        "{sys}: [TheoremNine, CycleIu1]"
    );
}

/// Table 7: six fields of 8 on M = 32, every pattern.
#[test]
fn table_7_inverse_digests() {
    check(
        &[8; 6],
        32,
        6,
        [0xb62b_a6b3_cf35_bfeb, 0xeb55_77a2_8770_58d4],
    );
}

/// Table 8: six fields of 8 on M = 64, every pattern.
#[test]
fn table_8_inverse_digests() {
    check(
        &[8; 6],
        64,
        6,
        [0x03a2_709e_94a7_9da9, 0x5a2e_351e_e303_7723],
    );
}

/// Table 9: F = (8, 8, 8, 16, 16, 16) on M = 512, every pattern with at
/// most three open fields.
#[test]
fn table_9_inverse_digests() {
    check(
        &[8, 8, 8, 16, 16, 16],
        512,
        3,
        [0x477c_ce00_21a5_f3c6, 0x30bf_4712_a16f_426f],
    );
}

/// Fields on both sides of M: the F ≥ M fields take the identity, so a
/// pivot among them walks its coset by stride M.
#[test]
fn mixed_field_sizes_inverse_digests() {
    check(
        &[2, 4, 64, 16],
        16,
        4,
        [0xeda7_0080_0556_0d87, 0x2605_195c_c515_1db5],
    );
}
