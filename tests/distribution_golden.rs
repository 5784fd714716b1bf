//! Golden digests of every bucket's device.
//!
//! The equivalence properties compare the address paths with each other
//! (`device_of` against `device_of_packed` against `device_of_batch`), so
//! a bug all three share — in a distribution's construction, say — passes
//! them. These digests pin the map itself. Per system and method, one
//! 64-bit value folds the device of every bucket in packed-code order;
//! each address path must reproduce it.
//!
//! The values were recorded before the FX inverse dropped its residue
//! class tables, from the same code paths; a change to a distribution's
//! construction must reproduce them without editing them.

use pmr_baselines::gdm::PaperGdmSet;
use pmr_baselines::{GdmDistribution, ModuloDistribution};
use pmr_core::method::DistributionMethod;
use pmr_core::{AssignmentStrategy, FxDistribution, SystemConfig};

/// Order-sensitive 64-bit fold (FNV-1a over whole words, then a rotate so
/// equal words at different positions do not cancel).
fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29)
}

const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The methods pinned, in digest order.
fn methods(sys: &SystemConfig) -> Vec<(String, Box<dyn DistributionMethod>)> {
    let mut out: Vec<(String, Box<dyn DistributionMethod>)> = Vec::new();
    for strategy in [
        AssignmentStrategy::Basic,
        AssignmentStrategy::CycleIu1,
        AssignmentStrategy::CycleIu2,
        AssignmentStrategy::TheoremNine,
    ] {
        let fx = FxDistribution::with_strategy(sys.clone(), strategy).unwrap();
        out.push((format!("FX {strategy:?}"), Box::new(fx)));
    }
    out.push(("DM".into(), Box::new(ModuloDistribution::new(sys.clone()))));
    for set in [PaperGdmSet::Gdm1, PaperGdmSet::Gdm2, PaperGdmSet::Gdm3] {
        let gdm = GdmDistribution::paper_set(sys.clone(), set);
        out.push((set.label().into(), Box::new(gdm)));
    }
    out
}

/// The digest of `method` over every bucket of `sys`, through each of the
/// three address paths: `[tuple, packed, batched]`.
fn digests(method: &dyn DistributionMethod, sys: &SystemConfig) -> [u64; 3] {
    let layout = sys.packed_layout();
    let total = sys.total_buckets();
    let mut bucket = vec![0u64; sys.num_fields()];
    let (mut tuple, mut packed) = (SEED, SEED);
    for code in 0..total {
        layout.unpack_into(code, &mut bucket);
        tuple = fold(tuple, method.device_of(&bucket));
        packed = fold(packed, method.device_of_packed(code));
    }
    // An odd batch length leaves a remainder for the scalar tail.
    let mut batched = SEED;
    let (mut codes, mut devs) = (Vec::new(), vec![0u64; 1000]);
    for start in (0..total).step_by(1000) {
        codes.clear();
        codes.extend(start..total.min(start + 1000));
        method.device_of_batch(&codes, &mut devs[..codes.len()]);
        for &d in &devs[..codes.len()] {
            batched = fold(batched, d);
        }
    }
    [tuple, packed, batched]
}

fn check(fields: &[u64], m: u64, want: [u64; 8]) {
    let sys = SystemConfig::new(fields, m).unwrap();
    let methods = methods(&sys);
    assert_eq!(methods.len(), want.len());
    let mut differ = Vec::new();
    for ((name, method), &want) in methods.iter().zip(&want) {
        let [tuple, packed, batched] = digests(method.as_ref(), &sys);
        assert_eq!(packed, tuple, "{sys} {name}: device_of_packed");
        assert_eq!(batched, tuple, "{sys} {name}: device_of_batch");
        if tuple != want {
            differ.push(format!("{name}: got {tuple:#018x}, want {want:#018x}"));
        }
    }
    assert!(differ.is_empty(), "{sys}: {differ:?}");
}

/// Table 7: six fields of 8 on M = 32. The IU1 and IU2 cycles build the
/// same map here, so their digests agree.
#[test]
fn table_7_distribution_digests() {
    check(
        &[8; 6],
        32,
        [
            0x501a_3d95_4db3_5aec,
            0x3922_1e49_9b6a_04a3,
            0x3922_1e49_9b6a_04a3,
            0x3688_0570_bdba_c72b,
            0x0ef0_9f13_e1e6_64d9,
            0x7d6a_f21b_738d_ac82,
            0x584a_53e5_a5b3_144d,
            0x84d5_e577_d6bd_d497,
        ],
    );
}

/// Fields on both sides of M: `F = (2, 4, 64, 16)` on M = 16.
/// The IU1 and IU2 cycles build the same map here too.
#[test]
fn mixed_field_sizes_distribution_digests() {
    check(
        &[2, 4, 64, 16],
        16,
        [
            0x66f4_c383_c844_f431,
            0x3ca6_8099_cd60_2414,
            0x3ca6_8099_cd60_2414,
            0x276c_2a39_30e7_ccb3,
            0x1251_972d_c431_ec00,
            0xc24b_4a7c_f8df_d271,
            0x748a_bdb6_8ec8_34af,
            0x8fdc_1af6_2da8_3ab1,
        ],
    );
}
