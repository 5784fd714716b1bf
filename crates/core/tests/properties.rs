//! Property-based tests for the core FX machinery.
//!
//! These complement the unit tests by sampling random systems,
//! assignments, and queries, and asserting the paper's lemmas and theorems
//! as universally-quantified properties. They run under the
//! [`pmr_rt::check`] harness (`rt_proptest!`): seeded case generation,
//! shrinking by halving, `PMR_CHECK_SEED` replay.

use pmr_core::assign::{Assignment, AssignmentStrategy};
use pmr_core::bits;
use pmr_core::conditions::fx_pattern_reason;
use pmr_core::inverse::{scan_device_buckets, FxInverse};
use pmr_core::method::DistributionMethod;
use pmr_core::optimality::{
    is_k_optimal, pattern_largest_response, pattern_strict_optimal, response_histogram,
};
use pmr_core::query::{PartialMatchQuery, Pattern};
use pmr_core::system::SystemConfig;
use pmr_core::transform::{Transform, TransformKind};
use pmr_core::{DeviceSet, FxDistribution};
use pmr_rt::check::Source;
use pmr_rt::{rt_assume, rt_proptest};

/// Random small system: 1–4 fields, sizes 2^0..2^4, devices 2^1..2^5,
/// bounded so exhaustive checks stay fast.
fn gen_system(src: &mut Source) -> SystemConfig {
    let field_bits = src.vec_of(1..=4, |s| s.u32_in(0..=4));
    let m_bits = src.u32_in(1..=5).max(1);
    let sizes: Vec<u64> = field_bits.iter().map(|&b| 1u64 << b).collect();
    SystemConfig::new(&sizes, 1 << m_bits).expect("powers of two are valid")
}

fn gen_strategy(src: &mut Source) -> AssignmentStrategy {
    [
        AssignmentStrategy::Basic,
        AssignmentStrategy::CycleIu1,
        AssignmentStrategy::CycleIu2,
        AssignmentStrategy::TheoremNine,
    ][src.arm(4)]
}

/// Random kind legal for a (field size, devices) pair.
fn gen_kind_for(src: &mut Source, small: bool) -> TransformKind {
    if small {
        TransformKind::ALL[src.arm(4)]
    } else {
        TransformKind::Identity
    }
}

fn gen_fx(src: &mut Source) -> FxDistribution {
    let sys = gen_system(src);
    let kinds: Vec<TransformKind> = (0..sys.num_fields())
        .map(|i| gen_kind_for(src, sys.is_small_field(i)))
        .collect();
    let a = Assignment::from_kinds(&sys, &kinds).expect("kinds respect smallness");
    FxDistribution::with_assignment(a)
}

/// Random valid bit images for `sys`: uniform images, redrawn until each
/// field's map is injective (`F < M`) or onto `Z_M` (`F ≥ M`).
fn gen_images(src: &mut Source, sys: &SystemConfig) -> Vec<Vec<u64>> {
    (0..sys.num_fields())
        .map(|i| loop {
            let images: Vec<u64> = (0..sys.field_bits(i))
                .map(|_| src.rng().below(sys.devices()))
                .collect();
            let mut span = DeviceSet::single(0);
            images.iter().for_each(|&v| span.insert(v));
            if span.dim() == sys.field_bits(i).min(sys.device_bits()) {
                break images;
            }
        })
        .collect()
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

rt_proptest! {
    /// Lemma 1.1 as a property over wide ranges.
    fn lemma_1_1(src) {
        let m_bits = src.u32_in(0..=15);
        let k = src.int_in(0, 65535);
        let m = 1u64 << m_bits;
        let k = k & (m - 1);
        let mut translated = bits::zm_xor_k(m, k);
        translated.sort_unstable();
        assert!(translated.iter().copied().eq(0..m));
    }

    /// Lemma 4.1 as a property.
    fn lemma_4_1(src) {
        let w_bits = src.u32_in(0..=11);
        let l = src.int_in(0, (1 << 20) - 1);
        let w = 1u64 << w_bits;
        let mut got = bits::window_xor(w, l);
        got.sort_unstable();
        let (start, end) = bits::window_of(w, l);
        assert!(got.iter().copied().eq(start..end));
        assert_eq!(start % w, 0);
        assert!((start..end).contains(&l));
    }

    /// Every transform is injective and lands in Z_M (Lemmas 5.1 / 7.1).
    fn transforms_injective(src) {
        let m_bits = src.u32_in(1..=19).max(1);
        let f_bits_delta = src.u32_in(1..=19).max(1);
        let kind_idx = src.arm(4);
        let m = 1u64 << m_bits;
        let f_bits = m_bits.saturating_sub(f_bits_delta.min(m_bits));
        let f = 1u64 << f_bits;
        rt_assume!(f < m || kind_idx == 0);
        let kind = TransformKind::ALL[kind_idx];
        let t = Transform::new(kind, f, m).unwrap();
        let mut image: Vec<u64> = (0..f.min(4096)).map(|l| t.apply(l)).collect();
        assert!(image.iter().all(|&v| v < m));
        image.sort_unstable();
        image.dedup();
        assert_eq!(image.len() as u64, f.min(4096));
    }

    /// The fast inverse inverts a transform: on a one-field system the
    /// one-open query puts exactly `l` on device `T_M(X(l))`, for `M` up
    /// to 2^19.
    fn transform_invert_roundtrip(src) {
        let m_bits = src.u32_in(1..=19).max(1);
        let f_bits = src.u32_in(0..=18);
        let kind_idx = src.arm(4);
        let l = src.int_in(0, (1 << 19) - 1);
        rt_assume!(f_bits < m_bits);
        let m = 1u64 << m_bits;
        let f = 1u64 << f_bits;
        let l = l & (f - 1);
        let sys = SystemConfig::new(&[f], m).unwrap();
        let kind = TransformKind::ALL[kind_idx];
        let fx = FxDistribution::with_assignment(Assignment::from_kinds(&sys, &[kind]).unwrap());
        let query = PartialMatchQuery::new(&sys, &[None]).unwrap();
        let mut codes = Vec::new();
        let device = Transform::new(kind, f, m).unwrap().apply(l);
        FxInverse::new(&fx, &query).for_each_code_on(device, |c| codes.push(c));
        assert_eq!(codes, vec![l]);
    }

    /// Theorem 1: every FX distribution (any assignment) is 0- and
    /// 1-optimal.
    fn theorem_1_any_assignment(src) {
        let fx = gen_fx(src);
        let sys = fx.system().clone();
        assert!(is_k_optimal(&fx, &sys, 0));
        assert!(is_k_optimal(&fx, &sys, 1));
    }

    /// Theorem 2: any pattern containing a large unspecified field is
    /// strict optimal, for any assignment.
    fn theorem_2_any_assignment(src) {
        let fx = gen_fx(src);
        let sys = fx.system().clone();
        for pattern in Pattern::all(sys.num_fields()) {
            let unspecified = pattern.unspecified_fields(sys.num_fields());
            if unspecified.len() >= 2
                && unspecified.iter().any(|&i| sys.field_covers_devices(i))
            {
                assert!(
                    pattern_strict_optimal(&fx, &sys, pattern),
                    "{sys} pattern {pattern:?}"
                );
            }
        }
    }

    /// Soundness of the §4.2 sufficient conditions on random assignments:
    /// certified ⇒ measured optimal.
    fn sufficient_conditions_sound(src) {
        let fx = gen_fx(src);
        let sys = fx.system().clone();
        for pattern in Pattern::all(sys.num_fields()) {
            let reason = fx_pattern_reason(fx.assignment().unwrap(), pattern);
            if reason.is_guaranteed() {
                assert!(
                    pattern_strict_optimal(&fx, &sys, pattern),
                    "{} [{}] pattern {:?} reason {:?}",
                    sys,
                    fx.describe(),
                    pattern,
                    reason
                );
            }
        }
    }

    /// Theorem 9: the auto strategy is perfect optimal whenever at most
    /// three fields are small.
    fn theorem_9_auto_perfect(src) {
        let sys = gen_system(src);
        rt_assume!(sys.small_fields().len() <= 3);
        let fx = FxDistribution::auto(sys.clone()).unwrap();
        assert!(
            pmr_core::optimality::is_perfect_optimal(&fx, &sys),
            "{} [{}]",
            sys,
            fx.describe()
        );
    }

    /// Histogram shift-invariance holds for FX: the sorted response
    /// histogram is identical across all queries of a pattern.
    fn fx_histograms_shift_invariant(src) {
        let fx = gen_fx(src);
        let sys = fx.system().clone();
        for pattern in Pattern::all(sys.num_fields()) {
            let reference = {
                let q = PartialMatchQuery::zero_representative(&sys, pattern);
                let mut h = response_histogram(&fx, &sys, &q);
                h.sort_unstable();
                h
            };
            let ok = pmr_core::optimality::for_each_query(&sys, pattern, |q| {
                let mut h = response_histogram(&fx, &sys, q);
                h.sort_unstable();
                h == reference
            });
            assert!(ok, "{sys} pattern {pattern:?}");
        }
    }

    /// The FX fast inverse mapping agrees with the generic scan for random
    /// systems, strategies, and queries.
    fn inverse_matches_scan(src) {
        let strategy = gen_strategy(src);
        let sys = gen_system(src);
        let query = gen_query(src, &sys);
        let fx = FxDistribution::with_strategy(sys, strategy).unwrap();
        let sys = fx.system().clone();
        let inv = FxInverse::new(&fx, &query);
        let mut total = 0u64;
        for device in 0..sys.devices() {
            let mut fast = inv.buckets_on(device);
            let mut slow = scan_device_buckets(&fx, &sys, &query, device);
            fast.sort();
            slow.sort();
            assert_eq!(&fast, &slow, "{sys} device {device}");
            total += fast.len() as u64;
        }
        assert_eq!(total, query.qualified_count_in(&sys));
    }

    /// FX with random valid bit images (any linear map, not only the
    /// closed forms) keeps Theorems 1–2: 0/1-optimality always, and strict
    /// optimality for patterns with a large unspecified field.
    fn general_fx_keeps_theorems_1_2(src) {
        let sys = gen_system(src);
        let fx = FxDistribution::from_images(sys.clone(), gen_images(src, &sys))
            .expect("generated valid");
        assert!(fx.as_fx().is_some());
        assert!(is_k_optimal(&fx, &sys, 0));
        assert!(is_k_optimal(&fx, &sys, 1));
        for pattern in Pattern::all(sys.num_fields()) {
            let unspec = pattern.unspecified_fields(sys.num_fields());
            if unspec.len() >= 2 && unspec.iter().any(|&i| sys.field_covers_devices(i)) {
                assert!(
                    pattern_strict_optimal(&fx, &sys, pattern),
                    "{sys} pattern {pattern:?}"
                );
            }
        }
    }

    /// The rank form of the largest response (`|R| >> dim device_set`)
    /// equals the exhaustive one on every pattern, over random systems and
    /// random valid images.
    fn rank_largest_response_matches_exhaustive(src) {
        let sys = gen_system(src);
        let fx = FxDistribution::from_images(sys.clone(), gen_images(src, &sys))
            .expect("generated valid");
        for pattern in Pattern::all(sys.num_fields()) {
            assert_eq!(
                fx.largest_response_by_rank(pattern),
                pattern_largest_response(&fx, &sys, pattern),
                "{sys} {:?} pattern {pattern:?}",
                fx.images()
            );
        }
    }

    /// The per-field transform tables precomputed at `FxDistribution`
    /// construction agree with the closed-form `Transform::apply` on every
    /// field value, and the packed device path agrees with the tuple path
    /// on every bucket — the table microfix and packed layout are lossless.
    fn transform_tables_match_closed_form(src) {
        let fx = gen_fx(src);
        let sys = fx.system().clone();
        for i in 0..sys.num_fields() {
            let t = fx.assignment().unwrap().transform(i);
            for v in 0..sys.field_size(i) {
                let want = bits::t_m(t.apply(v), sys.devices());
                assert_eq!(fx.apply_field(i, v), want, "{sys} field {i} value {v}");
            }
        }
        let mut buf = Vec::new();
        for code in sys.all_indices() {
            sys.decode_index(code, &mut buf);
            assert_eq!(fx.device_of_packed(code), fx.device_of(&buf), "{sys} code {code}");
        }
    }

    /// Devices returned by FX are always in range, and the histogram always
    /// sums to |R(q)|.
    fn histogram_conservation(src) {
        let fx = gen_fx(src);
        let query = gen_query(src, fx.system());
        let sys = fx.system().clone();
        let hist = response_histogram(&fx, &sys, &query);
        assert_eq!(hist.len() as u64, sys.devices());
        assert_eq!(hist.iter().sum::<u64>(), query.qualified_count_in(&sys));
    }
}
