//! The paper's *sufficient* optimality conditions as predicates.
//!
//! Section 4.2 condenses Theorems 1–9 and Corollaries 6.1/9.1 into a
//! decision procedure: given the per-field transformation assignment and a
//! query's specification pattern, decide whether FX distribution is
//! *guaranteed* strict optimal for every query with that pattern. The
//! paper's Figures 1–4 are computed from exactly these conditions ("results
//! are computed from sufficient conditions given for each method"), so this
//! module is the engine behind those reproductions.
//!
//! Being sufficient-but-not-necessary, `false` here does **not** mean a
//! query is unbalanced — the exhaustive checkers in [`crate::optimality`]
//! give ground truth, and the property tests below verify the one-sided
//! implication: *condition ⇒ measured strict optimality*.
//!
//! Conventions baked in from §4.2:
//! * An `IU2` transform on a field with `F² ≥ M` *is* `IU1`
//!   ("IU2 transformation does not apply for the field whose square of the
//!   field size is greater than or equal to M") — handled via
//!   [`crate::transform::Transform::effective_kind`].
//! * "Different transformation methods" never counts the `{IU1, IU2}`
//!   pairing ("in (3), (4)-a and (5)-a IU1 and IU2 combination do not
//!   apply").

use crate::assign::Assignment;
use crate::query::Pattern;
use crate::system::SystemConfig;
use crate::transform::TransformKind;

/// Why a pattern is (or is not) covered by the sufficient conditions.
///
/// The variants mirror the clause numbering of the §4.2 summary; they make
/// the figure reproductions explainable ("which clause fired?") and are
/// handy in test failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FxOptimalityReason {
    /// Clause (1): at most one unspecified field (Theorem 1).
    AtMostOneUnspecified,
    /// Clause (2): some unspecified field has `F ≥ M` (Theorem 2).
    LargeUnspecifiedField,
    /// Clause (3): exactly two unspecified fields with different
    /// transformation methods (Theorems 4–8).
    TwoFieldsDifferentMethods,
    /// Clause (4a)/(5a): two unspecified fields with `F_p·F_q ≥ M` and
    /// different methods (Corollaries 6.1(3) / 9.1(3)).
    PairProductCovers,
    /// Clause (4b): three unspecified fields transformed `I`, `U`, `IU2`
    /// with `F_IU2 ≥ F_U` (Lemma 9.1).
    TripleIuIu2,
    /// Clause (5b): among ≥ 4 unspecified fields, three with
    /// `F_i·F_j·F_k ≥ M` transformed `I`, `U`, `IU2` with `F_IU2 ≥ F_U`
    /// (Corollary 9.1(5)).
    TripleProductCovers,
    /// No clause applies: optimality is not guaranteed (though it may still
    /// hold empirically).
    NotGuaranteed,
}

impl FxOptimalityReason {
    /// `true` when the reason certifies strict optimality.
    pub fn is_guaranteed(self) -> bool {
        self != FxOptimalityReason::NotGuaranteed
    }
}

/// The §4.2 decision procedure: is FX with this `assignment` *guaranteed*
/// strict optimal for every query with `pattern`?
pub fn fx_pattern_guaranteed(assignment: &Assignment, pattern: Pattern) -> bool {
    fx_pattern_reason(assignment, pattern).is_guaranteed()
}

/// As [`fx_pattern_guaranteed`], but reporting which clause fired.
pub fn fx_pattern_reason(assignment: &Assignment, pattern: Pattern) -> FxOptimalityReason {
    let sys = assignment.system();
    let unspecified = pattern.unspecified_fields(sys.num_fields());

    // (1) Theorem 1: 0 or 1 unspecified fields.
    if unspecified.len() <= 1 {
        return FxOptimalityReason::AtMostOneUnspecified;
    }
    // (2) Theorem 2: an unspecified field at least as large as M.
    if unspecified.iter().any(|&i| sys.field_covers_devices(i)) {
        return FxOptimalityReason::LargeUnspecifiedField;
    }

    // All unspecified fields are now small (F < M); reason over effective
    // kinds.
    let m = sys.devices();
    let small: Vec<(usize, u64, TransformKind)> = unspecified
        .iter()
        .map(|&i| (i, sys.field_size(i), assignment.effective_kind(i)))
        .collect();

    // (3) Exactly two unspecified fields, methods differ.
    if small.len() == 2 {
        if methods_differ(small[0].2, small[1].2) {
            return FxOptimalityReason::TwoFieldsDifferentMethods;
        }
        return FxOptimalityReason::NotGuaranteed;
    }

    // (4a)/(5a): a pair with product ≥ M and different methods.
    for (ai, &(_, fa, ka)) in small.iter().enumerate() {
        for &(_, fb, kb) in &small[ai + 1..] {
            if fa.saturating_mul(fb) >= m && methods_differ(ka, kb) {
                return FxOptimalityReason::PairProductCovers;
            }
        }
    }

    // (4b): exactly three unspecified fields transformed I, U, IU2 with
    // F_IU2 ≥ F_U (no product requirement — Lemma 9.1 handles both cases).
    if small.len() == 3 && iu_iu2_triple(&small[0..3], None) {
        return FxOptimalityReason::TripleIuIu2;
    }

    // (5b): ≥ 4 unspecified fields, some triple with product ≥ M
    // transformed I, U, IU2 with F_IU2 ≥ F_U.
    if small.len() >= 4 {
        let k = small.len();
        for a in 0..k {
            for b in a + 1..k {
                for c in b + 1..k {
                    let triple = [small[a], small[b], small[c]];
                    if iu_iu2_triple(&triple, Some(m)) {
                        return FxOptimalityReason::TripleProductCovers;
                    }
                }
            }
        }
    }

    FxOptimalityReason::NotGuaranteed
}

/// "Different transformation methods", §4.1 — excluding the `{IU1, IU2}`
/// pairing per the §4.2 footnote.
fn methods_differ(a: TransformKind, b: TransformKind) -> bool {
    if a == b {
        return false;
    }
    !matches!(
        (a, b),
        (TransformKind::Iu1, TransformKind::Iu2) | (TransformKind::Iu2, TransformKind::Iu1)
    )
}

/// Checks a triple for the (4b)/(5b) shape: kinds are exactly
/// `{I, U, IU2}` (effective), `F_IU2 ≥ F_U`, and — when `min_product` is
/// given — the sizes multiply to at least that.
fn iu_iu2_triple(triple: &[(usize, u64, TransformKind)], min_product: Option<u64>) -> bool {
    debug_assert_eq!(triple.len(), 3);
    let mut f_u = None;
    let mut f_iu2 = None;
    let mut has_i = false;
    for &(_, f, k) in triple {
        match k {
            TransformKind::Identity if !has_i => has_i = true,
            TransformKind::U if f_u.is_none() => f_u = Some(f),
            TransformKind::Iu2 if f_iu2.is_none() => f_iu2 = Some(f),
            _ => return false, // duplicate or foreign kind
        }
    }
    let (Some(fu), Some(fiu2)) = (f_u, f_iu2) else {
        return false;
    };
    if !has_i || fiu2 < fu {
        return false;
    }
    match min_product {
        None => true,
        Some(m) => {
            let product = triple
                .iter()
                .map(|&(_, f, _)| f)
                .fold(1u64, u64::saturating_mul);
            product >= m
        }
    }
}

/// Theorem 1 as a standalone predicate: FX (any assignment) is strict
/// optimal for patterns with ≤ 1 unspecified field.
pub fn theorem_1_applies(pattern: Pattern) -> bool {
    pattern.unspecified_count() <= 1
}

/// Theorem 2 as a standalone predicate: strict optimal when ≥ 2 fields are
/// unspecified and at least one of them has `F ≥ M`.
pub fn theorem_2_applies(sys: &SystemConfig, pattern: Pattern) -> bool {
    pattern.unspecified_count() >= 2
        && pattern
            .unspecified_fields(sys.num_fields())
            .iter()
            .any(|&i| sys.field_covers_devices(i))
}

/// Theorem 9 as a standalone predicate on a whole system: with at most
/// three small fields, FX with I/U/IU2 transforms *can* be perfect optimal.
pub fn theorem_9_applies(sys: &SystemConfig) -> bool {
    sys.small_fields().len() <= 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Assignment, AssignmentStrategy};
    use crate::fx::FxDistribution;
    use crate::optimality::pattern_strict_optimal;

    fn assignment(fields: &[u64], m: u64, kinds: &[TransformKind]) -> Assignment {
        let sys = SystemConfig::new(fields, m).unwrap();
        Assignment::from_kinds(&sys, kinds).unwrap()
    }

    #[test]
    fn clause_1_small_patterns() {
        let a = assignment(
            &[4, 4],
            16,
            &[TransformKind::Identity, TransformKind::Identity],
        );
        assert_eq!(
            fx_pattern_reason(&a, Pattern::EXACT),
            FxOptimalityReason::AtMostOneUnspecified
        );
        assert_eq!(
            fx_pattern_reason(&a, Pattern::from_unspecified(&[1])),
            FxOptimalityReason::AtMostOneUnspecified
        );
        // Two same-kind small fields: not guaranteed.
        assert_eq!(
            fx_pattern_reason(&a, Pattern::from_unspecified(&[0, 1])),
            FxOptimalityReason::NotGuaranteed
        );
    }

    #[test]
    fn clause_2_large_field() {
        let a = assignment(
            &[4, 32],
            16,
            &[TransformKind::Identity, TransformKind::Identity],
        );
        assert_eq!(
            fx_pattern_reason(&a, Pattern::from_unspecified(&[0, 1])),
            FxOptimalityReason::LargeUnspecifiedField
        );
    }

    #[test]
    fn clause_3_two_fields_different_methods() {
        let a = assignment(&[4, 4], 16, &[TransformKind::Identity, TransformKind::U]);
        assert_eq!(
            fx_pattern_reason(&a, Pattern::from_unspecified(&[0, 1])),
            FxOptimalityReason::TwoFieldsDifferentMethods
        );
    }

    /// IU1/IU2 never counts as "different methods".
    #[test]
    fn iu1_iu2_pairing_excluded() {
        // F = 2, M = 16 keeps IU2 genuine (4 < 16).
        let a = assignment(&[2, 2], 16, &[TransformKind::Iu1, TransformKind::Iu2]);
        assert_eq!(
            fx_pattern_reason(&a, Pattern::from_unspecified(&[0, 1])),
            FxOptimalityReason::NotGuaranteed
        );
        // …and degenerate IU2 ≡ IU1 is literally the same method.
        let a = assignment(&[8, 8], 16, &[TransformKind::Iu1, TransformKind::Iu2]);
        assert_eq!(
            fx_pattern_reason(&a, Pattern::from_unspecified(&[0, 1])),
            FxOptimalityReason::NotGuaranteed
        );
    }

    #[test]
    fn clause_4a_pair_product() {
        // Three small fields of size 8 on M = 32: pairs reach 64 ≥ 32.
        let a = assignment(
            &[8, 8, 8, 8, 8, 8],
            32,
            &[
                TransformKind::Identity,
                TransformKind::U,
                TransformKind::Iu1,
                TransformKind::Identity,
                TransformKind::U,
                TransformKind::Iu1,
            ],
        );
        assert_eq!(
            fx_pattern_reason(&a, Pattern::from_unspecified(&[0, 1, 3])),
            FxOptimalityReason::PairProductCovers
        );
        // All-same-kind triple: no qualifying pair.
        assert_eq!(
            fx_pattern_reason(&a, Pattern::from_unspecified(&[0, 3])),
            FxOptimalityReason::NotGuaranteed
        );
    }

    #[test]
    fn clause_4b_triple() {
        // Pairwise products < M = 512 (4·8 = 32), triple has I, U, IU2.
        let a = assignment(
            &[8, 4, 8],
            512,
            &[
                TransformKind::Identity,
                TransformKind::U,
                TransformKind::Iu2,
            ],
        );
        assert_eq!(
            fx_pattern_reason(&a, Pattern::from_unspecified(&[0, 1, 2])),
            FxOptimalityReason::TripleIuIu2
        );
        // Violating F_IU2 ≥ F_U: IU2 field smaller than U field.
        let a = assignment(
            &[8, 8, 4],
            512,
            &[
                TransformKind::Identity,
                TransformKind::U,
                TransformKind::Iu2,
            ],
        );
        assert_eq!(
            fx_pattern_reason(&a, Pattern::from_unspecified(&[0, 1, 2])),
            FxOptimalityReason::NotGuaranteed
        );
    }

    #[test]
    fn clause_5b_triple_product() {
        // Six small fields of size 8 on M = 512: pairwise 64 < 512,
        // triple 512 ≥ 512. Kinds cycle I, U, IU2.
        let a = assignment(
            &[8; 6],
            512,
            &[
                TransformKind::Identity,
                TransformKind::U,
                TransformKind::Iu2,
                TransformKind::Identity,
                TransformKind::U,
                TransformKind::Iu2,
            ],
        );
        assert_eq!(
            fx_pattern_reason(&a, Pattern::from_unspecified(&[0, 1, 2, 3])),
            FxOptimalityReason::TripleProductCovers
        );
        // A 4-pattern missing one of the kinds: not guaranteed.
        assert_eq!(
            fx_pattern_reason(&a, Pattern::from_unspecified(&[0, 1, 3, 4])),
            FxOptimalityReason::NotGuaranteed
        );
    }

    /// The one-sided soundness check: on a battery of small systems, every
    /// pattern the conditions certify must measure strict optimal.
    #[test]
    fn conditions_imply_measured_optimality() {
        let cases: [(&[u64], u64, AssignmentStrategy); 7] = [
            (&[2, 8], 4, AssignmentStrategy::Basic),
            (&[4, 4], 16, AssignmentStrategy::CycleIu1),
            (&[4, 4, 4], 16, AssignmentStrategy::CycleIu1),
            (&[2, 4, 2], 8, AssignmentStrategy::CycleIu1),
            (&[4, 2, 2], 16, AssignmentStrategy::CycleIu2),
            (&[2, 2, 2, 2], 16, AssignmentStrategy::CycleIu2),
            (&[4, 4, 2, 8], 16, AssignmentStrategy::TheoremNine),
        ];
        for (fields, m, strategy) in cases {
            let sys = SystemConfig::new(fields, m).unwrap();
            let fx = FxDistribution::with_strategy(sys.clone(), strategy).unwrap();
            for pattern in Pattern::all(sys.num_fields()) {
                let reason = fx_pattern_reason(fx.assignment().unwrap(), pattern);
                if reason.is_guaranteed() {
                    assert!(
                        pattern_strict_optimal(&fx, &sys, pattern),
                        "{sys} [{}] pattern {pattern:?}: condition {reason:?} fired \
                         but distribution is not strict optimal",
                        fx.describe()
                    );
                }
            }
        }
    }

    /// The conditions are sufficient, not necessary: the excluded
    /// `{IU1, IU2}` pairing can still measure optimal. With `F = (2, 2)` on
    /// `M = 16`, `IU1(f) = {0, 9}` and `IU2(f) = {0, 13}` XOR to four
    /// distinct addresses `{0, 13, 9, 4}`, so the fully-unspecified query is
    /// strict optimal even though no clause certifies it (documents the
    /// one-sidedness the paper's figures inherit).
    #[test]
    fn conditions_are_not_necessary() {
        let sys = SystemConfig::new(&[2, 2], 16).unwrap();
        let a = Assignment::from_kinds(&sys, &[TransformKind::Iu1, TransformKind::Iu2]).unwrap();
        let fx = FxDistribution::with_assignment(a.clone());
        let pattern = Pattern::from_unspecified(&[0, 1]);
        assert!(!fx_pattern_guaranteed(&a, pattern));
        assert!(pattern_strict_optimal(&fx, &sys, pattern));
    }

    #[test]
    fn standalone_theorem_predicates() {
        let sys = SystemConfig::new(&[4, 32], 16).unwrap();
        assert!(theorem_1_applies(Pattern::from_unspecified(&[0])));
        assert!(!theorem_1_applies(Pattern::from_unspecified(&[0, 1])));
        assert!(theorem_2_applies(&sys, Pattern::from_unspecified(&[0, 1])));
        assert!(!theorem_2_applies(&sys, Pattern::from_unspecified(&[0])));
        assert!(theorem_9_applies(&sys));
        let sys4 = SystemConfig::new(&[2, 2, 2, 2], 16).unwrap();
        assert!(!theorem_9_applies(&sys4));
    }
}
