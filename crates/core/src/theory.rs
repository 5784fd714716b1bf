//! Machine-checkable statements of the paper's theorems.
//!
//! Each theorem is packaged as a *claim* — a predicate picking out the
//! (system, assignment, pattern) triples the theorem speaks about — plus
//! the exhaustive check of its conclusion. [`verify_all`] sweeps a grid
//! of systems and returns a per-theorem verification report;
//! `pmr verify --max-fields 4 --max-buckets 1024` prints it, and the test
//! suite asserts zero counterexamples.
//!
//! This is deliberately *not* a proof — it is the strongest falsification
//! harness a finite machine can run: every claim instance inside the
//! swept grid is checked against ground truth.

use crate::assign::Assignment;
use crate::fx::FxDistribution;
use crate::optimality::pattern_strict_optimal;
use crate::query::Pattern;
use crate::system::SystemConfig;
use crate::transform::TransformKind;

/// Identifier of a verifiable claim from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Claim {
    /// Theorem 1: any FX distribution is 0-optimal and 1-optimal.
    Theorem1,
    /// Theorem 2: strict optimal when some unspecified field has `F ≥ M`.
    Theorem2,
    /// Theorem 4: two small fields, `I` + `U` → perfect optimal.
    Theorem4,
    /// Theorem 5: two small fields, `I` + `IU1` → perfect optimal.
    Theorem5,
    /// Theorem 6: two small fields, `U` + `IU1` → perfect optimal.
    Theorem6,
    /// Theorem 7: two small fields, `I` + `IU2` → perfect optimal.
    Theorem7,
    /// Theorem 8: two small fields, `U` + `IU2` → perfect optimal.
    Theorem8,
    /// Theorem 9: at most three small fields → the constructive
    /// `I`/`IU2`/`U` assignment is perfect optimal.
    Theorem9,
    /// Corollary 6.1 clause (2)/(3) and Corollary 9.1 — i.e. the full
    /// §4.2 sufficient-condition summary.
    SummaryConditions,
}

impl Claim {
    /// All claims in paper order.
    pub const ALL: [Claim; 9] = [
        Claim::Theorem1,
        Claim::Theorem2,
        Claim::Theorem4,
        Claim::Theorem5,
        Claim::Theorem6,
        Claim::Theorem7,
        Claim::Theorem8,
        Claim::Theorem9,
        Claim::SummaryConditions,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Claim::Theorem1 => "Theorem 1 (0/1-optimality)",
            Claim::Theorem2 => "Theorem 2 (large unspecified field)",
            Claim::Theorem4 => "Theorem 4 (I + U)",
            Claim::Theorem5 => "Theorem 5 (I + IU1)",
            Claim::Theorem6 => "Theorem 6 (U + IU1)",
            Claim::Theorem7 => "Theorem 7 (I + IU2)",
            Claim::Theorem8 => "Theorem 8 (U + IU2)",
            Claim::Theorem9 => "Theorem 9 (<= 3 small fields)",
            Claim::SummaryConditions => "Section 4.2 summary conditions",
        }
    }
}

/// Verification outcome for one claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimReport {
    /// Which claim.
    pub claim: Claim,
    /// Number of (system, assignment, pattern) instances the claim made.
    pub instances: u64,
    /// Counterexamples found (must be zero; listed for diagnosis).
    pub counterexamples: Vec<String>,
}

impl ClaimReport {
    /// `true` when no counterexample was found.
    pub fn verified(&self) -> bool {
        self.counterexamples.is_empty()
    }
}

/// The default verification grid: every system with up to `max_fields`
/// fields, field sizes in `{1, 2, 4, 8}`, and `M ∈ {2, 4, 8, 16}`,
/// bounded by total bucket count for tractability.
pub fn default_grid(max_fields: usize, max_buckets: u64) -> Vec<SystemConfig> {
    let sizes = [1u64, 2, 4, 8];
    let ms = [2u64, 4, 8, 16];
    let mut out = Vec::new();
    for n in 1..=max_fields {
        let mut combo = vec![0usize; n];
        loop {
            let field_sizes: Vec<u64> = combo.iter().map(|&i| sizes[i]).collect();
            if field_sizes.iter().product::<u64>() <= max_buckets {
                for &m in &ms {
                    out.push(SystemConfig::new(&field_sizes, m).expect("grid sizes are valid"));
                }
            }
            // Odometer over size choices.
            let mut advanced = false;
            for slot in combo.iter_mut().rev() {
                *slot += 1;
                if *slot < sizes.len() {
                    advanced = true;
                    break;
                }
                *slot = 0;
            }
            if !advanced {
                break;
            }
        }
    }
    out
}

/// Verifies one claim over a grid of systems.
pub fn verify(claim: Claim, grid: &[SystemConfig]) -> ClaimReport {
    let mut instances = 0u64;
    let mut counterexamples = Vec::new();
    let fail = |msg: String, counterexamples: &mut Vec<String>| {
        if counterexamples.len() < 8 {
            counterexamples.push(msg);
        }
    };

    for sys in grid {
        match claim {
            Claim::Theorem1 | Claim::Theorem2 | Claim::SummaryConditions => {
                for assignment in sample_assignments(sys) {
                    let fx = FxDistribution::with_assignment(assignment.clone());
                    for pattern in Pattern::all(sys.num_fields()) {
                        let applies = match claim {
                            Claim::Theorem1 => pattern.unspecified_count() <= 1,
                            Claim::Theorem2 => crate::conditions::theorem_2_applies(sys, pattern),
                            Claim::SummaryConditions => {
                                crate::conditions::fx_pattern_guaranteed(&assignment, pattern)
                            }
                            _ => unreachable!(),
                        };
                        if !applies {
                            continue;
                        }
                        instances += 1;
                        if !pattern_strict_optimal(&fx, sys, pattern) {
                            fail(
                                format!("{sys} [{}] pattern {pattern:?}", assignment.describe()),
                                &mut counterexamples,
                            );
                        }
                    }
                }
            }
            Claim::Theorem4
            | Claim::Theorem5
            | Claim::Theorem6
            | Claim::Theorem7
            | Claim::Theorem8 => {
                // Claims about systems with exactly two small fields.
                let small = sys.small_fields();
                if small.len() != 2 {
                    continue;
                }
                let (ka, kb) = match claim {
                    Claim::Theorem4 => (TransformKind::Identity, TransformKind::U),
                    Claim::Theorem5 => (TransformKind::Identity, TransformKind::Iu1),
                    Claim::Theorem6 => (TransformKind::U, TransformKind::Iu1),
                    Claim::Theorem7 => (TransformKind::Identity, TransformKind::Iu2),
                    Claim::Theorem8 => (TransformKind::U, TransformKind::Iu2),
                    _ => unreachable!(),
                };
                // Both orders of assigning the pair to the two fields.
                for (first, second) in [(ka, kb), (kb, ka)] {
                    let mut kinds = vec![TransformKind::Identity; sys.num_fields()];
                    kinds[small[0]] = first;
                    kinds[small[1]] = second;
                    let Ok(assignment) = Assignment::from_kinds(sys, &kinds) else {
                        continue;
                    };
                    let fx = FxDistribution::with_assignment(assignment.clone());
                    for pattern in Pattern::all(sys.num_fields()) {
                        instances += 1;
                        if !pattern_strict_optimal(&fx, sys, pattern) {
                            fail(
                                format!("{sys} [{}] pattern {pattern:?}", assignment.describe()),
                                &mut counterexamples,
                            );
                        }
                    }
                }
            }
            Claim::Theorem9 => {
                if sys.small_fields().len() > 3 {
                    continue;
                }
                let fx = FxDistribution::auto(sys.clone()).expect("grid systems valid");
                for pattern in Pattern::all(sys.num_fields()) {
                    instances += 1;
                    if !pattern_strict_optimal(&fx, sys, pattern) {
                        fail(
                            format!("{sys} [{}] pattern {pattern:?}", fx.describe()),
                            &mut counterexamples,
                        );
                    }
                }
            }
        }
    }
    ClaimReport {
        claim,
        instances,
        counterexamples,
    }
}

/// A small deterministic family of assignments for universally-quantified
/// claims: the four strategies plus a reversed cycle.
fn sample_assignments(sys: &SystemConfig) -> Vec<Assignment> {
    use crate::assign::AssignmentStrategy as S;
    let mut out: Vec<Assignment> = [S::Basic, S::CycleIu1, S::CycleIu2, S::TheoremNine]
        .into_iter()
        .filter_map(|s| Assignment::from_strategy(sys, s).ok())
        .collect();
    // A reversed-cycle variant to vary field/kind pairings.
    let mut kinds = vec![TransformKind::Identity; sys.num_fields()];
    for (pos, field) in sys.small_fields().into_iter().rev().enumerate() {
        kinds[field] = [
            TransformKind::Identity,
            TransformKind::U,
            TransformKind::Iu1,
        ][pos % 3];
    }
    if let Ok(a) = Assignment::from_kinds(sys, &kinds) {
        out.push(a);
    }
    out.dedup_by(|a, b| a == b);
    out
}

/// Verifies every claim over the default grid.
pub fn verify_all(max_fields: usize, max_buckets: u64) -> Vec<ClaimReport> {
    let grid = default_grid(max_fields, max_buckets);
    Claim::ALL.into_iter().map(|c| verify(c, &grid)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_nonempty_and_valid() {
        let grid = default_grid(3, 256);
        assert!(grid.len() > 50);
        assert!(grid.iter().all(|s| s.total_buckets() <= 256));
    }

    /// The headline test: every claim verifies with zero counterexamples
    /// on a 3-field grid.
    #[test]
    fn all_claims_verify_small_grid() {
        for report in verify_all(3, 128) {
            assert!(
                report.verified(),
                "{}: {} counterexamples, e.g. {:?}",
                report.claim.label(),
                report.counterexamples.len(),
                report.counterexamples.first()
            );
            assert!(report.instances > 0, "{} vacuous", report.claim.label());
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Claim::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Claim::ALL.len());
    }
}
