//! Whole-system optimality reports.
//!
//! [`OptimalityReport`] rolls up, for one system and FX assignment, the
//! per-`k` certified and measured strict-optimality counts plus a
//! histogram of *which* §4.2 clause certified each pattern — the
//! diagnostic view behind `pmr analyze` and a convenient structure for
//! downstream tooling.

use crate::assign::Assignment;
use crate::conditions::{fx_pattern_reason, FxOptimalityReason};
use crate::fx::FxDistribution;
use crate::optimality::pattern_strict_optimal;
use crate::query::Pattern;
use crate::system::SystemConfig;

/// Per-`k` roll-up of a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KRow {
    /// Number of unspecified fields.
    pub k: u32,
    /// Patterns with this `k` (`C(n, k)`).
    pub patterns: u64,
    /// Patterns certified by the §4.2 sufficient conditions.
    pub certified: u64,
    /// Patterns measured strict optimal (only when measurement ran).
    pub measured: Option<u64>,
}

/// A whole-system optimality report for an FX assignment.
#[derive(Debug, Clone)]
pub struct OptimalityReport {
    /// The system analysed.
    pub system: SystemConfig,
    /// The assignment description (e.g. `"I,U,IU1"`).
    pub assignment: String,
    /// Per-`k` rows, `k = 0 … n`.
    pub rows: Vec<KRow>,
    /// How often each certification clause fired, over all patterns.
    pub reasons: Vec<(FxOptimalityReason, u64)>,
    /// Whether ground-truth measurement was performed.
    pub measured: bool,
}

/// Bucket-space size (and device count) above which
/// [`OptimalityReport::analyze`] skips the exhaustive measurement and
/// reports conditions only. Measuring holds one `M`-entry histogram per
/// query, so the device count is bounded too.
pub const MEASUREMENT_LIMIT: u64 = 1 << 22;

impl OptimalityReport {
    /// Builds the report; measures ground truth when both the bucket
    /// space and `M` are within [`MEASUREMENT_LIMIT`].
    pub fn analyze(assignment: &Assignment) -> Self {
        let sys = assignment.system().clone();
        let n = sys.num_fields();
        let measure =
            sys.total_buckets() <= MEASUREMENT_LIMIT && sys.devices() <= MEASUREMENT_LIMIT;
        let fx = FxDistribution::with_assignment(assignment.clone());

        let mut rows = Vec::with_capacity(n + 1);
        let mut reason_counts: Vec<(FxOptimalityReason, u64)> = Vec::new();
        for k in 0..=n as u32 {
            let mut patterns = 0u64;
            let mut certified = 0u64;
            let mut measured_count = 0u64;
            for pattern in Pattern::with_unspecified_count(n, k) {
                patterns += 1;
                let reason = fx_pattern_reason(assignment, pattern);
                if reason.is_guaranteed() {
                    certified += 1;
                }
                match reason_counts.iter_mut().find(|(r, _)| *r == reason) {
                    Some((_, c)) => *c += 1,
                    None => reason_counts.push((reason, 1)),
                }
                if measure && pattern_strict_optimal(&fx, &sys, pattern) {
                    measured_count += 1;
                }
            }
            rows.push(KRow {
                k,
                patterns,
                certified,
                measured: measure.then_some(measured_count),
            });
        }
        reason_counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        OptimalityReport {
            system: sys,
            assignment: assignment.describe(),
            rows,
            reasons: reason_counts,
            measured: measure,
        }
    }

    /// Total patterns (`2^n`).
    pub fn total_patterns(&self) -> u64 {
        self.rows.iter().map(|r| r.patterns).sum()
    }

    /// Certified fraction over all patterns.
    pub fn certified_fraction(&self) -> f64 {
        let certified: u64 = self.rows.iter().map(|r| r.certified).sum();
        certified as f64 / self.total_patterns() as f64
    }

    /// Measured fraction over all patterns (`None` when measurement was
    /// skipped).
    pub fn measured_fraction(&self) -> Option<f64> {
        if !self.measured {
            return None;
        }
        let measured: u64 = self.rows.iter().filter_map(|r| r.measured).sum();
        Some(measured as f64 / self.total_patterns() as f64)
    }

    /// `true` when every pattern measured strict optimal.
    pub fn is_perfect(&self) -> Option<bool> {
        self.measured_fraction().map(|f| (f - 1.0).abs() < 1e-12)
    }

    /// Plain-text rendering (the `pmr analyze` body).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.system));
        out.push_str(&format!("FX assignment: {}\n", self.assignment));
        out.push_str(&format!(
            "small fields (F < M): {} of {}\n\n",
            self.system.small_fields().len(),
            self.system.num_fields()
        ));
        out.push_str(&format!(
            "{:>2}  {:>9}  {:>16}  {:>16}\n",
            "k", "patterns", "certified", "measured"
        ));
        for row in &self.rows {
            let measured = match row.measured {
                Some(c) => format!("{c:>10}/{:<5}", row.patterns),
                None => "      (skipped)".to_owned(),
            };
            out.push_str(&format!(
                "{:>2}  {:>9}  {:>10}/{:<5}  {measured}\n",
                row.k, row.patterns, row.certified, row.patterns
            ));
        }
        out.push('\n');
        out.push_str("certification clauses fired:\n");
        for (reason, count) in &self.reasons {
            out.push_str(&format!("  {reason:?}: {count}\n"));
        }
        out.push_str(&format!(
            "\ncertified strict-optimal patterns: {:.1}%\n",
            100.0 * self.certified_fraction()
        ));
        if let Some(f) = self.measured_fraction() {
            out.push_str(&format!(
                "measured  strict-optimal patterns: {:.1}%\n",
                100.0 * f
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::AssignmentStrategy;

    #[test]
    fn report_on_perfect_system() {
        let sys = SystemConfig::new(&[4, 2, 8], 16).unwrap();
        let a = Assignment::from_strategy(&sys, AssignmentStrategy::TheoremNine).unwrap();
        let report = OptimalityReport::analyze(&a);
        assert_eq!(report.total_patterns(), 8);
        assert_eq!(report.is_perfect(), Some(true));
        assert_eq!(report.measured_fraction(), Some(1.0));
        // Certified ≤ measured row by row.
        for row in &report.rows {
            assert!(row.certified <= row.measured.unwrap());
        }
        let text = report.render();
        assert!(text.contains("FX assignment"));
        assert!(text.contains("100.0%"));
    }

    #[test]
    fn report_on_imperfect_system() {
        let sys = SystemConfig::new(&[4; 4], 16).unwrap();
        let a = Assignment::from_strategy(&sys, AssignmentStrategy::CycleIu1).unwrap();
        let report = OptimalityReport::analyze(&a);
        assert_eq!(report.is_perfect(), Some(false));
        // Reasons histogram accounts for every pattern.
        let reason_total: u64 = report.reasons.iter().map(|&(_, c)| c).sum();
        assert_eq!(reason_total, report.total_patterns());
        assert!(report
            .reasons
            .iter()
            .any(|&(r, _)| r == FxOptimalityReason::NotGuaranteed));
    }

    /// Four buckets on 2^40 devices: measuring would allocate 2^40
    /// histogram slots, so only the conditions are reported.
    #[test]
    fn measurement_skipped_for_huge_device_counts() {
        let sys = SystemConfig::new(&[2, 2], 1 << 40).unwrap();
        let a = Assignment::from_strategy(&sys, AssignmentStrategy::TheoremNine).unwrap();
        let report = OptimalityReport::analyze(&a);
        assert!(!report.measured);
        assert_eq!(report.total_patterns(), 4);
    }

    #[test]
    fn measurement_skipped_for_huge_spaces() {
        // 2^30 buckets exceed the measurement limit.
        let sys = SystemConfig::new(&[1 << 15, 1 << 15], 4).unwrap();
        let a = Assignment::from_strategy(&sys, AssignmentStrategy::Basic).unwrap();
        let report = OptimalityReport::analyze(&a);
        assert!(!report.measured);
        assert_eq!(report.measured_fraction(), None);
        assert_eq!(report.is_perfect(), None);
        assert!(report.render().contains("(skipped)"));
        // Conditions still evaluated.
        assert!(report.certified_fraction() > 0.0);
    }
}
