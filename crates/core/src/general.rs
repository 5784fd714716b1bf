//! Generalized FX: arbitrary per-field transformation tables.
//!
//! The paper closes with: "We are developing more general transformation
//! functions to achieve optimal data distribution for much larger class
//! of partial match queries in more general file systems." This module
//! implements that direction: an FX-shaped method whose per-field
//! transformations are *arbitrary tables* rather than the four closed
//! forms `I`/`U`/`IU1`/`IU2`.
//!
//! The XOR backbone is retained — device `= T_M(t_1[J_1] ⊕ … ⊕ t_n[J_n])`
//! — so Lemma 1.1 still applies: specified values only permute the
//! response histogram (shift invariance), and Theorems 1–2 carry over
//! whenever each table satisfies the *M-regularity* invariant enforced at
//! construction:
//!
//! * a field with `F < M` must map injectively into `Z_M`;
//! * a field with `F ≥ M` must hit every residue class of `Z_M` exactly
//!   `F / M` times (the identity does).
//!
//! What the closed forms buy is *provable* optimality for specific query
//! classes; what tables buy is a **search space** — see
//! `pmr_analysis::optimize` for a simulated-annealing optimizer that
//! finds tables beating every closed-form assignment on systems with
//! four or more small fields (where \[Sung87\] rules out perfection but
//! not improvement).

use crate::assign::Assignment;
use crate::bits::t_m;
use crate::error::{Error, Result};
use crate::fx::TableKernel;
use crate::method::DistributionMethod;
use crate::system::SystemConfig;

/// FX with arbitrary (validated) per-field transformation tables, run on
/// FX's table-XOR address kernel.
///
/// It keeps [`DistributionMethod::as_fx`] at `None`: its tables need not
/// be GF(2)-linear, so neither FX's closed-form device sets nor the fast
/// inverse's identity-stride classes apply to it.
///
/// # Examples
///
/// ```
/// use pmr_core::general::GeneralFxDistribution;
/// use pmr_core::method::DistributionMethod;
/// use pmr_core::SystemConfig;
///
/// let sys = SystemConfig::new(&[2, 8], 4).unwrap();
/// // Field 0 maps {0,1} -> {0,3}; field 1 keeps the identity.
/// let g = GeneralFxDistribution::new(
///     sys,
///     vec![vec![0, 3], (0..8).collect()],
/// ).unwrap();
/// assert_eq!(g.device_of(&[1, 1]), 2); // T_4(3 ^ 1)
/// ```
#[derive(Debug, Clone)]
pub struct GeneralFxDistribution {
    sys: SystemConfig,
    kernel: TableKernel,
}

impl GeneralFxDistribution {
    /// Builds a generalized FX method, validating the M-regularity
    /// invariant for every table.
    ///
    /// # Errors
    ///
    /// * [`Error::TransformArityMismatch`] when the table count differs
    ///   from the field count, or a table's length differs from its
    ///   field's size.
    /// * [`Error::ValueOutOfRange`] when a small field's table escapes
    ///   `Z_M`, repeats a value, or a large field's table is not
    ///   M-regular.
    pub fn new(sys: SystemConfig, tables: Vec<Vec<u64>>) -> Result<Self> {
        if tables.len() != sys.num_fields() {
            return Err(Error::TransformArityMismatch {
                expected: sys.num_fields(),
                got: tables.len(),
            });
        }
        let m = sys.devices();
        for (field, table) in tables.iter().enumerate() {
            let f = sys.field_size(field);
            if table.len() as u64 != f {
                return Err(Error::TransformArityMismatch {
                    expected: f as usize,
                    got: table.len(),
                });
            }
            if f < m {
                // Injective into Z_M.
                let mut seen = vec![false; m as usize];
                for &v in table {
                    if v >= m || seen[v as usize] {
                        return Err(Error::ValueOutOfRange {
                            field,
                            value: v,
                            field_size: m,
                        });
                    }
                    seen[v as usize] = true;
                }
            } else {
                // M-regular: every residue class hit exactly F/M times.
                let mut counts = vec![0u64; m as usize];
                for &v in table {
                    counts[t_m(v, m) as usize] += 1;
                }
                let expected = f / m;
                if counts.iter().any(|&c| c != expected) {
                    return Err(Error::ValueOutOfRange {
                        field,
                        value: counts.len() as u64,
                        field_size: m,
                    });
                }
            }
        }
        let kernel = TableKernel::new(
            &sys,
            tables.into_iter().map(Vec::into_boxed_slice).collect(),
        );
        Ok(GeneralFxDistribution { sys, kernel })
    }

    /// Embeds a classic FX assignment (its transform images become the
    /// tables).
    pub fn from_assignment(assignment: &Assignment) -> Self {
        let sys = assignment.system().clone();
        let tables = assignment
            .transforms()
            .iter()
            .map(|t| t.image().into_boxed_slice())
            .collect();
        let kernel = TableKernel::new(&sys, tables);
        GeneralFxDistribution { sys, kernel }
    }

    /// The per-field tables.
    pub fn tables(&self) -> &[Box<[u64]>] {
        self.kernel.tables()
    }

    /// Returns a copy with field `field`'s table replaced (revalidated).
    pub fn with_table(&self, field: usize, table: Vec<u64>) -> Result<Self> {
        let mut tables: Vec<Vec<u64>> = self.tables().iter().map(|t| t.to_vec()).collect();
        if field >= tables.len() {
            return Err(Error::FieldOutOfRange {
                field,
                num_fields: tables.len(),
            });
        }
        tables[field] = table;
        GeneralFxDistribution::new(self.sys.clone(), tables)
    }
}

impl DistributionMethod for GeneralFxDistribution {
    #[inline]
    fn device_of(&self, bucket: &[u64]) -> u64 {
        debug_assert_eq!(bucket.len(), self.sys.num_fields());
        t_m(self.kernel.xor_all(bucket), self.sys.devices())
    }

    #[inline]
    fn device_of_packed(&self, code: u64) -> u64 {
        t_m(self.kernel.xor_packed(code), self.sys.devices())
    }

    fn device_of_batch(&self, codes: &[u64], out: &mut [u64]) {
        assert_eq!(codes.len(), out.len(), "device_of_batch buffers must match");
        pmr_rt::obs::ADDR_BATCH_CALLS.add(1);
        self.kernel.device_of_batch(codes, out, self.sys.devices());
    }

    fn system(&self) -> &SystemConfig {
        &self.sys
    }

    fn name(&self) -> String {
        "GeneralFX".to_owned()
    }

    /// Still XOR-structured: Lemma 1.1 applies unchanged.
    fn histogram_shift_invariant(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::AssignmentStrategy;
    use crate::fx::FxDistribution;
    use crate::optimality::{is_k_optimal, pattern_strict_optimal, response_histogram};
    use crate::query::{PartialMatchQuery, Pattern};

    #[test]
    fn validation_rejects_bad_tables() {
        let sys = SystemConfig::new(&[2, 8], 4).unwrap();
        // Wrong table count.
        assert!(GeneralFxDistribution::new(sys.clone(), vec![vec![0, 1]]).is_err());
        // Wrong table length.
        assert!(GeneralFxDistribution::new(sys.clone(), vec![vec![0], (0..8).collect()]).is_err());
        // Small field escaping Z_M.
        assert!(
            GeneralFxDistribution::new(sys.clone(), vec![vec![0, 4], (0..8).collect()]).is_err()
        );
        // Small field repeating a value.
        assert!(
            GeneralFxDistribution::new(sys.clone(), vec![vec![2, 2], (0..8).collect()]).is_err()
        );
        // Large field not M-regular (residue 0 hit 3 times).
        assert!(GeneralFxDistribution::new(
            sys.clone(),
            vec![vec![0, 1], vec![0, 4, 8, 1, 2, 3, 5, 6]],
        )
        .is_err());
        // Valid: M-regular non-identity large-field table.
        assert!(
            GeneralFxDistribution::new(sys, vec![vec![0, 1], vec![4, 5, 6, 7, 0, 1, 2, 3]],)
                .is_ok()
        );
    }

    /// Embedding classic FX gives the identical distribution.
    #[test]
    fn embedding_matches_classic_fx() {
        for strategy in [
            AssignmentStrategy::Basic,
            AssignmentStrategy::CycleIu1,
            AssignmentStrategy::CycleIu2,
            AssignmentStrategy::TheoremNine,
        ] {
            let sys = SystemConfig::new(&[4, 2, 8], 16).unwrap();
            let fx = FxDistribution::with_strategy(sys.clone(), strategy).unwrap();
            let g = GeneralFxDistribution::from_assignment(fx.assignment());
            let mut buf = Vec::new();
            for idx in sys.all_indices() {
                sys.decode_index(idx, &mut buf);
                assert_eq!(
                    fx.device_of(&buf),
                    g.device_of(&buf),
                    "{strategy:?} {buf:?}"
                );
            }
        }
    }

    /// Theorems 1 and 2 carry over to any valid table set: 0/1-optimality
    /// always; ≥2-unspecified patterns with a large unspecified field.
    #[test]
    fn theorems_1_2_hold_for_general_tables() {
        let sys = SystemConfig::new(&[2, 8, 4], 4).unwrap();
        // Hand-rolled tables: a scramble for each field, all valid.
        let g = GeneralFxDistribution::new(
            sys.clone(),
            vec![
                vec![3, 1],
                vec![7, 2, 4, 1, 0, 6, 3, 5], // permutation of Z_8: M-regular for M=4
                vec![2, 0, 3, 1],
            ],
        )
        .unwrap();
        assert!(is_k_optimal(&g, &sys, 0));
        assert!(is_k_optimal(&g, &sys, 1));
        for pattern in Pattern::all(3) {
            let unspec = pattern.unspecified_fields(3);
            if unspec.len() >= 2 && unspec.iter().any(|&i| sys.field_covers_devices(i)) {
                assert!(pattern_strict_optimal(&g, &sys, pattern), "{pattern:?}");
            }
        }
    }

    /// Shift invariance holds for general tables (Lemma 1.1).
    #[test]
    fn shift_invariance_holds() {
        let sys = SystemConfig::new(&[4, 4], 8).unwrap();
        let g = GeneralFxDistribution::new(sys.clone(), vec![vec![5, 2, 7, 0], vec![1, 4, 6, 3]])
            .unwrap();
        assert!(g.histogram_shift_invariant());
        for pattern in Pattern::all(2) {
            let mut reference = response_histogram(
                &g,
                &sys,
                &PartialMatchQuery::zero_representative(&sys, pattern),
            );
            reference.sort_unstable();
            let ok = crate::optimality::for_each_query(&sys, pattern, |q| {
                let mut h = response_histogram(&g, &sys, q);
                h.sort_unstable();
                h == reference
            });
            assert!(ok, "{pattern:?}");
        }
    }

    /// The eight-lane batched path is bit-equal to the scalar packed path
    /// at every batch length (full lanes plus the scalar tail).
    #[test]
    fn device_of_batch_matches_scalar() {
        let sys = SystemConfig::new(&[4, 4], 8).unwrap();
        let g = GeneralFxDistribution::new(sys.clone(), vec![vec![5, 2, 7, 0], vec![1, 4, 6, 3]])
            .unwrap();
        let codes: Vec<u64> = sys.all_indices().collect();
        for len in [0, 3, 8, 11, codes.len()] {
            let mut out = vec![u64::MAX; len];
            g.device_of_batch(&codes[..len], &mut out);
            for (&code, &dev) in codes[..len].iter().zip(&out) {
                assert_eq!(dev, g.device_of_packed(code), "len {len} code {code}");
            }
        }
    }

    #[test]
    fn with_table_replaces_and_revalidates() {
        let sys = SystemConfig::new(&[2, 8], 4).unwrap();
        let g = GeneralFxDistribution::new(sys, vec![vec![0, 1], (0..8).collect()]).unwrap();
        let g2 = g.with_table(0, vec![0, 2]).unwrap();
        assert_eq!(&*g2.tables()[0], &[0, 2]);
        assert!(g.with_table(0, vec![0, 9]).is_err());
        assert!(g.with_table(5, vec![0, 1]).is_err());
    }
}
