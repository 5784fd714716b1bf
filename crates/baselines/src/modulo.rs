//! Disk Modulo (DM) allocation \[DuSo82\].
//!
//! Bucket `<J_1, …, J_n>` goes to device `(J_1 + … + J_n) mod M`. Simple
//! and effective when field sizes are at least `M`, but — the paper's
//! motivating observation — "it may not give optimal distribution if some
//! of the field sizes are less than the given number of devices", which is
//! precisely the regime of large parallel machines.

use pmr_core::method::DistributionMethod;
use pmr_core::system::SystemConfig;

/// The Disk Modulo distribution method.
///
/// # Examples
///
/// Reproducing the Modulo column of the paper's Table 2
/// (`F = (4, 4)`, `M = 16`):
///
/// ```
/// use pmr_baselines::ModuloDistribution;
/// use pmr_core::{SystemConfig, method::DistributionMethod};
///
/// let sys = SystemConfig::new(&[4, 4], 16).unwrap();
/// let dm = ModuloDistribution::new(sys);
/// assert_eq!(dm.device_of(&[0, 0]), 0);
/// assert_eq!(dm.device_of(&[3, 3]), 6); // the skew the paper points at
/// ```
#[derive(Debug, Clone)]
pub struct ModuloDistribution {
    sys: SystemConfig,
}

impl ModuloDistribution {
    /// Builds a DM method for the system.
    pub fn new(sys: SystemConfig) -> Self {
        ModuloDistribution { sys }
    }
}

impl DistributionMethod for ModuloDistribution {
    #[inline]
    fn device_of(&self, bucket: &[u64]) -> u64 {
        debug_assert_eq!(bucket.len(), self.sys.num_fields());
        // M is a power of two, so the modulo compiles to an AND — the same
        // optimized instruction mix the paper assumes in §5.2.2.
        let sum: u64 = bucket.iter().fold(0u64, |acc, &v| acc.wrapping_add(v));
        sum & (self.sys.devices() - 1)
    }

    /// Sums field values straight out of the packed code: shift, mask, add.
    #[inline]
    fn device_of_packed(&self, code: u64) -> u64 {
        let layout = self.sys.packed_layout();
        let mut sum = 0u64;
        for i in 0..layout.num_fields() {
            sum = sum.wrapping_add(layout.field(code, i));
        }
        sum & (self.sys.devices() - 1)
    }

    /// Sixteen-lane batched sum: pure shift/mask/add ALU work with no
    /// table loads, so the wider lane count vectorizes cleanly (see
    /// DESIGN "Batched address computation").
    fn device_of_batch(&self, codes: &[u64], out: &mut [u64]) {
        assert_eq!(codes.len(), out.len(), "device_of_batch buffers must match");
        pmr_rt::obs::ADDR_BATCH_CALLS.add(1);
        const LANES: usize = 16;
        let layout = self.sys.packed_layout();
        let n = layout.num_fields();
        let m1 = self.sys.devices() - 1;
        let mut code_chunks = codes.chunks_exact(LANES);
        let mut out_chunks = out.chunks_exact_mut(LANES);
        for (chunk, slot) in (&mut code_chunks).zip(&mut out_chunks) {
            let mut acc = [0u64; LANES];
            for i in 0..n {
                let shift = layout.shift(i);
                let mask = layout.mask(i);
                for lane in 0..LANES {
                    acc[lane] = acc[lane].wrapping_add((chunk[lane] >> shift) & mask);
                }
            }
            for lane in 0..LANES {
                slot[lane] = acc[lane] & m1;
            }
        }
        for (&code, slot) in code_chunks
            .remainder()
            .iter()
            .zip(out_chunks.into_remainder())
        {
            *slot = self.device_of_packed(code);
        }
    }

    fn system(&self) -> &SystemConfig {
        &self.sys
    }

    fn name(&self) -> String {
        "Modulo".to_owned()
    }

    /// Changing a specified value adds a constant to every address modulo
    /// `M` — a rotation of the histogram.
    fn histogram_shift_invariant(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_core::optimality::{
        is_k_optimal, is_perfect_optimal, pattern_strict_optimal, response_histogram,
    };
    use pmr_core::query::{PartialMatchQuery, Pattern};

    /// Table 2's Modulo column: devices (J1 + J2) mod 16 read row-major.
    #[test]
    fn table_2_modulo_column() {
        let sys = SystemConfig::new(&[4, 4], 16).unwrap();
        let dm = ModuloDistribution::new(sys);
        let mut devices = Vec::new();
        for j1 in 0..4 {
            for j2 in 0..4 {
                devices.push(dm.device_of(&[j1, j2]));
            }
        }
        assert_eq!(
            devices,
            vec![0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6]
        );
    }

    /// DM is skewed on Table 2's system: the fully-unspecified query loads
    /// device 3 with four buckets while ten devices get none.
    #[test]
    fn table_2_modulo_is_skewed() {
        let sys = SystemConfig::new(&[4, 4], 16).unwrap();
        let dm = ModuloDistribution::new(sys.clone());
        let q = PartialMatchQuery::new(&sys, &[None, None]).unwrap();
        let hist = response_histogram(&dm, &sys, &q);
        assert_eq!(hist[3], 4);
        assert_eq!(hist.iter().filter(|&&c| c == 0).count(), 9);
        assert!(!is_perfect_optimal(&dm, &sys));
    }

    /// DM is always 0- and 1-optimal: one unspecified field contributes a
    /// consecutive integer range, which spreads evenly modulo M.
    #[test]
    fn modulo_zero_and_one_optimal() {
        for (fields, m) in [
            (vec![2u64, 8], 4u64),
            (vec![4, 4], 16),
            (vec![8, 8, 8], 32),
            (vec![2, 4, 16], 8),
        ] {
            let sys = SystemConfig::new(&fields, m).unwrap();
            let dm = ModuloDistribution::new(sys.clone());
            assert!(is_k_optimal(&dm, &sys, 0), "{sys}");
            assert!(is_k_optimal(&dm, &sys, 1), "{sys}");
        }
    }

    /// DM is strict optimal when an unspecified field size is a multiple of
    /// M (the classical DuSo82 condition).
    #[test]
    fn modulo_large_field_optimal() {
        let sys = SystemConfig::new(&[4, 32, 4], 16).unwrap();
        let dm = ModuloDistribution::new(sys.clone());
        for pattern in [
            Pattern::from_unspecified(&[0, 1]),
            Pattern::from_unspecified(&[1, 2]),
            Pattern::from_unspecified(&[0, 1, 2]),
        ] {
            assert!(pattern_strict_optimal(&dm, &sys, pattern), "{pattern:?}");
        }
    }

    /// When every field size is at least M (and hence a multiple of it),
    /// DM is perfect optimal — matching FX on that easy regime.
    #[test]
    fn modulo_perfect_when_all_fields_large() {
        let sys = SystemConfig::new(&[8, 8], 4).unwrap();
        let dm = ModuloDistribution::new(sys.clone());
        assert!(is_perfect_optimal(&dm, &sys));
    }

    /// The sixteen-lane batched path is bit-equal to the scalar packed
    /// path at every batch length (full lanes plus the scalar tail).
    #[test]
    fn device_of_batch_matches_scalar() {
        let sys = SystemConfig::new(&[4, 4, 2], 8).unwrap();
        let dm = ModuloDistribution::new(sys.clone());
        let codes: Vec<u64> = sys.all_indices().collect();
        for len in [0, 5, 16, 23, codes.len()] {
            let mut out = vec![u64::MAX; len];
            dm.device_of_batch(&codes[..len], &mut out);
            for (&code, &dev) in codes[..len].iter().zip(&out) {
                assert_eq!(dev, dm.device_of_packed(code), "len {len} code {code}");
            }
        }
    }

    /// Shift-invariance declared by DM is real: sorted histograms agree
    /// across all queries of each pattern.
    #[test]
    fn modulo_shift_invariance_holds() {
        let sys = SystemConfig::new(&[4, 4, 2], 8).unwrap();
        let dm = ModuloDistribution::new(sys.clone());
        assert!(dm.histogram_shift_invariant());
        for pattern in Pattern::all(3) {
            let mut reference = {
                let q = PartialMatchQuery::zero_representative(&sys, pattern);
                response_histogram(&dm, &sys, &q)
            };
            reference.sort_unstable();
            let ok = pmr_core::optimality::for_each_query(&sys, pattern, |q| {
                let mut h = response_histogram(&dm, &sys, q);
                h.sort_unstable();
                h == reference
            });
            assert!(ok, "{pattern:?}");
        }
    }
}
