//! Binary cartesian-product-file allocation heuristics.
//!
//! The paper's related work: "Since modulo distribution does not work
//! well for binary cartesian product file (… each attribute contains only
//! two elements), other heuristics have been proposed by [Du82, Sung85].
//! These heuristics are also special cases of GDM." A binary CPF is the
//! `F_i = 2` extreme — with many fields and large `M` it is exactly the
//! all-small regime where this paper positions FX.
//!
//! Two classical allocators are provided for comparison:
//!
//! * [`BinaryWeightedDistribution`] — the GDM special case with
//!   power-of-two weights `c_i = 2^{i mod log2 M}`: device
//!   `(Σ b_i · 2^{i mod log2 M}) mod M`. Every window of `log2 M`
//!   consecutive fields addresses all of `Z_M`.
//! * [`GrayCodeDistribution`] — rank the bucket's bit-vector along the
//!   binary-reflected Gray-code path (adjacent buckets differ in one
//!   attribute) and deal path positions round-robin; the Gray path is the
//!   canonical "short spanning path" for binary CPFs, connecting \[Du82\]
//!   to the spanning-path school.
//!
//! Both are restricted to all-binary systems (`F_i = 2` for every `i`)
//! and serve as comparators in the ablation harness; tests show FX
//! certifying at least as many patterns.

use pmr_core::method::DistributionMethod;
use pmr_core::system::SystemConfig;
use pmr_core::{Error, Result};

/// Validates that every field of the system is binary.
fn require_binary(sys: &SystemConfig) -> Result<()> {
    match (0..sys.num_fields()).find(|&i| sys.field_size(i) != 2) {
        None => Ok(()),
        Some(field) => Err(Error::FieldSizeMismatch {
            field,
            transform_size: 2,
            field_size: sys.field_size(field),
        }),
    }
}

/// GDM with power-of-two weights cycling through the bit positions of
/// `Z_M` — the \[Du82\]-style binary-CPF allocator.
#[derive(Debug, Clone)]
pub struct BinaryWeightedDistribution {
    sys: SystemConfig,
    weights: Vec<u64>,
}

impl BinaryWeightedDistribution {
    /// Builds the allocator for an all-binary system.
    pub fn new(sys: SystemConfig) -> Result<Self> {
        require_binary(&sys)?;
        let bits = sys.device_bits().max(1);
        let weights = (0..sys.num_fields())
            .map(|i| 1u64 << (i as u32 % bits))
            .collect();
        Ok(BinaryWeightedDistribution { sys, weights })
    }

    /// The per-field weights.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }
}

impl DistributionMethod for BinaryWeightedDistribution {
    #[inline]
    fn device_of(&self, bucket: &[u64]) -> u64 {
        let sum = bucket
            .iter()
            .zip(&self.weights)
            .fold(0u64, |acc, (&b, &w)| acc.wrapping_add(b.wrapping_mul(w)));
        sum & (self.sys.devices() - 1)
    }

    /// All fields are binary, so field `i` is bit `i` of the packed code:
    /// the weighted sum reads each bit directly.
    #[inline]
    fn device_of_packed(&self, code: u64) -> u64 {
        let sum = self.weights.iter().enumerate().fold(0u64, |acc, (i, &w)| {
            acc.wrapping_add(((code >> i) & 1).wrapping_mul(w))
        });
        sum & (self.sys.devices() - 1)
    }

    /// Sixteen-lane batched weighted bit-sum: per weight, each lane does
    /// shift → mask → multiply → add, branch-free (see DESIGN "Batched
    /// address computation").
    fn device_of_batch(&self, codes: &[u64], out: &mut [u64]) {
        assert_eq!(codes.len(), out.len(), "device_of_batch buffers must match");
        pmr_rt::obs::ADDR_BATCH_CALLS.add(1);
        const LANES: usize = 16;
        let m1 = self.sys.devices() - 1;
        let mut code_chunks = codes.chunks_exact(LANES);
        let mut out_chunks = out.chunks_exact_mut(LANES);
        for (chunk, slot) in (&mut code_chunks).zip(&mut out_chunks) {
            let mut acc = [0u64; LANES];
            for (i, &w) in self.weights.iter().enumerate() {
                for lane in 0..LANES {
                    acc[lane] = acc[lane].wrapping_add(((chunk[lane] >> i) & 1).wrapping_mul(w));
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
        "BinaryWeighted".to_owned()
    }

    /// A GDM instance: specified values add a constant modulo M.
    fn histogram_shift_invariant(&self) -> bool {
        true
    }
}

/// Gray-code dealing for binary CPFs: bucket → its rank on the
/// binary-reflected Gray path → device `rank mod M`.
#[derive(Debug, Clone)]
pub struct GrayCodeDistribution {
    sys: SystemConfig,
}

impl GrayCodeDistribution {
    /// Builds the allocator for an all-binary system.
    pub fn new(sys: SystemConfig) -> Result<Self> {
        require_binary(&sys)?;
        Ok(GrayCodeDistribution { sys })
    }

    /// The Gray-path rank of a bucket: the bucket's bits form a Gray
    /// codeword `g`; its rank is the Gray decode `b` with
    /// `b = g ⊕ (g >> 1) ⊕ (g >> 2) ⊕ …`.
    #[inline]
    pub fn gray_rank(&self, bucket: &[u64]) -> u64 {
        // Bits assembled with field 0 as the least-significant bit (the
        // linear index, since all fields are binary).
        let g = self.sys.linear_index(bucket);
        let mut b = g;
        let mut shift = 1;
        while shift < 64 {
            b ^= b >> shift;
            shift <<= 1;
        }
        b
    }
}

impl DistributionMethod for GrayCodeDistribution {
    #[inline]
    fn device_of(&self, bucket: &[u64]) -> u64 {
        self.gray_rank(bucket) & (self.sys.devices() - 1)
    }

    /// The packed code is the Gray codeword itself (all-binary fields, bit
    /// `i` = field `i`): decode it without touching the tuple.
    #[inline]
    fn device_of_packed(&self, code: u64) -> u64 {
        let mut b = code;
        let mut shift = 1;
        while shift < 64 {
            b ^= b >> shift;
            shift <<= 1;
        }
        b & (self.sys.devices() - 1)
    }

    /// Sixteen-lane batched Gray decode: the XOR-shift cascade runs on
    /// all lanes in lock step — pure ALU work, no loads at all (see
    /// DESIGN "Batched address computation").
    fn device_of_batch(&self, codes: &[u64], out: &mut [u64]) {
        assert_eq!(codes.len(), out.len(), "device_of_batch buffers must match");
        pmr_rt::obs::ADDR_BATCH_CALLS.add(1);
        const LANES: usize = 16;
        let m1 = self.sys.devices() - 1;
        let mut code_chunks = codes.chunks_exact(LANES);
        let mut out_chunks = out.chunks_exact_mut(LANES);
        for (chunk, slot) in (&mut code_chunks).zip(&mut out_chunks) {
            let mut acc = [0u64; LANES];
            acc.copy_from_slice(chunk);
            let mut shift = 1;
            while shift < 64 {
                for a in &mut acc {
                    *a ^= *a >> shift;
                }
                shift <<= 1;
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
        "GrayCode".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_core::optimality::{is_k_optimal, pattern_strict_optimal, response_histogram};
    use pmr_core::query::{PartialMatchQuery, Pattern};
    use pmr_core::{AssignmentStrategy, FxDistribution};

    fn binary_sys(n: usize, m: u64) -> SystemConfig {
        SystemConfig::new(&vec![2; n], m).unwrap()
    }

    #[test]
    fn non_binary_systems_rejected() {
        let sys = SystemConfig::new(&[2, 4], 4).unwrap();
        assert!(BinaryWeightedDistribution::new(sys.clone()).is_err());
        assert!(GrayCodeDistribution::new(sys).is_err());
    }

    #[test]
    fn binary_weighted_weights_cycle() {
        let sys = binary_sys(6, 8);
        let bw = BinaryWeightedDistribution::new(sys).unwrap();
        assert_eq!(bw.weights(), &[1, 2, 4, 1, 2, 4]);
    }

    /// The Gray path property: adjacent ranks differ in exactly one
    /// attribute, and the rank map is a bijection.
    #[test]
    fn gray_rank_is_a_hamiltonian_path() {
        let sys = binary_sys(5, 4);
        let gc = GrayCodeDistribution::new(sys.clone()).unwrap();
        let mut by_rank = vec![None; 32];
        let mut buf = Vec::new();
        for idx in sys.all_indices() {
            sys.decode_index(idx, &mut buf);
            let rank = gc.gray_rank(&buf) as usize;
            assert!(by_rank[rank].is_none(), "rank collision at {rank}");
            by_rank[rank] = Some(buf.clone());
        }
        for w in by_rank.windows(2) {
            let (a, b) = (w[0].as_ref().unwrap(), w[1].as_ref().unwrap());
            let diff = a.iter().zip(b).filter(|(x, y)| x != y).count();
            assert_eq!(diff, 1, "{a:?} -> {b:?}");
        }
    }

    /// Both heuristics balance the full scan perfectly.
    #[test]
    fn full_scan_balanced() {
        let sys = binary_sys(6, 8);
        let q = PartialMatchQuery::new(&sys, &[None; 6]).unwrap();
        for method in [
            &BinaryWeightedDistribution::new(sys.clone()).unwrap() as &dyn DistributionMethod,
            &GrayCodeDistribution::new(sys.clone()).unwrap(),
        ] {
            let hist = response_histogram(method, &sys, &q);
            assert!(hist.iter().all(|&c| c == 8), "{}: {hist:?}", method.name());
        }
    }

    /// Binary-weighted is 1-optimal (each weight is a unit in some bit).
    #[test]
    fn binary_weighted_one_optimal() {
        for (n, m) in [(4usize, 4u64), (6, 8), (5, 16)] {
            let sys = binary_sys(n, m);
            let bw = BinaryWeightedDistribution::new(sys.clone()).unwrap();
            assert!(is_k_optimal(&bw, &sys, 0));
            assert!(is_k_optimal(&bw, &sys, 1), "n={n} m={m}");
        }
    }

    /// Both sixteen-lane batched paths are bit-equal to the scalar packed
    /// paths at every batch length (full lanes plus the scalar tail).
    #[test]
    fn device_of_batch_matches_scalar() {
        let sys = binary_sys(6, 8);
        let bw = BinaryWeightedDistribution::new(sys.clone()).unwrap();
        let gc = GrayCodeDistribution::new(sys.clone()).unwrap();
        let codes: Vec<u64> = sys.all_indices().collect();
        for method in [&bw as &dyn DistributionMethod, &gc] {
            for len in [0, 9, 16, 21, codes.len()] {
                let mut out = vec![u64::MAX; len];
                method.device_of_batch(&codes[..len], &mut out);
                for (&code, &dev) in codes[..len].iter().zip(&out) {
                    assert_eq!(
                        dev,
                        method.device_of_packed(code),
                        "{} len {len} code {code}",
                        method.name()
                    );
                }
            }
        }
    }

    /// FX (cycle-IU2) measures strict optimal on at least as many patterns
    /// as either binary-CPF heuristic, on the all-binary all-small regime.
    #[test]
    fn fx_dominates_binary_heuristics() {
        let sys = binary_sys(6, 8);
        let fx = FxDistribution::with_strategy(sys.clone(), AssignmentStrategy::CycleIu2).unwrap();
        let bw = BinaryWeightedDistribution::new(sys.clone()).unwrap();
        let gc = GrayCodeDistribution::new(sys.clone()).unwrap();
        let count = |method: &dyn DistributionMethod| {
            Pattern::all(6)
                .filter(|&p| pattern_strict_optimal(method, &sys, p))
                .count()
        };
        let fx_count = count(&fx);
        assert!(
            fx_count >= count(&bw),
            "FX {} vs BW {}",
            fx_count,
            count(&bw)
        );
        assert!(
            fx_count >= count(&gc),
            "FX {} vs GC {}",
            fx_count,
            count(&gc)
        );
    }
}
