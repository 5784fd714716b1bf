//! Generalized Disk Modulo (GDM) allocation \[DuSo82\].
//!
//! Bucket `<J_1, …, J_n>` goes to device `(c_1·J_1 + … + c_n·J_n) mod M`
//! for a vector of multipliers `c`. Disk Modulo is the special case
//! `c = (1, …, 1)`. Well-chosen multipliers recover optimality for many
//! systems DM mishandles, but — as the paper emphasises — "the problem of
//! finding the optimal parameter values could be very complex … these
//! parameters should be found by trial and error".
//!
//! We provide the paper's three evaluated parameter sets
//! ([`GdmDistribution::paper_set`]) and automate the trial-and-error with
//! [`search`], which scores candidate multiplier vectors by measured
//! largest response size over all specification patterns.

use pmr_core::method::DistributionMethod;
use pmr_core::optimality::pattern_largest_response;
use pmr_core::query::Pattern;
use pmr_core::system::SystemConfig;
use pmr_rt::Rng;

/// The three GDM multiplier sets evaluated in the paper's Tables 7–9
/// (defined for the 6-field systems used there).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperGdmSet {
    /// GDM1: multipliers 2, 3, 5, 7, 11, 13.
    Gdm1,
    /// GDM2: multipliers 2, 5, 11, 43, 51, 57.
    Gdm2,
    /// GDM3: multipliers 41, 43, 47, 51, 53, 57.
    Gdm3,
}

impl PaperGdmSet {
    /// The multiplier vector (length 6).
    pub fn multipliers(self) -> &'static [u64; 6] {
        match self {
            PaperGdmSet::Gdm1 => &[2, 3, 5, 7, 11, 13],
            PaperGdmSet::Gdm2 => &[2, 5, 11, 43, 51, 57],
            PaperGdmSet::Gdm3 => &[41, 43, 47, 51, 53, 57],
        }
    }

    /// Display label as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            PaperGdmSet::Gdm1 => "GDM1",
            PaperGdmSet::Gdm2 => "GDM2",
            PaperGdmSet::Gdm3 => "GDM3",
        }
    }
}

/// The Generalized Disk Modulo distribution method.
///
/// # Examples
///
/// ```
/// use pmr_baselines::GdmDistribution;
/// use pmr_core::{SystemConfig, method::DistributionMethod};
///
/// let sys = SystemConfig::new(&[4, 4], 16).unwrap();
/// // The multipliers the paper suggests for Table 2's system: 3 and 4.
/// let gdm = GdmDistribution::new(sys, vec![3, 4]).unwrap();
/// assert_eq!(gdm.device_of(&[1, 1]), 7);
/// ```
#[derive(Debug, Clone)]
pub struct GdmDistribution {
    sys: SystemConfig,
    multipliers: Vec<u64>,
}

impl GdmDistribution {
    /// Builds a GDM method with explicit multipliers (one per field).
    ///
    /// # Errors
    ///
    /// Returns [`pmr_core::Error::TransformArityMismatch`] when the
    /// multiplier count differs from the field count.
    pub fn new(sys: SystemConfig, multipliers: Vec<u64>) -> pmr_core::Result<Self> {
        if multipliers.len() != sys.num_fields() {
            return Err(pmr_core::Error::TransformArityMismatch {
                expected: sys.num_fields(),
                got: multipliers.len(),
            });
        }
        Ok(GdmDistribution { sys, multipliers })
    }

    /// Builds one of the paper's three evaluated parameter sets, truncating
    /// or cycling the six published multipliers to the system's field count.
    pub fn paper_set(sys: SystemConfig, set: PaperGdmSet) -> Self {
        let base = set.multipliers();
        let multipliers = (0..sys.num_fields()).map(|i| base[i % 6]).collect();
        GdmDistribution { sys, multipliers }
    }

    /// The multiplier vector.
    pub fn multipliers(&self) -> &[u64] {
        &self.multipliers
    }
}

impl DistributionMethod for GdmDistribution {
    #[inline]
    fn device_of(&self, bucket: &[u64]) -> u64 {
        debug_assert_eq!(bucket.len(), self.sys.num_fields());
        let sum = bucket
            .iter()
            .zip(&self.multipliers)
            .fold(0u64, |acc, (&v, &c)| acc.wrapping_add(v.wrapping_mul(c)));
        sum & (self.sys.devices() - 1)
    }

    /// Weighted sum of the fields extracted straight from the packed code.
    #[inline]
    fn device_of_packed(&self, code: u64) -> u64 {
        let layout = self.sys.packed_layout();
        let mut sum = 0u64;
        for (i, &c) in self.multipliers.iter().enumerate() {
            sum = sum.wrapping_add(layout.field(code, i).wrapping_mul(c));
        }
        sum & (self.sys.devices() - 1)
    }

    /// Sixteen-lane batched weighted sum: shift/mask/multiply/add per
    /// field with the multiplier hoisted, branch-free (see DESIGN
    /// "Batched address computation").
    fn device_of_batch(&self, codes: &[u64], out: &mut [u64]) {
        assert_eq!(codes.len(), out.len(), "device_of_batch buffers must match");
        pmr_rt::obs::ADDR_BATCH_CALLS.add(1);
        const LANES: usize = 16;
        let layout = self.sys.packed_layout();
        let m1 = self.sys.devices() - 1;
        let mut code_chunks = codes.chunks_exact(LANES);
        let mut out_chunks = out.chunks_exact_mut(LANES);
        for (chunk, slot) in (&mut code_chunks).zip(&mut out_chunks) {
            let mut acc = [0u64; LANES];
            for (i, &c) in self.multipliers.iter().enumerate() {
                let shift = layout.shift(i);
                let mask = layout.mask(i);
                for lane in 0..LANES {
                    acc[lane] =
                        acc[lane].wrapping_add(((chunk[lane] >> shift) & mask).wrapping_mul(c));
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
        let ms: Vec<String> = self.multipliers.iter().map(|m| m.to_string()).collect();
        format!("GDM({})", ms.join(","))
    }

    /// Changing a specified value adds `c_i · Δ` modulo `M` to every
    /// address — a rotation.
    fn histogram_shift_invariant(&self) -> bool {
        true
    }
}

/// Outcome of a [`search`] run.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best multiplier vector found.
    pub multipliers: Vec<u64>,
    /// Its score: the sum over all patterns of the largest response size
    /// (lower is better; the analytic optimum is the same sum of
    /// `ceil(|R|/M)`).
    pub score: u64,
    /// The analytic lower bound for the same sum.
    pub lower_bound: u64,
    /// Number of candidate vectors evaluated.
    pub evaluated: usize,
}

/// Automated "trial and error": randomized search over multipliers of the
/// form `odd · 2^s` in `[1, max_multiplier]`, scored by the summed largest
/// response size across every specification pattern (using the GDM rotation
/// invariance, so each candidate costs one histogram per pattern).
///
/// The `odd · 2^s` shape covers both the paper's prime/odd sets and the
/// power-of-two "spreading" multipliers optimal configurations sometimes
/// need (the paper's own fix for Table 2's system multiplies the second
/// field by 4).
pub fn search(
    sys: &SystemConfig,
    candidates: usize,
    max_multiplier: u64,
    seed: u64,
) -> SearchResult {
    let mut rng = Rng::seed_from_u64(seed);
    let n = sys.num_fields();
    let patterns: Vec<Pattern> = Pattern::all(n).collect();
    let lower_bound: u64 = patterns
        .iter()
        .map(|p| pmr_core::bits::ceil_div(p.qualified_count(sys), sys.devices()))
        .sum();

    let max_shift = sys.device_bits();
    let mut best: Option<(Vec<u64>, u64)> = None;
    let mut evaluated = 0usize;
    // Seed the search with DM itself so the result is never worse than DM.
    let mut candidates_iter: Vec<Vec<u64>> = vec![vec![1; n]];
    while candidates_iter.len() < candidates {
        let c: Vec<u64> = (0..n)
            .map(|_| loop {
                let odd = rng.gen_range(0..max_multiplier.div_ceil(2)) * 2 + 1;
                let v = odd << rng.gen_range(0..=max_shift);
                if v <= max_multiplier.max(1) {
                    break v;
                }
            })
            .collect();
        candidates_iter.push(c);
    }
    for c in candidates_iter {
        let gdm = GdmDistribution::new(sys.clone(), c.clone()).expect("arity matches");
        let score: u64 = patterns
            .iter()
            .map(|&p| pattern_largest_response(&gdm, sys, p))
            .sum();
        evaluated += 1;
        let better = match &best {
            None => true,
            Some((_, s)) => score < *s,
        };
        if better {
            let at_bound = score == lower_bound;
            best = Some((c, score));
            if at_bound {
                break; // cannot do better than the analytic bound
            }
        }
    }
    let (multipliers, score) = best.expect("at least one candidate evaluated");
    SearchResult {
        multipliers,
        score,
        lower_bound,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_core::optimality::{is_k_optimal, is_perfect_optimal};

    #[test]
    fn dm_is_gdm_with_unit_multipliers() {
        let sys = SystemConfig::new(&[4, 4, 8], 8).unwrap();
        let gdm = GdmDistribution::new(sys.clone(), vec![1, 1, 1]).unwrap();
        let dm = crate::ModuloDistribution::new(sys.clone());
        let mut buf = Vec::new();
        for idx in sys.all_indices() {
            sys.decode_index(idx, &mut buf);
            assert_eq!(gdm.device_of(&buf), dm.device_of(&buf));
        }
    }

    /// The paper's Table 2 remark: multiplying field 1 by 3 and field 2 by
    /// 4 makes GDM optimal on F = (4, 4), M = 16.
    #[test]
    fn table_2_gdm_parameters() {
        let sys = SystemConfig::new(&[4, 4], 16).unwrap();
        let gdm = GdmDistribution::new(sys.clone(), vec![3, 4]).unwrap();
        assert!(is_perfect_optimal(&gdm, &sys));
    }

    #[test]
    fn arity_checked() {
        let sys = SystemConfig::new(&[4, 4], 16).unwrap();
        assert!(GdmDistribution::new(sys, vec![1]).is_err());
    }

    #[test]
    fn paper_sets_have_published_multipliers() {
        let sys = SystemConfig::new(&[8; 6], 32).unwrap();
        let g1 = GdmDistribution::paper_set(sys.clone(), PaperGdmSet::Gdm1);
        assert_eq!(g1.multipliers(), &[2, 3, 5, 7, 11, 13]);
        let g2 = GdmDistribution::paper_set(sys.clone(), PaperGdmSet::Gdm2);
        assert_eq!(g2.multipliers(), &[2, 5, 11, 43, 51, 57]);
        let g3 = GdmDistribution::paper_set(sys, PaperGdmSet::Gdm3);
        assert_eq!(g3.multipliers(), &[41, 43, 47, 51, 53, 57]);
        assert_eq!(PaperGdmSet::Gdm1.label(), "GDM1");
    }

    #[test]
    fn paper_sets_cycle_for_other_arities() {
        let sys = SystemConfig::new(&[4; 8], 16).unwrap();
        let g1 = GdmDistribution::paper_set(sys, PaperGdmSet::Gdm1);
        assert_eq!(g1.multipliers(), &[2, 3, 5, 7, 11, 13, 2, 3]);
    }

    /// GDM (any multipliers) remains 0-optimal; 1-optimality needs odd
    /// multipliers on power-of-two M.
    #[test]
    fn gdm_zero_optimal_and_odd_one_optimal() {
        let sys = SystemConfig::new(&[4, 8], 8).unwrap();
        let odd = GdmDistribution::new(sys.clone(), vec![3, 5]).unwrap();
        assert!(is_k_optimal(&odd, &sys, 0));
        assert!(is_k_optimal(&odd, &sys, 1));
        // An even multiplier collapses a field onto a subgroup: GDM(2, 2)
        // cannot be 1-optimal here (field 1 of size 8 maps onto 8 even
        // residues of Z_8 → only 4 distinct devices… actually 2·{0..7} mod 8
        // = {0,2,4,6}).
        let even = GdmDistribution::new(sys.clone(), vec![2, 2]).unwrap();
        assert!(!is_k_optimal(&even, &sys, 1));
    }

    #[test]
    fn search_finds_optimal_for_table_2_system() {
        let sys = SystemConfig::new(&[4, 4], 16).unwrap();
        let result = search(&sys, 512, 64, 42);
        assert_eq!(
            result.score, result.lower_bound,
            "search should reach the analytic bound on this small system \
             (found {:?})",
            result.multipliers
        );
        let gdm = GdmDistribution::new(sys.clone(), result.multipliers).unwrap();
        assert!(is_perfect_optimal(&gdm, &sys));
    }

    #[test]
    fn search_never_worse_than_dm() {
        let sys = SystemConfig::new(&[4, 4, 4], 32).unwrap();
        let result = search(&sys, 16, 64, 7);
        let dm = GdmDistribution::new(sys.clone(), vec![1, 1, 1]).unwrap();
        let dm_score: u64 = Pattern::all(3)
            .map(|p| pattern_largest_response(&dm, &sys, p))
            .sum();
        assert!(result.score <= dm_score);
        assert!(result.evaluated >= 1);
    }

    /// The sixteen-lane batched path is bit-equal to the scalar packed
    /// path at every batch length (full lanes plus the scalar tail).
    #[test]
    fn device_of_batch_matches_scalar() {
        let sys = SystemConfig::new(&[8; 6], 32).unwrap();
        let gdm = GdmDistribution::paper_set(sys.clone(), PaperGdmSet::Gdm1);
        let codes: Vec<u64> = (0..100).map(|i| i * 131 % sys.total_buckets()).collect();
        for len in [0, 7, 16, 33, codes.len()] {
            let mut out = vec![u64::MAX; len];
            gdm.device_of_batch(&codes[..len], &mut out);
            for (&code, &dev) in codes[..len].iter().zip(&out) {
                assert_eq!(dev, gdm.device_of_packed(code), "len {len} code {code}");
            }
        }
    }

    #[test]
    fn name_includes_multipliers() {
        let sys = SystemConfig::new(&[4, 4], 16).unwrap();
        let gdm = GdmDistribution::new(sys, vec![3, 4]).unwrap();
        assert_eq!(gdm.name(), "GDM(3,4)");
    }
}
