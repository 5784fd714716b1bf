//! FX (Fieldwise eXclusive-or) distribution — the paper's contribution.
//!
//! *Basic FX* (§3) allocates bucket `<J_1, …, J_n>` to device
//! `T_M(J_1 ⊕ … ⊕ J_n)`. *Extended FX* (§4) first passes each field value
//! through its transformation function:
//! `T_M(X_1(J_1) ⊕ … ⊕ X_n(J_n))`. When every `X_i` is the identity the
//! two coincide, so [`FxDistribution`] represents both, parameterised by an
//! [`Assignment`].
//!
//! The transformation arithmetic is pure XOR/shift/AND — the paper's
//! §5.2.2 measures this at roughly a third of GDM's multiply-based cost
//! on an MC68000 (whose multiplier took ~70 cycles). This implementation
//! additionally compiles the per-field transforms into lookup tables (the
//! images are tiny — at most `F` entries each), so the hot path is one
//! load + one XOR per field; `pmr-bench`'s `addr_compute` bench reproduces
//! the comparison on the host CPU, where pipelined multipliers make the
//! kernels much closer than in 1988 (see EXPERIMENTS.md).

use crate::assign::{Assignment, AssignmentStrategy};
use crate::bits::t_m;
use crate::device_set::DeviceSet;
use crate::error::Result;
use crate::inverse::InversePlan;
use crate::method::DistributionMethod;
use crate::query::{PartialMatchQuery, Pattern};
use crate::system::SystemConfig;
use crate::transform::Transform;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The FX distribution method.
///
/// # Examples
///
/// Reproducing the paper's Table 1 (Basic FX, `F = (2, 8)`, `M = 4`):
///
/// ```
/// use pmr_core::{FxDistribution, SystemConfig};
/// use pmr_core::method::DistributionMethod;
///
/// let sys = SystemConfig::new(&[2, 8], 4).unwrap();
/// let fx = FxDistribution::basic(sys).unwrap();
/// // First rows of Table 1: <000,000>→0, <000,001>→1, … <001,000>→1, …
/// assert_eq!(fx.device_of(&[0, 0]), 0);
/// assert_eq!(fx.device_of(&[0, 5]), 1); // T_4(0 ⊕ 101_B) = 01_B
/// assert_eq!(fx.device_of(&[1, 0]), 1);
/// assert_eq!(fx.device_of(&[1, 7]), 2); // T_4(1 ⊕ 111_B) = 10_B
/// ```
#[derive(Debug, Clone)]
pub struct FxDistribution {
    assignment: Assignment,
    /// Precomputed address kernel (see [`Kernel`]).
    kernel: Kernel,
    /// Per-pattern inverse-mapping plans, built lazily and shared across
    /// clones (see [`FxDistribution::inverse_plan`]).
    plans: PlanCache,
}

/// Lazily-built per-[`Pattern`] inverse plans. Shared across clones of the
/// distribution (an `Arc`), so a plan is built once per (distribution,
/// pattern) no matter how many queries or executor runs reuse it. Lock
/// poisoning is ignored — plans are insert-only and a panicking builder
/// leaves the map in a consistent state.
#[derive(Clone, Default)]
struct PlanCache(Arc<std::sync::RwLock<HashMap<Pattern, Arc<InversePlan>>>>);

impl PlanCache {
    fn get(&self, pattern: Pattern) -> Option<Arc<InversePlan>> {
        self.0
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&pattern)
            .cloned()
    }

    fn insert(&self, pattern: Pattern, plan: Arc<InversePlan>) -> Arc<InversePlan> {
        // First writer wins so concurrent builders share one plan.
        let mut map = self.0.write().unwrap_or_else(|e| e.into_inner());
        map.entry(pattern).or_insert(plan).clone()
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let len = self.0.read().unwrap_or_else(|e| e.into_inner()).len();
        write!(f, "PlanCache({len} patterns)")
    }
}

/// Field sizes above this threshold make a materialised per-field table
/// unreasonable (64 KiB of `u64` per field at most).
const MAX_TABLE_SIZE: u64 = 1 << 16;

/// Width of the batched address-computation lanes: 8 independent XOR
/// accumulator chains per inner step, enough instruction-level
/// parallelism to hide the table-load latency without spilling the
/// accumulator array out of registers (see DESIGN "Batched address
/// computation").
const BATCH_LANES: usize = 8;

/// Cap on a flat-LUT segment's entry count (the product of its member
/// fields' sizes). 2¹¹ `u64` entries keep every segment slab (≤ 16 KiB)
/// resident in L1 while still folding several fields into one load: the
/// paper's Table 7 system (six fields of 8) collapses into two 512-entry
/// segments, so a batched lookup costs two loads per code instead of
/// six. Fields too large to merge get a segment of their own.
const SEGMENT_CAP: u64 = 1 << 11;

/// Precomputed address kernel.
///
/// Transform images of small fields are tiny (`F < M` entries), so a real
/// deployment materialises them once and the hot path becomes one load +
/// one XOR per field with no per-kind branching. Identity fields of
/// moderate size get an identity table to keep the loop uniform; systems
/// with huge fields fall back to shift computation.
#[derive(Debug, Clone)]
enum Kernel {
    /// One lookup table per field (covers every experimental system),
    /// alongside the packed layout's shift/mask pairs so the packed hot
    /// path is extract → load → XOR per field.
    Tables {
        /// Transform image per field (`tables[i][J] = X_i(J)`).
        tables: Vec<Box<[u64]>>,
        /// Bit offset of each field within a packed code.
        shifts: Box<[u32]>,
        /// In-field mask `F_i − 1` of each field.
        masks: Box<[u64]>,
        /// The flat segment LUT the batched lanes index: one contiguous
        /// allocation holding, per *segment* (a run of consecutive fields
        /// whose combined bucket-bit span stays under [`SEGMENT_CAP`]
        /// entries), the XOR of the member fields' images over every
        /// combination of their bucket bits. A segment lookup is
        /// `flat[seg_bases[s] + ((code >> seg_shifts[s]) & seg_masks[s])]`
        /// — one load per segment replaces one load per field (on the
        /// paper's Table 7 system, six per-field loads collapse to two),
        /// with no per-field `Box` indirection.
        flat: Box<[u64]>,
        /// Start of each segment's entries within `flat`.
        seg_bases: Box<[u32]>,
        /// Bit offset of each segment's first field within a packed code.
        seg_shifts: Box<[u32]>,
        /// Combined in-segment mask (`∏ F_i − 1` over member fields).
        seg_masks: Box<[u64]>,
    },
    /// Shift-computed transforms for systems with fields over
    /// [`MAX_TABLE_SIZE`].
    Computed(Vec<Transform>),
}

impl Kernel {
    fn for_assignment(assignment: &Assignment) -> Kernel {
        let sys = assignment.system();
        let _span = pmr_rt::span!("fx.kernel.build", fields = sys.num_fields() as u64);
        if (0..sys.num_fields()).all(|i| sys.field_size(i) <= MAX_TABLE_SIZE) {
            pmr_rt::obs::counter_add("fx.kernel.tables_built", sys.num_fields() as u64);
            let layout = sys.packed_layout();
            let tables: Vec<Box<[u64]>> = assignment
                .transforms()
                .iter()
                .map(|t| t.image().into_boxed_slice())
                .collect();
            // Fold runs of consecutive fields into combined segments: a
            // segment over fields i..j stores, for every combination `v`
            // of their packed bits, the XOR of the member images. Valid
            // because the packed layout is contiguous LSB-first and every
            // field size is a power of two, so fields i..j occupy exactly
            // the bit range the segment mask extracts.
            let n = sys.num_fields();
            let mut flat = Vec::new();
            let mut seg_bases = Vec::new();
            let mut seg_shifts = Vec::new();
            let mut seg_masks = Vec::new();
            let mut i = 0;
            while i < n {
                let seg_shift = layout.shift(i);
                let mut entries = sys.field_size(i);
                let mut j = i + 1;
                while j < n && entries * sys.field_size(j) <= SEGMENT_CAP {
                    debug_assert_eq!(
                        u64::from(layout.shift(j)),
                        u64::from(seg_shift) + u64::from(entries.trailing_zeros()),
                        "segment folding needs contiguous packed fields"
                    );
                    entries *= sys.field_size(j);
                    j += 1;
                }
                seg_bases.push(flat.len() as u32);
                seg_shifts.push(seg_shift);
                seg_masks.push(entries - 1);
                for v in 0..entries {
                    let mut acc = 0u64;
                    for k in i..j {
                        let rel = layout.shift(k) - seg_shift;
                        acc ^= tables[k][((v >> rel) & layout.mask(k)) as usize];
                    }
                    flat.push(acc);
                }
                i = j;
            }
            Kernel::Tables {
                tables,
                shifts: (0..n).map(|i| layout.shift(i)).collect(),
                masks: (0..n).map(|i| layout.mask(i)).collect(),
                flat: flat.into_boxed_slice(),
                seg_bases: seg_bases.into_boxed_slice(),
                seg_shifts: seg_shifts.into_boxed_slice(),
                seg_masks: seg_masks.into_boxed_slice(),
            }
        } else {
            Kernel::Computed(assignment.transforms().to_vec())
        }
    }

    #[inline]
    fn xor_all(&self, bucket: &[u64]) -> u64 {
        match self {
            Kernel::Tables { tables, .. } => {
                let mut acc = 0u64;
                for (table, &v) in tables.iter().zip(bucket) {
                    acc ^= table[v as usize];
                }
                acc
            }
            Kernel::Computed(transforms) => {
                let mut acc = 0u64;
                for (t, &v) in transforms.iter().zip(bucket) {
                    acc ^= t.apply(v);
                }
                acc
            }
        }
    }

    /// XOR of all transformed fields of a packed code — the packed
    /// counterpart of [`Kernel::xor_all`], needing no tuple at all.
    #[inline]
    fn xor_packed(&self, code: u64, sys: &SystemConfig) -> u64 {
        match self {
            Kernel::Tables {
                tables,
                shifts,
                masks,
                ..
            } => {
                let mut acc = 0u64;
                for ((table, &shift), &mask) in tables.iter().zip(shifts.iter()).zip(masks.iter()) {
                    acc ^= table[((code >> shift) & mask) as usize];
                }
                acc
            }
            Kernel::Computed(transforms) => {
                let layout = sys.packed_layout();
                let mut acc = 0u64;
                for (i, t) in transforms.iter().enumerate() {
                    acc ^= t.apply(layout.field(code, i));
                }
                acc
            }
        }
    }

    /// Applies field `i`'s transform to one value: a table index when the
    /// kernel is materialised, the closed form otherwise.
    #[inline]
    fn apply_field(&self, field: usize, value: u64) -> u64 {
        match self {
            Kernel::Tables { tables, .. } => tables[field][value as usize],
            Kernel::Computed(transforms) => transforms[field].apply(value),
        }
    }

    /// Batched device computation: `out[i] = T_M(xor_packed(codes[i]))`.
    ///
    /// The materialised kernel runs [`BATCH_LANES`] codes per step against
    /// the flat segment LUT — per segment, each lane does extract → one
    /// load off a shared base → XOR, with no branches and no per-field
    /// pointer chase, so the lanes' accumulator chains are independent and
    /// pipeline. Segment folding (see [`SEGMENT_CAP`]) makes the step
    /// count the *segment* count, not the field count. The computed kernel
    /// (huge fields) falls back to the scalar loop.
    fn device_of_batch(&self, codes: &[u64], out: &mut [u64], sys: &SystemConfig) {
        let m1 = sys.devices() - 1;
        if let Kernel::Tables {
            flat,
            seg_bases,
            seg_shifts,
            seg_masks,
            ..
        } = self
        {
            let flat = &flat[..];
            let mut code_chunks = codes.chunks_exact(BATCH_LANES);
            let mut out_chunks = out.chunks_exact_mut(BATCH_LANES);
            for (chunk, slot) in (&mut code_chunks).zip(&mut out_chunks) {
                let mut acc = [0u64; BATCH_LANES];
                for ((&base, &shift), &mask) in seg_bases
                    .iter()
                    .zip(seg_shifts.iter())
                    .zip(seg_masks.iter())
                {
                    for lane in 0..BATCH_LANES {
                        let idx = base as u64 + ((chunk[lane] >> shift) & mask);
                        acc[lane] ^= flat[idx as usize];
                    }
                }
                for lane in 0..BATCH_LANES {
                    slot[lane] = acc[lane] & m1;
                }
            }
            for (&code, slot) in code_chunks
                .remainder()
                .iter()
                .zip(out_chunks.into_remainder())
            {
                *slot = self.xor_packed(code, sys) & m1;
            }
        } else {
            for (&code, slot) in codes.iter().zip(out.iter_mut()) {
                *slot = self.xor_packed(code, sys) & m1;
            }
        }
    }
}

impl FxDistribution {
    /// Basic FX: identity transforms everywhere.
    pub fn basic(sys: SystemConfig) -> Result<Self> {
        FxDistribution::with_strategy(sys, AssignmentStrategy::Basic)
    }

    /// Extended FX with transforms planned by `strategy`.
    pub fn with_strategy(sys: SystemConfig, strategy: AssignmentStrategy) -> Result<Self> {
        let assignment = Assignment::from_strategy(&sys, strategy)?;
        Ok(FxDistribution::with_assignment(assignment))
    }

    /// Extended FX with the recommended default strategy
    /// ([`AssignmentStrategy::TheoremNine`]) — perfect optimal whenever at
    /// most three fields are smaller than `M`.
    pub fn auto(sys: SystemConfig) -> Result<Self> {
        FxDistribution::with_strategy(sys, AssignmentStrategy::TheoremNine)
    }

    /// Extended FX from an explicit assignment.
    pub fn with_assignment(assignment: Assignment) -> Self {
        let kernel = Kernel::for_assignment(&assignment);
        FxDistribution {
            assignment,
            kernel,
            plans: PlanCache::default(),
        }
    }

    /// The per-field transformation assignment.
    #[inline]
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The per-field transforms in field order.
    #[inline]
    pub fn transforms(&self) -> &[Transform] {
        self.assignment.transforms()
    }

    /// The XOR of the transformed *specified* values of a query — `h` in
    /// the paper's proofs. Unspecified fields contribute nothing.
    ///
    /// The qualified buckets of the query land on devices
    /// `T_M(h ⊕ ⨁ X_i(J_i))` with `i` ranging over the unspecified fields —
    /// the identity that powers both the optimality proofs and the fast
    /// inverse mapping.
    pub fn specified_xor(&self, values: &[Option<u64>]) -> u64 {
        debug_assert_eq!(values.len(), self.assignment.system().num_fields());
        values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|val| self.kernel.apply_field(i, val)))
            .fold(0, |acc, t| acc ^ t)
    }

    /// The devices `query`'s qualified buckets land on, in closed form:
    /// `T_M(h)` ([`FxDistribution::specified_xor`]) XOR the span of
    /// `T_M(X_i(2^b))` over every bit `b` of every unspecified field `i`.
    /// Every transform is GF(2)-linear, so that span is exactly the set of
    /// `T_M(⨁ X_i(J_i))` over all free values (see [`DeviceSet`]). Costs
    /// one transform per free bit, never a bucket enumeration; it equals
    /// the set of devices the inverse mapping routes at least one code to
    /// (property-tested in `tests/packed_equivalence.rs`).
    pub fn device_set(&self, query: &PartialMatchQuery) -> DeviceSet {
        let sys = self.assignment.system();
        let m = sys.devices();
        let mut set = DeviceSet::single(t_m(self.specified_xor(query.values()), m));
        for (i, value) in query.values().iter().enumerate() {
            if value.is_some() {
                continue;
            }
            for b in 0..sys.field_bits(i) {
                if set.dim() == sys.device_bits() {
                    return set;
                }
                set.insert(t_m(self.kernel.apply_field(i, 1 << b), m));
            }
        }
        set
    }

    /// Applies field `i`'s transformation `X_i` to one value through the
    /// precomputed kernel: a single table load for every experimental
    /// system (fields ≤ 2¹⁶), the closed form otherwise. Equals
    /// `self.assignment().transform(i).apply(value)` by construction —
    /// property-tested against the closed forms.
    #[inline]
    pub fn apply_field(&self, field: usize, value: u64) -> u64 {
        self.kernel.apply_field(field, value)
    }

    /// The inverse-mapping plan for a query pattern, built on first use
    /// and cached (shared across clones of this distribution).
    ///
    /// The plan — pivot choice and pivot residue classes — depends only on
    /// the *pattern*, not on the specified values (those enter through
    /// [`FxDistribution::specified_xor`], which merely rotates the residue
    /// lookup by Lemma 1.1). Caching it makes repeated queries of the same
    /// shape pay the `O(F_pivot)` class construction once.
    pub fn inverse_plan(&self, pattern: Pattern) -> Arc<InversePlan> {
        if let Some(plan) = self.plans.get(pattern) {
            pmr_rt::obs::counter_add("inverse.plan_cache.hit", 1);
            return plan;
        }
        pmr_rt::obs::counter_add("inverse.plan_cache.miss", 1);
        let _span = pmr_rt::span!("inverse.plan.build", pattern = pattern.0 as u64);
        let plan = Arc::new(InversePlan::build(self, pattern));
        self.plans.insert(pattern, plan)
    }
}

impl DistributionMethod for FxDistribution {
    #[inline]
    fn device_of(&self, bucket: &[u64]) -> u64 {
        let sys = self.assignment.system();
        debug_assert_eq!(bucket.len(), sys.num_fields());
        t_m(self.kernel.xor_all(bucket), sys.devices())
    }

    #[inline]
    fn device_of_packed(&self, code: u64) -> u64 {
        let sys = self.assignment.system();
        t_m(self.kernel.xor_packed(code, sys), sys.devices())
    }

    fn device_of_batch(&self, codes: &[u64], out: &mut [u64]) {
        assert_eq!(codes.len(), out.len(), "device_of_batch buffers must match");
        pmr_rt::obs::counter_add("addr.batch_calls", 1);
        self.kernel
            .device_of_batch(codes, out, self.assignment.system());
    }

    fn as_fx(&self) -> Option<&FxDistribution> {
        Some(self)
    }

    fn system(&self) -> &SystemConfig {
        self.assignment.system()
    }

    fn name(&self) -> String {
        if self.assignment.is_basic() {
            "FX(basic)".to_owned()
        } else {
            format!("FX({})", self.assignment.describe())
        }
    }

    /// Lemma 1.1: XOR-ing the device address by a constant permutes `Z_M`,
    /// so specified values only permute the response histogram.
    fn histogram_shift_invariant(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::Assignment;
    use crate::transform::TransformKind;

    /// Table 1, complete: Basic FX on F = (2, 8), M = 4.
    #[test]
    fn table_1_full() {
        let sys = SystemConfig::new(&[2, 8], 4).unwrap();
        let fx = FxDistribution::basic(sys).unwrap();
        #[rustfmt::skip]
        let expected: [[u64; 8]; 2] = [
            // f2 = 0  1  2  3  4  5  6  7      (f1 = 0)
            [0, 1, 2, 3, 0, 1, 2, 3],
            // (f1 = 1)
            [1, 0, 3, 2, 1, 0, 3, 2],
        ];
        for (j1, row) in expected.iter().enumerate() {
            for (j2, &dev) in row.iter().enumerate() {
                assert_eq!(
                    fx.device_of(&[j1 as u64, j2 as u64]),
                    dev,
                    "bucket <{j1},{j2}>"
                );
            }
        }
    }

    /// Table 2 (FX columns): I + U on F = (4, 4), M = 16 is a bijection
    /// onto Z_16 in row-major order.
    #[test]
    fn table_2_i_u() {
        let sys = SystemConfig::new(&[4, 4], 16).unwrap();
        let a = Assignment::from_kinds(&sys, &[TransformKind::Identity, TransformKind::U]).unwrap();
        let fx = FxDistribution::with_assignment(a);
        let mut devices = Vec::new();
        for j1 in 0..4 {
            for j2 in 0..4 {
                devices.push(fx.device_of(&[j1, j2]));
            }
        }
        // Table 2's FX column, read top to bottom.
        assert_eq!(
            devices,
            vec![0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15]
        );
    }

    /// Table 3: I + IU1 on F = (4, 4), M = 16.
    #[test]
    fn table_3_i_iu1() {
        let sys = SystemConfig::new(&[4, 4], 16).unwrap();
        let a =
            Assignment::from_kinds(&sys, &[TransformKind::Identity, TransformKind::Iu1]).unwrap();
        let fx = FxDistribution::with_assignment(a);
        let mut devices = Vec::new();
        for j1 in 0..4 {
            for j2 in 0..4 {
                devices.push(fx.device_of(&[j1, j2]));
            }
        }
        assert_eq!(
            devices,
            vec![0, 5, 10, 15, 1, 4, 11, 14, 2, 7, 8, 13, 3, 6, 9, 12]
        );
    }

    /// Table 4: I, U, IU1 on F = (2, 4, 2), M = 8.
    #[test]
    fn table_4_i_u_iu1() {
        let sys = SystemConfig::new(&[2, 4, 2], 8).unwrap();
        let a = Assignment::from_kinds(
            &sys,
            &[
                TransformKind::Identity,
                TransformKind::U,
                TransformKind::Iu1,
            ],
        )
        .unwrap();
        let fx = FxDistribution::with_assignment(a);
        let mut devices = Vec::new();
        for j1 in 0..2 {
            for j2 in 0..4 {
                for j3 in 0..2 {
                    devices.push(fx.device_of(&[j1, j2, j3]));
                }
            }
        }
        assert_eq!(
            devices,
            vec![0, 5, 2, 7, 4, 1, 6, 3, 1, 4, 3, 6, 5, 0, 7, 2]
        );
    }

    /// Table 5: I + IU2 on F = (8, 2), M = 16.
    #[test]
    fn table_5_i_iu2() {
        let sys = SystemConfig::new(&[8, 2], 16).unwrap();
        let a =
            Assignment::from_kinds(&sys, &[TransformKind::Identity, TransformKind::Iu2]).unwrap();
        let fx = FxDistribution::with_assignment(a);
        let mut devices = Vec::new();
        for j1 in 0..8 {
            for j2 in 0..2 {
                devices.push(fx.device_of(&[j1, j2]));
            }
        }
        assert_eq!(
            devices,
            vec![0, 13, 1, 12, 2, 15, 3, 14, 4, 9, 5, 8, 6, 11, 7, 10]
        );
    }

    /// Table 6: I, U, IU2 on F = (4, 2, 2), M = 16.
    #[test]
    fn table_6_i_u_iu2() {
        let sys = SystemConfig::new(&[4, 2, 2], 16).unwrap();
        let a = Assignment::from_kinds(
            &sys,
            &[
                TransformKind::Identity,
                TransformKind::U,
                TransformKind::Iu2,
            ],
        )
        .unwrap();
        let fx = FxDistribution::with_assignment(a);
        let mut devices = Vec::new();
        for j1 in 0..4 {
            for j2 in 0..2 {
                for j3 in 0..2 {
                    devices.push(fx.device_of(&[j1, j2, j3]));
                }
            }
        }
        assert_eq!(
            devices,
            vec![0, 13, 8, 5, 1, 12, 9, 4, 2, 15, 10, 7, 3, 14, 11, 6]
        );
    }

    /// The field-transformation motivation example from §3: with
    /// F = (2, 8), M = 16, mapping f1 through X with X(f1) = {0, 8}
    /// (a U transform) makes the distribution perfect optimal.
    #[test]
    fn section_3_u_motivation() {
        let _sys = SystemConfig::new(&[2, 8], 16).unwrap();
        let u = Transform::new(TransformKind::U, 2, 16).unwrap();
        assert_eq!(u.image(), vec![0, 8]);
    }

    #[test]
    fn specified_xor_matches_manual() {
        let sys = SystemConfig::new(&[4, 4, 8], 16).unwrap();
        let a = Assignment::from_kinds(
            &sys,
            &[
                TransformKind::Identity,
                TransformKind::U,
                TransformKind::Iu1,
            ],
        )
        .unwrap();
        let fx = FxDistribution::with_assignment(a);
        let h = fx.specified_xor(&[Some(2), None, Some(3)]);
        let t0 = fx.transforms()[0].apply(2);
        let t2 = fx.transforms()[2].apply(3);
        assert_eq!(h, t0 ^ t2);
        // Fully unspecified: h = 0.
        assert_eq!(fx.specified_xor(&[None, None, None]), 0);
    }

    #[test]
    fn names() {
        let sys = SystemConfig::new(&[2, 8], 4).unwrap();
        assert_eq!(
            FxDistribution::basic(sys.clone()).unwrap().name(),
            "FX(basic)"
        );
        let sys16 = SystemConfig::new(&[4, 4], 16).unwrap();
        let fx = FxDistribution::with_strategy(sys16, AssignmentStrategy::CycleIu1).unwrap();
        assert_eq!(fx.name(), "FX(I,U)");
    }

    #[test]
    fn device_is_always_in_range() {
        let sys = SystemConfig::new(&[4, 8, 2], 8).unwrap();
        let fx = FxDistribution::auto(sys.clone()).unwrap();
        let mut buf = Vec::new();
        for idx in sys.all_indices() {
            sys.decode_index(idx, &mut buf);
            assert!(fx.device_of(&buf) < sys.devices());
        }
    }

    #[test]
    fn shift_invariance_declared() {
        let sys = SystemConfig::new(&[2, 8], 4).unwrap();
        let fx = FxDistribution::basic(sys).unwrap();
        assert!(fx.histogram_shift_invariant());
    }

    /// The packed override agrees with the tuple path on every bucket,
    /// under both kernels (tables and computed).
    #[test]
    fn device_of_packed_matches_tuple_path() {
        let sys = SystemConfig::new(&[4, 8, 2], 8).unwrap();
        let fx = FxDistribution::auto(sys.clone()).unwrap();
        let mut buf = Vec::new();
        for code in sys.all_indices() {
            sys.decode_index(code, &mut buf);
            assert_eq!(fx.device_of_packed(code), fx.device_of(&buf), "code {code}");
        }
        // Force the computed kernel with a field over the table threshold.
        let big = SystemConfig::new(&[1 << 17, 4], 8).unwrap();
        let fx_big = FxDistribution::auto(big.clone()).unwrap();
        let layout = big.packed_layout();
        for bucket in [[0u64, 0], [5, 3], [(1 << 17) - 1, 1], [1 << 16, 2]] {
            assert_eq!(
                fx_big.device_of_packed(layout.pack(&bucket)),
                fx_big.device_of(&bucket)
            );
        }
    }

    /// The batched lanes (flat LUT) agree with the scalar packed path on
    /// every bucket, at every batch length (exercising full lanes and the
    /// scalar tail), under both kernels.
    #[test]
    fn device_of_batch_matches_scalar() {
        let sys = SystemConfig::new(&[4, 8, 2], 8).unwrap();
        let fx = FxDistribution::auto(sys.clone()).unwrap();
        let codes: Vec<u64> = sys.all_indices().collect();
        for len in [0, 1, 7, 8, 9, 16, codes.len()] {
            let mut out = vec![u64::MAX; len];
            fx.device_of_batch(&codes[..len], &mut out);
            for (&code, &dev) in codes[..len].iter().zip(&out) {
                assert_eq!(dev, fx.device_of_packed(code), "len {len} code {code}");
            }
        }
        // Computed kernel (field over the table threshold): scalar fallback.
        let big = SystemConfig::new(&[1 << 17, 4], 8).unwrap();
        let fx_big = FxDistribution::auto(big.clone()).unwrap();
        let layout = big.packed_layout();
        let big_codes: Vec<u64> = [[0u64, 0], [5, 3], [(1 << 17) - 1, 1], [1 << 16, 2]]
            .iter()
            .map(|b| layout.pack(b))
            .collect();
        let mut out = vec![u64::MAX; big_codes.len()];
        fx_big.device_of_batch(&big_codes, &mut out);
        for (&code, &dev) in big_codes.iter().zip(&out) {
            assert_eq!(dev, fx_big.device_of_packed(code));
        }
    }

    /// `apply_field` (kernel table) equals the closed-form transform.
    #[test]
    fn apply_field_matches_closed_form() {
        let sys = SystemConfig::new(&[2, 4, 8], 32).unwrap();
        let fx = FxDistribution::auto(sys.clone()).unwrap();
        for i in 0..sys.num_fields() {
            let t = fx.assignment().transform(i);
            for v in 0..sys.field_size(i) {
                assert_eq!(fx.apply_field(i, v), t.apply(v), "field {i} value {v}");
            }
        }
    }

    /// Plans are cached per pattern and shared across clones.
    #[test]
    fn inverse_plans_are_cached_and_shared() {
        let sys = SystemConfig::new(&[2, 8], 4).unwrap();
        let fx = FxDistribution::basic(sys).unwrap();
        let p = crate::query::Pattern::from_unspecified(&[1]);
        let a = fx.inverse_plan(p);
        let b = fx.inverse_plan(p);
        assert!(Arc::ptr_eq(&a, &b), "same pattern must reuse the plan");
        let clone = fx.clone();
        let c = clone.inverse_plan(p);
        assert!(Arc::ptr_eq(&a, &c), "clones share the plan cache");
        assert_ne!(format!("{:?}", fx), "", "debug impl renders");
    }
}
