//! FX (Fieldwise eXclusive-or) distribution — the paper's contribution.
//!
//! *Basic FX* (§3) allocates bucket `<J_1, …, J_n>` to device
//! `T_M(J_1 ⊕ … ⊕ J_n)`. *Extended FX* (§4) first passes each field value
//! through its transformation function:
//! `T_M(X_1(J_1) ⊕ … ⊕ X_n(J_n))`. Every transformation (I, U, IU1, IU2)
//! is XOR and shift, and `T_M` keeps low bits, so each field's map
//! `J ↦ T_M(X_i(J))` is GF(2)-linear and fixed by the images of the
//! field's bits. [`FxDistribution`] stores exactly that: one linear map,
//! as the device images `T_M(X_i(2^b))` of every field bit. The paper's
//! closed forms are constructors of those images
//! ([`FxDistribution::with_assignment`]); [`FxDistribution::from_images`]
//! takes any other images that are injective on a field with `F < M` and
//! onto `Z_M` on a field with `F ≥ M`.
//!
//! The transformation arithmetic is pure XOR/shift/AND — the paper's
//! §5.2.2 measures this at roughly a third of GDM's multiply-based cost
//! on an MC68000 (whose multiplier took ~70 cycles). This implementation
//! additionally compiles the per-field maps into lookup tables, so the hot
//! path is one load + one XOR per field; `pmr-bench`'s `addr_compute`
//! bench reproduces the comparison on the host CPU, where pipelined
//! multipliers make the kernels much closer than in 1988 (see
//! EXPERIMENTS.md).

use crate::assign::{Assignment, AssignmentStrategy};
use crate::bits::t_m;
use crate::device_set::DeviceSet;
use crate::error::{Error, Result};
use crate::method::DistributionMethod;
use crate::query::{PartialMatchQuery, Pattern};
use crate::system::SystemConfig;

/// The FX distribution method: one GF(2)-linear map from bucket bits to
/// device bits.
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
    sys: SystemConfig,
    /// The closed-form assignment the images were built from, if any.
    assignment: Option<Assignment>,
    /// `images[i][b] = T_M(X_i(2^b))`, one per bit of field `i`.
    images: Vec<Vec<u64>>,
    /// Precomputed address kernel (see [`TableKernel`]).
    kernel: TableKernel,
}

/// Entries of one kernel chunk table (512 KiB of `u64` at most; see
/// [`CHUNK_BITS`]). It caps the address kernel only: the fast inverse
/// builds no table (see [`crate::inverse::FxInverse`]).
const MAX_TABLE_SIZE: u64 = 1 << 16;

/// Bits of a field value one kernel chunk table covers. A field of at
/// most [`MAX_TABLE_SIZE`] values is one chunk (one table load); a wider
/// field is sliced into chunks whose outputs XOR together, which the
/// map's linearity allows.
const CHUNK_BITS: u32 = MAX_TABLE_SIZE.trailing_zeros();

/// Width of the batched address-computation lanes: 8 independent XOR
/// accumulator chains per inner step, enough instruction-level
/// parallelism to hide the table-load latency without spilling the
/// accumulator array out of registers (see DESIGN "Batched address
/// computation").
const BATCH_LANES: usize = 8;

/// Cap on a flat-LUT segment's entry count (the product of its member
/// chunks' sizes). 2¹¹ `u64` entries keep every segment slab (≤ 16 KiB)
/// resident in L1 while still folding several fields into one load: the
/// paper's Table 7 system (six fields of 8) collapses into two 512-entry
/// segments, so a batched lookup costs two loads per code instead of
/// six. Chunks too large to merge get a segment of their own.
const SEGMENT_CAP: u64 = 1 << 11;

/// FX's table-XOR address kernel.
///
/// Each field's map is materialised once, as one table per chunk of at
/// most [`CHUNK_BITS`] value bits, so the hot path is one load + one XOR
/// per field (per chunk of a wider field) with no per-kind branching.
#[derive(Debug, Clone)]
struct TableKernel {
    /// One table per chunk, in packed-bit order: `chunks[c][v]` is the
    /// XOR of the images of `v`'s bits.
    chunks: Vec<Box<[u64]>>,
    /// Field `i` owns `chunks[field_chunks[i]..field_chunks[i + 1]]`.
    field_chunks: Box<[usize]>,
    /// Bit offset of each chunk within a packed code.
    shifts: Box<[u32]>,
    /// In-chunk mask of each chunk.
    masks: Box<[u64]>,
    /// The flat segment LUT the batched lanes index: one contiguous
    /// allocation holding, per *segment* (a run of consecutive chunks
    /// whose combined bucket-bit span stays under [`SEGMENT_CAP`]
    /// entries), the XOR of the member chunks' tables over every
    /// combination of their bucket bits. A segment lookup is
    /// `flat[seg_bases[s] + ((code >> seg_shifts[s]) & seg_masks[s])]`
    /// — one load per segment replaces one load per field (on the
    /// paper's Table 7 system, six per-field loads collapse to two),
    /// with no per-field `Box` indirection.
    flat: Box<[u64]>,
    /// Start of each segment's entries within `flat`.
    seg_bases: Box<[u32]>,
    /// Bit offset of each segment's first chunk within a packed code.
    seg_shifts: Box<[u32]>,
    /// Combined in-segment mask (`∏ entries − 1` over member chunks).
    seg_masks: Box<[u64]>,
}

impl TableKernel {
    /// Builds the kernel from per-field bit images
    /// (`images[i].len() == log2 F_i`).
    fn new(sys: &SystemConfig, images: &[Vec<u64>]) -> TableKernel {
        let _span = pmr_rt::span!(pmr_rt::obs::FX_KERNEL_BUILD, fields = images.len() as u64);
        let layout = sys.packed_layout();
        let mut chunks = Vec::new();
        let mut field_chunks = vec![0];
        let mut shifts = Vec::new();
        let mut masks = Vec::new();
        for (i, field) in images.iter().enumerate() {
            // Every field gets at least one chunk (a one-value field's
            // table is `[0]`).
            for low in (0..field.len().max(1)).step_by(CHUNK_BITS as usize) {
                let bits = &field[low..field.len().min(low + CHUNK_BITS as usize)];
                chunks.push(span_table(bits));
                shifts.push(layout.shift(i) + low as u32);
                masks.push((1u64 << bits.len()) - 1);
            }
            field_chunks.push(chunks.len());
        }
        pmr_rt::obs::FX_KERNEL_TABLES_BUILT.add(chunks.len() as u64);
        // Fold runs of consecutive chunks into combined segments: a
        // segment over chunks i..j stores, for every combination `v` of
        // their packed bits, the XOR of the member tables. Valid because
        // chunks tile the packed code contiguously, LSB first, so chunks
        // i..j occupy exactly the bit range the segment mask extracts.
        let mut flat = Vec::new();
        let mut seg_bases = Vec::new();
        let mut seg_shifts = Vec::new();
        let mut seg_masks = Vec::new();
        let mut i = 0;
        while i < chunks.len() {
            let seg_shift = shifts[i];
            let mut entries = chunks[i].len() as u64;
            let mut j = i + 1;
            while j < chunks.len() && entries * chunks[j].len() as u64 <= SEGMENT_CAP {
                debug_assert_eq!(
                    u64::from(shifts[j]),
                    u64::from(seg_shift) + u64::from(entries.trailing_zeros()),
                    "segment folding needs contiguous chunks"
                );
                entries *= chunks[j].len() as u64;
                j += 1;
            }
            seg_bases.push(flat.len() as u32);
            seg_shifts.push(seg_shift);
            seg_masks.push(entries - 1);
            for v in 0..entries {
                let mut acc = 0u64;
                for k in i..j {
                    let rel = shifts[k] - seg_shift;
                    acc ^= chunks[k][((v >> rel) & masks[k]) as usize];
                }
                flat.push(acc);
            }
            i = j;
        }
        TableKernel {
            chunks,
            field_chunks: field_chunks.into_boxed_slice(),
            shifts: shifts.into_boxed_slice(),
            masks: masks.into_boxed_slice(),
            flat: flat.into_boxed_slice(),
            seg_bases: seg_bases.into_boxed_slice(),
            seg_shifts: seg_shifts.into_boxed_slice(),
            seg_masks: seg_masks.into_boxed_slice(),
        }
    }

    /// Field `field`'s map at `value`: one table load per chunk, so one
    /// for every field of at most [`MAX_TABLE_SIZE`] values.
    #[inline]
    fn apply_field(&self, field: usize, mut value: u64) -> u64 {
        let mut acc = 0u64;
        for table in &self.chunks[self.field_chunks[field]..self.field_chunks[field + 1]] {
            acc ^= table[(value & (MAX_TABLE_SIZE - 1)) as usize];
            value >>= CHUNK_BITS;
        }
        acc
    }

    /// XOR of every field's image of a bucket tuple.
    #[inline]
    fn xor_all(&self, bucket: &[u64]) -> u64 {
        let mut acc = 0u64;
        for (field, &v) in bucket.iter().enumerate() {
            acc ^= self.apply_field(field, v);
        }
        acc
    }

    /// XOR of every field's image of a packed code — the packed
    /// counterpart of [`TableKernel::xor_all`]: extract → load → XOR per
    /// chunk, needing no tuple at all.
    #[inline]
    fn xor_packed(&self, code: u64) -> u64 {
        let mut acc = 0u64;
        for ((table, &shift), &mask) in self.chunks.iter().zip(&*self.shifts).zip(&*self.masks) {
            acc ^= table[((code >> shift) & mask) as usize];
        }
        acc
    }

    /// Batched device computation: `out[i] = T_M(xor_packed(codes[i]))`
    /// on `devices` devices.
    ///
    /// Runs [`BATCH_LANES`] codes per step against the flat segment LUT —
    /// per segment, each lane does extract → one load off a shared base →
    /// XOR, with no branches and no per-field pointer chase, so the lanes'
    /// accumulator chains are independent and pipeline. Segment folding
    /// (see [`SEGMENT_CAP`]) makes the step count the *segment* count, not
    /// the field count.
    fn device_of_batch(&self, codes: &[u64], out: &mut [u64], devices: u64) {
        let m1 = devices - 1;
        let flat = &self.flat[..];
        let mut code_chunks = codes.chunks_exact(BATCH_LANES);
        let mut out_chunks = out.chunks_exact_mut(BATCH_LANES);
        for (chunk, slot) in (&mut code_chunks).zip(&mut out_chunks) {
            let mut acc = [0u64; BATCH_LANES];
            for ((&base, &shift), &mask) in self
                .seg_bases
                .iter()
                .zip(self.seg_shifts.iter())
                .zip(self.seg_masks.iter())
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
            *slot = self.xor_packed(code) & m1;
        }
    }
}

/// The table of a linear map over `bits.len()` value bits:
/// `table[v]` is the XOR of `bits[b]` over the set bits `b` of `v`.
fn span_table(bits: &[u64]) -> Box<[u64]> {
    let mut table = vec![0u64; 1 << bits.len()];
    for v in 1..table.len() {
        table[v] = table[v & (v - 1)] ^ bits[v.trailing_zeros() as usize];
    }
    table.into_boxed_slice()
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

    /// Extended FX from an explicit assignment: each transform's bit
    /// images become the field's map.
    pub fn with_assignment(assignment: Assignment) -> Self {
        let sys = assignment.system().clone();
        let images = assignment
            .transforms()
            .iter()
            .map(|t| t.bit_images())
            .collect();
        FxDistribution::build(sys, Some(assignment), images).expect("closed forms are valid maps")
    }

    /// FX from explicit bit images: `images[i][b]` is the device image
    /// `T_M(X_i(2^b))` of bit `b` of field `i`, and a value's image is the
    /// XOR of its set bits' images.
    ///
    /// # Errors
    ///
    /// * [`Error::TransformArityMismatch`] when there is not one image
    ///   list per field, or a field's list does not hold one image per
    ///   field bit.
    /// * [`Error::ValueOutOfRange`] when an image is not below `M`.
    /// * [`Error::RankDeficient`] when a field with `F < M` does not map
    ///   injectively, or a field with `F ≥ M` does not map onto `Z_M`.
    ///
    /// # Examples
    ///
    /// Field 0's one bit sent to device 3, field 1 (`F ≥ M`) mapped onto
    /// `Z_4` by the images 1, 2 and 0:
    ///
    /// ```
    /// use pmr_core::{FxDistribution, SystemConfig};
    /// use pmr_core::method::DistributionMethod;
    ///
    /// let sys = SystemConfig::new(&[2, 8], 4).unwrap();
    /// let fx = FxDistribution::from_images(sys, vec![vec![3], vec![1, 2, 0]]).unwrap();
    /// assert_eq!(fx.device_of(&[1, 1]), 2); // T_4(3 ⊕ 1)
    /// assert!(fx.as_fx().is_some());
    /// ```
    pub fn from_images(sys: SystemConfig, images: Vec<Vec<u64>>) -> Result<Self> {
        if images.len() != sys.num_fields() {
            return Err(Error::TransformArityMismatch {
                expected: sys.num_fields(),
                got: images.len(),
            });
        }
        for (field, bits) in images.iter().enumerate() {
            if bits.len() != sys.field_bits(field) as usize {
                return Err(Error::TransformArityMismatch {
                    expected: sys.field_bits(field) as usize,
                    got: bits.len(),
                });
            }
            if let Some(&value) = bits.iter().find(|&&v| v >= sys.devices()) {
                return Err(Error::ValueOutOfRange {
                    field,
                    value,
                    field_size: sys.devices(),
                });
            }
        }
        FxDistribution::build(sys, None, images)
    }

    /// Checks every field's rank — the dimension of its images' span:
    /// `log2 F_i` (injective) below `M`, `log2 M` (onto) at or above it —
    /// then compiles the kernel.
    fn build(
        sys: SystemConfig,
        assignment: Option<Assignment>,
        images: Vec<Vec<u64>>,
    ) -> Result<Self> {
        for (field, bits) in images.iter().enumerate() {
            let mut span = DeviceSet::single(0);
            for &image in bits {
                span.insert(image);
            }
            let (rank, required) = (span.dim(), sys.field_bits(field).min(sys.device_bits()));
            if rank != required {
                return Err(Error::RankDeficient {
                    field,
                    rank,
                    required,
                });
            }
        }
        Ok(FxDistribution {
            kernel: TableKernel::new(&sys, &images),
            sys,
            assignment,
            images,
        })
    }

    /// The closed-form assignment the map was built from, or `None` for
    /// a map built [`from_images`](FxDistribution::from_images). The
    /// paper's sufficient conditions reason over it.
    #[inline]
    pub fn assignment(&self) -> Option<&Assignment> {
        self.assignment.as_ref()
    }

    /// The bit images: `images()[i][b] = T_M(X_i(2^b))`.
    #[inline]
    pub fn images(&self) -> &[Vec<u64>] {
        &self.images
    }

    /// The assignment's description (e.g. `"I,U,IU1"`), or `"linear"`
    /// for a map built from explicit images.
    pub fn describe(&self) -> String {
        self.assignment
            .as_ref()
            .map_or_else(|| "linear".to_owned(), Assignment::describe)
    }

    /// The XOR of the mapped *specified* values of a query — `h` in the
    /// paper's proofs. Unspecified fields contribute nothing.
    ///
    /// The qualified buckets of the query land on devices
    /// `T_M(h ⊕ ⨁ X_i(J_i))` with `i` ranging over the unspecified fields —
    /// the identity that powers both the optimality proofs and the fast
    /// inverse mapping.
    pub fn specified_xor(&self, values: &[Option<u64>]) -> u64 {
        debug_assert_eq!(values.len(), self.sys.num_fields());
        values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|val| self.kernel.apply_field(i, val)))
            .fold(0, |acc, t| acc ^ t)
    }

    /// The devices `query`'s qualified buckets land on, in closed form:
    /// `T_M(h)` ([`FxDistribution::specified_xor`]) XOR the span of the
    /// bit images of every unspecified field. The map is linear, so that
    /// span is exactly the set of `T_M(⨁ X_i(J_i))` over all free values
    /// (see [`DeviceSet`]). Costs one insert per free bit, never a bucket
    /// enumeration; it equals the set of devices the inverse mapping
    /// routes at least one code to (property-tested in
    /// `tests/packed_equivalence.rs`).
    pub fn device_set(&self, query: &PartialMatchQuery) -> DeviceSet {
        let m = self.sys.devices();
        let mut set = DeviceSet::single(t_m(self.specified_xor(query.values()), m));
        for (i, value) in query.values().iter().enumerate() {
            if value.is_some() {
                continue;
            }
            for &image in &self.images[i] {
                if set.dim() == self.sys.device_bits() {
                    return set;
                }
                set.insert(image);
            }
        }
        set
    }

    /// The largest response of every query with `pattern`, by rank: the
    /// qualified buckets fall evenly on the `2^d` devices of the query's
    /// [`device_set`](FxDistribution::device_set), so the largest response
    /// is `|R(q)| >> d`. Equals the exhaustive
    /// [`pattern_largest_response`](crate::optimality::pattern_largest_response)
    /// (property-tested) and enumerates no bucket and no device.
    pub fn largest_response_by_rank(&self, pattern: Pattern) -> u64 {
        let q = PartialMatchQuery::zero_representative(&self.sys, pattern);
        q.qualified_count_in(&self.sys) >> self.device_set(&q).dim()
    }

    /// Applies field `i`'s map `T_M(X_i(·))` to one value through the
    /// precomputed kernel: a single table load for every field of at most
    /// 2¹⁶ values.
    #[inline]
    pub fn apply_field(&self, field: usize, value: u64) -> u64 {
        self.kernel.apply_field(field, value)
    }
}

impl DistributionMethod for FxDistribution {
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

    fn as_fx(&self) -> Option<&FxDistribution> {
        Some(self)
    }

    fn system(&self) -> &SystemConfig {
        &self.sys
    }

    fn name(&self) -> String {
        match &self.assignment {
            Some(a) if a.is_basic() => "FX(basic)".to_owned(),
            _ => format!("FX({})", self.describe()),
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
    use crate::optimality::{is_k_optimal, pattern_strict_optimal, response_histogram};
    use crate::transform::{Transform, TransformKind};

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
        let a = fx.assignment().unwrap();
        let t0 = a.transform(0).apply(2);
        let t2 = a.transform(2).apply(3);
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
        let fx =
            FxDistribution::with_strategy(sys16.clone(), AssignmentStrategy::CycleIu1).unwrap();
        assert_eq!(fx.name(), "FX(I,U)");
        let linear = FxDistribution::from_images(sys16, fx.images().to_vec()).unwrap();
        assert_eq!(linear.name(), "FX(linear)");
        assert!(linear.assignment().is_none());
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
    /// also when a field is wider than one kernel chunk.
    #[test]
    fn device_of_packed_matches_tuple_path() {
        let sys = SystemConfig::new(&[4, 8, 2], 8).unwrap();
        let fx = FxDistribution::auto(sys.clone()).unwrap();
        let mut buf = Vec::new();
        for code in sys.all_indices() {
            sys.decode_index(code, &mut buf);
            assert_eq!(fx.device_of_packed(code), fx.device_of(&buf), "code {code}");
        }
        // A field over the chunk cap is sliced into two chunk tables.
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

    /// Asserts that the batched lanes agree with the scalar packed path on
    /// every bucket of `sys`, at every batch length (full lanes and the
    /// scalar tail).
    fn assert_batch_matches_scalar(fx: &FxDistribution, sys: &SystemConfig) {
        let codes: Vec<u64> = sys.all_indices().collect();
        for len in [0, 1, 7, 8, 9, 16, codes.len()] {
            let mut out = vec![u64::MAX; len];
            fx.device_of_batch(&codes[..len], &mut out);
            for (&code, &dev) in codes[..len].iter().zip(&out) {
                assert_eq!(dev, fx.device_of_packed(code), "len {len} code {code}");
            }
        }
    }

    /// The batched lanes (flat LUT) agree with the scalar packed path for
    /// closed-form images and for a field sliced into chunks.
    #[test]
    fn device_of_batch_matches_scalar() {
        let sys = SystemConfig::new(&[4, 8, 2], 8).unwrap();
        let fx = FxDistribution::auto(sys.clone()).unwrap();
        assert_batch_matches_scalar(&fx, &sys);
        // A field over the chunk cap.
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

    /// The batched lanes agree with the scalar packed path for an explicit,
    /// non-closed-form linear map built from bit images.
    #[test]
    fn explicit_images_batch_matches_scalar() {
        let sys = SystemConfig::new(&[4, 8, 2], 8).unwrap();
        let explicit =
            FxDistribution::from_images(sys.clone(), vec![vec![5, 2], vec![3, 4, 6], vec![6]])
                .unwrap();
        assert_batch_matches_scalar(&explicit, &sys);
    }

    /// `apply_field` (kernel table) equals the closed-form transform.
    #[test]
    fn apply_field_matches_closed_form() {
        let sys = SystemConfig::new(&[2, 4, 8, 64], 32).unwrap();
        let fx = FxDistribution::auto(sys.clone()).unwrap();
        for i in 0..sys.num_fields() {
            let t = fx.assignment().unwrap().transform(i);
            for v in 0..sys.field_size(i) {
                assert_eq!(
                    fx.apply_field(i, v),
                    t_m(t.apply(v), 32),
                    "field {i} value {v}"
                );
            }
        }
    }

    /// A field wider than one chunk table maps each value to the XOR of
    /// its bits' images, like every other field.
    #[test]
    fn wide_fields_xor_their_chunks() {
        let sys = SystemConfig::new(&[1 << 18, 2], 8).unwrap();
        let mut wide: Vec<u64> = (0..18).map(|b| [1, 2, 4, 3, 5, 6, 7][b % 7]).collect();
        wide[17] = 0;
        let fx = FxDistribution::from_images(sys.clone(), vec![wide.clone(), vec![7]]).unwrap();
        for v in [0u64, 1, 0xffff, 1 << 16, (1 << 18) - 1, 0x2_a5a5] {
            let want = (0..18)
                .filter(|b| v >> b & 1 == 1)
                .fold(0, |acc, b| acc ^ wide[b]);
            assert_eq!(fx.apply_field(0, v), want, "value {v:#x}");
            let code = sys.packed_layout().pack(&[v, 1]);
            assert_eq!(fx.device_of_packed(code), want ^ 7);
            assert_eq!(fx.device_of(&[v, 1]), want ^ 7);
        }
    }

    #[test]
    fn validation_rejects_bad_images() {
        let sys = SystemConfig::new(&[2, 8], 4).unwrap();
        let build = |images: Vec<Vec<u64>>| FxDistribution::from_images(sys.clone(), images);
        // Wrong list count, wrong image count per field.
        assert!(matches!(
            build(vec![vec![1]]).unwrap_err(),
            Error::TransformArityMismatch {
                expected: 2,
                got: 1
            }
        ));
        assert!(matches!(
            build(vec![vec![1], vec![1, 2]]).unwrap_err(),
            Error::TransformArityMismatch {
                expected: 3,
                got: 2
            }
        ));
        // An image outside Z_M.
        assert!(matches!(
            build(vec![vec![4], vec![1, 2, 0]]).unwrap_err(),
            Error::ValueOutOfRange {
                field: 0,
                value: 4,
                ..
            }
        ));
        // A small field that is not injective (its one bit maps to 0).
        assert_eq!(
            build(vec![vec![0], vec![1, 2, 0]]).unwrap_err(),
            Error::RankDeficient {
                field: 0,
                rank: 0,
                required: 1
            }
        );
        // A large field that is not onto.
        assert_eq!(
            build(vec![vec![1], vec![1, 1, 0]]).unwrap_err(),
            Error::RankDeficient {
                field: 1,
                rank: 1,
                required: 2
            }
        );
        // Valid: a non-identity onto map on the large field.
        assert!(build(vec![vec![1], vec![3, 0, 1]]).is_ok());
    }

    /// Rebuilding a closed-form map from its images gives the identical
    /// distribution.
    #[test]
    fn from_images_matches_assignment() {
        for strategy in [
            AssignmentStrategy::Basic,
            AssignmentStrategy::CycleIu1,
            AssignmentStrategy::CycleIu2,
            AssignmentStrategy::TheoremNine,
        ] {
            let sys = SystemConfig::new(&[4, 2, 8, 32], 16).unwrap();
            let fx = FxDistribution::with_strategy(sys.clone(), strategy).unwrap();
            let linear = FxDistribution::from_images(sys.clone(), fx.images().to_vec()).unwrap();
            let mut buf = Vec::new();
            for idx in sys.all_indices() {
                sys.decode_index(idx, &mut buf);
                assert_eq!(
                    fx.device_of(&buf),
                    linear.device_of(&buf),
                    "{strategy:?} {buf:?}"
                );
            }
        }
    }

    /// Theorems 1 and 2 hold for any valid images: 0/1-optimality always;
    /// ≥2-unspecified patterns with a large unspecified field.
    #[test]
    fn theorems_1_2_hold_for_explicit_images() {
        let sys = SystemConfig::new(&[2, 8, 4], 4).unwrap();
        let fx = FxDistribution::from_images(sys.clone(), vec![vec![3], vec![3, 1, 2], vec![2, 1]])
            .unwrap();
        assert!(is_k_optimal(&fx, &sys, 0));
        assert!(is_k_optimal(&fx, &sys, 1));
        for pattern in Pattern::all(3) {
            let unspec = pattern.unspecified_fields(3);
            if unspec.len() >= 2 && unspec.iter().any(|&i| sys.field_covers_devices(i)) {
                assert!(pattern_strict_optimal(&fx, &sys, pattern), "{pattern:?}");
            }
        }
    }

    /// Shift invariance holds for explicit images (Lemma 1.1): every query
    /// of a pattern has the zero representative's histogram, permuted.
    #[test]
    fn shift_invariance_holds_for_explicit_images() {
        let sys = SystemConfig::new(&[4, 4], 8).unwrap();
        let fx = FxDistribution::from_images(sys.clone(), vec![vec![5, 2], vec![1, 6]]).unwrap();
        for pattern in Pattern::all(2) {
            let mut reference = response_histogram(
                &fx,
                &sys,
                &PartialMatchQuery::zero_representative(&sys, pattern),
            );
            reference.sort_unstable();
            let ok = crate::optimality::for_each_query(&sys, pattern, |q| {
                let mut h = response_histogram(&fx, &sys, q);
                h.sort_unstable();
                h == reference
            });
            assert!(ok, "{pattern:?}");
        }
    }
}
