//! System configuration: the "file system" of the paper.
//!
//! A *file system* in the paper's sense is the cartesian bucket space
//! `f_1 × f_2 × … × f_n` (with `f_i = {0, …, F_i − 1}` and every `F_i` a
//! power of two) together with the number of parallel devices `M` (also a
//! power of two). [`SystemConfig`] validates and carries exactly that.

use crate::bits::{log2_exact, PackedLayout};
use crate::error::{Error, Result};
use std::fmt;
use std::sync::Arc;

/// A validated bucket space plus device count.
///
/// Cloning is cheap (`Arc` internals) so configurations can be freely shared
/// between distribution methods, executors, and analysis drivers.
///
/// # Examples
///
/// ```
/// use pmr_core::SystemConfig;
///
/// // The file system of the paper's Example 1: F = (2, 8), M = 4.
/// let sys = SystemConfig::new(&[2, 8], 4).unwrap();
/// assert_eq!(sys.num_fields(), 2);
/// assert_eq!(sys.total_buckets(), 16);
/// assert_eq!(sys.devices(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    inner: Arc<Inner>,
}

#[derive(PartialEq, Eq, Hash)]
struct Inner {
    /// `F_i` for each field, all powers of two.
    field_sizes: Vec<u64>,
    /// `log2 F_i` for each field.
    field_bits: Vec<u32>,
    /// Bit offset of field `i` within the linear bucket index
    /// (field 0 occupies the lowest bits).
    bit_offsets: Vec<u32>,
    /// Number of parallel devices `M`.
    devices: u64,
    /// `log2 M`.
    device_bits: u32,
    /// `∏ F_i`.
    total_buckets: u64,
    /// The packed bucket representation (shifts/masks per field). The
    /// packed code of a bucket equals its linear index.
    packed: PackedLayout,
}

impl SystemConfig {
    /// The largest field count: a [`Pattern`](crate::Pattern) marks each
    /// open field with one bit of a `u32`.
    pub const MAX_FIELDS: usize = 32;

    /// Builds a configuration, validating every invariant the paper assumes.
    ///
    /// # Errors
    ///
    /// * [`Error::NoFields`] when `field_sizes` is empty.
    /// * [`Error::TooManyFields`] past [`SystemConfig::MAX_FIELDS`] fields.
    /// * [`Error::NotPowerOfTwo`] when any `F_i` or `M` is not a power of
    ///   two.
    /// * [`Error::Overflow`] when `∏ F_i` does not fit in `u64`.
    pub fn new(field_sizes: &[u64], devices: u64) -> Result<Self> {
        if field_sizes.is_empty() {
            return Err(Error::NoFields);
        }
        if field_sizes.len() > Self::MAX_FIELDS {
            return Err(Error::TooManyFields {
                fields: field_sizes.len(),
                max: Self::MAX_FIELDS,
            });
        }
        let device_bits = log2_exact(devices)?;
        let mut field_bits = Vec::with_capacity(field_sizes.len());
        let mut bit_offsets = Vec::with_capacity(field_sizes.len());
        let mut offset = 0u32;
        let mut total: u64 = 1;
        for &f in field_sizes {
            let bits = log2_exact(f)?;
            field_bits.push(bits);
            bit_offsets.push(offset);
            offset = offset.checked_add(bits).ok_or(Error::Overflow)?;
            total = total.checked_mul(f).ok_or(Error::Overflow)?;
        }
        if offset > 63 {
            return Err(Error::Overflow);
        }
        let packed = PackedLayout::new(field_sizes)?;
        Ok(SystemConfig {
            inner: Arc::new(Inner {
                field_sizes: field_sizes.to_vec(),
                field_bits,
                bit_offsets,
                devices,
                device_bits,
                total_buckets: total,
                packed,
            }),
        })
    }

    /// Number of fields `n`.
    #[inline]
    pub fn num_fields(&self) -> usize {
        self.inner.field_sizes.len()
    }

    /// Field size `F_i`.
    ///
    /// # Panics
    ///
    /// Panics when `field >= num_fields()`; use [`SystemConfig::try_field_size`]
    /// for a checked variant.
    #[inline]
    pub fn field_size(&self, field: usize) -> u64 {
        self.inner.field_sizes[field]
    }

    /// Checked field-size accessor.
    pub fn try_field_size(&self, field: usize) -> Result<u64> {
        self.inner
            .field_sizes
            .get(field)
            .copied()
            .ok_or(Error::FieldOutOfRange {
                field,
                num_fields: self.num_fields(),
            })
    }

    /// All field sizes.
    #[inline]
    pub fn field_sizes(&self) -> &[u64] {
        &self.inner.field_sizes
    }

    /// `log2 F_i`.
    #[inline]
    pub fn field_bits(&self, field: usize) -> u32 {
        self.inner.field_bits[field]
    }

    /// Device count `M`.
    #[inline]
    pub fn devices(&self) -> u64 {
        self.inner.devices
    }

    /// `log2 M`.
    #[inline]
    pub fn device_bits(&self) -> u32 {
        self.inner.device_bits
    }

    /// Total number of buckets `∏ F_i`.
    #[inline]
    pub fn total_buckets(&self) -> u64 {
        self.inner.total_buckets
    }

    /// `true` when field `i` is *small*, i.e. `F_i < M`. Small fields are
    /// the ones needing non-identity transformations.
    #[inline]
    pub fn is_small_field(&self, field: usize) -> bool {
        self.inner.field_sizes[field] < self.inner.devices
    }

    /// Indices of the small fields (`F_i < M`), in field order. `L` in the
    /// paper's Section 4.2 summary is the length of this list.
    pub fn small_fields(&self) -> Vec<usize> {
        (0..self.num_fields())
            .filter(|&i| self.is_small_field(i))
            .collect()
    }

    /// Validates a bucket tuple against the space, checking arity and
    /// per-field range.
    pub fn validate_bucket(&self, bucket: &[u64]) -> Result<()> {
        if bucket.len() != self.num_fields() {
            return Err(Error::ArityMismatch {
                expected: self.num_fields(),
                got: bucket.len(),
            });
        }
        for (i, (&v, &f)) in bucket.iter().zip(self.field_sizes()).enumerate() {
            if v >= f {
                return Err(Error::ValueOutOfRange {
                    field: i,
                    value: v,
                    field_size: f,
                });
            }
        }
        Ok(())
    }

    /// The packed bucket representation: per-field shift/mask pairs over
    /// the dense linear index. The packed code of a bucket **is** its
    /// linear index, so device stores keyed by linear index need no
    /// translation to work with packed codes.
    #[inline]
    pub fn packed_layout(&self) -> &PackedLayout {
        &self.inner.packed
    }

    /// Linearises a bucket tuple into a dense index in `[0, total_buckets)`.
    ///
    /// Because every `F_i` is a power of two the linear index is a plain bit
    /// concatenation: field 0 occupies the lowest `log2 F_0` bits, field 1
    /// the next `log2 F_1` bits, and so on — i.e. the index is exactly the
    /// [`PackedLayout::pack`] code.
    #[inline]
    pub fn linear_index(&self, bucket: &[u64]) -> u64 {
        debug_assert_eq!(bucket.len(), self.num_fields());
        let inner = &*self.inner;
        bucket
            .iter()
            .zip(&inner.bit_offsets)
            .fold(0u64, |acc, (&v, &off)| acc | (v << off))
    }

    /// Inverse of [`SystemConfig::linear_index`]: decodes a dense index into
    /// the supplied coordinate buffer (resized to `num_fields`).
    pub fn decode_index(&self, index: u64, out: &mut Vec<u64>) {
        let inner = &*self.inner;
        out.clear();
        out.extend(
            inner
                .bit_offsets
                .iter()
                .zip(&inner.field_sizes)
                .map(|(&off, &f)| (index >> off) & (f - 1)),
        );
    }

    /// Decodes a dense index into a freshly allocated bucket tuple.
    pub fn bucket_of_index(&self, index: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.num_fields());
        self.decode_index(index, &mut out);
        out
    }

    /// Iterates over every bucket in the space in linear-index order.
    ///
    /// Each item is the dense index; decode with
    /// [`SystemConfig::decode_index`] when coordinates are needed. Intended
    /// for exhaustive analysis on small systems — the iterator is `∏ F_i`
    /// long.
    pub fn all_indices(&self) -> impl Iterator<Item = u64> {
        0..self.inner.total_buckets
    }

    /// `true` when `m` divides the field size — for powers of two this is
    /// `F_i >= M`, the condition under which a field never hurts optimality
    /// (Theorem 2).
    #[inline]
    pub fn field_covers_devices(&self, field: usize) -> bool {
        self.inner.field_sizes[field] >= self.inner.devices
    }

    /// The buddy mask for mirrored placement: `M / 2` when `M ≥ 2`, `None`
    /// for a single device. See [`crate::bits::buddy_mask`] for why XOR by
    /// this mask tiles `Z_M` into disjoint device pairs.
    #[inline]
    pub fn buddy_mask(&self) -> Option<u64> {
        crate::bits::buddy_mask(self.inner.devices)
    }

    /// The buddy of `device` (`device ⊕ M/2`), or `None` when `M = 1`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `device < M`.
    #[inline]
    pub fn buddy_of(&self, device: u64) -> Option<u64> {
        debug_assert!(device < self.inner.devices);
        self.buddy_mask().map(|mask| device ^ mask)
    }
}

impl fmt::Debug for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemConfig")
            .field("field_sizes", &self.inner.field_sizes)
            .field("devices", &self.inner.devices)
            .finish()
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F = (")?;
        for (i, s) in self.inner.field_sizes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "), M = {}", self.inner.devices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_configs() {
        assert_eq!(SystemConfig::new(&[], 4).unwrap_err(), Error::NoFields);
        assert!(matches!(
            SystemConfig::new(&[3, 8], 4).unwrap_err(),
            Error::NotPowerOfTwo { value: 3 }
        ));
        assert!(matches!(
            SystemConfig::new(&[2, 8], 5).unwrap_err(),
            Error::NotPowerOfTwo { value: 5 }
        ));
        // 2^40 * 2^40 overflows the 63-bit linear index budget.
        assert!(matches!(
            SystemConfig::new(&[1 << 40, 1 << 40], 4).unwrap_err(),
            Error::Overflow
        ));
    }

    /// A pattern has one bit per field of a `u32`: 32 binary fields fit,
    /// a 33rd is refused instead of aliasing field 0's bit.
    #[test]
    fn refuses_more_fields_than_a_pattern_addresses() {
        let sys = SystemConfig::new(&[2; 32], 4).unwrap();
        assert_eq!(sys.num_fields(), SystemConfig::MAX_FIELDS);
        assert_eq!(
            SystemConfig::new(&[2; 33], 4).unwrap_err(),
            Error::TooManyFields {
                fields: 33,
                max: 32
            }
        );
        // Field 31, the last one a pattern can name, stays distinct.
        let mut values = vec![Some(0); 32];
        values[31] = None;
        let q = crate::PartialMatchQuery::new(&sys, &values).unwrap();
        assert_eq!(q.pattern(), crate::Pattern(1 << 31));
        assert_eq!(q.qualified_count_in(&sys), 2);
    }

    #[test]
    fn example_1_configuration() {
        let sys = SystemConfig::new(&[2, 8], 4).unwrap();
        assert_eq!(sys.num_fields(), 2);
        assert_eq!(sys.field_size(0), 2);
        assert_eq!(sys.field_size(1), 8);
        assert_eq!(sys.devices(), 4);
        assert_eq!(sys.device_bits(), 2);
        assert_eq!(sys.total_buckets(), 16);
        assert!(sys.is_small_field(0));
        assert!(!sys.is_small_field(1));
        assert_eq!(sys.small_fields(), vec![0]);
        assert!(sys.field_covers_devices(1));
    }

    #[test]
    fn linear_index_round_trips() {
        let sys = SystemConfig::new(&[4, 2, 8], 16).unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut buf = Vec::new();
        for a in 0..4 {
            for b in 0..2 {
                for c in 0..8 {
                    let bucket = [a, b, c];
                    let idx = sys.linear_index(&bucket);
                    assert!(idx < sys.total_buckets());
                    assert!(seen.insert(idx), "index collision at {bucket:?}");
                    sys.decode_index(idx, &mut buf);
                    assert_eq!(buf.as_slice(), &bucket);
                    assert_eq!(sys.bucket_of_index(idx), bucket);
                }
            }
        }
        assert_eq!(seen.len() as u64, sys.total_buckets());
    }

    /// The packed code equals the linear index for every bucket.
    #[test]
    fn packed_layout_is_the_linear_index() {
        let sys = SystemConfig::new(&[4, 2, 8], 16).unwrap();
        let layout = sys.packed_layout();
        let mut buf = Vec::new();
        for idx in sys.all_indices() {
            sys.decode_index(idx, &mut buf);
            assert_eq!(layout.pack(&buf), idx);
            assert_eq!(layout.pack(&buf), sys.linear_index(&buf));
            assert_eq!(layout.unpack(idx), buf);
        }
        assert_eq!(layout.total_bits(), 2 + 1 + 3);
    }

    #[test]
    fn validate_bucket_errors() {
        let sys = SystemConfig::new(&[4, 8], 4).unwrap();
        assert!(sys.validate_bucket(&[3, 7]).is_ok());
        assert!(matches!(
            sys.validate_bucket(&[4, 0]).unwrap_err(),
            Error::ValueOutOfRange { field: 0, .. }
        ));
        assert!(matches!(
            sys.validate_bucket(&[0, 0, 0]).unwrap_err(),
            Error::ArityMismatch {
                expected: 2,
                got: 3
            }
        ));
    }

    #[test]
    fn display_formats() {
        let sys = SystemConfig::new(&[2, 8], 4).unwrap();
        assert_eq!(sys.to_string(), "F = (2, 8), M = 4");
    }

    #[test]
    fn single_value_fields_are_legal() {
        // F_i = 1 is a degenerate but valid power of two.
        let sys = SystemConfig::new(&[1, 8], 4).unwrap();
        assert_eq!(sys.total_buckets(), 8);
        assert!(sys.is_small_field(0));
    }

    #[test]
    fn all_indices_covers_space() {
        let sys = SystemConfig::new(&[2, 4], 2).unwrap();
        assert_eq!(sys.all_indices().count() as u64, sys.total_buckets());
    }

    #[test]
    fn buddy_pairs_partition_devices() {
        let sys = SystemConfig::new(&[8; 6], 32).unwrap(); // Table 7
        assert_eq!(sys.buddy_mask(), Some(16));
        for d in 0..32 {
            let buddy = sys.buddy_of(d).unwrap();
            assert_eq!(sys.buddy_of(buddy), Some(d));
            assert_ne!(buddy, d);
        }
        let single = SystemConfig::new(&[2, 8], 1).unwrap();
        assert_eq!(single.buddy_mask(), None);
        assert_eq!(single.buddy_of(0), None);
    }

    #[test]
    fn try_field_size_checks_range() {
        let sys = SystemConfig::new(&[2, 4], 2).unwrap();
        assert_eq!(sys.try_field_size(1).unwrap(), 4);
        assert!(matches!(
            sys.try_field_size(2).unwrap_err(),
            Error::FieldOutOfRange {
                field: 2,
                num_fields: 2
            }
        ));
    }
}
