//! Field transformation functions (paper Section 4.1).
//!
//! For a field whose size `F` is **less than** the device count `M`, Basic
//! FX distribution cannot spread the field's contribution across all `M`
//! devices — the field's values only occupy the low `log2 F` bits. The
//! paper's fix is to pass each such field through an injective map
//! `X : f → Z_M` before XOR-ing. Four families are defined (`d = M / F`,
//! `d₂ = d / F` when `F² < M`):
//!
//! | name | map | intuition |
//! |------|-----|-----------|
//! | `I`   | `l ↦ l`             | keep low bits |
//! | `U`   | `l ↦ l·d`           | spread to high bits, equally spaced |
//! | `IU1` | `l ↦ l ⊕ l·d`       | low **and** high bits, one element per `d`-interval (Lemma 5.4) |
//! | `IU2` | `l ↦ l ⊕ l·d ⊕ l·d₂`| three-band variant; degenerates to `IU1` when `F² ≥ M` |
//!
//! Because `d` and `d₂` are powers of two, every transform compiles to
//! XOR + shift — the basis of the paper's §5.2.2 CPU-time claim.

use crate::bits::{is_power_of_two, log2_exact, t_m};
use crate::error::{Error, Result};
use std::fmt;

/// The four transformation families of the paper.
///
/// Two transforms are "the same transformation method" (paper §4.1) when
/// their [`TransformKind`]s are equal, regardless of field size or `M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformKind {
    /// `I(l) = l` — the identity function; also the mandatory choice for
    /// fields with `F ≥ M`.
    Identity,
    /// `U(l) = l · d` with `d = M/F`: transformed elements are equally
    /// spaced through `Z_M`.
    U,
    /// `IU1(l) = l ⊕ l·d`: exactly one transformed element falls in each
    /// interval `[j·d, (j+1)·d)` (Lemma 5.4).
    Iu1,
    /// `IU2(l) = l ⊕ l·d ⊕ l·d₂` with `d₂ = d/F` when `F² < M` and `0`
    /// otherwise (in which case IU2 coincides with IU1).
    Iu2,
}

impl TransformKind {
    /// All four kinds, in paper order.
    pub const ALL: [TransformKind; 4] = [
        TransformKind::Identity,
        TransformKind::U,
        TransformKind::Iu1,
        TransformKind::Iu2,
    ];

    /// Short display name matching the paper's notation.
    pub fn name(self) -> &'static str {
        match self {
            TransformKind::Identity => "I",
            TransformKind::U => "U",
            TransformKind::Iu1 => "IU1",
            TransformKind::Iu2 => "IU2",
        }
    }
}

impl fmt::Display for TransformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete transformation instance `X^{M,|f|}` bound to a field size and
/// device count, with its shift amounts precomputed.
///
/// # Examples
///
/// ```
/// use pmr_core::transform::{Transform, TransformKind};
///
/// // Example 4 of the paper: f_k = {0..7}, M = 16 gives
/// // IU1(f_k) = {0, 3, 6, 5, 12, 15, 10, 9}.
/// let iu1 = Transform::new(TransformKind::Iu1, 8, 16).unwrap();
/// let image: Vec<u64> = (0..8).map(|l| iu1.apply(l)).collect();
/// assert_eq!(image, vec![0, 3, 6, 5, 12, 15, 10, 9]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transform {
    kind: TransformKind,
    field_size: u64,
    devices: u64,
    /// `log2 d` where `d = M/F` (0 for identity).
    shift1: u32,
    /// `log2 d₂` for IU2 when `F² < M`; `u32::MAX` encodes `d₂ = 0`.
    shift2: u32,
}

/// Sentinel for "no second shift" (`d₂ = 0`).
const NO_SHIFT: u32 = u32::MAX;

impl Transform {
    /// Builds a transform for a field of size `field_size` on `devices`
    /// devices.
    ///
    /// # Errors
    ///
    /// * [`Error::NotPowerOfTwo`] when either argument is not a power of
    ///   two.
    /// * [`Error::TransformRequiresSmallField`] when a non-identity kind is
    ///   requested for a field with `F ≥ M` — the paper defines `U`, `IU1`,
    ///   `IU2` only on proper subsets of `Z_M`.
    pub fn new(kind: TransformKind, field_size: u64, devices: u64) -> Result<Self> {
        if !is_power_of_two(field_size) {
            return Err(Error::NotPowerOfTwo { value: field_size });
        }
        let m_bits = log2_exact(devices)?;
        if kind != TransformKind::Identity && field_size >= devices {
            return Err(Error::TransformRequiresSmallField {
                field_size,
                devices,
            });
        }
        let f_bits = log2_exact(field_size).expect("validated above");
        let (shift1, shift2) = match kind {
            TransformKind::Identity => (0, NO_SHIFT),
            TransformKind::U | TransformKind::Iu1 => (m_bits - f_bits, NO_SHIFT),
            TransformKind::Iu2 => {
                let s1 = m_bits - f_bits;
                // d₂ = d/F = M / F², non-zero only when F² < M.
                let s2 = if 2 * f_bits < m_bits {
                    Some(s1 - f_bits)
                } else {
                    None
                };
                (s1, s2.unwrap_or(NO_SHIFT))
            }
        };
        Ok(Transform {
            kind,
            field_size,
            devices,
            shift1,
            shift2,
        })
    }

    /// Identity transform for any field (including `F ≥ M`).
    pub fn identity(field_size: u64, devices: u64) -> Result<Self> {
        Transform::new(TransformKind::Identity, field_size, devices)
    }

    /// The transformation family.
    #[inline]
    pub fn kind(&self) -> TransformKind {
        self.kind
    }

    /// The *effective* family for optimality reasoning: an `IU2` whose
    /// `F² ≥ M` behaves exactly as `IU1` ("when `F_k² ≥ M`, IU2
    /// transformation becomes the same as IU1 transformation"), so the
    /// sufficient-condition machinery must treat it as such.
    #[inline]
    pub fn effective_kind(&self) -> TransformKind {
        if self.kind == TransformKind::Iu2 && self.shift2 == NO_SHIFT {
            TransformKind::Iu1
        } else {
            self.kind
        }
    }

    /// Field size `F` this transform was built for.
    #[inline]
    pub fn field_size(&self) -> u64 {
        self.field_size
    }

    /// Device count `M` this transform was built for.
    #[inline]
    pub fn devices(&self) -> u64 {
        self.devices
    }

    /// The spacing `d = M/F` (1 for identity transforms).
    #[inline]
    pub fn d1(&self) -> u64 {
        1u64 << self.shift1
    }

    /// The second spacing `d₂` of IU2 (`0` when absent).
    #[inline]
    pub fn d2(&self) -> u64 {
        if self.shift2 == NO_SHIFT {
            0
        } else {
            1u64 << self.shift2
        }
    }

    /// Applies the transform to a field value.
    ///
    /// Branch-free on the hot path modulo one well-predicted match; every
    /// family is XOR/shift only. Values are taken modulo nothing — callers
    /// must pass `l < F` (debug-asserted).
    #[inline]
    pub fn apply(&self, l: u64) -> u64 {
        debug_assert!(
            l < self.field_size,
            "value {l} out of field range {}",
            self.field_size
        );
        match self.kind {
            TransformKind::Identity => l,
            TransformKind::U => l << self.shift1,
            TransformKind::Iu1 => l ^ (l << self.shift1),
            TransformKind::Iu2 => {
                let base = l ^ (l << self.shift1);
                if self.shift2 == NO_SHIFT {
                    base
                } else {
                    base ^ (l << self.shift2)
                }
            }
        }
    }

    /// The transform's full image `X(f)` as a vector indexed by `l`.
    pub fn image(&self) -> Vec<u64> {
        (0..self.field_size).map(|l| self.apply(l)).collect()
    }

    /// The device images `T_M(X(2^b))` of the field's bits. Every family
    /// is XOR and shift, so these fix the whole map: `T_M(X(l))` is the
    /// XOR of the images of `l`'s set bits. They are what
    /// [`FxDistribution`](crate::FxDistribution) stores.
    pub fn bit_images(&self) -> Vec<u64> {
        (0..self.field_size.trailing_zeros())
            .map(|b| t_m(self.apply(1 << b), self.devices))
            .collect()
    }
}

impl fmt::Display for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}^{{{},{}}}",
            self.kind.name(),
            self.devices,
            self.field_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rejects_large_fields_for_nonidentity() {
        for kind in [TransformKind::U, TransformKind::Iu1, TransformKind::Iu2] {
            assert!(matches!(
                Transform::new(kind, 16, 16).unwrap_err(),
                Error::TransformRequiresSmallField {
                    field_size: 16,
                    devices: 16
                }
            ));
            assert!(Transform::new(kind, 8, 16).is_ok());
        }
        // Identity is always legal.
        assert!(Transform::new(TransformKind::Identity, 64, 16).is_ok());
    }

    #[test]
    fn rejects_non_powers_of_two() {
        assert!(Transform::new(TransformKind::U, 6, 16).is_err());
        assert!(Transform::new(TransformKind::U, 4, 12).is_err());
    }

    /// Example 3: F = 4, M = 16 → U(f) = {0, 4, 8, 12}.
    #[test]
    fn u_transform_example_3() {
        let u = Transform::new(TransformKind::U, 4, 16).unwrap();
        assert_eq!(u.image(), vec![0, 4, 8, 12]);
        assert_eq!(u.d1(), 4);
    }

    /// Example 4: F = 8, M = 16 → IU1(f) = {0, 3, 6, 5, 12, 15, 10, 9}.
    #[test]
    fn iu1_transform_example_4() {
        let t = Transform::new(TransformKind::Iu1, 8, 16).unwrap();
        assert_eq!(t.image(), vec![0, 3, 6, 5, 12, 15, 10, 9]);
    }

    /// Example 5: F = 4, M = 16 → IU1(f) = {0, 5, 10, 15}.
    #[test]
    fn iu1_transform_example_5() {
        let t = Transform::new(TransformKind::Iu1, 4, 16).unwrap();
        assert_eq!(t.image(), vec![0, 5, 10, 15]);
    }

    /// Example 6: F = 2, M = 8 → IU1(f) = {0, 5}.
    #[test]
    fn iu1_transform_example_6() {
        let t = Transform::new(TransformKind::Iu1, 2, 8).unwrap();
        assert_eq!(t.image(), vec![0, 5]);
    }

    /// Example 7: F = 2, M = 16 → IU2(f) = {0, 13}.
    /// (d = 8, d₂ = 4: 1 ⊕ 8 ⊕ 4 = 13.)
    #[test]
    fn iu2_transform_example_7() {
        let t = Transform::new(TransformKind::Iu2, 2, 16).unwrap();
        assert_eq!(t.image(), vec![0, 13]);
        assert_eq!(t.d1(), 8);
        assert_eq!(t.d2(), 4);
        assert_eq!(t.effective_kind(), TransformKind::Iu2);
    }

    /// When F² ≥ M, IU2 must coincide with IU1 (d₂ = 0).
    #[test]
    fn iu2_degenerates_to_iu1() {
        let iu2 = Transform::new(TransformKind::Iu2, 8, 16).unwrap();
        let iu1 = Transform::new(TransformKind::Iu1, 8, 16).unwrap();
        assert_eq!(iu2.image(), iu1.image());
        assert_eq!(iu2.d2(), 0);
        assert_eq!(iu2.effective_kind(), TransformKind::Iu1);
        // F = 4, M = 16: F² = M, still degenerate ("F² < M" strictly).
        let iu2 = Transform::new(TransformKind::Iu2, 4, 16).unwrap();
        let iu1 = Transform::new(TransformKind::Iu1, 4, 16).unwrap();
        assert_eq!(iu2.image(), iu1.image());
        // F = 4, M = 64: genuine IU2.
        let iu2 = Transform::new(TransformKind::Iu2, 4, 64).unwrap();
        assert_eq!(iu2.d1(), 16);
        assert_eq!(iu2.d2(), 4);
        assert_eq!(iu2.effective_kind(), TransformKind::Iu2);
    }

    /// Lemma 5.1 / 7.1: every transform is injective into Z_M.
    #[test]
    fn injective_into_zm_exhaustive() {
        for m_bits in 1..=8u32 {
            let m = 1u64 << m_bits;
            for f_bits in 0..m_bits {
                let f = 1u64 << f_bits;
                for kind in TransformKind::ALL {
                    let t = Transform::new(kind, f, m).unwrap();
                    let image = t.image();
                    let set: HashSet<u64> = image.iter().copied().collect();
                    assert_eq!(set.len() as u64, f, "{t} not injective");
                    assert!(image.iter().all(|&v| v < m), "{t} escapes Z_M");
                }
            }
        }
    }

    /// Every family is GF(2)-linear: the bit images fix the whole map,
    /// for small fields and for the identity on large ones.
    #[test]
    fn bit_images_fix_the_map() {
        for m_bits in 1..=8u32 {
            let m = 1u64 << m_bits;
            for f_bits in 0..=m_bits + 2 {
                let f = 1u64 << f_bits;
                for kind in TransformKind::ALL {
                    let Ok(t) = Transform::new(kind, f, m) else {
                        continue;
                    };
                    let images = t.bit_images();
                    assert_eq!(images.len() as u32, f_bits);
                    for l in 0..f {
                        let xor = (0..f_bits)
                            .filter(|b| l >> b & 1 == 1)
                            .fold(0, |acc, b| acc ^ images[b as usize]);
                        assert_eq!(xor, t_m(t.apply(l), m), "{t} at l={l}");
                    }
                }
            }
        }
    }

    /// Lemma 5.4 / 7.2: IU1 and (genuine) IU2 place exactly one element in
    /// each interval `[j·d, (j+1)·d)`.
    #[test]
    fn one_element_per_interval() {
        for m_bits in 1..=9u32 {
            let m = 1u64 << m_bits;
            for f_bits in 0..m_bits {
                let f = 1u64 << f_bits;
                for kind in [TransformKind::Iu1, TransformKind::Iu2] {
                    let t = Transform::new(kind, f, m).unwrap();
                    let d = t.d1();
                    let mut interval_counts = vec![0u32; f as usize];
                    for v in t.image() {
                        interval_counts[(v / d) as usize] += 1;
                    }
                    assert!(
                        interval_counts.iter().all(|&c| c == 1),
                        "{t}: intervals {interval_counts:?}"
                    );
                }
            }
        }
    }

    /// U images are equally spaced: consecutive elements differ by d.
    #[test]
    fn u_is_equally_spaced() {
        for (f, m) in [(2u64, 8u64), (4, 32), (8, 64), (16, 512)] {
            let t = Transform::new(TransformKind::U, f, m).unwrap();
            let img = t.image();
            let d = t.d1();
            for w in img.windows(2) {
                assert_eq!(w[1] - w[0], d);
            }
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        let t = Transform::new(TransformKind::Iu1, 4, 16).unwrap();
        assert_eq!(t.to_string(), "IU1^{16,4}");
        assert_eq!(TransformKind::Iu2.to_string(), "IU2");
    }

    #[test]
    fn degenerate_field_size_one() {
        // F = 1: the single value 0 maps to 0 under every family.
        for kind in TransformKind::ALL {
            let t = Transform::new(kind, 1, 8).unwrap();
            assert_eq!(t.apply(0), 0);
            assert!(t.bit_images().is_empty());
        }
    }
}
