//! The devices a query touches, as an affine subspace of `Z_M`.
//!
//! Under FX every field transform (I, U, IU1, IU2) is XOR and shift, so
//! each image `X_i` is GF(2)-linear, and so is the truncation `T_M`. A
//! query's qualified buckets land on `T_M(h ⊕ ⨁ X_i(J_i))` over its
//! unspecified fields `i` (the identity behind Lemma 1.1 and Theorem 1).
//! As `J_i` runs over `0..F_i`, `X_i(J_i)` runs over the span of the
//! images of the field's bits, `X_i(2^b)`. So the device set is the
//! constant `T_M(h)` XOR the span of every `T_M(X_i(2^b))`: an affine
//! subspace, built from at most 63 bit images without enumerating one
//! bucket ([`crate::FxDistribution::device_set`]).

use std::ops::Range;

/// An affine subspace `base ⊕ span(basis)` of `Z_M`: the devices one FX
/// query's qualified buckets land on.
///
/// The basis is kept fully reduced: each vector owns a *pivot* (its
/// highest set bit) that no other vector and not the base has set. The
/// members' order then follows their coefficients: the `k`-th smallest
/// member is the base XOR the vectors picked by the bits of `k`, highest
/// pivot first. Membership, counting and range tests each take one pass
/// over the basis, `O(log M)`.
///
/// # Examples
///
/// ```
/// use pmr_core::device_set::DeviceSet;
///
/// let mut set = DeviceSet::single(5);
/// set.insert(2);
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![5, 7]);
/// assert!(set.meets(6..8));
/// assert!(!set.meets(0..5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSet {
    /// The smallest member (zero at every pivot).
    base: u64,
    /// The reduced basis, by pivot descending.
    basis: Vec<u64>,
}

/// The highest set bit of a nonzero `v`.
fn pivot(v: u64) -> u64 {
    1 << (63 - v.leading_zeros())
}

impl DeviceSet {
    /// The one-device set `{device}`.
    pub fn single(device: u64) -> DeviceSet {
        DeviceSet {
            base: device,
            basis: Vec::new(),
        }
    }

    /// Widens the set to `self ⊕ {0, v}`: adds `v` to the span. A `v`
    /// already in the span changes nothing.
    pub fn insert(&mut self, mut v: u64) {
        for &b in &self.basis {
            if v & pivot(b) != 0 {
                v ^= b;
            }
        }
        if v == 0 {
            return;
        }
        // `v` is zero at every existing pivot; clear its own pivot from
        // the others and from the base to keep the basis reduced.
        let p = pivot(v);
        for b in &mut self.basis {
            if *b & p != 0 {
                *b ^= v;
            }
        }
        if self.base & p != 0 {
            self.base ^= v;
        }
        let at = self.basis.partition_point(|&b| b > v);
        self.basis.insert(at, v);
    }

    /// The span's dimension: the set holds `2^dim` devices.
    pub fn dim(&self) -> u32 {
        self.basis.len() as u32
    }

    /// Whether `device` is in the set.
    pub fn contains(&self, device: u64) -> bool {
        let mut x = device ^ self.base;
        for &b in &self.basis {
            if x & pivot(b) != 0 {
                x ^= b;
            }
        }
        x == 0
    }

    /// Number of members below `bound`. Members grow with their
    /// coefficients, so a greedy walk from the highest pivot finds the
    /// largest member below `bound`; its coefficients plus one are the
    /// count.
    fn count_below(&self, bound: u64) -> u64 {
        if self.base >= bound {
            return 0;
        }
        let dim = self.dim();
        let (mut k, mut member) = (0u64, self.base);
        for (j, &b) in self.basis.iter().enumerate() {
            let next = member ^ b;
            if next < bound {
                member = next;
                k |= 1 << (dim - 1 - j as u32);
            }
        }
        k + 1
    }

    /// Whether any member lies in `range`.
    pub fn meets(&self, range: Range<u64>) -> bool {
        range.start < range.end && self.count_below(range.end) > self.count_below(range.start)
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let dim = self.dim();
        (0..1u64 << dim).map(move |k| {
            self.basis
                .iter()
                .enumerate()
                .filter(|&(j, _)| k >> (dim - 1 - j as u32) & 1 == 1)
                .fold(self.base, |acc, (_, &b)| acc ^ b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::DeviceSet;

    /// Brute force over every subset of a few generators: the reduced
    /// set agrees with the explicit XOR closure on membership, order,
    /// counts and range tests.
    #[test]
    fn matches_explicit_closure() {
        let cases: [(u64, &[u64]); 5] = [
            (0, &[]),
            (9, &[4]),
            (3, &[6, 5, 3]),
            (13, &[12, 8, 4, 1]),
            (21, &[7, 7, 16, 9, 30]),
        ];
        for (base, gens) in cases {
            let mut set = DeviceSet::single(base);
            let mut closure = vec![base];
            for &g in gens {
                set.insert(g);
                let shifted: Vec<u64> = closure.iter().map(|&c| c ^ g).collect();
                closure.extend(shifted);
                closure.sort_unstable();
                closure.dedup();
            }
            assert_eq!(set.iter().collect::<Vec<_>>(), closure, "{base} {gens:?}");
            assert_eq!(1 << set.dim(), closure.len());
            for x in 0..40 {
                assert_eq!(set.contains(x), closure.contains(&x), "contains {x}");
                let below = closure.iter().filter(|&&c| c < x).count() as u64;
                assert_eq!(set.count_below(x), below, "count_below {x}");
                for end in x..40 {
                    let hit = closure.iter().any(|c| (x..end).contains(c));
                    assert_eq!(set.meets(x..end), hit, "meets {x}..{end}");
                }
            }
        }
    }

    #[test]
    fn a_full_span_meets_every_range() {
        let mut set = DeviceSet::single(6);
        for b in [1, 2, 4] {
            set.insert(b);
        }
        assert_eq!(set.dim(), 3);
        assert_eq!(set.iter().next(), Some(0), "the base reduces to zero");
        assert!((0..8).all(|d| set.meets(d..d + 1)));
    }
}
