//! Partial match queries.
//!
//! A partial match query specifies exact hashed values for a subset of the
//! fields and leaves the rest unspecified; its answer is the set `R(q)` of
//! buckets agreeing with every specified value. [`PartialMatchQuery`] is the
//! value-level object; [`Pattern`] captures only *which* fields are
//! unspecified — the granularity at which the paper's optimality theory and
//! its evaluation operate.

use crate::error::{Error, Result};
use crate::system::SystemConfig;
use std::fmt;

/// Which fields of a query are unspecified, as a bitset over field indices
/// (bit `i` set ⇔ field `i` unspecified).
///
/// The paper writes this as `q(f)`, "the set of fields which are unspecified
/// for partial match query q". Patterns are the unit of enumeration for
/// k-optimality, the probability figures, and the response-size tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern(pub u32);

impl Pattern {
    /// The pattern with every field specified (an exact-match query).
    pub const EXACT: Pattern = Pattern(0);

    /// Builds a pattern from the list of unspecified field indices.
    pub fn from_unspecified(fields: &[usize]) -> Pattern {
        Pattern(fields.iter().fold(0u32, |acc, &i| acc | (1 << i)))
    }

    /// `true` when field `i` is unspecified.
    #[inline]
    pub fn is_unspecified(self, field: usize) -> bool {
        self.0 & (1 << field) != 0
    }

    /// Number of unspecified fields (`k` in "k-optimal").
    #[inline]
    pub fn unspecified_count(self) -> u32 {
        self.0.count_ones()
    }

    /// Unspecified field indices in increasing order.
    pub fn unspecified_fields(self, num_fields: usize) -> Vec<usize> {
        (0..num_fields)
            .filter(|&i| self.is_unspecified(i))
            .collect()
    }

    /// Specified field indices in increasing order.
    pub fn specified_fields(self, num_fields: usize) -> Vec<usize> {
        (0..num_fields)
            .filter(|&i| !self.is_unspecified(i))
            .collect()
    }

    /// Iterates over all `2^n` patterns of an `n`-field system, in
    /// increasing bitmask order.
    pub fn all(num_fields: usize) -> impl DoubleEndedIterator<Item = Pattern> {
        assert!(num_fields <= 32, "patterns are limited to 32 fields");
        // The last pattern, computed in u64 so that n = 32 cannot overflow.
        let last = ((1u64 << num_fields) - 1) as u32;
        (0..=last).map(Pattern)
    }

    /// Iterates over the patterns with exactly `k` unspecified fields.
    pub fn with_unspecified_count(num_fields: usize, k: u32) -> impl Iterator<Item = Pattern> {
        Pattern::all(num_fields).filter(move |p| p.unspecified_count() == k)
    }

    /// Number of distinct queries sharing this pattern: `∏ F_j` over the
    /// specified fields `j`.
    pub fn query_count(self, sys: &SystemConfig) -> u64 {
        (0..sys.num_fields())
            .filter(|&i| !self.is_unspecified(i))
            .map(|i| sys.field_size(i))
            .product()
    }

    /// `|R(q)|` for any query with this pattern: `∏ F_i` over the
    /// unspecified fields `i`.
    pub fn qualified_count(self, sys: &SystemConfig) -> u64 {
        (0..sys.num_fields())
            .filter(|&i| self.is_unspecified(i))
            .map(|i| sys.field_size(i))
            .product()
    }
}

/// A partial match query: per-field `Some(value)` (specified) or `None`
/// (unspecified).
///
/// # Examples
///
/// ```
/// use pmr_core::{PartialMatchQuery, SystemConfig};
///
/// let sys = SystemConfig::new(&[2, 8], 4).unwrap();
/// // The query the paper walks through after Example 1: field 1 fixed to
/// // (1)_B, field 2 unspecified — eight qualified buckets.
/// let q = PartialMatchQuery::new(&sys, &[Some(1), None]).unwrap();
/// assert_eq!(q.qualified_count_in(&sys), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PartialMatchQuery {
    values: Vec<Option<u64>>,
    pattern: Pattern,
}

impl PartialMatchQuery {
    /// Builds a query, validating arity and per-field ranges.
    ///
    /// # Errors
    ///
    /// * [`Error::ArityMismatch`] when `values.len() != n`.
    /// * [`Error::ValueOutOfRange`] when a specified value is `>= F_i`.
    pub fn new(sys: &SystemConfig, values: &[Option<u64>]) -> Result<Self> {
        if values.len() != sys.num_fields() {
            return Err(Error::ArityMismatch {
                expected: sys.num_fields(),
                got: values.len(),
            });
        }
        let mut pattern = 0u32;
        for (i, v) in values.iter().enumerate() {
            match v {
                Some(val) if *val >= sys.field_size(i) => {
                    return Err(Error::ValueOutOfRange {
                        field: i,
                        value: *val,
                        field_size: sys.field_size(i),
                    });
                }
                Some(_) => {}
                None => pattern |= 1 << i,
            }
        }
        Ok(PartialMatchQuery {
            values: values.to_vec(),
            pattern: Pattern(pattern),
        })
    }

    /// Builds the query with the given pattern whose specified values are
    /// all zero — the canonical representative used by the shift-invariance
    /// fast path in analysis.
    pub fn zero_representative(sys: &SystemConfig, pattern: Pattern) -> Self {
        let values = (0..sys.num_fields())
            .map(|i| {
                if pattern.is_unspecified(i) {
                    None
                } else {
                    Some(0)
                }
            })
            .collect();
        PartialMatchQuery { values, pattern }
    }

    /// Builds an exact-match query for one bucket.
    pub fn exact(sys: &SystemConfig, bucket: &[u64]) -> Result<Self> {
        sys.validate_bucket(bucket)?;
        Ok(PartialMatchQuery {
            values: bucket.iter().map(|&v| Some(v)).collect(),
            pattern: Pattern::EXACT,
        })
    }

    /// The per-field specification vector.
    #[inline]
    pub fn values(&self) -> &[Option<u64>] {
        &self.values
    }

    /// The query's [`Pattern`] (which fields are unspecified).
    #[inline]
    pub fn pattern(&self) -> Pattern {
        self.pattern
    }

    /// Number of unspecified fields.
    #[inline]
    pub fn unspecified_count(&self) -> u32 {
        self.pattern.unspecified_count()
    }

    /// `true` when the bucket satisfies every specified field.
    pub fn matches(&self, bucket: &[u64]) -> bool {
        debug_assert_eq!(bucket.len(), self.values.len());
        self.values
            .iter()
            .zip(bucket)
            .all(|(spec, &v)| spec.is_none_or(|s| s == v))
    }

    /// `|R(q)| = ∏ F_i` over unspecified fields.
    pub fn qualified_count_in(&self, sys: &SystemConfig) -> u64 {
        self.pattern.qualified_count(sys)
    }

    /// Iterates over `R(q)` — every qualified bucket — in odometer order
    /// (last unspecified field varies fastest).
    pub fn qualified_buckets<'a>(&'a self, sys: &'a SystemConfig) -> QualifiedBuckets<'a> {
        QualifiedBuckets::new(self, sys)
    }
}

impl fmt::Display for PartialMatchQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match v {
                Some(val) => write!(f, "{val}")?,
                None => write!(f, "*")?,
            }
        }
        write!(f, ">")
    }
}

/// One odometer digit of a [`QualifiedBuckets`] enumeration: an
/// unspecified field together with the packed-layout geometry needed to
/// advance the tuple and the packed code in lockstep.
#[derive(Debug, Clone, Copy)]
struct OdometerDigit {
    field: usize,
    /// `F_field`; the digit wraps when it reaches this.
    limit: u64,
    /// Bit offset of the field inside the packed code.
    shift: u32,
}

/// Iterator over the qualified buckets `R(q)` of a query.
///
/// Yields `&[u64]` views of an internal buffer via the lending-iterator
/// pattern (`next_bucket`), packed `u64` codes via [`next_code`] for
/// allocation-free hot loops, plus a standard [`Iterator`] implementation
/// that clones the buffer per item for convenience. `next_bucket` and
/// `next_code` share one cursor and yield the same enumeration order (last
/// unspecified field fastest), so interleaving them walks `R(q)` once.
///
/// [`next_code`]: QualifiedBuckets::next_code
pub struct QualifiedBuckets<'a> {
    query: &'a PartialMatchQuery,
    sys: &'a SystemConfig,
    /// Current bucket tuple; unspecified coordinates are the odometer.
    current: Vec<u64>,
    /// Packed code of `current`, maintained incrementally.
    code: u64,
    /// Unspecified fields as odometer digits, advanced from last to first.
    digits: Vec<OdometerDigit>,
    remaining: u64,
    started: bool,
}

impl<'a> QualifiedBuckets<'a> {
    fn new(query: &'a PartialMatchQuery, sys: &'a SystemConfig) -> Self {
        debug_assert_eq!(query.values.len(), sys.num_fields());
        let current: Vec<u64> = query.values.iter().map(|v| v.unwrap_or(0)).collect();
        let layout = sys.packed_layout();
        let code = layout.pack(&current);
        let digits = query
            .pattern
            .unspecified_fields(sys.num_fields())
            .into_iter()
            .map(|field| OdometerDigit {
                field,
                limit: sys.field_size(field),
                shift: layout.shift(field),
            })
            .collect();
        let remaining = query.qualified_count_in(sys);
        QualifiedBuckets {
            query,
            sys,
            current,
            code,
            digits,
            remaining,
            started: false,
        }
    }

    /// Total number of buckets this iterator will yield.
    pub fn len(&self) -> u64 {
        self.query.qualified_count_in(self.sys)
    }

    /// `true` when the query qualifies no buckets (impossible for valid
    /// queries — kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Advances the shared cursor; `true` when positioned on a bucket.
    #[inline]
    fn step(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        if !self.started {
            self.started = true;
            self.remaining -= 1;
            return true;
        }
        // Odometer increment over unspecified coordinates, last field
        // fastest; the packed code advances in lockstep (add `1 << shift`
        // to bump a field, clear its bit range on wrap).
        for d in self.digits.iter().rev() {
            self.current[d.field] += 1;
            if self.current[d.field] < d.limit {
                self.code += 1 << d.shift;
                self.remaining -= 1;
                return true;
            }
            self.current[d.field] = 0;
            self.code &= !((d.limit - 1) << d.shift);
        }
        // All digits wrapped: exhausted (remaining bookkeeping guarantees we
        // never reach this with remaining > 0 unless there are zero
        // unspecified fields, which the `started` branch already handled).
        self.remaining = 0;
        false
    }

    /// Lending-iterator step: advances to the next qualified bucket and
    /// returns a view of it, or `None` when exhausted. Use this in hot loops
    /// to avoid per-bucket allocation.
    pub fn next_bucket(&mut self) -> Option<&[u64]> {
        if self.step() {
            Some(&self.current)
        } else {
            None
        }
    }

    /// Packed twin of [`next_bucket`](Self::next_bucket): the next qualified
    /// bucket's packed code (= its linear index), or `None` when exhausted.
    /// No tuple is materialised; the code is maintained incrementally, so
    /// the per-bucket cost is one add (amortised) regardless of arity.
    pub fn next_code(&mut self) -> Option<u64> {
        if self.step() {
            Some(self.code)
        } else {
            None
        }
    }
}

impl Iterator for QualifiedBuckets<'_> {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_bucket().map(|b| b.to_vec())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for QualifiedBuckets<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys_2_8_m4() -> SystemConfig {
        SystemConfig::new(&[2, 8], 4).unwrap()
    }

    #[test]
    fn pattern_basics() {
        let p = Pattern::from_unspecified(&[0, 2]);
        assert!(p.is_unspecified(0));
        assert!(!p.is_unspecified(1));
        assert!(p.is_unspecified(2));
        assert_eq!(p.unspecified_count(), 2);
        assert_eq!(p.unspecified_fields(3), vec![0, 2]);
        assert_eq!(p.specified_fields(3), vec![1]);
    }

    #[test]
    fn pattern_enumeration() {
        assert_eq!(Pattern::all(3).count(), 8);
        assert_eq!(Pattern::all(0).collect::<Vec<_>>(), vec![Pattern::EXACT]);
        // 32 fields: the bound itself must not overflow `1u32 << 32`.
        let mut all_32 = Pattern::all(32);
        assert_eq!(all_32.next(), Some(Pattern::EXACT));
        assert_eq!(all_32.next_back(), Some(Pattern(u32::MAX)));
        assert_eq!(Pattern::with_unspecified_count(4, 2).count(), 6);
        assert_eq!(Pattern::with_unspecified_count(6, 3).count(), 20);
    }

    #[test]
    fn pattern_counts() {
        let sys = sys_2_8_m4();
        let p = Pattern::from_unspecified(&[1]);
        assert_eq!(p.qualified_count(&sys), 8);
        assert_eq!(p.query_count(&sys), 2);
        assert_eq!(Pattern::EXACT.qualified_count(&sys), 1);
        assert_eq!(Pattern::EXACT.query_count(&sys), 16);
    }

    #[test]
    fn query_validation() {
        let sys = sys_2_8_m4();
        assert!(PartialMatchQuery::new(&sys, &[Some(1), None]).is_ok());
        assert!(matches!(
            PartialMatchQuery::new(&sys, &[Some(2), None]).unwrap_err(),
            Error::ValueOutOfRange {
                field: 0,
                value: 2,
                field_size: 2
            }
        ));
        assert!(matches!(
            PartialMatchQuery::new(&sys, &[None]).unwrap_err(),
            Error::ArityMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    /// The paper's Theorem 1 walk-through: first field = (001)_B with the
    /// second unspecified must qualify eight buckets
    /// `<1,0> … <1,7>`.
    #[test]
    fn qualified_buckets_enumeration() {
        let sys = sys_2_8_m4();
        let q = PartialMatchQuery::new(&sys, &[Some(1), None]).unwrap();
        let got: Vec<Vec<u64>> = q.qualified_buckets(&sys).collect();
        let want: Vec<Vec<u64>> = (0..8).map(|j| vec![1, j]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn exact_query_yields_one_bucket() {
        let sys = sys_2_8_m4();
        let q = PartialMatchQuery::exact(&sys, &[1, 5]).unwrap();
        let got: Vec<Vec<u64>> = q.qualified_buckets(&sys).collect();
        assert_eq!(got, vec![vec![1, 5]]);
    }

    #[test]
    fn fully_unspecified_covers_space() {
        let sys = SystemConfig::new(&[2, 4, 2], 4).unwrap();
        let q = PartialMatchQuery::new(&sys, &[None, None, None]).unwrap();
        let got: Vec<Vec<u64>> = q.qualified_buckets(&sys).collect();
        assert_eq!(got.len() as u64, sys.total_buckets());
        let mut set = std::collections::HashSet::new();
        for b in &got {
            assert!(set.insert(sys.linear_index(b)));
        }
    }

    #[test]
    fn lending_iterator_matches_cloning_iterator() {
        let sys = SystemConfig::new(&[4, 2, 4], 8).unwrap();
        let q = PartialMatchQuery::new(&sys, &[None, Some(1), None]).unwrap();
        let cloned: Vec<Vec<u64>> = q.qualified_buckets(&sys).collect();
        let mut lent = Vec::new();
        let mut it = q.qualified_buckets(&sys);
        while let Some(b) = it.next_bucket() {
            lent.push(b.to_vec());
        }
        assert_eq!(cloned, lent);
        assert_eq!(cloned.len(), 16);
    }

    /// `next_code` yields exactly `linear_index(next_bucket)` in the same
    /// order, including across field wraps.
    #[test]
    fn next_code_matches_linear_index_of_next_bucket() {
        let sys = SystemConfig::new(&[4, 2, 8], 8).unwrap();
        for values in [
            [None, None, None],
            [Some(3), None, None],
            [None, Some(1), None],
            [None, None, Some(5)],
            [Some(2), Some(0), Some(7)],
        ] {
            let q = PartialMatchQuery::new(&sys, &values).unwrap();
            let mut by_bucket = Vec::new();
            let mut it = q.qualified_buckets(&sys);
            while let Some(b) = it.next_bucket() {
                by_bucket.push(sys.linear_index(b));
            }
            let mut by_code = Vec::new();
            let mut it = q.qualified_buckets(&sys);
            while let Some(c) = it.next_code() {
                by_code.push(c);
            }
            assert_eq!(by_bucket, by_code, "query {q}");
        }
    }

    /// The two lending steps share one cursor: interleaving them still
    /// walks `R(q)` exactly once.
    #[test]
    fn next_bucket_and_next_code_share_a_cursor() {
        let sys = sys_2_8_m4();
        let q = PartialMatchQuery::new(&sys, &[None, None]).unwrap();
        let mut want = Vec::new();
        let mut reference = q.qualified_buckets(&sys);
        while let Some(b) = reference.next_bucket() {
            want.push(sys.linear_index(b));
        }
        let mut it = q.qualified_buckets(&sys);
        let mut seen = Vec::new();
        while let Some(b) = it.next_bucket() {
            seen.push(sys.linear_index(b));
            match it.next_code() {
                Some(c) => seen.push(c),
                None => break,
            }
        }
        assert_eq!(seen, want);
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn matches_agrees_with_enumeration() {
        let sys = SystemConfig::new(&[4, 4], 4).unwrap();
        let q = PartialMatchQuery::new(&sys, &[Some(2), None]).unwrap();
        let mut buf = Vec::new();
        let by_filter: Vec<u64> = sys
            .all_indices()
            .filter(|&idx| {
                sys.decode_index(idx, &mut buf);
                q.matches(&buf)
            })
            .collect();
        let by_enum: Vec<u64> = q
            .qualified_buckets(&sys)
            .map(|b| sys.linear_index(&b))
            .collect();
        let mut sorted = by_enum.clone();
        sorted.sort_unstable();
        assert_eq!(by_filter, sorted);
    }

    #[test]
    fn zero_representative_has_pattern() {
        let sys = sys_2_8_m4();
        let p = Pattern::from_unspecified(&[1]);
        let q = PartialMatchQuery::zero_representative(&sys, p);
        assert_eq!(q.pattern(), p);
        assert_eq!(q.values(), &[Some(0), None]);
    }

    #[test]
    fn display_uses_star_for_unspecified() {
        let sys = sys_2_8_m4();
        let q = PartialMatchQuery::new(&sys, &[Some(1), None]).unwrap();
        assert_eq!(q.to_string(), "<1, *>");
    }

    #[test]
    fn size_hint_is_exact() {
        let sys = sys_2_8_m4();
        let q = PartialMatchQuery::new(&sys, &[None, None]).unwrap();
        let it = q.qualified_buckets(&sys);
        assert_eq!(it.size_hint(), (16, Some(16)));
    }
}
