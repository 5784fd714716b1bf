//! Inverse mapping: which qualified buckets live on *this* device?
//!
//! After distribution, each device answering a partial match query must
//! find the qualified buckets it stores — the paper calls this *inverse
//! mapping* and argues (§4.2, §5.2.2) that FX's XOR structure makes it
//! cheap, which matters for main-memory databases where address
//! computation dominates.
//!
//! Two paths are provided:
//!
//! * [`scan_device_buckets`] — generic: enumerate `R(q)` and filter by
//!   `device_of`. Works for any [`DistributionMethod`]; cost
//!   `O(|R(q)| · n)` per device, i.e. `M` times more total work than
//!   necessary when every device runs it.
//! * [`FxInverse`] — FX-specific: exploits
//!   `device = T_M(h ⊕ X_{i₁}(J_{i₁}) ⊕ … ⊕ X_{i_k}(J_{i_k}))` by indexing
//!   one unspecified field's values by their device-residue class and
//!   enumerating only the combinations of the *other* unspecified fields.
//!   Cost `O(|R(q)| / M)` amortised per device (output-sensitive): each
//!   device enumerates only what it owns, so the `M` devices collectively
//!   do `O(|R(q)|)` work.
//!
//! Both also come **routed** ([`for_each_routed_code`],
//! [`FxInverse::for_each_routed_code`]): one enumeration serves a whole
//! contiguous device range and hands each code to its device, so a
//! thread carrying several devices scans `R(q)` once, not once per
//! device. The per-device forms are the one-device case.

use crate::fx::FxDistribution;
use crate::method::DistributionMethod;
use crate::query::{PartialMatchQuery, Pattern};
use crate::system::SystemConfig;
use std::ops::Range;
use std::sync::Arc;

/// Generic inverse mapping: qualified buckets of `query` on `device`,
/// found by scanning `R(q)`.
///
/// Buckets are returned in query-odometer order. This allocates one
/// `Vec<u64>` per owned bucket — a compatibility shim over
/// [`for_each_device_bucket`]; hot paths should use the `for_each`
/// variants (or the packed [`for_each_device_code`]) instead.
pub fn scan_device_buckets<D: DistributionMethod + ?Sized>(
    method: &D,
    sys: &SystemConfig,
    query: &PartialMatchQuery,
    device: u64,
) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    for_each_device_bucket(method, sys, query, device, |b| out.push(b.to_vec()));
    out
}

/// Allocation-free generic inverse mapping: visits every qualified bucket
/// of `query` on `device` as a transient tuple view, in query-odometer
/// order.
pub fn for_each_device_bucket<D, F>(
    method: &D,
    sys: &SystemConfig,
    query: &PartialMatchQuery,
    device: u64,
    mut f: F,
) where
    D: DistributionMethod + ?Sized,
    F: FnMut(&[u64]),
{
    let mut it = query.qualified_buckets(sys);
    while let Some(bucket) = it.next_bucket() {
        if method.device_of(bucket) == device {
            f(bucket);
        }
    }
}

/// Packed generic inverse mapping: visits the packed code of every
/// qualified bucket of `query` on `device`, in query-odometer order.
///
/// Codes are linear indices ([`SystemConfig::packed_layout`]), so they key
/// device stores directly; the whole scan touches no tuple at all. This
/// is the one-device case of [`for_each_routed_code`].
pub fn for_each_device_code<D, F>(
    method: &D,
    sys: &SystemConfig,
    query: &PartialMatchQuery,
    device: u64,
    mut f: F,
) where
    D: DistributionMethod + ?Sized,
    F: FnMut(u64),
{
    for_each_routed_code(method, sys, query, device..device + 1, |_, code| f(code));
}

/// Routed generic inverse mapping: scans `R(q)` **once** and hands every
/// qualified code whose device lies in `devices` to `f(device, code)`.
///
/// Codes arrive in query-odometer order, so each device receives exactly
/// the codes [`for_each_device_code`] visits for it, in the same order.
/// One scan serves a whole contiguous device range: `|R(q)|` address
/// computations in total, instead of `|R(q)|` per device.
pub fn for_each_routed_code<D, F>(
    method: &D,
    sys: &SystemConfig,
    query: &PartialMatchQuery,
    devices: Range<u64>,
    mut f: F,
) where
    D: DistributionMethod + ?Sized,
    F: FnMut(u64, u64),
{
    // Odometer codes are drained into a reusable stack buffer and scored
    // in bulk through `device_of_batch`, so the per-code cost is one lane
    // of the batched kernel instead of a full scalar `device_of_packed`.
    // Matching codes are emitted in fill order, which is odometer order —
    // bit-equal to the scalar filter loop this replaces.
    const BATCH: usize = 64;
    let mut codes = [0u64; BATCH];
    let mut devs = [0u64; BATCH];
    let mut owned = 0u64;
    let mut it = query.qualified_buckets(sys);
    loop {
        let mut n = 0;
        while n < BATCH {
            match it.next_code() {
                Some(code) => {
                    codes[n] = code;
                    n += 1;
                }
                None => break,
            }
        }
        if n == 0 {
            break;
        }
        method.device_of_batch(&codes[..n], &mut devs[..n]);
        for i in 0..n {
            if devices.contains(&devs[i]) {
                owned += 1;
                f(devs[i], codes[i]);
            }
        }
        if n < BATCH {
            break;
        }
    }
    pmr_rt::obs::counter_add("inverse.codes_scanned", query.qualified_count_in(sys));
    pmr_rt::obs::counter_add("inverse.codes_enumerated", owned);
}

/// One free (non-pivot unspecified) field of an [`InversePlan`]: its index
/// plus the packed shift/mask needed to run the odometer directly on a
/// code.
#[derive(Debug, Clone, Copy)]
struct FreeField {
    field: usize,
    shift: u32,
    /// `F − 1` (pre-shift).
    mask: u64,
}

/// The pattern-level part of FX's fast inverse mapping: pivot choice and
/// pivot residue classes.
///
/// Everything here depends only on the (distribution, [`Pattern`]) pair —
/// the specified *values* of a concrete query enter later as the XOR
/// constant `h`, which by Lemma 1.1 merely rotates the residue lookup.
/// Plans are therefore built once per pattern and cached on the
/// distribution ([`FxDistribution::inverse_plan`]).
#[derive(Debug)]
pub struct InversePlan {
    pattern: Pattern,
    /// The pivot unspecified field, if any.
    pivot: Option<usize>,
    /// Unspecified fields other than the pivot, in field order.
    free_fields: Vec<FreeField>,
    /// For the pivot: residue class `T_M(X(J))` → values `J` in that class.
    pivot_classes: Vec<Vec<u64>>,
    /// The same classes with each value pre-shifted into packed position
    /// (`J << pivot_shift`), so emitting a code is a single OR.
    pivot_class_codes: Vec<Vec<u64>>,
}

impl InversePlan {
    /// Builds the plan for a pattern under `fx`. Exposed for
    /// [`FxDistribution::inverse_plan`]; use that accessor to get caching.
    pub fn build(fx: &FxDistribution, pattern: Pattern) -> InversePlan {
        let sys = fx.system();
        let layout = sys.packed_layout();
        let mut unspecified = pattern.unspecified_fields(sys.num_fields());
        // Pivot choice: the unspecified field with the largest size, so the
        // residue index carries the most pruning power (any choice is
        // correct; this one minimises the enumerated remainder).
        let pivot = unspecified
            .iter()
            .copied()
            .max_by_key(|&i| (sys.field_size(i), std::cmp::Reverse(i)));
        if let Some(p) = pivot {
            unspecified.retain(|&i| i != p);
        }
        let m = sys.devices();
        let (pivot_classes, pivot_class_codes) = match pivot {
            None => (Vec::new(), Vec::new()),
            Some(p) => {
                let shift = layout.shift(p);
                let mut classes = vec![Vec::new(); m as usize];
                let mut codes = vec![Vec::new(); m as usize];
                for j in 0..sys.field_size(p) {
                    let class = crate::bits::t_m(fx.apply_field(p, j), m) as usize;
                    classes[class].push(j);
                    codes[class].push(j << shift);
                }
                (classes, codes)
            }
        };
        let free_fields = unspecified
            .iter()
            .map(|&i| FreeField {
                field: i,
                shift: layout.shift(i),
                mask: layout.mask(i),
            })
            .collect();
        InversePlan {
            pattern,
            pivot,
            free_fields,
            pivot_classes,
            pivot_class_codes,
        }
    }

    /// The pattern this plan serves.
    #[inline]
    pub fn pattern(&self) -> Pattern {
        self.pattern
    }

    /// The pivot field, if the pattern has any unspecified field.
    #[inline]
    pub fn pivot(&self) -> Option<usize> {
        self.pivot
    }

    /// Pivot values in residue class `class` (empty for exact-match
    /// patterns). Class `c` holds exactly the `J` with `T_M(X_p(J)) = c`.
    #[inline]
    pub fn pivot_class(&self, class: u64) -> &[u64] {
        &self.pivot_classes[class as usize]
    }
}

/// FX-specific fast inverse mapping for one query.
///
/// Built once per (distribution, query) pair and then queried per device.
/// The *pivot* is the unspecified field whose transformed values are
/// indexed by residue class `T_M(X(J))`; all other unspecified fields are
/// enumerated by odometer and the pivot values completing the target device
/// are looked up in O(1).
///
/// # Examples
///
/// ```
/// use pmr_core::{FxDistribution, PartialMatchQuery, SystemConfig};
/// use pmr_core::inverse::FxInverse;
/// use pmr_core::method::DistributionMethod;
///
/// let sys = SystemConfig::new(&[2, 8], 4).unwrap();
/// let fx = FxDistribution::basic(sys.clone()).unwrap();
/// let q = PartialMatchQuery::new(&sys, &[Some(1), None]).unwrap();
/// let inv = FxInverse::new(&fx, &q);
/// // Device 0 holds <1,1> and <1,5> (Table 1).
/// assert_eq!(inv.buckets_on(0), vec![vec![1, 1], vec![1, 5]]);
/// ```
pub struct FxInverse<'a> {
    fx: &'a FxDistribution,
    /// XOR of transformed specified values.
    h: u64,
    /// Packed code of the query's specified values (unspecified bits 0).
    base_code: u64,
    /// The pattern-level plan (pivot + residue classes), from the
    /// distribution's per-pattern cache.
    plan: Arc<InversePlan>,
}

impl<'a> FxInverse<'a> {
    /// Prepares the inverse mapping for `query` under `fx`.
    ///
    /// The pattern-level work (pivot choice, residue classes) comes from
    /// the distribution's plan cache; only the query-specific XOR constant
    /// `h` and the packed base code are computed here.
    pub fn new(fx: &'a FxDistribution, query: &'a PartialMatchQuery) -> Self {
        let sys = fx.system();
        debug_assert_eq!(query.values().len(), sys.num_fields());
        let h = fx.specified_xor(query.values());
        let layout = sys.packed_layout();
        let base_code = query.values().iter().enumerate().fold(0u64, |acc, (i, v)| {
            acc | (v.unwrap_or(0) << layout.shift(i))
        });
        let plan = fx.inverse_plan(query.pattern());
        FxInverse {
            fx,
            h,
            base_code,
            plan,
        }
    }

    /// All qualified buckets of the query residing on `device`.
    pub fn buckets_on(&self, device: u64) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        self.for_each_bucket_on(device, |b| out.push(b.to_vec()));
        out
    }

    /// Number of qualified buckets on `device` — the device's response size
    /// `r_device(q)`, computed without materialising buckets.
    pub fn response_size(&self, device: u64) -> u64 {
        let mut count = 0u64;
        self.for_each_code_on(device, |_| count += 1);
        count
    }

    /// Visits every qualified bucket on `device`, passing a transient view
    /// of the bucket tuple. A convenience wrapper over
    /// [`FxInverse::for_each_code_on`] (one unpack per owned bucket).
    pub fn for_each_bucket_on<F: FnMut(&[u64])>(&self, device: u64, mut f: F) {
        let layout = self.fx.system().packed_layout();
        let mut buf = vec![0u64; layout.num_fields()];
        self.for_each_code_on(device, |code| {
            layout.unpack_into(code, &mut buf);
            f(&buf);
        });
    }

    /// Visits the packed code of every qualified bucket on `device` —
    /// the allocation-free hot path. Codes are linear indices, directly
    /// usable as device-store keys. The one-device case of
    /// [`FxInverse::for_each_routed_code`].
    ///
    /// Cost: `O(|R(q)| / F_pivot)` free-field odometer settings, each
    /// emitting exactly its share of owned buckets — `O(|R(q)| / M)`
    /// amortised per device, `O(|R(q)|)` across all `M` devices, versus
    /// `O(M · |R(q)|)` for the generic per-device scan.
    pub fn for_each_code_on<F: FnMut(u64)>(&self, device: u64, mut f: F) {
        self.for_each_routed_code(device..device + 1, |_, code| f(code));
    }

    /// Visits every qualified bucket on the devices in `devices` as
    /// `f(device, code)`, walking the free-field odometer **once** for
    /// the whole range. Each device receives exactly the codes
    /// [`FxInverse::for_each_code_on`] visits for it, in the same order.
    pub fn for_each_routed_code<F: FnMut(u64, u64)>(&self, devices: Range<u64>, mut f: F) {
        let sys = self.fx.system();
        let m = sys.devices();
        debug_assert!(devices.end <= m);
        let plan = &*self.plan;

        if plan.pivot.is_none() {
            // Exact-match query: single bucket, on the device its
            // address names.
            let device = crate::bits::t_m(self.h, m);
            if devices.contains(&device) {
                f(device, self.base_code);
                pmr_rt::obs::counter_add("inverse.codes_enumerated", 1);
            }
            return;
        }
        let mut emitted = 0u64;

        // Odometer over the non-pivot unspecified fields, run directly on
        // the packed code; for each setting, the pivot's transformed value
        // must satisfy
        //   T_M(h ⊕ acc ⊕ X_p(J_p)) = device
        // ⇔ T_M(X_p(J_p)) = device ⊕ T_M(h ⊕ acc),
        // so each device's candidates are exactly one residue class,
        // pre-shifted into packed position.
        let mut code = self.base_code;
        loop {
            let mut acc = self.h;
            for ff in &plan.free_fields {
                acc ^= self.fx.apply_field(ff.field, (code >> ff.shift) & ff.mask);
            }
            let rotation = crate::bits::t_m(acc, m);
            for device in devices.clone() {
                let class_codes = &plan.pivot_class_codes[(device ^ rotation) as usize];
                emitted += class_codes.len() as u64;
                for &jcode in class_codes {
                    debug_assert_eq!(self.fx.device_of_packed(code | jcode), device);
                    f(device, code | jcode);
                }
            }
            // Advance the free-field odometer (last field fastest).
            let mut advanced = false;
            for ff in plan.free_fields.iter().rev() {
                if (code >> ff.shift) & ff.mask < ff.mask {
                    code += 1u64 << ff.shift;
                    advanced = true;
                    break;
                }
                code &= !(ff.mask << ff.shift);
            }
            if !advanced {
                pmr_rt::obs::counter_add("inverse.codes_enumerated", emitted);
                return;
            }
        }
    }

    /// The pattern-level plan backing this inverse mapping.
    #[inline]
    pub fn plan(&self) -> &InversePlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::AssignmentStrategy;
    use crate::query::Pattern;
    use crate::system::SystemConfig;

    fn all_queries(sys: &SystemConfig) -> Vec<PartialMatchQuery> {
        let mut queries = Vec::new();
        for pattern in Pattern::all(sys.num_fields()) {
            crate::optimality::for_each_query(sys, pattern, |q| {
                queries.push(q.clone());
                true
            });
        }
        queries
    }

    /// The fast FX inverse agrees with the generic scan on every query of
    /// several small systems, for every device.
    #[test]
    fn fx_inverse_matches_scan_exhaustive() {
        let configs: [(&[u64], u64, AssignmentStrategy); 4] = [
            (&[2, 8], 4, AssignmentStrategy::Basic),
            (&[4, 4], 16, AssignmentStrategy::CycleIu1),
            (&[2, 4, 2], 8, AssignmentStrategy::CycleIu1),
            (&[4, 2, 2], 16, AssignmentStrategy::CycleIu2),
        ];
        for (fields, m, strategy) in configs {
            let sys = SystemConfig::new(fields, m).unwrap();
            let fx = FxDistribution::with_strategy(sys.clone(), strategy).unwrap();
            for q in all_queries(&sys) {
                let inv = FxInverse::new(&fx, &q);
                for device in 0..sys.devices() {
                    let mut fast = inv.buckets_on(device);
                    let mut slow = scan_device_buckets(&fx, &sys, &q, device);
                    fast.sort();
                    slow.sort();
                    assert_eq!(fast, slow, "{sys} query {q} device {device}");
                }
            }
        }
    }

    /// Response sizes from the inverse mapping match the forward histogram.
    #[test]
    fn response_sizes_match_histogram() {
        let sys = SystemConfig::new(&[4, 4, 2], 8).unwrap();
        let fx =
            FxDistribution::with_strategy(sys.clone(), AssignmentStrategy::TheoremNine).unwrap();
        for q in all_queries(&sys) {
            let hist = crate::optimality::response_histogram(&fx, &sys, &q);
            let inv = FxInverse::new(&fx, &q);
            for device in 0..sys.devices() {
                assert_eq!(inv.response_size(device), hist[device as usize]);
            }
        }
    }

    /// Union of per-device inverse mappings is exactly R(q), disjointly.
    #[test]
    fn inverse_partitions_qualified_set() {
        let sys = SystemConfig::new(&[4, 8], 8).unwrap();
        let fx = FxDistribution::auto(sys.clone()).unwrap();
        let q = PartialMatchQuery::new(&sys, &[None, None]).unwrap();
        let inv = FxInverse::new(&fx, &q);
        let mut seen = std::collections::HashSet::new();
        let mut total = 0u64;
        for device in 0..sys.devices() {
            for b in inv.buckets_on(device) {
                assert!(seen.insert(sys.linear_index(&b)), "duplicate bucket {b:?}");
                total += 1;
            }
        }
        assert_eq!(total, q.qualified_count_in(&sys));
    }

    /// Exact-match queries: the single bucket appears on exactly one device.
    #[test]
    fn exact_match_single_device() {
        let sys = SystemConfig::new(&[2, 8], 4).unwrap();
        let fx = FxDistribution::basic(sys.clone()).unwrap();
        let q = PartialMatchQuery::exact(&sys, &[1, 3]).unwrap();
        let inv = FxInverse::new(&fx, &q);
        let home = fx.device_of(&[1, 3]);
        for device in 0..sys.devices() {
            let buckets = inv.buckets_on(device);
            if device == home {
                assert_eq!(buckets, vec![vec![1, 3]]);
            } else {
                assert!(buckets.is_empty());
            }
        }
    }

    /// Packed enumeration (`for_each_code_on` / `for_each_device_code`)
    /// agrees with the tuple paths on every query of small systems.
    #[test]
    fn packed_paths_match_tuple_paths() {
        let configs: [(&[u64], u64, AssignmentStrategy); 3] = [
            (&[2, 8], 4, AssignmentStrategy::Basic),
            (&[2, 4, 2], 8, AssignmentStrategy::CycleIu1),
            (&[4, 2, 2], 16, AssignmentStrategy::CycleIu2),
        ];
        for (fields, m, strategy) in configs {
            let sys = SystemConfig::new(fields, m).unwrap();
            let fx = FxDistribution::with_strategy(sys.clone(), strategy).unwrap();
            for q in all_queries(&sys) {
                let inv = FxInverse::new(&fx, &q);
                for device in 0..sys.devices() {
                    let mut fast_codes = Vec::new();
                    inv.for_each_code_on(device, |c| fast_codes.push(c));
                    let mut scan_codes = Vec::new();
                    for_each_device_code(&fx, &sys, &q, device, |c| scan_codes.push(c));
                    let mut from_buckets: Vec<u64> = scan_device_buckets(&fx, &sys, &q, device)
                        .iter()
                        .map(|b| sys.linear_index(b))
                        .collect();
                    fast_codes.sort_unstable();
                    scan_codes.sort_unstable();
                    from_buckets.sort_unstable();
                    assert_eq!(fast_codes, scan_codes, "{sys} query {q} device {device}");
                    assert_eq!(fast_codes, from_buckets, "{sys} query {q} device {device}");
                }
            }
        }
    }

    /// The routed FX walk gives every device of every range exactly the
    /// codes `for_each_code_on` gives it, in the same order.
    #[test]
    fn routed_fx_walk_matches_per_device_walk() {
        let sys = SystemConfig::new(&[2, 4, 2], 8).unwrap();
        let fx = FxDistribution::with_strategy(sys.clone(), AssignmentStrategy::CycleIu1).unwrap();
        let m = sys.devices();
        for q in all_queries(&sys) {
            let inv = FxInverse::new(&fx, &q);
            for (start, end) in [(0, m), (0, 1), (2, 5), (m - 1, m)] {
                let mut routed = vec![Vec::new(); m as usize];
                inv.for_each_routed_code(start..end, |d, c| routed[d as usize].push(c));
                for device in 0..m {
                    let mut want = Vec::new();
                    if (start..end).contains(&device) {
                        inv.for_each_code_on(device, |c| want.push(c));
                    }
                    assert_eq!(
                        routed[device as usize], want,
                        "{q} {start}..{end} d{device}"
                    );
                }
            }
        }
    }

    /// Two queries sharing a pattern reuse the cached plan; the plan's
    /// residue classes partition the pivot's value range.
    #[test]
    fn plan_is_shared_across_queries_of_a_pattern() {
        let sys = SystemConfig::new(&[4, 8], 8).unwrap();
        let fx = FxDistribution::auto(sys.clone()).unwrap();
        let q1 = PartialMatchQuery::new(&sys, &[Some(1), None]).unwrap();
        let q2 = PartialMatchQuery::new(&sys, &[Some(3), None]).unwrap();
        let i1 = FxInverse::new(&fx, &q1);
        let i2 = FxInverse::new(&fx, &q2);
        assert!(
            std::ptr::eq(i1.plan(), i2.plan()),
            "same pattern, same plan"
        );
        let plan = i1.plan();
        assert_eq!(plan.pivot(), Some(1));
        let total: usize = (0..sys.devices()).map(|c| plan.pivot_class(c).len()).sum();
        assert_eq!(total as u64, sys.field_size(1));
    }

    #[test]
    fn scan_works_for_arbitrary_methods() {
        struct SumMod(SystemConfig);
        impl DistributionMethod for SumMod {
            fn device_of(&self, b: &[u64]) -> u64 {
                b.iter().sum::<u64>() % self.0.devices()
            }
            fn system(&self) -> &SystemConfig {
                &self.0
            }
            fn name(&self) -> String {
                "sum-mod".into()
            }
        }
        let sys = SystemConfig::new(&[4, 4], 4).unwrap();
        let m = SumMod(sys.clone());
        let q = PartialMatchQuery::new(&sys, &[None, Some(1)]).unwrap();
        let on_1 = scan_device_buckets(&m, &sys, &q, 1);
        assert_eq!(on_1, vec![vec![0, 1]]); // only 0+1 ≡ 1 (mod 4)
    }
}
