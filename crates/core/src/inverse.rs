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
//! * [`FxInverse`] — FX-specific: one coset walk. A qualified bucket
//!   lands on `T_M(h ⊕ X_{i₁}(J_{i₁}) ⊕ … ⊕ X_{i_k}(J_{i_k})) = T_M(h) ⊕
//!   L(x)`, `L` a GF(2)-linear map of the query's open bits `x`, so a
//!   device's qualified buckets are empty or one coset of `L`'s kernel.
//!   One elimination of the open bits, in *key order* (the
//!   [`pivot_field`]'s bits least significant, then the other open
//!   fields from last to first), gives at most `log2 M` rows, which step
//!   from one owning device to the next larger, and a kernel basis,
//!   which steps through each device's codes in ascending key order:
//!   one XOR per owning device and one per code. Cost `O(|R(q)| / M)`
//!   per device on a balanced query (output-sensitive): each device
//!   enumerates only what it owns, so the `M` devices collectively do
//!   `O(|R(q)|)` work. Only XOR, shift and AND — the paper's case for FX.
//!
//! Both also come **routed** ([`for_each_routed_code`],
//! [`FxInverse::for_each_routed_code`]): one call serves a whole
//! contiguous device range and hands each code to its device, so a
//! thread carrying several devices scans `R(q)` once, not once per
//! device. The scan's routed output is in query-odometer order; the FX
//! walk's is device-major (each device's codes contiguous, devices
//! ascending). Either way each device receives exactly its per-device
//! sequence, in order; the per-device forms are the one-device case.

use crate::bits::t_m;
use crate::device_set::pivot as pivot_bit;
use crate::fx::FxDistribution;
use crate::method::DistributionMethod;
use crate::query::{PartialMatchQuery, Pattern};
use crate::system::SystemConfig;
use std::ops::Range;

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
    pmr_rt::obs::INVERSE_CODES_SCANNED.add(query.qualified_count_in(sys));
    pmr_rt::obs::INVERSE_CODES_ENUMERATED.add(owned);
}

/// The fast inverse's pivot for `pattern`: the open field with the
/// largest size, ties going to the lowest index, or `None` for an
/// exact-match pattern.
///
/// The pivot's bits are the least significant of [`FxInverse`]'s key
/// order. The paper's cost model charges one lookup per setting of the
/// *other* open fields, `|R(q)| / F_pivot` per device, and the largest
/// pivot makes that fewest. Depends only on the system and the pattern,
/// so a planner can read it without building an [`FxInverse`].
pub fn pivot_field(sys: &SystemConfig, pattern: Pattern) -> Option<usize> {
    (0..sys.num_fields())
        .filter(|&i| pattern.is_unspecified(i))
        .max_by_key(|&i| (sys.field_size(i), std::cmp::Reverse(i)))
}

/// Capacity of an [`FxInverse`]'s rows and kernel steps: a packed code
/// has at most 63 bits, so a query has at most 63 open bits.
const MAX_OPEN_BITS: usize = 64;

/// FX-specific fast inverse mapping for one query: one coset walk.
///
/// The qualified buckets on device `d` are the settings `x` of the
/// query's open bits with `L(x) = d ⊕ T_M(h)`, where `L` is the linear
/// map from open bits to devices. That set is empty or one coset of
/// `L`'s kernel. [`FxInverse::new`] eliminates the `(device image, code
/// bit)` pairs of every open bit over GF(2), in *key order*: the pivot
/// field's ([`pivot_field`]) bits least significant, then the other open
/// fields from last to first, each field's bits low to high. That yields
/// reduced rows and a reduced kernel basis. The rows span the devices
/// that own codes, `T_M(h) ⊕ span(L)`, and each row carries the smallest
/// setting that moves a device's solution by its image; the kernel
/// basis steps from one member of a device's coset to the next larger.
/// Both walks count in binary over a basis sorted by pivot, so devices
/// come in ascending order and each device's codes in ascending key
/// order, one XOR per device and one per code. A device that owns
/// nothing costs nothing. Nothing is tabled, shared, locked or
/// allocated.
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
    /// The smallest device that owns codes, and its smallest code.
    first: (u64, u64),
    /// `rows[t]`: the XOR of the rows `0..=t` as `(image, code)`, rows by
    /// pivot (highest image bit) ascending — the change from the `k`-th
    /// owning device and its smallest code to the `(k + 1)`-th, for `t`
    /// the trailing zeros of `k + 1`. Each row's image owns its pivot (no
    /// other row's image, nor the first device, has it set), and its code
    /// is zero at every kernel pivot.
    rows: [(u64, u64); MAX_OPEN_BITS],
    rank: usize,
    /// `steps[t]`: the XOR of the kernel basis vectors `0..=t` (by key
    /// pivot ascending) — the change from a coset's `k`-th smallest member
    /// to its `(k + 1)`-th, for `t` the trailing zeros of `k + 1`.
    steps: [u64; MAX_OPEN_BITS],
    dim: usize,
}

impl<'a> FxInverse<'a> {
    /// Prepares the inverse mapping for `query` under `fx`: the
    /// elimination of the open bits in key order, and the smallest device
    /// that owns codes.
    pub fn new(fx: &'a FxDistribution, query: &'a PartialMatchQuery) -> Self {
        let sys = fx.system();
        debug_assert_eq!(query.values().len(), sys.num_fields());
        let layout = sys.packed_layout();
        let base_code = query.values().iter().enumerate().fold(0u64, |acc, (i, v)| {
            acc | (v.unwrap_or(0) << layout.shift(i))
        });
        let pattern = query.pattern();
        let pivot = pivot_field(sys, pattern);
        let others = (0..sys.num_fields())
            .rev()
            .filter(|&i| pattern.is_unspecified(i) && Some(i) != pivot);
        let mut inv = FxInverse {
            fx,
            first: (0, 0),
            rows: [(0, 0); MAX_OPEN_BITS],
            rank: 0,
            steps: [0; MAX_OPEN_BITS],
            dim: 0,
        };
        // `steps` holds the kernel vectors until the end; `key_pivots[t]`
        // is the code bit of the open bit that produced vector `t`, its
        // highest in key order.
        let mut key_pivots = [0u8; MAX_OPEN_BITS];
        for field in pivot.into_iter().chain(others) {
            for (b, &image) in fx.images()[field].iter().enumerate() {
                let bit = layout.shift(field) + b as u32;
                let (mut v, mut code) = (image, 1u64 << bit);
                for &(rv, rc) in &inv.rows[..inv.rank] {
                    if v & pivot_bit(rv) != 0 {
                        v ^= rv;
                        code ^= rc;
                    }
                }
                if v == 0 {
                    // `code` maps to zero. It holds only bits eliminated so
                    // far, so `bit` is its key pivot, which no earlier
                    // vector has; clearing the earlier pivots from it
                    // keeps the kernel basis reduced.
                    for (&k, &kp) in inv.steps[..inv.dim].iter().zip(&key_pivots) {
                        if (code >> kp) & 1 != 0 {
                            code ^= k;
                        }
                    }
                    inv.steps[inv.dim] = code;
                    key_pivots[inv.dim] = bit as u8;
                    inv.dim += 1;
                    continue;
                }
                for row in &mut inv.rows[..inv.rank] {
                    if row.0 & pivot_bit(v) != 0 {
                        row.0 ^= v;
                        row.1 ^= code;
                    }
                }
                inv.rows[inv.rank] = (v, code);
                inv.rank += 1;
            }
        }
        // Kernel vectors map to zero, so clearing the kernel pivots from a
        // row's code keeps its image and makes every solution the smallest
        // member of its coset.
        let rows = &mut inv.rows[..inv.rank];
        for (&k, &kp) in inv.steps[..inv.dim].iter().zip(&key_pivots) {
            for row in rows.iter_mut() {
                if (row.1 >> kp) & 1 != 0 {
                    row.1 ^= k;
                }
            }
        }
        // Sorted by value is sorted by pivot (the pivots are distinct), so
        // owning devices ascend with their index. Reducing `T_M(h)` by the
        // rows gives the smallest owning device and the setting reaching it.
        rows.sort_unstable();
        let mut first = (
            t_m(fx.specified_xor(query.values()), sys.devices()),
            base_code,
        );
        for &(image, code) in rows.iter() {
            if first.0 & pivot_bit(image) != 0 {
                first.0 ^= image;
                first.1 ^= code;
            }
        }
        inv.first = first;
        prefix_xor(rows);
        let mut acc = 0;
        for step in &mut inv.steps[..inv.dim] {
            acc ^= *step;
            *step = acc;
        }
        inv
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
    /// the allocation-free hot path — in ascending key order (see
    /// [`FxInverse`]). Codes are linear indices, directly usable as
    /// device-store keys. The one-device case of
    /// [`FxInverse::for_each_routed_code`].
    ///
    /// Cost: one pass over at most `log2 M` rows, then one XOR per owned
    /// bucket — `O(|R(q)| / M)` per device on a balanced query, versus
    /// `O(|R(q)|)` for the generic per-device scan.
    pub fn for_each_code_on<F: FnMut(u64)>(&self, device: u64, mut f: F) {
        self.for_each_routed_code(device..device + 1, |_, code| f(code));
    }

    /// Visits every qualified bucket on the devices in `devices` as
    /// `f(device, code)`. The output is device-major: devices go in
    /// ascending order, and each device's codes come contiguously, in the
    /// order [`FxInverse::for_each_code_on`] visits them. Finding the
    /// range's first owning device is one pass over the rows; then each
    /// owning device costs one XOR, and a device that owns nothing is
    /// never visited.
    pub fn for_each_routed_code<F: FnMut(u64, u64)>(&self, devices: Range<u64>, mut f: F) {
        debug_assert!(devices.end <= self.fx.system().devices());
        let rows = &self.rows[..self.rank];
        let steps = &self.steps[..self.dim];
        let owners = 1u64 << self.rank;
        let per_device = 1u64 << self.dim;
        // Owning devices ascend with their index `k`, so the first at or
        // past the range is one past the last below it, found greedily
        // from the highest pivot (see `DeviceSet`).
        let (mut k, (mut device, mut code)) = (0, self.first);
        if device < devices.start {
            for t in (0..self.rank).rev() {
                let row = row_at(rows, t);
                if device ^ row.0 < devices.start {
                    device ^= row.0;
                    code ^= row.1;
                    k |= 1 << t;
                }
            }
            k += 1;
            if k < owners {
                let (d, c) = rows[k.trailing_zeros() as usize];
                device ^= d;
                code ^= c;
            }
        }
        let mut emitted = 0;
        while k < owners && device < devices.end {
            let mut member = code;
            for j in 0..per_device {
                if j > 0 {
                    member ^= steps[j.trailing_zeros() as usize];
                }
                debug_assert_eq!(self.fx.device_of_packed(member), device);
                f(device, member);
            }
            emitted += per_device;
            k += 1;
            if k < owners {
                let (d, c) = rows[k.trailing_zeros() as usize];
                device ^= d;
                code ^= c;
            }
        }
        pmr_rt::obs::INVERSE_CODES_ENUMERATED.add(emitted);
    }
}

/// Turns `rows` into its prefix XORs, in place.
fn prefix_xor(rows: &mut [(u64, u64)]) {
    for t in 1..rows.len() {
        rows[t].0 ^= rows[t - 1].0;
        rows[t].1 ^= rows[t - 1].1;
    }
}

/// Row `t` of prefix XORs `rows`.
fn row_at(rows: &[(u64, u64)], t: usize) -> (u64, u64) {
    match t {
        0 => rows[0],
        _ => (rows[t].0 ^ rows[t - 1].0, rows[t].1 ^ rows[t - 1].1),
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

    /// With `M = 2^17` devices the fast inverse still routes every
    /// qualified code to its device, once.
    #[test]
    fn inverse_without_class_tables_routes_every_code() {
        let sys = SystemConfig::new(&[4, 8, 2], 1 << 17).unwrap();
        let fx = FxDistribution::auto(sys.clone()).unwrap();
        for q in all_queries(&sys) {
            let mut routed = Vec::new();
            FxInverse::new(&fx, &q).for_each_routed_code(0..sys.devices(), |d, code| {
                assert_eq!(fx.device_of_packed(code), d, "{q}");
                routed.push(code);
            });
            let mut want = Vec::new();
            let mut it = q.qualified_buckets(&sys);
            while let Some(code) = it.next_code() {
                want.push(code);
            }
            routed.sort_unstable();
            want.sort_unstable();
            assert_eq!(routed, want, "{q}");
        }
    }

    /// Explicit maps — non-identity onto maps on fields with `F ≥ M`
    /// among them — route every qualified code to its device, once, on
    /// small `M` and on `M = 2^17`.
    #[test]
    fn explicit_maps_route_every_code() {
        let cases = [
            (
                &[16u64, 4, 8][..],
                4,
                vec![vec![3, 1, 0, 2], vec![1, 3], vec![2, 2, 1]],
            ),
            (
                &[8, 2, 32][..],
                8,
                vec![vec![6, 3, 1], vec![5], vec![7, 0, 1, 2, 7]],
            ),
            (
                &[64, 2][..],
                1 << 17,
                vec![(0..6).map(|b| 3 << (2 * b)).collect(), vec![1 << 16]],
            ),
        ];
        for (fields, m, images) in cases {
            let sys = SystemConfig::new(fields, m).unwrap();
            let fx = FxDistribution::from_images(sys.clone(), images).unwrap();
            for q in all_queries(&sys) {
                let mut seen = Vec::new();
                FxInverse::new(&fx, &q).for_each_routed_code(0..m, |d, code| {
                    assert_eq!(fx.device_of_packed(code), d, "{q}");
                    seen.push(code);
                });
                let mut want = Vec::new();
                let mut it = q.qualified_buckets(&sys);
                while let Some(code) = it.next_code() {
                    want.push(code);
                }
                seen.sort_unstable();
                want.sort_unstable();
                assert_eq!(seen, want, "{sys} {q}");
            }
        }
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

    /// The pivot is the largest open field, ties to the lowest index, and
    /// the devices' cosets partition a one-open query's values.
    #[test]
    fn pivot_is_largest_open_field_and_classes_partition_it() {
        let sys = SystemConfig::new(&[4, 8, 8, 16], 8).unwrap();
        let pivot = |open: &[usize]| pivot_field(&sys, Pattern::from_unspecified(open));
        assert_eq!(pivot(&[]), None);
        assert_eq!(pivot(&[0, 1]), Some(1));
        assert_eq!(pivot(&[1, 2]), Some(1));
        assert_eq!(pivot(&[0, 2, 3]), Some(3));
        let fx = FxDistribution::auto(sys.clone()).unwrap();
        for field in 0..sys.num_fields() {
            let mut values = vec![Some(0); sys.num_fields()];
            values[field] = None;
            let q = PartialMatchQuery::new(&sys, &values).unwrap();
            let inv = FxInverse::new(&fx, &q);
            let layout = sys.packed_layout();
            let mut seen = Vec::new();
            for device in 0..sys.devices() {
                inv.for_each_code_on(device, |code| seen.push(layout.field(code, field)));
            }
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..sys.field_size(field)).collect::<Vec<_>>(),
                "field {field}"
            );
        }
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
