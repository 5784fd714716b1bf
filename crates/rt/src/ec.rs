//! GF(2^8) Reed–Solomon erasure coding for the parity redundancy tier.
//!
//! A `k + r` systematic code over GF(2^8) (polynomial `0x11d`): `k` data
//! shards are kept verbatim and `r` parity shards are derived such that
//! **any** `k` of the `k + r` shards reconstruct the original data —
//! i.e. any `r` simultaneous losses are survivable at `r/k` storage
//! overhead, where buddy mirroring pays `1x` to survive a single loss.
//!
//! The construction is polynomial evaluation: the data shards are the
//! values of a degree `< k` polynomial at the field points `0..k`, and
//! parity shard `i` is its value at point `k + i`. Encoding and decoding
//! are both Lagrange interpolation — the encode matrix rows are the
//! Lagrange coefficients of the parity points (a systematic Vandermonde
//! code), and reconstruction interpolates the missing points from any
//! `k` survivors. Field arithmetic runs on `const`-built log/exp tables,
//! so the codec is pure `std` and allocation is confined to shard
//! buffers.
//!
//! The API works on raw equal-length payloads, no framing:
//! [`ReedSolomon::parity_of`] derives a stripe's parity shards,
//! [`ReedSolomon::fold_into`] folds one data shard's change into one
//! parity shard, [`ReedSolomon::interpolate_into`] rebuilds one shard
//! from any `k` survivors, and [`ReedSolomon::reconstruct`] fills every
//! missing one. The storage layer's `ParityStore` keeps its stripes'
//! parity current by folding each appended page tail with `fold_into`,
//! rebuilds one page with `interpolate_into`, and keeps its own
//! per-member lengths and CRCs ([`crc32`], extended over appends by
//! [`crc32_extend`]).
//!
//! ```
//! use pmr_rt::ec::ReedSolomon;
//!
//! let rs = ReedSolomon::new(4, 2).unwrap();
//! let data: [&[u8]; 4] = [b"part", b"ial ", b"matc", b"h rt"];
//! let parity = rs.parity_of(&data).unwrap();
//! let mut stripe: Vec<Option<Vec<u8>>> = data
//!     .iter()
//!     .map(|d| Some(d.to_vec()))
//!     .chain(parity.into_iter().map(Some))
//!     .collect();
//! stripe[1] = None; // lose a data shard
//! stripe[4] = None; // and a parity shard
//! rs.reconstruct(&mut stripe).unwrap();
//! assert_eq!(stripe[1].as_deref(), Some(&b"ial "[..]));
//! ```

/// The GF(2^8) reduction polynomial `x^8 + x^4 + x^3 + x^2 + 1`.
const GF_POLY: u16 = 0x11d;

/// Exponent table, doubled so `EXP[log a + log b]` needs no `% 255`.
static GF_EXP: [u8; 512] = build_gf_tables().0;
/// Discrete-log table; `LOG[0]` is unused (zero has no logarithm).
static GF_LOG: [u8; 256] = build_gf_tables().1;

const fn build_gf_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= GF_POLY;
        }
        i += 1;
    }
    while i < 512 {
        exp[i] = exp[i - 255];
        i += 1;
    }
    (exp, log)
}

/// GF(2^8) product.
#[inline]
fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        GF_EXP[GF_LOG[a as usize] as usize + GF_LOG[b as usize] as usize]
    }
}

/// GF(2^8) quotient; `b` must be non-zero.
#[inline]
fn gf_div(a: u8, b: u8) -> u8 {
    debug_assert!(b != 0, "division by zero in GF(2^8)");
    if a == 0 {
        0
    } else {
        GF_EXP[255 + GF_LOG[a as usize] as usize - GF_LOG[b as usize] as usize]
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) slicing-by-8
/// tables: `CRC_TABLES[0]` is the bytewise table, and `CRC_TABLES[t][b]`
/// is the CRC state contribution of byte `b` followed by `t` zero bytes,
/// so one 8-byte step is eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE) of `bytes` — the shard and stripe-member checksum:
/// [`crc32_extend`] from the empty message's CRC, 0.
///
/// ```
/// assert_eq!(pmr_rt::ec::crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(pmr_rt::ec::crc32(b""), 0);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// The CRC-32 of `a ++ bytes`, given `crc = crc32(a)`: CRC-32 streams,
/// so a page's checksum follows its appends without rereading the
/// bytes it already covered. Eight bytes per step (slicing-by-8), then
/// a bytewise remainder.
///
/// ```
/// use pmr_rt::ec::{crc32, crc32_extend};
/// assert_eq!(crc32_extend(crc32(b"12345"), b"6789"), crc32(b"123456789"));
/// ```
pub fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Why an erasure-coding operation could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcError {
    /// `k` or `r` outside the field: need `k >= 1`, `r >= 1`, and
    /// `k + r <= 256` evaluation points in GF(2^8).
    BadGeometry {
        /// Requested data-shard count.
        k: usize,
        /// Requested parity-shard count.
        r: usize,
    },
    /// A shard slice had the wrong number of entries for this code.
    ShardCount {
        /// `k + r` for this code (or `k` where only data is accepted).
        expected: usize,
        /// What the caller passed.
        got: usize,
    },
    /// Shard payloads disagreed in length (all must match).
    ShardLen {
        /// Length of the first payload seen.
        expected: usize,
        /// The mismatched length.
        got: usize,
    },
    /// A shard index outside `0..k + r`, or a source index not above
    /// the one before it ([`ReedSolomon::interpolate_into`]).
    ShardIndex {
        /// The offending index.
        index: usize,
    },
    /// Fewer than `k` usable shards survived (losses plus CRC
    /// rejections exceeded `r`).
    TooFewShards {
        /// Usable shard count after CRC rejection.
        have: usize,
        /// The `k` needed to decode.
        needed: usize,
    },
}

impl std::fmt::Display for EcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcError::BadGeometry { k, r } => write!(
                f,
                "unsupported geometry k={k} r={r}: need k >= 1, r >= 1, k + r <= 256"
            ),
            EcError::ShardCount { expected, got } => {
                write!(f, "expected {expected} shards, got {got}")
            }
            EcError::ShardLen { expected, got } => {
                write!(f, "shard payload length {got} != {expected}")
            }
            EcError::ShardIndex { index } => {
                write!(f, "shard index {index} out of range or out of order")
            }
            EcError::TooFewShards { have, needed } => {
                write!(f, "only {have} usable shards, need {needed} to decode")
            }
        }
    }
}

impl std::error::Error for EcError {}

/// A systematic `k + r` Reed–Solomon code over GF(2^8).
///
/// Construction precomputes the `r x k` parity (Lagrange/Vandermonde)
/// matrix; encode is then `r` multiply-accumulate passes over the data
/// payloads and reconstruction solves only the missing points.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    k: usize,
    r: usize,
    /// `parity_rows[i][j]` is the coefficient of data shard `j` in
    /// parity shard `i`: the Lagrange basis value `L_j(k + i)`.
    parity_rows: Vec<Vec<u8>>,
}

impl ReedSolomon {
    /// Builds the code, precomputing the parity matrix.
    ///
    /// # Errors
    ///
    /// [`EcError::BadGeometry`] unless `k >= 1`, `r >= 1`, and
    /// `k + r <= 256` (the field has only 256 evaluation points).
    pub fn new(k: usize, r: usize) -> Result<ReedSolomon, EcError> {
        if k == 0 || r == 0 || k + r > 256 {
            return Err(EcError::BadGeometry { k, r });
        }
        let data_points: Vec<u8> = (0..k as u16).map(|p| p as u8).collect();
        let parity_rows = (0..r)
            .map(|i| lagrange_row(&data_points, (k + i) as u8))
            .collect();
        Ok(ReedSolomon { k, r, parity_rows })
    }

    /// Parity-shard count `r`.
    pub fn parity_shards(&self) -> usize {
        self.r
    }

    /// Total shard count `k + r`.
    pub fn total_shards(&self) -> usize {
        self.k + self.r
    }

    /// Computes the `r` parity payloads for `k` equal-length data
    /// payloads (no framing — the raw-stripe API).
    ///
    /// With `k == 1` every parity row is the identity, so this
    /// degenerates to `r` plain copies of the single payload.
    ///
    /// # Errors
    ///
    /// [`EcError::ShardCount`] unless exactly `k` payloads are given;
    /// [`EcError::ShardLen`] unless their lengths all match.
    pub fn parity_of(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, EcError> {
        if data.len() != self.k {
            return Err(EcError::ShardCount {
                expected: self.k,
                got: data.len(),
            });
        }
        let len = data[0].len();
        for payload in data {
            if payload.len() != len {
                return Err(EcError::ShardLen {
                    expected: len,
                    got: payload.len(),
                });
            }
        }
        Ok(self
            .parity_rows
            .iter()
            .map(|row| {
                let mut out = vec![0u8; len];
                for (&coeff, payload) in row.iter().zip(data) {
                    mul_acc(&mut out, payload, coeff);
                }
                out
            })
            .collect())
    }

    /// Folds a change of data shard `data` into parity shard `parity`:
    /// `out[b] ^= g · delta[b]`, where `g` is the data shard's coefficient
    /// in that parity shard. The code is linear, so XOR-ing a data
    /// shard's old-to-new difference into every parity shard at the same
    /// offsets leaves exactly the parity [`ReedSolomon::parity_of`] would
    /// derive from the new data. Bytes past `delta.len()` (or
    /// `out.len()`) are untouched.
    ///
    /// # Errors
    ///
    /// [`EcError::ShardIndex`] unless `parity < r` and `data < k`.
    pub fn fold_into(
        &self,
        parity: usize,
        data: usize,
        out: &mut [u8],
        delta: &[u8],
    ) -> Result<(), EcError> {
        if parity >= self.r {
            return Err(EcError::ShardIndex {
                index: self.k + parity,
            });
        }
        if data >= self.k {
            return Err(EcError::ShardIndex { index: data });
        }
        mul_acc(out, delta, self.parity_rows[parity][data]);
        Ok(())
    }

    /// Fills in every missing shard of a `k + r` stripe in place, given
    /// any `k` survivors (raw equal-length payloads, no framing): each
    /// missing shard is [`ReedSolomon::interpolate_into`] from the first
    /// `k` survivors.
    ///
    /// # Errors
    ///
    /// [`EcError::ShardCount`] unless `shards.len() == k + r`;
    /// [`EcError::TooFewShards`] with fewer than `k` present;
    /// [`EcError::ShardLen`] when present payload lengths disagree.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        if shards.len() != self.total_shards() {
            return Err(EcError::ShardCount {
                expected: self.total_shards(),
                got: shards.len(),
            });
        }
        let present: Vec<(usize, &[u8])> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, shard)| Some((i, shard.as_deref()?)))
            .collect();
        if present.len() < self.k {
            return Err(EcError::TooFewShards {
                have: present.len(),
                needed: self.k,
            });
        }
        let len = present[0].1.len();
        if let Some(&(_, odd)) = present.iter().find(|(_, p)| p.len() != len) {
            return Err(EcError::ShardLen {
                expected: len,
                got: odd.len(),
            });
        }
        let basis = &present[..self.k];
        let rebuilt = (0..shards.len())
            .filter(|&target| shards[target].is_none())
            .map(|target| {
                let mut out = vec![0u8; len];
                self.interpolate_into(basis, target, &mut out)?;
                Ok((target, out))
            })
            .collect::<Result<Vec<_>, EcError>>()?;
        for (target, out) in rebuilt {
            shards[target] = Some(out);
        }
        Ok(())
    }

    /// Computes the one shard at index `target` of a `k + r` stripe into
    /// `out` from exactly `k` known shards, given as `(index, payload)`
    /// with distinct indices in ascending order — a Lagrange
    /// interpolation at the target's evaluation point. Only `target` is
    /// computed; a `target` among the sources is copied.
    ///
    /// # Errors
    ///
    /// [`EcError::TooFewShards`] with fewer than `k` sources;
    /// [`EcError::ShardCount`] with more than `k`;
    /// [`EcError::ShardIndex`] for an index (source or target) outside
    /// `0..k + r` or sources out of order; [`EcError::ShardLen`] when a
    /// source's length differs from `out`'s.
    pub fn interpolate_into(
        &self,
        sources: &[(usize, &[u8])],
        target: usize,
        out: &mut [u8],
    ) -> Result<(), EcError> {
        if sources.len() < self.k {
            return Err(EcError::TooFewShards {
                have: sources.len(),
                needed: self.k,
            });
        }
        if sources.len() > self.k {
            return Err(EcError::ShardCount {
                expected: self.k,
                got: sources.len(),
            });
        }
        let n = self.total_shards();
        let mut floor = 0;
        for &(index, _) in sources {
            if index < floor || index >= n {
                return Err(EcError::ShardIndex { index });
            }
            floor = index + 1;
        }
        if target >= n {
            return Err(EcError::ShardIndex { index: target });
        }
        if let Some(&(_, odd)) = sources.iter().find(|(_, p)| p.len() != out.len()) {
            return Err(EcError::ShardLen {
                expected: out.len(),
                got: odd.len(),
            });
        }
        // Evaluation points are shard indices: below 256 by construction.
        let points: Vec<u8> = sources.iter().map(|&(i, _)| i as u8).collect();
        let row = lagrange_row(&points, target as u8);
        out.fill(0);
        for (&coeff, &(_, payload)) in row.iter().zip(sources) {
            mul_acc(out, payload, coeff);
        }
        Ok(())
    }
}

/// `out[b] ^= coeff * src[b]` over GF(2^8), skipping the zero
/// coefficient and fast-pathing the identity.
#[inline]
fn mul_acc(out: &mut [u8], src: &[u8], coeff: u8) {
    match coeff {
        0 => {}
        1 => {
            for (o, &s) in out.iter_mut().zip(src) {
                *o ^= s;
            }
        }
        c => {
            let log_c = GF_LOG[c as usize] as usize;
            for (o, &s) in out.iter_mut().zip(src) {
                if s != 0 {
                    *o ^= GF_EXP[log_c + GF_LOG[s as usize] as usize];
                }
            }
        }
    }
}

/// Lagrange basis row: coefficients `c_j` such that a degree
/// `< points.len()` polynomial satisfies
/// `f(target) = sum_j c_j * f(points[j])`. In GF(2^8) the linear factor
/// `x - m` is `x ^ m`, so a `target` that coincides with a point yields
/// the identity row.
fn lagrange_row(points: &[u8], target: u8) -> Vec<u8> {
    points
        .iter()
        .enumerate()
        .map(|(j, &pj)| {
            let mut num = 1u8;
            let mut den = 1u8;
            for (m, &pm) in points.iter().enumerate() {
                if m == j {
                    continue;
                }
                num = gf_mul(num, target ^ pm);
                den = gf_mul(den, pj ^ pm);
            }
            gf_div(num, den)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::rt_proptest;

    #[test]
    fn gf_tables_are_a_field() {
        // Every non-zero element has a log/exp round trip and an inverse.
        for a in 1..=255u8 {
            assert_eq!(GF_EXP[GF_LOG[a as usize] as usize], a);
            assert_eq!(gf_mul(a, gf_div(1, a)), 1, "inverse of {a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // Multiplication distributes over xor (spot check).
        for a in [3u8, 0x53, 0xCA, 0xFF] {
            for b in [7u8, 0x8E, 0x1D] {
                for c in [1u8, 0xB4] {
                    assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
                }
            }
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// The one-byte-per-step CRC-32 the sliced loop replaced: the
    /// reference it must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    rt_proptest! {
        /// Slicing-by-8 equals the bytewise loop on every length up to
        /// 1 KiB, whatever the buffer's start offset modulo 8.
        fn crc32_matches_bytewise_reference(src) {
            let len = src.int_in(0, 1024) as usize;
            let offset = src.int_in(0, 7) as usize;
            let mut buf = vec![0u8; offset + len];
            Rng::seed_from_u64(src.int_in(0, u32::MAX as u64)).fill_bytes(&mut buf);
            let bytes = &buf[offset..];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len={len} offset={offset}");
        }

        /// CRC-32 streams: extending the CRC of a prefix over the rest
        /// gives the CRC of the whole, at every split point.
        fn crc32_extend_composes(src) {
            let len = src.int_in(0, 300) as usize;
            let mut buf = vec![0u8; len];
            Rng::seed_from_u64(src.int_in(0, u32::MAX as u64)).fill_bytes(&mut buf);
            let cut = src.int_in(0, len as u64) as usize;
            let (a, b) = buf.split_at(cut);
            assert_eq!(crc32_extend(crc32(a), b), crc32(&buf), "len={len} cut={cut}");
            assert_eq!(crc32_extend(0, &buf), crc32(&buf));
        }

        /// Folding each data shard's appended tail into zero-extended
        /// parity reproduces `parity_of` over the zero-padded new data.
        fn fold_into_matches_parity_of(src) {
            let k = src.int_in(1, 6) as usize;
            let r = src.int_in(1, 3) as usize;
            let rs = ReedSolomon::new(k, r).unwrap();
            let mut rng = Rng::seed_from_u64(src.int_in(0, u32::MAX as u64));
            let random = |rng: &mut Rng, len: usize| {
                let mut d = vec![0u8; len];
                rng.fill_bytes(&mut d);
                d
            };
            let old: Vec<Vec<u8>> = (0..k)
                .map(|_| random(&mut rng, src.int_in(0, 64) as usize))
                .collect();
            let tails: Vec<Vec<u8>> = (0..k)
                .map(|_| random(&mut rng, src.int_in(0, 64) as usize))
                .collect();
            let padded = |pages: &[Vec<u8>]| {
                let len = pages.iter().map(Vec::len).max().unwrap_or(0);
                let pages: Vec<Vec<u8>> = pages
                    .iter()
                    .map(|p| {
                        let mut p = p.clone();
                        p.resize(len, 0);
                        p
                    })
                    .collect();
                let views: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
                rs.parity_of(&views).unwrap()
            };
            let mut parity = padded(&old);
            let new: Vec<Vec<u8>> = old
                .iter()
                .zip(&tails)
                .map(|(o, t)| [&o[..], &t[..]].concat())
                .collect();
            let new_len = new.iter().map(Vec::len).max().unwrap_or(0);
            for (i, shard) in parity.iter_mut().enumerate() {
                shard.resize(new_len, 0);
                for (j, (o, t)) in old.iter().zip(&tails).enumerate() {
                    rs.fold_into(i, j, &mut shard[o.len()..o.len() + t.len()], t)
                        .unwrap();
                }
            }
            assert_eq!(parity, padded(&new), "k={k} r={r}");
        }
    }

    #[test]
    fn fold_into_rejects_out_of_range_shards() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let mut out = [0u8; 2];
        assert_eq!(
            rs.fold_into(1, 0, &mut out, &[1, 2]),
            Err(EcError::ShardIndex { index: 3 })
        );
        assert_eq!(
            rs.fold_into(0, 2, &mut out, &[1, 2]),
            Err(EcError::ShardIndex { index: 2 })
        );
        rs.fold_into(0, 1, &mut out, &[1, 2]).unwrap();
    }

    #[test]
    fn geometry_validation() {
        assert!(ReedSolomon::new(0, 2).is_err());
        assert!(ReedSolomon::new(4, 0).is_err());
        assert!(ReedSolomon::new(200, 57).is_err());
        let rs = ReedSolomon::new(254, 2).unwrap();
        assert_eq!(rs.total_shards(), 256);
        assert_eq!(
            ReedSolomon::new(0, 1).unwrap_err().to_string(),
            "unsupported geometry k=0 r=1: need k >= 1, r >= 1, k + r <= 256"
        );
    }

    /// `k` data payloads plus their parity: one whole raw stripe.
    fn stripe_of(rs: &ReedSolomon, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let views: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        data.iter()
            .cloned()
            .chain(rs.parity_of(&views).unwrap())
            .collect()
    }

    #[test]
    fn round_trip_all_loss_patterns_k4_r2() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..4u32)
            .map(|j| {
                (0..250u32)
                    .map(|i| ((i + 250 * j) * 31 % 251) as u8)
                    .collect()
            })
            .collect();
        let whole = stripe_of(&rs, &data);
        assert_eq!(whole.len(), 6);
        // Every way of losing exactly 2 of 6 shards still reconstructs.
        for lose_a in 0..6 {
            for lose_b in (lose_a + 1)..6 {
                let mut shards: Vec<Option<Vec<u8>>> = whole.iter().cloned().map(Some).collect();
                shards[lose_a] = None;
                shards[lose_b] = None;
                rs.reconstruct(&mut shards).unwrap();
                assert_eq!(
                    shards.into_iter().flatten().collect::<Vec<_>>(),
                    whole,
                    "losing shards {lose_a} and {lose_b}"
                );
            }
        }
        // Losing 3 is unrecoverable and typed.
        let mut shards: Vec<Option<Vec<u8>>> = whole.iter().cloned().map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert_eq!(
            rs.reconstruct(&mut shards),
            Err(EcError::TooFewShards { have: 3, needed: 4 })
        );
    }

    /// k = 1 degenerates to r plain copies — parity payloads are
    /// byte-identical to the data and any single survivor rebuilds it.
    #[test]
    fn k1_degenerate_stripes_are_plain_copies() {
        let rs = ReedSolomon::new(1, 3).unwrap();
        let data = b"lonely data shard".to_vec();
        let whole = stripe_of(&rs, std::slice::from_ref(&data));
        assert_eq!(whole.len(), 4);
        for shard in &whole[1..] {
            assert_eq!(*shard, data, "parity is a verbatim copy");
        }
        for survivor in 0..4 {
            let mut shards: Vec<Option<Vec<u8>>> = vec![None; 4];
            shards[survivor] = Some(whole[survivor].clone());
            rs.reconstruct(&mut shards).unwrap();
            assert_eq!(shards[0].as_deref(), Some(&data[..]), "survivor {survivor}");
        }
    }

    /// Losing all r parity shards leaves the k data shards verbatim (the
    /// systematic property) and rebuilds the parity from them.
    #[test]
    fn all_parity_lost_decodes_from_data_alone() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data: Vec<Vec<u8>> = (0..5u32)
            .map(|j| (0..200u32).map(|i| ((i + 200 * j) % 256) as u8).collect())
            .collect();
        let whole = stripe_of(&rs, &data);
        let mut shards: Vec<Option<Vec<u8>>> = whole.iter().cloned().map(Some).collect();
        for parity in shards.iter_mut().skip(5) {
            *parity = None;
        }
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(shards.into_iter().flatten().collect::<Vec<_>>(), whole);
    }

    #[test]
    fn raw_stripe_parity_and_reconstruct() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let a = vec![1u8, 2, 3, 4];
        let b = vec![9u8, 8, 7, 6];
        let c = vec![0u8, 0xFF, 0x55, 0xAA];
        let parity = rs.parity_of(&[&a, &b, &c]).unwrap();
        assert_eq!(parity.len(), 2);
        let mut stripe = vec![
            None,
            Some(b.clone()),
            None,
            Some(parity[0].clone()),
            Some(parity[1].clone()),
        ];
        rs.reconstruct(&mut stripe).unwrap();
        assert_eq!(stripe[0].as_deref(), Some(a.as_slice()));
        assert_eq!(stripe[2].as_deref(), Some(c.as_slice()));
        // Mismatched payload lengths are typed errors.
        assert_eq!(
            rs.parity_of(&[&a, &b, &c[..2]]),
            Err(EcError::ShardLen {
                expected: 4,
                got: 2
            })
        );
        assert_eq!(
            rs.parity_of(&[&a, &b]),
            Err(EcError::ShardCount {
                expected: 3,
                got: 2
            })
        );
    }

    /// `interpolate_into` of one slot from the first `k` survivors is
    /// bit-equal to what `reconstruct` fills that slot with, for every
    /// loss pattern of at most `r` shards — and a surviving slot
    /// interpolates to its own bytes.
    #[test]
    fn interpolate_into_matches_reconstruct_for_every_loss_pattern() {
        for (k, r) in [(1, 1), (4, 2), (6, 3)] {
            let rs = ReedSolomon::new(k, r).unwrap();
            let n = k + r;
            let data: Vec<Vec<u8>> = (0..k)
                .map(|j| {
                    (0..37u32)
                        .map(|b| (b * 29 + j as u32 * 101) as u8)
                        .collect()
                })
                .collect();
            let views: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let whole: Vec<Vec<u8>> = data
                .iter()
                .cloned()
                .chain(rs.parity_of(&views).unwrap())
                .collect();
            for lost_mask in 0u32..1 << n {
                if lost_mask.count_ones() as usize > r {
                    continue;
                }
                let mut shards: Vec<Option<Vec<u8>>> = whole
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (lost_mask & 1 << i == 0).then(|| s.clone()))
                    .collect();
                let sources: Vec<(usize, &[u8])> = (0..n)
                    .filter(|&i| lost_mask & 1 << i == 0)
                    .take(k)
                    .map(|i| (i, whole[i].as_slice()))
                    .collect();
                let interpolated: Vec<Vec<u8>> = (0..n)
                    .map(|target| {
                        let mut out = vec![0xEE; 37];
                        rs.interpolate_into(&sources, target, &mut out).unwrap();
                        out
                    })
                    .collect();
                rs.reconstruct(&mut shards).unwrap();
                for target in 0..n {
                    assert_eq!(
                        shards[target].as_deref(),
                        Some(interpolated[target].as_slice()),
                        "k={k} r={r} lost={lost_mask:b} target={target}"
                    );
                    assert_eq!(interpolated[target], whole[target]);
                }
            }
        }
    }

    #[test]
    fn interpolate_into_rejects_malformed_sources() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let (a, b) = (vec![1u8, 2], vec![3u8, 4]);
        let mut out = [0u8; 2];
        assert_eq!(
            rs.interpolate_into(&[(0, &a)], 2, &mut out),
            Err(EcError::TooFewShards { have: 1, needed: 2 })
        );
        assert_eq!(
            rs.interpolate_into(&[(0, &a), (1, &b), (2, &b)], 2, &mut out),
            Err(EcError::ShardCount {
                expected: 2,
                got: 3
            })
        );
        assert_eq!(
            rs.interpolate_into(&[(1, &a), (1, &b)], 2, &mut out),
            Err(EcError::ShardIndex { index: 1 })
        );
        assert_eq!(
            rs.interpolate_into(&[(0, &a), (3, &b)], 2, &mut out),
            Err(EcError::ShardIndex { index: 3 })
        );
        assert_eq!(
            rs.interpolate_into(&[(0, &a), (1, &b)], 3, &mut out),
            Err(EcError::ShardIndex { index: 3 })
        );
        assert_eq!(
            rs.interpolate_into(&[(0, &a), (1, &b[..1])], 2, &mut out),
            Err(EcError::ShardLen {
                expected: 2,
                got: 1
            })
        );
    }

    rt_proptest! {
        /// Encode parity → drop any r shards → reconstruct is bit-equal,
        /// over random geometries and shard lengths including zero.
        fn encode_drop_r_decode_round_trips(src) {
            let k = src.int_in(1, 8) as usize;
            let r = src.int_in(1, 4) as usize;
            let len = src.int_in(0, 1024) as usize;
            let seed = src.int_in(0, u32::MAX as u64);
            let mut rng = Rng::seed_from_u64(seed);
            let data: Vec<Vec<u8>> = (0..k)
                .map(|_| {
                    let mut d = vec![0u8; len];
                    rng.fill_bytes(&mut d);
                    d
                })
                .collect();
            let rs = ReedSolomon::new(k, r).unwrap();
            let whole = stripe_of(&rs, &data);
            let mut shards: Vec<Option<Vec<u8>>> = whole.iter().cloned().map(Some).collect();
            // Drop exactly r distinct shards, chosen by the source.
            let mut dropped = 0;
            let mut cursor = src.int_in(0, (k + r - 1) as u64) as usize;
            while dropped < r {
                if shards[cursor % (k + r)].take().is_some() {
                    dropped += 1;
                }
                cursor += 1;
            }
            rs.reconstruct(&mut shards).unwrap();
            assert_eq!(
                shards.into_iter().flatten().collect::<Vec<_>>(),
                whole,
                "k={k} r={r} len={len}"
            );
        }
    }
}
