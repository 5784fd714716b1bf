//! Seedable pseudo-random number generation.
//!
//! The generator is xoshiro256++ (Blackman & Vigna), seeded from a single
//! `u64` through the SplitMix64 finalizer — the standard construction for
//! expanding a small seed into a full 256-bit state without correlations.
//! Everything in the workspace that needs randomness draws from this one
//! generator, so every experiment is replayable from its seed: the paper's
//! declustering constructions are deterministic, and the surrounding
//! harnesses (workloads, map searches, synthetic files) must be too.
//!
//! Streams: [`Rng::split`] forks a statistically independent child
//! generator, and [`Rng::stream`] derives the `i`-th child of a seed
//! without constructing intermediates — both are reproducible, so a
//! parallel experiment can hand each worker its own stream and still
//! replay bit-for-bit.

use std::ops::{Range, RangeInclusive};

/// Golden-ratio increment used by SplitMix64.
const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finalizer — a high-quality 64-bit mixing function.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seedable xoshiro256++ generator.
///
/// # Examples
///
/// ```
/// use pmr_rt::rng::Rng;
///
/// let mut a = Rng::seed_from_u64(42);
/// let mut b = Rng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.gen_range(0..10u64);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed (SplitMix64-expanded).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = z.wrapping_add(SPLITMIX_GAMMA);
            *slot = splitmix64(z);
        }
        // xoshiro256++ requires a nonzero state; SplitMix64 only yields
        // all-zero output for one specific input stream, but guard anyway.
        if s == [0; 4] {
            s = [SPLITMIX_GAMMA, 1, 2, 3];
        }
        Rng { s }
    }

    /// Derives the `stream`-th independent generator of `seed` — the
    /// reproducible way to give each parallel worker its own stream.
    pub fn stream(seed: u64, stream: u64) -> Self {
        Rng::seed_from_u64(splitmix64(seed ^ stream.wrapping_mul(SPLITMIX_GAMMA)))
    }

    /// Forks a statistically independent child generator, advancing this
    /// one. Two splits of identical parents yield identical children.
    pub fn split(&mut self) -> Self {
        Rng::seed_from_u64(self.next_u64())
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The next raw 32-bit output (upper half of a 64-bit draw).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `u64` below `bound` (Lemire's nearly-divisionless
    /// rejection method; unbiased).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sampling bound");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform draw from a range, for all primitive integer types:
    /// `rng.gen_range(0..10u64)`, `rng.gen_range(0..=5u32)`, …
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// A biased coin: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        // 53 random bits → uniform in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills a byte slice with random data.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            tail.copy_from_slice(&bytes[..tail.len()]);
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of a slice (`None` when empty).
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below(slice.len() as u64) as usize])
        }
    }
}

/// Slice extension mirroring the call-site shape `slice.shuffle(&mut rng)`.
pub trait SliceRandom {
    /// The element type.
    type Item;
    /// Fisher–Yates shuffle in place.
    fn shuffle(&mut self, rng: &mut Rng);
    /// A uniformly chosen element (`None` when empty).
    fn choose<'a>(&'a self, rng: &mut Rng) -> Option<&'a Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;
    fn shuffle(&mut self, rng: &mut Rng) {
        rng.shuffle(self);
    }
    fn choose<'a>(&'a self, rng: &mut Rng) -> Option<&'a T> {
        rng.choose(self)
    }
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws a uniform value from the range.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_sample_unsigned {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_sample_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

impl_sample_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// The workspace-wide default experiment seed, overridable via the
/// `PMR_SEED` environment variable (decimal or `0x`-prefixed hex).
/// Regenerators and examples route their seeds through this so published
/// tables are byte-for-byte reproducible run-to-run, while still letting
/// one environment variable re-randomize every experiment at once.
pub fn seed_from_env_or(default: u64) -> u64 {
    match std::env::var("PMR_SEED") {
        Ok(v) => parse_seed(&v)
            .unwrap_or_else(|| panic!("PMR_SEED={v:?} is not a valid u64 (decimal or 0x-hex)")),
        Err(_) => default,
    }
}

fn parse_seed(v: &str) -> Option<u64> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_xoshiro256pp() {
        // First outputs for the state (1, 2, 3, 4) — the published
        // reference sequence for xoshiro256++.
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![41943041, 58720359, 3588806011781223, 3591011842654386]
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        let mut c = Rng::seed_from_u64(8);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(rng.gen_range(0..10u64) < 10);
            assert!((-5..5i64).contains(&rng.gen_range(-5..5i64)));
            let v = rng.gen_range(3..=7u32);
            assert!((3..=7).contains(&v));
            assert!(rng.gen_range(0..4usize) < 4);
        }
        assert_eq!(rng.gen_range(9..10u64), 9);
        assert_eq!(rng.gen_range(5..=5u32), 5);
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(99);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[rng.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "skewed histogram: {counts:?}");
        }
    }

    #[test]
    fn gen_bool_endpoints() {
        let mut rng = Rng::seed_from_u64(5);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&heads), "p=0.25 gave {heads}/10000");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(3);
        let mut v: Vec<u64> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().copied().eq(0..100));
        assert_ne!(v, sorted, "shuffle of 100 elements left them sorted");
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = Rng::seed_from_u64(11);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        let mut a = Rng::seed_from_u64(11);
        let mut again = [0u8; 13];
        a.fill_bytes(&mut again);
        assert_eq!(buf, again);
    }

    #[test]
    fn streams_are_independent_and_reproducible() {
        let s0a = Rng::stream(42, 0);
        let s0b = Rng::stream(42, 0);
        let s1 = Rng::stream(42, 1);
        assert_eq!(s0a, s0b);
        assert_ne!(s0a, s1);

        let mut parent_a = Rng::seed_from_u64(9);
        let mut parent_b = Rng::seed_from_u64(9);
        let mut child_a = parent_a.split();
        let mut child_b = parent_b.split();
        assert_eq!(child_a.next_u64(), child_b.next_u64());
        // The child stream differs from the parent's continuation.
        assert_ne!(child_a.next_u64(), parent_a.next_u64());
    }

    #[test]
    fn choose_handles_empty() {
        let mut rng = Rng::seed_from_u64(1);
        let empty: [u8; 0] = [];
        assert_eq!(empty.choose(&mut rng), None);
        let one = [7u8];
        assert_eq!(one.choose(&mut rng), Some(&7));
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0xff"), Some(255));
        assert_eq!(parse_seed(" 7 "), Some(7));
        assert_eq!(parse_seed("nope"), None);
    }
}
