//! The keyed hash behind every map keyed by a packed bucket code.
//!
//! A page read is one hash probe, and std's default SipHash-1-3 costs
//! more than the probe's own cache miss on a `u64` key. [`CodeHash`] is a
//! folded 64×64→128-bit multiply instead: the key is XORed with a per-map
//! random seed, multiplied by a per-map random odd multiplier, and the
//! product's halves are XORed together. Both values are drawn from std's
//! [`RandomState`] when the map is built, so iteration order stays
//! randomized and an outsider cannot choose codes that collide — the map
//! keeps the protection the default hasher gives, at the cost of one
//! multiply per probe.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A map keyed by packed bucket codes (or stripe ids, or device ids)
/// under [`CodeHash`]. Build it with `CodeMap::default()`.
pub(crate) type CodeMap<V> = HashMap<u64, V, CodeHash>;

/// Builds [`CodeHasher`]s that share one randomly drawn seed and
/// multiplier.
#[derive(Debug, Clone)]
pub(crate) struct CodeHash {
    seed: u64,
    multiplier: u64,
}

impl Default for CodeHash {
    /// Draws a fresh seed and multiplier from std's randomly keyed
    /// [`RandomState`].
    fn default() -> Self {
        let keys = RandomState::new();
        CodeHash {
            seed: keys.hash_one(0u64),
            // Odd, so multiplying is a bijection on the low word.
            multiplier: keys.hash_one(1u64) | 1,
        }
    }
}

impl BuildHasher for CodeHash {
    type Hasher = CodeHasher;

    fn build_hasher(&self) -> CodeHasher {
        CodeHasher {
            state: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// One hash computation: each written word is folded into the state.
#[derive(Debug, Clone)]
pub(crate) struct CodeHasher {
    state: u64,
    multiplier: u64,
}

impl Hasher for CodeHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(self.multiplier);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    /// Any other key type: its bytes folded in 8-byte words (the last
    /// one zero-padded), so the hasher stays correct for every `Hash`
    /// key, not only `u64`.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(build: &CodeHash, value: &T) -> u64 {
        build.hash_one(value)
    }

    #[test]
    fn maps_keyed_by_codes_behave_like_std_maps() {
        let mut map: CodeMap<u64> = CodeMap::default();
        for code in 0..10_000u64 {
            map.insert(code * 7919, code);
        }
        assert_eq!(map.len(), 10_000);
        for code in 0..10_000u64 {
            assert_eq!(map.get(&(code * 7919)), Some(&code));
        }
        assert_eq!(map.get(&1), None);
    }

    #[test]
    fn each_map_draws_its_own_key() {
        let (a, b) = (CodeHash::default(), CodeHash::default());
        let differs = (0..64u64).any(|code| hash_of(&a, &code) != hash_of(&b, &code));
        assert!(differs, "two maps hashed 64 codes identically");
        // One map hashes consistently.
        assert_eq!(hash_of(&a, &42u64), hash_of(&a, &42u64));
    }

    #[test]
    fn non_word_keys_hash_every_byte() {
        let build = CodeHash::default();
        let words: Vec<u64> = ["", "a", "b", "ab", "ba", "abcdefghi", "abcdefghj"]
            .iter()
            .map(|s| hash_of(&build, s))
            .collect();
        let mut distinct = words.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), words.len(), "{words:?}");
        // Tuples (several words) work as keys too.
        let mut map: HashMap<(u64, u32), u8, CodeHash> = HashMap::default();
        map.insert((1, 2), 3);
        map.insert((2, 1), 4);
        assert_eq!(map[&(1, 2)], 3);
        assert_eq!(map[&(2, 1)], 4);
    }
}
