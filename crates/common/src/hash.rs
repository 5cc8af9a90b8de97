//! FxHash-style hashing.
//!
//! The default `SipHash 1-3` hasher of the standard library is DoS-resistant
//! but slow for the short integer and symbol keys that dominate blocking and
//! meta-blocking. This module re-implements the well-known Fx hash function
//! (as used by rustc) so we get fast hashing without an extra dependency.
//! HashDoS resistance is irrelevant here: all inputs are locally generated.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant of the Fx hash function (64-bit variant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher for short keys.
///
/// Implements the same add-rotate-multiply mix as rustc's `FxHasher`.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Mix in the length so "a" and "a\0" differ.
            self.add_to_hash(u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The multiply leaves the entropy in the state's high bits — its low
    /// bits depend only on the low bits of the last word mixed in — and
    /// hashbrown picks the bucket from a hash's *low* bits. Rotating the
    /// high bits down (as rustc-hash 2.x does) keeps string-keyed maps from
    /// piling into a few buckets.
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with the Fx hasher — the default map type of this project.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// One-shot Fx hash of a byte string (used for stable bucket ids, e.g. the
/// LSH band buckets, where a `Hasher` round trip would be noise). Returns
/// the raw multiply state, not [`Hasher::finish`]'s rotation of it: the
/// ids derived from it are pinned, and the `Interner` folds the high bits
/// down itself.
#[inline]
pub fn fx_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.state
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"token"), hash_of(&"token"));
    }

    #[test]
    fn distinguishes_nearby_integers() {
        let h: Vec<u64> = (0u64..64).map(|i| hash_of(&i)).collect();
        let distinct: std::collections::HashSet<_> = h.iter().collect();
        assert_eq!(distinct.len(), 64);
    }

    #[test]
    fn distinguishes_prefix_strings() {
        assert_ne!(hash_of(&"a"), hash_of(&"aa"));
        assert_ne!(hash_of(&"abcdefgh"), hash_of(&"abcdefghi"));
        // Trailing zero byte must not collide with the shorter string.
        assert_ne!(hash_of(&[1u8, 0][..]), hash_of(&[1u8][..]));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<&str, u32> = FxHashMap::default();
        m.insert("alpha", 1);
        m.insert("beta", 2);
        assert_eq!(m.get("alpha"), Some(&1));
        let mut s: FxHashSet<u32> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn empty_write_is_stable() {
        let mut h = FxHasher::default();
        h.write(&[]);
        assert_eq!(h.finish(), 0);
    }

    /// hashbrown indexes buckets by the low bits: short tokens that differ
    /// only in their tail must not share them. (The raw multiply state
    /// gives these 4 096 tokens 32 distinct low-12-bit values; a random
    /// function would give about 2 590.)
    #[test]
    fn low_bits_spread_short_string_keys() {
        let low: std::collections::HashSet<u64> = (0..4096)
            .map(|i| hash_of(format!("tk{i:06}").as_str()) & 0xfff)
            .collect();
        assert!(
            low.len() >= 1000,
            "{} distinct low-12-bit values",
            low.len()
        );
    }

    /// Bucket, MinHash and interner-slot ids are derived from these.
    #[test]
    fn fx_hash_bytes_values_are_pinned() {
        assert_eq!(fx_hash_bytes(b""), 0);
        assert_eq!(fx_hash_bytes(b"a"), 0x7545_6665_d3e6_0275);
        assert_eq!(fx_hash_bytes(b"token"), 0xf824_8662_b34a_6684);
        assert_eq!(fx_hash_bytes(b"abcdefgh"), 0xe223_7c76_2792_0c75);
        assert_eq!(fx_hash_bytes(b"abcdefghi"), 0xea49_a2d1_fb06_73f9);
    }
}
