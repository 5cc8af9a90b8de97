//! MinHash-LSH blocking.
//!
//! Locality-sensitive hashing over MinHash signatures: each description's
//! token set is summarised by a `bands × rows` signature; descriptions
//! whose signature agrees on *all rows of at least one band* land in a
//! common block. The probability of co-occurring is `1 − (1 − s^r)^b` for
//! Jaccard similarity `s` — an S-curve whose threshold `(1/b)^(1/r)` the
//! two constants below fix, a principled way to target the "somehow
//! similar" regime (low token overlap) that exact token blocking misses.
//!
//! The signature is MinHash: `b·r` affine hash permutations of the token
//! ids, each position keeping the set's minimum, so two sets agree on a
//! position with probability equal to their Jaccard similarity.

use crate::collection::{BlockCollection, ErMode, KeyAssignments};
use minoan_common::hash::fx_hash_bytes;
use minoan_rdf::tokenize::TokenBuffers;
use minoan_rdf::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Number of bands `b`.
pub const BANDS: usize = 8;
/// Rows per band `r` (signature length is `b·r`): with [`BANDS`], an
/// S-curve threshold `(1/b)^(1/r)` ≈ 0.59.
pub const ROWS: usize = 4;
/// Seed of the MinHash permutation family.
pub const SEED: u64 = 0x15a4;

/// Hashes each entity's blocking-token set into LSH band buckets; each
/// non-trivial bucket becomes a block keyed `lsh:{band}:{bucket-hash}`.
/// A token enters the signature as the low 32 bits of its `fx_hash_bytes`.
/// The blocks are built on `threads` workers and do not depend on it.
pub fn minhash_lsh_blocking(dataset: &Dataset, mode: ErMode, threads: usize) -> BlockCollection {
    let hasher = MinHasher::new(BANDS * ROWS, SEED);
    let mut asg = KeyAssignments::with_capacity(dataset.len());
    let mut buffers = TokenBuffers::default();
    let mut tokens: Vec<u32> = Vec::new();
    let mut bytes: Vec<u8> = Vec::with_capacity(ROWS * 8);
    let mut key = String::new();
    for e in dataset.entities() {
        tokens.clear();
        dataset.for_each_blocking_token(e, &mut buffers, |t| {
            tokens.push((fx_hash_bytes(t.as_bytes()) & 0xffff_ffff) as u32)
        });
        tokens.sort_unstable();
        tokens.dedup();
        if !tokens.is_empty() {
            let sig = hasher.signature(&tokens);
            for (band, rows) in sig.0.chunks_exact(ROWS).enumerate() {
                bytes.clear();
                for v in rows {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                key.clear();
                let _ = write!(key, "lsh:{band}:{:016x}", fx_hash_bytes(&bytes));
                asg.push_key(&key);
            }
        }
        asg.seal_entity();
    }
    BlockCollection::from_assignments_with_threads(dataset, mode, asg, threads)
}

/// A family of `k` hash permutations over `u32` token ids.
#[derive(Clone, Debug)]
struct MinHasher {
    /// (multiplier, addend) pairs of the affine universal hash family.
    params: Vec<(u64, u64)>,
}

/// Large Mersenne prime for the universal hash family.
const PRIME: u64 = (1 << 61) - 1;

/// A fixed-length MinHash signature.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Signature(Box<[u64]>);

impl MinHasher {
    /// Creates a hasher with `k` permutations (signature length `k`),
    /// seeded deterministically.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "signature length must be positive");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4d69_6e48);
        let params = (0..k)
            .map(|_| (rng.gen_range(1..PRIME), rng.gen_range(0..PRIME)))
            .collect();
        Self { params }
    }

    /// Computes the signature of a token set (order/duplicates irrelevant).
    /// An empty set yields the all-`u64::MAX` signature.
    fn signature(&self, tokens: &[u32]) -> Signature {
        let mut sig = vec![u64::MAX; self.params.len()];
        for &t in tokens {
            let x = t as u64 + 1; // avoid the fixed point at 0
            for (i, &(a, b)) in self.params.iter().enumerate() {
                // (a*x + b) mod p via u128 to avoid overflow.
                let h = ((a as u128 * x as u128 + b as u128) % PRIME as u128) as u64;
                if h < sig[i] {
                    sig[i] = h;
                }
            }
        }
        Signature(sig.into_boxed_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_rdf::{DatasetBuilder, EntityId};

    /// Two near-duplicate descriptions (high Jaccard) + two unrelated ones.
    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        b.add_literal(
            k0,
            "http://a/0",
            "http://p/d",
            "alpha beta gamma delta epsilon zeta",
        );
        b.add_literal(
            k1,
            "http://b/1",
            "http://p/d",
            "alpha beta gamma delta epsilon eta",
        );
        b.add_literal(
            k0,
            "http://a/2",
            "http://p/d",
            "one two three four five six",
        );
        b.add_literal(
            k1,
            "http://b/3",
            "http://p/d",
            "seven eight nine ten eleven twelve",
        );
        b.build()
    }

    #[test]
    fn high_jaccard_pair_is_blocked_together() {
        let ds = dataset();
        let blocks = minhash_lsh_blocking(&ds, ErMode::CleanClean, 1);
        let pairs = blocks.distinct_pairs();
        assert!(
            pairs.contains(&(EntityId(0), EntityId(1))),
            "near-duplicates must share a band bucket: {pairs:?}"
        );
    }

    #[test]
    fn disjoint_sets_rarely_collide() {
        let ds = dataset();
        let blocks = minhash_lsh_blocking(&ds, ErMode::CleanClean, 1);
        let pairs = blocks.distinct_pairs();
        assert!(
            !pairs.contains(&(EntityId(2), EntityId(3))),
            "token-disjoint descriptions should not co-occur: {pairs:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset();
        let a = minhash_lsh_blocking(&ds, ErMode::CleanClean, 1);
        let b = minhash_lsh_blocking(&ds, ErMode::CleanClean, 1);
        assert_eq!(a.distinct_pairs(), b.distinct_pairs());
    }

    #[test]
    fn empty_dataset() {
        let ds = DatasetBuilder::new().build();
        assert!(minhash_lsh_blocking(&ds, ErMode::Dirty, 1).is_empty());
    }

    fn set(lo: u32, hi: u32) -> Vec<u32> {
        (lo..hi).collect()
    }

    /// The MinHash estimate: the share of positions two signatures agree on.
    fn agreement(a: &Signature, b: &Signature) -> f64 {
        let agree = a.0.iter().zip(b.0.iter()).filter(|(x, y)| x == y).count();
        agree as f64 / a.0.len() as f64
    }

    /// Exact Jaccard similarity of two sorted, deduplicated token slices.
    fn jaccard(a: &[u32], b: &[u32]) -> f64 {
        let shared = a.iter().filter(|t| b.binary_search(t).is_ok()).count();
        shared as f64 / (a.len() + b.len() - shared) as f64
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let mh = MinHasher::new(128, 2);
        let a = mh.signature(&set(0, 50));
        let b = mh.signature(&set(1_000, 1_050));
        assert!(agreement(&a, &b) < 0.08);
    }

    #[test]
    fn estimate_tracks_exact_jaccard() {
        let mh = MinHasher::new(256, 3);
        // 50% overlap: J = 50 / 150 = 1/3.
        let a = set(0, 100);
        let b = set(50, 150);
        let exact = jaccard(&a, &b);
        let est = agreement(&mh.signature(&a), &mh.signature(&b));
        assert!(
            (est - exact).abs() < 0.1,
            "estimate {est:.3} too far from exact {exact:.3}"
        );
    }

    #[test]
    fn duplicates_and_order_do_not_matter() {
        let mh = MinHasher::new(32, 4);
        let s1 = mh.signature(&[5, 1, 9, 1, 5]);
        let s2 = mh.signature(&[1, 5, 9]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn empty_sets() {
        let mh = MinHasher::new(16, 5);
        let e = mh.signature(&[]);
        assert!(e.0.iter().all(|&v| v == u64::MAX));
    }

    #[test]
    fn deterministic_across_instances() {
        let a = MinHasher::new(64, 7).signature(&set(0, 20));
        let b = MinHasher::new(64, 7).signature(&set(0, 20));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_panics() {
        let _ = MinHasher::new(0, 1);
    }

    /// Random pairs of 10–80-token sets over 400 ids: 256 permutations
    /// keep the estimate within 0.2 of the exact Jaccard with overwhelming
    /// probability.
    #[test]
    fn estimator_within_chernoff_band() {
        let mut rng = StdRng::seed_from_u64(11);
        let mh = MinHasher::new(256, 11);
        let mut random_set = || {
            let len = rng.gen_range(10..80);
            let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..400)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for _ in 0..64 {
            let (a, b) = (random_set(), random_set());
            let exact = jaccard(&a, &b);
            let est = agreement(&mh.signature(&a), &mh.signature(&b));
            assert!((est - exact).abs() < 0.2, "est {est} vs exact {exact}");
        }
    }
}
