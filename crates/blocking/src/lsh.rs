//! MinHash-LSH blocking.
//!
//! Locality-sensitive hashing over MinHash signatures: each description's
//! token set is summarised by a `bands × rows` signature; descriptions
//! whose signature agrees on *all rows of at least one band* land in a
//! common block. The probability of co-occurring is `1 − (1 − s^r)^b` for
//! Jaccard similarity `s` — an S-curve whose threshold `(1/b)^(1/r)` the
//! two constants below fix, a principled way to target the "somehow
//! similar" regime (low token overlap) that exact token blocking misses.

use crate::collection::{BlockCollection, ErMode, KeyAssignments};
use minoan_common::hash::fx_hash_bytes;
use minoan_rdf::tokenize::TokenBuffers;
use minoan_rdf::Dataset;
use minoan_similarity::MinHasher;
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
}
