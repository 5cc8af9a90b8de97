//! MinHash-LSH blocking.
//!
//! Locality-sensitive hashing over MinHash signatures: each description's
//! token set is summarised by a `bands × rows` signature; descriptions
//! whose signature agrees on *all rows of at least one band* land in a
//! common block. The probability of co-occurring is `1 − (1 − s^r)^b` for
//! Jaccard similarity `s` — an S-curve whose threshold `(1/b)^(1/r)` the
//! configuration controls, giving a principled way to target the "somehow
//! similar" regime (low token overlap) that exact token blocking misses.

use crate::collection::{BlockCollection, ErMode, KeyAssignments};
use minoan_common::hash::fx_hash_bytes;
use minoan_rdf::tokenize::TokenBuffers;
use minoan_rdf::Dataset;
use minoan_similarity::MinHasher;
use std::fmt::Write as _;

/// Configuration of the LSH blocker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LshConfig {
    /// Number of bands `b`.
    pub bands: usize,
    /// Rows per band `r` (signature length is `b·r`).
    pub rows: usize,
    /// Seed of the MinHash permutation family.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        Self {
            bands: 8,
            rows: 4,
            seed: 0x15a4,
        }
    }
}

impl LshConfig {
    /// The approximate Jaccard threshold of the S-curve, `(1/b)^(1/r)`.
    pub fn threshold(&self) -> f64 {
        (1.0 / self.bands as f64).powf(1.0 / self.rows as f64)
    }
}

/// Hashes each entity's blocking-token set into LSH band buckets; each
/// non-trivial bucket becomes a block keyed `lsh:{band}:{bucket-hash}`.
/// A token enters the signature as the low 32 bits of its `fx_hash_bytes`.
/// The blocks are built on `threads` workers and do not depend on it.
///
/// # Panics
/// Panics if `bands == 0` or `rows == 0`.
pub fn minhash_lsh_blocking(
    dataset: &Dataset,
    mode: ErMode,
    config: LshConfig,
    threads: usize,
) -> BlockCollection {
    assert!(config.bands > 0, "bands must be positive");
    assert!(config.rows > 0, "rows must be positive");
    let hasher = MinHasher::new(config.bands * config.rows, config.seed);
    let mut asg = KeyAssignments::with_capacity(dataset.len());
    let mut buffers = TokenBuffers::default();
    let mut tokens: Vec<u32> = Vec::new();
    let mut bytes: Vec<u8> = Vec::with_capacity(config.rows * 8);
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
            for (band, rows) in sig.0.chunks_exact(config.rows).enumerate() {
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
        let blocks = minhash_lsh_blocking(&ds, ErMode::CleanClean, LshConfig::default(), 1);
        let pairs = blocks.distinct_pairs();
        assert!(
            pairs.contains(&(EntityId(0), EntityId(1))),
            "near-duplicates must share a band bucket: {pairs:?}"
        );
    }

    #[test]
    fn disjoint_sets_rarely_collide() {
        let ds = dataset();
        let blocks = minhash_lsh_blocking(&ds, ErMode::CleanClean, LshConfig::default(), 1);
        let pairs = blocks.distinct_pairs();
        assert!(
            !pairs.contains(&(EntityId(2), EntityId(3))),
            "token-disjoint descriptions should not co-occur: {pairs:?}"
        );
    }

    #[test]
    fn threshold_formula() {
        let c = LshConfig {
            bands: 16,
            rows: 4,
            seed: 0,
        };
        assert!((c.threshold() - (1.0f64 / 16.0).powf(0.25)).abs() < 1e-12);
        // More bands → lower threshold (more permissive).
        let permissive = LshConfig {
            bands: 32,
            rows: 4,
            seed: 0,
        };
        assert!(permissive.threshold() < c.threshold());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset();
        let a = minhash_lsh_blocking(&ds, ErMode::CleanClean, LshConfig::default(), 1);
        let b = minhash_lsh_blocking(&ds, ErMode::CleanClean, LshConfig::default(), 1);
        assert_eq!(a.distinct_pairs(), b.distinct_pairs());
    }

    #[test]
    fn different_seed_changes_buckets_not_semantics() {
        let ds = dataset();
        let c1 = LshConfig {
            seed: 1,
            ..LshConfig::default()
        };
        let blocks = minhash_lsh_blocking(&ds, ErMode::CleanClean, c1, 1);
        // The high-similarity pair should survive any seed with b=8, r=4
        // (collision probability ≈ 1 − (1 − s⁴)⁸ ≈ 0.97 for s ≈ 0.71).
        assert!(blocks
            .distinct_pairs()
            .contains(&(EntityId(0), EntityId(1))));
    }

    #[test]
    fn empty_dataset() {
        let ds = DatasetBuilder::new().build();
        assert!(minhash_lsh_blocking(&ds, ErMode::Dirty, LshConfig::default(), 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "bands")]
    fn zero_bands_rejected() {
        minhash_lsh_blocking(
            &dataset(),
            ErMode::Dirty,
            LshConfig {
                bands: 0,
                rows: 4,
                seed: 0,
            },
            1,
        );
    }
}
