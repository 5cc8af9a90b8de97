//! Comparison-based block purging.
//!
//! Token blocking creates a power-law block size distribution; the largest
//! blocks (stop-word-like tokens, `rdf:type` values) contribute a huge
//! share of the comparisons but almost no matching evidence. Purging drops
//! them with a comparison-based heuristic in the style of Papadakis et
//! al. / JedAI's `ComparisonsBasedBlockPurging`:
//!
//! Let `CC(d)` and `BC(d)` be the cumulative comparisons and block
//! assignments over blocks with per-block comparisons `‖b‖ ≤ d`. The ratio
//! `CC/BC` (comparisons paid per unit of blocking evidence) is dominated by
//! the largest blocks. Scanning distinct cardinalities from the largest
//! down, a level is purged as long as removing it still improves the ratio
//! by more than the smoothing factor; the scan stops at the first level
//! whose removal no longer pays.

#![deny(clippy::disallowed_types)]

use crate::collection::{BlockCollection, BlockId};
use minoan_common::default_threads;

/// Default smoothing factor (JedAI's value).
pub const DEFAULT_SMOOTHING: f64 = 1.025;

/// Outcome of a purge: the new collection plus what was removed.
#[derive(Debug)]
pub struct PurgeOutcome {
    /// The purged collection.
    pub collection: BlockCollection,
    /// Number of blocks removed.
    pub purged_blocks: usize,
    /// Comparisons removed (with repetitions).
    pub purged_comparisons: u64,
    /// The cardinality limit that was applied (`u64::MAX` = nothing purged).
    pub max_comparisons_per_block: u64,
}

/// Purges oversized blocks with smoothing factor [`DEFAULT_SMOOTHING`].
pub fn purge(collection: &BlockCollection) -> PurgeOutcome {
    purge_with(collection, DEFAULT_SMOOTHING)
}

/// Purges oversized blocks; `smoothing > 1` controls how large the marginal
/// ratio improvement must stay for the scan to keep cutting (closer to 1 ⇒
/// more aggressive purging).
///
/// This is a pure *index pass* over the flat collection: the cardinality
/// scan reads the per-block comparison slab, the verdict is a per-block
/// retain mask, and the successor collection is written straight into
/// fresh slabs with remapped block ids — kept member runs are memcpy'd,
/// nothing is re-hashed or re-interned.
pub fn purge_with(collection: &BlockCollection, smoothing: f64) -> PurgeOutcome {
    purge_with_threads(collection, smoothing, default_threads())
}

/// As [`purge_with`] with an explicit worker count for the successor's
/// slab build (the pipeline threads its `workers` knob through here).
/// The result never depends on `threads`.
pub fn purge_with_threads(
    collection: &BlockCollection,
    smoothing: f64,
    threads: usize,
) -> PurgeOutcome {
    let limit = purge_limit(collection, smoothing);
    let keep: Vec<bool> = (0..collection.len() as u32)
        .map(|i| collection.block_comparisons(BlockId(i)) <= limit)
        .collect();
    let purged_blocks = keep.iter().filter(|&&k| !k).count();
    let new = collection.retain_blocks(&keep, threads);
    PurgeOutcome {
        purged_comparisons: collection.total_comparisons() - new.total_comparisons(),
        collection: new,
        purged_blocks,
        max_comparisons_per_block: limit,
    }
}

/// The comparison-cardinality limit the greedy CC/BC scan settles on
/// (`u64::MAX` = keep everything).
fn purge_limit(collection: &BlockCollection, smoothing: f64) -> u64 {
    assert!(smoothing > 1.0, "smoothing factor must exceed 1");
    if collection.is_empty() {
        return u64::MAX;
    }

    // Distinct cardinalities ascending, with cumulative CC and BC.
    let mut sorted: Vec<(u64, u64)> = collection
        .blocks()
        .map(|b| (b.comparisons, b.len() as u64))
        .collect();
    sorted.sort_unstable();
    let mut levels: Vec<(u64, u64, u64)> = Vec::new(); // (card, cum_cc, cum_bc)
    let (mut cc, mut bc) = (0u64, 0u64);
    for (card, size) in sorted {
        cc += card;
        bc += size;
        match levels.last_mut() {
            Some((c, lcc, lbc)) if *c == card => {
                *lcc = cc;
                *lbc = bc;
            }
            _ => levels.push((card, cc, bc)),
        }
    }

    // Greedy scan from the largest level down: keep cutting while the
    // CC/BC ratio improves by more than `smoothing`.
    let ratio = |i: usize| levels[i].1 as f64 / levels[i].2 as f64;
    let mut limit = u64::MAX; // keep everything
    let mut i = levels.len() - 1;
    while i > 0 {
        if ratio(i - 1) * smoothing < ratio(i) {
            limit = levels[i - 1].0;
            i -= 1;
        } else {
            break;
        }
    }
    limit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::token_blocking;
    use crate::collection::ErMode;
    use minoan_datagen::{generate, profiles};
    use minoan_rdf::{DatasetBuilder, EntityId};

    #[test]
    fn purging_removes_the_giant_blocks() {
        // Real-ish data: the rdf:type blocks are enormous.
        let g = generate(&profiles::center_dense(300, 3));
        let c = token_blocking(&g.dataset, ErMode::CleanClean);
        let out = purge(&c);
        assert!(
            out.purged_blocks > 0,
            "expected oversized blocks to be purged"
        );
        assert!(out.collection.total_comparisons() < c.total_comparisons());
        assert!(out.max_comparisons_per_block < u64::MAX);
        // Purging must not remove entities wholesale: most remain placed.
        assert!(out.collection.placed_entities() as f64 > 0.9 * c.placed_entities() as f64);
    }

    #[test]
    fn purging_keeps_recall_high() {
        let g = generate(&profiles::center_dense(250, 8));
        let c = token_blocking(&g.dataset, ErMode::CleanClean);
        let out = purge(&c);
        let pairs: std::collections::BTreeSet<_> =
            out.collection.distinct_pairs().into_iter().collect();
        let found = g
            .truth
            .matching_pair_iter()
            .filter(|&(a, b)| pairs.contains(&(a, b)))
            .count() as f64;
        let pc = found / g.truth.matching_pairs() as f64;
        assert!(pc > 0.9, "purging lost too much recall: PC = {pc}");
    }

    #[test]
    fn uniform_blocks_are_untouched() {
        // All blocks the same size: a single level, nothing to cut.
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        for i in 0..10 {
            b.add_literal(k0, &format!("http://a/{i}"), "http://p", &format!("tok{i}"));
            b.add_literal(k1, &format!("http://b/{i}"), "http://p", &format!("tok{i}"));
        }
        let ds = b.build();
        let groups: Vec<(String, Vec<EntityId>)> = (0..10)
            .map(|i| (format!("tok{i}"), vec![EntityId(i), EntityId(i + 10)]))
            .collect();
        let c = crate::BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        let out = purge(&c);
        assert_eq!(out.purged_blocks, 0);
        assert_eq!(out.collection.total_comparisons(), c.total_comparisons());
        assert_eq!(out.max_comparisons_per_block, u64::MAX);
    }

    #[test]
    fn one_giant_block_among_small_ones_is_purged() {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        for i in 0..40 {
            b.add_literal(k0, &format!("http://a/{i}"), "http://p", "x");
        }
        for i in 40..80 {
            b.add_literal(k1, &format!("http://b/{i}"), "http://p", "x");
        }
        let ds = b.build();
        let mut groups: Vec<(String, Vec<EntityId>)> = (0..40u32)
            .map(|i| (format!("tok{i:02}"), vec![EntityId(i), EntityId(i + 40)]))
            .collect();
        // The giant block holds everyone: 40×40 = 1600 comparisons.
        groups.push(("common".into(), (0..80).map(EntityId).collect()));
        let c = crate::BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        let out = purge(&c);
        assert_eq!(out.purged_blocks, 1);
        assert_eq!(out.collection.len(), 40);
        assert_eq!(out.purged_comparisons, 1600);
    }

    #[test]
    fn empty_collection_is_fine() {
        let ds = DatasetBuilder::new().build();
        let c = token_blocking(&ds, ErMode::CleanClean);
        let out = purge(&c);
        assert_eq!(out.purged_blocks, 0);
        assert!(out.collection.is_empty());
    }

    #[test]
    fn lower_smoothing_purges_at_least_as_much() {
        let g = generate(&profiles::center_dense(250, 5));
        let c = token_blocking(&g.dataset, ErMode::CleanClean);
        let gentle = purge_with(&c, 2.0);
        let aggressive = purge_with(&c, 1.01);
        assert!(aggressive.collection.total_comparisons() <= gentle.collection.total_comparisons());
    }

    #[test]
    #[should_panic(expected = "smoothing factor")]
    fn smoothing_must_exceed_one() {
        let ds = DatasetBuilder::new().build();
        let c = token_blocking(&ds, ErMode::CleanClean);
        let _ = purge_with(&c, 1.0);
    }
}
