//! Block filtering.
//!
//! After purging, individual entities can still sit in very many blocks.
//! Block filtering (Papadakis et al.) keeps, for every entity, only the
//! `ratio` fraction of its blocks with the *fewest* comparisons — the most
//! discriminative evidence — and rebuilds the collection from the retained
//! (entity, block) assignments.

#![deny(clippy::disallowed_types)]

use crate::collection::BlockCollection;
use minoan_common::default_threads;
use minoan_rdf::EntityId;

/// Default retain ratio from the literature.
pub const DEFAULT_RATIO: f64 = 0.8;

/// Applies block filtering with `ratio` ∈ (0, 1]; each entity keeps
/// `ceil(ratio × |blocks(e)|)` of its smallest blocks.
///
/// This is a pure *index pass* over the flat collection: one scan of the
/// inverted slab marks the retained `(entity, block)` assignments in a
/// mask, using a single reused scratch buffer and an `O(|blocks(e)|)`
/// `select_nth_unstable_by_key` split per entity (fewest comparisons
/// first, ties by block id — the same deterministic keep set as a full
/// sort). The successor collection is then written straight into fresh
/// slabs with remapped block ids — no hash maps, no re-interning, no
/// per-entity copies of the block lists.
pub fn filter_with(collection: &BlockCollection, ratio: f64) -> BlockCollection {
    filter_with_threads(collection, ratio, default_threads())
}

/// As [`filter_with`] with an explicit worker count for the successor's
/// slab build (the pipeline threads its `workers` knob through here).
/// The result never depends on `threads`.
pub fn filter_with_threads(
    collection: &BlockCollection,
    ratio: f64,
    threads: usize,
) -> BlockCollection {
    assert!(
        ratio > 0.0 && ratio <= 1.0,
        "ratio must be in (0,1], got {ratio}"
    );
    let mut keep_mask = vec![false; collection.total_assignments() as usize];
    // Reused scratch of in-run indices — sized once to the largest run.
    let mut scratch: Vec<u32> = Vec::new();
    let mut offset = 0usize;
    for e in 0..collection.num_entities() as u32 {
        let bs = collection.entity_blocks(EntityId(e));
        if bs.is_empty() {
            continue;
        }
        let keep = ((ratio * bs.len() as f64).ceil() as usize).clamp(1, bs.len());
        scratch.clear();
        scratch.extend(0..bs.len() as u32);
        if keep < bs.len() {
            // Partition: the `keep` smallest (comparisons, id) keys land in
            // scratch[..keep]. Keys are distinct (ids break ties), so the
            // kept *set* equals the full sort's prefix.
            scratch.select_nth_unstable_by_key(keep - 1, |&i| {
                let b = bs[i as usize];
                (collection.block_comparisons(b), b)
            });
        }
        for &i in &scratch[..keep] {
            keep_mask[offset + i as usize] = true;
        }
        offset += bs.len();
    }
    collection.retain_assignments(&keep_mask, threads)
}

/// Block filtering with the standard ratio 0.8.
pub fn filter(collection: &BlockCollection) -> BlockCollection {
    filter_with(collection, DEFAULT_RATIO)
}

/// Convenience: the standard cleaning pipeline `purge → filter`.
pub fn clean(collection: &BlockCollection) -> BlockCollection {
    let purged = crate::purge::purge(collection);
    filter(&purged.collection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::token_blocking;
    use crate::collection::ErMode;
    use minoan_datagen::{generate, profiles};

    #[test]
    fn filtering_reduces_comparisons() {
        let g = generate(&profiles::center_dense(250, 4));
        let c = token_blocking(&g.dataset, ErMode::CleanClean);
        let f = filter_with(&c, 0.5);
        assert!(f.total_comparisons() < c.total_comparisons());
        assert!(f.total_assignments() < c.total_assignments());
    }

    #[test]
    fn ratio_one_changes_nothing_structurally() {
        let g = generate(&profiles::center_dense(100, 4));
        let c = token_blocking(&g.dataset, ErMode::CleanClean);
        let f = filter_with(&c, 1.0);
        assert_eq!(f.total_assignments(), c.total_assignments());
        assert_eq!(f.total_comparisons(), c.total_comparisons());
        assert_eq!(f.len(), c.len());
    }

    #[test]
    fn every_blocked_entity_keeps_at_least_one_block() {
        let g = generate(&profiles::center_dense(150, 6));
        let c = token_blocking(&g.dataset, ErMode::CleanClean);
        let f = filter_with(&c, 0.3);
        // Entities may drop out only if all their retained blocks lost their
        // cross-KB partners; the vast majority must remain placed.
        assert!(f.placed_entities() as f64 >= 0.8 * c.placed_entities() as f64);
    }

    #[test]
    fn filtering_keeps_recall_reasonable() {
        let g = generate(&profiles::center_dense(200, 10));
        let c = token_blocking(&g.dataset, ErMode::CleanClean);
        let f = filter(&c);
        let pairs: std::collections::BTreeSet<_> = f.distinct_pairs().into_iter().collect();
        let found = g
            .truth
            .matching_pair_iter()
            .filter(|&(a, b)| pairs.contains(&(a, b)))
            .count() as f64;
        let pc = found / g.truth.matching_pairs() as f64;
        assert!(pc > 0.85, "filtering lost too much recall: {pc}");
    }

    #[test]
    fn clean_pipeline_composes() {
        let g = generate(&profiles::center_dense(200, 12));
        let c = token_blocking(&g.dataset, ErMode::CleanClean);
        let cleaned = clean(&c);
        assert!(cleaned.total_comparisons() < c.total_comparisons());
        assert_eq!(cleaned.mode(), ErMode::CleanClean);
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn zero_ratio_panics() {
        let g = generate(&profiles::center_dense(50, 1));
        let c = token_blocking(&g.dataset, ErMode::CleanClean);
        let _ = filter_with(&c, 0.0);
    }
}
