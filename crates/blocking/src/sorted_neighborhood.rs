//! Sorted-neighborhood blocking.
//!
//! The Sorted Neighborhood Method (SNM, Hernández & Stolfo) sorts all
//! descriptions by a blocking key and compares only descriptions within a
//! sliding window. The schema-agnostic adaptation used for the Web of Data
//! (Papadakis et al.'s "sorted blocks" family) has no single record key;
//! instead **every token is a sort key**: the `(token, entity)` pairs are
//! sorted lexicographically and the window slides over the resulting entity
//! sequence, so descriptions sharing rare adjacent tokens end up close.
//!
//! Both variants below emit ordinary [`BlockCollection`]s (one block per
//! window / key run), so purging, filtering and meta-blocking compose with
//! them unchanged — overlapping windows create exactly the repeated
//! comparisons meta-blocking exists to prune.

use crate::collection::{BlockCollection, ErMode};
use minoan_rdf::{Dataset, EntityId};

/// The sorted `(token, entity)` array underlying both variants.
///
/// Tokens are the schema-agnostic blocking tokens of each description
/// (literal value tokens + URI-infix tokens), deduplicated per entity.
pub fn sorted_token_entities(dataset: &Dataset) -> Vec<(String, EntityId)> {
    let mut pairs: Vec<(String, EntityId)> = Vec::new();
    for e in dataset.entities() {
        let mut tokens = dataset.blocking_tokens(e);
        tokens.sort_unstable();
        tokens.dedup();
        for t in tokens {
            pairs.push((t, e));
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Entries per window of [`sorted_neighborhood`].
pub const WINDOW: usize = 6;
/// Characters of the sort key that must agree for [`adaptive_sorted_neighborhood`]
/// to keep two entries in one run.
pub const PREFIX_LEN: usize = 4;
/// The largest run [`adaptive_sorted_neighborhood`] keeps as one block
/// (guards against degenerate all-same-prefix data).
pub const MAX_BLOCK: usize = 32;

/// Fixed-window sorted neighborhood: one block per window of [`WINDOW`]
/// consecutive entries in the sorted token–entity array.
///
/// Consecutive duplicate entities inside a window are deduplicated by the
/// collection; windows that induce no comparison are dropped.
pub fn sorted_neighborhood(dataset: &Dataset, mode: ErMode) -> BlockCollection {
    let pairs = sorted_token_entities(dataset);
    let mut groups: Vec<(String, Vec<EntityId>)> = Vec::new();
    if pairs.len() >= WINDOW {
        for (i, w) in pairs.windows(WINDOW).enumerate() {
            let members: Vec<EntityId> = w.iter().map(|(_, e)| *e).collect();
            groups.push((format!("snw:{i:08}"), members));
        }
    } else if !pairs.is_empty() {
        groups.push((
            "snw:00000000".to_string(),
            pairs.iter().map(|(_, e)| *e).collect(),
        ));
    }
    BlockCollection::from_groups(dataset, mode, groups)
}

/// Adaptive sorted neighborhood: instead of a fixed window, the entity
/// sequence is cut wherever the sort key changes by more than a shared
/// prefix of [`PREFIX_LEN`] characters — runs of near-identical keys form
/// one block each, so dense key regions get wide windows and sparse
/// regions narrow ones (the "incrementally adaptive SNM" idea of Yan et
/// al.). A run is cut at [`MAX_BLOCK`] entries.
pub fn adaptive_sorted_neighborhood(dataset: &Dataset, mode: ErMode) -> BlockCollection {
    let pairs = sorted_token_entities(dataset);
    let mut groups: Vec<(String, Vec<EntityId>)> = Vec::new();
    let mut run: Vec<EntityId> = Vec::new();
    let mut run_prefix: Option<String> = None;
    let mut run_id = 0usize;
    let flush =
        |run: &mut Vec<EntityId>, run_id: &mut usize, groups: &mut Vec<(String, Vec<EntityId>)>| {
            if run.len() >= 2 {
                groups.push((format!("asn:{:08}", *run_id), std::mem::take(run)));
                *run_id += 1;
            } else {
                run.clear();
            }
        };
    for (token, e) in &pairs {
        let prefix: String = token.chars().take(PREFIX_LEN).collect();
        let same = run_prefix.as_deref() == Some(prefix.as_str());
        if !same || run.len() >= MAX_BLOCK {
            flush(&mut run, &mut run_id, &mut groups);
            run_prefix = Some(prefix);
        }
        run.push(*e);
    }
    flush(&mut run, &mut run_id, &mut groups);
    BlockCollection::from_groups(dataset, mode, groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_rdf::DatasetBuilder;

    /// Two KBs; e0/e2 share the rare token "zyzzyva", e1 is unrelated.
    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        b.add_literal(k0, "http://a/0", "http://p/label", "zyzzyva insect");
        b.add_literal(k0, "http://a/1", "http://p/label", "unrelated words");
        b.add_literal(k1, "http://b/2", "http://p/label", "zyzzyva beetle");
        b.add_literal(k1, "http://b/3", "http://p/label", "different thing");
        b.build()
    }

    #[test]
    fn sorted_array_is_sorted_and_deduped() {
        let ds = dataset();
        let pairs = sorted_token_entities(&ds);
        assert!(pairs.windows(2).all(|w| w[0] <= w[1]));
        // Each (token, entity) appears once.
        let mut seen = pairs.clone();
        seen.dedup();
        assert_eq!(seen.len(), pairs.len());
    }

    #[test]
    fn window_blocks_pair_adjacent_rare_tokens() {
        let ds = dataset();
        let blocks = sorted_neighborhood(&ds, ErMode::CleanClean);
        // "zyzzyva" entries from e0 and e2 are adjacent in the sort → some
        // window holds both, hence a cross-KB comparison of (0, 2).
        let pairs = blocks.distinct_pairs();
        assert!(
            pairs.contains(&(EntityId(0), EntityId(2))),
            "expected (e0,e2) among {pairs:?}"
        );
    }

    #[test]
    fn adaptive_groups_shared_prefixes() {
        let ds = dataset();
        let blocks = adaptive_sorted_neighborhood(&ds, ErMode::CleanClean);
        let pairs = blocks.distinct_pairs();
        assert!(
            pairs.contains(&(EntityId(0), EntityId(2))),
            "zyzz-prefix run should pair e0 and e2: {pairs:?}"
        );
    }

    /// Forty descriptions with one shared token form one run, cut at
    /// `MAX_BLOCK`.
    #[test]
    fn adaptive_respects_max_block() {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        for i in 0..40 {
            b.add_literal(k0, &format!("http://a/{i}"), "http://p/label", "zyzzyva");
        }
        let ds = b.build();
        let blocks = adaptive_sorted_neighborhood(&ds, ErMode::Dirty);
        let sizes: Vec<usize> = blocks.blocks().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![MAX_BLOCK, 40 - MAX_BLOCK]);
    }

    #[test]
    fn tiny_dataset_single_window() {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        b.add_literal(k0, "http://a/0", "http://p/x", "quince");
        b.add_literal(k1, "http://b/1", "http://p/x", "rhubarb");
        let ds = b.build();
        // `WINDOW` larger than the token array → one catch-all block.
        let blocks = sorted_neighborhood(&ds, ErMode::CleanClean);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks.total_comparisons(), 1);
    }

    #[test]
    fn empty_dataset_yields_no_blocks() {
        let ds = DatasetBuilder::new().build();
        assert!(sorted_neighborhood(&ds, ErMode::Dirty).is_empty());
        assert!(adaptive_sorted_neighborhood(&ds, ErMode::Dirty).is_empty());
    }
}
