//! Canopy-clustering blocking.
//!
//! McCallum, Nigam & Ungar's canopy method: pick a seed description, gather
//! every description within a *loose* cheap-similarity threshold `T1` into
//! its canopy, and remove from the seed pool those within the *tight*
//! threshold `T2 ≥ T1` (they are represented well enough by this canopy).
//! Canopies overlap, so borderline descriptions get multiple chances — a
//! good fit for the heterogeneous Web-of-Data descriptions the paper
//! targets.
//!
//! The cheap similarity is token-set Jaccard, computed only against
//! descriptions sharing at least one token with the seed (via an inverted
//! index), so the pass stays near-linear on sparse data rather than O(n²).

use crate::collection::{BlockCollection, ErMode};
use minoan_common::FxHashMap;
use minoan_rdf::{Dataset, EntityId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Loose threshold: token-set Jaccard ≥ `T1` joins the canopy.
pub const T1: f64 = 0.15;
/// Tight threshold (≥ [`T1`]): Jaccard ≥ `T2` also removes the
/// description from the seed pool.
pub const T2: f64 = 0.5;
/// Seed-order shuffle seed (canopy output depends on seed order).
pub const SEED: u64 = 0xca40;

/// Runs canopy clustering over the blocking-token sets; each canopy with at
/// least two members becomes a block keyed `canopy:{seed-entity}`.
pub fn canopy_blocking(dataset: &Dataset, mode: ErMode) -> BlockCollection {
    let n = dataset.len();
    // Token sets + inverted index (token → entities), tokens as dense ids.
    let mut token_ids: FxHashMap<String, u32> = FxHashMap::default();
    let mut sets: Vec<Vec<u32>> = Vec::with_capacity(n);
    for e in dataset.entities() {
        let mut tokens = dataset.blocking_tokens(e);
        tokens.sort_unstable();
        tokens.dedup();
        let mut ids: Vec<u32> = tokens
            .into_iter()
            .map(|t| {
                let next = token_ids.len() as u32;
                *token_ids.entry(t).or_insert(next)
            })
            .collect();
        ids.sort_unstable();
        sets.push(ids);
    }
    let mut inverted: Vec<Vec<EntityId>> = vec![Vec::new(); token_ids.len()];
    for (i, set) in sets.iter().enumerate() {
        for &t in set {
            inverted[t as usize].push(EntityId(i as u32));
        }
    }

    let mut order: Vec<EntityId> = dataset.entities().collect();
    let mut rng = StdRng::seed_from_u64(SEED);
    order.shuffle(&mut rng);

    let mut available: Vec<bool> = vec![true; n];
    let mut groups: Vec<(String, Vec<EntityId>)> = Vec::new();
    for &seed_entity in &order {
        if !available[seed_entity.index()] {
            continue;
        }
        available[seed_entity.index()] = false;
        let seed_set = &sets[seed_entity.index()];
        if seed_set.is_empty() {
            continue;
        }
        // Candidates: entities sharing ≥ 1 token, with overlap counts.
        let mut overlap: FxHashMap<EntityId, u32> = FxHashMap::default();
        for &t in seed_set {
            for &other in &inverted[t as usize] {
                if other != seed_entity {
                    *overlap.entry(other).or_insert(0) += 1;
                }
            }
        }
        let mut canopy: Vec<EntityId> = vec![seed_entity];
        let mut members: Vec<(EntityId, f64)> = overlap
            .into_iter()
            .map(|(other, common)| {
                let union = seed_set.len() + sets[other.index()].len() - common as usize;
                (other, common as f64 / union as f64)
            })
            .filter(|&(_, j)| j >= T1)
            .collect();
        members.sort_unstable_by_key(|a| a.0);
        for &(other, j) in &members {
            canopy.push(other);
            if j >= T2 {
                available[other.index()] = false;
            }
        }
        if canopy.len() >= 2 {
            groups.push((format!("canopy:{:08}", seed_entity.0), canopy));
        }
    }
    BlockCollection::from_groups(dataset, mode, groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_rdf::DatasetBuilder;

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        b.add_literal(k0, "http://a/0", "http://p/d", "red wine from crete greece");
        b.add_literal(k1, "http://b/1", "http://p/d", "red wine from crete hellas");
        b.add_literal(
            k0,
            "http://a/2",
            "http://p/d",
            "blue bicycle with seven gears",
        );
        b.add_literal(
            k1,
            "http://b/3",
            "http://p/d",
            "bicycle blue having seven gears",
        );
        b.add_literal(
            k0,
            "http://a/4",
            "http://p/d",
            "totally unrelated text snippet",
        );
        b.build()
    }

    #[test]
    fn similar_pairs_share_a_canopy() {
        let ds = dataset();
        let blocks = canopy_blocking(&ds, ErMode::CleanClean);
        let pairs = blocks.distinct_pairs();
        assert!(
            pairs.contains(&(EntityId(0), EntityId(1))),
            "wine pair: {pairs:?}"
        );
        assert!(
            pairs.contains(&(EntityId(2), EntityId(3))),
            "bicycle pair: {pairs:?}"
        );
    }

    #[test]
    fn dissimilar_pairs_are_separated() {
        let ds = dataset();
        let blocks = canopy_blocking(&ds, ErMode::CleanClean);
        let pairs = blocks.distinct_pairs();
        assert!(
            !pairs.contains(&(EntityId(0), EntityId(3))),
            "wine vs bicycle: {pairs:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset();
        let a = canopy_blocking(&ds, ErMode::CleanClean);
        let b = canopy_blocking(&ds, ErMode::CleanClean);
        assert_eq!(a.distinct_pairs(), b.distinct_pairs());
    }

    #[test]
    fn empty_dataset() {
        let ds = DatasetBuilder::new().build();
        assert!(canopy_blocking(&ds, ErMode::Dirty).is_empty());
    }
}
