//! The block-cleaning specification `purge` and `filter` are checked
//! against: each stated once, from its module doc, over the collection's
//! public accessors, emitting `key → members` groups for the reference
//! builder `BlockCollection::from_groups`.

use minoan::blocking::BlockCollection;
use minoan::rdf::EntityId;

/// `key → members` groups, in block order.
pub type Groups = Vec<(String, Vec<EntityId>)>;

fn groups(blocks: &BlockCollection, members: impl Iterator<Item = Vec<EntityId>>) -> Groups {
    let keys = blocks.blocks().map(|b| blocks.key_str(b.id).to_string());
    keys.zip(members).filter(|(_, m)| !m.is_empty()).collect()
}

/// Comparison-based purging. Over the distinct block cardinalities ‖b‖,
/// `CC(d)` and `BC(d)` are the comparisons and the block assignments of
/// the blocks with ‖b‖ ≤ d. From the largest cardinality down, a level is
/// cut while `CC/BC` one level below, times `smoothing`, is strictly
/// under its own; every block at or below the last level left uncut is
/// kept. Returns that limit (`u64::MAX` when nothing is cut) and the kept
/// blocks.
pub fn purge(blocks: &BlockCollection, smoothing: f64) -> (u64, Groups) {
    let mut levels: Vec<u64> = blocks.blocks().map(|b| b.comparisons).collect();
    levels.sort_unstable();
    levels.dedup();
    let ratio = |d: u64| {
        let below = blocks.blocks().filter(|b| b.comparisons <= d);
        let (cc, bc) = below.fold((0u64, 0u64), |(cc, bc), b| {
            (cc + b.comparisons, bc + b.len() as u64)
        });
        cc as f64 / bc as f64
    };
    let mut limit = u64::MAX;
    for pair in levels.windows(2).rev() {
        if ratio(pair[0]) * smoothing < ratio(pair[1]) {
            limit = pair[0];
        } else {
            break;
        }
    }
    let kept = blocks.blocks().map(|b| {
        if b.comparisons <= limit {
            b.entities.to_vec()
        } else {
            Vec::new()
        }
    });
    (limit, groups(blocks, kept))
}

/// Block filtering. Each entity keeps the `ceil(ratio · |B_e|)` of its
/// blocks with the fewest comparisons, ties to the smaller block id, and
/// each block keeps the members that kept it (`from_groups` drops a block
/// left without a comparison).
pub fn filter(blocks: &BlockCollection, ratio: f64) -> Groups {
    let mut members = vec![Vec::new(); blocks.len()];
    for e in (0..blocks.num_entities() as u32).map(EntityId) {
        let mut own = blocks.entity_blocks(e).to_vec();
        own.sort_by_key(|&b| (blocks.block_comparisons(b), b));
        let keep = (ratio * own.len() as f64).ceil() as usize;
        for b in own.into_iter().take(keep) {
            members[b.index()].push(e);
        }
    }
    groups(blocks, members.into_iter())
}
