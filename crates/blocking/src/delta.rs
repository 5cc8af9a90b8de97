//! Incremental maintenance of a token-blocking collection under batched
//! entity arrivals — the blocking half of the delta-sweep pipeline.
//!
//! The batch builders ([`crate::builders`]) tokenise a whole corpus and
//! counting-sort it into the flat CSR slabs in one shot. Under the
//! paper's pay-as-you-go arrival model that is the wrong shape: every
//! batch of new descriptions would re-tokenise and re-sort everything
//! already ingested. [`IncrementalCollection`] keeps the blocking state
//! *updatable* and **sweepable in place** instead, so that an ingest
//! costs `O(batch × neighbourhood)` and nothing in it is `O(corpus)`.
//!
//! # Maintained on touch
//!
//! * one persistent [`Interner`], so a token's [`Symbol`] is stable
//!   across every batch (batches are tokenised through the same
//!   string-free [`KeyAssignments`] path as the batch builders);
//! * per key: the sorted member list, grown by a backward sorted merge
//!   (`layout::merge_sorted_into`) — a delta-append, never a rebuild —
//!   with the comparison count and the ARCS reciprocal `1/‖b‖`,
//!   recomputed **only for the keys the batch touched**. A key *forms a
//!   block* once it induces ≥ 1 comparison; members are only ever added,
//!   so that is monotone;
//! * per entity: its keys **in key-string order** (fixed at arrival) and
//!   its live block count `|B_e|`, bumped only for *grown* entities;
//! * the live block count `|B|` and assignment total.
//!
//! That is everything a node-centric sweep reads, which is what the
//! [`BlockView`] implementation exposes: an entity's present blocks are
//! visited in key-string order — ascending block id in a materialised
//! collection — so f64 ARCS sums accumulate in the order a from-scratch
//! [`BlockCollection`] sweep would use and carry the same bits.
//!
//! Each [`IncrementalCollection::ingest`] returns a [`DeltaOutcome`]:
//! the *dirty sets* the meta-blocking delta-sweep needs — which blocks
//! changed, which entities' block lists grew, and which entities'
//! co-occurrence neighbourhoods are stale.
//!
//! # When a snapshot is built, and who pays
//!
//! Never by an ingest. [`IncrementalCollection::snapshot`] materialises
//! the merged corpus as a [`BlockCollection`] (logically identical to
//! `token_blocking` over the arrived entities — the equivalence is
//! property-tested) for consumers that need block ids or the flat slabs:
//! the equivalence suites and exports — the incremental meta-blocking
//! session sweeps the live slabs under every combination. It is
//! `O(corpus)` — every member slab copied, the interner cloned, the
//! entity→block CSR transposed — and the caller that asks pays it. The
//! block order it needs (present keys by key string) is kept lazily:
//! keys that become present are queued and merged in at the next
//! snapshot, so an ingest never touches an `O(keys)` table.

use crate::collection::{
    count_comparisons, for_each_co_member, BlockView, Direction, KbScratch, KeyAssignments,
};
use crate::layout::{merge_sorted_by_into, merge_sorted_into};
use crate::{BlockCollection, ErMode};
use minoan_common::{Interner, Symbol};
use minoan_rdf::tokenize::TokenBuffers;
use minoan_rdf::{Dataset, EntityId};
use std::sync::Arc;

/// What one [`IncrementalCollection::ingest`] changed. Blocks are named
/// by their key [`Symbol`], which is stable across ingests (the block
/// ids of a [`snapshot`](IncrementalCollection::snapshot) are not).
#[derive(Debug)]
pub struct DeltaOutcome {
    /// Blocks (ascending symbol) whose member list changed in this
    /// ingest, including the newly present ones.
    pub touched_blocks: Vec<Symbol>,
    /// Subset of [`Self::touched_blocks`]: blocks that crossed the
    /// presence threshold (≥ 2 members, ≥ 1 comparison) in this ingest.
    pub newly_present: Vec<Symbol>,
    /// Entities whose own block list changed: batch members that joined
    /// at least one present block, plus every member of a newly-present
    /// block. Sorted, deduplicated. A pre-batch member's co-occurrences
    /// are unchanged — only its block count `|B_e|` moved — so
    /// meta-blocking re-sweeps none of them: under JS it reads this list
    /// to mark the grown entities' rows and their neighbours' stale, and
    /// to add those neighbours to the cache-invalidation set.
    pub grown: Vec<EntityId>,
    /// Members of the touched blocks — every entity whose co-occurrence
    /// statistics (CBS / ARCS contributions) may have changed. Sorted,
    /// deduplicated; always a superset of [`Self::grown`].
    pub dirty: Vec<EntityId>,
}

/// One key's live slab.
#[derive(Default)]
struct KeyBlock {
    /// Arrived member entities, sorted ascending.
    members: Vec<EntityId>,
    /// Comparisons under the collection's mode; recomputed only on
    /// touch. The key forms a block iff this is non-zero.
    comparisons: u64,
    /// `1 / max(‖b‖, 1)`, refreshed with `comparisons`.
    inv_cardinality: f64,
}

/// An updatable token-blocking index over a fixed entity universe.
///
/// Entities of `dataset` arrive in batches via [`Self::ingest`]; the
/// collection maintains exactly the blocks `builders::token_blocking`
/// would build over the arrived subset, without ever re-tokenising or
/// re-sorting what already arrived, and is swept in place through
/// [`BlockView`].
pub struct IncrementalCollection<'d> {
    dataset: &'d Dataset,
    mode: ErMode,
    /// Persistent token interner — symbols are stable across batches.
    keys: Interner,
    /// Per symbol: its live slab.
    blocks: Vec<KeyBlock>,
    /// Present symbols in key-string order, as of the last snapshot.
    order: Vec<Symbol>,
    /// Symbols that became present since, not yet merged into `order`.
    unordered: Vec<Symbol>,
    /// Per entity: its distinct key symbols in key-string order (empty
    /// until arrival).
    keys_of: Vec<Vec<Symbol>>,
    /// Per entity: how many of its keys currently form a block (|B_e|).
    block_counts: Vec<u32>,
    /// Σ member counts over the present blocks.
    total_assignments: u64,
    arrived: Vec<bool>,
    num_arrived: usize,
    kb_of: Vec<u16>,
    num_kbs: usize,
}

impl<'d> IncrementalCollection<'d> {
    /// An empty collection over `dataset`'s entity universe; no entity
    /// has arrived yet.
    pub fn new(dataset: &'d Dataset, mode: ErMode) -> Self {
        let kb_of: Vec<u16> = (0..dataset.len() as u32)
            .map(|e| dataset.kb_of(EntityId(e)).0)
            .collect();
        let num_kbs = dataset.kbs().len();
        Self {
            dataset,
            mode,
            keys: Interner::new(),
            blocks: Vec::new(),
            order: Vec::new(),
            unordered: Vec::new(),
            keys_of: vec![Vec::new(); dataset.len()],
            block_counts: vec![0; dataset.len()],
            total_assignments: 0,
            arrived: vec![false; dataset.len()],
            num_arrived: 0,
            kb_of,
            num_kbs,
        }
    }

    /// Ingests a batch of newly-arrived entities: tokenises them through
    /// the string-free [`KeyAssignments`] path, delta-appends their
    /// assignments into the per-key slabs, refreshes comparisons,
    /// reciprocals and block counts for the touched keys and grown
    /// entities only, and returns the dirty sets. Serial and
    /// `O(batch × neighbourhood)`; `_threads` is accepted so callers can
    /// pass one worker count to every stage of an ingest.
    ///
    /// # Panics
    /// Panics if an entity in `batch` already arrived.
    pub fn ingest(&mut self, batch: &[EntityId], _threads: usize) -> DeltaOutcome {
        let (touched_blocks, newly_present, mut grown) = self.merge_batch(batch);
        let mut dirty: Vec<EntityId> = Vec::new();
        for &s in &touched_blocks {
            dirty.extend_from_slice(&self.blocks[s.index()].members);
        }
        dirty.sort_unstable();
        dirty.dedup();
        grown.sort_unstable();
        grown.dedup();
        DeltaOutcome {
            touched_blocks,
            newly_present,
            grown,
            dirty,
        }
    }

    /// [`Self::ingest`] without the dirty sets — for consumers that read
    /// the live slabs through [`Self::entity_keys`] /
    /// [`Self::key_members`]. One `absorb` per description keeps an
    /// arrival loop at delta cost.
    ///
    /// # Panics
    /// Panics if an entity in `batch` already arrived.
    pub fn absorb(&mut self, batch: &[EntityId]) {
        self.merge_batch(batch);
    }

    /// Tokenises `batch` and merges its assignments into the per-key
    /// slabs; returns `(touched, newly_present, grown)` — `touched`
    /// ascending by symbol, `grown` unsorted with duplicates.
    fn merge_batch(&mut self, batch: &[EntityId]) -> (Vec<Symbol>, Vec<Symbol>, Vec<EntityId>) {
        // 1. Tokenise the batch through the persistent interner.
        let mut asg = KeyAssignments::with_keys(std::mem::take(&mut self.keys));
        let mut buffers = TokenBuffers::default();
        for &e in batch {
            assert!(
                !self.arrived[e.index()],
                "entity {e:?} ingested twice into the incremental collection"
            );
            self.arrived[e.index()] = true;
            self.dataset
                .for_each_blocking_token(e, &mut buffers, |tok| asg.push_key(tok));
            asg.seal_entity();
        }
        self.num_arrived += batch.len();
        let (keys, syms, ends) = asg.into_parts();
        self.keys = keys;
        self.blocks.resize_with(self.keys.len(), KeyBlock::default);

        // 2. Group the batch assignments by symbol (a sort, not a hash
        //    map — deterministic and slab-friendly) and merge each run
        //    into its sorted member list. Each entity keeps its own keys
        //    in key-string order: the order its sweeps visit them in.
        let mut additions: Vec<(Symbol, EntityId)> = Vec::with_capacity(syms.len());
        let mut start = 0usize;
        for (&e, &end) in batch.iter().zip(&ends) {
            let run = &syms[start..end as usize];
            additions.extend(run.iter().map(|&s| (s, e)));
            let mut own = run.to_vec();
            own.sort_unstable_by(|&a, &b| self.keys.resolve(a).cmp(self.keys.resolve(b)));
            self.keys_of[e.index()] = own;
            start = end as usize;
        }
        additions.sort_unstable();

        let mut touched: Vec<Symbol> = Vec::new();
        let mut newly_present: Vec<Symbol> = Vec::new();
        let mut grown: Vec<EntityId> = Vec::new();
        let mut scratch = KbScratch::new(self.num_kbs);
        let mut run: Vec<EntityId> = Vec::new();
        let mut i = 0usize;
        while i < additions.len() {
            let sym = additions[i].0;
            run.clear();
            while i < additions.len() && additions[i].0 == sym {
                run.push(additions[i].1);
                i += 1;
            }
            let block = &mut self.blocks[sym.index()];
            let was_present = block.comparisons > 0;
            merge_sorted_into(&mut block.members, &run);
            if block.members.len() >= 2 {
                block.comparisons =
                    count_comparisons(&block.members, &self.kb_of, self.mode, &mut scratch);
            }
            if block.comparisons == 0 {
                continue;
            }
            block.inv_cardinality = 1.0 / (block.comparisons as f64).max(1.0);
            touched.push(sym);
            // A present block grows the block list of the batch members
            // just merged into it; a newly-present one grows *every*
            // member's, pre-batch members included.
            let joined: &[EntityId] = if was_present {
                &run
            } else {
                newly_present.push(sym);
                &block.members
            };
            for &e in joined {
                self.block_counts[e.index()] += 1;
            }
            self.total_assignments += joined.len() as u64;
            grown.extend_from_slice(joined);
        }
        self.unordered.extend_from_slice(&newly_present);
        (touched, newly_present, grown)
    }

    /// Builds the merged-corpus [`BlockCollection`] from the per-key
    /// slabs: the present symbols in key-string order, sharing a clone of
    /// the persistent interner. Logically identical to running
    /// `builders::token_blocking` over the arrived entities (key
    /// strings, members, comparisons — symbols may differ because the
    /// interners assign them in arrival order). `O(corpus)`; see the
    /// [module docs](self) for who should call it.
    pub fn snapshot(&mut self, threads: usize) -> BlockCollection {
        let keys = &self.keys;
        let by_key = |a: &Symbol, b: &Symbol| keys.resolve(*a).cmp(keys.resolve(*b));
        self.unordered.sort_unstable_by(by_key);
        merge_sorted_by_into(&mut self.order, &self.unordered, by_key);
        self.unordered.clear();

        let mut block_offsets = Vec::with_capacity(self.order.len() + 1);
        block_offsets.push(0u32);
        let mut block_entities: Vec<EntityId> = Vec::with_capacity(self.total_assignments as usize);
        let mut comparisons = Vec::with_capacity(self.order.len());
        for &s in &self.order {
            let block = &self.blocks[s.index()];
            block_entities.extend_from_slice(&block.members);
            block_offsets.push(
                u32::try_from(block_entities.len()).expect("block slab exceeds u32::MAX entries"),
            );
            comparisons.push(block.comparisons);
        }
        BlockCollection::finish(
            self.mode,
            Arc::new(self.keys.clone()),
            self.order.clone(),
            block_offsets,
            block_entities,
            comparisons,
            self.kb_of.clone(),
            self.num_kbs,
            threads,
        )
    }

    /// ER mode the collection maintains its comparison counts under.
    pub fn mode(&self) -> ErMode {
        self.mode
    }

    /// The fixed entity universe the arrivals are drawn from.
    pub fn dataset(&self) -> &'d Dataset {
        self.dataset
    }

    /// Whether entity `e` has arrived.
    pub fn has_arrived(&self, e: EntityId) -> bool {
        self.arrived[e.index()]
    }

    /// Number of arrived entities.
    pub fn num_arrived(&self) -> usize {
        self.num_arrived
    }

    /// Number of currently-present blocks.
    pub fn num_blocks(&self) -> usize {
        self.order.len() + self.unordered.len()
    }

    /// Σ member counts over the present blocks (the "block assignments"
    /// BC a snapshot would report), maintained on touch.
    pub fn total_assignments(&self) -> u64 {
        self.total_assignments
    }

    /// The string of key `s`.
    pub fn key_str(&self, s: Symbol) -> &str {
        self.keys.resolve(s)
    }

    /// The distinct blocking-key symbols of an arrived entity, in
    /// key-string order (empty until `e` arrives). Symbols are stable
    /// across batches, so this slice never changes after arrival.
    pub fn entity_keys(&self, e: EntityId) -> &[Symbol] {
        &self.keys_of[e.index()]
    }

    /// The arrived members of key `s`'s block, sorted ascending — empty
    /// unless the key currently forms a block (≥ 1 comparison under the
    /// ER mode), exactly the blocks a snapshot would contain.
    pub fn key_members(&self, s: Symbol) -> &[EntityId] {
        match self.blocks.get(s.index()) {
            Some(block) if block.comparisons > 0 => &block.members,
            _ => &[],
        }
    }

    /// The present blocks containing `e`, in key-string order.
    #[inline]
    fn present_blocks(&self, e: EntityId) -> impl Iterator<Item = &KeyBlock> + '_ {
        self.keys_of[e.index()]
            .iter()
            .map(move |s| &self.blocks[s.index()])
            .filter(|block| block.comparisons > 0)
    }
}

impl BlockView for IncrementalCollection<'_> {
    #[inline]
    fn num_blocks(&self) -> usize {
        IncrementalCollection::num_blocks(self)
    }

    #[inline]
    fn entity_block_count(&self, e: EntityId) -> u32 {
        self.block_counts[e.index()]
    }

    #[inline]
    fn sweep_cost(&self, e: EntityId) -> u64 {
        self.present_blocks(e)
            .map(|block| block.members.len() as u64)
            .sum()
    }

    #[inline]
    fn for_each_co_occurrence(
        &self,
        a: EntityId,
        direction: Direction,
        mut f: impl FnMut(f64, EntityId),
    ) {
        let dirty = self.mode == ErMode::Dirty;
        let kb = self.kb_of[a.index()];
        for block in self.present_blocks(a) {
            for_each_co_member(
                &block.members,
                a,
                direction,
                |y| y != a && (dirty || self.kb_of[y.index()] != kb),
                |y| f(block.inv_cardinality, y),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::token_blocking;
    use minoan_datagen::{generate, profiles};

    /// `token_blocking` restricted to the arrived subset: same dataset
    /// (same entity ids and KB partition), empty key runs for entities
    /// that have not arrived.
    fn reference(dataset: &Dataset, mode: ErMode, arrived: &[bool]) -> BlockCollection {
        let mut asg = KeyAssignments::with_capacity(dataset.len());
        let mut buffers = TokenBuffers::default();
        for e in dataset.entities() {
            if arrived[e.index()] {
                dataset.for_each_blocking_token(e, &mut buffers, |tok| asg.push_key(tok));
            }
            asg.seal_entity();
        }
        BlockCollection::from_assignments(dataset, mode, asg)
    }

    fn assert_same(a: &BlockCollection, b: &BlockCollection, label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: block count");
        for (x, y) in a.blocks().zip(b.blocks()) {
            assert_eq!(a.key_str(x.id), b.key_str(y.id), "{label}: key order");
            assert_eq!(x.entities, y.entities, "{label}: members");
            assert_eq!(x.comparisons, y.comparisons, "{label}: comparisons");
            assert_eq!(
                a.inv_cardinality(x.id).to_bits(),
                b.inv_cardinality(y.id).to_bits(),
                "{label}: inv_cardinality bits"
            );
        }
        for e in 0..a.num_entities() as u32 {
            assert_eq!(
                a.entity_blocks(EntityId(e)),
                b.entity_blocks(EntityId(e)),
                "{label}: entity {e} blocks"
            );
        }
        assert_eq!(a.total_comparisons(), b.total_comparisons(), "{label}");
    }

    #[test]
    fn ingest_matches_from_scratch_rebuild_per_batch() {
        let g = generate(&profiles::center_dense(120, 13));
        let ds = &g.dataset;
        for mode in [ErMode::CleanClean, ErMode::Dirty] {
            let mut inc = IncrementalCollection::new(ds, mode);
            let mut arrived = vec![false; ds.len()];
            let all: Vec<EntityId> = ds.entities().collect();
            for (i, batch) in all.chunks(17).enumerate() {
                inc.ingest(batch, 2);
                for &e in batch {
                    arrived[e.index()] = true;
                }
                let expect = reference(ds, mode, &arrived);
                assert_same(&inc.snapshot(2), &expect, &format!("{mode:?}/batch {i}"));
            }
            assert_eq!(inc.num_arrived(), ds.len());
        }
    }

    #[test]
    fn dirty_sets_are_consistent() {
        let g = generate(&profiles::center_dense(100, 29));
        let ds = &g.dataset;
        let mut inc = IncrementalCollection::new(ds, ErMode::CleanClean);
        let all: Vec<EntityId> = ds.entities().collect();
        let mut prev_blocks = 0usize;
        for batch in all.chunks(11) {
            let delta = inc.ingest(batch, 1);
            let snap = &inc.snapshot(1);
            // Dirty sets name blocks by key symbol; the snapshot by id.
            let block_of = |s: &Symbol| {
                snap.blocks()
                    .find(|b| snap.key_str(b.id) == inc.key_str(*s))
                    .expect("a touched block is present")
                    .id
            };
            // Presence is monotone under arrivals.
            assert!(snap.len() >= prev_blocks);
            prev_blocks = snap.len();
            // grown ⊆ dirty, batch ⊆ grown.
            let dirty: std::collections::BTreeSet<_> = delta.dirty.iter().copied().collect();
            for &e in &delta.grown {
                assert!(dirty.contains(&e), "grown must be dirty");
            }
            let grown: std::collections::BTreeSet<_> = delta.grown.iter().copied().collect();
            for &e in batch {
                if !snap.entity_blocks(e).is_empty() {
                    assert!(grown.contains(&e), "blocked batch entity must be grown");
                }
            }
            // Every block containing a batch entity is touched.
            let touched: std::collections::BTreeSet<_> =
                delta.touched_blocks.iter().map(block_of).collect();
            for &e in batch {
                for &b in snap.entity_blocks(e) {
                    assert!(touched.contains(&b), "block of a batch entity not touched");
                }
            }
            // dirty = exactly the members of the touched blocks.
            let mut expect: Vec<EntityId> = touched
                .iter()
                .flat_map(|&b| snap.block_entities(b).iter().copied())
                .collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(delta.dirty, expect);
            // newly_present ⊆ touched.
            for s in &delta.newly_present {
                assert!(touched.contains(&block_of(s)));
            }
        }
    }

    #[test]
    fn untouched_blocks_keep_members_across_ingests() {
        let g = generate(&profiles::center_dense(90, 3));
        let ds = &g.dataset;
        let mut inc = IncrementalCollection::new(ds, ErMode::CleanClean);
        let all: Vec<EntityId> = ds.entities().collect();
        let (first, second) = all.split_at(all.len() / 2);
        inc.ingest(first, 1);
        let snap1 = inc.snapshot(1);
        let d2 = inc.ingest(second, 1);
        let snap2 = inc.snapshot(1);
        let touched: std::collections::BTreeSet<&str> =
            d2.touched_blocks.iter().map(|&s| inc.key_str(s)).collect();
        // A block untouched by the second ingest has identical members
        // before and after (looked up by key string — ids remap).
        for b1 in snap1.blocks() {
            let key = snap1.key_str(b1.id);
            if touched.contains(key) {
                continue;
            }
            let b2 = snap2
                .blocks()
                .find(|b| snap2.key_str(b.id) == key)
                .expect("presence is monotone");
            assert_eq!(b1.entities, b2.entities, "key {key}");
            assert_eq!(b1.comparisons, b2.comparisons, "key {key}");
        }
    }

    #[test]
    #[should_panic(expected = "ingested twice")]
    fn double_ingest_panics() {
        let g = generate(&profiles::center_dense(20, 1));
        let mut inc = IncrementalCollection::new(&g.dataset, ErMode::CleanClean);
        inc.ingest(&[EntityId(0)], 1);
        inc.ingest(&[EntityId(0)], 1);
    }

    #[test]
    fn empty_collection_snapshots_empty() {
        let g = generate(&profiles::center_dense(30, 2));
        let mut inc = IncrementalCollection::new(&g.dataset, ErMode::CleanClean);
        let snap = inc.snapshot(1);
        assert!(snap.is_empty());
        assert_eq!(snap.num_entities(), g.dataset.len());
    }

    #[test]
    fn absorb_and_accessors_agree_with_ingest_snapshots() {
        let g = generate(&profiles::center_dense(70, 19));
        let ds = &g.dataset;
        let mut lazy = IncrementalCollection::new(ds, ErMode::CleanClean);
        let mut eager = IncrementalCollection::new(ds, ErMode::CleanClean);
        let all: Vec<EntityId> = ds.entities().collect();
        for batch in all.chunks(13) {
            lazy.absorb(batch);
            eager.ingest(batch, 1);
            let snap = &eager.snapshot(1);
            assert_eq!(lazy.num_blocks(), snap.len());
            for e in ds.entities() {
                // Per-entity keys resolve to exactly the entity's
                // present snapshot blocks plus its presence-pending keys.
                let present: Vec<&[EntityId]> = lazy
                    .entity_keys(e)
                    .iter()
                    .map(|&s| lazy.key_members(s))
                    .filter(|m| !m.is_empty())
                    .collect();
                let expect: Vec<&[EntityId]> = snap
                    .entity_blocks(e)
                    .iter()
                    .map(|&b| snap.block_entities(b))
                    .collect();
                let mut present = present;
                present.sort_unstable();
                let mut expect = expect;
                expect.sort_unstable();
                assert_eq!(present, expect, "entity {e:?} block membership");
            }
        }
        // A later snapshot from the absorb-only collection still works.
        let snap = lazy.snapshot(2);
        let expect = token_blocking(ds, ErMode::CleanClean);
        assert_same(&snap, &expect, "absorb-only final snapshot");
    }

    #[test]
    fn live_view_sweeps_exactly_what_a_snapshot_sweeps() {
        fn co_occurrences(
            view: &impl BlockView,
            e: EntityId,
            direction: Direction,
        ) -> Vec<(u64, EntityId)> {
            let mut seen = Vec::new();
            view.for_each_co_occurrence(e, direction, |inv, y| seen.push((inv.to_bits(), y)));
            seen
        }
        let g = generate(&profiles::center_dense(90, 23));
        let ds = &g.dataset;
        for mode in [ErMode::CleanClean, ErMode::Dirty] {
            let mut inc = IncrementalCollection::new(ds, mode);
            let all: Vec<EntityId> = ds.entities().collect();
            for batch in all.chunks(19) {
                inc.ingest(batch, 1);
                let snap = inc.snapshot(1);
                assert_eq!(inc.num_blocks(), snap.len());
                assert_eq!(inc.total_assignments(), snap.total_assignments());
                for e in ds.entities() {
                    assert_eq!(
                        inc.entity_block_count(e) as usize,
                        snap.entity_blocks(e).len(),
                        "{mode:?}: |B_e| of {e:?}"
                    );
                    assert_eq!(inc.sweep_cost(e), snap.sweep_cost(e));
                    // Same co-members, same 1/‖b‖ bits, same visit order.
                    let full = co_occurrences(&inc, e, Direction::Both);
                    assert_eq!(
                        full,
                        co_occurrences(&snap, e, Direction::Both),
                        "{mode:?}: sweep of {e:?}"
                    );
                    // The forward visit is the full one minus `y < e`,
                    // order kept — on either layout.
                    let forward: Vec<_> = full.into_iter().filter(|&(_, y)| y > e).collect();
                    for (layout, seen) in [
                        ("live", co_occurrences(&inc, e, Direction::Forward)),
                        ("snapshot", co_occurrences(&snap, e, Direction::Forward)),
                    ] {
                        assert_eq!(seen, forward, "{mode:?}/{layout}: forward sweep of {e:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn full_single_batch_matches_token_blocking() {
        let g = generate(&profiles::center_dense(80, 7));
        let ds = &g.dataset;
        let mut inc = IncrementalCollection::new(ds, ErMode::CleanClean);
        let all: Vec<EntityId> = ds.entities().collect();
        inc.ingest(&all, 4);
        let expect = token_blocking(ds, ErMode::CleanClean);
        assert_same(&inc.snapshot(4), &expect, "single batch");
    }
}
