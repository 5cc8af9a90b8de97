//! Incremental maintenance of a token-blocking collection under batched
//! entity arrivals — the blocking half of the delta-sweep pipeline.
//!
//! The batch builders ([`crate::builders`]) build the flat CSR slabs of
//! a whole corpus in one shot; under the paper's pay-as-you-go arrival
//! model every batch would redo that. [`IncrementalCollection`] keeps the
//! blocks *updatable* and **sweepable in place** instead, so an ingest
//! costs `O(batch × neighbourhood)` and nothing in it is `O(corpus)`.
//!
//! # Tokenised once
//!
//! Arrivals are drawn from one fixed [`Dataset`], so the collection is
//! built from a value-token [`Corpus`] of all of it
//! ([`IncrementalCollection::from_corpus`]; [`IncrementalCollection::new`]
//! builds that corpus itself). The collection tokenises nothing: the
//! corpus gave every key two descriptions share a *slot*, numbered in
//! key-string order as [`BlockCollection::from_corpus`] numbers its
//! blocks — no other key can form a block — and the collection sorts a
//! copy of each entity's slots once, into one ascending run, so an ingest
//! tokenises, interns and string-sorts nothing either. A caller that also
//! builds a matcher, or several collections, over the same universe hands
//! each the same corpus.
//! Maintained on touch, for the touched slots and grown entities only:
//!
//! * per slot: the sorted member list, delta-appended by a backward
//!   merge (`layout::merge_sorted_into`), its comparison count and the
//!   ARCS reciprocal `1/‖b‖`. A slot *forms a block* once it induces
//!   ≥ 1 comparison; members are only added, so that is monotone;
//! * per entity: its live block count `|B_e|`;
//! * the live block count `|B|` and assignment total.
//!
//! That is everything a node-centric sweep reads through [`BlockView`]:
//! an entity's present blocks are visited in slot (key-string) order —
//! ascending block id in a materialised collection — so f64 ARCS sums
//! carry the bits of a from-scratch [`BlockCollection`] sweep. Each
//! [`IncrementalCollection::ingest`] returns the *dirty sets* the
//! meta-blocking delta-sweep needs as a [`DeltaOutcome`].
//!
//! # When a snapshot is built, and who pays
//!
//! Never by an ingest. [`IncrementalCollection::snapshot`] materialises
//! the arrived entities' blocks as a [`BlockCollection`] — the present
//! slots in ascending order, logically identical to `token_blocking`
//! over them (property-tested) — for the equivalence suites and exports;
//! the incremental meta-blocking session sweeps the live slabs. It is
//! `O(corpus)`, and the caller that asks pays it.

use crate::builders::TokenKeys;
use crate::collection::{count_comparisons, for_each_co_member, BlockView, Direction, KbScratch};
use crate::layout::merge_sorted_into;
use crate::{BlockCollection, Corpus, ErMode};
use minoan_common::{default_threads, Symbol};
use minoan_rdf::{Dataset, EntityId};
use std::sync::Arc;

/// What one [`IncrementalCollection::ingest`] changed. Blocks are named
/// by their key's slot [`Symbol`], fixed at construction (the block ids
/// of a [`snapshot`](IncrementalCollection::snapshot) are not stable).
#[derive(Debug)]
pub struct DeltaOutcome {
    /// Blocks whose member list changed in this ingest, including the
    /// newly present ones — ascending, which is key-string order.
    pub touched_blocks: Vec<Symbol>,
    /// Subset of [`Self::touched_blocks`]: blocks that crossed the
    /// presence threshold (≥ 2 members, ≥ 1 comparison) in this ingest.
    pub newly_present: Vec<Symbol>,
    /// Entities whose own block list changed: batch members that joined
    /// at least one present block, plus every member of a newly-present
    /// block. Sorted, deduplicated. A pre-batch member's co-occurrences
    /// are unchanged — only its block count `|B_e|` moved — so
    /// meta-blocking re-sweeps none of them: under JS it reads this list
    /// to mark the grown entities' rows and their neighbours' stale.
    pub grown: Vec<EntityId>,
    /// Members of the touched blocks — every entity whose co-occurrence
    /// statistics (CBS / ARCS contributions) may have changed. Sorted,
    /// deduplicated; always a superset of [`Self::grown`].
    pub dirty: Vec<EntityId>,
}

/// One slot's live slab.
#[derive(Default)]
struct KeyBlock {
    /// Arrived member entities, sorted ascending.
    members: Vec<EntityId>,
    /// Comparisons under the collection's mode; recomputed only on
    /// touch. The slot forms a block iff this is non-zero.
    comparisons: u64,
    /// `1 / max(‖b‖, 1)`, refreshed with `comparisons`.
    inv_cardinality: f64,
}

/// An updatable token-blocking index over a fixed entity universe: the
/// blocks `builders::token_blocking` would build over the entities
/// arrived so far through [`Self::ingest`], swept in place through
/// [`BlockView`].
pub struct IncrementalCollection<'d> {
    mode: ErMode,
    /// The universe's value-token corpus: the slots and each entity's run
    /// of them.
    corpus: Arc<Corpus<'d>>,
    /// The corpus's slot runs, each sorted: entity `e`'s slots ascend in
    /// `slots[offsets[e]..offsets[e + 1]]`.
    offsets: Vec<u32>,
    slots: Vec<Symbol>,
    /// Per slot: its live slab.
    blocks: Vec<KeyBlock>,
    /// Number of slots that currently form a block.
    present: usize,
    /// Per entity: how many of its slots currently form a block (|B_e|).
    block_counts: Vec<u32>,
    /// Σ member counts over the present blocks.
    total_assignments: u64,
    arrived: Vec<bool>,
    num_arrived: usize,
    kb_of: Vec<u16>,
}

impl<'d> IncrementalCollection<'d> {
    /// [`Self::from_corpus`] over a value-token corpus of `dataset` built
    /// on [`default_threads`] workers.
    pub fn new(dataset: &'d Dataset, mode: ErMode) -> Self {
        let corpus = Corpus::new(dataset, TokenKeys::Values, default_threads());
        Self::from_corpus(Arc::new(corpus), mode)
    }

    /// An empty collection over the entity universe of `corpus`, read off
    /// it; no entity has arrived yet.
    ///
    /// # Panics
    /// Panics unless `corpus` is a [`TokenKeys::Values`] corpus: the
    /// collection maintains token blocking, whose keys are value tokens.
    pub fn from_corpus(corpus: Arc<Corpus<'d>>, mode: ErMode) -> Self {
        assert_eq!(
            corpus.token_keys(),
            Some(TokenKeys::Values),
            "an incremental collection blocks on value tokens: build its corpus with TokenKeys::Values"
        );
        let dataset = corpus.dataset();
        let kb_of: Vec<u16> = (0..dataset.len() as u32)
            .map(|e| dataset.kb_of(EntityId(e)).0)
            .collect();
        let numbered = corpus.slots();
        let mut slots = numbered.runs.clone();
        for run in numbered.offsets.windows(2) {
            slots[run[0] as usize..run[1] as usize].sort_unstable();
        }
        Self {
            blocks: numbered.keys.iter().map(|_| KeyBlock::default()).collect(),
            offsets: numbered.offsets.clone(),
            slots,
            mode,
            present: 0,
            block_counts: vec![0; dataset.len()],
            total_assignments: 0,
            arrived: vec![false; dataset.len()],
            num_arrived: 0,
            kb_of,
            corpus,
        }
    }

    /// Ingests a batch of newly-arrived entities: delta-appends their
    /// slot runs into the per-slot slabs, refreshes comparisons,
    /// reciprocals and block counts for the touched slots and grown
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

    /// Merges the slot runs of `batch` into the per-slot slabs; returns
    /// `(touched, newly_present, grown)` — `touched` ascending, `grown`
    /// unsorted with duplicates.
    fn merge_batch(&mut self, batch: &[EntityId]) -> (Vec<Symbol>, Vec<Symbol>, Vec<EntityId>) {
        // Group the batch's slots (a sort, not a hash map — deterministic
        // and slab-friendly) and merge each run into its member list.
        let mut additions: Vec<(Symbol, EntityId)> = Vec::new();
        for &e in batch {
            assert!(
                !std::mem::replace(&mut self.arrived[e.index()], true),
                "entity {e:?} ingested twice into the incremental collection"
            );
            additions.extend(self.slots_of(e).iter().map(|&s| (s, e)));
        }
        self.num_arrived += batch.len();
        additions.sort_unstable();

        let mut touched: Vec<Symbol> = Vec::new();
        let mut newly_present: Vec<Symbol> = Vec::new();
        let mut grown: Vec<EntityId> = Vec::new();
        let mut scratch = KbScratch::new(self.corpus.dataset().kbs().len());
        let mut run: Vec<EntityId> = Vec::new();
        for group in additions.chunk_by(|a, b| a.0 == b.0) {
            let sym = group[0].0;
            run.clear();
            run.extend(group.iter().map(|&(_, e)| e));
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
        self.present += newly_present.len();
        (touched, newly_present, grown)
    }

    /// Builds the merged-corpus [`BlockCollection`]: the present slots in
    /// ascending (key-string) order over the universe interner, logically
    /// identical to `builders::token_blocking` over the arrived entities
    /// (symbols aside). `O(corpus)`; see the [module docs](self).
    pub fn snapshot(&self, threads: usize) -> BlockCollection {
        let mut block_keys = Vec::with_capacity(self.present);
        let mut block_offsets = Vec::with_capacity(self.present + 1);
        block_offsets.push(0u32);
        let mut block_entities: Vec<EntityId> = Vec::with_capacity(self.total_assignments as usize);
        let mut comparisons = Vec::with_capacity(self.present);
        for (block, &key) in self.blocks.iter().zip(&self.corpus.slots().keys) {
            if block.comparisons == 0 {
                continue;
            }
            block_keys.push(key);
            block_entities.extend_from_slice(&block.members);
            block_offsets.push(
                u32::try_from(block_entities.len()).expect("block slab exceeds u32::MAX entries"),
            );
            comparisons.push(block.comparisons);
        }
        BlockCollection::finish(
            self.mode,
            Arc::clone(&self.corpus.keys),
            block_keys,
            block_offsets,
            block_entities,
            comparisons,
            self.kb_of.clone(),
            self.corpus.dataset().kbs().len(),
            threads,
        )
    }

    /// ER mode the collection maintains its comparison counts under.
    pub fn mode(&self) -> ErMode {
        self.mode
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
        self.present
    }

    /// Σ member counts over the present blocks (the "block assignments"
    /// BC a snapshot would report), maintained on touch.
    pub fn total_assignments(&self) -> u64 {
        self.total_assignments
    }

    /// The string of slot `s`'s key.
    pub fn key_str(&self, s: Symbol) -> &str {
        self.corpus
            .keys
            .resolve(self.corpus.slots().keys[s.index()])
    }

    /// The slots of an arrived entity's keys, ascending (key-string order)
    /// — only the keys another description shares have one; empty until
    /// `e` arrives, and never changed after.
    pub fn entity_keys(&self, e: EntityId) -> &[Symbol] {
        if self.arrived[e.index()] {
            self.slots_of(e)
        } else {
            &[]
        }
    }

    /// The arrived members of slot `s`'s block, sorted ascending — empty
    /// unless the slot currently forms a block (≥ 1 comparison under the
    /// ER mode), exactly the blocks a snapshot would contain.
    pub fn key_members(&self, s: Symbol) -> &[EntityId] {
        match self.blocks.get(s.index()) {
            Some(block) if block.comparisons > 0 => &block.members,
            _ => &[],
        }
    }

    /// Entity `e`'s slots, ascending, arrived or not.
    #[inline]
    fn slots_of(&self, e: EntityId) -> &[Symbol] {
        let (start, end) = (self.offsets[e.index()], self.offsets[e.index() + 1]);
        &self.slots[start as usize..end as usize]
    }

    /// The present blocks containing `e`, in key-string order.
    #[inline]
    fn present_blocks(&self, e: EntityId) -> impl Iterator<Item = &KeyBlock> + '_ {
        self.entity_keys(e)
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
    use crate::KeyAssignments;
    use minoan_datagen::{generate, profiles};
    use minoan_rdf::tokenize::TokenBuffers;
    use minoan_rdf::DatasetBuilder;

    /// One KB, one description per value, each a `label` literal.
    fn corpus(values: &[&str]) -> Dataset {
        let mut b = DatasetBuilder::new();
        let kb = b.add_kb("kb", "http://kb/");
        for (i, value) in values.iter().enumerate() {
            b.add_literal(kb, &format!("http://kb/{i}"), "http://p/label", value);
        }
        b.build()
    }

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
        BlockCollection::from_assignments_with_threads(dataset, mode, asg, 2)
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
        let inc = IncrementalCollection::new(&g.dataset, ErMode::CleanClean);
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

    #[test]
    fn slots_are_fixed_at_construction_in_key_string_order() {
        // Tokens first seen zulu, mike, alpha; `solo` is unshared: no slot.
        let ds = corpus(&[
            "zulu mike alpha solo",
            "zulu mike alpha",
            "zulu mike",
            "zulu",
        ]);
        let mut inc = IncrementalCollection::new(&ds, ErMode::Dirty);
        let space = |inc: &IncrementalCollection<'_>| {
            let slots = 0..inc.blocks.len() as u32;
            let strs: Vec<String> = slots.map(|s| inc.key_str(Symbol(s)).into()).collect();
            (inc.corpus.keys.len(), strs)
        };
        let before = space(&inc);
        assert_eq!(before.1, ["alpha", "mike", "zulu"]);
        assert!(inc.entity_keys(EntityId(0)).is_empty(), "not arrived yet");
        for batch in [&[2, 0][..], &[3], &[1]] {
            let batch: Vec<EntityId> = batch.iter().map(|&e| EntityId(e)).collect();
            let touched = inc.ingest(&batch, 1).touched_blocks;
            assert!(touched.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(space(&inc), before, "an ingest interns or renames nothing");
        }
        // Ascending slots, so ascending key strings too.
        assert_eq!(
            inc.entity_keys(EntityId(0)),
            [Symbol(0), Symbol(1), Symbol(2)]
        );
        assert_eq!(inc.key_members(Symbol(2)).len(), 4);
    }

    #[test]
    fn empty_and_unshared_universes_build_and_ingest() {
        for values in [&[][..], &["alpha beta", "gamma", "delta epsilon"]] {
            let ds = corpus(values);
            let mut inc = IncrementalCollection::new(&ds, ErMode::Dirty);
            let all: Vec<EntityId> = ds.entities().collect();
            assert!(inc.blocks.is_empty() && inc.ingest(&all, 1).dirty.is_empty());
            assert_same(
                &inc.snapshot(1),
                &token_blocking(&ds, ErMode::Dirty),
                "unshared",
            );
        }
    }

    #[test]
    #[should_panic(expected = "an incremental collection blocks on value tokens")]
    fn a_corpus_of_other_keys_is_refused() {
        let g = generate(&profiles::center_dense(20, 3));
        let corpus = Corpus::new(&g.dataset, TokenKeys::Both, 1);
        IncrementalCollection::from_corpus(Arc::new(corpus), ErMode::CleanClean);
    }
}
