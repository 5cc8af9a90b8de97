//! The block collection data structure, stored in flat CSR slabs.
//!
//! Two offset/slab pairs and two per-block slabs, with no heap allocation
//! per block or per entity:
//!
//! * `block_offsets` / `block_entities` — block `b`'s members occupy
//!   `block_offsets[b] .. block_offsets[b + 1]`, sorted ascending;
//! * `entity_offsets` / `entity_block_ids` — entity `e`'s blocks occupy
//!   `entity_offsets[e] .. entity_offsets[e + 1]`, ascending by id;
//! * per-block `comparisons` (‖b‖) and the precomputed ARCS reciprocal
//!   `inv_cardinality` (`1/‖b‖`) that the meta-blocking sweeps read
//!   directly instead of re-dividing per block visit.
//!
//! Construction is a two-pass counting sort (the crate-internal `layout`
//! module), thread-parallel over entity ranges and bit-identical for
//! every thread count. Block keys are interned [`Symbol`]s; successors produced by
//! purging/filtering share the interner (`Arc`) and remap ids instead of
//! rebuilding — see [`crate::purge`] and [`crate::filter`].

use crate::corpus::Corpus;
pub use crate::corpus::KeyAssignments;
use crate::layout::{split_rows, transpose_csr};
use minoan_common::{Interner, Symbol};
use minoan_rdf::{Dataset, EntityId};
use std::fmt;
use std::sync::Arc;

/// Whether comparisons happen within one dirty source or only across clean
/// sources.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErMode {
    /// Dirty ER: any pair of distinct descriptions in a block is a
    /// comparison.
    Dirty,
    /// Clean–clean (cross-KB) ER: only pairs from *different* KBs are
    /// comparisons (each KB is internally duplicate-free).
    CleanClean,
}

/// Dense id of a block within a [`BlockCollection`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A borrowed view of one block: key, member slice and comparison count.
///
/// Returned by value from [`BlockCollection::block`]; the member slice
/// points straight into the collection's entity slab.
#[derive(Clone, Copy, Debug)]
pub struct BlockRef<'a> {
    /// Dense id of the block.
    pub id: BlockId,
    /// Interned block key (token, infix token, or cluster-qualified token).
    pub key: Symbol,
    /// Member entities, sorted ascending.
    pub entities: &'a [EntityId],
    /// Number of comparisons this block induces under the collection's
    /// [`ErMode`].
    pub comparisons: u64,
}

impl BlockRef<'_> {
    /// Number of member entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether the block has no members (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }
}

/// Reusable per-KB member counters for clean–clean comparison counting.
pub(crate) struct KbScratch {
    counts: Vec<u64>,
    touched: Vec<u16>,
}

impl KbScratch {
    pub(crate) fn new(num_kbs: usize) -> Self {
        Self {
            counts: vec![0; num_kbs],
            touched: Vec::new(),
        }
    }
}

/// Comparisons a sorted member list induces: all pairs (dirty) or cross-KB
/// pairs only (clean–clean: C(n,2) − Σ_kb C(n_kb,2)).
pub(crate) fn count_comparisons(
    entities: &[EntityId],
    kb_of: &[u16],
    mode: ErMode,
    scratch: &mut KbScratch,
) -> u64 {
    let n = entities.len() as u64;
    let all = n * n.saturating_sub(1) / 2;
    match mode {
        ErMode::Dirty => all,
        ErMode::CleanClean => {
            for &e in entities {
                let kb = kb_of[e.index()] as usize;
                if scratch.counts[kb] == 0 {
                    scratch.touched.push(kb as u16);
                }
                scratch.counts[kb] += 1;
            }
            let mut intra = 0u64;
            for &kb in &scratch.touched {
                let c = scratch.counts[kb as usize];
                intra += c * c.saturating_sub(1) / 2;
                scratch.counts[kb as usize] = 0;
            }
            scratch.touched.clear();
            all - intra
        }
    }
}

/// What a node-centric meta-blocking sweep reads from a set of blocks.
///
/// Two layouts implement it: the finished flat-CSR [`BlockCollection`]
/// and the live per-key slabs of
/// [`IncrementalCollection`](crate::IncrementalCollection), which a
/// delta-sweep reads in place instead of materialising a collection per
/// ingest. Sweeps take the view as a generic parameter, so each layout
/// gets its own monomorphised loop.
///
/// Both implementations visit an entity's blocks in **key-string order**
/// — ascending block id in a [`BlockCollection`] — because the sweeps'
/// f64 ARCS sums accumulate in visit order and must carry the same bits
/// on either layout. The [`Direction`] of a visit only decides where
/// each block's member walk stops, never which blocks are visited or in
/// what order, and a neighbour appears at most once per block — so a
/// forward visit accumulates, for every neighbour it reports, the same
/// sum in the same order as a full one.
pub trait BlockView {
    /// Number of blocks |B|.
    fn num_blocks(&self) -> usize;

    /// Number of blocks containing `e` (|B_e|).
    fn entity_block_count(&self, e: EntityId) -> u32;

    /// Σ sizes of `e`'s blocks — what one full sweep of `e` costs.
    fn sweep_cost(&self, e: EntityId) -> u64;

    /// Calls `f(1/‖b‖, other)` once per appearance of a comparable
    /// co-member `other` in a block `b` containing `a` — blocks in
    /// key-string order, each block's members from its largest id down,
    /// stopping at `a` under [`Direction::Forward`]. Summing the calls
    /// per `other` yields exactly the CBS/ARCS statistics of the
    /// blocking-graph edges incident to `a`.
    fn for_each_co_occurrence(
        &self,
        a: EntityId,
        direction: Direction,
        f: impl FnMut(f64, EntityId),
    );
}

/// Which co-members a visit of entity `a` reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Every comparable co-member.
    Both,
    /// Only those with a larger id (`y > a`): over all entities, each
    /// comparable pair exactly once, at its smaller endpoint.
    Forward,
}

/// The member walk both layouts share: one block's `members` (sorted
/// ascending) from the back, down to `a` under [`Direction::Forward`],
/// reporting the ones `comparable` with `a`.
#[inline]
pub(crate) fn for_each_co_member(
    members: &[EntityId],
    a: EntityId,
    direction: Direction,
    comparable: impl Fn(EntityId) -> bool,
    mut f: impl FnMut(EntityId),
) {
    for &y in members.iter().rev() {
        if y <= a && direction == Direction::Forward {
            break;
        }
        if comparable(y) {
            f(y);
        }
    }
}

impl BlockView for BlockCollection {
    #[inline]
    fn num_blocks(&self) -> usize {
        self.len()
    }

    #[inline]
    fn entity_block_count(&self, e: EntityId) -> u32 {
        self.entity_blocks(e).len() as u32
    }

    #[inline]
    fn sweep_cost(&self, e: EntityId) -> u64 {
        self.entity_blocks(e)
            .iter()
            .map(|&b| self.block_len(b) as u64)
            .sum()
    }

    #[inline]
    fn for_each_co_occurrence(
        &self,
        a: EntityId,
        direction: Direction,
        mut f: impl FnMut(f64, EntityId),
    ) {
        for &bid in self.entity_blocks(a) {
            let inv_card = self.inv_cardinality(bid);
            let members = self.block_entities(bid);
            for_each_co_member(
                members,
                a,
                direction,
                |y| self.comparable(a, y),
                |y| f(inv_card, y),
            );
        }
    }
}

/// A set of blocks plus the inverted per-entity view, both in flat CSR.
///
/// Invariants established at construction:
/// * every block induces at least one comparison (singleton and
///   single-KB-in-clean-mode blocks are dropped),
/// * block member lists are sorted,
/// * `entity_blocks(e)` lists, sorted by block id, exactly the blocks
///   containing `e`.
pub struct BlockCollection {
    mode: ErMode,
    /// Key interner — shared (`Arc`) with purge/filter successors, which
    /// remap block ids instead of re-interning.
    keys: Arc<Interner>,
    /// Per block: its interned key.
    block_keys: Vec<Symbol>,
    /// CSR offsets into `block_entities` (len = blocks + 1).
    block_offsets: Vec<u32>,
    /// Member slab, sorted ascending within each block.
    block_entities: Vec<EntityId>,
    /// Per block: comparisons ‖b‖ under `mode`.
    comparisons: Vec<u64>,
    /// Per block: `1 / max(‖b‖, 1)` — the ARCS reciprocal, precomputed so
    /// the meta-blocking sweeps never divide per block visit.
    inv_cardinality: Vec<f64>,
    /// CSR offsets into `entity_block_ids` (len = entities + 1).
    entity_offsets: Vec<u32>,
    /// Inverted slab: block ids per entity, ascending.
    entity_block_ids: Vec<BlockId>,
    kb_of: Vec<u16>,
    num_kbs: usize,
    total_comparisons: u64,
}

impl BlockCollection {
    /// Builds a collection from raw `key → entities` groups.
    ///
    /// The builders whose output is a set of groups by nature call it:
    /// sorted-neighbourhood windows, canopy clusters and the MapReduce
    /// token job's reduced blocks. Every blocker that keys each entity on
    /// its own goes through the string-free
    /// [`Self::from_assignments_with_threads`] instead. Both produce identical collections for the same logical
    /// groups, so this is also the reference build the specification
    /// tests and unit fixtures state their expected blocks in.
    ///
    /// `dataset` supplies the KB partition (for clean–clean comparison
    /// counting) and the entity-id universe.
    pub fn from_groups(
        dataset: &Dataset,
        mode: ErMode,
        mut groups: Vec<(String, Vec<EntityId>)>,
    ) -> Self {
        let kb_of: Vec<u16> = (0..dataset.len() as u32)
            .map(|e| dataset.kb_of(EntityId(e)).0)
            .collect();
        let num_kbs = dataset.kbs().len();
        let mut keys = Interner::new();
        // Sort groups by key for full determinism independent of their order.
        groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut scratch = KbScratch::new(num_kbs);
        let mut block_keys = Vec::with_capacity(groups.len());
        let mut block_offsets = vec![0u32];
        let mut block_entities: Vec<EntityId> = Vec::new();
        let mut comparisons = Vec::with_capacity(groups.len());
        for (key, mut entities) in groups {
            entities.sort_unstable();
            entities.dedup();
            let c = count_comparisons(&entities, &kb_of, mode, &mut scratch);
            if c == 0 {
                continue;
            }
            block_keys.push(keys.intern(&key));
            block_entities.extend_from_slice(&entities);
            block_offsets.push(slab_len(&block_entities));
            comparisons.push(c);
        }
        Self::finish(
            mode,
            Arc::new(keys),
            block_keys,
            block_offsets,
            block_entities,
            comparisons,
            kb_of,
            num_kbs,
            1,
        )
    }

    /// Builds a collection from per-entity interned key assignments on
    /// `threads` workers, through a [`Corpus`] of them. The result is
    /// identical for every `threads` value (including 1): the grouping is
    /// a two-pass counting sort over entity ranges in which every slab
    /// position is precomputed from per-thread counts.
    pub fn from_assignments_with_threads(
        dataset: &Dataset,
        mode: ErMode,
        assignments: KeyAssignments,
        threads: usize,
    ) -> Self {
        let corpus = Corpus::from_assignments(dataset, assignments, threads.max(1));
        Self::from_corpus(&corpus, mode, threads)
    }

    /// The blocks of `corpus`'s keys, built on `threads` workers; the
    /// result does not depend on `threads`. Nothing is tokenised or
    /// interned: the collection shares the corpus's interner.
    pub fn from_corpus(corpus: &Corpus<'_>, mode: ErMode, threads: usize) -> Self {
        let dataset = corpus.dataset();
        let n = dataset.len();
        let kb_of: Vec<u16> = (0..n as u32)
            .map(|e| dataset.kb_of(EntityId(e)).0)
            .collect();
        let num_kbs = dataset.kbs().len();
        let threads = threads.max(1);

        // Blocks need ≥ 2 members to induce any comparison, so each slot
        // of the corpus — a key two runs share — is a provisional block,
        // in key-string order exactly like the `from_groups` path. A
        // counting-sort transpose lays them out (members ascending: rows
        // are scanned in entity order).
        let slots = corpus.slots();
        let order = &slots.keys;
        let (prov_offsets, rows) =
            transpose_csr(&slots.offsets[1..], &slots.runs, order.len(), threads);
        let prov_entities: Vec<EntityId> = rows.into_iter().map(EntityId).collect();

        // Comparisons per provisional block; drop blocks inducing none
        // and compact the survivors into the final slabs.
        let prov_comparisons = comparisons_per_block(
            &prov_offsets,
            &prov_entities,
            &kb_of,
            num_kbs,
            mode,
            threads,
        );
        let (block_keys, block_offsets, block_entities, comparisons) =
            compact_blocks(&prov_offsets, &prov_entities, &prov_comparisons, |i| {
                order[i]
            });
        Self::finish(
            mode,
            Arc::clone(&corpus.keys),
            block_keys,
            block_offsets,
            block_entities,
            comparisons,
            kb_of,
            num_kbs,
            threads,
        )
    }

    /// Retains exactly the blocks with `keep[b] == true`, remapping ids
    /// and sharing the key interner — no hash maps, no re-interning, no
    /// per-block member copies beyond one slab memcpy. Member lists (and
    /// therefore comparison counts) are unchanged. Used by purging.
    pub(crate) fn retain_blocks(&self, keep: &[bool], threads: usize) -> Self {
        debug_assert_eq!(keep.len(), self.len());
        let kept: Vec<u64> = keep
            .iter()
            .zip(&self.comparisons)
            .map(|(&k, &c)| if k { c } else { 0 })
            .collect();
        let (block_keys, block_offsets, block_entities, comparisons) =
            compact_blocks(&self.block_offsets, &self.block_entities, &kept, |i| {
                self.block_keys[i]
            });
        Self::finish(
            self.mode,
            Arc::clone(&self.keys),
            block_keys,
            block_offsets,
            block_entities,
            comparisons,
            self.kb_of.clone(),
            self.num_kbs,
            threads,
        )
    }

    /// Retains exactly the `(entity, block)` assignments whose slot in
    /// the inverted slab (`entity_block_ids` order) is marked in `keep`,
    /// recounts comparisons, drops blocks left without any, and writes
    /// the successor straight into fresh slabs. Used by filtering.
    pub(crate) fn retain_assignments(&self, keep: &[bool], threads: usize) -> Self {
        debug_assert_eq!(keep.len(), self.entity_block_ids.len());
        let n = self.num_entities();
        let mut cols = Vec::with_capacity(self.entity_block_ids.len());
        let mut kept_ends = Vec::with_capacity(n);
        for e in 0..n {
            let start = self.entity_offsets[e] as usize;
            let end = self.entity_offsets[e + 1] as usize;
            for (&kept, b) in keep[start..end]
                .iter()
                .zip(&self.entity_block_ids[start..end])
            {
                if kept {
                    cols.push(b.0);
                }
            }
            kept_ends.push(cols.len() as u32);
        }
        let (prov_offsets, rows) = transpose_csr(&kept_ends, &cols, self.len(), threads);
        let prov_entities: Vec<EntityId> = rows.into_iter().map(EntityId).collect();
        let prov_comparisons = comparisons_per_block(
            &prov_offsets,
            &prov_entities,
            &self.kb_of,
            self.num_kbs,
            self.mode,
            threads,
        );
        let (block_keys, block_offsets, block_entities, comparisons) =
            compact_blocks(&prov_offsets, &prov_entities, &prov_comparisons, |i| {
                self.block_keys[i]
            });
        Self::finish(
            self.mode,
            Arc::clone(&self.keys),
            block_keys,
            block_offsets,
            block_entities,
            comparisons,
            self.kb_of.clone(),
            self.num_kbs,
            threads,
        )
    }

    /// Finalises a collection whose block-side slabs are already built:
    /// derives the reciprocal slab and transposes the block slab into the
    /// entity-side CSR.
    ///
    /// Crate-internal invariants the caller must establish (the builder
    /// paths above and the incremental snapshot in [`crate::delta`] all
    /// do): blocks ordered by key string, member lists sorted ascending,
    /// every block's comparison count non-zero, `block_offsets` starting
    /// at 0 with `len == blocks + 1`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the nine slabs and counts every builder path hands over in one move"
    )]
    pub(crate) fn finish(
        mode: ErMode,
        keys: Arc<Interner>,
        block_keys: Vec<Symbol>,
        block_offsets: Vec<u32>,
        block_entities: Vec<EntityId>,
        comparisons: Vec<u64>,
        kb_of: Vec<u16>,
        num_kbs: usize,
        threads: usize,
    ) -> Self {
        debug_assert_eq!(block_offsets.len(), block_keys.len() + 1);
        debug_assert_eq!(comparisons.len(), block_keys.len());
        let inv_cardinality: Vec<f64> = comparisons
            .iter()
            .map(|&c| 1.0 / (c as f64).max(1.0))
            .collect();
        let total_comparisons = comparisons.iter().sum();
        let (entity_offsets, rows) =
            transpose_csr(&block_offsets[1..], &block_entities, kb_of.len(), threads);
        let entity_block_ids: Vec<BlockId> = rows.into_iter().map(BlockId).collect();
        Self {
            mode,
            keys,
            block_keys,
            block_offsets,
            block_entities,
            comparisons,
            inv_cardinality,
            entity_offsets,
            entity_block_ids,
            kb_of,
            num_kbs,
            total_comparisons,
        }
    }

    /// ER mode the collection was built under.
    pub fn mode(&self) -> ErMode {
        self.mode
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.block_keys.len()
    }

    /// Whether there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.block_keys.is_empty()
    }

    /// Iterates the blocks in id (key) order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = BlockRef<'_>> + '_ {
        (0..self.len() as u32).map(move |i| self.block(BlockId(i)))
    }

    /// Block view by id.
    pub fn block(&self, id: BlockId) -> BlockRef<'_> {
        BlockRef {
            id,
            key: self.block_keys[id.index()],
            entities: self.block_entities(id),
            comparisons: self.comparisons[id.index()],
        }
    }

    /// Member entities of block `b`, sorted ascending — a slice of the
    /// flat slab.
    #[inline]
    pub fn block_entities(&self, b: BlockId) -> &[EntityId] {
        let i = b.index();
        &self.block_entities[self.block_offsets[i] as usize..self.block_offsets[i + 1] as usize]
    }

    /// Number of members of block `b`.
    #[inline]
    pub fn block_len(&self, b: BlockId) -> usize {
        let i = b.index();
        (self.block_offsets[i + 1] - self.block_offsets[i]) as usize
    }

    /// Comparisons ‖b‖ induced by block `b`.
    #[inline]
    pub fn block_comparisons(&self, b: BlockId) -> u64 {
        self.comparisons[b.index()]
    }

    /// The precomputed ARCS reciprocal `1 / max(‖b‖, 1)` of block `b`.
    #[inline]
    pub fn inv_cardinality(&self, b: BlockId) -> f64 {
        self.inv_cardinality[b.index()]
    }

    /// Resolves a block's key to its string.
    pub fn key_str(&self, b: BlockId) -> &str {
        self.keys.resolve(self.block_keys[b.index()])
    }

    /// Blocks containing entity `e`, sorted by block id — a slice of the
    /// inverted slab.
    #[inline]
    pub fn entity_blocks(&self, e: EntityId) -> &[BlockId] {
        let i = e.index();
        &self.entity_block_ids[self.entity_offsets[i] as usize..self.entity_offsets[i + 1] as usize]
    }

    /// Number of entities placed in at least one block.
    pub fn placed_entities(&self) -> usize {
        self.entity_offsets
            .windows(2)
            .filter(|w| w[1] > w[0])
            .count()
    }

    /// Σ over blocks of their member count (the "block assignments" BC).
    pub fn total_assignments(&self) -> u64 {
        self.block_entities.len() as u64
    }

    /// Σ over blocks of their comparisons (with repetitions across blocks).
    pub fn total_comparisons(&self) -> u64 {
        self.total_comparisons
    }

    /// KB id of entity `e` (cached copy of the dataset's partition).
    pub fn kb_of(&self, e: EntityId) -> u16 {
        self.kb_of[e.index()]
    }

    /// Number of entities in the underlying dataset.
    pub fn num_entities(&self) -> usize {
        self.kb_of.len()
    }

    /// Whether `a, b` is a valid comparison under the ER mode.
    #[inline]
    pub fn comparable(&self, a: EntityId, b: EntityId) -> bool {
        a != b && (self.mode == ErMode::Dirty || self.kb_of[a.index()] != self.kb_of[b.index()])
    }

    /// All *distinct* comparable pairs across blocks, normalised `(a < b)`.
    ///
    /// This materialises the deduplicated comparison set — use only at
    /// experiment scale (it is exactly what meta-blocking exists to avoid).
    pub fn distinct_pairs(&self) -> Vec<(EntityId, EntityId)> {
        let mut pairs = Vec::new();
        for b in self.blocks() {
            for (i, &x) in b.entities.iter().enumerate() {
                for &y in &b.entities[i + 1..] {
                    if self.comparable(x, y) {
                        pairs.push((x.min(y), x.max(y)));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

impl fmt::Debug for BlockCollection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockCollection")
            .field("mode", &self.mode)
            .field("blocks", &self.len())
            .field("comparisons", &self.total_comparisons)
            .finish()
    }
}

/// Current slab length as a checked `u32` CSR offset.
fn slab_len(slab: &[EntityId]) -> u32 {
    u32::try_from(slab.len()).expect("block slab exceeds u32::MAX entries")
}

/// Comparisons per CSR block, block-range parallel (each worker owns a
/// disjoint chunk of the output and its own KB scratch).
fn comparisons_per_block(
    offsets: &[u32],
    entities: &[EntityId],
    kb_of: &[u16],
    num_kbs: usize,
    mode: ErMode,
    threads: usize,
) -> Vec<u64> {
    let b = offsets.len() - 1;
    let mut out = vec![0u64; b];
    let ranges = split_rows(&offsets[1..], threads);
    if ranges.len() <= 1 {
        let mut scratch = KbScratch::new(num_kbs);
        for (i, slot) in out.iter_mut().enumerate() {
            let members = &entities[offsets[i] as usize..offsets[i + 1] as usize];
            *slot = count_comparisons(members, kb_of, mode, &mut scratch);
        }
        return out;
    }
    let mut chunks: Vec<(std::ops::Range<usize>, &mut [u64])> = Vec::with_capacity(ranges.len());
    {
        let mut rest: &mut [u64] = &mut out;
        for r in &ranges {
            let (chunk, tail) = rest.split_at_mut(r.end - r.start);
            chunks.push((r.clone(), chunk));
            rest = tail;
        }
    }
    std::thread::scope(|s| {
        for (r, chunk) in chunks {
            s.spawn(move || {
                let mut scratch = KbScratch::new(num_kbs);
                for (slot, i) in chunk.iter_mut().zip(r) {
                    let members = &entities[offsets[i] as usize..offsets[i + 1] as usize];
                    *slot = count_comparisons(members, kb_of, mode, &mut scratch);
                }
            });
        }
    });
    out
}

/// Compacts a provisional block slab, keeping blocks with a non-zero
/// comparison count and remapping ids to the dense survivor order; `key`
/// supplies the retained key per *provisional* index.
fn compact_blocks(
    prov_offsets: &[u32],
    prov_entities: &[EntityId],
    prov_comparisons: &[u64],
    key: impl Fn(usize) -> Symbol,
) -> (Vec<Symbol>, Vec<u32>, Vec<EntityId>, Vec<u64>) {
    let survivors = prov_comparisons.iter().filter(|&&c| c > 0).count();
    let mut block_keys = Vec::with_capacity(survivors);
    let mut block_offsets = Vec::with_capacity(survivors + 1);
    block_offsets.push(0u32);
    let mut block_entities = Vec::new();
    let mut comparisons = Vec::with_capacity(survivors);
    for (i, &c) in prov_comparisons.iter().enumerate() {
        if c == 0 {
            continue;
        }
        block_keys.push(key(i));
        block_entities.extend_from_slice(
            &prov_entities[prov_offsets[i] as usize..prov_offsets[i + 1] as usize],
        );
        block_offsets.push(slab_len(&block_entities));
        comparisons.push(c);
    }
    (block_keys, block_offsets, block_entities, comparisons)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_rdf::DatasetBuilder;

    /// Two KBs with 3 + 2 entities.
    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        for (kb, uri) in [
            (k0, "http://a/0"),
            (k0, "http://a/1"),
            (k0, "http://a/2"),
            (k1, "http://b/3"),
            (k1, "http://b/4"),
        ] {
            b.add_literal(kb, uri, "http://p/label", "x");
        }
        b.build()
    }

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn clean_clean_counts_cross_kb_only() {
        let ds = dataset();
        let groups = vec![("t".to_string(), vec![e(0), e(1), e(3)])];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        assert_eq!(c.len(), 1);
        // Pairs: (0,1) intra, (0,3), (1,3) cross → 2 comparisons.
        assert_eq!(c.total_comparisons(), 2);
    }

    #[test]
    fn dirty_counts_all_pairs() {
        let ds = dataset();
        let groups = vec![("t".to_string(), vec![e(0), e(1), e(3)])];
        let c = BlockCollection::from_groups(&ds, ErMode::Dirty, groups);
        assert_eq!(c.total_comparisons(), 3);
    }

    #[test]
    fn useless_blocks_are_dropped() {
        let ds = dataset();
        let groups = vec![
            ("single".to_string(), vec![e(0)]),
            ("intra_only".to_string(), vec![e(0), e(1)]),
            ("good".to_string(), vec![e(0), e(3)]),
        ];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        assert_eq!(c.len(), 1);
        assert_eq!(c.key_str(BlockId(0)), "good");
        // In dirty mode the intra pair survives.
        let groups = vec![
            ("single".to_string(), vec![e(0)]),
            ("intra_only".to_string(), vec![e(0), e(1)]),
        ];
        let c = BlockCollection::from_groups(&ds, ErMode::Dirty, groups);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn entity_blocks_inverse_view() {
        let ds = dataset();
        let groups = vec![
            ("k1".to_string(), vec![e(0), e(3)]),
            ("k2".to_string(), vec![e(0), e(4)]),
            ("k3".to_string(), vec![e(1), e(3)]),
        ];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        assert_eq!(c.entity_blocks(e(0)).len(), 2);
        assert_eq!(c.entity_blocks(e(1)).len(), 1);
        assert_eq!(c.entity_blocks(e(2)).len(), 0);
        assert_eq!(c.placed_entities(), 4);
        assert_eq!(c.total_assignments(), 6);
    }

    #[test]
    fn duplicate_members_are_deduped() {
        let ds = dataset();
        let groups = vec![("t".to_string(), vec![e(0), e(0), e(3), e(3)])];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        assert_eq!(c.block(BlockId(0)).len(), 2);
        assert_eq!(c.total_comparisons(), 1);
    }

    #[test]
    fn distinct_pairs_dedup_across_blocks() {
        let ds = dataset();
        let groups = vec![
            ("k1".to_string(), vec![e(0), e(3)]),
            ("k2".to_string(), vec![e(0), e(3), e(4)]),
        ];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        // Occurrences: (0,3) twice, (0,4), (3,4) intra-b? 3 and 4 same KB → no.
        assert_eq!(c.total_comparisons(), 3);
        let pairs = c.distinct_pairs();
        assert_eq!(pairs, vec![(e(0), e(3)), (e(0), e(4))]);
    }

    #[test]
    fn groups_are_sorted_by_key() {
        let ds = dataset();
        let groups = vec![
            ("zz".to_string(), vec![e(0), e(3)]),
            ("aa".to_string(), vec![e(1), e(4)]),
        ];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        assert_eq!(c.key_str(BlockId(0)), "aa");
        assert_eq!(c.key_str(BlockId(1)), "zz");
    }

    #[test]
    fn inv_cardinality_slab_matches_comparisons() {
        let ds = dataset();
        let groups = vec![
            ("k1".to_string(), vec![e(0), e(3)]),
            ("k2".to_string(), vec![e(0), e(1), e(3), e(4)]),
        ];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        for b in c.blocks() {
            let expect = 1.0 / (b.comparisons as f64).max(1.0);
            assert_eq!(c.inv_cardinality(b.id).to_bits(), expect.to_bits());
        }
    }

    /// The string-free assignment path must produce exactly the same
    /// collection as `from_groups` given the same logical groups, at
    /// every thread count.
    #[test]
    fn assignments_match_groups_at_every_thread_count() {
        let ds = dataset();
        // Entity → keys (entities visited in ascending order, with
        // duplicates to exercise the seal-time dedup).
        let per_entity: [&[&str]; 5] = [
            &["knossos", "crete", "knossos"],
            &["athens", "crete"],
            &[],
            &["knossos", "athens"],
            &["crete"],
        ];
        let mut groups: std::collections::BTreeMap<String, Vec<EntityId>> = Default::default();
        for (i, keys) in per_entity.iter().enumerate() {
            let mut seen: Vec<&str> = keys.to_vec();
            seen.sort_unstable();
            seen.dedup();
            for k in seen {
                groups.entry(k.to_string()).or_default().push(e(i as u32));
            }
        }
        let reference = BlockCollection::from_groups(
            &ds,
            ErMode::CleanClean,
            groups.into_iter().collect::<Vec<_>>(),
        );
        for threads in [1usize, 2, 3, 8] {
            let mut asg = KeyAssignments::with_capacity(ds.len());
            for keys in per_entity.iter() {
                for k in keys.iter() {
                    asg.push_key(k);
                }
                asg.seal_entity();
            }
            let c = BlockCollection::from_assignments_with_threads(
                &ds,
                ErMode::CleanClean,
                asg,
                threads,
            );
            assert_eq!(c.len(), reference.len(), "threads = {threads}");
            for (a, b) in c.blocks().zip(reference.blocks()) {
                assert_eq!(c.key_str(a.id), reference.key_str(b.id));
                assert_eq!(a.entities, b.entities);
                assert_eq!(a.comparisons, b.comparisons);
            }
            for i in 0..ds.len() as u32 {
                assert_eq!(c.entity_blocks(e(i)), reference.entity_blocks(e(i)));
            }
            assert_eq!(c.total_comparisons(), reference.total_comparisons());
        }
    }
}
