//! The node-centric co-occurrence sweep shared by the CSR graph build and
//! the streaming pruners.
//!
//! For one entity `a`, a sweep visits every block containing `a` (in
//! ascending block-id order) and every comparable co-member, accumulating
//! per-neighbour statistics — `|B_aj|` (CBS) and `Σ 1/‖b‖` (ARCS) — in
//! dense arrays indexed by neighbour id. Resetting between entities uses
//! the classic epoch/touched-list trick: an epoch counter is bumped per
//! sweep and a slot is (re)initialised lazily the first time it is touched,
//! so a sweep costs `O(co-occurrences of a)`, never `O(n)`.
//!
//! Because blocks are visited in ascending id order, the f64 ARCS sums are
//! accumulated in exactly the order the materialised graph build uses —
//! which is what makes the streaming pruning paths *bit-identical* to the
//! materialised ones.

use crate::kernel::WeightGlobals;
use minoan_blocking::{BlockCollection, BlockView};
use minoan_rdf::EntityId;
use std::sync::Mutex;

/// Reusable per-worker scratch for node-centric sweeps over a collection
/// with `n` entities.
pub(crate) struct SweepScratch {
    /// Epoch at which each neighbour slot was last touched.
    last_seen: Vec<u32>,
    /// CBS accumulator per neighbour (valid when `last_seen == epoch`).
    cbs: Vec<u32>,
    /// ARCS accumulator per neighbour (valid when `last_seen == epoch`).
    arcs: Vec<f64>,
    /// Neighbours touched by the current sweep (unsorted until
    /// [`Self::sweep`] returns).
    touched: Vec<u32>,
    /// Current sweep epoch.
    epoch: u32,
}

impl SweepScratch {
    /// Scratch sized for `n` entities.
    pub(crate) fn new(n: usize) -> Self {
        crate::probe::record_scratch_alloc();
        Self {
            last_seen: vec![0; n],
            cbs: vec![0; n],
            arcs: vec![0.0; n],
            touched: Vec::new(),
            epoch: 0,
        }
    }

    /// Sweeps entity `a`, leaving the distinct comparable neighbours of
    /// `a` (sorted ascending) in the returned slice; per-neighbour stats
    /// are then available through [`Self::cbs_of`] / [`Self::arcs_of`].
    /// Generic over the block layout, so a finished collection and the
    /// live incremental slabs each get their own monomorphised loop.
    pub(crate) fn sweep<V: BlockView>(&mut self, view: &V, a: EntityId) -> &[u32] {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely long-lived scratch (now reachable: the session
            // pool keeps scratches alive across runs) wrapped around:
            // reset all stamps to 0, which no future epoch ever equals
            // (this branch skips 0), so stale slots can never collide.
            self.last_seen.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
        let Self {
            last_seen,
            cbs,
            arcs,
            touched,
            epoch,
        } = self;
        view.for_each_co_occurrence(a, |inv_card, y| {
            let yi = y.index();
            if last_seen[yi] != *epoch {
                last_seen[yi] = *epoch;
                cbs[yi] = 1;
                arcs[yi] = inv_card;
                touched.push(y.0);
            } else {
                cbs[yi] += 1;
                // lint:allow(float-accumulation): per-entity serial sweep in co-occurrence slab order
                arcs[yi] += inv_card;
            }
        });
        self.touched.sort_unstable();
        &self.touched
    }

    /// Sorted distinct neighbours of the most recent sweep.
    #[inline]
    pub(crate) fn neighbours(&self) -> &[u32] {
        &self.touched
    }

    /// CBS of the most recent sweep's edge to neighbour `y`.
    #[inline]
    pub(crate) fn cbs_of(&self, y: u32) -> u32 {
        self.cbs[y as usize]
    }

    /// ARCS of the most recent sweep's edge to neighbour `y`.
    #[inline]
    pub(crate) fn arcs_of(&self, y: u32) -> f64 {
        self.arcs[y as usize]
    }
}

/// A free-list of [`SweepScratch`]es shared by the workers of a sweep
/// pass. Sweeps are epoch-reset, so a returned scratch is immediately
/// reusable; the pool only ever allocates on a miss, which is what lets a
/// [`Session`](crate::Session) sweep many scheme × pruning combinations
/// with the scratch allocations of a single run (the `probe` counters
/// assert this).
pub(crate) struct ScratchPool {
    n: usize,
    free: Mutex<Vec<SweepScratch>>,
}

impl ScratchPool {
    /// An empty pool for collections with `n` entities.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            n,
            free: Mutex::new(Vec::new()),
        }
    }

    fn take(&self) -> SweepScratch {
        let pooled = self.free.lock().expect("scratch pool poisoned").pop();
        pooled.unwrap_or_else(|| SweepScratch::new(self.n))
    }

    fn put(&self, scratch: SweepScratch) {
        self.free
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    }

    /// Runs `f` with a pooled scratch, returning the scratch to the pool
    /// afterwards (dropped instead if `f` panics — a poisoned sweep must
    /// not be reused).
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut SweepScratch) -> R) -> R {
        let mut scratch = self.take();
        let out = f(&mut scratch);
        self.put(scratch);
        out
    }
}

/// The one scoped-thread driver of the sweep-based paths: runs `f` once
/// per range with a pooled scratch and returns the results in range
/// order. A single range runs inline — a `--workers 1` run, or a
/// criterion rebuild under a service lock, pays no thread spawn.
pub(crate) fn for_each_range<T, F>(
    ranges: &[std::ops::Range<usize>],
    pool: &ScratchPool,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>, &mut SweepScratch) -> T + Sync,
{
    if let [r] = ranges {
        return vec![pool.with(|scratch| f(r.clone(), scratch))];
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| s.spawn(move || pool.with(|scratch| f(r.clone(), scratch))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
}

/// The expensive state a sweep-based backend (streaming or MapReduce)
/// needs before it can weight an edge, owned and cached across runs by
/// [`Session`](crate::Session): the per-entity sweep-cost slab and its
/// range partitionings, the [`WeightGlobals`] tiers (basic, and the
/// counted degrees/|V|/active-node upgrade), and the scratch pool.
pub(crate) struct SweepState<'c> {
    pub(crate) collection: &'c BlockCollection,
    pub(crate) pool: ScratchPool,
    costs: Option<Vec<u64>>,
    ranges: Vec<(usize, Vec<std::ops::Range<usize>>)>,
    globals: Option<WeightGlobals>,
    counted: bool,
}

impl<'c> SweepState<'c> {
    pub(crate) fn new(collection: &'c BlockCollection) -> Self {
        Self {
            collection,
            pool: ScratchPool::new(collection.num_entities()),
            costs: None,
            ranges: Vec::new(),
            globals: None,
            counted: false,
        }
    }

    /// Cost-balanced contiguous entity ranges for `parts` workers, cached
    /// per part count (the per-entity cost slab is computed once).
    pub(crate) fn ranges(&mut self, parts: usize) -> Vec<std::ops::Range<usize>> {
        if let Some((_, r)) = self.ranges.iter().find(|(p, _)| *p == parts) {
            return r.clone();
        }
        let collection = self.collection;
        let costs = self.costs.get_or_insert_with(|| sweep_costs(collection));
        let r = partition_by_cost(costs, parts);
        self.ranges.push((parts, r.clone()));
        r
    }

    /// Ensures the globals tier a pass reads: the basic per-entity block
    /// counts always, plus — when `counted` (EJS, the supervised
    /// features, CNP's default `k`, a bare |V|) — the counting pass, run
    /// at most once per state regardless of how many runs need it.
    pub(crate) fn ensure(&mut self, counted: bool, threads: usize) {
        if self.globals.is_none() {
            self.globals = Some(WeightGlobals::basic(self.collection));
        }
        if counted && !self.counted {
            self.count(threads);
        }
    }

    fn count(&mut self, threads: usize) {
        let ranges = self.ranges(threads.max(1));
        let collection = self.collection;
        let degrees = for_each_range(&ranges, &self.pool, |r, scratch| {
            r.map(|a| scratch.sweep(collection, EntityId(a as u32)).len() as u32)
                .collect::<Vec<u32>>()
        })
        .concat();
        self.apply_count(degrees);
    }

    /// Installs externally-computed per-entity degrees (the MapReduce
    /// counting job) as the counted tier.
    pub(crate) fn apply_count(&mut self, degrees: Vec<u32>) {
        self.ensure(false, 1);
        let g = self.globals.as_mut().expect("just ensured");
        // |V| = Σ degrees / 2 (every edge counted at both endpoints).
        g.num_edges = degrees.iter().map(|&d| d as u64).sum::<u64>() as usize / 2;
        g.active_nodes = degrees.iter().filter(|&&d| d > 0).count();
        g.degrees = degrees;
        self.counted = true;
    }

    /// Whether the counted tier is installed.
    pub(crate) fn is_counted(&self) -> bool {
        self.counted
    }

    /// The cached globals; call [`Self::ensure`] (or a sibling) first.
    pub(crate) fn globals(&self) -> &WeightGlobals {
        self.globals
            .as_ref()
            .expect("SweepState::ensure must run first")
    }
}

/// Per-entity sweep cost (Σ sizes of the entity's blocks) — the balance
/// metric of the range partitioner.
fn sweep_costs(collection: &BlockCollection) -> Vec<u64> {
    (0..collection.num_entities() as u32)
        .map(|e| collection.sweep_cost(EntityId(e)))
        .collect()
}

/// Splits `0..costs.len()` into at most `parts` contiguous ranges of
/// roughly equal total cost (for entity-range parallelism). Never returns
/// an empty range; may return fewer ranges than `parts`.
pub(crate) fn partition_by_cost(costs: &[u64], parts: usize) -> Vec<std::ops::Range<usize>> {
    let n = costs.len();
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.max(1).min(n);
    let total: u64 = costs.iter().sum();
    let target = total / parts as u64 + 1;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &c) in costs.iter().enumerate() {
        acc += c;
        if acc >= target && out.len() + 1 < parts {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        out.push(start..n);
    }
    out
}

/// Contiguous entity ranges for `threads` workers, balanced by sweep cost
/// (Σ sizes of each entity's blocks) — shared by the CSR build and the
/// streaming passes so their parallel partitioning stays in lockstep.
pub(crate) fn entity_sweep_ranges(
    collection: &BlockCollection,
    threads: usize,
) -> Vec<std::ops::Range<usize>> {
    partition_by_cost(&sweep_costs(collection), threads)
}

/// Splits `slice` at the given cumulative `ends` (ascending, last ==
/// `slice.len()`), yielding one mutable chunk per segment for the scoped
/// worker threads.
pub(crate) fn split_by_ends<T>(
    mut slice: &mut [T],
    ends: impl IntoIterator<Item = usize>,
) -> Vec<&mut [T]> {
    let mut chunks = Vec::new();
    let mut prev = 0usize;
    for end in ends {
        let (chunk, rest) = slice.split_at_mut(end - prev);
        slice = rest;
        chunks.push(chunk);
        prev = end;
    }
    debug_assert!(slice.is_empty(), "ends must cover the whole slice");
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything_in_order() {
        let costs = vec![5u64, 1, 1, 1, 8, 1, 1, 1, 1, 1];
        for parts in 1..6 {
            let ranges = partition_by_cost(&costs, parts);
            assert!(ranges.len() <= parts);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, costs.len());
        }
    }

    #[test]
    fn partition_handles_empty() {
        assert!(partition_by_cost(&[], 4).is_empty());
    }
}
