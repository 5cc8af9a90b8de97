//! The node-centric co-occurrence sweep every sweeping driver shares.
//!
//! For one entity `a`, a sweep visits every block containing `a` (in
//! ascending block-id order) and every comparable co-member, accumulating
//! per-neighbour statistics — `|B_aj|` (CBS) and `Σ 1/‖b‖` (ARCS) — in
//! dense arrays indexed by neighbour id. Resetting between entities uses
//! the classic epoch/touched-list trick: an epoch counter is bumped per
//! sweep and a slot is (re)initialised lazily the first time it is touched,
//! so a sweep costs `O(co-occurrences of a)`, never `O(n)`.
//!
//! A sweep has a [`Direction`]: `Both` reports every neighbour of `a`,
//! `Forward` only those above it — each block's member walk stops at `a`,
//! so a forward pass over the whole corpus touches every co-occurrence
//! once instead of twice. The families that decide an edge from its
//! weight and a global criterion (CEP, WEP, `None`, supervised) sweep
//! forward; the node-centric votes and the counting pass read full
//! neighbourhoods.
//!
//! Because blocks are visited in ascending id order in either direction,
//! the f64 ARCS sums are accumulated in one order — ascending block id,
//! which is key-string order — by every sweeping driver alike, which is
//! what makes their pruning paths *bit-identical* to each other.
//!
//! What a sweep of `a` costs depends on the direction too — Σ sizes of
//! `a`'s blocks in full, Σ members *after* `a` in them forward, which
//! leans towards the low ids — so [`SweepState`] keeps one per-entity
//! cost slab per direction and balances each pass's entity ranges by the
//! cost that pass will pay.

#![deny(clippy::disallowed_types)]

use crate::kernel::WeightGlobals;
use minoan_blocking::{BlockCollection, BlockView, Direction};
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
        Self {
            last_seen: vec![0; n],
            cbs: vec![0; n],
            arcs: vec![0.0; n],
            touched: Vec::new(),
            epoch: 0,
        }
    }

    /// Sweeps entity `a`, leaving the distinct comparable neighbours of
    /// `a` in `direction` (sorted ascending) in the returned slice;
    /// per-neighbour stats are then available through [`Self::cbs_of`] /
    /// [`Self::arcs_of`]. Generic over the block layout, so a finished
    /// collection and the live incremental slabs each get their own
    /// monomorphised loop.
    pub(crate) fn sweep<V: BlockView>(
        &mut self,
        view: &V,
        a: EntityId,
        direction: Direction,
    ) -> &[u32] {
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
        view.for_each_co_occurrence(a, direction, |inv_card, y| {
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
/// with the scratch allocations of a single run. Every scratch is back on
/// the free list between runs, so its length is the number ever allocated
/// (the session tests read it).
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

    /// Scratches on the free list.
    #[cfg(test)]
    pub(crate) fn free_len(&self) -> usize {
        self.free.lock().expect("scratch pool poisoned").len()
    }
}

/// The one scoped-thread driver of the sweep-based paths: runs `f` once
/// per range with a pooled scratch and returns the results in range
/// order. A single range runs inline — a `--workers 1` run, or a
/// criterion rebuild under a service lock, pays no thread spawn. A panic
/// in a worker resumes on the caller with its original payload.
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
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// What sweeping each entity in one direction costs, and the range
/// partitionings already cut from it (by part count).
#[derive(Default)]
struct Balance {
    costs: Option<Vec<u64>>,
    ranges: Vec<(usize, Vec<std::ops::Range<usize>>)>,
}

/// The expensive state a sweep-based backend (streaming or MapReduce)
/// needs before it can weight an edge, owned and cached across runs by
/// [`Session`](crate::Session): the per-entity sweep-cost slabs (one per
/// [`Direction`]) and their range partitionings, the [`WeightGlobals`]
/// tiers (basic, and the counted degrees/|V|/active-node upgrade), and
/// the scratch pool.
pub(crate) struct SweepState<'c> {
    pub(crate) collection: &'c BlockCollection,
    pub(crate) pool: ScratchPool,
    /// Indexed by `Direction as usize`.
    balance: [Balance; 2],
    globals: Option<WeightGlobals>,
    counted: bool,
}

impl<'c> SweepState<'c> {
    pub(crate) fn new(collection: &'c BlockCollection) -> Self {
        Self {
            collection,
            pool: ScratchPool::new(collection.num_entities()),
            balance: Default::default(),
            globals: None,
            counted: false,
        }
    }

    /// Contiguous entity ranges for `parts` workers sweeping in
    /// `direction`, balanced by what those sweeps cost; cached per
    /// `(parts, direction)` (each direction's per-entity cost slab is
    /// computed once).
    pub(crate) fn ranges(
        &mut self,
        parts: usize,
        direction: Direction,
    ) -> Vec<std::ops::Range<usize>> {
        let Balance { costs, ranges } = &mut self.balance[direction as usize];
        if let Some((_, r)) = ranges.iter().find(|(p, _)| *p == parts) {
            return r.clone();
        }
        let costs = costs.get_or_insert_with(|| sweep_costs(self.collection, direction));
        let r = partition_by_cost(costs, parts);
        ranges.push((parts, r.clone()));
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
        let ranges = self.ranges(threads.max(1), Direction::Both);
        let collection = self.collection;
        let degrees = for_each_range(&ranges, &self.pool, |r, scratch| {
            r.map(|a| {
                let a = EntityId(a as u32);
                scratch.sweep(collection, a, Direction::Both).len() as u32
            })
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

/// Per-entity cost of a sweep in `direction` — the balance metric of the
/// range partitioner: Σ sizes of the entity's blocks in full, Σ members
/// after the entity in each of its blocks forward (one block-major pass
/// over the assignments; members are sorted, so a member's position is
/// its count of predecessors).
fn sweep_costs(collection: &BlockCollection, direction: Direction) -> Vec<u64> {
    let n = collection.num_entities();
    match direction {
        Direction::Both => (0..n as u32)
            .map(|e| collection.sweep_cost(EntityId(e)))
            .collect(),
        Direction::Forward => {
            let mut costs = vec![0u64; n];
            for block in collection.blocks() {
                for (after, e) in block.entities.iter().rev().enumerate() {
                    costs[e.index()] += after as u64;
                }
            }
            costs
        }
    }
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

    /// One corpus-wide block plus a few small ones, dirty mode: every
    /// entity's full sweep costs about the same, while a forward sweep
    /// costs entity `e` the members after it — the cost sits in the low
    /// ids.
    fn low_id_heavy() -> BlockCollection {
        use minoan_blocking::ErMode;
        let n = 240u32;
        let mut b = minoan_rdf::DatasetBuilder::new();
        let kb = b.add_kb("a", "http://a/");
        for i in 0..n {
            b.add_literal(kb, &format!("http://a/{i}"), "http://p", "x");
        }
        let members = |ids: std::ops::Range<u32>| ids.map(EntityId).collect::<Vec<_>>();
        let groups = vec![
            ("all".to_string(), members(0..n)),
            ("head".to_string(), members(0..12)),
            ("mid".to_string(), members(100..130)),
            ("tail".to_string(), members(220..n)),
        ];
        BlockCollection::from_groups(&b.build(), ErMode::Dirty, groups)
    }

    #[test]
    fn forward_costs_count_the_forward_visits() {
        let c = low_id_heavy();
        let costs = sweep_costs(&c, Direction::Forward);
        let mut total = 0;
        for e in 0..c.num_entities() as u32 {
            let mut visits = 0u64;
            c.for_each_co_occurrence(EntityId(e), Direction::Forward, |_, _| visits += 1);
            assert_eq!(costs[e as usize], visits, "entity {e}");
            total += visits;
        }
        // Every co-occurrence once forward, twice in full.
        let full: u64 = sweep_costs(&c, Direction::Both).iter().sum();
        assert_eq!(2 * total, full - c.total_assignments());
    }

    #[test]
    fn forward_ranges_balance_the_forward_cost() {
        let c = low_id_heavy();
        let forward = sweep_costs(&c, Direction::Forward);
        let cost_of = |r: &std::ops::Range<usize>| forward[r.clone()].iter().sum::<u64>() as f64;
        let mut st = SweepState::new(&c);
        for parts in 1..6 {
            let ranges = st.ranges(parts, Direction::Forward);
            assert!(ranges.len() <= parts);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, c.num_entities());
        }
        // Two workers: the forward split is even where the split by full
        // sweep cost would leave one of them over twice the work.
        let [lo, hi] = &st.ranges(2, Direction::Forward)[..] else {
            panic!("two ranges");
        };
        let skew = (cost_of(lo) - cost_of(hi)).abs() / cost_of(lo).max(cost_of(hi));
        assert!(
            skew <= 0.10,
            "forward split {lo:?} | {hi:?} is off by {skew}"
        );
        let [lo, hi] = &st.ranges(2, Direction::Both)[..] else {
            panic!("two ranges");
        };
        assert!(
            cost_of(lo) > 2.0 * cost_of(hi),
            "full-cost split {lo:?} | {hi:?}: forward cost {} vs {}",
            cost_of(lo),
            cost_of(hi)
        );
    }

    #[test]
    #[should_panic(expected = "the rule refused range 3..6")]
    fn a_worker_panic_reaches_the_caller_with_its_message() {
        let pool = ScratchPool::new(6);
        for_each_range(&[0..3, 3..6], &pool, |r, _| {
            assert!(r.start == 0, "the rule refused range {r:?}");
        });
    }
}
