//! Query-time resolution: "resolve *this* entity now" as a single
//! neighbourhood sweep, bit-identical to the incident slice of a full
//! corpus run.
//!
//! The batch pipeline answers "prune the whole corpus"; a resolution
//! *service* answers one entity at a time, thousands of times, against
//! the same corpus. Re-running a full sweep per request would make every
//! query `O(corpus)`; this module makes it `O(neighbourhood)`:
//!
//! * `resolve_rows` applies a pruning family to one entity's weight
//!   row (plus, for the node-centric families, the rows of its
//!   neighbours — loaded lazily, only when the entity's own vote does
//!   not already decide the edge). Rows come from a `RowSource`:
//!   either a fresh single-entity sweep (`SweepRows`, used by
//!   [`Session::resolve_entity`](crate::Session::resolve_entity)) or the
//!   incremental session's patched row cache.
//! * The *global* inputs a family needs — WEP's mean threshold, CEP's
//!   global top-k, CNP's default `k`, the supervised extractor's
//!   normalisation maxima — are computed once per corpus version as a
//!   `Criterion` and reused by every resolve, which is what keeps a
//!   query sub-linear: the criterion amortises across requests exactly
//!   like the session's CSR/scratch state does across runs.
//! * [`NeighbourhoodCache`] memoises whole [`ResolvedEntity`] answers
//!   for the hot entities of a skewed query mix, with invalidation
//!   driven by the dirty-entity sets
//!   [`IncrementalSession::ingest`](crate::IncrementalSession::ingest)
//!   reports (see [`locally_invalidatable`] for when that is sound).
//!
//! Bit-identity is the contract, not an aspiration: for every scheme ×
//! pruning family × worker count, `resolve_entity(e).matches` equals the
//! pairs incident to `e` in the full-corpus outcome, same order, same
//! f64 bits (`tests/resolve_entity.rs`).

use crate::blast::chi_square_from_stats;
use crate::kernel::{edge_weight, normalised, WeightGlobals};
use crate::probe;
use crate::prune::WeightedPair;
use crate::session::Pruning;
use crate::supervised::{self, FeatureExtractor, Perceptron};
use crate::sweep::{ScratchPool, SweepState};
use crate::weights::WeightingScheme;
use minoan_blocking::BlockCollection;
use minoan_common::stats::mean;
use minoan_common::{OrdF64, TopK};
use minoan_rdf::EntityId;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// One entity's query-time resolution result.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolvedEntity {
    /// The queried entity.
    pub entity: EntityId,
    /// The retained comparisons incident to [`Self::entity`] — exactly
    /// the pairs a full-corpus run of the same scheme × pruning would
    /// keep for it, in the same order with the same f64 weight bits.
    pub matches: Vec<WeightedPair>,
    /// All comparable neighbours of the entity (ascending, unpruned) —
    /// the dependency set a cached copy of this result is valid under
    /// (see [`NeighbourhoodCache`]).
    pub neighbours: Vec<u32>,
}

/// Where an entity's weight row comes from: a fresh single-entity sweep
/// or the incremental session's patched row cache. A row is the sorted
/// `(neighbour, weight)` list of the entity's incident edges — the same
/// statistics a full sweep of that entity would produce.
pub(crate) trait RowSource {
    /// Loads `e`'s row into `out` (cleared first), ascending by
    /// neighbour id.
    fn load_row(&mut self, e: u32, out: &mut Vec<(u32, f64)>);
}

/// How [`SweepRows`] turns sweep statistics into row weights.
pub(crate) enum RowMode {
    /// The scheme's edge weight (normalised endpoint order).
    Scheme(WeightingScheme),
    /// BLAST's χ² weight.
    Chi2,
}

/// A [`RowSource`] that sweeps the entity's blocks on demand — one
/// pooled epoch-reset scratch per load, `O(neighbourhood)` per row.
pub(crate) struct SweepRows<'a> {
    collection: &'a BlockCollection,
    globals: &'a WeightGlobals,
    pool: &'a ScratchPool,
    mode: RowMode,
}

impl<'a> SweepRows<'a> {
    /// Rows weighted by `scheme`.
    pub(crate) fn scheme(
        collection: &'a BlockCollection,
        globals: &'a WeightGlobals,
        pool: &'a ScratchPool,
        scheme: WeightingScheme,
    ) -> Self {
        Self {
            collection,
            globals,
            pool,
            mode: RowMode::Scheme(scheme),
        }
    }

    /// Rows weighted by BLAST's χ².
    pub(crate) fn chi2(
        collection: &'a BlockCollection,
        globals: &'a WeightGlobals,
        pool: &'a ScratchPool,
    ) -> Self {
        Self {
            collection,
            globals,
            pool,
            mode: RowMode::Chi2,
        }
    }
}

impl RowSource for SweepRows<'_> {
    fn load_row(&mut self, e: u32, out: &mut Vec<(u32, f64)>) {
        out.clear();
        probe::record_resolve_sweep();
        self.pool.with(|scratch| {
            scratch.sweep(self.collection, EntityId(e));
            out.reserve(scratch.neighbours().len());
            for &y in scratch.neighbours() {
                let (lo, hi) = if e < y { (e, y) } else { (y, e) };
                let w = match self.mode {
                    RowMode::Scheme(scheme) => {
                        edge_weight(scheme, scratch, self.globals, y, lo, hi)
                    }
                    RowMode::Chi2 => chi_square_from_stats(
                        scratch.cbs_of(y),
                        self.globals.blocks_of[lo as usize],
                        self.globals.blocks_of[hi as usize],
                        self.globals.num_blocks,
                    ),
                };
                out.push((y, w));
            }
        });
    }
}

/// The global inputs one scheme × pruning combination needs before a
/// single entity can be resolved — computed once per corpus version,
/// reused by every resolve against it.
pub(crate) enum Criterion {
    /// The decision reads only the entity's (and its neighbours') rows:
    /// `None`, WNP, BLAST.
    Local,
    /// WEP's global mean-positive-weight threshold.
    Wep(f64),
    /// CEP's global top-k, already in presentation order; resolving is
    /// filtering to the incident pairs.
    Cep(Vec<WeightedPair>),
    /// CNP's resolved per-node cardinality (defaults already applied).
    CnpK(usize),
    /// The supervised extractor (global per-feature maxima baked in).
    Supervised(FeatureExtractor),
}

/// Builds the [`Criterion`] for `scheme` × `pruning` on a sweep state,
/// ensuring the globals tier the per-request sweeps will need. The
/// global reductions are the exact streaming pass-1 bodies
/// ([`streaming::wep_criterion`](crate::streaming), CEP's bounded-heap
/// merge, [`streaming::supervised_extractor`](crate::streaming)), so the
/// thresholds carry the same f64 bits as a full run's.
pub(crate) fn build_criterion(
    st: &mut SweepState<'_>,
    scheme: WeightingScheme,
    pruning: &Pruning,
    threads: usize,
) -> Criterion {
    match *pruning {
        Pruning::None | Pruning::Wnp { .. } => {
            st.ensure(scheme, false, threads);
            Criterion::Local
        }
        Pruning::Blast { ratio } => {
            assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
            st.ensure_basic();
            Criterion::Local
        }
        Pruning::Wep => Criterion::Wep(crate::streaming::wep_criterion(st, scheme, threads).0),
        Pruning::Cep(k) => {
            Criterion::Cep(crate::streaming::cep_session(st, scheme, k, threads).pairs)
        }
        Pruning::Cnp { k, .. } => {
            st.ensure(scheme, k.is_none(), threads);
            let k = k.unwrap_or_else(|| {
                crate::prune::default_cnp_k_from(
                    st.collection.total_assignments(),
                    st.globals().active_nodes,
                )
            });
            Criterion::CnpK(k)
        }
        Pruning::Supervised(_) => {
            Criterion::Supervised(crate::streaming::supervised_extractor(st, threads))
        }
    }
}

/// Resolves one entity against a row source under a prebuilt criterion.
/// Each family's body mirrors its full-sweep counterpart restricted to
/// the edges incident to `entity`: the entity's own row decides what a
/// full run's sweep of `entity` would decide, and the node-centric
/// families load a neighbour's row only when the other endpoint's vote
/// is still needed (union: the entity voted no; reciprocal: it voted
/// yes). Edge weights are bitwise endpoint-symmetric — both endpoints'
/// sweeps produce the identical f64 — so one row's weight serves both
/// votes.
pub(crate) fn resolve_rows(
    source: &mut dyn RowSource,
    entity: EntityId,
    pruning: Pruning,
    criterion: &Criterion,
) -> ResolvedEntity {
    let e = entity.0;
    let mut row: Vec<(u32, f64)> = Vec::new();
    source.load_row(e, &mut row);
    let neighbours: Vec<u32> = row.iter().map(|&(y, _)| y).collect();
    let mut other: Vec<(u32, f64)> = Vec::new();
    let mut buf: Vec<f64> = Vec::new();
    let matches = match (pruning, criterion) {
        (Pruning::None, Criterion::Local) => {
            // The unpruned outcome stays in ascending pair order, and
            // the ascending row yields exactly its incident slice: every
            // `(y, e)` with `y < e` sorts before every `(e, y)`.
            row.iter().map(|&(y, w)| normalised(e, y, w)).collect()
        }
        (Pruning::Wep, Criterion::Wep(threshold)) => present(
            row.iter()
                .filter(|&&(_, w)| w >= *threshold && w > 0.0)
                .map(|&(y, w)| normalised(e, y, w))
                .collect(),
        ),
        (Pruning::Cep(_), Criterion::Cep(pairs)) => pairs
            .iter()
            .filter(|p| p.a == entity || p.b == entity)
            .copied()
            .collect(),
        (Pruning::Wnp { reciprocal }, Criterion::Local) => {
            let thr_e = row_mean(&row, &mut buf);
            let mut kept = Vec::new();
            for &(y, w) in &row {
                if w <= 0.0 {
                    continue;
                }
                let vote_e = w >= thr_e;
                let mut vote_y = || {
                    source.load_row(y, &mut other);
                    w >= row_mean(&other, &mut buf)
                };
                let keep = if reciprocal {
                    vote_e && vote_y()
                } else {
                    vote_e || vote_y()
                };
                if keep {
                    kept.push(normalised(e, y, w));
                }
            }
            present(kept)
        }
        (Pruning::Cnp { reciprocal, .. }, Criterion::CnpK(k)) => {
            let k = *k;
            if k == 0 {
                Vec::new()
            } else {
                let top_e = row_top_k(&row, e, k);
                let mut kept = Vec::new();
                for &(y, w) in &row {
                    if w <= 0.0 {
                        continue;
                    }
                    let p = normalised(e, y, w);
                    let key = (OrdF64(w), Reverse((p.a, p.b)));
                    let vote_e = top_e.contains(&key);
                    let mut vote_y = || {
                        source.load_row(y, &mut other);
                        row_top_k(&other, y, k).contains(&key)
                    };
                    let keep = if reciprocal {
                        vote_e && vote_y()
                    } else {
                        vote_e || vote_y()
                    };
                    if keep {
                        kept.push(p);
                    }
                }
                present(kept)
            }
        }
        (Pruning::Blast { ratio }, Criterion::Local) => {
            let max_e = row_max(&row);
            let mut kept = Vec::new();
            for &(y, w) in &row {
                if w <= 0.0 {
                    continue;
                }
                let keep = w >= ratio * max_e || {
                    source.load_row(y, &mut other);
                    w >= ratio * row_max(&other)
                };
                if keep {
                    kept.push(normalised(e, y, w));
                }
            }
            present(kept)
        }
        (p, _) => unreachable!("criterion was built for a different pruning family than {p:?}"),
    };
    ResolvedEntity {
        entity,
        matches,
        neighbours,
    }
}

/// Resolves one entity under the supervised pruner. Features are
/// orientation-dependent (the raw vector reads the endpoints in forward
/// `(a, y)` order with `a < y`), so backward edges are computed at the
/// *smaller* endpoint's sweep — exactly where the full pass computes
/// them — instead of through a row.
pub(crate) fn resolve_supervised(
    collection: &BlockCollection,
    globals: &WeightGlobals,
    pool: &ScratchPool,
    extractor: &FeatureExtractor,
    model: &Perceptron,
    entity: EntityId,
) -> ResolvedEntity {
    let e = entity.0;
    let mut matches = Vec::new();
    let mut neighbours: Vec<u32> = Vec::new();
    pool.with(|se| {
        probe::record_resolve_sweep();
        se.sweep(collection, entity);
        neighbours.extend_from_slice(se.neighbours());
        pool.with(|sy| {
            for &y in &neighbours {
                let raw = if y > e {
                    supervised::raw_forward_features(se, e, y, globals)
                } else {
                    probe::record_resolve_sweep();
                    sy.sweep(collection, EntityId(y));
                    supervised::raw_forward_features(sy, y, e, globals)
                };
                let score = model.score(&extractor.normalise(raw));
                if score > 0.0 {
                    matches.push(normalised(e, y, supervised::sigmoid(score)));
                }
            }
        });
    });
    ResolvedEntity {
        entity,
        matches: present(matches),
        neighbours,
    }
}

/// Sorts kept pairs into presentation order — the exact
/// `from_weighted_pairs` comparator (weight descending, ties by pair
/// ascending). Filtering a fully sorted list to the incident pairs
/// preserves their relative order, so sorting the incident subset with
/// the same strict comparator reproduces the full outcome's slice.
fn present(mut pairs: Vec<WeightedPair>) -> Vec<WeightedPair> {
    pairs.sort_by(|x, y| {
        y.weight
            .partial_cmp(&x.weight)
            .expect("weights are finite")
            .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
    });
    pairs
}

/// WNP's per-node threshold from a row: the mean over *all* incident
/// weights, computed through the same `stats::mean` on the same
/// ascending-order vector the full sweep builds.
fn row_mean(row: &[(u32, f64)], buf: &mut Vec<f64>) -> f64 {
    buf.clear();
    buf.extend(row.iter().map(|&(_, w)| w));
    mean(buf)
}

type CnpKey = (OrdF64, Reverse<(EntityId, EntityId)>);

/// CNP's per-node kept set: the same bounded heap over the same strict
/// total order the full sweep pushes, in the same ascending neighbour
/// order.
fn row_top_k(row: &[(u32, f64)], a: u32, k: usize) -> Vec<CnpKey> {
    let mut top: TopK<CnpKey> = TopK::new(k);
    for &(y, w) in row {
        if w > 0.0 {
            let p = normalised(a, y, w);
            top.push((OrdF64(w), Reverse((p.a, p.b))));
        }
    }
    top.into_sorted_vec()
}

/// BLAST's per-node local maximum (0 for an all-non-positive row, like
/// the full pass's accumulator).
fn row_max(row: &[(u32, f64)]) -> f64 {
    let mut max = 0.0f64;
    for &(_, w) in row {
        if w > max {
            max = w;
        }
    }
    max
}

/// Whether a cached [`ResolvedEntity`] under `scheme` × `pruning` can be
/// kept across an ingest by invalidating only the entries whose
/// dependency sets intersect the ingest's dirty entities — or whether
/// every cached answer must be dropped.
///
/// The per-entry invalidation is sound exactly when a batch can only
/// change answers through the rows of dirty entities:
///
/// * the **scheme** must be delta-local (CBS, JS, ARCS): every changed
///   edge has a dirty endpoint, and a dirty entity's row change
///   invalidates every entry depending on it. ECBS/EJS read the global
///   block/edge totals, which every arrival shifts — all answers change
///   with no dirty-set trace.
/// * the **pruning criterion** must be row-local: `None`, WNP, and CNP
///   with an *explicit* `k`. WEP's threshold, CEP's top-k, default-`k`
///   CNP (its `k` reads the global assignment/active-node counts), BLAST
///   (χ² over `|B|`) and the supervised extractor are all global — one
///   arrival may move them and silently re-decide edges between clean
///   entities.
///
/// For every other combination, clear the cache on ingest — still
/// correct, just colder.
pub fn locally_invalidatable(scheme: WeightingScheme, pruning: Pruning) -> bool {
    matches!(
        scheme,
        WeightingScheme::Cbs | WeightingScheme::Js | WeightingScheme::Arcs
    ) && matches!(
        pruning,
        Pruning::None | Pruning::Wnp { .. } | Pruning::Cnp { k: Some(_), .. }
    )
}

struct CacheEntry {
    value: ResolvedEntity,
    /// `neighbours ∪ {entity}`, sorted — the entities whose rows this
    /// answer was computed from.
    deps: Vec<u32>,
    /// Last-touched tick (larger = more recent).
    stamp: u64,
    /// The (possibly older) stamp this entry is filed under in
    /// `NeighbourhoodCache::by_stamp`.
    filed: u64,
}

/// An LRU cache of hot [`ResolvedEntity`] answers.
///
/// **Invalidation invariant**: an entry for entity `e` was computed from
/// the rows of `deps = {e} ∪ neighbours(e)`. An ingest can change `e`'s
/// answer only by changing one of those rows, and every changed row
/// belongs to a dirty entity (a new edge `(e, z)` requires a shared
/// touched block, which makes `e` itself dirty). So when
/// [`locally_invalidatable`] holds, `deps ∩ dirty = ∅` proves the cached
/// answer is still bit-identical to a fresh resolve — that is what
/// [`Self::invalidate`] checks, and what the serve-consistency property
/// suite pins.
///
/// Capacity 0 disables the cache entirely (every get misses silently,
/// inserts are dropped) — the bench's "uncached" variant.
pub struct NeighbourhoodCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<u32, CacheEntry>,
    /// `filed stamp → entity`, one record per entry. A hit only bumps
    /// the entry's own stamp and leaves its record behind; eviction pops
    /// the oldest record and re-files it while it is out of date. A
    /// record that is up to date is older than every other record, each
    /// of which is no newer than its entry — so it names the least
    /// recently used entry, without scanning and without index work on
    /// the hit path.
    by_stamp: BTreeMap<u64, u32>,
    /// Reusable dirty-entity mask for [`Self::invalidate`], grown on
    /// demand and all-false between calls.
    dirty_mask: Vec<bool>,
}

impl NeighbourhoodCache {
    /// A cache holding at most `capacity` resolved entities.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            entries: BTreeMap::new(),
            by_stamp: BTreeMap::new(),
            dirty_mask: Vec::new(),
        }
    }

    /// The configured capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cached entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a still-valid cached answer, refreshing its recency.
    /// Ticks the [`probe`] hit/miss counters unless the cache is
    /// disabled.
    pub fn get(&mut self, entity: EntityId) -> Option<&ResolvedEntity> {
        if self.capacity == 0 {
            return None;
        }
        match self.entries.get_mut(&entity.0) {
            Some(entry) => {
                self.tick += 1;
                entry.stamp = self.tick;
                probe::record_cache_hit();
                Some(&entry.value)
            }
            None => {
                probe::record_cache_miss();
                None
            }
        }
    }

    /// Admits a freshly resolved answer, evicting the least recently
    /// used entry at capacity.
    pub fn insert(&mut self, value: ResolvedEntity) {
        if self.capacity == 0 {
            return;
        }
        let key = value.entity.0;
        if let Some(old) = self.entries.remove(&key) {
            self.by_stamp.remove(&old.filed);
        } else if self.entries.len() >= self.capacity {
            while let Some((filed, oldest)) = self.by_stamp.pop_first() {
                let entry = self.entries.get_mut(&oldest).expect("one record per entry");
                if entry.stamp == filed {
                    self.entries.remove(&oldest);
                    break;
                }
                entry.filed = entry.stamp;
                self.by_stamp.insert(entry.stamp, oldest);
            }
        }
        let mut deps = value.neighbours.clone();
        if let Err(pos) = deps.binary_search(&key) {
            deps.insert(pos, key);
        }
        self.tick += 1;
        let stamp = self.tick;
        self.by_stamp.insert(stamp, key);
        let filed = stamp;
        self.entries.insert(
            key,
            CacheEntry {
                value,
                deps,
                stamp,
                filed,
            },
        );
    }

    /// Drops every entry whose dependency set intersects `dirty`
    /// (an ingest's dirty-entity report); returns how many were
    /// dropped. Only sound when [`locally_invalidatable`] holds for the
    /// session's combination — otherwise call [`Self::clear`].
    pub fn invalidate(&mut self, dirty: &[EntityId]) -> usize {
        if self.entries.is_empty() || dirty.is_empty() {
            return 0;
        }
        // One mask probe per dependency: O(dirty + Σ deps), where a
        // per-entry walk of the dirty list is O(entries × dirty).
        let top = dirty.iter().map(|e| e.index()).max().unwrap_or(0);
        if self.dirty_mask.len() <= top {
            self.dirty_mask.resize(top + 1, false);
        }
        for e in dirty {
            self.dirty_mask[e.index()] = true;
        }
        let (mask, by_stamp) = (&self.dirty_mask, &mut self.by_stamp);
        let is_dirty = |&d: &u32| mask.get(d as usize).copied().unwrap_or(false);
        let before = self.entries.len();
        self.entries.retain(|_, entry| {
            let keep = !entry.deps.iter().any(is_dirty);
            if !keep {
                by_stamp.remove(&entry.filed);
            }
            keep
        });
        for e in dirty {
            self.dirty_mask[e.index()] = false;
        }
        before - self.entries.len()
    }

    /// Drops everything (the safe response to an ingest under a global
    /// criterion, or to a scheme/pruning switch).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.by_stamp.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolved(e: u32, neighbours: &[u32]) -> ResolvedEntity {
        ResolvedEntity {
            entity: EntityId(e),
            matches: Vec::new(),
            neighbours: neighbours.to_vec(),
        }
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut c = NeighbourhoodCache::new(2);
        c.insert(resolved(1, &[2]));
        c.insert(resolved(2, &[1]));
        assert!(c.get(EntityId(1)).is_some(), "1 is now the most recent");
        c.insert(resolved(3, &[4]));
        assert_eq!(c.len(), 2);
        assert!(c.get(EntityId(2)).is_none(), "2 was the LRU victim");
        assert!(c.get(EntityId(1)).is_some());
        assert!(c.get(EntityId(3)).is_some());
    }

    #[test]
    fn invalidation_drops_exactly_the_dependent_entries() {
        let mut c = NeighbourhoodCache::new(8);
        c.insert(resolved(1, &[5, 9]));
        c.insert(resolved(2, &[6]));
        c.insert(resolved(3, &[7]));
        // Entity 9 is a neighbour-dep of entry 1; entity 2 is its own dep.
        let dropped = c.invalidate(&[EntityId(9), EntityId(2)]);
        assert_eq!(dropped, 2);
        assert!(c.get(EntityId(1)).is_none());
        assert!(c.get(EntityId(2)).is_none());
        assert!(c.get(EntityId(3)).is_some());
    }

    /// The stamp index and the dirty mask against the definitions they
    /// replaced — least stamp over all entries, sorted-list intersection
    /// per entry — on a seeded operation stream.
    #[test]
    fn eviction_order_and_invalidated_set_match_the_scanning_definitions() {
        const CAPACITY: usize = 8;
        let mut cache = NeighbourhoodCache::new(CAPACITY);
        // The model: entity → (deps, last-touched tick).
        let mut model: BTreeMap<u32, (Vec<u32>, u64)> = BTreeMap::new();
        let mut tick = 0u64;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32 % bound
        };
        for step in 0..600 {
            match next(4) {
                0 | 1 => {
                    let e = next(24);
                    let mut neighbours: Vec<u32> = (0..next(5)).map(|_| next(40)).collect();
                    neighbours.sort_unstable();
                    neighbours.dedup();
                    neighbours.retain(|&y| y != e);
                    cache.insert(resolved(e, &neighbours));
                    if !model.contains_key(&e) && model.len() >= CAPACITY {
                        let victim = *model
                            .iter()
                            .min_by_key(|(_, (_, stamp))| *stamp)
                            .expect("at capacity")
                            .0;
                        model.remove(&victim);
                    }
                    tick += 1;
                    let mut deps = neighbours;
                    deps.push(e);
                    model.insert(e, (deps, tick));
                }
                2 => {
                    let e = next(24);
                    let hit = cache.get(EntityId(e)).is_some();
                    assert_eq!(hit, model.contains_key(&e), "step {step}: get({e})");
                    if let Some(entry) = model.get_mut(&e) {
                        tick += 1;
                        entry.1 = tick;
                    }
                }
                _ => {
                    // Unsorted, possibly repeating dirty ids.
                    let dirty: Vec<u32> = (0..next(6)).map(|_| next(40)).collect();
                    let ids: Vec<EntityId> = dirty.iter().map(|&d| EntityId(d)).collect();
                    let before = model.len();
                    model.retain(|_, (deps, _)| !deps.iter().any(|d| dirty.contains(d)));
                    assert_eq!(
                        cache.invalidate(&ids),
                        before - model.len(),
                        "step {step}: invalidate({dirty:?})"
                    );
                }
            }
            let held: Vec<u32> = cache.entries.keys().copied().collect();
            let want: Vec<u32> = model.keys().copied().collect();
            assert_eq!(held, want, "step {step}: surviving entries");
            assert_eq!(cache.by_stamp.len(), cache.entries.len());
        }
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let mut c = NeighbourhoodCache::new(0);
        let hits = probe::cache_hits();
        let misses = probe::cache_misses();
        c.insert(resolved(1, &[]));
        assert!(c.is_empty());
        assert!(c.get(EntityId(1)).is_none());
        assert_eq!(probe::cache_hits(), hits, "disabled cache must not tick");
        assert_eq!(probe::cache_misses(), misses);
    }

    #[test]
    fn local_invalidation_matrix() {
        use WeightingScheme as S;
        let wnp = Pruning::Wnp { reciprocal: true };
        assert!(locally_invalidatable(S::Cbs, Pruning::None));
        assert!(locally_invalidatable(S::Js, wnp));
        assert!(locally_invalidatable(
            S::Arcs,
            Pruning::Cnp {
                reciprocal: false,
                k: Some(3)
            }
        ));
        // Global criteria, or global schemes, force a full clear.
        assert!(!locally_invalidatable(S::Ecbs, wnp));
        assert!(!locally_invalidatable(S::Ejs, Pruning::None));
        assert!(!locally_invalidatable(S::Js, Pruning::Wep));
        assert!(!locally_invalidatable(S::Js, Pruning::Cep(None)));
        assert!(!locally_invalidatable(
            S::Js,
            Pruning::Cnp {
                reciprocal: false,
                k: None
            }
        ));
        assert!(!locally_invalidatable(S::Cbs, Pruning::blast()));
    }
}
