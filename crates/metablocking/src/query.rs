//! Query-time resolution: "resolve *this* entity now" as a single
//! neighbourhood sweep, bit-identical to the incident slice of a full
//! corpus run.
//!
//! The batch pipeline answers "prune the whole corpus"; a resolution
//! *service* answers one entity at a time, thousands of times, against
//! the same corpus. Re-running a full sweep per request would make every
//! query `O(corpus)`; this module makes it `O(neighbourhood)`:
//!
//! * `resolve_rows` is the single-neighbourhood row driver: it copies the
//!   queried entity's row into the session's scratch, asks the family's
//!   rule (the crate-internal `rule` module) what that row decides, and —
//!   for the node-centric families — asks for a neighbour's vote only when
//!   the entity's own does not already decide the edge. Rows and votes
//!   come from the incremental session's patched row cache
//!   ([`IncrementalSession::resolve_entity`](crate::IncrementalSession::resolve_entity)),
//!   which draws a row's vote from the row where it lies at most once per
//!   corpus version and family, and copies no neighbour's row.
//! * The *global* inputs a family needs — WEP's mean threshold, CEP's
//!   global top-k, CNP's default `k`, the supervised extractor's
//!   normalisation maxima — are reduced once per corpus version into the
//!   rule's criterion and reused by every resolve, which is what keeps a
//!   query sub-linear: the criterion, like the neighbours' votes,
//!   amortises across the requests of one version.
//! * [`NeighbourhoodCache`] memoises whole [`ResolvedEntity`] answers
//!   for the hot entities of a skewed query mix, with invalidation
//!   driven by the dirty-entity sets
//!   [`IncrementalSession::ingest`](crate::IncrementalSession::ingest)
//!   reports (see [`locally_invalidatable`] for when that is sound).
//!
//! Bit-identity is the contract, not an aspiration: for every scheme ×
//! pruning family × worker count, `resolve_entity(e).matches` equals the
//! pairs incident to `e` in the outcome of a batch [`Session::run`]
//! over the same arrived descriptions, same order, same f64 bits
//! (`tests/resolve_entity.rs`).
//!
//! [`Session::run`]: crate::Session::run

use crate::incremental::RowCache;
use crate::prune::{self, WeightedPair};
use crate::rule::{elects, normalised, Criterion, Entry, RowBuf, Rule};
use crate::session::Pruning;
use crate::weights::WeightingScheme;
use minoan_rdf::EntityId;
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

/// Resolves one entity under a prebuilt criterion: the edges incident to
/// `entity` that a full run would keep. `own` receives the entity's full
/// row from `rows` (the session's reusable scratch). The entity's own row
/// decides what a full run's sweep of `entity` would decide; for the
/// node-centric families the rule's vote combiner then asks for the
/// *other* endpoint's vote only when it can still change the outcome
/// (union: the entity voted no; reciprocal: it voted yes), and
/// [`RowCache::vote`] answers it from the neighbour's row where it lies,
/// drawn at most once per generation. Edge weights are bitwise
/// endpoint-symmetric — both endpoints' sweeps produce the identical
/// f64 — so the entity's copy of the weight is the one the neighbour's
/// ballot is asked about, and the one reported.
pub(crate) fn resolve_rows(
    rows: &mut RowCache<'_>,
    own: &mut RowBuf,
    entity: EntityId,
    rule: Rule<'_>,
) -> ResolvedEntity {
    let e = entity.0;
    rows.load_row(e, own);
    let row = own.row(e);
    let neighbours: Vec<u32> = row.entries.iter().map(|entry| entry.y).collect();
    let mut matches = Vec::new();
    if let Criterion::Cep(pairs) = rule.criterion {
        // The criterion is the outcome, already in presentation order.
        matches.extend(pairs.iter().filter(|p| p.a == entity || p.b == entity));
    } else if let Some(reciprocal) = rule.votes() {
        let ballot = rule.ballot(row);
        for &Entry { y, w, .. } in row.entries {
            if w <= 0.0 {
                continue;
            }
            let other = || rows.vote(y, rule).admits(y, e, w);
            if elects(reciprocal, ballot.admits(e, y, w), other) {
                matches.push(normalised(e, y, w));
            }
        }
    } else {
        for (i, &Entry { y, .. }) in row.entries.iter().enumerate() {
            if let Some(w) = rule.edge_keep(row, i) {
                matches.push(normalised(e, y, w));
            }
        }
    }
    // The unpruned outcome stays in ascending pair order, and the
    // ascending row yields exactly its incident slice: every `(y, e)`
    // with `y < e` sorts before every `(e, y)`. Everything else is
    // presented; sorting the incident subset with the same strict
    // comparator reproduces the full outcome's slice.
    if !matches!(rule.pruning, Pruning::None | Pruning::Cep(_)) {
        prune::present(&mut matches);
    }
    ResolvedEntity {
        entity,
        matches,
        neighbours,
    }
}

/// Whether a cached [`ResolvedEntity`] under `scheme` × `pruning` can be
/// kept across an ingest by invalidating only the entries whose
/// dependency sets intersect the ingest's dirty entities — or whether
/// every cached answer must be dropped.
///
/// The per-entry invalidation is sound exactly when a batch can only
/// change answers through the rows of the entities the session reports
/// in [`IncrementalSession::last_dirty`](crate::IncrementalSession::last_dirty):
///
/// * the **scheme** must be delta-local — CBS, JS or ARCS, decided once
///   by the crate-internal `WeightingScheme::is_delta_local`
///   (`weights.rs`, which says why): every changed edge has a dirty
///   endpoint. Its other endpoint's row changes too, and that entity need
///   not be dirty: under JS a grown `z`'s new block count re-weighs the
///   edge `(y, z)` in a neighbour `y`'s row — moving `y`'s WNP bar —
///   though no block `y` sits in changed. The session's JS report adds
///   every grown entity's neighbours for that reason, so the report names
///   every changed row and invalidates every entry depending on one;
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
    scheme.is_delta_local()
        && matches!(
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
/// belongs to an entity of the session's
/// [`last_dirty`](crate::IncrementalSession::last_dirty) report: a new
/// edge `(e, z)` requires a shared touched block, which makes `e` itself
/// dirty, and under JS a weight `(y, z)` that `z`'s grown block count
/// moved puts `y` in the report, dirty or not. So when
/// [`locally_invalidatable`] holds, `deps ∩ last_dirty = ∅` proves the
/// cached answer is still bit-identical to a fresh resolve — that is what
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
    /// The caller counts hits and misses (the resolution service reports
    /// its own in `STATS`).
    pub fn get(&mut self, entity: EntityId) -> Option<&ResolvedEntity> {
        let entry = self.entries.get_mut(&entity.0)?;
        self.tick += 1;
        entry.stamp = self.tick;
        Some(&entry.value)
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
        for e in 0..4 {
            c.insert(resolved(e, &[e + 1]));
            assert!(c.is_empty(), "a disabled cache admits nothing");
        }
        for e in 0..5 {
            assert!(c.get(EntityId(e)).is_none(), "get({e}) on a disabled cache");
        }
        assert_eq!(c.invalidate(&[EntityId(1)]), 0);
        assert_eq!(c.len(), 0);
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
