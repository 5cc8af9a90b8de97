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
//!   for the hot entities of a skewed query mix, at one corpus version:
//!   whoever ingests clears it.
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
}

/// Resolves one entity under a prebuilt criterion: the edges incident to
/// `entity` that a full run would keep. `own` receives the entity's full
/// row from `rows`; `kept` collects and orders the answer, which leaves
/// as one copy at its final length (both are the session's reusable
/// scratch). The entity's own row decides what a full run's sweep of
/// `entity` would decide; for the node-centric families the rule's vote
/// combiner then asks for the *other* endpoint's vote only when it can
/// still change the outcome (union: the entity voted no; reciprocal: it
/// voted yes), and [`RowCache::vote`] answers it from the neighbour's row
/// where it lies, drawn at most once per generation. Edge weights are
/// bitwise endpoint-symmetric — both endpoints' sweeps produce the
/// identical f64 — so the entity's copy of the weight is the one the
/// neighbour's ballot is asked about, and the one reported.
pub(crate) fn resolve_rows(
    rows: &mut RowCache<'_>,
    own: &mut RowBuf,
    kept: &mut Vec<WeightedPair>,
    entity: EntityId,
    rule: Rule<'_>,
) -> ResolvedEntity {
    let e = entity.0;
    rows.load_row(e, own);
    let row = own.row(e);
    kept.clear();
    if let Criterion::Cep(pairs) = rule.criterion {
        // The criterion is the outcome, already in presentation order.
        kept.extend(pairs.iter().filter(|p| p.a == entity || p.b == entity));
    } else if let Some(reciprocal) = rule.votes() {
        let ballot = rule.ballot(row);
        for &Entry { y, w, .. } in row.entries {
            if w <= 0.0 {
                continue;
            }
            let other = || rows.vote(y, rule).admits(y, e, w);
            if elects(reciprocal, ballot.admits(e, y, w), other) {
                kept.push(normalised(e, y, w));
            }
        }
    } else {
        for (i, &Entry { y, .. }) in row.entries.iter().enumerate() {
            if let Some(w) = rule.edge_keep(row, i) {
                kept.push(normalised(e, y, w));
            }
        }
    }
    // The unpruned outcome stays in ascending pair order, and the
    // ascending row yields exactly its incident slice: every `(y, e)`
    // with `y < e` sorts before every `(e, y)`. Everything else is
    // presented; sorting the incident subset with the same strict
    // comparator reproduces the full outcome's slice.
    if !matches!(rule.pruning, Pruning::None | Pruning::Cep(_)) {
        prune::present(kept);
    }
    ResolvedEntity {
        entity,
        matches: kept.to_vec(),
    }
}

struct CacheEntry {
    value: ResolvedEntity,
    /// Last-touched tick (larger = more recent).
    stamp: u64,
    /// The (possibly older) stamp this entry is filed under in
    /// `NeighbourhoodCache::by_stamp`.
    filed: u64,
}

/// An LRU cache of hot [`ResolvedEntity`] answers.
///
/// **One version**: every entry was computed at the corpus version the
/// cache is read at. The owner clears it at every ingest, so no answer
/// has to be proved unchanged across one.
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
}

impl NeighbourhoodCache {
    /// A cache holding at most `capacity` resolved entities.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            entries: BTreeMap::new(),
            by_stamp: BTreeMap::new(),
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

    /// Looks up a cached answer, refreshing its recency.
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
        self.tick += 1;
        let stamp = self.tick;
        self.by_stamp.insert(stamp, key);
        self.entries.insert(
            key,
            CacheEntry {
                value,
                stamp,
                filed: stamp,
            },
        );
    }

    /// Drops everything: the response to an ingest.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.by_stamp.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolved(e: u32) -> ResolvedEntity {
        ResolvedEntity {
            entity: EntityId(e),
            matches: Vec::new(),
        }
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut c = NeighbourhoodCache::new(2);
        c.insert(resolved(1));
        c.insert(resolved(2));
        assert!(c.get(EntityId(1)).is_some(), "1 is now the most recent");
        c.insert(resolved(3));
        assert_eq!(c.len(), 2);
        assert!(c.get(EntityId(2)).is_none(), "2 was the LRU victim");
        assert!(c.get(EntityId(1)).is_some());
        assert!(c.get(EntityId(3)).is_some());
    }

    /// The stamp index against the definition it replaced — least stamp
    /// over all entries — on a seeded stream of inserts, gets and clears.
    #[test]
    fn eviction_order_matches_the_scanning_definition() {
        const CAPACITY: usize = 8;
        let mut cache = NeighbourhoodCache::new(CAPACITY);
        // The model: entity → last-touched tick.
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        let mut tick = 0u64;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32 % bound
        };
        for step in 0..600 {
            match next(16) {
                0 => {
                    cache.clear();
                    model.clear();
                }
                1..=8 => {
                    let e = next(24);
                    cache.insert(resolved(e));
                    if !model.contains_key(&e) && model.len() >= CAPACITY {
                        let victim = *model
                            .iter()
                            .min_by_key(|(_, stamp)| **stamp)
                            .expect("at capacity")
                            .0;
                        model.remove(&victim);
                    }
                    tick += 1;
                    model.insert(e, tick);
                }
                _ => {
                    let e = next(24);
                    let hit = cache.get(EntityId(e)).is_some();
                    assert_eq!(hit, model.contains_key(&e), "step {step}: get({e})");
                    if let Some(stamp) = model.get_mut(&e) {
                        tick += 1;
                        *stamp = tick;
                    }
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
            c.insert(resolved(e));
            assert!(c.is_empty(), "a disabled cache admits nothing");
        }
        for e in 0..5 {
            assert!(c.get(EntityId(e)).is_none(), "get({e}) on a disabled cache");
        }
    }
}
