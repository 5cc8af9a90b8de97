//! Incremental (streaming) entity resolution: the arrival driver of the
//! engine's progressive loop.
//!
//! KBs publish descriptions continuously. Each batch of arrivals is
//! absorbed into an [`IncrementalCollection`] over the universe's
//! value-token [`Corpus`]; its fresh members' candidates are seeded into
//! the batch engine's own loop ([`crate::engine`]: its pool, schedule,
//! update phase and constants) as one seeding event, and the loop runs for
//! a slice of comparisons. Four choices are made here, each in one
//! sentence that `tests/common/resolve_spec.rs` repeats:
//! 1. A fresh arrival's candidates are its co-members from other KBs in
//!    its blocks among the arrived descriptions, skipping blocks with more
//!    than [`MAX_TOKEN_FREQUENCY`] other arrivals, weighted by their count
//!    of common blocks, ranked by that count and then by id, and cut to
//!    the top [`MAX_CANDIDATES`].
//! 2. Priors are normalised per seeding event.
//! 3. A batch of `k` fresh arrivals runs the loop for `k ×
//!    budget_per_arrival` more comparisons, and pairs left queued stay
//!    queued for later slices.
//! 4. A pair with an endpoint that has not arrived still gains evidence but
//!    is not queued; the seeding event of its later endpoint's arrival
//!    queues it.
//!
//! The resolver is clean–clean only: a candidate must come from another
//! KB. Fed every entity in one batch at an unbounded budget, it is the
//! batch loop over the `(a, b, cbs)` list it seeds, bit for bit.
//!
//! ```
//! use minoan_datagen::{generate, profiles};
//! use minoan_er::{IncrementalConfig, IncrementalResolver, Matcher, MatcherConfig};
//!
//! let g = generate(&profiles::center_dense(80, 7));
//! let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
//! let mut inc = IncrementalResolver::new(&g.dataset, &matcher, IncrementalConfig::default());
//! inc.arrive_all(g.dataset.entities());
//! assert!(!inc.resolution().matches.is_empty());
//! ```

use crate::engine::{Progress, Resolution, ResolverConfig};
use crate::Matcher;
use minoan_blocking::{builders::TokenKeys, Corpus, ErMode, IncrementalCollection};
use minoan_common::FxHashSet;
use minoan_rdf::{Dataset, EntityId};
use std::sync::Arc;

/// Maximum candidates generated per arrival (top by common blocks). It and
/// the default budget sit a notch above the knee (~24, ~8) of a 50k-entity
/// calibration sweep on record (center profile), not a harness to rerun.
pub const MAX_CANDIDATES: usize = 32;

/// Blocks holding more than this many *other* arrived descriptions are
/// skipped (stop-token guard, the incremental analogue of block purging).
pub const MAX_TOKEN_FREQUENCY: usize = 64;

/// Configuration of the incremental resolver (see the calibration note
/// on [`MAX_CANDIDATES`] for where the default budget comes from).
#[derive(Clone, Copy, Debug)]
pub struct IncrementalConfig {
    /// Comparisons per fresh arrival: a batch of `k` runs the loop for a
    /// hard slice of `k ×` this many.
    pub budget_per_arrival: u64,
    /// In clean–clean data, an entity matches at most one description per
    /// other KB.
    pub unique_mapping: bool,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        Self {
            budget_per_arrival: 10,
            unique_mapping: true,
        }
    }
}

/// What one batch of arrivals did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ArrivalReport {
    /// Candidates seeded for the fresh arrivals.
    pub candidates: usize,
    /// Comparisons the slice ran.
    pub comparisons: u64,
    /// Matches the slice accepted, `(a, b, score)`, older pairs included.
    pub matches: Vec<(EntityId, EntityId, f64)>,
}

/// The incremental resolver: borrows the whole dataset (the universe
/// descriptions are drawn from) but only *sees* those that have arrived.
pub struct IncrementalResolver<'d> {
    config: IncrementalConfig,
    /// The updatable blocking index: per-key sorted member slabs,
    /// delta-appended per arrival.
    blocks: IncrementalCollection<'d>,
    /// The engine's loop, seeded and run once per batch.
    progress: Progress<'d>,
    /// Reusable co-occurrence scratch for candidate generation.
    occs: Vec<EntityId>,
}

impl<'d> IncrementalResolver<'d> {
    /// [`Self::from_corpus`] over a value-token corpus on every worker.
    pub fn new(dataset: &'d Dataset, matcher: &'d Matcher, config: IncrementalConfig) -> Self {
        let corpus = Corpus::new(dataset, TokenKeys::Values, minoan_common::default_threads());
        Self::from_corpus(Arc::new(corpus), matcher, config)
    }

    /// An empty resolver over the dataset of `corpus`, a [`TokenKeys::Values`]
    /// corpus — the one `matcher` was built from, say.
    pub fn from_corpus(
        corpus: Arc<Corpus<'d>>,
        matcher: &'d Matcher,
        config: IncrementalConfig,
    ) -> Self {
        let engine = ResolverConfig {
            unique_mapping: config.unique_mapping,
            ..ResolverConfig::default()
        };
        Self {
            config,
            progress: Progress::new(corpus.dataset(), matcher, &engine),
            blocks: IncrementalCollection::from_corpus(corpus, ErMode::CleanClean),
            occs: Vec::new(),
        }
    }

    /// Number of descriptions that have arrived.
    pub fn arrived_count(&self) -> usize {
        self.blocks.num_arrived()
    }

    /// The resolution so far, as a batch run reports one.
    pub fn resolution(&mut self) -> Resolution {
        let mut out = self.progress.out.clone();
        out.clusters = self.progress.state.final_clusters(2);
        out
    }

    /// Processes the arrival of `e`. Arriving twice is a no-op.
    pub fn arrive(&mut self, e: EntityId) -> ArrivalReport {
        self.arrive_batch(&[e])
    }

    /// Processes a batch of arrivals: absorbs it into the slabs in one
    /// delta-merge (so same-batch co-occurrences are candidates), seeds its
    /// fresh members' candidates as one event and runs the batch's slice.
    /// Already-arrived members and repeats are dropped silently.
    pub fn arrive_batch(&mut self, batch: &[EntityId]) -> ArrivalReport {
        let mut seen = FxHashSet::default();
        let new = |e: &&EntityId| !self.blocks.has_arrived(**e) && seen.insert(**e);
        let fresh: Vec<EntityId> = batch.iter().filter(new).copied().collect();
        self.blocks.absorb(&fresh);
        let mut seeds = Vec::new();
        for &e in &fresh {
            self.candidates(e, &mut seeds);
        }
        let (done, found) = (
            self.progress.out.comparisons,
            self.progress.out.matches.len(),
        );
        let blocks = &self.blocks;
        self.progress.seed(&seeds, |x| blocks.has_arrived(x));
        let slice = (fresh.len() as u64).saturating_mul(self.config.budget_per_arrival);
        self.progress
            .run(done.saturating_add(slice), |x| blocks.has_arrived(x), None);
        let out = &self.progress.out;
        ArrivalReport {
            candidates: seeds.len(),
            comparisons: out.comparisons - done,
            matches: out.matches[found..].to_vec(),
        }
    }

    /// Processes a stream of arrivals one by one.
    pub fn arrive_all(&mut self, entities: impl IntoIterator<Item = EntityId>) {
        entities.into_iter().for_each(|e| _ = self.arrive(e));
    }

    /// Appends `(e, other, common blocks)` for the candidates of the
    /// just-absorbed `e` (choice 1), counted run by run over the sorted
    /// slabs: no hash map in the path.
    fn candidates(&mut self, e: EntityId, out: &mut Vec<(EntityId, EntityId, f64)>) {
        let kb = |x| self.progress.dataset.kb_of(x);
        self.occs.clear();
        for &s in self.blocks.entity_keys(e) {
            let members = self.blocks.key_members(s);
            if members.len() <= MAX_TOKEN_FREQUENCY + 1 {
                self.occs
                    .extend(members.iter().filter(|&&o| kb(o) != kb(e)));
            }
        }
        self.occs.sort_unstable();
        let start = out.len();
        let runs = self.occs.chunk_by(|x, y| x == y);
        out.extend(runs.map(|run| (e, run[0], run.len() as f64)));
        // Stable: ties stay by id.
        out[start..].sort_by(|x, y| y.2.total_cmp(&x.2));
        out.truncate(start + MAX_CANDIDATES);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::MatcherConfig;
    use minoan_datagen::{generate, profiles, GeneratedWorld};
    use minoan_rdf::DatasetBuilder;

    fn world() -> GeneratedWorld {
        generate(&profiles::center_dense(200, 71))
    }

    fn quality(g: &GeneratedWorld, matches: &[(EntityId, EntityId, f64)]) -> (f64, f64) {
        if matches.is_empty() {
            return (0.0, 0.0);
        }
        let tp = matches
            .iter()
            .filter(|(a, b, _)| g.truth.is_match(*a, *b))
            .count() as f64;
        (
            tp / matches.len() as f64,
            tp / g.truth.matching_pairs() as f64,
        )
    }

    #[test]
    fn streaming_resolution_reaches_batch_like_quality() {
        let g = world();
        let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
        let mut inc = IncrementalResolver::new(&g.dataset, &matcher, IncrementalConfig::default());
        inc.arrive_all(g.dataset.entities());
        let res = inc.resolution();
        let (precision, recall) = quality(&g, &res.matches);
        assert!(precision > 0.9, "precision {precision}");
        assert!(recall > 0.6, "recall {recall}");
        assert!(!res.clusters.is_empty());
    }

    /// One corpus, read by the matcher and two resolvers at a worker
    /// count of its own, changes no bit of what each resolver finds.
    #[test]
    fn a_shared_corpus_gives_the_standalone_resolvers_matches() {
        let g = world();
        let config = IncrementalConfig::default();
        let own = Matcher::new(&g.dataset, MatcherConfig::default());
        let mut alone = IncrementalResolver::new(&g.dataset, &own, config);
        alone.arrive_all(g.dataset.entities());
        let corpus = Arc::new(Corpus::new(&g.dataset, TokenKeys::Values, 3));
        let matcher = Matcher::from_corpus(&corpus, MatcherConfig::default());
        let bits = |r: &mut IncrementalResolver<'_>| {
            let res = r.resolution();
            let matches = res.matches.iter().map(|&(a, b, s)| (a, b, s.to_bits()));
            (matches.collect::<Vec<_>>(), res.comparisons)
        };
        for _ in 0..2 {
            let mut shared =
                IncrementalResolver::from_corpus(Arc::clone(&corpus), &matcher, config);
            shared.arrive_all(g.dataset.entities());
            let (matches, comparisons) = bits(&mut shared);
            assert!(!matches.is_empty());
            assert_eq!((matches, comparisons), bits(&mut alone));
        }
    }

    #[test]
    fn arrival_order_invariance_of_quality() {
        let g = world();
        let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
        // Forward order.
        let mut fwd = IncrementalResolver::new(&g.dataset, &matcher, IncrementalConfig::default());
        fwd.arrive_all(g.dataset.entities());
        // Reverse order.
        let mut rev = IncrementalResolver::new(&g.dataset, &matcher, IncrementalConfig::default());
        let mut order: Vec<EntityId> = g.dataset.entities().collect();
        order.reverse();
        rev.arrive_all(order);
        let (_, recall_fwd) = quality(&g, &fwd.resolution().matches);
        let (_, recall_rev) = quality(&g, &rev.resolution().matches);
        assert!(
            (recall_fwd - recall_rev).abs() < 0.15,
            "order should not change quality much: {recall_fwd} vs {recall_rev}"
        );
    }

    #[test]
    fn batched_arrivals_match_streamed_quality() {
        let g = world();
        let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
        let mut streamed =
            IncrementalResolver::new(&g.dataset, &matcher, IncrementalConfig::default());
        streamed.arrive_all(g.dataset.entities());
        let mut batched =
            IncrementalResolver::new(&g.dataset, &matcher, IncrementalConfig::default());
        let ids: Vec<EntityId> = g.dataset.entities().collect();
        for batch in ids.chunks(25) {
            batched.arrive_batch(batch);
        }
        assert_eq!(batched.arrived_count(), g.dataset.len());
        let (_, recall_streamed) = quality(&g, &streamed.resolution().matches);
        let (precision_batched, recall_batched) = quality(&g, &batched.resolution().matches);
        assert!(precision_batched > 0.9, "precision {precision_batched}");
        assert!(
            (recall_streamed - recall_batched).abs() < 0.15,
            "batching should not change quality much: {recall_streamed} vs {recall_batched}"
        );
    }

    #[test]
    fn double_arrival_is_noop() {
        let g = world();
        let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
        let mut inc = IncrementalResolver::new(&g.dataset, &matcher, IncrementalConfig::default());
        let e = EntityId(0);
        inc.arrive(e);
        let before = inc.resolution().comparisons;
        let r = inc.arrive(e);
        assert_eq!(r, ArrivalReport::default());
        assert_eq!(inc.resolution().comparisons, before);
        assert_eq!(inc.arrived_count(), 1);
        // Batches silently drop already-arrived members too.
        let r = inc.arrive_batch(&[e]);
        assert_eq!(r, ArrivalReport::default());
        assert_eq!(inc.arrived_count(), 1);
    }

    #[test]
    fn duplicates_within_a_batch_are_dropped() {
        let g = world();
        let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
        let mut inc = IncrementalResolver::new(&g.dataset, &matcher, IncrementalConfig::default());
        // The same not-yet-arrived entity repeated in one batch must be
        // absorbed once, not trip the slab delta-merge's arrived assert.
        let (a, b) = (EntityId(0), EntityId(1));
        inc.arrive_batch(&[a, a, b, a]);
        assert_eq!(inc.arrived_count(), 2);
        // Repeats of already-arrived members stay a silent no-op too.
        let r = inc.arrive_batch(&[a, b, b]);
        assert_eq!(r, ArrivalReport::default());
        assert_eq!(inc.arrived_count(), 2);
    }

    #[test]
    fn budget_per_arrival_is_respected() {
        let g = world();
        let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
        let config = IncrementalConfig {
            budget_per_arrival: 3,
            ..Default::default()
        };
        let mut inc = IncrementalResolver::new(&g.dataset, &matcher, config);
        let mut at_budget = false;
        for e in g.dataset.entities() {
            let r = inc.arrive(e);
            assert!(r.comparisons <= 3, "arrival exceeded its slice: {r:?}");
            at_budget |= r.comparisons == 3;
        }
        assert!(at_budget, "no arrival reached the budget");
    }

    #[test]
    fn unique_mapping_enforced() {
        let g = world();
        let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
        let mut inc = IncrementalResolver::new(&g.dataset, &matcher, IncrementalConfig::default());
        inc.arrive_all(g.dataset.entities());
        let mut seen: FxHashSet<(u32, u16)> = FxHashSet::default();
        for (a, b, _) in inc.resolution().matches {
            assert!(
                seen.insert((a.0, g.dataset.kb_of(b).0)),
                "{a:?} double-matched"
            );
            assert!(
                seen.insert((b.0, g.dataset.kb_of(a).0)),
                "{b:?} double-matched"
            );
        }
    }

    /// A block is skipped once more than `MAX_TOKEN_FREQUENCY` *other*
    /// arrived descriptions carry its key: a newcomer sharing one key with
    /// exactly 64 of them gets candidates, one sharing a key with 65 gets
    /// none.
    #[test]
    fn stop_tokens_are_skipped() {
        let mut b = DatasetBuilder::new();
        let ka = b.add_kb("a", "http://a/");
        let kb = b.add_kb("b", "http://b/");
        for (token, carriers) in [
            ("alpha", MAX_TOKEN_FREQUENCY),
            ("omega", MAX_TOKEN_FREQUENCY + 1),
        ] {
            for i in 0..carriers {
                b.add_literal(kb, &format!("http://b/{token}{i}"), "http://p/label", token);
            }
            b.add_literal(ka, &format!("http://a/{token}"), "http://p/label", token);
        }
        let ds = b.build();
        let matcher = Matcher::new(&ds, MatcherConfig::default());
        let mut inc = IncrementalResolver::new(&ds, &matcher, IncrementalConfig::default());
        inc.arrive_all(ds.entities().filter(|&e| ds.kb_of(e) == kb));
        let newcomer = |uri| ds.entity_by_uri(uri).expect("added above");
        let below = inc.arrive(newcomer("http://a/alpha"));
        assert_eq!(below.candidates, MAX_CANDIDATES);
        let above = inc.arrive(newcomer("http://a/omega"));
        assert_eq!(above.candidates, 0);
    }

    #[test]
    fn empty_resolver_state() {
        let g = world();
        let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
        let mut inc = IncrementalResolver::new(&g.dataset, &matcher, IncrementalConfig::default());
        assert_eq!(inc.arrived_count(), 0);
        let res = inc.resolution();
        assert_eq!(res.comparisons, 0);
        assert!(res.matches.is_empty() && res.clusters.is_empty());
    }
}
