//! Incremental (streaming) entity resolution over the updatable blocking
//! slabs.
//!
//! The Web of Data is not static: KBs publish descriptions continuously,
//! and a pay-as-you-go platform must fold new descriptions into the
//! resolved state without re-running the batch pipeline. This module is
//! the matching half of that mode; the blocking half is
//! [`minoan_blocking::IncrementalCollection`] (the delta-appendable token
//! index shared with `minoan_metablocking::IncrementalSession`, the
//! delta-sweep meta-blocking session). Each arrival
//!
//! 1. is absorbed into the incremental collection — its key run, read off
//!    the universe's value-token [`Corpus`] (the one the matcher can be
//!    built from too, see [`IncrementalResolver::from_corpus`]), is
//!    delta-merged into the per-key sorted member slabs (no private
//!    inverted index, and no tokenising or interning per arrival),
//! 2. generates candidates among the *already arrived* descriptions by
//!    counting block co-occurrences (incremental CBS weighting), skipping
//!    blocks of more than [`MAX_TOKEN_FREQUENCY`] other arrivals and
//!    keeping the top [`MAX_CANDIDATES`] — the co-occurrence list is
//!    collected from the sorted member slabs and reduced by run-length
//!    counting, so candidate order never depends on hash-map iteration,
//! 3. compares the top candidates best-first under a per-arrival budget
//!    ([`IncrementalConfig`], the one thing a caller sets besides unique
//!    mapping),
//! 4. records matches into the shared cluster state and propagates
//!    neighbour evidence at strength [`ALPHA`] like the batch update
//!    phase; each pair's accumulated evidence is kept as its contribution
//!    list and reduced with a fixed-shape pairwise sum, so a pair's boost
//!    does not depend on the order matches were found in.
//!
//! The resolver is clean–clean only: a candidate must come from another
//! KB, so on a single dirty KB it finds nothing. Its answer is its own,
//! not a batch run's: `tests/spec_anchors.rs` pins it, per arrival order
//! and batch size, as golden digests, and `tests/incremental_vs_batch.rs`
//! and the E11 experiment measure how close it comes to the batch one.
//!
//! ```
//! use minoan_datagen::{generate, profiles};
//! use minoan_er::incremental::{IncrementalConfig, IncrementalResolver};
//! use minoan_er::matcher::{Matcher, MatcherConfig};
//!
//! let g = generate(&profiles::center_dense(80, 7));
//! let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
//! let mut inc = IncrementalResolver::new(&g.dataset, &matcher, IncrementalConfig::default());
//! let ids: Vec<_> = g.dataset.entities().collect();
//! for batch in ids.chunks(8) {
//!     inc.arrive_batch(batch);
//! }
//! assert_eq!(inc.arrived_count(), g.dataset.len());
//! assert!(!inc.matches().is_empty());
//! ```

use crate::benefit::ResolutionState;
use crate::clustering::{kbs, UniqueMapping};
use crate::matcher::Matcher;
use minoan_blocking::builders::TokenKeys;
use minoan_blocking::{Corpus, ErMode, IncrementalCollection};
use minoan_common::stats::pairwise_sum;
use minoan_common::{FxHashMap, FxHashSet};
use minoan_rdf::{Dataset, EntityId};
use minoan_similarity::JaroScratch;
use std::sync::Arc;

/// Maximum candidates generated per arrival (top by common blocks).
///
/// This pool and [`IncrementalConfig`]'s default budget come from a
/// 50k-entity calibration sweep recorded when the resolver was added
/// (center-profile world, default matcher) — numbers on record, not the
/// output of a harness one can run: per-arrival comparison budgets above
/// ~8 and candidate pools above ~24 stopped improving recall (< 0.5 % per
/// doubling) while comparisons grew linearly, so both sit at the knee
/// with one notch of headroom.
pub const MAX_CANDIDATES: usize = 32;

/// Blocks holding more than this many *other* arrived descriptions are
/// skipped (stop-token guard, the incremental analogue of block purging).
pub const MAX_TOKEN_FREQUENCY: usize = 64;

/// Neighbour-propagation strength: a match with score `s` adds
/// `ALPHA·s`, damped, to each linked pair's evidence.
pub const ALPHA: f64 = 0.4;

/// Configuration of the incremental resolver (see the calibration note
/// on [`MAX_CANDIDATES`] for where the default budget comes from).
#[derive(Clone, Copy, Debug)]
pub struct IncrementalConfig {
    /// Maximum candidates compared best-first per arrival. Each match
    /// they make may re-check up to 8 linked pairs beyond it.
    pub budget_per_arrival: u64,
    /// In clean–clean data, an arrived entity matches at most one
    /// description per other KB.
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

/// What one arrival did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ArrivalReport {
    /// Candidates generated for the newcomer.
    pub candidates: usize,
    /// Comparisons executed, the re-checks of pairs its matches linked
    /// included.
    pub comparisons: u64,
    /// Matches accepted `(other, score)` — the newcomer is implicit.
    pub matches: Vec<(EntityId, f64)>,
}

impl ArrivalReport {
    fn add(&mut self, r: ArrivalReport) {
        self.candidates += r.candidates;
        self.comparisons += r.comparisons;
        self.matches.extend(r.matches);
    }
}

/// The incremental resolver.
///
/// Borrows the full dataset (the universe descriptions are drawn from) but
/// only ever *sees* the descriptions that have arrived.
pub struct IncrementalResolver<'d> {
    dataset: &'d Dataset,
    matcher: &'d Matcher,
    config: IncrementalConfig,
    state: ResolutionState<'d>,
    /// The updatable blocking index: per-key sorted member slabs,
    /// delta-appended per arrival.
    blocks: IncrementalCollection<'d>,
    mapping: UniqueMapping,
    matches: Vec<(EntityId, EntityId, f64)>,
    total_comparisons: u64,
    /// Pending neighbour evidence from matches: pair → contribution
    /// list, reduced by pairwise sum when read (keyed lookups only — the
    /// map is never iterated, so no hash-order dependence).
    evidence: FxHashMap<(EntityId, EntityId), Vec<f64>>,
    /// Reusable co-occurrence scratch for candidate generation.
    occs: Vec<EntityId>,
    /// Working memory of the matcher's name component.
    jaro: JaroScratch,
}

impl<'d> IncrementalResolver<'d> {
    /// [`Self::from_corpus`] over a value-token corpus of `dataset` built
    /// on all available workers.
    pub fn new(dataset: &'d Dataset, matcher: &'d Matcher, config: IncrementalConfig) -> Self {
        let corpus = Corpus::new(dataset, TokenKeys::Values, minoan_common::default_threads());
        Self::from_corpus(Arc::new(corpus), matcher, config)
    }

    /// Creates an empty resolver over the dataset of `corpus`, a
    /// [`TokenKeys::Values`] corpus — the one `matcher` was built from,
    /// say ([`Matcher::from_corpus`](crate::Matcher::from_corpus)).
    pub fn from_corpus(
        corpus: Arc<Corpus<'d>>,
        matcher: &'d Matcher,
        config: IncrementalConfig,
    ) -> Self {
        let dataset = corpus.dataset();
        Self {
            dataset,
            matcher,
            config,
            state: ResolutionState::new(dataset),
            blocks: IncrementalCollection::from_corpus(corpus, ErMode::CleanClean),
            mapping: UniqueMapping::new(config.unique_mapping),
            matches: Vec::new(),
            total_comparisons: 0,
            evidence: FxHashMap::default(),
            occs: Vec::new(),
            jaro: JaroScratch::default(),
        }
    }

    /// Number of descriptions that have arrived.
    pub fn arrived_count(&self) -> usize {
        self.blocks.num_arrived()
    }

    /// All accepted matches so far, in acceptance order.
    pub fn matches(&self) -> &[(EntityId, EntityId, f64)] {
        &self.matches
    }

    /// Total comparisons executed so far.
    pub fn comparisons(&self) -> u64 {
        self.total_comparisons
    }

    /// Final clusters (≥ 2 members) of the current state.
    pub fn clusters(&mut self) -> Vec<Vec<u32>> {
        self.state.final_clusters(2)
    }

    /// Processes the arrival of `e`. Arriving twice is a no-op.
    pub fn arrive(&mut self, e: EntityId) -> ArrivalReport {
        if self.blocks.has_arrived(e) {
            return ArrivalReport::default();
        }
        self.blocks.absorb(&[e]);
        self.resolve_arrival(e)
    }

    /// Processes a batch of arrivals: the whole batch is absorbed into
    /// the blocking slabs first (one delta-merge instead of one per
    /// entity), then each member is resolved in order — so same-batch
    /// co-occurrences are already visible as candidates. Already-arrived
    /// members and repeats *within* the batch are dropped silently, like
    /// [`Self::arrive`]; the set below is membership-only (never
    /// iterated), so resolution keeps first-occurrence batch order.
    pub fn arrive_batch(&mut self, batch: &[EntityId]) -> ArrivalReport {
        let mut seen: FxHashSet<EntityId> = FxHashSet::default();
        let fresh: Vec<EntityId> = batch
            .iter()
            .copied()
            .filter(|&e| !self.blocks.has_arrived(e) && seen.insert(e))
            .collect();
        self.blocks.absorb(&fresh);
        let mut total = ArrivalReport::default();
        for &e in &fresh {
            total.add(self.resolve_arrival(e));
        }
        total
    }

    /// Processes a stream of arrivals one by one.
    pub fn arrive_all(&mut self, entities: impl IntoIterator<Item = EntityId>) -> ArrivalReport {
        let mut total = ArrivalReport::default();
        for e in entities {
            total.add(self.arrive(e));
        }
        total
    }

    /// Candidate generation and budgeted matching for one just-absorbed
    /// entity.
    fn resolve_arrival(&mut self, e: EntityId) -> ArrivalReport {
        // --- Candidate generation: block co-occurrence counting ----------
        // Collect the comparable co-members of the newcomer's blocks from
        // the sorted slabs, then reduce duplicates by run-length counting:
        // candidates come out ordered, with no hash map in the path.
        let mut occs = std::mem::take(&mut self.occs);
        occs.clear();
        for &s in self.blocks.entity_keys(e) {
            let members = self.blocks.key_members(s);
            if members.is_empty() || members.len() - 1 > MAX_TOKEN_FREQUENCY {
                continue; // unblocked or stop token
            }
            occs.extend(
                members
                    .iter()
                    .copied()
                    .filter(|&o| o != e && self.comparable(e, o)),
            );
        }
        occs.sort_unstable();
        let mut candidates: Vec<(EntityId, f64)> = Vec::new();
        let mut i = 0usize;
        while i < occs.len() {
            let other = occs[i];
            let mut j = i + 1;
            while j < occs.len() && occs[j] == other {
                j += 1;
            }
            let cbs = (j - i) as u32;
            let boost = self.boost_of(pair_key(e, other));
            candidates.push((other, cbs as f64 + boost * 100.0));
            i = j;
        }
        self.occs = occs;
        candidates.sort_by(|x, y| {
            y.1.partial_cmp(&x.1)
                .expect("candidate scores are finite: cbs counts plus bounded boost")
                .then(x.0.cmp(&y.0))
        });
        candidates.truncate(MAX_CANDIDATES);

        // --- Budgeted best-first matching --------------------------------
        let mut report = ArrivalReport {
            candidates: candidates.len(),
            ..Default::default()
        };
        // Re-checks are reported but do not count against the budget.
        let mut budgeted = 0;
        for &(other, _) in &candidates {
            if budgeted >= self.config.budget_per_arrival {
                break;
            }
            if self.state.same_cluster(e, other) || self.refuses(e, other) {
                continue;
            }
            budgeted += 1;
            report.comparisons += 1;
            self.total_comparisons += 1;
            let value = self.matcher.value_similarity(e, other, &mut self.jaro);
            let boost = self.boost_of(pair_key(e, other));
            let score = self.matcher.composite(value, boost);
            if self.matcher.is_match(value, score) {
                self.state.record_match(e, other);
                self.matches.push((e.min(other), e.max(other), score));
                report.matches.push((other, score));
                self.mapping.map(e, other, kbs(self.dataset, e, other));
                report.comparisons += self.propagate(e, other, score);
                if self.config.unique_mapping {
                    // The newcomer may still match entities of *other* KBs;
                    // keep scanning.
                    continue;
                }
            }
        }
        report
    }

    /// Accumulated neighbour-evidence boost of a pair — a fixed-shape
    /// pairwise reduction of its contribution list, independent of the
    /// order the contributions arrived in.
    fn boost_of(&self, key: (EntityId, EntityId)) -> f64 {
        self.evidence
            .get(&key)
            .map(|contributions| pairwise_sum(contributions))
            .unwrap_or(0.0)
    }

    /// Stores neighbour evidence for the pairs linked to a fresh match; if
    /// the counterpart pair has already arrived it will be found at its
    /// next arrival-driven comparison (or immediately, when both ends have
    /// arrived, via a direct budgeted re-check). Returns the re-checks run.
    fn propagate(&mut self, a: EntityId, b: EntityId, score: f64) -> u64 {
        const CAP: usize = 8;
        let na = self.dataset.neighbors(a);
        let nb = self.dataset.neighbors(b);
        let damp = (((na.len().min(CAP) * nb.len().min(CAP)) as f64).sqrt() / 2.0).max(1.0);
        let delta = ALPHA * score / damp;
        if delta < 0.02 {
            return 0;
        }
        let mut recheck: Vec<(EntityId, EntityId)> = Vec::new();
        for &x in na.iter().take(CAP) {
            for &y in nb.iter().take(CAP) {
                if x == y || !self.comparable(x, y) {
                    continue;
                }
                let key = pair_key(x, y);
                self.evidence.entry(key).or_default().push(delta);
                if self.blocks.has_arrived(x) && self.blocks.has_arrived(y) {
                    recheck.push(key);
                }
            }
        }
        // Immediate re-check of fully-arrived influenced pairs (bounded).
        let mut comparisons = 0;
        for (x, y) in recheck.into_iter().take(CAP) {
            if self.state.same_cluster(x, y) || self.refuses(x, y) {
                continue;
            }
            comparisons += 1;
            self.total_comparisons += 1;
            let value = self.matcher.value_similarity(x, y, &mut self.jaro);
            let boost = self.boost_of((x, y));
            let score = self.matcher.composite(value, boost);
            if self.matcher.is_match(value, score) {
                self.state.record_match(x, y);
                self.matches.push((x.min(y), x.max(y), score));
                self.mapping.map(x, y, kbs(self.dataset, x, y));
            }
        }
        comparisons
    }

    fn comparable(&self, a: EntityId, b: EntityId) -> bool {
        a != b && self.dataset.kb_of(a) != self.dataset.kb_of(b)
    }

    fn refuses(&self, a: EntityId, b: EntityId) -> bool {
        self.mapping.refuses(a, b, kbs(self.dataset, a, b))
    }
}

#[inline]
fn pair_key(a: EntityId, b: EntityId) -> (EntityId, EntityId) {
    (a.min(b), a.max(b))
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
        let (precision, recall) = quality(&g, inc.matches());
        assert!(precision > 0.9, "precision {precision}");
        assert!(recall > 0.6, "recall {recall}");
        assert!(!inc.clusters().is_empty());
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
        let bits = |r: &IncrementalResolver<'_>| -> Vec<(EntityId, EntityId, u64)> {
            r.matches()
                .iter()
                .map(|&(a, b, s)| (a, b, s.to_bits()))
                .collect()
        };
        for _ in 0..2 {
            let mut shared =
                IncrementalResolver::from_corpus(Arc::clone(&corpus), &matcher, config);
            shared.arrive_all(g.dataset.entities());
            assert!(!shared.matches().is_empty());
            assert_eq!(bits(&shared), bits(&alone));
            assert_eq!(shared.comparisons(), alone.comparisons());
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
        let (_, recall_fwd) = quality(&g, fwd.matches());
        let (_, recall_rev) = quality(&g, rev.matches());
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
        let (_, recall_streamed) = quality(&g, streamed.matches());
        let (precision_batched, recall_batched) = quality(&g, batched.matches());
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
        let before = inc.comparisons();
        let r = inc.arrive(e);
        assert_eq!(r, ArrivalReport::default());
        assert_eq!(inc.comparisons(), before);
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
        // Each match may re-check 8 linked pairs beyond the budget.
        let mut inc = IncrementalResolver::new(&g.dataset, &matcher, config);
        let mut at_budget = false;
        for e in g.dataset.entities() {
            let r = inc.arrive(e);
            let bound = 3 + 8 * r.matches.len() as u64;
            assert!(r.comparisons <= bound, "arrival exceeded budget: {r:?}");
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
        for (a, b, _) in inc.matches() {
            assert!(
                seen.insert((a.0, g.dataset.kb_of(*b).0)),
                "{a:?} double-matched"
            );
            assert!(
                seen.insert((b.0, g.dataset.kb_of(*a).0)),
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
        assert_eq!(inc.comparisons(), 0);
        assert!(inc.matches().is_empty());
        assert!(inc.clusters().is_empty());
    }
}
