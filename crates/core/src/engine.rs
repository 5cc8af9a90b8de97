//! The progressive resolution engine: schedule → match → update, under a
//! cost budget.
//!
//! # Comparison workers
//!
//! A value similarity is a pure function of the pair that the schedule
//! never reads before the pair is compared. So with `threads > 1`,
//! `threads − 1` workers beside the progressive loop fill one slot per
//! candidate: first for the candidates the update phase just discovered,
//! then for the best `min(budget, len)` seeded ones, best first. The loop
//! never waits: it takes a candidate's slot before comparing it and
//! computes the value itself if none is there (a taken slot is skipped).
//! The workers stop when the loop does.
//!
//! **Why no bit can move.** A value has the same bits whoever computes it,
//! and nothing reads when or where it was computed, so trace, matches and
//! clusters are the same at every thread count. One thread spawns nothing
//! and computes every value inline, as the fixed-order strategies do.

use crate::benefit::{BenefitModel, ResolutionState};
use crate::candidates::{CandidateId, CandidatePool};
use crate::clustering::{by_weight_desc, kbs, UniqueMapping};
use crate::matcher::Matcher;
use crate::scheduler::Scheduler;
use crate::trace::{Trace, TraceStep};
use minoan_rdf::{Dataset, EntityId};
use minoan_similarity::JaroScratch;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::Thread;

/// Comparison-ordering strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Strategy {
    /// Candidates in input order (classic batch ER).
    Batch,
    /// Candidates in random order (the naive progressive baseline).
    Random {
        /// Shuffle seed.
        seed: u64,
    },
    /// Candidates by descending meta-blocking prior, computed once — no
    /// update phase (static best-first).
    StaticBestFirst,
    /// The full MinoanER loop: benefit-driven scheduling with neighbour
    /// propagation on every match.
    Progressive(BenefitModel),
}

impl Strategy {
    /// Short name for tables.
    pub fn name(&self) -> String {
        match self {
            Strategy::Batch => "batch".into(),
            Strategy::Random { .. } => "random".into(),
            Strategy::StaticBestFirst => "static-best-first".into(),
            // lint:allow(hot-path-alloc): a table label, built once per run — nowhere near the loop
            Strategy::Progressive(m) => format!("progressive/{}", m.name()),
        }
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct ResolverConfig {
    /// Ordering strategy.
    pub strategy: Strategy,
    /// Maximum number of comparisons (the paper's computational cost
    /// budget). `u64::MAX` = run to exhaustion.
    pub budget: u64,
    /// Propagation strength `α`: a match with score `s` adds `α·s`
    /// neighbour evidence to each linked pair.
    pub alpha: f64,
    /// Evidence increase required before a previously compared pair is
    /// re-scheduled (prevents re-comparison churn).
    pub recompare_margin: f64,
    /// In clean–clean data, consume matched endpoints so an entity matches
    /// at most one description per other KB.
    pub unique_mapping: bool,
}

/// Cap on neighbours examined per endpoint during the update phase.
pub const MAX_NEIGHBORS: usize = 16;

impl Default for ResolverConfig {
    fn default() -> Self {
        Self {
            strategy: Strategy::Progressive(BenefitModel::PairQuantity),
            budget: u64::MAX,
            alpha: 0.5,
            recompare_margin: 0.15,
            unique_mapping: false,
        }
    }
}

/// Output of a resolution run.
#[derive(Debug)]
pub struct Resolution {
    /// Per-comparison trace in execution order.
    pub trace: Trace,
    /// Final clusters with ≥ 2 members (sorted, deterministic).
    pub clusters: Vec<Vec<u32>>,
    /// Accepted matches `(a, b, score)` in acceptance order.
    pub matches: Vec<(EntityId, EntityId, f64)>,
    /// Comparisons executed (= trace length).
    pub comparisons: u64,
    /// Candidates created by the update phase that blocking had missed.
    pub discovered_candidates: usize,
}

/// The resolver: dataset + matcher + configuration.
pub struct ProgressiveResolver<'d> {
    dataset: &'d Dataset,
    matcher: Matcher,
    config: ResolverConfig,
    /// The progressive loop's thread and its comparison workers.
    threads: usize,
}

impl<'d> ProgressiveResolver<'d> {
    /// Creates a resolver whose progressive loop uses all available
    /// parallelism (see the module docs). The matcher must have been built
    /// on the same dataset.
    pub fn new(dataset: &'d Dataset, matcher: Matcher, config: ResolverConfig) -> Self {
        Self::with_threads(dataset, matcher, config, minoan_common::default_threads())
    }

    /// [`Self::new`] on `threads` threads, which change no bit.
    pub(crate) fn with_threads(
        dataset: &'d Dataset,
        matcher: Matcher,
        config: ResolverConfig,
        threads: usize,
    ) -> Self {
        assert!(config.alpha >= 0.0, "alpha must be non-negative");
        assert!(
            config.recompare_margin >= 0.0,
            "margin must be non-negative"
        );
        Self {
            dataset,
            matcher,
            config,
            threads,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Resolves the candidate pairs (meta-blocking output: `(a, b, weight)`).
    pub fn run(&self, pairs: &[(EntityId, EntityId, f64)]) -> Resolution {
        match self.config.strategy {
            Strategy::Progressive(model) => self.run_progressive(pairs, model),
            Strategy::Batch => self.run_fixed_order(pairs.to_vec()),
            Strategy::StaticBestFirst => self.run_fixed_order(by_weight_desc(pairs)),
            Strategy::Random { seed } => {
                let mut shuffled = pairs.to_vec();
                let mut rng = StdRng::seed_from_u64(seed);
                shuffled.shuffle(&mut rng);
                self.run_fixed_order(shuffled)
            }
        }
    }

    /// Fixed-order strategies: no scheduling, no update phase.
    fn run_fixed_order(&self, pairs: Vec<(EntityId, EntityId, f64)>) -> Resolution {
        let mut state = ResolutionState::new(self.dataset);
        let mut trace = self.trace_for(pairs.len());
        let mut matches = Vec::new();
        let mut mapping = UniqueMapping::new(self.config.unique_mapping);
        let mut jaro = JaroScratch::default();
        let mut comparisons = 0u64;
        for (a, b, w) in pairs {
            if comparisons >= self.config.budget {
                break;
            }
            if state.same_cluster(a, b) || mapping.refuses(a, b, kbs(self.dataset, a, b)) {
                continue;
            }
            comparisons += 1;
            let value_sim = self.matcher.value_similarity(a, b, &mut jaro);
            let matched = self.matcher.is_match(value_sim, value_sim);
            trace.push(TraceStep {
                comparison: comparisons,
                a: a.0,
                b: b.0,
                value_similarity: value_sim,
                score: value_sim,
                benefit: w,
                matched,
                discovered: false,
            });
            if matched {
                state.record_match(a, b);
                matches.push((a, b, value_sim));
                mapping.map(a, b, kbs(self.dataset, a, b));
            }
        }
        Resolution {
            clusters: state.final_clusters(2),
            trace,
            matches,
            comparisons,
            discovered_candidates: 0,
        }
    }

    /// The full progressive loop, with `threads − 1` comparison workers
    /// beside it: a value they delivered is taken, any other computed.
    fn run_progressive(
        &self,
        pairs: &[(EntityId, EntityId, f64)],
        model: BenefitModel,
    ) -> Resolution {
        let mut pool = CandidatePool::from_weighted_pairs(pairs);
        let mut state = ResolutionState::new(self.dataset);
        let mut scheduler = Scheduler::seeded(&pool, |id| model.score(&state, pool.get(id)));
        let lookahead = if self.threads > 1 {
            let budget = usize::try_from(self.config.budget).unwrap_or(usize::MAX);
            let best = scheduler.seeded_best_first().take(budget);
            Lookahead {
                slots: (0..pool.capacity())
                    .map(|_| AtomicU64::new(EMPTY))
                    .collect(),
                seeded: best.map(|id| pending(&pool, id)).collect(),
                ..Lookahead::default()
            }
        } else {
            Lookahead::default()
        };
        std::thread::scope(|s| {
            let spawn = |_| s.spawn(|| lookahead.work(&self.matcher)).thread().clone();
            let workers = (1..self.threads).map(spawn).collect();
            let feed = Feed {
                lookahead: &lookahead,
                workers,
            };
            let mut mapping = UniqueMapping::new(self.config.unique_mapping);
            let mut jaro = JaroScratch::default();

            let mut trace = self.trace_for(pairs.len());
            let mut matches = Vec::new();
            let mut comparisons = 0u64;
            let mut discovered = 0usize;

            while comparisons < self.config.budget {
                // --- Schedule phase -------------------------------------------
                let popped = scheduler.pop_best(&pool, |id| {
                    let c = pool.get(id);
                    // A re-comparison is scheduled only when evidence grew AND
                    // the cached value similarity says the decision could flip.
                    let worth_recomparing = match c.last_value {
                        None => true,
                        Some(v) => {
                            pool.comparable(id, self.config.recompare_margin)
                                && self.matcher.could_rematch(v, c.evidence)
                        }
                    };
                    let eligible = worth_recomparing
                        && !state.same_cluster(c.a, c.b)
                        && !mapping.refuses(c.a, c.b, kbs(self.dataset, c.a, c.b));
                    if eligible {
                        model.score(&state, c)
                    } else {
                        -1.0
                    }
                });
                let Some((id, benefit)) = popped else { break };
                if benefit < 0.0 {
                    continue; // ineligible entry drained without budget cost
                }
                let (a, b, evidence, was_discovered, last_value) = {
                    let c = pool.get(id);
                    (c.a, c.b, c.evidence, c.prior == 0.0, c.last_value)
                };

                // --- Match phase ----------------------------------------------
                comparisons += 1;
                let value_sim = last_value
                    .or_else(|| feed.lookahead.take(id))
                    .unwrap_or_else(|| self.matcher.value_similarity(a, b, &mut jaro));
                pool.mark_compared(id, value_sim);
                let score = self.matcher.composite(value_sim, evidence);
                let matched = self.matcher.is_match(value_sim, score);
                trace.push(TraceStep {
                    comparison: comparisons,
                    a: a.0,
                    b: b.0,
                    value_similarity: value_sim,
                    score,
                    benefit,
                    matched,
                    discovered: was_discovered,
                });

                // --- Update phase ---------------------------------------------
                if matched {
                    state.record_match(a, b);
                    matches.push((a, b, score));
                    mapping.map(a, b, kbs(self.dataset, a, b));
                    if self.config.alpha > 0.0 {
                        let known = pool.len();
                        discovered +=
                            self.propagate(a, b, score, &mut pool, &mut scheduler, &state, model);
                        feed.send(&pool, known);
                    }
                }
            }

            Resolution {
                clusters: state.final_clusters(2),
                trace,
                matches,
                comparisons,
                discovered_candidates: discovered,
            }
        })
    }

    /// Propagates a match `(a, b, score)` to the cross product of their
    /// neighbourhoods; returns the number of newly *discovered* candidates.
    #[allow(clippy::too_many_arguments)]
    fn propagate(
        &self,
        a: EntityId,
        b: EntityId,
        score: f64,
        pool: &mut CandidatePool,
        scheduler: &mut Scheduler,
        state: &ResolutionState<'_>,
        model: BenefitModel,
    ) -> usize {
        let cap = MAX_NEIGHBORS;
        let mut discovered = 0usize;
        let na = self.dataset.neighbors(a);
        let nb = self.dataset.neighbors(b);
        // Hub damping: one matched pair among *large* neighbourhoods is
        // weak evidence for any single neighbour pair — scale by the
        // geometric mean of the neighbourhood sizes, but leave small
        // neighbourhoods (≤ 2×2, where alignment is near-certain) undamped.
        let damp = (((na.len().min(cap) * nb.len().min(cap)) as f64).sqrt() / 2.0).max(1.0);
        let delta = self.config.alpha * score / damp;
        // Deltas too small to ever flip a decision are not worth creating
        // candidates for (they would flood the scheduler).
        const MIN_DISCOVERY_DELTA: f64 = 0.05;
        for &x in na.iter().take(cap) {
            for &y in nb.iter().take(cap) {
                if x == y || state.same_cluster(x, y) {
                    continue;
                }
                // Respect the ER mode: in clean KBs an intra-KB pair can
                // never be a match.
                if self.dataset.kb_of(x) == self.dataset.kb_of(y)
                    && self.dataset.kb_of(a) != self.dataset.kb_of(b)
                {
                    continue;
                }
                let Some((id, existed)) = pool.add_evidence(x, y, delta, MIN_DISCOVERY_DELTA)
                else {
                    continue;
                };
                discovered += usize::from(!existed);
                let benefit = model.score(state, pool.get(id));
                scheduler.push(pool, id, benefit);
            }
        }
        discovered
    }

    /// An empty trace with room for one step per candidate pair, or for
    /// the whole budget when that is less.
    fn trace_for(&self, pairs: usize) -> Trace {
        let budget = usize::try_from(self.config.budget).unwrap_or(usize::MAX);
        Trace::with_capacity(pairs.min(budget))
    }
}

/// A slot no value has reached yet, and one the loop has taken: the two
/// greatest bit patterns, both NaNs, so above those of every similarity.
const EMPTY: u64 = u64::MAX;
const TAKEN: u64 = u64::MAX - 1;

/// A candidate a worker may compare: its id and its endpoints.
type Pending = (CandidateId, EntityId, EntityId);

fn pending(pool: &CandidatePool, id: CandidateId) -> Pending {
    let c = pool.get(id);
    (id, c.a, c.b)
}

/// What the comparison workers share with the loop (see the module docs).
#[derive(Default)]
struct Lookahead {
    /// Per candidate id the pool has room for: [`EMPTY`], [`TAKEN`] or the
    /// bits of its value similarity. A slot publishes nothing but its own
    /// bits, so every access is `Relaxed`.
    slots: Vec<AtomicU64>,
    /// Seeded candidates, best first; `cursor` is the first unclaimed one.
    seeded: Vec<Pending>,
    cursor: AtomicUsize,
    /// Candidates the update phase discovered that no worker took yet.
    discovered: Mutex<Vec<Pending>>,
    stop: AtomicBool,
}

impl Lookahead {
    /// The value a worker delivered for `id`, if any; no worker computes
    /// it after this.
    fn take(&self, id: CandidateId) -> Option<f64> {
        let bits = self.slots.get(id.index())?.swap(TAKEN, Ordering::Relaxed);
        (bits < TAKEN).then(|| f64::from_bits(bits))
    }

    /// One worker: all discoveries first, else the next seeded candidate,
    /// else park; returns once the loop has stopped.
    fn work(&self, matcher: &Matcher) {
        let mut jaro = JaroScratch::default();
        let mut batch = Vec::new();
        while !self.stop.load(Ordering::Acquire) {
            std::mem::swap(&mut batch, &mut *self.queue());
            if batch.is_empty() {
                match self.seeded.get(self.cursor.fetch_add(1, Ordering::Relaxed)) {
                    Some(&next) => batch.push(next),
                    None => std::thread::park(),
                }
            }
            for &(id, a, b) in &batch {
                let slot = &self.slots[id.index()];
                if self.stop.load(Ordering::Relaxed) {
                    break;
                } else if slot.load(Ordering::Relaxed) == EMPTY {
                    let bits = matcher.value_similarity(a, b, &mut jaro).to_bits();
                    // Lost if the loop took the slot meanwhile.
                    let _ =
                        slot.compare_exchange(EMPTY, bits, Ordering::Relaxed, Ordering::Relaxed);
                }
            }
            batch.clear();
        }
    }

    fn queue(&self) -> MutexGuard<'_, Vec<Pending>> {
        self.discovered
            .lock()
            .expect("nothing panics under the queue lock")
    }
}

/// The loop's end of the comparison workers. Dropping it stops them — on
/// unwinding too, so the scope that joins them never waits on a parked one.
struct Feed<'l> {
    lookahead: &'l Lookahead,
    workers: Vec<Thread>,
}

impl Feed<'_> {
    /// Hands the workers the candidates discovered since the pool held
    /// `known` of them, as far as there are slots for them.
    fn send(&self, pool: &CandidatePool, known: usize) {
        let fresh = known..pool.len().min(self.lookahead.slots.len());
        if !self.workers.is_empty() && !fresh.is_empty() {
            let fresh = fresh.map(|i| pending(pool, CandidateId(i as u32)));
            self.lookahead.queue().extend(fresh);
            self.workers.iter().for_each(Thread::unpark);
        }
    }
}

impl Drop for Feed<'_> {
    fn drop(&mut self) {
        self.lookahead.stop.store(true, Ordering::Release);
        self.workers.iter().for_each(Thread::unpark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::MatcherConfig;
    use minoan_blocking::{builders, ErMode};
    use minoan_datagen::{generate, profiles, GeneratedWorld};
    use minoan_metablocking::Session;

    /// ARCS × WNP candidates, the session defaults.
    fn candidates(g: &GeneratedWorld, mode: ErMode) -> Vec<(EntityId, EntityId, f64)> {
        let blocks = builders::token_blocking(&g.dataset, mode);
        let cleaned = minoan_blocking::filter::clean(&blocks);
        Session::new(&cleaned).run().into_candidates()
    }

    fn resolver<'a>(g: &'a GeneratedWorld, config: ResolverConfig) -> ProgressiveResolver<'a> {
        let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
        ProgressiveResolver::new(&g.dataset, matcher, config)
    }

    fn truth_quality(g: &GeneratedWorld, res: &Resolution) -> (f64, f64) {
        let tp = res
            .matches
            .iter()
            .filter(|(a, b, _)| g.truth.is_match(*a, *b))
            .count() as f64;
        let precision = if res.matches.is_empty() {
            0.0
        } else {
            tp / res.matches.len() as f64
        };
        let recall = tp / g.truth.matching_pairs() as f64;
        (precision, recall)
    }

    #[test]
    fn progressive_resolves_center_data_well() {
        let g = generate(&profiles::center_dense(200, 31));
        let pairs = candidates(&g, ErMode::CleanClean);
        let res = resolver(&g, ResolverConfig::default()).run(&pairs);
        let (precision, recall) = truth_quality(&g, &res);
        assert!(precision > 0.9, "precision {precision}");
        assert!(recall > 0.75, "recall {recall}");
        assert!(!res.clusters.is_empty());
    }

    #[test]
    fn budget_is_respected_exactly() {
        let g = generate(&profiles::center_dense(150, 7));
        let pairs = candidates(&g, ErMode::CleanClean);
        for budget in [0u64, 10, 100] {
            let res = resolver(
                &g,
                ResolverConfig {
                    budget,
                    ..Default::default()
                },
            )
            .run(&pairs);
            assert!(res.comparisons <= budget);
            assert_eq!(res.trace.comparisons(), res.comparisons);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let g = generate(&profiles::center_periphery(120, 3));
        let pairs = candidates(&g, ErMode::CleanClean);
        let r1 = resolver(&g, ResolverConfig::default()).run(&pairs);
        let r2 = resolver(&g, ResolverConfig::default()).run(&pairs);
        assert_eq!(r1.comparisons, r2.comparisons);
        assert_eq!(r1.matches.len(), r2.matches.len());
        for (s1, s2) in r1.trace.steps().iter().zip(r2.trace.steps()) {
            assert_eq!((s1.a, s1.b, s1.matched), (s2.a, s2.b, s2.matched));
        }
    }

    #[test]
    fn progressive_beats_random_early() {
        let g = generate(&profiles::center_dense(200, 17));
        let pairs = candidates(&g, ErMode::CleanClean);
        let budget = (pairs.len() / 5) as u64; // 20% of the work
        let prog = resolver(
            &g,
            ResolverConfig {
                budget,
                ..Default::default()
            },
        )
        .run(&pairs);
        let rand = resolver(
            &g,
            ResolverConfig {
                budget,
                strategy: Strategy::Random { seed: 5 },
                ..Default::default()
            },
        )
        .run(&pairs);
        assert!(
            prog.matches.len() > rand.matches.len(),
            "progressive {} must beat random {} at 20% budget",
            prog.matches.len(),
            rand.matches.len()
        );
    }

    #[test]
    fn propagation_recovers_periphery_matches() {
        let g = generate(&profiles::periphery_sparse(250, 23));
        let pairs = candidates(&g, ErMode::CleanClean);
        let base = ResolverConfig {
            strategy: Strategy::Progressive(BenefitModel::PairQuantity),
            ..Default::default()
        };
        let without = resolver(
            &g,
            ResolverConfig {
                alpha: 0.0,
                ..base.clone()
            },
        )
        .run(&pairs);
        let with = resolver(&g, ResolverConfig { alpha: 0.6, ..base }).run(&pairs);
        let (_, recall_without) = truth_quality(&g, &without);
        let (prec_with, recall_with) = truth_quality(&g, &with);
        assert!(
            recall_with > recall_without,
            "update phase must add recall on periphery data: {recall_with} vs {recall_without}"
        );
        assert!(
            prec_with > 0.6,
            "propagation precision collapsed: {prec_with}"
        );
        assert!(
            with.discovered_candidates > 0,
            "no pairs discovered by propagation"
        );
    }

    #[test]
    fn unique_mapping_limits_matches_per_entity() {
        let g = generate(&profiles::center_dense(120, 9));
        let pairs = candidates(&g, ErMode::CleanClean);
        let res = resolver(
            &g,
            ResolverConfig {
                unique_mapping: true,
                ..Default::default()
            },
        )
        .run(&pairs);
        let mut seen: std::collections::HashSet<(u32, u16)> = std::collections::HashSet::new();
        for (a, b, _) in &res.matches {
            assert!(
                seen.insert((a.0, g.dataset.kb_of(*b).0)),
                "{a:?} matched twice into same KB"
            );
            assert!(
                seen.insert((b.0, g.dataset.kb_of(*a).0)),
                "{b:?} matched twice into same KB"
            );
        }
    }

    #[test]
    fn static_best_first_orders_by_prior() {
        let g = generate(&profiles::center_dense(100, 11));
        let pairs = candidates(&g, ErMode::CleanClean);
        let res = resolver(
            &g,
            ResolverConfig {
                strategy: Strategy::StaticBestFirst,
                ..Default::default()
            },
        )
        .run(&pairs);
        let benefits: Vec<f64> = res.trace.steps().iter().map(|s| s.benefit).collect();
        assert!(
            benefits.windows(2).all(|w| w[0] >= w[1] - 1e-9),
            "not descending"
        );
    }

    #[test]
    fn batch_visits_input_order() {
        let g = generate(&profiles::center_dense(80, 13));
        let pairs = candidates(&g, ErMode::CleanClean);
        let res = resolver(
            &g,
            ResolverConfig {
                strategy: Strategy::Batch,
                budget: 10,
                ..Default::default()
            },
        )
        .run(&pairs);
        for (step, (a, b, _)) in res.trace.steps().iter().zip(pairs.iter()) {
            assert_eq!((step.a, step.b), (a.0, b.0));
        }
    }

    #[test]
    fn all_benefit_models_run() {
        let g = generate(&profiles::lod_cloud(80, 19));
        let pairs = candidates(&g, ErMode::CleanClean);
        for model in BenefitModel::ALL {
            let res = resolver(
                &g,
                ResolverConfig {
                    strategy: Strategy::Progressive(model),
                    ..Default::default()
                },
            )
            .run(&pairs);
            let (precision, _) = truth_quality(&g, &res);
            assert!(precision > 0.5, "{model:?} precision too low: {precision}");
        }
    }

    #[test]
    fn empty_candidates_yield_empty_resolution() {
        let g = generate(&profiles::center_dense(50, 2));
        let res = resolver(&g, ResolverConfig::default()).run(&[]);
        assert_eq!(res.comparisons, 0);
        assert!(res.matches.is_empty());
        assert!(res.clusters.is_empty());
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::Batch.name(), "batch");
        assert_eq!(
            Strategy::Progressive(BenefitModel::EntityCoverage).name(),
            "progressive/entity-coverage"
        );
    }
}
