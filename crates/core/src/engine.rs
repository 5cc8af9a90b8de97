//! The progressive resolution engine: schedule → match → update, under a
//! cost budget.
//!
//! The loop's state (`Progress`) can be resumed: [`ProgressiveResolver`]
//! seeds and runs it once; the arrival driver ([`crate::incremental`])
//! seeds and runs it once per batch, among the entities that have arrived.
//!
//! # Comparison workers
//!
//! A value similarity is a pure function of the pair that the schedule
//! never reads before the pair is compared. So with `threads > 1`,
//! `threads − 1` workers fill one slot per candidate beside the loop, from
//! the moment the run starts:
//! - while the calling thread builds the pool and the schedule, they
//!   compare the first `min(budget, len)` input pairs in input order —
//!   the schedule's own order under pair quantity when the input comes
//!   best first, as meta-blocking's does;
//! - once the schedule exists, the candidates the update phase discovers
//!   first, then the best `min(budget, len)` seeded ones, best first,
//!   passing over every slot already filled.
//!
//! Until seeding a slot is keyed by input position, so it must be the slot
//! the loop reads for that candidate: ids are positions when no pair
//! repeats; when one does, a seeded candidate reads the slot of its first
//! position and a discovered one a slot past every position.
//!
//! A worker claims a slot before computing its value. The loop takes a
//! candidate's slot before comparing it: it uses a delivered value, waits
//! up to [`CLAIM_WAIT`] for a claimed one, and computes the value itself if
//! there is none. Having waited, it has caught up with the workers, so the
//! next worker to deliver leaves it the next seeded pair and compares the
//! one after. The workers stop when the loop does.
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
use crate::similarity::JaroScratch;
use crate::trace::{Trace, TraceStep};
use minoan_rdf::{Dataset, EntityId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

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

/// A weighted pair: a candidate `(a, b, weight)` or a match `(a, b, score)`.
type Pair = (EntityId, EntityId, f64);

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
#[derive(Clone, Debug, Default)]
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

    /// Resolves the candidate pairs (meta-blocking output: `(a, b, weight)`).
    pub fn run(&self, pairs: &[(EntityId, EntityId, f64)]) -> Resolution {
        match self.config.strategy {
            Strategy::Progressive(_) => self.run_progressive(pairs),
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
        // Nothing scores a fixed order: the state needs no attribute sets.
        let mut state = ResolutionState::new(self.dataset, BenefitModel::PairQuantity);
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
    /// beside it from the start: a value they delivered is taken, any other
    /// computed.
    fn run_progressive(&self, pairs: &[Pair]) -> Resolution {
        let budget = usize::try_from(self.config.budget).unwrap_or(usize::MAX);
        let lookahead = Lookahead::new(pairs, budget, self.threads);
        std::thread::scope(|s| {
            let spawn = |_| s.spawn(|| lookahead.work(&self.matcher)).thread().clone();
            let mut feed = Feed::new(&lookahead, (1..self.threads).map(spawn).collect());
            let mut progress = Progress::new(self.dataset, &self.matcher, &self.config);
            progress.out.trace = self.trace_for(CandidatePool::room(pairs.len()));
            progress.seed(pairs, |_| true);
            feed.follow_schedule(pairs, &progress, budget);
            progress.run(self.config.budget, |_| true, Some(&feed));
            drop(feed);
            progress.out.clusters = progress.state.final_clusters(2);
            progress.out
        })
    }

    /// An empty trace with room for one step per candidate the run may
    /// compare, or for the whole budget when that is less.
    fn trace_for(&self, candidates: usize) -> Trace {
        let budget = usize::try_from(self.config.budget).unwrap_or(usize::MAX);
        Trace::with_capacity(candidates.min(budget))
    }
}

/// The progressive loop's state (see the module docs).
pub(crate) struct Progress<'a> {
    pub(crate) dataset: &'a Dataset,
    matcher: &'a Matcher,
    config: ResolverConfig,
    model: BenefitModel,
    pool: CandidatePool,
    scheduler: Scheduler,
    pub(crate) state: ResolutionState<'a>,
    mapping: UniqueMapping,
    /// The trace, matches and counts so far; its clusters are left empty.
    pub(crate) out: Resolution,
    /// Pairs given evidence while an endpoint had not arrived, unqueued.
    waiting: Vec<CandidateId>,
}

impl<'a> Progress<'a> {
    /// A loop under `config`, whose strategy must be progressive.
    pub(crate) fn new(dataset: &'a Dataset, matcher: &'a Matcher, config: &ResolverConfig) -> Self {
        let Strategy::Progressive(model) = config.strategy else {
            unreachable!("only the progressive strategy runs the loop")
        };
        Self {
            dataset,
            matcher,
            config: config.clone(),
            model,
            pool: CandidatePool::new(),
            scheduler: Scheduler::new(),
            state: ResolutionState::new(dataset, model),
            mapping: UniqueMapping::new(config.unique_mapping),
            out: Resolution::default(),
            waiting: Vec::new(),
        }
    }

    /// One seeding event ([`CandidatePool::seed`]): queues the new pairs and
    /// the waiting ones whose ends have both arrived — every seeded old one.
    pub(crate) fn seed(&mut self, pairs: &[Pair], arrived: impl Fn(EntityId) -> bool) {
        let known = self.pool.len();
        self.pool.seed(pairs);
        let pool = &self.pool;
        let ready = |id: &&CandidateId| arrived(pool.get(**id).a) && arrived(pool.get(**id).b);
        let (ready, waiting): (Vec<_>, _) = self.waiting.iter().partition(ready);
        self.waiting = waiting;
        let fresh = (known..pool.len()).map(|i| CandidateId(i as u32));
        let score = |id| self.model.score(&self.state, pool.get(id));
        let ids = ready.into_iter().chain(fresh);
        self.scheduler.seed(pool, ids, score);
    }

    /// Runs schedule → match → update until `until` comparisons in all,
    /// or until nothing eligible is queued.
    pub(crate) fn run(
        &mut self,
        until: u64,
        arrived: impl Fn(EntityId) -> bool,
        feed: Option<&Feed<'_, '_>>,
    ) {
        let mut jaro = JaroScratch::default();
        while self.out.comparisons < until {
            // --- Schedule phase -----------------------------------------------
            let popped = self.scheduler.pop_best(&self.pool, |id| {
                let c = self.pool.get(id);
                // A re-comparison is scheduled only when evidence grew AND
                // the cached value similarity says the decision could flip.
                let worth_recomparing = match c.last_value {
                    None => true,
                    Some(v) => {
                        self.pool.comparable(id, self.config.recompare_margin)
                            && self.matcher.could_rematch(v, c.evidence)
                    }
                };
                let eligible = worth_recomparing
                    && !self.state.same_cluster(c.a, c.b)
                    && !self.mapping.refuses(c.a, c.b, kbs(self.dataset, c.a, c.b));
                if eligible {
                    self.model.score(&self.state, c)
                } else {
                    -1.0
                }
            });
            let Some((id, benefit)) = popped else { break };
            if benefit < 0.0 {
                continue; // ineligible entry drained without budget cost
            }
            let c = self.pool.get(id);
            let (a, b, prior, evidence, last_value) = (c.a, c.b, c.prior, c.evidence, c.last_value);

            // --- Match phase --------------------------------------------------
            self.out.comparisons += 1;
            let value_sim = last_value
                .or_else(|| feed.and_then(|f| f.take(id)))
                .unwrap_or_else(|| self.matcher.value_similarity(a, b, &mut jaro));
            self.pool.mark_compared(id, value_sim);
            let score = self.matcher.composite(value_sim, evidence);
            let matched = self.matcher.is_match(value_sim, score);
            self.out.trace.push(TraceStep {
                comparison: self.out.comparisons,
                a: a.0,
                b: b.0,
                value_similarity: value_sim,
                score,
                benefit,
                matched,
                discovered: prior == 0.0,
            });

            // --- Update phase -------------------------------------------------
            if matched {
                self.state.record_match(a, b);
                self.out.matches.push((a, b, score));
                self.mapping.map(a, b, kbs(self.dataset, a, b));
                if self.config.alpha > 0.0 {
                    let known = self.pool.len();
                    self.propagate((a, b, score), &arrived);
                    if let Some(feed) = feed {
                        feed.send(&self.pool, known);
                    }
                }
            }
        }
    }

    /// Propagates a match `(a, b, score)` to the cross product of their
    /// neighbourhoods, counting the *discovered* candidates. A pair with an
    /// endpoint that has not arrived gains evidence but waits unqueued.
    fn propagate(&mut self, (a, b, score): Pair, arrived: impl Fn(EntityId) -> bool) {
        let cap = MAX_NEIGHBORS;
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
                if x == y || self.state.same_cluster(x, y) {
                    continue;
                }
                // Respect the ER mode: in clean KBs an intra-KB pair can
                // never be a match.
                if self.dataset.kb_of(x) == self.dataset.kb_of(y)
                    && self.dataset.kb_of(a) != self.dataset.kb_of(b)
                {
                    continue;
                }
                let Some((id, existed)) = self.pool.add_evidence(x, y, delta, MIN_DISCOVERY_DELTA)
                else {
                    continue;
                };
                self.out.discovered_candidates += usize::from(!existed);
                if arrived(x) && arrived(y) {
                    let benefit = self.model.score(&self.state, self.pool.get(id));
                    self.scheduler.push(&self.pool, id, benefit);
                } else if !existed {
                    self.waiting.push(id); // a pool pair not yet arrived is waiting
                }
            }
        }
    }
}

/// A slot no value has reached yet, one a worker is computing and one the
/// loop has taken: the three greatest bit patterns, all NaNs, so above
/// those of every similarity.
const EMPTY: u64 = u64::MAX;
const TAKEN: u64 = u64::MAX - 1;
const CLAIMED: u64 = u64::MAX - 2;

/// How long the loop waits for a value a worker is computing before it
/// computes the value itself: many comparisons' worth, so it gives up only
/// on a worker the host has descheduled.
const CLAIM_WAIT: Duration = Duration::from_micros(50);

/// A pair a worker may compare: its slot and its endpoints, `a < b`.
type Pending = (usize, EntityId, EntityId);

/// What the comparison workers share with the loop (see the module docs).
#[derive(Default)]
struct Lookahead<'p> {
    /// Per slot: [`EMPTY`], [`CLAIMED`], [`TAKEN`] or the bits of a value
    /// similarity. A slot publishes nothing but its own bits, so every
    /// access is `Relaxed`.
    slots: Vec<AtomicU64>,
    /// The pairs compared before the schedule exists, slot = position.
    input: &'p [Pair],
    /// The first of `input` no worker took yet.
    input_cursor: AtomicUsize,
    /// The seeded candidates best first, once the schedule exists.
    seeded: OnceLock<Vec<Pending>>,
    /// The first of `seeded` no worker took yet.
    cursor: AtomicUsize,
    /// Candidates the update phase discovered that no worker took yet.
    discovered: Mutex<Vec<Pending>>,
    /// Set when the loop waits for a claimed slot: it has caught up.
    caught_up: AtomicBool,
    stop: AtomicBool,
}

impl<'p> Lookahead<'p> {
    /// Slots for `threads − 1` workers over `pairs`, as many as the pool
    /// reserves for them, and the first `budget` of them to compare; with
    /// one thread, nothing.
    fn new(pairs: &'p [Pair], budget: usize, threads: usize) -> Self {
        if threads < 2 {
            return Self::default();
        }
        Self {
            slots: (0..CandidatePool::room(pairs.len()))
                .map(|_| AtomicU64::new(EMPTY))
                .collect(),
            input: &pairs[..budget.min(pairs.len())],
            ..Self::default()
        }
    }

    /// The value in `slot`, if a worker delivered it, or delivers it within
    /// [`CLAIM_WAIT`] of this call; no worker computes it after this.
    fn take(&self, slot: usize) -> Option<f64> {
        let slot = self.slots.get(slot)?;
        let mut bits = match slot.compare_exchange(EMPTY, TAKEN, Relaxed, Relaxed) {
            Ok(_) => return None,
            Err(bits) => bits,
        };
        if bits == CLAIMED {
            self.caught_up.store(true, Relaxed);
            let since = Instant::now();
            while bits == CLAIMED && since.elapsed() < CLAIM_WAIT {
                std::hint::spin_loop();
                bits = slot.load(Relaxed);
            }
            // Given up: the worker's value, when it comes, is dropped.
            if bits == CLAIMED {
                bits = slot.swap(TAKEN, Relaxed);
            }
        }
        (bits < CLAIMED).then(|| f64::from_bits(bits))
    }

    /// The next pair for a worker: the next input pair until the schedule
    /// exists, then the next seeded candidate.
    fn next(&self) -> Option<Pending> {
        match self.seeded.get() {
            Some(seeded) => seeded.get(self.cursor.fetch_add(1, Relaxed)).copied(),
            None => {
                let at = self.input_cursor.fetch_add(1, Relaxed);
                let &(a, b, _) = self.input.get(at)?;
                Some((at, a.min(b), a.max(b)))
            }
        }
    }

    /// One worker: all discoveries first, else the next pair, else park;
    /// returns once the loop has stopped.
    fn work(&self, matcher: &Matcher) {
        let mut jaro = JaroScratch::default();
        let mut batch = Vec::new();
        while !self.stop.load(Acquire) {
            std::mem::swap(&mut batch, &mut *self.queue());
            if batch.is_empty() {
                match self.next() {
                    Some(next) => batch.push(next),
                    None => std::thread::park(),
                }
            }
            for &(slot, a, b) in &batch {
                if self.stop.load(Relaxed) {
                    break;
                }
                let slot = &self.slots[slot];
                if slot.load(Relaxed) == EMPTY
                    && slot
                        .compare_exchange(EMPTY, CLAIMED, Relaxed, Relaxed)
                        .is_ok()
                {
                    let bits = matcher.value_similarity(a, b, &mut jaro).to_bits();
                    // Lost if the loop gave up waiting meanwhile.
                    _ = slot.compare_exchange(CLAIMED, bits, Relaxed, Relaxed);
                    if self.caught_up.swap(false, Relaxed) {
                        self.cursor.fetch_add(1, Relaxed); // left to the loop
                    }
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
pub(crate) struct Feed<'l, 'p> {
    lookahead: &'l Lookahead<'p>,
    workers: Vec<Thread>,
    /// Per seeded candidate, its first input position, when a pair
    /// repeats; empty when none does, as then the two are equal.
    positions: Vec<u32>,
    /// What a discovered candidate's slot adds to its id: the number of
    /// repeated input pairs, so that its slot follows every position.
    shift: usize,
}

impl<'l, 'p> Feed<'l, 'p> {
    fn new(lookahead: &'l Lookahead<'p>, workers: Vec<Thread>) -> Self {
        Self {
            lookahead,
            workers,
            positions: Vec::new(),
            shift: 0,
        }
    }

    /// The slot of candidate `id`.
    fn slot(&self, id: CandidateId) -> usize {
        match self.positions.get(id.index()) {
            Some(&position) => position as usize,
            None => id.index() + self.shift,
        }
    }

    /// The value a worker delivered for `id`, if any (see [`Lookahead::take`]).
    fn take(&self, id: CandidateId) -> Option<f64> {
        self.lookahead.take(self.slot(id))
    }

    /// Switches the workers from the input pairs to the best `budget`
    /// seeded candidates, once `progress` has seeded `pairs` into its
    /// empty pool.
    fn follow_schedule(&mut self, pairs: &[Pair], progress: &Progress<'_>, budget: usize) {
        if self.workers.is_empty() {
            return;
        }
        let pool = &progress.pool;
        if pool.len() < pairs.len() {
            let mut positions = vec![0; pool.len()];
            for (at, &(a, b, _)) in pairs.iter().enumerate().rev() {
                let id = pool.id_of(a, b).expect("every input pair is seeded");
                positions[id.index()] = at as u32;
            }
            self.positions = positions;
            self.shift = pairs.len() - pool.len();
        }
        let best = progress.scheduler.seeded_best_first().take(budget);
        let seeded = best.map(|id| self.pending(pool, id)).collect();
        _ = self.lookahead.seeded.set(seeded);
        self.workers.iter().for_each(Thread::unpark);
    }

    /// Hands the workers the candidates discovered since the pool held
    /// `known` of them, as far as there are slots for them.
    fn send(&self, pool: &CandidatePool, known: usize) {
        let room = self.lookahead.slots.len().saturating_sub(self.shift);
        let fresh = known..pool.len().min(room);
        if !self.workers.is_empty() && !fresh.is_empty() {
            let fresh = fresh.map(|i| self.pending(pool, CandidateId(i as u32)));
            self.lookahead.queue().extend(fresh);
            self.workers.iter().for_each(Thread::unpark);
        }
    }

    fn pending(&self, pool: &CandidatePool, id: CandidateId) -> Pending {
        let c = pool.get(id);
        (self.slot(id), c.a, c.b)
    }
}

impl Drop for Feed<'_, '_> {
    fn drop(&mut self) {
        self.lookahead.stop.store(true, Release);
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
