//! The one meta-blocking entry point: [`Session`].
//!
//! The paper's contribution is a *family* of meta-blocking strategies
//! meant to be swept and compared — five weighting schemes × six pruning
//! families × two execution backends. A session makes that sweep cheap
//! and uniform: it borrows a block collection, is configured builder-style
//! ([`Session::scheme`], [`Session::pruning`], [`Session::backend`],
//! [`Session::workers`]), and every [`Session::run`] returns the same
//! unified [`PruneOutcome`] whichever combination is selected.
//!
//! What makes it a session rather than a dispatcher is the **owned shared
//! state**: the sweep state — cost-balanced entity ranges,
//! [`kernel`](crate::kernel) weight globals, the scratch pool — that both
//! backends run on. All of it is built lazily on first use and reused by
//! every subsequent run, so sweeping all five schemes (or all pruning
//! families) allocates one scratch instead of one per call. The unit
//! tests below read that claim off the length of the session's scratch
//! pool.
//!
//! Reuse never changes results: every combination stays bit-identical to
//! a fresh single-shot run (enforced in `tests/session_reuse.rs`).

use crate::blast;
use crate::parallel::{JobReport, MapReduce};
use crate::prune::{PrunedComparisons, WeightedPair};
use crate::query::{self, ResolvedEntity};
use crate::rule::{self, Criterion, RowBuf, Rule, Weigher};
use crate::streaming::Streaming;
use crate::supervised::{self, FeatureExtractor, Perceptron, NUM_FEATURES};
use crate::sweep::SweepState;
use crate::weights::WeightingScheme;
use crate::ExecutionBackend;
use minoan_blocking::{BlockCollection, Direction};
use minoan_common::default_threads;
use minoan_mapreduce::Engine;
use minoan_rdf::EntityId;

/// Which pruning family a session run applies — the full catalogue,
/// including BLAST and the supervised pruner, each runnable on every
/// [`ExecutionBackend`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pruning {
    /// No pruning: every blocking-graph edge survives, weighted, in pair
    /// order.
    None,
    /// Weighted edge pruning: keep edges at or above the global mean
    /// weight (over positive-weight edges).
    Wep,
    /// Cardinality edge pruning: keep the global top-k edges by weight
    /// (`None` = the literature default `BC / 2`).
    Cep(Option<usize>),
    /// Weighted node pruning; `reciprocal` = intersection variant.
    Wnp {
        /// Both endpoints must retain the edge.
        reciprocal: bool,
    },
    /// Cardinality node pruning; per-node `k` (`None` = default).
    Cnp {
        /// Both endpoints must retain the edge.
        reciprocal: bool,
        /// Per-node cardinality override.
        k: Option<usize>,
    },
    /// BLAST: χ² weighting with loose ratio-of-local-max pruning. The
    /// weighting scheme setting is ignored (χ² replaces it).
    Blast {
        /// Keep edges with weight ≥ `ratio ·` either endpoint's local
        /// maximum; must be in `(0, 1]`.
        ratio: f64,
    },
    /// Supervised pruning with a trained perceptron over the 7-feature
    /// edge vectors. The weighting scheme setting is ignored (all five
    /// schemes enter the feature vector).
    Supervised(Perceptron),
}

impl Pruning {
    /// BLAST at its recommended default keep ratio.
    pub fn blast() -> Self {
        Pruning::Blast {
            ratio: blast::DEFAULT_RATIO,
        }
    }

    /// The unsupervised families at their defaults, for sweep
    /// experiments ([`Pruning::Supervised`] needs a trained model, so it
    /// is not listed).
    pub const FAMILIES: [Pruning; 6] = [
        Pruning::None,
        Pruning::Wep,
        Pruning::Cep(None),
        Pruning::Wnp { reciprocal: false },
        Pruning::Cnp {
            reciprocal: false,
            k: None,
        },
        Pruning::Blast {
            ratio: blast::DEFAULT_RATIO,
        },
    ];
}

/// The unified result of one [`Session::run`]: the pruned comparisons
/// plus — when the MapReduce backend ran — the per-job execution
/// statistics (shuffle volume, modeled makespan).
#[derive(Clone, Debug)]
pub struct PruneOutcome {
    /// The retained comparisons with their weights and the input-edge
    /// count.
    pub pruned: PrunedComparisons,
    /// Per-job [`minoan_mapreduce::JobStats`] of the MapReduce run that
    /// produced this outcome; empty for the streaming backend (it runs
    /// in-process, not as jobs).
    pub report: JobReport,
}

impl PruneOutcome {
    fn local(pruned: PrunedComparisons) -> Self {
        Self {
            pruned,
            report: JobReport::default(),
        }
    }

    /// The retained pairs (see [`PrunedComparisons::pairs`] for the
    /// ordering contract per family).
    pub fn pairs(&self) -> &[WeightedPair] {
        &self.pruned.pairs
    }

    /// Edges in the input blocking graph (for retention reporting).
    pub fn input_edges(&self) -> usize {
        self.pruned.input_edges
    }

    /// Fraction of input edges retained.
    pub fn retention(&self) -> f64 {
        self.pruned.retention()
    }

    /// Total records shuffled by the MapReduce jobs (0 for the local
    /// backends).
    pub fn shuffled_records(&self) -> usize {
        self.report.shuffled_records()
    }

    /// The candidate list the pipeline feeds to progressive matching.
    pub fn into_candidates(self) -> Vec<(EntityId, EntityId, f64)> {
        self.pruned
            .pairs
            .into_iter()
            .map(|p| (p.a, p.b, p.weight))
            .collect()
    }
}

/// A configured meta-blocking run over one block collection, with the
/// expensive shared state cached across runs.
///
/// ```
/// use minoan_datagen::{generate, profiles};
/// use minoan_blocking::{builders, ErMode};
/// use minoan_metablocking::{ExecutionBackend, Pruning, Session, WeightingScheme};
///
/// let g = generate(&profiles::center_dense(120, 3));
/// let blocks = builders::token_blocking(&g.dataset, ErMode::CleanClean);
///
/// // Sweep all five schemes through one session: the sweep state is
/// // built once and reused.
/// let mut session = Session::new(&blocks);
/// session.pruning(Pruning::Wnp { reciprocal: false });
/// for scheme in WeightingScheme::ALL {
///     let outcome = session.scheme(scheme).run();
///     assert!(outcome.pairs().len() <= outcome.input_edges());
/// }
///
/// // Both backends produce the same pairs, bit for bit.
/// let s = session.scheme(WeightingScheme::Arcs).run();
/// let p = session.backend(ExecutionBackend::MapReduce).workers(3).run();
/// assert_eq!(s.pairs(), p.pairs());
/// ```
pub struct Session<'c> {
    collection: &'c BlockCollection,
    scheme: WeightingScheme,
    pruning: Pruning,
    backend: ExecutionBackend,
    workers: Option<usize>,
    // Cached shared state, built lazily and reused across runs.
    sweep: SweepState<'c>,
    // Query-time pruning criterion, keyed by the scheme × pruning it was
    // built for (resolve_entity rebuilds it on a config switch).
    criterion: Option<((WeightingScheme, Pruning), Criterion)>,
}

impl<'c> Session<'c> {
    /// A session over `collection` with the pipeline defaults:
    /// ARCS-weighted WNP on the streaming backend.
    pub fn new(collection: &'c BlockCollection) -> Self {
        Self {
            collection,
            scheme: WeightingScheme::Arcs,
            pruning: Pruning::Wnp { reciprocal: false },
            backend: ExecutionBackend::Streaming,
            workers: None,
            sweep: SweepState::new(collection),
            criterion: None,
        }
    }

    /// Sets the edge-weighting scheme (ignored by BLAST and supervised
    /// pruning, which bring their own weights).
    pub fn scheme(&mut self, scheme: WeightingScheme) -> &mut Self {
        self.scheme = scheme;
        self
    }

    /// Sets the pruning family.
    pub fn pruning(&mut self, pruning: Pruning) -> &mut Self {
        self.pruning = pruning;
        self
    }

    /// Sets the execution backend.
    pub fn backend(&mut self, backend: ExecutionBackend) -> &mut Self {
        self.backend = backend;
        self
    }

    /// Pins the worker count (streaming threads / MapReduce workers).
    /// Results never depend on it; the default is all available
    /// parallelism.
    pub fn workers(&mut self, workers: usize) -> &mut Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The underlying block collection.
    pub fn collection(&self) -> &'c BlockCollection {
        self.collection
    }

    fn threads(&self) -> usize {
        self.workers.unwrap_or_else(default_threads).max(1)
    }

    /// Runs the configured scheme × pruning × backend combination,
    /// reusing every piece of shared state previous runs already built.
    pub fn run(&mut self) -> PruneOutcome {
        match self.backend {
            ExecutionBackend::Streaming => self.run_streaming(),
            ExecutionBackend::MapReduce => self.run_mapreduce(),
        }
    }

    /// Resolves one entity at query time: the comparisons a full
    /// [`Session::run`] of the current scheme × pruning would keep for
    /// it — same pairs, same order, same f64 weight bits — from a
    /// single neighbourhood sweep instead of a corpus pass.
    ///
    /// The pruning family's *global* inputs (WEP's mean threshold,
    /// CEP's top-k, CNP's default `k`, the supervised feature maxima)
    /// are computed once per scheme × pruning configuration and cached
    /// on the session, so repeated resolves cost one entity sweep each,
    /// plus lazy neighbour-row sweeps where the node-centric vote needs
    /// the other endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `entity` is out of range of the collection.
    ///
    /// ```
    /// use minoan_datagen::{generate, profiles};
    /// use minoan_blocking::{builders, ErMode};
    /// use minoan_metablocking::{Pruning, Session, WeightingScheme};
    /// use minoan_rdf::EntityId;
    ///
    /// let g = generate(&profiles::center_dense(80, 3));
    /// let blocks = builders::token_blocking(&g.dataset, ErMode::CleanClean);
    /// let mut session = Session::new(&blocks);
    /// session
    ///     .scheme(WeightingScheme::Js)
    ///     .pruning(Pruning::Wnp { reciprocal: false });
    ///
    /// // One entity's matches, from a single neighbourhood sweep …
    /// let e = EntityId(3);
    /// let resolved = session.resolve_entity(e);
    ///
    /// // … are exactly the incident slice of the full-corpus outcome.
    /// let full = session.run();
    /// let incident: Vec<_> = full
    ///     .pairs()
    ///     .iter()
    ///     .filter(|p| p.a == e || p.b == e)
    ///     .copied()
    ///     .collect();
    /// assert_eq!(resolved.matches, incident);
    /// ```
    pub fn resolve_entity(&mut self, entity: EntityId) -> ResolvedEntity {
        assert!(
            (entity.0 as usize) < self.collection.num_entities(),
            "resolve_entity: entity id out of range"
        );
        let threads = self.threads();
        let (scheme, pruning) = (self.scheme, &self.pruning);
        let cached = matches!(&self.criterion, Some((key, _)) if *key == (scheme, *pruning));
        if !cached {
            let mut driver = Streaming::new(&mut self.sweep, threads);
            let crit = rule::resolve_criterion(&mut driver, scheme, pruning);
            self.criterion = Some(((scheme, *pruning), crit));
        }
        let (_, criterion) = self.criterion.as_ref().expect("criterion just ensured");
        let weigher = Weigher::of(scheme, pruning);
        self.sweep.ensure(weigher.needs_counts(), threads);
        let st = &self.sweep;
        let mut load = |e, out: &mut RowBuf| {
            query::sweep_row(st.collection, st.globals(), &st.pool, weigher, e, out)
        };
        query::resolve_rows(&mut load, entity, Rule { pruning, criterion })
    }

    /// What [`TrainingSet::sample`](crate::TrainingSet::sample) walks, on
    /// streaming sweeps at the session's worker count (its scheme and
    /// pruning untouched): every edge in `(a, b)` order — the unpruned
    /// outcome, which stays in pair order — and the extractor normalising
    /// by the per-feature maxima the supervised pruner reduces.
    pub(crate) fn training_edges(&mut self) -> (Vec<WeightedPair>, FeatureExtractor) {
        let threads = self.threads();
        let mut driver = Streaming::new(&mut self.sweep, threads);
        // The walk reads only the pairs; CBS weighs them without a
        // counting pass.
        let edges = rule::run(&mut driver, WeightingScheme::Cbs, &Pruning::None).pairs;
        (edges, rule::feature_extractor(&mut driver))
    }

    /// The raw features of the edge `(a, b)`, `a < b`: the entry a
    /// [`Weigher::Features`] row of `a` holds for `b`, from a forward sweep
    /// of `a`.
    pub(crate) fn raw_features(&mut self, a: EntityId, b: EntityId) -> [f64; NUM_FEATURES] {
        self.sweep.ensure(true, self.threads());
        let st = &self.sweep;
        st.pool.with(|scratch| {
            scratch.sweep(st.collection, a, Direction::Forward);
            let (cbs, arcs) = (scratch.cbs_of(b.0), scratch.arcs_of(b.0));
            supervised::raw_features(cbs, arcs, a.0, b.0, st.globals())
        })
    }

    fn run_streaming(&mut self) -> PruneOutcome {
        let threads = self.threads();
        let mut driver = Streaming::new(&mut self.sweep, threads);
        PruneOutcome::local(rule::run(&mut driver, self.scheme, &self.pruning))
    }

    fn run_mapreduce(&mut self) -> PruneOutcome {
        let engine = match self.workers {
            Some(w) => Engine::new(w),
            None => Engine::default(),
        };
        let mut driver = MapReduce::new(&mut self.sweep, &engine, &self.pruning);
        let pruned = rule::run(&mut driver, self.scheme, &self.pruning);
        PruneOutcome {
            pruned,
            report: driver.report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_blocking::builders::token_blocking;
    use minoan_blocking::ErMode;
    use minoan_datagen::{generate, profiles};

    #[test]
    fn builder_chain_runs_every_backend() {
        let world = generate(&profiles::center_dense(80, 5));
        let blocks = token_blocking(&world.dataset, ErMode::CleanClean);
        let base = Session::new(&blocks)
            .scheme(WeightingScheme::Js)
            .pruning(Pruning::Wnp { reciprocal: true })
            .run();
        assert!(!base.pairs().is_empty());
        for backend in ExecutionBackend::ALL {
            let out = Session::new(&blocks)
                .scheme(WeightingScheme::Js)
                .pruning(Pruning::Wnp { reciprocal: true })
                .backend(backend)
                .workers(2)
                .run();
            assert_eq!(out.pairs(), base.pairs(), "{backend:?}");
            assert_eq!(out.input_edges(), base.input_edges(), "{backend:?}");
        }
    }

    #[test]
    fn mapreduce_outcome_carries_job_stats() {
        let world = generate(&profiles::center_dense(80, 7));
        let blocks = token_blocking(&world.dataset, ErMode::CleanClean);
        let out = Session::new(&blocks)
            .backend(ExecutionBackend::MapReduce)
            .workers(3)
            .run();
        assert!(!out.report.jobs.is_empty(), "MapReduce runs report jobs");
        assert!(out.shuffled_records() > 0);
        let local = Session::new(&blocks).run();
        assert!(local.report.jobs.is_empty(), "streaming reports none");
        assert_eq!(local.shuffled_records(), 0);
    }

    #[test]
    fn streaming_sweep_allocates_exactly_one_scratch_at_one_worker() {
        let world = generate(&profiles::center_dense(100, 5));
        let blocks = token_blocking(&world.dataset, ErMode::CleanClean);
        let mut session = Session::new(&blocks);
        session.backend(ExecutionBackend::Streaming).workers(1);
        for scheme in WeightingScheme::ALL {
            session.scheme(scheme);
            for family in Pruning::FAMILIES {
                session.pruning(family).run();
            }
        }
        assert_eq!(session.sweep.pool.free_len(), 1, "one pooled scratch");
    }

    /// MapReduce runs draw scratches from the same session pool: across a
    /// five-scheme sweep the pool never outgrows the engine's concurrency.
    #[test]
    fn mapreduce_sweep_bounds_scratch_allocations_by_worker_count() {
        let world = generate(&profiles::center_dense(100, 7));
        let blocks = token_blocking(&world.dataset, ErMode::CleanClean);
        let workers = 2;
        let mut session = Session::new(&blocks);
        session
            .backend(ExecutionBackend::MapReduce)
            .workers(workers)
            .pruning(Pruning::Wnp { reciprocal: false });
        for scheme in WeightingScheme::ALL {
            session.scheme(scheme).run();
        }
        let scratches = session.sweep.pool.free_len();
        assert!(
            (1..=workers).contains(&scratches),
            "a {workers}-worker sweep may hold 1..={workers} scratches, got {scratches}"
        );
    }

    #[test]
    fn families_constant_covers_the_catalogue() {
        assert_eq!(Pruning::FAMILIES.len(), 6);
        assert!(Pruning::FAMILIES.contains(&Pruning::blast()));
    }
}
