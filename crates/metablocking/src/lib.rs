//! Meta-blocking: pruning the comparison stream of a block collection.
//!
//! Token blocking "leads to many repeated comparisons between the same
//! pairs of descriptions. To overcome this problem, we accompany blocking
//! with meta-blocking, which prunes such repeated comparisons. Moreover,
//! meta-blocking aims at discarding comparisons between descriptions that
//! share few common blocks and are thus less likely to match" (paper §1).
//!
//! # One entry point: [`Session`]
//!
//! The paper's contribution is a *family* of strategies meant to be swept
//! and compared — five weighting schemes ([`WeightingScheme`]) × six
//! pruning families ([`Pruning`]: none, WEP, CEP, WNP, CNP, BLAST, plus
//! the supervised perceptron pruner) × two execution backends
//! ([`ExecutionBackend`]). A [`Session`] exposes the whole matrix behind
//! one builder-style call chain and returns one unified [`PruneOutcome`]
//! for every combination:
//!
//! ```
//! use minoan_datagen::{generate, profiles};
//! use minoan_blocking::{builders, ErMode};
//! use minoan_metablocking::{ExecutionBackend, Pruning, Session, WeightingScheme};
//!
//! let g = generate(&profiles::center_dense(120, 3));
//! let blocks = builders::token_blocking(&g.dataset, ErMode::CleanClean);
//!
//! let outcome = Session::new(&blocks)
//!     .scheme(WeightingScheme::Arcs)
//!     .pruning(Pruning::Wnp { reciprocal: false })
//!     .backend(ExecutionBackend::Streaming)
//!     .workers(4)
//!     .run();
//! assert!(outcome.retention() < 1.0, "WNP must prune something");
//! ```
//!
//! Crucially the session *owns the expensive shared state* — the sweep
//! ranges, the weight globals and the scratch pool — and reuses it across
//! runs, so a sweep over all five schemes allocates its scratch once, not
//! five times:
//!
//! ```
//! # use minoan_datagen::{generate, profiles};
//! # use minoan_blocking::{builders, ErMode};
//! # use minoan_metablocking::{Pruning, Session, WeightingScheme};
//! # let g = generate(&profiles::center_dense(100, 7));
//! # let blocks = builders::token_blocking(&g.dataset, ErMode::CleanClean);
//! let mut session = Session::new(&blocks);
//! session.pruning(Pruning::Cnp { reciprocal: false, k: None });
//! for scheme in WeightingScheme::ALL {
//!     let outcome = session.scheme(scheme).run();   // state reused
//!     assert!(!outcome.pairs().is_empty());
//! }
//! ```
//!
//! # Execution backends
//!
//! Meta-blocking is the pipeline's hot path, and every session runs on
//! one of two backends, selected by [`ExecutionBackend`]. Neither ever
//! builds the global edge set:
//!
//! * **Streaming** — the `streaming` driver sweeps the collection entity
//!   by entity on scoped threads, reconstructing each node's
//!   neighbourhood row in dense epoch-reset accumulators, and emits only
//!   the kept pairs.
//! * **MapReduce** — the paper's distributed formulation (reference
//!   \[4\]) on [`minoan_mapreduce`]: [`parallel`] runs every pruning
//!   family as *entity-partitioned* jobs that shuffle at most one record
//!   per entity neighbourhood instead of one per pair occurrence (the
//!   paper's edge-based strategy). These runs also fill
//!   [`PruneOutcome::report`] with per-job [`JobReport`] stats.
//!
//! Both backends — and the incremental and query-time arms below — are
//! *drivers* over one definition of each pruning family: a global
//! criterion reduced once per corpus (WEP's fixed-shape pairwise mean,
//! CEP's top-k sealed into descending runs and merged under a strict
//! total order, exact f64 `max` for BLAST's and the supervised pruner's
//! maxima), a rule over one neighbourhood row, and a vote combiner. A
//! driver only decides which rows are visited and where the reduction
//! merges.
//!
//! Output is bit-identical across backends for every method, scheme,
//! variant, thread count and worker count, and session-state reuse never
//! changes a bit either. The workspace's integration suites check every
//! driver against one test-only specification of meta-blocking
//! (`tests/common/spec.rs`), and golden digests pin its output by value;
//! every f64 weight is computed through the single
//! [`kernel::weight_from_stats`] body.
//!
//! # Modules
//!
//! * [`session`] — the [`Session`] entry point described above.
//! * `rule` (crate-internal) — each pruning family stated once over a
//!   neighbourhood row, and the run/resolve plans every driver executes.
//! * `streaming` (crate-internal) — the scoped-thread row driver.
//! * [`parallel`] — the MapReduce row driver (entity-based strategy of
//!   reference \[4\]) on [`minoan_mapreduce`].
//! * [`incremental`] — the *updatable* arm: [`IncrementalSession`]
//!   ingests description batches through the delta-appendable block
//!   slabs and patches a per-entity weight-row cache by re-sweeping only
//!   the dirty entities; its outcome is the same rules driven over the
//!   cached rows, bit-identical to a from-scratch run.
//! * [`query`] — query-time resolution: the single-neighbourhood driver
//!   behind [`IncrementalSession::resolve_entity`], bit-identical to the
//!   incident slice of a full run over the arrived descriptions, plus the
//!   [`NeighbourhoodCache`] backing the resolution server.
//! * [`kernel`] — the shared neighbourhood-stats → weight kernel all
//!   backends compute through.
//! * [`weights`] — the five standard edge-weighting schemes (CBS, ECBS,
//!   JS, EJS, ARCS).
//! * [`prune`] — the output types [`WeightedPair`] and
//!   [`PrunedComparisons`], their presentation order, and the WEP
//!   threshold and default-k formulas.
//! * [`blast`](mod@blast) — BLAST's χ² weight and default keep ratio.
//! * [`supervised`] — perceptron-based supervised meta-blocking
//!   (features, training sample, averaged perceptron).

pub mod blast;
pub mod incremental;
pub mod kernel;
pub mod parallel;
pub mod prune;
pub mod query;
mod rule;
pub mod session;
mod streaming;
pub mod supervised;
mod sweep;
pub mod weights;

pub use incremental::{IncrementalSession, IngestReport};
pub use parallel::JobReport;
pub use prune::{PrunedComparisons, WeightedPair};
pub use query::{NeighbourhoodCache, ResolvedEntity};
pub use session::{PruneOutcome, Pruning, Session};
pub use supervised::{EdgeFeatures, Perceptron, TrainingSet};
pub use weights::WeightingScheme;

/// Which execution path meta-blocking runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecutionBackend {
    /// Scoped-thread sweeps; the global edge set is never built for
    /// *any* pruning method (node-centric WNP/CNP/BLAST and edge-centric
    /// WEP/CEP alike).
    #[default]
    Streaming,
    /// Entity-partitioned MapReduce jobs on [`minoan_mapreduce`] — see
    /// [`parallel`]. The worker count is configured on the engine (or the
    /// pipeline's `workers` knob); results never depend on it.
    MapReduce,
}

impl ExecutionBackend {
    /// All backends, for equivalence sweeps.
    pub const ALL: [ExecutionBackend; 2] =
        [ExecutionBackend::Streaming, ExecutionBackend::MapReduce];
}

/// The one definition of "bit-identical pruning output" the in-crate
/// equivalence tests assert: same input-edge count, same pair order,
/// same f64 weight bits. (The workspace-level suites keep their own copy
/// in `tests/common/` — integration tests cannot import `#[cfg(test)]`
/// items.)
#[cfg(test)]
pub(crate) fn assert_bit_identical(a: &PrunedComparisons, b: &PrunedComparisons, label: &str) {
    assert_eq!(a.input_edges, b.input_edges, "{label}: input_edges");
    assert_eq!(a.pairs.len(), b.pairs.len(), "{label}: kept count");
    for (x, y) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!((x.a, x.b), (y.a, y.b), "{label}: pair order");
        assert_eq!(
            x.weight.to_bits(),
            y.weight.to_bits(),
            "{label}: weight bits differ for ({:?},{:?}): {} vs {}",
            x.a,
            x.b,
            x.weight,
            y.weight
        );
    }
}
