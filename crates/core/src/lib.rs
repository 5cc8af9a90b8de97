//! # MinoanER — progressive entity resolution in the Web of Data
//!
//! This crate is the paper's primary contribution: it extends the typical
//! ER workflow (blocking → meta-blocking → matching) with a **scheduling**
//! phase that picks which candidate comparisons run and in what order, a
//! **matching** phase that executes them, and an **update** phase that
//! propagates match results to *neighbour* (linked) descriptions —
//! discovering and promoting candidate pairs that blocking alone misses —
//! iterating until a computational **cost budget** is consumed.
//!
//! Unlike prior progressive relational ER (Altowim et al., PVLDB 2014),
//! which maximises the *quantity* of resolved pairs, the scheduler here can
//! target three data-quality **benefit models**:
//! [`BenefitModel::AttributeCompleteness`], [`BenefitModel::EntityCoverage`]
//! and [`BenefitModel::RelationshipCompleteness`]
//! (plus [`BenefitModel::PairQuantity`], the baseline).
//!
//! ## Modules
//!
//! * [`candidates`] — the candidate pool: prior weights from meta-blocking
//!   plus accumulated neighbour evidence.
//! * [`matcher`] — value similarity (IDF-weighted token overlap + string
//!   similarity on name attributes) and the composite score that folds in
//!   neighbour evidence.
//! * [`similarity`] — the measures the matcher scores with: TF-IDF
//!   cosine, Jaro–Winkler, Jaccard.
//! * [`benefit`] — the four benefit models over the live resolution state.
//! * [`scheduler`] — the lazy priority queue driving the schedule phase.
//! * [`engine`] — the schedule → match → update loop under a budget, with
//!   resumable state that both the batch and the arrival driver run.
//! * [`trace`] — the per-comparison resolution trace evaluation consumes.
//! * [`clustering`] — from matches to entities: connected components,
//!   center, merge-center and unique-mapping clustering.
//! * [`oracle`] — ground-truth schedules: upper bounds for scheduling.
//! * [`incremental`] — the arrival driver: clean–clean resolution of
//!   descriptions as they arrive, the engine's loop run for a hard slice
//!   of comparisons per arrival.
//! * [`rules`] — the non-iterative composite rules (name and value
//!   reciprocity, rank aggregation).
//! * [`pipeline`] — the end-to-end MinoanER platform API (Figure 1 of the
//!   paper): dataset in, resolution out.
//!
//! ## Quickstart
//!
//! ```
//! use minoan_datagen::{generate, profiles};
//! use minoan_er::pipeline::{Pipeline, PipelineConfig};
//!
//! let g = generate(&profiles::center_dense(150, 1));
//! let out = Pipeline::new(PipelineConfig::default()).run(&g.dataset);
//! assert!(!out.resolution.matches.is_empty());
//! ```

pub mod benefit;
pub mod candidates;
pub mod clustering;
pub mod engine;
pub mod incremental;
pub mod matcher;
pub mod oracle;
pub mod pipeline;
pub mod rules;
pub mod scheduler;
pub mod similarity;
pub mod trace;

pub use benefit::BenefitModel;
pub use candidates::{CandidateId, CandidatePool};
pub use clustering::ClusteringAlgorithm;
pub use engine::{ProgressiveResolver, Resolution, ResolverConfig, Strategy};
pub use incremental::{ArrivalReport, IncrementalConfig, IncrementalResolver};
pub use matcher::{Matcher, MatcherConfig};
pub use oracle::{oracle_trace, perfect_trace, schedule_efficiency};
pub use pipeline::{Pipeline, PipelineConfig, PipelineOutput};
pub use rules::{CompositeResolution, CompositeResolver, Rule, RuleMatch};
pub use trace::{Trace, TraceStep};
