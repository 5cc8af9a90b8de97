//! # minoan — facade crate for the MinoanER reproduction
//!
//! Re-exports the full public API of the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`common`] | `minoan-common` | hashing, interning, union–find, top-k, Zipf |
//! | [`rdf`] | `minoan-rdf` | RDF model, N-Triples, datasets, tokenisation |
//! | [`datagen`] | `minoan-datagen` | synthetic LOD worlds + ground truth |
//! | [`mapreduce`] | `minoan-mapreduce` | the in-process MapReduce engine |
//! | [`blocking`] | `minoan-blocking` | token/URI/attribute-clustering blocking, purging, filtering |
//! | [`metablocking`] | `minoan-metablocking` | the meta-blocking `Session` (scheme × pruning × backend), weighting, incremental session |
//! | [`er`] | `minoan-er` | **the progressive ER engine and pipeline**; the matcher's similarity measures (`er::similarity`) |
//! | [`eval`] | `minoan-eval` | PC/PQ/RR, precision/recall, progressive curves, bootstrap CIs, ASCII plots |
//!
//! See `examples/quickstart.rs` for the end-to-end workflow of the paper's
//! Figure 1.

pub use minoan_blocking as blocking;
pub use minoan_common as common;
pub use minoan_datagen as datagen;
pub use minoan_er as er;
pub use minoan_eval as eval;
pub use minoan_mapreduce as mapreduce;
pub use minoan_metablocking as metablocking;
pub use minoan_rdf as rdf;

/// Convenience prelude with the names almost every user needs.
pub mod prelude {
    pub use minoan_blocking::{builders, filter, purge, BlockCollection, ErMode};
    pub use minoan_datagen::{generate, profiles, GroundTruth, WorldConfig};
    pub use minoan_er::{
        BenefitModel, Matcher, MatcherConfig, Pipeline, PipelineConfig, ProgressiveResolver,
        Resolution, ResolverConfig, Strategy, Trace,
    };
    pub use minoan_eval::{metrics, progressive, Table};
    pub use minoan_mapreduce::Engine;
    pub use minoan_metablocking::{
        prune, ExecutionBackend, PruneOutcome, Pruning, Session, WeightingScheme,
    };
    pub use minoan_rdf::{Dataset, DatasetBuilder, EntityId, KbId};
}
