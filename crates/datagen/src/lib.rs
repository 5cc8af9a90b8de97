//! Synthetic LOD-cloud generator with exact ground truth.
//!
//! The paper evaluates on Web-of-Data KBs (DBpedia, GeoNames, BBCmusic, …)
//! that cannot be redistributed here. This crate substitutes them with a
//! *parameterised* generator that reproduces the phenomena the paper builds
//! on (§1):
//!
//! * **Highly similar** descriptions — many common tokens in values of
//!   semantically related attributes; typical of the *centre* of the LOD
//!   cloud (encyclopaedic KBs with shared vocabularies).
//! * **Somehow similar** descriptions — significantly fewer common tokens,
//!   attributes not semantically related; typical of the sparsely
//!   interlinked *periphery* (proprietary vocabularies — the paper notes
//!   58.24% of LOD vocabularies are used by a single KB).
//! * Skewed token popularity (Zipf), per-KB attribute vocabularies with a
//!   controllable overlap ratio, value noise, and a relationship graph
//!   between entities that per-KB descriptions inherit.
//!
//! The generator first builds a *world* of real-world entities (each with
//! canonical attributes, name tokens and links), then *describes* a subset
//! of the world in each configured KB, applying that KB's vocabulary
//! mapping and noise. Every description remembers which world entity it
//! describes — the [`GroundTruth`].
//!
//! # Example
//!
//! ```
//! use minoan_datagen::{profiles, generate};
//!
//! let world = generate(&profiles::center_dense(500, 42));
//! assert_eq!(world.dataset.kb_count(), 2);
//! assert!(world.truth.matching_pairs() > 0);
//! ```

pub mod config;
pub mod corruption;
pub mod emit;
pub mod profiles;
pub mod stream;
pub mod truth;
pub mod world;

pub use config::{KbConfig, WorldConfig};
pub use corruption::CorruptionModel;
pub use emit::{generate, GeneratedWorld};
pub use stream::ArrivalOrder;
pub use truth::GroundTruth;
pub use world::{World, WorldEntity};
