//! Blocking for entity resolution in the Web of Data.
//!
//! "Blocking places similar entity descriptions into blocks, leaving to the
//! entity matching algorithm the comparisons only between descriptions
//! within the same block" (paper §1). Following the paper, all blocking
//! here is **schema-agnostic**: keys come from tokens of attribute values
//! and URIs, never from schema knowledge.
//!
//! # The flat layout
//!
//! The paper's pipeline is *block building → block purging → block
//! filtering → meta-blocking*, and on power-law token-blocking output the
//! first three stages dominate end-to-end wall clock once meta-blocking
//! runs as node-centric sweeps over the collection. The whole layer is
//! therefore flat and string-free:
//!
//! * **Build** — the token/URI builders intern each token into a
//!   [`Symbol`](minoan_common::Symbol) *during* tokenisation
//!   ([`corpus::KeyAssignments`]); no owned key string is ever
//!   accumulated per token occurrence. The collection is assembled by a
//!   two-pass counting sort ([`BlockCollection::from_corpus`]) into
//!   two CSR slab pairs — `block_offsets`/`block_entities` (block →
//!   sorted members) and `entity_offsets`/`entity_block_ids` (entity →
//!   sorted block ids) — plus per-block comparison counts and the
//!   precomputed ARCS reciprocal `1/‖b‖` slab the meta-blocking sweeps
//!   read directly. The sort is thread-parallel over entity ranges
//!   (`std::thread::scope`) and bit-identical for every thread count.
//! * **Purge** ([`purge`]) — the comparison-cardinality scan reads the
//!   per-block slab and emits a per-block retain mask; the successor is
//!   written straight into fresh slabs (kept member runs are memcpy'd,
//!   ids remapped, interner shared). Nothing is re-hashed or re-interned.
//! * **Filter** ([`filter`]) — one pass over the inverted slab marks the
//!   retained `(entity, block)` assignments in a mask (reused scratch +
//!   `select_nth_unstable_by_key` keep-`k` split per entity); the masked
//!   assignments are counting-sorted into the successor's slabs and
//!   blocks left without comparisons are dropped by the same id remap.
//!
//! Every blocker that keys each entity on its own — token, URI infix,
//! attribute clustering, q-grams, extended q-grams, MinHash-LSH — pushes
//! that entity's keys into [`KeyAssignments`] and builds through
//! `from_assignments_with_threads`. Only the blockers whose output is a set of groups
//! by nature — sorted-neighbourhood windows, canopy clusters and the
//! MapReduce job's reduced blocks — call the string-keyed
//! [`BlockCollection::from_groups`], which produces the identical
//! collection for the same logical groups and is the reference build the
//! specification tests compare against.
//!
//! # Modules
//!
//! * [`builders`] — token blocking, Prefix-Infix(-Suffix) URI blocking,
//!   attribute-clustering blocking, and their combination; the token
//!   pass; [`Method`], the catalogue of every method, whose
//!   [`Method::run`] is the one place a method is mapped to its builder.
//!   A method carries no parameters: each module fixes its own as named
//!   constants (window, q, bands and rows, canopy thresholds), and
//!   attribute clustering runs at [`builders::ATTRIBUTE_LINK_THRESHOLD`].
//! * [`canopy`] — canopy clustering over token-set similarity.
//! * [`collection`] — the [`BlockCollection`] representation shared with
//!   meta-blocking (CSR slabs, per-entity block lists, comparison
//!   counting for dirty and clean–clean ER).
//! * [`corpus`] — per-entity key runs, and [`Corpus`]: one token pass,
//!   numbered once, that every token-keyed reader is built from.
//! * [`delta`] — the updatable arm: [`delta::IncrementalCollection`],
//!   token blocking over one universe corpus, delta-appended per
//!   arrival batch, reporting the dirty sets the meta-blocking
//!   delta-sweep consumes and swept in place through [`BlockView`].
//! * `layout` *(crate-internal)* — the counting-sort CSR transpose every
//!   construction path is built on, plus the backward sorted-merge
//!   delta-append primitive.
//! * [`purge`] — comparison-based block purging (drops oversized blocks).
//! * [`filter`] — block filtering (each entity keeps its `r`% smallest
//!   blocks).
//! * [`lsh`] — MinHash-LSH banding: a block per band bucket.
//! * [`qgrams`] — q-gram and extended q-gram blocking, for keys that
//!   survive typos.
//! * [`sorted_neighborhood`](mod@sorted_neighborhood) — fixed-window and
//!   adaptive sorted neighbourhood over sorted blocking keys.
//! * [`parallel`] — token blocking as a MapReduce job on
//!   [`minoan_mapreduce::Engine`], the substrate of reference \[5\].
//!
//! # Example
//!
//! ```
//! use minoan_datagen::{generate, profiles};
//! use minoan_blocking::{builders, filter, purge, ErMode};
//!
//! let g = generate(&profiles::center_dense(150, 7));
//! // Build → purge → filter: the paper's block cleaning pipeline.
//! let blocks = builders::token_blocking(&g.dataset, ErMode::CleanClean);
//! let cleaned = filter::filter(&purge::purge(&blocks).collection);
//! assert!(cleaned.len() > 0);
//! assert!(cleaned.total_comparisons() <= blocks.total_comparisons());
//! // Slice accessors read straight from the slabs.
//! let b = cleaned.block(minoan_blocking::BlockId(0));
//! assert_eq!(b.entities, cleaned.block_entities(b.id));
//! ```

pub mod builders;
pub mod canopy;
pub mod collection;
pub mod corpus;
pub mod delta;
pub mod filter;
mod layout;
pub mod lsh;
pub mod parallel;
pub mod purge;
pub mod qgrams;
pub mod sorted_neighborhood;

pub use builders::Method;
pub use canopy::canopy_blocking;
pub use collection::{
    BlockCollection, BlockId, BlockRef, BlockView, Direction, ErMode, KeyAssignments,
};
pub use corpus::Corpus;
pub use delta::{DeltaOutcome, IncrementalCollection};
pub use lsh::minhash_lsh_blocking;
pub use qgrams::{extended_qgram_blocking, qgram_blocking};
pub use sorted_neighborhood::{adaptive_sorted_neighborhood, sorted_neighborhood};
