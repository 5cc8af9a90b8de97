//! Minimal RDF substrate for the MinoanER reproduction.
//!
//! The paper resolves entities "described by linked data in the Web (e.g.,
//! in RDF)". Mature RDF stacks are not available in this environment, so
//! this crate implements exactly the subset the ER algorithms exercise:
//!
//! * [`term`] — RDF terms (IRIs, literals, blank nodes), owned triples and
//!   the borrowed [`Statement`] the parsers yield.
//! * [`ntriples`] — a line-based N-Triples pull parser and serialiser.
//! * [`turtle`] — the Turtle subset LOD dumps use, and a writer.
//! * [`tokenize`] — schema-agnostic tokenisation of literal values and the
//!   Prefix-Infix(-Suffix) decomposition of entity URIs used by blocking.
//! * [`dataset`] — the entity-centric view: descriptions (one per subject,
//!   stored as rows over flat slabs), knowledge bases, and the
//!   cross-description neighbour graph that the progressive update phase
//!   walks.
//!
//! # From text to a `Dataset`
//!
//! Text becomes a [`Dataset`] in one pass: a parser yields [`Statement`]s
//! and [`DatasetBuilder::add_statement`] files each under its subject. No
//! intermediate triple list or store exists on this path
//! ([`DatasetBuilder::load_files`] is what `minoan resolve` calls).
//!
//! * **Statement lifetime.** A [`Statement`]'s terms are `&str` slices of
//!   what the parser is reading — the document for
//!   [`ntriples::statements`] and [`turtle::for_each_statement`], the one
//!   reusable line buffer for [`ntriples::StatementReader`] — so a
//!   statement is valid until the parser moves on. The file loaders read a
//!   file whole and parse it in place, so their statements borrow the
//!   file's bytes (or a line-aligned piece of them, when
//!   [`DatasetBuilder::load_files`] parses one document on several
//!   threads); only [`DatasetBuilder::load_ntriples`] streams through the
//!   line buffer. [`Statement::to_triple`] makes the owned copy;
//!   [`ntriples::parse_document`] and [`parse_turtle`] are collectors that
//!   do exactly that.
//! * **What allocates.** The N-Triples parser allocates only for a literal
//!   that spells an escape (the `Cow` turns owned). Turtle additionally
//!   composes prefixed names, base-relative IRIs and anonymous-node labels.
//!   The builder allocates nothing per statement: a value is an append to
//!   one text arena, an attribute an append to one log, a new subject an
//!   append to the URI interner (see [`dataset`]'s module docs).
//! * **Errors.** Malformed input — bad syntax, a bad escape, invalid
//!   UTF-8, a read that fails — is an error carrying the 1-based line,
//!   never a panic; parsing stops there. Nothing is allocated by a size the
//!   input merely *claims*: buffers grow with the bytes actually read.
//!
//! # Example
//!
//! ```
//! use minoan_rdf::dataset::DatasetBuilder;
//!
//! let mut b = DatasetBuilder::new();
//! let kb = b.add_kb("dbpedia", "http://dbpedia.org/resource/");
//! b.add_literal(kb, "http://dbpedia.org/resource/Heraklion", "rdfs:label", "Heraklion city");
//! b.add_resource(kb, "http://dbpedia.org/resource/Heraklion", "dbo:region",
//!                "http://dbpedia.org/resource/Crete");
//! b.add_literal(kb, "http://dbpedia.org/resource/Crete", "rdfs:label", "Crete island");
//! let ds = b.build();
//! assert_eq!(ds.len(), 2);
//! let heraklion = ds.entity_by_uri("http://dbpedia.org/resource/Heraklion").unwrap();
//! assert_eq!(ds.neighbors(heraklion).len(), 1);
//! ```

pub mod dataset;
pub mod ntriples;
pub mod term;
pub mod tokenize;
pub mod turtle;

pub use dataset::{Dataset, DatasetBuilder, Description, EntityId, KbId, KbInfo, LoadError, Value};
pub use term::{Literal, Object, Statement, Subject, Term, Triple};
pub use turtle::{parse_turtle, TurtleError};
