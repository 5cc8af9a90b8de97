//! Similarity measures for entity matching.
//!
//! The matching phase of MinoanER compares entity descriptions using
//! token-set evidence (schema-agnostic, the primary signal in the Web of
//! Data) optionally combined with character-level string similarity on
//! name-like attributes. This crate provides both families:
//!
//! * [`token`] — the Jaccard coefficient over sorted symbol slices.
//! * [`string`] — Jaro and Jaro–Winkler similarity.
//! * [`tfidf`] — corpus-level document-frequency statistics and the
//!   TF-IDF cosine the matcher scores value tokens with.
//! * [`minhash`] — MinHash signatures for O(k) approximate Jaccard.
//!
//! All similarities are in `[0, 1]`, higher = more similar.

pub mod minhash;
pub mod string;
pub mod tfidf;
pub mod token;

pub use minhash::{MinHasher, Signature};
pub use string::{jaro, jaro_winkler, jaro_winkler_chars, JaroScratch};
pub use tfidf::TfIdfWeights;
pub use token::jaccard;
