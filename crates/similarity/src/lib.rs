//! Similarity measures for entity matching.
//!
//! The matching phase of MinoanER compares entity descriptions using
//! token-set evidence (schema-agnostic, the primary signal in the Web of
//! Data) optionally combined with character-level string similarity on
//! name-like attributes. This crate provides both families:
//!
//! * [`token`] — Jaccard, Dice, overlap and cosine coefficients over sorted
//!   symbol slices, plus weighted (IDF) variants.
//! * [`string`] — Levenshtein, Jaro, Jaro–Winkler and q-gram similarity.
//! * [`tfidf`] — corpus-level document-frequency statistics producing the
//!   IDF weights used by the weighted token measures.
//! * [`minhash`] — MinHash signatures for O(k) approximate Jaccard.
//!
//! All similarities are in `[0, 1]`, higher = more similar.

#![forbid(unsafe_code)]

pub mod minhash;
pub mod string;
pub mod tfidf;
pub mod token;

pub use minhash::{MinHasher, Signature};
pub use string::{
    jaro, jaro_winkler, jaro_winkler_chars, levenshtein, levenshtein_similarity, qgram_similarity,
    JaroScratch,
};
pub use tfidf::TfIdfWeights;
pub use token::{cosine, dice, jaccard, overlap_coefficient, weighted_jaccard};
