//! The matching phase: value similarity of two descriptions.
//!
//! Schema-agnostic value similarity is the primary signal: IDF-weighted
//! token overlap over all blocking tokens of the two descriptions. Where
//! both descriptions have a name-like attribute, a Jaro–Winkler component
//! on their values is blended in at the fixed weight [`NAME_WEIGHT`]
//! (0.25). The engine further combines this *value* similarity with
//! accumulated *neighbour* evidence at the fixed weight
//! [`EVIDENCE_WEIGHT`] (0.3, see [`Matcher::composite`]) — the paper's
//! "similarity evidence of entity neighbors". What a caller sets is only
//! when a score is a match ([`MatcherConfig`]).
//!
//! # What is computed once per entity
//!
//! A comparison recomputes nothing that depends on one description only.
//! The matcher lays out, in flat slabs indexed by entity (the CSR idiom of
//! the block collection):
//!
//! * the sorted, deduplicated blocking-token ids;
//! * the squared IDF of each of those tokens, aligned with the ids, and
//!   the description's TF-IDF norm;
//! * the first name-like literal, lower-cased with `str::to_lowercase`
//!   and *then* split into `char`s (so `Σ` lowers to a final `ς` and `İ`
//!   to two chars exactly as a per-pair `to_lowercase` would).
//!
//! The matcher tokenises nothing itself. The token ids are the value-token
//! symbols of a [`Corpus`], the one block building and the incremental
//! collection read too: [`Matcher::from_corpus`] copies each entity's
//! value tokens and skips the `uri:` keys; [`Matcher::new`] is that over a
//! value-token corpus of its own. Ids therefore depend on which corpus
//! they came from — a `uri:` key interned between two value tokens leaves
//! a gap — but no result does: value tokens keep their relative
//! first-interning order whatever is interned between them, so every run
//! lists the same tokens in the same order, and IDF reads only document
//! frequencies and the entity count.
//!
//! [`Matcher::value_similarity`] is then one merge over two contiguous
//! token runs plus a Jaro–Winkler over two borrowed `&[char]`, with the
//! caller's [`JaroScratch`] as the only working memory. Beyond the token
//! ids this costs `8 B × token occurrences + 4 B × name chars`.
//!
//! # Bit-identity
//!
//! Every float is produced by the expression a from-scratch computation
//! would evaluate, in the same order: a weight is `idf(t).powi(2)`, a norm
//! the `sqrt` of the in-order sum of a description's weights, a dot
//! product accumulates in merge order. A similarity therefore has the same
//! bits as `TfIdfWeights::cosine` over [`Matcher::tokens_of`] blended
//! with `jaro_winkler` of the lower-cased names —
//! `tests::value_similarity_matches_the_written_out_formula` pins that.

use minoan_blocking::builders::TokenKeys;
use minoan_blocking::Corpus;
use minoan_rdf::{Dataset, EntityId};
use minoan_similarity::tfidf::cosine_prepared;
use minoan_similarity::{jaro_winkler_chars, JaroScratch, TfIdfWeights};
use std::ops::Range;

/// Weight of the name-string component: the token component gets
/// `1 − NAME_WEIGHT` when both descriptions have a name.
pub const NAME_WEIGHT: f64 = 0.25;

/// Weight `β` of neighbour evidence in the composite score (see
/// [`Matcher::composite`]).
pub const EVIDENCE_WEIGHT: f64 = 0.3;

/// Matcher configuration: when a scored pair is a match. The token
/// component is always the TF-IDF cosine of the two descriptions' value
/// tokens, blended with the names at [`NAME_WEIGHT`].
#[derive(Clone, Debug)]
pub struct MatcherConfig {
    /// Similarity threshold at or above which a pair is declared a match.
    pub threshold: f64,
    /// Minimum *value* similarity any match must have, regardless of
    /// neighbour evidence — evidence corroborates weak token overlap, it
    /// never substitutes for zero overlap.
    pub value_floor: f64,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        Self {
            threshold: 0.4,
            value_floor: 0.3,
        }
    }
}

/// Precomputed matcher over a dataset (see the module docs for what is
/// precomputed). It has no interior mutability: share `&Matcher` freely.
pub struct Matcher {
    config: MatcherConfig,
    /// `token_ids[token_offsets[e]..token_offsets[e + 1]]`: the sorted,
    /// deduplicated token ids of entity `e`.
    token_offsets: Vec<u32>,
    token_ids: Vec<u32>,
    /// The squared IDF of each entry of `token_ids`.
    idf_sq: Vec<f64>,
    /// The TF-IDF norm of each entity.
    norms: Vec<f64>,
    /// `name_chars[name_offsets[e]..name_offsets[e + 1]]`: the lower-cased
    /// first name-like literal of `e`; meaningful only where `has_name`
    /// (an empty literal is a name, no literal is not).
    name_offsets: Vec<u32>,
    name_chars: Vec<char>,
    has_name: Vec<bool>,
}

/// Appends `name` lower-cased to `out`: lowered as a whole string first,
/// split into chars second, because `str::to_lowercase` is context
/// sensitive (final sigma) and may change the char count.
fn push_lowered(name: &str, out: &mut Vec<char>) {
    if name.is_ascii() {
        out.extend(name.bytes().map(|b| b.to_ascii_lowercase() as char));
    } else {
        // lint:allow(hot-path-alloc): once per entity in `Matcher::new`, and only for non-ASCII names — this is the lowering comparisons no longer repeat
        out.extend(name.to_lowercase().chars());
    }
}

fn slab_offset(len: usize) -> u32 {
    u32::try_from(len).expect("matcher slab exceeds u32 offsets")
}

impl Matcher {
    /// [`Self::from_corpus`] over a value-token corpus of `dataset` built
    /// on all available workers.
    pub fn new(dataset: &Dataset, config: MatcherConfig) -> Self {
        let corpus = Corpus::new(dataset, TokenKeys::Values, minoan_common::default_threads());
        Self::from_corpus(&corpus, config)
    }

    /// Builds the matcher for the dataset of `corpus` under `config` from
    /// its value tokens — the corpus must have kept them
    /// ([`TokenKeys::Values`] or [`TokenKeys::Both`]); typically it is the
    /// one the blocks are built from. Every similarity has the bits
    /// [`Self::new`] gives it.
    pub fn from_corpus(corpus: &Corpus<'_>, config: MatcherConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.threshold) && (0.0..=1.0).contains(&config.value_floor),
            "matcher weights must be in [0,1]"
        );
        assert_ne!(
            corpus.token_keys(),
            Some(TokenKeys::Uris),
            "the matcher reads value tokens: build its corpus with TokenKeys::Values or Both"
        );
        let dataset = corpus.dataset();
        let n = dataset.len();
        let mut token_offsets = Vec::with_capacity(n + 1);
        let mut token_ids = Vec::new();
        token_offsets.push(0);
        let mut name_offsets = Vec::with_capacity(n + 1);
        let mut name_chars: Vec<char> = Vec::new();
        let mut has_name = Vec::with_capacity(n);
        name_offsets.push(0);
        for (e, tokens) in dataset.entities().zip(corpus.value_tokens()) {
            token_ids.extend(tokens.map(|sym| sym.0));
            token_offsets.push(slab_offset(token_ids.len()));
            let name = dataset.first_name_value(e);
            if let Some(name) = name {
                push_lowered(name, &mut name_chars);
            }
            has_name.push(name.is_some());
            name_offsets.push(slab_offset(name_chars.len()));
        }
        let rows = || {
            token_offsets
                .windows(2)
                .map(|w| w[0] as usize..w[1] as usize)
        };
        let idf = TfIdfWeights::build(corpus.keys().len(), rows().map(|r| &token_ids[r]));
        let idf_sq = token_ids.iter().map(|&t| idf.idf_squared(t)).collect();
        let norms = rows().map(|r| idf.norm(&token_ids[r])).collect();
        Self {
            config,
            token_offsets,
            token_ids,
            idf_sq,
            norms,
            name_offsets,
            name_chars,
            has_name,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MatcherConfig {
        &self.config
    }

    fn token_range(&self, e: EntityId) -> Range<usize> {
        self.token_offsets[e.index()] as usize..self.token_offsets[e.index() + 1] as usize
    }

    /// The lower-cased name of `e` as chars, if it has a name-like literal.
    fn name_of(&self, e: EntityId) -> Option<&[char]> {
        let i = e.index();
        self.has_name[i].then(|| {
            &self.name_chars[self.name_offsets[i] as usize..self.name_offsets[i + 1] as usize]
        })
    }

    /// Jaro–Winkler of the two descriptions' lower-cased first name-like
    /// literals; `None` unless both sides have one.
    pub fn name_similarity(
        &self,
        a: EntityId,
        b: EntityId,
        scratch: &mut JaroScratch,
    ) -> Option<f64> {
        Some(jaro_winkler_chars(
            self.name_of(a)?,
            self.name_of(b)?,
            scratch,
        ))
    }

    /// Value similarity of two descriptions in `[0, 1]`. `scratch` is the
    /// caller's working memory for the name component — one per comparison
    /// loop, any state.
    pub fn value_similarity(&self, a: EntityId, b: EntityId, scratch: &mut JaroScratch) -> f64 {
        let (ra, rb) = (self.token_range(a), self.token_range(b));
        let (ta, tb) = (&self.token_ids[ra.clone()], &self.token_ids[rb]);
        let (na, nb) = (self.norms[a.index()], self.norms[b.index()]);
        let tok_sim = cosine_prepared(ta, &self.idf_sq[ra], na, tb, nb);
        match self.name_similarity(a, b, scratch) {
            Some(ns) => (1.0 - NAME_WEIGHT) * tok_sim + NAME_WEIGHT * ns,
            None => tok_sim,
        }
    }

    /// Composite score folding neighbour `evidence` into the value
    /// similarity as an *additive boost*: with evidence `ε` and
    /// `β` = [`EVIDENCE_WEIGHT`], `score = min(1, value + β·min(1, ε))`. Evidence can only help — a
    /// pair never scores below its value similarity (matched neighbours are
    /// positive evidence, per the paper's update phase).
    pub fn composite(&self, value_sim: f64, evidence: f64) -> f64 {
        if evidence <= 0.0 {
            return value_sim;
        }
        (value_sim + EVIDENCE_WEIGHT * evidence.min(1.0)).min(1.0)
    }

    /// Whether a pair is a match: composite score at or above the
    /// threshold *and* value similarity at or above the floor.
    pub fn is_match(&self, value_sim: f64, score: f64) -> bool {
        score >= self.config.threshold && value_sim >= self.config.value_floor
    }

    /// Whether a previously measured pair could now be declared a match
    /// given its (grown) neighbour evidence. Value similarity is
    /// deterministic, so a re-comparison is worth scheduling only when
    /// this returns `true`.
    pub fn could_rematch(&self, last_value: f64, evidence: f64) -> bool {
        self.is_match(last_value, self.composite(last_value, evidence))
    }

    /// The token ids of an entity (sorted, deduplicated) — exposed for
    /// diagnostics and tests.
    pub fn tokens_of(&self, e: EntityId) -> &[u32] {
        &self.token_ids[self.token_range(e)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_datagen::{generate, profiles};
    use minoan_rdf::DatasetBuilder;

    fn sim(m: &Matcher, a: EntityId, b: EntityId) -> f64 {
        m.value_similarity(a, b, &mut JaroScratch::default())
    }

    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        b.add_literal(
            k0,
            "http://a/knossos",
            "http://o/label",
            "Knossos Palace ruins",
        );
        b.add_literal(
            k0,
            "http://a/athens",
            "http://o/label",
            "Athens Acropolis ruins",
        );
        b.add_literal(
            k1,
            "http://b/knossos",
            "http://o/name",
            "Knossos Palace site",
        );
        b.add_literal(
            k1,
            "http://b/sparta",
            "http://o/name",
            "Ancient Sparta site",
        );
        b.build()
    }

    #[test]
    fn matching_pair_scores_higher_than_non_matching() {
        let ds = toy();
        let m = Matcher::new(&ds, MatcherConfig::default());
        let ka = ds.entity_by_uri("http://a/knossos").unwrap();
        let kb = ds.entity_by_uri("http://b/knossos").unwrap();
        let sp = ds.entity_by_uri("http://b/sparta").unwrap();
        assert!(sim(&m, ka, kb) > sim(&m, ka, sp));
        assert!(sim(&m, ka, kb) > 0.4);
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let ds = toy();
        let m = Matcher::new(&ds, MatcherConfig::default());
        for a in ds.entities() {
            for b in ds.entities() {
                let s = sim(&m, a, b);
                assert!((0.0..=1.0 + 1e-9).contains(&s), "({a:?}, {b:?}) gave {s}");
                assert!((s - sim(&m, b, a)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn identical_descriptions_score_near_one() {
        let ds = toy();
        let m = Matcher::new(&ds, MatcherConfig::default());
        for e in ds.entities() {
            assert!(sim(&m, e, e) > 0.99);
        }
    }

    #[test]
    fn composite_blends_evidence() {
        let ds = toy();
        let m = Matcher::new(&ds, MatcherConfig::default());
        assert_eq!(m.composite(0.3, 0.0), 0.3, "no evidence → value only");
        let boosted = m.composite(0.3, 1.0);
        assert!((boosted - (0.3 + EVIDENCE_WEIGHT)).abs() < 1e-12);
        assert!(m.composite(0.9, 10.0) <= 1.0, "evidence clamped");
        // Evidence never hurts.
        assert!(m.composite(0.3, 0.2) >= 0.3);
    }

    #[test]
    fn threshold_separates_truth_on_generated_data() {
        let g = generate(&profiles::center_dense(150, 14));
        let m = Matcher::new(&g.dataset, MatcherConfig::default());
        // Average similarity of true pairs must clearly exceed random pairs.
        let mut truth_sims = Vec::new();
        for (a, b) in g.truth.matching_pair_iter().take(150) {
            truth_sims.push(sim(&m, a, b));
        }
        let mut rand_sims = Vec::new();
        let n = g.dataset.len() as u32;
        for i in 0..150u32 {
            let (a, b) = (EntityId(i % n), EntityId((i * 7 + 3) % n));
            if a != b && !g.truth.is_match(a, b) {
                rand_sims.push(sim(&m, a, b));
            }
        }
        let tm = minoan_common::stats::mean(&truth_sims);
        let rm = minoan_common::stats::mean(&rand_sims);
        assert!(
            tm > rm + 0.3,
            "separation too weak: true {tm:.3} vs random {rm:.3}"
        );
    }

    #[test]
    fn name_component_requires_both_names() {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        // One side has a label, the other only an unrelated property.
        b.add_literal(k0, "http://a/x", "http://o/label", "shared words here");
        b.add_literal(k1, "http://b/x", "http://o/population", "shared words here");
        let ds = b.build();
        let m = Matcher::new(&ds, MatcherConfig::default());
        let a = ds.entity_by_uri("http://a/x").unwrap();
        let bb = ds.entity_by_uri("http://b/x").unwrap();
        // Falls back to pure token similarity = 1.0 (same tokens).
        assert!(sim(&m, a, bb) > 0.99);
    }

    /// `value_similarity` from first principles: the public similarity
    /// functions over `tokens_of`, the names lowered per call.
    fn written_out(ds: &Dataset, m: &Matcher, idf: &TfIdfWeights, a: EntityId, b: EntityId) -> f64 {
        let tok_sim = idf.cosine(m.tokens_of(a), m.tokens_of(b));
        match (ds.name_values(a).first(), ds.name_values(b).first()) {
            (Some(x), Some(y)) => {
                let ns = minoan_similarity::jaro_winkler(&x.to_lowercase(), &y.to_lowercase());
                (1.0 - NAME_WEIGHT) * tok_sim + NAME_WEIGHT * ns
            }
            _ => tok_sim,
        }
    }

    /// Asserts bit-equality with [`written_out`] on `pairs`, with one
    /// scratch reused across all of them.
    fn assert_written_out(ds: &Dataset, pairs: &[(EntityId, EntityId)]) {
        let mut scratch = JaroScratch::default();
        let m = Matcher::new(ds, MatcherConfig::default());
        let vocab = ds
            .entities()
            .flat_map(|e| m.tokens_of(e).iter().copied())
            .max()
            .map_or(0, |t| t as usize + 1);
        let idf = TfIdfWeights::build(vocab, ds.entities().map(|e| m.tokens_of(e)));
        for &(a, b) in pairs {
            let got = m.value_similarity(a, b, &mut scratch);
            let want = written_out(ds, &m, &idf, a, b);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "({a:?}, {b:?}): {got} vs {want}"
            );
        }
    }

    #[test]
    fn value_similarity_matches_the_written_out_formula() {
        for config in [
            profiles::center_dense(120, 5),
            profiles::periphery_sparse(120, 6),
            profiles::lod_cloud(120, 7),
        ] {
            let g = generate(&config);
            let n = g.dataset.len() as u32;
            let mut pairs: Vec<(EntityId, EntityId)> = g.truth.matching_pair_iter().collect();
            // Non-matches too, self-pairs included.
            pairs.extend((0..3 * n).map(|i| (EntityId(i % n), EntityId((i * 31 + i / n) % n))));
            let named = |e| g.dataset.first_name_value(e).is_some();
            assert!(pairs.iter().any(|&(a, b)| named(a) && named(b)));
            assert_written_out(&g.dataset, &pairs);
        }
    }

    /// A matcher read off the corpus the blocks are built from numbers its
    /// tokens differently (the `uri:` keys sit between them) and scores
    /// every candidate the same, whatever the corpus's worker count.
    #[test]
    fn a_shared_pass_gives_the_standalone_matchers_bits() {
        use crate::pipeline::{Pipeline, PipelineConfig};
        let g = generate(&profiles::lod_cloud(200, 19));
        let ds = &g.dataset;
        let pipeline = Pipeline::new(PipelineConfig::default());
        let candidates = pipeline.meta_block(&pipeline.clean_blocks(pipeline.block(ds)));
        assert!(candidates.len() > 1000);
        for threads in [1, 3] {
            let corpus = Corpus::new(ds, TokenKeys::Both, threads);
            let mut scratch = JaroScratch::default();
            let shared = Matcher::from_corpus(&corpus, MatcherConfig::default());
            let standalone = Matcher::new(ds, MatcherConfig::default());
            let renumbered = ds
                .entities()
                .any(|e| shared.tokens_of(e) != standalone.tokens_of(e));
            assert!(renumbered, "the shared pass should interleave uri: keys");
            for e in ds.entities() {
                assert_eq!(shared.tokens_of(e).len(), standalone.tokens_of(e).len());
            }
            for &(a, b, _) in &candidates {
                assert_eq!(
                    shared.value_similarity(a, b, &mut scratch).to_bits(),
                    standalone.value_similarity(a, b, &mut scratch).to_bits(),
                    "({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn value_similarity_lowers_names_as_whole_strings() {
        let long_a = "Saint ".repeat(12) + "Nikolaos of the Harbour";
        let long_b = "saint ".repeat(11) + "NIKOLAOS of the Harbor";
        assert!(long_a.chars().count() > 64 && long_b.chars().count() > 64);
        let names: [Option<&str>; 9] = [
            Some("ΟΔΥΣΣΕΥΣ"), // final sigma: lowers to …υς, not …υσ
            Some("Οδυσσεύς"),
            Some("İstanbul"), // İ lowers to two chars
            Some("istanbul"),
            Some(""), // an empty literal is still a name
            Some(""),
            None, // a name on one side only
            Some(&long_a),
            Some(&long_b),
        ];
        let mut b = DatasetBuilder::new();
        let kb = b.add_kb("kb", "http://k/");
        for (i, name) in names.iter().enumerate() {
            let uri = format!("http://k/e{i}");
            b.add_literal(
                kb,
                &uri,
                "http://o/comment",
                "odysseus istanbul harbour saint",
            );
            if let Some(name) = name {
                b.add_literal(kb, &uri, "http://o/label", name);
            }
        }
        let ds = b.build();
        assert_eq!("ΟΔΥΣΣΕΥΣ".to_lowercase(), "οδυσσευς");
        assert_eq!("İstanbul".to_lowercase().chars().count(), 9);
        let all: Vec<(EntityId, EntityId)> = ds
            .entities()
            .flat_map(|a| ds.entities().map(move |b| (a, b)))
            .collect();
        assert_written_out(&ds, &all);
        // One side without a name: tokens alone decide.
        let m = Matcher::new(&ds, MatcherConfig::default());
        let (named, unnamed) = (EntityId(3), EntityId(6));
        assert_eq!(
            m.name_similarity(named, unnamed, &mut JaroScratch::default()),
            None
        );
        assert_eq!(
            m.name_similarity(EntityId(4), EntityId(5), &mut JaroScratch::default()),
            Some(1.0)
        );
    }

    #[test]
    fn matcher_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Matcher>();
    }

    #[test]
    #[should_panic(expected = "matcher weights")]
    fn invalid_config_panics() {
        let ds = toy();
        let _ = Matcher::new(
            &ds,
            MatcherConfig {
                threshold: 1.5,
                ..Default::default()
            },
        );
    }
}
