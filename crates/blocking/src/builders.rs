//! Blocking-key extractors, and [`Method`]: the catalogue of every
//! blocking method and the one place a method is mapped to its builder.
//!
//! All builders are schema-agnostic per the paper: keys are tokens of
//! attribute values and URIs, with no assumptions about the schema.
//!
//! The token/URI builders are **string-free end to end**: tokens are
//! interned into [`Symbol`](minoan_common::Symbol)s *during* tokenisation
//! (through [`KeyAssignments`]) instead of accumulating a
//! `HashMap<String, Vec<EntityId>>` of owned groups, and the collection is
//! assembled by the counting-sort CSR build
//! ([`BlockCollection::from_corpus`]). URI keys live in a disjoint
//! `uri:` symbol namespace composed without a `format!` per token.
//!
//! # One token pass
//!
//! [`token_pass`] is the only place a description is reduced to tokens,
//! and [`Corpus::new`] its one product caller: the three token builders
//! are a corpus under a [`TokenKeys`] selection fed to
//! [`BlockCollection::from_corpus`]. The matcher and the incremental
//! collection read a corpus too ([`crate::corpus`]).

use crate::canopy::canopy_blocking;
use crate::collection::{BlockCollection, ErMode, KeyAssignments};
use crate::corpus::Corpus;
use crate::layout::split_rows;
use crate::lsh::minhash_lsh_blocking;
use crate::qgrams::{extended_qgram_blocking, qgram_blocking};
use crate::sorted_neighborhood::{adaptive_sorted_neighborhood, sorted_neighborhood};
use minoan_common::{default_threads, FxHashMap, FxHashSet, UnionFind};
use minoan_rdf::tokenize::{self, TokenBuffers};
use minoan_rdf::{Dataset, EntityId, Value};
use std::collections::BTreeMap;
use std::ops::Range;

/// Namespace prefix keeping URI-infix keys disjoint from value-token keys.
const URI_PREFIX: &str = "uri:";

/// The attribute-link threshold [`Method::AttributeClustering`] runs
/// [`attribute_clustering_blocking`] at.
pub const ATTRIBUTE_LINK_THRESHOLD: f64 = 0.3;

/// A blocking method. Each runs at the parameters its module fixes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Method {
    /// Token blocking over values + resource URIs.
    Token,
    /// Prefix-Infix(-Suffix) URI blocking.
    UriInfix,
    /// Token ∪ URI blocking (the paper's default criterion).
    TokenAndUri,
    /// Attribute-clustering blocking at [`ATTRIBUTE_LINK_THRESHOLD`].
    AttributeClustering,
    /// Character q-grams of the tokens ([`qgrams::Q`](crate::qgrams::Q)).
    QGrams,
    /// Extended q-grams ([`qgrams::EXTENDED_THRESHOLD`](crate::qgrams::EXTENDED_THRESHOLD)).
    ExtendedQGrams,
    /// Fixed-window sorted neighborhood
    /// ([`sorted_neighborhood::WINDOW`](crate::sorted_neighborhood::WINDOW)).
    SortedNeighborhood,
    /// Adaptive sorted neighborhood
    /// ([`sorted_neighborhood::PREFIX_LEN`](crate::sorted_neighborhood::PREFIX_LEN),
    /// [`sorted_neighborhood::MAX_BLOCK`](crate::sorted_neighborhood::MAX_BLOCK)).
    AdaptiveSortedNeighborhood,
    /// MinHash-LSH banding ([`lsh::BANDS`](crate::lsh::BANDS) ×
    /// [`lsh::ROWS`](crate::lsh::ROWS)).
    MinHashLsh,
    /// Canopy clustering ([`canopy::T1`](crate::canopy::T1),
    /// [`canopy::T2`](crate::canopy::T2)).
    Canopy,
}

impl Method {
    /// Runs the method. The builders that key each entity through
    /// [`KeyAssignments`] tokenise and build on `threads` workers; the
    /// blocks do not depend on `threads`. The token methods build the
    /// blocks of a [`Corpus`] under their [`TokenKeys`].
    pub fn run(&self, dataset: &Dataset, mode: ErMode, threads: usize) -> BlockCollection {
        let tokens = |keys| {
            BlockCollection::from_corpus(&Corpus::new(dataset, keys, threads), mode, threads)
        };
        match *self {
            Method::Token => tokens(TokenKeys::Values),
            Method::UriInfix => tokens(TokenKeys::Uris),
            Method::TokenAndUri => tokens(TokenKeys::Both),
            Method::AttributeClustering => attribute_clustering_blocking(dataset, mode, threads),
            Method::QGrams => qgram_blocking(dataset, mode, threads),
            Method::ExtendedQGrams => extended_qgram_blocking(dataset, mode, threads),
            Method::SortedNeighborhood => sorted_neighborhood(dataset, mode),
            Method::AdaptiveSortedNeighborhood => adaptive_sorted_neighborhood(dataset, mode),
            Method::MinHashLsh => minhash_lsh_blocking(dataset, mode, threads),
            Method::Canopy => canopy_blocking(dataset, mode),
        }
    }
}

/// Which tokens of a description [`token_pass`] turns into keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKeys {
    /// Tokens of every attribute value: literal tokens and resource-URI
    /// infix tokens, as plain keys.
    Values,
    /// Tokens of the subject URI's infix, as `uri:` keys.
    Uris,
    /// Both; the `uri:` prefix keeps the two key spaces disjoint.
    Both,
}

/// The token pass over entities `range`, through an interner of its own.
fn tokenize_range(dataset: &Dataset, keys: TokenKeys, range: Range<usize>) -> KeyAssignments {
    let mut asg = KeyAssignments::with_capacity(range.len());
    let mut buffers = TokenBuffers::default();
    for e in range {
        let e = EntityId(e as u32);
        if keys != TokenKeys::Uris {
            dataset.for_each_blocking_token(e, &mut buffers, |tok| asg.push_key(tok));
        }
        if keys != TokenKeys::Values {
            tokenize::uri_infix_tokens_with(dataset.uri(e), &mut buffers, |tok| {
                asg.push_key_prefixed(URI_PREFIX, tok)
            });
        }
        asg.seal_entity();
    }
    asg
}

/// Tokenises the contiguous entity `ranges` (together `0..dataset.len()`,
/// in order) side by side and folds them left into one accumulator.
fn token_pass_over(dataset: &Dataset, keys: TokenKeys, ranges: &[Range<usize>]) -> KeyAssignments {
    let Some((first, rest)) = ranges.split_first() else {
        return KeyAssignments::default();
    };
    std::thread::scope(|s| {
        let tails: Vec<_> = rest
            .iter()
            .map(|range| s.spawn(|| tokenize_range(dataset, keys, range.clone())))
            .collect();
        let mut pass = tokenize_range(dataset, keys, first.clone());
        for tail in tails {
            pass.append(
                tail.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        pass
    })
}

/// The token pass: tokenises every description of `dataset` once and
/// returns, per entity, the sealed run of its `keys` over one interner,
/// value tokens plain and `uri:` keys marked namespaced.
///
/// The result is the same for every `threads` value (including 1).
/// Contiguous entity ranges of roughly equal attribute count are
/// tokenised into range-local interners on scoped threads, then folded
/// left (`KeyAssignments::append`): range `k`'s strings enter the global
/// interner in their local symbol order, which is the order a serial pass
/// would have met them first, so symbols, runs and marking are exactly the
/// serial ones. The fold costs one intern per *distinct* string of every
/// range but the first.
pub fn token_pass(dataset: &Dataset, keys: TokenKeys, threads: usize) -> KeyAssignments {
    let cost_ends: Vec<u32> = dataset
        .entities()
        .scan(0u32, |cost, e| {
            let work = dataset.description(e).attributes().len() + 1;
            *cost = cost.saturating_add(u32::try_from(work).unwrap_or(u32::MAX));
            Some(*cost)
        })
        .collect();
    token_pass_over(dataset, keys, &split_rows(&cost_ends, threads))
}

/// Token blocking: one block per distinct token appearing in any attribute
/// value (literal tokens + resource-URI infix tokens) of a description.
/// This and [`token_and_uri_blocking`] are [`Method::run`] on
/// [`default_threads`].
pub fn token_blocking(dataset: &Dataset, mode: ErMode) -> BlockCollection {
    Method::Token.run(dataset, mode, default_threads())
}

/// Token blocking ∪ URI-infix blocking — the paper's "common token in their
/// descriptions *or URIs*" criterion in one collection. Key spaces are kept
/// disjoint by the `uri:` prefix.
pub fn token_and_uri_blocking(dataset: &Dataset, mode: ErMode) -> BlockCollection {
    Method::TokenAndUri.run(dataset, mode, default_threads())
}

/// Attribute-clustering blocking (Papadakis et al. style): attribute names
/// are clustered across KBs by the similarity of their aggregate value
/// token sets; token keys are then qualified by cluster id, so the same
/// token in *unrelated* attributes no longer collides.
///
/// [`ATTRIBUTE_LINK_THRESHOLD`] is the minimum token-Jaccard between two
/// attributes' value vocabularies for them to be linked (clusters = connected
/// components of best-match links). Attributes that match nothing form
/// singleton clusters; a shared "glue" cluster is NOT used — unmatched
/// attributes keep their own key space, which is what prunes the false
/// conflicts.
///
/// The blocks are built on `threads` workers and do not depend on it.
pub fn attribute_clustering_blocking(
    dataset: &Dataset,
    mode: ErMode,
    threads: usize,
) -> BlockCollection {
    // 1. Aggregate value-token vocabulary per (kb, attribute symbol).
    //    Attribute identity must be KB-scoped: the same predicate IRI in two
    //    KBs is still clustered (its token sets will be near-identical).
    let mut vocab: BTreeMap<(u16, u32), FxHashSet<String>> = BTreeMap::new();
    for e in dataset.entities() {
        let kb = dataset.kb_of(e).0;
        for (p, v) in dataset.description(e).attributes() {
            let toks = match v {
                Value::Literal(s) => tokenize::value_tokens(s).collect::<Vec<_>>(),
                Value::Resource(u) => tokenize::uri_infix_tokens(u),
            };
            let entry = vocab.entry((kb, p.0)).or_default();
            for t in toks {
                entry.insert(t);
            }
        }
    }
    let attrs: Vec<((u16, u32), FxHashSet<String>)> = vocab.into_iter().collect();

    // 2. Best-match links across KBs, kept when above the threshold.
    let n = attrs.len();
    let mut uf = UnionFind::new(n);
    for i in 0..n {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..n {
            if attrs[i].0 .0 == attrs[j].0 .0 {
                continue; // same KB
            }
            let sim = set_jaccard(&attrs[i].1, &attrs[j].1);
            if sim >= ATTRIBUTE_LINK_THRESHOLD && best.map(|(_, s)| sim > s).unwrap_or(true) {
                best = Some((j, sim));
            }
        }
        if let Some((j, _)) = best {
            uf.union(i as u32, j as u32);
        }
    }
    let cluster_of: FxHashMap<(u16, u32), u32> = attrs
        .iter()
        .enumerate()
        .map(|(i, (key, _))| (*key, uf.find(i as u32)))
        .collect();

    // 3. Cluster-qualified token keys: one `c{cluster}:` prefix composed
    //    per attribute occurrence, then interned per token — no owned key
    //    string per token occurrence.
    let mut asg = KeyAssignments::with_capacity(dataset.len());
    let mut buffers = TokenBuffers::default();
    // lint:allow(hot-path-alloc): one buffer reused across all attribute occurrences
    let mut prefix = String::new();
    for e in dataset.entities() {
        let kb = dataset.kb_of(e).0;
        for (p, v) in dataset.description(e).attributes() {
            let Some(&cluster) = cluster_of.get(&(kb, p.0)) else {
                continue;
            };
            use std::fmt::Write as _;
            prefix.clear();
            let _ = write!(prefix, "c{cluster}:");
            match v {
                Value::Literal(s) => tokenize::value_tokens_with(s, &mut buffers, |tok| {
                    asg.push_key_prefixed(&prefix, tok)
                }),
                Value::Resource(u) => tokenize::uri_infix_tokens_with(u, &mut buffers, |tok| {
                    asg.push_key_prefixed(&prefix, tok)
                }),
            }
        }
        asg.seal_entity();
    }
    BlockCollection::from_assignments_with_threads(dataset, mode, asg, threads)
}

fn set_jaccard(a: &FxHashSet<String>, b: &FxHashSet<String>) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    #[expect(clippy::disallowed_methods, reason = "only counts")]
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_common::Symbol;
    use minoan_datagen::{generate, profiles};
    use minoan_rdf::DatasetBuilder;

    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/r/");
        let k1 = b.add_kb("b", "http://b/r/");
        b.add_literal(
            k0,
            "http://a/r/Knossos_Palace",
            "http://a/o/label",
            "Knossos palace Crete",
        );
        b.add_literal(k0, "http://a/r/Athens", "http://a/o/label", "Athens Greece");
        b.add_literal(
            k1,
            "http://b/r/Knossos",
            "http://b/o/name",
            "Knossos ruins Crete",
        );
        b.add_literal(k1, "http://b/r/Sparta", "http://b/o/name", "Sparta Greece");
        b.build()
    }

    #[test]
    fn token_blocking_groups_by_common_tokens() {
        let ds = toy();
        let c = token_blocking(&ds, ErMode::CleanClean);
        let keys: Vec<&str> = (0..c.len())
            .map(|i| c.key_str(crate::BlockId(i as u32)))
            .collect();
        assert!(keys.contains(&"knossos"));
        assert!(keys.contains(&"crete"));
        assert!(keys.contains(&"greece"));
        // "palace" appears only in KB a → no cross-KB comparison → dropped.
        assert!(!keys.contains(&"palace"));
    }

    #[test]
    fn uri_blocking_uses_infixes_only() {
        let ds = toy();
        let c = Method::UriInfix.run(&ds, ErMode::CleanClean, 1);
        let keys: Vec<&str> = (0..c.len())
            .map(|i| c.key_str(crate::BlockId(i as u32)))
            .collect();
        assert_eq!(keys, vec!["uri:knossos"]);
    }

    #[test]
    fn combined_blocking_is_superset() {
        let ds = toy();
        let t = token_blocking(&ds, ErMode::CleanClean);
        let u = Method::UriInfix.run(&ds, ErMode::CleanClean, 1);
        let both = token_and_uri_blocking(&ds, ErMode::CleanClean);
        assert_eq!(both.len(), t.len() + u.len());
        assert!(both.distinct_pairs().len() >= t.distinct_pairs().len());
    }

    /// The fold reproduces the serial numbering whatever the cut: one
    /// range per entity (runs of one, empty runs, ranges that bring no new
    /// string) and a few uneven cuts.
    #[test]
    fn folded_ranges_equal_one_serial_range() {
        let g = generate(&profiles::periphery_sparse(40, 3));
        let ds = &g.dataset;
        let n = ds.len();
        let observe = |pass: &KeyAssignments| {
            let keys: Vec<(String, bool)> = pass
                .keys()
                .iter()
                .map(|(sym, s)| (s.to_string(), pass.is_namespaced(sym)))
                .collect();
            let runs: Vec<Vec<Symbol>> = pass.runs().map(<[Symbol]>::to_vec).collect();
            (keys, runs)
        };
        let cuts: [Vec<usize>; 4] = [
            (1..n).collect(),
            vec![1],
            vec![n - 1],
            vec![n / 3, n / 3 + 1, n / 2],
        ];
        for keys in [TokenKeys::Values, TokenKeys::Uris, TokenKeys::Both] {
            let serial = observe(&tokenize_range(ds, keys, 0..n));
            assert_eq!(serial.1.len(), n);
            for cut in &cuts {
                let bounds: Vec<usize> = [0].iter().chain(cut).chain(&[n]).copied().collect();
                let ranges: Vec<Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
                assert!(
                    observe(&token_pass_over(ds, keys, &ranges)) == serial,
                    "{keys:?} cut at {cut:?}"
                );
            }
        }
    }

    #[test]
    fn token_blocking_finds_most_true_pairs_on_center_data() {
        let g = generate(&profiles::center_dense(150, 21));
        let c = token_blocking(&g.dataset, ErMode::CleanClean);
        let pairs: std::collections::HashSet<_> = c.distinct_pairs().into_iter().collect();
        let found = g
            .truth
            .matching_pair_iter()
            .filter(|&(a, b)| pairs.contains(&(a, b)))
            .count() as u64;
        let pc = found as f64 / g.truth.matching_pairs() as f64;
        assert!(
            pc > 0.95,
            "token blocking PC on easy data should be ≈1, got {pc}"
        );
    }

    #[test]
    fn attribute_clustering_reduces_comparisons_vs_token_blocking() {
        let g = generate(&profiles::center_dense(200, 5));
        let tb = token_blocking(&g.dataset, ErMode::CleanClean);
        let ac = attribute_clustering_blocking(&g.dataset, ErMode::CleanClean, 1);
        assert!(
            ac.total_comparisons() < tb.total_comparisons(),
            "clustering {} should cut comparisons vs token {}",
            ac.total_comparisons(),
            tb.total_comparisons()
        );
        // ...while keeping decent recall.
        let pairs: std::collections::HashSet<_> = ac.distinct_pairs().into_iter().collect();
        let found = g
            .truth
            .matching_pair_iter()
            .filter(|&(a, b)| pairs.contains(&(a, b)))
            .count();
        let pc = found as f64 / g.truth.matching_pairs() as f64;
        assert!(pc > 0.8, "attribute clustering PC too low: {pc}");
    }

    #[test]
    fn dirty_mode_blocks_within_one_kb() {
        let g = generate(&profiles::dirty_single(80, 9));
        let c = token_blocking(&g.dataset, ErMode::Dirty);
        assert!(c.total_comparisons() > 0);
        let pairs: std::collections::HashSet<_> = c.distinct_pairs().into_iter().collect();
        let found = g
            .truth
            .matching_pair_iter()
            .filter(|&(a, b)| pairs.contains(&(a, b)))
            .count() as u64;
        assert!(found as f64 / g.truth.matching_pairs() as f64 > 0.9);
    }

    #[test]
    fn empty_dataset_produces_empty_collection() {
        let ds = DatasetBuilder::new().build();
        let c = token_blocking(&ds, ErMode::CleanClean);
        assert!(c.is_empty());
    }
}
