//! Supervised meta-blocking.
//!
//! Papadakis, Papastefanatos & Koutrika (PVLDB 2014) showed that combining
//! the individual weighting schemes into a per-edge **feature vector** and
//! training a linear classifier on a small labelled sample prunes the
//! blocking graph far better than any single scheme. This module
//! reproduces that design with a deterministic averaged perceptron (no
//! external ML dependency):
//!
//! 1. [`FeatureExtractor`] — the feature vector of an edge: the five
//!    standard scheme weights plus the two endpoint degrees, each
//!    max-normalised over the graph so the perceptron sees `[0, 1]` inputs.
//!    [`FeatureExtractor::extract_all`] batches extraction by walking the
//!    CSR rows of the edge slab instead of doing per-edge lookups, and
//!    [`FeatureExtractor::fit_extract_all`] computes the raw features
//!    exactly once for both fitting and extraction.
//! 2. [`TrainingSet::sample`] — a balanced labelled sample drawn
//!    deterministically from a ground-truth oracle.
//! 3. [`Perceptron`] — averaged-perceptron training and scoring.
//! 4. `supervised_prune` — keeps the edges the model classifies as likely
//!    matches; surviving edges are weighted by the decision margin, so
//!    downstream progressive scheduling still gets a ranking. Reachable
//!    from every backend through
//!    [`Pruning::Supervised`](crate::Pruning::Supervised) on a
//!    [`Session`](crate::Session); the sweep backends recompute the same
//!    features through the shared weight kernel, so all three backends
//!    stay bit-identical.

use crate::graph::{BlockingGraph, Edge};
use crate::kernel::{self, EdgeGlobals};
use crate::prune::{PrunedComparisons, WeightedPair};
use crate::sweep::SweepScratch;
use crate::weights::WeightingScheme;
use minoan_rdf::EntityId;

/// Number of features per edge.
pub const NUM_FEATURES: usize = 7;

/// A per-edge feature vector (max-normalised over the graph).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeFeatures(pub [f64; NUM_FEATURES]);

/// Pre-computed normalisation context for feature extraction.
pub struct FeatureExtractor {
    max: [f64; NUM_FEATURES],
}

impl FeatureExtractor {
    /// Scans the graph once to find per-feature maxima.
    pub fn fit(graph: &BlockingGraph) -> Self {
        let mut max = [0.0f64; NUM_FEATURES];
        for e in graph.edges() {
            for (i, v) in raw_features(graph, e).iter().enumerate() {
                if *v > max[i] {
                    max[i] = *v;
                }
            }
        }
        Self { max }
    }

    /// Fits the extractor *and* extracts every edge's feature vector in
    /// one batched pass: the raw features are computed exactly once (the
    /// fit-then-extract path computes them twice), walking the edge slab
    /// CSR row by CSR row. The returned vectors align with
    /// `graph.edges()` and are bit-identical to per-edge
    /// [`Self::extract`] calls.
    pub fn fit_extract_all(graph: &BlockingGraph) -> (Self, Vec<EdgeFeatures>) {
        let mut raw: Vec<[f64; NUM_FEATURES]> = Vec::with_capacity(graph.num_edges());
        let mut max = [0.0f64; NUM_FEATURES];
        for a in 0..graph.num_nodes() as u32 {
            for e in graph.edges_from(EntityId(a)) {
                let r = raw_features(graph, e);
                merge_feature_max(&mut max, &r);
                raw.push(r);
            }
        }
        let extractor = Self { max };
        let features = raw.into_iter().map(|r| extractor.normalise(r)).collect();
        (extractor, features)
    }

    /// Batch-extracts every edge's feature vector with this (already
    /// fitted) extractor, walking the CSR rows; aligned with
    /// `graph.edges()`.
    pub fn extract_all(&self, graph: &BlockingGraph) -> Vec<EdgeFeatures> {
        let mut out = Vec::with_capacity(graph.num_edges());
        for a in 0..graph.num_nodes() as u32 {
            for e in graph.edges_from(EntityId(a)) {
                out.push(self.normalise(raw_features(graph, e)));
            }
        }
        out
    }

    /// Extracts the normalised feature vector of `edge`.
    pub fn extract(&self, graph: &BlockingGraph, edge: &Edge) -> EdgeFeatures {
        self.normalise(raw_features(graph, edge))
    }

    /// An extractor from externally-computed per-feature maxima (the
    /// sweep backends' pass-1 reduction).
    pub(crate) fn from_max(max: [f64; NUM_FEATURES]) -> Self {
        Self { max }
    }

    /// Normalises a raw feature vector by the fitted maxima.
    pub(crate) fn normalise(&self, raw: [f64; NUM_FEATURES]) -> EdgeFeatures {
        let mut out = [0.0f64; NUM_FEATURES];
        for i in 0..NUM_FEATURES {
            out[i] = if self.max[i] > 0.0 {
                raw[i] / self.max[i]
            } else {
                0.0
            };
        }
        EdgeFeatures(out)
    }
}

impl EdgeFeatures {
    /// Extracts with a throwaway extractor (tests / single edges).
    pub fn extract(graph: &BlockingGraph, edge: &Edge) -> Self {
        FeatureExtractor::fit(graph).extract(graph, edge)
    }
}

fn raw_features(graph: &BlockingGraph, e: &Edge) -> [f64; NUM_FEATURES] {
    [
        WeightingScheme::Cbs.weight(graph, e),
        WeightingScheme::Ecbs.weight(graph, e),
        WeightingScheme::Js.weight(graph, e),
        WeightingScheme::Ejs.weight(graph, e),
        WeightingScheme::Arcs.weight(graph, e),
        graph.degree(e.a) as f64,
        graph.degree(e.b) as f64,
    ]
}

/// Raw features of the forward edge `(a, y)` (`a < y`) from the current
/// sweep's statistics — the sweep-backend twin of `raw_features`. Every
/// entry goes through the same shared kernel as the materialised path
/// ([`kernel::weight_from_stats`] per scheme, counted degrees for the
/// last two slots), so the f64 bits agree across backends. `globals`
/// must carry the counted tier (degrees + |V|).
pub(crate) fn raw_forward_features<G: EdgeGlobals>(
    scratch: &SweepScratch,
    a: u32,
    y: u32,
    globals: &G,
) -> [f64; NUM_FEATURES] {
    let weight = |scheme| kernel::edge_weight(scheme, scratch, globals, y, a, y);
    let (deg_a, deg_y) = globals.degrees_of(a, y);
    [
        weight(WeightingScheme::Cbs),
        weight(WeightingScheme::Ecbs),
        weight(WeightingScheme::Js),
        weight(WeightingScheme::Ejs),
        weight(WeightingScheme::Arcs),
        deg_a as f64,
        deg_y as f64,
    ]
}

/// The margin → weight squash every supervised path shares.
pub(crate) fn sigmoid(score: f64) -> f64 {
    1.0 / (1.0 + (-score).exp())
}

/// Element-wise per-feature maximum fold — the one definition of how
/// feature maxima accumulate and merge. Strict `>` (exact f64 `max`, no
/// NaN inputs by construction), so partial maxima merge to the same bits
/// regardless of partitioning; every backend's fit/merge path must go
/// through this so the normalisation constants stay bit-identical.
pub(crate) fn merge_feature_max(dst: &mut [f64; NUM_FEATURES], src: &[f64; NUM_FEATURES]) {
    for (m, v) in dst.iter_mut().zip(src) {
        if *v > *m {
            *m = *v;
        }
    }
}

/// A balanced labelled sample of edges.
#[derive(Clone, Debug, Default)]
pub struct TrainingSet {
    /// Feature vectors.
    pub features: Vec<EdgeFeatures>,
    /// Labels: `true` = matching pair.
    pub labels: Vec<bool>,
}

impl TrainingSet {
    /// Draws a balanced sample of up to `per_class` positive and negative
    /// edges, walking edges in a deterministic seeded stride so the sample
    /// is not biased toward the lexicographically first entities.
    pub fn sample(
        graph: &BlockingGraph,
        extractor: &FeatureExtractor,
        is_match: impl Fn(EntityId, EntityId) -> bool,
        per_class: usize,
        seed: u64,
    ) -> Self {
        let n = graph.num_edges();
        let mut set = TrainingSet::default();
        if n == 0 || per_class == 0 {
            return set;
        }
        // Deterministic co-prime stride walk over edge indices.
        let stride = (seed | 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) % n as u64;
        let stride = stride.max(1) as usize;
        let stride = if gcd(stride, n) == 1 { stride } else { 1 };
        let (mut pos, mut neg) = (0usize, 0usize);
        let mut idx = (seed as usize) % n;
        for _ in 0..n {
            let e = graph.edge(idx as u32);
            let label = is_match(e.a, e.b);
            if (label && pos < per_class) || (!label && neg < per_class) {
                set.features.push(extractor.extract(graph, e));
                set.labels.push(label);
                if label {
                    pos += 1;
                } else {
                    neg += 1;
                }
            }
            if pos >= per_class && neg >= per_class {
                break;
            }
            idx = (idx + stride) % n;
        }
        set
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Fraction of positive labels.
    pub fn positive_ratio(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            self.labels.iter().filter(|&&l| l).count() as f64 / self.labels.len() as f64
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// An averaged perceptron over [`EdgeFeatures`]. `Copy` so a trained
/// model can travel inside [`Pruning::Supervised`](crate::Pruning) by
/// value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Perceptron {
    /// Feature weights.
    pub weights: [f64; NUM_FEATURES],
    /// Bias term.
    pub bias: f64,
}

impl Perceptron {
    /// Trains for `epochs` passes with the averaged-perceptron update.
    /// Deterministic: examples are visited in sample order.
    pub fn train(set: &TrainingSet, epochs: usize) -> Self {
        let mut w = [0.0f64; NUM_FEATURES];
        let mut b = 0.0f64;
        let mut w_sum = [0.0f64; NUM_FEATURES];
        let mut b_sum = 0.0f64;
        let mut count = 0.0f64;
        for _ in 0..epochs.max(1) {
            for (x, &label) in set.features.iter().zip(&set.labels) {
                let y = if label { 1.0 } else { -1.0 };
                let score: f64 = w.iter().zip(&x.0).map(|(wi, xi)| wi * xi).sum::<f64>() + b;
                if y * score <= 0.0 {
                    for (wi, xi) in w.iter_mut().zip(&x.0) {
                        *wi += y * xi;
                    }
                    b += y;
                }
                for (acc, wi) in w_sum.iter_mut().zip(&w) {
                    *acc += wi;
                }
                b_sum += b;
                count += 1.0;
            }
        }
        if count > 0.0 {
            for acc in w_sum.iter_mut() {
                *acc /= count;
            }
            b_sum /= count;
        }
        Self {
            weights: w_sum,
            bias: b_sum,
        }
    }

    /// Raw decision score (positive = predicted match).
    pub fn score(&self, x: &EdgeFeatures) -> f64 {
        self.weights
            .iter()
            .zip(&x.0)
            .map(|(w, xi)| w * xi)
            .sum::<f64>()
            + self.bias
    }

    /// Binary prediction.
    pub fn predict(&self, x: &EdgeFeatures) -> bool {
        self.score(x) > 0.0
    }

    /// Accuracy over a labelled set.
    pub fn accuracy(&self, set: &TrainingSet) -> f64 {
        if set.is_empty() {
            return 0.0;
        }
        let correct = set
            .features
            .iter()
            .zip(&set.labels)
            .filter(|(x, &l)| self.predict(x) == l)
            .count();
        correct as f64 / set.len() as f64
    }
}

/// Keeps the edges the model scores positive; weight = sigmoid(margin), so
/// the output ranks like the unsupervised pruners. Features come from the
/// batched [`FeatureExtractor::fit_extract_all`] (one raw-feature pass
/// over the CSR rows instead of fit-then-extract's two).
#[doc(hidden)]
pub fn supervised_prune(graph: &BlockingGraph, model: &Perceptron) -> PrunedComparisons {
    let (_, features) = FeatureExtractor::fit_extract_all(graph);
    prune_with_features(graph, &features, model)
}

/// Scores pre-extracted features (aligned with `graph.edges()`) — the
/// session path, which caches the feature vectors across models.
pub(crate) fn prune_with_features(
    graph: &BlockingGraph,
    features: &[EdgeFeatures],
    model: &Perceptron,
) -> PrunedComparisons {
    let pairs: Vec<WeightedPair> = graph
        .edges()
        .iter()
        .zip(features)
        .filter_map(|(e, f)| {
            let score = model.score(f);
            if score > 0.0 {
                Some(WeightedPair {
                    a: e.a,
                    b: e.b,
                    weight: sigmoid(score),
                })
            } else {
                None
            }
        })
        .collect();
    PrunedComparisons::from_weighted_pairs(pairs, WeightingScheme::Cbs, graph.num_edges())
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_blocking::{builders, ErMode};
    use minoan_datagen::{generate, profiles};

    fn graph_and_truth() -> (BlockingGraph, minoan_datagen::GroundTruth) {
        let g = generate(&profiles::center_dense(150, 5));
        let blocks = builders::token_blocking(&g.dataset, ErMode::CleanClean);
        (BlockingGraph::build(&blocks), g.truth)
    }

    #[test]
    fn features_are_normalised() {
        let (graph, _) = graph_and_truth();
        let extractor = FeatureExtractor::fit(&graph);
        for e in graph.edges().iter().take(200) {
            let f = extractor.extract(&graph, e);
            for v in f.0 {
                assert!(
                    (0.0..=1.0 + 1e-12).contains(&v),
                    "feature out of range: {v}"
                );
            }
        }
    }

    #[test]
    fn extract_all_is_bit_identical_to_edge_by_edge() {
        let (graph, _) = graph_and_truth();
        let (fitted, batched) = FeatureExtractor::fit_extract_all(&graph);
        assert_eq!(batched.len(), graph.num_edges());
        // fit_extract_all's maxima equal fit's (same comparisons).
        let separate = FeatureExtractor::fit(&graph);
        assert_eq!(fitted.max, separate.max);
        // The batched CSR-row walk must equal per-edge extraction, bitwise.
        for (i, e) in graph.edges().iter().enumerate() {
            let single = separate.extract(&graph, e);
            for (a, b) in batched[i].0.iter().zip(&single.0) {
                assert_eq!(a.to_bits(), b.to_bits(), "edge {i}");
            }
        }
        // And extract_all on a pre-fitted extractor agrees too.
        let again = separate.extract_all(&graph);
        assert_eq!(again, batched);
    }

    /// Regression: the CBS and ARCS feature columns must stay in parity
    /// with the schemes' own weights — i.e. the batched extractor is the
    /// scheme weight divided by its global maximum, bit for bit, for both
    /// the count-based (CBS) and the reciprocal-comparison (ARCS) scheme.
    #[test]
    fn cbs_vs_arcs_feature_parity_with_scheme_weights() {
        let (graph, _) = graph_and_truth();
        let (_, features) = FeatureExtractor::fit_extract_all(&graph);
        for (column, scheme) in [(0usize, WeightingScheme::Cbs), (4, WeightingScheme::Arcs)] {
            let weights = scheme.all_weights(&graph);
            let max = weights.iter().cloned().fold(0.0f64, f64::max);
            assert!(max > 0.0, "{scheme:?}: degenerate fixture");
            for (i, f) in features.iter().enumerate() {
                assert_eq!(
                    f.0[column].to_bits(),
                    (weights[i] / max).to_bits(),
                    "{scheme:?} feature column diverged at edge {i}"
                );
            }
        }
    }

    #[test]
    fn sample_is_balanced_when_possible() {
        let (graph, truth) = graph_and_truth();
        let extractor = FeatureExtractor::fit(&graph);
        let set = TrainingSet::sample(&graph, &extractor, |a, b| truth.is_match(a, b), 30, 42);
        assert!(!set.is_empty());
        let ratio = set.positive_ratio();
        assert!(ratio > 0.2 && ratio < 0.8, "imbalanced sample: {ratio}");
    }

    #[test]
    fn perceptron_learns_separable_data() {
        // Synthetic separable set: positives have feature[0] = 1, negatives 0.
        let mut set = TrainingSet::default();
        for i in 0..40 {
            let pos = i % 2 == 0;
            let mut f = [0.0; NUM_FEATURES];
            f[0] = if pos { 1.0 } else { 0.05 };
            set.features.push(EdgeFeatures(f));
            set.labels.push(pos);
        }
        let model = Perceptron::train(&set, 20);
        assert!(
            model.accuracy(&set) > 0.95,
            "accuracy {}",
            model.accuracy(&set)
        );
    }

    #[test]
    fn training_is_deterministic() {
        let (graph, truth) = graph_and_truth();
        let extractor = FeatureExtractor::fit(&graph);
        let s1 = TrainingSet::sample(&graph, &extractor, |a, b| truth.is_match(a, b), 25, 7);
        let s2 = TrainingSet::sample(&graph, &extractor, |a, b| truth.is_match(a, b), 25, 7);
        let m1 = Perceptron::train(&s1, 10);
        let m2 = Perceptron::train(&s2, 10);
        assert_eq!(m1.weights, m2.weights);
        assert_eq!(m1.bias, m2.bias);
    }

    #[test]
    fn supervised_prune_beats_random_on_recall_density() {
        let (graph, truth) = graph_and_truth();
        let extractor = FeatureExtractor::fit(&graph);
        let set = TrainingSet::sample(&graph, &extractor, |a, b| truth.is_match(a, b), 50, 11);
        let model = Perceptron::train(&set, 15);
        let pruned = supervised_prune(&graph, &model);
        assert!(!pruned.pairs.is_empty(), "model kept nothing");
        // Precision of retained pairs should exceed the graph's base rate.
        let base_rate = graph
            .edges()
            .iter()
            .filter(|e| truth.is_match(e.a, e.b))
            .count() as f64
            / graph.num_edges() as f64;
        let kept_rate = pruned
            .pairs
            .iter()
            .filter(|p| truth.is_match(p.a, p.b))
            .count() as f64
            / pruned.pairs.len() as f64;
        assert!(
            kept_rate >= base_rate,
            "supervised pruning should concentrate matches: kept {kept_rate:.3} vs base {base_rate:.3}"
        );
    }

    #[test]
    fn empty_graph_yields_empty_everything() {
        let g = generate(&profiles::center_dense(10, 1));
        // Build a graph from an empty block set.
        let empty = minoan_blocking::BlockCollection::from_groups(
            &g.dataset,
            ErMode::CleanClean,
            Vec::<(String, Vec<minoan_rdf::EntityId>)>::new(),
        );
        let graph = BlockingGraph::build(&empty);
        let extractor = FeatureExtractor::fit(&graph);
        let set = TrainingSet::sample(&graph, &extractor, |_, _| false, 10, 3);
        assert!(set.is_empty());
        let model = Perceptron::train(&set, 5);
        assert!(supervised_prune(&graph, &model).pairs.is_empty());
    }
}
