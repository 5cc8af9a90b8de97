//! Supervised meta-blocking.
//!
//! Papadakis, Papastefanatos & Koutrika (PVLDB 2014) showed that combining
//! the individual weighting schemes into a per-edge **feature vector** and
//! training a linear classifier on a small labelled sample prunes the
//! blocking graph far better than any single scheme. This module
//! reproduces that design with a deterministic averaged perceptron (no
//! external ML dependency):
//!
//! 1. Features — the feature vector of an edge: the five standard scheme
//!    weights plus the two endpoint degrees, each max-normalised over the
//!    blocking graph so the perceptron sees `[0, 1]` inputs.
//! 2. [`TrainingSet::sample`] — a balanced labelled sample drawn
//!    deterministically from a ground-truth oracle through a
//!    [`Session`]: a seeded stride walk over the unpruned outcome's
//!    edges, each sampled edge's features read off a sweep of its smaller
//!    endpoint and normalised by the same per-feature maxima the pruner
//!    reduces.
//! 3. [`Perceptron`] — averaged-perceptron training and scoring.
//! 4. Pruning — [`Pruning::Supervised`](crate::Pruning::Supervised) on a
//!    [`Session`] keeps the edges the model classifies as likely matches;
//!    surviving edges are weighted by the sigmoid of the decision margin,
//!    so downstream progressive scheduling still gets a ranking. The
//!    sweeps compute the features through the shared weight kernel, so
//!    every backend stays bit-identical.

use crate::kernel::{self, EdgeGlobals};
use crate::session::Session;
use crate::weights::WeightingScheme;
use minoan_rdf::EntityId;

/// Number of features per edge.
pub const NUM_FEATURES: usize = 7;

/// A per-edge feature vector (max-normalised over the graph).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeFeatures(pub [f64; NUM_FEATURES]);

/// The per-feature maxima raw features are normalised by.
pub(crate) struct FeatureExtractor {
    max: [f64; NUM_FEATURES],
}

impl FeatureExtractor {
    /// An extractor from the per-feature maxima a
    /// `CriterionFold::FeatureMax` pass reduced.
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

/// Raw features of the edge `(lo, hi)` (`lo < hi`) from its shared-block
/// count and ARCS sum — both endpoint-symmetric, so either endpoint's
/// sweep yields the same vector. Every entry goes through the shared
/// kernel ([`kernel::edge_weight`] per scheme, counted degrees for the
/// last two slots), so the f64 bits agree across drivers. `globals` must
/// carry the counted tier (degrees + |V|).
pub(crate) fn raw_features<G: EdgeGlobals>(
    cbs: u32,
    arcs: f64,
    lo: u32,
    hi: u32,
    globals: &G,
) -> [f64; NUM_FEATURES] {
    let weight = |scheme| kernel::edge_weight(scheme, cbs, arcs, lo, hi, globals);
    let (deg_lo, deg_hi) = globals.degrees_of(lo, hi);
    [
        weight(WeightingScheme::Cbs),
        weight(WeightingScheme::Ecbs),
        weight(WeightingScheme::Js),
        weight(WeightingScheme::Ejs),
        weight(WeightingScheme::Arcs),
        deg_lo as f64,
        deg_hi as f64,
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
    /// edges of `session`'s collection, walking the edges in `(a, b)`
    /// order with a deterministic seeded co-prime stride so the sample is
    /// not biased toward the lexicographically first entities. Runs on
    /// streaming sweeps at the session's worker count, whatever its
    /// backend, and leaves its scheme and pruning as they were; the
    /// sample never depends on the worker count.
    pub fn sample(
        session: &mut Session<'_>,
        is_match: impl Fn(EntityId, EntityId) -> bool,
        per_class: usize,
        seed: u64,
    ) -> Self {
        let mut set = TrainingSet::default();
        if per_class == 0 {
            return set;
        }
        let (edges, extractor) = session.training_edges();
        let n = edges.len();
        if n == 0 {
            return set;
        }
        // Deterministic co-prime stride walk over edge indices.
        let stride = (seed | 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) % n as u64;
        let stride = stride.max(1) as usize;
        let stride = if gcd(stride, n) == 1 { stride } else { 1 };
        let (mut pos, mut neg) = (0usize, 0usize);
        let mut idx = (seed as usize) % n;
        for _ in 0..n {
            let e = edges[idx];
            let label = is_match(e.a, e.b);
            if (label && pos < per_class) || (!label && neg < per_class) {
                let raw = session.raw_features(e.a, e.b);
                set.features.push(extractor.normalise(raw));
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pruning, Session};
    use minoan_blocking::{builders, BlockCollection, ErMode};
    use minoan_datagen::{generate, profiles, GroundTruth};

    fn world() -> (BlockCollection, GroundTruth) {
        let g = generate(&profiles::center_dense(150, 5));
        (
            builders::token_blocking(&g.dataset, ErMode::CleanClean),
            g.truth,
        )
    }

    #[test]
    fn features_are_normalised() {
        let (blocks, truth) = world();
        let mut session = Session::new(&blocks);
        let set = TrainingSet::sample(&mut session, |a, b| truth.is_match(a, b), 100, 3);
        assert!(set.len() > 100, "fixture samples both classes");
        for f in &set.features {
            for &v in &f.0 {
                assert!(
                    (0.0..=1.0 + 1e-12).contains(&v),
                    "feature out of range: {v}"
                );
            }
        }
    }

    /// Regression: the CBS and ARCS feature columns must stay in parity
    /// with the schemes' own weights — i.e. the extracted feature is the
    /// scheme weight divided by its global maximum, bit for bit, for both
    /// the count-based (CBS) and the reciprocal-comparison (ARCS) scheme.
    #[test]
    fn cbs_vs_arcs_feature_parity_with_scheme_weights() {
        let (blocks, _) = world();
        let mut session = Session::new(&blocks);
        let (edges, extractor) = session.training_edges();
        for (column, scheme) in [(0usize, WeightingScheme::Cbs), (4, WeightingScheme::Arcs)] {
            let weighted = session.scheme(scheme).pruning(Pruning::None).run();
            let weights = weighted.pairs();
            let max = weights.iter().map(|p| p.weight).fold(0.0f64, f64::max);
            assert!(max > 0.0, "{scheme:?}: degenerate fixture");
            for (i, p) in weights.iter().enumerate() {
                assert_eq!((p.a, p.b), (edges[i].a, edges[i].b), "pair order");
                let features = extractor.normalise(session.raw_features(p.a, p.b));
                assert_eq!(
                    features.0[column].to_bits(),
                    (p.weight / max).to_bits(),
                    "{scheme:?} feature column diverged at edge {i}"
                );
            }
        }
    }

    #[test]
    fn sample_is_balanced_when_possible() {
        let (blocks, truth) = world();
        let mut session = Session::new(&blocks);
        let set = TrainingSet::sample(&mut session, |a, b| truth.is_match(a, b), 30, 42);
        assert!(!set.is_empty());
        let ratio = set.labels.iter().filter(|&&l| l).count() as f64 / set.len() as f64;
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
        let correct = set
            .features
            .iter()
            .zip(&set.labels)
            .filter(|(x, &l)| (model.score(x) > 0.0) == l)
            .count();
        let accuracy = correct as f64 / set.len() as f64;
        assert!(accuracy > 0.95, "accuracy {accuracy}");
    }

    #[test]
    fn training_is_deterministic() {
        let (blocks, truth) = world();
        let mut session = Session::new(&blocks);
        let s1 = TrainingSet::sample(&mut session, |a, b| truth.is_match(a, b), 25, 7);
        let s2 = TrainingSet::sample(&mut session, |a, b| truth.is_match(a, b), 25, 7);
        assert_eq!((&s1.features, &s1.labels), (&s2.features, &s2.labels));
        let m1 = Perceptron::train(&s1, 10);
        let m2 = Perceptron::train(&s2, 10);
        assert_eq!(m1.weights, m2.weights);
        assert_eq!(m1.bias, m2.bias);
    }

    #[test]
    fn supervised_pruning_beats_random_on_recall_density() {
        let (blocks, truth) = world();
        let mut session = Session::new(&blocks);
        let set = TrainingSet::sample(&mut session, |a, b| truth.is_match(a, b), 50, 11);
        let model = Perceptron::train(&set, 15);
        let pruned = session.pruning(Pruning::Supervised(model)).run().pruned;
        assert!(!pruned.pairs.is_empty(), "model kept nothing");
        // Precision of retained pairs should exceed the graph's base rate.
        let edges = session.pruning(Pruning::None).run().pruned.pairs;
        let rate = |pairs: &[crate::WeightedPair]| {
            let matches = pairs.iter().filter(|p| truth.is_match(p.a, p.b)).count();
            matches as f64 / pairs.len() as f64
        };
        let (kept_rate, base_rate) = (rate(&pruned.pairs), rate(&edges));
        assert!(
            kept_rate >= base_rate,
            "supervised pruning should concentrate matches: kept {kept_rate:.3} vs base {base_rate:.3}"
        );
    }

    #[test]
    fn empty_graph_yields_empty_everything() {
        let g = generate(&profiles::center_dense(10, 1));
        // A session over an empty block set.
        let empty = minoan_blocking::BlockCollection::from_groups(
            &g.dataset,
            ErMode::CleanClean,
            Vec::<(String, Vec<EntityId>)>::new(),
        );
        let mut session = Session::new(&empty);
        let set = TrainingSet::sample(&mut session, |_, _| false, 10, 3);
        assert!(set.is_empty());
        let model = Perceptron::train(&set, 5);
        assert!(session
            .pruning(Pruning::Supervised(model))
            .run()
            .pairs()
            .is_empty());
    }
}
