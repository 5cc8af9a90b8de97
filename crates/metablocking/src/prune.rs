//! The output of every pruning run, and the formulas the drivers share.
//!
//! Two axes (per the meta-blocking literature):
//! * **weight-based** (WEP, WNP) keep edges above a mean-weight threshold;
//! * **cardinality-based** (CEP, CNP) keep a fixed number of top edges.
//!
//! and two scopes:
//! * **edge-centric** (WEP, CEP): one global criterion;
//! * **node-centric** (WNP, CNP): a criterion per node neighbourhood, with
//!   a *redundancy* (union — an edge survives if either endpoint keeps it)
//!   or *reciprocal* (intersection — both endpoints must keep it) variant.
//!
//! Each family is stated once, over a neighbourhood row, in the
//! crate-internal `rule` module; this module holds what its result looks
//! like and the global formulas every driver feeds.

use minoan_common::stats::pairwise_sum;
use minoan_rdf::EntityId;

/// A retained comparison with its evidence weight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightedPair {
    /// Smaller endpoint.
    pub a: EntityId,
    /// Larger endpoint.
    pub b: EntityId,
    /// Weight under the scheme the pruning ran with (BLAST's χ², the
    /// supervised pruner's sigmoid margin).
    pub weight: f64,
}

/// The output of a pruning algorithm.
#[derive(Clone, Debug)]
pub struct PrunedComparisons {
    /// Retained pairs, sorted by descending weight (ties by pair id);
    /// unpruned output stays in pair order.
    pub pairs: Vec<WeightedPair>,
    /// Edges in the input graph (for retention-ratio reporting).
    pub input_edges: usize,
}

impl PrunedComparisons {
    /// Fraction of input edges retained.
    pub fn retention(&self) -> f64 {
        if self.input_edges == 0 {
            0.0
        } else {
            self.pairs.len() as f64 / self.input_edges as f64
        }
    }
}

/// Sorts retained pairs into the presentation order every pruning path
/// shares: weight descending, ties by pair. A strict total order over
/// distinct pairs, so sorting any subset reproduces its slice of the full
/// outcome.
pub(crate) fn present(pairs: &mut [WeightedPair]) {
    pairs.sort_by(|x, y| {
        y.weight
            .partial_cmp(&x.weight)
            .expect("weights are finite")
            .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
    });
}

/// The WEP threshold from per-source-entity partial sums: the mean over
/// *positive-weight* edges. Zero-weight edges (ECBS/EJS can produce them
/// when an entity appears in every block) carry no co-occurrence evidence
/// and are excluded from the denominator — they could never be kept, so
/// counting them only deflated the mean.
///
/// Every driver feeds this the same fixed-length slab (`sums[a]` = Σ of
/// the positive weights of the edges whose *smaller* endpoint is `a`,
/// accumulated in ascending larger-endpoint order) and the same positive
/// count; [`pairwise_sum`]'s reduction shape depends only on the slab
/// length, so the threshold is bit-identical across backends and thread
/// counts.
pub(crate) fn wep_threshold_from_sums(sums: &[f64], positive_edges: u64) -> f64 {
    if positive_edges == 0 {
        0.0
    } else {
        pairwise_sum(sums) / positive_edges as f64
    }
}

/// Default CEP cardinality: `K = BC / 2` where BC is the total number of
/// block assignments (the literature's budget: half an assignment's
/// worth of comparisons). This is 0 on an empty collection, where CEP
/// keeps nothing.
pub(crate) fn default_cep_k_from(total_assignments: u64) -> usize {
    (total_assignments / 2) as usize
}

/// Default CNP per-node cardinality: `k = max(1, ⌊BC / |E|⌋)` where `|E|`
/// is the number of *active* entities (those with at least one edge).
pub(crate) fn default_cnp_k_from(total_assignments: u64, active_nodes: usize) -> usize {
    ((total_assignments as usize) / active_nodes.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pruning, Session, WeightingScheme};
    use minoan_blocking::builders::token_blocking;
    use minoan_blocking::{BlockCollection, ErMode};
    use minoan_datagen::{generate, profiles};
    use minoan_rdf::{DatasetBuilder, EntityId};

    /// Strong pair (0,3): 3 common blocks. Weak pairs share one big block.
    fn toy() -> BlockCollection {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        for i in 0..3 {
            b.add_literal(k0, &format!("http://a/{i}"), "http://p", "x");
        }
        for i in 3..6 {
            b.add_literal(k1, &format!("http://b/{i}"), "http://p", "x");
        }
        let ds = b.build();
        let e = EntityId;
        let groups = vec![
            ("k1".to_string(), vec![e(0), e(3)]),
            ("k2".to_string(), vec![e(0), e(3)]),
            ("k3".to_string(), vec![e(0), e(3)]),
            ("big".to_string(), vec![e(0), e(1), e(2), e(3), e(4), e(5)]),
        ];
        BlockCollection::from_groups(&ds, ErMode::CleanClean, groups)
    }

    fn run(c: &BlockCollection, scheme: WeightingScheme, pruning: Pruning) -> PrunedComparisons {
        Session::new(c).scheme(scheme).pruning(pruning).run().pruned
    }

    #[test]
    fn wep_keeps_above_mean() {
        let out = run(&toy(), WeightingScheme::Cbs, Pruning::Wep);
        // Weights: (0,3)=4, all others 1; mean = (4 + 8×1)/9 = 1.33…
        assert_eq!(out.pairs.len(), 1);
        assert_eq!((out.pairs[0].a, out.pairs[0].b), (EntityId(0), EntityId(3)));
        assert!(out.retention() < 0.2);
    }

    #[test]
    fn cep_respects_cardinality() {
        let c = toy();
        let out = run(&c, WeightingScheme::Cbs, Pruning::Cep(Some(3)));
        assert_eq!(out.pairs.len(), 3);
        assert_eq!((out.pairs[0].a, out.pairs[0].b), (EntityId(0), EntityId(3)));
        // Weights sorted descending.
        assert!(out.pairs.windows(2).all(|w| w[0].weight >= w[1].weight));
        // k larger than edges keeps all.
        let all = run(&c, WeightingScheme::Cbs, Pruning::Cep(Some(100)));
        assert_eq!(all.pairs.len(), all.input_edges);
    }

    #[test]
    fn reciprocal_is_subset_of_union() {
        let c = toy();
        for scheme in WeightingScheme::ALL {
            let union = run(&c, scheme, Pruning::Wnp { reciprocal: false });
            let recip = run(&c, scheme, Pruning::Wnp { reciprocal: true });
            assert!(recip.pairs.len() <= union.pairs.len(), "{scheme:?}");
            let uset: std::collections::HashSet<_> =
                union.pairs.iter().map(|p| (p.a, p.b)).collect();
            assert!(recip.pairs.iter().all(|p| uset.contains(&(p.a, p.b))));

            let cnp = |reciprocal| Pruning::Cnp {
                reciprocal,
                k: Some(2),
            };
            let cunion = run(&c, scheme, cnp(false));
            let crecip = run(&c, scheme, cnp(true));
            assert!(crecip.pairs.len() <= cunion.pairs.len());
        }
    }

    #[test]
    fn wnp_keeps_strong_local_edges() {
        let out = run(
            &toy(),
            WeightingScheme::Cbs,
            Pruning::Wnp { reciprocal: true },
        );
        assert!(out
            .pairs
            .iter()
            .any(|p| (p.a, p.b) == (EntityId(0), EntityId(3))));
    }

    #[test]
    fn cnp_per_node_cardinality_bounds_retention() {
        let c = toy();
        let cnp = Pruning::Cnp {
            reciprocal: false,
            k: Some(1),
        };
        let out = run(&c, WeightingScheme::Arcs, cnp);
        // Union of per-node top-1: at most one edge per node.
        assert!(out.pairs.len() <= c.placed_entities());
        for p in &out.pairs {
            assert!(p.weight > 0.0);
        }
    }

    #[test]
    fn pruning_preserves_recall_on_generated_data() {
        let g = generate(&profiles::center_dense(200, 6));
        let blocks = token_blocking(&g.dataset, ErMode::CleanClean);
        let truth_pairs: std::collections::HashSet<_> = g.truth.matching_pair_iter().collect();
        let base_found = blocks
            .distinct_pairs()
            .iter()
            .filter(|&p| truth_pairs.contains(p))
            .count() as f64;
        let cnp = Pruning::Cnp {
            reciprocal: false,
            k: None,
        };
        for (label, scheme, pruning) in [
            ("wep/cbs", WeightingScheme::Cbs, Pruning::Wep),
            (
                "wnp/arcs",
                WeightingScheme::Arcs,
                Pruning::Wnp { reciprocal: false },
            ),
            ("cnp/js", WeightingScheme::Js, cnp),
        ] {
            let out = run(&blocks, scheme, pruning);
            let found = out
                .pairs
                .iter()
                .filter(|p| truth_pairs.contains(&(p.a, p.b)))
                .count() as f64;
            let kept_recall = found / base_found;
            assert!(
                kept_recall > 0.85,
                "{label}: lost too many matches ({kept_recall:.3})"
            );
            assert!(out.pairs.len() < out.input_edges, "{label}: pruned nothing");
        }
    }

    #[test]
    fn default_cardinalities_are_sane() {
        // The toy collection: 12 assignments over 6 active entities.
        assert_eq!(default_cep_k_from(12), 6);
        assert_eq!(default_cnp_k_from(12, 6), 2);
        // CNP's default never drops to 0; CEP's does on no blocks.
        assert_eq!(default_cnp_k_from(0, 0), 1);
        assert_eq!(default_cep_k_from(1), 0);
    }

    /// Fixture with ECBS zero-weight edges: entities 0 (KB a) and 5–8
    /// (KB b) sit in *every* block, so `ln(|B|/|B_i|) = 0` kills each of
    /// their edges. Positive edges: (1,3) weak ≈ 0.199, (2,4) strong
    /// ≈ 2.59, plus 14 zero-weight edges.
    fn zero_heavy_ecbs() -> BlockCollection {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        for i in 0..3 {
            b.add_literal(k0, &format!("http://a/{i}"), "http://p", "x");
        }
        for i in 3..9 {
            b.add_literal(k1, &format!("http://b/{i}"), "http://p", "x");
        }
        let ds = b.build();
        let e = EntityId;
        let everywhere = [e(0), e(5), e(6), e(7), e(8)];
        let mut groups: Vec<(String, Vec<EntityId>)> = (0..4)
            .map(|i| {
                let mut members = vec![e(1), e(3)];
                members.extend_from_slice(&everywhere);
                (format!("strong{i}"), members)
            })
            .collect();
        let mut weak = vec![e(2), e(4)];
        weak.extend_from_slice(&everywhere);
        groups.push(("weak".to_string(), weak));
        BlockCollection::from_groups(&ds, ErMode::CleanClean, groups)
    }

    #[test]
    fn wep_mean_excludes_zero_weight_edges() {
        let c = zero_heavy_ecbs();
        let all = run(&c, WeightingScheme::Ecbs, Pruning::None);
        assert_eq!(all.input_edges, 16);
        let weights: Vec<f64> = all.pairs.iter().map(|p| p.weight).collect();
        let positives: Vec<f64> = weights.iter().copied().filter(|&w| w > 0.0).collect();
        assert_eq!(positives.len(), 2, "fixture: exactly two positive edges");
        // The mean over positive edges (≈ 1.39) excludes the weak edge
        // (≈ 0.199); the old zero-deflated mean (≈ 0.174) kept it.
        let mean = minoan_common::stats::mean;
        let weak = positives.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            mean(&weights) < weak && weak < mean(&positives),
            "fixture must separate the two definitions"
        );
        let out = run(&c, WeightingScheme::Ecbs, Pruning::Wep);
        assert_eq!(out.pairs.len(), 1, "only the strong edge survives");
        assert_eq!((out.pairs[0].a, out.pairs[0].b), (EntityId(2), EntityId(4)));
    }

    #[test]
    fn wep_threshold_denominator_counts_positive_edges_only() {
        // sums {3, 2} over 2 positive edges → 2.5; a third zero-weight
        // edge must not deflate it to 5/3.
        assert_eq!(wep_threshold_from_sums(&[3.0, 2.0, 0.0], 2), 2.5);
        assert_eq!(wep_threshold_from_sums(&[0.0, 0.0], 0), 0.0);
    }
}
