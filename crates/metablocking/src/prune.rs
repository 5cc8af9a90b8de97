//! Pruning algorithms over the weighted blocking graph.
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

use crate::graph::BlockingGraph;
use crate::weights::WeightingScheme;
use minoan_common::stats::{mean, pairwise_sum};
use minoan_common::{OrdF64, TopK};
use minoan_rdf::EntityId;

/// A retained comparison with its evidence weight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightedPair {
    /// Smaller endpoint.
    pub a: EntityId,
    /// Larger endpoint.
    pub b: EntityId,
    /// Weight under the scheme the pruning ran with.
    pub weight: f64,
}

/// The output of a pruning algorithm.
#[derive(Clone, Debug)]
pub struct PrunedComparisons {
    /// Retained pairs, sorted by descending weight (ties by pair id).
    pub pairs: Vec<WeightedPair>,
    /// Scheme the weights were computed with.
    pub scheme: WeightingScheme,
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

    /// Builds the result from already-selected pairs, applying the
    /// shared presentation order ([`present`]).
    pub(crate) fn from_weighted_pairs(
        mut pairs: Vec<WeightedPair>,
        scheme: WeightingScheme,
        input_edges: usize,
    ) -> Self {
        present(&mut pairs);
        Self {
            pairs,
            scheme,
            input_edges,
        }
    }

    /// An explicit empty result that still reports the input-edge count,
    /// used when a cardinality of 0 makes pruning degenerate (empty or
    /// single-assignment collections).
    pub(crate) fn empty(scheme: WeightingScheme, input_edges: usize) -> Self {
        Self {
            pairs: Vec::new(),
            scheme,
            input_edges,
        }
    }

    fn from_indices(
        graph: &BlockingGraph,
        weights: &[f64],
        scheme: WeightingScheme,
        mut keep: Vec<u32>,
    ) -> Self {
        keep.sort_unstable();
        keep.dedup();
        let pairs: Vec<WeightedPair> = keep
            .into_iter()
            .map(|i| {
                let e = graph.edge(i);
                WeightedPair {
                    a: e.a,
                    b: e.b,
                    weight: weights[i as usize],
                }
            })
            .collect();
        Self::from_weighted_pairs(pairs, scheme, graph.num_edges())
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
/// Both backends feed this the same fixed-length slab (`sums[a]` = Σ of
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

/// Weighted Edge Pruning: keep edges with weight ≥ the global mean weight
/// (mean over the positive-weight edges; see `wep_threshold_from_sums`,
/// the crate-internal reduction all three backends share).
#[doc(hidden)]
pub fn wep(graph: &BlockingGraph, scheme: WeightingScheme) -> PrunedComparisons {
    let weights = scheme.all_weights(graph);
    // Per-source partial sums in slab order (edges sorted by (a, b), so
    // each source accumulates over ascending targets) — the exact f64
    // sequence the streaming sweep of entity `a` produces.
    let mut sums = vec![0.0f64; graph.num_nodes()];
    let mut positive = 0u64;
    for (i, e) in graph.edges().iter().enumerate() {
        let w = weights[i];
        if w > 0.0 {
            sums[e.a.index()] += w;
            positive += 1;
        }
    }
    let threshold = wep_threshold_from_sums(&sums, positive);
    let keep: Vec<u32> = (0..graph.num_edges() as u32)
        .filter(|&i| weights[i as usize] >= threshold && weights[i as usize] > 0.0)
        .collect();
    PrunedComparisons::from_indices(graph, &weights, scheme, keep)
}

/// Default CEP/CNP cardinality: `K = BC / 2` where BC is the total number
/// of block assignments (the literature's budget: half an assignment's
/// worth of comparisons).
pub fn default_cep_k(graph: &BlockingGraph) -> usize {
    default_cep_k_from(graph.total_assignments())
}

/// The default-CEP-K formula from the raw assignment count — the single
/// definition both backends use. Note this is 0 on empty or
/// single-assignment collections; [`cep`] guards that case explicitly.
pub(crate) fn default_cep_k_from(total_assignments: u64) -> usize {
    (total_assignments / 2) as usize
}

/// Cardinality Edge Pruning: keep the global top-`k` edges by weight
/// (`k` defaults to [`default_cep_k`]).
///
/// `k == 0` (an explicit `Some(0)`, or the default on an empty or
/// single-assignment collection) short-circuits to an explicit empty
/// result that still reports `input_edges`, rather than driving a
/// degenerate zero-capacity heap.
#[doc(hidden)]
pub fn cep(graph: &BlockingGraph, scheme: WeightingScheme, k: Option<usize>) -> PrunedComparisons {
    let k = k.unwrap_or_else(|| default_cep_k(graph));
    if k == 0 {
        return PrunedComparisons::empty(scheme, graph.num_edges());
    }
    let weights = scheme.all_weights(graph);
    // TopK orders by the tuple; invert edge index so earlier edges win ties.
    let mut top: TopK<(OrdF64, std::cmp::Reverse<u32>)> = TopK::new(k);
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            top.push((OrdF64(w), std::cmp::Reverse(i as u32)));
        }
    }
    let keep: Vec<u32> = top
        .into_sorted_vec()
        .into_iter()
        .map(|(_, r)| r.0)
        .collect();
    PrunedComparisons::from_indices(graph, &weights, scheme, keep)
}

/// Weighted Node Pruning: each node keeps its incident edges with weight ≥
/// the mean weight of its neighbourhood; `reciprocal` demands both
/// endpoints keep the edge, otherwise either suffices.
#[doc(hidden)]
pub fn wnp(graph: &BlockingGraph, scheme: WeightingScheme, reciprocal: bool) -> PrunedComparisons {
    let weights = scheme.all_weights(graph);
    let mut votes = vec![0u8; graph.num_edges()];
    for node in 0..graph.num_nodes() as u32 {
        let inc = graph.incident(EntityId(node));
        if inc.is_empty() {
            continue;
        }
        let local: Vec<f64> = inc.iter().map(|&i| weights[i as usize]).collect();
        let threshold = mean(&local);
        for &i in inc {
            if weights[i as usize] >= threshold && weights[i as usize] > 0.0 {
                votes[i as usize] += 1;
            }
        }
    }
    let need = if reciprocal { 2 } else { 1 };
    let keep: Vec<u32> = (0..graph.num_edges() as u32)
        .filter(|&i| votes[i as usize] >= need)
        .collect();
    PrunedComparisons::from_indices(graph, &weights, scheme, keep)
}

/// Default CNP per-node cardinality: `k = max(1, ⌊BC / |E|⌋)` where `|E|`
/// is the number of *active* (blocked) entities.
pub fn default_cnp_k(graph: &BlockingGraph) -> usize {
    default_cnp_k_from(graph.total_assignments(), graph.active_nodes())
}

/// The default-CNP-k formula from raw aggregates — the single definition
/// both the materialised and streaming paths use, so `k = None` stays
/// bit-identical across backends.
pub(crate) fn default_cnp_k_from(total_assignments: u64, active_nodes: usize) -> usize {
    ((total_assignments as usize) / active_nodes.max(1)).max(1)
}

/// Cardinality Node Pruning: each node keeps its top-`k` incident edges
/// (`k` defaults to [`default_cnp_k`], which is always ≥ 1); `reciprocal`
/// as in [`wnp`]. An explicit `k == 0` short-circuits to an explicit
/// empty result (see [`cep`]).
#[doc(hidden)]
pub fn cnp(
    graph: &BlockingGraph,
    scheme: WeightingScheme,
    reciprocal: bool,
    k: Option<usize>,
) -> PrunedComparisons {
    let k = k.unwrap_or_else(|| default_cnp_k(graph));
    if k == 0 {
        return PrunedComparisons::empty(scheme, graph.num_edges());
    }
    let weights = scheme.all_weights(graph);
    let mut votes = vec![0u8; graph.num_edges()];
    for node in 0..graph.num_nodes() as u32 {
        let inc = graph.incident(EntityId(node));
        if inc.is_empty() {
            continue;
        }
        let mut top: TopK<(OrdF64, std::cmp::Reverse<u32>)> = TopK::new(k);
        for &i in inc {
            let w = weights[i as usize];
            if w > 0.0 {
                top.push((OrdF64(w), std::cmp::Reverse(i)));
            }
        }
        for (_, r) in top.into_sorted_vec() {
            votes[r.0 as usize] += 1;
        }
    }
    let need = if reciprocal { 2 } else { 1 };
    let keep: Vec<u32> = (0..graph.num_edges() as u32)
        .filter(|&i| votes[i as usize] >= need)
        .collect();
    PrunedComparisons::from_indices(graph, &weights, scheme, keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_blocking::builders::token_blocking;
    use minoan_blocking::{BlockCollection, ErMode};
    use minoan_datagen::{generate, profiles};
    use minoan_rdf::{DatasetBuilder, EntityId};

    fn toy_graph() -> BlockingGraph {
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
        // Strong pair (0,3): 3 common blocks. Weak pairs share one big block.
        let groups = vec![
            ("k1".to_string(), vec![e(0), e(3)]),
            ("k2".to_string(), vec![e(0), e(3)]),
            ("k3".to_string(), vec![e(0), e(3)]),
            ("big".to_string(), vec![e(0), e(1), e(2), e(3), e(4), e(5)]),
        ];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        BlockingGraph::build(&c)
    }

    #[test]
    fn wep_keeps_above_mean() {
        let g = toy_graph();
        let out = wep(&g, WeightingScheme::Cbs);
        // Weights: (0,3)=4, all others 1; mean = (4 + 8×1)/9 = 1.33…
        assert_eq!(out.pairs.len(), 1);
        assert_eq!((out.pairs[0].a, out.pairs[0].b), (EntityId(0), EntityId(3)));
        assert!(out.retention() < 0.2);
    }

    #[test]
    fn cep_respects_cardinality() {
        let g = toy_graph();
        let out = cep(&g, WeightingScheme::Cbs, Some(3));
        assert_eq!(out.pairs.len(), 3);
        assert_eq!((out.pairs[0].a, out.pairs[0].b), (EntityId(0), EntityId(3)));
        // Weights sorted descending.
        assert!(out.pairs.windows(2).all(|w| w[0].weight >= w[1].weight));
        // k larger than edges keeps all.
        let all = cep(&g, WeightingScheme::Cbs, Some(100));
        assert_eq!(all.pairs.len(), g.num_edges());
    }

    #[test]
    fn reciprocal_is_subset_of_union() {
        let g = toy_graph();
        for scheme in WeightingScheme::ALL {
            let union = wnp(&g, scheme, false);
            let recip = wnp(&g, scheme, true);
            assert!(recip.pairs.len() <= union.pairs.len(), "{scheme:?}");
            let uset: std::collections::HashSet<_> =
                union.pairs.iter().map(|p| (p.a, p.b)).collect();
            assert!(recip.pairs.iter().all(|p| uset.contains(&(p.a, p.b))));

            let cunion = cnp(&g, scheme, false, Some(2));
            let crecip = cnp(&g, scheme, true, Some(2));
            assert!(crecip.pairs.len() <= cunion.pairs.len());
        }
    }

    #[test]
    fn wnp_keeps_strong_local_edges() {
        let g = toy_graph();
        let out = wnp(&g, WeightingScheme::Cbs, true);
        assert!(out
            .pairs
            .iter()
            .any(|p| (p.a, p.b) == (EntityId(0), EntityId(3))));
    }

    #[test]
    fn cnp_per_node_cardinality_bounds_retention() {
        let g = toy_graph();
        let out = cnp(&g, WeightingScheme::Arcs, false, Some(1));
        // Union of per-node top-1: at most one edge per node.
        assert!(out.pairs.len() <= g.active_nodes());
        for p in &out.pairs {
            assert!(p.weight > 0.0);
        }
    }

    #[test]
    fn pruning_preserves_recall_on_generated_data() {
        let g = generate(&profiles::center_dense(200, 6));
        let blocks = token_blocking(&g.dataset, ErMode::CleanClean);
        let graph = BlockingGraph::build(&blocks);
        let truth_pairs: std::collections::HashSet<_> = g.truth.matching_pair_iter().collect();
        let base_found = graph
            .edges()
            .iter()
            .filter(|e| truth_pairs.contains(&(e.a, e.b)))
            .count() as f64;
        for (label, out) in [
            ("wep/cbs", wep(&graph, WeightingScheme::Cbs)),
            ("wnp/arcs", wnp(&graph, WeightingScheme::Arcs, false)),
            ("cnp/js", cnp(&graph, WeightingScheme::Js, false, None)),
        ] {
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
            assert!(
                out.pairs.len() < graph.num_edges(),
                "{label}: pruned nothing"
            );
        }
    }

    #[test]
    fn empty_graph_is_handled() {
        let ds = DatasetBuilder::new().build();
        let c = BlockCollection::from_groups(
            &ds,
            ErMode::CleanClean,
            Vec::<(String, Vec<EntityId>)>::new(),
        );
        let g = BlockingGraph::build(&c);
        for scheme in [WeightingScheme::Cbs, WeightingScheme::Ejs] {
            assert!(wep(&g, scheme).pairs.is_empty());
            assert!(cep(&g, scheme, None).pairs.is_empty());
            assert!(wnp(&g, scheme, false).pairs.is_empty());
            assert!(cnp(&g, scheme, true, None).pairs.is_empty());
        }
    }

    #[test]
    fn default_cardinalities_are_sane() {
        let g = toy_graph();
        assert!(default_cep_k(&g) >= 1);
        assert!(default_cnp_k(&g) >= 1);
    }

    /// Fixture with ECBS zero-weight edges: entities 0 (KB a) and 5–8
    /// (KB b) sit in *every* block, so `ln(|B|/|B_i|) = 0` kills each of
    /// their edges. Positive edges: (1,3) weak ≈ 0.199, (2,4) strong
    /// ≈ 2.59, plus 14 zero-weight edges.
    fn zero_heavy_ecbs_graph() -> BlockingGraph {
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
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        BlockingGraph::build(&c)
    }

    #[test]
    fn wep_mean_excludes_zero_weight_edges() {
        let g = zero_heavy_ecbs_graph();
        assert_eq!(g.num_edges(), 16);
        let weights = WeightingScheme::Ecbs.all_weights(&g);
        let positives: Vec<f64> = weights.iter().copied().filter(|&w| w > 0.0).collect();
        assert_eq!(positives.len(), 2, "fixture: exactly two positive edges");
        // The mean over positive edges (≈ 1.39) excludes the weak edge
        // (≈ 0.199); the old zero-deflated mean (≈ 0.174) kept it.
        let deflated = mean(&weights);
        let weak = positives.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            deflated < weak && weak < mean(&positives),
            "fixture must separate the two definitions"
        );
        let out = wep(&g, WeightingScheme::Ecbs);
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

    #[test]
    fn zero_cardinality_returns_explicit_empty_with_stats() {
        let g = toy_graph();
        for scheme in [WeightingScheme::Cbs, WeightingScheme::Ejs] {
            let e = cep(&g, scheme, Some(0));
            assert!(e.pairs.is_empty());
            assert_eq!(e.input_edges, g.num_edges(), "stats survive the guard");
            assert_eq!(e.retention(), 0.0);
            let n = cnp(&g, scheme, false, Some(0));
            assert!(n.pairs.is_empty());
            assert_eq!(n.input_edges, g.num_edges());
        }
    }

    #[test]
    fn default_cep_k_zero_on_single_assignment_collection() {
        // One block with one entity: BC = 1 → default K = 0; the guard
        // must yield an explicit empty result, not a degenerate heap.
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        b.add_literal(k0, "http://a/0", "http://p", "x");
        let ds = b.build();
        let c = BlockCollection::from_groups(
            &ds,
            ErMode::Dirty,
            vec![("only".to_string(), vec![EntityId(0)])],
        );
        let g = BlockingGraph::build(&c);
        assert_eq!(default_cep_k(&g), 0);
        let out = cep(&g, WeightingScheme::Cbs, None);
        assert!(out.pairs.is_empty());
        assert_eq!(out.input_edges, 0);
    }
}
