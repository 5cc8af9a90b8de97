//! Edge-weighting schemes.
//!
//! Notation (per the meta-blocking literature): `B_i` = blocks containing
//! entity `i`; `B_ij` = blocks shared by `i` and `j`; `|B|` = total blocks;
//! `V_i` = distinct co-occurring entities of `i`; `|V|` = distinct
//! comparable pairs (edges); `‖b‖` = comparisons in block `b`.

use crate::graph::{BlockingGraph, Edge};
use crate::kernel;

/// The five standard meta-blocking weighting schemes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum WeightingScheme {
    /// Common Blocks Scheme: `|B_ij|`.
    Cbs,
    /// Enhanced CBS: `|B_ij| · ln(|B|/|B_i|) · ln(|B|/|B_j|)`.
    Ecbs,
    /// Jaccard Scheme: `|B_ij| / (|B_i| + |B_j| − |B_ij|)`.
    Js,
    /// Enhanced JS: `JS · ln(|V|/|V_i|) · ln(|V|/|V_j|)`.
    Ejs,
    /// Aggregate Reciprocal Comparisons: `Σ_{b ∈ B_ij} 1/‖b‖`.
    Arcs,
}

impl WeightingScheme {
    /// All schemes, for sweep experiments.
    pub const ALL: [WeightingScheme; 5] = [
        WeightingScheme::Cbs,
        WeightingScheme::Ecbs,
        WeightingScheme::Js,
        WeightingScheme::Ejs,
        WeightingScheme::Arcs,
    ];

    /// Short display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            WeightingScheme::Cbs => "CBS",
            WeightingScheme::Ecbs => "ECBS",
            WeightingScheme::Js => "JS",
            WeightingScheme::Ejs => "EJS",
            WeightingScheme::Arcs => "ARCS",
        }
    }

    /// Whether an arriving batch can change this scheme's weights only on
    /// edges with a *dirty* endpoint — a member of a block the batch
    /// touched. The one place delta-locality is decided: the incremental
    /// session delta-sweeps exactly these schemes, and a neighbourhood
    /// cache may invalidate entry by entry only under them.
    ///
    /// * **CBS / JS** read `|B_ij|` (JS adds `|B_i|`, `|B_j|`). A pair's
    ///   shared-block count grows only through a touched block both sit
    ///   in, and `|B_i|` only for an entity whose block list grew — a
    ///   member of a touched block. Under JS that one dirty endpoint
    ///   re-weighs its edges to clean neighbours as well, so the rows a
    ///   batch changes are the dirty entities' *and* those neighbours':
    ///   the incremental session reports both for cache invalidation.
    /// * **ARCS** sums `1/‖b‖` over shared blocks: a touched block
    ///   reweights every pair inside it, and both endpoints of each such
    ///   pair are its members.
    /// * **ECBS / EJS** scale by `|B|` (EJS also by `|V|` and the node
    ///   degrees), which nearly every arrival shifts: every weight moves,
    ///   with no dirty-set trace.
    pub(crate) fn is_delta_local(self) -> bool {
        matches!(
            self,
            WeightingScheme::Cbs | WeightingScheme::Js | WeightingScheme::Arcs
        )
    }

    /// Weight of `edge` in `graph` under this scheme. Always finite and
    /// ≥ 0; higher = stronger co-occurrence evidence.
    ///
    /// Computed through [`kernel::weight_from_stats`] — the single
    /// stats → weight body every sweep computes through, so a graph edge
    /// and a swept edge carry the same f64 bits. Edge endpoints are
    /// already normalised (`edge.a < edge.b` in the slab), matching the
    /// kernel's `(lo, hi)` contract.
    pub fn weight(self, graph: &BlockingGraph, edge: &Edge) -> f64 {
        kernel::weight_from_stats(
            self,
            edge.common_blocks,
            edge.arcs,
            graph.blocks_of(edge.a),
            graph.blocks_of(edge.b),
            graph.num_blocks(),
            graph.degree(edge.a),
            graph.degree(edge.b),
            graph.num_edges(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_blocking::{BlockCollection, ErMode};
    use minoan_rdf::{DatasetBuilder, EntityId};

    /// Fixture: entities 0,1 in KB a; 2,3 in KB b.
    /// Blocks: k1 = {0,2}, k2 = {0,2,3}, k3 = {1,3}, k4 = {0,1,2,3}.
    fn graph() -> BlockingGraph {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        for i in 0..2 {
            b.add_literal(k0, &format!("http://a/{i}"), "http://p", "x");
        }
        for i in 2..4 {
            b.add_literal(k1, &format!("http://b/{i}"), "http://p", "x");
        }
        let ds = b.build();
        let e = EntityId;
        let groups = vec![
            ("k1".to_string(), vec![e(0), e(2)]),
            ("k2".to_string(), vec![e(0), e(2), e(3)]),
            ("k3".to_string(), vec![e(1), e(3)]),
            ("k4".to_string(), vec![e(0), e(1), e(2), e(3)]),
        ];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        BlockingGraph::build(&c)
    }

    fn edge(g: &BlockingGraph, a: u32, b: u32) -> &crate::Edge {
        g.edges()
            .iter()
            .find(|e| e.a == EntityId(a) && e.b == EntityId(b))
            .expect("edge exists")
    }

    #[test]
    fn cbs_counts_common_blocks() {
        let g = graph();
        assert_eq!(WeightingScheme::Cbs.weight(&g, edge(&g, 0, 2)), 3.0);
        assert_eq!(WeightingScheme::Cbs.weight(&g, edge(&g, 0, 3)), 2.0);
        assert_eq!(WeightingScheme::Cbs.weight(&g, edge(&g, 1, 3)), 2.0);
        assert_eq!(WeightingScheme::Cbs.weight(&g, edge(&g, 1, 2)), 1.0);
    }

    #[test]
    fn js_is_normalised_overlap() {
        let g = graph();
        // |B_0| = 3, |B_2| = 3, |B_02| = 3 → JS = 3/(3+3−3) = 1.
        assert!((WeightingScheme::Js.weight(&g, edge(&g, 0, 2)) - 1.0).abs() < 1e-12);
        // |B_1| = 2, |B_2| = 3, common = 1 → 1/(2+3−1) = 0.25.
        assert!((WeightingScheme::Js.weight(&g, edge(&g, 1, 2)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ecbs_discounts_prolific_entities() {
        let g = graph();
        // ECBS = CBS · ln(4/|B_i|) · ln(4/|B_j|); |B_0|=|B_2|=3, |B_1|=2, |B_3|=3.
        let w02 = WeightingScheme::Ecbs.weight(&g, edge(&g, 0, 2));
        let expected = 3.0 * (4.0f64 / 3.0).ln() * (4.0f64 / 3.0).ln();
        assert!((w02 - expected).abs() < 1e-12);
        // The same CBS with rarer entities scores higher.
        let w12 = WeightingScheme::Ecbs.weight(&g, edge(&g, 1, 2));
        let expected12 = 1.0 * (4.0f64 / 2.0).ln() * (4.0f64 / 3.0).ln();
        assert!((w12 - expected12).abs() < 1e-12);
    }

    #[test]
    fn arcs_rewards_small_blocks() {
        let g = graph();
        // Blocks comparisons: k1=1, k2=2, k3=1, k4=4.
        // edge (0,2): in k1,k2,k4 → 1/1 + 1/2 + 1/4 = 1.75.
        assert!((WeightingScheme::Arcs.weight(&g, edge(&g, 0, 2)) - 1.75).abs() < 1e-12);
        // edge (1,3): k3,k4 → 1 + 0.25 = 1.25.
        assert!((WeightingScheme::Arcs.weight(&g, edge(&g, 1, 3)) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn ejs_combines_js_with_degree_information() {
        let g = graph();
        // |V| = 4 edges; degrees: deg(0)=2 (2,3), deg(2)=2 (0,1).
        let js = WeightingScheme::Js.weight(&g, edge(&g, 0, 2));
        let expected = js * (4.0f64 / 2.0).ln() * (4.0f64 / 2.0).ln();
        assert!((WeightingScheme::Ejs.weight(&g, edge(&g, 0, 2)) - expected).abs() < 1e-12);
    }

    #[test]
    fn every_weight_is_finite_and_non_negative() {
        let g = graph();
        for scheme in WeightingScheme::ALL {
            assert!(
                g.edges()
                    .iter()
                    .map(|e| scheme.weight(&g, e))
                    .all(|w| w.is_finite() && w >= 0.0),
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<_> = WeightingScheme::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["CBS", "ECBS", "JS", "EJS", "ARCS"]);
    }
}
