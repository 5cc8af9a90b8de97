//! Edge-weighting schemes.
//!
//! Notation (per the meta-blocking literature): `B_i` = blocks containing
//! entity `i`; `B_ij` = blocks shared by `i` and `j`; `|B|` = total blocks;
//! `V_i` = distinct co-occurring entities of `i`; `|V|` = distinct
//! comparable pairs (edges); `‖b‖` = comparisons in block `b`.

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
    /// session re-weighs the rows of the other schemes on their first read
    /// at every version.
    ///
    /// * **CBS / JS** read `|B_ij|` (JS adds `|B_i|`, `|B_j|`). A pair's
    ///   shared-block count grows only through a touched block both sit
    ///   in, and `|B_i|` only for an entity whose block list grew — a
    ///   member of a touched block. Under JS that one dirty endpoint
    ///   re-weighs its edges to clean neighbours as well, so the rows a
    ///   batch changes are the dirty entities' *and* those neighbours'.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pruning, Session, WeightedPair};
    use minoan_blocking::{BlockCollection, ErMode};
    use minoan_rdf::{DatasetBuilder, EntityId};

    /// Fixture: entities 0,1 in KB a; 2,3 in KB b.
    /// Blocks: k1 = {0,2}, k2 = {0,2,3}, k3 = {1,3}, k4 = {0,1,2,3}.
    fn blocks() -> BlockCollection {
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
        BlockCollection::from_groups(&ds, ErMode::CleanClean, groups)
    }

    /// Every edge's weight under `scheme`, in pair order: the unpruned
    /// session run.
    fn weights(scheme: WeightingScheme) -> Vec<WeightedPair> {
        let blocks = blocks();
        let mut session = Session::new(&blocks);
        session
            .scheme(scheme)
            .pruning(Pruning::None)
            .run()
            .pruned
            .pairs
    }

    /// The weight of edge `(a, b)` under `scheme`.
    fn weight(scheme: WeightingScheme, a: u32, b: u32) -> f64 {
        let edges = weights(scheme);
        let edge = edges.iter().find(|p| (p.a.0, p.b.0) == (a, b));
        edge.expect("edge exists").weight
    }

    #[test]
    fn cbs_counts_common_blocks() {
        assert_eq!(weight(WeightingScheme::Cbs, 0, 2), 3.0);
        assert_eq!(weight(WeightingScheme::Cbs, 0, 3), 2.0);
        assert_eq!(weight(WeightingScheme::Cbs, 1, 3), 2.0);
        assert_eq!(weight(WeightingScheme::Cbs, 1, 2), 1.0);
    }

    #[test]
    fn js_is_normalised_overlap() {
        // |B_0| = 3, |B_2| = 3, |B_02| = 3 → JS = 3/(3+3−3) = 1.
        assert!((weight(WeightingScheme::Js, 0, 2) - 1.0).abs() < 1e-12);
        // |B_1| = 2, |B_2| = 3, common = 1 → 1/(2+3−1) = 0.25.
        assert!((weight(WeightingScheme::Js, 1, 2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ecbs_discounts_prolific_entities() {
        // ECBS = CBS · ln(4/|B_i|) · ln(4/|B_j|); |B_0|=|B_2|=3, |B_1|=2, |B_3|=3.
        let w02 = weight(WeightingScheme::Ecbs, 0, 2);
        let expected = 3.0 * (4.0f64 / 3.0).ln() * (4.0f64 / 3.0).ln();
        assert!((w02 - expected).abs() < 1e-12);
        // The same CBS with rarer entities scores higher.
        let w12 = weight(WeightingScheme::Ecbs, 1, 2);
        let expected12 = 1.0 * (4.0f64 / 2.0).ln() * (4.0f64 / 3.0).ln();
        assert!((w12 - expected12).abs() < 1e-12);
    }

    #[test]
    fn arcs_rewards_small_blocks() {
        // Blocks comparisons: k1=1, k2=2, k3=1, k4=4.
        // edge (0,2): in k1,k2,k4 → 1/1 + 1/2 + 1/4 = 1.75.
        assert!((weight(WeightingScheme::Arcs, 0, 2) - 1.75).abs() < 1e-12);
        // edge (1,3): k3,k4 → 1 + 0.25 = 1.25.
        assert!((weight(WeightingScheme::Arcs, 1, 3) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn ejs_combines_js_with_degree_information() {
        // |V| = 4 edges; degrees: deg(0)=2 (2,3), deg(2)=2 (0,1).
        let js = weight(WeightingScheme::Js, 0, 2);
        let expected = js * (4.0f64 / 2.0).ln() * (4.0f64 / 2.0).ln();
        assert!((weight(WeightingScheme::Ejs, 0, 2) - expected).abs() < 1e-12);
    }

    #[test]
    fn every_weight_is_finite_and_non_negative() {
        for scheme in WeightingScheme::ALL {
            assert!(
                weights(scheme)
                    .iter()
                    .all(|p| p.weight.is_finite() && p.weight >= 0.0),
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
