//! Benefit models for the scheduling phase.
//!
//! "In contrast to existing works in progressive relational ER, which
//! consider the quantity of entity pairs resolved as the benefit of ER, we
//! explore different aspects of data quality" (paper §1): attribute
//! completeness, entity coverage and relationship completeness. Each model
//! scores a candidate as `likelihood × quality factor`, where likelihood
//! is the candidate's match prior (meta-blocking weight + neighbour
//! evidence) and the factor encodes the targeted quality dimension given
//! the *current* resolution state.

use crate::candidates::Candidate;
use minoan_common::UnionFind;
use minoan_rdf::{Dataset, EntityId};
use minoan_similarity::token;

/// The benefit a scheduled comparison is expected to contribute.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum BenefitModel {
    /// Baseline (Altowim et al.): every resolved pair counts equally, so
    /// benefit = match likelihood.
    PairQuantity,
    /// Targets descriptions-per-entity: merges that add *new attribute
    /// information* to a cluster score higher.
    AttributeCompleteness,
    /// Targets distinct real-world entities: first resolutions of
    /// still-unresolved descriptions score higher than pile-ons.
    EntityCoverage,
    /// Targets entity *graphs*: pairs whose neighbourhoods are already
    /// partially resolved score higher (completing connected structures).
    RelationshipCompleteness,
}

impl BenefitModel {
    /// All models, for sweeps.
    pub const ALL: [BenefitModel; 4] = [
        BenefitModel::PairQuantity,
        BenefitModel::AttributeCompleteness,
        BenefitModel::EntityCoverage,
        BenefitModel::RelationshipCompleteness,
    ];

    /// Short name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            BenefitModel::PairQuantity => "pair-quantity",
            BenefitModel::AttributeCompleteness => "attr-completeness",
            BenefitModel::EntityCoverage => "entity-coverage",
            BenefitModel::RelationshipCompleteness => "rel-completeness",
        }
    }

    /// Scores `cand` under this model against the current `state`.
    pub fn score(self, state: &ResolutionState, cand: &Candidate) -> f64 {
        let likelihood = cand.likelihood();
        if likelihood <= 0.0 {
            return 0.0;
        }
        let factor = match self {
            BenefitModel::PairQuantity => 1.0,
            BenefitModel::AttributeCompleteness => {
                // Attribute novelty × freshness: the first merges of an
                // entity add the most new attribute names; later pile-ons
                // add progressively less.
                let fresh = match (state.resolved(cand.a), state.resolved(cand.b)) {
                    (false, false) => 1.0,
                    (true, false) | (false, true) => 0.6,
                    (true, true) => 0.25,
                };
                (0.3 + 0.7 * state.attribute_gain(cand.a, cand.b)) * fresh
            }
            BenefitModel::EntityCoverage => {
                match (state.resolved(cand.a), state.resolved(cand.b)) {
                    (false, false) => 1.0,
                    (true, false) | (false, true) => 0.4,
                    (true, true) => 0.1,
                }
            }
            BenefitModel::RelationshipCompleteness => {
                // A relationship is completed when *both* its endpoint
                // entities are covered: behave like entity coverage but
                // only graph-embedded entities count, and neighbourhood
                // alignment adds a final nudge.
                let fresh = match (state.resolved(cand.a), state.resolved(cand.b)) {
                    (false, false) => 1.0,
                    (true, false) | (false, true) => 0.4,
                    (true, true) => 0.1,
                };
                let linked = if state.is_linked(cand.a) && state.is_linked(cand.b) {
                    1.0
                } else {
                    0.3
                };
                fresh * linked * (0.8 + 0.2 * state.resolved_neighbor_fraction(cand.a, cand.b))
            }
        };
        likelihood * factor
    }
}

/// Live state of the resolution: clusters so far plus the bookkeeping the
/// quality-oriented benefit models read.
pub struct ResolutionState<'d> {
    dataset: &'d Dataset,
    clusters: UnionFind,
    resolved: Vec<bool>,
    /// Attribute-name sets (predicate symbol ids), each sorted and
    /// deduplicated, back to back: one per description, then one appended
    /// per merge. A merged-away set stays where it is, unreferenced.
    attr_sets: Vec<u32>,
    /// Per description, the span of `attr_sets` holding the set of the
    /// cluster it is the root of: its own until a match merges it.
    cluster_attrs: Vec<(usize, usize)>,
}

/// Cap on neighbourhood cross-products examined per benefit evaluation —
/// keeps scoring O(1) on hub entities.
const NEIGHBOR_CAP: usize = 8;

impl<'d> ResolutionState<'d> {
    /// Fresh state: every description is its own singleton cluster.
    pub fn new(dataset: &'d Dataset) -> Self {
        let mut attr_sets = Vec::new();
        let mut cluster_attrs = Vec::with_capacity(dataset.len());
        let mut names: Vec<u32> = Vec::new();
        for e in dataset.entities() {
            names.clear();
            names.extend(dataset.description(e).attributes().map(|(p, _)| p.0));
            names.sort_unstable();
            names.dedup();
            cluster_attrs.push((attr_sets.len(), attr_sets.len() + names.len()));
            attr_sets.extend_from_slice(&names);
        }
        Self {
            dataset,
            clusters: UnionFind::new(dataset.len()),
            resolved: vec![false; dataset.len()],
            attr_sets,
            cluster_attrs,
        }
    }

    /// Whether `e` participates in at least one match.
    pub fn resolved(&self, e: EntityId) -> bool {
        self.resolved[e.index()]
    }

    /// Whether `e` has any neighbour in the relationship graph.
    pub fn is_linked(&self, e: EntityId) -> bool {
        !self.dataset.neighbors(e).is_empty()
    }

    /// Whether `a` and `b` are already in the same cluster.
    pub fn same_cluster(&self, a: EntityId, b: EntityId) -> bool {
        self.clusters.find_immutable(a.0) == self.clusters.find_immutable(b.0)
    }

    /// Final clusters with at least `min` members.
    pub fn final_clusters(&mut self, min: usize) -> Vec<Vec<u32>> {
        self.clusters.clusters(min)
    }

    /// Attribute names of the cluster holding `e`, ascending.
    fn attrs_of_cluster(&self, e: EntityId) -> &[u32] {
        let (start, end) = self.cluster_attrs[self.clusters.find_immutable(e.0) as usize];
        &self.attr_sets[start..end]
    }

    /// Fraction of *new* attribute names a merge of the two clusters would
    /// contribute, in `[0, 1]` (symmetric difference over union).
    pub fn attribute_gain(&self, a: EntityId, b: EntityId) -> f64 {
        let sa = self.attrs_of_cluster(a);
        let sb = self.attrs_of_cluster(b);
        let inter = token::intersection_size(sa, sb);
        let union = sa.len() + sb.len() - inter;
        if union == 0 {
            return 0.0;
        }
        (union - inter) as f64 / union as f64
    }

    /// Fraction of neighbour pairs `(na, nb)` already resolved into the
    /// same cluster, examined over a capped neighbour window
    /// (`NEIGHBOR_CAP`² = 64 pairs).
    pub fn resolved_neighbor_fraction(&self, a: EntityId, b: EntityId) -> f64 {
        let na = self.dataset.neighbors(a);
        let nb = self.dataset.neighbors(b);
        if na.is_empty() || nb.is_empty() {
            return 0.0;
        }
        let mut hits = 0usize;
        let mut total = 0usize;
        for &x in na.iter().take(NEIGHBOR_CAP) {
            for &y in nb.iter().take(NEIGHBOR_CAP) {
                total += 1;
                if x != y && self.same_cluster(x, y) {
                    hits += 1;
                }
            }
        }
        hits as f64 / total as f64
    }

    /// Records an accepted match: unions the clusters, merges attribute
    /// sets, marks both endpoints resolved.
    pub fn record_match(&mut self, a: EntityId, b: EntityId) {
        let (root_a, root_b) = (self.clusters.find(a.0), self.clusters.find(b.0));
        if root_a != root_b {
            // Linear union of the two sets, appended to the slab they sit in.
            let (mut i, end_a) = self.cluster_attrs[root_a as usize];
            let (mut j, end_b) = self.cluster_attrs[root_b as usize];
            let start = self.attr_sets.len();
            while i < end_a && j < end_b {
                let (x, y) = (self.attr_sets[i], self.attr_sets[j]);
                self.attr_sets.push(x.min(y));
                i += usize::from(x <= y);
                j += usize::from(y <= x);
            }
            self.attr_sets.extend_from_within(i..end_a);
            self.attr_sets.extend_from_within(j..end_b);
            self.clusters.union(a.0, b.0);
            let root = self.clusters.find(a.0);
            self.cluster_attrs[root as usize] = (start, self.attr_sets.len());
        }
        self.resolved[a.index()] = true;
        self.resolved[b.index()] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidatePool;
    use minoan_rdf::DatasetBuilder;

    /// 2 KBs × 3 entities; a0–b0 linked to a1–b1 (world structure).
    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        for (kb, pre) in [(k0, "http://a"), (k1, "http://b")] {
            for i in 0..3 {
                b.add_literal(kb, &format!("{pre}/{i}"), &format!("{pre}/o/p{i}"), "v");
            }
            b.add_resource(
                kb,
                &format!("{pre}/0"),
                &format!("{pre}/o/rel"),
                &format!("{pre}/1"),
            );
        }
        b.build()
    }

    fn cand(pool: &mut CandidatePool, a: u32, b: u32, prior: f64) -> Candidate {
        let id = pool.insert(EntityId(a), EntityId(b), prior);
        pool.get(id).clone()
    }

    #[test]
    fn pair_quantity_equals_likelihood() {
        let ds = dataset();
        let state = ResolutionState::new(&ds);
        let mut pool = CandidatePool::new();
        let c = cand(&mut pool, 0, 3, 0.8);
        assert_eq!(BenefitModel::PairQuantity.score(&state, &c), 0.8);
    }

    #[test]
    fn entity_coverage_prefers_fresh_entities() {
        let ds = dataset();
        let mut state = ResolutionState::new(&ds);
        let mut pool = CandidatePool::new();
        let fresh = cand(&mut pool, 1, 4, 0.5);
        let before = BenefitModel::EntityCoverage.score(&state, &fresh);
        state.record_match(EntityId(1), EntityId(4));
        let after = BenefitModel::EntityCoverage.score(&state, &fresh);
        assert!(before > after, "resolved endpoints must score lower");
        let half = cand(&mut pool, 1, 5, 0.5);
        let half_score = BenefitModel::EntityCoverage.score(&state, &half);
        assert!(half_score < before && half_score > after);
    }

    #[test]
    fn attribute_gain_tracks_cluster_merges() {
        let ds = dataset();
        let mut state = ResolutionState::new(&ds);
        // a/0 has {p0, rel}, b/0 has {p0', rel'} — all predicate names are
        // KB-qualified here, so gain is 1.0 (fully disjoint sets).
        assert!((state.attribute_gain(EntityId(0), EntityId(3)) - 1.0).abs() < 1e-12);
        // Same entity → zero gain.
        assert_eq!(state.attribute_gain(EntityId(0), EntityId(0)), 0.0);
        // After merging 0 and 3, the cluster has both attribute sets; a new
        // pair against the cluster gains less.
        let gain_before = state.attribute_gain(EntityId(0), EntityId(4));
        state.record_match(EntityId(0), EntityId(3));
        let gain_after = state.attribute_gain(EntityId(0), EntityId(4));
        assert!(gain_after <= gain_before + 1e-12);
    }

    /// `attribute_gain` against sets built the slow way — a `HashSet` of
    /// predicate ids per cluster, re-derived from membership after every
    /// match — over random match sequences, repeats and pairs already
    /// clustered included.
    #[test]
    fn attribute_gain_equals_a_hash_set_oracle_over_random_match_sequences() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::HashSet;

        const N: u32 = 40;
        let mut rng = StdRng::seed_from_u64(12);
        let mut b = DatasetBuilder::new();
        let kb = b.add_kb("k", "http://k/");
        for e in 0..N {
            // 1–6 attributes out of 9 names, in any order, some repeated.
            for _ in 0..rng.gen_range(1..=6u32) {
                let p = rng.gen_range(0..9u32);
                b.add_literal(kb, &format!("http://k/{e}"), &format!("http://k/p{p}"), "v");
            }
        }
        let ds = b.build();
        let own: Vec<HashSet<u32>> = ds
            .entities()
            .map(|e| ds.description(e).attributes().map(|(p, _)| p.0).collect())
            .collect();
        for round in 0..20 {
            let mut state = ResolutionState::new(&ds);
            for step in 0..60 {
                let (x, y) = (EntityId(rng.gen_range(0..N)), EntityId(rng.gen_range(0..N)));
                state.record_match(x, y);
                let set_of = |e: EntityId| -> HashSet<u32> {
                    ds.entities()
                        .filter(|&o| state.same_cluster(e, o))
                        .flat_map(|o| own[o.index()].iter().copied())
                        .collect()
                };
                for _ in 0..8 {
                    let (p, q) = (EntityId(rng.gen_range(0..N)), EntityId(rng.gen_range(0..N)));
                    let (sp, sq) = (set_of(p), set_of(q));
                    let inter = sp.intersection(&sq).count();
                    let union = sp.len() + sq.len() - inter;
                    let want = (union - inter) as f64 / union as f64;
                    let got = state.attribute_gain(p, q);
                    assert_eq!(got.to_bits(), want.to_bits(), "round {round} step {step}");
                }
            }
        }
    }

    #[test]
    fn relationship_completeness_rises_with_resolved_neighbors() {
        let ds = dataset();
        let mut state = ResolutionState::new(&ds);
        let mut pool = CandidatePool::new();
        // Pair (0, 3): neighbours are 1 (of 0) and 4 (of 3).
        let c = cand(&mut pool, 0, 3, 1.0);
        let before = BenefitModel::RelationshipCompleteness.score(&state, &c);
        state.record_match(EntityId(1), EntityId(4));
        let after = BenefitModel::RelationshipCompleteness.score(&state, &c);
        assert!(after > before, "resolved neighbour link must raise benefit");
        assert!(
            (after - 1.0).abs() < 1e-12,
            "all neighbour pairs resolved → factor 1"
        );
    }

    #[test]
    fn no_neighbors_means_zero_fraction() {
        let ds = dataset();
        let state = ResolutionState::new(&ds);
        assert_eq!(
            state.resolved_neighbor_fraction(EntityId(2), EntityId(5)),
            0.0
        );
    }

    #[test]
    fn zero_likelihood_scores_zero_under_all_models() {
        let ds = dataset();
        let state = ResolutionState::new(&ds);
        let mut pool = CandidatePool::new();
        let c = cand(&mut pool, 2, 5, 0.0);
        for m in BenefitModel::ALL {
            assert_eq!(m.score(&state, &c), 0.0, "{m:?}");
        }
    }

    #[test]
    fn record_match_updates_all_bookkeeping() {
        let ds = dataset();
        let mut state = ResolutionState::new(&ds);
        assert!(!state.resolved(EntityId(0)));
        state.record_match(EntityId(0), EntityId(3));
        assert!(state.resolved(EntityId(0)) && state.resolved(EntityId(3)));
        assert!(state.same_cluster(EntityId(0), EntityId(3)));
        // Transitive merge keeps attribute union coherent.
        state.record_match(EntityId(3), EntityId(1));
        assert!(state.same_cluster(EntityId(0), EntityId(1)));
        let clusters = state.final_clusters(2);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0], vec![0, 1, 3]);
    }

    #[test]
    fn model_names_are_stable() {
        let names: Vec<_> = BenefitModel::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "pair-quantity",
                "attr-completeness",
                "entity-coverage",
                "rel-completeness"
            ]
        );
    }
}
