//! Entity clustering: from pairwise matches to resolved entities.
//!
//! Matching emits weighted pairs; the final ER output is a *partition* of
//! the descriptions. The naive transitive closure (connected components)
//! over-merges as soon as one false match bridges two entities, so the ER
//! literature developed center-based alternatives. This module implements
//! the four standard algorithms (as in the JedAI toolkit's entity
//! clustering stage):
//!
//! * [`connected_components`] — transitive closure (the baseline; exactly
//!   what the engine's union-find produces).
//! * [`center_clustering`] — scan edges by descending weight; the first
//!   endpoint seen becomes a *center*, the other a *satellite*; satellites
//!   never recruit further members, so false bridges stop at one hop.
//! * [`merge_center_clustering`] — like center clustering, but an edge
//!   between two centers merges their clusters (recovers recall that
//!   center clustering gives up).
//! * [`unique_mapping_clustering`] — clean–clean ER: greedy maximum-weight
//!   one-to-one assignment across KBs (each description pairs with at most
//!   one per other KB).
//!
//! All functions take the matches as `(a, b, weight)` over a universe of
//! `n` descriptions and return the non-singleton clusters, sorted, so the
//! outputs are directly comparable in tests and experiments.

use minoan_common::{FxHashSet, UnionFind};
use minoan_rdf::{Dataset, EntityId};

/// Sorts edges by descending weight (ties: ascending pair) — the canonical
/// processing order of the center-based algorithms, and static best-first.
pub(crate) fn by_weight_desc(
    matches: &[(EntityId, EntityId, f64)],
) -> Vec<(EntityId, EntityId, f64)> {
    let mut edges = matches.to_vec();
    edges.sort_by(|x, y| {
        y.2.partial_cmp(&x.2)
            .expect("match weights must be finite")
            .then_with(|| (x.0, x.1).cmp(&(y.0, y.1)))
    });
    edges
}

/// Transitive closure over all matches.
pub fn connected_components(n: usize, matches: &[(EntityId, EntityId, f64)]) -> Vec<Vec<u32>> {
    let mut uf = UnionFind::new(n);
    for &(a, b, _) in matches {
        uf.union(a.0, b.0);
    }
    uf.clusters(2)
}

/// Center clustering (Haveliwala et al.): by descending weight, an edge
/// whose endpoints are both unassigned makes the smaller-id endpoint a
/// center and the other its satellite; an edge from an unassigned node to
/// a *center* joins it as a satellite; satellite–satellite and
/// satellite–center edges are ignored.
pub fn center_clustering(n: usize, matches: &[(EntityId, EntityId, f64)]) -> Vec<Vec<u32>> {
    centers(n, matches, false)
}

/// Merge-center clustering: center clustering, except an edge between two
/// *centers* merges their clusters.
pub fn merge_center_clustering(n: usize, matches: &[(EntityId, EntityId, f64)]) -> Vec<Vec<u32>> {
    centers(n, matches, true)
}

/// Center clustering; with `merge`, an edge of two centers merges their
/// clusters.
fn centers(n: usize, matches: &[(EntityId, EntityId, f64)], merge: bool) -> Vec<Vec<u32>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Role {
        Free,
        Center,
        Satellite,
    }
    let mut role = vec![Role::Free; n];
    let mut uf = UnionFind::new(n);
    for (a, b, _) in by_weight_desc(matches) {
        let (ia, ib) = (a.index(), b.index());
        match (role[ia], role[ib]) {
            (Role::Free, Role::Free) => {
                role[ia] = Role::Center;
                role[ib] = Role::Satellite;
            }
            (Role::Free, Role::Center) => role[ia] = Role::Satellite,
            (Role::Center, Role::Free) => role[ib] = Role::Satellite,
            (Role::Center, Role::Center) if merge => {}
            _ => continue, // a satellite involved, or two centers unmerged
        }
        uf.union(a.0, b.0);
    }
    uf.clusters(2)
}

/// Unique mapping for clean–clean ER: the KB each description has matched
/// into, so that it matches at most one description per other KB. When
/// off it refuses and records nothing.
pub(crate) struct UniqueMapping {
    on: bool,
    mapped: FxHashSet<(u32, u16)>,
}

impl UniqueMapping {
    pub(crate) fn new(on: bool) -> Self {
        let mapped = FxHashSet::default();
        Self { on, mapped }
    }

    /// Whether `a` (of KB `ka`) or `b` (of KB `kb`) has already matched
    /// into the other's KB.
    pub(crate) fn refuses(&self, a: EntityId, b: EntityId, [ka, kb]: [u16; 2]) -> bool {
        self.on && (self.mapped.contains(&(a.0, kb)) || self.mapped.contains(&(b.0, ka)))
    }

    /// Records a match of `a` (of KB `ka`) and `b` (of KB `kb`).
    pub(crate) fn map(&mut self, a: EntityId, b: EntityId, [ka, kb]: [u16; 2]) {
        if self.on {
            self.mapped.insert((a.0, kb));
            self.mapped.insert((b.0, ka));
        }
    }
}

/// The KBs of `a` and `b`, as [`UniqueMapping`] reads them.
pub(crate) fn kbs(dataset: &Dataset, a: EntityId, b: EntityId) -> [u16; 2] {
    [dataset.kb_of(a).0, dataset.kb_of(b).0]
}

/// Unique-mapping clustering for clean–clean ER: edges by descending
/// weight; an edge is accepted iff neither endpoint is already mapped to
/// the other endpoint's KB. `kb_of(e)` supplies the KB partition.
pub fn unique_mapping_clustering(
    n: usize,
    matches: &[(EntityId, EntityId, f64)],
    mut kb_of: impl FnMut(EntityId) -> u16,
) -> Vec<Vec<u32>> {
    let mut uf = UnionFind::new(n);
    let mut mapping = UniqueMapping::new(true);
    for (a, b, _) in by_weight_desc(matches) {
        let kbs = [kb_of(a), kb_of(b)];
        // Intra-KB pairs are never accepted in clean–clean.
        if kbs[0] == kbs[1] || mapping.refuses(a, b, kbs) {
            continue;
        }
        mapping.map(a, b, kbs);
        uf.union(a.0, b.0);
    }
    uf.clusters(2)
}

/// Which clustering algorithm to run (for experiment sweeps and the CLI).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClusteringAlgorithm {
    /// Transitive closure.
    ConnectedComponents,
    /// Center clustering.
    Center,
    /// Merge-center clustering.
    MergeCenter,
    /// Greedy one-to-one across KBs.
    UniqueMapping,
}

impl ClusteringAlgorithm {
    /// All algorithms.
    pub const ALL: [ClusteringAlgorithm; 4] = [
        ClusteringAlgorithm::ConnectedComponents,
        ClusteringAlgorithm::Center,
        ClusteringAlgorithm::MergeCenter,
        ClusteringAlgorithm::UniqueMapping,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ClusteringAlgorithm::ConnectedComponents => "connected-components",
            ClusteringAlgorithm::Center => "center",
            ClusteringAlgorithm::MergeCenter => "merge-center",
            ClusteringAlgorithm::UniqueMapping => "unique-mapping",
        }
    }

    /// Runs the algorithm.
    pub fn run(
        self,
        n: usize,
        matches: &[(EntityId, EntityId, f64)],
        kb_of: impl FnMut(EntityId) -> u16,
    ) -> Vec<Vec<u32>> {
        match self {
            ClusteringAlgorithm::ConnectedComponents => connected_components(n, matches),
            ClusteringAlgorithm::Center => center_clustering(n, matches),
            ClusteringAlgorithm::MergeCenter => merge_center_clustering(n, matches),
            ClusteringAlgorithm::UniqueMapping => unique_mapping_clustering(n, matches, kb_of),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    /// Chain with a weak false bridge: {0,1} and {2,3} are strong pairs,
    /// (1,2) is a weak bridge.
    fn bridged() -> Vec<(EntityId, EntityId, f64)> {
        vec![
            (e(0), e(1), 0.95),
            (e(2), e(3), 0.9),
            (e(1), e(2), 0.4), // the false bridge
        ]
    }

    #[test]
    fn connected_components_over_merges_across_the_bridge() {
        let clusters = connected_components(4, &bridged());
        assert_eq!(clusters, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn center_clustering_stops_the_bridge() {
        let clusters = center_clustering(4, &bridged());
        assert_eq!(clusters, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn merge_center_merges_center_to_center_edges() {
        // Two strong pairs whose *centers* share an edge.
        let edges = vec![
            (e(0), e(1), 0.95), // 0 center, 1 satellite
            (e(2), e(3), 0.9),  // 2 center, 3 satellite
            (e(0), e(2), 0.8),  // center–center → merge under merge-center
        ];
        let center = center_clustering(4, &edges);
        let merged = merge_center_clustering(4, &edges);
        assert_eq!(center, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(merged, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn unique_mapping_takes_the_heaviest_cross_kb_edge() {
        // KBs: 0,1 in KB 0; 2,3 in KB 1. Entity 0 has two candidates.
        let kb = |x: EntityId| if x.0 < 2 { 0u16 } else { 1u16 };
        let edges = vec![
            (e(0), e(2), 0.9),
            (e(0), e(3), 0.8), // loses: 0 already mapped to KB 1
            (e(1), e(3), 0.7),
        ];
        let clusters = unique_mapping_clustering(4, &edges, kb);
        assert_eq!(clusters, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn unique_mapping_ignores_intra_kb_edges() {
        let kb = |x: EntityId| if x.0 < 2 { 0u16 } else { 1u16 };
        let edges = vec![(e(0), e(1), 0.99)];
        assert!(unique_mapping_clustering(4, &edges, kb).is_empty());
    }

    #[test]
    fn empty_matches_empty_clusters() {
        for alg in ClusteringAlgorithm::ALL {
            assert!(alg.run(5, &[], |_| 0).is_empty(), "{}", alg.name());
        }
    }

    #[test]
    fn all_outputs_are_partitions() {
        let edges = bridged();
        for alg in ClusteringAlgorithm::ALL {
            let clusters = alg.run(6, &edges, |x| (x.0 % 2) as u16);
            let mut seen = std::collections::HashSet::new();
            for c in &clusters {
                assert!(c.len() >= 2);
                for &m in c {
                    assert!(seen.insert(m), "{}: {m} in two clusters", alg.name());
                }
            }
        }
    }

    #[test]
    fn deterministic_under_permutation_of_equal_weight_input() {
        let edges = bridged();
        let mut reversed = edges.clone();
        reversed.reverse();
        for alg in ClusteringAlgorithm::ALL {
            assert_eq!(
                alg.run(4, &edges, |_| 0),
                alg.run(4, &reversed, |_| 0),
                "{} depends on input order",
                alg.name()
            );
        }
    }

    #[test]
    fn names_stable() {
        let names: Vec<_> = ClusteringAlgorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "connected-components",
                "center",
                "merge-center",
                "unique-mapping"
            ]
        );
    }
}
