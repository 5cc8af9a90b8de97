//! The blocking graph, stored in flat CSR (compressed sparse row) arrays.
//!
//! Earlier revisions accumulated edges in a global
//! `FxHashMap<(EntityId, EntityId), (u32, f64)>` and kept adjacency as
//! `Vec<Vec<u32>>` — one heap allocation per node and a hash probe per
//! pair occurrence, which dominated end-to-end runtime on large worlds.
//! The current layout is three flat slabs:
//!
//! * `edges` — the edge records, sorted by `(a, b)`, so the edges of
//!   source `a` form one run, sorted by target;
//! * `adj_offsets` / `adj_edges` — CSR adjacency over *both* endpoints:
//!   edge indices incident to node `v` occupy
//!   `adj_offsets[v] .. adj_offsets[v + 1]`, ascending.
//!
//! Construction is a two-pass counting sort over node-centric sweeps
//! (count → prefix-sum → fill) with no hash map anywhere, parallelised
//! over contiguous entity ranges with scoped threads. The result is
//! byte-identical for every thread count: each entity's edges land at a
//! precomputed offset, and per-edge ARCS sums accumulate in ascending
//! block order exactly as the serial build would.

use crate::rule::forward_len;
use crate::sweep::{entity_sweep_ranges, split_by_ends, SweepScratch};
use minoan_blocking::{BlockCollection, Direction};
use minoan_rdf::EntityId;

/// One edge of the blocking graph: a distinct comparable pair plus the
/// co-occurrence statistics every weighting scheme is computed from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// Smaller endpoint.
    pub a: EntityId,
    /// Larger endpoint.
    pub b: EntityId,
    /// Number of blocks shared by `a` and `b` (CBS).
    pub common_blocks: u32,
    /// Σ over shared blocks of `1 / ‖block‖` (ARCS accumulator).
    pub arcs: f64,
}

const EDGE_PLACEHOLDER: Edge = Edge {
    a: EntityId(0),
    b: EntityId(0),
    common_blocks: 0,
    arcs: 0.0,
};

/// The blocking graph of a [`BlockCollection`] in CSR layout.
///
/// Nodes are descriptions; there is one edge per *distinct* pair that
/// co-occurs in at least one block (and is comparable under the ER mode).
/// Construction visits each pair occurrence a constant number of times
/// (at both endpoints, in both the count and fill passes) — `O(Σ_b ‖b‖²)`
/// work spread across threads.
pub struct BlockingGraph {
    /// Edge slab, sorted by `(a, b)`.
    edges: Vec<Edge>,
    /// Per entity: start of its incident-edge run in `adj_edges` (len n+1).
    adj_offsets: Vec<u32>,
    /// Incident edge indices per entity, ascending (each edge twice).
    adj_edges: Vec<u32>,
    /// Per entity: number of blocks it belongs to, |B_i|.
    blocks_of: Vec<u32>,
    /// Total number of blocks, |B|.
    num_blocks: usize,
}

impl BlockingGraph {
    /// Builds the graph from a block collection, using all available
    /// cores for the counting and fill sweeps.
    pub fn build(collection: &BlockCollection) -> Self {
        Self::build_with_threads(collection, minoan_common::default_threads())
    }

    /// Builds the graph with an explicit worker count. Output is
    /// identical for every `threads` value (including 1).
    pub fn build_with_threads(collection: &BlockCollection, threads: usize) -> Self {
        let n = collection.num_entities();
        let ranges = entity_sweep_ranges(collection, threads);

        // Pass 1 — count: per entity, #distinct comparable neighbours
        // above it (its source edges) and in total (its adjacency run).
        let mut fwd = vec![0u32; n];
        let mut deg = vec![0u32; n];
        {
            let fwd_chunks = split_by_ends(&mut fwd, ranges.iter().map(|r| r.end));
            let deg_chunks = split_by_ends(&mut deg, ranges.iter().map(|r| r.end));
            std::thread::scope(|s| {
                for ((r, f), d) in ranges.iter().zip(fwd_chunks).zip(deg_chunks) {
                    let r = r.clone();
                    s.spawn(move || {
                        let mut scratch = SweepScratch::new(n);
                        for a in r.clone() {
                            let a = a as u32;
                            let neighbours =
                                scratch.sweep(collection, EntityId(a), Direction::Both);
                            d[a as usize - r.start] = neighbours.len() as u32;
                            f[a as usize - r.start] = forward_len(a, neighbours, |&y| y) as u32;
                        }
                    });
                }
            });
        }

        let edge_offsets = prefix_sum(&fwd);
        let adj_offsets = prefix_sum(&deg);
        let num_edges = *edge_offsets.last().unwrap_or(&0) as usize;

        // Pass 2 — fill: each entity's edges land at its precomputed
        // offset, so chunks write disjoint slices of the slab.
        let mut edges = vec![EDGE_PLACEHOLDER; num_edges];
        {
            let edge_chunks = split_by_ends(
                &mut edges,
                ranges.iter().map(|r| edge_offsets[r.end] as usize),
            );
            std::thread::scope(|s| {
                for (r, chunk) in ranges.iter().zip(edge_chunks) {
                    let r = r.clone();
                    let base = edge_offsets[r.start] as usize;
                    let edge_offsets = &edge_offsets;
                    s.spawn(move || {
                        let mut scratch = SweepScratch::new(n);
                        for a in r {
                            let mut out = edge_offsets[a] as usize - base;
                            scratch.sweep(collection, EntityId(a as u32), Direction::Both);
                            for &y in scratch.neighbours() {
                                if y > a as u32 {
                                    chunk[out] = Edge {
                                        a: EntityId(a as u32),
                                        b: EntityId(y),
                                        common_blocks: scratch.cbs_of(y),
                                        arcs: scratch.arcs_of(y),
                                    };
                                    out += 1;
                                }
                            }
                        }
                    });
                }
            });
        }

        // Adjacency fill: ascending edge index per node by construction.
        let mut adj_edges = vec![0u32; 2 * num_edges];
        let mut cursor: Vec<u32> = adj_offsets[..n].to_vec();
        for (i, e) in edges.iter().enumerate() {
            let ca = &mut cursor[e.a.index()];
            adj_edges[*ca as usize] = i as u32;
            *ca += 1;
            let cb = &mut cursor[e.b.index()];
            adj_edges[*cb as usize] = i as u32;
            *cb += 1;
        }

        let blocks_of: Vec<u32> = (0..n as u32)
            .map(|e| collection.entity_blocks(EntityId(e)).len() as u32)
            .collect();
        Self {
            edges,
            adj_offsets,
            adj_edges,
            blocks_of,
            num_blocks: collection.len(),
        }
    }

    /// Number of distinct comparable pairs (edges).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of nodes (entities in the underlying dataset, including
    /// entities that ended up in no block).
    pub fn num_nodes(&self) -> usize {
        self.adj_offsets.len() - 1
    }

    /// Number of blocks in the source collection, |B|.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// All edges, sorted by `(a, b)`.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge by index.
    pub fn edge(&self, idx: u32) -> &Edge {
        &self.edges[idx as usize]
    }

    /// Indices of the edges incident to `e`, ascending.
    pub fn incident(&self, e: EntityId) -> &[u32] {
        let i = e.index();
        &self.adj_edges[self.adj_offsets[i] as usize..self.adj_offsets[i + 1] as usize]
    }

    /// Node degree |V_i| (number of distinct co-occurring entities).
    pub fn degree(&self, e: EntityId) -> usize {
        let i = e.index();
        (self.adj_offsets[i + 1] - self.adj_offsets[i]) as usize
    }

    /// |B_i| — number of blocks entity `e` belongs to.
    pub fn blocks_of(&self, e: EntityId) -> u32 {
        self.blocks_of[e.index()]
    }
}

/// Exclusive prefix sum with a trailing total (CSR offsets).
fn prefix_sum(counts: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    out.push(0);
    for &c in counts {
        acc += c;
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_blocking::{BlockCollection, ErMode};
    use minoan_rdf::{Dataset, DatasetBuilder};

    fn dataset(n0: u32, n1: u32) -> Dataset {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        for i in 0..n0 {
            b.add_literal(k0, &format!("http://a/{i}"), "http://p", "x");
        }
        for i in 0..n1 {
            b.add_literal(k1, &format!("http://b/{i}"), "http://p", "x");
        }
        b.build()
    }

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn edge_statistics_are_exact() {
        let ds = dataset(2, 2);
        // Blocks: {0,2}, {0,2,3}, {1,3}.
        let groups = vec![
            ("k1".to_string(), vec![e(0), e(2)]),
            ("k2".to_string(), vec![e(0), e(2), e(3)]),
            ("k3".to_string(), vec![e(1), e(3)]),
        ];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        let g = BlockingGraph::build(&c);
        assert_eq!(g.num_edges(), 3); // (0,2), (0,3), (1,3)
        let edge02 = g
            .edges()
            .iter()
            .find(|ed| ed.a == e(0) && ed.b == e(2))
            .unwrap();
        assert_eq!(edge02.common_blocks, 2);
        // k1 has 1 comparison, k2 has 2 → arcs = 1/1 + 1/2.
        assert!((edge02.arcs - 1.5).abs() < 1e-12);
        let edge03 = g
            .edges()
            .iter()
            .find(|ed| ed.a == e(0) && ed.b == e(3))
            .unwrap();
        assert_eq!(edge03.common_blocks, 1);
        assert!((edge03.arcs - 0.5).abs() < 1e-12);
    }

    #[test]
    fn adjacency_and_degrees() {
        let ds = dataset(2, 2);
        let groups = vec![
            ("k1".to_string(), vec![e(0), e(2)]),
            ("k2".to_string(), vec![e(0), e(2), e(3)]),
            ("k3".to_string(), vec![e(1), e(3)]),
        ];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        let g = BlockingGraph::build(&c);
        assert_eq!(g.degree(e(0)), 2); // neighbours 2 and 3
        assert_eq!(g.degree(e(1)), 1);
        assert_eq!(g.degree(e(2)), 1);
        assert_eq!(g.degree(e(3)), 2);
        assert_eq!(g.blocks_of(e(0)), 2);
        assert_eq!(g.blocks_of(e(3)), 2);
        assert_eq!(g.num_blocks(), 3);
    }

    #[test]
    fn empty_collection_empty_graph() {
        let ds = dataset(1, 1);
        let c = BlockCollection::from_groups(
            &ds,
            ErMode::CleanClean,
            Vec::<(String, Vec<EntityId>)>::new(),
        );
        let g = BlockingGraph::build(&c);
        assert_eq!(g.num_edges(), 0);
        assert!((0..2).all(|v| g.degree(e(v)) == 0));
    }

    #[test]
    fn edges_are_normalised_and_sorted() {
        let ds = dataset(3, 3);
        let groups = vec![
            ("k1".to_string(), vec![e(4), e(0)]),
            ("k2".to_string(), vec![e(3), e(1)]),
            ("k3".to_string(), vec![e(5), e(2)]),
        ];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        let g = BlockingGraph::build(&c);
        for w in g.edges().windows(2) {
            assert!((w[0].a, w[0].b) < (w[1].a, w[1].b));
        }
        for ed in g.edges() {
            assert!(ed.a < ed.b);
        }
    }

    #[test]
    fn adjacency_agrees_with_flat_edges() {
        let ds = dataset(3, 3);
        let groups = vec![
            ("k1".to_string(), vec![e(0), e(3), e(4)]),
            ("k2".to_string(), vec![e(0), e(1), e(3)]),
            ("k3".to_string(), vec![e(2), e(5)]),
        ];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        let g = BlockingGraph::build(&c);
        // incident() lists each node's edges ascending and consistently.
        for v in 0..g.num_nodes() as u32 {
            let inc = g.incident(EntityId(v));
            assert!(inc.windows(2).all(|w| w[0] < w[1]));
            for &i in inc {
                let ed = g.edge(i);
                assert!(ed.a == EntityId(v) || ed.b == EntityId(v));
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_graph() {
        let ds = dataset(20, 20);
        let groups: Vec<(String, Vec<EntityId>)> = (0..12)
            .map(|k| {
                (
                    format!("k{k}"),
                    (0..40u32).filter(|i| (i * 7 + k) % 5 == 0).map(e).collect(),
                )
            })
            .collect();
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        let serial = BlockingGraph::build_with_threads(&c, 1);
        for threads in [2, 3, 8] {
            let par = BlockingGraph::build_with_threads(&c, threads);
            assert_eq!(par.num_edges(), serial.num_edges());
            for (x, y) in par.edges().iter().zip(serial.edges()) {
                assert_eq!((x.a, x.b, x.common_blocks), (y.a, y.b, y.common_blocks));
                assert_eq!(
                    x.arcs.to_bits(),
                    y.arcs.to_bits(),
                    "ARCS must be bit-identical"
                );
            }
            assert_eq!(par.adj_offsets, serial.adj_offsets);
            assert_eq!(par.adj_edges, serial.adj_edges);
        }
    }
}
