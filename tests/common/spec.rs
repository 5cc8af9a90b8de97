//! The meta-blocking specification every driver is checked against.
//!
//! Meta-blocking is one rule: weigh each edge of the blocking graph, then
//! apply the pruning family's keep rule. This file states that rule once,
//! straight from the definitions in `weights.rs`'s docs (and BLAST's and
//! the supervised pruner's module docs), with no slabs, no parallelism
//! and no scratch reuse: it enumerates each block's comparable pairs,
//! counts, weighs and keeps. Of the product it calls only public types,
//! `Perceptron::score` and `stats::{mean, pairwise_sum}` — nothing of
//! its kernel, rules, sweeps or graph.
//!
//! Bit-identity forces five choices the definitions leave open. Each is
//! one sentence, repeated where it is made:
//! 1. ARCS sums `1/‖b‖` over the shared blocks in ascending block-id
//!    order, which is key-string order.
//! 2. WEP's mean is `pairwise_sum` over the per-entity sums of positive
//!    forward weights, divided by the number of positive edges.
//! 3. WNP's node mean is a sequential sum (`stats::mean`) over the
//!    node's edge weights in ascending neighbour order.
//! 4. Ties break by `(a, b)`, and output is sorted by weight descending,
//!    except `None`, which stays in pair order.
//! 5. `k = 0` gives an empty result that still reports `input_edges`.

use minoan::blocking::BlockCollection;
use minoan::common::stats::{mean, pairwise_sum};
use minoan::metablocking::{
    EdgeFeatures, Perceptron, PrunedComparisons, Pruning, WeightedPair, WeightingScheme,
};
use minoan::rdf::EntityId;
use std::collections::BTreeMap;

/// One distinct comparable pair `a < b` of the blocking graph.
struct Edge {
    a: usize,
    b: usize,
    /// |B_ab|: blocks shared by `a` and `b`.
    cbs: u32,
    /// Σ over the shared blocks of `1/‖b‖`.
    arcs: f64,
}

/// The blocking graph of one collection and the counts the weights read.
pub struct Spec {
    /// Every edge, ascending by `(a, b)`.
    edges: Vec<Edge>,
    /// Per entity: indices into `edges` of its edges, ascending by
    /// neighbour.
    incident: Vec<Vec<usize>>,
    /// Per entity: |B_i|.
    blocks_of: Vec<u32>,
    /// |B|.
    num_blocks: usize,
    /// BC = Σ |b|, the cardinality defaults' budget.
    assignments: u64,
}

/// `ln(total / part)`, and 0 when that would be negative or undefined.
fn ln_ratio(total: f64, part: f64) -> f64 {
    if total <= 0.0 || part <= 0.0 {
        return 0.0;
    }
    (total / part).ln().max(0.0)
}

/// The margin → weight squash of the supervised pruner.
fn sigmoid(score: f64) -> f64 {
    1.0 / (1.0 + (-score).exp())
}

/// Weight descending, then pair ascending (choice 4).
fn by_weight_then_pair(x: &WeightedPair, y: &WeightedPair) -> std::cmp::Ordering {
    y.weight
        .total_cmp(&x.weight)
        .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
}

impl Spec {
    /// Enumerates every block's comparable pairs.
    pub fn of(blocks: &BlockCollection) -> Self {
        let n = blocks.num_entities();
        let mut pairs: BTreeMap<(usize, usize), (u32, f64)> = BTreeMap::new();
        let mut blocks_of = vec![0u32; n];
        let mut assignments = 0u64;
        // Choice 1: `blocks()` runs in ascending block id, which is
        // key-string order, so each ARCS sum adds its terms in that order.
        for block in blocks.blocks() {
            assignments += block.entities.len() as u64;
            let inverse = 1.0 / block.comparisons as f64;
            for (i, &x) in block.entities.iter().enumerate() {
                blocks_of[x.index()] += 1;
                for &y in &block.entities[i + 1..] {
                    if blocks.comparable(x, y) {
                        let key = (x.index().min(y.index()), x.index().max(y.index()));
                        let (cbs, arcs) = pairs.entry(key).or_insert((0, 0.0));
                        *cbs += 1;
                        *arcs += inverse;
                    }
                }
            }
        }
        let edges: Vec<Edge> = pairs
            .into_iter()
            .map(|((a, b), (cbs, arcs))| Edge { a, b, cbs, arcs })
            .collect();
        // Edges ascend by (a, b), so each entity's list ascends by
        // neighbour: first the edges where it is `b`, then where it is `a`.
        let mut incident = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            incident[e.a].push(i);
            incident[e.b].push(i);
        }
        Self {
            edges,
            incident,
            blocks_of,
            num_blocks: blocks.len(),
            assignments,
        }
    }

    /// |V|, the number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// |V_i|, the degree of entity `i`.
    fn degree(&self, i: usize) -> f64 {
        self.incident[i].len() as f64
    }

    /// The weight of `e` under `scheme`, per `weights.rs`'s docs.
    fn weight(&self, scheme: WeightingScheme, e: &Edge) -> f64 {
        let cbs = e.cbs as f64;
        let (b_a, b_b) = (self.blocks_of[e.a] as f64, self.blocks_of[e.b] as f64);
        let jaccard = || {
            let union = b_a + b_b - cbs;
            if union <= 0.0 {
                0.0
            } else {
                cbs / union
            }
        };
        match scheme {
            WeightingScheme::Cbs => cbs,
            WeightingScheme::Ecbs => {
                let blocks = self.num_blocks as f64;
                cbs * ln_ratio(blocks, b_a) * ln_ratio(blocks, b_b)
            }
            WeightingScheme::Js => jaccard(),
            WeightingScheme::Ejs => {
                let v = self.num_edges() as f64;
                jaccard() * ln_ratio(v, self.degree(e.a)) * ln_ratio(v, self.degree(e.b))
            }
            WeightingScheme::Arcs => e.arcs,
        }
    }

    /// Pearson χ² of the 2×2 table "`a` in a block" × "`b` in a block"
    /// over the |B| blocks; 0 when a marginal is empty.
    fn chi_square(&self, e: &Edge) -> f64 {
        let total = self.num_blocks as f64;
        if total <= 0.0 {
            return 0.0;
        }
        let n11 = e.cbs as f64;
        let (b_a, b_b) = (self.blocks_of[e.a] as f64, self.blocks_of[e.b] as f64);
        let (n12, n21) = (b_a - n11, b_b - n11);
        let n22 = total - b_a - b_b + n11;
        let denom = (n11 + n12) * (n21 + n22) * (n11 + n21) * (n12 + n22);
        if denom <= 0.0 {
            return 0.0;
        }
        let d = n11 * n22 - n12 * n21;
        (total * d * d / denom).max(0.0)
    }

    /// The supervised feature vector of `e`: the five scheme weights and
    /// the two degrees.
    fn raw_features(&self, e: &Edge) -> [f64; 7] {
        let w = |scheme| self.weight(scheme, e);
        [
            w(WeightingScheme::Cbs),
            w(WeightingScheme::Ecbs),
            w(WeightingScheme::Js),
            w(WeightingScheme::Ejs),
            w(WeightingScheme::Arcs),
            self.degree(e.a),
            self.degree(e.b),
        ]
    }

    /// Each edge's kept weight under `model`: every feature divided by its
    /// maximum over the graph (0 where that is 0), scored, squashed; `None`
    /// where the score is not positive.
    fn supervised(&self, model: &Perceptron) -> Vec<Option<f64>> {
        let raw: Vec<[f64; 7]> = self.edges.iter().map(|e| self.raw_features(e)).collect();
        let mut max = [0.0f64; 7];
        for r in &raw {
            for (m, &v) in max.iter_mut().zip(r) {
                if v > *m {
                    *m = v;
                }
            }
        }
        let score = |r: &[f64; 7]| {
            let mut x = [0.0f64; 7];
            for i in 0..7 {
                x[i] = if max[i] > 0.0 { r[i] / max[i] } else { 0.0 };
            }
            model.score(&EdgeFeatures(x))
        };
        raw.iter()
            .map(|r| Some(score(r)).filter(|&s| s > 0.0).map(sigmoid))
            .collect()
    }

    /// The pair of edge `i` with weight `w`.
    fn pair(&self, i: usize, w: f64) -> WeightedPair {
        let e = &self.edges[i];
        WeightedPair {
            a: EntityId(e.a as u32),
            b: EntityId(e.b as u32),
            weight: w,
        }
    }

    /// Edge indices of `node`'s `k` best positive edges.
    fn node_top_k(&self, node: usize, weights: &[f64], k: usize) -> Vec<usize> {
        let mut ranked: Vec<usize> = self.incident[node]
            .iter()
            .copied()
            .filter(|&i| weights[i] > 0.0)
            .collect();
        // Choice 4: ties go to the smaller pair, which is the smaller
        // edge index.
        ranked.sort_by(|&x, &y| weights[y].total_cmp(&weights[x]).then(x.cmp(&y)));
        ranked.truncate(k);
        ranked
    }

    /// Keeps the edges at least `need` endpoints vote for.
    fn count_votes(&self, voters: impl Fn(usize) -> Vec<usize>, need: u8) -> Vec<bool> {
        let mut votes = vec![0u8; self.num_edges()];
        for node in 0..self.incident.len() {
            for i in voters(node) {
                votes[i] += 1;
            }
        }
        votes.into_iter().map(|v| v >= need).collect()
    }

    /// `scheme` × `pruning` over this graph.
    pub fn run(&self, scheme: WeightingScheme, pruning: Pruning) -> PrunedComparisons {
        let input_edges = self.num_edges();
        let empty = PrunedComparisons {
            pairs: Vec::new(),
            input_edges,
        };
        let weights: Vec<f64> = self.edges.iter().map(|e| self.weight(scheme, e)).collect();
        let positive = |i: &usize| weights[*i] > 0.0;
        let need = |reciprocal: bool| 1 + u8::from(reciprocal);
        let keep: Vec<bool> = match pruning {
            Pruning::None => {
                // Choice 4: the unpruned outcome stays in pair order.
                let pairs = (0..input_edges).map(|i| self.pair(i, weights[i])).collect();
                return PrunedComparisons { pairs, input_edges };
            }
            Pruning::Wep => {
                // Choice 2: per-entity forward sums, then `pairwise_sum`.
                let mut sums = vec![0.0f64; self.incident.len()];
                let mut count = 0u64;
                for (i, e) in self.edges.iter().enumerate().filter(|(i, _)| positive(i)) {
                    sums[e.a] += weights[i];
                    count += 1;
                }
                let bar = if count == 0 {
                    0.0
                } else {
                    pairwise_sum(&sums) / count as f64
                };
                weights.iter().map(|&w| w > 0.0 && w >= bar).collect()
            }
            Pruning::Cep(k) => {
                let k = k.unwrap_or((self.assignments / 2) as usize);
                if k == 0 {
                    return empty; // Choice 5.
                }
                let mut ranked: Vec<usize> = (0..input_edges).filter(positive).collect();
                ranked.sort_by(|&x, &y| weights[y].total_cmp(&weights[x]).then(x.cmp(&y)));
                let mut keep = vec![false; input_edges];
                for i in ranked.into_iter().take(k) {
                    keep[i] = true;
                }
                keep
            }
            Pruning::Wnp { reciprocal } => {
                let voters = |node: usize| {
                    let inc = &self.incident[node];
                    // Choice 3: a sequential mean in ascending neighbour
                    // order, zero weights included.
                    let bar = mean(&inc.iter().map(|&i| weights[i]).collect::<Vec<_>>());
                    inc.iter()
                        .copied()
                        .filter(|&i| weights[i] > 0.0 && weights[i] >= bar)
                        .collect()
                };
                self.count_votes(voters, need(reciprocal))
            }
            Pruning::Cnp { reciprocal, k } => {
                let active = self.incident.iter().filter(|inc| !inc.is_empty()).count();
                let k = k.unwrap_or(((self.assignments as usize) / active.max(1)).max(1));
                if k == 0 {
                    return empty; // Choice 5.
                }
                let voters = |node: usize| self.node_top_k(node, &weights, k);
                self.count_votes(voters, need(reciprocal))
            }
            Pruning::Blast { ratio } => {
                assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
                let chi: Vec<f64> = self.edges.iter().map(|e| self.chi_square(e)).collect();
                let local_max = |node: usize| {
                    let inc = &self.incident[node];
                    inc.iter().map(|&i| chi[i]).fold(0.0f64, f64::max)
                };
                let max: Vec<f64> = (0..self.incident.len()).map(local_max).collect();
                let mut pairs: Vec<WeightedPair> = self
                    .edges
                    .iter()
                    .enumerate()
                    .filter(|&(i, e)| {
                        let w = chi[i];
                        w > 0.0 && (w >= ratio * max[e.a] || w >= ratio * max[e.b])
                    })
                    .map(|(i, _)| self.pair(i, chi[i]))
                    .collect();
                pairs.sort_by(by_weight_then_pair);
                return PrunedComparisons { pairs, input_edges };
            }
            Pruning::Supervised(model) => {
                let kept = self.supervised(&model);
                let mut pairs: Vec<WeightedPair> = kept
                    .iter()
                    .enumerate()
                    .filter_map(|(i, w)| w.map(|w| self.pair(i, w)))
                    .collect();
                pairs.sort_by(by_weight_then_pair);
                return PrunedComparisons { pairs, input_edges };
            }
        };
        let mut pairs: Vec<WeightedPair> = (0..input_edges)
            .filter(|&i| keep[i])
            .map(|i| self.pair(i, weights[i]))
            .collect();
        pairs.sort_by(by_weight_then_pair);
        PrunedComparisons { pairs, input_edges }
    }
}
