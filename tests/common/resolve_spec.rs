//! The resolution specification every resolver plan is checked against.
//!
//! Resolution is the paper's loop: schedule the candidate of highest
//! benefit, match it, propagate the match's evidence to neighbour pairs,
//! and repeat until the comparison budget is spent; the clusters are the
//! transitive closure of the matches. This file states that loop once,
//! from the paper and the `minoan_er` module docs, over naive state: a
//! flat candidate list re-scanned at every step, cluster labels relabelled
//! on every merge, attribute sets and neighbour fractions recounted at
//! every read. Of the product it calls only the pure functions of a pair
//! (`Matcher::{value_similarity, composite, is_match, could_rematch}`),
//! `Dataset::{neighbors, kb_of, description}`, the vendored `StdRng` and
//! `shuffle`, and public result types.
//!
//! Bit-identity forces six choices the paper leaves open. Each is one
//! sentence, repeated where it is made:
//! 1. A tie goes to the lower candidate id, which is first appearance:
//!    input order, then discovery order.
//! 2. The schedule is lazy: each queued candidate keeps as its key the
//!    benefit it had at its last seed, evidence push or re-queue, and the
//!    greatest key is taken if its current benefit plus 1e-9 reaches
//!    every other key, or else re-queued with its current benefit as key.
//! 3. A compared pair is eligible again only once its evidence has grown
//!    by more than `recompare_margin` and `could_rematch` holds, and the
//!    re-comparison reuses the cached value yet costs one comparison.
//! 4. Evidence is summed in event order.
//! 5. In the trace, `discovered` means the prior is 0.
//! 6. A fixed order records the raw weight as `benefit` and the value as
//!    `score`.

use minoan::er::{
    BenefitModel, ClusteringAlgorithm, Matcher, Resolution, ResolverConfig, Strategy, Trace,
    TraceStep,
};
use minoan::rdf::{Dataset, EntityId};
use minoan::similarity::JaroScratch;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// A weighted pair: meta-blocking's output, and a match.
pub type Pair = (EntityId, EntityId, f64);
/// The ground truth an oracle decides by.
pub type Truth<'a> = &'a dyn Fn(EntityId, EntityId) -> bool;

/// Descriptions grouped by cluster label, and the matches made so far.
struct Clusters<'d> {
    dataset: &'d Dataset,
    label: Vec<u32>,
    matches: Vec<Pair>,
    /// Whether a description matches at most one per other KB.
    unique: bool,
}

impl<'d> Clusters<'d> {
    fn new(dataset: &'d Dataset, unique: bool) -> Self {
        let (label, matches) = ((0..dataset.len() as u32).collect(), Vec::new());
        Self {
            dataset,
            label,
            matches,
            unique,
        }
    }

    fn same(&self, x: EntityId, y: EntityId) -> bool {
        self.label[x.index()] == self.label[y.index()]
    }

    /// The cluster of `e`, ascending.
    fn members(&self, e: EntityId) -> Vec<u32> {
        let all = 0..self.label.len() as u32;
        all.filter(|&i| self.label[i as usize] == self.label[e.index()])
            .collect()
    }

    /// Whether either end already matches a description of the other's KB.
    fn refused(&self, a: EntityId, b: EntityId) -> bool {
        let kb = |e| self.dataset.kb_of(e);
        let mut ends = self.matches.iter().flat_map(|&(p, q, _)| [(p, q), (q, p)]);
        self.unique && ends.any(|(p, q)| (p == a && kb(q) == kb(b)) || (p == b && kb(q) == kb(a)))
    }

    fn merge(&mut self, m: Pair) {
        let (keep, gone) = (self.label[m.0.index()], self.label[m.1.index()]);
        for l in self.label.iter_mut().filter(|l| **l == gone) {
            *l = keep;
        }
        self.matches.push(m);
    }

    /// Attribute names of the cluster of `e`.
    fn attributes(&self, e: EntityId) -> BTreeSet<u32> {
        let of = |i: u32| self.dataset.description(EntityId(i)).attributes();
        let names = self
            .members(e)
            .into_iter()
            .flat_map(|i| of(i).map(|(p, _)| p.0));
        names.collect()
    }

    /// New attribute names a merge would add: symmetric difference over union.
    fn attribute_gain(&self, a: EntityId, b: EntityId) -> f64 {
        let (sa, sb) = (self.attributes(a), self.attributes(b));
        let (inter, union) = (sa.intersection(&sb).count(), sa.union(&sb).count());
        if union == 0 {
            return 0.0;
        }
        (union - inter) as f64 / union as f64
    }

    /// Share of the first 8 × 8 neighbour pairs already clustered together.
    fn neighbour_fraction(&self, a: EntityId, b: EntityId) -> f64 {
        let (na, nb) = (self.dataset.neighbors(a), self.dataset.neighbors(b));
        let (na, nb) = (&na[..na.len().min(8)], &nb[..nb.len().min(8)]);
        if na.is_empty() || nb.is_empty() {
            return 0.0;
        }
        let hits = na.iter().flat_map(|&x| nb.iter().map(move |&y| (x, y)));
        let hits = hits.filter(|&(x, y)| x != y && self.same(x, y)).count();
        hits as f64 / (na.len() * nb.len()) as f64
    }

    /// The closure: every cluster of two or more, ascending, by first member.
    fn closure(&self) -> Vec<Vec<u32>> {
        let all = (0..self.label.len() as u32).map(|i| (i, self.members(EntityId(i))));
        all.filter(|(i, c)| c.len() >= 2 && c[0] == *i)
            .map(|(_, c)| c)
            .collect()
    }
}

/// Resolves `pairs` as [`ResolverConfig`] says.
pub fn resolve(
    dataset: &Dataset,
    matcher: &Matcher,
    pairs: &[Pair],
    c: &ResolverConfig,
) -> Resolution {
    let mut order = pairs.to_vec();
    match c.strategy {
        Strategy::Progressive(model) => return progressive(dataset, matcher, pairs, c, model).0,
        Strategy::Batch => {}
        Strategy::StaticBestFirst => order.sort_by(by_weight),
        Strategy::Random { seed } => order.shuffle(&mut StdRng::seed_from_u64(seed)),
    }
    // Every pair in order, repeats included, until the budget is spent.
    let mut s = Clusters::new(dataset, c.unique_mapping);
    let (mut trace, mut jaro) = (Trace::new(), JaroScratch::default());
    for (a, b, w) in order {
        if trace.comparisons() >= c.budget {
            break;
        }
        if s.same(a, b) || s.refused(a, b) {
            continue;
        }
        let value = matcher.value_similarity(a, b, &mut jaro);
        let matched = matcher.is_match(value, value);
        push(&mut trace, (a, b), [value, value, w], [matched, false]); // choice 6
        if matched {
            s.merge((a, b, value));
        }
    }
    finish(trace, s, 0)
}

/// Weight descending, then pair ascending.
fn by_weight(x: &Pair, y: &Pair) -> std::cmp::Ordering {
    y.2.total_cmp(&x.2).then((x.0, x.1).cmp(&(y.0, y.1)))
}

fn push(t: &mut Trace, (a, b): (EntityId, EntityId), v: [f64; 3], f: [bool; 2]) {
    t.push(TraceStep {
        comparison: t.comparisons() + 1,
        a: a.0,
        b: b.0,
        value_similarity: v[0],
        score: v[1],
        benefit: v[2],
        matched: f[0],
        discovered: f[1],
    });
}

fn finish(trace: Trace, s: Clusters, discovered_candidates: usize) -> Resolution {
    Resolution {
        comparisons: trace.comparisons(),
        clusters: s.closure(),
        matches: s.matches,
        trace,
        discovered_candidates,
    }
}

/// A candidate pair, ascending; its index in the candidate list is its id.
struct Candidate {
    pair: (EntityId, EntityId),
    prior: f64,
    evidence: f64,
    /// Evidence and value at the last comparison.
    compared: Option<(f64, f64)>,
    /// Scheduling key (choice 2); `None` when not queued.
    key: Option<f64>,
}

/// The benefit of candidate `c`: its likelihood times the model's factor.
fn benefit(model: BenefitModel, s: &Clusters, c: &Candidate) -> f64 {
    let likelihood = (c.prior + c.evidence).min(1.0);
    if likelihood <= 0.0 {
        return 0.0;
    }
    // An end is resolved once it is in a cluster of two or more.
    let (a, b) = c.pair;
    let fresh = |one: f64, both: f64| match (s.members(a).len(), s.members(b).len()) {
        (1, 1) => 1.0,
        (1, _) | (_, 1) => one,
        _ => both,
    };
    let linked = |e| !s.dataset.neighbors(e).is_empty();
    let factor = match model {
        BenefitModel::PairQuantity => 1.0,
        BenefitModel::AttributeCompleteness => {
            (0.3 + 0.7 * s.attribute_gain(a, b)) * fresh(0.6, 0.25)
        }
        BenefitModel::EntityCoverage => fresh(0.4, 0.1),
        BenefitModel::RelationshipCompleteness => {
            let linked = if linked(a) && linked(b) { 1.0 } else { 0.3 };
            fresh(0.4, 0.1) * linked * (0.8 + 0.2 * s.neighbour_fraction(a, b))
        }
    };
    likelihood * factor
}

/// The progressive loop under `model`, and how many of its comparisons
/// took a candidate whose key a later one shared: the ties choice 1 decided.
pub fn progressive(
    dataset: &Dataset,
    matcher: &Matcher,
    pairs: &[Pair],
    c: &ResolverConfig,
    model: BenefitModel,
) -> (Resolution, usize) {
    // Priors: `w / max w`, clamped; a repeated pair keeps its max (choice 1: first id).
    let max_w = pairs.iter().map(|p| p.2).fold(0.0, f64::max);
    let mut cands: Vec<Candidate> = Vec::new();
    for &(a, b, w) in pairs {
        let prior = (w / max_w).clamp(0.0, 1.0);
        let prior = if max_w > 0.0 { prior } else { 0.0 };
        match find(&cands, a, b) {
            Some(i) => cands[i].prior = cands[i].prior.max(prior),
            None => cands.push(candidate(a, b, prior)),
        }
    }
    let mut s = Clusters::new(dataset, c.unique_mapping);
    for c in &mut cands {
        c.key = Some(benefit(model, &s, c));
    }
    let (mut trace, mut jaro) = (Trace::new(), JaroScratch::default());
    let (mut discovered, mut ties) = (0, 0);
    while trace.comparisons() < c.budget {
        // Choice 2: the greatest key, ties to the lower id (choice 1).
        let Some(id) = greatest(&cands) else { break };
        let key = cands[id].key.take();
        let x = &cands[id];
        // Ineligible (benefit −1, dropped when taken): clustered, refused or stale (choice 3).
        let (a, b, evidence) = (x.pair.0, x.pair.1, x.evidence);
        let grown =
            |(at, v)| evidence > at + c.recompare_margin && matcher.could_rematch(v, evidence);
        let eligible = x.compared.is_none_or(grown) && !s.same(a, b) && !s.refused(a, b);
        let now = benefit(model, &s, x);
        let now = if eligible { now } else { -1.0 };
        let rival = greatest(&cands).map_or(f64::MIN, |r| cands[r].key.unwrap());
        if now + 1e-9 < rival {
            cands[id].key = Some(now);
            continue;
        }
        if now < 0.0 {
            continue;
        }
        ties += usize::from(key == Some(rival));
        let measure = || matcher.value_similarity(a, b, &mut jaro);
        let value = x.compared.map_or_else(measure, |(_, v)| v); // choice 3
        cands[id].compared = Some((evidence, value));
        let score = matcher.composite(value, evidence);
        let matched = matcher.is_match(value, score);
        let flags = [matched, cands[id].prior == 0.0]; // choice 5
        push(&mut trace, (a, b), [value, score, now], flags);
        if !matched {
            continue;
        }
        s.merge((a, b, score));
        if c.alpha <= 0.0 {
            continue;
        }
        // The update phase: `α·score / damping` to each neighbour pair,
        // except an intra-KB pair in clean–clean ER.
        let (na, nb) = (dataset.neighbors(a), dataset.neighbors(b));
        let cap = 16; // the first 16 neighbours of each endpoint
        let (na, nb) = (&na[..na.len().min(cap)], &nb[..nb.len().min(cap)]);
        let damping = (((na.len() * nb.len()) as f64).sqrt() / 2.0).max(1.0);
        let delta = c.alpha * score / damping;
        let intra = |x, y| dataset.kb_of(x) == dataset.kb_of(y);
        for &x in na {
            for &y in nb {
                if x == y || s.same(x, y) || (intra(x, y) && !intra(a, b)) {
                    continue;
                }
                // The discovery floor: too little evidence creates no candidate.
                if find(&cands, x, y).is_none() && delta >= 0.05 {
                    discovered += 1;
                    cands.push(candidate(x, y, 0.0));
                }
                let Some(i) = find(&cands, x, y) else {
                    continue;
                };
                cands[i].evidence += delta; // choice 4
                cands[i].key = Some(benefit(model, &s, &cands[i]));
            }
        }
    }
    (finish(trace, s, discovered), ties)
}

fn candidate(x: EntityId, y: EntityId, prior: f64) -> Candidate {
    Candidate {
        pair: (x.min(y), x.max(y)),
        prior,
        evidence: 0.0,
        compared: None,
        key: None,
    }
}

fn find(cands: &[Candidate], x: EntityId, y: EntityId) -> Option<usize> {
    cands.iter().position(|c| c.pair == (x.min(y), x.max(y)))
}

/// The queued candidate of greatest key, ties to the lower id.
fn greatest(cands: &[Candidate]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, c) in cands.iter().enumerate() {
        if c.key.is_some() && best.is_none_or(|b| c.key > cands[b].key) {
            best = Some(i);
        }
    }
    best
}

/// `pairs` in order, each decided by `is_match`, up to `budget`.
pub fn oracle_trace(pairs: &[Pair], is_match: Truth, budget: u64) -> Trace {
    let mut trace = Trace::new();
    for &(a, b, w) in &pairs[..budget.min(pairs.len() as u64) as usize] {
        let sim = if is_match(a, b) { 1.0 } else { 0.0 };
        push(&mut trace, (a, b), [sim, sim, w], [sim == 1.0, false]);
    }
    trace
}

/// [`oracle_trace`] over the true matches first, each part by pair.
pub fn perfect_trace(pairs: &[Pair], is_match: Truth, budget: u64) -> Trace {
    let mut ordered = pairs.to_vec();
    ordered.sort_by_key(|&(a, b, _)| (!is_match(a, b), a, b));
    oracle_trace(&ordered, is_match, budget)
}

/// `alg` over `matches`, taken by weight descending, then by pair.
pub fn cluster(alg: ClusteringAlgorithm, dataset: &Dataset, matches: &[Pair]) -> Vec<Vec<u32>> {
    let mut edges = matches.to_vec();
    edges.sort_by(by_weight);
    let mut s = Clusters::new(dataset, alg == ClusteringAlgorithm::UniqueMapping);
    let (free, centre, satellite) = (0u8, 1u8, 2u8);
    let mut role = vec![free; dataset.len()];
    for (a, b, w) in edges {
        let (ra, rb) = (role[a.index()], role[b.index()]);
        let join = match alg {
            // Every match: the transitive closure.
            ClusteringAlgorithm::ConnectedComponents => true,
            // Two free ends make `a` a centre and `b` its satellite; a free end joins a centre.
            ClusteringAlgorithm::Center => ra.min(rb) == free && ra.max(rb) <= centre,
            // As center, and an edge of two centres merges their clusters.
            ClusteringAlgorithm::MergeCenter => ra.max(rb) <= centre,
            // Across KBs, unless an end is already mapped into the other's KB.
            ClusteringAlgorithm::UniqueMapping => {
                dataset.kb_of(a) != dataset.kb_of(b) && !s.refused(a, b)
            }
        };
        if join {
            if ra == free {
                role[a.index()] = if rb == free { centre } else { satellite };
            }
            if rb == free {
                role[b.index()] = satellite;
            }
            s.merge((a, b, w));
        }
    }
    s.closure()
}
