//! The MapReduce backend (reference \[4\]): an [`Engine`] row driver.
//!
//! The paper gives two strategies, and they differ in what gets
//! shuffled:
//!
//! * **edge-based**: map over *blocks* emitting one record per
//!   comparison occurrence keyed by the pair, and let the reducer
//!   aggregate each pair's co-occurrence statistics. Shuffle volume:
//!   `Σ_b ‖b‖` records — the collection's
//!   [`total_comparisons`](minoan_blocking::BlockCollection::total_comparisons), one per
//!   pair *occurrence*, which on token blocking is typically an order of
//!   magnitude above the distinct-edge count `|V|`.
//! * **entity-based** (what this driver runs): map over contiguous
//!   *entity ranges*, run the node-centric sweep kernel locally (the same
//!   epoch-reset scratch the streaming backend uses, drawn from the
//!   session's shared pool) to rebuild each node's row, and shuffle **at
//!   most one record per entity neighbourhood**.
//!
//! What a row *means* lives in the crate-internal `rule` module; this
//! driver decides which rows are visited — every entity with a neighbour
//! in the pass's sweep direction, over a few entity-range splits per
//! worker balanced by that direction's sweep cost (so the engine's greedy
//! scheduler can smooth skew) — and where the reduction merges, one job
//! per pass:
//!
//! * **Criterion job** (`wep/partial-sums`, `cep/local-topk`,
//!   `blast/local-maxima`, `supervised/feature-maxima`): each map split
//!   folds its rows map-side into one share and ships it — one scalar
//!   record per entity for the per-entity slabs (WEP's sums, BLAST's
//!   maxima), one record per split for CEP's selection (sealed map-side
//!   into a descending run of at most `k` keys) and the supervised
//!   feature maxima; reducers merge the records under a key, the driver
//!   merges the reducer outputs.
//! * **Keep job** (`weighted-edges`, `wep/filter`, `wnp/neighbourhoods`,
//!   `cnp/neighbourhoods`, `blast/filter`, `supervised/score`): the map
//!   side emits each entity's row as one record keyed by the entity; the
//!   reducer that owns the neighbourhood applies the rule to it.
//! * **Vote job** (`wnp/votes`, `cnp/votes`): re-keys each endpoint vote
//!   by the pair and counts — at most `2·|kept|` tiny records.
//! * **Counting job** (`count`): one `(entity, degree)` record per active
//!   entity, at most once per session, when a pass reads the counted
//!   globals (EJS, the supervised features, CNP's default `k`, a bare |V|).
//!
//! Results are **bit-identical** to the streaming backend at *any*
//! worker count — `tests/parallel_consistency.rs`
//! asserts the full scheme × family × worker matrix — and each run
//! returns its per-job [`JobStats`] (via [`JobReport`], surfaced on
//! [`PruneOutcome::report`](crate::PruneOutcome)), so the shuffle volume
//! can be read against the edge-based strategy's `Σ_b ‖b‖` (CHANGES.md
//! records the measured gap).

#![deny(clippy::disallowed_types)]

use crate::prune::WeightedPair;
use crate::rule::{
    forward_len, votes_needed, CriterionFold, Partial, RowBuf, RowDriver, Rule, Weigher,
};
use crate::session::Pruning;
use crate::sweep::SweepState;
use minoan_blocking::Direction;
use minoan_mapreduce::{Engine, JobStats};
use minoan_rdf::EntityId;

/// Counter name: forward (`a < b`) edges seen by a job — the
/// distinct-edge count `|V|`.
const FWD_EDGES: &str = "forward_edges";

/// Per-job execution statistics of one meta-blocking MapReduce run
/// (a run is one to three chained jobs: optional counting, weighting +
/// local criterion, optional vote combination).
#[derive(Clone, Debug, Default)]
pub struct JobReport {
    /// `(job label, stats)` in execution order.
    pub jobs: Vec<(&'static str, JobStats)>,
}

impl JobReport {
    fn push(&mut self, label: &'static str, stats: JobStats) {
        self.jobs.push((label, stats));
    }

    /// Total shuffled records across all jobs — the intermediate-pair
    /// volume: at most one record per entity neighbourhood per job, plus
    /// the kept votes (the edge-based strategy would shuffle one per pair
    /// occurrence).
    pub fn shuffled_records(&self) -> usize {
        self.jobs.iter().map(|(_, s)| s.intermediate_pairs).sum()
    }

    /// Total measured wall time across all jobs, nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.jobs.iter().map(|(_, s)| s.total_nanos()).sum()
    }

    /// Modeled makespan on `workers` parallel workers: the chained jobs'
    /// [`JobStats::modeled_nanos`] summed (jobs are barriers).
    pub fn modeled_nanos(&self, workers: usize) -> u64 {
        self.jobs
            .iter()
            .map(|(_, s)| s.modeled_nanos(workers))
            .sum()
    }
}

/// Contiguous-range partitioner for entity keys: reducer `p` owns the
/// `p`-th slice of the id space, mirroring the range partitioner the
/// paper's entity-based jobs use (locality of the per-node state).
fn entity_partitioner(n: usize) -> impl Fn(&u32, usize) -> usize + Sync {
    let n = n.max(1);
    move |&a: &u32, parts: usize| (a as usize * parts) / n
}

/// Range partitioner for pair keys, by smaller endpoint.
fn pair_partitioner(n: usize) -> impl Fn(&(EntityId, EntityId), usize) -> usize + Sync {
    let n = n.max(1);
    move |k: &(EntityId, EntityId), parts: usize| (k.0.index() * parts) / n
}

/// The `[criterion, keep, votes]` job labels of a family ("" where the
/// family runs no such job).
fn job_labels(pruning: &Pruning) -> [&'static str; 3] {
    match pruning {
        Pruning::None => ["", "weighted-edges", ""],
        Pruning::Wep => ["wep/partial-sums", "wep/filter", ""],
        Pruning::Cep(_) => ["cep/local-topk", "", ""],
        Pruning::Wnp { .. } => ["", "wnp/neighbourhoods", "wnp/votes"],
        Pruning::Cnp { .. } => ["", "cnp/neighbourhoods", "cnp/votes"],
        Pruning::Blast { .. } => ["blast/local-maxima", "blast/filter", ""],
        Pruning::Supervised(_) => ["supervised/feature-maxima", "supervised/score", ""],
    }
}

/// The [`Engine`] [`RowDriver`] over a session's sweep state: every pass
/// is one entity-partitioned job, recorded in [`Self::report`].
pub(crate) struct MapReduce<'s, 'c> {
    st: &'s mut SweepState<'c>,
    engine: &'s Engine,
    labels: [&'static str; 3],
    /// The jobs run so far, in execution order.
    pub(crate) report: JobReport,
}

impl<'s, 'c> MapReduce<'s, 'c> {
    /// A driver for one run of `pruning` (which names the jobs).
    pub(crate) fn new(st: &'s mut SweepState<'c>, engine: &'s Engine, pruning: &Pruning) -> Self {
        Self {
            st,
            engine,
            labels: job_labels(pruning),
            report: JobReport::default(),
        }
    }

    /// Ensures the globals tier a job maps with. The basic tier is free;
    /// the counted tier (degrees, |V|, active nodes) runs as one
    /// entity-partitioned counting job — shuffling one `(entity, degree)`
    /// record per active entity — unless the session already counted (in
    /// which case no job runs and no stats are reported).
    fn ensure(&mut self, counted: bool) {
        self.st.ensure(false, 1);
        if !counted || self.st.is_counted() {
            return;
        }
        let n = self.st.collection.num_entities();
        let splits = self.splits(Direction::Both);
        let (collection, pool) = (self.st.collection, &self.st.pool);
        let result = self.engine.run_partitioned(
            splits,
            entity_partitioner(n),
            |range, emit, _c| {
                pool.with(|scratch| {
                    for a in range.clone() {
                        let a = EntityId(a as u32);
                        let d = scratch.sweep(collection, a, Direction::Both).len() as u32;
                        if d > 0 {
                            emit(a.0, d);
                        }
                    }
                })
            },
            |&a, degs, out, _c| out.push((a, degs[0])),
        );
        self.report.push("count", result.stats);
        let mut degrees = vec![0u32; n];
        for &(a, d) in &result.output {
            degrees[a as usize] = d;
        }
        self.st.apply_count(degrees);
    }

    /// The map-input splits of a job sweeping in `direction`: a few per
    /// worker, balanced by that direction's sweep cost.
    fn splits(&mut self, direction: Direction) -> Vec<std::ops::Range<usize>> {
        self.st.ranges(self.engine.workers() * 4, direction)
    }
}

impl RowDriver for MapReduce<'_, '_> {
    fn num_entities(&self) -> usize {
        self.st.collection.num_entities()
    }

    fn total_assignments(&self) -> u64 {
        self.st.collection.total_assignments()
    }

    fn active_nodes(&mut self) -> usize {
        self.ensure(true);
        self.st.globals().active_nodes
    }

    fn num_edges(&mut self) -> usize {
        self.ensure(true);
        self.st.globals().num_edges
    }

    fn reduce(&mut self, weigher: Weigher, fold: &CriterionFold) -> (Partial, u64) {
        self.ensure(weigher.needs_counts());
        let n = self.st.collection.num_entities();
        let direction = fold.sweep_direction();
        let splits = self.splits(direction);
        let (collection, globals, pool) = (self.st.collection, self.st.globals(), &self.st.pool);
        let result = self.engine.run_partitioned(
            splits,
            entity_partitioner(n),
            |range, emit, c| {
                pool.with(|scratch| {
                    let mut share = fold.init();
                    let mut buf = RowBuf::default();
                    let mut forward = 0u64;
                    for a in range.clone() {
                        let a = a as u32;
                        if scratch.sweep(collection, EntityId(a), direction).is_empty() {
                            continue;
                        }
                        weigher.fill(scratch, a, globals, &mut buf);
                        forward += forward_len(a, &buf.entries, |e| e.y);
                        fold.fold(&mut share, buf.row(a));
                    }
                    c.add(FWD_EDGES, forward);
                    for (key, record) in share.into_records() {
                        emit(key, record);
                    }
                })
            },
            |_key, records: &mut Vec<Partial>, out, _c| {
                out.extend(Partial::merged(records.drain(..)))
            },
        );
        self.report.push(self.labels[0], result.stats);
        let forward = result.counters.get(FWD_EDGES);
        let share = Partial::merged(result.output).unwrap_or_else(|| fold.init());
        (share, forward)
    }

    fn keep(&mut self, weigher: Weigher, rule: Rule<'_>) -> (Vec<WeightedPair>, u64) {
        self.ensure(weigher.needs_counts());
        let n = self.st.collection.num_entities();
        let direction = rule.sweep_direction();
        let splits = self.splits(direction);
        let (collection, globals, pool) = (self.st.collection, self.st.globals(), &self.st.pool);
        let result = self.engine.run_partitioned(
            splits,
            entity_partitioner(n),
            |range, emit, c| {
                pool.with(|scratch| {
                    let mut forward = 0u64;
                    for a in range.clone() {
                        let a = a as u32;
                        if scratch.sweep(collection, EntityId(a), direction).is_empty() {
                            continue;
                        }
                        let mut record = RowBuf::default();
                        weigher.fill(scratch, a, globals, &mut record);
                        forward += forward_len(a, &record.entries, |e| e.y);
                        emit(a, record);
                    }
                    c.add(FWD_EDGES, forward);
                })
            },
            |&a, records: &mut Vec<RowBuf>, out, _c| {
                // Exactly one neighbourhood record arrives per entity key.
                for record in records.iter() {
                    rule.contribute(record.row(a), out);
                }
            },
        );
        self.report.push(self.labels[1], result.stats);
        (result.output, result.counters.get(FWD_EDGES))
    }

    /// The vote-combination job: re-key each endpoint vote by the pair
    /// itself and keep the pair when enough endpoints voted for it.
    /// Output is ordered by pair, so the result is deterministic at any
    /// worker count.
    fn combine(&mut self, kept: Vec<WeightedPair>, reciprocal: bool) -> Vec<WeightedPair> {
        let need = votes_needed(reciprocal);
        let result = self.engine.run_partitioned(
            kept,
            pair_partitioner(self.st.collection.num_entities()),
            |p, emit, _c| emit((p.a, p.b), p.weight),
            move |&(a, b), ws, out, _c| {
                if ws.len() >= need {
                    // Both endpoints computed the weight through the kernel in
                    // normalised endpoint order, so the votes carry identical
                    // bits; the first is as good as any.
                    out.push(WeightedPair {
                        a,
                        b,
                        weight: ws[0],
                    });
                }
            },
        );
        self.report.push(self.labels[2], result.stats);
        result.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionBackend, Session, WeightingScheme};
    use minoan_blocking::builders::token_blocking;
    use minoan_blocking::ErMode;
    use minoan_datagen::{generate, profiles};

    /// The job chain of every family: labels, order, and the counting
    /// job exactly where a counted global is read.
    #[test]
    fn job_chain_per_family_is_stable() {
        use WeightingScheme::{Ejs, Js};
        let g = generate(&profiles::center_dense(80, 11));
        let blocks = token_blocking(&g.dataset, ErMode::CleanClean);
        let chain = |scheme, pruning| -> Vec<&'static str> {
            let mut session = Session::new(&blocks);
            session.scheme(scheme).pruning(pruning).workers(3);
            let out = session.backend(ExecutionBackend::MapReduce).run();
            out.report.jobs.iter().map(|(label, _)| *label).collect()
        };
        assert_eq!(chain(Js, Pruning::None), ["weighted-edges"]);
        assert_eq!(chain(Js, Pruning::Wep), ["wep/partial-sums", "wep/filter"]);
        assert_eq!(
            chain(Ejs, Pruning::Wep),
            ["count", "wep/partial-sums", "wep/filter"]
        );
        assert_eq!(chain(Js, Pruning::Cep(None)), ["cep/local-topk"]);
        assert_eq!(chain(Js, Pruning::Cep(Some(0))), ["count"]);
        let wnp = Pruning::Wnp { reciprocal: true };
        assert_eq!(chain(Js, wnp), ["wnp/neighbourhoods", "wnp/votes"]);
        let (reciprocal, k) = (false, None);
        assert_eq!(
            chain(Js, Pruning::Cnp { reciprocal, k }),
            ["count", "cnp/neighbourhoods", "cnp/votes"]
        );
        assert_eq!(
            chain(Js, Pruning::blast()),
            ["blast/local-maxima", "blast/filter"]
        );
        let model = crate::Perceptron {
            weights: [1.0; crate::supervised::NUM_FEATURES],
            bias: -1.0,
        };
        assert_eq!(
            chain(Js, Pruning::Supervised(model)),
            ["count", "supervised/feature-maxima", "supervised/score"]
        );
    }

    /// The edge-based strategy shuffles one record per pair occurrence:
    /// `Σ_b ‖b‖`, the collection's total comparisons. The entity-based
    /// jobs shuffle at most one weighting record per entity plus the kept
    /// votes.
    #[test]
    fn entity_based_shuffles_less_than_edge_based() {
        let g = generate(&profiles::center_dense(150, 31));
        let blocks = token_blocking(&g.dataset, ErMode::CleanClean);
        let report = Session::new(&blocks)
            .backend(ExecutionBackend::MapReduce)
            .workers(4)
            .run()
            .report;
        let occurrences = blocks.total_comparisons() as usize;
        assert!(
            report.shuffled_records() < occurrences,
            "entity-based must shuffle less: {} vs {occurrences}",
            report.shuffled_records(),
        );
        let weighting_records = report
            .jobs
            .iter()
            .find(|(l, _)| *l == "wnp/neighbourhoods")
            .map(|(_, s)| s.intermediate_pairs)
            .expect("default session runs WNP");
        assert!(
            weighting_records <= blocks.num_entities(),
            "at most one record per entity neighbourhood"
        );
    }
}
