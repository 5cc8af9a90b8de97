//! The streaming backend: a scoped-thread row driver that never
//! materialises the blocking graph.
//!
//! Building the full edge slab (one record per distinct comparable pair)
//! before pruning would keep what pruning discards. Pruning decisions
//! need per-node neighbourhoods or a few global scalars, never
//! random access to the whole slab — so this driver sweeps the block
//! collection entity by entity (the crate-internal `sweep` module),
//! rebuilds each node's row in dense epoch-reset accumulators, and hands
//! it to the family's rule. What a row *means* — thresholds, selections,
//! votes, tie-breaks — lives in the crate-internal `rule` module; this
//! file only decides which rows are visited and where partial results
//! merge:
//!
//! * **Rows visited**: every entity with at least one neighbour in the
//!   pass's direction, over contiguous entity ranges balanced by what
//!   sweeping them in that direction costs — one scoped worker thread and
//!   one pooled scratch per range, inline when a single range covers the
//!   corpus. A pass *sweeps* forward (`y > a`) only — half the
//!   co-occurrences, none of the backward weights — unless the rule reads
//!   full rows (the node-centric votes, BLAST's local maxima).
//! * **Where the reduction merges**: each range folds its rows into its
//!   own share and seals it in its own worker (CEP's one sort happens
//!   there, in parallel); the sealed shares merge on the calling thread
//!   in range order, which for CEP is a `k`-bounded merge of descending
//!   runs. Every criterion reduction is exact or fixed-shape, so the
//!   merged result is independent of the partitioning; kept pairs
//!   concatenate in range order, which for the forward-only rules *is*
//!   pair order.
//!
//! The sweep state (entity ranges, weight globals, scratch pool) belongs
//! to the [`Session`](crate::Session) and is reused across runs. EJS, the
//! supervised features and CNP's default `k` read node degrees / |V| /
//! the active-node count: one extra counting sweep, still without
//! materialising edges, run at most once per session.
//!
//! `tests/streaming_equivalence.rs` and `tests/session_reuse.rs` pin every
//! cell of the streaming column bit-identical to the test-only
//! specification (`tests/common/spec.rs`).

#![deny(clippy::disallowed_types)]

use crate::prune::WeightedPair;
use crate::rule::{forward_len, CriterionFold, Partial, Row, RowBuf, RowDriver, Rule, Weigher};
use crate::sweep::{for_each_range, SweepState};
use minoan_blocking::Direction;
use minoan_rdf::EntityId;

/// The scoped-thread [`RowDriver`] over a session's sweep state.
pub(crate) struct Streaming<'s, 'c> {
    st: &'s mut SweepState<'c>,
    threads: usize,
}

impl<'s, 'c> Streaming<'s, 'c> {
    pub(crate) fn new(st: &'s mut SweepState<'c>, threads: usize) -> Self {
        Self {
            st,
            threads: threads.max(1),
        }
    }

    /// One pass over the corpus: sweeps every entity in `direction`,
    /// fills its `weigher` row and feeds it to `step` against the range's
    /// own `init()` accumulator, which `seal` closes in the range's
    /// worker. Returns the accumulators in range order and the pass's
    /// forward-edge count.
    fn pass<A: Send>(
        &mut self,
        weigher: Weigher,
        direction: Direction,
        init: impl Fn() -> A + Sync,
        step: impl Fn(&mut A, Row<'_>) + Sync,
        seal: impl Fn(&mut A) + Sync,
    ) -> (Vec<A>, u64) {
        self.st.ensure(weigher.needs_counts(), self.threads);
        let ranges = self.st.ranges(self.threads, direction);
        let (collection, globals) = (self.st.collection, self.st.globals());
        let shares = for_each_range(&ranges, &self.st.pool, |range, scratch| {
            let mut acc = init();
            let mut buf = RowBuf::default();
            let mut forward = 0u64;
            for a in range {
                let a = a as u32;
                if scratch.sweep(collection, EntityId(a), direction).is_empty() {
                    continue;
                }
                weigher.fill(scratch, a, globals, &mut buf);
                forward += forward_len(a, &buf.entries, |e| e.y);
                step(&mut acc, buf.row(a));
            }
            seal(&mut acc);
            (acc, forward)
        });
        let forward = shares.iter().map(|s| s.1).sum();
        (shares.into_iter().map(|s| s.0).collect(), forward)
    }
}

impl RowDriver for Streaming<'_, '_> {
    fn num_entities(&self) -> usize {
        self.st.collection.num_entities()
    }

    fn total_assignments(&self) -> u64 {
        self.st.collection.total_assignments()
    }

    fn active_nodes(&mut self) -> usize {
        self.st.ensure(true, self.threads);
        self.st.globals().active_nodes
    }

    fn num_edges(&mut self) -> usize {
        self.st.ensure(true, self.threads);
        self.st.globals().num_edges
    }

    fn reduce(&mut self, weigher: Weigher, fold: &CriterionFold) -> (Partial, u64) {
        let (shares, forward) = self.pass(
            weigher,
            fold.sweep_direction(),
            || fold.init(),
            |acc, row| fold.fold(acc, row),
            Partial::seal,
        );
        let merged = Partial::merged(shares).unwrap_or_else(|| fold.init());
        (merged, forward)
    }

    fn keep(&mut self, weigher: Weigher, rule: Rule<'_>) -> (Vec<WeightedPair>, u64) {
        let (shares, forward) = self.pass(
            weigher,
            rule.sweep_direction(),
            Vec::new,
            |kept, row| rule.contribute(row, kept),
            |_| {},
        );
        (shares.into_iter().flatten().collect(), forward)
    }
}
