//! The `incremental` bench family: sustained-arrival meta-blocking through
//! the updatable [`IncrementalSession`] vs. rebuilding from scratch.
//!
//! Three costs are measured on the same arrival stream:
//!
//! * **delta** — `IncrementalSession::ingest` (slab delta-append +
//!   dirty-set delta-sweep, i.e. bringing the pruned state up to date) —
//!   timed for *every* batch, so the p50/p99 capture steady-state
//!   arrival latency;
//! * **delta-outcome** — the on-demand `outcome()` assembly of the
//!   pruned comparison set from the patched row cache, timed at sampled
//!   checkpoints (it is linear in the corpus' edge count, so running it
//!   per batch would make the harness quadratic for delta and full
//!   alike);
//! * **full** — what a non-updatable pipeline pays for the same
//!   freshness: re-run `token_blocking` over everything arrived so far
//!   and prune it with a from-scratch streaming [`Session`] — timed at
//!   the same checkpoints.
//!
//! The smoke mode re-asserts the delta path's bit-identity against the
//! from-scratch session on every batch before trusting any timing, and
//! the calibrate mode sweeps the incremental *resolver's* per-arrival
//! budgets (the numbers documented on `IncrementalConfig::default`).
//!
//! The workload is a periphery-style world whose type universe and token
//! vocabulary scale with the corpus and whose token-popularity curve is
//! flattened ([`bench_world`]): that keeps block sizes bounded as the
//! stream grows — the regime a block-purged corpus is in when
//! meta-blocking runs. With the generator's defaults (4 types, Zipf-1.0
//! vocabulary), the four `typeN` blocks each span a quarter of the
//! corpus and carry >99% of all edges; every batch then dirties nearly
//! everyone and *both* paths degenerate to sweeping those stop blocks —
//! measuring block purging's absence (the grow-only collection cannot
//! purge yet), not the delta path.

use minoan_blocking::{BlockCollection, ErMode, KeyAssignments};
use minoan_common::stats::percentile;
use minoan_datagen::{generate, profiles, ArrivalOrder};
use minoan_er::{IncrementalConfig, IncrementalResolver, Matcher, MatcherConfig};
use minoan_metablocking::{
    ExecutionBackend, IncrementalSession, Pruning, Session, WeightingScheme,
};
use minoan_rdf::tokenize::TokenBuffers;
use minoan_rdf::Dataset;
use std::hint::black_box;
use std::time::Instant;

/// The scheme × pruning pair the family is benched on: JS delta-sweeps
/// with the tight `batch ∪ grown` target set (ARCS would re-sweep every
/// member of every touched block; the unsupported schemes pay the `full`
/// variant's cost by falling back).
pub const BENCH_SCHEME: WeightingScheme = WeightingScheme::Js;
/// See [`BENCH_SCHEME`].
pub const BENCH_PRUNING: Pruning = Pruning::Wnp { reciprocal: false };

/// One measured variant of one configuration.
pub struct IncrementalRow {
    /// World size (entities parameter of the generator).
    pub world: usize,
    /// Descriptions in the generated corpus (what actually arrives).
    pub descriptions: usize,
    /// Arrival batch size.
    pub batch_size: usize,
    /// `delta` or `full`.
    pub variant: &'static str,
    /// Batches measured under this variant.
    pub samples: usize,
    /// Median per-batch latency.
    pub p50_nanos: u128,
    /// Tail per-batch latency.
    pub p99_nanos: u128,
    /// Wall clock across the measured batches.
    pub total_nanos: u128,
}

/// Runs the family. Every batch is timed through `ingest` (the
/// delta-sweep state update — the sustained per-arrival cost); at evenly
/// spaced checkpoints the on-demand `outcome()` assembly and the
/// full-rebuild reference are timed too (materialising the pruned set
/// per batch would make the harness itself quadratic, for delta and full
/// alike). Returns `[delta, delta-outcome, full]` rows; the headline
/// speedup is `full.p50 / delta.p50` — bringing the pruned state up to
/// date after a batch, incrementally vs from scratch — and the
/// `delta-outcome` row keeps the query-time assembly cost visible next
/// to it.
/// The benched arrival world: periphery KBs with a corpus-scaled type
/// universe and token vocabulary, so block sizes stay bounded as the
/// stream grows (see the module docs for why).
pub fn bench_world(world: usize) -> minoan_datagen::WorldConfig {
    let mut c = profiles::periphery_sparse(world, 11);
    // With the default 4 types, each `typeN` token blocks a quarter of
    // the corpus and those four blocks alone carry >99% of all edges —
    // the oversized blocks the pipeline's block-purge stage exists to
    // drop, which the grow-only incremental collection cannot (yet).
    // Fine-grained classes keep type blocks at ~50 members.
    c.num_types = (world / 50).max(4);
    c.vocab_tokens = (world * 8).max(2_000);
    c.zipf_exponent = 0.5;
    c
}

pub fn run_family(world: usize, batch_size: usize, checkpoints: usize) -> Vec<IncrementalRow> {
    let g = generate(&bench_world(world));
    let batches = ArrivalOrder::Shuffled { seed: 11 }.batches(&g.dataset, &g.truth, batch_size);
    let descriptions = g.dataset.len();
    println!(
        "incremental: world {world} ({descriptions} descriptions), batch size {batch_size}, \
         {} batches",
        batches.len()
    );
    let step = (batches.len() / checkpoints.max(1)).max(1);
    let at_checkpoint = |i: usize| (i + 1).is_multiple_of(step) || i + 1 == batches.len();

    // Delta path: every batch ingested (slab delta-append + dirty-set
    // delta-sweep); outcome assembled at the checkpoints.
    let mut session = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
    session.scheme(BENCH_SCHEME).pruning(BENCH_PRUNING);
    let mut delta_nanos: Vec<f64> = Vec::with_capacity(batches.len());
    let mut outcome_nanos: Vec<f64> = Vec::new();
    let mut outcome_total = 0u128;
    let t_all = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        let t = Instant::now();
        let report = session.ingest(batch);
        delta_nanos.push(t.elapsed().as_nanos() as f64);
        assert!(report.delta, "bench combination must delta-sweep");
        if at_checkpoint(i) {
            println!(
                "  batch {:>5}: ingest {:>9.3} ms  (dirty {}, swept {} of {})",
                i + 1,
                delta_nanos[i] / 1e6,
                report.dirty_entities,
                report.swept_entities,
                report.num_arrived
            );
            let t = Instant::now();
            black_box(session.outcome());
            let n = t.elapsed().as_nanos();
            outcome_nanos.push(n as f64);
            outcome_total += n;
        }
    }
    let delta_total = t_all.elapsed().as_nanos() - outcome_total;

    // Full-rebuild reference at the same checkpoints: re-tokenise,
    // re-block and re-prune everything arrived up to that batch.
    let mut is_arrived = vec![false; descriptions];
    let mut full_nanos: Vec<f64> = Vec::new();
    let mut full_total = 0u128;
    for (i, batch) in batches.iter().enumerate() {
        for e in batch {
            is_arrived[e.index()] = true;
        }
        if !at_checkpoint(i) {
            continue;
        }
        let t = Instant::now();
        let blocks = arrived_token_blocking(&g.dataset, &is_arrived);
        black_box(
            Session::new(&blocks)
                .scheme(BENCH_SCHEME)
                .pruning(BENCH_PRUNING)
                .backend(ExecutionBackend::Streaming)
                .run(),
        );
        let n = t.elapsed().as_nanos();
        full_nanos.push(n as f64);
        full_total += n;
        println!(
            "  checkpoint {}/{}: full rebuild {:>10.3} ms",
            full_nanos.len(),
            batches.len().div_ceil(step),
            n as f64 / 1e6
        );
    }

    let row = |variant: &'static str, samples: &[f64], total: u128| IncrementalRow {
        world,
        descriptions,
        batch_size,
        variant,
        samples: samples.len(),
        p50_nanos: percentile(samples, 50.0) as u128,
        p99_nanos: percentile(samples, 99.0) as u128,
        total_nanos: total,
    };
    let rows = vec![
        row("delta", &delta_nanos, delta_total),
        row("delta-outcome", &outcome_nanos, outcome_total),
        row("full", &full_nanos, full_total),
    ];
    for r in &rows {
        println!(
            "  {:<14} p50 {:>10.3} ms  p99 {:>10.3} ms  ({} samples)",
            r.variant,
            r.p50_nanos as f64 / 1e6,
            r.p99_nanos as f64 / 1e6,
            r.samples
        );
    }
    println!(
        "  per-batch state-update speedup (full p50 / delta p50): {:.2}x; \
         sustained ingest {:.0} descriptions/s",
        rows[2].p50_nanos as f64 / rows[0].p50_nanos.max(1) as f64,
        descriptions as f64 / (delta_total as f64 / 1e9)
    );
    rows
}

/// Token blocking restricted to the arrived descriptions: empty key runs
/// for everything that has not arrived yet — the batch pipeline's view of
/// a partially arrived corpus.
fn arrived_token_blocking(dataset: &Dataset, arrived: &[bool]) -> BlockCollection {
    let mut asg = KeyAssignments::with_capacity(dataset.len());
    let mut buffers = TokenBuffers::default();
    for e in dataset.entities() {
        if arrived[e.index()] {
            dataset.for_each_blocking_token(e, &mut buffers, |tok| asg.push_key(tok));
        }
        asg.seal_entity();
    }
    BlockCollection::from_assignments(dataset, ErMode::CleanClean, asg)
}

/// Smoke gate: on a small world, every batch's delta outcome must be
/// bit-identical to a from-scratch session on the merged corpus, and the
/// delta path must actually engage. Panics on any divergence.
pub fn smoke() {
    let g = generate(&profiles::periphery_sparse(300, 11));
    let batches = ArrivalOrder::Shuffled { seed: 5 }.batches(&g.dataset, &g.truth, 31);
    let mut inc = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
    inc.scheme(BENCH_SCHEME).pruning(BENCH_PRUNING);
    for (i, batch) in batches.iter().enumerate() {
        let report = inc.ingest(batch);
        assert!(report.delta, "batch {i}: delta path must engage");
        let got = inc.outcome();
        let snap = inc.snapshot();
        let want = Session::new(snap)
            .scheme(BENCH_SCHEME)
            .pruning(BENCH_PRUNING)
            .backend(ExecutionBackend::Streaming)
            .run();
        assert_eq!(
            got.pruned.input_edges, want.pruned.input_edges,
            "batch {i}: input edges"
        );
        assert_eq!(
            got.pruned.pairs.len(),
            want.pruned.pairs.len(),
            "batch {i}: kept count"
        );
        for (x, y) in got.pruned.pairs.iter().zip(&want.pruned.pairs) {
            assert_eq!((x.a, x.b), (y.a, y.b), "batch {i}: pair order");
            assert_eq!(
                x.weight.to_bits(),
                y.weight.to_bits(),
                "batch {i}: weight bits of ({:?},{:?})",
                x.a,
                x.b
            );
        }
    }
    println!(
        "incremental smoke: {} batches delta-swept bit-identically — OK",
        batches.len()
    );
}

/// One calibration measurement: quality and cost of the incremental
/// *resolver* under a (budget, candidates) configuration.
pub struct CalibrationRow {
    /// Per-arrival comparison budget.
    pub budget: u64,
    /// Candidate pool size.
    pub candidates: usize,
    /// Match precision against ground truth.
    pub precision: f64,
    /// Match recall against ground truth.
    pub recall: f64,
    /// Total comparisons executed over the stream.
    pub comparisons: u64,
}

/// Sweeps the resolver's per-arrival budgets on one world — the run the
/// `IncrementalConfig::default` numbers are documented from.
pub fn calibrate(world: usize) -> Vec<CalibrationRow> {
    let g = generate(&profiles::center_dense(world, 11));
    let order = ArrivalOrder::Shuffled { seed: 11 }.order(&g.dataset, &g.truth);
    let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
    let truth_pairs = g.truth.matching_pairs() as f64;
    let mut rows = Vec::new();
    println!(
        "calibration world: {world} entities, {} descriptions",
        g.dataset.len()
    );
    println!(
        "{:>8} {:>10} {:>10} {:>8} {:>12}",
        "budget", "candidates", "precision", "recall", "comparisons"
    );
    for budget in [2u64, 4, 10, 16] {
        for candidates in [8usize, 24, 64] {
            let config = IncrementalConfig {
                budget_per_arrival: budget,
                max_candidates: candidates,
                ..Default::default()
            };
            let mut inc = IncrementalResolver::new(&g.dataset, &matcher, config);
            inc.arrive_all(order.iter().copied());
            let matches = inc.matches();
            let tp = matches
                .iter()
                .filter(|(a, b, _)| g.truth.is_match(*a, *b))
                .count() as f64;
            let row = CalibrationRow {
                budget,
                candidates,
                precision: if matches.is_empty() {
                    0.0
                } else {
                    tp / matches.len() as f64
                },
                recall: tp / truth_pairs,
                comparisons: inc.comparisons(),
            };
            println!(
                "{:>8} {:>10} {:>10.3} {:>8.3} {:>12}",
                row.budget, row.candidates, row.precision, row.recall, row.comparisons
            );
            rows.push(row);
        }
    }
    rows
}

/// Formats delta/full row pairs as the `incremental` JSON section body.
pub fn rows_json(rows: &[IncrementalRow], threads: usize) -> String {
    let mut out = String::new();
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"world_entities\": {}, \"descriptions\": {}, \"batch_size\": {}, \
             \"variant\": \"{}\", \"samples\": {}, \"p50_nanos\": {}, \"p99_nanos\": {}, \
             \"total_nanos\": {}, \"threads\": {}}}{}\n",
            r.world,
            r.descriptions,
            r.batch_size,
            r.variant,
            r.samples,
            r.p50_nanos,
            r.p99_nanos,
            r.total_nanos,
            threads,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_asserts_bit_identity() {
        smoke();
    }

    #[test]
    fn run_family_times_all_variants() {
        let rows = run_family(250, 19, 3);
        let [delta, outcome, full] = rows.as_slice() else {
            panic!("expected 3 rows, got {}", rows.len());
        };
        assert_eq!(delta.variant, "delta");
        assert_eq!(outcome.variant, "delta-outcome");
        assert_eq!(full.variant, "full");
        assert!(delta.samples > full.samples);
        assert_eq!(outcome.samples, full.samples);
        assert!(delta.p50_nanos > 0 && full.p50_nanos > 0);
        assert!(delta.p99_nanos >= delta.p50_nanos);
    }
}
