//! Criterion benches for meta-blocking (supports E3), plus the
//! build-vs-stream scaling harness that records `BENCH_metablocking.json`.
//!
//! The scaling harness compares, at several world sizes:
//! * the legacy hash-map graph build (global
//!   `FxHashMap<(EntityId, EntityId), (u32, f64)>` accumulator — the
//!   pre-CSR implementation, reproduced here as the baseline),
//! * the CSR counting-sort build, serial and parallel,
//! * materialised WNP (graph build + prune) vs streaming WNP, serial and
//!   parallel,
//! * materialised WEP and CEP (graph build + prune) vs their graph-free
//!   streaming counterparts (two-pass pairwise mean / merged per-thread
//!   top-k heaps), serial and parallel,
//! * the two MapReduce strategies — edge-based (one shuffled record per
//!   pair occurrence) vs entity-partitioned (at most one per entity
//!   neighbourhood) — recording shuffle volume and the modeled makespan
//!   at 1/4/16 workers from the measured task durations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minoan_blocking::{builders, filter, purge, BlockCollection, ErMode};
use minoan_common::FxHashMap;
use minoan_datagen::{generate, profiles};
use minoan_mapreduce::Engine;
use minoan_metablocking::parallel::parallel_edge_weights_with_stats;
use minoan_metablocking::{
    prune, BlockingGraph, ExecutionBackend, PruneOutcome, Pruning, Session, WeightingScheme,
};
use minoan_rdf::EntityId;
use std::hint::black_box;
use std::time::Instant;

const WNP: Pruning = Pruning::Wnp { reciprocal: false };

/// One fresh single-shot session run on a sweeping backend (`workers:
/// None` = all available parallelism).
fn run(
    blocks: &BlockCollection,
    scheme: WeightingScheme,
    pruning: Pruning,
    backend: ExecutionBackend,
    workers: Option<usize>,
) -> PruneOutcome {
    let mut session = Session::new(blocks);
    session.scheme(scheme).pruning(pruning).backend(backend);
    if let Some(workers) = workers {
        session.workers(workers);
    }
    session.run()
}

fn stream(
    blocks: &BlockCollection,
    scheme: WeightingScheme,
    pruning: Pruning,
    threads: Option<usize>,
) -> PruneOutcome {
    run(
        blocks,
        scheme,
        pruning,
        ExecutionBackend::Streaming,
        threads,
    )
}

fn bench_metablocking(c: &mut Criterion) {
    let world = generate(&profiles::center_dense(400, 11));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let cleaned = filter::filter(&purge::purge(&blocks).collection);

    let mut group = c.benchmark_group("metablocking");
    group.sample_size(10);
    group.bench_function("graph-build", |b| {
        b.iter(|| black_box(BlockingGraph::build(&cleaned)));
    });

    let graph = BlockingGraph::build(&cleaned);
    for scheme in WeightingScheme::ALL {
        group.bench_with_input(
            BenchmarkId::new("weights", scheme.name()),
            &scheme,
            |b, &s| b.iter(|| black_box(s.all_weights(&graph))),
        );
    }
    group.bench_function("wep/arcs", |b| {
        b.iter(|| black_box(prune::wep(&graph, WeightingScheme::Arcs)));
    });
    group.bench_function("wep/arcs-streaming", |b| {
        b.iter(|| black_box(stream(&cleaned, WeightingScheme::Arcs, Pruning::Wep, None)));
    });
    group.bench_function("wnp/arcs", |b| {
        b.iter(|| black_box(prune::wnp(&graph, WeightingScheme::Arcs, false)));
    });
    group.bench_function("wnp/arcs-streaming", |b| {
        b.iter(|| black_box(stream(&cleaned, WeightingScheme::Arcs, WNP, None)));
    });
    group.bench_function("cnp/js", |b| {
        b.iter(|| black_box(prune::cnp(&graph, WeightingScheme::Js, false, None)));
    });
    group.bench_function("cnp/js-streaming", |b| {
        b.iter(|| {
            let cnp = Pruning::Cnp {
                reciprocal: false,
                k: None,
            };
            black_box(stream(&cleaned, WeightingScheme::Js, cnp, None))
        });
    });
    group.bench_function("cep/ecbs", |b| {
        b.iter(|| black_box(prune::cep(&graph, WeightingScheme::Ecbs, None)));
    });
    group.bench_function("cep/ecbs-streaming", |b| {
        b.iter(|| {
            black_box(stream(
                &cleaned,
                WeightingScheme::Ecbs,
                Pruning::Cep(None),
                None,
            ))
        });
    });
    // The session API's reason to exist: sweeping all five schemes reuses
    // the shared state instead of rebuilding it per scheme.
    group.bench_function("sweep5-wnp/session", |b| {
        b.iter(|| {
            let mut session = Session::new(&cleaned);
            session.pruning(WNP);
            for scheme in WeightingScheme::ALL {
                black_box(session.scheme(scheme).run());
            }
        });
    });
    group.bench_function("sweep5-wnp/rebuild", |b| {
        b.iter(|| {
            for scheme in WeightingScheme::ALL {
                let g = BlockingGraph::build(&cleaned);
                black_box(prune::wnp(&g, scheme, false));
            }
        });
    });
    group.finish();
}

/// The pre-CSR `BlockingGraph::build`: a global hash-map accumulator over
/// all pair occurrences, then a sort. Kept as the benchmark baseline.
fn hashmap_baseline_build(collection: &BlockCollection) -> usize {
    let mut acc: FxHashMap<(EntityId, EntityId), (u32, f64)> = FxHashMap::default();
    for (bid, a, b) in collection.pair_occurrences() {
        let card = collection.block(bid).comparisons as f64;
        let e = acc.entry((a, b)).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += 1.0 / card.max(1.0);
    }
    let mut edges: Vec<(EntityId, EntityId, u32, f64)> = acc
        .into_iter()
        .map(|((a, b), (cbs, arcs))| (a, b, cbs, arcs))
        .collect();
    edges.sort_unstable_by_key(|e| (e.0, e.1));
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); collection.num_entities()];
    for (i, e) in edges.iter().enumerate() {
        adjacency[e.0.index()].push(i as u32);
        adjacency[e.1.index()].push(i as u32);
    }
    black_box(&adjacency);
    edges.len()
}

struct Record {
    world: usize,
    edges: usize,
    variant: &'static str,
    nanos: u128,
}

/// One MapReduce-strategy row: shuffle volume plus the makespan modeled
/// from the measured task durations at several worker counts.
struct MrRecord {
    world: usize,
    edges: usize,
    strategy: &'static str,
    shuffled_records: usize,
    modeled_nanos: [u64; 3],
}

/// Modeled-makespan worker counts recorded per strategy.
const MR_WORKERS: [usize; 3] = [1, 4, 16];

fn time<F: FnMut() -> R, R>(mut f: F, reps: u32) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_nanos());
    }
    best
}

/// Scaling harness: build-vs-stream at several world sizes; records
/// throughput numbers into `BENCH_metablocking.json` at the repo root.
fn bench_scaling(_c: &mut Criterion) {
    // `MINOAN_BENCH_SIZES=skip` (or `0`) skips the harness entirely —
    // it runs whole-world workloads for minutes and rewrites
    // BENCH_metablocking.json, which is not always wanted on a filtered
    // `cargo bench` invocation.
    let sizes: Vec<usize> = match std::env::var("MINOAN_BENCH_SIZES") {
        Ok(s) if s == "skip" || s == "0" => {
            println!("scaling harness skipped (MINOAN_BENCH_SIZES={s})");
            return;
        }
        Ok(s) => s.split(',').filter_map(|x| x.trim().parse().ok()).collect(),
        Err(_) => vec![2_000, 10_000, 50_000],
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut records: Vec<Record> = Vec::new();
    let mut mr_records: Vec<MrRecord> = Vec::new();
    println!("scaling harness: sizes {sizes:?}, {threads} threads");

    for &n in &sizes {
        let reps = if n >= 20_000 { 2 } else { 3 };
        let world = generate(&profiles::center_dense(n, 11));
        let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
        let cleaned = filter::filter(&purge::purge(&blocks).collection);
        let edges = BlockingGraph::build(&cleaned).num_edges();
        println!("world {n}: {} blocks, {edges} graph edges", cleaned.len());

        let mut rec = |variant: &'static str, nanos: u128| {
            println!(
                "  {variant:<24} {:>10.2} ms   ({:.1} Medges/s)",
                nanos as f64 / 1e6,
                edges as f64 / (nanos as f64 / 1e9) / 1e6
            );
            records.push(Record {
                world: n,
                edges,
                variant,
                nanos,
            });
        };

        rec(
            "build/hashmap-baseline",
            time(|| hashmap_baseline_build(&cleaned), reps),
        );
        rec(
            "build/csr-serial",
            time(|| BlockingGraph::build_with_threads(&cleaned, 1), reps),
        );
        rec(
            "build/csr-parallel",
            time(
                || BlockingGraph::build_with_threads(&cleaned, threads),
                reps,
            ),
        );

        let graph = BlockingGraph::build(&cleaned);
        rec(
            "wnp/materialized-prune",
            time(|| prune::wnp(&graph, WeightingScheme::Arcs, false), reps),
        );
        rec(
            "wnp/materialized-total",
            time(
                || {
                    let g = BlockingGraph::build(&cleaned);
                    prune::wnp(&g, WeightingScheme::Arcs, false)
                },
                reps,
            ),
        );
        rec(
            "wnp/streaming-serial",
            time(
                || stream(&cleaned, WeightingScheme::Arcs, WNP, Some(1)),
                reps,
            ),
        );
        rec(
            "wnp/streaming-parallel",
            time(
                || stream(&cleaned, WeightingScheme::Arcs, WNP, Some(threads)),
                reps,
            ),
        );

        rec(
            "wep/materialized-total",
            time(
                || {
                    let g = BlockingGraph::build(&cleaned);
                    prune::wep(&g, WeightingScheme::Arcs)
                },
                reps,
            ),
        );
        rec(
            "wep/streaming-serial",
            time(
                || stream(&cleaned, WeightingScheme::Arcs, Pruning::Wep, Some(1)),
                reps,
            ),
        );
        rec(
            "wep/streaming-parallel",
            time(
                || stream(&cleaned, WeightingScheme::Arcs, Pruning::Wep, Some(threads)),
                reps,
            ),
        );

        rec(
            "cep/materialized-total",
            time(
                || {
                    let g = BlockingGraph::build(&cleaned);
                    prune::cep(&g, WeightingScheme::Ecbs, None)
                },
                reps,
            ),
        );
        rec(
            "cep/streaming-serial",
            time(
                || stream(&cleaned, WeightingScheme::Ecbs, Pruning::Cep(None), Some(1)),
                reps,
            ),
        );
        rec(
            "cep/streaming-parallel",
            time(
                || {
                    let cep = Pruning::Cep(None);
                    stream(&cleaned, WeightingScheme::Ecbs, cep, Some(threads))
                },
                reps,
            ),
        );

        // Scheme-sweep row family: all five schemes × WNP through one
        // Session (shared CSR build / sweep state) vs the pre-session
        // shape (rebuild the shared state per scheme). Same pruned
        // output, different amount of rebuilt state.
        rec(
            "sweep5-wnp/materialized-session",
            time(
                || {
                    let mut session = Session::new(&cleaned);
                    session.pruning(WNP);
                    for scheme in WeightingScheme::ALL {
                        black_box(session.scheme(scheme).run());
                    }
                },
                reps,
            ),
        );
        rec(
            "sweep5-wnp/materialized-rebuild",
            time(
                || {
                    for scheme in WeightingScheme::ALL {
                        let g = BlockingGraph::build(&cleaned);
                        black_box(prune::wnp(&g, scheme, false));
                    }
                },
                reps,
            ),
        );
        rec(
            "sweep5-wnp/streaming-session",
            time(
                || {
                    let mut session = Session::new(&cleaned);
                    session
                        .backend(ExecutionBackend::Streaming)
                        .workers(threads)
                        .pruning(WNP);
                    for scheme in WeightingScheme::ALL {
                        black_box(session.scheme(scheme).run());
                    }
                },
                reps,
            ),
        );
        rec(
            "sweep5-wnp/streaming-rebuild",
            time(
                || {
                    for scheme in WeightingScheme::ALL {
                        black_box(stream(&cleaned, scheme, WNP, Some(threads)));
                    }
                },
                reps,
            ),
        );

        // MapReduce strategies: per-occurrence (edge-based) vs
        // per-entity-neighbourhood (entity-partitioned) shuffle volume,
        // and the makespan modeled from the measured task durations.
        let mut mr_rec = |strategy: &'static str, shuffled: usize, modeled: [u64; 3]| {
            println!(
                "  mapreduce {strategy:<22} {shuffled:>9} shuffled records   modeled \
                 {:.1}/{:.1}/{:.1} ms at {MR_WORKERS:?} workers",
                modeled[0] as f64 / 1e6,
                modeled[1] as f64 / 1e6,
                modeled[2] as f64 / 1e6,
            );
            mr_records.push(MrRecord {
                world: n,
                edges,
                strategy,
                shuffled_records: shuffled,
                modeled_nanos: modeled,
            });
        };
        let (_, edge_stats) = parallel_edge_weights_with_stats(
            &cleaned,
            WeightingScheme::Arcs,
            &Engine::new(threads),
        );
        let jobs = |pruning: Pruning| {
            let mapreduce = ExecutionBackend::MapReduce;
            run(
                &cleaned,
                WeightingScheme::Arcs,
                pruning,
                mapreduce,
                Some(threads),
            )
            .report
        };
        mr_rec(
            "edge-based/weights",
            edge_stats.intermediate_pairs,
            MR_WORKERS.map(|w| edge_stats.modeled_nanos(w)),
        );
        let report = jobs(WNP);
        mr_rec(
            "entity-based/wnp",
            report.shuffled_records(),
            MR_WORKERS.map(|w| report.modeled_nanos(w)),
        );
        let report = jobs(Pruning::Wep);
        mr_rec(
            "entity-based/wep",
            report.shuffled_records(),
            MR_WORKERS.map(|w| report.modeled_nanos(w)),
        );
        // Same scheme as the other MapReduce rows so makespans compare
        // strategy cost, not weighting-scheme cost.
        let report = jobs(Pruning::Cep(None));
        mr_rec(
            "entity-based/cep",
            report.shuffled_records(),
            MR_WORKERS.map(|w| report.modeled_nanos(w)),
        );
    }

    // Hand-rolled JSON (no serde_json in this offline workspace). Each
    // harness owns its sections of the shared file: this one writes
    // `results` + `mapreduce_results`, the `blockbuild` binary writes
    // `blockbuild_results`; merging keeps the other's rows intact.
    let mut results_rows = String::new();
    for (i, r) in records.iter().enumerate() {
        let throughput = r.edges as f64 / (r.nanos as f64 / 1e9);
        results_rows.push_str(&format!(
            "    {{\"world_entities\": {}, \"graph_edges\": {}, \"variant\": \"{}\", \
             \"nanos\": {}, \"edges_per_sec\": {:.0}}}{}\n",
            r.world,
            r.edges,
            r.variant,
            r.nanos,
            throughput,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    let mut mr_rows = String::new();
    for (i, r) in mr_records.iter().enumerate() {
        mr_rows.push_str(&format!(
            "    {{\"world_entities\": {}, \"graph_edges\": {}, \"strategy\": \"{}\", \
             \"shuffled_records\": {}, \"modeled_nanos_w1\": {}, \"modeled_nanos_w4\": {}, \
             \"modeled_nanos_w16\": {}}}{}\n",
            r.world,
            r.edges,
            r.strategy,
            r.shuffled_records,
            r.modeled_nanos[0],
            r.modeled_nanos[1],
            r.modeled_nanos[2],
            if i + 1 < mr_records.len() { "," } else { "" }
        ));
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_metablocking.json");
    let written = minoan_bench::blockbuild::ensure_header(&path, threads)
        .and_then(|_| minoan_bench::blockbuild::merge_section(&path, "results", &results_rows))
        .and_then(|_| {
            minoan_bench::blockbuild::merge_section(&path, "mapreduce_results", &mr_rows)
        });
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

criterion_group!(benches, bench_metablocking, bench_scaling);
criterion_main!(benches);
