//! Criterion benches for meta-blocking (supports E3): graph build, the five
//! weighting schemes, and each pruning family materialised vs streaming, on
//! one small world — plus the ledger's `batch_dirty` meta-blocking stage
//! (dirty mode, JS × CEP, streaming, two workers) at 400 entities, so the
//! path that workload's claims rest on has a micro-level twin that keeps
//! compiling. Nothing here writes a results file — build-vs-stream at
//! scale is the ledger's `metablocking.run_s` (`BENCHMARK.json`), and the
//! rows in `BENCH_metablocking.json` are history.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minoan_blocking::{builders, filter, purge, BlockCollection, ErMode};
use minoan_datagen::{generate, profiles};
use minoan_metablocking::{
    prune, BlockingGraph, ExecutionBackend, PruneOutcome, Pruning, Session, WeightingScheme,
};
use std::hint::black_box;

const WNP: Pruning = Pruning::Wnp { reciprocal: false };

/// One fresh single-shot session run on the streaming backend, at all
/// available parallelism.
fn stream(blocks: &BlockCollection, scheme: WeightingScheme, pruning: Pruning) -> PruneOutcome {
    Session::new(blocks)
        .scheme(scheme)
        .pruning(pruning)
        .backend(ExecutionBackend::Streaming)
        .run()
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
        b.iter(|| black_box(stream(&cleaned, WeightingScheme::Arcs, Pruning::Wep)));
    });
    group.bench_function("wnp/arcs", |b| {
        b.iter(|| black_box(prune::wnp(&graph, WeightingScheme::Arcs, false)));
    });
    group.bench_function("wnp/arcs-streaming", |b| {
        b.iter(|| black_box(stream(&cleaned, WeightingScheme::Arcs, WNP)));
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
            black_box(stream(&cleaned, WeightingScheme::Js, cnp))
        });
    });
    group.bench_function("cep/ecbs", |b| {
        b.iter(|| black_box(prune::cep(&graph, WeightingScheme::Ecbs, None)));
    });
    group.bench_function("cep/ecbs-streaming", |b| {
        b.iter(|| black_box(stream(&cleaned, WeightingScheme::Ecbs, Pruning::Cep(None))));
    });
    let duplicates = generate(&profiles::dirty_single(400, 11));
    let dirty = builders::token_blocking(&duplicates.dataset, ErMode::Dirty);
    let dirty = filter::filter(&purge::purge(&dirty).collection);
    group.bench_function("cep/js-streaming-dirty", |b| {
        b.iter(|| {
            let mut session = Session::new(&dirty);
            let js_cep = session
                .scheme(WeightingScheme::Js)
                .pruning(Pruning::Cep(None));
            black_box(js_cep.backend(ExecutionBackend::Streaming).workers(2).run())
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

criterion_group!(benches, bench_metablocking);
criterion_main!(benches);
