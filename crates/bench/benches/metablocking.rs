//! Criterion benches for meta-blocking (supports E3): each pruning family
//! on the streaming backend, on one small world — plus the ledger's
//! `batch_dirty` meta-blocking stage
//! (dirty mode, JS × CEP, streaming, two workers) at 400 entities, so the
//! path that workload's claims rest on has a micro-level twin that keeps
//! compiling. Nothing here writes a results file — build-vs-stream at
//! scale is the ledger's `metablocking.run_s` (`BENCHMARK.json`); the
//! older one-off measurements are recorded in CHANGES.md.

use criterion::{criterion_group, criterion_main, Criterion};
use minoan_blocking::{builders, filter, purge, BlockCollection, ErMode};
use minoan_datagen::{generate, profiles};
use minoan_metablocking::{ExecutionBackend, PruneOutcome, Pruning, Session, WeightingScheme};
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
    group.bench_function("wep/arcs-streaming", |b| {
        b.iter(|| black_box(stream(&cleaned, WeightingScheme::Arcs, Pruning::Wep)));
    });
    group.bench_function("wnp/arcs-streaming", |b| {
        b.iter(|| black_box(stream(&cleaned, WeightingScheme::Arcs, WNP)));
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
    // the shared sweep state.
    group.bench_function("sweep5-wnp/session", |b| {
        b.iter(|| {
            let mut session = Session::new(&cleaned);
            session.pruning(WNP);
            for scheme in WeightingScheme::ALL {
                black_box(session.scheme(scheme).run());
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_metablocking);
criterion_main!(benches);
