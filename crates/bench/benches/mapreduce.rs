//! Criterion benches for the MapReduce substrate (supports E7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minoan_blocking::parallel::parallel_token_blocking;
use minoan_blocking::ErMode;
use minoan_datagen::{generate, profiles};
use minoan_mapreduce::Engine;
use minoan_metablocking::{ExecutionBackend, Pruning, Session};
use std::hint::black_box;

fn bench_mapreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapreduce");
    group.sample_size(10);

    // Raw engine throughput: word-count over synthetic documents.
    let docs: Vec<String> = (0..2_000)
        .map(|i| (0..30).map(|j| format!("w{} ", (i * j) % 500)).collect())
        .collect();
    for workers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("word-count", workers),
            &workers,
            |b, &w| {
                let engine = Engine::new(w);
                b.iter(|| {
                    let r = engine.run(
                        docs.clone(),
                        |d, emit| {
                            for t in d.split_whitespace() {
                                emit(t.to_string(), 1u64);
                            }
                        },
                        |k, vs, out| out.push((k.clone(), vs.iter().sum::<u64>())),
                    );
                    black_box(r.output.len())
                });
            },
        );
    }

    // The real workloads: blocking and meta-blocking jobs.
    let world = generate(&profiles::center_dense(400, 5));
    for workers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("token-blocking", workers),
            &workers,
            |b, &w| {
                let engine = Engine::new(w);
                b.iter(|| {
                    black_box(parallel_token_blocking(
                        &world.dataset,
                        ErMode::CleanClean,
                        &engine,
                    ))
                });
            },
        );
    }
    let blocks = parallel_token_blocking(&world.dataset, ErMode::CleanClean, &Engine::new(4));
    for workers in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("wep", workers), &workers, |b, &w| {
            b.iter(|| {
                black_box(
                    Session::new(&blocks)
                        .pruning(Pruning::Wep)
                        .backend(ExecutionBackend::MapReduce)
                        .workers(w)
                        .run(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mapreduce);
criterion_main!(benches);
