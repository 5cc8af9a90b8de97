//! Criterion benches for the blocking layer (supports E2).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use minoan_blocking::builders::TokenKeys;
use minoan_blocking::{builders, filter, purge, BlockCollection, Corpus, ErMode, Method};
use minoan_common::default_threads;
use minoan_datagen::{generate, profiles};
use minoan_er::{Matcher, MatcherConfig};
use std::hint::black_box;

fn bench_blocking(c: &mut Criterion) {
    let mut group = c.benchmark_group("blocking");
    group.sample_size(10);
    for &n in &[200usize, 500] {
        let world = generate(&profiles::center_dense(n, 7));
        group.bench_with_input(BenchmarkId::new("token", n), &world, |b, w| {
            b.iter(|| black_box(builders::token_blocking(&w.dataset, ErMode::CleanClean)));
        });
        group.bench_with_input(BenchmarkId::new("token+uri", n), &world, |b, w| {
            b.iter(|| {
                black_box(builders::token_and_uri_blocking(
                    &w.dataset,
                    ErMode::CleanClean,
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("attr-clustering", n), &world, |b, w| {
            b.iter(|| {
                black_box(builders::attribute_clustering_blocking(
                    &w.dataset,
                    ErMode::CleanClean,
                    default_threads(),
                ))
            });
        });
        let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
        group.bench_with_input(BenchmarkId::new("purge+filter", n), &blocks, |b, blocks| {
            b.iter(|| black_box(filter::filter(&purge::purge(blocks).collection)));
        });
    }
    group.finish();
}

/// The advanced blocker families (supports E9).
fn bench_blocker_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("blocking-families");
    group.sample_size(10);
    let world = generate(&profiles::center_dense(300, 7));
    let methods: Vec<(&str, Method)> = vec![
        ("qgrams3", Method::QGrams),
        ("ext-qgrams", Method::ExtendedQGrams),
        ("snm6", Method::SortedNeighborhood),
        ("adaptive-snm", Method::AdaptiveSortedNeighborhood),
        ("minhash-lsh", Method::MinHashLsh),
        ("canopy", Method::Canopy),
    ];
    for (name, method) in methods {
        group.bench_function(name, |b| {
            b.iter(|| black_box(method.run(&world.dataset, ErMode::CleanClean, default_threads())));
        });
    }
    group.finish();
}

/// The one corpus and what each of its two batch readers adds to it, on
/// the `batch_lod` world (`lod_cloud(5000, 101)`: 16 439 descriptions,
/// 290 525 value tokens). `Pipeline::run` builds the corpus once
/// (`token-pass`: the pass), then `from-corpus` (the slot numbering and
/// the block build, on a fresh corpus each time) beside
/// `matcher-build/from-corpus`; the staged composition builds a corpus
/// inside the block build and another inside `matcher-build/standalone`.
fn bench_token_pass(c: &mut Criterion) {
    let world = generate(&profiles::lod_cloud(5000, 101));
    let ds = &world.dataset;
    let mut group = c.benchmark_group("token-pass");
    group.sample_size(10);
    for threads in [1usize, 2] {
        group.bench_function(format!("lod-5k/threads-{threads}"), |b| {
            b.iter(|| black_box(Corpus::new(ds, TokenKeys::Both, threads)));
        });
    }
    group.bench_function("lod-5k/from-corpus", |b| {
        b.iter_batched(
            || Corpus::new(ds, TokenKeys::Both, 1),
            |corpus| black_box(BlockCollection::from_corpus(&corpus, ErMode::CleanClean, 1)),
            BatchSize::LargeInput,
        );
    });
    group.finish();

    let mut group = c.benchmark_group("matcher-build");
    group.sample_size(10);
    group.bench_function("lod-5k/standalone", |b| {
        b.iter(|| black_box(Matcher::new(ds, MatcherConfig::default())));
    });
    let corpus = Corpus::new(ds, TokenKeys::Both, 1);
    group.bench_function("lod-5k/from-corpus", |b| {
        b.iter(|| black_box(Matcher::from_corpus(&corpus, MatcherConfig::default())));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_blocking,
    bench_blocker_families,
    bench_token_pass
);
criterion_main!(benches);
