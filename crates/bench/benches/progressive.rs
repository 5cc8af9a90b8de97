//! Criterion benches for the progressive engine (supports E4/E5).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use minoan_blocking::{builders, filter, purge, ErMode};
use minoan_datagen::{generate, profiles};
use minoan_er::similarity::JaroScratch;
use minoan_er::{
    BenefitModel, Matcher, MatcherConfig, Pipeline, PipelineConfig, ProgressiveResolver,
    ResolverConfig, Strategy,
};
use minoan_metablocking::Session;
use minoan_rdf::EntityId;
use std::hint::black_box;

fn candidates(world: &minoan_datagen::GeneratedWorld) -> Vec<(EntityId, EntityId, f64)> {
    let blocks = builders::token_and_uri_blocking(&world.dataset, ErMode::CleanClean);
    let cleaned = filter::filter(&purge::purge(&blocks).collection);
    // The session defaults: ARCS-weighted WNP on the streaming backend.
    Session::new(&cleaned).run().into_candidates()
}

fn bench_progressive(c: &mut Criterion) {
    let world = generate(&profiles::center_dense(300, 3));
    let pairs = candidates(&world);
    // The comparison kernel alone, over the pairs the engine would compare
    // first: one iteration = the whole candidate list, the rate = pairs/s.
    let mut kernel = c.benchmark_group("matcher");
    kernel.throughput(Throughput::Elements(pairs.len() as u64));
    kernel.bench_function("value_similarity", |b| {
        let matcher = Matcher::new(&world.dataset, MatcherConfig::default());
        let mut scratch = JaroScratch::default();
        b.iter(|| {
            pairs
                .iter()
                .map(|&(x, y, _)| matcher.value_similarity(x, y, &mut scratch))
                .sum::<f64>()
        });
    });
    kernel.finish();

    let mut group = c.benchmark_group("progressive");
    group.sample_size(10);

    group.bench_function("matcher-build", |b| {
        b.iter(|| black_box(Matcher::new(&world.dataset, MatcherConfig::default())));
    });

    let strategies = [
        ("batch", Strategy::Batch),
        ("static", Strategy::StaticBestFirst),
        (
            "progressive/pq",
            Strategy::Progressive(BenefitModel::PairQuantity),
        ),
        (
            "progressive/rel",
            Strategy::Progressive(BenefitModel::RelationshipCompleteness),
        ),
    ];
    for (label, strategy) in strategies {
        group.bench_with_input(BenchmarkId::new("resolve", label), &strategy, |b, &s| {
            b.iter(|| {
                let matcher = Matcher::new(&world.dataset, MatcherConfig::default());
                let resolver = ProgressiveResolver::new(
                    &world.dataset,
                    matcher,
                    ResolverConfig {
                        strategy: s,
                        ..Default::default()
                    },
                );
                black_box(resolver.run(&pairs))
            });
        });
    }

    group.bench_function("full-pipeline", |b| {
        b.iter(|| black_box(Pipeline::new(PipelineConfig::default()).run(&world.dataset)));
    });

    // The resolver alone on a linked cloud, whose update phase discovers
    // candidates: its loop on one thread, and with one comparison worker
    // beside it. The matcher it consumes is built untimed.
    let lod = generate(&profiles::lod_cloud(1500, 11));
    let lod_pairs = candidates(&lod);
    for workers in [1, 2] {
        let pipeline = Pipeline::new(PipelineConfig {
            workers: Some(workers),
            ..Default::default()
        });
        group.bench_with_input(
            BenchmarkId::new("resolve-workers", workers),
            &pipeline,
            |b, pipeline| {
                b.iter_batched(
                    || Matcher::new(&lod.dataset, MatcherConfig::default()),
                    |matcher| pipeline.resolve(&lod.dataset, matcher, &lod_pairs),
                    BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_progressive);
criterion_main!(benches);
