//! Criterion micro-benchmarks of the incremental resolver: per-arrival
//! cost across arrival orders (E11's latency companion), the
//! `serve_churn` session's setup, its writer's ingest with and without
//! reads between ingests, the reads that follow an ingest, and every
//! arrived entity resolved once after the preload.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use minoan_blocking::builders::TokenKeys;
use minoan_blocking::{Corpus, ErMode};
use minoan_datagen::{generate, profiles, ArrivalOrder};
use minoan_er::{IncrementalConfig, IncrementalResolver, Matcher, MatcherConfig};
use minoan_metablocking::{IncrementalSession, Pruning, WeightingScheme};
use minoan_rdf::{Dataset, EntityId};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;

fn bench_arrivals(c: &mut Criterion) {
    let world = generate(&profiles::center_dense(300, 42));
    let corpus = Arc::new(Corpus::new(&world.dataset, TokenKeys::Values, 1));
    let matcher = Matcher::from_corpus(&corpus, MatcherConfig::default());
    for order in [
        ArrivalOrder::Shuffled { seed: 7 },
        ArrivalOrder::KbSequential,
    ] {
        let stream = order.order(&world.dataset, &world.truth);
        c.bench_function(format!("incremental/full stream ({})", order.name()), |b| {
            b.iter_batched(
                || {
                    let config = IncrementalConfig::default();
                    IncrementalResolver::from_corpus(Arc::clone(&corpus), &matcher, config)
                },
                |mut resolver| {
                    resolver.arrive_all(stream.iter().copied());
                    resolver.arrived_count()
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_composite_rules(c: &mut Criterion) {
    use minoan_blocking::ErMode;
    use minoan_er::CompositeResolver;
    let world = generate(&profiles::center_dense(300, 42));
    let pairs = minoan_bench::candidate_pairs_public(&world, ErMode::CleanClean);
    let matcher = Matcher::new(&world.dataset, MatcherConfig::default());
    c.bench_function("rules/composite resolver 300 entities", |b| {
        b.iter(|| {
            CompositeResolver::new(&world.dataset, &matcher)
                .run(&pairs)
                .matches
                .len()
        })
    });
}

/// A JS × WNP session fed `order` in 64-description batches after
/// preloading its first two thirds.
struct Feed<'d> {
    session: IncrementalSession<'d>,
    /// `order[..arrived]` has been ingested.
    arrived: usize,
}

impl<'d> Feed<'d> {
    fn new(dataset: &'d Dataset, order: &[EntityId]) -> Self {
        let arrived = order.len() * 667 / 1000;
        let corpus = Arc::new(Corpus::new(dataset, TokenKeys::Values, 1));
        let mut session = IncrementalSession::from_corpus(corpus, ErMode::CleanClean);
        session
            .scheme(WeightingScheme::Js)
            .pruning(Pruning::Wnp { reciprocal: false })
            .workers(1);
        session.ingest(&order[..arrived]);
        Self { session, arrived }
    }
}

/// The ledger's `serve_churn` session in miniature — its 20k-entity world
/// (two periphery KBs, the harness's flattened vocabulary), two thirds
/// preloaded, JS × WNP on one worker (the serve workloads pin one CPU),
/// 64-description batches.
///
/// * `ingest-64/{back-to-back,after-250-resolves}` time the writer's
///   ingest. The second row first resolves 250 uniformly drawn arrived
///   entities, untimed: the reads one 250 ms writer interval at
///   1000 req/s puts between two ingests, which leave rows folded.
/// * `setup/preload` times `Feed::new`: the session's construction — the
///   universe corpus, its token pass on the one worker — plus the
///   two-thirds preload ingest.
/// * `resolve-64/after-ingest` times the readers: each iteration ingests
///   the next batch, untimed, then resolves 64 uniformly drawn arrived
///   entities — the first reads of a version, which fold the mirror tails
///   and re-weigh the stale rows they load.
/// * `resolve-all/after-preload` resolves every preloaded entity once, in
///   id order, on a fresh session (built untimed): all of one version's
///   cold resolves, as `serve_hot`'s cache warm-up runs them, without the
///   socket.
fn bench_serve_churn(c: &mut Criterion) {
    let mut config = profiles::periphery_sparse(20_000, 11);
    config.num_types = 400;
    config.vocab_tokens = 160_000;
    config.zipf_exponent = 0.5;
    let world = generate(&config);
    let mut order: Vec<EntityId> = world.dataset.entities().collect();
    order.shuffle(&mut StdRng::seed_from_u64(11));

    let mut group = c.benchmark_group("setup");
    group.sample_size(10);
    group.bench_function("preload", |b| {
        b.iter(|| Feed::new(&world.dataset, &order).arrived)
    });
    group.finish();

    let mut group = c.benchmark_group("ingest-64");
    group.sample_size(10);
    for (id, reads) in [("back-to-back", 0), ("after-250-resolves", 250)] {
        group.bench_function(id, |b| {
            let feed = RefCell::new(Feed::new(&world.dataset, &order));
            let mut rng = StdRng::seed_from_u64(701);
            b.iter_batched(
                || {
                    let mut feed = feed.borrow_mut();
                    if feed.arrived + 64 > order.len() {
                        *feed = Feed::new(&world.dataset, &order);
                    }
                    for _ in 0..reads {
                        let e = order[rng.gen_range(0..feed.arrived)];
                        black_box(feed.session.resolve_entity(e));
                    }
                    feed.arrived += 64;
                    &order[feed.arrived - 64..feed.arrived]
                },
                |batch| feed.borrow_mut().session.ingest(batch),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();

    let mut group = c.benchmark_group("resolve-64");
    group.sample_size(10);
    group.bench_function("after-ingest", |b| {
        let feed = RefCell::new(Feed::new(&world.dataset, &order));
        let mut rng = StdRng::seed_from_u64(702);
        b.iter_batched(
            || {
                let mut feed = feed.borrow_mut();
                if feed.arrived + 64 > order.len() {
                    *feed = Feed::new(&world.dataset, &order);
                }
                feed.arrived += 64;
                let arrived = feed.arrived;
                feed.session.ingest(&order[arrived - 64..arrived]);
                (0..64)
                    .map(|_| order[rng.gen_range(0..arrived)])
                    .collect::<Vec<_>>()
            },
            |draws| {
                let mut feed = feed.borrow_mut();
                for e in draws {
                    black_box(feed.session.resolve_entity(e));
                }
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();

    let mut group = c.benchmark_group("resolve-all");
    group.sample_size(10);
    group.bench_function("after-preload", |b| {
        // Holds the session between setup and routine, so that dropping
        // it is not timed.
        let feed = RefCell::new(None);
        b.iter_batched(
            || {
                let fresh = Feed::new(&world.dataset, &order);
                let mut arrived = order[..fresh.arrived].to_vec();
                arrived.sort_unstable();
                *feed.borrow_mut() = Some(fresh);
                arrived
            },
            |arrived| {
                let mut feed = feed.borrow_mut();
                let session = &mut feed.as_mut().expect("set up").session;
                for e in arrived {
                    black_box(session.resolve_entity(e));
                }
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_arrivals,
    bench_composite_rules,
    bench_serve_churn
);
criterion_main!(benches);
