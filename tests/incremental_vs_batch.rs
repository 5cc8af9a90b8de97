//! Integration: the incremental resolver against the batch pipeline, and
//! the composite rules against the threshold matcher, on shared worlds.
//! The incremental resolver drives the batch engine's own loop: fed
//! every entity in one batch at an unbounded budget it is the batch run
//! over the pairs it seeds, bit for bit; fed a stream under a budget it
//! is not the batch answer, and these tests bound how far it falls from
//! it. `tests/spec_anchors.rs` checks every stream against the
//! resolution specification (`common::resolve_spec::arrivals`) and pins
//! it. The incremental resolver is clean–clean only (a candidate must
//! come from another KB).

mod common;

use common::{assert_same_resolution, coverage, resolve_spec, value_keys};
use minoan::datagen::ArrivalOrder;
use minoan::er::{CompositeResolver, IncrementalConfig, IncrementalResolver};
use minoan::prelude::*;

/// One loop, two drivers: every entity arriving in one batch, at an
/// unbounded budget and under unique mapping, gives the trace, matches
/// and clusters of `ProgressiveResolver::run` over the `(a, b, cbs)`
/// list the batch seeds, on the clean–clean resolution worlds.
#[test]
fn one_batch_of_every_entity_is_the_batch_run() {
    for seed in [7u64, 19] {
        for (world, g, _) in coverage::resolution_worlds(seed) {
            if world == "dirty" {
                continue;
            }
            let dataset = &g.dataset;
            let matcher = Matcher::new(dataset, MatcherConfig::default());
            let config = IncrementalConfig {
                budget_per_arrival: u64::MAX,
                unique_mapping: true,
            };
            let mut inc = IncrementalResolver::new(dataset, &matcher, config);
            let all: Vec<EntityId> = dataset.entities().collect();
            inc.arrive_batch(&all);

            let keys = value_keys(dataset);
            let arrived = vec![true; dataset.len()];
            let seeded: Vec<_> = all
                .iter()
                .flat_map(|&e| resolve_spec::candidates(dataset, &keys, &arrived, e))
                .collect();
            let batch = ProgressiveResolver::new(
                dataset,
                Matcher::new(dataset, MatcherConfig::default()),
                ResolverConfig {
                    unique_mapping: true,
                    ..Default::default()
                },
            )
            .run(&seeded);
            assert!(!batch.matches.is_empty(), "{world}/{seed}");
            assert_same_resolution(&inc.resolution(), &batch, &format!("{world}/{seed}"));
        }
    }
}

#[test]
fn incremental_recall_is_close_to_batch() {
    let worlds = [
        ("center", profiles::center_dense(300, 31)),
        ("lod", profiles::lod_cloud(300, 31)),
        ("periphery", profiles::periphery_sparse(300, 31)),
    ];
    for (name, config) in worlds {
        let world = generate(&config);
        let matcher = Matcher::new(&world.dataset, MatcherConfig::default());
        let mut inc =
            IncrementalResolver::new(&world.dataset, &matcher, IncrementalConfig::default());
        inc.arrive_all(ArrivalOrder::Shuffled { seed: 31 }.order(&world.dataset, &world.truth));
        let res = inc.resolution();
        let inc_pairs: Vec<_> = res.matches.iter().map(|&(a, b, _)| (a, b)).collect();
        let inc_q = metrics::match_quality(&world.truth, &inc_pairs);

        let batch = Pipeline::new(PipelineConfig::default()).run(&world.dataset);
        let batch_q = metrics::resolution_quality(&world.truth, &batch.resolution);

        assert!(
            inc_q.recall >= batch_q.recall - 0.12,
            "{name}: incremental recall {} too far below batch {}",
            inc_q.recall,
            batch_q.recall
        );
        assert!(
            inc_q.precision >= 0.9,
            "{name}: incremental precision {}",
            inc_q.precision
        );
    }
}

#[test]
fn incremental_work_is_spread_across_arrivals() {
    let world = generate(&profiles::center_dense(200, 37));
    let matcher = Matcher::new(&world.dataset, MatcherConfig::default());
    let config = IncrementalConfig {
        budget_per_arrival: 5,
        ..Default::default()
    };
    let mut inc = IncrementalResolver::new(&world.dataset, &matcher, config);
    let mut at_budget = 0;
    for e in world.dataset.entities() {
        let r = inc.arrive(e);
        assert!(r.comparisons <= 5, "an arrival overran its slice: {r:?}");
        at_budget += usize::from(r.comparisons == 5);
    }
    assert!(at_budget > 0, "no arrival used its whole slice");
}

/// Every comparison a batch of arrivals runs is in its report, so the
/// reports sum to the resolution's comparisons, one arrival at a time and in batches,
/// and each slice is at most `k × budget` for `k` fresh arrivals.
#[test]
fn arrival_reports_count_every_comparison() {
    let world = generate(&profiles::center_dense(200, 37));
    let matcher = Matcher::new(&world.dataset, MatcherConfig::default());
    let config = IncrementalConfig {
        budget_per_arrival: 5,
        ..Default::default()
    };
    let ids: Vec<EntityId> = world.dataset.entities().collect();
    for (batch, total) in [(1, 383), (8, 375)] {
        let mut inc = IncrementalResolver::new(&world.dataset, &matcher, config);
        let mut reported = 0;
        for arrivals in ids.chunks(batch) {
            let r = inc.arrive_batch(arrivals);
            assert!(r.comparisons <= 5 * arrivals.len() as u64, "{r:?}");
            reported += r.comparisons;
        }
        let comparisons = inc.resolution().comparisons;
        assert_eq!(reported, comparisons, "batches of {batch}");
        assert_eq!(comparisons, total, "batches of {batch}");
    }
}

#[test]
fn composite_rules_and_threshold_matcher_agree_on_centers() {
    let world = generate(&profiles::center_dense(250, 41));
    let blocks = builders::token_and_uri_blocking(&world.dataset, ErMode::CleanClean);
    let cleaned = filter::filter(&purge::purge(&blocks).collection);
    // ARCS × WNP candidates, the session defaults.
    let pairs = Session::new(&cleaned).run().into_candidates();

    let matcher = Matcher::new(&world.dataset, MatcherConfig::default());
    let rules = CompositeResolver::new(&world.dataset, &matcher).run(&pairs);
    let rule_pairs: Vec<_> = rules.matches.iter().map(|m| (m.a, m.b)).collect();
    let rules_q = metrics::match_quality(&world.truth, &rule_pairs);

    let threshold = ProgressiveResolver::new(
        &world.dataset,
        Matcher::new(&world.dataset, MatcherConfig::default()),
        ResolverConfig::default(),
    )
    .run(&pairs);
    let threshold_q = metrics::resolution_quality(&world.truth, &threshold);

    // Both approaches should be strong; the rules trade a little recall
    // for tuning-free precision.
    assert!(
        rules_q.precision >= 0.9,
        "rules precision {}",
        rules_q.precision
    );
    assert!(
        threshold_q.precision >= 0.9,
        "threshold precision {}",
        threshold_q.precision
    );
    assert!(
        rules_q.recall >= threshold_q.recall * 0.6,
        "rules recall collapsed: {} vs {}",
        rules_q.recall,
        threshold_q.recall
    );
}

#[test]
fn oracle_headroom_brackets_the_real_engine() {
    use minoan::er::{oracle, Trace};
    let world = generate(&profiles::center_dense(200, 43));
    let blocks = builders::token_and_uri_blocking(&world.dataset, ErMode::CleanClean);
    let cleaned = filter::filter(&purge::purge(&blocks).collection);
    // ARCS × WNP candidates, the session defaults.
    let pairs = Session::new(&cleaned).run().into_candidates();
    let truth = &world.truth;

    let perfect = oracle::perfect_trace(&pairs, |a, b| truth.is_match(a, b), u64::MAX);
    let real = ProgressiveResolver::new(
        &world.dataset,
        Matcher::new(&world.dataset, MatcherConfig::default()),
        ResolverConfig::default(),
    )
    .run(&pairs);

    let matches_at = |t: &Trace, budget: u64| {
        t.steps()
            .iter()
            .filter(|s| s.comparison <= budget && s.matched)
            .count()
    };
    let budget = (pairs.len() / 4) as u64;
    assert!(
        matches_at(&real.trace, budget) <= matches_at(&perfect, budget),
        "no schedule can beat the oracle ceiling"
    );
    let efficiency = oracle::schedule_efficiency(&real.trace, &perfect, budget);
    assert!(
        efficiency > 0.5,
        "progressive scheduling should realise most of the oracle headroom: {efficiency}"
    );
}
