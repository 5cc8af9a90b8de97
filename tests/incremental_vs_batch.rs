//! Integration: the incremental resolver against the batch pipeline, and
//! the composite rules against the threshold matcher, on shared worlds.
//! Neither is meant to give the batch answer: these tests bound how far
//! each falls from it, and `tests/spec_anchors.rs` pins what each answers
//! as golden digests. The incremental resolver is clean–clean only (a
//! candidate must come from another KB).

use minoan::datagen::ArrivalOrder;
use minoan::er::{CompositeResolver, IncrementalConfig, IncrementalResolver};
use minoan::prelude::*;

#[test]
fn incremental_recall_is_close_to_batch() {
    let world = generate(&profiles::center_dense(300, 31));
    let matcher = Matcher::new(&world.dataset, MatcherConfig::default());
    let mut inc = IncrementalResolver::new(&world.dataset, &matcher, IncrementalConfig::default());
    inc.arrive_all(ArrivalOrder::Shuffled { seed: 31 }.order(&world.dataset, &world.truth));
    let inc_pairs: Vec<_> = inc.matches().iter().map(|&(a, b, _)| (a, b)).collect();
    let inc_q = metrics::match_quality(&world.truth, &inc_pairs);

    let batch = Pipeline::new(PipelineConfig::default()).run(&world.dataset);
    let batch_q = metrics::resolution_quality(&world.truth, &batch.resolution);

    assert!(
        inc_q.recall >= batch_q.recall - 0.12,
        "incremental recall {} too far below batch {}",
        inc_q.recall,
        batch_q.recall
    );
    assert!(
        inc_q.precision > 0.9,
        "incremental precision {}",
        inc_q.precision
    );
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
    let mut max_arrival_comparisons = 0;
    for e in world.dataset.entities() {
        let r = inc.arrive(e);
        max_arrival_comparisons = max_arrival_comparisons.max(r.comparisons);
    }
    assert!(max_arrival_comparisons <= 5, "an arrival burst the budget");
    assert!(inc.comparisons() > 0);
}

/// Every comparison an arrival runs is in its report, the immediate
/// re-checks of pairs its matches linked included: the reports sum to
/// `comparisons()`, one arrival at a time and in batches. The re-checks
/// do not draw on the arrival's budget, so the total stays what it was
/// when the reports left them out.
#[test]
fn arrival_reports_count_every_comparison() {
    let world = generate(&profiles::center_dense(200, 37));
    let matcher = Matcher::new(&world.dataset, MatcherConfig::default());
    let config = IncrementalConfig {
        budget_per_arrival: 5,
        ..Default::default()
    };
    let ids: Vec<EntityId> = world.dataset.entities().collect();
    for (batch, total) in [(1, 259), (8, 274)] {
        let mut inc = IncrementalResolver::new(&world.dataset, &matcher, config);
        let reported: u64 = ids
            .chunks(batch)
            .map(|b| inc.arrive_batch(b).comparisons)
            .sum();
        assert_eq!(reported, inc.comparisons(), "batches of {batch}");
        assert_eq!(inc.comparisons(), total, "batches of {batch}");
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
