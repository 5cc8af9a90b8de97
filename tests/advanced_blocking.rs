//! Integration: the advanced blocker families, and block cleaning, feed
//! the standard meta-blocking + progressive-matching stack unchanged.

use minoan::blocking::{LshConfig, Method};
use minoan::metablocking::{blast, Perceptron, TrainingSet};
use minoan::prelude::*;

#[test]
fn every_method_composes_with_metablocking_and_matching() {
    let world = generate(&profiles::center_dense(150, 51));
    let methods = [
        Method::Token,
        Method::QGrams(3),
        Method::SortedNeighborhood(4),
        Method::MinHashLsh(LshConfig::default()),
    ];
    for method in methods {
        let blocks = method.run(&world.dataset, ErMode::CleanClean, 2);
        // ARCS × WNP candidates, the session defaults.
        let pairs = Session::new(&blocks).run().into_candidates();
        let res = ProgressiveResolver::new(
            &world.dataset,
            Matcher::new(&world.dataset, MatcherConfig::default()),
            ResolverConfig::default(),
        )
        .run(&pairs);
        let q = metrics::resolution_quality(&world.truth, &res);
        assert!(
            q.precision > 0.85,
            "{method:?}: precision {} too low",
            q.precision
        );
    }
}

#[test]
fn workflow_feeds_supervised_metablocking_end_to_end() {
    let world = generate(&profiles::center_periphery(200, 59));
    let raw = Method::TokenAndUri.run(&world.dataset, ErMode::CleanClean, 2);
    let purged = purge::purge(&raw).collection;
    let blocks = filter::filter_with(&purged, 0.8);
    assert!(blocks.total_comparisons() > 0);
    assert!(blocks.total_comparisons() <= purged.total_comparisons());
    assert!(purged.total_comparisons() <= raw.total_comparisons());

    // Supervised pruning trained on a 40/class sample.
    let mut session = Session::new(&blocks);
    let truth = &world.truth;
    let set = TrainingSet::sample(&mut session, |a, b| truth.is_match(a, b), 40, 59);
    let model = Perceptron::train(&set, 10);

    // Supervised pruning, and BLAST pruning, unsupervised.
    for (name, pruning) in [
        ("supervised", Pruning::Supervised(model)),
        (
            "blast",
            Pruning::Blast {
                ratio: blast::DEFAULT_RATIO,
            },
        ),
    ] {
        let pruned = session.pruning(pruning).run();
        assert!(!pruned.pairs().is_empty(), "{name} kept nothing");
        assert!(pruned.pairs().len() <= pruned.input_edges());
        let pairs = pruned.into_candidates();
        let res = ProgressiveResolver::new(
            &world.dataset,
            Matcher::new(&world.dataset, MatcherConfig::default()),
            ResolverConfig::default(),
        )
        .run(&pairs);
        let q = metrics::resolution_quality(&world.truth, &res);
        assert!(q.precision > 0.8, "{name}: precision {}", q.precision);
    }
}
