//! Integration: the advanced blocker families feed the standard
//! meta-blocking + progressive-matching stack unchanged, and the fuzzy
//! families recover matches that exact token blocking misses.

use minoan::blocking::{pair_intersection, union, BlockingWorkflow, LshConfig, Method};
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
        let blocks = method.run(&world.dataset, ErMode::CleanClean);
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
            "{}: precision {} too low",
            method.name(),
            q.precision
        );
    }
}

#[test]
fn union_workflow_dominates_single_methods_on_recall() {
    let world = generate(&profiles::periphery_sparse(250, 53));
    let token = Method::Token.run(&world.dataset, ErMode::CleanClean);
    let lsh = Method::MinHashLsh(LshConfig::default()).run(&world.dataset, ErMode::CleanClean);
    let both = union(&world.dataset, ErMode::CleanClean, &[&token, &lsh]);

    let pc = |blocks: &BlockCollection| {
        let pairs = blocks.distinct_pairs();
        let found = pairs
            .iter()
            .filter(|&&(a, b)| world.truth.is_match(a, b))
            .count();
        found as f64 / world.truth.matching_pairs() as f64
    };
    assert!(pc(&both) >= pc(&token) - 1e-12);
    assert!(pc(&both) >= pc(&lsh) - 1e-12);
}

#[test]
fn intersection_raises_precision() {
    let world = generate(&profiles::center_dense(200, 57));
    let token = Method::Token.run(&world.dataset, ErMode::CleanClean);
    let qg = Method::QGrams(3).run(&world.dataset, ErMode::CleanClean);
    let inter = pair_intersection(&[&token, &qg]);
    let token_pairs = token.distinct_pairs();
    let density = |pairs: &[(EntityId, EntityId)]| {
        if pairs.is_empty() {
            return 0.0;
        }
        pairs
            .iter()
            .filter(|&&(a, b)| world.truth.is_match(a, b))
            .count() as f64
            / pairs.len() as f64
    };
    assert!(
        density(&inter) >= density(&token_pairs),
        "intersection should concentrate matches: {} vs {}",
        density(&inter),
        density(&token_pairs)
    );
}

#[test]
fn workflow_feeds_supervised_metablocking_end_to_end() {
    let world = generate(&profiles::center_periphery(200, 59));
    let (blocks, report) = BlockingWorkflow::new(Method::TokenAndUri)
        .with_purging()
        .with_filtering(0.8)
        .run(&world.dataset, ErMode::CleanClean);
    assert!(report.final_comparisons() > 0);

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
