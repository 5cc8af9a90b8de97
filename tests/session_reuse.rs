//! Session-reuse equivalence: one [`Session`] swept over all five
//! weighting schemes and all pruning families must be bitwise-equal to
//! fresh single-shot runs of the materialised reference bodies, for every
//! [`ExecutionBackend`] and workers 1/4 — and the sweep must *reuse* the
//! expensive shared state instead of rebuilding it per run, read off the
//! session's own graph (its scratch pool is checked by `session.rs`'s
//! unit tests).

use minoan::blocking::{builders, ErMode};
use minoan::metablocking::{
    supervised_prune, BlockingGraph, ExecutionBackend, FeatureExtractor, Perceptron, Pruning,
    Session, TrainingSet,
};
use minoan::prelude::*;

mod common;
use common::{assert_outcome_bit_identical, assert_pairs_bit_identical, reference, session_run};

fn fixture() -> (BlockCollection, BlockingGraph) {
    let world = generate(&profiles::center_dense(120, 13));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let graph = BlockingGraph::build(&blocks);
    (blocks, graph)
}

/// The family variants the sweep covers (supervised is exercised in its
/// own test — it needs a trained model).
fn family_variants() -> Vec<(&'static str, Pruning)> {
    vec![
        ("none", Pruning::None),
        ("wep", Pruning::Wep),
        ("cep/default", Pruning::Cep(None)),
        ("cep/9", Pruning::Cep(Some(9))),
        ("wnp", Pruning::Wnp { reciprocal: false }),
        ("wnp/recip", Pruning::Wnp { reciprocal: true }),
        (
            "cnp/default",
            Pruning::Cnp {
                reciprocal: false,
                k: None,
            },
        ),
        (
            "cnp/3-recip",
            Pruning::Cnp {
                reciprocal: true,
                k: Some(3),
            },
        ),
        ("blast", Pruning::blast()),
    ]
}

/// One session swept over all five schemes and all pruning families is
/// bitwise-equal to fresh single-shot runs, per backend and worker count.
#[test]
fn one_session_sweep_equals_fresh_single_shots() {
    let (blocks, graph) = fixture();
    for backend in ExecutionBackend::ALL {
        for workers in [1usize, 4] {
            let mut session = Session::new(&blocks);
            session.backend(backend).workers(workers);
            for scheme in WeightingScheme::ALL {
                session.scheme(scheme);
                for (fname, family) in family_variants() {
                    let out = session.pruning(family).run();
                    let expect = reference(&graph, scheme, family).pairs;
                    assert_pairs_bit_identical(
                        out.pairs(),
                        &expect,
                        &format!("{backend:?}/{scheme:?}/{fname}/w={workers}"),
                    );
                    assert_eq!(
                        out.input_edges(),
                        graph.num_edges(),
                        "{backend:?}/{scheme:?}/{fname}/w={workers}: input_edges"
                    );
                }
            }
        }
    }
}

/// Interleaving backends mid-sweep on a single session (so the cached
/// sweep state crosses backend boundaries) never changes a bit.
#[test]
fn backend_interleaving_on_one_session_is_bit_identical() {
    let (blocks, graph) = fixture();
    let mut session = Session::new(&blocks);
    session.workers(3);
    for scheme in WeightingScheme::ALL {
        session.scheme(scheme);
        for (fname, family) in family_variants() {
            session.pruning(family);
            let expect = reference(&graph, scheme, family).pairs;
            for backend in [
                ExecutionBackend::Streaming,
                ExecutionBackend::MapReduce,
                ExecutionBackend::Materialized,
            ] {
                let out = session.backend(backend).run();
                assert_pairs_bit_identical(
                    out.pairs(),
                    &expect,
                    &format!("interleaved/{backend:?}/{scheme:?}/{fname}"),
                );
            }
        }
    }
}

/// The supervised family is reachable from every backend through the one
/// entry point, bit-identical to the materialised `supervised_prune`.
#[test]
fn supervised_family_reachable_from_every_backend() {
    let world = generate(&profiles::center_dense(140, 23));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let graph = BlockingGraph::build(&blocks);
    let extractor = FeatureExtractor::fit(&graph);
    let set = TrainingSet::sample(&graph, &extractor, |a, b| world.truth.is_match(a, b), 40, 7);
    let model = Perceptron::train(&set, 12);
    let expect = supervised_prune(&graph, &model);
    assert!(
        !expect.pairs.is_empty(),
        "fixture model must keep something"
    );
    for backend in ExecutionBackend::ALL {
        for workers in [1usize, 4] {
            let out = session_run(
                &blocks,
                WeightingScheme::Arcs,
                Pruning::Supervised(model),
                backend,
                workers,
            );
            assert_outcome_bit_identical(
                &out,
                &expect,
                &format!("supervised/{backend:?}/w={workers}"),
            );
        }
    }
}

/// A five-scheme sweep through one materialised session builds the CSR
/// graph once, and a family sweep after it reuses the same graph. Read
/// off the session: a rebuild allocates the new edge slab while the old
/// one is still alive, so it cannot land on the same address.
#[test]
fn five_scheme_materialised_sweep_builds_csr_exactly_once() {
    let world = generate(&profiles::center_dense(100, 3));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let mut session = Session::new(&blocks);
    session.pruning(Pruning::Wnp { reciprocal: false }).run();
    let slab = session.graph().edges().as_ptr_range();
    assert!(!slab.is_empty(), "the fixture has edges");
    for scheme in WeightingScheme::ALL {
        session.scheme(scheme).run();
    }
    assert_eq!(
        session.graph().edges().as_ptr_range(),
        slab,
        "five schemes through one session = one CSR build"
    );
    for family in Pruning::FAMILIES {
        session.pruning(family).run();
    }
    assert_eq!(
        session.graph().edges().as_ptr_range(),
        slab,
        "family sweep reuses the same graph"
    );
}
