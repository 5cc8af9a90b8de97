//! Session-reuse equivalence: one [`Session`] swept over all five
//! weighting schemes and all pruning families must be bitwise-equal to
//! fresh single-shot runs of the materialised reference bodies, for every
//! [`ExecutionBackend`] and workers 1/4 — and the sweep must *reuse* the
//! expensive shared state instead of rebuilding it per run, asserted via
//! the [`probe`] build/allocation counters.
//!
//! Every test takes the file-local probe lock: the counters are
//! process-global, so the measured regions must not interleave.

use minoan::blocking::{builders, ErMode};
use minoan::metablocking::{
    probe, supervised_prune, BlockingGraph, ExecutionBackend, FeatureExtractor, Perceptron,
    Pruning, Session, TrainingSet,
};
use minoan::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

mod common;
use common::{assert_outcome_bit_identical, assert_pairs_bit_identical, reference, session_run};

fn probe_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

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
    let _guard = probe_lock();
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
    let _guard = probe_lock();
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
    let _guard = probe_lock();
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

/// The acceptance probe: a five-scheme sweep through one materialised
/// session performs exactly one CSR build (fresh sessions would build
/// five times), and further family runs still add none.
#[test]
fn five_scheme_materialised_sweep_builds_csr_exactly_once() {
    let _guard = probe_lock();
    let world = generate(&profiles::center_dense(100, 3));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);

    let before = probe::csr_builds();
    let mut session = Session::new(&blocks);
    session.pruning(Pruning::Wnp { reciprocal: false });
    for scheme in WeightingScheme::ALL {
        session.scheme(scheme).run();
    }
    assert_eq!(
        probe::csr_builds() - before,
        1,
        "five schemes through one session = one CSR build"
    );
    for family in Pruning::FAMILIES {
        session.pruning(family).run();
    }
    assert_eq!(
        probe::csr_builds() - before,
        1,
        "family sweep reuses the same graph"
    );

    // Contrast: fresh single-shot sessions rebuild per call.
    let fresh_before = probe::csr_builds();
    for scheme in WeightingScheme::ALL {
        Session::new(&blocks)
            .scheme(scheme)
            .pruning(Pruning::Wnp { reciprocal: false })
            .run();
    }
    assert_eq!(
        probe::csr_builds() - fresh_before,
        5,
        "fresh sessions build once each"
    );
}

/// The acceptance probe, streaming arm: a full scheme × family sweep at
/// one worker performs exactly one scratch allocation and zero CSR
/// builds.
#[test]
fn streaming_sweep_allocates_exactly_one_scratch_at_one_worker() {
    let _guard = probe_lock();
    let world = generate(&profiles::center_dense(100, 5));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);

    let builds_before = probe::csr_builds();
    let allocs_before = probe::scratch_allocs();
    let mut session = Session::new(&blocks);
    session.backend(ExecutionBackend::Streaming).workers(1);
    for scheme in WeightingScheme::ALL {
        session.scheme(scheme);
        for family in Pruning::FAMILIES {
            session.pruning(family).run();
        }
    }
    assert_eq!(
        probe::scratch_allocs() - allocs_before,
        1,
        "the whole streaming sweep reuses one pooled scratch"
    );
    assert_eq!(
        probe::csr_builds() - builds_before,
        0,
        "the streaming backend never builds the CSR graph"
    );
}

/// MapReduce runs draw scratches from the same session pool: across a
/// five-scheme sweep the pool never exceeds the engine's concurrency,
/// instead of allocating per job.
#[test]
fn mapreduce_sweep_bounds_scratch_allocations_by_worker_count() {
    let _guard = probe_lock();
    let world = generate(&profiles::center_dense(100, 7));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);

    let workers = 2usize;
    let allocs_before = probe::scratch_allocs();
    let mut session = Session::new(&blocks);
    session
        .backend(ExecutionBackend::MapReduce)
        .workers(workers)
        .pruning(Pruning::Wnp { reciprocal: false });
    for scheme in WeightingScheme::ALL {
        session.scheme(scheme).run();
    }
    let delta = probe::scratch_allocs() - allocs_before;
    assert!(delta >= 1, "at least one scratch must exist");
    assert!(
        delta <= workers,
        "a {workers}-worker sweep may allocate at most {workers} scratches, got {delta}"
    );
}
