//! Session-reuse equivalence: one [`Session`] swept over all five
//! weighting schemes and all pruning families keeps, run after run,
//! exactly what the specification (`common::spec`) keeps, for every
//! [`ExecutionBackend`] and workers 1/4. That the sweep *reuses* its
//! shared state instead of rebuilding it per run is read off the
//! session's scratch pool by `session.rs`'s unit tests.

use minoan::blocking::{builders, ErMode};
use minoan::metablocking::{ExecutionBackend, PrunedComparisons, Pruning, Session};
use minoan::prelude::*;

mod common;
use common::spec::Spec;
use common::{assert_outcome_bit_identical, assert_pairs_bit_identical, coverage, session_run};

fn fixture() -> (BlockCollection, Spec) {
    let world = generate(&profiles::center_dense(120, 13));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let spec = Spec::of(&blocks);
    (blocks, spec)
}

/// What the specification keeps for every scheme × family of
/// [`coverage::families`] (supervised is exercised in its own test — it
/// needs a trained model), labelled.
fn expected(spec: &Spec) -> Vec<(String, WeightingScheme, Pruning, PrunedComparisons)> {
    let mut cases = Vec::new();
    for scheme in WeightingScheme::ALL {
        for (label, family) in coverage::families(spec.num_edges()) {
            let expect = spec.run(scheme, family);
            cases.push((format!("{scheme:?}/{label}"), scheme, family, expect));
        }
    }
    cases
}

/// One session swept over all five schemes and all pruning families is
/// bitwise-equal to the specification, per backend and worker count.
#[test]
fn one_session_sweep_equals_fresh_single_shots() {
    let (blocks, spec) = fixture();
    let cases = expected(&spec);
    for backend in ExecutionBackend::ALL {
        for workers in [1usize, 4] {
            let mut session = Session::new(&blocks);
            session.backend(backend).workers(workers);
            for (label, scheme, family, expect) in &cases {
                let out = session.scheme(*scheme).pruning(*family).run();
                let label = format!("{backend:?}/{label}/w={workers}");
                assert_outcome_bit_identical(&out, expect, &label);
            }
        }
    }
}

/// Interleaving backends mid-sweep on a single session (so the cached
/// sweep state crosses backend boundaries) never changes a bit.
#[test]
fn backend_interleaving_on_one_session_is_bit_identical() {
    let (blocks, spec) = fixture();
    let mut session = Session::new(&blocks);
    session.workers(3);
    for (label, scheme, family, expect) in expected(&spec) {
        session.scheme(scheme).pruning(family);
        for backend in ExecutionBackend::ALL {
            let out = session.backend(backend).run();
            let label = format!("interleaved/{backend:?}/{label}");
            assert_pairs_bit_identical(out.pairs(), &expect.pairs, &label);
        }
    }
}

/// The supervised family is reachable from every backend through the one
/// entry point, bit-identical to the specification.
#[test]
fn supervised_family_reachable_from_every_backend() {
    let world = generate(&profiles::center_dense(140, 23));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let model = coverage::model(&blocks, &world.truth, 7);
    let expect = Spec::of(&blocks).run(WeightingScheme::Arcs, Pruning::Supervised(model));
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
