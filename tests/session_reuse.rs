//! Session-reuse equivalence: one [`Session`] swept over all five
//! weighting schemes and all pruning families keeps, run after run,
//! exactly what the specification (`common::spec`) keeps, for every
//! [`ExecutionBackend`] and workers 1/4. That the sweep *reuses* its
//! shared state instead of rebuilding it per run is read off the
//! session's scratch pool by `session.rs`'s unit tests.

use minoan::blocking::{builders, ErMode};
use minoan::metablocking::{ExecutionBackend, Pruning, Session};
use minoan::prelude::*;

mod common;
use common::spec::Spec;
use common::{assert_driver_keeps, assert_sweeps_keep_the_spec, coverage, every_family};
use common::{spec_cases, Driver};

fn fixture() -> BlockCollection {
    let world = generate(&profiles::center_dense(120, 13));
    builders::token_blocking(&world.dataset, ErMode::CleanClean)
}

/// One session swept over all five schemes and all pruning families of
/// [`coverage::families`] (supervised is exercised in its own test — it
/// needs a trained model) is bitwise-equal to the specification, per
/// backend and worker count.
#[test]
fn one_session_sweep_equals_fresh_single_shots() {
    let backends = ExecutionBackend::ALL;
    assert_sweeps_keep_the_spec("sweep", &fixture(), every_family, &backends, &[1, 4]);
}

/// Interleaving backends mid-sweep on a single session (so the cached
/// sweep state crosses backend boundaries) never changes a bit.
#[test]
fn backend_interleaving_on_one_session_is_bit_identical() {
    let blocks = fixture();
    let mut session = Session::new(&blocks);
    session.workers(3);
    let spec = Spec::of(&blocks);
    for (label, (scheme, family), want) in spec_cases(&spec, &every_family(&spec)) {
        session.scheme(scheme).pruning(family);
        for backend in ExecutionBackend::ALL {
            let label = format!("interleaved/{backend:?}/{label}");
            assert_driver_keeps(Driver::Session(session.backend(backend)), &want, &label);
        }
    }
}

/// The supervised family is reachable from every backend through the one
/// entry point, bit-identical to the specification.
#[test]
fn supervised_family_reachable_from_every_backend() {
    let world = generate(&profiles::center_dense(140, 23));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let supervised = Pruning::Supervised(coverage::model(&blocks, &world.truth, 7));
    let want = Spec::of(&blocks).run(WeightingScheme::Arcs, supervised);
    assert!(!want.pairs.is_empty(), "fixture model must keep something");
    for backend in ExecutionBackend::ALL {
        for workers in [1usize, 4] {
            let mut session = Session::new(&blocks);
            session.scheme(WeightingScheme::Arcs).pruning(supervised);
            let driver = Driver::Session(session.backend(backend).workers(workers));
            let label = format!("supervised/{backend:?}/w={workers}");
            assert_driver_keeps(driver, &want, &label);
        }
    }
}
