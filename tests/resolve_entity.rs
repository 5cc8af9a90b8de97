//! Property suite for query-time resolution: `resolve_entity(e)` on the
//! updatable [`IncrementalSession`] must be *bit-identical* to the
//! incident slice of a full run — the pairs that mention `e` in the
//! outcome of a batch [`Session::run`] over the same arrived
//! descriptions, in the same order, with the same f64 weight bits — for
//! every scheme × pruning family; per-worker identity is asserted
//! in-process.

mod common;

use common::{assert_pairs_bit_identical, incident, session_run};
use minoan::blocking::{builders, ErMode};
use minoan::datagen::{generate, profiles, ArrivalOrder, GeneratedWorld};
use minoan::metablocking::{
    ExecutionBackend, IncrementalSession, Perceptron, Pruning, Session, TrainingSet,
    WeightingScheme,
};
use minoan::rdf::EntityId;

/// Every unsupervised family variant, including explicit-k and BLAST.
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

/// A spread of probe entities: every stride-th id, so the sample hits
/// hubs, leaves and isolated entities across both KBs.
fn probes(n: usize, stride: usize) -> Vec<EntityId> {
    (0..n as u32).step_by(stride.max(1)).map(EntityId).collect()
}

/// A session over `world` that has ingested every description in one
/// batch, under `scheme` × `pruning` at `workers`.
fn ingested(
    world: &GeneratedWorld,
    scheme: WeightingScheme,
    pruning: Pruning,
    workers: usize,
) -> IncrementalSession<'_> {
    let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
    inc.scheme(scheme).pruning(pruning).workers(workers);
    let all: Vec<EntityId> = world.dataset.entities().collect();
    inc.ingest(&all);
    inc
}

#[test]
fn every_family_resolves_bit_identically() {
    let world = generate(&profiles::center_dense(120, 13));
    let n = world.dataset.len();
    for workers in [1usize, 3] {
        for scheme in WeightingScheme::ALL {
            for (fname, family) in family_variants() {
                let mut inc = ingested(&world, scheme, family, workers);
                let snap = inc.snapshot();
                let full = session_run(&snap, scheme, family, ExecutionBackend::Streaming, workers);
                for e in probes(n, 7) {
                    let resolved = inc.resolve_entity(e);
                    assert_eq!(resolved.entity, e);
                    assert_pairs_bit_identical(
                        &resolved.matches,
                        &incident(full.pairs(), e),
                        &format!("{scheme:?}/{fname}/w={workers}/e={}", e.0),
                    );
                }
            }
        }
    }
}

#[test]
fn supervised_resolves_bit_identically() {
    let world = generate(&profiles::center_dense(140, 23));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let set = TrainingSet::sample(
        &mut Session::new(&blocks),
        |a, b| world.truth.is_match(a, b),
        40,
        7,
    );
    let pruning = Pruning::Supervised(Perceptron::train(&set, 12));
    let mut inc = ingested(&world, WeightingScheme::Arcs, pruning, 2);
    let full = Session::new(&inc.snapshot()).pruning(pruning).run();
    assert!(
        !full.pairs().is_empty(),
        "fixture model must keep something"
    );
    for e in probes(world.dataset.len(), 5) {
        let resolved = inc.resolve_entity(e);
        assert_pairs_bit_identical(
            &resolved.matches,
            &incident(full.pairs(), e),
            &format!("supervised/e={}", e.0),
        );
    }
}

/// Scheme switches on one session rebuild the criterion; answers after a
/// switch must match a fresh batch run's.
#[test]
fn scheme_and_pruning_switches_on_one_session_stay_exact() {
    let world = generate(&profiles::center_dense(100, 31));
    let mut inc = ingested(&world, WeightingScheme::Arcs, Pruning::None, 2);
    let snap = inc.snapshot();
    for (scheme, pruning) in [
        (WeightingScheme::Js, Pruning::Wep),
        (WeightingScheme::Js, Pruning::Cep(None)),
        (WeightingScheme::Arcs, Pruning::Cep(None)),
        (
            WeightingScheme::Cbs,
            Pruning::Cnp {
                reciprocal: false,
                k: None,
            },
        ),
    ] {
        inc.scheme(scheme).pruning(pruning);
        let full = session_run(&snap, scheme, pruning, ExecutionBackend::Streaming, 2);
        for e in probes(world.dataset.len(), 11) {
            let resolved = inc.resolve_entity(e);
            assert_pairs_bit_identical(
                &resolved.matches,
                &incident(full.pairs(), e),
                &format!("switch/{scheme:?}/{pruning:?}/e={}", e.0),
            );
        }
    }
}

fn world() -> GeneratedWorld {
    generate(&profiles::center_dense(130, 41))
}

/// After every ingest, the incremental session's answer equals the
/// incident slice of a from-scratch batch [`Session`] run over the merged
/// snapshot — whatever the rows hold and however they are brought up to
/// date.
#[test]
fn incremental_resolves_match_from_scratch_sessions_after_every_batch() {
    let g = world();
    let batches = ArrivalOrder::Shuffled { seed: 7 }.batches(&g.dataset, &g.truth, 33);
    let combos = [
        // Delta row-cache path, locally invalidatable.
        (
            "js/wnp",
            WeightingScheme::Js,
            Pruning::Wnp { reciprocal: false },
        ),
        // Delta path, global criterion.
        ("js/wep", WeightingScheme::Js, Pruning::Wep),
        ("arcs/cep", WeightingScheme::Arcs, Pruning::Cep(None)),
        (
            "cbs/cnp",
            WeightingScheme::Cbs,
            Pruning::Cnp {
                reciprocal: true,
                k: None,
            },
        ),
        // Rows re-weighed on read: |B|, the degrees and |V| move.
        (
            "ecbs/wnp",
            WeightingScheme::Ecbs,
            Pruning::Wnp { reciprocal: true },
        ),
        (
            "ejs/cnp",
            WeightingScheme::Ejs,
            Pruning::Cnp {
                reciprocal: false,
                k: None,
            },
        ),
        ("js/blast", WeightingScheme::Js, Pruning::blast()),
        // ARCS rows, features computed on read.
        (
            "supervised",
            WeightingScheme::Cbs,
            Pruning::Supervised(Perceptron {
                weights: [0.5, 0.5, 0.5, 0.5, 0.5, -0.5, 0.5],
                bias: -0.5,
            }),
        ),
    ];
    for (label, scheme, pruning) in combos {
        for workers in [1usize, 2, 4] {
            let mut inc = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
            inc.scheme(scheme).pruning(pruning).workers(workers);
            for (i, batch) in batches.iter().enumerate() {
                inc.ingest(batch);
                let sample = probes(g.dataset.len(), 17);
                let got: Vec<_> = sample.iter().map(|&e| inc.resolve_entity(e)).collect();
                let snap = inc.snapshot();
                let full =
                    session_run(&snap, scheme, pruning, ExecutionBackend::Streaming, workers);
                for (&e, got) in sample.iter().zip(&got) {
                    assert_pairs_bit_identical(
                        &got.matches,
                        &incident(full.pairs(), e),
                        &format!("{label}/w={workers}/batch={i}/e={}", e.0),
                    );
                }
            }
        }
    }
}

/// Resolving on an empty corpus answers an empty neighbourhood, and the
/// first answer after the first ingest is already exact.
#[test]
fn empty_corpus_resolves_to_nothing() {
    let g = world();
    let mut inc = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
    let resolved = inc.resolve_entity(EntityId(0));
    assert!(resolved.matches.is_empty());
    assert!(resolved.neighbours.is_empty());
    assert_eq!(inc.version(), 0);
}
