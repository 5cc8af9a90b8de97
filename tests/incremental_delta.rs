//! Property suite for the updatable meta-blocking session: after every
//! ingest, a delta-swept [`IncrementalSession`] must be *bit-identical* to
//! a from-scratch [`Session`] over the merged corpus — same input-edge
//! count, same pair order, same f64 weight bits — across every weighting
//! scheme and pruning family, arrival orders, batch sizes, ER modes and
//! thread counts. How much an ingest swept is read off its
//! [`IngestReport`].

mod common;

use common::spec::Spec;
use common::{assert_bit_identical, assert_pairs_bit_identical, SplitMix};
use minoan::blocking::{builders, ErMode};
use minoan::datagen::{generate, profiles, ArrivalOrder, GeneratedWorld};
use minoan::metablocking::{
    locally_invalidatable, ExecutionBackend, IncrementalSession, IngestReport, Perceptron, Pruning,
    Session, WeightingScheme,
};
use minoan::rdf::{DatasetBuilder, EntityId};

/// Every pruning family: the global criteria, both vote rules with the
/// default and an explicit `k`, BLAST and a fixed supervised model.
const FAMILIES: [Pruning; 9] = [
    Pruning::None,
    Pruning::Wep,
    Pruning::Cep(None),
    Pruning::Wnp { reciprocal: false },
    Pruning::Cnp {
        reciprocal: true,
        k: None,
    },
    Pruning::Wnp { reciprocal: true },
    Pruning::Cnp {
        reciprocal: false,
        k: Some(3),
    },
    Pruning::Blast { ratio: 0.35 },
    Pruning::Supervised(Perceptron {
        weights: [0.5, 0.5, 0.5, 0.5, 0.5, -0.5, 0.5],
        bias: -0.5,
    }),
];

fn world(mode: ErMode) -> GeneratedWorld {
    match mode {
        ErMode::CleanClean => generate(&profiles::center_dense(160, 41)),
        ErMode::Dirty => generate(&profiles::dirty_single(160, 41)),
    }
}

/// Ingest `batches` one by one and assert per-batch bit-identity against a
/// from-scratch streaming [`Session`] on the merged corpus.
fn check_stream(
    g: &GeneratedWorld,
    mode: ErMode,
    scheme: WeightingScheme,
    pruning: Pruning,
    batches: &[Vec<EntityId>],
    workers: usize,
    label: &str,
) {
    let mut inc = IncrementalSession::new(&g.dataset, mode);
    inc.scheme(scheme).pruning(pruning).workers(workers);
    for (i, batch) in batches.iter().enumerate() {
        inc.ingest(batch);
        let got = inc.outcome();
        let want = Session::new(&inc.snapshot())
            .scheme(scheme)
            .pruning(pruning)
            .backend(ExecutionBackend::Streaming)
            .workers(workers)
            .run();
        assert_bit_identical(&got.pruned, &want.pruned, &format!("{label}: batch {i}"));
    }
}

/// Every scheme × every family, in both ER modes. The worker count
/// rotates through one, two and four, so that each scheme and each family
/// meets all three.
#[test]
fn delta_sweeps_are_bit_identical_to_from_scratch_sessions() {
    for (m, mode) in [ErMode::CleanClean, ErMode::Dirty].into_iter().enumerate() {
        let g = world(mode);
        let order = ArrivalOrder::Shuffled { seed: 7 };
        let batches = order.batches(&g.dataset, &g.truth, 37);
        for (s, scheme) in WeightingScheme::ALL.into_iter().enumerate() {
            for (f, pruning) in FAMILIES.into_iter().enumerate() {
                let workers = [1, 2, 4][(m + s + f) % 3];
                let label = format!("{mode:?}/{scheme:?}/{pruning:?}/w={workers}");
                check_stream(&g, mode, scheme, pruning, &batches, workers, &label);
            }
        }
    }
}

#[test]
fn every_arrival_order_converges_bit_identically() {
    let mode = ErMode::CleanClean;
    let g = world(mode);
    for order in ArrivalOrder::all(19) {
        let batches = order.batches(&g.dataset, &g.truth, 53);
        check_stream(
            &g,
            mode,
            WeightingScheme::Js,
            Pruning::Wnp { reciprocal: false },
            &batches,
            2,
            &format!("order {}", order.name()),
        );
    }
}

#[test]
fn batch_size_does_not_change_a_bit() {
    let mode = ErMode::Dirty;
    let g = world(mode);
    let order = ArrivalOrder::RoundRobin;
    for batch_size in [1usize, 13, 64, g.dataset.len()] {
        let batches = order.batches(&g.dataset, &g.truth, batch_size);
        check_stream(
            &g,
            mode,
            WeightingScheme::Arcs,
            Pruning::Cnp {
                reciprocal: false,
                k: None,
            },
            &batches,
            2,
            &format!("batch size {batch_size}"),
        );
    }
}

#[test]
fn thread_counts_do_not_change_a_bit() {
    let mode = ErMode::CleanClean;
    let g = world(mode);
    let batches = ArrivalOrder::KbSequential.batches(&g.dataset, &g.truth, 41);
    for workers in [1usize, 2, 4, 8] {
        check_stream(
            &g,
            mode,
            WeightingScheme::Cbs,
            Pruning::Wep,
            &batches,
            workers,
            &format!("workers {workers}"),
        );
    }
}

/// The combinations that once fell back to a from-scratch recompute on
/// every ingest — block-count-normalised ECBS and EJS, and BLAST's
/// per-node thresholds — on a stream of their own: each ingest now
/// delta-sweeps, and the outcome after it is bit-identical to a
/// from-scratch session's.
#[test]
fn unsupported_combinations_fall_back_bit_identically() {
    let mode = ErMode::CleanClean;
    let g = world(mode);
    let batches = ArrivalOrder::Shuffled { seed: 3 }.batches(&g.dataset, &g.truth, 61);
    for (scheme, pruning) in [
        (WeightingScheme::Ecbs, Pruning::Wnp { reciprocal: false }),
        (WeightingScheme::Ejs, Pruning::Wep),
        (WeightingScheme::Cbs, Pruning::blast()),
    ] {
        let label = format!("{scheme:?}/{pruning:?}");
        let mut inc = IncrementalSession::new(&g.dataset, mode);
        inc.scheme(scheme).pruning(pruning).workers(2);
        for (i, batch) in batches.iter().enumerate() {
            let report = inc.ingest(batch);
            assert!(report.delta, "{label}: batch {i} ({report:?})");
            let got = inc.outcome();
            let want = Session::new(&inc.snapshot())
                .scheme(scheme)
                .pruning(pruning)
                .backend(ExecutionBackend::Streaming)
                .workers(2)
                .run();
            assert_bit_identical(&got.pruned, &want.pruned, &format!("{label}: batch {i}"));
        }
    }
}

#[test]
fn final_state_matches_batch_token_blocking() {
    for mode in [ErMode::CleanClean, ErMode::Dirty] {
        let g = world(mode);
        let mut inc = IncrementalSession::new(&g.dataset, mode);
        inc.scheme(WeightingScheme::Js)
            .pruning(Pruning::Wnp { reciprocal: true })
            .workers(2);
        for batch in ArrivalOrder::ClusteredBursts.batches(&g.dataset, &g.truth, 29) {
            inc.ingest(&batch);
        }
        let got = inc.outcome();
        let blocks = builders::token_blocking(&g.dataset, mode);
        let wnp = Pruning::Wnp { reciprocal: true };
        let want = Spec::of(&blocks).run(WeightingScheme::Js, wnp);
        assert_bit_identical(&got.pruned, &want, &format!("{mode:?} final"));
    }
}

/// The structural guard behind the O(batch) ingest: under every scheme ×
/// family each ingest delta-sweeps, and re-sweeps the batch alone when
/// the rows hold count statistics, or the dirty set when they hold ARCS
/// sums (ARCS, and the supervised features built on them) — whatever was
/// resolved in between.
#[test]
fn every_ingest_sweeps_the_batch_or_the_dirty_set() {
    for mode in [ErMode::CleanClean, ErMode::Dirty] {
        let g = world(mode);
        let size = g.dataset.len() / 32;
        let batches = ArrivalOrder::Shuffled { seed: 11 }.batches(&g.dataset, &g.truth, size);
        assert!(batches.len() >= 30, "the guard wants ≥ 30 rounds");
        for scheme in WeightingScheme::ALL {
            for pruning in FAMILIES {
                let label = format!("{mode:?}/{scheme:?}/{pruning:?}");
                let arcs_sums = match pruning {
                    Pruning::Blast { .. } => false,
                    Pruning::Supervised(_) => true,
                    _ => scheme == WeightingScheme::Arcs,
                };
                let mut inc = IncrementalSession::new(&g.dataset, mode);
                inc.scheme(scheme).pruning(pruning).workers(2);
                for batch in &batches {
                    let report = inc.ingest(batch);
                    assert!(report.delta, "{label}: {report:?}");
                    let swept = if arcs_sums {
                        report.dirty_entities
                    } else {
                        batch.len()
                    };
                    assert_eq!(report.swept_entities, swept, "{label}: {report:?}");
                    inc.resolve_entity(batch[0]);
                    inc.resolve_entity(EntityId(0));
                }
            }
        }
    }
}

/// Reads between ingests, the state a served load run leaves: after every
/// batch about an eighth of the arrived entities is resolved. On a sparse
/// periphery world that folds the rows of their neighbourhoods and leaves
/// the others carrying mirror tails into the next ingest (`check_stream`'s
/// per-batch `outcome()` folds every row instead, and so does the first
/// resolve of a version under a global criterion: WEP, CEP, default-`k`
/// CNP). Every answer equals a from-scratch session's at that version,
/// and the final outcome is bit-identical.
#[test]
fn reads_between_ingests_are_bit_identical() {
    let g = generate(&profiles::periphery_sparse(240, 41));
    let batches = ArrivalOrder::Shuffled { seed: 23 }.batches(&g.dataset, &g.truth, 47);
    for mode in [ErMode::CleanClean, ErMode::Dirty] {
        for scheme in WeightingScheme::ALL {
            for pruning in FAMILIES {
                let label = format!("{mode:?}/{scheme:?}/{pruning:?}");
                let mut inc = IncrementalSession::new(&g.dataset, mode);
                inc.scheme(scheme).pruning(pruning).workers(2);
                let mut draws = SplitMix(26);
                let mut arrived = Vec::new();
                for (i, batch) in batches.iter().enumerate() {
                    inc.ingest(batch);
                    arrived.extend_from_slice(batch);
                    let reads: Vec<EntityId> = (0..arrived.len().div_ceil(8))
                        .map(|_| draws.pick(&arrived))
                        .collect();
                    let got: Vec<_> = reads.iter().map(|&e| inc.resolve_entity(e)).collect();
                    // A resolve keeps exactly the full run's pairs incident
                    // to the entity, in the run's order.
                    let fresh = Session::new(&inc.snapshot())
                        .scheme(scheme)
                        .pruning(pruning)
                        .workers(2)
                        .run();
                    for (answer, &e) in got.iter().zip(&reads) {
                        let want: Vec<_> = fresh
                            .pairs()
                            .iter()
                            .filter(|p| p.a == e || p.b == e)
                            .copied()
                            .collect();
                        let at = format!("{label}: batch {i}, entity {}", e.0);
                        assert_pairs_bit_identical(&answer.matches, &want, &at);
                    }
                }
                let got = inc.outcome();
                let want = Session::new(&inc.snapshot())
                    .scheme(scheme)
                    .pruning(pruning)
                    .run();
                assert_bit_identical(&got.pruned, &want.pruned, &format!("{label}: final"));
            }
        }
    }
}

/// Keys interned in non-lexicographic order: `zulu`, `mike`, `alpha` get
/// symbols 0, 1, 2 but sort the other way round as key strings. Entities
/// 0 and 1 share all three blocks, of cardinalities 10, 6 and 1, and
/// `(1/1 + 1/6) + 1/10` differs from `(1/10 + 1/6) + 1/1` in the last
/// bit — so the live view must visit an entity's blocks in key-string
/// order, not symbol order, to stay bit-identical to a batch run.
#[test]
fn live_view_accumulates_arcs_in_key_string_order() {
    let mut b = DatasetBuilder::new();
    let kb = b.add_kb("kb", "http://kb/");
    for (i, value) in [
        "zulu mike alpha",
        "zulu mike alpha",
        "zulu mike",
        "zulu mike",
        "zulu",
    ]
    .iter()
    .enumerate()
    {
        b.add_literal(kb, &format!("http://kb/{i}"), "http://p/label", value);
    }
    let ds = b.build();
    let key_order = (1.0f64 / 1.0 + 1.0 / 6.0) + 1.0 / 10.0;
    let symbol_order = (1.0f64 / 10.0 + 1.0 / 6.0) + 1.0 / 1.0;
    assert_ne!(key_order.to_bits(), symbol_order.to_bits());

    let (scheme, pruning) = (WeightingScheme::Arcs, Pruning::Wnp { reciprocal: false });
    let mut inc = IncrementalSession::new(&ds, ErMode::Dirty);
    inc.scheme(scheme).pruning(pruning);
    // The token pass meets zulu, mike, alpha in that order; entity 0
    // arrives alone, and its blocks must still be visited alpha first.
    for batch in [&[0u32][..], &[1, 2], &[3, 4]] {
        let batch: Vec<EntityId> = batch.iter().map(|&e| EntityId(e)).collect();
        assert!(inc.ingest(&batch).delta);
    }
    let got = inc.outcome();
    let resolved = inc.resolve_entity(EntityId(0));
    for pairs in [got.pairs(), &resolved.matches[..]] {
        let top = pairs
            .iter()
            .find(|p| (p.a, p.b) == (EntityId(0), EntityId(1)))
            .expect("the three-block pair survives WNP");
        assert_eq!(top.weight.to_bits(), key_order.to_bits());
    }
    let blocks = builders::token_blocking(&ds, ErMode::Dirty);
    let want = Session::new(&blocks).scheme(scheme).pruning(pruning).run();
    assert_bit_identical(&got.pruned, &want.pruned, "hand-built key order");
}

/// A periphery world has proprietary vocabularies, so a small tail batch
/// dirties only its own neighbourhood (a center-style world with universal
/// tokens can legitimately dirty everyone): ARCS × WNP re-sweeps exactly
/// the dirty set, a strict subset of the arrived entities.
#[test]
fn a_small_arcs_tail_batch_re_sweeps_a_strict_subset() {
    let g = generate(&profiles::periphery_sparse(220, 17));
    let ids: Vec<EntityId> = g.dataset.entities().collect();
    let (bulk, tail) = ids.split_at(ids.len() - 5);
    let mut inc = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
    inc.scheme(WeightingScheme::Arcs)
        .pruning(Pruning::Wnp { reciprocal: false });
    inc.ingest(bulk);
    let report: IngestReport = inc.ingest(tail);
    assert!(report.delta, "{report:?}");
    assert_eq!(report.swept_entities, report.dirty_entities, "{report:?}");
    assert!(
        report.swept_entities < report.num_arrived,
        "a 5-entity tail must re-sweep a strict subset: {report:?}"
    );
}

/// Every scheme × every family: each ingest after the first delta-sweeps
/// and the outcome stays bit-identical, and where the server invalidates
/// cached answers entry by entry (`locally_invalidatable`), every answer
/// whose dependency set misses the ingest's `last_dirty` report is
/// unchanged. A center world's one big batch dirties nearly everyone. The
/// serve workloads' periphery world, in batches of 5, leaves clean
/// entities whose answer reads a clean neighbour `y`'s row, which a JS
/// block-count change of `y`'s neighbour can still move — so the report
/// must name `y`.
#[test]
fn delta_locality_is_decided_once_for_sessions_and_caches() {
    let dense = generate(&profiles::center_dense(80, 29));
    let mut config = profiles::periphery_sparse(150, 5);
    config.vocab_tokens = 2_000;
    config.zipf_exponent = 0.5;
    let sparse = generate(&config);
    for (g, preload, batch) in [(&dense, 40, 40), (&sparse, 100, 5)] {
        let ids: Vec<EntityId> = g.dataset.entities().collect();
        let (first, rest) = ids.split_at(preload);
        for scheme in WeightingScheme::ALL {
            for pruning in FAMILIES {
                let label = format!("{scheme:?}/{pruning:?}");
                let local = locally_invalidatable(scheme, pruning);
                let mut inc = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
                inc.scheme(scheme).pruning(pruning).workers(2);
                inc.ingest(first);
                for (i, batch) in rest.chunks(batch).enumerate() {
                    let label = format!("{label}, batch {i}");
                    let before: Vec<_> = if local {
                        ids.iter().map(|&e| inc.resolve_entity(e)).collect()
                    } else {
                        Vec::new()
                    };
                    let report = inc.ingest(batch);
                    assert!(report.delta, "{label}: {report:?}");
                    if local {
                        let dirty = inc.last_dirty().to_vec();
                        for old in &before {
                            let e = old.entity;
                            let deps = old.neighbours.iter().map(|&y| EntityId(y));
                            if deps.chain([e]).all(|d| dirty.binary_search(&d).is_err()) {
                                let at = format!("{label}: clean entity {}", e.0);
                                let now = inc.resolve_entity(e);
                                assert_pairs_bit_identical(&now.matches, &old.matches, &at);
                            }
                        }
                    }
                }
                let got = inc.outcome();
                let want = Session::new(&inc.snapshot())
                    .scheme(scheme)
                    .pruning(pruning)
                    .run();
                assert_bit_identical(&got.pruned, &want.pruned, &label);
            }
        }
    }
}
