//! Cross-crate consistency of the MapReduce formulations: the parallel
//! blocking and meta-blocking implementations must produce results
//! identical to their serial counterparts at any worker count.
//!
//! The heart of the suite is the full equivalence matrix: every weighting
//! scheme × every pruning family (WNP, CNP, WEP, CEP, BLAST; reciprocal
//! variants included) × workers {1, 3, 8} on every named world of the
//! coverage list (`common::coverage`), asserting the entity-partitioned
//! MapReduce backend keeps exactly what the specification (`common::spec`,
//! which materialises the whole edge set before it prunes) keeps —
//! pair-for-pair order, f64 weight bits and the reported input-edge
//! counts.

use minoan::blocking::parallel::parallel_token_blocking;
use minoan::blocking::{builders, ErMode};
use minoan::metablocking::{ExecutionBackend, Pruning, Session, WeightingScheme};
use minoan::prelude::*;

mod common;
use common::spec::Spec;
use common::{assert_sweeps_keep_the_spec, coverage, every_family};

const MAPREDUCE: ExecutionBackend = ExecutionBackend::MapReduce;

#[test]
fn parallel_blocking_identical_for_all_worker_counts() {
    let world = generate(&profiles::lod_cloud(200, 3));
    let serial = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    for workers in [1, 2, 5, 16] {
        let par =
            parallel_token_blocking(&world.dataset, ErMode::CleanClean, &Engine::new(workers));
        assert_eq!(par.len(), serial.len(), "workers={workers}");
        assert_eq!(par.total_comparisons(), serial.total_comparisons());
        assert_eq!(par.total_assignments(), serial.total_assignments());
    }
}

/// The full matrix: scheme × pruning family × worker count ×
/// named world, entity-based MapReduce vs the specification,
/// bit-for-bit.
#[test]
fn entity_partitioned_matrix_is_bit_identical_to_materialised() {
    for (name, blocks) in coverage::named() {
        assert_sweeps_keep_the_spec(name, &blocks, every_family, &[MAPREDUCE], &[1, 3, 8]);
    }
}

/// The unpruned path: the entity-based weighting job reproduces every
/// edge of the specification exactly.
#[test]
fn entity_partitioned_weighted_edges_match_the_slab() {
    let world = generate(&profiles::center_dense(120, 29));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let none = |_: &Spec| vec![Pruning::None];
    assert_sweeps_keep_the_spec("unpruned", &blocks, none, &[MAPREDUCE], &[1, 3, 8]);
}

/// The entity-partitioned strategy's whole point: its shuffle volume is
/// bounded by the entity count, not the pair-occurrence count `Σ_b ‖b‖`
/// (the collection's total comparisons) the edge-based strategy shuffles.
#[test]
fn entity_based_shuffle_volume_is_per_entity_not_per_occurrence() {
    let world = generate(&profiles::center_dense(200, 41));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let occurrences = blocks.total_comparisons() as usize;
    for (label, pruning) in [
        ("wnp", Pruning::Wnp { reciprocal: false }),
        ("wep", Pruning::Wep),
        ("cep", Pruning::Cep(Some(50))),
    ] {
        let mut session = Session::new(&blocks);
        session.scheme(WeightingScheme::Arcs).pruning(pruning);
        let report = session
            .backend(ExecutionBackend::MapReduce)
            .workers(4)
            .run()
            .report;
        assert!(
            !report.jobs.is_empty(),
            "{label}: MapReduce runs report jobs"
        );
        for (job, stats) in &report.jobs {
            // The vote-combination job shuffles the (small) kept set; every
            // other job is bounded by one record per entity neighbourhood.
            if job.ends_with("votes") {
                continue;
            }
            assert!(
                stats.intermediate_pairs <= blocks.num_entities(),
                "{label}/{job}: weighting jobs shuffle at most one record per entity \
                 ({} vs {} entities)",
                stats.intermediate_pairs,
                blocks.num_entities()
            );
        }
        assert!(
            report.shuffled_records() < occurrences,
            "{label}: {} entity-based records vs {occurrences} per-occurrence records",
            report.shuffled_records(),
        );
    }
}

#[test]
fn full_pipeline_on_parallel_blocks_equals_serial_blocks() {
    let world = generate(&profiles::center_dense(150, 19));
    let serial_blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let parallel_blocks =
        parallel_token_blocking(&world.dataset, ErMode::CleanClean, &Engine::new(8));
    let pipeline = Pipeline::new(PipelineConfig::default());
    let cs = pipeline.meta_block(&pipeline.clean_blocks(serial_blocks));
    let cp = pipeline.meta_block(&pipeline.clean_blocks(parallel_blocks));
    assert_eq!(cs.len(), cp.len());
    for (s, p) in cs.iter().zip(&cp) {
        assert_eq!((s.0, s.1), (p.0, p.1));
        assert!((s.2 - p.2).abs() < 1e-9);
    }
}
