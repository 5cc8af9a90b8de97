//! Property test: the streaming meta-blocking backend keeps exactly what
//! the specification (`common::spec`) keeps — pair order, f64 weight
//! bits and input-edge count — for every pruning family (edge-centric
//! WEP/CEP, node-centric WNP/CNP, BLAST) under all five weighting
//! schemes, on random generated worlds (clean–clean, and for the
//! edge-centric families a dirty single-KB world of duplicates too), for
//! both the union and reciprocal variants, at thread counts 1/2/4/8. The
//! specification materialises the whole edge set before it prunes; the
//! streaming sweeps never build it.

use minoan::blocking::{builders, ErMode};
use minoan::metablocking::{ExecutionBackend, Perceptron, Pruning, TrainingSet};
use minoan::prelude::*;
use proptest::prelude::*;

mod common;
use common::spec::Spec;
use common::{assert_driver_keeps, assert_sweeps_keep_the_spec, cep_cardinalities, cnp};
use common::{coverage, every_family, Driver};

const STREAMING: ExecutionBackend = ExecutionBackend::Streaming;

/// Every named world of the coverage list, every family and scheme, one
/// thread and a sweep split four ways.
#[test]
fn every_named_world_streams_like_the_spec() {
    for (name, blocks) in coverage::named() {
        assert_sweeps_keep_the_spec(name, &blocks, every_family, &[STREAMING], &[1, 4]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// WNP and CNP agree bitwise with the specification for every scheme,
    /// variant and thread count.
    #[test]
    fn streaming_equals_materialised(seed in 0u64..500, n in 40usize..120, threads in 1usize..5) {
        let world = generate(&profiles::center_periphery(n, seed));
        let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
        let vote = |r| [Pruning::Wnp { reciprocal: r }, cnp(r, None), cnp(r, Some(2))];
        let families = |_: &Spec| [vote(false), vote(true)].concat();
        assert_sweeps_keep_the_spec("clean", &blocks, families, &[STREAMING], &[threads]);
    }

    /// Edge-centric WEP and CEP agree bitwise with the specification for
    /// every scheme at thread counts 1/2/4/8 — WEP's global mean comes
    /// from a fixed-shape pairwise reduction, CEP's global top-k from
    /// per-thread selections sealed into runs and merged, so neither may
    /// drift with the partitioning — in clean–clean mode and in dirty mode
    /// over one KB of duplicates (`batch_dirty`'s shape), where the
    /// forward sweeps see every co-member as comparable.
    #[test]
    fn streaming_wep_cep_equal_materialised(seed in 0u64..500, n in 40usize..120) {
        for (config, mode) in [
            (profiles::center_periphery(n, seed), ErMode::CleanClean),
            (profiles::dirty_single(n.min(40), seed), ErMode::Dirty),
        ] {
            let world = generate(&config);
            let blocks = builders::token_blocking(&world.dataset, mode);
            let families = |spec: &Spec| {
                let mut families = vec![Pruning::Wep, Pruning::Cep(Some(7))];
                families.extend(cep_cardinalities(spec.num_edges()));
                families
            };
            let what = format!("{mode:?}");
            assert_sweeps_keep_the_spec(&what, &blocks, families, &[STREAMING], &[1, 2, 4, 8]);
        }
    }

    /// The unpruned streaming edge enumeration reproduces every edge of
    /// the specification (pairs, order and weight bits) without building
    /// the edge set.
    #[test]
    fn streaming_weighted_edges_equal_the_slab(seed in 0u64..500, n in 40usize..100) {
        let world = generate(&profiles::lod_cloud(n, seed));
        let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
        let none = |_: &Spec| vec![Pruning::None];
        assert_sweeps_keep_the_spec("lod", &blocks, none, &[STREAMING], &[1, 4]);
    }

    /// BLAST agrees bitwise with the specification across keep ratios.
    #[test]
    fn streaming_blast_equals_materialised(seed in 0u64..500, ratio in 0.1f64..1.0) {
        let world = generate(&profiles::center_dense(80, seed));
        let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
        let blast = Pruning::Blast { ratio };
        let want = Spec::of(&blocks).run(WeightingScheme::Arcs, blast);
        for t in [1, 4] {
            let mut session = Session::new(&blocks);
            let driver = Driver::Session(session.pruning(blast).workers(t));
            assert_driver_keeps(driver, &want, &format!("dense/{blast:?}/t={t}"));
        }
    }
}

/// The supervised trainer samples through streaming sweeps: its features,
/// labels and trained perceptron are the same bits at every session
/// worker count, on the clean–clean and the dirty named world.
#[test]
fn training_sample_is_worker_invariant() {
    for (name, (blocks, truth)) in [("clean", coverage::clean(7)), ("dirty", coverage::dirty(7))] {
        let is_match = |a, b| truth.is_match(a, b);
        let sample = |w| TrainingSet::sample(Session::new(&blocks).workers(w), is_match, 40, 7);
        let bits = |set: &TrainingSet| {
            let model = Perceptron::train(set, 12);
            let features: Vec<_> = set.features.iter().map(|f| f.0.map(f64::to_bits)).collect();
            let model = (model.weights.map(f64::to_bits), model.bias.to_bits());
            (features, set.labels.clone(), model)
        };
        let serial = bits(&sample(1));
        assert!(serial.1.len() > 40, "{name}: both classes sampled");
        for workers in [2, 3, 8] {
            assert!(
                bits(&sample(workers)) == serial,
                "{name}: {workers} workers"
            );
        }
    }
}
