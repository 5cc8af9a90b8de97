//! Property suite for query-time resolution: `resolve_entity(e)` on the
//! updatable [`IncrementalSession`] must be *bit-identical* to the
//! incident slice of a full run — the pairs that mention `e` in what the
//! specification (`common::spec`) keeps over the same arrived
//! descriptions, in the same order, with the same f64 weight bits — for
//! every scheme × pruning family; per-worker identity is asserted
//! in-process. After every batch of a stream the answers are pinned as a
//! digest chain (`common::assert_chains`), recorded from from-scratch
//! [`Session`](minoan::metablocking::Session) runs.

mod common;

use common::spec::Spec;
use common::FIXED_MODEL;
use common::{assert_chains, assert_driver_keeps, cnp, coverage, every_family, fold, spec_cases};
use common::{Driver, Rule};
use minoan::blocking::{builders, ErMode};
use minoan::datagen::{generate, profiles, ArrivalOrder, GeneratedWorld};
use minoan::metablocking::{IncrementalSession, Pruning, WeightingScheme};
use minoan::rdf::EntityId;

/// A spread of probe entities: every stride-th id, so the sample hits
/// hubs, leaves and isolated entities across both KBs.
fn probes(n: usize, stride: usize) -> Vec<EntityId> {
    (0..n as u32).step_by(stride.max(1)).map(EntityId).collect()
}

/// A session over `world` that has ingested every description in one
/// batch, under `rule` at `workers`.
fn ingested(world: &GeneratedWorld, rule: Rule, workers: usize) -> IncrementalSession<'_> {
    let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
    inc.scheme(rule.0).pruning(rule.1).workers(workers);
    let all: Vec<EntityId> = world.dataset.entities().collect();
    inc.ingest(&all);
    inc
}

/// Every scheme × family of the coverage list, and explicit cardinalities
/// of CEP and reciprocal CNP besides, each on a fresh session; the two
/// worker counts run side by side.
#[test]
fn every_family_resolves_bit_identically() {
    let world = generate(&profiles::center_dense(120, 13));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let spec = Spec::of(&blocks);
    let mut families = every_family(&spec);
    families.extend([Pruning::Cep(Some(9)), cnp(true, Some(3))]);
    let (probes, cases) = (probes(world.dataset.len(), 7), spec_cases(&spec, &families));
    std::thread::scope(|s| {
        for workers in [1usize, 3] {
            let (world, probes, cases) = (&world, &probes, &cases);
            s.spawn(move || {
                for (label, rule, want) in cases {
                    let mut inc = ingested(world, *rule, workers);
                    let label = format!("{label}/w={workers}");
                    assert_driver_keeps(Driver::Resolve(&mut inc, probes), want, &label);
                }
            });
        }
    });
}

#[test]
fn supervised_resolves_bit_identically() {
    let world = generate(&profiles::center_dense(140, 23));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let pruning = Pruning::Supervised(coverage::model(&blocks, &world.truth, 7));
    let want = Spec::of(&blocks).run(WeightingScheme::Arcs, pruning);
    assert!(!want.pairs.is_empty(), "fixture model must keep something");
    let mut inc = ingested(&world, (WeightingScheme::Arcs, pruning), 2);
    let probes = probes(world.dataset.len(), 5);
    assert_driver_keeps(Driver::Resolve(&mut inc, &probes), &want, "supervised");
}

/// Scheme switches on one session rebuild the criterion; answers after a
/// switch must match the specification's.
#[test]
fn scheme_and_pruning_switches_on_one_session_stay_exact() {
    let world = generate(&profiles::center_dense(100, 31));
    let mut inc = ingested(&world, (WeightingScheme::Arcs, Pruning::None), 2);
    let spec = Spec::of(&inc.snapshot());
    let probes = probes(world.dataset.len(), 11);
    for (scheme, pruning) in [
        (WeightingScheme::Js, Pruning::Wep),
        (WeightingScheme::Js, Pruning::Cep(None)),
        (WeightingScheme::Arcs, Pruning::Cep(None)),
        (WeightingScheme::Cbs, cnp(false, None)),
    ] {
        inc.scheme(scheme).pruning(pruning);
        let label = format!("switch/{scheme:?}/{pruning:?}");
        let want = spec.run(scheme, pruning);
        assert_driver_keeps(Driver::Resolve(&mut inc, &probes), &want, &label);
    }
}

/// At one version, every switch must redraw the neighbours' votes the
/// previous family's resolves left behind: resolve, switch, resolve
/// again — WNP → BLAST → default-`k` CNP → WNP under JS, then JS → ECBS
/// under WNP — each answer against the specification's incident slice.
#[test]
fn switches_at_one_version_redraw_every_vote() {
    let world = generate(&profiles::center_dense(100, 37));
    let wnp = Pruning::Wnp { reciprocal: false };
    let mut inc = ingested(&world, (WeightingScheme::Js, wnp), 1);
    let spec = Spec::of(&inc.snapshot());
    let probes = probes(world.dataset.len(), 2);
    for (scheme, pruning) in [
        (WeightingScheme::Js, wnp),
        (WeightingScheme::Js, Pruning::blast()),
        (WeightingScheme::Js, cnp(false, None)),
        (WeightingScheme::Js, wnp),
        (WeightingScheme::Ecbs, wnp),
    ] {
        inc.scheme(scheme).pruning(pruning);
        let label = format!("at one version/{scheme:?}/{pruning:?}");
        let want = spec.run(scheme, pruning);
        assert_driver_keeps(Driver::Resolve(&mut inc, &probes), &want, &label);
        assert_eq!(inc.version(), 1, "{label}");
    }
}

fn world() -> GeneratedWorld {
    generate(&profiles::center_dense(130, 41))
}

/// The streamed combinations, one per way the rows are brought up to
/// date.
fn combos() -> [Rule; 8] {
    [
        // Delta row-cache path, row-local criterion.
        (WeightingScheme::Js, Pruning::Wnp { reciprocal: false }),
        // Delta path, global criterion.
        (WeightingScheme::Js, Pruning::Wep),
        (WeightingScheme::Arcs, Pruning::Cep(None)),
        (WeightingScheme::Cbs, cnp(true, None)),
        // Rows re-weighed on read: |B|, the degrees and |V| move.
        (WeightingScheme::Ecbs, Pruning::Wnp { reciprocal: true }),
        (WeightingScheme::Ejs, cnp(false, None)),
        (WeightingScheme::Js, Pruning::blast()),
        // ARCS rows, features computed on read.
        (WeightingScheme::Cbs, FIXED_MODEL),
    ]
}

/// The chain of every seventeenth entity's answers after each batch of
/// `g`'s shuffled stream under `rule` at `workers` (see `common::fold`
/// for `live`).
fn stream(g: &GeneratedWorld, rule: Rule, workers: usize, live: bool) -> u64 {
    let mut inc = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
    inc.scheme(rule.0).pruning(rule.1).workers(workers);
    let sample = probes(g.dataset.len(), 17);
    let batches = ArrivalOrder::Shuffled { seed: 7 }.batches(&g.dataset, &g.truth, 33);
    batches.iter().enumerate().fold(0, |chain, (i, batch)| {
        inc.ingest(batch);
        let label = format!("{rule:?}/w={workers}: batch {i}");
        fold(chain, &mut inc, rule, Some(&sample), (live, &label))
    })
}

/// After every ingest, the incremental session's answers equal the
/// incident slices of a from-scratch batch session's run over the merged
/// snapshot — whatever the rows hold and however they are brought up to
/// date — at one, two and four workers.
#[test]
fn incremental_resolves_match_from_scratch_sessions_after_every_batch() {
    let g = world();
    for workers in [1usize, 2, 4] {
        let chain = |&rule: &_, live| stream(&g, rule, workers, live);
        assert_chains("RESOLVES", &combos(), RESOLVES, false, chain);
    }
}

/// Records [`RESOLVES`]: every stream again with a from-scratch session
/// after each batch.
#[test]
#[ignore = "the live reference of the pinned chains; run with --ignored"]
fn pinned_resolve_chains_equal_from_scratch_sessions() {
    let g = world();
    let chain = |&rule: &_, live| stream(&g, rule, 2, live);
    assert_chains("RESOLVES", &combos(), RESOLVES, true, chain);
}

/// Resolving on an empty corpus answers no match, at version 0.
#[test]
fn empty_corpus_resolves_to_nothing() {
    let g = world();
    let mut inc = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
    let resolved = inc.resolve_entity(EntityId(0));
    assert!(resolved.matches.is_empty());
    assert_eq!(inc.version(), 0);
}

/// One digest chain per streamed combination of [`combos`], in order.
const RESOLVES: &str = "
    605f24c94b0c43c1 1e90bb64620f1928 76d7db7b8d02dddd 2bd856ee90556943 65879ddf7d94e73b
    2a55383f420c9c0b 8eeff13368bc65f1 e708ba2e0adc4796
";
