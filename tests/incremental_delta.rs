//! Property suite for the updatable meta-blocking session: after every
//! ingest, a delta-swept [`IncrementalSession`] must be *bit-identical* to
//! a from-scratch [`Session`] over the merged corpus — same input-edge
//! count, same pair order, same f64 weight bits — across every weighting
//! scheme and pruning family, arrival orders, batch sizes, ER modes and
//! thread counts. Each stream is checked against a pinned digest chain
//! (`common::assert_chains`), which the ignored test re-records live. How
//! much an ingest swept is read off its [`IngestReport`].

mod common;

use common::spec::Spec;
use common::{assert_bit_identical, assert_chains, assert_driver_keeps, fold, from_scratch};
use common::{cnp, Driver, Rule, SplitMix, FIXED_MODEL};
use minoan::blocking::builders::{self, TokenKeys};
use minoan::blocking::{Corpus, ErMode};
use minoan::datagen::{generate, profiles, ArrivalOrder, GeneratedWorld};
use minoan::metablocking::{IncrementalSession, IngestReport, Pruning, Session, WeightingScheme};
use minoan::rdf::{DatasetBuilder, EntityId};
use std::sync::Arc;

const MODES: [ErMode; 2] = [ErMode::CleanClean, ErMode::Dirty];

/// Every pruning family: the global criteria, both vote rules with the
/// default and an explicit `k`, BLAST and a fixed supervised model.
const FAMILIES: [Pruning; 9] = [
    Pruning::None,
    Pruning::Wep,
    Pruning::Cep(None),
    Pruning::Wnp { reciprocal: false },
    cnp(true, None),
    Pruning::Wnp { reciprocal: true },
    cnp(false, Some(3)),
    Pruning::Blast { ratio: 0.35 },
    FIXED_MODEL,
];

fn world(mode: ErMode) -> GeneratedWorld {
    match mode {
        ErMode::CleanClean => generate(&profiles::center_dense(160, 41)),
        ErMode::Dirty => generate(&profiles::dirty_single(160, 41)),
    }
}

/// One pinned stream: `g`'s descriptions, in batches of an arrival
/// order's given size, ingested one by one under an ER mode and a rule at
/// a worker count (the corpus's token pass on as many threads). After
/// each batch it reads the outcome, or, when its last field is set,
/// resolves an eighth of the arrived entities and reads the outcome after
/// the last batch.
#[derive(Clone, Copy)]
struct Stream<'g>(&'g GeneratedWorld, ErMode, Order, Rule, usize, bool);

/// An arrival order and a batch size.
type Order = (ArrivalOrder, usize);

impl Stream<'_> {
    /// The stream's digest chain (see `common::fold` for `live`).
    fn chain(&self, live: bool) -> u64 {
        let Stream(g, mode, (order, size), rule, workers, reads) = *self;
        let name = order.name();
        let label = format!("{mode:?}, {name} by {size}, {rule:?} at {workers}");
        let corpus = Corpus::new(&g.dataset, TokenKeys::Values, workers);
        let mut inc = IncrementalSession::from_corpus(Arc::new(corpus), mode);
        inc.scheme(rule.0).pruning(rule.1).workers(workers);
        let (mut draws, mut arrived, mut chain) = (SplitMix(26), Vec::new(), 0);
        for (i, batch) in order.batches(&g.dataset, &g.truth, size).iter().enumerate() {
            inc.ingest(batch);
            arrived.extend_from_slice(batch);
            let n = arrived.len().div_ceil(8);
            let probes: Vec<EntityId> = (0..n).map(|_| draws.pick(&arrived)).collect();
            let at = (live, &format!("{label}: batch {i}")[..]);
            chain = fold(chain, &mut inc, rule, reads.then_some(&probes), at);
        }
        if reads {
            let at = (live, &format!("{label}: final")[..]);
            chain = fold(chain, &mut inc, rule, None, at);
        }
        chain
    }
}

/// Every scheme × every family in both ER modes, on `worlds` (one per
/// mode) in batches of `order`.
fn matrix<'g>(worlds: [&'g GeneratedWorld; 2], order: Order, reads: bool) -> Vec<Stream<'g>> {
    let mut streams = Vec::new();
    for (m, (g, mode)) in worlds.into_iter().zip(MODES).enumerate() {
        for (s, scheme) in WeightingScheme::ALL.into_iter().enumerate() {
            for (f, pruning) in FAMILIES.into_iter().enumerate() {
                let workers = if reads { 2 } else { [1, 2, 4][(m + s + f) % 3] };
                streams.push(Stream(g, mode, order, (scheme, pruning), workers, reads));
            }
        }
    }
    streams
}

/// The outcome after every batch. The worker count rotates through one,
/// two and four, so that each scheme and each family meets all three.
fn sweeps(worlds: &[GeneratedWorld; 2]) -> Vec<Stream<'_>> {
    let [clean, dirty] = worlds;
    matrix(
        [clean, dirty],
        (ArrivalOrder::Shuffled { seed: 7 }, 37),
        false,
    )
}

/// Reads between ingests, the state a served load run leaves: after every
/// batch about an eighth of the arrived entities is resolved. On a sparse
/// periphery world that folds the rows of their neighbourhoods and leaves
/// the others carrying mirror tails into the next ingest (an outcome
/// folds every row instead, and so does the first resolve of a version
/// under a global criterion: WEP, CEP, default-`k` CNP).
fn reads_between(g: &GeneratedWorld) -> Vec<Stream<'_>> {
    matrix([g, g], (ArrivalOrder::Shuffled { seed: 23 }, 47), true)
}

/// JS × WNP in every arrival order.
fn orders(g: &GeneratedWorld) -> Vec<Stream<'_>> {
    let rule = (WeightingScheme::Js, Pruning::Wnp { reciprocal: false });
    let stream = |order| Stream(g, ErMode::CleanClean, (order, 53), rule, 2, false);
    ArrivalOrder::all(19).into_iter().map(stream).collect()
}

/// ARCS × CNP on dirty batches from one description to all of them.
fn sizes(g: &GeneratedWorld) -> Vec<Stream<'_>> {
    let rule = (WeightingScheme::Arcs, cnp(false, None));
    let by = |size| (ArrivalOrder::RoundRobin, size);
    let stream = |size| Stream(g, ErMode::Dirty, by(size), rule, 2, false);
    [1, 13, 64, g.dataset.len()].map(stream).to_vec()
}

/// CBS × WEP, KB by KB, at `workers`.
fn at_workers(g: &GeneratedWorld, workers: usize) -> [Stream<'_>; 1] {
    let rule = (WeightingScheme::Cbs, Pruning::Wep);
    let order = (ArrivalOrder::KbSequential, 41);
    [Stream(g, ErMode::CleanClean, order, rule, workers, false)]
}

#[test]
fn delta_sweeps_are_bit_identical_to_from_scratch_sessions() {
    let worlds = MODES.map(world);
    assert_chains("SWEEPS", &sweeps(&worlds), SWEEPS, false, Stream::chain);
}

#[test]
fn every_arrival_order_converges_bit_identically() {
    let g = world(ErMode::CleanClean);
    assert_chains("ORDERS", &orders(&g), ORDERS, false, Stream::chain);
}

#[test]
fn batch_size_does_not_change_a_bit() {
    let g = world(ErMode::Dirty);
    assert_chains("SIZES", &sizes(&g), SIZES, false, Stream::chain);
}

#[test]
fn thread_counts_do_not_change_a_bit() {
    let g = world(ErMode::CleanClean);
    for workers in [1usize, 2, 4, 8] {
        let stream = at_workers(&g, workers);
        assert_chains("WORKERS", &stream, WORKERS, false, Stream::chain);
    }
}

/// Every answer equals a from-scratch session's at that version, and so
/// does the final outcome.
#[test]
fn reads_between_ingests_are_bit_identical() {
    let g = generate(&profiles::periphery_sparse(240, 41));
    assert_chains("READS", &reads_between(&g), READS, false, Stream::chain);
}

/// Records every pinned chain of this file: each stream again with a
/// from-scratch session after every batch.
#[test]
#[ignore = "the live reference of the pinned chains; run with --ignored"]
fn pinned_chains_equal_from_scratch_sessions() {
    let worlds = MODES.map(world);
    let [clean, dirty] = &worlds;
    let sparse = generate(&profiles::periphery_sparse(240, 41));
    assert_chains("SWEEPS", &sweeps(&worlds), SWEEPS, true, Stream::chain);
    assert_chains("READS", &reads_between(&sparse), READS, true, Stream::chain);
    assert_chains("ORDERS", &orders(clean), ORDERS, true, Stream::chain);
    assert_chains("SIZES", &sizes(dirty), SIZES, true, Stream::chain);
    let workers = at_workers(clean, 1);
    assert_chains("WORKERS", &workers, WORKERS, true, Stream::chain);
}

#[test]
fn final_state_matches_batch_token_blocking() {
    let (scheme, pruning) = (WeightingScheme::Js, Pruning::Wnp { reciprocal: true });
    for mode in MODES {
        let g = world(mode);
        let mut inc = IncrementalSession::new(&g.dataset, mode);
        inc.scheme(scheme).pruning(pruning).workers(2);
        for batch in ArrivalOrder::ClusteredBursts.batches(&g.dataset, &g.truth, 29) {
            inc.ingest(&batch);
        }
        let want = Spec::of(&builders::token_blocking(&g.dataset, mode)).run(scheme, pruning);
        assert_driver_keeps(Driver::Outcome(&mut inc), &want, &format!("{mode:?} final"));
    }
}

/// The structural guard behind the O(batch) ingest: under every scheme ×
/// family each ingest delta-sweeps, and re-sweeps the batch alone when
/// the rows hold count statistics, or the dirty set when they hold ARCS
/// sums (ARCS, and the supervised features built on them) — whatever was
/// resolved in between. The final outcome is compared with the
/// specification's: the one unpinned check of every scheme × family in
/// both ER modes, so a new family or world needs no chain to join.
#[test]
fn every_ingest_sweeps_the_batch_or_the_dirty_set() {
    for mode in MODES {
        let g = world(mode);
        let spec = Spec::of(&builders::token_blocking(&g.dataset, mode));
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
                let want = spec.run(scheme, pruning);
                assert_driver_keeps(Driver::Outcome(&mut inc), &want, &format!("{label}: final"));
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

/// Every scheme × every family: each ingest after the first delta-sweeps,
/// and the final outcome equals a from-scratch session's. A center
/// world's one big batch dirties nearly everyone. The serve workloads'
/// periphery world, in batches of 5, leaves clean entities whose rows a
/// JS block-count change of a neighbour still moves — the rows the
/// ingest marks stale without re-sweeping them.
#[test]
fn delta_sweeps_stay_exact_on_a_dense_and_a_sparse_stream() {
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
                let mut inc = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
                inc.scheme(scheme).pruning(pruning).workers(2);
                inc.ingest(first);
                for (i, batch) in rest.chunks(batch).enumerate() {
                    let report = inc.ingest(batch);
                    assert!(report.delta, "{label}, batch {i}: {report:?}");
                }
                let want = from_scratch(&inc, (scheme, pruning));
                assert_driver_keeps(Driver::Outcome(&mut inc), &want, &label);
            }
        }
    }
}

/// One chain per stream of `sweeps`: mode × scheme × family, in order.
const SWEEPS: &str = "
    b5b3870e63d92a27 96427630323c7be8 518ac366f9390a63 c858b680a9b0bffe fa807af6d6680c3b
    9718c4725c5e246b 7ed6c274a74203d4 8d394bccc2bc5867 de8d0f44f0826b5f aa1b3feb255901a1
    ab6f998096795b50 7efc126c3cde50e5 54c7d030058de5f5 d25d61767c5a41f0 44e1c431da24f30c
    ffd77bd417b7c25d 8d394bccc2bc5867 de8d0f44f0826b5f f195d9e49cbabd4b b03ebb9aca3445ab
    50eeaf95ab79fdba 25e6b68ec46be89c a896f9a0415868a1 e529b863ba956c0b 69f486f015a99001
    8d394bccc2bc5867 de8d0f44f0826b5f f9753629ec3771bc 7444a823e4040310 08dfd9ee617c675d
    af0f6aebc88b5ee3 c80b3190046e46a1 f4705b356978afde 03b04ceeccfe21ae 8d394bccc2bc5867
    de8d0f44f0826b5f 824bff539360efd0 e435e106c086d39c d0d761061ef89273 5e4a766a145dea1b
    d40e23df4dda7e6a 48b95ab7ce45d0ab d9a55208caa98116 8d394bccc2bc5867 de8d0f44f0826b5f
    74e62b9149c3aa90 ea1a0922ce7e94f6 d225211088fbff57 e5f4b8e253e01a64 84eba72b7aba7c8d
    6d23b0088907276f d2c9e81b8d9e5624 63dce34fe45957c0 00f7890a4027b2da 035462699c007929
    524fde07d6be4946 17f9b1ab63d55021 ad387392a6518c2f a88a8c8e74ff94a5 53e2e6fde902b9a9
    bdd84feecbb5f9ea 63dce34fe45957c0 00f7890a4027b2da 002c4016c5a9694f 3a872e6513afa2a6
    d555ea4f14aae93e 50b9c4749346df50 bcd2ba51adc74a87 7982d6a501466e7b 384c023829e7f89c
    63dce34fe45957c0 00f7890a4027b2da 02fef5808cd93cc8 37a2dd21237f572c be45704cc66552cb
    19ae43d5be42a138 5ea2e9d40939d183 895343378baf448d 85a0a18aa7130065 63dce34fe45957c0
    00f7890a4027b2da c1b1f1996ab1c55b a41a6bb99e6a6133 436bd347cfa0759d 8ab5478aade04720
    38ac99b601911d68 80f90c7feab63e84 2e24666cd9ad9ccb 63dce34fe45957c0 00f7890a4027b2da
";

/// One chain per stream of `orders`, in `ArrivalOrder::all`'s order.
const ORDERS: &str = "
    3d5cc5a67575215f a6205d31036f3520 db03fdb384c0c592 c4655181293e8158
";

/// One chain per stream of `sizes`, in order.
const SIZES: &str = "
    676dc452dae765b7 f848692a9092c001 2a8f155443800127 281e76bc3ef252e1
";

/// The chain of `at_workers`, at every worker count.
const WORKERS: &str = "
    1e4a1342d7341b0e
";

/// One chain per stream of `reads_between`: mode × scheme × family, in
/// order.
const READS: &str = "
    e5172a8cb1ee55fe cbe4ba876014c444 3c6af9ccc527bb38 eb34ba9c238cb945 7a36e6ce20c635aa
    c396525a13697aeb 1463f8162429b853 acc9061eb39d59b8 d1cfeb00b6dc9f4c fdaf3a73067744b6
    ca58237d4342245e 688158cae9c9e247 0e8546607ba818ba 86733fca1ab55aae 4b064deca865d9a0
    af277dbc918432f2 acc9061eb39d59b8 d1cfeb00b6dc9f4c cf31ef211732f549 6b1cfd65855a884c
    7386780f37a36b86 554723602c59ceca c9dc37ae1695df43 e3da52ad2c81679c 83268c168ab71741
    acc9061eb39d59b8 d1cfeb00b6dc9f4c 4d7f454fb1bd6c46 35efe3a70996b113 d938c480a8d5d174
    224649231c8c6393 6ccf467553401d1a 3d3b4e12dfc66993 d648c6d7a13ec14f acc9061eb39d59b8
    d1cfeb00b6dc9f4c 4a459e5d3e110565 7a6254ffb3a5561f a0ba2e6bce1265d6 60893b2aed0a23e0
    90a4471e1671b4c0 be646024e102ea80 b7da2275eda1fd25 acc9061eb39d59b8 d1cfeb00b6dc9f4c
    552d1d247ad31945 3f214b00fcf09e1b cc6b7024db4cc87f 711d170c7aa46b6a 60bbcd59246e721d
    99435416a6eb942f 84aa41d8f9342549 30563dffcdcdce67 05c5ed71e2479a17 7d91617a9debce26
    f640ae5e71ce7995 3574dd7f294a5061 a7a15dc64e7fe594 452dc43c19bb5467 e1e6ed1728c05967
    c556c568c4908614 30563dffcdcdce67 05c5ed71e2479a17 df5618412765b39a cd08e2b36e74cdbb
    cace0abd7c0a8d7c f58934d28fa98dea 65eaab81bca09957 a553be6a5c949df6 8e829427e02637b5
    30563dffcdcdce67 05c5ed71e2479a17 c5366b558c4a71c8 756ff722932e769a 33e7b34e8b2c7324
    76fc9570cdba2893 e3682eaeeebaf745 d7a87dfa64ad0cbe 9a12b8069cbb3d00 30563dffcdcdce67
    05c5ed71e2479a17 747cc3c74553005a 74b7b782409bef48 e129879eac9a51d4 3b4ebe6938349885
    7b3eaa07ca6c1dd9 78d658fa7fc3d4f5 6391ec8c29d6f95a 30563dffcdcdce67 05c5ed71e2479a17
";
