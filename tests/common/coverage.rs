//! The named worlds the spec-anchored suites run every driver on, and the
//! coverage list that says which case each world is there for.
//!
//! | case | world |
//! |---|---|
//! | ties under CBS | `clean` |
//! | an empty row: an entity with no edge | `star` |
//! | CEP's `k` cut inside a class of equal weights (CBS, the default `k` = `BC / 2`) | `clean` |
//! | CNP's `k` cut inside a node's class of equal weights (CBS, `k` = 2) | `clean` |
//! | `k` = 0: the default CEP budget `BC / 2` over no blocks | `empty` |
//! | `k` = 0: explicit `Some(0)` for CEP and CNP ([`families`]) | every world |
//! | an edge lost only under the reciprocal rule (ARCS × WNP) | `clean` |
//! | zero-weight ECBS and EJS edges | `star` |
//! | clean–clean and dirty ER | `clean`, `dirty` |
//! | dirty blocks of ≥ 3 members: comparison counts above 1, ARCS ≠ CBS | `dirty` |
//! | a split sweep: threads 1 vs 4 over ≥ 4 placed entities | `clean`, `dirty` |
//!
//! The resolution suites run on [`resolution_worlds`]:
//!
//! | case | world |
//! |---|---|
//! | a schedule tie decided by candidate id | `clean` |
//! | a re-comparison that flips to a match | `sparse` |
//! | a re-comparison `recompare_margin` defers (margin 0 resolves otherwise) | `periphery` |
//! | a discovered candidate that matches | `clean` |
//! | a budget cut inside the run (10 % of the candidates) | every world |
//! | a unique-mapping refusal | `clean` |
//! | an edge of two centres (merge-center parts from center) | `dirty`'s candidates |
//!
//! `tests/spec_anchors.rs::coverage_list_holds` asserts every row, so the
//! list cannot go stale.

use super::cep_cardinalities;
use super::resolve_spec::Pair;
use minoan::blocking::{builders, filter, BlockCollection, ErMode};
use minoan::datagen::{generate, profiles, GeneratedWorld, GroundTruth};
use minoan::metablocking::{Perceptron, Pruning, Session, TrainingSet};
use minoan::rdf::{DatasetBuilder, EntityId};

/// The `clean` world before cleaning: a generated clean–clean world, two
/// KBs of the same entities, token blocked.
pub fn raw_clean(seed: u64) -> (GeneratedWorld, BlockCollection) {
    let world = generate(&profiles::center_dense(80, seed));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    (world, blocks)
}

/// The `dirty` world before cleaning: a generated world, one KB with
/// duplicates where every co-member is comparable, token blocked.
pub fn raw_dirty(seed: u64) -> (GeneratedWorld, BlockCollection) {
    let world = generate(&profiles::dirty_single(50, seed));
    let blocks = builders::token_blocking(&world.dataset, ErMode::Dirty);
    (world, blocks)
}

/// [`raw_clean`], purged and filtered as the pipeline does.
pub fn clean(seed: u64) -> (BlockCollection, GroundTruth) {
    let (world, blocks) = raw_clean(seed);
    (filter::clean(&blocks), world.truth)
}

/// [`raw_dirty`], filtered. It is not purged: on a world this small
/// purging keeps only blocks of two members, whose ARCS weights all equal
/// their CBS weights.
pub fn dirty(seed: u64) -> (BlockCollection, GroundTruth) {
    let (world, blocks) = raw_dirty(seed);
    (filter::filter(&blocks), world.truth)
}

/// Entity 0 (KB `a`) sits in every block and is an endpoint of every
/// edge, so `ln(|B|/|B_0|)` and `ln(|V|/|V_0|)` are 0 and every ECBS and
/// EJS weight with them. Entity 5 shares its only block with a member of
/// its own KB, which clean–clean ER drops, so its row is empty.
pub fn star() -> BlockCollection {
    let mut b = DatasetBuilder::new();
    let kb_a = b.add_kb("a", "http://a/");
    let kb_b = b.add_kb("b", "http://b/");
    b.add_literal(kb_a, "http://a/0", "http://p", "x");
    for i in 1..6 {
        b.add_literal(kb_b, &format!("http://b/{i}"), "http://p", "x");
    }
    let dataset = b.build();
    let e = EntityId;
    let groups = vec![
        ("k0".to_string(), vec![e(0), e(1), e(2), e(3)]),
        ("k1".to_string(), vec![e(0), e(1), e(2)]),
        ("k2".to_string(), vec![e(0), e(1)]),
        ("k3".to_string(), vec![e(0), e(4)]),
        ("solo".to_string(), vec![e(4), e(5)]),
    ];
    BlockCollection::from_groups(&dataset, ErMode::CleanClean, groups)
}

/// Two entities and no blocks.
pub fn empty() -> BlockCollection {
    let mut b = DatasetBuilder::new();
    let kb = b.add_kb("a", "http://a/");
    b.add_literal(kb, "http://a/0", "http://p", "x");
    b.add_literal(kb, "http://a/1", "http://p", "x");
    let groups = Vec::<(String, Vec<EntityId>)>::new();
    BlockCollection::from_groups(&b.build(), ErMode::Dirty, groups)
}

/// Every named world, as the suites iterate them.
pub fn named() -> Vec<(&'static str, BlockCollection)> {
    vec![
        ("clean", clean(7).0),
        ("dirty", dirty(7).0),
        ("star", star()),
        ("empty", empty()),
    ]
}

/// The candidates the session defaults (ARCS × WNP) keep on `blocks`.
fn candidates(blocks: &BlockCollection) -> Vec<Pair> {
    Session::new(blocks).run().into_candidates()
}

/// The worlds the resolution suites run every resolver on, at `seed`,
/// each with its candidates: `clean` and `dirty` cleaned as above; then,
/// purged and filtered, `sparse`, two periphery KBs whose matches lean on
/// the update phase, and `periphery`, a center KB beside a periphery one.
pub fn resolution_worlds(seed: u64) -> Vec<(&'static str, GeneratedWorld, Vec<Pair>)> {
    let (clean, clean_blocks) = raw_clean(seed);
    let (dirty, dirty_blocks) = raw_dirty(seed);
    let clean_clean = |world: GeneratedWorld| {
        let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
        let pairs = candidates(&filter::clean(&blocks));
        (world, pairs)
    };
    let (sparse, sparse_pairs) = clean_clean(generate(&profiles::periphery_sparse(80, seed)));
    let (periphery, periphery_pairs) = clean_clean(generate(&profiles::center_periphery(80, seed)));
    vec![
        ("clean", clean, candidates(&filter::clean(&clean_blocks))),
        ("dirty", dirty, candidates(&filter::filter(&dirty_blocks))),
        ("sparse", sparse, sparse_pairs),
        ("periphery", periphery, periphery_pairs),
    ]
}

/// The unsupervised family variants every suite runs, each with the
/// label the suites report it under: defaults, `k` = 0, small
/// cardinalities that cut inside tie classes, CEP's cardinalities around
/// |V|, both vote rules, two BLAST ratios.
pub fn families(num_edges: usize) -> Vec<(String, Pruning)> {
    let mut families = vec![
        ("None".to_string(), Pruning::None),
        ("WEP".to_string(), Pruning::Wep),
        ("CEP(0)".to_string(), Pruning::Cep(Some(0))),
        ("BLAST".to_string(), Pruning::Blast { ratio: 0.35 }),
        ("BLAST(1)".to_string(), Pruning::Blast { ratio: 1.0 }),
    ];
    if num_edges > 0 {
        let labels = ["(1)", "(2)", "(|V|-1)", "(|V|)", "(|V|+1)", ""];
        for (label, pruning) in labels.into_iter().zip(cep_cardinalities(num_edges)) {
            families.push((format!("CEP{label}"), pruning));
        }
    } else {
        families.push(("CEP".to_string(), Pruning::Cep(None)));
    }
    for reciprocal in [false, true] {
        let vote = if reciprocal { "-recip" } else { "" };
        families.push((format!("WNP{vote}"), Pruning::Wnp { reciprocal }));
        for (k, label) in [(None, ""), (Some(0), "(0)"), (Some(2), "(2)")] {
            families.push((format!("CNP{label}{vote}"), Pruning::Cnp { reciprocal, k }));
        }
    }
    families
}

/// A perceptron trained on a fixed-seed sample of `blocks`' edges.
pub fn model(blocks: &BlockCollection, truth: &GroundTruth, seed: u64) -> Perceptron {
    let is_match = |a, b| truth.is_match(a, b);
    let set = TrainingSet::sample(&mut Session::new(blocks), is_match, 40, seed);
    Perceptron::train(&set, 12)
}
