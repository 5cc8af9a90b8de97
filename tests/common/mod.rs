//! Helpers shared by the integration suites.

#[allow(dead_code)]
pub mod cleaning;
#[allow(dead_code)]
pub mod coverage;
#[allow(dead_code)]
pub mod spec;

use minoan::blocking::{BlockCollection, ErMode};
use minoan::common::FxHashMap;
use minoan::metablocking::{
    ExecutionBackend, PruneOutcome, PrunedComparisons, Pruning, Session, WeightedPair,
    WeightingScheme,
};
use minoan::rdf::{tokenize, Dataset, EntityId};

/// One fresh single-shot session run of `scheme` × `pruning` on `backend`
/// at `workers` — the way every equivalence suite reaches a backend.
#[allow(dead_code)]
pub fn session_run(
    blocks: &BlockCollection,
    scheme: WeightingScheme,
    pruning: Pruning,
    backend: ExecutionBackend,
    workers: usize,
) -> PruneOutcome {
    Session::new(blocks)
        .scheme(scheme)
        .pruning(pruning)
        .backend(backend)
        .workers(workers)
        .run()
}

/// CEP at the cardinalities where a selection can go wrong: one and two
/// edges, one short of every edge, exactly every edge, one more than
/// there are, and the default budget. Under an integer-valued scheme
/// (CBS) the small ones cut inside a class of equal weights, where only
/// the pair tie-break decides what is kept.
#[allow(dead_code)]
pub fn cep_cardinalities(num_edges: usize) -> [Pruning; 6] {
    let v = num_edges;
    [Some(1), Some(2), Some(v - 1), Some(v), Some(v + 1), None].map(Pruning::Cep)
}

/// Bit-identity over bare pair lists: same pairs in the same order with
/// the same f64 weight bits.
#[allow(dead_code)]
pub fn assert_pairs_bit_identical(a: &[WeightedPair], b: &[WeightedPair], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: kept count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!((x.a, x.b), (y.a, y.b), "{label}: pair order");
        assert_eq!(
            x.weight.to_bits(),
            y.weight.to_bits(),
            "{label}: weight bits differ for ({:?},{:?}): {} vs {}",
            x.a,
            x.b,
            x.weight,
            y.weight
        );
    }
}

/// The one definition of "bit-identical pruning output" the equivalence
/// suites assert: same input-edge count, same pair order, same f64
/// weight bits.
#[allow(dead_code)]
pub fn assert_bit_identical(a: &PrunedComparisons, b: &PrunedComparisons, label: &str) {
    assert_eq!(a.input_edges, b.input_edges, "{label}: input_edges");
    assert_pairs_bit_identical(&a.pairs, &b.pairs, label);
}

/// As [`assert_bit_identical`], comparing a session [`PruneOutcome`]
/// against what the specification ([`spec::Spec::run`]) keeps.
#[allow(dead_code)]
pub fn assert_outcome_bit_identical(a: &PruneOutcome, b: &PrunedComparisons, label: &str) {
    assert_bit_identical(&a.pruned, b, label);
}

/// The reference (legacy) build the string-free path is pinned against:
/// one owned `String` per token occurrence, grouped through a hash map,
/// then the string-keyed `from_groups` — with `with_uri`, the paper's
/// token ∪ URI-infix criterion (`uri:`-prefixed key space, like
/// `token_and_uri_blocking`), otherwise value tokens only.
#[allow(dead_code)]
pub fn reference_token_blocking(
    dataset: &Dataset,
    mode: ErMode,
    with_uri: bool,
) -> BlockCollection {
    let mut groups: FxHashMap<String, Vec<EntityId>> = FxHashMap::default();
    for e in dataset.entities() {
        let mut tokens: Vec<String> = dataset.blocking_tokens(e);
        tokens.sort_unstable();
        tokens.dedup();
        for t in tokens {
            groups.entry(t).or_default().push(e);
        }
        if with_uri {
            let mut utoks = tokenize::uri_infix_tokens(dataset.uri(e));
            utoks.sort_unstable();
            utoks.dedup();
            for t in utoks {
                groups.entry(format!("uri:{t}")).or_default().push(e);
            }
        }
    }
    BlockCollection::from_groups(dataset, mode, groups)
}

/// The one observable-identity oracle for block collections (blocks, key
/// strings, member slices, comparison counts, reciprocal bits, inverted
/// index): panics unless `a` and `b` are observably identical.
#[allow(dead_code)]
pub fn assert_collections_identical(a: &BlockCollection, b: &BlockCollection, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: block count");
    assert_eq!(
        a.total_comparisons(),
        b.total_comparisons(),
        "{what}: comparisons"
    );
    assert_eq!(
        a.total_assignments(),
        b.total_assignments(),
        "{what}: assignments"
    );
    for (x, y) in a.blocks().zip(b.blocks()) {
        assert_eq!(
            a.key_str(x.id),
            b.key_str(y.id),
            "{what}: key of {:?}",
            x.id
        );
        assert_eq!(x.entities, y.entities, "{what}: members of {:?}", x.id);
        assert_eq!(
            x.comparisons, y.comparisons,
            "{what}: comparisons of {:?}",
            x.id
        );
        assert_eq!(
            a.inv_cardinality(x.id).to_bits(),
            b.inv_cardinality(y.id).to_bits(),
            "{what}: 1/‖{:?}‖ bits",
            x.id
        );
    }
    assert_eq!(a.num_entities(), b.num_entities(), "{what}: entities");
    for e in 0..a.num_entities() as u32 {
        assert_eq!(
            a.entity_blocks(EntityId(e)),
            b.entity_blocks(EntityId(e)),
            "{what}: entity_blocks({e})"
        );
    }
}

/// SplitMix64: test inputs that depend on a seed alone.
#[allow(dead_code)]
pub struct SplitMix(pub u64);

#[allow(dead_code)]
impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-enough index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}
