//! Helpers shared by the integration suites.

#[allow(dead_code)]
pub mod cleaning;
#[allow(dead_code)]
pub mod coverage;
#[allow(dead_code)]
pub mod resolve_spec;
#[allow(dead_code)]
pub mod spec;

use minoan::blocking::{BlockCollection, ErMode};
use minoan::common::hash::fx_hash_bytes;
use minoan::common::FxHashMap;
use minoan::er::{Resolution, Trace};
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

/// The pairs of a full pruned outcome that mention `e`, in outcome order:
/// what a query-time resolve of `e` must answer.
#[allow(dead_code)]
pub fn incident(pairs: &[WeightedPair], e: EntityId) -> Vec<WeightedPair> {
    pairs
        .iter()
        .filter(|p| p.a == e || p.b == e)
        .copied()
        .collect()
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

/// Every bit of a trace step.
pub type StepBits = (u64, u32, u32, [u64; 3], bool, bool);

/// Every bit of a resolution: trace steps, matches, clusters, counts.
#[allow(dead_code)]
pub type ResolutionBits = (
    Vec<StepBits>,
    Vec<(EntityId, EntityId, u64)>,
    Vec<Vec<u32>>,
    u64,
    usize,
);

#[allow(dead_code)]
pub fn trace_bits(trace: &Trace) -> Vec<StepBits> {
    let steps = trace.steps().iter().map(|s| {
        let floats = [s.value_similarity, s.score, s.benefit].map(f64::to_bits);
        (s.comparison, s.a, s.b, floats, s.matched, s.discovered)
    });
    steps.collect()
}

#[allow(dead_code)]
pub fn resolution_bits(r: &Resolution) -> ResolutionBits {
    let matches = r.matches.iter().map(|&(a, b, s)| (a, b, s.to_bits()));
    (
        trace_bits(&r.trace),
        matches.collect(),
        r.clusters.clone(),
        r.comparisons,
        r.discovered_candidates,
    )
}

/// `fx_hash_bytes` of [`resolution_bits`], little-endian: the counts,
/// every trace step, every match, then every cluster (length first).
#[allow(dead_code)]
pub fn resolution_digest(r: &Resolution) -> u64 {
    let (steps, matches, clusters, comparisons, discovered) = resolution_bits(r);
    let mut bytes = comparisons.to_le_bytes().to_vec();
    bytes.extend((discovered as u64).to_le_bytes());
    for (_, a, b, floats, matched, discovered) in steps {
        bytes.extend(a.to_le_bytes());
        bytes.extend(b.to_le_bytes());
        bytes.extend(floats.iter().flat_map(|f| f.to_le_bytes()));
        bytes.extend([u8::from(matched), u8::from(discovered)]);
    }
    for (a, b, score) in matches {
        bytes.extend(a.0.to_le_bytes());
        bytes.extend(b.0.to_le_bytes());
        bytes.extend(score.to_le_bytes());
    }
    bytes.extend(clusters_bytes(&clusters));
    fx_hash_bytes(&bytes)
}

/// Every cluster, its length first, little-endian.
#[allow(dead_code)]
pub fn clusters_bytes(clusters: &[Vec<u32>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for c in clusters {
        bytes.extend((c.len() as u64).to_le_bytes());
        bytes.extend(c.iter().flat_map(|m| m.to_le_bytes()));
    }
    bytes
}

/// Panics at the first step where `got` and `want` part, unless every
/// bit of the two resolutions is the same.
#[allow(dead_code)]
pub fn assert_same_resolution(got: &Resolution, want: &Resolution, label: &str) {
    let (g, w) = (resolution_bits(got), resolution_bits(want));
    if g == w {
        return;
    }
    let first = g.0.iter().zip(&w.0).position(|(x, y)| x != y);
    let at = first.unwrap_or(g.0.len().min(w.0.len()));
    panic!(
        "{label}: resolutions part at step {at} of {} / {}: {:?} vs {:?}",
        g.0.len(),
        w.0.len(),
        got.trace.steps().get(at),
        want.trace.steps().get(at),
    );
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
