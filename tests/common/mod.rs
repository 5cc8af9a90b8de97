//! Helpers shared by the integration suites.

#![expect(dead_code, reason = "each test binary uses a subset")]

pub mod cleaning;
pub mod coverage;
pub mod resolve_spec;
pub mod spec;

use minoan::blocking::builders::TokenKeys;
use minoan::blocking::{BlockCollection, Corpus, ErMode};
use minoan::common::hash::fx_hash_bytes;
use minoan::er::{Resolution, Trace};
use minoan::metablocking::{
    ExecutionBackend, IncrementalSession, Perceptron, PrunedComparisons, Pruning, Session,
    WeightedPair, WeightingScheme,
};
use minoan::rdf::{tokenize, Dataset, EntityId};
use spec::Spec;
use std::collections::{BTreeMap, BTreeSet};

/// One way to reach the meta-blocking rules, holding the session it
/// drives at its scheme × pruning, backend and workers.
pub enum Driver<'s, 'd> {
    /// [`Session::run`].
    Session(&'s mut Session<'d>),
    /// [`IncrementalSession::outcome`].
    Outcome(&'s mut IncrementalSession<'d>),
    /// [`IncrementalSession::resolve_entity`] of each probe in turn.
    Resolve(&'s mut IncrementalSession<'d>, &'s [EntityId]),
}

impl Driver<'_, '_> {
    /// What the driver keeps now.
    pub fn keeps(self) -> PrunedComparisons {
        match self {
            Driver::Session(session) => session.run().pruned,
            Driver::Outcome(inc) => inc.outcome().pruned,
            Driver::Resolve(inc, probes) => slices(probes, |e| {
                let answer = inc.resolve_entity(e);
                assert_eq!(answer.entity, e);
                answer.matches
            }),
        }
    }
}

/// Each probe's pairs in turn, concatenated, with no input-edge count.
fn slices(probes: &[EntityId], of: impl FnMut(EntityId) -> Vec<WeightedPair>) -> PrunedComparisons {
    let pairs = probes.iter().copied().flat_map(of).collect();
    let input_edges = 0;
    PrunedComparisons { pairs, input_edges }
}

/// The one property every driver is checked by: `driver` keeps what the
/// full outcome `want` keeps — the specification's, or a from-scratch
/// session's — as the driver reads it: all of it, or each probe's
/// incident slice. Returns the [`digest`] of what it kept.
pub fn assert_driver_keeps(driver: Driver, want: &PrunedComparisons, label: &str) -> u64 {
    let read = match &driver {
        Driver::Resolve(_, probes) => Some(slices(probes, |e| incident(&want.pairs, e))),
        _ => None,
    };
    let got = driver.keeps();
    assert_bit_identical(&got, read.as_ref().unwrap_or(want), label);
    digest(&got)
}

/// A weighting scheme and a pruning family.
pub type Rule = (WeightingScheme, Pruning);

/// A supervised pruner with fixed weights, for the streams that need no
/// trained model.
pub const FIXED_MODEL: Pruning = Pruning::Supervised(Perceptron {
    weights: [0.5, 0.5, 0.5, 0.5, 0.5, -0.5, 0.5],
    bias: -0.5,
});

/// CNP with reciprocal or union votes, at cardinality `k` (`None`: the
/// default).
pub const fn cnp(reciprocal: bool, k: Option<usize>) -> Pruning {
    Pruning::Cnp { reciprocal, k }
}

/// The family variants of [`coverage::families`] on `spec`'s world.
pub fn every_family(spec: &Spec) -> Vec<Pruning> {
    let families = coverage::families(spec.num_edges()).into_iter();
    families.map(|(_, pruning)| pruning).collect()
}

/// Every scheme × each of `families`, labelled, with what the
/// specification keeps.
pub fn spec_cases(spec: &Spec, families: &[Pruning]) -> Vec<(String, Rule, PrunedComparisons)> {
    let mut cases = Vec::new();
    for scheme in WeightingScheme::ALL {
        for &p in families {
            let label = format!("{scheme:?}/{p:?}");
            cases.push((label, (scheme, p), spec.run(scheme, p)));
        }
    }
    cases
}

/// One session per backend × worker count on `blocks`, swept over every
/// scheme × each of the `families` chosen on the blocks' specification:
/// each run keeps what the specification keeps.
pub fn assert_sweeps_keep_the_spec(
    what: &str,
    blocks: &BlockCollection,
    families: impl FnOnce(&Spec) -> Vec<Pruning>,
    backends: &[ExecutionBackend],
    workers: &[usize],
) {
    let spec = Spec::of(blocks);
    let cases = spec_cases(&spec, &families(&spec));
    for &backend in backends {
        for &w in workers {
            let mut session = Session::new(blocks);
            session.backend(backend).workers(w);
            for (label, (scheme, family), want) in &cases {
                let driver = Driver::Session(session.scheme(*scheme).pruning(*family));
                assert_driver_keeps(driver, want, &format!("{what}/{backend:?}/{label}/w={w}"));
            }
        }
    }
}

/// What a from-scratch streaming [`Session`] keeps under `rule` on the
/// descriptions `inc` has ingested.
pub fn from_scratch(inc: &IncrementalSession, (scheme, pruning): Rule) -> PrunedComparisons {
    let blocks = inc.snapshot();
    let run = Session::new(&blocks).scheme(scheme).pruning(pruning).run();
    run.pruned
}

/// `fx_hash_bytes` of `input_edges` then every kept `(a, b, weight bits)`,
/// little-endian.
pub fn digest(out: &PrunedComparisons) -> u64 {
    let mut bytes = (out.input_edges as u64).to_le_bytes().to_vec();
    for p in &out.pairs {
        bytes.extend(p.a.0.to_le_bytes());
        bytes.extend(p.b.0.to_le_bytes());
        bytes.extend(p.weight.to_bits().to_le_bytes());
    }
    fx_hash_bytes(&bytes)
}

/// A stream's digest chain, one batch on: `chain` (0 before the first)
/// and the [`digest`] of what `inc` keeps under `rule` — its outcome, or
/// its answers for `probes` — hashed together. With `live`, what it keeps
/// is first asserted equal to what [`from_scratch`] keeps.
pub fn fold(
    chain: u64,
    inc: &mut IncrementalSession,
    rule: Rule,
    probes: Option<&[EntityId]>,
    (live, label): (bool, &str),
) -> u64 {
    let want = live.then(|| from_scratch(inc, rule));
    let driver = match probes {
        Some(probes) => Driver::Resolve(inc, probes),
        None => Driver::Outcome(inc),
    };
    let link = match want {
        Some(want) => assert_driver_keeps(driver, &want, label),
        None => digest(&driver.keeps()),
    };
    fx_hash_bytes(&[chain.to_le_bytes(), link.to_le_bytes()].concat())
}

/// Panics unless the chain of every case is the one pinned in `table`,
/// whose chains are written in hex, five to a line. `chain(case, live)`
/// drives a case's stream through [`fold`]. A chain that misses its pin
/// is driven again live, which panics at the first batch and pair that
/// differ from a from-scratch session; if none does, the reference itself
/// moved (or a case has no pin yet), and the current table is printed.
/// With `live`, every case is driven live: how the pins are recorded.
pub fn assert_chains<C>(
    name: &str,
    cases: &[C],
    table: &str,
    live: bool,
    chain: impl Fn(&C, bool) -> u64,
) {
    let pinned: Vec<String> = table.split_whitespace().map(String::from).collect();
    let got: Vec<String> = cases
        .iter()
        .enumerate()
        .map(|(k, case)| match format!("{:016x}", chain(case, live)) {
            c if live || pinned.get(k) == Some(&c) => c,
            _ => format!("{:016x}", chain(case, true)),
        })
        .collect();
    if got != pinned {
        let row = |r: &[String]| format!("    {}\n", r.join(" "));
        let rows: String = got.chunks(5).map(row).collect();
        let why = "every batch agrees with a from-scratch session, not every chain with its pin";
        panic!("{name}: {why}; the current table:\n{rows}");
    }
}

/// CEP at the cardinalities where a selection can go wrong: one and two
/// edges, one short of every edge, exactly every edge, one more than
/// there are, and the default budget. Under an integer-valued scheme
/// (CBS) the small ones cut inside a class of equal weights, where only
/// the pair tie-break decides what is kept.
pub fn cep_cardinalities(num_edges: usize) -> [Pruning; 6] {
    let v = num_edges;
    [Some(1), Some(2), Some(v - 1), Some(v), Some(v + 1), None].map(Pruning::Cep)
}

/// Bit-identity over bare pair lists: same pairs in the same order with
/// the same f64 weight bits.
pub fn assert_pairs_bit_identical(a: &[WeightedPair], b: &[WeightedPair], label: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!((x.a, x.b), (y.a, y.b), "{label}: pair {i}");
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
    assert_eq!(a.len(), b.len(), "{label}: kept count");
}

/// The pairs of a full pruned outcome that mention `e`, in outcome order:
/// what a query-time resolve of `e` must answer.
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
pub fn assert_bit_identical(a: &PrunedComparisons, b: &PrunedComparisons, label: &str) {
    assert_eq!(a.input_edges, b.input_edges, "{label}: input_edges");
    assert_pairs_bit_identical(&a.pairs, &b.pairs, label);
}

/// The reference (legacy) build the string-free path is pinned against:
/// one owned `String` per token occurrence, grouped through an ordered map,
/// then the string-keyed `from_groups` — with `with_uri`, the paper's
/// token ∪ URI-infix criterion (`uri:`-prefixed key space, like
/// `token_and_uri_blocking`), otherwise value tokens only.
pub fn reference_token_blocking(
    dataset: &Dataset,
    mode: ErMode,
    with_uri: bool,
) -> BlockCollection {
    let mut groups: BTreeMap<String, Vec<EntityId>> = BTreeMap::new();
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
    BlockCollection::from_groups(dataset, mode, groups.into_iter().collect())
}

/// The one observable-identity oracle for block collections (blocks, key
/// strings, member slices, comparison counts, reciprocal bits, inverted
/// index): panics unless `a` and `b` are observably identical.
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

/// Each entity's value tokens — the keys of the arrival driver's blocks,
/// as `resolve_spec::candidates` reads them.
pub fn value_keys(dataset: &Dataset) -> Vec<BTreeSet<u32>> {
    let corpus = Corpus::new(dataset, TokenKeys::Values, 1);
    let runs = corpus.value_tokens();
    runs.map(|run| run.map(|s| s.0).collect()).collect()
}

/// Every bit of a trace step.
pub type StepBits = (u64, u32, u32, [u64; 3], bool, bool);

/// Every bit of a resolution: trace steps, matches, clusters, counts.
pub type ResolutionBits = (
    Vec<StepBits>,
    Vec<(EntityId, EntityId, u64)>,
    Vec<Vec<u32>>,
    u64,
    usize,
);

pub fn trace_bits(trace: &Trace) -> Vec<StepBits> {
    let steps = trace.steps().iter().map(|s| {
        let floats = [s.value_similarity, s.score, s.benefit].map(f64::to_bits);
        (s.comparison, s.a, s.b, floats, s.matched, s.discovered)
    });
    steps.collect()
}

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
pub struct SplitMix(pub u64);

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
