//! The token pass: one tokenise-and-intern sweep that block building and
//! the matcher both read.
//!
//! Two contracts:
//!
//! 1. [`token_pass`] returns the same interner (strings in symbol order),
//!    the same sealed runs and the same value/URI marking for every thread
//!    count — and those are what a written-out serial loop produces;
//! 2. [`Pipeline::run`], which shares one pass between the block build and
//!    the matcher where the blocking method allows it, equals the staged
//!    composition `block → clean_blocks → meta_block → Matcher::new →
//!    ProgressiveResolver::run` bit for bit, for every blocking method in
//!    both ER modes and for every worker count.

use minoan::blocking::builders::{token_pass, TokenKeys};
use minoan::blocking::KeyAssignments;
use minoan::er::pipeline::BlockingMethod;
use minoan::prelude::*;
use minoan::rdf::tokenize::{self, TokenBuffers};

/// Everything observable of a pass: strings by symbol, runs by entity,
/// marking by symbol.
type Observed = (Vec<String>, Vec<Vec<u32>>, Vec<bool>);

fn observe(pass: &KeyAssignments) -> Observed {
    let strings = pass.keys().iter().map(|(_, s)| s.to_string()).collect();
    let runs = pass
        .runs()
        .map(|run| run.iter().map(|s| s.0).collect())
        .collect();
    let marking = pass
        .keys()
        .iter()
        .map(|(sym, _)| pass.is_namespaced(sym))
        .collect();
    (strings, runs, marking)
}

/// The pass as the builders wrote it before there was one function for it.
fn serial_loop(ds: &Dataset, keys: TokenKeys) -> KeyAssignments {
    let mut asg = KeyAssignments::with_capacity(ds.len());
    let mut buffers = TokenBuffers::default();
    for e in ds.entities() {
        if keys != TokenKeys::Uris {
            ds.for_each_blocking_token(e, &mut buffers, |tok| asg.push_key(tok));
        }
        if keys != TokenKeys::Values {
            tokenize::uri_infix_tokens_with(ds.uri(e), &mut buffers, |tok| {
                asg.push_key_prefixed("uri:", tok)
            });
        }
        asg.seal_entity();
    }
    asg
}

#[test]
fn the_pass_is_the_serial_loop_at_every_thread_count() {
    let worlds = [
        ("lod", profiles::lod_cloud(600, 31)),
        ("periphery", profiles::periphery_sparse(600, 32)),
        ("dirty", profiles::dirty_single(500, 33)),
        // Smaller than most of the thread counts below.
        ("tiny", profiles::center_dense(5, 34)),
    ];
    for (name, config) in worlds {
        let ds = generate(&config).dataset;
        for keys in [TokenKeys::Values, TokenKeys::Uris, TokenKeys::Both] {
            let want = observe(&serial_loop(&ds, keys));
            let (strings, runs, marking) = &want;
            assert_eq!(runs.len(), ds.len());
            assert!(runs.iter().all(|r| r.windows(2).all(|w| w[0] < w[1])));
            // Value tokens are plain, `uri:` keys namespaced, and a value
            // token never looks like a key of another namespace.
            for (s, &namespaced) in strings.iter().zip(marking) {
                assert_eq!(s.starts_with("uri:"), namespaced, "{name}: {s}");
                assert_eq!(s.contains(':'), namespaced, "{name}: {s}");
            }
            for threads in [1usize, 2, 3, 8, 64] {
                let got = observe(&token_pass(&ds, keys, threads));
                assert!(got == want, "{name} {keys:?} at {threads} threads");
            }
        }
    }
    let empty = DatasetBuilder::new().build();
    let pass = token_pass(&empty, TokenKeys::Both, 8);
    assert_eq!((pass.num_entities(), pass.num_assignments()), (0, 0));
}

fn step_bits(r: &Resolution) -> Vec<(u64, u32, u32, [u64; 3], bool, bool)> {
    r.trace
        .steps()
        .iter()
        .map(|s| {
            let floats = [s.value_similarity, s.score, s.benefit].map(f64::to_bits);
            (s.comparison, s.a, s.b, floats, s.matched, s.discovered)
        })
        .collect()
}

fn assert_same_resolution(a: &Resolution, b: &Resolution, label: &str) {
    let match_bits = |r: &Resolution| -> Vec<(EntityId, EntityId, u64)> {
        r.matches
            .iter()
            .map(|m| (m.0, m.1, m.2.to_bits()))
            .collect()
    };
    assert_eq!(match_bits(a), match_bits(b), "{label}: matches");
    assert_eq!(a.comparisons, b.comparisons, "{label}: comparisons");
    assert_eq!(
        a.discovered_candidates, b.discovered_candidates,
        "{label}: discovered"
    );
    assert_eq!(step_bits(a), step_bits(b), "{label}: trace");
    assert_eq!(a.clusters, b.clusters, "{label}: clusters");
}

const METHODS: [BlockingMethod; 5] = [
    BlockingMethod::Token,
    BlockingMethod::UriInfix,
    BlockingMethod::TokenAndUri,
    BlockingMethod::AttributeClustering,
    BlockingMethod::QGrams,
];

#[test]
fn run_equals_the_staged_composition_for_every_method_and_mode() {
    let worlds = [
        (ErMode::CleanClean, profiles::lod_cloud(160, 41)),
        (ErMode::Dirty, profiles::dirty_single(120, 42)),
    ];
    for (mode, world) in worlds {
        let ds = generate(&world).dataset;
        for blocking in METHODS {
            // Two workers: the shared pass is split and the matcher is
            // finished beside the chain. One worker is the base of the
            // worker-count test below.
            let label = format!("{mode:?} {blocking:?}");
            let config = PipelineConfig {
                mode,
                blocking,
                workers: Some(2),
                ..Default::default()
            };
            let pipeline = Pipeline::new(config.clone());
            let out = pipeline.run(&ds);

            let raw = pipeline.block(&ds);
            assert_eq!(
                out.blocks_raw,
                (raw.len(), raw.total_comparisons()),
                "{label}"
            );
            let clean = pipeline.clean_blocks(raw);
            assert_eq!(
                out.blocks_clean,
                (clean.len(), clean.total_comparisons()),
                "{label}"
            );
            let candidates = pipeline.meta_block(&clean);
            assert_eq!(out.candidates, candidates.len(), "{label}");
            let matcher = Matcher::new(&ds, config.matcher);
            let staged = ProgressiveResolver::new(&ds, matcher, config.resolver).run(&candidates);
            assert!(!staged.matches.is_empty(), "{label}: nothing matched");
            assert_same_resolution(&out.resolution, &staged, &label);
        }
    }
}

/// `workers` reaches the token pass and the block build too (it used to
/// stop at purge/filter and the sweeps), and still changes nothing.
#[test]
fn run_is_the_same_at_every_worker_count() {
    // Large enough for the pass to split eight ways: 9 370 attribute slots,
    // at least 1 024 to a range.
    let ds = generate(&profiles::lod_cloud(300, 43)).dataset;
    // Every method whose blocks or matcher come out of a token pass.
    for blocking in &METHODS[..4] {
        let blocking = *blocking;
        let run = |workers| {
            Pipeline::new(PipelineConfig {
                blocking,
                workers: Some(workers),
                ..Default::default()
            })
            .run(&ds)
        };
        let serial = run(1);
        for workers in [2usize, 3, 8] {
            let label = format!("{blocking:?} workers {workers}");
            let out = run(workers);
            assert_eq!(serial.blocks_raw, out.blocks_raw, "{label}");
            assert_eq!(serial.blocks_clean, out.blocks_clean, "{label}");
            assert_eq!(serial.candidates, out.candidates, "{label}");
            assert_same_resolution(&serial.resolution, &out.resolution, &label);
        }
    }
}
