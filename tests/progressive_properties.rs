//! Property-based tests of the progressive engine's invariants over
//! randomised world configurations.

mod common;

use common::resolution_bits;
use minoan::prelude::*;
use proptest::prelude::*;
use proptest::strategy::Strategy as _; // the minoan prelude also exports a `Strategy` enum

/// A small random world configuration: KB regimes, noise and seeds vary.
fn arb_world() -> impl proptest::strategy::Strategy<Value = WorldConfig> {
    (
        1u64..1_000,     // seed
        60usize..140,    // entities
        0.5f64..0.95,    // token overlap
        0.2f64..0.9,     // vocab overlap
        prop::bool::ANY, // second KB periphery?
    )
        .prop_map(|(seed, n, tok, vocab, periphery)| {
            let mut cfg = profiles::center_dense(n, seed);
            cfg.kbs[1].token_overlap = tok;
            cfg.kbs[1].vocab_overlap = vocab;
            cfg.kbs[1].opaque_uris = periphery;
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn budget_never_exceeded_and_trace_consistent(cfg in arb_world(), budget in 0u64..2_000) {
        let world = generate(&cfg);
        let config = PipelineConfig {
            resolver: ResolverConfig { budget, ..Default::default() },
            ..Default::default()
        };
        let out = Pipeline::new(config).run(&world.dataset);
        prop_assert!(out.resolution.comparisons <= budget);
        prop_assert_eq!(out.resolution.trace.comparisons(), out.resolution.comparisons);
        // Matches recorded in the trace agree with the match list.
        prop_assert_eq!(out.resolution.trace.matches(), out.resolution.matches.len());
        // Every match is a comparable cross-KB pair.
        for (a, b, score) in &out.resolution.matches {
            prop_assert!(a < b);
            prop_assert!(world.dataset.kb_of(*a) != world.dataset.kb_of(*b));
            prop_assert!((0.0..=1.0 + 1e-9).contains(score));
        }
    }

    #[test]
    fn clusters_partition_matched_entities(cfg in arb_world()) {
        let world = generate(&cfg);
        let out = Pipeline::new(PipelineConfig::default()).run(&world.dataset);
        let mut seen = std::collections::HashSet::new();
        for cluster in &out.resolution.clusters {
            prop_assert!(cluster.len() >= 2);
            for &m in cluster {
                prop_assert!(seen.insert(m), "entity {m} in two clusters");
            }
        }
        // Every matched endpoint appears in some cluster.
        let clustered: std::collections::HashSet<u32> =
            out.resolution.clusters.iter().flatten().copied().collect();
        for (a, b, _) in &out.resolution.matches {
            prop_assert!(clustered.contains(&a.0));
            prop_assert!(clustered.contains(&b.0));
        }
    }

    #[test]
    fn progressive_curves_invariants(cfg in arb_world()) {
        let world = generate(&cfg);
        let out = Pipeline::new(PipelineConfig::default()).run(&world.dataset);
        let pts = progressive::progressive_curves(&world.dataset, &world.truth, &out.resolution.trace, 8);
        prop_assert!(!pts.is_empty());
        for w in pts.windows(2) {
            prop_assert!(w[1].comparisons >= w[0].comparisons);
            prop_assert!(w[1].recall + 1e-12 >= w[0].recall);
            prop_assert!(w[1].entity_coverage + 1e-12 >= w[0].entity_coverage);
        }
        let auc = progressive::recall_auc(&pts);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&auc));
    }

    #[test]
    fn meta_blocking_retains_subset_of_graph(cfg in arb_world()) {
        let world = generate(&cfg);
        let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
        let edge_set: std::collections::HashSet<(u32, u32)> =
            blocks.distinct_pairs().iter().map(|&(a, b)| (a.0, b.0)).collect();
        let mut session = Session::new(&blocks);
        for scheme in [WeightingScheme::Cbs, WeightingScheme::Arcs] {
            let pruned = session.scheme(scheme).run();
            prop_assert!(pruned.pairs().len() <= edge_set.len());
            for p in pruned.pairs() {
                prop_assert!(edge_set.contains(&(p.a.0, p.b.0)), "pruning invented an edge");
                prop_assert!(p.weight > 0.0);
            }
        }
    }
}

/// The comparison workers beside the progressive loop change no bit of
/// the resolution: every benefit model, budget, propagation strength and
/// mapping mode resolves the same at 1 (nothing spawned), 2 and 4 threads.
#[test]
fn one_resolution_at_every_worker_count() {
    for world in [
        generate(&profiles::center_dense(250, 5)),
        generate(&profiles::lod_cloud(250, 8)),
    ] {
        let base = Pipeline::new(PipelineConfig::default());
        let candidates = base.meta_block(&base.clean_blocks(base.block(&world.dataset)));
        let run = |resolver: ResolverConfig, workers| {
            let config = PipelineConfig {
                workers: Some(workers),
                resolver,
                ..Default::default()
            };
            let matcher = Matcher::new(&world.dataset, MatcherConfig::default());
            Pipeline::new(config).resolve(&world.dataset, matcher, &candidates)
        };
        let pairs = candidates.len() as u64;
        for model in BenefitModel::ALL {
            for budget in [0, 7, pairs / 5, u64::MAX] {
                for alpha in [0.0, 0.5] {
                    for unique_mapping in [false, true] {
                        let resolver = ResolverConfig {
                            strategy: minoan::prelude::Strategy::Progressive(model),
                            budget,
                            alpha,
                            unique_mapping,
                            ..Default::default()
                        };
                        let label = format!(
                            "{model:?}, budget {budget}, α {alpha}, unique {unique_mapping}"
                        );
                        let inline = resolution_bits(&run(resolver.clone(), 1));
                        assert!(inline.3 <= budget, "{label}");
                        for workers in [2, 4] {
                            let ahead = resolution_bits(&run(resolver.clone(), workers));
                            assert!(ahead == inline, "{label}: {workers} threads moved a bit");
                        }
                    }
                }
            }
        }
    }
}
