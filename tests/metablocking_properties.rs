//! Cross-crate property tests on meta-blocking invariants, over generated
//! worlds of varying shape.

use minoan::prelude::*;
use proptest::prelude::*;

fn blocks_for(seed: u64, n: usize) -> BlockCollection {
    let world = generate(&profiles::center_periphery(n, seed));
    builders::token_blocking(&world.dataset, ErMode::CleanClean)
}

/// One session run of `scheme` × `pruning` over `blocks`.
fn run(blocks: &BlockCollection, scheme: WeightingScheme, pruning: Pruning) -> PruneOutcome {
    Session::new(blocks).scheme(scheme).pruning(pruning).run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every weighting scheme yields finite, non-negative weights, and the
    /// Jaccard scheme stays within [0, 1].
    #[test]
    fn weights_are_sane(seed in 0u64..300) {
        let blocks = blocks_for(seed, 50);
        for scheme in WeightingScheme::ALL {
            for e in run(&blocks, scheme, Pruning::None).pairs() {
                let w = e.weight;
                prop_assert!(w.is_finite() && w >= 0.0, "{scheme:?} on {e:?} gave {w}");
                if scheme == WeightingScheme::Js {
                    prop_assert!(w <= 1.0 + 1e-12);
                }
            }
        }
    }

    /// Pruning outputs are subsets of the graph's edges; the reciprocal
    /// node-centric variant is a subset of the redundancy variant.
    #[test]
    fn pruning_subset_invariants(seed in 0u64..300) {
        let blocks = blocks_for(seed, 50);
        let all: std::collections::HashSet<(EntityId, EntityId)> =
            blocks.distinct_pairs().into_iter().collect();
        for scheme in [WeightingScheme::Cbs, WeightingScheme::Arcs] {
            let redundancy = run(&blocks, scheme, Pruning::Wnp { reciprocal: false });
            let reciprocal = run(&blocks, scheme, Pruning::Wnp { reciprocal: true });
            let red: std::collections::HashSet<_> =
                redundancy.pairs().iter().map(|p| (p.a, p.b)).collect();
            for p in reciprocal.pairs() {
                prop_assert!(red.contains(&(p.a, p.b)), "reciprocal ⊄ redundancy");
            }
            for p in redundancy.pairs() {
                prop_assert!(all.contains(&(p.a, p.b)), "pruned edge not in graph");
            }
        }
    }

    /// BLAST keeps at most all edges, weights sorted descending, every
    /// retained weight strictly positive.
    #[test]
    fn blast_output_invariants(seed in 0u64..300, ratio in 0.1f64..1.0) {
        let pruned = run(&blocks_for(seed, 40), WeightingScheme::Arcs, Pruning::Blast { ratio });
        prop_assert!(pruned.pairs().len() <= pruned.input_edges());
        prop_assert!(pruned.pairs().windows(2).all(|w| w[0].weight >= w[1].weight));
        prop_assert!(pruned.pairs().iter().all(|p| p.weight > 0.0));
    }

    /// Engine budget safety: for any budget, comparisons ≤ budget and the
    /// trace is exactly as long as the comparison count.
    #[test]
    fn engine_budget_safety(seed in 0u64..200, budget in 0u64..400) {
        let world = generate(&profiles::center_dense(60, seed));
        let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
        // ARCS × WNP candidates, the session defaults.
        let pairs = Session::new(&blocks).run().into_candidates();
        let res = ProgressiveResolver::new(
            &world.dataset,
            Matcher::new(&world.dataset, MatcherConfig::default()),
            ResolverConfig { budget, ..Default::default() },
        )
        .run(&pairs);
        prop_assert!(res.comparisons <= budget);
        prop_assert_eq!(res.trace.comparisons(), res.comparisons);
        // Every accepted match appears in the trace as a matched step.
        let matched_steps = res.trace.steps().iter().filter(|s| s.matched).count();
        prop_assert!(res.matches.len() <= matched_steps);
    }
}
