//! Cross-crate property tests on serialisation formats and partition
//! metrics: generated worlds round-trip through Turtle; cluster metrics
//! obey their mathematical invariants.

use minoan::prelude::*;
use minoan::rdf::{ntriples, parse_turtle, turtle};
use proptest::prelude::*;

#[test]
fn generated_worlds_round_trip_through_turtle() {
    for seed in [1u64, 7, 23] {
        let world = generate(&profiles::center_dense(60, seed));
        for kb in 0..world.dataset.kb_count() {
            let id = KbId(kb as u16);
            let nt = world.dataset.to_ntriples(id);
            let triples = ntriples::parse_document(&nt).expect("own N-Triples parse");
            let ttl = turtle::write_turtle(&triples, &[]);
            let reparsed = parse_turtle(&ttl).expect("own Turtle parses");
            // Same triple multiset (order may differ through grouping).
            let mut a: Vec<String> = triples.iter().map(|t| format!("{t:?}")).collect();
            let mut b: Vec<String> = reparsed.iter().map(|t| format!("{t:?}")).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "seed {seed} kb {kb}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cluster metrics: identity is perfect; B-cubed and pairwise F1 stay
    /// in [0,1]; VI is symmetric and non-negative.
    #[test]
    fn cluster_metric_invariants(
        raw in proptest::collection::vec(proptest::collection::vec(0u32..40, 2..5), 0..6)
    ) {
        // Deduplicate members across clusters to get a valid partition.
        let mut seen = std::collections::HashSet::new();
        let clusters: Vec<Vec<u32>> = raw
            .into_iter()
            .map(|c| c.into_iter().filter(|m| seen.insert(*m)).collect::<Vec<u32>>())
            .filter(|c| c.len() >= 2)
            .collect();
        let n = 40usize;
        let perfect = minoan::eval::cluster_quality(n, &clusters, &clusters);
        prop_assert!((perfect.bcubed.f1 - 1.0).abs() < 1e-12);
        prop_assert!(perfect.vi < 1e-9);

        let against_singletons = minoan::eval::cluster_quality(n, &clusters, &[]);
        for v in [
            against_singletons.pairwise.f1,
            against_singletons.bcubed.precision,
            against_singletons.bcubed.recall,
        ] {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
        prop_assert!(against_singletons.vi >= 0.0);
    }

    /// Every blocking method produces collections whose invariants hold:
    /// distinct pairs are comparable and counted consistently.
    #[test]
    fn blocking_collection_invariants(seed in 0u64..200) {
        use minoan::blocking::{LshConfig, Method};
        let world = generate(&profiles::center_dense(40, seed));
        for method in [Method::Token, Method::QGrams(3), Method::MinHashLsh(LshConfig::default())] {
            let c = method.run(&world.dataset, ErMode::CleanClean, 2);
            let pairs = c.distinct_pairs();
            for &(a, b) in &pairs {
                prop_assert!(a < b);
                prop_assert!(world.dataset.kb_of(a) != world.dataset.kb_of(b));
            }
            prop_assert!(pairs.len() as u64 <= c.total_comparisons());
        }
    }
}
