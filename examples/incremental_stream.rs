//! Incremental (pay-as-you-go) resolution over a streaming feed.
//!
//! Descriptions arrive one at a time in four realistic orders; each arrival
//! does a bounded amount of work. The example prints how stream shape
//! affects quality and cost, and compares against the batch pipeline.
//!
//! Run with: `cargo run --release --example incremental_stream`

use minoan::blocking::builders::TokenKeys;
use minoan::blocking::Corpus;
use minoan::datagen::ArrivalOrder;
use minoan::er::{IncrementalConfig, IncrementalResolver};
use minoan::prelude::*;
use std::sync::Arc;

fn main() {
    let world = generate(&profiles::center_dense(600, 7));
    // One token pass over the universe, read by the matcher and by every
    // resolver below.
    let threads = minoan::common::default_threads();
    let corpus = Arc::new(Corpus::new(&world.dataset, TokenKeys::Values, threads));
    let matcher = Matcher::from_corpus(&corpus, MatcherConfig::default());
    println!(
        "{} descriptions streaming in, {} ground-truth pairs\n",
        world.dataset.len(),
        world.truth.matching_pairs()
    );

    println!(
        "{:<18} {:>12} {:>10} {:>8} {:>8}",
        "arrival order", "comparisons", "precision", "recall", "clusters"
    );
    for order in ArrivalOrder::all(7) {
        let mut resolver = IncrementalResolver::from_corpus(
            Arc::clone(&corpus),
            &matcher,
            IncrementalConfig {
                budget_per_arrival: 10,
                ..Default::default()
            },
        );
        resolver.arrive_all(order.order(&world.dataset, &world.truth));
        let res = resolver.resolution();
        let pairs: Vec<_> = res.matches.iter().map(|&(a, b, _)| (a, b)).collect();
        let q = metrics::match_quality(&world.truth, &pairs);
        println!(
            "{:<18} {:>12} {:>10.3} {:>8.3} {:>8}",
            order.name(),
            res.comparisons,
            q.precision,
            q.recall,
            res.clusters.len()
        );
    }

    // Batch reference: the full pipeline over the same data.
    let out = Pipeline::new(PipelineConfig::default()).run(&world.dataset);
    let q = metrics::resolution_quality(&world.truth, &out.resolution);
    println!(
        "{:<18} {:>12} {:>10.3} {:>8.3} {:>8}",
        "batch reference",
        out.resolution.comparisons,
        q.precision,
        q.recall,
        out.resolution.clusters.len()
    );
}
