//! Blocking-method showdown: every blocker family on both LOD regimes.
//!
//! Exact token blocking is the paper's workhorse for the highly-similar
//! centre of the LOD cloud; this example shows where the fuzzy families
//! (q-grams, LSH, sorted neighborhood, canopy) earn their extra
//! comparisons — the noisy, "somehow similar" periphery — and what block
//! cleaning (purge → filter) leaves of the paper's default method.
//!
//! Run with: `cargo run --release --example blocker_showdown`

use minoan::blocking::{CanopyConfig, LshConfig, Method};
use minoan::common::default_threads;
use minoan::prelude::*;

/// Prints one table row: block count, comparisons, and the pair
/// completeness (PC) and quality (PQ) of the blocks' distinct pairs.
fn row(name: &str, world: &minoan::datagen::GeneratedWorld, blocks: &BlockCollection) {
    let pairs = blocks.distinct_pairs();
    let found = pairs
        .iter()
        .filter(|&&(a, b)| world.truth.is_match(a, b))
        .count();
    let pc = found as f64 / world.truth.matching_pairs() as f64;
    let pq = if pairs.is_empty() {
        0.0
    } else {
        found as f64 / pairs.len() as f64
    };
    println!(
        "{:<24} {:>8} {:>12} {:>7.3} {:>7.3}",
        name,
        blocks.len(),
        blocks.total_comparisons(),
        pc,
        pq
    );
}

fn main() {
    let threads = default_threads();
    let methods: Vec<(&str, Method)> = vec![
        ("token", Method::Token),
        ("token+uri", Method::TokenAndUri),
        ("qgrams(3)", Method::QGrams(3)),
        ("sorted-neighborhood(6)", Method::SortedNeighborhood(6)),
        ("minhash-lsh", Method::MinHashLsh(LshConfig::default())),
        ("canopy", Method::Canopy(CanopyConfig::default())),
    ];

    for (profile_name, config) in [
        ("center (highly similar)", profiles::center_dense(400, 11)),
        (
            "periphery (somehow similar)",
            profiles::periphery_sparse(400, 11),
        ),
    ] {
        let world = generate(&config);
        println!("=== {profile_name} ===");
        println!(
            "{:<24} {:>8} {:>12} {:>7} {:>7}",
            "method", "blocks", "comparisons", "PC", "PQ"
        );
        for (name, method) in &methods {
            row(
                name,
                &world,
                &method.run(&world.dataset, ErMode::CleanClean, threads),
            );
        }

        // Block cleaning of the default method: purge, then filter.
        let raw = Method::TokenAndUri.run(&world.dataset, ErMode::CleanClean, threads);
        let purged = purge::purge(&raw).collection;
        row("token+uri → purge", &world, &purged);
        row(
            "  → filter(0.8)",
            &world,
            &filter::filter_with(&purged, 0.8),
        );
        println!();
    }
}
