//! Multi-KB resolution across a small LOD cloud, comparing benefit models.
//!
//! Four KBs (two centre, two periphery) describe one world. Each of the
//! paper's benefit models drives its own run under the same small budget;
//! the table shows that each model wins on *its own* quality dimension —
//! the paper's central claim about quality-aware progressive ER.
//!
//! Run with: `cargo run --release --example lod_cloud`

use minoan::prelude::*;

fn main() {
    let world = generate(&profiles::lod_cloud(600, 99));
    println!(
        "LOD cloud: {} KBs / {} descriptions / {} true pairs / {} world links",
        world.dataset.kb_count(),
        world.dataset.len(),
        world.truth.matching_pairs(),
        world.truth.world_links().len()
    );

    // A tight budget: 15% of what the default pipeline would use.
    let full = Pipeline::new(PipelineConfig::default());
    let blocks = full.clean_blocks(full.block(&world.dataset));
    let candidates = full.meta_block(&blocks);
    let budget = (candidates.len() / 7) as u64;
    println!(
        "candidates: {}, budget: {budget} comparisons\n",
        candidates.len()
    );

    let mut table = Table::new(vec![
        "benefit model",
        "recall",
        "attr-compl",
        "entity-cov",
        "rel-compl",
    ]);
    for model in BenefitModel::ALL {
        let config = PipelineConfig {
            resolver: ResolverConfig {
                strategy: Strategy::Progressive(model),
                budget,
                ..Default::default()
            },
            ..Default::default()
        };
        let out = Pipeline::new(config).run(&world.dataset);
        let pts = progressive::progressive_curves(
            &world.dataset,
            &world.truth,
            &out.resolution.trace,
            10,
        );
        let last = pts
            .last()
            .copied()
            .expect("a progressive curve has a final point");
        table.row(vec![
            model.name().into(),
            format!("{:.3}", last.recall),
            format!("{:.3}", last.attr_completeness),
            format!("{:.3}", last.entity_coverage),
            format!("{:.3}", last.rel_completeness),
        ]);
    }
    println!("{table}");
    println!("(each row: final state after the same budget, driven by that benefit model)");
}
