//! Cross-crate integration: generator → N-Triples → triple store →
//! snapshot → dataset bridge → full ER pipeline. The result must match
//! running the pipeline on the generator's dataset directly.

use minoan::prelude::*;
use minoan::store::{FrozenStore, TripleStore};

fn store_from_world(world: &minoan::datagen::GeneratedWorld) -> FrozenStore {
    let mut store = TripleStore::new();
    for kb in 0..world.dataset.kb_count() {
        let id = KbId(kb as u16);
        let doc = world.dataset.to_ntriples(id);
        store
            .load_ntriples(&world.dataset.kb(id).name, &doc)
            .expect("valid N-Triples");
    }
    store.freeze()
}

#[test]
fn store_bridge_preserves_the_dataset() {
    let world = generate(&profiles::center_dense(200, 13));
    let frozen = store_from_world(&world);
    let bridged = frozen.to_dataset();
    assert_eq!(bridged.len(), world.dataset.len());
    assert_eq!(bridged.kb_count(), world.dataset.kb_count());
    assert_eq!(bridged.link_count(), world.dataset.link_count());
    // Every original description exists with the same attribute count.
    for e in world.dataset.entities() {
        let uri = world.dataset.uri(e);
        let be = bridged
            .entity_by_uri(uri)
            .unwrap_or_else(|| panic!("{uri} lost in bridge"));
        assert_eq!(
            bridged.description(be).attributes().len(),
            world.dataset.description(e).attributes().len(),
            "{uri} attribute count changed"
        );
    }
}

#[test]
fn resolution_through_store_matches_direct_resolution() {
    let world = generate(&profiles::center_dense(200, 18));
    let frozen = store_from_world(&world);
    let through_store = Pipeline::new(PipelineConfig::default()).run(&frozen.to_dataset());
    let direct = Pipeline::new(PipelineConfig::default()).run(&world.dataset);
    // Entity ids may be permuted by the bridge, so compare set sizes and
    // quality, not raw pairs.
    assert_eq!(through_store.candidates, direct.candidates);
    assert_eq!(
        through_store.resolution.matches.len(),
        direct.resolution.matches.len()
    );
    assert_eq!(
        through_store.resolution.comparisons,
        direct.resolution.comparisons
    );
}

#[test]
fn snapshot_survives_full_round_trip_with_resolution() {
    let world = generate(&profiles::lod_cloud(150, 19));
    let frozen = store_from_world(&world);
    let reloaded = FrozenStore::from_snapshot(&frozen.to_snapshot()).expect("snapshot loads");
    assert_eq!(reloaded.len(), frozen.len());
    let out = Pipeline::new(PipelineConfig::default()).run(&reloaded.to_dataset());
    assert!(
        !out.resolution.matches.is_empty(),
        "resolution through snapshot produced nothing"
    );
}

#[test]
fn stats_reflect_the_generated_regime() {
    // Periphery KBs use proprietary vocabularies; centre KBs share.
    let center = store_from_world(&generate(&profiles::center_dense(150, 23)));
    let periphery = store_from_world(&generate(&profiles::periphery_sparse(150, 23)));
    let c = center.stats();
    let p = periphery.stats();
    assert!(
        p.proprietary_ratio() > c.proprietary_ratio(),
        "periphery must be more proprietary: {} vs {}",
        p.proprietary_ratio(),
        c.proprietary_ratio()
    );
}
