//! Property suite for the flat CSR block-collection layout.
//!
//! Three contracts, on random generated worlds:
//!
//! 1. the string-free counting-sort build
//!    ([`BlockCollection::from_assignments`] via the token/URI builders)
//!    produces collections **identical** to the straightforward reference
//!    build (owned token strings grouped through a hash map, then the
//!    string-keyed `from_groups`), at every thread count;
//! 2. the mask + id-remap purge/filter index passes keep **exactly** what
//!    their specification (`common::cleaning`, rebuilt through
//!    `from_groups`) keeps, in both ER modes, stage by stage and composed;
//! 3. end-to-end pipeline candidate pairs are **bit-identical** across
//!    both execution backends on the new layout, and bit-identical
//!    to candidates computed over a reference-built collection.

mod common;

use common::{assert_collections_identical, cleaning, reference_token_blocking};
use minoan::blocking::collection::KeyAssignments;
use minoan::blocking::{builders, filter, purge, BlockCollection, ErMode};
use minoan::metablocking::ExecutionBackend;
use minoan::prelude::*;
use minoan::rdf::tokenize;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Contract 1 — the CSR counting-sort build equals the reference
    /// string-grouped build, for both key spaces (values only, values ∪
    /// URI infixes) and both ER modes, at thread counts 1/2/4/8.
    #[test]
    fn csr_build_equals_reference_build(seed in 0u64..500, n in 40usize..120) {
        let world = generate(&profiles::center_periphery(n, seed));
        let ds = &world.dataset;
        for mode in [ErMode::CleanClean, ErMode::Dirty] {
            // The values-only key space (no `uri:` keys)...
            assert_collections_identical(
                &builders::token_blocking(ds, mode),
                &reference_token_blocking(ds, mode, false),
                "values-only builder",
            );
            // ...and the paper's token ∪ URI-infix criterion.
            let reference = reference_token_blocking(ds, mode, true);
            // The production builder (auto thread count)...
            let built = builders::token_and_uri_blocking(ds, mode);
            assert_collections_identical(&built, &reference, "builder");
            // ...and the explicit thread sweep over the same assignments.
            for threads in [1usize, 2, 4, 8] {
                let mut asg = KeyAssignments::with_capacity(ds.len());
                let mut buffers = tokenize::TokenBuffers::default();
                for e in ds.entities() {
                    ds.for_each_blocking_token(e, &mut buffers, |tok| asg.push_key(tok));
                    tokenize::uri_infix_tokens_with(ds.uri(e), &mut buffers, |tok| {
                        asg.push_key_prefixed("uri:", tok)
                    });
                    asg.seal_entity();
                }
                let c = BlockCollection::from_assignments_with_threads(ds, mode, asg, threads);
                assert_collections_identical(&c, &reference, &format!("threads={threads}"));
            }
        }
    }

    /// Contract 2 — mask-based purge and filter keep what the
    /// specification keeps, in both ER modes, individually and composed
    /// (purge → filter).
    #[test]
    fn purge_filter_equal_the_spec(seed in 0u64..500, n in 40usize..120) {
        let worlds = [
            (profiles::center_periphery(n, seed), ErMode::CleanClean),
            (profiles::dirty_single(n / 2, seed), ErMode::Dirty),
        ];
        for (profile, mode) in worlds {
            let world = generate(&profile);
            let build = |groups: cleaning::Groups| {
                BlockCollection::from_groups(&world.dataset, mode, groups)
            };
            let blocks = builders::token_blocking(&world.dataset, mode);
            for smoothing in [1.01, purge::DEFAULT_SMOOTHING, 2.0] {
                let fast = purge::purge_with(&blocks, smoothing);
                let (limit, groups) = cleaning::purge(&blocks, smoothing);
                let spec = build(groups);
                prop_assert_eq!(fast.max_comparisons_per_block, limit);
                prop_assert_eq!(fast.purged_blocks, blocks.len() - spec.len());
                let purged = blocks.total_comparisons() - spec.total_comparisons();
                prop_assert_eq!(fast.purged_comparisons, purged);
                let what = format!("{mode:?} purge s={smoothing}");
                assert_collections_identical(&fast.collection, &spec, &what);
            }
            let purged = purge::purge(&blocks).collection;
            for ratio in [0.3, 0.8, 1.0] {
                let spec = build(cleaning::filter(&purged, ratio));
                let what = format!("{mode:?} filter r={ratio}");
                assert_collections_identical(&filter::filter_with(&purged, ratio), &spec, &what);
            }
        }
    }

    /// Contract 3 — pipeline candidates are bit-identical across both
    /// backends on the new layout, and bit-identical to candidates over
    /// the reference-built collection.
    #[test]
    fn pipeline_candidates_bit_identical_across_backends(seed in 0u64..500, n in 40usize..100) {
        let world = generate(&profiles::center_periphery(n, seed));
        let reference = {
            let pipeline = Pipeline::new(PipelineConfig::default());
            let raw = reference_token_blocking(&world.dataset, ErMode::CleanClean, true);
            pipeline.meta_block(&pipeline.clean_blocks(raw))
        };
        for backend in ExecutionBackend::ALL {
            let cfg = PipelineConfig {
                backend,
                workers: Some(3),
                ..Default::default()
            };
            let pipeline = Pipeline::new(cfg);
            let blocks = pipeline.block(&world.dataset);
            let candidates = pipeline.meta_block(&pipeline.clean_blocks(blocks));
            prop_assert_eq!(candidates.len(), reference.len(), "{:?}: count", backend);
            for (c, r) in candidates.iter().zip(&reference) {
                prop_assert_eq!((c.0, c.1), (r.0, r.1), "{:?}: pair", backend);
                prop_assert_eq!(
                    c.2.to_bits(),
                    r.2.to_bits(),
                    "{:?}: weight bits for ({:?},{:?})",
                    backend,
                    c.0,
                    c.1
                );
            }
        }
    }
}

/// A level whose `CC/BC` is exactly the level below's times the
/// smoothing factor is not cut: the scan cuts on a strict improvement.
#[test]
fn purge_cuts_only_on_a_strict_improvement() {
    let mut b = DatasetBuilder::new();
    let (kb_a, kb_b) = (b.add_kb("a", "http://a/"), b.add_kb("b", "http://b/"));
    for i in 0..5 {
        let (kb, name) = if i < 2 { (kb_a, "a") } else { (kb_b, "b") };
        b.add_literal(kb, &format!("http://{name}/{i}"), "http://p", "x");
    }
    let ds = b.build();
    let e = EntityId;
    // ‖b‖ = 1 over 2 members, then 2 × 3 = 6 over 5: CC/BC 1/2, then 7/7.
    let groups = vec![
        ("pair".to_string(), vec![e(0), e(2)]),
        ("all".to_string(), (0..5).map(e).collect()),
    ];
    let blocks = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
    let (limit, kept) = cleaning::purge(&blocks, 2.0);
    assert_eq!(limit, u64::MAX, "0.5 · 2 is not under 1");
    let spec = BlockCollection::from_groups(&ds, ErMode::CleanClean, kept);
    assert_collections_identical(&purge::purge_with(&blocks, 2.0).collection, &spec, "tie");
}

/// Purging must keep member lists byte-for-byte (it only drops whole
/// blocks), so the fast path's slab memcpy is sufficient — pinned here
/// against a semantic drift in `retain_blocks`.
#[test]
fn purge_keeps_surviving_blocks_untouched() {
    let world = generate(&profiles::center_dense(150, 23));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let out = purge::purge(&blocks);
    let mut kept = 0usize;
    for b in blocks.blocks() {
        if b.comparisons <= out.max_comparisons_per_block {
            let nb = out.collection.block(minoan::blocking::BlockId(kept as u32));
            assert_eq!(nb.entities, b.entities);
            assert_eq!(nb.comparisons, b.comparisons);
            assert_eq!(out.collection.key_str(nb.id), blocks.key_str(b.id));
            kept += 1;
        }
    }
    assert_eq!(kept, out.collection.len());
}

/// The filter keep-`k` split must select exactly the full-sort prefix
/// (fewest comparisons first, ties by block id) — the deterministic
/// contract `select_nth_unstable_by_key` has to preserve.
#[test]
fn filter_keeps_the_sorted_prefix_per_entity() {
    let world = generate(&profiles::center_dense(120, 29));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let ratio = 0.5;
    let filtered = filter::filter_with(&blocks, ratio);
    for e in world.dataset.entities() {
        let bs = blocks.entity_blocks(e);
        if bs.is_empty() {
            continue;
        }
        let keep = ((ratio * bs.len() as f64).ceil() as usize).clamp(1, bs.len());
        let mut sorted: Vec<_> = bs.to_vec();
        sorted.sort_by_key(|&b| (blocks.block_comparisons(b), b));
        let expected: std::collections::BTreeSet<&str> =
            sorted[..keep].iter().map(|&b| blocks.key_str(b)).collect();
        // Every retained assignment of e must come from the expected set
        // (blocks can disappear entirely if all their other members
        // dropped them, so subset — not equality — is the invariant).
        for &b in filtered.entity_blocks(e) {
            assert!(
                expected.contains(filtered.key_str(b)),
                "entity {e:?} kept unexpected block {:?}",
                filtered.key_str(b)
            );
        }
    }
}
