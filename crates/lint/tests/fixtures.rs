//! Fixture suite: every rule has one firing and one clean fixture under
//! `lint_fixtures/` (a directory the workspace walker deliberately skips).
//! Firing fixtures assert exact rule codes *and* line numbers so the rules
//! cannot silently drift; clean fixtures pin the sanctioned idiom. The
//! fixtures of the rules stock lints replaced (`ml002*`, `ml006*`,
//! `ml007*`, and `ml005*`'s `unwrap`) are run by `scripts/lint_stock.sh`.
//!
//! Fixtures are linted against *virtual* workspace-relative paths — the
//! path decides which scope lists apply, so e.g. the hot-path fixture is
//! presented as `crates/metablocking/src/kernel.rs`.

use minoan_lint::lint_rust_source;

/// `(code, line)` pairs of surviving diagnostics, in report order.
fn fired(rel: &str, src: &str) -> Vec<(&'static str, u32)> {
    lint_rust_source(rel, src)
        .fired
        .iter()
        .map(|d| (d.code, d.line))
        .collect()
}

#[test]
fn ml000_allow_missing_reason_fires() {
    let src = include_str!("lint_fixtures/ml000_fire.rs");
    // The reason-less escape is itself a diagnostic AND fails to suppress.
    assert_eq!(
        fired("crates/common/src/fixture.rs", src),
        vec![("ML000", 2), ("ML005", 2)]
    );
}

#[test]
fn ml000_clean_allow_suppresses() {
    let src = include_str!("lint_fixtures/ml000_clean.rs");
    let out = lint_rust_source("crates/common/src/fixture.rs", src);
    assert!(out.fired.is_empty(), "{:?}", out.fired);
    assert_eq!(out.allowed.len(), 1);
}

#[test]
fn ml000_escape_that_suppresses_nothing_fires() {
    let src = include_str!("lint_fixtures/ml000_stale_fire.rs");
    // Above a line that no longer fires, and trailing one that never did.
    assert_eq!(
        fired("crates/common/src/fixture.rs", src),
        vec![("ML000", 2), ("ML000", 7)]
    );
}

#[test]
fn ml000_escape_that_suppresses_is_clean() {
    let src = include_str!("lint_fixtures/ml000_stale_clean.rs");
    let out = lint_rust_source("crates/common/src/fixture.rs", src);
    assert!(out.fired.is_empty(), "{:?}", out.fired);
    assert_eq!(out.allowed.len(), 1);
}

#[test]
fn ml001_hot_path_alloc_fires() {
    let src = include_str!("lint_fixtures/ml001_fire.rs");
    assert_eq!(
        fired("crates/metablocking/src/kernel.rs", src),
        vec![("ML001", 2)]
    );
}

#[test]
fn ml001_clean() {
    let src = include_str!("lint_fixtures/ml001_clean.rs");
    assert_eq!(fired("crates/metablocking/src/kernel.rs", src), vec![]);
}

#[test]
fn ml001_case_conversion_fires_in_the_comparison_kernel() {
    let src = include_str!("lint_fixtures/ml001_case_fire.rs");
    // Two patterns on one line are one diagnostic.
    assert_eq!(fired("crates/core/src/matcher.rs", src), vec![("ML001", 2)]);
    // Outside the hot-path list the same source is nobody's business.
    assert_eq!(fired("crates/core/src/rules.rs", src), vec![]);
}

#[test]
fn ml001_case_conversion_clean() {
    let src = include_str!("lint_fixtures/ml001_case_clean.rs");
    assert_eq!(fired("crates/core/src/matcher.rs", src), vec![]);
}

#[test]
fn ml001_per_statement_terms_fire_in_the_text_front_end() {
    let src = include_str!("lint_fixtures/ml001_statement_fire.rs");
    // An owned term per statement, a `format!` per blank label, a sized
    // buffer per literal.
    for hot in [
        "crates/rdf/src/ntriples.rs",
        "crates/rdf/src/dataset/load.rs",
    ] {
        assert_eq!(
            fired(hot, src),
            vec![("ML001", 2), ("ML001", 6), ("ML001", 10)],
            "{hot}"
        );
    }
    // The owned `Triple` API lives in `term.rs`, where copying is the point.
    assert_eq!(fired("crates/rdf/src/term.rs", src), vec![]);
}

#[test]
fn ml001_per_statement_terms_clean() {
    let src = include_str!("lint_fixtures/ml001_statement_clean.rs");
    assert_eq!(fired("crates/rdf/src/ntriples.rs", src), vec![]);
    assert_eq!(fired("crates/rdf/src/dataset/load.rs", src), vec![]);
}

#[test]
fn ml001_per_attribute_heap_objects_fire_in_the_dataset_builder() {
    let src = include_str!("lint_fixtures/ml001_dataset_fire.rs");
    // A boxed copy per attribute value, a lower-cased copy per predicate.
    assert_eq!(
        fired("crates/rdf/src/dataset.rs", src),
        vec![("ML001", 2), ("ML001", 6)]
    );
    // The tokeniser next door is watched through its callers, not here.
    assert_eq!(fired("crates/rdf/src/tokenize.rs", src), vec![]);
}

#[test]
fn ml001_slab_dataset_builder_clean() {
    let src = include_str!("lint_fixtures/ml001_dataset_clean.rs");
    assert_eq!(fired("crates/rdf/src/dataset.rs", src), vec![]);
}

#[test]
fn ml001_per_string_heap_objects_fire_in_the_interner() {
    let src = include_str!("lint_fixtures/ml001_interner_fire.rs");
    // A boxed copy per interned string, a `format!` per prefixed key.
    assert_eq!(
        fired("crates/common/src/interner.rs", src),
        vec![("ML001", 2), ("ML001", 7)]
    );
    // The rest of `common` is not on the token path.
    assert_eq!(fired("crates/common/src/zipf.rs", src), vec![]);
}

#[test]
fn ml001_arena_interner_clean() {
    let src = include_str!("lint_fixtures/ml001_interner_clean.rs");
    assert_eq!(fired("crates/common/src/interner.rs", src), vec![]);
}

#[test]
fn ml003_float_accumulation_fires() {
    let src = include_str!("lint_fixtures/ml003_fire.rs");
    assert_eq!(
        fired("crates/metablocking/src/streaming.rs", src),
        vec![("ML003", 4)]
    );
}

#[test]
fn ml003_pairwise_sum_is_clean() {
    let src = include_str!("lint_fixtures/ml003_clean.rs");
    assert_eq!(fired("crates/metablocking/src/streaming.rs", src), vec![]);
}

#[test]
fn ml005_weak_expect_fires() {
    // The `unwrap` on line 2 is `clippy::unwrap_used`'s.
    let src = include_str!("lint_fixtures/ml005_fire.rs");
    assert_eq!(
        fired("crates/common/src/fixture.rs", src),
        vec![("ML005", 6)]
    );
}

#[test]
fn ml005_descriptive_expect_is_clean() {
    let src = include_str!("lint_fixtures/ml005_clean.rs");
    assert_eq!(fired("crates/common/src/fixture.rs", src), vec![]);
}

#[test]
fn ml008_global_mutable_state_fires_in_library_code() {
    let src = include_str!("lint_fixtures/ml008_fire.rs");
    // An atomic, a lock, a `thread_local!` and the `Cell` it declares, a
    // `OnceLock` inside a function.
    assert_eq!(
        fired("crates/fixture/src/state.rs", src),
        [2, 3, 4, 5, 9].map(|line| ("ML008", line))
    );
    // Tests, benches and examples may keep process-global state.
    for exempt in [
        "tests/state.rs",
        "crates/fixture/tests/state.rs",
        "crates/fixture/benches/state.rs",
        "examples/state.rs",
    ] {
        assert_eq!(fired(exempt, src), vec![], "{exempt}");
    }
}

#[test]
fn ml008_immutable_statics_and_test_state_are_clean() {
    let src = include_str!("lint_fixtures/ml008_clean.rs");
    assert_eq!(fired("crates/fixture/src/state.rs", src), vec![]);
}
