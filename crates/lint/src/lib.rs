//! `minoan-lint` — first-party static analysis for the MinoanER workspace.
//!
//! Custom rustc/clippy lints are impossible offline, so this crate ships
//! its own comment- and string-literal-aware Rust scanner plus a rules
//! engine that walks every workspace `crates/*/src` (and `tests/`,
//! `examples/`, `benches/`) tree and emits `file:line:col` diagnostics
//! with stable rule codes. Deliberate exceptions are recorded either
//! inline (`// lint:allow(rule): reason`) or in `lint.toml` — both forms
//! *require* a written justification.
//!
//! The rules encode the invariants PRs 1–5 established (see
//! `CONTRIBUTING.md` for the full catalogue):
//!
//! | code  | rule                  | invariant |
//! |-------|-----------------------|-----------|
//! | ML001 | `hot-path-alloc`      | no per-token `String`/`format!` in hot-path modules |
//! | ML002 | `hash-order-leak`     | hash iteration order never decides output order |
//! | ML003 | `float-accumulation`  | float reductions go through `stats::pairwise_sum` |
//! | ML005 | `unwrap-in-lib`       | library code propagates errors or explains its expects |
//! | ML006 | `dep-drift`           | dependencies stay inside the workspace / `vendor/` |
//! | ML007 | `forbid-unsafe`       | every crate root carries `#![forbid(unsafe_code)]` |
//! | ML008 | `global-mutable-state` | library code keeps no process-global mutable state |

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod rules;
pub mod source;

pub use config::{glob_match, Config, ConfigAllow};
pub use engine::{
    collect_files, find_root, lint_manifest_source, lint_rust_source, lint_workspace, load_config,
    AllowedDiagnostic, Outcome,
};
pub use rules::{rule_by_name, Diagnostic, RuleInfo, RULES};

// Internal convenience used by the manifest rule.
pub(crate) use config::strip_toml_comment as config_strip_comment;
