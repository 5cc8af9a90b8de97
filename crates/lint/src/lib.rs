//! `minoan-lint` — first-party static analysis for the MinoanER workspace.
//!
//! Clippy and Cargo carry every invariant a stock lint can state (the
//! workspace `[lints]` table in `Cargo.toml`, `clippy.toml`, and
//! `scripts/lint_stock.sh` for the manifests). This crate keeps the rest:
//! rules scoped to named modules or stating facts no stock lint reads. Its
//! comment- and string-literal-aware Rust scanner walks every workspace
//! `crates/*/src` (and `tests/`, `examples/`, `benches/`) tree and emits
//! `file:line:col` diagnostics with stable rule codes. A deliberate
//! exception is an inline `// lint:allow(rule): reason` escape, which
//! *requires* a written justification.
//!
//! | code  | rule                  | invariant |
//! |-------|-----------------------|-----------|
//! | ML000 | `allow-missing-reason` | an inline escape gives a reason, names a known rule and suppresses something (unsuppressable) |
//! | ML001 | `hot-path-alloc`      | no per-token `String`/`format!` in hot-path modules |
//! | ML003 | `float-accumulation`  | float reductions in thread-parallel modules go through `stats::pairwise_sum` |
//! | ML005 | `expect-message`      | a library `expect` states the invariant that failed |
//! | ML008 | `global-mutable-state` | library code keeps no process-global mutable state |

pub mod engine;
pub mod rules;
pub mod source;

pub use engine::{collect_files, find_root, lint_rust_source, lint_workspace, Outcome};
pub use rules::{rule_by_name, Diagnostic, RuleInfo, RULES};
