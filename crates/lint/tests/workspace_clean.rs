//! Self-check: the real workspace must stay clean under `--deny` semantics.
//! This is the same walk the CI gate runs, so a violation anywhere in the
//! tree fails this test with the full diagnostic list.

use minoan_lint::lint_workspace;
use std::path::Path;

#[test]
fn real_workspace_is_clean_under_deny() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = lint_workspace(&root).expect("workspace sources must be readable");
    assert!(
        out.fired.is_empty(),
        "workspace is not lint-clean:\n{}",
        out.fired
            .iter()
            .map(|d| format!(
                "{}:{}:{}: {} [{}] {}",
                d.path, d.line, d.col, d.code, d.rule, d.message
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk actually covered the tree and met the escapes.
    assert!(out.files > 100, "walked only {} files", out.files);
    assert!(!out.allowed.is_empty());
}
