//! Workspace walking, inline-escape application, and the public entry
//! points.

use crate::rules::{check_rust, diag, rule_by_name, Diagnostic};
use crate::source::scan;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lint results for one file or one workspace run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Diagnostics that no escape suppressed, in stable order.
    pub fired: Vec<Diagnostic>,
    /// Diagnostics suppressed by a `lint:allow` escape.
    pub allowed: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files: usize,
}

/// Lints one Rust source with a workspace-relative `rel` path deciding
/// which rules apply. Public so fixtures can exercise rules against
/// virtual paths.
pub fn lint_rust_source(rel: &str, source: &str) -> Outcome {
    let scanned = scan(source);
    let mut raw = Vec::new();
    check_rust(rel, &scanned, &mut raw);
    let mut outcome = Outcome {
        files: 1,
        ..Outcome::default()
    };
    // `(escape index, rule)` of every inline escape that suppressed a
    // diagnostic.
    let mut used: Vec<(usize, &str)> = Vec::new();
    for d in raw {
        // ML000 (allow hygiene) is never suppressable.
        if d.code == "ML000" {
            outcome.fired.push(d);
            continue;
        }
        let inline = scanned.allows.iter().position(|a| {
            a.has_reason
                && a.rules.iter().any(|r| r == d.rule)
                && ((!a.own_line && a.line == d.line) || (a.own_line && a.line + 1 == d.line))
        });
        if let Some(i) = inline {
            used.push((i, d.rule));
            outcome.allowed.push(d);
        } else {
            outcome.fired.push(d);
        }
    }
    // An escape that suppresses nothing outlived the code it excused. A
    // reason-less escape or an unknown rule is already ML000 above.
    for (i, a) in scanned.allows.iter().enumerate() {
        let stale = a.rules.iter().filter(|r| {
            a.has_reason && rule_by_name(r).is_some() && !used.contains(&(i, r.as_str()))
        });
        for r in stale {
            outcome.fired.push(diag(
                rel,
                a.line,
                1,
                "allow-missing-reason",
                format!("lint:allow({r}) suppresses nothing here: remove the escape"),
            ));
        }
    }
    outcome
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    for rel in collect_files(root)? {
        let text = fs::read_to_string(root.join(&rel))?;
        let mut one = lint_rust_source(&rel, &text);
        outcome.fired.append(&mut one.fired);
        outcome.allowed.append(&mut one.allowed);
        outcome.files += 1;
    }
    outcome
        .fired
        .sort_by(|a, b| (&a.path, a.line, a.col, a.code).cmp(&(&b.path, b.line, b.col, b.code)));
    Ok(outcome)
}

/// Workspace-relative paths of every Rust file the lint scans, sorted.
pub fn collect_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files: Vec<String> = Vec::new();
    // Facade sources and workspace-level test/example trees.
    for dir in ["src", "tests", "examples", "benches"] {
        walk_rs(&root.join(dir), root, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for c in crate_dirs {
            for dir in ["src", "tests", "examples", "benches"] {
                walk_rs(&c.join(dir), root, &mut files)?;
            }
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn rel_of(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn walk_rs(dir: &Path, root: &Path, files: &mut Vec<String>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            // Fixture trees deliberately violate rules; target is build junk.
            if name == "lint_fixtures" || name == "target" || name.starts_with('.') {
                continue;
            }
            walk_rs(&path, root, files)?;
        } else if name.ends_with(".rs") {
            files.push(rel_of(&path, root));
        }
    }
    Ok(())
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_allow_suppresses_same_and_next_line() {
        let src = "\
fn f(o: Option<u32>) -> u32 {
    // lint:allow(expect-message): checked by caller, fixture for engine test
    o.expect(\"no\")
}
";
        let out = lint_rust_source("crates/common/src/x.rs", src);
        assert!(out.fired.is_empty(), "{:?}", out.fired);
        assert_eq!(out.allowed.len(), 1);
    }

    #[test]
    fn allow_without_reason_fires_ml000_and_original() {
        let src =
            "fn f(o: Option<u32>) -> u32 {\n    o.expect(\"no\") // lint:allow(expect-message)\n}\n";
        let out = lint_rust_source("crates/common/src/x.rs", src);
        let codes: Vec<&str> = out.fired.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"ML000"), "{codes:?}");
        assert!(codes.contains(&"ML005"), "{codes:?}");
    }
}
