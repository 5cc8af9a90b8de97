//! Workspace walking, allowlist application, and the public entry points.

use crate::config::{glob_match, Config};
use crate::rules::{check_manifest, check_rust, Diagnostic};
use crate::source::scan;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A diagnostic that an allowlist entry suppressed, with its provenance.
#[derive(Clone, Debug)]
pub struct AllowedDiagnostic {
    /// The suppressed diagnostic.
    pub diag: Diagnostic,
    /// Where the suppression came from (`inline` or `lint.toml`).
    pub via: &'static str,
}

/// Lint results for one file or one workspace run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Diagnostics that survived the allowlists, in stable order.
    pub fired: Vec<Diagnostic>,
    /// Diagnostics suppressed by an allowlist entry.
    pub allowed: Vec<AllowedDiagnostic>,
    /// Number of files scanned.
    pub files: usize,
}

/// Lints one Rust source with a workspace-relative `rel` path deciding
/// which rules apply. Public so fixtures can exercise rules against
/// virtual paths.
pub fn lint_rust_source(rel: &str, source: &str, config: &Config) -> Outcome {
    let scanned = scan(source);
    let mut raw = Vec::new();
    check_rust(rel, &scanned, &mut raw);
    let mut outcome = Outcome {
        files: 1,
        ..Outcome::default()
    };
    for d in raw {
        // ML000 (allow hygiene) is never suppressable.
        if d.code == "ML000" {
            outcome.fired.push(d);
            continue;
        }
        let inline = scanned.allows.iter().any(|a| {
            a.has_reason
                && a.rules.iter().any(|r| r == d.rule)
                && ((!a.own_line && a.line == d.line) || (a.own_line && a.line + 1 == d.line))
        });
        if inline {
            outcome.allowed.push(AllowedDiagnostic {
                diag: d,
                via: "inline",
            });
            continue;
        }
        if config_allows(config, &d) {
            outcome.allowed.push(AllowedDiagnostic {
                diag: d,
                via: "lint.toml",
            });
            continue;
        }
        outcome.fired.push(d);
    }
    outcome
}

/// Lints one `Cargo.toml` with a workspace-relative `rel` path.
pub fn lint_manifest_source(rel: &str, text: &str, config: &Config) -> Outcome {
    let mut raw = Vec::new();
    check_manifest(rel, text, &mut raw);
    let mut outcome = Outcome {
        files: 1,
        ..Outcome::default()
    };
    for d in raw {
        if config_allows(config, &d) {
            outcome.allowed.push(AllowedDiagnostic {
                diag: d,
                via: "lint.toml",
            });
        } else {
            outcome.fired.push(d);
        }
    }
    outcome
}

fn config_allows(config: &Config, d: &Diagnostic) -> bool {
    config.allows.iter().any(|a| {
        a.rule == d.rule
            && glob_match(&a.path, &d.path)
            && a.line.map(|l| l == d.line).unwrap_or(true)
    })
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path, config: &Config) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    for rel in collect_files(root)? {
        let text = fs::read_to_string(root.join(&rel))?;
        let mut one = if rel.ends_with("Cargo.toml") {
            lint_manifest_source(&rel, &text, config)
        } else {
            lint_rust_source(&rel, &text, config)
        };
        outcome.fired.append(&mut one.fired);
        outcome.allowed.append(&mut one.allowed);
        outcome.files += 1;
    }
    outcome
        .fired
        .sort_by(|a, b| (&a.path, a.line, a.col, a.code).cmp(&(&b.path, b.line, b.col, b.code)));
    Ok(outcome)
}

/// Workspace-relative paths of everything the lint scans, sorted.
pub fn collect_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files: Vec<String> = Vec::new();
    files.push("Cargo.toml".to_string());
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
            let manifest = c.join("Cargo.toml");
            if manifest.is_file() {
                files.push(rel_of(&manifest, root));
            }
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

/// Loads `lint.toml` from the workspace root (missing file = empty config).
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    if !path.is_file() {
        return Ok(Config::default());
    }
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Config::parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_allow_suppresses_same_and_next_line() {
        let cfg = Config::default();
        let src = "\
fn f(o: Option<u32>) -> u32 {
    // lint:allow(unwrap-in-lib): checked by caller, fixture for engine test
    o.unwrap()
}
";
        let out = lint_rust_source("crates/common/src/x.rs", src, &cfg);
        assert!(out.fired.is_empty(), "{:?}", out.fired);
        assert_eq!(out.allowed.len(), 1);
        assert_eq!(out.allowed[0].via, "inline");
    }

    #[test]
    fn allow_without_reason_fires_ml000_and_original() {
        let cfg = Config::default();
        let src = "fn f(o: Option<u32>) -> u32 {\n    o.unwrap() // lint:allow(unwrap-in-lib)\n}\n";
        let out = lint_rust_source("crates/common/src/x.rs", src, &cfg);
        let codes: Vec<&str> = out.fired.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"ML000"), "{codes:?}");
        assert!(codes.contains(&"ML005"), "{codes:?}");
    }

    #[test]
    fn config_allow_suppresses() {
        let cfg = Config::parse(
            "[[allow]]\nrule = \"unwrap-in-lib\"\npath = \"crates/common/src/*.rs\"\n\
             reason = \"engine test fixture entry\"\n",
        )
        .unwrap();
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
        let out = lint_rust_source("crates/common/src/x.rs", src, &cfg);
        assert!(out.fired.is_empty());
        assert_eq!(out.allowed.len(), 1);
        assert_eq!(out.allowed[0].via, "lint.toml");
    }
}
