//! The rule catalogue.
//!
//! Each rule is a scan over the masked source of one file. Rules are
//! deliberately repo-specific: the file lists below name the modules whose
//! invariants no stock lint can scope.

use crate::source::ScannedFile;

/// One diagnostic emitted by a rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (byte-based).
    pub col: u32,
    /// Stable code, e.g. `ML001`.
    pub code: &'static str,
    /// Rule name, e.g. `hot-path-alloc`.
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Static description of a rule.
pub struct RuleInfo {
    /// Stable code.
    pub code: &'static str,
    /// Kebab-case name used in `lint:allow(...)`.
    pub name: &'static str,
}

/// Every rule the engine knows, in code order (the crate docs say what
/// each one checks).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "ML000",
        name: "allow-missing-reason",
    },
    RuleInfo {
        code: "ML001",
        name: "hot-path-alloc",
    },
    RuleInfo {
        code: "ML003",
        name: "float-accumulation",
    },
    RuleInfo {
        code: "ML005",
        name: "expect-message",
    },
    RuleInfo {
        code: "ML008",
        name: "global-mutable-state",
    },
];

/// Looks a rule up by name.
pub fn rule_by_name(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Hot-path modules: no per-token string allocation (ML001). These are the
/// flat-pipeline stages PR 5 made string-free plus the sweep kernels, and
/// the per-request paths of the resolution service (a query must not
/// allocate strings any more than a sweep row may), and the comparison
/// kernel — the matcher and the Jaro/TF-IDF measures it calls — with the
/// progressive loop around it (a comparison recomputes nothing that is a
/// fact of one description), and the text front end (a
/// parsed term is a slice of its line; the loader copies an attribute
/// value once, into the arena of the dataset that keeps it — `dataset.rs`
/// holds the builder's per-attribute entries and that arena), and the
/// interner every token of the block build and of `Matcher::new` goes
/// through (a string is an append to one arena, never a heap object of its
/// own).
const HOT_PATH_FILES: &[&str] = &[
    "crates/common/src/interner.rs",
    "crates/blocking/src/builders.rs",
    "crates/blocking/src/layout.rs",
    "crates/blocking/src/purge.rs",
    "crates/blocking/src/filter.rs",
    "crates/metablocking/src/kernel.rs",
    "crates/metablocking/src/rule.rs",
    "crates/metablocking/src/sweep.rs",
    "crates/metablocking/src/streaming.rs",
    "crates/metablocking/src/parallel.rs",
    "crates/metablocking/src/query.rs",
    "crates/server/src/service.rs",
    "crates/server/src/server.rs",
    "crates/core/src/matcher.rs",
    "crates/core/src/similarity.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/scheduler.rs",
    "crates/core/src/candidates.rs",
    "crates/rdf/src/ntriples.rs",
    "crates/rdf/src/dataset.rs",
    "crates/rdf/src/dataset/load.rs",
];

/// Thread-parallel modules: raw f64 accumulation is suspect (ML003) —
/// cross-thread reductions must go through `stats::pairwise_sum`.
const PARALLEL_FILES: &[&str] = &[
    "crates/blocking/src/layout.rs",
    "crates/blocking/src/parallel.rs",
    "crates/metablocking/src/kernel.rs",
    "crates/metablocking/src/rule.rs",
    "crates/metablocking/src/sweep.rs",
    "crates/metablocking/src/streaming.rs",
    "crates/metablocking/src/parallel.rs",
    "crates/mapreduce/src/engine.rs",
];

/// Crates whose non-test library code must explain its `expect`s (ML005).
const EXPECT_CRATES: &[&str] = &[
    "common",
    "blocking",
    "metablocking",
    "server",
    "core",
    "eval",
];

/// Interior-mutable types a library `static` may not hold (ML008), beside
/// every `Atomic*`.
const SHARED_MUTABLE_TYPES: &[&str] =
    &["Mutex", "RwLock", "OnceLock", "OnceCell", "Cell", "RefCell"];

/// Minimum `.expect("…")` message length ML005 accepts.
const MIN_EXPECT_MSG: usize = 8;

fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

fn in_crate_src(rel: &str) -> bool {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .map(|(_, rest)| rest.starts_with("src/"))
        .unwrap_or(false)
}

/// Whether the *path* denotes test-only compilation units.
pub fn is_test_path(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    parts
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples")
}

/// Runs every source-level rule over one scanned Rust file.
pub fn check_rust(rel: &str, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    let test_path = is_test_path(rel);

    // Inline allows lacking a justification are themselves diagnostics.
    for a in &scanned.allows {
        if !a.has_reason {
            out.push(diag(
                rel,
                a.line,
                1,
                "allow-missing-reason",
                "lint:allow(...) must carry a justification: `// lint:allow(rule): why`"
                    .to_string(),
            ));
        }
        for r in &a.rules {
            if rule_by_name(r).is_none() {
                out.push(diag(
                    rel,
                    a.line,
                    1,
                    "allow-missing-reason",
                    format!("lint:allow names unknown rule `{r}`"),
                ));
            }
        }
    }

    if !test_path {
        if HOT_PATH_FILES.contains(&rel) {
            hot_path_alloc(rel, scanned, out);
        }
        if PARALLEL_FILES.contains(&rel) {
            float_accumulation(rel, scanned, out);
        }
        let in_expect_scope = crate_of(rel)
            .map(|c| EXPECT_CRATES.contains(&c))
            .unwrap_or(false)
            && in_crate_src(rel);
        if in_expect_scope {
            expect_message(rel, scanned, out);
        }
        if in_crate_src(rel) {
            global_mutable_state(rel, scanned, out);
        }
    }

    out.sort_by(|a, b| (a.line, a.col, a.code).cmp(&(b.line, b.col, b.code)));
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
}

pub(crate) fn diag(
    rel: &str,
    line: u32,
    col: u32,
    rule: &'static str,
    message: String,
) -> Diagnostic {
    let info = rule_by_name(rule).expect("rule names are static and known");
    Diagnostic {
        path: rel.to_string(),
        line,
        col,
        code: info.code,
        rule: info.name,
        message,
    }
}

/// Byte offsets of `needle` in `hay`.
fn find_all(hay: &str, needle: &str) -> Vec<usize> {
    let mut offs = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = hay[from..].find(needle) {
        offs.push(from + rel);
        from += rel + needle.len();
    }
    offs
}

/// Byte offsets where `name` occurs as a whole identifier.
fn find_ident(hay: &str, name: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    find_all(hay, name)
        .into_iter()
        .filter(|&off| {
            let before_ok = off == 0 || !is_ident(bytes[off - 1]);
            let after = off + name.len();
            let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
            before_ok && after_ok
        })
        .collect()
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// ML001 — string allocation patterns in hot-path modules.
fn hot_path_alloc(rel: &str, s: &ScannedFile, out: &mut Vec<Diagnostic>) {
    const PATTERNS: &[(&str, &str)] = &[
        ("format!", "`format!` allocates a String per call"),
        (".to_string()", "`.to_string()` allocates a String per call"),
        (
            "String::new(",
            "`String::new()` allocates in a hot-path module",
        ),
        (
            "String::with_capacity(",
            "`String::with_capacity` allocates in a hot-path module",
        ),
        (
            ".to_owned()",
            "`.to_owned()` allocates in a hot-path module",
        ),
        (
            "String::from(",
            "`String::from` allocates in a hot-path module",
        ),
        (
            ".to_lowercase()",
            "`.to_lowercase()` allocates a String per call",
        ),
        (
            ".to_uppercase()",
            "`.to_uppercase()` allocates a String per call",
        ),
    ];
    for (pat, why) in PATTERNS {
        for off in find_all(&s.masked, pat) {
            if s.in_test(off) {
                continue;
            }
            let (line, col) = s.line_col(off);
            out.push(diag(
                rel,
                line,
                col,
                "hot-path-alloc",
                format!("{why} — hot paths must stay allocation-free (intern or reuse a buffer)"),
            ));
        }
    }
}

/// Identifiers annotated with an `f64` type — scalar, reference, slice,
/// `Vec` or `Box` — as a binding, a parameter or a struct field.
fn annotated_floats(s: &ScannedFile) -> Vec<String> {
    const WRAPPERS: &[&str] = &["Vec<", "Box<", "[", "]"];
    let mut names: Vec<String> = Vec::new();
    for off in find_ident(&s.masked, "f64") {
        let (line, col) = s.line_col(off);
        let line_text = s.masked_line(line as usize - 1);
        let before = &line_text[..(col as usize - 1).min(line_text.len())];
        // `NAME: Type`: walk colons right to left, skipping `::` path
        // separators so qualified types (`x: core::primitive::f64`) still
        // resolve.
        let mut end = before.len();
        while let Some(colon) = before[..end].rfind(':') {
            if colon > 0 && before.as_bytes()[colon - 1] == b':' {
                end = colon - 1;
                continue;
            }
            if before[colon + 1..].starts_with(':') {
                end = colon;
                continue;
            }
            let between = before[colon + 1..].trim_start();
            if only_type_prefix(between, WRAPPERS) {
                names.extend(last_ident(&before[..colon]));
            }
            break;
        }
    }
    names
}

/// True when `between` (text from `:` to the type name) is only path
/// segments, references, or one of the allowed wrappers.
fn only_type_prefix(mut between: &str, wrappers: &[&str]) -> bool {
    loop {
        between = between.trim_start();
        if between.is_empty() {
            return true;
        }
        if let Some(rest) = between.strip_prefix('&') {
            between = rest;
            continue;
        }
        if let Some(rest) = between.strip_prefix("mut ") {
            between = rest;
            continue;
        }
        if let Some(w) = wrappers.iter().find(|w| between.starts_with(**w)) {
            between = &between[w.len()..];
            continue;
        }
        // A path segment `ident::`.
        let seg_len = between.bytes().take_while(|&b| is_ident(b)).count();
        if seg_len > 0 && between[seg_len..].starts_with("::") {
            between = &between[seg_len + 2..];
            continue;
        }
        return false;
    }
}

fn last_ident(text: &str) -> Option<String> {
    let bytes = text.trim_end().as_bytes();
    let end = bytes.len();
    let start = (0..end).rev().take_while(|&i| is_ident(bytes[i])).last()?;
    if end > start {
        Some(String::from_utf8_lossy(&bytes[start..end]).into_owned())
    } else {
        None
    }
}

/// From `let mut name = ` prefix text, extracts `name`.
fn let_binding_name(before: &str) -> Option<String> {
    let t = before.trim_end().trim_end_matches('=').trim_end();
    let let_pos = t.rfind("let ")?;
    let mut rest = t[let_pos + 4..].trim_start();
    if let Some(r) = rest.strip_prefix("mut ") {
        rest = r.trim_start();
    }
    let name: String = rest
        .bytes()
        .take_while(|&b| is_ident(b))
        .map(|b| b as char)
        .collect();
    // Only a simple `let name =` (no pattern, no annotation) reaches here.
    if !name.is_empty() && rest[name.len()..].trim_start().is_empty() {
        Some(name)
    } else {
        None
    }
}

/// ML003 — raw float accumulation in thread-parallel modules.
fn float_accumulation(rel: &str, s: &ScannedFile, out: &mut Vec<Diagnostic>) {
    for off in find_all(&s.masked, ".sum::<f64>()") {
        if s.in_test(off) {
            continue;
        }
        let (line, col) = s.line_col(off);
        out.push(diag(
            rel,
            line,
            col,
            "float-accumulation",
            "`.sum::<f64>()` reduces in iteration order — route the reduction through \
             `minoan_common::stats::pairwise_sum` so the tree shape is fixed"
                .to_string(),
        ));
    }
    let float_names = float_bound_idents(s);
    if float_names.is_empty() {
        return;
    }
    for op in ["+=", "-="] {
        for off in find_all(&s.masked, op) {
            if s.in_test(off) {
                continue;
            }
            let (line, col) = s.line_col(off);
            let line_text = s.masked_line(line as usize - 1);
            let lvalue = &line_text[..(col as usize - 1).min(line_text.len())];
            let fired = idents_in(lvalue)
                .into_iter()
                .find(|i| float_names.contains(i));
            if let Some(name) = fired {
                out.push(diag(
                    rel,
                    line,
                    col,
                    "float-accumulation",
                    format!(
                        "raw f64 accumulation into `{name}` in a thread-parallel module — \
                         cross-thread reductions must use stats::pairwise_sum; per-entity \
                         serial accumulation needs a justified lint:allow"
                    ),
                ));
            }
        }
    }
}

/// Identifiers bound to `f64` storage (scalar, slice, or Vec).
fn float_bound_idents(s: &ScannedFile) -> Vec<String> {
    let mut names = annotated_floats(s);
    // `let mut x = 0.0;` style: float literal initialisers. A line can
    // hold several `let` statements, so scan every occurrence.
    for (idx, _) in s.line_starts.iter().enumerate() {
        let line = s.masked_line(idx);
        let mut search = 0;
        while let Some(p) = line[search..].find("let ") {
            let let_pos = search + p;
            search = let_pos + 4;
            let stmt_end = line[let_pos..]
                .find(';')
                .map(|p| p + let_pos)
                .unwrap_or(line.len());
            let Some(eq) = line[let_pos..stmt_end].find('=').map(|p| p + let_pos) else {
                continue;
            };
            if line.as_bytes().get(eq + 1) == Some(&b'=') {
                continue;
            }
            let Some(name) = let_binding_name(&line[let_pos..eq + 1]) else {
                continue;
            };
            let mut init = line[eq + 1..].trim_start();
            if let Some(r) = init.strip_prefix("vec![") {
                init = r.trim_start();
            }
            if starts_with_float_literal(init) || init.starts_with("f64::") {
                names.push(name);
            }
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

fn starts_with_float_literal(text: &str) -> bool {
    let bytes = text.as_bytes();
    let digits = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    digits > 0
        && bytes.get(digits) == Some(&b'.')
        && bytes.get(digits + 1).is_some_and(|b| b.is_ascii_digit())
}

fn idents_in(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident(bytes[i]) && !bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            out.push(text[start..i].to_string());
        } else {
            i += 1;
        }
    }
    out
}

/// ML008 — process-global mutable state in library code: a `static` of
/// an atomic / lock / cell type, or a thread-local. Every
/// test in a process shares such state, so assertions on it pass or fail
/// by scheduling; a fact belongs on the object that did the work.
fn global_mutable_state(rel: &str, s: &ScannedFile, out: &mut Vec<Diagnostic>) {
    let bytes = s.masked.as_bytes();
    let mut found: Vec<(usize, String)> = Vec::new();
    for off in find_ident(&s.masked, "thread_local") {
        if bytes.get(off + "thread_local".len()) == Some(&b'!') {
            found.push((off, "a `thread_local` block".to_string()));
        }
    }
    for off in find_ident(&s.masked, "static") {
        if off > 0 && bytes[off - 1] == b'\'' {
            continue; // a `'static` lifetime
        }
        let rest = s.masked[off + "static".len()..].trim_start();
        // `static NAME: Type = …;` — the type runs from the colon to the `=`.
        let decl = &rest[..rest.find(['=', ';']).unwrap_or(rest.len())];
        let ty = decl.split_once(':').map_or("", |(_, ty)| ty);
        let mutable = idents_in(ty)
            .into_iter()
            .find(|t| t.starts_with("Atomic") || SHARED_MUTABLE_TYPES.contains(&t.as_str()));
        if let Some(t) = mutable {
            found.push((off, format!("a `static` holding `{t}`")));
        }
    }
    for (off, what) in found {
        if s.in_test(off) {
            continue;
        }
        let (line, col) = s.line_col(off);
        out.push(diag(
            rel,
            line,
            col,
            "global-mutable-state",
            format!(
                "{what} is process-global mutable state — every test in the process shares \
                 it; keep the state (and what it counts) on the instance that does the work"
            ),
        ));
    }
}

/// ML005 — an `expect()` in library code whose message is a shrug: under
/// eight characters or not a string literal.
fn expect_message(rel: &str, s: &ScannedFile, out: &mut Vec<Diagnostic>) {
    for off in find_all(&s.masked, ".expect(") {
        if s.in_test(off) {
            continue;
        }
        // The message bytes are masked; measure the literal via the masked
        // span between the quotes (escapes collapse to spaces, same length).
        let after = &s.masked[off + ".expect(".len()..];
        let trimmed = after.trim_start();
        let msg_len = if let Some(rest) = trimmed.strip_prefix('"') {
            rest.find('"').unwrap_or(0)
        } else {
            0
        };
        if msg_len >= MIN_EXPECT_MSG {
            continue;
        }
        let (line, col) = s.line_col(off);
        out.push(diag(
            rel,
            line,
            col,
            "expect-message",
            format!(
                "`.expect()` message under {MIN_EXPECT_MSG} characters (or not a string \
                 literal) — state the invariant that failed"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;

    fn run(rel: &str, src: &str) -> Vec<Diagnostic> {
        let s = scan(src);
        let mut out = Vec::new();
        check_rust(rel, &s, &mut out);
        out
    }

    #[test]
    fn float_binders() {
        let s = scan(
            "struct K { arcs: Vec<f64> }\nfn f(w: f64) { let mut sum = 0.0; let n = 0u64; \
             let v = vec![0.0f64; 3]; }\n",
        );
        let names = float_bound_idents(&s);
        assert!(names.contains(&"arcs".to_string()));
        assert!(names.contains(&"sum".to_string()));
        assert!(names.contains(&"w".to_string()));
        assert!(names.contains(&"v".to_string()));
        assert!(!names.contains(&"n".to_string()));
    }

    #[test]
    fn expect_message_length_checked() {
        let fire = run(
            "crates/common/src/x.rs",
            "fn f(o: Option<u32>) -> u32 { o.expect(\"no\") }\n",
        );
        assert_eq!(fire.len(), 1);
        assert_eq!(fire[0].code, "ML005");
        let clean = run(
            "crates/common/src/x.rs",
            "fn f(o: Option<u32>) -> u32 { o.expect(\"stats slab sized at build\") }\n",
        );
        assert!(clean.is_empty(), "{clean:?}");
    }
}
