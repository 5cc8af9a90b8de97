//! The rule catalogue.
//!
//! Each rule is a scan over the masked source of one file (or one
//! manifest). Rules are deliberately repo-specific: the file lists below
//! name the modules whose invariants PRs 1–5 established.

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

/// Static description of a rule, for `--list-rules` and docs.
pub struct RuleInfo {
    /// Stable code.
    pub code: &'static str,
    /// Kebab-case name used in `lint.toml` and `lint:allow(...)`.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule the engine knows, in code order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "ML000",
        name: "allow-missing-reason",
        summary: "a lint:allow escape without a written justification (unsuppressable)",
    },
    RuleInfo {
        code: "ML001",
        name: "hot-path-alloc",
        summary: "per-token String allocation (format!/to_string/String::new/String::with_capacity/to_owned/to_lowercase/to_uppercase) in a hot-path module",
    },
    RuleInfo {
        code: "ML002",
        name: "hash-order-leak",
        summary: "hash-map types in flat-core modules, or unsorted hash-map iteration anywhere",
    },
    RuleInfo {
        code: "ML003",
        name: "float-accumulation",
        summary: "raw f64 accumulation in thread-parallel modules (use stats::pairwise_sum)",
    },
    RuleInfo {
        code: "ML005",
        name: "unwrap-in-lib",
        summary: "unwrap()/uninformative expect() in library code",
    },
    RuleInfo {
        code: "ML006",
        name: "dep-drift",
        summary: "manifest dependency outside the workspace/vendor shim layer",
    },
    RuleInfo {
        code: "ML007",
        name: "forbid-unsafe",
        summary: "crate root missing #![forbid(unsafe_code)]",
    },
    RuleInfo {
        code: "ML008",
        name: "global-mutable-state",
        summary: "a static of atomic/lock/cell type, a mutable static or a thread-local in library code",
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
/// kernel with the progressive loop around it (a comparison recomputes
/// nothing that is a fact of one description), and the text front end (a
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
    "crates/core/src/engine.rs",
    "crates/core/src/scheduler.rs",
    "crates/core/src/candidates.rs",
    "crates/rdf/src/ntriples.rs",
    "crates/rdf/src/dataset.rs",
    "crates/rdf/src/dataset/load.rs",
];

/// Flat-core modules: hash-map *types* are banned outright (ML002 tier A) —
/// iteration order must never be able to leak into outputs.
const FLAT_CORE_FILES: &[&str] = &[
    "crates/blocking/src/layout.rs",
    "crates/blocking/src/purge.rs",
    "crates/blocking/src/filter.rs",
    "crates/metablocking/src/kernel.rs",
    "crates/metablocking/src/rule.rs",
    "crates/metablocking/src/sweep.rs",
    "crates/metablocking/src/streaming.rs",
    "crates/metablocking/src/parallel.rs",
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

/// Crates whose non-test library code must not `unwrap()` (ML005).
const UNWRAP_CRATES: &[&str] = &[
    "common",
    "blocking",
    "metablocking",
    "server",
    "core",
    "eval",
    "similarity",
];

const HASH_TYPES: &[&str] = &[
    "FxHashMap",
    "FxHashSet",
    "HashMap",
    "HashSet",
    "hash_map",
    "hash_set",
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

fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" {
        return true;
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((_, tail)) = rest.split_once('/') {
            return tail == "src/lib.rs" || tail == "src/main.rs";
        }
    }
    false
}

/// Runs every source-level rule over one scanned Rust file.
pub fn check_rust(rel: &str, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    let test_path = is_test_path(rel);

    if is_crate_root(rel) && !scanned.masked.contains("#![forbid(unsafe_code)]") {
        out.push(diag(
            rel,
            1,
            1,
            "forbid-unsafe",
            "crate root must carry `#![forbid(unsafe_code)]` — the workspace is \
             unsafe-free and that must stay compiler-enforced"
                .to_string(),
        ));
    }

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
        if FLAT_CORE_FILES.contains(&rel) {
            hash_types_banned(rel, scanned, out);
        } else {
            hash_iteration(rel, scanned, out);
        }
        if PARALLEL_FILES.contains(&rel) {
            float_accumulation(rel, scanned, out);
        }
        let in_unwrap_scope = crate_of(rel)
            .map(|c| UNWRAP_CRATES.contains(&c))
            .unwrap_or(false)
            && in_crate_src(rel);
        if in_unwrap_scope {
            unwrap_in_lib(rel, scanned, out);
        }
        if in_crate_src(rel) {
            global_mutable_state(rel, scanned, out);
        }
    }

    out.sort_by(|a, b| (a.line, a.col, a.code).cmp(&(b.line, b.col, b.code)));
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
}

fn diag(rel: &str, line: u32, col: u32, rule: &'static str, message: String) -> Diagnostic {
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

/// ML002 tier A — hash-map types banned in flat-core modules.
fn hash_types_banned(rel: &str, s: &ScannedFile, out: &mut Vec<Diagnostic>) {
    for ty in HASH_TYPES {
        for off in find_ident(&s.masked, ty) {
            if s.in_test(off) {
                continue;
            }
            let (line, col) = s.line_col(off);
            out.push(diag(
                rel,
                line,
                col,
                "hash-order-leak",
                format!(
                    "`{ty}` in a flat-core module — hash iteration order must not be able \
                     to leak into pipeline outputs; use slabs or a BTree container"
                ),
            ));
        }
    }
}

/// Identifiers bound (via `let` or a field/annotation) to a type whose
/// outermost constructor is one of `types`. `wrappers` lists additional
/// leading tokens tolerated between `:` and the type (for the float rule,
/// `Vec<` et al.).
fn bound_idents(s: &ScannedFile, types: &[&str], wrappers: &[&str]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for ty in types {
        for off in find_ident(&s.masked, ty) {
            let (line, col) = s.line_col(off);
            let line_text = s.masked_line(line as usize - 1);
            let before = &line_text[..(col as usize - 1).min(line_text.len())];
            // `NAME: Type` (annotation or struct field): walk colons right
            // to left, skipping `::` path separators so qualified types
            // (`q: std::collections::HashSet<u32>`) still resolve.
            let mut end = before.len();
            let mut annotated = false;
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
                if only_type_prefix(between, wrappers) {
                    if let Some(name) = last_ident(&before[..colon]) {
                        names.push(name);
                        annotated = true;
                    }
                }
                break;
            }
            if annotated {
                continue;
            }
            // `let [mut] NAME = Type::...`.
            if before.trim_end().ends_with('=') {
                if let Some(name) = let_binding_name(before) {
                    names.push(name);
                }
            }
        }
    }
    names.sort_unstable();
    names.dedup();
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

/// ML002 tier B — unsorted iteration over hash-bound locals/fields.
fn hash_iteration(rel: &str, s: &ScannedFile, out: &mut Vec<Diagnostic>) {
    let names = bound_idents(s, &["FxHashMap", "FxHashSet", "HashMap", "HashSet"], &[]);
    const ITER_METHODS: &[&str] = &[
        ".iter()",
        ".iter_mut()",
        ".into_iter()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".drain(",
    ];
    for name in &names {
        for m in ITER_METHODS {
            let pat = format!("{name}{m}");
            for off in find_all(&s.masked, &pat) {
                if s.in_test(off) || is_mid_ident(&s.masked, off) {
                    continue;
                }
                check_sorted_window(rel, s, off, name, out);
            }
        }
        // `for x in name {` / `for x in &name {`.
        for off in find_ident(&s.masked, name) {
            if s.in_test(off) {
                continue;
            }
            let before = s.masked[..off].trim_end();
            let prefixed = before.ends_with(" in")
                || before.ends_with("&") && {
                    let b2 = before.trim_end_matches(['&', ' ']).trim_end();
                    b2.ends_with(" in")
                };
            if !prefixed {
                continue;
            }
            let after = s.masked[off + name.len()..].trim_start();
            if after.starts_with('{') {
                check_sorted_window(rel, s, off, name, out);
            }
        }
    }
}

fn is_mid_ident(masked: &str, off: usize) -> bool {
    off > 0 && is_ident(masked.as_bytes()[off - 1])
}

/// Suppresses the tier-B diagnostic when a statement near the iteration —
/// the statement before it (`xs.sort(); for x in xs`), its own, or the one
/// right after — establishes an order (`sort…`) or an ordered container
/// (`BTree…`), or is order-insensitive (`.count()`).
fn check_sorted_window(
    rel: &str,
    s: &ScannedFile,
    off: usize,
    name: &str,
    out: &mut Vec<Diagnostic>,
) {
    let bytes = s.masked.as_bytes();
    let window_end = {
        let mut semis = 0;
        let mut i = off;
        while i < bytes.len() && semis < 2 && i - off < 600 {
            if bytes[i] == b';' {
                semis += 1;
            }
            i += 1;
        }
        i
    };
    let window_start = {
        let mut semis = 0;
        let mut i = off;
        while i > 0 && semis < 2 && off - i < 200 {
            i -= 1;
            if bytes[i] == b';' {
                semis += 1;
            }
        }
        i
    };
    let window = &s.masked[window_start..window_end];
    if window.contains("sort") || window.contains("BTree") || window.contains(".count()") {
        return;
    }
    let (line, col) = s.line_col(off);
    out.push(diag(
        rel,
        line,
        col,
        "hash-order-leak",
        format!(
            "iteration over hash-bound `{name}` with no sort in reach — hash order \
             must not decide emission order (collect + sort, or use a BTree container)"
        ),
    ));
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
    let mut names = bound_idents(s, &["f64"], &["Vec<", "Box<", "[", "]"]);
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
/// an atomic / lock / cell type, a mutable `static`, a thread-local. Every
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
        if rest.starts_with("mut ") {
            found.push((off, "a mutable `static`".to_string()));
            continue;
        }
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

/// ML005 — unwrap()/weak expect() in library code.
fn unwrap_in_lib(rel: &str, s: &ScannedFile, out: &mut Vec<Diagnostic>) {
    for off in find_all(&s.masked, ".unwrap()") {
        if s.in_test(off) {
            continue;
        }
        let (line, col) = s.line_col(off);
        out.push(diag(
            rel,
            line,
            col,
            "unwrap-in-lib",
            "`.unwrap()` in library code — propagate the error or use \
             `.expect(\"reason\")` stating the violated invariant"
                .to_string(),
        ));
    }
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
            "unwrap-in-lib",
            format!(
                "`.expect()` message under {MIN_EXPECT_MSG} characters (or not a string \
                 literal) — state the invariant that failed"
            ),
        ));
    }
}

/// ML006 — manifest scan: every dependency must stay inside the workspace
/// or the `vendor/` shim layer (the build container has no registry).
pub fn check_manifest(rel: &str, text: &str, out: &mut Vec<Diagnostic>) {
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = crate::config_strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            section = line
                .trim_start_matches('[')
                .trim_end_matches(']')
                .trim()
                .to_string();
            if section.contains("dependencies.") {
                // `[dependencies.foo]` long-form tables are not used in this
                // workspace; flag the style itself so entries stay greppable.
                out.push(diag(
                    rel,
                    (idx + 1) as u32,
                    1,
                    "dep-drift",
                    "long-form dependency tables are not used here — declare deps \
                     inline so the workspace/vendor constraint stays checkable"
                        .to_string(),
                ));
            }
            continue;
        }
        let is_dep_section = section == "dependencies"
            || section.ends_with("-dependencies")
            || section.ends_with(".dependencies");
        if !is_dep_section {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        if key.ends_with(".workspace") && value == "true" {
            continue;
        }
        if key.ends_with(".path") {
            continue;
        }
        let ok = value.contains("workspace = true")
            || (value.contains("path = \"") && !value.contains("git ="));
        if ok {
            continue;
        }
        let reason = if value.contains("git =") {
            "git dependency"
        } else if value.starts_with('"') {
            "registry version requirement"
        } else {
            "dependency without a workspace path"
        };
        out.push(diag(
            rel,
            (idx + 1) as u32,
            1,
            "dep-drift",
            format!(
                "{reason} for `{key}` — the registry is unreachable in the build \
                 container; vendor an API-compatible shim under vendor/ instead"
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
    fn binder_extraction() {
        let s = scan(
            "struct X { inner: FxHashMap<u32, u32>, adj: Vec<FxHashSet<u32>> }\n\
             fn f() { let mut m = HashMap::new(); let q: std::collections::HashSet<u32> = x; }\n",
        );
        let names = bound_idents(&s, &["FxHashMap", "FxHashSet", "HashMap", "HashSet"], &[]);
        assert!(names.contains(&"inner".to_string()));
        assert!(names.contains(&"m".to_string()));
        assert!(names.contains(&"q".to_string()));
        // Vec<FxHashSet<..>> is not hash-outermost: iterating it is fine.
        assert!(!names.contains(&"adj".to_string()));
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

    #[test]
    fn manifest_rule() {
        let mut out = Vec::new();
        check_manifest(
            "crates/x/Cargo.toml",
            "[package]\nname = \"x\"\n[dependencies]\nserde.workspace = true\n\
             rand = { path = \"../../vendor/rand\" }\nregex = \"1.10\"\n",
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 6);
        assert!(out[0].message.contains("registry"));
    }
}
