//! Hostile bytes over both parsers and the file loader: random bytes,
//! mutated and truncated documents, invalid UTF-8, megabyte lines. The
//! contract (`minoan::rdf` module docs): always an error carrying a line
//! number — never a panic, never an allocation sized by anything but the
//! bytes actually read.
//!
//! This binary installs an allocator that records the largest single
//! request made while a guard is up, which is how "never an allocation
//! beyond the input" is observed rather than argued.

#![expect(
    unsafe_code,
    reason = "a counting global allocator forwarding to `System`"
)]

use minoan::rdf::ntriples::{self, StatementReader};
use minoan::rdf::tokenize::{self, TokenBuffers, UriDecomposition};
use minoan::rdf::{turtle, DatasetBuilder, LoadError, Object};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;
use common::SplitMix;

thread_local! {
    // `const` initialisers and no destructors: reading these from inside
    // the allocator allocates nothing and registers nothing.
    static WATCHING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Watch;

fn note(size: usize) {
    // `try_with`: a thread being torn down has no slots left to read.
    let _ = WATCHING.try_with(|watching| {
        if watching.get() {
            let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns `System`'s result unchanged; `note` only reads and
// writes two thread-local integers and never allocates, so `System`'s
// `GlobalAlloc` contract carries over.
unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's, under the same contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watch = Watch;

/// Runs `f`; returns its result and the largest single allocation this
/// thread requested meanwhile.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    WATCHING.with(|w| w.set(true));
    let out = f();
    WATCHING.with(|w| w.set(false));
    (out, LARGEST.with(Cell::get))
}

/// What one front end made of an input: statements taken, and the line of
/// the error that stopped it.
type Outcome = (usize, Option<usize>);

/// A pull or push parser holds one line (or nothing) at a time: no request
/// above twice the input — a growing buffer doubles — plus a constant.
fn parser_bound(input: usize) -> usize {
    2 * input + (64 << 10)
}

/// Collectors and the loader keep what they read: tables of triples,
/// descriptions and index buckets, each a constant number of bytes per
/// statement. Linear in the input, with the constants of those tables.
fn loader_bound(input: usize) -> usize {
    16 * input + (128 << 10)
}

/// Every front end over `bytes`. Panics (failing the test) if one of them
/// panics, reports a line outside the input, or over-allocates.
fn run_all(bytes: &[u8]) -> Vec<(&'static str, Outcome)> {
    let lines = 1 + bytes.iter().filter(|&&b| b == b'\n').count();
    let mut outcomes = Vec::new();
    let mut check = |name: &'static str, bound: usize, run: &mut dyn FnMut() -> Outcome| {
        let (outcome, largest) = largest_allocation(run);
        assert!(
            largest <= bound,
            "{name}: one allocation of {largest} B for {} B of input",
            bytes.len()
        );
        if let Some(line) = outcome.1 {
            assert!(
                (1..=lines).contains(&line),
                "{name}: line {line} of {lines}"
            );
        }
        outcomes.push((name, outcome));
    };
    let parser = parser_bound(bytes.len());
    let loader = loader_bound(bytes.len());

    check("nt reader", parser, &mut || {
        let mut reader = StatementReader::new(bytes);
        let mut taken = 0;
        loop {
            match reader.next_statement() {
                None => return (taken, None),
                Some(Ok(_)) => taken += 1,
                Some(Err(e)) => return (taken, Some(e.line)),
            }
        }
    });
    check("nt loader", loader, &mut || {
        let mut builder = DatasetBuilder::new();
        match builder.load_ntriples("kb", bytes) {
            Ok(_) => (builder.build().len(), None),
            Err(e) => (0, Some(e.line)),
        }
    });
    check("ttl loader", loader, &mut || {
        let mut builder = DatasetBuilder::new();
        match builder.load_turtle("kb", bytes) {
            Ok(_) => (builder.build().len(), None),
            Err(e) => (0, Some(e.line)),
        }
    });
    if let Ok(text) = std::str::from_utf8(bytes) {
        check("nt iterator", parser, &mut || {
            let mut taken = 0;
            for statement in ntriples::statements(text) {
                match statement {
                    Ok(_) => taken += 1,
                    Err(e) => return (taken, Some(e.line)),
                }
            }
            (taken, None)
        });
        check(
            "nt collector",
            loader,
            &mut || match ntriples::parse_document(text) {
                Ok(triples) => (triples.len(), None),
                Err(e) => (0, Some(e.line)),
            },
        );
        check("ttl parser", parser, &mut || {
            let mut taken = 0;
            let end = turtle::for_each_statement(text, |_| taken += 1);
            (taken, end.err().map(|e| e.line))
        });
        check(
            "ttl collector",
            loader,
            &mut || match turtle::parse_turtle(text) {
                Ok(triples) => (triples.len(), None),
                Err(e) => (0, Some(e.line)),
            },
        );
    }
    outcomes
}

fn outcome(outcomes: &[(&str, Outcome)], name: &str) -> Outcome {
    outcomes.iter().find(|(n, _)| *n == name).expect(name).1
}

const SEED_DOCUMENT: &str = "@prefix k: <http://k/> .\n\
<http://k/a> <http://k/name> \"Heraklion \\u0041\\t\\\"x\\\"\"@el .\n\
# comment\n\
_:b1 <http://k/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#int> .\n\
k:a k:knows [ k:name 'it\\'s' ; k:age 7 ] , _:b1 ;\n\
    a k:City .\n\
<http://k/\u{3ba}> <http://k/name> \"\\U0001F600 \u{3c0}\u{3cc}\u{3bb}\u{3b7}\" .\n";

/// Bytes that stress the grammar: the syntax characters of both formats.
const SPICE: &[u8] = b"<>\"'\\_:@^.;,[]#\n\r\t uU+-0aZ\xff\xc3\x80";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes, and random bytes drawn from the grammar's own
    /// alphabet, through every front end.
    #[test]
    fn random_bytes_never_panic(seed in 0u64..u64::MAX, len in 0usize..600) {
        let mut rng = SplitMix(seed);
        let raw: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        run_all(&raw);
        let spiced: Vec<u8> = (0..len)
            .map(|_| rng.pick(SPICE))
            .collect();
        run_all(&spiced);
    }

    /// A valid document cut short, or with a few bytes replaced, inserted
    /// or dropped: truncated escapes, split UTF-8 sequences, unbalanced
    /// brackets and quotes.
    #[test]
    fn mutated_documents_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix(seed);
        let mut bytes = SEED_DOCUMENT.as_bytes().to_vec();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(bytes.len());
            let byte = rng.pick(SPICE);
            match rng.below(4) {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                2 => { bytes.remove(at); }
                _ => bytes.truncate(at.max(1)),
            }
        }
        run_all(&bytes);
    }
}

/// `tokenize::decompose_uri` as it was written before it stopped
/// allocating: every path segment collected, each trailing one lower-cased
/// into a `String` to compare it. The oracle of the property below.
fn decompose_uri_collecting(uri: &str) -> UriDecomposition<'_> {
    const GENERIC: &[&str] = &["about", "html", "rdf", "xml", "json", "page", "data"];
    if let Some(hash) = uri.rfind('#') {
        let frag = &uri[hash + 1..];
        if !frag.is_empty() && !GENERIC.contains(&frag) {
            return UriDecomposition {
                prefix: &uri[..hash + 1],
                infix: frag,
                suffix: "",
            };
        }
    }
    let body_start = uri.find("://").map_or(0, |i| i + 3);
    let Some(slash) = uri[body_start..].find('/') else {
        return UriDecomposition {
            prefix: uri,
            infix: "",
            suffix: "",
        };
    };
    let path_start = body_start + slash + 1;
    let mut segs: Vec<(usize, &str)> = Vec::new();
    let mut offset = path_start;
    for seg in uri[path_start..].split('/') {
        segs.push((offset, seg));
        offset += seg.len() + 1;
    }
    let generic = |seg: &str| seg.is_empty() || GENERIC.contains(&seg.to_lowercase().as_str());
    while segs.last().is_some_and(|&(_, seg)| generic(seg)) {
        segs.pop();
    }
    let Some(&(seg_off, seg)) = segs.last() else {
        return UriDecomposition {
            prefix: &uri[..path_start],
            infix: "",
            suffix: &uri[path_start..],
        };
    };
    let infix_len = match seg.rfind('.') {
        Some(dot) if dot > 0 && seg.len() - dot <= 6 => dot,
        _ => seg.len(),
    };
    UriDecomposition {
        prefix: &uri[..seg_off],
        infix: &uri[seg_off..seg_off + infix_len],
        suffix: &uri[seg_off + infix_len..],
    }
}

/// What IRIs are made of here: the separators the decomposition looks for,
/// generic segments in several cases, extensions, camelCase, stop words,
/// characters whose case folding is not ASCII's (`İ` lowers to two chars,
/// the Kelvin sign to `k`, `ſ` upper-cases to `S`).
const IRI_PARTS: &[&str] = &[
    "/",
    "/",
    "//",
    "#",
    "://",
    ".",
    ":",
    "http",
    "k",
    "example.org",
    "about",
    "ABOUT",
    "Page",
    "dAtA",
    "rdf",
    "RDF",
    "xml",
    "Json",
    "html",
    "HTML",
    ".html",
    ".jsonld",
    "Knossos_Palace",
    "mikisTheodorakis",
    "the",
    "of",
    "From",
    "with",
    "withal",
    "a",
    "42",
    "x1900",
    "\u{130}",
    "\u{212a}",
    "\u{17f}",
    "d\u{e4}ta",
    "\u{3a3}\u{399}\u{393}\u{39c}\u{391}\u{3a3}",
    "%20",
    " ",
    "_",
    "-",
];

fn assert_tokenises_like_the_oracles(text: &str, buffers: &mut TokenBuffers) {
    assert_eq!(
        tokenize::decompose_uri(text),
        decompose_uri_collecting(text),
        "{text:?}"
    );
    let mut visited: Vec<String> = Vec::new();
    tokenize::uri_infix_tokens_with(text, buffers, |t| visited.push(t.to_string()));
    assert_eq!(visited, tokenize::uri_infix_tokens(text), "{text:?}");
    visited.clear();
    tokenize::value_tokens_with(text, buffers, |t| visited.push(t.to_string()));
    assert_eq!(visited, tokenize::value_token_vec(text), "{text:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The allocation-free tokeniser — segments walked from the back,
    /// ASCII case folding, the stop-word list consulted for short tokens
    /// only — decomposes and tokenises exactly like the collecting,
    /// lower-casing one: over IRIs assembled from the parts above, over
    /// the grammar's own alphabet, and over every IRI-shaped piece of the
    /// mutated seed document.
    #[test]
    fn the_tokeniser_equals_its_allocating_oracles(seed in 0u64..u64::MAX, parts in 0usize..12) {
        let mut rng = SplitMix(seed);
        let mut buffers = TokenBuffers::default();
        let iri: String = (0..parts).map(|_| rng.pick(IRI_PARTS)).collect();
        assert_tokenises_like_the_oracles(&iri, &mut buffers);
        assert_tokenises_like_the_oracles(&format!("http://k/{iri}"), &mut buffers);
        let spiced: Vec<u8> = (0..parts * 4).map(|_| rng.pick(SPICE)).collect();
        assert_tokenises_like_the_oracles(&String::from_utf8_lossy(&spiced), &mut buffers);
        let mut document = SEED_DOCUMENT.as_bytes().to_vec();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(document.len());
            document[at] = rng.pick(SPICE);
        }
        for piece in String::from_utf8_lossy(&document).split(['<', '>', '"', ' ', '\n']) {
            assert_tokenises_like_the_oracles(piece, &mut buffers);
        }
    }
}

#[test]
fn the_seed_document_is_valid_turtle() {
    let outcomes = run_all(SEED_DOCUMENT.as_bytes());
    assert_eq!(outcome(&outcomes, "ttl parser"), (8, None));
    // N-Triples stops at the directive on line 1.
    assert_eq!(outcome(&outcomes, "nt reader"), (0, Some(1)));
}

#[test]
fn truncated_escapes_are_errors_at_their_line() {
    let full = "<http://a> <http://p> \"ok\" .\n<http://a> <http://p> \"x\\U0001F600\" .\n";
    let escape_start = full.find('\\').unwrap();
    let escape_end = full.rfind('"').unwrap();
    for cut in escape_start + 1..=escape_end {
        let outcomes = run_all(&full.as_bytes()[..cut]);
        for name in [
            "nt reader",
            "nt iterator",
            "ttl parser",
            "nt loader",
            "ttl loader",
        ] {
            let (_, line) = outcome(&outcomes, name);
            assert_eq!(line, Some(2), "{name}, cut at byte {cut}");
        }
    }
}

#[test]
fn invalid_utf8_is_an_error_at_its_line() {
    let mut bytes = b"<http://a> <http://p> \"ok\" .\n\n# fine\n<http://a> <http://p> \"".to_vec();
    bytes.extend_from_slice(&[b'a', 0xe2, 0x82, b'"', b' ', b'.', b'\n']);
    bytes.extend_from_slice(b"<http://a> <http://p> \"after\" .\n");
    let outcomes = run_all(&bytes);
    assert_eq!(outcome(&outcomes, "nt reader"), (1, Some(4)));
    assert_eq!(outcome(&outcomes, "nt loader").1, Some(4));
    assert_eq!(outcome(&outcomes, "ttl loader").1, Some(4));

    // Through the file loader too — at the parent this was a bare
    // `read_to_string` failure with no line.
    let dir = std::env::temp_dir().join(format!("minoan_rdf_hostile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["bad.nt", "bad.ttl"] {
        let path = dir.join(name);
        std::fs::write(&path, &bytes).unwrap();
        let (result, largest) = largest_allocation(|| DatasetBuilder::new().load_file(&path));
        let err = result.unwrap_err();
        assert_eq!(err.line(), Some(4), "{name}: {err}");
        assert!(err.to_string().contains("UTF-8"), "{name}: {err}");
        assert!(largest <= loader_bound(bytes.len()), "{name}: {largest}");
        let argv = ["resolve", "--input", path.to_str().unwrap()].map(String::from);
        let message = minoan_cli::run(&argv).unwrap_err().to_string();
        assert!(
            message.contains(name) && message.contains("line 4"),
            "{message}"
        );
    }
    let missing = DatasetBuilder::new()
        .load_file(&dir.join("missing.nt"))
        .unwrap_err();
    assert!(matches!(missing, LoadError::Io(_)), "{missing}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_megabyte_line_is_read_or_refused_within_its_own_size() {
    const MIB: usize = 1 << 20;
    let line =
        |body: &str| format!("<http://a> <http://p> \"ok\" .\n<http://a> <http://p> \"{body}");

    // A valid 1 MiB literal parses, and is borrowed, not copied.
    let plain = line(&"x".repeat(MIB)) + "\" .\n";
    let outcomes = run_all(plain.as_bytes());
    assert_eq!(outcome(&outcomes, "nt reader"), (2, None));
    assert_eq!(outcome(&outcomes, "ttl parser"), (2, None));
    let second = ntriples::statements(&plain).nth(1).unwrap().unwrap();
    assert!(matches!(
        second.object,
        Object::Literal { value: std::borrow::Cow::Borrowed(v), .. } if v.len() == MIB
    ));

    // 1 MiB of escapes unescapes into a copy no longer than its spelling.
    let escaped = line(&"\\u0041".repeat(MIB / 6)) + "\" .\n";
    let outcomes = run_all(escaped.as_bytes());
    assert_eq!(outcome(&outcomes, "nt iterator"), (2, None));
    assert_eq!(outcome(&outcomes, "ttl loader"), (1, None));

    // Unterminated, or cut inside the last escape: an error at line 2.
    for broken in [
        line(&"x".repeat(MIB)),
        line(&"\\u0041".repeat(MIB / 6)) + "\\u00",
    ] {
        let outcomes = run_all(broken.as_bytes());
        for (name, (_, at)) in &outcomes {
            assert_eq!(*at, Some(2), "{name}");
        }
    }

    // One line of brackets, one of noise, one endless IRI.
    for hostile in [
        "[".repeat(MIB),
        "[ <http://p> ".repeat(MIB / 13),
        "<".repeat(MIB),
        "a:".repeat(MIB / 2),
    ] {
        let outcomes = run_all(hostile.as_bytes());
        for (name, (taken, at)) in &outcomes {
            assert_eq!((*taken, *at), (0, Some(1)), "{name}");
        }
    }
}

/// One subject, 100 000 statements of one predicate whose values share a
/// 200-byte prefix, half of them exact repeats: the end-of-document
/// collapse has no quadratic path to walk into, keeps exactly the distinct
/// half in first-occurrence order, and allocates nothing beyond tables
/// linear in the input.
#[test]
fn a_hundred_thousand_near_equal_values_of_one_subject_collapse_exactly() {
    const DISTINCT: usize = 50_000;
    let prefix = "p".repeat(200);
    let mut rng = SplitMix(7);
    // Every value once, in order, each followed by a repeat of a value
    // already out: the one just written or one far back.
    let mut values: Vec<usize> = Vec::with_capacity(2 * DISTINCT);
    for v in 0..DISTINCT {
        values.extend([v, rng.below(v + 1)]);
    }
    let mut document = String::new();
    for v in &values {
        document += &format!("<http://k/s> <http://k/p> \"{prefix}{v}\" .\n");
    }

    let started = std::time::Instant::now();
    let (dataset, largest) = largest_allocation(|| {
        let mut builder = DatasetBuilder::new();
        builder.load_ntriples("kb", document.as_bytes()).unwrap();
        builder.build()
    });
    assert!(largest <= loader_bound(document.len()), "{largest}");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(20),
        "{:?}: the collapse went quadratic",
        started.elapsed()
    );
    let s = dataset.entity_by_uri("http://k/s").unwrap();
    assert_eq!(dataset.len(), 1);
    let kept: Vec<&str> = dataset.description(s).literals().collect();
    assert_eq!(kept.len(), DISTINCT);
    for (v, kept) in kept.iter().enumerate() {
        assert_eq!(
            kept.strip_prefix(prefix.as_str()),
            Some(v.to_string().as_str())
        );
    }
}
