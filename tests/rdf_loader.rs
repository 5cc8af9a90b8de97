//! The text → `Dataset` front end, from outside the crates:
//!
//! * the borrowed statement parsers against documents whose triples are
//!   known by construction, with the owned `parse_line` as a second oracle;
//! * `minoan resolve --input …` against `Pipeline::run` over
//!   `DatasetBuilder::add_ntriples_kb` — the CLI resolves the dataset the
//!   library resolves, to the printed character and the score bit;
//! * the two things a document means beyond its statements: duplicates
//!   collapse onto their first occurrence, blank labels stay inside their
//!   file.

use minoan::prelude::*;
use minoan::rdf::ntriples::{self, ParseError, StatementReader};
use minoan::rdf::{turtle, Dataset, Literal, Term, Triple};
use proptest::prelude::*;
use std::path::PathBuf;

mod common;
use common::SplitMix as Rng;

// ---- documents with a known reading ---------------------------------------

/// One source line and what a correct parser makes of it.
struct Line {
    text: String,
    /// `None`: blank or comment. `Some(Err(()))`: malformed.
    reading: Option<Result<Triple, ()>>,
}

const MALFORMED: &[&str] = &[
    "<http://a b> <http://p> <http://o> .",
    "<http://a> <http://p\t> <http://o> .",
    "<http://a> <http://p> <http://o\u{a0}x> .",
    r#"<http://a> <http://p> "\u+041" ."#,
    r#"<http://a> <http://p> "\u-041" ."#,
    r#"<http://a> <http://p> "\U+0000041" ."#,
    r#"<http://a> <http://p> "\u04" ."#,
    r#"<http://a> <http://p> "\u00zz" ."#,
    r#"<http://a> <http://p> "\uD800" ."#,
    r#"<http://a> <http://p> "\x41" ."#,
    r#"<http://a> <http://p> "\'" ."#,
    r#"<http://a> <http://p> "dangling\"#,
    r#"<http://a> <http://p> "x"@ ."#,
    r#"<http://a> <http://p> "x"^^int ."#,
    r#"<http://a> <http://p> "x"^^<http://d t> ."#,
    r#"<http://a> <http://p> "unterminated ."#,
    "<http://a> <http://p> <http://o> . junk",
    "<http://a> <http://p> <http://o>",
    "<http://a> <http://p> .",
    "<http://a> <http://p <http://o> .",
    r#""literal" <http://p> <http://o> ."#,
    "_: <http://p> <http://o> .",
    "_:b1 _:b2 <http://o> .",
    "not a triple",
];

/// Spells `value` as an N-Triples string body, escaping what must be
/// escaped and, at random, what may be.
fn spell(value: &str, rng: &mut Rng) -> String {
    let mut out = String::new();
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if rng.below(6) == 0 => {
                if (c as u32) <= 0xffff && rng.below(2) == 0 {
                    out.push_str(&format!("\\u{:04X}", c as u32));
                } else {
                    out.push_str(&format!("\\U{:08x}", c as u32));
                }
            }
            c => out.push(c),
        }
    }
    out
}

/// A pseudo-random document: every term kind, every escape, comments,
/// blank lines, indentation, trailing comments — and, if `faulty`, one
/// malformed line somewhere.
fn document(seed: u64, faulty: bool) -> Vec<Line> {
    let mut rng = Rng(seed);
    let iris = [
        "http://db.org/r/Heraklion",
        "http://db.org/r/Κρήτη",
        "urn:x",
        "",
        "http://db.org/o/name#frag?q=1",
    ];
    let labels = ["b1", "node-2", "n_3", "a.b"];
    let values = [
        "Heraklion",
        "",
        "say \"hi\"\\ and\ttab\nnewline\rcr",
        "πόλη — \u{1F600}",
        "  padded  ",
        "# not a comment",
        "<not> an IRI .",
    ];
    let resource = |rng: &mut Rng| {
        if rng.below(4) == 0 {
            let label = rng.pick(&labels);
            (format!("_:{label}"), Term::Blank(label.into()))
        } else {
            let iri = rng.pick(&iris);
            (format!("<{iri}>"), Term::iri(iri))
        }
    };
    let mut lines = Vec::new();
    let fault_at = faulty.then(|| rng.below(40));
    for i in 0..40 {
        if fault_at == Some(i) {
            lines.push(Line {
                text: rng.pick(MALFORMED).to_string(),
                reading: Some(Err(())),
            });
        }
        match rng.below(8) {
            0 => lines.push(Line {
                text: rng
                    .pick(&["", "   ", "\t", "# comment", "  # <a> <b> <c> ."])
                    .into(),
                reading: None,
            }),
            _ => {
                let (subject_text, subject) = resource(&mut rng);
                let predicate = rng.pick(&iris);
                let (object_text, object) = match rng.below(4) {
                    0 => resource(&mut rng),
                    kind => {
                        let value = rng.pick(&values);
                        let body = spell(value, &mut rng);
                        match kind {
                            1 => (format!("\"{body}\""), Term::literal(value)),
                            2 => {
                                let lang = rng.pick(&["en", "el-GR", "x-1"]);
                                (
                                    format!("\"{body}\"@{lang}"),
                                    Term::Literal(Literal::lang_tagged(value, lang)),
                                )
                            }
                            _ => {
                                let datatype = rng.pick(&iris);
                                (
                                    format!("\"{body}\"^^<{datatype}>"),
                                    Term::Literal(Literal::typed(value, datatype)),
                                )
                            }
                        }
                    }
                };
                let gap = rng.pick(&[" ", "\t", "  \t "]);
                let lead = rng.pick(&["", "", "  ", "\t"]);
                let tail = rng.pick(&["", "", " ", " # note", "#x"]);
                lines.push(Line {
                    text: format!(
                        "{lead}{subject_text}{gap}<{predicate}>{gap}{object_text}{gap}.{tail}"
                    ),
                    reading: Some(Ok(Triple::new(subject, predicate, object))),
                });
            }
        }
    }
    lines
}

/// What a document should read as: its triples with their 1-based lines,
/// up to and including the first malformed line.
type Reading = (Vec<(usize, Triple)>, Option<usize>);

fn expected(lines: &[Line]) -> Reading {
    let mut triples = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        match &line.reading {
            None => {}
            Some(Ok(t)) => triples.push((idx + 1, t.clone())),
            Some(Err(())) => return (triples, Some(idx + 1)),
        }
    }
    (triples, None)
}

/// Drains a statement source into a [`Reading`].
fn reading<E>(
    mut next: impl FnMut() -> Option<Result<(usize, Triple), E>>,
    line_of: impl Fn(&E) -> usize,
) -> Reading {
    let mut triples = Vec::new();
    loop {
        match next() {
            None => return (triples, None),
            Some(Ok(t)) => triples.push(t),
            Some(Err(e)) => return (triples, Some(line_of(&e))),
        }
    }
}

/// The seed's document loop, spelled out over the owned `parse_line`: the
/// oracle for where lines start, what is skipped and how lines are counted.
fn by_parse_line(text: &str) -> Reading {
    let mut lines = text.lines().enumerate().filter_map(|(idx, raw)| {
        let line = raw.trim();
        (!line.is_empty() && !line.starts_with('#'))
            .then(|| ntriples::parse_line(line, idx + 1).map(|t| (idx + 1, t)))
    });
    reading(|| lines.next(), |e: &ParseError| e.line)
}

fn by_reader(text: &str) -> Reading {
    let mut reader = StatementReader::new(text.as_bytes());
    reading(
        || {
            let triple = reader.next_statement()?.map(|s| s.to_triple());
            Some(triple.map(|t| (reader.line(), t)))
        },
        |e: &ParseError| e.line,
    )
}

fn by_iterator(text: &str) -> Reading {
    // The iterator does not expose line numbers of good statements; take
    // them from the oracle and compare the rest.
    let lines: Vec<usize> = by_parse_line(text).0.iter().map(|(l, _)| *l).collect();
    let mut statements = ntriples::statements(text).enumerate();
    reading(
        || {
            let (i, statement) = statements.next()?;
            Some(statement.map(|s| (lines[i], s.to_triple())))
        },
        |e: &ParseError| e.line,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (a) Reader, iterator and `parse_line` read a document the way it was
    /// written: same terms, same `Ok`/`Err`, same line numbers — under LF,
    /// CRLF and a missing final newline.
    #[test]
    fn parsers_read_documents_as_written(seed in 0u64..1_000_000, faulty in 0usize..3) {
        let lines = document(seed, faulty == 0);
        let want = expected(&lines);
        let texts: Vec<&str> = lines.iter().map(|l| l.text.as_str()).collect();
        for (newline, terminated) in [("\n", true), ("\r\n", true), ("\n", false)] {
            let mut text = texts.join(newline);
            if terminated {
                text.push_str(newline);
            }
            prop_assert_eq!(&by_parse_line(&text), &want, "parse_line, seed {}", seed);
            prop_assert_eq!(&by_reader(&text), &want, "reader, seed {}", seed);
            prop_assert_eq!(&by_iterator(&text), &want, "iterator, seed {}", seed);
        }
    }
}

#[test]
fn every_malformed_line_is_an_error_at_its_line() {
    for bad in MALFORMED {
        let text =
            format!("<http://a> <http://p> \"ok\" .\n\n{bad}\n<http://a> <http://p> \"after\" .\n");
        for (how, got) in [
            ("parse_line", by_parse_line(&text)),
            ("reader", by_reader(&text)),
            ("iterator", by_iterator(&text)),
        ] {
            assert_eq!(got.0.len(), 1, "{how}: {bad}");
            assert_eq!(got.1, Some(3), "{how}: {bad}");
        }
        let reasons: Vec<String> = [
            ntriples::parse_line(bad, 3).unwrap_err(),
            ntriples::parse_statement(bad, 3).map(|_| ()).unwrap_err(),
            ntriples::parse_document(&text).unwrap_err(),
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert!(reasons.iter().all(|r| r == &reasons[0]), "{reasons:?}");
    }
}

#[test]
fn generated_worlds_read_the_same_through_every_front_end() {
    for seed in [3u64, 11] {
        let world = generate(&profiles::lod_cloud(80, seed));
        for kb in 0..world.dataset.kb_count() {
            let text = world.dataset.to_ntriples(KbId(kb as u16));
            let want = by_parse_line(&text);
            assert!(want.1.is_none() && !want.0.is_empty());
            assert_eq!(by_reader(&text), want);
            assert_eq!(by_iterator(&text), want);
            // Turtle is a superset of the N-Triples the generator writes.
            let mut through_turtle = Vec::new();
            turtle::for_each_statement(&text, |s| through_turtle.push(s.to_triple())).unwrap();
            let triples: Vec<Triple> = want.0.into_iter().map(|(_, t)| t).collect();
            assert_eq!(through_turtle, triples);
        }
    }
}

// ---- the CLI resolves what the library resolves ---------------------------

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minoan_rdf_loader_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("the temp dir is writable");
    dir
}

fn resolve(files: &[PathBuf], flags: &[&str]) -> String {
    let mut argv = vec!["resolve".to_string()];
    for f in files {
        argv.extend(["--input".to_string(), f.display().to_string()]);
    }
    argv.extend(["--show".to_string(), "1000000".to_string()]);
    argv.extend(flags.iter().map(|f| f.to_string()));
    minoan_cli::run(&argv).expect("resolve")
}

/// The report `minoan resolve --show all` prints for `dataset`, written out
/// from the library's own answer.
fn library_report(dataset: &Dataset, config: PipelineConfig) -> String {
    let out = Pipeline::new(config).run(dataset);
    let mut report = format!(
        "{} KBs, {} descriptions | blocks {} → {} | candidates {} | comparisons {} | matches {} | discovered {}\n",
        dataset.kb_count(),
        dataset.len(),
        out.blocks_raw.0,
        out.blocks_clean.0,
        out.candidates,
        out.resolution.comparisons,
        out.resolution.matches.len(),
        out.resolution.discovered_candidates,
    );
    for (a, b, score) in &out.resolution.matches {
        report.push_str(&format!(
            "  {:.3}  {}  ≡  {}\n",
            score,
            dataset.uri(*a),
            dataset.uri(*b)
        ));
    }
    report
}

fn match_bits(dataset: &Dataset, config: PipelineConfig) -> Vec<(String, String, u64)> {
    let out = Pipeline::new(config).run(dataset);
    let uri = |e| dataset.uri(e).to_string();
    out.resolution
        .matches
        .iter()
        .map(|&(a, b, score)| (uri(a), uri(b), score.to_bits()))
        .collect()
}

/// (c) For N-Triples, Turtle and a mixed pair of inputs: the CLI prints
/// exactly the library's pairs, in its order, and the dataset its loader
/// builds gives the same score bits.
#[test]
fn cli_resolve_prints_what_the_library_resolves() {
    let dir = scratch_dir("cli");
    let worlds = [
        (profiles::lod_cloud(260, 101), vec![]),
        (profiles::center_dense(150, 7), vec![]),
        (
            profiles::dirty_single(200, 5),
            vec!["--dirty", "--weighting", "js", "--pruning", "cep"],
        ),
    ];
    for (w, (config, flags)) in worlds.into_iter().enumerate() {
        let world = generate(&config);
        let kbs = world.dataset.kb_count();
        for turtle_mask in [0usize, usize::MAX, 0b0101] {
            let mut files = Vec::new();
            let mut reference = DatasetBuilder::new();
            for kb in 0..kbs {
                let info = world.dataset.kb(KbId(kb as u16));
                let nt = world.dataset.to_ntriples(KbId(kb as u16));
                let as_turtle = turtle_mask >> kb & 1 == 1;
                let path = dir.join(format!(
                    "w{w}-{}.{}",
                    info.name,
                    if as_turtle { "ttl" } else { "nt" }
                ));
                // The reference reads the statements in the order the file
                // spells them: the Turtle writer groups by predicate.
                let statements = if as_turtle {
                    let ttl = turtle::write_turtle(
                        &ntriples::parse_document(&nt).unwrap(),
                        &[("r", &*info.namespace)],
                    );
                    std::fs::write(&path, &ttl).unwrap();
                    ntriples::write_document(&turtle::parse_turtle(&ttl).unwrap())
                } else {
                    std::fs::write(&path, &nt).unwrap();
                    nt
                };
                reference
                    .add_ntriples_kb(&info.name, &info.namespace, &statements)
                    .unwrap();
                files.push(path);
            }
            let reference = reference.build();
            assert_eq!(reference.len(), world.dataset.len());

            let mut pipeline = PipelineConfig::default();
            if flags.contains(&"--dirty") {
                pipeline.mode = ErMode::Dirty;
                pipeline.weighting = WeightingScheme::Js;
                pipeline.pruning = Pruning::Cep(None);
            }
            let label = format!("world {w}, turtle mask {turtle_mask:b}");
            assert_eq!(
                resolve(&files, &flags),
                library_report(&reference, pipeline.clone()),
                "{label}"
            );

            let mut loaded = DatasetBuilder::new();
            for f in &files {
                loaded.load_file(f).unwrap();
            }
            let loaded = loaded.build();
            let bits = match_bits(&loaded, pipeline.clone());
            assert!(!bits.is_empty(), "{label}");
            assert_eq!(bits, match_bits(&reference, pipeline), "{label}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---- what a document means beyond its statements --------------------------

/// `(predicate, is a resource, text)`.
type Attribute = (String, bool, String);

/// Every description as `(uri, kb, attributes)`, in entity order.
fn descriptions(dataset: &Dataset) -> Vec<(String, u16, Vec<Attribute>)> {
    dataset
        .entities()
        .map(|e| {
            let d = dataset.description(e);
            let attributes = d
                .attributes()
                .map(|(p, v)| {
                    (
                        dataset.predicate_name(p).to_string(),
                        v.as_resource().is_some(),
                        v.text().to_string(),
                    )
                })
                .collect();
            (d.uri().to_string(), d.kb().0, attributes)
        })
        .collect()
}

fn load(files: &[PathBuf]) -> Dataset {
    let mut builder = DatasetBuilder::new();
    for f in files {
        builder.load_file(f).expect("a written world file loads");
    }
    builder.build()
}

/// (d) Exact duplicates of a file collapse onto their first occurrence:
/// a dump with every fifth statement repeated somewhere later — respelled,
/// so only the *statement* is equal — loads as the dump without them.
#[test]
fn duplicate_statements_collapse_onto_the_first_occurrence() {
    let dir = scratch_dir("dups");
    let world = generate(&profiles::center_dense(120, 9));
    let mut rng = Rng(9);
    let (mut clean_files, mut noisy_files) = (Vec::new(), Vec::new());
    for kb in 0..world.dataset.kb_count() {
        let nt = world.dataset.to_ntriples(KbId(kb as u16));
        let mut noisy: Vec<String> = nt.lines().map(str::to_string).collect();
        let statements = noisy.len();
        for i in (0..statements).step_by(5) {
            let respelled = format!("  {}  # again", noisy[i].replace("> <", ">\t<"));
            let at = i + 1 + rng.below(noisy.len() - i);
            noisy.insert(at, respelled);
        }
        let clean = dir.join(format!("clean-{kb}.nt"));
        let dirty = dir.join(format!("noisy-{kb}.nt"));
        std::fs::write(&clean, &nt).unwrap();
        std::fs::write(&dirty, noisy.join("\n")).unwrap();
        clean_files.push(clean);
        noisy_files.push(dirty);
    }
    let (clean, noisy) = (load(&clean_files), load(&noisy_files));
    assert_eq!(descriptions(&noisy), descriptions(&clean));
    let (a, b) = (resolve(&noisy_files, &[]), resolve(&clean_files, &[]));
    assert_eq!(a, b);
    std::fs::remove_dir_all(&dir).ok();
}

/// Two files of one stem are two KBs: `_:b1` of the second must not land
/// in the description `_:b1` of the first.
#[test]
fn blank_labels_stay_inside_their_file() {
    let dir = scratch_dir("blank");
    let mut files = Vec::new();
    for (sub, name) in [("a", "Heraklion"), ("b", "Iraklio")] {
        std::fs::create_dir_all(dir.join(sub)).unwrap();
        let path = dir.join(sub).join("kb.nt");
        let text =
            format!("_:b1 <http://o/name> \"{name}\" .\n<http://{sub}/x> <http://o/near> _:b1 .\n");
        std::fs::write(&path, text).unwrap();
        files.push(path);
    }
    let report = resolve(&files, &[]);
    assert!(report.starts_with("2 KBs, 4 descriptions"), "{report}");
    let dataset = load(&files);
    let blanks: Vec<_> = descriptions(&dataset)
        .into_iter()
        .filter(|(uri, _, _)| uri.starts_with("bnode://"))
        .collect();
    assert_eq!(blanks.len(), 2);
    for (kb, (_, owner, attributes)) in blanks.iter().enumerate() {
        assert_eq!((*owner as usize, attributes.len()), (kb, 1));
    }
    // The link to `_:b1` resolves inside the file too.
    for e in dataset.entities() {
        assert_eq!(dataset.neighbors(e).len(), 1);
        assert_eq!(dataset.kb_of(dataset.neighbors(e)[0]), dataset.kb_of(e));
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---- the loader against a naive model --------------------------------------

/// Subjects of every file: `http://shared/…` ones appear in several files,
/// and every IRI is also a possible object, so links resolve.
const SUBJECTS: &[&str] = &[
    "http://shared/one",
    "http://shared/two",
    "http://k/\u{e9}1",
    "http://k/\u{e8}2",
    "http://k/a",
    "http://k/b",
    "http://k/c",
    "x",
];
const LABELS: &[&str] = &["b1", "b2", "n-3"];
const PREDICATES: &[&str] = &["name", "label", "knows", "q"];
/// `x` is a value, a tagged value and (above) an IRI; the rest need escapes.
const VALUES: &[&str] = &[
    "x",
    "y",
    "",
    "say \"hi\"\\ and\ttab\nnewline\rcr",
    "\u{3c0}\u{3cc}\u{3bb}\u{3b7}",
];

/// One random file: `grouped` keeps each subject's statements together in
/// first-mention order, otherwise they are interleaved as drawn.
fn random_file(rng: &mut Rng, grouped: bool) -> Vec<Triple> {
    let node = |rng: &mut Rng| {
        if rng.below(4) == 0 {
            Term::Blank(rng.pick(LABELS).into())
        } else {
            Term::iri(rng.pick(SUBJECTS))
        }
    };
    let mut statements: Vec<Triple> = (0..rng.below(40))
        .map(|_| {
            let object = match rng.below(5) {
                0 | 1 => node(rng),
                2 => Term::Literal(Literal::lang_tagged(
                    rng.pick(VALUES),
                    rng.pick(&["en", "el-GR"]),
                )),
                _ => Term::literal(rng.pick(VALUES)),
            };
            let predicate = format!("http://p/{}", rng.pick(PREDICATES));
            Triple::new(node(rng), predicate, object)
        })
        .collect();
    // Exact repeats, near the original and far from it.
    for _ in 0..rng.below(8) {
        if !statements.is_empty() {
            let again = statements[rng.below(statements.len())].clone();
            statements.insert(rng.below(statements.len() + 1), again);
        }
    }
    if grouped {
        let mut order: Vec<Term> = Vec::new();
        for s in &statements {
            if !order.contains(&s.subject) {
                order.push(s.subject.clone());
            }
        }
        statements.sort_by_key(|s| order.iter().position(|o| *o == s.subject));
    }
    statements
}

/// Turtle with a prefix and one `;` list per run of one subject.
fn as_turtle(statements: &[Triple]) -> String {
    let mut text = String::from("@prefix p: <http://p/> .\n");
    for run in statements.chunk_by(|a, b| a.subject == b.subject) {
        let pairs: Vec<String> = run
            .iter()
            .map(|s| format!("p:{} {}", &s.predicate["http://p/".len()..], s.object))
            .collect();
        text += &format!("{} {} .\n", run[0].subject, pairs.join(" ;\n    "));
    }
    text
}

/// What the files mean, worked out the slow way.
#[derive(Debug, Default, PartialEq)]
struct Model {
    /// `(uri, kb, attributes)` in entity order.
    descriptions: Vec<(String, u16, Vec<Attribute>)>,
    neighbors: Vec<Vec<u32>>,
    namespaces: Vec<String>,
    entity_counts: Vec<u32>,
    entities_of_kb: Vec<Vec<u32>>,
}

fn model_of(files: &[(String, Vec<Triple>)]) -> Model {
    let mut model = Model::default();
    for (kb, (name, statements)) in files.iter().enumerate() {
        let uri_of = |node: &Term| match node {
            Term::Iri(iri) => iri.clone(),
            Term::Blank(label) => format!("bnode://{name}:{kb}/{label}"),
            Term::Literal(_) => unreachable!("not a node"),
        };
        let mut in_this_file: Vec<(usize, Attribute)> = Vec::new();
        let mut namespace: Option<String> = None;
        for s in statements {
            let uri = uri_of(&s.subject);
            let e = match model.descriptions.iter().position(|d| d.0 == uri) {
                Some(e) => e,
                None => {
                    model.descriptions.push((uri, kb as u16, Vec::new()));
                    model.descriptions.len() - 1
                }
            };
            let attribute = match &s.object {
                Term::Literal(literal) => (s.predicate.clone(), false, literal.value.clone()),
                node => (s.predicate.clone(), true, uri_of(node)),
            };
            if !in_this_file.contains(&(e, attribute.clone())) {
                in_this_file.push((e, attribute.clone()));
                model.descriptions[e].2.push(attribute);
            }
            if let Term::Iri(iri) = &s.subject {
                namespace = Some(match namespace {
                    None => iri.clone(),
                    Some(prefix) => {
                        let common = prefix.chars().zip(iri.chars());
                        common.take_while(|(a, b)| a == b).map(|(a, _)| a).collect()
                    }
                });
            }
        }
        model.namespaces.push(namespace.unwrap_or_default());
    }
    let n = model.descriptions.len();
    model.neighbors = vec![Vec::new(); n];
    for e in 0..n {
        for (_, resource, text) in &model.descriptions[e].2 {
            let target = model.descriptions.iter().position(|d| d.0 == *text);
            if let (true, Some(t)) = (*resource, target) {
                if t != e {
                    model.neighbors[e].push(t as u32);
                    model.neighbors[t].push(e as u32);
                }
            }
        }
    }
    for row in &mut model.neighbors {
        row.sort_unstable();
        row.dedup();
    }
    model.entities_of_kb = vec![Vec::new(); files.len()];
    for (e, d) in model.descriptions.iter().enumerate() {
        model.entities_of_kb[d.1 as usize].push(e as u32);
    }
    model.entity_counts = model
        .entities_of_kb
        .iter()
        .map(|k| k.len() as u32)
        .collect();
    model
}

/// The same facts read back from a built dataset.
fn observed(dataset: &Dataset) -> Model {
    let ids = |es: &[EntityId]| es.iter().map(|e| e.0).collect::<Vec<u32>>();
    let kbs = || (0..dataset.kb_count()).map(|kb| KbId(kb as u16));
    for e in dataset.entities() {
        assert_eq!(dataset.entity_by_uri(dataset.uri(e)), Some(e));
        assert_eq!(dataset.description(e).kb(), dataset.kb_of(e));
    }
    Model {
        descriptions: descriptions(dataset),
        neighbors: dataset
            .entities()
            .map(|e| ids(dataset.neighbors(e)))
            .collect(),
        namespaces: kbs()
            .map(|kb| dataset.kb(kb).namespace.to_string())
            .collect(),
        entity_counts: kbs().map(|kb| dataset.kb(kb).entity_count).collect(),
        entities_of_kb: kbs().map(|kb| ids(dataset.entities_of_kb(kb))).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (e) Random documents — subject-grouped and scattered, N-Triples and
    /// Turtle, subjects shared between files, duplicates spelled `"x"` /
    /// `"x"@en` / `<x>`, blank subjects and objects, two files of one stem,
    /// escaped literals — load into exactly what the naive model says:
    /// entity order, attribute order and kinds, neighbours, namespaces and
    /// the per-KB tables.
    #[test]
    fn loaded_files_equal_the_naive_model(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let dir = scratch_dir(&format!("model-{seed:x}"));
        let mut files = Vec::new();
        let mut paths = Vec::new();
        for i in 0..2 + rng.below(3) {
            let grouped = rng.below(2) == 0;
            let statements = random_file(&mut rng, grouped);
            // Files 0 and 1 share the stem `kb`, in directories of their own.
            let stem = if i < 2 { "kb".to_string() } else { format!("kb{i}") };
            let turtle = rng.below(2) == 0;
            let text = if turtle {
                as_turtle(&statements)
            } else {
                format!("# a dump\n{}", ntriples::write_document(&statements))
            };
            std::fs::create_dir_all(dir.join(i.to_string())).unwrap();
            let path = dir
                .join(i.to_string())
                .join(format!("{stem}.{}", if turtle { "ttl" } else { "nt" }));
            std::fs::write(&path, text).unwrap();
            files.push((stem, statements));
            paths.push(path);
        }
        let loaded = observed(&load(&paths));
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(loaded, model_of(&files), "seed {}", seed);
    }
}

// ---- files loaded side by side ---------------------------------------------

/// Everything a built dataset says about its KBs, predicates and entities.
fn snapshot(dataset: &Dataset) -> (Vec<(String, String, u32)>, Vec<String>, Model) {
    let kbs = dataset.kbs().iter();
    let kbs = kbs.map(|kb| {
        (
            kb.name.to_string(),
            kb.namespace.to_string(),
            kb.entity_count,
        )
    });
    let predicates = dataset.predicates().iter().map(|(_, p)| p.to_string());
    (kbs.collect(), predicates.collect(), observed(dataset))
}

/// `load_files` at `threads`, and the `load_file` loop it stands for:
/// either both datasets, or both failures as `(file index, line)`.
fn both_loads(paths: &[PathBuf], threads: usize) -> [Result<Dataset, (usize, Option<usize>)>; 2] {
    let mut serial = DatasetBuilder::new();
    let serial = (paths.iter().enumerate())
        .try_for_each(|(i, p)| serial.load_file(p).map(drop).map_err(|e| (i, e.line())))
        .map(|()| serial.build());
    let mut side_by_side = DatasetBuilder::new();
    let side_by_side = match side_by_side.load_files(paths, threads) {
        Ok(kbs) => {
            assert_eq!(
                kbs,
                (0..paths.len()).map(|k| KbId(k as u16)).collect::<Vec<_>>()
            );
            Ok(side_by_side.build())
        }
        Err((i, e)) => Err((i, e.line())),
    };
    [serial, side_by_side]
}

fn assert_loads_agree(paths: &[PathBuf], label: &str) {
    for threads in [1, 2, 3, 8] {
        match both_loads(paths, threads) {
            [Ok(serial), Ok(side_by_side)] => {
                assert_eq!(
                    snapshot(&side_by_side),
                    snapshot(&serial),
                    "{label}, {threads} threads"
                );
            }
            [serial, side_by_side] => assert_eq!(
                side_by_side.err(),
                serial.err(),
                "{label}, {threads} threads"
            ),
        }
    }
}

/// `load_files` builds what the `load_file` loop builds, at any thread
/// count: a later file naming an earlier file's subject (which that KB
/// then does not count), blank nodes in two files, in-file duplicates, and
/// N-Triples beside Turtle; and a malformed middle file fails at the index
/// and line the loop stops at.
#[test]
fn files_loaded_side_by_side_build_what_the_serial_loop_builds() {
    let dir = scratch_dir("side_by_side");
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    };
    let a = write(
        "a.nt",
        "<http://k/a> <http://p/name> \"A\" .\n\
         _:b1 <http://p/name> \"blank of a\" .\n\
         <http://k/a> <http://p/knows> _:b1 .\n\
         <http://k/a> <http://p/name> \"A\" .\n",
    );
    let b = write(
        "b.ttl",
        "@prefix p: <http://p/> .\n\
         <http://k/b> p:label \"B\" ; p:knows <http://k/a> .\n\
         _:b1 p:name \"blank of b\" .\n\
         <http://k/a> p:label \"A again\" .\n\
         <http://k/b> p:label \"B\" .\n",
    );
    let c = write(
        "c.nt",
        "<http://k/c> <http://p/q> \"C\" .\n<http://k/c> <http://p/knows> <http://k/b> .\n",
    );
    let bad = write(
        "bad.nt",
        "<http://k/d> <http://p/q> \"D\" .\n\n<http://k/d> <http://p/q> .\n",
    );
    let bad_ttl = write("bad.ttl", "@prefix p: <http://p/> .\np:x p:y .\n");

    let [serial, _] = both_loads(&[a.clone(), b.clone(), c.clone()], 1);
    let serial = serial.expect("the good files load");
    let a_uri = serial.entity_by_uri("http://k/a").unwrap();
    assert_eq!(serial.kb_of(a_uri), KbId(0));
    assert_eq!(
        serial.kb(KbId(1)).entity_count,
        2,
        "b's re-mention of a is a's"
    );
    assert!(serial.entity_by_uri("bnode://b:1/b1").is_some());

    assert_loads_agree(&[a.clone(), b.clone(), c.clone()], "good files");
    assert_loads_agree(
        &[c.clone(), b.clone(), a.clone(), b.clone()],
        "reordered, repeated",
    );
    assert_loads_agree(std::slice::from_ref(&b), "one file");
    assert_loads_agree(&[], "no file");
    let failing = [a.clone(), bad.clone(), c.clone(), bad_ttl.clone()];
    assert_eq!(
        both_loads(&failing, 1)[0].as_ref().err(),
        Some(&(1, Some(3)))
    );
    assert_loads_agree(&failing, "malformed middle file");
    assert_loads_agree(&[a, b, c, bad_ttl], "malformed last file");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same over random documents (see `random_file`).
    #[test]
    fn random_files_loaded_side_by_side_build_what_the_serial_loop_builds(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let dir = scratch_dir(&format!("side_by_side-{seed:x}"));
        let mut paths = Vec::new();
        for i in 0..2 + rng.below(4) {
            let grouped = rng.below(2) == 0;
            let statements = random_file(&mut rng, grouped);
            let (text, ext) = if rng.below(2) == 0 {
                (as_turtle(&statements), "ttl")
            } else {
                (ntriples::write_document(&statements), "nt")
            };
            // Stems repeat: KB names are not what keeps blank nodes apart.
            std::fs::create_dir_all(dir.join(i.to_string())).unwrap();
            let path = dir.join(i.to_string()).join(format!("kb{}.{ext}", i % 2));
            std::fs::write(&path, text).unwrap();
            paths.push(path);
        }
        assert_loads_agree(&paths, &format!("seed {seed}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---- the statement parser against its earlier self --------------------------

/// The seed document and alphabet of `rdf_hostile.rs`.
const HOSTILE_SEED: &str = "@prefix k: <http://k/> .\n\
<http://k/a> <http://k/name> \"Heraklion \\u0041\\t\\\"x\\\"\"@el .\n\
# comment\n\
_:b1 <http://k/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#int> .\n\
k:a k:knows [ k:name 'it\\'s' ; k:age 7 ] , _:b1 ;\n\
    a k:City .\n\
<http://k/\u{3ba}> <http://k/name> \"\\U0001F600 \u{3c0}\u{3cc}\u{3bb}\u{3b7}\" .\n";
const HOSTILE_SPICE: &[u8] = b"<>\"'\\_:@^.;,[]#\n\r\t uU+-0aZ\xff\xc3\x80";

/// Lines in the manner of `rdf_hostile.rs`'s corpus — its seed document
/// mutated, random bytes and bytes from the grammar's alphabet — plus the
/// malformed lines and generated documents above, and statements whose
/// terms end at every offset of an 8-byte word.
fn parser_corpus() -> Vec<String> {
    let mut documents: Vec<Vec<u8>> = vec![HOSTILE_SEED.as_bytes().to_vec()];
    for seed in 0..1500u64 {
        let mut rng = Rng(seed);
        let mut bytes = HOSTILE_SEED.as_bytes().to_vec();
        for _ in 0..1 + rng.below(4) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.below(bytes.len());
            let byte = rng.pick(HOSTILE_SPICE);
            match rng.below(4) {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                2 => {
                    bytes.remove(at);
                }
                _ => bytes.truncate(at.max(1)),
            }
        }
        documents.push(bytes);
        let len = rng.below(300);
        documents.push((0..len).map(|_| rng.next() as u8).collect());
        documents.push((0..len).map(|_| rng.pick(HOSTILE_SPICE)).collect());
    }
    for seed in 0..100 {
        let lines = document(seed, true).into_iter().map(|l| l.text);
        documents.push(lines.collect::<Vec<_>>().join("\n").into_bytes());
    }
    documents.push(MALFORMED.join("\n").into_bytes());
    for len in 0..24 {
        let word = "w".repeat(len);
        let term = format!("<http://{word}> <http://p/{word}> \"{word}\\\"{word}\"@en .\n");
        let spaced = format!("<http://{word} x> <http://p/{word}\u{a0}> \"{word}");
        documents.push((term + &spaced).into_bytes());
    }
    documents
        .iter()
        .flat_map(|bytes| {
            let text = String::from_utf8_lossy(bytes).into_owned();
            text.split('\n').map(str::to_string).collect::<Vec<_>>()
        })
        .collect()
}

/// `parse_statement` gives every line of the corpus the `Statement` or the
/// `ParseError` the parser gave it before its IRI and literal scans read
/// eight bytes at a time: `(lines, FNV-1a of every result's Debug form)`
/// as the byte-at-a-time parser computed it.
#[test]
fn parse_statement_reads_every_corpus_line_as_the_byte_scans_did() {
    let (mut lines, mut digest) = (0usize, 0xcbf2_9ce4_8422_2325u64);
    for line in parser_corpus() {
        let read = format!("{:?}\n", ntriples::parse_statement(&line, 1));
        for b in read.bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        lines += 1;
    }
    assert_eq!((lines, digest), (24_597, 0x0312_9577_c69c_9e04));
}
