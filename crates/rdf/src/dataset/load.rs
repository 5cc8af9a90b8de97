//! Statements → [`DatasetBuilder`]: the text front end of the ER pipeline.
//!
//! [`DatasetBuilder::add_statement`] is the one entry that takes a parsed
//! [`Statement`]; both parsers emit through it and nothing on this path
//! builds an owned `Triple` or a triple store. The document-level loaders
//! ([`DatasetBuilder::load_ntriples`], [`DatasetBuilder::load_turtle`],
//! [`DatasetBuilder::load_file`], [`DatasetBuilder::add_ntriples_kb`]) pull
//! a whole document into a fresh KB and add the two things a *document*
//! means beyond its statements:
//!
//! * an exact duplicate of an earlier statement of the same document is
//!   dropped (the first occurrence stays where it was);
//! * the KB's namespace is the longest common prefix of its subject IRIs.
//!
//! Entities are numbered by first mention as a subject and attributes keep
//! statement order.
//!
//! # What a statement costs
//!
//! Two interner probes (predicate and subject — the subject's is skipped
//! when it repeats the previous statement's, as in every subject-grouped
//! dump), the value appended to the builder's text arena, one entry
//! appended to its attribute log. Nothing is allocated, hashed into a set
//! or freed per statement; a blank-node object's scoped URI is composed in
//! the arena itself, a blank subject's in one reused buffer.
//!
//! # Why the duplicate collapse is exact
//!
//! It runs once per document, at its end, over the document's own segment
//! of the log — attributes that earlier documents or `add_statement` calls
//! gave the same entity are never looked at. Per description, the indices
//! of its entries are sorted on `(predicate, kind, length, text, index)` —
//! the text is read only between entries equal up to there — and every
//! entry equal to its predecessor is dropped: equal entries are adjacent
//! after the sort and the earliest comes first, so exactly the later
//! occurrences go and the first stays in place. There is no hash, so no
//! collision to reason about, and no quadratic path: a description of `k`
//! entries costs O(k log k) comparisons whatever its values are. The
//! stored attribute is the comparison key — a `Dataset` keeps neither
//! language tag nor datatype, so `"x"` and `"x"@en` are one attribute and
//! collapse, while `<x>` is a different kind and stays. A document whose
//! subjects are scattered is grouped by one stable sort of its segment's
//! indices first; the survivors (and their text) are then closed up in one
//! forward pass, only if something was dropped.
//!
//! A loader that fails leaves the statements before the error in the
//! builder; the caller is expected to drop it.
//!
//! # Loading files side by side
//!
//! [`DatasetBuilder::load_files`] loads each file into a builder of its own
//! and appends those in argument order. A file's builder holds placeholder
//! KBs below the id its KB gets after the append, so blank nodes are scoped
//! as a [`DatasetBuilder::load_file`] loop scopes them; the duplicate
//! collapse and the namespace are per document anyway. The append
//! re-interns the file's predicates and subjects in first-mention order, so
//! a new one gets the number the loop gives it and a subject an earlier
//! file created maps to that entity (and is not counted by the later KB);
//! text and log entries go to the ends of the arena and the log, shifted
//! and renumbered. The result is the loop's builder, entry for entry.

use super::{DatasetBuilder, EntityId, KbId, KbInfo};
use crate::ntriples::{self, ParseError, StatementReader};
use crate::term::{Object, Statement, Subject, Triple};
use crate::turtle::{self, TurtleError};
use minoan_common::Symbol;
use std::fmt::{self, Write as _};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Why [`DatasetBuilder::load_file`] failed.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be opened or read.
    Io(std::io::Error),
    /// The N-Triples document is malformed.
    NTriples(ParseError),
    /// The Turtle document is malformed.
    Turtle(TurtleError),
}

impl LoadError {
    /// 1-based line of a malformed document; `None` for I/O failures
    /// before the first byte.
    pub fn line(&self) -> Option<usize> {
        match self {
            LoadError::Io(_) => None,
            LoadError::NTriples(e) => Some(e.line),
            LoadError::Turtle(e) => Some(e.line),
        }
    }
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "cannot read: {e}"),
            LoadError::NTriples(e) => e.fmt(f),
            LoadError::Turtle(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Appends the dataset-wide URI of blank node `label` of `kb` to `out`.
fn scope_blank(info: &KbInfo, kb: KbId, label: &str, out: &mut String) {
    let _ = write!(out, "bnode://{}:{}/{label}", info.name, kb.0);
}

impl DatasetBuilder {
    /// Adds one parsed statement to `kb`: the description is created on
    /// the subject's first mention, literal objects become literal
    /// attributes, IRI and blank objects resource attributes. Blank labels
    /// are scoped by KB *id* (`bnode://<name>:<id>/<label>`), so they never
    /// collide across KBs — not even across two KBs of one name. Unlike a
    /// document loader, this keeps duplicates.
    pub fn add_statement(&mut self, kb: KbId, statement: &Statement<'_>) {
        self.place(kb, statement, None);
    }

    /// Adds a parsed triple ([`Self::add_statement`] over its borrowed
    /// view). The invalid literal-subject triple is ignored; the parsers
    /// never produce one.
    pub fn add_triple(&mut self, kb: KbId, triple: &Triple) {
        if let Some(statement) = Statement::from_triple(triple) {
            self.add_statement(kb, &statement);
        }
    }

    /// Logs `statement` under its subject and returns the subject.
    /// `previous` is the subject of the caller's previous statement: dumps
    /// group their statements by subject, so most subjects are that one
    /// again and need no interner probe.
    fn place(
        &mut self,
        kb: KbId,
        statement: &Statement<'_>,
        previous: Option<EntityId>,
    ) -> EntityId {
        let predicate = self.predicates.intern(statement.predicate);
        let entity = match statement.subject {
            Subject::Iri(iri) => match previous {
                Some(e) if self.uris.resolve(Symbol(e.0)) == iri => e,
                _ => self.entity_for(kb, iri),
            },
            Subject::Blank(label) => {
                let mut scoped = std::mem::take(&mut self.blank_uri);
                scoped.clear();
                scope_blank(&self.kbs[kb.index()], kb, label, &mut scoped);
                let entity = self.entity_for(kb, &scoped);
                self.blank_uri = scoped;
                entity
            }
        };
        let start = self.text.len();
        let resource = match &statement.object {
            Object::Literal { value, .. } => {
                self.text.push_str(value);
                false
            }
            Object::Iri(iri) => {
                self.text.push_str(iri);
                true
            }
            Object::Blank(label) => {
                scope_blank(&self.kbs[kb.index()], kb, label, &mut self.text);
                true
            }
        };
        self.log(entity, predicate, start, resource);
        entity
    }

    /// Drops, from the log entries `first..` (one document's), every entry
    /// equal to an earlier one of the same entity in that range — see the
    /// module docs.
    fn collapse_duplicates(&mut self, first: usize) {
        let end = self.logged();
        let first = first as u32; // `first <= end`
        let (subjects, attrs, text) = (&self.subjects, &self.attrs, self.text.as_str());
        let subject = |i: u32| subjects[i as usize];
        let mut order: Vec<u32> = (first..end).collect();
        if !subjects[first as usize..].is_sorted() {
            order.sort_by_key(|&i| subject(i));
        }
        let mut dropped: Vec<u32> = Vec::new();
        for entries in order.chunk_by_mut(|&a, &b| subject(a) == subject(b)) {
            if entries.len() < 2 {
                continue;
            }
            let shape = |i: u32| {
                let a = attrs[i as usize];
                (a.predicate, a.resource, a.len)
            };
            let value = |i: u32| attrs[i as usize].text(text);
            entries.sort_unstable_by(|&a, &b| {
                let by_shape = shape(a).cmp(&shape(b));
                by_shape
                    .then_with(|| value(a).cmp(value(b)))
                    .then(a.cmp(&b))
            });
            for pair in entries.windows(2) {
                if shape(pair[0]) == shape(pair[1]) && value(pair[0]) == value(pair[1]) {
                    dropped.push(pair[1]);
                }
            }
        }
        if dropped.is_empty() {
            return;
        }

        // Entries and their text are both in statement order from `first`
        // on, so one forward pass closes the gaps in the log and the arena.
        dropped.sort_unstable();
        let mut dropped = dropped.into_iter().peekable();
        let base = self.attrs[first as usize].start as usize;
        let tail = self.text.split_off(base);
        let mut kept = first as usize;
        for i in first as usize..end as usize {
            if dropped.next_if_eq(&(i as u32)).is_some() {
                continue;
            }
            let mut attr = self.attrs[i];
            let value = &tail[attr.start as usize - base..][..attr.len as usize];
            attr.start = self.text.len() as u32; // only ever moves down
            self.text.push_str(value);
            self.attrs[kept] = attr;
            self.subjects[kept] = self.subjects[i];
            kept += 1;
        }
        self.attrs.truncate(kept);
        self.subjects.truncate(kept);
    }

    /// Parses an in-memory N-Triples document into a fresh KB with the
    /// given namespace.
    pub fn add_ntriples_kb(
        &mut self,
        name: &str,
        namespace: &str,
        document: &str,
    ) -> Result<KbId, ParseError> {
        let mut load = KbLoad::new(self, name);
        for statement in ntriples::statements(document) {
            load.push(&statement?);
        }
        Ok(load.finish(Some(namespace)))
    }

    /// Pulls an N-Triples stream into a fresh KB, statement by statement
    /// through one line buffer; the namespace is inferred.
    pub fn load_ntriples(&mut self, name: &str, reader: impl BufRead) -> Result<KbId, ParseError> {
        let mut statements = StatementReader::new(reader);
        let mut load = KbLoad::new(self, name);
        while let Some(statement) = statements.next_statement() {
            load.push(&statement?);
        }
        Ok(load.finish(None))
    }

    /// Parses a Turtle document (raw bytes: invalid UTF-8 is reported with
    /// its line, like any other fault) into a fresh KB; the namespace is
    /// inferred.
    pub fn load_turtle(&mut self, name: &str, document: &[u8]) -> Result<KbId, TurtleError> {
        let text = std::str::from_utf8(document).map_err(|e| TurtleError {
            line: 1 + document[..e.valid_up_to()]
                .iter()
                .filter(|&&b| b == b'\n')
                .count(),
            message: "invalid UTF-8".into(),
        })?;
        let mut load = KbLoad::new(self, name);
        turtle::for_each_statement(text, |statement| load.push(&statement))?;
        Ok(load.finish(None))
    }

    /// Loads one RDF file into a fresh KB named after the file stem:
    /// Turtle for `.ttl` / `.turtle` in any letter case, N-Triples for
    /// anything else.
    pub fn load_file(&mut self, path: &Path) -> Result<KbId, LoadError> {
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("kb");
        if turtle::is_turtle_path(path) {
            let document = std::fs::read(path)?;
            self.load_turtle(name, &document).map_err(LoadError::Turtle)
        } else {
            let file = std::fs::File::open(path)?;
            self.load_ntriples(name, BufReader::with_capacity(1 << 16, file))
                .map_err(LoadError::NTriples)
        }
    }

    /// Loads `paths` into one fresh KB each, in order, on up to `threads`
    /// threads, leaving the builder as a [`Self::load_file`] loop would (see
    /// the module docs); one file or one thread loads straight into `self`.
    /// On failure, returns the index and error of the first file in
    /// argument order that did not load; the builder is then to be dropped.
    pub fn load_files<P: AsRef<Path> + Sync>(
        &mut self,
        paths: &[P],
        threads: usize,
    ) -> Result<Vec<KbId>, (usize, LoadError)> {
        let failed = |i| move |e| (i, e);
        if threads <= 1 || paths.len() <= 1 {
            let mut load = |(i, p): (usize, &P)| self.load_file(p.as_ref()).map_err(failed(i));
            return paths.iter().enumerate().map(&mut load).collect();
        }
        let (base, next) = (self.kbs.len(), AtomicUsize::new(0));
        let worker = || {
            let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < paths.len());
            let load = |i: usize| {
                let kbs = vec![KbInfo::default(); base + i];
                let mut file = Self {
                    kbs,
                    ..Self::default()
                };
                (i, file.load_file(paths[i].as_ref()).map(|_| file))
            };
            std::iter::from_fn(claim).map(load).collect::<Vec<_>>()
        };
        let mut loaded = std::thread::scope(|s| {
            let spawned: Vec<_> = (1..threads.min(paths.len()))
                .map(|_| s.spawn(worker))
                .collect();
            let mut loaded = worker();
            for handle in spawned {
                let theirs = handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
                loaded.extend(theirs);
            }
            loaded
        });
        loaded.sort_unstable_by_key(|&(i, _)| i);
        let mut append = |(i, file): (usize, Result<Self, LoadError>)| {
            file.map(|file| self.append(file)).map_err(failed(i))
        };
        loaded.into_iter().map(&mut append).collect()
    }

    /// Appends `file`, a builder whose last KB holds one loaded document
    /// and has the id that KB gets here (see the module docs).
    fn append(&mut self, file: DatasetBuilder) -> KbId {
        if self.kbs.is_empty() {
            *self = file;
            return KbId(0);
        }
        let info = file.kbs.last().expect("a loaded file has a KB");
        let kb = self.add_kb(&info.name, &info.namespace);
        let predicates: Vec<Symbol> = (file.predicates.iter())
            .map(|(_, predicate)| self.predicates.intern(predicate))
            .collect();
        let entities: Vec<EntityId> = (file.uris.iter())
            .map(|(_, subject)| self.entity_for(kb, subject))
            .collect();
        let end = u32::try_from(self.text.len() + file.text.len())
            .expect("dataset overflow: more than 4 GiB of attribute text");
        let shift = end - file.text.len() as u32;
        self.text.push_str(&file.text);
        let subjects = file.subjects.iter().map(|e| entities[e.index()]);
        self.subjects.extend(subjects);
        self.attrs
            .extend(file.attrs.iter().map(|&attr| super::Attr {
                predicate: predicates[attr.predicate.index()],
                start: attr.start + shift,
                ..attr
            }));
        kb
    }
}

/// One document being pulled into one fresh KB.
struct KbLoad<'b> {
    builder: &'b mut DatasetBuilder,
    kb: KbId,
    /// Where the document's entries start in the builder's log.
    first: usize,
    /// Subject of the document's previous statement.
    previous: Option<EntityId>,
    /// Longest common prefix of the subject IRIs so far.
    namespace: Option<String>,
}

impl<'b> KbLoad<'b> {
    fn new(builder: &'b mut DatasetBuilder, name: &str) -> Self {
        let kb = builder.add_kb(name, "");
        let first = builder.attrs.len();
        Self {
            builder,
            kb,
            first,
            previous: None,
            namespace: None,
        }
    }

    fn push(&mut self, statement: &Statement<'_>) {
        let entity = self.builder.place(self.kb, statement, self.previous);
        // A repeated subject cannot narrow the prefix.
        if self.previous != Some(entity) {
            self.previous = Some(entity);
            if let Subject::Iri(iri) = statement.subject {
                match &mut self.namespace {
                    None => self.namespace = Some(iri.into()),
                    Some(prefix) => {
                        let common = prefix.bytes().zip(iri.bytes());
                        let mut len = common.take_while(|(a, b)| a == b).count();
                        while !prefix.is_char_boundary(len) {
                            len -= 1;
                        }
                        prefix.truncate(len);
                    }
                }
            }
        }
    }

    /// Collapses the document's duplicates, names the KB's namespace —
    /// `explicit`, else the inferred prefix — and returns its id.
    fn finish(self, explicit: Option<&str>) -> KbId {
        self.builder.collapse_duplicates(self.first);
        let namespace = explicit.or(self.namespace.as_deref()).unwrap_or_default();
        self.builder.kbs[self.kb.index()].namespace = namespace.into();
        self.kb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;

    fn attributes(ds: &Dataset, uri: &str) -> Vec<(String, String)> {
        let e = ds.entity_by_uri(uri).expect(uri);
        ds.description(e)
            .attributes()
            .map(|(p, v)| (ds.predicate_name(p).to_string(), v.text().to_string()))
            .collect()
    }

    #[test]
    fn duplicates_collapse_onto_the_first_occurrence() {
        let doc = "<http://k/a> <http://k/p> \"x\" .\n\
                   <http://k/a> <http://k/q> \"y\" .\n\
                   <http://k/a> <http://k/p> \"x\"@en .\n\
                   <http://k/a> <http://k/p> <x> .\n\
                   <http://k/b> <http://k/p> \"x\" .\n\
                   <http://k/a> <http://k/q> \"y\" .\n\
                   <http://k/a> <http://k/p> <x> .\n";
        let mut b = DatasetBuilder::new();
        b.load_ntriples("one", doc.as_bytes()).unwrap();
        // Across documents nothing collapses: the second KB's statements
        // about an entity the first one owns are further evidence.
        b.load_ntriples("two", doc.as_bytes()).unwrap();
        let ds = b.build();
        let once = [
            ("http://k/p", "x"),
            ("http://k/q", "y"),
            ("http://k/p", "x"),
        ];
        let a = attributes(&ds, "http://k/a");
        assert_eq!(a.len(), 6);
        for (half, got) in a.chunks(3).enumerate() {
            for ((p, v), (want_p, want_v)) in got.iter().zip(once) {
                assert_eq!((p.as_str(), v.as_str()), (want_p, want_v), "half {half}");
            }
        }
        let a = ds.entity_by_uri("http://k/a").unwrap();
        let kinds: Vec<bool> = ds
            .description(a)
            .attributes()
            .take(3)
            .map(|(_, v)| v.as_resource().is_some())
            .collect();
        assert_eq!(kinds, [false, false, true], "a literal is not the IRI");
        assert_eq!(attributes(&ds, "http://k/b").len(), 2);
    }

    #[test]
    fn single_statement_entry_keeps_duplicates() {
        let t = ntriples::parse_line("<http://k/a> <http://k/p> \"x\" .", 1).unwrap();
        let mut b = DatasetBuilder::new();
        let kb = b.add_kb("kb", "http://k/");
        b.add_triple(kb, &t);
        b.add_triple(kb, &t);
        assert_eq!(attributes(&b.build(), "http://k/a").len(), 2);
    }

    #[test]
    fn namespace_is_the_common_prefix_of_subject_iris() {
        let doc = "<http://db.org/r/Heraklion> <http://p> <http://elsewhere/x> .\n\
                   _:b <http://p> \"blank subjects do not count\" .\n\
                   <http://db.org/r/Crete> <http://p> \"y\" .\n";
        let mut b = DatasetBuilder::new();
        let kb = b.load_ntriples("db", doc.as_bytes()).unwrap();
        let utf8 = "<http://k/\u{e9}> <http://p> \"1\" .\n<http://k/\u{e8}> <http://p> \"2\" .\n";
        let cut = b.load_ntriples("utf8", utf8.as_bytes()).unwrap();
        let explicit = b.add_ntriples_kb("given", "http://given/", doc).unwrap();
        let empty = b.load_ntriples("empty", "# nothing\n".as_bytes()).unwrap();
        let ds = b.build();
        assert_eq!(&*ds.kb(kb).namespace, "http://db.org/r/");
        assert_eq!(
            &*ds.kb(cut).namespace,
            "http://k/",
            "cut on a char boundary"
        );
        assert_eq!(&*ds.kb(explicit).namespace, "http://given/");
        assert_eq!(&*ds.kb(empty).namespace, "");
    }

    #[test]
    fn turtle_and_ntriples_build_the_same_descriptions() {
        let nt = "<http://k/a> <http://k/name> \"A\" .\n\
                  <http://k/a> <http://k/knows> _:b1 .\n\
                  _:b1 <http://k/name> \"B\\tb\" .\n\
                  <http://k/a> <http://k/name> \"A\" .\n";
        let ttl = "@prefix k: <http://k/> .\n\
                   k:a k:name \"A\" ; k:knows _:b1 .\n\
                   _:b1 k:name \"B\\tb\" .\n\
                   k:a k:name \"A\" .\n";
        let mut from_nt = DatasetBuilder::new();
        from_nt.load_ntriples("kb", nt.as_bytes()).unwrap();
        let mut from_ttl = DatasetBuilder::new();
        from_ttl.load_turtle("kb", ttl.as_bytes()).unwrap();
        let (from_nt, from_ttl) = (from_nt.build(), from_ttl.build());
        assert_eq!(from_nt.len(), 2);
        for e in from_nt.entities() {
            assert_eq!(from_nt.uri(e), from_ttl.uri(e));
            assert_eq!(
                attributes(&from_nt, from_nt.uri(e)),
                attributes(&from_ttl, from_ttl.uri(e))
            );
            assert_eq!(from_nt.neighbors(e), from_ttl.neighbors(e));
        }
        assert_eq!(from_nt.uri(EntityId(1)), "bnode://kb:0/b1");
    }

    #[test]
    fn load_file_reads_turtle_extensions_in_any_letter_case() {
        let dir = std::env::temp_dir().join(format!("minoan_load_ext_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ttl = "@prefix k: <http://k/> .\nk:a k:name \"A\" .\n";
        let nt = "<http://k/a> <http://k/name> \"A\" .\n";
        let mut b = DatasetBuilder::new();
        for (file, document) in [
            ("kb.ttl", ttl),
            ("KB.TTL", ttl),
            ("kb.Turtle", ttl),
            ("KB.NT", nt),
            ("kb", nt),
        ] {
            let path = dir.join(file);
            std::fs::write(&path, document).unwrap();
            if let Err(e) = b.load_file(&path) {
                panic!("{file}: {e}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(attributes(&b.build(), "http://k/a").len(), 5);
    }

    #[test]
    fn faults_carry_their_line_through_every_loader() {
        let mut b = DatasetBuilder::new();
        let nt = b"<http://a> <http://p> \"ok\" .\n\n<http://a> <http://p> \"\xff\" .\n";
        assert_eq!(b.load_ntriples("nt", &nt[..]).unwrap_err().line, 3);
        let ttl = b"@prefix k: <http://k/> .\nk:a k:p \"ok\" .\nk:a k:p \"\xff\" .\n";
        let err = b.load_turtle("ttl", ttl).unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (3, "invalid UTF-8"));
        let err = b
            .load_turtle("ttl", b"\n\n<http://a> <http://p> .")
            .unwrap_err();
        assert_eq!(err.line, 3);
        let missing = b.load_file(Path::new("/nonexistent/kb.nt")).unwrap_err();
        assert!(matches!(missing, LoadError::Io(_)) && missing.line().is_none());
    }
}
