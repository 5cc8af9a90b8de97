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
//! # Loading files in pieces, side by side
//!
//! [`DatasetBuilder::load_file`] reads a file whole, validates it as UTF-8
//! once and parses it in place. [`DatasetBuilder::load_files`] does the
//! same for every file on up to `threads` threads: it reads the files side
//! by side, cuts each N-Triples document into line-aligned pieces of about
//! `total bytes / threads` (never below 1 MiB; a Turtle document, whose
//! statements span lines, stays whole), and parses each piece into a
//! builder of its own. A piece's builder holds placeholder KBs below the id
//! its document's KB gets, and that KB's name, so blank nodes are scoped
//! as a [`DatasetBuilder::load_file`] loop scopes them. The pieces are then
//! appended in document order: the append re-interns the piece's
//! predicates and subjects in first-mention order, so a new one gets the
//! number the loop gives it and a subject an earlier piece or file created
//! maps to that entity (and is not counted again); text and log entries go
//! to the ends of the arena and the log, shifted and renumbered. A
//! document in one piece is finished — duplicates collapsed, namespace set
//! — on its thread; one in several, once its last piece is in, its
//! namespace being the longest common prefix of its pieces' prefixes. The
//! result is the loop's builder, entry for entry, at every thread count. A
//! fault in a piece is reported at the line the loop reports it at, and
//! the first failing piece in document order (and file in argument order)
//! is the one reported.
//!
//! Both loaders hold a document whole while it is parsed, and
//! [`DatasetBuilder::load_files`] holds every document and every piece's
//! builder until the last piece is appended: the peak is about the input's
//! size above the builder's. [`DatasetBuilder::load_ntriples`] streams.

use super::{DatasetBuilder, EntityId, KbId, KbInfo};
use crate::ntriples::{self, ParseError, StatementReader};
use crate::term::{Object, Statement, Subject, Triple};
use crate::turtle::{self, TurtleError};
use minoan_common::Symbol;
use std::fmt::{self, Write as _};
use std::io::BufRead;
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
        let mut load = KbLoad::new(self, name);
        load.push_turtle(document)?;
        Ok(load.finish(None))
    }

    /// Loads one RDF file into a fresh KB named after the file stem:
    /// Turtle for `.ttl` / `.turtle` in any letter case, N-Triples for
    /// anything else. The file is read whole and parsed in place, so it
    /// sits in memory beside the builder until the load returns; to
    /// stream a dump instead, pass a reader to [`Self::load_ntriples`].
    pub fn load_file(&mut self, path: &Path) -> Result<KbId, LoadError> {
        let document = std::fs::read(path)?;
        let mut load = KbLoad::new(self, kb_name(path));
        load.push_document(path, &document)?;
        Ok(load.finish(None))
    }

    /// Loads `paths` into one fresh KB each, in order, on up to `threads`
    /// threads, leaving the builder as a [`Self::load_file`] loop would (see
    /// the module docs); one thread loads straight into `self`. On failure,
    /// returns the index and error of the first file in argument order that
    /// did not load; the builder is then to be dropped.
    pub fn load_files<P: AsRef<Path> + Sync>(
        &mut self,
        paths: &[P],
        threads: usize,
    ) -> Result<Vec<KbId>, (usize, LoadError)> {
        self.load_files_cut(paths, threads, MIN_PIECE)
    }

    /// [`Self::load_files`] with N-Triples documents cut into pieces of at
    /// least `min_piece` bytes ([`MIN_PIECE`] outside the tests, which cut
    /// small documents anywhere).
    fn load_files_cut<P: AsRef<Path> + Sync>(
        &mut self,
        paths: &[P],
        threads: usize,
        min_piece: usize,
    ) -> Result<Vec<KbId>, (usize, LoadError)> {
        let failed = |i| move |e| (i, e);
        if threads <= 1 {
            let mut load = |(i, p): (usize, &P)| self.load_file(p.as_ref()).map_err(failed(i));
            return paths.iter().enumerate().map(&mut load).collect();
        }
        let path = |i: usize| paths[i].as_ref();
        let documents = side_by_side(paths.len(), threads, |i| std::fs::read(path(i)));
        let total: usize = documents.iter().flatten().map(Vec::len).sum();
        let size = total.div_ceil(threads).max(min_piece);
        let mut pieces = Vec::new();
        for (file, document) in documents.iter().enumerate() {
            let Ok(document) = document else { continue };
            // Turtle statements span lines: a Turtle document stays whole.
            let size = if turtle::is_turtle_path(path(file)) {
                usize::MAX
            } else {
                size
            };
            pieces.extend(cuts(document, size).map(|(start, end)| Piece {
                file,
                document,
                start,
                end,
            }));
        }

        // Each piece into a builder of its own, with placeholder KBs below
        // its document's id; a document in one piece is finished there.
        let base = self.kbs.len();
        let loaded = side_by_side(pieces.len(), threads, |k| {
            let Piece {
                file,
                document,
                start,
                end,
            } = pieces[k];
            let mut piece = Self {
                kbs: vec![KbInfo::default(); base + file],
                ..Self::default()
            };
            let mut load = KbLoad::new(&mut piece, kb_name(path(file)));
            if let Err(mut e) = load.push_document(path(file), &document[start..end]) {
                if let LoadError::NTriples(e) = &mut e {
                    e.line += lines(&document[..start]);
                }
                return (file, Err(e));
            }
            let namespace = if end - start == document.len() {
                load.finish(None);
                None
            } else {
                load.namespace
            };
            (file, Ok((piece, namespace)))
        });
        drop(pieces);
        let reads = documents.into_iter().map(|document| document.map(drop));

        // Spliced back in document order; a document of several pieces is
        // finished once its last piece is in.
        let mut loaded = loaded.into_iter().peekable();
        let mut kbs = Vec::with_capacity(paths.len());
        for (file, read) in reads.enumerate() {
            read.map_err(|e| (file, LoadError::Io(e)))?;
            let first = self.attrs.len();
            let (mut pieces, mut namespace) = (0, None);
            while let Some((_, piece)) = loaded.next_if(|&(f, _)| f == file) {
                let (piece, prefix) = piece.map_err(failed(file))?;
                if let Some(prefix) = prefix {
                    narrow(&mut namespace, &prefix);
                }
                self.append(piece, pieces == 0);
                pieces += 1;
            }
            let kb = self.last_kb();
            if pieces > 1 {
                self.collapse_duplicates(first);
                self.kbs[kb.index()].namespace = namespace.unwrap_or_default().into();
            }
            kbs.push(kb);
        }
        Ok(kbs)
    }

    /// The id of the most recently added KB.
    fn last_kb(&self) -> KbId {
        KbId(u16::try_from(self.kbs.len().saturating_sub(1)).expect("too many KBs"))
    }

    /// Appends `piece`, a builder whose last KB holds (part of) one loaded
    /// document and has the id that KB gets here — a new KB if `new_kb`,
    /// else this builder's last (see the module docs).
    fn append(&mut self, piece: DatasetBuilder, new_kb: bool) {
        if self.kbs.is_empty() {
            *self = piece;
            return;
        }
        let info = piece.kbs.last().expect("a loaded piece has a KB");
        let kb = if new_kb {
            self.add_kb(&info.name, &info.namespace)
        } else {
            self.last_kb()
        };
        let predicates: Vec<Symbol> = (piece.predicates.iter())
            .map(|(_, predicate)| self.predicates.intern(predicate))
            .collect();
        let entities: Vec<EntityId> = (piece.uris.iter())
            .map(|(_, subject)| self.entity_for(kb, subject))
            .collect();
        let end = u32::try_from(self.text.len() + piece.text.len())
            .expect("dataset overflow: more than 4 GiB of attribute text");
        let shift = end - piece.text.len() as u32;
        self.text.push_str(&piece.text);
        let subjects = piece.subjects.iter().map(|e| entities[e.index()]);
        self.subjects.extend(subjects);
        self.attrs
            .extend(piece.attrs.iter().map(|&attr| super::Attr {
                predicate: predicates[attr.predicate.index()],
                start: attr.start + shift,
                ..attr
            }));
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
                narrow(&mut self.namespace, iri);
            }
        }
    }

    /// Parses `document` — Turtle if `path` names a Turtle file, else
    /// N-Triples — into the KB.
    fn push_document(&mut self, path: &Path, document: &[u8]) -> Result<(), LoadError> {
        if turtle::is_turtle_path(path) {
            self.push_turtle(document).map_err(LoadError::Turtle)
        } else {
            self.push_ntriples(document).map_err(LoadError::NTriples)
        }
    }

    /// Parses N-Triples lines in place. Invalid UTF-8 is reported at its
    /// line once the lines before it have been parsed, as the
    /// [`StatementReader`] of [`DatasetBuilder::load_ntriples`] reports it.
    fn push_ntriples(&mut self, document: &[u8]) -> Result<(), ParseError> {
        let (text, invalid) = match std::str::from_utf8(document) {
            Ok(text) => (text, None),
            Err(e) => {
                let valid = &document[..e.valid_up_to()];
                let line_start = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                let before = std::str::from_utf8(&valid[..line_start]).unwrap_or_default();
                (before, Some(1 + lines(valid)))
            }
        };
        for statement in ntriples::statements(text) {
            self.push(&statement?);
        }
        invalid.map_or(Ok(()), |line| Err(ntriples::invalid_utf8(line)))
    }

    /// Parses a Turtle document in place; invalid UTF-8 anywhere is
    /// reported at its line before any statement is read.
    fn push_turtle(&mut self, document: &[u8]) -> Result<(), TurtleError> {
        let text = std::str::from_utf8(document).map_err(|e| TurtleError {
            line: 1 + lines(&document[..e.valid_up_to()]),
            message: "invalid UTF-8".into(),
        })?;
        turtle::for_each_statement(text, |statement| self.push(&statement))
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

/// The smallest piece [`DatasetBuilder::load_files`] cuts an N-Triples
/// document into: a smaller document stays whole, since 1 MiB loads in
/// ≈ 2–3 ms on one core and each extra piece adds a splice to the serial
/// tail.
const MIN_PIECE: usize = 1 << 20;

/// A line-aligned byte range of one document, parsed on its own.
struct Piece<'d> {
    file: usize,
    document: &'d [u8],
    start: usize,
    end: usize,
}

/// The name of the KB loaded from `path`: its file stem.
fn kb_name(path: &Path) -> &str {
    path.file_stem().and_then(|s| s.to_str()).unwrap_or("kb")
}

/// Newlines in `bytes`: the lines before what follows them.
fn lines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Cuts `document` into consecutive line-aligned ranges of about `size`
/// bytes each — at least one range, even for an empty document; every
/// range but the last ends just after a newline.
fn cuts(document: &[u8], size: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let len = document.len();
    let step = len.div_ceil(len.div_ceil(size.max(1)).max(1));
    let mut next = Some(0);
    std::iter::from_fn(move || {
        let start = next?;
        // Just after the first newline at or past byte `start + step - 1`.
        let from = (start + step).saturating_sub(1);
        let rest = document.get(from..).unwrap_or_default();
        let end = (rest.iter().position(|&b| b == b'\n')).map_or(len, |at| from + at + 1);
        next = (end < len).then_some(end);
        Some((start, end))
    })
}

/// Narrows `prefix` — the longest common prefix so far, `None` before the
/// first IRI — to what it shares with `iri`, on a char boundary.
fn narrow(prefix: &mut Option<String>, iri: &str) {
    match prefix {
        None => *prefix = Some(iri.into()),
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

/// `f(0)`, …, `f(n - 1)` in index order, computed on up to `threads`
/// threads — the calling one among them; nothing is spawned for one item
/// or one thread. Items are claimed in index order.
fn side_by_side<R: Send>(n: usize, threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
        std::iter::from_fn(claim)
            .map(|i| (i, f(i)))
            .collect::<Vec<_>>()
    };
    let mut done = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..threads.min(n)).map(|_| s.spawn(worker)).collect();
        let mut done = worker();
        for handle in spawned {
            let theirs = handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            done.extend(theirs);
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
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

    // ---- one document cut into pieces -------------------------------------

    use crate::term::{Literal, Term};
    use std::path::PathBuf;

    /// SplitMix64, for reproducible random documents.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())]
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("minoan_cut_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_files(dir: &Path, files: &[(&str, &[u8])]) -> Vec<PathBuf> {
        let write = |(name, bytes): &(&str, &[u8])| {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            path
        };
        files.iter().map(write).collect()
    }

    /// Everything the built dataset says about its KBs, predicates,
    /// entities, attributes and neighbours, as one comparable text.
    fn snapshot(builder: DatasetBuilder) -> String {
        let ds = builder.build();
        let kbs = (ds.kbs().iter().enumerate()).map(|(k, kb)| {
            let members = ds.entities_of_kb(KbId(k as u16));
            (&*kb.name, &*kb.namespace, kb.entity_count, members)
        });
        let predicates = ds.predicates().iter().map(|(_, p)| p);
        let entities = ds.entities().map(|e| {
            let d = ds.description(e);
            let attributes: Vec<_> = (d.attributes())
                .map(|(p, v)| (ds.predicate_name(p), v))
                .collect();
            assert_eq!(ds.entity_by_uri(d.uri()), Some(e));
            (d.uri(), d.kb(), attributes, ds.neighbors(e))
        });
        let (kbs, predicates, entities): (Vec<_>, Vec<_>, Vec<_>) =
            (kbs.collect(), predicates.collect(), entities.collect());
        format!("{kbs:?}\n{predicates:?}\n{entities:#?}")
    }

    /// What the `load_file` loop makes of `paths`: a snapshot, or the
    /// index and error text (line and reason) of the first file that fails.
    fn serial(paths: &[PathBuf]) -> Result<String, (usize, String)> {
        let mut builder = DatasetBuilder::new();
        for (i, path) in paths.iter().enumerate() {
            builder.load_file(path).map_err(|e| (i, e.to_string()))?;
        }
        Ok(snapshot(builder))
    }

    /// [`serial`] through [`DatasetBuilder::load_files_cut`].
    fn cut(paths: &[PathBuf], threads: usize, min_piece: usize) -> Result<String, (usize, String)> {
        let mut builder = DatasetBuilder::new();
        let kbs = builder.load_files_cut(paths, threads, min_piece);
        let kbs = kbs.map_err(|(i, e)| (i, e.to_string()))?;
        assert_eq!(kbs.len(), paths.len());
        Ok(snapshot(builder))
    }

    /// At threads 1, 2, 3 and 8 and every piece minimum in `min_pieces`,
    /// the pieces build what the loop builds, or fail where it fails.
    fn assert_cuts_agree(
        paths: &[PathBuf],
        min_pieces: impl Iterator<Item = usize> + Clone,
        label: &str,
    ) {
        let serial = serial(paths);
        for threads in [1, 2, 3, 8] {
            for min_piece in min_pieces.clone() {
                let label = format!("{label}, {threads} threads, pieces of {min_piece}+ bytes");
                assert_eq!(cut(paths, threads, min_piece), serial, "{label}");
            }
        }
    }

    /// A document that puts something awkward at every cut: CRLF line
    /// ends, comments and blank lines, one subject over many lines,
    /// scattered subjects, blank nodes before and after any cut, an exact
    /// duplicate far from its first copy, multi-byte characters just
    /// before a newline, and no final newline.
    const AWKWARD: &str = "# a dump\r\n\
<http://k/a> <http://p/name> \"A\" .\r\n\
<http://k/a> <http://p/knows> _:b1 .\r\n\
\r\n\
<http://k/a> <http://p/label> \"\u{3c0}\u{3cc}\u{3bb}\u{3b7}\"@el .\r\n\
<http://k/a> <http://p/q> \"1\" .\r\n\
<http://k/a> <http://p/q> \"2\" .\r\n\
<http://k/a> <http://p/q> \"3\" .  # \u{e9}\r\n\
_:b1 <http://p/name> \"blank \u{e9}\" .\r\n\
  # an indented comment\r\n\
<http://k/\u{e9}> <http://p/knows> <http://k/a> .\r\n\
<http://k/b> <http://p/name> \"B\" .\n\
<http://k/a> <http://p/name> \"A\" .\n\
<http://k/b> <http://p/knows> _:b2 .\n\
<http://k/b> <http://p/q> \"4\" .  #\u{e9}\n\
_:b1 <http://p/knows> <http://k/b> .\n\
\n\
_:b2 <http://p/name> \"x\"^^<http://t/string> .\n\
<http://k/a> <http://p/q> \"2\" .\n\
<http://k/b> <http://p/name> \"B\"@en .  #\u{3c0}";

    /// Piece minimums that put the first cut at each line boundary of
    /// `document` in turn (a minimum between two boundaries cuts at the
    /// later one).
    fn cut_sizes(document: &[u8]) -> impl Iterator<Item = usize> + Clone + '_ {
        let after_newlines = (document.iter().enumerate())
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1);
        std::iter::once(1)
            .chain(after_newlines)
            .chain([document.len() + 1])
    }

    /// One N-Triples document cut at every piece size, alone and beside a
    /// Turtle file and a second cut document: every entity, URI,
    /// attribute, neighbour row, KB entity count and namespace equals the
    /// `load_file` loop's, at every thread count.
    #[test]
    fn documents_cut_into_pieces_build_what_the_serial_loop_builds() {
        let dir = temp_dir("pieces");
        let lf = AWKWARD.replace("\r\n", "\n");
        let ttl = "@prefix p: <http://p/> .\n\
                   <http://k/b> p:name \"B\" ; p:knows _:b1 .\n\
                   _:b1 p:name \"blank of ttl\" .\n";
        let paths = write_files(
            &dir,
            &[
                ("awkward.nt", AWKWARD.as_bytes()),
                ("mixed.ttl", ttl.as_bytes()),
                ("awkward_lf.nt", lf.as_bytes()),
            ],
        );
        let mut builder = DatasetBuilder::new();
        builder.load_file(&paths[0]).unwrap();
        let ds = builder.build();
        let a = ds.entity_by_uri("http://k/a").unwrap();
        let names = ds.description(a).literals().filter(|v| *v == "A");
        assert_eq!(names.count(), 1, "the far duplicate collapses");
        assert!(ds.entity_by_uri("bnode://awkward:0/b2").is_some());

        let len = AWKWARD.len();
        assert_cuts_agree(&paths[..1], 1..=len + 1, "one document");
        let every_7th = (1..=len + 1).step_by(7);
        assert_cuts_agree(&paths, every_7th, "beside Turtle and a second document");
        let lf_first = [paths[2].clone(), paths[0].clone()];
        assert_cuts_agree(&lf_first, [1, 40, 200].into_iter(), "LF first");
        let empty = write_files(&dir, &[("empty.nt", b""), ("comments.nt", b"# only\n\n")]);
        let around = [empty[0].clone(), paths[0].clone(), empty[1].clone()];
        assert_cuts_agree(&around, [1, 3].into_iter(), "empty documents");
        // Into a builder that already holds a KB and an entity the pieces
        // name: their KB ids, blank-node scopes and entity numbers follow it.
        let loaded_after_a_kb = |threads: usize| {
            let mut builder = DatasetBuilder::new();
            let kb = builder.add_kb("given", "http://k/");
            builder.add_literal(kb, "http://k/b", "http://p/name", "given");
            if threads == 1 {
                for p in &paths {
                    builder.load_file(p).unwrap();
                }
            } else {
                builder.load_files_cut(&paths, threads, 40).unwrap();
            }
            snapshot(builder)
        };
        for threads in [2, 3, 8] {
            let label = format!("{threads} threads");
            assert_eq!(loaded_after_a_kb(threads), loaded_after_a_kb(1), "{label}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    const SUBJECTS: &[&str] = &["http://shared/one", "http://k/\u{e9}1", "http://k/a", "x"];
    const VALUES: &[&str] = &["x", "", "say \"hi\"\\ and\ttab\nnewline", "\u{3c0}\u{3cc}"];

    /// A random document of shared subjects (each also a possible object,
    /// so links resolve), blank nodes, tagged and escaped values and exact
    /// repeats near and far; `grouped` keeps each subject's statements
    /// together in first-mention order.
    fn random_file(rng: &mut Rng, grouped: bool) -> Vec<Triple> {
        let node = |rng: &mut Rng| match rng.below(4) {
            0 => Term::Blank(rng.pick(&["b1", "b2"]).into()),
            _ => Term::iri(rng.pick(SUBJECTS)),
        };
        let mut statements: Vec<Triple> = (0..rng.below(40))
            .map(|_| {
                let object = match rng.below(5) {
                    0 | 1 => node(rng),
                    2 => Term::Literal(Literal::lang_tagged(rng.pick(VALUES), "en")),
                    _ => Term::literal(rng.pick(VALUES)),
                };
                let predicate = format!("http://p/{}", rng.pick(&["name", "knows", "q"]));
                Triple::new(node(rng), predicate, object)
            })
            .collect();
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

    /// The same over random documents, subject-grouped and scattered, LF
    /// and CRLF, beside Turtle files.
    #[test]
    fn random_documents_cut_into_pieces_build_what_the_serial_loop_builds() {
        for seed in 0..24 {
            let mut rng = Rng(seed);
            let dir = temp_dir(&format!("random_{seed}"));
            let mut paths = Vec::new();
            let mut longest = 0;
            for i in 0..1 + rng.below(3) {
                let grouped = rng.below(2) == 0;
                let statements = random_file(&mut rng, grouped);
                let (text, ext) = if rng.below(4) == 0 {
                    let mut text = String::from("@prefix p: <http://p/> .\n");
                    for s in &statements {
                        let predicate = &s.predicate["http://p/".len()..];
                        let _ = writeln!(text, "{} p:{predicate} {} .", s.subject, s.object);
                    }
                    (text, "ttl")
                } else {
                    let text = crate::term::write_document(&statements);
                    let crlf = rng.below(2) == 0;
                    (
                        if crlf {
                            text.replace('\n', "\r\n")
                        } else {
                            text
                        },
                        "nt",
                    )
                };
                longest = longest.max(text.len());
                // Stems repeat: KB names are not what keeps blank nodes apart.
                std::fs::create_dir_all(dir.join(i.to_string())).unwrap();
                let path = dir.join(i.to_string()).join(format!("kb{}.{ext}", i % 2));
                std::fs::write(&path, text).unwrap();
                paths.push(path);
            }
            let sizes: Vec<usize> = (0..6).map(|_| 1 + rng.below(longest + 1)).collect();
            assert_cuts_agree(&paths, sizes.into_iter(), &format!("seed {seed}"));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A malformed statement or an invalid UTF-8 byte in any piece — at
    /// every cut — is reported at the serial loader's line, with its
    /// reason; with faults in two pieces the earlier wins; and the failing
    /// file reported is the first in argument order.
    #[test]
    fn faults_in_any_piece_are_reported_as_the_serial_loader_reports_them() {
        let dir = temp_dir("faults");
        let good: Vec<&str> = AWKWARD.split_inclusive('\n').collect();
        let faults: [&[u8]; 5] = [
            b"<http://k/a> <http://p/q> .\n",
            b"<http://k/a> <http://p/q> \"\\u00zz\" .\r\n",
            b"<http://k/a> <http://p/q> \"\xff\" .\n",
            b"<http://k/a> <http://p/q> \"x\xc3\" .\n",
            b"<http://k/a b> <http://p/q> \"x\" .\n",
        ];
        let document = |at: &[(usize, &[u8])]| {
            let mut bytes = Vec::new();
            for (i, line) in good.iter().enumerate() {
                for (_, fault) in at.iter().filter(|(j, _)| *j == i) {
                    bytes.extend_from_slice(fault);
                }
                bytes.extend_from_slice(line.as_bytes());
            }
            bytes
        };
        let clean = write_files(&dir, &[("clean.nt", AWKWARD.as_bytes())]);
        let lines = good.len();
        for (f, fault) in faults.iter().enumerate() {
            for at in [0, 1, lines / 2, lines - 1] {
                let one = document(&[(at, fault)]);
                let two = document(&[(at, fault), (lines - 1, faults[(f + 1) % faults.len()])]);
                let paths = write_files(&dir, &[("one.nt", &one), ("two.nt", &two)]);
                let (file, message) = serial(&paths[..1]).expect_err("a fault");
                assert_eq!(file, 0);
                assert!(message.contains(&format!("line {}", at + 1)), "{message}");
                let label = format!("fault {f} at line {at}");
                assert_cuts_agree(&paths[..1], cut_sizes(&one), &label);
                let label = format!("faults {f} at line {at} and the last line");
                assert_cuts_agree(&paths[1..], cut_sizes(&two), &label);
                let failing = [clean[0].clone(), paths[1].clone(), paths[0].clone()];
                let label = format!("second file, fault {f}");
                assert_cuts_agree(&failing, [1, 50].into_iter(), &label);
                assert_eq!(cut(&failing, 3, 1).err().map(|e| e.0), Some(1));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
