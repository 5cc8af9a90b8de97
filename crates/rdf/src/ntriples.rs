//! Line-based N-Triples parsing and serialisation.
//!
//! Supports the subset of the W3C N-Triples grammar that LOD dumps actually
//! use: IRI refs, blank nodes, plain / language-tagged / typed literals,
//! `#` comments and blank lines, and the standard string escapes
//! (`\" \\ \n \r \t \uXXXX \UXXXXXXXX`).
//!
//! # One grammar, borrowed terms
//!
//! [`parse_statement`] is the only statement parser. It yields a
//! [`Statement`] whose terms are slices of the line it was given; the one
//! thing that ever allocates is a literal that contains an escape (its
//! unescaped form is a fresh `String` behind the `Cow`). Two front ends
//! feed it lines:
//!
//! * [`statements`] — an iterator over an in-memory document; statements
//!   borrow from the document and may be kept as long as it lives. The
//!   file loaders read a file whole and go through this one, over the
//!   whole file or over line-aligned pieces of it
//!   ([`crate::DatasetBuilder::load_files`]);
//! * [`StatementReader`] — a pull parser over any [`BufRead`] with one
//!   reusable line buffer; a statement borrows from that buffer and is
//!   valid until the next call.
//!
//! # One scan per term
//!
//! An IRI's end and a literal's next stop (its closing quote or an escape)
//! are found eight bytes at a time: each 8-byte word of the line is tested
//! for every stop byte at once with `u64` lane masks, and the first flagged
//! lane is the answer. An IRI scan stops at `>` or at any byte that could
//! be whitespace (a control byte, a space, or part of a multi-byte
//! character); only then does the character-by-character whitespace test
//! run. What is accepted and every error are exactly those of a byte loop.
//!
//! The owned API ([`parse_line`], [`parse_document`]) copies what those
//! yield into [`Triple`]s; the writers ([`write_document`],
//! [`escape_literal`]) live with the terms they spell and are re-exported
//! here.
//!
//! # Error contract
//!
//! Malformed input is always a [`ParseError`] carrying the 1-based line —
//! never a panic, and invalid UTF-8 or a failed read is reported the same
//! way. Parsing stops at the first error. No allocation is sized by
//! anything but the bytes actually read: the reader's buffer grows to the
//! longest line, an unescaped literal to at most its escaped spelling.

pub use crate::term::{escape_literal, write_document};
use crate::term::{Object, Statement, Subject, Triple};
use std::borrow::Cow;
use std::fmt;
use std::io::BufRead;

/// Parse error with 1-based line number and a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N-Triples parse error at line {}: {}",
            self.line, self.reason
        )
    }
}

impl std::error::Error for ParseError {}

/// Why a term failed to scan. Borrows from the line and is rendered only
/// when it is reported, so the scanners themselves never allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault<'a> {
    Expected(char, Option<char>),
    ExpectedTerm(Option<char>),
    UnterminatedIri,
    IriWhitespace,
    ExpectedBlank,
    EmptyBlankLabel,
    DanglingEscape,
    TruncatedEscape,
    BadHex(char, &'a str),
    InvalidCodePoint(&'a str),
    UnknownEscape(char),
    UnterminatedLiteral,
    NewlineInLiteral,
    EmptyLanguageTag,
    LiteralSubject,
    Trailing(&'a str),
}

impl fmt::Display for Fault<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::Expected(want, found) => write!(f, "expected '{want}', found {found:?}"),
            Fault::ExpectedTerm(found) => write!(f, "expected term, found {found:?}"),
            Fault::UnterminatedIri => f.write_str("unterminated IRI (missing '>')"),
            Fault::IriWhitespace => f.write_str("IRI contains whitespace"),
            Fault::ExpectedBlank => f.write_str("expected blank node '_:'"),
            Fault::EmptyBlankLabel => f.write_str("empty blank node label"),
            Fault::DanglingEscape => f.write_str("dangling escape at end of literal"),
            Fault::TruncatedEscape => f.write_str("truncated \\u escape"),
            Fault::BadHex(esc, hex) => write!(f, "bad hex escape \\{esc}{hex}"),
            Fault::InvalidCodePoint(hex) => write!(f, "invalid code point U+{hex}"),
            Fault::UnknownEscape(c) => write!(f, "unknown escape '\\{c}'"),
            Fault::UnterminatedLiteral => {
                f.write_str("unterminated literal (missing closing '\"')")
            }
            Fault::NewlineInLiteral => f.write_str("newline in single-quoted literal"),
            Fault::EmptyLanguageTag => f.write_str("empty language tag"),
            Fault::LiteralSubject => f.write_str("literal in subject position"),
            Fault::Trailing(rest) => write!(f, "trailing content after '.': {rest:?}"),
        }
    }
}

impl Fault<'_> {
    fn at(self, line: usize) -> ParseError {
        ParseError {
            line,
            // lint:allow(hot-path-alloc): the error path — once per failed document, parsing stops here
            reason: self.to_string(),
        }
    }
}

/// Decodes one string escape. `rest` is the text right after the
/// backslash; returns the character and how many bytes of `rest` spell it.
/// The single escape table of the crate: N-Triples and Turtle literals both
/// go through it (`apostrophe`: Turtle also spells `\'`). `\u` / `\U` take
/// exactly 4 / 8 ASCII hex digits — a sign, which `u32::from_str_radix`
/// alone would accept, is not a digit.
pub(crate) fn unescape(rest: &str, apostrophe: bool) -> Result<(char, usize), Fault<'_>> {
    let esc = rest.chars().next().ok_or(Fault::DanglingEscape)?;
    let simple = match esc {
        '"' => '"',
        '\'' if apostrophe => '\'',
        '\\' => '\\',
        'n' => '\n',
        'r' => '\r',
        't' => '\t',
        'u' | 'U' => {
            let need = if esc == 'u' { 4 } else { 8 };
            let digits = &rest[1..];
            let mut ends = digits.char_indices().map(|(i, c)| i + c.len_utf8());
            let end = ends.nth(need - 1).ok_or(Fault::TruncatedEscape)?;
            let hex = &digits[..end];
            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(Fault::BadHex(esc, hex));
            }
            let code = u32::from_str_radix(hex, 16).map_err(|_| Fault::BadHex(esc, hex))?;
            let c = char::from_u32(code).ok_or(Fault::InvalidCodePoint(hex))?;
            return Ok((c, 1 + end));
        }
        other => return Err(Fault::UnknownEscape(other)),
    };
    Ok((simple, 1))
}

/// Scans a quoted string body. `rest` starts right after the opening
/// `quote`; returns the unescaped value and the bytes consumed, closing
/// quote included. Borrows unless an escape is present. `turtle` admits
/// that format's `\'` escape and, its input being a whole document rather
/// than one line, stops at a raw newline.
pub(crate) fn scan_quoted(
    rest: &str,
    quote: u8,
    turtle: bool,
) -> Result<(Cow<'_, str>, usize), Fault<'_>> {
    let bytes = rest.as_bytes();
    let stop = |from: usize| {
        find_lane(&bytes[from..], |word| literal_stops(word, quote, turtle))
            .map(|i| from + i)
            .ok_or(Fault::UnterminatedLiteral)
    };
    let mut at = stop(0)?;
    if bytes[at] == quote {
        return Ok((Cow::Borrowed(&rest[..at]), at + 1));
    }
    // lint:allow(hot-path-alloc): the escape slow path — only a literal that spells an escape pays for a copy, never longer than the spelling
    let mut value = String::with_capacity(rest.len().min(at + 64));
    value.push_str(&rest[..at]);
    loop {
        match bytes[at] {
            b'\\' => {
                let (c, used) = unescape(&rest[at + 1..], turtle)?;
                value.push(c);
                at += 1 + used;
            }
            b'\n' => return Err(Fault::NewlineInLiteral),
            _ => return Ok((Cow::Owned(value), at + 1)),
        }
        let next = stop(at)?;
        value.push_str(&rest[at..next]);
        at = next;
    }
}

/// `0x01` in every byte lane of a word.
const LANES: u64 = u64::from_le_bytes([1; 8]);
/// The high bit of every byte lane.
const HIGH: u64 = LANES << 7;

/// The high bit of every lane of `word` that is zero. Only the lowest
/// flagged lane is sure to be zero — a borrow moves upwards from a zero
/// lane and may flag lanes above it — and only it is ever read.
#[inline]
fn zero_lanes(word: u64) -> u64 {
    word.wrapping_sub(LANES) & !word & HIGH
}

/// The lanes of `word` equal to `byte` (exact up to the lowest flag).
#[inline]
fn lanes_equal(word: u64, byte: u8) -> u64 {
    zero_lanes(word ^ (LANES * u64::from(byte)))
}

/// The lanes an IRI scan stops at: `>`, or a byte that could be (part of)
/// whitespace — at most `0x20`, or at least `0x80`.
#[inline]
fn iri_stops(word: u64) -> u64 {
    lanes_equal(word, b'>') | ((word.wrapping_sub(LANES * 0x21) | word) & HIGH)
}

/// The lanes a quoted-string scan stops at: the closing `quote`, a
/// backslash and, in Turtle, a raw newline.
#[inline]
fn literal_stops(word: u64, quote: u8, turtle: bool) -> u64 {
    let newline = if turtle { lanes_equal(word, b'\n') } else { 0 };
    lanes_equal(word, quote) | lanes_equal(word, b'\\') | newline
}

/// Index of the first byte of `bytes` in a lane `stops` flags — a search
/// eight bytes at a time. `stops` flags a lane by its high bit and must be
/// exact in the lowest lane it flags. The last, partial word is read
/// zero-padded, and whatever its padding lanes say is ignored.
#[inline]
fn find_lane(bytes: &[u8], stops: impl Fn(u64) -> u64) -> Option<usize> {
    let first = |flags: u64| (flags.trailing_zeros() / 8) as usize;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let flags = stops(u64::from_le_bytes(word.try_into().ok()?));
        if flags != 0 {
            return Some(at + first(flags));
        }
        at += 8;
    }
    let tail = words.remainder();
    if tail.is_empty() {
        return None;
    }
    let mut word = [0; 8];
    word[..tail.len()].copy_from_slice(tail);
    let real = HIGH >> (8 * (8 - tail.len()));
    let flags = stops(u64::from_le_bytes(word)) & real;
    (flags != 0).then(|| at + first(flags))
}

/// Scans a language tag (`rest` starts right after the `@`).
pub(crate) fn scan_lang(rest: &str) -> &str {
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .unwrap_or(rest.len());
    &rest[..end]
}

struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start_matches([' ', '\t']);
    }

    fn expect(&mut self, c: char) -> Result<(), Fault<'a>> {
        match self.rest.strip_prefix(c) {
            Some(r) => {
                self.rest = r;
                Ok(())
            }
            None => Err(Fault::Expected(c, self.rest.chars().next())),
        }
    }

    fn iri(&mut self) -> Result<&'a str, Fault<'a>> {
        self.expect('<')?;
        let bytes = self.rest.as_bytes();
        let end = match find_lane(bytes, iri_stops) {
            Some(at) if bytes[at] == b'>' => at,
            // A byte that could be whitespace comes first (a control byte,
            // a space, or the lead byte of a multi-byte character — so a
            // char boundary), or nothing does: the IRI ends at the next
            // `>`, and only a real whitespace character before it refuses
            // it.
            suspect => {
                let from = suspect.ok_or(Fault::UnterminatedIri)?;
                let end = from + self.rest[from..].find('>').ok_or(Fault::UnterminatedIri)?;
                if self.rest[from..end].contains(char::is_whitespace) {
                    return Err(Fault::IriWhitespace);
                }
                end
            }
        };
        let iri = &self.rest[..end];
        self.rest = &self.rest[end + 1..];
        Ok(iri)
    }

    fn blank(&mut self) -> Result<&'a str, Fault<'a>> {
        let r = self.rest.strip_prefix("_:").ok_or(Fault::ExpectedBlank)?;
        let end = r
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.'))
            .unwrap_or(r.len());
        let label = r[..end].trim_end_matches('.');
        if label.is_empty() {
            return Err(Fault::EmptyBlankLabel);
        }
        self.rest = &r[label.len()..];
        Ok(label)
    }

    fn literal(&mut self) -> Result<Object<'a>, Fault<'a>> {
        self.expect('"')?;
        let (value, used) = scan_quoted(self.rest, b'"', false)?;
        self.rest = &self.rest[used..];
        let (mut lang, mut datatype) = (None, None);
        if let Some(r) = self.rest.strip_prefix('@') {
            let tag = scan_lang(r);
            if tag.is_empty() {
                return Err(Fault::EmptyLanguageTag);
            }
            self.rest = &r[tag.len()..];
            lang = Some(tag);
        } else if let Some(r) = self.rest.strip_prefix("^^") {
            self.rest = r;
            datatype = Some(self.iri()?);
        }
        Ok(Object::Literal {
            value,
            lang,
            datatype,
        })
    }

    fn object(&mut self) -> Result<Object<'a>, Fault<'a>> {
        match self.rest.chars().next() {
            Some('<') => Ok(Object::Iri(self.iri()?)),
            Some('_') => Ok(Object::Blank(self.blank()?)),
            Some('"') => self.literal(),
            other => Err(Fault::ExpectedTerm(other)),
        }
    }

    fn statement(&mut self) -> Result<Statement<'a>, Fault<'a>> {
        self.skip_ws();
        // A literal subject is scanned like any term first, so its own
        // faults (say, an unterminated quote) are the ones reported.
        let subject = match self.object()? {
            Object::Iri(s) => Subject::Iri(s),
            Object::Blank(b) => Subject::Blank(b),
            Object::Literal { .. } => return Err(Fault::LiteralSubject),
        };
        self.skip_ws();
        let predicate = self.iri()?;
        self.skip_ws();
        let object = self.object()?;
        self.skip_ws();
        self.expect('.')?;
        self.skip_ws();
        if !self.rest.is_empty() && !self.rest.starts_with('#') {
            return Err(Fault::Trailing(self.rest));
        }
        Ok(Statement {
            subject,
            predicate,
            object,
        })
    }
}

/// Parses a single (already trimmed, non-comment) N-Triples statement into
/// terms borrowed from `line`.
pub fn parse_statement(line: &str, line_no: usize) -> Result<Statement<'_>, ParseError> {
    Cursor { rest: line }
        .statement()
        .map_err(|fault| fault.at(line_no))
}

/// Where the statement sits in a raw line: the trimmed byte range, `None`
/// for blank lines and `#` comments.
fn statement_span(raw: &str) -> Option<(usize, usize)> {
    let body = raw.trim_start();
    let start = raw.len() - body.len();
    let body = body.trim_end();
    (!body.is_empty() && !body.starts_with('#')).then_some((start, start + body.len()))
}

/// Iterates the statements of an in-memory document, borrowing from it.
pub fn statements(input: &str) -> impl Iterator<Item = Result<Statement<'_>, ParseError>> {
    input.lines().enumerate().filter_map(|(idx, raw)| {
        let (start, end) = statement_span(raw)?;
        Some(parse_statement(&raw[start..end], idx + 1))
    })
}

/// Pull parser over a byte stream: one line buffer, reused for every
/// statement.
///
/// ```
/// use minoan_rdf::ntriples::StatementReader;
///
/// let dump = "<http://a> <http://p> \"x\" .\n# comment\n<http://a> <http://q> <http://b> .\n";
/// let mut reader = StatementReader::new(dump.as_bytes());
/// let mut predicates = Vec::new();
/// while let Some(statement) = reader.next_statement() {
///     predicates.push(statement.unwrap().predicate.to_string());
/// }
/// assert_eq!(predicates, ["http://p", "http://q"]);
/// ```
pub struct StatementReader<R> {
    reader: R,
    buf: String,
    line: usize,
}

impl<R: BufRead> StatementReader<R> {
    /// Wraps a buffered reader positioned at the start of a document.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            // lint:allow(hot-path-alloc): the one line buffer of a whole document
            buf: String::new(),
            line: 0,
        }
    }

    /// 1-based number of the line the last statement (or error) came from.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The next statement, `None` at end of input. The statement borrows
    /// the reader's line buffer: use it before calling again. After an
    /// error the reader should be dropped.
    pub fn next_statement(&mut self) -> Option<Result<Statement<'_>, ParseError>> {
        // Two steps, because a borrow returned from inside the loop would
        // pin the buffer for the iterations that refill it.
        let (start, end) = loop {
            self.buf.clear();
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => self.line += 1,
                Err(e) => return Some(Err(read_fault(&e, self.line + 1))),
            }
            if let Some(span) = statement_span(&self.buf) {
                break span;
            }
        };
        Some(parse_statement(&self.buf[start..end], self.line))
    }
}

/// A failed `read_line` as a [`ParseError`]: `read_line` reports invalid
/// UTF-8 as `InvalidData` and leaves the buffer untouched.
fn read_fault(e: &std::io::Error, line: usize) -> ParseError {
    if e.kind() == std::io::ErrorKind::InvalidData {
        return invalid_utf8(line);
    }
    // lint:allow(hot-path-alloc): the error path — once per failed document
    let reason = format!("read failed: {e}");
    ParseError { line, reason }
}

/// Invalid UTF-8 on line `line`, as every N-Triples front end reports it.
pub(crate) fn invalid_utf8(line: usize) -> ParseError {
    ParseError {
        line,
        reason: "invalid UTF-8".into(),
    }
}

/// Parses a single (already trimmed, non-comment) N-Triples statement into
/// an owned [`Triple`].
pub fn parse_line(line: &str, line_no: usize) -> Result<Triple, ParseError> {
    parse_statement(line, line_no).map(|s| s.to_triple())
}

/// Parses a full N-Triples document, returning every triple.
pub fn parse_document(input: &str) -> Result<Vec<Triple>, ParseError> {
    statements(input).map(|s| Ok(s?.to_triple())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Literal, Term};

    #[test]
    fn parses_iri_triple() {
        let t = parse_line("<http://a> <http://p> <http://b> .", 1).unwrap();
        assert_eq!(t.subject, Term::iri("http://a"));
        assert_eq!(t.predicate, "http://p");
        assert_eq!(t.object, Term::iri("http://b"));
    }

    #[test]
    fn parses_literals_with_tags() {
        let t = parse_line("<http://a> <http://p> \"hi\"@en .", 1).unwrap();
        assert_eq!(t.object, Term::Literal(Literal::lang_tagged("hi", "en")));
        let t = parse_line(
            "<http://a> <http://p> \"5\"^^<http://www.w3.org/2001/XMLSchema#int> .",
            1,
        )
        .unwrap();
        assert_eq!(
            t.object,
            Term::Literal(Literal::typed("5", "http://www.w3.org/2001/XMLSchema#int"))
        );
    }

    #[test]
    fn parses_escapes() {
        let t = parse_line(r#"<http://a> <http://p> "a\"b\\c\ndA" ."#, 1).unwrap();
        assert_eq!(t.object.as_literal(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn literals_borrow_unless_escaped() {
        let plain = parse_statement("<http://a> <http://p> \"πόλη\"@el .", 1).unwrap();
        let escaped = parse_statement(r#"<http://a> <http://p> "a\tbé\U0001F600" ."#, 1);
        match (plain.object, escaped.unwrap().object) {
            (Object::Literal { value: p, lang, .. }, Object::Literal { value: e, .. }) => {
                assert!(matches!(p, Cow::Borrowed("πόλη")));
                assert_eq!(lang, Some("el"));
                assert!(matches!(e, Cow::Owned(_)));
                assert_eq!(e, "a\tb\u{e9}\u{1F600}");
            }
            other => panic!("expected literals, got {other:?}"),
        }
    }

    #[test]
    fn hex_escapes_take_exactly_their_digits() {
        let object = |body: &str| {
            let line = format!("<http://a> <http://p> \"{body}\" .");
            parse_line(&line, 7).map(|t| t.object.as_literal().map(str::to_string))
        };
        assert_eq!(object(r"\u0041").unwrap().as_deref(), Some("A"));
        assert_eq!(object(r"\U00000041z").unwrap().as_deref(), Some("Az"));
        // `u32::from_str_radix` accepts a sign; the grammar does not.
        for bad in [r"\u+041", r"\u-041", r"\U+0000041", r"\u00g1", r"\u00é1"] {
            let err = object(bad).unwrap_err();
            assert_eq!(err.line, 7, "{bad}");
            assert!(err.reason.contains("bad hex escape"), "{bad}: {err}");
        }
        // Too short: the closing quote is swallowed as a "digit", or the
        // line ends first.
        assert!(object(r"\u041").unwrap_err().reason.contains("bad hex"));
        let cut = parse_line(r#"<http://a> <http://p> "\u04"#, 7).unwrap_err();
        assert!(cut.reason.contains("truncated"), "{cut}");
        assert!(object(r"\uD800").unwrap_err().reason.contains("code point"));
        assert!(object(r"\x41")
            .unwrap_err()
            .reason
            .contains("unknown escape"));
    }

    #[test]
    fn parses_blank_nodes() {
        let t = parse_line("_:b1 <http://p> _:b2 .", 1).unwrap();
        assert_eq!(t.subject, Term::Blank("b1".into()));
        assert_eq!(t.object, Term::Blank("b2".into()));
    }

    #[test]
    fn document_skips_comments_and_blanks() {
        let doc =
            "# header\n\n<http://a> <http://p> \"x\" .\n  # tail\n<http://b> <http://p> \"y\" .\n";
        let ts = parse_document(doc).unwrap();
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn reader_and_iterator_agree_on_lines_and_terms() {
        let doc = "# header\r\n\r\n<http://a> <http://p> \"x\" .\r\n_:b <http://p> <http://a> . # note\n\n<http://a> <http://q> \"last, no newline\"@en .";
        let from_str: Vec<Triple> = parse_document(doc).unwrap();
        let mut reader = StatementReader::new(doc.as_bytes());
        let mut from_reader = Vec::new();
        let mut lines = Vec::new();
        while let Some(st) = reader.next_statement() {
            from_reader.push(st.unwrap().to_triple());
            lines.push(reader.line());
        }
        assert_eq!(from_reader, from_str);
        assert_eq!(lines, [3, 4, 6]);
    }

    #[test]
    fn reader_reports_invalid_utf8_with_its_line() {
        let mut bytes = b"<http://a> <http://p> \"ok\" .\n<http://a> <http://p> \"".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        bytes.extend_from_slice(b"\" .\n");
        let mut reader = StatementReader::new(&bytes[..]);
        assert!(reader.next_statement().unwrap().is_ok());
        let err = reader.next_statement().unwrap().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("UTF-8"), "{err}");
    }

    #[test]
    fn round_trip_preserves_triples() {
        let doc = concat!(
            "<http://a> <http://p> \"quote \\\" backslash \\\\ tab\\t\"@en .\n",
            "<http://a> <http://q> <http://b> .\n",
            "_:n0 <http://p> \"42\"^^<http://www.w3.org/2001/XMLSchema#int> .\n",
        );
        let ts = parse_document(doc).unwrap();
        let out = write_document(&ts);
        let ts2 = parse_document(&out).unwrap();
        assert_eq!(ts, ts2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let doc = "<http://a> <http://p> \"ok\" .\n<http://a> <http://p> \"unterminated .\n";
        let err = parse_document(doc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("unterminated"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("<http://a> <http://p> .", 1).is_err());
        assert!(parse_line("\"lit\" <http://p> <http://o> .", 1).is_err());
        assert!(parse_line("<http://a> <http://p> <http://o>", 1).is_err());
        assert!(parse_line("<http://a> <http://p> <http://o> . junk", 1).is_err());
        assert!(parse_line("<http://a b> <http://p> <http://o> .", 1).is_err());
        assert!(parse_line("<http://a> <http://p> \"x\"@ .", 1).is_err());
        assert!(parse_line("<http://a> <http://p> \"x\"^^int .", 1).is_err());
        assert!(parse_line("_: <http://p> <http://o> .", 1).is_err());
    }

    /// The byte loops the lane searches replace.
    fn iri_stop_by_bytes(bytes: &[u8]) -> Option<usize> {
        bytes
            .iter()
            .position(|&b| b == b'>' || b <= b' ' || b >= 0x80)
    }

    fn literal_stop_by_bytes(bytes: &[u8], quote: u8, turtle: bool) -> Option<usize> {
        bytes
            .iter()
            .position(|&b| b == quote || b == b'\\' || (turtle && b == b'\n'))
    }

    fn assert_searches_agree(bytes: &[u8]) {
        assert_eq!(
            find_lane(bytes, iri_stops),
            iri_stop_by_bytes(bytes),
            "IRI, {bytes:?}"
        );
        for (quote, turtle) in [(b'"', false), (b'"', true), (b'\'', true)] {
            assert_eq!(
                find_lane(bytes, |word| literal_stops(word, quote, turtle)),
                literal_stop_by_bytes(bytes, quote, turtle),
                "literal {quote} {turtle}, {bytes:?}"
            );
        }
    }

    /// Every byte value in every lane of every length 0–40 (so across the
    /// 8-byte boundary and in the zero-padded tail), nothing to find at
    /// all, and two or three candidate bytes together — the lowest must win
    /// whatever borrow the ones above it cause.
    #[test]
    fn lane_searches_find_what_the_byte_loops_find() {
        for len in 0..=40 {
            let mut bytes = vec![b'a'; len];
            assert_searches_agree(&bytes);
            for at in 0..len {
                for b in 0..=255u8 {
                    bytes[at] = b;
                    assert_searches_agree(&bytes);
                }
                bytes[at] = b'a';
            }
        }
        let alphabet = [
            0x00, 0x01, b'\t', b'\n', 0x1f, b' ', b'!', b'"', b'\'', b'=', b'>', b'?', b'[', b'\\',
            b']', b'a', 0x7f, 0x80, 0xbf, 0xc3, 0xfe, 0xff,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |below: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as usize % below
        };
        for _ in 0..20_000 {
            let len = draw(41);
            let mut bytes = vec![b'a'; len];
            for _ in 0..draw(4) {
                if len > 0 {
                    bytes[draw(len)] = alphabet[draw(alphabet.len())];
                }
            }
            assert_searches_agree(&bytes);
        }
    }

    #[test]
    fn trailing_comment_after_dot_is_ok() {
        assert!(parse_line("<http://a> <http://p> <http://o> . # note", 1).is_ok());
    }
}
