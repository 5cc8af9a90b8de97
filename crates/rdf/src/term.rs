//! RDF terms, owned triples and the borrowed [`Statement`] the parsers
//! yield.

use std::borrow::Cow;
use std::fmt;

/// A literal value with optional language tag or datatype IRI.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Literal {
    /// The lexical form (unescaped).
    pub value: String,
    /// `@lang` tag, if any (mutually exclusive with `datatype` in N-Triples).
    pub lang: Option<String>,
    /// `^^<datatype>` IRI, if any.
    pub datatype: Option<String>,
}

impl Literal {
    /// A plain literal with neither language tag nor datatype.
    pub fn plain(value: impl Into<String>) -> Self {
        Self {
            value: value.into(),
            lang: None,
            datatype: None,
        }
    }

    /// A language-tagged literal.
    pub fn lang_tagged(value: impl Into<String>, lang: impl Into<String>) -> Self {
        Self {
            value: value.into(),
            lang: Some(lang.into()),
            datatype: None,
        }
    }

    /// A typed literal.
    pub fn typed(value: impl Into<String>, datatype: impl Into<String>) -> Self {
        Self {
            value: value.into(),
            lang: None,
            datatype: Some(datatype.into()),
        }
    }
}

/// An RDF term in subject or object position.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// An IRI reference, stored without the angle brackets.
    Iri(String),
    /// A blank node, stored without the `_:` prefix.
    Blank(String),
    /// A literal.
    Literal(Literal),
}

impl Term {
    /// Constructor shorthand for IRIs.
    pub fn iri(s: impl Into<String>) -> Self {
        Term::Iri(s.into())
    }

    /// Constructor shorthand for plain literals.
    pub fn literal(s: impl Into<String>) -> Self {
        Term::Literal(Literal::plain(s))
    }

    /// The IRI string, if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The literal lexical form, if this term is a literal.
    pub fn as_literal(&self) -> Option<&str> {
        match self {
            Term::Literal(l) => Some(&l.value),
            _ => None,
        }
    }

    /// Whether the term may appear in subject position (IRI or blank node).
    pub fn is_subject(&self) -> bool {
        !matches!(self, Term::Literal(_))
    }
}

impl fmt::Display for Term {
    /// N-Triples surface syntax (with escaping for literals).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(s) => write!(f, "<{s}>"),
            Term::Blank(s) => write!(f, "_:{s}"),
            Term::Literal(l) => {
                write!(f, "\"{}\"", escape_literal(&l.value))?;
                if let Some(lang) = &l.lang {
                    write!(f, "@{lang}")
                } else if let Some(dt) = &l.datatype {
                    write!(f, "^^<{dt}>")
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// A single RDF statement.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Triple {
    /// Subject: IRI or blank node.
    pub subject: Term,
    /// Predicate: always an IRI in RDF; stored as the IRI string.
    pub predicate: String,
    /// Object: any term.
    pub object: Term,
}

impl Triple {
    /// Builds a triple; no validation beyond types is performed.
    pub fn new(subject: Term, predicate: impl Into<String>, object: Term) -> Self {
        Self {
            subject,
            predicate: predicate.into(),
            object,
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <{}> {} .", self.subject, self.predicate, self.object)
    }
}

/// Serialises triples as an N-Triples document (one statement per line,
/// trailing newline).
pub fn write_document(triples: &[Triple]) -> String {
    use fmt::Write as _;
    let mut s = String::with_capacity(triples.len() * 80);
    for t in triples {
        let _ = writeln!(s, "{t}");
    }
    s
}

/// Escapes a literal lexical form for N-Triples output.
pub fn escape_literal(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    push_escaped_literal(&mut out, value);
    out
}

/// Appends the escaped form [`escape_literal`] returns to `out`: the runs
/// between characters that need an escape are copied whole.
pub(crate) fn push_escaped_literal(out: &mut String, value: &str) {
    let mut rest = value;
    while let Some(at) = rest.find(['"', '\\', '\n', '\r', '\t']) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            _ => "\\t",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Subject of a borrowed [`Statement`]: an IRI without its angle brackets
/// or a blank-node label without its `_:`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subject<'a> {
    /// An IRI reference.
    Iri(&'a str),
    /// A blank-node label, scoped to the document it came from.
    Blank(&'a str),
}

/// Object of a borrowed [`Statement`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Object<'a> {
    /// An IRI reference.
    Iri(&'a str),
    /// A blank-node label, scoped to the document it came from.
    Blank(&'a str),
    /// A literal. `value` is the unescaped lexical form: borrowed from the
    /// input unless the source spelling contained an escape.
    Literal {
        /// The lexical form.
        value: Cow<'a, str>,
        /// `@lang` tag, if any.
        lang: Option<&'a str>,
        /// `^^<datatype>` IRI, if any.
        datatype: Option<&'a str>,
    },
}

/// One RDF statement whose terms borrow from the parser's input (or from
/// its line buffer): valid until the parser is asked for the next one.
/// This is what both parsers emit and what
/// [`DatasetBuilder::add_statement`](crate::DatasetBuilder::add_statement)
/// consumes; [`Statement::to_triple`] is the owned copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Statement<'a> {
    /// Subject: IRI or blank node.
    pub subject: Subject<'a>,
    /// Predicate IRI.
    pub predicate: &'a str,
    /// Object: any term.
    pub object: Object<'a>,
}

impl<'a> Statement<'a> {
    /// The borrowed view of an owned triple; `None` for the invalid
    /// literal-subject triple the parsers never produce.
    pub fn from_triple(triple: &'a Triple) -> Option<Self> {
        let subject = match &triple.subject {
            Term::Iri(s) => Subject::Iri(s),
            Term::Blank(b) => Subject::Blank(b),
            Term::Literal(_) => return None,
        };
        let object = match &triple.object {
            Term::Iri(s) => Object::Iri(s),
            Term::Blank(b) => Object::Blank(b),
            Term::Literal(l) => Object::Literal {
                value: Cow::Borrowed(&l.value),
                lang: l.lang.as_deref(),
                datatype: l.datatype.as_deref(),
            },
        };
        Some(Self {
            subject,
            predicate: &triple.predicate,
            object,
        })
    }

    /// Copies every term into an owned [`Triple`].
    pub fn to_triple(&self) -> Triple {
        let subject = match self.subject {
            Subject::Iri(s) => Term::Iri(s.to_string()),
            Subject::Blank(b) => Term::Blank(b.to_string()),
        };
        let object = match &self.object {
            Object::Iri(s) => Term::Iri(s.to_string()),
            Object::Blank(b) => Term::Blank(b.to_string()),
            Object::Literal {
                value,
                lang,
                datatype,
            } => Term::Literal(Literal {
                value: value.to_string(),
                lang: lang.map(str::to_string),
                datatype: datatype.map(str::to_string),
            }),
        };
        Triple {
            subject,
            predicate: self.predicate.to_string(),
            object,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_constructors() {
        assert_eq!(Literal::plain("x").lang, None);
        assert_eq!(Literal::lang_tagged("x", "en").lang.as_deref(), Some("en"));
        assert_eq!(
            Literal::typed("3", "http://www.w3.org/2001/XMLSchema#int")
                .datatype
                .as_deref(),
            Some("http://www.w3.org/2001/XMLSchema#int")
        );
    }

    #[test]
    fn term_accessors() {
        let iri = Term::iri("http://example.org/a");
        assert_eq!(iri.as_iri(), Some("http://example.org/a"));
        assert_eq!(iri.as_literal(), None);
        assert!(iri.is_subject());
        let lit = Term::literal("hello");
        assert_eq!(lit.as_literal(), Some("hello"));
        assert!(!lit.is_subject());
        assert!(Term::Blank("b0".into()).is_subject());
    }

    #[test]
    fn display_matches_ntriples_syntax() {
        let t = Triple::new(
            Term::iri("http://e.org/s"),
            "http://e.org/p",
            Term::Literal(Literal::lang_tagged("caf\u{e9} \"bar\"", "fr")),
        );
        assert_eq!(
            t.to_string(),
            "<http://e.org/s> <http://e.org/p> \"caf\u{e9} \\\"bar\\\"\"@fr ."
        );
        let t2 = Triple::new(
            Term::Blank("b1".into()),
            "http://e.org/p",
            Term::iri("http://e.org/o"),
        );
        assert_eq!(t2.to_string(), "_:b1 <http://e.org/p> <http://e.org/o> .");
    }

    #[test]
    fn statements_round_trip_through_triples() {
        let owned = Triple::new(
            Term::Blank("b1".into()),
            "http://e.org/p",
            Term::Literal(Literal::lang_tagged("x", "en")),
        );
        let st = Statement::from_triple(&owned).expect("blank subjects are valid");
        assert_eq!(st.subject, Subject::Blank("b1"));
        assert_eq!(st.to_triple(), owned);
        let invalid = Triple::new(Term::literal("s"), "http://e.org/p", Term::literal("o"));
        assert!(Statement::from_triple(&invalid).is_none());
    }

    #[test]
    fn typed_literal_display() {
        let t = Term::Literal(Literal::typed(
            "42",
            "http://www.w3.org/2001/XMLSchema#integer",
        ));
        assert_eq!(
            t.to_string(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }
}
