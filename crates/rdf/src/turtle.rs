//! A Turtle (Terse RDF Triple Language) parser — the subset real LOD dumps
//! exercise.
//!
//! N-Triples is what the pipeline round-trips internally, but most Web of
//! Data KBs publish Turtle. Supported here:
//!
//! * `@prefix` / `@base` directives (and SPARQL-style `PREFIX`/`BASE`),
//! * prefixed names (`dbo:city`), IRIs (`<http://…>`), relative IRIs
//!   against the base,
//! * the `a` keyword (`rdf:type`),
//! * predicate lists (`;`) and object lists (`,`),
//! * blank-node labels (`_:b1`) and anonymous blank nodes (`[]`, including
//!   nested property lists),
//! * string literals with escapes, language tags and datatypes, plus bare
//!   integers / decimals / booleans (typed per the Turtle spec),
//! * `#` comments.
//!
//! Out of scope (not used by the ER workloads): collections `( … )`,
//! triple-quoted long strings, and numeric exponent forms.

use crate::ntriples::{scan_lang, scan_quoted, Fault};
use crate::term::{Object, Statement, Subject, Term, Triple};
use std::borrow::Cow;
use std::collections::HashMap;

/// Turtle parse failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurtleError {
    /// 1-based line of the failure.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for TurtleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "turtle parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TurtleError {}

const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// How deep `[ … [ … ] … ]` may nest. The parser recurses once per level,
/// so hostile input must not get to pick the stack depth.
const MAX_NESTING: usize = 64;

/// Whether `path` names a Turtle document: extension `.ttl` or `.turtle`
/// in any letter case. Every loader reads anything else as N-Triples.
pub fn is_turtle_path(path: &std::path::Path) -> bool {
    path.extension()
        .is_some_and(|ext| ext.eq_ignore_ascii_case("ttl") || ext.eq_ignore_ascii_case("turtle"))
}

/// Parses a Turtle document into owned triples.
pub fn parse_turtle(input: &str) -> Result<Vec<Triple>, TurtleError> {
    let mut triples = Vec::new();
    for_each_statement(input, |statement| triples.push(statement.to_triple()))?;
    Ok(triples)
}

/// Parses a Turtle document, handing each statement to `sink` in document
/// order (the statements of a nested `[ … ]` before the one that mentions
/// it). Terms borrow from `input` where Turtle spells them out in full and
/// from the parser's own buffers where a prefix, the base or an anonymous
/// node is involved, so a statement is only valid inside the call.
///
/// Errors carry the 1-based line; on error the statements before it have
/// already been delivered.
pub fn for_each_statement(
    input: &str,
    mut sink: impl FnMut(Statement<'_>),
) -> Result<(), TurtleError> {
    Parser {
        input,
        pos: 0,
        line: 1,
        prefixes: HashMap::new(),
        base: String::new(),
        next_bnode: 0,
        depth: 0,
        sink: &mut sink,
    }
    .parse()
}

/// A resource term: a slice of the input where the spelling is the IRI or
/// label itself, composed otherwise.
enum Node<'a> {
    Iri(Cow<'a, str>),
    Blank(Cow<'a, str>),
}

enum Value<'a> {
    Node(Node<'a>),
    Literal {
        value: Cow<'a, str>,
        lang: Option<&'a str>,
        datatype: Option<Cow<'a, str>>,
    },
}

impl<'a> Value<'a> {
    fn typed(value: &'a str, datatype: &'static str) -> Self {
        Value::Literal {
            value: Cow::Borrowed(value),
            lang: None,
            datatype: Some(Cow::Borrowed(datatype)),
        }
    }
}

struct Parser<'a, 's> {
    input: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    line: usize,
    prefixes: HashMap<String, String>,
    base: String,
    next_bnode: usize,
    depth: usize,
    sink: &'s mut dyn FnMut(Statement<'_>),
}

impl<'a> Parser<'a, '_> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, TurtleError> {
        Err(TurtleError {
            line: self.line,
            message: message.into(),
        })
    }

    fn fault<T>(&self, fault: Fault<'_>) -> Result<T, TurtleError> {
        self.err(fault.to_string())
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn peek_second(&self) -> Option<char> {
        self.rest().chars().nth(1)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Advances over `len` bytes known to hold no newline.
    fn take(&mut self, len: usize) -> &'a str {
        let text = &self.rest()[..len];
        self.pos += len;
        text
    }

    /// Takes the longest prefix whose characters all satisfy `keep`.
    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let rest = self.rest();
        self.take(rest.find(|c| !keep(c)).unwrap_or(rest.len()))
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn eat(&mut self, expected: char) -> Result<(), TurtleError> {
        self.skip_ws();
        match self.bump() {
            Some(c) if c == expected => Ok(()),
            Some(c) => self.err(format!("expected {expected:?}, found {c:?}")),
            None => self.err(format!("expected {expected:?}, found end of input")),
        }
    }

    fn starts_with_keyword(&self, kw: &str) -> bool {
        self.rest()
            .as_bytes()
            .get(..kw.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(kw.as_bytes()))
    }

    fn emit(&mut self, subject: &Node<'_>, predicate: &str, object: &Value<'_>) {
        let subject = match subject {
            Node::Iri(iri) => Subject::Iri(iri),
            Node::Blank(label) => Subject::Blank(label),
        };
        let object = match object {
            Value::Node(Node::Iri(iri)) => Object::Iri(iri),
            Value::Node(Node::Blank(label)) => Object::Blank(label),
            Value::Literal {
                value,
                lang,
                datatype,
            } => Object::Literal {
                value: Cow::Borrowed(value),
                lang: *lang,
                datatype: datatype.as_deref(),
            },
        };
        (self.sink)(Statement {
            subject,
            predicate,
            object,
        });
    }

    fn parse(mut self) -> Result<(), TurtleError> {
        loop {
            self.skip_ws();
            if self.peek().is_none() {
                return Ok(());
            }
            if self.starts_with_keyword("@prefix") || self.starts_with_keyword("prefix") {
                self.parse_prefix()?;
            } else if self.starts_with_keyword("@base") || self.starts_with_keyword("base") {
                self.parse_base()?;
            } else {
                self.parse_statement()?;
            }
        }
    }

    /// Consumes `@keyword` or `keyword`; whether it was the `@` form, which
    /// ends with a dot (the SPARQL form does not).
    fn eat_keyword(&mut self, keyword: &str) -> bool {
        let at_form = self.peek() == Some('@');
        self.take(keyword.len() + usize::from(at_form));
        self.skip_ws();
        at_form
    }

    fn parse_prefix(&mut self) -> Result<(), TurtleError> {
        let at_form = self.eat_keyword("prefix");
        let label = self.take_while(|c| c != ':' && !c.is_whitespace());
        if self.peek() != Some(':') {
            return self.err("prefix label must end with ':'");
        }
        self.bump();
        let iri = self.parse_iri_ref()?;
        self.prefixes.insert(label.to_string(), iri.into_owned());
        if at_form {
            self.eat('.')?;
        }
        Ok(())
    }

    fn parse_base(&mut self) -> Result<(), TurtleError> {
        let at_form = self.eat_keyword("base");
        self.base = self.parse_iri_ref()?.into_owned();
        if at_form {
            self.eat('.')?;
        }
        Ok(())
    }

    fn parse_statement(&mut self) -> Result<(), TurtleError> {
        let subject = self.parse_subject()?;
        self.parse_predicate_object_list(&subject)?;
        self.eat('.')
    }

    fn parse_subject(&mut self) -> Result<Node<'a>, TurtleError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => Ok(Node::Iri(self.parse_iri_ref()?)),
            Some('_') => self.parse_bnode_label(),
            Some('[') => self.parse_anon_bnode(),
            Some(_) => Ok(Node::Iri(self.parse_prefixed_name()?.into())),
            None => self.err("expected subject, found end of input"),
        }
    }

    fn parse_predicate_object_list(&mut self, subject: &Node<'_>) -> Result<(), TurtleError> {
        loop {
            self.skip_ws();
            let predicate = self.parse_predicate()?;
            loop {
                let object = self.parse_object()?;
                self.emit(subject, &predicate, &object);
                self.skip_ws();
                if self.peek() == Some(',') {
                    self.bump();
                } else {
                    break;
                }
            }
            self.skip_ws();
            if self.peek() == Some(';') {
                self.bump();
                self.skip_ws();
                // A dangling ';' before '.' or ']' is legal Turtle.
                if matches!(self.peek(), Some('.') | Some(']')) {
                    return Ok(());
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_predicate(&mut self) -> Result<Cow<'a, str>, TurtleError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => self.parse_iri_ref(),
            // 'a' keyword iff followed by whitespace or '<' or '['.
            Some('a')
                if self
                    .peek_second()
                    .is_none_or(|c| c.is_whitespace() || c == '<' || c == '[') =>
            {
                self.bump();
                Ok(Cow::Borrowed(RDF_TYPE))
            }
            Some(_) => Ok(self.parse_prefixed_name()?.into()),
            None => self.err("expected predicate, found end of input"),
        }
    }

    fn parse_object(&mut self) -> Result<Value<'a>, TurtleError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => Ok(Value::Node(Node::Iri(self.parse_iri_ref()?))),
            Some('"') | Some('\'') => self.parse_literal(),
            Some('_') => Ok(Value::Node(self.parse_bnode_label()?)),
            Some('[') => Ok(Value::Node(self.parse_anon_bnode()?)),
            Some(c) if c.is_ascii_digit() || c == '+' || c == '-' => self.parse_numeric(),
            Some('t') if self.starts_with_keyword("true") => {
                self.take("true".len());
                Ok(Value::typed("true", XSD_BOOLEAN))
            }
            Some('f') if self.starts_with_keyword("false") => {
                self.take("false".len());
                Ok(Value::typed("false", XSD_BOOLEAN))
            }
            Some(_) => Ok(Value::Node(Node::Iri(self.parse_prefixed_name()?.into()))),
            None => self.err("expected object, found end of input"),
        }
    }

    fn parse_iri_ref(&mut self) -> Result<Cow<'a, str>, TurtleError> {
        self.skip_ws();
        if self.bump() != Some('<') {
            return self.err("expected '<'");
        }
        let rest = self.rest();
        let iri = match rest.find(['>', '\n']) {
            Some(end) if rest.as_bytes()[end] == b'>' => self.take(end),
            Some(_) => return self.err("newline inside IRI"),
            None => return self.err("unterminated IRI"),
        };
        self.bump(); // '>'
                     // Resolve relative IRIs against the base (string concatenation —
                     // sufficient for the dump-style bases the workloads use).
        if !iri.contains(':') && !self.base.is_empty() {
            Ok(Cow::Owned(format!("{}{}", self.base, iri)))
        } else {
            Ok(Cow::Borrowed(iri))
        }
    }

    fn parse_prefixed_name(&mut self) -> Result<String, TurtleError> {
        self.skip_ws();
        let name = |c: char| c.is_alphanumeric() || c == '_' || c == '-' || c == '.';
        let prefix = self.take_while(name);
        match self.peek() {
            Some(':') => self.bump(),
            Some(c) => return self.err(format!("unexpected character {c:?} in prefixed name")),
            None => return self.err("expected ':' in prefixed name"),
        };
        let local = self.take_while(|c| name(c) || c == '%');
        // A trailing '.' terminates the statement, not the name.
        let trimmed = local.trim_end_matches('.');
        self.pos -= local.len() - trimmed.len();
        match self.prefixes.get(prefix) {
            Some(ns) => Ok(format!("{ns}{trimmed}")),
            None => self.err(format!("undeclared prefix {prefix:?}")),
        }
    }

    fn parse_bnode_label(&mut self) -> Result<Node<'a>, TurtleError> {
        self.bump(); // '_'
        if self.bump() != Some(':') {
            return self.err("expected ':' after '_'");
        }
        let label = self.take_while(|c| c.is_alphanumeric() || c == '_' || c == '-');
        if label.is_empty() {
            return self.fault(Fault::EmptyBlankLabel);
        }
        Ok(Node::Blank(Cow::Borrowed(label)))
    }

    fn parse_anon_bnode(&mut self) -> Result<Node<'a>, TurtleError> {
        self.eat('[')?;
        if self.depth == MAX_NESTING {
            return self.err(format!(
                "blank node property lists nested deeper than {MAX_NESTING}"
            ));
        }
        let node = Node::Blank(Cow::Owned(format!("anon{}", self.next_bnode)));
        self.next_bnode += 1;
        self.skip_ws();
        if self.peek() != Some(']') {
            self.depth += 1;
            self.parse_predicate_object_list(&node)?;
            self.depth -= 1;
        }
        self.eat(']')?;
        Ok(node)
    }

    fn parse_literal(&mut self) -> Result<Value<'a>, TurtleError> {
        let quote = self.bump().expect("caller checked");
        let (value, used) = match scan_quoted(self.rest(), quote as u8, true) {
            Ok(scanned) => scanned,
            Err(fault) => return self.fault(fault),
        };
        self.take(used);
        // Optional language tag or datatype.
        let (mut lang, mut datatype) = (None, None);
        match self.peek() {
            Some('@') => {
                self.bump();
                let tag = scan_lang(self.rest());
                if tag.is_empty() {
                    return self.fault(Fault::EmptyLanguageTag);
                }
                lang = Some(self.take(tag.len()));
            }
            Some('^') => {
                self.bump();
                if self.bump() != Some('^') {
                    return self.err("expected '^^'");
                }
                datatype = Some(match self.peek() {
                    Some('<') => self.parse_iri_ref()?,
                    _ => self.parse_prefixed_name()?.into(),
                });
            }
            _ => {}
        }
        Ok(Value::Literal {
            value,
            lang,
            datatype,
        })
    }

    fn parse_numeric(&mut self) -> Result<Value<'a>, TurtleError> {
        let rest = self.rest();
        let bytes = rest.as_bytes();
        let mut end = usize::from(matches!(bytes[0], b'+' | b'-'));
        let sign = end;
        let mut saw_dot = false;
        while let Some(&b) = bytes.get(end) {
            // A dot is part of the number only if a digit follows;
            // otherwise it terminates the statement.
            let fraction =
                b == b'.' && !saw_dot && bytes.get(end + 1).is_some_and(u8::is_ascii_digit);
            if !(b.is_ascii_digit() || fraction) {
                break;
            }
            saw_dot |= fraction;
            end += 1;
        }
        if end == sign {
            return self.err("malformed numeric literal");
        }
        let datatype = if saw_dot { XSD_DECIMAL } else { XSD_INTEGER };
        Ok(Value::typed(self.take(end), datatype))
    }
}

/// Serialises triples as compact Turtle.
///
/// `prefixes` maps prefix labels to namespace IRIs; IRIs starting with a
/// registered namespace are written as prefixed names (when the local part
/// is a simple name), everything else as `<…>`. Triples are grouped by
/// subject with `;`-separated predicate lists and `,`-separated object
/// lists; `rdf:type` is written as `a`. The output round-trips through
/// [`parse_turtle`].
pub fn write_turtle(triples: &[Triple], prefixes: &[(&str, &str)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (label, ns) in prefixes {
        let _ = writeln!(out, "@prefix {label}: <{ns}> .");
    }
    if !prefixes.is_empty() && !triples.is_empty() {
        out.push('\n');
    }

    let shorten = |iri: &str| -> String {
        for (label, ns) in prefixes {
            if let Some(local) = iri.strip_prefix(ns) {
                let simple = !local.is_empty()
                    && local
                        .chars()
                        .all(|c| c.is_alphanumeric() || c == '_' || c == '-')
                    && !local.ends_with('.');
                if simple {
                    return format!("{label}:{local}");
                }
            }
        }
        format!("<{iri}>")
    };
    let term_str = |t: &Term| -> String {
        match t {
            Term::Iri(iri) => shorten(iri),
            Term::Blank(b) => format!("_:{b}"),
            Term::Literal(l) => {
                let escaped = l
                    .value
                    .replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
                    .replace('\r', "\\r")
                    .replace('\t', "\\t");
                match (&l.lang, &l.datatype) {
                    (Some(lang), _) => format!("\"{escaped}\"@{lang}"),
                    (None, Some(dt)) => format!("\"{escaped}\"^^{}", shorten(dt)),
                    (None, None) => format!("\"{escaped}\""),
                }
            }
        }
    };

    // Group by subject, preserving first-appearance order.
    let mut order: Vec<&Term> = Vec::new();
    let mut groups: std::collections::HashMap<&Term, Vec<&Triple>> =
        std::collections::HashMap::new();
    for t in triples {
        let entry = groups.entry(&t.subject).or_default();
        if entry.is_empty() {
            order.push(&t.subject);
        }
        entry.push(t);
    }
    for subject in order {
        let group = &groups[subject];
        let _ = write!(out, "{} ", term_str(subject));
        // Predicate sub-groups, preserving order.
        let mut pred_order: Vec<&str> = Vec::new();
        let mut by_pred: std::collections::HashMap<&str, Vec<&Term>> =
            std::collections::HashMap::new();
        for t in group {
            let entry = by_pred.entry(t.predicate.as_str()).or_default();
            if entry.is_empty() {
                pred_order.push(&t.predicate);
            }
            entry.push(&t.object);
        }
        for (pi, pred) in pred_order.iter().enumerate() {
            let pred_text = if *pred == RDF_TYPE {
                "a".to_string()
            } else {
                shorten(pred)
            };
            let objects: Vec<String> = by_pred[pred].iter().map(|o| term_str(o)).collect();
            let _ = write!(out, "{pred_text} {}", objects.join(" , "));
            if pi + 1 < pred_order.len() {
                out.push_str(" ;\n    ");
            }
        }
        out.push_str(" .\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triples(doc: &str) -> Vec<Triple> {
        parse_turtle(doc).expect("document parses")
    }

    #[test]
    fn basic_triple_with_prefix() {
        let doc = "@prefix dbo: <http://dbpedia.org/ontology/> .\n\
                   <http://x/a> dbo:name \"Heraklion\" .";
        let t = triples(doc);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].predicate, "http://dbpedia.org/ontology/name");
        assert_eq!(t[0].object.as_literal(), Some("Heraklion"));
    }

    #[test]
    fn sparql_style_prefix_without_dot() {
        let doc = "PREFIX ex: <http://e/>\nex:a ex:p ex:b .";
        let t = triples(doc);
        assert_eq!(t[0].subject.as_iri(), Some("http://e/a"));
        assert_eq!(t[0].object.as_iri(), Some("http://e/b"));
    }

    #[test]
    fn a_keyword_is_rdf_type() {
        let doc = "@prefix ex: <http://e/> .\nex:x a ex:City .";
        let t = triples(doc);
        assert_eq!(t[0].predicate, RDF_TYPE);
    }

    #[test]
    fn predicate_and_object_lists() {
        let doc = "@prefix ex: <http://e/> .\n\
                   ex:a ex:p ex:b , ex:c ;\n\
                        ex:q \"v\" ;\n\
                        .";
        let t = triples(doc);
        assert_eq!(t.len(), 3);
        assert!(t.iter().all(|x| x.subject.as_iri() == Some("http://e/a")));
        assert_eq!(t[0].object.as_iri(), Some("http://e/b"));
        assert_eq!(t[1].object.as_iri(), Some("http://e/c"));
        assert_eq!(t[2].object.as_literal(), Some("v"));
    }

    #[test]
    fn language_tags_and_datatypes() {
        let doc = "@prefix x: <http://x/> .\n\
                   x:a x:l \"πόλη\"@el .\n\
                   x:a x:n \"42\"^^<http://www.w3.org/2001/XMLSchema#int> .";
        let t = triples(doc);
        match &t[0].object {
            Term::Literal(l) => assert_eq!(l.lang.as_deref(), Some("el")),
            other => panic!("expected literal, got {other:?}"),
        }
        match &t[1].object {
            Term::Literal(l) => {
                assert_eq!(
                    l.datatype.as_deref(),
                    Some("http://www.w3.org/2001/XMLSchema#int")
                )
            }
            other => panic!("expected literal, got {other:?}"),
        }
    }

    #[test]
    fn bare_numerics_and_booleans() {
        let doc = "@prefix x: <http://x/> .\n\
                   x:a x:pop 173450 .\n\
                   x:a x:lat 35.34 .\n\
                   x:a x:capital true .";
        let t = triples(doc);
        let dt = |i: usize| match &t[i].object {
            Term::Literal(l) => l.datatype.clone().unwrap(),
            _ => panic!(),
        };
        assert_eq!(dt(0), XSD_INTEGER);
        assert_eq!(dt(1), XSD_DECIMAL);
        assert_eq!(dt(2), XSD_BOOLEAN);
    }

    #[test]
    fn blank_nodes_labeled_and_anonymous() {
        let doc = "@prefix x: <http://x/> .\n\
                   _:b1 x:p x:a .\n\
                   x:a x:q [ x:r \"nested\" ] .";
        let t = triples(doc);
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].subject, Term::Blank("b1".into()));
        // The anonymous node appears as object of x:q and subject of x:r.
        let anon = match &t[2].object {
            Term::Blank(b) => b.clone(),
            other => panic!("expected blank object, got {other:?}"),
        };
        assert!(t
            .iter()
            .any(|x| x.subject == Term::Blank(anon.clone())
                && x.object.as_literal() == Some("nested")));
    }

    #[test]
    fn base_resolves_relative_iris() {
        let doc = "@base <http://base.org/> .\n<rel> <p:abs> <other> .";
        let t = triples(doc);
        assert_eq!(t[0].subject.as_iri(), Some("http://base.org/rel"));
        assert_eq!(t[0].predicate, "p:abs", "absolute IRIs are untouched");
        assert_eq!(t[0].object.as_iri(), Some("http://base.org/other"));
    }

    #[test]
    fn comments_are_skipped() {
        let doc = "# leading comment\n@prefix x: <http://x/> . # trailing\nx:a x:p x:b . # end";
        assert_eq!(triples(doc).len(), 1);
    }

    #[test]
    fn escapes_in_literals() {
        let doc = "@prefix x: <http://x/> .\nx:a x:p \"line\\nbreak \\\"quoted\\\" \\u0041\" .";
        let t = triples(doc);
        assert_eq!(t[0].object.as_literal(), Some("line\nbreak \"quoted\" A"));
    }

    #[test]
    fn hex_escapes_take_exactly_their_digits() {
        let object = |body: &str| {
            parse_turtle(&format!("<http://a> <http://p>\n  \"{body}\" ."))
                .map(|t| t[0].object.as_literal().map(str::to_string))
        };
        assert_eq!(
            object(r"\u0041\U0001F600").unwrap().as_deref(),
            Some("A\u{1F600}")
        );
        assert_eq!(object(r"it\'s").unwrap().as_deref(), Some("it's"));
        // The escape table is the N-Triples one: a sign is not a hex digit.
        for bad in [
            r"\u+041",
            r"\u-041",
            r"\u041",
            r"\u00g1",
            r"\U0000004",
            r"\uD800",
        ] {
            let err = object(bad).unwrap_err();
            assert_eq!(err.line, 2, "{bad}");
        }
        assert!(object(r"\u+041").unwrap_err().message.contains("bad hex"));
        let cut = parse_turtle("<http://a> <http://p> \"\\u00").unwrap_err();
        assert!(cut.message.contains("truncated"), "{cut}");
    }

    #[test]
    fn literals_stop_at_the_end_of_their_line() {
        let err = parse_turtle("<http://a> <http://p> \"open\n<http://b> <http://p> \"x\" .");
        assert!(err.unwrap_err().message.contains("newline"));
        assert!(parse_turtle("<http://a> <http://p> \"x\"@ .").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| {
            let open = "[ <http://p> ".repeat(depth);
            let close = " ]".repeat(depth);
            parse_turtle(&format!("<http://a> <http://p> {open}\"x\"{close} ."))
        };
        assert_eq!(nested(MAX_NESTING).unwrap().len(), MAX_NESTING + 1);
        let err = nested(MAX_NESTING + 1).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        // Far past any stack: an error, not an overflow.
        assert!(parse_turtle(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn statements_reach_the_sink_in_document_order() {
        let doc = "@prefix x: <http://x/> .\nx:a x:q [ x:r \"nested\" ] , <http://abs> .";
        let mut seen = Vec::new();
        for_each_statement(doc, |st| seen.push(st.to_triple().to_string())).unwrap();
        assert_eq!(
            seen,
            [
                "_:anon0 <http://x/r> \"nested\" .",
                "<http://x/a> <http://x/q> _:anon0 .",
                "<http://x/a> <http://x/q> <http://abs> .",
            ]
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let doc = "@prefix x: <http://x/> .\nx:a x:p undeclared:b .";
        let err = parse_turtle(doc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("undeclared"));
    }

    #[test]
    fn unterminated_constructs_fail_cleanly() {
        assert!(parse_turtle("<http://x ").is_err());
        assert!(parse_turtle("@prefix x: <http://x/> .\nx:a x:p \"open").is_err());
        assert!(parse_turtle("@prefix x: <http://x/> .\nx:a x:p x:b ").is_err());
    }

    #[test]
    fn empty_and_comment_only_documents() {
        assert!(triples("").is_empty());
        assert!(triples("# nothing here\n\n").is_empty());
    }

    #[test]
    fn writer_round_trips_through_parser() {
        let doc = "@prefix x: <http://x/> .\n\
                   x:a a x:City ;\n       x:p x:b , x:c ;\n       x:l \"v\"@el .\n\
                   _:b1 x:q \"1.5\"^^<http://www.w3.org/2001/XMLSchema#decimal> .";
        let original = triples(doc);
        let written = write_turtle(&original, &[("x", "http://x/")]);
        let reparsed = triples(&written);
        assert_eq!(original, reparsed, "written form:\n{written}");
    }

    #[test]
    fn writer_groups_subjects_and_uses_a() {
        let doc = "@prefix x: <http://x/> .\nx:s a x:T .\nx:s x:p \"v\" .";
        let written = write_turtle(&triples(doc), &[("x", "http://x/")]);
        assert_eq!(
            written.matches("x:s").count(),
            1,
            "one subject group:\n{written}"
        );
        assert!(written.contains(" a x:T"), "{written}");
        assert!(written.contains(';'), "{written}");
    }

    #[test]
    fn writer_escapes_literals() {
        let t = vec![Triple::new(
            Term::iri("http://x/s"),
            "http://x/p",
            Term::literal("say \"hi\"\nplease"),
        )];
        let written = write_turtle(&t, &[]);
        let reparsed = triples(&written);
        assert_eq!(reparsed[0].object.as_literal(), Some("say \"hi\"\nplease"));
    }

    #[test]
    fn writer_falls_back_to_angle_brackets() {
        let t = vec![Triple::new(
            Term::iri("http://elsewhere/with space.x."),
            "http://x/p",
            Term::iri("http://x/ok"),
        )];
        let written = write_turtle(&t, &[("x", "http://x/")]);
        assert!(
            written.contains("<http://elsewhere/with space.x.>"),
            "{written}"
        );
        assert!(written.contains("x:ok"), "{written}");
    }

    #[test]
    fn equivalent_to_ntriples_for_shared_subset() {
        let nt = "<http://x/a> <http://x/p> \"v\" .\n<http://x/a> <http://x/q> <http://x/b> .\n";
        let from_nt = crate::ntriples::parse_document(nt).unwrap();
        let from_ttl = triples(nt);
        assert_eq!(from_nt, from_ttl, "Turtle is a superset of N-Triples");
    }
}
