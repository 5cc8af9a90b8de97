use std::fmt::Write as _;

pub fn iri(rest: &str, end: usize) -> &str {
    // A term is a slice of the line it was read from.
    &rest[..end]
}

pub fn blank_uri(kb: u16, label: &str, scratch: &mut String) {
    // Composed in a buffer the builder owns and reuses.
    scratch.clear();
    let _ = write!(scratch, "bnode://{kb}/{label}");
}

pub fn value(body: &str) -> std::borrow::Cow<'_, str> {
    // Borrowed unless an escape forces a copy (that site carries an allow).
    std::borrow::Cow::Borrowed(body)
}
