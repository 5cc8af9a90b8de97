pub fn iri(rest: &str, end: usize) -> String {
    rest[..end].to_string()
}

pub fn blank_uri(kb: u16, label: &str) -> String {
    format!("bnode://{kb}/{label}")
}

pub fn value(body: &str) -> String {
    let mut value = String::with_capacity(body.len());
    value.push_str(body);
    value
}
