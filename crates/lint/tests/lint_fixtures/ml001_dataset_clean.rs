pub fn add_literal(text: &mut String, log: &mut Vec<(u32, u32, u32)>, predicate: u32, value: &str) {
    // One arena for every value; an attribute is a span of it.
    let start = text.len() as u32;
    text.push_str(value);
    log.push((predicate, start, value.len() as u32));
}

pub fn name_like(iri: &str) -> bool {
    // Letter case is folded a window at a time, in place.
    iri.as_bytes()
        .windows(5)
        .any(|window| window.eq_ignore_ascii_case(b"label"))
}
