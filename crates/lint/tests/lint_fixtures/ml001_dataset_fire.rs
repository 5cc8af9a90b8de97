pub fn add_literal(attributes: &mut Vec<(u32, Box<str>)>, predicate: u32, value: &str) {
    attributes.push((predicate, value.to_owned().into_boxed_str()));
}

pub fn name_like(iri: &str) -> bool {
    iri.to_lowercase().contains("label")
}
