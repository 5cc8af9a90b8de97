pub fn intern(arena: &mut String, ends: &mut Vec<u32>, s: &str) -> u32 {
    // One arena for every string; a new one costs an append, not a heap object.
    arena.push_str(s);
    ends.push(arena.len() as u32);
    (ends.len() - 1) as u32
}

pub fn compose(prefix: &str, rest: &str, scratch: &mut String) {
    // Composed in a buffer the interner owns and reuses.
    scratch.clear();
    scratch.push_str(prefix);
    scratch.push_str(rest);
}
