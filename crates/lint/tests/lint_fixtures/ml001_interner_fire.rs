pub fn intern(strings: &mut Vec<Box<str>>, s: &str) -> u32 {
    strings.push(s.to_owned().into_boxed_str());
    (strings.len() - 1) as u32
}

pub fn compose(prefix: &str, rest: &str) -> String {
    format!("{prefix}{rest}")
}
