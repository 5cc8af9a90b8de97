pub fn hot(a: &str, b: &str) -> bool {
    a.to_lowercase() == b.to_uppercase()
}
