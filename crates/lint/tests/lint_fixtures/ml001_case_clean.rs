pub fn hot(a: &[char], b: &[char]) -> bool {
    // Lowered once, where the slices were built.
    a == b
}
