#![deny(clippy::disallowed_types)]
pub fn f(xs: &mut [u32]) {
    xs.sort_unstable();
}
