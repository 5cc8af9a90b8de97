//! Fixture file without `unsafe` code.

pub fn f(x: &u32) -> u32 {
    *x
}
