//! Fixture file with an `unsafe` block.

pub fn f(x: &u32) -> u32 {
    let p: *const u32 = x;
    unsafe { *p }
}
