pub fn f(o: Option<u32>) -> u32 {
    // lint:allow(expect-message): the weak expect this excused is gone
    o.unwrap_or(0)
}

pub fn g(o: Option<u32>) -> u32 {
    o.expect("callers pass Some") // lint:allow(expect-message): a descriptive expect never fires
}
