pub fn f(o: Option<u32>) -> u32 {
    // lint:allow(unwrap-in-lib): the unwrap this excused is gone
    o.unwrap_or(0)
}

pub fn g(o: Option<u32>) -> u32 {
    o.expect("callers pass Some") // lint:allow(unwrap-in-lib): a descriptive expect never fires
}
