pub fn f(o: Option<u32>) -> u32 {
    o.unwrap_or(0)
}

pub fn g(o: Option<u32>) -> u32 {
    o.unwrap() // lint:allow(unwrap-in-lib): the trailing form excuses its own line
}
