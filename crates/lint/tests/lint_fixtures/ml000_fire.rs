pub fn f(o: Option<u32>) -> u32 {
    o.expect("no") // lint:allow(expect-message)
}
