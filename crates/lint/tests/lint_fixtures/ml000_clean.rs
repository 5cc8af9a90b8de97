pub fn f(o: Option<u32>) -> u32 {
    // lint:allow(expect-message): caller guarantees presence in this fixture
    o.expect("no")
}
