#![deny(clippy::disallowed_types)]
use std::collections::HashMap;
pub fn f() {
    let m: HashMap<u32, u32> = HashMap::default();
    drop(m);
}
