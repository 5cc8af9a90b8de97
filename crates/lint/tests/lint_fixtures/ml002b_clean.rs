use std::collections::HashMap;
pub fn f(m: &HashMap<u32, u32>, out: &mut Vec<u32>) {
    #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
    let mut ks: Vec<u32> = m.keys().copied().collect();
    ks.sort_unstable();
    for k in ks {
        out.push(k);
    }
}
