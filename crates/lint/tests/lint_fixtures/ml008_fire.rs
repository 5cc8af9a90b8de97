use std::sync::atomic::{AtomicUsize, Ordering};
static CALLS: AtomicUsize = AtomicUsize::new(0);
pub(crate) static REGISTRY: std::sync::Mutex<Vec<u32>> = std::sync::Mutex::new(Vec::new());
thread_local! {
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

pub fn record() -> usize {
    static FIRST: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    FIRST.get_or_init(|| 7);
    CALLS.fetch_add(1, Ordering::Relaxed)
}
