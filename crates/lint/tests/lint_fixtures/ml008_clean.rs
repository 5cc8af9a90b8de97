//! Prose may say `static mut`, `thread_local!` or `static X: AtomicUsize`.
static NAMES: &[&str] = &["static mut X: AtomicUsize"];

pub fn name<T: 'static>(_: &'static T) -> &'static str {
    NAMES[0]
}

/// A counter the caller owns: an instance, not a process-wide static.
pub struct Calls(pub std::sync::atomic::AtomicUsize);

#[cfg(test)]
mod tests {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    thread_local! {
        static SEEN: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }
}
