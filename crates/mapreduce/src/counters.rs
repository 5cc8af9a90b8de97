//! Job counters, mirroring Hadoop's named counters.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Thread-safe named `u64` counters.
///
/// Tasks increment counters during map/reduce; the engine exposes the final
/// totals on the [`crate::JobResult`]. Contention is irrelevant at our task
/// granularity, so a single mutex-protected map keeps things simple.
#[derive(Default, Debug)]
pub struct Counters {
    inner: Mutex<BTreeMap<&'static str, u64>>,
}

impl Counters {
    /// Creates an empty counter group.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters, locked. A task that panicked under the lock left
    /// every count whole (an update is one `+=`), so a poisoned lock is
    /// read as it stands.
    fn counts(&self) -> MutexGuard<'_, BTreeMap<&'static str, u64>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `delta` to counter `name` (creating it at 0).
    pub fn add(&self, name: &'static str, delta: u64) {
        *self.counts().entry(name).or_insert(0) += delta;
    }

    /// Increments counter `name` by one.
    pub fn incr(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counts().get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.counts().iter().map(|(&k, &c)| (k, c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let c = Counters::new();
        assert_eq!(c.get("maps"), 0);
        c.incr("maps");
        c.add("maps", 4);
        assert_eq!(c.get("maps"), 5);
    }

    #[test]
    fn snapshot_sorted() {
        let c = Counters::new();
        c.incr("z");
        c.incr("a");
        assert_eq!(c.snapshot(), vec![("a", 1), ("z", 1)]);
    }

    #[test]
    fn concurrent_increments_sum() {
        let c = Counters::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.incr("n");
                    }
                });
            }
        });
        assert_eq!(c.get("n"), 8000);
    }
}
