//! A counting `GlobalAlloc` wrapper. Only the traced binary installs it
//! (`#[global_allocator]` in `src/bin/bench_traced.rs`); the untraced
//! binary keeps the system allocator untouched, so no end-to-end number
//! pays for it.
//!
//! Counting is off until [`enable`] and costs one relaxed load per call
//! while off. Live bytes are *relative to the enabling instant*: a traced
//! pass enables counting, allocates and frees everything it builds, and
//! disables it again, so `live` is the pass's own heap and `peak` its
//! high-water mark. Blocks allocated before the window and freed inside it
//! would drive `live` negative; the harness keeps its inputs alive across
//! the window so that does not happen, and `live` is signed so a stray
//! one cannot wrap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The allocator the traced binary installs.
pub struct Counting;

#[inline]
fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    // A plain load first: most allocations happen below the mark, and a
    // load is cheaper than a read-modify-write.
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns `System`'s result unchanged; the counters are
// plain statistics (relaxed atomics) that never influence the pointer or
// layout handed back, so `System`'s `GlobalAlloc` contract carries over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            grew(new_size);
        }
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's, under the same contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation calls (alloc, alloc_zeroed, realloc) since [`enable`].
    pub allocs: u64,
    /// High-water mark, since the last [`reset_peak`], of the bytes
    /// allocated and not yet freed since [`enable`].
    pub peak: i64,
}

/// Zeroes the counters and starts counting.
pub fn enable() {
    ALLOCS.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops counting.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed),
    }
}

/// Restarts the high-water mark at the current live size and returns the
/// mark it replaces, which the caller restores with [`raise_peak`] when a
/// nested measurement ends.
pub fn reset_peak() -> i64 {
    PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed)
}

/// Raises the high-water mark to at least `to`.
pub fn raise_peak(to: i64) {
    PEAK.fetch_max(to, Ordering::Relaxed);
}
