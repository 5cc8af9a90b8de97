//! Bounded top-k selection.
//!
//! Cardinality-based meta-blocking pruning (CEP, CNP) must retain the `k`
//! highest-weighted comparisons out of streams far larger than `k`.
//! [`TopK`] buffers at most `2k` items; when the buffer fills it selects
//! the `k` largest in linear time (`select_nth_unstable_by`), drops the
//! rest, and from then on turns away anything not above the `k`-th
//! largest with a single compare. A stream of `n` items costs `O(n)`
//! compares amortised — each compaction is `O(k)` and is paid for by the
//! `k` admissions that refilled the buffer — instead of a heap's
//! `O(n log k)`, and memory stays bounded regardless of stream length.

/// How many multiples of `k` the buffer holds before it compacts.
const BUFFER_FACTOR: usize = 2;

/// Keeps the `k` largest items pushed into it under `Ord`. Equal items
/// are interchangeable: which of them survives a cut is unspecified, so
/// callers that need a deterministic outcome push keys under a strict
/// total order (every caller in this workspace does).
#[derive(Clone, Debug)]
pub struct TopK<T: Ord> {
    k: usize,
    /// At most `BUFFER_FACTOR · k` items. Once `compacted`, `buf[..k]` are
    /// the `k` largest seen up to the last compaction and `buf[k - 1]` is
    /// the smallest of them — the bar later items must clear.
    buf: Vec<T>,
    compacted: bool,
}

impl<T: Ord> TopK<T> {
    /// Creates a selector for the `k` largest items. `k == 0` keeps
    /// nothing. Allocates nothing until the first push.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            buf: Vec::new(),
            compacted: false,
        }
    }

    fn limit(&self) -> usize {
        self.k.saturating_mul(BUFFER_FACTOR)
    }

    /// Offers an item; it survives only while it ranks among the `k`
    /// largest offered so far.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.k == 0 || (self.compacted && item <= self.buf[self.k - 1]) {
            return;
        }
        if self.buf.capacity() == 0 {
            // The one allocation: exactly the bound, so the buffer never
            // doubles past it.
            self.buf.reserve_exact(self.limit());
        } else if self.buf.len() >= self.limit() {
            self.compact();
        }
        self.buf.push(item);
    }

    /// Cuts the buffer down to its `k` largest items, the smallest of
    /// them at `buf[k - 1]`.
    fn compact(&mut self) {
        if self.buf.len() > self.k {
            self.buf.select_nth_unstable_by(self.k - 1, |a, b| b.cmp(a));
            self.buf.truncate(self.k);
            self.compacted = true;
        }
    }

    /// Consumes the selector, returning the `k` largest items sorted
    /// descending.
    pub fn into_sorted_vec(mut self) -> Vec<T> {
        self.compact();
        self.buf.sort_unstable_by(|a, b| b.cmp(a));
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_largest() {
        let mut t = TopK::new(3);
        for x in [5, 1, 9, 3, 7, 2] {
            t.push(x);
        }
        assert_eq!(t.into_sorted_vec(), vec![9, 7, 5]);
    }

    #[test]
    fn fewer_than_k_keeps_all() {
        let mut t = TopK::new(10);
        t.push(2);
        t.push(1);
        assert_eq!(t.into_sorted_vec(), vec![2, 1]);
    }

    #[test]
    fn zero_k_keeps_nothing() {
        let mut t = TopK::new(0);
        t.push(5);
        assert!(t.into_sorted_vec().is_empty());
    }

    #[test]
    fn equal_items_do_not_evict() {
        let mut t = TopK::new(2);
        t.push((5, "first"));
        t.push((5, "second"));
        // Below both retained items, however long the stream runs on.
        for _ in 0..10 {
            t.push((4, "late"));
        }
        assert_eq!(t.into_sorted_vec(), vec![(5, "second"), (5, "first")]);
    }

    #[test]
    fn allocates_on_first_push_and_never_past_the_bound() {
        let mut t = TopK::new(8);
        assert_eq!(t.buf.capacity(), 0);
        for x in 0..1000u32 {
            t.push(x);
            assert_eq!(t.buf.capacity(), 16);
        }
        assert_eq!(t.into_sorted_vec(), (992..1000).rev().collect::<Vec<_>>());
    }

    /// The selection of `items` in arrival order, and how many times the
    /// buffer compacted on the way (seen as a drop in its length, which
    /// needs `k > 1`: at `k == 1` a compaction leaves two items again).
    fn select(items: &[u32], k: usize) -> (Vec<u32>, usize) {
        let mut top = TopK::new(k);
        let mut compactions = 0;
        for &x in items {
            let before = top.buf.len();
            top.push(x);
            compactions += usize::from(top.buf.len() < before);
        }
        (top.into_sorted_vec(), compactions)
    }

    proptest::proptest! {
        /// Against sort-and-truncate, order included, at the cardinalities
        /// around the stream length, over a value range narrow enough to
        /// be full of duplicates — in arrival order and in ascending
        /// order, where every new value clears the bar and the small-k
        /// buffers compact dozens of times.
        #[test]
        fn equals_sort_and_truncate(items in proptest::collection::vec(0u32..60, 0..200)) {
            let n = items.len();
            let mut ascending = items.clone();
            ascending.sort_unstable();
            let mut distinct = ascending.clone();
            distinct.dedup();
            for k in [0, 1, 2, n.saturating_sub(1), n, n + 1] {
                let mut expect = ascending.clone();
                expect.reverse();
                expect.truncate(k);
                proptest::prop_assert_eq!(&select(&items, k).0, &expect, "k {}", k);
                let (sorted, compactions) = select(&ascending, k);
                proptest::prop_assert_eq!(&sorted, &expect, "k {}, ascending", k);
                if k > 1 && distinct.len() >= 6 * k {
                    proptest::prop_assert!(compactions >= 3, "k {}: {}", k, compactions);
                }
            }
        }
    }
}
