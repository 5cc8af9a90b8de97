//! Flat CSR layout primitives for the block collection.
//!
//! The collection stores both of its views — `block → members` and
//! `entity → blocks` — as offset/slab pairs. Each view is the *transpose*
//! of the other, and every construction path (the string-free builder,
//! the `from_groups` compat shim, purging, filtering) reduces to the same
//! operation: given items grouped by row, regroup them by column while
//! preserving row order inside each column. That is a counting sort
//! (count → prefix-sum → fill), implemented here once.
//!
//! The parallel variant partitions the work over contiguous *row* ranges
//! with `std::thread::scope`, precomputes every output position from
//! per-thread counts, and gathers into disjoint column-range chunks — so
//! the result is **bit-identical for every thread count**, including 1.

#![deny(clippy::disallowed_types)]

/// Exclusive prefix sum with a trailing total — the CSR offsets of
/// per-group `counts`.
pub(crate) fn prefix_sum(counts: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    out.push(0);
    for &c in counts {
        acc = acc.checked_add(c).expect("CSR slab exceeds u32::MAX items");
        out.push(acc);
    }
    out
}

/// Minimum items a range must be worth before another worker (with its
/// dense per-thread count slab) pays off — small inputs collapse to one
/// range and run serially instead of zeroing `threads × num_cols` counts.
const MIN_RANGE_ITEMS: u64 = 1024;

/// Splits `0..num_rows` into at most `parts` contiguous ranges of roughly
/// equal item count (`row_ends[r]` = cumulative items through row `r`),
/// capped so every range is worth at least [`MIN_RANGE_ITEMS`] items.
/// Never returns an empty range.
pub(crate) fn split_rows(row_ends: &[u32], parts: usize) -> Vec<std::ops::Range<usize>> {
    let n = row_ends.len();
    if n == 0 {
        return Vec::new();
    }
    let items = *row_ends.last().expect("non-empty") as u64;
    let max_parts = (items / MIN_RANGE_ITEMS).max(1) as usize;
    let parts = parts.max(1).min(n).min(max_parts);
    let target = items / parts as u64 + 1;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0u64;
    let mut prev_end = 0u64;
    for (r, &end) in row_ends.iter().enumerate() {
        acc += end as u64 - prev_end;
        prev_end = end as u64;
        if acc >= target && out.len() + 1 < parts {
            out.push(start..r + 1);
            start = r + 1;
            acc = 0;
        }
    }
    if start < n {
        out.push(start..n);
    }
    out
}

/// Column key of a transpose item — bare `u32` ids or dense newtypes
/// over them (so the entity slab transposes without a conversion copy).
pub(crate) trait ColId: Copy + Send + Sync {
    fn col_index(self) -> usize;
}

impl ColId for u32 {
    #[inline]
    fn col_index(self) -> usize {
        self as usize
    }
}

impl ColId for minoan_rdf::EntityId {
    #[inline]
    fn col_index(self) -> usize {
        self.index()
    }
}

impl ColId for minoan_common::Symbol {
    #[inline]
    fn col_index(self) -> usize {
        self.index()
    }
}

/// Transposes a row-grouped item list into a column-grouped one.
///
/// Item `i` belongs to column `cols[i]`; the items of row `r` occupy
/// `row_ends[r-1]..row_ends[r]` (with `row_ends[-1] = 0`). Returns
/// `(col_offsets, row_of)`: column `c`'s items occupy
/// `col_offsets[c]..col_offsets[c + 1]` of `row_of`, and each slot holds
/// the *row* its item came from, rows ascending within the column (scan
/// order). Output is identical for every `threads` value.
pub(crate) fn transpose_csr<C: ColId>(
    row_ends: &[u32],
    cols: &[C],
    num_cols: usize,
    threads: usize,
) -> (Vec<u32>, Vec<u32>) {
    debug_assert_eq!(
        row_ends.last().copied().unwrap_or(0) as usize,
        cols.len(),
        "row_ends must cover all items"
    );
    let ranges = split_rows(row_ends, threads);
    if ranges.len() <= 1 {
        return transpose_serial(row_ends, cols, num_cols);
    }

    // Pass 1 — per-thread column counts over disjoint row ranges.
    let per_thread = count_cols_per_range(row_ends, cols, num_cols, &ranges);
    let col_offsets = prefix_sum(&merge_counts(&per_thread, num_cols));

    // Pass 2 — each thread counting-sorts its own items locally (row scan
    // order preserved inside every local column run).
    let mut locals: Vec<(Vec<u32>, Vec<u32>)> = Vec::with_capacity(ranges.len());
    for counts in &per_thread {
        let offs = prefix_sum(counts);
        let len = *offs.last().expect("prefix_sum output is never empty") as usize;
        locals.push((offs, vec![0u32; len]));
    }
    std::thread::scope(|s| {
        for (r, (local_offs, local)) in ranges.iter().zip(locals.iter_mut()) {
            let row_ends = &row_ends;
            let cols = &cols;
            let r = r.clone();
            s.spawn(move || {
                let mut cursor: Vec<u32> = local_offs[..num_cols].to_vec();
                for row in r {
                    let start = if row == 0 { 0 } else { row_ends[row - 1] } as usize;
                    let end = row_ends[row] as usize;
                    for &c in &cols[start..end] {
                        let slot = &mut cursor[c.col_index()];
                        local[*slot as usize] = row as u32;
                        *slot += 1;
                    }
                }
            });
        }
    });

    // Pass 3 — gather: each output column is the concatenation of the
    // thread-local runs in thread (= row) order. Threads own disjoint
    // contiguous *column* ranges of the final slab, so the writes split
    // safely and land at precomputed offsets.
    let mut row_of = vec![0u32; cols.len()];
    let col_ranges = split_rows(&col_offsets[1..], threads);
    let mut chunks: Vec<&mut [u32]> = Vec::with_capacity(col_ranges.len());
    {
        let mut rest: &mut [u32] = &mut row_of;
        let mut prev = 0usize;
        for cr in &col_ranges {
            let end = col_offsets[cr.end] as usize;
            let (chunk, tail) = rest.split_at_mut(end - prev);
            chunks.push(chunk);
            rest = tail;
            prev = end;
        }
        debug_assert!(rest.is_empty());
    }
    std::thread::scope(|s| {
        for (cr, chunk) in col_ranges.iter().zip(chunks) {
            let locals = &locals;
            let cr = cr.clone();
            s.spawn(move || {
                let mut out = 0usize;
                for c in cr {
                    for (local_offs, local) in locals {
                        let lo = local_offs[c] as usize;
                        let hi = local_offs[c + 1] as usize;
                        chunk[out..out + (hi - lo)].copy_from_slice(&local[lo..hi]);
                        out += hi - lo;
                    }
                }
            });
        }
    });
    (col_offsets, row_of)
}

/// Pass 1 of the counting sort, shared with the collection's symbol
/// counting: one dense per-column count vector per (disjoint) row range,
/// filled concurrently. Single-range inputs are counted inline without
/// spawning. The per-range vectors merge additively, so every consumer
/// is thread-count independent by construction.
pub(crate) fn count_cols_per_range<C: ColId>(
    row_ends: &[u32],
    cols: &[C],
    num_cols: usize,
    ranges: &[std::ops::Range<usize>],
) -> Vec<Vec<u32>> {
    let mut per_range: Vec<Vec<u32>> = ranges.iter().map(|_| vec![0u32; num_cols]).collect();
    if ranges.len() <= 1 {
        if let Some(counts) = per_range.first_mut() {
            for &c in cols {
                counts[c.col_index()] += 1;
            }
        }
        return per_range;
    }
    std::thread::scope(|s| {
        for (r, counts) in ranges.iter().zip(per_range.iter_mut()) {
            let items = row_items(row_ends, r);
            let cols = &cols[items];
            s.spawn(move || {
                for &c in cols {
                    counts[c.col_index()] += 1;
                }
            });
        }
    });
    per_range
}

/// Additive merge of per-range count vectors.
pub(crate) fn merge_counts(per_range: &[Vec<u32>], num_cols: usize) -> Vec<u32> {
    let mut totals = vec![0u32; num_cols];
    for counts in per_range {
        for (t, &c) in totals.iter_mut().zip(counts.iter()) {
            *t += c;
        }
    }
    totals
}

/// Merges the sorted run `add` into the sorted vector `dst` in one
/// backward pass over the reserved tail — the delta-append primitive of
/// the incremental collection ([`crate::delta`]): a block's member list
/// grows by a batch without being rebuilt, in `O(len + add)` with a
/// single reserve. `add` must itself be sorted; duplicates between the
/// two runs are kept (the incremental path never produces any — an
/// entity arrives exactly once).
pub(crate) fn merge_sorted_into<T: Ord + Copy>(dst: &mut Vec<T>, add: &[T]) {
    if add.is_empty() {
        return;
    }
    let old = dst.len();
    dst.extend_from_slice(add);
    // Pure append (everything new sorts after everything old): the
    // extend already produced the merged order.
    if old == 0 || dst[old - 1] <= add[0] {
        return;
    }
    // Backward merge: read the old run in place, the added run from the
    // caller's slice, write from the tail. Every slot is written at most
    // once and never before it is read.
    let mut i = old;
    let mut j = add.len();
    let mut k = dst.len();
    while i > 0 && j > 0 {
        if dst[i - 1] > add[j - 1] {
            dst[k - 1] = dst[i - 1];
            i -= 1;
        } else {
            dst[k - 1] = add[j - 1];
            j -= 1;
        }
        k -= 1;
    }
    if j > 0 {
        dst[k - j..k].copy_from_slice(&add[..j]);
    }
}

/// Byte range of the items belonging to the row range `r`.
fn row_items(row_ends: &[u32], r: &std::ops::Range<usize>) -> std::ops::Range<usize> {
    let start = if r.start == 0 {
        0
    } else {
        row_ends[r.start - 1]
    } as usize;
    start..row_ends[r.end - 1] as usize
}

fn transpose_serial<C: ColId>(
    row_ends: &[u32],
    cols: &[C],
    num_cols: usize,
) -> (Vec<u32>, Vec<u32>) {
    let mut counts = vec![0u32; num_cols];
    for &c in cols {
        counts[c.col_index()] += 1;
    }
    let col_offsets = prefix_sum(&counts);
    let mut cursor: Vec<u32> = col_offsets[..num_cols].to_vec();
    let mut row_of = vec![0u32; cols.len()];
    let mut start = 0usize;
    for (row, &end) in row_ends.iter().enumerate() {
        for &c in &cols[start..end as usize] {
            let slot = &mut cursor[c.col_index()];
            row_of[*slot as usize] = row as u32;
            *slot += 1;
        }
        start = end as usize;
    }
    (col_offsets, row_of)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(row_ends: &[u32], cols: &[u32], num_cols: usize) -> (Vec<u32>, Vec<u32>) {
        let mut grouped: Vec<Vec<u32>> = vec![Vec::new(); num_cols];
        let mut start = 0usize;
        for (row, &end) in row_ends.iter().enumerate() {
            for &c in &cols[start..end as usize] {
                grouped[c.col_index()].push(row as u32);
            }
            start = end as usize;
        }
        let counts: Vec<u32> = grouped.iter().map(|g| g.len() as u32).collect();
        (prefix_sum(&counts), grouped.concat())
    }

    #[test]
    fn transpose_matches_naive_for_every_thread_count() {
        // Pseudo-random rows with a skewed column distribution — enough
        // items (≫ MIN_RANGE_ITEMS) that the parallel path really splits.
        let num_cols = 13;
        let mut cols = Vec::new();
        let mut row_ends = Vec::new();
        let mut x = 7u32;
        for row in 0..4000u32 {
            for _ in 0..(row % 5) {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                cols.push((x >> 9) % num_cols as u32);
            }
            row_ends.push(cols.len() as u32);
        }
        assert!(cols.len() as u64 > 4 * MIN_RANGE_ITEMS);
        let expect = naive(&row_ends, &cols, num_cols);
        for threads in [1, 2, 3, 4, 8, 64] {
            let got = transpose_csr(&row_ends, &cols, num_cols, threads);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn transpose_handles_empty() {
        assert_eq!(transpose_csr::<u32>(&[], &[], 0, 4), (vec![0], vec![]));
        // Rows exist but hold no items; columns exist but receive none.
        let (offs, rows) = transpose_csr::<u32>(&[0, 0, 0], &[], 5, 4);
        assert_eq!(offs, vec![0; 6]);
        assert!(rows.is_empty());
    }

    #[test]
    fn split_rows_covers_in_order() {
        // Item counts well above MIN_RANGE_ITEMS so the cap does not
        // collapse the split.
        let row_ends = vec![2000u32, 2000, 10000, 11000, 14000];
        for parts in 1..7 {
            let ranges = split_rows(&row_ends, parts);
            assert!(ranges.len() <= parts);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, row_ends.len());
        }
        assert!(split_rows(&row_ends, 5).len() > 1, "large input must split");
    }

    #[test]
    fn merge_sorted_into_matches_sort() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[], &[]),
            (&[1, 3, 5], &[]),
            (&[], &[2, 4]),
            (&[1, 2, 3], &[4, 5, 6]),  // pure append fast path
            (&[4, 5, 6], &[1, 2, 3]),  // full prepend
            (&[1, 4, 9], &[2, 3, 10]), // interleave
            (&[2, 2, 5], &[2, 5, 5]),  // duplicates kept
            (&[7], &[0, 1, 2, 3, 4, 5]),
        ];
        for (dst0, add) in cases {
            let mut dst = dst0.to_vec();
            merge_sorted_into(&mut dst, add);
            let mut expect = dst0.to_vec();
            expect.extend_from_slice(add);
            expect.sort_unstable();
            assert_eq!(dst, expect, "dst={dst0:?} add={add:?}");
        }
    }

    #[test]
    fn split_rows_collapses_tiny_inputs() {
        // Fewer items than MIN_RANGE_ITEMS → one range regardless of the
        // requested part count (no per-thread count slabs for tiny work).
        let row_ends = vec![2u32, 2, 10, 11, 14];
        for parts in 1..7 {
            assert_eq!(split_rows(&row_ends, parts).len(), 1);
        }
    }
}
