//! The shared neighbourhood-stats → edge-weight kernel.
//!
//! Every path that weighs an edge — the streaming sweeps
//! (`crate::streaming`), the MapReduce formulations ([`crate::parallel`]),
//! the incremental row cache and the query-time loads — must produce
//! *bit-identical* f64 weights. That only holds if the arithmetic lives in exactly one
//! place: f64 multiplication chains are association-order sensitive at
//! the ulp level (ECBS/EJS multiply per-endpoint log factors), so copies
//! of the same formula drift the moment one is edited. This module is
//! that single place:
//!
//! * [`weight_from_stats`] — the scalar kernel: per-pair co-occurrence
//!   statistics (`|B_ij|`, ARCS sum) plus per-endpoint/global aggregates
//!   in, one weight out. Endpoint-dependent factors are always evaluated
//!   in normalised `(smaller, larger)` endpoint order.
//! * `WeightGlobals` (crate-internal) — the per-collection aggregates a
//!   sweep-based backend needs before it can weight an edge (`|B_i|`,
//!   `|B|`, and — for EJS — node degrees and `|V|`). Owned and cached
//!   across runs by [`Session`](crate::Session)'s sweep state, so a
//!   scheme sweep computes them once.
//! * `edge_weight` (crate-internal) — the single kernel call site: the
//!   sweeps reconstruct a node's incident statistics with the epoch-reset
//!   `SweepScratch` and `rule::Weigher` builds every neighbourhood row
//!   through it; the incremental row cache re-weighs its rows through it.

#![deny(clippy::disallowed_types)]

use crate::weights::WeightingScheme;
use minoan_blocking::{BlockCollection, BlockView};
use minoan_common::stats::log_weight;
use minoan_rdf::EntityId;

/// Weight of one edge from raw per-pair and per-endpoint statistics — the
/// scalar kernel every backend computes through.
///
/// `blocks_lo`/`blocks_hi` (and `deg_lo`/`deg_hi`) are the endpoint
/// aggregates in normalised `(smaller, larger)` endpoint order; passing
/// them swapped changes the f64 rounding of the ECBS/EJS factor products
/// and breaks cross-backend bit-identity. `deg_lo`/`deg_hi`/`num_edges`
/// are only read by [`WeightingScheme::Ejs`].
#[expect(
    clippy::too_many_arguments,
    reason = "the scalar kernel takes every statistic by value so no caller builds a struct per edge"
)]
#[inline]
pub fn weight_from_stats(
    scheme: WeightingScheme,
    common_blocks: u32,
    arcs: f64,
    blocks_lo: u32,
    blocks_hi: u32,
    num_blocks: usize,
    deg_lo: usize,
    deg_hi: usize,
    num_edges: usize,
) -> f64 {
    let cbs = common_blocks as f64;
    match scheme {
        WeightingScheme::Cbs => cbs,
        WeightingScheme::Ecbs => {
            let b = num_blocks as f64;
            cbs * log_weight(b, blocks_lo as f64) * log_weight(b, blocks_hi as f64)
        }
        WeightingScheme::Js => {
            let denom = blocks_lo as f64 + blocks_hi as f64 - cbs;
            if denom <= 0.0 {
                0.0
            } else {
                cbs / denom
            }
        }
        WeightingScheme::Ejs => {
            let js = weight_from_stats(
                WeightingScheme::Js,
                common_blocks,
                arcs,
                blocks_lo,
                blocks_hi,
                num_blocks,
                deg_lo,
                deg_hi,
                num_edges,
            );
            let v = num_edges as f64;
            js * log_weight(v, deg_lo as f64) * log_weight(v, deg_hi as f64)
        }
        WeightingScheme::Arcs => arcs,
    }
}

/// Global aggregates a sweep pass may need before weighting.
pub(crate) struct WeightGlobals {
    /// Per-entity |B_i| (straight from the collection).
    pub(crate) blocks_of: Vec<u32>,
    /// |B|.
    pub(crate) num_blocks: usize,
    /// Per-entity degree |V_i|; empty unless a counting pass ran.
    pub(crate) degrees: Vec<u32>,
    /// |V| — number of distinct comparable pairs (0 unless counted).
    pub(crate) num_edges: usize,
    /// Entities with at least one neighbour (0 unless counted).
    pub(crate) active_nodes: usize,
}

impl WeightGlobals {
    /// The aggregates available without any counting pass: per-entity
    /// block counts and the total block count.
    pub(crate) fn basic(collection: &BlockCollection) -> Self {
        Self {
            blocks_of: blocks_of(collection),
            num_blocks: collection.len(),
            degrees: Vec::new(),
            num_edges: 0,
            active_nodes: 0,
        }
    }
}

/// The per-endpoint and global aggregates [`edge_weight`] reads. The
/// owned [`WeightGlobals`] tiers implement it, and so does every
/// [`BlockView`] directly — its block counts are the basic tier, which
/// is all CBS/JS/ECBS/ARCS and χ² read — so a delta-sweep over the live
/// incremental slabs borrows the maintained counts instead of collecting
/// a [`WeightGlobals::basic`] per batch. The incremental row cache adds
/// the counted tier from its own rows.
pub(crate) trait EdgeGlobals {
    /// |B_e|.
    fn blocks_of(&self, e: u32) -> u32;
    /// |B|.
    fn num_blocks(&self) -> usize;
    /// Degrees of `lo` and `hi`; `(0, 0)` unless a counting pass ran.
    #[inline]
    fn degrees_of(&self, _lo: u32, _hi: u32) -> (usize, usize) {
        (0, 0)
    }
    /// |V| (0 unless counted).
    #[inline]
    fn num_edges(&self) -> usize {
        0
    }
}

impl EdgeGlobals for WeightGlobals {
    #[inline]
    fn blocks_of(&self, e: u32) -> u32 {
        self.blocks_of[e as usize]
    }

    #[inline]
    fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    #[inline]
    fn degrees_of(&self, lo: u32, hi: u32) -> (usize, usize) {
        if self.degrees.is_empty() {
            (0, 0)
        } else {
            (
                self.degrees[lo as usize] as usize,
                self.degrees[hi as usize] as usize,
            )
        }
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }
}

impl<V: BlockView> EdgeGlobals for V {
    #[inline]
    fn blocks_of(&self, e: u32) -> u32 {
        self.entity_block_count(EntityId(e))
    }

    #[inline]
    fn num_blocks(&self) -> usize {
        BlockView::num_blocks(self)
    }
}

/// Per-entity |B_i| for the whole collection.
pub(crate) fn blocks_of(collection: &BlockCollection) -> Vec<u32> {
    (0..collection.num_entities() as u32)
        .map(|e| collection.entity_blocks(EntityId(e)).len() as u32)
        .collect()
}

/// Weight of the edge `(lo, hi)` — endpoints in normalised (smaller,
/// larger) order — from its shared-block count and ARCS sum. The single
/// kernel call site of every driver: a sweep, a query-time load and the
/// incremental row cache's re-weighing all weigh an edge here, in that
/// order, so bit-identity depends on this one body staying the only
/// place the order is decided.
pub(crate) fn edge_weight<G: EdgeGlobals>(
    scheme: WeightingScheme,
    cbs: u32,
    arcs: f64,
    lo: u32,
    hi: u32,
    globals: &G,
) -> f64 {
    debug_assert!(lo < hi);
    // Only EJS reads the degrees and |V|; the other schemes skip the
    // lookups.
    let (dlo, dhi, num_edges) = match scheme {
        WeightingScheme::Ejs => {
            let (dlo, dhi) = globals.degrees_of(lo, hi);
            (dlo, dhi, globals.num_edges())
        }
        _ => (0, 0, 0),
    };
    weight_from_stats(
        scheme,
        cbs,
        arcs,
        globals.blocks_of(lo),
        globals.blocks_of(hi),
        globals.num_blocks(),
        dlo,
        dhi,
        num_edges,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_matches_hand_computed_schemes() {
        // CBS=3, blocks 3/3 of 4 total.
        assert_eq!(
            weight_from_stats(WeightingScheme::Cbs, 3, 1.75, 3, 3, 4, 0, 0, 0),
            3.0
        );
        assert_eq!(
            weight_from_stats(WeightingScheme::Arcs, 3, 1.75, 3, 3, 4, 0, 0, 0),
            1.75
        );
        let js = weight_from_stats(WeightingScheme::Js, 3, 1.75, 3, 3, 4, 0, 0, 0);
        assert!((js - 1.0).abs() < 1e-12);
        let ecbs = weight_from_stats(WeightingScheme::Ecbs, 3, 1.75, 3, 3, 4, 0, 0, 0);
        let expected = 3.0 * (4.0f64 / 3.0).ln() * (4.0f64 / 3.0).ln();
        assert!((ecbs - expected).abs() < 1e-12);
        let ejs = weight_from_stats(WeightingScheme::Ejs, 3, 1.75, 3, 3, 4, 2, 2, 4);
        let expected = js * (4.0f64 / 2.0).ln() * (4.0f64 / 2.0).ln();
        assert!((ejs - expected).abs() < 1e-12);
    }

    #[test]
    fn js_guard_on_degenerate_denominator() {
        assert_eq!(
            weight_from_stats(WeightingScheme::Js, 0, 0.0, 0, 0, 4, 0, 0, 0),
            0.0
        );
    }
}
