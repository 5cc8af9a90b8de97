//! BLAST-style meta-blocking: χ² weighting with loose per-node pruning.
//!
//! BLAST (Simonini, Bergamaschi & Jagadish, PVLDB 2016) replaces the
//! co-occurrence-count weights with the **Pearson χ² test statistic** of
//! the independence hypothesis "entity `i` appearing in a block is
//! independent of entity `j` appearing in it": high χ² means the two
//! entities co-occur far more often than chance, i.e. strong match
//! evidence. Pruning is *loose* node-centric: each node keeps edges whose
//! weight is at least a `ratio` of its local **maximum** (not mean), and an
//! edge survives if **either** endpoint keeps it.
//!
//! With the 2×2 contingency table over the `|B|` blocks
//!
//! ```text
//!            j ∈ b     j ∉ b
//! i ∈ b      n11=CBS   n12=|B_i|−CBS
//! i ∉ b      n21=|B_j|−CBS   n22=|B|−|B_i|−|B_j|+CBS
//! ```
//!
//! χ² = |B| · (n11·n22 − n12·n21)² / (r1·r2·c1·c2), zero when any marginal
//! is empty.

/// Default keep ratio of the loose pruning (BLAST's recommended 0.35…0.5
/// range; JedAI defaults to 0.5 of the *sum of the two node maxima* — here
/// we keep the simpler per-node-max formulation and default to 0.35).
pub const DEFAULT_RATIO: f64 = 0.35;

/// Pearson χ² of one edge from its statistics: `common_blocks` = |B_ab|,
/// `blocks_a`/`blocks_b` = |B_a|/|B_b|, `num_blocks` = |B|.
pub fn chi_square_from_stats(
    common_blocks: u32,
    blocks_a: u32,
    blocks_b: u32,
    num_blocks: usize,
) -> f64 {
    let total = num_blocks as f64;
    if total <= 0.0 {
        return 0.0;
    }
    let n11 = common_blocks as f64;
    let bi = blocks_a as f64;
    let bj = blocks_b as f64;
    let n12 = bi - n11;
    let n21 = bj - n11;
    let n22 = total - bi - bj + n11;
    let r1 = n11 + n12;
    let r2 = n21 + n22;
    let c1 = n11 + n21;
    let c2 = n12 + n22;
    let denom = r1 * r2 * c1 * c2;
    if denom <= 0.0 {
        return 0.0;
    }
    let d = n11 * n22 - n12 * n21;
    (total * d * d / denom).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PrunedComparisons, Pruning, Session};
    use minoan_blocking::{BlockCollection, ErMode};
    use minoan_rdf::{DatasetBuilder, EntityId};

    /// Entities 0,1 in KB a; 2,3 in KB b. (0,2) co-occur in most blocks,
    /// (1,3) only in the big catch-all block.
    fn collection() -> BlockCollection {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        for i in 0..2 {
            b.add_literal(k0, &format!("http://a/{i}"), "http://p", "x");
        }
        for i in 2..4 {
            b.add_literal(k1, &format!("http://b/{i}"), "http://p", "x");
        }
        let ds = b.build();
        let e = EntityId;
        let groups = vec![
            ("k0".to_string(), vec![e(1), e(3)]),
            ("k1".to_string(), vec![e(0), e(2)]),
            ("k2".to_string(), vec![e(0), e(2)]),
            ("k3".to_string(), vec![e(0), e(2), e(3)]),
            ("k4".to_string(), vec![e(0), e(1), e(2), e(3)]),
            ("k5".to_string(), vec![e(1), e(2)]),
        ];
        BlockCollection::from_groups(&ds, ErMode::CleanClean, groups)
    }

    fn blast(c: &BlockCollection, ratio: f64) -> PrunedComparisons {
        Session::new(c)
            .pruning(Pruning::Blast { ratio })
            .run()
            .pruned
    }

    #[test]
    fn chi_square_rewards_systematic_cooccurrence() {
        // Six blocks: (0,2) share 4 of their 4 and 5; (1,3) share 2 of
        // their 3 and 3.
        let strong = chi_square_from_stats(4, 4, 5, 6);
        let weak = chi_square_from_stats(2, 3, 3, 6);
        assert!(
            strong > weak,
            "systematic co-occurrence should outweigh catch-all: {strong} vs {weak}"
        );
    }

    #[test]
    fn chi_square_is_finite_and_nonnegative() {
        for (cbs, a, b, n) in [(1, 1, 1, 1), (1, 3, 2, 6), (2, 2, 5, 6), (0, 0, 0, 0)] {
            let w = chi_square_from_stats(cbs, a, b, n);
            assert!(w.is_finite() && w >= 0.0, "{cbs}/{a}/{b}/{n}: {w}");
        }
    }

    #[test]
    fn blast_keeps_local_maxima() {
        let c = collection();
        // At ratio 1 an edge survives iff it is an endpoint's strongest
        // (χ² ≥ 0 everywhere, so each endpoint's maximum is its
        // strongest edge).
        let all = blast(&c, f64::MIN_POSITIVE);
        let pruned = blast(&c, 1.0);
        for p in &all.pairs {
            let is_max_somewhere = [p.a, p.b].iter().any(|&n| {
                all.pairs
                    .iter()
                    .filter(|q| q.a == n || q.b == n)
                    .all(|q| q.weight <= p.weight)
            });
            let kept = pruned.pairs.iter().any(|q| (q.a, q.b) == (p.a, p.b));
            assert_eq!(kept, is_max_somewhere, "({:?},{:?})", p.a, p.b);
        }
    }

    #[test]
    fn lower_ratio_keeps_more() {
        let c = collection();
        let strict = blast(&c, 1.0);
        let loose = blast(&c, 0.1);
        assert!(loose.pairs.len() >= strict.pairs.len());
        assert!(loose.pairs.len() <= loose.input_edges);
    }

    #[test]
    fn output_is_sorted_descending() {
        let pruned = blast(&collection(), DEFAULT_RATIO);
        assert!(pruned.pairs.windows(2).all(|w| w[0].weight >= w[1].weight));
        assert_eq!(pruned.input_edges, 4);
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn bad_ratio_rejected() {
        blast(&collection(), 0.0);
    }

    #[test]
    fn zero_weight_edges_are_dropped() {
        // One block holding everything: |B| = B_i = B_j = CBS = 1, so the
        // n22 row and column are empty and the χ² is exactly zero.
        assert_eq!(chi_square_from_stats(1, 1, 1, 1), 0.0);
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        b.add_literal(k0, "http://a/0", "http://p", "x");
        b.add_literal(k1, "http://b/1", "http://p", "x");
        let ds = b.build();
        let groups = vec![("k".to_string(), vec![EntityId(0), EntityId(1)])];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        assert!(blast(&c, 0.5).pairs.is_empty());
    }
}
