//! Cluster-level evaluation metrics.
//!
//! Pairwise precision/recall treats a 10-description cluster error the
//! same as 45 independent pair errors, which over-penalises big entities.
//! The clustering-evaluation literature therefore also reports:
//!
//! * **B-cubed precision/recall/F1** (Bagga & Baldwin) — per-description
//!   averages of "how pure is my cluster" / "how complete is my cluster".
//! * **Variation of information** (Meilă) — an information-theoretic
//!   distance between partitions (0 = identical), in nats.
//! * **Pairwise precision/recall/F1** — the classic pair counts, included
//!   so all three families print side by side.
//!
//! Inputs are partitions over the same universe `n`: predicted clusters
//! (non-singletons suffice; missing descriptions count as singletons) and
//! the ground-truth clusters from [`minoan_datagen::GroundTruth`].

use minoan_common::FxHashMap;

/// Dense cluster assignment: `assign[i]` = cluster id of description `i`.
/// Clusters are the given groups; anything not mentioned becomes its own
/// singleton.
pub fn assignment(n: usize, clusters: &[Vec<u32>]) -> Vec<u32> {
    let mut assign: Vec<u32> = vec![u32::MAX; n];
    for (cid, members) in clusters.iter().enumerate() {
        for &m in members {
            assert!(
                (m as usize) < n,
                "cluster member {m} outside universe of size {n}"
            );
            assert!(
                assign[m as usize] == u32::MAX,
                "description {m} in two clusters"
            );
            assign[m as usize] = cid as u32;
        }
    }
    let mut next = clusters.len() as u32;
    for slot in assign.iter_mut() {
        if *slot == u32::MAX {
            *slot = next;
            next += 1;
        }
    }
    assign
}

/// A precision/recall/F1 triple.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prf {
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
    /// Harmonic mean.
    pub f1: f64,
}

impl Prf {
    fn new(precision: f64, recall: f64) -> Self {
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Self {
            precision,
            recall,
            f1,
        }
    }
}

/// All cluster metrics of one predicted partition against the truth.
#[derive(Clone, Copy, Debug)]
pub struct ClusterQuality {
    /// Pairwise precision/recall/F1.
    pub pairwise: Prf,
    /// B-cubed precision/recall/F1.
    pub bcubed: Prf,
    /// Variation of information, in nats (lower is better, 0 = identical).
    pub vi: f64,
}

/// Computes all metrics. `n` is the universe size; both partitions are
/// completed with singletons.
pub fn cluster_quality(n: usize, predicted: &[Vec<u32>], truth: &[Vec<u32>]) -> ClusterQuality {
    let pa = assignment(n, predicted);
    let ta = assignment(n, truth);
    ClusterQuality {
        pairwise: pairwise(&pa, &ta),
        bcubed: bcubed(&pa, &ta),
        vi: variation_of_information(&pa, &ta),
    }
}

fn cluster_sizes(assign: &[u32]) -> FxHashMap<u32, u64> {
    let mut sizes: FxHashMap<u32, u64> = FxHashMap::default();
    for &c in assign {
        *sizes.entry(c).or_insert(0) += 1;
    }
    sizes
}

/// Joint contingency counts `|P_i ∩ T_j|`.
fn contingency(pa: &[u32], ta: &[u32]) -> FxHashMap<(u32, u32), u64> {
    let mut joint: FxHashMap<(u32, u32), u64> = FxHashMap::default();
    for (&p, &t) in pa.iter().zip(ta) {
        *joint.entry((p, t)).or_insert(0) += 1;
    }
    joint
}

/// Pairwise P/R/F1 from the contingency table (pairs within clusters).
pub fn pairwise(pa: &[u32], ta: &[u32]) -> Prf {
    assert_eq!(pa.len(), ta.len(), "partitions over different universes");
    let c2 = |x: u64| x * x.saturating_sub(1) / 2;
    #[expect(clippy::disallowed_methods, reason = "an integer sum is order-free")]
    let predicted_pairs: u64 = cluster_sizes(pa).values().map(|&s| c2(s)).sum();
    #[expect(clippy::disallowed_methods, reason = "an integer sum is order-free")]
    let truth_pairs: u64 = cluster_sizes(ta).values().map(|&s| c2(s)).sum();
    #[expect(clippy::disallowed_methods, reason = "an integer sum is order-free")]
    let common_pairs: u64 = contingency(pa, ta).values().map(|&s| c2(s)).sum();
    let p = if predicted_pairs == 0 {
        1.0
    } else {
        common_pairs as f64 / predicted_pairs as f64
    };
    let r = if truth_pairs == 0 {
        1.0
    } else {
        common_pairs as f64 / truth_pairs as f64
    };
    Prf::new(p, r)
}

/// B-cubed P/R/F1.
pub fn bcubed(pa: &[u32], ta: &[u32]) -> Prf {
    assert_eq!(pa.len(), ta.len(), "partitions over different universes");
    let n = pa.len();
    if n == 0 {
        return Prf::new(1.0, 1.0);
    }
    let p_sizes = cluster_sizes(pa);
    let t_sizes = cluster_sizes(ta);
    let joint = contingency(pa, ta);
    // For each description i: precision_i = |P(i) ∩ T(i)| / |P(i)|,
    // recall_i = |P(i) ∩ T(i)| / |T(i)|. Summing per joint cell:
    // Σ_i precision_i = Σ_cells |cell|² / |P|.
    #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
    let mut cells: Vec<((u32, u32), u64)> = joint.iter().map(|(&k, &c)| (k, c)).collect();
    cells.sort_unstable_by_key(|&(k, _)| k);
    let mut psum = 0.0f64;
    let mut rsum = 0.0f64;
    for ((p, t), c) in cells {
        let c = c as f64;
        psum += c * c / p_sizes[&p] as f64;
        rsum += c * c / t_sizes[&t] as f64;
    }
    Prf::new(psum / n as f64, rsum / n as f64)
}

/// Variation of information `VI = H(P) + H(T) − 2·I(P; T)`, in nats.
///
/// Each entropy and the mutual information is a sum over hash-map cells;
/// `sorted_sum` adds each set of terms in one fixed order, so the bits
/// depend only on the partitions, not on their argument order or their
/// cluster ids.
pub fn variation_of_information(pa: &[u32], ta: &[u32]) -> f64 {
    assert_eq!(pa.len(), ta.len(), "partitions over different universes");
    let n = pa.len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let p_sizes = cluster_sizes(pa);
    let t_sizes = cluster_sizes(ta);
    let entropy = |sizes: &FxHashMap<u32, u64>| -> f64 {
        #[expect(clippy::disallowed_methods, reason = "`sorted_sum` orders the terms")]
        let terms = sizes.values().map(|&s| {
            let p = s as f64 / n;
            -p * p.ln()
        });
        sorted_sum(terms.collect())
    };
    let hp = entropy(&p_sizes);
    let ht = entropy(&t_sizes);
    let joint = contingency(pa, ta);
    #[expect(clippy::disallowed_methods, reason = "`sorted_sum` orders the terms")]
    let mi_terms = joint.iter().map(|(&(p, t), &c)| {
        let pxy = c as f64 / n;
        let px = p_sizes[&p] as f64 / n;
        let py = t_sizes[&t] as f64 / n;
        pxy * (pxy / (px * py)).ln()
    });
    let mi = sorted_sum(mi_terms.collect());
    (hp + ht - 2.0 * mi).max(0.0)
}

/// The sum of `terms` in `f64::total_cmp` order: a function of the
/// multiset of terms alone.
fn sorted_sum(mut terms: Vec<f64>) -> f64 {
    terms.sort_unstable_by(f64::total_cmp);
    terms.into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: usize, predicted: &[Vec<u32>], truth: &[Vec<u32>]) -> ClusterQuality {
        cluster_quality(n, predicted, truth)
    }

    #[test]
    fn identical_partitions_are_perfect() {
        let truth = vec![vec![0, 1, 2], vec![3, 4]];
        let m = q(6, &truth, &truth);
        assert_eq!(m.pairwise.f1, 1.0);
        assert!((m.bcubed.f1 - 1.0).abs() < 1e-12);
        assert!(m.vi < 1e-12);
    }

    #[test]
    fn all_singletons_vs_clusters() {
        let truth = vec![vec![0, 1], vec![2, 3]];
        let m = q(4, &[], &truth);
        // No predicted pairs → pairwise precision defined as 1, recall 0.
        assert_eq!(m.pairwise.precision, 1.0);
        assert_eq!(m.pairwise.recall, 0.0);
        // B-cubed: precision 1 (each singleton pure), recall 0.5.
        assert!((m.bcubed.precision - 1.0).abs() < 1e-12);
        assert!((m.bcubed.recall - 0.5).abs() < 1e-12);
        assert!(m.vi > 0.0);
    }

    #[test]
    fn one_big_cluster_has_perfect_recall_poor_precision() {
        let truth = vec![vec![0, 1], vec![2, 3]];
        let predicted = vec![vec![0, 1, 2, 3]];
        let m = q(4, &predicted, &truth);
        assert_eq!(m.pairwise.recall, 1.0);
        assert!((m.pairwise.precision - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(m.bcubed.recall, 1.0);
        assert!((m.bcubed.precision - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bcubed_is_gentler_than_pairwise_on_big_cluster_errors() {
        // Truth: one 6-cluster + singletons; predicted splits it 3/3.
        let truth = vec![vec![0, 1, 2, 3, 4, 5]];
        let predicted = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let m = q(6, &predicted, &truth);
        // pairwise recall = 6/15 = 0.4; b-cubed recall = 0.5.
        assert!((m.pairwise.recall - 0.4).abs() < 1e-12);
        assert!((m.bcubed.recall - 0.5).abs() < 1e-12);
        assert!(m.bcubed.recall > m.pairwise.recall);
    }

    #[test]
    fn vi_is_symmetric() {
        let a = vec![vec![0, 1, 2], vec![3, 4]];
        let b = vec![vec![0, 1], vec![2, 3, 4]];
        let pa = assignment(5, &a);
        let pb = assignment(5, &b);
        let v1 = variation_of_information(&pa, &pb);
        let v2 = variation_of_information(&pb, &pa);
        assert_eq!(v1.to_bits(), v2.to_bits());
        assert!(v1 > 0.0);
    }

    /// VI is a function of the two partitions: swapping the arguments or
    /// renumbering the cluster ids must not move a bit.
    #[test]
    fn vi_bits_ignore_argument_order_and_cluster_ids() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for round in 0..200 {
            let n = rng.gen_range(2..60usize);
            let k = rng.gen_range(1..=n as u32);
            let pa: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k)).collect();
            let ta: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k)).collect();
            let vi = variation_of_information(&pa, &ta).to_bits();
            assert_eq!(
                variation_of_information(&ta, &pa).to_bits(),
                vi,
                "round {round}: swapped arguments"
            );
            // A bijective relabelling of both partitions' cluster ids.
            let salt = rng.gen_range(0..u32::MAX);
            let renumber = |a: &[u32]| -> Vec<u32> {
                a.iter()
                    .map(|&c| c.wrapping_mul(0x9e37_79b1) ^ salt)
                    .collect()
            };
            assert_eq!(
                variation_of_information(&renumber(&pa), &renumber(&ta)).to_bits(),
                vi,
                "round {round}: renumbered cluster ids"
            );
        }
    }

    #[test]
    fn vi_upper_bound_is_log_n() {
        // Maximally different: all-singletons vs one cluster of n.
        let n = 16usize;
        let one: Vec<Vec<u32>> = vec![(0..n as u32).collect()];
        let m = q(n, &[], &one);
        assert!(m.vi <= (n as f64).ln() + 1e-9);
        assert!(
            (m.vi - (n as f64).ln()).abs() < 1e-9,
            "VI should hit ln n here"
        );
    }

    #[test]
    #[should_panic(expected = "two clusters")]
    fn overlapping_clusters_rejected() {
        assignment(4, &[vec![0, 1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_rejected() {
        assignment(2, &[vec![0, 5]]);
    }

    #[test]
    fn empty_universe() {
        let m = q(0, &[], &[]);
        assert_eq!(m.bcubed.f1, 1.0);
        assert_eq!(m.vi, 0.0);
    }
}
