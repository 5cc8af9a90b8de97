//! Static quality metrics against the ground truth.

use minoan_datagen::GroundTruth;
use minoan_rdf::{Dataset, EntityId, KbId};

/// Quality of a blocking / meta-blocking candidate set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockingQuality {
    /// Pair completeness: fraction of ground-truth pairs present among the
    /// candidates (the blocking recall).
    pub pc: f64,
    /// Pairs quality: fraction of candidates that are true matches (the
    /// blocking precision).
    pub pq: f64,
    /// Reduction ratio vs the brute-force comparison space.
    pub rr: f64,
    /// Number of (distinct) candidate comparisons.
    pub comparisons: u64,
    /// Brute-force comparison count the RR is relative to.
    pub brute_force: u64,
}

/// Brute-force comparison count of a dataset: all cross-KB pairs for
/// clean–clean data (`kb_count > 1`), otherwise all pairs.
pub fn brute_force_comparisons(dataset: &Dataset) -> u64 {
    if dataset.kb_count() > 1 {
        let sizes: Vec<u64> = (0..dataset.kb_count())
            .map(|k| dataset.entities_of_kb(KbId(k as u16)).len() as u64)
            .collect();
        let total: u64 = sizes.iter().sum();
        // Σ_{i<j} n_i·n_j = (total² − Σ n_i²) / 2
        (total * total - sizes.iter().map(|s| s * s).sum::<u64>()) / 2
    } else {
        let n = dataset.len() as u64;
        n * n.saturating_sub(1) / 2
    }
}

/// Evaluates a candidate pair set against the truth.
///
/// `candidates` must be distinct normalised pairs (`a < b`); duplicates
/// would be double-counted.
pub fn blocking_quality(
    dataset: &Dataset,
    truth: &GroundTruth,
    candidates: &[(EntityId, EntityId)],
) -> BlockingQuality {
    let brute = brute_force_comparisons(dataset);
    let found = candidates
        .iter()
        .filter(|&&(a, b)| truth.is_match(a, b))
        .count() as u64;
    let total_truth = truth.matching_pairs();
    let comparisons = candidates.len() as u64;
    BlockingQuality {
        pc: if total_truth == 0 {
            0.0
        } else {
            found as f64 / total_truth as f64
        },
        pq: if comparisons == 0 {
            0.0
        } else {
            found as f64 / comparisons as f64
        },
        rr: if brute == 0 {
            0.0
        } else {
            1.0 - comparisons as f64 / brute as f64
        },
        comparisons,
        brute_force: brute,
    }
}

/// Quality of a final match set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatchQuality {
    /// Fraction of emitted matches that are correct.
    pub precision: f64,
    /// Fraction of ground-truth pairs emitted.
    pub recall: f64,
    /// Harmonic mean of the two.
    pub f1: f64,
    /// True positives.
    pub tp: u64,
    /// Emitted matches.
    pub emitted: u64,
}

/// Evaluates emitted matches against the truth.
pub fn match_quality(truth: &GroundTruth, matches: &[(EntityId, EntityId)]) -> MatchQuality {
    let tp = matches
        .iter()
        .filter(|&&(a, b)| truth.is_match(a, b))
        .count() as u64;
    let emitted = matches.len() as u64;
    let precision = if emitted == 0 {
        0.0
    } else {
        tp as f64 / emitted as f64
    };
    let recall = if truth.matching_pairs() == 0 {
        0.0
    } else {
        tp as f64 / truth.matching_pairs() as f64
    };
    MatchQuality {
        precision,
        recall,
        f1: minoan_common::stats::harmonic_mean(precision, recall),
        tp,
        emitted,
    }
}

/// Convenience: evaluates a [`minoan_er::Resolution`]'s matches.
pub fn resolution_quality(truth: &GroundTruth, resolution: &minoan_er::Resolution) -> MatchQuality {
    let pairs: Vec<(EntityId, EntityId)> =
        resolution.matches.iter().map(|&(a, b, _)| (a, b)).collect();
    match_quality(truth, &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_datagen::{generate, profiles};

    #[test]
    fn brute_force_counts() {
        let g = generate(&profiles::center_dense(60, 1));
        let bf = brute_force_comparisons(&g.dataset);
        let n0 = g.dataset.entities_of_kb(KbId(0)).len() as u64;
        let n1 = g.dataset.entities_of_kb(KbId(1)).len() as u64;
        assert_eq!(bf, n0 * n1);
        let d = generate(&profiles::dirty_single(30, 1));
        let n = d.dataset.len() as u64;
        assert_eq!(brute_force_comparisons(&d.dataset), n * (n - 1) / 2);
    }

    #[test]
    fn perfect_candidates_score_perfectly() {
        let g = generate(&profiles::center_dense(50, 2));
        let candidates: Vec<_> = g.truth.matching_pair_iter().collect();
        let q = blocking_quality(&g.dataset, &g.truth, &candidates);
        assert_eq!(q.pc, 1.0);
        assert_eq!(q.pq, 1.0);
        assert!(q.rr > 0.9);
    }

    #[test]
    fn empty_candidates_score_zero_pc() {
        let g = generate(&profiles::center_dense(50, 3));
        let q = blocking_quality(&g.dataset, &g.truth, &[]);
        assert_eq!(q.pc, 0.0);
        assert_eq!(q.pq, 0.0);
        assert_eq!(q.rr, 1.0);
    }

    #[test]
    fn match_quality_mixed() {
        let g = generate(&profiles::center_dense(50, 4));
        let mut pairs: Vec<_> = g.truth.matching_pair_iter().take(10).collect();
        let total = g.truth.matching_pairs();
        // Add two false pairs (same KB entities can never match).
        let kb0 = g.dataset.entities_of_kb(KbId(0));
        pairs.push((kb0[0], kb0[1]));
        pairs.push((kb0[2], kb0[3]));
        let q = match_quality(&g.truth, &pairs);
        assert_eq!(q.tp, 10);
        assert_eq!(q.emitted, 12);
        assert!((q.precision - 10.0 / 12.0).abs() < 1e-12);
        assert!((q.recall - 10.0 / total as f64).abs() < 1e-12);
        assert!(q.f1 > 0.0 && q.f1 < 1.0);
    }

    #[test]
    fn empty_matches_are_zero() {
        let g = generate(&profiles::center_dense(30, 5));
        let q = match_quality(&g.truth, &[]);
        assert_eq!((q.precision, q.recall, q.f1), (0.0, 0.0, 0.0));
    }
}
