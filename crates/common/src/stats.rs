//! Small numeric helpers shared by pruning and evaluation code.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// [`mean`] of values that are not laid out as an `f64` slice (a field
/// of each record, say): the same sequential sum and the same division,
/// so the same bits as collecting the values and calling [`mean`] —
/// without the copy.
#[inline]
pub fn mean_of(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    xs.sum::<f64>() / n as f64
}

/// `p`-th percentile (0..=100) by nearest-rank on a copy of the data.
/// Returns `0.0` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank]
}

/// Area under a monotone step curve given as `(x, y)` points, normalised by
/// the x-range so the result is the mean height over `[x0, x_last]`.
///
/// This is the standard summary of a progressive-recall curve: a method that
/// reaches high recall early has a larger normalised AUC. Points must be
/// sorted by `x`; the curve is treated as right-continuous steps (value `y_i`
/// holds on `[x_i, x_{i+1})`).
pub fn normalized_step_auc(points: &[(f64, f64)]) -> f64 {
    if points.len() < 2 {
        return points.first().map(|p| p.1).unwrap_or(0.0);
    }
    let x0 = points[0].0;
    let x1 = points[points.len() - 1].0;
    let span = x1 - x0;
    if span <= 0.0 {
        return points[points.len() - 1].1;
    }
    let mut area = 0.0;
    for w in points.windows(2) {
        debug_assert!(w[1].0 >= w[0].0, "points must be sorted by x");
        area += w[0].1 * (w[1].0 - w[0].0);
    }
    area / span
}

/// Harmonic mean of two non-negative values (the F-measure combinator).
pub fn harmonic_mean(a: f64, b: f64) -> f64 {
    if a + b == 0.0 {
        0.0
    } else {
        2.0 * a * b / (a + b)
    }
}

/// Deterministic fixed-shape pairwise (cascade) summation.
///
/// The reduction tree depends only on `xs.len()` — never on thread count
/// or chunking — so any two callers that assemble the same slice get the
/// same f64 down to the last bit. Streaming WEP relies on this: each
/// worker fills its slots of a per-entity partial-sum slab, and the final
/// reduction over that fixed-length slab is identical whether the slab was
/// produced by one thread or sixteen. Pairwise summation also carries the
/// usual `O(log n)` error bound, tighter than a running sum.
pub fn pairwise_sum(xs: &[f64]) -> f64 {
    if xs.len() <= 8 {
        let mut s = 0.0;
        for &x in xs {
            s += x;
        }
        return s;
    }
    let mid = xs.len() / 2;
    pairwise_sum(&xs[..mid]) + pairwise_sum(&xs[mid..])
}

/// Natural-log "information" weight `ln(total / part)`, clamped at 0 —
/// the shape used by ECBS/EJS meta-blocking weights. Returns 0 when either
/// argument is non-positive or `part > total`.
pub fn log_weight(total: f64, part: f64) -> f64 {
    if total <= 0.0 || part <= 0.0 {
        return 0.0;
    }
    (total / part).ln().max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        let pairs = [(7u32, 0.1f64), (9, 0.2), (11, 0.3)];
        let picked = mean_of(pairs.iter().map(|&(_, w)| w));
        assert_eq!(picked.to_bits(), mean(&[0.1, 0.2, 0.3]).to_bits());
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn auc_of_constant_curve_is_constant() {
        let pts = [(0.0, 0.5), (1.0, 0.5), (2.0, 0.5)];
        assert!((normalized_step_auc(&pts) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_rewards_early_rise() {
        let early = [(0.0, 0.0), (0.1, 1.0), (1.0, 1.0)];
        let late = [(0.0, 0.0), (0.9, 1.0), (1.0, 1.0)];
        assert!(normalized_step_auc(&early) > normalized_step_auc(&late));
    }

    #[test]
    fn auc_degenerate_inputs() {
        assert_eq!(normalized_step_auc(&[]), 0.0);
        assert_eq!(normalized_step_auc(&[(3.0, 0.7)]), 0.7);
        assert_eq!(normalized_step_auc(&[(1.0, 0.2), (1.0, 0.9)]), 0.9);
    }

    #[test]
    fn harmonic_mean_basics() {
        assert_eq!(harmonic_mean(0.0, 0.0), 0.0);
        assert!((harmonic_mean(1.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((harmonic_mean(0.5, 1.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pairwise_sum_matches_naive_on_exact_inputs() {
        assert_eq!(pairwise_sum(&[]), 0.0);
        assert_eq!(pairwise_sum(&[1.5]), 1.5);
        // Sums of small integers are exact in f64, so pairwise == naive.
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(pairwise_sum(&xs), 5050.0);
    }

    #[test]
    fn pairwise_sum_shape_depends_only_on_length() {
        // Splitting the slice at arbitrary points and reducing the parts
        // separately is NOT the defined order — but calling the function
        // twice on equal content must agree bitwise.
        let xs: Vec<f64> = (0..1000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let a = pairwise_sum(&xs);
        let b = pairwise_sum(&xs.clone());
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn log_weight_clamps() {
        assert_eq!(log_weight(10.0, 0.0), 0.0);
        assert_eq!(log_weight(0.0, 1.0), 0.0);
        assert_eq!(log_weight(5.0, 10.0), 0.0, "part > total clamps to 0");
        assert!((log_weight(100.0, 10.0) - (10.0f64).ln()).abs() < 1e-12);
    }
}
