//! The harness's own arithmetic: medians, quartiles, the "ten samples
//! beyond" percentile rule, segment-median throughput, a seeded RNG and
//! the match-list digest. Everything here is unit-tested below, because a
//! wrong percentile is a wrong benchmark.

/// Ascending copy of `xs`. NaNs never occur (every sample is a duration or
/// a count), so `total_cmp` is only there to avoid a panic path.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an ascending slice.
///
/// # Panics
/// Panics on an empty slice: a metric without samples is a harness bug.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// `(q1, median, q3)` of `xs`.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    (
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    )
}

/// The percentiles a latency may be reported at, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Nearest rank of percentile `p` among `n` samples: the 1-based position
/// of the smallest sample with at least `p` percent of the samples at or
/// below it. Integer arithmetic in hundredths of a percent, so that p90 of
/// 100 samples is rank 90 and not, by a rounding error, 91.
fn nearest_rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (n * hundredths).div_ceil(10_000).clamp(1, n.max(1))
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond
/// it — the rule under which a tail may be reported at all.
pub fn has_ten_beyond(n: usize, p: f64) -> bool {
    n >= nearest_rank(n, p) + 10
}

/// The highest ladder percentile, at most `wanted`, that still has ten
/// samples beyond it; the median when even p90 has not.
pub fn admissible_percentile(n: usize, wanted: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted && has_ten_beyond(n, p))
        .fold(50.0, f64::max)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// `(percentile used, value)`: the tail of `sorted` at `wanted`, lowered to
/// the highest percentile the ten-beyond rule admits for this sample size.
pub fn tail(sorted: &[f64], wanted: f64) -> (f64, f64) {
    let p = admissible_percentile(sorted.len(), wanted);
    (p, percentile_sorted(sorted, p))
}

/// The quartile of per-segment values on the favourable side: the lower
/// quartile of a time, the upper quartile of a rate — the median of the
/// better half of the segments.
///
/// On a shared host interference only ever *adds* time: a neighbour's
/// burst slows some segments and speeds none up. The median over segments
/// moves with how much of the run the burst covered; the favourable
/// quartile stays put until more than three quarters of the run is
/// disturbed, and it is still an observed, typical segment, not a best
/// case. A real regression slows every segment and moves it just the same.
pub fn steady_quartile(per_segment: &[f64], lower_is_better: bool) -> f64 {
    let q = if lower_is_better { 0.25 } else { 0.75 };
    quantile_sorted(&sorted(per_segment), q)
}

/// `requests ÷ wall seconds` of each segment. A segment is a fixed request
/// count, so one descheduled segment moves one sample.
pub fn segment_rates(requests_per_segment: u64, segment_walls_s: &[f64]) -> Vec<f64> {
    segment_walls_s
        .iter()
        .map(|&w| requests_per_segment as f64 / w)
        .collect()
}

/// SplitMix64 — the harness's only randomness (arrival order, uniform
/// query choice), so a seed fixes every generated input without the
/// harness linking the workspace's `rand` shim.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose whole stream is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻³² for any
    /// corpus this harness generates.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over the *sorted* lines, newline-joined: the identity of a
/// printed match list regardless of print order.
pub fn digest_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut lines: Vec<&str> = lines.into_iter().collect();
    lines.sort_unstable();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn ten_beyond_rule_picks_the_reportable_tail() {
        // 1000 samples: exactly ten lie beyond p99, one beyond p99.9.
        assert!(has_ten_beyond(1000, 99.0));
        assert!(!has_ten_beyond(1000, 99.9));
        assert_eq!(admissible_percentile(1000, 99.9), 99.0);
        assert_eq!(admissible_percentile(999, 99.0), 90.0);
        assert_eq!(admissible_percentile(100_000, 99.0), 99.0);
        // 75 ingest samples: not even p90 (7.5 beyond) is reportable.
        assert_eq!(admissible_percentile(75, 99.0), 50.0);
        assert_eq!(admissible_percentile(100, 99.0), 90.0);
    }

    #[test]
    fn nearest_rank_percentile_returns_an_observed_sample() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 99.0), 990.0);
        assert_eq!(percentile_sorted(&s, 50.0), 500.0);
        assert_eq!(percentile_sorted(&s, 100.0), 1000.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        let (p, v) = tail(&s, 99.9);
        assert_eq!((p, v), (99.0, 990.0));
    }

    #[test]
    fn segment_rate_ignores_descheduled_segments() {
        // Five segments at 1000 req/s, three that lost their core for a
        // while: the rate over the whole run would read 8000 / 29 ≈ 276 and
        // the median 750; the steady quartile still reads the program.
        let walls = [1.0, 1.0, 10.0, 1.0, 4.0, 1.0, 10.0, 1.0];
        let rates = segment_rates(1000, &walls);
        assert_eq!(rates[2], 100.0);
        assert_eq!(median(&rates), 1000.0);
        assert_eq!(steady_quartile(&rates, false), 1000.0);
        let walls = [1.0, 2.0, 10.0, 1.0, 4.0, 2.0, 10.0, 1.0];
        let rates = segment_rates(1000, &walls);
        assert_eq!(median(&rates), 500.0);
        assert_eq!(steady_quartile(&rates, false), 1000.0);
        // For a time, the favourable side is the lower one; a slowdown of
        // every segment moves it like any other statistic.
        assert_eq!(steady_quartile(&[4.0, 1.0, 2.0, 3.0, 5.0], true), 2.0);
        assert_eq!(steady_quartile(&[8.0, 2.0, 4.0, 6.0, 10.0], true), 4.0);
    }

    #[test]
    fn digest_is_order_free_and_content_sensitive() {
        let a = digest_lines(["x ≡ y", "a ≡ b", "m ≡ n"]);
        let b = digest_lines(["m ≡ n", "x ≡ y", "a ≡ b"]);
        assert_eq!(a, b, "print order must not matter");
        assert_ne!(a, digest_lines(["x ≡ y", "a ≡ b"]), "a lost match shows");
        assert_ne!(a, digest_lines(["x ≡ y", "a ≡ b", "m ≡ o"]));
        // Line boundaries are part of the content.
        assert_ne!(digest_lines(["ab", "c"]), digest_lines(["a", "bc"]));
    }

    #[test]
    fn splitmix_is_a_function_of_its_seed() {
        let mut a = SplitMix64::new(11);
        let mut b = SplitMix64::new(11);
        let mut c = SplitMix64::new(12);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        let mut perm: Vec<u32> = (0..100).collect();
        SplitMix64::new(3).shuffle(&mut perm);
        let mut back = perm.clone();
        back.sort_unstable();
        assert_eq!(back, (0..100).collect::<Vec<u32>>());
        assert_ne!(perm, back, "a 100-element shuffle moves something");
    }
}
