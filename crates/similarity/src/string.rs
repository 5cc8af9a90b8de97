//! Character-level string similarity.
//!
//! Used on name-like attribute values ("Mikis Theodorakis" vs
//! "M. Theodorakis") where token overlap is too coarse. All functions are
//! Unicode-aware (operate on `char`s) and return values in `[0, 1]`.
//!
//! # The Jaro kernel
//!
//! Jaro's greedy assignment gives each `a[i]`, in order, the first
//! still-unused equal `b[j]` inside a window around `i`. For two strings of
//! at most 64 characters — the names a comparison loop scores — that inner
//! search is bit-parallel: the positions of every character of `b` are
//! `u64` sets (a 128-entry ASCII table in [`JaroScratch`], a scan of `b`
//! for the rare non-ASCII character), the window and the used positions are
//! sets too, and "first unused equal position in the window" is the lowest
//! set bit of their intersection. Longer inputs run the defining loop.
//!
//! The two are bit-identical, not merely close: lowest-set-bit picks
//! exactly the `j` the loop would stop at, so both build the same
//! assignment, hence the same match and transposition *counts*; and both
//! hand those integers to one shared floating-point expression. Which
//! kernel runs depends on the input lengths alone, and the unit tests hold
//! the pair to `f64::to_bits` equality across the 64-character switch.

/// Longest input, in `char`s, the bit-parallel Jaro kernel takes: one
/// `u64` holds a position set of either string.
const BIT_PARALLEL_MAX: usize = 64;

/// Reusable working memory for [`jaro_winkler_chars`]: one instance per
/// comparison loop. Between calls `ascii` is all zero; the vectors grow to
/// the longest string the scalar path has seen.
pub struct JaroScratch {
    /// Bit-parallel path: for each ASCII character, the set of positions
    /// of `b` holding it. Set at the start of a call, un-set at its end.
    ascii: [u64; 128],
    /// Scalar path: which positions of `b` are already matched.
    b_used: Vec<bool>,
    /// Scalar path: the matched characters of `a`, in `a`'s order.
    matches_a: Vec<char>,
}

impl Default for JaroScratch {
    fn default() -> Self {
        Self {
            ascii: [0; 128],
            b_used: Vec::new(),
            matches_a: Vec::new(),
        }
    }
}

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_chars(&a, &b, &mut JaroScratch::default())
}

/// Jaro similarity over `char` slices. Inputs of at most
/// [`BIT_PARALLEL_MAX`] characters — every name this workspace compares —
/// take the bit-parallel kernel, longer ones the scalar loop; the two make
/// the same greedy assignment and [`jaro_with`] turns either's counts into
/// the similarity, so the result has the same bits whichever runs.
fn jaro_chars(a: &[char], b: &[char], scratch: &mut JaroScratch) -> f64 {
    if a.len().max(b.len()) <= BIT_PARALLEL_MAX {
        jaro_with(a, b, scratch, matches_bit_parallel)
    } else {
        jaro_with(a, b, scratch, matches_scalar)
    }
}

/// Jaro similarity from the `(matches, transpositions)` that `kernel`
/// counts on two non-empty strings.
fn jaro_with(
    a: &[char],
    b: &[char],
    scratch: &mut JaroScratch,
    kernel: impl Fn(&[char], &[char], &mut JaroScratch) -> (usize, usize),
) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (m, transpositions) = kernel(a, b, scratch);
    if m == 0 {
        return 0.0;
    }
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Half-width of the Jaro matching window.
fn jaro_window(a: &[char], b: &[char]) -> usize {
    (a.len().max(b.len()) / 2).saturating_sub(1)
}

/// The `n` lowest bits set, `n ≤ 64`.
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// Matches and transpositions of Jaro's greedy assignment, the defining
/// loop: each `a[i]` takes the first unused equal `b[j]` in its window.
fn matches_scalar(a: &[char], b: &[char], scratch: &mut JaroScratch) -> (usize, usize) {
    let JaroScratch {
        b_used, matches_a, ..
    } = scratch;
    b_used.clear();
    b_used.resize(b.len(), false);
    matches_a.clear();
    let window = jaro_window(a, b);
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                matches_a.push(ca);
                break;
            }
        }
    }
    let matches_b = b.iter().zip(b_used.iter()).filter(|(_, &u)| u);
    let transpositions = matches_a
        .iter()
        .zip(matches_b)
        .filter(|(x, (y, _))| x != y)
        .count()
        / 2;
    (matches_a.len(), transpositions)
}

/// [`matches_scalar`] for two strings of at most 64 characters, with the
/// inner loop over `j` replaced by bit operations. `ascii[c]` becomes the
/// set of positions of `b` holding `c` (a non-ASCII `a[i]` scans `b`
/// instead); the first unused equal `b[j]` in the window of `a[i]` is then
/// the lowest set bit of `positions & window & !b_used` — the very `j` the
/// scalar loop stops at, so both kernels build the same assignment. The
/// match count is a popcount, and the k-th matched character of either
/// side is the k-th set bit of `a_used` / `b_used`, which is how the
/// transpositions are read off. `scratch.ascii` must be all zero on entry
/// and is all zero again on return.
fn matches_bit_parallel(a: &[char], b: &[char], scratch: &mut JaroScratch) -> (usize, usize) {
    let ascii = &mut scratch.ascii;
    for (j, &cb) in b.iter().enumerate() {
        if let Some(positions) = ascii.get_mut(cb as usize) {
            *positions |= 1 << j;
        }
    }
    let window = jaro_window(a, b);
    let (mut a_used, mut b_used) = (0u64, 0u64);
    for (i, &ca) in a.iter().enumerate() {
        let positions = match ascii.get(ca as usize) {
            Some(&positions) => positions,
            None => b
                .iter()
                .enumerate()
                .filter(|(_, &cb)| cb == ca)
                .fold(0, |set, (j, _)| set | 1 << j),
        };
        // Bits of `b` past its end are never set, so the window needs no
        // clamp to `b.len()`.
        let in_window = low_bits(i + window + 1) & !low_bits(i.saturating_sub(window));
        let free = positions & in_window & !b_used;
        if free != 0 {
            b_used |= free & free.wrapping_neg();
            a_used |= 1 << i;
        }
    }
    for &cb in b {
        if let Some(positions) = ascii.get_mut(cb as usize) {
            *positions = 0;
        }
    }
    let (mut rest_a, mut rest_b) = (a_used, b_used);
    let mut half_transpositions = 0;
    while rest_a != 0 {
        let (i, j) = (rest_a.trailing_zeros(), rest_b.trailing_zeros());
        half_transpositions += usize::from(a[i as usize] != b[j as usize]);
        rest_a &= rest_a - 1;
        rest_b &= rest_b - 1;
    }
    (a_used.count_ones() as usize, half_transpositions / 2)
}

/// Jaro–Winkler similarity with the standard prefix scale 0.1 and prefix
/// length cap 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_winkler_chars(&a, &b, &mut JaroScratch::default())
}

/// [`jaro_winkler`] over strings already split into `char`s, allocating
/// nothing once `scratch` has grown — the form a comparison loop over
/// precomputed names calls.
pub fn jaro_winkler_chars(a: &[char], b: &[char], scratch: &mut JaroScratch) -> f64 {
    let j = jaro_chars(a, b, scratch);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count();
    (j + prefix as f64 * 0.1 * (1.0 - j)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaro_known_values() {
        assert!((jaro("MARTHA", "MARHTA") - 0.944_444).abs() < 1e-5);
        assert!((jaro("DIXON", "DICKSONX") - 0.766_667).abs() < 1e-5);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        assert!((jaro_winkler("MARTHA", "MARHTA") - 0.961_111).abs() < 1e-5);
        assert!((jaro_winkler("DWAYNE", "DUANE") - 0.84).abs() < 1e-2);
        assert_eq!(jaro_winkler("identical", "identical"), 1.0);
    }

    #[test]
    fn jaro_winkler_rewards_shared_prefix() {
        assert!(jaro_winkler("theodorakis", "theodorakos") > jaro("theodorakis", "theodorakos"));
    }

    /// Jaro–Winkler as it was before the char-slice kernel: five vectors
    /// per call.
    fn collecting_jaro_winkler(a: &str, b: &str) -> f64 {
        let jaro = || {
            let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
            if a.is_empty() && b.is_empty() {
                return 1.0;
            }
            if a.is_empty() || b.is_empty() {
                return 0.0;
            }
            let window = (a.len().max(b.len()) / 2).saturating_sub(1);
            let mut b_used = vec![false; b.len()];
            let mut matches_a: Vec<char> = Vec::new();
            for (i, &ca) in a.iter().enumerate() {
                let lo = i.saturating_sub(window);
                let hi = (i + window + 1).min(b.len());
                if let Some(j) = (lo..hi).find(|&j| !b_used[j] && b[j] == ca) {
                    b_used[j] = true;
                    matches_a.push(ca);
                }
            }
            if matches_a.is_empty() {
                return 0.0;
            }
            let matches_b: Vec<char> = (0..b.len()).filter(|&j| b_used[j]).map(|j| b[j]).collect();
            let transpositions = (0..matches_a.len())
                .filter(|&k| matches_a[k] != matches_b[k])
                .count()
                / 2;
            let m = matches_a.len() as f64;
            (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
        };
        let j = jaro();
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count();
        (j + prefix as f64 * 0.1 * (1.0 - j)).min(1.0)
    }

    proptest::proptest! {
        #[test]
        fn char_slice_kernel_keeps_every_bit(
            strings in proptest::collection::vec("[a-dς ]{0,90}", 2..6),
        ) {
            // One scratch across strings of very different lengths, in
            // both argument orders: whatever state it is left in must not
            // leak into the next call.
            let mut scratch = JaroScratch::default();
            let chars: Vec<Vec<char>> = strings.iter().map(|s| s.chars().collect()).collect();
            for (x, cx) in strings.iter().zip(&chars) {
                for (y, cy) in strings.iter().zip(&chars) {
                    let want = collecting_jaro_winkler(x, y).to_bits();
                    proptest::prop_assert_eq!(jaro_winkler(x, y).to_bits(), want);
                    proptest::prop_assert_eq!(jaro_winkler_chars(cx, cy, &mut scratch).to_bits(), want);
                }
            }
        }
    }

    /// The bit-parallel kernel against the scalar loop, bit for bit, over
    /// pairs whose lengths straddle the 64-character switch on either side:
    /// independent strings, adjacent-transposed copies and one-edit copies,
    /// over 3-, 5- and 26-letter alphabets with runs of one character and
    /// non-ASCII characters mixed in. One scratch serves every call, so a
    /// position table that did not come back clean would show.
    #[test]
    fn bit_parallel_kernel_has_the_scalar_kernels_bits() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let letters: Vec<char> = ('a'..='z').collect();
        let mut rng = StdRng::seed_from_u64(64);
        let mut scratch = JaroScratch::default();
        // A word of 63–65 characters when `on_switch`, of 0–90 otherwise.
        fn word(rng: &mut StdRng, alphabet: &[char], on_switch: bool) -> Vec<char> {
            let len = if on_switch {
                rng.gen_range(63..=65)
            } else {
                rng.gen_range(0..=90)
            };
            let mut out: Vec<char> = Vec::with_capacity(len);
            while out.len() < len {
                let c = match (rng.gen_range(0..8u32), out.last()) {
                    (0, Some(&previous)) => previous,
                    (1, _) => ['é', 'ς'][rng.gen_range(0..2usize)],
                    _ => alphabet[rng.gen_range(0..alphabet.len())],
                };
                out.push(c);
            }
            out
        }
        let (mut short, mut long) = (0, 0);
        for case in 0..20_000 {
            let alphabet = &letters[..[3, 5, 26][case % 3]];
            let on_switch = case % 4 == 0;
            let a = word(&mut rng, alphabet, on_switch);
            let mut b = a.clone();
            match rng.gen_range(0..4u32) {
                0 if b.len() >= 2 => {
                    let i = rng.gen_range(0..b.len() - 1);
                    b.swap(i, i + 1);
                }
                1 if !b.is_empty() => {
                    let i = rng.gen_range(0..b.len());
                    match rng.gen_range(0..3u32) {
                        0 => drop(b.remove(i)),
                        1 => b.insert(i, alphabet[0]),
                        _ => b[i] = 'é',
                    }
                }
                _ => b = word(&mut rng, alphabet, on_switch),
            }
            for (x, y) in [(&a, &b), (&b, &a)] {
                let want = jaro_with(x, y, &mut scratch, matches_scalar);
                let got = jaro_chars(x, y, &mut scratch);
                assert_eq!(got.to_bits(), want.to_bits(), "{x:?} vs {y:?}");
                assert!(scratch.ascii.iter().all(|&set| set == 0), "{x:?} vs {y:?}");
            }
            if a.len().max(b.len()) <= BIT_PARALLEL_MAX {
                short += 1;
            } else {
                long += 1;
            }
        }
        assert!(short > 5_000 && long > 5_000, "{short} short, {long} long");
    }

    proptest::proptest! {
        #[test]
        fn string_measures_bounded_and_reflexive(a in "[a-zα-ω]{0,12}", b in "[a-zα-ω]{0,12}") {
            for f in [jaro, jaro_winkler] {
                let s = f(&a, &b);
                proptest::prop_assert!((0.0..=1.0 + 1e-12).contains(&s), "{s}");
                proptest::prop_assert!((f(&a, &b) - f(&b, &a)).abs() < 1e-12);
            }
            if !a.is_empty() {
                proptest::prop_assert_eq!(jaro(&a, &a), 1.0);
            }
        }
    }
}
