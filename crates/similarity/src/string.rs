//! Character-level string similarity.
//!
//! Used on name-like attribute values ("Mikis Theodorakis" vs
//! "M. Theodorakis") where token overlap is too coarse. All functions are
//! Unicode-aware (operate on `char`s) and return values in `[0, 1]` except
//! [`levenshtein`], which returns the raw edit distance.

/// Levenshtein edit distance (insert/delete/substitute, unit costs),
/// two-row dynamic program: `O(|a|·|b|)` time, `O(min)` memory.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            curr[j + 1] = sub.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Levenshtein similarity `1 − dist / max(|a|,|b|)`; 1.0 for two empty
/// strings.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max as f64
}

/// Reusable buffers for [`jaro_winkler_chars`]: one instance per
/// comparison loop; they grow to the longest string seen.
#[derive(Default)]
pub struct JaroScratch {
    /// Which positions of `b` are already matched.
    b_used: Vec<bool>,
    /// The matched characters of `a`, in `a`'s order.
    matches_a: Vec<char>,
}

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_chars(&a, &b, &mut JaroScratch::default())
}

fn jaro_chars(a: &[char], b: &[char], scratch: &mut JaroScratch) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let JaroScratch { b_used, matches_a } = scratch;
    b_used.clear();
    b_used.resize(b.len(), false);
    matches_a.clear();
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
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
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    let matches_b = b.iter().zip(b_used.iter()).filter(|(_, &u)| u);
    let transpositions = matches_a
        .iter()
        .zip(matches_b)
        .filter(|(x, (y, _))| x != y)
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
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

/// Dice similarity over the multisets of character q-grams (default use:
/// `q = 2`, bigrams). Strings shorter than `q` fall back to exact match.
pub fn qgram_similarity(a: &str, b: &str, q: usize) -> f64 {
    assert!(q >= 1, "q must be positive");
    let grams = |s: &str| -> Vec<String> {
        let cs: Vec<char> = s.chars().collect();
        if cs.len() < q {
            return Vec::new();
        }
        (0..=cs.len() - q)
            .map(|i| cs[i..i + q].iter().collect())
            .collect()
    };
    let (mut ga, mut gb) = (grams(a), grams(b));
    if ga.is_empty() || gb.is_empty() {
        return if a == b && !a.is_empty() { 1.0 } else { 0.0 };
    }
    ga.sort_unstable();
    gb.sort_unstable();
    // Multiset intersection by merge.
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < ga.len() && j < gb.len() {
        match ga[i].cmp(&gb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    2.0 * inter as f64 / (ga.len() + gb.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_unicode() {
        assert_eq!(levenshtein("καφές", "καφέ"), 1);
    }

    #[test]
    fn levenshtein_similarity_bounds() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("ab", "ab"), 1.0);
        assert_eq!(levenshtein_similarity("ab", "cd"), 0.0);
    }

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

    #[test]
    fn qgram_basics() {
        assert_eq!(qgram_similarity("night", "night", 2), 1.0);
        assert_eq!(qgram_similarity("abc", "xyz", 2), 0.0);
        let s = qgram_similarity("nacht", "night", 2);
        assert!(s > 0.2 && s < 0.5, "got {s}");
        // Shorter than q: exact-match fallback.
        assert_eq!(qgram_similarity("a", "a", 2), 1.0);
        assert_eq!(qgram_similarity("a", "b", 2), 0.0);
        assert_eq!(qgram_similarity("", "", 2), 0.0);
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

    proptest::proptest! {
        #[test]
        fn string_measures_bounded_and_reflexive(a in "[a-zα-ω]{0,12}", b in "[a-zα-ω]{0,12}") {
            for f in [jaro, jaro_winkler, levenshtein_similarity] {
                let s = f(&a, &b);
                proptest::prop_assert!((0.0..=1.0 + 1e-12).contains(&s), "{s}");
                proptest::prop_assert!((f(&a, &b) - f(&b, &a)).abs() < 1e-12);
            }
            if !a.is_empty() {
                proptest::prop_assert_eq!(jaro(&a, &a), 1.0);
                proptest::prop_assert_eq!(levenshtein(&a, &a), 0);
            }
        }

        #[test]
        fn levenshtein_triangle_inequality(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
            proptest::prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        }
    }
}
