//! The similarity measures the matcher scores a pair with.
//!
//! Token-set evidence is the primary signal in the Web of Data (it needs
//! no schema); character-level similarity on name-like values ("Mikis
//! Theodorakis" vs "M. Theodorakis") is blended in where token overlap is
//! too coarse. Every measure is in `[0, 1]`, higher = more similar:
//!
//! * [`jaro`], [`jaro_winkler`] and [`jaro_winkler_chars`] — Jaro and
//!   Jaro–Winkler over `char`s (Unicode-aware);
//! * [`TfIdfWeights`] — the IDF of every token of a corpus and the TF-IDF
//!   cosine the matcher scores value tokens with;
//! * [`jaccard`] — overlap of two sorted, deduplicated token-id slices,
//!   counted by a linear merge without hashing (debug builds assert the
//!   order).
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
//!
//! # TF-IDF
//!
//! The cosine needs to know how *informative* each token is.
//! [`TfIdfWeights`] is built once over all entity descriptions (each
//! description = one document) and then shared by the matcher. The squared
//! IDF of every token is tabulated at build time, so a similarity call is
//! table reads and a merge — no `ln` per token.

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

/// Inverse-document-frequency weights over an interned token vocabulary.
#[derive(Clone, Debug)]
pub struct TfIdfWeights {
    /// Number of documents observed.
    num_docs: u32,
    /// `smoothed_idf(df, N).powi(2)` per token id — what the cosine sums.
    idf_sq: Vec<f64>,
}

/// The smoothed IDF expression; the tables and the out-of-range fallback
/// both evaluate exactly this, so every reader sees the same bits.
fn smoothed_idf(df: u32, num_docs: u32) -> f64 {
    (1.0 + num_docs as f64 / (1.0 + df as f64)).ln()
}

impl TfIdfWeights {
    /// Builds weights from an iterator of documents, each a (possibly
    /// unsorted, possibly duplicated) token-id list. `vocab_size` must be at
    /// least `max(token id) + 1`.
    pub fn build<I, D>(vocab_size: usize, docs: I) -> Self
    where
        I: IntoIterator<Item = D>,
        D: AsRef<[u32]>,
    {
        let mut doc_freq = vec![0u32; vocab_size];
        let mut num_docs = 0u32;
        // Last document (1-based) each token was counted in.
        let mut last_doc = vec![0u32; vocab_size];
        for doc in docs {
            num_docs += 1;
            for &t in doc.as_ref() {
                let seen = &mut last_doc[t as usize];
                if *seen != num_docs {
                    *seen = num_docs;
                    doc_freq[t as usize] += 1;
                }
            }
        }
        let idf_sq = doc_freq
            .iter()
            .map(|&df| smoothed_idf(df, num_docs).powi(2))
            .collect();
        Self { num_docs, idf_sq }
    }

    /// The squared smoothed IDF `ln(1 + N / (1 + df))²` of token `t` (`df`
    /// 0 for an id past the vocabulary) — the weight of `t` in a binary-TF
    /// document vector.
    pub fn idf_squared(&self, t: u32) -> f64 {
        match self.idf_sq.get(t as usize) {
            Some(&w) => w,
            None => smoothed_idf(0, self.num_docs).powi(2),
        }
    }

    /// Euclidean norm of a canonical token slice as a binary-TF document
    /// vector: `sqrt` of the in-order sum of the squared IDFs.
    pub fn norm(&self, xs: &[u32]) -> f64 {
        xs.iter().map(|&t| self.idf_squared(t)).sum::<f64>().sqrt()
    }

    /// TF-IDF cosine similarity between two canonical (sorted+deduped)
    /// token slices, treating each as a binary-TF document vector.
    pub fn cosine(&self, a: &[u32], b: &[u32]) -> f64 {
        cosine_from(
            self.norm(a),
            self.norm(b),
            shared_weight(a, b, |i| self.idf_squared(a[i])),
        )
    }
}

/// Sum, in merge order, of `weight_at(i)` over the positions `i` of `a`
/// whose token also occurs in `b` (both canonical).
fn shared_weight(a: &[u32], b: &[u32], weight_at: impl Fn(usize) -> f64) -> f64 {
    let (mut i, mut j, mut dot) = (0usize, 0usize, 0.0f64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += weight_at(i);
                i += 1;
                j += 1;
            }
        }
    }
    dot
}

fn cosine_from(norm_a: f64, norm_b: f64, dot: f64) -> f64 {
    if norm_a == 0.0 || norm_b == 0.0 {
        return 0.0;
    }
    dot / (norm_a * norm_b)
}

/// [`TfIdfWeights::cosine`] over facts computed once per document: `a`'s
/// tokens with their aligned squared IDFs and norm, `b`'s tokens and norm.
/// Same expressions in the same order, hence the same bits.
pub(crate) fn cosine_prepared(
    a: &[u32],
    a_idf_sq: &[f64],
    a_norm: f64,
    b: &[u32],
    b_norm: f64,
) -> f64 {
    debug_assert_eq!(a.len(), a_idf_sq.len());
    cosine_from(a_norm, b_norm, shared_weight(a, b, |i| a_idf_sq[i]))
}

fn assert_canonical(xs: &[u32]) {
    debug_assert!(
        xs.windows(2).all(|w| w[0] < w[1]),
        "tokens must be sorted+deduped"
    );
}

/// Size of the intersection of two canonical token slices (linear merge).
pub(crate) fn intersection_size(a: &[u32], b: &[u32]) -> usize {
    assert_canonical(a);
    assert_canonical(b);
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Jaccard coefficient `|A∩B| / |A∪B|`. Empty∪empty ⇒ 0.
pub fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    let inter = intersection_size(a, b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
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

    fn weights() -> TfIdfWeights {
        // Token 0 appears in every doc, token 1 in one, token 2 in two.
        TfIdfWeights::build(4, [vec![0, 1], vec![0, 2], vec![0, 2, 2], vec![0]])
    }

    #[test]
    fn cosine_identity_and_disjoint() {
        let w = weights();
        assert!((w.cosine(&[0, 1], &[0, 1]) - 1.0).abs() < 1e-12);
        assert_eq!(w.cosine(&[1], &[2]), 0.0);
        assert_eq!(w.cosine(&[], &[1]), 0.0);
    }

    #[test]
    fn rare_shared_token_scores_higher() {
        let w = weights();
        // Sharing rare token 1 vs sharing ubiquitous token 0, same set sizes.
        let rare = w.cosine(&[1, 2], &[0, 1]);
        let common = w.cosine(&[0, 2], &[0, 1]);
        assert!(rare > common, "rare {rare} vs common {common}");
    }

    /// The smoothed IDF of `t` from the documents themselves.
    fn untabulated_idf(docs: &[Vec<u32>], t: u32) -> f64 {
        let df = docs.iter().filter(|d| d.contains(&t)).count();
        (1.0 + docs.len() as f64 / (1.0 + df as f64)).ln()
    }

    /// The cosine as it was before the IDF tables: every weight from
    /// `ln`, per call.
    fn untabulated_cosine(docs: &[Vec<u32>], a: &[u32], b: &[u32]) -> f64 {
        let idf = |t: u32| untabulated_idf(docs, t);
        let norm = |xs: &[u32]| xs.iter().map(|&t| idf(t).powi(2)).sum::<f64>().sqrt();
        let (na, nb) = (norm(a), norm(b));
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        let shared = a.iter().filter(|t| b.contains(t));
        let mut dot = 0.0f64;
        for &t in shared {
            dot += idf(t).powi(2);
        }
        dot / (na * nb)
    }

    proptest::proptest! {
        #[test]
        fn tabulated_weights_keep_every_bit(
            docs in proptest::collection::vec(proptest::collection::vec(0u32..40, 0..12), 1..30),
            mut a in proptest::collection::vec(0u32..48, 0..14),
            mut b in proptest::collection::vec(0u32..48, 0..14),
        ) {
            // Vocabulary 40, queries up to 47: out-of-range ids included.
            let w = TfIdfWeights::build(40, &docs);
            for xs in [&mut a, &mut b] {
                xs.sort_unstable();
                xs.dedup();
            }
            for &t in a.iter().chain(&b) {
                let idf = untabulated_idf(&docs, t);
                proptest::prop_assert_eq!(w.idf_squared(t).to_bits(), idf.powi(2).to_bits());
            }
            let want = untabulated_cosine(&docs, &a, &b);
            proptest::prop_assert_eq!(w.cosine(&a, &b).to_bits(), want.to_bits());
            let a_idf_sq: Vec<f64> = a.iter().map(|&t| w.idf_squared(t)).collect();
            let prepared = cosine_prepared(&a, &a_idf_sq, w.norm(&a), &b, w.norm(&b));
            proptest::prop_assert_eq!(prepared.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn empty_corpus_is_safe() {
        let w = TfIdfWeights::build(0, Vec::<Vec<u32>>::new());
        assert_eq!(w.cosine(&[], &[]), 0.0);
        assert!(w.idf_squared(5) >= 0.0);
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&[1, 2, 3], &[2, 3, 4]), 0.5);
        assert_eq!(jaccard(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard(&[1], &[2]), 0.0);
        assert_eq!(jaccard(&[], &[]), 0.0);
        assert_eq!(jaccard(&[], &[1]), 0.0);
    }

    #[test]
    fn jaccard_is_symmetric() {
        let (a, b) = (&[1u32, 4, 9, 11][..], &[2u32, 4, 11, 30, 31][..]);
        assert_eq!(jaccard(a, b), jaccard(b, a));
    }

    proptest::proptest! {
        #[test]
        fn jaccard_bounds_and_identity(mut a in proptest::collection::vec(0u32..200, 0..40),
                                       mut b in proptest::collection::vec(0u32..200, 0..40)) {
            a.sort_unstable(); a.dedup();
            b.sort_unstable(); b.dedup();
            let j = jaccard(&a, &b);
            proptest::prop_assert!((0.0..=1.0).contains(&j));
            if !a.is_empty() {
                proptest::prop_assert_eq!(jaccard(&a, &a), 1.0);
            }
        }
    }
}
