//! Q-grams blocking.
//!
//! Token blocking requires an *exact* common token; typos and morphological
//! variation ("Heraklion" vs "Iraklion") defeat it. Q-grams blocking keys
//! on character q-grams of the tokens instead, so descriptions sharing most
//! of a token's characters still co-occur. Extended q-grams raises
//! precision back up by keying on *combinations* of q-grams, requiring
//! several shared q-grams before two descriptions meet.

use crate::collection::{BlockCollection, ErMode, KeyAssignments};
use minoan_rdf::tokenize::TokenBuffers;
use minoan_rdf::Dataset;

/// Byte spans of the character q-grams of `token`, in order. A token
/// shorter than `q` characters has no window: it is its own only q-gram.
fn qgram_spans(token: &str, q: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let bounds = move || token.char_indices().map(|(i, _)| i).chain([token.len()]);
    let whole = bounds().nth(q).is_none().then_some((0, token.len()));
    whole.into_iter().chain(bounds().zip(bounds().skip(q)))
}

/// Q-grams blocking: one block per distinct q-gram of any blocking token.
/// The blocks are built on `threads` workers and do not depend on it.
///
/// # Panics
/// Panics if `q == 0`.
pub fn qgram_blocking(
    dataset: &Dataset,
    mode: ErMode,
    q: usize,
    threads: usize,
) -> BlockCollection {
    assert!(q > 0, "q must be positive");
    let mut asg = KeyAssignments::with_capacity(dataset.len());
    let mut buffers = TokenBuffers::default();
    for e in dataset.entities() {
        dataset.for_each_blocking_token(e, &mut buffers, |token| {
            for (start, end) in qgram_spans(token, q) {
                asg.push_key(&token[start..end]);
            }
        });
        asg.seal_entity();
    }
    BlockCollection::from_assignments_with_threads(dataset, mode, asg, threads)
}

/// Upper bound on the number of q-gram combinations generated per token by
/// [`extended_qgram_blocking`]; tokens whose combination count would exceed
/// it fall back to plain q-gram keys.
pub const MAX_COMBINATIONS: usize = 64;

/// Extended q-grams blocking: for each token with `k` distinct q-grams,
/// keys are all `~`-joined combinations, in sorted q-gram order, of
/// `l = max(1, ⌊k·threshold⌋)` of them, so two descriptions must share at
/// least `l` q-grams of a token to co-occur. The blocks are built on
/// `threads` workers and do not depend on it.
///
/// `threshold ∈ (0, 1]`; `threshold == 1` degenerates to whole-token keys.
///
/// # Panics
/// Panics if `q == 0` or `threshold` is outside `(0, 1]`.
pub fn extended_qgram_blocking(
    dataset: &Dataset,
    mode: ErMode,
    q: usize,
    threshold: f64,
    threads: usize,
) -> BlockCollection {
    assert!(q > 0, "q must be positive");
    assert!(
        threshold > 0.0 && threshold <= 1.0,
        "threshold must be in (0, 1]"
    );
    let mut asg = KeyAssignments::with_capacity(dataset.len());
    let mut buffers = TokenBuffers::default();
    let mut grams: Vec<(usize, usize)> = Vec::new();
    let mut key = String::new();
    for e in dataset.entities() {
        dataset.for_each_blocking_token(e, &mut buffers, |token| {
            let gram = |&(start, end): &(usize, usize)| &token[start..end];
            grams.clear();
            grams.extend(qgram_spans(token, q));
            grams.sort_unstable_by(|a, b| gram(a).cmp(gram(b)));
            grams.dedup_by(|a, b| gram(a) == gram(b));
            let k = grams.len();
            let l = ((k as f64 * threshold).floor() as usize).max(1);
            if combination_count(k, l) > MAX_COMBINATIONS {
                // Exponential blow-up guard: plain q-grams for this token.
                for g in &grams {
                    asg.push_key(gram(g));
                }
                return;
            }
            for_each_combination(k, l, |picks| {
                key.clear();
                for (i, &p) in picks.iter().enumerate() {
                    if i > 0 {
                        key.push('~');
                    }
                    key.push_str(gram(&grams[p]));
                }
                asg.push_key(&key);
            });
        });
        asg.seal_entity();
    }
    BlockCollection::from_assignments_with_threads(dataset, mode, asg, threads)
}

/// `C(n, k)` saturating at `usize::MAX`.
fn combination_count(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: usize = 1;
    for i in 0..k {
        acc = match acc.checked_mul(n - i) {
            Some(v) => v / (i + 1),
            None => return usize::MAX,
        };
    }
    acc
}

/// Visits every size-`k` subset of `0..n` as ascending indices, in
/// lexicographic order; none if `k == 0` or `k > n`.
fn for_each_combination(n: usize, k: usize, mut f: impl FnMut(&[usize])) {
    if k == 0 || k > n {
        return;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        f(&idx);
        // Advance the rightmost index that can still move.
        let Some(i) = (0..k).rev().find(|&i| idx[i] != i + n - k) else {
            return;
        };
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_rdf::{DatasetBuilder, EntityId};

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        // Same city, one-character variation: token blocking misses it.
        b.add_literal(k0, "http://a/0", "http://p/label", "heraklion");
        b.add_literal(k1, "http://b/1", "http://p/label", "heraklio");
        b.add_literal(k0, "http://a/2", "http://p/label", "qqqq");
        b.add_literal(k1, "http://b/3", "http://p/label", "wwww");
        b.build()
    }

    #[test]
    fn qgrams_basic() {
        let qgrams = |token: &'static str| -> Vec<&str> {
            qgram_spans(token, 3).map(|(s, e)| &token[s..e]).collect()
        };
        assert_eq!(qgrams("abcd"), vec!["abc", "bcd"]);
        assert_eq!(qgrams("ab"), vec!["ab"], "short tokens kept whole");
        assert_eq!(qgrams("abc"), vec!["abc"]);
        assert_eq!(
            qgrams("ηράκλειο"),
            vec!["ηρά", "ράκ", "άκλ", "κλε", "λει", "ειο"]
        );
    }

    #[test]
    fn qgram_blocking_recovers_typo_pairs() {
        let ds = dataset();
        let blocks = qgram_blocking(&ds, ErMode::CleanClean, 3, 1);
        let pairs = blocks.distinct_pairs();
        assert!(
            pairs.contains(&(EntityId(0), EntityId(1))),
            "heraklion/heraklio share q-grams: {pairs:?}"
        );
        assert!(
            !pairs.contains(&(EntityId(2), EntityId(3))),
            "qqqq and wwww share nothing"
        );
    }

    #[test]
    fn extended_requires_more_shared_evidence() {
        let ds = dataset();
        let plain = qgram_blocking(&ds, ErMode::CleanClean, 3, 1);
        let extended = extended_qgram_blocking(&ds, ErMode::CleanClean, 3, 0.9, 1);
        assert!(
            extended.total_comparisons() <= plain.total_comparisons(),
            "extended ({}) must not exceed plain ({})",
            extended.total_comparisons(),
            plain.total_comparisons()
        );
    }

    #[test]
    fn extended_threshold_one_is_whole_token() {
        let ds = dataset();
        let extended = extended_qgram_blocking(&ds, ErMode::CleanClean, 3, 1.0, 1);
        // l = k → single combination = all q-grams of the token joined;
        // only exactly-equal tokens co-occur, so no pair here.
        assert_eq!(extended.distinct_pairs().len(), 0);
    }

    /// Tokens of 13 and 15 characters have more than `MAX_COMBINATIONS`
    /// combinations at threshold 0.8, so they key on plain q-grams and
    /// meet on the four they share.
    #[test]
    fn long_tokens_fall_back_to_plain_qgrams() {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        b.add_literal(k0, "http://a/0", "http://p/label", "heraklionpalace");
        b.add_literal(k1, "http://b/1", "http://p/label", "knossospalace");
        let ds = b.build();
        let blocks = extended_qgram_blocking(&ds, ErMode::CleanClean, 3, 0.8, 1);
        assert_eq!(blocks.distinct_pairs(), vec![(EntityId(0), EntityId(1))]);
        assert_eq!(blocks.len(), 4, "pal, ala, lac, ace");
    }

    #[test]
    fn combination_count_matches_pascal() {
        assert_eq!(combination_count(5, 2), 10);
        assert_eq!(combination_count(6, 3), 20);
        assert_eq!(combination_count(3, 5), 0);
        assert_eq!(combination_count(4, 0), 1);
    }

    #[test]
    fn combinations_enumerate_lexicographically() {
        let combinations = |k| {
            let mut out = Vec::new();
            for_each_combination(3, k, |picks| out.push(picks.to_vec()));
            out
        };
        assert_eq!(combinations(2), vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
        assert!(combinations(0).is_empty());
        assert!(combinations(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "q must be positive")]
    fn zero_q_rejected() {
        qgram_blocking(&dataset(), ErMode::Dirty, 0, 1);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_rejected() {
        extended_qgram_blocking(&dataset(), ErMode::Dirty, 3, 1.5, 1);
    }
}
