//! Corpus-level token statistics (document frequency → IDF weights).
//!
//! The TF-IDF cosine needs to know how *informative* each token
//! is. [`TfIdfWeights`] is built once over all entity descriptions (each
//! description = one document) and then shared by the matcher. The IDF of
//! every token and its square are tabulated at build time, so a
//! similarity call is table reads and a merge — no `ln` per token.

/// Inverse-document-frequency weights over an interned token vocabulary.
#[derive(Clone, Debug)]
pub struct TfIdfWeights {
    /// Document frequency per token id (dense vector over the interner).
    doc_freq: Vec<u32>,
    /// Number of documents observed.
    num_docs: u32,
    /// `smoothed_idf(df, N)` per token id.
    idf: Vec<f64>,
    /// `idf(t).powi(2)` per token id — what the cosine sums.
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
        let idf: Vec<f64> = doc_freq
            .iter()
            .map(|&df| smoothed_idf(df, num_docs))
            .collect();
        let idf_sq = idf.iter().map(|w| w.powi(2)).collect();
        Self {
            doc_freq,
            num_docs,
            idf,
            idf_sq,
        }
    }

    /// Number of documents the statistics were computed over.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Document frequency of token `t` (0 for unseen/out-of-range ids).
    pub fn doc_freq(&self, t: u32) -> u32 {
        self.doc_freq.get(t as usize).copied().unwrap_or(0)
    }

    /// Smoothed IDF weight `ln(1 + N / (1 + df))`, ≥ 0, monotonically
    /// decreasing in document frequency.
    pub fn idf(&self, t: u32) -> f64 {
        match self.idf.get(t as usize) {
            Some(&w) => w,
            None => smoothed_idf(0, self.num_docs),
        }
    }

    /// `idf(t).powi(2)` — the weight of `t` in a binary-TF document vector.
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
pub fn cosine_prepared(a: &[u32], a_idf_sq: &[f64], a_norm: f64, b: &[u32], b_norm: f64) -> f64 {
    debug_assert_eq!(a.len(), a_idf_sq.len());
    cosine_from(a_norm, b_norm, shared_weight(a, b, |i| a_idf_sq[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights() -> TfIdfWeights {
        // Token 0 appears in every doc, token 1 in one, token 2 in two.
        TfIdfWeights::build(4, [vec![0, 1], vec![0, 2], vec![0, 2, 2], vec![0]])
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let w = weights();
        assert_eq!(w.num_docs(), 4);
        assert_eq!(w.doc_freq(0), 4);
        assert_eq!(w.doc_freq(1), 1);
        assert_eq!(w.doc_freq(2), 2, "duplicate within a doc counts once");
        assert_eq!(w.doc_freq(3), 0);
        assert_eq!(w.doc_freq(99), 0, "out of range is zero");
    }

    #[test]
    fn idf_decreases_with_frequency() {
        let w = weights();
        assert!(w.idf(1) > w.idf(2));
        assert!(w.idf(2) > w.idf(0));
        assert!(w.idf(0) > 0.0);
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

    /// The cosine as it was before the IDF tables: every weight from
    /// `ln`, per call.
    fn untabulated_cosine(w: &TfIdfWeights, a: &[u32], b: &[u32]) -> f64 {
        let idf = |t: u32| (1.0 + w.num_docs() as f64 / (1.0 + w.doc_freq(t) as f64)).ln();
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
            a in proptest::collection::vec(0u32..48, 0..14),
            b in proptest::collection::vec(0u32..48, 0..14),
        ) {
            // Vocabulary 40, queries up to 47: out-of-range ids included.
            let w = TfIdfWeights::build(40, &docs);
            let (a, b) = (crate::token::prepare(a), crate::token::prepare(b));
            for &t in a.iter().chain(&b) {
                let idf = (1.0 + w.num_docs() as f64 / (1.0 + w.doc_freq(t) as f64)).ln();
                proptest::prop_assert_eq!(w.idf(t).to_bits(), idf.to_bits());
                proptest::prop_assert_eq!(w.idf_squared(t).to_bits(), idf.powi(2).to_bits());
            }
            let want = untabulated_cosine(&w, &a, &b);
            proptest::prop_assert_eq!(w.cosine(&a, &b).to_bits(), want.to_bits());
            let a_idf_sq: Vec<f64> = a.iter().map(|&t| w.idf_squared(t)).collect();
            let prepared = cosine_prepared(&a, &a_idf_sq, w.norm(&a), &b, w.norm(&b));
            proptest::prop_assert_eq!(prepared.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn empty_corpus_is_safe() {
        let w = TfIdfWeights::build(0, Vec::<Vec<u32>>::new());
        assert_eq!(w.num_docs(), 0);
        assert_eq!(w.cosine(&[], &[]), 0.0);
        assert!(w.idf(5) >= 0.0);
    }
}
