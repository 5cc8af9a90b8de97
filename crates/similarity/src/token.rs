//! Token-set similarity coefficients.
//!
//! All functions operate on **sorted, deduplicated** slices of token ids
//! (`u32` symbols from an interner). Sortedness lets every coefficient run
//! as a linear merge without hashing; debug builds assert the invariant.
//!
//! Use [`prepare`] to turn an arbitrary token-id list into canonical form.

/// Sorts and deduplicates a token list in place, returning it in the
/// canonical form the coefficients expect.
pub fn prepare(mut tokens: Vec<u32>) -> Vec<u32> {
    tokens.sort_unstable();
    tokens.dedup();
    tokens
}

fn assert_canonical(xs: &[u32]) {
    debug_assert!(
        xs.windows(2).all(|w| w[0] < w[1]),
        "tokens must be sorted+deduped"
    );
}

/// Size of the intersection of two canonical token slices (linear merge).
pub fn intersection_size(a: &[u32], b: &[u32]) -> usize {
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
    fn prepare_canonicalises() {
        assert_eq!(prepare(vec![3, 1, 3, 2, 1]), vec![1, 2, 3]);
        assert_eq!(prepare(vec![]), Vec::<u32>::new());
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
