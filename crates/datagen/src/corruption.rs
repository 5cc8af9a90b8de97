//! Character-level corruption models for value noise.
//!
//! Real cross-KB value divergence is not a single phenomenon: Wikipedia-
//! derived KBs differ by *spelling variation*, OCR-sourced feeds by
//! *systematic glyph confusion*, catalogue data by *abbreviation*, and
//! scraped text by *truncation*. Each model corrupts a single token
//! deterministically given the RNG, so worlds stay reproducible; the
//! generator picks the model per KB via
//! [`crate::KbConfig`]'s `corruption` field.

use rand::rngs::StdRng;
use rand::Rng;

/// Which corruption a KB applies to noisy tokens.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CorruptionModel {
    /// Swap two adjacent characters (keyboard-style typo) — the default.
    #[default]
    Typo,
    /// Substitute characters from a confusion table (`o↔0`, `l↔1`, `rn↔m`,
    /// `e↔c` …) the way OCR errors cluster.
    Ocr,
    /// Truncate to a 2+-character prefix (the catalogue-abbreviation
    /// habit: "International" → "Intl"-style).
    Abbreviation,
    /// Duplicate or drop one character (fat-finger insertion/deletion).
    InsertDelete,
}

impl CorruptionModel {
    /// All models, for sweeps.
    pub const ALL: [CorruptionModel; 4] = [
        CorruptionModel::Typo,
        CorruptionModel::Ocr,
        CorruptionModel::Abbreviation,
        CorruptionModel::InsertDelete,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CorruptionModel::Typo => "typo",
            CorruptionModel::Ocr => "ocr",
            CorruptionModel::Abbreviation => "abbreviation",
            CorruptionModel::InsertDelete => "insert-delete",
        }
    }

    /// Corrupts one token. Always returns a non-empty string different
    /// from a 3+-character input (shorter inputs may collide).
    pub fn corrupt(self, word: &str, rng: &mut StdRng) -> String {
        match self {
            CorruptionModel::Typo => typo(word, rng),
            CorruptionModel::Ocr => ocr(word, rng),
            CorruptionModel::Abbreviation => abbreviate(word, rng),
            CorruptionModel::InsertDelete => insert_delete(word, rng),
        }
    }
}

/// Adjacent-swap typo (falls back to an appended marker on tiny inputs).
pub fn typo(word: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = word.chars().collect();
    if chars.len() < 3 {
        return format!("{word}x");
    }
    let i = rng.gen_range(0..chars.len() - 1);
    let mut out = chars.clone();
    out.swap(i, i + 1);
    out.into_iter().collect()
}

/// OCR glyph-confusion table (lowercase input assumed; unknown characters
/// pass through). One randomly chosen eligible character is substituted;
/// if none is eligible, falls back to a typo.
pub fn ocr(word: &str, rng: &mut StdRng) -> String {
    const TABLE: [(char, char); 10] = [
        ('o', '0'),
        ('l', '1'),
        ('i', '1'),
        ('s', '5'),
        ('b', '6'),
        ('g', '9'),
        ('e', 'c'),
        ('a', 'o'),
        ('u', 'v'),
        ('h', 'b'),
    ];
    let chars: Vec<char> = word.chars().collect();
    let eligible: Vec<usize> = chars
        .iter()
        .enumerate()
        .filter(|(_, c)| TABLE.iter().any(|(from, _)| from == *c))
        .map(|(i, _)| i)
        .collect();
    if eligible.is_empty() {
        return typo(word, rng);
    }
    let pick = eligible[rng.gen_range(0..eligible.len())];
    let mut out = chars;
    let (_, to) = TABLE
        .iter()
        .find(|(from, _)| *from == out[pick])
        .expect("pick came from the eligible scan");
    out[pick] = *to;
    out.into_iter().collect()
}

/// Prefix abbreviation: keeps a 2+-character prefix at least one character
/// shorter than the input (or a typo on inputs too short to abbreviate).
pub fn abbreviate(word: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = word.chars().collect();
    if chars.len() <= 3 {
        return typo(word, rng);
    }
    let keep = rng.gen_range(2..=(chars.len() - 1).min(5));
    chars[..keep].iter().collect()
}

/// Single-character insertion (duplication) or deletion.
pub fn insert_delete(word: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = word.chars().collect();
    if chars.len() < 3 {
        return format!("{word}x");
    }
    let i = rng.gen_range(0..chars.len());
    let mut out = chars.clone();
    if rng.gen_bool(0.5) {
        out.insert(i, chars[i]); // duplicate
    } else {
        out.remove(i);
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn every_model_changes_long_words() {
        for model in CorruptionModel::ALL {
            let mut r = rng();
            for word in ["heraklion", "vineyard", "mountain", "published"] {
                let c = model.corrupt(word, &mut r);
                assert_ne!(c, word, "{} left {word} unchanged", model.name());
                assert!(!c.is_empty());
            }
        }
    }

    #[test]
    fn typo_is_adjacent_swap() {
        let mut r = rng();
        let c = typo("abcdef", &mut r);
        assert_eq!(c.len(), 6);
        let diff: Vec<usize> = c
            .chars()
            .zip("abcdef".chars())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diff.len(), 2);
        assert_eq!(diff[1], diff[0] + 1, "swap must be adjacent");
    }

    #[test]
    fn ocr_substitutes_from_the_table() {
        let mut r = rng();
        let c = ocr("location", &mut r);
        assert_eq!(
            c.chars().count(),
            "location".chars().count(),
            "OCR preserves length"
        );
        let diffs = c
            .chars()
            .zip("location".chars())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1, "exactly one glyph confused: {c}");
    }

    #[test]
    fn ocr_without_eligible_chars_falls_back() {
        let mut r = rng();
        // No table characters at all.
        let c = ocr("xyz", &mut r);
        assert_ne!(c, "xyz");
    }

    #[test]
    fn abbreviation_shortens() {
        let mut r = rng();
        for word in ["international", "municipality", "heraklion"] {
            let c = abbreviate(word, &mut r);
            assert!(c.len() < word.len(), "{word} → {c}");
            assert!(word.starts_with(&c), "{c} must be a prefix of {word}");
        }
    }

    #[test]
    fn insert_delete_changes_length_by_one() {
        let mut r = rng();
        for word in ["heraklion", "athens", "crete"] {
            let c = insert_delete(word, &mut r);
            let delta = c.chars().count() as i64 - word.chars().count() as i64;
            assert_eq!(delta.abs(), 1, "{word} → {c}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        for model in CorruptionModel::ALL {
            let mut a = rng();
            let mut b = rng();
            assert_eq!(
                model.corrupt("systematic", &mut a),
                model.corrupt("systematic", &mut b)
            );
        }
    }

    #[test]
    fn names_stable() {
        let names: Vec<_> = CorruptionModel::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["typo", "ocr", "abbreviation", "insert-delete"]);
    }

    #[test]
    fn short_words_never_panic() {
        for model in CorruptionModel::ALL {
            let mut r = rng();
            for word in ["a", "ab", "xy"] {
                let c = model.corrupt(word, &mut r);
                assert!(!c.is_empty());
            }
        }
    }
}
