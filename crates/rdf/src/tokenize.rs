//! Schema-agnostic tokenisation.
//!
//! Token blocking assumes only that matching descriptions "feature a common
//! token in their descriptions or URIs" (paper, §1). This module extracts
//! those tokens:
//!
//! * [`value_tokens`] — lower-cased alphanumeric runs of length ≥ 2 from
//!   literal values, with a small stop-word filter (articles/prepositions
//!   carry no matching evidence and would create giant useless blocks).
//! * [`UriDecomposition`] — the Prefix-Infix(-Suffix) scheme: LOD entity
//!   URIs are `prefix` (namespace, KB-specific) + `infix` (the entity-naming
//!   part) + optional generic `suffix` (e.g. a trailing `/about`, format
//!   extensions). Only infix tokens carry cross-KB naming evidence.

/// Words filtered out of value tokens. Deliberately small and conservative —
/// schema-agnostic blocking must not assume language, so we only remove the
/// highest-frequency English glue words that appear in synthetic values.
pub const STOP_WORDS: &[&str] = &[
    "the", "of", "and", "in", "on", "at", "to", "for", "with", "by", "an", "is", "was", "are",
    "from", "as", "it", "its", "be", "or",
];

fn is_stop_word(tok: &str) -> bool {
    STOP_WORDS.contains(&tok)
}

/// Bytes of the longest stop word: a longer token is kept without a look at
/// the list.
const LONGEST_STOP_WORD: usize = 4;

/// Iterates the blocking tokens of a literal value: maximal alphanumeric
/// runs, lower-cased, length ≥ 2, stop words removed. Pure digits are kept
/// (years and numeric codes are strong evidence in LOD data).
pub fn value_tokens(value: &str) -> impl Iterator<Item = String> + '_ {
    value
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| t.len() >= 2)
        .map(|t| t.to_lowercase())
        .filter(|t| !is_stop_word(t))
}

/// Collects [`value_tokens`] into a vector (convenience for tests/benches).
pub fn value_token_vec(value: &str) -> Vec<String> {
    value_tokens(value).collect()
}

/// Reusable scratch buffers for the allocation-free token visitors
/// ([`value_tokens_with`], [`uri_infix_tokens_with`]). One instance per
/// scan loop; the buffers grow to the longest token/infix seen and are
/// reused for every subsequent call.
#[derive(Default)]
pub struct TokenBuffers {
    /// Lower-cased token composition buffer.
    lower: String,
    /// camelCase-spaced URI infix buffer.
    spaced: String,
}

/// Lower-cases `tok` into `buf` and returns the lowered slice. ASCII
/// tokens (the overwhelming majority) are lowered byte-wise with no
/// allocation; anything else goes through `str::to_lowercase` so the
/// result is byte-identical to the iterator-based [`value_tokens`].
fn lower_into<'b>(tok: &str, buf: &'b mut String) -> &'b str {
    buf.clear();
    if tok.is_ascii() {
        buf.push_str(tok);
        buf.make_ascii_lowercase();
    } else {
        buf.push_str(&tok.to_lowercase());
    }
    buf.as_str()
}

/// Visits the blocking tokens of a literal value — exactly the tokens
/// [`value_tokens`] yields, in the same order — without allocating a
/// `String` per token: each token is lower-cased into `buffers` and
/// handed to `f` as a borrowed slice.
pub fn value_tokens_with(value: &str, buffers: &mut TokenBuffers, mut f: impl FnMut(&str)) {
    for tok in value
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| t.len() >= 2)
    {
        let lowered = lower_into(tok, &mut buffers.lower);
        if lowered.len() > LONGEST_STOP_WORD || !is_stop_word(lowered) {
            f(lowered);
        }
    }
}

/// Visits the URI-infix tokens of `uri` — exactly what
/// [`uri_infix_tokens`] yields, in the same order — reusing `buffers`
/// instead of allocating per token.
pub fn uri_infix_tokens_with(uri: &str, buffers: &mut TokenBuffers, f: impl FnMut(&str)) {
    let infix = decompose_uri(uri).infix;
    let mut spaced = std::mem::take(&mut buffers.spaced);
    spaced.clear();
    spaced.reserve(infix.len() + 8);
    let mut prev_lower = false;
    for c in infix.chars() {
        if c.is_uppercase() && prev_lower {
            spaced.push(' ');
        }
        prev_lower = c.is_lowercase() || c.is_ascii_digit();
        spaced.push(c);
    }
    value_tokens_with(&spaced, buffers, f);
    buffers.spaced = spaced;
}

/// The Prefix-Infix(-Suffix) decomposition of an entity URI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UriDecomposition<'a> {
    /// Scheme + authority + all path segments before the naming segment.
    pub prefix: &'a str,
    /// The entity-naming part (last meaningful path segment or fragment).
    pub infix: &'a str,
    /// Generic trailing part stripped from the infix (extension or generic
    /// segment such as `about`, `html`, `rdf`), empty when absent.
    pub suffix: &'a str,
}

/// Trailing path segments that name a *representation* rather than the
/// entity and are therefore treated as suffix.
const GENERIC_SUFFIX_SEGMENTS: &[&str] = &["about", "html", "rdf", "xml", "json", "page", "data"];

/// Decomposes an entity URI into prefix / infix / suffix.
///
/// Rules (following the Prefix-Infix(-Suffix) blocking literature):
/// 1. A `#fragment`, when present and non-generic, is the infix.
/// 2. Otherwise the last non-generic, non-empty path segment is the infix;
///    trailing generic segments (`about`, `page`, …) and file extensions
///    (`.html`, `.rdf`, …) become the suffix.
/// 3. URIs without any path structure decompose to an empty infix equal to
///    the whole tail after the authority.
pub fn decompose_uri(uri: &str) -> UriDecomposition<'_> {
    // Fragment wins if present.
    if let Some(hash) = uri.rfind('#') {
        let frag = &uri[hash + 1..];
        if !frag.is_empty() && !GENERIC_SUFFIX_SEGMENTS.contains(&frag) {
            return UriDecomposition {
                prefix: &uri[..hash + 1],
                infix: frag,
                suffix: "",
            };
        }
    }
    // Work on the part after the scheme's "://", if any.
    let body_start = uri.find("://").map(|i| i + 3).unwrap_or(0);
    let body = &uri[body_start..];
    let path_start = match body.find('/') {
        Some(i) => body_start + i + 1,
        None => {
            // No path at all: the authority itself is all prefix.
            return UriDecomposition {
                prefix: uri,
                infix: "",
                suffix: "",
            };
        }
    };
    // Walk back over empty and generic segments: they belong to the suffix.
    // ASCII case folding is the whole comparison: no generic word holds a
    // letter that some non-ASCII character lowers to.
    let mut end = uri.len();
    let (seg_off, seg) = loop {
        let seg_off = uri[path_start..end]
            .rfind('/')
            .map_or(path_start, |slash| path_start + slash + 1);
        let seg = &uri[seg_off..end];
        let is_generic = seg.is_empty()
            || GENERIC_SUFFIX_SEGMENTS
                .iter()
                .any(|generic| seg.eq_ignore_ascii_case(generic));
        if !is_generic {
            break (seg_off, seg);
        }
        if seg_off == path_start {
            return UriDecomposition {
                prefix: &uri[..path_start],
                infix: "",
                suffix: &uri[path_start..],
            };
        }
        end = seg_off - 1;
    };
    // Split a file extension off the naming segment.
    let (infix_len, _ext) = match seg.rfind('.') {
        Some(dot) if dot > 0 && seg.len() - dot <= 6 => (dot, &seg[dot + 1..]),
        _ => (seg.len(), ""),
    };
    UriDecomposition {
        prefix: &uri[..seg_off],
        infix: &uri[seg_off..seg_off + infix_len],
        suffix: &uri[seg_off + infix_len..],
    }
}

/// Tokens of the URI infix, using the same normalisation as value tokens,
/// but also splitting camelCase boundaries (DBpedia-style naming).
pub fn uri_infix_tokens(uri: &str) -> Vec<String> {
    let infix = decompose_uri(uri).infix;
    let mut spaced = String::with_capacity(infix.len() + 8);
    let mut prev_lower = false;
    for c in infix.chars() {
        if c.is_uppercase() && prev_lower {
            spaced.push(' ');
        }
        prev_lower = c.is_lowercase() || c.is_ascii_digit();
        spaced.push(c);
    }
    value_tokens(&spaced).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_tokens_normalise() {
        let toks = value_token_vec("The Palace of Knossos, Crete (1900)");
        assert_eq!(toks, vec!["palace", "knossos", "crete", "1900"]);
    }

    #[test]
    fn value_tokens_drop_short_and_stop() {
        assert!(value_token_vec("a b c").is_empty());
        assert_eq!(value_token_vec("of the ab"), vec!["ab"]);
    }

    #[test]
    fn unicode_values_tokenise() {
        let toks = value_token_vec("Ηράκλειο café");
        assert_eq!(toks, vec!["ηράκλειο", "café"]);
    }

    #[test]
    fn visitor_tokens_match_iterator_tokens() {
        let inputs = [
            "The Palace of Knossos, Crete (1900)",
            "a b c",
            "of the ab",
            "Ηράκλειο café ΣΙΓΜΑΣ",
            "",
            "MixedCASE tokens-with_seps 42",
        ];
        let mut buffers = TokenBuffers::default();
        for input in inputs {
            let mut visited: Vec<String> = Vec::new();
            value_tokens_with(input, &mut buffers, |t| visited.push(t.to_string()));
            assert_eq!(visited, value_token_vec(input), "input: {input:?}");
        }
    }

    #[test]
    fn visitor_uri_tokens_match_iterator_tokens() {
        let uris = [
            "http://yago.org/resource/MikisTheodorakis",
            "http://dbpedia.org/resource/Knossos_Palace_1900",
            "http://example.org/data/places#Knossos_Palace",
            "http://example.org",
        ];
        let mut buffers = TokenBuffers::default();
        for uri in uris {
            let mut visited: Vec<String> = Vec::new();
            uri_infix_tokens_with(uri, &mut buffers, |t| visited.push(t.to_string()));
            assert_eq!(visited, uri_infix_tokens(uri), "uri: {uri}");
        }
    }

    /// Why `decompose_uri` may compare segments with `eq_ignore_ascii_case`
    /// where it used to lower-case them: a segment lowers to a generic word
    /// only if it is ASCII.
    #[test]
    fn no_non_ascii_char_lowers_to_a_letter_of_a_generic_word() {
        for c in (0x80..=u32::from(char::MAX)).filter_map(char::from_u32) {
            for lowered in c.to_lowercase().filter(char::is_ascii) {
                assert!(
                    GENERIC_SUFFIX_SEGMENTS.iter().all(|w| !w.contains(lowered)),
                    "{c:?} lowers to {lowered:?}"
                );
            }
        }
        assert!(GENERIC_SUFFIX_SEGMENTS
            .iter()
            .all(|w| w.bytes().all(|b| b.is_ascii_lowercase())));
    }

    #[test]
    fn the_stop_word_length_bound_is_the_longest_stop_word() {
        let longest = STOP_WORDS.iter().map(|w| w.len()).max();
        assert_eq!(longest, Some(LONGEST_STOP_WORD));
    }

    #[test]
    fn decompose_generic_segments_in_any_ascii_case() {
        let d = decompose_uri("http://example.org/people/Ada/ABOUT/Page//");
        assert_eq!(
            (d.prefix, d.infix, d.suffix),
            ("http://example.org/people/", "Ada", "/ABOUT/Page//")
        );
        // Nothing but generic segments: all suffix.
        let d = decompose_uri("http://example.org/Data/rdf/");
        assert_eq!(
            (d.prefix, d.infix, d.suffix),
            ("http://example.org/", "", "Data/rdf/")
        );
        // The Kelvin sign lowers to `k`, which no generic word contains.
        let d = decompose_uri("http://example.org/x/\u{212a}");
        assert_eq!(d.infix, "\u{212a}");
    }

    #[test]
    fn decompose_plain_resource_uri() {
        let d = decompose_uri("http://dbpedia.org/resource/Heraklion");
        assert_eq!(d.prefix, "http://dbpedia.org/resource/");
        assert_eq!(d.infix, "Heraklion");
        assert_eq!(d.suffix, "");
    }

    #[test]
    fn decompose_fragment_uri() {
        let d = decompose_uri("http://example.org/data/places#Knossos_Palace");
        assert_eq!(d.infix, "Knossos_Palace");
        assert_eq!(d.prefix, "http://example.org/data/places#");
    }

    #[test]
    fn decompose_strips_generic_suffix() {
        let d = decompose_uri("http://bbc.co.uk/music/artists/Mikis_Theodorakis/about");
        assert_eq!(d.infix, "Mikis_Theodorakis");
        assert_eq!(d.suffix, "/about");
        let d = decompose_uri("http://example.org/people/john.html");
        assert_eq!(d.infix, "john");
        assert_eq!(d.suffix, ".html");
    }

    #[test]
    fn decompose_no_path() {
        let d = decompose_uri("http://example.org");
        assert_eq!(d.infix, "");
        assert_eq!(d.prefix, "http://example.org");
    }

    #[test]
    fn decompose_trailing_slash() {
        let d = decompose_uri("http://example.org/resource/Athens/");
        assert_eq!(d.infix, "Athens");
    }

    #[test]
    fn infix_tokens_split_camel_and_snake() {
        assert_eq!(
            uri_infix_tokens("http://yago.org/resource/MikisTheodorakis"),
            vec!["mikis", "theodorakis"]
        );
        assert_eq!(
            uri_infix_tokens("http://dbpedia.org/resource/Knossos_Palace_1900"),
            vec!["knossos", "palace", "1900"]
        );
    }

    #[test]
    fn prefix_infix_suffix_partition_is_lossless() {
        for uri in [
            "http://dbpedia.org/resource/Heraklion",
            "http://bbc.co.uk/music/artists/Mikis_Theodorakis/about",
            "http://example.org/people/john.html",
            "http://example.org/data/places#Knossos_Palace",
            "http://example.org",
            "http://example.org/resource/Athens/",
        ] {
            let d = decompose_uri(uri);
            assert_eq!(
                format!("{}{}{}", d.prefix, d.infix, d.suffix),
                uri,
                "lossy: {uri}"
            );
        }
    }
}
