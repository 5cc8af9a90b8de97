//! Comment- and string-literal-aware Rust source scanning.
//!
//! The rules engine never sees raw source: it works on a *masked* copy in
//! which every comment and every string-literal body has been blanked to
//! spaces (newlines preserved, byte offsets unchanged), so substring rules
//! cannot fire on prose. Alongside the mask the scanner extracts the two
//! pieces of structure the rules need: the byte spans of test-only code
//! (`#[cfg(test)]` / `#[test]` items) and the inline
//! `// lint:allow(rule): reason` escapes.

/// One inline `lint:allow` directive.
#[derive(Clone, Debug)]
pub struct Allow {
    /// 1-based line of the comment.
    pub line: u32,
    /// Rule names listed inside `lint:allow(...)`.
    pub rules: Vec<String>,
    /// Whether a `: reason` tail with actual text follows the rule list.
    pub has_reason: bool,
    /// True when the comment is alone on its line (the directive then
    /// applies to the *next* line instead of its own).
    pub own_line: bool,
}

/// A scanned source file: mask, line table, test spans, allow directives.
pub struct ScannedFile {
    /// Masked copy of the source — identical byte length, with comments
    /// and string-literal bodies replaced by spaces.
    pub masked: String,
    /// Byte offset of the start of each line (line `i` is 0-based here).
    pub line_starts: Vec<usize>,
    /// Byte ranges (start, end) of `#[cfg(test)]` / `#[test]` items.
    pub test_spans: Vec<(usize, usize)>,
    /// Inline allow directives, in file order.
    pub allows: Vec<Allow>,
}

impl ScannedFile {
    /// 1-based (line, col) of a byte offset.
    pub fn line_col(&self, offset: usize) -> (u32, u32) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (
            (line + 1) as u32,
            (offset - self.line_starts[line] + 1) as u32,
        )
    }

    /// Whether `offset` falls inside test-only code.
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(s, e)| s <= offset && offset < e)
    }

    /// The masked text of 0-based line `i`.
    pub fn masked_line(&self, i: usize) -> &str {
        let start = self.line_starts[i];
        let end = self
            .line_starts
            .get(i + 1)
            .copied()
            .unwrap_or(self.masked.len());
        self.masked[start..end].trim_end_matches('\n')
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Scans `source`, producing the mask and the extracted structure.
pub fn scan(source: &str) -> ScannedFile {
    let bytes = source.as_bytes();
    let mut masked = bytes.to_vec();
    // (start, end) byte ranges of comments, for allow-directive parsing.
    let mut comments: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            let start = i;
            while i < bytes.len() && bytes[i] != b'\n' {
                masked[i] = b' ';
                i += 1;
            }
            comments.push((start, i));
        } else if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let start = i;
            masked[i] = b' ';
            masked[i + 1] = b' ';
            i += 2;
            let mut depth = 1u32;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                    depth += 1;
                    masked[i] = b' ';
                    masked[i + 1] = b' ';
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    depth -= 1;
                    masked[i] = b' ';
                    masked[i + 1] = b' ';
                    i += 2;
                } else {
                    if bytes[i] != b'\n' {
                        masked[i] = b' ';
                    }
                    i += 1;
                }
            }
            comments.push((start, i));
        } else if b == b'"' {
            i = mask_plain_string(bytes, &mut masked, i);
        } else if b == b'\'' {
            i = char_or_lifetime(bytes, &mut masked, i);
        } else if is_ident_byte(b) && (i == 0 || !is_ident_byte(bytes[i - 1])) {
            // Token start: check for raw/byte string prefixes before
            // consuming the identifier wholesale.
            if let Some(next) = string_prefix(bytes, &mut masked, i) {
                i = next;
            } else {
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
            }
        } else {
            i += 1;
        }
    }

    let masked = String::from_utf8(masked).expect("masking only rewrites ASCII bytes");
    let mut line_starts = vec![0usize];
    for (off, b) in source.bytes().enumerate() {
        if b == b'\n' {
            line_starts.push(off + 1);
        }
    }
    let allows = parse_allows(source, &comments, &line_starts);
    let test_spans = find_test_spans(&masked);
    ScannedFile {
        masked,
        line_starts,
        test_spans,
        allows,
    }
}

/// Handles `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, `b'x'` at an
/// identifier-start position. Returns the offset past the literal, or
/// `None` when the token is an ordinary identifier.
fn string_prefix(bytes: &[u8], masked: &mut [u8], i: usize) -> Option<usize> {
    let n = bytes.len();
    match bytes[i] {
        b'r' => {
            let mut j = i + 1;
            while j < n && bytes[j] == b'#' {
                j += 1;
            }
            if j < n && bytes[j] == b'"' {
                Some(mask_raw_string(bytes, masked, j, j - i - 1))
            } else {
                None
            }
        }
        b'b' => {
            if i + 1 < n && bytes[i + 1] == b'"' {
                Some(mask_plain_string(bytes, masked, i + 1))
            } else if i + 1 < n && bytes[i + 1] == b'\'' {
                Some(char_or_lifetime(bytes, masked, i + 1))
            } else if i + 1 < n && bytes[i + 1] == b'r' {
                let mut j = i + 2;
                while j < n && bytes[j] == b'#' {
                    j += 1;
                }
                if j < n && bytes[j] == b'"' {
                    Some(mask_raw_string(bytes, masked, j, j - i - 2))
                } else {
                    None
                }
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Masks a `"..."` body; `i` is the opening quote. Returns offset past the
/// closing quote.
fn mask_plain_string(bytes: &[u8], masked: &mut [u8], i: usize) -> usize {
    let n = bytes.len();
    let mut j = i + 1;
    while j < n {
        match bytes[j] {
            b'\\' => {
                masked[j] = b' ';
                if j + 1 < n && bytes[j + 1] != b'\n' {
                    masked[j + 1] = b' ';
                }
                j += 2;
            }
            b'"' => return j + 1,
            b'\n' => j += 1,
            _ => {
                masked[j] = b' ';
                j += 1;
            }
        }
    }
    j
}

/// Masks a raw string body; `quote` is the opening `"`, `hashes` the number
/// of `#` in the delimiter. Returns offset past the closing delimiter.
fn mask_raw_string(bytes: &[u8], masked: &mut [u8], quote: usize, hashes: usize) -> usize {
    let n = bytes.len();
    let mut j = quote + 1;
    while j < n {
        if bytes[j] == b'"' {
            let end = j + 1 + hashes;
            if end <= n && bytes[j + 1..end].iter().all(|&b| b == b'#') {
                return end;
            }
        }
        if bytes[j] != b'\n' {
            masked[j] = b' ';
        }
        j += 1;
    }
    j
}

/// Distinguishes a char literal from a lifetime; `i` is the `'`. Masks the
/// char body when it is a literal. Returns the offset to continue from.
fn char_or_lifetime(bytes: &[u8], masked: &mut [u8], i: usize) -> usize {
    let n = bytes.len();
    if i + 1 >= n {
        return i + 1;
    }
    if bytes[i + 1] == b'\\' {
        // Escaped char literal: scan to the closing quote.
        let mut j = i + 1;
        while j < n && bytes[j] != b'\'' {
            if bytes[j] == b'\\' {
                masked[j] = b' ';
                if j + 1 < n {
                    masked[j + 1] = b' ';
                }
                j += 2;
            } else {
                masked[j] = b' ';
                j += 1;
            }
        }
        j + 1
    } else if i + 2 < n && bytes[i + 2] == b'\'' && bytes[i + 1] != b'\'' {
        // Simple one-byte char literal 'x'.
        masked[i + 1] = b' ';
        i + 3
    } else {
        // Lifetime (or multibyte char literal, whose bytes cannot collide
        // with any ASCII rule pattern): leave as-is.
        i + 1
    }
}

/// Extracts `lint:allow(...)` directives from line comments.
fn parse_allows(source: &str, comments: &[(usize, usize)], line_starts: &[usize]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for &(start, end) in comments {
        let text = &source[start..end];
        // Directives live in ordinary `//` comments only — doc comments may
        // *mention* the syntax without enacting it — and must lead the
        // comment text.
        let Some(body) = text.strip_prefix("//") else {
            continue;
        };
        if body.starts_with('/') || body.starts_with('!') {
            continue;
        }
        let body = body.trim_start();
        let Some(after) = body.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = after.find(')') else {
            continue;
        };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = after[close + 1..].trim();
        let has_reason = tail
            .strip_prefix(':')
            .map(|t| t.trim().len() >= 4)
            .unwrap_or(false);
        let line_idx = match line_starts.binary_search(&start) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let own_line = source[line_starts[line_idx]..start]
            .chars()
            .all(|c| c.is_whitespace());
        allows.push(Allow {
            line: (line_idx + 1) as u32,
            rules,
            has_reason,
            own_line,
        });
    }
    allows
}

/// Byte spans of `#[cfg(test)]` / `#[test]` items, found by scanning the
/// masked source and brace-matching the following item.
fn find_test_spans(masked: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for marker in ["#[cfg(test)]", "#[cfg(any(test", "#[test]"] {
        let mut from = 0usize;
        while let Some(rel) = masked[from..].find(marker) {
            let start = from + rel;
            // End of this attribute: its closing `]`.
            let attr_end = masked[start..]
                .find(']')
                .map(|p| start + p + 1)
                .unwrap_or(masked.len());
            if let Some(end) = item_end(masked, attr_end) {
                spans.push((start, end));
            }
            from = attr_end;
        }
    }
    spans.sort_unstable();
    spans
}

/// From just past an attribute, skips further attributes and scans to the
/// end of the item: the matching `}` of its first brace, or a `;`.
fn item_end(masked: &str, mut i: usize) -> Option<usize> {
    let bytes = masked.as_bytes();
    let n = bytes.len();
    loop {
        while i < n && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i < n && bytes[i] == b'#' {
            // Another attribute: skip to its `]`.
            while i < n && bytes[i] != b']' {
                i += 1;
            }
            i += 1;
            continue;
        }
        break;
    }
    while i < n && bytes[i] != b'{' && bytes[i] != b';' {
        i += 1;
    }
    if i >= n {
        return None;
    }
    if bytes[i] == b';' {
        return Some(i + 1);
    }
    let mut depth = 0i64;
    while i < n {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    Some(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = "let a = \"format!\"; // format!\nlet b = 1; /* format! */\n";
        let s = scan(src);
        assert!(!s.masked.contains("format!"));
        assert_eq!(s.masked.len(), src.len());
        assert_eq!(s.masked.matches('\n').count(), 2);
    }

    #[test]
    fn masks_raw_and_byte_strings() {
        let src = "let a = r#\"HashMap\"#; let b = b\"HashSet\"; let c = 'x';";
        let s = scan(src);
        assert!(!s.masked.contains("HashMap"));
        assert!(!s.masked.contains("HashSet"));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x.trim() }";
        let s = scan(src);
        assert!(s.masked.contains("x.trim()"));
    }

    #[test]
    fn test_mod_span_covers_body() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let s = scan(src);
        let off = src.find("unwrap").unwrap();
        assert!(s.in_test(off));
        assert!(!s.in_test(0));
    }

    #[test]
    fn allow_directive_parsed() {
        let src = "let m = 1; // lint:allow(float-accumulation): serial sum in slab order\n";
        let s = scan(src);
        assert_eq!(s.allows.len(), 1);
        assert_eq!(s.allows[0].rules, vec!["float-accumulation"]);
        assert!(s.allows[0].has_reason);
        assert!(!s.allows[0].own_line);
    }

    #[test]
    fn allow_without_reason_detected() {
        let src = "// lint:allow(expect-message)\nlet y = x.expect(\"no\");\n";
        let s = scan(src);
        assert_eq!(s.allows.len(), 1);
        assert!(!s.allows[0].has_reason);
        assert!(s.allows[0].own_line);
    }
}
