//! `lint.toml` parsing and path-glob matching.
//!
//! The config is a flat list of `[[allow]]` entries:
//!
//! ```toml
//! [[allow]]
//! rule = "unwrap-in-lib"
//! path = "crates/common/src/*.rs"
//! reason = "the panic message is checked by the caller above"
//! ```
//!
//! `path` is a glob over workspace-relative paths (`*` within one path
//! segment, `**` across segments). `line` optionally pins the entry to one
//! line. Every entry **must** carry a `reason` of at least ten characters
//! and name a rule the engine knows — an allowlist entry without a
//! written justification, or one left behind by a retired rule, is a
//! config error.

/// One `[[allow]]` entry from `lint.toml`.
#[derive(Clone, Debug)]
pub struct ConfigAllow {
    /// Rule name the entry suppresses.
    pub rule: String,
    /// Workspace-relative path glob.
    pub path: String,
    /// Optional 1-based line restriction.
    pub line: Option<u32>,
    /// Written justification (required, ≥ 10 chars).
    pub reason: String,
}

/// Parsed lint configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Allowlist entries, in file order.
    pub allows: Vec<ConfigAllow>,
}

impl Config {
    /// Parses the restricted TOML subset used by `lint.toml`.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut allows: Vec<ConfigAllow> = Vec::new();
        let mut current: Option<(usize, ConfigAllow)> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                if let Some((at, entry)) = current.take() {
                    validate(at, &entry)?;
                    allows.push(entry);
                }
                current = Some((
                    idx + 1,
                    ConfigAllow {
                        rule: String::new(),
                        path: String::new(),
                        line: None,
                        reason: String::new(),
                    },
                ));
                continue;
            }
            let Some((at, entry)) = current.as_mut() else {
                return Err(format!(
                    "lint.toml:{}: content outside an [[allow]] entry: `{line}`",
                    idx + 1
                ));
            };
            let _ = at;
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("lint.toml:{}: expected `key = value`", idx + 1));
            };
            let key = key.trim();
            let value = value.trim();
            match key {
                "rule" => entry.rule = unquote(value, idx + 1)?,
                "path" => entry.path = unquote(value, idx + 1)?,
                "reason" => entry.reason = unquote(value, idx + 1)?,
                "line" => {
                    entry.line =
                        Some(value.parse::<u32>().map_err(|_| {
                            format!("lint.toml:{}: `line` must be an integer", idx + 1)
                        })?)
                }
                other => {
                    return Err(format!("lint.toml:{}: unknown key `{other}`", idx + 1));
                }
            }
        }
        if let Some((at, entry)) = current.take() {
            validate(at, &entry)?;
            allows.push(entry);
        }
        Ok(Config { allows })
    }
}

fn validate(at: usize, entry: &ConfigAllow) -> Result<(), String> {
    if entry.rule.is_empty() {
        return Err(format!("lint.toml:{at}: [[allow]] entry is missing `rule`"));
    }
    if crate::rules::rule_by_name(&entry.rule).is_none() {
        return Err(format!(
            "lint.toml:{at}: [[allow]] entry names no rule: `{}`",
            entry.rule
        ));
    }
    if entry.path.is_empty() {
        return Err(format!("lint.toml:{at}: [[allow]] entry is missing `path`"));
    }
    if entry.reason.trim().len() < 10 {
        return Err(format!(
            "lint.toml:{at}: [[allow]] entry for `{}` on `{}` needs a written \
             justification (`reason`, at least 10 characters)",
            entry.rule, entry.path
        ));
    }
    Ok(())
}

fn unquote(value: &str, line: usize) -> Result<String, String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!(
            "lint.toml:{line}: expected a quoted string, got `{v}`"
        ))
    }
}

/// Removes a trailing `# comment`, respecting quoted strings.
pub(crate) fn strip_toml_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Matches `path` against `pattern`: `*` spans within one `/`-separated
/// segment, `**` spans any number of segments.
pub fn glob_match(pattern: &str, path: &str) -> bool {
    let pat: Vec<&str> = pattern.split('/').collect();
    let segs: Vec<&str> = path.split('/').collect();
    match_segments(&pat, &segs)
}

fn match_segments(pat: &[&str], segs: &[&str]) -> bool {
    match pat.first() {
        None => segs.is_empty(),
        Some(&"**") => (0..=segs.len()).any(|skip| match_segments(&pat[1..], &segs[skip..])),
        Some(p) => match segs.first() {
            None => false,
            Some(s) => {
                match_one(p.as_bytes(), s.as_bytes()) && match_segments(&pat[1..], &segs[1..])
            }
        },
    }
}

fn match_one(pat: &[u8], s: &[u8]) -> bool {
    if pat.is_empty() {
        return s.is_empty();
    }
    if pat[0] == b'*' {
        (0..=s.len()).any(|skip| match_one(&pat[1..], &s[skip..]))
    } else {
        !s.is_empty() && pat[0] == s[0] && match_one(&pat[1..], &s[1..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries() {
        let cfg = Config::parse(
            "# header\n[[allow]]\nrule = \"dep-drift\"\npath = \"crates/x/Cargo.toml\"\n\
             reason = \"because of the vendored shim layer\"\n\n[[allow]]\n\
             rule = \"unwrap-in-lib\"\npath = \"crates/*/src/*.rs\"\nline = 12\n\
             reason = \"message is checked above\"  # trailing\n",
        )
        .unwrap();
        assert_eq!(cfg.allows.len(), 2);
        assert_eq!(cfg.allows[0].rule, "dep-drift");
        assert_eq!(cfg.allows[1].line, Some(12));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let err = Config::parse("[[allow]]\nrule = \"dep-drift\"\npath = \"y\"\n").unwrap_err();
        assert!(err.contains("justification"), "{err}");
    }

    #[test]
    fn globs() {
        assert!(glob_match(
            "crates/*/src/*.rs",
            "crates/blocking/src/purge.rs"
        ));
        assert!(!glob_match(
            "crates/*/src/*.rs",
            "crates/blocking/src/sub/purge.rs"
        ));
        assert!(glob_match(
            "crates/**/*.rs",
            "crates/blocking/src/sub/purge.rs"
        ));
        assert!(glob_match(
            "crates/bench/src/**",
            "crates/bench/src/experiments.rs"
        ));
        assert!(glob_match("tests/*.rs", "tests/blocking_layout.rs"));
        assert!(!glob_match("tests/*.rs", "crates/x/tests/y.rs"));
    }
}
