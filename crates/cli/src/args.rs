//! A minimal, dependency-free option parser.
//!
//! Grammar: `minoan <command> [--flag] [--key value]...`. Repeated `--key`
//! accumulates (used for `--input`). What a command accepts is declared
//! once, by the synopsis `help` prints for it; an option it does not
//! declare is an error — typos must not silently change an experiment.

use std::collections::BTreeMap;

/// Parsed command line.
#[derive(Debug, Default, Clone)]
pub struct Args {
    /// The subcommand (first positional).
    pub command: String,
    /// `--key value` options; repeated keys accumulate in order.
    options: BTreeMap<String, Vec<String>>,
    /// Bare `--flag` options.
    flags: Vec<String>,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// The options a command synopsis declares, as `(name, is_flag)`: every
/// `--name` followed by a placeholder takes a value, every `[--name]` is a
/// bare flag. `"--out DIR [--input F ...] [--dirty]"` declares `out` and
/// `input` with values and the flag `dirty`.
fn declared(synopsis: &str) -> impl Iterator<Item = (&str, bool)> {
    synopsis.split_whitespace().filter_map(|token| {
        let name = token.trim_start_matches('[').strip_prefix("--")?;
        Some(match name.strip_suffix(']') {
            Some(flag) => (flag, true),
            None => (name, false),
        })
    })
}

impl Args {
    /// Parses `argv` (without the program name) against the synopsis of
    /// its command — `--name X` takes a value, `[--name]` is a bare flag —
    /// so an option the synopsis does not declare is an error.
    pub fn parse(argv: &[String], synopsis: &str) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut it = argv.iter().peekable();
        out.command = it
            .next()
            .cloned()
            .ok_or_else(|| ArgError("missing command; try `minoan help`".into()))?;
        if out.command.starts_with("--") {
            return Err(ArgError(format!(
                "expected a command, got option {}",
                out.command
            )));
        }
        while let Some(token) = it.next() {
            let Some(name) = token.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument {token:?}"
                )));
            };
            if name.is_empty() {
                return Err(ArgError("bare `--` is not supported".into()));
            }
            let Some((_, is_flag)) = declared(synopsis).find(|&(known, _)| known == name) else {
                return Err(ArgError(format!(
                    "unknown option --{name} for {}; try `minoan help`",
                    out.command
                )));
            };
            if is_flag {
                out.flags.push(name.to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| ArgError(format!("option --{name} requires a value")))?;
            if value.starts_with("--") {
                return Err(ArgError(format!(
                    "option --{name} requires a value, got {value}"
                )));
            }
            out.options
                .entry(name.to_string())
                .or_default()
                .push(value.clone());
        }
        Ok(out)
    }

    /// Single-valued option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .get(key)
            .and_then(|v| v.last())
            .map(|s| s.as_str())
    }

    /// All values of a repeatable option.
    pub fn get_all(&self, key: &str) -> &[String] {
        self.options.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Whether a bare flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Required option with a helpful error.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// Parses an option as `T`, with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse::<T>()
                .map_err(|_| ArgError(format!("option --{key}: cannot parse {raw:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = Args::parse(
            &argv("resolve --input a.nt --input b.nt --budget 100 --verbose"),
            "--input F [--input F ...] [--budget N] [--verbose]",
        )
        .unwrap();
        assert_eq!(a.command, "resolve");
        assert_eq!(
            a.get_all("input"),
            &["a.nt".to_string(), "b.nt".to_string()]
        );
        assert_eq!(a.get("budget"), Some("100"));
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(Args::parse(&[], "").is_err());
        assert!(Args::parse(&argv("--input x"), "--input F").is_err());
    }

    #[test]
    fn option_without_value_is_an_error() {
        let synopsis = "--input F [--other X]";
        assert!(Args::parse(&argv("stats --input"), synopsis).is_err());
        assert!(Args::parse(&argv("stats --input --other x"), synopsis).is_err());
    }

    #[test]
    fn positional_after_command_rejected() {
        assert!(Args::parse(&argv("stats file.nt"), "--input F").is_err());
    }

    #[test]
    fn last_value_wins_for_get() {
        let a = Args::parse(&argv("x --seed 1 --seed 2"), "[--seed S]").unwrap();
        assert_eq!(a.get("seed"), Some("2"));
        assert_eq!(a.get_all("seed").len(), 2);
    }

    #[test]
    fn get_parsed_defaults_and_errors() {
        let a = Args::parse(&argv("x --n 42"), "[--n N]").unwrap();
        assert_eq!(a.get_parsed("n", 0u64).unwrap(), 42);
        assert_eq!(a.get_parsed("missing", 7u64).unwrap(), 7);
        let bad = Args::parse(&argv("x --n forty"), "[--n N]").unwrap();
        assert!(bad.get_parsed("n", 0u64).is_err());
    }

    #[test]
    fn require_reports_the_key() {
        let a = Args::parse(&argv("x"), "--out DIR").unwrap();
        let err = a.require("out").unwrap_err();
        assert!(err.0.contains("--out"));
    }
}
