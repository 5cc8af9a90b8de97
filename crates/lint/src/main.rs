//! The `minoan-lint` binary.
//!
//! ```text
//! minoan-lint [--deny]
//! ```
//!
//! Lints the workspace that contains the current directory. Without
//! `--deny` the run always exits 0 (report mode); with `--deny` any
//! surviving diagnostic exits 1 — that is the CI gate. Usage errors and an
//! unreadable tree exit 2.

use minoan_lint::{find_root, lint_workspace};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--deny" => deny = true,
            other => {
                eprintln!("minoan-lint: unknown argument `{other}` (usage: minoan-lint [--deny])");
                return ExitCode::from(2);
            }
        }
    }
    let cwd = std::env::current_dir().expect("current directory must be readable");
    let Some(root) = find_root(&cwd) else {
        eprintln!("minoan-lint: no workspace root found (run inside the repo)");
        return ExitCode::from(2);
    };
    let outcome = match lint_workspace(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("minoan-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &outcome.fired {
        println!(
            "{}:{}:{}: {} [{}] {}",
            d.path, d.line, d.col, d.code, d.rule, d.message
        );
    }
    let fired = outcome.fired.len();
    println!(
        "minoan-lint: {fired} diagnostic{} ({} allowed) across {} files",
        if fired == 1 { "" } else { "s" },
        outcome.allowed.len(),
        outcome.files
    );
    if deny && fired > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
