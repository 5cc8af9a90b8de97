//! Regenerates every experiment table and figure from EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! cargo run --release -p minoan-bench --bin reproduce [exp2|...|exp17|all] [--scale N] [--seed S]
//! ```

use minoan_bench::experiments::{self, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut scale = experiments::DEFAULT_SCALE;
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a positive integer"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            other if other.starts_with("exp") || other == "all" => which = other.to_string(),
            other => die(&format!("unknown argument: {other}")),
        }
        i += 1;
    }

    let report = match EXPERIMENTS.iter().find(|(name, _)| *name == which) {
        Some((_, run)) => run(scale, seed),
        None if which == "all" => experiments::run_all(scale, seed),
        None => die(&format!("unknown experiment: {which}")),
    };
    println!("{report}");
}

fn die(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: reproduce [{}|all] [--scale N] [--seed S]",
        names.join("|")
    );
    std::process::exit(2);
}
