//! The `reproduce` binary's command line: a bad argument is a usage error
//! (exit 2), never a panic, and one experiment at a small scale runs.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("the reproduce binary starts")
}

#[test]
fn scale_zero_is_a_usage_error() {
    let out = reproduce(&["exp2", "--scale", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--scale needs a positive integer"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: reproduce"), "{stderr}");
}

#[test]
fn one_experiment_runs_at_a_small_scale() {
    let out = reproduce(&["exp2", "--scale", "60", "--seed", "7"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("token+uri"), "{stdout}");
}
