//! Experiment harness for the MinoanER reproduction.
//!
//! Each `expN` function regenerates one experiment of the
//! [`EXPERIMENTS`] table and returns its report as plain text; the
//! `reproduce` binary prints them and writes no results file. Timings
//! are the ledger's (`BENCHMARK.json` + `benchmark/`, which time
//! `minoan_cli::run` and the server, per layer under `--trace 1`).

pub mod experiments;
pub mod experiments2;

pub use experiments::*;
pub use experiments2::*;
