//! Experiment harness for the MinoanER reproduction.
//!
//! Each `expN` function regenerates one experiment from EXPERIMENTS.md and
//! returns its report as plain text; the `reproduce` binary prints them.
//! Criterion micro-benchmarks live in `benches/`. Neither writes a results
//! file: end-to-end timings are the ledger's (`BENCHMARK.json` +
//! `benchmark/`, which time `minoan_cli::run` and the server).

pub mod experiments;
pub mod experiments2;

pub use experiments::*;
pub use experiments2::*;
