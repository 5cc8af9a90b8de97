//! Command-line interface to the MinoanER reproduction.
//!
//! The binary is a thin wrapper over [`commands::run`]; everything,
//! including output formatting, lives in the library so the test suite can
//! exercise commands end-to-end.
//!
//! ```text
//! minoan generate --profile center --entities 500 --seed 42 --out /tmp/world
//! minoan stats    --input /tmp/world/dbp.nt --input /tmp/world/ygo.nt
//! minoan resolve  --input /tmp/world/dbp.nt --input /tmp/world/ygo.nt
//! minoan eval     --profile lod --entities 400 --seed 7 --strategy progressive:coverage
//! ```

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};
pub use commands::{run, CliError};
