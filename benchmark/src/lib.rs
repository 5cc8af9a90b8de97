//! The MinoanER benchmark harness.
//!
//! Two binaries share this library. `bench` (untraced) drives the entry
//! points users call — `minoan_cli::run(["resolve", …])` in-process for
//! the batch path, `Server` + `Client` over loopback TCP for the serving
//! path — and reports the end-to-end metrics. `bench-traced` installs a
//! counting allocator, wraps a span around each call into a layer's
//! public functions, and reports the per-layer metrics. No code under
//! `crates/` knows about either.
//!
//! API surface rule: the harness links only entry points the ROADMAP
//! keeps (`minoan_cli::run`, `ntriples::parse_document`, `DatasetBuilder`,
//! `Pipeline::block`, `purge_with_threads`, `filter_with_threads`,
//! `Session`, `Matcher::new`, `ProgressiveResolver::run`,
//! `IncrementalCollection::ingest`, `IncrementalSession::{ingest,
//! resolve_entity}`, `ResolveService`, `Server`, `Client`,
//! `protocol::{write_*, read_*}`, `datagen::{generate, WorldConfig,
//! KbConfig}`, `eval::metrics`) — never the probe counters, the legacy
//! oracles, the store or the old bench crate, so the PRs that delete
//! those cannot break this benchmark. `run.sh --smoke` greps for it.

pub mod affinity;
pub mod alloc;
pub mod batch;
pub mod openloop;
pub mod report;
pub mod serve;
pub mod span;
pub mod stats;
pub mod worlds;

use report::Report;
use std::path::PathBuf;
use worlds::Size;

/// One invocation's arguments.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// One of [`worlds::WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    /// `--trace 1`: per-layer metrics; `--trace 0`: end-to-end metrics.
    pub traced: bool,
    /// Full or smoke worlds.
    pub size: Size,
    /// Where generated inputs are written (and removed from again).
    pub tmp_dir: PathBuf,
    /// Where to write the span dump of a traced run.
    pub spans_out: Option<PathBuf>,
    /// Where to write the full JSON record of the run.
    pub result_out: Option<PathBuf>,
    /// A match digest the batch workload must reproduce (hex).
    pub expect_digest: Option<u64>,
}

const USAGE: &str = "usage: bench --workload batch_lod|batch_dirty|serve_hot|serve_churn \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--tmp-dir DIR] [--spans-out FILE] \
[--result-out FILE] [--expect-digest HEX]";

impl RunArgs {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = RunArgs {
            workload: String::new(),
            seed: 11,
            seconds: 15.0,
            traced: false,
            size: Size::Full,
            // Inside the checkout the binary was built from (git-ignored).
            tmp_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.tmp")),
            spans_out: None,
            result_out: None,
            expect_digest: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                args.size = Size::Smoke;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("{flag}: cannot parse {value:?}\n{USAGE}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad())?;
                    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    args.traced = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--tmp-dir" => args.tmp_dir = PathBuf::from(value),
                "--spans-out" => args.spans_out = Some(PathBuf::from(value)),
                "--result-out" => args.result_out = Some(PathBuf::from(value)),
                "--expect-digest" => {
                    args.expect_digest = Some(u64::from_str_radix(value, 16).map_err(|_| bad())?);
                }
                _ => return Err(format!("unknown option {flag}\n{USAGE}")),
            }
        }
        if !worlds::WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {:?}\n{USAGE}", args.workload));
        }
        Ok(args)
    }
}

/// Runs one workload in one mode and returns what it found.
pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    report.info_raw("seed", args.seed);
    report.info_raw("seconds", args.seconds);
    report.info_raw("smoke", args.size == Size::Smoke);
    report.info_raw(
        "host_cores",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let outcome = match args.workload.as_str() {
        name @ ("batch_lod" | "batch_dirty") => {
            let shape = if name == "batch_lod" {
                worlds::batch_lod(args.seed, args.size)
            } else {
                worlds::batch_dirty(args.seed, args.size)
            };
            // Batch runs are not pinned: `--workers 2` must be able to
            // use two cores where the host has them.
            report.info_raw("pinned_cpus", "[]");
            report.info_raw("threads", shape.config.workers.map_or(0, |w| w));
            if args.traced {
                batch::run_traced(&shape, args, &mut report)
            } else {
                batch::run_untraced(&shape, args, &mut report)
            }
        }
        name => {
            let shape = if name == "serve_hot" {
                worlds::serve_hot(args.seed, args.size)
            } else {
                worlds::serve_churn(args.seed, args.size)
            };
            let pinned = affinity::pin_to_one_cpu();
            report.info_raw("pinned_cpus", format!("{pinned:?}"));
            report.info_raw("threads", serve::SERVER_WORKERS);
            if args.traced {
                serve::run_traced(&shape, args, &mut report)
            } else {
                serve::run_untraced(&shape, args, &mut report)
            }
        }
    };
    if let Err(e) = outcome {
        report.failed += 1;
        report.fail(format!("i/o error: {e}"));
    }
    report.finish(args.traced);
    report
}

/// The whole of either binary's `main`: parse, run, print, exit. `traced`
/// says which binary this is; asking one for the other's mode is an error
/// rather than a silently different measurement.
pub fn main_with(traced_binary: bool) -> ! {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match RunArgs::parse(&argv) {
        Ok(args) if args.traced == traced_binary => args,
        Ok(_) => {
            eprintln!(
                "--trace {} needs the {} binary",
                u8::from(!traced_binary),
                if traced_binary {
                    "bench"
                } else {
                    "bench-traced"
                }
            );
            std::process::exit(2);
        }
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    print!("{}", report.lines(&args.workload, args.traced));
    if let Some(path) = &args.result_out {
        if let Err(e) = std::fs::write(path, report.record_json(&args.workload, args.traced)) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    println!("{}", report.driver_json(args.traced));
    std::process::exit(if report.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = RunArgs::parse(&argv(
            "--workload serve_churn --seed 7 --seconds 15 --trace 1",
        ))
        .expect("the driver's command line");
        assert_eq!(a.workload, "serve_churn");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 15.0);
        assert!(a.traced);
        assert_eq!(a.size, Size::Full);
    }

    /// End to end at smoke size: the run that reproduces its digest is
    /// correct, the same run held to a corrupted digest is not.
    #[test]
    fn a_corrupted_expected_digest_fails_the_run() {
        let mut args = RunArgs::parse(&argv("--workload batch_lod --smoke --seconds 0.05"))
            .expect("valid arguments");
        let good = run(&args);
        assert!(good.correct(), "{:?}", good.failures);
        let digest = good
            .info
            .iter()
            .find(|(k, _)| k == "match_digest")
            .map(|(_, v)| u64::from_str_radix(v.trim_matches('"'), 16).expect("hex digest"))
            .expect("a batch run records its digest");

        args.expect_digest = Some(digest);
        let pinned = run(&args);
        assert!(
            pinned.correct(),
            "the true digest must pass: {:?}",
            pinned.failures
        );

        args.expect_digest = Some(digest ^ 1);
        let corrupted = run(&args);
        assert!(!corrupted.correct(), "a corrupted digest must fail the run");
        assert!(
            corrupted.failed > 0,
            "each mismatching iteration is a failed operation"
        );
        assert!(corrupted
            .driver_json(false)
            .starts_with("{\"correct\": false"));
        assert!(corrupted.failures.iter().any(|f| f.contains("expected")));
    }

    #[test]
    fn bad_arguments_are_errors_not_defaults() {
        assert!(RunArgs::parse(&argv("--workload nope")).is_err());
        assert!(RunArgs::parse(&argv("--seed 3")).is_err());
        assert!(RunArgs::parse(&argv("--workload batch_lod --trace 2")).is_err());
        assert!(RunArgs::parse(&argv("--workload batch_lod --seconds 0")).is_err());
        assert!(RunArgs::parse(&argv("--workload batch_lod --bogus 1")).is_err());
        assert!(RunArgs::parse(&argv("--workload batch_lod --seed")).is_err());
    }
}
