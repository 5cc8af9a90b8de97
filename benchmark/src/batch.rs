//! The batch workloads: N-Triples files in, printed matches out.
//!
//! Untraced, an iteration is one in-process `minoan resolve` call — the
//! entry point the CLI binary forwards to — timed from argv to the
//! returned text. Traced, the harness walks the same pipeline itself, one
//! span around each call into a layer's public functions.

use crate::report::{Report, BATCH_STAGES};
use crate::span::{self, Tracer};
use crate::worlds::BatchShape;
use crate::{alloc, stats, RunArgs};
use minoan_blocking::{filter, purge};
use minoan_datagen::{generate, GeneratedWorld};
use minoan_er::{Matcher, Pipeline, ProgressiveResolver};
use minoan_eval::metrics::match_quality;
use minoan_metablocking::Session;
use minoan_rdf::{ntriples, DatasetBuilder, EntityId, KbId};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How often set-up is repeated for the `setup_s` median.
const SETUP_REPEATS: usize = 3;
/// Fewest timed iterations a run reports a median of, however short
/// `--seconds` is.
const MIN_ITERATIONS: usize = 5;
/// Fewest rounds of the traced pass.
const MIN_TRACED_ROUNDS: usize = 2;
/// `--show` value that prints every match.
const SHOW_ALL: &str = "4294967295";

/// A generated world on disk: what the program under test gets to see is
/// `files`; the world itself stays with the harness as ground truth.
pub struct Inputs {
    /// One N-Triples file per KB.
    pub files: Vec<PathBuf>,
    /// The generator's output, kept for scoring.
    pub world: GeneratedWorld,
    /// Total size of `files`.
    pub bytes: u64,
}

/// Generates the world and writes one `.nt` file per KB into `dir`.
pub fn setup(shape: &BatchShape, dir: &Path) -> std::io::Result<Inputs> {
    let world = generate(&shape.world);
    std::fs::create_dir_all(dir)?;
    let mut files = Vec::new();
    let mut bytes = 0u64;
    for kb in 0..world.dataset.kb_count() {
        let id = KbId(kb as u16);
        let text = world.dataset.to_ntriples(id);
        let path = dir.join(format!("{}.nt", world.dataset.kb(id).name));
        std::fs::write(&path, &text)?;
        bytes += text.len() as u64;
        files.push(path);
    }
    Ok(Inputs {
        files,
        world,
        bytes,
    })
}

/// The `minoan resolve` command line of this workload.
pub fn resolve_argv(shape: &BatchShape, files: &[PathBuf]) -> Vec<String> {
    let mut argv = vec!["resolve".to_string()];
    for f in files {
        argv.push("--input".into());
        argv.push(f.to_string_lossy().into_owned());
    }
    argv.push("--show".into());
    argv.push(SHOW_ALL.into());
    argv.extend(shape.flags.iter().cloned());
    argv
}

/// The `uriA ≡ uriB` pairs of a `minoan resolve` report, as printed.
pub fn printed_pairs(report: &str) -> Vec<(&str, &str)> {
    report
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once("  ≡  ")?;
            Some((left.split_whitespace().last()?, right.trim()))
        })
        .collect()
}

/// Digest of the printed match lines (scores included), order-free.
pub fn printed_digest(report: &str) -> u64 {
    stats::digest_lines(report.lines().filter(|l| l.contains("  ≡  ")))
}

/// `(recall, precision)` of printed URI pairs against the generator's
/// truth. A URI the generator never emitted counts as a wrong match.
pub fn printed_quality(world: &GeneratedWorld, pairs: &[(&str, &str)]) -> (f64, f64) {
    // An unknown URI becomes a pair of one id with itself: `is_match` is
    // false for it and it still counts as emitted.
    let ids: Vec<(EntityId, EntityId)> = pairs
        .iter()
        .map(|(a, b)| {
            match (
                world.dataset.entity_by_uri(a),
                world.dataset.entity_by_uri(b),
            ) {
                (Some(a), Some(b)) => (a, b),
                _ => (EntityId(0), EntityId(0)),
            }
        })
        .collect();
    let q = match_quality(&world.truth, &ids);
    (q.recall, q.precision)
}

/// Compares every observed digest with the expected one, recording one
/// failed operation per mismatch.
pub fn check_digests(report: &mut Report, expected: u64, observed: &[u64]) {
    for (i, &d) in observed.iter().enumerate() {
        if d != expected {
            report.failed += 1;
            report.fail(format!(
                "iteration {i} printed match digest {d:016x}, expected {expected:016x}"
            ));
        }
    }
}

fn check_quality(report: &mut Report, shape: &BatchShape, recall: f64, precision: f64) {
    report.check(recall >= shape.recall_floor, || {
        format!("recall {recall} below the floor {}", shape.recall_floor)
    });
    report.check(precision >= shape.precision_floor, || {
        format!(
            "precision {precision} below the floor {}",
            shape.precision_floor
        )
    });
}

fn world_info(report: &mut Report, shape: &BatchShape, inputs: &Inputs) {
    report.info_raw("world_entities", shape.world.num_entities);
    report.info_raw("descriptions", inputs.world.dataset.len());
    report.info_raw("kbs", inputs.world.dataset.kb_count());
    report.info_raw("input_bytes", inputs.bytes);
    report.info_raw("truth_pairs", inputs.world.truth.matching_pairs());
    report.info_str("resolve_flags", &shape.flags.join(" "));
}

/// This process's own directory for the generated files.
fn work_dir(args: &RunArgs) -> PathBuf {
    args.tmp_dir
        .join(format!("{}-{}", args.workload, std::process::id()))
}

/// Set-up, timed [`SETUP_REPEATS`] times; the last set of inputs is kept.
fn timed_setup(shape: &BatchShape, dir: &Path, report: &mut Report) -> std::io::Result<Inputs> {
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        inputs = Some(setup(shape, dir)?);
        times.push(t.elapsed().as_secs_f64());
    }
    report.metric(
        "setup_s",
        stats::median(&times),
        format!("median of {SETUP_REPEATS}: world generation + N-Triples emission"),
    );
    report.sample("setup_s", times);
    Ok(inputs.expect("SETUP_REPEATS is at least one"))
}

/// The untraced pass: end-to-end metrics through `minoan_cli::run`.
pub fn run_untraced(
    shape: &BatchShape,
    args: &RunArgs,
    report: &mut Report,
) -> std::io::Result<()> {
    let dir = work_dir(args);
    let inputs = timed_setup(shape, &dir, report)?;
    world_info(report, shape, &inputs);
    let argv = resolve_argv(shape, &inputs.files);

    // Warm-up: page cache, allocator arenas, lazy statics. Its output is
    // the reference every timed iteration must reproduce.
    report.attempted += 1;
    let reference = minoan_cli::run(&argv).map_err(|e| std::io::Error::other(e.to_string()))?;
    let expected = args
        .expect_digest
        .unwrap_or_else(|| printed_digest(&reference));
    let mut digests = vec![printed_digest(&reference)];

    let mut walls = Vec::new();
    let started = Instant::now();
    while walls.len() < MIN_ITERATIONS || started.elapsed().as_secs_f64() < args.seconds {
        report.attempted += 1;
        let t = Instant::now();
        let out = minoan_cli::run(black_box(&argv));
        let wall = t.elapsed().as_secs_f64();
        match out {
            Ok(text) => {
                walls.push(wall);
                digests.push(printed_digest(black_box(&text)));
            }
            Err(e) => {
                report.failed += 1;
                report.fail(format!("minoan resolve failed: {e}"));
                break;
            }
        }
    }
    std::fs::remove_dir_all(&dir)?;
    if walls.is_empty() {
        return Ok(());
    }
    check_digests(report, expected, &digests);

    let (recall, precision) = printed_quality(&inputs.world, &printed_pairs(&reference));
    check_quality(report, shape, recall, precision);
    let (q1, p50, q3) = stats::quartiles(&walls);
    let steady = stats::steady_quartile(&walls, true);
    report.metric(
        "op_p50_ms",
        steady * 1e3,
        format!(
            "one `minoan resolve` call: lower quartile of n={} calls (q1={:.1} med={:.1} \
             q3={:.1} ms)",
            walls.len(),
            q1 * 1e3,
            p50 * 1e3,
            q3 * 1e3
        ),
    );
    report.metric(
        "throughput_per_s",
        inputs.world.dataset.len() as f64 / steady,
        "descriptions resolved per second at that call time",
    );
    report.metric("recall", recall, "printed URI pairs vs generator truth");
    report.metric(
        "precision",
        precision,
        "printed URI pairs vs generator truth",
    );
    report.info_str("match_digest", &format!("{:016x}", digests[0]));
    report.sample("batch_s", walls);
    Ok(())
}

/// What one staged pass produced, for cross-checks between passes.
struct StagedOutput {
    wall_s: f64,
    digest: u64,
    recall: f64,
    precision: f64,
    /// `(entity, block)` assignments in the raw collection.
    assignments: u64,
    /// Comparisons (with repetition) left after purge + filter.
    comparisons_clean: u64,
    /// Edges of the blocking graph meta-blocking pruned.
    input_edges: u64,
    /// Comparisons the matcher executed.
    comparisons: u64,
    /// Candidates the update phase discovered beyond blocking's.
    discovered: u64,
}

/// Walks the pipeline layer by layer, one span per call into a layer.
/// With an inactive tracer this is the same work without the records.
fn staged_pass(
    shape: &BatchShape,
    inputs: &Inputs,
    texts: &[String],
    tracer: &mut Tracer,
) -> StagedOutput {
    let cfg = &shape.config;
    let pipeline = Pipeline::new(cfg.clone());
    let threads = cfg.workers.unwrap_or_else(minoan_common::default_threads);
    let generated = &inputs.world.dataset;
    let started = Instant::now();
    tracer.enter("run", texts.len() as u64, inputs.bytes);

    let mut parsed = Vec::with_capacity(texts.len());
    for text in texts {
        let bytes = text.len() as u64;
        parsed.push(tracer.span("rdf.parse", bytes, bytes, || {
            let triples = ntriples::parse_document(text).expect("generated N-Triples parse");
            let n = triples.len() as u64;
            (triples, n)
        }));
    }

    let triples: u64 = parsed.iter().map(|t| t.len() as u64).sum();
    let dataset = tracer.span("rdf.dataset", triples, 0, || {
        let mut builder = DatasetBuilder::new();
        for (kb, triples) in parsed.iter().enumerate() {
            let info = generated.kb(KbId(kb as u16));
            let id = builder.add_kb(&info.name, &info.namespace);
            for t in triples {
                builder.add_triple(id, t);
            }
        }
        drop(parsed);
        let dataset = builder.build();
        let n = dataset.len() as u64;
        (dataset, n)
    });

    let raw = tracer.span("blocking.build", dataset.len() as u64, 0, || {
        let raw = pipeline.block(&dataset);
        let n = raw.len() as u64;
        (raw, n)
    });
    let assignments = raw.total_assignments();
    let purged = tracer.span("blocking.purge", raw.len() as u64, 0, || {
        let out = purge::purge_with_threads(&raw, purge::DEFAULT_SMOOTHING, threads).collection;
        let n = out.len() as u64;
        (out, n)
    });
    let ratio = cfg.filter_ratio.expect("both batch shapes filter");
    let clean = tracer.span("blocking.filter", purged.len() as u64, 0, || {
        let out = filter::filter_with_threads(&purged, ratio, threads);
        // As in `Pipeline::run`, only the cleaned collection outlives
        // block cleaning.
        drop(purged);
        drop(raw);
        let n = out.len() as u64;
        (out, n)
    });
    let comparisons_clean = clean.total_comparisons();

    tracer.enter("metablocking.run", comparisons_clean, 0);
    let mut session = Session::new(&clean);
    session
        .scheme(cfg.weighting)
        .pruning(cfg.pruning)
        .backend(cfg.backend);
    if let Some(w) = cfg.workers {
        session.workers(w);
    }
    let outcome = session.run();
    let input_edges = outcome.input_edges() as u64;
    let candidates = outcome.into_candidates();
    drop(session);
    tracer.exit(candidates.len() as u64);

    let matcher = tracer.span("core.matcher", dataset.len() as u64, 0, || {
        (Matcher::new(&dataset, cfg.matcher.clone()), 0)
    });
    let resolution = tracer.span("core.resolve", candidates.len() as u64, 0, || {
        let r = ProgressiveResolver::new(&dataset, matcher, cfg.resolver.clone()).run(&candidates);
        let n = r.matches.len() as u64;
        (r, n)
    });
    tracer.exit(resolution.matches.len() as u64);
    let wall_s = started.elapsed().as_secs_f64();

    let lines: Vec<String> = resolution
        .matches
        .iter()
        .map(|(a, b, _)| format!("{} ≡ {}", dataset.uri(*a), dataset.uri(*b)))
        .collect();
    let pairs: Vec<(&str, &str)> = resolution
        .matches
        .iter()
        .map(|(a, b, _)| (dataset.uri(*a), dataset.uri(*b)))
        .collect();
    let (recall, precision) = printed_quality(&inputs.world, &pairs);
    StagedOutput {
        wall_s,
        digest: stats::digest_lines(lines.iter().map(String::as_str)),
        recall,
        precision,
        assignments,
        comparisons_clean,
        input_edges,
        comparisons: resolution.comparisons,
        discovered: resolution.discovered_candidates as u64,
    }
}

/// The traced pass: per-layer metrics from spans around each layer call.
pub fn run_traced(shape: &BatchShape, args: &RunArgs, report: &mut Report) -> std::io::Result<()> {
    let dir = work_dir(args);
    let inputs = setup(shape, &dir)?;
    world_info(report, shape, &inputs);
    let argv = resolve_argv(shape, &inputs.files);
    let texts: Vec<String> = inputs
        .files
        .iter()
        .map(std::fs::read_to_string)
        .collect::<Result<_, _>>()?;

    let mut cli_s = Vec::new();
    let mut plain_s = Vec::new();
    let mut spans_s = Vec::new();
    let mut counted_s = Vec::new();
    // Per round: the span list that carries the stage times, and the one
    // that carries the allocation counts.
    let mut rounds: Vec<Vec<span::Span>> = Vec::new();
    let mut counted: Vec<Vec<span::Span>> = Vec::new();
    let mut digests = Vec::new();
    let mut counts = None;
    let started = Instant::now();
    while rounds.len() < MIN_TRACED_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        // (a) the entry point users call, for the unattributed share;
        report.attempted += 1;
        let t = Instant::now();
        if let Err(e) = minoan_cli::run(black_box(&argv)) {
            report.failed += 1;
            report.fail(format!("minoan resolve failed: {e}"));
            break;
        }
        cli_s.push(t.elapsed().as_secs_f64());
        // (b) the staged walk without any record: the overhead baseline;
        let plain = staged_pass(shape, &inputs, &texts, &mut Tracer::inactive());
        plain_s.push(plain.wall_s);
        // (c) the staged walk with spans: every stage time comes from here;
        let mut timed = Tracer::new();
        let spans = staged_pass(shape, &inputs, &texts, &mut timed);
        spans_s.push(spans.wall_s);
        // (d) the staged walk with spans and allocation counting: counts
        // and peaks come from here, times do not — counting costs a few
        // atomic operations per allocation, unevenly across stages.
        let mut counting = Tracer::new();
        alloc::enable();
        let with_counts = staged_pass(shape, &inputs, &texts, &mut counting);
        alloc::disable();
        counted_s.push(with_counts.wall_s);
        digests.extend([plain.digest, spans.digest, with_counts.digest]);
        rounds.push(timed.spans().to_vec());
        counted.push(counting.spans().to_vec());
        counts = Some(spans);
    }
    std::fs::remove_dir_all(&dir)?;
    let (Some(last), Some(counts)) = (rounds.last(), counts) else {
        return Ok(());
    };
    check_digests(report, digests[0], &digests);
    check_quality(report, shape, counts.recall, counts.precision);
    if let Some(path) = &args.spans_out {
        let dump = counted.last().expect("one per round");
        std::fs::write(path, span::spans_json(dump))?;
    }

    // Median over rounds of a per-round quantity of a span list.
    let median_of = |lists: &[Vec<span::Span>], f: &dyn Fn(&[span::Span]) -> f64| -> f64 {
        stats::median(&lists.iter().map(|r| f(r)).collect::<Vec<f64>>())
    };
    let over_rounds = |f: &dyn Fn(&[span::Span]) -> f64| median_of(&rounds, f);
    let secs = |name: &'static str| over_rounds(&move |r| span::total_ns(r, name) as f64 / 1e9);
    let first = |name: &str| span::find(last, name).expect("every stage ran");

    let parse_s = secs("rdf.parse");
    let triples: u64 = last
        .iter()
        .filter(|s| s.name == "rdf.parse")
        .map(|s| s.items_out)
        .sum();
    report.metric("rdf.parse_s", parse_s, format!("{} files", texts.len()));
    report.metric("rdf.parse_triples", triples as f64, "");
    report.metric(
        "rdf.parse_mb_per_s",
        inputs.bytes as f64 / 1e6 / parse_s,
        "",
    );
    report.metric(
        "rdf.dataset_s",
        secs("rdf.dataset"),
        "add_kb + add_triple + build",
    );
    report.metric(
        "rdf.descriptions",
        first("rdf.dataset").items_out as f64,
        "",
    );
    let build_s = secs("blocking.build");
    report.metric("blocking.build_s", build_s, "Pipeline::block");
    report.metric(
        "blocking.blocks_raw",
        first("blocking.build").items_out as f64,
        "",
    );
    report.metric(
        "blocking.build_ns_per_assignment",
        build_s * 1e9 / counts.assignments as f64,
        format!("{} assignments", counts.assignments),
    );
    report.metric("blocking.purge_s", secs("blocking.purge"), "");
    report.metric("blocking.filter_s", secs("blocking.filter"), "");
    report.metric(
        "blocking.blocks_clean",
        first("blocking.filter").items_out as f64,
        "",
    );
    report.metric(
        "blocking.comparisons_clean",
        counts.comparisons_clean as f64,
        "",
    );
    let candidates = first("metablocking.run").items_out as f64;
    report.metric(
        "metablocking.run_s",
        secs("metablocking.run"),
        "Session::run",
    );
    report.metric("metablocking.input_edges", counts.input_edges as f64, "");
    report.metric("metablocking.candidates", candidates, "");
    report.metric(
        "metablocking.retention",
        candidates / (counts.input_edges as f64).max(1.0),
        "candidates ÷ input edges",
    );
    let matches = first("core.resolve").items_out as f64;
    report.metric("core.matcher_s", secs("core.matcher"), "Matcher::new");
    report.metric(
        "core.resolve_s",
        secs("core.resolve"),
        "ProgressiveResolver::run",
    );
    report.metric("core.comparisons", counts.comparisons as f64, "");
    report.metric("core.matches", matches, "");
    report.metric(
        "core.match_yield",
        matches / (counts.comparisons as f64).max(1.0),
        "matches ÷ comparisons",
    );
    report.metric("core.discovered", counts.discovered as f64, "");
    for stage in BATCH_STAGES {
        report.metric(
            &format!("{stage}_allocs"),
            median_of(&counted, &|r| {
                r.iter()
                    .filter(|s| s.name == stage)
                    .map(|s| s.allocs)
                    .sum::<u64>() as f64
            }),
            "",
        );
        report.metric(
            &format!("{stage}_peak_mb"),
            median_of(&counted, &|r| {
                r.iter()
                    .filter(|s| s.name == stage)
                    .map(|s| s.peak_bytes)
                    .max()
                    .unwrap_or(0) as f64
                    / 1e6
            }),
            "high-water mark of the pass's own heap",
        );
    }

    let cli = stats::median(&cli_s);
    let plain = stats::median(&plain_s);
    let traced = stats::median(&spans_s);
    report.metric(
        "cli.unattributed_pct",
        100.0 * (cli - plain) / cli,
        format!("`minoan resolve` {cli:.4} s vs staged walk {plain:.4} s"),
    );
    report.metric(
        "trace.total_s",
        traced,
        format!("n={} rounds", rounds.len()),
    );
    report.metric(
        "trace.stage_gap_pct",
        over_rounds(&|r| {
            let root = r.iter().position(|s| s.name == "run").expect("root span");
            span::gap_pct(r, root)
        }),
        "root span time no stage span covers",
    );
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced - plain) / plain,
        "staged walk with spans vs without (the pass stage times come from)",
    );
    report.metric(
        "trace.alloc_counting_pct",
        100.0 * (stats::median(&counted_s) - plain) / plain,
        "staged walk with spans + allocation counting vs without (the pass counts come from)",
    );
    report.info_str("match_digest", &format!("{:016x}", digests[0]));
    report.sample("cli_s", cli_s);
    report.sample("staged_untraced_s", plain_s);
    report.sample("staged_spans_s", spans_s);
    report.sample("staged_counted_s", counted_s);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "2 KBs, 4 descriptions | blocks 3 → 3 | candidates 2 | comparisons 2 | matches 2 | discovered 0\n  0.823  http://a.example.org/resource/X  ≡  http://b.example.org/resource/X\n  0.900  http://a.example.org/resource/Y  ≡  http://b.example.org/resource/7\n";

    #[test]
    fn printed_pairs_are_read_back_from_the_report() {
        assert_eq!(
            printed_pairs(REPORT),
            [
                (
                    "http://a.example.org/resource/X",
                    "http://b.example.org/resource/X"
                ),
                (
                    "http://a.example.org/resource/Y",
                    "http://b.example.org/resource/7"
                ),
            ]
        );
        assert!(printed_pairs("2 KBs, 4 descriptions | matches 0\n").is_empty());
    }

    #[test]
    fn digest_covers_match_lines_only_and_ignores_their_order() {
        let mut lines: Vec<&str> = REPORT.lines().collect();
        lines.swap(1, 2);
        lines[0] = "a different header";
        let reordered = lines.join("\n");
        assert_eq!(printed_digest(REPORT), printed_digest(&reordered));
        let changed = REPORT.replace("0.900", "0.901");
        assert_ne!(printed_digest(REPORT), printed_digest(&changed));
    }

    #[test]
    fn a_digest_mismatch_is_a_failed_operation() {
        let mut report = Report::default();
        check_digests(&mut report, 7, &[7, 7, 7]);
        assert!(report.correct());
        check_digests(&mut report, 7, &[7, 8, 7]);
        assert_eq!(report.failed, 1);
        assert!(!report.correct());
    }
}
