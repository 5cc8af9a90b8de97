//! Subcommand implementations.
//!
//! Every command returns the full text it would print, so the test suite
//! drives commands end-to-end and asserts on the output; `main` only
//! forwards to [`run`] and prints.

use crate::args::{ArgError, Args};
use minoan_blocking::builders::TokenKeys;
use minoan_blocking::{Corpus, ErMode};
use minoan_datagen::{generate, profiles, ArrivalOrder, WorldConfig};
use minoan_er::clustering::ClusteringAlgorithm;
use minoan_er::pipeline::{BlockingMethod, Pipeline, PipelineConfig};
use minoan_er::{
    BenefitModel, IncrementalConfig, IncrementalResolver, Matcher, MatcherConfig, Strategy,
};
use minoan_eval::{metrics, progressive_curves, recall_auc};
use minoan_rdf::{Dataset, DatasetBuilder, KbId};
use minoan_server::{Client, ResolveService, Server};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// A CLI failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError(e.0)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

/// What `minoan help` prints. A command's synopsis — its lines here up to
/// its first line of prose — is also the declaration of every option it
/// accepts (`--name X` takes a value, `[--name]` is a bare flag; see
/// [`Args::parse`]): anything else on its command line is an error before
/// any work starts.
const HELP: &str =
    "minoan — progressive entity resolution in the Web of Data (EDBT 2016 reproduction)

COMMANDS
  generate  --profile P --entities N --seed S --out DIR
            Generate a synthetic LOD world: one N-Triples file per KB plus
            truth.tsv with the ground-truth matching URI pairs.
  stats     --input FILE.nt [--input FILE.nt ...]
            Per KB: descriptions, statements, predicates, resource vs
            literal values; overall: predicates, the share only one KB
            uses, the top 5. Repeated statements count once per KB file.
  resolve   --input FILE.nt --input FILE.nt [--strategy S] [--budget N]
            [--blocking B] [--backend streaming|mapreduce]
            [--workers N] [--pruning P] [--weighting W] [--threshold T]
            [--show K] [--no-purge] [--dirty]
            Run the full pipeline over N-Triples/Turtle KBs and print
            matches.
  eval      --profile P --entities N --seed S [--strategy S] [--budget N]
            [--blocking B] [--backend streaming|mapreduce]
            [--workers N] [--pruning P] [--weighting W] [--threshold T]
            [--clustering A] [--no-purge] [--dirty]
            Generate a world, resolve it, and score against ground truth;
            with --clustering also report cluster-level quality.
  stream    --profile P --entities N --seed S [--order O] [--arrival-budget N]
            Run the incremental resolver over a synthetic arrival stream.
  incremental
            --profile P --entities N --seed S [--batch-size N] [--order O]
            [--weighting W] [--pruning P] [--workers N] [--dirty]
            Feed a synthetic arrival stream into the updatable
            meta-blocking session batch by batch and report how much of
            each batch was handled by delta-sweeps vs full re-sweeps.
  serve     --profile P --entities N --seed S [--weighting W] [--pruning P]
            [--workers N] [--sweep-workers N] [--cache N] [--preload N]
            [--port N] [--addr-file PATH] [--dirty]
            Run the query-time resolution server over a synthetic world:
            answers RESOLVE/INGEST/STATS/SHUTDOWN on a TCP socket until a
            client sends SHUTDOWN. Port 0 picks an ephemeral port;
            --addr-file writes the bound address for scripts to discover.
  query     --addr HOST:PORT [--entity N] [--ingest 1,2,3] [--show K]
            [--stats] [--shutdown]
            Drive a running resolution server: ingest a batch, resolve an
            entity, print server stats, or shut it down.
  help
            Print this text.

PROFILES  center | periphery | center-periphery | lod | dirty | restaurants
          | rexa-dblp | bbc-dbpedia | yago-imdb
STRATEGIES  batch | random | static | progressive:pairs|attrs|coverage|links
ORDERS    kb-sequential | round-robin | shuffled | clustered
CLUSTERING  connected-components | center | merge-center | unique-mapping
BLOCKING  token | uri-infix | token+uri | attr-clustering | qgrams |
          sorted-neighborhood | minhash-lsh | canopy
PRUNING   none | wep | cep | wnp | wnp-reciprocal | cnp | cnp-reciprocal
          | blast
          (every method runs under every --backend, bit-identically;
          the default is streaming; --workers pins the parallelism of
          every stage: file load (N-Triples files are cut into
          line-aligned pieces of at least 1 MiB, parsed side by side),
          token pass, block build and the comparison workers of the
          progressive loop included)
WEIGHTING cbs | ecbs | js | ejs | arcs
";

/// The synopsis of `command` in [`HELP`] (empty for `help` itself).
fn synopsis(command: &str) -> String {
    let mut lines = HELP.lines().skip_while(|line| {
        let header = line.strip_prefix("  ").filter(|l| !l.starts_with(' '));
        header.and_then(|l| l.split_whitespace().next()) != Some(command)
    });
    let head = lines.next().map(|l| &l[2 + command.len()..]);
    let rest = lines.map(str::trim_start);
    let rest = rest.take_while(|l| l.starts_with("--") || l.starts_with('['));
    let synopsis = head.into_iter().chain(rest).map(str::trim);
    synopsis
        .filter(|l| !l.is_empty())
        .collect::<Vec<_>>()
        .join(" ")
}

type Command = fn(&Args) -> Result<String, CliError>;

/// Every command [`run`] dispatches, in [`HELP`]'s order.
const COMMANDS: &[(&str, Command)] = &[
    ("generate", cmd_generate),
    ("stats", cmd_stats),
    ("resolve", cmd_resolve),
    ("eval", cmd_eval),
    ("stream", cmd_stream),
    ("incremental", cmd_incremental),
    ("serve", cmd_serve),
    ("query", cmd_query),
    ("help", |_| Ok(HELP.to_string())),
];

/// Entry point: parses `argv` (without program name) and runs the command.
/// An unknown command's error lists every command there is.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let name = argv.first().map_or("", String::as_str);
    if name.is_empty() {
        return Err(CliError("missing command; try `minoan help`".into()));
    }
    let Some(&(_, command)) = COMMANDS.iter().find(|(n, _)| *n == name) else {
        let valid: Vec<&str> = COMMANDS.iter().map(|&(n, _)| n).collect();
        return Err(CliError(format!(
            "unknown command {name:?}; valid: {}; try `minoan help`",
            valid.join(" | ")
        )));
    };
    command(&Args::parse(argv, &synopsis(name))?)
}

/// Looks `name` up in `table`, every accepted spelling of one option with
/// its value; an unknown name is an error that lists them all.
fn by_name<T: Clone>(what: &str, table: &[(&str, T)], name: &str) -> Result<T, CliError> {
    match table.iter().find(|(spelling, _)| *spelling == name) {
        Some((_, value)) => Ok(value.clone()),
        None => {
            let valid: Vec<&str> = table.iter().map(|&(spelling, _)| spelling).collect();
            Err(CliError(format!(
                "unknown {what} {name:?}; valid spellings: {}",
                valid.join(" | ")
            )))
        }
    }
}

fn profile_by_name(name: &str, entities: usize, seed: u64) -> Result<WorldConfig, CliError> {
    type Profile = fn(usize, u64) -> WorldConfig;
    let table: [(&str, Profile); 9] = [
        ("center", profiles::center_dense),
        ("periphery", profiles::periphery_sparse),
        ("center-periphery", profiles::center_periphery),
        ("lod", profiles::lod_cloud),
        ("dirty", profiles::dirty_single),
        ("restaurants", |_, seed| profiles::restaurants(seed)),
        ("rexa-dblp", profiles::rexa_dblp),
        ("bbc-dbpedia", profiles::bbc_music_dbpedia),
        ("yago-imdb", profiles::yago_imdb),
    ];
    Ok(by_name("profile", &table, name)?(entities, seed))
}

fn strategy_by_name(name: &str) -> Result<Strategy, CliError> {
    let progressive = Strategy::Progressive;
    let table = [
        ("batch", Strategy::Batch),
        ("random", Strategy::Random { seed: 0 }),
        ("static", Strategy::StaticBestFirst),
        ("progressive", progressive(BenefitModel::PairQuantity)),
        ("progressive:pairs", progressive(BenefitModel::PairQuantity)),
        (
            "progressive:attrs",
            progressive(BenefitModel::AttributeCompleteness),
        ),
        (
            "progressive:coverage",
            progressive(BenefitModel::EntityCoverage),
        ),
        (
            "progressive:links",
            progressive(BenefitModel::RelationshipCompleteness),
        ),
    ];
    by_name("strategy", &table, name)
}

fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let profile = args.require("profile")?;
    let entities = positive_count(args, "entities")?.unwrap_or(500);
    let seed = args.get_parsed("seed", 42u64)?;
    let out_dir = Path::new(args.require("out")?).to_path_buf();
    let config = profile_by_name(profile, entities, seed)?;
    let world = generate(&config);
    std::fs::create_dir_all(&out_dir)?;
    let mut report = String::new();
    for kb in 0..world.dataset.kb_count() {
        let id = KbId(kb as u16);
        let info = world.dataset.kb(id);
        let path = out_dir.join(format!("{}.nt", info.name));
        std::fs::write(&path, world.dataset.to_ntriples(id))?;
        let _ = writeln!(
            report,
            "wrote {} ({} descriptions)",
            path.display(),
            info.entity_count
        );
    }
    let truth_path = out_dir.join("truth.tsv");
    let mut truth = String::new();
    for (a, b) in world.truth.matching_pair_iter() {
        let _ = writeln!(truth, "{}\t{}", world.dataset.uri(a), world.dataset.uri(b));
    }
    std::fs::write(&truth_path, truth)?;
    let _ = writeln!(
        report,
        "wrote {} ({} matching pairs)",
        truth_path.display(),
        world.truth.matching_pairs()
    );
    Ok(report)
}

/// The `--input` files of a command that reads KBs; at least one.
fn inputs(args: &Args) -> Result<&[String], CliError> {
    match args.get_all("input") {
        [] => Err(CliError("at least one --input is required".into())),
        files => Ok(files),
    }
}

fn blocking_by_name(name: &str) -> Result<BlockingMethod, CliError> {
    let table = [
        ("token", BlockingMethod::Token),
        ("uri-infix", BlockingMethod::UriInfix),
        ("token+uri", BlockingMethod::TokenAndUri),
        ("attr-clustering", BlockingMethod::AttributeClustering),
        ("qgrams", BlockingMethod::QGrams),
        ("sorted-neighborhood", BlockingMethod::SortedNeighborhood),
        ("minhash-lsh", BlockingMethod::MinHashLsh),
        ("canopy", BlockingMethod::Canopy),
    ];
    by_name("blocking method", &table, name)
}

fn pruning_by_name(name: &str) -> Result<minoan_er::pipeline::PruningMethod, CliError> {
    use minoan_er::pipeline::PruningMethod;
    let cnp = |reciprocal| PruningMethod::Cnp {
        reciprocal,
        k: None,
    };
    let table = [
        ("none", PruningMethod::None),
        ("wep", PruningMethod::Wep),
        ("cep", PruningMethod::Cep(None)),
        ("wnp", PruningMethod::Wnp { reciprocal: false }),
        ("wnp-reciprocal", PruningMethod::Wnp { reciprocal: true }),
        ("cnp", cnp(false)),
        ("cnp-reciprocal", cnp(true)),
        ("blast", PruningMethod::blast()),
    ];
    by_name("pruning method", &table, name)
}

fn weighting_by_name(name: &str) -> Result<minoan_metablocking::WeightingScheme, CliError> {
    use minoan_metablocking::WeightingScheme;
    let table = [
        ("cbs", WeightingScheme::Cbs),
        ("ecbs", WeightingScheme::Ecbs),
        ("js", WeightingScheme::Js),
        ("ejs", WeightingScheme::Ejs),
        ("arcs", WeightingScheme::Arcs),
    ];
    by_name("weighting scheme", &table, name)
}

fn backend_by_name(name: &str) -> Result<minoan_metablocking::ExecutionBackend, CliError> {
    use minoan_metablocking::ExecutionBackend;
    let table = [
        ("streaming", ExecutionBackend::Streaming),
        ("mapreduce", ExecutionBackend::MapReduce),
        ("map-reduce", ExecutionBackend::MapReduce),
    ];
    by_name("backend", &table, name)
}

/// Parses `--key` as a count ≥ 1. Zero, negatives and garbage all fail
/// with the expected range spelled out, the same way the backend error
/// lists its valid spellings — a typo must not silently pick a default.
fn positive_count(args: &Args, key: &str) -> Result<Option<usize>, CliError> {
    match args.get(key) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .map(Some)
            .ok_or_else(|| {
                CliError(format!(
                    "option --{key}: expected a count ≥ 1, got {raw:?} \
                     (valid spellings: 1, 2, 3, …)"
                ))
            }),
    }
}

fn pipeline_config(args: &Args) -> Result<PipelineConfig, CliError> {
    let mut config = PipelineConfig::default();
    if args.flag("dirty") {
        config.mode = ErMode::Dirty;
    }
    if let Some(b) = args.get("blocking") {
        config.blocking = blocking_by_name(b)?;
    }
    if args.flag("no-purge") {
        config.purge = false;
    }
    if let Some(s) = args.get("strategy") {
        config.resolver.strategy = strategy_by_name(s)?;
    }
    if let Some(p) = args.get("pruning") {
        config.pruning = pruning_by_name(p)?;
    }
    if let Some(w) = args.get("weighting") {
        config.weighting = weighting_by_name(w)?;
    }
    if let Some(b) = args.get("backend") {
        config.backend = backend_by_name(b)?;
    }
    if let Some(workers) = positive_count(args, "workers")? {
        config.workers = Some(workers);
    }
    config.resolver.budget = args.get_parsed("budget", u64::MAX)?;
    let (floor, threshold) = (config.matcher.value_floor, config.matcher.threshold);
    config.matcher.threshold = args.get_parsed("threshold", threshold)?;
    if !(floor..=1.0).contains(&config.matcher.threshold) {
        return Err(CliError(format!(
            "option --threshold: expected a score in [value_floor, 1] = [{floor}, 1], got {}; \
             no pair under the value floor is ever accepted",
            config.matcher.threshold
        )));
    }
    Ok(config)
}

/// The available parallelism: what `--workers` defaults to.
fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The value-token corpus of `dataset` the incremental commands read,
/// its token pass on `workers` threads (all cores by default).
fn value_corpus(dataset: &Dataset, workers: Option<usize>) -> Arc<Corpus<'_>> {
    let threads = workers.unwrap_or_else(all_cores);
    Arc::new(Corpus::new(dataset, TokenKeys::Values, threads))
}

/// Files → [`Dataset`] in one pass, one KB per `--input` in the order
/// given: each file is read whole and parsed in place, its pieces (whole
/// files, or line-aligned pieces of a large N-Triples file) up to `threads`
/// side by side.
fn load_dataset(inputs: &[String], threads: usize) -> Result<Dataset, CliError> {
    let mut builder = DatasetBuilder::new();
    builder
        .load_files(inputs, threads)
        .map_err(|(i, e)| CliError(format!("{}: {e}", inputs[i])))?;
    Ok(builder.build())
}

/// Per KB: descriptions, attribute statements, distinct predicates and
/// resource vs literal values. Overall: distinct predicates, the share
/// only one KB uses (proprietary vocabulary) and the five most used.
fn cmd_stats(args: &Args) -> Result<String, CliError> {
    let dataset = load_dataset(inputs(args)?, all_cores())?;
    let n = dataset.predicates().len();
    let (mut uses, mut kbs_using) = (vec![0usize; n], vec![0usize; n]);
    let mut per_kb = String::new();
    for (kb, info) in dataset.kbs().iter().enumerate() {
        let before = uses.clone();
        let (mut statements, mut resources) = (0, 0);
        for &e in dataset.entities_of_kb(KbId(kb as u16)) {
            for (p, value) in dataset.description(e).attributes() {
                uses[p.index()] += 1;
                statements += 1;
                resources += usize::from(value.as_resource().is_some());
            }
        }
        let mut predicates = 0;
        for (k, (u, b)) in kbs_using.iter_mut().zip(uses.iter().zip(&before)) {
            if u > b {
                *k += 1;
                predicates += 1;
            }
        }
        let _ = writeln!(
            per_kb,
            "  {}: {} descriptions, {statements} statements, {predicates} predicates, \
             {resources} resource / {} literal values",
            info.name,
            info.entity_count,
            statements - resources
        );
    }
    let distinct = kbs_using.iter().filter(|&&k| k > 0).count();
    let proprietary = kbs_using.iter().filter(|&&k| k == 1).count() as f64;
    let mut report = format!(
        "{} KBs, {} descriptions, {distinct} predicates ({:.1}% proprietary)\n{per_kb}  top predicates:\n",
        dataset.kb_count(),
        dataset.len(),
        100.0 * proprietary / distinct.max(1) as f64
    );
    let mut top: Vec<(usize, &str)> = (dataset.predicates().iter())
        .map(|(p, name)| (uses[p.index()], name))
        .filter(|&(n, _)| n > 0)
        .collect();
    top.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
    for (n, name) in top.into_iter().take(5) {
        let _ = writeln!(report, "    {name} × {n}");
    }
    Ok(report)
}

fn cmd_resolve(args: &Args) -> Result<String, CliError> {
    let config = pipeline_config(args)?;
    let threads = config.workers.unwrap_or_else(all_cores);
    let dataset = load_dataset(inputs(args)?, threads)?;
    let show = args.get_parsed("show", 10usize)?;
    let out = Pipeline::new(config).run(&dataset);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{} KBs, {} descriptions | blocks {} → {} | candidates {} | comparisons {} | matches {} | discovered {}",
        dataset.kb_count(),
        dataset.len(),
        out.blocks_raw.0,
        out.blocks_clean.0,
        out.candidates,
        out.resolution.comparisons,
        out.resolution.matches.len(),
        out.resolution.discovered_candidates,
    );
    for (a, b, score) in out.resolution.matches.iter().take(show) {
        let _ = writeln!(
            report,
            "  {:.3}  {}  ≡  {}",
            score,
            dataset.uri(*a),
            dataset.uri(*b)
        );
    }
    if out.resolution.matches.len() > show {
        let _ = writeln!(report, "  … {} more", out.resolution.matches.len() - show);
    }
    Ok(report)
}

fn cmd_eval(args: &Args) -> Result<String, CliError> {
    let profile = args.require("profile")?;
    let entities = positive_count(args, "entities")?.unwrap_or(300);
    let seed = args.get_parsed("seed", 42u64)?;
    let world = generate(&profile_by_name(profile, entities, seed)?);
    let mut config = pipeline_config(args)?;
    if profile == "dirty" {
        config.mode = ErMode::Dirty;
    }
    let out = Pipeline::new(config).run(&world.dataset);
    let quality = metrics::resolution_quality(&world.truth, &out.resolution);
    let curves = progressive_curves(&world.dataset, &world.truth, &out.resolution.trace, 20);
    let auc = recall_auc(&curves);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "profile {profile} entities {entities} seed {seed}: precision {:.3} recall {:.3} f1 {:.3} auc {:.3} comparisons {}",
        quality.precision,
        quality.recall,
        quality.f1,
        auc,
        out.resolution.comparisons
    );
    if let Some(alg_name) = args.get("clustering") {
        let alg = clustering_by_name(alg_name)?;
        let clusters = alg.run(world.dataset.len(), &out.resolution.matches, |e| {
            world.dataset.kb_of(e).0
        });
        let truth_clusters: Vec<Vec<u32>> = world
            .truth
            .clusters()
            .iter()
            .filter(|c| c.len() >= 2)
            .map(|c| c.iter().map(|e| e.0).collect())
            .collect();
        let cq = minoan_eval::cluster_quality(world.dataset.len(), &clusters, &truth_clusters);
        let _ = writeln!(
            report,
            "clustering {}: {} clusters, pairwise F1 {:.3}, b-cubed F1 {:.3}, VI {:.3}",
            alg.name(),
            clusters.len(),
            cq.pairwise.f1,
            cq.bcubed.f1,
            cq.vi
        );
    }
    Ok(report)
}

fn clustering_by_name(name: &str) -> Result<ClusteringAlgorithm, CliError> {
    let table = [
        (
            "connected-components",
            ClusteringAlgorithm::ConnectedComponents,
        ),
        ("center", ClusteringAlgorithm::Center),
        ("merge-center", ClusteringAlgorithm::MergeCenter),
        ("unique-mapping", ClusteringAlgorithm::UniqueMapping),
    ];
    by_name("clustering algorithm", &table, name)
}

fn arrival_order(name: &str, seed: u64) -> Result<ArrivalOrder, CliError> {
    let table = [
        ("kb-sequential", ArrivalOrder::KbSequential),
        ("round-robin", ArrivalOrder::RoundRobin),
        ("shuffled", ArrivalOrder::Shuffled { seed }),
        ("clustered", ArrivalOrder::ClusteredBursts),
    ];
    by_name("arrival order", &table, name)
}

fn cmd_stream(args: &Args) -> Result<String, CliError> {
    let profile = args.require("profile")?;
    let entities = positive_count(args, "entities")?.unwrap_or(300);
    let seed = args.get_parsed("seed", 42u64)?;
    let world = generate(&profile_by_name(profile, entities, seed)?);
    let order = arrival_order(args.get("order").unwrap_or("shuffled"), seed)?;
    let config = IncrementalConfig {
        budget_per_arrival: args.get_parsed("arrival-budget", 10u64)?,
        ..Default::default()
    };
    let corpus = value_corpus(&world.dataset, None);
    let matcher = Matcher::from_corpus(&corpus, MatcherConfig::default());
    let mut resolver = IncrementalResolver::from_corpus(corpus, &matcher, config);
    resolver.arrive_all(order.order(&world.dataset, &world.truth));
    let pairs: Vec<_> = resolver.matches().iter().map(|&(a, b, _)| (a, b)).collect();
    let quality = metrics::match_quality(&world.truth, &pairs);
    Ok(format!(
        "stream {} over {profile}/{entities}: precision {:.3} recall {:.3} comparisons {} clusters {}\n",
        order.name(),
        quality.precision,
        quality.recall,
        resolver.comparisons(),
        resolver.clusters().len()
    ))
}

fn cmd_incremental(args: &Args) -> Result<String, CliError> {
    let profile = args.require("profile")?;
    let entities = positive_count(args, "entities")?.unwrap_or(300);
    let seed = args.get_parsed("seed", 42u64)?;
    let batch_size = positive_count(args, "batch-size")?.unwrap_or(50);
    let world = generate(&profile_by_name(profile, entities, seed)?);
    let order = arrival_order(args.get("order").unwrap_or("shuffled"), seed)?;
    let mode = if args.flag("dirty") || profile == "dirty" {
        ErMode::Dirty
    } else {
        ErMode::CleanClean
    };
    let workers = positive_count(args, "workers")?;
    let corpus = value_corpus(&world.dataset, workers);
    let mut session = minoan_metablocking::IncrementalSession::from_corpus(corpus, mode);
    if let Some(w) = args.get("weighting") {
        session.scheme(weighting_by_name(w)?);
    }
    if let Some(p) = args.get("pruning") {
        session.pruning(pruning_by_name(p)?);
    }
    if let Some(workers) = workers {
        session.workers(workers);
    }
    let mut report = String::new();
    let mut delta_batches = 0usize;
    let mut swept = 0usize;
    let mut dirty = 0usize;
    let batches = order.batches(&world.dataset, &world.truth, batch_size);
    let num_batches = batches.len();
    for batch in batches {
        let r = session.ingest(&batch);
        if r.delta {
            delta_batches += 1;
            swept += r.swept_entities;
            dirty += r.dirty_entities;
        }
        let _ = writeln!(
            report,
            "batch +{:<4} arrived {:<6} blocks touched {:<5} dirty {:<5} swept {:<5} {}",
            r.arrived,
            r.num_arrived,
            r.touched_blocks,
            r.dirty_entities,
            r.swept_entities,
            if r.delta { "delta" } else { "full" },
        );
    }
    let outcome = session.outcome();
    let _ = writeln!(
        report,
        "incremental {} over {profile}/{entities} batch-size {batch_size}: \
         {delta_batches}/{num_batches} delta batches, {swept} entities swept \
         ({dirty} dirty), kept {} of {} comparisons (retention {:.3})",
        order.name(),
        outcome.pairs().len(),
        outcome.input_edges(),
        outcome.retention(),
    );
    Ok(report)
}

fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let profile = args.require("profile")?;
    let entities = positive_count(args, "entities")?.unwrap_or(300);
    let seed = args.get_parsed("seed", 42u64)?;
    let world = generate(&profile_by_name(profile, entities, seed)?);
    let mode = if args.flag("dirty") || profile == "dirty" {
        ErMode::Dirty
    } else {
        ErMode::CleanClean
    };
    // Defaults mirror the incremental session's (ARCS × WNP).
    let scheme = match args.get("weighting") {
        Some(w) => weighting_by_name(w)?,
        None => minoan_metablocking::WeightingScheme::Arcs,
    };
    let pruning = match args.get("pruning") {
        Some(p) => pruning_by_name(p)?,
        None => minoan_er::pipeline::PruningMethod::Wnp { reciprocal: false },
    };
    let cache = args.get_parsed("cache", 1024usize)?;
    let preload = args.get_parsed("preload", 0usize)?;
    let workers = positive_count(args, "workers")?.unwrap_or(2);
    let port = args.get_parsed("port", 0u16)?;
    let sweep = positive_count(args, "sweep-workers")?;
    let corpus = value_corpus(&world.dataset, sweep);
    let service = ResolveService::from_corpus(corpus, mode, scheme, pruning, cache);
    if let Some(sweep) = sweep {
        service.sweep_workers(sweep);
    }
    if preload > 0 {
        let n = preload.min(world.dataset.len());
        let ids: Vec<u32> = (0..n as u32).collect();
        service
            .ingest(&ids)
            .map_err(|e| CliError(e.message().into()))?;
    }
    let server = Server::bind(("127.0.0.1", port), service, workers)?;
    let addr = server.local_addr()?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "listening on {addr} ({profile}/{entities}, cache {cache}, {workers} workers)"
    );
    if let Some(path) = args.get("addr-file") {
        // Scripts discover the ephemeral port here before we block in run().
        std::fs::write(path, format!("{addr}\n"))?;
    }
    server.run()?;
    let stats = server.service().stats().map_err(|e| CliError(e.into()))?;
    let _ = writeln!(
        report,
        "served {} resolves ({} cache hits, {} misses), {} ingests",
        stats.resolves, stats.cache_hits, stats.cache_misses, stats.ingests
    );
    Ok(report)
}

fn parse_id_list(raw: &str) -> Result<Vec<u32>, CliError> {
    raw.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.parse::<u32>()
                .map_err(|_| CliError(format!("option --ingest: cannot parse entity id {t:?}")))
        })
        .collect()
}

fn cmd_query(args: &Args) -> Result<String, CliError> {
    let addr = args.require("addr")?;
    let mut client =
        Client::connect(addr).map_err(|e| CliError(format!("cannot connect to {addr}: {e}")))?;
    let mut report = String::new();
    if let Some(raw) = args.get("ingest") {
        let ids = parse_id_list(raw)?;
        let r = client.ingest(&ids)?;
        let _ = writeln!(
            report,
            "ingested {}: version {} swept {} invalidated {} {}",
            r.arrived,
            r.version,
            r.swept,
            r.invalidated,
            if r.delta { "delta" } else { "full" },
        );
    }
    if let Some(raw) = args.get("entity") {
        let entity: u32 = raw
            .parse()
            .map_err(|_| CliError(format!("option --entity: cannot parse {raw:?}")))?;
        let r = client.resolve(entity)?;
        let show = args.get_parsed("show", 10usize)?;
        let pairs = r.weighted_pairs();
        let _ = writeln!(
            report,
            "entity {} @ version {}: {} matches",
            r.entity,
            r.version,
            pairs.len()
        );
        for p in pairs.iter().take(show) {
            let _ = writeln!(report, "  {:.4}  {}  —  {}", p.weight, p.a.0, p.b.0);
        }
        if pairs.len() > show {
            let _ = writeln!(report, "  … {} more", pairs.len() - show);
        }
    }
    if args.flag("stats") {
        let s = client.stats()?;
        let _ = writeln!(
            report,
            "version {} arrived {} | resolves {} hits {} misses {} ingests {}",
            s.version, s.num_arrived, s.resolves, s.cache_hits, s.cache_misses, s.ingests
        );
    }
    if args.flag("shutdown") {
        client.shutdown()?;
        let _ = writeln!(report, "server shut down");
    }
    if report.is_empty() {
        return Err(CliError(
            "query: nothing to do; pass --entity N, --ingest 1,2,3, --stats or --shutdown".into(),
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(cmd: &str) -> Result<String, CliError> {
        let argv: Vec<String> = cmd.split_whitespace().map(|s| s.to_string()).collect();
        run(&argv)
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("minoan_cli_{tag}"));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn synopses_end_where_the_prose_starts() {
        // A synopsis on the line after its name, and one whose prose
        // mentions an option: neither leaks into or out of the declaration.
        assert_eq!(
            synopsis("incremental"),
            "--profile P --entities N --seed S [--batch-size N] [--order O] \
             [--weighting W] [--pruning P] [--workers N] [--dirty]"
        );
        assert!(synopsis("serve").ends_with("[--addr-file PATH] [--dirty]"));
        assert_eq!(synopsis("help"), "");
    }

    /// A world of no entities is refused as a user error by every command
    /// that generates one, not by a panic inside the generator.
    #[test]
    fn zero_entities_is_an_error_in_every_generating_command() {
        let out = tmp_dir("zero_entities");
        for cmd in [
            format!(
                "generate --profile center --entities 0 --out {}",
                out.display()
            ),
            "eval --profile center --entities 0".to_string(),
            "stream --profile center --entities 0".to_string(),
            "incremental --profile center --entities 0".to_string(),
            "serve --profile center --entities 0".to_string(),
        ] {
            let err = run_str(&cmd).expect_err(&cmd);
            assert!(err.0.contains("--entities"), "{cmd}: {}", err.0);
        }
    }

    #[test]
    fn unknown_command_is_friendly() {
        let err = run_str("frobnicate").unwrap_err();
        assert!(err.0.contains("frobnicate"));
    }

    #[test]
    fn generate_then_stats_then_resolve() {
        let dir = tmp_dir("pipeline");
        let out = run_str(&format!(
            "generate --profile center --entities 120 --seed 3 --out {}",
            dir.display()
        ))
        .unwrap();
        assert!(out.contains("truth.tsv"));
        // Find the generated KB files.
        let mut nts: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                (p.extension().is_some_and(|x| x == "nt")).then(|| p.display().to_string())
            })
            .collect();
        nts.sort();
        assert_eq!(nts.len(), 2, "center profile emits two KBs");
        let stats = run_str(&format!("stats --input {} --input {}", nts[0], nts[1])).unwrap();
        assert!(stats.contains("proprietary"), "{stats}");
        let resolve = run_str(&format!(
            "resolve --input {} --input {} --show 3",
            nts[0], nts[1]
        ))
        .unwrap();
        assert!(resolve.contains("matches"), "resolve output: {resolve}");
        assert!(resolve.contains('≡'), "should print matched URI pairs");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eval_reports_quality() {
        let out = run_str("eval --profile center --entities 150 --seed 7").unwrap();
        assert!(out.contains("precision"));
        assert!(out.contains("auc"));
    }

    #[test]
    fn eval_with_each_strategy() {
        for s in ["batch", "random", "static", "progressive:coverage"] {
            let out = run_str(&format!(
                "eval --profile center --entities 100 --seed 9 --strategy {s}"
            ))
            .unwrap();
            assert!(out.contains("recall"), "{s}: {out}");
        }
        assert!(run_str("eval --profile center --strategy bogus").is_err());
    }

    #[test]
    fn stream_command_runs_each_order() {
        for order in ["kb-sequential", "round-robin", "shuffled", "clustered"] {
            let out = run_str(&format!(
                "stream --profile center --entities 100 --seed 11 --order {order}"
            ))
            .unwrap();
            assert!(out.contains(order), "{out}");
            assert!(out.contains("recall"));
        }
    }

    #[test]
    fn incremental_command_reports_delta_batches() {
        let out = run_str(
            "incremental --profile periphery --entities 120 --seed 11 \
             --batch-size 20 --weighting js --pruning wnp --workers 2",
        )
        .unwrap();
        assert!(out.contains("delta batches"), "{out}");
        assert!(out.contains("retention"), "{out}");
        // A supported scheme × pruning combination delta-sweeps every batch.
        assert!(!out.contains("full\n"), "{out}");
        assert!(out.contains("delta\n"), "{out}");
    }

    #[test]
    fn incremental_command_delta_sweeps_every_scheme_and_family() {
        for options in ["--weighting ecbs", "--weighting ejs", "--pruning blast"] {
            let out = run_str(&format!(
                "incremental --profile center --entities 80 --seed 3 --batch-size 40 {options}"
            ))
            .unwrap();
            let batches = out.matches("batch +").count();
            assert!(batches > 1, "{options}: {out}");
            let summary = format!("{batches}/{batches} delta batches");
            assert!(out.contains(&summary), "{options}: {out}");
            assert!(!out.contains("full\n"), "{options}: {out}");
        }
    }

    #[test]
    fn incremental_command_rejects_bad_batch_size() {
        assert!(run_str("incremental --profile center --batch-size 0").is_err());
        assert!(run_str("incremental --profile center --batch-size lots").is_err());
    }

    #[test]
    fn eval_with_each_blocking_method() {
        for b in ["token", "qgrams", "minhash-lsh", "canopy"] {
            let out = run_str(&format!(
                "eval --profile center --entities 100 --seed 15 --blocking {b}"
            ))
            .unwrap();
            assert!(out.contains("precision"), "{b}: {out}");
        }
        assert!(run_str("eval --profile center --blocking bogus").is_err());
    }

    #[test]
    fn eval_with_clustering_reports_cluster_quality() {
        for alg in [
            "connected-components",
            "center",
            "merge-center",
            "unique-mapping",
        ] {
            let out = run_str(&format!(
                "eval --profile center --entities 100 --seed 13 --clustering {alg}"
            ))
            .unwrap();
            assert!(out.contains("b-cubed"), "{alg}: {out}");
        }
        assert!(run_str("eval --profile center --clustering bogus").is_err());
    }

    #[test]
    fn unknown_backend_lists_valid_spellings() {
        for cmd in [
            "eval --profile center --entities 40 --seed 1 --backend bogus",
            "eval --profile center --entities 40 --seed 1 --backend stream",
            "eval --profile center --entities 40 --seed 1 --backend materialized",
        ] {
            let err = run_str(cmd).unwrap_err();
            assert!(
                err.0
                    .ends_with("valid spellings: streaming | mapreduce | map-reduce"),
                "error must list the valid spellings, got: {}",
                err.0
            );
        }
    }

    #[test]
    fn every_pruning_method_runs_under_every_backend() {
        for backend in ["streaming", "mapreduce"] {
            for pruning in [
                "none",
                "wep",
                "cep",
                "wnp",
                "wnp-reciprocal",
                "cnp",
                "cnp-reciprocal",
                "blast",
            ] {
                let out = run_str(&format!(
                    "eval --profile center --entities 80 --seed 19 \
                     --backend {backend} --pruning {pruning} --workers 3"
                ))
                .unwrap();
                assert!(out.contains("precision"), "{backend}/{pruning}: {out}");
            }
        }
        assert!(run_str("eval --profile center --pruning bogus").is_err());
        assert!(run_str("eval --profile center --weighting bogus").is_err());
    }

    #[test]
    fn unknown_pruning_lists_blast_among_valid_spellings() {
        let err =
            run_str("eval --profile center --entities 40 --seed 1 --pruning bogus").unwrap_err();
        assert!(
            err.0.contains("blast") && err.0.contains("cnp-reciprocal"),
            "error must list the valid spellings incl. blast, got: {}",
            err.0
        );
    }

    /// Each name option accepts exactly the spellings listed here, and an
    /// unknown name's error lists every one of them, in this order.
    #[test]
    fn unknown_name_errors_list_every_accepted_spelling() {
        type Parse = fn(&str) -> Result<(), CliError>;
        let options: [(&str, Parse); 8] = [
            (
                "center | periphery | center-periphery | lod | dirty | restaurants | rexa-dblp \
                 | bbc-dbpedia | yago-imdb",
                |n| profile_by_name(n, 10, 1).map(drop),
            ),
            (
                "batch | random | static | progressive | progressive:pairs | progressive:attrs \
                 | progressive:coverage | progressive:links",
                |n| strategy_by_name(n).map(drop),
            ),
            (
                "token | uri-infix | token+uri | attr-clustering | qgrams | sorted-neighborhood \
                 | minhash-lsh | canopy",
                |n| blocking_by_name(n).map(drop),
            ),
            (
                "none | wep | cep | wnp | wnp-reciprocal | cnp | cnp-reciprocal | blast",
                |n| pruning_by_name(n).map(drop),
            ),
            ("cbs | ecbs | js | ejs | arcs", |n| {
                weighting_by_name(n).map(drop)
            }),
            ("streaming | mapreduce | map-reduce", |n| {
                backend_by_name(n).map(drop)
            }),
            (
                "connected-components | center | merge-center | unique-mapping",
                |n| clustering_by_name(n).map(drop),
            ),
            ("kb-sequential | round-robin | shuffled | clustered", |n| {
                arrival_order(n, 1).map(drop)
            }),
        ];
        for (accepted, parse) in options {
            for name in accepted.split(" | ") {
                parse(name).unwrap_or_else(|e| panic!("{name}: {}", e.0));
            }
            let err = parse("bogus").unwrap_err().0;
            assert!(
                err.ends_with(&format!("valid spellings: {accepted}")),
                "{err}"
            );
        }
    }

    #[test]
    fn blast_pruning_matches_across_backends_from_the_cli() {
        let base =
            run_str("eval --profile center --entities 100 --seed 27 --pruning blast").unwrap();
        assert!(base.contains("precision"), "{base}");
        for backend in ["streaming", "mapreduce"] {
            let other = run_str(&format!(
                "eval --profile center --entities 100 --seed 27 --pruning blast \
                 --backend {backend} --workers 3"
            ))
            .unwrap();
            assert_eq!(base, other, "{backend}");
        }
    }

    #[test]
    fn mapreduce_backend_matches_streaming_from_the_cli() {
        // The user-facing acceptance check: identical eval report (same
        // precision/recall/comparisons) whichever backend and worker
        // count the command line picks.
        let base = run_str("eval --profile center --entities 100 --seed 23 --pruning cnp").unwrap();
        for workers in [1, 8] {
            let mr = run_str(&format!(
                "eval --profile center --entities 100 --seed 23 --pruning cnp \
                 --backend mapreduce --workers {workers}"
            ))
            .unwrap();
            assert_eq!(base, mr, "workers={workers}");
        }
    }

    #[test]
    fn bad_worker_counts_are_rejected() {
        for w in ["0", "-3", "many"] {
            let err = run_str(&format!(
                "eval --profile center --entities 40 --seed 1 --workers {w}"
            ))
            .unwrap_err();
            assert!(err.0.contains("workers"), "{w}: {}", err.0);
        }
    }

    #[test]
    fn weighting_schemes_are_selectable() {
        for w in ["cbs", "ecbs", "js", "ejs", "arcs"] {
            let out = run_str(&format!(
                "eval --profile center --entities 60 --seed 21 --weighting {w} \
                 --backend streaming --pruning wep"
            ))
            .unwrap();
            assert!(out.contains("recall"), "{w}: {out}");
        }
    }

    #[test]
    fn serve_and_query_round_trip() {
        let dir = tmp_dir("serve");
        let addr_file = dir.join("addr.txt");
        std::fs::remove_file(&addr_file).ok();
        let serve_cmd = format!(
            "serve --profile center --entities 80 --seed 3 --weighting js --pruning wnp \
             --cache 64 --preload 40 --workers 2 --port 0 --addr-file {}",
            addr_file.display()
        );
        std::thread::scope(|s| {
            let server = s.spawn(move || run_str(&serve_cmd));
            // The server writes its ephemeral address before blocking.
            let addr = loop {
                if let Ok(text) = std::fs::read_to_string(&addr_file) {
                    if text.ends_with('\n') {
                        break text.trim().to_string();
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            };
            let resolve = run_str(&format!("query --addr {addr} --entity 7 --show 3")).unwrap();
            assert!(resolve.contains("entity 7 @ version 1"), "{resolve}");
            let ingest = run_str(&format!("query --addr {addr} --ingest 40,41,42")).unwrap();
            assert!(ingest.contains("ingested 3: version 2"), "{ingest}");
            // Re-ingesting an arrived entity is rejected but keeps serving.
            assert!(run_str(&format!("query --addr {addr} --ingest 40")).is_err());
            let stats = run_str(&format!("query --addr {addr} --stats")).unwrap();
            assert!(stats.contains("arrived 43"), "{stats}");
            let bye = run_str(&format!("query --addr {addr} --shutdown")).unwrap();
            assert!(bye.contains("shut down"), "{bye}");
            let report = server.join().unwrap().unwrap();
            assert!(report.contains("listening on"), "{report}");
            assert!(report.contains("resolves"), "{report}");
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_without_an_action_is_rejected() {
        let err = run_str("query --addr 127.0.0.1:1").unwrap_err();
        // Connection refused (nothing listening) or the no-action error —
        // either way the message names the problem.
        assert!(
            err.0.contains("cannot connect") || err.0.contains("nothing to do"),
            "{}",
            err.0
        );
    }

    #[test]
    fn serve_rejects_zero_counts_with_the_expected_range() {
        for cmd in [
            "serve --profile center --workers 0",
            "serve --profile center --sweep-workers 0",
            "incremental --profile center --batch-size 0",
            "eval --profile center --workers none",
        ] {
            let err = run_str(cmd).unwrap_err();
            assert!(err.0.contains("expected a count ≥ 1"), "{cmd}: {}", err.0);
        }
    }

    #[test]
    fn unknown_profile_rejected() {
        assert!(run_str("eval --profile mars --entities 10 --seed 1").is_err());
        assert!(run_str("generate --profile mars --out /tmp/x").is_err());
    }

    #[test]
    fn missing_inputs_rejected() {
        assert!(run_str("stats").is_err());
        assert!(run_str("resolve").is_err());
    }
}
