//! The E2–E8 experiments, and the [`EXPERIMENTS`] table `reproduce` runs.
//!
//! Sizes are chosen so `reproduce all` finishes in a couple of minutes on a
//! laptop while preserving the paper-claim *shapes*: who wins, by roughly
//! what factor, and where crossovers fall.

use minoan_blocking::{builders, filter, purge, BlockCollection, ErMode, Method};
use minoan_common::default_threads;
use minoan_datagen::{generate, profiles, GeneratedWorld};
use minoan_er::{
    BenefitModel, Matcher, MatcherConfig, Pipeline, PipelineConfig, ProgressiveResolver,
    Resolution, ResolverConfig, Strategy,
};
use minoan_eval::report::fmt3;
use minoan_eval::{metrics, progressive, Table};
use minoan_mapreduce::Engine;
use minoan_metablocking::{ExecutionBackend, PruneOutcome, Pruning, Session, WeightingScheme};
use minoan_rdf::EntityId;
use std::fmt::Write as _;
use std::time::Instant;

/// Common scale knob: world entities per experiment dataset.
pub const DEFAULT_SCALE: usize = 500;

fn pairs_of(collection: &BlockCollection) -> Vec<(EntityId, EntityId)> {
    collection.distinct_pairs()
}

/// The standard candidate-generation pipeline (token+URI blocking, purge,
/// filter, ARCS-weighted WNP) shared by E4–E6 and the E9–E13 extensions.
pub fn candidate_pairs_public(
    world: &GeneratedWorld,
    mode: ErMode,
) -> Vec<(EntityId, EntityId, f64)> {
    candidate_pairs(world, mode)
}

fn candidate_pairs(world: &GeneratedWorld, mode: ErMode) -> Vec<(EntityId, EntityId, f64)> {
    let blocks = builders::token_and_uri_blocking(&world.dataset, mode);
    let cleaned = filter::filter(&purge::purge(&blocks).collection);
    Session::new(&cleaned)
        .scheme(WeightingScheme::Arcs)
        .pruning(Pruning::Wnp { reciprocal: false })
        .run()
        .into_candidates()
}

fn resolve(
    world: &GeneratedWorld,
    pairs: &[(EntityId, EntityId, f64)],
    config: ResolverConfig,
) -> Resolution {
    let matcher = Matcher::new(&world.dataset, MatcherConfig::default());
    ProgressiveResolver::new(&world.dataset, matcher, config).run(pairs)
}

/// E2 — blocking effectiveness across dataset regimes (Table).
///
/// Paper claim: schema-agnostic blocking drastically reduces comparisons
/// while keeping nearly all matches; purging + filtering trade a little PC
/// for large PQ/RR gains.
pub fn exp2_blocking(scale: usize, seed: u64) -> String {
    let mut out = String::new();
    let mut table = Table::new(vec![
        "profile",
        "method",
        "blocks",
        "comparisons",
        "PC",
        "PQ",
        "RR",
    ]);
    for (name, cfg) in profiles::all_profiles(scale, seed) {
        let world = generate(&cfg);
        let mode = if world.dataset.kb_count() > 1 {
            ErMode::CleanClean
        } else {
            ErMode::Dirty
        };
        let variants: Vec<(&str, BlockCollection)> = vec![
            ("token", builders::token_blocking(&world.dataset, mode)),
            (
                "token+uri",
                builders::token_and_uri_blocking(&world.dataset, mode),
            ),
            (
                "attr-clust",
                Method::AttributeClustering.run(&world.dataset, mode, default_threads()),
            ),
            (
                "token+clean",
                filter::filter(
                    &purge::purge(&builders::token_blocking(&world.dataset, mode)).collection,
                ),
            ),
        ];
        for (method, blocks) in variants {
            let q = metrics::blocking_quality(&world.dataset, &world.truth, &pairs_of(&blocks));
            table.row(vec![
                name.into(),
                method.into(),
                blocks.len().to_string(),
                q.comparisons.to_string(),
                fmt3(q.pc),
                fmt3(q.pq),
                fmt3(q.rr),
            ]);
        }
    }
    let _ = writeln!(
        out,
        "E2: blocking effectiveness (PC/PQ/RR vs brute force)\n\n{table}"
    );
    out
}

/// E3 — the meta-blocking weighting × pruning grid (Table).
///
/// Paper claim: meta-blocking prunes repeated and low-evidence comparisons;
/// node-centric schemes retain recall at much lower cost.
pub fn exp3_metablocking(scale: usize, seed: u64) -> String {
    let world = generate(&profiles::center_dense(scale, seed));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let cleaned = filter::filter(&purge::purge(&blocks).collection);
    // One session for the whole grid: every scheme × pruning cell reuses
    // its sweep state.
    let mut session = Session::new(&cleaned);
    let base_pairs: Vec<(EntityId, EntityId)> = cleaned.distinct_pairs();
    let num_edges = base_pairs.len();
    let base_q = metrics::blocking_quality(&world.dataset, &world.truth, &base_pairs);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "E3: meta-blocking grid on center_dense({scale}) — blocking graph: {num_edges} edges, PC {}\n",
        fmt3(base_q.pc)
    );
    let mut table = Table::new(vec!["pruning", "scheme", "kept", "retention", "PC", "PQ"]);
    let pruners: [(&str, Pruning); 5] = [
        ("WEP", Pruning::Wep),
        ("CEP", Pruning::Cep(None)),
        ("WNP", Pruning::Wnp { reciprocal: false }),
        (
            "CNP",
            Pruning::Cnp {
                reciprocal: false,
                k: None,
            },
        ),
        ("WNP-recip", Pruning::Wnp { reciprocal: true }),
    ];
    for (pname, pruning) in pruners {
        session.pruning(pruning);
        for scheme in WeightingScheme::ALL {
            let pruned = session.scheme(scheme).run();
            let pairs: Vec<_> = pruned.pairs().iter().map(|p| (p.a, p.b)).collect();
            let q = metrics::blocking_quality(&world.dataset, &world.truth, &pairs);
            table.row(vec![
                pname.into(),
                scheme.name().into(),
                pairs.len().to_string(),
                fmt3(pruned.retention()),
                fmt3(q.pc),
                fmt3(q.pq),
            ]);
        }
    }
    let _ = writeln!(out, "{table}");
    out
}

/// E4 — progressive recall vs consumed budget (Figure).
///
/// Paper claim: scheduling promising comparisons first yields higher
/// benefit early; the dynamic scheduler dominates random and batch, and
/// overtakes static ordering as updates accumulate.
pub fn exp4_progressive_recall(scale: usize, seed: u64) -> String {
    let world = generate(&profiles::center_dense(scale, seed));
    let pairs = candidate_pairs(&world, ErMode::CleanClean);
    let total = pairs.len() as u64;
    let fractions = [5u64, 10, 20, 40, 60, 80, 100];

    // "batch" must not inherit meta-blocking's weight ordering: feed it
    // pair-id order (classic blocking-output order).
    let mut id_ordered = pairs.clone();
    id_ordered.sort_by_key(|p| (p.0, p.1));

    let strategies = [
        (
            "progressive",
            Strategy::Progressive(BenefitModel::PairQuantity),
        ),
        ("static", Strategy::StaticBestFirst),
        ("batch", Strategy::Batch),
        ("random", Strategy::Random { seed: 1 }),
    ];
    let mut series: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut aucs: Vec<(&str, f64)> = Vec::new();
    for (label, strategy) in strategies {
        let input = if label == "batch" {
            &id_ordered
        } else {
            &pairs
        };
        let mut recalls = Vec::new();
        for f in fractions {
            let budget = (total * f) / 100;
            let res = resolve(
                &world,
                input,
                ResolverConfig {
                    strategy,
                    budget,
                    ..Default::default()
                },
            );
            recalls.push(metrics::resolution_quality(&world.truth, &res).recall);
        }
        // AUC from the full run's trace.
        let res = resolve(
            &world,
            input,
            ResolverConfig {
                strategy,
                ..Default::default()
            },
        );
        let pts = progressive::progressive_curves(&world.dataset, &world.truth, &res.trace, 20);
        aucs.push((label, progressive::recall_auc(&pts)));
        series.push((label, recalls));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "E4: progressive recall vs budget on center_dense({scale}) — {} candidates\n",
        total
    );
    let xs: Vec<u64> = fractions.iter().map(|f| (total * f) / 100).collect();
    let _ = writeln!(
        out,
        "{}",
        minoan_eval::report::render_series("budget", &xs, &series)
    );
    let mut auc_table = Table::new(vec!["strategy", "recall AUC"]);
    for (label, auc) in aucs {
        auc_table.row(vec![label.into(), fmt3(auc)]);
    }
    let _ = writeln!(out, "{auc_table}");
    out
}

/// E5 — the three quality dimensions under each benefit model (Figure).
///
/// Paper claim: unlike pair-quantity progressive ER, MinoanER can target
/// attribute completeness, entity coverage or relationship completeness;
/// each model should lead on its own dimension early in the budget.
pub fn exp5_quality_dimensions(scale: usize, seed: u64) -> String {
    let world = generate(&profiles::lod_cloud(scale, seed));
    let pairs = candidate_pairs(&world, ErMode::CleanClean);
    let budget = (pairs.len() / 4) as u64; // quarter budget: the progressive regime

    let mut out = String::new();
    let _ = writeln!(
        out,
        "E5: quality dimensions at 25% budget ({budget} comparisons) on lod_cloud({scale})\n"
    );
    let mut table = Table::new(vec![
        "benefit model",
        "recall",
        "attr-compl AUC",
        "entity-cov AUC",
        "rel-compl AUC",
    ]);
    for model in BenefitModel::ALL {
        let res = resolve(
            &world,
            &pairs,
            ResolverConfig {
                strategy: Strategy::Progressive(model),
                budget,
                ..Default::default()
            },
        );
        let pts = progressive::progressive_curves(&world.dataset, &world.truth, &res.trace, 20);
        table.row(vec![
            model.name().into(),
            fmt3(pts.last().map(|p| p.recall).unwrap_or(0.0)),
            fmt3(progressive::dimension_auc(&pts, |p| p.attr_completeness)),
            fmt3(progressive::dimension_auc(&pts, |p| p.entity_coverage)),
            fmt3(progressive::dimension_auc(&pts, |p| p.rel_completeness)),
        ]);
    }
    let _ = writeln!(out, "{table}");
    let _ = writeln!(
        out,
        "(read column-wise: each quality-targeting model should lead its own AUC column)"
    );
    out
}

/// E6 — neighbour propagation on "somehow similar" periphery data (Figure).
///
/// Paper claim: exploiting partial matching results as similarity evidence
/// for neighbour descriptions recovers matches that blocking/value
/// similarity alone miss.
pub fn exp6_periphery(scale: usize, seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E6: update-phase recovery on periphery regimes\n");
    let mut table = Table::new(vec![
        "profile",
        "alpha",
        "precision",
        "recall",
        "discovered",
        "matches",
    ]);
    for (name, cfg) in [
        ("periphery_sparse", profiles::periphery_sparse(scale, seed)),
        ("center_periphery", profiles::center_periphery(scale, seed)),
        (
            "bbc_music_dbpedia",
            profiles::bbc_music_dbpedia(scale, seed),
        ),
    ] {
        let world = generate(&cfg);
        let pairs = candidate_pairs(&world, ErMode::CleanClean);
        for alpha in [0.0, 0.5] {
            let res = resolve(
                &world,
                &pairs,
                ResolverConfig {
                    alpha,
                    ..Default::default()
                },
            );
            let q = metrics::resolution_quality(&world.truth, &res);
            table.row(vec![
                name.into(),
                format!("{alpha:.1}"),
                fmt3(q.precision),
                fmt3(q.recall),
                res.discovered_candidates.to_string(),
                q.emitted.to_string(),
            ]);
        }
    }
    let _ = writeln!(out, "{table}");
    out
}

/// E7 — parallel blocking & meta-blocking scalability (Table).
///
/// Paper claim: the blocking/meta-blocking layer exploits "the parallel
/// processing power of a computer cluster via Hadoop MapReduce"; here the
/// in-process engine shows the same work scaling with worker threads.
/// Blocking is the token-blocking job; meta-blocking is a MapReduce
/// [`Session`] weighing every edge (ARCS, no pruning) with the paper's
/// entity-based jobs, which shuffle at most one record per entity
/// neighbourhood where the edge-based strategy would shuffle one per pair
/// occurrence, `Σ_b ‖b‖`.
pub fn exp7_scalability(scale: usize, seed: u64) -> String {
    // Parallelism needs enough work per task: run at 5× the common scale.
    let scale = scale * 5;
    let world = generate(&profiles::center_dense(scale, seed));
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E7: MapReduce scalability on center_dense({scale}) — host has {cores} core(s)\n"
    );
    let _ = writeln!(
        out,
        "Speedups are *modeled*: per-task durations are measured for real and\n\
         scheduled greedily (LPT) onto w workers — the cluster simulation for\n\
         hosts without w physical cores. Wall ms is the actual local time.\n"
    );
    let mut table = Table::new(vec![
        "workers",
        "blocking wall ms",
        "blocking speedup*",
        "meta-blocking wall ms",
        "meta-blocking speedup*",
    ]);
    let mut serial: Option<PruneOutcome> = None;
    for workers in [1usize, 2, 4, 8] {
        let engine = Engine::new(workers);
        let t0 = Instant::now();
        let (blocks, bstats) = minoan_blocking::parallel::parallel_token_blocking_with_stats(
            &world.dataset,
            ErMode::CleanClean,
            &engine,
        );
        let block_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cleaned = filter::filter(&purge::purge(&blocks).collection);
        let t1 = Instant::now();
        let outcome = Session::new(&cleaned)
            .scheme(WeightingScheme::Arcs)
            .pruning(Pruning::None)
            .backend(ExecutionBackend::MapReduce)
            .workers(workers)
            .run();
        let meta_ms = t1.elapsed().as_secs_f64() * 1e3;
        let bspeed = bstats.modeled_nanos(1) as f64 / bstats.modeled_nanos(workers).max(1) as f64;
        let mstats = &outcome.report;
        let mspeed = mstats.modeled_nanos(1) as f64 / mstats.modeled_nanos(workers).max(1) as f64;
        table.row(vec![
            workers.to_string(),
            format!("{block_ms:.1}"),
            format!("{bspeed:.2}x"),
            format!("{meta_ms:.1}"),
            format!("{mspeed:.2}x"),
        ]);
        // Sanity: results identical regardless of workers (the first row
        // runs one).
        let serial = serial.get_or_insert_with(|| outcome.clone());
        assert_eq!(outcome.pairs(), serial.pairs());
    }
    let _ = writeln!(out, "{table}");
    out
}

/// E8 — ablations of the design choices (Table).
pub fn exp8_ablations(scale: usize, seed: u64) -> String {
    let world = generate(&profiles::center_dense(scale, seed));
    let mut out = String::new();
    let _ = writeln!(out, "E8: ablations on center_dense({scale})\n");
    let mut table = Table::new(vec![
        "ablation",
        "setting",
        "candidates",
        "comparisons",
        "precision",
        "recall",
        "F1",
    ]);

    let mut run = |label: &str, setting: &str, config: PipelineConfig| {
        let o = Pipeline::new(config).run(&world.dataset);
        let q = metrics::resolution_quality(&world.truth, &o.resolution);
        table.row(vec![
            label.into(),
            setting.into(),
            o.candidates.to_string(),
            o.resolution.comparisons.to_string(),
            fmt3(q.precision),
            fmt3(q.recall),
            fmt3(q.f1),
        ]);
    };

    for (setting, purge) in [("on", true), ("off", false)] {
        run(
            "block purging",
            setting,
            PipelineConfig {
                purge,
                ..Default::default()
            },
        );
    }
    for ratio in [1.0, 0.8, 0.5] {
        run(
            "filter ratio",
            &format!("{ratio:.1}"),
            PipelineConfig {
                filter_ratio: Some(ratio),
                ..Default::default()
            },
        );
    }
    for (setting, reciprocal) in [("union", false), ("reciprocal", true)] {
        run(
            "WNP variant",
            setting,
            PipelineConfig {
                pruning: minoan_er::pipeline::PruningMethod::Wnp { reciprocal },
                ..Default::default()
            },
        );
    }
    for alpha in [0.0, 0.25, 0.5, 1.0] {
        run(
            "propagation α",
            &format!("{alpha:.2}"),
            PipelineConfig {
                resolver: ResolverConfig {
                    alpha,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
    }
    for floor in [0.2, 0.3, 0.4] {
        run(
            "value floor",
            &format!("{floor:.1}"),
            PipelineConfig {
                matcher: MatcherConfig {
                    value_floor: floor,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
    }
    let _ = writeln!(out, "{table}");
    out
}

/// One experiment: `(scale, seed)` → its report as plain text.
pub type Experiment = fn(usize, u64) -> String;

/// Every experiment by the name `reproduce` takes on its command line,
/// in report order.
pub const EXPERIMENTS: &[(&str, Experiment)] = {
    use crate::experiments2 as e2;
    &[
        ("exp2", exp2_blocking),
        ("exp3", exp3_metablocking),
        ("exp4", exp4_progressive_recall),
        ("exp5", exp5_quality_dimensions),
        ("exp6", exp6_periphery),
        ("exp7", exp7_scalability),
        ("exp8", exp8_ablations),
        ("exp9", e2::exp9_blocking_methods),
        ("exp10", e2::exp10_metablocking_extensions),
        ("exp11", e2::exp11_incremental),
        ("exp12", e2::exp12_oracle_bounds),
        ("exp13", e2::exp13_composite_rules),
        ("exp14", e2::exp14_clustering),
        ("exp15", e2::exp15_fault_tolerance),
        ("exp16", e2::exp16_variance),
        ("exp17", e2::exp17_corruption),
    ]
};

/// Runs every experiment at the given scale, concatenating reports.
pub fn run_all(scale: usize, seed: u64) -> String {
    let mut out = String::new();
    for (name, run) in EXPERIMENTS {
        let _ = writeln!(
            out,
            "================ E{} ================\n",
            name.trim_start_matches("exp")
        );
        out.push_str(&run(scale, seed));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: usize = 120;

    #[test]
    fn exp2_reports_all_profiles() {
        let r = exp2_blocking(S, 1);
        for name in ["center_dense", "periphery_sparse", "dirty_single"] {
            assert!(r.contains(name), "missing {name}");
        }
        assert!(r.contains("token+uri"));
    }

    #[test]
    fn exp3_covers_grid() {
        let r = exp3_metablocking(S, 1);
        for s in [
            "CBS",
            "ECBS",
            "JS",
            "EJS",
            "ARCS",
            "WEP",
            "CNP",
            "WNP-recip",
        ] {
            assert!(r.contains(s), "missing {s}");
        }
    }

    #[test]
    fn exp4_has_all_strategies() {
        let r = exp4_progressive_recall(S, 1);
        for s in ["progressive", "static", "batch", "random", "recall AUC"] {
            assert!(r.contains(s), "missing {s}");
        }
    }

    #[test]
    fn exp5_lists_all_models() {
        let r = exp5_quality_dimensions(S, 1);
        for m in BenefitModel::ALL {
            assert!(r.contains(m.name()), "missing {}", m.name());
        }
    }

    #[test]
    fn exp6_compares_alpha() {
        let r = exp6_periphery(S, 1);
        assert!(r.contains("0.0") && r.contains("0.5"));
        assert!(r.contains("periphery_sparse"));
    }

    #[test]
    fn exp7_and_exp8_run() {
        assert!(exp7_scalability(S, 1).contains("workers"));
        let r = exp8_ablations(S, 1);
        assert!(r.contains("block purging") && r.contains("value floor"));
    }
}
