//! The E9–E13 extension experiments (see EXPERIMENTS.md).
//!
//! These cover the subsystems added on top of the original E2–E8 set: the
//! advanced blocker families, BLAST and supervised meta-blocking, the
//! incremental resolver, the oracle scheduling bounds, and the composite
//! matching rules.

use minoan_blocking::builders::TokenKeys;
use minoan_blocking::{Corpus, ErMode, Method};
use minoan_common::default_threads;
use minoan_datagen::{generate, profiles, ArrivalOrder, GeneratedWorld};
use minoan_er::{
    oracle, BenefitModel, CompositeResolver, IncrementalConfig, IncrementalResolver, Matcher,
    MatcherConfig, ProgressiveResolver, ResolverConfig, Rule, Strategy,
};
use minoan_eval::report::fmt3;
use minoan_eval::{metrics, plot, Table};
use minoan_metablocking::{blast, Perceptron, Pruning, Session, TrainingSet, WeightingScheme};
use minoan_rdf::EntityId;
use std::fmt::Write as _;
use std::sync::Arc;

fn pair_quality(world: &GeneratedWorld, pairs: &[(EntityId, EntityId)]) -> (f64, f64) {
    let found = pairs
        .iter()
        .filter(|&&(a, b)| world.truth.is_match(a, b))
        .count();
    let pc = found as f64 / world.truth.matching_pairs() as f64;
    let pq = if pairs.is_empty() {
        0.0
    } else {
        found as f64 / pairs.len() as f64
    };
    (pc, pq)
}

/// E9 — advanced blocking methods across regimes (Table).
///
/// Claim exercised: exact token blocking suffices in the centre, but the
/// fuzzy families (q-grams, LSH, sorted neighborhood, canopy) recover
/// matches on noisy periphery data, at higher comparison cost — the
/// trade-off meta-blocking and progressive scheduling then manage.
pub fn exp9_blocking_methods(scale: usize, seed: u64) -> String {
    let threads = default_threads();
    let mut out = String::new();
    let methods: Vec<(&str, Method)> = vec![
        ("token", Method::Token),
        ("token+uri", Method::TokenAndUri),
        ("attr-cluster", Method::AttributeClustering),
        ("qgrams(3)", Method::QGrams),
        ("ext-qgrams(3,.8)", Method::ExtendedQGrams),
        ("snm(6)", Method::SortedNeighborhood),
        ("adaptive-snm", Method::AdaptiveSortedNeighborhood),
        ("minhash-lsh", Method::MinHashLsh),
        ("canopy", Method::Canopy),
    ];
    for profile in ["center", "periphery", "typo-noisy"] {
        let cfg = match profile {
            "center" => profiles::center_dense(scale, seed),
            "typo-noisy" => profiles::typo_noisy(scale, seed),
            _ => profiles::periphery_sparse(scale, seed),
        };
        let world = generate(&cfg);
        // Raw collections are dominated by mega-blocks (type tokens) that
        // make PC trivially 1; measure after the standard purge + filter
        // cleaning, where the key spaces actually differ.
        let mut table = Table::new(vec!["method", "blocks", "comparisons", "PC", "PQ"]);
        for (name, method) in &methods {
            let raw = method.run(&world.dataset, ErMode::CleanClean, threads);
            let blocks =
                minoan_blocking::filter::filter(&minoan_blocking::purge::purge(&raw).collection);
            let pairs = blocks.distinct_pairs();
            let (pc, pq) = pair_quality(&world, &pairs);
            table.row(vec![
                name.to_string(),
                blocks.len().to_string(),
                blocks.total_comparisons().to_string(),
                fmt3(pc),
                fmt3(pq),
            ]);
        }
        let _ = writeln!(out, "profile = {profile} (after purge + filter)\n{table}");
    }
    out
}

/// E10 — meta-blocking extensions (Table).
///
/// Claim exercised: χ²-weighted BLAST pruning and the supervised
/// feature-vector pruner retain fewer comparisons at equal-or-better match
/// coverage than the unsupervised single-scheme pruners.
pub fn exp10_metablocking_extensions(scale: usize, seed: u64) -> String {
    let world = generate(&profiles::center_periphery(scale, seed));
    let blocks =
        minoan_blocking::builders::token_and_uri_blocking(&world.dataset, ErMode::CleanClean);
    let cleaned =
        minoan_blocking::filter::filter(&minoan_blocking::purge::purge(&blocks).collection);
    // One session drives the whole pruner column, reusing its sweep
    // state.
    let mut session = Session::new(&cleaned);

    // The supervised model trains on a sample of the blocking graph.
    let model = {
        let is_match = |a, b| world.truth.is_match(a, b);
        let train = TrainingSet::sample(&mut session, is_match, 50, seed);
        Perceptron::train(&train, 15)
    };

    let mut table = Table::new(vec!["pruner", "kept", "retention", "PC", "PQ"]);
    let mut rows: Vec<(String, Pruning, WeightingScheme)> = vec![(
        "none (all edges)".into(),
        Pruning::None,
        WeightingScheme::Arcs,
    )];
    for scheme in [WeightingScheme::Cbs, WeightingScheme::Arcs] {
        rows.push((format!("WEP/{}", scheme.name()), Pruning::Wep, scheme));
        rows.push((
            format!("WNP/{}", scheme.name()),
            Pruning::Wnp { reciprocal: false },
            scheme,
        ));
    }
    rows.push((
        "BLAST(chi2)".into(),
        Pruning::Blast {
            ratio: blast::DEFAULT_RATIO,
        },
        WeightingScheme::Arcs,
    ));
    rows.push((
        "supervised(50/class)".into(),
        Pruning::Supervised(model),
        WeightingScheme::Arcs,
    ));

    for (name, pruning, scheme) in rows {
        let out = session.scheme(scheme).pruning(pruning).run();
        let pairs: Vec<(EntityId, EntityId)> = out.pairs().iter().map(|p| (p.a, p.b)).collect();
        let (pc, pq) = pair_quality(&world, &pairs);
        table.row(vec![
            name,
            pairs.len().to_string(),
            fmt3(pairs.len() as f64 / out.input_edges().max(1) as f64),
            fmt3(pc),
            fmt3(pq),
        ]);
    }

    format!("{table}")
}

/// E11 — incremental resolution across arrival orders (Table).
///
/// Claim exercised: the pay-as-you-go platform sustains batch-level
/// quality when descriptions arrive as a stream, with bounded per-arrival
/// work, across realistic arrival shapes.
pub fn exp11_incremental(scale: usize, seed: u64) -> String {
    let world = generate(&profiles::center_dense(scale, seed));
    // One value-token corpus for the matchers and every resolver.
    let corpus = Arc::new(Corpus::new(
        &world.dataset,
        TokenKeys::Values,
        default_threads(),
    ));
    let matcher = Matcher::from_corpus(&corpus, MatcherConfig::default());
    let mut table = Table::new(vec![
        "arrival order",
        "comparisons",
        "precision",
        "recall",
        "clusters",
    ]);
    for order in ArrivalOrder::all(seed) {
        let corpus = Arc::clone(&corpus);
        let mut resolver =
            IncrementalResolver::from_corpus(corpus, &matcher, IncrementalConfig::default());
        resolver.arrive_all(order.order(&world.dataset, &world.truth));
        let res = resolver.resolution();
        let pairs: Vec<_> = res.matches.iter().map(|&(a, b, _)| (a, b)).collect();
        let q = metrics::match_quality(&world.truth, &pairs);
        table.row(vec![
            order.name().to_string(),
            res.comparisons.to_string(),
            fmt3(q.precision),
            fmt3(q.recall),
            res.clusters.len().to_string(),
        ]);
    }
    // Batch reference: full progressive pipeline over the same data.
    let pairs = super::experiments::candidate_pairs_public(&world, ErMode::CleanClean);
    let res = ProgressiveResolver::new(
        &world.dataset,
        Matcher::from_corpus(&corpus, MatcherConfig::default()),
        ResolverConfig::default(),
    )
    .run(&pairs);
    let q = metrics::resolution_quality(&world.truth, &res);
    table.row(vec![
        "batch reference".to_string(),
        res.comparisons.to_string(),
        fmt3(q.precision),
        fmt3(q.recall),
        res.clusters.len().to_string(),
    ]);
    format!("{table}")
}

/// E12 — scheduling headroom against oracle bounds (Figure).
///
/// Claim exercised: the progressive scheduler extracts most of the recall
/// an oracle-decided perfect schedule could, far ahead of input-order
/// scheduling — quantifying how much of the pay-as-you-go benefit comes
/// from *ordering* alone.
pub fn exp12_oracle_bounds(scale: usize, seed: u64) -> String {
    let world = generate(&profiles::center_dense(scale, seed));
    let pairs = super::experiments::candidate_pairs_public(&world, ErMode::CleanClean);
    let truth = &world.truth;

    // Oracle-decided traces. The candidate list arrives sorted by
    // meta-blocking weight, so the naive baseline is a deterministic
    // shuffle (arbitrary order), not the list as-is.
    let perfect = oracle::perfect_trace(&pairs, |a, b| truth.is_match(a, b), u64::MAX);
    let mut arbitrary = pairs.clone();
    {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xe12);
        arbitrary.shuffle(&mut rng);
    }
    let input_order = oracle::oracle_trace(&arbitrary, |a, b| truth.is_match(a, b), u64::MAX);
    let mut by_weight = pairs.clone();
    by_weight.sort_by(|x, y| {
        y.2.partial_cmp(&x.2)
            .expect("finite")
            .then((x.0, x.1).cmp(&(y.0, y.1)))
    });
    let weight_order = oracle::oracle_trace(&by_weight, |a, b| truth.is_match(a, b), u64::MAX);

    // The real progressive engine (matcher decisions, not oracle).
    let res = ProgressiveResolver::new(
        &world.dataset,
        Matcher::new(&world.dataset, MatcherConfig::default()),
        ResolverConfig {
            strategy: Strategy::Progressive(BenefitModel::PairQuantity),
            ..Default::default()
        },
    )
    .run(&pairs);

    let total_true = truth.matching_pairs() as f64;
    let curve = |trace: &minoan_er::Trace| -> Vec<(f64, f64)> {
        let mut pts = Vec::new();
        let mut found = 0u64;
        for s in trace.steps() {
            if s.matched {
                found += 1;
            }
            if s.comparison % 25 == 0 || s.comparison == trace.comparisons() {
                pts.push((s.comparison as f64, found as f64 / total_true));
            }
        }
        pts
    };

    let series = vec![
        plot::Series::new("perfect oracle", curve(&perfect)),
        plot::Series::new("weight-order oracle", curve(&weight_order)),
        plot::Series::new("arbitrary-order oracle", curve(&input_order)),
        plot::Series::new("progressive (real matcher)", curve(&res.trace)),
    ];
    let mut out = plot::render_plot(&series, 64, 16, 1.0);
    for budget_frac in [0.1, 0.25, 0.5] {
        let budget = (pairs.len() as f64 * budget_frac) as u64;
        let eff_weight = oracle::schedule_efficiency(&weight_order, &perfect, budget);
        let eff_input = oracle::schedule_efficiency(&input_order, &perfect, budget);
        let eff_real = oracle::schedule_efficiency(&res.trace, &perfect, budget);
        let _ = writeln!(
            out,
            "budget {:>3.0}%: efficiency weight-order {} | arbitrary-order {} | progressive {}",
            budget_frac * 100.0,
            fmt3(eff_weight),
            fmt3(eff_input),
            fmt3(eff_real)
        );
    }
    out
}

/// E13 — composite matching rules (Table).
///
/// Claim exercised: reciprocity-based rules reach threshold-matcher
/// precision without per-dataset threshold tuning, and each rule
/// contributes distinct matches.
pub fn exp13_composite_rules(scale: usize, seed: u64) -> String {
    let mut out = String::new();
    for profile in ["center", "periphery", "typo-noisy"] {
        let cfg = match profile {
            "center" => profiles::center_dense(scale, seed),
            "typo-noisy" => profiles::typo_noisy(scale, seed),
            _ => profiles::periphery_sparse(scale, seed),
        };
        let world = generate(&cfg);
        let pairs = super::experiments::candidate_pairs_public(&world, ErMode::CleanClean);
        let matcher = Matcher::new(&world.dataset, MatcherConfig::default());
        let res = CompositeResolver::new(&world.dataset, &matcher).run(&pairs);
        let mut table = Table::new(vec!["rule", "matches", "precision"]);
        for rule in [
            Rule::NameReciprocity,
            Rule::ValueReciprocity,
            Rule::RankAggregation,
        ] {
            let ms: Vec<_> = res.by_rule(rule).collect();
            let tp = ms.iter().filter(|m| world.truth.is_match(m.a, m.b)).count();
            let precision = if ms.is_empty() {
                0.0
            } else {
                tp as f64 / ms.len() as f64
            };
            table.row(vec![
                rule.name().to_string(),
                ms.len().to_string(),
                fmt3(precision),
            ]);
        }
        let all: Vec<_> = res.matches.iter().map(|m| (m.a, m.b)).collect();
        let q = metrics::match_quality(&world.truth, &all);
        table.row(vec![
            "ALL RULES".to_string(),
            all.len().to_string(),
            fmt3(q.precision),
        ]);
        // Threshold-matcher reference.
        let reference = ProgressiveResolver::new(
            &world.dataset,
            Matcher::new(&world.dataset, MatcherConfig::default()),
            ResolverConfig::default(),
        )
        .run(&pairs);
        let qr = metrics::resolution_quality(&world.truth, &reference);
        table.row(vec![
            "threshold matcher".to_string(),
            reference.matches.len().to_string(),
            fmt3(qr.precision),
        ]);
        let _ = writeln!(
            out,
            "profile = {profile} (recall: rules {} vs threshold {})\n{table}",
            fmt3(q.recall),
            fmt3(qr.recall)
        );
    }
    out
}

/// E14 — clustering algorithms over the same match set (Table).
///
/// Claim exercised: transitive closure over-merges as matcher precision
/// drops; the center-based algorithms and unique mapping keep cluster
/// quality (B-cubed, VI) higher at equal input.
pub fn exp14_clustering(scale: usize, seed: u64) -> String {
    use minoan_er::clustering::ClusteringAlgorithm;
    let mut out = String::new();
    for (label, threshold) in [
        ("precise matcher (t=0.55)", 0.55),
        ("noisy matcher (t=0.30)", 0.30),
    ] {
        let world = generate(&profiles::center_dense(scale, seed));
        let pairs = super::experiments::candidate_pairs_public(&world, ErMode::CleanClean);
        let mut mconfig = MatcherConfig::default();
        mconfig.threshold = threshold;
        mconfig.value_floor = mconfig.value_floor.min(threshold);
        let res = ProgressiveResolver::new(
            &world.dataset,
            Matcher::new(&world.dataset, mconfig),
            ResolverConfig::default(),
        )
        .run(&pairs);
        let truth_clusters: Vec<Vec<u32>> = world
            .truth
            .clusters()
            .iter()
            .filter(|c| c.len() >= 2)
            .map(|c| c.iter().map(|e| e.0).collect())
            .collect();
        let mut table = Table::new(vec![
            "algorithm",
            "clusters",
            "pairwise F1",
            "b-cubed F1",
            "VI",
        ]);
        for alg in ClusteringAlgorithm::ALL {
            let clusters = alg.run(world.dataset.len(), &res.matches, |e| {
                world.dataset.kb_of(e).0
            });
            let q = minoan_eval::cluster_quality(world.dataset.len(), &clusters, &truth_clusters);
            table.row(vec![
                alg.name().to_string(),
                clusters.len().to_string(),
                fmt3(q.pairwise.f1),
                fmt3(q.bcubed.f1),
                fmt3(q.vi),
            ]);
        }
        let _ = writeln!(
            out,
            "{label}, {} accepted matches\n{table}",
            res.matches.len()
        );
    }
    out
}

/// E15 — cluster fault tolerance of the parallel jobs (Table).
///
/// Claim exercised: with task retry and speculative execution, the
/// MapReduce meta-blocking jobs absorb node failures and stragglers with
/// bounded makespan inflation — the Hadoop property \[4,5\] relies on.
pub fn exp15_fault_tolerance(scale: usize, seed: u64) -> String {
    use minoan_mapreduce::{fault_free_makespan, simulate_cluster, FaultConfig};
    let world = generate(&profiles::center_dense(scale * 2, seed));
    // A 32-worker engine produces 128 map tasks — cluster-like granularity.
    let engine = minoan_mapreduce::Engine::new(32);
    let (_, stats) = minoan_blocking::parallel::parallel_token_blocking_with_stats(
        &world.dataset,
        ErMode::CleanClean,
        &engine,
    );
    let tasks = &stats.map_task_nanos;
    let workers = 8usize;
    let clean = fault_free_makespan(tasks, workers).max(1);
    let mut table = Table::new(vec![
        "scenario",
        "makespan ms",
        "vs fault-free",
        "failed attempts",
        "speculative (wins)",
    ]);
    let scenarios: Vec<(&str, FaultConfig)> = vec![
        (
            "fault-free",
            FaultConfig {
                failure_probability: 0.0,
                straggler_probability: 0.0,
                straggler_factor: 1.0,
                speculative_threshold: None,
                seed,
                ..Default::default()
            },
        ),
        (
            "2% failures",
            FaultConfig {
                failure_probability: 0.02,
                straggler_probability: 0.0,
                straggler_factor: 1.0,
                speculative_threshold: None,
                seed,
                ..Default::default()
            },
        ),
        (
            "15% stragglers x10, no speculation",
            FaultConfig {
                failure_probability: 0.0,
                straggler_probability: 0.15,
                straggler_factor: 10.0,
                speculative_threshold: None,
                seed,
                ..Default::default()
            },
        ),
        (
            "15% stragglers x10, speculation",
            FaultConfig {
                failure_probability: 0.0,
                straggler_probability: 0.15,
                straggler_factor: 10.0,
                speculative_threshold: Some(1.5),
                seed,
                ..Default::default()
            },
        ),
        (
            "failures + stragglers + speculation",
            FaultConfig {
                seed,
                ..Default::default()
            },
        ),
    ];
    for (name, cfg) in scenarios {
        let sim = simulate_cluster(tasks, workers, &cfg);
        table.row(vec![
            name.to_string(),
            format!("{:.2}", sim.makespan_nanos as f64 / 1e6),
            format!("{:.2}x", sim.makespan_nanos as f64 / clean as f64),
            sim.failed_attempts.to_string(),
            format!("{} ({})", sim.speculative_attempts, sim.speculative_wins),
        ]);
    }
    format!(
        "map tasks: {} | fault-free reference: {:.2} ms\n{table}",
        tasks.len(),
        clean as f64 / 1e6
    )
}

/// E16 — variance across worlds: bootstrap confidence intervals (Table).
///
/// Claim exercised: the E4 ordering result (progressive > static > random
/// in early benefit) is not an artefact of one synthetic world — across
/// independently seeded worlds the recall-AUC confidence intervals of the
/// strategies separate.
pub fn exp16_variance(scale: usize, seed: u64) -> String {
    use minoan_eval::{mean_interval, progressive_curves, recall_auc};
    let strategies: Vec<(&str, Strategy)> = vec![
        (
            "progressive",
            Strategy::Progressive(BenefitModel::PairQuantity),
        ),
        ("static-best-first", Strategy::StaticBestFirst),
        ("random", Strategy::Random { seed }),
    ];
    let seeds: Vec<u64> = (0..5).map(|i| seed.wrapping_add(i * 1000 + 1)).collect();
    let mut aucs: Vec<(usize, Vec<f64>)> = strategies.iter().map(|_| (0, Vec::new())).collect();
    for &s in &seeds {
        let world = generate(&profiles::center_dense(scale, s));
        let pairs = super::experiments::candidate_pairs_public(&world, ErMode::CleanClean);
        // Early-benefit regime: 25% of the candidate budget.
        let budget = (pairs.len() / 4) as u64;
        for (i, (_, strategy)) in strategies.iter().enumerate() {
            let res = ProgressiveResolver::new(
                &world.dataset,
                Matcher::new(&world.dataset, MatcherConfig::default()),
                ResolverConfig {
                    strategy: *strategy,
                    budget,
                    ..Default::default()
                },
            )
            .run(&pairs);
            let curves = progressive_curves(&world.dataset, &world.truth, &res.trace, 20);
            aucs[i].1.push(recall_auc(&curves));
        }
    }
    let mut table = Table::new(vec!["strategy", "recall-AUC @25% budget (95% CI)"]);
    let mut intervals = Vec::new();
    for ((name, _), (_, samples)) in strategies.iter().zip(&aucs) {
        let iv = mean_interval(samples, 2_000, 0.95, seed);
        table.row(vec![name.to_string(), iv.render()]);
        intervals.push(iv);
    }
    let separated = intervals[0].lo > intervals[2].hi;
    format!(
        "{} independently seeded worlds, early-benefit regime\n{table}\nprogressive vs random CIs {}\n",
        seeds.len(),
        if separated { "SEPARATE (significant)" } else { "overlap" }
    )
}

/// E17 — corruption models vs blocker families (Table).
///
/// Claim exercised: which blocker survives which *kind* of value noise.
/// OCR confusion and insert/delete preserve most q-grams (q-grams and
/// adaptive SNM hold coverage); abbreviation destroys suffix q-grams but
/// keeps prefixes (adaptive SNM, which sorts by prefix, wins); every model
/// hurts exact token keys.
pub fn exp17_corruption(scale: usize, seed: u64) -> String {
    use minoan_datagen::CorruptionModel;
    let threads = default_threads();
    let methods: Vec<(&str, Method)> = vec![
        ("token", Method::Token),
        ("qgrams(3)", Method::QGrams),
        ("adaptive-snm", Method::AdaptiveSortedNeighborhood),
    ];
    let mut table = Table::new(vec![
        "corruption",
        "token PC",
        "qgrams PC",
        "adaptive-snm PC",
    ]);
    for model in CorruptionModel::ALL {
        let world = generate(&profiles::typo_noisy_with(scale, seed, model));
        let mut row = vec![model.name().to_string()];
        for (_, method) in &methods {
            let raw = method.run(&world.dataset, ErMode::CleanClean, threads);
            let blocks =
                minoan_blocking::filter::filter(&minoan_blocking::purge::purge(&raw).collection);
            let (pc, _) = pair_quality(&world, &blocks.distinct_pairs());
            row.push(fmt3(pc));
        }
        table.row(row);
    }
    format!("typo rate 0.45, opaque URIs, collections after purge + filter\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: usize = 120;

    #[test]
    fn exp9_produces_both_profiles() {
        let r = exp9_blocking_methods(SCALE, 3);
        assert!(r.contains("profile = center"));
        assert!(r.contains("profile = periphery"));
        assert!(r.contains("minhash-lsh"));
    }

    #[test]
    fn exp10_lists_all_pruners() {
        let r = exp10_metablocking_extensions(SCALE, 3);
        for p in ["none", "WEP/CBS", "WNP/ARCS", "BLAST", "supervised"] {
            assert!(r.contains(p), "missing {p} in\n{r}");
        }
    }

    #[test]
    fn exp11_covers_all_orders_plus_reference() {
        let r = exp11_incremental(SCALE, 3);
        for o in [
            "kb-sequential",
            "round-robin",
            "shuffled",
            "clustered-bursts",
            "batch reference",
        ] {
            assert!(r.contains(o), "missing {o} in\n{r}");
        }
    }

    #[test]
    fn exp12_renders_plot_and_efficiencies() {
        let r = exp12_oracle_bounds(SCALE, 3);
        assert!(r.contains("perfect oracle"));
        assert!(r.contains("efficiency"));
    }

    #[test]
    fn exp14_compares_clusterings() {
        let r = exp14_clustering(SCALE, 3);
        assert!(r.contains("connected-components"));
        assert!(r.contains("unique-mapping"));
        assert!(r.contains("b-cubed"));
    }

    #[test]
    fn exp15_simulates_faults() {
        let r = exp15_fault_tolerance(SCALE, 3);
        assert!(r.contains("fault-free"));
        assert!(r.contains("speculation"));
    }

    #[test]
    fn exp16_reports_intervals() {
        let r = exp16_variance(SCALE, 3);
        assert!(r.contains("recall-AUC"));
        assert!(r.contains("CI"));
    }

    #[test]
    fn exp17_sweeps_corruption_models() {
        let r = exp17_corruption(SCALE, 3);
        assert!(r.contains("ocr"));
        assert!(r.contains("abbreviation"));
    }

    #[test]
    fn exp13_reports_rules() {
        let r = exp13_composite_rules(SCALE, 3);
        assert!(r.contains("R1-name"));
        assert!(r.contains("threshold matcher"));
    }
}
