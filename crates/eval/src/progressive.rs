//! Progressive quality curves from a resolution trace.
//!
//! The paper's benefit dimensions are evaluated *as a function of consumed
//! budget*: a progressive method should deliver most of its final quality
//! early. Curves are computed by replaying the trace and sampling
//! checkpoints.
//!
//! Quality-dimension definitions (only *correct* merges count — a false
//! merge must not inflate quality):
//!
//! * **recall / precision** — standard, over emitted matches so far;
//! * **attribute completeness** — per matchable world entity, the fraction
//!   of its full (cluster-union) attribute vocabulary covered by its best
//!   resolved component, averaged; unresolved entities contribute their
//!   best single description's coverage;
//! * **entity coverage** — fraction of matchable world entities with at
//!   least one correct resolved pair;
//! * **relationship completeness** — fraction of matchable world links
//!   whose *both* endpoint entities are covered.

use minoan_common::{FxHashSet, UnionFind};
use minoan_datagen::GroundTruth;
use minoan_er::Trace;
use minoan_rdf::{Dataset, EntityId};

/// One checkpoint of the progressive curves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CurvePoint {
    /// Comparisons consumed at this checkpoint.
    pub comparisons: u64,
    /// Recall of emitted matches so far.
    pub recall: f64,
    /// Precision of emitted matches so far.
    pub precision: f64,
    /// Attribute completeness (see module docs).
    pub attr_completeness: f64,
    /// Entity coverage.
    pub entity_coverage: f64,
    /// Relationship completeness.
    pub rel_completeness: f64,
}

/// Computes progressive curves with ~`num_points` checkpoints (plus the
/// origin and the final state).
pub fn progressive_curves(
    dataset: &Dataset,
    truth: &GroundTruth,
    trace: &Trace,
    num_points: usize,
) -> Vec<CurvePoint> {
    let num_points = num_points.max(1);
    let total = trace.comparisons();
    let stride = (total / num_points as u64).max(1);

    // Per-description attribute sets and per-world-entity unions.
    let attrs_of: Vec<FxHashSet<u32>> = (0..dataset.len() as u32)
        .map(|e| {
            dataset
                .description(EntityId(e))
                .attributes()
                .map(|(p, _)| p.0)
                .collect()
        })
        .collect();
    let matchable: Vec<u32> = (0..truth.num_world_entities() as u32)
        .filter(|&w| truth.cluster(w).len() >= 2)
        .collect();
    let full_attrs: Vec<usize> = matchable
        .iter()
        .map(|&w| {
            let mut u: FxHashSet<u32> = FxHashSet::default();
            for &d in truth.cluster(w) {
                u.extend(&attrs_of[d.index()]);
            }
            u.len()
        })
        .collect();

    let mut uf = UnionFind::new(dataset.len());
    let mut tp = 0u64;
    let mut emitted = 0u64;
    let mut points = Vec::with_capacity(num_points + 2);
    points.push(checkpoint(
        0,
        truth,
        &matchable,
        &full_attrs,
        &attrs_of,
        &mut uf,
        0,
        0,
    ));

    let steps = trace.steps();
    let mut next_checkpoint = stride;
    for (i, step) in steps.iter().enumerate() {
        if step.matched {
            emitted += 1;
            let (a, b) = step.pair();
            if truth.is_match(a, b) {
                tp += 1;
                uf.union(a.0, b.0);
            }
        }
        let is_last = i + 1 == steps.len();
        if step.comparison >= next_checkpoint || is_last {
            points.push(checkpoint(
                step.comparison,
                truth,
                &matchable,
                &full_attrs,
                &attrs_of,
                &mut uf,
                tp,
                emitted,
            ));
            next_checkpoint = step.comparison + stride;
        }
    }
    points
}

#[expect(
    clippy::too_many_arguments,
    reason = "the curve loop's running state, read once per checkpoint"
)]
fn checkpoint(
    comparisons: u64,
    truth: &GroundTruth,
    matchable: &[u32],
    full_attrs: &[usize],
    attrs_of: &[FxHashSet<u32>],
    uf: &mut UnionFind,
    tp: u64,
    emitted: u64,
) -> CurvePoint {
    let mut covered = vec![false; truth.num_world_entities()];
    let mut ac_sum = 0.0;
    for (mi, &w) in matchable.iter().enumerate() {
        let cluster = truth.cluster(w);
        // Group members by resolved root.
        let mut best_cov = 0usize;
        let mut groups: minoan_common::FxHashMap<u32, FxHashSet<u32>> =
            minoan_common::FxHashMap::default();
        let mut any_pair = false;
        let mut sizes: minoan_common::FxHashMap<u32, usize> = minoan_common::FxHashMap::default();
        for &d in cluster {
            let root = uf.find(d.0);
            let g = groups.entry(root).or_default();
            g.extend(&attrs_of[d.index()]);
            let s = sizes.entry(root).or_insert(0);
            *s += 1;
            if *s >= 2 {
                any_pair = true;
            }
        }
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "a max is order-free"
        )]
        for g in groups.values() {
            best_cov = best_cov.max(g.len());
        }
        if full_attrs[mi] > 0 {
            ac_sum += best_cov as f64 / full_attrs[mi] as f64;
        }
        covered[w as usize] = any_pair;
    }
    let ac = if matchable.is_empty() {
        0.0
    } else {
        ac_sum / matchable.len() as f64
    };
    let ec = if matchable.is_empty() {
        0.0
    } else {
        matchable.iter().filter(|&&w| covered[w as usize]).count() as f64 / matchable.len() as f64
    };
    let total_links = truth.matchable_links();
    let rc = if total_links == 0 {
        0.0
    } else {
        truth
            .world_links()
            .iter()
            .filter(|&&(a, b)| {
                truth.cluster(a).len() >= 2
                    && truth.cluster(b).len() >= 2
                    && covered[a as usize]
                    && covered[b as usize]
            })
            .count() as f64
            / total_links as f64
    };
    CurvePoint {
        comparisons,
        recall: if truth.matching_pairs() == 0 {
            0.0
        } else {
            tp as f64 / truth.matching_pairs() as f64
        },
        precision: if emitted == 0 {
            0.0
        } else {
            tp as f64 / emitted as f64
        },
        attr_completeness: ac,
        entity_coverage: ec,
        rel_completeness: rc,
    }
}

/// Normalised area under the recall curve (mean recall over the consumed
/// budget) — the scalar summary of progressiveness.
pub fn recall_auc(points: &[CurvePoint]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.comparisons as f64, p.recall))
        .collect();
    minoan_common::stats::normalized_step_auc(&pts)
}

/// Normalised AUC of an arbitrary dimension selected by `f`.
pub fn dimension_auc(points: &[CurvePoint], f: impl Fn(&CurvePoint) -> f64) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.comparisons as f64, f(p)))
        .collect();
    minoan_common::stats::normalized_step_auc(&pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_blocking::{builders, ErMode};
    use minoan_datagen::{generate, profiles};
    use minoan_er::{Matcher, MatcherConfig, ProgressiveResolver, ResolverConfig, Strategy};
    use minoan_metablocking::Session;

    fn run(g: &minoan_datagen::GeneratedWorld, strategy: Strategy) -> minoan_er::Resolution {
        let blocks = builders::token_blocking(&g.dataset, ErMode::CleanClean);
        let cleaned = minoan_blocking::filter::clean(&blocks);
        // ARCS × WNP candidates, the session defaults.
        let pairs = Session::new(&cleaned).run().into_candidates();
        let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
        ProgressiveResolver::new(
            &g.dataset,
            matcher,
            ResolverConfig {
                strategy,
                ..Default::default()
            },
        )
        .run(&pairs)
    }

    #[test]
    fn curves_are_monotone_and_bounded() {
        let g = generate(&profiles::center_dense(120, 8));
        let res = run(
            &g,
            Strategy::Progressive(minoan_er::BenefitModel::PairQuantity),
        );
        let pts = progressive_curves(&g.dataset, &g.truth, &res.trace, 15);
        assert!(pts.len() >= 2);
        assert_eq!(pts[0].comparisons, 0);
        for w in pts.windows(2) {
            assert!(w[1].comparisons >= w[0].comparisons);
            assert!(
                w[1].recall + 1e-12 >= w[0].recall,
                "recall must be monotone"
            );
            assert!(w[1].entity_coverage + 1e-12 >= w[0].entity_coverage);
            assert!(w[1].attr_completeness + 1e-12 >= w[0].attr_completeness);
            assert!(w[1].rel_completeness + 1e-12 >= w[0].rel_completeness);
        }
        for p in &pts {
            for v in [
                p.recall,
                p.precision,
                p.attr_completeness,
                p.entity_coverage,
                p.rel_completeness,
            ] {
                assert!((0.0..=1.0 + 1e-9).contains(&v));
            }
        }
        let last = pts.last().unwrap();
        assert!(last.recall > 0.5, "final recall too low: {}", last.recall);
        assert!(last.entity_coverage > 0.5);
    }

    #[test]
    fn attribute_completeness_starts_above_zero() {
        // Before any match, each entity is covered by its best single
        // description — non-zero coverage.
        let g = generate(&profiles::center_dense(80, 9));
        let res = run(
            &g,
            Strategy::Progressive(minoan_er::BenefitModel::PairQuantity),
        );
        let pts = progressive_curves(&g.dataset, &g.truth, &res.trace, 5);
        assert!(pts[0].attr_completeness > 0.2);
        assert_eq!(pts[0].entity_coverage, 0.0);
        assert_eq!(pts[0].recall, 0.0);
    }

    #[test]
    fn progressive_auc_beats_random() {
        let g = generate(&profiles::center_dense(160, 10));
        let prog = run(
            &g,
            Strategy::Progressive(minoan_er::BenefitModel::PairQuantity),
        );
        let rand = run(&g, Strategy::Random { seed: 3 });
        let prog_pts = progressive_curves(&g.dataset, &g.truth, &prog.trace, 20);
        let rand_pts = progressive_curves(&g.dataset, &g.truth, &rand.trace, 20);
        assert!(
            recall_auc(&prog_pts) > recall_auc(&rand_pts) + 0.05,
            "progressive {} vs random {}",
            recall_auc(&prog_pts),
            recall_auc(&rand_pts)
        );
    }

    #[test]
    fn false_merges_do_not_inflate_quality() {
        // A trace of only-false matches must leave all quality dims at the
        // unresolved baseline.
        let g = generate(&profiles::center_dense(60, 11));
        let mut trace = minoan_er::Trace::new();
        let kb0: Vec<_> = g.dataset.entities_of_kb(minoan_rdf::KbId(0)).to_vec();
        for (i, w) in kb0.windows(2).take(10).enumerate() {
            trace.push(minoan_er::TraceStep {
                comparison: (i + 1) as u64,
                a: w[0].0,
                b: w[1].0,
                value_similarity: 0.9,
                score: 0.9,
                benefit: 1.0,
                matched: true,
                discovered: false,
            });
        }
        let pts = progressive_curves(&g.dataset, &g.truth, &trace, 5);
        let last = pts.last().unwrap();
        assert_eq!(last.recall, 0.0);
        assert_eq!(last.entity_coverage, 0.0);
        assert_eq!(last.rel_completeness, 0.0);
        assert_eq!(last.precision, 0.0);
    }

    #[test]
    fn dimension_auc_selector_works() {
        let g = generate(&profiles::center_dense(80, 12));
        let res = run(
            &g,
            Strategy::Progressive(minoan_er::BenefitModel::EntityCoverage),
        );
        let pts = progressive_curves(&g.dataset, &g.truth, &res.trace, 10);
        let ec = dimension_auc(&pts, |p| p.entity_coverage);
        let rc = dimension_auc(&pts, |p| p.rel_completeness);
        assert!(ec > 0.0);
        assert!(rc >= 0.0);
        assert!((recall_auc(&pts) - dimension_auc(&pts, |p| p.recall)).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_yields_single_origin_point() {
        let g = generate(&profiles::center_dense(40, 13));
        let trace = minoan_er::Trace::new();
        let pts = progressive_curves(&g.dataset, &g.truth, &trace, 10);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].comparisons, 0);
    }
}
