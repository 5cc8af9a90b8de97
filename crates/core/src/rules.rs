//! Composite matching rules.
//!
//! The MinoanER platform line of work refined the single-threshold matcher
//! into a small set of *composite rules* that fire without any dataset-
//! specific threshold tuning, exploiting reciprocity ("I am your best
//! candidate and you are mine") instead of absolute similarity values:
//!
//! * **R1 — reciprocal name match**: two descriptions whose name-like
//!   literals are each other's best candidate with near-identical strings.
//! * **R2 — reciprocal value match**: each other's top-1 by value
//!   similarity, above a loose floor.
//! * **R3 — rank aggregation**: a weighted combination of the value rank
//!   and the neighbour-agreement score; fires on reciprocal top-1
//!   aggregated rank.
//!
//! Rules are tried in that order; each accepted match consumes its
//! endpoints (unique mapping), so later rules only see what earlier,
//! higher-precision rules left behind.

use crate::matcher::Matcher;
use crate::similarity::{jaccard, JaroScratch};
use minoan_common::{FxHashMap, FxHashSet};
use minoan_rdf::{Dataset, EntityId};

/// Which rule accepted a match (provenance for evaluation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// Reciprocal name match.
    NameReciprocity,
    /// Reciprocal top value similarity.
    ValueReciprocity,
    /// Rank aggregation of value and neighbour evidence.
    RankAggregation,
}

impl Rule {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NameReciprocity => "R1-name",
            Rule::ValueReciprocity => "R2-value",
            Rule::RankAggregation => "R3-rank",
        }
    }
}

/// Minimum Jaro–Winkler between names for R1.
pub const R1_NAME_THRESHOLD: f64 = 0.92;
/// Minimum value similarity for R2 (a loose floor, not a tuned
/// threshold — reciprocity does the real filtering).
pub const R2_VALUE_FLOOR: f64 = 0.4;
/// Weight of the neighbour-agreement component in R3 (the rest goes to
/// value similarity).
pub const R3_NEIGHBOR_WEIGHT: f64 = 0.4;
/// Minimum aggregated score for R3.
pub const R3_AGGREGATE_FLOOR: f64 = 0.2;

/// One accepted match with its provenance.
#[derive(Clone, Copy, Debug)]
pub struct RuleMatch {
    /// Smaller endpoint.
    pub a: EntityId,
    /// Larger endpoint.
    pub b: EntityId,
    /// The score the accepting rule saw.
    pub score: f64,
    /// The rule that fired.
    pub rule: Rule,
}

/// Output of [`CompositeResolver::run`].
#[derive(Debug, Default)]
pub struct CompositeResolution {
    /// Accepted matches in acceptance order.
    pub matches: Vec<RuleMatch>,
    /// Similarity evaluations performed (cost measure).
    pub comparisons: u64,
}

impl CompositeResolution {
    /// Matches accepted by a given rule.
    pub fn by_rule(&self, rule: Rule) -> impl Iterator<Item = &RuleMatch> {
        self.matches.iter().filter(move |m| m.rule == rule)
    }
}

/// The composite-rule resolver. Operates on the candidate pairs produced
/// by (meta-)blocking; never compares outside them.
pub struct CompositeResolver<'d> {
    dataset: &'d Dataset,
    matcher: &'d Matcher,
}

impl<'d> CompositeResolver<'d> {
    /// Creates a resolver over a dataset and its pre-built matcher.
    pub fn new(dataset: &'d Dataset, matcher: &'d Matcher) -> Self {
        Self { dataset, matcher }
    }

    /// Runs all rules over the candidate pairs.
    pub fn run(&self, pairs: &[(EntityId, EntityId, f64)]) -> CompositeResolution {
        let mut out = CompositeResolution::default();
        // Adjacency: entity → candidate partners.
        let mut partners: FxHashMap<EntityId, Vec<EntityId>> = FxHashMap::default();
        let mut seen: FxHashSet<(EntityId, EntityId)> = FxHashSet::default();
        for &(a, b, _) in pairs {
            let key = (a.min(b), a.max(b));
            if seen.insert(key) {
                partners.entry(key.0).or_default().push(key.1);
                partners.entry(key.1).or_default().push(key.0);
            }
        }
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "sorts each list in place and emits nothing"
        )]
        for list in partners.values_mut() {
            list.sort_unstable();
        }

        let mut consumed: FxHashSet<EntityId> = FxHashSet::default();
        let accept = |a: EntityId,
                      b: EntityId,
                      score: f64,
                      rule: Rule,
                      out: &mut CompositeResolution,
                      consumed: &mut FxHashSet<EntityId>| {
            out.matches.push(RuleMatch {
                a: a.min(b),
                b: a.max(b),
                score,
                rule,
            });
            consumed.insert(a);
            consumed.insert(b);
        };

        let mut jaro = JaroScratch::default();

        // --- R1: reciprocal name match ---------------------------------
        // −1 when either side has no name-like literal (rule not applicable).
        let name_best = self.best_by(&partners, |a, b| {
            self.matcher
                .name_similarity(a, b, &mut jaro)
                .unwrap_or(-1.0)
        });
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "mutual best pairs are disjoint, so no acceptance blocks another, and \
                      `out.matches` is sorted at the end"
        )]
        for (&e, &(best, sim)) in name_best.iter() {
            if consumed.contains(&e) || consumed.contains(&best) || e >= best {
                continue;
            }
            if sim >= R1_NAME_THRESHOLD && name_best.get(&best).map(|&(x, _)| x) == Some(e) {
                accept(e, best, sim, Rule::NameReciprocity, &mut out, &mut consumed);
            }
        }

        // Cache value similarities (each counted once as a comparison).
        let mut value_cache: FxHashMap<(EntityId, EntityId), f64> = FxHashMap::default();
        let mut value_of = |a: EntityId, b: EntityId, comparisons: &mut u64| -> f64 {
            let key = (a.min(b), a.max(b));
            *value_cache.entry(key).or_insert_with(|| {
                *comparisons += 1;
                self.matcher.value_similarity(key.0, key.1, &mut jaro)
            })
        };

        // --- R2: reciprocal value match --------------------------------
        let mut value_best: FxHashMap<EntityId, (EntityId, f64)> = FxHashMap::default();
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "each key's best partner depends on no other key's, and nothing is emitted"
        )]
        for (&e, list) in partners.iter() {
            if consumed.contains(&e) {
                continue;
            }
            let mut best: Option<(EntityId, f64)> = None;
            for &p in list {
                if consumed.contains(&p) {
                    continue;
                }
                let v = value_of(e, p, &mut out.comparisons);
                if best.is_none_or(|(_, bv)| v > bv) {
                    best = Some((p, v));
                }
            }
            if let Some(b) = best {
                value_best.insert(e, b);
            }
        }
        let mut r2: Vec<(EntityId, EntityId, f64)> = Vec::new();
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "`r2` is sorted right after"
        )]
        for (&e, &(best, sim)) in value_best.iter() {
            if e < best
                && sim >= R2_VALUE_FLOOR
                && value_best.get(&best).map(|&(x, _)| x) == Some(e)
            {
                r2.push((e, best, sim));
            }
        }
        r2.sort_by(|x, y| {
            y.2.partial_cmp(&x.2)
                .expect("R2 similarities are finite by construction")
                .then((x.0, x.1).cmp(&(y.0, y.1)))
        });
        for (a, b, sim) in r2 {
            if !consumed.contains(&a) && !consumed.contains(&b) {
                accept(a, b, sim, Rule::ValueReciprocity, &mut out, &mut consumed);
            }
        }

        // --- R3: rank aggregation ---------------------------------------
        let agg_best = self.best_by(&partners, |a, b| {
            if consumed.contains(&a) || consumed.contains(&b) {
                return -1.0;
            }
            let v = value_of(a, b, &mut out.comparisons);
            let n = self.neighbor_agreement(a, b);
            (1.0 - R3_NEIGHBOR_WEIGHT) * v + R3_NEIGHBOR_WEIGHT * n
        });
        let mut r3: Vec<(EntityId, EntityId, f64)> = Vec::new();
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "`r3` is sorted right after"
        )]
        for (&e, &(best, score)) in agg_best.iter() {
            if e < best
                && score >= R3_AGGREGATE_FLOOR
                && agg_best.get(&best).map(|&(x, _)| x) == Some(e)
            {
                r3.push((e, best, score));
            }
        }
        r3.sort_by(|x, y| {
            y.2.partial_cmp(&x.2)
                .expect("R3 aggregate scores are finite by construction")
                .then((x.0, x.1).cmp(&(y.0, y.1)))
        });
        for (a, b, score) in r3 {
            if !consumed.contains(&a) && !consumed.contains(&b) {
                accept(a, b, score, Rule::RankAggregation, &mut out, &mut consumed);
            }
        }

        out.matches.sort_by_key(|x| (x.a, x.b));
        out
    }

    /// Best partner per entity under a scoring function (ties: smaller id).
    fn best_by(
        &self,
        partners: &FxHashMap<EntityId, Vec<EntityId>>,
        mut score: impl FnMut(EntityId, EntityId) -> f64,
    ) -> FxHashMap<EntityId, (EntityId, f64)> {
        let mut out: FxHashMap<EntityId, (EntityId, f64)> = FxHashMap::default();
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
        let mut keys: Vec<&EntityId> = partners.keys().collect();
        keys.sort_unstable();
        for &e in keys {
            let mut best: Option<(EntityId, f64)> = None;
            for &p in &partners[&e] {
                let s = score(e, p);
                if s < 0.0 {
                    continue;
                }
                if best.is_none_or(|(_, bs)| s > bs) {
                    best = Some((p, s));
                }
            }
            if let Some(b) = best {
                out.insert(e, b);
            }
        }
        out
    }

    /// Structural neighbour agreement: of `a`'s neighbours, the fraction
    /// with ≥ 1 candidate-or-identical counterpart among `b`'s neighbours
    /// — cheap containment over the two sorted neighbour lists' token sets.
    fn neighbor_agreement(&self, a: EntityId, b: EntityId) -> f64 {
        let na = self.dataset.neighbors(a);
        let nb = self.dataset.neighbors(b);
        if na.is_empty() || nb.is_empty() {
            return 0.0;
        }
        let cap = 8usize;
        let mut agreeing = 0usize;
        let mut considered = 0usize;
        for &x in na.iter().take(cap) {
            considered += 1;
            let tx = self.matcher.tokens_of(x);
            if tx.is_empty() {
                continue;
            }
            for &y in nb.iter().take(cap) {
                if jaccard(tx, self.matcher.tokens_of(y)) >= 0.35 {
                    agreeing += 1;
                    break;
                }
            }
        }
        agreeing as f64 / considered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::MatcherConfig;
    use minoan_blocking::{builders, ErMode};
    use minoan_datagen::{generate, profiles, GeneratedWorld};
    use minoan_metablocking::Session;

    /// ARCS × WNP candidates, the session defaults.
    fn candidates(g: &GeneratedWorld) -> Vec<(EntityId, EntityId, f64)> {
        let blocks = builders::token_blocking(&g.dataset, ErMode::CleanClean);
        Session::new(&blocks).run().into_candidates()
    }

    fn run(g: &GeneratedWorld) -> CompositeResolution {
        let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
        let pairs = candidates(g);
        CompositeResolver::new(&g.dataset, &matcher).run(&pairs)
    }

    #[test]
    fn rules_achieve_high_precision_without_tuned_threshold() {
        let g = generate(&profiles::center_dense(200, 41));
        let res = run(&g);
        assert!(!res.matches.is_empty());
        let tp = res
            .matches
            .iter()
            .filter(|m| g.truth.is_match(m.a, m.b))
            .count();
        let precision = tp as f64 / res.matches.len() as f64;
        assert!(precision > 0.9, "precision {precision}");
        let recall = tp as f64 / g.truth.matching_pairs() as f64;
        assert!(recall > 0.5, "recall {recall}");
    }

    #[test]
    fn unique_mapping_holds() {
        let g = generate(&profiles::center_dense(150, 43));
        let res = run(&g);
        let mut seen: FxHashSet<EntityId> = FxHashSet::default();
        for m in &res.matches {
            assert!(seen.insert(m.a), "{:?} matched twice", m.a);
            assert!(seen.insert(m.b), "{:?} matched twice", m.b);
        }
    }

    #[test]
    fn name_rule_fires_on_clean_names() {
        let g = generate(&profiles::center_dense(150, 47));
        let res = run(&g);
        let r1 = res.by_rule(Rule::NameReciprocity).count();
        assert!(r1 > 0, "R1 should fire on centre data with shared labels");
        // R1 matches must be near-perfect.
        let r1_tp = res
            .by_rule(Rule::NameReciprocity)
            .filter(|m| g.truth.is_match(m.a, m.b))
            .count();
        assert!(r1_tp as f64 / r1 as f64 > 0.9);
    }

    #[test]
    fn later_rules_add_recall_over_r1_alone() {
        let g = generate(&profiles::periphery_sparse(200, 53));
        let res = run(&g);
        let total = res.matches.len();
        let r1 = res.by_rule(Rule::NameReciprocity).count();
        assert!(total >= r1, "rules must compose");
        assert!(
            res.by_rule(Rule::ValueReciprocity).count() > 0
                || res.by_rule(Rule::RankAggregation).count() > 0,
            "R2/R3 should contribute on noisy periphery data"
        );
    }

    #[test]
    fn comparisons_are_bounded_by_candidate_count() {
        let g = generate(&profiles::center_dense(120, 59));
        let pairs = candidates(&g);
        let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
        let res = CompositeResolver::new(&g.dataset, &matcher).run(&pairs);
        // Value similarities are cached per pair: at most one comparison
        // per distinct candidate pair.
        assert!(res.comparisons <= pairs.len() as u64);
    }

    #[test]
    fn empty_candidates_empty_output() {
        let g = generate(&profiles::center_dense(50, 61));
        let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
        let res = CompositeResolver::new(&g.dataset, &matcher).run(&[]);
        assert!(res.matches.is_empty());
        assert_eq!(res.comparisons, 0);
    }

    #[test]
    fn rule_names_stable() {
        assert_eq!(Rule::NameReciprocity.name(), "R1-name");
        assert_eq!(Rule::ValueReciprocity.name(), "R2-value");
        assert_eq!(Rule::RankAggregation.name(), "R3-rank");
    }

    #[test]
    fn deterministic() {
        let g = generate(&profiles::lod_cloud(120, 67));
        let a = run(&g);
        let b = run(&g);
        assert_eq!(a.matches.len(), b.matches.len());
        for (x, y) in a.matches.iter().zip(&b.matches) {
            assert_eq!((x.a, x.b, x.rule), (y.a, y.b, y.rule));
        }
    }
}
