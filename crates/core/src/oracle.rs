//! Oracle runs: upper bounds for progressive scheduling.
//!
//! To evaluate *scheduling* quality in isolation, the matcher is replaced
//! with a ground-truth oracle that decides every comparison perfectly.
//! Two bounds matter:
//!
//! * [`oracle_trace`] — the given candidate ranking, decided by the
//!   oracle: how much recall the *schedule* could extract if matching were
//!   free of errors (isolates scheduling from matching quality).
//! * [`perfect_trace`] — all true matches first: the absolute optimum any
//!   progressive method could reach with these candidates (the ceiling
//!   both the paper's scheduler and the baselines are measured against).
//!
//! Both produce ordinary [`Trace`]s, so the evaluation crate's progressive
//! curves apply unchanged.

use crate::trace::{Trace, TraceStep};
use minoan_rdf::EntityId;

/// Replays `pairs` in the given order, deciding each with `is_match`;
/// stops at `budget` comparisons.
pub fn oracle_trace(
    pairs: &[(EntityId, EntityId, f64)],
    mut is_match: impl FnMut(EntityId, EntityId) -> bool,
    budget: u64,
) -> Trace {
    let decided = pairs.iter().map(|&(a, b, w)| (a, b, w, is_match(a, b)));
    replay(decided, budget)
}

/// The perfect schedule: all true matches first, then the non-matches,
/// each part by pair — the recall-at-budget ceiling for this candidate set.
/// `is_match` decides each pair once.
pub fn perfect_trace(
    pairs: &[(EntityId, EntityId, f64)],
    mut is_match: impl FnMut(EntityId, EntityId) -> bool,
    budget: u64,
) -> Trace {
    let decide = |&(a, b, w): &(EntityId, EntityId, f64)| (a, b, w, is_match(a, b));
    let mut decided: Vec<_> = pairs.iter().map(decide).collect();
    decided.sort_by_key(|&(a, b, _, matched)| (!matched, a, b));
    replay(decided.into_iter(), budget)
}

/// The trace of pairs already decided, in order, cut at `budget`
/// comparisons (a pair past the budget is never pulled, so never decided).
fn replay(decided: impl Iterator<Item = (EntityId, EntityId, f64, bool)>, budget: u64) -> Trace {
    let mut trace = Trace::new();
    for (comparison, (a, b, w, matched)) in (1..=budget).zip(decided) {
        let sim = if matched { 1.0 } else { 0.0 };
        trace.push(TraceStep {
            comparison,
            a: a.0,
            b: b.0,
            value_similarity: sim,
            score: sim,
            benefit: w,
            matched,
            discovered: false,
        });
    }
    trace
}

/// Scheduling efficiency of a trace against the perfect ceiling: the ratio
/// of matches found within the first `budget` comparisons. 1.0 = the
/// schedule wasted nothing; the divisor counts what the perfect schedule
/// finds in the same budget.
pub fn schedule_efficiency(actual: &Trace, perfect: &Trace, budget: u64) -> f64 {
    let found = |t: &Trace| {
        t.steps()
            .iter()
            .filter(|s| s.comparison <= budget && s.matched)
            .count() as f64
    };
    let ceiling = found(perfect);
    if ceiling == 0.0 {
        return 1.0;
    }
    (found(actual) / ceiling).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    /// Five pairs; (0,1) and (2,3) are true matches.
    fn pairs() -> Vec<(EntityId, EntityId, f64)> {
        vec![
            (e(4), e(5), 0.9), // false, high weight
            (e(0), e(1), 0.5), // true
            (e(6), e(7), 0.4), // false
            (e(2), e(3), 0.3), // true
            (e(8), e(9), 0.1), // false
        ]
    }

    fn oracle(a: EntityId, b: EntityId) -> bool {
        matches!((a.0, b.0), (0, 1) | (2, 3))
    }

    fn matched(t: &Trace) -> Vec<bool> {
        t.steps().iter().map(|s| s.matched).collect()
    }

    #[test]
    fn traces_follow_their_order_and_decide_each_pair_once() {
        let (f, t) = (false, true);
        let input = oracle_trace(&pairs(), oracle, 9);
        assert_eq!(matched(&input), [f, t, f, t, f]);
        let perfect = perfect_trace(&pairs(), oracle, 9);
        assert_eq!(matched(&perfect), [t, t, f, f, f]);
        let calls = std::cell::Cell::new(0);
        let counted = |a, b| (calls.set(calls.get() + 1), oracle(a, b)).1;
        let cut = oracle_trace(&pairs(), &counted, 2);
        assert_eq!((matched(&cut), calls.take()), (vec![f, t], 2));
        let cut = perfect_trace(&pairs(), &counted, 2);
        assert_eq!((matched(&cut), calls.take()), (vec![t, t], 5));
    }

    #[test]
    fn efficiency_of_perfect_is_one() {
        let p = perfect_trace(&pairs(), oracle, u64::MAX);
        assert_eq!(schedule_efficiency(&p, &p, 2), 1.0);
    }

    #[test]
    fn efficiency_of_input_order_is_partial() {
        let actual = oracle_trace(&pairs(), oracle, u64::MAX);
        let perfect = perfect_trace(&pairs(), oracle, u64::MAX);
        // At budget 2 input order finds 1 of the 2 the ceiling finds.
        assert!((schedule_efficiency(&actual, &perfect, 2) - 0.5).abs() < 1e-12);
        // With the full budget both find everything.
        assert_eq!(schedule_efficiency(&actual, &perfect, 5), 1.0);
    }

    #[test]
    fn efficiency_with_no_matches_is_one() {
        let no_match = |_: EntityId, _: EntityId| false;
        let a = oracle_trace(&pairs(), no_match, u64::MAX);
        let p = perfect_trace(&pairs(), no_match, u64::MAX);
        assert_eq!(schedule_efficiency(&a, &p, 3), 1.0);
    }

    #[test]
    fn empty_pairs() {
        let t = oracle_trace(&[], oracle, 10);
        assert_eq!(t.comparisons(), 0);
        let p = perfect_trace(&[], oracle, 10);
        assert_eq!(p.comparisons(), 0);
    }
}
