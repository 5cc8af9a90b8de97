//! The resolution trace: one record per executed comparison.
//!
//! Progressive evaluation (recall@budget curves, quality-dimension curves)
//! is computed entirely from this trace plus the ground truth, so the
//! engine records every comparison in execution order.

use minoan_rdf::EntityId;
use serde::Serialize;

/// One executed comparison.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TraceStep {
    /// 1-based comparison counter (the consumed budget after this step).
    pub comparison: u64,
    /// Smaller endpoint.
    pub a: u32,
    /// Larger endpoint.
    pub b: u32,
    /// Value similarity computed by the matcher.
    pub value_similarity: f64,
    /// Composite score (value + neighbour evidence) the decision used.
    pub score: f64,
    /// Scheduler benefit at pop time.
    pub benefit: f64,
    /// Whether the pair was declared a match.
    pub matched: bool,
    /// Whether this pair was *discovered* by the update phase (not present
    /// in the blocking candidates).
    pub discovered: bool,
}

impl TraceStep {
    /// The pair as entity ids.
    pub fn pair(&self) -> (EntityId, EntityId) {
        (EntityId(self.a), EntityId(self.b))
    }
}

/// The full trace of a resolution run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Trace {
    steps: Vec<TraceStep>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty trace with room for `steps` comparisons.
    pub fn with_capacity(steps: usize) -> Self {
        Self {
            steps: Vec::with_capacity(steps),
        }
    }

    /// Appends a step (engine-internal).
    pub fn push(&mut self, step: TraceStep) {
        debug_assert_eq!(
            step.comparison as usize,
            self.steps.len() + 1,
            "steps in order"
        );
        self.steps.push(step);
    }

    /// All steps in execution order.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// Number of comparisons executed.
    pub fn comparisons(&self) -> u64 {
        self.steps.len() as u64
    }

    /// Number of matches found.
    pub fn matches(&self) -> usize {
        self.steps.iter().filter(|s| s.matched).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(i: u64, matched: bool) -> TraceStep {
        TraceStep {
            comparison: i,
            a: 0,
            b: 1,
            value_similarity: 0.5,
            score: 0.5,
            benefit: 0.5,
            matched,
            discovered: false,
        }
    }

    #[test]
    fn counts_and_accessors() {
        let mut t = Trace::new();
        t.push(step(1, true));
        t.push(step(2, false));
        t.push(step(3, true));
        assert_eq!(t.comparisons(), 3);
        assert_eq!(t.matches(), 2);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert_eq!(t.comparisons(), 0);
        assert_eq!(t.matches(), 0);
    }

    #[test]
    fn pair_accessor() {
        let s = step(1, false);
        assert_eq!(s.pair(), (EntityId(0), EntityId(1)));
    }
}
