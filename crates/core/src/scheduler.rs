//! The scheduling phase: a lazy max-priority queue over candidates.
//!
//! Benefits change as resolution progresses (entity coverage drops once an
//! endpoint is resolved; relationship completeness rises as neighbours
//! match), so stored priorities go stale. The scheduler handles this
//! lazily:
//!
//! * every benefit-raising event pushes a *fresh* entry carrying the
//!   candidate's current epoch — stale epochs are discarded on pop;
//! * on pop, the current benefit is recomputed; if it still beats the next
//!   entry it is returned, otherwise the entry is re-queued at its true
//!   priority. Priorities only need to be correct at pop time.
//!
//! The initial schedule — one entry per blocking candidate, by far the
//! bulk of all entries — is not pushed through the heap: [`Scheduler::seed`]
//! sorts it once into a run that is consumed from its end, merged on pop
//! with the heap of later pushes. The entry order is total, so the merge
//! pops exactly what one heap holding every entry would.

use crate::candidates::{CandidateId, CandidatePool};
use minoan_common::OrdF64;
use std::collections::BinaryHeap;

#[derive(PartialEq, Eq)]
struct Entry {
    priority: OrdF64,
    /// Tie-break: lower candidate id first (deterministic schedules).
    id: std::cmp::Reverse<u32>,
    /// Last tie-break, between entries of one candidate at one priority:
    /// the older (stale) one first, so it is discarded before the live
    /// entry is weighed against what really comes next.
    epoch: std::cmp::Reverse<u32>,
}

impl Entry {
    fn new(pool: &CandidatePool, id: CandidateId, priority: f64) -> Self {
        Self {
            priority: OrdF64(priority),
            id: std::cmp::Reverse(id.0),
            epoch: std::cmp::Reverse(pool.get(id).epoch),
        }
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| self.id.cmp(&other.id))
            .then_with(|| self.epoch.cmp(&other.epoch))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lazy max-priority scheduler.
#[derive(Default)]
pub struct Scheduler {
    /// The initial schedule, ascending: the best entry is the last.
    run: Vec<Entry>,
    /// Everything queued since.
    heap: BinaryHeap<Entry>,
}

/// Slack under which a re-scored entry is accepted without re-queueing.
const EPS: f64 = 1e-9;

impl Scheduler {
    /// Empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues each of `ids` at `priority(id)` with its current epoch — the
    /// state as many pushes would leave. Seeding an empty run makes the
    /// entries the run, with one sort; a later seeding joins the heap.
    pub fn seed(
        &mut self,
        pool: &CandidatePool,
        ids: impl Iterator<Item = CandidateId>,
        mut priority: impl FnMut(CandidateId) -> f64,
    ) {
        let entries = ids.map(|id| Entry::new(pool, id, priority(id)));
        if self.run.is_empty() {
            self.run = entries.collect();
            self.run.sort_unstable();
        } else {
            self.heap.extend(entries);
        }
    }

    /// The seeded candidates, best first: the order in which a schedule
    /// nothing has changed would pop them. Meaningful before the first pop.
    pub(crate) fn seeded_best_first(&self) -> impl Iterator<Item = CandidateId> + '_ {
        self.run.iter().rev().map(|entry| CandidateId(entry.id.0))
    }

    /// Current number of queued entries (including stale ones).
    pub fn queued(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.queued() == 0
    }

    /// Queues `id` at `priority` with the candidate's current epoch.
    pub fn push(&mut self, pool: &CandidatePool, id: CandidateId, priority: f64) {
        self.heap.push(Entry::new(pool, id, priority));
    }

    /// The greatest queued entry.
    fn peek(&self) -> Option<&Entry> {
        self.run.last().max(self.heap.peek())
    }

    fn pop(&mut self) -> Option<Entry> {
        if self.run.last() > self.heap.peek() {
            self.run.pop()
        } else {
            self.heap.pop()
        }
    }

    /// Pops the candidate with the highest *current* priority.
    ///
    /// `rescore` must return the candidate's up-to-date priority; it is
    /// invoked on every considered entry, so it should be cheap. Returns
    /// `None` when no valid entry remains.
    pub fn pop_best(
        &mut self,
        pool: &CandidatePool,
        mut rescore: impl FnMut(CandidateId) -> f64,
    ) -> Option<(CandidateId, f64)> {
        while let Some(entry) = self.pop() {
            let id = CandidateId(entry.id.0);
            // Stale: a newer entry for this candidate exists (epoch bumped).
            if entry.epoch.0 != pool.get(id).epoch {
                continue;
            }
            let current = rescore(id);
            let next_best = self.peek().map(|e| e.priority.0).unwrap_or(f64::MIN);
            if current + EPS >= next_best {
                return Some((id, current));
            }
            // True priority dropped below the next entry: re-queue.
            self.heap.push(Entry {
                priority: OrdF64(current),
                ..entry
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_rdf::EntityId;

    fn pool_with(n: u32) -> CandidatePool {
        let mut p = CandidatePool::new();
        for i in 0..n {
            p.insert(EntityId(i), EntityId(i + 100), 0.5);
        }
        p
    }

    #[test]
    fn pops_in_priority_order() {
        let pool = pool_with(3);
        let mut s = Scheduler::new();
        s.push(&pool, CandidateId(0), 0.3);
        s.push(&pool, CandidateId(1), 0.9);
        s.push(&pool, CandidateId(2), 0.6);
        let order: Vec<u32> = std::iter::from_fn(|| {
            s.pop_best(&pool, |id| match id.0 {
                0 => 0.3,
                1 => 0.9,
                _ => 0.6,
            })
            .map(|(id, _)| id.0)
        })
        .collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn stale_epochs_are_skipped() {
        let mut pool = pool_with(2);
        let mut s = Scheduler::new();
        s.push(&pool, CandidateId(0), 0.9);
        // Bump candidate 0's epoch (as the update phase would) and re-push.
        pool.add_evidence(EntityId(0), EntityId(100), 0.2, 0.0);
        s.push(&pool, CandidateId(0), 0.95);
        s.push(&pool, CandidateId(1), 0.5);
        let (id, p) = s
            .pop_best(&pool, |id| if id.0 == 0 { 0.95 } else { 0.5 })
            .unwrap();
        assert_eq!(id.0, 0);
        assert!((p - 0.95).abs() < 1e-12);
        // The stale 0.9 entry must not deliver candidate 0 twice.
        let (id2, _) = s.pop_best(&pool, |_| 0.5).unwrap();
        assert_eq!(id2.0, 1);
        assert!(s.pop_best(&pool, |_| 0.0).is_none());
    }

    #[test]
    fn drifted_priorities_are_requeued() {
        let pool = pool_with(2);
        let mut s = Scheduler::new();
        s.push(&pool, CandidateId(0), 1.0); // stored high…
        s.push(&pool, CandidateId(1), 0.8);
        // …but its true priority collapsed to 0.1.
        let (first, p) = s
            .pop_best(&pool, |id| if id.0 == 0 { 0.1 } else { 0.8 })
            .unwrap();
        assert_eq!(first.0, 1, "candidate 1 must overtake");
        assert!((p - 0.8).abs() < 1e-12);
        let (second, p2) = s.pop_best(&pool, |_| 0.1).unwrap();
        assert_eq!(second.0, 0);
        assert!((p2 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        let pool = pool_with(3);
        let mut s = Scheduler::new();
        s.push(&pool, CandidateId(2), 0.5);
        s.push(&pool, CandidateId(0), 0.5);
        s.push(&pool, CandidateId(1), 0.5);
        let order: Vec<u32> =
            std::iter::from_fn(|| s.pop_best(&pool, |_| 0.5).map(|(i, _)| i.0)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    /// The sorted run is an optimisation, not a behaviour: seeded and
    /// push-only schedulers must pop the same `(id, priority)` sequence
    /// whatever mix of duplicate priorities, epoch bumps (stale twins at
    /// the very same priority included) and drifting rescores they see.
    #[test]
    fn seeded_scheduler_pops_what_a_push_only_one_pops() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const LEVELS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
        fn priority(rng: &mut StdRng) -> f64 {
            if rng.gen_bool(0.6) {
                LEVELS[rng.gen_range(0..LEVELS.len())]
            } else {
                rng.gen_range(0.0..1.0)
            }
        }

        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..60u32);
            let mut pool = pool_with(n);
            // What `rescore` answers; drifts away from the stored entries.
            let mut current: Vec<f64> = (0..n).map(|_| priority(&mut rng)).collect();

            let mut seeded = Scheduler::new();
            seeded.seed(&pool, pool.ids(), |id| current[id.index()]);
            let mut pushed = Scheduler::new();
            for id in pool.ids() {
                pushed.push(&pool, id, current[id.index()]);
            }
            assert_eq!(seeded.queued(), pushed.queued());

            let mut popped = 0usize;
            loop {
                match rng.gen_range(0..10u32) {
                    // Update phase: bump an epoch and queue a fresh entry —
                    // half the time at the stale entry's own priority.
                    0..=2 => {
                        let i = rng.gen_range(0..n);
                        pool.add_evidence(EntityId(i), EntityId(i + 100), 0.1, 0.0);
                        if rng.gen_bool(0.5) {
                            current[i as usize] = priority(&mut rng);
                        }
                        for s in [&mut seeded, &mut pushed] {
                            s.push(&pool, CandidateId(i), current[i as usize]);
                        }
                    }
                    // Drift: a stored priority goes out of date (down, up,
                    // or ineligible).
                    3..=4 => {
                        let i = rng.gen_range(0..n) as usize;
                        current[i] = if rng.gen_bool(0.2) {
                            -1.0
                        } else {
                            priority(&mut rng)
                        };
                    }
                    _ => {
                        let a = seeded.pop_best(&pool, |id| current[id.index()]);
                        let b = pushed.pop_best(&pool, |id| current[id.index()]);
                        assert_eq!(
                            a.map(|(id, p)| (id, p.to_bits())),
                            b.map(|(id, p)| (id, p.to_bits())),
                            "seed {seed}, pop {popped}"
                        );
                        assert_eq!(seeded.queued(), pushed.queued());
                        if a.is_none() {
                            break;
                        }
                        popped += 1;
                    }
                }
            }
            assert!(popped >= n as usize, "every candidate pops at least once");
            assert!(seeded.is_empty() && pushed.is_empty());
        }
    }

    #[test]
    fn empty_pop_returns_none() {
        let pool = pool_with(1);
        let mut s = Scheduler::new();
        assert!(s.pop_best(&pool, |_| 1.0).is_none());
        assert!(s.is_empty());
    }
}
