//! The candidate pool.
//!
//! A *candidate* is an ordered description pair `(a < b)` that the engine
//! may compare. Candidates enter the pool from meta-blocking (with a
//! *prior* weight normalised to `(0, 1]`) or are *discovered* by the update
//! phase when their neighbours match (prior 0, neighbour evidence > 0).

use minoan_common::FxHashMap;
use minoan_rdf::EntityId;
use std::collections::hash_map::Entry;

/// Dense candidate handle within a [`CandidatePool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CandidateId(pub u32);

impl CandidateId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// State of one candidate pair.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Smaller endpoint.
    pub a: EntityId,
    /// Larger endpoint.
    pub b: EntityId,
    /// Normalised meta-blocking weight in `[0, 1]` (0 for discovered pairs).
    pub prior: f64,
    /// Accumulated neighbour evidence (unbounded; clamped when scored).
    pub evidence: f64,
    /// Evidence level at the time of the last comparison; `None` if never
    /// compared. A candidate is re-comparable once evidence grows past
    /// this by the engine's re-comparison margin.
    pub compared_at: Option<f64>,
    /// Value similarity measured at the last comparison (cached — the
    /// engine uses it to skip re-comparisons that cannot flip the
    /// decision).
    pub last_value: Option<f64>,
    /// Bumped whenever the candidate's priority inputs change; stale heap
    /// entries are detected by comparing epochs.
    pub epoch: u32,
}

impl Candidate {
    /// Match-likelihood prior combining meta-blocking weight and neighbour
    /// evidence, in `[0, 1]`.
    pub fn likelihood(&self) -> f64 {
        (self.prior + self.evidence).min(1.0)
    }
}

/// All candidates, addressable by id and by pair.
#[derive(Default, Debug)]
pub struct CandidatePool {
    candidates: Vec<Candidate>,
    by_pair: FxHashMap<(EntityId, EntityId), CandidateId>,
}

impl CandidatePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// One seeding event: each of `pairs` at a prior of its weight divided
    /// by their greatest (clamped to `[0, 1]`; 0 when none is positive), a
    /// repeated pair keeping its highest.
    pub fn seed(&mut self, pairs: &[(EntityId, EntityId, f64)]) {
        let max_w = pairs.iter().map(|p| p.2).fold(0.0f64, f64::max);
        let room = Self::room(pairs.len());
        self.candidates.reserve(room);
        self.by_pair.reserve(room);
        for &(a, b, w) in pairs {
            let prior = if max_w > 0.0 {
                (w / max_w).clamp(0.0, 1.0)
            } else {
                0.0
            };
            self.insert(a, b, prior);
        }
    }

    /// Number of candidates (compared or not).
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The room a seeding event of `pairs` pairs reserves: the pairs and as
    /// many discoveries (a linked cloud discovers two for every three), so
    /// that growing the pool mid-loop does not rehash its pair map.
    pub(crate) fn room(pairs: usize) -> usize {
        pairs.saturating_mul(2)
    }

    /// The id of the pair `(a, b)`, in either order, if it is a candidate.
    pub(crate) fn id_of(&self, a: EntityId, b: EntityId) -> Option<CandidateId> {
        self.by_pair.get(&(a.min(b), a.max(b))).copied()
    }

    /// Inserts a candidate with the given prior (normalising `a`,`b`
    /// order). If the pair exists, keeps the max prior. Returns its id.
    pub fn insert(&mut self, a: EntityId, b: EntityId, prior: f64) -> CandidateId {
        let (id, existed) = self
            .entry(a, b, prior, true)
            .expect("an absent pair is created");
        let c = &mut self.candidates[id.index()];
        if existed && prior > c.prior {
            c.prior = prior;
            c.epoch += 1;
        }
        id
    }

    /// One probe of the pair map: the id of `(a, b)` and whether it was
    /// already there. An absent pair is created with `prior` and no
    /// evidence when `create` is set, and is `None` otherwise.
    fn entry(
        &mut self,
        a: EntityId,
        b: EntityId,
        prior: f64,
        create: bool,
    ) -> Option<(CandidateId, bool)> {
        assert_ne!(a, b, "self-pair candidate");
        let key = (a.min(b), a.max(b));
        match self.by_pair.entry(key) {
            Entry::Occupied(slot) => Some((*slot.get(), true)),
            Entry::Vacant(_) if !create => None,
            Entry::Vacant(slot) => {
                let id = CandidateId(self.candidates.len() as u32);
                self.candidates.push(Candidate {
                    a: key.0,
                    b: key.1,
                    prior,
                    evidence: 0.0,
                    compared_at: None,
                    last_value: None,
                    epoch: 0,
                });
                slot.insert(id);
                Some((id, false))
            }
        }
    }

    /// Immutable candidate access.
    pub fn get(&self, id: CandidateId) -> &Candidate {
        &self.candidates[id.index()]
    }

    /// Adds neighbour evidence to a pair and bumps its epoch, returning the
    /// id and whether the pair was already a candidate. An absent pair
    /// becomes a *discovered* candidate (prior 0) — unless `delta` is
    /// below `min_discovery_delta`, too little to be worth a candidate:
    /// then nothing changes and the result is `None`.
    pub fn add_evidence(
        &mut self,
        a: EntityId,
        b: EntityId,
        delta: f64,
        min_discovery_delta: f64,
    ) -> Option<(CandidateId, bool)> {
        let (id, existed) = self.entry(a, b, 0.0, delta >= min_discovery_delta)?;
        let c = &mut self.candidates[id.index()];
        c.evidence += delta;
        c.epoch += 1;
        Some((id, existed))
    }

    /// Records that the candidate was just compared at its current
    /// evidence level, caching the measured value similarity.
    pub fn mark_compared(&mut self, id: CandidateId, value_sim: f64) {
        let c = &mut self.candidates[id.index()];
        c.compared_at = Some(c.evidence);
        c.last_value = Some(value_sim);
    }

    /// Whether the candidate may be (re-)compared: never compared, or its
    /// evidence grew by more than `margin` since the last comparison.
    pub fn comparable(&self, id: CandidateId, margin: f64) -> bool {
        let c = &self.candidates[id.index()];
        match c.compared_at {
            None => true,
            Some(at) => c.evidence > at + margin,
        }
    }

    /// Iterates all candidate ids.
    pub fn ids(&self) -> impl Iterator<Item = CandidateId> {
        (0..self.candidates.len() as u32).map(CandidateId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    /// The candidate of pair `(a, b)`, `a < b`, found through `ids` and `get`.
    fn find(p: &CandidatePool, a: EntityId, b: EntityId) -> Option<CandidateId> {
        p.ids().find(|&id| (p.get(id).a, p.get(id).b) == (a, b))
    }

    #[test]
    fn insert_normalises_pair_order() {
        let mut p = CandidatePool::new();
        let id1 = p.insert(e(5), e(2), 0.7);
        let id2 = p.insert(e(2), e(5), 0.3);
        assert_eq!(id1, id2);
        assert_eq!(p.len(), 1);
        let c = p.get(id1);
        assert_eq!((c.a, c.b), (e(2), e(5)));
        assert_eq!(c.prior, 0.7, "max prior wins");
    }

    #[test]
    fn seeding_normalises_to_unit() {
        let pairs = vec![(e(0), e(1), 2.0), (e(0), e(2), 4.0), (e(1), e(2), 1.0)];
        let mut p = CandidatePool::new();
        p.seed(&pairs);
        let best = find(&p, e(0), e(2)).unwrap();
        assert_eq!(p.get(best).prior, 1.0);
        let worst = find(&p, e(1), e(2)).unwrap();
        assert_eq!(p.get(worst).prior, 0.25);
    }

    #[test]
    fn evidence_accumulates_and_discovers() {
        let mut p = CandidatePool::new();
        assert!(find(&p, e(1), e(9)).is_none());
        let (id, existed) = p.add_evidence(e(9), e(1), 0.2, 0.0).unwrap();
        assert!(!existed);
        assert_eq!(p.get(id).prior, 0.0, "discovered pair has no prior");
        assert_eq!(p.add_evidence(e(1), e(9), 0.3, 0.0), Some((id, true)));
        let c = p.get(id);
        assert!((c.evidence - 0.5).abs() < 1e-12);
        assert_eq!(c.epoch, 2);
    }

    #[test]
    fn small_deltas_do_not_discover_but_still_reach_existing_candidates() {
        let mut p = CandidatePool::new();
        let id = p.insert(e(0), e(1), 0.5);
        assert_eq!(p.add_evidence(e(2), e(3), 0.04, 0.05), None);
        assert!(find(&p, e(2), e(3)).is_none());
        assert_eq!(p.len(), 1);
        assert_eq!(p.add_evidence(e(1), e(0), 0.04, 0.05), Some((id, true)));
        assert_eq!(p.get(id).evidence, 0.04);
        assert_eq!(p.get(id).epoch, 1);
        // At the minimum exactly, the pair is discovered.
        let (new, existed) = p.add_evidence(e(2), e(3), 0.05, 0.05).unwrap();
        assert!(!existed);
        assert_eq!((p.get(new).prior, p.get(new).evidence), (0.0, 0.05));
    }

    #[test]
    fn likelihood_is_clamped() {
        let mut p = CandidatePool::new();
        let id = p.insert(e(0), e(1), 0.9);
        p.add_evidence(e(0), e(1), 5.0, 0.0);
        assert_eq!(p.get(id).likelihood(), 1.0);
    }

    #[test]
    fn recomparison_gate() {
        let mut p = CandidatePool::new();
        let id = p.insert(e(0), e(1), 0.5);
        assert!(p.comparable(id, 0.1));
        p.mark_compared(id, 0.33);
        assert!(!p.comparable(id, 0.1), "just compared");
        assert_eq!(p.get(id).last_value, Some(0.33));
        p.add_evidence(e(0), e(1), 0.05, 0.0);
        assert!(!p.comparable(id, 0.1), "below margin");
        p.add_evidence(e(0), e(1), 0.1, 0.0);
        assert!(p.comparable(id, 0.1), "evidence grew past margin");
    }

    #[test]
    #[should_panic(expected = "self-pair")]
    fn self_pair_rejected() {
        let mut p = CandidatePool::new();
        p.insert(e(3), e(3), 1.0);
    }
}
