//! The shared resolution state machine: one incremental session + one
//! hot-neighbourhood cache behind a mutex, with **batched admission**
//! for concurrent resolves.
//!
//! Every connection worker calls into one [`ResolveService`]. Resolves
//! do not each take the session lock: a requester enqueues its entity
//! on the admission queue and the first enqueuer becomes the *leader* —
//! it drains the queue, takes the session lock once, and answers the
//! whole batch at a single corpus version (the **admission point**:
//! the version read under the session lock stamps every answer).
//! Requests for an entity already pending piggyback on the in-flight
//! slot and are counted as *coalesced* — under a Zipf query mix the hot
//! entities are resolved once per batch, not once per request.
//!
//! Ingests validate the whole batch *before* mutating anything, so a
//! rejected batch leaves the corpus untouched; only the already-arrived
//! check needs the session, so the rest runs before the session lock is
//! taken. After a successful
//! ingest the cache is invalidated through the session's dirty-entity
//! report when [`locally_invalidatable`] holds for the configured
//! scheme × pruning, and fully cleared otherwise (global criteria can
//! re-decide edges between clean entities with no dirty-set trace).

use crate::protocol::{IngestReply, ResolveReply, StatsReply};
use minoan_blocking::ErMode;
use minoan_metablocking::{
    locally_invalidatable, IncrementalSession, NeighbourhoodCache, Pruning, ResolvedEntity,
    WeightingScheme,
};
use minoan_rdf::{Dataset, EntityId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Why an `INGEST` batch was rejected. Validation runs before any
/// mutation, so a rejected batch has no effect at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// An id is outside the dataset's entity space.
    OutOfRange,
    /// An entity was already ingested earlier.
    AlreadyArrived,
    /// The batch names the same entity twice.
    Duplicate,
}

impl IngestError {
    /// The wire-level error message.
    pub fn message(self) -> &'static str {
        match self {
            IngestError::OutOfRange => "ingest: entity id out of range",
            IngestError::AlreadyArrived => "ingest: entity already ingested",
            IngestError::Duplicate => "ingest: duplicate entity in batch",
        }
    }
}

/// Snapshot of the service-side request counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// RESOLVE requests answered.
    pub resolves: u64,
    /// Resolves that piggybacked on an in-flight resolve of the same
    /// entity.
    pub coalesced: u64,
    /// Resolves answered from the hot-neighbourhood cache.
    pub cache_hits: u64,
    /// Resolves that ran a sweep.
    pub cache_misses: u64,
    /// INGEST batches applied.
    pub ingests: u64,
}

/// The session + cache owned state (one lock).
struct Inner<'d> {
    session: IncrementalSession<'d>,
    cache: NeighbourhoodCache,
}

/// One in-flight resolve: followers sleep on `cv` until the leader
/// fills `done`.
struct Slot {
    done: Mutex<Option<ResolveReply>>,
    cv: Condvar,
}

struct Pending {
    entity: u32,
    slot: Arc<Slot>,
}

/// The admission queue. `leader_active` is cleared only while the queue
/// is observed empty under this lock, so every enqueuer either becomes
/// the leader or is guaranteed an active leader will drain it.
struct Admission {
    pending: Vec<Pending>,
    leader_active: bool,
}

/// The shared resolution service one [`Server`](crate::Server) (or an
/// in-process harness) drives. See the [module docs](self).
pub struct ResolveService<'d> {
    inner: Mutex<Inner<'d>>,
    admission: Mutex<Admission>,
    local_invalidation: bool,
    num_entities: usize,
    resolves: AtomicU64,
    coalesced: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    ingests: AtomicU64,
}

fn reply_of(version: u64, resolved: &ResolvedEntity) -> ResolveReply {
    ResolveReply {
        version,
        entity: resolved.entity.0,
        pairs: resolved
            .matches
            .iter()
            .map(|p| (p.a.0, p.b.0, p.weight.to_bits()))
            .collect(),
    }
}

impl<'d> ResolveService<'d> {
    /// A service over `dataset` with an empty corpus. `cache_capacity`
    /// is the hot-neighbourhood cache size in entries (0 disables it —
    /// every resolve sweeps).
    pub fn new(
        dataset: &'d Dataset,
        mode: ErMode,
        scheme: WeightingScheme,
        pruning: Pruning,
        cache_capacity: usize,
    ) -> Self {
        let mut session = IncrementalSession::new(dataset, mode);
        session.scheme(scheme).pruning(pruning);
        Self {
            inner: Mutex::new(Inner {
                session,
                cache: NeighbourhoodCache::new(cache_capacity),
            }),
            admission: Mutex::new(Admission {
                pending: Vec::new(),
                leader_active: false,
            }),
            local_invalidation: locally_invalidatable(scheme, pruning),
            num_entities: dataset.len(),
            resolves: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            ingests: AtomicU64::new(0),
        }
    }

    /// Pins the session's sweep worker count (results never depend on
    /// it).
    pub fn sweep_workers(&self, workers: usize) {
        let mut inner = self.inner.lock().expect("service mutex poisoned");
        inner.session.workers(workers);
    }

    /// Entities in the dataset's id space.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Whether ingests invalidate cached entries via dirty sets (vs.
    /// clearing the whole cache).
    pub fn uses_local_invalidation(&self) -> bool {
        self.local_invalidation
    }

    /// Resolves one entity through batched admission. The answer is
    /// stamped with the corpus version it was computed at; concurrent
    /// requests for the same entity share one computation.
    pub fn resolve(&self, entity: u32) -> Result<ResolveReply, &'static str> {
        if (entity as usize) >= self.num_entities {
            return Err("resolve: entity id out of range");
        }
        self.resolves.fetch_add(1, Ordering::Relaxed);
        let (slot, lead) = {
            let mut adm = self.admission.lock().expect("admission mutex poisoned");
            if let Some(p) = adm.pending.iter().find(|p| p.entity == entity) {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                (Arc::clone(&p.slot), false)
            } else {
                let slot = Arc::new(Slot {
                    done: Mutex::new(None),
                    cv: Condvar::new(),
                });
                adm.pending.push(Pending {
                    entity,
                    slot: Arc::clone(&slot),
                });
                let lead = !adm.leader_active;
                if lead {
                    adm.leader_active = true;
                }
                (slot, lead)
            }
        };
        if lead {
            self.drain();
        }
        let mut done = slot.done.lock().expect("slot mutex poisoned");
        while done.is_none() {
            done = slot.cv.wait(done).expect("slot mutex poisoned");
        }
        Ok(done.as_ref().expect("slot filled before wake").clone())
    }

    /// Leader body: repeatedly drain the admission queue and answer each
    /// batch under one session lock, until the queue is observed empty.
    fn drain(&self) {
        loop {
            let batch = {
                let mut adm = self.admission.lock().expect("admission mutex poisoned");
                if adm.pending.is_empty() {
                    adm.leader_active = false;
                    return;
                }
                std::mem::take(&mut adm.pending)
            };
            let mut guard = self.inner.lock().expect("service mutex poisoned");
            let inner = &mut *guard;
            // The admission point: one version stamps the whole batch
            // (ingests also take this lock, so it cannot move mid-batch).
            let version = inner.session.version();
            for p in &batch {
                let reply = match inner.cache.get(EntityId(p.entity)) {
                    Some(hit) => {
                        self.cache_hits.fetch_add(1, Ordering::Relaxed);
                        reply_of(version, hit)
                    }
                    None => {
                        self.cache_misses.fetch_add(1, Ordering::Relaxed);
                        let resolved = inner.session.resolve_entity(EntityId(p.entity));
                        let reply = reply_of(version, &resolved);
                        inner.cache.insert(resolved);
                        reply
                    }
                };
                let mut done = p.slot.done.lock().expect("slot mutex poisoned");
                *done = Some(reply);
                p.slot.cv.notify_all();
            }
        }
    }

    /// Ingests a batch. The whole batch is validated first; on success
    /// the corpus version bumps by one and cached answers that the
    /// batch could have changed are dropped.
    pub fn ingest(&self, ids: &[u32]) -> Result<IngestReply, IngestError> {
        // What needs no session state is checked before the lock that
        // every resolve waits on.
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(IngestError::Duplicate);
        }
        if sorted
            .last()
            .is_some_and(|&e| e as usize >= self.num_entities)
        {
            return Err(IngestError::OutOfRange);
        }
        let batch: Vec<EntityId> = ids.iter().map(|&e| EntityId(e)).collect();
        let mut guard = self.inner.lock().expect("service mutex poisoned");
        let inner = &mut *guard;
        if batch.iter().any(|&e| inner.session.has_arrived(e)) {
            return Err(IngestError::AlreadyArrived);
        }
        let report = inner.session.ingest(&batch);
        let invalidated = if self.local_invalidation {
            inner.cache.invalidate(inner.session.last_dirty())
        } else {
            let n = inner.cache.len();
            inner.cache.clear();
            n
        };
        self.ingests.fetch_add(1, Ordering::Relaxed);
        Ok(IngestReply {
            version: inner.session.version(),
            arrived: report.arrived as u32,
            swept: report.swept_entities as u32,
            invalidated: invalidated as u32,
            delta: report.delta,
        })
    }

    /// The service-side counters.
    pub fn service_stats(&self) -> ServiceStats {
        ServiceStats {
            resolves: self.resolves.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            ingests: self.ingests.load(Ordering::Relaxed),
        }
    }

    /// The full STATS answer (counters + corpus state).
    pub fn stats(&self) -> StatsReply {
        let inner = self.inner.lock().expect("service mutex poisoned");
        let s = self.service_stats();
        StatsReply {
            resolves: s.resolves,
            coalesced: s.coalesced,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            ingests: s.ingests,
            num_arrived: inner.session.num_arrived() as u64,
            version: inner.session.version(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_datagen::{generate, profiles};

    const SCHEME: WeightingScheme = WeightingScheme::Js;
    const PRUNING: Pruning = Pruning::Wnp { reciprocal: false };

    #[test]
    fn resolve_matches_a_reference_session_at_the_stamped_version() {
        let g = generate(&profiles::center_dense(60, 3));
        let svc = ResolveService::new(&g.dataset, ErMode::CleanClean, SCHEME, PRUNING, 32);
        let ids: Vec<u32> = (0..g.dataset.len() as u32).collect();
        svc.ingest(&ids[..40]).expect("valid batch");
        let reply = svc.resolve(5).expect("in range");
        assert_eq!(reply.version, 1);

        let mut reference = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
        reference.scheme(SCHEME).pruning(PRUNING);
        let batch: Vec<EntityId> = ids[..40].iter().map(|&e| EntityId(e)).collect();
        reference.ingest(&batch);
        let want = reference.resolve_entity(EntityId(5));
        assert_eq!(reply.weighted_pairs(), want.matches);

        // A repeat is a cache hit with the identical answer.
        let again = svc.resolve(5).expect("in range");
        assert_eq!(again, reply);
        let stats = svc.service_stats();
        assert_eq!(stats.resolves, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
    }

    #[test]
    fn ingest_validation_rejects_without_mutating() {
        let g = generate(&profiles::center_dense(40, 5));
        let svc = ResolveService::new(&g.dataset, ErMode::CleanClean, SCHEME, PRUNING, 8);
        let n = g.dataset.len() as u32;
        assert_eq!(svc.ingest(&[0, 1, 1]), Err(IngestError::Duplicate));
        assert_eq!(svc.ingest(&[0, n]), Err(IngestError::OutOfRange));
        svc.ingest(&[0, 1]).expect("valid batch");
        assert_eq!(svc.ingest(&[1, 2]), Err(IngestError::AlreadyArrived));
        // Only the valid batch counted or mutated anything.
        let stats = svc.stats();
        assert_eq!(stats.ingests, 1);
        assert_eq!(stats.num_arrived, 2);
        assert_eq!(stats.version, 1);
    }

    #[test]
    fn out_of_range_resolve_is_rejected() {
        let g = generate(&profiles::center_dense(30, 7));
        let svc = ResolveService::new(&g.dataset, ErMode::CleanClean, SCHEME, PRUNING, 8);
        assert!(svc.resolve(g.dataset.len() as u32).is_err());
    }

    #[test]
    fn concurrent_resolves_of_one_entity_agree_and_may_coalesce() {
        let g = generate(&profiles::center_dense(80, 9));
        let svc = ResolveService::new(&g.dataset, ErMode::CleanClean, SCHEME, PRUNING, 0);
        let ids: Vec<u32> = (0..g.dataset.len() as u32).collect();
        svc.ingest(&ids).expect("valid batch");
        let first = svc.resolve(3).expect("in range");
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| svc.resolve(3).expect("in range")))
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("no panic"), first);
            }
        });
        let stats = svc.service_stats();
        assert_eq!(stats.resolves, 9);
        // Capacity 0: every non-coalesced resolve swept.
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(
            stats.cache_misses + stats.coalesced,
            stats.resolves,
            "every resolve either swept or piggybacked"
        );
    }
}
