//! The shared resolution state: one incremental session, one
//! hot-neighbourhood cache and the request counters, behind one mutex.
//!
//! Every connection worker calls into one [`ResolveService`]. A resolve
//! takes the lock, answers from the cache or sweeps on a miss, and
//! stamps its answer with the corpus version read under the same lock
//! (the **admission point**): ingests take that lock too, so the version
//! cannot move between the sweep and the stamp.
//!
//! Ingests validate the whole batch *before* mutating anything, so a
//! rejected batch leaves the corpus untouched; only the already-arrived
//! check needs the session, so the rest runs before the lock is taken.
//! A successful ingest clears the cache: it holds answers of one corpus
//! version, the one a resolve stamps.
//!
//! A thread that panics while holding the lock poisons it. From then on
//! every call answers "service unavailable": a mutation cut short can
//! leave the session and cache disagreeing, so nothing is answered from
//! them.

use crate::protocol::{IngestReply, ResolveReply, StatsReply};
use minoan_blocking::builders::TokenKeys;
use minoan_blocking::{Corpus, ErMode};
use minoan_common::default_threads;
use minoan_metablocking::{
    IncrementalSession, NeighbourhoodCache, Pruning, ResolvedEntity, WeightingScheme,
};
use minoan_rdf::{Dataset, EntityId};
use std::sync::{Arc, Mutex, MutexGuard};

/// The error every call returns once the state lock is poisoned.
const UNAVAILABLE: &str = "service unavailable: a request panicked holding the state lock";

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
    /// A panic poisoned the state lock; the service answers nothing
    /// more.
    Unavailable,
}

impl IngestError {
    /// The wire-level error message.
    pub fn message(self) -> &'static str {
        match self {
            IngestError::OutOfRange => "ingest: entity id out of range",
            IngestError::AlreadyArrived => "ingest: entity already ingested",
            IngestError::Duplicate => "ingest: duplicate entity in batch",
            IngestError::Unavailable => UNAVAILABLE,
        }
    }
}

/// Everything a request reads or writes, behind the one lock.
struct State<'d> {
    session: IncrementalSession<'d>,
    cache: NeighbourhoodCache,
    resolves: u64,
    cache_hits: u64,
    cache_misses: u64,
    ingests: u64,
}

/// The shared resolution service one [`Server`](crate::Server) (or an
/// in-process harness) drives. See the [module docs](self).
pub struct ResolveService<'d> {
    state: Mutex<State<'d>>,
    num_entities: usize,
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
    /// [`Self::from_corpus`] over a value-token corpus of `dataset` built
    /// on all available workers.
    pub fn new(
        dataset: &'d Dataset,
        mode: ErMode,
        scheme: WeightingScheme,
        pruning: Pruning,
        cache_capacity: usize,
    ) -> Self {
        let corpus = Corpus::new(dataset, TokenKeys::Values, default_threads());
        Self::from_corpus(Arc::new(corpus), mode, scheme, pruning, cache_capacity)
    }

    /// A service over the dataset of `corpus`, a value-token corpus
    /// ([`IncrementalSession::from_corpus`]), with no entity arrived yet.
    /// `cache_capacity` is the hot-neighbourhood cache size in entries (0
    /// disables it — every resolve sweeps).
    pub fn from_corpus(
        corpus: Arc<Corpus<'d>>,
        mode: ErMode,
        scheme: WeightingScheme,
        pruning: Pruning,
        cache_capacity: usize,
    ) -> Self {
        let num_entities = corpus.dataset().len();
        let mut session = IncrementalSession::from_corpus(corpus, mode);
        session.scheme(scheme).pruning(pruning);
        Self {
            state: Mutex::new(State {
                session,
                cache: NeighbourhoodCache::new(cache_capacity),
                resolves: 0,
                cache_hits: 0,
                cache_misses: 0,
                ingests: 0,
            }),
            num_entities,
        }
    }

    /// The state, or [`UNAVAILABLE`] once a panic has poisoned it: no
    /// request is answered from a state a panic may have cut short.
    fn state(&self) -> Result<MutexGuard<'_, State<'d>>, &'static str> {
        self.state.lock().map_err(|_| UNAVAILABLE)
    }

    /// Pins the session's sweep worker count (results never depend on
    /// it). A poisoned service answers nothing more, so there it does
    /// nothing.
    pub fn sweep_workers(&self, workers: usize) {
        if let Ok(mut state) = self.state() {
            state.session.workers(workers);
        }
    }

    /// Resolves one entity, from the cache or by a sweep, stamped with
    /// the corpus version it was computed at.
    pub fn resolve(&self, entity: u32) -> Result<ResolveReply, &'static str> {
        if (entity as usize) >= self.num_entities {
            return Err("resolve: entity id out of range");
        }
        let mut guard = self.state()?;
        let state = &mut *guard;
        state.resolves += 1;
        let version = state.session.version();
        if let Some(hit) = state.cache.get(EntityId(entity)) {
            state.cache_hits += 1;
            return Ok(reply_of(version, hit));
        }
        state.cache_misses += 1;
        let resolved = state.session.resolve_entity(EntityId(entity));
        let reply = reply_of(version, &resolved);
        state.cache.insert(resolved);
        Ok(reply)
    }

    /// Ingests a batch. The whole batch is validated first; on success
    /// the corpus version bumps by one and every cached answer is
    /// dropped.
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
        let mut guard = self.state().map_err(|_| IngestError::Unavailable)?;
        let state = &mut *guard;
        if batch.iter().any(|&e| state.session.has_arrived(e)) {
            return Err(IngestError::AlreadyArrived);
        }
        let report = state.session.ingest(&batch);
        let invalidated = state.cache.len();
        state.cache.clear();
        state.ingests += 1;
        Ok(IngestReply {
            version: state.session.version(),
            arrived: report.arrived as u32,
            swept: report.swept_entities as u32,
            invalidated: invalidated as u32,
            delta: report.delta,
        })
    }

    /// The STATS answer: request counters and corpus state, read under
    /// one lock.
    pub fn stats(&self) -> Result<StatsReply, &'static str> {
        let state = self.state()?;
        Ok(StatsReply {
            resolves: state.resolves,
            coalesced: 0,
            cache_hits: state.cache_hits,
            cache_misses: state.cache_misses,
            ingests: state.ingests,
            num_arrived: state.session.num_arrived() as u64,
            version: state.session.version(),
        })
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
        let stats = svc.stats().expect("healthy service");
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
        let stats = svc.stats().expect("healthy service");
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
    fn concurrent_resolves_of_one_entity_agree() {
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
        let stats = svc.stats().expect("healthy service");
        assert_eq!(stats.resolves, 9);
        // Capacity 0: every resolve swept, and none is ever coalesced.
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 9));
        assert_eq!(stats.coalesced, 0);
    }

    #[test]
    fn a_poisoned_lock_answers_unavailable_and_the_server_still_stops() {
        let g = generate(&profiles::center_dense(30, 13));
        let svc = ResolveService::new(&g.dataset, ErMode::CleanClean, SCHEME, PRUNING, 8);
        svc.ingest(&[0, 1]).expect("valid batch");
        std::thread::scope(|s| {
            let panicked = s.spawn(|| {
                let _held = svc.state.lock();
                panic!("poisoning the state lock on purpose");
            });
            assert!(panicked.join().is_err());
        });
        assert_eq!(svc.resolve(0), Err(UNAVAILABLE));
        assert_eq!(svc.ingest(&[2]), Err(IngestError::Unavailable));
        assert_eq!(svc.stats(), Err(UNAVAILABLE));

        let server = crate::Server::bind("127.0.0.1:0", svc, 2).expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address");
        std::thread::scope(|s| {
            let running = s.spawn(|| server.run());
            let _stop = server.stop_on_drop();
            let mut client = crate::Client::connect(addr).expect("connect to server");
            for _ in 0..2 {
                let err = client.resolve(0).expect_err("ERR, not a hang");
                assert_eq!(err.to_string(), UNAVAILABLE);
                assert!(client.ingest(&[2]).is_err());
                assert!(client.stats().is_err());
            }
            client.shutdown().expect("the connection stayed open");
            running
                .join()
                .expect("server thread exits")
                .expect("run returns ok");
        });
    }
}
