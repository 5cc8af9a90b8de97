//! Consistency suite for the resolution service: any interleaving of
//! `RESOLVE` and `INGEST` — sequential or concurrent, cache on or off,
//! over the wire or in-process — must answer every resolve bit-identical
//! to a from-scratch batch [`Session`] over the corpus at the answer's
//! stamped version (the admission point); per-worker identity is
//! asserted in-process.

mod common;

use common::{assert_pairs_bit_identical, incident, session_run};
use minoan::blocking::ErMode;
use minoan::datagen::{generate, profiles, ArrivalOrder, GeneratedWorld};
use minoan::metablocking::{
    ExecutionBackend, IncrementalSession, Pruning, WeightedPair, WeightingScheme,
};
use minoan::rdf::EntityId;
use minoan_server::{Client, ResolveService, Server};
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};

fn world() -> GeneratedWorld {
    generate(&profiles::center_dense(120, 17))
}

/// Arrival batches as raw u32 ids (the service's wire-level currency).
fn id_batches(g: &GeneratedWorld, batch: usize) -> Vec<Vec<u32>> {
    ArrivalOrder::Shuffled { seed: 3 }
        .batches(&g.dataset, &g.truth, batch)
        .into_iter()
        .map(|b| b.iter().map(|e| e.0).collect())
        .collect()
}

/// The from-scratch reference at one version: a fresh incremental
/// session fed the first `version` batches in one go, snapshotted once,
/// and run once by a batch [`Session`] over the snapshot; an entity's
/// answer is the run's slice incident to it (`version` counts ingests, so
/// version v = the first v batches).
struct Reference<'d> {
    g: &'d GeneratedWorld,
    batches: &'d [Vec<u32>],
    scheme: WeightingScheme,
    pruning: Pruning,
    runs: BTreeMap<u64, Vec<WeightedPair>>,
}

impl<'d> Reference<'d> {
    fn new(
        g: &'d GeneratedWorld,
        batches: &'d [Vec<u32>],
        scheme: WeightingScheme,
        pruning: Pruning,
    ) -> Self {
        Self {
            g,
            batches,
            scheme,
            pruning,
            runs: BTreeMap::new(),
        }
    }

    fn resolve(&mut self, version: u64, entity: u32) -> Vec<WeightedPair> {
        let (g, batches, scheme, pruning) = (self.g, self.batches, self.scheme, self.pruning);
        if version == 0 {
            return Vec::new();
        }
        let run = self.runs.entry(version).or_insert_with(|| {
            let mut inc = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
            let merged: Vec<EntityId> = batches
                .iter()
                .take(version as usize)
                .flat_map(|b| b.iter().map(|&e| EntityId(e)))
                .collect();
            inc.ingest(&merged);
            let snap = inc.snapshot();
            session_run(&snap, scheme, pruning, ExecutionBackend::Streaming, 1)
                .pruned
                .pairs
        });
        incident(run, EntityId(entity))
    }
}

fn check_reply(
    reference: &mut Reference<'_>,
    entity: u32,
    version: u64,
    pairs: &[(u32, u32, u64)],
    label: &str,
) {
    let got: Vec<WeightedPair> = pairs
        .iter()
        .map(|&(a, b, bits)| WeightedPair {
            a: EntityId(a),
            b: EntityId(b),
            weight: f64::from_bits(bits),
        })
        .collect();
    let want = reference.resolve(version, entity);
    assert_pairs_bit_identical(&got, &want, &format!("{label}/v={version}/e={entity}"));
}

/// One recorded answer: `(entity, stamped version, pairs as raw bits)`.
type RecordedAnswer = (u32, u64, Vec<(u32, u32, u64)>);

/// Scheme × pruning mix covering locally invalidated answers, the global
/// criteria (whole-cache clears) and rows re-weighed on read (ECBS).
fn combos() -> Vec<(&'static str, WeightingScheme, Pruning)> {
    vec![
        (
            "js/wnp",
            WeightingScheme::Js,
            Pruning::Wnp { reciprocal: false },
        ),
        ("js/wep", WeightingScheme::Js, Pruning::Wep),
        ("arcs/cep", WeightingScheme::Arcs, Pruning::Cep(None)),
        (
            "ecbs/wnp",
            WeightingScheme::Ecbs,
            Pruning::Wnp { reciprocal: true },
        ),
    ]
}

/// Sequential interleaving: resolve a probe set, ingest a batch, resolve
/// again — every answer re-derived from scratch at its stamped version.
#[test]
fn interleaved_resolves_match_from_scratch_at_the_admission_point() {
    let g = world();
    let batches = id_batches(&g, 31);
    let n = g.dataset.len() as u32;
    // Hot probes repeat every round (cache-hit path); cold probes rotate.
    let hot = [3u32, 7, 11];
    for (label, scheme, pruning) in combos() {
        for cache in [0usize, 64] {
            let service =
                ResolveService::new(&g.dataset, ErMode::CleanClean, scheme, pruning, cache);
            let mut reference = Reference::new(&g, &batches, scheme, pruning);
            let tag = format!("{label}/cache={cache}");
            for (i, batch) in batches.iter().enumerate() {
                let r = service.ingest(batch).expect("valid batch");
                assert_eq!(r.version, i as u64 + 1, "{tag}: version counts ingests");
                // Twice per round: the second pass answers from the
                // cache at the same version (global criteria clear the
                // whole cache on every ingest, so only the intra-version
                // repeat is a guaranteed hit).
                for _ in 0..2 {
                    for &e in &hot {
                        let reply = service.resolve(e).expect("in range");
                        check_reply(&mut reference, e, reply.version, &reply.pairs, &tag);
                    }
                }
                let cold = (i as u32 * 13) % n;
                let reply = service.resolve(cold).expect("in range");
                check_reply(&mut reference, cold, reply.version, &reply.pairs, &tag);
            }
            let stats = service.stats().expect("healthy service");
            if cache > 0 {
                assert!(stats.cache_hits > 0, "{tag}: hot probes must hit the cache");
            } else {
                assert_eq!(stats.cache_hits, 0, "{tag}: capacity 0 cannot hit");
            }
        }
    }
}

/// Orders the ingester and the clients without serialising them. The
/// ingester publishes each acknowledged batch and sends the next one
/// only after every client has answered one resolve against it; a client
/// spends the rest of its per-round quota racing the next ingest. Every
/// version is therefore observed by construction, not by scheduler luck.
struct Turnstile {
    /// `(batches acknowledged, clients through the current round)`.
    state: Mutex<(usize, usize)>,
    moved: Condvar,
}

impl Turnstile {
    fn new() -> Self {
        Self {
            state: Mutex::new((0, 0)),
            moved: Condvar::new(),
        }
    }

    /// Ingester: publish one more acknowledged batch, then wait for all
    /// `clients` to pass the round it opened.
    fn acknowledge(&self, clients: usize) {
        let mut state = self.state.lock().expect("turnstile poisoned");
        *state = (state.0 + 1, 0);
        self.moved.notify_all();
        while state.1 < clients {
            state = self.moved.wait(state).expect("turnstile poisoned");
        }
    }

    /// Client: wait until batch `round` has been acknowledged.
    fn enter(&self, round: usize) {
        let mut state = self.state.lock().expect("turnstile poisoned");
        while state.0 <= round {
            state = self.moved.wait(state).expect("turnstile poisoned");
        }
    }

    /// Client: one resolve of the current round is answered.
    fn pass(&self) {
        self.state.lock().expect("turnstile poisoned").1 += 1;
        self.moved.notify_all();
    }
}

/// Concurrent clients against the in-process service while the main
/// thread keeps ingesting: every recorded answer re-derived from scratch
/// at its stamped version, for sweep worker counts 1/2/4.
#[test]
fn concurrent_resolves_under_ingest_stay_version_consistent() {
    const CLIENTS: usize = 4;
    const RESOLVES_PER_CLIENT: usize = 80;
    let g = world();
    let batches = id_batches(&g, 29);
    let rounds = batches.len();
    assert!(rounds <= RESOLVES_PER_CLIENT, "every round needs a resolve");
    let n = g.dataset.len();
    let (scheme, pruning) = (WeightingScheme::Js, Pruning::Wnp { reciprocal: false });
    for workers in [1usize, 2, 4] {
        let service = ResolveService::new(&g.dataset, ErMode::CleanClean, scheme, pruning, 64);
        service.sweep_workers(workers);
        let turnstile = Turnstile::new();
        let recorded: Vec<RecordedAnswer> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (service, turnstile) = (&service, &turnstile);
                    s.spawn(move || {
                        let mut mix = minoan::common::QueryMix::new(n, 1.0, 900 + c as u64);
                        let mut seen = Vec::new();
                        // Each round's first answer: batch `round + 1`
                        // is not sent before it is in.
                        let mut gated = Vec::new();
                        for round in 0..rounds {
                            let quota = RESOLVES_PER_CLIENT / rounds
                                + usize::from(round < RESOLVES_PER_CLIENT % rounds);
                            turnstile.enter(round);
                            for i in 0..quota {
                                let e = mix.next_entity();
                                let r = service.resolve(e).expect("in range");
                                if i == 0 {
                                    gated.push(r.version);
                                    turnstile.pass();
                                }
                                seen.push((e, r.version, r.pairs));
                            }
                        }
                        (seen, gated)
                    })
                })
                .collect();
            for batch in &batches {
                service.ingest(batch).expect("valid batch");
                turnstile.acknowledge(CLIENTS);
            }
            clients
                .into_iter()
                .flat_map(|h| {
                    let (seen, gated) = h.join().expect("client finishes");
                    let each_version: Vec<u64> = (1..=rounds as u64).collect();
                    assert_eq!(gated, each_version, "w={workers}: gated answers");
                    seen
                })
                .collect()
        });
        let stats = service.stats().expect("healthy service");
        assert_eq!(
            stats.resolves,
            (CLIENTS * RESOLVES_PER_CLIENT) as u64,
            "w={workers}: all resolves counted"
        );
        let mut reference = Reference::new(&g, &batches, scheme, pruning);
        let mut versions = std::collections::BTreeSet::new();
        for (entity, version, pairs) in &recorded {
            check_reply(
                &mut reference,
                *entity,
                *version,
                pairs,
                &format!("concurrent/w={workers}"),
            );
            versions.insert(*version);
        }
        assert_eq!(
            versions.len(),
            rounds,
            "w={workers}: every version must be observed, got {versions:?}"
        );
    }
}

/// A corpus-sized cache answers every resolve exactly as a service with
/// no cache does, around every ingest of a stream of small batches. JS
/// reads both endpoints' block counts, so a batch that grows a pre-batch
/// `z`'s block list moves the weight `(y, z)` in every neighbour `y`'s
/// row — and with it `y`'s WNP bar — whether or not `y` sits in a block
/// the batch touched. The world is the serve workloads' two-KB periphery
/// world at 150 entities, arriving in id order, two thirds preloaded;
/// seed 5 is one where a cached answer used to outlive such an ingest.
#[test]
fn a_corpus_sized_cache_answers_what_no_cache_answers() {
    let mut config = profiles::periphery_sparse(150, 5);
    config.vocab_tokens = 2_000;
    config.zipf_exponent = 0.5;
    let g = generate(&config);
    let n = g.dataset.len() as u32;
    let ids: Vec<u32> = (0..n).collect();
    let (preload, stream) = ids.split_at(ids.len() * 2 / 3);
    for reciprocal in [false, true] {
        let pruning = Pruning::Wnp { reciprocal };
        let [cached, uncached] = [usize::MAX, 0].map(|capacity| {
            let service = ResolveService::new(
                &g.dataset,
                ErMode::CleanClean,
                WeightingScheme::Js,
                pruning,
                capacity,
            );
            service.ingest(preload).expect("valid batch");
            service
        });
        let resolve_all = |round: usize| {
            for e in 0..n {
                let got = cached.resolve(e).expect("in range");
                let want = uncached.resolve(e).expect("in range");
                assert_eq!(got.version, want.version);
                assert_eq!(
                    got.pairs, want.pairs,
                    "reciprocal {reciprocal}, after ingest {round}, entity {e}"
                );
            }
        };
        resolve_all(0);
        for (i, batch) in stream.chunks(3).enumerate() {
            cached.ingest(batch).expect("valid batch");
            uncached.ingest(batch).expect("valid batch");
            resolve_all(i + 1);
        }
        assert!(
            cached.stats().expect("healthy service").cache_hits > 0,
            "the cache must serve"
        );
    }
}

/// The same contract over the wire: a TCP round trip must not change a
/// bit relative to the from-scratch reference.
#[test]
fn over_the_wire_answers_are_bit_identical_too() {
    let g = world();
    let batches = id_batches(&g, 41);
    let (scheme, pruning) = (WeightingScheme::Js, Pruning::Wnp { reciprocal: false });
    let service = ResolveService::new(&g.dataset, ErMode::CleanClean, scheme, pruning, 32);
    let server = Server::bind("127.0.0.1:0", service, 2).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let mut reference = Reference::new(&g, &batches, scheme, pruning);
    std::thread::scope(|s| {
        let running = s.spawn(|| server.run());
        let mut client = Client::connect(addr).expect("connect");
        for (i, batch) in batches.iter().enumerate() {
            client.ingest(batch).expect("valid batch");
            for e in [2u32, 5, 19] {
                let reply = client.resolve(e).expect("in range");
                check_reply(
                    &mut reference,
                    e,
                    reply.version,
                    &reply.pairs,
                    &format!("wire/batch={i}"),
                );
            }
        }
        client.shutdown().expect("clean shutdown");
        running
            .join()
            .expect("server thread exits")
            .expect("run returns ok");
    });
}
