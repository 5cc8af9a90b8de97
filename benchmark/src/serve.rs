//! The serve workloads: `Server::bind` + `ResolveService` + `Client` over
//! loopback TCP, in one process pinned to one CPU.
//!
//! `serve_hot` is a closed loop (two callers that each wait for their
//! reply) over a warmed cache; `serve_churn` is an open loop (a reader on
//! a 1000 req/s schedule, latency from the due instant) beside a paced
//! writer. Every sampled answer is re-derived bitwise from a reference
//! `IncrementalSession` advanced to the answer's stamped version.

use crate::openloop::{self, Sample, WallClock};
use crate::report::Report;
use crate::span::Tracer;
use crate::stats::{self, SplitMix64};
use crate::worlds::ServeShape;
use crate::{alloc, RunArgs};
use minoan_blocking::{ErMode, IncrementalCollection};
use minoan_common::QueryMix;
use minoan_datagen::{generate, GeneratedWorld, GroundTruth};
use minoan_metablocking::{IncrementalSession, Pruning, WeightingScheme};
use minoan_rdf::EntityId;
use minoan_server::protocol::{self, IngestReply, ResolveReply, Response, StatsReply};
use minoan_server::{Client, ResolveService, Server};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Connection worker threads of the server under test.
pub const SERVER_WORKERS: usize = 2;
/// JS × WNP: delta-sweeps on ingest and is locally invalidatable, so the
/// cache is invalidated through dirty sets, not cleared wholesale.
const SCHEME: WeightingScheme = WeightingScheme::Js;
const PRUNING: Pruning = Pruning::Wnp { reciprocal: false };
/// How often set-up is repeated for the `setup_s` median.
const SETUP_REPEATS: usize = 3;
/// Closed-loop callers of `serve_hot`, one connection and thread each.
const HOT_CLIENTS: usize = 2;
/// Segments a serve run is cut into — equal request counts on
/// `serve_hot`, equal time windows on `serve_churn`. Each yields one value
/// per metric; the run reports their [`stats::steady_quartile`].
const SEGMENTS: usize = 15;
/// Zipf exponent of each hot caller's query mix.
const HOT_SKEW: f64 = 1.0;
/// A read answered later than this after it was due is late.
const LATE: Duration = Duration::from_millis(1);
/// One answer in this many is kept and re-derived from the reference.
const VERIFY_EVERY: usize = 50;
/// Entities the post-run quality probe of `serve_churn` resolves.
const QUALITY_PROBE: usize = 1500;
/// Calls per timed chunk where one call is too short to time alone.
const CHUNK: usize = 256;
/// Direct calls per layer in the traced pass.
const LAYER_CALLS: usize = 2048;

/// Which descriptions are preloaded and which arrive during the run, in
/// an order drawn from the seed.
pub struct Plan {
    /// Every description id, shuffled: the arrival order.
    pub order: Vec<u32>,
    /// `order[..preload]` is ingested before the run.
    pub preload: usize,
    /// Descriptions per later batch.
    pub batch: usize,
}

impl Plan {
    /// The plan of `shape` over `descriptions` ids.
    pub fn new(shape: &ServeShape, descriptions: usize, seed: u64) -> Self {
        let mut order: Vec<u32> = (0..descriptions as u32).collect();
        SplitMix64::new(seed ^ 0xA11C_E5ED).shuffle(&mut order);
        Self {
            order,
            preload: (descriptions * shape.preload_permille / 1000).max(1),
            batch: shape.ingest_batch,
        }
    }

    /// The preloaded ids.
    pub fn preloaded(&self) -> &[u32] {
        &self.order[..self.preload]
    }

    /// The `i`-th batch ingested during the run; `None` once the corpus
    /// is exhausted.
    pub fn batch(&self, i: usize) -> Option<&[u32]> {
        let start = self.preload + i * self.batch;
        let end = start + self.batch;
        (self.batch > 0 && end <= self.order.len()).then(|| &self.order[start..end])
    }

    /// Ids arrived once `batches` batches are in.
    pub fn arrived(&self, batches: usize) -> &[u32] {
        &self.order[..self.preload + batches * self.batch]
    }
}

/// A running server with its world; what the load generators get.
struct Live<'a> {
    world: &'a GeneratedWorld,
    plan: &'a Plan,
    addr: SocketAddr,
    /// Every warm-up answer (`serve_hot` only): one per description.
    warm: Vec<ResolveReply>,
}

fn bits(matches: &[minoan_metablocking::WeightedPair]) -> Vec<(u32, u32, u64)> {
    matches
        .iter()
        .map(|p| (p.a.0, p.b.0, p.weight.to_bits()))
        .collect()
}

fn ids(raw: &[u32]) -> Vec<EntityId> {
    raw.iter().map(|&e| EntityId(e)).collect()
}

fn rejected<E: std::fmt::Debug>(what: &str) -> impl FnOnce(E) -> io::Error + '_ {
    move |e| io::Error::other(format!("{what}: {e:?}"))
}

/// One full set-up — world generation, preload ingest, bind, and for a
/// corpus-sized cache the warm-up that resolves every entity once — then
/// `f` against the live server, then an orderly shutdown. Returns the
/// set-up time and `f`'s result.
fn with_server<R>(
    shape: &ServeShape,
    seed: u64,
    f: impl FnOnce(&Live<'_>) -> io::Result<R>,
) -> io::Result<(f64, R)> {
    let started = Instant::now();
    let world = generate(&shape.world);
    let n = world.dataset.len();
    let plan = Plan::new(shape, n, seed);
    let warm_all = shape.cache >= n;
    let service = ResolveService::new(
        &world.dataset,
        ErMode::CleanClean,
        SCHEME,
        PRUNING,
        shape.cache.min(n),
    );
    service
        .ingest(plan.preloaded())
        .map_err(rejected("preload ingest"))?;
    let server = Server::bind("127.0.0.1:0", service, SERVER_WORKERS)?;
    let addr = server.local_addr()?;
    std::thread::scope(|s| {
        let running = s.spawn(|| server.run());
        let body = (|| -> io::Result<(f64, R)> {
            let mut warm = Vec::new();
            if warm_all {
                let mut client = Client::connect(addr)?;
                for e in 0..n as u32 {
                    warm.push(client.resolve(e)?);
                }
            }
            let setup_s = started.elapsed().as_secs_f64();
            let live = Live {
                world: &world,
                plan: &plan,
                addr,
                warm,
            };
            Ok((setup_s, f(&live)?))
        })();
        // Always stop the server, also when the body failed, so the scope
        // can join it.
        let stopped = Client::connect(addr).and_then(|mut c| c.shutdown());
        let joined = running
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?;
        let out = body?;
        stopped?;
        joined?;
        Ok(out)
    })
}

/// Set-up [`SETUP_REPEATS`] times; `f` runs against the last one. Returns
/// the set-up times.
fn timed_setup(
    shape: &ServeShape,
    args: &RunArgs,
    f: impl FnOnce(&Live<'_>) -> io::Result<()>,
) -> io::Result<Vec<f64>> {
    let mut times = Vec::new();
    for _ in 1..SETUP_REPEATS {
        times.push(with_server(shape, args.seed, |_| Ok(()))?.0);
    }
    times.push(with_server(shape, args.seed, f)?.0);
    Ok(times)
}

fn setup_metric(report: &mut Report, shape: &ServeShape, times: Vec<f64>) {
    report.metric(
        "setup_s",
        stats::median(&times),
        format!(
            "median of {SETUP_REPEATS}: world generation + preload ingest + bind{}",
            if shape.is_hot() {
                " + cache warm-up"
            } else {
                ""
            }
        ),
    );
    report.sample("setup_s", times);
}

fn world_info(report: &mut Report, shape: &ServeShape, live: &Live<'_>) {
    report.info_raw("world_entities", shape.world.num_entities);
    report.info_raw("descriptions", live.world.dataset.len());
    report.info_raw("preloaded", live.plan.preload);
    report.info_raw("cache_capacity", shape.cache.min(live.world.dataset.len()));
    report.info_raw("server_workers", SERVER_WORKERS);
    report.info_raw("ingest_batch", shape.ingest_batch);
    report.info_raw("ingest_interval_ms", shape.ingest_interval_ms);
    report.info_raw("read_rate", shape.read_rate);
}

/// `(recall, precision)` of served candidate pairs: over the answered
/// entities, the share of their arrived true partners that appear in the
/// answer, and the share of answered pairs that are true matches.
pub fn served_quality(
    truth: &GroundTruth,
    arrived: &[u32],
    answers: &[ResolveReply],
) -> (f64, f64) {
    let here: BTreeSet<u32> = arrived.iter().copied().collect();
    let (mut wanted, mut found, mut emitted) = (0u64, 0u64, 0u64);
    for a in answers {
        let me = EntityId(a.entity);
        wanted += truth
            .cluster(truth.world_of(me))
            .iter()
            .filter(|p| **p != me && here.contains(&p.0))
            .count() as u64;
        for &(x, y, _) in &a.pairs {
            emitted += 1;
            found += u64::from(truth.is_match(EntityId(x), EntityId(y)));
        }
    }
    (
        found as f64 / wanted.max(1) as f64,
        found as f64 / emitted.max(1) as f64,
    )
}

/// Re-derives every kept answer bitwise from a reference session advanced
/// batch by batch to the answer's stamped version. Returns the versions
/// seen.
fn verify(report: &mut Report, live: &Live<'_>, mut kept: Vec<ResolveReply>) -> BTreeSet<u64> {
    kept.sort_by_key(|k| k.version);
    let mut reference = IncrementalSession::new(&live.world.dataset, ErMode::CleanClean);
    reference.scheme(SCHEME).pruning(PRUNING);
    reference.ingest(&ids(live.plan.preloaded()));
    let mut versions = BTreeSet::new();
    let mut mismatches = 0u64;
    for k in &kept {
        while reference.version() < k.version {
            let next = (reference.version() - 1) as usize;
            match live.plan.batch(next) {
                Some(batch) => reference.ingest(&ids(batch)),
                None => break,
            };
        }
        versions.insert(k.version);
        let want = bits(&reference.resolve_entity(EntityId(k.entity)).matches);
        if reference.version() != k.version || want != k.pairs {
            mismatches += 1;
        }
    }
    report.info_raw("answers_verified", kept.len());
    report.info_raw("versions_seen", versions.len());
    if mismatches > 0 {
        report.failed += mismatches;
        report.fail(format!(
            "{mismatches} of {} sampled answers differ from the reference session",
            kept.len()
        ));
    }
    versions
}

/// `(cache hit rate, coalesced resolves)` of the requests between two
/// `STATS` readings.
fn cache_use(before: &StatsReply, after: &StatsReply) -> (f64, u64) {
    (
        (after.cache_hits - before.cache_hits) as f64
            / (after.resolves - before.resolves).max(1) as f64,
        after.coalesced - before.coalesced,
    )
}

// ---------------------------------------------------------------- serve_hot

/// What the closed-loop run of `serve_hot` observed.
struct HotOutcome {
    /// Round-trip latency of every request, nanoseconds, per caller; each
    /// caller's segment `i` is `[i × per_caller .. (i + 1) × per_caller]`.
    latencies_ns: Vec<Vec<f64>>,
    /// Requests per caller per segment.
    per_caller: usize,
    /// Wall seconds of each segment.
    segment_walls_s: Vec<f64>,
    kept: Vec<ResolveReply>,
    failed: u64,
    hit_rate: f64,
    coalesced: u64,
}

/// Two closed-loop callers for about `seconds`: a short pilot sizes the
/// segments, then [`SEGMENTS`] segments of equal request count run
/// barrier to barrier.
fn hot_load(live: &Live<'_>, seed: u64, seconds: f64) -> io::Result<HotOutcome> {
    let n = live.world.dataset.len();
    let pilot = Duration::from_secs_f64((seconds / 20.0).clamp(0.05, 0.5));
    let barrier = Barrier::new(HOT_CLIENTS);
    let pilot_requests = AtomicU64::new(0);
    let per_segment = AtomicUsize::new(0);
    let before = Client::connect(live.addr)?.stats()?;

    type PerCaller = io::Result<(Vec<f64>, Vec<ResolveReply>, u64, Vec<f64>)>;
    let callers: Vec<PerCaller> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..HOT_CLIENTS)
            .map(|c| {
                let (barrier, pilot_requests, per_segment) =
                    (&barrier, &pilot_requests, &per_segment);
                s.spawn(move || -> PerCaller {
                    let mut client = Client::connect(live.addr)?;
                    let mut mix = QueryMix::new(n, HOT_SKEW, seed.wrapping_mul(1000) + c as u64);
                    let t = Instant::now();
                    let mut done = 0u64;
                    while t.elapsed() < pilot {
                        black_box(client.resolve(mix.next_entity())?);
                        done += 1;
                    }
                    pilot_requests.fetch_add(done, Ordering::SeqCst);
                    barrier.wait();
                    if c == 0 {
                        let rate = pilot_requests.load(Ordering::SeqCst) as f64
                            / pilot.as_secs_f64()
                            / HOT_CLIENTS as f64;
                        let each = (rate * seconds / SEGMENTS as f64) as usize;
                        per_segment.store(each.max(VERIFY_EVERY), Ordering::SeqCst);
                    }
                    barrier.wait();
                    let each = per_segment.load(Ordering::SeqCst);
                    let mut latencies = Vec::with_capacity(each * SEGMENTS);
                    let mut kept = Vec::new();
                    let mut failed = 0u64;
                    let mut walls = Vec::with_capacity(SEGMENTS);
                    barrier.wait();
                    let mut mark = Instant::now();
                    for _ in 0..SEGMENTS {
                        for i in 0..each {
                            let entity = mix.next_entity();
                            let t = Instant::now();
                            let reply = client.resolve(entity);
                            latencies.push(t.elapsed().as_nanos() as f64);
                            match reply {
                                Ok(r) if i % VERIFY_EVERY == 0 => kept.push(r),
                                Ok(r) => drop(black_box(r)),
                                Err(_) => failed += 1,
                            }
                        }
                        // The segment ends when the slower caller is done.
                        barrier.wait();
                        let now = Instant::now();
                        walls.push((now - mark).as_secs_f64());
                        mark = now;
                    }
                    Ok((latencies, kept, failed, walls))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("caller panicked")))
            })
            .collect()
    });

    let after = Client::connect(live.addr)?.stats()?;
    let (hit_rate, coalesced) = cache_use(&before, &after);
    let mut out = HotOutcome {
        latencies_ns: Vec::new(),
        per_caller: per_segment.load(Ordering::SeqCst),
        segment_walls_s: Vec::new(),
        kept: Vec::new(),
        failed: 0,
        hit_rate,
        coalesced,
    };
    for (c, caller) in callers.into_iter().enumerate() {
        let (latencies, kept, failed, walls) = caller?;
        out.latencies_ns.push(latencies);
        out.kept.extend(kept);
        out.failed += failed;
        if c == 0 {
            out.segment_walls_s = walls;
        }
    }
    Ok(out)
}

impl HotOutcome {
    /// Requests answered, all callers and segments together.
    fn requests(&self) -> usize {
        self.latencies_ns.iter().map(Vec::len).sum()
    }

    /// Requests per second of each segment.
    fn segment_rates(&self) -> Vec<f64> {
        stats::segment_rates(
            (self.per_caller * self.latencies_ns.len()) as u64,
            &self.segment_walls_s,
        )
    }

    /// Median round trip of each segment, microseconds, all callers
    /// together.
    fn segment_p50_us(&self) -> Vec<f64> {
        (0..self.segment_walls_s.len())
            .map(|i| {
                let both: Vec<f64> = self
                    .latencies_ns
                    .iter()
                    .flat_map(|l| &l[i * self.per_caller..(i + 1) * self.per_caller])
                    .map(|ns| ns / 1e3)
                    .collect();
                stats::median(&both)
            })
            .collect()
    }
}

/// Correctness of a hot run: no failures, one version, every answer a
/// cache hit, every kept answer equal to the reference.
fn check_hot(report: &mut Report, live: &Live<'_>, out: &mut HotOutcome) {
    report.attempted += out.requests() as u64;
    report.failed += out.failed;
    let versions = verify(report, live, std::mem::take(&mut out.kept));
    report.check(versions.len() == 1, || {
        format!("serve_hot must observe exactly one version, saw {versions:?}")
    });
    report.check(out.hit_rate == 1.0, || {
        format!(
            "serve_hot must be answered from the cache, hit rate {}",
            out.hit_rate
        )
    });
}

fn run_hot_untraced(shape: &ServeShape, args: &RunArgs, report: &mut Report) -> io::Result<()> {
    let times = timed_setup(shape, args, |live| {
        world_info(report, shape, live);
        let mut out = hot_load(live, args.seed, args.seconds)?;
        check_hot(report, live, &mut out);

        let p50s = out.segment_p50_us();
        let (q1, med, q3) = stats::quartiles(&p50s);
        report.metric(
            "op_p50_ms",
            stats::steady_quartile(&p50s, true) / 1e3,
            format!(
                "RESOLVE round trip: lower quartile of {SEGMENTS} per-segment medians \
                 (q1={q1:.2} med={med:.2} q3={q3:.2} µs), n={} requests",
                out.requests()
            ),
        );
        let rates = out.segment_rates();
        let (q1, med, q3) = stats::quartiles(&rates);
        report.metric(
            "throughput_per_s",
            stats::steady_quartile(&rates, false),
            format!(
                "upper quartile of {SEGMENTS} segments × {} requests, {HOT_CLIENTS} closed-loop \
                 callers (q1={q1:.0} med={med:.0} q3={q3:.0})",
                out.per_caller * HOT_CLIENTS
            ),
        );
        let (recall, precision) =
            served_quality(&live.world.truth, live.plan.preloaded(), &live.warm);
        report.metric(
            "recall",
            recall,
            "true partners among served candidates, every entity",
        );
        report.metric(
            "precision",
            precision,
            "true matches among served candidate pairs",
        );
        report.sample("segment_qps", rates);
        report.sample("segment_p50_us", p50s);
        Ok(())
    })?;
    setup_metric(report, shape, times);
    Ok(())
}

// -------------------------------------------------------------- serve_churn

/// What the open-loop run of `serve_churn` observed.
struct ChurnOutcome {
    reads: Vec<Sample>,
    ingests: Vec<Sample>,
    replies: Vec<IngestReply>,
    kept: Vec<ResolveReply>,
    /// Answers of the post-run quality probe.
    probe: Vec<ResolveReply>,
    hit_rate: f64,
    coalesced: u64,
}

/// The reader on its schedule and the writer on its own, on one clock,
/// for `seconds`; then the quality probe against the final corpus.
fn churn_load(
    live: &Live<'_>,
    shape: &ServeShape,
    seed: u64,
    seconds: f64,
) -> io::Result<ChurnOutcome> {
    let until = Duration::from_secs_f64(seconds);
    let read_every = Duration::from_nanos(1_000_000_000 / shape.read_rate);
    let write_every = Duration::from_millis(shape.ingest_interval_ms);
    let acked = AtomicUsize::new(0);
    let clock = WallClock::start();
    let before = Client::connect(live.addr)?.stats()?;

    type Reader = io::Result<(Vec<Sample>, Vec<ResolveReply>)>;
    type Writer = io::Result<(Vec<Sample>, Vec<IngestReply>)>;
    let (reader, writer): (Reader, Writer) = std::thread::scope(|s| {
        let (acked, clock) = (&acked, &clock);
        let reader = s.spawn(move || -> Reader {
            let mut client = Client::connect(live.addr)?;
            let mut rng = SplitMix64::new(seed ^ 0x05EA_DE12);
            let mut kept = Vec::new();
            let samples = openloop::run(clock, read_every, until, |i| {
                let arrived = live.plan.arrived(acked.load(Ordering::Acquire));
                let entity = arrived[rng.below(arrived.len())];
                match client.resolve(entity) {
                    Ok(r) if i % VERIFY_EVERY == 0 => {
                        kept.push(r);
                        true
                    }
                    Ok(r) => {
                        black_box(r);
                        true
                    }
                    Err(_) => false,
                }
            });
            Ok((samples, kept))
        });
        let writer = s.spawn(move || -> Writer {
            let mut client = Client::connect(live.addr)?;
            let mut replies = Vec::new();
            let samples = openloop::run(clock, write_every, until, |i| {
                let Some(batch) = live.plan.batch(i) else {
                    return false;
                };
                match client.ingest(batch) {
                    Ok(r) => {
                        replies.push(r);
                        // Release: a reader that sees the count sees a
                        // server that has the batch.
                        acked.store(i + 1, Ordering::Release);
                        true
                    }
                    Err(_) => false,
                }
            });
            Ok((samples, replies))
        });
        let panicked = || io::Error::other("load generator panicked");
        (
            reader.join().unwrap_or_else(|_| Err(panicked())),
            writer.join().unwrap_or_else(|_| Err(panicked())),
        )
    });
    let (reads, kept) = reader?;
    let (ingests, replies) = writer?;

    let mut client = Client::connect(live.addr)?;
    let (hit_rate, coalesced) = cache_use(&before, &client.stats()?);
    let arrived = live.plan.arrived(acked.load(Ordering::Acquire));
    let stride = (arrived.len() / QUALITY_PROBE).max(1);
    let probe = arrived
        .iter()
        .step_by(stride)
        .map(|&e| client.resolve(e))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(ChurnOutcome {
        reads,
        ingests,
        replies,
        kept,
        probe,
        hit_rate,
        coalesced,
    })
}

fn late(s: &Sample) -> bool {
    !s.ok || s.latency() > LATE
}

/// Reads answered on time, per second, in each of [`SEGMENTS`] equal time
/// windows (a read belongs to the window it was due in).
fn window_on_time_rates(reads: &[Sample], seconds: f64) -> Vec<f64> {
    let window_s = seconds / SEGMENTS as f64;
    let mut on_time = [0u32; SEGMENTS];
    for s in reads.iter().filter(|s| !late(s)) {
        let window = (s.due.as_secs_f64() / window_s) as usize;
        on_time[window.min(SEGMENTS - 1)] += 1;
    }
    on_time.iter().map(|&n| f64::from(n) / window_s).collect()
}

/// Correctness of a churn run: no failed operation, the writer kept its
/// schedule's batches coming, more than one version seen, every kept
/// answer equal to the reference.
fn check_churn(report: &mut Report, live: &Live<'_>, out: &mut ChurnOutcome) {
    report.attempted += (out.reads.len() + out.ingests.len()) as u64;
    report.failed += out
        .reads
        .iter()
        .chain(&out.ingests)
        .filter(|s| !s.ok)
        .count() as u64;
    report.check(out.ingests.iter().all(|s| s.ok), || {
        "an INGEST failed: the corpus is too small for this --seconds, or the server refused a batch"
            .to_string()
    });
    report.check(out.replies.iter().all(|r| r.delta), || {
        "an ingest fell back to a full re-sweep; JS × WNP must delta-sweep".to_string()
    });
    let mut kept = std::mem::take(&mut out.kept);
    kept.extend(out.probe.iter().step_by(VERIFY_EVERY).cloned());
    let versions = verify(report, live, kept);
    report.check(versions.len() > 1, || {
        format!("serve_churn must observe more than one version, saw {versions:?}")
    });
}

fn run_churn_untraced(shape: &ServeShape, args: &RunArgs, report: &mut Report) -> io::Result<()> {
    let times = timed_setup(shape, args, |live| {
        world_info(report, shape, live);
        let mut out = churn_load(live, shape, args.seed, args.seconds)?;
        check_churn(report, live, &mut out);

        // The write is the operation timed here; the reads beside it are
        // the throughput below. (The median *read* of a mostly idle open
        // loop times how fast a sleeping vCPU wakes — 14 % run-to-run on
        // this host — and is a per-layer metric, `client.resolve_p50_us`.)
        let ingest_ms: Vec<f64> = out
            .ingests
            .iter()
            .map(|s| s.latency().as_secs_f64() * 1e3)
            .collect();
        let (q1, med, q3) = stats::quartiles(&ingest_ms);
        report.metric(
            "op_p50_ms",
            stats::steady_quartile(&ingest_ms, true),
            format!(
                "INGEST of {} descriptions every {} ms beside the reads: lower quartile of n={} \
                 round trips (q1={q1:.2} med={med:.2} q3={q3:.2} ms)",
                shape.ingest_batch,
                shape.ingest_interval_ms,
                ingest_ms.len()
            ),
        );
        let rates = window_on_time_rates(&out.reads, args.seconds);
        let (q1, med, q3) = stats::quartiles(&rates);
        let on_time = out.reads.iter().filter(|s| !late(s)).count();
        report.metric(
            "throughput_per_s",
            stats::steady_quartile(&rates, false),
            format!(
                "reads answered within {} ms, per second: upper quartile of {SEGMENTS} windows \
                 (q1={q1:.0} med={med:.0} q3={q3:.0}); {:.2}% of all reads late",
                LATE.as_millis(),
                100.0 * (out.reads.len() - on_time) as f64 / out.reads.len().max(1) as f64
            ),
        );
        let arrived = live.plan.arrived(out.replies.len());
        let (recall, precision) = served_quality(&live.world.truth, arrived, &out.probe);
        report.metric(
            "recall",
            recall,
            format!(
                "true partners among served candidates, {} probed entities",
                out.probe.len()
            ),
        );
        report.metric(
            "precision",
            precision,
            "true matches among served candidate pairs",
        );
        report.info_raw("ingest_batches", out.replies.len());
        report.sample("ingest_ms", ingest_ms);
        report.sample("window_on_time_per_s", rates);
        Ok(())
    })?;
    setup_metric(report, shape, times);
    Ok(())
}

/// The untraced pass of either serve workload.
pub fn run_untraced(shape: &ServeShape, args: &RunArgs, report: &mut Report) -> io::Result<()> {
    if shape.is_hot() {
        run_hot_untraced(shape, args, report)
    } else {
        run_churn_untraced(shape, args, report)
    }
}

// ------------------------------------------------------------- traced pass

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median microseconds per call of `calls` calls to `f`, timed in chunks
/// of [`CHUNK`] because one call is shorter than a clock read is precise.
fn chunked_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::new();
    for chunk in 0..calls.div_ceil(CHUNK) {
        let t = Instant::now();
        for i in 0..CHUNK {
            f(chunk * CHUNK + i);
        }
        per_call.push(micros(t.elapsed()) / CHUNK as f64);
    }
    stats::median(&per_call)
}

/// Client-side metrics every traced serve run reports from its load run.
fn client_metrics(report: &mut Report, service_us: &[f64], latency_us: &[f64]) {
    let sorted_service = stats::sorted(service_us);
    let sorted_due = stats::sorted(latency_us);
    let (p, tail) = stats::tail(&sorted_due, 99.0);
    report.metric(
        "client.resolve_p50_us",
        stats::quantile_sorted(&sorted_due, 0.5),
        format!("n={}", sorted_due.len()),
    );
    report.metric(
        "client.service_p50_us",
        stats::quantile_sorted(&sorted_service, 0.5),
        "from the actual send",
    );
    report.metric(
        "client.resolve_p99_us",
        tail,
        format!("p{p} — the highest percentile with ten samples beyond it, at most p99"),
    );
    report.metric("loadgen.reads_sent", sorted_due.len() as f64, "");
}

/// Writes the span dump where `--spans-out` asked for it.
fn dump_spans(args: &RunArgs, tracer: &Tracer) -> io::Result<()> {
    match &args.spans_out {
        Some(path) => std::fs::write(path, tracer.to_json()),
        None => Ok(()),
    }
}

fn run_hot_traced(shape: &ServeShape, args: &RunArgs, report: &mut Report) -> io::Result<()> {
    with_server(shape, args.seed, |live| {
        let mut tracer = Tracer::new();
        tracer.enter("run", 0, 0);
        world_info(report, shape, live);
        let world = live.world;
        let n = world.dataset.len();

        tracer.enter("client.load", 0, 0);
        let mut out = hot_load(live, args.seed, args.seconds / 2.0)?;
        tracer.exit(out.requests() as u64);
        check_hot(report, live, &mut out);
        let us: Vec<f64> = out
            .latencies_ns
            .iter()
            .flatten()
            .map(|ns| ns / 1e3)
            .collect();
        client_metrics(report, &us, &us);
        report.metric(
            "client.resolve_qps",
            stats::steady_quartile(&out.segment_rates(), false),
            format!("upper quartile of {SEGMENTS} segments"),
        );
        report.metric("server.cache_hit_rate", out.hit_rate, "");
        report.metric("server.coalesced", out.coalesced as f64, "");

        // The hit path without the socket: the service called directly
        // over a warmed cache, on the callers' query mix.
        let service = ResolveService::new(&world.dataset, ErMode::CleanClean, SCHEME, PRUNING, n);
        service
            .ingest(live.plan.preloaded())
            .map_err(rejected("preload ingest"))?;
        for e in 0..n as u32 {
            service.resolve(e).map_err(rejected("warm-up resolve"))?;
        }
        let mut mix = QueryMix::new(n, HOT_SKEW, args.seed.wrapping_mul(1000));
        let entities: Vec<u32> = (0..LAYER_CALLS * 8).map(|_| mix.next_entity()).collect();
        tracer.enter("server.service_hit", entities.len() as u64, 0);
        let hit_us = chunked_us(entities.len(), |i| {
            black_box(service.resolve(entities[i]).expect("in-range entity"));
        });
        tracer.exit(entities.len() as u64);
        report.metric(
            "server.service_hit_us",
            hit_us,
            format!(
                "ResolveService::resolve, warmed cache, {} calls",
                entities.len()
            ),
        );

        // Recorded replies: counted while they are produced, then replayed
        // through the codec over memory, without the socket.
        alloc::enable();
        let replies: Vec<Response> = entities[..LAYER_CALLS]
            .iter()
            .map(|&e| service.resolve(e).map(Response::Resolved))
            .collect::<Result<_, _>>()
            .map_err(rejected("recording replies"))?;
        let allocs = alloc::snapshot().allocs;
        alloc::disable();
        report.metric(
            "server.allocs_per_hit",
            allocs as f64 / replies.len() as f64,
            "allocation calls per direct cache-hit resolve",
        );
        let mut wire = Vec::new();
        let mut bytes = 0usize;
        tracer.enter("server.codec", replies.len() as u64, 0);
        let codec_us = chunked_us(replies.len(), |i| {
            wire.clear();
            protocol::write_response(&mut wire, &replies[i]).expect("write to memory");
            bytes += wire.len();
            black_box(protocol::read_response(&mut wire.as_slice()).expect("decode own frame"));
        });
        tracer.exit(bytes as u64);
        report.metric(
            "server.codec_reply_ns",
            codec_us * 1e3,
            "write_response + read_response of one recorded reply",
        );
        report.metric(
            "server.reply_bytes",
            bytes as f64 / replies.len() as f64,
            "mean frame",
        );
        let rtt = stats::median(&us);
        report.metric(
            "server.tcp_self_us",
            rtt - hit_us - codec_us,
            format!("round trip {rtt:.2} − service hit − codec: socket + worker hand-off"),
        );
        tracer.exit(0);
        dump_spans(args, &tracer)
    })
    .map(|_| ())
}

fn run_churn_traced(shape: &ServeShape, args: &RunArgs, report: &mut Report) -> io::Result<()> {
    with_server(shape, args.seed, |live| {
        let mut tracer = Tracer::new();
        tracer.enter("run", 0, 0);
        world_info(report, shape, live);
        let (world, plan) = (live.world, live.plan);

        tracer.enter("client.load", 0, 0);
        let mut out = churn_load(live, shape, args.seed, args.seconds / 2.0)?;
        tracer.exit((out.reads.len() + out.ingests.len()) as u64);
        check_churn(report, live, &mut out);

        let service_us: Vec<f64> = out.reads.iter().map(|s| micros(s.service_time())).collect();
        let latency_us: Vec<f64> = out.reads.iter().map(|s| micros(s.latency())).collect();
        client_metrics(report, &service_us, &latency_us);
        let reads = out.reads.len().max(1) as f64;
        report.metric(
            "client.resolve_late_pct",
            100.0 * out.reads.iter().filter(|s| late(s)).count() as f64 / reads,
            format!(
                "answered > {} ms after it was due, or failed",
                LATE.as_millis()
            ),
        );
        report.metric(
            "server.read_stall_share",
            out.reads.iter().filter(|s| s.service_time() > LATE).count() as f64 / reads,
            "reads whose own round trip exceeded the limit",
        );
        let ingest_ms: Vec<f64> = out
            .ingests
            .iter()
            .map(|s| s.latency().as_secs_f64() * 1e3)
            .collect();
        report.metric(
            "client.ingest_p50_ms",
            stats::median(&ingest_ms),
            format!("INGEST round trip, n={}", ingest_ms.len()),
        );
        let max_lag = out
            .ingests
            .iter()
            .map(|s| s.lag())
            .max()
            .unwrap_or_default();
        report.metric(
            "loadgen.max_lag_ms",
            max_lag.as_secs_f64() * 1e3,
            "latest INGEST send after its due instant: beyond a few ms the writer's schedule \
             is unsustainable",
        );
        report.metric("server.cache_hit_rate", out.hit_rate, "");
        report.metric("server.coalesced", out.coalesced as f64, "");
        report.metric(
            "server.invalidated_per_ingest",
            out.replies
                .iter()
                .map(|r| f64::from(r.invalidated))
                .sum::<f64>()
                / out.replies.len().max(1) as f64,
            "",
        );

        // The miss path without the socket, then the sweep beneath it, on
        // the same entities over identically-fed state.
        let mut rng = SplitMix64::new(args.seed ^ 0x05EA_DE12);
        let entities: Vec<u32> = (0..LAYER_CALLS)
            .map(|_| plan.preloaded()[rng.below(plan.preload)])
            .collect();
        let uncached = ResolveService::new(&world.dataset, ErMode::CleanClean, SCHEME, PRUNING, 0);
        uncached
            .ingest(plan.preloaded())
            .map_err(rejected("preload ingest"))?;
        // The first resolve of a version builds the per-version criteria.
        uncached
            .resolve(entities[0])
            .map_err(rejected("first resolve"))?;
        tracer.enter("server.service_miss", entities.len() as u64, 0);
        let mut miss_us = Vec::with_capacity(entities.len());
        for &e in &entities {
            let t = Instant::now();
            black_box(uncached.resolve(e).map_err(rejected("resolve"))?);
            miss_us.push(micros(t.elapsed()));
        }
        tracer.exit(entities.len() as u64);
        drop(uncached);
        report.metric(
            "server.service_miss_us",
            stats::median(&miss_us),
            format!(
                "ResolveService::resolve, capacity 0, {} calls",
                entities.len()
            ),
        );

        let mut session = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
        session.scheme(SCHEME).pruning(PRUNING);
        session.ingest(&ids(plan.preloaded()));
        black_box(session.resolve_entity(EntityId(entities[0])));
        tracer.enter("metablocking.resolve_entity", entities.len() as u64, 0);
        let mut sweep_us = Vec::with_capacity(entities.len());
        let mut pairs = 0usize;
        for &e in &entities {
            let t = Instant::now();
            let resolved = session.resolve_entity(EntityId(e));
            sweep_us.push(micros(t.elapsed()));
            pairs += resolved.matches.len();
        }
        tracer.exit(pairs as u64);
        alloc::enable();
        for &e in &entities {
            black_box(session.resolve_entity(EntityId(e)));
        }
        let allocs = alloc::snapshot().allocs;
        alloc::disable();
        report.metric(
            "metablocking.resolve_entity_us",
            stats::median(&sweep_us),
            "IncrementalSession::resolve_entity, same entities",
        );
        report.metric(
            "metablocking.pairs_per_resolve",
            pairs as f64 / entities.len() as f64,
            "",
        );
        report.metric(
            "metablocking.allocs_per_resolve",
            allocs as f64 / entities.len() as f64,
            "",
        );

        // The ingest path at three depths, each fed the batch sequence the
        // load run's writer sent: service ⊃ session ⊃ collection.
        let cached = ResolveService::new(
            &world.dataset,
            ErMode::CleanClean,
            SCHEME,
            PRUNING,
            shape.cache,
        );
        cached
            .ingest(plan.preloaded())
            .map_err(rejected("preload ingest"))?;
        for &e in plan.preloaded().iter().take(shape.cache) {
            cached.resolve(e).map_err(rejected("cache fill"))?;
        }
        let mut collection = IncrementalCollection::new(&world.dataset, ErMode::CleanClean);
        let threads = minoan_common::default_threads();
        collection.ingest(&ids(plan.preloaded()), threads);
        let batches = out.replies.len();
        let (mut svc_ms, mut ses_ms, mut col_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut arrivals, mut swept, mut dirty, mut delta) = (0usize, 0usize, 0usize, 0usize);
        tracer.enter("ingest.depths", batches as u64, 0);
        for i in 0..batches {
            let raw = plan.batch(i).expect("the load run ingested this batch");
            let batch = ids(raw);
            let t = Instant::now();
            cached.ingest(raw).map_err(rejected("ingest"))?;
            svc_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let r = session.ingest(&batch);
            ses_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let d = collection.ingest(&batch, threads);
            col_ms.push(t.elapsed().as_secs_f64() * 1e3);
            arrivals += batch.len();
            swept += r.swept_entities;
            dirty += d.dirty.len();
            delta += usize::from(r.delta);
        }
        tracer.exit(arrivals as u64);
        let per = |x: usize, y: usize| x as f64 / y.max(1) as f64;
        report.metric(
            "server.ingest_ms",
            stats::median(&svc_ms),
            format!(
                "ResolveService::ingest, cache {} filled, n={batches}",
                shape.cache
            ),
        );
        report.metric(
            "metablocking.ingest_ms",
            stats::median(&ses_ms),
            "IncrementalSession::ingest",
        );
        report.metric(
            "blocking.delta_ingest_ms",
            stats::median(&col_ms),
            "IncrementalCollection::ingest (includes the snapshot it returns)",
        );
        report.metric("metablocking.swept_per_arrival", per(swept, arrivals), "");
        report.metric("blocking.dirty_per_arrival", per(dirty, arrivals), "");
        report.metric(
            "metablocking.delta_share",
            per(delta, batches),
            "ingests that delta-swept",
        );
        report.sample("server.ingest_ms", svc_ms);
        report.sample("metablocking.ingest_ms", ses_ms);
        report.sample("blocking.delta_ingest_ms", col_ms);
        tracer.exit(0);
        dump_spans(args, &tracer)
    })
    .map(|_| ())
}

/// The traced pass of either serve workload.
pub fn run_traced(shape: &ServeShape, args: &RunArgs, report: &mut Report) -> io::Result<()> {
    if shape.is_hot() {
        run_hot_traced(shape, args, report)
    } else {
        run_churn_traced(shape, args, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::{self, Size};

    #[test]
    fn plan_is_a_seeded_partition_of_the_corpus() {
        let shape = worlds::serve_churn(3, Size::Smoke);
        let a = Plan::new(&shape, 900, 3);
        let b = Plan::new(&shape, 900, 3);
        let c = Plan::new(&shape, 900, 4);
        assert_eq!(a.order, b.order, "same seed, same arrival order");
        assert_ne!(a.order, c.order, "another seed, another order");
        assert_eq!(a.preload, 600);
        assert_eq!(a.preloaded().len(), 600);
        let first = a.batch(0).expect("a first batch");
        assert_eq!(first, &a.order[600..600 + shape.ingest_batch]);
        assert_eq!(a.arrived(2).len(), 600 + 2 * shape.ingest_batch);
        assert!(a.batch(900).is_none(), "past the corpus there is no batch");
        let mut all = a.order.clone();
        all.sort_unstable();
        assert_eq!(all, (0..900).collect::<Vec<u32>>());
    }

    #[test]
    fn served_quality_counts_partners_that_have_arrived() {
        // World entities: 0 ↦ {d0, d3}, 1 ↦ {d1, d4}, 2 ↦ {d2}.
        let truth = GroundTruth::new(vec![0, 1, 2, 0, 1], 3, Vec::new());
        let answer = |entity, pairs: &[(u32, u32)]| ResolveReply {
            version: 1,
            entity,
            pairs: pairs.iter().map(|&(a, b)| (a, b, 0)).collect(),
        };
        // d0 finds its partner d3 and one wrong candidate; d1's partner d4
        // has not arrived, so it is not missed; d2 has no partner.
        let answers = [
            answer(0, &[(0, 3), (0, 2)]),
            answer(1, &[(1, 2)]),
            answer(2, &[]),
        ];
        let (recall, precision) = served_quality(&truth, &[0, 1, 2, 3], &answers);
        assert_eq!(recall, 1.0);
        assert_eq!(precision, 1.0 / 3.0);
        // Once d4 is in, d1's answer misses it.
        let (recall, _) = served_quality(&truth, &[0, 1, 2, 3, 4], &answers);
        assert_eq!(recall, 0.5);
    }
}
