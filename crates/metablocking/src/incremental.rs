//! Delta-sweep incremental meta-blocking: an *updatable* session over
//! the live block slabs.
//!
//! [`Session`](crate::Session) answers "prune this finished collection";
//! an [`IncrementalSession`] answers the pay-as-you-go question the paper
//! poses for Web-scale ER: descriptions *arrive*, and the pruned
//! comparison set must stay current at a cost that follows the batch,
//! not the corpus. Each [`IncrementalSession::ingest`] call
//!
//! 1. tokenises the batch through the same string-free
//!    `KeyAssignments` path the batch builders use and delta-appends the
//!    new member runs into the [`IncrementalCollection`] slabs,
//! 2. takes the resulting *dirty sets* — the touched blocks, their
//!    members, and the entities whose block lists grew,
//! 3. runs a **delta-sweep** directly on those live slabs (through
//!    [`BlockView`]; no [`BlockCollection`] is materialised): only the
//!    entities whose incident weights can have changed are re-swept, and
//!    the cached weight rows — theirs, and their neighbours' through
//!    appended *mirror tails* — are patched in place.
//!
//! [`IncrementalSession::outcome`] then runs the pruning family's rules
//! (the crate-internal `rule` module — the same definitions every backend
//! executes) over the cached rows, serially in entity order, and the
//! [`PruneOutcome`] is **bit-identical** to a from-scratch
//! [`Session`](crate::Session) run on the merged corpus — same pair
//! order, same f64 weight bits, for every arrival order, batch size and
//! thread count (enforced by `tests/incremental_delta.rs`).
//!
//! # What is maintained on touch, and who pays for the rest
//!
//! An ingest is `O(batch × neighbourhood)`: the collection refreshes
//! comparison counts, ARCS reciprocals and per-entity block counts for
//! the touched keys and grown entities only, the sweep reads the block
//! counts straight from it, and a mirror append is `O(1)` per changed
//! edge. Everything `O(corpus)` is deferred to the reader that needs it:
//!
//! * a mirror tail is folded into its row's sorted prefix when the row
//!   is next *read* — a single [`IncrementalSession::resolve_entity`]
//!   folds the rows of the neighbourhood it loads, nothing else;
//! * the global criteria (WEP's threshold, CEP's top-k, CNP's default
//!   `k`) and [`IncrementalSession::outcome`] walk every row, so they
//!   fold every tail, once per version, on first use;
//! * a **snapshot** — the merged corpus as a [`BlockCollection`] — is
//!   built only by [`IncrementalSession::snapshot`] or by a fallback
//!   combination (below), at most once per version, and dropped by the
//!   next ingest. The delta-supported combinations ingest, resolve and
//!   assemble without one; [`IncrementalSession::snapshots_built`]
//!   counts them per session, and the delta suite pins it at zero.
//!
//! # Which combinations delta-sweep
//!
//! The cached row of entity `a` holds the weights of `a`'s incident
//! edges. A scheme is delta-sweepable when it is *delta-local* — a batch
//! changes weights only on edges with a dirty endpoint; the crate-internal
//! `WeightingScheme::is_delta_local` (`weights.rs`) decides which schemes
//! are, and says why. What each one re-sweeps:
//!
//! * **CBS / JS** — a pair's inputs (`|B_ij|`, `|B_i|`, `|B_j|`) move
//!   only when an endpoint's block list grows, so the weight of an edge
//!   between two pre-batch, un-grown entities **never changes**, and
//!   re-sweeping `batch ∪ grown` and mirror-patching each fresh
//!   `(target, neighbour)` weight into the neighbour's row covers every
//!   changed edge — typically a small fraction of the corpus,
//!   independent of how hot the batch's tokens are.
//! * **ARCS** — every touched block reweights *all* pairs inside it, so
//!   the whole dirty set is re-swept, which covers both directions with
//!   no mirror pass. The live slabs list an entity's blocks in
//!   key-string order — a snapshot's block-id order — so the sums
//!   accumulate in the order a from-scratch sweep uses.
//! * **ECBS / EJS** are not delta-local, and BLAST (χ² over global
//!   aggregates) and the supervised pruner (features normalised by global
//!   maxima) read global state under any scheme. These combinations
//!   transparently fall back to a full streaming re-sweep of the
//!   version's snapshot — same results, no stale answers; their ingest is
//!   as cheap as any other, the first resolve or outcome of the version
//!   builds the snapshot, and [`IngestReport::delta`] and
//!   [`IncrementalSession::snapshots_built`] say which path ran.
//!
//! The pruning families `None`/`WEP`/`CEP`/`WNP`/`CNP` all run off the
//! rows; with a delta-sweepable scheme they never re-sweep untouched
//! entities.
//!
//! ```
//! use minoan_blocking::ErMode;
//! use minoan_datagen::{generate, profiles};
//! use minoan_metablocking::{IncrementalSession, Pruning, Session, WeightingScheme};
//! use minoan_rdf::EntityId;
//!
//! let g = generate(&profiles::center_dense(60, 3));
//! let mut session = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
//! session
//!     .scheme(WeightingScheme::Cbs)
//!     .pruning(Pruning::Wnp { reciprocal: false });
//!
//! let ids: Vec<EntityId> = (0..g.dataset.len() as u32).map(EntityId).collect();
//! for batch in ids.chunks(16) {
//!     let report = session.ingest(batch);
//!     assert!(report.delta, "CBS × WNP delta-sweeps");
//!     assert!(report.swept_entities <= report.num_arrived);
//!     session.resolve_entity(batch[0]);
//! }
//! let outcome = session.outcome();
//! assert!(outcome.pairs().len() <= outcome.input_edges());
//! // All of that ran on the live slabs.
//! assert_eq!(session.snapshots_built(), 0);
//!
//! // Asking for the merged corpus builds it, once for this version.
//! let from_scratch = Session::new(session.snapshot())
//!     .scheme(WeightingScheme::Cbs)
//!     .pruning(Pruning::Wnp { reciprocal: false })
//!     .run();
//! assert_eq!(from_scratch.pairs(), outcome.pairs());
//! assert_eq!(session.snapshots_built(), 1);
//! ```

use crate::kernel::WeightGlobals;
use crate::parallel::JobReport;
use crate::prune::WeightedPair;
use crate::query::{self, ResolvedEntity};
use crate::rule::{
    self, forward_len, Criterion, CriterionFold, Partial, Row, RowBuf, RowDriver, Rule, Weigher,
};
use crate::session::{PruneOutcome, Pruning};
use crate::streaming::Streaming;
use crate::sweep::{for_each_range, partition_by_cost, ScratchPool, SweepState};
use crate::weights::WeightingScheme;
use minoan_blocking::{BlockCollection, BlockView, Direction, ErMode, IncrementalCollection};
use minoan_common::default_threads;
use minoan_rdf::{Dataset, EntityId};

/// What one [`IncrementalSession::ingest`] call did — the per-batch
/// bookkeeping the bench harness and the subset assertions read.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestReport {
    /// Batch entities ingested by this call.
    pub arrived: usize,
    /// Blocks whose member runs changed (and stayed/became present).
    pub touched_blocks: usize,
    /// Blocks that crossed from zero to positive comparisons.
    pub newly_present_blocks: usize,
    /// Members of touched blocks — the core dirty set.
    pub dirty_entities: usize,
    /// Entities actually re-swept (`batch ∪ grown` for CBS/JS, the dirty
    /// set for ARCS; 0 when the combination fell back).
    pub swept_entities: usize,
    /// Total entities arrived so far, this batch included.
    pub num_arrived: usize,
    /// Whether the delta-sweep ran (`false` = full re-sweep fallback or
    /// a row-cache rebuild was pending).
    pub delta: bool,
}

/// An updatable meta-blocking session: ingest description batches,
/// delta-sweep only the affected entities, and read a [`PruneOutcome`]
/// bit-identical to a from-scratch run at any point. See the
/// [module docs](self) for the supported-combination matrix and an
/// example.
pub struct IncrementalSession<'d> {
    collection: IncrementalCollection<'d>,
    scheme: WeightingScheme,
    pruning: Pruning,
    workers: Option<usize>,
    /// The merged corpus materialised at the current version — built on
    /// first use by [`Self::snapshot`] or a fallback combination, dropped
    /// by the next ingest.
    snapshot: Option<BlockCollection>,
    /// How many snapshots this session has materialised.
    snapshots_built: u64,
    /// Per-entity incident-edge cache: `rows[a]` holds `(y, w)` for every
    /// comparable neighbour `y` of `a`, with `w` the scheme weight of the
    /// edge — exactly the statistics a streaming sweep of `a` would
    /// produce on the current corpus. The first `sorted_len[a]` entries
    /// are ascending by `y` and duplicate-free; anything beyond is an
    /// unsorted *mirror tail* of `(y, w)` appends in arrival order
    /// (later wins), folded in by [`normalize_row`] before any read.
    rows: Vec<Vec<(u32, f64)>>,
    /// Length of each row's sorted duplicate-free prefix.
    sorted_len: Vec<u32>,
    /// Whether `rows` matches the current corpus under the current
    /// scheme. Starts `true`: an empty corpus has all-empty rows.
    rows_valid: bool,
    /// Reusable target-membership mask for [`mirror_append`]; all-false
    /// between ingests.
    mask: Vec<bool>,
    pool: ScratchPool,
    /// Monotone corpus version: bumped by every ingest.
    version: u64,
    /// Dirty entities of the last ingest (the cache-invalidation set a
    /// layered [`NeighbourhoodCache`](crate::NeighbourhoodCache) reads).
    last_dirty: Vec<EntityId>,
    /// Query-time criterion (and fallback globals) of the current
    /// `(version, scheme, pruning)` triple: dropped by every ingest and by
    /// every scheme or pruning switch, rebuilt by the next resolve.
    resolve_cache: Option<ResolveCache>,
}

/// Query-time state cached per corpus version by
/// [`IncrementalSession::resolve_entity`]: the pruning criterion and —
/// for the sweep-fallback combinations — a snapshot of the weight
/// globals (cloned out so the transient sweep state that computed them
/// can be dropped).
struct ResolveCache {
    /// `Some` on the fallback path (per-request sweeps need them);
    /// `None` when the row cache serves the rows directly.
    globals: Option<WeightGlobals>,
    criterion: Criterion,
}

impl<'d> IncrementalSession<'d> {
    /// An empty session over `dataset` (no entity has arrived yet) with
    /// the [`Session`](crate::Session) defaults: ARCS-weighted WNP.
    pub fn new(dataset: &'d Dataset, mode: ErMode) -> Self {
        let n = dataset.len();
        Self {
            collection: IncrementalCollection::new(dataset, mode),
            scheme: WeightingScheme::Arcs,
            pruning: Pruning::Wnp { reciprocal: false },
            workers: None,
            snapshot: None,
            snapshots_built: 0,
            rows: vec![Vec::new(); n],
            sorted_len: vec![0; n],
            rows_valid: true,
            mask: vec![false; n],
            pool: ScratchPool::new(n),
            version: 0,
            last_dirty: Vec::new(),
            resolve_cache: None,
        }
    }

    /// Sets the weighting scheme. Changing it invalidates the row cache;
    /// the next ingest or outcome rebuilds it with one full sweep.
    pub fn scheme(&mut self, scheme: WeightingScheme) -> &mut Self {
        if scheme != self.scheme {
            self.scheme = scheme;
            // An empty corpus has all-empty rows under every scheme, so
            // only a switch after arrivals dirties the cache.
            self.rows_valid = self.collection.num_arrived() == 0;
            self.resolve_cache = None;
        }
        self
    }

    /// Sets the pruning family (rows are scheme-scoped, so this never
    /// invalidates them).
    pub fn pruning(&mut self, pruning: Pruning) -> &mut Self {
        if pruning != self.pruning {
            self.pruning = pruning;
            self.resolve_cache = None;
        }
        self
    }

    /// Pins the worker count of the parallel sweeps. Results never
    /// depend on it; the default is all available parallelism.
    pub fn workers(&mut self, workers: usize) -> &mut Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The merged corpus as a [`BlockCollection`], materialised on first
    /// use per version (`O(corpus)`) and cached until the next ingest.
    /// The delta-supported combinations never need it; it exists for the
    /// fallback combinations, exports and the equivalence suites.
    pub fn snapshot(&mut self) -> &BlockCollection {
        if self.snapshot.is_none() {
            self.snapshots_built += 1;
        }
        let threads = self.threads();
        self.snapshot
            .get_or_insert_with(|| self.collection.snapshot(threads))
    }

    /// How many snapshots this session has materialised so far — 0 for
    /// as long as only delta-supported combinations ingest, resolve and
    /// assemble; at most one per version otherwise.
    pub fn snapshots_built(&self) -> u64 {
        self.snapshots_built
    }

    /// Entities ingested so far.
    pub fn num_arrived(&self) -> usize {
        self.collection.num_arrived()
    }

    /// Whether entity `e` has been ingested.
    pub fn has_arrived(&self, e: EntityId) -> bool {
        self.collection.has_arrived(e)
    }

    /// Monotone corpus version: 0 before the first ingest, bumped by
    /// every [`Self::ingest`]. Resolution servers stamp answers with the
    /// version they were computed at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The dirty entities of the last ingest (members of its touched
    /// blocks) — the invalidation set for a
    /// [`NeighbourhoodCache`](crate::NeighbourhoodCache) layered over
    /// this session (sound only when
    /// [`locally_invalidatable`](crate::locally_invalidatable) holds for
    /// the configured combination). Empty before the first ingest.
    pub fn last_dirty(&self) -> &[EntityId] {
        &self.last_dirty
    }

    fn threads(&self) -> usize {
        self.workers.unwrap_or_else(default_threads).max(1)
    }

    /// Whether the current scheme × pruning combination is maintained by
    /// delta-sweeps: a delta-local scheme (see the [module docs](self))
    /// under a family that runs off the rows.
    pub fn supports_delta(&self) -> bool {
        self.scheme.is_delta_local()
            && matches!(
                self.pruning,
                Pruning::None
                    | Pruning::Wep
                    | Pruning::Cep(_)
                    | Pruning::Wnp { .. }
                    | Pruning::Cnp { .. }
            )
    }

    /// Ingests a batch of not-yet-arrived descriptions: tokenise,
    /// delta-append the block slabs, and patch the row cache by
    /// re-sweeping — on the live slabs, no snapshot — only the entities
    /// whose incident weights can have changed (see the
    /// [module docs](self) for the per-scheme sets).
    ///
    /// # Panics
    /// Panics if any batch entity was already ingested.
    pub fn ingest(&mut self, batch: &[EntityId]) -> IngestReport {
        let threads = self.threads();
        let delta = self.collection.ingest(batch, threads);
        let mut report = IngestReport {
            arrived: batch.len(),
            touched_blocks: delta.touched_blocks.len(),
            newly_present_blocks: delta.newly_present.len(),
            dirty_entities: delta.dirty.len(),
            swept_entities: 0,
            num_arrived: self.collection.num_arrived(),
            delta: false,
        };
        if !self.supports_delta() {
            // Rows are not maintained for this combination; a later
            // switch back to a supported one must rebuild them.
            self.rows_valid = false;
        } else if self.rows_valid {
            // CBS/JS: no edge between two pre-batch, un-grown entities
            // can change weight, so `batch ∪ grown` is re-swept and
            // `mirror_append` carries each fresh weight into the
            // untargeted neighbour's row. ARCS reweights every pair of a
            // touched block, so it takes the full dirty set (both
            // endpoints of every changed edge are in it — no mirror).
            let arcs = self.scheme == WeightingScheme::Arcs;
            let mut merged = Vec::new();
            let targets: &[EntityId] = if arcs {
                &delta.dirty
            } else {
                merged.extend_from_slice(batch);
                merged.extend_from_slice(&delta.grown);
                merged.sort_unstable();
                merged.dedup();
                &merged
            };
            resweep_rows(
                self.scheme,
                &self.pool,
                &mut self.rows,
                &mut self.sorted_len,
                &self.collection,
                targets,
                threads,
            );
            if !arcs {
                mirror_append(
                    &mut self.rows,
                    &mut self.sorted_len,
                    targets,
                    &mut self.mask,
                );
            }
            report.swept_entities = targets.len();
            report.delta = true;
        } else {
            // Cold cache (scheme switch or an unsupported interlude):
            // one full sweep re-seeds it, then deltas resume.
            self.reseed_rows(threads);
            report.swept_entities = self.rows.len();
        }
        self.version += 1;
        self.last_dirty = delta.dirty;
        self.resolve_cache = None;
        self.snapshot = None;
        report
    }

    /// Re-seeds the whole row cache with one full sweep of the live
    /// slabs under the current scheme.
    fn reseed_rows(&mut self, threads: usize) {
        let all: Vec<EntityId> = (0..self.rows.len() as u32).map(EntityId).collect();
        resweep_rows(
            self.scheme,
            &self.pool,
            &mut self.rows,
            &mut self.sorted_len,
            &self.collection,
            &all,
            threads,
        );
        self.rows_valid = true;
    }

    /// The row cache as a [`RowDriver`] (valid rows required).
    fn row_cache(&mut self) -> RowCache<'_> {
        RowCache {
            rows: &mut self.rows,
            sorted_len: &mut self.sorted_len,
            total_assignments: self.collection.total_assignments(),
        }
    }

    /// Assembles the pruned comparisons of the current merged corpus —
    /// bit-identical to a from-scratch [`Session`](crate::Session) run on
    /// the same collection. Delta-supported combinations run the family's
    /// rule over the row cache and nothing else; the rest materialise
    /// this version's snapshot (once) and re-sweep it in full on the
    /// streaming driver.
    pub fn outcome(&mut self) -> PruneOutcome {
        let threads = self.threads();
        let (scheme, pruning) = (self.scheme, self.pruning);
        let pruned = if self.supports_delta() {
            if !self.rows_valid {
                self.reseed_rows(threads);
            }
            rule::run(&mut self.row_cache(), scheme, &pruning)
        } else {
            let mut st = SweepState::new(self.snapshot());
            rule::run(&mut Streaming::new(&mut st, threads), scheme, &pruning)
        };
        PruneOutcome {
            pruned,
            report: JobReport::default(),
        }
    }

    /// Resolves one entity against the current merged corpus: the
    /// comparisons [`Self::outcome`] would keep for it — same pairs,
    /// same order, same f64 weight bits — without assembling (or
    /// re-sweeping) the whole outcome.
    ///
    /// Delta-supported combinations answer from the patched row cache
    /// and never touch a snapshot. The fallback combinations (ECBS/EJS,
    /// BLAST, supervised) sweep the queried neighbourhood on this
    /// version's snapshot, which the first such resolve after an ingest
    /// materialises. Either way the pruning family's *global* inputs
    /// (WEP's threshold, CEP's top-k, CNP's default `k`, the supervised
    /// extractor) are built once per ingested version and reused by
    /// every resolve against it.
    ///
    /// ```
    /// use minoan_blocking::ErMode;
    /// use minoan_datagen::{generate, profiles};
    /// use minoan_metablocking::{IncrementalSession, Pruning, WeightingScheme};
    /// use minoan_rdf::EntityId;
    ///
    /// let g = generate(&profiles::center_dense(60, 3));
    /// let mut session = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
    /// session
    ///     .scheme(WeightingScheme::Js)
    ///     .pruning(Pruning::Wnp { reciprocal: false });
    /// let ids: Vec<EntityId> = (0..g.dataset.len() as u32).map(EntityId).collect();
    /// session.ingest(&ids);
    ///
    /// let e = EntityId(7);
    /// let resolved = session.resolve_entity(e);
    /// let incident: Vec<_> = session
    ///     .outcome()
    ///     .pairs()
    ///     .iter()
    ///     .filter(|p| p.a == e || p.b == e)
    ///     .copied()
    ///     .collect();
    /// assert_eq!(resolved.matches, incident);
    /// ```
    pub fn resolve_entity(&mut self, entity: EntityId) -> ResolvedEntity {
        assert!(
            (entity.0 as usize) < self.rows.len(),
            "resolve_entity: entity id out of range"
        );
        if self.resolve_cache.is_none() {
            self.rebuild_resolve_cache();
        }
        let cache = self.resolve_cache.as_ref().expect("cache just ensured");
        let (pruning, criterion) = (&self.pruning, &cache.criterion);
        let rule = Rule { pruning, criterion };
        if self.supports_delta() {
            // Field by field: `rule` borrows the criterion cache.
            let mut rows = RowCache {
                rows: &mut self.rows,
                sorted_len: &mut self.sorted_len,
                total_assignments: self.collection.total_assignments(),
            };
            return query::resolve_rows(&mut |e, out| rows.load_row(e, out), entity, rule);
        }
        let snapshot = self.snapshot.as_ref().expect("fallback rebuild snapshots");
        let globals = cache.globals.as_ref().expect("fallback stores globals");
        let weigher = Weigher::of(self.scheme, &self.pruning);
        let mut load =
            |e, out: &mut RowBuf| query::sweep_row(snapshot, globals, &self.pool, weigher, e, out);
        query::resolve_rows(&mut load, entity, rule)
    }

    /// Rebuilds the per-version query-time state. Delta-supported
    /// combinations re-seed the row cache if a scheme switch left it cold
    /// and reduce the criterion over the rows — the same fold a full
    /// outcome runs, so the thresholds carry the same f64 bits; the rest
    /// materialise this version's snapshot, reduce the criterion with the
    /// streaming driver on a transient sweep state over it and keep a
    /// clone of its globals for per-request sweeps.
    fn rebuild_resolve_cache(&mut self) {
        let threads = self.threads();
        let (scheme, pruning) = (self.scheme, self.pruning);
        let (criterion, globals) = if self.supports_delta() {
            if !self.rows_valid {
                self.reseed_rows(threads);
            }
            let criterion = rule::resolve_criterion(&mut self.row_cache(), scheme, &pruning);
            (criterion, None)
        } else {
            let mut st = SweepState::new(self.snapshot());
            let mut driver = Streaming::new(&mut st, threads);
            let criterion = rule::resolve_criterion(&mut driver, scheme, &pruning);
            st.ensure(Weigher::of(scheme, &pruning).needs_counts(), threads);
            (criterion, Some(st.globals().clone()))
        };
        self.resolve_cache = Some(ResolveCache { globals, criterion });
    }
}

/// The session's row cache as the rules see it.
///
/// As a [`RowDriver`] it visits every cached row serially in entity
/// order, exactly as a one-range sweep would — the rows already hold the
/// statistics a sweep under the session's scheme would produce, so
/// nothing is weighed. Both passes walk the whole cache and are
/// `O(corpus)` anyway, so they fold every outstanding mirror tail first.
///
/// For a resolve ([`Self::load_row`]) it folds a row's mirror tail the
/// first time the row is read — the first resolve after an ingest pays
/// for the neighbourhood it loads, not for every row the ingest mirrored
/// into. A folded row is sorted and duplicate-free, the shape a fresh
/// sweep produces.
struct RowCache<'a> {
    rows: &'a mut [Vec<(u32, f64)>],
    sorted_len: &'a mut [u32],
    total_assignments: u64,
}

impl RowCache<'_> {
    /// The non-empty rows, every mirror tail folded.
    fn folded(&mut self) -> impl Iterator<Item = Row<'_>> {
        for (row, sorted) in self.rows.iter_mut().zip(self.sorted_len.iter_mut()) {
            fold_tail(row, sorted);
        }
        let rows = self.rows.iter().enumerate();
        rows.filter(|(_, entries)| !entries.is_empty())
            .map(|(a, entries)| Row {
                a: a as u32,
                entries,
                features: &[],
            })
    }

    /// Loads `e`'s row for a resolve, folding its mirror tail first.
    fn load_row(&mut self, e: u32, out: &mut RowBuf) {
        out.clear();
        if let Some(row) = self.rows.get_mut(e as usize) {
            fold_tail(row, &mut self.sorted_len[e as usize]);
            out.entries.extend_from_slice(row);
        }
    }
}

impl RowDriver for RowCache<'_> {
    fn num_entities(&self) -> usize {
        self.rows.len()
    }

    fn total_assignments(&self) -> u64 {
        self.total_assignments
    }

    fn active_nodes(&mut self) -> usize {
        // A mirror tail only ever holds real edges, so emptiness needs no
        // folding.
        self.rows.iter().filter(|r| !r.is_empty()).count()
    }

    fn num_edges(&mut self) -> usize {
        self.folded()
            .map(|row| forward_len(row.a, row.entries, |e| e.0))
            .sum::<u64>() as usize
    }

    fn reduce(&mut self, _weigher: Weigher, fold: &CriterionFold) -> (Partial, u64) {
        let mut share = fold.init();
        let mut forward = 0u64;
        for row in self.folded() {
            forward += forward_len(row.a, row.entries, |e| e.0);
            fold.fold(&mut share, row);
        }
        (share, forward)
    }

    fn keep(&mut self, _weigher: Weigher, rule: Rule<'_>) -> (Vec<WeightedPair>, u64) {
        let mut kept = Vec::new();
        let mut forward = 0u64;
        for row in self.folded() {
            forward += forward_len(row.a, row.entries, |e| e.0);
            rule.contribute(row, &mut kept);
        }
        (kept, forward)
    }
}

/// Re-sweeps `targets` on `view` and installs their fresh rows —
/// cost-balanced over the shared scoped-thread driver (inline when one
/// range covers everything), scratches from `pool`. Row contents never
/// depend on the partitioning: each row is one entity's serial sweep. The
/// view's own block counts serve as the weight globals — the delta
/// schemes read nothing beyond them.
fn resweep_rows<V: BlockView + Sync>(
    scheme: WeightingScheme,
    pool: &ScratchPool,
    rows: &mut [Vec<(u32, f64)>],
    sorted_len: &mut [u32],
    view: &V,
    targets: &[EntityId],
    threads: usize,
) {
    let costs: Vec<u64> = targets.iter().map(|&e| view.sweep_cost(e)).collect();
    let ranges = partition_by_cost(&costs, threads.max(1));
    let weigher = Weigher::Scheme(scheme);
    let fresh = for_each_range(&ranges, pool, |range, scratch| {
        let mut buf = RowBuf::default();
        let sweep_one = |&e: &EntityId| {
            scratch.sweep(view, e, Direction::Both);
            weigher.fill(scratch, e.0, view, &mut buf);
            buf.entries.clone()
        };
        targets[range].iter().map(sweep_one).collect::<Vec<_>>()
    });
    for (row, &e) in fresh.into_iter().flatten().zip(targets) {
        sorted_len[e.index()] = row.len() as u32;
        rows[e.index()] = row;
    }
}

/// Carries the freshly swept `(target, neighbour)` weights into the rows
/// of neighbours that were *not* re-swept themselves: every entry
/// `(y, w)` of a target's fresh row with `y` outside the target set is
/// **appended** to `rows[y]`'s unsorted mirror tail as `(t, w)` — O(1)
/// per changed edge, the information-theoretic floor. Nothing sorted is
/// rebuilt here: tails fold into the sorted prefix lazily at the next
/// read ([`normalize_row`]), or eagerly once a tail outgrows its prefix,
/// which amortises every fold to O(1) per append and bounds a row's
/// memory to ~2× its folded size. (Both eager alternatives are
/// quadratic per stream on dense neighbourhoods: per-edge `Vec::insert`
/// memmoves the tail once per new edge, and a per-batch sorted merge
/// rebuilds every mirror-receiving row once per batch.)
///
/// Edges never disappear under CBS/JS (blocks only gain members), so
/// append with later-wins replay is exhaustive, and the weight bits are
/// endpoint-symmetric by construction: CBS is the shared-block count and
/// JS normalises the endpoint block counts lo/hi before the one
/// division, so `y`'s own sweep would produce the identical f64.
/// `mask` is a reusable all-false scratch; it is restored before return.
fn mirror_append(
    rows: &mut [Vec<(u32, f64)>],
    sorted_len: &mut [u32],
    targets: &[EntityId],
    mask: &mut [bool],
) {
    for &t in targets {
        mask[t.index()] = true;
    }
    for &t in targets {
        let row = std::mem::take(&mut rows[t.index()]);
        for &(y, w) in &row {
            if mask[y as usize] {
                continue;
            }
            let mirror = &mut rows[y as usize];
            mirror.push((t.0, w));
            let sorted = &mut sorted_len[y as usize];
            if mirror.len() - *sorted as usize >= (*sorted as usize).max(64) {
                fold_tail(mirror, sorted);
            }
        }
        rows[t.index()] = row;
    }
    for &t in targets {
        mask[t.index()] = false;
    }
}

/// Folds `row`'s mirror tail, if it has one, and records the row as
/// fully sorted.
fn fold_tail(row: &mut Vec<(u32, f64)>, sorted_len: &mut u32) {
    if (*sorted_len as usize) < row.len() {
        normalize_row(row, *sorted_len as usize);
        *sorted_len = row.len() as u32;
    }
}

/// Folds a row's mirror tail (`row[sorted..]`, append order) into its
/// sorted duplicate-free prefix: the tail is stable-sorted by neighbour
/// id, deduplicated keeping the *latest* append of each edge (mirrors
/// replay weight updates in arrival order), and merged with the prefix,
/// fresh weights overwriting stale ones.
fn normalize_row(row: &mut Vec<(u32, f64)>, sorted: usize) {
    let mut tail = row.split_off(sorted);
    // Stable by id: equal ids keep append order, so the last one is the
    // most recent weight.
    tail.sort_by_key(|e| e.0);
    let prefix = std::mem::take(row);
    row.reserve(prefix.len() + tail.len());
    let mut pi = 0;
    let mut ti = 0;
    while ti < tail.len() {
        let (y, mut w) = tail[ti];
        ti += 1;
        while ti < tail.len() && tail[ti].0 == y {
            w = tail[ti].1;
            ti += 1;
        }
        while pi < prefix.len() && prefix[pi].0 < y {
            row.push(prefix[pi]);
            pi += 1;
        }
        if pi < prefix.len() && prefix[pi].0 == y {
            pi += 1;
        }
        row.push((y, w));
    }
    row.extend_from_slice(&prefix[pi..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionBackend, Session};
    use minoan_blocking::builders::token_blocking;
    use minoan_datagen::{generate, profiles};

    fn assert_same(got: &PruneOutcome, want: &PruneOutcome, label: &str) {
        crate::assert_bit_identical(&got.pruned, &want.pruned, label);
    }

    fn ids(n: usize) -> Vec<EntityId> {
        (0..n as u32).map(EntityId).collect()
    }

    const DELTA_SCHEMES: [WeightingScheme; 3] = [
        WeightingScheme::Cbs,
        WeightingScheme::Js,
        WeightingScheme::Arcs,
    ];

    const DELTA_FAMILIES: [Pruning; 5] = [
        Pruning::None,
        Pruning::Wep,
        Pruning::Cep(None),
        Pruning::Wnp { reciprocal: false },
        Pruning::Cnp {
            reciprocal: true,
            k: None,
        },
    ];

    #[test]
    fn delta_outcomes_match_streaming_sessions_per_batch() {
        let world = generate(&profiles::center_dense(90, 13));
        let all = ids(world.dataset.len());
        for mode in [ErMode::CleanClean, ErMode::Dirty] {
            for scheme in DELTA_SCHEMES {
                for pruning in DELTA_FAMILIES {
                    let mut inc = IncrementalSession::new(&world.dataset, mode);
                    inc.scheme(scheme).pruning(pruning).workers(2);
                    for batch in all.chunks(23) {
                        let report = inc.ingest(batch);
                        assert!(report.delta, "supported combo must delta-sweep");
                        let got = inc.outcome();
                        let snap = inc.snapshot();
                        let want = Session::new(snap)
                            .scheme(scheme)
                            .pruning(pruning)
                            .backend(ExecutionBackend::Streaming)
                            .workers(2)
                            .run();
                        assert_same(&got, &want, &format!("{mode:?}/{scheme:?}/{pruning:?}"));
                    }
                }
            }
        }
    }

    #[test]
    fn unsupported_combinations_fall_back_bit_identically() {
        let world = generate(&profiles::center_dense(70, 5));
        let all = ids(world.dataset.len());
        let combos = [
            (WeightingScheme::Ecbs, Pruning::Wnp { reciprocal: false }),
            (WeightingScheme::Ejs, Pruning::Wep),
            (WeightingScheme::Cbs, Pruning::blast()),
        ];
        for (scheme, pruning) in combos {
            let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
            inc.scheme(scheme).pruning(pruning);
            assert!(!inc.supports_delta());
            for batch in all.chunks(31) {
                let report = inc.ingest(batch);
                assert!(!report.delta, "unsupported combo must not claim a delta");
                assert_eq!(report.swept_entities, 0);
                let got = inc.outcome();
                let snap = inc.snapshot();
                let want = Session::new(snap)
                    .scheme(scheme)
                    .pruning(pruning)
                    .backend(ExecutionBackend::Streaming)
                    .run();
                assert_same(&got, &want, &format!("{scheme:?}/{pruning:?}"));
            }
        }
    }

    #[test]
    fn fully_ingested_matches_batch_token_blocking() {
        let world = generate(&profiles::center_dense(80, 5));
        let all = ids(world.dataset.len());
        for mode in [ErMode::CleanClean, ErMode::Dirty] {
            let mut inc = IncrementalSession::new(&world.dataset, mode);
            for batch in all.chunks(16) {
                inc.ingest(batch);
            }
            let got = inc.outcome();
            let blocks = token_blocking(&world.dataset, mode);
            let want = Session::new(&blocks)
                .backend(ExecutionBackend::Materialized)
                .run();
            assert_same(&got, &want, &format!("{mode:?}: merged vs batch"));
        }
    }

    #[test]
    fn scheme_switches_rebuild_the_row_cache_and_stay_correct() {
        let world = generate(&profiles::center_dense(60, 9));
        let all = ids(world.dataset.len());
        let (first, rest) = all.split_at(all.len() / 2);
        let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
        inc.scheme(WeightingScheme::Cbs);
        inc.ingest(first);
        inc.outcome();
        // Switch schemes mid-stream: the next ingest re-seeds the cache
        // with one full sweep, then delta-sweeps resume.
        inc.scheme(WeightingScheme::Js);
        let report = inc.ingest(rest);
        assert!(!report.delta, "first ingest after a switch re-seeds");
        assert_eq!(report.swept_entities, world.dataset.len());
        let report = inc.ingest(&[]);
        assert!(report.delta, "deltas resume after the re-seed");
        let got = inc.outcome();
        let snap = inc.snapshot();
        let want = Session::new(snap)
            .scheme(WeightingScheme::Js)
            .backend(ExecutionBackend::Streaming)
            .run();
        assert_same(&got, &want, "post-switch JS");
    }

    #[test]
    fn small_batches_sweep_a_strict_subset() {
        // The periphery regime has few hot tokens, so a small batch's
        // touched blocks cover only part of the corpus (a center-style
        // world with universal tokens would legitimately dirty everyone).
        let world = generate(&profiles::periphery_sparse(200, 17));
        let all = ids(world.dataset.len());
        let (bulk, tail) = all.split_at(all.len() - 6);
        let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
        inc.scheme(WeightingScheme::Cbs);
        inc.ingest(bulk);
        let report = inc.ingest(tail);
        assert!(report.delta);
        assert!(
            report.swept_entities < report.num_arrived,
            "a small batch must re-sweep strictly fewer entities ({} of {}) than have arrived",
            report.swept_entities,
            report.num_arrived
        );
    }

    #[test]
    fn outcome_before_any_ingest_is_empty() {
        let world = generate(&profiles::center_dense(30, 3));
        let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
        let out = inc.outcome();
        assert!(out.pairs().is_empty());
        assert_eq!(out.input_edges(), 0);
        assert_eq!(
            inc.snapshots_built(),
            0,
            "a delta outcome needs no snapshot"
        );
        assert!(inc.snapshot().is_empty());
        assert_eq!(inc.snapshots_built(), 1);
    }

    #[test]
    fn thread_counts_do_not_change_a_bit() {
        let world = generate(&profiles::center_dense(80, 21));
        let all = ids(world.dataset.len());
        let mut base: Option<PruneOutcome> = None;
        for workers in [1usize, 2, 4, 8] {
            let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
            inc.scheme(WeightingScheme::Js).workers(workers);
            for batch in all.chunks(17) {
                inc.ingest(batch);
            }
            let got = inc.outcome();
            match &base {
                None => base = Some(got),
                Some(b) => assert_same(&got, b, &format!("workers={workers}")),
            }
        }
    }
}
