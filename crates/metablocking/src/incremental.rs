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
//!    entities whose co-occurrences can have changed are re-swept, and
//!    the cached weight rows — theirs, and their neighbours' through
//!    appended *mirror tails* — are patched in place; rows whose weights
//!    only a block-count change moved are marked *stale* instead.
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
//! counts straight from it, and a mirror append is one push per new
//! edge. A cached entry keeps the pair's shared-block count beside its
//! weight, so a weight only a block count moved is re-weighed, not
//! re-swept. A row's buffer never shrinks: re-swept rows are copied into
//! the buffer they had, and every fold merges through one session-owned
//! scratch and copies the result back, so reads between ingests leave
//! the next ingest's appends nothing to reallocate. Everything
//! `O(corpus)` is deferred to the reader that needs it:
//!
//! * a mirror tail is folded into its row's sorted prefix, and a stale
//!   row re-weighed in place through [`weight_from_stats`], when the row
//!   is next *read* — a single [`IncrementalSession::resolve_entity`]
//!   does that for the neighbourhood it loads, nothing else;
//! * the global criteria (WEP's threshold, CEP's top-k, CNP's default
//!   `k`) and [`IncrementalSession::outcome`] walk every row, so they
//!   fold every tail and re-weigh every stale row, once per version, on
//!   first use;
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
//! * **CBS / JS** — no pre-batch pair's shared-block count moves in an
//!   ingest (a block that was not present held no comparable pre-batch
//!   pair; a present block keeps its old pairs' counts), so the **batch
//!   alone** is re-swept and each new edge mirrored into the neighbour's
//!   row. A grown pre-batch `z` changes only through `|B_z|`, which only
//!   JS reads: the ingest walks `z`'s row once, marks it and every
//!   neighbour's row stale, and adds those neighbours to
//!   [`IncrementalSession::last_dirty`].
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
//!     assert_eq!(report.swept_entities, batch.len(), "the batch alone");
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

use crate::kernel::{weight_from_stats, EdgeGlobals, WeightGlobals};
use crate::parallel::JobReport;
use crate::prune::WeightedPair;
use crate::query::{self, ResolvedEntity};
use crate::rule::{
    self, forward_len, Criterion, CriterionFold, Entry, Partial, Row, RowBuf, RowDriver, Rule,
    Weigher,
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
    /// Entities actually re-swept (the batch for CBS/JS, the dirty set
    /// for ARCS; 0 when the combination fell back). JS rows that only a
    /// block-count change moved are marked stale, not re-swept.
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
    /// Per-entity incident-edge cache: `rows[a]` holds the [`Entry`] a
    /// streaming sweep of `a` would produce on the current corpus for
    /// every comparable neighbour `y` of `a` — the entry type every rule
    /// reads — with weights that are current unless `stale[a]` is set.
    /// The first `sorted_len[a]` entries are ascending by `y` and
    /// duplicate-free; anything beyond is an unsorted *mirror tail* of new
    /// edges in arrival order, folded in by [`fold_tail`] before any read.
    /// A row keeps its buffer for the session's life: folds and re-sweeps
    /// write into it and never shrink it.
    rows: Vec<Vec<Entry>>,
    /// Length of each row's sorted duplicate-free prefix.
    sorted_len: Vec<u32>,
    /// Rows whose weights predate an endpoint's block-count change (JS
    /// only): re-weighed from their counts by the next read.
    stale: Vec<bool>,
    /// Every fold merges through this buffer and copies the result back
    /// into the row's own.
    fold_scratch: Vec<Entry>,
    /// Whether `rows` matches the current corpus under the current
    /// scheme. Starts `true`: an empty corpus has all-empty rows.
    rows_valid: bool,
    /// Reusable entity mask for [`mirror_append`] and [`Self::mark_stale`];
    /// all-false between ingests.
    mask: Vec<bool>,
    pool: ScratchPool,
    /// Monotone corpus version: bumped by every ingest.
    version: u64,
    /// Entities whose rows the last ingest changed (the invalidation set
    /// a layered [`NeighbourhoodCache`](crate::NeighbourhoodCache) reads).
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
            stale: vec![false; n],
            fold_scratch: Vec::new(),
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

    /// The entities whose rows the last ingest changed, ascending: its
    /// dirty entities (members of its touched blocks) and, under JS, the
    /// neighbours of each grown pre-batch entity. The invalidation set
    /// for a [`NeighbourhoodCache`](crate::NeighbourhoodCache) layered
    /// over this session (sound only when
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
        let mut delta = self.collection.ingest(batch, threads);
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
            // CBS/JS: no pre-batch pair's shared-block count moves, so
            // the batch alone is re-swept and `mirror_append` carries each
            // new edge into the neighbour's row; under JS the rows a
            // block-count change re-weighed go stale. ARCS reweights every
            // pair of a touched block, so it takes the full dirty set
            // (both endpoints of every changed edge are in it — no mirror).
            let arcs = self.scheme == WeightingScheme::Arcs;
            let targets = if arcs { &delta.dirty[..] } else { batch };
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
                    &mut self.fold_scratch,
                );
            }
            report.swept_entities = targets.len();
            report.delta = true;
            if self.scheme == WeightingScheme::Js {
                self.mark_stale(batch, &delta.grown, &mut delta.dirty);
            }
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

    /// Under JS, marks stale the rows whose weights a block-count change
    /// moved: each grown pre-batch entity `z`'s (every weight in it reads
    /// `|B_z|`) and each of its neighbours' (their edge to `z`). The
    /// batch's rows were just swept on the final counts and stay fresh,
    /// so a preload marks nothing. `dirty` gains the marked entities
    /// outside it and stays ascending: it names every row the ingest
    /// changed.
    fn mark_stale(&mut self, batch: &[EntityId], grown: &[EntityId], dirty: &mut Vec<EntityId>) {
        let (stale, mask) = (&mut self.stale, &mut self.mask);
        let mut swept = batch.to_vec();
        swept.sort_unstable();
        for &d in dirty.iter() {
            mask[d.index()] = true;
        }
        let listed = dirty.len();
        for &z in grown.iter().filter(|z| swept.binary_search(z).is_err()) {
            stale[z.index()] = true;
            for entry in &self.rows[z.index()] {
                let y = entry.y as usize;
                stale[y] = true;
                if !std::mem::replace(&mut mask[y], true) {
                    dirty.push(EntityId(entry.y));
                }
            }
        }
        for &t in batch {
            stale[t.index()] = false;
        }
        for &d in dirty.iter() {
            mask[d.index()] = false;
        }
        // Two ascending runs: the stable sort merges them in one pass.
        dirty[listed..].sort_unstable();
        dirty.sort();
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
        self.stale.fill(false);
        self.rows_valid = true;
    }

    /// The row cache as a [`RowDriver`] (valid rows required).
    fn row_cache(&mut self) -> RowCache<'_> {
        RowCache {
            rows: &mut self.rows,
            sorted_len: &mut self.sorted_len,
            stale: &mut self.stale,
            scratch: &mut self.fold_scratch,
            scheme: self.scheme,
            view: &self.collection,
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
                stale: &mut self.stale,
                scratch: &mut self.fold_scratch,
                scheme: self.scheme,
                view: &self.collection,
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
/// Whoever reads a row first brings it up to date in place: its mirror
/// tail is folded, and a stale row re-weighed. The first resolve after an
/// ingest pays for the neighbourhood it loads, not for every row the
/// ingest touched. An up-to-date row is sorted, duplicate-free and
/// current — the entries and bits a fresh sweep produces — and still sits
/// in its own buffer.
///
/// As a [`RowDriver`] it visits every cached row serially in entity
/// order, exactly as a one-range sweep would, and lends each one to the
/// rule where it lies: the rows already hold what a sweep under the
/// session's scheme would produce. Both passes walk the whole cache and
/// are `O(corpus)` anyway, so they bring every row up to date on the way.
/// A resolve ([`Self::load_row`]) copies the rows it reads.
struct RowCache<'a> {
    rows: &'a mut [Vec<Entry>],
    sorted_len: &'a mut [u32],
    stale: &'a mut [bool],
    scratch: &'a mut Vec<Entry>,
    scheme: WeightingScheme,
    view: &'a IncrementalCollection<'a>,
}

impl RowCache<'_> {
    /// `e`'s row, brought up to date in place: its mirror tail folded and,
    /// if stale, its weights re-weighed.
    fn current(&mut self, e: u32) -> &[Entry] {
        let row = &mut self.rows[e as usize];
        fold_tail(row, &mut self.sorted_len[e as usize], self.scratch);
        if std::mem::take(&mut self.stale[e as usize]) {
            reweigh(self.scheme, e, row, self.view);
        }
        row
    }

    /// Copies `e`'s up-to-date row into `out`.
    fn load_row(&mut self, e: u32, out: &mut RowBuf) {
        out.clear();
        out.entries.extend_from_slice(self.current(e));
    }

    /// Puts every non-empty row through `f`, in entity order, brought up
    /// to date and lent where it lies.
    fn for_each_row(&mut self, mut f: impl FnMut(Row<'_>)) {
        for a in 0..self.rows.len() as u32 {
            let entries = self.current(a);
            if !entries.is_empty() {
                f(Row {
                    a,
                    entries,
                    features: &[],
                });
            }
        }
    }
}

impl RowDriver for RowCache<'_> {
    fn num_entities(&self) -> usize {
        self.rows.len()
    }

    fn total_assignments(&self) -> u64 {
        self.view.total_assignments()
    }

    fn active_nodes(&mut self) -> usize {
        // A mirror tail only ever holds real edges, so emptiness needs no
        // folding.
        self.rows.iter().filter(|r| !r.is_empty()).count()
    }

    fn num_edges(&mut self) -> usize {
        let mut edges = 0u64;
        self.for_each_row(|row| edges += forward_len(row.a, row.entries, |e| e.y));
        edges as usize
    }

    fn reduce(&mut self, _weigher: Weigher, fold: &CriterionFold) -> (Partial, u64) {
        let mut share = fold.init();
        let mut forward = 0u64;
        self.for_each_row(|row| {
            forward += forward_len(row.a, row.entries, |e| e.y);
            fold.fold(&mut share, row);
        });
        (share, forward)
    }

    fn keep(&mut self, _weigher: Weigher, rule: Rule<'_>) -> (Vec<WeightedPair>, u64) {
        let mut kept = Vec::new();
        let mut forward = 0u64;
        self.for_each_row(|row| {
            forward += forward_len(row.a, row.entries, |e| e.y);
            rule.contribute(row, &mut kept);
        });
        (kept, forward)
    }
}

/// Re-weighs `a`'s row from the shared-block counts its entries carry
/// and `globals`' block counts: the kernel call a sweep of `a` makes,
/// endpoints in normalised order, so every weight carries a fresh
/// sweep's bits — under any scheme that reads no more than those counts
/// (CBS, JS, ECBS; the session re-weighs JS rows only).
fn reweigh<G: EdgeGlobals>(scheme: WeightingScheme, a: u32, row: &mut [Entry], globals: &G) {
    let num_blocks = globals.num_blocks();
    for entry in row {
        let (lo, hi) = (a.min(entry.y), a.max(entry.y));
        let (blocks_lo, blocks_hi) = (globals.blocks_of(lo), globals.blocks_of(hi));
        entry.w = weight_from_stats(
            scheme, entry.cbs, 0.0, blocks_lo, blocks_hi, num_blocks, 0, 0, 0,
        );
    }
}

/// Re-sweeps `targets` on `view` and installs their fresh rows —
/// cost-balanced over the shared scoped-thread driver when `threads > 1`
/// (one inline range otherwise, with no cost pass), scratches from
/// `pool`. Each range copies its rows, as the weigher filled them, into
/// one flat slab, and every row is copied from it into its existing
/// buffer, which it reuses whenever the new row fits. Row contents never
/// depend on the partitioning: each row is one entity's serial sweep.
/// The view's own block counts serve as the weight globals — the delta
/// schemes read nothing beyond them.
fn resweep_rows<V: BlockView + Sync>(
    scheme: WeightingScheme,
    pool: &ScratchPool,
    rows: &mut [Vec<Entry>],
    sorted_len: &mut [u32],
    view: &V,
    targets: &[EntityId],
    threads: usize,
) {
    let ranges = if threads > 1 {
        let costs: Vec<u64> = targets.iter().map(|&e| view.sweep_cost(e)).collect();
        partition_by_cost(&costs, threads)
    } else {
        std::iter::once(0..targets.len()).collect()
    };
    let weigher = Weigher::Scheme(scheme);
    // Per range: the rows back to back, and where each one ends.
    let slabs = for_each_range(&ranges, pool, |range, scratch| {
        let mut buf = RowBuf::default();
        let mut entries = Vec::new();
        let mut ends = Vec::with_capacity(range.len());
        for &e in &targets[range] {
            scratch.sweep(view, e, Direction::Both);
            weigher.fill(scratch, e.0, view, &mut buf);
            entries.extend_from_slice(&buf.entries);
            ends.push(entries.len());
        }
        (entries, ends)
    });
    let mut targets = targets.iter();
    for (entries, ends) in &slabs {
        let mut start = 0;
        for (&end, &e) in ends.iter().zip(&mut targets) {
            let row = &mut rows[e.index()];
            row.clear();
            row.extend_from_slice(&entries[start..end]);
            sorted_len[e.index()] = row.len() as u32;
            start = end;
        }
    }
}

/// Carries the freshly swept `(target, neighbour)` edges into the rows
/// of neighbours that were *not* re-swept themselves: every entry
/// `(y, |B_ty|, w)` of a target's fresh row with `y` outside the target
/// set is **appended** to `rows[y]`'s mirror tail as `(t, |B_ty|, w)` —
/// one push per new edge, into a buffer that never shrinks, so a row that
/// was read and folded still has room for the next ingest's tail. Nothing
/// sorted is rebuilt here: tails fold into the sorted prefix lazily at the
/// next read ([`fold_tail`]), or eagerly once a tail outgrows its prefix
/// (and 64 entries), which amortises the folds to O(1) per append. Every
/// fold goes through the session's `scratch`. (Both eager alternatives
/// are quadratic per stream on dense neighbourhoods: per-edge
/// `Vec::insert` memmoves the tail once per new edge, and a per-batch
/// sorted merge rebuilds every mirror-receiving row once per batch.)
///
/// The targets are the batch, which had no edge before this ingest, so
/// a tail never repeats an edge of its own or of the prefix. The count
/// and the weight bits are endpoint-symmetric by construction: JS
/// normalises the endpoint block counts lo/hi before the one division,
/// so `y`'s own sweep would produce the identical f64.
/// `mask` is a reusable all-false scratch; it is restored before return.
fn mirror_append(
    rows: &mut [Vec<Entry>],
    sorted_len: &mut [u32],
    targets: &[EntityId],
    mask: &mut [bool],
    scratch: &mut Vec<Entry>,
) {
    for &t in targets {
        mask[t.index()] = true;
    }
    for &t in targets {
        let row = std::mem::take(&mut rows[t.index()]);
        for entry in &row {
            let y = entry.y as usize;
            if mask[y] {
                continue;
            }
            let mirror = &mut rows[y];
            mirror.push(Entry { y: t.0, ..*entry });
            let sorted = &mut sorted_len[y];
            if mirror.len() - *sorted as usize >= (*sorted as usize).max(64) {
                fold_tail(mirror, sorted, scratch);
            }
        }
        rows[t.index()] = row;
    }
    for &t in targets {
        mask[t.index()] = false;
    }
}

/// Folds `row`'s mirror tail (`row[sorted..]`, append order), if it has
/// one, into its sorted duplicate-free prefix and records the row as
/// fully sorted. A tail holds only new edges ([`mirror_append`]), so it
/// is sorted by neighbour id and merged with the prefix, nothing
/// replaced. The prefix below the tail's smallest id stays where it is;
/// the rest is merged into `scratch` and copied back, so the row keeps
/// its buffer.
fn fold_tail(row: &mut Vec<Entry>, sorted: &mut u32, scratch: &mut Vec<Entry>) {
    let (prefix, tail) = row.split_at_mut(*sorted as usize);
    if tail.is_empty() {
        return;
    }
    tail.sort_unstable_by_key(|e| e.y);
    let start = prefix.partition_point(|e| e.y < tail[0].y);
    let mut pi = start;
    scratch.clear();
    for &entry in tail.iter() {
        while pi < prefix.len() && prefix[pi].y < entry.y {
            scratch.push(prefix[pi]);
            pi += 1;
        }
        scratch.push(entry);
    }
    scratch.extend_from_slice(&prefix[pi..]);
    let ascending = scratch.windows(2).all(|w| w[0].y < w[1].y);
    debug_assert!(ascending, "a mirror tail holds only new edges");
    row.truncate(start);
    row.extend_from_slice(scratch);
    *sorted = row.len() as u32;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionBackend, Session};
    use minoan_blocking::builders::token_blocking;
    use minoan_datagen::{generate, profiles, ArrivalOrder};

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
                        if scheme != WeightingScheme::Arcs {
                            assert_eq!(report.swept_entities, batch.len(), "the batch alone");
                        }
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
            let want = Session::new(&blocks).run();
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
        for scheme in [WeightingScheme::Cbs, WeightingScheme::Js] {
            let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
            inc.scheme(scheme);
            inc.ingest(bulk);
            let report = inc.ingest(tail);
            assert!(report.delta);
            assert_eq!(report.swept_entities, tail.len(), "{scheme:?}");
            assert!(
                report.swept_entities < report.num_arrived,
                "{scheme:?}: a small batch must re-sweep strictly fewer entities ({} of {}) \
                 than have arrived",
                report.swept_entities,
                report.num_arrived
            );
        }
    }

    /// `a`'s row as a sweep of the live slabs builds it now, under
    /// `scheme`.
    fn fresh_row(inc: &IncrementalSession, scheme: WeightingScheme, a: usize) -> Vec<Entry> {
        let n = inc.rows.len();
        let (mut rows, mut sorted_len) = (vec![Vec::new(); n], vec![0; n]);
        let target = [EntityId(a as u32)];
        resweep_rows(
            scheme,
            &inc.pool,
            &mut rows,
            &mut sorted_len,
            &inc.collection,
            &target,
            1,
        );
        std::mem::take(&mut rows[a])
    }

    /// A JS stream in small batches with no read between ingests, so
    /// stale rows and mirror tails pile up over several ingests: every
    /// stale row, folded and re-weighed from its counts, equals a fresh
    /// sweep's row bit for bit. The counts it carries re-weigh to a fresh
    /// ECBS row as well — a scheme whose product rounds differently when
    /// the endpoints are taken out of order.
    #[test]
    fn a_reweighed_stale_row_equals_a_fresh_sweep() {
        let world = generate(&profiles::periphery_sparse(240, 29));
        let batches = ArrivalOrder::Shuffled { seed: 5 }.batches(&world.dataset, &world.truth, 9);
        let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
        inc.scheme(WeightingScheme::Js).pruning(Pruning::None);
        let (preload, stream) = batches.split_at(batches.len() / 2);
        inc.ingest(&preload.concat());
        let mut checked = 0;
        for batch in stream {
            inc.ingest(batch);
            for a in 0..inc.rows.len() {
                if !inc.stale[a] {
                    continue;
                }
                let mut row = inc.rows[a].clone();
                let mut sorted = inc.sorted_len[a];
                fold_tail(&mut row, &mut sorted, &mut Vec::new());
                for scheme in [WeightingScheme::Js, WeightingScheme::Ecbs] {
                    reweigh(scheme, a as u32, &mut row, &inc.collection);
                    let want = fresh_row(&inc, scheme, a);
                    assert_eq!(bits(&row), bits(&want), "{scheme:?} row {a}");
                }
                checked += 1;
            }
        }
        assert!(checked > 100, "only {checked} stale rows seen");
    }

    /// Around every ingest of a stream (all rows read in between), a row
    /// is stale exactly when it was not re-swept and an endpoint of one
    /// of its pre-batch edges — the row's own entity or a neighbour —
    /// gained a block. Under CBS and ARCS no row ever goes stale.
    #[test]
    fn a_row_goes_stale_exactly_when_an_endpoint_count_moved() {
        let world = generate(&profiles::periphery_sparse(240, 31));
        let batches = ArrivalOrder::Shuffled { seed: 9 }.batches(&world.dataset, &world.truth, 7);
        for scheme in DELTA_SCHEMES {
            let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
            inc.scheme(scheme).pruning(Pruning::None);
            let mut marked = 0;
            for batch in &batches {
                inc.outcome();
                let counts: Vec<u32> = (0..inc.rows.len() as u32)
                    .map(|e| inc.collection.entity_block_count(EntityId(e)))
                    .collect();
                let before: Vec<bool> = (0..inc.rows.len())
                    .map(|e| inc.has_arrived(EntityId(e as u32)))
                    .collect();
                inc.ingest(batch);
                let moved =
                    |e: u32| inc.collection.entity_block_count(EntityId(e)) != counts[e as usize];
                for a in 0..inc.rows.len() {
                    let reswept = batch.contains(&EntityId(a as u32));
                    let want = scheme == WeightingScheme::Js
                        && !reswept
                        && (moved(a as u32)
                            || inc.rows[a]
                                .iter()
                                .any(|e| before[e.y as usize] && moved(e.y)));
                    assert_eq!(inc.stale[a], want, "{scheme:?}: row {a}");
                    marked += usize::from(want);
                }
            }
            if scheme == WeightingScheme::Js {
                assert!(marked > 100, "only {marked} rows went stale");
            }
        }
    }

    /// `(neighbour, |B_ay|)` of every edge of `a` in `blocks` in
    /// `direction`, ascending: `a`'s blocks, counted per comparable
    /// co-member.
    fn true_counts(blocks: &BlockCollection, a: u32, direction: Direction) -> Vec<(u32, u32)> {
        let a = EntityId(a);
        let mut counts = std::collections::BTreeMap::new();
        for &b in blocks.entity_blocks(a) {
            for &y in blocks.block_entities(b) {
                let ahead = matches!(direction, Direction::Both) || y > a;
                if y != a && ahead && blocks.comparable(a, y) {
                    *counts.entry(y.0).or_insert(0) += 1;
                }
            }
        }
        counts.into_iter().collect()
    }

    /// `(neighbour, count)` of `entries`, ascending whatever their order.
    fn counts(entries: &[Entry]) -> Vec<(u32, u32)> {
        let mut counts: Vec<_> = entries.iter().map(|e| (e.y, e.cbs)).collect();
        counts.sort_unstable();
        counts
    }

    /// Every entry any driver produces carries its edge's shared-block
    /// count, as the snapshot's blocks count it: a sweep's row filled by
    /// every weigher in both directions, a query-time load, and every
    /// cached row of a session — mirror tails and stale rows included —
    /// after each batched CBS, JS and ARCS ingest.
    #[test]
    fn every_drivers_entry_carries_the_edges_true_count() {
        let world = generate(&profiles::periphery_sparse(240, 37));
        let batches = ArrivalOrder::Shuffled { seed: 13 }.batches(&world.dataset, &world.truth, 19);
        for scheme in DELTA_SCHEMES {
            let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
            inc.scheme(scheme).pruning(Pruning::None);
            for (i, batch) in batches.iter().enumerate() {
                inc.ingest(batch);
                let snapshot = inc.snapshot();
                let want = |a: usize| true_counts(snapshot, a as u32, Direction::Both);
                let wants: Vec<_> = (0..snapshot.num_entities()).map(want).collect();
                for (a, row) in inc.rows.iter().enumerate() {
                    assert_eq!(counts(row), wants[a], "{scheme:?}, ingest {i}: row {a}");
                }
            }
        }
        let blocks = token_blocking(&world.dataset, ErMode::CleanClean);
        let mut st = SweepState::new(&blocks);
        st.ensure(true, 1);
        let (globals, pool) = (st.globals(), &st.pool);
        let weighers = [Weigher::Scheme(WeightingScheme::Js), Weigher::Chi2];
        let mut buf = RowBuf::default();
        for a in 0..blocks.num_entities() as u32 {
            let want = |direction| true_counts(&blocks, a, direction);
            pool.with(|scratch| {
                for direction in [Direction::Forward, Direction::Both] {
                    scratch.sweep(&blocks, EntityId(a), direction);
                    for weigher in weighers {
                        weigher.fill(scratch, a, globals, &mut buf);
                        assert_eq!(counts(&buf.entries), want(direction), "fill, row {a}");
                    }
                }
                // Feature rows come from forward sweeps only.
                scratch.sweep(&blocks, EntityId(a), Direction::Forward);
                Weigher::Features.fill(scratch, a, globals, &mut buf);
                assert_eq!(counts(&buf.entries), want(Direction::Forward), "row {a}");
            });
            for weigher in weighers.into_iter().chain([Weigher::Features]) {
                query::sweep_row(&blocks, globals, pool, weigher, a, &mut buf);
                assert_eq!(counts(&buf.entries), want(Direction::Both), "load, row {a}");
            }
        }
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

    /// The fold's definition, as it stood before folds kept the row's
    /// buffer: split the tail off, stable-sort it by id, keep the latest
    /// append of each id, and merge it with the prefix into a fresh
    /// buffer — later entries overwriting earlier ones.
    fn normalize_row(row: &mut Vec<Entry>, sorted: usize) {
        let mut tail = row.split_off(sorted);
        tail.sort_by_key(|e| e.y);
        let prefix = std::mem::take(row);
        row.reserve(prefix.len() + tail.len());
        let mut pi = 0;
        let mut ti = 0;
        while ti < tail.len() {
            let mut entry = tail[ti];
            ti += 1;
            while ti < tail.len() && tail[ti].y == entry.y {
                entry = tail[ti];
                ti += 1;
            }
            while pi < prefix.len() && prefix[pi].y < entry.y {
                row.push(prefix[pi]);
                pi += 1;
            }
            if pi < prefix.len() && prefix[pi].y == entry.y {
                pi += 1;
            }
            row.push(entry);
        }
        row.extend_from_slice(&prefix[pi..]);
    }

    fn bits(row: &[Entry]) -> Vec<(u32, u32, u64)> {
        row.iter().map(|e| (e.y, e.cbs, e.w.to_bits())).collect()
    }

    /// An entry whose count and weight are both drawn from one counter, so
    /// a misplaced or mixed-up entry cannot compare equal.
    fn entry(y: u32, serial: u32) -> Entry {
        Entry {
            y,
            cbs: serial,
            w: f64::from(serial) / 1024.0,
        }
    }

    /// A deterministic stream of small numbers for the fold properties.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n.max(1)
        }

        fn shuffle(&mut self, items: &mut [u32]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i as u64 + 1) as usize);
            }
        }
    }

    /// Between ingests a resolve folds the rows it loads and nothing else,
    /// so reads leave a mix of folded rows and rows with tails — the state
    /// `tests/incremental_delta.rs`'s reads-between-ingests case feeds to
    /// the next ingest.
    #[test]
    fn a_resolve_folds_only_the_rows_it_loads() {
        let world = generate(&profiles::periphery_sparse(240, 41));
        let batches = ArrivalOrder::Shuffled { seed: 23 }.batches(&world.dataset, &world.truth, 47);
        let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
        inc.scheme(WeightingScheme::Js).pruning(Pruning::None);
        inc.ingest(&batches[0]);
        inc.ingest(&batches[1]);
        let tailed = |inc: &IncrementalSession| -> Vec<usize> {
            let rows = inc.rows.iter().zip(&inc.sorted_len).enumerate();
            rows.filter(|(_, (row, &sorted))| (sorted as usize) < row.len())
                .map(|(e, _)| e)
                .collect()
        };
        let before = tailed(&inc);
        assert!(before.len() > 1, "an ingest leaves tails: {before:?}");
        inc.resolve_entity(EntityId(before[0] as u32));
        assert_eq!(
            tailed(&inc),
            before[1..],
            "an unpruned resolve loads one row"
        );
    }

    #[test]
    fn a_fold_keeps_the_rows_buffer() {
        let mut row = Vec::with_capacity(32);
        row.extend([entry(2, 1), entry(5, 2), entry(9, 3)]);
        row.extend([entry(7, 4), entry(12, 5), entry(1, 6), entry(6, 7)]);
        let (ptr, capacity) = (row.as_ptr(), row.capacity());
        let mut sorted = 3;
        fold_tail(&mut row, &mut sorted, &mut Vec::new());
        let want = [(1, 6), (2, 1), (5, 2), (6, 7), (7, 4), (9, 3), (12, 5)];
        assert_eq!(row, want.map(|(y, serial)| entry(y, serial)), "one merge");
        assert_eq!(sorted as usize, row.len());
        assert_eq!(row.as_ptr(), ptr, "the fold moved the row");
        assert_eq!(row.capacity(), capacity, "the fold shrank the row");
    }

    /// Only new edges are ever appended, so a tail that repeats one — of
    /// its own, or of the prefix — is a broken invariant, not a weight
    /// update to replay.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a mirror tail holds only new edges")]
    fn a_fold_rejects_a_repeated_edge() {
        let mut row = vec![entry(2, 1), entry(5, 2), entry(9, 3), entry(5, 4)];
        fold_tail(&mut row, &mut 3, &mut Vec::new());
    }

    /// Re-sweeping every entity into rows that already have room for any
    /// row installs each one in the buffer it had, with the same contents
    /// at one range as at three.
    #[test]
    fn an_install_that_fits_keeps_the_rows_buffer() {
        let world = generate(&profiles::center_dense(40, 3));
        let blocks = token_blocking(&world.dataset, ErMode::CleanClean);
        let n = world.dataset.len();
        let pool = ScratchPool::new(n);
        let mut base: Option<Vec<Vec<(u32, u32, u64)>>> = None;
        for threads in [1, 3] {
            let mut rows: Vec<Vec<Entry>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
            let mut sorted_len = vec![0; n];
            let before: Vec<_> = rows.iter().map(|r| (r.as_ptr(), r.capacity())).collect();
            resweep_rows(
                WeightingScheme::Js,
                &pool,
                &mut rows,
                &mut sorted_len,
                &blocks,
                &ids(n),
                threads,
            );
            for (e, row) in rows.iter().enumerate() {
                assert_eq!((row.as_ptr(), row.capacity()), before[e], "row {e}");
                assert_eq!(sorted_len[e] as usize, row.len());
            }
            let rows: Vec<_> = rows.iter().map(|r| bits(r)).collect();
            assert!(rows.iter().any(|r| !r.is_empty()));
            match &base {
                None => base = Some(rows),
                Some(b) => assert_eq!(b, &rows, "threads={threads}"),
            }
        }
    }

    /// The fold against its old definition on every shape a tail of new
    /// edges takes: ids anywhere around the prefix, ids all inside the
    /// prefix's range (interleaved with it), empty prefixes and empty
    /// tails, through one scratch reused across cases.
    #[test]
    fn the_fold_equals_the_old_definition() {
        let mut draws = Draws(26);
        let mut scratch = Vec::new();
        let mut serial = 0;
        let mut next = |y| {
            serial += 1;
            entry(y, serial)
        };
        for case in 0..600 {
            let span = 1 + draws.below(80) as u32;
            let mut prefix: Vec<u32> = (0..span).filter(|_| draws.below(2) == 0).collect();
            if case % 5 == 0 {
                prefix.clear();
            }
            let limit = match prefix.last() {
                Some(&last) if case % 5 == 2 => last,
                _ => span + 20,
            };
            let mut free: Vec<u32> = (0..limit)
                .filter(|y| prefix.binary_search(y).is_err())
                .collect();
            draws.shuffle(&mut free);
            let tail_len = if case % 5 == 1 {
                0
            } else {
                draws.below(free.len() as u64 + 1) as usize
            };
            let mut row: Vec<Entry> = prefix.iter().map(|&y| next(y)).collect();
            row.extend(free[..tail_len].iter().map(|&y| next(y)));
            let mut want = row.clone();
            normalize_row(&mut want, prefix.len());
            let (ptr, capacity) = (row.as_ptr(), row.capacity());
            let mut sorted = prefix.len() as u32;
            fold_tail(&mut row, &mut sorted, &mut scratch);
            assert_eq!(bits(&row), bits(&want), "case {case}");
            assert_eq!(sorted as usize, row.len(), "case {case}");
            assert_eq!(
                (row.as_ptr(), row.capacity()),
                (ptr, capacity),
                "case {case}"
            );
        }
    }

    /// `mirror_append` folds a row exactly when its tail reaches
    /// `max(sorted, 64)` entries, and whatever it folded on the way, the
    /// row ends equal to the old definition applied once to the whole
    /// append log — counts carried beside the weights.
    #[test]
    fn mirror_appends_fold_eagerly_at_the_threshold() {
        let n = 1_400;
        let mut draws = Draws(64);
        let mut scratch = Vec::new();
        let mut mask = vec![false; n];
        for prefix_len in [0u32, 20, 100] {
            let mut rows = vec![Vec::new(); n];
            let mut sorted_len = vec![0u32; n];
            rows[0] = (1..=prefix_len).map(|i| entry(2 * i, i)).collect();
            sorted_len[0] = prefix_len;
            let mut log = rows[0].clone();
            // Every target is a new edge of row 0; the odd ones fall
            // between the prefix's (even) ids. Without repeats a tail
            // only ever grows, so the folds come at geometric intervals:
            // a thousand appends fold at least three times.
            let mut targets: Vec<u32> = (1..n as u32)
                .filter(|&t| t % 2 == 1 || t > 2 * prefix_len)
                .collect();
            draws.shuffle(&mut targets);
            let mut folds = 0;
            for (i, &t) in targets[..1_000].iter().enumerate() {
                let appended = entry(t, 10_000 + i as u32);
                rows[t as usize] = vec![Entry { y: 0, ..appended }];
                log.push(appended);
                let (sorted, tail) = (sorted_len[0], rows[0].len() as u32 - sorted_len[0]);
                mirror_append(
                    &mut rows,
                    &mut sorted_len,
                    &[EntityId(t)],
                    &mut mask,
                    &mut scratch,
                );
                if tail + 1 >= sorted.max(64) {
                    assert_eq!(sorted_len[0] as usize, rows[0].len(), "append {i}");
                    folds += 1;
                } else {
                    assert_eq!(sorted_len[0], sorted, "append {i} folded early");
                }
            }
            assert!(folds >= 3, "prefix {prefix_len}: {folds} eager folds");
            let mut sorted = sorted_len[0];
            fold_tail(&mut rows[0], &mut sorted, &mut scratch);
            normalize_row(&mut log, prefix_len as usize);
            assert_eq!(bits(&rows[0]), bits(&log), "prefix {prefix_len}");
            assert!(mask.iter().all(|&m| !m), "mask restored");
        }
    }
}
