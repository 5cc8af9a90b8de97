//! Delta-sweep incremental meta-blocking: an *updatable* session over
//! the live block slabs.
//!
//! [`Session`](crate::Session) answers "prune this finished collection";
//! an [`IncrementalSession`] answers the pay-as-you-go question the paper
//! poses for Web-scale ER: descriptions *arrive*, and the pruned
//! comparison set must stay current at a cost that follows the batch,
//! not the corpus. Each [`IncrementalSession::ingest`] call
//!
//! 1. delta-appends the batch's key runs into the
//!    [`IncrementalCollection`] slabs — runs read off the universe's
//!    value-token [`Corpus`] the session was built from, so an ingest
//!    tokenises, interns and string-sorts nothing,
//! 2. takes the resulting *dirty sets* — the touched blocks, their
//!    members, and the entities whose block lists grew,
//! 3. runs a **delta-sweep** directly on those live slabs (through
//!    [`BlockView`]; no [`BlockCollection`] is materialised): only the
//!    entities whose co-occurrences can have changed are re-swept, and
//!    the cached rows — theirs, and their neighbours' through appended
//!    *mirror tails* — are patched in place.
//!
//! [`IncrementalSession::outcome`] then runs the pruning family's rules
//! (the crate-internal `rule` module — the same definitions every backend
//! executes) over the cached rows, serially in entity order, and the
//! [`PruneOutcome`] is **bit-identical** to a from-scratch
//! [`Session`](crate::Session) run on the merged corpus — same pair
//! order, same f64 weight bits, for every weighting scheme and pruning
//! family, arrival order, batch size and thread count (enforced by
//! `tests/incremental_delta.rs`).
//!
//! # What a row keeps, and what is recomputed on read
//!
//! The row of entity `a` holds an entry per comparable neighbour `y`: the
//! pair's shared-block count `|B_ay|` and the statistic the pruning
//! family decides on. What an ingest re-sweeps follows from what that
//! statistic reads:
//!
//! * **ARCS sums** (ARCS, and the supervised pruner, whose features are
//!   built on them): a touched block reweights *every* pair inside it, so
//!   the whole dirty set is re-swept, which covers both endpoints of
//!   every changed edge with no mirror pass. The live slabs list an
//!   entity's blocks in key-string order — a snapshot's block-id order —
//!   so the sums accumulate in the order a from-scratch sweep uses.
//! * **Everything else** is a function of `|B_ay|` and global counts. No
//!   pre-batch pair's shared-block count moves in an ingest (a block that
//!   was not present held no comparable pre-batch pair; a present block
//!   keeps its old pairs' counts), so the **batch alone** is re-swept and
//!   each new edge mirrored into the neighbour's row.
//!
//! The counts a weight reads besides `|B_ay|` are recomputed when the row
//! is read:
//!
//! * **JS** reads the endpoints' block counts. The ingest walks each
//!   grown pre-batch `z`'s row once and marks it and every neighbour's
//!   row stale.
//! * **ECBS** and BLAST's **χ²** read `|B|`, and **EJS** the node degrees
//!   and `|V|`, which nearly every arrival moves: such a row is re-weighed
//!   on its first read at each version. A degree is the length of the
//!   entity's row (a mirror tail holds only new edges), and `|V|` is half
//!   their sum, kept as rows grow.
//! * The **supervised** features are computed from the count, the ARCS
//!   sum and those globals on every read, in `(lo, hi)` order.
//!
//! # Who pays for the rest
//!
//! An ingest costs what its re-swept rows and mirror appends cost; the
//! collection refreshes its counts for the touched keys and grown
//! entities only. Everything `O(corpus)` is deferred to the reader that
//! needs it:
//!
//! * a mirror tail is folded into its row's sorted prefix, and a stale
//!   row re-weighed in place, when the row is next *read* — a single
//!   [`IncrementalSession::resolve_entity`] does that for the
//!   neighbourhood it reads, nothing else;
//! * a node-centric family's vote (WNP's mean, BLAST's bar, CNP's top-k)
//!   is drawn from a row, where it lies, by the first resolve that needs
//!   it after an ingest or a scheme or pruning switch, and memoised for
//!   every later resolve until the next one: a cold resolve copies its own
//!   row and reads its neighbours' votes, not their rows. The memo is
//!   dropped whole, also for rows the ingest did not touch (CNP's
//!   default `k` is global);
//! * the global criteria (WEP's threshold, CEP's top-k, CNP's default
//!   `k`, the supervised feature maxima) and
//!   [`IncrementalSession::outcome`] walk every row, once per version, on
//!   first use.
//!
//! No path builds a [`BlockCollection`]; [`IncrementalSession::snapshot`]
//! builds one when asked.
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
//!     .scheme(WeightingScheme::Ecbs)
//!     .pruning(Pruning::Wnp { reciprocal: false });
//!
//! let ids: Vec<EntityId> = (0..g.dataset.len() as u32).map(EntityId).collect();
//! for batch in ids.chunks(16) {
//!     let report = session.ingest(batch);
//!     assert!(report.delta, "ECBS × WNP delta-sweeps");
//!     assert_eq!(report.swept_entities, batch.len(), "the batch alone");
//!     session.resolve_entity(batch[0]);
//! }
//! let outcome = session.outcome();
//! assert!(outcome.pairs().len() <= outcome.input_edges());
//!
//! // A resolve answers the outcome's pairs incident to the entity.
//! let e = EntityId(7);
//! let incident = outcome.pairs().iter().filter(|p| p.a == e || p.b == e);
//! let incident: Vec<_> = incident.copied().collect();
//! assert_eq!(session.resolve_entity(e).matches, incident);
//!
//! // The merged corpus, built on request, prunes the same.
//! let from_scratch = Session::new(&session.snapshot())
//!     .scheme(WeightingScheme::Ecbs)
//!     .pruning(Pruning::Wnp { reciprocal: false })
//!     .run();
//! assert_eq!(from_scratch.pairs(), outcome.pairs());
//! ```

use crate::kernel::EdgeGlobals;
use crate::parallel::JobReport;
use crate::prune::WeightedPair;
use crate::query::{self, ResolvedEntity};
use crate::rule::{
    self, forward_len, Ballot, Criterion, CriterionFold, Entry, Partial, Row, RowBuf, RowDriver,
    Rule, Weigher,
};
use crate::session::{PruneOutcome, Pruning};
use crate::supervised::{self, NUM_FEATURES};
use crate::sweep::{for_each_range, partition_by_cost, ScratchPool};
use crate::weights::WeightingScheme;
use minoan_blocking::builders::TokenKeys;
use minoan_blocking::{
    BlockCollection, BlockView, Corpus, Direction, ErMode, IncrementalCollection,
};
use minoan_common::default_threads;
use minoan_rdf::{Dataset, EntityId};
use std::sync::Arc;

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
    /// Entities actually re-swept: the dirty set when the rows hold ARCS
    /// sums (ARCS, supervised), the batch otherwise, every entity on a
    /// re-seed. Rows whose weights only a block-count change moved are
    /// re-weighed on read, not re-swept.
    pub swept_entities: usize,
    /// Total entities arrived so far, this batch included.
    pub num_arrived: usize,
    /// Whether the rows were patched by a delta-sweep; `false` only for
    /// the full sweep that re-seeds them after a switch of the statistic
    /// they hold (a scheme switch, or one to or from BLAST or the
    /// supervised pruner).
    pub delta: bool,
}

/// An updatable meta-blocking session: ingest description batches,
/// delta-sweep only the affected entities, and read a [`PruneOutcome`]
/// bit-identical to a from-scratch run at any point. See the
/// [module docs](self) for what each ingest re-sweeps and an example.
pub struct IncrementalSession<'d> {
    collection: IncrementalCollection<'d>,
    scheme: WeightingScheme,
    pruning: Pruning,
    workers: Option<usize>,
    rows: Rows,
    /// Every fold merges through this buffer and copies the result back
    /// into the row's own.
    fold_scratch: Vec<Entry>,
    /// The resolved entity's row, copied out of the cache so that its
    /// neighbours' votes can be drawn while it is read.
    own_row: RowBuf,
    /// The answer being collected and ordered; a resolve hands out a copy
    /// at its final length.
    kept: Vec<WeightedPair>,
    /// Each row's node-centric vote, memoised for one generation.
    votes: Votes,
    /// The supervised features of the row being read.
    features: Vec<[f64; NUM_FEATURES]>,
    /// Whether `rows` hold the current statistic for the current corpus.
    /// Starts `true`: an empty corpus has all-empty rows.
    rows_valid: bool,
    /// Reusable entity mask for [`mirror_append`]; all-false between
    /// ingests.
    mask: Vec<bool>,
    pool: ScratchPool,
    /// Monotone corpus version: bumped by every ingest.
    version: u64,
    /// Query-time criterion of the current `(version, scheme, pruning)`
    /// triple: dropped by every ingest and by every scheme or pruning
    /// switch, rebuilt by the next resolve.
    criterion: Option<Criterion>,
}

/// The rows' node-centric votes. At one generation a row's [`Ballot`] is
/// a function of that row alone, so a resolve draws it once and every
/// later resolve that reaches the row as a neighbour reads it here.
struct Votes {
    /// Bumped by every ingest and every scheme or pruning switch — the
    /// points where the criterion is dropped.
    generation: u64,
    /// `memo[a]`: the generation `a`'s ballot was drawn at, and the
    /// ballot. Generation 0 is never current.
    memo: Vec<(u64, Ballot)>,
}

impl Votes {
    fn new(n: usize) -> Self {
        Self {
            generation: 1,
            memo: vec![(0, Ballot::AtLeast(0.0)); n],
        }
    }
}

/// The per-entity incident-edge cache: `entries[a]` holds the [`Entry`]
/// a sweep of `a` would produce on the current corpus for every comparable
/// neighbour `y` of `a` — the entry type every rule reads — with the
/// statistic current unless [`stale`] says otherwise.
struct Rows {
    /// The first `sorted_len[a]` entries are ascending by `y` and
    /// duplicate-free; anything beyond is an unsorted *mirror tail* of new
    /// edges in arrival order, folded in by [`fold_tail`] before any read.
    /// A row keeps its buffer for the session's life: folds and re-sweeps
    /// write into it and never shrink it.
    entries: Vec<Vec<Entry>>,
    /// Length of each row's sorted duplicate-free prefix.
    sorted_len: Vec<u32>,
    /// The version each row was last weighed at; 0 for a JS row a
    /// block-count change marked, and for a row swept under a statistic
    /// that is re-weighed at every version.
    weighed: Vec<u64>,
    /// Σ row lengths: every edge counted at both endpoints, 2·|V|.
    degree_sum: u64,
}

impl Rows {
    /// `n` empty rows.
    fn new(n: usize) -> Self {
        Self {
            entries: vec![Vec::new(); n],
            sorted_len: vec![0; n],
            weighed: vec![0; n],
            degree_sum: 0,
        }
    }
}

/// Whether every ingest makes rows of `weigher` stale: ECBS and χ² read
/// `|B|`, EJS the degrees and `|V|` — the schemes that are not delta-local
/// (`weights.rs`), and BLAST's statistic. Their rows are weighed on read
/// only.
fn versioned(weigher: Weigher) -> bool {
    match weigher {
        Weigher::Scheme(scheme) => !scheme.is_delta_local(),
        Weigher::Chi2 => true,
        Weigher::Features => false,
    }
}

/// Whether a row of `weigher` statistics last weighed at `weighed` must
/// be re-weighed before it is read at `version`: a JS row a block-count
/// change marked, or a row of a statistic every ingest moves not yet
/// weighed at this version. ARCS sums and CBS weights are final as swept.
fn stale(weigher: Weigher, weighed: u64, version: u64) -> bool {
    match weigher {
        Weigher::Scheme(WeightingScheme::Js) => weighed == 0,
        weigher => versioned(weigher) && weighed != version,
    }
}

impl<'d> IncrementalSession<'d> {
    /// An empty session over `dataset` (no entity has arrived yet) with
    /// the [`Session`](crate::Session) defaults: ARCS-weighted WNP. The
    /// whole universe is tokenised here, once, on all available workers.
    pub fn new(dataset: &'d Dataset, mode: ErMode) -> Self {
        let corpus = Corpus::new(dataset, TokenKeys::Values, default_threads());
        Self::from_corpus(Arc::new(corpus), mode)
    }

    /// [`Self::new`] over `corpus`, a value-token corpus
    /// ([`IncrementalCollection::from_corpus`]): the caller picked its
    /// worker count, and may hand the same corpus to other readers.
    pub fn from_corpus(corpus: Arc<Corpus<'d>>, mode: ErMode) -> Self {
        let n = corpus.dataset().len();
        Self {
            collection: IncrementalCollection::from_corpus(corpus, mode),
            scheme: WeightingScheme::Arcs,
            pruning: Pruning::Wnp { reciprocal: false },
            workers: None,
            rows: Rows::new(n),
            fold_scratch: Vec::new(),
            own_row: RowBuf::default(),
            kept: Vec::new(),
            votes: Votes::new(n),
            features: Vec::new(),
            rows_valid: true,
            mask: vec![false; n],
            pool: ScratchPool::new(n),
            version: 0,
            criterion: None,
        }
    }

    /// Sets the weighting scheme. When that changes the statistic the
    /// rows hold, the next ingest, resolve or outcome re-seeds them with
    /// one full sweep.
    pub fn scheme(&mut self, scheme: WeightingScheme) -> &mut Self {
        self.configure(scheme, self.pruning)
    }

    /// Sets the pruning family. Rows hold the statistic the family
    /// decides on, so only a switch to or from BLAST or the supervised
    /// pruner re-seeds them, like a scheme switch.
    pub fn pruning(&mut self, pruning: Pruning) -> &mut Self {
        self.configure(self.scheme, pruning)
    }

    fn configure(&mut self, scheme: WeightingScheme, pruning: Pruning) -> &mut Self {
        if (scheme, pruning) != (self.scheme, self.pruning) {
            // An empty corpus has all-empty rows under every statistic, so
            // only a switch after arrivals dirties them.
            if Weigher::of(scheme, &pruning) != self.weigher() {
                self.rows_valid = self.collection.num_arrived() == 0;
            }
            (self.scheme, self.pruning) = (scheme, pruning);
            self.criterion = None;
            self.votes.generation += 1;
        }
        self
    }

    /// Pins the worker count of the parallel sweeps. Results never
    /// depend on it; the default is all available parallelism.
    pub fn workers(&mut self, workers: usize) -> &mut Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The merged corpus as a [`BlockCollection`], built anew on every
    /// call (`O(corpus)`) — for exports and the equivalence suites; no
    /// path of the session needs it.
    pub fn snapshot(&self) -> BlockCollection {
        let threads = self.threads();
        self.collection.snapshot(threads)
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

    fn threads(&self) -> usize {
        self.workers.unwrap_or_else(default_threads).max(1)
    }

    /// The statistic the current family decides on.
    fn weigher(&self) -> Weigher {
        Weigher::of(self.scheme, &self.pruning)
    }

    /// Ingests a batch of not-yet-arrived descriptions: delta-append
    /// their key runs into the block slabs, and patch the row cache by
    /// re-sweeping — on the live slabs, no snapshot — only the entities
    /// whose incident statistics can have changed (see the
    /// [module docs](self) for the sets).
    ///
    /// # Panics
    /// Panics if any batch entity was already ingested.
    pub fn ingest(&mut self, batch: &[EntityId]) -> IngestReport {
        let threads = self.threads();
        let delta = self.collection.ingest(batch, threads);
        self.version += 1;
        self.criterion = None;
        self.votes.generation += 1;
        let mut report = IngestReport {
            arrived: batch.len(),
            touched_blocks: delta.touched_blocks.len(),
            newly_present_blocks: delta.newly_present.len(),
            dirty_entities: delta.dirty.len(),
            swept_entities: 0,
            num_arrived: self.collection.num_arrived(),
            delta: self.rows_valid,
        };
        let (weigher, version) = (self.weigher(), self.version);
        report.swept_entities = if !self.rows_valid {
            // A switch of statistic left the rows cold: one full sweep
            // re-seeds them, then deltas resume.
            self.reseed_rows(threads);
            self.rows.entries.len()
        } else if matches!(
            weigher,
            Weigher::Scheme(WeightingScheme::Arcs) | Weigher::Features
        ) {
            // Every pair of a touched block is reweighed, and both
            // endpoints of every changed edge are members of it.
            let (pool, rows, view) = (&self.pool, &mut self.rows, &self.collection);
            resweep_rows(weigher, pool, rows, view, &delta.dirty, threads, version);
            delta.dirty.len()
        } else {
            // No pre-batch pair's count moves: the batch alone is
            // re-swept and `mirror_append` carries each new edge into the
            // neighbour's row. Under JS the rows a block-count change
            // moved go stale first.
            if weigher == Weigher::Scheme(WeightingScheme::Js) {
                self.mark_stale(&delta.grown);
            }
            let (pool, rows, view) = (&self.pool, &mut self.rows, &self.collection);
            resweep_rows(weigher, pool, rows, view, batch, threads, version);
            mirror_append(rows, batch, &mut self.mask, &mut self.fold_scratch);
            batch.len()
        };
        report
    }

    /// Under JS, marks stale the rows whose weights a block-count change
    /// moved: each grown pre-batch entity `z`'s (every weight in it reads
    /// `|B_z|`) and each of its neighbours' (their edge to `z`). It runs
    /// before the batch is swept, so it walks pre-batch rows only — a
    /// batch entity's is still empty, and its edges, swept on the final
    /// counts, stay fresh.
    fn mark_stale(&mut self, grown: &[EntityId]) {
        let rows = &mut self.rows;
        for &z in grown {
            rows.weighed[z.index()] = 0;
            for entry in &rows.entries[z.index()] {
                rows.weighed[entry.y as usize] = 0;
            }
        }
    }

    /// Re-seeds the whole row cache with one full sweep of the live
    /// slabs under the current statistic.
    fn reseed_rows(&mut self, threads: usize) {
        let all: Vec<EntityId> = (0..self.rows.entries.len() as u32).map(EntityId).collect();
        let (weigher, version) = (self.weigher(), self.version);
        let (pool, rows, view) = (&self.pool, &mut self.rows, &self.collection);
        resweep_rows(weigher, pool, rows, view, &all, threads, version);
        self.rows_valid = true;
    }

    /// The row cache as a [`RowDriver`], re-seeded first if a switch
    /// left it cold.
    fn row_cache(&mut self) -> RowCache<'_> {
        if !self.rows_valid {
            self.reseed_rows(self.threads());
        }
        RowCache {
            rows: &mut self.rows,
            scratch: &mut self.fold_scratch,
            features: &mut self.features,
            votes: &mut self.votes,
            weigher: Weigher::of(self.scheme, &self.pruning),
            version: self.version,
            view: &self.collection,
        }
    }

    /// Assembles the pruned comparisons of the current merged corpus —
    /// bit-identical to a from-scratch [`Session`](crate::Session) run on
    /// the same collection — by running the family's rule over the row
    /// cache and nothing else.
    pub fn outcome(&mut self) -> PruneOutcome {
        let (scheme, pruning) = (self.scheme, self.pruning);
        PruneOutcome {
            pruned: rule::run(&mut self.row_cache(), scheme, &pruning),
            report: JobReport::default(),
        }
    }

    /// Resolves one entity against the current merged corpus: the
    /// comparisons [`Self::outcome`] would keep for it — same pairs,
    /// same order, same f64 weight bits — without assembling (or
    /// re-sweeping) the whole outcome. The answer comes from the row
    /// cache; the pruning family's *global* inputs (WEP's threshold,
    /// CEP's top-k, CNP's default `k`, the supervised extractor) are
    /// reduced over it once per ingested version, and a node-centric
    /// family's votes drawn once per row, and reused by every resolve
    /// against it. The [module docs](self) show one.
    pub fn resolve_entity(&mut self, entity: EntityId) -> ResolvedEntity {
        assert!(
            entity.index() < self.rows.entries.len(),
            "resolve_entity: entity id out of range"
        );
        let (scheme, pruning) = (self.scheme, self.pruning);
        let criterion = match self.criterion.take() {
            Some(criterion) => criterion,
            None => rule::resolve_criterion(&mut self.row_cache(), scheme, &pruning),
        };
        let rule = Rule {
            pruning: &pruning,
            criterion: &criterion,
        };
        let (mut own, mut kept) = (
            std::mem::take(&mut self.own_row),
            std::mem::take(&mut self.kept),
        );
        let resolved =
            query::resolve_rows(&mut self.row_cache(), &mut own, &mut kept, entity, rule);
        (self.own_row, self.kept, self.criterion) = (own, kept, Some(criterion));
        resolved
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
/// rule where it lies. Both passes walk the whole cache and are
/// `O(corpus)` anyway, so they bring every row up to date on the way. A
/// resolve copies the resolved entity's row ([`Self::load_row`]) and
/// reads each neighbour's memoised vote ([`Self::vote`]).
pub(crate) struct RowCache<'a> {
    rows: &'a mut Rows,
    scratch: &'a mut Vec<Entry>,
    features: &'a mut Vec<[f64; NUM_FEATURES]>,
    votes: &'a mut Votes,
    weigher: Weigher,
    version: u64,
    view: &'a IncrementalCollection<'a>,
}

/// What a cached row is weighed from on read: the live block counts, each
/// entity's degree — the length of its row — and `|V|`.
struct Live<'a> {
    view: &'a IncrementalCollection<'a>,
    rows: &'a Rows,
    /// The row being read, lifted out of `rows`: its entity and length.
    lifted: (u32, usize),
}

impl EdgeGlobals for Live<'_> {
    fn blocks_of(&self, e: u32) -> u32 {
        self.view.entity_block_count(EntityId(e))
    }

    fn num_blocks(&self) -> usize {
        BlockView::num_blocks(self.view)
    }

    fn degrees_of(&self, lo: u32, hi: u32) -> (usize, usize) {
        let degree = |e: u32| match self.lifted {
            (lifted, len) if lifted == e => len,
            _ => self.rows.entries[e as usize].len(),
        };
        (degree(lo), degree(hi))
    }

    fn num_edges(&self) -> usize {
        (self.rows.degree_sum / 2) as usize
    }
}

impl RowCache<'_> {
    /// `e`'s row, brought up to date in place — its mirror tail folded
    /// and, if [`stale`], its statistic re-weighed from the counts its
    /// entries carry — and lent with its supervised features when the
    /// family reads them.
    fn current(&mut self, e: u32) -> Row<'_> {
        let Self {
            rows,
            scratch,
            features,
            weigher,
            votes: _,
            version,
            view,
        } = self;
        let a = e as usize;
        fold_tail(&mut rows.entries[a], &mut rows.sorted_len[a], scratch);
        features.clear();
        let stale = stale(*weigher, rows.weighed[a], *version);
        if stale || *weigher == Weigher::Features {
            // Lifted out, so that `Live` can read the other rows' degrees.
            let mut row = std::mem::take(&mut rows.entries[a]);
            let live = Live {
                view,
                rows,
                lifted: (e, row.len()),
            };
            if stale {
                for entry in row.iter_mut() {
                    let (lo, hi) = (e.min(entry.y), e.max(entry.y));
                    entry.w = weigher.weigh(entry.cbs, 0.0, lo, hi, &live);
                }
            }
            if *weigher == Weigher::Features {
                features.extend(row.iter().map(|&Entry { y, cbs, w }| {
                    supervised::raw_features(cbs, w, e.min(y), e.max(y), &live)
                }));
            }
            rows.entries[a] = row;
            if stale {
                rows.weighed[a] = *version;
            }
        }
        Row {
            a: e,
            entries: &rows.entries[a],
            features,
        }
    }

    /// Copies `e`'s up-to-date row into `out`.
    pub(crate) fn load_row(&mut self, e: u32, out: &mut RowBuf) {
        out.clear();
        let row = self.current(e);
        out.entries.extend_from_slice(row.entries);
        out.features.extend_from_slice(row.features);
    }

    /// The vote `y` casts under `rule` over its up-to-date row, drawn from
    /// the row where it lies on the first call of a generation and read
    /// from the memo after that. `rule` must be the session's current
    /// family under its current criterion.
    pub(crate) fn vote(&mut self, y: u32, rule: Rule<'_>) -> &Ballot {
        let (a, generation) = (y as usize, self.votes.generation);
        if self.votes.memo[a].0 != generation {
            let ballot = rule.ballot(self.current(y));
            self.votes.memo[a] = (generation, ballot);
        }
        &self.votes.memo[a].1
    }

    /// Puts every non-empty row through `f`, in entity order, brought up
    /// to date and lent where it lies; returns the forward-edge count.
    fn for_each_row(&mut self, mut f: impl FnMut(Row<'_>)) -> u64 {
        let mut forward = 0;
        for a in 0..self.rows.entries.len() as u32 {
            let row = self.current(a);
            if !row.entries.is_empty() {
                forward += forward_len(a, row.entries, |e| e.y);
                f(row);
            }
        }
        forward
    }
}

impl RowDriver for RowCache<'_> {
    fn num_entities(&self) -> usize {
        self.rows.entries.len()
    }

    fn total_assignments(&self) -> u64 {
        self.view.total_assignments()
    }

    fn active_nodes(&mut self) -> usize {
        // A mirror tail only ever holds real edges, so emptiness needs no
        // folding.
        self.rows.entries.iter().filter(|r| !r.is_empty()).count()
    }

    fn num_edges(&mut self) -> usize {
        (self.rows.degree_sum / 2) as usize
    }

    fn reduce(&mut self, _weigher: Weigher, fold: &CriterionFold) -> (Partial, u64) {
        let mut share = fold.init();
        let forward = self.for_each_row(|row| fold.fold(&mut share, row));
        (share, forward)
    }

    fn keep(&mut self, _weigher: Weigher, rule: Rule<'_>) -> (Vec<WeightedPair>, u64) {
        let mut kept = Vec::new();
        let forward = self.for_each_row(|row| rule.contribute(row, &mut kept));
        (kept, forward)
    }
}

/// Re-sweeps `targets` on `view` and installs their fresh rows of
/// `weigher` statistics, stamped as weighed at `version` unless the
/// statistic is [`versioned`] (its swept weights are never trusted: EJS
/// reads degrees and `|V|` only the whole batch settles) — cost-balanced
/// over the
/// shared scoped-thread driver when `threads > 1` (one inline range
/// otherwise, with no cost pass), scratches from `pool`. Feature rows
/// hold the ARCS sums the features are built on. Each range copies its
/// rows, as the weigher filled them, into one flat slab, and every row is
/// copied from it into its existing buffer, which it reuses whenever the
/// new row fits. Row contents never depend on the partitioning: each row
/// is one entity's serial sweep. The view's own block counts serve as the
/// weight globals; the statistics that read more are re-weighed on read.
fn resweep_rows<V: BlockView + Sync>(
    weigher: Weigher,
    pool: &ScratchPool,
    rows: &mut Rows,
    view: &V,
    targets: &[EntityId],
    threads: usize,
    version: u64,
) {
    let stamp = if versioned(weigher) { 0 } else { version };
    let ranges = if threads > 1 {
        let costs: Vec<u64> = targets.iter().map(|&e| view.sweep_cost(e)).collect();
        partition_by_cost(&costs, threads)
    } else {
        std::iter::once(0..targets.len()).collect()
    };
    let weigher = match weigher {
        Weigher::Features => Weigher::Scheme(WeightingScheme::Arcs),
        weigher => weigher,
    };
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
    let (mut removed, mut installed) = (0, 0);
    for (entries, ends) in &slabs {
        let mut start = 0;
        for (&end, &e) in ends.iter().zip(&mut targets) {
            let row = &mut rows.entries[e.index()];
            removed += row.len() as u64;
            row.clear();
            row.extend_from_slice(&entries[start..end]);
            installed += row.len() as u64;
            rows.sorted_len[e.index()] = row.len() as u32;
            rows.weighed[e.index()] = stamp;
            start = end;
        }
    }
    rows.degree_sum = rows.degree_sum - removed + installed;
}

/// Carries the freshly swept `(target, neighbour)` edges into the rows
/// of neighbours that were *not* re-swept themselves: every entry
/// `(y, |B_ty|, w)` of a target's fresh row with `y` outside the target
/// set is **appended** to `rows[y]`'s mirror tail as `(t, |B_ty|, w)` —
/// one push per new edge, into a buffer that never shrinks. Tails fold
/// into the sorted prefix lazily at the next read ([`fold_tail`]), or
/// eagerly once a tail outgrows its prefix (and 64 entries), which
/// amortises the folds to O(1) per append. (Per-edge `Vec::insert`, or a
/// sorted merge per batch, would be quadratic per stream on dense
/// neighbourhoods.)
///
/// The targets are the batch, which had no edge before this ingest, so
/// a tail never repeats an edge of its own or of the prefix. The count
/// and the weight bits are endpoint-symmetric: every statistic is weighed
/// in normalised `(lo, hi)` endpoint order, so `y`'s own sweep would
/// produce the identical f64. `mask` is a reusable all-false scratch,
/// restored before return.
fn mirror_append(
    rows: &mut Rows,
    targets: &[EntityId],
    mask: &mut [bool],
    scratch: &mut Vec<Entry>,
) {
    let (entries, sorted_len) = (&mut rows.entries[..], &mut rows.sorted_len[..]);
    for &t in targets {
        mask[t.index()] = true;
    }
    let mut pushed = 0;
    for &t in targets {
        let row = std::mem::take(&mut entries[t.index()]);
        for entry in &row {
            let y = entry.y as usize;
            if mask[y] {
                continue;
            }
            let mirror = &mut entries[y];
            mirror.push(Entry { y: t.0, ..*entry });
            pushed += 1;
            let sorted = &mut sorted_len[y];
            if mirror.len() - *sorted as usize >= (*sorted as usize).max(64) {
                fold_tail(mirror, sorted, scratch);
            }
        }
        entries[t.index()] = row;
    }
    rows.degree_sum += pushed;
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
    use crate::sweep::SweepState;
    use crate::{ExecutionBackend, Session};
    use minoan_blocking::builders::token_blocking;
    use minoan_datagen::{generate, profiles, ArrivalOrder};

    fn assert_same(got: &PruneOutcome, want: &PruneOutcome, label: &str) {
        crate::assert_bit_identical(&got.pruned, &want.pruned, label);
    }

    fn ids(n: usize) -> Vec<EntityId> {
        (0..n as u32).map(EntityId).collect()
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
        let want = Session::new(&inc.snapshot())
            .scheme(WeightingScheme::Js)
            .backend(ExecutionBackend::Streaming)
            .run();
        assert_same(&got, &want, "post-switch JS");
    }

    /// `a`'s row as a sweep of the live slabs builds it now, under
    /// `scheme`.
    fn fresh_row(inc: &IncrementalSession, scheme: WeightingScheme, a: usize) -> Vec<Entry> {
        let mut rows = Rows::new(inc.rows.entries.len());
        let target = [EntityId(a as u32)];
        let weigher = Weigher::Scheme(scheme);
        resweep_rows(
            weigher,
            &inc.pool,
            &mut rows,
            &inc.collection,
            &target,
            1,
            0,
        );
        std::mem::take(&mut rows.entries[a])
    }

    /// Whether row `a` must be re-weighed before it is read.
    fn is_stale(inc: &IncrementalSession, a: usize) -> bool {
        stale(inc.weigher(), inc.rows.weighed[a], inc.version)
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
            for a in 0..inc.rows.entries.len() {
                if !inc.has_arrived(EntityId(a as u32)) || !is_stale(&inc, a) {
                    continue;
                }
                let mut row = inc.rows.entries[a].clone();
                let mut sorted = inc.rows.sorted_len[a];
                fold_tail(&mut row, &mut sorted, &mut Vec::new());
                let live = Live {
                    view: &inc.collection,
                    rows: &inc.rows,
                    lifted: (u32::MAX, 0),
                };
                for scheme in [WeightingScheme::Js, WeightingScheme::Ecbs] {
                    for entry in row.iter_mut() {
                        let (lo, hi) = (entry.y.min(a as u32), entry.y.max(a as u32));
                        entry.w = Weigher::Scheme(scheme).weigh(entry.cbs, 0.0, lo, hi, &live);
                    }
                    let want = fresh_row(&inc, scheme, a);
                    assert_eq!(bits(&row), bits(&want), "{scheme:?} row {a}");
                }
                checked += 1;
            }
        }
        assert!(checked > 100, "only {checked} stale rows seen");
    }

    /// Around every ingest of a stream (all rows read in between), an
    /// arrived entity's row is stale exactly when it was not re-swept and
    /// an endpoint of one of its pre-batch edges — the row's own entity
    /// or a neighbour — gained a block. Under CBS and ARCS no row ever
    /// goes stale; under ECBS every row does, until it is read.
    #[test]
    fn a_row_goes_stale_exactly_when_an_endpoint_count_moved() {
        let world = generate(&profiles::periphery_sparse(240, 31));
        let batches = ArrivalOrder::Shuffled { seed: 9 }.batches(&world.dataset, &world.truth, 7);
        for scheme in [
            WeightingScheme::Cbs,
            WeightingScheme::Js,
            WeightingScheme::Arcs,
        ] {
            let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
            inc.scheme(scheme).pruning(Pruning::None);
            let mut marked = 0;
            for batch in &batches {
                inc.outcome();
                let counts: Vec<u32> = (0..inc.rows.entries.len() as u32)
                    .map(|e| inc.collection.entity_block_count(EntityId(e)))
                    .collect();
                let before: Vec<bool> = (0..inc.rows.entries.len())
                    .map(|e| inc.has_arrived(EntityId(e as u32)))
                    .collect();
                inc.ingest(batch);
                let moved =
                    |e: u32| inc.collection.entity_block_count(EntityId(e)) != counts[e as usize];
                for a in 0..inc.rows.entries.len() {
                    if !inc.has_arrived(EntityId(a as u32)) {
                        continue;
                    }
                    let reswept = batch.contains(&EntityId(a as u32));
                    let want = scheme == WeightingScheme::Js
                        && !reswept
                        && (moved(a as u32)
                            || inc.rows.entries[a]
                                .iter()
                                .any(|e| before[e.y as usize] && moved(e.y)));
                    assert_eq!(is_stale(&inc, a), want, "{scheme:?}: row {a}");
                    marked += usize::from(want);
                }
            }
            if scheme == WeightingScheme::Js {
                assert!(marked > 100, "only {marked} rows went stale");
            }
        }
        let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
        inc.scheme(WeightingScheme::Ecbs).pruning(Pruning::None);
        for batch in &batches {
            inc.ingest(batch);
            let arrived: Vec<usize> = (0..inc.rows.entries.len())
                .filter(|&a| inc.has_arrived(EntityId(a as u32)))
                .collect();
            assert!(arrived.iter().all(|&a| is_stale(&inc, a)), "ingested");
            inc.outcome();
            assert!(!arrived.iter().any(|&a| is_stale(&inc, a)), "read");
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
    /// every weigher in both directions, and every cached row of a
    /// session — mirror tails and stale rows included —
    /// after each batched ingest under every scheme.
    #[test]
    fn every_drivers_entry_carries_the_edges_true_count() {
        let world = generate(&profiles::periphery_sparse(240, 37));
        let batches = ArrivalOrder::Shuffled { seed: 13 }.batches(&world.dataset, &world.truth, 19);
        for scheme in WeightingScheme::ALL {
            let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
            inc.scheme(scheme).pruning(Pruning::None);
            for (i, batch) in batches.iter().enumerate() {
                inc.ingest(batch);
                let snapshot = inc.snapshot();
                let want = |a: usize| true_counts(&snapshot, a as u32, Direction::Both);
                let wants: Vec<_> = (0..snapshot.num_entities()).map(want).collect();
                for (a, row) in inc.rows.entries.iter().enumerate() {
                    assert_eq!(counts(row), wants[a], "{scheme:?}, ingest {i}: row {a}");
                }
            }
        }
        let blocks = token_blocking(&world.dataset, ErMode::CleanClean);
        let mut st = SweepState::new(&blocks);
        st.ensure(true, 1);
        let (globals, pool) = (st.globals(), &st.pool);
        let weighers = [
            Weigher::Scheme(WeightingScheme::Js),
            Weigher::Chi2,
            Weigher::Features,
        ];
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
            });
        }
    }

    #[test]
    fn outcome_before_any_ingest_is_empty() {
        let world = generate(&profiles::center_dense(30, 3));
        let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
        let out = inc.outcome();
        assert!(out.pairs().is_empty());
        assert_eq!(out.input_edges(), 0);
        assert!(inc.snapshot().is_empty());
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
            let rows = inc.rows.entries.iter().zip(&inc.rows.sorted_len);
            let rows = rows.enumerate();
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
            let mut rows = Rows::new(n);
            rows.entries = (0..n).map(|_| Vec::with_capacity(n)).collect();
            let before: Vec<_> = rows
                .entries
                .iter()
                .map(|r| (r.as_ptr(), r.capacity()))
                .collect();
            let weigher = Weigher::Scheme(WeightingScheme::Js);
            resweep_rows(weigher, &pool, &mut rows, &blocks, &ids(n), threads, 1);
            for (e, row) in rows.entries.iter().enumerate() {
                assert_eq!((row.as_ptr(), row.capacity()), before[e], "row {e}");
                assert_eq!(rows.sorted_len[e] as usize, row.len());
            }
            let sum: usize = rows.entries.iter().map(Vec::len).sum();
            assert_eq!(rows.degree_sum, sum as u64, "threads={threads}");
            let rows: Vec<_> = rows.entries.iter().map(|r| bits(r)).collect();
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
            let mut rows = Rows::new(n);
            rows.entries[0] = (1..=prefix_len).map(|i| entry(2 * i, i)).collect();
            rows.sorted_len[0] = prefix_len;
            let mut log = rows.entries[0].clone();
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
                rows.entries[t as usize] = vec![Entry { y: 0, ..appended }];
                log.push(appended);
                let sorted = rows.sorted_len[0];
                let tail = rows.entries[0].len() as u32 - sorted;
                mirror_append(&mut rows, &[EntityId(t)], &mut mask, &mut scratch);
                if tail + 1 >= sorted.max(64) {
                    assert_eq!(
                        rows.sorted_len[0] as usize,
                        rows.entries[0].len(),
                        "append {i}"
                    );
                    folds += 1;
                } else {
                    assert_eq!(rows.sorted_len[0], sorted, "append {i} folded early");
                }
            }
            assert!(folds >= 3, "prefix {prefix_len}: {folds} eager folds");
            assert_eq!(rows.degree_sum, 1_000, "one edge per append");
            let mut sorted = rows.sorted_len[0];
            fold_tail(&mut rows.entries[0], &mut sorted, &mut scratch);
            normalize_row(&mut log, prefix_len as usize);
            assert_eq!(bits(&rows.entries[0]), bits(&log), "prefix {prefix_len}");
            assert!(mask.iter().all(|&m| !m), "mask restored");
        }
    }
}
