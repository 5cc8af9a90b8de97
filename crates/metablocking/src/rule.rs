//! One row rule per pruning family — the sweep-side semantics of WEP,
//! CEP, WNP, CNP, BLAST and the supervised pruner, each stated once.
//!
//! Everything here works on a neighbourhood [`Row`]: entity `a`'s
//! comparable neighbours as [`Entry`]s — neighbour, shared-block count,
//! edge weight — ascending by neighbour id. That one shape is what a
//! sweep of `a` produces, a MapReduce record carries and the incremental
//! row cache stores and lends out as is. A family is three things over
//! rows:
//!
//! 1. a **global criterion** ([`Criterion`]), reduced once per corpus
//!    version by a [`CriterionFold`]: fold each row into a [`Partial`],
//!    merge the partials (any grouping, any order — every reduction is
//!    exact or fixed-shape), finish. WEP folds per-entity positive
//!    forward sums into the fixed-length slab of
//!    `prune::wep_threshold_from_sums`; CEP a bounded linear-time
//!    selection ([`TopK`]) under the strict [`EdgeKey`] order, which the
//!    worker that filled it *seals* into a descending run so that merging
//!    shares is a `k`-bounded two-way merge and finishing is a relabelling;
//!    BLAST the per-entity local χ² maxima; the supervised pruner the
//!    per-feature maxima. CNP's default `k` is a formula over two corpus
//!    counts.
//! 2. a **row rule** ([`Rule`]): what `a`'s row contributes to the kept
//!    list under that criterion ([`Rule::contribute`]) — forward
//!    (`y > a`) entries only for the families that decide an edge from
//!    its weight and the criterion alone, so a sweeping driver never
//!    visits a backward co-occurrence for them
//!    ([`Rule::sweep_direction`]); the full row for the node-centric
//!    votes — and the same decision asked of one endpoint at query time
//!    ([`Rule::ballot`], [`Rule::votes_for`], [`Rule::edge_keep`]).
//! 3. a **vote combiner** ([`combine_votes`]): union or reciprocal.
//!
//! [`run`] and [`criterion`] chain those steps over a [`RowDriver`]. The
//! drivers — scoped threads (`streaming`), MapReduce jobs (`parallel`),
//! the incremental session's row cache, one neighbourhood at query time
//! (`query`) — differ only in which rows they visit and where the
//! partials merge; none restates a threshold test, a selection or a
//! tie-break.
//!
//! Nothing in the crate restates these rules. The workspace's integration
//! suites check every driver against an independent, test-only
//! specification (`tests/common/spec.rs`) written from the definitions
//! alone.

use crate::blast::chi_square_from_stats;
use crate::kernel::{edge_weight, EdgeGlobals};
use crate::prune::{self, PrunedComparisons, WeightedPair};
use crate::session::Pruning;
use crate::supervised::{self, FeatureExtractor, NUM_FEATURES};
use crate::sweep::SweepScratch;
use crate::weights::WeightingScheme;
use minoan_blocking::Direction;
use minoan_common::stats::mean_of;
use minoan_common::{OrdF64, TopK};
use minoan_rdf::EntityId;
use std::cmp::Reverse;

/// One edge of entity `a`'s row: the neighbour `y`, the pair's
/// shared-block count `|B_ay|` and the edge's statistic `w` (the scheme
/// weight, BLAST's χ², or unused under the supervised features). The
/// count fills what would otherwise be padding after `y`, so it costs no
/// space; it lets the incremental cache re-weigh a row whose endpoint
/// block counts moved without re-sweeping it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Entry {
    pub(crate) y: u32,
    pub(crate) cbs: u32,
    pub(crate) w: f64,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 16);

/// One entity's neighbourhood, borrowed from whoever produced it.
#[derive(Clone, Copy)]
pub(crate) struct Row<'r> {
    /// The entity the row belongs to.
    pub(crate) a: u32,
    /// Ascending by neighbour id, duplicate-free. Either every comparable
    /// neighbour of `a` or only the forward (`y > a`) ones; the rules
    /// never need to be told which.
    pub(crate) entries: &'r [Entry],
    /// Raw supervised feature vectors, parallel to `entries`; empty
    /// unless the row was filled by [`Weigher::Features`].
    pub(crate) features: &'r [[f64; NUM_FEATURES]],
}

/// Owned, reusable storage for one [`Row`] — a driver's per-worker
/// buffer, and the record an entity's neighbourhood is shuffled as.
#[derive(Default)]
pub(crate) struct RowBuf {
    pub(crate) entries: Vec<Entry>,
    pub(crate) features: Vec<[f64; NUM_FEATURES]>,
}

impl RowBuf {
    /// The buffered row, as entity `a`'s.
    #[inline]
    pub(crate) fn row(&self, a: u32) -> Row<'_> {
        Row {
            a,
            entries: &self.entries,
            features: &self.features,
        }
    }

    #[inline]
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.features.clear();
    }
}

/// Which per-neighbour statistic a family's rows carry.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Weigher {
    /// The weighting scheme's edge weight.
    Scheme(WeightingScheme),
    /// BLAST's Pearson χ².
    Chi2,
    /// The supervised pruner's raw 7-feature vectors (the weight slot is
    /// unused). Features read the endpoints in normalised `(lo, hi)`
    /// order, like every weight.
    Features,
}

impl Weigher {
    /// The statistic `pruning` decides on (`scheme` unless the family
    /// brings its own).
    pub(crate) fn of(scheme: WeightingScheme, pruning: &Pruning) -> Self {
        match pruning {
            Pruning::Blast { .. } => Self::Chi2,
            Pruning::Supervised(_) => Self::Features,
            _ => Self::Scheme(scheme),
        }
    }

    /// Whether the statistic reads the counted globals tier (node
    /// degrees and |V|): EJS, and the supervised features (EJS and the
    /// endpoint degrees are among them).
    pub(crate) fn needs_counts(self) -> bool {
        matches!(self, Self::Scheme(WeightingScheme::Ejs) | Self::Features)
    }

    /// The statistic of the edge `(lo, hi)` (normalised endpoint order)
    /// from its shared-block count and ARCS sum. Feature rows carry their
    /// vectors beside the entries instead, and leave the weight slot at 0.
    #[inline]
    pub(crate) fn weigh<G: EdgeGlobals>(
        self,
        cbs: u32,
        arcs: f64,
        lo: u32,
        hi: u32,
        globals: &G,
    ) -> f64 {
        match self {
            Self::Scheme(scheme) => edge_weight(scheme, cbs, arcs, lo, hi, globals),
            Self::Chi2 => chi_square_from_stats(
                cbs,
                globals.blocks_of(lo),
                globals.blocks_of(hi),
                globals.num_blocks(),
            ),
            Self::Features => 0.0,
        }
    }

    /// Fills `out` with `a`'s row from the sweep `scratch` just ran for
    /// it — the neighbours that sweep's direction reported, all of them,
    /// each with the shared-block count the sweep accumulated — every
    /// pair evaluated in normalised `(smaller, larger)` endpoint order,
    /// so both endpoints' rows carry the same bits.
    pub(crate) fn fill<G: EdgeGlobals>(
        self,
        scratch: &SweepScratch,
        a: u32,
        globals: &G,
        out: &mut RowBuf,
    ) {
        out.clear();
        let neighbours = scratch.neighbours();
        out.entries.reserve(neighbours.len());
        for &y in neighbours {
            let (lo, hi) = if a < y { (a, y) } else { (y, a) };
            let (cbs, arcs) = (scratch.cbs_of(y), scratch.arcs_of(y));
            if self == Self::Features {
                let raw = supervised::raw_features(cbs, arcs, lo, hi, globals);
                out.features.push(raw);
            }
            let w = self.weigh(cbs, arcs, lo, hi, globals);
            out.entries.push(Entry { y, cbs, w });
        }
    }
}

/// Number of forward (`y > a`) items of a slice ascending by the
/// neighbour id `id` reads off an item — `a`'s row, or the neighbour
/// list of a sweep of `a`. Each distinct comparable pair is counted
/// exactly once, at its smaller endpoint, so summed over all entities
/// this is |V|, the `input_edges` every family reports. On the row of a
/// forward sweep it is the row length.
#[inline]
pub(crate) fn forward_len<T>(a: u32, sorted: &[T], id: impl Fn(&T) -> u32) -> u64 {
    (sorted.len() - sorted.partition_point(|item| id(item) <= a)) as u64
}

/// The pair `(a, y)` in normalised endpoint order with its weight.
#[inline]
pub(crate) fn normalised(a: u32, y: u32, w: f64) -> WeightedPair {
    let (lo, hi) = if a < y { (a, y) } else { (y, a) };
    WeightedPair {
        a: EntityId(lo),
        b: EntityId(hi),
        weight: w,
    }
}

/// Key of the cardinality selections (CEP's global top-k, CNP's per-node
/// top-k): weight descending, ties to the *earlier* pair. A strict total
/// order — which is what makes a merged selection exact however the
/// edges were partitioned.
pub(crate) type EdgeKey = (OrdF64, Reverse<(EntityId, EntityId)>);

#[inline]
fn edge_key(a: u32, y: u32, w: f64) -> EdgeKey {
    let p = normalised(a, y, w);
    (OrdF64(w), Reverse((p.a, p.b)))
}

fn keyed_pair((w, Reverse((a, b))): EdgeKey) -> WeightedPair {
    WeightedPair { a, b, weight: w.0 }
}

/// The top-`k` positive entries of `a`'s row, descending.
fn top_k(row: Row<'_>, k: usize) -> Vec<EdgeKey> {
    let mut top: TopK<EdgeKey> = TopK::new(k);
    for &Entry { y, w, .. } in row.entries {
        if w > 0.0 {
            top.push(edge_key(row.a, y, w));
        }
    }
    top.into_sorted_vec()
}

/// A row's largest weight; 0 for an all-non-positive row.
#[inline]
fn local_max(entries: &[Entry]) -> f64 {
    let mut max = 0.0f64;
    for &Entry { w, .. } in entries {
        if w > max {
            max = w;
        }
    }
    max
}

/// How many endpoint votes keep a pair: one under union (redundancy)
/// semantics, both under reciprocal.
pub(crate) fn votes_needed(reciprocal: bool) -> usize {
    1 + usize::from(reciprocal)
}

/// Combines per-node votes on the kept set: union keeps pairs emitted by
/// ≥ 1 endpoint, reciprocal by both. Input must be sorted by pair. Both
/// endpoints weigh an edge through the kernel in normalised endpoint
/// order, so duplicate votes carry identical bits and the first stands
/// for both.
pub(crate) fn combine_votes(kept: Vec<WeightedPair>, reciprocal: bool) -> Vec<WeightedPair> {
    let need = votes_needed(reciprocal);
    let mut out: Vec<WeightedPair> = Vec::with_capacity(kept.len());
    let mut i = 0;
    while i < kept.len() {
        let mut j = i + 1;
        while j < kept.len() && (kept[j].a, kept[j].b) == (kept[i].a, kept[i].b) {
            j += 1;
        }
        if j - i >= need {
            out.push(kept[i]);
        }
        i = j;
    }
    out
}

/// The global inputs one scheme × pruning combination needs before any
/// row can be decided — reduced once per corpus version, reused by the
/// keep pass of a full run and by every query-time resolve.
pub(crate) enum Criterion {
    /// The decision reads only the rows themselves: `None`, WNP, and
    /// BLAST resolved one entity at a time (each endpoint's bar comes
    /// from its own row).
    Local,
    /// WEP's global mean-positive-weight threshold.
    Wep(f64),
    /// CEP's global top-k, in presentation order: the criterion *is* the
    /// outcome, and resolving is filtering to the incident pairs.
    Cep(Vec<WeightedPair>),
    /// CNP's per-node cardinality, defaults applied.
    CnpK(usize),
    /// BLAST's per-entity local χ² maxima: a full run's forward pass
    /// decides both endpoints' votes from this slab without the
    /// neighbour's row.
    BlastMax(Vec<f64>),
    /// The supervised extractor (global per-feature maxima baked in).
    Supervised(FeatureExtractor),
}

/// Which global reduction a family's criterion needs.
pub(crate) enum CriterionFold {
    /// WEP: per-entity sums of positive forward weights.
    WepSums,
    /// CEP: the `k` best forward edges under [`EdgeKey`].
    CepTop(usize),
    /// BLAST: each row's largest χ².
    LocalMax,
    /// Supervised: per-feature maxima over the forward edges.
    FeatureMax,
}

/// CEP's part of a share: the best `k` of the forward edges the share has
/// seen, under [`EdgeKey`].
#[derive(Default)]
enum Selection {
    /// Not a CEP share.
    #[default]
    None,
    /// Still taking edges.
    Open { k: usize, top: TopK<EdgeKey> },
    /// Done taking edges: at most `k` keys, descending.
    Sealed { k: usize, run: Vec<EdgeKey> },
}

/// One worker's share of a [`CriterionFold`]. Merging is the same for
/// every fold — concatenate the per-entity slots, merge the sealed
/// selections, take feature maxima — and every piece of it is exact, so
/// the merged state never depends on how rows were split.
///
/// A CEP share is [sealed](Self::seal) by the worker that folded it, so
/// the one sort a selection needs runs once per share, in parallel; what
/// is left for whoever merges is a two-way merge of descending runs that
/// stops at `k`. [`EdgeKey`] is a strict total order over distinct
/// pairs, so the `k` best of the union are the `k` best of the shares'
/// `k` bests under any grouping.
#[derive(Default)]
pub(crate) struct Partial {
    /// `(entity, value, positive forward edges)` — WEP's sums, BLAST's
    /// maxima; one slot per entity with something to report.
    slots: Vec<(u32, f64, u64)>,
    top: Selection,
    maxima: [f64; NUM_FEATURES],
}

/// The first `k` of two descending runs merged.
fn merge_runs(a: Vec<EdgeKey>, b: Vec<EdgeKey>, k: usize) -> Vec<EdgeKey> {
    if b.is_empty() {
        return a;
    }
    let len = k.min(a.len() + b.len());
    let mut out = Vec::with_capacity(len);
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    while out.len() < len {
        let from_a = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => x > y,
            (x, _) => x.is_some(),
        };
        out.extend(if from_a { a.next() } else { b.next() });
    }
    out
}

impl Partial {
    /// Closes a CEP share to further rows: its selection becomes a
    /// descending run, shrunk to its length — a run outlives the pass, as
    /// a merge input or as the criterion itself, and the selector's
    /// buffer is twice as long. A no-op on any other share, and on a
    /// sealed one.
    pub(crate) fn seal(&mut self) {
        self.top = match std::mem::take(&mut self.top) {
            Selection::Open { k, top } => {
                let mut run = top.into_sorted_vec();
                run.shrink_to_fit();
                Selection::Sealed { k, run }
            }
            other => other,
        };
    }

    /// Absorbs another worker's share. CEP shares must be sealed.
    pub(crate) fn merge(&mut self, from: Partial) {
        self.slots.extend(from.slots);
        self.top = match (std::mem::take(&mut self.top), from.top) {
            (Selection::Sealed { k, run: a }, Selection::Sealed { run: b, .. }) => {
                Selection::Sealed {
                    k,
                    run: merge_runs(a, b, k),
                }
            }
            (Selection::None, other) | (other, Selection::None) => other,
            _ => unreachable!("a CEP share is sealed where it was folded, before any merge"),
        };
        supervised::merge_feature_max(&mut self.maxima, &from.maxima);
    }

    /// Merges shares into the first of them (`None` if there are none).
    pub(crate) fn merged(shares: impl IntoIterator<Item = Partial>) -> Option<Partial> {
        let mut shares = shares.into_iter();
        let mut first = shares.next()?;
        for share in shares {
            first.merge(share);
        }
        Some(first)
    }

    /// Seals the share and splits it into keyed shuffle records: one per
    /// entity slot, keyed by the entity, or — for the selection and the
    /// feature maxima, which belong to no entity — a single record under
    /// key 0. A share that saw no edge yields nothing.
    pub(crate) fn into_records(mut self) -> Vec<(u32, Partial)> {
        self.seal();
        if self.slots.is_empty() {
            let saw_edges = matches!(&self.top, Selection::Sealed { run, .. } if !run.is_empty())
                || self.maxima.iter().any(|&m| m > 0.0);
            return Vec::from_iter(saw_edges.then_some((0, self)));
        }
        let record = |slot: (u32, f64, u64)| {
            let mut piece = Partial::default();
            piece.slots.push(slot);
            (slot.0, piece)
        };
        self.slots.into_iter().map(record).collect()
    }
}

impl CriterionFold {
    /// The sweeps the fold's rows come from: forward unless it reads
    /// full rows (BLAST's local maxima).
    pub(crate) fn sweep_direction(&self) -> Direction {
        match self {
            Self::LocalMax => Direction::Both,
            _ => Direction::Forward,
        }
    }

    /// An empty share.
    pub(crate) fn init(&self) -> Partial {
        let mut share = Partial::default();
        if let Self::CepTop(k) = *self {
            let top = TopK::new(k);
            share.top = Selection::Open { k, top };
        }
        share
    }

    /// Folds one row into a share. Entries are visited in ascending
    /// neighbour order, so WEP's per-entity sum is accumulated in the
    /// same order by every driver.
    pub(crate) fn fold(&self, acc: &mut Partial, row: Row<'_>) {
        let a = row.a;
        match self {
            Self::WepSums => {
                let (mut sum, mut positive) = (0.0f64, 0u64);
                for &Entry { y, w, .. } in row.entries {
                    if y > a && w > 0.0 {
                        sum += w;
                        positive += 1;
                    }
                }
                if positive > 0 {
                    acc.slots.push((a, sum, positive));
                }
            }
            Self::CepTop(_) => {
                let Selection::Open { top, .. } = &mut acc.top else {
                    unreachable!("CEP folds rows into the open share `init` made");
                };
                for &Entry { y, w, .. } in row.entries {
                    if y > a && w > 0.0 {
                        top.push(edge_key(a, y, w));
                    }
                }
            }
            Self::LocalMax => {
                if !row.entries.is_empty() {
                    acc.slots.push((a, local_max(row.entries), 0));
                }
            }
            Self::FeatureMax => {
                for raw in row.features {
                    supervised::merge_feature_max(&mut acc.maxima, raw);
                }
            }
        }
    }

    /// Turns the fully merged share into the criterion. `n` is the
    /// entity count (the slab length).
    fn finish(&self, mut acc: Partial, n: usize) -> Criterion {
        let slab = |slots: &[(u32, f64, u64)]| {
            let mut slab = vec![0.0f64; n];
            for &(a, v, _) in slots {
                slab[a as usize] = v;
            }
            slab
        };
        match self {
            Self::WepSums => {
                let positive = acc.slots.iter().map(|s| s.2).sum();
                Criterion::Wep(prune::wep_threshold_from_sums(&slab(&acc.slots), positive))
            }
            Self::CepTop(_) => {
                // A single-share driver hands its share over unsealed.
                acc.seal();
                let Selection::Sealed { run, .. } = acc.top else {
                    unreachable!("CEP shares carry a selection");
                };
                // Descending `EdgeKey` order is presentation order (weight
                // descending, ties to the earlier pair): relabel in place.
                Criterion::Cep(run.into_iter().map(keyed_pair).collect())
            }
            Self::LocalMax => Criterion::BlastMax(slab(&acc.slots)),
            Self::FeatureMax => Criterion::Supervised(FeatureExtractor::from_max(acc.maxima)),
        }
    }
}

/// One endpoint's local decision over its own row, for the node-centric
/// families.
pub(crate) enum Ballot {
    /// Keep positive entries at or above the bar: WNP's neighbourhood
    /// mean, BLAST's `ratio ·` local maximum.
    AtLeast(f64),
    /// CNP's top-k entries, descending.
    Top(Vec<EdgeKey>),
}

impl Ballot {
    /// Whether the endpoint `a` this ballot was drawn for votes for its
    /// edge to `y` of weight `w`.
    #[inline]
    pub(crate) fn admits(&self, a: u32, y: u32, w: f64) -> bool {
        w > 0.0
            && match self {
                Self::AtLeast(bar) => w >= *bar,
                Self::Top(keys) => keys.contains(&edge_key(a, y, w)),
            }
    }
}

/// A pruning family under its built criterion: the one place a row is
/// turned into keep decisions.
#[derive(Clone, Copy)]
pub(crate) struct Rule<'c> {
    pub(crate) pruning: &'c Pruning,
    /// Must have been built for `pruning` (by [`criterion`] or
    /// [`resolve_criterion`]).
    pub(crate) criterion: &'c Criterion,
}

impl Rule<'_> {
    /// `Some(reciprocal)` when an edge is decided by its endpoints' votes
    /// over their own rows; `None` when its weight and the criterion
    /// decide it alone ([`Self::edge_keep`]).
    #[inline]
    pub(crate) fn votes(&self) -> Option<bool> {
        match (self.pruning, self.criterion) {
            (Pruning::Wnp { reciprocal }, _) | (Pruning::Cnp { reciprocal, .. }, _) => {
                Some(*reciprocal)
            }
            // BLAST is loose: either endpoint's bar admits the edge.
            (Pruning::Blast { .. }, Criterion::Local) => Some(false),
            _ => None,
        }
    }

    /// The sweeps [`Self::contribute`]'s rows come from: forward when an
    /// edge is decided without a vote, full rows for the votes.
    pub(crate) fn sweep_direction(&self) -> Direction {
        match self.votes() {
            None => Direction::Forward,
            Some(_) => Direction::Both,
        }
    }

    /// The kept weight of entry `i` of `row` for the families that
    /// decide an edge without a vote — `None` if the edge is pruned.
    /// Symmetric in the endpoints, so it decides a backward entry of a
    /// full row the way the smaller endpoint's row would.
    #[inline]
    pub(crate) fn edge_keep(&self, row: Row<'_>, i: usize) -> Option<f64> {
        let Entry { y, w, .. } = row.entries[i];
        match (self.pruning, self.criterion) {
            (Pruning::None, _) => Some(w),
            (Pruning::Wep, Criterion::Wep(bar)) => (w >= *bar && w > 0.0).then_some(w),
            (Pruning::Blast { ratio }, Criterion::BlastMax(max)) => (w > 0.0
                && (w >= ratio * max[row.a as usize] || w >= ratio * max[y as usize]))
                .then_some(w),
            (Pruning::Supervised(model), Criterion::Supervised(extractor)) => {
                let score = model.score(&extractor.normalise(row.features[i]));
                (score > 0.0).then(|| supervised::sigmoid(score))
            }
            (p, _) => unreachable!("criterion was built for a different family than {p:?}"),
        }
    }

    /// The vote `row`'s entity casts over its *full* row. WNP's bar is
    /// `stats::mean_of` — `stats::mean` without the copy — over the row's
    /// weights in ascending neighbour order.
    // `always`: this is the per-neighbour step of every query-time
    // resolve, and the cardinality arm's selection code makes LLVM leave it
    // out of line there — a measured fifth of a WNP resolve.
    #[inline(always)]
    pub(crate) fn ballot(&self, row: Row<'_>) -> Ballot {
        match (self.pruning, self.criterion) {
            (Pruning::Wnp { .. }, _) => Ballot::AtLeast(mean_of(row.entries.iter().map(|e| e.w))),
            (Pruning::Cnp { .. }, Criterion::CnpK(k)) => Ballot::Top(top_k(row, *k)),
            (Pruning::Blast { ratio }, Criterion::Local) => {
                Ballot::AtLeast(ratio * local_max(row.entries))
            }
            (p, _) => unreachable!("{p:?} is not decided by endpoint votes here"),
        }
    }

    /// Whether `y` — whose full row is `row_y` — votes for its edge to
    /// `e`: exactly membership of the pair in what [`Self::contribute`]
    /// emits for `row_y`. `w` is the edge's weight; it is bitwise
    /// endpoint-symmetric (both endpoints weigh the pair in normalised
    /// order), so the caller's copy saves the lookup in `row_y`.
    #[inline(always)]
    pub(crate) fn votes_for(&self, row_y: Row<'_>, e: u32, w: f64) -> bool {
        self.ballot(row_y).admits(row_y.a, e, w)
    }

    /// Appends what `row` contributes to the kept list: its admitted
    /// forward edges, or — for the node-centric families — the votes its
    /// entity casts (normalised pairs; [`combine_votes`] counts them).
    pub(crate) fn contribute(&self, row: Row<'_>, out: &mut Vec<WeightedPair>) {
        let a = row.a;
        if self.votes().is_none() {
            for (i, &Entry { y, .. }) in row.entries.iter().enumerate() {
                if y > a {
                    if let Some(weight) = self.edge_keep(row, i) {
                        out.push(WeightedPair {
                            a: EntityId(a),
                            b: EntityId(y),
                            weight,
                        });
                    }
                }
            }
            return;
        }
        match self.ballot(row) {
            Ballot::Top(keys) => out.extend(keys.into_iter().map(keyed_pair)),
            ballot => {
                for &Entry { y, w, .. } in row.entries {
                    if ballot.admits(a, y, w) {
                        out.push(normalised(a, y, w));
                    }
                }
            }
        }
    }
}

/// An execution strategy: something that can put every entity's row
/// through a fold. The two passes differ in what they accumulate, never
/// in how rows are produced.
pub(crate) trait RowDriver {
    /// Entity count of the corpus (the length of the per-entity slabs).
    fn num_entities(&self) -> usize;

    /// Total block assignments (the cardinality defaults' budget).
    fn total_assignments(&self) -> u64;

    /// Entities with at least one comparable neighbour.
    fn active_nodes(&mut self) -> usize;

    /// |V|, for the degenerate runs in which no pass counted it.
    fn num_edges(&mut self) -> usize;

    /// Folds every entity's `weigher` row into `fold` shares and merges
    /// them; also returns the forward-edge count of the pass.
    fn reduce(&mut self, weigher: Weigher, fold: &CriterionFold) -> (Partial, u64);

    /// Collects every row's [`Rule::contribute`] — ordered by entity,
    /// which for the forward-only rules is pair order — plus the
    /// forward-edge count of the pass.
    fn keep(&mut self, weigher: Weigher, rule: Rule<'_>) -> (Vec<WeightedPair>, u64);

    /// Combines endpoint votes; returns the surviving pairs in pair
    /// order.
    fn combine(&mut self, mut kept: Vec<WeightedPair>, reciprocal: bool) -> Vec<WeightedPair> {
        kept.sort_unstable_by_key(|p| (p.a, p.b));
        combine_votes(kept, reciprocal)
    }
}

/// Builds the criterion of `scheme` × `pruning` over `driver`'s corpus.
/// Also returns the forward-edge count when a pass ran.
pub(crate) fn criterion<D: RowDriver>(
    driver: &mut D,
    scheme: WeightingScheme,
    pruning: &Pruning,
) -> (Criterion, Option<u64>) {
    let fold = match *pruning {
        Pruning::None | Pruning::Wnp { .. } => return (Criterion::Local, None),
        Pruning::Cnp { k, .. } => {
            // The default needs the active-node count — a counting pass
            // for the sweeping drivers — so it is only asked for then.
            let k = k.unwrap_or_else(|| {
                prune::default_cnp_k_from(driver.total_assignments(), driver.active_nodes())
            });
            return (Criterion::CnpK(k), None);
        }
        Pruning::Wep => CriterionFold::WepSums,
        Pruning::Cep(k) => {
            let k = k.unwrap_or_else(|| prune::default_cep_k_from(driver.total_assignments()));
            if k == 0 {
                // Degenerate cardinality (empty or single-assignment
                // collection): nothing to select.
                return (Criterion::Cep(Vec::new()), None);
            }
            CriterionFold::CepTop(k)
        }
        Pruning::Blast { ratio } => {
            assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
            CriterionFold::LocalMax
        }
        Pruning::Supervised(_) => CriterionFold::FeatureMax,
    };
    let (partial, forward) = driver.reduce(Weigher::of(scheme, pruning), &fold);
    (fold.finish(partial, driver.num_entities()), Some(forward))
}

/// The criterion a query-time resolve decides under. Same as
/// [`criterion`], except that BLAST stays [`Criterion::Local`]: one
/// resolve reads at most the queried neighbourhood's rows, and each
/// endpoint's bar comes from its own row — a corpus-wide maxima slab
/// would cost a full pass per corpus version to save nothing.
pub(crate) fn resolve_criterion<D: RowDriver>(
    driver: &mut D,
    scheme: WeightingScheme,
    pruning: &Pruning,
) -> Criterion {
    if let Pruning::Blast { ratio } = *pruning {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        return Criterion::Local;
    }
    criterion(driver, scheme, pruning).0
}

/// The supervised pruner's extractor over `driver`'s corpus, without a
/// model: the per-feature maxima over every forward edge.
pub(crate) fn feature_extractor<D: RowDriver>(driver: &mut D) -> FeatureExtractor {
    let fold = CriterionFold::FeatureMax;
    let (partial, _) = driver.reduce(Weigher::Features, &fold);
    FeatureExtractor::from_max(partial.maxima)
}

/// A full run of `scheme` × `pruning` over `driver`'s corpus: criterion
/// pass, keep pass, vote combination, presentation order.
pub(crate) fn run<D: RowDriver>(
    driver: &mut D,
    scheme: WeightingScheme,
    pruning: &Pruning,
) -> PrunedComparisons {
    let (criterion, counted) = criterion(driver, scheme, pruning);
    let (pairs, forward) = match criterion {
        Criterion::Cep(pairs) => (pairs, counted),
        // Explicit zero cardinality keeps nothing, but still reports
        // the input edges.
        Criterion::CnpK(0) => (Vec::new(), None),
        criterion => {
            let criterion = &criterion;
            let rule = Rule { pruning, criterion };
            let (mut pairs, forward) = driver.keep(Weigher::of(scheme, pruning), rule);
            if let Some(reciprocal) = rule.votes() {
                pairs = driver.combine(pairs, reciprocal);
            }
            // The unpruned outcome stays in pair order.
            if !matches!(pruning, Pruning::None) {
                prune::present(&mut pairs);
            }
            (pairs, Some(forward))
        }
    };
    let input_edges = forward.map_or_else(|| driver.num_edges(), |f| f as usize);
    PrunedComparisons { pairs, input_edges }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WNP: Pruning = Pruning::Wnp { reciprocal: false };

    fn cnp(k: usize) -> (Pruning, Criterion) {
        let pruning = Pruning::Cnp {
            reciprocal: false,
            k: Some(k),
        };
        (pruning, Criterion::CnpK(k))
    }

    /// Row entries from `(neighbour, weight)` pairs; the rules never read
    /// the count.
    fn entries<const N: usize>(pairs: [(u32, f64); N]) -> [Entry; N] {
        pairs.map(|(y, w)| Entry { y, cbs: 1, w })
    }

    fn row(a: u32, entries: &[Entry]) -> Row<'_> {
        Row {
            a,
            entries,
            features: &[],
        }
    }

    /// `(a, b, weight)` of what `row` contributes under a rule.
    fn kept(pruning: &Pruning, criterion: &Criterion, row: Row<'_>) -> Vec<(u32, u32, f64)> {
        let mut out = Vec::new();
        Rule { pruning, criterion }.contribute(row, &mut out);
        out.iter().map(|p| (p.a.0, p.b.0, p.weight)).collect()
    }

    /// The criterion a fold builds from the given rows of a 10-entity
    /// corpus, each row folded into its own sealed share.
    fn reduced(fold: CriterionFold, rows: &[Row<'_>]) -> Criterion {
        let shares = rows.iter().map(|&r| {
            let mut share = fold.init();
            fold.fold(&mut share, r);
            share.seal();
            share
        });
        let merged = Partial::merged(shares).unwrap_or_else(|| fold.init());
        fold.finish(merged, 10)
    }

    #[test]
    fn an_all_non_positive_row_keeps_nothing() {
        let dead = entries([(1, 0.0), (4, -1.0), (7, 0.0)]);
        let r = row(2, &dead);
        let wep = reduced(CriterionFold::WepSums, &[r]);
        assert!(matches!(wep, Criterion::Wep(bar) if bar == 0.0));
        assert!(kept(&Pruning::Wep, &wep, r).is_empty());
        let cep = reduced(CriterionFold::CepTop(5), &[r]);
        assert!(matches!(cep, Criterion::Cep(pairs) if pairs.is_empty()));
        assert!(kept(&WNP, &Criterion::Local, r).is_empty());
        let (cnp, k) = cnp(3);
        assert!(kept(&cnp, &k, r).is_empty());
        let blast = Pruning::Blast { ratio: 0.5 };
        assert!(kept(&blast, &Criterion::Local, r).is_empty());
        let maxima = reduced(CriterionFold::LocalMax, &[r]);
        assert!(kept(&blast, &maxima, r).is_empty());
    }

    #[test]
    fn a_weight_equal_to_the_threshold_is_kept() {
        // Forward weights 1, 2, 3: WEP's mean is exactly 2.
        let entries = entries([(3, 1.0), (5, 2.0), (8, 3.0)]);
        let r = row(0, &entries);
        let wep = reduced(CriterionFold::WepSums, &[r]);
        assert!(matches!(wep, Criterion::Wep(bar) if bar == 2.0));
        assert_eq!(kept(&Pruning::Wep, &wep, r), [(0, 5, 2.0), (0, 8, 3.0)]);
        // WNP's mean runs over the full row, backward entries included.
        let r = row(4, &entries);
        assert_eq!(kept(&WNP, &Criterion::Local, r), [(4, 5, 2.0), (4, 8, 3.0)]);
    }

    #[test]
    fn cnp_cardinality_edges() {
        let entries = entries([(1, 0.5), (3, 0.0), (6, 2.0), (9, 1.0)]);
        let r = row(4, &entries);
        // k ≥ row length: every *positive* entry, best first.
        let (pruning, k) = cnp(10);
        assert_eq!(
            kept(&pruning, &k, r),
            [(4, 6, 2.0), (4, 9, 1.0), (1, 4, 0.5)]
        );
        let (pruning, k) = cnp(0);
        assert!(kept(&pruning, &k, r).is_empty());
    }

    #[test]
    fn cardinality_ties_break_to_the_earlier_pair() {
        // Three edges of equal weight around entity 5; room for two.
        let tied = entries([(2, 1.0), (7, 1.0), (9, 1.0)]);
        let (pruning, k) = cnp(2);
        assert_eq!(
            kept(&pruning, &k, row(5, &tied)),
            [(2, 5, 1.0), (5, 7, 1.0)]
        );
        // CEP over two rows' forward edges, whichever share saw them.
        let (r0, r1) = (entries([(4, 1.0), (6, 1.0)]), entries([(4, 1.0)]));
        let rows = [row(0, &r0), row(1, &r1)];
        let Criterion::Cep(pairs) = reduced(CriterionFold::CepTop(2), &rows) else {
            panic!("CEP folds to its top-k");
        };
        let pairs: Vec<_> = pairs.iter().map(|p| (p.a.0, p.b.0)).collect();
        assert_eq!(pairs, [(0, 4), (0, 6)]);
    }

    /// CEP over nine tie-heavy forward edges dealt into three shares in
    /// every possible way, the sealed shares merged under both groupings:
    /// always the unsplit selection, at cardinalities below, at and above
    /// the edge count.
    #[test]
    fn sealed_shares_merge_to_the_unsplit_selection_however_split() {
        let edges: Vec<(u32, u32, f64)> = (0..5u32)
            .flat_map(|a| (a + 1..5).map(move |y| (a, y)))
            .take(9)
            .enumerate()
            .map(|(i, (a, y))| (a, y, [2.0, 1.0, 2.0, 3.0][i % 4]))
            .collect();
        let pairs_of = |criterion: Criterion| {
            let Criterion::Cep(pairs) = criterion else {
                panic!("CEP folds to its top-k");
            };
            let flat = |p: &WeightedPair| (p.a.0, p.b.0, p.weight.to_bits());
            pairs.iter().map(flat).collect::<Vec<_>>()
        };
        for k in [1, 4, 8, 9, 10] {
            let fold = CriterionFold::CepTop(k);
            let share_of = |which: &dyn Fn(usize) -> bool| {
                let mut share = fold.init();
                for (i, &(a, y, w)) in edges.iter().enumerate() {
                    if which(i) {
                        fold.fold(&mut share, row(a, &entries([(y, w)])));
                    }
                }
                share
            };
            // Weight descending, ties to the earlier pair, cut at k.
            let mut expect: Vec<_> = edges.iter().map(|&(a, y, w)| (a, y, w.to_bits())).collect();
            expect.sort_by_key(|&(a, y, w)| (Reverse(w), a, y));
            expect.truncate(k);
            // Unsplit, unsealed: `finish` seals what nobody sealed.
            assert_eq!(pairs_of(fold.finish(share_of(&|_| true), 10)), expect);
            for split in 0..3usize.pow(edges.len() as u32) {
                let sealed = |part: usize| {
                    let mut share = share_of(&|i| split / 3usize.pow(i as u32) % 3 == part);
                    share.seal();
                    share
                };
                let left = Partial::merged([sealed(0), sealed(1), sealed(2)]);
                let mut right = sealed(1);
                right.merge(sealed(2));
                let right = Partial::merged([sealed(0), right]);
                for merged in [left, right] {
                    let got = pairs_of(fold.finish(merged.expect("three shares"), 10));
                    assert_eq!(got, expect, "k {k}, split {split}");
                }
            }
        }
    }

    #[test]
    fn blast_keeps_an_edge_either_endpoint_admits() {
        let blast = Pruning::Blast { ratio: 0.5 };
        // 0's best edge is 10, so its bar (5) rejects the edge to 1; 1's
        // best is that very edge, so 1 admits it.
        let r0 = entries([(1, 2.0), (2, 10.0)]);
        let (r1, r2) = (entries([(0, 2.0)]), entries([(0, 10.0)]));
        let rows = [row(0, &r0), row(1, &r1), row(2, &r2)];
        let maxima = reduced(CriterionFold::LocalMax, &rows);
        assert_eq!(
            kept(&blast, &maxima, rows[0]),
            [(0, 1, 2.0), (0, 2, 10.0)],
            "forward pass decides both endpoints' votes from the slab"
        );
        let (pruning, criterion) = (&blast, &Criterion::Local);
        let local = Rule { pruning, criterion };
        assert!(!local.votes_for(rows[0], 1, 2.0), "0 alone rejects (0, 1)");
        assert!(local.votes_for(rows[1], 0, 2.0), "1 admits it");
        // With 0's bar raised past every weight of 1's, nobody admits it.
        let strict = Pruning::Blast { ratio: 1.0 };
        let (r1, r3) = (entries([(0, 2.0), (3, 4.0)]), entries([(1, 4.0)]));
        let rows = [row(0, &r0), row(1, &r1), row(2, &r2), row(3, &r3)];
        let maxima = reduced(CriterionFold::LocalMax, &rows);
        assert_eq!(kept(&strict, &maxima, rows[0]), [(0, 2, 10.0)]);
    }

    #[test]
    fn votes_for_is_membership_in_the_voters_contribution() {
        let entries = entries([(0, 3.0), (2, 0.0), (5, 1.0), (6, 2.0), (8, 2.0)]);
        let y = row(4, &entries);
        let (cnp, k) = cnp(2);
        let blast = Pruning::Blast { ratio: 0.6 };
        let cases = [(WNP, Criterion::Local), (cnp, k), (blast, Criterion::Local)];
        for (pruning, criterion) in &cases {
            let emitted = kept(pruning, criterion, y);
            assert!(!emitted.is_empty() && emitted.len() < entries.len());
            let rule = Rule { pruning, criterion };
            for &Entry { y: e, w, .. } in &entries {
                let pair = (e.min(4), e.max(4));
                assert_eq!(
                    rule.votes_for(y, e, w),
                    emitted.iter().any(|&(a, b, _)| (a, b) == pair),
                    "{pruning:?}: vote of 4 on {e}"
                );
            }
        }
    }

    #[test]
    fn combine_votes_union_vs_reciprocal() {
        let p = |a: u32, b: u32| normalised(a, b, 1.0);
        let kept = vec![p(0, 1), p(0, 1), p(0, 2), p(1, 3)];
        assert_eq!(combine_votes(kept.clone(), false).len(), 3);
        let recip = combine_votes(kept, true);
        assert_eq!(recip.len(), 1);
        assert_eq!((recip[0].a, recip[0].b), (EntityId(0), EntityId(1)));
    }
}
