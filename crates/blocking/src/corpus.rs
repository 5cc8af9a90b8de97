//! A dataset's keys per entity: [`KeyAssignments`], the runs a builder
//! accumulates, and [`Corpus`], one token pass numbered once.
//!
//! # One corpus per process
//!
//! The paper blocks two descriptions on a common token and weighs the
//! same tokens in their value similarity. [`Corpus::new`], the one product
//! caller of [`token_pass`], tokenises every description once; the first
//! reader that needs them has each key two descriptions share numbered
//! as a *slot*, in key-string order. Token blocking (a slot is a
//! provisional block), the incremental collection (a slot is an
//! updatable block) and the matcher of `minoan_er`
//! ([`Corpus::value_tokens`], no slots) are built from a corpus, and none
//! tokenises again. An entity's slots keep its run's symbol order: the
//! block build needs no other, and the incremental collection sorts its
//! own copy (sorting here cost the batch build more than the copy costs
//! there).

use crate::builders::{token_pass, TokenKeys};
use crate::layout::{count_cols_per_range, merge_counts, split_rows};
use minoan_common::{Interner, Symbol};
use minoan_rdf::Dataset;
use std::sync::{Arc, OnceLock};

/// Per-entity interned blocking keys — what the token pass
/// ([`token_pass`]) and every other per-entity builder accumulate, and
/// what a [`Corpus`] numbers.
///
/// Builders visit entities in ascending id order, push one interned
/// [`Symbol`] per raw token (interning happens *during* tokenisation, so
/// no `String` per token occurrence is ever accumulated), and call
/// [`Self::seal_entity`] once per entity; sealing sorts and dedups the
/// entity's run in place.
///
/// A key pushed through [`Self::push_key_prefixed`] is recorded as
/// *namespaced* (`uri:…`, `c3:…`); one pushed through [`Self::push_key`]
/// is a plain value token. A reader that wants the value tokens only —
/// the matcher — skips the namespaced symbols of a run.
#[derive(Default)]
pub struct KeyAssignments {
    keys: Interner,
    syms: Vec<Symbol>,
    /// `ends[e]` = end of entity `e`'s (sealed) run in `syms`.
    ends: Vec<u32>,
    /// `namespaced[s]`: symbol `s` was pushed with a prefix. Grown on
    /// demand, so a symbol past its end is plain.
    namespaced: Vec<bool>,
}

impl KeyAssignments {
    /// Pre-sizes the per-entity run table for `entities` entities.
    pub fn with_capacity(entities: usize) -> Self {
        Self {
            ends: Vec::with_capacity(entities),
            ..Self::default()
        }
    }

    /// Interns `key` and assigns it to the current entity.
    #[inline]
    pub fn push_key(&mut self, key: &str) {
        let sym = self.keys.intern(key);
        self.syms.push(sym);
    }

    /// Interns `{prefix}{key}` (namespaced key space, no `format!`
    /// allocation) and assigns it to the current entity.
    #[inline]
    pub fn push_key_prefixed(&mut self, prefix: &str, key: &str) {
        let sym = self.keys.intern_prefixed(prefix, key);
        self.mark_namespaced(sym);
        self.syms.push(sym);
    }

    fn mark_namespaced(&mut self, sym: Symbol) {
        if self.namespaced.len() <= sym.index() {
            self.namespaced.resize(sym.index() + 1, false);
        }
        self.namespaced[sym.index()] = true;
    }

    /// Seals the current entity: sorts and dedups its run. Must be called
    /// exactly once per entity, in ascending entity-id order.
    pub fn seal_entity(&mut self) {
        let start = self.ends.last().copied().unwrap_or(0) as usize;
        self.syms[start..].sort_unstable();
        let mut w = start;
        for r in start..self.syms.len() {
            if w == start || self.syms[r] != self.syms[w - 1] {
                self.syms[w] = self.syms[r];
                w += 1;
            }
        }
        self.syms.truncate(w);
        self.push_end();
    }

    fn push_end(&mut self) {
        self.ends
            .push(u32::try_from(self.syms.len()).expect("more than u32::MAX assignments"));
    }

    /// Appends `tail` — the sealed runs of the entities that follow this
    /// accumulator's, built over an interner of its own — as if they had
    /// been pushed and sealed here: `tail`'s strings are interned in its
    /// symbol order, i.e. in the order a continued serial pass would have
    /// met them first, so every symbol gets the number that pass would
    /// have given it; the runs are renumbered and sorted again.
    pub(crate) fn append(&mut self, tail: KeyAssignments) {
        let mut renumbered = Vec::with_capacity(tail.keys.len());
        for (local, key) in tail.keys.iter() {
            let sym = self.keys.intern(key);
            if tail.is_namespaced(local) {
                self.mark_namespaced(sym);
            }
            renumbered.push(sym);
        }
        self.syms.reserve(tail.syms.len());
        self.ends.reserve(tail.ends.len());
        for run in tail.runs() {
            let start = self.syms.len();
            self.syms.extend(run.iter().map(|s| renumbered[s.index()]));
            self.syms[start..].sort_unstable();
            self.push_end();
        }
    }

    /// Number of sealed entities so far.
    pub fn num_entities(&self) -> usize {
        self.ends.len()
    }

    /// Number of (deduplicated) key assignments so far.
    pub fn num_assignments(&self) -> usize {
        self.syms.len()
    }

    /// The key strings, by symbol.
    pub fn keys(&self) -> &Interner {
        &self.keys
    }

    /// The sealed runs, one per sealed entity in entity order: each
    /// ascending by symbol, without duplicates.
    pub fn runs(&self) -> impl Iterator<Item = &[Symbol]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.syms[start as usize..end as usize])
    }

    /// Whether `sym` was pushed with a prefix (a `uri:` key, say) rather
    /// than as a plain value token.
    pub fn is_namespaced(&self, sym: Symbol) -> bool {
        self.namespaced.get(sym.index()).copied().unwrap_or(false)
    }
}

/// A token pass over a dataset, numbered once (see the
/// [module docs](self)). Readers borrow it; the incremental collection,
/// which outlives its caller's frame, holds it through an [`Arc`].
pub struct Corpus<'d> {
    dataset: &'d Dataset,
    /// Which keys the pass kept; `None` for another builder's keys
    /// (q-grams, LSH bands, attribute clusters), read by a block build only.
    token_keys: Option<TokenKeys>,
    /// The interner, shared with the block collections built from it.
    pub(crate) keys: Arc<Interner>,
    /// The pass's sealed runs; its interner moved to `keys`.
    pass: KeyAssignments,
    /// The pass's worker count, which the numbering reuses.
    threads: usize,
    /// The slots, numbered by the first reader that needs them — a
    /// matcher needs none, and it can be built while a block build
    /// numbers them.
    slots: OnceLock<Slots>,
}

/// The keys at least two runs of a corpus share — the only keys that can
/// form a block — numbered as slots in key-string order.
pub(crate) struct Slots {
    /// Per slot: its key's symbol in the corpus's interner.
    pub(crate) keys: Vec<Symbol>,
    /// Entity `e`'s slots, in its run's symbol order:
    /// `runs[offsets[e]..offsets[e + 1]]`.
    pub(crate) offsets: Vec<u32>,
    pub(crate) runs: Vec<Symbol>,
}

impl<'d> Corpus<'d> {
    /// The token pass over `dataset` under `keys` on `threads` workers.
    /// Nothing in the corpus depends on `threads`.
    pub fn new(dataset: &'d Dataset, keys: TokenKeys, threads: usize) -> Self {
        let pass = token_pass(dataset, keys, threads);
        Self {
            token_keys: Some(keys),
            ..Self::from_assignments(dataset, pass, threads)
        }
    }

    /// The corpus of another builder's sealed `assignments`.
    pub(crate) fn from_assignments(
        dataset: &'d Dataset,
        mut assignments: KeyAssignments,
        threads: usize,
    ) -> Self {
        assert_eq!(
            assignments.num_entities(),
            dataset.len(),
            "assignments must seal every entity exactly once"
        );
        Self {
            dataset,
            token_keys: None,
            keys: Arc::new(std::mem::take(&mut assignments.keys)),
            pass: assignments,
            threads: threads.max(1),
            slots: OnceLock::new(),
        }
    }

    /// The slot numbering, made on the first call: each key at least two
    /// runs share gets a slot, in key-string order, and each run keeps
    /// its symbol order. Counting is entity-range parallel with an
    /// additive merge, so thread-count independent. A key's first eight
    /// bytes ride along as a big-endian integer: they order most pairs
    /// without a look at the arena, and a tie falls back to the strings
    /// themselves.
    pub(crate) fn slots(&self) -> &Slots {
        self.slots.get_or_init(|| {
            let (keys, KeyAssignments { syms, ends, .. }) = (&self.keys, &self.pass);
            let k = keys.len();
            let counts = merge_counts(
                &count_cols_per_range(ends, syms, k, &split_rows(ends, self.threads)),
                k,
            );
            let mut order: Vec<(u64, Symbol)> = (0..k as u32)
                .map(Symbol)
                .filter(|s| counts[s.index()] >= 2)
                .map(|s| {
                    let key = keys.resolve(s).as_bytes();
                    let mut head = [0u8; 8];
                    let len = key.len().min(8);
                    head[..len].copy_from_slice(&key[..len]);
                    (u64::from_be_bytes(head), s)
                })
                .collect();
            order.sort_unstable_by(|&(head_a, a), &(head_b, b)| {
                head_a
                    .cmp(&head_b)
                    .then_with(|| keys.resolve(a).cmp(keys.resolve(b)))
            });
            let mut slot_of = vec![Symbol(u32::MAX); k];
            for (slot, &(_, s)) in order.iter().enumerate() {
                slot_of[s.index()] = Symbol(slot as u32);
            }
            let mut runs = Vec::with_capacity(syms.len());
            let mut offsets = Vec::with_capacity(ends.len() + 1);
            offsets.push(0u32);
            for run in self.pass.runs() {
                let run = run.iter().map(|s| slot_of[s.index()]);
                runs.extend(run.filter(|&slot| slot.0 != u32::MAX));
                offsets.push(runs.len() as u32);
            }
            Slots {
                keys: order.into_iter().map(|(_, s)| s).collect(),
                offsets,
                runs,
            }
        })
    }

    /// Which keys the pass kept.
    pub fn token_keys(&self) -> Option<TokenKeys> {
        self.token_keys
    }

    /// The dataset the pass covers, every entity of it.
    pub fn dataset(&self) -> &'d Dataset {
        self.dataset
    }

    /// The key strings, by symbol.
    pub fn keys(&self) -> &Interner {
        &self.keys
    }

    /// Each entity's value tokens — its keys but the prefixed ones —
    /// ascending by symbol, in entity order.
    pub fn value_tokens(&self) -> impl Iterator<Item = impl Iterator<Item = Symbol> + '_> {
        let plain = |s: &Symbol| !self.pass.is_namespaced(*s);
        self.pass
            .runs()
            .map(move |run| run.iter().copied().filter(plain))
    }
}
