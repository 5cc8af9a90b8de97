//! String interning.
//!
//! Tokens, attribute names and URI fragments are repeated millions of times
//! in blocking. Interning replaces them with dense `u32` [`Symbol`]s so the
//! rest of the system hashes and compares integers, and block indexes can be
//! plain vectors indexed by symbol.
//!
//! # Layout
//!
//! Three flat buffers, no allocation per string:
//!
//! * `arena` — every interned string back to back, in interning order;
//! * `ends` — `ends[i]` is the byte offset one past symbol `i` in the arena
//!   (its start is `ends[i - 1]`, or 0), so [`Interner::resolve`] is two
//!   loads and a slice;
//! * `slots` — a power-of-two open-addressing table, linear probe, load
//!   ≤ ½. A slot is one `u64`: the upper half a 32-bit hash tag, the lower
//!   half `symbol + 1` (0 marks an empty slot). The probe starts at
//!   `tag & mask`, rejects a slot whose tag differs without touching the
//!   arena, and confirms a tag hit with one contiguous byte compare.
//!   Because the start index is a function of the tag alone, doubling the
//!   table re-places the slots it already has and never re-hashes a string.
//!
//! What allocates: the three buffers when they grow (amortised doubling;
//! [`Interner::with_capacity`] sizes them up front), and the composition
//! buffer of [`Interner::intern_prefixed`] the first time it is used. A hit
//! allocates nothing, a miss appends to the arena and to `ends`, and a
//! `Clone` is four buffer copies whatever the vocabulary size.
//!
//! # Contract
//!
//! Symbols are dense and ordered by first interning: the `k`-th distinct
//! string gets `Symbol(k)`. Block ids, `KeyAssignments` runs and the
//! matcher's in-order float sums all rely on that order, not just on
//! uniqueness.
//!
//! # Caps
//!
//! At most `u32::MAX` strings and 4 GiB of text in total; crossing either
//! is an `expect` panic ("interner overflow"), never a wrapped offset.

use crate::hash::fx_hash_bytes;
use std::fmt;

/// A dense handle to an interned string.
///
/// Symbols are only meaningful relative to the [`Interner`] that produced
/// them; they are ordered by first-interning time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The raw index of this symbol, usable as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// Smallest table allocated; a power of two.
const MIN_SLOTS: usize = 16;

/// Arena bytes reserved per expected string by [`Interner::with_capacity`]
/// (blocking tokens average 6–7 bytes).
const BYTES_PER_STRING: usize = 8;

/// The 32-bit tag of `s`: both its home slot (`tag & mask`) and the value
/// compared before the arena is touched. Fx ends in a multiply, so its low
/// bits see only the first bytes of a short token; one widening multiply
/// folded onto itself spreads every input byte over all 32 bits kept.
#[inline]
fn tag_of(s: &str) -> u32 {
    const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;
    let wide = u128::from(fx_hash_bytes(s.as_bytes())) * u128::from(FOLD);
    (wide >> 64) as u32 ^ wide as u32
}

/// An append-only string interner.
///
/// Strings are stored once; [`Interner::intern`] returns the existing symbol
/// for a known string. Lookup back to `&str` is O(1). See the module docs
/// for the storage layout.
#[derive(Default, Clone)]
pub struct Interner {
    arena: String,
    /// End offset of each symbol's string in `arena`.
    ends: Vec<u32>,
    /// `tag << 32 | symbol + 1`, 0 = empty; length 0 or a power of two.
    slots: Vec<u64>,
    /// Reused composition buffer for [`Interner::intern_prefixed`].
    scratch: String,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interner with capacity for `n` distinct strings.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            // lint:allow(hot-path-alloc): the arena itself, once per interner
            arena: String::with_capacity(n.saturating_mul(BYTES_PER_STRING)),
            ends: Vec::with_capacity(n),
            slots: vec![0; n.saturating_mul(2).next_power_of_two().max(MIN_SLOTS)],
            ..Self::default()
        }
    }

    /// Interns `s`, returning its dense symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        // Room for one more first, so the vacant slot a miss finds stays
        // valid and the table is never empty when probed.
        if (self.ends.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let tag = tag_of(s);
        self.probe(s, tag).unwrap_or_else(|vacant| {
            let stored = u32::try_from(self.ends.len() + 1)
                .expect("interner overflow: more than u32::MAX strings");
            self.arena.push_str(s);
            let end = u32::try_from(self.arena.len())
                .expect("interner overflow: more than 4 GiB of text");
            self.ends.push(end);
            self.slots[vacant] = u64::from(tag) << 32 | u64::from(stored);
            Symbol(stored - 1)
        })
    }

    /// Interns the concatenation `{prefix}{rest}` without allocating a
    /// fresh `String` per call: the two parts are composed in a reused
    /// internal buffer. This is how namespaced key spaces (e.g. the
    /// `uri:` prefix of URI-infix blocking) stay disjoint without a
    /// `format!` allocation per token.
    pub fn intern_prefixed(&mut self, prefix: &str, rest: &str) -> Symbol {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.push_str(prefix);
        scratch.push_str(rest);
        let sym = self.intern(&scratch);
        self.scratch = scratch;
        sym
    }

    /// Returns the symbol for `s` if it was interned before.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(s, tag_of(s)).ok()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.arena[self.span(sym.index())]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no string has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(Symbol, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        let mut start = 0;
        self.ends.iter().enumerate().map(move |(i, &end)| {
            let s = &self.arena[start..end as usize];
            start = end as usize;
            (Symbol(i as u32), s)
        })
    }

    /// Byte range of symbol `i` in the arena.
    #[inline]
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        start..self.ends[i] as usize
    }

    /// Walks the probe sequence of `tag` to the symbol of `s`, or else to
    /// the empty slot where `s` belongs (`Err`, as `binary_search` reports
    /// an insertion point). The table must be non-empty; load ≤ ½
    /// guarantees an empty slot exists.
    #[inline]
    fn probe(&self, s: &str, tag: u32) -> Result<Symbol, usize> {
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return Err(i);
            }
            if (slot >> 32) as u32 == tag {
                let sym = slot as u32 - 1;
                if self.arena.as_bytes()[self.span(sym as usize)] == *s.as_bytes() {
                    return Ok(Symbol(sym));
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table (or allocates the first one) and re-places every
    /// occupied slot by its stored tag; the arena is not read.
    #[cold]
    fn grow(&mut self) {
        let doubled = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![0; doubled]);
        let mask = doubled - 1;
        for slot in old.into_iter().filter(|&slot| slot != 0) {
            let mut i = (slot >> 32) as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("dbpedia");
        let b = i.intern("dbpedia");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn symbols_are_dense_and_resolve() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.resolve(a), "a");
        assert_eq!(i.resolve(b), "b");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let s = i.intern("x");
        assert_eq!(i.get("x"), Some(s));
    }

    #[test]
    fn iter_preserves_order() {
        let mut i = Interner::new();
        for w in ["t0", "t1", "t2"] {
            i.intern(w);
        }
        let collected: Vec<&str> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(collected, vec!["t0", "t1", "t2"]);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let i = Interner::with_capacity(128);
        assert!(i.is_empty());
    }

    #[test]
    fn intern_prefixed_equals_concatenation() {
        let mut i = Interner::new();
        let a = i.intern_prefixed("uri:", "knossos");
        let b = i.intern("uri:knossos");
        assert_eq!(a, b);
        assert_eq!(i.resolve(a), "uri:knossos");
        // Distinct namespaces stay disjoint.
        let plain = i.intern("knossos");
        assert_ne!(a, plain);
        assert_eq!(i.len(), 2);
    }

    /// Drives `interner` and a `HashMap<String, u32>` model through the
    /// same stream — awkward fixed strings first, then a few thousand random
    /// ones over an alphabet small enough to repeat — and checks every
    /// answer against the model.
    fn differential(mut interner: Interner, seed: u64) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::HashMap;

        // Empty, prefixes of each other, 8-byte multiples (where Fx mixes in
        // no length), NULs, non-ASCII, and a namespace next to its member.
        const FIXED: [&str; 14] = [
            "",
            "a",
            "ab",
            "abc",
            "abcdefgh",
            "abcdefgh\0",
            "abcdefghabcdefgh",
            "\0\0\0\0\0\0\0\0",
            "é",
            "éé",
            "ς",
            "καφές",
            "uri:",
            "uri:knossos",
        ];
        const ALPHABET: [char; 6] = ['a', 'b', 'c', '\0', 'é', 'ς'];
        let initial_slots = interner.slots.len().max(MIN_SLOTS);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model: HashMap<String, u32> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        for step in 0..6_000 {
            let s: String = match FIXED.get(step) {
                Some(fixed) => (*fixed).into(),
                None => {
                    let len = if rng.gen() {
                        rng.gen_range(0..=4)
                    } else {
                        rng.gen_range(5..=24)
                    };
                    (0..len)
                        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                        .collect()
                }
            };
            let known = model.get(&s).copied();
            assert_eq!(interner.get(&s).map(|sym| sym.0), known, "get({s:?})");
            assert_eq!(interner.len(), model.len(), "get interned {s:?}");
            let want = known.unwrap_or_else(|| {
                order.push(s.clone());
                let next = model.len() as u32;
                model.insert(s.clone(), next);
                next
            });
            let got = if rng.gen() {
                interner.intern(&s)
            } else {
                let cuts: Vec<usize> = (0..=s.len()).filter(|&i| s.is_char_boundary(i)).collect();
                let cut = cuts[rng.gen_range(0..cuts.len())];
                interner.intern_prefixed(&s[..cut], &s[cut..])
            };
            assert_eq!(got.0, want, "intern({s:?})");
            assert_eq!(interner.resolve(got), s);
            assert_eq!(interner.len(), model.len());
        }
        assert!(
            interner.slots.len() >= initial_slots << 4,
            "{} strings must double the table at least four times",
            model.len()
        );
        assert!(interner.len() * 2 <= interner.slots.len(), "load above ½");
        let listed: Vec<(u32, &str)> = interner.iter().map(|(sym, s)| (sym.0, s)).collect();
        let expected: Vec<(u32, &str)> = (0..).zip(order.iter().map(String::as_str)).collect();
        assert_eq!(listed, expected, "iter() is interning order");

        // A clone shares nothing: each side grows alone from the common prefix.
        let mut copy = interner.clone();
        let common = interner.len() as u32;
        assert_eq!(interner.intern("only in the original"), Symbol(common));
        assert_eq!(copy.intern("only in the copy"), Symbol(common));
        assert_eq!(copy.intern("second in the copy"), Symbol(common + 1));
        assert_eq!(interner.get("only in the copy"), None);
        assert_eq!(copy.get("only in the original"), None);
        assert_eq!(interner.resolve(Symbol(common)), "only in the original");
        assert_eq!(copy.resolve(Symbol(common)), "only in the copy");
        assert_eq!(
            (interner.len(), copy.len()),
            (order.len() + 1, order.len() + 2)
        );
        for (sym, s) in (0..).zip(&order) {
            assert_eq!(interner.get(s), Some(Symbol(sym)));
            assert_eq!(copy.resolve(Symbol(sym)), s);
        }
    }

    #[test]
    fn agrees_with_a_hash_map_model_from_an_empty_start() {
        let empty = Interner::new();
        assert_eq!(empty.get(""), None);
        differential(empty, 17);
    }

    #[test]
    fn agrees_with_a_hash_map_model_from_a_sized_start() {
        let sized = Interner::with_capacity(40);
        assert_eq!((sized.slots.len(), sized.get("")), (128, None));
        differential(sized, 18);
    }
}
