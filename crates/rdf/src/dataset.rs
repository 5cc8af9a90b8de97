//! Entity-centric view over RDF knowledge bases.
//!
//! ER algorithms do not work on triples but on *entity descriptions*: the
//! set of attribute–value pairs sharing a subject URI (paper §1). A
//! [`Dataset`] holds the descriptions of one or more KBs plus the
//! *neighbour graph* — which descriptions link to which via resource-valued
//! attributes — that the progressive update phase exploits as similarity
//! evidence.
//!
//! # Layout
//!
//! A dataset is a handful of flat slabs; no description, attribute or URI
//! is a heap object of its own:
//!
//! * `uris` — an [`Interner`] over the subject URIs. Only subjects are
//!   interned, so its contract (the `k`-th distinct string is symbol `k`)
//!   *is* the entity numbering: symbol `k` is [`EntityId`]`(k)`, entities
//!   are numbered by first mention as a subject, and
//!   [`Dataset::entity_by_uri`] is one interner probe.
//! * `kb_of` — the owning KB of every entity, dense.
//! * `text` — one arena holding every attribute value back to back.
//! * `attrs` / `attr_offsets` — the attribute rows in CSR form: entity
//!   `e`'s attributes are `attrs[attr_offsets[e]..attr_offsets[e + 1]]`, in
//!   statement order; an attribute is a predicate symbol, a span of `text`
//!   and whether the value is a resource.
//! * `neighbors` / `neighbor_offsets` — the neighbour graph, CSR as well.
//!
//! [`Description`] and [`Value`] are `Copy` views borrowing from those
//! slabs. [`DatasetBuilder`] is the same arena and interners plus an
//! append-only attribute **log** in statement order; `build` turns the log
//! into rows with one stable counting sort, skipped when the log's entity
//! ids never decrease (every subject-grouped dump).
//!
//! What allocates: the slabs when they grow (amortised doubling), per
//! statement nothing. Dropping a dataset frees a dozen buffers.
//!
//! # Caps
//!
//! At most `u32::MAX` entities, `u32::MAX` attributes and 4 GiB of
//! attribute text (and the interner's 4 GiB of subject URIs); crossing one
//! is an `expect` panic ("dataset overflow" / "interner overflow"), never a
//! wrapped offset. At most 65 536 KBs. Both interners hash with unkeyed
//! Fx, as the URI index they replace did: a dump crafted to collide slows
//! their probes, never changes their answers.

use crate::term::push_escaped_literal;
use crate::tokenize;
use minoan_common::{Interner, Symbol};
use std::fmt;

mod load;

pub use load::LoadError;

/// Dense id of a description within a [`Dataset`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

impl EntityId {
    /// Raw index usable against dataset-sized vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Id of a knowledge base within a [`Dataset`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct KbId(pub u16);

impl KbId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An attribute value, borrowed from its [`Dataset`]: either a literal
/// string or a reference to another resource by URI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value<'d> {
    /// Literal lexical form (language tags / datatypes are dropped — the
    /// schema-agnostic algorithms only use the lexical form).
    Literal(&'d str),
    /// URI of the referenced resource.
    Resource(&'d str),
}

impl<'d> Value<'d> {
    /// The literal form, if any.
    pub fn as_literal(self) -> Option<&'d str> {
        match self {
            Value::Literal(s) => Some(s),
            Value::Resource(_) => None,
        }
    }

    /// The resource URI, if any.
    pub fn as_resource(self) -> Option<&'d str> {
        match self {
            Value::Resource(s) => Some(s),
            Value::Literal(_) => None,
        }
    }

    /// The stored text, whichever kind it is.
    pub fn text(self) -> &'d str {
        match self {
            Value::Literal(s) | Value::Resource(s) => s,
        }
    }
}

/// One stored attribute: its predicate and where its value sits in the
/// text arena.
#[derive(Clone, Copy)]
struct Attr {
    predicate: Symbol,
    start: u32,
    len: u32,
    resource: bool,
}

impl Attr {
    /// The value's text in `arena`.
    #[inline]
    fn text(self, arena: &str) -> &str {
        &arena[self.start as usize..][..self.len as usize]
    }

    #[inline]
    fn value(self, arena: &str) -> Value<'_> {
        if self.resource {
            Value::Resource(self.text(arena))
        } else {
            Value::Literal(self.text(arena))
        }
    }
}

/// One entity description — all attribute–value pairs of a subject URI —
/// as a `Copy` view into its [`Dataset`].
#[derive(Clone, Copy)]
pub struct Description<'d> {
    dataset: &'d Dataset,
    entity: EntityId,
}

impl<'d> Description<'d> {
    /// Subject URI.
    pub fn uri(self) -> &'d str {
        self.dataset.uri(self.entity)
    }

    /// Owning knowledge base.
    pub fn kb(self) -> KbId {
        self.dataset.kb_of(self.entity)
    }

    /// Attribute–value pairs in statement order; attribute names are
    /// symbols of the dataset's predicate interner.
    pub fn attributes(self) -> impl ExactSizeIterator<Item = (Symbol, Value<'d>)> + 'd {
        let text = self.dataset.text.as_str();
        self.dataset
            .row(self.entity)
            .iter()
            .map(move |a| (a.predicate, a.value(text)))
    }

    /// Iterates literal values only.
    pub fn literals(self) -> impl Iterator<Item = &'d str> + 'd {
        self.attributes().filter_map(|(_, v)| v.as_literal())
    }

    /// Iterates resource-valued attributes only.
    pub fn resources(self) -> impl Iterator<Item = &'d str> + 'd {
        self.attributes().filter_map(|(_, v)| v.as_resource())
    }
}

impl fmt::Debug for Description<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Description")
            .field("uri", &self.uri())
            .field("kb", &self.kb())
            .field("attributes", &self.attributes().collect::<Vec<_>>())
            .finish()
    }
}

/// Metadata of one knowledge base.
#[derive(Clone, Debug, Default)]
pub struct KbInfo {
    /// Human-readable name (e.g. "dbpedia").
    pub name: Box<str>,
    /// URI namespace prefix of its entities.
    pub namespace: Box<str>,
    /// Number of descriptions contributed.
    pub entity_count: u32,
}

/// A set of knowledge bases viewed as entity descriptions + neighbour graph.
///
/// Construction goes through [`DatasetBuilder`]; a built dataset is
/// immutable, which lets every downstream algorithm borrow it freely. See
/// the module docs for the storage layout.
pub struct Dataset {
    predicates: Interner,
    /// Per predicate symbol: whether its IRI contains `label`, `name` or
    /// `title` in any ASCII letter case (decided once at build).
    name_like: Vec<bool>,
    /// Subject URIs; symbol `k` is `EntityId(k)`.
    uris: Interner,
    kb_of: Vec<KbId>,
    /// Every attribute value, back to back.
    text: String,
    /// Entity `e`'s attributes are `attrs[attr_offsets[e]..attr_offsets[e + 1]]`.
    attr_offsets: Vec<u32>,
    attrs: Vec<Attr>,
    kbs: Vec<KbInfo>,
    /// Undirected, deduplicated adjacency in CSR form: the entities that
    /// `e` links to or is linked from via resource-valued attributes are
    /// `neighbors[neighbor_offsets[e]..neighbor_offsets[e + 1]]`, ascending.
    neighbor_offsets: Vec<usize>,
    neighbors: Vec<EntityId>,
    per_kb: Vec<Vec<EntityId>>,
}

impl Dataset {
    /// Number of descriptions across all KBs.
    pub fn len(&self) -> usize {
        self.kb_of.len()
    }

    /// Whether the dataset holds no description.
    pub fn is_empty(&self) -> bool {
        self.kb_of.is_empty()
    }

    /// Number of knowledge bases.
    pub fn kb_count(&self) -> usize {
        self.kbs.len()
    }

    /// Metadata of KB `kb`.
    pub fn kb(&self, kb: KbId) -> &KbInfo {
        &self.kbs[kb.index()]
    }

    /// All KB metadata in id order.
    pub fn kbs(&self) -> &[KbInfo] {
        &self.kbs
    }

    /// Iterates all entity ids in increasing order.
    pub fn entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        (0..self.kb_of.len() as u32).map(EntityId)
    }

    /// Entity ids belonging to `kb`, in increasing order.
    pub fn entities_of_kb(&self, kb: KbId) -> &[EntityId] {
        &self.per_kb[kb.index()]
    }

    /// The description of `e`.
    pub fn description(&self, e: EntityId) -> Description<'_> {
        Description {
            dataset: self,
            entity: e,
        }
    }

    /// Owning KB of `e`.
    #[inline]
    pub fn kb_of(&self, e: EntityId) -> KbId {
        self.kb_of[e.index()]
    }

    /// Subject URI of `e`.
    pub fn uri(&self, e: EntityId) -> &str {
        self.uris.resolve(Symbol(e.0))
    }

    /// Looks an entity up by its subject URI.
    pub fn entity_by_uri(&self, uri: &str) -> Option<EntityId> {
        self.uris.get(uri).map(|symbol| EntityId(symbol.0))
    }

    /// Neighbouring (linked) descriptions of `e`, sorted ascending.
    pub fn neighbors(&self, e: EntityId) -> &[EntityId] {
        let i = e.index();
        &self.neighbors[self.neighbor_offsets[i]..self.neighbor_offsets[i + 1]]
    }

    /// The predicate interner (attribute-name symbols ↔ strings).
    pub fn predicates(&self) -> &Interner {
        &self.predicates
    }

    /// Resolves a predicate symbol to its IRI/name.
    pub fn predicate_name(&self, p: Symbol) -> &str {
        self.predicates.resolve(p)
    }

    /// The attribute row of `e`.
    #[inline]
    fn row(&self, e: EntityId) -> &[Attr] {
        let i = e.index();
        &self.attrs[self.attr_offsets[i] as usize..self.attr_offsets[i + 1] as usize]
    }

    /// All blocking tokens of `e`: tokens of every literal value plus the
    /// URI-infix tokens of every resource value and of the subject URI.
    pub fn blocking_tokens(&self, e: EntityId) -> Vec<String> {
        let mut out = Vec::with_capacity(self.row(e).len() * 3);
        for (_, v) in self.description(e).attributes() {
            match v {
                Value::Literal(s) => out.extend(tokenize::value_tokens(s)),
                Value::Resource(u) => out.extend(tokenize::uri_infix_tokens(u)),
            }
        }
        out
    }

    /// Visits all blocking tokens of `e` — the same tokens, in the same
    /// order, as [`Self::blocking_tokens`] — without allocating a
    /// `String` per token. This is the hot path of the string-free block
    /// builders: each token is composed in `buffers` and borrowed by `f`
    /// for the duration of the call (typically to intern it). Consecutive
    /// entities read consecutive rows and consecutive arena bytes.
    pub fn for_each_blocking_token(
        &self,
        e: EntityId,
        buffers: &mut tokenize::TokenBuffers,
        mut f: impl FnMut(&str),
    ) {
        for a in self.row(e) {
            let text = a.text(&self.text);
            if a.resource {
                tokenize::uri_infix_tokens_with(text, buffers, &mut f);
            } else {
                tokenize::value_tokens_with(text, buffers, &mut f);
            }
        }
    }

    /// Tokens of literal values only (no URI evidence).
    pub fn literal_tokens(&self, e: EntityId) -> Vec<String> {
        let mut out = Vec::new();
        for s in self.description(e).literals() {
            out.extend(tokenize::value_tokens(s));
        }
        out
    }

    /// Literal values of "name-like" attributes (`label`, `name`, `title`),
    /// used by string-similarity matchers.
    pub fn name_values(&self, e: EntityId) -> Vec<&str> {
        self.name_literals(e).collect()
    }

    /// The first of [`Self::name_values`], without collecting the rest.
    pub fn first_name_value(&self, e: EntityId) -> Option<&str> {
        self.name_literals(e).next()
    }

    fn name_literals(&self, e: EntityId) -> impl Iterator<Item = &str> {
        self.row(e)
            .iter()
            .filter(|a| !a.resource && self.name_like[a.predicate.index()])
            .map(|a| a.text(&self.text))
    }

    /// Serialises KB `kb` as an N-Triples document, written straight from
    /// the slabs: byte for byte what [`crate::ntriples::write_document`]
    /// makes of the KB's attributes as triples.
    pub fn to_ntriples(&self, kb: KbId) -> String {
        let entities = self.entities_of_kb(kb);
        let statements: usize = entities.iter().map(|&e| self.row(e).len()).sum();
        // lint:allow(hot-path-alloc): the document itself, once per KB
        let mut out = String::with_capacity(statements * 80);
        for &e in entities {
            let uri = self.uri(e);
            for a in self.row(e) {
                out.push('<');
                out.push_str(uri);
                out.push_str("> <");
                out.push_str(self.predicates.resolve(a.predicate));
                out.push_str("> ");
                let text = a.text(&self.text);
                if a.resource {
                    out.push('<');
                    out.push_str(text);
                    out.push('>');
                } else {
                    out.push('"');
                    push_escaped_literal(&mut out, text);
                    out.push('"');
                }
                out.push_str(" .\n");
            }
        }
        out
    }
}

impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dataset")
            .field("kbs", &self.kbs.len())
            .field("entities", &self.len())
            .field("vocabulary", &self.predicates.len())
            .finish()
    }
}

/// Incremental [`Dataset`] construction: attribute by attribute
/// ([`Self::add_literal`], [`Self::add_resource`]), statement by statement
/// ([`Self::add_statement`]) or a whole RDF document at a time
/// ([`Self::load_file`] and its siblings).
///
/// The builder is the dataset's interners and text arena plus the
/// attribute log: `subjects[i]` owns `attrs[i]`, in the order the
/// attributes were added. An added attribute is an append to the arena and
/// to the log; a subject's first mention an append to the URI interner.
#[derive(Default)]
pub struct DatasetBuilder {
    predicates: Interner,
    uris: Interner,
    kb_of: Vec<KbId>,
    kbs: Vec<KbInfo>,
    text: String,
    subjects: Vec<EntityId>,
    attrs: Vec<Attr>,
    /// Reused composition buffer for scoped blank-node subject URIs.
    blank_uri: String,
}

/// Whether `haystack` contains `needle` in any ASCII letter case.
fn contains_ignore_ascii_case(haystack: &str, needle: &str) -> bool {
    haystack
        .as_bytes()
        .windows(needle.len())
        .any(|window| window.eq_ignore_ascii_case(needle.as_bytes()))
}

impl DatasetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a knowledge base and returns its id.
    ///
    /// # Panics
    /// Panics after 65 536 KBs (the `u16` id space).
    pub fn add_kb(&mut self, name: &str, namespace: &str) -> KbId {
        let id = KbId(u16::try_from(self.kbs.len()).expect("too many KBs"));
        self.kbs.push(KbInfo {
            name: name.into(),
            namespace: namespace.into(),
            entity_count: 0,
        });
        id
    }

    /// The entity of `subject`, created in `kb` on its first mention.
    fn entity_for(&mut self, kb: KbId, subject: &str) -> EntityId {
        let e = EntityId(self.uris.intern(subject).0);
        if e.index() == self.kb_of.len() {
            self.kb_of.push(kb);
            self.kbs[kb.index()].entity_count += 1;
        }
        e
    }

    /// Logs an attribute of `entity` whose value is the arena's tail from
    /// byte `start` on (the caller has just appended it).
    fn log(&mut self, entity: EntityId, predicate: Symbol, start: usize, resource: bool) {
        let end = u32::try_from(self.text.len())
            .expect("dataset overflow: more than 4 GiB of attribute text");
        self.subjects.push(entity);
        self.attrs.push(Attr {
            predicate,
            // `start <= end`, so both fit.
            start: start as u32,
            len: end - start as u32,
            resource,
        });
    }

    /// The log's length, which attribute offsets and log indices hold as
    /// `u32`.
    fn logged(&self) -> u32 {
        u32::try_from(self.attrs.len()).expect("dataset overflow: more than u32::MAX attributes")
    }

    fn add_attribute(
        &mut self,
        kb: KbId,
        subject: &str,
        predicate: &str,
        text: &str,
        resource: bool,
    ) {
        let predicate = self.predicates.intern(predicate);
        let entity = self.entity_for(kb, subject);
        let start = self.text.len();
        self.text.push_str(text);
        self.log(entity, predicate, start, resource);
    }

    /// Adds a literal-valued attribute to `subject` (creating its
    /// description on first mention).
    pub fn add_literal(&mut self, kb: KbId, subject: &str, predicate: &str, value: &str) {
        self.add_attribute(kb, subject, predicate, value, false);
    }

    /// Adds a resource-valued attribute (a link) to `subject`.
    pub fn add_resource(&mut self, kb: KbId, subject: &str, predicate: &str, object_uri: &str) {
        self.add_attribute(kb, subject, predicate, object_uri, true);
    }

    /// Finalises the dataset: resolves resource links into the undirected
    /// neighbour graph, groups the attribute log into per-entity rows and
    /// freezes all indexes.
    pub fn build(self) -> Dataset {
        let n = self.kb_of.len();

        // Both directions of every resolved link, sorted: each entity's
        // neighbours are then one ascending, duplicate-free run.
        let mut edges: Vec<(EntityId, EntityId)> = Vec::new();
        for (&src, attr) in self.subjects.iter().zip(&self.attrs) {
            if !attr.resource {
                continue;
            }
            if let Some(target) = self.uris.get(attr.text(&self.text)) {
                let dst = EntityId(target.0);
                if dst != src {
                    edges.push((src, dst));
                    edges.push((dst, src));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut neighbor_offsets = vec![0usize; n + 1];
        for &(src, _) in &edges {
            neighbor_offsets[src.index() + 1] += 1;
        }
        for i in 0..n {
            neighbor_offsets[i + 1] += neighbor_offsets[i];
        }
        let neighbors: Vec<EntityId> = edges.iter().map(|&(_, dst)| dst).collect();

        // Rows: a stable counting sort of the log by entity — which a log
        // whose entity ids never decrease has already been through. The
        // log's length fits the `u32` offsets, or `logged` panics.
        self.logged();
        let mut attr_offsets = vec![0u32; n + 1];
        for subject in &self.subjects {
            attr_offsets[subject.index() + 1] += 1;
        }
        for i in 0..n {
            attr_offsets[i + 1] += attr_offsets[i];
        }
        let attrs = if self.subjects.is_sorted() {
            self.attrs
        } else {
            let mut next = attr_offsets.clone();
            let mut rows = self.attrs.clone();
            for (subject, attr) in self.subjects.iter().zip(&self.attrs) {
                let at = &mut next[subject.index()];
                rows[*at as usize] = *attr;
                *at += 1;
            }
            rows
        };

        let mut per_kb: Vec<Vec<EntityId>> = vec![Vec::new(); self.kbs.len()];
        for (e, kb) in self.kb_of.iter().enumerate() {
            per_kb[kb.index()].push(EntityId(e as u32));
        }
        let name_like = self
            .predicates
            .iter()
            .map(|(_, iri)| {
                ["label", "name", "title"]
                    .iter()
                    .any(|part| contains_ignore_ascii_case(iri, part))
            })
            .collect();
        Dataset {
            name_like,
            predicates: self.predicates,
            uris: self.uris,
            kb_of: self.kb_of,
            text: self.text,
            attr_offsets,
            attrs,
            kbs: self.kbs,
            neighbor_offsets,
            neighbors,
            per_kb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        let mut b = DatasetBuilder::new();
        let kb0 = b.add_kb("dbpedia", "http://db.org/r/");
        let kb1 = b.add_kb("yago", "http://yago.org/r/");
        b.add_literal(
            kb0,
            "http://db.org/r/Heraklion",
            "http://db.org/o/label",
            "Heraklion",
        );
        b.add_resource(
            kb0,
            "http://db.org/r/Heraklion",
            "http://db.org/o/region",
            "http://db.org/r/Crete",
        );
        b.add_literal(
            kb0,
            "http://db.org/r/Crete",
            "http://db.org/o/label",
            "Crete",
        );
        b.add_literal(
            kb1,
            "http://yago.org/r/Iraklio",
            "http://yago.org/o/name",
            "Iraklio city",
        );
        b.build()
    }

    #[test]
    fn builder_groups_by_subject() {
        let ds = small();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.kb_count(), 2);
        let h = ds.entity_by_uri("http://db.org/r/Heraklion").unwrap();
        assert_eq!(ds.description(h).attributes().len(), 2);
        assert_eq!(ds.kb_of(h), KbId(0));
        assert_eq!(ds.kb(KbId(0)).entity_count, 2);
        assert_eq!(ds.kb(KbId(1)).entity_count, 1);
    }

    #[test]
    fn neighbor_graph_is_undirected() {
        let ds = small();
        let h = ds.entity_by_uri("http://db.org/r/Heraklion").unwrap();
        let c = ds.entity_by_uri("http://db.org/r/Crete").unwrap();
        assert_eq!(ds.neighbors(h), &[c]);
        assert_eq!(ds.neighbors(c), &[h]);
    }

    #[test]
    fn dangling_resource_links_are_ignored() {
        let mut b = DatasetBuilder::new();
        let kb = b.add_kb("kb", "http://k/");
        b.add_resource(kb, "http://k/a", "http://k/p", "http://elsewhere/unknown");
        let ds = b.build();
        let a = ds.entity_by_uri("http://k/a").unwrap();
        assert!(ds.neighbors(a).is_empty());
    }

    #[test]
    fn self_links_are_dropped() {
        let mut b = DatasetBuilder::new();
        let kb = b.add_kb("kb", "http://k/");
        b.add_resource(kb, "http://k/a", "http://k/p", "http://k/a");
        let ds = b.build();
        let a = ds.entity_by_uri("http://k/a").unwrap();
        assert!(ds.neighbors(a).is_empty());
    }

    #[test]
    fn blocking_tokens_mix_literals_and_uris() {
        let ds = small();
        let h = ds.entity_by_uri("http://db.org/r/Heraklion").unwrap();
        let toks = ds.blocking_tokens(h);
        assert!(toks.contains(&"heraklion".to_string()));
        assert!(
            toks.contains(&"crete".to_string()),
            "resource infix token missing: {toks:?}"
        );
        let lit = ds.literal_tokens(h);
        assert!(!lit.contains(&"crete".to_string()));
    }

    #[test]
    fn name_values_pick_label_like_attributes() {
        let ds = small();
        let i = ds.entity_by_uri("http://yago.org/r/Iraklio").unwrap();
        assert_eq!(ds.name_values(i), vec!["Iraklio city"]);
        assert_eq!(ds.first_name_value(i), Some("Iraklio city"));
        let mut b = DatasetBuilder::new();
        let kb = b.add_kb("kb", "http://k/");
        b.add_literal(kb, "http://k/a", "http://k/o/population", "12");
        b.add_resource(kb, "http://k/a", "http://k/o/TITLE", "http://k/b");
        b.add_literal(kb, "http://k/a", "http://k/o/prefLabel", "first");
        b.add_literal(kb, "http://k/a", "http://k/o/FullName", "second");
        let ds = b.build();
        let a = ds.entity_by_uri("http://k/a").unwrap();
        assert_eq!(ds.name_values(a), vec!["first", "second"]);
        assert_eq!(ds.first_name_value(a), Some("first"));
    }

    #[test]
    fn per_kb_partition_is_complete() {
        let ds = small();
        let total: usize = (0..ds.kb_count())
            .map(|k| ds.entities_of_kb(KbId(k as u16)).len())
            .sum();
        assert_eq!(total, ds.len());
    }

    #[test]
    fn ntriples_round_trip_through_builder() {
        let ds = small();
        let doc = ds.to_ntriples(KbId(0));
        let mut b = DatasetBuilder::new();
        b.add_ntriples_kb("copy", "http://db.org/r/", &doc).unwrap();
        let copy = b.build();
        assert_eq!(copy.len(), 2);
        let h = copy.entity_by_uri("http://db.org/r/Heraklion").unwrap();
        assert_eq!(copy.description(h).attributes().len(), 2);
    }

    #[test]
    fn blank_nodes_are_namespaced_per_kb() {
        let mut b = DatasetBuilder::new();
        let kb0 = b.add_kb("a", "http://a/");
        let kb1 = b.add_kb("b", "http://b/");
        let t = crate::ntriples::parse_line("_:x <http://p> \"v\" .", 1).unwrap();
        b.add_triple(kb0, &t);
        b.add_triple(kb1, &t);
        // Scope is the KB id, not its name: two KBs may share a name.
        let kb2 = b.add_kb("a", "http://a/");
        b.add_triple(kb2, &t);
        b.add_triple(kb2, &t);
        let ds = b.build();
        assert_eq!(
            ds.len(),
            3,
            "same blank label in different KBs stays distinct"
        );
        assert_eq!(ds.kb(kb2).entity_count, 1);
    }
}
