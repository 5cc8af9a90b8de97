//! Entity-centric view over RDF knowledge bases.
//!
//! ER algorithms do not work on triples but on *entity descriptions*: the
//! set of attribute–value pairs sharing a subject URI (paper §1). A
//! [`Dataset`] holds the descriptions of one or more KBs plus the
//! *neighbour graph* — which descriptions link to which via resource-valued
//! attributes — that the progressive update phase exploits as similarity
//! evidence.

use crate::ntriples;
use crate::term::{Term, Triple};
use crate::tokenize;
use minoan_common::{FxHashMap, Interner, Symbol};
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

/// An attribute value: either a literal string or a reference to another
/// resource by URI.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// Literal lexical form (language tags / datatypes are dropped — the
    /// schema-agnostic algorithms only use the lexical form).
    Literal(Box<str>),
    /// URI of the referenced resource.
    Resource(Box<str>),
}

impl Value {
    /// The literal form, if any.
    pub fn as_literal(&self) -> Option<&str> {
        match self {
            Value::Literal(s) => Some(s),
            Value::Resource(_) => None,
        }
    }

    /// The resource URI, if any.
    pub fn as_resource(&self) -> Option<&str> {
        match self {
            Value::Resource(s) => Some(s),
            Value::Literal(_) => None,
        }
    }
}

/// One entity description: all attribute–value pairs of a subject URI.
#[derive(Clone, Debug)]
pub struct Description {
    /// Subject URI.
    pub uri: Box<str>,
    /// Owning knowledge base.
    pub kb: KbId,
    /// Attribute–value pairs; attribute names are interned in the dataset's
    /// predicate interner.
    pub attributes: Vec<(Symbol, Value)>,
}

impl Description {
    /// Iterates literal values only.
    pub fn literals(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().filter_map(|(_, v)| v.as_literal())
    }

    /// Iterates resource-valued attributes only.
    pub fn resources(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().filter_map(|(_, v)| v.as_resource())
    }
}

/// Metadata of one knowledge base.
#[derive(Clone, Debug)]
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
/// immutable, which lets every downstream algorithm borrow it freely.
pub struct Dataset {
    predicates: Interner,
    /// Per predicate symbol: whether its lower-cased IRI contains `label`,
    /// `name` or `title` (decided once at build).
    name_like: Vec<bool>,
    descriptions: Vec<Description>,
    kbs: Vec<KbInfo>,
    uri_index: FxHashMap<Box<str>, EntityId>,
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
        self.descriptions.len()
    }

    /// Whether the dataset holds no description.
    pub fn is_empty(&self) -> bool {
        self.descriptions.is_empty()
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
        (0..self.descriptions.len() as u32).map(EntityId)
    }

    /// Entity ids belonging to `kb`, in increasing order.
    pub fn entities_of_kb(&self, kb: KbId) -> &[EntityId] {
        &self.per_kb[kb.index()]
    }

    /// The description of `e`.
    pub fn description(&self, e: EntityId) -> &Description {
        &self.descriptions[e.index()]
    }

    /// Owning KB of `e`.
    pub fn kb_of(&self, e: EntityId) -> KbId {
        self.descriptions[e.index()].kb
    }

    /// Subject URI of `e`.
    pub fn uri(&self, e: EntityId) -> &str {
        &self.descriptions[e.index()].uri
    }

    /// Looks an entity up by its subject URI.
    pub fn entity_by_uri(&self, uri: &str) -> Option<EntityId> {
        self.uri_index.get(uri).copied()
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

    /// All blocking tokens of `e`: tokens of every literal value plus the
    /// URI-infix tokens of every resource value and of the subject URI.
    pub fn blocking_tokens(&self, e: EntityId) -> Vec<String> {
        let d = self.description(e);
        let mut out = Vec::with_capacity(d.attributes.len() * 3);
        for (_, v) in &d.attributes {
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
    /// for the duration of the call (typically to intern it).
    pub fn for_each_blocking_token(
        &self,
        e: EntityId,
        buffers: &mut tokenize::TokenBuffers,
        mut f: impl FnMut(&str),
    ) {
        let d = self.description(e);
        for (_, v) in &d.attributes {
            match v {
                Value::Literal(s) => tokenize::value_tokens_with(s, buffers, &mut f),
                Value::Resource(u) => tokenize::uri_infix_tokens_with(u, buffers, &mut f),
            }
        }
    }

    /// Tokens of literal values only (no URI evidence).
    pub fn literal_tokens(&self, e: EntityId) -> Vec<String> {
        let d = self.description(e);
        let mut out = Vec::new();
        for s in d.literals() {
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
        self.description(e)
            .attributes
            .iter()
            .filter(|(p, _)| self.name_like[p.index()])
            .filter_map(|(_, v)| v.as_literal())
    }

    /// Number of distinct attribute names used across the dataset.
    pub fn vocabulary_size(&self) -> usize {
        self.predicates.len()
    }

    /// Mean number of attribute–value pairs per description.
    pub fn avg_attributes(&self) -> f64 {
        if self.descriptions.is_empty() {
            return 0.0;
        }
        self.descriptions
            .iter()
            .map(|d| d.attributes.len())
            .sum::<usize>() as f64
            / self.descriptions.len() as f64
    }

    /// Total number of neighbour links (each undirected link counted once).
    pub fn link_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Serialises KB `kb` as an N-Triples document.
    pub fn to_ntriples(&self, kb: KbId) -> String {
        let mut triples = Vec::new();
        for &e in self.entities_of_kb(kb) {
            let d = self.description(e);
            for (p, v) in &d.attributes {
                let object = match v {
                    Value::Literal(s) => Term::literal(s.to_string()),
                    Value::Resource(u) => Term::iri(u.to_string()),
                };
                triples.push(Triple::new(
                    Term::iri(d.uri.to_string()),
                    self.predicates.resolve(*p),
                    object,
                ));
            }
        }
        ntriples::write_document(&triples)
    }
}

impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dataset")
            .field("kbs", &self.kbs.len())
            .field("entities", &self.descriptions.len())
            .field("vocabulary", &self.predicates.len())
            .finish()
    }
}

/// Incremental [`Dataset`] construction: attribute by attribute
/// ([`Self::add_literal`], [`Self::add_resource`]), statement by statement
/// ([`Self::add_statement`]) or a whole RDF document at a time
/// ([`Self::load_file`] and its siblings).
#[derive(Default)]
pub struct DatasetBuilder {
    predicates: Interner,
    descriptions: Vec<Description>,
    kbs: Vec<KbInfo>,
    uri_index: FxHashMap<Box<str>, EntityId>,
    /// Reused composition buffer for scoped blank-node URIs.
    blank_uri: String,
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

    fn entity_for(&mut self, kb: KbId, subject: &str) -> EntityId {
        if let Some(&e) = self.uri_index.get(subject) {
            return e;
        }
        let e = EntityId(u32::try_from(self.descriptions.len()).expect("too many entities"));
        self.descriptions.push(Description {
            uri: subject.into(),
            kb,
            attributes: Vec::new(),
        });
        self.kbs[kb.index()].entity_count += 1;
        self.uri_index.insert(subject.into(), e);
        e
    }

    /// Adds a literal-valued attribute to `subject` (creating its
    /// description on first mention).
    pub fn add_literal(&mut self, kb: KbId, subject: &str, predicate: &str, value: &str) {
        let p = self.predicates.intern(predicate);
        let e = self.entity_for(kb, subject);
        self.descriptions[e.index()]
            .attributes
            .push((p, Value::Literal(value.into())));
    }

    /// Adds a resource-valued attribute (a link) to `subject`.
    pub fn add_resource(&mut self, kb: KbId, subject: &str, predicate: &str, object_uri: &str) {
        let p = self.predicates.intern(predicate);
        let e = self.entity_for(kb, subject);
        self.descriptions[e.index()]
            .attributes
            .push((p, Value::Resource(object_uri.into())));
    }

    /// Finalises the dataset: resolves resource links into the undirected
    /// neighbour graph and freezes all indexes.
    pub fn build(self) -> Dataset {
        // Both directions of every resolved link, sorted: each entity's
        // neighbours are then one ascending, duplicate-free run.
        let mut edges: Vec<(EntityId, EntityId)> = Vec::new();
        for (i, d) in self.descriptions.iter().enumerate() {
            let src = EntityId(i as u32);
            for target in d.resources() {
                if let Some(&dst) = self.uri_index.get(target) {
                    if dst != src {
                        edges.push((src, dst));
                        edges.push((dst, src));
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut neighbor_offsets = vec![0usize; self.descriptions.len() + 1];
        for &(src, _) in &edges {
            neighbor_offsets[src.index() + 1] += 1;
        }
        for i in 0..self.descriptions.len() {
            neighbor_offsets[i + 1] += neighbor_offsets[i];
        }
        let neighbors: Vec<EntityId> = edges.iter().map(|&(_, dst)| dst).collect();
        let mut per_kb: Vec<Vec<EntityId>> = vec![Vec::new(); self.kbs.len()];
        for (i, d) in self.descriptions.iter().enumerate() {
            per_kb[d.kb.index()].push(EntityId(i as u32));
        }
        let name_like = self
            .predicates
            .iter()
            .map(|(_, iri)| {
                let iri = iri.to_lowercase();
                iri.contains("label") || iri.contains("name") || iri.contains("title")
            })
            .collect();
        Dataset {
            name_like,
            predicates: self.predicates,
            descriptions: self.descriptions,
            kbs: self.kbs,
            uri_index: self.uri_index,
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
        assert_eq!(ds.description(h).attributes.len(), 2);
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
        assert_eq!(ds.link_count(), 1);
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
        assert_eq!(copy.description(h).attributes.len(), 2);
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

    #[test]
    fn stats_helpers() {
        let ds = small();
        assert_eq!(ds.vocabulary_size(), 3);
        assert!((ds.avg_attributes() - 4.0 / 3.0).abs() < 1e-12);
    }
}
