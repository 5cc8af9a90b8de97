//! Rendering a [`World`] into per-KB RDF descriptions + ground truth.

use crate::config::{KbConfig, WorldConfig};
use crate::truth::GroundTruth;
use crate::world::{token_word, World};
use minoan_common::hash::fx_hash_bytes;
use minoan_common::FxHashSet;
use minoan_rdf::{Dataset, DatasetBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated dataset with its exact ground truth and the underlying world.
#[derive(Debug)]
pub struct GeneratedWorld {
    /// The multi-KB dataset, ready for blocking.
    pub dataset: Dataset,
    /// Which description refers to which world entity.
    pub truth: GroundTruth,
    /// The canonical world (kept for diagnostics and ablations).
    pub world: World,
}

/// Deterministic coin in `[0, 1)` derived from hashed coordinates — used
/// where a decision must be *consistent* (e.g. a KB renames an attribute
/// the same way every time it appears).
fn det_coin(seed: u64, a: u64, b: u64) -> f64 {
    // The pinned one-shot hash, not a `Hasher`'s `finish()`: the worlds a
    // seed generates must not move when the map hasher is tuned.
    let words = [seed, a, b].map(u64::to_le_bytes);
    (fx_hash_bytes(words.as_flattened()) >> 11) as f64 / (1u64 << 53) as f64
}

/// Canonical (shared) predicate IRI for attribute id `attr`. The name
/// attribute of each type pool gets a name-like IRI (real KBs use
/// `rdfs:label`-style predicates), which string-similarity matchers key on.
fn canonical_predicate(attr: u32, is_name: bool) -> String {
    if is_name {
        format!("http://ontology.example.org/name{attr}")
    } else {
        format!("http://ontology.example.org/attr{attr}")
    }
}

/// Proprietary predicate IRI of `kb` for attribute id `attr`.
fn proprietary_predicate(kb: &KbConfig, attr: u32, is_name: bool) -> String {
    if is_name {
        format!("http://{}.example.org/ontology/label{attr}", kb.name)
    } else {
        format!("http://{}.example.org/ontology/p{attr}", kb.name)
    }
}

/// Renders a canonical token list as a value string under a KB's noise
/// model: each token survives with `token_overlap` (then possibly typo'd),
/// otherwise it is replaced by a random vocabulary token.
fn render_value(tokens: &[u32], kb: &KbConfig, vocab: usize, rng: &mut StdRng) -> String {
    let mut words = Vec::with_capacity(tokens.len());
    for &t in tokens {
        if rng.gen_bool(kb.token_overlap) {
            let w = token_word(t);
            if rng.gen_bool(kb.typo_rate) {
                words.push(kb.corruption.corrupt(&w, rng));
            } else {
                words.push(w);
            }
        } else {
            words.push(token_word(rng.gen_range(0..vocab) as u32));
        }
    }
    words.join(" ")
}

fn capitalize(word: &str) -> String {
    let mut cs = word.chars();
    match cs.next() {
        Some(c) => c.to_uppercase().collect::<String>() + cs.as_str(),
        None => String::new(),
    }
}

/// Generates the dataset + ground truth for `config`.
///
/// Descriptions are created KB by KB in world-entity order, so entity ids
/// are stable and the ground truth aligns by construction. Deterministic in
/// `config.seed`.
///
/// # Panics
/// Panics on an invalid configuration (see [`WorldConfig::validate`]).
pub fn generate(config: &WorldConfig) -> GeneratedWorld {
    let world = World::generate(config);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0e31_7a11);
    let mut builder = DatasetBuilder::new();
    let mut entity_of: Vec<u32> = Vec::new();

    for (kb_idx, kbc) in config.kbs.iter().enumerate() {
        let namespace = format!("http://{}.example.org/resource/", kbc.name);
        let kb = builder.add_kb(&kbc.name, &namespace);

        // Which world entities this KB describes.
        let described: Vec<u32> = (0..world.len() as u32)
            .filter(|_| rng.gen_bool(kbc.coverage))
            .collect();

        // Mint URIs first so relationship links can reference them.
        let mut used: FxHashSet<String> = FxHashSet::default();
        let mut uri_of: Vec<Vec<String>> = Vec::with_capacity(described.len());
        let mut opaque_seq = 0usize;
        for &w in &described {
            let we = &world.entities[w as usize];
            let mut dup_uris = Vec::with_capacity(kbc.dups_per_entity);
            for _ in 0..kbc.dups_per_entity {
                let uri = if kbc.opaque_uris {
                    opaque_seq += 1;
                    format!("{namespace}id{opaque_seq:06}")
                } else {
                    let base: String = we
                        .name_tokens
                        .iter()
                        .map(|&t| capitalize(&token_word(t)))
                        .collect::<Vec<_>>()
                        .join("_");
                    let mut uri = format!("{namespace}{base}");
                    let mut k = 2;
                    while used.contains(&uri) {
                        uri = format!("{namespace}{base}_{k}");
                        k += 1;
                    }
                    uri
                };
                used.insert(uri.clone());
                dup_uris.push(uri);
            }
            uri_of.push(dup_uris);
        }

        // Emit attribute values. The name attribute (index 0) is always
        // present, so the description is created exactly when we reach it —
        // keeping EntityId order == emission order.
        for (di, &w) in described.iter().enumerate() {
            let we = &world.entities[w as usize];
            for uri in &uri_of[di] {
                for (ai, (attr, value)) in we.attributes.iter().enumerate() {
                    let is_name = ai == 0;
                    if !is_name && !rng.gen_bool(kbc.attr_coverage) {
                        continue;
                    }
                    let shared =
                        det_coin(config.seed, kb_idx as u64, *attr as u64) < kbc.vocab_overlap;
                    let pred = if shared {
                        canonical_predicate(*attr, is_name)
                    } else {
                        proprietary_predicate(kbc, *attr, is_name)
                    };
                    let value_str = render_value(value, kbc, config.vocab_tokens, &mut rng);
                    builder.add_literal(kb, uri, &pred, &value_str);
                }
                // rdf:type — realistic large-block generator (type blocks are
                // what block purging exists to remove).
                builder.add_resource(
                    kb,
                    uri,
                    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                    &format!("http://ontology.example.org/class/Type{}", we.etype),
                );
                // Extra KB-specific noise attributes.
                let extras = poisson(&mut rng, kbc.extra_attrs);
                for _ in 0..extras {
                    let j = rng.gen_range(0..8);
                    let pred = format!("http://{}.example.org/ontology/extra{j}", kbc.name);
                    let len = rng.gen_range(1..=3);
                    let val: Vec<String> = (0..len)
                        .map(|_| token_word(rng.gen_range(0..config.vocab_tokens) as u32))
                        .collect();
                    builder.add_literal(kb, uri, &pred, &val.join(" "));
                }
                entity_of.push(w);
            }
        }

        // Materialise relationship links (first duplicate only: duplicates
        // within a dirty KB rarely repeat the full link structure).
        let rel_shared = det_coin(config.seed, kb_idx as u64, u64::MAX) < kbc.vocab_overlap;
        let rel_pred = if rel_shared {
            "http://ontology.example.org/related".to_string()
        } else {
            format!("http://{}.example.org/ontology/related", kbc.name)
        };
        let mut pos_of = vec![usize::MAX; world.len()];
        for (di, &w) in described.iter().enumerate() {
            pos_of[w as usize] = di;
        }
        for &(a, b) in &world.links {
            let (pa, pb) = (pos_of[a as usize], pos_of[b as usize]);
            if pa != usize::MAX && pb != usize::MAX && rng.gen_bool(kbc.link_keep) {
                builder.add_resource(kb, &uri_of[pa][0], &rel_pred, &uri_of[pb][0]);
            }
        }
    }

    let dataset = builder.build();
    debug_assert_eq!(dataset.len(), entity_of.len());
    let truth = GroundTruth::new(entity_of, world.len(), world.links.clone());
    GeneratedWorld {
        dataset,
        truth,
        world,
    }
}

fn poisson(rng: &mut StdRng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let l = (-mean).exp();
    let (mut k, mut p) = (0usize, 1.0f64);
    loop {
        p *= rng.gen::<f64>();
        if p <= l || k > 1000 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use minoan_rdf::EntityId;

    /// The coin decides which predicates a KB renames, so a seed's world
    /// moves with it: the values are pinned.
    #[test]
    fn det_coin_values_are_pinned() {
        let coin_bits = |seed, a, b| (det_coin(seed, a, b) * (1u64 << 53) as f64) as u64;
        assert_eq!(coin_bits(5, 0, 3), 7_937_224_776_181_237);
        assert_eq!(coin_bits(101, 1, u64::MAX), 529_196_981_358_074);
        assert_eq!(coin_bits(42, 2, 28), 6_435_013_863_297_617);
    }

    #[test]
    fn generation_is_deterministic() {
        let c = WorldConfig::small(42);
        let g1 = generate(&c);
        let g2 = generate(&c);
        assert_eq!(g1.dataset.len(), g2.dataset.len());
        for e in g1.dataset.entities() {
            assert_eq!(g1.dataset.uri(e), g2.dataset.uri(e));
            assert_eq!(
                g1.dataset.description(e).attributes().len(),
                g2.dataset.description(e).attributes().len()
            );
        }
        assert_eq!(g1.truth.matching_pairs(), g2.truth.matching_pairs());
    }

    #[test]
    fn truth_aligns_with_descriptions() {
        let c = WorldConfig::small(7);
        let g = generate(&c);
        assert_eq!(g.truth.num_descriptions(), g.dataset.len());
        // With two ~90%-coverage KBs most world entities get 2 descriptions.
        assert!(g.truth.matchable_entities() > c.num_entities / 2);
        assert!(g.truth.matching_pairs() > 0);
        // Matching descriptions live in different KBs (clean KBs).
        for (a, b) in g.truth.matching_pair_iter() {
            assert_ne!(g.dataset.kb_of(a), g.dataset.kb_of(b));
        }
    }

    #[test]
    fn clean_kb_has_one_description_per_entity() {
        let c = WorldConfig::small(3);
        let g = generate(&c);
        for kbi in 0..g.dataset.kb_count() {
            let kb = minoan_rdf::KbId(kbi as u16);
            let mut seen = std::collections::HashSet::new();
            for &e in g.dataset.entities_of_kb(kb) {
                assert!(seen.insert(g.truth.world_of(e)), "duplicate in clean KB");
            }
        }
    }

    #[test]
    fn dirty_kb_produces_intra_kb_duplicates() {
        let mut c = WorldConfig::small(5);
        c.kbs = vec![crate::config::KbConfig::center("solo")];
        c.kbs[0].dups_per_entity = 2;
        let g = generate(&c);
        assert!(g.truth.matching_pairs() > 0);
        for (a, b) in g.truth.matching_pair_iter() {
            assert_eq!(
                g.dataset.kb_of(a),
                g.dataset.kb_of(b),
                "dirty pairs are intra-KB"
            );
        }
    }

    #[test]
    fn opaque_uris_hide_naming_evidence() {
        let mut c = WorldConfig::small(9);
        c.kbs[1] = crate::config::KbConfig::periphery("peri");
        let g = generate(&c);
        let kb1 = minoan_rdf::KbId(1);
        for &e in g.dataset.entities_of_kb(kb1).iter().take(20) {
            assert!(
                g.dataset.uri(e).contains("/id0"),
                "expected opaque URI, got {}",
                g.dataset.uri(e)
            );
        }
    }

    #[test]
    fn center_pairs_share_more_tokens_than_periphery_pairs() {
        let mut center = WorldConfig::small(11);
        center.kbs = vec![
            crate::config::KbConfig::center("a"),
            crate::config::KbConfig::center("b"),
        ];
        let mut periphery = center.clone();
        periphery.kbs = vec![
            crate::config::KbConfig::periphery("a"),
            crate::config::KbConfig::periphery("b"),
        ];
        let avg_overlap = |g: &GeneratedWorld| -> f64 {
            let mut total = 0.0;
            let mut n = 0usize;
            for (a, b) in g.truth.matching_pair_iter().take(200) {
                let ta: std::collections::HashSet<String> =
                    g.dataset.literal_tokens(a).into_iter().collect();
                let tb: std::collections::HashSet<String> =
                    g.dataset.literal_tokens(b).into_iter().collect();
                #[expect(clippy::disallowed_methods, reason = "only counts")]
                let inter = ta.intersection(&tb).count();
                #[expect(clippy::disallowed_methods, reason = "only counts")]
                let union = ta.union(&tb).count();
                if union > 0 {
                    total += inter as f64 / union as f64;
                    n += 1;
                }
            }
            total / n.max(1) as f64
        };
        let gc = generate(&center);
        let gp = generate(&periphery);
        let (oc, op) = (avg_overlap(&gc), avg_overlap(&gp));
        assert!(
            oc > op + 0.15,
            "center overlap {oc:.3} should clearly exceed periphery {op:.3}"
        );
    }

    #[test]
    fn relationship_links_exist_in_dataset() {
        let g = generate(&WorldConfig::small(13));
        let linked = g
            .dataset
            .entities()
            .filter(|&e| !g.dataset.neighbors(e).is_empty())
            .count();
        assert!(linked > 0, "no neighbour links materialised");
    }

    #[test]
    fn proprietary_vocabulary_ratio_tracks_config() {
        let mut c = WorldConfig::small(17);
        c.kbs = vec![
            crate::config::KbConfig::periphery("p1"),
            crate::config::KbConfig::periphery("p2"),
        ];
        let g = generate(&c);
        let preds = g.dataset.predicates();
        let proprietary = preds
            .iter()
            .filter(|(_, name)| name.contains("p1.example.org") || name.contains("p2.example.org"))
            .count();
        assert!(
            proprietary * 2 > preds.len(),
            "periphery KBs should use mostly proprietary vocabulary ({proprietary}/{})",
            preds.len()
        );
    }

    /// `Dataset::to_ntriples` writes from the slabs what
    /// `ntriples::write_document` writes from collected triples — over
    /// generated worlds re-added with every escape the writer knows spliced
    /// into their literal values.
    #[test]
    fn to_ntriples_equals_the_triple_writer_byte_for_byte() {
        use minoan_rdf::{ntriples, DatasetBuilder, KbId, Term, Triple, Value};
        const SPICE: [&str; 6] = ["\"", "\\", "\n", "\r", "\t", "\\n \u{3c0}\"\""];
        for config in [
            crate::profiles::lod_cloud(150, 3),
            crate::profiles::dirty_single(150, 4),
        ] {
            let plain = generate(&config).dataset;
            let mut builder = DatasetBuilder::new();
            let mut collected: Vec<Vec<Triple>> = Vec::new();
            let mut spiced = 0usize;
            for info in plain.kbs() {
                let kb = builder.add_kb(&info.name, &info.namespace);
                let mut triples = Vec::new();
                for &e in plain.entities_of_kb(kb) {
                    let uri = plain.uri(e);
                    for (p, v) in plain.description(e).attributes() {
                        let predicate = plain.predicate_name(p);
                        let object = match v {
                            Value::Resource(target) => {
                                builder.add_resource(kb, uri, predicate, target);
                                Term::iri(target)
                            }
                            Value::Literal(value) => {
                                let spice = SPICE[spiced % SPICE.len()];
                                let value = match spiced % 3 {
                                    0 => format!("{spice}{value}"),
                                    1 => format!("{value}{spice}"),
                                    _ => value.replacen(' ', spice, 1),
                                };
                                spiced += 1;
                                builder.add_literal(kb, uri, predicate, &value);
                                Term::literal(value)
                            }
                        };
                        triples.push(Triple::new(Term::iri(uri), predicate, object));
                    }
                }
                collected.push(triples);
            }
            assert!(spiced > SPICE.len());
            let dataset = builder.build();
            for (kb, triples) in collected.iter().enumerate() {
                let written = dataset.to_ntriples(KbId(kb as u16));
                assert!(written == ntriples::write_document(triples), "KB {kb}");
                assert_eq!(ntriples::parse_document(&written).as_ref(), Ok(triples));
            }
        }
    }

    #[test]
    fn first_description_is_entity_zeroish() {
        // Sanity: EntityId(0) exists and maps to a valid world entity.
        let g = generate(&WorldConfig::small(1));
        let w = g.truth.world_of(EntityId(0));
        assert!((w as usize) < g.world.len());
    }
}
