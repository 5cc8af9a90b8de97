//! Generator configuration.

use crate::corruption::CorruptionModel;

/// Configuration of one synthetic knowledge base.
#[derive(Clone, Debug)]
pub struct KbConfig {
    /// KB name; also used in its URI namespace `http://{name}.example.org/resource/`.
    pub name: String,
    /// Fraction of world entities this KB describes (0..=1].
    pub coverage: f64,
    /// Probability that an attribute keeps its *canonical* (shared) name;
    /// otherwise it is renamed into this KB's proprietary vocabulary.
    /// Centre KBs ≈ 0.8–0.9, periphery KBs ≈ 0.1–0.3.
    pub vocab_overlap: f64,
    /// Probability that a canonical value token survives verbatim; surviving
    /// failures are replaced by a KB-local paraphrase token. Controls the
    /// "highly similar" (≈0.8) vs "somehow similar" (≈0.3) regimes.
    pub token_overlap: f64,
    /// Probability of a character-level typo on a surviving token.
    pub typo_rate: f64,
    /// Which corruption model typo'd tokens go through.
    pub corruption: CorruptionModel,
    /// Probability that each canonical attribute of the entity appears in
    /// this KB's description at all.
    pub attr_coverage: f64,
    /// Mean number of KB-specific extra attributes (noise attributes with
    /// unrelated values) added to each description.
    pub extra_attrs: f64,
    /// Probability that a world relationship link between two entities both
    /// described by this KB is materialised as a resource-valued attribute.
    pub link_keep: f64,
    /// Number of descriptions this KB holds per described entity (1 for
    /// clean KBs; >1 produces intra-KB duplicates, i.e. dirty ER).
    pub dups_per_entity: usize,
    /// When true, entity URIs are opaque numeric ids (periphery KBs often
    /// mint them), so URI infixes carry no naming evidence.
    pub opaque_uris: bool,
}

impl KbConfig {
    /// A centre-of-the-LOD-cloud KB: broad coverage, shared vocabulary,
    /// highly similar descriptions.
    pub fn center(name: &str) -> Self {
        Self {
            name: name.to_string(),
            coverage: 0.9,
            vocab_overlap: 0.85,
            token_overlap: 0.9,
            typo_rate: 0.02,
            corruption: CorruptionModel::Typo,
            attr_coverage: 0.9,
            extra_attrs: 1.0,
            link_keep: 0.8,
            dups_per_entity: 1,
            opaque_uris: false,
        }
    }

    /// A periphery KB: partial coverage, proprietary vocabulary, somehow
    /// similar descriptions with few common tokens.
    pub fn periphery(name: &str) -> Self {
        Self {
            name: name.to_string(),
            coverage: 0.75,
            vocab_overlap: 0.2,
            token_overlap: 0.6,
            typo_rate: 0.05,
            corruption: CorruptionModel::Typo,
            attr_coverage: 0.6,
            extra_attrs: 2.0,
            link_keep: 0.8,
            dups_per_entity: 1,
            opaque_uris: true,
        }
    }
}

/// Configuration of a whole synthetic world.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
    /// Number of real-world entities.
    pub num_entities: usize,
    /// Number of entity types (each type has its own attribute pool).
    pub num_types: usize,
    /// Canonical attributes per entity (sampled from its type's pool).
    pub attrs_per_entity: usize,
    /// Size of the global value-token vocabulary.
    pub vocab_tokens: usize,
    /// Zipf exponent of token popularity (≈1.0 for natural text).
    pub zipf_exponent: f64,
    /// Value length in tokens (uniform in `value_tokens_min..=value_tokens_max`).
    pub value_tokens_min: usize,
    /// See `value_tokens_min`.
    pub value_tokens_max: usize,
    /// Mean out-degree of the world relationship graph (preferential
    /// attachment).
    pub mean_links: f64,
    /// The knowledge bases describing this world.
    pub kbs: Vec<KbConfig>,
}

impl WorldConfig {
    /// A small default world, handy for tests.
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            num_entities: 200,
            num_types: 3,
            attrs_per_entity: 5,
            vocab_tokens: 2_000,
            zipf_exponent: 1.0,
            value_tokens_min: 1,
            value_tokens_max: 4,
            mean_links: 2.0,
            kbs: vec![KbConfig::center("alpha"), KbConfig::center("beta")],
        }
    }

    /// Validates parameter ranges, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_entities == 0 {
            return Err("num_entities must be positive".into());
        }
        if self.num_types == 0 {
            return Err("num_types must be positive".into());
        }
        if self.vocab_tokens == 0 {
            return Err("vocab_tokens must be positive".into());
        }
        if self.value_tokens_min == 0 || self.value_tokens_min > self.value_tokens_max {
            return Err("value token range must satisfy 1 <= min <= max".into());
        }
        if self.kbs.is_empty() {
            return Err("at least one KB is required".into());
        }
        for kb in &self.kbs {
            for (label, v) in [
                ("coverage", kb.coverage),
                ("vocab_overlap", kb.vocab_overlap),
                ("token_overlap", kb.token_overlap),
                ("typo_rate", kb.typo_rate),
                ("attr_coverage", kb.attr_coverage),
                ("link_keep", kb.link_keep),
            ] {
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("KB '{}': {label} = {v} outside [0,1]", kb.name));
                }
            }
            if kb.coverage == 0.0 {
                return Err(format!("KB '{}': coverage must be > 0", kb.name));
            }
            if kb.dups_per_entity == 0 {
                return Err(format!("KB '{}': dups_per_entity must be >= 1", kb.name));
            }
            if kb.extra_attrs < 0.0 {
                return Err(format!("KB '{}': extra_attrs must be >= 0", kb.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_valid() {
        assert!(WorldConfig::small(1).validate().is_ok());
    }

    #[test]
    fn invalid_ranges_are_caught() {
        let mut c = WorldConfig::small(1);
        c.num_entities = 0;
        assert!(c.validate().is_err());

        let mut c = WorldConfig::small(1);
        c.kbs[0].token_overlap = 1.5;
        assert!(c.validate().unwrap_err().contains("token_overlap"));

        let mut c = WorldConfig::small(1);
        c.kbs.clear();
        assert!(c.validate().is_err());

        let mut c = WorldConfig::small(1);
        c.value_tokens_min = 5;
        c.value_tokens_max = 2;
        assert!(c.validate().is_err());

        let mut c = WorldConfig::small(1);
        c.kbs[0].dups_per_entity = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn a_cloned_config_prints_the_same_debug() {
        let c = WorldConfig::small(7);
        let c2 = c.clone();
        assert_eq!(format!("{c:?}"), format!("{c2:?}"));
    }

    #[test]
    fn presets_differ_in_regime() {
        let c = KbConfig::center("c");
        let p = KbConfig::periphery("p");
        assert!(c.token_overlap > p.token_overlap);
        assert!(c.vocab_overlap > p.vocab_overlap);
        assert!(!c.opaque_uris && p.opaque_uris);
    }
}
