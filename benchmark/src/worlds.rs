//! The four workloads' inputs, spelled out: every generator knob is a
//! literal here, so a change to a `datagen` profile or to another harness
//! cannot silently move this benchmark's worlds.

use minoan_blocking::ErMode;
use minoan_datagen::{KbConfig, WorldConfig};
use minoan_er::PipelineConfig;
use minoan_metablocking::{ExecutionBackend, Pruning, WeightingScheme};

/// Full or `--smoke` sizes. Smoke keeps every code path and every
/// correctness check; only the worlds shrink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the recorded baseline was taken at.
    Full,
    /// Seconds for the whole suite.
    Smoke,
}

/// The knobs all four worlds share (the generator's `base` regime: four
/// entity types, six attributes, Zipf-1.0 token popularity).
fn world(seed: u64, num_entities: usize, kbs: Vec<KbConfig>) -> WorldConfig {
    WorldConfig {
        seed,
        num_entities,
        num_types: 4,
        attrs_per_entity: 6,
        vocab_tokens: (num_entities * 12).max(1_000),
        zipf_exponent: 1.0,
        value_tokens_min: 1,
        value_tokens_max: 4,
        mean_links: 3.5,
        kbs,
    }
}

/// A batch workload: a world plus the `minoan resolve` flags it runs with.
pub struct BatchShape {
    /// The generated world.
    pub world: WorldConfig,
    /// Flags after `resolve --input … --show <all>`.
    pub flags: Vec<String>,
    /// The same settings as a `PipelineConfig`, for the traced pass that
    /// calls the layers one by one.
    pub config: PipelineConfig,
    /// Lowest recall of the printed matches the run accepts.
    pub recall_floor: f64,
    /// Lowest precision of the printed matches the run accepts.
    pub precision_floor: f64,
}

/// `batch_lod`: a small LOD cloud — two centre and two periphery KBs over
/// one world — resolved with every pipeline default.
pub fn batch_lod(seed: u64, size: Size) -> BatchShape {
    let n = match size {
        Size::Full => 5_000,
        Size::Smoke => 300,
    };
    BatchShape {
        world: world(
            seed,
            n,
            vec![
                KbConfig::center("dbp"),
                KbConfig::center("ygo"),
                KbConfig::periphery("openfood"),
                KbConfig::periphery("geo"),
            ],
        ),
        flags: Vec::new(),
        config: PipelineConfig::default(),
        recall_floor: 0.25,
        precision_floor: 0.90,
    }
}

/// Comparison budget of `batch_dirty`, as a share of the descriptions:
/// about a fifth of the candidates meta-blocking retains, so the matcher
/// is cut off by the budget (the progressive setting).
const DIRTY_BUDGET_PER_DESCRIPTION: f64 = 1.25;

/// `batch_dirty`: one dirty KB with two descriptions per entity, resolved
/// in dirty mode through edge-centric CEP on the graph-free streaming
/// backend with two workers, under a comparison budget.
pub fn batch_dirty(seed: u64, size: Size) -> BatchShape {
    let n = match size {
        Size::Full => 12_000,
        Size::Smoke => 400,
    };
    let mut kb = KbConfig::center("dirty");
    kb.coverage = 1.0;
    kb.dups_per_entity = 2;
    kb.token_overlap = 0.85;
    let budget = (2.0 * n as f64 * DIRTY_BUDGET_PER_DESCRIPTION) as u64;
    let mut config = PipelineConfig {
        mode: ErMode::Dirty,
        backend: ExecutionBackend::Streaming,
        workers: Some(2),
        weighting: WeightingScheme::Js,
        pruning: Pruning::Cep(None),
        ..PipelineConfig::default()
    };
    config.resolver.budget = budget;
    BatchShape {
        world: world(seed, n, vec![kb]),
        flags: [
            "--dirty",
            "--backend",
            "streaming",
            "--workers",
            "2",
            "--weighting",
            "js",
            "--pruning",
            "cep",
            "--budget",
            &budget.to_string(),
        ]
        .map(String::from)
        .to_vec(),
        config,
        recall_floor: 0.5,
        precision_floor: 0.90,
    }
}

/// A serve workload's world and traffic.
pub struct ServeShape {
    /// The generated world.
    pub world: WorldConfig,
    /// Share of the descriptions ingested before the run, in permille.
    pub preload_permille: usize,
    /// Hot-neighbourhood cache capacity in entries (`usize::MAX` = the
    /// whole corpus).
    pub cache: usize,
    /// Descriptions per `INGEST` during the run.
    pub ingest_batch: usize,
    /// Milliseconds between `INGEST`s during the run.
    pub ingest_interval_ms: u64,
    /// `RESOLVE`s per second the open-loop reader schedules.
    pub read_rate: u64,
}

impl ServeShape {
    /// Whether this is `serve_hot`: no traffic schedule, everything cached.
    pub fn is_hot(&self) -> bool {
        self.read_rate == 0
    }
}

/// The sparse two-KB periphery world both serve workloads use: the type
/// universe and the vocabulary grow with the corpus and token popularity
/// is flattened, which keeps blocks bounded the way a purged corpus's
/// are (the grow-only incremental collection cannot purge).
fn serve_world(seed: u64, n: usize) -> WorldConfig {
    let mut w = world(
        seed,
        n,
        vec![
            KbConfig::periphery("openfood"),
            KbConfig::periphery("bio2rdf"),
        ],
    );
    w.num_types = (n / 50).max(4);
    w.vocab_tokens = (n * 8).max(2_000);
    w.zipf_exponent = 0.5;
    w
}

/// `serve_hot`: everything preloaded, cache as large as the corpus and
/// warmed, no ingest — every answer is a cache hit.
pub fn serve_hot(seed: u64, size: Size) -> ServeShape {
    let n = match size {
        Size::Full => 12_000,
        Size::Smoke => 400,
    };
    ServeShape {
        world: serve_world(seed, n),
        preload_permille: 1000,
        cache: usize::MAX,
        ingest_batch: 0,
        ingest_interval_ms: 0,
        read_rate: 0,
    }
}

/// `serve_churn`: two thirds preloaded, a cache far smaller than the
/// corpus, uniform reads on a schedule and a paced writer beside them.
pub fn serve_churn(seed: u64, size: Size) -> ServeShape {
    let (n, cache, ingest_batch, ingest_interval_ms) = match size {
        Size::Full => (20_000, 1024, 64, 250),
        Size::Smoke => (600, 32, 8, 50),
    };
    ServeShape {
        world: serve_world(seed, n),
        preload_permille: 667,
        cache,
        ingest_batch,
        ingest_interval_ms,
        read_rate: 1000,
    }
}

/// The four workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["batch_lod", "batch_dirty", "serve_hot", "serve_churn"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_world_validates_at_both_sizes() {
        for size in [Size::Full, Size::Smoke] {
            for w in [
                batch_lod(11, size).world,
                batch_dirty(11, size).world,
                serve_hot(11, size).world,
                serve_churn(11, size).world,
            ] {
                w.validate().expect("world config in range");
                assert_eq!(w.seed, 11, "the seed reaches the generator");
            }
        }
    }

    #[test]
    fn dirty_budget_scales_with_the_world() {
        let full = batch_dirty(1, Size::Full);
        let i = full
            .flags
            .iter()
            .position(|f| f == "--budget")
            .expect("budget flag");
        assert_eq!(full.flags[i + 1], "30000");
        assert!(full.flags.contains(&"--dirty".to_string()));
    }
}
