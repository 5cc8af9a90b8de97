//! The end-to-end MinoanER platform (Figure 1 of the paper).
//!
//! `Dataset → Blocking → Meta-blocking → Progressive matching → Resolution`
//! behind a single configurable entry point. Each stage is also available
//! separately (see the respective crates) — the pipeline just wires them
//! with sensible defaults.

use crate::engine::{ProgressiveResolver, Resolution, ResolverConfig};
use crate::matcher::{Matcher, MatcherConfig};
use minoan_blocking::builders::TokenKeys;
use minoan_blocking::{filter, purge, BlockCollection, Corpus, ErMode};
use minoan_metablocking::{ExecutionBackend, Session, WeightingScheme};
use minoan_rdf::{Dataset, EntityId};

/// Which blocking-key extractor to use — re-exported from
/// [`minoan_blocking::Method`], the full method catalogue (token, URI
/// infix, attribute clustering, q-grams, sorted neighborhood, MinHash-LSH,
/// canopy, …).
pub use minoan_blocking::Method as BlockingMethod;

/// Which meta-blocking pruning algorithm to run — re-exported from
/// [`minoan_metablocking::Pruning`], so the pipeline config speaks the
/// session's language directly (the historical variants are unchanged;
/// `Blast` and `Supervised` extend the catalogue).
pub use minoan_metablocking::Pruning as PruningMethod;

/// Full pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Dirty or clean–clean ER.
    pub mode: ErMode,
    /// Blocking-key extractor.
    pub blocking: BlockingMethod,
    /// Run comparison-based block purging.
    pub purge: bool,
    /// Run block filtering with this retain ratio (`None` disables).
    pub filter_ratio: Option<f64>,
    /// Meta-blocking edge weighting scheme.
    pub weighting: WeightingScheme,
    /// Meta-blocking pruning algorithm.
    pub pruning: PruningMethod,
    /// Meta-blocking execution backend. [`ExecutionBackend::Streaming`]
    /// (the default) runs *every* pruning method (edge-centric WEP/CEP
    /// included) as scoped-thread sweeps that never build the blocking
    /// graph; [`ExecutionBackend::MapReduce`] runs the entity-partitioned
    /// MapReduce jobs on [`minoan_mapreduce`]. Output is bit-identical
    /// across the two.
    pub backend: ExecutionBackend,
    /// Worker threads for every parallel stage: the token pass, the block
    /// build, purge/filter, the streaming sweeps / MapReduce engine and the
    /// comparison workers beside the progressive loop; `minoan resolve`
    /// loads its files with as many (`None` = all available parallelism;
    /// under the token blocking methods `Some(1)` spawns nothing). Results
    /// never depend on it.
    pub workers: Option<usize>,
    /// Matcher configuration.
    pub matcher: MatcherConfig,
    /// Progressive engine configuration.
    pub resolver: ResolverConfig,
}

impl Default for PipelineConfig {
    /// The defaults used throughout the `reproduce` experiments: token+URI
    /// blocking, purge + filter(0.8), ARCS-weighted WNP on the streaming
    /// backend, progressive pair-quantity.
    fn default() -> Self {
        Self {
            mode: ErMode::CleanClean,
            blocking: BlockingMethod::TokenAndUri,
            purge: true,
            filter_ratio: Some(filter::DEFAULT_RATIO),
            weighting: WeightingScheme::Arcs,
            pruning: PruningMethod::Wnp { reciprocal: false },
            backend: ExecutionBackend::Streaming,
            workers: None,
            matcher: MatcherConfig::default(),
            resolver: ResolverConfig::default(),
        }
    }
}

/// Stage-by-stage statistics plus the final resolution.
#[derive(Debug)]
pub struct PipelineOutput {
    /// (blocks, comparisons-with-repetition) straight out of blocking.
    pub blocks_raw: (usize, u64),
    /// Same after purging/filtering.
    pub blocks_clean: (usize, u64),
    /// Number of candidate pairs handed to the engine.
    pub candidates: usize,
    /// The progressive resolution result.
    pub resolution: Resolution,
}

/// The MinoanER pipeline.
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline with `config`.
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    fn threads(&self) -> usize {
        self.config
            .workers
            .unwrap_or_else(minoan_common::default_threads)
    }

    /// Runs blocking only (exposed for experiments): [`BlockingMethod::run`]
    /// on the `workers` knob, which bounds its token pass and block build
    /// like it bounds [`Self::clean_blocks`].
    pub fn block(&self, dataset: &Dataset) -> BlockCollection {
        self.config
            .blocking
            .run(dataset, self.config.mode, self.threads())
    }

    /// Runs block cleaning (purge + filter) per the configuration. The
    /// `workers` knob bounds the successor slab builds like it bounds the
    /// meta-blocking sweeps; results never depend on it.
    pub fn clean_blocks(&self, blocks: BlockCollection) -> BlockCollection {
        let threads = self.threads();
        let blocks = if self.config.purge {
            purge::purge_with_threads(&blocks, purge::DEFAULT_SMOOTHING, threads).collection
        } else {
            blocks
        };
        match self.config.filter_ratio {
            Some(r) => filter::filter_with_threads(&blocks, r, threads),
            None => blocks,
        }
    }

    /// Opens a configured [`Session`] over `blocks` — the meta-blocking
    /// entry point everything in the pipeline (and the experiment
    /// harnesses) goes through. Callers that sweep several schemes or
    /// pruning families should hold on to the session so its shared
    /// state (sweep ranges, weight globals, scratch) is built once.
    pub fn meta_block_session<'b>(&self, blocks: &'b BlockCollection) -> Session<'b> {
        let mut session = Session::new(blocks);
        session
            .scheme(self.config.weighting)
            .pruning(self.config.pruning)
            .backend(self.config.backend);
        if let Some(w) = self.config.workers {
            session.workers(w);
        }
        session
    }

    /// Runs meta-blocking, returning weighted candidates.
    ///
    /// Both backends drive every [`PruningMethod`] natively through the
    /// [`Session`] and produce bit-identical candidates.
    pub fn meta_block(&self, blocks: &BlockCollection) -> Vec<(EntityId, EntityId, f64)> {
        self.meta_block_session(blocks).run().into_candidates()
    }

    /// Runs the progressive resolver over `candidates` (exposed for
    /// experiments), with comparison workers beside its loop as the
    /// `workers` knob allows; the resolution never depends on it.
    pub fn resolve(
        &self,
        dataset: &Dataset,
        matcher: Matcher,
        candidates: &[(EntityId, EntityId, f64)],
    ) -> Resolution {
        let config = self.config.resolver.clone();
        ProgressiveResolver::with_threads(dataset, matcher, config, self.threads()).run(candidates)
    }

    /// Runs the full pipeline on `dataset`.
    ///
    /// **Shared.** One [`Corpus`], its token pass split over `workers`
    /// entity ranges, serves the matcher (its value tokens) and, under
    /// [`BlockingMethod::Token`] and [`BlockingMethod::TokenAndUri`], the
    /// block build (its slots). The other methods' keys are not the
    /// matcher's tokens: [`Self::block`] builds their blocks, and the
    /// corpus is a value-token one.
    ///
    /// **Overlapped.** The matcher build and the block → purge → filter →
    /// meta-block chain (which numbers the corpus's slots) both only read
    /// `dataset` and the corpus, so the matcher is built on a scoped
    /// thread while the chain runs on the calling one. With one worker (`workers: Some(1)`, or a single-core
    /// host under `None`) nothing is spawned here and the matcher is built
    /// after the chain. The output depends on neither.
    pub fn run(&self, dataset: &Dataset) -> PipelineOutput {
        let threads = self.threads();
        let mode = self.config.mode;
        let keys = match self.config.blocking {
            BlockingMethod::TokenAndUri => TokenKeys::Both,
            _ => TokenKeys::Values,
        };
        let corpus = Corpus::new(dataset, keys, threads);
        let chain = || {
            let raw = match self.config.blocking {
                BlockingMethod::Token | BlockingMethod::TokenAndUri => {
                    BlockCollection::from_corpus(&corpus, mode, threads)
                }
                _ => self.block(dataset),
            };
            let blocks_raw = (raw.len(), raw.total_comparisons());
            let clean = self.clean_blocks(raw);
            let blocks_clean = (clean.len(), clean.total_comparisons());
            (blocks_raw, blocks_clean, self.meta_block(&clean))
        };
        let matcher_config = self.config.matcher.clone();
        let ((blocks_raw, blocks_clean, candidates), matcher) = overlapped(threads, chain, || {
            Matcher::from_corpus(&corpus, matcher_config)
        });
        let resolution = self.resolve(dataset, matcher, &candidates);
        PipelineOutput {
            blocks_raw,
            blocks_clean,
            candidates: candidates.len(),
            resolution,
        }
    }
}

/// Runs `chain` on the calling thread and, with more than one worker,
/// `matcher` on a scoped thread beside it — after it otherwise.
fn overlapped<C, M: Send>(
    threads: usize,
    chain: impl FnOnce() -> C,
    matcher: impl FnOnce() -> M + Send,
) -> (C, M) {
    if threads <= 1 {
        return (chain(), matcher());
    }
    std::thread::scope(|s| {
        let matcher = s.spawn(matcher);
        let chain = chain();
        let matcher = matcher
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (chain, matcher)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benefit::BenefitModel;
    use crate::engine::Strategy;
    use minoan_datagen::{generate, profiles};

    #[test]
    fn default_pipeline_end_to_end() {
        let g = generate(&profiles::center_dense(150, 41));
        let out = Pipeline::new(PipelineConfig::default()).run(&g.dataset);
        assert!(out.blocks_raw.0 > 0);
        assert!(
            out.blocks_clean.1 <= out.blocks_raw.1,
            "cleaning must not add comparisons"
        );
        assert!(out.candidates > 0);
        let tp = out
            .resolution
            .matches
            .iter()
            .filter(|(a, b, _)| g.truth.is_match(*a, *b))
            .count() as f64;
        let recall = tp / g.truth.matching_pairs() as f64;
        assert!(recall > 0.7, "pipeline recall {recall}");
    }

    #[test]
    fn every_blocking_method_works() {
        let g = generate(&profiles::center_dense(80, 1));
        for blocking in [
            BlockingMethod::Token,
            BlockingMethod::UriInfix,
            BlockingMethod::TokenAndUri,
            BlockingMethod::AttributeClustering,
        ] {
            let cfg = PipelineConfig {
                blocking,
                ..Default::default()
            };
            let out = Pipeline::new(cfg).run(&g.dataset);
            assert!(out.blocks_raw.0 > 0, "{blocking:?} produced no blocks");
        }
    }

    #[test]
    fn every_pruning_method_works() {
        let g = generate(&profiles::center_dense(80, 2));
        for pruning in [
            PruningMethod::None,
            PruningMethod::Wep,
            PruningMethod::Cep(None),
            PruningMethod::Wnp { reciprocal: true },
            PruningMethod::Cnp {
                reciprocal: false,
                k: None,
            },
            PruningMethod::blast(),
        ] {
            let cfg = PipelineConfig {
                pruning,
                ..Default::default()
            };
            let out = Pipeline::new(cfg).run(&g.dataset);
            assert!(out.candidates > 0, "{pruning:?} produced no candidates");
        }
    }

    #[test]
    fn pruning_none_keeps_every_edge() {
        let g = generate(&profiles::center_dense(60, 3));
        let all = Pipeline::new(PipelineConfig {
            pruning: PruningMethod::None,
            ..Default::default()
        });
        let wep = Pipeline::new(PipelineConfig {
            pruning: PruningMethod::Wep,
            ..Default::default()
        });
        let blocks_a = all.clean_blocks(all.block(&g.dataset));
        let ca = all.meta_block(&blocks_a).len();
        let cw = wep.meta_block(&blocks_a).len();
        assert!(cw < ca, "WEP must prune ({cw} vs {ca})");
    }

    #[test]
    fn backends_and_worker_counts_resolve_alike() {
        let g = generate(&profiles::center_dense(120, 9));
        for pruning in [
            PruningMethod::None,
            PruningMethod::Wep,
            PruningMethod::Cep(None),
            PruningMethod::Wnp { reciprocal: false },
            PruningMethod::Cnp {
                reciprocal: true,
                k: None,
            },
        ] {
            let base = PipelineConfig {
                pruning,
                ..Default::default()
            };
            let m = Pipeline::new(base.clone()).run(&g.dataset);
            for backend in [ExecutionBackend::Streaming, ExecutionBackend::MapReduce] {
                let s = Pipeline::new(PipelineConfig {
                    backend,
                    ..base.clone()
                })
                .run(&g.dataset);
                assert_eq!(m.candidates, s.candidates, "{backend:?}/{pruning:?}");
                assert_eq!(
                    m.resolution.matches, s.resolution.matches,
                    "{backend:?}/{pruning:?}"
                );
                assert_eq!(
                    m.resolution.comparisons, s.resolution.comparisons,
                    "{backend:?}/{pruning:?}"
                );
            }
        }
    }

    #[test]
    fn candidate_lists_are_bitwise_equal_across_backends() {
        // Stronger than the end-to-end check above: the weighted
        // candidate list itself must agree pair-for-pair and bit-for-bit
        // for every backend × pruning method × weighting scheme combo.
        let g = generate(&profiles::center_dense(100, 17));
        for scheme in WeightingScheme::ALL {
            for pruning in [
                PruningMethod::None,
                PruningMethod::Wep,
                PruningMethod::Cep(Some(40)),
                PruningMethod::Wnp { reciprocal: true },
                PruningMethod::Cnp {
                    reciprocal: false,
                    k: Some(2),
                },
                PruningMethod::blast(),
            ] {
                let base = PipelineConfig {
                    pruning,
                    weighting: scheme,
                    ..Default::default()
                };
                let first = Pipeline::new(base.clone());
                let blocks = first.clean_blocks(first.block(&g.dataset));
                let m = first.meta_block(&blocks);
                for backend in [ExecutionBackend::Streaming, ExecutionBackend::MapReduce] {
                    let s = Pipeline::new(PipelineConfig {
                        backend,
                        workers: Some(3),
                        ..base.clone()
                    })
                    .meta_block(&blocks);
                    assert_eq!(m.len(), s.len(), "{backend:?}/{scheme:?}/{pruning:?}");
                    for (x, y) in m.iter().zip(&s) {
                        assert_eq!((x.0, x.1), (y.0, y.1), "{backend:?}/{scheme:?}/{pruning:?}");
                        assert_eq!(
                            x.2.to_bits(),
                            y.2.to_bits(),
                            "{backend:?}/{scheme:?}/{pruning:?}: weight bits"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn supervised_pruning_runs_through_the_pipeline_on_every_backend() {
        use minoan_metablocking::{Perceptron, Session, TrainingSet};
        let g = generate(&profiles::center_dense(100, 21));
        let base = Pipeline::new(PipelineConfig::default());
        let blocks = base.clean_blocks(base.block(&g.dataset));
        let mut session = Session::new(&blocks);
        let set = TrainingSet::sample(&mut session, |a, b| g.truth.is_match(a, b), 40, 11);
        let model = Perceptron::train(&set, 12);
        let cfg = |backend| PipelineConfig {
            pruning: PruningMethod::Supervised(model),
            backend,
            workers: Some(3),
            ..Default::default()
        };
        let m = Pipeline::new(cfg(ExecutionBackend::Streaming)).meta_block(&blocks);
        assert!(!m.is_empty(), "supervised pruning kept nothing");
        let s = Pipeline::new(cfg(ExecutionBackend::MapReduce)).meta_block(&blocks);
        assert_eq!(m.len(), s.len());
        for (x, y) in m.iter().zip(&s) {
            assert_eq!((x.0, x.1), (y.0, y.1));
            assert_eq!(x.2.to_bits(), y.2.to_bits(), "weight bits");
        }
    }

    #[test]
    fn overlapped_matcher_build_changes_no_bit_of_the_resolution() {
        // `workers: Some(1)` builds the matcher inline after the blocking
        // chain, `Some(2)` on a scoped thread beside it.
        let g = generate(&profiles::lod_cloud(150, 23));
        let mut strategies = vec![
            Strategy::Batch,
            Strategy::Random { seed: 7 },
            Strategy::StaticBestFirst,
        ];
        strategies.extend(BenefitModel::ALL.map(Strategy::Progressive));
        for strategy in strategies {
            let run = |workers| {
                Pipeline::new(PipelineConfig {
                    workers: Some(workers),
                    resolver: ResolverConfig {
                        strategy,
                        ..Default::default()
                    },
                    ..Default::default()
                })
                .run(&g.dataset)
            };
            let (inline, overlapped) = (run(1), run(2));
            assert!(!inline.resolution.matches.is_empty(), "{strategy:?}");
            assert_eq!(inline.blocks_raw, overlapped.blocks_raw);
            assert_eq!(inline.blocks_clean, overlapped.blocks_clean);
            assert_eq!(inline.candidates, overlapped.candidates);
            let (a, b) = (&inline.resolution, &overlapped.resolution);
            let match_bits = |r: &Resolution| -> Vec<(EntityId, EntityId, u64)> {
                r.matches
                    .iter()
                    .map(|m| (m.0, m.1, m.2.to_bits()))
                    .collect()
            };
            assert_eq!(match_bits(a), match_bits(b), "{strategy:?}");
            let step_bits = |r: &Resolution| -> Vec<(u64, u32, u32, [u64; 3], bool, bool)> {
                r.trace
                    .steps()
                    .iter()
                    .map(|s| {
                        let floats = [s.value_similarity, s.score, s.benefit].map(f64::to_bits);
                        (s.comparison, s.a, s.b, floats, s.matched, s.discovered)
                    })
                    .collect()
            };
            assert_eq!(step_bits(a), step_bits(b), "{strategy:?}");
            assert_eq!(a.clusters, b.clusters, "{strategy:?}");
            assert_eq!(a.comparisons, b.comparisons, "{strategy:?}");
            assert_eq!(a.discovered_candidates, b.discovered_candidates);
        }
    }

    #[test]
    fn dirty_mode_pipeline() {
        let g = generate(&profiles::dirty_single(80, 4));
        let cfg = PipelineConfig {
            mode: ErMode::Dirty,
            resolver: ResolverConfig {
                strategy: Strategy::Progressive(BenefitModel::EntityCoverage),
                ..Default::default()
            },
            ..Default::default()
        };
        let out = Pipeline::new(cfg).run(&g.dataset);
        assert!(!out.resolution.matches.is_empty());
    }
}
