//! Token blocking as a MapReduce job (reference \[5\]'s substrate).
//!
//! * **map**: entity → `(token, entity)` for every distinct blocking token;
//! * **reduce**: token → block (member list), dropping useless blocks.
//!
//! The output is bit-identical to the serial builder; the point of this
//! module is the E7 scalability experiment and fidelity to the paper's
//! "parallel processing power of a computer cluster via Hadoop MapReduce".

use crate::collection::{BlockCollection, ErMode};
use minoan_mapreduce::Engine;
use minoan_rdf::{Dataset, EntityId};

/// Runs token blocking on `engine`. Equivalent to the serial builder.
pub fn parallel_token_blocking(
    dataset: &Dataset,
    mode: ErMode,
    engine: &Engine,
) -> BlockCollection {
    parallel_token_blocking_with_stats(dataset, mode, engine).0
}

/// As [`parallel_token_blocking`], also returning the job's execution
/// statistics (used by the scalability experiment E7).
pub fn parallel_token_blocking_with_stats(
    dataset: &Dataset,
    mode: ErMode,
    engine: &Engine,
) -> (BlockCollection, minoan_mapreduce::JobStats) {
    let inputs: Vec<EntityId> = dataset.entities().collect();
    let result = engine.run(
        inputs,
        |&e, emit| {
            let mut tokens = dataset.blocking_tokens(e);
            tokens.sort_unstable();
            tokens.dedup();
            for t in tokens {
                emit(t, e);
            }
        },
        |token, members, out| {
            out.push((token.clone(), members.clone()));
        },
    );
    (
        BlockCollection::from_groups(dataset, mode, result.output),
        result.stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::token_blocking;
    use minoan_datagen::{generate, profiles};

    #[test]
    fn parallel_matches_serial() {
        let g = generate(&profiles::center_dense(120, 2));
        let serial = token_blocking(&g.dataset, ErMode::CleanClean);
        for workers in [1, 4] {
            let par =
                parallel_token_blocking(&g.dataset, ErMode::CleanClean, &Engine::new(workers));
            assert_eq!(par.len(), serial.len());
            assert_eq!(par.total_comparisons(), serial.total_comparisons());
            for (a, b) in par.blocks().zip(serial.blocks()) {
                assert_eq!(a.entities, b.entities);
            }
        }
    }

    #[test]
    fn works_in_dirty_mode() {
        let g = generate(&profiles::dirty_single(60, 2));
        let par = parallel_token_blocking(&g.dataset, ErMode::Dirty, &Engine::new(2));
        let serial = token_blocking(&g.dataset, ErMode::Dirty);
        assert_eq!(par.total_comparisons(), serial.total_comparisons());
    }
}
