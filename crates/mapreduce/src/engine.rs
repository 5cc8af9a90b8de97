//! The execution engine: parallel map, shuffle, parallel reduce.

use crate::counters::Counters;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Per-phase execution statistics of one job.
#[derive(Clone, Debug, Default)]
pub struct JobStats {
    /// Wall time of the parallel map phase, nanoseconds.
    pub map_nanos: u64,
    /// Wall time of the parallel partition shuffle + reduce, nanoseconds.
    pub shuffle_nanos: u64,
    /// Wall time of the final gather/merge, nanoseconds.
    pub reduce_nanos: u64,
    /// Number of map tasks (input chunks).
    pub map_tasks: usize,
    /// Number of distinct intermediate keys (= reduce groups).
    pub reduce_groups: usize,
    /// Number of intermediate key–value pairs shuffled.
    pub intermediate_pairs: usize,
    /// Measured duration of each map task, nanoseconds (task order).
    pub map_task_nanos: Vec<u64>,
    /// Measured duration of each shuffle+reduce partition, nanoseconds.
    pub partition_nanos: Vec<u64>,
}

impl JobStats {
    /// Total wall time of the job in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.map_nanos + self.shuffle_nanos + self.reduce_nanos
    }

    /// Models the job's makespan on `workers` parallel workers by greedy
    /// longest-processing-time scheduling of the *measured* task
    /// durations (map tasks, then partitions, plus the serial gather).
    ///
    /// This is the cluster simulation used when physical cores are not
    /// available: task durations are real, only their overlap is modeled.
    pub fn modeled_nanos(&self, workers: usize) -> u64 {
        let workers = workers.max(1);
        let phase = |tasks: &[u64]| -> u64 {
            let mut sorted: Vec<u64> = tasks.to_vec();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let mut loads = vec![0u64; workers];
            for t in sorted {
                let min = loads.iter_mut().min().expect("workers >= 1");
                *min += t;
            }
            loads.into_iter().max().unwrap_or(0)
        };
        phase(&self.map_task_nanos) + phase(&self.partition_nanos) + self.reduce_nanos
    }
}

/// Output, counters and statistics of a completed job.
#[derive(Debug)]
pub struct JobResult<O> {
    /// Reduce output, ordered by intermediate key (then emission order).
    pub output: Vec<O>,
    /// Aggregated named counters.
    pub counters: Counters,
    /// Phase timings and sizes.
    pub stats: JobStats,
}

/// A MapReduce execution engine with a fixed worker-thread count.
///
/// The engine is stateless between jobs; it can be cloned freely and reused.
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    workers: usize,
}

impl Default for Engine {
    /// An engine using all available CPU parallelism.
    fn default() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl Engine {
    /// Creates an engine with `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Number of worker threads used by map and reduce phases.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a job. See [`Engine::run_full`].
    pub fn run<I, K, V, O, M, R>(&self, inputs: Vec<I>, map_fn: M, reduce_fn: R) -> JobResult<O>
    where
        I: Send + Sync,
        K: Ord + std::hash::Hash + Clone + Send,
        V: Send,
        O: Send,
        M: Fn(&I, &mut dyn FnMut(K, V)) + Sync,
        R: Fn(&K, &mut Vec<V>, &mut Vec<O>) + Sync,
    {
        self.run_full(
            inputs,
            |input, emit, _c| map_fn(input, emit),
            |key, vals, out, _c| reduce_fn(key, vals, out),
        )
    }

    /// Full-control entry point: map and reduce closures also receive the
    /// job [`Counters`]. Uses hash partitioning (Hadoop's default
    /// partitioner).
    ///
    /// Determinism contract: map tasks are contiguous input chunks taken in
    /// order; each key group's value list preserves (chunk index, emission
    /// index) order; output is ordered by key, then by reduce emission
    /// order. The worker count never changes the result.
    pub fn run_full<I, K, V, O, M, R>(
        &self,
        inputs: Vec<I>,
        map_fn: M,
        reduce_fn: R,
    ) -> JobResult<O>
    where
        I: Send + Sync,
        K: Ord + std::hash::Hash + Clone + Send,
        V: Send,
        O: Send,
        M: Fn(&I, &mut dyn FnMut(K, V), &Counters) + Sync,
        R: Fn(&K, &mut Vec<V>, &mut Vec<O>, &Counters) + Sync,
    {
        let hasher = minoan_common::FxBuildHasher::default();
        self.run_partitioned(
            inputs,
            move |k: &K, parts: usize| {
                use std::hash::BuildHasher;
                (hasher.hash_one(k) as usize) % parts
            },
            map_fn,
            reduce_fn,
        )
    }

    /// As [`Engine::run_full`], with an explicit partitioner hook:
    /// `partitioner(key, partitions)` assigns each intermediate key
    /// to a reduce partition (any out-of-range result is clamped).
    /// Hadoop exposes the same hook for jobs whose keys carry locality —
    /// e.g. the entity-partitioned meta-blocking jobs range-partition
    /// entity ids so a reducer owns a contiguous id slice. The output is
    /// globally key-sorted either way; the partitioner only shapes the
    /// per-partition work distribution, never the result.
    pub fn run_partitioned<I, K, V, O, P, M, R>(
        &self,
        inputs: Vec<I>,
        partitioner: P,
        map_fn: M,
        reduce_fn: R,
    ) -> JobResult<O>
    where
        I: Send + Sync,
        K: Ord + Clone + Send,
        V: Send,
        O: Send,
        P: Fn(&K, usize) -> usize + Sync,
        M: Fn(&I, &mut dyn FnMut(K, V), &Counters) + Sync,
        R: Fn(&K, &mut Vec<V>, &mut Vec<O>, &Counters) + Sync,
    {
        let counters = Counters::new();
        let mut stats = JobStats::default();
        // Each reduce partition owns a disjoint key set, so grouping and
        // reducing run in parallel per partition.
        let partitions = self.workers;
        let part_of = |k: &K| -> usize { partitioner(k, partitions).min(partitions - 1) };

        // ---- Map phase -----------------------------------------------------
        let t0 = Instant::now();
        // 4 chunks per worker bounds scheduling skew without creating
        // per-item overhead.
        let num_chunks = if inputs.is_empty() {
            0
        } else {
            (self.workers * 4).min(inputs.len())
        };
        stats.map_tasks = num_chunks;
        // Per map task: its index, its spilled (key, value) pairs per
        // partition, and its duration.
        type MapTask<K, V> = (usize, Vec<Vec<(K, V)>>, u64);
        let mut spills: Vec<MapTask<K, V>> = Vec::with_capacity(num_chunks);
        if num_chunks > 0 {
            let chunk_size = inputs.len().div_ceil(num_chunks);
            let next = AtomicUsize::new(0);
            let (inputs, map_fn, counters, next, part_of) =
                (&inputs, &map_fn, &counters, &next, &part_of);
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..self.workers.min(num_chunks))
                    .map(|_| {
                        scope.spawn(move || {
                            let mut done = Vec::new();
                            loop {
                                let c = next.fetch_add(1, Ordering::Relaxed);
                                if c >= num_chunks {
                                    break done;
                                }
                                // Ceil-divided chunks can overshoot: clamp
                                // both ends (trailing chunks may be empty).
                                let lo = (c * chunk_size).min(inputs.len());
                                let hi = ((c + 1) * chunk_size).min(inputs.len());
                                let task_start = Instant::now();
                                let mut local: Vec<(K, V)> = Vec::new();
                                for input in &inputs[lo..hi] {
                                    map_fn(input, &mut |k, v| local.push((k, v)), counters);
                                }
                                // Spill into per-partition buffers.
                                let mut parts: Vec<Vec<(K, V)>> =
                                    (0..partitions).map(|_| Vec::new()).collect();
                                for (k, v) in local {
                                    parts[part_of(&k)].push((k, v));
                                }
                                done.push((c, parts, task_start.elapsed().as_nanos() as u64));
                            }
                        })
                    })
                    .collect();
                spills.extend(workers.into_iter().flat_map(joined));
            });
        }
        spills.sort_unstable_by_key(|&(c, ..)| c);
        stats.map_nanos = t0.elapsed().as_nanos() as u64;
        stats.map_task_nanos = spills.iter().map(|&(.., nanos)| nanos).collect();

        // ---- Shuffle + reduce, parallel per partition ------------------------
        let t1 = Instant::now();
        // Each partition sorts its pairs by key — stably, so each key's
        // values keep their spill order — and reduces each key's run in key
        // order.
        let mut by_partition: Vec<Vec<Vec<(K, V)>>> = (0..partitions)
            .map(|_| Vec::with_capacity(num_chunks))
            .collect();
        for (_, parts, _) in spills {
            for (p, spill) in parts.into_iter().enumerate() {
                by_partition[p].push(spill);
            }
        }
        // Per partition: its reduce output, intermediate pairs and duration.
        type ReduceTask<K, O> = (Vec<(K, Vec<O>)>, usize, u64);
        let mut reduced: Vec<ReduceTask<K, O>> = Vec::with_capacity(partitions);
        if num_chunks > 0 {
            let (reduce_fn, counters) = (&reduce_fn, &counters);
            std::thread::scope(|scope| {
                let workers: Vec<_> = by_partition
                    .into_iter()
                    .map(|spills| {
                        scope.spawn(move || {
                            let task_start = Instant::now();
                            let mut sorted: Vec<(K, V)> = spills.into_iter().flatten().collect();
                            let pairs = sorted.len();
                            sorted.sort_by(|a, b| a.0.cmp(&b.0));
                            let mut sorted = sorted.into_iter().peekable();
                            let mut results: Vec<(K, Vec<O>)> = Vec::new();
                            while let Some((key, first)) = sorted.next() {
                                let mut vals = vec![first];
                                while let Some((_, v)) = sorted.next_if(|(k, _)| *k == key) {
                                    vals.push(v);
                                }
                                let mut out = Vec::new();
                                reduce_fn(&key, &mut vals, &mut out, counters);
                                results.push((key, out));
                            }
                            (results, pairs, task_start.elapsed().as_nanos() as u64)
                        })
                    })
                    .collect();
                reduced.extend(workers.into_iter().map(joined));
            });
        }
        stats.intermediate_pairs = reduced.iter().map(|&(_, pairs, _)| pairs).sum();
        stats.reduce_groups = reduced.iter().map(|(results, ..)| results.len()).sum();
        stats.shuffle_nanos = t1.elapsed().as_nanos() as u64;
        stats.partition_nanos = reduced.iter().map(|&(.., nanos)| nanos).collect();
        // An empty job ran no partition: each reads 0.
        stats.partition_nanos.resize(partitions, 0);

        // ---- Gather: merge partitions back into global key order ------------
        let t2 = Instant::now();
        let mut all: Vec<(K, Vec<O>)> = Vec::with_capacity(stats.reduce_groups);
        for (mut results, ..) in reduced {
            all.append(&mut results);
        }
        all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut output = Vec::new();
        for (_, mut out) in all {
            output.append(&mut out);
        }
        stats.reduce_nanos = t2.elapsed().as_nanos() as u64;

        JobResult {
            output,
            counters,
            stats,
        }
    }
}

/// What a scoped worker returned; a worker's panic resumes on the caller.
fn joined<T>(worker: std::thread::ScopedJoinHandle<'_, T>) -> T {
    worker
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word_count(engine: &Engine, docs: Vec<&'static str>) -> Vec<(String, u64)> {
        engine
            .run(
                docs,
                |doc, emit| {
                    for w in doc.split_whitespace() {
                        emit(w.to_string(), 1u64);
                    }
                },
                |k, vs, out| out.push((k.clone(), vs.iter().sum())),
            )
            .output
    }

    #[test]
    fn word_count_is_correct_and_sorted() {
        let e = Engine::new(4);
        let out = word_count(&e, vec!["b a b", "c b"]);
        assert_eq!(out, vec![("a".into(), 1), ("b".into(), 3), ("c".into(), 1)]);
    }

    #[test]
    fn worker_count_does_not_change_result() {
        let docs = vec!["x y z", "y y", "z x q w e r t", "q q q"];
        let single = word_count(&Engine::new(1), docs.clone());
        for n in [2, 3, 8] {
            assert_eq!(word_count(&Engine::new(n), docs.clone()), single);
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let e = Engine::new(4);
        let r = e.run(
            Vec::<u32>::new(),
            |_, _emit: &mut dyn FnMut(u32, u32)| {},
            |_, _, _out: &mut Vec<u32>| {},
        );
        assert!(r.output.is_empty());
        assert_eq!(r.stats.map_tasks, 0);
        assert_eq!(r.stats.reduce_groups, 0);
    }

    #[test]
    fn counters_aggregate_across_phases() {
        let e = Engine::new(3);
        let r = e.run_full(
            vec![1u32, 2, 3, 4, 5],
            |x, emit, c| {
                c.incr("mapped");
                emit(x % 2, *x);
            },
            |_k, vs, out: &mut Vec<u32>, c| {
                c.incr("reduced");
                out.push(vs.iter().sum());
            },
        );
        assert_eq!(r.counters.get("mapped"), 5);
        assert_eq!(r.counters.get("reduced"), 2);
        assert_eq!(r.output, vec![2 + 4, 1 + 3 + 5]);
    }

    #[test]
    fn value_order_within_group_is_input_order() {
        let e = Engine::new(4);
        let inputs: Vec<u32> = (0..100).collect();
        let r = e.run(
            inputs,
            |x, emit| emit((), *x),
            |_k, vs, out: &mut Vec<Vec<u32>>| out.push(vs.clone()),
        );
        assert_eq!(r.output.len(), 1);
        let expected: Vec<u32> = (0..100).collect();
        assert_eq!(r.output[0], expected);
    }

    #[test]
    fn stats_are_populated() {
        let e = Engine::new(2);
        let r = e.run(
            vec!["a b", "b c"],
            |d, emit| {
                for w in d.split_whitespace() {
                    emit(w.to_string(), 1u64);
                }
            },
            |k, vs, out| out.push((k.clone(), vs.iter().sum::<u64>())),
        );
        assert_eq!(r.stats.intermediate_pairs, 4);
        assert_eq!(r.stats.reduce_groups, 3);
        assert!(r.stats.map_tasks >= 1);
        assert!(r.stats.total_nanos() > 0);
    }

    #[test]
    fn custom_partitioner_matches_hash_partitioner_output() {
        let docs = vec!["x y z", "y y", "z x q w e r t", "q q q"];
        let e = Engine::new(3);
        let hashed = word_count(&e, docs.clone());
        let ranged = e
            .run_partitioned(
                docs,
                // Range partitioner on the first byte; deliberately skewed,
                // and deliberately out of range for some keys (clamped).
                |k: &String, parts| (k.as_bytes()[0] as usize - b'a' as usize) * parts / 4,
                |d, emit, _c| {
                    for w in d.split_whitespace() {
                        emit(w.to_string(), 1u64);
                    }
                },
                |k, vs, out, _c| out.push((k.clone(), vs.iter().sum::<u64>())),
            )
            .output;
        assert_eq!(hashed, ranged);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let e = Engine::new(0);
        assert_eq!(e.workers(), 1);
        assert_eq!(word_count(&e, vec!["hi"]), vec![("hi".into(), 1)]);
    }
}
