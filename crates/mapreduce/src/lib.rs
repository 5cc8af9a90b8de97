//! A deterministic, in-process MapReduce engine.
//!
//! MinoanER runs blocking and meta-blocking "via Hadoop MapReduce" (paper
//! §1, refs [4, 5]). A Hadoop cluster is not available here, so this crate
//! provides a faithful single-machine substitute that preserves the
//! programming model those algorithms are expressed in:
//!
//! * **map** over input splits (parallel across worker threads),
//! * a **shuffle** grouping values by key — hash-partitioned by default,
//!   with a pluggable partitioner hook ([`Engine::run_partitioned`]) for
//!   jobs whose keys carry locality (e.g. range-partitioned entity ids),
//! * **reduce** over key groups (parallel across worker threads),
//! * named **counters** aggregated across tasks, and per-phase timings.
//!
//! Executions are *deterministic*: map tasks own contiguous input chunks,
//! shuffle preserves (chunk, emission) order within each key group, reduce
//! output is ordered by key. Running with 1 or N workers yields the same
//! result, so parallel speedup experiments (`reproduce exp7`) compare
//! identical work.
//!
//! # Example
//!
//! ```
//! use minoan_mapreduce::Engine;
//!
//! // Word count.
//! let docs = vec!["to be or not to be", "be fast"];
//! let engine = Engine::new(4);
//! let result = engine.run(
//!     docs,
//!     |doc, emit| {
//!         for w in doc.split_whitespace() {
//!             emit(w.to_string(), 1u64);
//!         }
//!     },
//!     |word, counts, out| out.push((word.clone(), counts.iter().sum::<u64>())),
//! );
//! let freq = result.output;
//! assert!(freq.contains(&("be".to_string(), 3)));
//! ```

mod counters;
mod engine;
pub mod faults;

pub use counters::Counters;
pub use engine::{Engine, JobResult, JobStats};
pub use faults::{fault_free_makespan, simulate_cluster, FaultConfig, SimOutcome};
