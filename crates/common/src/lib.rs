//! Shared infrastructure for the MinoanER reproduction.
//!
//! This crate hosts the small, dependency-free building blocks every other
//! subsystem uses:
//!
//! * [`hash`] — an FxHash-style fast hasher plus [`FxHashMap`]/[`FxHashSet`]
//!   aliases used on all hot paths (token maps, block indexes, edge maps).
//! * [`interner`] — string interning so tokens, attribute names and URIs are
//!   handled as dense `u32` symbols.
//! * [`union_find`] — path-halving union–find used for match clustering.
//! * [`topk`] — a bounded top-k selector used by cardinality pruning (CEP,
//!   CNP) and the progressive scheduler diagnostics.
//! * [`zipf`] — Zipf-distributed sampling for the synthetic LOD generator
//!   (token popularity in real KBs is heavily skewed).
//! * [`stats`] — tiny numeric helpers (mean, percentile, AUC of a step
//!   curve) shared by evaluation and pruning code.

pub mod hash;
pub mod interner;
pub mod ordf64;
pub mod stats;
pub mod topk;
pub mod union_find;
pub mod zipf;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use interner::{Interner, Symbol};
pub use ordf64::OrdF64;
pub use topk::TopK;
pub use union_find::UnionFind;
pub use zipf::{QueryMix, Zipf};

/// Default worker count for the thread-parallel passes (CSR builds,
/// sweeps): all available parallelism, 1 when it cannot be queried. The
/// one definition every subsystem shares — results never depend on it.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
