//! Query-time resolution service over the live incremental session.
//!
//! The batch pipeline answers "prune the whole corpus"; this crate turns
//! the incremental session into a *service*: a `std::net` TCP server
//! that answers `RESOLVE <entity>` requests — each one a single
//! neighbourhood sweep, bit-identical to the incident slice of a full
//! run — while `INGEST` batches keep arriving on the same corpus.
//! No async runtime: scoped worker threads accept on one
//! [`TcpListener`](std::net::TcpListener), and the only synchronisation
//! is one `std::sync::Mutex` over the service state plus the server's
//! stop flag.
//!
//! * [`protocol`] — the length-prefixed binary wire format (`RESOLVE`,
//!   `INGEST`, `STATS`, `SHUTDOWN`; f64 weights travel as raw bits so
//!   bit-identity survives the wire).
//! * [`service`] — [`ResolveService`]: one mutex owns the
//!   [`IncrementalSession`], the [`NeighbourhoodCache`] and the request
//!   counters; each answer is stamped with the corpus version read
//!   under it.
//! * [`server`] — [`Server`]: listener + worker pool + clean shutdown.
//! * [`client`] — [`Client`]: a small blocking client used by the CLI,
//!   the bench harness and the consistency suites.
//!
//! The correctness contract is the session's: every answer equals what
//! [`IncrementalSession::resolve_entity`] returns at the answer's
//! stamped version, cache hit or miss, under any interleaving of
//! resolves and ingests — the slice incident to the entity of a batch
//! [`Session::run`] over the descriptions admitted by that version
//! (`tests/serve_consistency.rs`).
//!
//! [`IncrementalSession`]: minoan_metablocking::IncrementalSession
//! [`IncrementalSession::resolve_entity`]: minoan_metablocking::IncrementalSession::resolve_entity
//! [`NeighbourhoodCache`]: minoan_metablocking::NeighbourhoodCache
//! [`Session::run`]: minoan_metablocking::Session::run

#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::Client;
pub use protocol::{IngestReply, Request, ResolveReply, Response, StatsReply};
pub use server::Server;
pub use service::{IngestError, ResolveService};
