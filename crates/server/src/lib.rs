#![warn(missing_docs, clippy::missing_errors_doc, clippy::missing_panics_doc)]
// Hot path: typed errors only, nothing discarded (DESIGN.md §8.1).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok, unused_must_use))]

//! An in-process session server for skyline queries.
//!
//! [`SkylineServer`] accepts the `SKYLINE OF` SQL dialect of
//! `skyline-query`, runs each query on a bounded worker pool, and
//! enforces per-session execution contracts:
//!
//! - **Admission control** — a credit gate bounds queue depth and a
//!   shared page ledger bounds in-flight quota pages; crossing either
//!   watermark sheds load with the typed [`ServerError::Overloaded`]
//!   (carrying a retry-after hint) instead of queuing without bound.
//! - **Page quotas** — every admitted query gets a private
//!   [`skyline_storage::BufferPool`] sized to its quota; a pass that
//!   does not fit surfaces as the typed
//!   [`skyline_query::QueryError::QuotaExceeded`] with zero pages
//!   leaked, never a panic.
//! - **Deadlines** — each query's [`skyline_exec::CancelToken`] is a
//!   child of the server's root token (so shutdown fans out) with an
//!   optional per-query deadline; a trip surfaces as the typed
//!   [`skyline_query::QueryError::Cancelled`] carrying partial
//!   progress.
//! - **Streaming with backpressure** — results flow to the client in
//!   row batches through a bounded channel; a consumer slower than the
//!   stream grace has its query cancelled ([`ServerError::Stalled`])
//!   rather than wedging a worker forever.
//!
//! Per-session [`SessionStats`] counters obey a conservation law
//! (`submitted = admitted + rejected`, `admitted = completed +
//! cancelled + failed + in-flight`) and aggregate into a
//! [`ServerSnapshot`]. The storm harness in the repository's `tests/`
//! drives hundreds of queries through fault-injected disks, random
//! cancels, starved quotas and deadline storms, gating on exactly-one-
//! outcome per query, zero leaked pages, and clean worker shutdown.

#[doc(hidden)]
pub mod admission;
pub mod config;
pub mod error;
pub mod server;
pub mod stats;

pub use config::ServerConfig;
pub use error::ServerError;
pub use server::{QueryHandle, QueryOptions, Session, SkylineServer};
pub use stats::{ServerSnapshot, SessionStats};
