#![warn(missing_docs, clippy::missing_errors_doc, clippy::missing_panics_doc)]
// Hot path: typed errors only, nothing discarded (DESIGN.md §8.1).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok, unused_must_use))]

//! Volcano-style physical operators over fixed-width record streams.
//!
//! Every operator implements [`Operator`]: `open` / `next` / `close`, with
//! `next` lending a `&[u8]` record valid until the following call — no
//! per-record allocation anywhere on the hot path. Operators compose into
//! left-deep pipelines: `HeapScan → ExternalSort → (skyline) → Limit`.
//! Selection and projection are not operators here: the SQL layer
//! evaluates `WHERE` and the select list per row (`skyline_query`'s
//! `plan::Output` and `expr::eval`).
//!
//! The crate hosts the paper's substrate operators:
//!
//! * [`sort::ExternalSort`] — run-generation + k-way-merge external sort
//!   under a page budget, the *presort* of Sort-Filter-Skyline. The paper
//!   gives the sort ~1000 buffer pages (§5) and treats sort and filter as
//!   separately scheduled operations; so do we.
//! * [`group_max::GroupMax`] — the `GROUP BY a₁..a_{k−1}, MAX(a_k)`
//!   pre-pass of the *dimensional reduction* optimization (paper Fig. 8).
//! * [`limit::Limit`], [`op::HeapScan`], [`op::MemSource`] — plumbing
//!   every engine needs.

pub mod backpressure;
pub mod batch;
pub mod cancel;
pub mod error;
pub mod group_max;
pub mod limit;
pub mod op;
pub mod queue;
pub mod sort;
mod sync_util;

pub use backpressure::{Backpressure, Credit, TryAcquire};
pub use batch::{BatchEncode, BatchHeapScan, BatchSource, KeyBatch, KeyExtract, NarrowLayout};
pub use cancel::CancelToken;
pub use error::ExecError;
pub use group_max::GroupMax;
pub use limit::Limit;
pub use op::{
    collect, BoxedOperator, ChainScan, HeapScan, IndexScan, MemSource, Operator, StridedHeapScan,
};
pub use queue::{PushTimeout, TryPop, WorkQueue};
pub use sort::{ExternalSort, RecordComparator, SortBudget};
