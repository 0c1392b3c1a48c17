//! Per-query execution contracts: page quotas, cooperative
//! cancellation, the presort budget, and spill-disk placement.
//!
//! [`ExecOptions`] is how a session layer (or a test harness) pins down
//! *how* a query may run: how many buffer-pool pages its working sets
//! may charge, which [`CancelToken`] bounds its lifetime, how many pages
//! a presort pass may take, and which [`Disk`] receives external spills.
//! *Which* skyline algorithm runs is not the caller's to choose: every
//! SQL skyline is the paper's filtered, entropy-presorted SFS on the
//! paged engine ([`crate::pushdown`]). The default options are those of
//! [`crate::execute`]: no quota, no deadline, a private in-memory spill
//! disk.

use skyline_exec::CancelToken;
use skyline_storage::{BufferPool, Disk};
use std::sync::Arc;

/// Execution contract for one query.
///
/// Cloning is cheap: the pool and disk are shared handles, the token is
/// an `Arc` flag.
#[derive(Clone)]
pub struct ExecOptions {
    /// Page quota: when set, every skyline working set — the sort
    /// arena, then the filter window — is charged against this pool, and
    /// exhaustion surfaces as the typed
    /// [`crate::QueryError::QuotaExceeded`] with zero pages leaked.
    pub pool: Option<BufferPool>,
    /// Cooperative cancellation: polled during key encoding and wired
    /// into the external operators; a trip surfaces as
    /// [`crate::QueryError::Cancelled`] with partial progress.
    pub cancel: Option<CancelToken>,
    /// External-sort budget in pages (default 1000): one page for the
    /// elimination filter ahead of the sort, the rest for its arena. A
    /// pass reserves no more than its input needs, and never fewer than
    /// 4 pages. Below 4 a paged query fails with a typed configuration
    /// error.
    pub sort_pages: usize,
    /// Disk receiving external spills. `None` (the default) uses a
    /// private in-memory disk that vanishes with the query; a session
    /// layer passes its shared (possibly fault-injected) disk here, and
    /// the executor then deletes every file it created on all paths.
    pub disk: Option<Arc<dyn Disk>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            pool: None,
            cancel: None,
            sort_pages: 1000,
            disk: None,
        }
    }
}

impl ExecOptions {
    /// Charge all working sets against `pool`.
    #[must_use]
    pub fn with_pool(mut self, pool: BufferPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Bound the query's lifetime with `token`.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Formerly the row count at which a skyline left the in-memory
    /// executor for the paged engine. Every table size pages now; this
    /// returns the options unchanged.
    #[deprecated(note = "ignored; removed with benchmark/src/replay.rs in ROADMAP 1b")]
    #[must_use]
    pub fn with_external_threshold(self, _rows: usize) -> Self {
        self
    }

    /// Override the external-sort arena budget.
    #[must_use]
    pub fn with_sort_pages(mut self, pages: usize) -> Self {
        self.sort_pages = pages;
        self
    }

    /// Formerly the worker-thread count of the `Parallel` hint. Every
    /// skyline runs one filter now; this returns the options unchanged.
    #[deprecated(note = "ignored; removed with benchmark/src/replay.rs in ROADMAP 1b")]
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Spill to `disk` instead of a private in-memory disk.
    #[must_use]
    pub fn with_disk(mut self, disk: Arc<dyn Disk>) -> Self {
        self.disk = Some(disk);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_historical_behaviour() {
        let opts = ExecOptions::default();
        assert!(opts.pool.is_none() && opts.cancel.is_none() && opts.disk.is_none());
        assert_eq!(opts.sort_pages, 1000);
    }
}
