//! Per-query execution contracts: algorithm choice, page quotas,
//! cooperative cancellation, and spill-disk placement.
//!
//! [`ExecOptions`] is how a session layer (or a test harness) pins down
//! *how* a query may run: which skyline algorithm, how many buffer-pool
//! pages its working sets may charge, which [`CancelToken`] bounds its
//! lifetime, and which [`Disk`] receives external spills. The default
//! options are those of [`crate::execute`]: the paged engine's default
//! presort (SFS), no quota, no deadline, a private in-memory spill disk.

use skyline_exec::CancelToken;
use skyline_storage::{BufferPool, Disk, PAGE_SIZE};
use std::sync::Arc;

/// Which skyline algorithm the executor runs.
///
/// All variants compute the same skyline; they differ in comparison
/// count, memory shape, and emission order. Every hint but
/// [`SkylineAlgo::DivideAndConquer`] runs on the paged engine
/// ([`crate::pushdown::external_skyline_with`]) whatever the table's
/// size. The quota sweep in the repo's tests drives every variant to its
/// typed [`crate::QueryError::QuotaExceeded`] edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkylineAlgo {
    /// The engine's choice, which is entropy-presorted SFS (the same
    /// operator as [`SkylineAlgo::Sfs`]).
    #[default]
    Auto,
    /// Sort-Filter-Skyline with the entropy presort (the paper's
    /// algorithm).
    Sfs,
    /// Block-nested-loops over the unsorted stream (the paper's
    /// baseline). A `DIFF` clause presorts all the same: BNL cannot
    /// group.
    Bnl,
    /// Divide-and-conquer: the one in-memory hint. It builds the
    /// oriented key matrix, charges [`matrix_pages`] for it, never
    /// writes a page and ignores `sort_pages`.
    DivideAndConquer,
    /// Partitioned parallel SFS over the presorted stream.
    Parallel,
    /// The strata generalisation with `k = 1`: stratum s₀ *is* the
    /// skyline, so the paged engine runs it as SFS.
    Strata,
}

/// Execution contract for one query.
///
/// Cloning is cheap: the pool and disk are shared handles, the token is
/// an `Arc` flag.
#[derive(Clone)]
pub struct ExecOptions {
    /// Algorithm choice (default [`SkylineAlgo::Auto`]).
    pub algo: SkylineAlgo,
    /// Page quota: when set, every skyline working set — the sort
    /// arena, the filter window, divide-and-conquer's key matrix — is
    /// charged against this pool, and exhaustion surfaces as the typed
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
    /// Worker threads for [`SkylineAlgo::Parallel`]; `0` means one per
    /// available core.
    pub threads: usize,
    /// Disk receiving external spills. `None` (the default) uses a
    /// private in-memory disk that vanishes with the query; a session
    /// layer passes its shared (possibly fault-injected) disk here, and
    /// the executor then deletes every file it created on all paths.
    pub disk: Option<Arc<dyn Disk>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            algo: SkylineAlgo::Auto,
            pool: None,
            cancel: None,
            sort_pages: 1000,
            threads: 0,
            disk: None,
        }
    }
}

impl ExecOptions {
    /// Select the skyline algorithm.
    #[must_use]
    pub fn with_algo(mut self, algo: SkylineAlgo) -> Self {
        self.algo = algo;
        self
    }

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

    /// Set the worker-thread count for the parallel algorithm.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Spill to `disk` instead of a private in-memory disk.
    #[must_use]
    pub fn with_disk(mut self, disk: Arc<dyn Disk>) -> Self {
        self.disk = Some(disk);
        self
    }
}

/// Pages an `n × d` matrix of 8-byte oriented keys occupies — what
/// [`SkylineAlgo::DivideAndConquer`] charges against a quota pool. Never zero: even an
/// empty relation charges the one page its bookkeeping touches.
#[must_use]
pub fn matrix_pages(n: usize, d: usize) -> usize {
    (n * d * 8).div_ceil(PAGE_SIZE).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_historical_behaviour() {
        let opts = ExecOptions::default();
        assert_eq!(opts.algo, SkylineAlgo::Auto);
        assert!(opts.pool.is_none() && opts.cancel.is_none() && opts.disk.is_none());
        assert_eq!(opts.sort_pages, 1000);
    }

    #[test]
    fn matrix_pages_rounds_up_and_never_zero() {
        assert_eq!(matrix_pages(0, 5), 1);
        assert_eq!(matrix_pages(512, 1), 1); // 4096 bytes exactly
        assert_eq!(matrix_pages(513, 1), 2);
    }
}
