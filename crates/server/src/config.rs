//! Server sizing and contract defaults.

use skyline_storage::Disk;
use std::sync::Arc;
use std::time::Duration;

/// Sizing and default-contract knobs for a [`crate::SkylineServer`].
///
/// The admission watermarks are derived from these: queue depth is
/// bounded by `queue_capacity` credits plus one per worker (a query
/// holds its credit from admission to completion), and in-flight pages
/// are bounded by `pool_pages` (each admitted query charges its quota
/// against the shared ledger up front).
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads executing queries (minimum 1).
    pub workers: usize,
    /// Jobs that may wait in the queue beyond the ones being executed.
    pub queue_capacity: usize,
    /// Shared in-flight page ledger: the sum of admitted queries'
    /// quotas may not exceed this.
    pub pool_pages: usize,
    /// Default per-query page quota (overridable per submission).
    pub quota_pages: usize,
    /// Default per-query deadline (`None` = unbounded; overridable per
    /// submission).
    pub deadline: Option<Duration>,
    /// How long a submission may wait for a queue credit before it is
    /// shed with [`crate::ServerError::Overloaded`].
    pub admission_timeout: Duration,
    /// Rows per streamed result batch.
    pub batch_rows: usize,
    /// Bounded depth of each query's result channel, in batches; a full
    /// channel backpressures the worker.
    pub result_batches: usize,
    /// How long a worker waits on a full result channel before it
    /// declares the consumer stalled and cancels the query.
    pub stream_grace: Duration,
    /// Backoff hint carried by [`crate::ServerError::Overloaded`].
    pub retry_after_ms: u64,
    /// Formerly the row count at which queries left the in-memory
    /// executor for the paged engine. Ignored: every skyline pages,
    /// whatever the table's size. The default keeps the old value,
    /// 50 000, which the benchmark's traced replay still reads to choose
    /// the stages it replays (it has no paged `DIFF` stage).
    #[deprecated(note = "ignored; removed with benchmark/src/replay.rs in ROADMAP 1b")]
    pub external_threshold: usize,
    /// Most pages granted to a presort pass: one for the elimination
    /// filter, the rest for the sort arena. A pass reserves no more than
    /// its input needs, and never fewer than 4. At least 4 (a paged
    /// query under fewer fails with a typed configuration error), and
    /// must fit inside `quota_pages`, or a large query fails its quota on
    /// the very first reservation.
    pub sort_pages: usize,
    /// Formerly the worker threads of the `Parallel` hint. Ignored: every
    /// skyline runs one filter. The benchmark's traced replay still reads
    /// it.
    #[deprecated(note = "ignored; removed with benchmark/src/replay.rs in ROADMAP 1b")]
    pub threads: usize,
    /// Disk receiving external spills (`None` = a private in-memory
    /// disk per query). A harness passes its fault-injected disk here.
    pub disk: Option<Arc<dyn Disk>>,
}

impl Default for ServerConfig {
    // the ignored fields still need a value
    #[allow(deprecated)]
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            pool_pages: 4096,
            quota_pages: 512,
            deadline: None,
            admission_timeout: Duration::from_millis(50),
            batch_rows: 64,
            result_batches: 8,
            stream_grace: Duration::from_secs(1),
            retry_after_ms: 10,
            external_threshold: 50_000,
            sort_pages: 64,
            threads: 0,
            disk: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_coherent() {
        let cfg = ServerConfig::default();
        assert!(cfg.workers >= 1);
        assert!(cfg.quota_pages <= cfg.pool_pages);
        assert!(cfg.sort_pages <= cfg.quota_pages);
        assert!(cfg.batch_rows >= 1 && cfg.result_batches >= 1);
    }
}
