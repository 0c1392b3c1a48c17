//! Server sizing and contract defaults.

use skyline_query::ExecOptions;
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
    /// Row count at which queries leave the in-memory executor for the
    /// paged external engine (see [`ExecOptions::external_threshold`]).
    pub external_threshold: usize,
    /// Pages granted to an external presort pass: one for the elimination
    /// filter, the rest for the sort arena. At least 4 (a paged query
    /// under fewer fails with a typed configuration error), and must fit
    /// inside `quota_pages`, or every external query fails its quota on
    /// the very first reservation.
    pub sort_pages: usize,
    /// Worker threads for the parallel skyline algorithm (0 = one per
    /// core).
    pub threads: usize,
    /// Disk receiving external spills (`None` = a private in-memory
    /// disk per query). A harness passes its fault-injected disk here.
    pub disk: Option<Arc<dyn Disk>>,
}

impl Default for ServerConfig {
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
            external_threshold: ExecOptions::default().external_threshold,
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
