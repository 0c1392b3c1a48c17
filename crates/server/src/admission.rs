//! One admitted query's resources and open book entry, as one value.
//!
//! An [`Admission`] owns the page charge on the shared ledger, the queue
//! [`Credit`] and the session's `admitted`/`in_flight` entry. It is the
//! only way to build a job, so a job the workers can see is already on
//! the books; and it leaves the books in exactly one of three ways:
//!
//! - [`Admission::settle`] — the worker finished: the verdict is
//!   counted, the charge and the credit go home, and the caller gets the
//!   [`Settled`] token the terminal message is built from. Nothing else
//!   can build one, so a client that has read its verdict finds the
//!   books closed and its pages back.
//! - dropped before `Admission::start` — the enqueue failed: the entry
//!   is rolled back, as if the query had never been admitted.
//! - dropped after `start` — the worker unwound mid-query: it settles as
//!   `failed`.
//!
//! `settle` consumes the admission, so the books cannot be closed twice:
//!
//! ```compile_fail,E0382
//! # use skyline_server::admission::Admission;
//! fn twice(a: Admission) {
//!     let _first = a.settle(Ok(()), 0);
//!     let _second = a.settle(Ok(()), 0);
//! }
//! ```
//!
//! and a terminal message cannot be built without settling:
//!
//! ```compile_fail,E0451
//! let forged = skyline_server::admission::Settled { terminal: Ok(()) };
//! ```

use crate::config::ServerConfig;
use crate::error::ServerError;
use crate::server::lock;
use crate::stats::SessionStats;
use skyline_exec::{Backpressure, Credit, TryAcquire};
use skyline_storage::{BufferLease, BufferPool};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where an admission stands; decides what dropping it means.
enum Phase {
    Queued {
        since: Instant,
    },
    Running {
        since: Instant,
        waited: Duration,
        /// Worker start → the first row batch pushed.
        first_batch: Option<Duration>,
    },
    Settled,
}

/// An admitted query's page charge, queue credit and open book entry.
pub struct Admission {
    stats: Arc<Mutex<SessionStats>>,
    phase: Phase,
    // returned when the admission drops, however it ends
    _charge: BufferLease,
    _credit: Credit,
}

/// Proof that a query's books are closed: the only payload the terminal
/// message accepts, and only [`Admission::settle`] makes one.
pub struct Settled {
    terminal: Result<(), ServerError>,
}

impl Settled {
    /// How the query ended.
    pub(crate) fn into_result(self) -> Result<(), ServerError> {
        self.terminal
    }
}

impl Admission {
    /// Admit one query or shed it typed: charge its whole quota to the
    /// in-flight page ledger (so admitted quotas never oversubscribe
    /// `pool`), wait at most the admission timeout for a queue credit,
    /// then open the book entry.
    ///
    /// # Errors
    /// [`ServerError::Overloaded`] when either watermark is crossed,
    /// [`ServerError::Shutdown`] when the gate is closed. Nothing is held
    /// and no counter has moved.
    pub fn open(
        pool: &BufferPool,
        gate: &Backpressure,
        cfg: &ServerConfig,
        quota_pages: usize,
        stats: &Arc<Mutex<SessionStats>>,
    ) -> Result<Admission, ServerError> {
        let overloaded = ServerError::Overloaded {
            retry_after_ms: cfg.retry_after_ms,
        };
        let Ok(charge) = pool.reserve(quota_pages) else {
            return Err(overloaded);
        };
        let credit = match gate.acquire_timeout(cfg.admission_timeout) {
            TryAcquire::Granted(credit) => credit,
            TryAcquire::Exhausted => return Err(overloaded),
            TryAcquire::Closed => return Err(ServerError::Shutdown),
        };
        {
            let mut st = lock(stats);
            st.admitted += 1;
            st.in_flight += 1;
        }
        Ok(Admission {
            stats: Arc::clone(stats),
            phase: Phase::Queued {
                since: Instant::now(),
            },
            _charge: charge,
            _credit: credit,
        })
    }

    /// A worker took the job: from here on a drop means the worker
    /// unwound, not that the enqueue failed.
    pub(crate) fn start(&mut self) {
        if let Phase::Queued { since } = self.phase {
            self.phase = Phase::Running {
                since: Instant::now(),
                waited: since.elapsed(),
                first_batch: None,
            };
        }
    }

    /// The worker pushed a row batch: the first one stamps the query's
    /// time to first batch.
    pub(crate) fn batch_pushed(&mut self) {
        if let Phase::Running {
            since,
            first_batch: first @ None,
            ..
        } = &mut self.phase
        {
            *first = Some(since.elapsed());
        }
    }

    /// Close the books on a finished query — one verdict counted, the
    /// quota pool's `pages_peak` and the times folded in (the wall time
    /// stands in for the first batch of a query that pushed none) — then
    /// return the charge and the credit. A stalled consumer counts as
    /// cancelled.
    #[must_use = "the terminal message is built from the token"]
    pub fn settle(mut self, terminal: Result<(), ServerError>, pages_peak: usize) -> Settled {
        {
            let mut st = lock(&self.stats);
            st.in_flight -= 1;
            match &terminal {
                Ok(()) => st.completed += 1,
                Err(e) if e.is_cancelled() || *e == ServerError::Stalled => st.cancelled += 1,
                Err(_) => st.failed += 1,
            }
            st.pages_peak = st.pages_peak.max(pages_peak);
            if let Phase::Running {
                since,
                waited,
                first_batch,
            } = self.phase
            {
                let wall = since.elapsed();
                st.add_times(wall, waited, first_batch.unwrap_or(wall));
            }
        }
        self.phase = Phase::Settled;
        Settled { terminal }
    }
}

impl Drop for Admission {
    fn drop(&mut self) {
        match self.phase {
            Phase::Settled => {}
            Phase::Queued { .. } => {
                let mut st = lock(&self.stats);
                st.admitted -= 1;
                st.in_flight -= 1;
            }
            Phase::Running { .. } => {
                let mut st = lock(&self.stats);
                st.in_flight -= 1;
                st.failed += 1;
            }
        }
    }
}
