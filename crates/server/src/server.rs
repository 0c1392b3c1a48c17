//! The session server: admission, workers, streaming, shutdown.
//!
//! Concurrency contract (`cargo xtask analyze` checks the second bullet;
//! no lint has checked the first since PR 25):
//!
//! - No queue/backpressure call is ever made while a mutex guard is
//!   live — stats updates happen in their own tight scopes. Result
//!   batches are pushed from *inside* the engine, so this is what keeps
//!   a worker blocked on a slow client from blocking anyone else.
//! - The worker loop is cancel-live: every job run begins with a token
//!   check, and the result stream re-checks before every batch.
//!
//! Streaming starts inside the engine: the worker runs
//! [`execute_query_into`] with a sink that sends each `batch_rows`
//! batch the moment it fills, so the first rows of a paged skyline
//! leave while its filter still runs. A departed or stalled client
//! (one that leaves the channel full past `stream_grace`) cancels the
//! token and stops the engine through the sink, so the worker is free
//! again and the query books as [`ServerError::Stalled`]. While a slow
//! client holds it back, the query keeps its window lease and temp
//! pages on its own quota pool and disk, for at most `stream_grace` per
//! batch; its charge on the shared ledger is the same quota as ever.
//! - Every resource is lease-shaped. The admission credit, the
//!   shared-pool page charge and the open book entry travel *inside*
//!   the job as one [`Admission`], so whichever thread drops the job
//!   (an unwinding worker, or the queue drain at shutdown) returns and
//!   settles them — and the terminal message can only be built from the
//!   token [`Admission::settle`] yields, so a client never observes its
//!   own finished query on the ledger or the books; result channels
//!   are closed by the worker on every path and by [`QueryHandle`]'s
//!   drop on the client side.

use crate::admission::{Admission, Settled};
use crate::config::ServerConfig;
use crate::error::ServerError;
use crate::stats::{ServerSnapshot, SessionStats};
use skyline_exec::{Backpressure, CancelToken, PushTimeout, WorkQueue};
use skyline_query::{
    catalog::Catalog, execute_query_into, parse, ExecOptions, QueryError, SkylineAlgo,
};
use skyline_relation::Tuple;
use skyline_storage::BufferPool;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poison-recovering lock: the ledger data stays usable even if a
/// worker panicked mid-update.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Per-submission contract overrides; the config supplies defaults.
#[derive(Clone, Default)]
pub struct QueryOptions {
    /// Page quota for this query (`None` = the config default).
    pub quota_pages: Option<usize>,
    /// Deadline for this query (`None` = the config default).
    pub deadline: Option<Duration>,
    /// Skyline algorithm to run.
    pub algo: SkylineAlgo,
}

impl QueryOptions {
    /// Override the page quota.
    #[must_use]
    pub fn with_quota_pages(mut self, pages: usize) -> Self {
        self.quota_pages = Some(pages);
        self
    }

    /// Set a deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Select the skyline algorithm.
    #[must_use]
    pub fn with_algo(mut self, algo: SkylineAlgo) -> Self {
        self.algo = algo;
        self
    }
}

/// One message on a query's result channel.
enum Msg {
    /// A batch of result rows, in order, sent while the engine may still
    /// run — so batches can precede a terminal error.
    Rows(Vec<Tuple>),
    /// Terminal marker: how the query ended, built from settled books.
    /// Exactly one per query unless the channel was severed — one typed
    /// error even when rows went out before it.
    End(Settled),
}

/// A query in flight: everything the worker needs. Fields drop in
/// order, so an abandoned job settles its books and returns its pages
/// and credit before its channel closes.
struct Job {
    admission: Admission,
    sql: String,
    algo: SkylineAlgo,
    token: CancelToken,
    quota: BufferPool,
    results: ResultTx,
}

/// The worker's end of a query's result channel.
struct ResultTx(Arc<WorkQueue<Msg>>);

impl Drop for ResultTx {
    /// Sever the result channel on every exit — including a worker
    /// unwinding mid-job — so an abandoned client observes
    /// [`ServerError::Stalled`] instead of blocking forever. Closing is
    /// idempotent.
    fn drop(&mut self) {
        self.0.close();
    }
}

/// State shared between sessions and workers.
struct Shared {
    catalog: Catalog,
    cfg: ServerConfig,
    /// In-flight page ledger: each admitted query charges its quota
    /// here, so admission itself is the pages watermark.
    pool: BufferPool,
    /// Queue-depth watermark: one credit per job from admission to
    /// completion.
    gate: Backpressure,
    jobs: WorkQueue<Job>,
    /// Root of every query token: shutdown fans out through children.
    root: CancelToken,
}

/// The in-process session server.
///
/// Dropping the server shuts it down: the root token cancels (fanning
/// out to every in-flight query), the queues close, and the workers are
/// joined.
pub struct SkylineServer {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    sessions: Mutex<Vec<Arc<Mutex<SessionStats>>>>,
}

impl SkylineServer {
    /// Start a server over `catalog` with `cfg` workers and watermarks.
    #[must_use]
    pub fn new(catalog: Catalog, cfg: ServerConfig) -> Self {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            pool: BufferPool::new(cfg.pool_pages),
            gate: Backpressure::new(cfg.queue_capacity + workers),
            jobs: WorkQueue::bounded(cfg.queue_capacity.max(1)),
            root: CancelToken::new(),
            catalog,
            cfg,
        });
        let handles = (0..workers)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        SkylineServer {
            shared,
            workers: Mutex::new(handles),
            sessions: Mutex::new(Vec::new()),
        }
    }

    /// Open a session: an independent stats ledger over the shared
    /// worker pool. Sessions are cheap handles; clone freely.
    pub fn session(&self) -> Session {
        let stats = Arc::new(Mutex::new(SessionStats::default()));
        lock(&self.sessions).push(Arc::clone(&stats));
        Session {
            shared: Arc::clone(&self.shared),
            stats,
        }
    }

    /// Aggregate every session's counters into one snapshot.
    pub fn snapshot(&self) -> ServerSnapshot {
        let sessions = lock(&self.sessions);
        let mut totals = SessionStats::default();
        for s in sessions.iter() {
            totals.absorb(&lock(s));
        }
        ServerSnapshot {
            sessions: sessions.len(),
            totals,
        }
    }

    /// Pages currently charged to in-flight queries on the shared
    /// ledger.
    pub fn inflight_pages(&self) -> usize {
        self.shared.pool.used()
    }

    /// Stop accepting work, cancel every in-flight query, and join the
    /// workers. Queued jobs are still drained by the workers — their
    /// tokens are children of the root, so each one reports the typed
    /// cancellation to its client at token-check speed. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        self.shared.root.cancel();
        self.shared.jobs.close();
        self.shared.gate.close();
        let handles = {
            let mut guard = lock(&self.workers);
            std::mem::take(&mut *guard)
        };
        for h in handles {
            if h.join().is_err() {
                // unreachable short of a panic outside a job (each job
                // runs under `catch_unwind`); shutdown converges anyway
            }
        }
    }
}

impl Drop for SkylineServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client's handle for submitting queries and reading its own
/// counters.
#[derive(Clone)]
pub struct Session {
    shared: Arc<Shared>,
    stats: Arc<Mutex<SessionStats>>,
}

impl Session {
    /// Submit `sql` under the config's default contract.
    ///
    /// # Errors
    /// Everything [`Session::submit_with`] reports.
    pub fn submit(&self, sql: &str) -> Result<QueryHandle, ServerError> {
        self.submit_with(sql, &QueryOptions::default())
    }

    /// Submit `sql` under an explicit per-query contract. Admission
    /// either grants a queue credit and charges the quota against the
    /// in-flight page ledger, or sheds the query typed — it never
    /// blocks past the admission timeout.
    ///
    /// # Errors
    /// [`ServerError::Overloaded`] when a watermark is crossed,
    /// [`ServerError::Shutdown`] when the server is stopping.
    /// Execution-time errors stream through the returned handle.
    pub fn submit_with(&self, sql: &str, q: &QueryOptions) -> Result<QueryHandle, ServerError> {
        {
            lock(&self.stats).submitted += 1;
        }
        let sh = &self.shared;
        if sh.root.is_cancelled() {
            return Err(self.reject(ServerError::Shutdown));
        }
        // The pages and queue-depth watermarks, then the book entry —
        // opened *before* the job becomes visible to workers: a fast
        // worker could otherwise settle a query nobody had admitted.
        let quota_pages = q.quota_pages.unwrap_or(sh.cfg.quota_pages);
        let admission = Admission::open(&sh.pool, &sh.gate, &sh.cfg, quota_pages, &self.stats)
            .map_err(|e| self.reject(e))?;
        let deadline = q.deadline.or(sh.cfg.deadline);
        let token = match deadline {
            Some(d) => sh.root.child_with_deadline(d),
            None => sh.root.child(),
        };
        let results: Arc<WorkQueue<Msg>> =
            Arc::new(WorkQueue::bounded(sh.cfg.result_batches.max(1)));
        let job = Job {
            admission,
            sql: sql.to_string(),
            algo: q.algo,
            token: token.clone(),
            quota: BufferPool::new(quota_pages),
            results: ResultTx(Arc::clone(&results)),
        };
        // A failed enqueue hands the job back; dropping it unstarted
        // rolls the admission back into a rejection.
        let enqueue_by = Instant::now() + sh.cfg.admission_timeout;
        match sh.jobs.push_deadline(job, enqueue_by) {
            Ok(()) => {}
            Err(PushTimeout::TimedOut(job)) => {
                drop(job);
                return Err(self.reject(ServerError::Overloaded {
                    retry_after_ms: sh.cfg.retry_after_ms,
                }));
            }
            Err(PushTimeout::Closed(job)) => {
                drop(job);
                return Err(self.reject(ServerError::Shutdown));
            }
        }
        Ok(QueryHandle {
            results,
            token,
            done: false,
        })
    }

    /// This session's counters, copied at this instant.
    pub fn stats(&self) -> SessionStats {
        *lock(&self.stats)
    }

    fn reject(&self, err: ServerError) -> ServerError {
        lock(&self.stats).rejected += 1;
        err
    }
}

/// The client side of one submitted query: a bounded stream of row
/// batches ending in a typed verdict.
///
/// Dropping the handle severs the channel and cancels the query — an
/// abandoned client never wedges a worker.
pub struct QueryHandle {
    results: Arc<WorkQueue<Msg>>,
    token: CancelToken,
    done: bool,
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("done", &self.done)
            .field("cancelled", &self.token.is_cancelled())
            .finish()
    }
}

impl QueryHandle {
    /// Cancel the query. The worker observes the trip at its next
    /// check and reports the typed cancellation with partial progress.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Next batch of rows, blocking while the worker is behind. `None`
    /// after the final batch of a completed query.
    ///
    /// # Errors
    /// `Some(Err(…))` exactly once for a query that ended in a typed
    /// error — the terminal [`ServerError`], or [`ServerError::Stalled`]
    /// when the channel was severed without a verdict. Batches may come
    /// before it: rows stream while the engine runs, and an engine error
    /// can follow them.
    pub fn next_batch(&mut self) -> Option<Result<Vec<Tuple>, ServerError>> {
        if self.done {
            return None;
        }
        match self.results.pop() {
            Some(Msg::Rows(rows)) => Some(Ok(rows)),
            Some(Msg::End(settled)) => {
                self.done = true;
                settled.into_result().err().map(Err)
            }
            // Severed without a verdict: the worker declared us stalled.
            None => {
                self.done = true;
                Some(Err(ServerError::Stalled))
            }
        }
    }

    /// Drain the stream into one row set.
    ///
    /// # Errors
    /// The query's terminal [`ServerError`], if it did not complete; any
    /// rows that streamed before it are discarded.
    pub fn collect(mut self) -> Result<Vec<Tuple>, ServerError> {
        let mut rows = Vec::new();
        while let Some(batch) = self.next_batch() {
            rows.append(&mut batch?);
        }
        Ok(rows)
    }
}

impl Drop for QueryHandle {
    fn drop(&mut self) {
        self.results.close();
        self.token.cancel();
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.jobs.pop() {
        // A query that panics takes its job down with it — the unwind
        // drops the job inside the closure, so the started `Admission`
        // settles as failed and the client reads `Stalled` — but not
        // the worker: the thread goes back to the queue.
        if catch_unwind(AssertUnwindSafe(|| serve(shared, job))).is_err() {
            // the panic hook has already reported it
        }
    }
}

fn serve(shared: &Shared, mut job: Job) {
    job.admission.start();
    let terminal = run_query(shared, &mut job);
    let Job {
        admission,
        quota,
        results,
        ..
    } = job;
    // The engine has returned — run out, stopped early or failed — and
    // every lease it took on the query's own pool went with it.
    debug_assert_eq!(quota.used(), 0, "the engine returned holding quota pages");
    // The books settle and the page charge and credit go home before
    // the verdict is visible: a client that has seen its terminal
    // message can trust the counters, and one that resubmits on `End`
    // is never shed by its own finished query.
    let settled = admission.settle(terminal, quota.peak());
    // Bounded by the stream grace like every other push.
    let grace_until = Instant::now() + shared.cfg.stream_grace;
    if results
        .0
        .push_deadline(Msg::End(settled), grace_until)
        .is_err()
    {
        // client gone or stalled; dropping `results` severs it
    }
}

/// Parse and execute one job under its contract, streaming its rows to
/// the client from inside the engine, and decide the verdict. The token
/// is checked before any work so a cancelled or deadline-stormed queue
/// drains at token-check speed. The terminal result is returned, not
/// pushed: only the settled books can publish it.
fn run_query(shared: &Shared, job: &mut Job) -> Result<(), ServerError> {
    job.token
        .check(0)
        .map_err(|e| ServerError::Query(QueryError::from_exec(e)))?;
    let query = parse(&job.sql).map_err(ServerError::Query)?;
    let mut opts = ExecOptions::default()
        .with_algo(job.algo)
        .with_pool(job.quota.clone())
        .with_cancel(job.token.clone())
        .with_threads(shared.cfg.threads)
        .with_sort_pages(shared.cfg.sort_pages)
        .with_external_threshold(shared.cfg.external_threshold);
    if let Some(disk) = &shared.cfg.disk {
        opts = opts.with_disk(Arc::clone(disk));
    }
    let mut stream = Stream {
        cfg: &shared.cfg,
        job,
        batch: Vec::new(),
        sent: 0,
        cut: None,
    };
    let executed = execute_query_into(&query, &shared.catalog, &opts, |_, row| stream.push(row));
    stream.finish(executed.map(drop))
}

/// The sink the engine pushes result rows into: it fills `batch_rows`
/// batches and sends each through the bounded channel the moment it is
/// full. A consumer that is gone, or slower than the stream grace, has
/// the token cancelled and the engine stopped, instead of wedging the
/// worker.
struct Stream<'a> {
    cfg: &'a ServerConfig,
    job: &'a mut Job,
    batch: Vec<Tuple>,
    /// Rows the client has been sent.
    sent: u64,
    /// Why the stream stopped the engine, if it did.
    cut: Option<ServerError>,
}

impl Stream<'_> {
    fn push(&mut self, row: Tuple) -> ControlFlow<()> {
        self.batch.push(row);
        if self.batch.len() < self.cfg.batch_rows.max(1) {
            return ControlFlow::Continue(());
        }
        match self.flush() {
            Ok(()) => ControlFlow::Continue(()),
            Err(cut) => {
                self.cut = Some(cut);
                ControlFlow::Break(())
            }
        }
    }

    /// Send the batch in hand, waiting at most the stream grace for room.
    fn flush(&mut self) -> Result<(), ServerError> {
        let job = &mut *self.job;
        if job.token.is_cancelled() {
            return Err(ServerError::Query(QueryError::Cancelled {
                records_processed: self.sent,
            }));
        }
        let fresh = Vec::with_capacity(self.cfg.batch_rows.max(1));
        let batch = std::mem::replace(&mut self.batch, fresh);
        let in_batch = batch.len() as u64;
        let grace_until = Instant::now() + self.cfg.stream_grace;
        match job.results.0.push_deadline(Msg::Rows(batch), grace_until) {
            Ok(()) => {
                self.sent += in_batch;
                job.admission.batch_pushed();
                Ok(())
            }
            // client gone, or stalled: cancel so whatever else watches
            // the token stops too; the verdict still lands in the stats
            Err(PushTimeout::Closed(_) | PushTimeout::TimedOut(_)) => {
                job.token.cancel();
                Err(ServerError::Stalled)
            }
        }
    }

    /// The verdict: the stream's own cut if it stopped the engine, else
    /// the engine's — and on success the last, short batch goes out.
    fn finish(mut self, executed: Result<(), QueryError>) -> Result<(), ServerError> {
        if let Some(cut) = self.cut.take() {
            return Err(cut);
        }
        executed.map_err(ServerError::Query)?;
        if self.batch.is_empty() {
            Ok(())
        } else {
            self.flush()
        }
    }
}
