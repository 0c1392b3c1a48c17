//! Shed-path bookkeeping contracts: every admission rejection and
//! quota failure must leave the books *exactly* restored — `admitted`
//! and `in_flight` back where they were, the page ledger at zero —
//! not merely conserved in aggregate. The `Admission` type makes the
//! rollback the only thing a shed path can do; these tests prove it
//! runs — including when a worker unwinds mid-query, and when a client
//! walks away from, or stalls on, a query that is still streaming.

use skyline_query::catalog::Catalog;
use skyline_query::{QueryError, SkylineAlgo};
use skyline_relation::samples::good_eats;
use skyline_relation::{tuple, ColumnType, Schema, Table};
use skyline_server::{QueryOptions, ServerConfig, ServerError, Session, SkylineServer};
use skyline_storage::{Disk, FaultDisk, FaultSchedule, FileId, IoStats, MemDisk, StorageError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SKYLINE_SQL: &str =
    "SELECT restaurant FROM GoodEats SKYLINE OF S MAX, F MAX, D MAX, price MIN";

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.register("GoodEats", good_eats());
    cat
}

#[test]
fn watermark_shed_restores_books_exactly() {
    let cfg = ServerConfig {
        pool_pages: 16,
        ..ServerConfig::default()
    };
    let server = SkylineServer::new(catalog(), cfg);
    let session = server.session();
    let err = session
        .submit_with(SKYLINE_SQL, &QueryOptions::default().with_quota_pages(32))
        .unwrap_err();
    assert!(matches!(err, ServerError::Overloaded { .. }), "{err:?}");
    let stats = session.stats();
    assert!(stats.conserved(), "{stats:?}");
    // the shed opened no books: the submission is counted, rejected,
    // and nothing else moved
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.admitted, 0, "no admitted bump may survive a shed");
    assert_eq!(stats.in_flight, 0, "no in-flight bump may survive a shed");
    assert_eq!(server.inflight_pages(), 0, "page ledger exactly restored");
}

#[test]
fn repeated_sheds_do_not_drift_the_books() {
    let cfg = ServerConfig {
        pool_pages: 16,
        retry_after_ms: 3,
        ..ServerConfig::default()
    };
    let server = SkylineServer::new(catalog(), cfg);
    let session = server.session();
    for _ in 0..5 {
        let err = session
            .submit_with(SKYLINE_SQL, &QueryOptions::default().with_quota_pages(32))
            .unwrap_err();
        assert_eq!(err, ServerError::Overloaded { retry_after_ms: 3 });
    }
    let stats = session.stats();
    assert!(stats.conserved(), "{stats:?}");
    assert_eq!((stats.submitted, stats.rejected), (5, 5));
    assert_eq!((stats.admitted, stats.in_flight), (0, 0));
    assert_eq!(server.inflight_pages(), 0);
    // a query sized within the pool is admitted and completes on the
    // same server — the shed left no residue behind
    let rows = session
        .submit_with(SKYLINE_SQL, &QueryOptions::default().with_quota_pages(8))
        .unwrap()
        .collect()
        .unwrap();
    assert!(!rows.is_empty());
    server.shutdown();
    let snap = server.snapshot();
    assert!(snap.totals.conserved(), "{snap:?}");
    assert_eq!(snap.totals.completed, 1);
    assert_eq!(server.inflight_pages(), 0);
}

#[test]
fn queue_full_shed_releases_credit_and_counters() {
    // wedge the single worker behind an unread result channel so the
    // gate fills deterministically, then shed and verify the rejected
    // submission returned its credit: after draining, the books close.
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        batch_rows: 1,
        result_batches: 1,
        admission_timeout: Duration::from_millis(5),
        stream_grace: Duration::from_secs(30),
        retry_after_ms: 9,
        ..ServerConfig::default()
    };
    let server = SkylineServer::new(catalog(), cfg);
    let session = server.session();
    let wedged = session.submit(SKYLINE_SQL).unwrap();
    let queued = session.submit(SKYLINE_SQL).unwrap();
    let err = session.submit(SKYLINE_SQL).unwrap_err();
    assert_eq!(err, ServerError::Overloaded { retry_after_ms: 9 });
    let mid = session.stats();
    assert!(mid.conserved(), "{mid:?}");
    assert_eq!(mid.rejected, 1);
    assert_eq!(mid.admitted, 2, "only the two accepted queries hold books");
    drop(wedged);
    drop(queued);
    server.shutdown();
    let snap = server.snapshot();
    assert!(snap.totals.conserved(), "{snap:?}");
    assert_eq!(snap.totals.in_flight, 0, "every admitted query settled");
    assert_eq!(server.inflight_pages(), 0, "every page charge returned");
}

#[test]
fn quota_failure_settles_books_and_drains_ledger() {
    let server = SkylineServer::new(catalog(), ServerConfig::default());
    let session = server.session();
    let err = session
        .submit_with(SKYLINE_SQL, &QueryOptions::default().with_quota_pages(0))
        .unwrap()
        .collect()
        .unwrap_err();
    assert!(err.is_quota(), "{err:?}");
    let stats = session.stats();
    assert!(stats.conserved(), "{stats:?}");
    // the query was admitted, then failed — and settled completely
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.in_flight, 0, "quota failure must settle in_flight");
    assert_eq!(
        server.inflight_pages(),
        0,
        "quota failure drains the ledger"
    );
    // the failure is not sticky: the same session still serves queries
    let rows = session.submit(SKYLINE_SQL).unwrap().collect().unwrap();
    assert!(!rows.is_empty());
    let stats = session.stats();
    assert!(stats.conserved(), "{stats:?}");
    assert_eq!((stats.admitted, stats.completed, stats.failed), (2, 1, 1));
}

/// A finished query's page charge is back on the ledger before its
/// client can see the verdict: with the pool sized for exactly one
/// query, a session that resubmits the moment `collect()` returns must
/// never be shed by its own previous query.
#[test]
fn resubmit_on_end_is_never_shed_by_the_finished_query() {
    let cfg = ServerConfig {
        pool_pages: 64,
        quota_pages: 64,
        ..ServerConfig::default()
    };
    let server = SkylineServer::new(catalog(), cfg);
    let session = server.session();
    for i in 0..300 {
        let rows = session
            .submit(SKYLINE_SQL)
            .unwrap_or_else(|e| panic!("iteration {i}: shed by its own predecessor: {e:?}"))
            .collect()
            .expect("fault-free query completes");
        assert!(!rows.is_empty());
        assert_eq!(
            server.inflight_pages(),
            0,
            "iteration {i}: the verdict was visible before the charge returned"
        );
    }
    let stats = session.stats();
    assert!(stats.conserved(), "{stats:?}");
    assert_eq!((stats.completed, stats.rejected), (300, 0), "{stats:?}");
}

/// A disk whose first page write panics — the one way to unwind a
/// worker from inside `run_query` — and which behaves afterwards.
struct PanicOnce {
    inner: MemDisk,
    armed: AtomicBool,
}

impl Disk for PanicOnce {
    fn create(&self) -> Result<FileId, StorageError> {
        self.inner.create()
    }
    fn delete(&self, file: FileId) {
        self.inner.delete(file);
    }
    fn write_page(&self, file: FileId, page_no: u64, data: &[u8]) -> Result<(), StorageError> {
        assert!(!self.armed.swap(false, Ordering::SeqCst), "injected unwind");
        self.inner.write_page(file, page_no, data)
    }
    fn read_page(&self, file: FileId, page_no: u64, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        self.inner.read_page(file, page_no, buf)
    }
    fn num_pages(&self, file: FileId) -> Result<u64, StorageError> {
        self.inner.num_pages(file)
    }
    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
    fn allocated_pages(&self) -> u64 {
        self.inner.allocated_pages()
    }
}

/// A query that unwinds mid-flight settles as failed and returns its
/// pages and its queue credit. The gate has one credit per worker and
/// the other worker's is held by a wedged query, so a follow-up is
/// admitted only if the unwound query's credit came home.
#[test]
fn worker_unwind_settles_as_failed_and_returns_the_credit() {
    let cfg = ServerConfig {
        workers: 2,
        queue_capacity: 0,
        batch_rows: 1,
        result_batches: 1,
        stream_grace: Duration::from_secs(30),
        external_threshold: 0,
        disk: Some(Arc::new(PanicOnce {
            inner: MemDisk::new(),
            armed: AtomicBool::new(true),
        })),
        ..ServerConfig::default()
    };
    let server = SkylineServer::new(catalog(), cfg);
    let session = server.session();
    // divide-and-conquer keeps this one in memory: it never writes, and
    // its unread result channel wedges one worker with its credit held
    let in_memory = QueryOptions::default().with_algo(SkylineAlgo::DivideAndConquer);
    let wedged = session.submit_with(SKYLINE_SQL, &in_memory).unwrap();
    // under the default hint the same query takes the paged engine
    let err = session.submit(SKYLINE_SQL).unwrap().collect().unwrap_err();
    assert_eq!(err, ServerError::Stalled, "the unwinding worker severs");
    let stats = session.stats();
    assert!(stats.conserved(), "{stats:?}");
    assert_eq!((stats.failed, stats.in_flight), (1, 1), "{stats:?}");
    let follow_up = session
        .submit(SKYLINE_SQL)
        .expect("shed: the unwound query's credit never came home");
    assert!(!wedged.collect().unwrap().is_empty());
    assert!(!follow_up.collect().unwrap().is_empty());
    server.shutdown();
    let totals = server.snapshot().totals;
    assert!(totals.conserved(), "{totals:?}");
    assert_eq!(
        (totals.completed, totals.failed, totals.in_flight),
        (2, 1, 0),
        "{totals:?}"
    );
    assert_eq!(server.inflight_pages(), 0, "every page charge came home");
}

/// A worker outlives the query that panicked on it. With one worker,
/// the query after the injected panic is served only if that worker
/// went back to the queue — a dead one would leave it admitted and
/// never answered.
#[test]
fn the_only_worker_survives_a_panicking_query() {
    let cfg = ServerConfig {
        workers: 1,
        external_threshold: 0,
        disk: Some(Arc::new(PanicOnce {
            inner: MemDisk::new(),
            armed: AtomicBool::new(true),
        })),
        ..ServerConfig::default()
    };
    let server = SkylineServer::new(catalog(), cfg);
    let session = server.session();
    let err = session.submit(SKYLINE_SQL).unwrap().collect().unwrap_err();
    assert_eq!(err, ServerError::Stalled, "the unwinding job severs");
    let rows = session.submit(SKYLINE_SQL).unwrap().collect().unwrap();
    assert!(!rows.is_empty());
    server.shutdown();
    let totals = server.snapshot().totals;
    assert!(totals.conserved(), "{totals:?}");
    assert_eq!(
        (totals.completed, totals.failed, totals.in_flight),
        (1, 1, 0),
        "{totals:?}"
    );
    assert_eq!(server.inflight_pages(), 0, "every page charge came home");
}

/// `sort_pages` below the paged engine's floor is refused with a typed
/// error before anything is reserved. It used to reach an `assert!`
/// inside the sort and unwind the job, so the query is sent once per
/// worker and once more, and then both workers must still be there:
/// one wedged behind an unread result channel, the other answering.
#[test]
fn too_few_sort_pages_is_a_typed_error_and_costs_no_worker() {
    let cfg = ServerConfig {
        workers: 2,
        queue_capacity: 0,
        batch_rows: 1,
        result_batches: 1,
        stream_grace: Duration::from_secs(30),
        external_threshold: 0,
        sort_pages: 2,
        ..ServerConfig::default()
    };
    let server = SkylineServer::new(catalog(), cfg);
    let session = server.session();
    for _ in 0..3 {
        let err = session.submit(SKYLINE_SQL).unwrap().collect().unwrap_err();
        assert!(
            matches!(&err, ServerError::Query(QueryError::Exec(m)) if m.contains("sort_pages")),
            "{err:?}"
        );
    }
    let stats = session.stats();
    assert!(stats.conserved(), "{stats:?}");
    assert_eq!((stats.failed, stats.in_flight), (3, 0), "{stats:?}");
    assert_eq!(stats.pages_peak, 0, "nothing was reserved");
    assert_eq!(server.inflight_pages(), 0);

    let in_memory = QueryOptions::default().with_algo(SkylineAlgo::DivideAndConquer);
    let wedged = session.submit_with(SKYLINE_SQL, &in_memory).unwrap();
    let answered = session.submit_with(SKYLINE_SQL, &in_memory).unwrap();
    assert!(!answered.collect().unwrap().is_empty());
    assert!(!wedged.collect().unwrap().is_empty());
    server.shutdown();
    let totals = server.snapshot().totals;
    assert!(totals.conserved(), "{totals:?}");
    assert_eq!((totals.completed, totals.failed), (2, 3), "{totals:?}");
}

/// Rows of `anti`, and the paged skyline over it: every row lies on the
/// line x + y = `ANTI_ROWS`, so every row is skyline and the result is
/// many batches long.
const ANTI_ROWS: i64 = 2_000;
const ANTI_SQL: &str = "SELECT * FROM anti SKYLINE OF x MAX, y MAX";
/// A follow-up that touches no disk, so it is answered under faults too.
const SCAN_SQL: &str = "SELECT * FROM anti LIMIT 5";

fn anti_catalog() -> Catalog {
    let schema = Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]);
    let rows = (0..ANTI_ROWS).map(|x| tuple![x, ANTI_ROWS - x]).collect();
    let mut cat = Catalog::new();
    cat.register("anti", Table::new(schema, rows).unwrap());
    cat
}

/// The disk under the streaming queries: a `FaultDisk` over the
/// returned `MemDisk` when `FAULT_SEED` is set (as the storm-harness CI
/// leg sets it), the bare `MemDisk` otherwise.
fn streaming_disk() -> (Arc<MemDisk>, Arc<dyn Disk>, bool) {
    let mem = MemDisk::shared();
    let seed = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok());
    let disk: Arc<dyn Disk> = match seed {
        Some(seed) => FaultDisk::shared(
            Arc::clone(&mem) as Arc<dyn Disk>,
            FaultSchedule {
                seed,
                read_period: 41,
                write_period: 37,
                transient_pct: 50,
                torn_writes: true,
                arm_after: 0,
            },
        ),
        None => Arc::clone(&mem) as Arc<dyn Disk>,
    };
    (mem, disk, seed.is_some())
}

/// One worker and one credit, so a query is admitted only once the one
/// before it has given its credit back; every skyline pages onto `disk`.
fn streaming_server(disk: Arc<dyn Disk>, stream_grace: Duration) -> SkylineServer {
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 0,
        batch_rows: 64,
        result_batches: 1,
        stream_grace,
        admission_timeout: Duration::from_secs(2),
        external_threshold: 0,
        disk: Some(disk),
        ..ServerConfig::default()
    };
    SkylineServer::new(anti_catalog(), cfg)
}

/// Pages `ANTI_SQL` reads when its client takes every row, fault-free —
/// and the rows leave well before the query ends.
fn full_run_reads() -> u64 {
    let disk = MemDisk::shared();
    let server = streaming_server(Arc::clone(&disk) as Arc<dyn Disk>, Duration::from_secs(30));
    let rows = server
        .session()
        .submit(ANTI_SQL)
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows.len(), ANTI_ROWS as usize);
    server.shutdown();
    let totals = server.snapshot().totals;
    assert!(totals.first_batch_us < totals.wall_us, "{totals:?}");
    disk.stats().reads()
}

/// Wait for the session's queries to settle.
fn settled(session: &Session) {
    let until = Instant::now() + Duration::from_secs(10);
    while session.stats().in_flight > 0 {
        assert!(
            Instant::now() < until,
            "never settled: {:?}",
            session.stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What a query abandoned mid-stream leaves behind, once it settled: the
/// engine stopped early — it read fewer pages than a full run — and the
/// books, the credit, the ledger and the disk all came home. (The
/// query's own pool is checked as the worker settles it: a lease still
/// held there fails a debug build's job, which would book as `failed`.)
fn assert_walked_away(server: &SkylineServer, session: &Session, mem: &MemDisk, faulty: bool) {
    settled(session);
    let reads = mem.stats().reads();
    assert!(
        reads < full_run_reads(),
        "the engine ran on: {reads} pages read"
    );
    // the one credit came home: the follow-up is admitted, and the one
    // worker answers it
    let rows = session.submit(SCAN_SQL).unwrap().collect().unwrap();
    assert_eq!(rows.len(), 5);
    server.shutdown();
    let totals = server.snapshot().totals;
    assert!(totals.conserved(), "{totals:?}");
    assert_eq!((totals.completed, totals.in_flight), (1, 0), "{totals:?}");
    if faulty {
        assert_eq!(totals.cancelled + totals.failed, 1, "{totals:?}");
    } else {
        assert_eq!((totals.cancelled, totals.failed), (1, 0), "{totals:?}");
    }
    assert_eq!(server.inflight_pages(), 0, "the ledger charge came home");
    assert_eq!(mem.allocated_pages(), 0, "the disk drained");
}

/// A client that drops its handle after the first batch stops the
/// engine: the push into the closed channel ends the drain.
#[test]
fn a_client_walking_away_mid_stream_stops_the_engine() {
    let (mem, disk, faulty) = streaming_disk();
    let server = streaming_server(disk, Duration::from_secs(30));
    let session = server.session();
    let mut handle = session.submit(ANTI_SQL).unwrap();
    match handle.next_batch() {
        Some(Ok(batch)) => assert_eq!(batch.len(), 64),
        other => assert!(faulty, "{other:?}"),
    }
    drop(handle);
    assert_walked_away(&server, &session, &mem, faulty);
}

/// A client that holds its handle but reads nothing for longer than the
/// stream grace has its query cancelled from inside the engine, and
/// reads `Stalled` once it comes back.
#[test]
fn a_consumer_stalled_past_the_grace_stops_the_engine() {
    let (mem, disk, faulty) = streaming_disk();
    let server = streaming_server(disk, Duration::from_millis(50));
    let session = server.session();
    let mut handle = session.submit(ANTI_SQL).unwrap();
    let first = handle.next_batch();
    std::thread::sleep(Duration::from_millis(300));
    settled(&session);
    let mut verdict = None;
    while let Some(batch) = handle.next_batch() {
        if let Err(e) = batch {
            verdict = Some(e);
        }
    }
    if !faulty {
        assert!(matches!(first, Some(Ok(_))), "{first:?}");
        assert_eq!(verdict, Some(ServerError::Stalled));
    }
    assert_walked_away(&server, &session, &mem, faulty);
}

/// "No queue call under a guard", held by a test: while the only worker
/// is blocked on a push from inside the engine, everything that takes a
/// lock the worker might — a session's stats, the server snapshot,
/// another session's admission — still answers at once.
#[test]
fn a_worker_blocked_mid_engine_blocks_no_one_else() {
    let cfg = ServerConfig {
        workers: 1,
        result_batches: 1,
        batch_rows: 1,
        stream_grace: Duration::from_secs(10),
        external_threshold: 0,
        ..ServerConfig::default()
    };
    let server = SkylineServer::new(anti_catalog(), cfg);
    let (reader, other) = (server.session(), server.session());
    let mut blocked = reader.submit(ANTI_SQL).unwrap();
    assert!(matches!(blocked.next_batch(), Some(Ok(_))));
    // the worker refills the one-slot channel, then waits on the next
    // push with the skyline's filter still open
    std::thread::sleep(Duration::from_millis(50));
    let quick = Duration::from_secs(1);
    let t = Instant::now();
    assert!(reader.stats().conserved());
    assert!(server.snapshot().totals.conserved());
    let queued = other
        .submit_with(SCAN_SQL, &QueryOptions::default())
        .unwrap();
    assert!(
        t.elapsed() < quick,
        "blocked behind the worker: {:?}",
        t.elapsed()
    );
    drop(blocked);
    assert_eq!(queued.collect().unwrap().len(), 5);
    server.shutdown();
    let totals = server.snapshot().totals;
    assert!(totals.conserved(), "{totals:?}");
    assert_eq!((totals.completed, totals.cancelled), (1, 1), "{totals:?}");
}
