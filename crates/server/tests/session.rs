//! Session-layer contract tests: happy-path streaming, typed quota and
//! deadline errors, both admission watermarks, shutdown, and counter
//! conservation.

use skyline_query::{
    catalog::Catalog, execute, execute_query_into, parse, ExecOptions, QueryError,
};
use skyline_relation::samples::good_eats;
use skyline_relation::Tuple;
use skyline_server::{QueryOptions, ServerConfig, ServerError, SkylineServer};
use std::ops::ControlFlow;
use std::time::Duration;

const SKYLINE_SQL: &str =
    "SELECT restaurant FROM GoodEats SKYLINE OF S MAX, F MAX, D MAX, price MIN";

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.register("GoodEats", good_eats());
    cat
}

#[test]
fn completed_query_matches_the_direct_executor() {
    let server = SkylineServer::new(catalog(), ServerConfig::default());
    let session = server.session();
    let rows = session.submit(SKYLINE_SQL).unwrap().collect().unwrap();
    let oracle = execute(SKYLINE_SQL, &catalog()).unwrap();
    assert_eq!(rows, oracle.rows().to_vec());
    server.shutdown();
    let snap = server.snapshot();
    assert!(snap.totals.conserved(), "{snap:?}");
    assert_eq!(snap.totals.completed, 1);
    assert_eq!(snap.totals.in_flight, 0);
    assert_eq!(server.inflight_pages(), 0, "admission charges returned");
}

/// The server streams the skyline in the order the engine emits it —
/// the order `execute_query_into` pushes rows — and those rows are the
/// oracle's.
#[test]
fn served_rows_keep_the_engines_order_and_match_the_oracle() {
    let server = SkylineServer::new(catalog(), ServerConfig::default());
    let session = server.session();
    let sorted = |mut rows: Vec<Tuple>| {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    };
    let oracle = sorted(execute(SKYLINE_SQL, &catalog()).unwrap().into_rows());
    let query = parse(SKYLINE_SQL).unwrap();
    let mut arrived = Vec::new();
    execute_query_into(&query, &catalog(), &ExecOptions::default(), |_, row| {
        arrived.push(row);
        ControlFlow::Continue(())
    })
    .unwrap();
    let served = session.submit(SKYLINE_SQL).unwrap().collect().unwrap();
    assert_eq!(served, arrived);
    assert_eq!(sorted(served), oracle);
}

#[test]
fn zero_quota_surfaces_typed_quota_error() {
    let server = SkylineServer::new(catalog(), ServerConfig::default());
    let session = server.session();
    let err = session
        .submit_with(SKYLINE_SQL, &QueryOptions::default().with_quota_pages(0))
        .unwrap()
        .collect()
        .unwrap_err();
    assert!(err.is_quota(), "{err:?}");
    server.shutdown();
    let snap = server.snapshot();
    assert!(snap.totals.conserved());
    assert_eq!(snap.totals.failed, 1);
    assert_eq!(server.inflight_pages(), 0);
}

#[test]
fn elapsed_deadline_surfaces_typed_cancellation() {
    let server = SkylineServer::new(catalog(), ServerConfig::default());
    let session = server.session();
    let err = session
        .submit_with(
            SKYLINE_SQL,
            &QueryOptions::default().with_deadline(Duration::ZERO),
        )
        .unwrap()
        .collect()
        .unwrap_err();
    assert!(err.is_cancelled(), "{err:?}");
    let stats = session.stats();
    assert!(stats.conserved());
    assert_eq!(stats.cancelled, 1);
}

#[test]
fn explicit_cancel_reaches_a_queued_query() {
    let server = SkylineServer::new(catalog(), ServerConfig::default());
    let session = server.session();
    let handle = session.submit(SKYLINE_SQL).unwrap();
    handle.cancel();
    // the worker may already have finished: either outcome is typed
    match handle.collect() {
        Ok(rows) => assert!(!rows.is_empty()),
        Err(e) => assert!(e.is_cancelled(), "{e:?}"),
    }
    assert!(session.stats().conserved());
}

#[test]
fn page_watermark_sheds_oversized_quotas() {
    let cfg = ServerConfig {
        pool_pages: 16,
        ..ServerConfig::default()
    };
    let server = SkylineServer::new(catalog(), cfg);
    let session = server.session();
    let err = session
        .submit_with(SKYLINE_SQL, &QueryOptions::default().with_quota_pages(32))
        .unwrap_err();
    assert!(err.is_overloaded(), "{err:?}");
    let stats = session.stats();
    assert!(stats.conserved());
    assert_eq!(stats.rejected, 1);
    assert_eq!(server.inflight_pages(), 0);
}

#[test]
fn queue_watermark_sheds_load_with_retry_hint() {
    // one worker wedged behind an unread result channel; the queue and
    // gate then fill deterministically.
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        batch_rows: 1,
        result_batches: 1,
        admission_timeout: Duration::from_millis(5),
        stream_grace: Duration::from_secs(30),
        retry_after_ms: 7,
        ..ServerConfig::default()
    };
    let server = SkylineServer::new(catalog(), cfg);
    let session = server.session();
    // GoodEats' skyline has 4 rows: with 1-row batches into a 1-batch
    // channel the worker cannot finish the first query while its handle
    // goes unread, so both gate credits (queue 1 + worker 1) stay held.
    let wedged = session.submit(SKYLINE_SQL).unwrap();
    let queued = session.submit(SKYLINE_SQL).unwrap();
    let overflow = session.submit(SKYLINE_SQL).unwrap_err();
    assert!(overflow.is_overloaded(), "{overflow:?}");
    assert_eq!(
        overflow,
        ServerError::Overloaded { retry_after_ms: 7 },
        "the configured retry hint is carried"
    );
    drop(wedged);
    drop(queued);
    server.shutdown();
    assert!(server.snapshot().totals.conserved());
    assert_eq!(server.inflight_pages(), 0);
}

#[test]
fn shutdown_answers_queued_queries_and_joins_workers() {
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    };
    let server = SkylineServer::new(catalog(), cfg);
    let session = server.session();
    let handles: Vec<_> = (0..4)
        .filter_map(|_| session.submit(SKYLINE_SQL).ok())
        .collect();
    server.shutdown(); // joins: returning at all proves no deadlock
    for h in handles {
        match h.collect() {
            Ok(rows) => assert!(!rows.is_empty(), "completed before the cancel"),
            Err(e) => assert!(
                e.is_cancelled() || matches!(e, ServerError::Shutdown | ServerError::Stalled),
                "typed shutdown outcome, got {e:?}"
            ),
        }
    }
    let snap = server.snapshot();
    assert!(snap.totals.conserved(), "{snap:?}");
    assert_eq!(snap.totals.in_flight, 0);
    assert_eq!(server.inflight_pages(), 0);
    // post-shutdown submissions are refused typed
    let err = session.submit(SKYLINE_SQL).unwrap_err();
    assert!(matches!(err, ServerError::Shutdown), "{err:?}");
}

#[test]
fn dropping_a_handle_never_wedges_the_worker() {
    let cfg = ServerConfig {
        workers: 1,
        batch_rows: 1,
        result_batches: 1,
        stream_grace: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let server = SkylineServer::new(catalog(), cfg);
    let session = server.session();
    drop(session.submit(SKYLINE_SQL).unwrap());
    // the worker must come back for the next query
    let rows = session.submit(SKYLINE_SQL).unwrap().collect().unwrap();
    assert!(!rows.is_empty());
    assert!(session.stats().conserved());
}

#[test]
fn parse_errors_stream_as_typed_query_errors() {
    let server = SkylineServer::new(catalog(), ServerConfig::default());
    let session = server.session();
    let err = session
        .submit("SELECT FROM WHERE")
        .unwrap()
        .collect()
        .unwrap_err();
    assert!(
        matches!(err, ServerError::Query(QueryError::Parse { .. })),
        "{err:?}"
    );
    assert_eq!(session.stats().failed, 1);
}
