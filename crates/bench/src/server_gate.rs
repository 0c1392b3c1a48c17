//! The server mix of the counter gate.
//!
//! Three deterministic phases drive a [`SkylineServer`] over the seeded
//! gate workload:
//!
//! * **A — latency.** A closed loop submits and fully collects
//!   [`LATENCY_QUERIES`] external skyline queries; per-query round-trip
//!   wall times yield the reported p50/p99.
//! * **B — admission.** [`SHED_QUERIES`] submissions ask for a page
//!   quota larger than the whole server pool; every one must be shed
//!   with a typed `Overloaded` before touching a worker.
//! * **C — deadlines.** [`DEADLINE_QUERIES`] submissions carry an
//!   already-elapsed deadline; every one must come back as a typed
//!   cancellation.
//!
//! The five admission counters (`queries`, `admitted`, `rejected`,
//! `cancelled`, `completed`) are exact functions of the three phase
//! sizes, so they are gated like every other counter; the latency
//! percentiles are timings — reported, never compared.

use crate::gate::{named, Run, GATE_SEED};
use skyline_query::catalog::Catalog;
use skyline_relation::rng::Rng;
use skyline_relation::{tuple, ColumnType, Schema, Table};
use skyline_server::{QueryOptions, ServerConfig, SkylineServer};
use std::time::{Duration, Instant};

/// Phase A closed-loop query count.
pub const LATENCY_QUERIES: usize = 40;
/// Phase B oversized-quota submissions (all shed).
pub const SHED_QUERIES: usize = 10;
/// Phase C elapsed-deadline submissions (all cancelled).
pub const DEADLINE_QUERIES: usize = 10;

/// Rows in the gate table; phase A runs them through the paged engine
/// end to end.
const N: usize = 10_000;

const SQL: &str = "SELECT * FROM t SKYLINE OF a MIN, b MIN, c MAX, d MAX";

fn catalog() -> Catalog {
    let schema = Schema::of(&[
        ("a", ColumnType::Int),
        ("b", ColumnType::Int),
        ("c", ColumnType::Int),
        ("d", ColumnType::Int),
    ]);
    let mut t = Table::empty(schema);
    let mut rng = Rng::seed_from_u64(GATE_SEED);
    for _ in 0..N {
        t.push(tuple![
            rng.i64_inclusive(0, 9_999),
            rng.i64_inclusive(0, 9_999),
            rng.i64_inclusive(0, 9_999),
            rng.i64_inclusive(0, 9_999)
        ])
        .unwrap();
    }
    let mut cat = Catalog::new();
    cat.register("t", t);
    cat
}

/// Nearest-rank percentile of an ascending-sorted latency list.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Run the three server phases and return the `server/mix` run.
///
/// # Panics
/// Panics when any phase breaks its contract (a phase-A query fails, a
/// phase-B query is admitted, a phase-C query is not cancelled, or the
/// final counters are not conserved) — a benchmark must not produce a
/// plausible-looking run from a broken server.
#[must_use]
pub fn run_server_gate() -> Vec<Run> {
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let pool_pages = cfg.pool_pages;
    let server = SkylineServer::new(catalog(), cfg);
    let session = server.session();

    // Phase A: closed-loop latency over the external engine.
    let mut latencies = Vec::with_capacity(LATENCY_QUERIES);
    for _ in 0..LATENCY_QUERIES {
        let t0 = Instant::now();
        let rows = session
            .submit(SQL)
            .expect("phase A: no watermark pressure, must admit")
            .collect()
            .expect("phase A: no fault/quota/deadline, must complete");
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(!rows.is_empty(), "phase A: empty skyline");
    }

    // Phase B: a quota larger than the whole pool is shed at admission.
    for _ in 0..SHED_QUERIES {
        let err = session
            .submit_with(
                SQL,
                &QueryOptions::default().with_quota_pages(pool_pages + 1),
            )
            .expect_err("phase B: an oversized quota must be shed");
        assert!(err.is_overloaded(), "phase B: expected Overloaded: {err:?}");
    }

    // Phase C: an already-elapsed deadline cancels at first token check.
    for _ in 0..DEADLINE_QUERIES {
        let err = session
            .submit_with(SQL, &QueryOptions::default().with_deadline(Duration::ZERO))
            .expect("phase C: deadline queries are admitted")
            .collect()
            .expect_err("phase C: an elapsed deadline must cancel");
        assert!(err.is_cancelled(), "phase C: expected Cancelled: {err:?}");
    }

    server.shutdown();
    let totals = server.snapshot().totals;
    assert!(totals.conserved(), "server books not conserved: {totals:?}");
    assert_eq!(server.inflight_pages(), 0, "page charges leaked");
    let (l, s, d) = (
        LATENCY_QUERIES as u64,
        SHED_QUERIES as u64,
        DEADLINE_QUERIES as u64,
    );
    assert_eq!(
        (
            totals.submitted,
            totals.admitted,
            totals.rejected,
            totals.completed,
            totals.cancelled,
            totals.failed,
            totals.in_flight,
        ),
        (l + s + d, l + d, s, l, d, 0, 0),
        "phase counters drifted"
    );

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    vec![Run {
        section: "server",
        config: "mix".to_string(),
        counters: named([
            ("queries", totals.submitted),
            ("admitted", totals.admitted),
            ("rejected", totals.rejected),
            ("cancelled", totals.cancelled),
            ("completed", totals.completed),
        ]),
        timings: vec![
            ("p50_ms", percentile(&latencies, 50.0)),
            ("p99_ms", percentile(&latencies, 99.0)),
        ],
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn server_counters_are_exact_and_identical_across_two_runs() {
        let first = run_server_gate();
        let [run] = first.as_slice() else {
            panic!("one server run, got {first:?}");
        };
        assert_eq!(
            run.counters,
            named([
                ("queries", 60),
                ("admitted", 50),
                ("rejected", 10),
                ("cancelled", 10),
                ("completed", 40),
            ])
        );
        let (p50, p99) = (run.timings[0].1, run.timings[1].1);
        assert!(p50 > 0.0 && p99 >= p50);
        assert_eq!(run_server_gate()[0].counters, run.counters);
    }
}
