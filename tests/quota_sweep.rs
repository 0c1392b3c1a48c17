//! Quota differential sweep.
//!
//! The paged skyline obeys the buffer-quota contract: given a page
//! budget at or above its peak need, the run completes with the exact
//! unlimited-budget rows; given any budget below the peak, it surfaces a
//! typed [`QueryError::QuotaExceeded`] — never a panic, never a wrong
//! answer — and releases every page it reserved (quota pool drained,
//! zero temp pages left on disk).
//!
//! The peak need is *measured*, not assumed: the query first runs
//! unlimited, records `BufferPool::peak()`, and the sweep probes budgets
//! straddling that watermark.
//!
//! On the presorted route the window estimate is only where the filter
//! starts: it grows inside the quota before it spills. The last test
//! sweeps quotas that allow no, some and all of that growth.

use skyline::query::catalog::Catalog;
use skyline::query::rewrite::eval_except_semantics;
use skyline::query::{execute_with, parse, ExecOptions, QueryError};
use skyline::relation::rng::Rng;
use skyline::relation::{tuple, ColumnType, Schema, Table};
use skyline::storage::{BufferPool, Disk, MemDisk};
use std::sync::Arc;

const SQL: &str = "SELECT * FROM t SKYLINE OF a MIN, b MIN, c MAX, d MAX";
const N: usize = 1_500;

fn catalog() -> Catalog {
    let schema = Schema::of(&[
        ("a", ColumnType::Int),
        ("b", ColumnType::Int),
        ("c", ColumnType::Int),
        ("d", ColumnType::Int),
    ]);
    let mut t = Table::empty(schema);
    let mut rng = Rng::seed_from_u64(0x0A0_7A5);
    for _ in 0..N {
        t.push(tuple![
            rng.i64_inclusive(0, 999),
            rng.i64_inclusive(0, 999),
            rng.i64_inclusive(0, 999),
            rng.i64_inclusive(0, 999)
        ])
        .unwrap();
    }
    let mut cat = Catalog::new();
    cat.register("t", t);
    cat
}

/// Run the sweep query on the paged engine under `budget` pages.
fn run(
    cat: &Catalog,
    budget: usize,
    disk: &Arc<MemDisk>,
) -> (Result<Table, QueryError>, BufferPool) {
    let pool = BufferPool::new(budget);
    let opts = ExecOptions::default()
        .with_pool(pool.clone())
        .with_sort_pages(8)
        .with_disk(Arc::clone(disk) as Arc<dyn Disk>);
    (execute_with(SQL, cat, &opts), pool)
}

#[test]
fn the_paged_skyline_fails_typed_below_peak_and_succeeds_at_peak() {
    let cat = catalog();
    let disk = MemDisk::shared();

    // Unlimited run: establishes the oracle rows and measures
    // the true peak page need of the query.
    let (unlimited, pool) = run(&cat, 1 << 20, &disk);
    let oracle = unlimited.unwrap_or_else(|e| panic!("unlimited run failed: {e}"));
    assert!(!oracle.rows().is_empty(), "empty skyline");
    let peak = pool.peak();
    assert!(peak > 0, "no pages ever reserved");
    assert_eq!(pool.used(), 0, "unlimited run leaked quota");
    assert_eq!(disk.allocated_pages(), 0, "leaked temp pages");

    // A budget of exactly the measured peak must succeed with
    // the same rows (deterministic single-threaded runs).
    let (at_peak, pool) = run(&cat, peak, &disk);
    let table = at_peak.unwrap_or_else(|e| panic!("failed at measured peak {peak}: {e}"));
    assert_eq!(table.rows(), oracle.rows(), "rows differ at peak");
    assert_eq!(pool.peak(), peak, "peak not reproducible");
    assert_eq!(disk.allocated_pages(), 0);

    // Every budget below the peak must surface the typed quota
    // error and leave both ledgers empty.
    let mut budgets = vec![0, 1, peak / 2, peak - 1];
    budgets.sort_unstable();
    budgets.dedup();
    for budget in budgets.into_iter().filter(|&b| b < peak) {
        let (starved, pool) = run(&cat, budget, &disk);
        match starved {
            Err(QueryError::QuotaExceeded {
                requested,
                available,
            }) => {
                assert!(
                    available < requested,
                    "@{budget}: error books are wrong \
                         (requested {requested}, available {available})"
                );
            }
            other => panic!(
                "@{budget} (peak {peak}): expected QuotaExceeded, \
                     got {other:?}"
            ),
        }
        assert_eq!(
            pool.used(),
            0,
            "@{budget}: quota pages not returned after error"
        );
        assert_eq!(
            disk.allocated_pages(),
            0,
            "@{budget}: temp pages leaked after error"
        );
    }
}

/// The paged route under a generous quota returns the `EXCEPT`
/// rewrite's rows — the quota machinery must not perturb results.
#[test]
fn the_paged_route_matches_the_except_rewrite_under_quota() {
    let cat = catalog();
    let disk = MemDisk::shared();
    let want = eval_except_semantics(&parse(SQL).unwrap(), &cat).unwrap();
    let (res, _) = run(&cat, 1 << 20, &disk);
    let got = res.unwrap();
    let mut got_rows = got.rows().to_vec();
    let mut want_rows = want.rows().to_vec();
    got_rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    want_rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    assert_eq!(got_rows, want_rows);
    assert_eq!(disk.allocated_pages(), 0);
}

/// An anti-correlated table whose skyline is some twenty times what the
/// §6 estimator sizes the window for, under quotas from "the sort arena
/// and not a page more" to "room for everything": the window doubles as
/// far as each quota lets it and spills from there, and every size
/// returns the oracle's rows in the oracle's order, stays inside its
/// pool and leaves no quota or heap page behind.
#[test]
fn window_growth_returns_the_oracle_rows_at_every_quota() {
    let n = 6_000i64;
    let schema = Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]);
    let mut t = Table::empty(schema);
    let mut rng = Rng::seed_from_u64(0x6207);
    for _ in 0..n {
        let x = rng.i64_inclusive(0, 2_999);
        t.push(tuple![x, 3_000 - x + rng.i64_inclusive(0, 7)])
            .unwrap();
    }
    let mut cat = Catalog::new();
    cat.register("t", t);
    let sql = "SELECT * FROM t SKYLINE OF x MAX, y MAX";
    let want = eval_except_semantics(&parse(sql).unwrap(), &cat).unwrap();
    let estimate = skyline::core::cardinality::recommend_window_pages(n as usize, 2, 16);
    let capacity = estimate * (skyline::storage::PAGE_SIZE / 16);
    assert!(want.len() > 4 * capacity, "skyline {}", want.len());

    let sort_pages = 4;
    let mut peaks = Vec::new();
    for quota in [4usize, 5, 6, 8, 12, 16, 64] {
        let disk = MemDisk::shared();
        let pool = BufferPool::new(quota);
        let opts = ExecOptions::default()
            .with_pool(pool.clone())
            .with_sort_pages(sort_pages)
            .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
        let got = execute_with(sql, &cat, &opts).unwrap_or_else(|e| panic!("@{quota}: {e}"));
        assert_eq!(got.rows(), want.rows(), "@{quota}");
        assert!(pool.peak() <= pool.total(), "@{quota}");
        assert_eq!(pool.used(), 0, "@{quota}: quota pages leaked");
        assert_eq!(disk.allocated_pages(), 0, "@{quota}: heap pages leaked");
        peaks.push(pool.peak());
    }
    // the window used the room it was given, until it needed no more
    assert_eq!(peaks.first(), Some(&sort_pages));
    assert!(peaks.is_sorted(), "{peaks:?}");
    assert!(
        peaks.last().is_some_and(|&p| p > sort_pages && p < 64),
        "{peaks:?}"
    );
}
