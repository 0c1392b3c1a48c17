//! End-to-end SQL tests: the `SKYLINE OF` operator against the paper's
//! Figure-5 `EXCEPT` rewrite oracle, on random tables and the samples.

use skyline::query::catalog::Catalog;
use skyline::query::rewrite::eval_except_semantics;
use skyline::query::{execute, execute_with, parse, ExecOptions, SkylineAlgo};
use skyline::relation::csv::{read_csv, write_csv};
use skyline::relation::samples::{good_eats, GOOD_EATS_SKYLINE};
use skyline::relation::{tuple, ColumnType, Schema, Table};
use skyline::storage::{BufferPool, Disk, MemDisk};
use std::sync::Arc;

fn random_table(rows: &[(i64, i64, i64)]) -> Table {
    let schema = Schema::of(&[
        ("id", ColumnType::Int),
        ("x", ColumnType::Int),
        ("y", ColumnType::Int),
        ("g", ColumnType::Int),
    ]);
    let mut t = Table::empty(schema);
    for (i, &(x, y, g)) in rows.iter().enumerate() {
        t.push(tuple![i as i64, x, y, g]).unwrap();
    }
    t
}

/// The skyline operator and the EXCEPT-rewrite oracle agree on
/// arbitrary tables and direction mixes (incl. DIFF).
#[test]
fn operator_matches_except_rewrite() {
    skyline_testkit::cases(48, 0x59E1, |rng| {
        let n = rng.usize_below(60);
        let rows: Vec<(i64, i64, i64)> = (0..n)
            .map(|_| {
                (
                    rng.i64_inclusive(0, 14),
                    rng.i64_inclusive(0, 14),
                    rng.i64_inclusive(0, 2),
                )
            })
            .collect();
        let table = random_table(&rows);
        let mut catalog = Catalog::new();
        catalog.register("t", table);
        let xd = if rng.bool() { "MIN" } else { "MAX" };
        let yd = if rng.bool() { "MIN" } else { "MAX" };
        let diff = if rng.bool() { ", g DIFF" } else { "" };
        let sql = format!("SELECT * FROM t SKYLINE OF x {xd}, y {yd}{diff}");
        let q = parse(&sql).unwrap();
        let via_op = execute(&sql, &catalog).unwrap();
        let via_rewrite = eval_except_semantics(&q, &catalog).unwrap();
        // both preserve input order, so rows compare directly
        assert_eq!(via_op.rows(), via_rewrite.rows());
    });
}

/// WHERE composes under the skyline: result equals computing the
/// skyline over the pre-filtered table.
#[test]
fn where_is_applied_below_skyline() {
    skyline_testkit::cases(48, 0x59E2, |rng| {
        let n = rng.usize_below(60);
        let rows: Vec<(i64, i64, i64)> = (0..n)
            .map(|_| {
                (
                    rng.i64_inclusive(0, 19),
                    rng.i64_inclusive(0, 19),
                    rng.i64_inclusive(0, 1),
                )
            })
            .collect();
        let threshold = rng.i64_inclusive(0, 19);
        let table = random_table(&rows);
        let filtered_rows: Vec<(i64, i64, i64)> = rows
            .iter()
            .copied()
            .filter(|&(x, _, _)| x < threshold)
            .collect();
        let filtered = random_table(&filtered_rows);

        let mut c1 = Catalog::new();
        c1.register("t", table);
        let with_where = execute(
            &format!("SELECT x, y FROM t WHERE x < {threshold} SKYLINE OF x MAX, y MAX"),
            &c1,
        )
        .unwrap();

        let mut c2 = Catalog::new();
        c2.register("t", filtered);
        let pre_filtered = execute("SELECT x, y FROM t SKYLINE OF x MAX, y MAX", &c2).unwrap();
        assert_eq!(with_where.rows(), pre_filtered.rows());
    });
}

#[test]
fn good_eats_end_to_end() {
    let mut catalog = Catalog::new();
    catalog.register("GoodEats", good_eats());
    let out = execute(
        "SELECT restaurant, price FROM GoodEats \
         SKYLINE OF S MAX, F MAX, D MAX, price MIN ORDER BY price DESC",
        &catalog,
    )
    .unwrap();
    let names: Vec<&str> = out
        .rows()
        .iter()
        .map(|r| r.get(0).as_str().unwrap())
        .collect();
    assert_eq!(
        names,
        vec!["Zakopane", "Yamanote", "Summer Moon", "Fenton & Pickle"]
    );
    for n in names {
        assert!(GOOD_EATS_SKYLINE.contains(&n));
    }
}

#[test]
fn csv_through_query_layer() {
    // write the sample out, read it back, query it
    let mut buf = Vec::new();
    write_csv(&good_eats(), &mut buf).unwrap();
    let table = read_csv(std::io::Cursor::new(buf), None).unwrap();
    let mut catalog = Catalog::new();
    catalog.register("g", table);
    let out = execute(
        "SELECT restaurant FROM g SKYLINE OF S MAX, F MAX, D MAX, price MIN",
        &catalog,
    )
    .unwrap();
    assert_eq!(out.len(), 4);
}

#[test]
fn top_n_over_pipelined_skyline() {
    let mut catalog = Catalog::new();
    catalog.register("GoodEats", good_eats());
    let out = execute(
        "SELECT restaurant FROM GoodEats \
         SKYLINE OF S MAX, F MAX, D MAX, price MIN \
         ORDER BY price ASC LIMIT 1",
        &catalog,
    )
    .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows()[0].get(0).as_str(), Some("Fenton & Pickle"));
}

#[test]
fn large_tables_take_the_external_path_with_identical_results() {
    use skyline::core::{MemAlgorithm, SkylineBuilder};
    // above pushdown::EXTERNAL_THRESHOLD the skyline runs in the paged
    // engine; the answer must be identical to the in-memory algorithms'
    let n = skyline::query::pushdown::EXTERNAL_THRESHOLD + 5_000;
    let schema = Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]);
    let mut t = Table::empty(schema);
    let mut xs = Vec::with_capacity(n);
    for i in 0..n as i64 {
        let (x, y) = ((i * 7_919) % 10_007, (i * 104_729) % 10_009);
        t.push(tuple![x, y]).unwrap();
        xs.push((x, y));
    }
    let mut cat = Catalog::new();
    cat.register("big", t);
    let out = execute("SELECT * FROM big SKYLINE OF x MAX, y MAX", &cat).unwrap();

    let expect = SkylineBuilder::new()
        .max(|r: &(i64, i64)| r.0 as f64)
        .max(|r: &(i64, i64)| r.1 as f64)
        .algorithm(MemAlgorithm::Sfs)
        .compute_indices(&xs);
    assert_eq!(out.len(), expect.len());
    let got: Vec<(i64, i64)> = out
        .rows()
        .iter()
        .map(|r| (r.get(0).as_i64().unwrap(), r.get(1).as_i64().unwrap()))
        .collect();
    let want: Vec<(i64, i64)> = expect.iter().map(|&i| xs[i]).collect();
    assert_eq!(got, want);
}

/// Rows of a paged-route test table: `(x, y, g)` with `x + y` nearly
/// constant, so almost every row is skyline.
fn anti_correlated_rows(n: i64) -> Vec<(i64, i64, i64)> {
    (0..n).map(|i| (i, n - i + (i * 7) % 5, i % 3)).collect()
}

const PAGED_ALGOS: [SkylineAlgo; 5] = [
    SkylineAlgo::Auto,
    SkylineAlgo::Sfs,
    SkylineAlgo::Bnl,
    SkylineAlgo::Parallel,
    SkylineAlgo::Strata,
];

/// Product path (a): an anti-correlated table whose skyline overflows
/// the estimator-sized window several times over, under a quota pool of
/// exactly the larger of the two arenas — the multipass spill runs
/// through SQL, answers like the oracle, and gives every page back.
#[test]
fn paged_multipass_under_a_tight_quota_matches_the_oracle_and_leaks_nothing() {
    use skyline::core::cardinality::recommend_window_pages;
    let n = 2_000;
    let mut cat = Catalog::new();
    cat.register("t", random_table(&anti_correlated_rows(n)));
    let sql = "SELECT * FROM t SKYLINE OF x MAX, y MAX";
    let want = eval_except_semantics(&parse(sql).unwrap(), &cat).unwrap();

    let sort_pages = 8;
    let window_pages = recommend_window_pages(n as usize, 2, 16);
    let capacity = window_pages * (skyline::storage::PAGE_SIZE / 16);
    assert!(
        want.len() > 2 * capacity,
        "fixture must need at least three filter passes: skyline {} vs window {capacity}",
        want.len()
    );
    for algo in PAGED_ALGOS {
        let disk = MemDisk::shared();
        let pool = BufferPool::new(sort_pages.max(window_pages));
        let opts = ExecOptions::default()
            .with_algo(algo)
            .with_threads(1)
            .with_external_threshold(1_000)
            .with_sort_pages(sort_pages)
            .with_pool(pool.clone())
            .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
        let got = execute_with(sql, &cat, &opts).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        assert_eq!(got.rows(), want.rows(), "{algo:?}");
        assert!(disk.stats().writes() > 0, "{algo:?}: nothing spilled");
        assert_eq!(pool.used(), 0, "{algo:?}: quota pages leaked");
        assert_eq!(disk.allocated_pages(), 0, "{algo:?}: temp pages leaked");
    }
}

/// Product path (b): a `DIFF` query over the threshold runs paged under
/// every algorithm hint — the disk sees the presort's page writes and the
/// quota peak stays below what the in-memory key matrix would charge —
/// and equals the oracle.
#[test]
fn diff_over_the_threshold_runs_paged_for_every_hint() {
    let n = 2_000;
    let mut cat = Catalog::new();
    cat.register("t", random_table(&anti_correlated_rows(n)));
    let sql = "SELECT * FROM t SKYLINE OF x MAX, y MIN, g DIFF";
    let want = eval_except_semantics(&parse(sql).unwrap(), &cat).unwrap();
    // what plan::apply_skyline charges for the in-memory matrix
    let matrix_pages = (n as usize * 2 * 8).div_ceil(skyline::storage::PAGE_SIZE);
    for algo in PAGED_ALGOS {
        let disk = MemDisk::shared();
        let pool = BufferPool::new(1 << 16);
        let opts = ExecOptions::default()
            .with_algo(algo)
            .with_threads(2)
            .with_external_threshold(1_000)
            .with_sort_pages(4)
            .with_pool(pool.clone())
            .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
        let got = execute_with(sql, &cat, &opts).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        assert_eq!(got.rows(), want.rows(), "{algo:?}");
        assert!(disk.stats().writes() > 0, "{algo:?}: did not page");
        assert!(
            pool.peak() < matrix_pages,
            "{algo:?}: peak {} is not below the in-memory charge {matrix_pages}",
            pool.peak()
        );
        assert_eq!(pool.used(), 0, "{algo:?}");
        assert_eq!(disk.allocated_pages(), 0, "{algo:?}");
    }
}

/// Product path (c): a table with fractional criteria pages like any
/// other (`pushdown::routes_to_paged_engine` records the measurement
/// that made it so), under a pool its in-memory key matrix would not
/// fit — it answers like the oracle for every hint and gives every page
/// back.
#[test]
fn fractional_tables_page_and_answer_correctly() {
    let schema = Schema::of(&[
        ("id", ColumnType::Int),
        ("x", ColumnType::Float),
        ("y", ColumnType::Float),
    ]);
    let mut t = Table::empty(schema);
    let n = 2_000i64;
    for i in 0..n {
        let (x, y) = ((i * 7_919) % 1_009, (i * 104_729) % 1_013);
        t.push(tuple![i, x as f64 + 0.5, y as f64 / 4.0]).unwrap();
    }
    let mut cat = Catalog::new();
    cat.register("t", t);
    let sql = "SELECT * FROM t SKYLINE OF x MAX, y MIN";
    let want = eval_except_semantics(&parse(sql).unwrap(), &cat).unwrap();
    // what plan::apply_skyline would charge for the in-memory matrix
    let matrix_pages = (n as usize * 2 * 8).div_ceil(skyline::storage::PAGE_SIZE);
    for algo in PAGED_ALGOS {
        let disk = MemDisk::shared();
        let pool = BufferPool::new(matrix_pages - 1);
        let opts = ExecOptions::default()
            .with_algo(algo)
            .with_threads(1)
            .with_external_threshold(1_000)
            .with_sort_pages(4)
            .with_pool(pool.clone())
            .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
        let got = execute_with(sql, &cat, &opts).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        assert_eq!(got.rows(), want.rows(), "{algo:?}");
        // success under this pool already rules the in-memory executor
        // out; the presorted hints also leave their runs in the I/O
        // stats (BNL writes only when its window overflows)
        assert!(pool.peak() < matrix_pages, "{algo:?}");
        if algo != SkylineAlgo::Bnl {
            assert!(disk.stats().writes() > 0, "{algo:?}: did not page");
        }
        assert_eq!(pool.used(), 0, "{algo:?}: quota pages leaked");
        assert_eq!(disk.allocated_pages(), 0, "{algo:?}: temp pages leaked");
    }
}

/// The elimination filter ahead of the sort changes no answer. Tables
/// of finite `hostile_key` rows (constant, two-valued and heavily tied
/// columns, the `i32` extremes, ±1e300 or ±1.5e308, fractions), with whole keys
/// repeated and sizes straddling the filter's one-page capacity, under
/// random MIN/MAX mixes: every presorted hint (filtered) equals the naive
/// oracle, and so do its filter-free twins — the `Bnl` hint, paged, and
/// `DivideAndConquer`, in memory — with no page left behind.
#[test]
fn elimination_filter_changes_no_answer_on_hostile_tables() {
    use skyline::core::{algo, KeyMatrix};
    skyline_testkit::cases(60, 0xE1F1, |rng| {
        let d = [1, 2, 4, 7, 9][rng.usize_below(5)];
        let capacity = skyline::storage::PAGE_SIZE / (8 * d);
        let n = [
            capacity / 2,
            capacity - 1,
            capacity,
            capacity + 1,
            3 * capacity,
        ][rng.usize_below(5)];
        let columns: Vec<(String, ColumnType)> =
            std::iter::once(("id".to_string(), ColumnType::Int))
                .chain((0..d).map(|c| (format!("c{c}"), ColumnType::Float)))
                .collect();
        let named: Vec<(&str, ColumnType)> =
            columns.iter().map(|(c, t)| (c.as_str(), *t)).collect();
        let mut t = Table::empty(Schema::of(&named));
        let is_min: Vec<bool> = (0..d).map(|_| rng.bool()).collect();
        let widest = rng.bool();
        let mut keys: Vec<f64> = Vec::with_capacity(n * d);
        for i in 0..n {
            // one row in four repeats an earlier row's whole key
            let values: Vec<f64> = if i > 0 && rng.usize_below(4) == 0 {
                let j = rng.usize_below(i);
                (0..d)
                    .map(|c| t.rows()[j].get(c + 1).as_f64().unwrap())
                    .collect()
            } else {
                skyline_testkit::hostile_key(rng, d)
                    .into_iter()
                    .map(|v| match v {
                        v if !v.is_finite() => 0.0,
                        // a column too wide for f64 to hold its range
                        v if widest && v.abs() == 1e300 => v * 1.5e8,
                        v => v,
                    })
                    .collect()
            };
            keys.extend(
                values
                    .iter()
                    .zip(&is_min)
                    .map(|(&v, &min)| if min { -v } else { v }),
            );
            let mut row = vec![skyline::relation::Value::Int(i as i64)];
            row.extend(values.into_iter().map(skyline::relation::Value::Float));
            t.push(skyline::relation::Tuple::new(row)).unwrap();
        }
        let mut want = algo::naive(&KeyMatrix::new(d, keys)).indices;
        want.sort_unstable();
        let mut cat = Catalog::new();
        cat.register("t", t);
        let criteria: Vec<String> = is_min
            .iter()
            .enumerate()
            .map(|(c, &min)| format!("c{c} {}", if min { "MIN" } else { "MAX" }))
            .collect();
        let sql = format!("SELECT id FROM t SKYLINE OF {}", criteria.join(", "));

        let mut algos = PAGED_ALGOS.to_vec();
        algos.push(SkylineAlgo::DivideAndConquer);
        for algo in algos {
            let disk = MemDisk::shared();
            let pool = BufferPool::new(1 << 16);
            let opts = ExecOptions::default()
                .with_algo(algo)
                .with_threads(2)
                .with_external_threshold(1)
                .with_sort_pages(4)
                .with_pool(pool.clone())
                .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
            let got = execute_with(&sql, &cat, &opts).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
            let got: Vec<usize> = got
                .rows()
                .iter()
                .map(|r| r.get(0).as_i64().unwrap() as usize)
                .collect();
            assert_eq!(got, want, "{algo:?} d={d} n={n} {sql}");
            // the presort always writes its runs; BNL writes only when
            // its window overflows, so it proves nothing either way
            match algo {
                SkylineAlgo::DivideAndConquer => assert_eq!(disk.stats().writes(), 0, "paged"),
                SkylineAlgo::Bnl => {}
                _ => assert!(disk.stats().writes() > 0, "{algo:?}: did not page"),
            }
            assert_eq!(pool.used(), 0, "{algo:?}: quota pages leaked");
            assert_eq!(disk.allocated_pages(), 0, "{algo:?}: temp pages leaked");
        }
    });
}

/// A table built to be hard on the window's level-code quantizer
/// (DESIGN.md §12.5): `k` is constant (a zero range), `b` holds exactly
/// the two i32 extremes, `m` takes five values, and every `(w, v)` pair
/// occurs four times, so whole keys repeat — under a MIN/MAX mix.
fn quantizer_stress_catalog(n: i64) -> (Catalog, &'static str) {
    let schema = Schema::of(&[
        ("id", ColumnType::Int),
        ("k", ColumnType::Int),
        ("b", ColumnType::Int),
        ("m", ColumnType::Int),
        ("w", ColumnType::Int),
        ("v", ColumnType::Int),
    ]);
    let mut t = Table::empty(schema);
    let distinct = n / 4;
    for i in 0..n {
        let pair = i % distinct;
        let b = i64::from(if (i / distinct) % 2 == 0 {
            i32::MIN
        } else {
            i32::MAX
        });
        t.push(tuple![
            i,
            7,
            b,
            (pair * 13) % 5,
            pair,
            pair + (pair * 7) % 5
        ])
        .unwrap();
    }
    let mut cat = Catalog::new();
    cat.register("t", t);
    (
        cat,
        "SELECT * FROM t SKYLINE OF k MAX, b MIN, m MAX, w MIN, v MAX",
    )
}

/// The quantizer-stress table through SQL on the paged path, for every
/// algorithm hint: the naive oracle's rows, duplicates included, and no
/// page left behind.
#[test]
fn quantizer_stress_table_on_the_paged_path_matches_the_oracle() {
    let (cat, sql) = quantizer_stress_catalog(2_400);
    let want = eval_except_semantics(&parse(sql).unwrap(), &cat).unwrap();
    assert!(
        want.len() > 8 * 16,
        "fixture must fill several window blocks"
    );
    for algo in PAGED_ALGOS {
        let disk = MemDisk::shared();
        let pool = BufferPool::new(1 << 16);
        let opts = ExecOptions::default()
            .with_algo(algo)
            .with_external_threshold(1_000)
            .with_sort_pages(4)
            .with_pool(pool.clone())
            .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
        let got = execute_with(sql, &cat, &opts).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        assert_eq!(got.rows(), want.rows(), "{algo:?}");
        assert!(disk.stats().writes() > 0, "{algo:?}: did not page");
        assert_eq!(pool.used(), 0, "{algo:?}: quota pages leaked");
        assert_eq!(disk.allocated_pages(), 0, "{algo:?}: temp pages leaked");
    }
}

/// The same table below the threshold: the in-memory windows, same
/// oracle, and not one page written.
#[test]
fn quantizer_stress_table_in_memory_matches_the_oracle() {
    let (cat, sql) = quantizer_stress_catalog(2_400);
    let want = eval_except_semantics(&parse(sql).unwrap(), &cat).unwrap();
    let mut algos = PAGED_ALGOS.to_vec();
    algos.push(SkylineAlgo::DivideAndConquer);
    for algo in algos {
        let disk = MemDisk::shared();
        let pool = BufferPool::new(1 << 16);
        let opts = ExecOptions::default()
            .with_algo(algo)
            .with_pool(pool.clone())
            .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
        let got = execute_with(sql, &cat, &opts).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        assert_eq!(got.rows(), want.rows(), "{algo:?}");
        assert_eq!(
            disk.stats().writes(),
            0,
            "{algo:?}: paged below the threshold"
        );
        assert_eq!(pool.used(), 0, "{algo:?}: quota pages leaked");
        assert_eq!(disk.allocated_pages(), 0, "{algo:?}: temp pages leaked");
    }
}

#[test]
fn error_paths_are_reported() {
    let catalog = Catalog::new();
    assert!(execute("SELECT * FROM missing SKYLINE OF a", &catalog).is_err());
    assert!(execute("SELECT FROM", &catalog).is_err());
    let mut catalog = Catalog::new();
    catalog.register("g", good_eats());
    assert!(execute("SELECT * FROM g SKYLINE OF restaurant MAX", &catalog).is_err());
}
