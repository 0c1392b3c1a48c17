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
    use skyline::relation::{Tuple, Value};
    // DIFF keys that look alike as text: NULL and 'NULL', pairs whose
    // `\u{1}`-joined renderings collide, 0.0 and -0.0
    let s = [Value::Null, "NULL".into(), "a".into(), "a\u{1}b".into()];
    let u = [Value::Null, "NULL".into(), "c".into(), "b\u{1}c".into()];
    let f = [
        Value::Null,
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(1.5),
    ];
    skyline_testkit::cases(48, 0x59E1, |rng| {
        let mut table = Table::empty(Schema::of(&[
            ("id", ColumnType::Int),
            ("x", ColumnType::Int),
            ("y", ColumnType::Int),
            ("g", ColumnType::Int),
            ("s", ColumnType::Str),
            ("u", ColumnType::Str),
            ("f", ColumnType::Float),
        ]));
        for i in 0..rng.usize_below(60) {
            let row = vec![
                Value::Int(i as i64),
                Value::Int(rng.i64_inclusive(0, 14)),
                Value::Int(rng.i64_inclusive(0, 14)),
                Value::Int(rng.i64_inclusive(0, 2)),
                s[rng.usize_below(4)].clone(),
                u[rng.usize_below(4)].clone(),
                f[rng.usize_below(4)].clone(),
            ];
            table.push(Tuple::new(row)).unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.register("t", table);
        let xd = if rng.bool() { "MIN" } else { "MAX" };
        let yd = if rng.bool() { "MIN" } else { "MAX" };
        let diff: String = ["g", "s", "u", "f"]
            .iter()
            .filter(|_| rng.bool())
            .map(|c| format!(", {c} DIFF"))
            .collect();
        let sql = format!("SELECT * FROM t SKYLINE OF x {xd}, y {yd}{diff}");
        let q = parse(&sql).unwrap();
        let via_op = execute(&sql, &catalog).unwrap();
        let via_rewrite = eval_except_semantics(&q, &catalog).unwrap();
        // both preserve input order, so rows compare directly
        assert_eq!(via_op.rows(), via_rewrite.rows(), "{sql}");
    });
}

/// `GROUP BY` and `DIFF` group by the values, not their rendered text:
/// `NULL` is not `'NULL'`, two pairs whose `\u{1}`-joined renderings
/// collide stay apart, and `0.0` is `-0.0`.
#[test]
fn group_by_and_diff_key_values_not_their_text() {
    use skyline::relation::{Tuple, Value};
    let mut t = Table::empty(Schema::of(&[
        ("x", ColumnType::Int),
        ("c", ColumnType::Str),
        ("d", ColumnType::Str),
        ("f", ColumnType::Float),
    ]));
    for (x, c, d, f) in [
        (1, Value::Null, "z", 0.0),
        (2, "NULL".into(), "z", -0.0),
        (3, "a\u{1}b".into(), "c", 0.0),
        (4, "a".into(), "b\u{1}c", -0.0),
    ] {
        let row = vec![Value::Int(x), c, d.into(), Value::Float(f)];
        t.push(Tuple::new(row)).unwrap();
    }
    let mut cat = Catalog::new();
    cat.register("t", t);
    let xs = |sql: &str| -> Vec<i64> {
        let out = execute(sql, &cat).unwrap();
        out.rows()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect()
    };
    assert_eq!(xs("SELECT MAX(x) AS x FROM t GROUP BY c, d"), [1, 2, 3, 4]);
    assert_eq!(xs("SELECT COUNT(x) AS n FROM t GROUP BY f"), [4]);
    for sql in [
        "SELECT * FROM t SKYLINE OF x MAX, c DIFF, d DIFF",
        "SELECT * FROM t SKYLINE OF x MAX, f DIFF",
    ] {
        let want = eval_except_semantics(&parse(sql).unwrap(), &cat).unwrap();
        assert_eq!(execute(sql, &cat).unwrap().rows(), want.rows(), "{sql}");
    }
    assert_eq!(xs("SELECT * FROM t SKYLINE OF x MAX, f DIFF"), [4]);
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

/// The §6 estimate is where the window starts, not what the query must
/// be granted up front: at 100 000 rows the estimator asks for 231, 442,
/// 739 and 1 646 pages at d = 8, 9, 10 and 12, and reserving that in full
/// used to fail the last two with `page quota exceeded: requested 739
/// pages, 512 available` under the server's default quota — on a
/// correlated table whose skyline is one row. Every presorted hint now
/// starts from what the quota has and answers like the oracle, on that
/// table and on independent two-valued columns (a skyline of exact
/// duplicates), with every page given back.
#[test]
fn a_wide_clause_runs_under_the_default_quota() {
    use skyline::relation::{Tuple, Value};
    use skyline::server::ServerConfig;
    let n = 100_000i64;
    let defaults = ServerConfig::default();
    let mut columns: Vec<(String, ColumnType)> = vec![("id".into(), ColumnType::Int)];
    columns.extend((0..12).map(|c| (format!("c{c}"), ColumnType::Int)));
    let named: Vec<(&str, ColumnType)> = columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let table_of = |value: &mut dyn FnMut(i64, i64) -> i64| {
        let mut t = Table::empty(Schema::of(&named));
        for i in 0..n {
            let mut row = vec![Value::Int(i)];
            row.extend((0..12).map(|c| Value::Int(value(i, c))));
            t.push(Tuple::new(row)).unwrap();
        }
        t
    };
    // every column falls with the row number, give or take a jitter
    // below the step: row 0 dominates the table
    let correlated = table_of(&mut |i, c| 3 * (n - i) + (i * (c + 7)) % 3);
    // an independent coin flip per cell
    let mut rng = skyline::relation::rng::Rng::seed_from_u64(24);
    let independent = table_of(&mut |_, _| rng.i64_inclusive(0, 1));
    for (name, table) in [("correlated", correlated), ("independent", independent)] {
        for d in [8usize, 9, 10, 12] {
            // the oracle: the naive skyline of the distinct keys, then
            // every row carrying one of them
            let key =
                |r: &Tuple| -> Vec<i64> { (1..=d).map(|c| r.get(c).as_i64().unwrap()).collect() };
            let mut distinct: Vec<Vec<i64>> = table.rows().iter().map(key).collect();
            distinct.sort_unstable();
            distinct.dedup();
            let beats = |a: &[i64], b: &[i64]| a != b && a.iter().zip(b).all(|(x, y)| x >= y);
            // (sorted ascending, so a dominator is lexicographically later;
            // the strongest keys are tried first)
            let later = |i: usize| distinct[i + 1..].iter().rev();
            let maximal = |i: usize| !later(i).any(|o| beats(o, &distinct[i]));
            let skyline: std::collections::HashSet<&Vec<i64>> = (0..distinct.len())
                .filter(|&i| maximal(i))
                .map(|i| &distinct[i])
                .collect();
            let want: Vec<i64> = table
                .rows()
                .iter()
                .filter(|r| skyline.contains(&key(r)))
                .map(|r| r.get(0).as_i64().unwrap())
                .collect();
            assert!(!want.is_empty());

            let mut cat = Catalog::new();
            cat.register("t", table.clone());
            let clause: Vec<String> = (0..d).map(|c| format!("c{c} MAX")).collect();
            let sql = format!("SELECT * FROM t SKYLINE OF {}", clause.join(", "));
            for algo in [
                SkylineAlgo::Auto,
                SkylineAlgo::Sfs,
                SkylineAlgo::Parallel,
                SkylineAlgo::Strata,
            ] {
                let label = format!("{name} d={d} {algo:?}");
                let disk = MemDisk::shared();
                let pool = BufferPool::new(defaults.quota_pages);
                let opts = ExecOptions::default()
                    .with_algo(algo)
                    .with_threads(defaults.threads)
                    .with_external_threshold(defaults.external_threshold)
                    .with_sort_pages(defaults.sort_pages)
                    .with_pool(pool.clone())
                    .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
                let got =
                    execute_with(&sql, &cat, &opts).unwrap_or_else(|e| panic!("{label}: {e}"));
                let ids: Vec<i64> = got
                    .rows()
                    .iter()
                    .map(|r| r.get(0).as_i64().unwrap())
                    .collect();
                assert_eq!(ids, want, "{label}");
                assert!(disk.stats().writes() > 0, "{label}: did not page");
                assert!(pool.peak() <= pool.total(), "{label}");
                assert_eq!(pool.used(), 0, "{label}: quota pages leaked");
                assert_eq!(disk.allocated_pages(), 0, "{label}: temp pages leaked");
            }
        }
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

/// `n` rows of `d` [`skyline_testkit::hostile_key`] values, each passed
/// through `tame`; one row in four repeats an earlier row's whole key.
fn hostile_rows(
    rng: &mut skyline_testkit::Rng,
    n: usize,
    d: usize,
    tame: impl Fn(f64) -> f64,
) -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let row = if i > 0 && rng.usize_below(4) == 0 {
            rows[rng.usize_below(i)].clone()
        } else {
            let key = skyline_testkit::hostile_key(rng, d);
            key.into_iter().map(&tame).collect()
        };
        rows.push(row);
    }
    rows
}

/// `rows` as a table `(id INT, c0 FLOAT, …)`, `id` the row number.
fn float_table(rows: &[Vec<f64>]) -> Table {
    use skyline::relation::{Tuple, Value};
    let d = rows.first().map_or(0, Vec::len);
    let columns: Vec<(String, ColumnType)> = std::iter::once(("id".to_string(), ColumnType::Int))
        .chain((0..d).map(|c| (format!("c{c}"), ColumnType::Float)))
        .collect();
    let named: Vec<(&str, ColumnType)> = columns.iter().map(|(c, t)| (c.as_str(), *t)).collect();
    let mut t = Table::empty(Schema::of(&named));
    for (i, row) in rows.iter().enumerate() {
        let mut values = vec![Value::Int(i as i64)];
        values.extend(row.iter().copied().map(Value::Float));
        t.push(Tuple::new(values)).unwrap();
    }
    t
}

/// `SELECT id … SKYLINE OF c0 MIN|MAX, …` and, by the naive dominance
/// loop, the ascending row numbers it must return over `rows`.
fn hostile_query(rows: &[Vec<f64>], is_min: &[bool]) -> (String, Vec<usize>) {
    use skyline::core::{algo, KeyMatrix};
    let oriented = |row: &Vec<f64>| {
        let signed = row.iter().zip(is_min);
        signed
            .map(|(&v, &min)| if min { -v } else { v })
            .collect::<Vec<f64>>()
    };
    let keys: Vec<f64> = rows.iter().flat_map(oriented).collect();
    let mut want = algo::naive(&KeyMatrix::new(is_min.len(), keys)).indices;
    want.sort_unstable();
    let criteria: Vec<String> = is_min
        .iter()
        .enumerate()
        .map(|(c, &min)| format!("c{c} {}", if min { "MIN" } else { "MAX" }))
        .collect();
    let sql = format!("SELECT id FROM t SKYLINE OF {}", criteria.join(", "));
    (sql, want)
}

/// Run `sql` under `algo` with a one-row paging threshold and a
/// four-page sort, and return the `id`s; no quota or temp page may be
/// left behind.
fn ids_under(cat: &Catalog, sql: &str, algo: SkylineAlgo) -> (Vec<usize>, Arc<MemDisk>) {
    let disk = MemDisk::shared();
    let pool = BufferPool::new(1 << 16);
    let opts = ExecOptions::default()
        .with_algo(algo)
        .with_threads(2)
        .with_external_threshold(1)
        .with_sort_pages(4)
        .with_pool(pool.clone())
        .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
    let got = execute_with(sql, cat, &opts).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
    assert_eq!(pool.used(), 0, "{algo:?}: quota pages leaked");
    assert_eq!(disk.allocated_pages(), 0, "{algo:?}: temp pages leaked");
    let ids = got
        .rows()
        .iter()
        .map(|r| r.get(0).as_i64().unwrap() as usize);
    (ids.collect(), disk)
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
        let is_min: Vec<bool> = (0..d).map(|_| rng.bool()).collect();
        let widest = rng.bool();
        let rows = hostile_rows(rng, n, d, |v| match v {
            v if !v.is_finite() => 0.0,
            // a column too wide for f64 to hold its range
            v if widest && v.abs() == 1e300 => v * 1.5e8,
            v => v,
        });
        let (sql, want) = hostile_query(&rows, &is_min);
        let mut cat = Catalog::new();
        cat.register("t", float_table(&rows));

        let mut algos = PAGED_ALGOS.to_vec();
        algos.push(SkylineAlgo::DivideAndConquer);
        for algo in algos {
            let (got, disk) = ids_under(&cat, &sql, algo);
            assert_eq!(got, want, "{algo:?} d={d} n={n} {sql}");
            // the presort always writes its runs; BNL writes only when
            // its window overflows, so it proves nothing either way
            match algo {
                SkylineAlgo::DivideAndConquer => assert_eq!(disk.stats().writes(), 0, "paged"),
                SkylineAlgo::Bnl => {}
                _ => assert!(disk.stats().writes() > 0, "{algo:?}: did not page"),
            }
        }
    });
}

/// The resident key column at position `column` of `table`, if a query
/// has built it: a build that is refused at its first row caches
/// nothing, so this never builds one.
fn resident(table: &Table, column: usize) -> Option<Arc<skyline::relation::KeyColumn>> {
    let columns = table.key_columns(&[column], |_| Err(()));
    columns.ok().map(|mut c| c.remove(0))
}

/// Resident key columns change no answer and are built once per table
/// version. Finite `hostile_key` tables (they page) and ones with ±∞
/// lanes (they stay in memory — the cached flag says so): queried under
/// every hint and two MIN/MAX assignments, `INSERT`ed into through DDL,
/// queried again — every answer is the naive oracle's over the rows of
/// the moment, no page is left behind, the second query on an unchanged
/// table finds the very columns the first one built, and the table an
/// `INSERT` leaves starts cold.
#[test]
fn resident_columns_survive_queries_and_not_an_insert() {
    use skyline::query::ddl::run_statement;
    for finite in [true, false] {
        skyline_testkit::cases(12, 0x4E51 + u64::from(finite), |rng| {
            let d = [7, 9][rng.usize_below(2)];
            let capacity = skyline::storage::PAGE_SIZE / (8 * d);
            let n = [capacity - 1, capacity + 1, 3 * capacity][rng.usize_below(3)];
            let tame = |v: f64| match v {
                v if finite && !v.is_finite() => 0.0,
                v if v.is_nan() => f64::INFINITY,
                v => v,
            };
            let mut rows = hostile_rows(rng, n, d, tame);
            if !finite {
                rows[n / 2][6] = f64::NEG_INFINITY;
            }
            let assignments: [Vec<bool>; 2] = [0, 1].map(|_| (0..d).map(|_| rng.bool()).collect());
            let mut cat = Catalog::new();
            cat.register("t", float_table(&rows));
            let mut algos = PAGED_ALGOS.to_vec();
            algos.push(SkylineAlgo::DivideAndConquer);
            let check_every_hint = |cat: &Catalog, rows: &[Vec<f64>]| {
                for is_min in &assignments {
                    let (sql, want) = hostile_query(rows, is_min);
                    for &algo in &algos {
                        let (got, disk) = ids_under(cat, &sql, algo);
                        assert_eq!(got, want, "{algo:?} finite={finite} d={d} n={n} {sql}");
                        let presorted = algo != SkylineAlgo::Bnl;
                        let in_memory = !finite || algo == SkylineAlgo::DivideAndConquer;
                        if in_memory {
                            assert_eq!(disk.stats().writes(), 0, "{algo:?}: paged");
                        } else if presorted {
                            assert!(disk.stats().writes() > 0, "{algo:?}: did not page");
                        }
                    }
                }
            };

            assert!(resident(cat.get("t").unwrap(), 1).is_none(), "cold");
            check_every_hint(&cat, &rows);
            let first: Vec<_> = (1..=d)
                .map(|c| resident(cat.get("t").unwrap(), c).expect("the first query built it"))
                .collect();
            assert_eq!(first[6].all_finite(), finite);
            assert!(
                resident(cat.get("t").unwrap(), 0).is_none(),
                "id is no criterion"
            );
            check_every_hint(&cat, &rows);
            for (c, column) in first.iter().enumerate() {
                let again = resident(cat.get("t").unwrap(), c + 1).unwrap();
                assert!(Arc::ptr_eq(column, &again), "column c{c} was rebuilt");
            }

            // three more rows through DDL; finite decimals are all SQL can say
            let fresh = hostile_rows(rng, 3, d, |v| if v.is_finite() { v } else { 0.0 });
            let literal = |(i, row): (usize, &Vec<f64>)| {
                let values: Vec<String> = row.iter().map(|v| format!("{v:.10}")).collect();
                format!("({}, {})", n + i, values.join(", "))
            };
            let tuples: Vec<String> = fresh.iter().enumerate().map(literal).collect();
            run_statement(
                &format!("INSERT INTO t VALUES {}", tuples.join(", ")),
                &mut cat,
            )
            .unwrap();
            rows.extend(fresh);
            assert_eq!(cat.get("t").unwrap().len(), rows.len());
            assert!(
                resident(cat.get("t").unwrap(), 1).is_none(),
                "INSERT starts cold"
            );
            check_every_hint(&cat, &rows);
            let rebuilt = resident(cat.get("t").unwrap(), 1).expect("built again");
            assert!(!Arc::ptr_eq(&first[0], &rebuilt));
            assert_eq!(rebuilt.values().len(), rows.len());
        });
    }
}

/// Two sessions race the first query against a cold 100k-row table:
/// both answer like the in-memory SFS over the same keys, and both find
/// the same columns afterwards — one build, which the loser waited for.
#[test]
fn two_sessions_racing_a_cold_table_share_one_build() {
    use skyline::core::dominates;
    let n = 100_000usize;
    // three noisy readings of one value: a skyline of a handful of rows
    let rows: Vec<Vec<f64>> = (0..n as u64)
        .map(|i| {
            let v = ((i * 7_919) % 10_007) as f64;
            let noise = |m: u64| (i % m) as f64 / 8.0;
            vec![v + noise(5), 10_007.0 - v + noise(7), v + noise(3)]
        })
        .collect();
    // The oracle: whatever the row with the largest key sum dominates is
    // out (and, dominance being transitive, so is whatever those rows
    // dominate); the naive loop settles the few hundred rows left.
    let keys: Vec<[f64; 3]> = rows.iter().map(|r| [r[0], -r[1], r[2]]).collect();
    let sum = |k: &[f64; 3]| k.iter().sum::<f64>();
    let best = keys
        .iter()
        .max_by(|a, b| sum(a).total_cmp(&sum(b)))
        .unwrap();
    let left: Vec<usize> = (0..n).filter(|&i| !dominates(best, &keys[i])).collect();
    assert!(
        left.len() < 2_000,
        "fixture is not correlated: {}",
        left.len()
    );
    let undominated = |&i: &usize| !left.iter().any(|&j| dominates(&keys[j], &keys[i]));
    let want: Vec<usize> = left.iter().copied().filter(undominated).collect();
    let mut cat = Catalog::new();
    cat.register("t", float_table(&rows));
    let table = cat.get("t").unwrap();
    let sql = "SELECT id FROM t SKYLINE OF c0 MAX, c1 MIN, c2 MAX";
    let start = std::sync::Barrier::new(2);
    let session = || {
        start.wait();
        let got = execute(sql, &cat).unwrap();
        let ids: Vec<usize> = got
            .rows()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap() as usize)
            .collect();
        assert_eq!(ids, want);
        resident(table, 1).expect("resident after the query")
    };
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(session);
        (session(), other.join().unwrap())
    });
    assert!(
        Arc::ptr_eq(&a, &b),
        "the racing sessions built a column each"
    );
    assert_eq!(a.values().len(), n);
}

/// A `NULL` or a string under a criterion is reported as the
/// row-at-a-time scan reported it — the lowest offending row, the first
/// criterion in clause order when two offend in that row — on the cold
/// query, on the warm one (the fact is resident), and, numbered within
/// the filtered relation, under a `WHERE`.
#[test]
fn a_non_numeric_criterion_names_the_same_row_and_column_cold_and_warm() {
    use skyline::relation::{Tuple, Value};
    let schema = Schema::of(&[
        ("id", ColumnType::Int),
        ("a", ColumnType::Int),
        ("b", ColumnType::Int),
        ("s", ColumnType::Str),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..10i64 {
        let a = if i == 5 || i == 7 {
            Value::Null
        } else {
            Value::Int(i)
        };
        let b = if i == 3 || i == 5 {
            Value::Null
        } else {
            Value::Int(9 - i)
        };
        t.push(Tuple::new(vec![
            Value::Int(i),
            a,
            b,
            Value::Str(format!("r{i}")),
        ]))
        .unwrap();
    }
    let mut cat = Catalog::new();
    cat.register("t", t);
    let message = |sql: &str| execute(sql, &cat).unwrap_err().to_string();
    for _cold_then_warm in 0..2 {
        let m = message("SELECT * FROM t SKYLINE OF a MAX, b MIN");
        assert!(m.contains("row 3: skyline column b is not numeric"), "{m}");
        let m = message("SELECT * FROM t SKYLINE OF a MAX, id MIN");
        assert!(m.contains("row 5: skyline column a is not numeric"), "{m}");
        // rows 0..=2 go, so table row 5 — both criteria NULL — is row 1
        let m = message("SELECT * FROM t WHERE id > 3 SKYLINE OF a MAX, b MIN");
        assert!(m.contains("row 1: skyline column a is not numeric"), "{m}");
        let m = message("SELECT * FROM t WHERE id > 3 SKYLINE OF b MIN, a MAX");
        assert!(m.contains("row 1: skyline column b is not numeric"), "{m}");
        let m = message("SELECT * FROM t SKYLINE OF id MAX, s MIN");
        assert!(m.contains("row 0: skyline column s is not numeric"), "{m}");
        // a string is a fine DIFF key
        assert_eq!(
            execute("SELECT * FROM t SKYLINE OF id MAX, s DIFF", &cat)
                .unwrap()
                .len(),
            10
        );
    }
}

/// A token tripped before the first query's build leaves nothing
/// resident; the next query builds and answers as if it had never run.
#[test]
fn a_cancelled_first_query_caches_nothing() {
    let rows: Vec<Vec<f64>> = (0..600)
        .map(|i| vec![f64::from(i % 29), f64::from(i % 31)])
        .collect();
    let (sql, want) = hostile_query(&rows, &[false, true]);
    let mut cat = Catalog::new();
    cat.register("t", float_table(&rows));
    let token = skyline::exec::CancelToken::new();
    token.cancel();
    let opts = ExecOptions::default().with_cancel(token);
    let err = execute_with(&sql, &cat, &opts).unwrap_err();
    assert!(
        matches!(err, skyline::query::QueryError::Cancelled { .. }),
        "{err}"
    );
    for c in 0..3 {
        assert!(
            resident(cat.get("t").unwrap(), c).is_none(),
            "column {c} is resident"
        );
    }
    let (got, _) = ids_under(&cat, &sql, SkylineAlgo::Auto);
    assert_eq!(got, want);
    assert!(resident(cat.get("t").unwrap(), 1).is_some());
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
