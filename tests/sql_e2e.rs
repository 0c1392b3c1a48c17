//! End-to-end SQL tests: the `SKYLINE OF` operator against the paper's
//! Figure-5 `EXCEPT` rewrite oracle, on random tables and the samples.

use skyline::query::catalog::Catalog;
use skyline::query::rewrite::eval_except_semantics;
use skyline::query::{execute, execute_query_into, execute_with, parse, ExecOptions};
use skyline::relation::csv::{read_csv, write_csv};
use skyline::relation::samples::{good_eats, GOOD_EATS_SKYLINE};
use skyline::relation::{tuple, ColumnType, Schema, Table};
use skyline::storage::{BufferPool, Disk, MemDisk};
use std::ops::ControlFlow;
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
    // a large table on the paged engine answers exactly like the
    // in-memory algorithms
    let n = 55_000;
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
    let disk = MemDisk::shared();
    let pool = BufferPool::new(sort_pages.max(window_pages));
    let opts = ExecOptions::default()
        .with_sort_pages(sort_pages)
        .with_pool(pool.clone())
        .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
    let got = execute_with(sql, &cat, &opts).unwrap();
    assert_eq!(got.rows(), want.rows());
    assert!(disk.stats().writes() > 0, "nothing spilled");
    assert_eq!(pool.used(), 0, "quota pages leaked");
    assert_eq!(disk.allocated_pages(), 0, "temp pages leaked");
}

/// The §6 estimate is where the window starts, not what the query must
/// be granted up front: at 100 000 rows the estimator asks for 231, 442,
/// 739 and 1 646 pages at d = 8, 9, 10 and 12, and reserving that in full
/// used to fail the last two with `page quota exceeded: requested 739
/// pages, 512 available` under the server's default quota — on a
/// correlated table whose skyline is one row. The window now starts
/// from what the quota has and answers like the oracle, on that
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
            let label = format!("{name} d={d}");
            let disk = MemDisk::shared();
            let pool = BufferPool::new(defaults.quota_pages);
            let opts = ExecOptions::default()
                .with_sort_pages(defaults.sort_pages)
                .with_pool(pool.clone())
                .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
            let got = execute_with(&sql, &cat, &opts).unwrap_or_else(|e| panic!("{label}: {e}"));
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

/// Product path (b): a `DIFF` query runs paged — the disk sees the
/// presort's page writes and the quota peak stays below what an
/// in-memory key matrix would occupy — and equals the oracle.
#[test]
fn diff_queries_run_paged_and_match_the_except_rewrite() {
    let n = 2_000;
    let mut cat = Catalog::new();
    cat.register("t", random_table(&anti_correlated_rows(n)));
    let sql = "SELECT * FROM t SKYLINE OF x MAX, y MIN, g DIFF";
    let want = eval_except_semantics(&parse(sql).unwrap(), &cat).unwrap();
    // the pages an n × 2 matrix of 8-byte keys occupies
    let key_pages = (n as usize * 2 * 8).div_ceil(skyline::storage::PAGE_SIZE);
    let disk = MemDisk::shared();
    let pool = BufferPool::new(1 << 16);
    let opts = ExecOptions::default()
        .with_sort_pages(4)
        .with_pool(pool.clone())
        .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
    let got = execute_with(sql, &cat, &opts).unwrap();
    assert_eq!(got.rows(), want.rows());
    assert!(disk.stats().writes() > 0, "did not page");
    assert!(
        pool.peak() < key_pages,
        "peak {} is not below the in-memory key matrix's {key_pages}",
        pool.peak()
    );
    assert_eq!(pool.used(), 0);
    assert_eq!(disk.allocated_pages(), 0);
}

/// Product path (c): a table with fractional criteria pages like any
/// other, under a pool its in-memory key matrix would not fit — it
/// answers like the oracle and gives every page back.
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
    // the pages an n × 2 matrix of 8-byte keys occupies
    let key_pages = (n as usize * 2 * 8).div_ceil(skyline::storage::PAGE_SIZE);
    let disk = MemDisk::shared();
    let pool = BufferPool::new(key_pages - 1);
    let opts = ExecOptions::default()
        .with_sort_pages(4)
        .with_pool(pool.clone())
        .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
    let got = execute_with(sql, &cat, &opts).unwrap();
    assert_eq!(got.rows(), want.rows());
    // success under this pool already rules an in-memory matrix out; the
    // presort also leaves its runs in the I/O stats
    assert!(pool.peak() < key_pages);
    assert!(disk.stats().writes() > 0, "did not page");
    assert_eq!(pool.used(), 0, "quota pages leaked");
    assert_eq!(disk.allocated_pages(), 0, "temp pages leaked");
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

/// Run `sql` with a four-page sort and return the `id`s; no quota or
/// temp page may be left behind.
fn paged_ids(cat: &Catalog, sql: &str) -> (Vec<usize>, Arc<MemDisk>) {
    let disk = MemDisk::shared();
    let pool = BufferPool::new(1 << 16);
    let opts = ExecOptions::default()
        .with_sort_pages(4)
        .with_pool(pool.clone())
        .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
    let got = execute_with(sql, cat, &opts).unwrap_or_else(|e| panic!("{sql}: {e}"));
    assert_eq!(pool.used(), 0, "quota pages leaked");
    assert_eq!(disk.allocated_pages(), 0, "temp pages leaked");
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
/// random MIN/MAX mixes: the filtered, presorted route equals the naive
/// oracle, with no page left behind.
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

        let (got, disk) = paged_ids(&cat, &sql);
        assert_eq!(got, want, "d={d} n={n} {sql}");
        // the presort always writes its runs
        assert!(disk.stats().writes() > 0, "did not page");
    });
}

/// Criteria holding ±∞ page like any other number. Tables of unfiltered
/// `hostile_key` rows (±∞ lanes kept, NaN lanes turned into +∞, since a
/// NaN is no criterion value), or of lanes drawn from {−∞, −1, 0, 1, +∞}
/// — where a key holding both +∞ and −∞, whose sum is NaN, often
/// dominates another — with whole keys repeated, sizes straddling one
/// page and random MIN/MAX mixes: the paged route equals the naive
/// oracle with no page left behind.
#[test]
fn infinite_criteria_page_and_match_the_oracle() {
    const LANES: [f64; 5] = [f64::NEG_INFINITY, -1.0, 0.0, 1.0, f64::INFINITY];
    skyline_testkit::cases(60, 0x1F1F, |rng| {
        let dense = rng.bool();
        let d = if dense {
            [2, 3, 4][rng.usize_below(3)]
        } else {
            [1, 2, 7, 9, 15, 16][rng.usize_below(6)]
        };
        let capacity = skyline::storage::PAGE_SIZE / (8 * d);
        let n = [capacity - 1, capacity + 1, 2 * capacity][rng.usize_below(3)];
        let is_min: Vec<bool> = (0..d).map(|_| rng.bool()).collect();
        let rows = if dense {
            let mut lane = || LANES[rng.usize_below(LANES.len())];
            (0..n).map(|_| (0..d).map(|_| lane()).collect()).collect()
        } else {
            hostile_rows(rng, n, d, |v| if v.is_nan() { f64::INFINITY } else { v })
        };
        let (sql, want) = hostile_query(&rows, &is_min);
        let mut cat = Catalog::new();
        cat.register("t", float_table(&rows));
        let (got, disk) = paged_ids(&cat, &sql);
        assert_eq!(got, want, "d={d} n={n} {sql}");
        assert!(disk.stats().writes() > 0, "did not page");
    });
}

/// A `DIFF` key may be any value. Random tables whose `DIFF` columns hold
/// text (`NULL` and `'NULL'` among it), floats (`0.0` and `-0.0`, `NULL`)
/// and integers beyond `i32`, under random MIN/MAX mixes and `DIFF`
/// subsets: the paged route returns the `EXCEPT` rewrite's rows with no
/// page left behind.
#[test]
fn diff_keys_of_any_type_match_the_except_rewrite() {
    use skyline::relation::{Tuple, Value};
    let s = [Value::Null, "NULL".into(), "a".into(), "b".into()];
    let f = [
        Value::Null,
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(2.5),
    ];
    let wide = i64::from(i32::MAX) + 1;
    let w = [wide, -wide, i64::MIN, 1 << 40].map(Value::Int);
    skyline_testkit::cases(24, 0xD1FF, |rng| {
        let mut table = Table::empty(Schema::of(&[
            ("id", ColumnType::Int),
            ("x", ColumnType::Int),
            ("y", ColumnType::Float),
            ("s", ColumnType::Str),
            ("f", ColumnType::Float),
            ("w", ColumnType::Int),
        ]));
        for i in 0..rng.usize_below(300) {
            let row = vec![
                Value::Int(i as i64),
                Value::Int(rng.i64_inclusive(0, 30)),
                Value::Float(rng.usize_below(40) as f64 / 4.0),
                s[rng.usize_below(4)].clone(),
                f[rng.usize_below(4)].clone(),
                w[rng.usize_below(4)].clone(),
            ];
            table.push(Tuple::new(row)).unwrap();
        }
        let mut cat = Catalog::new();
        cat.register("t", table);
        let xd = if rng.bool() { "MIN" } else { "MAX" };
        let yd = if rng.bool() { "MIN" } else { "MAX" };
        let mut diff: String = ["s", "f", "w"]
            .iter()
            .filter(|_| rng.bool())
            .map(|c| format!(", {c} DIFF"))
            .collect();
        if diff.is_empty() {
            diff = ", w DIFF".into();
        }
        let sql = format!("SELECT id FROM t SKYLINE OF x {xd}, y {yd}{diff}");
        let want: Vec<usize> = eval_except_semantics(&parse(&sql).unwrap(), &cat)
            .unwrap()
            .rows()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap() as usize)
            .collect();
        let (got, _) = paged_ids(&cat, &sql);
        assert_eq!(got, want, "{sql}");
    });
}

/// A `DIFF` clause through the per-group elimination filter answers as
/// the `EXCEPT` rewrite does, and emits each group in presort order.
/// Tables of 1–7 finite `hostile_key` criteria (±0.0 among them, whole
/// keys repeated) with `DIFF` keys of three shapes, under random
/// MIN/MAX mixes and `DIFF` subsets: text with `NULL` and `'NULL'` in
/// three duplicate-heavy groups; floats with `NULL`, `0.0` and `-0.0`
/// (one group); and integers beyond `i32` that are unique (one-row
/// groups) or drawn from twice the filter's page (more groups than it
/// screens). The paged route, on a four-page sort that forms several
/// runs, returns the rewrite's rows; within each group, its emission is
/// sorted by the entropy score descending, then the key
/// nested-descending, then row — `NarrowCmp`'s order; nothing is left
/// behind.
#[test]
fn diff_through_the_grouped_filter_answers_as_the_except_rewrite_in_presort_order() {
    use skyline::core::{EntropyScore, MonotoneScore};
    use skyline::relation::{Tuple, Value};
    use std::cmp::Ordering;
    use std::collections::HashMap;
    let (mut past_the_page, mut one_row_groups) = (0, 0);
    skyline_testkit::cases(32, 0xD1F6, |rng| {
        let d = 1 + rng.usize_below(7);
        let page = skyline::storage::PAGE_SIZE / (8 * d);
        let n = [1, 7, page + 1, 300, 600][rng.usize_below(5)];
        let mut rows = hostile_rows(rng, n, d, |v| if v.is_finite() { v } else { -0.0 });
        for v in rows.iter_mut().flatten() {
            if *v == 0.0 && rng.bool() {
                *v = -*v;
            }
        }
        let unique = rng.bool();
        let mut table = float_table(&rows);
        let mut schema: Vec<(String, ColumnType)> = table
            .schema()
            .columns()
            .iter()
            .map(|c| (c.name.clone(), c.ty))
            .collect();
        schema.extend([
            ("s".to_string(), ColumnType::Str),
            ("f".to_string(), ColumnType::Float),
            ("w".to_string(), ColumnType::Int),
        ]);
        let named: Vec<(&str, ColumnType)> = schema.iter().map(|(c, t)| (c.as_str(), *t)).collect();
        let text = [Value::Null, "NULL".into(), "a".into()];
        let floats = [Value::Null, Value::Float(0.0), Value::Float(-0.0)];
        let wide = i64::from(i32::MAX) + 1;
        let mut widened = Table::empty(Schema::of(&named));
        for (i, row) in table.rows().iter().enumerate() {
            let mut values = row.values().to_vec();
            values.push(text[rng.usize_below(3)].clone());
            values.push(floats[rng.usize_below(3)].clone());
            let w = if unique { i } else { rng.usize_below(2 * page) };
            values.push(Value::Int(wide + w as i64));
            widened.push(Tuple::new(values)).unwrap();
        }
        table = widened;
        let is_min: Vec<bool> = (0..d).map(|_| rng.bool()).collect();
        let mut diff: Vec<&str> = ["s", "f", "w"].into_iter().filter(|_| rng.bool()).collect();
        if diff.is_empty() {
            diff.push(["s", "f", "w"][rng.usize_below(3)]);
        }
        let criteria: Vec<String> = is_min
            .iter()
            .enumerate()
            .map(|(c, &min)| format!("c{c} {}", if min { "MIN" } else { "MAX" }))
            .collect();
        let diffs: Vec<String> = diff.iter().map(|c| format!("{c} DIFF")).collect();
        let sql = format!(
            "SELECT id FROM t SKYLINE OF {}, {}",
            criteria.join(", "),
            diffs.join(", ")
        );
        // each row's group, by the DIFF columns' values (`-0.0` is `0.0`)
        let group_of = |row: &Tuple| -> String {
            diff.iter()
                .map(|c| match row.get(table.schema().index_of(c).unwrap()) {
                    Value::Float(x) => format!("{:?}", x + 0.0),
                    v => format!("{v:?}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        };
        let groups: Vec<String> = table.rows().iter().map(group_of).collect();
        let mut sizes: HashMap<&str, usize> = HashMap::new();
        for g in &groups {
            *sizes.entry(g).or_default() += 1;
        }
        past_the_page += usize::from(sizes.len() > page);
        one_row_groups += sizes.values().filter(|&&size| size == 1).count();
        let mut cat = Catalog::new();
        cat.register("t", table.clone());
        let want: Vec<usize> = eval_except_semantics(&parse(&sql).unwrap(), &cat)
            .unwrap()
            .rows()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap() as usize)
            .collect();
        let (got, _) = paged_ids(&cat, &sql);
        assert_eq!(got, want, "{sql}");

        // the emission, on the same four-page sort
        let (pool, disk) = (BufferPool::new(1 << 16), MemDisk::shared());
        let opts = ExecOptions::default()
            .with_sort_pages(4)
            .with_pool(pool.clone())
            .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
        let mut emitted = Vec::new();
        execute_query_into(&parse(&sql).unwrap(), &cat, &opts, |_, row| {
            emitted.push(row.get(0).as_i64().unwrap() as usize);
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!((pool.used(), disk.allocated_pages()), (0, 0), "{sql}");
        let oriented: Vec<Vec<f64>> = rows
            .iter()
            .map(|row| {
                let signed = row.iter().zip(&is_min);
                signed.map(|(&v, &min)| if min { -v } else { v }).collect()
            })
            .collect();
        let score = EntropyScore::from_keys(&oriented.concat(), d);
        let presort = |a: usize, b: usize| {
            let nested = (0..d)
                .map(|k| oriented[b][k].partial_cmp(&oriented[a][k]).unwrap())
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal);
            let (sa, sb) = (score.score(&oriented[a]), score.score(&oriented[b]));
            sb.total_cmp(&sa).then(nested).then(a.cmp(&b))
        };
        let mut by_group: HashMap<&str, Vec<usize>> = HashMap::new();
        for &id in &emitted {
            by_group.entry(&groups[id]).or_default().push(id);
        }
        for (group, ids) in &by_group {
            let mut sorted = ids.clone();
            sorted.sort_by(|&a, &b| presort(a, b));
            assert_eq!(
                *ids, sorted,
                "{sql}: group {group} left out of presort order"
            );
        }
        emitted.sort_unstable();
        assert_eq!(emitted, want, "{sql}");
    });
    assert!(
        past_the_page > 0,
        "no table had more groups than the page holds"
    );
    assert!(one_row_groups > 0, "no table had a one-row group");
}

/// A NaN put in through the `Table` API (CSV and DDL refuse it) is no
/// criterion value: the query fails with the typed non-numeric error
/// naming its row and column, on the cold query and on the warm one,
/// and a query that does not read that column still runs.
#[test]
fn a_nan_criterion_is_a_typed_error_cold_and_warm() {
    use skyline::relation::{Tuple, Value};
    let mut t = Table::empty(Schema::of(&[
        ("id", ColumnType::Int),
        ("x", ColumnType::Float),
        ("y", ColumnType::Float),
    ]));
    for i in 0..40i64 {
        let x = if i == 17 { f64::NAN } else { i as f64 };
        let row = vec![Value::Int(i), Value::Float(x), Value::Float(-(i as f64))];
        t.push(Tuple::new(row)).unwrap();
    }
    let mut cat = Catalog::new();
    cat.register("t", t);
    for _cold_then_warm in 0..2 {
        let err = execute("SELECT id FROM t SKYLINE OF y MIN, x MAX", &cat)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("row 17: skyline column x is not numeric"),
            "{err}"
        );
        let ok = execute("SELECT id FROM t SKYLINE OF y MAX", &cat).unwrap();
        assert_eq!(ok.len(), 1);
    }
}

/// The resident key column at position `column` of `table`, if a query
/// has built it: a build that is refused at its first row caches
/// nothing, so this never builds one.
fn resident(table: &Table, column: usize) -> Option<Arc<skyline::relation::KeyColumn>> {
    let columns = table.key_columns(&[column], |_| Err(()));
    columns.ok().map(|mut c| c.remove(0))
}

/// Resident key columns change no answer and are built once per table
/// version. Finite `hostile_key` tables and ones with ±∞ lanes (both
/// page): queried under two MIN/MAX assignments,
/// `INSERT`ed into through DDL,
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
            let check = |cat: &Catalog, rows: &[Vec<f64>]| {
                for is_min in &assignments {
                    let (sql, want) = hostile_query(rows, is_min);
                    let (got, disk) = paged_ids(cat, &sql);
                    assert_eq!(got, want, "finite={finite} d={d} n={n} {sql}");
                    assert!(disk.stats().writes() > 0, "did not page");
                }
            };

            assert!(resident(cat.get("t").unwrap(), 1).is_none(), "cold");
            check(&cat, &rows);
            let first: Vec<_> = (1..=d)
                .map(|c| resident(cat.get("t").unwrap(), c).expect("the first query built it"))
                .collect();
            assert!(
                resident(cat.get("t").unwrap(), 0).is_none(),
                "id is no criterion"
            );
            check(&cat, &rows);
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
            check(&cat, &rows);
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
    let (got, _) = paged_ids(&cat, &sql);
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

/// The quantizer-stress table through SQL on the paged path: the naive
/// oracle's rows, duplicates included, and no page left behind.
#[test]
fn quantizer_stress_table_on_the_paged_path_matches_the_oracle() {
    let (cat, sql) = quantizer_stress_catalog(2_400);
    let want = eval_except_semantics(&parse(sql).unwrap(), &cat).unwrap();
    assert!(
        want.len() > 8 * 16,
        "fixture must fill several window blocks"
    );
    let disk = MemDisk::shared();
    let pool = BufferPool::new(1 << 16);
    let opts = ExecOptions::default()
        .with_sort_pages(4)
        .with_pool(pool.clone())
        .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
    let got = execute_with(sql, &cat, &opts).unwrap();
    assert_eq!(got.rows(), want.rows());
    assert!(disk.stats().writes() > 0, "did not page");
    assert_eq!(pool.used(), 0, "quota pages leaked");
    assert_eq!(disk.allocated_pages(), 0, "temp pages leaked");
}

/// The same table in memory, through the library's in-memory SFS, whose
/// block window quantizes its keys the same way: same oracle rows.
#[test]
fn quantizer_stress_table_in_memory_matches_the_oracle() {
    use skyline::core::{MemAlgorithm, SkylineBuilder};
    use skyline::relation::Tuple;
    let (cat, sql) = quantizer_stress_catalog(2_400);
    let want = eval_except_semantics(&parse(sql).unwrap(), &cat).unwrap();
    let rows = cat.get("t").unwrap().rows();
    let column = |c: usize| move |r: &Tuple| r.get(c).as_f64().unwrap();
    let keep = SkylineBuilder::new()
        .max(column(1))
        .min(column(2))
        .max(column(3))
        .min(column(4))
        .max(column(5))
        .algorithm(MemAlgorithm::Sfs)
        .compute_indices(rows);
    let id = |r: &Tuple| r.get(0).as_i64().unwrap();
    let mut want: Vec<i64> = want.rows().iter().map(id).collect();
    want.sort_unstable();
    let got: Vec<i64> = keep.iter().map(|&i| id(&rows[i])).collect();
    assert_eq!(got, want);
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

/// What `execute_query_into` pushes for `sql` — every `(rank, row)` in
/// push order — and how it ends: the output schema or the error text.
type Pushed = (
    Vec<(usize, skyline::relation::Tuple)>,
    Result<Schema, String>,
);

fn pushed(sql: &str, catalog: &Catalog, opts: &ExecOptions) -> Pushed {
    let mut rows = Vec::new();
    let end = execute_query_into(&parse(sql).unwrap(), catalog, opts, |rank, row| {
        rows.push((rank, row));
        ControlFlow::Continue(())
    });
    (rows, end.map_err(|e| e.to_string()))
}

/// A random predicate over [`view_table`]'s columns: comparisons that
/// meet NULL, `'NULL'`, ±0.0 and repeated values, under AND/OR/NOT.
fn random_where(rng: &mut skyline::relation::rng::Rng, depth: u32) -> String {
    if depth > 0 && rng.usize_below(3) == 0 {
        let (a, b) = (random_where(rng, depth - 1), random_where(rng, depth - 1));
        return match rng.usize_below(3) {
            0 => format!("({a} AND {b})"),
            1 => format!("({a} OR {b})"),
            _ => format!("NOT {a}"),
        };
    }
    let k = rng.i64_inclusive(-1, 5);
    match rng.usize_below(9) {
        0 => format!("x < {k}"),
        1 => format!("y >= {k}"),
        2 => format!("id > {}", k * 8),
        3 => format!("g = {k}"),
        4 => ["f = 0.0", "f = -0.0", "f > -1.0", "f <> 1.5"][rng.usize_below(4)].into(),
        5 => ["s = 'NULL'", "s <> 'a'", "s < 'b'", "s = NULL"][rng.usize_below(4)].into(),
        6 => "x = y".into(),
        7 => format!("x <> {k}"),
        _ => format!("{k} <= y"),
    }
}

/// Up to 80 rows over few values each: `x` with an occasional NULL when
/// the table has holes, `f` holding NULL and both zeros, `s` holding
/// NULL and the string `'NULL'`.
fn view_table(rng: &mut skyline::relation::rng::Rng) -> Table {
    use skyline::relation::{Tuple, Value};
    let f = [
        Value::Null,
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(1.5),
        Value::Float(-1.0),
    ];
    let s = [Value::Null, "NULL".into(), "a".into(), "b".into()];
    let holes = rng.bool();
    let mut table = Table::empty(Schema::of(&[
        ("id", ColumnType::Int),
        ("x", ColumnType::Int),
        ("y", ColumnType::Int),
        ("f", ColumnType::Float),
        ("s", ColumnType::Str),
        ("g", ColumnType::Int),
    ]));
    for i in 0..rng.usize_below(80) {
        let x = if holes && rng.usize_below(16) == 0 {
            Value::Null
        } else {
            Value::Int(rng.i64_inclusive(0, 5))
        };
        table
            .push(Tuple::new(vec![
                Value::Int(i as i64),
                x,
                Value::Int(rng.i64_inclusive(0, 3)),
                f[rng.usize_below(f.len())].clone(),
                s[rng.usize_below(s.len())].clone(),
                Value::Int(rng.i64_inclusive(0, 2)),
            ]))
            .unwrap();
    }
    table
}

/// A `WHERE` reads the table through a view of its matches. Whatever
/// sits above it, the query pushes the ranks, rows, schema and error
/// text — `row N` counted within the matches — that the same query
/// without the `WHERE` pushes over a catalog holding only the matches.
#[test]
fn a_where_answers_as_the_pre_filtered_table() {
    use skyline::query::expr;
    let shapes = [
        "SELECT * FROM t{w} SKYLINE OF x MIN, y MAX",
        "SELECT id, x FROM t{w} SKYLINE OF x MAX, y MIN ORDER BY y DESC, s LIMIT 3",
        "SELECT * FROM t{w} SKYLINE OF x MIN, y MIN, s DIFF, f DIFF",
        "SELECT g, s, MAX(x) AS m, COUNT(y) AS c FROM t{w} GROUP BY g, s \
         HAVING c > 1 SKYLINE OF m MAX, c MIN",
        "SELECT * FROM t{w} ORDER BY s, f DESC",
        "SELECT id, s FROM t{w} LIMIT 5",
    ];
    let opts = ExecOptions::default();
    skyline_testkit::cases(96, 0x5E1E, |rng| {
        let table = view_table(rng);
        let pred = random_where(rng, 2);
        let Some(filter) = parse(&format!("SELECT * FROM t WHERE {pred}"))
            .unwrap()
            .where_clause
        else {
            unreachable!("the query has a WHERE");
        };
        let matches = table
            .rows()
            .iter()
            .filter(|r| expr::eval(&filter, table.schema(), r))
            .cloned()
            .collect();
        let pre_filtered = Table::new(table.schema().clone(), matches).unwrap();
        let (mut whole, mut only) = (Catalog::new(), Catalog::new());
        whole.register("t", table);
        only.register("t", pre_filtered);
        for shape in shapes {
            let with_where = shape.replace("{w}", &format!(" WHERE {pred}"));
            let without = shape.replace("{w}", "");
            assert_eq!(
                pushed(&with_where, &whole, &opts),
                pushed(&without, &only, &opts),
                "{with_where}"
            );
        }
    });
}

/// `n` rows whose columns hold what a `WHERE`'s column-at-a-time path
/// must compare as [`skyline::relation::Value::sql_cmp`] does: `i` the
/// integers 2⁵³ and 2⁵³ + 1 among small ones, `f` ±0.0 and ±∞, `fi` a
/// FLOAT column holding INTs, `d` dates, `h` small integers with a NULL
/// in the last row only, `s` strings, `'NULL'` among them.
fn selection_table(rng: &mut skyline::relation::rng::Rng, n: usize) -> Table {
    use skyline::relation::{Tuple, Value};
    let big = 1i64 << 53;
    let ints = [big, big + 1, -(big + 1), 0, 1, -1, 7];
    let floats = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -2.5, 7.0];
    let strings = ["NULL", "a", "b", "7"];
    let mut table = Table::empty(Schema::of(&[
        ("id", ColumnType::Int),
        ("i", ColumnType::Int),
        ("f", ColumnType::Float),
        ("fi", ColumnType::Float),
        ("d", ColumnType::Date),
        ("h", ColumnType::Int),
        ("s", ColumnType::Str),
    ]));
    for row in 0..n {
        let h = if row + 1 == n {
            Value::Null
        } else {
            Value::Int(rng.i64_inclusive(0, 5))
        };
        table
            .push(Tuple::new(vec![
                Value::Int(row as i64),
                Value::Int(ints[rng.usize_below(ints.len())]),
                Value::Float(floats[rng.usize_below(floats.len())]),
                Value::Int(ints[rng.usize_below(ints.len())]),
                Value::Date(rng.i64_inclusive(-3, 7)),
                h,
                strings[rng.usize_below(strings.len())].into(),
            ]))
            .unwrap();
    }
    table
}

/// A random predicate over [`selection_table`]'s columns: every
/// operator, a literal on either side or a second column, the literal
/// `NULL`, string literals against numeric columns and numbers against
/// the string column, under nested AND/OR/NOT.
fn selection_predicate(rng: &mut skyline::relation::rng::Rng, depth: u32) -> String {
    if depth > 0 && rng.usize_below(3) == 0 {
        let (a, b) = (
            selection_predicate(rng, depth - 1),
            selection_predicate(rng, depth - 1),
        );
        return match rng.usize_below(3) {
            0 => format!("({a} AND {b})"),
            1 => format!("({a} OR {b})"),
            _ => format!("NOT {a}"),
        };
    }
    let columns = ["id", "i", "f", "fi", "d", "h", "s"];
    let literals = [
        "0",
        "-0.0",
        "1.5",
        "-1",
        "7",
        "300",
        "9007199254740992",
        "9007199254740993",
        "-9007199254740993",
        "NULL",
        "'NULL'",
        "'a'",
    ];
    let ops = ["=", "<>", "<", "<=", ">", ">="];
    let column = columns[rng.usize_below(columns.len())];
    let other = match rng.usize_below(2) {
        0 => columns[rng.usize_below(columns.len())],
        _ => literals[rng.usize_below(literals.len())],
    };
    let (l, r) = if rng.bool() {
        (column, other)
    } else {
        (other, column)
    };
    format!("{l} {} {r}", ops[rng.usize_below(ops.len())])
}

/// A `WHERE`'s selection is, row for row and in order, the rows where
/// the bound predicate holds — over tables of 0, 1, 255, 256, 257 and
/// 769 rows, so that block edges are crossed, whether the selector runs
/// over the whole table or in two uneven pieces, and through the
/// streaming scan; cold, where every predicate is read row by row and
/// builds no column, and with every column resident, where `column op
/// number` is read a column at a time. An `INSERT` between two queries
/// drops the resident columns, and the next selection keeps the new row.
#[test]
fn a_selection_keeps_the_rows_where_the_predicate_holds() {
    use skyline::query::ddl::run_statement;
    use skyline::query::expr;
    // `column op number` over every column and operator, then leaves
    // that are always read row by row
    let fixed = [
        "i > 0",
        "i >= 9007199254740993",
        "i = 9007199254740992",
        "f <> -0.0",
        "f <= 1.5",
        "fi > -1",
        "fi < 9007199254740993",
        "d < 300",
        "id >= 0",
        "h < 3",
        "h <> 1",
        "0 <= f",
        "fi = i",
        "d >= i",
        "s = 'NULL'",
        "s > 1",
        "f = NULL",
        "i < 'a'",
    ];
    let columns: Vec<usize> = (0..7).collect();
    skyline_testkit::cases(2, 0x5E1C, |rng| {
        for n in [0, 1, 255, 256, 257, 769] {
            let mut cat = Catalog::new();
            cat.register("t", selection_table(rng, n));
            let t = cat.get("t").unwrap();
            let random: Vec<String> = (0..40).map(|_| selection_predicate(rng, 3)).collect();
            for warm in [false, true] {
                if warm {
                    t.key_columns(&columns, |_| Ok::<(), ()>(())).unwrap();
                }
                for pred in fixed.iter().map(|p| p.to_string()).chain(random.clone()) {
                    let sql = format!("SELECT id FROM t WHERE {pred}");
                    let filter = parse(&sql).unwrap().where_clause.unwrap();
                    let bound = expr::bind(&filter, t.schema()).unwrap();
                    let want: Vec<usize> = (0..n).filter(|&i| bound.eval(&t.rows()[i])).collect();
                    let selector = bound.over(t);
                    let mut whole = Vec::new();
                    selector.select(0..n, &mut whole);
                    assert_eq!(whole, want, "n={n} warm={warm} {pred}");
                    let cut = rng.usize_below(n + 1);
                    let mut pieces = Vec::new();
                    selector.select(0..cut, &mut pieces);
                    selector.select(cut..n, &mut pieces);
                    assert_eq!(pieces, want, "n={n} warm={warm} cut at {cut}: {pred}");
                    let ids: Vec<usize> = execute(&sql, &cat)
                        .unwrap()
                        .rows()
                        .iter()
                        .map(|r| r.get(0).as_i64().unwrap() as usize)
                        .collect();
                    assert_eq!(ids, want, "n={n} warm={warm} {sql}");
                }
                if !warm {
                    assert!(
                        columns.iter().all(|&c| t.resident_key_column(c).is_none()),
                        "a WHERE builds no column"
                    );
                }
            }
        }
    });

    let mut cat = Catalog::new();
    cat.register(
        "t",
        Table::empty(Schema::of(&[
            ("id", ColumnType::Int),
            ("x", ColumnType::Int),
        ])),
    );
    let rows: Vec<String> = (0..300).map(|i| format!("({i}, {})", i % 7)).collect();
    run_statement(
        &format!("INSERT INTO t VALUES {}", rows.join(", ")),
        &mut cat,
    )
    .unwrap();
    let ids = |cat: &Catalog| -> Vec<i64> {
        let out = execute("SELECT id FROM t WHERE x > 5", cat).unwrap();
        out.rows()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect()
    };
    let warm_up = |cat: &Catalog| execute("SELECT id FROM t SKYLINE OF x MAX", cat).unwrap();
    let x = |cat: &Catalog| cat.get("t").unwrap().resident_key_column(1);
    let before = ids(&cat);
    assert_eq!(before, (0..300).filter(|i| i % 7 == 6).collect::<Vec<_>>());
    assert!(x(&cat).is_none(), "a WHERE builds no column");
    warm_up(&cat);
    assert_eq!(ids(&cat), before, "x is read a column at a time");
    run_statement("INSERT INTO t VALUES (300, 6)", &mut cat).unwrap();
    assert!(x(&cat).is_none(), "INSERT starts cold");
    let after = ids(&cat);
    assert_eq!(after, [before, vec![300]].concat());
    warm_up(&cat);
    assert_eq!(x(&cat).unwrap().values().len(), 301);
    assert_eq!(ids(&cat), after);
}

/// A criterion holding a `NULL` or a string past the first block: its
/// resident column holds no values, so the skyline under a `WHERE`
/// builds it from the matches. A `WHERE` that drops that row answers as
/// the pre-filtered table on the presort and on the ranked source; one
/// that keeps it names the same `row N`, counted within the matches —
/// cold and warm.
#[test]
fn a_holed_criterion_under_a_where_answers_as_the_pre_filtered_table() {
    use skyline::query::expr;
    use skyline::relation::{Tuple, Value};
    let (n, at) = (700i64, 400i64);
    let shapes = [
        "SELECT * FROM t{w} SKYLINE OF a MIN, b MAX, c MIN",
        "SELECT id, a FROM t{w} SKYLINE OF a MIN, b MAX, c MIN ORDER BY a LIMIT 2",
    ];
    let opts = ExecOptions::default();
    for hole in [Value::Null, Value::Str("x".into())] {
        let mut table = Table::empty(Schema::of(&[
            ("id", ColumnType::Int),
            ("a", ColumnType::Float),
            ("b", ColumnType::Int),
            ("c", ColumnType::Int),
        ]));
        for i in 0..n {
            let c = if i == at {
                hole.clone()
            } else {
                Value::Int((i * 53) % 997)
            };
            let a = Value::Float(((i * 389) % 701) as f64 + 0.5);
            let row = Tuple::new(vec![Value::Int(i), a, Value::Int((i * 7_919) % 1_009), c]);
            table.push(row).unwrap();
        }
        let mut whole = Catalog::new();
        whole.register("t", table.clone());
        let ranked = shapes[1].replace("{w}", &format!(" WHERE id <> {at}"));
        let plan = skyline::query::plan::explain(&ranked, &whole).unwrap();
        assert!(plan.contains("walk → SFS"), "{plan}");
        for cold_then_warm in 0..2 {
            for pred in [
                format!("id <> {at}"),
                format!("id < {at} OR id > {at}"),
                format!("b >= 0 AND NOT id = {at}"),
                "id > 100".to_string(),
            ] {
                let filter = parse(&format!("SELECT * FROM t WHERE {pred}"))
                    .unwrap()
                    .where_clause
                    .unwrap();
                let matches = table
                    .rows()
                    .iter()
                    .filter(|r| expr::eval(&filter, table.schema(), r))
                    .cloned()
                    .collect();
                let mut only = Catalog::new();
                only.register("t", Table::new(table.schema().clone(), matches).unwrap());
                for shape in shapes {
                    let with_where = shape.replace("{w}", &format!(" WHERE {pred}"));
                    let got = pushed(&with_where, &whole, &opts);
                    let without = shape.replace("{w}", "");
                    assert_eq!(got, pushed(&without, &only, &opts), "{with_where}");
                    match &got.1 {
                        Err(m) => assert!(
                            pred == "id > 100"
                                && m.contains("row 299: skyline column c is not numeric"),
                            "{with_where}: {m}"
                        ),
                        Ok(_) => assert!(!got.0.is_empty() && pred != "id > 100"),
                    }
                }
            }
            let c = resident(whole.get("t").unwrap(), 3).expect("c is resident");
            assert_eq!(
                c.first_non_numeric(),
                Some(at as usize),
                "pass {cold_then_warm}"
            );
        }
        let m = execute(&shapes[0].replace("{w}", ""), &whole)
            .unwrap_err()
            .to_string();
        assert!(
            m.contains("row 400: skyline column c is not numeric"),
            "{m}"
        );
    }
}

/// Every row loop of the executor polls the cancel token: a tripped
/// token ends each query shape with a typed `Cancelled` — the streaming
/// scan, the `WHERE` pass, `ORDER BY`'s collection, grouping and the
/// skyline — and a live one changes no answer.
#[test]
fn a_tripped_token_cancels_every_row_loop() {
    use skyline::exec::CancelToken;
    use skyline::query::QueryError;
    let rows = (0..100_000i64).map(|i| tuple![i, i % 1_000 - 500, (i * 7_919) % 100_003]);
    let mut cat = Catalog::new();
    cat.register(
        "t",
        Table::new(
            Schema::of(&[
                ("id", ColumnType::Int),
                ("a", ColumnType::Int),
                ("b", ColumnType::Int),
            ]),
            rows.collect(),
        )
        .unwrap(),
    );
    let tripped = CancelToken::new();
    tripped.cancel();
    let tripped = ExecOptions::default().with_cancel(tripped);
    for sql in [
        "SELECT * FROM t",
        "SELECT * FROM t WHERE a > 0",
        "SELECT * FROM t WHERE a > 0 ORDER BY b LIMIT 3",
        "SELECT * FROM t ORDER BY b LIMIT 3",
        "SELECT a, MAX(b) AS b FROM t WHERE a > 0 GROUP BY a ORDER BY b LIMIT 3",
        "SELECT * FROM t WHERE a > 0 SKYLINE OF a MAX, b MIN",
        "SELECT * FROM t SKYLINE OF a MAX, b MIN ORDER BY b LIMIT 3",
    ] {
        let (_, end) = pushed(sql, &cat, &tripped);
        assert_eq!(
            end.unwrap_err(),
            QueryError::Cancelled {
                records_processed: 0
            }
            .to_string(),
            "{sql}"
        );
        let live = ExecOptions::default().with_cancel(CancelToken::new());
        assert_eq!(
            pushed(sql, &cat, &live),
            pushed(sql, &cat, &ExecOptions::default()),
            "{sql}"
        );
    }
    // a token tripped at the first match stops the scan at its next
    // poll: rows 0..=499 match, so the rows before it all went out
    let token = CancelToken::new();
    let opts = ExecOptions::default().with_cancel(token.clone());
    let mut seen = 0;
    let end = execute_query_into(
        &parse("SELECT * FROM t WHERE a < 0").unwrap(),
        &cat,
        &opts,
        |_, _| {
            seen += 1;
            token.cancel();
            ControlFlow::Continue(())
        },
    );
    let interval = skyline::exec::cancel::CANCEL_CHECK_INTERVAL;
    assert_eq!(
        end.unwrap_err(),
        QueryError::Cancelled {
            records_processed: interval
        }
    );
    assert_eq!(seen, interval);
}

/// Up to 1 500 rows whose criteria hold what the ranked source's heap
/// key and tie order must get right: `a` mixes ±0.0 and ±∞ — often or
/// rarely — into few or many values, `b` is fractional with both zeros,
/// `c` and `e` are integers over small or wide domains, and `h` numbers
/// 40–300 groups. A lead with few values mostly makes the walk give up; one
/// with many takes the ranked source.
fn ranked_table(rng: &mut skyline::relation::rng::Rng) -> Table {
    use skyline::relation::{Tuple, Value};
    let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
    let n = 200 + rng.usize_below(1_300);
    let side =
        |rng: &mut skyline::relation::rng::Rng| [3, 40, 10_000, 1_000_000][rng.usize_below(4)];
    let (side_a, side_c, side_e) = (side(rng), side(rng), side(rng));
    let special_one_in = [8, 64][rng.usize_below(2)];
    let groups = 40 + rng.usize_below(260);
    let mut table = Table::empty(Schema::of(&[
        ("id", ColumnType::Int),
        ("a", ColumnType::Float),
        ("b", ColumnType::Float),
        ("c", ColumnType::Int),
        ("e", ColumnType::Int),
        ("h", ColumnType::Int),
    ]));
    for i in 0..n {
        let a = if rng.usize_below(special_one_in) == 0 {
            specials[rng.usize_below(specials.len())]
        } else {
            rng.i64_inclusive(0, side_a) as f64
        };
        let b = [0.0, -0.0, 0.5, rng.f64(), rng.f64()][rng.usize_below(5)];
        table
            .push(Tuple::new(vec![
                Value::Int(i as i64),
                Value::Float(a),
                Value::Float(b),
                Value::Int(rng.i64_inclusive(0, side_c)),
                Value::Int(rng.i64_inclusive(0, side_e)),
                Value::Int(rng.usize_below(groups) as i64),
            ]))
            .unwrap();
    }
    table
}

/// `ORDER BY <criterion> … LIMIT k` over a skyline answers as the same
/// query without the `LIMIT`, cut to its first `k` rows — the uncut
/// query takes the filter and presort, the cut one the ranked source
/// whenever it is eligible. Over random tables (±0.0, ±∞ and long runs
/// on the lead), `MIN` and `MAX` leads, `LIMIT` 0, 1, at and past the
/// 4·k bound, with and without later `ORDER BY` keys, over the whole
/// table, a `WHERE` and a `GROUP BY`, and on a lead whose ties send the
/// query back to the presort.
#[test]
fn a_ranked_top_k_answers_as_the_uncut_order_cut_to_k() {
    use skyline::core::cardinality::expected_skyline_size;
    let (mut ranked, mut eligible) = (0, [0usize; 4]);
    skyline_testkit::cases(40, 0x7A4C, |rng| {
        let table = ranked_table(rng);
        let n = table.len();
        let matches = table
            .rows()
            .iter()
            .filter(|r| r.get(4).as_i64() != Some(1))
            .count();
        let mut groups: Vec<i64> = table
            .rows()
            .iter()
            .filter_map(|r| r.get(5).as_i64())
            .collect();
        groups.sort_unstable();
        groups.dedup();
        let mut cat = Catalog::new();
        cat.register("t", table);
        // a clause of 2–4 criteria over a, b, c, e in random order and
        // directions; the lead is one of them
        let mut names = ["a", "b", "c", "e"];
        rng.shuffle(&mut names);
        let d = 2 + rng.usize_below(3);
        let crit: Vec<(&str, bool)> = names[..d].iter().map(|&c| (c, rng.bool())).collect();
        let (lead, lead_min) = crit[rng.usize_below(d)];
        let clause: Vec<String> = crit
            .iter()
            .map(|(c, min)| format!("{c} {}", if *min { "MIN" } else { "MAX" }))
            .collect();
        let dir = if lead_min { "ASC" } else { "DESC" };
        let then = ["", ", id DESC", ", c", ", e DESC, b"][rng.usize_below(4)];
        let (grouped_crit, grouped_crit_h) = if lead_min {
            ("a MIN, c MAX", "MIN, c MAX")
        } else {
            ("a MAX, c MIN", "MAX, c MIN")
        };
        let shapes = [
            (
                format!("SELECT * FROM t SKYLINE OF {} ORDER BY {lead} {dir}{then}", clause.join(", ")),
                n,
                d,
            ),
            (
                format!(
                    "SELECT id, {lead} FROM t WHERE e <> 1 SKYLINE OF {} ORDER BY {lead} {dir}{then}",
                    clause.join(", ")
                ),
                matches,
                d,
            ),
            (
                format!(
                    "SELECT h, MIN(a) AS a, MAX(c) AS c FROM t GROUP BY h \
                     SKYLINE OF {grouped_crit} ORDER BY a {dir}"
                ),
                groups.len(),
                2,
            ),
            // `h` repeats each value up to 37 times: ties at the k-th
            // lead often send the query back to the presort
            (
                format!("SELECT * FROM t SKYLINE OF h {grouped_crit_h}, b MAX ORDER BY h {dir}, id"),
                n,
                3,
            ),
        ];
        let opts = ExecOptions::default();
        for (s, (uncut, rows, d)) in shapes.iter().enumerate() {
            let bound = (expected_skyline_size(*rows, *d) / 4.0) as usize;
            let random = 1 + rng.usize_below(bound + 2);
            for k in [0, 1, bound, bound + 1, random] {
                let (mut want, schema) = pushed(uncut, &cat, &opts);
                want.truncate(k);
                let cut = format!("{uncut} LIMIT {k}");
                assert_eq!(pushed(&cut, &cat, &opts), (want, schema), "{cut}");
                eligible[s] += usize::from(k >= 1 && k <= bound);
                if s == 0 {
                    let plan = skyline::query::plan::explain(&cut, &cat).unwrap();
                    ranked += usize::from(plan.contains("walk → SFS"));
                }
            }
        }
    });
    // the ranked source served a fair share of the cases
    assert!(eligible.iter().all(|&e| e >= 20), "{eligible:?}");
    assert!(ranked >= 40, "{ranked}");
}

/// A table `(id, a, b, c, g)` of `n` rows for the large ranked top-k
/// differential: `shape` 0 independent, 1 correlated (every criterion
/// the row number plus a little noise, ties on the lead), 2 three
/// corners (three mutually incomparable rows each dominating a third of
/// the rest under `MAX` on all three). `g` is never a criterion.
fn large_ranked_table(shape: usize, n: usize, seed: u64) -> Table {
    let mut rng = skyline::relation::rng::Rng::seed_from_u64(seed);
    let top = 1_000_000i64;
    let rows = (0..n)
        .map(|i| {
            let abc = match (shape, i) {
                (0, _) => [0; 3].map(|_| rng.i64_inclusive(0, top)),
                (1, _) => [0; 3].map(|_| i as i64 + rng.i64_inclusive(0, 40)),
                (_, 0..=2) => {
                    let mut corner = [top; 3];
                    corner[i] = 0;
                    corner
                }
                _ => {
                    let mut v = [0; 3].map(|_| rng.i64_inclusive(1, top - 1));
                    v[i % 3] = -v[i % 3];
                    v
                }
            };
            tuple![i as i64, abc[0], abc[1], abc[2], (i % 7) as i64]
        })
        .collect();
    let schema = Schema::of(&[
        ("id", ColumnType::Int),
        ("a", ColumnType::Int),
        ("b", ColumnType::Int),
        ("c", ColumnType::Int),
        ("g", ColumnType::Int),
    ]);
    Table::new(schema, rows).unwrap()
}

/// `ORDER BY <criterion> … LIMIT k` over tables past the size the ranked
/// source once held in a heap — 20 000 to 60 000 rows under `sort_pages`
/// 64, a server's default — answers as the same query without the
/// `LIMIT` cut to its first `k` rows: on independent, correlated and
/// three-corner data; over the whole table, a `WHERE` on the lead (read
/// off its resident column) and one tested row by row; under a `MIN` and
/// a `MAX` lead; at k ∈ {1, E/16, E/4, E/4 + 1}.
#[test]
fn a_ranked_top_k_over_a_large_table_answers_as_the_uncut_order_cut_to_k() {
    use skyline::core::cardinality::expected_skyline_size;
    let opts = ExecOptions::default().with_sort_pages(64);
    let mut walked = 0;
    for (shape, n) in [(0, 20_000), (1, 40_000), (2, 60_000)] {
        let table = large_ranked_table(shape, n, 0x1A7 + shape as u64);
        let mut leads: Vec<i64> = table
            .rows()
            .iter()
            .map(|r| r.get(1).as_i64().unwrap())
            .collect();
        leads.sort_unstable();
        let (low, high) = (leads[n * 3 / 5], leads[n * 2 / 5]);
        let mut cat = Catalog::new();
        cat.register("t", table);
        for (clause, order, lead_where) in [
            ("a MAX, b MAX, c MAX", "a DESC, id", format!("a >= {high}")),
            ("a MIN, b MAX, c MAX", "a, id", format!("a <= {low}")),
        ] {
            for filter in ["", &format!(" WHERE {lead_where}"), " WHERE g <> 3"] {
                let uncut =
                    format!("SELECT id, a FROM t{filter} SKYLINE OF {clause} ORDER BY {order}");
                let (want, schema) = pushed(&uncut, &cat, &opts);
                let count = format!("SELECT id FROM t{filter}");
                let rows = execute(&count, &cat).unwrap().len();
                let e = expected_skyline_size(rows, 3);
                let quarter = (e / 4.0) as usize;
                for k in [1, (e / 16.0) as usize, quarter, quarter + 1] {
                    let cut = format!("{uncut} LIMIT {k}");
                    let mut want = want.clone();
                    want.truncate(k);
                    assert_eq!(pushed(&cut, &cat, &opts), (want, schema.clone()), "{cut}");
                    let plan = skyline::query::plan::explain(&cut, &cat).unwrap();
                    walked += usize::from(filter.is_empty() && plan.contains("walk → SFS"));
                }
            }
        }
    }
    // the whole-table cases at k ≤ E/4: three of four, two leads, three tables
    assert_eq!(walked, 18);
}

/// Rows equal on every `ORDER BY` key leave by row number, from the
/// ranked source and from the filter and presort alike: nine skyline
/// rows tie on the best `a`, planted in an order the entropy presort
/// does not keep.
#[test]
fn order_by_ties_leave_by_row_number_on_both_sources() {
    let mut rng = skyline::relation::rng::Rng::seed_from_u64(0x71E5);
    let mut rows: Vec<(i64, i64, i64)> = (0..2_000)
        .map(|_| {
            (
                rng.i64_inclusive(0, 999),
                rng.i64_inclusive(0, 8),
                rng.i64_inclusive(0, 8),
            )
        })
        .collect();
    // (−5, 9 − j, 1 + j): the best `x` and mutually incomparable, at
    // rows spread over the table in reverse
    let planted: Vec<usize> = (0..9).map(|j| 1_900 - 200 * j).collect();
    for (j, &at) in planted.iter().enumerate() {
        rows[at] = (-5, 9 - j as i64, 1 + j as i64);
    }
    let mut cat = Catalog::new();
    cat.register("t", random_table(&rows));
    let by_row: Vec<i64> = {
        let mut ids: Vec<i64> = planted.iter().map(|&r| r as i64).collect();
        ids.sort_unstable();
        ids
    };
    let sky = "SELECT id FROM t SKYLINE OF x MIN, y MAX, g MAX ORDER BY x";
    let ids = |sql: &str| -> Vec<i64> {
        execute(sql, &cat)
            .unwrap()
            .rows()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect()
    };
    let explain = |sql: &str| skyline::query::plan::explain(sql, &cat).unwrap();
    let ranked = format!("{sky} LIMIT 5");
    assert!(
        explain(&ranked).contains("ranked by x ASC, LIMIT 5"),
        "{}",
        explain(&ranked)
    );
    assert!(
        explain(sky).contains("filter → presort → SFS"),
        "{}",
        explain(sky)
    );
    assert_eq!(ids(&ranked), by_row[..5]);
    assert_eq!(ids(sky)[..9], by_row);
    // and the presort emits them in another order
    let mut emitted = Vec::new();
    let no_order = "SELECT id FROM t SKYLINE OF x MIN, y MAX, g MAX";
    execute_query_into(
        &parse(no_order).unwrap(),
        &cat,
        &ExecOptions::default(),
        |_, row| {
            emitted.extend(row.get(0).as_i64().filter(|id| by_row.contains(id)));
            ControlFlow::Continue(())
        },
    )
    .unwrap();
    assert_ne!(emitted, by_row);
}

/// The paged route's emitted row-id *sequence* against an independent
/// oracle: the naive skyline, ordered by `DIFF` group (groups numbered by
/// first appearance, ordered by the bytes of the number's entry lane),
/// then the entropy score descending, then the key nested-descending,
/// then row. Hostile tables — tied and repeated keys,
/// ±0.0, ±∞, the `i32` extremes, random MIN/MAX mixes; sizes straddling
/// the filter's page; anti-correlated ones whose skyline outgrows the
/// quota's window; `DIFF` on few groups or more than the page holds —
/// run under a four-page quota, so the window spills wherever the
/// skyline does not fit it. Whichever rows the survey seeds the filter
/// with, the answer, its order and a `LIMIT` without `ORDER BY` are the
/// oracle's.
#[test]
fn the_paged_emission_is_the_presort_order_of_the_skyline() {
    use skyline::core::{dominates, EntropyScore, MonotoneScore};
    use skyline::relation::{Tuple, Value};
    use std::cmp::Ordering;
    let (mut spilled, mut past_the_page) = (0, 0);
    skyline_testkit::cases(40, 0x5EED, |rng| {
        let d = [1, 2, 3, 4, 7][rng.usize_below(5)];
        let page = skyline::storage::PAGE_SIZE / (8 * d);
        let anti = d > 1 && rng.usize_below(3) == 0;
        let n = if anti {
            (5 * page).max(1_100)
        } else {
            [page - 1, page, page + 1, 3 * page][rng.usize_below(4)]
        };
        let mut rows = if anti {
            // every row near the plane Σ = 1 000: a skyline of hundreds
            (0..n)
                .map(|_| {
                    let mut key: Vec<f64> = (1..d).map(|_| rng.usize_below(1_000) as f64).collect();
                    let rest = 1_000.0 * (d - 1) as f64 - key.iter().sum::<f64>();
                    key.push(rest + rng.usize_below(30) as f64);
                    key
                })
                .collect()
        } else {
            hostile_rows(rng, n, d, |v| if v.is_nan() { f64::INFINITY } else { v })
        };
        for v in rows.iter_mut().flatten() {
            if *v == 0.0 && rng.bool() {
                *v = -*v;
            }
        }
        let groups = [0, 1, 3, 2 * page][rng.usize_below(4)];
        let group_of: Vec<i64> = (0..n)
            .map(|_| rng.usize_below(groups.max(1)) as i64)
            .collect();
        let names: Vec<String> = (0..d).map(|c| format!("c{c}")).collect();
        let mut named = vec![("id", ColumnType::Int), ("g", ColumnType::Int)];
        named.extend(names.iter().map(|c| (c.as_str(), ColumnType::Float)));
        let mut table = Table::empty(Schema::of(&named));
        for (i, row) in rows.iter().enumerate() {
            let mut values = vec![Value::Int(i as i64), Value::Int(group_of[i])];
            values.extend(row.iter().copied().map(Value::Float));
            table.push(Tuple::new(values)).unwrap();
        }
        let is_min: Vec<bool> = (0..d).map(|_| rng.bool()).collect();
        let criteria: Vec<String> = is_min
            .iter()
            .enumerate()
            .map(|(c, &min)| format!("c{c} {}", if min { "MIN" } else { "MAX" }))
            .collect();
        let diff = if groups > 0 { ", g DIFF" } else { "" };
        let sql = format!("SELECT id FROM t SKYLINE OF {}{diff}", criteria.join(", "));

        // the oracle
        let oriented: Vec<Vec<f64>> = rows
            .iter()
            .map(|row| {
                let signed = row.iter().zip(&is_min);
                signed.map(|(&v, &min)| if min { -v } else { v }).collect()
            })
            .collect();
        // groups numbered by first appearance, as the planner numbers them
        let mut first: Vec<i64> = Vec::new();
        let group: Vec<usize> = group_of
            .iter()
            .map(|g| {
                first.iter().position(|f| f == g).unwrap_or_else(|| {
                    first.push(*g);
                    first.len() - 1
                })
            })
            .collect();
        // the sort orders groups by their entry lane: the number's f64
        // bytes as stored (little-endian), compared as bytes
        let lane = |g: usize| (g as f64).to_le_bytes();
        let score = EntropyScore::from_keys(&oriented.concat(), d);
        let mut want: Vec<usize> = (0..n)
            .filter(|&i| {
                !(0..n).any(|j| group[j] == group[i] && dominates(&oriented[j], &oriented[i]))
            })
            .collect();
        want.sort_by(|&a, &b| {
            let nested = (0..d)
                .map(|k| oriented[b][k].partial_cmp(&oriented[a][k]).unwrap())
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal);
            let (sa, sb) = (score.score(&oriented[a]), score.score(&oriented[b]));
            lane(group[a])
                .cmp(&lane(group[b]))
                .then(sb.total_cmp(&sa))
                .then(nested)
                .then(a.cmp(&b))
        });
        let window = 4 * page;
        spilled += usize::from(want.len() > window);
        past_the_page += usize::from(group.iter().max().is_some_and(|&g| g >= page));

        let mut cat = Catalog::new();
        cat.register("t", table);
        let (pool, disk) = (BufferPool::new(4), MemDisk::shared());
        let opts = ExecOptions::default()
            .with_sort_pages(4)
            .with_pool(pool.clone())
            .with_disk(Arc::clone(&disk) as Arc<dyn Disk>);
        let emitted = |sql: &str| {
            let mut ids = Vec::new();
            execute_query_into(&parse(sql).unwrap(), &cat, &opts, |_, row| {
                ids.push(row.get(0).as_i64().unwrap() as usize);
                ControlFlow::Continue(())
            })
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert_eq!((pool.used(), disk.allocated_pages()), (0, 0), "{sql}");
            ids
        };
        assert_eq!(emitted(&sql), want, "d {d} n {n} {sql}");
        let k = 1 + rng.usize_below(want.len());
        assert_eq!(
            emitted(&format!("{sql} LIMIT {k}")),
            want[..k],
            "{sql} LIMIT {k}"
        );
    });
    assert!(spilled > 0, "no skyline outgrew the window");
    assert!(
        past_the_page > 0,
        "no table had more groups than the page holds"
    );
}
