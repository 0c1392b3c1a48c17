//! End-to-end SQL tests: the `SKYLINE OF` operator against the paper's
//! Figure-5 `EXCEPT` rewrite oracle, on random tables and the samples.

use skyline::query::catalog::Catalog;
use skyline::query::rewrite::eval_except_semantics;
use skyline::query::{execute, execute_with, parse, ExecOptions};
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
