//! The benchmark's own reference answers.
//!
//! A plain dominance loop and a direct evaluation of each
//! [`QuerySpec`], written against nothing but the table's values — no
//! `skyline_core`, `skyline_query` or `skyline_exec` call — so a bug in
//! the engine cannot hide in the answer it is checked against.

use skyline_relation::{Table, Tuple, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The query shapes the workloads issue, as data: the SQL text is
/// rendered from it and the oracle evaluates it directly, so the two
/// cannot drift apart.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Catalog name of the FROM table.
    pub table: &'static str,
    /// `(column, is_min)` per MIN/MAX criterion, in clause order.
    pub crit: Vec<(&'static str, bool)>,
    /// `WHERE a < k`.
    pub where_a_lt: Option<i64>,
    /// `<column> DIFF`.
    pub diff: Option<&'static str>,
    /// The paper's Fig. 8 pre-pass: `GROUP BY` every criterion but the
    /// last and keep `MAX` of the last, then skyline the groups.
    pub dimred: bool,
    /// `ORDER BY a, id LIMIT n` (a total order: `id` is unique).
    pub order_limit: Option<usize>,
}

impl QuerySpec {
    /// `SELECT * FROM table SKYLINE OF crit…` with nothing else set.
    #[must_use]
    pub fn skyline(table: &'static str, crit: &[(&'static str, bool)]) -> Self {
        QuerySpec {
            table,
            crit: crit.to_vec(),
            where_a_lt: None,
            diff: None,
            dimred: false,
            order_limit: None,
        }
    }

    /// The SQL text handed to the server.
    #[must_use]
    pub fn sql(&self) -> String {
        let names: Vec<&str> = self.crit.iter().map(|&(c, _)| c).collect();
        let (last, grouped) = names.split_last().expect("at least one criterion");
        let mut sql = if self.dimred {
            format!("SELECT {}, MAX({last}) AS {last}", grouped.join(", "))
        } else {
            "SELECT *".to_string()
        };
        sql.push_str(&format!(" FROM {}", self.table));
        if let Some(k) = self.where_a_lt {
            sql.push_str(&format!(" WHERE a < {k}"));
        }
        if self.dimred {
            sql.push_str(&format!(" GROUP BY {}", grouped.join(", ")));
        }
        let mut items: Vec<String> = self
            .crit
            .iter()
            .map(|&(c, is_min)| format!("{c} {}", if is_min { "MIN" } else { "MAX" }))
            .collect();
        if let Some(g) = self.diff {
            items.push(format!("{g} DIFF"));
        }
        sql.push_str(&format!(" SKYLINE OF {}", items.join(", ")));
        if let Some(n) = self.order_limit {
            sql.push_str(&format!(" ORDER BY a, id LIMIT {n}"));
        }
        sql
    }
}

/// Indices of the rows of a row-major `n × d` matrix that no other row
/// dominates, ascending. Larger is better in every column; a row
/// dominates another when it is at least as good everywhere and
/// strictly better somewhere, so exact duplicates all survive.
///
/// Rows are visited in descending order of their coordinate sum. A
/// dominator's sum is never the smaller one (floating-point addition is
/// monotone), so a row can only be dominated by one visited before it or
/// one with an equal sum: each row is tested against the survivors so
/// far, and a survivor is evicted only by a later row of equal sum. A
/// survivor that dominates a row moves to the front of the list, which
/// is all that keeps the loop from being quadratic in practice.
#[must_use]
pub fn skyline(keys: &[f64], d: usize) -> Vec<usize> {
    assert!(d > 0 && keys.len().is_multiple_of(d), "matrix shape");
    let row = |i: usize| &keys[i * d..(i + 1) * d];
    let dominates = |a: &[f64], b: &[f64]| {
        let mut strict = false;
        for (x, y) in a.iter().zip(b) {
            if x < y {
                return false;
            }
            strict |= x > y;
        }
        strict
    };
    let sums: Vec<f64> = keys.chunks_exact(d).map(|r| r.iter().sum()).collect();
    let mut order: Vec<usize> = (0..sums.len()).collect();
    order.sort_by(|&i, &j| sums[j].total_cmp(&sums[i]));
    let mut sky: Vec<usize> = Vec::new();
    for i in order {
        if let Some(p) = sky.iter().position(|&s| dominates(row(s), row(i))) {
            sky[..=p].rotate_right(1);
            continue;
        }
        sky.retain(|&s| !(sums[s] == sums[i] && dominates(row(i), row(s))));
        sky.push(i);
    }
    sky.sort_unstable();
    sky
}

fn int(row: &Tuple, col: usize) -> i64 {
    row.get(col).as_i64().expect("integer column")
}

/// The relation a query's skyline runs over: what is left of the table
/// after `WHERE` and `GROUP BY`, where the criteria sit in it, and how
/// `DIFF` partitions it.
pub struct SkylineInput<'a> {
    /// Post-`WHERE`, post-`GROUP BY` rows: the table's own where they
    /// survive as they are, new ones where `GROUP BY` made them.
    pub rows: Vec<Cow<'a, Tuple>>,
    /// `(column position in rows, is_min)` per criterion.
    pub crit: Vec<(usize, bool)>,
    /// Row positions per `DIFF` group (one group without `DIFF`).
    pub parts: Vec<Vec<usize>>,
}

impl SkylineInput<'_> {
    /// Row-major oriented keys (larger is better) of one partition.
    #[must_use]
    pub fn keys(&self, members: &[usize]) -> Vec<f64> {
        let mut keys = Vec::with_capacity(members.len() * self.crit.len());
        for &i in members {
            for &(c, is_min) in &self.crit {
                let v = self.rows[i].get(c).as_f64().expect("numeric criterion");
                keys.push(if is_min { -v } else { v });
            }
        }
        keys
    }
}

/// Apply `q`'s `WHERE`, `GROUP BY` and `DIFF` partitioning to `table`.
#[must_use]
pub fn skyline_input<'a>(table: &'a Table, q: &QuerySpec) -> SkylineInput<'a> {
    let col = |name: &str| column(table, q, name);
    let a = col("a");
    let mut rows: Vec<Cow<Tuple>> = table
        .rows()
        .iter()
        .filter(|r| q.where_a_lt.is_none_or(|k| int(r, a) < k))
        .map(Cow::Borrowed)
        .collect();
    let mut crit: Vec<(usize, bool)> = q.crit.iter().map(|&(c, m)| (col(c), m)).collect();

    if q.dimred {
        let (&(last, _), grouped) = crit.split_last().expect("at least one criterion");
        let mut best: BTreeMap<Vec<i64>, i64> = BTreeMap::new();
        for r in &rows {
            let key: Vec<i64> = grouped.iter().map(|&(c, _)| int(r, c)).collect();
            let v = int(r, last);
            best.entry(key)
                .and_modify(|m| *m = (*m).max(v))
                .or_insert(v);
        }
        rows = best
            .into_iter()
            .map(|(mut key, max)| {
                key.push(max);
                Cow::Owned(Tuple::new(key.into_iter().map(Value::Int).collect()))
            })
            .collect();
        // the grouped relation's columns are the criteria, in clause order
        for (pos, c) in crit.iter_mut().enumerate() {
            c.0 = pos;
        }
    }

    let mut parts: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    let diff = q.diff.map(col);
    for (i, r) in rows.iter().enumerate() {
        parts
            .entry(diff.map_or(0, |g| int(r, g)))
            .or_default()
            .push(i);
    }
    SkylineInput {
        rows,
        crit,
        parts: parts.into_values().collect(),
    }
}

fn column(table: &Table, q: &QuerySpec, name: &str) -> usize {
    table
        .schema()
        .index_of(name)
        .unwrap_or_else(|| panic!("table {} has no column {name}", q.table))
}

/// The rows `q` must return from `table`, in result order when the query
/// has an `ORDER BY`, otherwise in no particular order.
#[must_use]
pub fn evaluate(table: &Table, q: &QuerySpec) -> Vec<Tuple> {
    let input = skyline_input(table, q);
    let d = input.crit.len();
    let mut out: Vec<Tuple> = Vec::new();
    for members in &input.parts {
        let keep = skyline(&input.keys(members), d);
        out.extend(
            keep.into_iter()
                .map(|l| input.rows[members[l]].clone().into_owned()),
        );
    }
    if let Some(n) = q.order_limit {
        let (a, id) = (column(table, q, "a"), column(table, q, "id"));
        out.sort_by_key(|r| (int(r, a), int(r, id)));
        out.truncate(n);
    }
    out
}

/// What a query's result is checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Result row count.
    pub rows: usize,
    /// Order-independent checksum of the result rows.
    pub checksum: u64,
    /// Per-row hashes in result order, for `ORDER BY … LIMIT` queries.
    pub ordered: Option<Vec<u64>>,
}

impl Expected {
    /// Summarize the oracle's answer for `q`.
    #[must_use]
    pub fn of(q: &QuerySpec, rows: &[Tuple]) -> Self {
        Expected {
            rows: rows.len(),
            checksum: checksum(rows),
            ordered: q.order_limit.map(|_| rows.iter().map(row_hash).collect()),
        }
    }

    /// Whether `rows` is the expected result.
    #[must_use]
    pub fn matches(&self, rows: &[Tuple]) -> bool {
        let hashes: Vec<u64> = rows.iter().map(row_hash).collect();
        hashes.len() == self.rows
            && hashes.iter().fold(0u64, |s, &h| s.wrapping_add(h)) == self.checksum
            && self.ordered.as_ref().is_none_or(|want| *want == hashes)
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of one row's values, position-sensitive. Every table carries a
/// unique `id`, so equal hashes mean the same source row.
#[must_use]
pub fn row_hash(row: &Tuple) -> u64 {
    row.values().iter().fold(0u64, |h, v| {
        let bits = match v {
            Value::Int(i) | Value::Date(i) => *i as u64,
            Value::Float(f) => f.to_bits(),
            Value::Null => u64::MAX,
            Value::Str(s) => s.bytes().fold(0u64, |h, b| mix(h ^ u64::from(b))),
        };
        mix(h ^ bits)
    })
}

/// Order-independent checksum of a row set: the wrapping sum of the row
/// hashes.
#[must_use]
pub fn checksum(rows: &[Tuple]) -> u64 {
    rows.iter().fold(0u64, |s, r| s.wrapping_add(row_hash(r)))
}
