//! Logical planning and execution.
//!
//! The plan shape is fixed — the skyline operator is *holistic* (does not
//! commute with selection), so `WHERE` always applies below `SKYLINE OF`,
//! and `ORDER BY`/`LIMIT` above it:
//!
//! ```text
//! Limit → Project → Sort → Skyline(SFS) → Filter → Scan
//! ```
//!
//! Execution pushes rows up this chain into a sink
//! ([`execute_query_into`]); [`execute_query_with`] is that sink
//! collecting a table.
//!
//! Between the scan and the output the operators read one *relation*: a
//! view of the catalog table's rows — all of them, or the *selection* a
//! `WHERE` made, the ascending row numbers of its matches — or of the
//! groups a `GROUP BY` made. The selection is computed a block of
//! [`CHUNK_ROWS`] rows at a time by [`expr::Selector`], which reads a
//! `column op number` predicate off the column's resident key column
//! when a skyline has built one. The catalog's rows are borrowed all the
//! way up: a skyline takes the table's resident key columns when it
//! reads all of it and gathers them through a selection — the ranked
//! source's walk reads them through the selection without a gather —
//! `ORDER BY` sorts row numbers, and the one place a row is cloned is
//! the output, for a row that leaves. Every row loop polls the cancel
//! token at the head of each block.

use crate::ast::{AggFunc, Directive, Expr, Query, SelectItem, SkylineClause};
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::expr;
use crate::options::ExecOptions;
use crate::parser::parse;
use crate::pushdown::{
    external_skyline_with, group_cap, ranked_skyline_with, Ranked, SkylineColumns, RANKED_MARGIN,
};
use skyline_core::cardinality::expected_skyline_size;
use skyline_core::external::CHUNK_ROWS;
use skyline_exec::cancel::{poll, poll_now};
use skyline_relation::{KeyColumn, Schema, Table, Tuple, Value};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Parse and execute `sql` against `catalog`.
///
/// # Errors
/// Parse failures, plus everything [`execute_query`] reports.
pub fn execute(sql: &str, catalog: &Catalog) -> Result<Table, QueryError> {
    execute_query(&parse(sql)?, catalog)
}

/// Parse and execute `sql` under an execution contract.
///
/// # Errors
/// Parse failures, plus everything [`execute_query_with`] reports.
pub fn execute_with(sql: &str, catalog: &Catalog, opts: &ExecOptions) -> Result<Table, QueryError> {
    execute_query_with(&parse(sql)?, catalog, opts)
}

/// Execute an already-parsed query.
///
/// # Errors
/// Unknown tables or columns, and semantic violations (aggregates
/// without grouping, non-numeric skyline criteria).
pub fn execute_query(query: &Query, catalog: &Catalog) -> Result<Table, QueryError> {
    execute_query_with(query, catalog, &ExecOptions::default())
}

/// Execute an already-parsed query under an execution contract: the
/// skyline charges its working sets to the quota pool, polls the cancel
/// token, and spills to the contract's disk (see [`ExecOptions`]). The
/// rows of [`execute_query_into`], collected into a table in rank
/// order: a skyline with no `ORDER BY` over it comes back in the order
/// of the relation it read, however the engine emitted it.
///
/// # Errors
/// Everything [`execute_query`] reports, plus the contract errors:
/// [`QueryError::QuotaExceeded`] and [`QueryError::Cancelled`].
///
/// # Panics
/// On an aggregate query that validation let through without a
/// grouping clause — a parser invariant, not reachable from SQL text.
pub fn execute_query_with(
    query: &Query,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> Result<Table, QueryError> {
    let mut ranked = Vec::new();
    let schema = execute_query_into(query, catalog, opts, |rank, row| {
        ranked.push((rank, row));
        ControlFlow::Continue(())
    })?;
    // stable, so rows of one rank keep their order
    ranked.sort_by_key(|&(rank, _)| rank);
    let rows = ranked.into_iter().map(|(_, row)| row).collect();
    Table::new(schema, rows).map_err(|e| QueryError::Semantic(e.to_string()))
}

/// Execute an already-parsed query under an execution contract, pushing
/// each output row into `sink` as soon as the plan lets it go, and
/// return the output schema once the pipeline has ended.
///
/// Each row comes with its *rank*: its place in the order the plan
/// defines — the `ORDER BY` position, else the row's number in the
/// relation the top operator read (the table, the filtered rows, the
/// groups, the skyline's input). A `WHERE` numbers its matches from 0,
/// so a query answers with the ranks and rows the same query without
/// the `WHERE` gives over the pre-filtered table. Rows arrive in rank
/// order except from a streamed skyline.
///
/// How far rows stream depends on what sits above them:
/// - with nothing but `WHERE` under the output, the scan streams, and
///   `LIMIT n` ends it at the `n`-th match — no later row is cloned;
/// - a skyline with no `ORDER BY` over it streams in *emission order* —
///   presort order (see [`crate::pushdown::external_skyline_with`]) —
///   and `LIMIT n` stops the filter after its `n`-th survivor;
/// - `ORDER BY` and grouping collect first — row numbers, or the
///   groups — then emit, rows equal on every `ORDER BY` key by row
///   number; a skyline under `ORDER BY <criterion> … LIMIT k` may
///   collect from the ranked source, a walk of the criterion's sorted
///   order that stops after the `k`-th answer's lead (see
///   [`crate::pushdown::ranked_skyline_with`]).
///
/// `sink` returning [`ControlFlow::Break`] ends the pipeline as `LIMIT`
/// does; the call still returns the schema.
///
/// # Errors
/// As [`execute_query_with`]. An engine error can arrive after rows
/// were pushed.
///
/// # Panics
/// As [`execute_query_with`].
pub fn execute_query_into(
    query: &Query,
    catalog: &Catalog,
    opts: &ExecOptions,
    sink: impl FnMut(usize, Tuple) -> ControlFlow<()>,
) -> Result<Schema, QueryError> {
    run(query, catalog, opts, &|rowno| poll_row(opts, rowno), sink)
}

/// [`execute_query_into`], with `poll_scan` as the scan's cancel check
/// at the head of each block — [`poll_row`] but in tests, which trip the
/// token between two polls.
fn run(
    query: &Query,
    catalog: &Catalog,
    opts: &ExecOptions,
    poll_scan: &dyn Fn(usize) -> Result<(), QueryError>,
    sink: impl FnMut(usize, Tuple) -> ControlFlow<()>,
) -> Result<Schema, QueryError> {
    let table = catalog
        .get(&query.from)
        .ok_or_else(|| QueryError::NoSuchTable(query.from.clone()))?;
    let mut schema = table.schema().clone();
    // the predicate's columns are resolved once, not per row
    let pred = query
        .where_clause
        .as_ref()
        .map(|p| expr::bind(p, &schema))
        .transpose()?;
    let grouped = grouped(query);
    if query.having.is_some() && !grouped {
        return Err(QueryError::Semantic(
            "HAVING requires GROUP BY or aggregates".into(),
        ));
    }

    // Scan → Filter → Limit → Project, a block at a time. The WHERE
    // reads the resident key columns a skyline built.
    let filter = pred.as_ref().map(|p| p.over(table));
    if !grouped && query.skyline.is_none() && query.order_by.is_empty() {
        let mut out = Output::new(query, &schema, false, sink)?;
        let mut rank = 0;
        let first = usize::try_from(query.limit.unwrap_or(u64::MAX)).unwrap_or(usize::MAX);
        scan(table, filter.as_ref(), first, poll_scan, |i| {
            rank += 1;
            out.emit(rank - 1, Cow::Borrowed(&table.rows()[i]))
        })?;
        return Ok(out.schema);
    }

    // Filter. The relation borrows the table's rows: a WHERE keeps the
    // row numbers of its matches, and nothing below the output clones a
    // row. A GROUP BY's rows are owned here, declared first so that the
    // relation can borrow them too.
    let groups: Vec<Tuple>;
    let mut rel = match &filter {
        Some(filter) => {
            let mut selection = Vec::new();
            for start in (0..table.len()).step_by(CHUNK_ROWS) {
                poll_scan(start)?;
                filter.select(start..table.len().min(start + CHUNK_ROWS), &mut selection);
            }
            Relation::Selection(table, Arc::new(selection))
        }
        None => Relation::Table(table),
    };

    // Group by / aggregate (the paper's Fig. 8 pre-pass shape). The
    // grouped output becomes the relation the skyline operates on —
    // matching the clause order of the paper's Fig. 3.
    if grouped {
        let (out_schema, mut made) = apply_group_by(&schema, &rel, query)?;
        if let Some(having) = &query.having {
            let having = expr::bind(having, &out_schema)?;
            made.retain(|r| having.eval(r));
        }
        groups = made;
        (schema, rel) = (out_schema, Relation::Rows(&groups));
    }

    // Everything above the skyline is resolved before it runs, so its
    // first survivor can leave at once.
    let order = order_keys(query, &schema)?;
    let mut out = Output::new(query, &schema, grouped, sink)?;

    // Skyline (over the possibly-grouped relation): straight to the
    // output unless an ORDER BY has to see all of it first, in which
    // case it collects the survivors' row numbers — from the ranked
    // source when the ORDER BY ranks by a criterion under a LIMIT.
    let mut picked = match &query.skyline {
        Some(clause) if order.is_empty() => {
            apply_skyline(&rel, &schema, clause, None, opts, |i| {
                out.emit(i, Cow::Borrowed(rel.row(i)))
            })?;
            return Ok(out.schema);
        }
        Some(clause) => {
            let ranked = ranked(query, clause, rel.len());
            let mut kept = Vec::new();
            apply_skyline(&rel, &schema, clause, ranked, opts, |i| {
                kept.push(i);
                ControlFlow::Continue(())
            })?;
            kept
        }
        None => {
            let mut all = Vec::with_capacity(rel.len());
            for start in (0..rel.len()).step_by(CHUNK_ROWS) {
                poll_row(opts, start)?;
                all.extend(start..rel.len().min(start + CHUNK_ROWS));
            }
            all
        }
    };

    // Sort the row numbers; rows equal on every ORDER BY key leave by
    // row number, whichever source the skyline ran on.
    if !order.is_empty() {
        picked.sort_unstable_by(|&i, &j| {
            let (a, b) = (rel.row(i), rel.row(j));
            for &(idx, desc) in &order {
                let ord = a.get(idx).sql_cmp(b.get(idx)).unwrap_or(Ordering::Equal);
                let ord = if desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            i.cmp(&j)
        });
    }
    for (rank, i) in picked.into_iter().enumerate() {
        poll_row(opts, rank)?;
        if out.emit(rank, Cow::Borrowed(rel.row(i))).is_break() {
            break;
        }
    }
    Ok(out.schema)
}

/// Scan → Filter: hand `f` the number of each row of `table` that
/// `filter` keeps — every row without one — in table order, until `f`
/// breaks. The rows are read a block at a time: the first of `first`
/// rows — a query's `LIMIT`, so `LIMIT 3` tests three rows before its
/// first one leaves — each next one twice as long, up to [`CHUNK_ROWS`],
/// and none across a multiple of [`CHUNK_ROWS`]. `poll` is the cancel
/// check, called with the row number at the head of each block.
fn scan(
    table: &Table,
    filter: Option<&expr::Selector<'_, '_, '_>>,
    first: usize,
    poll: &dyn Fn(usize) -> Result<(), QueryError>,
    mut f: impl FnMut(usize) -> ControlFlow<()>,
) -> Result<(), QueryError> {
    let mut kept = Vec::new();
    let (mut start, mut len) = (0, first.clamp(1, CHUNK_ROWS));
    while start < table.len() {
        poll(start)?;
        // no block crosses a multiple of CHUNK_ROWS, where polls check
        let aligned = (start / CHUNK_ROWS + 1) * CHUNK_ROWS;
        let block = start..table.len().min(start + len).min(aligned);
        (start, len) = (block.end, (2 * len).min(CHUNK_ROWS));
        let flow = match filter {
            Some(filter) => {
                kept.clear();
                filter.select(block, &mut kept);
                kept.iter().try_for_each(|&i| f(i))
            }
            None => block.into_iter().try_for_each(&mut f),
        };
        if flow.is_break() {
            break;
        }
    }
    Ok(())
}

/// The cancel check of a row loop of the executor at its row `rowno`:
/// it polls the token at every multiple of [`CHUNK_ROWS`].
fn poll_row(opts: &ExecOptions, rowno: usize) -> Result<(), QueryError> {
    poll(opts.cancel.as_ref(), rowno as u64).map_err(QueryError::from_exec)
}

/// The relation between the FROM table and the output: what every
/// operator above the scan reads, row `i` being [`Relation::row`]. Its
/// rows are borrowed, never copied; a row is cloned only when it leaves
/// through [`Output::emit`].
enum Relation<'r> {
    /// The whole FROM table, whose resident key columns a skyline shares.
    Table(&'r Table),
    /// The FROM table's rows a `WHERE` kept: their row numbers,
    /// ascending, shared with the ranked source's walk.
    Selection(&'r Table, Arc<Vec<usize>>),
    /// The groups a `GROUP BY` made and its `HAVING` kept.
    Rows(&'r [Tuple]),
}

impl Relation<'_> {
    fn len(&self) -> usize {
        match self {
            Relation::Table(t) => t.len(),
            Relation::Selection(_, selection) => selection.len(),
            Relation::Rows(rows) => rows.len(),
        }
    }

    fn row(&self, i: usize) -> &Tuple {
        match self {
            Relation::Table(t) => &t.rows()[i],
            Relation::Selection(t, selection) => &t.rows()[selection[i]],
            Relation::Rows(rows) => &rows[i],
        }
    }

    /// The key columns at positions `columns`: the table's resident ones
    /// for a whole table; gathered from them through a selection; built
    /// for this query (same type, same builder) for the groups, and for
    /// a selection where a resident column holds no values — the `WHERE`
    /// may have dropped the row that stopped it, and a row that did not
    /// go is named by its number among the matches.
    fn key_columns(
        &self,
        columns: &[usize],
        mut poll: impl FnMut(u64) -> Result<(), QueryError>,
    ) -> Result<Vec<Arc<KeyColumn>>, QueryError> {
        match self {
            Relation::Table(t) => t.key_columns(columns, poll),
            Relation::Rows(rows) => Ok(KeyColumn::build_all(rows, columns, poll)?
                .into_iter()
                .map(Arc::new)
                .collect()),
            Relation::Selection(t, selection) => {
                let mut out = t.key_columns(columns, &mut poll)?;
                let mut holed = Vec::new();
                for (k, column) in out.iter_mut().enumerate() {
                    match column.gather(selection) {
                        Some(gathered) => *column = Arc::new(gathered),
                        None => holed.push(k),
                    }
                }
                if !holed.is_empty() {
                    let at: Vec<usize> = holed.iter().map(|&k| columns[k]).collect();
                    let built = KeyColumn::build_all(&self.rows(), &at, poll)?;
                    for (k, column) in holed.into_iter().zip(built) {
                        out[k] = Arc::new(column);
                    }
                }
                Ok(out)
            }
        }
    }

    /// The rows, in order, as references.
    fn rows(&self) -> Vec<&Tuple> {
        (0..self.len()).map(|i| self.row(i)).collect()
    }

    /// [`group_ids`] of the relation's rows.
    fn group_ids(&self, columns: &[usize]) -> Vec<usize> {
        match self {
            Relation::Table(t) => group_ids(t.rows(), columns),
            Relation::Selection(..) => group_ids(&self.rows(), columns),
            Relation::Rows(rows) => group_ids(rows, columns),
        }
    }
}

/// Whether `query` groups: a `GROUP BY`, or an aggregate over the whole
/// input as one group.
fn grouped(query: &Query) -> bool {
    !query.group_by.is_empty()
        || query
            .select
            .iter()
            .any(|i| matches!(i, SelectItem::Aggregate { .. }))
}

/// The `ORDER BY` columns of `query` in `schema`, each with whether it
/// descends.
fn order_keys(query: &Query, schema: &Schema) -> Result<Vec<(usize, bool)>, QueryError> {
    query
        .order_by
        .iter()
        .map(|item| {
            schema
                .index_of(&item.column)
                .map(|idx| (idx, item.desc))
                .ok_or_else(|| QueryError::NoSuchColumn(item.column.clone()))
        })
        .collect()
}

/// The top of the plan — `LIMIT`, then the projection — in front of the
/// caller's sink.
struct Output<F> {
    schema: Schema,
    /// Input columns of the select list; `None` passes rows whole.
    project: Option<Vec<usize>>,
    /// Rows `LIMIT` still lets through.
    left: u64,
    sink: F,
}

impl<F: FnMut(usize, Tuple) -> ControlFlow<()>> Output<F> {
    /// Resolve the select list against `schema`; grouping already
    /// produced the output shape.
    fn new(query: &Query, schema: &Schema, grouped: bool, sink: F) -> Result<Self, QueryError> {
        let left = query.limit.unwrap_or(u64::MAX);
        if query.select.is_empty() || grouped {
            return Ok(Output {
                schema: schema.clone(),
                project: None,
                left,
                sink,
            });
        }
        let mut indices = Vec::with_capacity(query.select.len());
        let mut out_cols = Vec::with_capacity(query.select.len());
        for item in &query.select {
            let SelectItem::Column { name, .. } = item else {
                unreachable!("aggregates imply grouping");
            };
            let idx = schema
                .index_of(name)
                .ok_or_else(|| QueryError::NoSuchColumn(name.clone()))?;
            indices.push(idx);
            out_cols.push(skyline_relation::Column::new(
                item.output_name(),
                schema.column(idx).ty,
            ));
        }
        Ok(Output {
            schema: Schema::new(out_cols).map_err(|e| QueryError::Semantic(e.to_string()))?,
            project: Some(indices),
            left,
            sink,
        })
    }

    /// Project one row into the sink. `Break` once `LIMIT` is met — on
    /// the last row it lets through, so nothing computes one more — or
    /// when the sink says so.
    fn emit(&mut self, rank: usize, row: Cow<'_, Tuple>) -> ControlFlow<()> {
        if self.left == 0 {
            return ControlFlow::Break(());
        }
        self.left -= 1;
        let row = match &self.project {
            Some(indices) => row.project(indices),
            None => row.into_owned(),
        };
        (self.sink)(rank, row)?;
        if self.left == 0 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Evaluate GROUP BY + aggregates: returns the grouped schema and rows in
/// select-list order. Every plain select column must appear in GROUP BY
/// (standard SQL restriction); with no GROUP BY, the whole input is one
/// group.
fn apply_group_by(
    schema: &skyline_relation::Schema,
    rel: &Relation<'_>,
    query: &Query,
) -> Result<(skyline_relation::Schema, Vec<Tuple>), QueryError> {
    use skyline_relation::{Column, ColumnType, Schema};
    if query.select.is_empty() {
        return Err(QueryError::Semantic(
            "GROUP BY requires an explicit select list".into(),
        ));
    }
    let mut group_idx = Vec::with_capacity(query.group_by.len());
    for g in &query.group_by {
        group_idx.push(
            schema
                .index_of(g)
                .ok_or_else(|| QueryError::NoSuchColumn(g.clone()))?,
        );
    }
    // resolve select items
    enum Out {
        Group(usize),
        Agg(AggFunc, usize),
    }
    let mut outs = Vec::with_capacity(query.select.len());
    let mut out_cols = Vec::with_capacity(query.select.len());
    for item in &query.select {
        match item {
            SelectItem::Column { name, .. } => {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| QueryError::NoSuchColumn(name.clone()))?;
                if !group_idx.contains(&idx) {
                    return Err(QueryError::Semantic(format!(
                        "column {name} must appear in GROUP BY or inside an aggregate"
                    )));
                }
                outs.push(Out::Group(idx));
                out_cols.push(Column::new(item.output_name(), schema.column(idx).ty));
            }
            SelectItem::Aggregate { func, column, .. } => {
                let idx = schema
                    .index_of(column)
                    .ok_or_else(|| QueryError::NoSuchColumn(column.clone()))?;
                let ty = match func {
                    AggFunc::Count => ColumnType::Int,
                    AggFunc::Avg => ColumnType::Float,
                    _ => schema.column(idx).ty,
                };
                outs.push(Out::Agg(*func, idx));
                out_cols.push(Column::new(item.output_name(), ty));
            }
        }
    }
    let groups = group_members(&rel.group_ids(&group_idx));
    let agg_value = |func: AggFunc, idx: usize, members: &[usize]| -> Result<Value, QueryError> {
        let cells = || members.iter().map(|&i| rel.row(i).get(idx));
        if func == AggFunc::Count {
            return Ok(Value::Int(cells().filter(|v| !v.is_null()).count() as i64));
        }
        let nums: Vec<f64> = cells().filter_map(Value::as_f64).collect();
        if nums.is_empty() {
            return Ok(Value::Null);
        }
        // An integer group is aggregated in i64: f64 is exact only up
        // to 2^53, and a sum past i64 is an error, not a saturated value.
        if cells().all(|v| v.as_i64().is_some() || v.is_null()) {
            let mut ints = cells().filter_map(Value::as_i64);
            match func {
                AggFunc::Max => return Ok(ints.max().map_or(Value::Null, Value::Int)),
                AggFunc::Min => return Ok(ints.min().map_or(Value::Null, Value::Int)),
                AggFunc::Sum => {
                    return ints
                        .try_fold(0i64, i64::checked_add)
                        .map(Value::Int)
                        .ok_or_else(|| {
                            QueryError::Semantic(format!(
                                "SUM({}) overflows a 64-bit integer",
                                schema.column(idx).name
                            ))
                        })
                }
                AggFunc::Avg | AggFunc::Count => {}
            }
        }
        Ok(match func {
            AggFunc::Max => Value::Float(nums.iter().cloned().fold(f64::NEG_INFINITY, f64::max)),
            AggFunc::Min => Value::Float(nums.iter().cloned().fold(f64::INFINITY, f64::min)),
            AggFunc::Sum => Value::Float(nums.iter().sum()),
            AggFunc::Avg => Value::Float(nums.iter().sum::<f64>() / nums.len() as f64),
            AggFunc::Count => unreachable!("handled above"),
        })
    };
    let mut out_rows = Vec::with_capacity(groups.len());
    for members in &groups {
        let mut vals = Vec::with_capacity(outs.len());
        for out in &outs {
            match out {
                Out::Group(idx) => vals.push(rel.row(members[0]).get(*idx).clone()),
                Out::Agg(func, idx) => vals.push(agg_value(*func, *idx, members)?),
            }
        }
        out_rows.push(Tuple::new(vals));
    }
    let out_schema = Schema::new(out_cols).map_err(|e| QueryError::Semantic(e.to_string()))?;
    Ok((out_schema, out_rows))
}

/// One cell as a grouping key, equal exactly when the values are equal
/// under [`Value::sql_cmp`]: numbers by value across `Int`/`Float`/`Date`
/// (`-0.0` is `0.0`), strings by their text, `NULL` only to `NULL`.
#[derive(PartialEq, Eq, Hash)]
enum Cell<'a> {
    Null,
    Num(u64),
    Str(&'a str),
}

impl<'a> Cell<'a> {
    /// `None` for NaN, which equals nothing.
    fn of(v: &'a Value) -> Option<Self> {
        match v {
            Value::Null => Some(Cell::Null),
            Value::Str(s) => Some(Cell::Str(s)),
            // adding +0.0 turns -0.0 into 0.0 and leaves the rest alone
            v => v
                .as_f64()
                .filter(|x| !x.is_nan())
                .map(|x| Cell::Num((x + 0.0).to_bits())),
        }
    }
}

/// Number the rows by their values at `columns`, groups in order of
/// first appearance: two rows share a group when every column compares
/// equal under [`Value::sql_cmp`] — `DIFF`'s equality in the `EXCEPT`
/// rewrite — so a row holding a NaN is a group of its own.
pub(crate) fn group_ids<R: Borrow<Tuple>>(rows: &[R], columns: &[usize]) -> Vec<usize> {
    let k = columns.len();
    let cells: Vec<Option<Cell<'_>>> = rows
        .iter()
        .flat_map(|r| columns.iter().map(|&c| Cell::of(r.borrow().get(c))))
        .collect();
    let mut index: HashMap<&[Option<Cell<'_>>], usize, BuildHasherDefault<CellHasher>> =
        HashMap::default();
    let mut groups = 0;
    (0..rows.len())
        .map(|i| {
            let key = &cells[i * k..(i + 1) * k];
            let g = if key.contains(&None) {
                groups
            } else {
                *index.entry(key).or_insert(groups)
            };
            groups += usize::from(g == groups);
            g
        })
        .collect()
}

/// The hash [`group_ids`] keys its index with: FxHash's rotate, xor and
/// multiply per 8-byte word, then MurmurHash3's finalizer, which carries
/// the high bits a small number's f64 holds down into the low bits the
/// table indexes by. The default SipHash took ≈85 ns a row; this takes
/// a few. It resists no chosen collisions, which a query's own values do
/// not need.
#[derive(Default)]
struct CellHasher(u64);

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }
}

/// The members of each group [`group_ids`] numbered, ascending.
fn group_members(ids: &[usize]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, &g) in ids.iter().enumerate() {
        if g == groups.len() {
            groups.push(Vec::new());
        }
        groups[g].push(i);
    }
    groups
}

/// Whether the skyline `clause` under `query`'s `ORDER BY … LIMIT k`, over
/// a relation of `rows` rows, runs on the ranked source (DESIGN §16.4):
/// no `DIFF`; the `ORDER BY` starts with one of the clause's criteria in
/// its preferred direction (`MIN` ascending, `MAX` descending);
/// and `k ≥ 1` with `RANKED_MARGIN · k` within the §6 estimate. Anything
/// else takes the filter and presort — as does a ranked query whose walk
/// gives up ([`ranked_skyline_with`]).
fn ranked(query: &Query, clause: &SkylineClause, rows: usize) -> Option<Ranked> {
    let k = usize::try_from(query.limit?).ok().filter(|&k| k >= 1)?;
    let first = query.order_by.first()?;
    let items = &clause.items;
    if items.is_empty() || items.iter().any(|i| i.directive == Directive::Diff) {
        return None;
    }
    let lead = items.iter().position(|i| {
        i.column.eq_ignore_ascii_case(&first.column)
            && (i.directive == Directive::Max) == first.desc
    })?;
    let fits = RANKED_MARGIN * k as f64 <= expected_skyline_size(rows, items.len());
    fits.then_some(Ranked { lead, k })
}

/// The skyline of `rel`, each survivor's row number handed to `emit` in
/// the paged engine's emission order — lead order from the ranked source
/// when `ranked` is set; `Break` stops it.
fn apply_skyline(
    rel: &Relation<'_>,
    schema: &skyline_relation::Schema,
    clause: &SkylineClause,
    ranked: Option<Ranked>,
    opts: &ExecOptions,
    emit: impl FnMut(usize) -> ControlFlow<()>,
) -> Result<(), QueryError> {
    // criterion columns with their direction, and the DIFF columns
    let (mut crit, mut min, mut diff) = (Vec::new(), Vec::new(), Vec::new());
    for item in &clause.items {
        let idx = schema
            .index_of(&item.column)
            .ok_or_else(|| QueryError::NoSuchColumn(item.column.clone()))?;
        match item.directive {
            Directive::Min | Directive::Max => {
                crit.push(idx);
                min.push(item.directive == Directive::Min);
            }
            Directive::Diff => diff.push(idx),
        }
    }
    if crit.is_empty() {
        return Err(QueryError::Semantic(
            "SKYLINE OF needs at least one MIN/MAX criterion".into(),
        ));
    }
    let poll = |rowno| poll_now(opts.cancel.as_ref(), rowno).map_err(QueryError::from_exec);
    // The walk reads a selection through the table's resident columns
    // when every one holds values: no gather.
    let mut selection = None;
    let columns = match (ranked, rel) {
        (Some(_), Relation::Selection(t, rows)) => {
            let resident = t.key_columns(&crit, poll)?;
            if resident.iter().all(|c| c.first_non_numeric().is_none()) {
                selection = Some(Arc::clone(rows));
                resident
            } else {
                rel.key_columns(&crit, poll)?
            }
        }
        _ => rel.key_columns(&crit, poll)?,
    };
    // the lowest offending row, the first criterion in clause order on a
    // tie — the value a row-at-a-time scan would have met first
    let offender = columns
        .iter()
        .zip(&crit)
        .filter_map(|(c, &idx)| Some((c.first_non_numeric()?, idx)))
        .min_by_key(|&(rowno, _)| rowno);
    if let Some((rowno, idx)) = offender {
        return Err(QueryError::Semantic(format!(
            "row {rowno}: skyline column {} is not numeric",
            schema.column(idx).name
        )));
    }
    let groups = (!diff.is_empty()).then(|| rel.group_ids(&diff));
    let cols = SkylineColumns::new(columns, &min, groups);
    match ranked {
        Some(ranked) => ranked_skyline_with(cols, selection, ranked, opts, emit),
        None => external_skyline_with(cols, opts, emit),
    }
}

/// Render the logical plan for `sql`, annotated with the skyline
/// cardinality estimate the optimizer would use.
///
/// # Errors
/// Parse failures and unknown tables or columns.
pub fn explain(sql: &str, catalog: &Catalog) -> Result<String, QueryError> {
    let q = parse(sql)?;
    let table = catalog
        .get(&q.from)
        .ok_or_else(|| QueryError::NoSuchTable(q.from.clone()))?;
    let n = table.len();
    let mut lines: Vec<String> = Vec::new();
    if let Some(limit) = q.limit {
        lines.push(format!("Limit({limit})"));
    }
    if !q.select.is_empty() {
        let items: Vec<String> = q.select.iter().map(SelectItem::output_name).collect();
        lines.push(format!("Project({})", items.join(", ")));
    }
    if !q.order_by.is_empty() {
        let items: Vec<String> = q
            .order_by
            .iter()
            .map(|o| format!("{} {}", o.column, if o.desc { "DESC" } else { "ASC" }))
            .collect();
        lines.push(format!("Sort({})", items.join(", ")));
    }
    if let Some(sky) = &q.skyline {
        let items: Vec<String> = sky
            .items
            .iter()
            .map(|i| {
                format!(
                    "{} {}",
                    i.column,
                    match i.directive {
                        Directive::Min => "MIN",
                        Directive::Max => "MAX",
                        Directive::Diff => "DIFF",
                    }
                )
            })
            .collect();
        let d = sky
            .items
            .iter()
            .filter(|i| i.directive != Directive::Diff)
            .count();
        // A DIFF answer is one skyline per group: Σ_g E(n_g, d) over the
        // groups of the table's rows. A grouped relation is not built
        // here, so its DIFF columns are not looked up.
        let diff: Vec<usize> = if grouped(&q) {
            Vec::new()
        } else {
            sky.items
                .iter()
                .filter(|i| i.directive == Directive::Diff)
                .map(|i| {
                    table
                        .schema()
                        .index_of(&i.column)
                        .ok_or_else(|| QueryError::NoSuchColumn(i.column.clone()))
                })
                .collect::<Result<_, _>>()?
        };
        let est = match d {
            0 => 0.0,
            _ if diff.is_empty() => expected_skyline_size(n, d),
            _ => group_members(&group_ids(table.rows(), &diff))
                .iter()
                .map(|members| expected_skyline_size(members.len(), d))
                .sum(),
        };
        // The source the executor would pick, decided here on the
        // scanned table's rows. What can overrule it at run time goes on
        // the lines below the node: the walk's give-up rule, and a
        // relation other than the scanned table.
        let (source, give_up) = match ranked(&q, sky, n) {
            Some(r) => {
                let lead = &q.order_by[0];
                let dir = if lead.desc { "DESC" } else { "ASC" };
                let source = format!(
                    "ranked by {} {dir}, LIMIT {}: walk → SFS, \
                     est≈{est:.0} rows ≥ {RANKED_MARGIN}·{}",
                    lead.column, r.k, r.k
                );
                let mut give_up = format!(
                    "presort if E(rows fed, {d}) passes {RANKED_MARGIN}·(answers + 1) before \
                     the {} answer, or a lead value holds over {} rows",
                    ordinal(r.k),
                    group_cap(n)
                );
                if q.where_clause.is_some() {
                    give_up.push_str(", or the walk passes as many rows as WHERE keeps");
                }
                (source, Some(give_up))
            }
            None => (
                format!("presort=entropy: filter → presort → SFS, est≈{est:.0} rows"),
                None,
            ),
        };
        let read = match (q.where_clause.is_some(), grouped(&q)) {
            (true, true) => Some("the groups of the rows WHERE keeps"),
            (true, false) => Some("the rows WHERE keeps"),
            (false, true) => Some("the groups"),
            (false, false) => None,
        };
        let read = read.map(|read| {
            format!("estimate and source taken on the {n} scanned rows; the run reads {read}")
        });
        let mut node = format!("Skyline[SFS, {source}]({})", items.join(", "));
        for note in give_up.into_iter().chain(read) {
            let _ = write!(node, "\n{note}");
        }
        lines.push(node);
    }
    if let Some(h) = &q.having {
        lines.push(format!("Having({})", render_expr(h)));
    }
    if !q.group_by.is_empty() {
        lines.push(format!("GroupBy({})", q.group_by.join(", ")));
    }
    if let Some(w) = &q.where_clause {
        lines.push(format!("Filter({})", render_expr(w)));
    }
    lines.push(format!("Scan({}, {n} rows)", q.from));

    // a node's own lines after its first are notes, under its children's
    // indent
    let mut out = String::new();
    for (depth, node) in lines.iter().enumerate() {
        let mut node = node.lines();
        let head = node.next().unwrap_or_default();
        let indent = "   ".repeat(depth);
        if depth == 0 {
            let _ = writeln!(out, "{head}");
        } else {
            let _ = writeln!(out, "{}└─ {head}", &indent[3..]);
        }
        for note in node {
            let _ = writeln!(out, "{indent}· {note}");
        }
    }
    Ok(out)
}

/// `k` as an English ordinal: 1st, 2nd, 3rd, 4th, …, 11th, 21st.
fn ordinal(k: usize) -> String {
    let suffix = match (k % 10, k % 100) {
        (_, 11..=13) => "th",
        (1, _) => "st",
        (2, _) => "nd",
        (3, _) => "rd",
        _ => "th",
    };
    format!("{k}{suffix}")
}

fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Column(c) => c.clone(),
        Expr::Literal(Value::Str(s)) => format!("'{s}'"),
        Expr::Literal(v) => v.to_string(),
        Expr::Cmp { left, op, right } => {
            format!("{} {op} {}", render_expr(left), render_expr(right))
        }
        Expr::And(a, b) => format!("({} AND {})", render_expr(a), render_expr(b)),
        Expr::Or(a, b) => format!("({} OR {})", render_expr(a), render_expr(b)),
        Expr::Not(x) => format!("NOT {}", render_expr(x)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_relation::samples::{good_eats, GOOD_EATS_SKYLINE};

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.register("GoodEats", good_eats());
        c
    }

    #[test]
    fn figure_2_skyline_of_figure_1() {
        let out = execute(
            "SELECT * FROM GoodEats SKYLINE OF S MAX, F MAX, D MAX, price MIN",
            &cat(),
        )
        .unwrap();
        let names: Vec<&str> = out
            .rows()
            .iter()
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        assert_eq!(names, GOOD_EATS_SKYLINE);
    }

    #[test]
    fn removing_price_drops_fenton() {
        // paper: "If we were to remove price as one of our criteria, then
        // the Fenton & Pickle should be eliminated too."
        let out = execute(
            "SELECT restaurant FROM GoodEats SKYLINE OF S MAX, F MAX, D MAX",
            &cat(),
        )
        .unwrap();
        let names: Vec<&str> = out
            .rows()
            .iter()
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["Summer Moon", "Zakopane", "Yamanote"]);
    }

    #[test]
    fn where_below_skyline_changes_result() {
        // Skyline is holistic: filtering first genuinely changes the
        // answer. Without Zakopane, the Brearton Grill re-enters.
        let out = execute(
            "SELECT restaurant FROM GoodEats WHERE restaurant <> 'Zakopane' \
             SKYLINE OF S MAX, F MAX, D MAX, price MIN",
            &cat(),
        )
        .unwrap();
        let names: Vec<&str> = out
            .rows()
            .iter()
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        assert!(names.contains(&"Brearton Grill"));
    }

    #[test]
    fn order_by_and_limit() {
        let out = execute(
            "SELECT restaurant, price FROM GoodEats \
             SKYLINE OF S MAX, F MAX, D MAX, price MIN \
             ORDER BY price ASC LIMIT 2",
            &cat(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0].get(0).as_str(), Some("Fenton & Pickle"));
        assert_eq!(out.rows()[1].get(0).as_str(), Some("Summer Moon"));
    }

    #[test]
    fn diff_groups() {
        use skyline_relation::{tuple, ColumnType, Schema, Table};
        let schema = Schema::of(&[
            ("name", ColumnType::Str),
            ("cuisine", ColumnType::Str),
            ("food", ColumnType::Int),
        ]);
        let t = Table::new(
            schema,
            vec![
                tuple!["a", "thai", 20],
                tuple!["b", "thai", 25],
                tuple!["c", "bbq", 10],
            ],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.register("r", t);
        let out = execute("SELECT name FROM r SKYLINE OF food MAX, cuisine DIFF", &c).unwrap();
        let names: Vec<&str> = out
            .rows()
            .iter()
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn semantic_errors() {
        assert!(matches!(
            execute("SELECT * FROM nope SKYLINE OF a", &cat()),
            Err(QueryError::NoSuchTable(_))
        ));
        assert!(matches!(
            execute("SELECT * FROM GoodEats SKYLINE OF bogus MAX", &cat()),
            Err(QueryError::NoSuchColumn(_))
        ));
        assert!(matches!(
            execute("SELECT * FROM GoodEats SKYLINE OF restaurant MAX", &cat()),
            Err(QueryError::Semantic(_))
        ));
        assert!(matches!(
            execute("SELECT * FROM GoodEats SKYLINE OF restaurant DIFF", &cat()),
            Err(QueryError::Semantic(_))
        ));
    }

    #[test]
    fn explain_renders_plan() {
        let plan = explain(
            "SELECT restaurant FROM GoodEats WHERE price < 60 \
             SKYLINE OF S MAX, price MIN ORDER BY price LIMIT 3",
            &cat(),
        )
        .unwrap();
        assert!(plan.contains("Limit(3)"));
        assert!(plan.contains("Skyline[SFS"));
        assert!(plan.contains("Filter(price < 60)"));
        assert!(plan.contains("Scan(GoodEats, 6 rows)"));
        // the skyline node is annotated with a cardinality estimate
        assert!(plan.contains("est≈"));
    }

    #[test]
    fn explain_estimates_a_diff_clause_per_group() {
        use skyline_relation::{tuple, ColumnType, Schema};
        // eight groups of 1 000 rows: 8 · E(1 000, 2) = 8 · H_1000 ≈ 60,
        // where one skyline of all 8 000 would be H_8000 ≈ 10
        let rows = (0..8_000i64)
            .map(|i| tuple![i % 8, (i * 37) % 1_009, (i * 53) % 997])
            .collect();
        let schema = Schema::of(&[
            ("g", ColumnType::Int),
            ("x", ColumnType::Int),
            ("y", ColumnType::Int),
        ]);
        let mut c = Catalog::new();
        c.register("t", Table::new(schema, rows).unwrap());
        let est = |sql: &str| {
            let plan = explain(sql, &c).unwrap();
            let at = plan.find("est≈").unwrap() + "est≈".len();
            plan[at..].split(' ').next().unwrap().to_string()
        };
        assert_eq!(est("SELECT * FROM t SKYLINE OF x MAX, y MIN"), "10");
        assert_eq!(est("SELECT * FROM t SKYLINE OF x MAX, g DIFF, y MIN"), "60");
        assert_eq!(
            explain("SELECT * FROM t SKYLINE OF x MAX, h DIFF", &c).unwrap_err(),
            QueryError::NoSuchColumn("h".into())
        );
        // a grouped relation's DIFF columns are its own, not the table's
        assert!(explain(
            "SELECT g, MAX(x) AS m FROM t GROUP BY g SKYLINE OF m MAX, g DIFF",
            &c
        )
        .is_ok());
    }

    #[test]
    fn explain_names_the_skyline_source_and_the_estimate_that_decided() {
        use skyline_relation::{tuple, ColumnType, Schema};
        // 8 000 rows, two criteria: E(8 000, 2) = H_8000 ≈ 9.6, so a
        // LIMIT of 2 is ranked (4·2 ≤ 9.6) and one of 3 is not
        let rows = (0..8_000i64)
            .map(|i| tuple![i % 8, (i * 37) % 8_009, (i * 53) % 997])
            .collect();
        let schema = Schema::of(&[
            ("g", ColumnType::Int),
            ("x", ColumnType::Int),
            ("y", ColumnType::Int),
        ]);
        let mut c = Catalog::new();
        c.register("t", Table::new(schema, rows).unwrap());
        let skyline_line = |sql: &str| {
            let plan = explain(sql, &c).unwrap();
            let line = plan.lines().find(|l| l.contains("Skyline[")).unwrap();
            line.trim_start_matches(['└', '─', ' ']).to_string()
        };
        let sky = "SELECT * FROM t SKYLINE OF x MAX, y MIN";
        assert_eq!(
            skyline_line(&format!("{sky} ORDER BY x DESC, y LIMIT 2")),
            "Skyline[SFS, ranked by x DESC, LIMIT 2: walk → SFS, \
             est≈10 rows ≥ 4·2](x MAX, y MIN)"
        );
        assert!(skyline_line(&format!("{sky} ORDER BY y ASC LIMIT 1")).contains("ranked by y ASC"));
        let presorted =
            "Skyline[SFS, presort=entropy: filter → presort → SFS, est≈10 rows](x MAX, y MIN)";
        for tail in [
            "",
            " LIMIT 2",
            " ORDER BY x DESC",
            " ORDER BY x DESC LIMIT 3",
            " ORDER BY x ASC LIMIT 2",
            " ORDER BY g, x DESC LIMIT 1",
            " ORDER BY x DESC LIMIT 0",
        ] {
            assert_eq!(skyline_line(&format!("{sky}{tail}")), presorted, "{tail}");
        }
        assert_eq!(
            skyline_line("SELECT * FROM t SKYLINE OF x MAX, g DIFF, y MIN ORDER BY x DESC LIMIT 1"),
            "Skyline[SFS, presort=entropy: filter → presort → SFS, est≈60 rows](x MAX, g DIFF, y MIN)"
        );
    }

    /// The lines under the skyline node name what can overrule it at run
    /// time: the give-up rule under a ranked source, and a relation other
    /// than the scanned table under `WHERE` or `GROUP BY`. A plain query
    /// has none, and a `DIFF` clause reads like every other presort.
    #[test]
    fn explain_notes_what_can_overrule_the_skyline_source_at_run_time() {
        use skyline_relation::{tuple, ColumnType, Schema};
        let rows = (0..8_000i64)
            .map(|i| tuple![i % 8, (i * 37) % 8_009, (i * 53) % 997])
            .collect();
        let schema = Schema::of(&[
            ("g", ColumnType::Int),
            ("x", ColumnType::Int),
            ("y", ColumnType::Int),
        ]);
        let mut c = Catalog::new();
        c.register("t", Table::new(schema, rows).unwrap());
        // the node's line and the notes below it, without the tree's marks
        let node = |sql: &str| -> Vec<String> {
            let plan = explain(sql, &c).unwrap();
            let mut lines = plan.lines().skip_while(|l| !l.contains("Skyline["));
            let head = lines.next().unwrap().trim_start_matches(['└', '─', ' ']);
            let notes = lines.map_while(|l| l.trim_start().strip_prefix("· "));
            std::iter::once(head)
                .chain(notes)
                .map(String::from)
                .collect()
        };
        let sky = "SELECT * FROM t SKYLINE OF x MAX, y MIN";
        assert_eq!(
            node(&format!("{sky} ORDER BY x DESC LIMIT 2")),
            [
                "Skyline[SFS, ranked by x DESC, LIMIT 2: walk → SFS, \
                 est≈10 rows ≥ 4·2](x MAX, y MIN)",
                "presort if E(rows fed, 2) passes 4·(answers + 1) before the 2nd answer, \
                 or a lead value holds over 64 rows",
            ]
        );
        assert_eq!(
            node(&format!("{sky} ORDER BY y LIMIT 1"))[1],
            "presort if E(rows fed, 2) passes 4·(answers + 1) before the 1st answer, \
             or a lead value holds over 64 rows"
        );
        let presort =
            "Skyline[SFS, presort=entropy: filter → presort → SFS, est≈10 rows](x MAX, y MIN)";
        assert_eq!(node(sky), [presort]);
        let taken = "estimate and source taken on the 8000 scanned rows; the run reads";
        assert_eq!(
            node("SELECT * FROM t WHERE x < 100 SKYLINE OF x MAX, y MIN"),
            [presort.to_string(), format!("{taken} the rows WHERE keeps")]
        );
        let grouped = node("SELECT g, MAX(x) AS m FROM t GROUP BY g SKYLINE OF m MAX");
        assert_eq!(grouped[1], format!("{taken} the groups"));
        let both = node("SELECT g, MAX(x) AS m FROM t WHERE y > 3 GROUP BY g SKYLINE OF m MAX");
        assert_eq!(
            both[1],
            format!("{taken} the groups of the rows WHERE keeps")
        );
        // ranked under a WHERE: both notes, the give-up rule first
        let ranked =
            node("SELECT * FROM t WHERE x < 100 SKYLINE OF x MAX, y MIN ORDER BY x DESC LIMIT 2");
        assert_eq!(ranked.len(), 3, "{ranked:?}");
        assert!(ranked[1].starts_with("presort if") && ranked[2].starts_with(taken));
        // DIFF: the filter rides it like any other clause, no note
        assert_eq!(
            node("SELECT * FROM t SKYLINE OF x MAX, g DIFF"),
            ["Skyline[SFS, presort=entropy: filter → presort → SFS, est≈8 rows](x MAX, g DIFF)"]
        );
        let ordinals: Vec<String> = [1, 2, 3, 4, 11, 12, 13, 21, 22, 23, 101, 111]
            .map(ordinal)
            .into();
        assert_eq!(
            ordinals,
            [
                "1st", "2nd", "3rd", "4th", "11th", "12th", "13th", "21st", "22nd", "23rd",
                "101st", "111th"
            ]
        );
    }

    #[test]
    fn figure_8_group_max_reduction() {
        use skyline_relation::{tuple, ColumnType, Schema, Table};
        // small-domain table: GROUP BY a1,a2 with MAX(a3) collapses each
        // group to its best a3 — the dimensional-reduction pre-pass
        let schema = Schema::of(&[
            ("a1", ColumnType::Int),
            ("a2", ColumnType::Int),
            ("a3", ColumnType::Int),
        ]);
        let t = Table::new(
            schema,
            vec![
                tuple![1, 1, 5],
                tuple![1, 1, 9],
                tuple![1, 2, 3],
                tuple![2, 1, 7],
                tuple![2, 1, 2],
            ],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.register("R", t);
        let out = execute(
            "SELECT a1, a2, MAX(a3) AS a3 FROM R GROUP BY a1, a2              ORDER BY a1 DESC, a2 DESC",
            &c,
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema().index_of("a3"), Some(2));
        let rows: Vec<Vec<i64>> = out
            .rows()
            .iter()
            .map(|r| r.values().iter().map(|v| v.as_i64().unwrap()).collect())
            .collect();
        assert_eq!(rows, vec![vec![2, 1, 7], vec![1, 2, 3], vec![1, 1, 9]]);

        // and the skyline of the reduced relation equals the skyline of
        // the full one (the optimization's correctness claim)
        let reduced_sky = execute(
            "SELECT a1, a2, MAX(a3) AS a3 FROM R GROUP BY a1, a2              SKYLINE OF a1 MAX, a2 MAX, a3 MAX",
            &c,
        )
        .unwrap();
        let full_sky = execute("SELECT * FROM R SKYLINE OF a1, a2, a3", &c).unwrap();
        let key = |t: &Table| {
            let mut v: Vec<Vec<i64>> = t
                .rows()
                .iter()
                .map(|r| r.values().iter().map(|x| x.as_i64().unwrap()).collect())
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(&reduced_sky), key(&full_sky));
    }

    #[test]
    fn aggregates_without_group_by_collapse_to_one_row() {
        let out = execute(
            "SELECT COUNT(price) AS n, MIN(price) AS lo, MAX(price) AS hi, AVG(S) AS s              FROM GoodEats",
            &cat(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let r = &out.rows()[0];
        assert_eq!(r.get(0).as_i64(), Some(6));
        assert_eq!(r.get(1).as_f64(), Some(17.5));
        assert_eq!(r.get(2).as_f64(), Some(62.0));
        let avg_s = r.get(3).as_f64().unwrap();
        assert!((avg_s - 112.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn ungrouped_column_with_aggregate_is_error() {
        assert!(matches!(
            execute("SELECT restaurant, MAX(S) FROM GoodEats", &cat()),
            Err(QueryError::Semantic(_))
        ));
        assert!(matches!(
            execute(
                "SELECT restaurant, MAX(S) AS s FROM GoodEats GROUP BY price",
                &cat()
            ),
            Err(QueryError::Semantic(_))
        ));
    }

    #[test]
    fn group_by_without_select_list_is_error() {
        assert!(matches!(
            execute("SELECT * FROM GoodEats GROUP BY S", &cat()),
            Err(QueryError::Semantic(_))
        ));
    }

    #[test]
    fn having_filters_groups() {
        use skyline_relation::{tuple, ColumnType, Schema, Table};
        let schema = Schema::of(&[("g", ColumnType::Int), ("x", ColumnType::Int)]);
        let t = Table::new(
            schema,
            vec![tuple![1, 5], tuple![1, 9], tuple![2, 3], tuple![3, 8]],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.register("t", t);
        // Figure 3's clause order: group by … having … skyline of
        let out = execute(
            "SELECT g, MAX(x) AS best FROM t GROUP BY g HAVING best > 4              SKYLINE OF best MAX, g MIN ORDER BY g",
            &c,
        )
        .unwrap();
        let rows: Vec<Vec<i64>> = out
            .rows()
            .iter()
            .map(|r| r.values().iter().map(|v| v.as_i64().unwrap()).collect())
            .collect();
        // groups: (1,9), (3,8) pass HAVING; skyline keeps both
        // ((1,9) has better best AND smaller g → (3,8) dominated)
        assert_eq!(rows, vec![vec![1, 9]]);
        // HAVING without grouping is rejected
        assert!(matches!(
            execute("SELECT g FROM t HAVING g > 1", &c),
            Err(QueryError::Semantic(_))
        ));
    }

    #[test]
    fn count_ignores_nulls() {
        use skyline_relation::{ColumnType, Schema, Table, Tuple, Value};
        let schema = Schema::of(&[("g", ColumnType::Int), ("x", ColumnType::Int)]);
        let t = Table::new(
            schema,
            vec![
                Tuple::new(vec![Value::Int(1), Value::Int(5)]),
                Tuple::new(vec![Value::Int(1), Value::Null]),
                Tuple::new(vec![Value::Int(1), Value::Int(7)]),
            ],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.register("t", t);
        let out = execute("SELECT g, COUNT(x) AS n, SUM(x) AS s FROM t GROUP BY g", &c).unwrap();
        assert_eq!(out.rows()[0].get(1).as_i64(), Some(2));
        assert_eq!(out.rows()[0].get(2).as_i64(), Some(12));
    }

    #[test]
    fn integer_aggregates_are_exact_and_sum_overflow_is_an_error() {
        use skyline_relation::{ColumnType, Schema, Table, Tuple, Value};
        let table = |rows: &[(i64, i64)]| {
            let schema = Schema::of(&[("g", ColumnType::Int), ("x", ColumnType::Int)]);
            let rows = rows
                .iter()
                .map(|&(g, x)| Tuple::new(vec![Value::Int(g), Value::Int(x)]))
                .collect();
            let mut c = Catalog::new();
            c.register("t", Table::new(schema, rows).unwrap());
            c
        };
        let big = (1i64 << 53) + 1;
        let c = table(&[(1, big), (1, 0), (2, 1 << 53), (2, 1), (3, -big), (3, 0)]);
        let out = execute(
            "SELECT g, MAX(x) AS hi, MIN(x) AS lo, SUM(x) AS s FROM t GROUP BY g ORDER BY g",
            &c,
        )
        .unwrap();
        let cols = |r: usize| -> Vec<Option<i64>> {
            (1..4).map(|j| out.rows()[r].get(j).as_i64()).collect()
        };
        assert_eq!(cols(0), [Some(big), Some(0), Some(big)]);
        assert_eq!(cols(1), [Some(1 << 53), Some(1), Some(big)]);
        assert_eq!(cols(2), [Some(0), Some(-big), Some(-big)]);

        let c = table(&[(1, i64::MAX), (1, 1)]);
        let err = execute("SELECT g, SUM(x) AS s FROM t GROUP BY g", &c).unwrap_err();
        assert_eq!(
            err,
            QueryError::Semantic("SUM(x) overflows a 64-bit integer".into())
        );
        // MAX over the same group is still exact
        let out = execute("SELECT g, MAX(x) AS m FROM t GROUP BY g", &c).unwrap();
        assert_eq!(out.rows()[0].get(1).as_i64(), Some(i64::MAX));
    }

    #[test]
    fn limit_over_a_scan_clones_only_the_rows_it_returns() {
        use skyline_relation::{tuple, ColumnType, Schema};
        let rows: Vec<Tuple> = (0..100_000i64).map(|i| tuple![i]).collect();
        let mut c = Catalog::new();
        let schema = Schema::of(&[("x", ColumnType::Int)]);
        c.register("big", Table::new(schema, rows).unwrap());
        // every row the sink sees was cloned once; LIMIT ends the scan
        // at its n-th match, so the sink sees exactly n
        let pushed = |sql: &str| {
            let mut seen = Vec::new();
            execute_query_into(
                &parse(sql).unwrap(),
                &c,
                &ExecOptions::default(),
                |_, row| {
                    seen.push(row);
                    ControlFlow::Continue(())
                },
            )
            .unwrap();
            seen
        };
        let all = c.get("big").unwrap().rows();
        assert_eq!(pushed("SELECT * FROM big LIMIT 3"), all[..3].to_vec());
        assert_eq!(
            pushed("SELECT * FROM big WHERE x > 500 LIMIT 4"),
            all[501..505].to_vec()
        );
        assert!(pushed("SELECT * FROM big WHERE x > 7 LIMIT 0").is_empty());
        assert_eq!(pushed("SELECT * FROM big WHERE x < 5 LIMIT 9").len(), 5);
        // and through SQL the answer is those rows
        let out = execute("SELECT * FROM big LIMIT 3", &c).unwrap();
        assert_eq!(out.rows(), all[..3].to_vec());
    }

    /// A streaming scan under `LIMIT n` tests `n` rows before its first
    /// row can leave, then blocks twice as long each time, up to
    /// [`CHUNK_ROWS`]: polled at the head of each and at every multiple
    /// of [`CHUNK_ROWS`].
    #[test]
    fn a_limited_scan_cuts_its_first_block_to_the_limit() {
        use skyline_relation::{tuple, ColumnType, Schema};
        use std::cell::RefCell;
        let rows: Vec<Tuple> = (0..1_000i64).map(|i| tuple![i]).collect();
        let mut c = Catalog::new();
        let schema = Schema::of(&[("x", ColumnType::Int)]);
        c.register("t", Table::new(schema, rows).unwrap());
        let heads = |sql: &str| {
            let polled = RefCell::new(Vec::new());
            let poll_scan = |rowno: usize| {
                polled.borrow_mut().push(rowno);
                Ok(())
            };
            let mut out = Vec::new();
            let opts = ExecOptions::default();
            run(&parse(sql).unwrap(), &c, &opts, &poll_scan, |_, row| {
                out.push(row.get(0).as_i64().unwrap());
                ControlFlow::Continue(())
            })
            .unwrap();
            (out, polled.into_inner())
        };
        // rows 0..3 hold one match; the next block, 3..9, the other two
        assert_eq!(
            heads("SELECT * FROM t WHERE x > 1 LIMIT 3"),
            (vec![2, 3, 4], vec![0, 3])
        );
        assert_eq!(heads("SELECT * FROM t LIMIT 3"), (vec![0, 1, 2], vec![0]));
        let (out, polled) = heads("SELECT * FROM t WHERE x > 990 LIMIT 300");
        assert_eq!(out, (991..1_000).collect::<Vec<_>>());
        assert_eq!(polled, [0, 256, 512, 768]);
        let (out, polled) = heads("SELECT * FROM t WHERE x > 600 LIMIT 5");
        assert_eq!(out, (601..606).collect::<Vec<_>>());
        assert_eq!(polled, [0, 5, 15, 35, 75, 155, 256, 512]);
        assert_eq!(
            heads("SELECT * FROM t WHERE x > 7 LIMIT 0").0,
            Vec::<i64>::new()
        );
    }

    /// A token tripped while a `WHERE` selects under a skyline over
    /// 100 000 rows is seen at the next block's poll, a column at a time
    /// or row by row: the query ends `Cancelled` with that block's head
    /// as its progress, the skyline never runs, and nothing stays charged
    /// to the quota pool. A live token changes no answer.
    #[test]
    fn a_token_tripped_mid_selection_is_seen_within_one_block() {
        use skyline_exec::CancelToken;
        use skyline_relation::{tuple, ColumnType, Schema};
        use skyline_storage::BufferPool;
        let rows = (0..100_000i64)
            .map(|i| tuple![i, i % 1_000 - 500, (i * 7_919) % 100_003])
            .collect();
        let schema = Schema::of(&[
            ("id", ColumnType::Int),
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
        ]);
        let mut c = Catalog::new();
        c.register("t", Table::new(schema, rows).unwrap());
        let pool = BufferPool::new(2_048);
        let with = |token: &CancelToken| {
            ExecOptions::default()
                .with_pool(pool.clone())
                .with_cancel(token.clone())
        };
        for pred in ["a > 0", "a > 0 AND b <> 7"] {
            let sql = format!("SELECT * FROM t WHERE {pred} SKYLINE OF a MAX, b MIN");
            let query = parse(&sql).unwrap();
            // the live run makes `a` resident, so `a > 0` is read off it
            let want = execute_query(&query, &c).unwrap();
            assert_eq!(
                execute_query_with(&query, &c, &with(&CancelToken::new())).unwrap(),
                want
            );
            assert_eq!(pool.used(), 0);
            for trip in [
                0,
                CHUNK_ROWS,
                150 * CHUNK_ROWS,
                100_000 / CHUNK_ROWS * CHUNK_ROWS,
            ] {
                let token = CancelToken::new();
                let opts = with(&token);
                // tripped after the poll at `trip`, while its block is
                // selected
                let poll_scan = |rowno: usize| {
                    let polled = poll_row(&opts, rowno);
                    if rowno == trip {
                        token.cancel();
                    }
                    polled
                };
                let mut emitted = 0;
                let end = run(&query, &c, &opts, &poll_scan, |_, _| {
                    emitted += 1;
                    ControlFlow::Continue(())
                });
                let seen = trip + CHUNK_ROWS;
                if seen < 100_000 {
                    assert_eq!(
                        end.unwrap_err(),
                        QueryError::Cancelled {
                            records_processed: seen as u64
                        },
                        "{pred}: tripped at {trip}"
                    );
                    assert_eq!(emitted, 0, "the skyline ran");
                } else {
                    // the last block has no poll after it: the skyline's
                    // own polls see the trip
                    assert!(matches!(end, Err(QueryError::Cancelled { .. })), "{end:?}");
                }
                assert_eq!(pool.used(), 0, "{pred}: tripped at {trip}");
            }
        }
    }

    #[test]
    fn plain_select_passthrough() {
        let out = execute("SELECT restaurant FROM GoodEats LIMIT 2", &cat()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().len(), 1);
    }
}
