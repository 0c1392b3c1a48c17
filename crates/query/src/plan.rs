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

use crate::ast::{AggFunc, Directive, Expr, Query, SelectItem};
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::expr;
use crate::options::ExecOptions;
use crate::parser::parse;
use crate::pushdown::{external_skyline_with, SkylineColumns};
use skyline_core::cardinality::expected_skyline_size;
use skyline_relation::{KeyColumn, Schema, Table, Tuple, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::Write as _;
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
/// groups, the skyline's input). Rows arrive in rank order except from
/// a streamed skyline.
///
/// How far rows stream depends on what sits above them:
/// - with nothing but `WHERE` under the output, the scan streams, and
///   `LIMIT n` ends it at the `n`-th match — no later row is cloned;
/// - a skyline with no `ORDER BY` over it streams in *emission order* —
///   presort order (see [`crate::pushdown::external_skyline_with`]) —
///   and `LIMIT n` stops the filter after its `n`-th survivor;
/// - `ORDER BY` and grouping collect first, then emit.
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
    let table = catalog
        .get(&query.from)
        .ok_or_else(|| QueryError::NoSuchTable(query.from.clone()))?;
    let mut schema = table.schema().clone();
    if let Some(pred) = &query.where_clause {
        expr::validate(pred, &schema)?;
    }
    let has_agg = query
        .select
        .iter()
        .any(|i| matches!(i, SelectItem::Aggregate { .. }));
    let grouped = !query.group_by.is_empty() || has_agg;
    if query.having.is_some() && !grouped {
        return Err(QueryError::Semantic(
            "HAVING requires GROUP BY or aggregates".into(),
        ));
    }

    // Scan → Filter → Limit → Project, one row at a time.
    if !grouped && query.skyline.is_none() && query.order_by.is_empty() {
        let mut out = Output::new(query, &schema, false, sink)?;
        let pred = query.where_clause.as_ref();
        out.drain(
            table
                .rows()
                .iter()
                .enumerate()
                .filter(|(_, r)| pred.is_none_or(|p| expr::eval(p, &schema, r)))
                .map(|(rank, r)| (rank, Cow::Borrowed(r))),
        );
        return Ok(out.schema);
    }

    // Filter. Without a WHERE the table is borrowed: a skyline over a
    // whole table clones its survivors and nothing else.
    let mut rows: Cow<'_, [Tuple]> = match &query.where_clause {
        Some(pred) => table
            .rows()
            .iter()
            .filter(|r| expr::eval(pred, &schema, r))
            .cloned()
            .collect(),
        None => Cow::Borrowed(table.rows()),
    };

    // Group by / aggregate (the paper's Fig. 8 pre-pass shape). The
    // grouped output becomes the relation the skyline operates on —
    // matching the clause order of the paper's Fig. 3.
    if grouped {
        let (out_schema, out_rows) = apply_group_by(&schema, &rows, query)?;
        (schema, rows) = (out_schema, Cow::Owned(out_rows));
    }
    if let Some(having) = &query.having {
        expr::validate(having, &schema)?;
        rows.to_mut().retain(|r| expr::eval(having, &schema, r));
    }

    // Everything above the skyline is resolved before it runs, so its
    // first survivor can leave at once.
    let order = order_keys(query, &schema)?;
    let mut out = Output::new(query, &schema, grouped, sink)?;

    // Skyline (over the possibly-grouped relation): straight to the
    // output unless an ORDER BY has to see all of it first.
    if let Some(clause) = &query.skyline {
        let resident = matches!(rows, Cow::Borrowed(_)).then_some(table);
        if order.is_empty() {
            apply_skyline(&rows, resident, &schema, clause, opts, |i| {
                out.emit(i, Cow::Borrowed(&rows[i]))
            })?;
            return Ok(out.schema);
        }
        let mut kept = Vec::new();
        apply_skyline(&rows, resident, &schema, clause, opts, |i| {
            kept.push(rows[i].clone());
            ControlFlow::Continue(())
        })?;
        rows = Cow::Owned(kept);
    }

    if !order.is_empty() {
        rows.to_mut().sort_by(|a, b| {
            for &(idx, desc) in &order {
                let ord = a.get(idx).sql_cmp(b.get(idx)).unwrap_or(Ordering::Equal);
                let ord = if desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    match rows {
        Cow::Borrowed(all) => out.drain(all.iter().map(Cow::Borrowed).enumerate()),
        Cow::Owned(all) => out.drain(all.into_iter().map(Cow::Owned).enumerate()),
    }
    Ok(out.schema)
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

    /// Emit ranked `rows` in order until one breaks.
    fn drain<'r>(&mut self, rows: impl Iterator<Item = (usize, Cow<'r, Tuple>)>) {
        for (rank, row) in rows {
            if self.emit(rank, row).is_break() {
                break;
            }
        }
    }
}

/// Evaluate GROUP BY + aggregates: returns the grouped schema and rows in
/// select-list order. Every plain select column must appear in GROUP BY
/// (standard SQL restriction); with no GROUP BY, the whole input is one
/// group.
fn apply_group_by(
    schema: &skyline_relation::Schema,
    rows: &[Tuple],
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
    let groups = group_members(&group_ids(rows, &group_idx));
    let agg_value = |func: AggFunc, idx: usize, members: &[usize]| -> Result<Value, QueryError> {
        let cells = || members.iter().map(|&i| rows[i].get(idx));
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
                Out::Group(idx) => vals.push(rows[members[0]].get(*idx).clone()),
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
pub(crate) fn group_ids(rows: &[Tuple], columns: &[usize]) -> Vec<usize> {
    let k = columns.len();
    let cells: Vec<Option<Cell<'_>>> = rows
        .iter()
        .flat_map(|r| columns.iter().map(|&c| Cell::of(r.get(c))))
        .collect();
    let mut index: HashMap<&[Option<Cell<'_>>], usize> = HashMap::new();
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

/// The skyline of `rows`, each survivor's index handed to `emit` in the
/// paged engine's emission order; `Break` stops it. `resident` is the catalog
/// table when `rows` is all of it, so its key columns can be shared
/// across queries.
fn apply_skyline(
    rows: &[Tuple],
    resident: Option<&Table>,
    schema: &skyline_relation::Schema,
    clause: &crate::ast::SkylineClause,
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
    // The clause's criterion columns: the table's resident ones when the
    // relation is a whole catalog table, built for this query (same
    // type, same builder) when it was filtered or grouped.
    let poll_row = |rowno| match &opts.cancel {
        Some(token) => token.check(rowno).map_err(QueryError::from_exec),
        None => Ok(()),
    };
    let columns: Vec<Arc<KeyColumn>> = match resident {
        Some(table) => table.key_columns(&crit, poll_row)?,
        None => KeyColumn::build_all(rows, &crit, poll_row)?
            .into_iter()
            .map(Arc::new)
            .collect(),
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
    let groups = (!diff.is_empty()).then(|| group_ids(rows, &diff));
    external_skyline_with(SkylineColumns::new(columns, &min, groups), opts, emit)
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
        let est = if d > 0 {
            expected_skyline_size(n, d)
        } else {
            0.0
        };
        lines.push(format!(
            "Skyline[SFS, presort=entropy, est≈{est:.0} rows]({})",
            items.join(", ")
        ));
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

    let mut out = String::new();
    for (depth, line) in lines.iter().enumerate() {
        if depth == 0 {
            let _ = writeln!(out, "{line}");
        } else {
            let _ = writeln!(out, "{}└─ {line}", "   ".repeat(depth - 1));
        }
    }
    Ok(out)
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

    #[test]
    fn plain_select_passthrough() {
        let out = execute("SELECT restaurant FROM GoodEats LIMIT 2", &cat()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().len(), 1);
    }
}
