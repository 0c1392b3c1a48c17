//! Predicate evaluation over tuples (three-valued SQL logic collapsed to
//! two: comparisons involving NULL or incomparable types are simply
//! false).
//!
//! A `WHERE` runs as a *selection*: [`Bound::over`] sets the predicate
//! on one table, and [`Selector::select`] answers a range of its rows
//! with the row numbers it keeps, on one of two paths, by a rule:
//! - *a column at a time* when the predicate is one comparison of a
//!   column with a number, `column op number`, and the table holds a
//!   resident key column of that column with values (no `NULL`, string
//!   or NaN) — a skyline built it; a `WHERE` builds none. It compares
//!   the `f64`s: [`Value::sql_cmp`] compares every numeric pair through
//!   [`Value::as_f64`], which is what a key column stores, so this is
//!   the same comparison, ±0.0 and 2⁵³ + 1 included;
//! - *row by row*, through [`Bound::eval`], for any other predicate.
//!
//! The first path serves the one shape measured traffic runs, a range
//! predicate on a skyline criterion; a literal on the left, two columns
//! or `AND`/`OR`/`NOT` would join it with a workload that runs them.

use crate::ast::{CmpOp, Expr};
use crate::error::QueryError;
use skyline_relation::{KeyColumn, Schema, Table, Tuple, Value};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Resolve all column references in `expr` to indices; fails fast on
/// unknown columns so execution can't panic later.
///
/// # Errors
/// [`QueryError::NoSuchColumn`] for any reference not in `schema`.
pub fn validate(expr: &Expr, schema: &Schema) -> Result<(), QueryError> {
    match expr {
        Expr::Column(name) => schema
            .index_of(name)
            .map(|_| ())
            .ok_or_else(|| QueryError::NoSuchColumn(name.clone())),
        Expr::Literal(_) => Ok(()),
        Expr::Cmp { left, right, .. } => {
            validate(left, schema)?;
            validate(right, schema)
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            validate(a, schema)?;
            validate(b, schema)
        }
        Expr::Not(e) => validate(e, schema),
    }
}

fn operand_value<'a>(expr: &'a Expr, schema: &Schema, row: &'a Tuple) -> &'a Value {
    match expr {
        Expr::Column(name) => {
            let idx = schema.index_of(name).expect("validated before eval");
            row.get(idx)
        }
        Expr::Literal(v) => v,
        _ => unreachable!("operands are columns or literals"),
    }
}

/// Does `l op r` hold? A comparison involving NULL, or between values
/// that do not compare, is false.
fn holds(l: &Value, op: CmpOp, r: &Value) -> bool {
    if l.is_null() || r.is_null() {
        return false; // SQL UNKNOWN → filtered out
    }
    match l.sql_cmp(r) {
        None => false,
        Some(ord) => match op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        },
    }
}

/// Evaluate a (validated) predicate against one row.
///
/// Each column is looked up by name in `schema` on every call; a query
/// evaluating one predicate over many rows [`bind`]s it once instead.
///
/// # Panics
/// On an expression that [`validate`] would reject: an unresolved
/// column reference, or a bare operand used as a predicate.
pub fn eval(expr: &Expr, schema: &Schema, row: &Tuple) -> bool {
    match expr {
        Expr::Cmp { left, op, right } => holds(
            operand_value(left, schema, row),
            *op,
            operand_value(right, schema, row),
        ),
        Expr::And(a, b) => eval(a, schema, row) && eval(b, schema, row),
        Expr::Or(a, b) => eval(a, schema, row) || eval(b, schema, row),
        Expr::Not(e) => !eval(e, schema, row),
        Expr::Column(_) | Expr::Literal(_) => {
            unreachable!("bare operands are not predicates")
        }
    }
}

/// A predicate whose column references are resolved to positions in one
/// schema, once: [`Bound::eval`] answers as [`eval`] does, with no name
/// lookup per row.
#[derive(Debug)]
pub struct Bound<'e>(Node<'e>);

#[derive(Debug)]
enum Node<'e> {
    Cmp(Operand<'e>, CmpOp, Operand<'e>),
    And(Box<Node<'e>>, Box<Node<'e>>),
    Or(Box<Node<'e>>, Box<Node<'e>>),
    Not(Box<Node<'e>>),
}

#[derive(Debug)]
enum Operand<'e> {
    Column(usize),
    Literal(&'e Value),
}

/// Resolve `expr`'s column references against `schema`.
///
/// # Errors
/// [`QueryError::NoSuchColumn`] for a reference not in `schema`, as
/// [`validate`]; [`QueryError::Semantic`] for a bare operand where a
/// predicate belongs, or a comparison operand that is not a column or a
/// literal — trees the parser never builds.
pub fn bind<'e>(expr: &'e Expr, schema: &Schema) -> Result<Bound<'e>, QueryError> {
    fn operand<'e>(expr: &'e Expr, schema: &Schema) -> Result<Operand<'e>, QueryError> {
        match expr {
            Expr::Column(name) => schema
                .index_of(name)
                .map(Operand::Column)
                .ok_or_else(|| QueryError::NoSuchColumn(name.clone())),
            Expr::Literal(v) => Ok(Operand::Literal(v)),
            _ => Err(QueryError::Semantic(
                "a comparison operand must be a column or a literal".into(),
            )),
        }
    }
    fn node<'e>(expr: &'e Expr, schema: &Schema) -> Result<Node<'e>, QueryError> {
        let boxed = |e: &'e Expr| node(e, schema).map(Box::new);
        Ok(match expr {
            Expr::Cmp { left, op, right } => {
                Node::Cmp(operand(left, schema)?, *op, operand(right, schema)?)
            }
            Expr::And(a, b) => Node::And(boxed(a)?, boxed(b)?),
            Expr::Or(a, b) => Node::Or(boxed(a)?, boxed(b)?),
            Expr::Not(e) => Node::Not(boxed(e)?),
            Expr::Column(_) | Expr::Literal(_) => {
                return Err(QueryError::Semantic(
                    "a bare column or literal is not a predicate".into(),
                ))
            }
        })
    }
    node(expr, schema).map(Bound)
}

impl<'e> Bound<'e> {
    /// Evaluate the predicate against one row of the schema it was bound
    /// to.
    ///
    /// # Panics
    /// On a row narrower than that schema.
    #[must_use]
    pub fn eval(&self, row: &Tuple) -> bool {
        fn value<'a>(operand: &Operand<'a>, row: &'a Tuple) -> &'a Value {
            match operand {
                Operand::Column(idx) => row.get(*idx),
                Operand::Literal(v) => v,
            }
        }
        fn node(n: &Node<'_>, row: &Tuple) -> bool {
            match n {
                Node::Cmp(l, op, r) => holds(value(l, row), *op, value(r, row)),
                Node::And(a, b) => node(a, row) && node(b, row),
                Node::Or(a, b) => node(a, row) || node(b, row),
                Node::Not(e) => !node(e, row),
            }
        }
        node(&self.0, row)
    }

    /// Set the predicate on `table` for [`Selector::select`], picking its
    /// path (module documentation). It reads the resident key columns
    /// the table holds and builds none.
    ///
    /// # Panics
    /// On a table narrower than the schema the predicate was bound to.
    #[must_use]
    pub fn over<'t>(&self, table: &'t Table) -> Selector<'_, 'e, 't> {
        let column = match &self.0 {
            // a NULL, string or NaN literal compares row by row
            Node::Cmp(Operand::Column(c), op, Operand::Literal(v)) => v
                .as_f64()
                .filter(|x| !x.is_nan())
                .zip(table.resident_key_column(*c))
                .filter(|(_, key)| key.first_non_numeric().is_none())
                .map(|(x, key)| (key, *op, x)),
            _ => None,
        };
        Selector {
            bound: self,
            rows: table.rows(),
            column,
        }
    }
}

/// A [`Bound`] predicate set on one table ([`Bound::over`]): it answers
/// which rows of a range the predicate holds for.
#[derive(Debug)]
pub struct Selector<'b, 'e, 't> {
    bound: &'b Bound<'e>,
    rows: &'t [Tuple],
    /// `column op number` over the column's resident key column, when
    /// the predicate is read a column at a time.
    column: Option<(Arc<KeyColumn>, CmpOp, f64)>,
}

impl Selector<'_, '_, '_> {
    /// Append to `kept` the row numbers in `range` of the rows where
    /// [`Bound::eval`] holds, ascending.
    ///
    /// # Panics
    /// When `range` reaches past the table.
    pub fn select(&self, range: Range<usize>, kept: &mut Vec<usize>) {
        // one loop per operator, so each compiles to straight-line
        // compares; branch-free: write every row number, keep the ones
        // that hold
        fn keep(values: &[f64], start: usize, kept: &mut Vec<usize>, test: impl Fn(f64) -> bool) {
            let mut len = kept.len();
            kept.resize(len + values.len(), 0);
            for (i, &v) in values.iter().enumerate() {
                kept[len] = start + i;
                len += usize::from(test(v));
            }
            kept.truncate(len);
        }
        let Some((column, op, x)) = &self.column else {
            kept.extend(range.filter(|&i| self.bound.eval(&self.rows[i])));
            return;
        };
        let (start, x) = (range.start, *x);
        let values = &column.values()[range];
        match op {
            CmpOp::Eq => keep(values, start, kept, |v| v == x),
            CmpOp::Ne => keep(values, start, kept, |v| v != x),
            CmpOp::Lt => keep(values, start, kept, |v| v < x),
            CmpOp::Le => keep(values, start, kept, |v| v <= x),
            CmpOp::Gt => keep(values, start, kept, |v| v > x),
            CmpOp::Ge => keep(values, start, kept, |v| v >= x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use skyline_relation::samples::good_eats;

    fn pred(text: &str) -> Expr {
        parse(&format!("SELECT * FROM t WHERE {text}"))
            .unwrap()
            .where_clause
            .unwrap()
    }

    #[test]
    fn numeric_comparisons() {
        let t = good_eats();
        let e = pred("price < 50");
        validate(&e, t.schema()).unwrap();
        let matches: Vec<&str> = t
            .rows()
            .iter()
            .filter(|r| eval(&e, t.schema(), r))
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        assert_eq!(
            matches,
            vec!["Summer Moon", "Fenton & Pickle", "Briar Patch BBQ"]
        );
    }

    #[test]
    fn string_equality_and_boolean_ops() {
        let t = good_eats();
        let e = pred("restaurant = 'Zakopane' OR (S >= 21 AND NOT price > 50)");
        validate(&e, t.schema()).unwrap();
        let matches: Vec<&str> = t
            .rows()
            .iter()
            .filter(|r| eval(&e, t.schema(), r))
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        // Zakopane by name; Summer Moon via S=21 & price 47.5
        assert_eq!(matches, vec!["Summer Moon", "Zakopane"]);
    }

    #[test]
    fn unknown_column_rejected() {
        let t = good_eats();
        let e = pred("bogus = 1");
        assert_eq!(
            validate(&e, t.schema()),
            Err(QueryError::NoSuchColumn("bogus".into()))
        );
    }

    #[test]
    fn null_comparisons_are_false() {
        use skyline_relation::{Column, ColumnType, Tuple, Value};
        let schema = Schema::new(vec![Column::new("a", ColumnType::Int)]).unwrap();
        let row = Tuple::new(vec![Value::Null]);
        for text in ["a = 1", "a <> 1", "a < 1", "a >= 1"] {
            assert!(!eval(&pred(text), &schema, &row), "{text}");
        }
        // NOT (a = 1) is true under our two-valued collapse
        assert!(eval(&pred("NOT a = 1"), &schema, &row));
    }

    #[test]
    fn cross_type_comparison_is_false() {
        let t = good_eats();
        let e = pred("restaurant < 5");
        validate(&e, t.schema()).unwrap();
        assert!(!t.rows().iter().any(|r| eval(&e, t.schema(), r)));
    }

    /// A NaN literal, which no SQL text spells, compares to nothing: the
    /// column-at-a-time path must not take it, or `<>` would hold.
    #[test]
    fn a_nan_literal_selects_no_row_off_a_resident_column() {
        use crate::ast::CmpOp;
        let t = good_eats();
        let price = t.schema().index_of("price").unwrap();
        t.key_columns(&[price], |_| Ok::<(), ()>(())).unwrap();
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let e = Expr::Cmp {
                left: Box::new(Expr::Column("price".into())),
                op,
                right: Box::new(Expr::Literal(Value::Float(f64::NAN))),
            };
            let mut kept = Vec::new();
            bind(&e, t.schema())
                .unwrap()
                .over(&t)
                .select(0..t.len(), &mut kept);
            assert!(kept.is_empty(), "{op:?}");
        }
    }
}
