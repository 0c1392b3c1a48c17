//! Predicate evaluation over tuples (three-valued SQL logic collapsed to
//! two: comparisons involving NULL or incomparable types are simply
//! false).

use crate::ast::{CmpOp, Expr};
use crate::error::QueryError;
use skyline_relation::{Schema, Tuple, Value};
use std::cmp::Ordering;

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

impl Bound<'_> {
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
}
