//! Dynamically typed cell values for the row-oriented [`crate::Table`] tier.

use std::cmp::Ordering;
use std::fmt;

/// A single cell value.
///
/// Skyline criteria must come from domains with a natural total order
/// (integers, floats, dates — represented here as days since an epoch).
/// Strings participate only as carried payload or `DIFF` grouping keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL. Never comparable for skyline purposes.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float. NaN is rejected at construction via [`Value::float`].
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Date as days since 1970-01-01 (totally ordered, usable as criterion).
    Date(i64),
}

impl Value {
    /// Construct a float value, rejecting NaN (which would break the total
    /// order skyline criteria require).
    ///
    /// # Errors
    /// [`ValueError::NanFloat`] for NaN.
    pub fn float(f: f64) -> Result<Self, ValueError> {
        if f.is_nan() {
            Err(ValueError::NanFloat)
        } else {
            Ok(Value::Float(f))
        }
    }

    /// Numeric view of the value, if it has one. Used when extracting
    /// skyline keys.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) | Value::Date(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Null | Value::Str(_) => None,
        }
    }

    /// Integer view (exact), if it has one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) | Value::Date(i) => Some(*i),
            _ => None,
        }
    }

    /// String view, if it has one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL-style comparison: `Null` compares less than everything, numerics
    /// compare numerically across `Int`/`Float`/`Date`, strings compare
    /// lexicographically. Cross-kind (string vs numeric) comparisons return
    /// `None`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, Null) => Some(Ordering::Equal),
            (Null, _) => Some(Ordering::Less),
            (_, Null) => Some(Ordering::Greater),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                _ => None,
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "date({d})"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// Errors constructing or converting values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueError {
    /// Attempted to build a `Float` from NaN.
    NanFloat,
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::NanFloat => write!(f, "NaN is not a valid Float value"),
        }
    }
}

impl std::error::Error for ValueError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_cross_kind_comparison() {
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Float(3.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(2.0).sql_cmp(&Value::Int(2)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Date(10).sql_cmp(&Value::Int(9)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(-100)), Some(Ordering::Less));
        assert_eq!(Value::Int(0).sql_cmp(&Value::Null), Some(Ordering::Greater));
        assert_eq!(Value::Null.sql_cmp(&Value::Null), Some(Ordering::Equal));
    }

    #[test]
    fn string_vs_numeric_is_incomparable() {
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn nan_rejected() {
        assert_eq!(Value::float(f64::NAN), Err(ValueError::NanFloat));
        assert!(Value::float(1.5).is_ok());
    }

    #[test]
    fn as_f64_views() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn display_round_trips_readably() {
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
