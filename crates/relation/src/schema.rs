//! Column and schema definitions.

use std::fmt;

/// Type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer (encoded as i32 in fixed-width records).
    Int,
    /// 64-bit float.
    Float,
    /// Variable-length string (fixed-width padded in records).
    Str,
    /// Date (days since epoch).
    Date,
}

impl ColumnType {
    /// Whether values of this type have the natural total order skyline
    /// criteria require.
    pub fn is_ordered_numeric(self) -> bool {
        matches!(self, ColumnType::Int | ColumnType::Float | ColumnType::Date)
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int => "INT",
            ColumnType::Float => "FLOAT",
            ColumnType::Str => "STRING",
            ColumnType::Date => "DATE",
        };
        write!(f, "{s}")
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name; matched case-insensitively by [`Schema::index_of`].
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

impl Column {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema; column names must be unique (case-insensitive).
    ///
    /// # Errors
    /// [`SchemaError::DuplicateColumn`] naming the first repeated column.
    pub fn new(columns: Vec<Column>) -> Result<Self, SchemaError> {
        for (i, a) in columns.iter().enumerate() {
            for b in &columns[i + 1..] {
                if a.name.eq_ignore_ascii_case(&b.name) {
                    return Err(SchemaError::DuplicateColumn(a.name.clone()));
                }
            }
        }
        Ok(Schema { columns })
    }

    /// Shorthand for building from `(name, type)` pairs. Panics on
    /// duplicates; intended for statically known schemas in tests/examples.
    ///
    /// # Panics
    /// On a duplicate column name.
    pub fn of(cols: &[(&str, ColumnType)]) -> Self {
        Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect())
            .expect("duplicate column in static schema")
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Case-insensitive lookup of a column's position.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column at a position.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Project a subset of columns (by index) into a new schema.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.ty)?;
        }
        write!(f, ")")
    }
}

/// Errors constructing schemas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Two columns share a (case-insensitive) name.
    DuplicateColumn(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateColumn(name) => {
                write!(f, "duplicate column name: {name}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_lookup_is_case_insensitive() {
        let s = Schema::of(&[("Price", ColumnType::Int), ("name", ColumnType::Str)]);
        assert_eq!(s.index_of("price"), Some(0));
        assert_eq!(s.index_of("NAME"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new(vec![
            Column::new("a", ColumnType::Int),
            Column::new("A", ColumnType::Float),
        ])
        .unwrap_err();
        assert_eq!(err, SchemaError::DuplicateColumn("a".into()));
    }

    #[test]
    fn projection_preserves_order() {
        let s = Schema::of(&[
            ("a", ColumnType::Int),
            ("b", ColumnType::Str),
            ("c", ColumnType::Float),
        ]);
        let p = s.project(&[2, 0]);
        assert_eq!(p.column(0).name, "c");
        assert_eq!(p.column(1).name, "a");
    }

    #[test]
    fn display_formats() {
        let s = Schema::of(&[("a", ColumnType::Int)]);
        assert_eq!(s.to_string(), "(a INT)");
    }
}
