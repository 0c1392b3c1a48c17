//! In-memory, schema'd relation.

use crate::record::RecordLayout;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;

/// A schema plus rows. The friendly relation used by the query layer,
/// samples, and examples.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    rows: Vec<Tuple>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Build from schema and rows, checking arity.
    ///
    /// # Errors
    /// [`TableError::ArityMismatch`] for the first row whose width differs from
    /// the schema's.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Result<Self, TableError> {
        for (i, r) in rows.iter().enumerate() {
            if r.len() != schema.len() {
                return Err(TableError::ArityMismatch {
                    row: i,
                    expected: schema.len(),
                    got: r.len(),
                });
            }
        }
        Ok(Table { schema, rows })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append one row, checking arity.
    ///
    /// # Errors
    /// [`TableError::ArityMismatch`] when the row's width differs from the
    /// schema's; the table is unchanged.
    pub fn push(&mut self, row: Tuple) -> Result<(), TableError> {
        if row.len() != self.schema.len() {
            return Err(TableError::ArityMismatch {
                row: self.rows.len(),
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Consume into rows.
    pub fn into_rows(self) -> Vec<Tuple> {
        self.rows
    }

    /// Extract an `n × k` matrix of `f64` keys for the named columns.
    /// Fails if a column is missing or a value is non-numeric.
    ///
    /// # Errors
    /// [`TableError::NoSuchColumn`] for a missing column,
    /// [`TableError::NonNumeric`] for the first row with a non-numeric value.
    pub fn numeric_matrix(&self, columns: &[&str]) -> Result<Vec<Vec<f64>>, TableError> {
        let idx: Vec<usize> = columns
            .iter()
            .map(|c| {
                self.schema
                    .index_of(c)
                    .ok_or_else(|| TableError::NoSuchColumn((*c).to_owned()))
            })
            .collect::<Result<_, _>>()?;
        self.rows
            .iter()
            .enumerate()
            .map(|(i, r)| r.numeric_key(&idx).ok_or(TableError::NonNumeric { row: i }))
            .collect()
    }

    /// Encode rows into fixed-width records: the integer columns listed in
    /// `key_columns` become the record's i32 attributes (in order), and the
    /// row index is written into the payload so records can be traced back.
    ///
    /// Values outside `i32` range are clamped; this is only used to push
    /// friendly tables down into the paged engine.
    ///
    /// # Errors
    /// [`TableError::NoSuchColumn`] for a missing key column,
    /// [`TableError::NonNumeric`] for the first row with a non-integer key.
    ///
    /// # Panics
    /// When there are more key columns than the layout has dimensions.
    pub fn to_records(
        &self,
        layout: RecordLayout,
        key_columns: &[&str],
    ) -> Result<Vec<Vec<u8>>, TableError> {
        assert!(
            key_columns.len() <= layout.dims,
            "layout has {} dims but {} key columns requested",
            layout.dims,
            key_columns.len()
        );
        let idx: Vec<usize> = key_columns
            .iter()
            .map(|c| {
                self.schema
                    .index_of(c)
                    .ok_or_else(|| TableError::NoSuchColumn((*c).to_owned()))
            })
            .collect::<Result<_, _>>()?;
        let mut out = Vec::with_capacity(self.rows.len());
        for (rowno, row) in self.rows.iter().enumerate() {
            let mut attrs = vec![0i32; layout.dims];
            for (k, &col) in idx.iter().enumerate() {
                let v = row
                    .get(col)
                    .as_f64()
                    .ok_or(TableError::NonNumeric { row: rowno })?;
                attrs[k] = v.clamp(i32::MIN as f64, i32::MAX as f64) as i32;
            }
            let mut payload = vec![0u8; layout.payload];
            let tag = (rowno as u64).to_le_bytes();
            let n = tag.len().min(layout.payload);
            payload[..n].copy_from_slice(&tag[..n]);
            out.push(layout.encode(&attrs, &payload));
        }
        Ok(out)
    }

    /// Render as an aligned ASCII table (for examples and the query shell).
    pub fn render(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(Value::to_string).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut s = String::new();
        let line = |s: &mut String, row: &[String]| {
            for (i, c) in row.iter().enumerate() {
                s.push_str("| ");
                s.push_str(c);
                s.push_str(&" ".repeat(widths[i] - c.len() + 1));
            }
            s.push_str("|\n");
        };
        line(&mut s, &headers);
        for w in &widths {
            s.push('|');
            s.push_str(&"-".repeat(w + 2));
        }
        s.push_str("|\n");
        for row in &cells {
            line(&mut s, row);
        }
        s
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Errors operating on tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Row arity differs from the schema's.
    ArityMismatch {
        /// Row index.
        row: usize,
        /// Schema arity.
        expected: usize,
        /// Row arity.
        got: usize,
    },
    /// Referenced column does not exist.
    NoSuchColumn(String),
    /// A value needed as a numeric key was non-numeric or NULL.
    NonNumeric {
        /// Row index.
        row: usize,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::ArityMismatch { row, expected, got } => {
                write!(f, "row {row}: expected {expected} values, got {got}")
            }
            TableError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            TableError::NonNumeric { row } => {
                write!(f, "row {row}: non-numeric value in skyline column")
            }
        }
    }
}

impl std::error::Error for TableError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::tuple;

    fn small() -> Table {
        let schema = Schema::of(&[
            ("name", ColumnType::Str),
            ("x", ColumnType::Int),
            ("y", ColumnType::Float),
        ]);
        Table::new(schema, vec![tuple!["a", 1, 2.0], tuple!["b", 3, 4.0]]).unwrap()
    }

    #[test]
    fn arity_checked() {
        let schema = Schema::of(&[("x", ColumnType::Int)]);
        let err = Table::new(schema, vec![tuple![1, 2]]).unwrap_err();
        assert!(matches!(err, TableError::ArityMismatch { .. }));
    }

    #[test]
    fn numeric_matrix_extraction() {
        let t = small();
        assert_eq!(
            t.numeric_matrix(&["x", "y"]).unwrap(),
            vec![vec![1.0, 2.0], vec![3.0, 4.0]]
        );
        assert!(matches!(
            t.numeric_matrix(&["name"]),
            Err(TableError::NonNumeric { row: 0 })
        ));
        assert!(matches!(
            t.numeric_matrix(&["zzz"]),
            Err(TableError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn to_records_round_trip_keys() {
        let t = small();
        let layout = RecordLayout::new(2, 8);
        let recs = t.to_records(layout, &["x", "y"]).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(layout.decode_attrs(&recs[1]), vec![3, 4]);
        // payload carries the row index
        let payload = layout.payload_of(&recs[1]);
        assert_eq!(u64::from_le_bytes(payload[..8].try_into().unwrap()), 1);
    }

    #[test]
    fn render_contains_headers_and_cells() {
        let r = small().render();
        assert!(r.contains("name"));
        assert!(r.contains("4"));
    }
}
