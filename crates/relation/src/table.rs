//! In-memory, schema'd relation.

use crate::record::RecordLayout;
use crate::schema::Schema;
use crate::stats::ColumnStats;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// One attribute of a relation as `f64`s, with the facts the skyline
/// planner asks of it: statistics for the entropy presort, and the first
/// row that is no criterion value at all (`NULL`, a string or NaN).
///
/// Values are stored as the table has them; a `MIN` criterion is a sign
/// flip at read time ([`ColumnStats::negated`] for the statistics).
#[derive(Debug, Clone, PartialEq)]
pub struct KeyColumn {
    values: Vec<f64>,
    stats: ColumnStats,
    first_non_numeric: Option<usize>,
}

/// Rows [`KeyColumn::build_all`] copies between two calls of its `poll`.
pub const BUILD_BLOCK: usize = 256;

impl KeyColumn {
    fn empty(rows: usize) -> Self {
        KeyColumn {
            values: Vec::with_capacity(rows),
            stats: ColumnStats::empty(),
            first_non_numeric: None,
        }
    }

    /// Build the columns at positions `columns` of `rows` in one pass,
    /// a block of [`BUILD_BLOCK`] rows at a time: `poll` is called with
    /// the row number at the head of each block (the caller's
    /// cancellation check; its error aborts the build).
    ///
    /// A column stops at its first `NULL`, string or NaN: it records that
    /// row and holds no values.
    ///
    /// # Errors
    /// Whatever `poll` returns.
    ///
    /// # Panics
    /// When a position is outside a row.
    pub fn build_all<E>(
        rows: &[Tuple],
        columns: &[usize],
        mut poll: impl FnMut(u64) -> Result<(), E>,
    ) -> Result<Vec<KeyColumn>, E> {
        let mut out: Vec<KeyColumn> = columns
            .iter()
            .map(|_| KeyColumn::empty(rows.len()))
            .collect();
        // Column by column within a block, so each copy loop runs over
        // one output vector while the block's tuples stay in cache.
        for (block_no, block) in rows.chunks(BUILD_BLOCK).enumerate() {
            let first_row = block_no * BUILD_BLOCK;
            poll(first_row as u64)?;
            for (col, &idx) in out.iter_mut().zip(columns) {
                col.append(block, idx, first_row);
            }
        }
        // The statistics are read off the copies, a column at a time.
        for col in &mut out {
            if col.first_non_numeric.is_some() {
                col.values = Vec::new();
            } else {
                col.stats = ColumnStats::of(&col.values);
            }
        }
        Ok(out)
    }

    /// Copy position `idx` of `block` (whose first row is row `first_row`
    /// of the relation) onto the end, unless the column has stopped.
    fn append(&mut self, block: &[Tuple], idx: usize, first_row: usize) {
        if self.first_non_numeric.is_some() {
            return;
        }
        for (offset, row) in block.iter().enumerate() {
            match row.get(idx) {
                Value::Int(i) | Value::Date(i) => self.values.push(*i as f64),
                Value::Float(f) if !f.is_nan() => self.values.push(*f),
                Value::Float(_) | Value::Null | Value::Str(_) => {
                    self.first_non_numeric = Some(first_row + offset);
                    return;
                }
            }
        }
    }

    /// The values, one per row — empty when [`Self::first_non_numeric`]
    /// is set.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Min/max/count of the values.
    pub fn stats(&self) -> &ColumnStats {
        &self.stats
    }

    /// The first row whose value is `NULL`, a string or NaN, if any.
    pub fn first_non_numeric(&self) -> Option<usize> {
        self.first_non_numeric
    }
}

/// A schema plus rows. The friendly relation used by the query layer,
/// samples, and examples.
///
/// A table also keeps *resident key columns*: the [`KeyColumn`] of every
/// attribute a skyline query has referenced so far, built on first use
/// ([`Table::key_columns`]) and shared by every later query. They are
/// derived data — [`Table::push`] drops them, and `Clone`, `PartialEq`
/// and `Debug` look at schema and rows only (a clone starts cold).
pub struct Table {
    schema: Schema,
    rows: Vec<Tuple>,
    /// One slot per schema column. One lock for the table, held across a
    /// build: a query racing the first one waits and finds the columns.
    resident: Mutex<Vec<Option<Arc<KeyColumn>>>>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Table::cold(schema, Vec::new())
    }

    fn cold(schema: Schema, rows: Vec<Tuple>) -> Self {
        let resident = Mutex::new(vec![None; schema.len()]);
        Table {
            schema,
            rows,
            resident,
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
        Ok(Table::cold(schema, rows))
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

    /// Append one row, checking arity. Drops the resident key columns.
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
        self.resident
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .fill(None);
        Ok(())
    }

    /// The resident key columns at positions `columns` (repeats allowed),
    /// building in one pass over the rows those no query has asked for
    /// yet. `poll` is the caller's cancellation check, called as
    /// [`KeyColumn::build_all`] calls it; when it fails nothing is
    /// cached. A concurrent caller waits for the build instead of
    /// repeating it.
    ///
    /// # Errors
    /// Whatever `poll` returns.
    ///
    /// # Panics
    /// When a position is outside the schema.
    pub fn key_columns<E>(
        &self,
        columns: &[usize],
        poll: impl FnMut(u64) -> Result<(), E>,
    ) -> Result<Vec<Arc<KeyColumn>>, E> {
        // A slot is `None` or a finished column at every instant, so a
        // poisoned lock still guards valid data.
        let mut slots = self.resident.lock().unwrap_or_else(PoisonError::into_inner);
        let mut missing: Vec<usize> = columns
            .iter()
            .copied()
            .filter(|&c| slots[c].is_none())
            .collect();
        missing.sort_unstable();
        missing.dedup();
        if !missing.is_empty() {
            let built = KeyColumn::build_all(&self.rows, &missing, poll)?;
            for (c, column) in missing.into_iter().zip(built) {
                slots[c] = Some(Arc::new(column));
            }
        }
        Ok(columns
            .iter()
            .map(|&c| Arc::clone(slots[c].as_ref().expect("present or just built")))
            .collect())
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

impl Clone for Table {
    fn clone(&self) -> Self {
        Table::cold(self.schema.clone(), self.rows.clone())
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("schema", &self.schema)
            .field("rows", &self.rows)
            .finish()
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

    fn never(_: u64) -> Result<(), ()> {
        Ok(())
    }

    #[test]
    fn a_key_column_carries_values_statistics_and_its_first_non_criterion_row() {
        let rows = vec![
            tuple![1, 2.5, 7, "x", 0.5],
            tuple![-3, f64::INFINITY, i64::from(i32::MAX) + 1, "y", f64::NAN],
            Tuple::new(vec![
                Value::Date(9),
                Value::Float(0.0),
                Value::Null,
                Value::Null,
                Value::Float(1.5),
            ]),
        ];
        let cols = KeyColumn::build_all(&rows, &[0, 1, 2, 3, 4, 0], never).unwrap();
        let (ints, floats, holed, strings, nan) =
            (&cols[0], &cols[1], &cols[2], &cols[3], &cols[4]);
        assert_eq!(ints.values(), [1.0, -3.0, 9.0]);
        assert_eq!(
            (ints.stats().min, ints.stats().max, ints.stats().count),
            (-3.0, 9.0, 3)
        );
        assert_eq!(ints.first_non_numeric(), None);
        assert_eq!(ints, &cols[5], "a repeated position builds the same column");
        // an infinity is a criterion value like any other number
        assert_eq!(floats.values(), [2.5, f64::INFINITY, 0.0]);
        assert_eq!(floats.stats().max, f64::INFINITY);
        assert_eq!(floats.first_non_numeric(), None);
        // a column stops at its first NULL, string or NaN and holds nothing
        assert_eq!(holed.first_non_numeric(), Some(2));
        assert_eq!(strings.first_non_numeric(), Some(0));
        assert_eq!(nan.first_non_numeric(), Some(1));
        for c in [holed, strings, nan] {
            assert!(c.values().is_empty());
        }
        // beyond i32 is a plain f64
        let wide = &KeyColumn::build_all(&rows[..2], &[2], never).unwrap()[0];
        assert_eq!(wide.values(), [7.0, f64::from(i32::MAX) + 1.0]);
    }

    #[test]
    fn resident_columns_are_built_once_and_dropped_by_push() {
        let mut t = small();
        let mut polled = 0;
        let mut count = |_| {
            polled += 1;
            Ok::<(), ()>(())
        };
        let first = t.key_columns(&[2, 1, 2], &mut count).unwrap();
        assert_eq!(first[0].values(), [2.0, 4.0]);
        assert_eq!(first[1].values(), [1.0, 3.0]);
        assert!(Arc::ptr_eq(&first[0], &first[2]));
        // one pass built both; a second call builds nothing, and a call
        // that adds a column passes once more for that column alone
        let again = t.key_columns(&[1, 2], &mut count).unwrap();
        assert!(Arc::ptr_eq(&again[0], &first[1]) && Arc::ptr_eq(&again[1], &first[0]));
        let name = t.key_columns(&[0, 1], &mut count).unwrap();
        assert_eq!(name[0].first_non_numeric(), Some(0));
        assert!(Arc::ptr_eq(&name[1], &first[1]));
        assert_eq!(polled, 2, "one block each");

        // a clone is the same table, cold; so is the table after a push
        let clone = t.clone();
        assert_eq!(clone, t);
        assert!(!format!("{t:?}").contains("resident"));
        let refuse = |_| Err::<(), &str>("cold");
        assert_eq!(clone.key_columns(&[1], refuse).unwrap_err(), "cold");
        assert!(
            t.key_columns(&[1], refuse).is_ok(),
            "the original stays warm"
        );
        t.push(tuple!["c", 5, 6.0]).unwrap();
        assert_ne!(clone, t);
        assert_eq!(t.key_columns(&[1], refuse).unwrap_err(), "cold");
        let rebuilt = t.key_columns(&[1], never).unwrap();
        assert_eq!(rebuilt[0].values(), [1.0, 3.0, 5.0]);
        // a refused push changes nothing
        assert!(t.push(tuple![1]).is_err());
        assert!(Arc::ptr_eq(
            &t.key_columns(&[1], refuse).unwrap()[0],
            &rebuilt[0]
        ));
    }

    #[test]
    fn a_refused_build_caches_nothing() {
        let rows = (0..3 * BUILD_BLOCK as i64)
            .map(|i| tuple!["r", i, 0.5])
            .collect();
        let t = Table::new(small().schema().clone(), rows).unwrap();
        let mut seen = Vec::new();
        let err = t.key_columns(&[1, 2], |row| {
            seen.push(row);
            if row == 0 {
                Ok(())
            } else {
                Err("stop")
            }
        });
        assert_eq!(err.unwrap_err(), "stop");
        assert_eq!(
            seen,
            [0, BUILD_BLOCK as u64],
            "polled at the head of each block"
        );
        for c in [1, 2] {
            assert!(
                t.key_columns(&[c], |_| Err(())).is_err(),
                "column {c} cached"
            );
        }
    }

    #[test]
    fn a_caller_racing_a_build_waits_for_it_and_shares_the_columns() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rows = (0..1_000).map(|i| tuple!["r", i, 0.5]).collect();
        let t = Table::new(small().schema().clone(), rows).unwrap();
        let polls = AtomicUsize::new(0);
        let (started, second_may_go) = std::sync::mpsc::channel();
        let (a, b) = std::thread::scope(|s| {
            let first = s.spawn(|| {
                t.key_columns(&[1, 2], |row| {
                    // the builder holds the lock from here to its last row
                    if row == 0 {
                        started.send(()).unwrap();
                    }
                    polls.fetch_add(1, Ordering::Relaxed);
                    Ok::<(), ()>(())
                })
            });
            second_may_go.recv().unwrap();
            let second = t.key_columns(&[2, 1], |_| {
                polls.fetch_add(1, Ordering::Relaxed);
                Ok::<(), ()>(())
            });
            (first.join().unwrap().unwrap(), second.unwrap())
        });
        assert_eq!(
            polls.into_inner(),
            t.len().div_ceil(BUILD_BLOCK),
            "one build, one pass"
        );
        assert!(Arc::ptr_eq(&a[0], &b[1]) && Arc::ptr_eq(&a[1], &b[0]));
    }

    #[test]
    fn render_contains_headers_and_cells() {
        let r = small().render();
        assert!(r.contains("name"));
        assert!(r.contains("4"));
    }
}
