//! Minimal CSV import/export for [`Table`] (header row required).
//!
//! Quoting rules: fields containing commas, quotes, or newlines are wrapped
//! in double quotes; embedded quotes are doubled. Types on import are
//! inferred per column from the data (Int ⊂ Float ⊂ Str) unless a schema is
//! supplied.

use crate::schema::{Column, ColumnType, Schema};
use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Errors reading CSV.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the CSV text.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description.
        msg: String,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv io error: {e}"),
            CsvError::Parse { line, msg } => write!(f, "csv parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Split one CSV line into fields, honouring double-quote quoting.
fn split_line(line: &str, lineno: usize) -> Result<Vec<String>, CsvError> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else {
            match c {
                '"' if cur.is_empty() => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut cur)),
                _ => cur.push(c),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::Parse {
            line: lineno,
            msg: "unterminated quoted field".into(),
        });
    }
    fields.push(cur);
    Ok(fields)
}

fn parse_cell(raw: &str, ty: ColumnType) -> Value {
    let s = raw.trim();
    if s.is_empty() {
        return Value::Null;
    }
    match ty {
        ColumnType::Int => s.parse::<i64>().map(Value::Int).unwrap_or(Value::Null),
        ColumnType::Date => s.parse::<i64>().map(Value::Date).unwrap_or(Value::Null),
        ColumnType::Float => s
            .parse::<f64>()
            .ok()
            .and_then(|f| Value::float(f).ok())
            .unwrap_or(Value::Null),
        ColumnType::Str => Value::Str(s.to_owned()),
    }
}

fn infer_type(cells: &[String]) -> ColumnType {
    let mut ty = ColumnType::Int;
    for c in cells {
        let s = c.trim();
        if s.is_empty() {
            continue;
        }
        match ty {
            ColumnType::Int => {
                if s.parse::<i64>().is_err() {
                    ty = if s.parse::<f64>().is_ok() {
                        ColumnType::Float
                    } else {
                        ColumnType::Str
                    };
                }
            }
            ColumnType::Float => {
                if s.parse::<f64>().is_err() {
                    ty = ColumnType::Str;
                }
            }
            _ => return ColumnType::Str,
        }
    }
    ty
}

/// Read a table from CSV text with a header row. When `schema` is `None`,
/// column types are inferred from the data.
///
/// # Errors
/// [`CsvError::Io`] from the reader; [`CsvError::Parse`] with the line number
/// for an empty input, a ragged row or a cell its column type rejects.
pub fn read_csv<R: BufRead>(reader: R, schema: Option<Schema>) -> Result<Table, CsvError> {
    let mut lines = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if i == 0 || !line.is_empty() {
            lines.push(split_line(&line, i + 1)?);
        }
    }
    if lines.is_empty() {
        return Err(CsvError::Parse {
            line: 1,
            msg: "missing header row".into(),
        });
    }
    let header = lines.remove(0);
    let ncols = header.len();
    for (i, row) in lines.iter().enumerate() {
        if row.len() != ncols {
            return Err(CsvError::Parse {
                line: i + 2,
                msg: format!("expected {ncols} fields, got {}", row.len()),
            });
        }
    }
    let schema = match schema {
        Some(s) => {
            if s.len() != ncols {
                return Err(CsvError::Parse {
                    line: 1,
                    msg: format!("schema has {} columns, header has {ncols}", s.len()),
                });
            }
            s
        }
        None => {
            let cols: Vec<Column> = header
                .iter()
                .enumerate()
                .map(|(j, name)| {
                    let column: Vec<String> = lines.iter().map(|r| r[j].clone()).collect();
                    Column::new(name.trim(), infer_type(&column))
                })
                .collect();
            Schema::new(cols).map_err(|e| CsvError::Parse {
                line: 1,
                msg: e.to_string(),
            })?
        }
    };
    let rows: Vec<Tuple> = lines
        .into_iter()
        .map(|raw| {
            Tuple::new(
                raw.iter()
                    .zip(schema.columns())
                    .map(|(cell, col)| parse_cell(cell, col.ty))
                    .collect(),
            )
        })
        .collect();
    Table::new(schema, rows).map_err(|e| CsvError::Parse {
        line: 0,
        msg: e.to_string(),
    })
}

fn quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Write a table as CSV with a header row.
///
/// # Errors
/// Whatever the writer reports.
pub fn write_csv<W: Write>(table: &Table, mut w: W) -> io::Result<()> {
    let header: Vec<String> = table
        .schema()
        .columns()
        .iter()
        .map(|c| quote(&c.name))
        .collect();
    writeln!(w, "{}", header.join(","))?;
    for row in table.rows() {
        let cells: Vec<String> = row
            .values()
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                other => quote(&other.to_string()),
            })
            .collect();
        writeln!(w, "{}", cells.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip() {
        let t = crate::samples::good_eats();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(Cursor::new(buf), None).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.schema().index_of("price"), Some(4));
        assert_eq!(back.rows()[0].get(0).as_str(), Some("Summer Moon"));
        // price column inferred as Float
        assert_eq!(back.schema().column(4).ty, ColumnType::Float);
        assert_eq!(back.schema().column(1).ty, ColumnType::Int);
    }

    #[test]
    fn quoted_fields() {
        let csv = "name,score\n\"a,b\",1\n\"say \"\"hi\"\"\",2\n";
        let t = read_csv(Cursor::new(csv), None).unwrap();
        assert_eq!(t.rows()[0].get(0).as_str(), Some("a,b"));
        assert_eq!(t.rows()[1].get(0).as_str(), Some("say \"hi\""));
    }

    #[test]
    fn ragged_rows_rejected() {
        let csv = "a,b\n1\n";
        assert!(matches!(
            read_csv(Cursor::new(csv), None),
            Err(CsvError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn empty_cells_become_null() {
        let csv = "a,b\n1,\n,2\n";
        let t = read_csv(Cursor::new(csv), None).unwrap();
        assert!(t.rows()[0].get(1).is_null());
        assert!(t.rows()[1].get(0).is_null());
    }

    #[test]
    fn unterminated_quote_rejected() {
        let csv = "a\n\"oops\n";
        assert!(read_csv(Cursor::new(csv), None).is_err());
    }

    #[test]
    fn explicit_schema_overrides_inference() {
        let csv = "a\n1\n2\n";
        let schema = Schema::of(&[("a", ColumnType::Str)]);
        let t = read_csv(Cursor::new(csv), Some(schema)).unwrap();
        assert_eq!(t.rows()[0].get(0).as_str(), Some("1"));
    }
}
