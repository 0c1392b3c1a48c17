//! Tabular output helpers: aligned console tables plus CSV files under
//! `results/` for downstream plotting.

use skyline_storage::write_text;
use std::fmt::Write as _;
use std::path::Path;

/// A simple column-aligned table with a title, printed to stdout and
/// optionally saved as CSV.
pub struct ReportTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ReportTable {
    /// Start a table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        ReportTable {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    ///
    /// # Panics
    /// When `cells` does not have one cell per header column.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let line = |out: &mut String, row: &[String]| {
            for (i, c) in row.iter().enumerate() {
                let pad = widths[i] - c.len();
                // right-align numbers, left-align first col
                if i == 0 {
                    let _ = write!(out, "{c}{} ", " ".repeat(pad + 1));
                } else {
                    let _ = write!(out, "{}{c}  ", " ".repeat(pad));
                }
            }
            let _ = writeln!(out);
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            line(&mut out, r);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Write as CSV under `dir` (created if needed), named
    /// `<slug>.csv`.
    ///
    /// # Errors
    /// I/O errors creating or writing the file.
    pub fn save_csv(&self, dir: impl AsRef<Path>, slug: &str) -> std::io::Result<()> {
        let path = dir.as_ref().join(format!("{slug}.csv"));
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.header.join(","));
        for r in &self.rows {
            let _ = writeln!(csv, "{}", r.join(","));
        }
        write_text(&path, &csv)?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }
}

/// Write `contents` to `path` verbatim — the saving side of every
/// bench report (JSON baselines, rendered tables).
///
/// # Errors
/// I/O errors creating or writing the file.
pub fn save_text(path: impl AsRef<Path>, contents: &str) -> std::io::Result<()> {
    write_text(path.as_ref(), contents)
}

/// Format milliseconds compactly.
pub fn ms(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.2}s", v / 1000.0)
    } else {
        format!("{v:.1}ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = ReportTable::new("demo", &["name", "x"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "23".into()]);
        let r = t.render();
        assert!(r.contains("# demo"));
        assert!(r.contains("longer"));
    }

    #[test]
    fn csv_round_trip() {
        let mut t = ReportTable::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join(format!("skyline-report-{}", std::process::id()));
        t.save_csv(&dir, "demo").unwrap();
        let text = skyline_storage::read_text(&dir.join("demo.csv")).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(12.34), "12.3ms");
        assert_eq!(ms(2500.0), "2.50s");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = ReportTable::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
