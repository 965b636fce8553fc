//! Plain-text experiment reporting: aligned tables for the terminal and CSV
//! files for downstream plotting.
//!
//! The bench binaries print the same rows the paper's claims describe
//! (e.g. `n`, median rounds, polylog-exponent fit) both as an aligned table
//! on stdout and, optionally, as CSV next to the bench results.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// An in-memory table with a header row and homogeneous string cells.
///
/// # Examples
///
/// ```
/// use pp_engine::report::Table;
///
/// let mut t = Table::new(vec!["n", "rounds"]);
/// t.row(vec!["1024".into(), "42.5".into()]);
/// let text = t.render();
/// assert!(text.contains("1024"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty(), "table needs at least one column");
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// The column headers.
    #[must_use]
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows, each as wide as the header.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned plain-text table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                let _ = write!(out, "{cell:>w$}", w = w);
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-style quoting for cells containing
    /// commas, quotes, or newlines).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| esc(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.header);
        for row in &self.rows {
            write_row(row);
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation or the write.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// Formats a float compactly for table cells (4 significant digits).
#[must_use]
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e4 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
            .trim_end_matches('0')
            .trim_end_matches('.')
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["n", "time"]);
        t.row(vec!["8".into(), "1.5".into()]);
        t.row(vec!["1024".into(), "12.25".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('n') && lines[0].contains("time"));
        assert!(lines[2].ends_with("1.5"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new(vec!["k", "v"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn csv_roundtrips_plain_cells() {
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["42".into()]);
        assert_eq!(t.to_csv(), "x\n42\n");
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join("pp_engine_report_test");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("sub/out.csv");
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into()]);
        t.write_csv(&path).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "a\n1\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fmt_f64_is_compact() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(12.25), "12.25");
        assert!(fmt_f64(123456.0).contains('e'));
        assert!(fmt_f64(0.00001).contains('e'));
    }
}
