//! # resilient-bench
//!
//! Experiment harness shared by the `exp_*` binaries and the Criterion
//! benches: plain-text table rendering, CSV emission, and small sweep
//! helpers used by the experiments catalogued in `docs/experiments.md`.

#![warn(missing_docs)]

use std::fmt::Write as _;

/// A simple fixed-width table printer for experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (already formatted as strings).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n=== {} ===", self.title);
        let mut header_line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(header_line, "{:>width$}  ", h, width = w);
        }
        let _ = writeln!(out, "{}", header_line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(header_line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{:>width$}  ", c, width = w);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Render the table as CSV (header row included).
    fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Print the table to stdout and, if `RESILIENCE_CSV_DIR` is set, also
    /// write `<dir>/<slug>.csv`.
    pub fn emit(&self, slug: &str) {
        print!("{}", self.render());
        if let Ok(dir) = std::env::var("RESILIENCE_CSV_DIR") {
            let path = std::path::Path::new(&dir).join(format!("{slug}.csv"));
            if std::fs::create_dir_all(&dir).is_ok() {
                let _ = std::fs::write(path, self.to_csv());
            }
        }
    }
}

/// Format a float compactly for table cells.
pub fn fmt_g(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if !v.is_finite() {
        format!("{v}")
    } else if v.abs() >= 1e4 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// Format a ratio as `x.xx×`.
pub fn fmt_ratio(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_serialises() {
        let mut t = Table::new("demo", &["a", "bee"]);
        assert!(t.is_empty());
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["30".into(), "4.5".into()]);
        assert_eq!(t.len(), 2);
        let text = t.render();
        assert!(text.contains("=== demo ==="));
        assert!(text.contains("bee"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("a,bee"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_g(0.0), "0");
        assert_eq!(fmt_g(1.5), "1.5000");
        assert!(fmt_g(1.0e-9).contains('e'));
        assert!(fmt_g(123456.0).contains('e'));
        assert_eq!(fmt_ratio(2.0), "2.00x");
        assert_eq!(fmt_g(f64::INFINITY), "inf");
    }
}
