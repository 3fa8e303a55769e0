//! Plain-text tables for experiment reports.

use std::fmt::Write as _;

/// A fixed-column text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub(crate) fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a note line printed under the table (used for the paper's
    /// qualitative claim next to the measured shape).
    pub(crate) fn note(&mut self, text: impl Into<String>) -> &mut Self {
        self.notes.push(text.into());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, " {cell:>w$} |", w = w);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<w$}|", "", w = w + 2);
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }
}

/// Formats a float with the given number of decimals.
pub(crate) fn num(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// Formats a percentage.
pub(crate) fn pct(x: f64) -> String {
    format!("{x:.2}%")
}

/// Formats a value in scientific notation when tiny (lost-block rates).
pub(crate) fn sci(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x < 0.01 {
        format!("{x:.2e}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "22".into()]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("note: a note"));
        // Every data line has the same width.
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn row_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn number_formats() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(pct(12.3456), "12.35%");
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(0.000045), "4.50e-5");
        assert_eq!(sci(1.5), "1.500");
    }
}
