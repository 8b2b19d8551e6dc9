//! Plain-text table rendering for experiment output.
//!
//! The bench binaries print tables shaped like the paper's (same rows,
//! same columns) so paper-vs-measured comparison is a side-by-side read.

use std::fmt::Write as _;

/// A simple left-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    ///
    /// # Panics
    /// Panics when the row width differs from the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}", cell, w = widths[c] + 2);
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(["Scheme", "Mean", "Median"]);
        t.row(["Octopus", "2.15", "1.61"]);
        t.row(["Chord", "1.35", "0.35"]);
        let s = t.render();
        assert!(s.contains("Octopus"));
        assert!(s.contains("Chord"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // all rows equal width
        assert_eq!(
            lines[0].len(),
            lines[2].trim_end().len().max(lines[0].len())
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn empty_table() {
        let t = TextTable::new(["x"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.render().contains('x'));
    }
}
