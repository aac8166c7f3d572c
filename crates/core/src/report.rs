//! Plain-text table rendering for experiment output.

use std::fmt::Write as _;

/// A fixed-width text table matching the rows the paper's figures plot.
///
/// # Example
///
/// ```
/// use hh_core::Table;
///
/// let mut t = Table::new(vec!["System".into(), "P99 [ms]".into()]);
/// t.row(vec!["NoHarvest".into(), "1.23".into()]);
/// let s = t.render();
/// assert!(s.contains("NoHarvest"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Convenience: a row of a label plus f64 cells with 3 decimals.
    pub fn row_f64(&mut self, label: &str, values: &[f64]) {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.3}")));
        self.row(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate().take(cols) {
                let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["A".into(), "Value".into()]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a-much-longer-label".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Both value cells start at the same column.
        let c1 = lines[2].find('1').unwrap();
        let c2 = lines[3].find('2').unwrap();
        assert_eq!(c1, c2);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn row_f64_formats() {
        let mut t = Table::new(vec!["x".into(), "y".into()]);
        t.row_f64("k", &[1.23456]);
        assert!(t.render().contains("1.235"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a".into(), "b".into(), "c".into()]);
        t.row(vec!["only-one".into()]);
        assert!(t.render().contains("only-one"));
    }
}
