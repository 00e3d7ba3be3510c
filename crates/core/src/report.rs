//! Table formatting shared by the benchmark harness binaries.

/// A simple fixed-width text table.
///
/// ```
/// use ascend::report::TextTable;
///
/// let mut t = TextTable::new(vec!["Design", "Area", "MAE"]);
/// t.row(vec!["ours".into(), "123.4".into(), "0.01".into()]);
/// let s = t.render();
/// assert!(s.contains("Design"));
/// assert!(s.contains("ours"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
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

    /// Renders with aligned columns and a separator line.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(c, cell)| format!("{:<width$}", cell, width = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a number in engineering style (`1.26e4`-like for large values,
/// plain decimals for small ones) — matching how the paper prints areas.
pub fn eng(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e4 {
        format!("{:.2e}", v)
    } else if v.abs() >= 100.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 1.0 {
        format!("{:.2}", v)
    } else {
        format!("{:.4}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_aligned() {
        let mut t = TextTable::new(vec!["a", "long-header"]);
        t.row(vec!["xxxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // All lines equal length (aligned columns).
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn row_arity_checked() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn eng_formats() {
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(12600.0), "1.26e4");
        assert_eq!(eng(645.1), "645");
        assert_eq!(eng(16.12), "16.12");
        assert_eq!(eng(0.0155), "0.0155");
    }
}
