//! Plain-text table rendering for the experiment harness.

use std::fmt;

/// A simple fixed-width table: the output format of every reproduced
/// figure and table in `crates/bench`.
///
/// # Example
///
/// ```
/// let mut t = gcs_analysis::Table::new(vec!["D", "skew", "bound"]);
/// t.row(vec!["8".into(), "0.41".into(), "1.00".into()]);
/// let s = t.to_string();
/// assert!(s.contains("skew"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Convenience: appends a row of displayable values.
    pub fn row_display<T: fmt::Display>(&mut self, cells: Vec<T>) -> &mut Self {
        self.row(cells.into_iter().map(|c| c.to_string()).collect())
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders a table line by line into `emit` (each line ends in a
    /// newline): the headers, a dash rule, then `rows`, each cell
    /// right-aligned to its column's entry of `widths` and columns two
    /// spaces apart. `widths` holds each column's widest cell in chars,
    /// header included: `Display` measures them from the stored rows, and a
    /// caller with more rows than it can hold computes them up front.
    pub fn write_streaming<E>(
        headers: impl IntoIterator<Item = impl AsRef<str>>,
        widths: &[usize],
        rows: impl IntoIterator<Item = impl IntoIterator<Item = impl AsRef<str>>>,
        mut emit: impl FnMut(&str) -> Result<(), E>,
    ) -> Result<(), E> {
        fn line(
            out: &mut String,
            widths: &[usize],
            cells: impl IntoIterator<Item = impl AsRef<str>>,
        ) {
            use fmt::Write as _;
            out.clear();
            for (i, (cell, &w)) in cells.into_iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                // Writing to a `String` cannot fail.
                let _ = write!(out, "{:>w$}", cell.as_ref());
            }
            out.push('\n');
        }
        let mut buf = String::new();
        line(&mut buf, widths, headers);
        emit(&buf)?;
        let total = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        emit(&format!("{}\n", "-".repeat(total)))?;
        for row in rows {
            line(&mut buf, widths, row);
            emit(&buf)?;
        }
        Ok(())
    }

    /// Renders as CSV (no quoting; intended for numeric tables).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        Table::write_streaming(&self.headers, &widths, &self.rows, |line| f.write_str(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["12345".into(), "x".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].trim_start().starts_with("12345"));
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut t = Table::new(vec!["x", "y"]);
        t.row_display(vec![1.5, 2.5]);
        t.row_display(vec![3.0, 4.0]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next().unwrap(), "x,y");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(vec!["only"]);
        t.row(vec!["a".into(), "b".into()]);
    }
}
