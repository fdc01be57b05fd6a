//! Plain-text table rendering.
//!
//! The experiment harness prints each regenerated paper table/figure as an
//! aligned text table so results can be eyeballed against the paper and
//! diffed across runs.

use std::fmt;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use proram_stats::Table;
///
/// let mut t = Table::new(&["bench", "speedup"]);
/// t.row(&["fft", "0.18"]);
/// t.row(&["ocean_c", "0.42"]);
/// let s = t.to_string();
/// assert!(s.contains("ocean_c"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: AsRef<str>>(headers: &[S]) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Table {
            headers: headers.iter().map(|h| h.as_ref().to_owned()).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the table.
    pub fn with_title<S: Into<String>>(mut self, title: S) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row of cells.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_owned()).collect());
        self
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The title, if set.
    pub fn title(&self) -> Option<&str> {
        self.title.as_deref()
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        if let Some(title) = &self.title {
            writeln!(f, "== {title} ==")?;
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        let rule_len = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(rule_len))?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// Formats a ratio as a signed percentage string, e.g. `+20.2%`.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Formats a float with three significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]).with_title("demo");
        t.row(&["a", "1"]);
        t.row(&["longer", "22"]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("name"));
        let lines: Vec<&str> = s.lines().collect();
        // title + header + rule + 2 rows
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_panic() {
        Table::new::<&str>(&[]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut t = Table::new(&["x"]);
        assert!(t.is_empty());
        t.row(&["1"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn accessors_expose_contents() {
        let mut t = Table::new(&["a", "b"]).with_title("t");
        t.row(&["1", "2"]);
        assert_eq!(t.headers(), &["a".to_owned(), "b".to_owned()]);
        assert_eq!(t.rows()[0], vec!["1".to_owned(), "2".to_owned()]);
        assert_eq!(t.title(), Some("t"));
    }

    #[test]
    fn pct_and_f3_formatting() {
        assert_eq!(pct(0.202), "+20.2%");
        assert_eq!(pct(-0.05), "-5.0%");
        assert_eq!(f3(1.23456), "1.235");
    }
}
