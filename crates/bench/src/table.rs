//! Plain-text table rendering for experiment output.
//!
//! Every experiment produces one or more [`Table`]s in the layout the
//! paper's claims suggest (a "paper" column next to each "measured"
//! column), printed as aligned text that is also valid Markdown.

use std::fmt::Write as _;

/// A rendered experiment table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub(crate) fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the column count.
    pub(crate) fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width does not match table {:?}",
            self.title
        );
        self.rows.push(cells);
        self
    }

    /// Appends a free-form footnote printed under the table.
    pub(crate) fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Access to raw rows (for tests).
    #[cfg(test)]
    pub(crate) fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as aligned Markdown.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let _ = writeln!(out);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        let _ = writeln!(out, "| {} |", header.join(" | "));
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "| {} |", rule.join(" | "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        for note in &self.notes {
            let _ = writeln!(out, "\n_{note}_");
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub(crate) fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a float with 3 significant decimals, trimming noise.
pub(crate) fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// Formats `mean ± ci` compactly.
pub(crate) fn fmt_mean_ci(mean: f64, ci: f64) -> String {
    format!("{} ± {}", fmt_f64(mean), fmt_f64(ci))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("Demo", &["n", "value"]);
        t.row(vec!["16".into(), "1.25".into()]);
        t.row(vec!["1024".into(), "3".into()]);
        t.note("a footnote");
        let s = t.render();
        assert!(s.starts_with("### Demo"));
        assert!(s.contains("| n    | value |"));
        assert!(s.contains("| 16   | 1.25  |"));
        assert!(s.contains("_a footnote_"));
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.title(), "Demo");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("Bad", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(123.456), "123");
        assert_eq!(fmt_f64(12.345), "12.35");
        assert_eq!(fmt_f64(0.12345), "0.1235");
        assert_eq!(fmt_mean_ci(2.0, 0.5), "2.00 ± 0.5000");
    }
}
