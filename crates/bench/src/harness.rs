//! Small shared utilities for the experiment binaries.

/// A plain-text/markdown table builder with aligned columns.
#[derive(Debug, Clone, Default)]
pub struct MarkdownTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MarkdownTable {
    /// Creates a table with the given header cells.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row (padded/truncated to the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut r: Vec<String> = cells.to_vec();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Convenience for string-slice rows.
    pub fn row_strs(&mut self, cells: &[&str]) -> &mut Self {
        self.row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with `|` separators and aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|", sep.join("-|-")));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats microseconds human-readably (`950 us`, `12.3 ms`, `4.56 s`).
pub fn format_duration_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us} us")
    } else if us < 1_000_000 {
        format!("{:.1} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2} s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = MarkdownTable::new(&["name", "value"]);
        t.row_strs(&["a", "1"]);
        t.row_strs(&["long_name", "22"]);
        let s = t.render();
        assert!(s.contains("| name      | value |"));
        assert!(s.contains("| long_name | 22    |"));
        assert_eq!(s.lines().count(), 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn short_rows_padded() {
        let mut t = MarkdownTable::new(&["a", "b", "c"]);
        t.row_strs(&["x"]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration_us(950), "950 us");
        assert_eq!(format_duration_us(12_300), "12.3 ms");
        assert_eq!(format_duration_us(4_560_000), "4.56 s");
    }
}
