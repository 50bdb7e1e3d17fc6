//! Aligned text tables.

/// A simple column-aligned text table.
///
/// # Example
///
/// ```
/// use limba_viz::table::TextTable;
/// let mut t = TextTable::new(vec!["a".into(), "b".into()]);
/// t.row(vec!["1".into(), "22".into()]);
/// let s = t.render();
/// assert!(s.lines().count() >= 3); // header, separator, one row
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows
    /// extend the column count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders the table with single-space-padded, left-aligned header
    /// and right-aligned numeric-looking cells.
    pub fn render(&self) -> String {
        let columns = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; columns];
        fn cell(row: &[String], c: usize) -> &str {
            row.get(c).map(|s| s.as_str()).unwrap_or("")
        }
        for (c, width) in widths.iter_mut().enumerate() {
            *width = self
                .rows
                .iter()
                .map(|r| cell(r, c).chars().count())
                .chain([cell(&self.header, c).chars().count()])
                .max()
                .unwrap_or(0);
        }
        let mut out = String::new();
        let render_row = |out: &mut String, row: &[String], pad_left: bool| {
            for (c, &width) in widths.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                let text = cell(row, c);
                let pad = width.saturating_sub(text.chars().count());
                if pad_left {
                    out.extend(std::iter::repeat_n(' ', pad));
                    out.push_str(text);
                } else {
                    out.push_str(text);
                    out.extend(std::iter::repeat_n(' ', pad));
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header, false);
        let total: usize = widths.iter().sum::<usize>() + 2 * columns.saturating_sub(1);
        out.extend(std::iter::repeat_n('-', total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row, true);
        }
        out
    }
}

/// Formats a time or index for table display: five significant decimals,
/// or `"-"` for absent values.
pub(crate) fn cell(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.5}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name".into(), "value".into()]);
        t.row(vec!["x".into(), "1.5".into()]);
        t.row(vec!["longer".into(), "10".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Header left-aligned, data right-aligned in each column.
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = TextTable::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec![]);
        let s = t.render();
        assert!(s.contains('3'));
    }

    #[test]
    fn cell_formats_presence_and_absence() {
        assert_eq!(cell(Some(0.123456789)), "0.12346");
        assert_eq!(cell(None), "-");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new(vec!["h".into()]);
        let s = t.render();
        assert_eq!(s.lines().count(), 2);
    }
}
