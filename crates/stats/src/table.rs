//! Fixed-width text tables for harness output.

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<width$}", width = widths[c]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Format helper: fixed 2-decimal float.
    fn f2(x: f64) -> String {
        format!("{x:.2}")
    }

    /// Format helper: percentage with 1 decimal.
    fn pct(x: f64) -> String {
        format!("{x:.1}%")
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["bench", "GIL", "HTM-dynamic"]);
        t.row(&["BT".into(), "1.00".into(), "3.10".into()]);
        t.row(&["FT".into(), "1.00".into(), "4.40".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("bench"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "GIL" column starts at the same offset everywhere.
        let off = lines[0].find("GIL").unwrap();
        assert_eq!(&lines[2][off..off + 4], "1.00");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn format_helpers() {
        assert_eq!(f2(3.141_25), "3.14");
        assert_eq!(pct(12.345), "12.3%");
    }
}
