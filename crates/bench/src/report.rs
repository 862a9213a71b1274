//! Fixed-width table rendering for the paper-reproduction binaries.
//!
//! Every table the `tables` binary prints has the paper's layout, with
//! extra columns carrying the paper's reported value next to ours so the
//! *shape* comparison (who wins, by roughly what factor) is one glance.

/// Column alignment.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (names).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple fixed-width table printer.
pub struct Table {
    title: String,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[(&str, Align)]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|(h, _)| h.to_string()).collect(),
            aligns: headers.iter().map(|(_, a)| *a).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a visual separator row.
    pub fn separator(&mut self) {
        self.rows.push(Vec::new());
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line_len = widths.iter().sum::<usize>() + 3 * (ncol - 1);
        let mut out = String::new();
        out.push_str(&format!("\n{}\n", self.title));
        out.push_str(&format!("{}\n", "=".repeat(line_len.max(self.title.len()))));
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            out.push_str(&pad(h, widths[i], Align::Left));
        }
        out.push('\n');
        out.push_str(&format!("{}\n", "-".repeat(line_len)));
        for row in &self.rows {
            if row.is_empty() {
                out.push_str(&format!("{}\n", "-".repeat(line_len)));
                continue;
            }
            for (i, c) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                out.push_str(&pad(c, widths[i], self.aligns[i]));
            }
            out.push('\n');
        }
        out
    }

    /// The data rows, without separators.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[String]> {
        self.rows.iter().filter(|r| !r.is_empty()).map(Vec::as_slice)
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

fn pad(s: &str, w: usize, a: Align) -> String {
    match a {
        Align::Left => format!("{s:<w$}"),
        Align::Right => format!("{s:>w$}"),
    }
}

/// Format seconds with 3 decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Format a byte count as MB with 2 decimals (the paper's unit).
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

/// Format a relative overhead as a signed percentage.
pub fn pct(rel: f64) -> String {
    format!("{:+.1}%", rel * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_rows() {
        let mut t = Table::new("Demo", &[("name", Align::Left), ("value", Align::Right)]);
        t.row(vec!["alpha".into(), "1.0".into()]);
        t.separator();
        t.row(vec!["b".into(), "123.45".into()]);
        let s = t.render();
        assert!(s.contains("alpha"));
        assert!(s.contains("123.45"));
        // Right alignment: "1.0" padded to the width of "123.45".
        assert!(s.contains("|    1.0"), "got:\n{s}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_wrong_width() {
        let mut t = Table::new("x", &[("a", Align::Left)]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(mb(2_500_000), "2.50");
        assert_eq!(pct(0.042), "+4.2%");
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
    }
}
