//! Minimal aligned-column table printing for the harness output.
//!
//! Every cell is built as either a seeded value or a wall-clock reading
//! ([`Cell`]), so the one place that decides what is timing is the code
//! that measures it. `harness` prints both kinds; `harness check`
//! renders with [`Timing::Masked`], which replaces every timed cell by
//! [`MASK`] and leaves text that the seeds alone determine.

/// One table cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cell {
    /// A value that follows from the experiment's seeds and constants.
    Seeded(String),
    /// A wall-clock reading (or a figure derived from one).
    Timed(String),
}

impl From<String> for Cell {
    fn from(text: String) -> Cell {
        Cell::Seeded(text)
    }
}

/// How [`Cell::Timed`] cells render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// As measured.
    Shown,
    /// As [`MASK`], so the rendering is a function of the seeds alone.
    Masked,
}

/// What a timed cell renders as under [`Timing::Masked`].
pub const MASK: &str = "<clock>";

impl Cell {
    fn text(&self, timing: Timing) -> &str {
        match (self, timing) {
            (Cell::Timed(_), Timing::Masked) => MASK,
            (Cell::Seeded(text) | Cell::Timed(text), _) => text,
        }
    }
}

/// A printable table: header + rows of cells.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl TextTable {
    /// Start a table with column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row: plain strings are seeded cells, timings are passed
    /// as [`Cell::Timed`].
    pub fn row<C: Into<Cell>>(&mut self, cells: Vec<C>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self, timing: Timing) -> String {
        let rows: Vec<Vec<&str>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|c| c.text(timing)).collect())
            .collect();
        let cols = self
            .header
            .len()
            .max(rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[&str], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
        fmt_row(&header, &mut out);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a duration in adaptive units.
pub fn dur(d: std::time::Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["a".to_string(), "1".into()]);
        t.row(vec!["longer".to_string(), "22".into()]);
        let s = t.render(Timing::Shown);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn masking_hides_timed_cells_only() {
        let mut t = TextTable::new(&["n", "time"]);
        t.row(vec![Cell::Seeded("7".into()), Cell::Timed("123.4ms".into())]);
        let shown = t.render(Timing::Shown);
        let masked = t.render(Timing::Masked);
        assert!(shown.contains("123.4ms"), "{shown}");
        assert_eq!(masked.lines().nth(2), Some("7  <clock>"), "{masked}");
    }
}
