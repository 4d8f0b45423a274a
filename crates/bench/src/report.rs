//! Experiment report rendering: console tables plus JSON archives.
//!
//! Every figure prints the same rows/series the paper reports and archives
//! a machine-readable copy under `target/experiments/<id>.json`; the
//! numbers quoted in `REPRODUCTION.md` come from these archives.

use serde_json::Value;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A rendered experiment report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Figure id, e.g. `fig07_iso_speedup_aids`: the `reproduce` argument
    /// and the archive's file name.
    pub id: String,
    /// Human title, e.g. the paper's figure caption.
    pub title: String,
    /// Pre-rendered console lines.
    pub lines: Vec<String>,
    /// Machine-readable payload.
    pub json: Value,
}

impl Report {
    /// A new report.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Report {
        Report {
            id: id.into(),
            title: title.into(),
            lines: Vec::new(),
            json: Value::Null,
        }
    }

    /// Appends a console line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Appends a rendered table.
    pub fn table(&mut self, table: &Table) {
        self.lines.extend(table.render());
    }

    /// Makes `records` (JSON objects with the same keys) the payload and
    /// renders them as a table, one column per key.
    pub fn records(&mut self, records: Vec<Value>) {
        let fields = |r: &Value| match r {
            Value::Object(m) => m.iter().map(|(k, v)| (k.clone(), cell(v))).collect(),
            _ => Vec::new(),
        };
        let rows: Vec<Vec<(String, String)>> = records.iter().map(fields).collect();
        let mut table = Table::new(rows.first().into_iter().flatten().map(|(k, _)| k.clone()));
        for row in rows {
            table.row(row.into_iter().map(|(_, v)| v));
        }
        self.table(&table);
        self.json = Value::Array(records);
    }

    /// Renders to one string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let bar = "=".repeat(self.title.len().min(78));
        let _ = writeln!(out, "{}\n{}", self.title, bar);
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        out
    }

    /// Prints to stdout and archives the JSON payload.
    pub fn emit(&self) {
        println!("{}", self.render());
        if let Err(e) = self.save_json() {
            eprintln!("warning: could not archive report json: {e}");
        }
    }

    /// Archive directory (created on demand).
    pub fn archive_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments")
    }

    fn save_json(&self) -> std::io::Result<()> {
        let dir = Self::archive_dir();
        fs::create_dir_all(&dir)?;
        let payload = serde_json::json!({
            "id": self.id,
            "title": self.title,
            "data": self.json,
        });
        fs::write(
            dir.join(format!("{}.json", self.id)),
            serde_json::to_string_pretty(&payload)?,
        )
    }
}

/// Fixed-width table helper.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        debug_assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders as console lines.
    pub fn render(&self) -> Vec<String> {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = Vec::with_capacity(self.rows.len() + 2);
        out.push(fmt_row(&self.header));
        out.push(
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        for row in &self.rows {
            out.push(fmt_row(row));
        }
        out
    }
}

/// A JSON value as a table cell: strings verbatim, integers whole, other
/// numbers to two decimals.
fn cell(v: &Value) -> String {
    match (v, v.as_u64()) {
        (Value::String(s), _) => s.clone(),
        (_, Some(n)) => n.to_string(),
        _ => format!("{:.2}", v.as_f64().unwrap_or(f64::NAN)),
    }
}

/// Formats a speedup multiplier, e.g. `6.3x`.
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1_000.0 {
        format!("{us:.0}us")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{:.2}s", us / 1_000_000.0)
    }
}

/// Formats bytes as MB with two decimals (Fig. 18's unit).
pub fn fmt_mb(bytes: u64) -> String {
    format!("{:.2}MB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["method", "speedup"]);
        t.row(["GGSX", "6.31x"]);
        t.row(["Grapes(6)", "9.20x"]);
        let lines = t.render();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("method"));
        assert!(lines[2].ends_with("6.31x"));
        // All lines equal width.
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_speedup(6.314), "6.31x");
        assert_eq!(fmt_mb(1024 * 1024), "1.00MB");
        assert_eq!(fmt_duration(std::time::Duration::from_micros(500)), "500us");
        assert_eq!(fmt_duration(std::time::Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(std::time::Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn report_render_includes_title_and_lines() {
        let mut r = Report::new("test", "Test Title");
        r.line("hello");
        let s = r.render();
        assert!(s.contains("Test Title"));
        assert!(s.contains("hello"));
    }
}
