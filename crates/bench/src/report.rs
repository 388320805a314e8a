//! Rendering for figure/table reproductions: aligned text tables, number
//! formats, and the experiments' machine-readable JSON documents.

use crate::harness::{reduction, BenchEnv};
use fusion_cluster::time::Nanos;

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// let mut t = fusion_bench::report::Table::new(&["col", "p50", "p99"]);
/// t.row(vec!["5".into(), "12.3ms".into(), "30.1ms".into()]);
/// let s = t.render();
/// assert!(s.contains("p99"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(r[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a byte count with binary units.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b}B")
    } else {
        format!("{v:.2}{}", UNITS[u])
    }
}

/// Formats the latency cut of `new` against `base` (see
/// [`reduction`]) as a signed whole percentage, e.g. `+42%`.
pub fn fmt_cut(base: Nanos, new: Nanos) -> String {
    format!("{:+.0}%", 100.0 * reduction(base, new))
}

/// `items` one per line after `indent`, comma-separated: the body of a
/// multi-line JSON array or object.
pub(crate) fn json_lines(items: &[String], indent: &str) -> String {
    let mut out = String::new();
    for (i, item) in items.iter().enumerate() {
        let sep = if i + 1 == items.len() { "" } else { "," };
        out.push_str(&format!("{indent}{item}{sep}\n"));
    }
    out
}

/// A document section holding an array, one pre-formatted item per line
/// (an experiment's cells).
pub(crate) fn json_array(key: &str, items: &[String]) -> String {
    format!("\"{key}\": [\n{}  ]", json_lines(items, "    "))
}

/// A document section holding an object, one pre-formatted
/// `"name": value` entry per line.
pub(crate) fn json_object(key: &str, entries: &[String]) -> String {
    format!("\"{key}\": {{\n{}  }}", json_lines(entries, "    "))
}

/// An experiment's JSON document: its `"experiment"` name, then each
/// section (`"name": value`, pre-formatted: head fields, the cells
/// [`json_array`], tail sections) on its own line.
pub(crate) fn json_document(experiment: &str, sections: &[String]) -> String {
    let mut all = vec![format!("\"experiment\": \"{experiment}\"")];
    all.extend_from_slice(sections);
    format!("{{\n{}}}\n", json_lines(&all, "  "))
}

/// Writes [`json_document`] to `<file>` in the environment's output
/// directory ([`BenchEnv::out_dir`]), beside the experiment's text.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub(crate) fn write_json(env: &BenchEnv, file: &str, experiment: &str, sections: &[String]) {
    let path = env.out_dir.join(file);
    let _ = std::fs::create_dir_all(&env.out_dir);
    std::fs::write(&path, json_document(experiment, sections))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(vec!["xxxxx".into(), "y".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a    "));
        assert!(lines[2].starts_with("xxxxx"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.00KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00MiB");
    }

    #[test]
    fn cut_formatting() {
        assert_eq!(fmt_cut(Nanos(200), Nanos(100)), "+50%");
        assert_eq!(fmt_cut(Nanos(100), Nanos(105)), "-5%");
        assert_eq!(fmt_cut(Nanos::ZERO, Nanos(5)), "+0%");
    }

    #[test]
    fn json_document_without_cells() {
        let doc = json_document("e", &[json_array("cells", &[])]);
        assert_eq!(doc, "{\n  \"experiment\": \"e\",\n  \"cells\": [\n  ]\n}\n");
    }

    #[test]
    fn json_document_with_one_cell() {
        let doc = json_document(
            "e",
            &[
                "\"rows\": 3".into(),
                json_array("cells", &["{\"a\": 1}".into()]),
            ],
        );
        assert_eq!(
            doc,
            "{\n  \"experiment\": \"e\",\n  \"rows\": 3,\n  \"cells\": [\n    {\"a\": 1}\n  ]\n}\n"
        );
    }

    #[test]
    fn json_document_with_head_cells_and_tail() {
        let cells = [
            "{\"a\": 1}".to_string(),
            "{\"a\": 2}".into(),
            "{\"a\": 3}".into(),
        ];
        let doc = json_document(
            "e",
            &[
                "\"n\": 1, \"m\": 2".into(),
                json_array("codes", &cells),
                "\"ratio\": 2.50".into(),
                json_object("speedups", &["\"x\": 1.00".into(), "\"y\": 2.00".into()]),
                json_object("empty", &[]),
            ],
        );
        assert_eq!(
            doc,
            "{\n  \"experiment\": \"e\",\n  \"n\": 1, \"m\": 2,\n  \"codes\": [\n    {\"a\": 1},\n    \
             {\"a\": 2},\n    {\"a\": 3}\n  ],\n  \"ratio\": 2.50,\n  \"speedups\": {\n    \
             \"x\": 1.00,\n    \"y\": 2.00\n  },\n  \"empty\": {\n  }\n}\n"
        );
    }

    #[test]
    fn json_lines_take_any_indent() {
        assert_eq!(json_lines(&[], "  "), "");
        assert_eq!(
            json_lines(&["1".into(), "2".into()], "      "),
            "      1,\n      2\n"
        );
    }
}
