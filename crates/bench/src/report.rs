//! Result emission: terminal tables and CSV files under `results/`.

use device::hash::Fnv1aLegacy;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A simple fixed-column terminal table.
///
/// # Examples
///
/// ```
/// use bench_harness::Table;
/// let mut t = Table::new(&["bench", "fidelity"]);
/// t.row(&["BV-7", "0.62"]);
/// let s = t.render();
/// assert!(s.contains("BV-7"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends a row of already-owned cells.
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}", cell, width = widths[i] + 2);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().map(|w| w + 2).sum::<usize>();
        out.push_str(&"-".repeat(total.min(120)));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        let _ = ncols;
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// A CSV file accumulating under `results/`.
#[derive(Debug)]
pub struct Csv {
    path: PathBuf,
    buffer: String,
}

impl Csv {
    /// Opens a CSV named `results/<name>.csv` with the given header.
    pub fn create(out_dir: &Path, name: &str, header: &[&str]) -> Self {
        let path = out_dir.join(format!("{name}.csv"));
        let mut buffer = String::new();
        let _ = writeln!(buffer, "{}", header.join(","));
        Csv { path, buffer }
    }

    /// Appends a record.
    pub fn row(&mut self, cells: &[String]) {
        let _ = writeln!(self.buffer, "{}", cells.join(","));
    }

    /// Appends a record of display-able values.
    pub fn rowd(&mut self, cells: &[&dyn std::fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells);
    }

    /// Writes the file to disk.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn flush(&self) -> io::Result<()> {
        if let Some(parent) = self.path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(&self.path, &self.buffer)?;
        println!("  wrote {}", self.path.display());
        Ok(())
    }
}

/// Renders a sparse text histogram for terminal output (used by the
/// distribution figures).
pub fn text_histogram(values: &[f64], lo: f64, hi: f64, bins: usize) -> String {
    let mut counts = vec![0usize; bins];
    for &v in values {
        let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0 - 1e-12);
        counts[(t * bins as f64) as usize] += 1;
    }
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        let bl = lo + (hi - lo) * i as f64 / bins as f64;
        let bh = lo + (hi - lo) * (i + 1) as f64 / bins as f64;
        let bar = "#".repeat((c * 50).div_ceil(max).min(50));
        let _ = writeln!(out, "  [{bl:6.2},{bh:6.2})  {c:5}  {bar}");
    }
    out
}

/// The `replay_digest` a seeded harness writes to its `BENCH_*.json`:
/// the 64-bit [legacy](Fnv1aLegacy) FNV-1a hash of the digest lines
/// its determinism replay compares, each terminated by a newline, as 16
/// hex digits. CI pins the quick-mode values in
/// `results/replay_digests.json`, so a change that alters any answer
/// fails the smoke job rather than only the two-run comparison.
pub fn replay_digest<'a>(lines: impl IntoIterator<Item = &'a String>) -> String {
    let mut h = Fnv1aLegacy::new();
    for line in lines {
        h.mix(line.as_bytes());
        h.mix(b"\n");
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_and_contains_rows() {
        let mut t = Table::new(&["a", "bench"]);
        t.row(&["1", "x"]).row(&["22", "yy"]);
        let s = t.render();
        assert!(s.contains("bench"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_bad_rows() {
        Table::new(&["a"]).row(&["1", "2"]);
    }

    #[test]
    fn csv_writes_and_flushes() {
        let dir = std::env::temp_dir().join("adapt_csv_test");
        let mut csv = Csv::create(&dir, "t", &["x", "y"]);
        csv.row(&["1".into(), "2".into()]);
        csv.rowd(&[&3, &4.5]);
        csv.flush().unwrap();
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert!(content.starts_with("x,y\n1,2\n3,4.5\n"));
    }

    #[test]
    fn replay_digest_is_fnv1a_over_newline_terminated_lines() {
        // FNV-1a 64 of the empty input is the offset basis.
        assert_eq!(replay_digest(&[]), "cbf29ce484222325");
        let ab = ["a".to_string(), "b".to_string()];
        let joined = ["a\nb".to_string()];
        assert_eq!(replay_digest(&ab), replay_digest(&joined));
        assert_ne!(replay_digest(&ab), replay_digest(&ab[..1]));
    }

    #[test]
    fn histogram_buckets_values() {
        let s = text_histogram(&[0.1, 0.1, 0.9], 0.0, 1.0, 2);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("2"));
        assert!(lines[1].contains("1"));
    }
}
