//! # diehard-bench
//!
//! The evaluation harness: eleven binaries, one per table/figure or
//! experiment of the paper (`fig4a`, `fig4b`, `fig5a`, `fig5b`, `table1`,
//! `squid`, `uninit`, `probes`, `ablation`, `fault_injection`,
//! `replicated_scaling`), and [`perf`], the registered kernels that
//! `perf_report` times into `BENCH_<pr>.json`. This library holds the
//! shared plumbing: aligned text tables, geometric means, wall-clock timing,
//! and formatting helpers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod perf;

use std::time::{Duration, Instant};

/// A simple aligned text table, printed like the paper's tables.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String], widths: &[usize]| -> String {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect();
            cells.join("  ").trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Geometric mean of positive values; 0 on empty input.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Times `f`, returning `(result, elapsed)`.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Runs `f` `warmup + runs` times (the paper: "the average of five runs
/// after one warm-up run"), returning the mean of the measured runs in
/// seconds.
pub fn measured_seconds(warmup: usize, runs: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut total = Duration::ZERO;
    for _ in 0..runs {
        let (_, d) = time_it(&mut f);
        total += d;
    }
    total.as_secs_f64() / runs as f64
}

/// True when the process was started with `--smoke`: every evaluation
/// binary shrinks its trial counts and workload scales so CI can exercise
/// all of them in seconds rather than minutes. Results under smoke are for
/// wiring verification only, not for reading numbers off.
#[must_use]
pub fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// `full` normally, `quick` under [`smoke`].
#[must_use]
pub fn smoke_scaled<T>(full: T, quick: T) -> T {
    if smoke() {
        quick
    } else {
        full
    }
}

/// Positional command-line arguments (program name and `--flags` removed),
/// so binaries taking `[scale]`/`[runs]` positionals coexist with `--smoke`.
#[must_use]
pub fn positional_args() -> Vec<String> {
    std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect()
}

/// Formats a probability as a percentage with two decimals.
#[must_use]
pub fn pct(p: f64) -> String {
    format!("{:6.2}%", p * 100.0)
}

/// Formats a normalized runtime (1.00 = baseline).
#[must_use]
pub fn norm(x: f64) -> String {
    format!("{x:5.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["alpha", "1"]);
        t.row(vec!["b", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn geomean_values() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measured_seconds_runs_the_closure() {
        let mut count = 0;
        let secs = measured_seconds(1, 3, || count += 1);
        assert_eq!(count, 4);
        assert!(secs >= 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.875), " 87.50%");
        assert_eq!(norm(1.0), " 1.00x");
    }
}
