//! # mkp-bench — experiment harness
//!
//! One binary per table of the paper plus the ablations indexed in
//! DESIGN.md §2:
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `fp57` | E1 — §5 in-text result on the Fréville–Plateau suite |
//! | `table1` | E2 — Table 1 (Glover–Kochenberger suite) |
//! | `table2` | E3 — Table 2 (SEQ / ITS / CTS1 / CTS2 at equal budget) |
//! | `table3_async` | E4 — §6 asynchronous extension vs CTS2 |
//! | `ablation_tenure` | A1 — tenure sensitivity & tabu-memory variants |
//! | `ablation_drop` | A2 — `nb_drop` vs solution distance |
//! | `ablation_alpha` | A3 — ISP α sweep (macro intensify/diversify) |
//!
//! Microbenches for the hot kernels live in the `kernels` binary
//! (`src/bin/kernels.rs`), built on the in-tree [`harness`] module —
//! warmup, fixed-iteration timing, median/p95, JSON output to `results/`.
//! This library otherwise only holds the small shared reporting utilities.

#![warn(missing_docs)]

pub mod harness;
pub mod report;

use std::fmt::Write as _;

/// A plain-text table with aligned columns (the harness prints the same
/// rows the paper's tables report).
#[derive(Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (k, cell) in row.iter().enumerate() {
                widths[k] = widths[k].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for k in 0..cols {
                let _ = write!(out, "{:<width$}", cells[k], width = widths[k] + 2);
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        let rule: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (0 for fewer than two points).
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Median of `xs`: the middle sample, or the mean of the two middle ones
/// for an even count (NaN when empty). The one median of every bench
/// binary, with the ledger's definition.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0–100) of ascending `sorted`: the
/// smallest sample with at least `pct`% of the samples at or below it
/// (NaN when empty). The one tail percentile of every bench binary, with
/// the ledger's definition.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentage deviation of `found` below the reference `bound`
/// (`100 · (bound − found) / bound`).
pub fn deviation_pct(found: i64, bound: f64) -> f64 {
    if bound <= 0.0 {
        return 0.0;
    }
    100.0 * (bound - found as f64) / bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["long-name", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name") && lines[0].contains("value"));
        assert!(lines[2].starts_with('a'));
        // All rows have the same rendered width.
        assert!(lines[2].trim_end().len() < lines[1].len());
    }

    #[test]
    fn median_averages_the_middle_pair_and_percentile_takes_the_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 95.0), 4.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert!(percentile(&[], 95.0).is_nan());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn statistics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert!((stddev(&[2.0, 4.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn deviation() {
        assert!((deviation_pct(99, 100.0) - 1.0).abs() < 1e-12);
        assert_eq!(deviation_pct(5, 0.0), 0.0);
        assert!(deviation_pct(100, 100.0).abs() < 1e-12);
    }
}
