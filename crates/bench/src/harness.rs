//! In-tree microbenchmark harness (the registry `criterion` replacement).
//!
//! Martins-style statistical benchmarking for the hot kernels without a
//! framework dependency: per benchmark the harness **warms up**, picks a
//! fixed per-sample iteration count so one sample lasts roughly
//! [`Options::target_sample`], then times [`Options::samples`] batches and
//! reports min / mean / **median / p95** per-iteration nanoseconds. Every
//! run also writes a machine-readable JSON report (consumed by
//! `scripts/run_experiments.sh` and the CI bench smoke) to `results/`.
//!
//! ```no_run
//! use mkp_bench::harness::{black_box, Harness};
//!
//! let mut h = Harness::from_args();
//! h.bench("sum 0..1000", || black_box((0u64..1000).sum::<u64>()));
//! h.finish();
//! ```

use crate::{median, percentile};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Timing options. `--smoke` swaps in [`Options::smoke`], which keeps
/// every benchmark to a handful of iterations so CI can run the full
/// suite in seconds.
#[derive(Debug, Clone)]
pub struct Options {
    /// Minimum wall time spent warming each benchmark before timing.
    pub warmup: Duration,
    /// Number of timed samples (batches).
    pub samples: usize,
    /// Calibration target for one sample's duration.
    pub target_sample: Duration,
    /// Hard cap on iterations per sample (guards degenerate calibration).
    pub max_iters_per_sample: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            warmup: Duration::from_millis(300),
            samples: 30,
            target_sample: Duration::from_millis(20),
            max_iters_per_sample: 1_000_000,
        }
    }
}

impl Options {
    /// Reduced effort for CI smoke runs. Sized so the whole kernels suite
    /// finishes in seconds. A smoke run gains its statistical robustness
    /// from [`Harness::suite_passes`] (several interleaved passes over
    /// the whole suite, samples merged per bench) rather than from many
    /// consecutive samples: on shared hosts the dominant noise is a
    /// slow/fast *regime* lasting ~0.1–1 s, so consecutive samples all
    /// see the same draw while passes separated by the rest of the suite
    /// see independent ones.
    pub fn smoke() -> Self {
        Options {
            warmup: Duration::from_millis(20),
            samples: 5,
            target_sample: Duration::from_millis(3),
            max_iters_per_sample: 100_000,
        }
    }
}

/// One benchmark's timing summary. All figures are per-iteration
/// nanoseconds computed from batch times divided by the batch's
/// iteration count.
#[derive(Debug, Clone)]
pub struct Report {
    /// Benchmark name as registered.
    pub name: String,
    /// Iterations per timed sample (fixed after calibration).
    pub iters_per_sample: u64,
    /// Per-iteration time of each sample, in nanoseconds.
    pub sample_ns: Vec<f64>,
    /// Fastest sample.
    pub min_ns: f64,
    /// Arithmetic mean over samples.
    pub mean_ns: f64,
    /// Median over samples (the headline figure; robust to OS jitter).
    pub median_ns: f64,
    /// 95th percentile over samples (nearest rank).
    pub p95_ns: f64,
}

fn summarize(name: &str, iters: u64, mut sample_ns: Vec<f64>) -> Report {
    sample_ns.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
    let min_ns = sample_ns[0];
    let mean_ns = sample_ns.iter().sum::<f64>() / sample_ns.len() as f64;
    let median_ns = median(&sample_ns);
    let p95_ns = percentile(&sample_ns, 95.0);
    Report {
        name: name.to_string(),
        iters_per_sample: iters,
        sample_ns,
        min_ns,
        mean_ns,
        median_ns,
        p95_ns,
    }
}

/// Benchmark registry + runner. Construct with [`Harness::from_args`] in
/// a binary (parses `--smoke`, `--json <path>`, and name filters) or with
/// [`Harness::new`] for programmatic use, register closures with
/// [`Harness::bench`], then [`Harness::finish`] to print the table and
/// write the JSON report.
pub struct Harness {
    options: Options,
    json_path: Option<String>,
    filters: Vec<String>,
    smoke: bool,
    reports: Vec<Report>,
}

impl Harness {
    /// Harness with explicit options and no JSON output.
    pub fn new(options: Options) -> Self {
        Harness {
            options,
            json_path: None,
            filters: Vec::new(),
            smoke: false,
            reports: Vec::new(),
        }
    }

    /// Parse process arguments:
    ///
    /// * `--smoke` — use [`Options::smoke`];
    /// * `--json <path>` — JSON report destination (default
    ///   `results/kernels.json`);
    /// * any other argument — substring filter on benchmark names
    ///   (multiple filters OR together).
    pub fn from_args() -> Self {
        let mut smoke = false;
        let mut json_path = Some("results/kernels.json".to_string());
        let mut filters = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => smoke = true,
                "--json" => {
                    json_path = Some(args.next().unwrap_or_else(|| {
                        eprintln!("--json requires a path");
                        std::process::exit(2);
                    }));
                }
                // `cargo bench` compatibility: ignore harness flags.
                "--bench" => {}
                other => filters.push(other.to_string()),
            }
        }
        let options = if smoke {
            Options::smoke()
        } else {
            Options::default()
        };
        Harness {
            options,
            json_path,
            filters,
            smoke,
            reports: Vec::new(),
        }
    }

    /// Where the JSON report will be written (`None` disables it).
    pub fn set_json_path(&mut self, path: Option<String>) {
        self.json_path = path;
    }

    fn selected(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f))
    }

    /// How many times a suite binary should run its whole registration
    /// sequence. Smoke mode asks for several passes: re-registering a
    /// name merges the new samples into the existing report, so each
    /// bench's median mixes noise-regime draws separated in time by a
    /// full pass over the suite — what makes the bench-diff gate's
    /// cross-run comparison stable on shared hardware.
    pub fn suite_passes(&self) -> usize {
        if self.smoke {
            3
        } else {
            1
        }
    }

    /// Register and immediately run one benchmark. Re-registering the
    /// same name (a later suite pass) appends the new samples to the
    /// existing report instead of creating a duplicate entry.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, mut f: F) {
        if !self.selected(name) {
            return;
        }
        // Warmup: run until the warmup window has elapsed (≥ 1 iteration),
        // remembering the throughput for calibration.
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_iters == 0 || warmup_start.elapsed() < self.options.warmup {
            black_box(f());
            warmup_iters += 1;
        }
        let per_iter = warmup_start.elapsed().as_secs_f64() / warmup_iters as f64;

        // Fixed-iteration calibration: one sample ≈ target_sample.
        let iters = ((self.options.target_sample.as_secs_f64() / per_iter.max(1e-9)) as u64)
            .clamp(1, self.options.max_iters_per_sample);

        let mut sample_ns = Vec::with_capacity(self.options.samples);
        for _ in 0..self.options.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t0.elapsed();
            sample_ns.push(elapsed.as_nanos() as f64 / iters as f64);
        }
        // Per-iteration sample times are comparable across passes even if
        // recalibration picked a different iteration count, so merging is
        // a plain concatenation followed by a re-summarize.
        if let Some(prev) = self.reports.iter_mut().find(|r| r.name == name) {
            let mut merged = prev.sample_ns.clone();
            merged.extend_from_slice(&sample_ns);
            *prev = summarize(name, prev.iters_per_sample.max(iters), merged);
            return;
        }
        let report = summarize(name, iters, sample_ns);
        eprintln!(
            "{:<44} median {:>12}  p95 {:>12}  ({} iters/sample × {} samples)",
            report.name,
            fmt_ns(report.median_ns),
            fmt_ns(report.p95_ns),
            report.iters_per_sample,
            report.sample_ns.len(),
        );
        self.reports.push(report);
    }

    /// All completed reports, in registration order.
    pub fn reports(&self) -> &[Report] {
        &self.reports
    }

    /// Render the summary table, write the JSON report, and return the
    /// reports. Exits the process with an error only on JSON I/O failure.
    pub fn finish(self) -> Vec<Report> {
        println!("{}", render_table(&self.reports));
        if let Some(path) = &self.json_path {
            if let Some(dir) = std::path::Path::new(path).parent() {
                if !dir.as_os_str().is_empty() {
                    if let Err(e) = std::fs::create_dir_all(dir) {
                        eprintln!("cannot create {}: {e}", dir.display());
                        std::process::exit(1);
                    }
                }
            }
            let json = to_json(&self.reports, self.smoke);
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("json report: {path}");
        }
        self.reports
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn render_table(reports: &[Report]) -> String {
    let mut t = crate::TextTable::new(vec![
        "benchmark",
        "median",
        "p95",
        "mean",
        "min",
        "iters/sample",
    ]);
    for r in reports {
        t.row(vec![
            r.name.clone(),
            fmt_ns(r.median_ns),
            fmt_ns(r.p95_ns),
            fmt_ns(r.mean_ns),
            fmt_ns(r.min_ns),
            r.iters_per_sample.to_string(),
        ]);
    }
    t.render()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize reports as a stable, dependency-free JSON document.
fn to_json(reports: &[Report], smoke: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"mkp-bench/kernels/v1\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    out.push_str("  \"benches\": [\n");
    for (k, r) in reports.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"iters_per_sample\": {}, \"samples\": {}, \
             \"min_ns\": {:.1}, \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \
             \"sample_ns\": [{}]}}",
            json_escape(&r.name),
            r.iters_per_sample,
            r.sample_ns.len(),
            r.min_ns,
            r.mean_ns,
            r.median_ns,
            r.p95_ns,
            r.sample_ns
                .iter()
                .map(|x| format!("{x:.1}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str(if k + 1 < reports.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_orders_and_aggregates() {
        let r = summarize("x", 10, vec![30.0, 10.0, 20.0]);
        assert_eq!(r.min_ns, 10.0);
        assert_eq!(r.median_ns, 20.0);
        assert!((r.mean_ns - 20.0).abs() < 1e-12);
        assert_eq!(r.p95_ns, 30.0);
        assert_eq!(r.sample_ns, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn bench_runs_and_reports() {
        let mut h = Harness::new(Options {
            warmup: Duration::from_millis(1),
            samples: 3,
            target_sample: Duration::from_micros(200),
            max_iters_per_sample: 100,
        });
        let mut calls = 0u64;
        h.bench("count", || {
            calls += 1;
            black_box(calls)
        });
        assert_eq!(h.reports().len(), 1);
        let r = &h.reports()[0];
        assert!(r.iters_per_sample >= 1 && r.iters_per_sample <= 100);
        assert_eq!(r.sample_ns.len(), 3);
        assert!(r.median_ns > 0.0);
        assert!(calls >= 3, "benchmark closure never ran");
    }

    #[test]
    fn filters_select_by_substring() {
        let mut h = Harness::new(Options::smoke());
        h.filters = vec!["lp".to_string()];
        h.bench("apply_move 5x100", || black_box(1));
        h.bench("lp_relaxation 5x100", || black_box(1));
        assert_eq!(h.reports().len(), 1);
        assert_eq!(h.reports()[0].name, "lp_relaxation 5x100");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let reports = vec![summarize("a \"quoted\" name", 2, vec![1.5, 2.5])];
        let json = to_json(&reports, true);
        assert!(json.contains("\"schema\": \"mkp-bench/kernels/v1\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"smoke\": true"));
        // Balanced braces/brackets (cheap structural sanity).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\nb"), "a\\nb");
        assert_eq!(json_escape("t\tq\"s\\"), "t\\tq\\\"s\\\\");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
