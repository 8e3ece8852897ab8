//! Reading and diffing kernel bench reports (`mkp-bench/kernels/v1`).
//!
//! The CI bench-regression gate (`bench_diff`) compares a freshly
//! produced `results/kernels-smoke.json` against the committed
//! `results/kernels-baseline.json`. Both files are written by
//! [`crate::harness::Harness::finish`]; this module holds the reader for
//! that format (on top of the workspace's JSON reader — the build is
//! registry-free, so no serde) and the median-ratio comparison the gate
//! enforces.

use parallel_tabu::Json;
use std::fmt::Write as _;

/// One benchmark entry as read back from a kernels JSON report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Benchmark name as registered with the harness.
    pub name: String,
    /// Median per-iteration nanoseconds (reported for context).
    pub median_ns: f64,
    /// Fastest per-iteration nanoseconds (the gate\'s comparison figure:
    /// noise on a shared host only ever slows a deterministic kernel
    /// down, so the minimum over samples spanning several suite passes
    /// is the most reproducible estimate of true cost).
    pub min_ns: f64,
}

/// A parsed kernels report: the harness mode plus all entries in file
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Whether the report was produced with `--smoke` timing options.
    pub smoke: bool,
    /// All benchmark entries, in registration order.
    pub benches: Vec<BenchEntry>,
}

impl BenchReport {
    /// The named benchmark\'s entry, if present.
    pub fn get(&self, name: &str) -> Option<&BenchEntry> {
        self.benches.iter().find(|b| b.name == name)
    }
}

/// Parse a kernels JSON report produced by the harness.
///
/// Accepts exactly the `mkp-bench/kernels/v1` shape: a top-level object
/// with a `benches` array of flat objects. Unknown keys are skipped, so
/// additive schema growth doesn't break older readers. The JSON itself is
/// read by the workspace's one reader, [`parallel_tabu::json`].
pub fn parse_report(text: &str) -> Result<BenchReport, String> {
    let root = Json::parse(text)?;
    if !matches!(root, Json::Obj(_)) {
        return Err("top level is not an object".into());
    }
    let schema = root
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing \"schema\" string")?;
    if schema != "mkp-bench/kernels/v1" {
        return Err(format!("unsupported schema {schema:?}"));
    }
    let smoke = root.get("smoke") == Some(&Json::Bool(true));
    let Some(Json::Arr(raw)) = root.get("benches") else {
        return Err("missing \"benches\" array".into());
    };
    let mut benches = Vec::with_capacity(raw.len());
    for (i, item) in raw.iter().enumerate() {
        if !matches!(item, Json::Obj(_)) {
            return Err(format!("benches[{i}] is not an object"));
        }
        let name = item
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("benches[{i}] missing \"name\""))?
            .to_string();
        let number = |key: &str| match item.get(key) {
            Some(Json::Num(x)) if x.is_finite() && *x > 0.0 => Ok(*x),
            _ => Err(format!("benches[{i}] ({name}) missing positive \"{key}\"")),
        };
        let median_ns = number("median_ns")?;
        let min_ns = number("min_ns")?;
        benches.push(BenchEntry {
            name,
            median_ns,
            min_ns,
        });
    }
    Ok(BenchReport { smoke, benches })
}

/// Verdict for one benchmark compared between baseline and fresh run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance of the baseline.
    Ok,
    /// Slower than baseline beyond tolerance — fails the gate.
    Regressed,
    /// Faster than baseline beyond tolerance — passes, but the baseline
    /// understates current performance and deserves a re-bless.
    Improved,
    /// Present in the baseline but absent from the fresh run — fails the
    /// gate (coverage silently lost).
    Missing,
    /// Present in the fresh run but not in the baseline — passes (a new
    /// benchmark is gated from its first bless onward).
    New,
}

/// One row of the gate's comparison.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Benchmark name.
    pub name: String,
    /// Baseline `min_ns`, if the baseline has this benchmark.
    pub baseline_ns: Option<f64>,
    /// Fresh `min_ns`, if the fresh run has this benchmark.
    pub fresh_ns: Option<f64>,
    /// fresh / baseline when both sides exist (raw, before machine-factor
    /// normalization).
    pub ratio: Option<f64>,
    /// Gate verdict for this row (on the normalized ratio).
    pub verdict: Verdict,
}

/// The gate's full comparison: per-bench rows plus the common-mode
/// machine factor the verdicts were normalized by.
#[derive(Debug, Clone)]
pub struct Diff {
    /// Per-benchmark rows, baseline order first, then fresh-only rows.
    pub rows: Vec<DiffRow>,
    /// Median fresh/baseline `min_ns` ratio over the paired benches — the
    /// common-mode speed difference between the two runs' hosts/loads.
    /// 1.0 when fewer than [`MIN_PAIRS_FOR_FACTOR`] pairs exist.
    pub machine_factor: f64,
}

/// Below this many paired benches the median ratio estimates the machine
/// factor too poorly to divide by; the gate falls back to raw ratios.
pub const MIN_PAIRS_FOR_FACTOR: usize = 8;

/// The machine factor is trusted only as a *noise* correction; beyond
/// this range the two runs are considered incomparable and the factor is
/// clamped so a genuinely slower build cannot normalize itself away.
const MAX_MACHINE_FACTOR: f64 = 2.0;

/// Compare a fresh report against the committed baseline with a
/// **paired-median tolerance** (`tolerance = 0.15` means ±15%).
///
/// The compared statistic is each bench's `min_ns`: kernels here are
/// deterministic, so host noise (scheduler preemption, frequency dips,
/// page-mapping luck per suite pass) only ever inflates a sample — the
/// minimum over samples spanning several suite passes is the most
/// reproducible estimate of true cost, where medians were observed to
/// flip 20–70% with the host's regime. A genuine regression inflates
/// every sample, minimum included, so nothing real can hide there.
///
/// On top of that, runs still drift *globally* (a uniformly loaded
/// host). The gate estimates that common mode as the median of the
/// per-bench fresh/baseline ratios and flags only benches deviating
/// from it beyond the tolerance — the same common-mode cancellation the
/// paired A/B estimator uses. A single kernel regression stands out
/// against the other ~30 paired benches; a uniform whole-suite slowdown
/// larger than [`MAX_MACHINE_FACTOR`] is treated as incomparable
/// hardware rather than silently absorbed.
pub fn diff_reports(baseline: &BenchReport, fresh: &BenchReport, tolerance: f64) -> Diff {
    let mut ratios: Vec<f64> = baseline
        .benches
        .iter()
        .filter_map(|b| fresh.get(&b.name).map(|f| f.min_ns / b.min_ns))
        .collect();
    let machine_factor = if ratios.len() >= MIN_PAIRS_FOR_FACTOR {
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("medians are finite"));
        let mid = ratios.len() / 2;
        let median = if ratios.len().is_multiple_of(2) {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        } else {
            ratios[mid]
        };
        median.clamp(1.0 / MAX_MACHINE_FACTOR, MAX_MACHINE_FACTOR)
    } else {
        1.0
    };

    let mut rows = Vec::with_capacity(baseline.benches.len());
    for b in &baseline.benches {
        let fresh_entry = fresh.get(&b.name);
        let (ratio, verdict) = match fresh_entry {
            None => (None, Verdict::Missing),
            Some(f) => {
                let r = f.min_ns / b.min_ns;
                let rel = r / machine_factor;
                let v = if rel > 1.0 + tolerance {
                    Verdict::Regressed
                } else if rel < 1.0 - tolerance {
                    Verdict::Improved
                } else {
                    Verdict::Ok
                };
                (Some(r), v)
            }
        };
        rows.push(DiffRow {
            name: b.name.clone(),
            baseline_ns: Some(b.min_ns),
            fresh_ns: fresh_entry.map(|f| f.min_ns),
            ratio,
            verdict,
        });
    }
    for f in &fresh.benches {
        if baseline.get(&f.name).is_none() {
            rows.push(DiffRow {
                name: f.name.clone(),
                baseline_ns: None,
                fresh_ns: Some(f.min_ns),
                ratio: None,
                verdict: Verdict::New,
            });
        }
    }
    Diff {
        rows,
        machine_factor,
    }
}

/// Does this set of rows pass the gate? (No regressions, no missing
/// benchmarks.)
pub fn gate_passes(rows: &[DiffRow]) -> bool {
    rows.iter()
        .all(|r| !matches!(r.verdict, Verdict::Regressed | Verdict::Missing))
}

/// Render the comparison as the aligned table `bench_diff` prints. The
/// `baseline`/`fresh` columns are each bench's fastest sample (`min_ns`);
/// the `normalized` column (raw ratio ÷ machine factor) is what the
/// verdict was judged on.
pub fn render_diff(diff: &Diff) -> String {
    let mut t = crate::TextTable::new(vec![
        "benchmark",
        "baseline",
        "fresh",
        "ratio",
        "normalized",
        "verdict",
    ]);
    let fmt = |ns: Option<f64>| ns.map_or("-".to_string(), |x| format!("{x:.1} ns"));
    for r in &diff.rows {
        t.row(vec![
            r.name.clone(),
            fmt(r.baseline_ns),
            fmt(r.fresh_ns),
            r.ratio.map_or("-".to_string(), |x| format!("{x:.2}x")),
            r.ratio.map_or("-".to_string(), |x| {
                format!("{:.2}x", x / diff.machine_factor)
            }),
            format!("{:?}", r.verdict).to_lowercase(),
        ]);
    }
    let mut out = t.render();
    let rows = &diff.rows;
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    let missing = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Missing)
        .count();
    let improved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Improved)
        .count();
    let _ = write!(
        out,
        "\nmachine factor {:.2}x (common-mode median ratio, divided out before gating)\n\
         {} benches: {} regressed, {} missing, {} improved",
        diff.machine_factor,
        rows.len(),
        regressed,
        missing,
        improved
    );
    if improved > 0 {
        out.push_str("\nnote: improvements beyond tolerance suggest re-blessing the baseline");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            smoke: true,
            benches: entries
                .iter()
                .map(|&(n, m)| BenchEntry {
                    name: n.to_string(),
                    // The gate compares minima; medians ride along for
                    // display. Deriving both from one figure keeps the
                    // expected ratios in these tests obvious.
                    median_ns: m * 1.25,
                    min_ns: m,
                })
                .collect(),
        }
    }

    #[test]
    fn parses_harness_output_roundtrip() {
        // Produce a real report through the harness serializer.
        let mut h = crate::harness::Harness::new(crate::harness::Options::smoke());
        h.bench("roundtrip \"quoted\"", || std::hint::black_box(1u64));
        let reports = h.reports().to_vec();
        let json = {
            // finish() writes to disk; serialize via a temp file instead.
            let dir = std::env::temp_dir().join(format!("bench-report-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("r.json");
            let mut h2 = crate::harness::Harness::new(crate::harness::Options::smoke());
            h2.set_json_path(Some(path.to_string_lossy().into_owned()));
            h2.bench("roundtrip \"quoted\"", || std::hint::black_box(1u64));
            h2.finish();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            text
        };
        let parsed = parse_report(&json).unwrap();
        assert_eq!(parsed.benches.len(), 1);
        assert_eq!(parsed.benches[0].name, "roundtrip \"quoted\"");
        assert!(parsed.benches[0].median_ns > 0.0);
        assert!(parsed.benches[0].min_ns > 0.0);
        assert!(parsed.benches[0].min_ns <= parsed.benches[0].median_ns);
        drop(reports);
    }

    #[test]
    fn parses_minimal_document() {
        let json = r#"{
          "schema": "mkp-bench/kernels/v1",
          "smoke": true,
          "benches": [
            {"name": "a", "median_ns": 12.5, "min_ns": 11, "extra": [1, 2]},
            {"name": "b", "median_ns": 100, "min_ns": 90.5}
          ]
        }"#;
        let r = parse_report(json).unwrap();
        assert!(r.smoke);
        assert_eq!(r.benches.len(), 2);
        assert_eq!(
            r.get("a").map(|e| (e.median_ns, e.min_ns)),
            Some((12.5, 11.0))
        );
        assert_eq!(
            r.get("b").map(|e| (e.median_ns, e.min_ns)),
            Some((100.0, 90.5))
        );
        assert!(r.get("c").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_report("").is_err());
        assert!(parse_report("[]").is_err());
        assert!(parse_report(r#"{"schema": "other/v9", "benches": []}"#).is_err());
        assert!(parse_report(r#"{"schema": "mkp-bench/kernels/v1"}"#).is_err());
        // Non-positive figures are meaningless as gate denominators, and a
        // bench without `min_ns` cannot be gated at all.
        assert!(parse_report(
            r#"{"schema": "mkp-bench/kernels/v1", "benches": [{"name": "x", "median_ns": 0, "min_ns": 1}]}"#
        )
        .is_err());
        assert!(parse_report(
            r#"{"schema": "mkp-bench/kernels/v1", "benches": [{"name": "x", "median_ns": 5}]}"#
        )
        .is_err());
        // Trailing garbage.
        assert!(
            parse_report(r#"{"schema": "mkp-bench/kernels/v1", "benches": []} trailing"#).is_err()
        );
    }

    #[test]
    fn a_million_open_brackets_fail_closed() {
        let err = parse_report(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn diff_flags_regressions_within_and_beyond_tolerance() {
        // Three pairs: under MIN_PAIRS_FOR_FACTOR, so raw ratios gate.
        let base = report(&[("k1", 100.0), ("k2", 100.0), ("k3", 100.0)]);
        let fresh = report(&[("k1", 114.0), ("k2", 116.0), ("k3", 80.0)]);
        let d = diff_reports(&base, &fresh, 0.15);
        assert_eq!(d.machine_factor, 1.0);
        assert_eq!(d.rows[0].verdict, Verdict::Ok); // +14% within ±15%
        assert_eq!(d.rows[1].verdict, Verdict::Regressed); // +16%
        assert_eq!(d.rows[2].verdict, Verdict::Improved); // −20%
        assert!(!gate_passes(&d.rows));
        let loose = diff_reports(&base, &fresh, 0.20);
        assert!(gate_passes(&loose.rows));
    }

    #[test]
    fn diff_handles_missing_and_new_benches() {
        let base = report(&[("gone", 50.0), ("kept", 10.0)]);
        let fresh = report(&[("kept", 10.0), ("added", 5.0)]);
        let d = diff_reports(&base, &fresh, 0.15);
        assert_eq!(d.rows.len(), 3);
        assert_eq!(d.rows[0].verdict, Verdict::Missing);
        assert_eq!(d.rows[1].verdict, Verdict::Ok);
        assert_eq!(d.rows[2].verdict, Verdict::New);
        assert!(!gate_passes(&d.rows), "missing coverage must fail the gate");
        let fresh_only_new = diff_reports(&report(&[]), &fresh, 0.15);
        assert!(gate_passes(&fresh_only_new.rows), "new benches alone pass");
    }

    #[test]
    fn machine_factor_cancels_common_mode_drift() {
        // Ten benches all 1.3x slower (host drift) except one genuinely
        // regressed on top of the drift: only that one must trip.
        let names: Vec<String> = (0..10).map(|i| format!("k{i}")).collect();
        let base = report(
            &names
                .iter()
                .map(|n| (n.as_str(), 100.0))
                .collect::<Vec<_>>(),
        );
        let fresh = report(
            &names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), if i == 3 { 100.0 * 1.3 * 1.4 } else { 130.0 }))
                .collect::<Vec<_>>(),
        );
        let d = diff_reports(&base, &fresh, 0.15);
        assert!((d.machine_factor - 1.3).abs() < 1e-9);
        for (i, r) in d.rows.iter().enumerate() {
            let want = if i == 3 {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            assert_eq!(r.verdict, want, "bench {i}");
        }
        assert!(!gate_passes(&d.rows));
    }

    #[test]
    fn machine_factor_is_clamped_for_incomparable_runs() {
        // A uniform 3x slowdown exceeds MAX_MACHINE_FACTOR: the factor is
        // clamped to 2.0 and every bench still trips — a whole-suite
        // regression cannot normalize itself away.
        let names: Vec<String> = (0..10).map(|i| format!("k{i}")).collect();
        let base = report(
            &names
                .iter()
                .map(|n| (n.as_str(), 100.0))
                .collect::<Vec<_>>(),
        );
        let fresh = report(
            &names
                .iter()
                .map(|n| (n.as_str(), 300.0))
                .collect::<Vec<_>>(),
        );
        let d = diff_reports(&base, &fresh, 0.15);
        assert_eq!(d.machine_factor, 2.0);
        assert!(d.rows.iter().all(|r| r.verdict == Verdict::Regressed));
    }

    #[test]
    fn render_mentions_counts_and_factor() {
        let base = report(&[("k", 100.0)]);
        let fresh = report(&[("k", 200.0)]);
        let d = diff_reports(&base, &fresh, 0.15);
        let text = render_diff(&d);
        assert!(text.contains("1 regressed"));
        assert!(text.contains("2.00x"));
        assert!(text.contains("machine factor 1.00x"));
    }
}
