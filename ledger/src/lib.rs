//! # mkp-ledger — end-to-end and per-layer performance ledger
//!
//! The `e2e` binary runs five fixed workloads of the parallel tabu search
//! and reports what a user of the solver sees (set-up time, solve time,
//! solution quality, throughput, memory), plus a traced pass that splits
//! each workload's cost across the layers it runs through. See
//! [`workloads`] for the workloads and why each exists, and [`layers`] for
//! the per-layer metrics.
//!
//! This module holds the pieces the binary and its tests share: the
//! metric catalogue, the order statistics, the result checks that decide
//! `failed`, and the two output formats — the one-line result object and
//! the ledger document. The ledger document is a `mkp-bench/kernels/v1`
//! report: its `benches` hold the timings (`median_ns` the reported value,
//! `min_ns` the fastest sample), so it is read back by
//! [`mkp_bench::report::parse_report`] and `bench_diff` can gate it next
//! to the kernel microbenches; a `metrics` array beside them, which that
//! reader skips, holds every metric with its unit and direction.

pub mod layers;
mod serve;
pub mod workloads;

use mkp::{Instance, Solution};
use parallel_tabu::{EngineError, ModeReport, SubmitOutcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// The end-to-end metrics every workload reports on its untraced pass, in
/// the order of `BENCHMARK.json`. Figures only some workloads have (the
/// job server's throughput, tail latency and time to target) and
/// `failed_frac` (0 when the run is correct, which a benchmark metric may
/// not be) go to the ledger document only.
pub const END_TO_END: [&str; 4] = ["setup_s", "solve_s", "gap_pct", "peak_rss_mb"];

/// The per-layer metrics every workload reports on its traced pass, in the
/// order of `BENCHMARK.json`. Workload-specific extras (the LP share under
/// CORE, the socket share, the job server's counters) go to the ledger
/// document only.
pub const PER_LAYER: [&str; 43] = [
    "mkp.parse_ms",
    "mkp.ratios_greedy_ms",
    "mkp.restrict_new_ms",
    "mkp.project_lift_us",
    "lp.solve_ms",
    "lp.reduced_costs_ms",
    "tabu.apply_move_ns",
    "tabu.swap_ms",
    "tabu.swap_evals",
    "tabu.lateral_ms",
    "tabu.lateral_evals",
    "tabu.drop_refill_ms",
    "tabu.drop_refill_evals",
    "tabu.ejection_ms",
    "tabu.ejection_evals",
    "tabu.oscillation_ms",
    "tabu.oscillation_evals",
    "tabu.ns_per_eval",
    "tabu.evals_per_s",
    "tabu.budget_ratio",
    "engine.round_ms",
    "engine.gather_ms",
    "engine.assign_ms",
    "engine.ts_inner_ms",
    "engine.prepare_ms",
    "engine.overhead_share",
    "engine.cpu_util",
    "codec.problem_bytes",
    "codec.problem_encode_ms",
    "codec.problem_decode_ms",
    "codec.report_bytes",
    "codec.report_roundtrip_us",
    "transport.msgs",
    "transport.bytes",
    "transport.frame_roundtrip_us",
    "transport.loopback_rtt_us",
    "snapshot.bytes",
    "snapshot.encode_ms",
    "snapshot.decode_ms",
    "snapshot.save_ms",
    "journal.append_us",
    "journal.replay_ms",
    "trace.overhead_pct",
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, gaps, memory).
    Lower,
    /// Larger is better (throughputs).
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One measured quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name, e.g. `solve_s` or `lp.solve_ms`.
    pub name: String,
    /// The reported figure (a median for timings).
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `%`, `count`.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Number of samples behind `value`.
    pub samples: usize,
    /// Fastest sample, for timings; what `bench_diff` compares.
    pub fastest: Option<f64>,
}

impl Metric {
    /// A timing reported as the median of `samples`, already in `unit`.
    pub fn timing(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            value: median(samples),
            unit,
            better: Better::Lower,
            samples: samples.len(),
            fastest: samples.iter().copied().reduce(f64::min),
        }
    }

    /// Any other figure.
    pub fn value(
        name: &str,
        unit: &'static str,
        better: Better,
        value: f64,
        samples: usize,
    ) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            better,
            samples,
            fastest: None,
        }
    }

    /// Nanoseconds per `unit`, for time units.
    fn ns_per_unit(&self) -> Option<f64> {
        match self.unit {
            "s" => Some(1e9),
            "ms" => Some(1e6),
            "us" => Some(1e3),
            "ns" => Some(1.0),
            _ => None,
        }
    }
}

/// Median (mean of the middle two for an even count); NaN when empty.
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

/// Nearest-rank percentile of ascending `sorted` (NaN when empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles (99, 95, 90, 75, 50) that
/// leaves at least ten of `n` samples beyond its rank, so a tail figure is
/// never one or two outliers. `None` below eleven samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75, 50].into_iter().find(|&p| {
        let rank = (p as usize * n).div_ceil(100);
        rank >= 1 && n - rank >= 10
    })
}

/// Per seed, the median of its solve times.
pub fn seed_medians(samples: &[(u64, f64)]) -> BTreeMap<u64, f64> {
    let mut by_seed: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(seed, secs) in samples {
        by_seed.entry(seed).or_default().push(secs);
    }
    by_seed.into_iter().map(|(s, v)| (s, median(&v))).collect()
}

/// The mean over seeds of each seed's median time: the expected solve
/// time of a seed drawn from the pool, however many times each seed ran.
/// NaN when there are no samples.
pub fn pool_mean(samples: &[(u64, f64)]) -> f64 {
    let medians: Vec<f64> = seed_medians(samples).into_values().collect();
    if medians.is_empty() {
        f64::NAN
    } else {
        mkp_bench::mean(&medians)
    }
}

/// `100 · (bound − found) / bound`, the gap to the LP bound in percent.
pub fn gap_pct(found: i64, lp_bound: f64) -> f64 {
    mkp_bench::deviation_pct(found, lp_bound)
}

/// Attempts and failures of one run, with the first few reasons.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Operations attempted (solves or jobs).
    pub attempted: u64,
    /// Operations whose result check failed.
    pub failed: u64,
    /// Reasons of the first failures, for the log.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one attempt; a failure is recorded and yields `None`.
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(reason) => {
                self.fail(reason);
                None
            }
        }
    }

    /// Record a failure of an operation already counted as attempted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }

    /// Failures ÷ attempts (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Check a best solution against the instance: feasible, its value equal
/// to the value recomputed from its bits, and not above the LP bound.
fn check_best(inst: &Instance, best: &Solution, value: i64, lp_bound: f64) -> Result<i64, String> {
    if !best.is_feasible(inst) {
        return Err("best solution is infeasible".to_string());
    }
    let recomputed = Solution::from_bits(inst, best.bits().clone()).value();
    if recomputed != value {
        return Err(format!(
            "best value {value} does not match its bits ({recomputed})"
        ));
    }
    if value as f64 > lp_bound + 1e-6 {
        return Err(format!(
            "best value {value} exceeds the LP bound {lp_bound}"
        ));
    }
    Ok(value)
}

/// Check one solo solve: an engine error, a degraded run, or an
/// infeasible or mis-valued best all fail. Returns the best value.
pub fn check_solve(
    inst: &Instance,
    result: &Result<ModeReport, EngineError>,
    lp_bound: f64,
) -> Result<i64, String> {
    let report = result.as_ref().map_err(|e| format!("engine error: {e}"))?;
    if report.is_degraded() {
        return Err(format!(
            "degraded run: {} worker(s) lost",
            report.lost_workers.len()
        ));
    }
    check_best(inst, &report.best, report.best.value(), lp_bound)
}

/// Check one job: it must come back `Done`, not degraded, with a feasible
/// best whose value matches its bits. Rejected, lost and errored jobs
/// fail. Returns the best value.
pub fn check_job(
    inst: &Instance,
    outcome: &Result<SubmitOutcome, String>,
    lp_bound: f64,
) -> Result<i64, String> {
    let report = match outcome {
        Ok(SubmitOutcome::Done(report)) => report,
        Ok(SubmitOutcome::Rejected { reason }) => return Err(format!("job rejected: {reason}")),
        Ok(SubmitOutcome::ServerLost) => return Err("job lost with the server".to_string()),
        Err(e) => return Err(format!("submit failed: {e}")),
    };
    if report.degraded {
        return Err("degraded job".to_string());
    }
    if report.best_bits.len() != inst.n() {
        return Err("job best has the wrong length".to_string());
    }
    let best = report.best_solution(inst);
    check_best(inst, &best, report.best_value, lp_bound)
}

/// A seeded search is deterministic and the socket transport is
/// bit-identical to the in-process one, so every solve of a seed — in
/// process or over sockets, traced or not — must reach the best value its
/// first solve reached.
pub fn check_same_best(first: i64, again: i64) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!(
            "best {again} differs from this seed's first best {first}"
        ))
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line result object: `correct`, `attempted`, `failed`, and the
/// `names` metrics as `{"value", "unit"}`. A named metric that is missing
/// or not finite makes the line `correct: false`.
pub fn result_line(tally: &Tally, metrics: &[Metric], names: &[&str]) -> String {
    let mut correct = tally.failed == 0 && tally.attempted > 0;
    let mut body = Vec::with_capacity(names.len());
    for name in names {
        match metrics.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() => body.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                m.value,
                json_str(m.unit)
            )),
            _ => correct = false,
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// One workload's contribution to a ledger document, one entry per line:
/// `benches {…}` lines for timings (in the kernels schema, so `bench_diff`
/// can gate them) and `metrics {…}` lines for every metric.
pub fn fragment(workload: &str, metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics.iter().filter(|m| m.value.is_finite()) {
        let name = json_str(&format!("{workload}/{}", m.name));
        let _ = writeln!(
            out,
            "metrics {{\"name\": {name}, \"value\": {}, \"unit\": {}, \"better\": \"{}\", \"samples\": {}}}",
            m.value,
            json_str(m.unit),
            m.better.name(),
            m.samples
        );
        if let (Some(scale), Some(fastest)) = (m.ns_per_unit(), m.fastest) {
            if m.value > 0.0 && fastest > 0.0 {
                let _ = writeln!(
                    out,
                    "benches {{\"name\": {name}, \"median_ns\": {}, \"min_ns\": {}, \"samples\": {}}}",
                    m.value * scale,
                    fastest * scale,
                    m.samples
                );
            }
        }
    }
    out
}

/// Assemble the fragments of all workloads into a ledger document: a
/// `mkp-bench/kernels/v1` report whose `benches` are the timings, plus a
/// `metrics` array holding every metric.
pub fn ledger_document(
    kind: &str,
    smoke: bool,
    seed: u64,
    seconds: f64,
    fragments: &str,
) -> String {
    let mut benches = Vec::new();
    let mut metrics = Vec::new();
    for line in fragments.lines() {
        match line.split_once(' ') {
            Some(("benches", entry)) => benches.push(entry),
            Some(("metrics", entry)) => metrics.push(entry),
            _ => {}
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\n  \"schema\": \"mkp-bench/kernels/v1\",\n  \"ledger\": {},\n  \"smoke\": {smoke},\n  \
         \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"available_parallelism\": {threads},\n  \
         \"benches\": [\n    {}\n  ],\n  \"metrics\": [\n    {}\n  ]\n}}\n",
        json_str(kind),
        benches.join(",\n    "),
        metrics.join(",\n    ")
    )
}

/// Median time of one [`HostProbe`] sample, rounded, on the host the
/// committed ledger was measured on (a shared 2-vCPU Intel Xeon VM).
pub const REF_PROBE_S: f64 = 1.5e-3;

/// A probe of the host's memory latency, timed between solves.
///
/// On a shared VM the caches and memory carry other tenants' work, and
/// speed drifts by ±15% over minutes: the same seeded solve, whose work
/// is identical each time, reads 0.27 s in one minute and 0.39 s in the
/// next. A fixed pattern of random reads over a table about the size of a
/// core's private cache slows down with it, so scaling each time by the
/// probe's median over the same run removes much of that drift. Measured
/// on a 2-vCPU Xeon VM over 20-second windows: the coefficient of
/// variation of GK solve-time medians fell from 8.8% to 3.6%, that of L2
/// CTS2 medians from 12.5% to 8.5%, and the largest move between the
/// medians of ten consecutive L2 windows and the next ten from 31% to 4%.
/// Across whole benchmark runs it helps less reliably on L2, where a run
/// holds about six solves and so samples the host at six moments
/// (`results/e2e.txt`). The probe is the benchmark's own code, so a change to the solver does
/// not move it, with one exception: a change that left threads busy
/// between solves would slow the probe and so hide part of its own cost.
/// The engine's idle workers block on channels today; the times as
/// measured stay in the ledger to show such a change.
pub struct HostProbe {
    table: Vec<u64>,
    samples: Vec<f64>,
    state: u64,
}

impl HostProbe {
    /// Entries of the probe table (2 MiB: tracked the solves better than
    /// 0.5 or 8 MiB tables, or a pointer chase over 4 MiB).
    const ENTRIES: usize = 1 << 18;
    /// Reads per sample.
    const READS: usize = 1_000_000;

    /// A probe with its table resident, and no samples yet.
    pub fn new() -> HostProbe {
        HostProbe {
            table: (0..Self::ENTRIES as u64).collect(),
            samples: Vec::new(),
            state: 1,
        }
    }

    /// Megabytes the table keeps resident, to leave out of `peak_rss_mb`.
    pub fn resident_mb(&self) -> f64 {
        (self.table.len() * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    /// Take `count` samples after one untimed pass. The untimed pass
    /// reloads the table whatever ran before evicted, so the samples do
    /// not depend on how long, or on what, the caller ran in between.
    pub fn sample(&mut self, count: usize) {
        self.pass();
        for _ in 0..count {
            let t0 = Instant::now();
            self.pass();
            self.samples.push(t0.elapsed().as_secs_f64());
        }
    }

    /// One fixed pattern of random reads over the table.
    fn pass(&mut self) {
        let mut acc = 0u64;
        for _ in 0..Self::READS {
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let index = self.state >> (64 - Self::ENTRIES.trailing_zeros());
            acc = acc.wrapping_add(self.table[index as usize]);
        }
        black_box(acc);
    }

    /// Factor that turns a time measured during this run into one at the
    /// reference host speed: [`REF_PROBE_S`] over the median sample.
    pub fn scale(&self) -> f64 {
        REF_PROBE_S / median(&self.samples)
    }

    /// The samples so far, in seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe::new()
    }
}

/// Peak resident set of this process in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system) consumed by every thread of this process,
/// from `/proc/self/stat` in the kernel's fixed 100 Hz user ticks; NaN if
/// the platform does not report it.
pub fn process_cpu_s() -> f64 {
    let ticks = || -> Option<f64> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields 14 and 15, counted after the parenthesised command name,
        // which may itself hold spaces.
        let rest = stat.get(stat.rfind(')')? + 1..)?;
        let mut fields = rest.split_whitespace().skip(11);
        let utime: f64 = fields.next()?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some(utime + stime)
    };
    ticks().map_or(f64::NAN, |t| t / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkp::generate::{gk_instance, GkSpec};
    use mkp::BitVec;
    use parallel_tabu::{JobReport, LossCause, Mode, RunConfig, WorkerLoss};

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 95.0), 190.0);
        assert_eq!(percentile(&xs, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        // 200 samples: p95 has rank 190 and exactly ten beyond it.
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn pool_mean_weighs_every_seed_once() {
        // Seed 7 ran three times, seed 8 once: each seed's median counts
        // once, so a seed solved more often does not dominate.
        let samples = [(7, 0.40), (8, 1.0), (7, 0.44), (7, 0.90)];
        let medians = seed_medians(&samples);
        assert_eq!(medians.get(&7), Some(&0.44));
        assert_eq!(medians.get(&8), Some(&1.0));
        assert!((pool_mean(&samples) - 0.72).abs() < 1e-12);
        assert!(pool_mean(&[]).is_nan());
    }

    #[test]
    fn timing_metric_reports_median_fastest_and_count() {
        let m = Metric::timing("solve_s", "s", &[0.5, 0.3, 0.4]);
        assert_eq!((m.value, m.fastest, m.samples), (0.4, Some(0.3), 3));
        assert_eq!(m.better, Better::Lower);
    }

    fn instance() -> Instance {
        gk_instance(
            "t",
            GkSpec {
                n: 30,
                m: 3,
                tightness: 0.5,
                seed: 4,
            },
        )
    }

    fn solved(inst: &Instance) -> ModeReport {
        let cfg = RunConfig {
            p: 2,
            rounds: 2,
            ..RunConfig::new(20_000, 3)
        };
        parallel_tabu::run_mode(inst, Mode::CooperativeAdaptive, &cfg)
    }

    #[test]
    fn solve_checks_count_errors_degraded_infeasible_and_impossible_as_failed() {
        let inst = instance();
        let lp = mkp_exact::bounds::lp_bound(&inst).unwrap().objective;
        let good = solved(&inst);
        let value = good.best.value();
        let mut tally = Tally::default();
        assert_eq!(
            tally.record(check_solve(&inst, &Ok(good.clone()), lp)),
            Some(value)
        );

        let mut degraded = good.clone();
        degraded.lost_workers.push(WorkerLoss {
            worker: 1,
            round: 0,
            cause: LossCause::Deadline,
        });
        assert!(tally
            .record(check_solve(&inst, &Ok(degraded), lp))
            .is_none());

        let mut infeasible = good.clone();
        infeasible.best = Solution::from_bits(&inst, BitVec::from_bools((0..30).map(|_| true)));
        assert!(tally
            .record(check_solve(&inst, &Ok(infeasible), lp))
            .is_none());

        let errored: Result<ModeReport, EngineError> = Err(EngineError::Internal {
            detail: "boom".into(),
        });
        assert!(tally.record(check_solve(&inst, &errored, lp)).is_none());
        // A best above the LP bound cannot be right.
        assert!(tally
            .record(check_solve(&inst, &Ok(good), value as f64 - 1.0))
            .is_none());

        assert_eq!((tally.attempted, tally.failed), (5, 4));
        assert!((tally.failed_frac() - 0.8).abs() < 1e-12);
        assert_eq!(tally.reasons.len(), 4);
    }

    #[test]
    fn job_checks_count_rejected_lost_and_misvalued_as_failed() {
        let inst = instance();
        let lp = mkp_exact::bounds::lp_bound(&inst).unwrap().objective;
        let good = solved(&inst);
        let report = JobReport {
            mode: Mode::CooperativeAdaptive,
            best_bits: good.best.bits().clone(),
            best_value: good.best.value(),
            round_best: good.round_best.clone(),
            total_moves: good.total_moves,
            total_evals: good.total_evals,
            regenerations: 0,
            wall_ms: 1,
            degraded: false,
        };
        let done = |r: JobReport| Ok(SubmitOutcome::Done(Box::new(r)));
        let mut tally = Tally::default();
        assert_eq!(
            tally.record(check_job(&inst, &done(report.clone()), lp)),
            Some(good.best.value())
        );
        let mut misvalued = report.clone();
        misvalued.best_value += 1;
        let mut degraded = report.clone();
        degraded.degraded = true;
        for bad in [
            done(misvalued),
            done(degraded),
            Ok(SubmitOutcome::Rejected {
                reason: "queue full".into(),
            }),
            Ok(SubmitOutcome::ServerLost),
            Err("no server".to_string()),
        ] {
            assert!(tally.record(check_job(&inst, &bad, lp)).is_none());
        }
        assert_eq!((tally.attempted, tally.failed), (6, 5));
    }

    #[test]
    fn a_best_that_differs_from_the_seeds_first_fails() {
        let mut tally = Tally::default();
        assert!(tally.record(check_same_best(100, 100)).is_some());
        assert!(tally.record(check_same_best(100, 99)).is_none());
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn result_line_has_exactly_the_named_metrics() {
        let metrics = vec![
            Metric::timing("solve_s", "s", &[0.25, 0.5]),
            Metric::value("gap_pct", "%", Better::Lower, 0.125, 3),
            Metric::value("extra", "count", Better::Lower, 1.0, 1),
        ];
        let tally = Tally {
            attempted: 4,
            ..Tally::default()
        };
        let line = result_line(&tally, &metrics, &["solve_s", "gap_pct"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"solve_s\": {\"value\": 0.375, \"unit\": \"s\"}, \
             \"gap_pct\": {\"value\": 0.125, \"unit\": \"%\"}}}"
        );
        // A missing metric or a failed operation makes the run incorrect.
        assert!(result_line(&tally, &metrics, &["nope"]).starts_with("{\"correct\": false"));
        let failed = Tally {
            attempted: 4,
            failed: 1,
            reasons: Vec::new(),
        };
        assert!(result_line(&failed, &metrics, &["solve_s"]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn ledger_round_trips_through_the_kernels_report_reader() {
        let metrics = vec![
            Metric::timing("solve_s", "s", &[0.5, 0.25, 0.75]),
            Metric::timing("lp.solve_ms", "ms", &[2.0]),
            Metric::value("gap_pct", "%", Better::Lower, 0.5, 3),
        ];
        let mut frags = fragment("gk-inproc", &metrics);
        frags.push_str(&fragment("serve \"durable\"", &metrics[..1]));
        let doc = ledger_document("e2e", false, 7, 15.0, &frags);
        let report = mkp_bench::report::parse_report(&doc).expect("ledger parses");
        assert!(!report.smoke);
        // Timings come back in nanoseconds; non-timings stay in `metrics`.
        assert_eq!(report.benches.len(), 3);
        let solve = report.get("gk-inproc/solve_s").expect("solve entry");
        assert!((solve.median_ns - 0.5e9).abs() < 1e-3);
        assert!((solve.min_ns - 0.25e9).abs() < 1e-3);
        let lp = report.get("gk-inproc/lp.solve_ms").expect("lp entry");
        assert!((lp.median_ns - 2e6).abs() < 1e-6);
        assert!(report.get("serve \"durable\"/solve_s").is_some());
        assert!(report.get("gk-inproc/gap_pct").is_none());
        assert_eq!(doc.matches("\"better\": ").count(), 4);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        let declared = text.matches("\"name\": ").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + workloads::Workload::ALL.len()
        );
        for w in workloads::Workload::ALL {
            assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn host_probe_scales_by_its_median_sample() {
        let mut probe = HostProbe::new();
        assert_eq!(probe.resident_mb(), 2.0);
        probe.sample(1);
        probe.sample(2);
        let samples = probe.samples();
        assert!(samples.len() == 3 && samples.iter().all(|&t| t > 0.0));
        assert_eq!(probe.scale(), REF_PROBE_S / median(samples));
    }

    #[test]
    fn process_probes_read_something() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
