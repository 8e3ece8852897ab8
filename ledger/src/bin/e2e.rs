//! `e2e` — the end-to-end performance ledger.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml --bin e2e -- [OPTIONS]
//!
//!   --workload NAME  run one workload in this process; the last line of
//!                    standard output is its result object
//!   --seed S         first solve seed (default 7)
//!   --seconds T      measured time per workload (default 20, smoke 0.5)
//!   --trace [0|1]    the traced pass: per-layer metrics instead of the
//!                    end-to-end ones (a bare --trace means 1)
//!   --smoke          tiny budgets and a scaled-down L2
//!   --fragment PATH  with --workload: also append the ledger entries to PATH
//! ```
//!
//! Without `--workload` it runs every workload in its own child process,
//! one after another (so `peak_rss_mb` is per workload), and writes the
//! ledger document `ledger/results/e2e.json`, or `e2e-trace.json` with
//! `--trace`. `--smoke` runs both passes with one short run per workload
//! and writes only `e2e-smoke.json` and `e2e-trace-smoke.json`.
//!
//! The workloads, why each exists, and how a run measures them (including
//! the evaluation-budget overshoot on L2) are documented in
//! `mkp_ledger::workloads`; the per-layer metrics in `mkp_ledger::layers`.
//!
//! Exit status: 0 when every result check passed, 1 when one failed (or a
//! file could not be written), 2 on a usage error.

use mkp_ledger::workloads::{self, Options, Workload};
use mkp_ledger::{fragment, ledger_document, result_line, END_TO_END, PER_LAYER};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

/// Measured seconds per workload run, as in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    fragment: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("e2e: {msg}");
    eprintln!(
        "usage: e2e [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]] [--smoke] \
         [--fragment PATH]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        smoke: false,
        fragment: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--trace" => {
                let explicit = it.peek().filter(|v| *v == "0" || *v == "1").cloned();
                args.trace = explicit.as_deref() != Some("0");
                if explicit.is_some() {
                    it.next();
                }
            }
            "--workload" => {
                let name = value("--workload");
                args.workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an unsigned integer"));
            }
            "--seconds" => {
                let secs: f64 = value("--seconds")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds needs a number"));
                if !(secs.is_finite() && secs > 0.0) {
                    usage("--seconds must be positive");
                }
                args.seconds = Some(secs);
            }
            "--smoke" => args.smoke = true,
            "--fragment" => args.fragment = Some(PathBuf::from(value("--fragment"))),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if args.fragment.is_some() && args.workload.is_none() {
        usage("--fragment needs --workload");
    }
    args
}

/// A scratch directory in the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        // Relative, so Unix socket paths inside it stay short.
        let dir = PathBuf::from(format!(".e2e-tmp-{}", std::process::id()));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("e2e: cannot create {}: {e}", dir.display());
            exit(1);
        }
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = parse_args();
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.5 } else { DEFAULT_SECONDS });
    let ok = match args.workload {
        Some(w) => run_one(w, &args, seconds),
        None => run_all(&args, seconds),
    };
    exit(if ok { 0 } else { 1 });
}

/// Run one workload here; print its metrics and, last, its result line.
fn run_one(workload: Workload, args: &Args, seconds: f64) -> bool {
    let scratch = Scratch::new();
    let opts = Options {
        seed: args.seed,
        seconds,
        trace: args.trace,
        smoke: args.smoke,
        scratch: scratch.0.clone(),
    };
    let outcome = workloads::run(workload, &opts);
    drop(scratch);
    let pass = if args.trace { "traced" } else { "untraced" };
    println!("{} ({pass}, seed {}):", workload.name(), args.seed);
    for m in &outcome.metrics {
        println!(
            "  {:<34} {:>16.9} {:<8} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
    }
    if !outcome.bests.is_empty() {
        let bests: Vec<String> = outcome
            .bests
            .iter()
            .map(|(seed, value)| format!("seed {seed}: {value}"))
            .collect();
        println!("  best values: {}", bests.join(", "));
    }
    for reason in &outcome.tally.reasons {
        eprintln!("e2e: {}: check failed: {reason}", workload.name());
    }
    let mut ok = true;
    if let Some(path) = &args.fragment {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(fragment(workload.name(), &outcome.metrics).as_bytes()));
        if let Err(e) = appended {
            eprintln!("e2e: cannot append to {}: {e}", path.display());
            ok = false;
        }
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = result_line(&outcome.tally, &outcome.metrics, names);
    println!("{line}");
    ok && line.starts_with("{\"correct\": true")
}

/// Run every workload in a child process, one after another, and write
/// the ledger document(s).
fn run_all(args: &Args, seconds: f64) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e: cannot locate this executable: {e}");
            return false;
        }
    };
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let passes: &[bool] = if args.smoke {
        &[false, true]
    } else {
        &[args.trace]
    };
    let scratch = Scratch::new();
    let mut ok = true;
    for &trace in passes {
        let frag = scratch.0.join(format!("fragments-{trace}.txt"));
        for w in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--fragment")
                .arg(&frag);
            if args.smoke {
                cmd.arg("--smoke");
            }
            match cmd.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("e2e: {} failed ({status})", w.name());
                    ok = false;
                }
                Err(e) => {
                    eprintln!("e2e: cannot start {}: {e}", w.name());
                    ok = false;
                }
            }
        }
        let kind = if trace { "e2e-trace" } else { "e2e" };
        let file = if args.smoke {
            format!("{kind}-smoke.json")
        } else {
            format!("{kind}.json")
        };
        ok &= write_ledger(&results.join(file), kind, args, seconds, &frag);
    }
    ok
}

/// Assemble the fragments into a ledger document, write it, and read it
/// back through the kernels report reader.
fn write_ledger(path: &Path, kind: &str, args: &Args, seconds: f64, frag: &Path) -> bool {
    let fragments = std::fs::read_to_string(frag).unwrap_or_default();
    let doc = ledger_document(kind, args.smoke, args.seed, seconds, &fragments);
    if let Err(e) = std::fs::create_dir_all(path.parent().expect("results dir"))
        .and_then(|()| std::fs::write(path, &doc))
    {
        eprintln!("e2e: cannot write {}: {e}", path.display());
        return false;
    }
    match mkp_bench::report::parse_report(&doc) {
        Ok(report) => {
            println!(
                "ledger: {} ({} timings readable by bench_diff)",
                path.display(),
                report.benches.len()
            );
            true
        }
        Err(e) => {
            eprintln!("e2e: {} does not read back: {e}", path.display());
            false
        }
    }
}
