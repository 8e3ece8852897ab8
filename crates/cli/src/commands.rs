//! The CLI subcommands. Each returns the text it would print, so the unit
//! tests can exercise the full command path without capturing stdout.

use crate::args::{ArgError, Args};
use mkp::eval::Ratios;
use mkp::generate::{
    chu_beasley_instance, gk_instance, large_instance, uncorrelated_instance, GkSpec, LargeSpec,
};
use mkp::greedy::greedy;
use mkp::stats::instance_stats;
use mkp::Instance;
use parallel_tabu::{
    attach_job, fault_at_round, run_remote_with, serve, serve_slave_with, submit_job,
    CheckpointCfg, Endpoint, Engine, FaultAction, FaultPlan, Mode, NetFaultPlan, NetFaultState,
    RunConfig, ServeBackend, ServeConfig, ServeOutcome, Snapshot, SubmitEvent, SubmitOutcome,
    SubmitSpec,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Top-level command failures.
#[derive(Debug)]
pub enum CliError {
    /// Argument problems.
    Args(ArgError),
    /// Filesystem problems.
    Io(String),
    /// Instance parse problems.
    Parse(String),
    /// Semantic problems (unknown class, unknown mode, …).
    Invalid(String),
    /// The engine could not produce a result (e.g. every worker lost).
    Engine(String),
    /// The run *finished* but lost workers along the way. Carries the full
    /// solve output; `main` prints it and exits with the degraded code so
    /// scripts notice without losing the result.
    Degraded(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Parse(e) => write!(f, "parse error: {e}"),
            CliError::Invalid(e) => write!(f, "{e}"),
            CliError::Engine(e) => write!(f, "engine error: {e}"),
            CliError::Degraded(out) => write!(f, "{out}"),
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// Usage text (also shown on `mkp help`).
pub const USAGE: &str = "\
mkp — 0-1 multidimensional knapsack toolkit
  (reproduction of Niar & Fréville's parallel tabu search, IPPS 1997)

USAGE:
  mkp generate <out.mkp> [--class gk|cb|uniform|large] [--n N] [--m M]
               [--tightness T] [--correlation C] [--seed S]
  mkp stats    <instance.mkp>
  mkp solve    <instance.mkp> [--mode seq|its|cts1|cts2|ats|dts|core|repair]
               [--p P] [--rounds R] [--budget EVALS] [--seed S]
               [--relink true|false] [--timeout SECS] [--patience SECS]
               [--restarts N] [--backoff MS]
               [--checkpoint FILE] [--checkpoint-every K] [--resume FILE]
               [--fault kill@K:R|kill-repeat@K:R|delay@K:R:MS]
               [--metrics FILE] [--trace FILE]
               [--listen unix:PATH|tcp:HOST:PORT] [--net-fault SPEC]
  mkp slave    --connect unix:PATH|tcp:HOST:PORT [--patience SECS]
               [--net-fault SPEC]
  mkp serve    --clients unix:PATH|tcp:HOST:PORT [--slaves ADDR] [--p P]
               [--quantum ROUNDS] [--max-queue N] [--max-inflight N]
               [--max-jobs N] [--spool DIR]
               [--state-dir DIR] [--patience SECS]
  mkp submit   <instance.mkp> --connect unix:PATH|tcp:HOST:PORT
               [--mode seq|its|cts1|cts2|ats|dts|core|repair]
               [--p P] [--rounds R]
               [--budget EVALS] [--seed S] [--deadline-ms MS]
               [--attach JOB_ID] [--patience SECS]
  mkp exact    <instance.mkp> [--nodes LIMIT] [--workers W]
  mkp validate-metrics <metrics.json>
  mkp help

--mode takes any mode label, in any case. --mode core runs CTS2 inside an
LP-reduced-cost *promising core* (the confidently-decided variables are
fixed and periodically re-identified from the incumbent); --mode repair
runs independent randomized greedy-construction + feasibility-repair
restarts. Both are full engine citizens: checkpoint/resume, --fault,
--listen and --metrics work unchanged. --class large
generates the very-large benchmark class the policies target (--n in the
thousands, --m in the hundreds, --correlation tuning the profit–weight
coupling).

Fault specs number workers from 1 (worker 0 is the master). With
--restarts N the master resurrects a lost worker up to N times per worker
(exponential backoff from --backoff ms) before quarantining it; a fully
healed run exits 0. A solve that still loses workers prints its result,
listing the losses, and exits with code 2 so scripts can tell a degraded
run from a clean one.

--checkpoint FILE writes the complete master state to FILE every
--checkpoint-every K rounds (synchronous modes only); --resume FILE
continues such a snapshot — with the same instance and flags — to a result
bit-identical to the uninterrupted run.

--listen ADDR runs the solve as a *distributed* master: instead of the
in-process pool it waits for P `mkp slave --connect ADDR` processes (which
may be on other machines for tcp:), drives the identical protocol over the
socket, and heals a killed slave by adopting its reconnect. Fault injection
(--fault) and checkpointing are in-process features and are rejected with
--listen. `mkp slave` serves one run and exits 0 after the master's STOP;
--patience bounds every wait (for the master to appear, for the next
instruction, for a reconnect to succeed).

`mkp serve` runs a multi-tenant job server: clients `mkp submit` whole
jobs (instance + mode + budget + optional --deadline-ms) to --clients and
stream back acceptance, per-slice incumbents, and the final report. The
scheduler time-slices one persistent farm across jobs in --quantum-round
turns; --max-queue and --max-inflight bound admission, --max-jobs N makes
the server exit 0 after N jobs settle (for scripted runs). Every park
saves the job's snapshot to a spool directory (--spool DIR, by default a
fresh one under the system temp dir) and every resume reads it back;
without --state-dir the server removes its spool files on exit. Without
--slaves the farm is an in-process pool of P workers; with --slaves ADDR
it is P `mkp slave --connect ADDR` processes, which stay connected across
jobs and exit 0 when the server shuts down. A submit whose job is refused
or misses its deadline exits 1 with the server's reason; a submit (or
slave) whose far end goes silent exits 2, the shared degraded code.

--state-dir DIR makes the job server crash-safe: accepted jobs are
journaled to DIR/journal.mkpj (appended and fsynced before the client
hears ACCEPTED), the spool moves to DIR/spool/ and outlives the server, and
a server restarted on the same --state-dir replays the journal and
resumes every in-flight job from its last parked snapshot, bit-identical
to an uninterrupted run. Submissions carry an idempotency token, so a
client that loses the link after acceptance auto-reattaches on its own;
`mkp submit --attach JOB_ID` reattaches *explicitly* — after a client
restart — and streams the rest of the job (or fetches its recently
retained final report). SIGTERM drains the server gracefully: it stops
admitting, parks everything durably, compacts the journal, and exits 0.

--net-fault SPEC arms one planned network fault on the sending side —
drop@N, dup@N, truncate@N, corrupt@N or delay@N:MS, counting data frames
from 1 — on `mkp slave` (slave→master sends) or on `mkp solve --listen`
(master→slave sends). Every frame carries a checksum trailer, so a
corrupt frame is dropped and counted (see corrupt_drops in --metrics)
rather than trusted, and the link-level retry machinery heals the rest.

--metrics FILE dumps the run's telemetry counters as deterministic JSON
(byte-identical across repeats of the same seeded run); --trace FILE dumps
span timings and the causally ordered event trace as JSON lines. Both are
written even when the solve exits degraded. `mkp validate-metrics` checks
a metrics file against the schema and exits non-zero on any violation.
";

/// Flags of `mkp generate`. These lists are what `main` parses each
/// subcommand with (`stats` and `validate-metrics` take none).
pub const GEN_FLAGS: &[&str] = &["class", "n", "m", "tightness", "correlation", "seed"];
/// Flags of `mkp solve`.
pub const SOLVE_FLAGS: &[&str] = &[
    "mode",
    "p",
    "rounds",
    "budget",
    "seed",
    "relink",
    "timeout",
    "patience",
    "fault",
    "restarts",
    "backoff",
    "checkpoint",
    "checkpoint-every",
    "resume",
    "metrics",
    "trace",
    "listen",
    "net-fault",
];
/// Flags of `mkp slave`.
pub const SLAVE_FLAGS: &[&str] = &["connect", "patience", "net-fault"];
/// Flags of `mkp serve`.
pub const SERVE_FLAGS: &[&str] = &[
    "clients",
    "slaves",
    "p",
    "quantum",
    "max-queue",
    "max-inflight",
    "max-jobs",
    "spool",
    "state-dir",
    "patience",
];
/// Flags of `mkp submit`.
pub const SUBMIT_FLAGS: &[&str] = &[
    "connect",
    "mode",
    "p",
    "rounds",
    "budget",
    "seed",
    "deadline-ms",
    "attach",
    "patience",
];
/// Flags of `mkp exact`.
pub const EXACT_FLAGS: &[&str] = &["nodes", "workers"];

fn read_instance(path: &str) -> Result<Instance, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    mkp::format::parse_instance(path, &text).map_err(|e| CliError::Parse(e.to_string()))
}

/// `mkp generate`.
pub fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let out_path = args.positional(0, "out.mkp")?.to_string();
    let class = args.get_str("class").unwrap_or("gk").to_string();
    let n: usize = args.get("n", 100)?;
    let m: usize = args.get("m", 5)?;
    let tightness: f64 = args.get("tightness", 0.5)?;
    let correlation: f64 = args.get("correlation", 0.5)?;
    let seed: u64 = args.get("seed", 1)?;
    if args.get_str("correlation").is_some() && class != "large" {
        return Err(CliError::Invalid(
            "--correlation only applies to --class large".into(),
        ));
    }
    let name = format!("{class}_{m}x{n}_s{seed}");
    let inst = match class.as_str() {
        "gk" => gk_instance(
            &name,
            GkSpec {
                n,
                m,
                tightness,
                seed,
            },
        ),
        "cb" => chu_beasley_instance(&name, n, m, tightness, seed),
        "uniform" => uncorrelated_instance(&name, n, m, tightness, seed),
        "large" => {
            if !(0.0..=1.0).contains(&correlation) {
                return Err(CliError::Invalid(format!(
                    "correlation {correlation} outside [0, 1]"
                )));
            }
            if !(0.05..=0.95).contains(&tightness) {
                return Err(CliError::Invalid(format!(
                    "tightness {tightness} outside the large class's [0.05, 0.95]"
                )));
            }
            large_instance(
                &name,
                LargeSpec {
                    n,
                    m,
                    tightness,
                    correlation,
                    seed,
                },
            )
        }
        other => {
            return Err(CliError::Invalid(format!(
                "unknown class {other:?} (use gk, cb, uniform or large)"
            )))
        }
    };
    std::fs::write(&out_path, mkp::format::write_instance(&inst))
        .map_err(|e| CliError::Io(format!("{out_path}: {e}")))?;
    Ok(format!(
        "wrote {out_path}: {} [{}]",
        inst.name(),
        instance_stats(&inst)
    ))
}

/// `mkp stats`.
pub fn cmd_stats(args: &Args) -> Result<String, CliError> {
    if args.positional_count() > 1 {
        return Err(CliError::Invalid(
            "stats takes exactly one instance file".into(),
        ));
    }
    let inst = read_instance(args.positional(0, "instance.mkp")?)?;
    let s = instance_stats(&inst);
    let g = greedy(&inst, &Ratios::new(&inst));
    let mut out = String::new();
    let _ = writeln!(out, "instance   : {}", inst.name());
    let _ = writeln!(out, "items      : {}", s.n);
    let _ = writeln!(out, "constraints: {}", s.m);
    let _ = writeln!(out, "tightness  : {:.3}", s.mean_tightness);
    let _ = writeln!(out, "correlation: {:.3}", s.profit_weight_correlation);
    let _ = writeln!(out, "weight cv  : {:.3}", s.weight_cv);
    let _ = writeln!(out, "~cardinality: {:.0}", s.expected_cardinality);
    let _ = writeln!(out, "greedy value: {}", g.value());
    if let Ok(lp) = mkp_exact::bounds::lp_bound(&inst) {
        let _ = writeln!(out, "LP bound   : {:.1}", lp.objective);
    }
    if let Some(best) = inst.best_known() {
        let _ = writeln!(out, "best known : {best}");
    }
    Ok(out)
}

/// The `--mode` flag: any [`Mode`] label, case-insensitively; CTS2 when
/// absent.
fn parse_mode(args: &Args) -> Result<Mode, CliError> {
    let raw = args.get_str("mode").unwrap_or("cts2");
    Mode::from_label(raw).ok_or_else(|| {
        CliError::Invalid(format!(
            "unknown mode {raw:?} (use seq, its, cts1, cts2, ats, dts, core or repair)"
        ))
    })
}

/// Longest accepted `--fault` delay: a delay past the largest plausible
/// report deadline only wedges the test run it was meant to exercise.
const MAX_FAULT_DELAY_MS: u64 = 86_400_000; // 24 h

/// Parse a `--fault` spec. Workers are numbered from 1, matching the task
/// ids printed in loss reports; worker 0 is the master and cannot be a
/// fault target. `kill@K:R` kills worker K when it dequeues its round-R
/// assignment, `kill-repeat@K:R` additionally kills every resurrected
/// incarnation (restart-budget exhaustion drills), `delay@K:R:MS` turns
/// worker K into a straggler for MS milliseconds.
fn parse_fault(raw: &str) -> Result<FaultPlan, CliError> {
    let invalid = |what: &str| {
        CliError::Invalid(format!(
            "bad fault {raw:?}: {what} (use kill@K:R, kill-repeat@K:R or delay@K:R:MS, \
             workers numbered from 1)"
        ))
    };
    let (kind, spec) = raw
        .split_once('@')
        .ok_or_else(|| invalid("missing '@' between kind and position"))?;
    let fields: Vec<&str> = spec.split(':').collect();
    let num = |s: &str, what: &str| {
        s.parse::<u64>()
            .map_err(|_| invalid(&format!("{what} {s:?} is not a non-negative integer")))
    };
    let worker = |s: &str| -> Result<usize, CliError> {
        match num(s, "worker")? {
            0 => Err(invalid(
                "worker 0 targets the master; slaves are numbered from 1",
            )),
            k => Ok(k as usize - 1),
        }
    };
    let round = |s: &str| num(s, "round").map(|r| r as usize);
    match (kind, fields.as_slice()) {
        ("kill", [k, r]) => Ok(fault_at_round(worker(k)?, round(r)?, FaultAction::Kill)),
        ("kill-repeat", [k, r]) => Ok(fault_at_round(
            worker(k)?,
            round(r)?,
            FaultAction::KillRepeatedly,
        )),
        ("delay", [k, r, ms]) => {
            let (k, r) = (worker(k)?, round(r)?);
            let ms = num(ms, "delay")?;
            if ms == 0 {
                return Err(invalid(
                    "a zero delay never delays anything; drop the fault instead",
                ));
            }
            if ms > MAX_FAULT_DELAY_MS {
                return Err(invalid(&format!(
                    "delay of {ms} ms exceeds the 24-hour cap ({MAX_FAULT_DELAY_MS} ms)"
                )));
            }
            Ok(fault_at_round(
                k,
                r,
                FaultAction::Delay(Duration::from_millis(ms)),
            ))
        }
        ("kill" | "kill-repeat", f) => Err(invalid(&format!(
            "{kind} takes exactly K:R, got {} fields",
            f.len()
        ))),
        ("delay", f) => Err(invalid(&format!(
            "delay takes exactly K:R:MS, got {} fields",
            f.len()
        ))),
        (other, _) => Err(invalid(&format!("unknown fault kind {other:?}"))),
    }
}

/// `mkp solve`.
pub fn cmd_solve(args: &Args) -> Result<String, CliError> {
    let inst = read_instance(args.positional(0, "instance.mkp")?)?;
    let mode = parse_mode(args)?;
    let p: usize = args.get("p", 4)?;
    let rounds: usize = args.get("rounds", 12)?;
    let budget: u64 = args.get("budget", 40_000 * inst.n() as u64)?;
    let seed: u64 = args.get("seed", 7)?;
    let relink: bool = args.get("relink", false)?;
    let timeout: u64 = args.get(
        "timeout",
        parallel_tabu::runner::DEFAULT_REPORT_TIMEOUT.as_secs(),
    )?;
    let fault = args.get_str("fault").map(parse_fault).transpose()?;
    let restarts: usize = args.get("restarts", 0)?;
    let backoff: u64 = args.get("backoff", 50)?;
    let patience: Option<u64> = args
        .get_str("patience")
        .map(|raw| {
            raw.parse().map_err(|_| {
                CliError::Invalid(format!("cannot parse value {raw:?} for --patience"))
            })
        })
        .transpose()?;
    let checkpoint_every: usize = args.get("checkpoint-every", 1)?;
    let checkpoint = args.get_str("checkpoint").map(|path| CheckpointCfg {
        path: path.into(),
        every: checkpoint_every,
    });
    if checkpoint.is_none() && args.get_str("checkpoint-every").is_some() {
        return Err(CliError::Invalid(
            "--checkpoint-every needs --checkpoint FILE".into(),
        ));
    }
    if p == 0 || rounds == 0 || budget == 0 || timeout == 0 {
        return Err(CliError::Invalid(
            "p, rounds, budget and timeout must be positive".into(),
        ));
    }
    let listen = args
        .get_str("listen")
        .map(Endpoint::parse)
        .transpose()
        .map_err(|e| CliError::Invalid(format!("--listen: {e}")))?;
    let net_fault = args
        .get_str("net-fault")
        .map(NetFaultPlan::parse)
        .transpose()
        .map_err(CliError::Invalid)?;
    if net_fault.is_some() && listen.is_none() {
        return Err(CliError::Invalid(
            "--net-fault injects faults into the socket transport and needs --listen; \
             for the in-process pool use --fault"
                .into(),
        ));
    }
    if listen.is_some() {
        // A distributed master farms work out to real processes; the
        // in-process-pool features make no sense over it and silently
        // ignoring them would mislead.
        if fault.is_some() {
            return Err(CliError::Invalid(
                "--fault injects faults into the in-process pool and cannot be combined \
                 with --listen; kill the slave process instead"
                    .into(),
            ));
        }
        if args.get_str("checkpoint").is_some() || args.get_str("resume").is_some() {
            return Err(CliError::Invalid(
                "--checkpoint/--resume are not yet supported with --listen".into(),
            ));
        }
    }

    let cfg = RunConfig {
        p,
        rounds,
        relink,
        report_timeout: Duration::from_secs(timeout),
        max_restarts: restarts,
        restart_backoff: Duration::from_millis(backoff),
        slave_patience: patience.map(Duration::from_secs),
        checkpoint,
        ..RunConfig::new(budget, seed)
    };
    cfg.validate().map_err(CliError::Invalid)?;
    let report = match &listen {
        Some(endpoint) => {
            let fault_state = net_fault.map(|plan| Arc::new(NetFaultState::new(plan)));
            run_remote_with(&inst, mode, &cfg, endpoint, fault_state)
        }
        None => {
            let mut engine = Engine::new(cfg.p);
            if let Some(plan) = fault {
                engine.inject_fault(plan);
            }
            match args.get_str("resume") {
                None => engine.run(&inst, mode, &cfg),
                Some(path) => {
                    // The snapshot, not --mode, decides the policy: resuming
                    // under a different mode could not reproduce the
                    // original run.
                    let snap = Snapshot::load(std::path::Path::new(path))
                        .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
                    engine.resume(&inst, snap, &cfg)
                }
            }
        }
    }
    .map_err(|e| CliError::Engine(e.to_string()))?;
    // Telemetry dumps happen before the degraded/clean split so a run that
    // lost workers still leaves its metrics behind for post-mortems.
    if let Some(path) = args.get_str("metrics") {
        std::fs::write(path, report.telemetry.to_metrics_json())
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    }
    if let Some(path) = args.get_str("trace") {
        std::fs::write(path, report.telemetry.to_trace_jsonl())
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    }
    let mut out = String::new();
    let _ = writeln!(out, "mode       : {}", report.mode.label());
    let _ = writeln!(out, "best value : {}", report.best.value());
    let _ = writeln!(out, "items      : {:?}", report.best.bits().ones());
    let _ = writeln!(
        out,
        "work       : {} moves / {} evals in {:?}",
        report.total_moves, report.total_evals, report.wall
    );
    if !report.resurrections.is_empty() {
        let revivals: Vec<String> = report.resurrections.iter().map(|r| r.to_string()).collect();
        let _ = writeln!(
            out,
            "resurrections: {} ({})",
            report.resurrections.len(),
            revivals.join("; ")
        );
    }
    if report.is_degraded() {
        let losses: Vec<String> = report.lost_workers.iter().map(|l| l.to_string()).collect();
        let _ = writeln!(
            out,
            "lost workers: {} ({})",
            report.lost_workers.len(),
            losses.join("; ")
        );
    }
    if let Ok(lp) = mkp_exact::bounds::lp_bound(&inst) {
        let gap = 100.0 * (lp.objective - report.best.value() as f64) / lp.objective;
        let _ = writeln!(out, "LP gap     : ≤ {gap:.3}%");
    }
    if let Some(best) = inst.best_known() {
        let _ = writeln!(
            out,
            "vs recorded: {} ({})",
            best,
            if report.best.value() >= best {
                "matched"
            } else {
                "below"
            }
        );
    }
    if report.is_degraded() {
        return Err(CliError::Degraded(out));
    }
    Ok(out)
}

/// Default `mkp slave --patience`, matching the engine's derived slave
/// patience for the default report timeout.
const DEFAULT_SLAVE_PATIENCE_SECS: u64 = 121;

/// `mkp slave`: serve one distributed run as a remote worker process.
pub fn cmd_slave(args: &Args) -> Result<String, CliError> {
    if args.positional_count() > 0 {
        return Err(CliError::Invalid(
            "slave takes no positional arguments; the master sends the instance over \
             the connection"
                .into(),
        ));
    }
    let raw = args.get_str("connect").ok_or_else(|| {
        CliError::Invalid("slave needs --connect unix:PATH or --connect tcp:HOST:PORT".into())
    })?;
    let endpoint =
        Endpoint::parse(raw).map_err(|e| CliError::Invalid(format!("--connect: {e}")))?;
    let patience: u64 = args.get("patience", DEFAULT_SLAVE_PATIENCE_SECS)?;
    if patience == 0 {
        return Err(CliError::Invalid(
            "--patience must be positive: a zero-patience slave gives up before the \
             master can say anything"
                .into(),
        ));
    }
    let fault = args
        .get_str("net-fault")
        .map(NetFaultPlan::parse)
        .transpose()
        .map_err(CliError::Invalid)?
        .map(|plan| Arc::new(NetFaultState::new(plan)));
    match serve_slave_with(&endpoint, Duration::from_secs(patience), fault)
        .map_err(CliError::Engine)?
    {
        ServeOutcome::Finished => Ok(format!("slave done: run at {endpoint} stopped cleanly")),
        ServeOutcome::MasterLost => Err(peer_lost("slave done", "master", &endpoint, patience)),
    }
}

/// The one degraded exit for a lost far end: `mkp slave` losing its
/// master and `mkp submit` losing its job server end the same way —
/// result unknown, work possibly still running — so both report through
/// this and exit with code 2.
fn peer_lost(task: &str, peer: &str, endpoint: &Endpoint, patience_secs: u64) -> CliError {
    CliError::Degraded(format!(
        "{task}: {peer} at {endpoint} went silent beyond {patience_secs} s"
    ))
}

/// Install a SIGTERM handler that flips a shared drain flag, and return
/// the flag. The job server polls it between slices: on SIGTERM it stops
/// admitting, parks every job (durably with `--state-dir`), compacts the
/// journal, and exits 0 — the graceful half of crash-safety, next to the
/// journal's kill-9 half. Raw `signal(2)` keeps the zero-dependency rule;
/// an atomic store is all the handler does, which is async-signal-safe.
#[cfg(unix)]
fn drain_on_sigterm() -> Arc<AtomicBool> {
    use std::sync::OnceLock;
    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    extern "C" fn on_sigterm(_sig: i32) {
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::Relaxed);
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    let flag = Arc::clone(FLAG.get_or_init(|| Arc::new(AtomicBool::new(false))));
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
    flag
}

/// Without signals there is no graceful drain; the journal still covers
/// hard kills.
#[cfg(not(unix))]
fn drain_on_sigterm() -> Arc<AtomicBool> {
    Arc::new(AtomicBool::new(false))
}

/// `mkp serve`.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    if args.positional_count() > 0 {
        return Err(CliError::Invalid(
            "serve takes no positional arguments; clients send instances over the \
             connection"
                .into(),
        ));
    }
    let clients = args.get_str("clients").ok_or_else(|| {
        CliError::Invalid("serve needs --clients unix:PATH or --clients tcp:HOST:PORT".into())
    })?;
    let clients =
        Endpoint::parse(clients).map_err(|e| CliError::Invalid(format!("--clients: {e}")))?;
    let p: usize = args.get("p", 4)?;
    let quantum: usize = args.get("quantum", 1)?;
    let max_queue: usize = args.get("max-queue", 16)?;
    let max_inflight: usize = args.get("max-inflight", 4)?;
    let max_jobs: u64 = args.get("max-jobs", 0)?;
    let patience: u64 = args.get("patience", DEFAULT_SLAVE_PATIENCE_SECS)?;
    if p == 0 || quantum == 0 || max_queue == 0 || max_inflight == 0 || patience == 0 {
        return Err(CliError::Invalid(
            "p, quantum, max-queue, max-inflight and patience must be positive".into(),
        ));
    }
    let backend = match args.get_str("slaves") {
        Some(raw) => ServeBackend::Socket {
            slaves: Endpoint::parse(raw)
                .map_err(|e| CliError::Invalid(format!("--slaves: {e}")))?,
            p,
        },
        None => ServeBackend::InProc { p },
    };
    let mut cfg = ServeConfig {
        quantum,
        max_queue,
        max_inflight,
        max_jobs,
        patience: Duration::from_secs(patience),
        ..ServeConfig::default()
    };
    if let Some(dir) = args.get_str("spool") {
        cfg.spool_dir = dir.into();
    }
    if let Some(dir) = args.get_str("state-dir") {
        cfg.state_dir = Some(dir.into());
    }
    cfg.drain = Some(drain_on_sigterm());
    let stats = serve(&clients, backend, &cfg).map_err(CliError::Engine)?;
    let mut out = String::new();
    let _ = writeln!(out, "server done: {} jobs accepted", stats.accepted);
    let _ = writeln!(
        out,
        "verdicts   : {} done / {} expired / {} failed / {} canceled / {} refused",
        stats.done, stats.expired, stats.failed, stats.canceled, stats.rejected
    );
    let _ = writeln!(
        out,
        "scheduling : {} slices, {} restores",
        stats.slices, stats.restores
    );
    let _ = writeln!(
        out,
        "durability : {} recovered, {} spool corrupt{}",
        stats.recovered,
        stats.spool_corrupt,
        if stats.drained { ", drained" } else { "" }
    );
    Ok(out)
}

/// `mkp submit`.
pub fn cmd_submit(args: &Args) -> Result<String, CliError> {
    let inst = read_instance(args.positional(0, "instance.mkp")?)?;
    let raw = args.get_str("connect").ok_or_else(|| {
        CliError::Invalid("submit needs --connect unix:PATH or --connect tcp:HOST:PORT".into())
    })?;
    let endpoint =
        Endpoint::parse(raw).map_err(|e| CliError::Invalid(format!("--connect: {e}")))?;
    let mode = parse_mode(args)?;
    let p: usize = args.get("p", 4)?;
    let rounds: usize = args.get("rounds", 12)?;
    let budget: u64 = args.get("budget", 40_000 * inst.n() as u64)?;
    let seed: u64 = args.get("seed", 7)?;
    let deadline_ms: u64 = args.get("deadline-ms", 0)?;
    let patience: u64 = args.get("patience", DEFAULT_SLAVE_PATIENCE_SECS)?;
    if p == 0 || rounds == 0 || budget == 0 || patience == 0 {
        return Err(CliError::Invalid(
            "p, rounds, budget and patience must be positive".into(),
        ));
    }
    let attach: u64 = args.get("attach", 0)?;
    if args.get_str("attach").is_some() && attach == 0 {
        return Err(CliError::Invalid(
            "--attach needs the job id a previous submit printed (ids start at 1)".into(),
        ));
    }
    let mut events = Vec::new();
    let outcome = if attach > 0 {
        // Reattach to a job this client (or a predecessor) already
        // submitted — after either side restarted. The search flags are
        // ignored: the server already has the job's configuration.
        attach_job(&endpoint, attach, Duration::from_secs(patience), |ev| {
            events.push(ev)
        })
    } else {
        let spec = SubmitSpec {
            mode,
            p,
            rounds,
            budget_evals: budget,
            seed,
            deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        };
        submit_job(
            &endpoint,
            &inst,
            &spec,
            Duration::from_secs(patience),
            |ev| events.push(ev),
        )
    }
    .map_err(CliError::Engine)?;

    let mut out = String::new();
    for ev in &events {
        match ev {
            SubmitEvent::Accepted { job_id } => {
                let verb = if attach > 0 { "reattached" } else { "accepted" };
                let _ = writeln!(out, "job        : {job_id} {verb} at {endpoint}");
            }
            SubmitEvent::Incumbent { value, round, .. } => {
                let _ = writeln!(out, "incumbent  : {value} after round {round}");
            }
        }
    }
    match outcome {
        SubmitOutcome::Done(report) => {
            if report.best_bits.len() != inst.n() {
                return Err(CliError::Engine(format!(
                    "server answered for a {}-item instance, ours has {}",
                    report.best_bits.len(),
                    inst.n()
                )));
            }
            let best = report.best_solution(&inst);
            if !best.is_feasible(&inst) {
                return Err(CliError::Engine(
                    "server returned an infeasible assignment".into(),
                ));
            }
            let _ = writeln!(out, "mode       : {}", report.mode.label());
            let _ = writeln!(out, "best value : {}", best.value());
            let _ = writeln!(out, "items      : {:?}", best.bits().ones());
            let _ = writeln!(
                out,
                "work       : {} moves / {} evals in {} ms server-side{}",
                report.total_moves,
                report.total_evals,
                report.wall_ms,
                if report.degraded {
                    " (degraded: the server lost workers)"
                } else {
                    ""
                }
            );
            Ok(out)
        }
        SubmitOutcome::Rejected { reason } => Err(CliError::Engine(format!(
            "job rejected by the server at {endpoint}: {reason}"
        ))),
        SubmitOutcome::ServerLost => Err(peer_lost("job lost", "server", &endpoint, patience)),
    }
}

/// `mkp exact`.
pub fn cmd_exact(args: &Args) -> Result<String, CliError> {
    let inst = read_instance(args.positional(0, "instance.mkp")?)?;
    let nodes: u64 = args.get("nodes", 100_000_000)?;
    let workers: usize = args.get("workers", 1)?;
    if workers == 0 {
        return Err(CliError::Invalid("workers must be positive".into()));
    }
    let cfg = mkp_exact::BbConfig {
        node_limit: nodes,
        ..mkp_exact::BbConfig::default()
    };
    let start = std::time::Instant::now();
    let r = if workers == 1 {
        mkp_exact::solve(&inst, &cfg)
    } else {
        mkp_exact::solve_parallel(&inst, &cfg, workers)
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "optimum    : {}{}",
        r.solution.value(),
        if r.proven {
            ""
        } else {
            " (NOT PROVEN — node limit)"
        }
    );
    let _ = writeln!(out, "items      : {:?}", r.solution.bits().ones());
    let _ = writeln!(out, "nodes      : {}", r.nodes);
    let _ = writeln!(out, "root LP    : {:.1}", r.root_lp);
    let _ = writeln!(out, "time       : {:?}", start.elapsed());
    Ok(out)
}

/// `mkp validate-metrics`: schema-check a `--metrics` dump.
pub fn cmd_validate_metrics(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "metrics.json")?;
    if args.positional_count() > 1 {
        return Err(CliError::Invalid(
            "validate-metrics takes exactly one metrics file".into(),
        ));
    }
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let doc = parallel_tabu::validate_metrics_json(&text)
        .map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
    Ok(format!(
        "ok: {} tasks, schema {}",
        doc.workers.len(),
        doc.schema
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str], accepted: &[&'static str]) -> Args {
        Args::parse(parts.iter().map(|s| s.to_string()), accepted).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mkp_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn serve_then_submit_round_trip() {
        let path = tmp("jobsrv.mkp");
        cmd_generate(&args(
            &[&path, "--class", "uniform", "--n", "24", "--m", "3"],
            GEN_FLAGS,
        ))
        .unwrap();
        let sock = tmp("jobsrv.sock");
        let _ = std::fs::remove_file(&sock);
        let addr = format!("unix:{sock}");

        let server = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                cmd_serve(&args(
                    &["--clients", &addr, "--p", "2", "--max-jobs", "1"],
                    SERVE_FLAGS,
                ))
            })
        };
        let out = cmd_submit(&args(
            &[
                &path,
                "--connect",
                &addr,
                "--mode",
                "cts1",
                "--p",
                "2",
                "--rounds",
                "3",
                "--budget",
                "60000",
            ],
            SUBMIT_FLAGS,
        ))
        .unwrap();
        assert!(out.contains("accepted"));
        assert!(out.contains("incumbent  :"));
        assert!(out.contains("best value"));

        let served = server.join().unwrap().unwrap();
        assert!(served.contains("server done: 1 jobs accepted"));
        assert!(served.contains("1 done"));
    }

    #[test]
    fn serve_with_state_dir_retains_terminals_for_attach() {
        let path = tmp("attach_rt.mkp");
        cmd_generate(&args(
            &[&path, "--class", "uniform", "--n", "20", "--m", "2"],
            GEN_FLAGS,
        ))
        .unwrap();
        let sock = tmp("attach_rt.sock");
        let _ = std::fs::remove_file(&sock);
        let addr = format!("unix:{sock}");
        let state = tmp("attach_rt_state");
        let _ = std::fs::remove_dir_all(&state);

        // Two terminals stop the server: the first submit, and a second
        // submit fired after the attach has fetched the retained report.
        let server = {
            let (addr, state) = (addr.clone(), state.clone());
            std::thread::spawn(move || {
                cmd_serve(&args(
                    &[
                        "--clients",
                        &addr,
                        "--p",
                        "2",
                        "--max-jobs",
                        "2",
                        "--state-dir",
                        &state,
                    ],
                    SERVE_FLAGS,
                ))
            })
        };
        let submit_args: Vec<&str> = vec![
            &path,
            "--connect",
            &addr,
            "--mode",
            "cts1",
            "--p",
            "2",
            "--rounds",
            "2",
            "--budget",
            "40000",
        ];
        let first = cmd_submit(&args(&submit_args, SUBMIT_FLAGS)).unwrap();
        assert!(first.contains("job        : 1 accepted"));

        let attached = cmd_submit(&args(
            &[&path, "--connect", &addr, "--attach", "1"],
            SUBMIT_FLAGS,
        ))
        .unwrap();
        assert!(attached.contains("job        : 1 reattached"), "{attached}");
        let value = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("best value"))
                .map(str::to_string)
        };
        assert_eq!(value(&first), value(&attached), "{first}\n{attached}");

        cmd_submit(&args(&submit_args, SUBMIT_FLAGS)).unwrap();
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("2 done"), "{served}");
        assert!(served.contains("durability : 0 recovered"), "{served}");
        assert!(
            std::path::Path::new(&state).join("journal.mkpj").exists(),
            "serving with --state-dir must leave a journal"
        );
    }

    #[test]
    fn attach_rejects_a_zero_or_malformed_job_id() {
        let path = tmp("attach_bad.mkp");
        cmd_generate(&args(&[&path, "--n", "10", "--m", "2"], GEN_FLAGS)).unwrap();
        let err = cmd_submit(&args(
            &[&path, "--connect", "unix:/tmp/x.sock", "--attach", "0"],
            SUBMIT_FLAGS,
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("ids start at 1"), "{err}");
        assert!(cmd_submit(&args(
            &[&path, "--connect", "unix:/tmp/x.sock", "--attach", "one"],
            SUBMIT_FLAGS,
        ))
        .is_err());
    }

    #[test]
    fn net_fault_requires_listen_and_a_wellformed_spec() {
        let path = tmp("netfault.mkp");
        cmd_generate(&args(&[&path, "--n", "10", "--m", "2"], GEN_FLAGS)).unwrap();
        let err = cmd_solve(&args(&[&path, "--net-fault", "corrupt@2"], SOLVE_FLAGS))
            .unwrap_err()
            .to_string();
        assert!(err.contains("needs --listen"), "{err}");
        let err = cmd_solve(&args(
            &[
                &path,
                "--listen",
                "unix:/tmp/x.sock",
                "--net-fault",
                "melt@1",
            ],
            SOLVE_FLAGS,
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown net-fault kind"), "{err}");
        let err = cmd_slave(&args(
            &["--connect", "unix:/tmp/x.sock", "--net-fault", "drop@0"],
            SLAVE_FLAGS,
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("frame 0"), "{err}");
    }

    #[test]
    fn serve_and_submit_validate_their_arguments() {
        let err = cmd_serve(&args(&["--p", "2"], SERVE_FLAGS)).unwrap_err();
        assert!(err.to_string().contains("--clients"));

        let err = cmd_serve(&args(
            &["--clients", "unix:/tmp/x.sock", "--quantum", "0"],
            SERVE_FLAGS,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("positive"));

        let path = tmp("submit_args.mkp");
        cmd_generate(&args(&[&path, "--n", "12", "--m", "2"], GEN_FLAGS)).unwrap();
        let err = cmd_submit(&args(&[&path], SUBMIT_FLAGS)).unwrap_err();
        assert!(err.to_string().contains("--connect"));

        let err = cmd_submit(&args(&[&path, "--connect", "nonsense"], SUBMIT_FLAGS)).unwrap_err();
        assert!(err.to_string().contains("--connect"));
    }

    #[test]
    fn generate_then_stats_then_solve_then_exact() {
        let path = tmp("pipeline.mkp");
        let msg = cmd_generate(&args(
            &[
                &path, "--class", "uniform", "--n", "24", "--m", "3", "--seed", "5",
            ],
            GEN_FLAGS,
        ))
        .unwrap();
        assert!(msg.contains("wrote"));

        let stats = cmd_stats(&args(&[&path], &[])).unwrap();
        assert!(stats.contains("items      : 24"));
        assert!(stats.contains("LP bound"));

        let solved = cmd_solve(&args(
            &[
                &path, "--mode", "cts2", "--budget", "200000", "--rounds", "4",
            ],
            SOLVE_FLAGS,
        ))
        .unwrap();
        assert!(solved.contains("mode       : CTS2"));
        assert!(solved.contains("best value"));

        let exact = cmd_exact(&args(&[&path, "--workers", "2"], EXACT_FLAGS)).unwrap();
        assert!(exact.contains("optimum"));
        assert!(!exact.contains("NOT PROVEN"));
    }

    #[test]
    fn generate_rejects_unknown_class() {
        let path = tmp("bad_class.mkp");
        let err = cmd_generate(&args(&[&path, "--class", "weird"], GEN_FLAGS)).unwrap_err();
        assert!(err.to_string().contains("unknown class"));
    }

    #[test]
    fn solve_rejects_unknown_mode() {
        let path = tmp("mode.mkp");
        cmd_generate(&args(&[&path, "--n", "10", "--m", "2"], GEN_FLAGS)).unwrap();
        let err = cmd_solve(&args(&[&path, "--mode", "bogus"], SOLVE_FLAGS)).unwrap_err();
        assert!(err.to_string().contains("unknown mode"));
    }

    #[test]
    fn generate_large_class_and_correlation_validation() {
        let path = tmp("large_gen.mkp");
        let msg = cmd_generate(&args(
            &[
                &path,
                "--class",
                "large",
                "--n",
                "400",
                "--m",
                "20",
                "--correlation",
                "0.7",
            ],
            GEN_FLAGS,
        ))
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        let stats = cmd_stats(&args(&[&path], &[])).unwrap();
        assert!(stats.contains("items      : 400"), "{stats}");

        let err = cmd_generate(&args(
            &[&path, "--class", "large", "--correlation", "1.5"],
            GEN_FLAGS,
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("outside [0, 1]"), "{err}");
        let err = cmd_generate(&args(
            &[&path, "--class", "gk", "--correlation", "0.5"],
            GEN_FLAGS,
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("only applies to --class large"), "{err}");
    }

    #[test]
    fn solve_rejects_zero_budget() {
        let path = tmp("zero.mkp");
        cmd_generate(&args(&[&path, "--n", "10", "--m", "2"], GEN_FLAGS)).unwrap();
        let err = cmd_solve(&args(&[&path, "--budget", "0"], SOLVE_FLAGS)).unwrap_err();
        assert!(err.to_string().contains("positive"));
    }

    #[test]
    fn solve_honors_timeout_flag() {
        let path = tmp("timeout.mkp");
        cmd_generate(&args(
            &[&path, "--n", "12", "--m", "2", "--class", "uniform"],
            GEN_FLAGS,
        ))
        .unwrap();
        let out = cmd_solve(&args(
            &[
                &path,
                "--timeout",
                "120",
                "--budget",
                "20000",
                "--rounds",
                "2",
            ],
            SOLVE_FLAGS,
        ))
        .unwrap();
        assert!(out.contains("best value"));
        let err = cmd_solve(&args(&[&path, "--timeout", "0"], SOLVE_FLAGS)).unwrap_err();
        assert!(err.to_string().contains("positive"));
    }

    #[test]
    fn fault_specs_parse() {
        // Workers are 1-based in specs, 0-based in fault_at_round.
        assert_eq!(
            parse_fault("kill@1:2").unwrap(),
            fault_at_round(0, 2, FaultAction::Kill)
        );
        assert_eq!(
            parse_fault("kill-repeat@3:0").unwrap(),
            fault_at_round(2, 0, FaultAction::KillRepeatedly)
        );
        assert_eq!(
            parse_fault("delay@1:3:250").unwrap(),
            fault_at_round(0, 3, FaultAction::Delay(Duration::from_millis(250)))
        );
        for bad in ["kill@1", "delay@1:2", "boom@1:2", "kill@a:b", "kill"] {
            assert!(parse_fault(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn fault_targeting_the_master_is_rejected() {
        for spec in ["kill@0:1", "kill-repeat@0:1", "delay@0:1:100"] {
            let err = parse_fault(spec).unwrap_err().to_string();
            assert!(err.contains("targets the master"), "{spec}: {err}");
        }
    }

    #[test]
    fn zero_delay_fault_is_rejected() {
        let err = parse_fault("delay@1:2:0").unwrap_err().to_string();
        assert!(err.contains("zero delay"), "{err}");
    }

    #[test]
    fn overlong_delay_fault_is_rejected() {
        // Just past the 24h cap, and a u64-overflowing literal.
        let err = parse_fault("delay@1:2:86400001").unwrap_err().to_string();
        assert!(err.contains("24-hour cap"), "{err}");
        let err = parse_fault("delay@1:2:99999999999999999999999")
            .unwrap_err()
            .to_string();
        assert!(err.contains("not a non-negative integer"), "{err}");
    }

    #[test]
    fn trailing_fault_fields_are_rejected() {
        let err = parse_fault("kill@1:2:3").unwrap_err().to_string();
        assert!(err.contains("exactly K:R"), "{err}");
        let err = parse_fault("delay@1:2:3:4").unwrap_err().to_string();
        assert!(err.contains("exactly K:R:MS"), "{err}");
        assert!(parse_fault("kill@1:2x").is_err(), "garbage round accepted");
    }

    #[test]
    fn degraded_solve_reports_losses_and_keeps_result() {
        let path = tmp("degraded.mkp");
        cmd_generate(&args(
            &[&path, "--n", "20", "--m", "2", "--class", "uniform"],
            GEN_FLAGS,
        ))
        .unwrap();
        let err = cmd_solve(&args(
            &[
                &path,
                "--mode",
                "cts2",
                "--p",
                "4",
                "--rounds",
                "3",
                "--budget",
                "60000",
                "--fault",
                "kill@1:1",
                "--timeout",
                "3",
            ],
            SOLVE_FLAGS,
        ))
        .unwrap_err();
        let CliError::Degraded(out) = err else {
            panic!("expected a degraded run, got {err:?}");
        };
        assert!(out.contains("best value"), "result lost: {out}");
        assert!(out.contains("lost workers: 1"), "losses missing: {out}");
        assert!(out.contains("worker 0 @ round 1"), "wrong loss: {out}");
    }

    #[test]
    fn restart_budget_heals_a_killed_worker() {
        let path = tmp("healed.mkp");
        cmd_generate(&args(
            &[&path, "--n", "20", "--m", "2", "--class", "uniform"],
            GEN_FLAGS,
        ))
        .unwrap();
        let out = cmd_solve(&args(
            &[
                &path,
                "--mode",
                "cts2",
                "--p",
                "4",
                "--rounds",
                "3",
                "--budget",
                "60000",
                "--fault",
                "kill@1:1",
                "--restarts",
                "2",
                "--backoff",
                "1",
                "--timeout",
                "5",
            ],
            SOLVE_FLAGS,
        ))
        .unwrap(); // Ok, not Degraded: the worker came back
        assert!(out.contains("resurrections: 1"), "no revival: {out}");
        assert!(
            out.contains("worker 0 @ round 1: revived on attempt 1"),
            "wrong revival: {out}"
        );
        assert!(!out.contains("lost workers"), "still degraded: {out}");
    }

    #[test]
    fn checkpointed_solve_resumes_to_the_same_result() {
        let path = tmp("resume.mkp");
        let snap = tmp("resume.snap");
        cmd_generate(&args(
            &[
                &path, "--n", "24", "--m", "3", "--class", "uniform", "--seed", "6",
            ],
            GEN_FLAGS,
        ))
        .unwrap();
        let solve_flags: Vec<&str> = vec![
            &path, "--mode", "cts2", "--p", "2", "--rounds", "4", "--budget", "80000",
        ];
        let full = cmd_solve(&args(&solve_flags, SOLVE_FLAGS)).unwrap();

        let mut with_cp = solve_flags.clone();
        with_cp.extend_from_slice(&["--checkpoint", &snap, "--checkpoint-every", "2"]);
        cmd_solve(&args(&with_cp, SOLVE_FLAGS)).unwrap();

        let mut resumed_args = solve_flags.clone();
        resumed_args.extend_from_slice(&["--resume", &snap]);
        let resumed = cmd_solve(&args(&resumed_args, SOLVE_FLAGS)).unwrap();
        let line = |s: &str, key: &str| {
            s.lines()
                .find(|l| l.starts_with(key))
                .map(str::to_string)
                .unwrap_or_default()
        };
        assert_eq!(
            line(&full, "best value"),
            line(&resumed, "best value"),
            "resume diverged\nfull:\n{full}\nresumed:\n{resumed}"
        );
        assert_eq!(line(&full, "items"), line(&resumed, "items"));
    }

    #[test]
    fn checkpoint_every_without_checkpoint_is_rejected() {
        let path = tmp("cp_orphan.mkp");
        cmd_generate(&args(&[&path, "--n", "10", "--m", "2"], GEN_FLAGS)).unwrap();
        let err = cmd_solve(&args(&[&path, "--checkpoint-every", "2"], SOLVE_FLAGS)).unwrap_err();
        assert!(err.to_string().contains("needs --checkpoint"), "{err}");
    }

    #[test]
    fn listen_rejects_malformed_addresses_with_specific_messages() {
        let path = tmp("listen_bad.mkp");
        cmd_generate(&args(&[&path, "--n", "10", "--m", "2"], GEN_FLAGS)).unwrap();
        for (addr, needle) in [
            ("localhost:9000", "malformed address"),
            ("unix:", "empty unix socket path"),
            ("tcp:localhost", "missing a port"),
            ("tcp:localhost:0", "port 0"),
            ("tcp::9000", "empty host"),
        ] {
            let err = cmd_solve(&args(&[&path, "--listen", addr], SOLVE_FLAGS))
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "{addr}: {err}");
        }
    }

    #[test]
    fn listen_rejects_fault_injection_and_zero_workers() {
        let path = tmp("listen_combo.mkp");
        cmd_generate(&args(&[&path, "--n", "10", "--m", "2"], GEN_FLAGS)).unwrap();
        let err = cmd_solve(&args(
            &[&path, "--listen", "unix:/tmp/x.sock", "--fault", "kill@1:0"],
            SOLVE_FLAGS,
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("cannot be combined with --listen"), "{err}");
        let err = cmd_solve(&args(
            &[&path, "--listen", "unix:/tmp/x.sock", "--p", "0"],
            SOLVE_FLAGS,
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn listen_rejects_patience_below_the_report_deadline() {
        let path = tmp("listen_patience.mkp");
        cmd_generate(&args(&[&path, "--n", "10", "--m", "2"], GEN_FLAGS)).unwrap();
        let err = cmd_solve(&args(
            &[
                &path,
                "--listen",
                "unix:/tmp/x.sock",
                "--timeout",
                "10",
                "--patience",
                "2",
            ],
            SOLVE_FLAGS,
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("patience"), "{err}");
        assert!(err.contains("report timeout"), "{err}");
    }

    #[test]
    fn slave_validates_its_arguments() {
        let err = cmd_slave(&args(&[], SLAVE_FLAGS)).unwrap_err().to_string();
        assert!(err.contains("needs --connect"), "{err}");
        let err = cmd_slave(&args(&["--connect", "nonsense"], SLAVE_FLAGS))
            .unwrap_err()
            .to_string();
        assert!(err.contains("malformed address"), "{err}");
        let err = cmd_slave(&args(
            &["--connect", "unix:/tmp/x.sock", "--patience", "0"],
            SLAVE_FLAGS,
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("must be positive"), "{err}");
        let err = cmd_slave(&args(
            &["stray.mkp", "--connect", "unix:/tmp/x.sock"],
            SLAVE_FLAGS,
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("no positional"), "{err}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = cmd_stats(&args(&["/nonexistent/nowhere.mkp"], &[])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn all_modes_accepted_by_solver() {
        let path = tmp("modes.mkp");
        cmd_generate(&args(
            &[&path, "--n", "20", "--m", "2", "--class", "uniform"],
            GEN_FLAGS,
        ))
        .unwrap();
        // --mode takes every label, in any case.
        let spellings = ["seq", "its", "cts1", "cts2", "ats", "dts", "CORE", "Repair"];
        for (mode, raw) in Mode::all().into_iter().zip(spellings) {
            let out = cmd_solve(&args(
                &[
                    &path, "--mode", raw, "--budget", "50000", "--rounds", "2", "--p", "2",
                ],
                SOLVE_FLAGS,
            ))
            .unwrap();
            assert!(out.contains("best value"), "mode {raw} failed");
            assert!(
                out.contains(&format!("mode       : {}", mode.label())),
                "--mode {raw}: {out}"
            );
        }
    }

    #[test]
    fn solve_writes_identical_metrics_across_repeats_and_they_validate() {
        let path = tmp("metrics.mkp");
        cmd_generate(&args(
            &[&path, "--n", "20", "--m", "2", "--class", "uniform"],
            GEN_FLAGS,
        ))
        .unwrap();
        let metrics = tmp("metrics.json");
        let trace = tmp("trace.jsonl");
        let solve_args = [
            path.as_str(),
            "--mode",
            "cts1",
            "--budget",
            "50000",
            "--rounds",
            "2",
            "--p",
            "2",
            "--metrics",
            &metrics,
            "--trace",
            &trace,
        ];
        cmd_solve(&args(&solve_args, SOLVE_FLAGS)).unwrap();
        let first = std::fs::read(&metrics).unwrap();
        assert!(!std::fs::read_to_string(&trace).unwrap().is_empty());
        let ok = cmd_validate_metrics(&args(&[&metrics], &[])).unwrap();
        assert!(ok.contains("ok: 3 tasks"), "{ok}");

        cmd_solve(&args(&solve_args, SOLVE_FLAGS)).unwrap();
        let second = std::fs::read(&metrics).unwrap();
        assert_eq!(first, second, "metrics JSON must be byte-identical");
    }

    #[test]
    fn validate_metrics_rejects_malformed_files() {
        let path = tmp("bad-metrics.json");
        std::fs::write(&path, "{\"schema\": \"wrong/v9\"}").unwrap();
        let err = cmd_validate_metrics(&args(&[&path], &[])).unwrap_err();
        assert!(matches!(err, CliError::Invalid(_)), "{err}");
    }
}
