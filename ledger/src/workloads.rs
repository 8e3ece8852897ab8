//! The five workloads, and the solo runner behind four of them.
//!
//! Every workload runs with at most two busy threads (P = 2 workers; the
//! master mostly waits on them) and at most two connections, on inputs
//! generated here; the solver only ever sees the generated inputs.
//!
//! | workload | input and configuration | why |
//! |---|---|---|
//! | `gk-inproc` | GK 10×250, tightness 0.5, seed 11; CTS2, P = 2, 64 rounds, 32M evals; one warm `Engine`, telemetry off | Short rounds (≈250k evals per assignment) make the master loop (ISP/SGP, gather/assign) and `apply_move` the cost. The LP is never called, and intensification is cheap at this size. |
//! | `gk-socket` | the same instance, configuration and seeds, through `run_remote` on a Unix socket with two in-process `serve_slave` threads | The same search over the socket transport: its difference from `gk-inproc` is the codec, frame and socket cost. Each seed is also solved in process, untimed, and every socket solve must reach that best, since the transports are bit-identical. |
//! | `large-cts2` | L2: `large_instance` 100×2500, tightness 0.25, correlation 0.5, seed 12; CTS2, P = 2, 4 rounds, 4M evals | Full-space intensification dominates and overruns the budget (below). The LP is never called. |
//! | `large-core` | L2; CORE, P = 2, 8 rounds, 8M evals | The master's LP runs serially: CORE calls `lp_bound` in `prepare` and again at the round-4 refix, with both workers idle. The search itself runs inside a 625-variable core. |
//! | `serve-durable` | `serve` with `InProc { p: 2 }`, `quantum: 1` and a state dir (journal plus write-through spool); a closed loop of 2 client threads, each submitting its next job when the previous one returns. Each job is its own GK 100×5 instance, CTS2, P = 2, 4–8 rounds, 400k evals | Two live jobs alternate on one farm, so every slice parks and resumes through the snapshot, spool and journal fsync: the same engine used differently from the solo workloads, which never park. The loop is closed because `submit_job` blocks per job. |
//!
//! **How a run measures.** A solo workload solves a fixed pool of solve
//! seeds (1–12 on GK, 1–4 on L2) in rotation, starting at `--seed` modulo
//! the pool size, until `--seconds` have passed and every seed has run at
//! least once. `solve_s` is the mean over the pool of each seed's median
//! time, so a run that repeats some seeds more often reads the same. The
//! pool is fixed because L2 solves are bimodal by seed (below): a seed
//! window that moved with `--seed` would measure the mix of seeds, not the
//! solver. `gap_pct` is then exact and repeats on every run. Set-up
//! samples and [`HostProbe`] samples are taken after each solve rather
//! than in one burst, and a traced run solves each seed untraced and then
//! traced back to back: the host's speed drifts by ±15% over tens of
//! seconds, and only samples spread over the run, or paired in time, see
//! through that drift. The solo workloads report `setup_s` and `solve_s`
//! at the reference host speed (see [`HostProbe`]); the times as measured
//! are in the ledger as `setup_wall_s` and `solve_wall_s`. The median of each
//! seed, not its fastest of r repetitions, is used: on a shared 2-vCPU
//! Xeon VM the fastest of a 20-second run's repetitions moved more from
//! run to run than the median did (coefficient of variation 13% against
//! 11% on `gk-inproc`). `serve-durable` runs its loop for `--seconds` (half of it
//! when traced, the other half going to paired solo runs of the same
//! jobs), and each `--seed` gives a different set of job instances.
//!
//! **Budget overshoot.** On L2 the evaluation budget does not bound the
//! work. An assignment's intensification runs to completion, so three of
//! the four pool seeds spend 39M, 65M and 44M evals against their 4M
//! budget while the fourth stops at 4M in a quarter of the time:
//! `tabu.budget_ratio` is 9.5 over the pool, an exact count. Meanwhile
//! one worker intensifies while the other waits at the rendezvous
//! (`engine.cpu_util` ≈ 0.54). Wall time on `large-cts2` therefore tracks
//! the intensification kernels, not the budget.

use crate::layers::{self, LayerInputs};
use crate::{
    check_same_best, check_solve, gap_pct, median, peak_rss_mb, pool_mean, process_cpu_s,
    seed_medians, Better, HostProbe, Metric, Tally,
};
use mkp::format::{parse_instance, write_instance};
use mkp::generate::{gk_instance, large_instance, GkSpec, LargeSpec};
use mkp::Instance;
use parallel_tabu::core_policy::REFIX_EVERY;
use parallel_tabu::{
    run_remote, serve_slave, Counter, Endpoint, Engine, EngineError, Mode, ModeReport, RunConfig,
    ServeOutcome, SpanKind, TelemetrySnapshot,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker threads of every farm (the host has two cores).
pub const P: usize = 2;

/// How long an in-process socket slave waits for its master. Rounds of
/// the GK workloads take milliseconds, so this only bounds a failure.
const SLAVE_PATIENCE: Duration = Duration::from_secs(20);

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CTS2 on GK 10×250 over the in-process farm.
    GkInproc,
    /// The same solves over the Unix-socket transport.
    GkSocket,
    /// CTS2 on the 100×2500 L2 instance.
    LargeCts2,
    /// CORE on L2.
    LargeCore,
    /// A closed loop of small jobs through the durable job server.
    ServeDurable,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 5] = [
        Workload::GkInproc,
        Workload::GkSocket,
        Workload::LargeCts2,
        Workload::LargeCore,
        Workload::ServeDurable,
    ];

    /// The workload's name on the command line and in the ledger.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GkInproc => "gk-inproc",
            Workload::GkSocket => "gk-socket",
            Workload::LargeCts2 => "large-cts2",
            Workload::LargeCore => "large-core",
            Workload::ServeDurable => "serve-durable",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one workload run is measured.
#[derive(Debug, Clone)]
pub struct Options {
    /// Where the solo workloads start in their seed pool; the serve jobs'
    /// instances and solve seeds derive from it.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Report the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Tiny budgets and a scaled-down L2, for a quick check that
    /// everything runs.
    pub smoke: bool,
    /// Private scratch directory (sockets, journals, snapshots).
    pub scratch: PathBuf,
}

impl Options {
    /// Time budget for timing one layer call.
    pub fn layer_budget(&self) -> Duration {
        Duration::from_millis(if self.smoke { 20 } else { 250 })
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced), plus
    /// workload-specific extras for the ledger.
    pub metrics: Vec<Metric>,
    /// Attempts and failed result checks.
    pub tally: Tally,
    /// Best value per solve seed (solo workloads), to compare with
    /// `mkp solve` on the same inputs.
    pub bests: BTreeMap<u64, i64>,
}

/// Run `workload` as `opts` says.
pub fn run(workload: Workload, opts: &Options) -> Outcome {
    match workload {
        Workload::ServeDurable => crate::serve::run(opts),
        solo => run_solo(&SoloSpec::new(solo, opts.smoke), opts),
    }
}

/// A solo workload: one instance (as text, parsed during set-up) and one
/// search configuration, solved over the in-process or socket farm.
struct SoloSpec {
    text: String,
    mode: Mode,
    rounds: usize,
    budget: u64,
    socket: bool,
    /// The solve seeds, visited in rotation.
    pool: Vec<u64>,
}

impl SoloSpec {
    fn new(workload: Workload, smoke: bool) -> SoloSpec {
        let gk = || {
            gk_instance(
                "gk10x250",
                GkSpec {
                    n: 250,
                    m: 10,
                    tightness: 0.5,
                    seed: 11,
                },
            )
        };
        // The smoke run scales L2 down: full-space intensification at
        // 100×2500 alone costs seconds, whatever the budget.
        let l2 = || {
            let (n, m) = if smoke { (500, 25) } else { (2500, 100) };
            large_instance(
                "L2",
                LargeSpec {
                    n,
                    m,
                    tightness: 0.25,
                    correlation: 0.5,
                    seed: 12,
                },
            )
        };
        let pick = |full: u64, tiny: u64| if smoke { tiny } else { full };
        // Pool sizes fit at least one full rotation in a run: a GK solve
        // takes a few hundred ms, an L2 solve seconds.
        let (inst, mode, rounds, budget, pool) = match workload {
            Workload::GkInproc | Workload::GkSocket => (
                gk(),
                Mode::CooperativeAdaptive,
                pick(64, 8) as usize,
                pick(32_000_000, 400_000),
                12,
            ),
            Workload::LargeCts2 => (
                l2(),
                Mode::CooperativeAdaptive,
                4,
                pick(4_000_000, 200_000),
                4,
            ),
            Workload::LargeCore => (l2(), Mode::Core, 8, pick(8_000_000, 400_000), 4),
            Workload::ServeDurable => unreachable!("serve-durable is not a solo workload"),
        };
        SoloSpec {
            text: write_instance(&inst),
            mode,
            rounds,
            budget,
            socket: workload == Workload::GkSocket,
            pool: (1..=pick(pool, 1)).collect(),
        }
    }

    /// The configuration of the solve seeded `seed` — `mkp solve`'s, so
    /// the best values match it on the same inputs.
    fn cfg(&self, seed: u64) -> RunConfig {
        let mut cfg = RunConfig {
            p: P,
            rounds: self.rounds,
            ..RunConfig::new(self.budget, seed)
        };
        if self.socket {
            cfg.report_timeout = SLAVE_PATIENCE;
            cfg.slave_patience = Some(SLAVE_PATIENCE);
        }
        cfg
    }
}

/// Set-up a user of the solver pays before the first solve: parse the
/// instance text and start the worker pool.
fn solo_setup(spec: &SoloSpec) -> (Instance, Engine) {
    let inst = parse_instance("instance", &spec.text).expect("generated text parses");
    (inst, Engine::new(P))
}

/// Set-ups timed after each solve. Spread over the whole run like the
/// solves, they see the same host conditions; a burst of samples at
/// start-up would see only one moment of a host whose speed drifts. The
/// count is fixed, not a share of the solve's time, so that a faster
/// solver changes neither the mix of cold and warm samples nor, through
/// it, the set-up time.
const SETUP_SAMPLES: usize = 8;

/// Host probe samples taken after each solve; fixed for the same reason.
const PROBE_SAMPLES: usize = 8;

/// One timed solve with what the trace needs from it.
pub(crate) struct Solved {
    seed: u64,
    wall: f64,
    evals: u64,
    telemetry: TelemetrySnapshot,
}

impl Solved {
    pub(crate) fn new(seed: u64, wall: f64, report: ModeReport) -> Solved {
        Solved {
            seed,
            wall,
            evals: report.total_evals,
            telemetry: report.telemetry,
        }
    }
}

/// The solves of one pass.
#[derive(Default)]
struct Pass {
    /// Untraced timed solves.
    solved: Vec<Solved>,
    /// Traced runs only: a traced solve right after each untraced one, so
    /// the pair sees the same host conditions.
    traced: Vec<Solved>,
    /// `gk-socket` only: the in-process solve of each seed that the
    /// socket solves must match.
    reference: Vec<Solved>,
    /// Best value per seed.
    values: BTreeMap<u64, i64>,
    /// Process CPU seconds spent in the untraced solves.
    cpu_s: f64,
}

fn samples(solved: &[Solved]) -> Vec<(u64, f64)> {
    solved.iter().map(|s| (s.seed, s.wall)).collect()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Solve the pool's seeds in rotation, starting at `offset`, until
/// `seconds` have passed and every seed has been solved at least once.
/// With `trace`, each solve is followed by the same solve with telemetry
/// on. After each solve the host `probe` takes [`PROBE_SAMPLES`], and
/// with `setups` [`SETUP_SAMPLES`] set-ups are timed.
#[allow(clippy::too_many_arguments)]
fn solve_pass(
    spec: &SoloSpec,
    inst: &Instance,
    engine: &mut Engine,
    lp: f64,
    offset: usize,
    seconds: f64,
    trace: bool,
    scratch: &Path,
    probe: &mut HostProbe,
    mut setups: Option<&mut Vec<f64>>,
    tally: &mut Tally,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    for i in 0.. {
        let seed = spec.pool[(offset + i) % spec.pool.len()];
        let cfg = spec.cfg(seed);
        if spec.socket && !pass.values.contains_key(&seed) {
            engine.set_telemetry(trace);
            let (result, wall) = timed(|| engine.run(inst, spec.mode, &cfg));
            if let Some(value) = tally.record(check_solve(inst, &result, lp)) {
                pass.values.insert(seed, value);
                pass.reference
                    .push(Solved::new(seed, wall, result.expect("checked above")));
            }
        }
        for traced in [false, true].into_iter().take(1 + trace as usize) {
            engine.set_telemetry(traced);
            let cpu0 = process_cpu_s();
            let (result, wall) = if spec.socket {
                let sock = scratch.join(format!("solve-{i}-{traced}.sock"));
                solve_socket(inst, spec.mode, &cfg, &sock)
            } else {
                timed(|| engine.run(inst, spec.mode, &cfg))
            };
            let cpu = process_cpu_s() - cpu0;
            let Some(value) = tally.record(check_solve(inst, &result, lp)) else {
                continue;
            };
            // Every solve of a seed, over either transport, traced or not,
            // must reach the same best: the search is deterministic.
            let want = *pass.values.entry(seed).or_insert(value);
            if let Err(reason) = check_same_best(want, value) {
                tally.fail(reason);
                continue;
            }
            let solved = Solved::new(seed, wall, result.expect("checked above"));
            if traced {
                pass.traced.push(solved);
            } else {
                pass.cpu_s += cpu;
                pass.solved.push(solved);
            }
        }
        probe.sample(PROBE_SAMPLES);
        if let Some(times) = setups.as_deref_mut() {
            for _ in 0..SETUP_SAMPLES {
                let (built, secs) = timed(|| solo_setup(spec));
                times.push(secs);
                // Tearing the pool down again is not set-up.
                drop(built);
            }
        }
        if start.elapsed().as_secs_f64() >= seconds && i + 1 >= spec.pool.len() {
            break;
        }
    }
    pass
}

/// One solve over the socket transport: the master (`run_remote`) binds
/// `sock`, then two `serve_slave` threads dial it. Timed from starting
/// the master to its return, slave start-up included.
fn solve_socket(
    inst: &Instance,
    mode: Mode,
    cfg: &RunConfig,
    sock: &Path,
) -> (Result<ModeReport, EngineError>, f64) {
    let ep = Endpoint::Unix(sock.to_path_buf());
    let _ = std::fs::remove_file(sock);
    std::thread::scope(|s| {
        let t0 = Instant::now();
        let master = s.spawn(|| run_remote(inst, mode, cfg, &ep));
        while !sock.exists() && !master.is_finished() {
            std::thread::sleep(Duration::from_micros(100));
        }
        let slaves: Vec<_> = (0..cfg.p)
            .map(|_| s.spawn(|| serve_slave(&ep, SLAVE_PATIENCE)))
            .collect();
        let mut result = master.join().unwrap_or_else(|_| {
            Err(EngineError::MasterPanicked {
                message: "the master thread panicked".to_string(),
            })
        });
        let wall = t0.elapsed().as_secs_f64();
        for slave in slaves {
            let outcome = slave.join();
            if result.is_ok() && !matches!(outcome, Ok(Ok(ServeOutcome::Finished))) {
                result = Err(EngineError::Internal {
                    detail: format!("a socket slave did not finish cleanly: {outcome:?}"),
                });
            }
        }
        (result, wall)
    })
}

fn run_solo(spec: &SoloSpec, opts: &Options) -> Outcome {
    let mut tally = Tally::default();
    let mut probe = HostProbe::new();
    let ((inst, mut engine), first_setup) = timed(|| solo_setup(spec));
    let mut setups = vec![first_setup];
    let lp = match mkp_exact::bounds::lp_bound(&inst) {
        Ok(lp) => lp.objective,
        Err(e) => {
            tally.record::<()>(Err(format!("LP bound failed: {e:?}")));
            return Outcome {
                tally,
                ..Outcome::default()
            };
        }
    };
    let offset = (opts.seed % spec.pool.len() as u64) as usize;
    // The traced run reports no set-up time, so it takes no set-up samples.
    let pass = solve_pass(
        spec,
        &inst,
        &mut engine,
        lp,
        offset,
        opts.seconds,
        opts.trace,
        &opts.scratch,
        &mut probe,
        (!opts.trace).then_some(&mut setups),
        &mut tally,
    );
    // The mean over the pool of each seed's median, so a run that happens
    // to repeat a fast seed more often than a slow one reads the same.
    let plain = samples(&pass.solved);
    let solved = pass.solved.len();
    let seeds = seed_medians(&plain).len();
    let solve_s = pool_mean(&plain);
    if !opts.trace {
        let gaps: Vec<f64> = pass.values.values().map(|&v| gap_pct(v, lp)).collect();
        let mut metrics = vec![Metric::value(
            "gap_pct",
            "%",
            Better::Lower,
            mkp_bench::mean(&gaps),
            gaps.len(),
        )];
        let fastest = pass.solved.iter().map(|s| s.wall).reduce(f64::min);
        metrics.extend(host_timings(&probe, &setups, solve_s, fastest, solved));
        metrics.push(Metric::value(
            "failed_frac",
            "ratio",
            Better::Lower,
            tally.failed_frac(),
            tally.attempted as usize,
        ));
        return Outcome {
            metrics,
            tally,
            bests: pass.values,
        };
    }

    // Per-layer metrics: each layer's public functions timed on this
    // workload's own inputs, then what the solves themselves recorded.
    let mut out = layers::measure(
        &LayerInputs {
            inst: &inst,
            text: &spec.text,
            mode: spec.mode,
            cfg: spec.cfg(spec.pool[offset]),
            scratch: &opts.scratch,
            journal: None,
            budget: opts.layer_budget(),
        },
        &mut tally,
    );
    // A seed's eval count is deterministic: one per seed.
    let evals: BTreeMap<u64, u64> = pass.solved.iter().map(|s| (s.seed, s.evals)).collect();
    out.push(Metric::value(
        "tabu.budget_ratio",
        "ratio",
        Better::Lower,
        evals.values().sum::<u64>() as f64 / (seeds as f64 * spec.budget as f64),
        seeds,
    ));
    let wall: f64 = pass.solved.iter().map(|s| s.wall).sum();
    out.push(Metric::value(
        "engine.cpu_util",
        "ratio",
        Better::Higher,
        pass.cpu_s / (P as f64 * wall),
        solved,
    ));
    // TsInner lives in the slaves: over sockets they are other
    // processes' telemetry, so the in-process reference solves of the
    // same seeds (bit-identical searches) stand in for it.
    let inner = if spec.socket {
        &pass.reference
    } else {
        &pass.traced
    };
    out.extend(engine_spans(&pass.traced, inner));
    out.push(Metric::value(
        "trace.overhead_pct",
        "%",
        Better::Lower,
        overhead_pct(&plain, &samples(&pass.traced)),
        pass.traced.len(),
    ));
    if spec.mode == Mode::Core {
        let lp_ms = out
            .iter()
            .find(|m| m.name == "lp.solve_ms")
            .map_or(f64::NAN, |m| m.value);
        let calls = 1 + (1..spec.rounds).filter(|r| r % REFIX_EVERY == 0).count();
        out.push(Metric::value(
            "lp.calls",
            "count",
            Better::Lower,
            calls as f64,
            1,
        ));
        out.push(Metric::value(
            "lp.share",
            "ratio",
            Better::Lower,
            lp_ms * calls as f64 / (solve_s * 1e3),
            solved,
        ));
    }
    if spec.socket {
        // Each seed's in-process reference against the socket solve that
        // ran right after it.
        let shares: Vec<f64> = pass
            .reference
            .iter()
            .filter_map(|r| {
                let socket = pass.solved.iter().find(|s| s.seed == r.seed)?;
                Some((socket.wall - r.wall) / socket.wall)
            })
            .collect();
        out.push(Metric::value(
            "transport.socket_share",
            "ratio",
            Better::Lower,
            median(&shares),
            shares.len(),
        ));
    }
    Outcome {
        metrics: out,
        tally,
        bests: pass.values,
    }
}

/// The end-to-end metrics the host probe shapes. `setup_s` and `solve_s`
/// are the measured times scaled to the reference host speed
/// ([`HostProbe::scale`]); `setup_wall_s` and `solve_wall_s` keep them as
/// measured, next to the probe's own median. `peak_rss_mb` leaves out the
/// probe's table.
fn host_timings(
    probe: &HostProbe,
    setups: &[f64],
    solve_s: f64,
    fastest: Option<f64>,
    solved: usize,
) -> Vec<Metric> {
    let scale = probe.scale();
    let scaled: Vec<f64> = setups.iter().map(|s| s * scale).collect();
    let probe_ms: Vec<f64> = probe.samples().iter().map(|s| s * 1e3).collect();
    vec![
        Metric::timing("setup_s", "s", &scaled),
        Metric {
            fastest: fastest.map(|f| f * scale),
            ..Metric::value("solve_s", "s", Better::Lower, solve_s * scale, solved)
        },
        Metric::value(
            "peak_rss_mb",
            "MB",
            Better::Lower,
            peak_rss_mb().map_or(f64::NAN, |mb| mb - probe.resident_mb()),
            1,
        ),
        Metric::timing("setup_wall_s", "s", setups),
        Metric {
            fastest,
            ..Metric::value("solve_wall_s", "s", Better::Lower, solve_s, solved)
        },
        Metric::timing("host.probe_ms", "ms", &probe_ms),
    ]
}

/// `100 · (traced − untraced) / untraced` per seed, on each seed's median
/// time; the median over the seeds solved both ways.
pub(crate) fn overhead_pct(untraced: &[(u64, f64)], traced: &[(u64, f64)]) -> f64 {
    let before = seed_medians(untraced);
    let after = seed_medians(traced);
    let ratios: Vec<f64> = before
        .iter()
        .filter_map(|(seed, b)| Some(100.0 * (after.get(seed)? / b - 1.0)))
        .collect();
    median(&ratios)
}

/// The engine's own spans, per traced solve, reduced to medians: the
/// master's Round/Gather/Assign per round, the mean worker's total
/// TsInner, everything outside rounds (`prepare_ms` = wall − ΣRound), the
/// share of the wall not covered by worker search, and the master's
/// message and byte counts. `inner` supplies TsInner for the same seeds.
pub(crate) fn engine_spans(solved: &[Solved], inner: &[Solved]) -> Vec<Metric> {
    let mut round = Vec::new();
    let mut gather = Vec::new();
    let mut assign = Vec::new();
    let mut ts_inner = Vec::new();
    let mut prepare = Vec::new();
    let mut overhead = Vec::new();
    let mut msgs = Vec::new();
    let mut bytes = Vec::new();
    for s in solved {
        let tel = &s.telemetry;
        let total = |kind| tel.span(0, kind).map_or(0.0, |sp| sp.total_ns as f64);
        let Some(rounds) = tel.span(0, SpanKind::Round).map(|sp| sp.count as f64) else {
            continue;
        };
        round.push(total(SpanKind::Round) / rounds / 1e6);
        gather.push(total(SpanKind::Gather) / rounds / 1e6);
        assign.push(total(SpanKind::Assign) / rounds / 1e6);
        prepare.push(s.wall * 1e3 - total(SpanKind::Round) / 1e6);
        msgs.push(
            (tel.counter(0, Counter::MsgsSent) + tel.counter(0, Counter::MsgsReceived)) as f64,
        );
        bytes.push(
            (tel.counter(0, Counter::BytesSent) + tel.counter(0, Counter::BytesReceived)) as f64,
        );
        if let Some(src) = inner.iter().find(|r| r.seed == s.seed) {
            let per_worker: Vec<f64> = (1..=P)
                .filter_map(|task| src.telemetry.span(task, SpanKind::TsInner))
                .map(|sp| sp.total_ns as f64 / 1e6)
                .collect();
            if !per_worker.is_empty() {
                let mean_ms = mkp_bench::mean(&per_worker);
                ts_inner.push(mean_ms);
                overhead.push((s.wall * 1e3 - mean_ms) / (s.wall * 1e3));
            }
        }
    }
    vec![
        Metric::timing("engine.round_ms", "ms", &round),
        Metric::timing("engine.gather_ms", "ms", &gather),
        Metric::timing("engine.assign_ms", "ms", &assign),
        Metric::timing("engine.ts_inner_ms", "ms", &ts_inner),
        Metric::timing("engine.prepare_ms", "ms", &prepare),
        Metric::value(
            "engine.overhead_share",
            "ratio",
            Better::Lower,
            median(&overhead),
            overhead.len(),
        ),
        Metric::value(
            "transport.msgs",
            "count",
            Better::Lower,
            median(&msgs),
            msgs.len(),
        ),
        Metric::value(
            "transport.bytes",
            "B",
            Better::Lower,
            median(&bytes),
            bytes.len(),
        ),
    ]
}
