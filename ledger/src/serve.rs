//! The `serve-durable` workload: a closed loop of two clients against a
//! durable in-process job server (see [`crate::workloads`] for why).

use crate::layers::{self, LayerInputs};
use crate::workloads::{engine_spans, overhead_pct, Options, Outcome, Solved, P};
use crate::{
    check_job, check_solve, gap_pct, peak_rss_mb, percentile, process_cpu_s, tail_percentile,
    Better, Metric, Tally,
};
use mkp::format::write_instance;
use mkp::generate::{gk_instance, GkSpec};
use mkp::Instance;
use parallel_tabu::{
    serve, submit_job, Endpoint, Engine, Mode, RunConfig, ServeBackend, ServeConfig, ServeStats,
    SubmitEvent, SubmitOutcome, SubmitSpec,
};
use pvm_lite::FramedConn;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Start servers until at least five have started and `budget` has
/// passed (or 101 have); all but the last are drained again outside the
/// timed region. Returns seconds per start.
fn timed_starts(
    dir: &Path,
    first: &mut usize,
    budget: Duration,
) -> (Vec<f64>, Result<Server, String>) {
    let began = Instant::now();
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < 5 || (began.elapsed() < budget && times.len() < 101) {
        *first += 1;
        let t0 = Instant::now();
        let started = Server::start(dir, *first);
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(started);
    }
    (times, kept.expect("at least one start"))
}

/// Client patience: covers one scheduling cycle of the queue ahead.
const PATIENCE: Duration = Duration::from_secs(60);

/// Closed-loop clients, each with one job in flight.
const CLIENTS: usize = 2;

/// Job `k` of the run seeded `seed`: its own GK 100×5 instance and CTS2
/// at 4–8 rounds, so slices of different lengths interleave.
fn job(seed: u64, k: u64, smoke: bool) -> (Instance, SubmitSpec) {
    let inst = gk_instance(
        format!("job{k}"),
        GkSpec {
            n: 100,
            m: 5,
            tightness: 0.5,
            seed: seed.wrapping_mul(1_000_003).wrapping_add(k),
        },
    );
    let spec = SubmitSpec {
        mode: Mode::CooperativeAdaptive,
        p: P,
        rounds: 4 + (k % 5) as usize,
        budget_evals: if smoke { 20_000 } else { 400_000 },
        seed: seed.wrapping_add(k),
        deadline: None,
    };
    (inst, spec)
}

fn run_config(spec: &SubmitSpec) -> RunConfig {
    RunConfig {
        p: spec.p,
        rounds: spec.rounds,
        ..RunConfig::new(spec.budget_evals, spec.seed)
    }
}

/// A running server; dropping it drains and joins it.
struct Server {
    ep: Endpoint,
    state_dir: PathBuf,
    drain: Arc<AtomicBool>,
    handle: Option<JoinHandle<Result<ServeStats, String>>>,
}

impl Server {
    /// Start a server with a fresh state dir under `dir` and wait until a
    /// client can dial it.
    fn start(dir: &Path, k: usize) -> Result<Server, String> {
        let ep = Endpoint::Unix(dir.join(format!("clients-{k}.sock")));
        let state_dir = dir.join(format!("state-{k}"));
        let drain = Arc::new(AtomicBool::new(false));
        let cfg = ServeConfig {
            quantum: 1,
            max_queue: 16,
            max_inflight: 4,
            spool_dir: state_dir.join("spool"),
            patience: PATIENCE,
            state_dir: Some(state_dir.clone()),
            drain: Some(Arc::clone(&drain)),
            ..ServeConfig::default()
        };
        let handle = {
            let ep = ep.clone();
            std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: P }, &cfg))
        };
        loop {
            if FramedConn::dial(&ep).is_ok() {
                return Ok(Server {
                    ep,
                    state_dir,
                    drain,
                    handle: Some(handle),
                });
            }
            if handle.is_finished() {
                return Err(match handle.join() {
                    Ok(Err(e)) => format!("server failed to start: {e}"),
                    _ => "server exited before accepting clients".to_string(),
                });
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Drain and join the server.
    fn stop(mut self) -> Result<ServeStats, String> {
        self.drain.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .expect("a started server has a thread")
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.drain.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
    }
}

/// One job as its client saw it, checked by the client as it returns
/// and reduced to a few numbers, so the benchmark's own memory does not
/// grow with the run and `peak_rss_mb` measures the server. The LP-bound
/// check needs only the instance, regenerated from `k` after the loop.
struct JobSample {
    k: u64,
    /// The job's best value, or why its result check failed.
    value: Result<i64, String>,
    evals: u64,
    submitted: Instant,
    done: Instant,
    /// Submit → ACCEPTED, → the first INCUMBENT, and → the first INCUMBENT
    /// equal to the final value (time to target), in seconds.
    accepted: Option<f64>,
    first_incumbent: Option<f64>,
    ttt: Option<f64>,
}

/// One client: submit the next job as soon as the previous one returns,
/// until `until`.
fn client(
    ep: &Endpoint,
    seed: u64,
    smoke: bool,
    until: Instant,
    next: &AtomicU64,
) -> Vec<JobSample> {
    let mut out = Vec::new();
    while Instant::now() < until {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let (inst, spec) = job(seed, k, smoke);
        let submitted = Instant::now();
        let since = |at: Instant| at.duration_since(submitted).as_secs_f64();
        let mut accepted = None;
        let mut incumbents = Vec::new();
        let outcome = submit_job(ep, &inst, &spec, PATIENCE, |ev| match ev {
            SubmitEvent::Accepted { .. } => accepted = Some(since(Instant::now())),
            SubmitEvent::Incumbent { value, .. } => incumbents.push((since(Instant::now()), value)),
        });
        let done = Instant::now();
        let value = check_job(&inst, &outcome, f64::INFINITY);
        let evals = match &outcome {
            Ok(SubmitOutcome::Done(report)) => report.total_evals,
            _ => 0,
        };
        let ttt = value
            .as_ref()
            .ok()
            .and_then(|v| incumbents.iter().find(|(_, x)| x == v))
            .map(|&(t, _)| t);
        out.push(JobSample {
            k,
            value,
            evals,
            submitted,
            done,
            accepted,
            first_incumbent: incumbents.first().map(|&(t, _)| t),
            ttt,
        });
    }
    out
}

/// The closed loop's jobs, the server's tally, and the process CPU it
/// took.
struct LoopRun {
    jobs: Vec<JobSample>,
    stats: ServeStats,
    state_dir: PathBuf,
    loop_s: f64,
    cpu_s: f64,
}

fn closed_loop(server: Server, opts: &Options, seconds: f64) -> Result<LoopRun, String> {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let cpu0 = process_cpu_s();
    let until = start + Duration::from_secs_f64(seconds);
    let mut jobs: Vec<JobSample> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client(&server.ep, opts.seed, opts.smoke, until, &next)))
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let loop_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    jobs.sort_by_key(|j| j.submitted);
    let state_dir = server.state_dir.clone();
    let stats = server.stop()?;
    Ok(LoopRun {
        jobs,
        stats,
        state_dir,
        loop_s,
        cpu_s,
    })
}

pub(crate) fn run(opts: &Options) -> Outcome {
    let mut tally = Tally::default();
    let dir = opts.scratch.join("serve");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        tally.record::<()>(Err(format!("cannot create {}: {e}", dir.display())));
        return Outcome {
            tally,
            ..Outcome::default()
        };
    }
    // Set-up is `serve` start until the first client dial succeeds. Half
    // the starts come before the loop and half after it, so they see the
    // host at both ends of the run.
    let budget = Duration::from_millis(if opts.smoke { 10 } else { 150 });
    let mut starts = 0;
    let (mut setups, last) = timed_starts(&dir, &mut starts, budget);
    let server = match last {
        Ok(server) => server,
        Err(e) => {
            tally.record::<()>(Err(e));
            return Outcome {
                tally,
                ..Outcome::default()
            };
        }
    };
    // A traced run splits its time between the loop and the solo runs.
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let run = match closed_loop(server, opts, seconds) {
        Ok(run) => run,
        Err(e) => {
            tally.record::<()>(Err(e));
            return Outcome {
                tally,
                ..Outcome::default()
            };
        }
    };
    let (after, last) = timed_starts(&dir, &mut starts, budget);
    setups.extend(after);
    if let Err(e) = last.and_then(Server::stop) {
        tally.record::<()>(Err(e));
    }

    let mut latencies = Vec::new();
    let mut ttts = Vec::new();
    let mut accepts = Vec::new();
    let mut firsts = Vec::new();
    let mut gaps = Vec::new();
    let mut budget_ratio = Vec::new();
    let mut last_done = None;
    for j in &run.jobs {
        let (inst, spec) = job(opts.seed, j.k, opts.smoke);
        let checked = j.value.clone().and_then(|value| {
            let lp = mkp_exact::bounds::lp_bound(&inst)
                .map_err(|e| format!("LP bound failed: {e:?}"))?
                .objective;
            if value as f64 > lp + 1e-6 {
                return Err(format!("best value {value} exceeds the LP bound {lp}"));
            }
            let ttt = j
                .ttt
                .ok_or("the final value never appeared as an incumbent")?;
            Ok((gap_pct(value, lp), ttt))
        });
        let Some((gap, ttt)) = tally.record(checked) else {
            continue;
        };
        latencies.push(j.done.duration_since(j.submitted).as_secs_f64());
        gaps.push(gap);
        ttts.push(ttt);
        budget_ratio.push(j.evals as f64 / spec.budget_evals as f64);
        accepts.extend(j.accepted.map(|t| t * 1e3));
        firsts.extend(j.first_incumbent.map(|t| t * 1e3));
        last_done = last_done.max(Some(j.done));
    }
    let done = latencies.len();
    let span = match (run.jobs.first(), last_done) {
        (Some(first), Some(last)) => last.duration_since(first.submitted).as_secs_f64(),
        _ => f64::NAN,
    };
    // `solve_s` is the median job latency: with two closed-loop clients
    // it is also twice the time per completed job (Little's law), so it
    // moves with `jobs_per_s`. Unlike the solo workloads' times, these
    // are not scaled by a `HostProbe`: a job's latency waits on journal
    // fsyncs and sockets, which the probe does not track, and scaling
    // widened the run-to-run spread of `solve_s` from 3-4% to 14-17%.
    let mut metrics = vec![
        Metric::timing("setup_s", "s", &setups),
        Metric::timing("solve_s", "s", &latencies),
        Metric::value(
            "peak_rss_mb",
            "MB",
            Better::Lower,
            peak_rss_mb().unwrap_or(f64::NAN),
            1,
        ),
        Metric::value(
            "gap_pct",
            "%",
            Better::Lower,
            mkp_bench::mean(&gaps),
            gaps.len(),
        ),
        Metric::value(
            "jobs_per_s",
            "1/s",
            Better::Higher,
            done as f64 / span,
            done,
        ),
        Metric::value(
            "failed_frac",
            "ratio",
            Better::Lower,
            tally.failed_frac(),
            tally.attempted as usize,
        ),
        Metric::timing("ttt_p50_s", "s", &ttts),
    ];
    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    if let Some(p) = tail_percentile(sorted.len()) {
        metrics.push(Metric::value(
            &format!("job_latency_p{p}_s"),
            "s",
            Better::Lower,
            percentile(&sorted, p as f64),
            sorted.len(),
        ));
    }
    if !opts.trace {
        return Outcome {
            metrics,
            tally,
            ..Outcome::default()
        };
    }

    // Traced pass: the server keeps no spans of its own, so the engine's
    // spans and the tracing overhead come from the same jobs run solo on
    // one warm engine, untraced then traced, for the other half of the
    // time.
    let mut engine = Engine::new(P);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut solved = Vec::new();
    let start = Instant::now();
    for k in 0.. {
        let (inst, spec) = job(opts.seed, k, opts.smoke);
        let cfg = run_config(&spec);
        let lp = mkp_exact::bounds::lp_bound(&inst).map_or(f64::INFINITY, |lp| lp.objective);
        for (on, samples) in [(false, &mut untraced), (true, &mut traced)] {
            engine.set_telemetry(on);
            let t0 = Instant::now();
            let result = engine.run(&inst, spec.mode, &cfg);
            let wall = t0.elapsed().as_secs_f64();
            if tally.record(check_solve(&inst, &result, lp)).is_some() {
                samples.push((k, wall));
                if on {
                    let report = result.expect("checked above");
                    solved.push(Solved::new(k, wall, report));
                }
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let (inst, spec) = job(opts.seed, 0, opts.smoke);
    let journal = run.state_dir.join("journal.mkpj");
    let mut out = layers::measure(
        &LayerInputs {
            inst: &inst,
            text: &write_instance(&inst),
            mode: spec.mode,
            cfg: run_config(&spec),
            scratch: &opts.scratch,
            journal: Some(&journal),
            budget: opts.layer_budget(),
        },
        &mut tally,
    );
    out.push(Metric::value(
        "tabu.budget_ratio",
        "ratio",
        Better::Lower,
        mkp_bench::mean(&budget_ratio),
        budget_ratio.len(),
    ));
    out.push(Metric::value(
        "engine.cpu_util",
        "ratio",
        Better::Higher,
        run.cpu_s / (P as f64 * run.loop_s),
        1,
    ));
    out.extend(engine_spans(&solved, &solved));
    out.push(Metric::value(
        "trace.overhead_pct",
        "%",
        Better::Lower,
        overhead_pct(&untraced, &traced),
        traced.len(),
    ));
    let per_job = |x: u64| x as f64 / done.max(1) as f64;
    out.extend([
        Metric::value(
            "jobserver.slices_per_job",
            "count",
            Better::Lower,
            per_job(run.stats.slices),
            done,
        ),
        Metric::value(
            "jobserver.restores_per_job",
            "count",
            Better::Lower,
            per_job(run.stats.restores),
            done,
        ),
        Metric::value(
            "jobserver.rejected",
            "count",
            Better::Lower,
            run.stats.rejected as f64,
            1,
        ),
        Metric::timing("jobserver.accept_ms_p50", "ms", &accepts),
        Metric::timing("jobserver.first_incumbent_ms_p50", "ms", &firsts),
    ]);
    Outcome {
        metrics: out,
        tally,
        ..Outcome::default()
    }
}
