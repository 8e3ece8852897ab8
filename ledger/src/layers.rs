//! Per-layer timings on a workload's own inputs (the traced run).
//!
//! Each metric times calls into one layer's public functions from the
//! benchmark's side of the boundary; spans inside the program are not
//! needed for these. Which end-to-end metric each should move:
//!
//! | layer | metrics | moves |
//! |---|---|---|
//! | `mkp` (format, eval, greedy, restrict) | `mkp.parse_ms`, `mkp.ratios_greedy_ms`, `mkp.restrict_new_ms` (on the fixing `CorePolicy` makes in its `prepare`), `mkp.project_lift_us` | `setup_s` on `large-*`, `solve_s` on `large-core` |
//! | `simplex` via `mkp_exact::bounds` | `lp.solve_ms`, `lp.reduced_costs_ms`; under CORE also `lp.calls` and `lp.share` | `solve_s` on `large-core`; nothing on `large-cts2` or `gk-*` |
//! | `tabu` | `tabu.apply_move_ns`; per call from the greedy start `tabu.<kernel>_ms` and `_evals` for swap, lateral, drop_refill, ejection, oscillation; `tabu.ns_per_eval` and `tabu.evals_per_s` (one assignment's budget); `tabu.budget_ratio` | `apply_move`: `solve_s` on `gk-*`; the kernels and the budget ratio: `solve_s` and `gap_pct` on `large-cts2` |
//! | `core::engine` | `engine.round_ms`, `gather_ms`, `assign_ms` (per round), `ts_inner_ms` (mean worker), `prepare_ms` (wall − ΣRound), `overhead_share` ((wall − mean worker TsInner)/wall), `cpu_util` (process CPU during the untraced solves ÷ P·their wall) | `solve_s` on `gk-inproc` and `large-core` |
//! | `pvm_lite::codec` + `core::messages` | `codec.problem_bytes`, `problem_encode_ms`, `problem_decode_ms`, `report_bytes`, `report_roundtrip_us` | `solve_s` on `gk-socket` and `large-*` |
//! | `pvm_lite::frame` + `socket` | `transport.msgs`, `transport.bytes` (master, exact), `frame_roundtrip_us`, `loopback_rtt_us`; on `gk-socket` also `socket_share` | `solve_s` on `gk-socket`; nothing on `gk-inproc` |
//! | `core::snapshot` | `snapshot.bytes`, `encode_ms`, `decode_ms`, `save_ms`, on a snapshot parked after one round | `solve_s` (and the ledger's `jobs_per_s`) on `serve-durable`; nothing on the solo workloads |
//! | `core::journal` | `journal.append_us` (append + fsync of a SUBMIT-sized record), `journal.replay_ms` | `solve_s` (and the ledger's `jobs_per_s`) on `serve-durable` |
//! | `core::jobserver` (serve only) | `jobserver.slices_per_job`, `restores_per_job`, `rejected`, `accept_ms_p50` (includes the SUBMIT fsync), `first_incumbent_ms_p50` | `solve_s` on `serve-durable` |
//!
//! `trace.overhead_pct` compares each seed's traced solve with the
//! untraced one just before it. `run_remote` has no telemetry switch, so
//! on `gk-socket` both solves record the same master counters and the
//! figure shows only noise.

use crate::{Better, Metric, Tally};
use mkp::eval::Ratios;
use mkp::format::parse_instance;
use mkp::greedy::greedy;
use mkp::restrict::Restriction;
use mkp::{Instance, Solution, Xoshiro256};
use mkp_exact::bounds::{lp_bound, reduced_costs};
use mkp_tabu::history::History;
use mkp_tabu::intensify::{
    drop_refill_intensification, ejection_chain_intensification, lateral_swap_fill,
    swap_intensification,
};
use mkp_tabu::moves::{apply_move, MoveStats};
use mkp_tabu::oscillate::strategic_oscillation;
use mkp_tabu::tabu_list::Recency;
use mkp_tabu::{run_with_memory, Budget, TsConfig};
use parallel_tabu::core_policy::CorePolicy;
use parallel_tabu::messages::{tags, ProblemMsg, ReportMsg};
use parallel_tabu::{
    journal, CoopPolicy, Engine, Journal, Mode, RunConfig, SliceOutcome, Snapshot,
};
use pvm_lite::{encode_frame, read_frame, Endpoint, FramedConn, FramedListener, Wire};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Most timed calls per layer metric.
const MAX_CALLS: usize = 200;

/// Most bytes the journal append measurement writes.
const JOURNAL_CAP: usize = 16 << 20;

/// What the layer measurements run on: one workload's instance and one
/// solve's configuration.
pub struct LayerInputs<'a> {
    /// The instance.
    pub inst: &'a Instance,
    /// The instance as text (what set-up parses).
    pub text: &'a str,
    /// The workload's mode.
    pub mode: Mode,
    /// One solve's configuration.
    pub cfg: RunConfig,
    /// Private scratch directory.
    pub scratch: &'a Path,
    /// A journal the workload wrote, to replay; `None` replays the one
    /// the append measurement writes.
    pub journal: Option<&'a Path>,
    /// Time budget per timed metric (at least one call is made).
    pub budget: Duration,
}

/// Time `f` in batches of `batch` calls until `budget` has passed; the
/// per-call time of each batch, scaled by `scale` (e.g. 1e3 for ms).
fn sample(budget: Duration, batch: usize, scale: f64, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || (start.elapsed() < budget && out.len() < MAX_CALLS) {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        out.push(t0.elapsed().as_secs_f64() * scale / batch as f64);
    }
    out
}

/// The fixing `Mode::Core` makes at its first identification, read off
/// the policy itself: its round-0 assignment carries the fixing as a
/// cell. `None` when the policy fixed nothing (it then runs plain CTS2).
fn core_fixing(inst: &Instance, cfg: &RunConfig) -> Option<(Vec<usize>, Vec<usize>)> {
    let mut policy = CorePolicy::new();
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    policy.prepare(inst, cfg, &mut rng);
    let cell = policy.assign(0, 0, inst, cfg, &mut rng).cell?;
    let index = |v: Vec<u64>| v.into_iter().map(|j| j as usize).collect();
    Some((index(cell.forced_in), index(cell.forced_out)))
}

/// Every per-layer metric that is measured by calling into a layer (the
/// engine's spans and the pass-level ratios are the caller's).
pub fn measure(inp: &LayerInputs, tally: &mut Tally) -> Vec<Metric> {
    let inst = inp.inst;
    let n = inst.n();
    let budget = inp.budget;
    let mut out = Vec::new();

    // mkp: format, eval + greedy.
    out.push(Metric::timing(
        "mkp.parse_ms",
        "ms",
        &sample(budget, 1, 1e3, || {
            black_box(parse_instance("layer", inp.text).is_ok());
        }),
    ));
    out.push(Metric::timing(
        "mkp.ratios_greedy_ms",
        "ms",
        &sample(budget, 1, 1e3, || {
            black_box(greedy(inst, &Ratios::new(inst)).value());
        }),
    ));
    let ratios = Ratios::new(inst);
    let start = greedy(inst, &ratios);

    // simplex through mkp_exact::bounds, and the CORE restriction it feeds,
    // on the fixing the CORE policy makes.
    let mut lp = None;
    out.push(Metric::timing(
        "lp.solve_ms",
        "ms",
        &sample(budget, 1, 1e3, || lp = Some(lp_bound(inst))),
    ));
    let lp = match lp.expect("sampled at least once") {
        Ok(lp) => lp,
        Err(e) => {
            tally.record::<()>(Err(format!("LP solve failed: {e:?}")));
            return out;
        }
    };
    out.push(Metric::timing(
        "lp.reduced_costs_ms",
        "ms",
        &sample(budget, 1, 1e3, || {
            black_box(reduced_costs(inst, &lp.duals).len());
        }),
    ));
    // The policy only keeps a fixing whose restriction builds.
    let restriction = core_fixing(inst, &inp.cfg).and_then(|(forced_in, forced_out)| {
        out.push(Metric::timing(
            "mkp.restrict_new_ms",
            "ms",
            &sample(budget, 1, 1e3, || {
                black_box(Restriction::new(inst, &forced_in, &forced_out).is_ok());
            }),
        ));
        Restriction::new(inst, &forced_in, &forced_out).ok()
    });
    match restriction {
        Some(r) => out.push(Metric::timing(
            "mkp.project_lift_us",
            "us",
            &sample(budget, 100, 1e6, || {
                let sub = Solution::from_bits(r.instance(), r.project(start.bits()));
                black_box(r.lift(inst, &sub).value());
            }),
        )),
        None => {
            tally.record::<()>(Err("the CORE policy fixed no variable".to_string()));
        }
    }

    // tabu: the move operator, then each intensification kernel per call
    // from the greedy start.
    let tenure = TsConfig::default_for(n).strategy.tabu_tenure;
    {
        let mut sol = start.clone();
        let mut tabu = Recency::new(n, tenure);
        let mut stats = MoveStats::default();
        let mut rng = Xoshiro256::seed_from_u64(inp.cfg.seed);
        let mut now = 0u64;
        out.push(Metric::timing(
            "tabu.apply_move_ns",
            "ns",
            &sample(budget, 1000, 1e9, || {
                apply_move(
                    inst,
                    &ratios,
                    &mut sol,
                    &mut tabu,
                    now,
                    2,
                    i64::MAX,
                    0.1,
                    &mut rng,
                    &mut stats,
                );
                now += 1;
            }),
        ));
    }
    let osc_depth = TsConfig::default_for(n).osc_depth;
    type Kernel<'a> = &'a dyn Fn(&mut Solution, &mut MoveStats);
    let kernels: [(&str, Kernel); 5] = [
        ("swap", &|s, st| {
            swap_intensification(inst, &ratios, s, st);
        }),
        ("lateral", &|s, st| {
            lateral_swap_fill(inst, &ratios, s, st);
        }),
        ("drop_refill", &|s, st| {
            drop_refill_intensification(inst, &ratios, s, st);
        }),
        ("ejection", &|s, st| {
            ejection_chain_intensification(inst, s, st, 3);
        }),
        ("oscillation", &|s, st| {
            strategic_oscillation(inst, &ratios, s, osc_depth, st);
        }),
    ];
    for (name, kernel) in kernels {
        let mut evals = 0;
        let mut times = Vec::new();
        let began = Instant::now();
        while times.is_empty() || (began.elapsed() < budget && times.len() < MAX_CALLS) {
            let mut sol = start.clone();
            let mut stats = MoveStats::default();
            let t0 = Instant::now();
            kernel(&mut sol, &mut stats);
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            black_box(sol.value());
            evals = stats.candidate_evals;
        }
        out.push(Metric::timing(&format!("tabu.{name}_ms"), "ms", &times));
        out.push(Metric::value(
            &format!("tabu.{name}_evals"),
            "count",
            Better::Lower,
            evals as f64,
            1,
        ));
    }

    // One assignment's worth of search, for the cost per evaluation and a
    // real report message.
    let cfg = &inp.cfg;
    let per_assignment = cfg.total_evals / (cfg.p * cfg.rounds).max(1) as u64;
    let mut history = History::new(n);
    let (search, secs) = {
        let t0 = Instant::now();
        let report = run_with_memory(
            inst,
            &ratios,
            start.clone(),
            &TsConfig::default_for(n),
            Budget::evals(per_assignment),
            &mut Xoshiro256::seed_from_u64(cfg.seed),
            &mut Recency::new(n, tenure),
            &mut history,
        );
        (report, t0.elapsed().as_secs_f64())
    };
    let ns_per_eval = secs * 1e9 / search.stats.candidate_evals.max(1) as f64;
    out.push(Metric::value(
        "tabu.ns_per_eval",
        "ns",
        Better::Lower,
        ns_per_eval,
        1,
    ));
    out.push(Metric::value(
        "tabu.evals_per_s",
        "evals/s",
        Better::Higher,
        1e9 / ns_per_eval,
        1,
    ));

    // codec: the problem broadcast and a real report.
    let problem = ProblemMsg::from_instance(inst);
    let problem_bytes = problem.to_bytes();
    out.push(Metric::value(
        "codec.problem_bytes",
        "B",
        Better::Lower,
        problem_bytes.len() as f64,
        1,
    ));
    out.push(Metric::timing(
        "codec.problem_encode_ms",
        "ms",
        &sample(budget, 1, 1e3, || {
            black_box(ProblemMsg::from_instance(inst).to_bytes().len());
        }),
    ));
    out.push(Metric::timing(
        "codec.problem_decode_ms",
        "ms",
        &sample(budget, 1, 1e3, || {
            black_box(ProblemMsg::from_bytes(&problem_bytes).is_ok());
        }),
    ));
    let report = ReportMsg {
        best: search.best.bits().clone(),
        elite: search.elite.iter().map(|s| s.bits().clone()).collect(),
        initial_value: search.initial_value,
        best_value: search.best.value(),
        moves: search.stats.moves,
        evals: search.stats.candidate_evals,
        epoch: 0,
        history_counts: history.counts().to_vec(),
        history_iterations: history.iterations(),
    };
    let report_bytes = report.to_bytes();
    out.push(Metric::value(
        "codec.report_bytes",
        "B",
        Better::Lower,
        report_bytes.len() as f64,
        1,
    ));
    out.push(Metric::timing(
        "codec.report_roundtrip_us",
        "us",
        &sample(budget, 10, 1e6, || {
            black_box(ReportMsg::from_bytes(&report.to_bytes()).is_ok());
        }),
    ));

    // frame + socket: a report-sized frame through the framer alone, then
    // over a Unix socket to an echo thread and back.
    out.push(Metric::timing(
        "transport.frame_roundtrip_us",
        "us",
        &sample(budget, 10, 1e6, || {
            let wire = encode_frame(1, tags::REPORT, &report_bytes).expect("report fits a frame");
            black_box(read_frame(&mut wire.as_slice()).is_ok());
        }),
    ));
    match loopback(inp.scratch, &report_bytes, budget) {
        Ok(rtt) => out.push(Metric::timing("transport.loopback_rtt_us", "us", &rtt)),
        Err(e) => {
            tally.record::<()>(Err(e));
        }
    }

    // snapshot: the master state parked after one round.
    match park(inp) {
        Ok(snap) => {
            let bytes = snap.to_file_bytes();
            out.push(Metric::value(
                "snapshot.bytes",
                "B",
                Better::Lower,
                bytes.len() as f64,
                1,
            ));
            out.push(Metric::timing(
                "snapshot.encode_ms",
                "ms",
                &sample(budget, 1, 1e3, || {
                    black_box(snap.to_file_bytes().len());
                }),
            ));
            out.push(Metric::timing(
                "snapshot.decode_ms",
                "ms",
                &sample(budget, 1, 1e3, || {
                    black_box(Snapshot::from_file_bytes(&bytes).is_ok());
                }),
            ));
            let path = inp.scratch.join("layer.snap");
            let mut saved = Ok(());
            out.push(Metric::timing(
                "snapshot.save_ms",
                "ms",
                &sample(budget, 1, 1e3, || {
                    saved = saved.clone().and(snap.save(&path))
                }),
            ));
            if let Err(e) = saved {
                tally.record::<()>(Err(format!("snapshot save failed: {e}")));
            }
        }
        Err(e) => {
            tally.record::<()>(Err(e));
        }
    }

    // journal: durable appends of a SUBMIT-sized record (job id, the
    // problem, the submission's fixed fields), then a replay.
    match journal_layer(inp, &problem_bytes) {
        Ok(metrics) => out.extend(metrics),
        Err(e) => {
            tally.record::<()>(Err(e));
        }
    }
    out
}

/// Round trips of a `payload`-sized frame to an echo thread over a Unix
/// socket, in µs.
fn loopback(scratch: &Path, payload: &[u8], budget: Duration) -> Result<Vec<f64>, String> {
    let ep = Endpoint::Unix(scratch.join("loopback.sock"));
    let listener = FramedListener::bind(&ep).map_err(|e| format!("loopback bind: {e}"))?;
    let mut conn = FramedConn::dial(&ep).map_err(|e| format!("loopback dial: {e}"))?;
    let mut peer = listener
        .accept()
        .map_err(|e| format!("loopback accept: {e}"))?;
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(Some(env)) = peer.recv() {
                if peer.send_bytes(0, env.tag, &env.data).is_err() {
                    return;
                }
            }
        });
        let mut failed = None;
        let rtt = sample(budget, 10, 1e6, || {
            let echoed = conn
                .send_bytes(1, tags::REPORT, payload)
                .map_err(|e| e.to_string())
                .and_then(|()| conn.recv().map_err(|e| e.to_string()));
            if !matches!(&echoed, Ok(Some(env)) if env.data.len() == payload.len()) {
                failed = Some(format!("loopback echo failed: {echoed:?}"));
            }
        });
        conn.shutdown();
        match failed {
            Some(e) => Err(e),
            None => Ok(rtt),
        }
    })
}

/// Park the workload's solve after its first round.
fn park(inp: &LayerInputs) -> Result<Box<Snapshot>, String> {
    let mut engine = Engine::new(inp.cfg.p);
    engine.set_telemetry(false);
    match engine.run_slice(inp.inst, inp.mode, &inp.cfg, None, Some(1)) {
        Ok(SliceOutcome::Parked(snap)) => Ok(snap),
        Ok(SliceOutcome::Finished(_)) => Err("the solve finished instead of parking".to_string()),
        Err(e) => Err(format!("run_slice failed: {e}")),
    }
}

fn journal_layer(inp: &LayerInputs, problem_bytes: &[u8]) -> Result<Vec<Metric>, String> {
    let path = inp.scratch.join("layer.mkpj");
    let (mut j, _) = Journal::open(&path).map_err(|e| format!("journal open: {e}"))?;
    // [job id: u64][ProblemMsg][mode u8, p, rounds, budget, seed,
    // deadline, token: u64 each]
    let mut record = vec![0u8; 8];
    record.extend_from_slice(problem_bytes);
    record.extend_from_slice(&[0u8; 49]);
    let appends = (JOURNAL_CAP / record.len()).clamp(1, MAX_CALLS);
    let mut failed = None;
    let mut written = 0;
    let began = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || (began.elapsed() < inp.budget && written < appends) {
        let t0 = Instant::now();
        if let Err(e) = j.append(1, &record) {
            failed = Some(format!("journal append: {e}"));
            break;
        }
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        written += 1;
    }
    drop(j);
    if let Some(e) = failed {
        return Err(e);
    }
    let replayed = inp.journal.unwrap_or(&path);
    let bytes = std::fs::read(replayed).map_err(|e| format!("journal read: {e}"))?;
    let mut records = 0;
    let replay = sample(inp.budget, 1, 1e3, || {
        records = journal::replay(&bytes).0.len();
    });
    if inp.journal.is_none() && records != written {
        return Err(format!(
            "journal replay found {records} of {written} appended records"
        ));
    }
    Ok(vec![
        Metric::timing("journal.append_us", "us", &times),
        Metric::timing("journal.replay_ms", "ms", &replay),
    ])
}
