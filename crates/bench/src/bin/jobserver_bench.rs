//! Open-loop load test of the job server (DESIGN.md §14): an in-process
//! server is offered a fixed arrival schedule of jobs — arrivals do
//! *not* wait for completions, so queueing shows up as latency instead
//! of hiding in a closed loop — and the run reports throughput
//! (jobs/sec) and the p95 *time-to-target*: how long after submission a
//! client saw the first incumbent equal to its job's final best value.
//!
//! ```text
//! cargo run --release -p mkp-bench --bin jobserver_bench [-- --smoke] [--json PATH]
//! ```
//!
//! The JSON report goes to `results/jobserver-bench.json`, or to
//! `results/jobserver-bench-smoke.json` with `--smoke`.

use mkp::generate::{gk_instance, GkSpec};
use mkp_bench::{median, percentile};
use parallel_tabu::{
    serve, submit_job, Mode, ServeBackend, ServeConfig, SubmitEvent, SubmitOutcome, SubmitSpec,
};
use pvm_lite::Endpoint;
use std::time::{Duration, Instant};

struct JobResult {
    done_at: Instant,
    time_to_target: Duration,
}

fn main() {
    let mut smoke = false;
    let mut json_path = None;
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
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    // A smoke run never overwrites the committed full-run figures.
    let json_path = json_path.unwrap_or_else(|| {
        if smoke {
            "results/jobserver-bench-smoke.json".to_string()
        } else {
            "results/jobserver-bench.json".to_string()
        }
    });
    // Offered load: enough jobs that the queue develops real depth, with
    // arrivals faster than the farm drains them so time-slicing (not
    // admission idling) is what the latency numbers measure.
    let (njobs, budget, interarrival) = if smoke {
        (6usize, 30_000u64, Duration::from_millis(20))
    } else {
        (32, 400_000, Duration::from_millis(100))
    };
    let rounds = 4usize;
    let p = 2usize;
    let patience = Duration::from_secs(300);

    let dir = std::env::temp_dir().join(format!("mkp-jobsrv-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let ep = Endpoint::Unix(dir.join("clients.sock"));

    let server = {
        let ep = ep.clone();
        let cfg = ServeConfig {
            quantum: 1,
            max_queue: njobs.max(16),
            max_inflight: 4,
            spool_dir: dir.join("spool"),
            max_jobs: njobs as u64,
            patience,
            ..ServeConfig::default()
        };
        std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 4 }, &cfg))
    };

    // One thread per job, each sleeping until its scheduled arrival —
    // the open-loop schedule is fixed up front, independent of progress.
    let t0 = Instant::now();
    let clients: Vec<_> = (0..njobs)
        .map(|k| {
            let ep = ep.clone();
            std::thread::spawn(move || {
                let inst = gk_instance(
                    "jobsrv-bench",
                    GkSpec {
                        n: 100,
                        m: 5,
                        tightness: 0.5,
                        seed: 1000 + k as u64,
                    },
                );
                let spec = SubmitSpec {
                    mode: Mode::CooperativeAdaptive,
                    p,
                    rounds,
                    budget_evals: budget,
                    seed: k as u64,
                    deadline: None,
                };
                let arrival = t0 + interarrival * k as u32;
                if let Some(wait) = arrival.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let submitted = Instant::now();
                let mut incumbents: Vec<(Instant, i64)> = Vec::new();
                let outcome = submit_job(&ep, &inst, &spec, patience, |ev| {
                    if let SubmitEvent::Incumbent { value, .. } = ev {
                        incumbents.push((Instant::now(), value));
                    }
                })
                .expect("submission failed");
                let done_at = Instant::now();
                let SubmitOutcome::Done(report) = outcome else {
                    panic!("job {k} did not complete: {outcome:?}");
                };
                let (hit, _) = incumbents
                    .iter()
                    .find(|(_, v)| *v == report.best_value)
                    .expect("the final value must appear in the incumbent stream");
                JobResult {
                    done_at,
                    time_to_target: hit.duration_since(submitted),
                }
            })
        })
        .collect();

    let results: Vec<JobResult> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    let stats = server.join().unwrap().expect("server failed");
    assert_eq!(stats.done as usize, njobs, "every job must complete");

    let last_done = results.iter().map(|r| r.done_at).max().unwrap();
    let span = last_done.duration_since(t0).as_secs_f64();
    let jobs_per_sec = njobs as f64 / span;
    let mut ttt_ms: Vec<f64> = results
        .iter()
        .map(|r| r.time_to_target.as_secs_f64() * 1e3)
        .collect();
    ttt_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let p50 = median(&ttt_ms);
    let p95 = percentile(&ttt_ms, 95.0);

    println!("jobs           : {njobs} ({} slices served)", stats.slices);
    println!("throughput     : {jobs_per_sec:.2} jobs/sec over {span:.2} s");
    println!("time-to-target : p50 {p50:.1} ms, p95 {p95:.1} ms");

    let json = format!(
        "{{\n  \"schema\": \"mkp-jobserver/bench/v1\",\n  \"smoke\": {smoke},\n  \
         \"jobs\": {njobs},\n  \"mode\": \"CTS2\",\n  \"p\": {p},\n  \"rounds\": {rounds},\n  \
         \"budget_evals\": {budget},\n  \"interarrival_ms\": {},\n  \"quantum\": 1,\n  \
         \"slices\": {},\n  \"jobs_per_sec\": {jobs_per_sec:.3},\n  \
         \"time_to_target_p50_ms\": {p50:.3},\n  \"time_to_target_p95_ms\": {p95:.3}\n}}\n",
        interarrival.as_millis(),
        stats.slices,
    );
    if let Some(parent) = std::path::Path::new(&json_path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(&json_path, json) {
        eprintln!("cannot write {json_path}: {e}");
        std::process::exit(1);
    }
    println!("json report: {json_path}");
    let _ = std::fs::remove_dir_all(&dir);
}
