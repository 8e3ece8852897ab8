//! Job-server integration: concurrent jobs time-sliced over one farm
//! must be bit-identical to solo runs, and the protocol's stream order
//! and admission/deadline verdicts must hold (DESIGN.md §14).

use mkp::generate::{gk_instance, GkSpec};
use mkp::Instance;
use parallel_tabu::{
    attach_job, run_mode, serve, submit_job, Mode, ModeReport, RunConfig, ServeBackend,
    ServeConfig, SubmitEvent, SubmitOutcome, SubmitSpec,
};
use pvm_lite::Endpoint;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PATIENCE: Duration = Duration::from_secs(60);

fn instance(seed: u64) -> Instance {
    gk_instance(
        "jobsrv-it",
        GkSpec {
            n: 60,
            m: 5,
            tightness: 0.5,
            seed,
        },
    )
}

fn endpoint(dir: &std::path::Path, name: &str) -> Endpoint {
    Endpoint::Unix(dir.join(name))
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mkp-jobsrv-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Assert the job server's answer matches a solo, uninterrupted run of
/// the same job — the bit-identity the parked-snapshot machinery owes.
fn assert_matches_solo(outcome: &SubmitOutcome, solo: &ModeReport) {
    let SubmitOutcome::Done(report) = outcome else {
        panic!("expected a completed job, got {outcome:?}");
    };
    assert_eq!(report.best_bits, *solo.best.bits());
    assert_eq!(report.best_value, solo.best.value());
    assert_eq!(report.round_best, solo.round_best);
    assert_eq!(report.total_moves, solo.total_moves);
    assert_eq!(report.total_evals, solo.total_evals);
    assert_eq!(report.regenerations, solo.regenerations);
    assert!(!report.degraded);
}

/// The events a client sees must be ordered: ACCEPTED first, then
/// incumbents with strictly increasing rounds.
fn assert_stream_order(events: &[SubmitEvent], rounds: u64) {
    assert!(
        matches!(events.first(), Some(SubmitEvent::Accepted { .. })),
        "first event must be the acceptance: {events:?}"
    );
    let mut last_round = 0;
    for ev in &events[1..] {
        let SubmitEvent::Incumbent { round, .. } = ev else {
            panic!("acceptance may only come first: {events:?}");
        };
        assert!(
            *round > last_round,
            "incumbent rounds must increase: {events:?}"
        );
        last_round = *round;
    }
    assert_eq!(
        last_round, rounds,
        "the final incumbent covers the full run"
    );
}

#[test]
fn interleaved_jobs_are_bit_identical_to_solo_runs() {
    let dir = tmp_dir("interleave");
    let ep = endpoint(&dir, "clients.sock");

    // Two cooperative jobs with different shapes, sliced one round at a
    // time over the same 4-worker pool; every park goes through the spool.
    let jobs = [
        (
            instance(11),
            Mode::CooperativeAdaptive,
            3usize,
            4usize,
            80_000u64,
            7u64,
        ),
        (
            instance(22),
            Mode::Cooperative,
            4usize,
            5usize,
            60_000u64,
            13u64,
        ),
    ];
    let solo: Vec<ModeReport> = jobs
        .iter()
        .map(|(inst, mode, p, rounds, budget, seed)| {
            let cfg = RunConfig {
                p: *p,
                rounds: *rounds,
                ..RunConfig::new(*budget, *seed)
            };
            run_mode(inst, *mode, &cfg)
        })
        .collect();

    let server = {
        let ep = ep.clone();
        let cfg = ServeConfig {
            quantum: 1,
            spool_dir: dir.join("spool"),
            max_jobs: 2,
            patience: PATIENCE,
            ..ServeConfig::default()
        };
        std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 4 }, &cfg))
    };

    let clients: Vec<_> = jobs
        .iter()
        .map(|(inst, mode, p, rounds, budget, seed)| {
            let ep = ep.clone();
            let inst = inst.clone();
            let spec = SubmitSpec {
                mode: *mode,
                p: *p,
                rounds: *rounds,
                budget_evals: *budget,
                seed: *seed,
                deadline: None,
            };
            std::thread::spawn(move || {
                let mut events = Vec::new();
                let outcome =
                    submit_job(&ep, &inst, &spec, PATIENCE, |ev| events.push(ev)).unwrap();
                (outcome, events)
            })
        })
        .collect();

    let results: Vec<_> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    let stats = server.join().unwrap().unwrap();

    for ((outcome, events), (solo, (_, _, _, rounds, _, _))) in
        results.iter().zip(solo.iter().zip(jobs.iter()))
    {
        assert_matches_solo(outcome, solo);
        assert_stream_order(events, *rounds as u64);
    }

    // Each job ran one round per slice: the pool really was time-sliced,
    // and every slice after a job's first resumed from the spool.
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.done, 2);
    assert_eq!(stats.slices, (jobs[0].3 + jobs[1].3) as u64);
    assert_eq!(stats.restores, stats.slices - stats.accepted);
    assert_eq!(stats.restores, 7);
    let leftovers = spool_files(&dir.join("spool"));
    assert!(leftovers.is_empty(), "spool must be drained: {leftovers:?}");
}

/// The files in a spool directory; none when the directory is gone.
fn spool_files(spool: &std::path::Path) -> Vec<std::path::PathBuf> {
    match std::fs::read_dir(spool) {
        Ok(entries) => entries.map(|e| e.unwrap().path()).collect(),
        Err(_) => Vec::new(),
    }
}

/// Two servers on default configs run at once, each parking a job with
/// the same id: their spools must not collide (each result stays
/// bit-identical to its solo run), and each server removes its private
/// spool directory when it returns.
#[test]
fn default_servers_spool_privately_and_clean_up() {
    let dir = tmp_dir("default-spool");
    let (mode, p, rounds, budget) = (Mode::Cooperative, 2usize, 6usize, 120_000u64);
    let cfgs: Vec<ServeConfig> = (0..2)
        .map(|_| ServeConfig {
            max_jobs: 1,
            patience: PATIENCE,
            ..ServeConfig::default()
        })
        .collect();
    assert_ne!(cfgs[0].spool_dir, cfgs[1].spool_dir);

    let runs: Vec<_> = cfgs
        .iter()
        .enumerate()
        .map(|(k, cfg)| {
            let ep = endpoint(&dir, &format!("clients-{k}.sock"));
            let server = {
                let (ep, cfg) = (ep.clone(), cfg.clone());
                std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p }, &cfg))
            };
            let client = std::thread::spawn(move || {
                let spec = SubmitSpec {
                    mode,
                    p,
                    rounds,
                    budget_evals: budget,
                    seed: k as u64,
                    deadline: None,
                };
                submit_job(&ep, &instance(80 + k as u64), &spec, PATIENCE, |_| {}).unwrap()
            });
            (server, client)
        })
        .collect();

    for (k, (server, client)) in runs.into_iter().enumerate() {
        let outcome = client.join().unwrap();
        let stats = server.join().unwrap().unwrap();
        let solo = run_mode(
            &instance(80 + k as u64),
            mode,
            &RunConfig {
                p,
                rounds,
                ..RunConfig::new(budget, k as u64)
            },
        );
        assert_matches_solo(&outcome, &solo);
        assert_eq!(stats.restores, rounds as u64 - 1, "{stats:?}");
        assert!(
            !cfgs[k].spool_dir.exists(),
            "a server must remove the spool directory it made"
        );
    }
}

/// A drained server without a state dir cannot resume anything, so it
/// removes the spool files of the jobs it leaves parked.
#[test]
fn drained_server_without_state_dir_removes_its_spool_files() {
    let dir = tmp_dir("drain-spool");
    let ep = endpoint(&dir, "clients.sock");
    let spool = dir.join("spool");
    std::fs::create_dir_all(&spool).unwrap();

    let drain = Arc::new(AtomicBool::new(false));
    let server = {
        let ep = ep.clone();
        let cfg = ServeConfig {
            quantum: 1,
            spool_dir: spool.clone(),
            drain: Some(Arc::clone(&drain)),
            patience: PATIENCE,
            ..ServeConfig::default()
        };
        std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 2 }, &cfg))
    };

    // The first incumbent follows the first park, so the job is parked
    // when the drain lands; with 23 rounds to go it cannot finish first.
    let client = {
        let drain = Arc::clone(&drain);
        let spec = SubmitSpec {
            mode: Mode::Cooperative,
            p: 2,
            rounds: 24,
            budget_evals: 480_000,
            seed: 8,
            deadline: None,
        };
        std::thread::spawn(move || {
            // Short patience: nobody restarts this server, so the client
            // gives up on reattaching quickly.
            submit_job(&ep, &instance(88), &spec, Duration::from_secs(3), |ev| {
                if matches!(ev, SubmitEvent::Incumbent { .. }) {
                    drain.store(true, Ordering::Relaxed);
                }
            })
            .unwrap()
        })
    };

    let stats = server.join().unwrap().unwrap();
    assert_eq!(client.join().unwrap(), SubmitOutcome::ServerLost);
    assert!(stats.drained);
    assert_eq!((stats.accepted, stats.done), (1, 0), "{stats:?}");
    assert!(
        spool.exists(),
        "a spool directory the server did not make stays"
    );
    let leftovers = spool_files(&spool);
    assert!(leftovers.is_empty(), "spool must be emptied: {leftovers:?}");
}

#[test]
fn deadline_and_admission_verdicts_are_reported() {
    let dir = tmp_dir("deadline");
    let ep = endpoint(&dir, "clients.sock");

    let server = {
        let ep = ep.clone();
        let cfg = ServeConfig {
            quantum: 1,
            max_jobs: 1,
            patience: PATIENCE,
            ..ServeConfig::default()
        };
        std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 2 }, &cfg))
    };

    let inst = instance(33);

    // Admission refusal: asks for more workers than the farm has. Does
    // not count toward max_jobs — the server keeps serving.
    let outcome = submit_job(
        &ep,
        &inst,
        &SubmitSpec {
            mode: Mode::Cooperative,
            p: 99,
            rounds: 4,
            budget_evals: 10_000,
            seed: 1,
            deadline: None,
        },
        PATIENCE,
        |_| {},
    )
    .unwrap();
    match outcome {
        SubmitOutcome::Rejected { reason } => {
            assert!(reason.contains("capacity"), "unexpected reason: {reason}")
        }
        other => panic!("expected an admission rejection, got {other:?}"),
    }

    // Deadline expiry: a multi-round job whose 1 ms deadline lapses
    // during its first slice is terminated at the next quantum boundary.
    let mut events = Vec::new();
    let outcome = submit_job(
        &ep,
        &inst,
        &SubmitSpec {
            mode: Mode::Cooperative,
            p: 2,
            rounds: 8,
            budget_evals: 400_000,
            seed: 2,
            deadline: Some(Duration::from_millis(1)),
        },
        PATIENCE,
        |ev| events.push(ev),
    )
    .unwrap();
    match outcome {
        SubmitOutcome::Rejected { reason } => {
            assert!(reason.contains("deadline"), "unexpected reason: {reason}")
        }
        other => panic!("expected a deadline rejection, got {other:?}"),
    }
    assert!(
        matches!(events.first(), Some(SubmitEvent::Accepted { .. })),
        "the job must be accepted before its deadline can expire: {events:?}"
    );

    let stats = server.join().unwrap().unwrap();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.done, 0);
}

/// Tentpole: a drained server leaves its in-flight job parked durably
/// (journal + spool under `state_dir`), a restarted server re-adopts
/// it, and the client — whose idempotent token resubmit rides out the
/// outage — receives a result bit-identical to an uninterrupted solo
/// run. The kill-9 variant of this lives in `scripts/ci.sh`; here the
/// outage is a graceful drain so the test stays in-process.
#[test]
fn drained_server_restarts_and_finishes_the_job_bit_identically() {
    let dir = tmp_dir("drain-restart");
    let ep = endpoint(&dir, "clients.sock");
    let state_dir = dir.join("state");

    let (mode, p, rounds, budget, seed) = (Mode::Cooperative, 2usize, 24usize, 480_000u64, 5u64);
    let solo = run_mode(
        &instance(44),
        mode,
        &RunConfig {
            p,
            rounds,
            ..RunConfig::new(budget, seed)
        },
    );

    let drain = Arc::new(AtomicBool::new(false));
    let server1 = {
        let ep = ep.clone();
        let cfg = ServeConfig {
            quantum: 1,
            state_dir: Some(state_dir.clone()),
            drain: Some(Arc::clone(&drain)),
            patience: PATIENCE,
            ..ServeConfig::default()
        };
        std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 2 }, &cfg))
    };

    // The client pulls the plug itself: the first incumbent proves a
    // parked snapshot is on disk, so it flips the drain flag — with 23
    // slices still to go, the server cannot finish before draining.
    let client = {
        let ep = ep.clone();
        let inst = instance(44);
        let drain = Arc::clone(&drain);
        let spec = SubmitSpec {
            mode,
            p,
            rounds,
            budget_evals: budget,
            seed,
            deadline: None,
        };
        std::thread::spawn(move || {
            let mut events = Vec::new();
            let outcome = submit_job(&ep, &inst, &spec, PATIENCE, |ev| {
                if matches!(ev, SubmitEvent::Incumbent { .. }) {
                    drain.store(true, Ordering::Relaxed);
                }
                events.push(ev);
            })
            .unwrap();
            (outcome, events)
        })
    };

    let stats1 = server1.join().unwrap().unwrap();
    assert!(stats1.drained, "server must exit through the drain");
    assert_eq!(stats1.accepted, 1);
    assert_eq!(stats1.done, 0, "the job must still be in flight");
    assert!(
        state_dir.join("spool").join("job-1.snap").exists(),
        "a drained in-flight job leaves its snapshot in the spool"
    );
    assert!(state_dir.join("journal.mkpj").exists());

    // Restart on the same state dir: the journal replays, the spool is
    // re-adopted, and the job runs to completion. The restarted server
    // must outlive the client's re-dial — a recovered job is detached
    // and can finish before its owner reattaches, with the retained
    // DONE frame answering the late resubmit — so it drains only after
    // the client has its result.
    let drain2 = Arc::new(AtomicBool::new(false));
    let server2 = {
        let ep = ep.clone();
        let cfg = ServeConfig {
            quantum: 1,
            state_dir: Some(state_dir.clone()),
            drain: Some(Arc::clone(&drain2)),
            patience: PATIENCE,
            ..ServeConfig::default()
        };
        std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 2 }, &cfg))
    };

    let (outcome, events) = client.join().unwrap();
    drain2.store(true, Ordering::Relaxed);
    let stats2 = server2.join().unwrap().unwrap();
    assert_matches_solo(&outcome, &solo);
    assert!(
        matches!(events.first(), Some(SubmitEvent::Accepted { .. })),
        "acceptance still leads the stream: {events:?}"
    );
    assert_eq!(stats2.recovered, 1, "the journal must re-admit the job");
    assert_eq!(stats2.done, 1);
    assert_eq!(stats2.spool_corrupt, 0);
}

/// Satellite: with a 1-slice quantum, a parked job whose deadline
/// lapses while *another* job holds the farm is expired at the
/// scheduler tick — promptly, and without ever getting another slice —
/// not at its own far-away turn.
#[test]
fn parked_job_past_its_deadline_expires_at_the_tick() {
    let dir = tmp_dir("tick-expiry");
    let ep = endpoint(&dir, "clients.sock");

    let server = {
        let ep = ep.clone();
        let cfg = ServeConfig {
            quantum: 1,
            max_jobs: 2,
            patience: PATIENCE,
            ..ServeConfig::default()
        };
        std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 2 }, &cfg))
    };

    // Job A hogs the farm with ten fat slices.
    let (accepted_tx, accepted_rx) = std::sync::mpsc::channel();
    let job_a = {
        let ep = ep.clone();
        let inst = instance(55);
        let spec = SubmitSpec {
            mode: Mode::Cooperative,
            p: 2,
            rounds: 10,
            budget_evals: 2_000_000,
            seed: 3,
            deadline: None,
        };
        std::thread::spawn(move || {
            submit_job(&ep, &inst, &spec, PATIENCE, |ev| {
                if matches!(ev, SubmitEvent::Accepted { .. }) {
                    let _ = accepted_tx.send(());
                }
            })
            .unwrap()
        })
    };
    // B must queue behind A: wait for A's acceptance (a fixed head start
    // loses the race when A's first dial lands before the server listens).
    accepted_rx.recv_timeout(PATIENCE).unwrap();

    // Job B queues behind A and its 1 ms deadline lapses during A's
    // current slice; the tick check must expire it *between* turns.
    let outcome_b = submit_job(
        &ep,
        &instance(66),
        &SubmitSpec {
            mode: Mode::Cooperative,
            p: 2,
            rounds: 4,
            budget_evals: 100_000,
            seed: 4,
            deadline: Some(Duration::from_millis(1)),
        },
        PATIENCE,
        |_| {},
    )
    .unwrap();

    match outcome_b {
        SubmitOutcome::Rejected { reason } => assert!(
            reason.contains("between turns"),
            "expiry must come from the scheduler tick, not job B's own turn: {reason}"
        ),
        other => panic!("expected a deadline rejection, got {other:?}"),
    }
    let outcome_a = job_a.join().unwrap();
    assert!(matches!(outcome_a, SubmitOutcome::Done(_)), "{outcome_a:?}");

    let stats = server.join().unwrap().unwrap();
    assert_eq!(stats.expired, 1);
    assert_eq!(
        stats.slices, 10,
        "the expired job must never have gotten a slice: {stats:?}"
    );
}

/// Satellite: a spooled snapshot that rots on disk is detected by its
/// checksum, surfaced as a specific `SpoolCorrupt` verdict, and counted
/// in telemetry — it costs that job, not the server.
#[test]
fn bit_flipped_spool_file_is_a_spool_corrupt_verdict() {
    let dir = tmp_dir("spool-corrupt");
    let ep = endpoint(&dir, "clients.sock");
    let state_dir = dir.join("state");

    let drain = Arc::new(AtomicBool::new(false));
    let server1 = {
        let ep = ep.clone();
        let cfg = ServeConfig {
            quantum: 1,
            state_dir: Some(state_dir.clone()),
            drain: Some(Arc::clone(&drain)),
            patience: PATIENCE,
            ..ServeConfig::default()
        };
        std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 2 }, &cfg))
    };

    let client = {
        let ep = ep.clone();
        let inst = instance(77);
        let drain = Arc::clone(&drain);
        let spec = SubmitSpec {
            mode: Mode::Cooperative,
            p: 2,
            rounds: 24,
            budget_evals: 480_000,
            seed: 6,
            deadline: None,
        };
        std::thread::spawn(move || {
            submit_job(&ep, &inst, &spec, PATIENCE, |ev| {
                if matches!(ev, SubmitEvent::Incumbent { .. }) {
                    drain.store(true, Ordering::Relaxed);
                }
            })
            .unwrap()
        })
    };

    let stats1 = server1.join().unwrap().unwrap();
    assert!(stats1.drained);
    assert_eq!(stats1.done, 0);

    // Rot sets in while the server is down.
    let spool_file = state_dir.join("spool").join("job-1.snap");
    let mut bytes = std::fs::read(&spool_file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&spool_file, &bytes).unwrap();

    let drain2 = Arc::new(AtomicBool::new(false));
    let server2 = {
        let ep = ep.clone();
        let cfg = ServeConfig {
            quantum: 1,
            state_dir: Some(state_dir.clone()),
            drain: Some(Arc::clone(&drain2)),
            patience: PATIENCE,
            ..ServeConfig::default()
        };
        std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 2 }, &cfg))
    };

    let outcome = client.join().unwrap();
    drain2.store(true, Ordering::Relaxed);
    let stats2 = server2.join().unwrap().unwrap();
    match outcome {
        SubmitOutcome::Rejected { reason } => assert!(
            reason.starts_with("SpoolCorrupt:"),
            "corruption must get its specific verdict: {reason}"
        ),
        other => panic!("expected a SpoolCorrupt rejection, got {other:?}"),
    }
    assert_eq!(stats2.recovered, 1);
    assert_eq!(stats2.spool_corrupt, 1, "{stats2:?}");
    assert_eq!(stats2.done, 0);
}

/// An ATTACH for a job this server never admitted is answered with a
/// specific rejection, not silence.
#[test]
fn attach_to_an_unknown_job_id_is_rejected() {
    let dir = tmp_dir("attach-unknown");
    let ep = endpoint(&dir, "clients.sock");

    let drain = Arc::new(AtomicBool::new(false));
    let server = {
        let ep = ep.clone();
        let cfg = ServeConfig {
            drain: Some(Arc::clone(&drain)),
            patience: PATIENCE,
            ..ServeConfig::default()
        };
        std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 2 }, &cfg))
    };

    let outcome = attach_job(&ep, 4242, PATIENCE, |_| {}).unwrap();
    match outcome {
        SubmitOutcome::Rejected { reason } => assert!(
            reason.contains("unknown job id 4242"),
            "unexpected reason: {reason}"
        ),
        other => panic!("expected an unknown-id rejection, got {other:?}"),
    }

    drain.store(true, Ordering::Relaxed);
    let stats = server.join().unwrap().unwrap();
    assert!(stats.drained);
    assert_eq!(stats.accepted, 0);
}
