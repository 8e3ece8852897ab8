//! Distributed runs: the socket transport must reproduce the in-process
//! engine — same best value, same round trajectory, same master-side
//! message accounting — because both drive the identical `master_loop`.

use pts_mkp::parallel_tabu::messages::tags;
use pts_mkp::parallel_tabu::{run_remote, run_remote_with, serve_slave, Endpoint, ServeOutcome};
use pts_mkp::prelude::*;
use pts_mkp::pvm_lite::{SocketHub, Transport};
use std::time::Duration;

fn unix_endpoint(tag: &str) -> Endpoint {
    Endpoint::parse(&format!(
        "unix:{}",
        std::env::temp_dir()
            .join(format!("mkp-dist-{tag}-{}.sock", std::process::id()))
            .display()
    ))
    .expect("valid endpoint")
}

fn small_instance(seed: u64) -> Instance {
    gk_instance(
        "dist",
        GkSpec {
            n: 40,
            m: 5,
            tightness: 0.5,
            seed,
        },
    )
}

fn small_cfg(seed: u64) -> RunConfig {
    RunConfig {
        p: 2,
        rounds: 2,
        report_timeout: Duration::from_secs(30),
        ..RunConfig::new(40_000, seed)
    }
}

/// Run `mode` distributed: the master in this thread over a fresh Unix
/// socket, `cfg.p` in-test slave processes as threads (same binary-level
/// protocol as `mkp slave`; process boundaries proper are covered by the
/// CI smoke).
fn run_over_sockets(inst: &Instance, mode: Mode, cfg: &RunConfig, tag: &str) -> ModeReport {
    let ep = unix_endpoint(tag);
    let patience = Duration::from_secs(60);
    // SEQ runs one worker regardless of p; the hub has exactly that many
    // slots and rejects supernumerary slaves.
    let workers = if mode == Mode::Sequential { 1 } else { cfg.p };
    let slaves: Vec<_> = (0..workers)
        .map(|_| {
            let ep = ep.clone();
            std::thread::spawn(move || serve_slave(&ep, patience))
        })
        .collect();
    let report = run_remote(inst, mode, cfg, &ep).expect("distributed run");
    for slave in slaves {
        let outcome = slave.join().expect("slave thread").expect("slave serve");
        assert_eq!(outcome, ServeOutcome::Finished, "slave saw no STOP");
    }
    report
}

#[test]
fn socket_runs_reproduce_the_inproc_engine_for_every_mode() {
    let inst = small_instance(3);
    let cfg = small_cfg(17);
    for mode in Mode::all() {
        let local = run_mode(&inst, mode, &cfg);
        let remote = run_over_sockets(&inst, mode, &cfg, &format!("{mode:?}"));
        assert_eq!(
            local.best.value(),
            remote.best.value(),
            "{mode:?}: socket best diverged"
        );
        assert_eq!(
            local.best.bits(),
            remote.best.bits(),
            "{mode:?}: socket solution diverged"
        );
        assert_eq!(
            local.round_best, remote.round_best,
            "{mode:?}: socket trajectory diverged"
        );
        assert_eq!(
            (local.total_moves, local.total_evals),
            (remote.total_moves, remote.total_evals),
            "{mode:?}: socket work totals diverged"
        );
    }
}

// Satellite regression: bytes and messages are counted once, at the
// transport boundary, so the master's accounting is identical whether the
// envelopes crossed a channel or a socket.
#[test]
fn inproc_and_socket_masters_count_the_same_messages() {
    let inst = small_instance(9);
    let cfg = small_cfg(29);
    // Engine::new(p) sizes the pool exactly p+1, so the in-process
    // broadcast reaches the same p peers the hub serves.
    let local = Engine::new(cfg.p)
        .run(&inst, Mode::CooperativeAdaptive, &cfg)
        .expect("in-process run");
    let remote = run_over_sockets(&inst, Mode::CooperativeAdaptive, &cfg, "parity");
    for counter in [
        Counter::MsgsSent,
        Counter::MsgsReceived,
        Counter::BytesSent,
        Counter::BytesReceived,
    ] {
        assert_eq!(
            local.telemetry.counter(0, counter),
            remote.telemetry.counter(0, counter),
            "master {counter:?} differs between transports"
        );
        assert!(
            local.telemetry.counter(0, counter) > 0,
            "master {counter:?} was never counted"
        );
    }
    // A clean run fences nothing and reconnects nobody.
    assert_eq!(remote.telemetry.counter(0, Counter::Reconnects), 0);
    assert_eq!(remote.telemetry.counter(0, Counter::FencedDrops), 0);
}

// Satellite regression for the search-space policies: CORE ships its
// LP-fixing to the slaves as a *seeded* cell (the slave projects the
// master-chosen start into the core and lifts elites back), and round 4
// crosses the re-identification boundary — both paths must be
// transport-invariant, not just the generic assignment plumbing.
#[test]
fn core_and_repair_policies_are_transport_invariant_across_a_refix() {
    let inst = small_instance(13);
    let cfg = RunConfig {
        p: 2,
        rounds: 5, // > REFIX_EVERY: the core is re-identified mid-run
        report_timeout: Duration::from_secs(30),
        ..RunConfig::new(50_000, 43)
    };
    for mode in [Mode::Core, Mode::Repair] {
        let local = run_mode(&inst, mode, &cfg);
        let remote = run_over_sockets(&inst, mode, &cfg, &format!("policy-{mode:?}"));
        assert_eq!(
            local.best.bits(),
            remote.best.bits(),
            "{mode:?}: socket solution diverged"
        );
        assert_eq!(
            local.round_best, remote.round_best,
            "{mode:?}: socket trajectory diverged"
        );
        assert_eq!(
            (local.total_moves, local.total_evals),
            (remote.total_moves, remote.total_evals),
            "{mode:?}: socket work totals diverged"
        );
    }
}

// A checkpoint written by the in-process pool resumes over sockets: the
// remote master admits the snapshot and runs the same `master_loop` from
// it, so the farm's transport is invisible in the result.
#[test]
fn an_inproc_checkpoint_resumes_over_sockets_bit_identically() {
    let inst = small_instance(7);
    let mut cfg = RunConfig {
        rounds: 4,
        ..small_cfg(37)
    };
    let uninterrupted = run_mode(&inst, Mode::CooperativeAdaptive, &cfg);
    let path = std::env::temp_dir().join(format!("mkp-dist-resume-{}.snap", std::process::id()));
    cfg.checkpoint = Some(CheckpointCfg {
        path: path.clone(),
        every: 2,
    });
    Engine::new(cfg.p)
        .run(&inst, Mode::CooperativeAdaptive, &cfg)
        .expect("checkpointed run");
    cfg.checkpoint = None;
    let snap = Snapshot::load(&path).expect("checkpoint on disk");
    std::fs::remove_file(&path).ok();
    assert_eq!(snap.next_round, 2);

    let ep = unix_endpoint("resume");
    let slaves: Vec<_> = (0..cfg.p)
        .map(|_| {
            let ep = ep.clone();
            std::thread::spawn(move || serve_slave(&ep, Duration::from_secs(60)))
        })
        .collect();
    let resumed = run_remote_with(&inst, snap.mode, &cfg, &ep, Some(snap), None)
        .expect("resumed distributed run");
    for slave in slaves {
        let outcome = slave.join().expect("slave thread").expect("slave serve");
        assert_eq!(outcome, ServeOutcome::Finished, "slave saw no STOP");
    }
    assert_eq!(resumed.best.bits(), uninterrupted.best.bits());
    assert_eq!(resumed.round_best, uninterrupted.round_best);
    assert_eq!(resumed.total_moves, uninterrupted.total_moves);
    assert_eq!(resumed.total_evals, uninterrupted.total_evals);
    assert_eq!(resumed.regenerations, uninterrupted.regenerations);
}

#[test]
fn remote_master_rejects_an_underpopulated_farm() {
    let inst = small_instance(5);
    let cfg = RunConfig {
        p: 2,
        slave_patience: Some(Duration::from_millis(300)),
        report_timeout: Duration::from_millis(200),
        ..small_cfg(1)
    };
    let ep = unix_endpoint("undersized");
    // One slave for a two-slot farm: the master must give up with a
    // specific complaint instead of hanging.
    let ep2 = ep.clone();
    let slave = std::thread::spawn(move || serve_slave(&ep2, Duration::from_secs(5)));
    let err = run_remote(&inst, Mode::Cooperative, &cfg, &ep).expect_err("underpopulated farm");
    let msg = err.to_string();
    assert!(msg.contains("1 of 2 slaves"), "{msg}");
    // The lone slave never got a STOP; it reports the master lost.
    let outcome = slave.join().expect("slave thread").expect("serve");
    assert_eq!(outcome, ServeOutcome::MasterLost);
}

/// A remote slave whose master sends a frame it cannot act on ends with
/// an error naming the fault (`mkp slave` exits 1), not a panic.
#[test]
fn a_slave_returns_a_malformed_frame_as_an_error() {
    let ep = unix_endpoint("malformed");
    let patience = Duration::from_secs(5);
    let hub = SocketHub::bind(&ep, 1, patience).expect("bind");
    let slave = {
        let ep = ep.clone();
        std::thread::spawn(move || serve_slave(&ep, patience))
    };
    assert_eq!(hub.wait_ready(patience), 1);
    hub.send_bytes(1, tags::PROBLEM, vec![1, 2, 3])
        .expect("send");
    let err = slave
        .join()
        .expect("the slave must not panic")
        .expect_err("a malformed PROBLEM ends the slave");
    assert!(err.contains("undecodable PROBLEM"), "{err}");
}
