//! The policy conformance battery: every engine policy — the paper's five
//! trajectory modes, DTS, and the two promising-search-space policies
//! (CORE, REPAIR) — must uphold the same contracts:
//!
//! 1. **Determinism** — identical seeded runs are bit-identical, down to
//!    the metrics JSON.
//! 2. **Transport parity** — the Unix-socket farm reproduces the
//!    in-process pool exactly.
//! 3. **Fault tolerance** — a mid-run worker kill with a restart budget
//!    heals with zero losses, and healing itself is deterministic.
//! 4. **Resume** — for the checkpointable (multi-round) policies,
//!    interrupt-then-resume is bit-identical to the uninterrupted run.
//!
//! The battery iterates `Mode::all()`, so a future ninth policy is
//! conscripted automatically — and the count assertion below makes sure
//! nobody shrinks the roster without updating the contracts.

use pts_mkp::parallel_tabu::{run_remote, serve_slave, Endpoint, ServeOutcome};
use pts_mkp::prelude::*;
use std::time::Duration;

fn battery_instance() -> Instance {
    gk_instance(
        "battery",
        GkSpec {
            n: 40,
            m: 5,
            tightness: 0.5,
            seed: 61,
        },
    )
}

fn battery_cfg(seed: u64) -> RunConfig {
    RunConfig {
        p: 4,
        rounds: 4,
        report_timeout: Duration::from_secs(30),
        ..RunConfig::new(80_000, seed)
    }
}

/// The policies whose runs can be checkpointed and resumed: more than one
/// round, so there is a mid-run state to save. The pipelined ATS drains
/// to the round boundary first.
fn resumable(mode: Mode) -> bool {
    matches!(
        mode,
        Mode::Cooperative
            | Mode::CooperativeAdaptive
            | Mode::Asynchronous
            | Mode::Core
            | Mode::Repair
    )
}

fn unix_endpoint(tag: &str) -> Endpoint {
    Endpoint::parse(&format!(
        "unix:{}",
        std::env::temp_dir()
            .join(format!("mkp-battery-{tag}-{}.sock", std::process::id()))
            .display()
    ))
    .expect("valid endpoint")
}

fn run_over_sockets(inst: &Instance, mode: Mode, cfg: &RunConfig, tag: &str) -> ModeReport {
    let ep = unix_endpoint(tag);
    let patience = Duration::from_secs(60);
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
fn the_battery_covers_all_eight_policies() {
    assert_eq!(
        Mode::all().len(),
        8,
        "policy roster changed: extend the battery's contracts to the new policy"
    );
    assert!(Mode::all().contains(&Mode::Core));
    assert!(Mode::all().contains(&Mode::Repair));
}

#[test]
fn every_policy_is_deterministic_down_to_the_metrics() {
    let inst = battery_instance();
    for mode in Mode::all() {
        let cfg = battery_cfg(71);
        let a = run_mode(&inst, mode, &cfg);
        let b = run_mode(&inst, mode, &cfg);
        assert!(a.best.is_feasible(&inst), "{mode:?} infeasible");
        assert!(a.best.value() > 0, "{mode:?} found nothing");
        assert_eq!(a.best.bits(), b.best.bits(), "{mode:?} solution diverged");
        assert_eq!(a.round_best, b.round_best, "{mode:?} trajectory diverged");
        assert_eq!(
            (a.total_moves, a.total_evals, a.regenerations),
            (b.total_moves, b.total_evals, b.regenerations),
            "{mode:?} work totals diverged"
        );
        assert_eq!(
            a.telemetry.to_metrics_json(),
            b.telemetry.to_metrics_json(),
            "{mode:?} metrics diverged"
        );
    }
}

#[test]
fn every_policy_survives_the_socket_transport_bit_for_bit() {
    let inst = battery_instance();
    let cfg = RunConfig {
        p: 2,
        rounds: 2,
        report_timeout: Duration::from_secs(30),
        ..RunConfig::new(40_000, 73)
    };
    for mode in Mode::all() {
        let local = run_mode(&inst, mode, &cfg);
        let remote = run_over_sockets(&inst, mode, &cfg, &format!("{mode:?}"));
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

#[test]
fn every_policy_heals_a_killed_worker_deterministically() {
    // Worker 0 is killed as it dequeues its round-0 assignment — the one
    // fault position every policy has, including the one-round modes — and
    // the restart budget must heal it: zero losses, and two such runs are
    // bit-identical down to the metrics (resurrection is part of the
    // deterministic machine, not a lucky recovery).
    let inst = battery_instance();
    for mode in Mode::all() {
        let run = || {
            let cfg = RunConfig {
                report_timeout: Duration::from_millis(1500),
                max_restarts: 2,
                restart_backoff: Duration::from_millis(10),
                ..battery_cfg(79)
            };
            let mut engine = Engine::new(cfg.p);
            engine.inject_fault(fault_at_round(0, 0, FaultAction::Kill));
            engine.run(&inst, mode, &cfg).expect("faulty run finishes")
        };
        let a = run();
        let b = run();
        assert!(a.best.is_feasible(&inst), "{mode:?} infeasible");
        assert!(
            a.lost_workers.is_empty(),
            "{mode:?} failed to heal: {:?}",
            a.lost_workers
        );
        assert!(
            !a.resurrections.is_empty(),
            "{mode:?} recorded no resurrection — the fault never fired"
        );
        assert_eq!(a.best.bits(), b.best.bits(), "{mode:?} healing diverged");
        assert_eq!(a.round_best, b.round_best, "{mode:?} trajectory diverged");
        assert_eq!(a.resurrections, b.resurrections, "{mode:?}");
        assert_eq!(
            a.telemetry.to_metrics_json(),
            b.telemetry.to_metrics_json(),
            "{mode:?} metrics diverged under healing"
        );
    }
}

#[test]
fn resumable_policies_resume_bit_identically() {
    let inst = battery_instance();
    let dir = std::env::temp_dir().join(format!("mkp_battery_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for mode in Mode::all().into_iter().filter(|&m| resumable(m)) {
        let path = dir.join(format!("{mode:?}.snap"));
        let mut cfg = battery_cfg(83);
        let mut engine = Engine::new(cfg.p);
        let uninterrupted = engine.run(&inst, mode, &cfg).unwrap();

        cfg.checkpoint = Some(CheckpointCfg {
            path: path.clone(),
            every: 2,
        });
        let checkpointed = engine.run(&inst, mode, &cfg).unwrap();
        assert_eq!(
            checkpointed.best.bits(),
            uninterrupted.best.bits(),
            "{mode:?}: checkpoint writing perturbed the search"
        );

        let snap = Snapshot::load(&path).unwrap();
        assert_eq!(snap.next_round, 2, "{mode:?} snapshot at the wrong round");
        cfg.checkpoint = None;
        let resumed = engine.resume(&inst, snap, &cfg).unwrap();

        assert_eq!(resumed.best.value(), uninterrupted.best.value(), "{mode:?}");
        assert_eq!(resumed.best.bits(), uninterrupted.best.bits(), "{mode:?}");
        assert_eq!(resumed.round_best, uninterrupted.round_best, "{mode:?}");
        assert_eq!(resumed.total_moves, uninterrupted.total_moves, "{mode:?}");
        assert_eq!(resumed.total_evals, uninterrupted.total_evals, "{mode:?}");
        assert_eq!(
            resumed.regenerations, uninterrupted.regenerations,
            "{mode:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn core_policy_beats_or_matches_its_own_greedy_start() {
    // Not a conformance clause but a sanity floor for the tentpole: the
    // LP-core policy must never end below the deterministic greedy value
    // it could have had for free.
    let inst = battery_instance();
    let greedy_value = greedy(&inst, &Ratios::new(&inst)).value();
    for mode in [Mode::Core, Mode::Repair] {
        let r = run_mode(&inst, mode, &battery_cfg(89));
        assert!(
            r.best.value() >= greedy_value,
            "{mode:?} ended at {} below greedy {greedy_value}",
            r.best.value()
        );
    }
}

#[test]
fn large_class_outputs_are_pinned_across_versions() {
    // Every other test here compares two runs of one build, so none of
    // them would notice a change in the greedy's choices or the simplex's
    // pivot path. These values were recorded before the master's
    // construction and LP were optimised; the optimisations must keep
    // them exactly. n·m = 10,000 puts the ISP restarts on the lazy greedy.
    // The REPAIR and DTS rows were recorded before their constructions
    // stopped building evaluation views: they hold the perturbed
    // rankings' rng draws and the DTS split.
    let inst = large_instance(
        "pinned",
        LargeSpec {
            n: 1000,
            m: 10,
            tightness: 0.5,
            correlation: 0.8,
            seed: 12,
        },
    );
    let cfg = RunConfig {
        p: 2,
        rounds: 8,
        report_timeout: Duration::from_secs(60),
        ..RunConfig::new(480_000, 3)
    };
    let expected = [
        (
            Mode::CooperativeAdaptive,
            392_261,
            492_793,
            &[
                392_043, 392_043, 392_043, 392_043, 392_261, 392_261, 392_261, 392_261,
            ][..],
        ),
        (
            Mode::Core,
            392_261,
            490_702,
            &[
                392_043, 392_043, 392_043, 392_043, 392_261, 392_261, 392_261, 392_261,
            ],
        ),
        (Mode::Repair, 383_932, 486_737, &[383_932; 8]),
        (Mode::Decomposed, 392_227, 4_456_210, &[392_227]),
    ];
    for (mode, best, total_evals, round_best) in expected {
        let r = run_mode(&inst, mode, &cfg);
        assert_eq!(r.best.value(), best, "{mode:?}: best value");
        assert_eq!(r.total_evals, total_evals, "{mode:?}: total evals");
        assert_eq!(r.round_best, round_best, "{mode:?}: round bests");
    }
}
