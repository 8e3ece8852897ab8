//! Integration tests of the pvm-lite transport under the real protocol
//! messages, including scale and failure injection.

use mkp::generate::{gk_instance, GkSpec};
use mkp::{BitVec, Solution};
use parallel_tabu::messages::{tags, AssignMsg, ProblemMsg, ReportMsg};
use parallel_tabu::{run_mode, Mode, RunConfig};
use pvm_lite::{run_farm, CommError, FarmError, Wire};
use std::time::Duration;

const T: Duration = Duration::from_secs(10);

#[test]
fn problem_broadcast_survives_large_instances() {
    // A 25×500 instance crosses the codec intact.
    let inst = gk_instance(
        "wire",
        GkSpec {
            n: 500,
            m: 25,
            tightness: 0.5,
            seed: 1,
        },
    );
    let msg = ProblemMsg::from_instance(&inst);
    let bytes = msg.to_bytes();
    assert!(bytes.len() > 500 * 25 * 8, "suspiciously small encoding");
    let back = ProblemMsg::from_bytes(&bytes).unwrap().into_instance();
    assert_eq!(back.profits(), inst.profits());
    for i in 0..inst.m() {
        assert_eq!(back.constraint_row(i), inst.constraint_row(i));
    }
}

#[test]
fn full_master_slave_exchange_over_the_farm() {
    // A miniature hand-rolled master/slave round over raw pvm-lite,
    // independent of the production driver: proves the protocol types are
    // sufficient on their own.
    let inst = gk_instance(
        "mini",
        GkSpec {
            n: 40,
            m: 4,
            tightness: 0.5,
            seed: 2,
        },
    );
    let p = 3;
    let results = run_farm(p + 1, move |ctx| {
        if ctx.tid() == 0 {
            let problem = ProblemMsg::from_instance(&inst);
            for s in 1..=p {
                ctx.send(s, tags::PROBLEM, &problem).unwrap();
                let assign = AssignMsg::trajectory(
                    BitVec::zeros(inst.n()),
                    mkp_tabu::Strategy::default_for(inst.n()),
                    20_000,
                    s as u64,
                );
                ctx.send(s, tags::ASSIGN, &assign).unwrap();
            }
            let mut best = 0i64;
            for _ in 0..p {
                let env = ctx.recv_timeout(T).unwrap();
                assert_eq!(env.tag, tags::REPORT);
                let report: ReportMsg = env.decode().unwrap();
                // Verify the reported solution against the real instance.
                let sol = report.best_solution(&inst);
                assert!(sol.is_feasible(&inst));
                best = best.max(sol.value());
            }
            for s in 1..=p {
                ctx.send_bytes(s, tags::STOP, Vec::new()).unwrap();
            }
            best
        } else {
            let problem: ProblemMsg = ctx.recv_timeout(T).unwrap().decode().unwrap();
            let local = problem.into_instance();
            let ratios = mkp::eval::Ratios::new(&local);
            let assign: AssignMsg = ctx.recv_timeout(T).unwrap().decode().unwrap();
            let mut rng = mkp::Xoshiro256::seed_from_u64(assign.seed);
            let report = mkp_tabu::search::run(
                &local,
                &ratios,
                Solution::from_bits(&local, assign.initial),
                &mkp_tabu::TsConfig::default_for(local.n()),
                mkp_tabu::Budget::evals(assign.budget_evals),
                &mut rng,
            );
            ctx.send(
                0,
                tags::REPORT,
                &ReportMsg {
                    best: report.best.bits().clone(),
                    elite: vec![],
                    initial_value: report.initial_value,
                    best_value: report.best.value(),
                    moves: report.stats.moves,
                    evals: report.stats.candidate_evals,
                    epoch: 0,
                    history_counts: vec![],
                    history_iterations: 0,
                },
            )
            .unwrap();
            let stop = ctx.recv_timeout(T).unwrap();
            assert_eq!(stop.tag, tags::STOP);
            0
        }
    })
    .unwrap();
    assert!(results[0] > 0, "master found nothing");
}

#[test]
fn many_slaves_scale() {
    // 8 slaves + master on one core: the rendezvous protocol must not
    // deadlock regardless of scheduling.
    let inst = gk_instance(
        "scale",
        GkSpec {
            n: 50,
            m: 5,
            tightness: 0.5,
            seed: 3,
        },
    );
    let cfg = RunConfig {
        p: 8,
        rounds: 3,
        ..RunConfig::new(240_000, 17)
    };
    let r = run_mode(&inst, Mode::CooperativeAdaptive, &cfg);
    assert!(r.best.is_feasible(&inst));
    assert_eq!(r.round_best.len(), 3);
}

#[test]
fn single_slave_degenerate_farm() {
    let inst = gk_instance(
        "p1",
        GkSpec {
            n: 40,
            m: 4,
            tightness: 0.5,
            seed: 4,
        },
    );
    let cfg = RunConfig {
        p: 1,
        rounds: 4,
        ..RunConfig::new(100_000, 23)
    };
    for mode in [
        Mode::Cooperative,
        Mode::CooperativeAdaptive,
        Mode::Independent,
    ] {
        let r = run_mode(&inst, mode, &cfg);
        assert!(r.best.is_feasible(&inst), "{mode:?} with P=1 failed");
    }
}

#[test]
fn slave_panic_is_contained_and_reported() {
    let err = run_farm(3, |ctx| {
        match ctx.tid() {
            0 => {
                // Master: wait for whatever arrives, tolerate silence.
                let _ = ctx.recv_timeout(Duration::from_millis(100));
            }
            1 => panic!("injected slave crash"),
            _ => {}
        }
    })
    .unwrap_err();
    let FarmError::TaskPanicked { tid, message } = err;
    assert_eq!(tid, 1);
    assert!(
        message.contains("injected slave crash"),
        "panic payload lost: {message:?}"
    );
}

#[test]
fn corrupted_report_is_rejected_not_trusted() {
    // Flip the claimed best_value in a packed report: decoding succeeds but
    // solution verification must catch the inconsistency.
    let inst = gk_instance(
        "tamper",
        GkSpec {
            n: 30,
            m: 3,
            tightness: 0.5,
            seed: 5,
        },
    );
    let ratios = mkp::eval::Ratios::new(&inst);
    let sol = mkp::greedy::greedy(&inst, &ratios);
    let msg = ReportMsg {
        best: sol.bits().clone(),
        elite: vec![],
        initial_value: 0,
        best_value: sol.value() + 100, // lie
        moves: 1,
        evals: 1,
        epoch: 0,
        history_counts: vec![],
        history_iterations: 0,
    };
    let decoded = ReportMsg::from_bytes(&msg.to_bytes()).unwrap();
    let verified = std::panic::catch_unwind(|| decoded.best_solution(&inst));
    assert!(verified.is_err(), "tampered value slipped through");
}

#[test]
fn timeout_surfaces_when_peer_never_answers() {
    let r = run_farm(2, |ctx| {
        if ctx.tid() == 0 {
            matches!(
                ctx.recv_timeout(Duration::from_millis(50)),
                Err(CommError::Timeout | CommError::Disconnected)
            )
        } else {
            true // exits immediately, never sends
        }
    })
    .unwrap();
    assert!(r[0]);
}
