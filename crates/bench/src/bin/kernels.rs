//! Microbenchmarks (M1) for the hot kernels: the move operator at several
//! instance sizes, the intensification procedures, the LP solve, the
//! master's randomized greedy construction, the ratio tables and view
//! every slave builds, the exact proof, the wire codec, and the Hamming
//! kernel the master's SGP leans on.
//!
//! Runs on the in-tree harness (`mkp_bench::harness`) — no registry
//! dependency. Usage:
//!
//! ```text
//! cargo run --release -p mkp-bench --bin kernels [-- --smoke] [--json PATH] [FILTER..]
//! ```
//!
//! Default JSON report: `results/kernels.json`.

use mkp::eval::{Ranking, Ratios};
use mkp::generate::{fp_instance, gk_instance, large_instance, GkSpec, LargeSpec};
use mkp::greedy::greedy;
use mkp::{BitVec, Xoshiro256};
use mkp_bench::harness::{black_box, Harness};
use mkp_tabu::history::History;
use mkp_tabu::intensify::{
    drop_refill_intensification, ejection_chain_intensification, swap_intensification,
};
use mkp_tabu::moves::{apply_move, MoveStats};
use mkp_tabu::oscillate::strategic_oscillation;
use mkp_tabu::tabu_list::Recency;

fn bench_moves(h: &mut Harness) {
    for &(n, m) in &[(100usize, 5usize), (250, 10), (500, 25)] {
        let inst = gk_instance(
            "b",
            GkSpec {
                n,
                m,
                tightness: 0.5,
                seed: 1,
            },
        );
        let ratios = Ratios::new(&inst);
        let mut sol = greedy(&inst, &ratios);
        let mut tabu = Recency::new(inst.n(), 15);
        let mut stats = MoveStats::default();
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mut now = 0u64;
        h.bench(&format!("apply_move {m}x{n}"), || {
            apply_move(
                &inst,
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
            black_box(sol.value())
        });
    }
}

fn bench_intensification(h: &mut Harness) {
    let inst = gk_instance(
        "b",
        GkSpec {
            n: 250,
            m: 10,
            tightness: 0.5,
            seed: 3,
        },
    );
    let ratios = Ratios::new(&inst);
    let base = greedy(&inst, &ratios);
    h.bench("swap_intensification 10x250", || {
        let mut sol = base.clone();
        swap_intensification(&inst, &ratios, &mut sol, &mut MoveStats::default());
        black_box(sol.value())
    });
    h.bench("strategic_oscillation 10x250 depth6", || {
        let mut sol = base.clone();
        strategic_oscillation(&inst, &ratios, &mut sol, 6, &mut MoveStats::default());
        black_box(sol.value())
    });
    h.bench("drop_refill 10x250", || {
        let mut sol = base.clone();
        drop_refill_intensification(&inst, &ratios, &mut sol, &mut MoveStats::default());
        black_box(sol.value())
    });
    h.bench("ejection_chain 10x250", || {
        let mut sol = base.clone();
        ejection_chain_intensification(&inst, &mut sol, &mut MoveStats::default(), 3);
        black_box(sol.value())
    });
    // The large class at 25×500: more constraints, of which an entrant
    // violates only a few, which is what the ejection step's cost follows.
    let large = large_instance(
        "b",
        LargeSpec {
            n: 500,
            m: 25,
            tightness: 0.5,
            correlation: 0.5,
            seed: 5,
        },
    );
    let large_ratios = Ratios::new(&large);
    let large_base = greedy(&large, &large_ratios);
    h.bench("ejection_chain 25x500", || {
        let mut sol = large_base.clone();
        ejection_chain_intensification(&large, &mut sol, &mut MoveStats::default(), 3);
        black_box(sol.value())
    });
    h.bench("drop_refill 25x500", || {
        let mut sol = large_base.clone();
        drop_refill_intensification(&large, &large_ratios, &mut sol, &mut MoveStats::default());
        black_box(sol.value())
    });
    // The job server's job shape: GK 5×100, where packing the chain's
    // lane columns once per call weighs most against the call.
    let job = gk_instance(
        "b",
        GkSpec {
            n: 100,
            m: 5,
            tightness: 0.5,
            seed: 3,
        },
    );
    let job_ratios = Ratios::new(&job);
    let job_base = greedy(&job, &job_ratios);
    h.bench("ejection_chain 5x100", || {
        let mut sol = job_base.clone();
        ejection_chain_intensification(&job, &mut sol, &mut MoveStats::default(), 3);
        black_box(sol.value())
    });
    h.bench("drop_refill 5x100", || {
        let mut sol = job_base.clone();
        drop_refill_intensification(&job, &job_ratios, &mut sol, &mut MoveStats::default());
        black_box(sol.value())
    });
    // L2's shape class at 50×1000 (tightness 0.25; the golden `wide`
    // instance of the intensification pins): 13 lane words per item, and
    // refills whose first pass the weight-level index narrows.
    let wide = large_instance(
        "w",
        LargeSpec {
            n: 1000,
            m: 50,
            tightness: 0.25,
            correlation: 0.5,
            seed: 12,
        },
    );
    let wide_base = greedy(&wide, &Ranking::new(&wide));
    h.bench("ejection_chain 50x1000", || {
        let mut sol = wide_base.clone();
        ejection_chain_intensification(&wide, &mut sol, &mut MoveStats::default(), 3);
        black_box(sol.value())
    });
}

fn bench_ratios(h: &mut Harness) {
    // What every slave builds per problem, CORE per assignment and
    // relinking once per slice, at L2's size: the ratio tables and the
    // view, whose 100 drop rankings of 2,500 items dominate.
    let l2 = large_instance(
        "b",
        LargeSpec {
            n: 2500,
            m: 100,
            tightness: 0.25,
            correlation: 0.5,
            seed: 12,
        },
    );
    h.bench("ratios_new 100x2500", || {
        black_box(Ratios::new(&l2).by_utility_desc()[0])
    });
}

fn bench_lp(h: &mut Harness) {
    for &(n, m) in &[(100usize, 5usize), (250, 25), (500, 25)] {
        let inst = gk_instance(
            "b",
            GkSpec {
                n,
                m,
                tightness: 0.5,
                seed: 4,
            },
        );
        h.bench(&format!("lp_relaxation {m}x{n}"), || {
            black_box(mkp_exact::bounds::lp_bound(&inst).unwrap().objective)
        });
    }
    // The ledger's L2, whose LP the CORE policy solves on `large-core`:
    // about 60 of its 100 duals are nonzero at a pricing, so the
    // four-row pricing blocks carry the solve.
    let l2 = large_instance(
        "b",
        LargeSpec {
            n: 2500,
            m: 100,
            tightness: 0.25,
            correlation: 0.5,
            seed: 12,
        },
    );
    h.bench("lp_relaxation 100x2500", || {
        black_box(mkp_exact::bounds::lp_bound(&l2).unwrap().objective)
    });
}

fn bench_exact(h: &mut Harness) {
    let inst = fp_instance(20); // mid-size WEISH-like
    h.bench("branch_bound fp21", || {
        let r = mkp_exact::solve(&inst, &mkp_exact::BbConfig::default());
        black_box(r.solution.value())
    });
}

fn bench_codec(h: &mut Harness) {
    use parallel_tabu::messages::ReportMsg;
    use pvm_lite::Wire;
    let bits = BitVec::from_bools((0..500).map(|j| j % 3 == 0));
    let msg = ReportMsg {
        best: bits.clone(),
        elite: vec![bits.clone(); 8],
        initial_value: 1,
        best_value: 2,
        moves: 3,
        evals: 4,
        epoch: 0,
        history_counts: vec![7; 500],
        history_iterations: 1000,
    };
    h.bench("codec report 500-bit x9", || {
        let bytes = msg.to_bytes();
        black_box(ReportMsg::from_bytes(&bytes).unwrap().best_value)
    });
}

fn bench_hamming(h: &mut Harness) {
    let a = BitVec::from_bools((0..500).map(|j| j % 3 == 0));
    let b = BitVec::from_bools((0..500).map(|j| j % 5 == 0));
    h.bench("hamming 500 bits", || black_box(a.hamming(&b)));
}

fn bench_greedy(h: &mut Harness) {
    let inst = gk_instance(
        "b",
        GkSpec {
            n: 500,
            m: 25,
            tightness: 0.5,
            seed: 5,
        },
    );
    let ranking = Ranking::new(&inst);
    h.bench("greedy 25x500", || {
        black_box(greedy(&inst, &ranking).value())
    });
}

fn bench_history(h: &mut Harness) {
    let inst = gk_instance(
        "b",
        GkSpec {
            n: 500,
            m: 25,
            tightness: 0.5,
            seed: 6,
        },
    );
    let sol = greedy(&inst, &Ranking::new(&inst));
    let mut hist = History::new(inst.n());
    h.bench("history record 25x500", || {
        hist.record(&sol);
        black_box(hist.iterations())
    });
}

fn bench_soa(h: &mut Harness) {
    use mkp::soa::ResidualLanes;
    use mkp::Solution;
    use mkp_tabu::moves::select_drop;
    for &(n, m) in &[(100usize, 5usize), (250, 10), (500, 25)] {
        let inst = gk_instance(
            "b",
            GkSpec {
                n,
                m,
                tightness: 0.5,
                seed: 1,
            },
        );
        let ratios = Ratios::new(&inst);
        let sol = greedy(&inst, &ratios);
        let view = ratios.view();
        let mut lanes = ResidualLanes::new();
        lanes.sync(view.lanes(), &inst, &sol);
        // Throughput of the SWAR fits predicate across every item (the
        // scalar equivalent is Solution::fits in a loop).
        h.bench(&format!("lane_fits_scan {m}x{n}"), || {
            let mut hits = 0usize;
            for j in 0..inst.n() {
                hits += lanes.fits(view.lanes(), &inst, &sol, j) as usize;
            }
            black_box(hits)
        });
        h.bench(&format!("scalar_fits_scan {m}x{n}"), || {
            let mut hits = 0usize;
            for j in 0..inst.n() {
                hits += sol.fits(&inst, j) as usize;
            }
            black_box(hits)
        });
        let mut tabu = Recency::new(inst.n(), 15);
        let mut rng = Xoshiro256::seed_from_u64(3);
        h.bench(&format!("select_drop {m}x{n}"), || {
            let mut stats = MoveStats::default();
            black_box(select_drop(
                &inst, &ratios, &sol, &mut tabu, 0, 0, 0.1, &mut rng, &mut stats,
            ))
        });
        let mut add_sol = Solution::empty(&inst);
        let mut add_tabu = Recency::new(inst.n(), 15);
        let mut add_rng = Xoshiro256::seed_from_u64(4);
        let mut add_stats = MoveStats::default();
        let mut now = 0u64;
        // nb_drop = 0 isolates the Add phase (plus fingerprint/observe).
        h.bench(&format!("add_phase {m}x{n}"), || {
            apply_move(
                &inst,
                &ratios,
                &mut add_sol,
                &mut add_tabu,
                now,
                0,
                i64::MAX,
                0.1,
                &mut add_rng,
                &mut add_stats,
            );
            now += 1;
            black_box(add_sol.value())
        });
    }
}

fn bench_neighborhood(h: &mut Harness) {
    use mkp_tabu::neighborhood::best_of_k_move;
    let inst = gk_instance(
        "b",
        GkSpec {
            n: 250,
            m: 10,
            tightness: 0.5,
            seed: 7,
        },
    );
    let ratios = Ratios::new(&inst);
    for width in [2usize, 4] {
        let mut sol = greedy(&inst, &ratios);
        let mut tabu = Recency::new(inst.n(), 15);
        let mut stats = MoveStats::default();
        let mut rng = Xoshiro256::seed_from_u64(8);
        let mut now = 0u64;
        h.bench(&format!("best_of_{width}_move 10x250"), || {
            best_of_k_move(
                &inst,
                &ratios,
                &mut sol,
                &mut tabu,
                now,
                2,
                i64::MAX,
                0.1,
                width,
                false,
                &mut rng,
                &mut stats,
            );
            now += 1;
            black_box(sol.value())
        });
    }
}

fn bench_rem(h: &mut Harness) {
    use mkp_tabu::rem::ReverseElimination;
    use mkp_tabu::tabu_list::TabuMemory;
    // Cost of the backward RCS walk as the running list grows — the
    // overhead the paper cites for rejecting REM (§4.1).
    for depth in [100usize, 1000] {
        let mut rem = ReverseElimination::new(500, depth);
        // Preload a long history of 3-toggle moves.
        for t in 0..depth as u64 {
            rem.observe_solution(
                t,
                &[
                    (t as usize * 7) % 500,
                    (t as usize * 13) % 500,
                    (t as usize * 29) % 500,
                ],
                t,
            );
        }
        let mut t = depth as u64;
        h.bench(&format!("rem recompute depth={depth}"), || {
            rem.observe_solution(t, &[(t as usize * 7) % 500], t);
            t += 1;
            black_box(rem.is_tabu(3, t))
        });
    }
}

fn bench_dynamic_greedy(h: &mut Harness) {
    use mkp::greedy::DynamicFill;
    use mkp::soa::LaneColumns;
    use mkp::Solution;
    let inst = gk_instance(
        "b",
        GkSpec {
            n: 250,
            m: 10,
            tightness: 0.5,
            seed: 9,
        },
    );
    h.bench("dynamic_greedy_fill 10x250", || {
        // The fill packs its own lane columns on every call: the work
        // this bench's baseline entry measures.
        let mut sol = Solution::empty(&inst);
        DynamicFill::new(&inst).run(&inst, &LaneColumns::new(&inst), &mut sol, None);
        black_box(sol.value())
    });
}

fn bench_dynamic_randomized_greedy(h: &mut Harness) {
    use mkp::greedy::dynamic_randomized_greedy;
    // The master's ISP construction: 5×100 is the job server's job shape
    // (a scan-sized instance), 25×500 a lazily selected one.
    for &(n, m) in &[(100usize, 5usize), (500, 25)] {
        let inst = gk_instance(
            "b",
            GkSpec {
                n,
                m,
                tightness: 0.5,
                seed: 9,
            },
        );
        let mut rng = Xoshiro256::seed_from_u64(11);
        h.bench(&format!("dynamic_randomized_greedy {m}x{n}"), || {
            black_box(dynamic_randomized_greedy(&inst, &mut rng, 4).value())
        });
    }
}

fn bench_restriction(h: &mut Harness) {
    use mkp::restrict::Restriction;
    let inst = gk_instance(
        "b",
        GkSpec {
            n: 500,
            m: 25,
            tightness: 0.5,
            seed: 10,
        },
    );
    let split: Vec<usize> = Ranking::new(&inst).by_utility_desc()[100..104].to_vec();
    h.bench("restriction build+lift 25x500", || {
        let r = Restriction::new(&inst, &split[..2], &split[2..]).unwrap();
        let sub_sol = greedy(r.instance(), &Ratios::new(r.instance()));
        black_box(r.lift(&inst, &sub_sol).value())
    });
}

fn bench_telemetry(h: &mut Harness) {
    use parallel_tabu::{Counter, EventKind, SpanKind, Telemetry};
    // The three telemetry hot paths as seen by a slave's inner loop: a
    // counter bump, a timed span open/close, and an event-ring push. Their
    // cost bounds the per-iteration overhead the engine can possibly add.
    let tel = Telemetry::new(4);
    h.bench("telemetry counter add", || {
        tel.add(1, Counter::MovesExecuted, 1);
        black_box(tel.counter(1, Counter::MovesExecuted))
    });
    h.bench("telemetry span open/close", || {
        black_box(tel.span(1, SpanKind::TsInner));
        0u64
    });
    h.bench("telemetry event push", || {
        tel.event(1, EventKind::NewIncumbent, 0, 1);
        0u64
    });
}

fn bench_transport(h: &mut Harness) {
    use pvm_lite::{read_frame, write_frame};
    use std::io::{Cursor, Read, Write};
    use std::os::unix::net::UnixStream;

    // Frame codec alone: one mid-sized report-like payload through the
    // length-prefixed framer and back, no socket underneath.
    let payload: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
    let mut wire = Vec::with_capacity(payload.len() + 64);
    h.bench("frame encode+decode 4KiB", || {
        wire.clear();
        write_frame(&mut wire, 3, 7, &payload).unwrap();
        let env = read_frame(&mut Cursor::new(&wire)).unwrap().unwrap();
        black_box(env.data.len())
    });

    // Loopback round-trip: a framed ping over a Unix socketpair against an
    // echo thread — the floor for a master↔slave exchange on one box.
    let (mut ours, mut theirs) = UnixStream::pair().expect("socketpair");
    let echo = std::thread::spawn(move || {
        let mut buf = [0u8; 256];
        loop {
            match theirs.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => {
                    if theirs.write_all(&buf[..n]).is_err() {
                        return;
                    }
                }
            }
        }
    });
    let ping: Vec<u8> = (0..64u8).collect();
    let mut buf = vec![0u8; ping.len()];
    h.bench("socket loopback round-trip 64B", || {
        ours.write_all(&ping).unwrap();
        ours.read_exact(&mut buf).unwrap();
        black_box(buf[0])
    });
    drop(ours);
    let _ = echo.join();
}

fn main() {
    let mut h = Harness::from_args();
    // Smoke mode runs the whole suite several times, merging samples per
    // bench (see Harness::suite_passes) so the bench-diff gate compares
    // medians that mix independent noise-regime draws.
    for _ in 0..h.suite_passes() {
        bench_moves(&mut h);
        bench_soa(&mut h);
        bench_intensification(&mut h);
        bench_lp(&mut h);
        bench_exact(&mut h);
        bench_codec(&mut h);
        bench_hamming(&mut h);
        bench_greedy(&mut h);
        bench_history(&mut h);
        bench_neighborhood(&mut h);
        bench_rem(&mut h);
        bench_dynamic_greedy(&mut h);
        bench_dynamic_randomized_greedy(&mut h);
        bench_restriction(&mut h);
        bench_ratios(&mut h);
        bench_telemetry(&mut h);
        bench_transport(&mut h);
    }
    h.finish();
}
