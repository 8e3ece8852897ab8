//! Quickstart: generate a benchmark instance, run the paper's cooperative
//! parallel tabu search (CTS2), and sanity-check the answer against the LP
//! bound and the exact solver.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pts_mkp::prelude::*;

fn main() {
    // A correlated Glover–Kochenberger-style instance: 100 items, 5
    // knapsack constraints, capacities at 50% of total weight.
    let inst = gk_instance(
        "quickstart_5x100",
        GkSpec {
            n: 100,
            m: 5,
            tightness: 0.5,
            seed: 42,
        },
    );
    println!(
        "instance {}: {} items, {} constraints",
        inst.name(),
        inst.n(),
        inst.m()
    );

    // A baseline everyone understands: the ratio greedy.
    let g = greedy(&inst, &Ranking::new(&inst));
    println!("greedy value        : {}", g.value());

    // The paper's method: 4 cooperative slaves, dynamically retuned by the
    // master (mode CTS2), under a fixed total work budget.
    let cfg = RunConfig {
        p: 4,
        rounds: 8,
        ..RunConfig::new(4_000_000, 7)
    };
    let report = run_mode(&inst, Mode::CooperativeAdaptive, &cfg);
    println!(
        "parallel tabu (CTS2): {}   [{} moves, {} strategy regenerations, {:?}]",
        report.best.value(),
        report.total_moves,
        report.regenerations,
        report.wall
    );
    assert!(report.best.is_feasible(&inst));

    // Upper bound from the LP relaxation …
    let lp = mkp_exact::bounds::lp_bound(&inst).expect("LP solvable");
    println!("LP relaxation bound : {:.1}", lp.objective);

    // … and the certified optimum (warm-started by the heuristic solution).
    let exact = solve_with_incumbent(&inst, &BbConfig::default(), Some(&report.best));
    println!(
        "exact optimum       : {} ({} B&B nodes, proven = {})",
        exact.solution.value(),
        exact.nodes,
        exact.proven
    );
    let gap = 100.0 * (exact.solution.value() - report.best.value()) as f64
        / exact.solution.value() as f64;
    println!("heuristic gap       : {gap:.3}%");
}
