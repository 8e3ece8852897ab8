//! The sequential tabu-search engine (paper Fig. 1).
//!
//! One run is the slave-side procedure: nested diversification ×
//! intensification rounds around a stagnation-bounded local-search loop of
//! Drop/Add moves. Work is accounted in *candidate evaluations*
//! ([`MoveStats::candidate_evals`]), the machine-independent budget unit all
//! experiments share (DESIGN.md §4).

use crate::diversify::{diversify, DiversifyParams};
use crate::elite::ElitePool;
use crate::history::History;
use crate::intensify::{
    drop_refill_intensification, ejection_chain_over, lateral_swap_fill, swap_intensification,
};
use crate::moves::{apply_move, MoveStats};
use crate::neighborhood::{best_of_k_move_in, MoveSelection, NeighborhoodScratch};
use crate::oscillate::strategic_oscillation;
use crate::strategy::Strategy;
use crate::tabu_list::{Recency, TabuMemory};
use mkp::eval::Ratios;
use mkp::greedy::{greedy_fill, project_feasible};
use mkp::{Instance, Solution, Xoshiro256};

/// Full configuration of one tabu-search run.
#[derive(Debug, Clone)]
pub struct TsConfig {
    /// The tunable triple (tenure, nb_drop, nb_local).
    pub strategy: Strategy,
    /// Outer diversification rounds (`Nb_div`).
    pub nb_div: usize,
    /// Intensification rounds per diversification (`Nb_int`).
    pub nb_int: usize,
    /// Elite pool size (`B`).
    pub b_best: usize,
    /// Strategic-oscillation excursion depth.
    pub osc_depth: usize,
    /// Diversification thresholds.
    pub diversify: DiversifyParams,
    /// Probability that a move's candidate choice falls on one of the top
    /// [`crate::moves::RCL_WIDTH`] candidates instead of the single best.
    /// Zero makes the engine fully deterministic; a small value decorrelates
    /// parallel threads restarting from shared solutions.
    pub noise: f64,
    /// Constructive single move (default) or width-K neighborhood
    /// examination (paper §2 parallelism source 2; see
    /// [`crate::neighborhood`]).
    pub move_selection: MoveSelection,
}

impl TsConfig {
    /// Defaults scaled to an instance with `n` items.
    pub fn default_for(n: usize) -> Self {
        TsConfig {
            strategy: Strategy::default_for(n),
            nb_div: 1_000_000, // effectively "until budget"
            nb_int: 4,
            b_best: 8,
            osc_depth: (n / 40).max(3),
            diversify: DiversifyParams::default(),
            noise: 0.1,
            move_selection: MoveSelection::Constructive,
        }
    }
}

/// Work budget: the run stops once this many candidate evaluations are
/// spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Candidate-evaluation cap.
    pub max_evals: u64,
}

impl Budget {
    /// Budget of `max_evals` candidate evaluations.
    pub fn evals(max_evals: u64) -> Self {
        Budget { max_evals }
    }
}

/// Outcome of one run.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Best solution found.
    pub best: Solution,
    /// The B best distinct solutions, best first.
    pub elite: Vec<Solution>,
    /// Work counters.
    pub stats: MoveStats,
    /// Objective value of the (repaired) initial solution.
    pub initial_value: i64,
    /// True when the run ended because the budget ran out (as opposed to
    /// completing all `nb_div` rounds).
    pub budget_exhausted: bool,
}

impl SearchReport {
    /// Did the run improve on its starting solution? (The master's SGP
    /// scores slaves by exactly this predicate.)
    pub fn improved(&self) -> bool {
        self.best.value() > self.initial_value
    }
}

/// Run the tabu search with the paper's recency memory and a fresh
/// long-term memory.
pub fn run(
    inst: &Instance,
    ratios: &Ratios,
    initial: Solution,
    config: &TsConfig,
    budget: Budget,
    rng: &mut Xoshiro256,
) -> SearchReport {
    let mut memory = Recency::new(inst.n(), config.strategy.tabu_tenure);
    let mut history = History::new(inst.n());
    run_with_memory(
        inst,
        ratios,
        initial,
        config,
        budget,
        rng,
        &mut memory,
        &mut history,
    )
}

/// Run the tabu search with caller-supplied memories.
///
/// The tabu memory is generic so ablation A1 can swap in REM / reactive
/// variants; the long-term `history` is external so a slave serving many
/// master rounds *accumulates* residency counts across them — its
/// diversification then targets regions unvisited in the whole session, not
/// just the current round (a fresh history every round makes rounds retrace
/// each other and the cooperative curves go flat).
#[allow(clippy::too_many_arguments)]
pub fn run_with_memory<M: TabuMemory + Clone + Send + Sync>(
    inst: &Instance,
    ratios: &Ratios,
    initial: Solution,
    config: &TsConfig,
    budget: Budget,
    rng: &mut Xoshiro256,
    memory: &mut M,
    history: &mut History,
) -> SearchReport {
    assert_eq!(
        history.len(),
        inst.n(),
        "history sized for another instance"
    );
    memory.set_tenure(config.strategy.tabu_tenure);

    // Repair + saturate the start so the search begins on the boundary.
    let mut x = initial;
    project_feasible(inst, ratios, &mut x);
    greedy_fill(inst, ratios, &mut x);
    let initial_value = x.value();

    let mut best = x.clone();
    let mut elite = ElitePool::new(config.b_best);
    elite.offer(&best);
    let mut stats = MoveStats::default();
    let mut now: u64 = 0;
    let mut exhausted = false;
    // Engine-lifetime scratch for the best-of-K scan: slot solutions,
    // memories, and the first-drop list live across moves so the
    // steady-state path never allocates.
    let mut scratch: NeighborhoodScratch<M> = NeighborhoodScratch::new();

    'outer: for _div in 0..config.nb_div {
        for _int in 0..config.nb_int {
            // --- Local search loop (Fig. 1 steps 4–10) ---
            let mut x_local = x.clone();
            let mut since_improve = 0usize;
            while since_improve < config.strategy.nb_local {
                match config.move_selection {
                    MoveSelection::Constructive => {
                        apply_move(
                            inst,
                            ratios,
                            &mut x,
                            memory,
                            now,
                            config.strategy.nb_drop,
                            best.value(),
                            config.noise,
                            rng,
                            &mut stats,
                        );
                    }
                    MoveSelection::BestOfK { width, parallel } => {
                        best_of_k_move_in(
                            inst,
                            ratios,
                            &mut x,
                            memory,
                            now,
                            config.strategy.nb_drop,
                            best.value(),
                            config.noise,
                            width,
                            parallel,
                            rng,
                            &mut stats,
                            &mut scratch,
                        );
                    }
                }
                now += 1;
                history.record(&x);
                if x.value() > best.value() {
                    best = x.clone();
                    since_improve = 0;
                } else {
                    since_improve += 1;
                }
                if x.value() > x_local.value() {
                    x_local = x.clone();
                }
                elite.offer(&x);
                if stats.candidate_evals >= budget.max_evals {
                    exhausted = true;
                    break 'outer;
                }
            }

            // --- Intensification (Fig. 1 step 11): swaps, then oscillation ---
            swap_intensification(inst, ratios, &mut x_local, &mut stats);
            lateral_swap_fill(inst, ratios, &mut x_local, &mut stats);
            drop_refill_intensification(inst, ratios, &mut x_local, &mut stats);
            ejection_chain_over(inst, ratios.view().lanes(), &mut x_local, &mut stats, 3);
            strategic_oscillation(inst, ratios, &mut x_local, config.osc_depth, &mut stats);
            if x_local.value() > best.value() {
                best = x_local.clone();
            }
            elite.offer(&x_local);
            x = x_local; // continue from the intensified point
            if stats.candidate_evals >= budget.max_evals {
                exhausted = true;
                break 'outer;
            }
        }

        // --- Diversification (Fig. 1 step 12) ---
        let (next, _forced) = diversify(inst, ratios, history, &x, &config.diversify, memory, now);
        x = next;
        elite.offer(&x);
        if x.value() > best.value() {
            best = x.clone();
        }
    }

    debug_assert!(best.is_feasible(inst));
    SearchReport {
        best,
        elite: elite.solutions().to_vec(),
        stats,
        initial_value,
        budget_exhausted: exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkp::generate::{fp_instance, gk_instance, uncorrelated_instance, GkSpec};
    use mkp::greedy::{greedy, random_feasible};

    fn run_default(inst: &Instance, seed: u64, evals: u64) -> SearchReport {
        let ratios = Ratios::new(inst);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let init = random_feasible(inst, &mut rng);
        run(
            inst,
            &ratios,
            init,
            &TsConfig::default_for(inst.n()),
            Budget::evals(evals),
            &mut rng,
        )
    }

    #[test]
    fn best_is_feasible_and_consistent() {
        for seed in 0..5 {
            let inst = uncorrelated_instance("t", 40, 4, 0.5, seed);
            let report = run_default(&inst, seed, 50_000);
            assert!(report.best.is_feasible(&inst));
            assert!(report.best.check_consistent(&inst));
        }
    }

    #[test]
    fn beats_or_matches_greedy() {
        for seed in 0..5 {
            let inst = gk_instance(
                "g",
                GkSpec {
                    n: 80,
                    m: 5,
                    tightness: 0.5,
                    seed,
                },
            );
            let ratios = Ratios::new(&inst);
            let g = greedy(&inst, &ratios);
            let report = run_default(&inst, seed, 200_000);
            assert!(
                report.best.value() >= g.value(),
                "seed {seed}: TS {} < greedy {}",
                report.best.value(),
                g.value()
            );
        }
    }

    #[test]
    fn respects_budget() {
        let inst = gk_instance(
            "b",
            GkSpec {
                n: 100,
                m: 5,
                tightness: 0.5,
                seed: 1,
            },
        );
        let report = run_default(&inst, 1, 10_000);
        assert!(report.budget_exhausted);
        // Budget may overshoot by at most one move's worth of evaluations.
        assert!(report.stats.candidate_evals < 10_000 + 2 * inst.n() as u64 + 64);
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = gk_instance(
            "d",
            GkSpec {
                n: 60,
                m: 5,
                tightness: 0.5,
                seed: 2,
            },
        );
        let a = run_default(&inst, 7, 30_000);
        let b = run_default(&inst, 7, 30_000);
        assert_eq!(a.best.bits(), b.best.bits());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn elite_pool_is_sorted_and_bounded() {
        let inst = gk_instance(
            "e",
            GkSpec {
                n: 60,
                m: 5,
                tightness: 0.5,
                seed: 3,
            },
        );
        let report = run_default(&inst, 3, 100_000);
        assert!(!report.elite.is_empty());
        assert!(report.elite.len() <= TsConfig::default_for(inst.n()).b_best);
        for w in report.elite.windows(2) {
            assert!(w[0].value() >= w[1].value());
        }
        assert_eq!(report.elite[0].value(), report.best.value());
    }

    #[test]
    fn external_history_accumulates_across_runs() {
        let inst = uncorrelated_instance("h", 30, 3, 0.5, 4);
        let ratios = Ratios::new(&inst);
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mut memory = crate::tabu_list::Recency::new(inst.n(), 5);
        let mut history = History::new(inst.n());
        let config = TsConfig::default_for(inst.n());
        let mut total_moves = 0;
        for _round in 0..3 {
            let init = random_feasible(&inst, &mut rng);
            let report = run_with_memory(
                &inst,
                &ratios,
                init,
                &config,
                Budget::evals(10_000),
                &mut rng,
                &mut memory,
                &mut history,
            );
            total_moves += report.stats.moves;
            // Every local-search move records history; oscillation episodes
            // count as moves without a history record, hence ≤.
            assert!(history.iterations() <= total_moves);
        }
        assert!(history.iterations() > 0, "history never recorded");
    }

    #[test]
    fn improved_flag_matches_values() {
        let inst = gk_instance(
            "i",
            GkSpec {
                n: 80,
                m: 10,
                tightness: 0.5,
                seed: 5,
            },
        );
        let report = run_default(&inst, 5, 100_000);
        assert_eq!(
            report.improved(),
            report.best.value() > report.initial_value
        );
    }

    #[test]
    fn infeasible_initial_solution_is_repaired() {
        let inst = uncorrelated_instance("r", 20, 2, 0.5, 6);
        let ratios = Ratios::new(&inst);
        // Pack everything: infeasible.
        let all = mkp::BitVec::from_bools(vec![true; inst.n()]);
        let bad = Solution::from_bits(&inst, all);
        assert!(!bad.is_feasible(&inst));
        let mut rng = Xoshiro256::seed_from_u64(6);
        let report = run(
            &inst,
            &ratios,
            bad,
            &TsConfig::default_for(inst.n()),
            Budget::evals(10_000),
            &mut rng,
        );
        assert!(report.best.is_feasible(&inst));
    }

    #[test]
    fn finds_optimum_on_small_instances() {
        // Compare against brute force on tiny instances: a real tabu search
        // should nail n=12 with a modest budget.
        for seed in 0..5 {
            let inst = uncorrelated_instance("o", 12, 3, 0.5, seed);
            let mut best = 0i64;
            for mask in 0u32..(1 << inst.n()) {
                let ok = (0..inst.m()).all(|i| {
                    (0..inst.n())
                        .filter(|&j| (mask >> j) & 1 == 1)
                        .map(|j| inst.weight(i, j))
                        .sum::<i64>()
                        <= inst.capacity(i)
                });
                if ok {
                    best = best.max(
                        (0..inst.n())
                            .filter(|&j| (mask >> j) & 1 == 1)
                            .map(|j| inst.profit(j))
                            .sum(),
                    );
                }
            }
            let report = run_default(&inst, seed, 100_000);
            assert_eq!(report.best.value(), best, "seed {seed}");
        }
    }

    #[test]
    fn nb_div_bounds_run_without_budget_pressure() {
        let inst = uncorrelated_instance("n", 25, 3, 0.5, 8);
        let ratios = Ratios::new(&inst);
        let mut rng = Xoshiro256::seed_from_u64(8);
        let init = greedy(&inst, &ratios);
        let config = TsConfig {
            nb_div: 2,
            nb_int: 2,
            ..TsConfig::default_for(inst.n())
        };
        let report = run(
            &inst,
            &ratios,
            init,
            &config,
            Budget::evals(u64::MAX),
            &mut rng,
        );
        assert!(!report.budget_exhausted);
        assert!(report.stats.moves > 0);
    }

    /// 2M evaluations of the search from the greedy start on GK 10×250
    /// and large 25×500 with weights and capacities ×40, beyond the lane
    /// payload, so every fits test takes the scalar route: (best value,
    /// candidate evaluations, moves, bit fingerprint, next rng draw),
    /// recorded before the lane-or-scalar choice moved inside `mkp::soa`.
    #[test]
    fn scalar_route_outputs_are_pinned_across_versions() {
        use mkp::generate::{large_instance, LargeSpec};
        let gk = gk_instance(
            "g",
            GkSpec {
                n: 250,
                m: 10,
                tightness: 0.5,
                seed: 3,
            },
        );
        let large = large_instance(
            "l",
            LargeSpec {
                n: 500,
                m: 25,
                tightness: 0.5,
                correlation: 0.5,
                seed: 5,
            },
        );
        let expected = [
            (
                107_776,
                2_022_718,
                799,
                0xdb42_a73c_a744_1f60,
                0x8d01_93e9_db71_a8ba,
            ),
            (
                155_160,
                2_202_866,
                194,
                0x72f3_c174_97d8_7d4b,
                0xce3e_8f80_3ae9_4b8c,
            ),
        ];
        for (inst, pin) in [gk, large].iter().zip(expected) {
            let inst = mkp::testkit::widened(inst, 40);
            let ratios = Ratios::new(&inst);
            assert!(
                !ratios.view().lanes().ok(),
                "{}: lanes encode it",
                inst.name()
            );
            let mut rng = Xoshiro256::seed_from_u64(17);
            let report = run(
                &inst,
                &ratios,
                greedy(&inst, &ratios),
                &TsConfig::default_for(inst.n()),
                Budget::evals(2_000_000),
                &mut rng,
            );
            let got = (
                report.best.value(),
                report.stats.candidate_evals,
                report.stats.moves,
                report.best.bits().fingerprint(),
                rng.next_u64(),
            );
            assert_eq!(got, pin, "{}", inst.name());
        }
    }

    #[test]
    fn solves_an_fp_instance_to_optimality() {
        // FP01 is tiny; the engine must reach the certified optimum.
        let inst = fp_instance(0);
        let report = run_default(&inst, 9, 200_000);
        let exact = mkp_exact::solve(&inst, &mkp_exact::BbConfig::default());
        assert!(exact.proven);
        assert_eq!(report.best.value(), exact.solution.value());
    }

    mod properties {
        use super::*;
        use mkp::prop_check;
        use mkp::testkit::gen;

        /// The engine never returns an infeasible or cache-inconsistent
        /// solution, for arbitrary instances, strategies and budgets.
        #[test]
        fn prop_engine_invariants() {
            prop_check!(
                cases = 12,
                |rng| {
                    (
                        rng.next_u64(),
                        gen::usize_in(rng, 5, 40),
                        gen::usize_in(rng, 1, 5),
                        gen::usize_in(rng, 1, 30),
                        gen::usize_in(rng, 1, 4),
                        rng.range_inclusive(2_000, 40_000),
                    )
                },
                |input| {
                    let (seed, n, m, tenure, nb_drop, budget) = *input;
                    if n < 2 || m < 1 || tenure < 1 || nb_drop < 1 || budget < 1 {
                        return; // shrinking may leave the engine's domain
                    }
                    let inst = uncorrelated_instance("prop", n, m, 0.5, seed);
                    let ratios = Ratios::new(&inst);
                    let mut rng = Xoshiro256::seed_from_u64(seed);
                    let init = random_feasible(&inst, &mut rng);
                    let mut cfg = TsConfig::default_for(inst.n());
                    cfg.strategy = crate::Strategy {
                        tabu_tenure: tenure,
                        nb_drop,
                        nb_local: 20,
                    };
                    let report = run(&inst, &ratios, init, &cfg, Budget::evals(budget), &mut rng);
                    assert!(report.best.is_feasible(&inst));
                    assert!(report.best.check_consistent(&inst));
                    assert!(report.best.value() >= report.initial_value);
                    for w in report.elite.windows(2) {
                        assert!(w[0].value() >= w[1].value());
                    }
                }
            );
        }
    }
}
