//! Intensification by strategic oscillation (paper §3.2, second procedure).
//!
//! The search deliberately crosses the feasibility boundary: for a bounded
//! number of steps it keeps adding the most attractive items *ignoring*
//! capacity, then projects the infeasible point back onto the feasible
//! domain by expelling the items with the largest `Σ_i a_ij / c_j` burden,
//! and finally refills greedily. Bounding the infeasible excursion depth is
//! the paper's own fix for the method's running-time drawback (§3.2: "we
//! have limited the number of explored infeasible solutions by limiting the
//! depth of the search path in the infeasible domain").

use crate::moves::MoveStats;
use mkp::eval::Ratios;
use mkp::greedy::{dynamic_greedy_fill, project_feasible};
use mkp::{Instance, Solution};

/// One strategic oscillation episode from `sol`.
///
/// Pushes up to `depth` items past the boundary (best pseudo-utility first),
/// projects back to feasibility, refills greedily, and keeps the result only
/// when it beats the starting value. Returns `true` on improvement.
pub fn strategic_oscillation(
    inst: &Instance,
    ratios: &Ratios,
    sol: &mut Solution,
    depth: usize,
    stats: &mut MoveStats,
) -> bool {
    let start_value = sol.value();
    let mut trial = sol.clone();

    // Phase 1: cross the boundary — add the `depth` best unpacked items
    // regardless of capacity.
    let mut pushed = 0;
    for &j in ratios.by_utility_desc() {
        if pushed == depth {
            break;
        }
        if !trial.contains(j) {
            stats.candidate_evals += 1;
            trial.add(inst, j);
            pushed += 1;
        }
    }
    if pushed == 0 {
        return false; // knapsack already holds every item
    }
    stats.oscillation_max_depth = stats.oscillation_max_depth.max(pushed as u64);

    // Phase 2: project back onto the feasible domain.
    let dropped = project_feasible(inst, ratios, &mut trial);
    stats.candidate_evals += dropped as u64;

    // Phase 3: the projection may have opened room for cheap items;
    // refill with slack-aware scores (word-parallel fits pruning).
    dynamic_greedy_fill(inst, ratios, &mut trial);
    stats.moves += 1;

    debug_assert!(trial.is_feasible(inst));
    if trial.value() > start_value {
        *sol = trial;
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkp::generate::{gk_instance, uncorrelated_instance, GkSpec};
    use mkp::greedy::{greedy, random_feasible};
    use mkp::Xoshiro256;

    #[test]
    fn result_is_always_feasible() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        for seed in 0..10 {
            let inst = uncorrelated_instance("o", 40, 4, 0.5, seed);
            let ratios = Ratios::new(&inst);
            let mut sol = random_feasible(&inst, &mut rng);
            for depth in [1, 3, 8] {
                strategic_oscillation(&inst, &ratios, &mut sol, depth, &mut MoveStats::default());
                assert!(sol.is_feasible(&inst));
                assert!(sol.check_consistent(&inst));
            }
        }
    }

    #[test]
    fn never_decreases_value() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        for seed in 0..10 {
            let inst = gk_instance(
                "g",
                GkSpec {
                    n: 60,
                    m: 5,
                    tightness: 0.5,
                    seed,
                },
            );
            let ratios = Ratios::new(&inst);
            let mut sol = random_feasible(&inst, &mut rng);
            let before = sol.value();
            let improved =
                strategic_oscillation(&inst, &ratios, &mut sol, 5, &mut MoveStats::default());
            assert!(sol.value() >= before);
            assert_eq!(improved, sol.value() > before);
        }
    }

    #[test]
    fn improves_weak_starts_often() {
        // From a random start, oscillation should find an improvement on a
        // clear majority of correlated instances.
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut improvements = 0;
        for seed in 0..20 {
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
            let mut sol = random_feasible(&inst, &mut rng);
            if strategic_oscillation(&inst, &ratios, &mut sol, 6, &mut MoveStats::default()) {
                improvements += 1;
            }
        }
        assert!(improvements >= 12, "only {improvements}/20 improved");
    }

    #[test]
    fn noop_when_all_items_packed() {
        let inst = mkp::Instance::new("a", 2, 1, vec![3, 4], vec![1, 1], vec![5]).unwrap();
        let ratios = Ratios::new(&inst);
        let mut sol = greedy(&inst, &ratios); // packs everything
        assert_eq!(sol.cardinality(), 2);
        let improved =
            strategic_oscillation(&inst, &ratios, &mut sol, 3, &mut MoveStats::default());
        assert!(!improved);
    }

    #[test]
    fn depth_zero_is_noop() {
        let inst = uncorrelated_instance("z", 20, 2, 0.5, 1);
        let ratios = Ratios::new(&inst);
        let mut sol = greedy(&inst, &ratios);
        let v = sol.value();
        assert!(!strategic_oscillation(
            &inst,
            &ratios,
            &mut sol,
            0,
            &mut MoveStats::default()
        ));
        assert_eq!(sol.value(), v);
    }
}
