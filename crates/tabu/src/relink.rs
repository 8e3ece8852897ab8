//! Path relinking between elite solutions (Glover's companion technique to
//! tabu search, contemporaneous with the paper).
//!
//! Starting from solution `a`, walk toward solution `b` one attribute at a
//! time: at each step commit the symmetric-difference move (add a `b`-only
//! item when it fits after the repair drop, else drop an `a`-only item)
//! that loses the least value. Every intermediate point is repaired to
//! feasibility and saturated; the best point on the path is returned. Used
//! by the master as an optional exploitation step between elite solutions
//! of *different slaves* — information neither slave holds alone.

use crate::moves::MoveStats;
use mkp::eval::Ratios;
use mkp::greedy::{dynamic_greedy_fill, project_feasible};
use mkp::{Instance, Solution};

/// Walk from `a` toward `b`; return the best intermediate solution (which
/// may be `a` itself) and the number of path steps taken.
pub fn path_relink(
    inst: &Instance,
    ratios: &Ratios,
    a: &Solution,
    b: &Solution,
    stats: &mut MoveStats,
) -> (Solution, usize) {
    assert_eq!(a.bits().len(), inst.n());
    assert_eq!(b.bits().len(), inst.n());
    let mut current = a.clone();
    let mut best = a.clone();
    let mut steps = 0;

    loop {
        // Remaining symmetric difference.
        let to_add: Vec<usize> = b
            .bits()
            .iter_ones()
            .filter(|&j| !current.contains(j))
            .collect();
        let to_drop: Vec<usize> = current
            .bits()
            .iter_ones()
            .filter(|&j| !b.contains(j))
            .collect();
        if to_add.is_empty() && to_drop.is_empty() {
            break;
        }

        // Candidate steps: add a b-only item (repairing afterwards by
        // dropping a-only items first), or drop an a-only item. Pick the
        // candidate with the highest resulting value.
        let mut best_step: Option<(Solution, usize)> = None; // (state, progress)
        for &j in &to_add {
            stats.candidate_evals += 1;
            let mut trial = current.clone();
            trial.add(inst, j);
            // Repair priority: expel a-only items before anything else so
            // the walk keeps moving toward b.
            let mut dropped_guide = 0;
            while !trial.is_feasible(inst) {
                let victim = to_drop.iter().copied().find(|&k| trial.contains(k));
                match victim {
                    Some(k) => {
                        trial.drop(inst, k);
                        dropped_guide += 1;
                    }
                    None => break,
                }
            }
            if !trial.is_feasible(inst) {
                project_feasible(inst, ratios, &mut trial);
            }
            let progress = 1 + dropped_guide;
            if best_step
                .as_ref()
                .is_none_or(|(s, _)| trial.value() > s.value())
            {
                best_step = Some((trial, progress));
            }
        }
        if best_step.is_none() {
            // Only drops remain.
            for &j in &to_drop {
                stats.candidate_evals += 1;
                let mut trial = current.clone();
                trial.drop(inst, j);
                if best_step
                    .as_ref()
                    .is_none_or(|(s, _)| trial.value() > s.value())
                {
                    best_step = Some((trial, 1));
                }
            }
        }
        let Some((next, progress)) = best_step else {
            break;
        };
        // Guard against non-progress (projection may restore dropped items).
        if next.bits() == current.bits() {
            break;
        }
        current = next;
        steps += progress;
        // Evaluate the saturated version of the intermediate point.
        let mut filled = current.clone();
        dynamic_greedy_fill(inst, ratios, &mut filled);
        if filled.value() > best.value() {
            best = filled;
        }
        if steps > 2 * inst.n() {
            break; // safety net; cannot happen with monotone progress
        }
    }

    stats.moves += 1;
    debug_assert!(best.is_feasible(inst));
    (best, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkp::generate::{gk_instance, uncorrelated_instance, GkSpec};
    use mkp::greedy::{dynamic_randomized_greedy, greedy};
    use mkp::Xoshiro256;

    fn endpoints(seed: u64) -> (Instance, Ratios, Solution, Solution) {
        let inst = gk_instance(
            "pr",
            GkSpec {
                n: 60,
                m: 5,
                tightness: 0.5,
                seed,
            },
        );
        let ratios = Ratios::new(&inst);
        let a = greedy(&inst, &ratios);
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xABCD);
        let b = dynamic_randomized_greedy(&inst, &mut rng, 6);
        (inst, ratios, a, b)
    }

    #[test]
    fn result_is_feasible_and_at_least_endpoint_a() {
        for seed in 0..8 {
            let (inst, ratios, a, b) = endpoints(seed);
            let (best, _) = path_relink(&inst, &ratios, &a, &b, &mut MoveStats::default());
            assert!(best.is_feasible(&inst));
            assert!(best.check_consistent(&inst));
            assert!(
                best.value() >= a.value(),
                "seed {seed} lost the start point"
            );
        }
    }

    #[test]
    fn identical_endpoints_are_a_noop() {
        let (inst, ratios, a, _) = endpoints(1);
        let (best, steps) = path_relink(&inst, &ratios, &a, &a, &mut MoveStats::default());
        assert_eq!(steps, 0);
        assert_eq!(best.bits(), a.bits());
    }

    #[test]
    fn walk_makes_progress_toward_target() {
        let (inst, ratios, a, b) = endpoints(2);
        let before = a.hamming(&b);
        assert!(before > 0, "endpoints coincide; pick another seed");
        let (_, steps) = path_relink(&inst, &ratios, &a, &b, &mut MoveStats::default());
        assert!(steps > 0, "no steps taken despite differing endpoints");
    }

    #[test]
    fn finds_intermediate_better_than_both_endpoints_sometimes() {
        // Across several seeds, relinking should at least once beat both
        // endpoints — that is its entire purpose.
        let mut wins = 0;
        for seed in 0..20 {
            let inst = uncorrelated_instance("w", 40, 4, 0.5, seed);
            let ratios = Ratios::new(&inst);
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let a = dynamic_randomized_greedy(&inst, &mut rng, 5);
            let b = dynamic_randomized_greedy(&inst, &mut rng, 5);
            let (best, _) = path_relink(&inst, &ratios, &a, &b, &mut MoveStats::default());
            if best.value() > a.value().max(b.value()) {
                wins += 1;
            }
        }
        assert!(wins >= 3, "relinking never beat its endpoints ({wins}/20)");
    }

    #[test]
    fn counts_work() {
        let (inst, ratios, a, b) = endpoints(3);
        let mut stats = MoveStats::default();
        path_relink(&inst, &ratios, &a, &b, &mut stats);
        assert!(stats.candidate_evals > 0);
        assert_eq!(stats.moves, 1);
    }
}
