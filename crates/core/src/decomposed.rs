//! Search-space decomposition (the paper's §2 *third* source of
//! parallelism, used by Taillard for vehicle routing: "parallelism in
//! problem decomposition").
//!
//! For the MKP the natural decomposition is a partition of the solution
//! space by the values of a few *critical* variables — the items whose
//! utility rank sits at the expected solution boundary, where the packing
//! decision is genuinely uncertain. With `D = ⌊log₂ P⌋` split variables,
//! worker `k` receives the subproblem with those variables fixed to the
//! bits of `k`: the assignment carries a [`CellMsg`] and the slave builds
//! the [`mkp::restrict::Restriction`] itself (and lifts the sub-solution
//! back — see `engine::serve_assignment`), so the workers explore *provably
//! disjoint* regions — a complementary regime to the overlapping
//! trajectories of ITS/CTS. Workers whose cell is infeasible fall back to
//! the full instance.

use crate::engine::{assignment_seed, CoopPolicy};
use crate::messages::{AssignMsg, CellMsg, ReportMsg};
use crate::runner::{Mode, RunConfig};
use mkp::eval::Ranking;
use mkp::stats::instance_stats;
use mkp::{BitVec, Instance, Solution, Xoshiro256};
use mkp_tabu::{Strategy, StrategyBounds};

/// Pick the `d` split variables: the items straddling the expected
/// cardinality boundary in the static utility order (the most uncertain
/// packing decisions).
pub fn split_variables(inst: &Instance, ranking: &Ranking, d: usize) -> Vec<usize> {
    let order = ranking.by_utility_desc();
    let boundary = (instance_stats(inst).expected_cardinality as usize).min(inst.n() - 1);
    let lo = boundary.saturating_sub(d / 2);
    order[lo..(lo + d).min(inst.n())].to_vec()
}

/// The decomposed mode (DTS): one round, each worker fixed to its cell.
#[derive(Default)]
pub struct DecomposedPolicy {
    split: Vec<usize>,
    cells: usize,
    strategies: Vec<Strategy>,
}

impl DecomposedPolicy {
    /// A fresh DTS policy (the split is computed in `prepare`).
    pub fn new() -> Self {
        DecomposedPolicy::default()
    }
}

impl CoopPolicy for DecomposedPolicy {
    fn mode(&self) -> Mode {
        Mode::Decomposed
    }

    fn active_workers(&self, cfg: &RunConfig) -> usize {
        cfg.p
    }

    fn rounds(&self, _cfg: &RunConfig) -> usize {
        1
    }

    fn prepare(&mut self, inst: &Instance, cfg: &RunConfig, rng: &mut Xoshiro256) -> Vec<Solution> {
        let d = (cfg.p as f64).log2().floor() as usize;
        self.cells = 1usize << d;
        self.split = split_variables(inst, &Ranking::new(inst), d);
        // Strategies only matter for infeasible-cell fallbacks, but drawing
        // them unconditionally keeps the master rng stream independent of
        // which cells happen to be feasible.
        let bounds = StrategyBounds::for_instance_size(inst.n());
        self.strategies = (0..cfg.p).map(|_| bounds.random(rng)).collect();
        // No master-chosen starts: each worker builds its own inside its
        // cell, so there is nothing to seed the global best with yet.
        Vec::new()
    }

    fn assign(
        &mut self,
        k: usize,
        round: usize,
        inst: &Instance,
        cfg: &RunConfig,
        _rng: &mut Xoshiro256,
    ) -> AssignMsg {
        let cell = k % self.cells;
        let forced_in: Vec<u64> = self
            .split
            .iter()
            .enumerate()
            .filter(|(b, _)| (cell >> b) & 1 == 1)
            .map(|(_, &j)| j as u64)
            .collect();
        let forced_out: Vec<u64> = self
            .split
            .iter()
            .enumerate()
            .filter(|(b, _)| (cell >> b) & 1 == 0)
            .map(|(_, &j)| j as u64)
            .collect();
        AssignMsg {
            // Ignored by the slave: it starts from a randomized greedy
            // inside the (restricted) cell.
            initial: BitVec::zeros(inst.n()),
            strategy: self.strategies[k],
            budget_evals: cfg.total_evals / cfg.p as u64,
            seed: assignment_seed(cfg, round, k),
            epoch: 0, // stamped by the engine before sending
            cell: Some(CellMsg {
                forced_in,
                forced_out,
                seeded: false,
            }),
        }
    }

    fn absorb(
        &mut self,
        _k: usize,
        _round: usize,
        _report: &ReportMsg,
        _slave_best: &Solution,
        _global_best: &Solution,
        _inst: &Instance,
        _cfg: &RunConfig,
        _rng: &mut Xoshiro256,
    ) -> u64 {
        // The cells are disjoint by construction; there is nothing to
        // exchange and nothing to adapt in a single round. The engine's
        // generic reduction (fold each report into the global best, in
        // worker order) is the whole mode.
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_mode;
    use mkp::generate::{gk_instance, uncorrelated_instance, GkSpec};

    #[test]
    fn split_variables_sit_at_the_boundary() {
        let inst = gk_instance(
            "sv",
            GkSpec {
                n: 100,
                m: 5,
                tightness: 0.5,
                seed: 1,
            },
        );
        let split = split_variables(&inst, &Ranking::new(&inst), 3);
        assert_eq!(split.len(), 3);
        // All split vars are distinct and in range.
        let mut s = split.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 3);
        assert!(split.iter().all(|&j| j < inst.n()));
    }

    #[test]
    fn cells_partition_the_split_variables() {
        let inst = gk_instance(
            "cp",
            GkSpec {
                n: 80,
                m: 5,
                tightness: 0.5,
                seed: 7,
            },
        );
        let cfg = RunConfig {
            p: 4,
            rounds: 1,
            ..RunConfig::new(10_000, 3)
        };
        let mut policy = DecomposedPolicy::new();
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        policy.prepare(&inst, &cfg, &mut rng);
        for k in 0..cfg.p {
            let assign = policy.assign(k, 0, &inst, &cfg, &mut rng);
            let cell = assign.cell.expect("DTS always assigns a cell");
            // Every split variable is fixed one way or the other, none both.
            let mut fixed: Vec<u64> = cell
                .forced_in
                .iter()
                .chain(cell.forced_out.iter())
                .copied()
                .collect();
            fixed.sort_unstable();
            let mut expect: Vec<u64> = policy.split.iter().map(|&j| j as u64).collect();
            expect.sort_unstable();
            assert_eq!(fixed, expect, "worker {k} cell is not a full fixing");
        }
    }

    #[test]
    fn decomposed_mode_is_feasible_and_deterministic() {
        let inst = gk_instance(
            "dts",
            GkSpec {
                n: 60,
                m: 5,
                tightness: 0.5,
                seed: 2,
            },
        );
        let cfg = RunConfig {
            p: 4,
            rounds: 1,
            ..RunConfig::new(200_000, 9)
        };
        let a = run_mode(&inst, Mode::Decomposed, &cfg);
        let b = run_mode(&inst, Mode::Decomposed, &cfg);
        assert!(a.best.is_feasible(&inst));
        assert_eq!(a.best.value(), b.best.value());
        assert_eq!(a.mode, Mode::Decomposed);
    }

    #[test]
    fn single_worker_degenerates_to_full_search() {
        // p = 1 → d = 0 split variables → an empty cell, which the slave's
        // restriction rejects → the one worker searches the full space.
        let inst = uncorrelated_instance("one", 30, 3, 0.5, 3);
        let cfg = RunConfig {
            p: 1,
            rounds: 1,
            ..RunConfig::new(100_000, 5)
        };
        let r = run_mode(&inst, Mode::Decomposed, &cfg);
        assert!(r.best.is_feasible(&inst));
        assert!(r.best.value() > 0);
    }

    #[test]
    fn finds_optimum_on_small_instance() {
        let inst = uncorrelated_instance("opt", 16, 3, 0.5, 4);
        let mut brute = 0i64;
        for mask in 0u32..(1 << inst.n()) {
            let ok = (0..inst.m()).all(|i| {
                (0..inst.n())
                    .filter(|&j| (mask >> j) & 1 == 1)
                    .map(|j| inst.weight(i, j))
                    .sum::<i64>()
                    <= inst.capacity(i)
            });
            if ok {
                brute = brute.max(
                    (0..inst.n())
                        .filter(|&j| (mask >> j) & 1 == 1)
                        .map(|j| inst.profit(j))
                        .sum(),
                );
            }
        }
        let cfg = RunConfig {
            p: 4,
            rounds: 1,
            ..RunConfig::new(400_000, 6)
        };
        let r = run_mode(&inst, Mode::Decomposed, &cfg);
        assert_eq!(r.best.value(), brute, "decomposition lost the optimum cell");
    }
}
