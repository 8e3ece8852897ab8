//! Depth-first branch & bound for the 0–1 MKP, on one thread or many.
//!
//! Variables are branched in descending surrogate-ratio order (surrogate
//! multipliers from the root LP duals), with the fractional surrogate bound
//! pruning each node in O(remaining items). Reduced-cost fixing at the root
//! shrinks the search space before the dive — the "size reduction" idea of
//! Fréville & Plateau, whose instances this solver certifies.
//!
//! Every entry point runs one search. [`solve_parallel`] fixes the first
//! `D = ⌊log₂ workers⌋` free variables to the bits of each of `2^D` cells
//! and proves the cells against one shared incumbent, so a good solution in
//! one cell prunes in all, and one shared node budget, so the node limit
//! bounds the whole proof however many cells split it. The cells run on at
//! most as many threads as the host runs at once, the calling thread among
//! them, each taking the next cell from a shared counter; one worker
//! proves the one cell on the calling thread, so
//! `solve_parallel(inst, cfg, 1)` is [`solve`].

use crate::bounds::{lp_bound, Surrogate};
use crate::reduce::{fix_variables, Fixing};
use mkp::eval::Ranking;
use mkp::greedy::greedy;
use mkp::{BitVec, Instance, Solution};
use std::num::NonZeroUsize;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Branch & bound configuration.
#[derive(Debug, Clone)]
pub struct BbConfig {
    /// Abort the proof after this many nodes (the incumbent is still
    /// returned, flagged `proven = false`), counted over all parallel
    /// cells: they draw on one shared budget.
    pub node_limit: u64,
    /// Scale applied to LP duals when deriving integer surrogate
    /// multipliers.
    pub surrogate_scale: f64,
    /// Apply reduced-cost variable fixing at the root.
    pub use_fixing: bool,
}

impl Default for BbConfig {
    fn default() -> Self {
        BbConfig {
            node_limit: 100_000_000,
            surrogate_scale: 1000.0,
            use_fixing: true,
        }
    }
}

/// Result of a branch & bound run.
#[derive(Debug, Clone)]
pub struct BbResult {
    /// Best solution found (the certified optimum when `proven`).
    pub solution: Solution,
    /// True when the search space was exhausted within the node limit.
    pub proven: bool,
    /// Nodes expanded.
    pub nodes: u64,
    /// Root LP relaxation value.
    pub root_lp: f64,
    /// Variables fixed by reduced-cost pegging at the root.
    pub fixed_at_root: usize,
}

/// Solve an instance exactly (up to the node limit).
pub fn solve(inst: &Instance, cfg: &BbConfig) -> BbResult {
    solve_with_incumbent(inst, cfg, None)
}

/// Solve with a warm-start incumbent (e.g. a tabu-search solution). A strong
/// incumbent shrinks the proof tree dramatically: reduced-cost fixing pegs
/// more variables and the bound prunes earlier.
pub fn solve_with_incumbent(inst: &Instance, cfg: &BbConfig, warm: Option<&Solution>) -> BbResult {
    prove(inst, cfg, warm, 1)
}

/// Solve exactly with `workers` cell provers sharing one incumbent (see
/// the module docs). With more than one cell the node count depends on
/// thread timing; the optimum does not.
pub fn solve_parallel(inst: &Instance, cfg: &BbConfig, workers: usize) -> BbResult {
    assert!(workers >= 1, "need at least one worker");
    prove(inst, cfg, None, workers)
}

/// What every search starts from.
pub(crate) struct Root {
    /// The greedy solution, or the warm start when it is better.
    pub(crate) incumbent: Solution,
    pub(crate) root_lp: f64,
    fixed_at_root: usize,
    pub(crate) surrogate: Surrogate,
    /// Free variables only, by descending surrogate ratio.
    pub(crate) order: Vec<usize>,
    /// The variables fixed to one.
    base: Solution,
}

impl Root {
    /// Set up the root, or break with the proven result when the root LP
    /// already matches the incumbent.
    pub(crate) fn new(
        inst: &Instance,
        cfg: &BbConfig,
        warm: Option<&Solution>,
    ) -> ControlFlow<BbResult, Root> {
        let mut incumbent = greedy(inst, &Ranking::new(inst));
        if let Some(w) = warm {
            assert!(w.is_feasible(inst), "warm-start incumbent must be feasible");
            if w.value() > incumbent.value() {
                incumbent = w.clone();
            }
        }

        let lp = lp_bound(inst).expect("MKP relaxation is always a valid LP");
        let root_lp = lp.objective;

        // Root LP integral and matching greedy ⇒ done without search.
        if (root_lp - incumbent.value() as f64).abs() < 1e-6 {
            return ControlFlow::Break(BbResult {
                solution: incumbent,
                proven: true,
                nodes: 0,
                root_lp,
                fixed_at_root: 0,
            });
        }

        let fixing = if cfg.use_fixing {
            fix_variables(inst, &lp, incumbent.value())
        } else {
            Fixing::none(inst.n())
        };

        let surrogate = Surrogate::from_duals(inst, &lp.duals, cfg.surrogate_scale);
        let order: Vec<usize> = surrogate
            .ratio_order(inst)
            .into_iter()
            .filter(|&j| fixing.fixed[j].is_none())
            .collect();

        let mut base = Solution::empty(inst);
        let mut base_feasible = true;
        for j in 0..inst.n() {
            if fixing.fixed[j] == Some(true) {
                if !base.fits(inst, j) {
                    // Fixing produced an infeasible base — only possible when
                    // the incumbent is already optimal; fall back to no fixing.
                    base_feasible = false;
                    break;
                }
                base.add(inst, j);
            }
        }
        let (order, base) = if base_feasible {
            (order, base)
        } else {
            (surrogate.ratio_order(inst), Solution::empty(inst))
        };
        ControlFlow::Continue(Root {
            incumbent,
            root_lp,
            fixed_at_root: fixing.count(),
            surrogate,
            order,
            base,
        })
    }
}

/// Prove the tree below the root with `workers` cell provers.
fn prove(inst: &Instance, cfg: &BbConfig, warm: Option<&Solution>, workers: usize) -> BbResult {
    let root = match Root::new(inst, cfg, warm) {
        ControlFlow::Continue(root) => root,
        ControlFlow::Break(proven) => return proven,
    };
    // Never more split variables than free ones, so no cell repeats another.
    let split = (workers.ilog2() as usize).min(root.order.len());
    let cells = 1usize << split;
    let best_value = AtomicI64::new(root.incumbent.value());
    let best_bits = Mutex::new(None);
    // Relaxed, like `nodes`: the budget is a count and publishes no data.
    let budget = AtomicU64::new(cfg.node_limit);
    let nodes = AtomicU64::new(0);
    let truncated = AtomicBool::new(false);

    // Cell `cell` takes the k-th split variable iff bit k of `cell` is set.
    let prove_cell = |cell: usize| {
        let mut partial = root.base.clone();
        for (bit, &j) in root.order[..split].iter().enumerate() {
            if (cell >> bit) & 1 == 1 {
                if !partial.fits(inst, j) {
                    return; // an empty cell
                }
                partial.add(inst, j);
            }
        }
        let taken = partial.bits().iter_ones();
        let s_remaining =
            root.surrogate.capacity - taken.map(|j| root.surrogate.weights[j]).sum::<i64>();
        let mut search = Search {
            inst,
            surrogate: &root.surrogate,
            order: &root.order,
            budget: &budget,
            quota: 0,
            nodes: 0,
            truncated: false,
            best_value: &best_value,
            best_bits: &best_bits,
        };
        search.dive(&mut partial, split, s_remaining);
        // Hand back the nodes this cell took and did not expand.
        budget.fetch_add(search.quota.saturating_sub(search.nodes), Ordering::Relaxed);
        nodes.fetch_add(search.nodes, Ordering::Relaxed);
        truncated.fetch_or(search.truncated, Ordering::Relaxed);
    };
    for_each_cell(cells, prove_cell);

    let bits = best_bits
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let solution = match bits {
        Some(bits) => Solution::from_bits(inst, bits),
        None => root.incumbent,
    };
    debug_assert!(solution.is_feasible(inst));
    BbResult {
        solution,
        proven: !truncated.into_inner(),
        nodes: nodes.into_inner(),
        root_lp: root.root_lp,
        fixed_at_root: root.fixed_at_root,
    }
}

/// Run `prove_cell` once on each cell index in `0..cells`, on at most as
/// many threads as the host runs at once, however many cells there are:
/// the calling thread and up to `available_parallelism − 1` more, each
/// taking the next index from a shared counter. One cell runs on the
/// calling thread alone.
fn for_each_cell(cells: usize, prove_cell: impl Fn(usize) + Sync) {
    // Relaxed: the counter only hands out cell indices, each exactly once;
    // the provers' results are read after the scope joins them.
    let next_cell = AtomicUsize::new(0);
    let prover = || loop {
        let cell = next_cell.fetch_add(1, Ordering::Relaxed);
        if cell >= cells {
            break;
        }
        prove_cell(cell);
    };
    let parallelism = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    std::thread::scope(|scope| {
        for _ in 1..cells.min(parallelism) {
            scope.spawn(prover);
        }
        prover();
    });
}

/// Nodes a cell takes from the shared budget at a time: the atomic is
/// touched once per this many nodes, and a cell holds at most this many
/// unexpanded until it ends and hands them back.
const NODE_CHUNK: u64 = 4096;

/// One cell's prover. The incumbent is shared by every cell: its value in
/// an atomic, read at every node, and its bits under a lock, written on
/// improvement. On one thread it prunes exactly as a local best would.
/// The node budget is shared too: a cell takes nodes from it in chunks of
/// [`NODE_CHUNK`] and stops, truncated, once it is spent.
struct Search<'a> {
    inst: &'a Instance,
    surrogate: &'a Surrogate,
    order: &'a [usize],
    /// Nodes of the node limit no cell has taken yet.
    budget: &'a AtomicU64,
    /// Nodes this cell has taken from `budget`.
    quota: u64,
    nodes: u64,
    truncated: bool,
    best_value: &'a AtomicI64,
    best_bits: &'a Mutex<Option<BitVec>>,
}

impl Search<'_> {
    /// Make `partial` the incumbent if it still beats it. The value changes
    /// only under the lock and after the bits, so the bits always hold a
    /// solution at least that good, and a poisoned lock is safe to recover.
    /// Cold: improvements are rare, and inlined into `dive` the lock slowed
    /// the `branch_bound fp21` kernel bench by about a quarter (2-vCPU host).
    #[cold]
    fn publish(&self, partial: &Solution) {
        let mut bits = self
            .best_bits
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if partial.value() > self.best_value.load(Ordering::Relaxed) {
            *bits = Some(partial.bits().clone());
            self.best_value.store(partial.value(), Ordering::Relaxed);
        }
    }

    /// Take up to [`NODE_CHUNK`] more nodes from the shared budget; false
    /// when it is spent.
    #[cold]
    fn take_nodes(&mut self) -> bool {
        let taken = self
            .budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                (left > 0).then(|| left - left.min(NODE_CHUNK))
            });
        match taken {
            Ok(left) => {
                self.quota += left.min(NODE_CHUNK);
                true
            }
            Err(_) => false,
        }
    }

    /// DFS from position `k` in the branch order with `s_remaining`
    /// surrogate capacity.
    fn dive(&mut self, partial: &mut Solution, k: usize, s_remaining: i64) {
        self.nodes += 1;
        if self.nodes > self.quota && !self.take_nodes() {
            self.truncated = true;
            return;
        }

        if partial.value() > self.best_value.load(Ordering::Relaxed) {
            self.publish(partial);
        }
        if k == self.order.len() {
            return;
        }

        // Fractional surrogate bound over the undecided suffix. Integer
        // objective ⇒ prune unless the bound admits ≥ best + 1.
        let incumbent = self.best_value.load(Ordering::Relaxed);
        let bound = partial.value() as f64
            + self
                .surrogate
                .dantzig_suffix(self.inst, &self.order[k..], s_remaining);
        if bound < incumbent as f64 + 1.0 - 1e-6 {
            return;
        }

        let j = self.order[k];
        // Take-branch first: ratio order makes x_j = 1 the promising side.
        if partial.fits(self.inst, j) {
            partial.add(self.inst, j);
            self.dive(partial, k + 1, s_remaining - self.surrogate.weights[j]);
            partial.drop(self.inst, j);
            if self.truncated {
                return;
            }
        }
        self.dive(partial, k + 1, s_remaining);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::solve_single;
    use mkp::generate::{fp_instance, gk_instance, uncorrelated_instance, GkSpec};
    use mkp::prop_check;
    use mkp::testkit::gen;
    use std::collections::HashSet;

    fn brute_force(inst: &Instance) -> i64 {
        assert!(inst.n() <= 20);
        let mut best = 0i64;
        for mask in 0u32..(1 << inst.n()) {
            let mut ok = true;
            for i in 0..inst.m() {
                let load: i64 = (0..inst.n())
                    .filter(|&j| (mask >> j) & 1 == 1)
                    .map(|j| inst.weight(i, j))
                    .sum();
                if load > inst.capacity(i) {
                    ok = false;
                    break;
                }
            }
            if ok {
                let v: i64 = (0..inst.n())
                    .filter(|&j| (mask >> j) & 1 == 1)
                    .map(|j| inst.profit(j))
                    .sum();
                best = best.max(v);
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_small() {
        for seed in 0..25 {
            let inst = uncorrelated_instance("b", 14, 3, 0.5, seed);
            let r = solve(&inst, &BbConfig::default());
            assert!(r.proven);
            assert_eq!(r.solution.value(), brute_force(&inst), "seed {seed}");
            assert!(r.solution.is_feasible(&inst));
        }
    }

    #[test]
    fn matches_dp_on_single_constraint() {
        for seed in 0..25 {
            let inst = uncorrelated_instance("d", 40, 1, 0.5, seed);
            let bb = solve(&inst, &BbConfig::default());
            let dp = solve_single(&inst);
            assert!(bb.proven);
            assert_eq!(bb.solution.value(), dp.value(), "seed {seed}");
        }
    }

    #[test]
    fn fixing_does_not_change_optimum() {
        for seed in 0..10 {
            let inst = uncorrelated_instance("f", 25, 4, 0.5, seed);
            let with = solve(&inst, &BbConfig::default());
            let without = solve(
                &inst,
                &BbConfig {
                    use_fixing: false,
                    ..BbConfig::default()
                },
            );
            assert_eq!(
                with.solution.value(),
                without.solution.value(),
                "seed {seed}"
            );
            assert!(with.proven && without.proven);
        }
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        let inst = fp_instance(30);
        let r = solve(
            &inst,
            &BbConfig {
                node_limit: 5,
                use_fixing: false,
                ..BbConfig::default()
            },
        );
        // Must still return a feasible incumbent even when truncated.
        assert!(r.solution.is_feasible(&inst));
        assert!(r.nodes <= 6);
    }

    #[test]
    fn root_lp_dominates_optimum() {
        for seed in 0..10 {
            let inst = uncorrelated_instance("l", 18, 3, 0.5, seed);
            let r = solve(&inst, &BbConfig::default());
            assert!(r.root_lp + 1e-6 >= r.solution.value() as f64);
        }
    }

    #[test]
    fn solves_fp_style_instance() {
        // A mid-size FP instance should be provable quickly.
        let inst = fp_instance(20);
        let r = solve(&inst, &BbConfig::default());
        assert!(r.proven, "FP21 not proven in node limit");
        assert!(r.solution.value() > 0);
    }

    #[test]
    fn prop_bb_matches_brute_force() {
        prop_check!(
            cases = 16,
            |rng| (rng.next_u64(), gen::usize_in(rng, 1, 5)),
            |input| {
                let (seed, m) = *input;
                if m < 1 {
                    return; // shrinking may zero the constraint count
                }
                let inst = uncorrelated_instance("p", 12, m, 0.5, seed);
                let r = solve(&inst, &BbConfig::default());
                assert!(r.proven);
                assert_eq!(r.solution.value(), brute_force(&inst));
            }
        );
    }

    #[test]
    fn matches_sequential_dfs() {
        for seed in 0..10 {
            let inst = uncorrelated_instance("par", 22, 3, 0.5, seed);
            let seq = solve(&inst, &BbConfig::default());
            for workers in [1usize, 2, 4] {
                let par = solve_parallel(&inst, &BbConfig::default(), workers);
                assert!(par.proven, "seed {seed} workers {workers}");
                assert_eq!(
                    par.solution.value(),
                    seq.solution.value(),
                    "seed {seed} workers {workers}"
                );
            }
        }
    }

    #[test]
    fn matches_on_fp_sample() {
        for k in [0usize, 5, 20, 36, 41] {
            let inst = fp_instance(k);
            let seq = solve(&inst, &BbConfig::default());
            let par = solve_parallel(&inst, &BbConfig::default(), 4);
            assert!(par.proven, "{}", inst.name());
            assert_eq!(
                par.solution.value(),
                seq.solution.value(),
                "{}",
                inst.name()
            );
        }
    }

    #[test]
    fn non_power_of_two_workers_rounded() {
        let inst = uncorrelated_instance("rw", 18, 3, 0.5, 3);
        let seq = solve(&inst, &BbConfig::default());
        for workers in [3usize, 5, 6] {
            let par = solve_parallel(&inst, &BbConfig::default(), workers);
            assert!(par.proven);
            assert_eq!(par.solution.value(), seq.solution.value());
        }
    }

    /// The cells of 4,096 workers run once each on at most the host's
    /// parallelism in threads; one cell runs on the calling thread.
    #[test]
    fn cells_run_once_each_on_at_most_the_hosts_threads() {
        let parallelism = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        for cells in [1usize, 2, 1 << 12] {
            let runs: Vec<AtomicUsize> = (0..cells).map(|_| AtomicUsize::new(0)).collect();
            let threads = Mutex::new(HashSet::new());
            for_each_cell(cells, |cell| {
                runs[cell].fetch_add(1, Ordering::Relaxed);
                threads.lock().unwrap().insert(std::thread::current().id());
            });
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "{cells} cells"
            );
            let threads = threads.into_inner().unwrap();
            assert!(
                threads.len() <= cells.min(parallelism),
                "{cells} cells ran on {} threads, parallelism {parallelism}",
                threads.len()
            );
            if cells == 1 {
                assert!(threads.contains(&std::thread::current().id()));
            }
        }
    }

    /// 4,096 workers split an FP instance into up to 4,096 cells; they run
    /// on at most the host's parallelism in threads and prove `solve`'s
    /// optimum.
    #[test]
    fn thousands_of_workers_prove_the_optimum_on_a_bounded_pool() {
        let inst = fp_instance(20);
        let seq = solve(&inst, &BbConfig::default());
        let par = solve_parallel(&inst, &BbConfig::default(), 1 << 12);
        assert!(seq.proven && par.proven, "{}", inst.name());
        assert_eq!(
            par.solution.value(),
            seq.solution.value(),
            "{}",
            inst.name()
        );
        assert!(par.solution.is_feasible(&inst));
    }

    /// 4,096 workers split GK 40×5 into 4,096 cells, whose proofs take more
    /// nodes together than one search needs. Drawing on one shared budget,
    /// they prove the optimum within the default node limit; an even share
    /// per cell, 24,414 nodes, left the proof unfinished.
    #[test]
    fn many_cells_prove_within_one_shared_node_limit() {
        let inst = gk_instance(
            "g",
            GkSpec {
                n: 40,
                m: 5,
                tightness: 0.5,
                seed: 7,
            },
        );
        let one = solve_parallel(&inst, &BbConfig::default(), 1);
        assert!(one.proven);
        assert_eq!((one.solution.value(), one.nodes), (16_619, 13_964));
        let many = solve_parallel(&inst, &BbConfig::default(), 1 << 12);
        assert!(many.proven, "{} nodes", many.nodes);
        assert_eq!(many.solution.value(), 16_619);
        assert!(many.nodes <= BbConfig::default().node_limit);
    }

    #[test]
    fn node_limit_truncates_gracefully() {
        let inst = fp_instance(38);
        let r = solve_parallel(
            &inst,
            &BbConfig {
                node_limit: 8,
                ..BbConfig::default()
            },
            4,
        );
        assert!(r.solution.is_feasible(&inst));
    }

    #[test]
    fn solution_always_feasible_and_consistent() {
        for seed in 0..5 {
            let inst = uncorrelated_instance("fc", 20, 4, 0.5, seed);
            let r = solve_parallel(&inst, &BbConfig::default(), 4);
            assert!(r.solution.is_feasible(&inst));
            assert!(r.solution.check_consistent(&inst));
        }
    }

    /// `solve` explores the same tree as when these were recorded: the
    /// optimum and node count of five Fréville–Plateau instances.
    #[test]
    fn fp_values_and_node_counts_are_pinned() {
        let pins = [
            (5, 1335, 6157),
            (20, 1088, 4409),
            (36, 1862, 163_348),
            (41, 1079, 11_884),
            (56, 2467, 244_443),
        ];
        for (k, value, nodes) in pins {
            let inst = fp_instance(k);
            let r = solve(&inst, &BbConfig::default());
            assert!(r.proven, "{}", inst.name());
            assert_eq!(
                (r.solution.value(), r.nodes),
                (value, nodes),
                "{}",
                inst.name()
            );
        }
    }

    #[test]
    fn one_worker_is_the_sequential_search() {
        let truncated = BbConfig {
            node_limit: 40,
            ..BbConfig::default()
        };
        let unfixed = BbConfig {
            use_fixing: false,
            ..BbConfig::default()
        };
        for cfg in [BbConfig::default(), truncated, unfixed] {
            for seed in 0..8 {
                let inst = uncorrelated_instance("one", 26, 4, 0.5, seed);
                let seq = solve(&inst, &cfg);
                let one = solve_parallel(&inst, &cfg, 1);
                assert_eq!(one.solution.bits(), seq.solution.bits(), "seed {seed}");
                assert_eq!(one.solution.value(), seq.solution.value(), "seed {seed}");
                assert_eq!(one.proven, seq.proven, "seed {seed}");
                assert_eq!(one.nodes, seq.nodes, "seed {seed}");
                assert_eq!(one.root_lp.to_bits(), seq.root_lp.to_bits(), "seed {seed}");
                assert_eq!(one.fixed_at_root, seq.fixed_at_root, "seed {seed}");
            }
        }
    }
}
