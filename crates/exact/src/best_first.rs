//! Best-first branch & bound.
//!
//! The depth-first solver in [`crate::branch_bound`] is memory-frugal but
//! explores subtrees the bound would discard given a better incumbent;
//! best-first expansion always works on the open node with the highest
//! surrogate bound, so it expands a *minimal* set of nodes for the given
//! bound function — at the price of an open list that can grow large. Both
//! solvers share the surrogate machinery and must agree exactly, which the
//! tests exploit as a cross-validation oracle.

use crate::branch_bound::{BbConfig, BbResult, Root};
use mkp::{BitVec, Instance, Solution};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;

/// An open node: decisions made for `order[..k]`, packed items in `bits`.
struct Node {
    bound: f64,
    k: usize,
    bits: BitVec,
    value: i64,
    loads: Vec<i64>,
    s_remaining: i64,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by bound; deeper node first on ties (cheaper to close).
        self.bound
            .total_cmp(&other.bound)
            .then(self.k.cmp(&other.k))
    }
}

/// Cap on the open list; beyond it the proof is abandoned (truncated
/// result) rather than exhausting memory.
const MAX_OPEN: usize = 2_000_000;

/// Solve by best-first expansion. Semantics match
/// [`crate::branch_bound::solve`] (same root, same bound, same branching
/// order), without reduced-cost fixing.
pub fn solve_best_first(inst: &Instance, cfg: &BbConfig) -> BbResult {
    let unfixed = BbConfig {
        use_fixing: false,
        ..cfg.clone()
    };
    let Root {
        mut incumbent,
        root_lp,
        surrogate,
        order,
        ..
    } = match Root::new(inst, &unfixed, None) {
        ControlFlow::Continue(root) => root,
        ControlFlow::Break(proven) => return proven,
    };

    let root_bound = surrogate.dantzig_suffix(inst, &order, surrogate.capacity);
    let mut open = BinaryHeap::new();
    open.push(Node {
        bound: root_bound,
        k: 0,
        bits: BitVec::zeros(inst.n()),
        value: 0,
        loads: vec![0; inst.m()],
        s_remaining: surrogate.capacity,
    });

    let mut nodes = 0u64;
    let mut best_value = incumbent.value();
    let mut best_bits: Option<BitVec> = None;
    let mut truncated = false;

    while let Some(node) = open.pop() {
        nodes += 1;
        if nodes > cfg.node_limit || open.len() > MAX_OPEN {
            truncated = true;
            break;
        }
        // Best-first invariant: once the best open bound cannot beat the
        // incumbent, the proof is complete.
        if node.bound < best_value as f64 + 1.0 - 1e-6 {
            break;
        }
        if node.k == order.len() {
            continue; // leaf; value already accounted below via children
        }
        let j = order[node.k];

        // Child 1: take item j when it fits.
        let fits = node
            .loads
            .iter()
            .zip(inst.item_weights(j))
            .zip(inst.capacities())
            .all(|((&l, &a), &b)| l + a <= b);
        if fits {
            let mut bits = node.bits.clone();
            bits.set(j, true);
            let mut loads = node.loads.clone();
            for (l, &a) in loads.iter_mut().zip(inst.item_weights(j)) {
                *l += a;
            }
            let value = node.value + inst.profit(j);
            let s_remaining = node.s_remaining - surrogate.weights[j];
            if value > best_value {
                best_value = value;
                best_bits = Some(bits.clone());
            }
            let bound =
                value as f64 + surrogate.dantzig_suffix(inst, &order[node.k + 1..], s_remaining);
            if bound >= best_value as f64 + 1.0 - 1e-6 {
                open.push(Node {
                    bound,
                    k: node.k + 1,
                    bits,
                    value,
                    loads,
                    s_remaining,
                });
            }
        }

        // Child 0: skip item j.
        let bound = node.value as f64
            + surrogate.dantzig_suffix(inst, &order[node.k + 1..], node.s_remaining);
        if bound >= best_value as f64 + 1.0 - 1e-6 {
            open.push(Node {
                bound,
                k: node.k + 1,
                bits: node.bits,
                value: node.value,
                loads: node.loads,
                s_remaining: node.s_remaining,
            });
        }
    }

    if let Some(bits) = best_bits {
        incumbent = Solution::from_bits(inst, bits);
    }
    debug_assert!(incumbent.is_feasible(inst));
    BbResult {
        solution: incumbent,
        proven: !truncated,
        nodes,
        root_lp,
        fixed_at_root: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::solve;
    use mkp::generate::{fp_instance, uncorrelated_instance};

    #[test]
    fn agrees_with_dfs_on_random_instances() {
        for seed in 0..15 {
            let inst = uncorrelated_instance("bf", 22, 3, 0.5, seed);
            let dfs = solve(&inst, &BbConfig::default());
            let bfs = solve_best_first(&inst, &BbConfig::default());
            assert!(dfs.proven && bfs.proven);
            assert_eq!(
                dfs.solution.value(),
                bfs.solution.value(),
                "strategies disagree on seed {seed}"
            );
        }
    }

    #[test]
    fn agrees_on_fp_sample() {
        for k in [0usize, 3, 11, 20, 41] {
            let inst = fp_instance(k);
            let dfs = solve(&inst, &BbConfig::default());
            let bfs = solve_best_first(&inst, &BbConfig::default());
            assert!(dfs.proven && bfs.proven, "{}", inst.name());
            assert_eq!(
                dfs.solution.value(),
                bfs.solution.value(),
                "{}",
                inst.name()
            );
        }
    }

    #[test]
    fn best_first_expands_no_more_nodes_with_same_bound() {
        // Best-first is node-minimal for a fixed bound function up to
        // tie-breaking; it should rarely (and never dramatically) expand
        // more nodes than DFS *without* warm starts. Allow slack for ties.
        let mut bfs_wins = 0;
        let trials = 10;
        for seed in 100..100 + trials {
            let inst = uncorrelated_instance("nm", 20, 3, 0.5, seed);
            let cfg = BbConfig {
                use_fixing: false,
                ..BbConfig::default()
            };
            let dfs = solve(&inst, &cfg);
            let bfs = solve_best_first(&inst, &cfg);
            assert!(dfs.proven && bfs.proven);
            if bfs.nodes <= dfs.nodes {
                bfs_wins += 1;
            }
        }
        assert!(
            bfs_wins * 2 >= trials,
            "best-first lost the node count on most instances ({bfs_wins}/{trials})"
        );
    }

    #[test]
    fn node_limit_truncates_gracefully() {
        let inst = fp_instance(38); // PB7-like, non-trivial
        let r = solve_best_first(
            &inst,
            &BbConfig {
                node_limit: 10,
                ..BbConfig::default()
            },
        );
        assert!(r.solution.is_feasible(&inst));
        // Either proven trivially at the root or truncated at the limit.
        assert!(r.proven || r.nodes >= 10);
    }

    #[test]
    fn feasible_solution_always_returned() {
        for seed in 0..5 {
            let inst = uncorrelated_instance("f", 18, 4, 0.5, seed);
            let r = solve_best_first(&inst, &BbConfig::default());
            assert!(r.solution.is_feasible(&inst));
            assert!(r.solution.check_consistent(&inst));
        }
    }
}
