//! Intensification kernels run on the best solution of the last
//! local-search loop (paper Fig. 1, step 11). Every kernel only ever keeps
//! a strict improvement, so each one leaves the solution feasible and no
//! worse. Costs are per pass; a kernel repeats its pass until one finds
//! nothing.
//!
//! Every refill is one [`DynamicFill`]: a pass over the weight-level
//! index that ANDs at most one ⌈n/64⌉-word bitset per constraint, a
//! ⌈m/4⌉-word lane test of each of the S items that survive it, then per
//! step an O(m) utility for each of the F items that fit, and per add an
//! O(m) residual sync and a lane re-test of those F. So a refill costs
//! O(m·n/64 + S·m + adds · F·m), and F only shrinks. In the chain's
//! refills from the L2 (100×2500) greedy start S averages 26 and F 17.8.
//!
//! * [`swap_intensification`] — the paper's component swapping (§3.2,
//!   first procedure): exchange a packed item for a more profitable
//!   unpacked one whenever the exchange keeps the knapsack feasible.
//!   O(|packed| · (m + n·⌈m/4⌉)) at worst, with O(m/4) the lane fits test;
//!   the profit-ordered entrant scan usually stops far earlier.
//! * [`lateral_swap_fill`] — equal-profit, strictly lighter 1-1 swaps that
//!   free capacity, then one dynamic refill. O(|packed| · (m + n)) plus
//!   the refill: weights are only read for the rare profit ties.
//! * [`drop_refill_intensification`] — expel one packed item and rebuild
//!   greedily (one-for-many trades). O(|packed| · (n/64 + m)) plus one
//!   refill per expelled item.
//! * [`ejection_chain_over`] — Glover's bounded ejection chain
//!   (many-for-one trades). Each tried entrant costs an O(m) fits test;
//!   each ejection step O(m + |V|·|packed|) for its violated constraints
//!   V, as array operations over a cache of the packed items' weights,
//!   profits and indices, rebuilt in O(m·(n/64 + |packed|)) after an
//!   improvement; and a successful chain one refill. Its refills read
//!   the lane columns of the search's view;
//!   [`ejection_chain_intensification`] is the same chain for a caller
//!   that holds no view, packing the columns and level index per call in
//!   O(n·m).
//!
//! The fifth kernel, strategic oscillation, lives in
//! [`crate::oscillate`].

use crate::moves::MoveStats;
use mkp::eval::Ratios;
use mkp::greedy::DynamicFill;
use mkp::soa::{LaneColumns, ResidualLanes};
use mkp::{Instance, Solution};

/// Apply all profitable feasible 1-1 swaps to `sol`, repeating until a full
/// pass finds none. Returns the number of swaps applied.
///
/// Every swap strictly increases the objective, so termination is bounded by
/// the profit sum; in practice a couple of passes suffice.
///
/// The entrant scan walks the precomputed profit-descending order and stops
/// at the first fitting item — identical winner to the full scan (max profit,
/// ties to the lowest index) at a fraction of the candidate checks. The
/// legacy full-scan evaluation count is preserved in `stats` so budget
/// accounting is bit-identical to the scalar implementation.
pub fn swap_intensification(
    inst: &Instance,
    ratios: &Ratios,
    sol: &mut Solution,
    stats: &mut MoveStats,
) -> usize {
    let view = ratios.view();
    let mut lanes = ResidualLanes::new();
    let mut swaps = 0;
    loop {
        let mut improved = false;
        // Snapshot the packed set: the inner loops mutate `sol`.
        let packed = sol.bits().ones();
        for &out in &packed {
            if !sol.contains(out) {
                continue; // already swapped away in this pass
            }
            let c_out = inst.profit(out);
            // Tentatively remove, then look for the best profitable entrant.
            sol.drop(inst, out);
            // The full scan evaluated every unpacked item except `out`.
            stats.candidate_evals += (inst.n() - sol.cardinality() - 1) as u64;
            lanes.sync(view.lanes(), inst, sol);
            let mut entrant: Option<usize> = None;
            for &j in view.by_profit_desc() {
                if inst.profit(j) <= c_out {
                    break; // profits only descend from here: no entrant left
                }
                if sol.contains(j) || j == out {
                    continue;
                }
                if lanes.fits(view.lanes(), inst, sol, j) {
                    entrant = Some(j);
                    break;
                }
            }
            match entrant {
                Some(j) => {
                    sol.add(inst, j);
                    swaps += 1;
                    improved = true;
                }
                None => sol.add(inst, out), // undo the tentative drop
            }
        }
        if !improved {
            break;
        }
    }
    swaps
}

/// Lateral swap pass: exchange a packed item against an unpacked one of
/// **equal profit but strictly smaller total weight**, then refill greedily.
///
/// A lateral swap never changes the objective by itself — it frees capacity,
/// and the refill converts that capacity into value. This is the move that
/// cracks "last unit of capacity" situations where every profitable 1-1
/// swap is exhausted but the optimum differs by one additional small item.
/// The total-load potential strictly decreases per swap, so the pass
/// terminates. Returns `true` when the refill improved the objective.
pub fn lateral_swap_fill(
    inst: &Instance,
    ratios: &Ratios,
    sol: &mut Solution,
    stats: &mut MoveStats,
) -> bool {
    let view = ratios.view();
    let mut lanes = ResidualLanes::new();
    let before = sol.value();
    loop {
        let mut swapped = false;
        let packed = sol.bits().ones();
        for &out in &packed {
            if !sol.contains(out) {
                continue;
            }
            let c_out = inst.profit(out);
            let w_out = inst.item_weight_sum(out);
            sol.drop(inst, out);
            // Bulk-count the full scan's per-candidate evaluations, then
            // filter on the (rare) profit tie before touching the weights.
            stats.candidate_evals += (inst.n() - sol.cardinality() - 1) as u64;
            lanes.sync(view.lanes(), inst, sol);
            let mut best_in: Option<(usize, i64)> = None;
            for j in 0..inst.n() {
                if sol.contains(j) || j == out || inst.profit(j) != c_out {
                    continue;
                }
                if lanes.fits(view.lanes(), inst, sol, j) {
                    let w_in = inst.item_weight_sum(j);
                    if w_in < w_out && best_in.is_none_or(|(_, w)| w_in < w) {
                        best_in = Some((j, w_in));
                    }
                }
            }
            match best_in {
                Some((j, _)) => {
                    sol.add(inst, j);
                    swapped = true;
                }
                None => sol.add(inst, out),
            }
        }
        if !swapped {
            break;
        }
    }
    mkp::greedy::dynamic_greedy_fill(inst, ratios, sol);
    debug_assert!(sol.is_feasible(inst));
    sol.value() > before
}

/// Drop-and-refill pass: for each packed item, tentatively expel it and
/// rebuild greedily; keep the rebuild when it strictly beats the original.
///
/// This explores all 1-to-many exchanges reachable by the greedy fill —
/// the "one big item vs several small ones" trades that neither profitable
/// nor lateral 1-1 swaps can see. One refill per packed item per pass, by
/// [`DynamicFill`] with the expelled item left out (otherwise the fill just
/// restores the status quo), over the view's lane columns.
///
/// Each refill step is charged one evaluation per unpacked item other than
/// the expelled one, the last step (which finds nothing) included, as the
/// full scan of every candidate was: `(A+1)·u0 − A(A+1)/2` for `A` adds,
/// with `u0` the candidates of the first step.
pub fn drop_refill_intensification(
    inst: &Instance,
    ratios: &Ratios,
    sol: &mut Solution,
    stats: &mut MoveStats,
) -> usize {
    let lanes = ratios.view().lanes();
    let mut fill = DynamicFill::new(inst);
    let mut trial = sol.clone();
    let mut improvements = 0;
    loop {
        let mut improved = false;
        for out in sol.bits().ones() {
            if !sol.contains(out) {
                continue;
            }
            trial.clone_from(sol);
            trial.drop(inst, out);
            let u0 = (inst.n() - trial.cardinality() - 1) as u64;
            let adds = fill.run(inst, lanes, &mut trial, Some(out)) as u64;
            stats.candidate_evals += (adds + 1) * u0 - adds * (adds + 1) / 2;
            if trial.value() > sol.value() {
                sol.clone_from(&trial);
                improvements += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    debug_assert!(sol.is_feasible(inst));
    improvements
}

/// Bounded ejection-chain pass (Glover): for each unpacked item that does
/// not fit, eject up to `max_eject` packed items that press hardest on its
/// violated constraints, insert it, refill dynamically, and keep the result
/// when it strictly improves. Explores many-for-one trades that
/// [`drop_refill_intensification`] (one-for-many) cannot reach.
///
/// A victim's pressure is its weight summed over the violated constraints
/// V only, divided by its profit (at least 1). `sol`'s packed items are
/// cached as f64 runs in ascending item order ([`PackedItems`]): one
/// weight run per constraint, the profits and the indices, rebuilt after
/// each improvement. A step adds the weight runs of the rows in V, in
/// ascending order, into the pressure run, zeroes the pressures of the
/// items ejected earlier in the chain, divides by the profit run element
/// by element and takes the first strict maximum above 0. Every item's
/// score adds the same terms in the same order from 0.0 and divides by
/// the same profit, so each score, and with it every choice, is the full
/// scan's to the bit; an ejected item scores 0 and never wins. A step
/// counts `|packed|` candidate evaluations over the trial solution, as the
/// per-item scan did, and costs O(m + |V|·|packed|); the refill is
/// [`DynamicFill`] over `lanes`, which must be `inst`'s (the search passes
/// its view's).
///
/// The trial solution and every buffer are reused across entrants, so a
/// call allocates at most six buffers, whatever n is (eight through
/// [`ejection_chain_intensification`], which also packs the lanes).
pub fn ejection_chain_over(
    inst: &Instance,
    lanes: &LaneColumns,
    sol: &mut Solution,
    stats: &mut MoveStats,
    max_eject: usize,
) -> usize {
    let mut fill = DynamicFill::new(inst);
    let mut trial = sol.clone();
    let mut cache = PackedItems::new(inst);
    cache.rebuild(inst, sol);
    let mut improvements = 0;
    loop {
        let mut improved = false;
        for j in 0..inst.n() {
            if sol.contains(j) || sol.fits(inst, j) {
                continue; // fitting items are the greedy fill's business
            }
            trial.clone_from(sol);
            let mut ejected = 0;
            let fits = loop {
                if ejected == max_eject {
                    break false;
                }
                // Eject the packed item pressing hardest (weight per unit
                // profit) on the constraints item j currently violates.
                stats.candidate_evals += (cache.packed - ejected) as u64;
                let Some(pos) = cache.victim(inst, &trial, j, ejected) else {
                    break false; // violation not caused by packed items
                };
                trial.drop(inst, cache.item(pos));
                cache.eject(ejected, pos);
                ejected += 1;
                if trial.fits(inst, j) {
                    break true;
                }
            };
            if !fits {
                continue;
            }
            trial.add(inst, j);
            fill.run(inst, lanes, &mut trial, None);
            if trial.value() > sol.value() {
                std::mem::swap(sol, &mut trial);
                cache.rebuild(inst, sol);
                improvements += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    debug_assert!(sol.is_feasible(inst));
    improvements
}

/// [`ejection_chain_over`] for a caller that holds no view: packs `inst`'s
/// lane columns and level index, in O(n·m), for this one call.
pub fn ejection_chain_intensification(
    inst: &Instance,
    sol: &mut Solution,
    stats: &mut MoveStats,
    max_eject: usize,
) -> usize {
    ejection_chain_over(inst, &LaneColumns::new(inst), sol, stats, max_eject)
}

/// A solution's packed items as the ejection chain scores them: one f64
/// buffer of `m + 4` runs, each `packed` long and in ascending item order.
/// Runs `0..m` hold the weights against each constraint, then come the
/// profits (at least 1), the item indices, the pressure scratch, and the
/// positions ejected so far in the current chain. Indices and positions
/// are below n, so f64 holds them exactly.
struct PackedItems {
    buf: Vec<f64>,
    m: usize,
    packed: usize,
}

impl PackedItems {
    /// Room for any solution of `inst`: a rebuild never grows the buffer.
    fn new(inst: &Instance) -> Self {
        PackedItems {
            buf: Vec::with_capacity(inst.n() * (inst.m() + 4)),
            m: inst.m(),
            packed: 0,
        }
    }

    /// Cache `sol`'s packed items, in O(m·(n/64 + |packed|)).
    fn rebuild(&mut self, inst: &Instance, sol: &Solution) {
        let packed = || sol.bits().iter_ones();
        self.buf.clear();
        for i in 0..self.m {
            let row = inst.constraint_row(i);
            self.buf.extend(packed().map(|k| row[k] as f64));
        }
        self.buf
            .extend(packed().map(|k| inst.profit(k).max(1) as f64));
        self.buf.extend(packed().map(|k| k as f64));
        self.packed = sol.cardinality();
        self.buf.resize((self.m + 4) * self.packed, 0.0);
    }

    /// The item at position `pos`.
    fn item(&self, pos: usize) -> usize {
        self.buf[(self.m + 1) * self.packed + pos] as usize
    }

    /// Record `pos` as the chain's `nth` ejection.
    fn eject(&mut self, nth: usize, pos: usize) {
        self.buf[(self.m + 3) * self.packed + nth] = pos as f64;
    }

    /// The position of the packed item pressing hardest on the
    /// constraints that adding `j` to `trial` violates: the first strict
    /// maximum above 0 of pressure per unit profit, the `ejected` items of
    /// the chain so far scoring 0. `None` when every score is 0.
    fn victim(
        &mut self,
        inst: &Instance,
        trial: &Solution,
        j: usize,
        ejected: usize,
    ) -> Option<usize> {
        let (p, m) = (self.packed, self.m);
        let (weights, rest) = self.buf.split_at_mut(m * p);
        let (profits, rest) = rest.split_at_mut(p);
        let (_indices, rest) = rest.split_at_mut(p);
        let (pressure, positions) = rest.split_at_mut(p);
        pressure.fill(0.0);
        let rows = trial
            .loads()
            .iter()
            .zip(inst.item_weights(j))
            .zip(inst.capacities());
        for (i, ((&load, &a), &cap)) in rows.enumerate() {
            if load + a > cap {
                for (q, &w) in pressure.iter_mut().zip(&weights[i * p..(i + 1) * p]) {
                    *q += w;
                }
            }
        }
        for &pos in &positions[..ejected] {
            pressure[pos as usize] = 0.0;
        }
        for (q, &c) in pressure.iter_mut().zip(profits.iter()) {
            *q /= c;
        }
        let mut victim = None;
        let mut best = 0.0;
        for (pos, &score) in pressure.iter().enumerate() {
            if score > best {
                victim = Some(pos);
                best = score;
            }
        }
        victim
    }
}

/// [`ejection_chain_intensification`] as it was before violated-row
/// scoring: every step scores each packed item over all `m` constraints,
/// and every tried entrant clones the solution. The oracle the kernel is
/// held to (the refill is checked against its own oracle in `mkp`).
#[cfg(test)]
fn ejection_chain_reference(
    inst: &Instance,
    sol: &mut Solution,
    stats: &mut MoveStats,
    max_eject: usize,
) -> usize {
    let mut improvements = 0;
    loop {
        let mut improved = false;
        for j in 0..inst.n() {
            if sol.contains(j) || sol.fits(inst, j) {
                continue; // fitting items are the greedy fill's business
            }
            let mut trial = sol.clone();
            let mut ejected = 0;
            while !trial.fits(inst, j) && ejected < max_eject {
                // Eject the packed item pressing hardest (weight per unit
                // profit) on the constraints item j currently violates.
                let mut victim: Option<(usize, f64)> = None;
                for k in trial.bits().iter_ones() {
                    stats.candidate_evals += 1;
                    let mut pressure = 0.0f64;
                    for (i, &aj) in inst.item_weights(j).iter().enumerate() {
                        if trial.load(i) + aj > inst.capacity(i) {
                            pressure += inst.weight(i, k) as f64;
                        }
                    }
                    let score = pressure / inst.profit(k).max(1) as f64;
                    if score > 0.0 && victim.is_none_or(|(_, s)| score > s) {
                        victim = Some((k, score));
                    }
                }
                match victim {
                    Some((k, _)) => {
                        trial.drop(inst, k);
                        ejected += 1;
                    }
                    None => break, // violation not caused by packed items
                }
            }
            if !trial.fits(inst, j) {
                continue;
            }
            trial.add(inst, j);
            DynamicFill::new(inst).run(inst, &LaneColumns::new(inst), &mut trial, None);
            if trial.value() > sol.value() {
                *sol = trial;
                improvements += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    debug_assert!(sol.is_feasible(inst));
    improvements
}

/// [`drop_refill_intensification`] as it was before its refill ran
/// through [`DynamicFill`]: every refill step scans every unpacked item but
/// the expelled one with [`Solution::fits`], counting one evaluation each.
/// The oracle the kernel is held to; it shares no cache with it.
#[cfg(test)]
fn drop_refill_reference(inst: &Instance, sol: &mut Solution, stats: &mut MoveStats) -> usize {
    let mut trial = sol.clone();
    let mut improvements = 0;
    loop {
        let mut improved = false;
        for out in sol.bits().ones() {
            if !sol.contains(out) {
                continue;
            }
            trial.clone_from(sol);
            trial.drop(inst, out);
            loop {
                let mut best: Option<(usize, f64)> = None;
                for j in 0..inst.n() {
                    if j == out || trial.contains(j) {
                        continue;
                    }
                    stats.candidate_evals += 1;
                    if !trial.fits(inst, j) {
                        continue;
                    }
                    let u = mkp::greedy::dynamic_utility(inst, &trial, j);
                    if best.is_none_or(|(_, bu)| u > bu) {
                        best = Some((j, u));
                    }
                }
                match best {
                    Some((j, _)) => trial.add(inst, j),
                    None => break,
                }
            }
            if trial.value() > sol.value() {
                sol.clone_from(&trial);
                improvements += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    debug_assert!(sol.is_feasible(inst));
    improvements
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkp::eval::Ratios;
    use mkp::generate::{gk_instance, large_instance, uncorrelated_instance, GkSpec, LargeSpec};
    use mkp::greedy::random_feasible;
    use mkp::prop_check;
    use mkp::testkit::gen;
    use mkp::{BitVec, Instance, Xoshiro256};

    #[test]
    fn swap_improves_suboptimal_solution() {
        // Items: profit 1 (light) packed, profit 10 (same weight) outside.
        let inst = Instance::new("s", 2, 1, vec![1, 10], vec![3, 3], vec![3]).unwrap();
        let ratios = Ratios::new(&inst);
        let mut sol = Solution::from_bits(&inst, BitVec::from_bools([true, false]));
        let mut stats = MoveStats::default();
        let swaps = swap_intensification(&inst, &ratios, &mut sol, &mut stats);
        assert_eq!(swaps, 1);
        assert_eq!(sol.value(), 10);
        assert!(sol.contains(1) && !sol.contains(0));
    }

    #[test]
    fn no_swap_when_already_best() {
        let inst = Instance::new("b", 2, 1, vec![10, 1], vec![3, 3], vec![3]).unwrap();
        let ratios = Ratios::new(&inst);
        let mut sol = Solution::from_bits(&inst, BitVec::from_bools([true, false]));
        let v = sol.value();
        assert_eq!(
            swap_intensification(&inst, &ratios, &mut sol, &mut MoveStats::default()),
            0
        );
        assert_eq!(sol.value(), v);
    }

    #[test]
    fn respects_feasibility() {
        // Higher-profit item is too heavy to swap in.
        let inst = Instance::new("f", 2, 1, vec![5, 50], vec![2, 10], vec![4]).unwrap();
        let ratios = Ratios::new(&inst);
        let mut sol = Solution::from_bits(&inst, BitVec::from_bools([true, false]));
        assert_eq!(
            swap_intensification(&inst, &ratios, &mut sol, &mut MoveStats::default()),
            0
        );
        assert!(sol.contains(0));
    }

    #[test]
    fn never_decreases_value_and_stays_feasible() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        for seed in 0..10 {
            let inst = uncorrelated_instance("r", 30, 3, 0.5, seed);
            let ratios = Ratios::new(&inst);
            let mut sol = random_feasible(&inst, &mut rng);
            let before = sol.value();
            swap_intensification(&inst, &ratios, &mut sol, &mut MoveStats::default());
            assert!(sol.value() >= before);
            assert!(sol.is_feasible(&inst));
            assert!(sol.check_consistent(&inst));
        }
    }

    #[test]
    fn multi_pass_chains_swaps() {
        // Swapping 0→1 frees weight that lets a later pass swap 2→3.
        let inst = Instance::new("c", 4, 1, vec![2, 6, 3, 7], vec![4, 2, 4, 6], vec![8]).unwrap();
        let ratios = Ratios::new(&inst);
        let mut sol = Solution::from_bits(&inst, BitVec::from_bools([true, false, true, false]));
        let mut stats = MoveStats::default();
        let swaps = swap_intensification(&inst, &ratios, &mut sol, &mut stats);
        assert!(swaps >= 2, "expected chained swaps, got {swaps}");
        assert_eq!(sol.value(), 13); // items 1 and 3
    }

    #[test]
    fn lateral_swap_frees_capacity_for_refill() {
        // Items: 0 (profit 5, weight 4, packed) and 1 (profit 5, weight 2).
        // Swapping 0→1 frees 2 units, letting item 2 (profit 1, weight 2) in.
        let inst = Instance::new("lat", 3, 1, vec![5, 5, 1], vec![4, 2, 2], vec![4]).unwrap();
        let ratios = Ratios::new(&inst);
        let mut sol = Solution::from_bits(&inst, BitVec::from_bools([true, false, false]));
        let improved = lateral_swap_fill(&inst, &ratios, &mut sol, &mut MoveStats::default());
        assert!(improved);
        assert_eq!(sol.value(), 6);
        assert!(sol.contains(1) && sol.contains(2) && !sol.contains(0));
    }

    #[test]
    fn lateral_swap_noop_without_equal_profits() {
        let inst = Instance::new("ne", 2, 1, vec![5, 4], vec![4, 2], vec![4]).unwrap();
        let ratios = Ratios::new(&inst);
        let mut sol = Solution::from_bits(&inst, BitVec::from_bools([true, false]));
        let improved = lateral_swap_fill(&inst, &ratios, &mut sol, &mut MoveStats::default());
        assert!(!improved);
        assert!(sol.contains(0));
    }

    #[test]
    fn lateral_swap_never_decreases_value() {
        let mut rng = Xoshiro256::seed_from_u64(17);
        for seed in 0..10 {
            let inst = uncorrelated_instance("l", 40, 3, 0.5, seed);
            let ratios = Ratios::new(&inst);
            let mut sol = random_feasible(&inst, &mut rng);
            let before = sol.value();
            lateral_swap_fill(&inst, &ratios, &mut sol, &mut MoveStats::default());
            assert!(sol.value() >= before);
            assert!(sol.is_feasible(&inst));
            assert!(sol.check_consistent(&inst));
        }
    }

    #[test]
    fn drop_refill_finds_one_for_two_trade() {
        // Item 0 (profit 6, weight 4) blocks items 1+2 (profit 4+3, weight 2+2).
        let inst = Instance::new("dr", 3, 1, vec![6, 4, 3], vec![4, 2, 2], vec![4]).unwrap();
        let ratios = Ratios::new(&inst);
        let mut sol = Solution::from_bits(&inst, BitVec::from_bools([true, false, false]));
        let improvements =
            drop_refill_intensification(&inst, &ratios, &mut sol, &mut MoveStats::default());
        assert_eq!(improvements, 1);
        assert_eq!(sol.value(), 7);
        assert!(!sol.contains(0));
    }

    #[test]
    fn drop_refill_never_decreases_and_stays_feasible() {
        let mut rng = Xoshiro256::seed_from_u64(19);
        for seed in 0..10 {
            let inst = uncorrelated_instance("d", 40, 4, 0.5, seed);
            let ratios = Ratios::new(&inst);
            let mut sol = random_feasible(&inst, &mut rng);
            let before = sol.value();
            drop_refill_intensification(&inst, &ratios, &mut sol, &mut MoveStats::default());
            assert!(sol.value() >= before);
            assert!(sol.is_feasible(&inst));
            assert!(sol.check_consistent(&inst));
        }
    }

    #[test]
    fn drop_refill_noop_on_optimal_packing() {
        let inst = Instance::new("opt", 2, 1, vec![10, 1], vec![3, 3], vec![3]).unwrap();
        let ratios = Ratios::new(&inst);
        let mut sol = Solution::from_bits(&inst, BitVec::from_bools([true, false]));
        assert_eq!(
            drop_refill_intensification(&inst, &ratios, &mut sol, &mut MoveStats::default()),
            0
        );
        assert_eq!(sol.value(), 10);
    }

    #[test]
    fn ejection_chain_finds_two_for_one_trade() {
        // Item 2 (profit 12, weight 6) needs BOTH packed items (profit 5+5,
        // weights 3+3) ejected; no 1-1 swap or drop-refill sees the trade.
        let inst = Instance::new("ej", 3, 1, vec![5, 5, 12], vec![3, 3, 6], vec![6]).unwrap();
        let mut sol = Solution::from_bits(&inst, BitVec::from_bools([true, true, false]));
        let improvements =
            ejection_chain_intensification(&inst, &mut sol, &mut MoveStats::default(), 3);
        assert_eq!(improvements, 1);
        assert_eq!(sol.value(), 12);
        assert!(sol.contains(2));
    }

    #[test]
    fn ejection_chain_respects_eject_bound() {
        // Getting item 3 in needs all three packed items out; with
        // max_eject = 2 the chain must give up and leave the solution alone.
        let inst = Instance::new("eb", 4, 1, vec![4, 4, 4, 20], vec![2, 2, 2, 6], vec![6]).unwrap();
        let mut sol = Solution::from_bits(&inst, BitVec::from_bools([true, true, true, false]));
        let improvements =
            ejection_chain_intensification(&inst, &mut sol, &mut MoveStats::default(), 2);
        assert_eq!(improvements, 0);
        assert_eq!(sol.value(), 12);
        // With the bound raised, the trade becomes reachable.
        let improvements =
            ejection_chain_intensification(&inst, &mut sol, &mut MoveStats::default(), 3);
        assert_eq!(improvements, 1);
        assert_eq!(sol.value(), 20);
    }

    #[test]
    fn ejection_chain_never_decreases_and_stays_feasible() {
        let mut rng = Xoshiro256::seed_from_u64(23);
        for seed in 0..10 {
            let inst = uncorrelated_instance("ec", 40, 4, 0.5, seed);
            let mut sol = random_feasible(&inst, &mut rng);
            let before = sol.value();
            ejection_chain_intensification(&inst, &mut sol, &mut MoveStats::default(), 3);
            assert!(sol.value() >= before);
            assert!(sol.is_feasible(&inst));
            assert!(sol.check_consistent(&inst));
        }
    }

    /// The kernel, over the lane columns of the instance's view as the
    /// search runs it, makes the reference's choices to the bit, returns
    /// the same count and charges the same evaluations, on tied instances
    /// (zero profits, weightless items, zero capacities) from maximal and
    /// thinned random feasible starts, for every ejection bound 0–4.
    #[test]
    fn prop_ejection_chain_matches_reference() {
        prop_check!(|rng| (gen::tied_instance(rng), rng.next_u64()), |input| {
            let (inst, seed) = input;
            let ratios = Ratios::new(inst);
            let mut rng = Xoshiro256::seed_from_u64(*seed);
            let maximal = random_feasible(inst, &mut rng);
            let mut thinned = maximal.clone();
            for j in maximal.bits().iter_ones() {
                if gen::boolean(&mut rng) {
                    thinned.drop(inst, j);
                }
            }
            for start in [&maximal, &thinned] {
                for max_eject in 0..=4 {
                    let mut expected = start.clone();
                    let mut expected_stats = MoveStats::default();
                    let expected_count = ejection_chain_reference(
                        inst,
                        &mut expected,
                        &mut expected_stats,
                        max_eject,
                    );
                    let mut got = start.clone();
                    let mut got_stats = MoveStats::default();
                    let got_count = ejection_chain_over(
                        inst,
                        ratios.view().lanes(),
                        &mut got,
                        &mut got_stats,
                        max_eject,
                    );
                    assert_eq!(got.bits(), expected.bits(), "max_eject {max_eject}");
                    assert_eq!(got_count, expected_count, "max_eject {max_eject}");
                    assert_eq!(
                        got_stats.candidate_evals, expected_stats.candidate_evals,
                        "max_eject {max_eject}"
                    );
                    assert!(got.check_consistent(inst));
                }
            }
        });
    }

    /// Drop-refill makes the reference's choices to the bit, returns the
    /// same count and charges the same evaluations, on tied instances
    /// (zero profits, weightless items, zero capacities) from maximal and
    /// thinned random feasible starts.
    #[test]
    fn prop_drop_refill_matches_reference() {
        prop_check!(|rng| (gen::tied_instance(rng), rng.next_u64()), |input| {
            let (inst, seed) = input;
            let ratios = Ratios::new(inst);
            let mut rng = Xoshiro256::seed_from_u64(*seed);
            let maximal = random_feasible(inst, &mut rng);
            let mut thinned = maximal.clone();
            for j in maximal.bits().iter_ones() {
                if gen::boolean(&mut rng) {
                    thinned.drop(inst, j);
                }
            }
            for start in [&maximal, &thinned] {
                let mut expected = start.clone();
                let mut expected_stats = MoveStats::default();
                let expected_count =
                    drop_refill_reference(inst, &mut expected, &mut expected_stats);
                let mut got = start.clone();
                let mut got_stats = MoveStats::default();
                let got_count =
                    drop_refill_intensification(inst, &ratios, &mut got, &mut got_stats);
                assert_eq!(got.bits(), expected.bits());
                assert_eq!(got_count, expected_count);
                assert_eq!(got_stats.candidate_evals, expected_stats.candidate_evals);
                assert!(got.check_consistent(inst));
            }
        });
    }

    /// The benchmark-shaped instances the golden values below run on:
    /// GK 10×250, the large class at 25×500, and the large class at 50×1000
    /// with L2's tightness, whose 13 lane words end in a 2-lane tail and
    /// whose last mask word holds 40 items.
    fn golden_instances() -> [Instance; 3] {
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
        [gk, large, wide]
    }

    /// (value, improvements, candidate evaluations, bit fingerprint) from
    /// the greedy start, recorded before the ejection chain scored only the
    /// violated constraints (the 50×1000 values before the refills ran
    /// through `DynamicFill`); any change to either kernel's choices or
    /// evaluation count shows here.
    #[test]
    fn intensification_outputs_are_pinned_across_versions() {
        let expected: [[(i64, usize, u64, u64); 2]; 3] = [
            [
                (107_730, 14, 68_336, 0x279e_7453_a13f_8395),
                (106_949, 5, 41_890, 0x346f_1d6a_b5d6_75a6),
            ],
            [
                (155_252, 16, 254_942, 0x7be6_d3f4_a39f_c7d8),
                (154_455, 15, 298_460, 0x59cd_8814_d84d_9f2d),
            ],
            [
                (168_160, 37, 805_392, 0xc91a_ac78_8b65_4453),
                (166_697, 24, 1_131_593, 0xd00b_b895_776f_8dd2),
            ],
        ];
        for (inst, [ejection, drop_refill]) in golden_instances().iter().zip(expected) {
            let ratios = Ratios::new(inst);
            let start = mkp::greedy::greedy(inst, &ratios);
            let mut sol = start.clone();
            let mut stats = MoveStats::default();
            let count = ejection_chain_intensification(inst, &mut sol, &mut stats, 3);
            let got = (
                sol.value(),
                count,
                stats.candidate_evals,
                sol.bits().fingerprint(),
            );
            assert_eq!(got, ejection, "{}: ejection chain", inst.name());
            let mut sol = start;
            let mut stats = MoveStats::default();
            let count = drop_refill_intensification(inst, &ratios, &mut sol, &mut stats);
            let got = (
                sol.value(),
                count,
                stats.candidate_evals,
                sol.bits().fingerprint(),
            );
            assert_eq!(got, drop_refill, "{}: drop-refill", inst.name());
        }
    }

    #[test]
    fn counts_candidate_evaluations() {
        let inst = uncorrelated_instance("e", 20, 2, 0.5, 1);
        let ratios = Ratios::new(&inst);
        let mut sol = mkp::greedy::greedy(&inst, &ratios);
        let mut stats = MoveStats::default();
        swap_intensification(&inst, &ratios, &mut sol, &mut stats);
        assert!(stats.candidate_evals > 0);
    }
}
