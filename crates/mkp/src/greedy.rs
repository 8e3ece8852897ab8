//! Constructive heuristics: greedy fills, randomized greedy starts, and the
//! feasibility projection used by strategic oscillation and the master's
//! restart logic.

use crate::eval::Ratios;
use crate::instance::Instance;
use crate::rng::Xoshiro256;
use crate::solution::Solution;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Fill `sol` greedily: walk items in descending pseudo-utility and pack
/// every one that still fits. Starts from the current contents of `sol`
/// (pass [`Solution::empty`] for a from-scratch build). Always returns with
/// `sol` feasible **if it was feasible on entry**.
pub fn greedy_fill(inst: &Instance, ratios: &Ratios, sol: &mut Solution) {
    for &j in ratios.by_utility_desc() {
        if !sol.contains(j) && sol.fits(inst, j) {
            sol.add(inst, j);
        }
    }
}

/// From-scratch greedy solution by descending pseudo-utility.
pub fn greedy(inst: &Instance, ratios: &Ratios) -> Solution {
    let mut sol = Solution::empty(inst);
    greedy_fill(inst, ratios, &mut sol);
    sol
}

/// GRASP-style randomized greedy: at each step pick uniformly among the
/// `rcl` best-still-fitting items (restricted candidate list). `rcl = 1`
/// degenerates to the deterministic greedy. Used by the master's ISP to
/// inject fresh diverse starting solutions.
pub fn randomized_greedy(
    inst: &Instance,
    ratios: &Ratios,
    rng: &mut Xoshiro256,
    rcl: usize,
) -> Solution {
    assert!(rcl >= 1, "restricted candidate list must be non-empty");
    let mut sol = Solution::empty(inst);
    // Candidates kept in utility order; we re-scan for fitting ones each
    // round. n is at most a few hundred here, so the O(n²) worst case is
    // irrelevant next to the millions of TS moves that follow.
    let order = ratios.by_utility_desc();
    let mut packed_something = true;
    while packed_something {
        packed_something = false;
        let mut candidates: Vec<usize> = Vec::with_capacity(rcl);
        for &j in order {
            if !sol.contains(j) && sol.fits(inst, j) {
                candidates.push(j);
                if candidates.len() == rcl {
                    break;
                }
            }
        }
        if !candidates.is_empty() {
            let pick = *rng.choose(&candidates);
            sol.add(inst, pick);
            packed_something = true;
        }
    }
    sol
}

/// Dynamic (slack-aware) utility of adding item `j` to `sol`:
/// `c_j / Σ_i a_ij / (slack_i + 1)`. Unlike the static pseudo-utility it
/// re-weights each constraint by its *remaining* capacity, which matters on
/// "lumpy" instances whose weights are large relative to the capacities —
/// there the static ranking can be badly misleading.
#[inline]
pub fn dynamic_utility(inst: &Instance, sol: &Solution, j: usize) -> f64 {
    let mut norm = 0.0f64;
    for (i, &a) in inst.item_weights(j).iter().enumerate() {
        norm += a as f64 / (sol.slack(inst, i) + 1) as f64;
    }
    let c = inst.profit(j) as f64;
    if norm == 0.0 {
        f64::INFINITY
    } else {
        c / norm
    }
}

/// Saturate `sol` greedily by **dynamic** utility, recomputing the scores
/// after every insertion. O(adds · n · m) — used on the occasional paths
/// (restarts, intensification refills), not in the per-move hot loop.
pub fn dynamic_greedy_fill(inst: &Instance, sol: &mut Solution) {
    loop {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..inst.n() {
            if sol.contains(j) || !sol.fits(inst, j) {
                continue;
            }
            let u = dynamic_utility(inst, sol, j);
            if best.is_none_or(|(_, bu)| u > bu) {
                best = Some((j, u));
            }
        }
        match best {
            Some((j, _)) => sol.add(inst, j),
            None => break,
        }
    }
}

/// [`dynamic_greedy_fill`] with the word-parallel fits kernel: the residual
/// lane cache prunes non-fitting candidates four constraints at a time, and
/// the slack-aware utility is only computed for survivors. Selection is
/// bit-identical to the scalar fill — the lane check is an exact predicate
/// and the scoring path is untouched. Falls back to the scalar fill when the
/// instance's weights exceed the lane payload.
pub fn dynamic_greedy_fill_view(inst: &Instance, ratios: &Ratios, sol: &mut Solution) {
    let view = ratios.view();
    let mut lanes = crate::soa::ResidualLanes::new();
    loop {
        lanes.sync(view, inst, sol);
        if !lanes.usable(view) {
            return dynamic_greedy_fill(inst, sol);
        }
        let mut best: Option<(usize, f64)> = None;
        for j in 0..inst.n() {
            if sol.contains(j) || !lanes.fits(view, j) {
                continue;
            }
            let u = dynamic_utility(inst, sol, j);
            if best.is_none_or(|(_, bu)| u > bu) {
                best = Some((j, u));
            }
        }
        match best {
            Some((j, _)) => sol.add(inst, j),
            None => break,
        }
    }
}

/// Below this many weight-matrix cells (`n·m`) [`dynamic_randomized_greedy`]
/// scans; at or above it, it selects lazily. Where nearly every utility
/// drops at each step the lazy heap re-evaluates almost every item anyway
/// and only adds heap traffic, so small instances keep the scan. Measured
/// with the `dynamic_randomized_greedy` kernel benches on GK instances
/// (rcl 4, 2-vCPU Xeon VM): the scan is 1.2–1.4× faster at 5×40 and
/// 5×100, the lazy selection 1.1× faster at 10×100, 1.7× at 10×250,
/// 3.4× at 25×500 and 19× at 100×2500.
const LAZY_GREEDY_MIN_CELLS: usize = 1_000;

/// GRASP-style randomized greedy over the **dynamic** utility: each step
/// picks uniformly among the `rcl` best fitting items under the current
/// slack-aware scores, ranked by utility descending, then index ascending.
///
/// Large instances select lazily (see `LAZY_GREEDY_MIN_CELLS`); the
/// result and the rng position afterwards are the same on either path.
pub fn dynamic_randomized_greedy(inst: &Instance, rng: &mut Xoshiro256, rcl: usize) -> Solution {
    assert!(rcl >= 1, "restricted candidate list must be non-empty");
    if inst.n() * inst.m() < LAZY_GREEDY_MIN_CELLS {
        dynamic_randomized_greedy_scan(inst, rng, rcl)
    } else {
        dynamic_randomized_greedy_lazy(inst, rng, rcl)
    }
}

/// [`dynamic_randomized_greedy`] by a full scan per step: every unpacked
/// item is checked and scored. The reference the lazy path is tested
/// against.
fn dynamic_randomized_greedy_scan(inst: &Instance, rng: &mut Xoshiro256, rcl: usize) -> Solution {
    let mut sol = Solution::empty(inst);
    loop {
        // Collect the rcl best fitting items by dynamic utility.
        let mut top: Vec<(usize, f64)> = Vec::with_capacity(rcl + 1);
        for j in 0..inst.n() {
            if sol.contains(j) || !sol.fits(inst, j) {
                continue;
            }
            let u = dynamic_utility(inst, &sol, j);
            let pos = top.partition_point(|&(_, s)| s >= u);
            if pos < rcl {
                top.insert(pos, (j, u));
                top.truncate(rcl);
            }
        }
        if top.is_empty() {
            break;
        }
        let (j, _) = top[rng.index(top.len())];
        sol.add(inst, j);
    }
    sol
}

/// A candidate item and a utility (exact or an upper bound), ordered the
/// way the restricted candidate list ranks: higher utility is greater,
/// and on equal utility the lower index is greater.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    u: f64,
    j: usize,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        // Utilities are never NaN or −0.0, so `total_cmp` agrees with the
        // scan's `>=` on them.
        self.u.total_cmp(&other.u).then(other.j.cmp(&self.j))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Ranked {}

/// [`dynamic_randomized_greedy`] by lazy evaluation, exact with respect to
/// the scan.
///
/// Loads only grow while the solution is built, and `Instance::new`
/// rejects negative data, so every `a_ij / (slack_i + 1)` term can only
/// grow and every item's dynamic utility can only fall. Int→f64
/// conversion, division and addition are correctly rounded and therefore
/// monotone, so this holds for the computed f64 values too: a utility
/// computed earlier is an upper bound on the current one. The instance's
/// magnitude bound (`Instance::MAX_MAGNITUDE`) keeps `slack + 1` and the
/// loads from overflowing.
///
/// Each step re-evaluates candidates in bound order and stops as soon as
/// the next bound cannot enter the current top-`rcl`; every later
/// candidate's true utility is below that bound. An item that stops
/// fitting never fits again and leaves the heap for good.
fn dynamic_randomized_greedy_lazy(inst: &Instance, rng: &mut Xoshiro256, rcl: usize) -> Solution {
    let mut sol = Solution::empty(inst);
    let mut heap: BinaryHeap<Ranked> = (0..inst.n())
        .filter(|&j| sol.fits(inst, j))
        .map(|j| Ranked {
            u: dynamic_utility(inst, &sol, j),
            j,
        })
        .collect();
    let mut top: Vec<Ranked> = Vec::with_capacity(rcl + 1);
    let mut evaluated: Vec<Ranked> = Vec::new();
    loop {
        top.clear();
        evaluated.clear();
        while let Some(&bound) = heap.peek() {
            if top.len() == rcl && top[rcl - 1] > bound {
                break;
            }
            heap.pop();
            if !sol.fits(inst, bound.j) {
                continue;
            }
            let fresh = Ranked {
                u: dynamic_utility(inst, &sol, bound.j),
                j: bound.j,
            };
            evaluated.push(fresh);
            let pos = top.partition_point(|r| *r > fresh);
            if pos < rcl {
                top.insert(pos, fresh);
                top.truncate(rcl);
            }
        }
        if top.is_empty() {
            break;
        }
        let pick = top[rng.index(top.len())].j;
        sol.add(inst, pick);
        heap.extend(evaluated.iter().filter(|r| r.j != pick));
    }
    sol
}

/// Random feasible solution: visit items in random order, pack what fits.
pub fn random_feasible(inst: &Instance, rng: &mut Xoshiro256) -> Solution {
    let mut order: Vec<usize> = (0..inst.n()).collect();
    rng.shuffle(&mut order);
    let mut sol = Solution::empty(inst);
    for j in order {
        if sol.fits(inst, j) {
            sol.add(inst, j);
        }
    }
    sol
}

/// Project an (possibly infeasible) solution back onto the feasible domain by
/// repeatedly expelling the packed item with the largest burden
/// `Σ_i a_ij / c_j` (paper §3.2: "excluding from the knapsack the less
/// interesting objects"). Returns the number of items dropped.
pub fn project_feasible(inst: &Instance, ratios: &Ratios, sol: &mut Solution) -> usize {
    let mut dropped = 0;
    while !sol.is_feasible(inst) {
        let victim = sol
            .bits()
            .iter_ones()
            .max_by(|&a, &b| {
                ratios
                    .burden(a)
                    .partial_cmp(&ratios.burden(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Ties: prefer dropping the lower-profit item.
                    .then_with(|| inst.profit(b).cmp(&inst.profit(a)))
            })
            .expect("infeasible solution must contain at least one item");
        sol.drop(inst, victim);
        dropped += 1;
    }
    dropped
}

/// From-scratch randomized construction: a plain greedy fill driven by
/// [`Ratios::perturbed`] utilities — every call with a fresh rng state
/// explores a different profit-density-guided packing order. The repair
/// policy's restart generator (Martins, arXiv 2405.15569).
pub fn perturbed_greedy(inst: &Instance, rng: &mut Xoshiro256, strength: f64) -> Solution {
    let ratios = Ratios::perturbed(inst, rng, strength);
    let mut sol = Solution::empty(inst);
    greedy_fill(inst, &ratios, &mut sol);
    sol
}

/// Repair an **arbitrary** assignment into a feasible, maximal solution:
///
/// 1. *Randomized drop phase* — while infeasible, expel one packed item
///    chosen uniformly among the `rcl` largest-burden packed items (the
///    randomized cousin of [`project_feasible`]);
/// 2. *Saturation phase* — greedy-fill by descending pseudo-utility until
///    no unpacked item fits.
///
/// Always terminates (each drop removes an item, each fill pass only adds
/// items that fit), always returns a feasible solution that is maximal
/// (no single item can be added), and is a pure function of
/// `(inst, ratios, rng state, bits)`.
pub fn randomized_repair(
    inst: &Instance,
    ratios: &Ratios,
    rng: &mut Xoshiro256,
    bits: crate::bitset::BitVec,
) -> Solution {
    let rcl = 3usize;
    let mut sol = Solution::from_bits(inst, bits);
    while !sol.is_feasible(inst) {
        let mut worst: Vec<usize> = sol.bits().iter_ones().collect();
        worst.sort_by(|&a, &b| {
            ratios
                .burden(b)
                .partial_cmp(&ratios.burden(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| inst.profit(a).cmp(&inst.profit(b)))
        });
        worst.truncate(rcl);
        let victim = *rng.choose(&worst);
        sol.drop(inst, victim);
    }
    greedy_fill(inst, ratios, &mut sol);
    sol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitVec;
    use crate::prop_check;
    use crate::testkit::gen;

    fn inst() -> Instance {
        Instance::new(
            "g",
            5,
            2,
            vec![10, 8, 6, 4, 2],
            vec![
                4, 3, 2, 5, 1, //
                2, 4, 1, 1, 3,
            ],
            vec![7, 6],
        )
        .unwrap()
    }

    #[test]
    fn greedy_is_feasible_and_nonempty() {
        let i = inst();
        let r = Ratios::new(&i);
        let sol = greedy(&i, &r);
        assert!(sol.is_feasible(&i));
        assert!(sol.value() > 0);
        assert!(sol.check_consistent(&i));
    }

    #[test]
    fn greedy_is_maximal() {
        // No remaining item should fit once greedy returns.
        let i = inst();
        let r = Ratios::new(&i);
        let sol = greedy(&i, &r);
        for j in 0..i.n() {
            if !sol.contains(j) {
                assert!(!sol.fits(&i, j), "greedy left addable item {j}");
            }
        }
    }

    #[test]
    fn rcl_one_matches_deterministic_greedy() {
        let i = inst();
        let r = Ratios::new(&i);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let a = randomized_greedy(&i, &r, &mut rng, 1);
        let b = greedy(&i, &r);
        assert_eq!(a.bits(), b.bits());
    }

    #[test]
    fn randomized_greedy_feasible_and_deterministic_per_seed() {
        let i = inst();
        let r = Ratios::new(&i);
        let mut r1 = Xoshiro256::seed_from_u64(99);
        let mut r2 = Xoshiro256::seed_from_u64(99);
        let a = randomized_greedy(&i, &r, &mut r1, 3);
        let b = randomized_greedy(&i, &r, &mut r2, 3);
        assert_eq!(a.bits(), b.bits());
        assert!(a.is_feasible(&i));
    }

    #[test]
    fn random_feasible_is_feasible() {
        let i = inst();
        let mut rng = Xoshiro256::seed_from_u64(3);
        for _ in 0..20 {
            let sol = random_feasible(&i, &mut rng);
            assert!(sol.is_feasible(&i));
        }
    }

    #[test]
    fn dynamic_fill_is_feasible_and_maximal() {
        let i = inst();
        let mut sol = Solution::empty(&i);
        dynamic_greedy_fill(&i, &mut sol);
        assert!(sol.is_feasible(&i));
        for j in 0..i.n() {
            if !sol.contains(j) {
                assert!(!sol.fits(&i, j), "dynamic fill left addable item {j}");
            }
        }
    }

    #[test]
    fn dynamic_utility_tracks_slack() {
        // Two constraints; as constraint 0 tightens, items heavy on it lose
        // utility relative to items heavy on the loose constraint.
        let i = Instance::new(
            "dyn",
            3,
            2,
            vec![10, 10, 1],
            vec![
                9, 1, 5, // constraint 0
                1, 9, 1, // constraint 1
            ],
            vec![10, 100],
        )
        .unwrap();
        let mut sol = Solution::empty(&i);
        // Initially item 0 and 1 have comparable utility (both profit 10).
        sol.add(&i, 2); // load c0 = 5 → slack 5 vs slack 99
        let u0 = dynamic_utility(&i, &sol, 0); // heavy on the tight c0
        let u1 = dynamic_utility(&i, &sol, 1); // heavy on the loose c1
        assert!(u1 > u0, "slack-aware score must prefer the loose-side item");
    }

    #[test]
    fn dynamic_randomized_greedy_feasible_and_seeded() {
        let i = inst();
        let mut a = Xoshiro256::seed_from_u64(4);
        let mut b = Xoshiro256::seed_from_u64(4);
        let sa = dynamic_randomized_greedy(&i, &mut a, 3);
        let sb = dynamic_randomized_greedy(&i, &mut b, 3);
        assert_eq!(sa.bits(), sb.bits());
        assert!(sa.is_feasible(&i));
        assert!(sa.value() > 0);
    }

    #[test]
    fn dynamic_beats_static_on_lumpy_instance() {
        // Weights large relative to capacity; the static order misleads.
        let i = Instance::new(
            "lumpy",
            5,
            1,
            vec![100, 95, 90, 60, 55],
            vec![70, 65, 60, 35, 34],
            vec![69],
        )
        .unwrap();
        let ratios = Ratios::new(&i);
        let stat = greedy(&i, &ratios);
        let mut sol = Solution::empty(&i);
        dynamic_greedy_fill(&i, &mut sol);
        assert!(sol.value() >= stat.value());
    }

    #[test]
    fn project_restores_feasibility() {
        let i = inst();
        let r = Ratios::new(&i);
        // Pack everything: loads [15, 11] vs caps [7, 6] — badly infeasible.
        let all = BitVec::from_bools(vec![true; i.n()]);
        let mut sol = Solution::from_bits(&i, all);
        assert!(!sol.is_feasible(&i));
        let dropped = project_feasible(&i, &r, &mut sol);
        assert!(sol.is_feasible(&i));
        assert!(dropped > 0);
        assert!(sol.check_consistent(&i));
    }

    #[test]
    fn project_noop_on_feasible() {
        let i = inst();
        let r = Ratios::new(&i);
        let mut sol = Solution::empty(&i);
        assert_eq!(project_feasible(&i, &r, &mut sol), 0);
    }

    fn arb_instance(rng: &mut Xoshiro256) -> Instance {
        let n = gen::usize_in(rng, 2, 25);
        let m = gen::usize_in(rng, 1, 6);
        let profits: Vec<i64> = (0..n).map(|_| gen::i64_in(rng, 1, 99)).collect();
        let weights: Vec<i64> = (0..n * m).map(|_| gen::i64_in(rng, 1, 49)).collect();
        let caps: Vec<i64> = (0..m).map(|_| gen::i64_in(rng, 20, 299)).collect();
        Instance::new("prop", n, m, profits, weights, caps).unwrap()
    }

    /// Small-valued data, so utilities tie often; about one item in five
    /// weighs nothing (utility ∞, ties broken by index), profits may be
    /// zero, and a capacity may be zero.
    fn arb_tied_instance(rng: &mut Xoshiro256) -> Instance {
        let n = gen::usize_in(rng, 2, 60);
        let m = gen::usize_in(rng, 1, 6);
        let profits: Vec<i64> = (0..n).map(|_| gen::i64_in(rng, 0, 9)).collect();
        let weightless: Vec<bool> = (0..n).map(|_| gen::usize_in(rng, 0, 4) == 0).collect();
        let weights: Vec<i64> = (0..n * m)
            .map(|k| {
                if weightless[k % n] {
                    0
                } else {
                    gen::i64_in(rng, 1, 9)
                }
            })
            .collect();
        let caps: Vec<i64> = (0..m).map(|_| gen::i64_in(rng, 0, 80)).collect();
        Instance::new("tied", n, m, profits, weights, caps).unwrap()
    }

    /// The lazy selection reproduces the scan: the same solution, and the
    /// rng left at the same position, for every list width 1–6.
    #[test]
    fn prop_lazy_dynamic_greedy_matches_scan() {
        prop_check!(|rng| (arb_tied_instance(rng), rng.next_u64()), |input| {
            let (inst, seed) = input;
            for rcl in 1..=6 {
                let mut scan_rng = Xoshiro256::seed_from_u64(*seed);
                let mut lazy_rng = scan_rng.clone();
                let scan = dynamic_randomized_greedy_scan(inst, &mut scan_rng, rcl);
                let lazy = dynamic_randomized_greedy_lazy(inst, &mut lazy_rng, rcl);
                assert_eq!(scan.bits(), lazy.bits(), "rcl {rcl}");
                assert_eq!(scan_rng, lazy_rng, "rcl {rcl}: rng positions differ");
            }
        });
    }

    /// The same on benchmark-shaped instances, where the lazy path is the
    /// one `dynamic_randomized_greedy` takes.
    #[test]
    fn lazy_dynamic_greedy_matches_scan_on_gk_instances() {
        use crate::generate::{gk_instance, GkSpec};
        for seed in 0..3 {
            let inst = gk_instance(
                "g",
                GkSpec {
                    n: 250,
                    m: 10,
                    tightness: 0.5,
                    seed,
                },
            );
            assert!(inst.n() * inst.m() >= LAZY_GREEDY_MIN_CELLS);
            for rcl in 1..=6 {
                let mut scan_rng = Xoshiro256::seed_from_u64(seed + 100);
                let mut lazy_rng = scan_rng.clone();
                let scan = dynamic_randomized_greedy_scan(&inst, &mut scan_rng, rcl);
                let lazy = dynamic_randomized_greedy(&inst, &mut lazy_rng, rcl);
                assert_eq!(scan.bits(), lazy.bits(), "seed {seed} rcl {rcl}");
                assert_eq!(scan_rng, lazy_rng, "seed {seed} rcl {rcl}");
            }
        }
    }

    #[test]
    fn prop_view_fill_matches_scalar_fill() {
        prop_check!(|rng| (arb_instance(rng), rng.next_u64()), |input| {
            let (inst, seed) = input;
            let r = Ratios::new(inst);
            let mut rng = Xoshiro256::seed_from_u64(*seed);
            let start = random_feasible(inst, &mut rng);
            let mut scalar = start.clone();
            let mut lane = start;
            dynamic_greedy_fill(inst, &mut scalar);
            dynamic_greedy_fill_view(inst, &r, &mut lane);
            assert_eq!(scalar.bits(), lane.bits());
        });
    }

    #[test]
    fn prop_greedy_always_feasible() {
        prop_check!(|rng| (arb_instance(rng), rng.next_u64()), |input| {
            let (inst, seed) = input;
            let r = Ratios::new(inst);
            assert!(greedy(inst, &r).is_feasible(inst));
            let mut rng = Xoshiro256::seed_from_u64(*seed);
            assert!(randomized_greedy(inst, &r, &mut rng, 4).is_feasible(inst));
            assert!(random_feasible(inst, &mut rng).is_feasible(inst));
        });
    }

    #[test]
    fn prop_projection_always_feasible() {
        prop_check!(
            |rng| (arb_instance(rng), gen::vec_of(rng, 25, 25, gen::boolean)),
            |input| {
                let (inst, bools) = input;
                let r = Ratios::new(inst);
                let bits = BitVec::from_bools(
                    bools
                        .iter()
                        .copied()
                        .chain(std::iter::repeat(false))
                        .take(inst.n()),
                );
                let mut sol = Solution::from_bits(inst, bits);
                project_feasible(inst, &r, &mut sol);
                assert!(sol.is_feasible(inst));
                assert!(sol.check_consistent(inst));
            }
        );
    }

    /// Satellite property: for arbitrary instances, seeds and (possibly
    /// badly infeasible) starting assignments, randomized repair always
    /// terminates in a feasible, *maximal* solution and is reproducible
    /// per seed.
    #[test]
    fn prop_randomized_repair_feasible_maximal_reproducible() {
        prop_check!(
            |rng| (
                arb_instance(rng),
                rng.next_u64(),
                gen::vec_of(rng, 25, 25, gen::boolean)
            ),
            |input| {
                let (inst, seed, bools) = input;
                let r = Ratios::new(inst);
                let bits = BitVec::from_bools(
                    bools
                        .iter()
                        .copied()
                        .chain(std::iter::repeat(false))
                        .take(inst.n()),
                );
                let mut rng = Xoshiro256::seed_from_u64(*seed);
                let sol = randomized_repair(inst, &r, &mut rng, bits.clone());
                assert!(sol.is_feasible(inst), "repair left infeasibility");
                assert!(sol.check_consistent(inst));
                // Maximal: no unpacked item still fits.
                for j in sol.bits().iter_zeros() {
                    assert!(!sol.fits(inst, j), "item {j} fits but was not packed");
                }
                // Reproducible: same seed, same result — bit for bit.
                let mut rng2 = Xoshiro256::seed_from_u64(*seed);
                let again = randomized_repair(inst, &r, &mut rng2, bits);
                assert_eq!(sol.bits(), again.bits(), "repair not seed-reproducible");
            }
        );
    }

    /// Perturbed construction stays feasible and maximal, is reproducible
    /// per seed, and at zero strength collapses to the deterministic
    /// greedy.
    #[test]
    fn prop_perturbed_greedy_feasible_and_seeded() {
        prop_check!(|rng| (arb_instance(rng), rng.next_u64()), |input| {
            let (inst, seed) = input;
            let mut rng = Xoshiro256::seed_from_u64(*seed);
            let sol = perturbed_greedy(inst, &mut rng, 0.3);
            assert!(sol.is_feasible(inst));
            for j in sol.bits().iter_zeros() {
                assert!(!sol.fits(inst, j), "perturbed fill not maximal");
            }
            let mut rng2 = Xoshiro256::seed_from_u64(*seed);
            assert_eq!(sol.bits(), perturbed_greedy(inst, &mut rng2, 0.3).bits());
            // Zero strength must reproduce the deterministic greedy.
            let plain = greedy(inst, &Ratios::new(inst));
            let mut rng3 = Xoshiro256::seed_from_u64(*seed);
            assert_eq!(perturbed_greedy(inst, &mut rng3, 0.0).bits(), plain.bits());
        });
    }
}
