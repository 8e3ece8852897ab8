//! Constructive heuristics: greedy fills, randomized greedy starts, and the
//! feasibility projection used by strategic oscillation and the master's
//! restart logic.
//!
//! The constructions by static utility or burden ([`greedy_fill`],
//! [`randomized_greedy`], [`project_feasible`], [`randomized_repair`])
//! read a [`Ranking`] alone, so a caller that only constructs never builds
//! the evaluation view a search reads.
//!
//! Every refill by slack-aware (dynamic) utility — the intensification
//! kernels', strategic oscillation's and path relinking's — runs one
//! exact fill, [`DynamicFill`]: the weight-level index of `mkp::soa`
//! narrows the unpacked items to a superset of those that fit, the exact
//! fits test of `mkp::soa` decides the survivors (a folded lane test where
//! the lanes decide, the scalar test elsewhere), and later steps re-test
//! only the items that still fit. Its choices are those of a full scan of
//! every unpacked item (DESIGN.md §12).

use crate::eval::{Ranking, Ratios};
use crate::instance::Instance;
use crate::rng::Xoshiro256;
use crate::soa::{LaneColumns, ResidualLanes};
use crate::solution::Solution;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Fill `sol` greedily: walk items in descending pseudo-utility and pack
/// every one that still fits. Starts from the current contents of `sol`
/// (pass [`Solution::empty`] for a from-scratch build). Always returns with
/// `sol` feasible **if it was feasible on entry**.
pub fn greedy_fill(inst: &Instance, ranking: &Ranking, sol: &mut Solution) {
    for &j in ranking.by_utility_desc() {
        if !sol.contains(j) && sol.fits(inst, j) {
            sol.add(inst, j);
        }
    }
}

/// From-scratch greedy solution by descending pseudo-utility.
pub fn greedy(inst: &Instance, ranking: &Ranking) -> Solution {
    let mut sol = Solution::empty(inst);
    greedy_fill(inst, ranking, &mut sol);
    sol
}

/// GRASP-style randomized greedy: at each step pick uniformly among the
/// `rcl` best-still-fitting items (restricted candidate list). `rcl = 1`
/// degenerates to the deterministic greedy. The solver's own starts come
/// from [`dynamic_randomized_greedy`]; this static variant serves the
/// ablations, the examples and the tests.
pub fn randomized_greedy(
    inst: &Instance,
    ranking: &Ranking,
    rng: &mut Xoshiro256,
    rcl: usize,
) -> Solution {
    assert!(rcl >= 1, "restricted candidate list must be non-empty");
    let mut sol = Solution::empty(inst);
    // Candidates kept in utility order; we re-scan for fitting ones each
    // round, O(adds · n · m) at worst. That is quadratic in n, which the
    // large class (n = 2,500) would feel; its callers all run at a few
    // hundred items.
    let order = ranking.by_utility_desc();
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

/// Saturate `sol` greedily by **dynamic** utility: each step adds the
/// fitting item of highest [`dynamic_utility`] on the current solution,
/// the lowest index on ties, until nothing fits. Runs [`DynamicFill`] over
/// the lane columns of `ratios`' view.
pub fn dynamic_greedy_fill(inst: &Instance, ratios: &Ratios, sol: &mut Solution) {
    DynamicFill::new(inst).run(inst, ratios.view().lanes(), sol, None);
}

/// The dynamic greedy fill every refill runs (the intensification
/// kernels' and [`dynamic_greedy_fill`]), with its scratch: the items that
/// still fit, ascending, the first step's candidate mask and the
/// solution's residual lanes. One scratch serves any number of fills, of
/// any solution and instance.
///
/// Each step scores the same candidates as a scan of every unpacked item
/// through [`Solution::fits`] would, in the same ascending order, with
/// the same [`dynamic_utility`] on the same solution, and keeps the first
/// strict maximum, so every choice is the scan's. It finds them at a
/// fraction of the cost:
///
/// * The first step narrows the unpacked items with
///   [`LaneColumns::narrow`]: one bitset of the weight-level index ANDed
///   in per constraint whose residual sits below the top level, which
///   leaves a superset of the items that fit (in the ejection chain's
///   refills from the L2 greedy start, 26 of 2,500 items on average for
///   the 17.8 that fit). Only the survivors, in ascending order, are
///   tested in full, by
///   [`ResidualLanes::fits_unfiltered`]: the lane test folded over every
///   word, which runs the scalar test itself where the lanes cannot
///   decide.
/// * Later steps re-test only the previous step's fitting set. Loads only
///   grow during a fill and weights are non-negative, so an item that
///   does not fit never fits again in that fill (the lazy greedy's
///   invariant, DESIGN.md §12).
///
/// On an infeasible solution nothing fits and the fill returns at once.
#[derive(Debug, Clone, Default)]
pub struct DynamicFill {
    fitting: Vec<u32>,
    mask: Vec<u64>,
    residual: ResidualLanes,
}

impl DynamicFill {
    /// Scratch sized for `inst`: a fill on an instance no larger never
    /// grows a buffer after its first residual sync.
    pub fn new(inst: &Instance) -> Self {
        DynamicFill {
            fitting: Vec::with_capacity(inst.n()),
            mask: Vec::with_capacity(inst.n().div_ceil(64)),
            residual: ResidualLanes::new(),
        }
    }

    /// Fill `sol` from the items outside it, `exclude` (if any) left out,
    /// testing fits over `cols`, which must be `inst`'s. Returns the
    /// number of items added.
    pub fn run(
        &mut self,
        inst: &Instance,
        cols: &LaneColumns,
        sol: &mut Solution,
        exclude: Option<usize>,
    ) -> usize {
        let DynamicFill {
            fitting,
            mask,
            residual,
        } = self;
        residual.sync(cols, inst, sol);
        if residual.filter_residual() < 0 {
            return 0; // infeasible: nothing fits
        }
        cols.narrow(inst, sol, mask);
        fitting.clear();
        let excluded = exclude.unwrap_or(usize::MAX);
        for (w, &word) in mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if j != excluded && residual.fits_unfiltered(cols, inst, sol, j) {
                    fitting.push(j as u32);
                }
            }
        }
        let mut adds = 0;
        loop {
            let mut best: Option<(usize, f64)> = None;
            for (pos, &j) in fitting.iter().enumerate() {
                let u = dynamic_utility(inst, sol, j as usize);
                if best.is_none_or(|(_, bu)| u > bu) {
                    best = Some((pos, u));
                }
            }
            let Some((pos, _)) = best else {
                return adds;
            };
            sol.add(inst, fitting.remove(pos) as usize);
            adds += 1;
            residual.sync(cols, inst, sol);
            fitting.retain(|&j| residual.fits_unfiltered(cols, inst, sol, j as usize));
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
pub fn project_feasible(inst: &Instance, ranking: &Ranking, sol: &mut Solution) -> usize {
    let mut dropped = 0;
    while !sol.is_feasible(inst) {
        let victim = sol
            .bits()
            .iter_ones()
            .max_by(|&a, &b| {
                ranking
                    .burden(a)
                    .partial_cmp(&ranking.burden(b))
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
/// `(inst, ranking, rng state, bits)`.
pub fn randomized_repair(
    inst: &Instance,
    ranking: &Ranking,
    rng: &mut Xoshiro256,
    bits: crate::bitset::BitVec,
) -> Solution {
    let rcl = 3usize;
    let mut sol = Solution::from_bits(inst, bits);
    while !sol.is_feasible(inst) {
        let mut worst: Vec<usize> = sol.bits().iter_ones().collect();
        worst.sort_by(|&a, &b| {
            ranking
                .burden(b)
                .partial_cmp(&ranking.burden(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| inst.profit(a).cmp(&inst.profit(b)))
        });
        worst.truncate(rcl);
        let victim = *rng.choose(&worst);
        sol.drop(inst, victim);
    }
    greedy_fill(inst, ranking, &mut sol);
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
        let r = Ranking::new(&i);
        let sol = greedy(&i, &r);
        assert!(sol.is_feasible(&i));
        assert!(sol.value() > 0);
        assert!(sol.check_consistent(&i));
    }

    #[test]
    fn greedy_is_maximal() {
        // No remaining item should fit once greedy returns.
        let i = inst();
        let r = Ranking::new(&i);
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
        let r = Ranking::new(&i);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let a = randomized_greedy(&i, &r, &mut rng, 1);
        let b = greedy(&i, &r);
        assert_eq!(a.bits(), b.bits());
    }

    #[test]
    fn randomized_greedy_feasible_and_deterministic_per_seed() {
        let i = inst();
        let r = Ranking::new(&i);
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
        DynamicFill::new(&i).run(&i, &LaneColumns::new(&i), &mut sol, None);
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
        let ratios = Ranking::new(&i);
        let stat = greedy(&i, &ratios);
        let mut sol = Solution::empty(&i);
        DynamicFill::new(&i).run(&i, &LaneColumns::new(&i), &mut sol, None);
        assert!(sol.value() >= stat.value());
    }

    #[test]
    fn project_restores_feasibility() {
        let i = inst();
        let r = Ranking::new(&i);
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
        let r = Ranking::new(&i);
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

    /// The lazy selection reproduces the scan: the same solution, and the
    /// rng left at the same position, for every list width 1–6.
    #[test]
    fn prop_lazy_dynamic_greedy_matches_scan() {
        prop_check!(|rng| (gen::tied_instance(rng), rng.next_u64()), |input| {
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

    /// The fill as it was before the most-saturated-constraint
    /// pre-filter: the oracle the scalar and lane fills are held to.
    fn dynamic_greedy_fill_reference(inst: &Instance, sol: &mut Solution) {
        dynamic_greedy_fill_reference_excluding(inst, sol, None);
    }

    /// [`dynamic_greedy_fill_reference`] with `exclude` left out of every
    /// step's candidates, as drop-refill's own loop left its expelled item.
    fn dynamic_greedy_fill_reference_excluding(
        inst: &Instance,
        sol: &mut Solution,
        exclude: Option<usize>,
    ) {
        loop {
            let mut best: Option<(usize, f64)> = None;
            for j in 0..inst.n() {
                if Some(j) == exclude || sol.contains(j) || !sol.fits(inst, j) {
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

    /// The scalar and lane fills make the reference fill's choices from
    /// feasible starts (empty, thinned, maximal) and from random, mostly
    /// infeasible assignments, where the pre-filter's slack is negative;
    /// half the instances have tied values and may have zero capacities.
    #[test]
    fn prop_view_fill_matches_scalar_fill() {
        prop_check!(
            |rng| {
                let inst = if gen::boolean(rng) {
                    arb_instance(rng)
                } else {
                    gen::tied_instance(rng)
                };
                (inst, rng.next_u64())
            },
            |input| {
                let (inst, seed) = input;
                let r = Ratios::new(inst);
                let mut rng = Xoshiro256::seed_from_u64(*seed);
                for start in fill_starts(inst, &mut rng) {
                    let mut reference = start.clone();
                    dynamic_greedy_fill_reference(inst, &mut reference);
                    let mut scalar = start.clone();
                    DynamicFill::new(inst).run(inst, &LaneColumns::new(inst), &mut scalar, None);
                    let mut lane = start;
                    dynamic_greedy_fill(inst, &r, &mut lane);
                    assert_eq!(scalar.bits(), reference.bits(), "scalar fill");
                    assert_eq!(lane.bits(), reference.bits(), "lane fill");
                }
            }
        );
    }

    /// Starts for a fill: empty, thinned and maximal feasible ones, and a
    /// random, mostly infeasible assignment (nothing fits it).
    fn fill_starts(inst: &Instance, rng: &mut Xoshiro256) -> [Solution; 4] {
        let maximal = random_feasible(inst, rng);
        let mut thinned = maximal.clone();
        for j in maximal.bits().iter_ones() {
            if gen::boolean(rng) {
                thinned.drop(inst, j);
            }
        }
        let bits = BitVec::from_bools((0..inst.n()).map(|_| gen::boolean(rng)));
        let random = Solution::from_bits(inst, bits);
        [Solution::empty(inst), thinned, maximal, random]
    }

    /// Instances for the one fill: n across the 64-item mask words (rarely
    /// a multiple of 64), m across the 4-constraint lane words, tied
    /// profits and weightless items; in half of them each row has a weight
    /// scale of its own (1 to 1,000×, capacity scaled alike), so the rows'
    /// level shifts differ; in a third of them one weight exceeds
    /// `LANE_MAX`, so the columns cannot encode it and the fill's fits
    /// tests run scalar.
    fn arb_fill_instance(rng: &mut Xoshiro256) -> Instance {
        let n = gen::usize_in(rng, 2, 150);
        let m = gen::usize_in(rng, 1, 10);
        let mixed = gen::boolean(rng);
        let scales: Vec<i64> = (0..m)
            .map(|_| {
                if mixed {
                    [1, 7, 100, 1_000][gen::usize_in(rng, 0, 4)]
                } else {
                    1
                }
            })
            .collect();
        let profits: Vec<i64> = (0..n).map(|_| gen::i64_in(rng, 0, 20)).collect();
        let mut weights: Vec<i64> = (0..n * m)
            .map(|cell| {
                if gen::usize_in(rng, 0, 5) == 0 {
                    0
                } else {
                    gen::i64_in(rng, 1, 30) * scales[cell / n]
                }
            })
            .collect();
        let mut caps: Vec<i64> = scales
            .iter()
            .map(|&scale| gen::i64_in(rng, 0, 8 * n as i64) * scale)
            .collect();
        if gen::usize_in(rng, 0, 3) == 0 {
            let cell = gen::usize_in(rng, 0, n * m);
            weights[cell] = crate::soa::LANE_MAX + gen::i64_in(rng, 1, 1_000);
            if gen::boolean(rng) {
                caps[cell / n] += weights[cell]; // the heavy item can fit
            }
        }
        Instance::new("fill", n, m, profits, weights, caps).unwrap()
    }

    /// One `DynamicFill` scratch, reused across every call and across
    /// instances of different n and m, makes the reference's choices from
    /// every start, with and without an excluded item, and returns the
    /// number of items it added.
    #[test]
    fn prop_dynamic_fill_matches_reference() {
        prop_check!(
            |rng| (
                arb_fill_instance(rng),
                arb_fill_instance(rng),
                rng.next_u64()
            ),
            |input| {
                let (a, b, seed) = input;
                let mut rng = Xoshiro256::seed_from_u64(*seed);
                let mut fill = DynamicFill::default();
                for inst in [a, b, a] {
                    let lanes = LaneColumns::new(inst);
                    for start in fill_starts(inst, &mut rng) {
                        let unpacked: Vec<usize> = start.bits().iter_zeros().collect();
                        let exclude = (!unpacked.is_empty() && gen::boolean(&mut rng))
                            .then(|| *rng.choose(&unpacked));
                        let mut expected = start.clone();
                        dynamic_greedy_fill_reference_excluding(inst, &mut expected, exclude);
                        let mut got = start.clone();
                        let adds = fill.run(inst, &lanes, &mut got, exclude);
                        assert_eq!(got.bits(), expected.bits(), "exclude {exclude:?}");
                        assert_eq!(adds, got.cardinality() - start.cardinality());
                        assert!(got.check_consistent(inst));
                    }
                }
            }
        );
    }

    #[test]
    fn prop_greedy_always_feasible() {
        prop_check!(|rng| (arb_instance(rng), rng.next_u64()), |input| {
            let (inst, seed) = input;
            let r = Ranking::new(inst);
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
                let r = Ranking::new(inst);
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
                let r = Ranking::new(inst);
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

    /// A greedy over a perturbed ranking stays feasible and maximal, is
    /// reproducible per seed, and at zero strength collapses to the
    /// deterministic greedy.
    #[test]
    fn prop_perturbed_greedy_feasible_and_seeded() {
        prop_check!(|rng| (arb_instance(rng), rng.next_u64()), |input| {
            let (inst, seed) = input;
            let perturbed_greedy = |seed: u64, strength: f64| {
                let mut rng = Xoshiro256::seed_from_u64(seed);
                greedy(inst, &Ranking::perturbed(inst, &mut rng, strength))
            };
            let sol = perturbed_greedy(*seed, 0.3);
            assert!(sol.is_feasible(inst));
            for j in sol.bits().iter_zeros() {
                assert!(!sol.fits(inst, j), "perturbed fill not maximal");
            }
            assert_eq!(sol.bits(), perturbed_greedy(*seed, 0.3).bits());
            // Zero strength must reproduce the deterministic greedy.
            let plain = greedy(inst, &Ranking::new(inst));
            assert_eq!(perturbed_greedy(*seed, 0.0).bits(), plain.bits());
        });
    }
}
