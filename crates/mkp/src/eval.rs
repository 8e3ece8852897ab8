//! Pseudo-utility ratios and item orderings shared by the heuristics.
//!
//! Three item measures drive the paper's move machinery:
//!
//! * **pseudo-utility** `u_j = c_j / Σ_i a_ij / b_i` — the classic
//!   capacity-normalised bang-per-buck used by the greedy Add phase;
//! * **burden** `w_j = Σ_i a_ij / c_j` — the "cost of keeping item j"; the
//!   strategic-oscillation projection expels items with the largest burden;
//! * **drop score** `a_{i*j} / c_j` against the most saturated constraint
//!   `i*` — the Drop step removes the packed item maximising it.
//!
//! All three depend only on the instance (the drop score once `i*` is
//! chosen) and are precomputed once. The first two and the utility
//! ranking form a [`Ranking`], all a construction reads (the greedy
//! fills, the projection, the repair). A [`Ratios`] is a ranking plus the
//! [`SoaView`] a search reads, which holds the third as one item ranking
//! per constraint; only a search builds one.

use crate::instance::Instance;
use crate::soa::SoaView;
use std::ops::Deref;

/// Precomputed per-item pseudo-utilities, burdens and utility ranking of
/// an instance: what a construction reads.
#[derive(Debug, Clone)]
pub struct Ranking {
    pseudo_utility: Vec<f64>,
    burden: Vec<f64>,
    /// Item indices sorted by descending pseudo-utility (ties by index).
    by_utility_desc: Vec<usize>,
}

impl Ranking {
    /// Compute the ratio tables and the ranking for `inst`, in
    /// O(n·m + n log n).
    pub fn new(inst: &Instance) -> Self {
        let (pseudo_utility, burden) = item_ratios(inst);
        Ranking::ranked(pseudo_utility, burden)
    }

    /// A perturbed copy of the ratio tables: each pseudo-utility is scaled
    /// by an independent factor uniform in `[1 − strength, 1 + strength]`
    /// and the utility ranking re-sorted, so greedy fills over the result
    /// explore different (but still profit-density-guided) construction
    /// orders. Burdens are left exact — repair decisions stay unbiased.
    /// Deterministic for a given rng state; `strength` must be in `[0, 1)`.
    pub fn perturbed(inst: &Instance, rng: &mut crate::Xoshiro256, strength: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&strength),
            "perturbation strength {strength} outside [0, 1)"
        );
        let (mut pseudo_utility, burden) = item_ratios(inst);
        for u in &mut pseudo_utility {
            // ∞ stays ∞ (weightless items stay first), finite values jitter.
            if u.is_finite() {
                *u *= 1.0 + strength * (2.0 * rng.next_f64() - 1.0);
            }
        }
        Ranking::ranked(pseudo_utility, burden)
    }

    /// Rank the items by descending pseudo-utility, ties by ascending
    /// index (utilities are never NaN, so the ranking is a total order).
    fn ranked(pseudo_utility: Vec<f64>, burden: Vec<f64>) -> Self {
        let mut by_utility_desc: Vec<usize> = (0..pseudo_utility.len()).collect();
        by_utility_desc.sort_by(|&a, &b| {
            pseudo_utility[b]
                .partial_cmp(&pseudo_utility[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        Ranking {
            pseudo_utility,
            burden,
            by_utility_desc,
        }
    }

    /// Pseudo-utility `u_j` (higher = more attractive to add).
    #[inline]
    pub fn pseudo_utility(&self, j: usize) -> f64 {
        self.pseudo_utility[j]
    }

    /// Burden `w_j` (higher = better candidate to expel).
    #[inline]
    pub fn burden(&self, j: usize) -> f64 {
        self.burden[j]
    }

    /// Items ordered by descending pseudo-utility.
    #[inline]
    pub fn by_utility_desc(&self) -> &[usize] {
        &self.by_utility_desc
    }
}

/// A [`Ranking`] plus the structure-of-arrays evaluation view a search
/// reads (lane-packed weights, drop rankings, the Add scan's tables in
/// `by_utility_desc` order). Dereferences to its ranking, so every
/// construction takes a `&Ratios` where it takes a `&Ranking`.
#[derive(Debug, Clone)]
pub struct Ratios {
    ranking: Ranking,
    view: SoaView,
}

impl Ratios {
    /// Compute the ranking and the view for `inst`, in O(m·n log n) (the
    /// view's per-constraint drop rankings dominate).
    pub fn new(inst: &Instance) -> Self {
        let ranking = Ranking::new(inst);
        let view = SoaView::new(inst, ranking.by_utility_desc());
        Ratios { ranking, view }
    }

    /// The structure-of-arrays evaluation view (see [`crate::soa`]).
    #[inline]
    pub fn view(&self) -> &SoaView {
        &self.view
    }
}

impl Deref for Ratios {
    type Target = Ranking;

    #[inline]
    fn deref(&self) -> &Ranking {
        &self.ranking
    }
}

/// Every item's pseudo-utility and burden, in O(n·m).
fn item_ratios(inst: &Instance) -> (Vec<f64>, Vec<f64>) {
    let n = inst.n();
    let mut pseudo_utility = Vec::with_capacity(n);
    let mut burden = Vec::with_capacity(n);
    for j in 0..n {
        let mut norm = 0.0f64;
        for (i, &a) in inst.item_weights(j).iter().enumerate() {
            let b = inst.capacity(i);
            if b > 0 {
                norm += a as f64 / b as f64;
            } else if a > 0 {
                // Zero capacity with positive weight: the item can never
                // be packed; treat its normalised weight as infinite.
                norm = f64::INFINITY;
                break;
            }
        }
        let c = inst.profit(j) as f64;
        pseudo_utility.push(if norm == 0.0 {
            // Weightless item: infinitely attractive (free profit).
            f64::INFINITY
        } else {
            c / norm
        });
        burden.push(if c == 0.0 {
            // Profitless item carrying weight: infinitely burdensome.
            if inst.item_weight_sum(j) > 0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            inst.item_weight_sum(j) as f64 / c
        });
    }
    (pseudo_utility, burden)
}

/// Drop score of packed item `j` against constraint `i`: `a_ij / c_j`
/// (∞ for a profitless item with positive weight — always drop it first).
#[inline]
pub fn drop_score(inst: &Instance, i: usize, j: usize) -> f64 {
    let c = inst.profit(j);
    let a = inst.weight(i, j);
    if c == 0 {
        if a > 0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        a as f64 / c as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    fn inst() -> Instance {
        Instance::new(
            "r",
            3,
            2,
            vec![10, 6, 4],
            vec![5, 4, 3, 1, 2, 3],
            vec![8, 4],
        )
        .unwrap()
    }

    #[test]
    fn pseudo_utility_values() {
        let r = Ranking::new(&inst());
        // u_0 = 10 / (5/8 + 1/4) = 10 / 0.875
        assert!((r.pseudo_utility(0) - 10.0 / 0.875).abs() < 1e-9);
        // u_1 = 6 / (4/8 + 2/4) = 6
        assert!((r.pseudo_utility(1) - 6.0).abs() < 1e-9);
        // u_2 = 4 / (3/8 + 3/4) = 4 / 1.125
        assert!((r.pseudo_utility(2) - 4.0 / 1.125).abs() < 1e-9);
    }

    #[test]
    fn burden_values() {
        let r = Ranking::new(&inst());
        assert!((r.burden(0) - 6.0 / 10.0).abs() < 1e-9);
        assert!((r.burden(1) - 1.0).abs() < 1e-9);
        assert!((r.burden(2) - 6.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn utility_order_descending() {
        let r = Ranking::new(&inst());
        let order = r.by_utility_desc();
        for w in order.windows(2) {
            assert!(r.pseudo_utility(w[0]) >= r.pseudo_utility(w[1]));
        }
        assert_eq!(order[0], 0); // item 0 has the highest utility here
    }

    #[test]
    fn zero_profit_item_is_infinitely_burdensome() {
        let i = Instance::new("z", 2, 1, vec![0, 5], vec![3, 3], vec![10]).unwrap();
        let r = Ranking::new(&i);
        assert!(r.burden(0).is_infinite());
        assert!(r.burden(1).is_finite());
    }

    #[test]
    fn weightless_item_is_infinitely_attractive() {
        let i = Instance::new("w", 2, 1, vec![5, 5], vec![0, 3], vec![10]).unwrap();
        let r = Ranking::new(&i);
        assert!(r.pseudo_utility(0).is_infinite());
        assert_eq!(r.by_utility_desc()[0], 0);
    }

    #[test]
    fn zero_capacity_handled() {
        let i = Instance::new("zc", 2, 1, vec![5, 5], vec![1, 0], vec![0]).unwrap();
        let r = Ranking::new(&i);
        // Item 0 needs capacity that doesn't exist: norm = ∞, so u = c/∞ = 0.
        assert_eq!(r.pseudo_utility(0), 0.0);
        // Item 1 is weightless → ∞.
        assert!(r.pseudo_utility(1).is_infinite());
    }

    #[test]
    fn ratios_scan_their_own_ranking() {
        let inst = inst();
        let (ratios, ranking) = (Ratios::new(&inst), Ranking::new(&inst));
        assert_eq!(ratios.by_utility_desc(), ranking.by_utility_desc());
        for (k, &j) in ratios.by_utility_desc().iter().enumerate() {
            assert_eq!(ratios.view().scan_rank()[j] as usize, k);
        }
    }

    #[test]
    fn drop_score_basic() {
        let i = inst();
        assert!((drop_score(&i, 0, 0) - 0.5).abs() < 1e-12);
        assert!((drop_score(&i, 1, 2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn drop_score_zero_profit_infinite() {
        let i = Instance::new("z", 1, 1, vec![0], vec![3], vec![10]).unwrap();
        assert!(drop_score(&i, 0, 0).is_infinite());
    }
}
