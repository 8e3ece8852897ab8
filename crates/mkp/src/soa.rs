//! Structure-of-arrays evaluation view: word-parallel feasibility kernels.
//!
//! The move operator's hottest predicate is [`crate::Solution::fits`] — an
//! O(m) scan of `load_i + a_ij ≤ b_i` with a branch per constraint. This
//! module packs the per-item weight columns into 16-bit lanes of `u64`
//! words ([`LaneColumns`], part of every [`SoaView`]) and caches the
//! solution's *residual capacities* in the same layout
//! ([`ResidualLanes`]), so one branch-free subtraction tests four
//! constraints at a time (SWAR — SIMD within a register; no SIMD crates,
//! per DESIGN.md §7). DESIGN.md §12 documents the layout and the cache
//! invariants.
//!
//! The lane test is **exactly** equivalent to the scalar one whenever the
//! encoding applies (all weights ≤ [`LANE_MAX`], residuals non-negative):
//! integer comparisons only, no rounding. When it does not apply the view
//! flags itself unusable and callers fall back to the scalar path, so the
//! view is an evaluation cache, never a semantic change.

use crate::eval::drop_score;
use crate::instance::Instance;
use crate::solution::Solution;

/// Constraints packed per `u64` word (16-bit lanes).
pub const LANES_PER_WORD: usize = 4;

/// Largest weight or residual encodable in one lane (15 bits of payload;
/// the 16th bit of each lane is the borrow sentinel of the SWAR subtract).
pub const LANE_MAX: i64 = 0x7FFF;

/// Per-lane borrow-sentinel bits (bit 15 of each 16-bit lane).
const HIGH: u64 = 0x8000_8000_8000_8000;

/// Monotone source for [`SoaView`] identity tokens (0 is never issued).
static NEXT_VIEW_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn next_view_id() -> u64 {
    NEXT_VIEW_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// An instance's weight columns packed four constraints per `u64` word,
/// 16 bits per lane: the one lane encoding every word-parallel fits test
/// reads. Part of [`SoaView`]; a kernel that holds no view (the ejection
/// chain) packs its own in O(n·m).
#[derive(Debug, Clone)]
pub struct LaneColumns {
    words_per_item: usize,
    /// `words[j * words_per_item + w]` holds constraints `4w .. 4w+3` of
    /// item `j`, 16 bits each; unused lanes are zero (zero weight always
    /// fits). Empty when a weight exceeds [`LANE_MAX`].
    words: Vec<u64>,
    /// All weights fit the lane payload; lane kernels are exact.
    ok: bool,
}

impl LaneColumns {
    /// Pack `inst`'s columns in O(n·m); left empty and flagged unusable
    /// when a weight exceeds [`LANE_MAX`].
    pub fn new(inst: &Instance) -> Self {
        let (n, m) = (inst.n(), inst.m());
        let words_per_item = m.div_ceil(LANES_PER_WORD);
        let ok = (0..n).all(|j| inst.item_weights(j).iter().all(|&a| a <= LANE_MAX));
        let mut words = Vec::new();
        if ok {
            words.resize(n * words_per_item, 0u64);
            for (j, column) in words.chunks_exact_mut(words_per_item).enumerate() {
                for (i, &a) in inst.item_weights(j).iter().enumerate() {
                    column[i / LANES_PER_WORD] |= (a as u64) << ((i % LANES_PER_WORD) * 16);
                }
            }
        }
        LaneColumns {
            words_per_item,
            words,
            ok,
        }
    }

    /// Do all weights fit the 15-bit lane payload? When false the lane
    /// kernels are disabled and callers use the scalar reference path.
    #[inline]
    pub fn ok(&self) -> bool {
        self.ok
    }

    /// Item `j`'s packed weight column, ⌈m/4⌉ words; requires
    /// [`LaneColumns::ok`].
    #[inline]
    fn item(&self, j: usize) -> &[u64] {
        &self.words[j * self.words_per_item..(j + 1) * self.words_per_item]
    }
}

/// Structure-of-arrays evaluation view of an instance: lane-packed weight
/// columns, precomputed drop-score (penalty) tables, and a profit-descending
/// item order for intensification scans. Built once per instance alongside
/// [`crate::eval::Ratios`]; immutable thereafter.
#[derive(Debug, Clone)]
pub struct SoaView {
    n: usize,
    m: usize,
    lanes: LaneColumns,
    /// `drop_scores[i * n + j]` = [`drop_score`]`(inst, i, j)` — the exact
    /// f64 the scalar path computes, tabulated so the Drop scan does a load
    /// instead of a division.
    drop_scores: Vec<f64>,
    /// `drop_order[i * n ..]` holds the items ranked by descending
    /// [`drop_score`] against constraint `i`, ties by ascending index —
    /// exactly the order a max-scan with a strict `>` visits its winners.
    /// The Drop selection walks this static ranking instead of comparing
    /// scores per packed item.
    drop_order: Vec<usize>,
    /// `weight_rows[i * n + j]` = `a_ij` — the weight matrix transposed to
    /// constraint-major order, so a scan over items against one fixed
    /// constraint (the fits pre-filter) streams sequentially.
    weight_rows: Vec<i64>,
    /// [`SoaView::weight_rows`] permuted by the caller-installed scan order
    /// (`scan_weight_rows[i * n + k]` = `a_i,order[k]`): the Add scan walks
    /// the utility ranking, and this layout turns its pre-filter loads into
    /// a sequential stream. Empty until [`SoaView::set_scan_order`] runs.
    scan_weight_rows: Vec<i64>,
    /// Suffix minima of [`SoaView::scan_weight_rows`]
    /// (`scan_suffix_min[i * n + k]` = min of positions `k..` of row `i`):
    /// when the minimum exceeds the filter residual, no later scan position
    /// can fit and the Add scan stops early.
    scan_suffix_min: Vec<i64>,
    /// Inverse of the scan order (`scan_rank[order[k]] = k`): maps an item
    /// to its scan position, so incremental packed-set mirrors of a
    /// solution can flip single bits. Empty until
    /// [`SoaView::set_scan_order`] runs.
    scan_rank: Vec<u32>,
    /// Item indices by descending profit, ties by ascending index.
    by_profit_desc: Vec<usize>,
    /// Identity token, refreshed by [`SoaView::set_scan_order`]: two views
    /// with the same id are guaranteed to hold identical tables, so caches
    /// keyed on the id (the Add scan's packed-set mirror) stay sound.
    id: u64,
}

impl SoaView {
    /// Build the view in O(n·m).
    pub fn new(inst: &Instance) -> Self {
        let (n, m) = (inst.n(), inst.m());
        let mut drop_scores = vec![0f64; n * m];
        let mut drop_order = vec![0usize; n * m];
        for i in 0..m {
            for j in 0..n {
                drop_scores[i * n + j] = drop_score(inst, i, j);
            }
            let row = &drop_scores[i * n..(i + 1) * n];
            let order = &mut drop_order[i * n..(i + 1) * n];
            for (j, slot) in order.iter_mut().enumerate() {
                *slot = j;
            }
            // Scores are never NaN (finite or +inf), so partial_cmp is total.
            order.sort_by(|&a, &b| {
                row[b]
                    .partial_cmp(&row[a])
                    .expect("drop scores are comparable")
                    .then(a.cmp(&b))
            });
        }
        let mut weight_rows = vec![0i64; n * m];
        for j in 0..n {
            for (i, &a) in inst.item_weights(j).iter().enumerate() {
                weight_rows[i * n + j] = a;
            }
        }
        let mut by_profit_desc: Vec<usize> = (0..n).collect();
        by_profit_desc.sort_by(|&a, &b| inst.profit(b).cmp(&inst.profit(a)).then(a.cmp(&b)));
        SoaView {
            n,
            m,
            lanes: LaneColumns::new(inst),
            drop_scores,
            drop_order,
            weight_rows,
            scan_weight_rows: Vec::new(),
            scan_suffix_min: Vec::new(),
            scan_rank: Vec::new(),
            by_profit_desc,
            id: next_view_id(),
        }
    }

    /// Install the scan order (the utility ranking) and materialise the
    /// permuted pre-filter rows plus their suffix minima. `order` must be a
    /// permutation of `0..n`.
    pub fn set_scan_order(&mut self, order: &[usize]) {
        debug_assert_eq!(order.len(), self.n);
        self.scan_weight_rows.clear();
        self.scan_weight_rows.reserve_exact(self.n * self.m);
        for i in 0..self.m {
            let row = &self.weight_rows[i * self.n..(i + 1) * self.n];
            self.scan_weight_rows.extend(order.iter().map(|&j| row[j]));
        }
        self.scan_suffix_min = self.scan_weight_rows.clone();
        for i in 0..self.m {
            let row = &mut self.scan_suffix_min[i * self.n..(i + 1) * self.n];
            for k in (0..self.n.saturating_sub(1)).rev() {
                row[k] = row[k].min(row[k + 1]);
            }
        }
        self.scan_rank = vec![0u32; self.n];
        for (k, &j) in order.iter().enumerate() {
            self.scan_rank[j] = k as u32;
        }
        // The tables changed: invalidate caches keyed on the old identity.
        self.id = next_view_id();
    }

    /// Scan position of each item (inverse of the scan order) — only after
    /// [`SoaView::set_scan_order`]; empty otherwise.
    #[inline]
    pub fn scan_rank(&self) -> &[u32] {
        &self.scan_rank
    }

    /// Identity token: equal ids imply identical tables (see the field
    /// docs). Never zero, so zero is a safe "no view" sentinel.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Pre-filter weights against constraint `i` in scan order — only after
    /// [`SoaView::set_scan_order`]; empty otherwise.
    #[inline]
    pub fn scan_weight_row(&self, i: usize) -> &[i64] {
        if self.scan_weight_rows.is_empty() {
            return &[];
        }
        &self.scan_weight_rows[i * self.n..(i + 1) * self.n]
    }

    /// Suffix minima of [`SoaView::scan_weight_row`] — only after
    /// [`SoaView::set_scan_order`]; empty otherwise.
    #[inline]
    pub fn scan_suffix_min_row(&self, i: usize) -> &[i64] {
        if self.scan_suffix_min.is_empty() {
            return &[];
        }
        &self.scan_suffix_min[i * self.n..(i + 1) * self.n]
    }

    /// Number of items.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of constraints.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The lane-packed weight columns.
    #[inline]
    pub fn lanes(&self) -> &LaneColumns {
        &self.lanes
    }

    /// Tabulated drop score of item `j` against constraint `i` — bit-equal
    /// to [`drop_score`].
    #[inline]
    pub fn drop_score(&self, i: usize, j: usize) -> f64 {
        self.drop_scores[i * self.n + j]
    }

    /// Row of tabulated drop scores against constraint `i` (one per item).
    #[inline]
    pub fn drop_score_row(&self, i: usize) -> &[f64] {
        &self.drop_scores[i * self.n..(i + 1) * self.n]
    }

    /// Items ranked by descending drop score against constraint `i`, ties
    /// by ascending index.
    #[inline]
    pub fn drop_order_row(&self, i: usize) -> &[usize] {
        &self.drop_order[i * self.n..(i + 1) * self.n]
    }

    /// Weights of every item against constraint `i` (transposed row).
    #[inline]
    pub fn weight_row(&self, i: usize) -> &[i64] {
        &self.weight_rows[i * self.n..(i + 1) * self.n]
    }

    /// Items ordered by descending profit (ties by ascending index).
    #[inline]
    pub fn by_profit_desc(&self) -> &[usize] {
        &self.by_profit_desc
    }
}

/// Per-solution cache of lane-packed residual capacities
/// `r_i = b_i − load_i`, saturated at [`LANE_MAX`] (saturation is exact for
/// the fits test: a residual that large admits any lane-encodable weight).
///
/// Invariants (DESIGN.md §12): the cache is valid only for the solution it
/// was last [`ResidualLanes::sync`]ed against, and only while that solution
/// is feasible — a negative residual cannot be lane-encoded, so the cache
/// of an infeasible solution is unusable and callers take the scalar path.
/// Unused trailing lanes hold zero (weight zero vs residual zero: always
/// fits).
#[derive(Debug, Clone)]
pub struct ResidualLanes {
    words: Vec<u64>,
    /// Most-saturated constraint at last sync (smallest residual): the fits
    /// pre-filter tests it scalar-first, since it rejects most candidates.
    filter_i: usize,
    /// Raw (unsaturated) residual of `filter_i`: negative exactly when the
    /// last-synced solution is infeasible, and before the first sync.
    filter_r: i64,
}

impl Default for ResidualLanes {
    fn default() -> Self {
        ResidualLanes::new()
    }
}

impl ResidualLanes {
    /// An empty, unusable cache; [`ResidualLanes::sync`] before use.
    pub fn new() -> Self {
        ResidualLanes {
            words: Vec::new(),
            filter_i: 0,
            filter_r: -1,
        }
    }

    /// Rebuild the residual lanes in `cols`' layout from `sol`'s cached
    /// loads in O(m).
    pub fn sync(&mut self, cols: &LaneColumns, inst: &Instance, sol: &Solution) {
        self.words.clear();
        self.words.resize(cols.words_per_item, 0);
        self.filter_i = 0;
        self.filter_r = i64::MAX;
        for (i, (&load, &cap)) in sol.loads().iter().zip(inst.capacities()).enumerate() {
            let r = cap - load;
            if r < self.filter_r {
                self.filter_i = i;
                self.filter_r = r;
            }
            let lane = r.clamp(0, LANE_MAX) as u64;
            self.words[i / LANES_PER_WORD] |= lane << ((i % LANES_PER_WORD) * 16);
        }
    }

    /// Is the lane fits-kernel exact for the last-synced solution: do
    /// `cols` encode every weight, and is the solution feasible?
    #[inline]
    pub fn usable(&self, cols: &LaneColumns) -> bool {
        cols.ok && self.filter_r >= 0
    }

    /// Most-saturated constraint at last sync (pre-filter index).
    #[inline]
    pub fn filter_constraint(&self) -> usize {
        self.filter_i
    }

    /// Raw residual of [`ResidualLanes::filter_constraint`], the smallest
    /// at the last sync: negative exactly when that solution is infeasible.
    #[inline]
    pub fn filter_residual(&self) -> i64 {
        self.filter_r
    }

    /// The lane-word fits test without the scalar pre-filter, for callers
    /// that apply it themselves (the Add scan's skip predicate, the dynamic
    /// fill's mask pass). Requires [`ResidualLanes::usable`].
    ///
    /// Each word is one SWAR subtract that tests four constraints: per
    /// 16-bit lane, `(r | 0x8000) − a` cannot borrow out of its lane
    /// (minuend ≥ 0x8000, subtrahend ≤ 0x7FFF), and lane bit 15 survives
    /// iff `r ≥ a`. The words' results are ORed together with no early
    /// exit: the word at which a candidate first fails varies from
    /// candidate to candidate, so an exit branch mispredicts and costs
    /// more than the words it skips (DESIGN.md §12).
    #[inline]
    pub fn fits_unfiltered(&self, cols: &LaneColumns, j: usize) -> bool {
        debug_assert!(self.usable(cols), "lane fits on an unusable cache");
        let mut overflow = 0;
        for (&r, &a) in self.words.iter().zip(cols.item(j)) {
            overflow |= !(r | HIGH).wrapping_sub(a) & HIGH;
        }
        overflow == 0
    }

    /// Word-parallel fits test: would adding item `j` keep every residual
    /// non-negative? Requires [`ResidualLanes::usable`].
    ///
    /// A scalar pre-filter checks the most-saturated constraint first — a
    /// single sequential load that settles most rejections without
    /// touching the item's lane column — then
    /// [`ResidualLanes::fits_unfiltered`] tests every constraint.
    #[inline]
    pub fn fits(&self, view: &SoaView, j: usize) -> bool {
        debug_assert!(self.usable(&view.lanes), "lane fits on an unusable cache");
        if view.weight_row(self.filter_i)[j] > self.filter_r {
            return false;
        }
        self.fits_unfiltered(&view.lanes, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop_check;
    use crate::testkit::gen;
    use crate::Xoshiro256;

    fn view_and_lanes(inst: &Instance, sol: &Solution) -> (SoaView, ResidualLanes) {
        let view = SoaView::new(inst);
        let mut lanes = ResidualLanes::new();
        lanes.sync(view.lanes(), inst, sol);
        (view, lanes)
    }

    #[test]
    fn lane_fits_matches_scalar_on_small_instance() {
        let inst = Instance::new(
            "s",
            4,
            3, // m = 3: not a multiple of the lane width
            vec![10, 8, 6, 4],
            vec![
                5, 4, 0, 2, // constraint 0 (item 2 weightless here)
                1, 2, 3, 4, //
                7, 0, 1, 1,
            ],
            vec![8, 4, 7],
        )
        .unwrap();
        let mut sol = Solution::empty(&inst);
        sol.add(&inst, 0);
        let (view, lanes) = view_and_lanes(&inst, &sol);
        assert!(lanes.usable(view.lanes()));
        for j in 1..inst.n() {
            assert_eq!(lanes.fits(&view, j), sol.fits(&inst, j), "item {j}");
        }
    }

    #[test]
    fn saturated_residual_still_exact() {
        // Capacity far beyond LANE_MAX: the residual saturates, but any
        // encodable weight fits — exactly what the scalar test says.
        let inst =
            Instance::new("big", 2, 1, vec![1, 1], vec![LANE_MAX, 3], vec![1 << 40]).unwrap();
        let sol = Solution::empty(&inst);
        let (view, lanes) = view_and_lanes(&inst, &sol);
        assert!(lanes.usable(view.lanes()));
        assert!(lanes.fits(&view, 0));
        assert!(lanes.fits(&view, 1));
    }

    #[test]
    fn oversized_weight_disables_lanes() {
        let inst = Instance::new("w", 2, 1, vec![1, 1], vec![LANE_MAX + 1, 3], vec![100]).unwrap();
        let view = SoaView::new(&inst);
        assert!(!view.lanes().ok());
        let mut lanes = ResidualLanes::new();
        lanes.sync(view.lanes(), &inst, &Solution::empty(&inst));
        assert!(!lanes.usable(view.lanes()));
    }

    #[test]
    fn infeasible_solution_marks_cache_unusable() {
        let inst = Instance::new("inf", 2, 1, vec![1, 1], vec![3, 3], vec![4]).unwrap();
        let mut sol = Solution::empty(&inst);
        sol.add(&inst, 0);
        sol.add(&inst, 1); // load 6 > cap 4
        let (view, lanes) = view_and_lanes(&inst, &sol);
        assert!(view.lanes().ok());
        assert!(!lanes.usable(view.lanes()));
    }

    #[test]
    fn exact_boundary_fits() {
        // load + a == cap must fit (≤, not <) in both paths.
        let inst = Instance::new("b", 2, 2, vec![1, 1], vec![3, 4, 1, 2], vec![7, 3]).unwrap();
        let mut sol = Solution::empty(&inst);
        sol.add(&inst, 0); // loads [3, 1]; residuals [4, 2]
        let (view, lanes) = view_and_lanes(&inst, &sol);
        assert!(lanes.fits(&view, 1)); // weights [4, 2]: exact fill
        assert_eq!(lanes.fits(&view, 1), sol.fits(&inst, 1));
    }

    #[test]
    fn drop_score_table_is_bit_equal() {
        let inst = crate::generate::uncorrelated_instance("t", 30, 5, 0.5, 3);
        let view = SoaView::new(&inst);
        for i in 0..inst.m() {
            for j in 0..inst.n() {
                let a = view.drop_score(i, j);
                let b = drop_score(&inst, i, j);
                assert!(
                    a == b || (a.is_nan() && b.is_nan()),
                    "score ({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn drop_order_ranks_scores_descending_with_index_ties() {
        let inst = crate::generate::uncorrelated_instance("o", 40, 6, 0.5, 9);
        let view = SoaView::new(&inst);
        for i in 0..inst.m() {
            let row = view.drop_score_row(i);
            let order = view.drop_order_row(i);
            let mut seen: Vec<usize> = order.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..inst.n()).collect::<Vec<_>>(), "permutation");
            for pair in order.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                assert!(
                    row[a] > row[b] || (row[a] == row[b] && a < b),
                    "constraint {i}: {a} before {b}"
                );
            }
        }
    }

    #[test]
    fn profit_order_descends_with_index_ties() {
        let inst = Instance::new("p", 4, 1, vec![5, 9, 5, 1], vec![1, 1, 1, 1], vec![4]).unwrap();
        let view = SoaView::new(&inst);
        assert_eq!(view.by_profit_desc(), &[1, 0, 2, 3]);
    }

    /// Random instance generator stressing the encoding edges: m not a
    /// multiple of the lane width, zero-weight items, tight capacities,
    /// and (sometimes) weights beyond the lane payload.
    fn arb_input(rng: &mut Xoshiro256) -> (Instance, Vec<usize>) {
        let n = gen::usize_in(rng, 2, 24);
        let m = gen::usize_in(rng, 1, 10);
        let oversized = gen::boolean(rng);
        let max_w = if oversized { LANE_MAX + 50 } else { 60 };
        let profits: Vec<i64> = (0..n).map(|_| gen::i64_in(rng, 0, 99)).collect();
        // Zero weights are common by construction.
        let weights: Vec<i64> = (0..n * m)
            .map(|_| {
                if gen::boolean(rng) {
                    0
                } else {
                    gen::i64_in(rng, 1, max_w)
                }
            })
            .collect();
        // Tight capacities: a small multiple of the mean row weight.
        let caps: Vec<i64> = (0..m).map(|_| gen::i64_in(rng, 0, 4 * max_w)).collect();
        let toggles = gen::vec_of(rng, 0, 50, |r| gen::usize_in(r, 0, n));
        (
            Instance::new("prop", n, m, profits, weights, caps).unwrap(),
            toggles,
        )
    }

    /// The core equivalence property: wherever the lane cache declares
    /// itself usable, its fits verdict equals the scalar reference for
    /// every unpacked item, across arbitrary add/drop trajectories.
    #[test]
    fn prop_lane_fits_equals_scalar() {
        prop_check!(|rng| arb_input(rng), |input| {
            let (inst, toggles) = input;
            let view = SoaView::new(inst);
            let mut lanes = ResidualLanes::new();
            let mut sol = Solution::empty(inst);
            lanes.sync(view.lanes(), inst, &sol);
            for &j in toggles.iter().filter(|&&j| j < inst.n()) {
                if sol.contains(j) {
                    sol.drop(inst, j);
                } else {
                    sol.add(inst, j);
                }
                lanes.sync(view.lanes(), inst, &sol);
                // The cache must refuse service exactly when the solution
                // is infeasible or a weight cannot be encoded.
                assert_eq!(
                    lanes.usable(view.lanes()),
                    view.lanes().ok() && sol.is_feasible(inst)
                );
                if !lanes.usable(view.lanes()) {
                    continue;
                }
                for q in 0..inst.n() {
                    if !sol.contains(q) {
                        assert_eq!(
                            lanes.fits(&view, q),
                            sol.fits(inst, q),
                            "item {q} after toggling {j}"
                        );
                    }
                }
            }
        });
    }
}
