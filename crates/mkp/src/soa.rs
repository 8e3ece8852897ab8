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
//! [`ResidualLanes::fits`] and [`ResidualLanes::fits_unfiltered`] equal
//! [`crate::Solution::fits`] on every instance and every solution. They
//! read the lane words where those decide the test exactly (every weight
//! ≤ [`LANE_MAX`], every residual non-negative) and run the scalar test
//! elsewhere, so callers never choose a route: the view is an evaluation
//! cache, never a semantic change.
//!
//! Beside the lanes, [`LaneColumns`] holds a weight-level index: per
//! constraint, the items bucketed by their weight shifted down to
//! [`LEVELS`] levels, as one bitset per level. [`LaneColumns::narrow`]
//! ANDs one bitset per constraint into a superset of the items that fit a
//! solution, so a refill's first pass runs the exact test on a few dozen
//! items instead of every unpacked one. The index does not depend on the
//! lane encoding and serves over-wide instances too.
//!
//! The view's drop rankings are sorted on packed keys (inverted score
//! bits above the item index) and stored as `u32`.

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

/// Levels of the weight-level index in [`LaneColumns`]: each constraint's
/// weights are shifted right until the largest is below `LEVELS`, and an
/// item's level is its shifted weight. Chosen on the intensification
/// kernel benches (medians of 5 alternating smoke rounds, 2-vCPU Xeon VM)
/// against 16 levels: 4 levels ran every ejection-chain and drop-refill
/// bench from 10×250 to 50×1000 1.06–1.17× slower, and 32 levels were no
/// faster beyond noise (0.94–1.04×) and 1.30× slower on
/// `ejection_chain 5x100`, which builds its index per call. On L2
/// (100×2500) the index takes 96 kB at 4 levels, 480 kB at 16 and 992 kB
/// at 32.
pub const LEVELS: usize = 16;

/// An instance's weight columns packed four constraints per `u64` word,
/// 16 bits per lane: the one lane encoding every word-parallel fits test
/// reads. Part of [`SoaView`]; a caller of the ejection chain that holds
/// no view packs its own in O(n·m) through
/// `ejection_chain_intensification`.
///
/// Beside the lanes it holds a weight-level index, which does not depend
/// on the lane encoding: per constraint i a shift `s_i`, the smallest
/// with `max_j a_ij >> s_i < LEVELS`, and per level `l < LEVELS − 1` the
/// bitset `{j : a_ij >> s_i ≤ l}`. [`LaneColumns::narrow`] intersects one
/// bitset per constraint into a superset of the items that fit.
#[derive(Debug, Clone)]
pub struct LaneColumns {
    words_per_item: usize,
    /// The lane words, then the level index. `words[j * words_per_item +
    /// w]` holds constraints `4w .. 4w+3` of item `j`, 16 bits each;
    /// unused lanes are zero (zero weight always fits). There are no lane
    /// words when a weight exceeds [`LANE_MAX`]. From `index_start` on,
    /// the ⌈n/64⌉ words at `index_start + (i * (LEVELS − 1) + l) * blocks`
    /// hold the level-`l` bitset of constraint `i`, bits past n zero.
    words: Vec<u64>,
    /// `shifts[i]` = `s_i`, the level shift of constraint `i`.
    shifts: Vec<u32>,
    /// Start of the level index in `words`.
    index_start: usize,
    /// Words per item bitset, ⌈n/64⌉.
    blocks: usize,
    /// All weights fit the lane payload.
    ok: bool,
}

impl LaneColumns {
    /// Pack `inst`'s columns and build the level index in O(n·m); the lane
    /// words are left out when a weight exceeds [`LANE_MAX`].
    pub fn new(inst: &Instance) -> Self {
        let (n, m) = (inst.n(), inst.m());
        let words_per_item = m.div_ceil(LANES_PER_WORD);
        let blocks = n.div_ceil(64);
        let ok = (0..n).all(|j| inst.item_weights(j).iter().all(|&a| a <= LANE_MAX));
        let index_start = if ok { n * words_per_item } else { 0 };
        let set_words = (LEVELS - 1) * blocks;
        let mut words = vec![0u64; index_start + m * set_words];
        if ok {
            for (j, column) in words[..index_start]
                .chunks_exact_mut(words_per_item)
                .enumerate()
            {
                for (i, &a) in inst.item_weights(j).iter().enumerate() {
                    column[i / LANES_PER_WORD] |= (a as u64) << ((i % LANES_PER_WORD) * 16);
                }
            }
        }
        let mut shifts = Vec::with_capacity(m);
        for i in 0..m {
            let row = inst.constraint_row(i);
            let max = row.iter().copied().max().unwrap_or(0);
            let mut shift = 0;
            while max >> shift >= LEVELS as i64 {
                shift += 1;
            }
            shifts.push(shift);
            let start = index_start + i * set_words;
            let sets = &mut words[start..start + set_words];
            for (j, &a) in row.iter().enumerate() {
                let level = (a >> shift) as usize;
                if level < LEVELS - 1 {
                    sets[level * blocks + j / 64] |= 1 << (j % 64);
                }
            }
            // Prefix OR: level l also holds every item below it.
            for l in 1..LEVELS - 1 {
                let (below, at) = sets.split_at_mut(l * blocks);
                for (word, &prev) in at[..blocks].iter_mut().zip(&below[(l - 1) * blocks..]) {
                    *word |= prev;
                }
            }
        }
        LaneColumns {
            words_per_item,
            words,
            shifts,
            index_start,
            blocks,
            ok,
        }
    }

    /// Do all weights fit the 15-bit lane payload? When false every fits
    /// test over these columns runs the scalar test.
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

    /// Write into `mask`, as ⌈n/64⌉ words over the items, a superset of
    /// the items outside `sol` that fit it, and nothing at or past n;
    /// `inst` must be the columns' instance. With every residual `r_i`
    /// non-negative, each constraint whose level `r_i >> s_i` is below
    /// `LEVELS − 1` intersects its bitset of that level; the others admit
    /// every item. `a_ij ≤ r_i` implies `a_ij >> s_i ≤ r_i >> s_i`, so
    /// every fitting item survives. A negative residual fits nothing and
    /// leaves the mask empty. O(n/64 · m).
    pub fn narrow(&self, inst: &Instance, sol: &Solution, mask: &mut Vec<u64>) {
        mask.clear();
        mask.extend(sol.bits().words().iter().map(|&packed| !packed));
        let tail = inst.n() % 64;
        if tail != 0 {
            let last = mask.len() - 1;
            mask[last] &= (1u64 << tail) - 1;
        }
        let set_words = (LEVELS - 1) * self.blocks;
        let rows = sol.loads().iter().zip(inst.capacities()).zip(&self.shifts);
        for (i, ((&load, &cap), &shift)) in rows.enumerate() {
            let r = cap - load;
            if r < 0 {
                mask.fill(0);
                return;
            }
            let level = r >> shift;
            if level < (LEVELS - 1) as i64 {
                let at = self.index_start + i * set_words + level as usize * self.blocks;
                for (word, &set) in mask.iter_mut().zip(&self.words[at..at + self.blocks]) {
                    *word &= set;
                }
            }
        }
    }
}

/// Structure-of-arrays evaluation view of an instance: lane-packed weight
/// columns, the drop rankings, the Add scan's tables and a
/// profit-descending item order for intensification scans. Built once per
/// instance, in the utility ranking's scan order, by
/// [`crate::eval::Ratios::new`] for a search to read (a construction reads
/// the [`crate::eval::Ranking`] alone); immutable thereafter.
#[derive(Debug, Clone)]
pub struct SoaView {
    n: usize,
    lanes: LaneColumns,
    /// `drop_order[i * n ..]` holds the items ranked by descending
    /// [`drop_score`] against constraint `i`, ties by ascending index —
    /// exactly the order a max-scan with a strict `>` visits its winners.
    /// The Drop selection walks this static ranking instead of comparing
    /// scores per packed item.
    drop_order: Vec<u32>,
    /// The weight matrix with each row permuted into the scan order
    /// (`scan_weight_rows[i * n + k]` = `a_i,order[k]`): the Add scan walks
    /// the utility ranking, and this layout turns its pre-filter loads into
    /// a sequential stream.
    scan_weight_rows: Vec<i64>,
    /// Suffix minima of [`SoaView::scan_weight_rows`]
    /// (`scan_suffix_min[i * n + k]` = min of positions `k..` of row `i`):
    /// when the minimum exceeds the filter residual, no later scan position
    /// can fit and the Add scan stops early.
    scan_suffix_min: Vec<i64>,
    /// Inverse of the scan order (`scan_rank[order[k]] = k`): maps an item
    /// to its scan position, so incremental packed-set mirrors of a
    /// solution can flip single bits.
    scan_rank: Vec<u32>,
    /// Item indices by descending profit, ties by ascending index.
    by_profit_desc: Vec<usize>,
    /// Identity token, unique to the build: two views with the same id are
    /// clones holding identical tables, so caches keyed on the id (the Add
    /// scan's packed-set mirror) stay sound.
    id: u64,
}

impl SoaView {
    /// Build the view of `inst` for the Add scan order `order` (a
    /// permutation of `0..n`, the utility ranking) in O(n·m + m·n log n).
    ///
    /// Each drop ranking sorts packed keys: the score's bits inverted
    /// above the item index. Drop scores are never NaN and never −0.0
    /// (`+0.0`, positive, or `+∞`), so their bit patterns order as their
    /// values do, and the inverted bits order them descending. The keys
    /// are unique, so the unstable sort gives the stable sort's order.
    pub fn new(inst: &Instance, order: &[usize]) -> Self {
        let (n, m) = (inst.n(), inst.m());
        assert_eq!(order.len(), n, "the scan order must rank every item");
        assert!(u32::try_from(n).is_ok(), "item indices must fit u32");
        let mut drop_order = Vec::with_capacity(n * m);
        let mut scan_weight_rows = Vec::with_capacity(n * m);
        let mut scan_suffix_min = Vec::with_capacity(n * m);
        let mut keys = vec![0u128; n];
        for i in 0..m {
            for (j, key) in keys.iter_mut().enumerate() {
                let score = drop_score(inst, i, j);
                debug_assert!(score >= 0.0 && score.is_sign_positive());
                *key = u128::from(!score.to_bits()) << 32 | j as u128;
            }
            keys.sort_unstable();
            drop_order.extend(keys.iter().map(|&key| key as u32));
            let row = inst.constraint_row(i);
            scan_weight_rows.extend(order.iter().map(|&j| row[j]));
            let start = scan_suffix_min.len();
            scan_suffix_min.extend_from_slice(&scan_weight_rows[start..]);
            let suffix = &mut scan_suffix_min[start..];
            for k in (0..n - 1).rev() {
                suffix[k] = suffix[k].min(suffix[k + 1]);
            }
        }
        let mut scan_rank = vec![0u32; n];
        for (k, &j) in order.iter().enumerate() {
            scan_rank[j] = k as u32;
        }
        let mut by_profit_desc: Vec<usize> = (0..n).collect();
        by_profit_desc.sort_by(|&a, &b| inst.profit(b).cmp(&inst.profit(a)).then(a.cmp(&b)));
        SoaView {
            n,
            lanes: LaneColumns::new(inst),
            drop_order,
            scan_weight_rows,
            scan_suffix_min,
            scan_rank,
            by_profit_desc,
            id: NEXT_VIEW_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Scan position of each item (inverse of the scan order).
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

    /// Weights against constraint `i` in scan order.
    #[inline]
    pub fn scan_weight_row(&self, i: usize) -> &[i64] {
        &self.scan_weight_rows[i * self.n..(i + 1) * self.n]
    }

    /// Suffix minima of [`SoaView::scan_weight_row`].
    #[inline]
    pub fn scan_suffix_min_row(&self, i: usize) -> &[i64] {
        &self.scan_suffix_min[i * self.n..(i + 1) * self.n]
    }

    /// The lane-packed weight columns.
    #[inline]
    pub fn lanes(&self) -> &LaneColumns {
        &self.lanes
    }

    /// Items ranked by descending drop score against constraint `i`, ties
    /// by ascending index.
    #[inline]
    pub fn drop_order_row(&self, i: usize) -> &[u32] {
        &self.drop_order[i * self.n..(i + 1) * self.n]
    }

    /// Items ordered by descending profit (ties by ascending index).
    #[inline]
    pub fn by_profit_desc(&self) -> &[usize] {
        &self.by_profit_desc
    }
}

/// Per-solution cache of lane-packed residual capacities
/// `r_i = b_i − load_i`, clamped to `[0, LANE_MAX]` (saturation is exact
/// for the fits test: a residual that large admits any lane-encodable
/// weight).
///
/// Its fits tests answer for the solution it was last
/// [`ResidualLanes::sync`]ed against, which they take as an argument.
/// The lane words decide only where they are exact: the columns encode
/// every weight and no residual is negative. An infeasible solution's
/// negative residual clamps to zero, where a weightless item would pass
/// the lane test, so there, and on over-wide columns, the tests run
/// [`Solution::fits`] (DESIGN.md §12). Unused trailing lanes hold zero
/// (weight zero vs residual zero: always fits).
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
    /// An empty cache; [`ResidualLanes::sync`] before use.
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

    /// [`Solution::fits`] for `sol`, the last-synced solution over `cols`,
    /// without the one-row pre-filter, for callers that narrow the
    /// candidates themselves (the Add scan's skip predicate, the dynamic
    /// fill's level index).
    ///
    /// On the lane route each word is one SWAR subtract that tests four
    /// constraints: per 16-bit lane, `(r | 0x8000) − a` cannot borrow out
    /// of its lane (minuend ≥ 0x8000, subtrahend ≤ 0x7FFF), and lane bit 15
    /// survives iff `r ≥ a`. The words' results are ORed together with no
    /// early exit: the word at which a candidate first fails varies from
    /// candidate to candidate, so an exit branch mispredicts and costs
    /// more than the words it skips (DESIGN.md §12).
    #[inline]
    pub fn fits_unfiltered(
        &self,
        cols: &LaneColumns,
        inst: &Instance,
        sol: &Solution,
        j: usize,
    ) -> bool {
        if !cols.ok || self.filter_r < 0 {
            return sol.fits(inst, j);
        }
        let mut overflow = 0;
        for (&r, &a) in self.words.iter().zip(cols.item(j)) {
            overflow |= !(r | HIGH).wrapping_sub(a) & HIGH;
        }
        overflow == 0
    }

    /// [`Solution::fits`] for `sol`, the last-synced solution over `cols`:
    /// would adding item `j` keep every residual non-negative?
    ///
    /// A scalar pre-filter checks the most-saturated constraint first — a
    /// single load that settles most rejections without touching the
    /// item's lane column — then [`ResidualLanes::fits_unfiltered`] tests
    /// every constraint.
    #[inline]
    pub fn fits(&self, cols: &LaneColumns, inst: &Instance, sol: &Solution, j: usize) -> bool {
        inst.weight(self.filter_i, j) <= self.filter_r && self.fits_unfiltered(cols, inst, sol, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop_check;
    use crate::testkit::gen;
    use crate::Xoshiro256;

    /// The view of `inst` with the identity scan order.
    fn view_of(inst: &Instance) -> SoaView {
        SoaView::new(inst, &(0..inst.n()).collect::<Vec<_>>())
    }

    fn view_and_lanes(inst: &Instance, sol: &Solution) -> (SoaView, ResidualLanes) {
        let view = view_of(inst);
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
        assert!(view.lanes().ok());
        for j in 1..inst.n() {
            assert_eq!(
                lanes.fits(view.lanes(), &inst, &sol, j),
                sol.fits(&inst, j),
                "item {j}"
            );
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
        assert!(view.lanes().ok());
        assert!(lanes.fits(view.lanes(), &inst, &sol, 0));
        assert!(lanes.fits(view.lanes(), &inst, &sol, 1));
    }

    #[test]
    fn oversized_weight_disables_lanes() {
        // The columns cannot encode item 0, so the tests run the scalar
        // test, which still tells the over-wide item from the one that fits.
        let inst = Instance::new("w", 2, 1, vec![1, 1], vec![LANE_MAX + 1, 3], vec![100]).unwrap();
        let sol = Solution::empty(&inst);
        let (view, lanes) = view_and_lanes(&inst, &sol);
        assert!(!view.lanes().ok());
        for fits in [ResidualLanes::fits, ResidualLanes::fits_unfiltered] {
            assert!(!fits(&lanes, view.lanes(), &inst, &sol, 0));
            assert!(fits(&lanes, view.lanes(), &inst, &sol, 1));
        }
    }

    #[test]
    fn infeasible_solution_marks_cache_unusable() {
        // Load 6 > cap 4 clamps the residual lane to zero, where the
        // weightless item 2 would pass the lane words; the tests defer to
        // the scalar test, which fits nothing into an infeasible solution.
        let inst = Instance::new("inf", 3, 1, vec![1, 1, 1], vec![3, 3, 0], vec![4]).unwrap();
        let mut sol = Solution::empty(&inst);
        sol.add(&inst, 0);
        sol.add(&inst, 1);
        let (view, lanes) = view_and_lanes(&inst, &sol);
        assert!(view.lanes().ok());
        assert!(lanes.filter_residual() < 0);
        assert!(!sol.fits(&inst, 2));
        assert!(!lanes.fits(view.lanes(), &inst, &sol, 2));
        assert!(!lanes.fits_unfiltered(view.lanes(), &inst, &sol, 2));
    }

    #[test]
    fn exact_boundary_fits() {
        // load + a == cap must fit (≤, not <) in both paths.
        let inst = Instance::new("b", 2, 2, vec![1, 1], vec![3, 4, 1, 2], vec![7, 3]).unwrap();
        let mut sol = Solution::empty(&inst);
        sol.add(&inst, 0); // loads [3, 1]; residuals [4, 2]
        let (view, lanes) = view_and_lanes(&inst, &sol);
        assert!(lanes.fits(view.lanes(), &inst, &sol, 1)); // weights [4, 2]: exact fill
        assert!(sol.fits(&inst, 1));
    }

    /// Each drop ranking of `inst`'s view is a permutation in descending
    /// score, ties by ascending index.
    fn assert_drop_order(inst: &Instance) {
        let view = view_of(inst);
        for i in 0..inst.m() {
            let score = |j: u32| drop_score(inst, i, j as usize);
            let order = view.drop_order_row(i);
            let mut seen = order.to_vec();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..inst.n() as u32).collect::<Vec<_>>(),
                "permutation"
            );
            for pair in order.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                assert!(
                    score(a) > score(b) || (score(a) == score(b) && a < b),
                    "constraint {i}: {a} before {b}"
                );
            }
        }
    }

    /// On an uncorrelated instance, and on tied ones, whose zero profits
    /// and weights give `+∞` and `0.0` scores and many equal ones.
    #[test]
    fn drop_order_ranks_scores_descending_with_index_ties() {
        assert_drop_order(&crate::generate::uncorrelated_instance("o", 40, 6, 0.5, 9));
        prop_check!(|rng| gen::tied_instance(rng), |inst| assert_drop_order(
            inst
        ));
    }

    #[test]
    fn scan_tables_follow_the_scan_order() {
        let inst = crate::generate::uncorrelated_instance("s", 30, 5, 0.5, 4);
        let mut order: Vec<usize> = (0..inst.n()).collect();
        Xoshiro256::seed_from_u64(4).shuffle(&mut order);
        let view = SoaView::new(&inst, &order);
        for (k, &j) in order.iter().enumerate() {
            assert_eq!(view.scan_rank()[j] as usize, k);
        }
        for i in 0..inst.m() {
            let row = view.scan_weight_row(i);
            let suffix = view.scan_suffix_min_row(i);
            for (k, &j) in order.iter().enumerate() {
                assert_eq!(row[k], inst.weight(i, j), "constraint {i}, position {k}");
                assert_eq!(suffix[k], *row[k..].iter().min().unwrap());
            }
        }
    }

    #[test]
    fn profit_order_descends_with_index_ties() {
        let inst = Instance::new("p", 4, 1, vec![5, 9, 5, 1], vec![1, 1, 1, 1], vec![4]).unwrap();
        assert_eq!(view_of(&inst).by_profit_desc(), &[1, 0, 2, 3]);
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

    /// The core equivalence property: in every state of arbitrary add/drop
    /// trajectories, feasible or not, over columns that encode the
    /// instance or not, both lane fits tests equal the scalar reference
    /// for every unpacked item.
    #[test]
    fn prop_lane_fits_equals_scalar() {
        prop_check!(|rng| arb_input(rng), |input| {
            let (inst, toggles) = input;
            let view = view_of(inst);
            let cols = view.lanes();
            let mut lanes = ResidualLanes::new();
            let mut sol = Solution::empty(inst);
            lanes.sync(cols, inst, &sol);
            for &j in toggles.iter().filter(|&&j| j < inst.n()) {
                if sol.contains(j) {
                    sol.drop(inst, j);
                } else {
                    sol.add(inst, j);
                }
                lanes.sync(cols, inst, &sol);
                for q in (0..inst.n()).filter(|&q| !sol.contains(q)) {
                    let scalar = sol.fits(inst, q);
                    let feasible = sol.is_feasible(inst);
                    assert_eq!(
                        lanes.fits(cols, inst, &sol, q),
                        scalar,
                        "item {q} after toggling {j}, feasible {feasible}"
                    );
                    assert_eq!(
                        lanes.fits_unfiltered(cols, inst, &sol, q),
                        scalar,
                        "item {q} after toggling {j}, feasible {feasible}, unfiltered"
                    );
                }
            }
        });
    }

    /// The items of `mask`, ascending.
    fn mask_items(mask: &[u64]) -> Vec<usize> {
        (0..mask.len() * 64)
            .filter(|&j| mask[j / 64] >> (j % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn narrow_drops_the_items_above_each_residual_level() {
        // Row 0 spans levels 0–15 (shift 0); row 1 weighs nothing.
        let inst = Instance::new(
            "n",
            4,
            2,
            vec![1, 1, 1, 1],
            vec![
                15, 3, 9, 5, //
                0, 0, 0, 0,
            ],
            vec![8, 0],
        )
        .unwrap();
        let cols = LaneColumns::new(&inst);
        let mut mask = Vec::new();
        let sol = Solution::empty(&inst);
        cols.narrow(&inst, &sol, &mut mask);
        assert_eq!(mask_items(&mask), [1, 3]);
        let mut sol = sol;
        sol.add(&inst, 1); // residual 5: item 3 still fits
        cols.narrow(&inst, &sol, &mut mask);
        assert_eq!(mask_items(&mask), [3]);
    }

    /// Instances for the level index: n around multiples of 64 or below
    /// m, and per row a weight scale of its own — all zero, below the
    /// level count, up to [`LANE_MAX`], or far above it.
    fn arb_level_instance(rng: &mut Xoshiro256) -> Instance {
        let n = match gen::usize_in(rng, 0, 3) {
            0 => 64 * gen::usize_in(rng, 1, 3) + gen::usize_in(rng, 0, 3) - 1,
            1 => gen::usize_in(rng, 1, 4),
            _ => gen::usize_in(rng, 1, 200),
        };
        let m = gen::usize_in(rng, 1, 12);
        let profits: Vec<i64> = (0..n).map(|_| gen::i64_in(rng, 0, 50)).collect();
        let mut weights = Vec::with_capacity(n * m);
        let mut caps = Vec::with_capacity(m);
        for _ in 0..m {
            let max_w = [0, LEVELS as i64 - 1, 1_000, LANE_MAX, 1 << 40][gen::usize_in(rng, 0, 5)];
            weights.extend((0..n).map(|_| gen::i64_in(rng, 0, max_w)));
            caps.push(gen::i64_in(rng, 0, max_w.max(1) * n as i64 / 2));
        }
        Instance::new("levels", n, m, profits, weights, caps).unwrap()
    }

    /// The narrowed set of a solution holds every unpacked item that fits
    /// it, nothing packed and nothing at or past n: on feasible starts
    /// (empty, maximal and thinned) it is a superset of the fitting
    /// items, and on an infeasible one, which nothing fits, it is empty.
    #[test]
    fn prop_narrow_keeps_every_fitting_item() {
        prop_check!(|rng| (arb_level_instance(rng), rng.next_u64()), |input| {
            let (inst, seed) = input;
            let mut rng = Xoshiro256::seed_from_u64(*seed);
            let cols = LaneColumns::new(inst);
            let maximal = crate::greedy::random_feasible(inst, &mut rng);
            let mut thinned = maximal.clone();
            for j in maximal.bits().iter_ones() {
                if gen::boolean(&mut rng) {
                    thinned.drop(inst, j);
                }
            }
            let bits = crate::BitVec::from_bools((0..inst.n()).map(|_| gen::boolean(&mut rng)));
            let random = Solution::from_bits(inst, bits);
            let mut mask = Vec::new();
            for sol in [Solution::empty(inst), maximal, thinned, random] {
                cols.narrow(inst, &sol, &mut mask);
                assert_eq!(mask.len(), inst.n().div_ceil(64));
                let narrowed = mask_items(&mask);
                assert!(narrowed.iter().all(|&j| j < inst.n() && !sol.contains(j)));
                let fitting: Vec<usize> = sol
                    .bits()
                    .iter_zeros()
                    .filter(|&j| sol.fits(inst, j))
                    .collect();
                assert!(
                    fitting.iter().all(|j| narrowed.binary_search(j).is_ok()),
                    "fitting {fitting:?} not within {narrowed:?}"
                );
                if !sol.is_feasible(inst) {
                    assert!(narrowed.is_empty());
                }
            }
        });
    }
}
