//! The Drop/Add move operator (paper §3.1, Fig. 1 step 5).
//!
//! One move is `nb_drop` Drop steps followed by a saturating Add phase:
//!
//! * **Drop** — find the most saturated constraint
//!   `i* = argmin_i (b_i − Σ_j a_ij x_j)` and remove the packed item
//!   maximizing `a_{i*j} / c_j` (highest pressure per unit profit). The
//!   dropped item becomes tabu-to-add.
//! * **Add** — repeatedly insert the best-pseudo-utility item that fits and
//!   is not tabu, where the aspiration criterion overrides tabu status for
//!   an item whose insertion beats the best value found so far.
//!
//! Both selections carry a small amount of *noise*: with probability
//! `noise` the choice falls uniformly on one of the top [`RCL_WIDTH`]
//! candidates instead of the single best. This is what decorrelates
//! parallel search threads that restart from the same solution — without
//! it, a deterministic engine retraces the identical path and cooperation
//! degenerates to replication (the failure mode §2 ascribes to naive
//! independent-thread parallelism).
//!
//! # Word-parallel hot path
//!
//! The scans below are the innermost loops of every experiment, so they
//! run on the structure-of-arrays view (DESIGN.md §12): the Drop step walks
//! the per-constraint drop rankings of [`mkp::soa::SoaView`], the Add phase
//! is one scan over the view's scan-order tables, every feasibility test is
//! the exact fits test of [`mkp::soa::ResidualLanes`] (u64-lane SWAR where
//! the lanes decide, the scalar test elsewhere), and all per-move scratch
//! lives in a thread-local [`MoveWorkspace`] so the steady-state path
//! never touches the allocator. The selected moves, every stats counter
//! and every RNG draw are those of the one-at-a-time reference
//! ([`select_drop`], [`select_add`]) — the equivalence is property-tested
//! here and in `mkp::soa` and pinned by the workspace determinism tests.

use crate::tabu_list::TabuMemory;
use mkp::eval::Ratios;
use mkp::soa::ResidualLanes;
use mkp::{Instance, Solution, Xoshiro256};
use std::cell::RefCell;

/// Number of top candidates eligible when a noisy pick fires.
pub const RCL_WIDTH: usize = 3;

/// Work counters, the machine-independent budget unit of all experiments
/// (see DESIGN.md §4 on substituting wall-clock time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveStats {
    /// Completed drop/add moves.
    pub moves: u64,
    /// Candidate items examined across drop and add scans.
    pub candidate_evals: u64,
    /// Items removed by Drop steps.
    pub drops: u64,
    /// Items inserted by Add phases.
    pub adds: u64,
    /// Tabu candidates admitted by the aspiration criterion.
    pub aspiration_hits: u64,
    /// Candidates rejected for being tabu (and not aspired).
    pub tabu_rejections: u64,
    /// Deepest infeasible excursion strategic oscillation reached (a
    /// high-water gauge, not a running sum).
    pub oscillation_max_depth: u64,
}

/// Items held inline before an [`ItemList`] spills to the heap. A move
/// drops `nb_drop` (≤ 3 in every experiment) and adds a handful, so the
/// inline capacity covers the steady state.
const INLINE_ITEMS: usize = 8;

/// Small-vector list of item indices: inline storage for the common case,
/// a heap spill (holding *all* elements, so the slice view stays
/// contiguous) beyond [`INLINE_ITEMS`]. Dereferences to `&[usize]`.
#[derive(Debug)]
pub struct ItemList {
    inline: [usize; INLINE_ITEMS],
    spill: Vec<usize>,
    len: usize,
}

impl ItemList {
    /// An empty list (no allocation).
    pub fn new() -> Self {
        ItemList {
            inline: [0; INLINE_ITEMS],
            spill: Vec::new(),
            len: 0,
        }
    }

    /// Remove all items, keeping any spill capacity.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Append an item.
    pub fn push(&mut self, item: usize) {
        if self.len < INLINE_ITEMS {
            self.inline[self.len] = item;
        } else {
            if self.len == INLINE_ITEMS {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(item);
        }
        self.len += 1;
    }

    /// Insert an item at the front (O(len); lists stay tiny).
    pub fn insert_front(&mut self, item: usize) {
        if self.len < INLINE_ITEMS {
            self.inline.copy_within(0..self.len, 1);
            self.inline[0] = item;
        } else {
            if self.len == INLINE_ITEMS {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.insert(0, item);
        }
        self.len += 1;
    }

    /// The items as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        if self.len <= INLINE_ITEMS {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl Default for ItemList {
    fn default() -> Self {
        ItemList::new()
    }
}

// Manual `Clone` so `clone_from` into scratch space reuses the spill
// buffer instead of reallocating (best-of-K clones outcomes every move).
impl Clone for ItemList {
    fn clone(&self) -> Self {
        ItemList {
            inline: self.inline,
            spill: self.spill.clone(),
            len: self.len,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.inline = source.inline;
        self.spill.clone_from(&source.spill);
        self.len = source.len;
    }
}

impl std::ops::Deref for ItemList {
    type Target = [usize];

    #[inline]
    fn deref(&self) -> &[usize] {
        self.as_slice()
    }
}

impl PartialEq for ItemList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ItemList {}

impl<'a> IntoIterator for &'a ItemList {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<usize> for ItemList {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut list = ItemList::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

/// Result of applying one move.
#[derive(Debug, PartialEq, Eq)]
pub struct MoveOutcome {
    /// Items removed by the Drop steps.
    pub dropped: ItemList,
    /// Items inserted by the Add phase.
    pub added: ItemList,
    /// An aspiration override fired during the Add phase.
    pub aspired: bool,
}

// Manual `Clone` for an allocation-free `clone_from` (scratch reuse).
impl Clone for MoveOutcome {
    fn clone(&self) -> Self {
        MoveOutcome {
            dropped: self.dropped.clone(),
            added: self.added.clone(),
            aspired: self.aspired,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.dropped.clone_from(&source.dropped);
        self.added.clone_from(&source.added);
        self.aspired = source.aspired;
    }
}

impl MoveOutcome {
    /// An empty outcome (no allocation); scratch slots start here.
    pub fn empty() -> Self {
        MoveOutcome {
            dropped: ItemList::new(),
            added: ItemList::new(),
            aspired: false,
        }
    }
}

/// Per-thread scratch for the Add phase: the lane-packed residual cache
/// and the transient candidate lists. Thread-local so `apply_move` keeps
/// its signature while the steady-state path stays allocation-free.
struct MoveWorkspace {
    lanes: ResidualLanes,
    /// Fitting-but-tabu-rejected items from the first Add pass, in scan
    /// order, with their relaxation keys — the only possible candidates of
    /// the relaxed saturation loop.
    relaxed: Vec<(usize, u64)>,
    /// Noise-skipped admissible items awaiting their second chance.
    skipped: Vec<usize>,
    /// Packed-set mirror of the last mirrored solution in *scan order*:
    /// bit `k` ⇔ `order[k]` packed, tail bits past `n` set (never visited).
    /// Valid only while (`mirror_view`, `sol_words`) match the live view id
    /// and the solution's raw bit words — an exact witness, so a stale
    /// mirror is impossible; on mismatch the Add scan rebuilds it in O(n).
    mirror: Vec<u64>,
    /// Raw bit words of the mirrored solution (validity witness).
    sol_words: Vec<u64>,
    /// [`mkp::soa::SoaView::id`] the mirror was built against (0 = none).
    mirror_view: u64,
}

thread_local! {
    static WORKSPACE: RefCell<MoveWorkspace> = RefCell::new(MoveWorkspace {
        lanes: ResidualLanes::new(),
        relaxed: Vec::new(),
        skipped: Vec::new(),
        mirror: Vec::new(),
        sol_words: Vec::new(),
        mirror_view: 0,
    });
}

/// Select the packed item to drop against constraint `i_star`.
///
/// Non-tabu items are preferred; when every packed item is tabu the tabu
/// status is ignored (the move must make progress) — the standard deadlock
/// escape. Returns `None` only for an empty knapsack.
///
/// The selection walks the precomputed score ranking of
/// [`mkp::soa::SoaView::drop_order_row`] — descending [`mkp::eval::drop_score`],
/// ties to the lowest index, exactly the order in which the scalar
/// max-scan's strict `>` crowns winners — so only a cheap tabu census
/// touches every packed item and no score is compared at move time. Stats
/// counters and RNG consumption replicate the scalar scan bit for bit.
#[allow(clippy::too_many_arguments)] // mirrors apply_move's knob set
pub fn select_drop<M: TabuMemory>(
    inst: &Instance,
    ratios: &Ratios,
    sol: &Solution,
    tabu: &mut M,
    now: u64,
    i_star: usize,
    noise: f64,
    rng: &mut Xoshiro256,
    stats: &mut MoveStats,
) -> Option<usize> {
    let order = ratios.view().drop_order_row(i_star);
    debug_assert_eq!(order.len(), inst.n());
    // Census pass: the scalar scan examined every packed item and counted
    // each tabu one as a rejection.
    let card = sol.cardinality();
    stats.candidate_evals += card as u64;
    let tabu_count = tabu.count_tabu(sol.bits(), now);
    stats.tabu_rejections += tabu_count as u64;
    let non_tabu = card - tabu_count;
    if non_tabu == 0 {
        // Every packed item tabu (or knapsack empty): ignore tabu status,
        // best scorer wins — no RNG draw, matching the empty-TopK path.
        return order.iter().map(|&j| j as usize).find(|&j| sol.contains(j));
    }
    // The first min(RCL_WIDTH, non_tabu) packed non-tabu items in ranking
    // order are precisely the TopK buffer's contents.
    let len = non_tabu.min(RCL_WIDTH);
    let k = if len > 1 && noise > 0.0 && rng.chance(noise) {
        rng.index(len)
    } else {
        0
    };
    let mut seen = 0usize;
    for j in order.iter().map(|&j| j as usize) {
        if sol.contains(j) && !tabu.is_tabu(j, now) {
            if seen == k {
                return Some(j);
            }
            seen += 1;
        }
    }
    debug_assert!(false, "non_tabu > 0 guarantees a ranked pick");
    None
}

/// Select the next item for the Add phase: highest pseudo-utility among
/// unpacked items that fit, honoring tabu status unless the aspiration
/// criterion (beating `best_value`) fires.
///
/// When *every* fitting item is tabu, the knapsack would otherwise drain
/// move after move (on small instances `nb_drop · tenure` can cover almost
/// all items). A relaxed pass then re-admits the fitting tabu item closest
/// to expiry — except items in `exclude` (those dropped by the move in
/// progress), so a move can never undo itself into a no-op.
///
/// [`apply_move`]'s Add phase makes these selections in one scan; this
/// one-item form is the reference it is tested against.
#[allow(clippy::too_many_arguments)] // mirrors apply_move's knob set
pub fn select_add<M: TabuMemory>(
    inst: &Instance,
    ratios: &Ratios,
    sol: &Solution,
    tabu: &M,
    now: u64,
    best_value: i64,
    noise: f64,
    exclude: &[usize],
    rng: &mut Xoshiro256,
    stats: &mut MoveStats,
) -> Option<(usize, bool)> {
    // Walk the precomputed utility order; collect the first few admissible
    // items (they are the top candidates by construction).
    let mut found: [(usize, bool); RCL_WIDTH] = [(usize::MAX, false); RCL_WIDTH];
    let mut count = 0;
    let want = if noise > 0.0 { RCL_WIDTH } else { 1 };
    for &j in ratios.by_utility_desc() {
        if sol.contains(j) {
            continue;
        }
        stats.candidate_evals += 1;
        if !sol.fits(inst, j) {
            continue;
        }
        if !tabu.is_tabu(j, now) {
            found[count] = (j, false);
            count += 1;
        } else if sol.value() + inst.profit(j) > best_value {
            // Aspiration: the tabu barrier falls for a strictly improving add.
            stats.aspiration_hits += 1;
            found[count] = (j, true);
            count += 1;
        } else {
            stats.tabu_rejections += 1;
        }
        if count == want {
            break;
        }
    }
    if count == 0 {
        // Relaxed pass: re-admit the fitting tabu item closest to expiry.
        let mut relaxed: Option<(usize, u64)> = None;
        for &j in ratios.by_utility_desc() {
            if sol.contains(j) || exclude.contains(&j) {
                continue;
            }
            stats.candidate_evals += 1;
            if !sol.fits(inst, j) {
                continue;
            }
            let key = tabu.relaxation_key(j);
            if relaxed.is_none_or(|(_, k)| key < k) {
                relaxed = Some((j, key));
            }
        }
        return relaxed.map(|(j, _)| (j, false));
    }
    let k = if count > 1 && rng.chance(noise) {
        rng.index(count)
    } else {
        0
    };
    Some(found[k])
}

/// Apply one full Drop/Add move in place. `best_value` is the incumbent used
/// by the aspiration criterion. The dropped items are marked tabu.
#[allow(clippy::too_many_arguments)] // the move IS this tuple of knobs
pub fn apply_move<M: TabuMemory>(
    inst: &Instance,
    ratios: &Ratios,
    sol: &mut Solution,
    tabu: &mut M,
    now: u64,
    nb_drop: usize,
    best_value: i64,
    noise: f64,
    rng: &mut Xoshiro256,
    stats: &mut MoveStats,
) -> MoveOutcome {
    // Whether the workspace mirror matches `sol` before this move's drops;
    // if so it is kept current through them (an exact incremental update),
    // saving the Add phase its O(n) rebuild.
    let mirror_live = WORKSPACE.with(|cell| {
        let ws = cell.borrow();
        ws.mirror_view == ratios.view().id() && ws.sol_words.as_slice() == sol.bits().words()
    });
    let mut dropped = ItemList::new();
    for _ in 0..nb_drop {
        if sol.cardinality() == 0 {
            break;
        }
        let i_star = sol.most_saturated_constraint(inst);
        if let Some(j) = select_drop(inst, ratios, sol, tabu, now, i_star, noise, rng, stats) {
            sol.drop(inst, j);
            tabu.forbid(j, now);
            dropped.push(j);
        }
    }
    if mirror_live && !dropped.is_empty() {
        WORKSPACE.with(|cell| {
            let ws = &mut *cell.borrow_mut();
            let rank = ratios.view().scan_rank();
            for &j in dropped.iter() {
                let k = rank[j] as usize;
                ws.mirror[k / 64] &= !(1u64 << (k % 64));
            }
            ws.sol_words.clear();
            ws.sol_words.extend_from_slice(sol.bits().words());
        });
    }

    let (added, aspired) = add_phase(
        inst, ratios, sol, tabu, now, best_value, noise, &dropped, rng, stats,
    );

    stats.drops += dropped.len() as u64;
    stats.adds += added.len() as u64;
    stats.moves += 1;
    tabu.observe_solution(sol.bits().fingerprint(), &dropped, now);
    MoveOutcome {
        dropped,
        added,
        aspired,
    }
}

/// The saturating Add phase in O(n) + O(relaxed admissions · candidates):
///
/// 1. one forward pass over the utility order packs every admissible
///    fitting item (non-tabu, or tabu with aspiration), where noise makes a
///    candidate be skipped with probability `noise` (skipped items get a
///    second chance at the end);
/// 2. as long as fitting items remain (necessarily tabu now), the relaxed
///    rule admits the one closest to expiry — excluding `exclude` (this
///    move's drops) — so every move ends on a maximal solution and the
///    knapsack can never drain.
///
/// Its choices, stats and rng draws are those of [`select_add`] applied
/// one item at a time. Fits tests run on the residual cache, which is
/// exact on every instance and solution. The relaxed loop scans only the
/// recorded first-pass rejections — the sole possible candidates, since
/// loads grow monotonically through the phase — while `candidate_evals`
/// advances exactly as if each round rescanned the full utility order.
#[allow(clippy::too_many_arguments)]
fn add_phase<M: TabuMemory>(
    inst: &Instance,
    ratios: &Ratios,
    sol: &mut Solution,
    tabu: &M,
    now: u64,
    best_value: i64,
    noise: f64,
    exclude: &[usize],
    rng: &mut Xoshiro256,
    stats: &mut MoveStats,
) -> (ItemList, bool) {
    WORKSPACE.with(|cell| {
        let ws = &mut *cell.borrow_mut();
        let MoveWorkspace {
            lanes,
            relaxed,
            skipped,
            mirror,
            sol_words,
            mirror_view,
        } = ws;
        let view = ratios.view();
        let cols = view.lanes();
        let mut added = ItemList::new();
        let mut aspired = false;
        relaxed.clear();
        skipped.clear();

        lanes.sync(cols, inst, sol);
        // The reference pass examines every unpacked item exactly once,
        // and an add mid-pass can only affect the item being visited — so
        // the pass's eval count is the unpacked count at entry, bookable
        // in bulk.
        stats.candidate_evals += (inst.n() - sol.cardinality()) as u64;
        // The first pass. The packed-set mirror exposes the unpacked scan
        // positions as set bits, so the scan jumps between real candidates
        // with `trailing_zeros` instead of testing a ~50/50 `contains`
        // branch per position; the pre-filter row (most-saturated
        // constraint, stored in scan order) rejects most visits with one
        // sequential load, and its suffix minima end the scan outright once
        // no later position can pass — rejection on one constraint is
        // exact, so the skipped tail could neither add nor record anything.
        // On an infeasible solution the filter residual is negative and
        // the scan ends at once. The filter is refreshed after each re-sync
        // because the most-saturated constraint moves.
        let order = ratios.by_utility_desc();
        let mut frow = view.scan_weight_row(lanes.filter_constraint());
        let mut suffix = view.scan_suffix_min_row(lanes.filter_constraint());
        let mut fr = lanes.filter_residual();
        if *mirror_view != view.id() || sol_words.as_slice() != sol.bits().words() {
            // Rebuild the mirror for this (view, solution) pair.
            sol_words.clear();
            sol_words.extend_from_slice(sol.bits().words());
            mirror.clear();
            mirror.resize(sol_words.len(), 0);
            for (k, &j) in order.iter().enumerate() {
                if sol.contains(j) {
                    mirror[k / 64] |= 1u64 << (k % 64);
                }
            }
            for k in order.len()..mirror.len() * 64 {
                mirror[k / 64] |= 1u64 << (k % 64);
            }
            *mirror_view = view.id();
        }
        'scan: for (wi, &mword) in mirror.iter().enumerate() {
            let mut unpacked = !mword;
            while unpacked != 0 {
                let k = wi * 64 + unpacked.trailing_zeros() as usize;
                unpacked &= unpacked - 1;
                if suffix[k] > fr {
                    // No remaining position can pass the pre-filter.
                    break 'scan;
                }
                if frow[k] > fr {
                    continue;
                }
                let j = order[k];
                if !lanes.fits_unfiltered(cols, inst, sol, j) {
                    continue;
                }
                let admissible = if !tabu.is_tabu(j, now) {
                    true
                } else if sol.value() + inst.profit(j) > best_value {
                    stats.aspiration_hits += 1;
                    aspired = true;
                    true
                } else {
                    stats.tabu_rejections += 1;
                    if !exclude.contains(&j) {
                        relaxed.push((j, tabu.relaxation_key(j)));
                    }
                    false
                };
                if admissible {
                    if noise > 0.0 && rng.chance(noise) {
                        skipped.push(j);
                    } else {
                        sol.add(inst, j);
                        added.push(j);
                        lanes.sync(cols, inst, sol);
                        let i = lanes.filter_constraint();
                        frow = view.scan_weight_row(i);
                        suffix = view.scan_suffix_min_row(i);
                        fr = lanes.filter_residual();
                    }
                }
            }
        }
        // Second chance for noisily skipped candidates that still fit.
        for &j in skipped.iter() {
            stats.candidate_evals += 1;
            if lanes.fits(cols, inst, sol, j) {
                sol.add(inst, j);
                added.push(j);
                lanes.sync(cols, inst, sol);
            }
        }

        // Relaxed saturation: admit expiring tabu items while anything
        // fits. Only the recorded rejections can fit now; the counter
        // advances by the full-rescan cost each round regardless.
        let n = inst.n() as u64;
        let mut card = sol.cardinality() as u64;
        let excl_unpacked = exclude.iter().filter(|&&j| !sol.contains(j)).count() as u64;
        loop {
            stats.candidate_evals += n - card - excl_unpacked;
            let mut winner: Option<(usize, u64)> = None;
            for &(j, key) in relaxed.iter() {
                if sol.contains(j) {
                    continue;
                }
                if lanes.fits(cols, inst, sol, j) && winner.is_none_or(|(_, k)| key < k) {
                    winner = Some((j, key));
                }
            }
            match winner {
                Some((j, _)) => {
                    sol.add(inst, j);
                    added.push(j);
                    card += 1;
                    lanes.sync(cols, inst, sol);
                }
                None => break,
            }
        }
        // Fold this phase's adds back into the packed-set mirror so the
        // next move's scan skips the rebuild.
        let rank = view.scan_rank();
        for &j in added.iter() {
            let k = rank[j] as usize;
            mirror[k / 64] |= 1u64 << (k % 64);
        }
        sol_words.clear();
        sol_words.extend_from_slice(sol.bits().words());
        (added, aspired)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tabu_list::Recency;
    use mkp::generate::uncorrelated_instance;
    use mkp::greedy::greedy;
    use mkp::Instance;

    fn inst() -> Instance {
        Instance::new(
            "mv",
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

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(1)
    }

    #[test]
    fn drop_picks_highest_pressure_item() {
        let i = inst();
        let ratios = Ratios::new(&i);
        let mut sol = Solution::empty(&i);
        sol.add(&i, 0); // weights c0: 4, c1: 2
        sol.add(&i, 2); // weights c0: 2, c1: 1
                        // loads [6,3], slacks [1,3] → i* = 0.
                        // scores: item0 4/10=0.4, item2 2/6=0.33 → drop item 0.
        let mut tabu = Recency::new(5, 3);
        let mut stats = MoveStats::default();
        let j = select_drop(
            &i,
            &ratios,
            &sol,
            &mut tabu,
            0,
            0,
            0.0,
            &mut rng(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(j, 0);
        assert_eq!(stats.candidate_evals, 2);
    }

    #[test]
    fn drop_skips_tabu_item() {
        let i = inst();
        let ratios = Ratios::new(&i);
        let mut sol = Solution::empty(&i);
        sol.add(&i, 0);
        sol.add(&i, 2);
        let mut tabu = Recency::new(5, 10);
        tabu.forbid(0, 0);
        let mut stats = MoveStats::default();
        let j = select_drop(
            &i,
            &ratios,
            &sol,
            &mut tabu,
            1,
            0,
            0.0,
            &mut rng(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(j, 2, "tabu item 0 must be skipped");
    }

    #[test]
    fn drop_falls_back_when_all_tabu() {
        let i = inst();
        let ratios = Ratios::new(&i);
        let mut sol = Solution::empty(&i);
        sol.add(&i, 0);
        sol.add(&i, 2);
        let mut tabu = Recency::new(5, 100);
        tabu.forbid(0, 0);
        tabu.forbid(2, 0);
        let mut stats = MoveStats::default();
        // All packed items tabu → tabu ignored, best scorer dropped.
        let j = select_drop(
            &i,
            &ratios,
            &sol,
            &mut tabu,
            1,
            0,
            0.0,
            &mut rng(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(j, 0);
    }

    #[test]
    fn drop_on_empty_returns_none() {
        let i = inst();
        let ratios = Ratios::new(&i);
        let sol = Solution::empty(&i);
        let mut tabu = Recency::new(5, 3);
        let mut stats = MoveStats::default();
        assert!(select_drop(
            &i,
            &ratios,
            &sol,
            &mut tabu,
            0,
            0,
            0.0,
            &mut rng(),
            &mut stats
        )
        .is_none());
    }

    #[test]
    fn add_respects_tabu_without_aspiration() {
        let i = inst();
        let ratios = Ratios::new(&i);
        let sol = Solution::empty(&i);
        let mut tabu = Recency::new(5, 10);
        let mut r = rng();
        // Make the best item tabu with an unreachable incumbent: it must be
        // skipped and the second-best chosen.
        let mut stats = MoveStats::default();
        let (first, _) = select_add(
            &i,
            &ratios,
            &sol,
            &tabu,
            0,
            i64::MAX,
            0.0,
            &[],
            &mut r,
            &mut stats,
        )
        .unwrap();
        tabu.forbid(first, 0);
        let (second, asp) = select_add(
            &i,
            &ratios,
            &sol,
            &tabu,
            0,
            i64::MAX,
            0.0,
            &[],
            &mut r,
            &mut stats,
        )
        .unwrap();
        assert_ne!(second, first);
        assert!(!asp);
    }

    #[test]
    fn aspiration_overrides_tabu() {
        let i = inst();
        let ratios = Ratios::new(&i);
        let sol = Solution::empty(&i);
        let mut tabu = Recency::new(5, 10);
        for j in 0..5 {
            tabu.forbid(j, 0);
        }
        // With incumbent 0, adding any profitable item improves → aspiration.
        let mut stats = MoveStats::default();
        let (j, asp) = select_add(
            &i,
            &ratios,
            &sol,
            &tabu,
            0,
            0,
            0.0,
            &[],
            &mut rng(),
            &mut stats,
        )
        .unwrap();
        assert!(asp);
        assert!(i.profit(j) > 0);
    }

    #[test]
    fn add_returns_none_when_nothing_fits() {
        let i = Instance::new("full", 2, 1, vec![5, 5], vec![3, 3], vec![3]).unwrap();
        let ratios = Ratios::new(&i);
        let mut sol = Solution::empty(&i);
        sol.add(&i, 0); // load 3 = cap
        let tabu = Recency::new(2, 3);
        let mut stats = MoveStats::default();
        assert!(select_add(
            &i,
            &ratios,
            &sol,
            &tabu,
            0,
            0,
            0.0,
            &[],
            &mut rng(),
            &mut stats
        )
        .is_none());
    }

    #[test]
    fn noise_zero_is_deterministic() {
        let i = uncorrelated_instance("det", 40, 3, 0.5, 2);
        let ratios = Ratios::new(&i);
        let run = |seed: u64| {
            let mut sol = greedy(&i, &ratios);
            let mut tabu = Recency::new(i.n(), 5);
            let mut stats = MoveStats::default();
            let mut r = Xoshiro256::seed_from_u64(seed);
            for now in 0..100 {
                apply_move(
                    &i, &ratios, &mut sol, &mut tabu, now, 2, 0, 0.0, &mut r, &mut stats,
                );
            }
            sol.bits().clone()
        };
        assert_eq!(run(1), run(999), "noise 0 must ignore the rng");
    }

    #[test]
    fn noise_decorrelates_seeds() {
        let i = uncorrelated_instance("noise", 40, 3, 0.5, 2);
        let ratios = Ratios::new(&i);
        let run = |seed: u64| {
            let mut sol = greedy(&i, &ratios);
            let mut tabu = Recency::new(i.n(), 5);
            let mut stats = MoveStats::default();
            let mut r = Xoshiro256::seed_from_u64(seed);
            let mut trail = Vec::new();
            for now in 0..100 {
                apply_move(
                    &i, &ratios, &mut sol, &mut tabu, now, 2, 0, 0.3, &mut r, &mut stats,
                );
                trail.push(sol.value());
            }
            trail
        };
        assert_ne!(run(1), run(2), "different seeds must diverge under noise");
        assert_eq!(run(3), run(3), "same seed stays reproducible");
    }

    #[test]
    fn item_list_inline_and_spill() {
        let mut list = ItemList::new();
        assert!(list.is_empty());
        for v in 0..20 {
            list.push(v);
        }
        assert_eq!(list.len(), 20);
        assert_eq!(list.as_slice(), (0..20).collect::<Vec<_>>().as_slice());
        list.insert_front(99);
        assert_eq!(list[0], 99);
        assert_eq!(list.len(), 21);
        let copy = list.clone();
        assert_eq!(copy, list);
        list.clear();
        assert!(list.is_empty());
        // Front insertion within the inline prefix.
        list.push(1);
        list.push(2);
        list.insert_front(0);
        assert_eq!(list.as_slice(), &[0, 1, 2]);
    }

    #[test]
    fn item_list_clone_from_reuses_capacity() {
        let big: ItemList = (0..30).collect();
        let mut dst = ItemList::new();
        dst.clone_from(&big);
        assert_eq!(dst, big);
        let small: ItemList = (0..3).collect();
        dst.clone_from(&small);
        assert_eq!(dst.as_slice(), &[0, 1, 2]);
    }

    #[test]
    fn full_move_keeps_feasibility_and_consistency() {
        let i = inst();
        let ratios = Ratios::new(&i);
        let mut sol = greedy(&i, &ratios);
        let mut tabu = Recency::new(5, 2);
        let mut stats = MoveStats::default();
        let mut r = rng();
        let best = sol.value();
        for now in 0..50u64 {
            let outcome = apply_move(
                &i, &ratios, &mut sol, &mut tabu, now, 2, best, 0.1, &mut r, &mut stats,
            );
            assert!(sol.is_feasible(&i));
            assert!(sol.check_consistent(&i));
            // Dropped items were marked tabu.
            for &d in &outcome.dropped {
                assert!(tabu.is_tabu(d, now));
            }
        }
        assert_eq!(stats.moves, 50);
        assert!(stats.candidate_evals > 0);
    }

    #[test]
    fn move_makes_progress_on_random_instances() {
        // Running a few hundred moves from a random start must reach at
        // least the greedy value on easy instances (sanity of the operator).
        for seed in 0..5 {
            let i = uncorrelated_instance("p", 30, 3, 0.5, seed);
            let ratios = Ratios::new(&i);
            let mut sol = Solution::empty(&i);
            let mut tabu = Recency::new(i.n(), 7);
            let mut stats = MoveStats::default();
            let mut r = Xoshiro256::seed_from_u64(seed);
            let mut best = 0i64;
            for now in 0..300u64 {
                apply_move(
                    &i, &ratios, &mut sol, &mut tabu, now, 1, best, 0.1, &mut r, &mut stats,
                );
                best = best.max(sol.value());
            }
            let g = greedy(&i, &ratios);
            assert!(
                best >= g.value(),
                "seed {seed}: TS moves best {best} < greedy {}",
                g.value()
            );
        }
    }

    /// The add phase's one scan must replay the scalar reference exactly,
    /// on lane-encodable instances and on copies whose weights (up to
    /// 100,000) take the scalar route. The reference here is `select_add`
    /// applied greedily (noise 0, no tabu), which performs the identical
    /// admission policy one item at a time.
    #[test]
    fn add_phase_matches_select_add_reference() {
        for seed in 0..8 {
            let narrow = uncorrelated_instance("ref", 35, 4, 0.5, seed);
            let wide = mkp::testkit::widened(&narrow, 1_000);
            for i in [narrow, wide] {
                let ratios = Ratios::new(&i);
                let tabu = Recency::new(i.n(), 0);
                // Fast path: one apply_move with nb_drop 0 saturates via add_phase.
                let mut fast = Solution::empty(&i);
                let mut fast_tabu = Recency::new(i.n(), 0);
                let mut stats = MoveStats::default();
                apply_move(
                    &i,
                    &ratios,
                    &mut fast,
                    &mut fast_tabu,
                    0,
                    0,
                    i64::MAX,
                    0.0,
                    &mut rng(),
                    &mut stats,
                );
                // Reference: repeated single selections.
                let mut slow = Solution::empty(&i);
                let mut sstats = MoveStats::default();
                while let Some((j, _)) = select_add(
                    &i,
                    &ratios,
                    &slow,
                    &tabu,
                    0,
                    i64::MAX,
                    0.0,
                    &[],
                    &mut rng(),
                    &mut sstats,
                ) {
                    slow.add(&i, j);
                }
                assert_eq!(
                    fast.bits(),
                    slow.bits(),
                    "seed {seed}, lanes {}",
                    ratios.view().lanes().ok()
                );
            }
        }
    }
}
