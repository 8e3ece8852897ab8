//! Neighborhood examination — the paper's §2 *second* source of parallelism
//! ("parallelism in neighborhood examination and evaluation"), and the
//! literal reading of Fig. 1 step "a neighborhood N(X) of the current
//! solution X is examined in order to select the best solution X'".
//!
//! A neighborhood of width K is built from the K best non-tabu Drop
//! candidates against the most saturated constraint; each candidate move is
//! completed independently (remaining drops + saturating Add phase) and the
//! best-valued completion wins. Candidates are independent, so they can be
//! evaluated concurrently — the low-level parallelism the paper classifies
//! as suited to "a specialized parallel computer" rather than a
//! message-passing farm. On this host the parallel path exists for
//! architectural completeness and is tested to produce *bit-identical*
//! results to the sequential path (each candidate gets its own
//! deterministically derived RNG stream); thread-per-move overhead makes it
//! slower on one core, which is exactly the paper's point about granularity
//! (§2: coarse-grain thread parallelism minimizes communication overhead).
//!
//! # Hot path
//!
//! The K first drops are the first K packed non-tabu items of the SoA
//! view's drop ranking for the saturated constraint, the ranking the Drop
//! step walks, so no score is computed or compared. Every candidate is
//! evaluated one way, into its own reusable slot restored with
//! `clone_from`: on the calling thread, or with `parallel` on one scoped
//! thread per slot. The sequential path is allocation-free at steady
//! state. Callers that loop — the engine — hold a [`NeighborhoodScratch`]
//! and use [`best_of_k_move_in`]; [`best_of_k_move`] wraps it with fresh
//! scratch for one-shot use.

use crate::moves::{apply_move, MoveOutcome, MoveStats};
use crate::tabu_list::TabuMemory;
use mkp::eval::Ratios;
use mkp::{Instance, Solution, Xoshiro256};

/// How the engine picks each move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MoveSelection {
    /// One constructive Drop/Add move (the default, O(n) per move).
    Constructive,
    /// Examine a width-K neighborhood of alternative first drops and commit
    /// the best completion (O(K·n) per move).
    BestOfK {
        /// Neighborhood width (number of alternative first drops).
        width: usize,
        /// Evaluate candidates on parallel threads (result-identical).
        parallel: bool,
    },
}

/// Reusable per-engine scratch for [`best_of_k_move_in`]: the first drops
/// and one evaluation slot per candidate, restored with `clone_from` so
/// the steady-state sequential path never allocates.
pub struct NeighborhoodScratch<M> {
    /// The candidates' first drops, best drop score first.
    first_drops: Vec<usize>,
    slots: Vec<Slot<M>>,
}

/// One evaluated neighbor: the solution, memory and counters of its
/// completed move, and the move itself.
struct Slot<M> {
    sol: Solution,
    mem: M,
    outcome: MoveOutcome,
    stats: MoveStats,
}

impl<M: TabuMemory + Clone> NeighborhoodScratch<M> {
    /// Empty scratch; buffers grow to the first move's width and are
    /// reused thereafter.
    pub fn new() -> Self {
        NeighborhoodScratch {
            first_drops: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Make sure `k` evaluation slots exist (cloning the live state only
    /// when a slot is first created).
    fn ensure_slots(&mut self, k: usize, base: &Solution, tabu: &M) {
        while self.slots.len() < k {
            self.slots.push(Slot {
                sol: base.clone(),
                mem: tabu.clone(),
                outcome: MoveOutcome::empty(),
                stats: MoveStats::default(),
            });
        }
    }
}

impl<M: TabuMemory + Clone> Default for NeighborhoodScratch<M> {
    fn default() -> Self {
        NeighborhoodScratch::new()
    }
}

/// Evaluate one candidate into its slot: force `first_drop`, then complete
/// the move with the standard machinery under an independent RNG stream.
/// Allocation-free once the slot's buffers have grown.
#[allow(clippy::too_many_arguments)] // mirrors apply_move's knob set
fn evaluate_candidate_into<M: TabuMemory + Clone>(
    inst: &Instance,
    ratios: &Ratios,
    base: &Solution,
    tabu: &M,
    now: u64,
    nb_drop: usize,
    best_value: i64,
    noise: f64,
    first_drop: usize,
    seed: u64,
    slot: &mut Slot<M>,
) {
    slot.sol.clone_from(base);
    slot.mem.clone_from(tabu);
    slot.stats = MoveStats::default();
    let mut rng = Xoshiro256::seed_from_u64(seed);

    slot.sol.drop(inst, first_drop);
    slot.mem.forbid(first_drop, now);
    let outcome = apply_move(
        inst,
        ratios,
        &mut slot.sol,
        &mut slot.mem,
        now,
        nb_drop.saturating_sub(1),
        best_value,
        noise,
        &mut rng,
        &mut slot.stats,
    );
    slot.outcome = outcome;
    slot.outcome.dropped.insert_front(first_drop);
}

/// Examine the width-K neighborhood and commit the best completion,
/// reusing `scratch` across calls (the engine's steady-state path).
///
/// Falls back to the constructive move when the knapsack is empty or no
/// non-tabu drop candidate exists. Returns the committed move outcome.
#[allow(clippy::too_many_arguments)] // mirrors apply_move's knob set
pub fn best_of_k_move_in<M: TabuMemory + Clone + Send + Sync>(
    inst: &Instance,
    ratios: &Ratios,
    sol: &mut Solution,
    tabu: &mut M,
    now: u64,
    nb_drop: usize,
    best_value: i64,
    noise: f64,
    width: usize,
    parallel: bool,
    rng: &mut Xoshiro256,
    stats: &mut MoveStats,
    scratch: &mut NeighborhoodScratch<M>,
) -> MoveOutcome {
    assert!(width >= 1, "neighborhood width must be positive");
    if sol.cardinality() == 0 {
        return apply_move(
            inst, ratios, sol, tabu, now, nb_drop, best_value, noise, rng, stats,
        );
    }

    // The K best non-tabu drop candidates against the most saturated
    // constraint: the first K packed non-tabu items of its drop ranking
    // (descending score, ties by ascending index). The examination counts
    // one evaluation per packed item.
    let i_star = sol.most_saturated_constraint(inst);
    stats.candidate_evals += sol.cardinality() as u64;
    scratch.first_drops.clear();
    let candidates = ratios
        .view()
        .drop_order_row(i_star)
        .iter()
        .map(|&j| j as usize);
    scratch.first_drops.extend(
        candidates
            .filter(|&j| sol.contains(j) && !tabu.is_tabu(j, now))
            .take(width),
    );
    let k = scratch.first_drops.len();
    if k == 0 {
        return apply_move(
            inst, ratios, sol, tabu, now, nb_drop, best_value, noise, rng, stats,
        );
    }

    // Independent per-candidate RNG streams derived once, so parallel and
    // sequential evaluation are bit-identical.
    let base_seed = rng.next_u64();
    scratch.ensure_slots(k, sol, tabu);
    let slots = &mut scratch.slots[..k];
    let evaluate = |idx: usize, first_drop: usize, slot: &mut Slot<M>| {
        let seed = base_seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        evaluate_candidate_into(
            inst, ratios, sol, tabu, now, nb_drop, best_value, noise, first_drop, seed, slot,
        );
    };
    let jobs = scratch.first_drops.iter().zip(slots.iter_mut()).enumerate();
    if parallel && k > 1 {
        // Granularity makes this slower here; it exists for architectural
        // completeness.
        let evaluate = &evaluate;
        std::thread::scope(|scope| {
            for (idx, (&first_drop, slot)) in jobs {
                scope.spawn(move || evaluate(idx, first_drop, slot));
            }
        });
    } else {
        for (idx, (&first_drop, slot)) in jobs {
            evaluate(idx, first_drop, slot);
        }
    }

    // Best completion wins; ties break toward the better drop score
    // (earlier candidate) for determinism.
    let mut best_idx = 0;
    for idx in 1..k {
        if slots[idx].sol.value() > slots[best_idx].sol.value() {
            best_idx = idx;
        }
    }
    for slot in slots.iter() {
        stats.candidate_evals += slot.stats.candidate_evals;
    }
    stats.moves += 1;
    let winner = &slots[best_idx];
    sol.clone_from(&winner.sol);
    for &d in &winner.outcome.dropped {
        tabu.forbid(d, now);
    }
    tabu.observe_solution(sol.bits().fingerprint(), &winner.outcome.dropped, now);
    winner.outcome.clone()
}

/// Examine the width-K neighborhood and commit the best completion
/// (one-shot wrapper over [`best_of_k_move_in`] with fresh scratch).
#[allow(clippy::too_many_arguments)] // mirrors apply_move's knob set
pub fn best_of_k_move<M: TabuMemory + Clone + Send + Sync>(
    inst: &Instance,
    ratios: &Ratios,
    sol: &mut Solution,
    tabu: &mut M,
    now: u64,
    nb_drop: usize,
    best_value: i64,
    noise: f64,
    width: usize,
    parallel: bool,
    rng: &mut Xoshiro256,
    stats: &mut MoveStats,
) -> MoveOutcome {
    let mut scratch = NeighborhoodScratch::new();
    best_of_k_move_in(
        inst,
        ratios,
        sol,
        tabu,
        now,
        nb_drop,
        best_value,
        noise,
        width,
        parallel,
        rng,
        stats,
        &mut scratch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tabu_list::Recency;
    use mkp::eval::drop_score;
    use mkp::generate::{gk_instance, uncorrelated_instance, GkSpec};
    use mkp::greedy::greedy;

    fn setup(seed: u64) -> (mkp::Instance, Ratios) {
        let inst = uncorrelated_instance("nb", 30, 3, 0.5, seed);
        let ratios = Ratios::new(&inst);
        (inst, ratios)
    }

    #[test]
    fn keeps_feasibility_and_consistency() {
        let (inst, ratios) = setup(1);
        let mut sol = greedy(&inst, &ratios);
        let mut tabu = Recency::new(inst.n(), 5);
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut stats = MoveStats::default();
        for now in 0..100 {
            best_of_k_move(
                &inst,
                &ratios,
                &mut sol,
                &mut tabu,
                now,
                2,
                i64::MAX,
                0.1,
                4,
                false,
                &mut rng,
                &mut stats,
            );
            assert!(sol.is_feasible(&inst));
            assert!(sol.check_consistent(&inst));
        }
        assert_eq!(stats.moves, 100);
    }

    #[test]
    fn parallel_and_sequential_are_bit_identical() {
        let (inst, ratios) = setup(2);
        let run = |parallel: bool| {
            let mut sol = greedy(&inst, &ratios);
            let mut tabu = Recency::new(inst.n(), 5);
            let mut rng = Xoshiro256::seed_from_u64(7);
            let mut stats = MoveStats::default();
            let mut trail = Vec::new();
            for now in 0..60 {
                best_of_k_move(
                    &inst,
                    &ratios,
                    &mut sol,
                    &mut tabu,
                    now,
                    2,
                    i64::MAX,
                    0.1,
                    4,
                    parallel,
                    &mut rng,
                    &mut stats,
                );
                trail.push(sol.value());
            }
            (trail, sol.bits().clone())
        };
        let (seq_trail, seq_bits) = run(false);
        let (par_trail, par_bits) = run(true);
        assert_eq!(seq_trail, par_trail, "value trails diverged");
        assert_eq!(seq_bits, par_bits, "final assignments diverged");
    }

    #[test]
    fn scratch_reuse_matches_one_shot() {
        // The engine's scratch-reusing entry point must replay the
        // one-shot wrapper exactly, move for move.
        let (inst, ratios) = setup(7);
        let run_fresh = || {
            let mut sol = greedy(&inst, &ratios);
            let mut tabu = Recency::new(inst.n(), 5);
            let mut rng = Xoshiro256::seed_from_u64(21);
            let mut stats = MoveStats::default();
            let mut trail = Vec::new();
            for now in 0..80 {
                best_of_k_move(
                    &inst,
                    &ratios,
                    &mut sol,
                    &mut tabu,
                    now,
                    2,
                    i64::MAX,
                    0.1,
                    3,
                    false,
                    &mut rng,
                    &mut stats,
                );
                trail.push(sol.value());
            }
            (trail, sol.bits().clone(), stats)
        };
        let run_reused = || {
            let mut sol = greedy(&inst, &ratios);
            let mut tabu = Recency::new(inst.n(), 5);
            let mut rng = Xoshiro256::seed_from_u64(21);
            let mut stats = MoveStats::default();
            let mut scratch = NeighborhoodScratch::new();
            let mut trail = Vec::new();
            for now in 0..80 {
                best_of_k_move_in(
                    &inst,
                    &ratios,
                    &mut sol,
                    &mut tabu,
                    now,
                    2,
                    i64::MAX,
                    0.1,
                    3,
                    false,
                    &mut rng,
                    &mut stats,
                    &mut scratch,
                );
                trail.push(sol.value());
            }
            (trail, sol.bits().clone(), stats)
        };
        let (ft, fb, fs) = run_fresh();
        let (rt, rb, rs) = run_reused();
        assert_eq!(ft, rt, "value trails diverged");
        assert_eq!(fb, rb, "final assignments diverged");
        assert_eq!(fs, rs, "stats diverged");
    }

    #[test]
    fn width_one_matches_single_best_drop() {
        // With width 1 the neighborhood is exactly "best non-tabu drop";
        // the committed solution must equal that candidate's completion.
        let (inst, ratios) = setup(3);
        let mut sol = greedy(&inst, &ratios);
        let base = sol.clone();
        let mut tabu = Recency::new(inst.n(), 5);
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut stats = MoveStats::default();
        let outcome = best_of_k_move(
            &inst,
            &ratios,
            &mut sol,
            &mut tabu,
            0,
            1,
            i64::MAX,
            0.0,
            1,
            false,
            &mut rng,
            &mut stats,
        );
        // The forced first drop is the best non-tabu drop-scored item.
        let i_star = base.most_saturated_constraint(&inst);
        let expected = base
            .bits()
            .iter_ones()
            .max_by(|&a, &b| {
                drop_score(&inst, i_star, a)
                    .partial_cmp(&drop_score(&inst, i_star, b))
                    .unwrap()
            })
            .unwrap();
        assert_eq!(outcome.dropped[0], expected);
    }

    #[test]
    fn wider_neighborhood_never_commits_worse_than_width_one() {
        // At the very first move from the same state, the best of K ≥ 1
        // candidates is at least as good as the single candidate.
        let (inst, ratios) = setup(4);
        let base = greedy(&inst, &ratios);
        let value_after = |width: usize| {
            let mut sol = base.clone();
            let mut tabu = Recency::new(inst.n(), 5);
            let mut rng = Xoshiro256::seed_from_u64(11);
            let mut stats = MoveStats::default();
            best_of_k_move(
                &inst,
                &ratios,
                &mut sol,
                &mut tabu,
                0,
                2,
                i64::MAX,
                0.0,
                width,
                false,
                &mut rng,
                &mut stats,
            );
            sol.value()
        };
        assert!(value_after(6) >= value_after(1));
    }

    #[test]
    fn empty_solution_falls_back_to_constructive() {
        let (inst, ratios) = setup(5);
        let mut sol = mkp::Solution::empty(&inst);
        let mut tabu = Recency::new(inst.n(), 5);
        let mut rng = Xoshiro256::seed_from_u64(13);
        let mut stats = MoveStats::default();
        let outcome = best_of_k_move(
            &inst,
            &ratios,
            &mut sol,
            &mut tabu,
            0,
            2,
            i64::MAX,
            0.1,
            4,
            false,
            &mut rng,
            &mut stats,
        );
        assert!(outcome.dropped.is_empty());
        assert!(
            !outcome.added.is_empty(),
            "fallback move must fill the knapsack"
        );
    }

    /// 200 width-4 best-of-K steps from the greedy start on GK 10×250 and
    /// on its copy with weights and capacities ×40 (the scalar route),
    /// sequential and parallel: (value sum, last value, candidate
    /// evaluations, bit fingerprint), recorded before best-of-K took its
    /// first drops from the drop ranking and evaluated in one way. All
    /// four runs make the same moves: the scaling keeps every
    /// pseudo-utility, and here every drop choice.
    #[test]
    fn best_of_k_outputs_are_pinned_across_versions() {
        let gk = gk_instance(
            "k",
            GkSpec {
                n: 250,
                m: 10,
                tightness: 0.5,
                seed: 3,
            },
        );
        let wide = mkp::testkit::widened(&gk, 40);
        let pin = (21_293_620, 106_827, 334_664, 0xd89e_e1f3_6894_cf7a);
        for inst in [&gk, &wide] {
            let ratios = Ratios::new(inst);
            for parallel in [false, true] {
                let mut sol = greedy(inst, &ratios);
                let mut best = sol.value();
                let mut tabu = Recency::new(inst.n(), 15);
                let mut rng = Xoshiro256::seed_from_u64(17);
                let mut stats = MoveStats::default();
                let mut sum = 0;
                for now in 0..200 {
                    best_of_k_move(
                        inst, &ratios, &mut sol, &mut tabu, now, 2, best, 0.1, 4, parallel,
                        &mut rng, &mut stats,
                    );
                    best = best.max(sol.value());
                    sum += sol.value();
                }
                let got = (
                    sum,
                    sol.value(),
                    stats.candidate_evals,
                    sol.bits().fingerprint(),
                );
                assert_eq!(got, pin, "{} parallel {parallel}", inst.name());
            }
        }
    }

    #[test]
    fn improves_quality_on_correlated_instance() {
        // Same move count, wider examination: best-of-K should not lose.
        let inst = gk_instance(
            "q",
            GkSpec {
                n: 80,
                m: 5,
                tightness: 0.5,
                seed: 6,
            },
        );
        let ratios = Ratios::new(&inst);
        let run = |width: usize| {
            let mut sol = greedy(&inst, &ratios);
            let mut best = sol.value();
            let mut tabu = Recency::new(inst.n(), 8);
            let mut rng = Xoshiro256::seed_from_u64(3);
            let mut stats = MoveStats::default();
            for now in 0..400 {
                best_of_k_move(
                    &inst, &ratios, &mut sol, &mut tabu, now, 2, best, 0.1, width, false, &mut rng,
                    &mut stats,
                );
                best = best.max(sol.value());
            }
            best
        };
        assert!(run(5) >= run(1), "wider neighborhood lost quality per move");
    }
}
