//! Wire messages of the master/slave protocol.
//!
//! Everything the master and slaves exchange crosses the `pvm-lite` codec as
//! packed bytes, exactly as the original crossed PVM: the problem broadcast,
//! the per-round assignment (initial solution + strategy + work budget) and
//! the slave report (best solution, elite pool, work counters). No Rust
//! object is ever shared between tasks.

use mkp::{BitVec, Instance, InstanceError, Solution};
use mkp_tabu::Strategy;
use pvm_lite::codec::{CodecError, PackBuffer, UnpackBuffer, Wire};

/// Message tags of the protocol.
pub mod tags {
    /// Master → slave: problem broadcast.
    pub const PROBLEM: u32 = 1;
    /// Master → slave: round assignment.
    pub const ASSIGN: u32 = 2;
    /// Slave → master: round report.
    pub const REPORT: u32 = 3;
    /// Master → slave: terminate.
    pub const STOP: u32 = 4;
    /// Master → slave: state transplant into a reborn or resumed slave.
    pub const SEED: u32 = 5;
}

/// The problem broadcast ("Read and send to slaves problem data", Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemMsg {
    /// Instance name.
    pub name: String,
    /// Items.
    pub n: usize,
    /// Constraints.
    pub m: usize,
    /// Profits, length `n`.
    pub profits: Vec<i64>,
    /// Row-major weights, length `n·m`.
    pub weights: Vec<i64>,
    /// Capacities, length `m`.
    pub capacities: Vec<i64>,
}

impl ProblemMsg {
    /// Build the broadcast from an instance.
    pub fn from_instance(inst: &Instance) -> Self {
        let mut weights = Vec::with_capacity(inst.n() * inst.m());
        for i in 0..inst.m() {
            weights.extend_from_slice(inst.constraint_row(i));
        }
        ProblemMsg {
            name: inst.name().to_string(),
            n: inst.n(),
            m: inst.m(),
            profits: inst.profits().to_vec(),
            weights,
            capacities: inst.capacities().to_vec(),
        }
    }

    /// Reconstruct the instance, validating it: the entry check for
    /// problem data from outside the program (a SUBMIT, a journal record).
    pub fn try_into_instance(self) -> Result<Instance, InstanceError> {
        Instance::new(
            self.name,
            self.n,
            self.m,
            self.profits,
            self.weights,
            self.capacities,
        )
    }

    /// Reconstruct the instance on the slave side.
    pub fn into_instance(self) -> Instance {
        self.try_into_instance()
            .expect("master sent a valid instance")
    }
}

impl Wire for ProblemMsg {
    fn pack(&self, buf: &mut PackBuffer) {
        buf.put_str(&self.name);
        buf.put_usize(self.n);
        buf.put_usize(self.m);
        buf.put_i64s(&self.profits);
        buf.put_i64s(&self.weights);
        buf.put_i64s(&self.capacities);
    }

    fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
        Ok(ProblemMsg {
            name: buf.get_str()?,
            n: buf.get_usize()?,
            m: buf.get_usize()?,
            profits: buf.get_i64s()?,
            weights: buf.get_i64s()?,
            capacities: buf.get_i64s()?,
        })
    }
}

/// Pack a solution as (len, ones-list); value and loads are recomputed on
/// arrival so a corrupt message cannot smuggle inconsistent caches. Shared
/// with the policy and snapshot codecs (`pub(crate)`).
pub(crate) fn pack_bits(bits: &BitVec, buf: &mut PackBuffer) {
    buf.put_usize(bits.len());
    let ones: Vec<u64> = bits.iter_ones().map(|j| j as u64).collect();
    buf.put_u64s(&ones);
}

pub(crate) fn unpack_bits(buf: &mut UnpackBuffer<'_>) -> Result<BitVec, CodecError> {
    let len = buf.get_usize()?;
    let ones = buf.get_u64s()?;
    let mut bits = BitVec::zeros(len);
    for j in ones {
        if j as usize >= len {
            return Err(CodecError::LengthOverflow { length: j });
        }
        bits.set(j as usize, true);
    }
    Ok(bits)
}

/// Pack a strategy triple; shared by [`AssignMsg`] and the policy blobs.
pub(crate) fn pack_strategy(strategy: &Strategy, buf: &mut PackBuffer) {
    buf.put_usize(strategy.tabu_tenure);
    buf.put_usize(strategy.nb_drop);
    buf.put_usize(strategy.nb_local);
}

pub(crate) fn unpack_strategy(buf: &mut UnpackBuffer<'_>) -> Result<Strategy, CodecError> {
    Ok(Strategy {
        tabu_tenure: buf.get_usize()?,
        nb_drop: buf.get_usize()?,
        nb_local: buf.get_usize()?,
    })
}

/// Pack a solution list as its length, then each solution's bits: the
/// policy blobs' per-worker starts and banks.
pub(crate) fn pack_solutions(sols: &[Solution], buf: &mut PackBuffer) {
    buf.put_usize(sols.len());
    for sol in sols {
        pack_bits(sol.bits(), buf);
    }
}

/// Unpack a [`pack_solutions`] list over `inst`, rejecting a solution
/// whose length is not the instance's.
pub(crate) fn unpack_solutions(
    buf: &mut UnpackBuffer<'_>,
    inst: &Instance,
) -> Result<Vec<Solution>, String> {
    let decode = |e: CodecError| format!("solution list does not decode: {e:?}");
    let count = buf.get_usize().map_err(decode)?;
    let mut sols = Vec::new();
    for _ in 0..count {
        let bits = unpack_bits(buf).map_err(decode)?;
        if bits.len() != inst.n() {
            return Err(format!(
                "solution has {} variables, instance has {}",
                bits.len(),
                inst.n()
            ));
        }
        sols.push(Solution::from_bits(inst, bits));
    }
    Ok(sols)
}

/// A search-space cell for the decomposed mode (DTS): the split variables
/// fixed in (`forced_in`) or out (`forced_out`) of the knapsack. The slave
/// builds the [`mkp::restrict::Restriction`] itself so it can also lift the
/// sub-solution back; an infeasible (or empty) cell falls back to the full
/// instance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CellMsg {
    /// Item indices forced into the knapsack.
    pub forced_in: Vec<u64>,
    /// Item indices forced out of the knapsack.
    pub forced_out: Vec<u64>,
    /// When true the slave honors the assignment's `initial` and
    /// `strategy` inside the cell (projecting the master-chosen start onto
    /// the free variables and repairing it) instead of building its own
    /// randomized start — the CORE policy's cooperative regime. DTS leaves
    /// it false.
    pub seeded: bool,
}

/// A per-round slave assignment: where to start, how to search, how much
/// work to spend — and, for the decomposed mode, which cell to search.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignMsg {
    /// Starting solution (assignment bits). Ignored when `cell` is set (the
    /// slave constructs a randomized-greedy start inside its cell).
    pub initial: BitVec,
    /// The strategy triple for this round.
    pub strategy: Strategy,
    /// Candidate-evaluation budget for the round.
    pub budget_evals: u64,
    /// Seed for the slave's stochastic components this round.
    pub seed: u64,
    /// Incarnation epoch of the addressed worker (bumped by the master on
    /// every resurrection); the slave echoes it in its report so the master
    /// can discard reports from superseded incarnations.
    pub epoch: u64,
    /// Decomposition cell (DTS); `None` for the trajectory modes.
    pub cell: Option<CellMsg>,
}

impl AssignMsg {
    /// A plain trajectory assignment (every mode except DTS), at epoch 0
    /// (the engine stamps the live epoch before sending).
    pub fn trajectory(initial: BitVec, strategy: Strategy, budget_evals: u64, seed: u64) -> Self {
        AssignMsg {
            initial,
            strategy,
            budget_evals,
            seed,
            epoch: 0,
            cell: None,
        }
    }
}

impl Wire for AssignMsg {
    fn pack(&self, buf: &mut PackBuffer) {
        pack_bits(&self.initial, buf);
        pack_strategy(&self.strategy, buf);
        buf.put_u64(self.budget_evals);
        buf.put_u64(self.seed);
        buf.put_u64(self.epoch);
        match &self.cell {
            None => buf.put_u8(0),
            Some(cell) => {
                buf.put_u8(1);
                buf.put_u64s(&cell.forced_in);
                buf.put_u64s(&cell.forced_out);
                buf.put_u8(cell.seeded as u8);
            }
        }
    }

    fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
        Ok(AssignMsg {
            initial: unpack_bits(buf)?,
            strategy: unpack_strategy(buf)?,
            budget_evals: buf.get_u64()?,
            seed: buf.get_u64()?,
            epoch: buf.get_u64()?,
            cell: match buf.get_u8()? {
                0 => None,
                _ => Some(CellMsg {
                    forced_in: buf.get_u64s()?,
                    forced_out: buf.get_u64s()?,
                    seeded: buf.get_u8()? != 0,
                }),
            },
        })
    }
}

/// Master → slave state transplant (tag [`tags::SEED`]): the long-term
/// [`History`](mkp_tabu::History) memory a reborn or resumed slave
/// continues from, so recovery preserves the diversification pressure the
/// worker had built up before the loss or checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeedMsg {
    /// Residency counts, length `n`.
    pub history_counts: Vec<u64>,
    /// Iterations recorded into the counts.
    pub history_iterations: u64,
}

impl Wire for SeedMsg {
    fn pack(&self, buf: &mut PackBuffer) {
        buf.put_u64s(&self.history_counts);
        buf.put_u64(self.history_iterations);
    }

    fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
        Ok(SeedMsg {
            history_counts: buf.get_u64s()?,
            history_iterations: buf.get_u64()?,
        })
    }
}

/// A slave's end-of-round report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportMsg {
    /// Best assignment found this round.
    pub best: BitVec,
    /// The B best distinct assignments, best first.
    pub elite: Vec<BitVec>,
    /// Value of the (repaired) starting solution — the master's SGP compares
    /// it with the final value to score the strategy.
    pub initial_value: i64,
    /// Value of `best` (cross-checked on arrival).
    pub best_value: i64,
    /// Moves executed.
    pub moves: u64,
    /// Candidate evaluations spent.
    pub evals: u64,
    /// Echo of the assignment's incarnation epoch; the master discards
    /// reports whose epoch does not match the worker's live incarnation.
    pub epoch: u64,
    /// The slave's long-term History residency counts after this round
    /// (the master keeps the latest copy per worker so it can transplant
    /// the memory into a reborn incarnation or a checkpoint).
    pub history_counts: Vec<u64>,
    /// Iterations recorded into `history_counts`.
    pub history_iterations: u64,
}

impl ReportMsg {
    /// Rebuild (and verify) the best solution against the instance.
    ///
    /// # Panics
    /// If the reported value does not match the rebuilt solution; masters
    /// that must survive a lying slave use
    /// [`checked_best_solution`](ReportMsg::checked_best_solution).
    pub fn best_solution(&self, inst: &Instance) -> Solution {
        self.checked_best_solution(inst)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Rebuild the best solution, reporting a value mismatch as an error
    /// instead of panicking.
    pub fn checked_best_solution(&self, inst: &Instance) -> Result<Solution, String> {
        let sol = Solution::from_bits(inst, self.best.clone());
        if sol.value() != self.best_value {
            return Err(format!(
                "slave reported inconsistent best value: claimed {}, rebuilt {}",
                self.best_value,
                sol.value()
            ));
        }
        Ok(sol)
    }
}

impl Wire for ReportMsg {
    fn pack(&self, buf: &mut PackBuffer) {
        pack_bits(&self.best, buf);
        buf.put_usize(self.elite.len());
        for e in &self.elite {
            pack_bits(e, buf);
        }
        buf.put_i64(self.initial_value);
        buf.put_i64(self.best_value);
        buf.put_u64(self.moves);
        buf.put_u64(self.evals);
        buf.put_u64(self.epoch);
        buf.put_u64s(&self.history_counts);
        buf.put_u64(self.history_iterations);
    }

    fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
        let best = unpack_bits(buf)?;
        let k = buf.get_usize()?;
        let mut elite = Vec::with_capacity(k.min(1024));
        for _ in 0..k {
            elite.push(unpack_bits(buf)?);
        }
        Ok(ReportMsg {
            best,
            elite,
            initial_value: buf.get_i64()?,
            best_value: buf.get_i64()?,
            moves: buf.get_u64()?,
            evals: buf.get_u64()?,
            epoch: buf.get_u64()?,
            history_counts: buf.get_u64s()?,
            history_iterations: buf.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkp::generate::uncorrelated_instance;

    #[test]
    fn problem_roundtrip_preserves_instance() {
        let inst = uncorrelated_instance("p", 20, 3, 0.5, 1);
        let msg = ProblemMsg::from_instance(&inst);
        let back = ProblemMsg::from_bytes(&msg.to_bytes())
            .unwrap()
            .into_instance();
        assert_eq!(back.n(), inst.n());
        assert_eq!(back.m(), inst.m());
        assert_eq!(back.profits(), inst.profits());
        assert_eq!(back.capacities(), inst.capacities());
        for i in 0..inst.m() {
            assert_eq!(back.constraint_row(i), inst.constraint_row(i));
        }
    }

    #[test]
    fn assign_roundtrip() {
        let msg = AssignMsg::trajectory(
            BitVec::from_bools([true, false, true, true]),
            Strategy {
                tabu_tenure: 9,
                nb_drop: 3,
                nb_local: 44,
            },
            1234,
            99,
        );
        assert_eq!(AssignMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn assign_roundtrip_with_cell() {
        let msg = AssignMsg {
            cell: Some(CellMsg {
                forced_in: vec![3, 17],
                forced_out: vec![4],
                seeded: true,
            }),
            ..AssignMsg::trajectory(
                BitVec::zeros(20),
                Strategy {
                    tabu_tenure: 7,
                    nb_drop: 2,
                    nb_local: 30,
                },
                50_000,
                5,
            )
        };
        assert_eq!(AssignMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn report_roundtrip() {
        let msg = ReportMsg {
            best: BitVec::from_bools([false, true, false]),
            elite: vec![
                BitVec::from_bools([false, true, false]),
                BitVec::from_bools([true, false, false]),
            ],
            initial_value: 5,
            best_value: 8,
            moves: 100,
            evals: 5000,
            epoch: 3,
            history_counts: vec![2, 100, 1],
            history_iterations: 101,
        };
        assert_eq!(ReportMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn seed_roundtrip() {
        let msg = SeedMsg {
            history_counts: vec![0, 7, u64::MAX],
            history_iterations: 42,
        };
        assert_eq!(SeedMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        let empty = SeedMsg::default();
        assert_eq!(SeedMsg::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn assign_epoch_survives_the_wire() {
        let msg = AssignMsg {
            epoch: 7,
            ..AssignMsg::trajectory(
                BitVec::from_bools([true, false]),
                Strategy {
                    tabu_tenure: 1,
                    nb_drop: 1,
                    nb_local: 1,
                },
                1,
                0,
            )
        };
        assert_eq!(AssignMsg::from_bytes(&msg.to_bytes()).unwrap().epoch, 7);
    }

    #[test]
    fn corrupt_ones_index_rejected() {
        let msg = AssignMsg::trajectory(
            BitVec::from_bools([true, false]),
            Strategy {
                tabu_tenure: 1,
                nb_drop: 1,
                nb_local: 1,
            },
            1,
            0,
        );
        let mut bytes = msg.to_bytes();
        // The first ones-index lives after len(8) + count(8); overwrite it
        // with an out-of-range value.
        bytes[16] = 0xFF;
        assert!(AssignMsg::from_bytes(&bytes).is_err());
    }

    #[test]
    fn best_solution_verifies_value() {
        let inst = uncorrelated_instance("v", 10, 2, 0.5, 2);
        let sol = mkp::greedy::greedy(&inst, &mkp::eval::Ratios::new(&inst));
        let msg = ReportMsg {
            best: sol.bits().clone(),
            elite: vec![],
            initial_value: 0,
            best_value: sol.value(),
            moves: 0,
            evals: 0,
            epoch: 0,
            history_counts: vec![],
            history_iterations: 0,
        };
        assert_eq!(msg.best_solution(&inst).value(), sol.value());
    }

    // --- testkit property tests: every protocol message survives an
    // arbitrary pack/unpack round-trip, including the degenerate shapes
    // (empty elite pools, zero-length solutions, empty cells). ---

    use mkp::prop_check;
    use mkp::testkit::gen;
    use mkp::Xoshiro256;

    fn arb_bits(rng: &mut Xoshiro256) -> Vec<bool> {
        gen::vec_of(rng, 0, 40, gen::boolean)
    }

    #[test]
    fn problem_msg_roundtrips_by_property() {
        // Raw field round-trip: the codec must not depend on n·m
        // consistency (that is `into_instance`'s job, not the wire's).
        prop_check!(
            |rng| (
                gen::string_any(rng, 12),
                (gen::usize_in(rng, 0, 16), gen::usize_in(rng, 0, 6)),
                gen::vec_of(rng, 0, 16, |r| gen::i64_in(r, 0, 10_000)),
                gen::vec_of(rng, 0, 96, |r| gen::i64_in(r, 0, 10_000)),
                gen::vec_of(rng, 0, 6, |r| gen::i64_in(r, 0, 100_000))
            ),
            |input| {
                let (name, (n, m), profits, weights, capacities) = input.clone();
                let msg = ProblemMsg {
                    name,
                    n,
                    m,
                    profits,
                    weights,
                    capacities,
                };
                assert_eq!(ProblemMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
            }
        );
    }

    #[test]
    fn assign_msg_roundtrips_by_property() {
        prop_check!(
            |rng| (
                arb_bits(rng),
                (
                    gen::usize_in(rng, 0, 100),
                    gen::usize_in(rng, 0, 20),
                    gen::usize_in(rng, 0, 500)
                ),
                (rng.next_u64(), rng.next_u64(), rng.next_u64()),
                (gen::boolean(rng), gen::boolean(rng)),
                gen::vec_of(rng, 0, 8, |r| r.next_u64()),
                gen::vec_of(rng, 0, 8, |r| r.next_u64())
            ),
            |input| {
                let (
                    bits,
                    (tenure, drop, local),
                    (budget, seed, epoch),
                    (has_cell, seeded),
                    f_in,
                    f_out,
                ) = input.clone();
                let msg = AssignMsg {
                    initial: BitVec::from_bools(bits),
                    strategy: Strategy {
                        tabu_tenure: tenure,
                        nb_drop: drop,
                        nb_local: local,
                    },
                    budget_evals: budget,
                    seed,
                    epoch,
                    cell: has_cell.then_some(CellMsg {
                        forced_in: f_in,
                        forced_out: f_out,
                        seeded,
                    }),
                };
                assert_eq!(AssignMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
            }
        );
    }

    #[test]
    fn report_msg_roundtrips_by_property() {
        prop_check!(
            |rng| (
                arb_bits(rng),
                gen::vec_of(rng, 0, 5, arb_bits),
                (
                    gen::i64_in(rng, -1_000, 1_000_000),
                    gen::i64_in(rng, -1_000, 1_000_000)
                ),
                (rng.next_u64(), rng.next_u64(), rng.next_u64()),
                gen::vec_of(rng, 0, 40, |r| r.next_u64())
            ),
            |input| {
                let (best, elite, (initial_value, best_value), (moves, evals, epoch), counts) =
                    input.clone();
                let msg = ReportMsg {
                    best: BitVec::from_bools(best),
                    elite: elite.into_iter().map(BitVec::from_bools).collect(),
                    initial_value,
                    best_value,
                    moves,
                    evals,
                    epoch,
                    history_iterations: counts.iter().fold(0u64, |a, &c| a.wrapping_add(c)),
                    history_counts: counts,
                };
                assert_eq!(ReportMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
            }
        );
    }

    #[test]
    fn degenerate_shapes_roundtrip() {
        // Zero-length solution, empty elite, empty cell — explicitly.
        let assign = AssignMsg {
            cell: Some(CellMsg::default()),
            ..AssignMsg::trajectory(
                BitVec::zeros(0),
                Strategy {
                    tabu_tenure: 0,
                    nb_drop: 0,
                    nb_local: 0,
                },
                0,
                0,
            )
        };
        assert_eq!(AssignMsg::from_bytes(&assign.to_bytes()).unwrap(), assign);
        let report = ReportMsg {
            best: BitVec::zeros(0),
            elite: vec![],
            initial_value: 0,
            best_value: 0,
            moves: 0,
            evals: 0,
            epoch: 0,
            history_counts: vec![],
            history_iterations: 0,
        };
        assert_eq!(ReportMsg::from_bytes(&report.to_bytes()).unwrap(), report);
    }

    #[test]
    #[should_panic(expected = "inconsistent best value")]
    fn tampered_value_detected() {
        let inst = uncorrelated_instance("t", 10, 2, 0.5, 3);
        let sol = mkp::greedy::greedy(&inst, &mkp::eval::Ratios::new(&inst));
        let msg = ReportMsg {
            best: sol.bits().clone(),
            elite: vec![],
            initial_value: 0,
            best_value: sol.value() + 1,
            moves: 0,
            evals: 0,
            epoch: 0,
            history_counts: vec![],
            history_iterations: 0,
        };
        msg.best_solution(&inst);
    }
}
