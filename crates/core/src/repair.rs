//! The REPAIR policy: randomized-greedy restarts with feasibility repair.
//!
//! Martins (arXiv 2405.15569) shows that on very large MKP instances most
//! of a metaheuristic's value comes from a strong randomized constructive
//! phase plus a cheap repair operator, re-run from many seeds. This policy
//! is that regime expressed over the paper's master/slave engine:
//!
//! * each worker holds a *bank* entry — its personal best-so-far — started
//!   from a greedy fill over a [`Ranking::perturbed`] (noise-perturbed
//!   pseudo-utilities, a different packing order per seed);
//! * every later round the master *kicks* the bank entry (toggles a random
//!   fraction of its bits, usually leaving it infeasible) and hands the
//!   wreck to [`mkp::greedy::randomized_repair`] over a freshly perturbed
//!   ranking — randomized largest-burden drops to feasibility, then greedy
//!   saturation — producing a feasible, maximal restart point near, but not
//!   at, the worker's best;
//! * workers are **independent**: no ISP exchange, no SGP tuning — the only
//!   cross-worker interaction is the engine's generic fold into the global
//!   best. That makes REPAIR the randomized-restart control against which
//!   the cooperative modes are measured on the very-large suite.
//!
//! The master only constructs: every bank entry and restart point reads a
//! [`Ranking`] (utilities, burdens and their order), never the evaluation
//! view a slave's search builds, so a restart costs the perturbation's
//! O(n·m + n log n) and the repair itself.

use crate::engine::{assignment_seed, CoopPolicy, Delivery};
use crate::messages::{
    pack_solutions, pack_strategy, unpack_solutions, unpack_strategy, AssignMsg, ReportMsg,
};
use crate::runner::{Mode, RunConfig};
use mkp::eval::Ranking;
use mkp::greedy::{greedy, randomized_repair};
use mkp::{Instance, Solution, Xoshiro256};
use mkp_tabu::{Strategy, StrategyBounds};
use pvm_lite::codec::{CodecError, PackBuffer, UnpackBuffer};

/// Relative noise on the pseudo-utilities during construction and repair.
pub const PERTURB_STRENGTH: f64 = 0.3;
/// Fraction of the variables toggled by a kick (at least [`KICK_MIN`]).
pub const KICK_FRACTION: usize = 8;
/// Minimum kick size in variables.
pub const KICK_MIN: usize = 2;

/// Randomized greedy construction + repair, independent-restart workers.
pub struct RepairPolicy {
    strategies: Vec<Strategy>,
    /// Per-worker best-so-far; restart points are kicked copies of these.
    bank: Vec<Solution>,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        RepairPolicy::new()
    }
}

impl RepairPolicy {
    /// A fresh REPAIR policy (the bank is built in `prepare`).
    pub fn new() -> Self {
        RepairPolicy {
            strategies: Vec::new(),
            bank: Vec::new(),
        }
    }

    /// Kick worker `k`'s bank entry and repair the wreck into a feasible,
    /// maximal restart point.
    fn restart_point(&self, k: usize, inst: &Instance, rng: &mut Xoshiro256) -> Solution {
        let n = inst.n();
        let mut bits = self.bank[k].bits().clone();
        let kicks = (n / KICK_FRACTION).max(KICK_MIN);
        for _ in 0..kicks {
            let j = rng.range_inclusive(0, (n - 1) as u64) as usize;
            bits.set(j, !bits.get(j));
        }
        let ranking = Ranking::perturbed(inst, rng, PERTURB_STRENGTH);
        randomized_repair(inst, &ranking, rng, bits)
    }
}

impl CoopPolicy for RepairPolicy {
    fn mode(&self) -> Mode {
        Mode::Repair
    }

    fn active_workers(&self, cfg: &RunConfig) -> usize {
        cfg.p
    }

    fn rounds(&self, cfg: &RunConfig) -> usize {
        cfg.rounds
    }

    fn delivery(&self) -> Delivery {
        Delivery::Synchronous
    }

    fn relink(&self, cfg: &RunConfig) -> bool {
        cfg.relink
    }

    fn prepare(&mut self, inst: &Instance, cfg: &RunConfig, rng: &mut Xoshiro256) -> Vec<Solution> {
        let p = cfg.p;
        let bounds = StrategyBounds::for_instance_size(inst.n());
        self.strategies = (0..p).map(|_| bounds.random(rng)).collect();
        self.bank = (0..p)
            .map(|_| greedy(inst, &Ranking::perturbed(inst, rng, PERTURB_STRENGTH)))
            .collect();
        self.bank.clone()
    }

    fn assign(
        &mut self,
        k: usize,
        round: usize,
        inst: &Instance,
        cfg: &RunConfig,
        rng: &mut Xoshiro256,
    ) -> AssignMsg {
        let start = if round == 0 {
            self.bank[k].clone()
        } else {
            self.restart_point(k, inst, rng)
        };
        let budget = cfg.total_evals / (cfg.p as u64 * self.rounds(cfg) as u64);
        AssignMsg::trajectory(
            start.bits().clone(),
            self.strategies[k],
            budget,
            assignment_seed(cfg, round, k),
        )
    }

    fn absorb(
        &mut self,
        k: usize,
        _round: usize,
        _report: &ReportMsg,
        slave_best: &Solution,
        _global_best: &Solution,
        _inst: &Instance,
        _cfg: &RunConfig,
        _rng: &mut Xoshiro256,
    ) -> u64 {
        // Independent restarts: each worker only ever learns from itself.
        if slave_best.value() > self.bank[k].value() {
            self.bank[k] = slave_best.clone();
        }
        0
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut buf = PackBuffer::new();
        buf.put_usize(self.strategies.len());
        for s in &self.strategies {
            pack_strategy(s, &mut buf);
        }
        pack_solutions(&self.bank, &mut buf);
        Some(buf.into_bytes())
    }

    fn restore(&mut self, inst: &Instance, cfg: &RunConfig, blob: &[u8]) -> Result<(), String> {
        let p = cfg.p;
        let decode = |e: CodecError| format!("repair policy blob does not decode: {e:?}");
        let mut buf = UnpackBuffer::new(blob);

        let count = buf.get_usize().map_err(decode)?;
        let strategies = (0..count)
            .map(|_| unpack_strategy(&mut buf))
            .collect::<Result<Vec<_>, _>>()
            .map_err(decode)?;
        let bank = unpack_solutions(&mut buf, inst)?;
        if buf.remaining() != 0 {
            return Err(format!(
                "{} trailing bytes in repair policy blob",
                buf.remaining()
            ));
        }
        for (name, len) in [
            ("strategies", strategies.len()),
            ("bank entries", bank.len()),
        ] {
            if len != p {
                return Err(format!(
                    "policy blob holds {len} {name}, run configures {p} workers"
                ));
            }
        }
        self.strategies = strategies;
        self.bank = bank;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_mode;
    use mkp::generate::{gk_instance, uncorrelated_instance, GkSpec};

    fn inst() -> Instance {
        gk_instance(
            "repair",
            GkSpec {
                n: 60,
                m: 5,
                tightness: 0.5,
                seed: 21,
            },
        )
    }

    fn cfg(seed: u64) -> RunConfig {
        RunConfig {
            p: 3,
            rounds: 3,
            ..RunConfig::new(90_000, seed)
        }
    }

    #[test]
    fn restart_points_are_feasible_and_differ_from_the_bank() {
        let inst = inst();
        let cfg = cfg(3);
        let mut policy = RepairPolicy::new();
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        policy.prepare(&inst, &cfg, &mut rng);
        let mut moved = false;
        for k in 0..cfg.p {
            let start = policy.restart_point(k, &inst, &mut rng);
            assert!(start.is_feasible(&inst));
            assert!(start.check_consistent(&inst));
            moved |= start.bits() != policy.bank[k].bits();
        }
        assert!(moved, "every kick landed back on its own bank entry");
    }

    #[test]
    fn absorb_keeps_the_better_bank_entry() {
        let inst = inst();
        let cfg = cfg(5);
        let mut policy = RepairPolicy::new();
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        policy.prepare(&inst, &cfg, &mut rng);
        let before = policy.bank[0].clone();
        // A strictly worse "best" must not evict the bank entry.
        let worse = Solution::empty(&inst);
        let report = ReportMsg {
            best: worse.bits().clone(),
            elite: Vec::new(),
            initial_value: 0,
            best_value: worse.value(),
            moves: 0,
            evals: 0,
            epoch: 0,
            history_counts: Vec::new(),
            history_iterations: 0,
        };
        policy.absorb(0, 1, &report, &worse, &before, &inst, &cfg, &mut rng);
        assert_eq!(policy.bank[0].bits(), before.bits());
    }

    #[test]
    fn repair_mode_is_feasible_and_deterministic() {
        let inst = inst();
        let a = run_mode(&inst, Mode::Repair, &cfg(7));
        let b = run_mode(&inst, Mode::Repair, &cfg(7));
        assert!(a.best.is_feasible(&inst));
        assert!(a.best.value() > 0);
        assert_eq!(a.best.bits(), b.best.bits());
        assert_eq!(a.round_best, b.round_best);
        assert_eq!(a.mode, Mode::Repair);
        assert_eq!(a.regenerations, 0, "REPAIR has no SGP to regenerate");
    }

    #[test]
    fn works_on_tiny_instances() {
        let inst = uncorrelated_instance("tiny", 16, 3, 0.5, 4);
        let r = run_mode(&inst, Mode::Repair, &cfg(9));
        assert!(r.best.is_feasible(&inst));
        assert!(r.best.value() > 0);
    }

    #[test]
    fn policy_blob_round_trips_bank_and_strategies() {
        let inst = inst();
        let cfg = cfg(11);
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        let mut policy = RepairPolicy::new();
        policy.prepare(&inst, &cfg, &mut rng);
        let blob = policy.snapshot().expect("repair policy checkpoints");

        let mut back = RepairPolicy::new();
        back.restore(&inst, &cfg, &blob).unwrap();
        assert_eq!(back.strategies, policy.strategies);
        for (a, b) in back.bank.iter().zip(&policy.bank) {
            assert_eq!(a.bits(), b.bits());
            assert_eq!(a.value(), b.value());
        }
        // Same state ⇒ identical re-encoding.
        assert_eq!(back.snapshot(), policy.snapshot());
    }

    #[test]
    fn corrupt_policy_blobs_are_rejected_never_panic() {
        let inst = inst();
        let cfg = cfg(13);
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        let mut policy = RepairPolicy::new();
        policy.prepare(&inst, &cfg, &mut rng);
        let blob = policy.snapshot().unwrap();

        let mut back = RepairPolicy::new();
        for cut in 0..blob.len() {
            assert!(back.restore(&inst, &cfg, &blob[..cut]).is_err());
        }
        let mut small = cfg.clone();
        small.p = 2;
        let err = back.restore(&inst, &small, &blob).unwrap_err();
        assert!(err.contains("configures 2 workers"), "{err}");
        // Trailing garbage is caught, not silently ignored.
        let mut padded = blob.clone();
        padded.extend_from_slice(&[0xAB; 3]);
        let err = back.restore(&inst, &cfg, &padded).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }
}
