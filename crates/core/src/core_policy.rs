//! The CORE policy: LP-guided core fixing around CTS2 cooperation.
//!
//! Xu/Li/Yin (arXiv 2210.03918) observe that on hard MKP instances the
//! optimum differs from the LP relaxation's rounding only on a small
//! *promising core* of genuinely uncertain variables, and that the
//! uncertainty is measured by the reduced costs: a variable whose reduced
//! cost has large magnitude is all but decided by the relaxation, one near
//! zero is worth searching. This policy:
//!
//! 1. solves the LP relaxation with the in-tree simplex crate and ranks the
//!    variables by |reduced cost| (`mkp_exact::bounds`) — once per run,
//!    since the ranking depends on the instance alone, and beside the
//!    construction of the ISP's starts, which depend on the rng alone;
//! 2. fixes the confident ones — integral in the LP and far from zero
//!    reduced cost — via [`mkp::restrict::Restriction`], keeping at least a
//!    [`CORE_MIN`]-sized core free;
//! 3. drives the full CTS2 machinery (ISP cooperation + SGP strategy
//!    tuning, delegated to [`FarmPolicy::cooperative_adaptive`]) *inside*
//!    the core: every assignment carries the fixing as a seeded
//!    [`CellMsg`], the slave projects the master-chosen start onto the free
//!    variables and lifts its results back (`engine::serve_assignment`);
//! 4. periodically re-identifies the core from the incumbent: every
//!    [`REFIX_EVERY`] rounds the same ranking is filtered again, and a
//!    variable is only fixed if the incumbent *agrees* with the LP
//!    rounding — disagreements rejoin the core, so the search can overrule
//!    a confident-looking but wrong fixing.
//!
//! Because the master data structure stays in the full variable space
//! (initials, elites and bests all cross the wire lifted), transports,
//! resurrection and checkpoint/resume behave exactly as they do for CTS2.

use crate::coop::FarmPolicy;
use crate::engine::{CoopPolicy, Delivery};
use crate::messages::{pack_bits, unpack_bits, AssignMsg, CellMsg, ReportMsg};
use crate::runner::{Mode, RunConfig};
use mkp::restrict::Restriction;
use mkp::{BitVec, Instance, Solution, Xoshiro256};
use mkp_exact::bounds::{lp_bound, reduced_costs};
use pvm_lite::codec::{CodecError, PackBuffer, UnpackBuffer};

/// Re-identify the core from the incumbent every this many rounds.
pub const REFIX_EVERY: usize = 4;
/// Never fix below this many free variables (the core must hold a real
/// search problem; `Restriction` itself insists on ≥ 2).
pub const CORE_MIN: usize = 24;
/// LP values closer to a bound than this count as integral.
const INTEGRALITY_EPS: f64 = 1e-6;

/// CTS2 cooperation restricted to an LP-identified promising core.
pub struct CorePolicy {
    inner: FarmPolicy,
    /// The fixing candidates, most confident first (see
    /// [`CorePolicy::rank`]); `None` until `prepare` ranks. Not
    /// checkpointed: a restored policy recomputes it at its first refix.
    ranking: Option<Vec<(usize, bool)>>,
    forced_in: Vec<usize>,
    forced_out: Vec<usize>,
    /// Bits of the best solution absorbed so far; steers re-identification.
    incumbent: Option<BitVec>,
    /// Round of the last core (re-)identification.
    last_refix: usize,
}

impl Default for CorePolicy {
    fn default() -> Self {
        CorePolicy::new()
    }
}

impl CorePolicy {
    /// A fresh CORE policy (the core is identified in `prepare`).
    pub fn new() -> Self {
        CorePolicy {
            inner: FarmPolicy::cooperative_adaptive(),
            ranking: None,
            forced_in: Vec::new(),
            forced_out: Vec::new(),
            incumbent: None,
            last_refix: 0,
        }
    }

    /// The number of variables kept free: a quarter of the instance, at
    /// least [`CORE_MIN`] (bounded by n − 2 so the restriction stays legal).
    fn core_size(n: usize) -> usize {
        (n / 4).max(CORE_MIN).min(n.saturating_sub(2))
    }

    /// The fixing candidates, most confident first: the variables the LP
    /// relaxation sets integrally, by descending |reduced cost| (ties by
    /// index), each with whether the LP packs it. Empty when the LP fails.
    /// A pure function of the instance.
    fn rank(inst: &Instance) -> Vec<(usize, bool)> {
        let Ok(lp) = lp_bound(inst) else {
            return Vec::new();
        };
        let d = reduced_costs(inst, &lp.duals);
        let mut order: Vec<usize> = (0..inst.n())
            .filter(|&j| lp.x[j] < INTEGRALITY_EPS || lp.x[j] > 1.0 - INTEGRALITY_EPS)
            .collect();
        order.sort_by(|&a, &b| {
            d[b].abs()
                .partial_cmp(&d[a].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order.into_iter().map(|j| (j, lp.x[j] > 0.5)).collect()
    }

    /// (Re-)identify the promising core. Confident variables — integral LP
    /// value, largest |reduced cost| — are fixed to their LP value until
    /// only [`Self::core_size`] stay free; a variable the `incumbent`
    /// disagrees with is never fixed. The LP is solved only when no
    /// ranking is held yet. Any LP failure or restriction error degrades
    /// to an empty fixing (plain CTS2 over the full space).
    fn identify_core(&mut self, inst: &Instance, incumbent: Option<&BitVec>) {
        self.forced_in.clear();
        self.forced_out.clear();
        let n = inst.n();
        let ranking = self.ranking.get_or_insert_with(|| Self::rank(inst));
        let fix_quota = n - Self::core_size(n);
        for &(j, packed) in ranking.iter() {
            if self.forced_in.len() + self.forced_out.len() >= fix_quota {
                break;
            }
            if let Some(inc) = incumbent {
                if inc.get(j) != packed {
                    continue; // the incumbent overrules the relaxation
                }
            }
            if packed {
                self.forced_in.push(j);
            } else {
                self.forced_out.push(j);
            }
        }
        // Backstop: the forced-in set is a subset of the LP's integral ones
        // and therefore feasible up to f64 rounding, but never trust that —
        // shed the least confident half of both lists until the restriction
        // builds, or give up and search the full space.
        loop {
            if self.forced_in.is_empty() && self.forced_out.is_empty() {
                return;
            }
            if Restriction::new(inst, &self.forced_in, &self.forced_out).is_ok() {
                return;
            }
            self.forced_in.truncate(self.forced_in.len() / 2);
            self.forced_out.truncate(self.forced_out.len() / 2);
        }
    }

    fn cell(&self) -> Option<CellMsg> {
        if self.forced_in.is_empty() && self.forced_out.is_empty() {
            return None;
        }
        Some(CellMsg {
            forced_in: self.forced_in.iter().map(|&j| j as u64).collect(),
            forced_out: self.forced_out.iter().map(|&j| j as u64).collect(),
            seeded: true,
        })
    }
}

impl CoopPolicy for CorePolicy {
    fn mode(&self) -> Mode {
        Mode::Core
    }

    fn active_workers(&self, cfg: &RunConfig) -> usize {
        self.inner.active_workers(cfg)
    }

    fn rounds(&self, cfg: &RunConfig) -> usize {
        self.inner.rounds(cfg)
    }

    fn delivery(&self) -> Delivery {
        Delivery::Synchronous
    }

    fn relink(&self, cfg: &RunConfig) -> bool {
        self.inner.relink(cfg)
    }

    /// The inner policy's starts and strategies depend on the rng alone
    /// and the ranking on the instance alone, so the inner prepare runs on
    /// a scoped thread while this thread solves the LP. The LP stays on the calling thread: on a
    /// fresh thread its matrix would land in a fresh malloc arena and
    /// raise the peak resident set.
    fn prepare(&mut self, inst: &Instance, cfg: &RunConfig, rng: &mut Xoshiro256) -> Vec<Solution> {
        let inner = &mut self.inner;
        let (starts, ranking) = std::thread::scope(|scope| {
            let starts = scope.spawn(|| inner.prepare(inst, cfg, rng));
            let ranking = Self::rank(inst);
            match starts.join() {
                Ok(starts) => (starts, ranking),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        });
        self.ranking = Some(ranking);
        self.incumbent = None;
        self.last_refix = 0;
        self.identify_core(inst, None);
        starts
    }

    fn assign(
        &mut self,
        k: usize,
        round: usize,
        inst: &Instance,
        cfg: &RunConfig,
        rng: &mut Xoshiro256,
    ) -> AssignMsg {
        if round > self.last_refix && round.is_multiple_of(REFIX_EVERY) {
            self.last_refix = round;
            let incumbent = self.incumbent.clone();
            self.identify_core(inst, incumbent.as_ref());
        }
        let mut msg = self.inner.assign(k, round, inst, cfg, rng);
        msg.cell = self.cell();
        msg
    }

    fn absorb(
        &mut self,
        k: usize,
        round: usize,
        report: &ReportMsg,
        slave_best: &Solution,
        global_best: &Solution,
        inst: &Instance,
        cfg: &RunConfig,
        rng: &mut Xoshiro256,
    ) -> u64 {
        self.incumbent = Some(global_best.bits().clone());
        self.inner
            .absorb(k, round, report, slave_best, global_best, inst, cfg, rng)
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        let inner = self.inner.snapshot()?;
        let mut buf = PackBuffer::new();
        buf.put_u64s(&self.forced_in.iter().map(|&j| j as u64).collect::<Vec<_>>());
        buf.put_u64s(
            &self
                .forced_out
                .iter()
                .map(|&j| j as u64)
                .collect::<Vec<_>>(),
        );
        buf.put_u64(self.last_refix as u64);
        match &self.incumbent {
            Some(bits) => {
                buf.put_u8(1);
                pack_bits(bits, &mut buf);
            }
            None => buf.put_u8(0),
        }
        buf.put_bytes(&inner);
        Some(buf.into_bytes())
    }

    fn restore(&mut self, inst: &Instance, cfg: &RunConfig, blob: &[u8]) -> Result<(), String> {
        let decode = |e: CodecError| format!("core policy blob does not decode: {e:?}");
        let mut buf = UnpackBuffer::new(blob);
        let forced_in: Vec<usize> = buf
            .get_u64s()
            .map_err(decode)?
            .into_iter()
            .map(|j| j as usize)
            .collect();
        let forced_out: Vec<usize> = buf
            .get_u64s()
            .map_err(decode)?
            .into_iter()
            .map(|j| j as usize)
            .collect();
        let last_refix = buf.get_u64().map_err(decode)? as usize;
        let incumbent = match buf.get_u8().map_err(decode)? {
            0 => None,
            1 => Some(unpack_bits(&mut buf).map_err(decode)?),
            other => return Err(format!("bad incumbent flag {other}")),
        };
        let inner_blob = buf.get_bytes().map_err(decode)?;
        if buf.remaining() != 0 {
            return Err(format!(
                "{} trailing bytes in core policy blob",
                buf.remaining()
            ));
        }
        // Structural validation before trusting any of it.
        let n = inst.n();
        let mut seen = vec![false; n];
        for &j in forced_in.iter().chain(&forced_out) {
            if j >= n {
                return Err(format!("core fixing names item {j}, instance has {n}"));
            }
            if seen[j] {
                return Err(format!("core fixing names item {j} twice"));
            }
            seen[j] = true;
        }
        if forced_in.len() + forced_out.len() > n.saturating_sub(2) {
            return Err(format!(
                "core fixing pins {} of {n} variables, fewer than two stay free",
                forced_in.len() + forced_out.len()
            ));
        }
        if let Some(bits) = &incumbent {
            if bits.len() != n {
                return Err(format!(
                    "incumbent has {} variables, instance has {n}",
                    bits.len()
                ));
            }
        }
        self.inner.restore(inst, cfg, &inner_blob)?;
        self.ranking = None;
        self.forced_in = forced_in;
        self.forced_out = forced_out;
        self.last_refix = last_refix;
        self.incumbent = incumbent;
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
            "core",
            GkSpec {
                n: 60,
                m: 5,
                tightness: 0.5,
                seed: 11,
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
    fn identifies_a_nonempty_feasible_core() {
        let inst = inst();
        let mut policy = CorePolicy::new();
        let mut rng = Xoshiro256::seed_from_u64(1);
        policy.prepare(&inst, &cfg(1), &mut rng);
        let fixed = policy.forced_in.len() + policy.forced_out.len();
        assert!(fixed > 0, "LP fixing found nothing to fix");
        assert_eq!(fixed, inst.n() - CorePolicy::core_size(inst.n()));
        // The fixing must build a legal restriction.
        Restriction::new(&inst, &policy.forced_in, &policy.forced_out).unwrap();
    }

    #[test]
    fn prepare_matches_the_serial_starts_and_ranking() {
        // The starts built beside the LP are the ones a serial prepare
        // builds, the rng ends where it would, and the ranking is the LP's.
        let inst = inst();
        let cfg = cfg(3);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut policy = CorePolicy::new();
        let starts = policy.prepare(&inst, &cfg, &mut rng);
        let mut serial_rng = Xoshiro256::seed_from_u64(3);
        let serial = FarmPolicy::cooperative_adaptive().prepare(&inst, &cfg, &mut serial_rng);
        assert_eq!(starts, serial);
        assert_eq!(rng.next_u64(), serial_rng.next_u64());
        assert_eq!(policy.ranking, Some(CorePolicy::rank(&inst)));
    }

    #[test]
    fn incumbent_disagreement_keeps_variables_free() {
        let inst = inst();
        let mut policy = CorePolicy::new();
        let mut rng = Xoshiro256::seed_from_u64(2);
        policy.prepare(&inst, &cfg(2), &mut rng);
        // An incumbent that disagrees everywhere with the fixing: every
        // previously fixed variable must drop out of the new fixing.
        let mut contrarian = BitVec::zeros(inst.n());
        for &j in &policy.forced_out {
            contrarian.set(j, true);
        }
        let old_in = policy.forced_in.clone();
        let old_out = policy.forced_out.clone();
        policy.identify_core(&inst, Some(&contrarian));
        for &j in &old_in {
            assert!(
                !policy.forced_in.contains(&j),
                "item {j} fixed in against the incumbent"
            );
        }
        for &j in &old_out {
            assert!(
                !policy.forced_out.contains(&j),
                "item {j} fixed out against the incumbent"
            );
        }
    }

    #[test]
    fn core_mode_is_feasible_and_deterministic() {
        let inst = inst();
        let a = run_mode(&inst, Mode::Core, &cfg(5));
        let b = run_mode(&inst, Mode::Core, &cfg(5));
        assert!(a.best.is_feasible(&inst));
        assert!(a.best.value() > 0);
        assert_eq!(a.best.bits(), b.best.bits());
        assert_eq!(a.round_best, b.round_best);
        assert_eq!(a.mode, Mode::Core);
    }

    #[test]
    fn tiny_instances_degrade_to_full_space() {
        // n below CORE_MIN + 2 leaves nothing worth fixing; the policy must
        // run as plain cooperation, not panic.
        let inst = uncorrelated_instance("tiny", 16, 3, 0.5, 9);
        let r = run_mode(&inst, Mode::Core, &cfg(7));
        assert!(r.best.is_feasible(&inst));
        assert!(r.best.value() > 0);
    }

    #[test]
    fn policy_blob_round_trips_fixing_and_inner_state() {
        let inst = inst();
        let cfg = cfg(13);
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        let mut policy = CorePolicy::new();
        policy.prepare(&inst, &cfg, &mut rng);
        policy.last_refix = 4;
        policy.incumbent = Some(BitVec::from_bools((0..inst.n()).map(|j| j % 3 == 0)));
        let blob = policy.snapshot().expect("core policy checkpoints");

        let mut back = CorePolicy::new();
        back.restore(&inst, &cfg, &blob).unwrap();
        assert_eq!(back.forced_in, policy.forced_in);
        assert_eq!(back.forced_out, policy.forced_out);
        assert_eq!(back.last_refix, 4);
        assert_eq!(back.incumbent, policy.incumbent);
        // Same state ⇒ identical re-encoding (the resume-bit-identity
        // contract rides on this).
        assert_eq!(back.snapshot(), policy.snapshot());
    }

    #[test]
    fn a_restored_policy_recomputes_the_ranking_and_refixes_alike() {
        let inst = inst();
        let cfg = cfg(19);
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        let mut policy = CorePolicy::new();
        policy.prepare(&inst, &cfg, &mut rng);
        assert!(policy.ranking.is_some(), "prepare ranks the variables");
        let blob = policy.snapshot().unwrap();
        let mut back = CorePolicy::new();
        back.restore(&inst, &cfg, &blob).unwrap();
        assert!(back.ranking.is_none(), "the ranking is not checkpointed");
        // An incumbent that agrees with half the fixed-in variables.
        let mut incumbent = BitVec::zeros(inst.n());
        for &j in policy.forced_in.iter().step_by(2) {
            incumbent.set(j, true);
        }
        policy.identify_core(&inst, Some(&incumbent));
        back.identify_core(&inst, Some(&incumbent));
        assert_eq!(back.ranking, policy.ranking);
        assert_eq!(back.forced_in, policy.forced_in);
        assert_eq!(back.forced_out, policy.forced_out);
    }

    #[test]
    fn corrupt_policy_blobs_are_rejected_never_panic() {
        let inst = inst();
        let cfg = cfg(17);
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        let mut policy = CorePolicy::new();
        policy.prepare(&inst, &cfg, &mut rng);
        let blob = policy.snapshot().unwrap();

        let mut back = CorePolicy::new();
        // Truncation at every prefix is a clean error.
        for cut in 0..blob.len() {
            assert!(back.restore(&inst, &cfg, &blob[..cut]).is_err());
        }
        // Wrong worker count propagates from the inner farm blob.
        let mut small = cfg.clone();
        small.p = 2;
        let err = back.restore(&inst, &small, &blob).unwrap_err();
        assert!(err.contains("configures 2 workers"), "{err}");
        // An out-of-range fixing index is caught structurally.
        let mut bad = CorePolicy::new();
        bad.forced_in = vec![inst.n() + 5];
        let mut rng2 = Xoshiro256::seed_from_u64(1);
        bad.inner.prepare(&inst, &cfg, &mut rng2);
        let bad_blob = bad.snapshot().unwrap();
        let err = back.restore(&inst, &cfg, &bad_blob).unwrap_err();
        assert!(err.contains("names item"), "{err}");
    }
}
