//! Unified entry point over the eight search modes.
//!
//! All modes consume the same *total* work budget (candidate evaluations,
//! summed over every thread), which is the machine-independent stand-in for
//! the paper's "fixed execution time" comparison — see DESIGN.md §4.
//!
//! [`run_mode`] is the one-shot convenience path: it builds a throwaway
//! [`Engine`](crate::engine::Engine) per call. Callers running many
//! searches (the bench tables, a solve service) should hold one `Engine`
//! and call [`Engine::run`](crate::engine::Engine::run) directly so the
//! worker pool stays warm across runs.

use crate::isp::IspConfig;
use crate::sgp::SgpConfig;
use mkp::{Instance, Solution};
use std::time::Duration;

/// The compared search organizations (paper §5, Table 2, plus the §6
/// asynchronous extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// SEQ — one sequential tabu search, random strategy and start.
    Sequential,
    /// ITS — P independent threads, no communication, no adaptation.
    Independent,
    /// CTS1 — P cooperative threads (solution exchange via the master's
    /// ISP), strategies fixed.
    Cooperative,
    /// CTS2 — cooperation plus dynamic strategy tuning (ISP + SGP).
    CooperativeAdaptive,
    /// ATS — rendezvous-free cooperation (the §6 extension): reports are
    /// delivered pipelined, each worker's next assignment leaving as soon
    /// as its report is processed, in a deterministic logical order.
    Asynchronous,
    /// DTS — search-space decomposition over critical variables (the §2
    /// taxonomy's third parallelism source, implemented as an extension).
    Decomposed,
    /// CORE — LP-core fixing: rank variables by |reduced cost|, fix the
    /// confident ones and run CTS2-style cooperation inside the promising
    /// core, re-identifying it periodically from the incumbent
    /// (Xu/Li/Yin, arXiv 2210.03918).
    Core,
    /// REPAIR — randomized greedy construction with perturbed ratios plus
    /// a feasibility-repair operator, run as independent-restart workers
    /// (Martins, arXiv 2405.15569).
    Repair,
}

impl Mode {
    /// The paper's abbreviation for the mode.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Sequential => "SEQ",
            Mode::Independent => "ITS",
            Mode::Cooperative => "CTS1",
            Mode::CooperativeAdaptive => "CTS2",
            Mode::Asynchronous => "ATS",
            Mode::Decomposed => "DTS",
            Mode::Core => "CORE",
            Mode::Repair => "REPAIR",
        }
    }

    /// All modes of Table 2, in the paper's column order.
    pub fn table2() -> [Mode; 4] {
        [
            Mode::Sequential,
            Mode::Independent,
            Mode::Cooperative,
            Mode::CooperativeAdaptive,
        ]
    }

    /// Every mode the engine can drive, Table 2 first, extensions after.
    /// Order is load-bearing: snapshots, journal records and job-server
    /// frames encode a mode as its position in this array ([`Mode::code`]),
    /// so new modes are only ever appended at the end.
    pub fn all() -> [Mode; 8] {
        [
            Mode::Sequential,
            Mode::Independent,
            Mode::Cooperative,
            Mode::CooperativeAdaptive,
            Mode::Asynchronous,
            Mode::Decomposed,
            Mode::Core,
            Mode::Repair,
        ]
    }

    /// The mode's one-byte wire code: its position in [`Mode::all`].
    pub fn code(self) -> u8 {
        Mode::all()
            .iter()
            .position(|&m| m == self)
            .expect("every mode is listed in Mode::all") as u8
    }

    /// Inverse of [`Mode::code`]; `None` for a code no mode has.
    pub fn from_code(code: u8) -> Option<Mode> {
        Mode::all().get(code as usize).copied()
    }

    /// Parse a mode from its label, case-insensitively (`cts2`, `CORE`).
    pub fn from_label(raw: &str) -> Option<Mode> {
        Mode::all()
            .into_iter()
            .find(|m| m.label().eq_ignore_ascii_case(raw))
    }
}

/// Configuration shared by all modes.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of slave threads P (ignored by SEQ).
    pub p: usize,
    /// Search iterations (master rounds). SEQ, ITS and DTS fold everything
    /// into one round.
    pub rounds: usize,
    /// Total candidate-evaluation budget across all threads and rounds.
    pub total_evals: u64,
    /// Master seed; everything deterministic derives from it.
    pub seed: u64,
    /// ISP (cooperation) knobs.
    pub isp: IspConfig,
    /// SGP (adaptation) knobs.
    pub sgp: SgpConfig,
    /// Master-side path relinking between the two best distinct slave
    /// solutions each round (an extension beyond the paper; off by
    /// default).
    pub relink: bool,
    /// How long the master waits for a slave report (and a slave for its
    /// next instruction) before declaring the farm broken; a slave
    /// normally answers in milliseconds-to-seconds.
    pub report_timeout: Duration,
    /// How many times the master may resurrect each lost worker before
    /// falling back to permanent quarantine. 0 (the default) disables
    /// resurrection entirely, reproducing the pure degradation behavior.
    pub max_restarts: usize,
    /// Base delay before a resurrection attempt; doubles on every further
    /// attempt for the same worker (exponential backoff, saturating).
    pub restart_backoff: Duration,
    /// How long a slave waits for its next instruction before concluding
    /// the master is gone and exiting. `None` (the default) derives it
    /// from the report deadline: `4 × report_timeout + 1 s`. When set, it
    /// must be at least `report_timeout` (see [`RunConfig::validate`]).
    pub slave_patience: Option<Duration>,
    /// Periodic checkpointing of the master state; `None` disables it.
    pub checkpoint: Option<CheckpointCfg>,
}

/// Where and how often the master checkpoints its state (see
/// [`crate::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointCfg {
    /// Snapshot file path (written atomically: tmp + rename).
    pub path: std::path::PathBuf,
    /// Write a snapshot after every `every`-th completed round (the final
    /// round is never checkpointed — the run is over).
    pub every: usize,
}

/// Default [`RunConfig::report_timeout`].
pub const DEFAULT_REPORT_TIMEOUT: Duration = Duration::from_secs(600);

impl RunConfig {
    /// Defaults: P = 4 slaves, 8 rounds.
    pub fn new(total_evals: u64, seed: u64) -> Self {
        RunConfig {
            p: 4,
            rounds: 8,
            total_evals,
            seed,
            isp: IspConfig::default(),
            sgp: SgpConfig::default(),
            relink: false,
            report_timeout: DEFAULT_REPORT_TIMEOUT,
            max_restarts: 0,
            restart_backoff: Duration::from_millis(50),
            slave_patience: None,
            checkpoint: None,
        }
    }

    /// The effective slave patience: the explicit setting, or the derived
    /// default `4 × report_timeout + 1 s` — generous enough that a slave
    /// never gives up on a master still inside its own deadline window.
    pub fn patience(&self) -> Duration {
        self.slave_patience.unwrap_or_else(|| {
            self.report_timeout
                .saturating_mul(4)
                .saturating_add(Duration::from_secs(1))
        })
    }

    /// Check the cross-field invariants the engine relies on. Returns a
    /// human-readable complaint for the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(patience) = self.slave_patience {
            if patience < self.report_timeout {
                return Err(format!(
                    "slave patience ({patience:?}) must be at least the report timeout \
                     ({:?}): a slave that gives up before the master's deadline window \
                     closes turns every straggler into a cascade",
                    self.report_timeout
                ));
            }
        }
        if let Some(cp) = &self.checkpoint {
            if cp.every == 0 {
                return Err("checkpoint interval must be at least 1 round".to_string());
            }
        }
        if !(0.0..=1.0).contains(&self.isp.alpha) {
            return Err(format!(
                "ISP culling fraction alpha ({}) must be in [0, 1]",
                self.isp.alpha
            ));
        }
        if self.isp.rcl == 0 {
            return Err(
                "ISP restricted candidate list (rcl) must hold at least 1 item".to_string(),
            );
        }
        Ok(())
    }
}

/// Why the master quarantined a worker mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LossCause {
    /// The worker's task panicked (message attached).
    Panicked(String),
    /// The worker missed its report deadline.
    Deadline,
    /// The master could no longer reach the worker's mailbox.
    Unreachable,
}

impl std::fmt::Display for LossCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LossCause::Panicked(msg) => write!(f, "panicked: {msg}"),
            LossCause::Deadline => write!(f, "missed report deadline"),
            LossCause::Unreachable => write!(f, "unreachable"),
        }
    }
}

/// One worker the master lost and quarantined during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerLoss {
    /// Worker index `k` (0-based; its farm task id is `k + 1`).
    pub worker: usize,
    /// Master round in which the loss was detected.
    pub round: usize,
    /// What went wrong.
    pub cause: LossCause,
}

impl std::fmt::Display for WorkerLoss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} @ round {}: {}",
            self.worker, self.round, self.cause
        )
    }
}

/// One successful mid-run worker resurrection (see DESIGN.md §10): the
/// master respawned the lost worker's task, re-sent the problem, seeded it
/// from the B-best elite, and received a valid redo report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resurrection {
    /// Worker index `k` (0-based; its farm task id is `k + 1`).
    pub worker: usize,
    /// Master round in which the worker died and was revived.
    pub round: usize,
    /// 1-based attempt number that succeeded (attempt `a` waited
    /// `restart_backoff × 2^(a−1)` before respawning).
    pub attempt: usize,
}

impl std::fmt::Display for Resurrection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} @ round {}: revived on attempt {}",
            self.worker, self.round, self.attempt
        )
    }
}

/// Outcome of one mode run.
#[derive(Debug, Clone)]
pub struct ModeReport {
    /// Which mode produced this.
    pub mode: Mode,
    /// Best solution found.
    pub best: Solution,
    /// Global best value after each master round (one entry per round in
    /// every mode; SEQ/ITS/DTS have exactly one).
    pub round_best: Vec<i64>,
    /// Moves executed across all threads.
    pub total_moves: u64,
    /// Candidate evaluations spent across all threads.
    pub total_evals: u64,
    /// Strategy regenerations the SGP performed (0 in non-adaptive modes).
    pub regenerations: u64,
    /// Wall-clock time of the run.
    pub wall: std::time::Duration,
    /// Workers quarantined during the run (empty for a healthy farm). A
    /// non-empty list means the run is *degraded*: the result is still a
    /// feasible best over the surviving workers' reports.
    pub lost_workers: Vec<WorkerLoss>,
    /// Workers that died and were successfully revived mid-run. A revived
    /// worker does *not* appear in `lost_workers` — the run is whole.
    pub resurrections: Vec<Resurrection>,
    /// Per-task telemetry of the run: counters, span timings, and the
    /// merged event trace (see [`crate::telemetry`]). Empty when the
    /// engine's telemetry is disabled.
    pub telemetry: crate::telemetry::TelemetrySnapshot,
}

impl ModeReport {
    /// Whether the run lost any workers along the way (resurrected workers
    /// don't count — they finished the run).
    pub fn is_degraded(&self) -> bool {
        !self.lost_workers.is_empty()
    }
}

/// Run `mode` on `inst` under `cfg` with a throwaway engine (see the
/// module docs for when to hold an [`Engine`](crate::engine::Engine)
/// instead).
///
/// # Panics
/// On an unrecoverable engine failure (every worker lost). This
/// convenience path assumes a healthy in-process farm; callers that
/// inject faults or need the error should use
/// [`Engine::run`](crate::engine::Engine::run) and handle the `Result`.
pub fn run_mode(inst: &Instance, mode: Mode, cfg: &RunConfig) -> ModeReport {
    crate::engine::Engine::new(cfg.p)
        .run(inst, mode, cfg)
        .unwrap_or_else(|e| panic!("engine failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkp::eval::Ratios;
    use mkp::generate::{gk_instance, uncorrelated_instance, GkSpec};
    use mkp::greedy::greedy;

    fn small_cfg(seed: u64) -> RunConfig {
        RunConfig {
            p: 3,
            rounds: 4,
            total_evals: 120_000,
            seed,
            isp: IspConfig::default(),
            sgp: SgpConfig::default(),
            relink: false,
            report_timeout: DEFAULT_REPORT_TIMEOUT,
            max_restarts: 0,
            restart_backoff: Duration::from_millis(50),
            slave_patience: None,
            checkpoint: None,
        }
    }

    #[test]
    fn patience_defaults_to_the_derived_formula() {
        let mut cfg = small_cfg(1);
        cfg.report_timeout = Duration::from_secs(2);
        assert_eq!(cfg.patience(), Duration::from_secs(9));
        cfg.slave_patience = Some(Duration::from_secs(3));
        assert_eq!(cfg.patience(), Duration::from_secs(3));
    }

    #[test]
    fn validate_rejects_patience_below_the_report_deadline() {
        let mut cfg = small_cfg(1);
        assert!(cfg.validate().is_ok());
        cfg.report_timeout = Duration::from_secs(10);
        cfg.slave_patience = Some(Duration::from_secs(5));
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("patience"), "{err}");
        cfg.slave_patience = Some(Duration::from_secs(10));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_checkpoint_interval() {
        let mut cfg = small_cfg(1);
        cfg.checkpoint = Some(CheckpointCfg {
            path: std::path::PathBuf::from("/tmp/x.snap"),
            every: 0,
        });
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn all_modes_produce_feasible_solutions() {
        let inst = gk_instance(
            "m",
            GkSpec {
                n: 60,
                m: 5,
                tightness: 0.5,
                seed: 1,
            },
        );
        for mode in Mode::all() {
            let r = run_mode(&inst, mode, &small_cfg(7));
            assert!(r.best.is_feasible(&inst), "{mode:?} infeasible");
            assert!(r.best.value() > 0);
            assert_eq!(r.mode, mode);
        }
    }

    #[test]
    fn every_mode_is_deterministic() {
        let inst = gk_instance(
            "d",
            GkSpec {
                n: 50,
                m: 5,
                tightness: 0.5,
                seed: 2,
            },
        );
        for mode in Mode::all() {
            let a = run_mode(&inst, mode, &small_cfg(3));
            let b = run_mode(&inst, mode, &small_cfg(3));
            assert_eq!(a.best.value(), b.best.value(), "{mode:?} nondeterministic");
            assert_eq!(a.round_best, b.round_best);
        }
    }

    #[test]
    fn modes_beat_greedy() {
        let inst = gk_instance(
            "g",
            GkSpec {
                n: 80,
                m: 10,
                tightness: 0.5,
                seed: 3,
            },
        );
        let ratios = Ratios::new(&inst);
        let g = greedy(&inst, &ratios).value();
        for mode in Mode::table2() {
            let r = run_mode(&inst, mode, &small_cfg(5));
            assert!(
                r.best.value() >= g,
                "{mode:?}: {} < greedy {g}",
                r.best.value()
            );
        }
    }

    #[test]
    fn round_best_is_monotone() {
        let inst = gk_instance(
            "r",
            GkSpec {
                n: 60,
                m: 5,
                tightness: 0.5,
                seed: 4,
            },
        );
        for mode in [Mode::CooperativeAdaptive, Mode::Asynchronous] {
            let r = run_mode(&inst, mode, &small_cfg(9));
            assert_eq!(r.round_best.len(), 4, "{mode:?}");
            for w in r.round_best.windows(2) {
                assert!(w[1] >= w[0], "{mode:?} global best regressed");
            }
            assert_eq!(*r.round_best.last().unwrap(), r.best.value(), "{mode:?}");
        }
    }

    #[test]
    fn budgets_are_comparable_across_modes() {
        let inst = gk_instance(
            "b",
            GkSpec {
                n: 60,
                m: 5,
                tightness: 0.5,
                seed: 5,
            },
        );
        let cfg = small_cfg(11);
        for mode in Mode::table2() {
            let r = run_mode(&inst, mode, &cfg);
            let lo = cfg.total_evals * 9 / 10;
            let hi = cfg.total_evals * 13 / 10;
            assert!(
                (lo..hi).contains(&r.total_evals),
                "{mode:?} spent {} of {} budget",
                r.total_evals,
                cfg.total_evals
            );
        }
    }

    #[test]
    fn seq_runs_with_p_irrelevant() {
        let inst = uncorrelated_instance("s", 30, 3, 0.5, 6);
        let mut cfg = small_cfg(13);
        cfg.p = 1;
        let a = run_mode(&inst, Mode::Sequential, &cfg);
        cfg.p = 8;
        let b = run_mode(&inst, Mode::Sequential, &cfg);
        assert_eq!(a.best.value(), b.best.value());
    }

    #[test]
    fn mode_labels_match_paper() {
        assert_eq!(Mode::Sequential.label(), "SEQ");
        assert_eq!(Mode::Independent.label(), "ITS");
        assert_eq!(Mode::Cooperative.label(), "CTS1");
        assert_eq!(Mode::CooperativeAdaptive.label(), "CTS2");
        assert_eq!(Mode::Asynchronous.label(), "ATS");
        assert_eq!(Mode::Decomposed.label(), "DTS");
    }

    #[test]
    fn mode_codes_and_labels_round_trip() {
        for (i, mode) in Mode::all().into_iter().enumerate() {
            // The code is the position in Mode::all(): snapshot, journal
            // and wire bytes depend on this numbering never changing.
            assert_eq!(mode.code() as usize, i);
            assert_eq!(Mode::from_code(mode.code()), Some(mode));
            assert_eq!(Mode::from_label(mode.label()), Some(mode));
            assert_eq!(Mode::from_label(&mode.label().to_lowercase()), Some(mode));
        }
        assert_eq!(Mode::Core.code(), 6);
        assert_eq!(Mode::Repair.code(), 7);
        assert_eq!(Mode::from_code(Mode::all().len() as u8), None);
        assert_eq!(Mode::from_label("bogus"), None);
    }

    #[test]
    fn relinking_never_hurts_and_stays_deterministic() {
        let inst = gk_instance(
            "pr",
            GkSpec {
                n: 70,
                m: 5,
                tightness: 0.5,
                seed: 6,
            },
        );
        let plain = run_mode(&inst, Mode::CooperativeAdaptive, &small_cfg(21));
        let mut cfg = small_cfg(21);
        cfg.relink = true;
        let relinked = run_mode(&inst, Mode::CooperativeAdaptive, &cfg);
        assert!(relinked.best.is_feasible(&inst));
        assert!(
            relinked.best.value() >= plain.best.value(),
            "relinking lost quality: {} < {}",
            relinked.best.value(),
            plain.best.value()
        );
        let again = run_mode(&inst, Mode::CooperativeAdaptive, &cfg);
        assert_eq!(relinked.best.value(), again.best.value());
    }

    #[test]
    fn small_instance_all_modes_reach_exact_optimum() {
        let inst = uncorrelated_instance("x", 20, 3, 0.5, 8);
        let exact = mkp_exact::solve(&inst, &mkp_exact::BbConfig::default());
        assert!(exact.proven);
        for mode in Mode::table2() {
            let r = run_mode(&inst, mode, &small_cfg(15));
            if mode == Mode::Sequential {
                // SEQ draws one random strategy for the whole run — the
                // paper's weak baseline; within 1% is all it promises at
                // this budget.
                let floor = (exact.solution.value() as f64 * 0.99) as i64;
                assert!(
                    r.best.value() >= floor,
                    "SEQ {} below 99% of optimum {}",
                    r.best.value(),
                    exact.solution.value()
                );
            } else {
                assert_eq!(
                    r.best.value(),
                    exact.solution.value(),
                    "{mode:?} missed the optimum"
                );
            }
        }
    }
}
