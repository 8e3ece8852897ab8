//! The generic master/slave engine behind every search mode.
//!
//! One [`Engine`] owns a persistent [`pvm_lite::WorkerPool`] and drives the
//! paper's Fig. 2 round loop — broadcast problem → assign → collect reports
//! → update master data structure — for *any* cooperation scheme. What
//! varies between SEQ/ITS/CTS1/CTS2/ATS/DTS is only the policy: how many
//! workers and rounds, what each assignment contains, and what the master
//! does with each report. That variation lives behind the [`CoopPolicy`]
//! trait; the message loop, budget accounting, rendezvous, relinking and
//! [`ModeReport`] assembly are written exactly once, here.
//!
//! Every run follows the paper's master/slave split: [`master_loop`] runs
//! on the caller's thread and [`slave_loop`] on the pool's slave threads.
//! The pool outlives individual runs: a service can keep one warm `Engine`
//! and serve consecutive solve requests without respawning threads (the
//! mailboxes are rebuilt per run, the slave threads are not — see
//! `pvm_lite::farm`).
//!
//! The master runs one loop for both report deliveries ([`Delivery`]).
//! Reports may *arrive* in any order; the master buffers each under its
//! logical `(round, worker)` slot and *processes* the buffer in that
//! order, so every run is bit-deterministic. The delivery only picks the
//! release rule, that is, when a worker's next assignment leaves:
//!
//! * **Synchronous** — the paper's rendezvous: once every live worker's
//!   round-r report is in, the master processes round r and releases
//!   round r+1 to every worker.
//! * **Pipelined** — the §6 asynchronous extension (ATS): worker k's
//!   next assignment leaves as soon as k's report is processed, so the
//!   workers overlap rounds freely.
//!
//! # Recovery (DESIGN.md §10)
//!
//! Losing a slave no longer has to cost its share of the search. Both
//! release rules heal through one path. A worker that misses its report
//! deadline, or whose assignment cannot be sent, is *resurrected* while
//! its `RunConfig::max_restarts` budget lasts: exponential backoff,
//! respawn the task on a thread of its own ([`TaskCtx::respawn`]),
//! re-send the problem, transplant the worker's long-term History
//! ([`tags::SEED`]), then redo the outstanding assignment seeded from the
//! master's B-best elite. Each assignment carries an incarnation *epoch*
//! that the slave echoes, so a superseded incarnation's stale report can
//! never be mistaken for the redo. A worker whose restart budget runs dry
//! falls back to the old behavior: permanent quarantine, the run finishing
//! degraded over the survivors. Orthogonally, `RunConfig::checkpoint`
//! makes the synchronous master serialize its complete state every K
//! rounds ([`crate::snapshot`]); [`Engine::resume`] continues such a
//! snapshot bit-identically to the uninterrupted run.

use crate::messages::{tags, AssignMsg, ProblemMsg, ReportMsg, SeedMsg};
use crate::runner::{LossCause, Mode, ModeReport, Resurrection, RunConfig, WorkerLoss};
use crate::snapshot::{config_digest, instance_fingerprint, Snapshot};
use crate::telemetry::{Counter, EventKind, SpanKind, Telemetry, TelemetrySnapshot};
use mkp::eval::Ratios;
use mkp::greedy::dynamic_randomized_greedy;
use mkp::restrict::Restriction;
use mkp::{Instance, Solution, Xoshiro256};
use mkp_tabu::elite::ElitePool;
use mkp_tabu::moves::MoveStats;
use mkp_tabu::{search, Budget, TsConfig};
use pvm_lite::{
    CommStats, Envelope, FaultAction, FaultPlan, TaskCtx, TaskOutcome, Transport, WorkerPool,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When the master releases a worker's next assignment (see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Release round r+1 once all of round r's reports are in and
    /// processed (every mode but ATS).
    Synchronous,
    /// Release a worker's next round as soon as its report is processed,
    /// without waiting for its peers (ATS).
    Pipelined,
}

/// The B in "B best solutions" (Fig. 2): how many distinct elite solutions
/// the master banks for reseeding resurrected workers and checkpoints.
const ELITE_CAP: usize = 8;

/// The cooperation scheme: everything mode-specific the master does.
///
/// The engine calls the hooks in a fixed order: [`prepare`] once (after the
/// problem broadcast), then per round and worker [`assign`] and — once the
/// report is in — [`absorb`]. All randomness flows through the single master
/// `rng` handed to each hook, which is what makes every mode a deterministic
/// function of `RunConfig::seed`.
///
/// [`prepare`]: CoopPolicy::prepare
/// [`assign`]: CoopPolicy::assign
/// [`absorb`]: CoopPolicy::absorb
pub trait CoopPolicy: Send {
    /// Which mode this policy implements (stamped on the report).
    fn mode(&self) -> Mode;

    /// Number of worker tasks actually driven (SEQ: 1, everything else: P).
    fn active_workers(&self, cfg: &RunConfig) -> usize;

    /// Number of master rounds (SEQ/ITS/DTS fold everything into one).
    fn rounds(&self, cfg: &RunConfig) -> usize;

    /// Report delivery scheme.
    fn delivery(&self) -> Delivery {
        Delivery::Synchronous
    }

    /// Whether the master relinks the two best distinct slave solutions
    /// of each synchronous round before processing it. [`admit`] refuses
    /// it under pipelined delivery, which has no round to relink.
    fn relink(&self, cfg: &RunConfig) -> bool {
        let _ = cfg;
        false
    }

    /// Build the master data structure; the returned solutions seed the
    /// global best (may be empty for modes that start workers elsewhere,
    /// e.g. inside decomposition cells).
    fn prepare(&mut self, inst: &Instance, cfg: &RunConfig, rng: &mut Xoshiro256) -> Vec<Solution>;

    /// The assignment for worker `k` in `round`.
    fn assign(
        &mut self,
        k: usize,
        round: usize,
        inst: &Instance,
        cfg: &RunConfig,
        rng: &mut Xoshiro256,
    ) -> AssignMsg;

    /// Update the master data structure from worker `k`'s report (the
    /// engine has already folded `slave_best` into `global_best`). Returns
    /// the number of strategy regenerations performed (0 or 1).
    #[allow(clippy::too_many_arguments)] // the full Fig. 2 update context
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
    ) -> u64;

    /// Serialize the policy's internal state into a checkpoint blob;
    /// `None` (the default) marks the policy as not checkpointable.
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restore internal state from a [`snapshot`](CoopPolicy::snapshot)
    /// blob taken under the same instance and configuration.
    fn restore(&mut self, inst: &Instance, cfg: &RunConfig, blob: &[u8]) -> Result<(), String> {
        let _ = (inst, cfg, blob);
        Err("this policy does not support checkpoint/resume".to_string())
    }
}

/// The per-assignment slave seed: a deterministic function of the master
/// seed, the round and the worker index, so every mode's search streams are
/// reproducible and decorrelated.
pub fn assignment_seed(cfg: &RunConfig, round: usize, k: usize) -> u64 {
    let slave = k + 1;
    cfg.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((slave as u64) << 32)
}

/// Unrecoverable engine failures. Losing *some* workers is not an error —
/// the master quarantines them and finishes degraded (see
/// [`ModeReport::lost_workers`]); these are the cases it cannot search
/// around.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Every worker was quarantined before the run could finish; the
    /// losses tell the story in detection order.
    AllWorkersLost {
        /// The per-worker losses, in the order the master detected them.
        losses: Vec<WorkerLoss>,
    },
    /// A task broke the master/slave protocol (wrong tag, out-of-range
    /// sender, undecodable or inconsistent report).
    ProtocolViolation {
        /// What arrived and why it is invalid.
        detail: String,
    },
    /// The master task itself panicked.
    MasterPanicked {
        /// The master's panic message.
        message: String,
    },
    /// The request cannot be served as configured (invalid cross-field
    /// configuration, checkpointing a mode that has no consistent round
    /// boundary, resuming a snapshot that doesn't match the run).
    Unsupported {
        /// What was asked for and why it can't be done.
        detail: String,
    },
    /// An invariant the engine relies on failed (a bug, not a worker
    /// fault).
    Internal {
        /// Which invariant broke.
        detail: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::AllWorkersLost { losses } => {
                write!(f, "all workers lost:")?;
                for loss in losses {
                    write!(f, " [{loss}]")?;
                }
                Ok(())
            }
            EngineError::ProtocolViolation { detail } => {
                write!(f, "protocol violation: {detail}")
            }
            EngineError::MasterPanicked { message } => {
                write!(f, "master panicked: {message}")
            }
            EngineError::Unsupported { detail } => write!(f, "unsupported: {detail}"),
            EngineError::Internal { detail } => write!(f, "engine invariant broken: {detail}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Build a [`FaultPlan`] that fires when a worker dequeues its assignment
/// for `round` (`worker` is 0-based, like [`WorkerLoss::worker`]). The
/// mapping counts every delivery into the slave: one problem broadcast,
/// then one assignment per round, so round `r`'s assignment is the
/// `r + 2`-th message.
///
/// For modes that fold everything into one round (SEQ/ITS/DTS) only
/// `round == 0` can fire; later triggers never arrive.
pub fn fault_at_round(worker: usize, round: usize, action: FaultAction) -> FaultPlan {
    FaultPlan {
        tid: worker + 1,
        on_receive: round + 2,
        action,
    }
}

/// How a bounded run slice ended (see [`Engine::run_slice`]).
#[derive(Debug)]
pub enum SliceOutcome {
    /// The run finished inside the slice; the complete report. Boxed so
    /// the variant stays as small as `Parked`'s snapshot pointer.
    Finished(Box<ModeReport>),
    /// The slice's round budget elapsed first: the master's complete
    /// state at a round boundary, ready to resume bit-identically.
    Parked(Box<Snapshot>),
}

/// A reusable parallel search engine: one persistent worker pool serving
/// consecutive [`run`](Engine::run) calls for any [`Mode`].
pub struct Engine {
    pool: WorkerPool,
    spawned_threads: usize,
    fault_plan: Option<FaultPlan>,
    telemetry: bool,
}

impl Engine {
    /// An engine whose pool can drive up to `p` slave workers (plus the
    /// master task, which runs on the caller's thread).
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "an engine needs at least one worker");
        Engine {
            pool: WorkerPool::new(p + 1),
            spawned_threads: p,
            fault_plan: None,
            telemetry: true,
        }
    }

    /// Toggle telemetry recording for subsequent runs (on by default).
    /// Disabled runs return an empty [`ModeReport::telemetry`]; this is
    /// the baseline for overhead measurement.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
    }

    /// Pool size (master + workers).
    pub fn pool_size(&self) -> usize {
        self.pool.ntasks()
    }

    /// Total slave threads the engine's pools have spawned over its
    /// lifetime. Stays constant across runs unless a run needs a bigger
    /// pool — the respawn-free reuse this counter exists to verify.
    pub fn spawned_threads(&self) -> usize {
        self.spawned_threads
    }

    /// Slave thread ids of the current pool (for reuse assertions in
    /// tests).
    pub fn thread_ids(&self) -> Vec<std::thread::ThreadId> {
        self.pool.thread_ids()
    }

    /// Inject a one-shot fault into the *next* run (see [`fault_at_round`]
    /// for the worker/round mapping). Testing hook for the degradation
    /// and recovery paths.
    pub fn inject_fault(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Grow the pool if `cfg.p` asks for more workers than it holds; a
    /// smaller run leaves the pool alone (extra workers idle through it).
    fn ensure_capacity(&mut self, ntasks: usize) {
        if ntasks > self.pool.ntasks() {
            self.pool = WorkerPool::new(ntasks);
            self.spawned_threads += ntasks - 1;
        }
    }

    /// Run `mode` on `inst` under `cfg`, reusing the warm pool.
    ///
    /// Losing workers mid-run is not an error: the master quarantines them
    /// and the report comes back with [`ModeReport::lost_workers`]
    /// non-empty. `Err` means the run produced no usable result (see
    /// [`EngineError`]).
    pub fn run(
        &mut self,
        inst: &Instance,
        mode: Mode,
        cfg: &RunConfig,
    ) -> Result<ModeReport, EngineError> {
        finished_only(self.run_slice(inst, mode, cfg, None, None)?)
    }

    /// Continue a checkpointed run from `snap` (written by an earlier run
    /// with `RunConfig::checkpoint` set). The instance and every
    /// search-relevant configuration field must match the original run —
    /// the resumed run is then bit-identical to the uninterrupted one
    /// (objective, best solution, per-round curves; wall clock excluded).
    pub fn resume(
        &mut self,
        inst: &Instance,
        snap: Snapshot,
        cfg: &RunConfig,
    ) -> Result<ModeReport, EngineError> {
        finished_only(self.run_slice(inst, snap.mode, cfg, Some(snap), None)?)
    }

    /// Run at most `park_after` rounds of `mode` (all of them if `None`),
    /// optionally continuing a parked or checkpointed [`Snapshot`], and
    /// either finish or park again. Parking serializes the master's
    /// complete state at a round boundary — the same artifact a periodic
    /// checkpoint writes — so a chain of slices is bit-identical to one
    /// uninterrupted run. This is the preemption primitive behind the job
    /// server's time-slicing ([`crate::jobserver`]). A slice that cannot
    /// run as configured fails with [`EngineError::Unsupported`] before
    /// the pool hears anything.
    pub fn run_slice(
        &mut self,
        inst: &Instance,
        mode: Mode,
        cfg: &RunConfig,
        resume: Option<Snapshot>,
        park_after: Option<usize>,
    ) -> Result<SliceOutcome, EngineError> {
        assert!(cfg.p >= 1 && cfg.rounds >= 1);
        let mut policy = admit(inst, mode, cfg, resume.as_ref(), park_after)?;
        let active = policy.active_workers(cfg);
        assert!(active >= 1, "a run needs at least one active worker");
        self.ensure_capacity(active + 1);
        if let Some(plan) = self.fault_plan.take() {
            self.pool.set_fault_plan(plan);
        }

        // One shared telemetry registry per run (slot per pool task); the
        // master and slave closures record into it directly — pvm-lite
        // runs every task in this process, so observability needs no wire
        // protocol (see crate::telemetry).
        let tel = Arc::new(if self.telemetry {
            Telemetry::new(self.pool.ntasks())
        } else {
            Telemetry::disabled(self.pool.ntasks())
        });

        // The master runs on this thread and borrows the policy; the
        // slaves own what they need. The master releases the farm however
        // its loop ended, a panic included.
        let (master, slaves) = self.pool.run_collect(
            |ctx| {
                let _release = StopOnDrop(&ctx);
                master_loop(&ctx, inst, &mut *policy, cfg, resume, park_after, &tel)
            },
            slave_task(cfg.patience(), Arc::clone(&tel)),
        );

        // Fold the transport's per-task comm totals in after the pool
        // joined (the join is the synchronization point for the relaxed
        // counter atomics).
        for (tid, comm) in self.pool.last_comm_stats().iter().enumerate() {
            fold_comm_stats(&tel, tid, comm);
        }

        // The master only observes *silence* from a lost slave (a missed
        // deadline, a dead mailbox); the pool knows whether that silence
        // was a panic. Rewrite the causes so the report carries the real
        // story. A resurrected worker's outcome is its latest
        // incarnation's, which finished cleanly, so its earlier panics are
        // gone and its resurrection record is untouched here.
        let enrich = |losses: &mut Vec<WorkerLoss>| {
            for loss in losses.iter_mut() {
                if let Some(message) = slaves[loss.worker].panic_message() {
                    loss.cause = LossCause::Panicked(message.to_string());
                }
            }
        };
        let result = match master {
            TaskOutcome::Done(result) => result,
            TaskOutcome::Panicked(message) => return Err(EngineError::MasterPanicked { message }),
        };
        match result {
            Ok(SliceOutcome::Finished(mut report)) => {
                enrich(&mut report.lost_workers);
                report.telemetry = tel.snapshot();
                Ok(SliceOutcome::Finished(report))
            }
            // A parked slice carries its losses inside the snapshot; panic
            // details resurface when the job resumes.
            Ok(parked) => Ok(parked),
            Err(EngineError::AllWorkersLost { mut losses }) => {
                enrich(&mut losses);
                Err(EngineError::AllWorkersLost { losses })
            }
            Err(e) => Err(e),
        }
    }
}

/// The in-process slave task: [`slave_loop`] over the pool mailboxes,
/// waiting `patience` for each instruction and recording into `tel`.
fn slave_task(patience: Duration, tel: Arc<Telemetry>) -> impl Fn(TaskCtx) + Send + Sync {
    move |ctx| {
        slave_loop(&ctx, patience, &tel);
    }
}

/// Record task `tid`'s transport totals as its message and byte counters.
pub(crate) fn fold_comm_stats(tel: &Telemetry, tid: usize, comm: &CommStats) {
    tel.add(tid, Counter::MsgsSent, comm.sent);
    tel.add(tid, Counter::MsgsReceived, comm.received);
    tel.add(tid, Counter::BytesSent, comm.bytes_sent);
    tel.add(tid, Counter::BytesReceived, comm.bytes_received);
}

/// Unwrap a [`SliceOutcome`] from a run that set no park bound — parking
/// is impossible there, so a parked outcome is an engine bug.
pub(crate) fn finished_only(outcome: SliceOutcome) -> Result<ModeReport, EngineError> {
    match outcome {
        SliceOutcome::Finished(report) => Ok(*report),
        SliceOutcome::Parked(_) => Err(EngineError::Internal {
            detail: "unbounded run returned a parked outcome".into(),
        }),
    }
}

/// Admit a slice of `mode` before any message leaves the master: build
/// its policy — fresh, or restored from `resume`'s blob once the snapshot
/// matches the run — and run every check that can reject the slice as
/// configured. Every farm owner admits first (the engine's pool, the
/// remote master's hub, the job server's socket slices), so a rejected
/// slice never strands a slave waiting for its problem.
pub(crate) fn admit(
    inst: &Instance,
    mode: Mode,
    cfg: &RunConfig,
    resume: Option<&Snapshot>,
    park_after: Option<usize>,
) -> Result<Box<dyn CoopPolicy>, EngineError> {
    let reject = |detail: String| Err(EngineError::Unsupported { detail });
    let mut policy = policy_for(mode);
    let pipelined = policy.delivery() == Delivery::Pipelined;
    if let Some(snap) = resume {
        if snap.mode != mode {
            return reject(format!(
                "snapshot was taken under {:?}, not {mode:?}",
                snap.mode
            ));
        }
        if snap.fingerprint != instance_fingerprint(inst) {
            return reject("snapshot was taken from a different instance".to_string());
        }
        if snap.cfg_digest != config_digest(cfg) {
            return reject(
                "snapshot was taken under a different search configuration \
                 (p, rounds, budget, seed, ISP/SGP and relink must match the original run)"
                    .to_string(),
            );
        }
        let active = policy.active_workers(cfg);
        let rounds = policy.rounds(cfg);
        if pipelined {
            return reject("pipelined modes cannot be checkpointed or resumed".to_string());
        }
        if snap.alive.len() != active
            || snap.epochs.len() != active
            || snap.restarts_used.len() != active
            || snap.histories.len() != active
        {
            return reject(format!(
                "snapshot worker tables hold {} workers, run configures {active}",
                snap.alive.len()
            ));
        }
        let named = snap.losses.iter().map(|loss| loss.worker);
        let mut named = named.chain(snap.resurrections.iter().map(|r| r.worker));
        if let Some(k) = named.find(|&k| k >= active) {
            return reject(format!(
                "snapshot records a loss or resurrection of worker {k}, \
                 run configures {active}"
            ));
        }
        if snap.next_round == 0
            || snap.next_round >= rounds
            || snap.round_best.len() != snap.next_round
        {
            return reject(format!(
                "snapshot round counter {} is outside the resumable range 1..{rounds}",
                snap.next_round
            ));
        }
        if snap.rng == [0u64; 4] {
            return reject("snapshot rng state is degenerate".to_string());
        }
        let n = inst.n();
        if snap.global_best.len() != n {
            return reject(format!(
                "snapshot global_best holds {} bits for {n} items",
                snap.global_best.len()
            ));
        }
        if let Some((i, bits)) = snap.elite.iter().enumerate().find(|(_, b)| b.len() != n) {
            return reject(format!(
                "snapshot elite[{i}] holds {} bits for {n} items",
                bits.len()
            ));
        }
        if !snap.alive.contains(&true) {
            return Err(EngineError::AllWorkersLost {
                losses: snap.losses.clone(),
            });
        }
    }
    if let Err(detail) = cfg.validate() {
        return reject(detail);
    }
    if cfg.checkpoint.is_some() && pipelined {
        return reject(
            "checkpointing requires synchronous delivery: the pipelined ATS \
             master has no consistent round boundary to snapshot"
                .to_string(),
        );
    }
    if policy.relink(cfg) && pipelined {
        return reject(
            "relinking requires synchronous delivery: the pipelined ATS \
             master has no complete round to relink"
                .to_string(),
        );
    }
    match park_after {
        Some(0) => return reject("park_after must be at least one round".to_string()),
        Some(_) if pipelined => {
            return reject("pipelined modes have no round boundary to park at".to_string())
        }
        _ => {}
    }
    if let Some(snap) = resume {
        policy
            .restore(inst, cfg, &snap.policy)
            .map_err(|detail| EngineError::Unsupported {
                detail: format!("policy state does not restore: {detail}"),
            })?;
    }
    Ok(policy)
}

/// Release the farm: STOP every slave task, idle ones included, and any
/// superseded incarnation still blocked on an orphaned mailbox. Called by
/// the farm's owner once its last slice is over, however that slice
/// ended.
pub(crate) fn stop_farm<C: Transport>(ctx: &C) {
    for slave in 1..ctx.ntasks() {
        let _ = ctx.send_bytes(slave, tags::STOP, Vec::new());
    }
    ctx.notify_orphans(tags::STOP);
}

/// [`stop_farm`] on drop: a master that panics mid-run still STOPs its
/// slaves while it unwinds, instead of leaving each to wait out its
/// patience.
struct StopOnDrop<'a, C: Transport>(&'a C);

impl<C: Transport> Drop for StopOnDrop<'_, C> {
    fn drop(&mut self) {
        stop_farm(self.0);
    }
}

/// Dispatch a mode to its policy.
pub(crate) fn policy_for(mode: Mode) -> Box<dyn CoopPolicy> {
    use crate::coop::FarmPolicy;
    use crate::core_policy::CorePolicy;
    use crate::decomposed::DecomposedPolicy;
    use crate::repair::RepairPolicy;
    match mode {
        Mode::Sequential => Box::new(FarmPolicy::sequential()),
        Mode::Independent => Box::new(FarmPolicy::independent()),
        Mode::Cooperative => Box::new(FarmPolicy::cooperative()),
        Mode::CooperativeAdaptive => Box::new(FarmPolicy::cooperative_adaptive()),
        Mode::Asynchronous => Box::new(FarmPolicy::asynchronous()),
        Mode::Decomposed => Box::new(DecomposedPolicy::new()),
        Mode::Core => Box::new(CorePolicy::new()),
        Mode::Repair => Box::new(RepairPolicy::new()),
    }
}

/// Per-worker supervision bookkeeping of one run: liveness, quarantine
/// records, incarnation epochs, restart-budget consumption, each worker's
/// latest long-term History and the successful resurrections.
struct Workers {
    alive: Vec<bool>,
    losses: Vec<WorkerLoss>,
    epochs: Vec<u64>,
    restarts_used: Vec<usize>,
    histories: Vec<SeedMsg>,
    resurrections: Vec<Resurrection>,
}

impl Workers {
    fn fresh(active: usize) -> Self {
        Workers {
            alive: vec![true; active],
            losses: Vec::new(),
            epochs: vec![0; active],
            restarts_used: vec![0; active],
            histories: vec![SeedMsg::default(); active],
            resurrections: Vec::new(),
        }
    }

    fn from_snapshot(snap: &Snapshot) -> Self {
        Workers {
            alive: snap.alive.clone(),
            losses: snap.losses.clone(),
            epochs: snap.epochs.clone(),
            restarts_used: snap.restarts_used.iter().map(|&r| r as usize).collect(),
            histories: snap.histories.clone(),
            resurrections: snap.resurrections.clone(),
        }
    }

    /// Quarantine worker `k` (idempotent). Fails with
    /// [`EngineError::AllWorkersLost`] once no worker is left alive.
    fn mark_lost(
        &mut self,
        k: usize,
        round: usize,
        cause: LossCause,
        tel: &Telemetry,
    ) -> Result<(), EngineError> {
        if self.alive[k] {
            self.alive[k] = false;
            self.losses.push(WorkerLoss {
                worker: k,
                round,
                cause,
            });
            tel.event(0, EventKind::Quarantine, round, k as i64);
        }
        if self.alive.contains(&true) {
            Ok(())
        } else {
            Err(EngineError::AllWorkersLost {
                losses: self.losses.clone(),
            })
        }
    }

    /// Bank the History a report carries as the worker's latest memory.
    fn bank_history(&mut self, k: usize, report: &ReportMsg) {
        self.histories[k] = SeedMsg {
            history_counts: report.history_counts.clone(),
            history_iterations: report.history_iterations,
        };
    }

    /// Record that worker `k` rejoined: the incarnation started by
    /// restart `attempt` ([`Master::begin_rebirth`]) reported its redo of
    /// `round`.
    fn confirm_rebirth(&mut self, k: usize, round: usize, attempt: usize, tel: &Telemetry) {
        self.resurrections.push(Resurrection {
            worker: k,
            round,
            attempt,
        });
        tel.event(0, EventKind::Resurrection, round, k as i64);
    }
}

/// The exponential-backoff delay before restart attempt
/// `attempts_so_far + 1`: `restart_backoff × 2^attempts_so_far`,
/// saturating.
fn backoff_delay(cfg: &RunConfig, attempts_so_far: usize) -> Duration {
    cfg.restart_backoff
        .saturating_mul(1u32 << attempts_so_far.min(16))
}

/// The master's one receive path: block until the next report from a
/// `wanted` worker arrives, or `deadline` passes (`None`: wait forever).
/// Reports from unwanted workers (quarantined, or owing no report) and
/// from superseded incarnations (stale epoch) are dropped and counted;
/// anything else that is not a decodable report from a worker task is a
/// protocol violation. `Ok(None)` means the deadline passed or every
/// sender is gone.
fn next_report<C: Transport>(
    ctx: &C,
    deadline: Option<Instant>,
    epochs: &[u64],
    wanted: impl Fn(usize) -> bool,
    tel: &Telemetry,
) -> Result<Option<(usize, ReportMsg)>, EngineError> {
    loop {
        let remaining = match deadline {
            None => Duration::MAX,
            Some(deadline) => {
                let now = Instant::now();
                if now >= deadline {
                    return Ok(None);
                }
                deadline - now
            }
        };
        // A timeout, or every sender gone: nothing more will arrive.
        let Ok(env) = ctx.recv_timeout(remaining) else {
            return Ok(None);
        };
        let Some(k) = env.from.checked_sub(1).filter(|&k| k < epochs.len()) else {
            return Err(EngineError::ProtocolViolation {
                detail: format!("report from out-of-range task {}", env.from),
            });
        };
        if !wanted(k) {
            tel.add(0, Counter::StaleIgnored, 1);
            continue; // stale: quarantined or owing nothing
        }
        if env.tag != tags::REPORT {
            return Err(EngineError::ProtocolViolation {
                detail: format!(
                    "unexpected tag {} from task {} (expected {})",
                    env.tag,
                    env.from,
                    tags::REPORT
                ),
            });
        }
        let report: ReportMsg = env.decode().map_err(|e| EngineError::ProtocolViolation {
            detail: format!("undecodable report from task {}: {e:?}", env.from),
        })?;
        if report.epoch != epochs[k] {
            tel.add(0, Counter::EpochsDropped, 1);
            continue; // a superseded incarnation's report
        }
        tel.add(0, Counter::ReportsReceived, 1);
        return Ok(Some((k, report)));
    }
}

/// How a [`Master::begin_rebirth`] attempt ended.
enum Rebirth {
    /// The transport cannot produce a new incarnation (supervision
    /// retired).
    Refused,
    /// The fresh incarnation died before the redo reached it; the attempt
    /// is spent.
    Lost,
    /// The redo is on its way; its report confirms restart `attempt`.
    Sent { attempt: usize },
}

/// One slice of the Fig. 2 master after the problem broadcast: the
/// master's state and its view of the `(round, worker)` grid. Reports
/// are buffered under their logical slot as they arrive and processed in
/// slot order; the release rule ([`Delivery`]) only decides when a
/// worker's next assignment leaves.
struct Master<'a, C: Transport> {
    ctx: &'a C,
    inst: &'a Instance,
    cfg: &'a RunConfig,
    tel: &'a Telemetry,
    policy: &'a mut dyn CoopPolicy,
    problem: ProblemMsg,
    rng: Xoshiro256,
    state: MasterState,
    workers: Workers,
    /// Reports received but not yet processed, by `(round, worker)`.
    buffer: BTreeMap<(usize, usize), ReportMsg>,
    /// `arrived[k]`: the round of worker k's next report. Per-worker
    /// channels are FIFO, so reports arrive in round order.
    arrived: Vec<usize>,
    /// `released[k]`: the rounds released to worker k so far; k owes a
    /// report while `released[k] > arrived[k]`.
    released: Vec<usize>,
    /// Each worker's latest assignment, which a rebirth redoes.
    sent: Vec<Option<AssignMsg>>,
    /// A rebirth in flight: the round it redoes and its attempt,
    /// confirmed when the redo's report arrives.
    rebirth: Vec<Option<(usize, usize)>>,
}

impl<C: Transport> Master<'_, C> {
    /// Whether worker `k` is alive and owes the master a report.
    fn owes(&self, k: usize) -> bool {
        self.workers.alive[k] && self.released[k] > self.arrived[k]
    }

    /// Stamp `assign` with worker `k`'s incarnation epoch and send it,
    /// counting it if it left: the one ASSIGN path of a release and of a
    /// rebirth's redo. Returns whether the send succeeded.
    fn send_assignment(&self, k: usize, assign: &mut AssignMsg) -> bool {
        assign.epoch = self.workers.epochs[k];
        let sent = self.ctx.send(k + 1, tags::ASSIGN, assign).is_ok();
        if sent {
            self.tel.add(0, Counter::AssignMsgsSent, 1);
        }
        sent
    }

    /// Release `round` to the live workers among `ks`, in worker order,
    /// under one Assign span. A worker whose ASSIGN cannot be sent heals
    /// at once.
    fn release(&mut self, round: usize, ks: Range<usize>) -> Result<(), EngineError> {
        let _assign_span = self.tel.span(0, SpanKind::Assign);
        for k in ks {
            if !self.workers.alive[k] {
                continue;
            }
            let mut assign = self
                .policy
                .assign(k, round, self.inst, self.cfg, &mut self.rng);
            let delivered = self.send_assignment(k, &mut assign);
            self.released[k] = round + 1;
            self.sent[k] = Some(assign);
            if !delivered {
                self.heal(k, round, LossCause::Unreachable)?;
            }
        }
        Ok(())
    }

    /// Wait until `deadline` for the next report a worker owes, bank its
    /// History and buffer it under its slot; a redo's report confirms its
    /// rebirth. Returns false when the deadline passed first.
    fn receive(&mut self, deadline: Option<Instant>) -> Result<bool, EngineError> {
        let owes = |k| self.owes(k);
        let received = next_report(self.ctx, deadline, &self.workers.epochs, owes, self.tel)?;
        let Some((k, report)) = received else {
            return Ok(false);
        };
        if let Some((round, attempt)) = self.rebirth[k].take() {
            self.workers.confirm_rebirth(k, round, attempt, self.tel);
        }
        self.workers.bank_history(k, &report);
        self.buffer.insert((self.arrived[k], k), report);
        self.arrived[k] += 1;
        Ok(true)
    }

    /// A deadline passed: every worker still owing a report is out of
    /// time and heals. Each expiry thus spends a restart credit or
    /// quarantines a worker, both finite, so the master loop terminates.
    fn heal_overdue(&mut self) -> Result<(), EngineError> {
        for k in 0..self.sent.len() {
            if self.owes(k) {
                self.heal(k, self.arrived[k], LossCause::Deadline)?;
            }
        }
        Ok(())
    }

    /// The one healing path: worker `k` cannot deliver its report for
    /// `round` (`cause`). While its restart budget lasts it is reborn to
    /// redo its latest assignment; a redo that cannot be sent burns its
    /// attempt, and the next starts at once. Past the budget, or when the
    /// transport cannot respawn it, `k` is quarantined.
    fn heal(&mut self, k: usize, round: usize, cause: LossCause) -> Result<(), EngineError> {
        while self.workers.restarts_used[k] < self.cfg.max_restarts {
            match self.begin_rebirth(k) {
                Rebirth::Sent { attempt } => {
                    self.rebirth[k] = Some((round, attempt));
                    return Ok(());
                }
                Rebirth::Lost => {} // back off longer and try again
                Rebirth::Refused => break,
            }
        }
        self.workers.mark_lost(k, round, cause, self.tel)
    }

    /// Start the next restart attempt for worker `k` (DESIGN.md §10: lost
    /// → backoff → respawn → reseed): back off, spend a restart credit,
    /// bump the epoch, respawn the task, re-send the problem, transplant
    /// its History, and redo its latest assignment under the new epoch
    /// from an elite-seeded start.
    fn begin_rebirth(&mut self, k: usize) -> Rebirth {
        let (ctx, tel, workers) = (self.ctx, self.tel, &mut self.workers);
        std::thread::sleep(backoff_delay(self.cfg, workers.restarts_used[k]));
        workers.restarts_used[k] += 1;
        tel.add(0, Counter::Restarts, 1);
        let attempt = workers.restarts_used[k];
        workers.epochs[k] += 1;
        if !ctx.respawn(k + 1) {
            return Rebirth::Refused;
        }
        // A send failure means the fresh incarnation died before its mailbox
        // drained.
        if ctx.send(k + 1, tags::PROBLEM, &self.problem).is_err() {
            return Rebirth::Lost;
        }
        tel.add(0, Counter::ProblemMsgsSent, 1);
        if ctx.send(k + 1, tags::SEED, &workers.histories[k]).is_err() {
            return Rebirth::Lost;
        }
        tel.add(0, Counter::SeedMsgsSent, 1);
        let mut redo = self.sent[k].clone().expect("a reborn worker was assigned");
        let elite = self.state.elite.solutions();
        if !elite.is_empty() && redo.cell.is_none() {
            // Reseed from the master's B-best elite instead of the dead
            // incarnation's private trajectory; rotate through the bank so
            // repeated attempts explore different restarts.
            redo.initial = elite[(attempt - 1) % elite.len()].bits().clone();
        }
        if !self.send_assignment(k, &mut redo) {
            return Rebirth::Lost;
        }
        Rebirth::Sent { attempt }
    }

    /// Fold worker `k`'s report for `round`: counters, global best,
    /// elite, then the policy's update. A report whose claimed value
    /// doesn't survive re-evaluation is a protocol violation, not a
    /// panic.
    fn process(&mut self, k: usize, round: usize, report: &ReportMsg) -> Result<(), EngineError> {
        let (inst, cfg, tel) = (self.inst, self.cfg, self.tel);
        let (state, rng) = (&mut self.state, &mut self.rng);
        state.total_moves += report.moves;
        state.total_evals += report.evals;
        let slave_best = report.checked_best_solution(inst).map_err(|detail| {
            EngineError::ProtocolViolation {
                detail: format!("task {}: {detail}", k + 1),
            }
        })?;
        if state
            .global_best
            .as_ref()
            .is_none_or(|g| slave_best.value() > g.value())
        {
            state.global_best = Some(slave_best.clone());
            tel.add(0, Counter::IncumbentUpdates, 1);
            tel.event(0, EventKind::NewIncumbent, round, slave_best.value());
        }
        state.elite.offer(&slave_best);
        // Just folded: the global best is at least this report's best.
        let global_best = state.global_best.as_ref().unwrap_or(&slave_best);
        let regen = self
            .policy
            .absorb(k, round, report, &slave_best, global_best, inst, cfg, rng);
        state.regenerations += regen;
        if regen > 0 {
            tel.add(0, Counter::Retunes, regen);
            tel.event(0, EventKind::Retune, round, k as i64);
        }
        Ok(())
    }

    /// Serialize the master's complete state as of the top of
    /// `next_round`.
    fn snapshot(&self, next_round: usize) -> Result<Snapshot, EngineError> {
        let (policy, state, workers) = (&self.policy, &self.state, &self.workers);
        let blob = policy.snapshot().ok_or_else(|| EngineError::Unsupported {
            detail: format!("{:?} does not support checkpointing", policy.mode()),
        })?;
        let global_best = state
            .global_best
            .as_ref()
            .ok_or_else(|| EngineError::Internal {
                detail: "checkpoint requested before any processed report".into(),
            })?;
        let elite = state.elite.solutions().iter().map(|s| s.bits().clone());
        Ok(Snapshot {
            mode: policy.mode(),
            fingerprint: instance_fingerprint(self.inst),
            cfg_digest: config_digest(self.cfg),
            next_round,
            rng: self.rng.state(),
            global_best: global_best.bits().clone(),
            round_best: state.round_best.clone(),
            total_moves: state.total_moves,
            total_evals: state.total_evals,
            regenerations: state.regenerations,
            elite: elite.collect(),
            alive: workers.alive.clone(),
            losses: workers.losses.clone(),
            resurrections: workers.resurrections.clone(),
            restarts_used: workers.restarts_used.iter().map(|&r| r as u64).collect(),
            epochs: workers.epochs.clone(),
            histories: workers.histories.clone(),
            policy: blob,
        })
    }
}

/// The generic Fig. 2 master: broadcast, assign, collect, update — now
/// self-healing. Both release rules run the one loop below: it processes
/// the `(round, worker)` buffer in order, waits under a deadline when the
/// rule's next report is missing, and releases assignments as the rule
/// says. A worker that becomes unreachable, misses its report deadline or
/// (as the pool later reveals) panicked is *resurrected* while its restart
/// budget lasts ([`Master::heal`]); past the budget it is *quarantined*:
/// dropped from assignment and collection, its loss recorded, the loop
/// continuing with the survivors. Only losing the last worker aborts the
/// run.
///
/// The caller has [`admit`]ted the slice, so `policy` already holds
/// `resume`'s restored state, and it owns the farm: it calls
/// [`stop_farm`] however this returns, unless it keeps the slaves for a
/// later slice. With `park_after` set, the slice parks (snapshots and
/// returns) after that many newly executed rounds unless the run finished
/// first.
pub(crate) fn master_loop<C: Transport>(
    ctx: &C,
    inst: &Instance,
    policy: &mut dyn CoopPolicy,
    cfg: &RunConfig,
    resume: Option<Snapshot>,
    park_after: Option<usize>,
    tel: &Telemetry,
) -> Result<SliceOutcome, EngineError> {
    let start = Instant::now();
    let active = policy.active_workers(cfg);
    let rounds = policy.rounds(cfg);
    assert!(active < ctx.ntasks(), "pool too small for {active} workers");

    // "Read and send to slaves problem data" (Fig. 2) — a pvm_mcast. Idle
    // pool workers beyond `active` also receive it; they simply never get
    // an assignment and fold on the owner's final STOP. Every slave starts
    // the run with a fresh mailbox, so a failure here is a pool bug, not
    // a recoverable worker loss.
    let problem = ProblemMsg::from_instance(inst);
    ctx.broadcast(tags::PROBLEM, &problem)
        .map_err(|e| EngineError::Internal {
            detail: format!("problem broadcast failed: {e}"),
        })?;
    tel.add(0, Counter::ProblemMsgsSent, (ctx.ntasks() - 1) as u64);

    let (rng, state, workers, start_round) = match &resume {
        None => {
            let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
            let initials = policy.prepare(inst, cfg, &mut rng);
            let mut state = MasterState {
                global_best: initials.iter().max_by_key(|s| s.value()).cloned(),
                round_best: Vec::with_capacity(rounds),
                total_moves: 0,
                total_evals: 0,
                regenerations: 0,
                elite: ElitePool::new(ELITE_CAP),
            };
            for sol in &initials {
                state.elite.offer(sol);
            }
            (rng, state, Workers::fresh(active), 0)
        }
        Some(snap) => {
            let mut state = MasterState {
                global_best: Some(Solution::from_bits(inst, snap.global_best.clone())),
                round_best: snap.round_best.clone(),
                total_moves: snap.total_moves,
                total_evals: snap.total_evals,
                regenerations: snap.regenerations,
                elite: ElitePool::new(ELITE_CAP),
            };
            // Stored best first, so offering in order rebuilds the bank.
            for bits in &snap.elite {
                state.elite.offer(&Solution::from_bits(inst, bits.clone()));
            }
            let workers = Workers::from_snapshot(snap);
            // Transplant each surviving worker's long-term History into
            // its fresh incarnation; a failed send surfaces as a loss at
            // the next assignment.
            for k in 0..active {
                if workers.alive[k]
                    && workers.histories[k].history_counts.len() == inst.n()
                    && ctx.send(k + 1, tags::SEED, &workers.histories[k]).is_ok()
                {
                    tel.add(0, Counter::SeedMsgsSent, 1);
                }
            }
            (
                Xoshiro256::from_state(snap.rng),
                state,
                workers,
                snap.next_round,
            )
        }
    };
    drop(resume);

    let pipelined = policy.delivery() == Delivery::Pipelined;
    let mut m = Master {
        ctx,
        inst,
        cfg,
        tel,
        policy,
        problem,
        rng,
        state,
        workers,
        buffer: BTreeMap::new(),
        arrived: vec![start_round; active],
        released: vec![start_round; active],
        sent: vec![None; active],
        rebirth: vec![None; active],
    };
    // Built at the slice's first relink and kept for the slice: the
    // ratios are a function of the instance alone.
    let mut relink_ratios: Option<Ratios> = None;
    // One Round span per synchronous round. The pipeline has no round
    // boundary, so one Round span covers the whole run.
    let mut round_span = Some(tel.span(0, SpanKind::Round));
    if pipelined {
        for k in 0..active {
            m.release(0, k..k + 1)?;
        }
    } else {
        m.release(start_round, 0..active)?;
    }
    // The open deadline window and its Gather span: the pipeline opens
    // one per wait (the budget is per expected report, and stale
    // stragglers don't extend it), a synchronous round keeps one until
    // its last report is in.
    let mut window = None;
    let mut cursor = (start_round, 0);
    while cursor.0 < rounds {
        let (round, k) = cursor;
        // The release rule's processing gate: the pipeline processes the
        // cursor's report as soon as it is in, a synchronous round waits
        // for all of its reports. A quarantined worker's slot is skipped.
        let gate = if pipelined { k + 1 } else { active };
        let ready = (k..gate).all(|j| !m.workers.alive[j] || m.buffer.contains_key(&(round, j)));
        if !ready {
            let deadline = window
                .get_or_insert_with(|| {
                    let deadline = Instant::now().checked_add(cfg.report_timeout);
                    (deadline, tel.span(0, SpanKind::Gather))
                })
                .0;
            let received = m.receive(deadline)?;
            if pipelined || !received {
                window = None;
            }
            if !received {
                m.heal_overdue()?;
            }
            continue;
        }
        window = None;
        if k == 0 && !pipelined && m.policy.relink(cfg) {
            // Optional master-side exploitation: relink the two best
            // distinct slave solutions of the round (information neither
            // slave holds alone).
            let reports = m.buffer.range((round, 0)..(round + 1, 0));
            let reports = reports.map(|(&(_, j), report)| (j, report));
            m.state.total_evals +=
                relink_round(inst, &mut relink_ratios, reports, &mut m.state.global_best)?;
        }
        if let Some(report) = m.buffer.remove(&cursor) {
            m.process(k, round, &report)?;
            if pipelined && round + 1 < rounds && m.workers.alive[k] {
                m.release(round + 1, k..k + 1)?;
            }
        }
        if k + 1 < active {
            cursor = (round, k + 1);
            continue;
        }
        m.state.close_round()?;
        cursor = (round + 1, 0);
        if pipelined {
            continue;
        }

        // Periodic checkpoint and quantum-boundary park share one
        // snapshot: the state as of the top of `round + 1`. The final
        // round is never snapshotted — the run is over. A parked slice is
        // thus the identical artifact a periodic checkpoint writes, so a
        // resumed job continues bit-identically to one that never parked.
        let checkpoint = cfg
            .checkpoint
            .as_ref()
            .filter(|cp| (round + 1) % cp.every == 0);
        let park = park_after.is_some_and(|park| round + 1 - start_round >= park);
        if round + 1 < rounds && (checkpoint.is_some() || park) {
            let _snap_span = tel.span(0, SpanKind::SnapshotWrite);
            let snap = m.snapshot(round + 1)?;
            if let Some(cp) = checkpoint {
                let nbytes = snap.to_file_bytes().len() as u64;
                snap.save(&cp.path).map_err(|e| EngineError::Internal {
                    detail: format!("checkpoint write failed: {e}"),
                })?;
                tel.add(0, Counter::CheckpointsWritten, 1);
                tel.add(0, Counter::CheckpointBytes, nbytes);
                tel.event(0, EventKind::Checkpoint, round + 1, nbytes as i64);
            }
            if park {
                return Ok(SliceOutcome::Parked(Box::new(snap)));
            }
        }
        round_span = None;
        if round + 1 < rounds {
            round_span = Some(tel.span(0, SpanKind::Round));
            m.release(round + 1, 0..active)?;
        }
    }
    drop(round_span);

    let best = m.state.global_best.ok_or_else(|| EngineError::Internal {
        detail: "run finished without any processed report".into(),
    })?;
    debug_assert!(best.is_feasible(inst));
    Ok(SliceOutcome::Finished(Box::new(ModeReport {
        mode: m.policy.mode(),
        best,
        round_best: m.state.round_best,
        total_moves: m.state.total_moves,
        total_evals: m.state.total_evals,
        regenerations: m.state.regenerations,
        wall: start.elapsed(),
        lost_workers: m.workers.losses,
        resurrections: m.workers.resurrections,
        // Filled by the engine after the farm joins; the master loop only
        // sees its own (still-live) side of the registry.
        telemetry: TelemetrySnapshot::default(),
    })))
}

/// The master's running aggregation over reports.
struct MasterState {
    global_best: Option<Solution>,
    round_best: Vec<i64>,
    total_moves: u64,
    total_evals: u64,
    regenerations: u64,
    /// The B best distinct solutions seen so far, best first (Fig. 2's
    /// "B best solutions" bank): the reseeding source for resurrected
    /// workers and part of every checkpoint. A solution goes after the
    /// banked ones of equal value, so the bank is deterministic.
    elite: ElitePool,
}

impl MasterState {
    /// Close a processed round: append the global best's value to the
    /// per-round curve.
    fn close_round(&mut self) -> Result<(), EngineError> {
        let best = self
            .global_best
            .as_ref()
            .ok_or_else(|| EngineError::Internal {
                detail: "no global best after a processed round".into(),
            })?;
        self.round_best.push(best.value());
        Ok(())
    }
}

/// Relink the two best distinct solutions of a round's `(worker, report)`
/// pairs; returns the candidate evaluations spent. `ratios` caches the
/// instance's ratios across the rounds of a slice; the first relink
/// builds them.
fn relink_round<'r>(
    inst: &Instance,
    ratios: &mut Option<Ratios>,
    reports: impl Iterator<Item = (usize, &'r ReportMsg)>,
    global_best: &mut Option<Solution>,
) -> Result<u64, EngineError> {
    let mut tops = Vec::new();
    for (k, report) in reports {
        let sol = report.checked_best_solution(inst).map_err(|detail| {
            EngineError::ProtocolViolation {
                detail: format!("task {}: {detail}", k + 1),
            }
        })?;
        tops.push(sol);
    }
    tops.sort_by_key(|s| std::cmp::Reverse(s.value()));
    if tops.len() < 2 || tops[0].bits() == tops[1].bits() {
        return Ok(0);
    }
    let ratios = ratios.get_or_insert_with(|| Ratios::new(inst));
    let mut stats = mkp_tabu::moves::MoveStats::default();
    let (relinked, _) = mkp_tabu::relink::path_relink(inst, ratios, &tops[0], &tops[1], &mut stats);
    if global_best
        .as_ref()
        .is_none_or(|g| relinked.value() > g.value())
    {
        *global_best = Some(relinked);
    }
    Ok(stats.candidate_evals)
}

/// Why a slave loop ended — the remote serve loop reconnects after a
/// [`Lost`](SlaveExit::Lost) master but exits cleanly after a STOP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SlaveExit {
    /// The master said STOP: the run is over.
    Stopped,
    /// The master went silent or the transport failed mid-run.
    Lost,
    /// The master sent a frame that breaks the protocol (named here):
    /// undecodable, out of order, of an unknown tag, or inconsistent
    /// with the problem. The slave ends rather than panic on it.
    Protocol(String),
}

/// A slave's current problem: the instance, its ratios and the
/// long-term frequency memory.
type SlaveJob = (Instance, Ratios, mkp_tabu::history::History);

/// The slave loop: serve the master's instructions until the stop message
/// (or a dead master) ends the task. A [`tags::PROBLEM`] sets the instance
/// and starts a fresh long-term memory — that is also how one persistent
/// slave serves consecutive jobs under the job server, which broadcasts
/// each job's problem at the top of every slice instead of STOPping
/// between jobs. A [`tags::SEED`] message transplants the long-term
/// History of a previous incarnation (rebirth) or a checkpointed run
/// (resume) into this one. A STOP before any problem ends the slave
/// cleanly; a SEED or ASSIGN before one is a protocol violation, which
/// ends the loop with [`SlaveExit::Protocol`] like every other frame the
/// slave cannot act on.
///
/// `patience` is how long the slave waits for each instruction before
/// concluding the master is gone — in-process callers pass
/// [`RunConfig::patience`], remote slaves their `--patience` flag; both
/// stretch well beyond the master's report deadline so a straggling peer
/// can't starve a healthy slave into giving up moments before its next
/// assignment arrives.
pub(crate) fn slave_loop<C: Transport>(ctx: &C, patience: Duration, tel: &Telemetry) -> SlaveExit {
    // The memory survives across rounds: each round's diversification
    // then targets regions this slave has never visited in the whole
    // session, which is what makes later rounds productive.
    let mut job: Option<SlaveJob> = None;
    loop {
        let env = match ctx.recv_timeout(patience) {
            Ok(env) => env,
            Err(_) => return SlaveExit::Lost, // master gone: shut down quietly
        };
        match obey(ctx, &env, &mut job, tel) {
            Ok(None) => {}
            Ok(Some(exit)) => return exit,
            Err(detail) => return SlaveExit::Protocol(detail),
        }
    }
}

/// Carry out one instruction of the master: `Ok(Some(exit))` when it
/// ends the loop, `Err` naming what is wrong with a frame the slave
/// cannot act on.
fn obey<C: Transport>(
    ctx: &C,
    env: &Envelope,
    job: &mut Option<SlaveJob>,
    tel: &Telemetry,
) -> Result<Option<SlaveExit>, String> {
    let tid = ctx.tid();
    match env.tag {
        tags::STOP => return Ok(Some(SlaveExit::Stopped)),
        tags::PROBLEM => {
            // A resumed job re-seeds the History right after, via
            // SEED, exactly as a checkpoint resume does.
            let inst = env
                .decode::<ProblemMsg>()
                .map_err(|e| format!("undecodable PROBLEM: {e}"))?
                .try_into_instance()
                .map_err(|e| format!("invalid instance in PROBLEM: {e}"))?;
            let ratios = Ratios::new(&inst);
            let history = mkp_tabu::history::History::new(inst.n());
            *job = Some((inst, ratios, history));
        }
        tags::SEED => {
            let (inst, _, history) = job.as_mut().ok_or("SEED before PROBLEM")?;
            let seed: SeedMsg = env.decode().map_err(|e| format!("undecodable SEED: {e}"))?;
            // An empty seed means the worker had no banked memory yet;
            // keep the fresh History in that case.
            if seed.history_counts.len() == inst.n() {
                *history = mkp_tabu::history::History::from_parts(
                    seed.history_counts,
                    seed.history_iterations,
                );
                tel.add(tid, Counter::HistoryResets, 1);
            }
        }
        tags::ASSIGN => {
            let (inst, ratios, history) = job.as_mut().ok_or("ASSIGN before PROBLEM")?;
            let assign: AssignMsg = env
                .decode()
                .map_err(|e| format!("undecodable ASSIGN: {e}"))?;
            if assign.initial.len() != inst.n() {
                return Err(format!(
                    "ASSIGN's start has {} bits for {} items",
                    assign.initial.len(),
                    inst.n()
                ));
            }
            let (mut msg, stats) = {
                let _ts_span = tel.span(tid, SpanKind::TsInner);
                serve_assignment(inst, ratios, history, &assign)
            };
            tel.add(tid, Counter::MovesExecuted, stats.moves);
            tel.add(tid, Counter::CandidateEvals, stats.candidate_evals);
            tel.add(tid, Counter::Drops, stats.drops);
            tel.add(tid, Counter::Adds, stats.adds);
            tel.add(tid, Counter::AspirationHits, stats.aspiration_hits);
            tel.add(tid, Counter::TabuRejections, stats.tabu_rejections);
            tel.record_max(
                tid,
                Counter::OscillationMaxDepth,
                stats.oscillation_max_depth,
            );
            msg.epoch = assign.epoch;
            msg.history_counts = history.counts().to_vec();
            msg.history_iterations = history.iterations();
            if ctx.send(0, tags::REPORT, &msg).is_err() {
                return Ok(Some(SlaveExit::Lost)); // master gone
            }
        }
        other => return Err(format!("unexpected tag {other}")),
    }
    Ok(None)
}

/// Run one assignment to completion and build the report (epoch and
/// History attachments are stamped by the caller). Returns the wire
/// message plus the full kernel [`MoveStats`] so the slave loop can fold
/// the fine-grained counters into its telemetry without widening the wire
/// format.
fn serve_assignment(
    inst: &Instance,
    ratios: &Ratios,
    history: &mut mkp_tabu::history::History,
    assign: &AssignMsg,
) -> (ReportMsg, MoveStats) {
    let mut rng = Xoshiro256::seed_from_u64(assign.seed);
    let budget = Budget::evals(assign.budget_evals);
    let report = match &assign.cell {
        // Decomposition cell (DTS): fix the split variables, search the
        // sub-space, lift the result back to the full space.
        Some(cell) => {
            let forced_in: Vec<usize> = cell.forced_in.iter().map(|&j| j as usize).collect();
            let forced_out: Vec<usize> = cell.forced_out.iter().map(|&j| j as usize).collect();
            match Restriction::new(inst, &forced_in, &forced_out) {
                Ok(restriction) => {
                    let sub = restriction.instance();
                    let sub_ratios = Ratios::new(sub);
                    let mut ts = TsConfig::default_for(sub.n());
                    let init = if cell.seeded {
                        // CORE: project the master-chosen start onto the free
                        // variables, repair it inside the reduced space, and
                        // honor the master's (SGP-tuned) strategy.
                        ts.strategy = assign.strategy;
                        let mut sol =
                            Solution::from_bits(sub, restriction.project(&assign.initial));
                        mkp::greedy::project_feasible(sub, &sub_ratios, &mut sol);
                        mkp::greedy::greedy_fill(sub, &sub_ratios, &mut sol);
                        sol
                    } else {
                        // DTS: the slave builds its own randomized start.
                        dynamic_randomized_greedy(sub, &mut rng, 4)
                    };
                    let mut report = search::run(sub, &sub_ratios, init, &ts, budget, &mut rng);
                    report.best = restriction.lift(inst, &report.best);
                    if cell.seeded {
                        // A seeded (CORE) master runs ISP/SGP: it needs the
                        // elite pool lifted back and the start in
                        // full-space terms (SGP compares it against
                        // full-space finals).
                        report.elite = report
                            .elite
                            .iter()
                            .map(|s| restriction.lift(inst, s))
                            .collect();
                        report.initial_value += restriction.offset();
                    } else {
                        // The DTS master has no SGP to feed, and sub-space
                        // elites don't lift for free.
                        report.elite.clear();
                    }
                    report
                }
                Err(_) => {
                    // Infeasible (or empty) cell: the worker searches the
                    // full space instead of idling. A seeded master picked
                    // a valid full-space start — keep it; DTS workers build
                    // their own.
                    let init = if cell.seeded {
                        let mut sol = Solution::from_bits(inst, assign.initial.clone());
                        mkp::greedy::project_feasible(inst, ratios, &mut sol);
                        mkp::greedy::greedy_fill(inst, ratios, &mut sol);
                        sol
                    } else {
                        dynamic_randomized_greedy(inst, &mut rng, 4)
                    };
                    let mut ts = TsConfig::default_for(inst.n());
                    ts.strategy = assign.strategy;
                    search::run(inst, ratios, init, &ts, budget, &mut rng)
                }
            }
        }
        // Trajectory assignment: continue from the master-chosen start with
        // the master-chosen strategy.
        None => {
            let initial = Solution::from_bits(inst, assign.initial.clone());
            let mut ts = TsConfig::default_for(inst.n());
            ts.strategy = assign.strategy;
            let mut memory =
                mkp_tabu::tabu_list::Recency::new(inst.n(), assign.strategy.tabu_tenure);
            search::run_with_memory(
                inst,
                ratios,
                initial,
                &ts,
                budget,
                &mut rng,
                &mut memory,
                history,
            )
        }
    };
    let msg = ReportMsg {
        best: report.best.bits().clone(),
        elite: report.elite.iter().map(|s| s.bits().clone()).collect(),
        initial_value: report.initial_value,
        best_value: report.best.value(),
        moves: report.stats.moves,
        evals: report.stats.candidate_evals,
        epoch: 0,
        history_counts: Vec::new(),
        history_iterations: 0,
    };
    (msg, report.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CheckpointCfg;
    use mkp::generate::{gk_instance, GkSpec};
    use pvm_lite::{CommError, Wire};

    fn inst() -> Instance {
        gk_instance(
            "eng",
            GkSpec {
                n: 40,
                m: 5,
                tightness: 0.5,
                seed: 7,
            },
        )
    }

    fn cfg() -> RunConfig {
        RunConfig {
            p: 3,
            rounds: 3,
            ..RunConfig::new(60_000, 11)
        }
    }

    #[test]
    fn one_engine_serves_all_modes() {
        let inst = inst();
        let mut engine = Engine::new(3);
        for mode in Mode::all() {
            let r = engine.run(&inst, mode, &cfg()).unwrap();
            assert!(r.best.is_feasible(&inst), "{mode:?} infeasible");
            assert_eq!(r.mode, mode);
            assert!(!r.is_degraded(), "{mode:?} lost workers on a healthy farm");
            assert!(
                r.resurrections.is_empty(),
                "{mode:?} resurrected on a healthy farm"
            );
        }
    }

    #[test]
    fn engine_runs_match_run_mode() {
        // The warm-pool path and the one-shot path are the same search.
        let inst = inst();
        let cfg = cfg();
        let mut engine = Engine::new(3);
        for mode in [
            Mode::Cooperative,
            Mode::CooperativeAdaptive,
            Mode::Asynchronous,
        ] {
            let warm = engine.run(&inst, mode, &cfg).unwrap();
            let cold = crate::runner::run_mode(&inst, mode, &cfg);
            assert_eq!(warm.best.value(), cold.best.value(), "{mode:?} diverged");
            assert_eq!(warm.round_best, cold.round_best);
        }
    }

    #[test]
    fn pool_grows_only_when_needed() {
        let inst = inst();
        let mut engine = Engine::new(2);
        assert_eq!(engine.pool_size(), 3);
        let spawned = engine.spawned_threads();

        // Smaller run: pool untouched.
        let mut small = cfg();
        small.p = 1;
        engine.run(&inst, Mode::Cooperative, &small).unwrap();
        assert_eq!(engine.spawned_threads(), spawned);
        assert_eq!(engine.pool_size(), 3);

        // Bigger run: pool rebuilt once, then stable.
        let mut big = cfg();
        big.p = 4;
        engine.run(&inst, Mode::Cooperative, &big).unwrap();
        assert_eq!(engine.pool_size(), 5);
        assert!(engine.spawned_threads() > spawned);
        let grown = engine.spawned_threads();
        engine.run(&inst, Mode::Cooperative, &big).unwrap();
        assert_eq!(engine.spawned_threads(), grown);
    }

    #[test]
    fn pipelined_delivery_is_deterministic() {
        let inst = inst();
        let cfg = cfg();
        let mut engine = Engine::new(3);
        let a = engine.run(&inst, Mode::Asynchronous, &cfg).unwrap();
        let b = engine.run(&inst, Mode::Asynchronous, &cfg).unwrap();
        assert_eq!(a.best.value(), b.best.value());
        assert_eq!(a.round_best, b.round_best);
        assert_eq!(a.round_best.len(), cfg.rounds);
    }

    #[test]
    fn assignment_seeds_are_decorrelated() {
        let cfg = cfg();
        let mut seen = std::collections::HashSet::new();
        for round in 0..8 {
            for k in 0..8 {
                assert!(seen.insert(assignment_seed(&cfg, round, k)));
            }
        }
    }

    #[test]
    fn checkpointing_a_pipelined_mode_is_rejected_up_front() {
        let inst = inst();
        let mut engine = Engine::new(3);
        let mut cfg = cfg();
        cfg.checkpoint = Some(CheckpointCfg {
            path: std::env::temp_dir().join("ats-reject.snap"),
            every: 1,
        });
        let err = engine.run(&inst, Mode::Asynchronous, &cfg).unwrap_err();
        assert!(
            matches!(err, EngineError::Unsupported { .. }),
            "expected Unsupported, got {err:?}"
        );
    }

    #[test]
    fn relinking_a_pipelined_mode_is_rejected_up_front() {
        // ATS has no complete round to relink, so the flag is refused
        // before the farm hears anything instead of being ignored.
        let inst = inst();
        let mut engine = Engine::new(3);
        let mut cfg = cfg();
        cfg.relink = true;
        match engine.run(&inst, Mode::Asynchronous, &cfg) {
            Err(EngineError::Unsupported { detail }) => {
                assert!(detail.contains("relink"), "{detail}")
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        assert!(engine.pool.last_comm_stats().is_empty(), "the farm ran");
        assert!(engine.run(&inst, Mode::CooperativeAdaptive, &cfg).is_ok());
    }

    #[test]
    fn invalid_config_is_rejected_up_front() {
        let inst = inst();
        let mut engine = Engine::new(3);
        let mut cfg = cfg();
        cfg.report_timeout = Duration::from_secs(10);
        cfg.slave_patience = Some(Duration::from_secs(1));
        let err = engine.run(&inst, Mode::Cooperative, &cfg).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported { .. }));
    }

    #[test]
    fn rejected_slices_do_not_strand_the_farm() {
        // Admission runs before the problem broadcast, so a rejected slice
        // returns at once instead of after every slave's patience (9 s
        // here).
        let inst = inst();
        let mut cfg = cfg();
        cfg.report_timeout = Duration::from_secs(2);
        let mut engine = Engine::new(3);
        let slice = engine.run_slice(&inst, Mode::CooperativeAdaptive, &cfg, None, Some(1));
        let Ok(SliceOutcome::Parked(mut torn)) = slice else {
            panic!("a three-round slice parks after one round: {slice:?}");
        };
        torn.policy.truncate(3);
        let cases = [
            (Mode::Asynchronous, None, Some(1)),
            (Mode::CooperativeAdaptive, None, Some(0)),
            (Mode::CooperativeAdaptive, Some(*torn), None),
        ];
        for (mode, resume, park_after) in cases {
            let start = Instant::now();
            let err = engine
                .run_slice(&inst, mode, &cfg, resume, park_after)
                .unwrap_err();
            let took = start.elapsed();
            assert!(
                matches!(err, EngineError::Unsupported { .. }),
                "{mode:?}: {err}"
            );
            assert!(took < cfg.report_timeout, "{mode:?} took {took:?}: {err}");
        }
    }

    #[test]
    fn a_master_panic_stops_the_farm_at_once() {
        // Killed on its first report, the master STOPs the slaves as it
        // unwinds, so the pool joins without waiting out their patience
        // (5 s here), and the same engine serves the next run unharmed.
        let inst = inst();
        let mut cfg = cfg();
        cfg.report_timeout = Duration::from_secs(1);
        let mut engine = Engine::new(3);
        engine.inject_fault(FaultPlan::kill(0, 1));
        let start = Instant::now();
        let err = engine
            .run(&inst, Mode::CooperativeAdaptive, &cfg)
            .unwrap_err();
        let took = start.elapsed();
        assert!(matches!(err, EngineError::MasterPanicked { .. }), "{err}");
        assert!(
            took < Duration::from_secs(2),
            "the farm joined after {took:?}"
        );
        let clean = engine.run(&inst, Mode::CooperativeAdaptive, &cfg).unwrap();
        let fresh = Engine::new(3)
            .run(&inst, Mode::CooperativeAdaptive, &cfg)
            .unwrap();
        assert_eq!(clean.best.bits(), fresh.best.bits());
        assert_eq!(clean.round_best, fresh.round_best);
    }

    /// `run_slice` on a fresh engine must refuse the slice before any
    /// message leaves the master, and well within the slaves' patience.
    fn assert_refused_up_front(
        what: &str,
        inst: &Instance,
        cfg: &RunConfig,
        resume: Option<Snapshot>,
        needle: &str,
    ) {
        let mut engine = Engine::new(3);
        let start = Instant::now();
        let slice = engine.run_slice(inst, Mode::CooperativeAdaptive, cfg, resume, None);
        let took = start.elapsed();
        match slice {
            Err(EngineError::Unsupported { detail }) => {
                assert!(detail.contains(needle), "{what}: {detail}")
            }
            other => panic!("{what}: expected Unsupported, got {other:?}"),
        }
        assert!(took < Duration::from_secs(1), "{what} took {took:?}");
        assert!(
            engine.pool.last_comm_stats().is_empty(),
            "{what}: the farm ran"
        );
    }

    #[test]
    fn an_isp_config_the_master_would_panic_on_is_refused_up_front() {
        let inst = inst();
        let mut cfg = cfg();
        cfg.report_timeout = Duration::from_secs(1);
        for alpha in [1.5, -0.1, f64::NAN] {
            let mut bad = cfg.clone();
            bad.isp.alpha = alpha;
            assert_refused_up_front(&format!("alpha {alpha}"), &inst, &bad, None, "alpha");
        }
        let mut bad = cfg.clone();
        bad.isp.rcl = 0;
        assert_refused_up_front("rcl 0", &inst, &bad, None, "rcl");
    }

    #[test]
    fn a_snapshot_whose_bits_do_not_fit_the_instance_is_refused_up_front() {
        let inst = inst();
        let mut cfg = cfg();
        cfg.report_timeout = Duration::from_secs(1);
        let slice = Engine::new(3).run_slice(&inst, Mode::CooperativeAdaptive, &cfg, None, Some(1));
        let Ok(SliceOutcome::Parked(snap)) = slice else {
            panic!("a three-round slice parks after one round: {slice:?}");
        };
        assert!(!snap.elite.is_empty());
        let cut =
            |bits: &mkp::BitVec| mkp::BitVec::from_bools((0..inst.n() - 1).map(|j| bits.get(j)));
        let mut short_best = (*snap).clone();
        short_best.global_best = cut(&snap.global_best);
        // The same bytes a re-saved checkpoint file would carry.
        let short_best = Snapshot::from_bytes(&short_best.to_bytes()).unwrap();
        assert_refused_up_front("global_best", &inst, &cfg, Some(short_best), "global_best");
        let mut short_elite = (*snap).clone();
        let last = short_elite.elite.len() - 1;
        short_elite.elite[last] = cut(&snap.elite[last]);
        assert_refused_up_front("elite", &inst, &cfg, Some(short_elite), "elite");
    }

    #[test]
    fn a_snapshot_that_names_a_worker_the_run_lacks_is_refused_up_front() {
        let inst = inst();
        let mut cfg = cfg();
        cfg.report_timeout = Duration::from_secs(1);
        let slice = Engine::new(3).run_slice(&inst, Mode::CooperativeAdaptive, &cfg, None, Some(1));
        let Ok(SliceOutcome::Parked(snap)) = slice else {
            panic!("a three-round slice parks after one round: {slice:?}");
        };
        let mut lost = (*snap).clone();
        lost.losses.push(WorkerLoss {
            worker: 99,
            round: 0,
            cause: LossCause::Deadline,
        });
        // The same bytes a re-saved checkpoint file would carry.
        let lost = Snapshot::from_bytes(&lost.to_bytes()).unwrap();
        assert_refused_up_front("loss", &inst, &cfg, Some(lost), "worker 99");
        let mut revived = (*snap).clone();
        revived.resurrections.push(Resurrection {
            worker: cfg.p,
            round: 0,
            attempt: 1,
        });
        let needle = format!("worker {}", cfg.p);
        assert_refused_up_front("resurrection", &inst, &cfg, Some(revived), &needle);
    }

    #[test]
    fn a_farm_stopped_before_any_problem_ends_cleanly() {
        // A job server that shuts down before its first job STOPs slaves
        // that never saw a problem.
        let tel = Telemetry::new(3);
        let (_, exits) = WorkerPool::new(3).run_collect(
            |ctx| stop_farm(&ctx),
            move |ctx| slave_loop(&ctx, Duration::from_secs(5), &tel),
        );
        for exit in exits {
            assert!(matches!(exit, TaskOutcome::Done(SlaveExit::Stopped)));
        }
    }

    #[test]
    fn a_slave_ends_on_a_malformed_frame_instead_of_panicking() {
        let inst = inst();
        let problem = ProblemMsg::from_instance(&inst).to_bytes();
        let negative = ProblemMsg {
            weights: vec![-1; inst.n() * inst.m()],
            ..ProblemMsg::from_instance(&inst)
        };
        let seed = SeedMsg {
            history_counts: vec![0; inst.n()],
            history_iterations: 0,
        }
        .to_bytes();
        let assign = |n| {
            let strategy = mkp_tabu::Strategy::default_for(inst.n());
            AssignMsg::trajectory(mkp::BitVec::zeros(n), strategy, 1_000, 1).to_bytes()
        };
        let cases = [
            ("undecodable PROBLEM", vec![(tags::PROBLEM, vec![1, 2, 3])]),
            (
                "invalid instance in PROBLEM",
                vec![(tags::PROBLEM, negative.to_bytes())],
            ),
            ("SEED before PROBLEM", vec![(tags::SEED, seed)]),
            (
                "ASSIGN before PROBLEM",
                vec![(tags::ASSIGN, assign(inst.n()))],
            ),
            (
                "undecodable SEED",
                vec![(tags::PROBLEM, problem.clone()), (tags::SEED, vec![9])],
            ),
            (
                "undecodable ASSIGN",
                vec![(tags::PROBLEM, problem.clone()), (tags::ASSIGN, vec![9])],
            ),
            (
                "start has 3 bits for 40 items",
                vec![(tags::PROBLEM, problem), (tags::ASSIGN, assign(3))],
            ),
            ("unexpected tag 99", vec![(99, Vec::new())]),
        ];
        let mut pool = WorkerPool::new(2);
        for (needle, frames) in cases {
            let tel = Telemetry::new(2);
            let (_, exits) = pool.run_collect(
                |ctx| {
                    for (tag, data) in frames {
                        Transport::send_bytes(&ctx, 1, tag, data).unwrap();
                    }
                },
                move |ctx| slave_loop(&ctx, Duration::from_secs(5), &tel),
            );
            match &exits[0] {
                TaskOutcome::Done(SlaveExit::Protocol(detail)) => {
                    assert!(detail.contains(needle), "{needle}: {detail}")
                }
                TaskOutcome::Done(exit) => panic!("{needle}: the slave ended with {exit:?}"),
                TaskOutcome::Panicked(message) => panic!("{needle}: the slave panicked: {message}"),
            }
        }
    }

    /// The master's endpoint with worker 1's mailbox closed to
    /// assignments: every ASSIGN to it fails from its `from`-th on, a
    /// rebirth's redo included. Respawns reach the pool.
    struct DeafWorker<'a> {
        ctx: &'a pvm_lite::TaskCtx,
        from: usize,
        assigns: std::cell::Cell<usize>,
    }

    impl Transport for DeafWorker<'_> {
        fn tid(&self) -> pvm_lite::TaskId {
            Transport::tid(self.ctx)
        }

        fn ntasks(&self) -> usize {
            Transport::ntasks(self.ctx)
        }

        fn send_bytes(&self, to: usize, tag: u32, data: Vec<u8>) -> Result<(), CommError> {
            if to == 2 && tag == tags::ASSIGN {
                let n = self.assigns.replace(self.assigns.get() + 1);
                if n >= self.from {
                    return Err(CommError::PeerGone { to });
                }
            }
            Transport::send_bytes(self.ctx, to, tag, data)
        }

        fn recv_timeout(&self, timeout: Duration) -> Result<pvm_lite::Envelope, CommError> {
            Transport::recv_timeout(self.ctx, timeout)
        }

        fn comm_stats(&self) -> CommStats {
            Transport::comm_stats(self.ctx)
        }

        fn respawn(&self, tid: pvm_lite::TaskId) -> bool {
            Transport::respawn(self.ctx, tid)
        }
    }

    #[test]
    fn an_unreachable_worker_is_quarantined_under_both_delivery_schemes() {
        // The synchronous launch, the pipelined bootstrap (n = 0) and the
        // pipelined release (n = 1) each lose worker 1 at its n-th
        // assignment, and the survivors finish every round. With a
        // restart budget, both rebirths' redos fail to send too, so worker
        // 1 spends its budget and is quarantined in the same round, with
        // no report deadline waited out.
        let inst = inst();
        for (mode, n, max_restarts) in [
            (Mode::CooperativeAdaptive, 1, 0),
            (Mode::Asynchronous, 0, 0),
            (Mode::Asynchronous, 1, 0),
            (Mode::CooperativeAdaptive, 1, 2),
            (Mode::Asynchronous, 0, 2),
            (Mode::Asynchronous, 1, 2),
        ] {
            let cfg = RunConfig {
                report_timeout: Duration::from_secs(20),
                max_restarts,
                ..cfg()
            };
            let start = Instant::now();
            let tel = Arc::new(Telemetry::new(cfg.p + 1));
            let mut policy = admit(&inst, mode, &cfg, None, None).unwrap();
            let mut pool = WorkerPool::new(cfg.p + 1);
            let (master, _) = pool.run_collect(
                |ctx| {
                    let deaf = DeafWorker {
                        ctx: &ctx,
                        from: n,
                        assigns: Default::default(),
                    };
                    let result = master_loop(&deaf, &inst, &mut *policy, &cfg, None, None, &tel);
                    stop_farm(&ctx);
                    result
                },
                slave_task(cfg.patience(), Arc::clone(&tel)),
            );
            let TaskOutcome::Done(Ok(SliceOutcome::Finished(report))) = master else {
                panic!("{mode:?} from {n}: the master did not finish");
            };
            let loss = WorkerLoss {
                worker: 1,
                round: n,
                cause: LossCause::Unreachable,
            };
            assert_eq!(report.lost_workers, vec![loss], "{mode:?} from {n}");
            assert_eq!(report.round_best.len(), cfg.rounds, "{mode:?} from {n}");
            assert_eq!(
                tel.counter(0, Counter::AssignMsgsSent),
                (cfg.p * cfg.rounds - (cfg.rounds - n)) as u64,
                "{mode:?} from {n}"
            );
            let case = format!("{mode:?} from {n} with {max_restarts} restarts");
            assert_eq!(
                tel.counter(0, Counter::Restarts),
                max_restarts as u64,
                "{case}"
            );
            let took = start.elapsed();
            assert!(took < cfg.report_timeout, "{case} took {took:?}");
        }
    }

    #[test]
    fn resume_rejects_foreign_snapshots() {
        let dir = std::env::temp_dir().join(format!("mkp-resume-neg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.snap");
        let inst = inst();
        let mut cfg = cfg();
        cfg.rounds = 4;
        cfg.checkpoint = Some(CheckpointCfg {
            path: path.clone(),
            every: 2,
        });
        let mut engine = Engine::new(3);
        engine.run(&inst, Mode::CooperativeAdaptive, &cfg).unwrap();
        let snap = Snapshot::load(&path).unwrap();
        assert_eq!(snap.next_round, 2);

        // Wrong instance.
        let other = gk_instance(
            "other",
            GkSpec {
                n: 40,
                m: 5,
                tightness: 0.5,
                seed: 8,
            },
        );
        let err = engine.resume(&other, snap.clone(), &cfg).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported { .. }), "{err}");

        // Wrong seed.
        let mut drifted = cfg.clone();
        drifted.seed += 1;
        let err = engine.resume(&inst, snap.clone(), &drifted).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported { .. }), "{err}");

        // Matching everything: resumes fine.
        let resumed = engine.resume(&inst, snap, &cfg).unwrap();
        assert_eq!(resumed.round_best.len(), cfg.rounds);
        std::fs::remove_dir_all(&dir).ok();
    }
}
