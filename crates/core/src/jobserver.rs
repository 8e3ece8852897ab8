//! Multi-tenant job server: many MKP jobs time-sliced over one farm
//! (DESIGN.md §14).
//!
//! [`serve`] runs a long-lived daemon that accepts *jobs* over the socket
//! layer's framed codec: a client dials in, sends one `SUBMIT` frame
//! (instance + mode + budget + optional wall-clock deadline) and then
//! just reads — `ACCEPTED`, a stream of `INCUMBENT` updates, and finally
//! `DONE` with the full report, or `REJECTED` with a reason. Admission
//! control bounds the total queue depth and the per-client in-flight
//! count, so one greedy tenant cannot starve the rest.
//!
//! Scheduling is round-robin in *round-granularity quanta*: a job runs
//! for [`ServeConfig::quantum`] master rounds, is **parked** — the
//! engine snapshots its complete master state at the round boundary
//! (PR 4's checkpoint artifact) — and the next job resumes from its own
//! snapshot. Because a parked snapshot is bit-identical to a periodic
//! checkpoint, a job sliced into N quanta produces *exactly* the report
//! an uninterrupted run would (asserted by `tests/jobserver.rs`). Every
//! multi-round mode parks, pipelined ATS included (it drains to the
//! round boundary first); SEQ, ITS and DTS fold into one round, which
//! no quantum ends early, so they run their whole budget in one turn.
//!
//! Every server parks through one store, the spool: a park saves the
//! snapshot to `<spool_dir>/job-<id>.snap` (the checkpoint file format,
//! checksummed and atomically renamed), a resume loads it back, and the
//! file is removed when the job ends. The crash-recovery read path thus
//! runs on every slice, not only after a crash. The default spool
//! directory is private to one server, and a server without a
//! `state_dir` removes what it spooled when it returns.
//!
//! The scheduler keeps its jobs in one table, the run queue itself: the
//! front job runs next and a parked job goes to the back. A client's
//! in-flight count, an idempotency token's job and an `ATTACH`'s target
//! are all read from that table and from a bounded ring of finished
//! jobs' terminal frames; nothing else restates them. One constructor
//! (`Job::from_submit`) runs every admission check, for a fresh
//! `SUBMIT` and for one replayed from the journal alike.
//!
//! Deadlines and budgets are enforced at quantum boundaries: the
//! scheduler tick before every turn terminates each job whose deadline
//! has passed with `REJECTED` rather than reschedule it; the evaluation
//! budget is the engine's own `total_evals` and runs out inside the
//! slice machinery.
//!
//! The farm behind the scheduler is one persistent pool for the whole
//! server lifetime: in-process worker threads ([`ServeBackend::InProc`])
//! or remote `mkp slave` processes on a [`SocketHub`]
//! ([`ServeBackend::Socket`]). On the socket backend the server owns the
//! farm: its slaves stay alive *between* slices and are released with a
//! single STOP broadcast at server shutdown, so `mkp slave` exits 0 after
//! serving any number of jobs. A slave that dies mid-slice is handled by
//! the engine's resurrection machinery as usual; a slave missing at the
//! *start* of a slice fails that job's slice, not the server.
//!
//! # Durability (DESIGN.md §15)
//!
//! With [`ServeConfig::state_dir`] set the server is crash-safe end to
//! end: every accepted job is recorded in a write-ahead journal
//! ([`crate::journal`]) at `<state_dir>/journal.mkpj`, the spool moves
//! to `<state_dir>/spool/` so it survives the server, and per-slice
//! incumbents and terminal outcomes are journaled as they happen (a
//! park's record is its spool file). A restarted server replays the
//! journal, re-adopts the spool, and resumes every in-flight job
//! *bit-identically* from its last parked snapshot, provided it passes
//! the same admission checks a fresh submission would; job ids stay
//! unique across restarts. Clients reattach by durable job id (the
//! `ATTACH` verb, [`attach_job`]) or transparently by idempotent resubmit token
//! ([`submit_job`] retries its own SUBMIT with the same token after a
//! link drop, and the server answers with the existing job instead of
//! admitting a duplicate). The journal is compacted — live jobs'
//! records rewritten, finished jobs dropped — every few terminals and
//! on drain. A drain request ([`ServeConfig::drain`], typically wired
//! to SIGTERM) stops admission, finishes the current slice, leaves
//! every job parked durably and releases the slaves with one STOP.

use crate::engine::{admit, master_loop, stop_farm, Engine, EngineError, SliceOutcome};
use crate::journal::{Journal, Record};
use crate::messages::{pack_bits, unpack_bits, ProblemMsg};
use crate::remote::connect_fleet;
use crate::runner::{Mode, ModeReport, RunConfig};
use crate::snapshot::Snapshot;
use crate::telemetry::Telemetry;
use mkp::{BitVec, Instance, Solution};
use pvm_lite::codec::{CodecError, PackBuffer, UnpackBuffer, Wire};
use pvm_lite::{Endpoint, FramedConn, FramedListener, SocketHub, Transport};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-protocol frame tags. Disjoint from the engine's slave-facing
/// [`tags`] — clients and slaves connect to different endpoints, but
/// distinct values keep a misdirected frame loudly unrecognizable.
pub(crate) mod jtags {
    /// Client → server: submit one job.
    pub const SUBMIT: u32 = 0x4A42_0001;
    /// Server → client: the job is queued; here is its id.
    pub const ACCEPTED: u32 = 0x4A42_0002;
    /// Server → client: best value after a slice of this job.
    pub const INCUMBENT: u32 = 0x4A42_0003;
    /// Server → client: the job finished; full report attached.
    pub const DONE: u32 = 0x4A42_0004;
    /// Server → client: the job was refused or terminated; reason attached.
    pub const REJECTED: u32 = 0x4A42_0005;
    /// Client → server: reattach to a previously submitted job by id.
    pub const ATTACH: u32 = 0x4A42_0006;
}

/// Journal record kinds (see [`crate::journal`]). Payloads reuse the
/// client-protocol wire encodings so a retained terminal record can be
/// replayed to a late `ATTACH` verbatim.
mod jkind {
    /// `[job_id: u64 LE][SubmitMsg bytes]` — a job was admitted.
    pub const SUBMIT: u8 = 1;
    /// `[job_id: u64 LE]` — the job parked. Only older builds write it:
    /// recovery takes a park from the spool file, so replay skips it.
    pub const PARKED: u8 = 2;
    /// `IncumbentMsg` bytes — the job's best value after a slice.
    pub const INCUMBENT: u8 = 3;
    /// `DoneMsg` bytes — the job finished with a report.
    pub const DONE: u8 = 4;
    /// `RejectedMsg` bytes — the job was terminated with a reason.
    pub const REJECTED: u8 = 5;
    /// `[job_id: u64 LE][token: u64 LE]` — the idempotency token of the
    /// terminal record before it. Compaction writes it, because it drops
    /// the finished job's SUBMIT, which carried the token. Older builds
    /// skip it.
    pub const TOKEN: u8 = 6;
}

/// How often the scheduler polls for client events when the run queue is
/// empty (and the bound on how stale a `max_jobs` shutdown check can be).
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Delay between a client's connect attempts in [`submit_job`].
const DIAL_DELAY: Duration = Duration::from_millis(100);

/// Terminal frames kept around (and preserved across compaction) so a
/// late `ATTACH` to a finished job still gets its DONE/REJECTED.
const RETAINED_CAP: usize = 64;

/// Compact the journal after this many terminals since the last
/// compaction — often enough that the file tracks the live set, rarely
/// enough that compaction cost stays negligible.
const COMPACT_EVERY: u64 = 8;

/// How many times [`submit_job`]/[`attach_job`] re-dial and reattach
/// after the link drops post-acceptance before giving up with
/// [`SubmitOutcome::ServerLost`]. Each cycle already waits up to
/// `patience` inside the dial loop.
const MAX_REATTACHES: u32 = 5;

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

/// The client's submission: problem + run shape. `deadline_ms == 0`
/// means no deadline; `token == 0` means no idempotency token (a resend
/// of a nonzero token reattaches to the already-admitted job instead of
/// admitting a duplicate).
pub(crate) struct SubmitMsg {
    pub(crate) problem: ProblemMsg,
    pub(crate) mode: u8,
    pub(crate) p: u64,
    pub(crate) rounds: u64,
    pub(crate) budget_evals: u64,
    pub(crate) seed: u64,
    pub(crate) deadline_ms: u64,
    pub(crate) token: u64,
}

impl Wire for SubmitMsg {
    fn pack(&self, buf: &mut PackBuffer) {
        self.problem.pack(buf);
        buf.put_u8(self.mode);
        buf.put_u64(self.p);
        buf.put_u64(self.rounds);
        buf.put_u64(self.budget_evals);
        buf.put_u64(self.seed);
        buf.put_u64(self.deadline_ms);
        buf.put_u64(self.token);
    }

    fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
        Ok(SubmitMsg {
            problem: ProblemMsg::unpack(buf)?,
            mode: buf.get_u8()?,
            p: buf.get_u64()?,
            rounds: buf.get_u64()?,
            budget_evals: buf.get_u64()?,
            seed: buf.get_u64()?,
            deadline_ms: buf.get_u64()?,
            token: buf.get_u64()?,
        })
    }
}

/// A bare job id: the payload of `ACCEPTED` (server → client: the job is
/// queued) and of `ATTACH` (client → server: reattach to this job, live
/// or recently finished, and stream its remaining events).
struct JobIdMsg {
    job_id: u64,
}

impl Wire for JobIdMsg {
    fn pack(&self, buf: &mut PackBuffer) {
        buf.put_u64(self.job_id);
    }

    fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
        Ok(JobIdMsg {
            job_id: buf.get_u64()?,
        })
    }
}

struct IncumbentMsg {
    job_id: u64,
    value: i64,
    round: u64,
}

impl Wire for IncumbentMsg {
    fn pack(&self, buf: &mut PackBuffer) {
        buf.put_u64(self.job_id);
        buf.put_i64(self.value);
        buf.put_u64(self.round);
    }

    fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
        Ok(IncumbentMsg {
            job_id: buf.get_u64()?,
            value: buf.get_i64()?,
            round: buf.get_u64()?,
        })
    }
}

struct DoneMsg {
    job_id: u64,
    report: JobReport,
}

impl Wire for DoneMsg {
    fn pack(&self, buf: &mut PackBuffer) {
        buf.put_u64(self.job_id);
        self.report.pack(buf);
    }

    fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
        Ok(DoneMsg {
            job_id: buf.get_u64()?,
            report: JobReport::unpack(buf)?,
        })
    }
}

struct RejectedMsg {
    /// 0 when the job was refused before acceptance.
    job_id: u64,
    reason: String,
}

impl Wire for RejectedMsg {
    fn pack(&self, buf: &mut PackBuffer) {
        buf.put_u64(self.job_id);
        buf.put_str(&self.reason);
    }

    fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
        Ok(RejectedMsg {
            job_id: buf.get_u64()?,
            reason: buf.get_str()?,
        })
    }
}

/// A finished job's result, as delivered over the wire — a
/// [`ModeReport`] minus the parts that don't serialize (telemetry, loss
/// records) plus the best assignment as raw bits.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// The mode that ran.
    pub mode: Mode,
    /// Best assignment found.
    pub best_bits: BitVec,
    /// Value of the best assignment.
    pub best_value: i64,
    /// Global best value after each master round.
    pub round_best: Vec<i64>,
    /// Moves executed across all threads.
    pub total_moves: u64,
    /// Candidate evaluations spent across all threads.
    pub total_evals: u64,
    /// Strategy regenerations the SGP performed.
    pub regenerations: u64,
    /// Server-side wall-clock total across this job's slices, in ms.
    pub wall_ms: u64,
    /// Whether any slice lost workers (the result is still feasible).
    pub degraded: bool,
}

impl JobReport {
    fn from_report(report: &ModeReport, wall: Duration) -> JobReport {
        JobReport {
            mode: report.mode,
            best_bits: report.best.bits().clone(),
            best_value: report.best.value(),
            round_best: report.round_best.clone(),
            total_moves: report.total_moves,
            total_evals: report.total_evals,
            regenerations: report.regenerations,
            wall_ms: wall.as_millis() as u64,
            degraded: report.is_degraded(),
        }
    }

    /// Rebuild the best solution against the instance the client holds
    /// (re-deriving value and loads; panics if the lengths disagree —
    /// that means the client submitted a different instance).
    pub fn best_solution(&self, inst: &Instance) -> Solution {
        Solution::from_bits(inst, self.best_bits.clone())
    }
}

impl Wire for JobReport {
    fn pack(&self, buf: &mut PackBuffer) {
        buf.put_u8(self.mode.code());
        pack_bits(&self.best_bits, buf);
        buf.put_i64(self.best_value);
        buf.put_i64s(&self.round_best);
        buf.put_u64(self.total_moves);
        buf.put_u64(self.total_evals);
        buf.put_u64(self.regenerations);
        buf.put_u64(self.wall_ms);
        buf.put_u8(self.degraded as u8);
    }

    fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
        let code = buf.get_u8()?;
        let mode = Mode::from_code(code).ok_or(CodecError::LengthOverflow {
            length: code as u64,
        })?;
        Ok(JobReport {
            mode,
            best_bits: unpack_bits(buf)?,
            best_value: buf.get_i64()?,
            round_best: buf.get_i64s()?,
            total_moves: buf.get_u64()?,
            total_evals: buf.get_u64()?,
            regenerations: buf.get_u64()?,
            wall_ms: buf.get_u64()?,
            degraded: buf.get_u8()? != 0,
        })
    }
}

// ---------------------------------------------------------------------------
// Server configuration
// ---------------------------------------------------------------------------

/// The farm a [`serve`] call schedules jobs onto.
#[derive(Debug, Clone)]
pub enum ServeBackend {
    /// One in-process [`Engine`] with `p` persistent worker threads.
    InProc {
        /// Worker threads in the pool; jobs may use any `p` up to this.
        p: usize,
    },
    /// A [`SocketHub`] with `p` slots for remote `mkp slave` processes.
    /// All `p` slaves must connect within the configured patience before
    /// the server starts accepting jobs.
    Socket {
        /// Endpoint the slaves dial.
        slaves: Endpoint,
        /// Slave slots; jobs may use any `p` up to this.
        p: usize,
    },
}

/// Knobs for [`serve`]. [`Default`] gives a single-round quantum, a
/// 16-job queue, 4 jobs per client, a spool directory of its own under
/// the system temp dir, no job limit, and ~2 minutes of patience.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Master rounds a job runs per turn before parking. A single-round
    /// mode (SEQ, ITS, DTS) has no boundary to park at and runs its
    /// whole budget in one turn regardless.
    pub quantum: usize,
    /// Cap on accepted-but-unfinished jobs across all clients.
    pub max_queue: usize,
    /// Cap on one client's accepted-but-unfinished jobs.
    pub max_inflight: usize,
    /// Where parked snapshots live (`job-<id>.snap`, overwritten by each
    /// park and removed when the job ends). Each [`Default`] value names
    /// a fresh directory, so two default servers never share one.
    pub spool_dir: PathBuf,
    /// Stop after this many accepted jobs reach a terminal state
    /// (done, deadline-expired, failed, or canceled). 0 serves forever.
    /// With a `state_dir`, terminals recovered from the journal count
    /// toward the limit, so a restarted `--max-jobs` server still stops
    /// after the same total.
    pub max_jobs: u64,
    /// Socket-backend patience: how long to wait for the initial slave
    /// fleet, and the reconnect window during slices.
    pub patience: Duration,
    /// Durable state directory. When set, accepted jobs are journaled
    /// to `<state_dir>/journal.mkpj`, parked snapshots are spooled to
    /// `<state_dir>/spool/` (which overrides `spool_dir`),
    /// client disconnects *detach* jobs instead of canceling them, and
    /// a restarted server resumes every in-flight job from its last
    /// parked snapshot. `None` keeps no journal, and [`serve`] removes
    /// the spool files it wrote when it returns.
    pub state_dir: Option<PathBuf>,
    /// Cooperative drain flag, typically flipped by a SIGTERM handler.
    /// When it reads `true` the scheduler stops admitting (submissions
    /// are REJECTED with a "draining" reason), finishes the slice in
    /// progress, leaves every job parked — durably when `state_dir` is
    /// set, otherwise its spool files are removed — compacts the
    /// journal, and returns.
    pub drain: Option<Arc<AtomicBool>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            quantum: 1,
            max_queue: 16,
            max_inflight: 4,
            spool_dir: private_spool_dir(),
            max_jobs: 0,
            patience: Duration::from_secs(121),
            state_dir: None,
            drain: None,
        }
    }
}

/// A spool directory no other server shares: the process id tells
/// processes apart, a counter tells servers within one process apart.
fn private_spool_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mkp-jobserver-{}-{k}", std::process::id()))
}

impl ServeConfig {
    fn validate(&self) -> Result<(), String> {
        if self.quantum == 0 {
            return Err("quantum must be at least one round".to_string());
        }
        if self.max_queue == 0 {
            return Err("max queue depth must be at least 1".to_string());
        }
        if self.max_inflight == 0 {
            return Err("per-client in-flight cap must be at least 1".to_string());
        }
        Ok(())
    }
}

/// What a completed [`serve`] call did, for logs and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs admitted to the queue.
    pub accepted: u64,
    /// Submissions refused at admission (queue full, caps, bad config).
    pub rejected: u64,
    /// Accepted jobs that finished with a report.
    pub done: u64,
    /// Accepted jobs terminated at a quantum boundary past their deadline.
    pub expired: u64,
    /// Accepted jobs terminated by an engine error.
    pub failed: u64,
    /// Accepted jobs dropped because their client disconnected.
    pub canceled: u64,
    /// Scheduler turns executed (slices run on the farm).
    pub slices: u64,
    /// Resumes of a parked job from its spool file.
    pub restores: u64,
    /// In-flight jobs re-adopted from the journal at startup.
    pub recovered: u64,
    /// Spooled snapshots that failed their checksum on restore
    /// (surfaced to the client as a `SpoolCorrupt:` rejection).
    pub spool_corrupt: u64,
    /// Whether the server exited through a drain request.
    pub drained: bool,
}

// ---------------------------------------------------------------------------
// Server internals
// ---------------------------------------------------------------------------

enum Pool {
    InProc(Engine),
    Socket(SocketHub),
}

impl Pool {
    /// Worker capacity: jobs asking for more than this are refused at
    /// admission and skipped on recovery, so the persistent pool is never
    /// grown mid-serve.
    fn capacity(&self) -> usize {
        match self {
            Pool::InProc(engine) => engine.pool_size() - 1, // minus the master task
            Pool::Socket(hub) => hub.nslots(),
        }
    }
}

enum Event {
    /// A new client connection; `writer` is the scheduler's send half.
    Conn {
        client: u64,
        writer: FramedConn,
    },
    Submit {
        client: u64,
        msg: Box<SubmitMsg>,
    },
    Attach {
        client: u64,
        job_id: u64,
    },
    BadSubmit {
        client: u64,
        detail: String,
    },
    Gone {
        client: u64,
    },
}

/// Where a job between turns keeps its master state.
enum JobState {
    /// Never ran; starts from scratch on its first turn.
    Fresh,
    /// Parked: its snapshot is the spool file `job-<id>.snap`.
    Parked,
}

struct Job {
    id: u64,
    /// Owning client, or 0 when detached (client gone, job journaled —
    /// it keeps running and waits for an ATTACH or token resubmit).
    client: u64,
    inst: Instance,
    mode: Mode,
    cfg: RunConfig,
    deadline: Option<Instant>,
    /// The submission's idempotency token; 0 means none.
    token: u64,
    /// Wall-clock spent in this job's slices so far.
    spent: Duration,
    /// Best (value, rounds-done) announced so far — replayed to a
    /// reattaching client so it never sees a silent gap.
    last_incumbent: Option<(i64, u64)>,
    state: JobState,
}

/// A finished job's final frame, retained for late `ATTACH`es: replayed
/// verbatim (same tag, same payload). The token rides along so a resent
/// `SUBMIT` of the finished job is answered with it, too.
struct Terminal {
    tag: u32,
    payload: Vec<u8>,
    token: u64,
}

struct Scheduler {
    cfg: ServeConfig,
    pool: Pool,
    writers: HashMap<u64, FramedConn>,
    /// Every live job, in round-robin order: the front job runs next, a
    /// parked job goes to the back. The job whose turn it is is out of
    /// the table while its slice runs; client events are handled only
    /// between turns, so none of them can miss it.
    jobs: VecDeque<Job>,
    /// The id the next admitted job gets; past every id the journal
    /// names, so ids are never reused across restarts.
    next_job: u64,
    /// Accepted jobs that reached a terminal state (drives `max_jobs`);
    /// seeded with the journal's terminal count on recovery.
    terminal: u64,
    /// Write-ahead journal (`Some` iff `cfg.state_dir` is set).
    journal: Option<Journal>,
    /// Finished jobs' terminal frames by job id, kept for late ATTACHes
    /// and token resends, newest last, capped at [`RETAINED_CAP`].
    retained: VecDeque<(u64, Terminal)>,
    /// Terminals since the last compaction (drives [`COMPACT_EVERY`]).
    terminal_since_compact: u64,
    stats: ServeStats,
}

/// Run the job server on `listen` until `cfg.max_jobs` accepted jobs
/// have reached a terminal state (forever if 0), or until the drain
/// flag flips. Binds the client listener and — for the socket backend —
/// the slave hub, waits for the full slave fleet, then schedules jobs
/// round-robin in `cfg.quantum`-round slices. With a
/// [`ServeConfig::state_dir`], first replays the journal and re-adopts
/// any spooled jobs a previous incarnation left behind. Returns the
/// tally of what was served.
pub fn serve(
    listen: &Endpoint,
    backend: ServeBackend,
    cfg: &ServeConfig,
) -> Result<ServeStats, String> {
    cfg.validate()?;
    let mut cfg = cfg.clone();
    let mut journal = None;
    let mut recovered_records = Vec::new();
    if let Some(state_dir) = &cfg.state_dir {
        // The state dir owns the spool: parks and the journal must land
        // on the same filesystem to recover together.
        cfg.spool_dir = state_dir.join("spool");
        std::fs::create_dir_all(&cfg.spool_dir)
            .map_err(|e| format!("cannot create state directory {}: {e}", state_dir.display()))?;
        let (j, records) = Journal::open(&state_dir.join("journal.mkpj"))
            .map_err(|e| format!("cannot open the job journal: {e}"))?;
        journal = Some(j);
        recovered_records = records;
    }
    let pool = match backend {
        ServeBackend::InProc { p } => {
            if p == 0 {
                return Err("the in-process pool needs at least one worker".to_string());
            }
            Pool::InProc(Engine::new(p))
        }
        ServeBackend::Socket { slaves, p } => {
            if p == 0 {
                return Err("the slave hub needs at least one slot".to_string());
            }
            Pool::Socket(connect_fleet(&slaves, p, cfg.patience, None)?)
        }
    };
    let listener = FramedListener::bind(listen)
        .map_err(|e| format!("cannot listen for clients on {listen}: {e}"))?;
    // Without a state dir the spool lives only as long as this call;
    // remember whether the directory is ours to remove afterwards.
    let made_spool = !cfg.spool_dir.exists();
    std::fs::create_dir_all(&cfg.spool_dir).map_err(|e| {
        format!(
            "cannot create spool directory {}: {e}",
            cfg.spool_dir.display()
        )
    })?;

    let (tx, rx) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || accept_loop(listener, tx, stop))
    };

    let mut sched = Scheduler {
        cfg: cfg.clone(),
        pool,
        writers: HashMap::new(),
        jobs: VecDeque::new(),
        next_job: 1,
        terminal: 0,
        journal,
        retained: VecDeque::new(),
        terminal_since_compact: 0,
        stats: ServeStats::default(),
    };
    sched.recover(recovered_records);
    sched.run(&rx);

    // Shut down: compact the journal down to what still matters (live
    // jobs on a drain, retained terminals either way), stop accepting,
    // close every client link (which also unblocks their reader threads
    // into a clean exit), release the remote slaves with the STOP the
    // slices withheld. Without a journal nobody can resume what is still
    // parked, so its spool files go too.
    sched.compact_journal();
    if sched.journal.is_none() {
        for job in &sched.jobs {
            sched.remove_spool(job.id);
        }
        if made_spool {
            let _ = std::fs::remove_dir(&cfg.spool_dir);
        }
    }
    // One connection of our own wakes the blocking accept, which then
    // sees `stop`. If nothing answers the dial (the socket file was
    // removed), the thread cannot be woken: leave it rather than hang.
    stop.store(true, Ordering::Relaxed);
    if FramedConn::dial(listen).is_ok() || accept.is_finished() {
        let _ = accept.join();
    }
    for (_, writer) in sched.writers.drain() {
        writer.shutdown();
    }
    if let Pool::Socket(hub) = &sched.pool {
        stop_farm(hub);
    }
    Ok(sched.stats)
}

/// Accept client connections and hand each a reader thread. Blocks in
/// `accept`; [`serve`] sets `stop` and dials the listener once to end
/// the loop. A signal (the SIGTERM drain) may interrupt the call.
fn accept_loop(listener: FramedListener, tx: Sender<Event>, stop: Arc<AtomicBool>) {
    let mut next_client: u64 = 1;
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break, // listener died: the server is going down
        };
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let client = next_client;
        next_client += 1;
        let tx = tx.clone();
        std::thread::spawn(move || client_reader(client, conn, tx));
    }
}

/// Per-client reader: announce the connection (with the scheduler's
/// writer half), then forward SUBMIT frames until the client hangs up.
/// Sending Conn and Submit from the same thread keeps them ordered in
/// the scheduler's single event queue.
fn client_reader(client: u64, mut conn: FramedConn, tx: Sender<Event>) {
    match conn.try_clone() {
        Ok(writer) => {
            if tx.send(Event::Conn { client, writer }).is_err() {
                return; // server already shut down
            }
        }
        Err(_) => return,
    }
    loop {
        let event = match conn.recv() {
            Ok(Some(env)) if env.tag == jtags::SUBMIT => match SubmitMsg::from_bytes(&env.data) {
                Ok(msg) => Event::Submit {
                    client,
                    msg: Box::new(msg),
                },
                Err(e) => Event::BadSubmit {
                    client,
                    detail: format!("malformed SUBMIT payload: {e}"),
                },
            },
            Ok(Some(env)) if env.tag == jtags::ATTACH => match JobIdMsg::from_bytes(&env.data) {
                Ok(msg) => Event::Attach {
                    client,
                    job_id: msg.job_id,
                },
                Err(e) => Event::BadSubmit {
                    client,
                    detail: format!("malformed ATTACH payload: {e}"),
                },
            },
            Ok(Some(env)) => Event::BadSubmit {
                client,
                detail: format!("unexpected frame tag {:#x}", env.tag),
            },
            Ok(None) | Err(_) => {
                let _ = tx.send(Event::Gone { client });
                return;
            }
        };
        if tx.send(event).is_err() {
            return;
        }
    }
}

impl Scheduler {
    fn run(&mut self, rx: &Receiver<Event>) {
        loop {
            while let Ok(event) = rx.try_recv() {
                self.handle(event);
            }
            if self.drain_requested() {
                self.stats.drained = true;
                return;
            }
            self.expire_overdue();
            if self.cfg.max_jobs > 0 && self.terminal >= self.cfg.max_jobs {
                return;
            }
            if let Some(job) = self.jobs.pop_front() {
                self.run_turn(job);
            } else {
                match rx.recv_timeout(IDLE_POLL) {
                    Ok(event) => self.handle(event),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        }
    }

    fn drain_requested(&self) -> bool {
        self.cfg
            .drain
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Conn { client, writer } => {
                self.writers.insert(client, writer);
            }
            Event::Submit { client, msg } => self.admit(client, *msg),
            Event::Attach { client, job_id } => self.reattach(client, job_id),
            Event::BadSubmit { client, detail } => {
                self.stats.rejected += 1;
                self.send(
                    client,
                    jtags::REJECTED,
                    &RejectedMsg {
                        job_id: 0,
                        reason: detail,
                    },
                );
            }
            Event::Gone { client } => {
                self.writers.remove(&client);
                if self.journal.is_some() {
                    // Durable server: a vanished client *detaches* its
                    // jobs — they keep running under their journal entry
                    // and wait for an ATTACH or token resubmit.
                    for job in self.jobs.iter_mut().filter(|j| j.client == client) {
                        job.client = 0;
                    }
                    return;
                }
                while let Some(job) = self.take_job(|j| j.client == client) {
                    self.stats.canceled += 1;
                    self.finish(job);
                }
            }
        }
    }

    /// Take the first live job `pick` chooses out of the table.
    fn take_job(&mut self, pick: impl Fn(&Job) -> bool) -> Option<Job> {
        let k = self.jobs.iter().position(pick)?;
        self.jobs.remove(k)
    }

    /// The job, live or retained, that a nonzero idempotency token names.
    fn token_job(&self, token: u64) -> Option<u64> {
        if token == 0 {
            return None;
        }
        let live = self.jobs.iter().find(|j| j.token == token).map(|j| j.id);
        live.or_else(|| {
            self.retained
                .iter()
                .find(|(_, t)| t.token == token)
                .map(|&(id, _)| id)
        })
    }

    /// The scheduler tick, run before every turn: the one deadline
    /// check. A parked job whose deadline lapses while another tenant
    /// holds the farm is told at the next turn boundary, not when its
    /// own far-away turn comes up.
    fn expire_overdue(&mut self) {
        let now = Instant::now();
        while let Some(job) = self.take_job(|j| j.deadline.is_some_and(|d| now >= d)) {
            self.stats.expired += 1;
            let reason = format!(
                "deadline exceeded between turns after {:?} of search",
                job.spent
            );
            self.terminate_rejected(job, reason);
        }
    }

    /// Admission control: validate the submission and either enqueue it
    /// (ACCEPTED) or refuse it (REJECTED with job id 0). A resent
    /// nonzero token short-circuits into a reattach — the idempotency
    /// that makes the client's retry-after-link-drop safe.
    fn admit(&mut self, client: u64, msg: SubmitMsg) {
        if let Some(id) = self.token_job(msg.token) {
            return self.reattach(client, id);
        }
        let job = match self.admission(client, &msg) {
            Ok(job) => job,
            Err(reason) => {
                self.stats.rejected += 1;
                return self.send(client, jtags::REJECTED, &RejectedMsg { job_id: 0, reason });
            }
        };
        self.next_job += 1;
        // Journal first, admit second: a job the client was told about
        // must survive a crash, so the SUBMIT record hits disk before
        // the ACCEPTED frame leaves.
        if self.journal.is_some() {
            let mut payload = job.id.to_le_bytes().to_vec();
            payload.extend_from_slice(&msg.to_bytes());
            self.journal_append(jkind::SUBMIT, &payload);
        }
        let id = job.id;
        self.jobs.push_back(job);
        self.stats.accepted += 1;
        self.send(client, jtags::ACCEPTED, &JobIdMsg { job_id: id });
    }

    /// Every admission check in order: drain, the submission itself,
    /// then the queue and per-client caps. The job to enqueue when all
    /// pass, else the refusal's reason.
    fn admission(&self, client: u64, msg: &SubmitMsg) -> Result<Job, String> {
        if self.drain_requested() {
            return Err("server is draining; resubmit after its restart".into());
        }
        let job = Job::from_submit(self.next_job, client, msg, self.pool.capacity())?;
        if self.jobs.len() >= self.cfg.max_queue {
            return Err(format!(
                "job queue is full ({} jobs pending)",
                self.jobs.len()
            ));
        }
        let inflight = self.jobs.iter().filter(|j| j.client == client).count();
        if inflight >= self.cfg.max_inflight {
            return Err(format!(
                "client already has {inflight} jobs in flight (cap {})",
                self.cfg.max_inflight
            ));
        }
        Ok(job)
    }

    /// Point `job_id` — live or retained — at `client` and replay what
    /// it missed: ACCEPTED plus the last incumbent for a live job, the
    /// verbatim terminal frame for a finished one.
    fn reattach(&mut self, client: u64, job_id: u64) {
        if let Some(job) = self.jobs.iter_mut().find(|j| j.id == job_id) {
            job.client = client;
            let last = job.last_incumbent;
            self.send(client, jtags::ACCEPTED, &JobIdMsg { job_id });
            if let Some((value, round)) = last {
                self.send(
                    client,
                    jtags::INCUMBENT,
                    &IncumbentMsg {
                        job_id,
                        value,
                        round,
                    },
                );
            }
        } else if let Some((_, terminal)) = self.retained.iter().rev().find(|(id, _)| *id == job_id)
        {
            let (tag, payload) = (terminal.tag, terminal.payload.clone());
            self.send(client, jtags::ACCEPTED, &JobIdMsg { job_id });
            self.send_raw(client, tag, &payload);
        } else {
            self.send(
                client,
                jtags::REJECTED,
                &RejectedMsg {
                    job_id,
                    reason: format!(
                        "unknown job id {job_id}: never submitted here, or finished too long ago"
                    ),
                },
            );
        }
    }

    /// One scheduler turn for the job taken off the front of the table:
    /// resume it, run a slice, then finish it or park it at the back.
    fn run_turn(&mut self, mut job: Job) {
        let id = job.id;
        // The spool file stays until the next park overwrites it or the
        // job ends: a crash between resume and re-park must not lose it.
        let resume = match job.state {
            JobState::Fresh => None,
            JobState::Parked => {
                self.stats.restores += 1;
                match Snapshot::load(&self.spool_path(id)) {
                    Ok(snap) => Some(snap),
                    Err(e) => {
                        // A spool file that fails its checksum gets a
                        // *specific* verdict, its own count, and takes
                        // only this job down.
                        self.stats.spool_corrupt += 1;
                        return self.fail(
                            job,
                            format!("SpoolCorrupt: cannot restore spooled state: {e}"),
                        );
                    }
                }
            }
        };

        let turn_start = Instant::now();
        let park_after = Some(self.cfg.quantum);
        let outcome = match &mut self.pool {
            Pool::InProc(engine) => {
                engine.run_slice(&job.inst, job.mode, &job.cfg, resume, park_after)
            }
            Pool::Socket(hub) => socket_slice(hub, &job, resume, park_after),
        };
        job.spent += turn_start.elapsed();
        self.stats.slices += 1;

        match outcome {
            Ok(SliceOutcome::Finished(report)) => {
                let incumbent = IncumbentMsg {
                    job_id: job.id,
                    value: report.best.value(),
                    round: report.round_best.len() as u64,
                };
                self.send(job.client, jtags::INCUMBENT, &incumbent);
                let done = DoneMsg {
                    job_id: job.id,
                    report: JobReport::from_report(&report, job.spent),
                };
                let payload = done.to_bytes();
                self.journal_append(jkind::DONE, &payload);
                self.send_raw(job.client, jtags::DONE, &payload);
                self.stats.done += 1;
                self.retain_terminal(job.id, job.token, jtags::DONE, payload);
                self.finish(job);
            }
            Ok(SliceOutcome::Parked(snap)) => {
                let incumbent = IncumbentMsg {
                    job_id: job.id,
                    value: *snap
                        .round_best
                        .last()
                        .expect("a parked run completed a round"),
                    round: snap.next_round as u64,
                };
                job.last_incumbent = Some((incumbent.value, incumbent.round));
                // Park: snapshot to the spool (atomic rename), then, on a
                // durable server, journal the incumbent high-water mark.
                // Recovery takes the park from the spool file itself, so
                // the park needs no record of its own. After this a
                // kill -9 costs at most the slice in progress.
                if let Err(e) = snap.save(&self.spool_path(id)) {
                    return self.fail(job, format!("cannot spool parked state: {e}"));
                }
                self.journal_append(jkind::INCUMBENT, &incumbent.to_bytes());
                self.send(job.client, jtags::INCUMBENT, &incumbent);
                job.state = JobState::Parked;
                self.jobs.push_back(job);
            }
            Err(e) => self.fail(job, format!("search failed: {e}")),
        }
    }

    /// Terminate an accepted job with a REJECTED explaining the failure.
    fn fail(&mut self, job: Job, reason: String) {
        self.stats.failed += 1;
        self.terminate_rejected(job, reason);
    }

    /// Shared terminal REJECTED path (expiry and failure): journal the
    /// outcome, tell the client, retain the frame for late ATTACHes,
    /// then do the terminal bookkeeping.
    fn terminate_rejected(&mut self, job: Job, reason: String) {
        let msg = RejectedMsg {
            job_id: job.id,
            reason,
        };
        let payload = msg.to_bytes();
        self.journal_append(jkind::REJECTED, &payload);
        self.send_raw(job.client, jtags::REJECTED, &payload);
        self.retain_terminal(job.id, job.token, jtags::REJECTED, payload);
        self.finish(job);
    }

    /// Terminal bookkeeping shared by every terminal: done, expired,
    /// failed and canceled. The job must already be out of the table.
    fn finish(&mut self, job: Job) {
        self.remove_spool(job.id);
        self.terminal += 1;
        self.terminal_since_compact += 1;
        if self.journal.is_some() && self.terminal_since_compact >= COMPACT_EVERY {
            self.compact_journal();
        }
    }

    fn spool_path(&self, id: u64) -> PathBuf {
        self.cfg.spool_dir.join(format!("job-{id}.snap"))
    }

    /// Remove a job's spool file, if it has one.
    fn remove_spool(&self, id: u64) {
        let _ = std::fs::remove_file(self.spool_path(id));
    }

    /// Append one record to the journal, if there is one. An append
    /// failure (disk full, dying device) is reported but does not take
    /// the server down: serving degrades to non-durable rather than
    /// dropping live jobs.
    fn journal_append(&mut self, kind: u8, payload: &[u8]) {
        if let Some(journal) = &mut self.journal {
            if let Err(e) = journal.append(kind, payload) {
                eprintln!("warning: job journal append failed ({e}); durability degraded");
            }
        }
    }

    /// Remember a finished job's final frame for late ATTACHes, evicting
    /// the oldest retained terminal past the cap.
    fn retain_terminal(&mut self, id: u64, token: u64, tag: u32, payload: Vec<u8>) {
        let terminal = Terminal {
            tag,
            payload,
            token,
        };
        self.retained.push_back((id, terminal));
        if self.retained.len() > RETAINED_CAP {
            self.retained.pop_front();
        }
    }

    /// Rewrite the journal down to what still matters: each live job's
    /// SUBMIT (re-encoded with its remaining deadline) and latest
    /// incumbent, in queue order, plus the retained terminal frames, each
    /// followed by its token if it has one.
    /// Atomic (temp-and-rename) via [`Journal::compact`].
    fn compact_journal(&mut self) {
        if self.journal.is_none() {
            return;
        }
        let now = Instant::now();
        let mut records = Vec::new();
        for job in &self.jobs {
            let deadline_ms = match job.deadline {
                Some(d) => (d.saturating_duration_since(now).as_millis() as u64).max(1),
                None => 0,
            };
            let msg = SubmitMsg {
                problem: ProblemMsg::from_instance(&job.inst),
                mode: job.mode.code(),
                p: job.cfg.p as u64,
                rounds: job.cfg.rounds as u64,
                budget_evals: job.cfg.total_evals,
                seed: job.cfg.seed,
                deadline_ms,
                token: job.token,
            };
            let mut payload = job.id.to_le_bytes().to_vec();
            payload.extend_from_slice(&msg.to_bytes());
            records.push(Record {
                kind: jkind::SUBMIT,
                payload,
            });
            if let Some((value, round)) = job.last_incumbent {
                let incumbent = IncumbentMsg {
                    job_id: job.id,
                    value,
                    round,
                };
                records.push(Record {
                    kind: jkind::INCUMBENT,
                    payload: incumbent.to_bytes(),
                });
            }
        }
        for (id, terminal) in &self.retained {
            let kind = if terminal.tag == jtags::DONE {
                jkind::DONE
            } else {
                jkind::REJECTED
            };
            records.push(Record {
                kind,
                payload: terminal.payload.clone(),
            });
            if terminal.token != 0 {
                let mut payload = id.to_le_bytes().to_vec();
                payload.extend_from_slice(&terminal.token.to_le_bytes());
                records.push(Record {
                    kind: jkind::TOKEN,
                    payload,
                });
            }
        }
        if let Some(journal) = &mut self.journal {
            if let Err(e) = journal.compact(&records) {
                eprintln!("warning: job journal compaction failed ({e})");
            }
        }
        self.terminal_since_compact = 0;
    }

    /// Rebuild the scheduler's world from a replayed journal: re-admit,
    /// through admission's own checks, every job that never reached a
    /// terminal record (parked state from the spool when its snapshot
    /// exists, from scratch otherwise), re-arm deadlines from now,
    /// restore the retained terminals, move the next job id past every
    /// id the journal names, and seed the terminal count so `max_jobs`
    /// keeps meaning "total since the journal began".
    fn recover(&mut self, records: Vec<Record>) {
        struct Live {
            id: u64,
            msg: SubmitMsg,
            incumbent: Option<(i64, u64)>,
        }
        // Jobs without a terminal record yet, in journal order.
        let mut live: Vec<Live> = Vec::new();
        let u64_at = |payload: &[u8], at: usize| -> Option<u64> {
            payload
                .get(at..at + 8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        };
        let job_id_of = |payload: &[u8]| u64_at(payload, 0);
        for record in records {
            match record.kind {
                jkind::SUBMIT => {
                    let Some(id) = job_id_of(&record.payload) else {
                        continue;
                    };
                    let Ok(msg) = SubmitMsg::from_bytes(&record.payload[8..]) else {
                        continue;
                    };
                    self.next_job = self.next_job.max(id.saturating_add(1));
                    live.retain(|job| job.id != id);
                    let incumbent = None;
                    live.push(Live { id, msg, incumbent });
                }
                jkind::INCUMBENT => {
                    let Ok(msg) = IncumbentMsg::from_bytes(&record.payload) else {
                        continue;
                    };
                    if let Some(job) = live.iter_mut().find(|job| job.id == msg.job_id) {
                        job.incumbent = Some((msg.value, msg.round));
                    }
                }
                jkind::PARKED => {} // the spool file is the authority
                jkind::DONE | jkind::REJECTED => {
                    let Some(id) = job_id_of(&record.payload) else {
                        continue;
                    };
                    // A compaction keeps a finished job's terminal but
                    // drops its SUBMIT: the id is taken all the same.
                    self.next_job = self.next_job.max(id.saturating_add(1));
                    let k = live.iter().position(|job| job.id == id);
                    let token = k.map_or(0, |k| live.remove(k).msg.token);
                    self.terminal += 1;
                    let tag = if record.kind == jkind::DONE {
                        jtags::DONE
                    } else {
                        jtags::REJECTED
                    };
                    self.retain_terminal(id, token, tag, record.payload);
                }
                jkind::TOKEN => {
                    let (Some(id), Some(token)) =
                        (job_id_of(&record.payload), u64_at(&record.payload, 8))
                    else {
                        continue;
                    };
                    if let Some((_, terminal)) = self.retained.iter_mut().find(|(r, _)| *r == id) {
                        terminal.token = token;
                    }
                }
                _ => {} // unknown kind from a future version: skip
            }
        }
        let capacity = self.pool.capacity();
        for Live { id, msg, incumbent } in live {
            // Skip, don't die on, a job admission would refuse today: a
            // stranger build's mode, an instance an older build let
            // through, or more workers than this restart's farm has. The
            // next compaction forgets its SUBMIT; its park goes now.
            let Ok(mut job) = Job::from_submit(id, 0, &msg, capacity) else {
                self.remove_spool(id);
                continue;
            };
            job.last_incumbent = incumbent;
            if self.spool_path(id).exists() {
                job.state = JobState::Parked;
            }
            self.jobs.push_back(job);
            self.stats.recovered += 1;
        }
    }

    /// Send one message to a client; a dead link just drops the message
    /// (the reader thread's Gone event will cancel the client's jobs).
    fn send<T: Wire>(&mut self, client: u64, tag: u32, msg: &T) {
        if let Some(writer) = self.writers.get_mut(&client) {
            if writer.send(0, tag, msg).is_err() {
                self.writers.remove(&client);
            }
        }
    }

    /// [`Scheduler::send`] for a pre-encoded payload (journaled bytes
    /// are reused verbatim as the wire frame).
    fn send_raw(&mut self, client: u64, tag: u32, payload: &[u8]) {
        if let Some(writer) = self.writers.get_mut(&client) {
            if writer.send_bytes(0, tag, payload).is_err() {
                self.writers.remove(&client);
            }
        }
    }
}

impl Job {
    /// Build job `id` from a submission, or say why this server cannot
    /// run it: every check on the submission itself (mode code,
    /// instance, `p` against the farm's `capacity`, rounds, budget, run
    /// configuration). Admission and journal recovery both build jobs
    /// here, so a recovered job is built *identically* to a freshly
    /// admitted one (deadline armed from now) — the bit-identity
    /// guarantee depends on it — and is refused alike.
    fn from_submit(id: u64, client: u64, msg: &SubmitMsg, capacity: usize) -> Result<Job, String> {
        let mode =
            Mode::from_code(msg.mode).ok_or_else(|| format!("unknown mode code {}", msg.mode))?;
        let inst = msg
            .problem
            .clone()
            .try_into_instance()
            .map_err(|e| format!("malformed instance: {e}"))?;
        let p = msg.p as usize;
        if p == 0 || p > capacity {
            return Err(format!(
                "p={p} outside this server's capacity of {capacity} workers"
            ));
        }
        if msg.rounds == 0 {
            return Err("rounds must be at least 1".into());
        }
        if msg.budget_evals == 0 {
            return Err("evaluation budget must be at least 1".into());
        }
        let cfg = RunConfig {
            p,
            rounds: msg.rounds as usize,
            ..RunConfig::new(msg.budget_evals, msg.seed)
        };
        cfg.validate()?;
        let deadline =
            (msg.deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(msg.deadline_ms));
        Ok(Job {
            id,
            client,
            inst,
            mode,
            cfg,
            deadline,
            token: msg.token,
            spent: Duration::ZERO,
            last_incumbent: None,
            state: JobState::Fresh,
        })
    }
}

fn socket_slice(
    hub: &SocketHub,
    job: &Job,
    resume: Option<Snapshot>,
    park_after: Option<usize>,
) -> Result<SliceOutcome, EngineError> {
    let (inst, cfg) = (&job.inst, &job.cfg);
    let mut policy = admit(inst, job.mode, cfg, resume.as_ref(), park_after)?;
    let tel = Telemetry::new(hub.ntasks());
    master_loop(hub, inst, &mut *policy, cfg, resume, park_after, &tel)
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Shape of a job for [`submit_job`].
#[derive(Debug, Clone)]
pub struct SubmitSpec {
    /// Search organization to run.
    pub mode: Mode,
    /// Slave threads for this job (must fit the server's farm).
    pub p: usize,
    /// Master rounds.
    pub rounds: usize,
    /// Total candidate-evaluation budget.
    pub budget_evals: u64,
    /// Master seed.
    pub seed: u64,
    /// Wall-clock deadline, measured by the server from acceptance;
    /// enforced at quantum boundaries. `None` runs to completion.
    pub deadline: Option<Duration>,
}

/// Progress updates streamed to [`submit_job`]'s callback while the job
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitEvent {
    /// The server queued the job.
    Accepted {
        /// Server-assigned job id.
        job_id: u64,
    },
    /// The server finished a slice of the job.
    Incumbent {
        /// Which job.
        job_id: u64,
        /// Best value so far.
        value: i64,
        /// Master rounds completed so far.
        round: u64,
    },
}

/// How a [`submit_job`] call ended.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// The job ran to completion; here is its report.
    Done(Box<JobReport>),
    /// The server refused or terminated the job (admission control,
    /// deadline expiry, or an engine failure).
    Rejected {
        /// The server's explanation.
        reason: String,
    },
    /// The link to the server dropped after the job was accepted — the
    /// job's fate is unknown (the degraded-link exit, like a slave's
    /// lost master).
    ServerLost,
}

/// A fresh nonzero idempotency token: random per call (via the standard
/// library's randomly keyed hasher — no external RNG dependency), so
/// resubmitting the same payload after a link drop is recognizably the
/// *same* job while two independent submissions never collide.
fn fresh_token() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let mut hasher = std::collections::hash_map::RandomState::new().build_hasher();
    hasher.write_u64(std::process::id() as u64);
    loop {
        let token = hasher.finish();
        if token != 0 {
            return token;
        }
        hasher.write_u64(1);
    }
}

/// Dial `server` with retries and jittered backoff for up to `patience`.
fn dial_retry(server: &Endpoint, patience: Duration) -> Result<FramedConn, String> {
    let deadline = Instant::now().checked_add(patience);
    let mut attempt: u64 = 0;
    loop {
        match FramedConn::dial(server) {
            Ok(conn) => return Ok(conn),
            Err(_) => match deadline {
                Some(d) if Instant::now() >= d => {
                    return Err(format!(
                        "no job server reachable at {server} within {patience:?}"
                    ));
                }
                _ => {
                    // Fibonacci-hash jitter decorrelates a fleet of
                    // clients all retrying against the same restart.
                    let jitter = Duration::from_millis(attempt.wrapping_mul(0x9E37_79B9) % 43);
                    std::thread::sleep(DIAL_DELAY + jitter);
                    attempt += 1;
                }
            },
        }
    }
}

/// How one connection's event stream ended.
enum Streamed {
    /// A terminal frame arrived.
    Outcome(SubmitOutcome),
    /// The link dropped mid-stream; the caller may reattach.
    Lost,
}

/// Drain one connection's job events into `on_event` until a terminal
/// frame or a link drop. Protocol violations are hard errors.
fn read_job_stream(
    conn: &mut FramedConn,
    accepted: &mut bool,
    on_event: &mut impl FnMut(SubmitEvent),
) -> Result<Streamed, String> {
    loop {
        let env = match conn.recv() {
            Ok(Some(env)) => env,
            Ok(None) | Err(_) => return Ok(Streamed::Lost),
        };
        let decode_err =
            |what: &str, e: CodecError| format!("malformed {what} from the job server: {e}");
        match env.tag {
            jtags::ACCEPTED => {
                let msg = JobIdMsg::from_bytes(&env.data).map_err(|e| decode_err("ACCEPTED", e))?;
                // Only announce the first acceptance: a reattach's echo
                // is bookkeeping, not progress.
                if !*accepted {
                    *accepted = true;
                    on_event(SubmitEvent::Accepted { job_id: msg.job_id });
                }
            }
            jtags::INCUMBENT => {
                let msg =
                    IncumbentMsg::from_bytes(&env.data).map_err(|e| decode_err("INCUMBENT", e))?;
                on_event(SubmitEvent::Incumbent {
                    job_id: msg.job_id,
                    value: msg.value,
                    round: msg.round,
                });
            }
            jtags::DONE => {
                let msg = DoneMsg::from_bytes(&env.data).map_err(|e| decode_err("DONE", e))?;
                return Ok(Streamed::Outcome(SubmitOutcome::Done(Box::new(msg.report))));
            }
            jtags::REJECTED => {
                let msg =
                    RejectedMsg::from_bytes(&env.data).map_err(|e| decode_err("REJECTED", e))?;
                return Ok(Streamed::Outcome(SubmitOutcome::Rejected {
                    reason: msg.reason,
                }));
            }
            tag => {
                return Err(format!(
                    "protocol violation: unexpected tag {tag:#x} from the job server"
                ));
            }
        }
    }
}

/// Submit one job to the server at `server` and wait for its outcome.
/// Dials with retries for up to `patience` (the server may still be
/// starting), then applies the same window as a read timeout — so
/// `patience` must also cover the longest gap between two server
/// messages (one full scheduling cycle of the queue ahead of this job).
/// Progress (acceptance, per-slice incumbents) streams to `on_event`.
///
/// Failures *before* the server accepts the job are hard errors. After
/// acceptance a dropped link is survivable: the submission carries a
/// random idempotency token, so the client re-dials (bounded retries
/// with jittered backoff, up to [`MAX_REATTACHES`] cycles of
/// `patience`) and resends the same SUBMIT — a server that still knows
/// the job, including one restarted from its journal, reattaches
/// instead of admitting a duplicate. Only when the reattach budget runs
/// out does the call return [`SubmitOutcome::ServerLost`] for the
/// caller to map to its degraded-exit convention.
pub fn submit_job(
    server: &Endpoint,
    inst: &Instance,
    spec: &SubmitSpec,
    patience: Duration,
    mut on_event: impl FnMut(SubmitEvent),
) -> Result<SubmitOutcome, String> {
    let msg = SubmitMsg {
        problem: ProblemMsg::from_instance(inst),
        mode: spec.mode.code(),
        p: spec.p as u64,
        rounds: spec.rounds as u64,
        budget_evals: spec.budget_evals,
        seed: spec.seed,
        deadline_ms: spec
            .deadline
            .map(|d| (d.as_millis() as u64).max(1))
            .unwrap_or(0),
        token: fresh_token(),
    };
    run_job_protocol(
        server,
        jtags::SUBMIT,
        &msg.to_bytes(),
        patience,
        &mut on_event,
    )
}

/// Reattach to job `job_id` on the server at `server` — after either
/// side restarted — and stream its remaining events exactly like
/// [`submit_job`]: ACCEPTED confirms the job is known (live or recently
/// finished), the last incumbent is replayed so no progress is silently
/// lost, and the terminal DONE/REJECTED ends the call. An unknown id is
/// a [`SubmitOutcome::Rejected`]. Link drops reattach with the same
/// bounded, jitter-backed retry as a submission.
pub fn attach_job(
    server: &Endpoint,
    job_id: u64,
    patience: Duration,
    mut on_event: impl FnMut(SubmitEvent),
) -> Result<SubmitOutcome, String> {
    let msg = JobIdMsg { job_id };
    run_job_protocol(
        server,
        jtags::ATTACH,
        &msg.to_bytes(),
        patience,
        &mut on_event,
    )
}

/// Shared client loop: send `payload` under `tag`, stream events, and
/// reattach by resending the same payload when the link drops after
/// acceptance. Both SUBMIT (token-idempotent) and ATTACH (naturally
/// idempotent) are safe to resend verbatim.
fn run_job_protocol(
    server: &Endpoint,
    tag: u32,
    payload: &[u8],
    patience: Duration,
    on_event: &mut impl FnMut(SubmitEvent),
) -> Result<SubmitOutcome, String> {
    let mut accepted = false;
    let mut reattaches: u32 = 0;
    loop {
        let mut conn = match dial_retry(server, patience) {
            Ok(conn) => conn,
            Err(e) if !accepted => return Err(e),
            Err(_) => return Ok(SubmitOutcome::ServerLost),
        };
        conn.set_read_timeout(Some(patience))
            .map_err(|e| format!("cannot configure the server link: {e}"))?;
        if conn.send_bytes(0, tag, payload).is_err() {
            if accepted {
                // The server vanished between accept and send: burn one
                // reattach cycle and dial again.
                reattaches += 1;
                if reattaches > MAX_REATTACHES {
                    return Ok(SubmitOutcome::ServerLost);
                }
                continue;
            }
            return Err(format!(
                "server at {server} closed the link before the job could be submitted"
            ));
        }
        match read_job_stream(&mut conn, &mut accepted, on_event)? {
            Streamed::Outcome(outcome) => return Ok(outcome),
            Streamed::Lost if !accepted => {
                return Err(format!(
                    "server at {server} went silent before answering the submission"
                ));
            }
            Streamed::Lost => {
                reattaches += 1;
                if reattaches > MAX_REATTACHES {
                    return Ok(SubmitOutcome::ServerLost);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{AssignMsg, ReportMsg, SeedMsg};
    use mkp::generate::{gk_instance, GkSpec};

    fn tiny_instance(seed: u64) -> Instance {
        gk_instance(
            "jobsrv-test",
            GkSpec {
                n: 40,
                m: 5,
                tightness: 0.5,
                seed,
            },
        )
    }

    #[test]
    fn job_report_round_trips_through_the_codec() {
        let inst = tiny_instance(7);
        let mut bits = BitVec::zeros(inst.n());
        bits.set(3, true);
        bits.set(17, true);
        let report = JobReport {
            mode: Mode::CooperativeAdaptive,
            best_bits: bits,
            best_value: 4321,
            round_best: vec![100, 4321],
            total_moves: 999,
            total_evals: 12_345,
            regenerations: 3,
            wall_ms: 250,
            degraded: false,
        };
        let back = JobReport::from_bytes(&report.to_bytes()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.best_solution(&inst).bits(), &report.best_bits);
    }

    /// Decode `bytes` with each byte in turn XOR-ed by 0x01, 0x80 and
    /// 0xFF. Whether a copy decodes or is refused, `decode` must return:
    /// a panic fails the test, naming `what` and the flip.
    fn survives_every_flip(what: &str, bytes: &[u8], decode: impl Fn(&[u8])) {
        let mut flipped = bytes.to_vec();
        for pos in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                flipped[pos] ^= mask;
                let decoded =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(&flipped)));
                assert!(
                    decoded.is_ok(),
                    "{what} panicked on byte {pos} ^ {mask:#04x}"
                );
                flipped[pos] ^= mask;
            }
        }
    }

    /// Every message the engine, the job server and a snapshot file decode
    /// is refused, in every build, when a byte follows it or any of its
    /// bytes is cut off, and decodes or is refused, never panics, with
    /// any one byte flipped.
    #[test]
    fn every_wire_message_rejects_a_trailing_byte() {
        fn refused<T: Wire>(what: &str, msg: &T) {
            let mut bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                assert!(
                    T::from_bytes(&bytes[..cut]).is_err(),
                    "{what} decoded from its first {cut} of {} bytes",
                    bytes.len()
                );
            }
            survives_every_flip(what, &bytes, |flipped| drop(T::from_bytes(flipped)));
            bytes.push(0);
            let decoded = T::from_bytes(&bytes);
            assert!(
                matches!(decoded, Err(CodecError::TrailingBytes { count: 1 })),
                "{what} decoded with a trailing byte"
            );
        }
        let inst = tiny_instance(7);
        let bits = BitVec::zeros(inst.n());
        let strategy = mkp_tabu::Strategy::default_for(inst.n());
        let report = JobReport {
            mode: Mode::Cooperative,
            best_bits: bits.clone(),
            best_value: 0,
            round_best: vec![0],
            total_moves: 1,
            total_evals: 2,
            regenerations: 0,
            wall_ms: 3,
            degraded: false,
        };
        let cfg = RunConfig {
            p: 2,
            rounds: 2,
            ..RunConfig::new(20_000, 1)
        };
        let parked = Engine::new(2).run_slice(&inst, Mode::Cooperative, &cfg, None, Some(1));
        let Ok(SliceOutcome::Parked(snapshot)) = parked else {
            panic!("a two-round slice parks after one round");
        };

        refused("PROBLEM", &ProblemMsg::from_instance(&inst));
        refused(
            "ASSIGN",
            &AssignMsg::trajectory(bits.clone(), strategy, 1_000, 1),
        );
        refused("SEED", &SeedMsg::default());
        refused(
            "REPORT",
            &ReportMsg {
                best: bits.clone(),
                elite: vec![bits],
                initial_value: 0,
                best_value: 0,
                moves: 1,
                evals: 2,
                epoch: 0,
                history_counts: vec![0; inst.n()],
                history_iterations: 1,
            },
        );
        refused("SUBMIT", &submission(ProblemMsg::from_instance(&inst)));
        refused("ACCEPTED", &JobIdMsg { job_id: 1 });
        refused(
            "INCUMBENT",
            &IncumbentMsg {
                job_id: 1,
                value: 5,
                round: 1,
            },
        );
        refused(
            "DONE",
            &DoneMsg {
                job_id: 1,
                report: report.clone(),
            },
        );
        refused(
            "REJECTED",
            &RejectedMsg {
                job_id: 1,
                reason: "no".into(),
            },
        );
        refused("job report", &report);
        refused("snapshot", &*snapshot);
    }

    /// The policy blob of a parked slice, restored with any one byte
    /// flipped, restores or is refused, never panics, for every policy
    /// that parks.
    #[test]
    fn a_flipped_policy_blob_never_panics_restore() {
        let inst = tiny_instance(7);
        let cfg = RunConfig {
            p: 2,
            rounds: 2,
            ..RunConfig::new(20_000, 1)
        };
        for mode in [
            Mode::Cooperative,
            Mode::CooperativeAdaptive,
            Mode::Core,
            Mode::Repair,
        ] {
            let parked = Engine::new(2).run_slice(&inst, mode, &cfg, None, Some(1));
            let Ok(SliceOutcome::Parked(snapshot)) = parked else {
                panic!("{mode:?}: a two-round slice parks after one round");
            };
            let what = format!("{mode:?} policy blob");
            survives_every_flip(&what, &snapshot.policy, |flipped| {
                drop(crate::engine::policy_for(mode).restore(&inst, &cfg, flipped));
            });
        }
    }

    #[test]
    fn submit_msg_round_trips_through_the_codec() {
        let inst = tiny_instance(9);
        let msg = SubmitMsg {
            problem: ProblemMsg::from_instance(&inst),
            mode: Mode::Cooperative.code(),
            p: 3,
            rounds: 6,
            budget_evals: 50_000,
            seed: 42,
            deadline_ms: 1500,
            token: 0xDEAD_BEEF,
        };
        let back = SubmitMsg::from_bytes(&msg.to_bytes()).unwrap();
        assert_eq!(back.problem, msg.problem);
        assert_eq!(back.mode, msg.mode);
        assert_eq!(back.p, 3);
        assert_eq!(back.rounds, 6);
        assert_eq!(back.budget_evals, 50_000);
        assert_eq!(back.seed, 42);
        assert_eq!(back.deadline_ms, 1500);
        assert_eq!(back.token, 0xDEAD_BEEF);
    }

    fn fresh_temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mkp-jobsrv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn submission(problem: ProblemMsg) -> SubmitMsg {
        SubmitMsg {
            problem,
            mode: Mode::Cooperative.code(),
            p: 2,
            rounds: 2,
            budget_evals: 20_000,
            seed: 1,
            deadline_ms: 0,
            token: 0,
        }
    }

    /// Weights `[3, -1]`: `Instance::new` refuses the negative entry.
    fn negative_weight_problem() -> ProblemMsg {
        ProblemMsg {
            name: "negative".into(),
            n: 2,
            m: 1,
            profits: vec![5, 4],
            weights: vec![3, -1],
            capacities: vec![10],
        }
    }

    fn valid_job_completes(ep: &Endpoint, patience: Duration) {
        let spec = SubmitSpec {
            mode: Mode::Cooperative,
            p: 2,
            rounds: 2,
            budget_evals: 20_000,
            seed: 1,
            deadline: None,
        };
        let outcome = submit_job(ep, &tiny_instance(3), &spec, patience, |_| {}).unwrap();
        assert!(matches!(outcome, SubmitOutcome::Done(_)), "{outcome:?}");
    }

    #[test]
    fn invalid_instances_are_rejected_before_the_journal_and_the_server_keeps_serving() {
        let dir = fresh_temp_dir("invalid-submit");
        let ep = Endpoint::Unix(dir.join("clients.sock"));
        let state = dir.join("state");
        let patience = Duration::from_secs(20);
        let cfg = ServeConfig {
            max_jobs: 1,
            state_dir: Some(state.clone()),
            patience,
            ..ServeConfig::default()
        };
        let server = {
            let ep = ep.clone();
            std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 2 }, &cfg))
        };
        let max = i64::MAX;
        let overflowing = ProblemMsg {
            name: "overflowing".into(),
            n: 2,
            m: 1,
            profits: vec![1, 1],
            weights: vec![max, max],
            capacities: vec![max],
        };
        for (problem, needle) in [
            (negative_weight_problem(), "negative"),
            (overflowing, "overflow"),
        ] {
            let bytes = submission(problem).to_bytes();
            let outcome =
                run_job_protocol(&ep, jtags::SUBMIT, &bytes, patience, &mut |_| {}).unwrap();
            match outcome {
                SubmitOutcome::Rejected { reason } => assert!(
                    reason.starts_with("malformed instance: ") && reason.contains(needle),
                    "unexpected reason: {reason}"
                ),
                other => panic!("expected a rejection, got {other:?}"),
            }
        }
        // Neither reached the journal (read while the server runs, before
        // a shutdown compaction could hide a stray record).
        let bytes = std::fs::read(state.join("journal.mkpj")).unwrap();
        let (records, _) = crate::journal::replay(&bytes);
        assert!(records.iter().all(|r| r.kind != jkind::SUBMIT));
        valid_job_completes(&ep, patience);
        let stats = server.join().unwrap().unwrap();
        assert_eq!((stats.rejected, stats.accepted, stats.done), (2, 1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_journaled_submit_with_an_invalid_instance_is_skipped_on_recovery() {
        let dir = fresh_temp_dir("invalid-journal");
        let ep = Endpoint::Unix(dir.join("clients.sock"));
        let state = dir.join("state");
        std::fs::create_dir_all(&state).unwrap();
        {
            let (mut journal, _) = Journal::open(&state.join("journal.mkpj")).unwrap();
            let mut payload = 1u64.to_le_bytes().to_vec();
            payload.extend_from_slice(&submission(negative_weight_problem()).to_bytes());
            journal.append(jkind::SUBMIT, &payload).unwrap();
        }
        let patience = Duration::from_secs(20);
        let cfg = ServeConfig {
            max_jobs: 1,
            state_dir: Some(state),
            patience,
            ..ServeConfig::default()
        };
        let server = {
            let ep = ep.clone();
            std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 2 }, &cfg))
        };
        valid_job_completes(&ep, patience);
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.done, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Journals that older builds wrote hold one `PARKED` record per
    /// park. This build no longer writes them, and must still recover
    /// from a journal that has them.
    #[test]
    fn a_journal_with_legacy_parked_records_still_recovers() {
        let dir = fresh_temp_dir("legacy-parked");
        let ep = Endpoint::Unix(dir.join("clients.sock"));
        let state = dir.join("state");
        let journal_path = state.join("journal.mkpj");
        let patience = Duration::from_secs(20);
        let inst = tiny_instance(5);
        let (mode, p, rounds, budget, seed) = (Mode::Cooperative, 2, 24, 240_000, 3);
        let msg = SubmitMsg {
            problem: ProblemMsg::from_instance(&inst),
            mode: mode.code(),
            p: p as u64,
            rounds: rounds as u64,
            budget_evals: budget,
            seed,
            deadline_ms: 0,
            token: 0,
        };

        // First life: the job parks once, then the server drains.
        let drain = Arc::new(AtomicBool::new(false));
        let server = {
            let ep = ep.clone();
            let cfg = ServeConfig {
                state_dir: Some(state.clone()),
                drain: Some(Arc::clone(&drain)),
                patience,
                ..ServeConfig::default()
            };
            std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 2 }, &cfg))
        };
        let mut conn = dial_retry(&ep, patience).unwrap();
        conn.send(0, jtags::SUBMIT, &msg).unwrap();
        // An INCUMBENT is sent after its park is spooled and journaled.
        while conn.recv().unwrap().expect("server still up").tag != jtags::INCUMBENT {}
        drain.store(true, Ordering::Relaxed);
        let stats = server.join().unwrap().unwrap();
        assert!(stats.drained);
        assert_eq!(stats.done, 0, "the job must still be in flight");
        let (records, _) = crate::journal::replay(&std::fs::read(&journal_path).unwrap());
        assert!(records.iter().any(|r| r.kind == jkind::INCUMBENT));
        assert!(records.iter().all(|r| r.kind != jkind::PARKED));

        // What older builds appended on every park.
        let (mut journal, _) = Journal::open(&journal_path).unwrap();
        journal.append(jkind::PARKED, &1u64.to_le_bytes()).unwrap();
        drop(journal);

        // Second life: recover the job and run it to the end.
        let cfg = ServeConfig {
            max_jobs: 1,
            state_dir: Some(state),
            patience,
            ..ServeConfig::default()
        };
        let stats = serve(&ep, ServeBackend::InProc { p: 2 }, &cfg).unwrap();
        assert_eq!((stats.recovered, stats.done), (1, 1));
        let (records, _) = crate::journal::replay(&std::fs::read(&journal_path).unwrap());
        let done = records
            .iter()
            .find(|r| r.kind == jkind::DONE)
            .expect("a DONE");
        let report = DoneMsg::from_bytes(&done.payload).unwrap().report;
        let solo = crate::runner::run_mode(
            &inst,
            mode,
            &RunConfig {
                p,
                rounds,
                ..RunConfig::new(budget, seed)
            },
        );
        assert_eq!(report.best_value, solo.best.value());
        assert_eq!(report.best_bits, *solo.best.bits());
        assert_eq!(report.round_best, solo.round_best);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Run `body` on its own thread and fail, rather than hang, when it
    /// has not finished within 10 s.
    fn within_10s<R: Send + 'static>(what: &str, body: impl FnOnce() -> R + Send + 'static) -> R {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done_tx.send(body());
        });
        match done_rx.recv_timeout(Duration::from_secs(10)) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => panic!("{what}: still running after 10 s"),
            Err(RecvTimeoutError::Disconnected) => panic!("{what}: panicked"),
        }
    }

    #[test]
    fn a_server_drained_before_any_client_returns_without_hanging() {
        let dir = fresh_temp_dir("idle-drain");
        // A TCP address the OS just reported free.
        let free = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        for ep in [
            Endpoint::Unix(dir.join("clients.sock")),
            Endpoint::Tcp(free.to_string()),
        ] {
            let cfg = ServeConfig {
                drain: Some(Arc::new(AtomicBool::new(true))),
                ..ServeConfig::default()
            };
            let stats = within_10s(&format!("draining an idle server on {ep}"), move || {
                serve(&ep, ServeBackend::InProc { p: 1 }, &cfg).unwrap()
            });
            assert!(stats.drained);
            assert_eq!(stats.accepted, 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A non-durable server cancels a vanished client's jobs and forgets
    /// their tokens with them: the same token, sent again from a new
    /// connection, is a new job rather than a reattach to a dead one.
    #[test]
    fn a_canceled_jobs_token_is_admitted_again() {
        let dir = fresh_temp_dir("canceled-token");
        let ep = Endpoint::Unix(dir.join("clients.sock"));
        let spool = dir.join("spool");
        let patience = Duration::from_secs(20);
        let cfg = ServeConfig {
            max_jobs: 2,
            spool_dir: spool.clone(),
            patience,
            ..ServeConfig::default()
        };
        let server = {
            let ep = ep.clone();
            std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 2 }, &cfg))
        };
        let token = 0x7E57_0001;
        let long = SubmitMsg {
            rounds: 400,
            budget_evals: 40_000_000,
            token,
            ..submission(ProblemMsg::from_instance(&tiny_instance(4)))
        };
        let mut conn = dial_retry(&ep, patience).unwrap();
        conn.send(0, jtags::SUBMIT, &long).unwrap();
        assert_eq!(
            conn.recv().unwrap().expect("server up").tag,
            jtags::ACCEPTED
        );
        // An INCUMBENT is sent after its park is spooled, and only the
        // cancel removes the spool file of a job this far from its end.
        while conn.recv().unwrap().expect("server up").tag != jtags::INCUMBENT {}
        drop(conn);
        let parked = spool.join("job-1.snap");
        let start = Instant::now();
        while parked.exists() {
            assert!(start.elapsed() < patience, "the job was never canceled");
            std::thread::sleep(Duration::from_millis(5));
        }

        let again = SubmitMsg {
            token,
            ..submission(ProblemMsg::from_instance(&tiny_instance(4)))
        };
        let mut events = Vec::new();
        let outcome =
            run_job_protocol(&ep, jtags::SUBMIT, &again.to_bytes(), patience, &mut |ev| {
                events.push(ev)
            })
            .unwrap();
        assert!(matches!(outcome, SubmitOutcome::Done(_)), "{outcome:?}");
        assert_eq!(events.first(), Some(&SubmitEvent::Accepted { job_id: 2 }));
        let stats = server.join().unwrap().unwrap();
        assert_eq!((stats.canceled, stats.done), (1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A compaction keeps a finished job's terminal but drops its SUBMIT;
    /// the restarted server must still not hand that job's id out again.
    #[test]
    fn job_ids_are_not_reused_after_a_restart() {
        let dir = fresh_temp_dir("id-reuse");
        let ep = Endpoint::Unix(dir.join("clients.sock"));
        let state = dir.join("state");
        let patience = Duration::from_secs(20);
        let life = |max_jobs| {
            let ep = ep.clone();
            let cfg = ServeConfig {
                max_jobs,
                state_dir: Some(state.clone()),
                patience,
                ..ServeConfig::default()
            };
            std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 2 }, &cfg))
        };
        let spec = SubmitSpec {
            mode: Mode::Cooperative,
            p: 2,
            rounds: 2,
            budget_evals: 20_000,
            seed: 1,
            deadline: None,
        };
        let mut ids = Vec::new();
        // Journal terminals count toward `max_jobs`: one job per life.
        for max_jobs in [1, 2] {
            let server = life(max_jobs);
            let outcome = submit_job(&ep, &tiny_instance(3), &spec, patience, |ev| {
                if let SubmitEvent::Accepted { job_id } = ev {
                    ids.push(job_id);
                }
            })
            .unwrap();
            assert!(matches!(outcome, SubmitOutcome::Done(_)), "{outcome:?}");
            server.join().unwrap().unwrap();
        }
        assert_eq!(ids, [1, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A compaction drops a finished job's SUBMIT but keeps its token, so
    /// the same SUBMIT resent to the restarted server gets the retained
    /// report instead of running the job again.
    #[test]
    fn a_finished_jobs_token_survives_a_compaction() {
        let dir = fresh_temp_dir("token-compact");
        let ep = Endpoint::Unix(dir.join("clients.sock"));
        let state = dir.join("state");
        let patience = Duration::from_secs(20);
        let life = |max_jobs, drain| {
            let ep = ep.clone();
            let cfg = ServeConfig {
                max_jobs,
                state_dir: Some(state.clone()),
                patience,
                drain,
                ..ServeConfig::default()
            };
            std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: 2 }, &cfg))
        };
        let resend = SubmitMsg {
            token: 0x70CE_0001,
            ..submission(ProblemMsg::from_instance(&tiny_instance(3)))
        }
        .to_bytes();
        let submit = |events: &mut Vec<SubmitEvent>| {
            run_job_protocol(&ep, jtags::SUBMIT, &resend, patience, &mut |ev| {
                events.push(ev)
            })
            .unwrap()
        };

        // First life: the job runs to its end, and the shutdown compacts.
        let server = life(1, None);
        let mut first = Vec::new();
        let done = submit(&mut first);
        assert!(matches!(done, SubmitOutcome::Done(_)), "{done:?}");
        assert_eq!(first.first(), Some(&SubmitEvent::Accepted { job_id: 1 }));
        server.join().unwrap().unwrap();

        // Second life: the resend reattaches to the retained terminal.
        let drain = Arc::new(AtomicBool::new(false));
        let server = life(0, Some(Arc::clone(&drain)));
        let mut again = Vec::new();
        let outcome = submit(&mut again);
        drain.store(true, Ordering::Relaxed);
        let stats = server.join().unwrap().unwrap();
        assert_eq!(again.first(), Some(&SubmitEvent::Accepted { job_id: 1 }));
        assert_eq!(outcome, done);
        assert_eq!(stats.accepted, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_tokens_are_nonzero_and_distinct() {
        let a = fresh_token();
        let b = fresh_token();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b, "two submissions must never share a token");
    }
}
