//! Checkpoint/resume of the master state (DESIGN.md §10).
//!
//! Every `K` completed rounds the synchronous master serializes its full
//! state — round counter, rng, global/round bests, the B-best elite, the
//! per-worker supervision bookkeeping, each worker's latest long-term
//! History and the policy's own blob — into a versioned, checksummed file
//! written atomically (tmp + rename). [`Snapshot::load`] rejects anything
//! corrupt or truncated with a clean [`SnapshotError`], never a panic, and
//! [`crate::engine::Engine::resume`] continues the run bit-identically to
//! the uninterrupted one (objective, best solution and curves; wall clock
//! excluded).

use crate::messages::{pack_bits, unpack_bits, ProblemMsg, SeedMsg};
use crate::runner::{LossCause, Mode, Resurrection, RunConfig, WorkerLoss};
use mkp::{BitVec, Instance};
use pvm_lite::codec::{fnv1a_64, CodecError, PackBuffer, UnpackBuffer, Wire};
use std::path::Path;

/// File magic: identifies a master snapshot, format generation 1.
pub const MAGIC: [u8; 8] = *b"MKPSNAP1";
/// Payload version inside the frame; bumped on layout changes.
pub const VERSION: u32 = 1;
/// Frame overhead: magic + version + payload length + trailing checksum.
const FRAME: usize = 8 + 4 + 8 + 8;

/// Why a snapshot could not be written or read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem failure (message includes the path).
    Io(String),
    /// The file is not a snapshot, fails its checksum, or its payload does
    /// not decode.
    Corrupt(String),
    /// The file ends before the length its header promises.
    Truncated {
        /// Bytes the header says the file should hold.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The snapshot was written by an incompatible format generation.
    Version {
        /// The version stamped in the file's header.
        found: u32,
    },
    /// The snapshot does not belong to this instance or run configuration.
    Mismatch(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot io error: {msg}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::Truncated { expected, found } => write!(
                f,
                "truncated snapshot: header promises {expected} bytes, file has {found}"
            ),
            SnapshotError::Version { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {VERSION})"
                )
            }
            SnapshotError::Mismatch(msg) => write!(f, "snapshot mismatch: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over the instance's problem broadcast: ties a snapshot to the
/// exact instance it was taken from.
pub fn instance_fingerprint(inst: &Instance) -> u64 {
    fnv1a_64(&ProblemMsg::from_instance(inst).to_bytes())
}

/// FNV-1a over every configuration field that feeds the deterministic
/// search stream. Resuming under a different digest would silently diverge
/// from the uninterrupted run, so [`crate::engine::Engine::resume`] rejects
/// it. Timeouts, restart budgets and checkpoint paths are deliberately
/// excluded — they shape recovery, not the search.
pub fn config_digest(cfg: &RunConfig) -> u64 {
    let mut buf = PackBuffer::new();
    buf.put_usize(cfg.p);
    buf.put_usize(cfg.rounds);
    buf.put_u64(cfg.total_evals);
    buf.put_u64(cfg.seed);
    buf.put_f64(cfg.isp.alpha);
    buf.put_u64(cfg.isp.stale_limit as u64);
    buf.put_usize(cfg.isp.rcl);
    buf.put_f64(cfg.sgp.cluster_below);
    buf.put_f64(cfg.sgp.disperse_above);
    buf.put_u8(cfg.relink as u8);
    fnv1a_64(&buf.into_bytes())
}

/// The master's complete resumable state after some prefix of rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The mode being run.
    pub mode: Mode,
    /// [`instance_fingerprint`] of the instance.
    pub fingerprint: u64,
    /// [`config_digest`] of the run configuration.
    pub cfg_digest: u64,
    /// First round the resumed run must execute.
    pub next_round: usize,
    /// Master rng state at the top of `next_round`.
    pub rng: [u64; 4],
    /// Global best assignment so far (re-evaluated against the instance on
    /// resume, so a tampered snapshot cannot smuggle a fake objective).
    pub global_best: BitVec,
    /// Global best value after each completed round.
    pub round_best: Vec<i64>,
    /// Moves executed so far across all threads.
    pub total_moves: u64,
    /// Candidate evaluations spent so far across all threads.
    pub total_evals: u64,
    /// Strategy regenerations so far.
    pub regenerations: u64,
    /// The master's B-best distinct solutions, best first.
    pub elite: Vec<BitVec>,
    /// Which workers were still alive.
    pub alive: Vec<bool>,
    /// Workers quarantined before the checkpoint.
    pub losses: Vec<WorkerLoss>,
    /// Successful resurrections before the checkpoint.
    pub resurrections: Vec<Resurrection>,
    /// Restart-budget consumption per worker.
    pub restarts_used: Vec<u64>,
    /// Incarnation epoch per worker.
    pub epochs: Vec<u64>,
    /// Latest long-term History per worker (transplanted on resume).
    pub histories: Vec<SeedMsg>,
    /// The policy's own serialized state
    /// ([`crate::engine::CoopPolicy::snapshot`]).
    pub policy: Vec<u8>,
}

impl Wire for Snapshot {
    fn pack(&self, buf: &mut PackBuffer) {
        buf.put_u8(self.mode.code());
        buf.put_u64(self.fingerprint);
        buf.put_u64(self.cfg_digest);
        buf.put_usize(self.next_round);
        for w in self.rng {
            buf.put_u64(w);
        }
        pack_bits(&self.global_best, buf);
        buf.put_i64s(&self.round_best);
        buf.put_u64(self.total_moves);
        buf.put_u64(self.total_evals);
        buf.put_u64(self.regenerations);
        buf.put_usize(self.elite.len());
        for e in &self.elite {
            pack_bits(e, buf);
        }
        buf.put_usize(self.alive.len());
        for &a in &self.alive {
            buf.put_u8(a as u8);
        }
        buf.put_usize(self.losses.len());
        for loss in &self.losses {
            buf.put_usize(loss.worker);
            buf.put_usize(loss.round);
            match &loss.cause {
                LossCause::Panicked(msg) => {
                    buf.put_u8(0);
                    buf.put_str(msg);
                }
                LossCause::Deadline => buf.put_u8(1),
                LossCause::Unreachable => buf.put_u8(2),
            }
        }
        buf.put_usize(self.resurrections.len());
        for r in &self.resurrections {
            buf.put_usize(r.worker);
            buf.put_usize(r.round);
            buf.put_usize(r.attempt);
        }
        buf.put_u64s(&self.restarts_used);
        buf.put_u64s(&self.epochs);
        buf.put_usize(self.histories.len());
        for h in &self.histories {
            h.pack(buf);
        }
        buf.put_bytes(&self.policy);
    }

    fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
        let code = buf.get_u8()?;
        let mode = Mode::from_code(code).ok_or(CodecError::LengthOverflow {
            length: code as u64,
        })?;
        let fingerprint = buf.get_u64()?;
        let cfg_digest = buf.get_u64()?;
        let next_round = buf.get_usize()?;
        let mut rng = [0u64; 4];
        for w in &mut rng {
            *w = buf.get_u64()?;
        }
        let global_best = unpack_bits(buf)?;
        let round_best = buf.get_i64s()?;
        let total_moves = buf.get_u64()?;
        let total_evals = buf.get_u64()?;
        let regenerations = buf.get_u64()?;
        let n_elite = buf.get_usize()?;
        let mut elite = Vec::with_capacity(n_elite.min(1024));
        for _ in 0..n_elite {
            elite.push(unpack_bits(buf)?);
        }
        let n_alive = buf.get_usize()?;
        let mut alive = Vec::with_capacity(n_alive.min(1024));
        for _ in 0..n_alive {
            alive.push(buf.get_u8()? != 0);
        }
        let n_losses = buf.get_usize()?;
        let mut losses = Vec::with_capacity(n_losses.min(1024));
        for _ in 0..n_losses {
            let worker = buf.get_usize()?;
            let round = buf.get_usize()?;
            let cause = match buf.get_u8()? {
                0 => LossCause::Panicked(buf.get_str()?),
                1 => LossCause::Deadline,
                _ => LossCause::Unreachable,
            };
            losses.push(WorkerLoss {
                worker,
                round,
                cause,
            });
        }
        let n_res = buf.get_usize()?;
        let mut resurrections = Vec::with_capacity(n_res.min(1024));
        for _ in 0..n_res {
            resurrections.push(Resurrection {
                worker: buf.get_usize()?,
                round: buf.get_usize()?,
                attempt: buf.get_usize()?,
            });
        }
        let restarts_used = buf.get_u64s()?;
        let epochs = buf.get_u64s()?;
        let n_hist = buf.get_usize()?;
        let mut histories = Vec::with_capacity(n_hist.min(1024));
        for _ in 0..n_hist {
            histories.push(SeedMsg::unpack(buf)?);
        }
        let policy = buf.get_bytes()?;
        Ok(Snapshot {
            mode,
            fingerprint,
            cfg_digest,
            next_round,
            rng,
            global_best,
            round_best,
            total_moves,
            total_evals,
            regenerations,
            elite,
            alive,
            losses,
            resurrections,
            restarts_used,
            epochs,
            histories,
            policy,
        })
    }
}

impl Snapshot {
    /// Serialize into the framed on-disk format:
    /// `MAGIC ‖ version ‖ payload_len ‖ payload ‖ fnv1a64(payload)`.
    pub fn to_file_bytes(&self) -> Vec<u8> {
        let payload = self.to_bytes();
        let mut out = Vec::with_capacity(FRAME + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a_64(&payload).to_le_bytes());
        out
    }

    /// Parse the framed format back, rejecting bad magic, unknown versions,
    /// truncation and checksum failures with a clean error.
    pub fn from_file_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < FRAME {
            return Err(SnapshotError::Truncated {
                expected: FRAME,
                found: bytes.len(),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::Corrupt(
                "bad magic: not a snapshot file".to_string(),
            ));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(SnapshotError::Version { found: version });
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let expected = FRAME + payload_len;
        if bytes.len() < expected {
            return Err(SnapshotError::Truncated {
                expected,
                found: bytes.len(),
            });
        }
        let payload = &bytes[20..20 + payload_len];
        let checksum = u64::from_le_bytes(
            bytes[20 + payload_len..20 + payload_len + 8]
                .try_into()
                .unwrap(),
        );
        if checksum != fnv1a_64(payload) {
            return Err(SnapshotError::Corrupt("checksum mismatch".to_string()));
        }
        Snapshot::from_bytes(payload)
            .map_err(|e| SnapshotError::Corrupt(format!("payload does not decode: {e}")))
    }

    /// Write the snapshot atomically: serialize to `<path>.tmp` in the same
    /// directory, sync, then rename over `path` — a crash mid-write leaves
    /// either the old snapshot or none, never a torn one.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        use std::io::Write as _;
        let tmp = path.with_extension("tmp");
        let io_err = |what: &str, e: std::io::Error| {
            SnapshotError::Io(format!("{what} {}: {e}", tmp.display()))
        };
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
        f.write_all(&self.to_file_bytes())
            .map_err(|e| io_err("write", e))?;
        f.sync_all().map_err(|e| io_err("sync", e))?;
        drop(f);
        std::fs::rename(&tmp, path)
            .map_err(|e| SnapshotError::Io(format!("rename to {}: {e}", path.display())))
    }

    /// Read a snapshot back from disk.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io(format!("read {}: {e}", path.display())))?;
        Snapshot::from_file_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkp::generate::uncorrelated_instance;

    fn sample() -> Snapshot {
        Snapshot {
            mode: Mode::CooperativeAdaptive,
            fingerprint: 0xDEAD_BEEF,
            cfg_digest: 0xFEED_FACE,
            next_round: 2,
            rng: [1, 2, 3, 4],
            global_best: BitVec::from_bools([true, false, true]),
            round_best: vec![10, 12],
            total_moves: 100,
            total_evals: 5000,
            regenerations: 1,
            elite: vec![
                BitVec::from_bools([true, false, true]),
                BitVec::from_bools([false, true, true]),
            ],
            alive: vec![true, false, true],
            losses: vec![WorkerLoss {
                worker: 1,
                round: 0,
                cause: LossCause::Panicked("boom".to_string()),
            }],
            resurrections: vec![Resurrection {
                worker: 2,
                round: 1,
                attempt: 2,
            }],
            restarts_used: vec![0, 3, 1],
            epochs: vec![0, 3, 1],
            histories: vec![
                SeedMsg {
                    history_counts: vec![1, 2, 3],
                    history_iterations: 6,
                },
                SeedMsg::default(),
                SeedMsg {
                    history_counts: vec![0, 0, 9],
                    history_iterations: 9,
                },
            ],
            policy: vec![7, 8, 9],
        }
    }

    #[test]
    fn frame_roundtrips_bit_exact() {
        let snap = sample();
        let bytes = snap.to_file_bytes();
        assert_eq!(Snapshot::from_file_bytes(&bytes).unwrap(), snap);
        // Bit-exact: re-serializing the decoded snapshot reproduces the
        // file bytes.
        assert_eq!(
            Snapshot::from_file_bytes(&bytes).unwrap().to_file_bytes(),
            bytes
        );
    }

    #[test]
    fn save_load_roundtrip_and_atomic_tmp_cleanup() {
        let snap = sample();
        let dir = std::env::temp_dir().join(format!("mkp-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        snap.save(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), snap);
        assert!(!path.with_extension("tmp").exists(), "tmp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_file_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_file_bytes(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = sample().to_file_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            Snapshot::from_file_bytes(&bytes),
            Err(SnapshotError::Version { found: 99 })
        );
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let mut bytes = sample().to_file_bytes();
        let mid = 20 + (bytes.len() - 28) / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_file_bytes(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn truncation_at_any_point_is_a_clean_error() {
        let bytes = sample().to_file_bytes();
        for cut in 0..bytes.len() {
            let err = Snapshot::from_file_bytes(&bytes[..cut]);
            assert!(err.is_err(), "accepted a {cut}-byte prefix");
        }
    }

    #[test]
    fn digest_tracks_search_relevant_config_only() {
        let a = RunConfig::new(100_000, 7);
        let mut b = a.clone();
        b.report_timeout = std::time::Duration::from_secs(1);
        b.max_restarts = 5;
        assert_eq!(
            config_digest(&a),
            config_digest(&b),
            "recovery knobs leaked"
        );
        b.seed = 8;
        assert_ne!(config_digest(&a), config_digest(&b));
        let mut c = a.clone();
        c.rounds += 1;
        assert_ne!(config_digest(&a), config_digest(&c));
    }

    #[test]
    fn fingerprint_distinguishes_instances() {
        let a = uncorrelated_instance("a", 20, 3, 0.5, 1);
        let b = uncorrelated_instance("b", 20, 3, 0.5, 2);
        assert_ne!(instance_fingerprint(&a), instance_fingerprint(&b));
        assert_eq!(instance_fingerprint(&a), instance_fingerprint(&a));
    }
}
