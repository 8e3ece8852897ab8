//! Socket transports: the farm protocol across process boundaries.
//!
//! Two endpoint roles implement [`Transport`](crate::Transport):
//!
//! * [`SocketTransport`] — a *slave* endpoint in its own process. It
//!   connects to the master's listener, performs the handshake below, and
//!   then exchanges [`Envelope`]s as length-prefixed frames
//!   ([`crate::frame`]) over the stream. A background reader thread feeds
//!   a `std::sync::mpsc` channel so timed receives work exactly like the
//!   in-process mailboxes.
//! * [`SocketHub`] — the *master* endpoint: a listener owning one *slot*
//!   per slave task. Incoming connections are handshaken and installed
//!   into slots; each slot carries a monotonically increasing
//!   *connection generation* so a superseded connection's leftover frames
//!   can be fenced off deterministically.
//!
//! # Handshake
//!
//! The connecting slave sends one `HELLO` frame carrying the slot it
//! wants (or "any"); the hub answers with a `WELCOME` frame carrying the
//! assigned task id and the farm size, or closes the connection when no
//! slot is free. Task ids follow the farm convention: the hub is task 0,
//! slots `k` serve tasks `k + 1`.
//!
//! # Reconnect, resurrection and fencing
//!
//! A slave process that loses its stream reconnects with backoff and is
//! handed a slot again (its old one if free). On the hub side the
//! engine's supervision drives [`Transport::respawn`]: the hub *fences*
//! the slot's current connection (its generation is retired, its
//! not-yet-consumed frames dropped and counted) and waits for a fresh
//! connection to land in the slot. The master then re-sends
//! `ProblemMsg`/`SeedMsg`/`AssignMsg` exactly as it does for an
//! in-process rebirth — the epoch tags on assignments and reports (PR 4)
//! keep stale *reports* out even when the transport delivered them
//! before the fence.
//!
//! [`Transport::respawn`]: crate::Transport::respawn

use crate::codec::{CodecError, PackBuffer, UnpackBuffer, Wire};
use crate::farm::{CommCell, CommError, CommStats, Envelope, TaskId};
use crate::frame::{read_frame, write_frame, FrameError, FRAME_HEADER_LEN};
use crate::netfault::{NetFaultAction, NetFaultState};
use crate::transport::Transport;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Handshake tags live outside the protocol's tag space (the engine's
/// tags are small integers).
const TAG_HELLO: u32 = 0xFFFF_FF01;
const TAG_WELCOME: u32 = 0xFFFF_FF02;

/// How long a `HELLO` that finds every slot live waits for one to free
/// up before it is refused. A slave that reconnects has closed its old
/// connection already, but that connection's reader may not have seen
/// the EOF yet; this is its moment to do so.
const SLOT_GRACE: Duration = Duration::from_secs(1);

/// A parsed `unix:PATH` / `tcp:HOST:PORT` transport address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at the given filesystem path.
    Unix(PathBuf),
    /// A TCP socket at `host:port`.
    Tcp(String),
}

impl Endpoint {
    /// Parse an address argument. Accepted forms, with specific errors
    /// for everything else (mirroring the CLI's fault-spec hardening):
    ///
    /// * `unix:PATH` — Unix-domain socket at PATH.
    /// * `tcp:HOST:PORT` — TCP, with a numeric non-zero port.
    pub fn parse(raw: &str) -> Result<Endpoint, String> {
        if let Some(path) = raw.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(format!(
                    "address {raw:?} has an empty unix socket path (want unix:PATH)"
                ));
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = raw.strip_prefix("tcp:") {
            let Some((host, port)) = addr.rsplit_once(':') else {
                return Err(format!(
                    "address {raw:?} is missing a port (want tcp:HOST:PORT)"
                ));
            };
            if host.is_empty() {
                return Err(format!(
                    "address {raw:?} has an empty host (want tcp:HOST:PORT)"
                ));
            }
            match port.parse::<u16>() {
                Ok(0) => Err(format!("address {raw:?} has port 0 (want 1..=65535)")),
                Ok(_) => Ok(Endpoint::Tcp(addr.to_string())),
                Err(_) => Err(format!(
                    "address {raw:?} has a malformed port {port:?} (want a number in 1..=65535)"
                )),
            }
        } else {
            Err(format!(
                "malformed address {raw:?} (want unix:PATH or tcp:HOST:PORT)"
            ))
        }
    }

    fn connect(&self) -> io::Result<Stream> {
        match self {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Stream::Tcp),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A connected byte stream of either flavour.
#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Close both directions; unblocks a peer (or our own reader thread)
    /// parked in a read.
    fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Socket-layer failures (connect/handshake time).
#[derive(Debug)]
pub enum SocketError {
    /// The underlying socket operation failed.
    Io(io::Error),
    /// The peer broke the handshake protocol.
    Handshake(String),
    /// The hub had no free slot for this slave.
    Rejected,
    /// The endpoint is already served by a live listener. Binding over it
    /// would destroy that server's endpoint, so the bind is refused.
    AddrInUse {
        /// The contested endpoint, displayable.
        endpoint: String,
    },
    /// [`SocketTransport::connect_with_retry`] exhausted its total
    /// deadline without a listener ever answering. The caller is spinning
    /// against a dead address and must stop.
    Unreachable {
        /// The dead endpoint, displayable.
        endpoint: String,
        /// How many connect attempts were made before giving up.
        attempts: u64,
        /// The total deadline that lapsed.
        patience: Duration,
    },
}

impl fmt::Display for SocketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocketError::Io(e) => write!(f, "socket i/o failed: {e}"),
            SocketError::Handshake(detail) => write!(f, "handshake failed: {detail}"),
            SocketError::Rejected => write!(f, "hub rejected the connection (no free slot)"),
            SocketError::AddrInUse { endpoint } => {
                write!(f, "{endpoint} is already served by a live listener")
            }
            SocketError::Unreachable {
                endpoint,
                attempts,
                patience,
            } => write!(
                f,
                "no listener at {endpoint} answered within {patience:?} \
                 ({attempts} connect attempts)"
            ),
        }
    }
}

impl std::error::Error for SocketError {}

impl From<io::Error> for SocketError {
    fn from(e: io::Error) -> Self {
        SocketError::Io(e)
    }
}

impl From<FrameError> for SocketError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => SocketError::Io(io),
            other => SocketError::Handshake(other.to_string()),
        }
    }
}

/// `HELLO`: the slave's opening claim. `want == u64::MAX` means "any
/// slot"; otherwise it names the 0-based slot of a previous incarnation
/// so a restarted slave process reclaims its identity.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Hello {
    want: u64,
    /// The connecting process's reconnect attempt counter (diagnostic).
    attempt: u64,
}

impl Wire for Hello {
    fn pack(&self, buf: &mut PackBuffer) {
        buf.put_u64(self.want);
        buf.put_u64(self.attempt);
    }
    fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
        Ok(Hello {
            want: buf.get_u64()?,
            attempt: buf.get_u64()?,
        })
    }
}

/// `WELCOME`: the hub's answer — the assigned task id, the farm size and
/// the slot's connection generation (diagnostic; fencing is hub-side).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Welcome {
    tid: u64,
    ntasks: u64,
    generation: u64,
}

impl Wire for Welcome {
    fn pack(&self, buf: &mut PackBuffer) {
        buf.put_u64(self.tid);
        buf.put_u64(self.ntasks);
        buf.put_u64(self.generation);
    }
    fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
        Ok(Welcome {
            tid: buf.get_u64()?,
            ntasks: buf.get_u64()?,
            generation: buf.get_u64()?,
        })
    }
}

/// Send one data frame through an optional fault injector. Without a
/// fault (or when this frame is not the plan's victim) this is exactly
/// [`write_frame`]. A fired fault mangles only this frame: `Drop` writes
/// nothing, `Duplicate` writes the frame twice, `Truncate` writes half
/// the frame's bytes and shuts the stream down, `Corrupt` flips a
/// payload bit under the original checksum, `Delay` sleeps first. Every
/// branch validates the frame exactly as a clean send would, so a fault
/// never masks an oversized payload or a bad sender id.
fn send_frame_faulty(
    stream: &mut Stream,
    fault: Option<&NetFaultState>,
    from: TaskId,
    tag: u32,
    payload: &[u8],
) -> Result<(), FrameError> {
    use crate::frame::encode_frame;
    let Some(action) = fault.and_then(NetFaultState::on_send) else {
        return write_frame(stream, from, tag, payload);
    };
    match action {
        NetFaultAction::Drop => encode_frame(from, tag, payload).map(drop),
        NetFaultAction::Duplicate => {
            write_frame(stream, from, tag, payload)?;
            write_frame(stream, from, tag, payload)
        }
        NetFaultAction::Truncate => {
            let wire = encode_frame(from, tag, payload)?;
            stream.write_all(&wire[..wire.len() / 2])?;
            let _ = stream.flush();
            // Cut the stream here so the peer observes a mid-frame death
            // rather than blocking on the missing tail.
            stream.shutdown();
            Ok(())
        }
        NetFaultAction::Corrupt => {
            let mut wire = encode_frame(from, tag, payload)?;
            // Flip a payload bit but keep the checksum trailer computed
            // over the original bytes: the receiver must detect this. An
            // empty payload gets a trailer bit flipped — same detection.
            let at = if payload.is_empty() {
                wire.len() - 1
            } else {
                FRAME_HEADER_LEN
            };
            wire[at] ^= 0x01;
            stream.write_all(&wire)?;
            stream.flush()?;
            Ok(())
        }
        NetFaultAction::Delay(d) => {
            std::thread::sleep(d);
            write_frame(stream, from, tag, payload)
        }
    }
}

// ---------------------------------------------------------------------------
// Slave side
// ---------------------------------------------------------------------------

/// A slave's socket endpoint: one stream to the hub, envelopes framed on
/// the wire, received frames pumped into a channel by a reader thread so
/// [`Transport::recv_timeout`] has in-process semantics.
pub struct SocketTransport {
    tid: TaskId,
    ntasks: usize,
    generation: u64,
    writer: Mutex<Stream>,
    /// Kept so `Drop` can unblock the reader thread.
    stream: Stream,
    inbox: Receiver<Envelope>,
    reader: Option<std::thread::JoinHandle<()>>,
    comm: Arc<CommCell>,
    /// Armed send-path fault plan (tests and `--net-fault`).
    fault: Option<Arc<NetFaultState>>,
    /// Frames this endpoint received damaged and dropped.
    corrupt_drops: Arc<AtomicU64>,
}

impl SocketTransport {
    /// Connect to a hub and handshake. `want` names the slot of a
    /// previous incarnation (`None` = any free slot).
    pub fn connect(
        endpoint: &Endpoint,
        want: Option<TaskId>,
        attempt: u64,
    ) -> Result<SocketTransport, SocketError> {
        SocketTransport::connect_with(endpoint, want, attempt, None)
    }

    /// [`connect`](SocketTransport::connect) with a send-path fault
    /// injector. The [`NetFaultState`] is shared by reference so its
    /// frame counter spans this connection and any later reconnects;
    /// handshake frames are not counted.
    pub fn connect_with(
        endpoint: &Endpoint,
        want: Option<TaskId>,
        attempt: u64,
        fault: Option<Arc<NetFaultState>>,
    ) -> Result<SocketTransport, SocketError> {
        let mut stream = endpoint.connect()?;
        let comm = Arc::new(CommCell::default());
        let hello = Hello {
            want: want.map_or(u64::MAX, |tid| tid as u64),
            attempt,
        };
        write_frame(&mut stream, 0, TAG_HELLO, &hello.to_bytes())?;
        let Some(env) = read_frame(&mut stream).map_err(|e| match e {
            crate::frame::FrameError::Io(e) => SocketError::Io(e),
            other => SocketError::Handshake(other.to_string()),
        })?
        else {
            // The hub closing the stream instead of welcoming us is the
            // "no free slot" signal.
            return Err(SocketError::Rejected);
        };
        if env.tag != TAG_WELCOME {
            return Err(SocketError::Handshake(format!(
                "expected WELCOME, got tag {:#x}",
                env.tag
            )));
        }
        let welcome: Welcome = env
            .decode()
            .map_err(|e| SocketError::Handshake(format!("undecodable WELCOME: {e:?}")))?;
        let tid = welcome.tid as TaskId;
        let ntasks = welcome.ntasks as usize;
        if tid == 0 || tid >= ntasks {
            return Err(SocketError::Handshake(format!(
                "WELCOME assigned task {tid} outside 1..{ntasks}"
            )));
        }

        let (tx, rx) = mpsc::channel::<Envelope>();
        let corrupt_drops = Arc::new(AtomicU64::new(0));
        let reader_stream = stream.try_clone()?;
        let reader_comm = Arc::clone(&comm);
        let reader_corrupt = Arc::clone(&corrupt_drops);
        let reader = std::thread::Builder::new()
            .name(format!("mkp-sock-rx-{tid}"))
            .spawn(move || pump_frames(reader_stream, tx, reader_comm, reader_corrupt))
            .expect("spawn socket reader");
        let writer = Mutex::new(stream.try_clone()?);
        Ok(SocketTransport {
            tid,
            ntasks,
            generation: welcome.generation,
            writer,
            stream,
            inbox: rx,
            reader: Some(reader),
            comm,
            fault,
            corrupt_drops,
        })
    }

    /// [`connect_with`](SocketTransport::connect_with) under a *total*
    /// deadline: retry failed connects with jittered backoff until
    /// `patience` lapses, then give up with [`SocketError::Unreachable`]
    /// instead of spinning forever against a dead address. A
    /// [`SocketError::Rejected`] (the hub answered: no free slot) is a
    /// protocol verdict, not unreachability, and returns immediately.
    /// On success also returns how many connect attempts it took.
    pub fn connect_with_retry(
        endpoint: &Endpoint,
        want: Option<TaskId>,
        first_attempt: u64,
        patience: Duration,
        fault: Option<Arc<NetFaultState>>,
    ) -> Result<(SocketTransport, u64), SocketError> {
        let deadline = Instant::now().checked_add(patience);
        let mut attempts: u64 = 0;
        loop {
            match SocketTransport::connect_with(
                endpoint,
                want,
                first_attempt + attempts,
                fault.clone(),
            ) {
                Ok(t) => return Ok((t, attempts + 1)),
                Err(SocketError::Rejected) => return Err(SocketError::Rejected),
                Err(_) => {
                    attempts += 1;
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(SocketError::Unreachable {
                            endpoint: endpoint.to_string(),
                            attempts,
                            patience,
                        });
                    }
                    // Backoff grows from 10 ms towards 500 ms with a
                    // deterministic per-attempt jitter, so a herd of
                    // orphans does not retry in lockstep.
                    let base = 10u64.saturating_mul(1 << attempts.min(6));
                    let jitter = attempts.wrapping_mul(0x9E37_79B9) % 23;
                    std::thread::sleep(Duration::from_millis(base.min(500) + jitter));
                }
            }
        }
    }

    /// The slot generation the hub assigned this connection.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Frames this endpoint received damaged (checksum mismatch) and
    /// dropped without desynchronising the stream.
    pub fn corrupt_drops(&self) -> u64 {
        self.corrupt_drops.load(Ordering::Relaxed)
    }
}

/// Reader-thread body: frames off the stream into the inbox, counting at
/// the transport boundary; exits on EOF or any stream error (dropping the
/// sender disconnects the inbox, which the owner observes as
/// [`CommError::Disconnected`]). A frame that arrives damaged is dropped
/// and counted — the checksummed framing keeps the stream synchronised,
/// so one corrupt frame never kills the connection.
fn pump_frames(
    mut stream: Stream,
    tx: Sender<Envelope>,
    comm: Arc<CommCell>,
    corrupt_drops: Arc<AtomicU64>,
) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some(env)) => {
                comm.count_received(env.data.len() as u64);
                if tx.send(env).is_err() {
                    break; // owner gone
                }
            }
            Err(FrameError::Corrupt) => {
                corrupt_drops.fetch_add(1, Ordering::Relaxed);
            }
            Ok(None) | Err(_) => break,
        }
    }
}

impl Transport for SocketTransport {
    fn tid(&self) -> TaskId {
        self.tid
    }

    fn ntasks(&self) -> usize {
        self.ntasks
    }

    fn send_bytes(&self, to: TaskId, tag: u32, data: Vec<u8>) -> Result<(), CommError> {
        assert!(to < self.ntasks, "task id {to} out of range");
        // The stream topology is a star: every frame physically goes to
        // the hub, which is also the only peer the slave protocol
        // addresses.
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        send_frame_faulty(&mut writer, self.fault.as_deref(), self.tid, tag, &data)
            .map_err(|e| match e {
                // An unencodable message is rejected outright; nothing
                // reached the wire and the link is still good.
                FrameError::Oversized { len } => CommError::Oversized { len },
                _ => CommError::PeerGone { to },
            })
            .inspect(|()| self.comm.count_sent(data.len() as u64))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, CommError> {
        Ok(self.inbox.recv_timeout(timeout)?)
    }

    fn comm_stats(&self) -> CommStats {
        self.comm.snapshot()
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.stream.shutdown();
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Hub (master) side
// ---------------------------------------------------------------------------

/// One remote slave's connection slot.
struct Slot {
    /// Generation of the installed connection; 0 = never connected.
    generation: u64,
    /// Whether the installed connection is believed live.
    live: bool,
    /// Write half of the installed connection.
    writer: Option<Stream>,
    /// Generations `<=` this are fenced: their buffered frames drop.
    fenced: u64,
    /// Generation of the last successful master→slot send; lets
    /// [`respawn`](Transport::respawn) tell a fresh, never-addressed
    /// connection from the straggler it is meant to replace.
    last_sent: u64,
}

/// Transport counters specific to the socket hub.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Connections accepted beyond each slot's first (slave rebirths).
    pub reconnects: u64,
    /// Frames dropped because their connection generation was fenced.
    pub fenced_drops: u64,
    /// Frames that arrived damaged (checksum mismatch) and were dropped.
    pub corrupt_drops: u64,
}

struct HubShared {
    slots: Mutex<Vec<Slot>>,
    /// Signalled whenever a connection is installed in a slot or a
    /// slot's reader marks it dead; `wait_ready` and `respawn` wait on it.
    changed: Condvar,
    comm: CommCell,
    reconnects: AtomicU64,
    fenced_drops: AtomicU64,
    corrupt_drops: AtomicU64,
    shutdown: AtomicBool,
    /// Armed send-path fault plan (tests and `--net-fault`).
    fault: Option<Arc<NetFaultState>>,
}

impl HubShared {
    fn lock_slots(&self) -> MutexGuard<'_, Vec<Slot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock the slots once `done` holds for them, or once `timeout`
    /// lapses, whichever comes first.
    fn wait_slots(
        &self,
        timeout: Duration,
        mut done: impl FnMut(&[Slot]) -> bool,
    ) -> MutexGuard<'_, Vec<Slot>> {
        self.changed
            .wait_timeout_while(self.lock_slots(), timeout, |slots| !done(slots))
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }
}

/// The master's socket endpoint: listener, slots, merged inbox.
///
/// Implements [`Transport`] with `tid() == 0`; sends route to the
/// addressed slot's installed connection, receives pull from the merged
/// inbox in arrival order (frames from fenced generations are dropped and
/// counted). [`Transport::respawn`] implements supervision as described
/// in the module docs.
pub struct SocketHub {
    shared: Arc<HubShared>,
    /// Behind a lock only so the hub stays `Sync` (a std `Receiver` is
    /// not): the master is the inbox's one reader, and `respawn` never
    /// touches it.
    inbox: Mutex<Receiver<(u64, Envelope)>>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// The listener's address: `Drop` dials it once to wake the accept
    /// thread out of its blocking `accept`.
    endpoint: Endpoint,
    /// Patience for a replacement connection inside `respawn`.
    reconnect_patience: Duration,
    /// Unix listener path, unlinked on drop.
    unlink: Option<PathBuf>,
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// Bind a listener on `endpoint`. For Unix endpoints an existing socket
/// file is *probed* before it is reclaimed: if a listener answers, the
/// path belongs to a live server and the bind is refused with
/// [`SocketError::AddrInUse`] — unconditionally unlinking would destroy
/// that server's endpoint while its clients still point at the path. Only
/// a genuinely stale file (connect refused: its owner is gone) is
/// removed. TCP gets the same behaviour for free from the OS.
///
/// Returns the listener plus the path to unlink on shutdown.
fn bind_listener(endpoint: &Endpoint) -> Result<(Listener, Option<PathBuf>), SocketError> {
    match endpoint {
        Endpoint::Tcp(addr) => Ok((Listener::Tcp(TcpListener::bind(addr.as_str())?), None)),
        Endpoint::Unix(path) => {
            if path.exists() {
                match UnixStream::connect(path) {
                    Ok(probe) => {
                        // A live listener accepted the probe; back off. The
                        // probe connection is dropped immediately — the
                        // server sees a clean EOF and discards it.
                        drop(probe);
                        return Err(SocketError::AddrInUse {
                            endpoint: endpoint.to_string(),
                        });
                    }
                    Err(_) => {
                        // Nobody answers: a leftover from a crashed run.
                        let _ = std::fs::remove_file(path);
                    }
                }
            }
            let l = UnixListener::bind(path)?;
            Ok((Listener::Unix(l), Some(path.clone())))
        }
    }
}

impl SocketHub {
    /// Bind a hub for `p` slave slots. `reconnect_patience` bounds how
    /// long [`Transport::respawn`] waits for a replacement connection.
    /// Refuses to displace a live listener on the same endpoint
    /// ([`SocketError::AddrInUse`]); only stale Unix socket files are
    /// reclaimed.
    pub fn bind(
        endpoint: &Endpoint,
        p: usize,
        reconnect_patience: Duration,
    ) -> Result<SocketHub, SocketError> {
        SocketHub::bind_with(endpoint, p, reconnect_patience, None)
    }

    /// [`bind`](SocketHub::bind) with a send-path fault injector shared
    /// across every slot (frames are counted in hub send order).
    pub fn bind_with(
        endpoint: &Endpoint,
        p: usize,
        reconnect_patience: Duration,
        fault: Option<Arc<NetFaultState>>,
    ) -> Result<SocketHub, SocketError> {
        assert!(p >= 1, "a hub needs at least one slave slot");
        let (listener, unlink) = bind_listener(endpoint)?;
        let shared = Arc::new(HubShared {
            slots: Mutex::new(
                (0..p)
                    .map(|_| Slot {
                        generation: 0,
                        live: false,
                        writer: None,
                        fenced: 0,
                        last_sent: 0,
                    })
                    .collect(),
            ),
            changed: Condvar::new(),
            comm: CommCell::default(),
            reconnects: AtomicU64::new(0),
            fenced_drops: AtomicU64::new(0),
            corrupt_drops: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            fault,
        });
        let (inbox_tx, inbox_rx) = mpsc::channel::<(u64, Envelope)>();
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("mkp-hub-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared, inbox_tx, p))
            .expect("spawn hub accept thread");
        Ok(SocketHub {
            shared,
            inbox: Mutex::new(inbox_rx),
            accept_thread: Some(accept_thread),
            endpoint: endpoint.clone(),
            reconnect_patience,
            unlink,
        })
    }

    /// Block until every slot has a live connection, or the deadline
    /// passes. Returns how many slots are connected.
    pub fn wait_ready(&self, timeout: Duration) -> usize {
        let slots = self
            .shared
            .wait_slots(timeout, |slots| slots.iter().all(|s| s.live));
        slots.iter().filter(|s| s.live).count()
    }

    /// Number of slave slots.
    pub fn nslots(&self) -> usize {
        self.shared.lock_slots().len()
    }

    /// Hub-specific transport counters (reconnects, fenced drops).
    pub fn hub_stats(&self) -> HubStats {
        HubStats {
            reconnects: self.shared.reconnects.load(Ordering::Relaxed),
            fenced_drops: self.shared.fenced_drops.load(Ordering::Relaxed),
            corrupt_drops: self.shared.corrupt_drops.load(Ordering::Relaxed),
        }
    }

    /// Pass a received frame on, counted at the transport boundary — or
    /// drop it (counted as fenced) when its connection generation was
    /// superseded by a respawn.
    fn admit(&self, (generation, env): (u64, Envelope)) -> Option<Envelope> {
        let fenced = generation <= self.shared.lock_slots()[env.from - 1].fenced;
        if fenced {
            self.shared.fenced_drops.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.shared.comm.count_received(env.data.len() as u64);
        Some(env)
    }
}

/// Accept-thread body: block in `accept` and give every connection a
/// thread of its own, which handshakes it into a slot and then reads it.
/// The accept thread never reads from a peer, so a connection that sends
/// nothing cannot hold up the slaves behind it. `Drop` sets `shutdown`
/// and then dials the listener once to wake the blocking `accept`.
fn accept_loop(
    listener: Listener,
    shared: Arc<HubShared>,
    inbox_tx: Sender<(u64, Envelope)>,
    p: usize,
) {
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let conn_shared = Arc::clone(&shared);
        let conn_tx = inbox_tx.clone();
        let _ = std::thread::Builder::new()
            .name("mkp-hub-rx".to_string())
            .spawn(move || serve_connection(stream, &conn_shared, &conn_tx, p));
    }
}

/// Connection-thread body: handshake the stream into a slot, then pump
/// its frames into the hub's inbox until it ends, and finally mark the
/// slot dead, provided the slot still holds this connection's generation.
/// A peer that never sends its HELLO keeps only this thread waiting, until
/// it hangs up.
fn serve_connection(
    stream: Stream,
    shared: &HubShared,
    inbox_tx: &Sender<(u64, Envelope)>,
    p: usize,
) {
    let Some((k, generation, mut stream)) = handshake(stream, shared, p) else {
        return;
    };
    loop {
        match read_frame(&mut stream) {
            Ok(Some(mut env)) => {
                // Trust the slot, not the wire, for the sender id.
                env.from = k + 1;
                if inbox_tx.send((generation, env)).is_err() {
                    break;
                }
            }
            // A damaged frame is dropped and counted; the checksummed
            // framing keeps the stream in sync.
            Err(FrameError::Corrupt) => {
                shared.corrupt_drops.fetch_add(1, Ordering::Relaxed);
            }
            Ok(None) | Err(_) => break,
        }
    }
    let mut slots = shared.lock_slots();
    if slots[k].generation == generation {
        slots[k].live = false;
        slots[k].writer = None;
    }
    drop(slots);
    shared.changed.notify_all();
}

/// Read the peer's HELLO, then, under the slot lock, install the
/// connection in the slot it wants when that is free, else in the first
/// free slot, and answer WELCOME. When every slot reads live, wait up to
/// [`SLOT_GRACE`] for one to free up first. Returns the slot, its new
/// generation and the connection's read half; `None` when the peer sent
/// garbage or vanished, or was refused because every slot is still
/// occupied or the hub is shutting down.
fn handshake(mut stream: Stream, shared: &HubShared, p: usize) -> Option<(usize, u64, Stream)> {
    let hello: Hello = match read_frame(&mut stream) {
        Ok(Some(env)) if env.tag == TAG_HELLO => env.decode().ok()?,
        _ => return None,
    };
    let mut slots = shared.wait_slots(SLOT_GRACE, |slots| {
        shared.shutdown.load(Ordering::Relaxed) || slots.iter().any(|s| !s.live)
    });
    let want = usize::try_from(hello.want).ok().filter(|&w| w < p);
    let free = |k: usize, slots: &Vec<Slot>| !slots[k].live;
    let slot_k = match want {
        Some(w) if free(w, &slots) => Some(w),
        _ => (0..p).find(|&k| free(k, &slots)),
    };
    let Some(k) = slot_k.filter(|_| !shared.shutdown.load(Ordering::Relaxed)) else {
        drop(slots);
        stream.shutdown(); // reject
        return None;
    };
    let generation = slots[k].generation + 1;
    let welcome = Welcome {
        tid: (k + 1) as u64,
        ntasks: (p + 1) as u64,
        generation,
    };
    write_frame(&mut stream, 0, TAG_WELCOME, &welcome.to_bytes()).ok()?;
    let read_half = stream.try_clone().ok()?;
    slots[k].generation = generation;
    slots[k].live = true;
    slots[k].writer = Some(stream);
    if generation > 1 {
        shared.reconnects.fetch_add(1, Ordering::Relaxed);
    }
    drop(slots);
    shared.changed.notify_all();
    Some((k, generation, read_half))
}

impl Transport for SocketHub {
    fn tid(&self) -> TaskId {
        0
    }

    fn ntasks(&self) -> usize {
        self.nslots() + 1
    }

    fn send_bytes(&self, to: TaskId, tag: u32, data: Vec<u8>) -> Result<(), CommError> {
        assert!(
            to >= 1 && to <= self.nslots(),
            "task id {to} out of range for the hub"
        );
        let k = to - 1;
        let mut slots = self.shared.lock_slots();
        let slot = &mut slots[k];
        let Some(writer) = slot.writer.as_mut().filter(|_| slot.live) else {
            return Err(CommError::PeerGone { to });
        };
        match send_frame_faulty(writer, self.shared.fault.as_deref(), 0, tag, &data) {
            Ok(()) => {
                slot.last_sent = slot.generation;
                self.shared.comm.count_sent(data.len() as u64);
                Ok(())
            }
            // The message was rejected before any byte was written: keep
            // the connection — only this send failed, not the peer.
            Err(FrameError::Oversized { len }) => Err(CommError::Oversized { len }),
            Err(_) => {
                slot.live = false;
                slot.writer = None;
                Err(CommError::PeerGone { to })
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, CommError> {
        let inbox = self.inbox.lock().unwrap_or_else(PoisonError::into_inner);
        let deadline = Instant::now().checked_add(timeout);
        loop {
            let remaining = match deadline {
                None => Duration::MAX,
                Some(deadline) => deadline.saturating_duration_since(Instant::now()),
            };
            if let Some(env) = self.admit(inbox.recv_timeout(remaining)?) {
                return Ok(env);
            }
        }
    }

    fn comm_stats(&self) -> CommStats {
        self.shared.comm.snapshot()
    }

    /// Supervision over sockets: ensure slot `tid - 1` holds a *fresh*
    /// connection the master has never addressed. A live connection that
    /// arrived after the master's last send (the slave already
    /// reconnected on its own) is adopted as-is; otherwise the current
    /// connection — straggler or corpse — is fenced and the call waits up
    /// to the hub's reconnect patience for a replacement.
    fn respawn(&self, tid: TaskId) -> bool {
        assert!(
            tid >= 1 && tid <= self.nslots(),
            "task id {tid} out of range for the hub"
        );
        let k = tid - 1;
        let fenced_up_to = {
            let mut slots = self.shared.lock_slots();
            let slot = &mut slots[k];
            if slot.live && slot.generation > slot.last_sent {
                return true; // a fresh, never-addressed connection is waiting
            }
            slot.fenced = slot.fenced.max(slot.generation);
            if let Some(writer) = slot.writer.take() {
                writer.shutdown(); // evict the straggler
                slot.live = false;
            }
            slot.fenced
        };
        let replaced = |slots: &[Slot]| slots[k].live && slots[k].generation > fenced_up_to;
        replaced(&self.shared.wait_slots(self.reconnect_patience, replaced))
    }
}

impl Drop for SocketHub {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Closing every connection unblocks the per-connection readers;
        // one connection of our own wakes the accept loop, which then
        // sees the flag. If nothing answers the dial (the socket file was
        // removed), the blocked thread cannot be woken: leave it rather
        // than hang here.
        for slot in self.shared.lock_slots().iter_mut() {
            if let Some(writer) = slot.writer.take() {
                writer.shutdown();
            }
            slot.live = false;
        }
        let woke = self.endpoint.connect().is_ok();
        if let Some(handle) = self.accept_thread.take() {
            if woke || handle.is_finished() {
                let _ = handle.join();
            }
        }
        if let Some(path) = &self.unlink {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------------
// Plain framed connections (no farm semantics)
// ---------------------------------------------------------------------------

/// A plain framed byte-stream connection: the farm's wire format
/// ([`crate::frame`]) without its handshake, slots or task identities.
/// This is the client side of ad-hoc request/stream protocols layered on
/// the same framing — e.g. the job server's SUBMIT/ACCEPTED/…/DONE
/// exchange — and, via [`FramedListener`], the server side too.
pub struct FramedConn {
    stream: Stream,
}

impl FramedConn {
    /// Connect to a framed listener at `endpoint`.
    pub fn dial(endpoint: &Endpoint) -> io::Result<FramedConn> {
        endpoint.connect().map(|stream| FramedConn { stream })
    }

    /// Bound how long [`recv`](FramedConn::recv) blocks; `None` blocks
    /// forever. A lapsed timeout surfaces as a
    /// [`FrameError::Io`] with kind `WouldBlock`/`TimedOut`.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Send one message as a frame. `from` is free-form peer identity
    /// (clients conventionally send 0).
    pub fn send<T: Wire>(&mut self, from: TaskId, tag: u32, msg: &T) -> Result<(), FrameError> {
        self.send_bytes(from, tag, &msg.to_bytes())
    }

    /// Send one pre-encoded payload as a frame.
    pub fn send_bytes(&mut self, from: TaskId, tag: u32, data: &[u8]) -> Result<(), FrameError> {
        write_frame(&mut self.stream, from, tag, data)
    }

    /// Receive one frame; `Ok(None)` is the peer's clean close.
    pub fn recv(&mut self) -> Result<Option<Envelope>, FrameError> {
        read_frame(&mut self.stream)
    }

    /// Clone the connection (shared underlying stream) — lets one half
    /// read while the other writes.
    pub fn try_clone(&self) -> io::Result<FramedConn> {
        self.stream.try_clone().map(|stream| FramedConn { stream })
    }

    /// Close both directions; unblocks a peer (or a clone) parked in a
    /// read.
    pub fn shutdown(&self) {
        self.stream.shutdown();
    }
}

/// A listener handing out [`FramedConn`]s: the server side of plain
/// framed protocols. Shares the hub's bind safety — a Unix endpoint
/// already served by a live listener is refused with
/// [`SocketError::AddrInUse`], and only stale socket files are reclaimed.
pub struct FramedListener {
    inner: Listener,
    unlink: Option<PathBuf>,
}

impl FramedListener {
    /// Bind on `endpoint` (probe-before-reclaim, like
    /// [`SocketHub::bind`]).
    pub fn bind(endpoint: &Endpoint) -> Result<FramedListener, SocketError> {
        let (inner, unlink) = bind_listener(endpoint)?;
        Ok(FramedListener { inner, unlink })
    }

    /// Accept one connection, blocking until one arrives.
    pub fn accept(&self) -> io::Result<FramedConn> {
        self.inner.accept().map(|stream| FramedConn { stream })
    }
}

impl Drop for FramedListener {
    fn drop(&mut self) {
        if let Some(path) = &self.unlink {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_unix(tag: &str) -> Endpoint {
        let path = std::env::temp_dir().join(format!(
            "mkp-sock-{tag}-{}-{:?}.sock",
            std::process::id(),
            std::thread::current().id()
        ));
        Endpoint::Unix(path)
    }

    const T: Duration = Duration::from_secs(5);

    /// A TCP endpoint on a port the OS just reported free.
    fn free_tcp() -> Endpoint {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        Endpoint::Tcp(probe.local_addr().unwrap().to_string())
    }

    /// Run `body` on its own thread and fail, rather than hang, when it
    /// has not finished within 10 s.
    fn within_10s(what: &str, body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(Duration::from_secs(10)) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: still running after 10 s"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{what}: panicked"),
        }
    }

    #[test]
    fn endpoint_parse_accepts_and_rejects() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/x.sock")))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:9000"),
            Ok(Endpoint::Tcp("127.0.0.1:9000".to_string()))
        );
        for (raw, needle) in [
            ("", "malformed address"),
            ("/tmp/x.sock", "malformed address"),
            ("unix:", "empty unix socket path"),
            ("tcp:9000", "missing a port"),
            ("tcp::9000", "empty host"),
            ("tcp:localhost:port", "malformed port"),
            ("tcp:localhost:0", "port 0"),
            ("tcp:localhost:99999", "malformed port"),
        ] {
            let err = Endpoint::parse(raw).unwrap_err();
            assert!(err.contains(needle), "{raw:?}: {err}");
        }
    }

    #[test]
    fn handshake_assigns_slots_and_envelopes_flow() {
        let ep = temp_unix("flow");
        let hub = SocketHub::bind(&ep, 2, T).unwrap();
        let a = SocketTransport::connect(&ep, None, 0).unwrap();
        let b = SocketTransport::connect(&ep, None, 0).unwrap();
        let mut tids = [a.tid(), b.tid()];
        tids.sort();
        assert_eq!(tids, [1, 2]);
        assert_eq!(a.ntasks(), 3);
        assert_eq!(hub.wait_ready(T), 2);

        // Hub → slave and back.
        hub.send_bytes(b.tid(), 7, vec![0; 8]).unwrap();
        hub.send_bytes(a.tid(), 7, vec![1, 2, 3]).unwrap();
        let env = a.recv_timeout(T).unwrap();
        assert_eq!(
            (env.from, env.tag, env.data.as_slice()),
            (0, 7, &[1u8, 2, 3][..])
        );
        a.send_bytes(0, 9, vec![4, 5]).unwrap();
        let env = hub.recv_timeout(T).unwrap();
        assert_eq!(
            (env.from, env.tag, env.data.as_slice()),
            (a.tid(), 9, &[4u8, 5][..])
        );

        // Both ends counted once, at the boundary.
        let hs = Transport::comm_stats(&hub);
        assert_eq!((hs.sent, hs.received), (2, 1));
        assert_eq!((hs.bytes_sent, hs.bytes_received), (11, 2));
    }

    #[test]
    fn a_silent_connection_does_not_block_other_slaves() {
        let ep = temp_unix("silent");
        let Endpoint::Unix(path) = &ep else {
            unreachable!()
        };
        let hub = SocketHub::bind(&ep, 1, T).unwrap();
        // A peer that connects and never says HELLO, like a port probe.
        let silent = UnixStream::connect(path).unwrap();
        let slave = std::thread::spawn({
            let ep = ep.clone();
            move || SocketTransport::connect(&ep, None, 0)
        });
        assert_eq!(hub.wait_ready(Duration::from_secs(2)), 1);
        assert_eq!(slave.join().unwrap().unwrap().tid(), 1);
        drop(silent);
    }

    #[test]
    fn a_hub_no_slave_ever_reached_drops_without_hanging() {
        for ep in [temp_unix("idle"), free_tcp()] {
            within_10s(&format!("dropping an idle hub on {ep}"), move || {
                let hub = SocketHub::bind(&ep, 2, T).unwrap();
                assert_eq!(hub.wait_ready(Duration::ZERO), 0);
                drop(hub);
                // The accept thread is gone with its listener: the
                // endpoint binds again.
                drop(SocketHub::bind(&ep, 1, T).unwrap());
            });
        }
    }

    #[test]
    fn requested_slot_is_honored_when_free() {
        let ep = temp_unix("slot");
        let _hub = SocketHub::bind(&ep, 3, T).unwrap();
        // Slot 1 serves task 2.
        let b = SocketTransport::connect(&ep, Some(1), 0).unwrap();
        assert_eq!(b.tid(), 2);
        let a = SocketTransport::connect(&ep, Some(1), 0).unwrap();
        assert_ne!(a.tid(), 2, "occupied slot handed out twice");
    }

    #[test]
    fn full_hub_rejects_extra_connections() {
        let ep = temp_unix("full");
        let hub = SocketHub::bind(&ep, 1, T).unwrap();
        let _a = SocketTransport::connect(&ep, None, 0).unwrap();
        assert_eq!(hub.wait_ready(T), 1);
        match SocketTransport::connect(&ep, None, 0) {
            Err(SocketError::Rejected) => {}
            Err(SocketError::Io(_)) => {} // close may race the handshake read
            Err(other) => panic!("expected rejection, got {other:?}"),
            Ok(t) => panic!("expected rejection, got slot {}", t.tid()),
        }
    }

    #[test]
    fn reconnect_reclaims_the_slot_and_respawn_fences_stale_frames() {
        let ep = temp_unix("fence");
        let hub = SocketHub::bind(&ep, 1, T).unwrap();
        let first = SocketTransport::connect(&ep, None, 0).unwrap();
        assert_eq!(hub.wait_ready(T), 1);
        hub.send_bytes(1, 2, vec![0]).unwrap(); // an "assignment"
        first.recv_timeout(T).unwrap();
        // The straggler pushes a frame the master has not consumed yet,
        // then the supervision decides to replace it.
        first.send_bytes(0, 3, vec![9, 9]).unwrap();
        // Give the hub's reader a moment to buffer the stale frame.
        std::thread::sleep(Duration::from_millis(50));
        let respawned = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| Transport::respawn(&hub, 1));
            // The evicted slave observes the shutdown and reconnects, as
            // the remote serve loop would.
            let reborn = loop {
                match SocketTransport::connect(&ep, Some(0), 1) {
                    Ok(t) => break t,
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            };
            assert_eq!(reborn.tid(), 1);
            let ok = waiter.join().expect("respawn waiter");
            (ok, reborn)
        });
        assert!(respawned.0, "respawn never saw the reconnect");
        // The stale pre-fence frame is dropped, not delivered.
        assert!(matches!(
            hub.recv_timeout(Duration::from_millis(200)),
            Err(CommError::Timeout)
        ));
        assert_eq!(hub.hub_stats().fenced_drops, 1);
        assert_eq!(hub.hub_stats().reconnects, 1);
        // The reborn connection's frames flow.
        respawned.1.send_bytes(0, 3, vec![7]).unwrap();
        let env = hub.recv_timeout(T).unwrap();
        assert_eq!(env.data, vec![7]);
    }

    #[test]
    fn respawn_adopts_a_fresh_unaddressed_connection() {
        let ep = temp_unix("adopt");
        let hub = SocketHub::bind(&ep, 1, T).unwrap();
        {
            let first = SocketTransport::connect(&ep, None, 0).unwrap();
            assert_eq!(hub.wait_ready(T), 1);
            hub.send_bytes(1, 2, vec![0]).unwrap();
            first.recv_timeout(T).unwrap();
            // first dies (dropped: stream shut down).
        }
        // The replacement connects before the master notices the death.
        let reborn = SocketTransport::connect(&ep, Some(0), 1).unwrap();
        assert_eq!(hub.wait_ready(T), 1);
        // respawn must adopt it instantly instead of fencing it.
        assert!(Transport::respawn(&hub, 1));
        hub.send_bytes(1, 2, vec![5]).unwrap();
        let env = reborn.recv_timeout(T).unwrap();
        assert_eq!(env.data, vec![5]);
        assert_eq!(hub.hub_stats().fenced_drops, 0);
    }

    #[test]
    fn second_bind_on_a_live_endpoint_is_refused_and_the_server_survives() {
        // Regression: SocketHub::bind used to remove_file the path
        // unconditionally, silently destroying a live server's endpoint.
        let ep = temp_unix("inuse");
        let hub = SocketHub::bind(&ep, 1, T).unwrap();
        match SocketHub::bind(&ep, 1, T) {
            Err(SocketError::AddrInUse { endpoint }) => {
                assert_eq!(endpoint, ep.to_string());
            }
            Err(other) => panic!("expected AddrInUse, got {other:?}"),
            Ok(_) => panic!("expected AddrInUse, got a second hub"),
        }
        // The first hub's endpoint still works end to end (the failed
        // bind neither unlinked the path nor consumed a slot with its
        // probe connection).
        let slave = SocketTransport::connect(&ep, None, 0).unwrap();
        assert_eq!(hub.wait_ready(T), 1);
        hub.send_bytes(1, 2, vec![8]).unwrap();
        assert_eq!(slave.recv_timeout(T).unwrap().data, vec![8]);
    }

    #[test]
    fn stale_socket_file_is_reclaimed() {
        // A socket file whose owner is gone (dropped listener leaves the
        // file when unlink is skipped) must not block a fresh bind.
        let ep = temp_unix("stale");
        let Endpoint::Unix(path) = &ep else {
            unreachable!()
        };
        let dead = UnixListener::bind(path).unwrap();
        drop(dead); // close without unlinking: the stale-file shape
        assert!(path.exists(), "stale socket file should linger");
        let hub = SocketHub::bind(&ep, 1, T).unwrap();
        let slave = SocketTransport::connect(&ep, None, 0).unwrap();
        assert_eq!(hub.wait_ready(T), 1);
        drop(slave);
    }

    #[test]
    fn oversized_send_is_rejected_and_the_link_survives() {
        use crate::frame::MAX_FRAME_PAYLOAD;
        let ep = temp_unix("bigsend");
        let hub = SocketHub::bind(&ep, 1, T).unwrap();
        let slave = SocketTransport::connect(&ep, None, 0).unwrap();
        assert_eq!(hub.wait_ready(T), 1);

        let big = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        let err = slave.send_bytes(0, 3, big).unwrap_err();
        assert!(matches!(err, CommError::Oversized { .. }), "{err:?}");
        let err = hub
            .send_bytes(1, 3, vec![0u8; MAX_FRAME_PAYLOAD + 1])
            .unwrap_err();
        assert!(matches!(err, CommError::Oversized { .. }), "{err:?}");

        // Neither direction tore the connection down: ordinary traffic
        // still flows both ways after the rejections.
        slave.send_bytes(0, 4, vec![1]).unwrap();
        assert_eq!(hub.recv_timeout(T).unwrap().data, vec![1]);
        hub.send_bytes(1, 5, vec![2]).unwrap();
        assert_eq!(slave.recv_timeout(T).unwrap().data, vec![2]);
    }

    #[test]
    fn framed_conn_round_trips_over_a_framed_listener() {
        let ep = temp_unix("framed");
        let listener = FramedListener::bind(&ep).unwrap();
        let client = std::thread::spawn({
            let ep = ep.clone();
            move || {
                let mut conn = FramedConn::dial(&ep).unwrap();
                conn.send_bytes(0, 11, b"ping").unwrap();
                let reply = conn.recv().unwrap().expect("reply");
                assert_eq!((reply.tag, reply.data.as_slice()), (12, &b"pong"[..]));
                assert!(conn.recv().unwrap().is_none(), "clean close after");
            }
        });
        let mut server = listener.accept().unwrap();
        let env = server.recv().unwrap().expect("request");
        assert_eq!((env.tag, env.data.as_slice()), (11, &b"ping"[..]));
        server.send_bytes(0, 12, b"pong").unwrap();
        server.shutdown();
        client.join().unwrap();
        // And the listener refuses to be displaced while alive.
        assert!(matches!(
            FramedListener::bind(&ep),
            Err(SocketError::AddrInUse { .. })
        ));
    }

    use crate::netfault::NetFaultPlan;

    /// Short recv window for "nothing must arrive" assertions.
    const SHORT: Duration = Duration::from_millis(200);

    fn armed(spec: &str) -> Arc<NetFaultState> {
        Arc::new(NetFaultState::new(NetFaultPlan::parse(spec).unwrap()))
    }

    #[test]
    fn net_fault_drop_swallows_the_nth_slave_frame() {
        let ep = temp_unix("nfdrop");
        let hub = SocketHub::bind(&ep, 1, T).unwrap();
        let fault = armed("drop@2");
        let slave = SocketTransport::connect_with(&ep, None, 0, Some(Arc::clone(&fault))).unwrap();
        assert_eq!(hub.wait_ready(T), 1);
        for k in 1..=3u8 {
            slave.send_bytes(0, 1, vec![k]).unwrap();
        }
        assert_eq!(hub.recv_timeout(T).unwrap().data, vec![1]);
        assert_eq!(hub.recv_timeout(T).unwrap().data, vec![3]);
        assert!(matches!(hub.recv_timeout(SHORT), Err(CommError::Timeout)));
        assert_eq!(fault.injected(), 1);
    }

    #[test]
    fn net_fault_duplicate_sends_the_hub_frame_twice() {
        let ep = temp_unix("nfdup");
        let fault = armed("dup@1");
        let hub = SocketHub::bind_with(&ep, 1, T, Some(Arc::clone(&fault))).unwrap();
        let slave = SocketTransport::connect(&ep, None, 0).unwrap();
        assert_eq!(hub.wait_ready(T), 1);
        hub.send_bytes(1, 2, vec![7]).unwrap();
        hub.send_bytes(1, 2, vec![8]).unwrap();
        assert_eq!(slave.recv_timeout(T).unwrap().data, vec![7]);
        assert_eq!(slave.recv_timeout(T).unwrap().data, vec![7]);
        assert_eq!(slave.recv_timeout(T).unwrap().data, vec![8]);
        assert_eq!(fault.injected(), 1);
    }

    #[test]
    fn net_fault_corrupt_frame_is_dropped_and_counted_hub_side() {
        let ep = temp_unix("nfcorrupt");
        let hub = SocketHub::bind(&ep, 1, T).unwrap();
        let fault = armed("corrupt@2");
        let slave = SocketTransport::connect_with(&ep, None, 0, Some(Arc::clone(&fault))).unwrap();
        assert_eq!(hub.wait_ready(T), 1);
        for k in 1..=3u8 {
            slave.send_bytes(0, 1, vec![k]).unwrap();
        }
        // The damaged frame vanishes; the stream stays in sync and the
        // frame after it arrives intact.
        assert_eq!(hub.recv_timeout(T).unwrap().data, vec![1]);
        assert_eq!(hub.recv_timeout(T).unwrap().data, vec![3]);
        assert_eq!(hub.hub_stats().corrupt_drops, 1);
        assert_eq!(fault.injected(), 1);
    }

    #[test]
    fn net_fault_corrupt_frame_is_dropped_and_counted_client_side() {
        let ep = temp_unix("nfcorrupt2");
        let fault = armed("corrupt@1");
        let hub = SocketHub::bind_with(&ep, 1, T, Some(Arc::clone(&fault))).unwrap();
        let slave = SocketTransport::connect(&ep, None, 0).unwrap();
        assert_eq!(hub.wait_ready(T), 1);
        hub.send_bytes(1, 2, vec![9]).unwrap();
        hub.send_bytes(1, 2, vec![5]).unwrap();
        assert_eq!(slave.recv_timeout(T).unwrap().data, vec![5]);
        assert_eq!(slave.corrupt_drops(), 1);
        assert_eq!(fault.injected(), 1);
    }

    #[test]
    fn net_fault_truncate_kills_the_link_mid_frame_without_hanging() {
        let ep = temp_unix("nftrunc");
        let hub = SocketHub::bind(&ep, 1, T).unwrap();
        let fault = armed("truncate@2");
        let slave = SocketTransport::connect_with(&ep, None, 0, Some(Arc::clone(&fault))).unwrap();
        assert_eq!(hub.wait_ready(T), 1);
        slave.send_bytes(0, 1, vec![1]).unwrap();
        assert_eq!(hub.recv_timeout(T).unwrap().data, vec![1]);
        // The truncated frame's tail never arrives; the hub sees the
        // stream die mid-frame, not a hang.
        slave.send_bytes(0, 1, vec![2]).unwrap();
        assert!(matches!(hub.recv_timeout(SHORT), Err(CommError::Timeout)));
        assert_eq!(fault.injected(), 1);
        // The cut is fatal for the connection — exactly what a flaky
        // network does — and a reconnect restores service.
        let reborn = SocketTransport::connect(&ep, Some(0), 1).unwrap();
        assert_eq!(hub.wait_ready(T), 1);
        reborn.send_bytes(0, 1, vec![3]).unwrap();
        assert_eq!(hub.recv_timeout(T).unwrap().data, vec![3]);
    }

    #[test]
    fn net_fault_delay_holds_the_frame_then_delivers_it_intact() {
        let ep = temp_unix("nfdelay");
        let hub = SocketHub::bind(&ep, 1, T).unwrap();
        let fault = armed("delay@1:300");
        let slave = SocketTransport::connect_with(&ep, None, 0, Some(Arc::clone(&fault))).unwrap();
        assert_eq!(hub.wait_ready(T), 1);
        let before = Instant::now();
        slave.send_bytes(0, 1, vec![4]).unwrap();
        assert_eq!(hub.recv_timeout(T).unwrap().data, vec![4]);
        assert!(
            before.elapsed() >= Duration::from_millis(300),
            "frame arrived before the delay lapsed"
        );
        assert_eq!(fault.injected(), 1);
    }

    #[test]
    fn connect_with_retry_gives_up_against_a_dead_address() {
        let ep = temp_unix("nfretry");
        let before = Instant::now();
        let err = match SocketTransport::connect_with_retry(
            &ep,
            None,
            0,
            Duration::from_millis(300),
            None,
        ) {
            Ok(_) => panic!("expected Unreachable, got a transport"),
            Err(e) => e,
        };
        match &err {
            SocketError::Unreachable {
                endpoint,
                attempts,
                patience,
            } => {
                assert_eq!(*endpoint, ep.to_string());
                assert!(*attempts >= 1);
                assert_eq!(*patience, Duration::from_millis(300));
            }
            other => panic!("expected Unreachable, got {other:?}"),
        }
        assert!(
            before.elapsed() < Duration::from_secs(5),
            "retry loop overshot its total deadline"
        );
        assert!(err.to_string().contains("no listener at"));
    }

    #[test]
    fn dead_slot_send_reports_peer_gone() {
        let ep = temp_unix("gone");
        let hub = SocketHub::bind(&ep, 1, Duration::from_millis(100));
        let hub = hub.unwrap();
        assert!(matches!(
            hub.send_bytes(1, 1, vec![1]),
            Err(CommError::PeerGone { to: 1 })
        ));
        // And respawn on a never-connected slot times out cleanly.
        assert!(!Transport::respawn(&hub, 1));
    }
}
