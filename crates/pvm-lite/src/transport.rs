//! The [`Transport`] trait: the communication surface the cooperation
//! protocol is written against.
//!
//! Everything upstairs — the engine's master and slave loops — addresses
//! peers by dense [`TaskId`], exchanges tagged [`Envelope`]s, and
//! observes failures as [`CommError`]. This trait captures exactly that
//! surface (plus the one collective the protocol needs,
//! [`broadcast`](Transport::broadcast)) so the same protocol code runs
//! over two very different substrates:
//!
//! * **In-process** — the `std::sync::mpsc` mailboxes of [`TaskCtx`]; the
//!   trait impl delegates to the inherent methods, so behavior (and
//!   bit-level determinism) is unchanged.
//! * **Sockets** — [`crate::socket`]: the same envelopes as
//!   length-prefixed frames over Unix or TCP streams, with a handshake,
//!   reconnect and epoch fencing for peers in other processes.
//!
//! The supervision hooks ([`respawn`](Transport::respawn),
//! [`notify_orphans`](Transport::notify_orphans)) default to "not
//! supported": a backend that cannot resurrect peers simply reports the
//! respawn as failed and the caller falls back to quarantine.

use crate::codec::Wire;
use crate::farm::{CommError, CommStats, Envelope, TaskCtx, TaskId};
use std::time::Duration;

/// A task's endpoint in some message-passing substrate.
///
/// Semantics every implementation must honor (they are what the protocol
/// layer relies on):
///
/// * Per-peer FIFO: two sends from the same peer are received in order.
/// * [`send_bytes`](Transport::send_bytes) to a dead peer fails with
///   [`CommError::PeerGone`]; it never blocks indefinitely.
/// * [`recv_timeout`](Transport::recv_timeout) returns
///   [`CommError::Timeout`] on an elapsed deadline and
///   [`CommError::Disconnected`] once no live peer can ever send again.
/// * [`comm_stats`](Transport::comm_stats) counts envelopes and payload
///   bytes exactly once, at the transport boundary — identical runs over
///   different backends report identical message counts.
pub trait Transport {
    /// This endpoint's task id (0 is the master by farm convention).
    fn tid(&self) -> TaskId;

    /// Number of tasks in the farm, this one included.
    fn ntasks(&self) -> usize;

    /// Send packed bytes to task `to`.
    fn send_bytes(&self, to: TaskId, tag: u32, data: Vec<u8>) -> Result<(), CommError>;

    /// Block until a message arrives or the timeout elapses. Timeouts too
    /// large for a deadline mean "wait forever".
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, CommError>;

    /// This endpoint's cumulative communication totals.
    fn comm_stats(&self) -> CommStats;

    /// Pack and send a typed message.
    fn send<T: Wire>(&self, to: TaskId, tag: u32, msg: &T) -> Result<(), CommError> {
        self.send_bytes(to, tag, msg.to_bytes())
    }

    /// Pack `msg` once and send it to every other task (`pvm_mcast`).
    fn broadcast<T: Wire>(&self, tag: u32, msg: &T) -> Result<(), CommError> {
        let bytes = msg.to_bytes();
        for to in (0..self.ntasks()).filter(|&to| to != self.tid()) {
            self.send_bytes(to, tag, bytes.clone())?;
        }
        Ok(())
    }

    /// Block until a message arrives.
    fn recv(&self) -> Result<Envelope, CommError> {
        self.recv_timeout(Duration::MAX)
    }

    /// Supervision hook: bring a fresh incarnation of task `tid` into the
    /// farm (in-process: respawn the task closure; sockets: fence the old
    /// connection and wait for the peer to reconnect). Returns `false`
    /// when the backend cannot produce one — the default for transports
    /// without supervision.
    fn respawn(&self, tid: TaskId) -> bool {
        let _ = tid;
        false
    }

    /// Supervision hook: nudge superseded incarnations with an empty
    /// message of `tag` so they can exit promptly. No-op by default (a
    /// socket backend has no orphans: fencing closes the connection).
    fn notify_orphans(&self, tag: u32) {
        let _ = tag;
    }
}

impl Transport for TaskCtx {
    fn tid(&self) -> TaskId {
        TaskCtx::tid(self)
    }

    fn ntasks(&self) -> usize {
        TaskCtx::ntasks(self)
    }

    fn send_bytes(&self, to: TaskId, tag: u32, data: Vec<u8>) -> Result<(), CommError> {
        TaskCtx::send_bytes(self, to, tag, data)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, CommError> {
        TaskCtx::recv_timeout(self, timeout)
    }

    fn comm_stats(&self) -> CommStats {
        TaskCtx::comm_stats(self)
    }

    fn respawn(&self, tid: TaskId) -> bool {
        TaskCtx::respawn(self, tid)
    }

    fn notify_orphans(&self, tag: u32) {
        TaskCtx::notify_orphans(self, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecError, PackBuffer, UnpackBuffer};
    use crate::farm::run_farm;

    #[derive(Debug, Clone, PartialEq)]
    struct Num(i64);
    impl Wire for Num {
        fn pack(&self, buf: &mut PackBuffer) {
            buf.put_i64(self.0);
        }
        fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
            Ok(Num(buf.get_i64()?))
        }
    }

    /// Protocol code written against the trait, exercised in process.
    fn ping<C: Transport>(ctx: &C) -> i64 {
        if ctx.tid() == 0 {
            ctx.send(1, 1, &Num(20)).unwrap();
            let reply = ctx.recv_timeout(Duration::from_secs(5)).unwrap();
            reply.decode::<Num>().unwrap().0
        } else {
            let n = ctx
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .decode::<Num>()
                .unwrap();
            ctx.send(0, 2, &Num(n.0 + 1)).unwrap();
            0
        }
    }

    #[test]
    fn inproc_satisfies_the_trait() {
        let r = run_farm(2, |ctx| ping(&ctx)).unwrap();
        assert_eq!(r[0], 21);
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let r = run_farm(4, |ctx| {
            if ctx.tid() == 0 {
                ctx.broadcast(1, &Num(99)).unwrap();
                0
            } else {
                let env = ctx.recv_timeout(Duration::from_secs(5)).unwrap();
                env.decode::<Num>().unwrap().0
            }
        })
        .unwrap();
        assert_eq!(r, vec![0, 99, 99, 99]);
    }

    #[test]
    fn trait_comm_stats_match_the_boundary() {
        let r = run_farm(2, |ctx| {
            ping(&ctx);
            let stats = Transport::comm_stats(&ctx);
            (stats.sent, stats.received, stats.bytes_sent)
        })
        .unwrap();
        assert_eq!(r[0], (1, 1, 8));
        assert_eq!(r[1], (1, 1, 8));
    }
}
