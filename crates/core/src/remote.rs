//! Distributed runs: the same master/slave protocol across process
//! boundaries (DESIGN.md §13).
//!
//! [`run_remote`] is the master side — it binds a [`SocketHub`], waits for
//! `cfg.p` slave processes to connect, and drives the *identical*
//! [`master_loop`] the in-process engine uses, now over the socket
//! transport. [`serve_slave`] is the slave side — a connect-with-backoff
//! loop around the engine's [`slave_loop`], reconnecting when the link
//! drops (which is exactly what the master's resurrection machinery waits
//! for) and exiting cleanly on STOP.
//!
//! What the engine calls a *resurrection* becomes, over sockets, a
//! *reconnect*: [`Transport::respawn`] on the hub fences the dead
//! connection's leftover frames and adopts the slave's fresh connection,
//! after which the master re-sends `ProblemMsg`/`SeedMsg`/`AssignMsg`
//! exactly as for an in-process rebirth. The epoch tags on assignments and
//! reports (PR 4) plus the hub's generation fencing together guarantee a
//! reborn slave's stale reports never reach the round loop.

use crate::engine::{
    admit, finished_only, fold_comm_stats, master_loop, slave_loop, stop_farm, EngineError,
    SlaveExit,
};
use crate::runner::{Mode, ModeReport, RunConfig};
use crate::telemetry::{Counter, Telemetry};
use mkp::Instance;
use pvm_lite::{Endpoint, NetFaultState, SocketError, SocketHub, SocketTransport, Transport};
use std::sync::Arc;
use std::time::Duration;

/// How many connect-then-hear-nothing cycles a slave that has never
/// heard from its master rides out before concluding the listener is a
/// zombie. Each cycle already waits the full patience inside the slave
/// loop, so three silent cycles mean 3× patience with zero master
/// traffic — long past any plausible master start.
const MAX_SILENT_RECONNECTS: u64 = 3;

/// Run `mode` as a distributed master: listen on `listen`, wait up to the
/// configured patience for `cfg.p` slave processes, then drive the engine's
/// round loop over the socket transport. Socket transport counters
/// (reconnects, fenced frame drops) are folded into the report's telemetry
/// next to the message/byte totals.
///
/// Fault injection is an in-process pool feature and is rejected here by
/// the CLI; real process death plays its role in distributed runs.
pub fn run_remote(
    inst: &Instance,
    mode: Mode,
    cfg: &RunConfig,
    listen: &Endpoint,
) -> Result<ModeReport, EngineError> {
    run_remote_with(inst, mode, cfg, listen, None)
}

/// [`run_remote`] with a hub-side [`NetFaultState`] armed on the send
/// path (the CLI's `--net-fault` on `solve --listen`).
pub fn run_remote_with(
    inst: &Instance,
    mode: Mode,
    cfg: &RunConfig,
    listen: &Endpoint,
    fault: Option<Arc<NetFaultState>>,
) -> Result<ModeReport, EngineError> {
    let mut policy = admit(inst, mode, cfg, None, None)?;
    let active = policy.active_workers(cfg);
    let hub = connect_fleet(listen, active, cfg.patience(), fault)
        .map_err(|detail| EngineError::Unsupported { detail })?;

    // Slot 0 is the master; remote slaves keep their own counters in their
    // own processes, so only the master row is filled here.
    let tel = Telemetry::new(hub.ntasks());
    let result = master_loop(&hub, inst, &mut *policy, cfg, None, None, &tel);
    stop_farm(&hub);

    fold_comm_stats(&tel, 0, &Transport::comm_stats(&hub));
    let hub_stats = hub.hub_stats();
    tel.add(0, Counter::Reconnects, hub_stats.reconnects);
    tel.add(0, Counter::FencedDrops, hub_stats.fenced_drops);
    tel.add(0, Counter::CorruptDrops, hub_stats.corrupt_drops);

    let mut report = finished_only(result?)?;
    report.telemetry = tel.snapshot();
    Ok(report)
}

/// Stand up a slave fleet: bind a hub of `p` slots on `endpoint` and
/// wait up to `patience` for every slot to fill. A distributed run and
/// the job server's socket backend both start their farm here.
pub(crate) fn connect_fleet(
    endpoint: &Endpoint,
    p: usize,
    patience: Duration,
    fault: Option<Arc<NetFaultState>>,
) -> Result<SocketHub, String> {
    let hub = SocketHub::bind_with(endpoint, p, patience, fault)
        .map_err(|e| format!("cannot listen for slaves on {endpoint}: {e}"))?;
    let connected = hub.wait_ready(patience);
    if connected < p {
        return Err(format!(
            "only {connected} of {p} slaves connected to {endpoint} within {patience:?}; \
             start the missing `mkp slave --connect {endpoint}` processes first"
        ));
    }
    Ok(hub)
}

/// How a completed [`serve_slave`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The master said STOP: the run finished.
    Finished,
    /// The link dropped and no reconnect succeeded within `patience`.
    MasterLost,
}

/// Serve as a remote slave: connect to `connect` (retrying with jittered
/// backoff under a total deadline of `patience`), run the engine's slave
/// loop, and reconnect whenever the link drops mid-run — a dropped link
/// is either a master restart or our own eviction by the master's
/// resurrection, and in both cases the correct move is to come back for
/// a fresh `ProblemMsg`. Returns [`ServeOutcome::Finished`] on a clean
/// STOP, and an error naming the fault when the master sends a frame
/// the slave cannot act on.
///
/// Two bounds keep an orphan from spinning forever: the connect loop
/// itself gives up once `patience` lapses without a listener answering
/// ([`SocketTransport::connect_with_retry`]), and a listener that
/// accepts but has never spoken is abandoned after
/// [`MAX_SILENT_RECONNECTS`] traffic-less cycles. A master that has
/// spoken is served for as long as its endpoint answers, however long it
/// stays silent: a job server sends its slaves nothing between jobs.
/// Both bounds end as [`ServeOutcome::MasterLost`] (exit 2 at the CLI)
/// when the master had ever been reached, and as an error (exit 1) when
/// it never was.
pub fn serve_slave(connect: &Endpoint, patience: Duration) -> Result<ServeOutcome, String> {
    serve_slave_with(connect, patience, None)
}

/// [`serve_slave`] with a slave-side [`NetFaultState`] armed on the send
/// path (the CLI's `--net-fault` on `mkp slave`). The state is shared
/// across reconnects, so a one-shot fault stays one-shot.
pub fn serve_slave_with(
    connect: &Endpoint,
    patience: Duration,
    fault: Option<Arc<NetFaultState>>,
) -> Result<ServeOutcome, String> {
    let mut slot: Option<usize> = None;
    let mut attempt: u64 = 0;
    let mut heard = false;
    loop {
        let transport = match SocketTransport::connect_with_retry(
            connect,
            slot,
            attempt,
            patience,
            fault.clone(),
        ) {
            Ok((t, _tries)) => t,
            Err(SocketError::Rejected) => {
                return Err(format!(
                    "hub at {connect} has no free slot: too many slaves for this master"
                ));
            }
            Err(e @ SocketError::Unreachable { .. }) => {
                return if attempt == 0 {
                    // First contact: the master never came up at all.
                    Err(format!("no master reachable: {e}"))
                } else {
                    Ok(ServeOutcome::MasterLost)
                };
            }
            Err(e) => return Err(format!("cannot connect to {connect}: {e}")),
        };
        // Remember our identity so a reconnect reclaims the same slot (and
        // with it the master's banked History for this worker).
        slot = Some(transport.tid() - 1);
        attempt += 1;

        let tel = Telemetry::new(transport.ntasks());
        let heard_before = Transport::comm_stats(&transport).received;
        match slave_loop(&transport, patience, &tel) {
            SlaveExit::Stopped => return Ok(ServeOutcome::Finished),
            SlaveExit::Protocol(detail) => {
                return Err(format!(
                    "protocol violation by the master at {connect}: {detail}"
                ));
            }
            SlaveExit::Lost => {
                // The link dropped or a whole patience passed in silence:
                // reconnect, which also checks that the master's endpoint
                // still answers — unless the listener has only ever
                // accepted us and said nothing, in which case it is a
                // zombie and we are the orphan that must stop.
                heard |= Transport::comm_stats(&transport).received > heard_before;
                if !heard && attempt >= MAX_SILENT_RECONNECTS {
                    return Ok(ServeOutcome::MasterLost);
                }
            }
        }
    }
}
