//! # pvm-lite — PVM-style message passing over OS threads
//!
//! The paper ran its master/slave cooperative search on a farm of 16 Alpha
//! processors "connected by a high speed optic fiber crossbar", talking
//! through the PVM library. This crate is the faithful thread-level stand-in
//! (DESIGN.md §4): tasks address each other by dense task ids, marshal
//! messages through explicit pack/unpack buffers ([`codec`]), exchange them
//! over reliable ordered mailboxes ([`farm`]), and rendezvous at round
//! boundaries by messages alone. The cooperation logic upstairs
//! never touches a thread primitive directly — it speaks only this API, as
//! the original spoke PVM.
//!
//! ```
//! use pvm_lite::{run_farm, codec::{Wire, PackBuffer, UnpackBuffer, CodecError}};
//! use std::time::Duration;
//!
//! struct Ping(u64);
//! impl Wire for Ping {
//!     fn pack(&self, b: &mut PackBuffer) { b.put_u64(self.0) }
//!     fn unpack(b: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
//!         Ok(Ping(b.get_u64()?))
//!     }
//! }
//!
//! let results = run_farm(2, |ctx| {
//!     if ctx.tid() == 0 {
//!         ctx.send(1, 0, &Ping(41)).unwrap();
//!         ctx.recv_timeout(Duration::from_secs(5)).unwrap()
//!             .decode::<Ping>().unwrap().0
//!     } else {
//!         let n = ctx.recv_timeout(Duration::from_secs(5)).unwrap()
//!             .decode::<Ping>().unwrap().0;
//!         ctx.send(0, 0, &Ping(n + 1)).unwrap();
//!         0
//!     }
//! }).unwrap();
//! assert_eq!(results[0], 42);
//! ```

#![warn(missing_docs)]

pub mod channel;
pub mod codec;
pub mod collectives;
pub mod farm;
pub mod frame;
pub mod netfault;
pub mod socket;
pub mod transport;

pub use codec::{fnv1a_64, CodecError, PackBuffer, UnpackBuffer, Wire};
pub use collectives::{CollectiveError, Collectives, PartialGather};
pub use farm::{
    run_farm, CommError, CommStats, Envelope, FarmError, FaultAction, FaultPlan, TaskCtx, TaskId,
    TaskOutcome, WorkerPool,
};
pub use frame::{
    encode_frame, read_frame, write_frame, FrameError, FRAME_HEADER_LEN, FRAME_TRAILER_LEN,
    MAX_FRAME_PAYLOAD,
};
pub use netfault::{NetFaultAction, NetFaultPlan, NetFaultState};
pub use socket::{
    Endpoint, FramedConn, FramedListener, HubStats, SocketError, SocketHub, SocketTransport,
};
pub use transport::{InProc, Transport};
