//! # sq-server — the serving layer
//!
//! ROADMAP item 3 ("Serve it"): the paper's SubmitQueue is a service
//! thousands of engineers hit concurrently, so the reproduction fronts
//! [`DurableSubmitQueue`](sq_core::DurableSubmitQueue) with a real
//! socket instead of an in-process simulation loop.
//!
//! * [`protocol`] — the length-prefixed, CRC-framed binary protocol
//!   (`Enqueue`, `Status`, `SubscribeVerdict`, `Stats`, `Head`),
//!   reusing the journal's codec and checksum so a frame arrives
//!   exactly as framed or is refused whole.
//! * [`server`] — the thread-per-connection request loop over TCP and
//!   Unix-domain listeners: bounded backpressure with explicit `Busy`
//!   replies, journal-before-ack enqueues, graceful drain that loses
//!   zero acked work across a restart.
//! * [`client`] — a blocking client with an explicit pipelining split,
//!   used by the tests and by `benchmark/`'s load generator.
//!
//! Zero lost acks across a drain/restart is held by
//! `tests/server_loop.rs`; what the path costs on the wall clock is
//! `benchmark/`'s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{
    decode_frame, encode_frame, ErrorCode, FrameError, FramePoll, FrameReadError, FrameReader,
    Request, Response, WireError, MAX_FRAME_BYTES,
};
pub use server::{Endpoint, Server, ServerConfig};
// The wall-clock benchmark (`benchmark/src/serve.rs`) still imports the
// ticket state under its old wire name; nothing in this workspace does.
pub use sq_core::TicketState as WireTicketState;
