#![warn(missing_docs)]
//! Framed wire protocol of the placement service (std-only; see
//! DESIGN.md §"Wire protocol").
//!
//! Layers, bottom up:
//!
//! * [`frame`] — length-prefixed frames: a 16-byte header (magic,
//!   payload length, FNV-1a checksum) in front of an opaque payload.
//!   Truncated, oversized, and corrupt frames are rejected as typed
//!   errors, never panics.
//! * [`msg`] — the message vocabulary (`Hello`/`PlaceRequest`/
//!   `PlaceResponse`/`Shutdown`/`Error`) as mars-json payloads. Every
//!   64-bit integer crosses the wire as the hex string of its bits, so
//!   fingerprints and request ids decode exactly.
//! * [`transport`] — one address grammar (`host:port` or
//!   `unix:<path>`), with [`transport::Conn`] unifying TCP and Unix
//!   streams and `send_msg`/`recv_msg` bumping the `net.*` telemetry
//!   counters.

pub mod frame;
pub mod msg;
pub mod transport;

pub use frame::{Decoder, FrameError, HEADER_LEN, MAX_PAYLOAD};
pub use msg::{Msg, PROTOCOL_VERSION};
pub use transport::{recv_msg, send_msg, Addr, Conn, Listener};
