//! seqdb wire server and client.
//!
//! The network front end that turns the engine's overload machinery —
//! sessions, `KILL`, the admission pool, the DMVs — into real service
//! robustness (*Röhm & Blakeley, CIDR 2009* assume the genomics
//! database is a shared server labs hit concurrently):
//!
//! * [`protocol`] — length-prefixed frames, typed error codes, bounded
//!   frame sizes;
//! * [`server`] — thread-per-connection listener with bounded
//!   connection count, idle/write timeouts, auto-`KILL` on client
//!   disconnect, seeded network fault injection and graceful drain;
//! * [`client`] — the matching blocking client, used by `report
//!   server` and the integration suite.

#![deny(unsafe_code)]
// A server must not die on a recoverable error: every fallible path
// propagates `DbError` instead of unwrapping. Tests may unwrap.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use server::{DrainReport, Server, ServerConfig};
