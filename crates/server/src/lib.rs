//! `scavenger-server`: the network service layer over the engine
//! handle [`Db`](scavenger::Db).
//!
//! The storage engine below this crate is a library; this crate makes
//! it a service. One [`Server`] hosts the engine handle — a
//! [`Db`](scavenger::Db) of one shard or of several, chosen at
//! startup — behind a
//! table-driven length-prefixed binary protocol on plain TCP
//! (`std::net` + threads; the workspace builds without a registry, so
//! there is no async runtime or protobuf to lean on).
//!
//! Module map:
//!
//! - [`protocol`] — the wire spec: one message table per direction
//!   (opcode, label, admission class and fields in wire order, one row
//!   per op), framing, and the exhaustive
//!   [`Error`](scavenger_util::Error) → [`WireCode`] mapping (typed
//!   errors on the wire, including `DEGRADED` for a read-only engine).
//! - `codec` (private) — the field codecs and the `macro_rules!` that
//!   turn those tables into the enums, `encode` / `decode`, labels and
//!   property-test strategies.
//! - [`service`] — the server itself: accept loop, connection cap,
//!   token-bucket rate limiting, slow-query log, pin-table-backed
//!   snapshots, graceful drain, and the `/metrics` HTTP listener.
//! - [`client`] — a blocking client used by the load generator, the
//!   integration tests, and anyone scripting against the server.
//! - [`pins`] — TTL'd server-side snapshot table.
//! - [`rate_limit`] — the token bucket.
//! - [`metrics`] — service-layer counters and Prometheus rendering.

#![deny(missing_docs)]

pub mod client;
#[macro_use]
mod codec;
pub mod metrics;
pub mod pins;
pub mod protocol;
pub mod rate_limit;
pub mod service;

pub use client::{is_pin_expired, is_rate_limited, ChangeBatch, Client};
pub use metrics::{render_metrics, ServerMetrics};
pub use pins::PinTable;
pub use protocol::{BatchOp, Request, Response, SubscribeSpec, WireChange, WireCode};
pub use rate_limit::TokenBucket;
pub use service::{scrape_metrics, Server, ServerConfig, ServerHandle};
