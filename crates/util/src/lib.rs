//! Shared utilities for the Scavenger key-value store.
//!
//! This crate provides the low-level building blocks every other crate in
//! the workspace relies on:
//!
//! * [`coding`] — varint / fixed-width integer encoding used by every
//!   on-disk format (blocks, WAL, manifest, footers).
//! * [`crc32c`] — CRC-32C (Castagnoli), the checksum guarding all
//!   persistent records; its SSE4.2 kernel is the crate's only `unsafe`.
//! * [`ikey`] — the internal-key model: user keys combined with sequence
//!   numbers and value types, ordered user-key-ascending /
//!   sequence-descending exactly like LevelDB/RocksDB.
//! * [`hist`] — a fixed-bucket histogram used for GC latency breakdowns.
//! * [`inline_vec`] — a small vector kept on the stack up to a fixed
//!   length, for the short keys and file lists of a point read.
//! * [`hash`] — a cheap hasher for maps keyed by engine-internal
//!   integers (file numbers, block-cache keys).
//! * [`error`] — the shared [`Error`] type.
//! * [`iter`] — the shared fuse-on-error adapter behind every
//!   user-facing scan iterator's `Iterator` impl.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod coding;
pub mod crc32c;
pub mod error;
pub mod hash;
pub mod hist;
pub mod ikey;
pub mod inline_vec;
pub mod iter;

pub use error::{Error, Result};
