//! # Scavenger
//!
//! A key-value separated LSM-tree storage engine with **I/O-efficient
//! garbage collection** and **space-aware compaction**, reproducing
//! *"Scavenger: Better Space-Time Trade-Offs for Key-Value Separated
//! LSM-trees"* (ICDE 2024).
//!
//! The crate exposes one engine with five selectable designs
//! ([`EngineMode`]), all sharing the same substrate so comparisons isolate
//! exactly the design differences the paper studies:
//!
//! | mode | value placement | value format | GC scheme |
//! |---|---|---|---|
//! | `Rocks`     | inline             | —       | — (compaction only) |
//! | `BlobDb`    | separated ≥ 512 B  | blob log | compaction-triggered relocation |
//! | `Titan`     | separated ≥ 512 B  | blob log | standalone GC + index write-back |
//! | `Terark`    | separated ≥ 512 B  | BTable  | no-writeback GC via inheritance |
//! | `Scavenger` | separated ≥ 512 B  | **RTable** | no-writeback GC + **Lazy Read** + **DTable GC-Lookup** + **DropCache hot/cold** + **compensated compaction** + space-aware throttling |
//!
//! ## Quickstart
//!
//! ```
//! use scavenger::{Db, EngineMode, Options};
//! use scavenger_env::MemEnv;
//!
//! let opts = Options::new(MemEnv::shared(), "demo-db", EngineMode::Scavenger);
//! let db = Db::open(opts).unwrap();
//! db.put(b"hello", vec![7u8; 4096]).unwrap();   // large: separated
//! db.put(b"tiny", &b"small"[..]).unwrap();      // small: stays inline
//! assert_eq!(db.get(b"tiny").unwrap().unwrap().as_ref(), b"small");
//! assert_eq!(db.get(b"hello").unwrap().unwrap().len(), 4096);
//! db.delete(b"tiny").unwrap();
//! assert!(db.get(b"tiny").unwrap().is_none());
//! ```
//!
//! ## One handle, one engine surface
//!
//! [`Db`] is the only handle and the engine surface is its methods:
//! reads and writes, maintenance, [`Db::subscribe_changes`], and
//! [`Transactional::begin`]. A read is [`Db::get`] / [`Db::scan`] at the
//! latest state, or the same two methods on a pinned [`ReadView`]
//! ([`Db::view`], or [`Db::snapshot`] for one counted as a snapshot);
//! scans yield a [`DbScanIter`], change streams are a
//! [`DbChangeStream`] and transactions a [`Transaction`]. Writes share
//! one [`WriteOptions`], and GC returns a [`GcReport`] with one outcome
//! per member.
//!
//! ## Scaling out
//!
//! A plain store is a [`Db`] of one [`Shard`]. For multi-core write
//! scaling, [`Db::open`] with a [`ShardedOptions`] of N > 1 (the
//! [`DbShards`] name is the same type) hash-partitions the key space
//! across N members behind the same API — one shared block cache, one
//! global space budget, per-shard GC/compaction fanned across threads.
//! Strict per-shard read consistency comes from the pinned-view
//! machinery ([`Db::view`], [`Db::snapshot`]).
//!
//! The repository-level `ARCHITECTURE.md` walks the full design: the
//! API layer, the superversion read path and its
//! copy-on-write installs, the staged GC pipeline, space-aware
//! throttling, and the shard layer. `README.md` has the crate map and
//! the benchmark baselines.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod changes;
pub mod db;
pub mod dropcache;
pub mod gc;
pub(crate) mod gc_exec;
pub mod hook;
pub mod options;
pub mod shard;
pub mod shards;
pub mod stats;
pub mod throttle;
pub mod txn;
pub mod view;
pub mod vstore;

pub use changes::{ChangeOp, ChangeRecord, DbChangeStream, ResumeToken, SubscribeFrom};
pub use db::{Db, DbScanIter, ScanEntry};
pub use dropcache::DropCache;
pub use gc::{GcOutcome, GcReport, GcValidationReport};
pub use options::{EngineMode, Features, GcScheme, Options, VFormat};
pub use shard::Shard;
pub use shards::{DbShards, ShardedOptions, ShardedOptionsBuilder};
pub use stats::{DbStats, GcStats, GcStepTimes, SpaceBreakdown};
pub use throttle::Throttle;
pub use txn::{Transaction, Transactional};
pub use view::{ReadView, WriteOptions, WriteReceipt};

// Re-export the write-batch type (and the byte buffer it carries) so
// `Db::write(WriteBatch)` is callable from the crate root alone, with
// no direct `scavenger-lsm` / `bytes` dependency.
pub use bytes::Bytes;
pub use scavenger_lsm::WriteBatch;

// Re-export the substrate types users commonly need.
pub use scavenger_env::{DeviceModel, Env, EnvRef, FsEnv, IoClass, IoStatsSnapshot, MemEnv};
pub use scavenger_util::{Error, Result};
