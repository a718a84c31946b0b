//! The index LSM-tree engine underneath Scavenger.
//!
//! This crate is a complete leveled LSM-tree: memtables, a write-ahead log,
//! SSTables (via `scavenger-table`), a versioned manifest with crash
//! recovery, snapshots, and score-driven leveled compaction with RocksDB's
//! dynamic level targets.
//!
//! It is *KV-separation aware* in exactly the ways the paper requires:
//!
//! * Entries carry a [`ValueType`](scavenger_util::ikey::ValueType): inline
//!   values, value references ([`ValueRef`](scavenger_util::ikey::ValueRef)),
//!   or tombstones. Key SSTs can be built as BTables or DTables.
//! * Every key SST records its **value dependencies**, so compaction can
//!   score levels by **compensated size** (paper §III-C) — the size the
//!   file would have had in a non-separated tree.
//! * Flush and compaction invoke a [`hooks::ValueHook`]: the
//!   engine above uses it to separate large values into value SSTs at
//!   flush, to relocate blob values during compaction (BlobDB mode), and —
//!   critically — to observe every *dropped* entry. Dropped `ValueRef`s
//!   are how hidden garbage becomes **exposed garbage** (paper §II-D), and
//!   dropped keys feed the DropCache's hotness signal (paper §III-B3).

#![forbid(unsafe_code)]

pub mod batch;
pub mod changelog;
pub mod compaction;
pub mod db;
pub mod filename;
pub mod group;
pub mod hooks;
pub mod iter;
pub mod memtable;
pub mod options;
pub mod tcache;
pub mod version;
pub mod view;
pub mod wal;

pub use batch::{WriteBatch, WriteOptions, WriteReceipt};
pub use changelog::{ChangeCursor, ChangeEvent, ChangeLog, ChangeLogStats};
pub use db::{GuardedWrite, Lsm, LsmReadResult, Precondition};
pub use group::{GroupCommit, GroupLeader, Logged};
pub use hooks::{
    BornTails, DropCause, JobKind, NewValueFile, ValueEditBundle, ValueHook, ValueSession,
};
pub use iter::{BatchSweep, SweepStats};
pub use options::{BackgroundMode, KTableFormat, LsmOptions};
pub use version::{FileMetaData, FileNumbers, Version, VersionEdit};
pub use view::{BatchReader, LsmView, ReadPointGuard, ScanIter, SuperVersion};
