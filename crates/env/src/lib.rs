//! Storage environment abstraction for the Scavenger engine.
//!
//! Everything the engine persists flows through an [`Env`]:
//!
//! * [`MemEnv`] — an in-memory filesystem that counts every
//!   byte and operation per [`IoClass`]. This is the substrate for all
//!   experiments: the paper's testbed (a 500 GB KIOXIA NVMe SSD) is
//!   replaced by exact I/O accounting plus a calibrated
//!   [`DeviceModel`] that converts the counters into
//!   simulated seconds.
//! * [`FsEnv`] — a thin `std::fs` implementation for running the
//!   engine against a real filesystem.
//! * [`FaultEnv`] — a deterministic, seeded fault-injection wrapper over
//!   any env: injected errors, torn appends, fsyncgate semantics, and
//!   power-loss crash simulation for the recovery test harness.
//! * [`ReadaheadFile`] — a wrapper over one open file, not an env: a
//!   one-shot forward scan (a compaction input) reads it in
//!   [`READ_SIZE`] spans plus one tail read instead of block by block.
//! * [`UsageEnv`] — the one accounting wrapper a store directory gets:
//!   a live [`SpaceTracker`] size map of the files under its prefix, so
//!   the §III-D space throttle admits writes with one atomic load and
//!   `stats().space` needs no directory walk, plus a private [`IoStats`]
//!   charged with all I/O through it, so a store — and each shard of a
//!   sharded one — reports its own traffic instead of the env-global
//!   counters.
//!
//! The trait surface is deliberately small (append-only writable files,
//! positional reads, whole-file reads, rename/remove/list) — exactly what
//! an LSM-tree needs and nothing more.

#![forbid(unsafe_code)]

pub mod device;
pub mod fault;
pub mod fs;
pub mod io_stats;
pub mod mem;
pub mod readahead;
pub mod usage;

use bytes::Bytes;
use scavenger_util::Result;
use std::sync::Arc;

pub use device::{Coalesce, DeviceModel, READ_SIZE};
pub use fault::{FaultEnv, FaultKind, FaultOp, FaultRule, Trigger};
pub use fs::FsEnv;
pub use io_stats::{reads_charged_to, IoClass, IoStats, IoStatsSnapshot};
pub use mem::MemEnv;
pub use readahead::ReadaheadFile;
pub use usage::{SpaceTracker, UsageEnv};

/// An append-only file being written (WAL, SST under construction, manifest).
pub trait WritableFile: Send {
    /// Append bytes at the end of the file.
    fn append(&mut self, data: &[u8]) -> Result<()>;
    /// Durably persist buffered data. A no-op for [`MemEnv`].
    fn sync(&mut self) -> Result<()>;
    /// Current file length in bytes.
    fn len(&self) -> u64;
    /// True if nothing has been appended yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A completed file open for positional reads (SSTs, value files).
pub trait RandomAccessFile: Send + Sync {
    /// Read exactly `len` bytes starting at `offset`.
    ///
    /// Returns [`Corruption`](scavenger_util::Error::Corruption) if the
    /// range extends past the end of the file.
    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes>;
    /// Total file length in bytes.
    fn len(&self) -> u64;
    /// True if the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The storage environment.
pub trait Env: Send + Sync {
    /// Create (or truncate) a file for appending. All I/O through the
    /// returned handle is accounted to `class`.
    fn new_writable(&self, path: &str, class: IoClass) -> Result<Box<dyn WritableFile>>;

    /// Open an existing file for positional reads, accounted to `class`.
    fn open_random_access(&self, path: &str, class: IoClass) -> Result<Arc<dyn RandomAccessFile>>;

    /// Read an entire file into memory (used for WAL/manifest recovery).
    fn read_file(&self, path: &str, class: IoClass) -> Result<Bytes>;

    /// Delete a file.
    fn remove_file(&self, path: &str) -> Result<()>;

    /// Atomically rename a file (used for the CURRENT pointer swap).
    fn rename(&self, from: &str, to: &str) -> Result<()>;

    /// True if the file exists.
    fn file_exists(&self, path: &str) -> bool;

    /// Size of a file in bytes.
    fn file_size(&self, path: &str) -> Result<u64>;

    /// List file paths that start with `prefix`.
    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>>;

    /// Create a directory and parents. A no-op for [`MemEnv`].
    fn create_dir_all(&self, path: &str) -> Result<()>;

    /// Shared I/O statistics for this environment.
    fn io_stats(&self) -> Arc<IoStats>;

    /// Sum of the sizes of all files under `prefix` — the engine's total
    /// space footprint, the numerator of space amplification.
    fn total_file_bytes(&self, prefix: &str) -> Result<u64> {
        let mut total = 0;
        for f in self.list_prefix(prefix)? {
            total += self.file_size(&f)?;
        }
        Ok(total)
    }
}

/// A dynamic, shareable environment handle.
pub type EnvRef = Arc<dyn Env>;
