//! SSTable formats for the Scavenger key-value store.
//!
//! Three on-disk table formats live here, all sharing the same block,
//! filter, footer, and cache machinery:
//!
//! * [`btable`] — **BlockBasedTable**: the RocksDB-style format used by the
//!   baseline engines for both key SSTs and value SSTs. Data blocks hold
//!   multiple entries; a sparse index maps the last key of each block to its
//!   handle.
//! * [`rtable`] — **RecordBasedTable** (paper §III-B1): the Scavenger value
//!   SST. Every record gets a *dense* index entry `(key → record handle)`,
//!   organised as a partitioned two-level index, so GC can read all keys of
//!   a file ("Lazy Read") without touching a single value byte.
//! * [`dtable`] — **IndexDecoupledTable** (paper §III-B2): the Scavenger key
//!   SST. Value references (KF entries) and inline small values (KV
//!   records) are physically segregated into separate block streams with
//!   separate indexes and bloom filters, so GC-Lookup reads only tiny,
//!   hot-cacheable KF blocks.
//!
//! Supporting modules: [`block`] (prefix-compressed blocks with restart
//! points), [`filter`] (bloom), [`handle`] (handles + footer), [`cache`]
//! (sharded two-priority LRU, mirroring RocksDB's high-pri pool), [`props`]
//! (table properties incl. the value-dependency list that powers
//! compensated-size compaction), [`blockio`] (checksummed block I/O), and
//! `tail` (the metaindex / index / footer envelope all three formats end
//! in, opened with one read of the file's last [`TAIL_PREFETCH`] bytes).
//!
//! Every table iterator implements [`InternalIterator`], the one
//! iterator trait of the read stack, so the LSM merges a key SST's
//! iterator with no adapter in between.

#![forbid(unsafe_code)]

pub mod block;
pub mod blockio;
pub mod btable;
pub mod cache;
pub mod dtable;
pub mod filter;
pub mod handle;
pub mod props;
pub mod rtable;
mod tail;

pub use tail::{read_tail, Tail, TAIL_PREFETCH};

use bytes::Bytes;
use scavenger_util::Result;
use std::cmp::Ordering;

/// Common interface for iterators over `(key, value)` entries in key
/// order: a key SST's [`TwoLevelIter`](btable::TwoLevelIter) streams and
/// [`DTableIter`](dtable::DTableIter), and the LSM's memtable, level and
/// merging iterators above them.
///
/// An iterator that meets a read or corruption error turns invalid and
/// stays so; [`status`](InternalIterator::status) reports the error.
pub trait InternalIterator: Send {
    /// True if positioned on an entry.
    fn valid(&self) -> bool;
    /// Position on the first entry.
    fn seek_to_first(&mut self);
    /// Position on the first entry `>= target`.
    fn seek(&mut self, target: &[u8]);
    /// Advance to the next entry.
    fn next(&mut self);
    /// Current key.
    fn key(&self) -> &[u8];
    /// Current value (zero-copy).
    fn value(&self) -> Bytes;
    /// Deferred error, if any.
    fn status(&self) -> Result<()>;
}

/// How keys inside a table are compared.
///
/// Key SSTs store *internal keys* (user key + seq/type trailer) and need
/// the internal ordering; value SSTs in this workspace also use internal
/// keys, but generic tooling and tests can use plain bytewise tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyCmp {
    /// Plain `memcmp` ordering.
    Bytewise,
    /// Internal-key ordering: user key ascending, then seq/type descending.
    Internal,
}

impl KeyCmp {
    /// Compare two encoded keys under this ordering.
    #[inline]
    pub fn cmp(self, a: &[u8], b: &[u8]) -> Ordering {
        match self {
            KeyCmp::Bytewise => a.cmp(b),
            KeyCmp::Internal => scavenger_util::ikey::cmp_internal(a, b),
        }
    }
}

/// Identifies which logical stream of a table a block belongs to.
/// Used as part of the block-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Ordinary data / record block.
    Data,
    /// Index block or index partition.
    Index,
    /// DTable KF (key-file index entry) block.
    KeyFile,
}
