//! SSTable formats for the Scavenger key-value store.
//!
//! Every table stores internal keys (user key + seq/type trailer) and
//! orders them with [`cmp_internal`](scavenger_util::ikey::cmp_internal).
//! Three on-disk formats live here, all sharing the same block, filter,
//! footer, and cache machinery:
//!
//! * **BlockBasedTable** (BTable): the RocksDB-style format the baseline
//!   engines use for key SSTs and TerarkDB uses for value SSTs. It is one
//!   [`btable`] *stream*: data blocks, an index block mapping the last key
//!   of each block to its handle (a sparse index), and a bloom filter.
//! * **IndexDecoupledTable** (DTable, paper §III-B2): the Scavenger key
//!   SST — the BTable's stream split in two. Value references and
//!   tombstones (KF entries) and inline small values (KV records) go to
//!   separate streams, each with its own index and bloom filter, so
//!   GC-Lookup reads only tiny, hot-cacheable KF blocks.
//!
//!   Both are one table type, [`btable::KTable`]: one stream or two,
//!   picked on write from [`KTableFormat`](btable::KTableFormat) and on
//!   open from the properties' [`TableType`](props::TableType); [`dtable`]
//!   holds the layout and the iterator that merges the two streams.
//! * [`rtable`] — **RecordBasedTable** (paper §III-B1): the Scavenger value
//!   SST. Every record gets a *dense* index entry `(key → record handle)`,
//!   organised as a partitioned two-level index, so GC can read all keys of
//!   a file ("Lazy Read") without touching a single value byte.
//!
//! Supporting modules: [`block`] (prefix-compressed blocks with restart
//! points), [`filter`] (bloom), [`handle`] (handles + footer), [`cache`]
//! (sharded two-priority LRU, mirroring RocksDB's high-pri pool), [`props`]
//! (table properties incl. the value-dependency list that powers
//! compensated-size compaction), [`blockio`] (checksummed block I/O), and
//! `tail` (the metaindex / index / footer envelope all three formats end
//! in, opened with one read of the file's last [`TAIL_PREFETCH`] bytes —
//! or with none, from the bytes the file's builder held).
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

/// Target size of a key SST's data block (paper §IV-A: 4 KB, RocksDB's
/// default). The index tree's builders take `LsmOptions::block_size`,
/// whose default this is; value BTables always use it.
pub const BLOCK_SIZE: usize = 4096;
/// Entries between restart points in a data block (RocksDB's default).
pub const RESTART_INTERVAL: usize = 16;
/// Bloom-filter bits per key of every table (paper §IV-A: 10).
pub const BLOOM_BITS_PER_KEY: usize = 10;
/// Target size of one RTable index partition.
pub const INDEX_PARTITION_SIZE: usize = 2048;

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

/// Identifies which logical stream of a table a block belongs to.
/// Used as part of the block-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Ordinary data / record block.
    Data,
    /// DTable KF (key-file index entry) block.
    KeyFile,
}
