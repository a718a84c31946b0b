//! Configuration for the index LSM-tree.
//!
//! The tree reads its key SSTs through [`LsmOptions::cache`], the
//! store's [`StoreCache`]: the block cache its value files share (and, in
//! a shard set, every member) with the namespace the store's cache keys
//! carry. The options size no cache: a tree opened without one reads
//! through a private cache of [`CACHE_BYTES`].

use crate::hooks::ValueHook;
use scavenger_env::EnvRef;
pub use scavenger_table::btable::KTableFormat;
use scavenger_table::cache::StoreCache;
use scavenger_table::BLOCK_SIZE;
use scavenger_util::ikey::{SeqNo, MAX_SEQNO};
use std::sync::Arc;

/// Whether background work runs inline on the writer thread or on
/// background threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackgroundMode {
    /// Flush/compaction run synchronously inside `write()` — fully
    /// deterministic; used by the experiment harness so I/O accounting is
    /// exactly reproducible.
    Inline,
    /// Flush/compaction after a write run on a background thread (with
    /// write stalls when the immutable-memtable backlog grows), like a
    /// production engine. `flush` still returns only once its work is done.
    Threaded,
}

/// Default L0 file count that triggers an L0 → base-level compaction
/// (RocksDB's `level0_file_num_compaction_trigger`, which the paper's
/// §IV-A setup leaves at 4).
pub const L0_TRIGGER: usize = 4;
/// Number of levels in the index tree (RocksDB's default, which the
/// paper's §IV-A setup keeps).
pub const NUM_LEVELS: usize = 7;
/// Capacity of the private block cache a tree opened without
/// [`LsmOptions::cache`] reads through.
pub const CACHE_BYTES: usize = 1024 * 1024;

/// Options for opening an [`Lsm`](crate::db::Lsm).
#[derive(Clone)]
pub struct LsmOptions {
    /// Storage environment.
    pub env: EnvRef,
    /// Directory prefix for all files.
    pub dir: String,
    /// Memtable size that triggers a flush.
    pub memtable_size: usize,
    /// Number of L0 files that triggers an L0 → base-level compaction.
    pub l0_trigger: usize,
    /// `max_bytes_for_level_base`: target size of the base level
    /// (interpreted in *compensated* units when `compensated` is set).
    pub base_level_bytes: u64,
    /// Target key-SST file size for compaction outputs.
    pub target_file_size: u64,
    /// Data block size for key SSTs ([`scavenger_table::BLOCK_SIZE`]
    /// but in the unit tests that want many blocks).
    pub block_size: usize,
    /// Key SST format.
    pub ktable_format: KTableFormat,
    /// Score compaction by compensated size (paper §III-C) instead of raw
    /// file size.
    pub compensated: bool,
    /// The store's block cache and namespace. `None` opens a private
    /// cache of [`CACHE_BYTES`]; the engine above always passes one.
    pub cache: Option<StoreCache>,
    /// Background execution mode.
    pub background: BackgroundMode,
    /// How many times a *transient* background-job failure (flush,
    /// compaction, or a job the engine above runs through
    /// [`Lsm::run_with_retries`](crate::Lsm::run_with_retries)) is
    /// retried before the engine degrades to read-only mode. Permanent
    /// failures (e.g. corruption) degrade immediately.
    pub bg_retry_limit: usize,
    /// Base delay for the bounded exponential backoff between background
    /// retries (`base * 2^attempt`).
    pub bg_retry_base: std::time::Duration,
    /// Value-store hook invoked by flush and compaction (KV separation,
    /// drop observation, BlobDB-style relocation). `None` = vanilla LSM.
    pub value_hook: Option<Arc<dyn ValueHook>>,
    /// Change-data-capture WAL retention budget, in bytes. Closed WAL
    /// segments are catalogued for subscriber catch-up instead of
    /// deleted, up to this many bytes of *speculative* history (history
    /// a registered subscriber still needs is always retained and
    /// accounted as pinned bytes instead). `0` disables speculative
    /// retention: WAL files are reclaimed exactly as before unless a
    /// live subscriber pins them.
    pub cdc_retention: u64,
    /// Byte budget for the in-memory change-event publication ring.
    /// Tailing subscribers are served from the ring; a cursor that
    /// falls below the ring's floor catches up from retained WAL
    /// segments.
    pub cdc_ring_bytes: u64,
    /// Initial tombstone hold (see
    /// [`Lsm::hold_tombstones_above`](crate::db::Lsm::hold_tombstones_above)):
    /// flush and compaction — including the WAL-recovery flush inside
    /// `open` — never elide a tombstone newer than this sequence.
    /// `MAX_SEQNO` (the default) holds nothing; a shard-set member opens
    /// at `0` until the set's 2PC roll-forward has run.
    pub tombstone_hold: SeqNo,
}

impl LsmOptions {
    /// Scaled-down defaults (sizes are the paper's §IV-A setup divided
    /// by ~256; see ARCHITECTURE.md "Configuration") on the given env.
    pub fn new(env: EnvRef, dir: impl Into<String>) -> Self {
        LsmOptions {
            env,
            dir: dir.into(),
            memtable_size: 256 * 1024,
            l0_trigger: L0_TRIGGER,
            base_level_bytes: 4 * 1024 * 1024,
            target_file_size: 256 * 1024,
            block_size: BLOCK_SIZE,
            ktable_format: KTableFormat::BTable,
            compensated: false,
            cache: None,
            background: BackgroundMode::Inline,
            bg_retry_limit: 3,
            bg_retry_base: std::time::Duration::from_millis(10),
            value_hook: None,
            cdc_retention: 0,
            cdc_ring_bytes: 1024 * 1024,
            tombstone_hold: MAX_SEQNO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::MemEnv;

    #[test]
    fn defaults_are_scaled_per_design_doc() {
        let opts = LsmOptions::new(MemEnv::shared(), "db");
        assert_eq!(opts.memtable_size, 256 * 1024);
        assert_eq!(crate::compaction::LEVEL_MULTIPLIER, 10);
        assert_eq!(NUM_LEVELS, 7);
        assert_eq!((opts.l0_trigger, L0_TRIGGER), (4, 4));
        assert_eq!((opts.block_size, BLOCK_SIZE), (4096, 4096));
        assert_eq!(crate::db::MAX_IMM_MEMTABLES, 2);
        assert_eq!(opts.background, BackgroundMode::Inline);
        assert_eq!(scavenger_table::BLOOM_BITS_PER_KEY, 10);
    }
}
