//! Table cache: open key-SST readers, kept while their file is live.
//!
//! The reader type is detected from the file's properties block, so BTable
//! and DTable files can coexist in one tree (e.g. after switching formats
//! mid-life, or during ablation experiments).

use crate::filename::table_path;
use crate::options::LsmOptions;
use bytes::Bytes;
use parking_lot::Mutex;
use scavenger_env::{EnvRef, IoClass, RandomAccessFile};
use scavenger_table::block::BlockEntry;
use scavenger_table::btable::{BTableReader, BlockCache};
use scavenger_table::cache::cache_file_id;
use scavenger_table::dtable::{DTableIter, DTableReader};
use scavenger_table::props::{TableProps, TableType};
use scavenger_table::{read_tail, KeyCmp};
use scavenger_util::hash::IntMap;
use scavenger_util::Result;
use std::sync::Arc;

/// An open key SST of either format.
pub enum KTable {
    /// BlockBasedTable reader.
    B(BTableReader),
    /// IndexDecoupledTable reader.
    D(DTableReader),
}

impl KTable {
    /// Point lookup: first entry with internal key `>= target`, read in
    /// place from its (cached) block.
    pub fn get(&self, target: &[u8]) -> Result<Option<BlockEntry>> {
        match self {
            KTable::B(t) => t.get(target),
            KTable::D(t) => t.get(target),
        }
    }

    /// Bloom check on a user key.
    pub fn may_contain(&self, ukey: &[u8]) -> bool {
        match self {
            KTable::B(t) => t.may_contain(ukey),
            KTable::D(t) => t.may_contain(ukey),
        }
    }

    /// Table properties.
    pub fn props(&self) -> &TableProps {
        match self {
            KTable::B(t) => t.props(),
            KTable::D(t) => t.props(),
        }
    }

    /// Iterate all entries in internal-key order.
    pub fn iter(&self) -> KTableIter {
        match self {
            KTable::B(t) => KTableIter::B(t.iter()),
            KTable::D(t) => KTableIter::D(t.iter()),
        }
    }

    /// Iterate the table's **index entries** — references and tombstones
    /// — in internal-key order: a DTable's KF stream alone. A BTable has
    /// one stream, so its inline entries come along and
    /// [`get_inline`](KTable::get_inline) has nothing left to add.
    pub fn index_iter(&self) -> KTableIter {
        match self {
            KTable::B(t) => KTableIter::B(t.iter()),
            KTable::D(t) => KTableIter::B(t.kf_iter()),
        }
    }

    /// The first inline entry `>= target` that
    /// [`index_iter`](KTable::index_iter) does not show: a point search
    /// of a DTable's KV stream, `None` for a BTable.
    pub fn get_inline(&self, target: &[u8]) -> Result<Option<BlockEntry>> {
        match self {
            KTable::B(_) => Ok(None),
            KTable::D(t) => t.get_inline(target),
        }
    }
}

/// Iterator over a [`KTable`].
#[allow(clippy::large_enum_variant)]
pub enum KTableIter {
    /// One two-level stream: a whole BTable, or a DTable's KF stream.
    B(scavenger_table::btable::TwoLevelIter),
    /// DTable merged-stream iterator.
    D(DTableIter),
}

impl KTableIter {
    /// True if positioned on an entry.
    pub fn valid(&self) -> bool {
        match self {
            KTableIter::B(i) => i.valid(),
            KTableIter::D(i) => i.valid(),
        }
    }

    /// Position on the first entry.
    pub fn seek_to_first(&mut self) {
        match self {
            KTableIter::B(i) => i.seek_to_first(),
            KTableIter::D(i) => i.seek_to_first(),
        }
    }

    /// Position on the first entry `>= target`.
    pub fn seek(&mut self, target: &[u8]) {
        match self {
            KTableIter::B(i) => i.seek(target),
            KTableIter::D(i) => i.seek(target),
        }
    }

    /// Advance.
    pub fn next(&mut self) {
        match self {
            KTableIter::B(i) => i.next(),
            KTableIter::D(i) => i.next(),
        }
    }

    /// Current key.
    pub fn key(&self) -> &[u8] {
        match self {
            KTableIter::B(i) => i.key(),
            KTableIter::D(i) => i.key(),
        }
    }

    /// Current value.
    pub fn value(&self) -> Bytes {
        match self {
            KTableIter::B(i) => i.value(),
            KTableIter::D(i) => i.value(),
        }
    }

    /// Any error hit while iterating.
    pub fn status(&self) -> Result<()> {
        match self {
            KTableIter::B(i) => i.status(),
            KTableIter::D(i) => i.status(),
        }
    }
}

/// Open a key SST, dispatching on its on-disk table type. `cache_ns` is
/// the store's cache namespace (see
/// [`scavenger_table::cache::cache_file_id`]); pass `0` for a private
/// block cache.
pub fn open_ktable(
    env: &EnvRef,
    dir: &str,
    file_number: u64,
    cache_ns: u64,
    cache: Option<Arc<BlockCache>>,
    class: IoClass,
) -> Result<KTable> {
    let file = env.open_random_access(&table_path(dir, file_number), class)?;
    ktable_from_file(file, cache_file_id(cache_ns, file_number), cache)
}

/// [`open_ktable`] over an already-open file (a compaction input behind
/// its read-ahead wrapper). One tail read serves both the format check
/// and the open.
pub fn ktable_from_file(
    file: Arc<dyn RandomAccessFile>,
    cache_id: u64,
    cache: Option<Arc<BlockCache>>,
) -> Result<KTable> {
    let tail = read_tail(file.as_ref())?;
    Ok(match tail.props().table_type {
        TableType::DTable => KTable::D(DTableReader::from_tail(file, tail, cache_id, cache)?),
        _ => KTable::B(BTableReader::from_tail(
            file,
            tail,
            cache_id,
            cache,
            KeyCmp::Internal,
        )?),
    })
}

/// Number of independent reader-map shards. Mirrors the block cache's
/// sharding (16): concurrent readers — GC validation workers above all —
/// hash to different shards instead of serializing on one mutex.
const TABLE_CACHE_SHARDS: usize = 16;

/// Caches open readers keyed by file number, sharded by a mixed hash of
/// the file number so parallel lookups rarely contend.
pub struct TableCache {
    env: EnvRef,
    dir: String,
    block_cache: Arc<BlockCache>,
    cache_ns: u64,
    shards: Vec<Mutex<IntMap<u64, Arc<KTable>>>>,
}

impl TableCache {
    /// Create a table cache for `dir`.
    pub fn new(opts: &LsmOptions, block_cache: Arc<BlockCache>) -> Self {
        TableCache {
            env: opts.env.clone(),
            dir: opts.dir.clone(),
            block_cache,
            cache_ns: opts.cache_namespace,
            shards: (0..TABLE_CACHE_SHARDS)
                .map(|_| Mutex::new(IntMap::default()))
                .collect(),
        }
    }

    fn shard(&self, file_number: u64) -> &Mutex<IntMap<u64, Arc<KTable>>> {
        // File numbers are sequential; mix them so neighbours land in
        // different shards.
        let h = file_number.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize % self.shards.len()]
    }

    /// Get (or open) the reader for `file_number`. Reads are accounted as
    /// foreground index reads.
    pub fn get(&self, file_number: u64) -> Result<Arc<KTable>> {
        let shard = self.shard(file_number);
        if let Some(t) = shard.lock().get(&file_number) {
            return Ok(t.clone());
        }
        let table = Arc::new(open_ktable(
            &self.env,
            &self.dir,
            file_number,
            self.cache_ns,
            Some(self.block_cache.clone()),
            IoClass::FgIndexRead,
        )?);
        shard.lock().insert(file_number, table.clone());
        Ok(table)
    }

    /// Drop the cached reader for a deleted file.
    pub fn evict(&self, file_number: u64) {
        self.shard(file_number).lock().remove(&file_number);
    }

    /// The shared block cache.
    pub fn block_cache(&self) -> Arc<BlockCache> {
        self.block_cache.clone()
    }

    /// Number of cached readers.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if no readers are cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::MemEnv;
    use scavenger_table::btable::{BTableBuilder, TableOptions};
    use scavenger_table::dtable::DTableBuilder;
    use scavenger_util::ikey::{make_internal_key, ValueType};

    fn write_btable(env: &EnvRef, dir: &str, number: u64) {
        let f = env
            .new_writable(&table_path(dir, number), IoClass::Flush)
            .unwrap();
        let mut b = BTableBuilder::new(f, TableOptions::default());
        b.add(&make_internal_key(b"k1", 1, ValueType::Value), b"v1")
            .unwrap();
        b.finish().unwrap();
    }

    fn write_dtable(env: &EnvRef, dir: &str, number: u64) {
        let f = env
            .new_writable(&table_path(dir, number), IoClass::Flush)
            .unwrap();
        let mut b = DTableBuilder::new(f, TableOptions::default());
        b.add(&make_internal_key(b"k2", 1, ValueType::Value), b"v2")
            .unwrap();
        b.finish().unwrap();
    }

    #[test]
    fn detects_table_format_automatically() {
        let env: EnvRef = MemEnv::shared();
        write_btable(&env, "db", 1);
        write_dtable(&env, "db", 2);
        let t1 = open_ktable(&env, "db", 1, 0, None, IoClass::FgIndexRead).unwrap();
        let t2 = open_ktable(&env, "db", 2, 0, None, IoClass::FgIndexRead).unwrap();
        assert!(matches!(t1, KTable::B(_)));
        assert!(matches!(t2, KTable::D(_)));
        // Unified lookup API works across formats.
        let target = make_internal_key(b"k1", 100, ValueType::ValueRef);
        assert!(t1.get(&target).unwrap().is_some());
        let target = make_internal_key(b"k2", 100, ValueType::ValueRef);
        assert!(t2.get(&target).unwrap().is_some());
    }

    /// A key SST's tail serves both the format check and the open: one
    /// device read per open, whichever the format.
    #[test]
    fn opening_either_format_reads_its_tail_once() {
        let env: EnvRef = MemEnv::shared();
        write_btable(&env, "db", 1);
        write_dtable(&env, "db", 2);
        for (number, dtable) in [(1, false), (2, true)] {
            let before = env.io_stats().snapshot();
            let t = open_ktable(&env, "db", number, 0, None, IoClass::FgIndexRead).unwrap();
            let d = env.io_stats().snapshot().delta(&before);
            assert_eq!(matches!(t, KTable::D(_)), dtable);
            assert_eq!(d.total_read_ops(), 1, "table {number}");
        }
    }

    #[test]
    fn cache_returns_same_reader_and_evicts() {
        let env: EnvRef = MemEnv::shared();
        write_btable(&env, "db", 3);
        let opts = LsmOptions::new(env, "db");
        let tc = TableCache::new(&opts, Arc::new(BlockCache::with_capacity(1 << 20)));
        let a = tc.get(3).unwrap();
        let b = tc.get(3).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(tc.len(), 1);
        tc.evict(3);
        assert!(tc.is_empty());
    }

    #[test]
    fn missing_file_is_not_found() {
        let env: EnvRef = MemEnv::shared();
        let opts = LsmOptions::new(env, "db");
        let tc = TableCache::new(&opts, Arc::new(BlockCache::with_capacity(1 << 20)));
        assert!(tc.get(42).is_err());
    }

    #[test]
    fn unified_iter_walks_both_formats() {
        let env: EnvRef = MemEnv::shared();
        write_btable(&env, "db", 1);
        write_dtable(&env, "db", 2);
        for n in [1u64, 2] {
            let t = open_ktable(&env, "db", n, 0, None, IoClass::FgIndexRead).unwrap();
            let mut it = t.iter();
            it.seek_to_first();
            assert!(it.valid());
            it.next();
            assert!(!it.valid());
            it.status().unwrap();
        }
    }
}
