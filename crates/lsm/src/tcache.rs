//! Table cache: open key-SST readers, kept while their file is live.
//!
//! The reader type is detected from the file's properties block, so BTable
//! and DTable files can coexist in one tree (e.g. after switching formats
//! mid-life, or during ablation experiments).

use crate::filename::table_path;
use crate::options::LsmOptions;
use parking_lot::Mutex;
use scavenger_env::{EnvRef, IoClass, RandomAccessFile};
use scavenger_table::block::BlockEntry;
use scavenger_table::btable::{BTableReader, BlockCache};
use scavenger_table::cache::cache_file_id;
use scavenger_table::dtable::DTableReader;
use scavenger_table::props::TableType;
use scavenger_table::{read_tail, InternalIterator, KeyCmp};
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

    /// Iterate all entries in internal-key order: a DTable's two streams
    /// merged. The iterator owns its fetcher and file, so it outlives the
    /// reader.
    pub fn iter(&self) -> Box<dyn InternalIterator> {
        match self {
            KTable::B(t) => Box::new(t.iter()),
            KTable::D(t) => Box::new(t.iter()),
        }
    }

    /// Iterate the table's **index entries** — references and tombstones
    /// — in internal-key order: a DTable's KF stream alone. A BTable has
    /// one stream, so its inline entries come along and
    /// [`get_inline`](KTable::get_inline) has nothing left to add.
    pub fn index_iter(&self) -> Box<dyn InternalIterator> {
        match self {
            KTable::B(t) => Box::new(t.iter()),
            KTable::D(t) => Box::new(t.kf_iter()),
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
    use scavenger_util::ikey::{
        extract_user_key, make_internal_key, ValueRef, ValueType, MAX_SEQNO,
    };

    /// One entry of each kind a key SST holds: inline values (a DTable's
    /// KV stream), a reference and a tombstone (its KF stream).
    fn entries() -> Vec<(Vec<u8>, Vec<u8>)> {
        let vref = ValueRef {
            file: 9,
            size: 4096,
            offset: 0,
        };
        vec![
            (make_internal_key(b"a", 4, ValueType::Value), b"va".to_vec()),
            (
                make_internal_key(b"b", 3, ValueType::ValueRef),
                vref.encode(),
            ),
            (make_internal_key(b"c", 2, ValueType::Deletion), Vec::new()),
            (make_internal_key(b"d", 1, ValueType::Value), b"vd".to_vec()),
        ]
    }

    fn write_btable(env: &EnvRef, dir: &str, number: u64) {
        let f = env
            .new_writable(&table_path(dir, number), IoClass::Flush)
            .unwrap();
        let mut b = BTableBuilder::new(f, TableOptions::default());
        for (k, v) in entries() {
            b.add(&k, &v).unwrap();
        }
        b.finish().unwrap();
    }

    fn write_dtable(env: &EnvRef, dir: &str, number: u64) {
        let f = env
            .new_writable(&table_path(dir, number), IoClass::Flush)
            .unwrap();
        let mut b = DTableBuilder::new(f, TableOptions::default());
        for (k, v) in entries() {
            b.add(&k, &v).unwrap();
        }
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
        for t in [&t1, &t2] {
            for ukey in [b"a", b"b"] {
                let target = make_internal_key(ukey, 100, ValueType::ValueRef);
                let found = t.get(&target).unwrap().unwrap();
                assert_eq!(extract_user_key(found.key()), ukey);
            }
        }
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

    /// The user keys `it` yields from `from` (the first entry when
    /// `None`) to its end, driven through the trait object alone.
    fn walk(it: &mut dyn InternalIterator, from: Option<&[u8]>) -> Vec<u8> {
        match from {
            Some(ukey) => it.seek(&make_internal_key(ukey, MAX_SEQNO, ValueType::ValueRef)),
            None => it.seek_to_first(),
        }
        let mut keys = Vec::new();
        while it.valid() {
            keys.extend_from_slice(extract_user_key(it.key()));
            it.next();
        }
        it.status().unwrap();
        keys
    }

    /// `iter` shows every entry of either format; `index_iter` shows a
    /// BTable's one stream whole and a DTable's KF stream alone — its
    /// reference and tombstone, none of its inline values.
    #[test]
    fn unified_iter_walks_both_formats() {
        let env: EnvRef = MemEnv::shared();
        write_btable(&env, "db", 1);
        write_dtable(&env, "db", 2);
        for (n, index, index_from_c) in [(1u64, &b"abcd"[..], &b"cd"[..]), (2, b"bc", b"c")] {
            let t = open_ktable(&env, "db", n, 0, None, IoClass::FgIndexRead).unwrap();
            assert_eq!(walk(t.iter().as_mut(), None), b"abcd", "table {n}");
            assert_eq!(walk(t.iter().as_mut(), Some(b"b")), b"bcd", "table {n}");
            assert_eq!(walk(t.index_iter().as_mut(), None), index, "table {n}");
            let from_c = walk(t.index_iter().as_mut(), Some(b"c"));
            assert_eq!(from_c, index_from_c, "table {n}");
            assert!(walk(t.index_iter().as_mut(), Some(b"e")).is_empty());
        }
    }
}
