//! Table cache: open key-SST readers, kept while their file is live.
//!
//! A reader's format is read from the file's properties block, so BTable
//! and DTable files can coexist in one tree (e.g. after switching formats
//! mid-life, or during ablation experiments).

use crate::filename::table_path;
use crate::options::LsmOptions;
use parking_lot::Mutex;
use scavenger_env::{EnvRef, IoClass};
use scavenger_table::btable::{BlockCache, KTable};
use scavenger_table::cache::cache_file_id;
use scavenger_util::hash::IntMap;
use scavenger_util::Result;
use std::sync::Arc;

/// Open a key SST of either format. `cache_ns` is the store's cache
/// namespace (see [`scavenger_table::cache::cache_file_id`]); pass `0`
/// for a private block cache.
pub fn open_ktable(
    env: &EnvRef,
    dir: &str,
    file_number: u64,
    cache_ns: u64,
    cache: Option<Arc<BlockCache>>,
    class: IoClass,
) -> Result<KTable> {
    let file = env.open_random_access(&table_path(dir, file_number), class)?;
    KTable::open(file, cache_file_id(cache_ns, file_number), cache)
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
    use scavenger_table::btable::{KTableBuilder, KTableFormat};
    use scavenger_table::props::TableType;
    use scavenger_table::InternalIterator;
    use scavenger_util::ikey::{
        extract_user_key, make_internal_key, parse_internal_key, ValueRef, ValueType, MAX_SEQNO,
    };

    /// One entry of each kind a key SST holds — inline values (a DTable's
    /// KV stream), a reference and a tombstone (its KF stream) — and a
    /// user key, `b`, with both an inline and an older separated version.
    fn entries() -> Vec<(Vec<u8>, Vec<u8>)> {
        let vref = ValueRef {
            file: 9,
            size: 4096,
            offset: 0,
        };
        vec![
            (make_internal_key(b"a", 4, ValueType::Value), b"va".to_vec()),
            (make_internal_key(b"b", 5, ValueType::Value), b"vb".to_vec()),
            (
                make_internal_key(b"b", 3, ValueType::ValueRef),
                vref.encode(),
            ),
            (make_internal_key(b"c", 2, ValueType::Deletion), Vec::new()),
            (make_internal_key(b"d", 1, ValueType::Value), b"vd".to_vec()),
        ]
    }

    fn write_table(env: &EnvRef, dir: &str, number: u64, format: KTableFormat) {
        let f = env
            .new_writable(&table_path(dir, number), IoClass::Flush)
            .unwrap();
        let mut b = KTableBuilder::new(f, format, scavenger_table::BLOCK_SIZE);
        for (k, v) in entries() {
            b.add(&k, &v).unwrap();
        }
        b.finish().unwrap();
    }

    fn write_btable(env: &EnvRef, dir: &str, number: u64) {
        write_table(env, dir, number, KTableFormat::BTable);
    }

    fn write_dtable(env: &EnvRef, dir: &str, number: u64) {
        write_table(env, dir, number, KTableFormat::DTable);
    }

    #[test]
    fn detects_table_format_automatically() {
        let env: EnvRef = MemEnv::shared();
        write_btable(&env, "db", 1);
        write_dtable(&env, "db", 2);
        let t1 = open_ktable(&env, "db", 1, 0, None, IoClass::FgIndexRead).unwrap();
        let t2 = open_ktable(&env, "db", 2, 0, None, IoClass::FgIndexRead).unwrap();
        assert_eq!(t1.props().table_type, TableType::BTable);
        assert_eq!(t2.props().table_type, TableType::DTable);
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
            assert_eq!(t.props().table_type == TableType::DTable, dtable);
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
    /// reference and tombstone, none of its inline values. Both formats
    /// answer `get` at every key with that entry, and at a read point
    /// between `b`'s two versions with the older one. `get_inline` finds
    /// a DTable's inline version of the key's user key at or after it
    /// (`b`'s reference has none), and nothing for a BTable, whose
    /// `index_iter` already showed it.
    #[test]
    fn unified_iter_walks_both_formats() {
        let env: EnvRef = MemEnv::shared();
        write_btable(&env, "db", 1);
        write_dtable(&env, "db", 2);
        let es = entries();
        for (n, index, index_from_c) in [(1u64, &b"abbcd"[..], &b"cd"[..]), (2, b"bc", b"c")] {
            let t = open_ktable(&env, "db", n, 0, None, IoClass::FgIndexRead).unwrap();
            assert_eq!(walk(t.iter().as_mut(), None), b"abbcd", "table {n}");
            assert_eq!(walk(t.iter().as_mut(), Some(b"b")), b"bbcd", "table {n}");
            assert_eq!(walk(t.index_iter().as_mut(), None), index, "table {n}");
            let from_c = walk(t.index_iter().as_mut(), Some(b"c"));
            assert_eq!(from_c, index_from_c, "table {n}");
            assert!(walk(t.index_iter().as_mut(), Some(b"e")).is_empty());

            for (i, (k, v)) in es.iter().enumerate() {
                let found = t.get(k).unwrap().expect("every key is found");
                assert_eq!(
                    (found.key(), &found.value()[..]),
                    (&k[..], &v[..]),
                    "table {n}"
                );
                let ukey = extract_user_key(k);
                let inline = es[i..]
                    .iter()
                    .take_while(|(k, _)| extract_user_key(k) == ukey)
                    .find(|(k, _)| parse_internal_key(k).unwrap().vtype == ValueType::Value)
                    .filter(|_| n == 2);
                let got = t.get_inline(k).unwrap();
                assert_eq!(
                    got.as_ref()
                        .filter(|e| extract_user_key(e.key()) == ukey)
                        .map(|e| (e.key(), e.value())),
                    inline.map(|(k, v)| (&k[..], bytes::Bytes::from(v.clone()))),
                    "table {n}"
                );
            }
            let newest = t.get(&make_internal_key(b"b", MAX_SEQNO, ValueType::ValueRef));
            assert_eq!(newest.unwrap().unwrap().key(), &es[1].0[..], "table {n}");
            let older = t.get(&make_internal_key(b"b", 4, ValueType::ValueRef));
            assert_eq!(older.unwrap().unwrap().key(), &es[2].0[..], "table {n}");
        }
    }
}
