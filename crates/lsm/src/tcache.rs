//! Table cache: open key-SST readers, kept while their file is live.
//!
//! A reader's format is read from the file's properties block, so BTable
//! and DTable files can coexist in one tree (e.g. after switching formats
//! mid-life, or during ablation experiments).

use crate::filename::table_path;
use crate::options::LsmOptions;
use scavenger_env::{EnvRef, IoClass};
use scavenger_table::btable::KTable;
use scavenger_table::cache::{ReaderMap, StoreCache};
use scavenger_util::Result;
use std::sync::Arc;

/// Open a key SST of either format, reading through `cache` when given.
pub fn open_ktable(
    env: &EnvRef,
    dir: &str,
    file_number: u64,
    cache: Option<&StoreCache>,
    class: IoClass,
) -> Result<KTable> {
    let file = env.open_random_access(&table_path(dir, file_number), class)?;
    match cache {
        Some(c) => KTable::open(file, c.file_id(file_number), Some(c.blocks().clone())),
        None => KTable::open(file, file_number, None),
    }
}

/// The tree's key-SST readers, each opened on its first lookup and read
/// through the store's block cache.
pub struct TableCache {
    env: EnvRef,
    dir: String,
    cache: StoreCache,
    /// The open readers; the tree evicts a file's when it deletes it.
    pub(crate) readers: ReaderMap<KTable>,
}

impl TableCache {
    /// Create a table cache for `dir`, reading through `cache`.
    pub fn new(opts: &LsmOptions, cache: StoreCache) -> Self {
        TableCache {
            env: opts.env.clone(),
            dir: opts.dir.clone(),
            cache,
            readers: ReaderMap::default(),
        }
    }

    /// Get (or open) the reader for `file_number`. Reads are accounted as
    /// foreground index reads.
    pub fn get(&self, file_number: u64) -> Result<Arc<KTable>> {
        self.readers.get_or_open(file_number, || {
            open_ktable(
                &self.env,
                &self.dir,
                file_number,
                Some(&self.cache),
                IoClass::FgIndexRead,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::MemEnv;
    use scavenger_table::btable::{BlockCache, KTableBuilder, KTableFormat};
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

    fn cache() -> StoreCache {
        StoreCache::new(Arc::new(BlockCache::with_capacity(1 << 20)), false)
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
        let t1 = open_ktable(&env, "db", 1, None, IoClass::FgIndexRead).unwrap();
        let t2 = open_ktable(&env, "db", 2, None, IoClass::FgIndexRead).unwrap();
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
            let t = open_ktable(&env, "db", number, None, IoClass::FgIndexRead).unwrap();
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
        let tc = TableCache::new(&opts, cache());
        let a = tc.get(3).unwrap();
        let b = tc.get(3).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(tc.readers.len(), 1);
        tc.readers.evict(3);
        assert!(tc.readers.is_empty());
    }

    /// `MemEnv` whose `open_random_access` of a key SST opens the file,
    /// then waits at `gate` until a second open of one has too.
    struct GatedEnv {
        inner: EnvRef,
        gate: std::sync::Barrier,
    }

    impl scavenger_env::Env for GatedEnv {
        fn new_writable(
            &self,
            path: &str,
            class: IoClass,
        ) -> Result<Box<dyn scavenger_env::WritableFile>> {
            self.inner.new_writable(path, class)
        }
        fn open_random_access(
            &self,
            path: &str,
            class: IoClass,
        ) -> Result<Arc<dyn scavenger_env::RandomAccessFile>> {
            let f = self.inner.open_random_access(path, class)?;
            if path.ends_with(".sst") {
                self.gate.wait();
            }
            Ok(f)
        }
        fn read_file(&self, path: &str, class: IoClass) -> Result<bytes::Bytes> {
            self.inner.read_file(path, class)
        }
        fn remove_file(&self, path: &str) -> Result<()> {
            self.inner.remove_file(path)
        }
        fn rename(&self, from: &str, to: &str) -> Result<()> {
            self.inner.rename(from, to)
        }
        fn file_exists(&self, path: &str) -> bool {
            self.inner.file_exists(path)
        }
        fn file_size(&self, path: &str) -> Result<u64> {
            self.inner.file_size(path)
        }
        fn list_prefix(&self, prefix: &str) -> Result<Vec<String>> {
            self.inner.list_prefix(prefix)
        }
        fn create_dir_all(&self, path: &str) -> Result<()> {
            self.inner.create_dir_all(path)
        }
        fn io_stats(&self) -> Arc<scavenger_env::IoStats> {
            self.inner.io_stats()
        }
    }

    /// Two first lookups of one file that race — both open it before
    /// either keeps its reader — share one reader: the first insert wins.
    #[test]
    fn racing_first_opens_keep_one_reader() {
        let mem: EnvRef = MemEnv::shared();
        write_btable(&mem, "db", 3);
        let env: EnvRef = Arc::new(GatedEnv {
            inner: mem,
            gate: std::sync::Barrier::new(2),
        });
        let tc = TableCache::new(&LsmOptions::new(env, "db"), cache());
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| tc.get(3).unwrap());
            let b = s.spawn(|| tc.get(3).unwrap());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(
            Arc::ptr_eq(&a, &b),
            "each racing caller kept its own reader"
        );
        assert!(Arc::ptr_eq(&a, &tc.get(3).unwrap()));
    }

    #[test]
    fn missing_file_is_not_found() {
        let env: EnvRef = MemEnv::shared();
        let opts = LsmOptions::new(env, "db");
        let tc = TableCache::new(&opts, cache());
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
            let t = open_ktable(&env, "db", n, None, IoClass::FgIndexRead).unwrap();
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
