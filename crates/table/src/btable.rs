//! BlockBasedTable: the RocksDB-style SST format used by baseline engines.
//!
//! Layout:
//!
//! ```text
//! [data block]*  [filter block]  [props block]  [metaindex]  [index block]  [footer]
//! ```
//!
//! Data blocks hold many entries; the index block maps the *last key* of
//! each data block to its handle (a sparse index — which is precisely the
//! property that makes GC reads expensive and motivates the RTable's dense
//! index, paper §III-B1).

use crate::block::{Block, BlockBuilder, BlockEntry, BlockIter};
use crate::blockio::{read_block, write_block};
use crate::cache::{CacheKey, CachePriority, LruCache};
use crate::filter::{BloomBuilder, BloomReader};
use crate::handle::BlockHandle;
use crate::props::{meta_keys, TableProps, TableType, ValueDep};
use crate::tail::{read_tail, write_tail, Tail};
use crate::{BlockKind, InternalIterator, KeyCmp};
use bytes::Bytes;
use scavenger_env::{RandomAccessFile, WritableFile};
use scavenger_util::ikey::{extract_user_key, parse_internal_key, ValueRef, ValueType};
use scavenger_util::{Error, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Shared block cache over CRC-verified payloads: blocks, RTable records
/// and whole blob-log records (decoded, their CRC included, again on
/// every hit). A block hit costs a trailer bounds check to wrap the
/// bytes, then a search in place: restart keys and whole-stored keys are
/// compared where they lie, and nothing is copied to the heap.
pub type BlockCache = LruCache<Bytes>;

/// Serve `key` from `cache`, or `read` it and insert it at `pri` — the
/// one cache path of every block, record and value read. Without a cache
/// (compaction inputs, GC's whole-file scans) it is a plain `read`.
pub fn cached_read(
    cache: Option<&BlockCache>,
    key: CacheKey,
    pri: CachePriority,
    read: impl FnOnce() -> Result<Bytes>,
) -> Result<Bytes> {
    let Some(cache) = cache else {
        return read();
    };
    if let Some(hit) = cache.get(&key) {
        return Ok(hit);
    }
    let payload = read()?;
    cache.insert(key, payload.clone(), payload.len(), pri);
    Ok(payload)
}

/// Build-time options common to all table formats.
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// Target uncompressed data-block size.
    pub block_size: usize,
    /// Restart interval for data blocks.
    pub restart_interval: usize,
    /// Bloom filter bits per key (0 disables the filter).
    pub bloom_bits_per_key: usize,
    /// Key ordering.
    pub cmp: KeyCmp,
    /// RTable: target size of one index partition.
    pub index_partition_size: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            block_size: 4096,
            restart_interval: 16,
            bloom_bits_per_key: 10,
            cmp: KeyCmp::Internal,
            index_partition_size: 2048,
        }
    }
}

/// Tracks [`TableProps`] as entries stream through a builder.
pub(crate) struct PropsTracker {
    props: TableProps,
    deps: BTreeMap<u64, (u64, u64)>,
    cmp: KeyCmp,
}

impl PropsTracker {
    pub(crate) fn new(table_type: TableType, cmp: KeyCmp) -> Self {
        PropsTracker {
            props: TableProps {
                table_type,
                ..TableProps::default()
            },
            deps: BTreeMap::new(),
            cmp,
        }
    }

    pub(crate) fn observe(&mut self, key: &[u8], value: &[u8]) {
        self.props.num_entries += 1;
        self.props.raw_key_bytes += key.len() as u64;
        self.props.raw_value_bytes += value.len() as u64;
        if self.cmp == KeyCmp::Internal {
            if let Ok(parsed) = parse_internal_key(key) {
                match parsed.vtype {
                    ValueType::Deletion => self.props.num_deletions += 1,
                    ValueType::Value => self.props.num_inline += 1,
                    ValueType::ValueRef => {
                        self.props.num_refs += 1;
                        if let Ok(r) = ValueRef::decode(value) {
                            let e = self.deps.entry(r.file).or_insert((0, 0));
                            e.0 += 1;
                            e.1 += u64::from(r.size);
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn finish(mut self) -> TableProps {
        self.props.deps = self
            .deps
            .into_iter()
            .map(|(file, (entries, ref_bytes))| ValueDep {
                file,
                entries,
                ref_bytes,
            })
            .collect();
        self.props
    }
}

/// Streaming builder for a BlockBasedTable.
pub struct BTableBuilder {
    file: Box<dyn WritableFile>,
    opts: TableOptions,
    data: BlockBuilder,
    index: BlockBuilder,
    bloom: BloomBuilder,
    tracker: PropsTracker,
    smallest: Option<Vec<u8>>,
    largest: Vec<u8>,
    num_entries: u64,
}

/// Result of finishing a table build.
#[derive(Debug, Clone)]
pub struct BuiltTable {
    /// Final file size in bytes.
    pub file_size: u64,
    /// Smallest key in the table (encoded form).
    pub smallest: Vec<u8>,
    /// Largest key in the table.
    pub largest: Vec<u8>,
    /// Properties as written to the props block.
    pub props: TableProps,
}

impl BTableBuilder {
    /// Start building into `file`.
    pub fn new(file: Box<dyn WritableFile>, opts: TableOptions) -> Self {
        let restart = opts.restart_interval;
        let bits = opts.bloom_bits_per_key;
        let cmp = opts.cmp;
        BTableBuilder {
            file,
            opts,
            data: BlockBuilder::new(restart),
            index: BlockBuilder::new(1),
            bloom: BloomBuilder::new(bits.max(1)),
            tracker: PropsTracker::new(TableType::BTable, cmp),
            smallest: None,
            largest: Vec::new(),
            num_entries: 0,
        }
    }

    fn user_key<'k>(&self, key: &'k [u8]) -> &'k [u8] {
        match self.opts.cmp {
            KeyCmp::Internal => extract_user_key(key),
            KeyCmp::Bytewise => key,
        }
    }

    /// Append an entry; keys must arrive in `opts.cmp` order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        debug_assert!(
            self.data.is_empty() || self.opts.cmp.cmp(self.data.last_key(), key).is_lt(),
            "keys must be added in strictly increasing order"
        );
        if self.smallest.is_none() {
            self.smallest = Some(key.to_vec());
        }
        self.largest.clear();
        self.largest.extend_from_slice(key);
        self.bloom.add_key(self.user_key(key));
        self.tracker.observe(key, value);
        self.data.add(key, value);
        self.num_entries += 1;
        if self.data.size_estimate() >= self.opts.block_size {
            self.flush_data_block()?;
        }
        Ok(())
    }

    fn flush_data_block(&mut self) -> Result<()> {
        if self.data.is_empty() {
            return Ok(());
        }
        let last_key = self.data.last_key().to_vec();
        let handle = write_block(self.file.as_mut(), &self.data.finish())?;
        self.index.add(&last_key, &handle.encode());
        Ok(())
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Bytes written to the file so far (lower bound on final size).
    pub fn estimated_size(&self) -> u64 {
        self.file.len() + self.data.size_estimate() as u64
    }

    /// Finish the table: flush blocks, write filter / props / metaindex /
    /// index / footer.
    pub fn finish(mut self) -> Result<BuiltTable> {
        self.flush_data_block()?;
        let props = self.tracker.finish();
        write_tail(
            self.file,
            &[
                (meta_keys::FILTER, self.bloom.finish()),
                (meta_keys::PROPS, props.encode()),
            ],
            &self.index.finish(),
            props,
            self.smallest,
            self.largest,
        )
    }
}

/// Fetches blocks through the (optional) block cache. Cloning is cheap
/// (two `Arc`s and an integer), which lets iterators own their fetcher and
/// carry no lifetime.
#[derive(Clone)]
pub(crate) struct BlockFetcher {
    pub(crate) file: Arc<dyn RandomAccessFile>,
    pub(crate) cache: Option<Arc<BlockCache>>,
    pub(crate) file_number: u64,
}

impl BlockFetcher {
    /// The block at `handle`, through the block cache at `pri`.
    pub(crate) fn fetch(
        &self,
        handle: BlockHandle,
        kind: BlockKind,
        pri: CachePriority,
    ) -> Result<Block> {
        Block::new(self.payload(handle, kind, pri)?)
    }

    /// The verified payload at `handle`, through the block cache at `pri`.
    pub(crate) fn payload(
        &self,
        handle: BlockHandle,
        kind: BlockKind,
        pri: CachePriority,
    ) -> Result<Bytes> {
        let key = CacheKey::new(self.file_number, handle.offset, kind);
        cached_read(self.cache.as_deref(), key, pri, || {
            read_block(self.file.as_ref(), handle)
        })
    }
}

/// An open BlockBasedTable.
pub struct BTableReader {
    fetcher: BlockFetcher,
    index: Block,
    filter: Option<Bytes>,
    props: TableProps,
    cmp: KeyCmp,
}

impl BTableReader {
    /// Open a table file. The index block, filter and props are read
    /// eagerly and pinned for the life of the reader.
    pub fn open(
        file: Arc<dyn RandomAccessFile>,
        file_number: u64,
        cache: Option<Arc<BlockCache>>,
        cmp: KeyCmp,
    ) -> Result<BTableReader> {
        let tail = read_tail(file.as_ref())?;
        BTableReader::from_tail(file, tail, file_number, cache, cmp)
    }

    /// [`open`](Self::open) with `file`'s tail already read.
    pub fn from_tail(
        file: Arc<dyn RandomAccessFile>,
        mut tail: Tail,
        file_number: u64,
        cache: Option<Arc<BlockCache>>,
        cmp: KeyCmp,
    ) -> Result<BTableReader> {
        let filter = tail.meta_block(file.as_ref(), meta_keys::FILTER)?;
        Ok(BTableReader {
            fetcher: BlockFetcher {
                file,
                cache,
                file_number,
            },
            index: tail.index,
            filter,
            props: tail.props,
            cmp,
        })
    }

    /// Table properties.
    pub fn props(&self) -> &TableProps {
        &self.props
    }

    /// Bloom check on a user key. True means "maybe present".
    pub fn may_contain(&self, user_key: &[u8]) -> bool {
        match &self.filter {
            Some(f) => BloomReader::new(f).may_contain(user_key),
            None => true,
        }
    }

    /// Point lookup: returns the first entry with key `>= target`, or
    /// `None` if the table has no such entry. The caller is responsible
    /// for checking that the user key matches.
    pub fn get(&self, target: &[u8]) -> Result<Option<BlockEntry>> {
        self.get_cached_at(target, CachePriority::Low)
    }

    /// [`get`](Self::get) with missed data blocks cached at `pri` (a value
    /// file's at [`CachePriority::Bottom`]).
    pub fn get_cached_at(&self, target: &[u8], pri: CachePriority) -> Result<Option<BlockEntry>> {
        let ukey = match self.cmp {
            KeyCmp::Internal => extract_user_key(target),
            KeyCmp::Bytewise => target,
        };
        if !self.may_contain(ukey) {
            return Ok(None);
        }
        search(&self.index, self.cmp, target, |handle| {
            self.fetcher.fetch(handle, BlockKind::Data, pri)
        })
    }

    /// Iterate the whole table in key order. The iterator is self-contained
    /// (owns its fetcher), so it can outlive the reader borrow.
    pub fn iter(&self) -> TwoLevelIter {
        TwoLevelIter::new(
            self.fetcher.clone(),
            self.index.clone(),
            self.cmp,
            BlockKind::Data,
            CachePriority::Low,
        )
    }
}

/// Point search of a two-level stream: the first entry `>= target` under
/// `cmp`, in the data block `index` points it to (or a later one, when
/// that block holds nothing `>= target`), fetched by `block`. A malformed
/// index or data block is [`Error::Corruption`], never "not found".
pub(crate) fn search(
    index: &Block,
    cmp: KeyCmp,
    target: &[u8],
    block: impl Fn(BlockHandle) -> Result<Block>,
) -> Result<Option<BlockEntry>> {
    let mut index_iter = index.iter(cmp);
    index_iter.seek(target);
    while index_iter.valid() {
        let mut it = block(BlockHandle::decode_exact(&index_iter.value())?)?.iter(cmp);
        it.seek(target);
        it.status()?;
        if it.valid() {
            return Ok(it.into_entry());
        }
        index_iter.next();
    }
    index_iter.status()?;
    Ok(None)
}

/// Generic two-level iterator: an index block whose values are handles of
/// data blocks, fetched lazily through the block cache. Shared by BTable
/// and both DTable streams.
pub struct TwoLevelIter {
    fetcher: BlockFetcher,
    cmp: KeyCmp,
    kind: BlockKind,
    pri: CachePriority,
    index_iter: BlockIter,
    data_iter: Option<BlockIter>,
    error: Option<Error>,
}

impl TwoLevelIter {
    pub(crate) fn new(
        fetcher: BlockFetcher,
        index: Block,
        cmp: KeyCmp,
        kind: BlockKind,
        pri: CachePriority,
    ) -> Self {
        TwoLevelIter {
            fetcher,
            cmp,
            kind,
            pri,
            index_iter: index.iter(cmp),
            data_iter: None,
            error: None,
        }
    }

    fn load_data_block(&mut self) {
        self.data_iter = None;
        if !self.index_iter.valid() {
            return;
        }
        let handle = match BlockHandle::decode_exact(&self.index_iter.value()) {
            Ok(h) => h,
            Err(e) => {
                self.error = Some(e);
                return;
            }
        };
        match self.fetcher.fetch(handle, self.kind, self.pri) {
            Ok(b) => {
                self.data_iter = Some(b.iter(self.cmp));
            }
            Err(e) => self.error = Some(e),
        }
    }

    fn skip_empty_blocks_forward(&mut self) {
        loop {
            if let Some(d) = &self.data_iter {
                if d.valid() {
                    return;
                }
                if let Err(e) = d.status() {
                    self.error.get_or_insert(e);
                }
            }
            if let Err(e) = self.index_iter.status() {
                self.error.get_or_insert(e);
            }
            if self.error.is_some() || !self.index_iter.valid() {
                self.data_iter = None;
                return;
            }
            self.index_iter.next();
            self.load_data_block();
            if let Some(d) = self.data_iter.as_mut() {
                d.seek_to_first();
            }
        }
    }
}

impl InternalIterator for TwoLevelIter {
    fn valid(&self) -> bool {
        self.data_iter.as_ref().map(|d| d.valid()).unwrap_or(false)
    }

    fn seek_to_first(&mut self) {
        self.index_iter.seek_to_first();
        self.load_data_block();
        if let Some(d) = self.data_iter.as_mut() {
            d.seek_to_first();
        }
        self.skip_empty_blocks_forward();
    }

    fn seek(&mut self, target: &[u8]) {
        self.index_iter.seek(target);
        self.load_data_block();
        if let Some(d) = self.data_iter.as_mut() {
            d.seek(target);
        }
        self.skip_empty_blocks_forward();
    }

    fn next(&mut self) {
        if let Some(d) = self.data_iter.as_mut() {
            d.next();
        }
        self.skip_empty_blocks_forward();
    }

    fn key(&self) -> &[u8] {
        self.data_iter.as_ref().unwrap().key()
    }

    fn value(&self) -> Bytes {
        self.data_iter.as_ref().unwrap().value()
    }

    fn status(&self) -> Result<()> {
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::{Env, IoClass, MemEnv};
    use scavenger_util::ikey::make_internal_key;

    fn kv(e: BlockEntry) -> (Vec<u8>, Bytes) {
        (e.key().to_vec(), e.value())
    }

    fn build_table(
        env: &MemEnv,
        path: &str,
        entries: &[(Vec<u8>, Vec<u8>)],
        opts: TableOptions,
    ) -> BuiltTable {
        let f = env.new_writable(path, IoClass::Flush).unwrap();
        let mut b = BTableBuilder::new(f, opts);
        for (k, v) in entries {
            b.add(k, v).unwrap();
        }
        b.finish().unwrap()
    }

    fn open(env: &MemEnv, path: &str, cmp: KeyCmp) -> BTableReader {
        let file = env.open_random_access(path, IoClass::FgIndexRead).unwrap();
        BTableReader::open(file, 1, None, cmp).unwrap()
    }

    fn bytewise_opts() -> TableOptions {
        TableOptions {
            cmp: KeyCmp::Bytewise,
            block_size: 256,
            ..TableOptions::default()
        }
    }

    fn sample_entries(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("key{i:05}").into_bytes(),
                    format!("value-{i}").repeat(3).into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn build_and_get_every_key() {
        let env = MemEnv::new();
        let entries = sample_entries(500);
        let built = build_table(&env, "t.sst", &entries, bytewise_opts());
        assert_eq!(built.props.num_entries, 500);
        assert_eq!(built.smallest, b"key00000".to_vec());
        assert_eq!(built.largest, b"key00499".to_vec());

        let reader = open(&env, "t.sst", KeyCmp::Bytewise);
        for (k, v) in &entries {
            let (fk, fv) = reader.get(k).unwrap().map(kv).expect("found");
            assert_eq!(&fk, k);
            assert_eq!(&fv[..], v.as_slice());
        }
    }

    #[test]
    fn get_missing_key_returns_successor_or_none() {
        let env = MemEnv::new();
        let entries = sample_entries(100);
        build_table(&env, "t.sst", &entries, bytewise_opts());
        let reader = open(&env, "t.sst", KeyCmp::Bytewise);
        // Key between key00010 and key00011.
        let got = reader.get(b"key000105").unwrap().map(kv);
        if let Some((k, _)) = got {
            assert_eq!(k, b"key00011".to_vec());
        }
        // Past the end.
        assert!(reader.get(b"zzz").unwrap().is_none());
    }

    #[test]
    fn bloom_filter_blocks_absent_keys_without_io() {
        let env = MemEnv::new();
        let entries = sample_entries(1000);
        build_table(&env, "t.sst", &entries, bytewise_opts());
        let reader = open(&env, "t.sst", KeyCmp::Bytewise);
        let before = env.io_stats().snapshot();
        let mut found = 0;
        for i in 0..200 {
            if reader
                .get(format!("absent{i}").as_bytes())
                .unwrap()
                .is_some()
            {
                found += 1;
            }
        }
        let after = env.io_stats().snapshot();
        let d = after.delta(&before);
        // Nearly all lookups should have been stopped by the bloom filter:
        // only the rare false positive costs a block read.
        assert!(found <= 200);
        assert!(
            d.class(IoClass::FgIndexRead).read_ops <= 20,
            "too many reads: {}",
            d.class(IoClass::FgIndexRead).read_ops
        );
    }

    #[test]
    fn iterator_sees_all_entries_in_order() {
        let env = MemEnv::new();
        let entries = sample_entries(321);
        build_table(&env, "t.sst", &entries, bytewise_opts());
        let reader = open(&env, "t.sst", KeyCmp::Bytewise);
        let mut it = reader.iter();
        it.seek_to_first();
        for (k, v) in &entries {
            assert!(it.valid());
            assert_eq!(it.key(), k.as_slice());
            assert_eq!(&it.value()[..], v.as_slice());
            it.next();
        }
        assert!(!it.valid());
        it.status().unwrap();
    }

    #[test]
    fn iterator_seek_lands_on_successor() {
        let env = MemEnv::new();
        let entries = sample_entries(100);
        build_table(&env, "t.sst", &entries, bytewise_opts());
        let reader = open(&env, "t.sst", KeyCmp::Bytewise);
        let mut it = reader.iter();
        it.seek(b"key00050");
        assert!(it.valid());
        assert_eq!(it.key(), b"key00050");
        it.seek(b"key000505");
        assert!(it.valid());
        assert_eq!(it.key(), b"key00051");
        it.seek(b"zzzz");
        assert!(!it.valid());
    }

    #[test]
    fn internal_keys_track_props_and_deps() {
        let env = MemEnv::new();
        let f = env.new_writable("t.sst", IoClass::Flush).unwrap();
        let mut b = BTableBuilder::new(f, TableOptions::default());
        let r1 = ValueRef {
            file: 9,
            size: 4096,
            offset: 0,
        };
        let r2 = ValueRef {
            file: 9,
            size: 8192,
            offset: 4096,
        };
        let r3 = ValueRef {
            file: 11,
            size: 100,
            offset: 0,
        };
        b.add(
            &make_internal_key(b"a", 3, ValueType::ValueRef),
            &r1.encode(),
        )
        .unwrap();
        b.add(&make_internal_key(b"b", 2, ValueType::Value), b"inline")
            .unwrap();
        b.add(
            &make_internal_key(b"c", 4, ValueType::ValueRef),
            &r2.encode(),
        )
        .unwrap();
        b.add(&make_internal_key(b"d", 5, ValueType::Deletion), b"")
            .unwrap();
        b.add(
            &make_internal_key(b"e", 6, ValueType::ValueRef),
            &r3.encode(),
        )
        .unwrap();
        let built = b.finish().unwrap();
        assert_eq!(built.props.num_entries, 5);
        assert_eq!(built.props.num_refs, 3);
        assert_eq!(built.props.num_inline, 1);
        assert_eq!(built.props.num_deletions, 1);
        assert_eq!(built.props.deps.len(), 2);
        let d9 = built.props.deps.iter().find(|d| d.file == 9).unwrap();
        assert_eq!(d9.entries, 2);
        assert_eq!(d9.ref_bytes, 4096 + 8192);
        assert_eq!(built.props.total_ref_bytes(), 4096 + 8192 + 100);

        // Reader sees the same props.
        let file = env
            .open_random_access("t.sst", IoClass::FgIndexRead)
            .unwrap();
        let reader = BTableReader::open(file, 1, None, KeyCmp::Internal).unwrap();
        assert_eq!(reader.props().total_ref_bytes(), 4096 + 8192 + 100);
    }

    #[test]
    fn internal_key_get_finds_visible_version() {
        let env = MemEnv::new();
        let f = env.new_writable("t.sst", IoClass::Flush).unwrap();
        let mut b = BTableBuilder::new(f, TableOptions::default());
        b.add(&make_internal_key(b"k", 9, ValueType::Value), b"v9")
            .unwrap();
        b.add(&make_internal_key(b"k", 5, ValueType::Value), b"v5")
            .unwrap();
        b.finish().unwrap();
        let file = env
            .open_random_access("t.sst", IoClass::FgIndexRead)
            .unwrap();
        let reader = BTableReader::open(file, 1, None, KeyCmp::Internal).unwrap();

        // Snapshot at seq 100 sees v9.
        let t = make_internal_key(b"k", 100, ValueType::ValueRef);
        let (k, v) = reader.get(&t).unwrap().map(kv).unwrap();
        assert_eq!(parse_internal_key(&k).unwrap().seq, 9);
        assert_eq!(&v[..], b"v9");

        // Snapshot at seq 7 sees v5.
        let t = make_internal_key(b"k", 7, ValueType::ValueRef);
        let (k, v) = reader.get(&t).unwrap().map(kv).unwrap();
        assert_eq!(parse_internal_key(&k).unwrap().seq, 5);
        assert_eq!(&v[..], b"v5");
    }

    #[test]
    fn cache_serves_repeat_reads() {
        let env = MemEnv::new();
        let entries = sample_entries(2000);
        build_table(&env, "t.sst", &entries, bytewise_opts());
        let cache = Arc::new(BlockCache::with_capacity(1 << 20));
        let file = env
            .open_random_access("t.sst", IoClass::FgIndexRead)
            .unwrap();
        let reader = BTableReader::open(file, 42, Some(cache.clone()), KeyCmp::Bytewise).unwrap();

        reader.get(b"key00100").unwrap().unwrap();
        let before = env.io_stats().snapshot();
        reader.get(b"key00100").unwrap().unwrap();
        let d = env.io_stats().snapshot().delta(&before);
        assert_eq!(
            d.class(IoClass::FgIndexRead).read_ops,
            0,
            "second read must be cached"
        );
        let (hits, _, _) = cache.stats();
        assert!(hits >= 1);
    }

    #[test]
    fn corrupted_data_block_reported() {
        let env = MemEnv::new();
        let entries = sample_entries(50);
        build_table(&env, "t.sst", &entries, bytewise_opts());
        env.corrupt_byte("t.sst", 10).unwrap();
        let file = env
            .open_random_access("t.sst", IoClass::FgIndexRead)
            .unwrap();
        let reader = BTableReader::open(file, 1, None, KeyCmp::Bytewise).unwrap();
        let err = reader.get(b"key00000").unwrap_err();
        assert!(matches!(err, Error::Corruption(_)));
    }

    #[test]
    fn a_malformed_data_block_fails_lookups_and_scans() {
        // One checksummed data block whose 6th entry overruns, and an
        // index pointing at it: the CRC is fine, the entries are not.
        let env = MemEnv::new();
        let mut f = env.new_writable("bad.sst", IoClass::Flush).unwrap();
        let handle =
            write_block(f.as_mut(), &crate::block::block_with_overrunning_entry()).unwrap();
        f.sync().unwrap();
        let mut index = BlockBuilder::new(1);
        index.add(b"k19", &handle.encode());
        let index = Block::new(Bytes::from(index.finish())).unwrap();
        let fetcher = BlockFetcher {
            file: env
                .open_random_access("bad.sst", IoClass::FgIndexRead)
                .unwrap(),
            cache: None,
            file_number: 1,
        };
        let corrupt = |got: Result<()>| matches!(got, Err(Error::Corruption(_)));

        let found = search(&index, KeyCmp::Bytewise, b"k10", |h| {
            fetcher.fetch(h, BlockKind::Data, CachePriority::Low)
        });
        assert!(corrupt(found.map(|_| ())));
        let found = search(&index, KeyCmp::Bytewise, b"k02", |h| {
            fetcher.fetch(h, BlockKind::Data, CachePriority::Low)
        });
        assert_eq!(found.unwrap().unwrap().key(), b"k02");

        let mut it = TwoLevelIter::new(
            fetcher,
            index,
            KeyCmp::Bytewise,
            BlockKind::Data,
            CachePriority::Low,
        );
        it.seek(b"k10");
        assert!(!it.valid());
        assert!(corrupt(it.status()));
        it.seek_to_first();
        let mut rows = 0;
        while it.valid() {
            rows += 1;
            it.next();
        }
        assert_eq!(rows, 5);
        assert!(corrupt(it.status()));
    }

    #[test]
    fn empty_table_roundtrip() {
        let env = MemEnv::new();
        let built = build_table(&env, "t.sst", &[], bytewise_opts());
        assert_eq!(built.props.num_entries, 0);
        let reader = open(&env, "t.sst", KeyCmp::Bytewise);
        assert!(reader.get(b"anything").unwrap().is_none());
        let mut it = reader.iter();
        it.seek_to_first();
        assert!(!it.valid());
    }
}
