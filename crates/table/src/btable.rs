//! Block-based tables: the key SSTs of every engine and TerarkDB's value
//! SSTs, one table type ([`KTable`], built by [`KTableBuilder`]) over one
//! or two *streams*.
//!
//! A stream is data blocks, an index block mapping the *last key* of each
//! data block to its handle (a sparse index — which is precisely the
//! property that makes GC reads expensive and motivates the RTable's dense
//! index, paper §III-B1), and a bloom filter over its user keys. A BTable
//! is one stream:
//!
//! ```text
//! [data block]*  [filter block]  [props block]  [metaindex]  [index block]  [footer]
//! ```
//!
//! A DTable is two, a KF and a KV stream ([`dtable`](crate::dtable) has
//! its layout). One `TwoLevelBuilder` writes a stream, `TwoLevel::get`
//! searches it and [`TwoLevelIter`] walks it.
//!
//! The block cache every table reads through, [`BlockCache`] with its one
//! read path [`cached_read`], lives here too.

use crate::block::{Block, BlockBuilder, BlockEntry, BlockIter};
use crate::blockio::{read_block, write_block};
use crate::cache::{CacheKey, CachePriority, LruCache};
use crate::dtable::DTableIter;
use crate::filter::{bloom_hash, BloomBuilder, BloomReader};
use crate::handle::BlockHandle;
use crate::props::{meta_keys, PropsTracker, TableProps, TableType};
use crate::tail::{read_tail, write_tail, Tail};
use crate::{BlockKind, InternalIterator, BLOOM_BITS_PER_KEY, RESTART_INTERVAL};
use bytes::Bytes;
use scavenger_env::{RandomAccessFile, WritableFile};
use scavenger_util::ikey::{cmp_internal, extract_user_key, parse_internal_key, ValueType};
use scavenger_util::{Error, Result};
use std::cmp::Ordering;
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

/// Result of finishing a table build.
pub struct BuiltTable {
    /// Final file size in bytes.
    pub file_size: u64,
    /// Smallest key in the table (encoded form).
    pub smallest: Vec<u8>,
    /// Largest key in the table.
    pub largest: Vec<u8>,
    /// Properties as written to the props block.
    pub props: TableProps,
    /// The tail an open of the file would read, made from the blocks the
    /// builder still held: the file's reader, built from it with the
    /// format's `from_tail`, costs no read.
    pub born: Tail,
    /// A DTable's KF data blocks as written, `(offset, payload)`: each
    /// payload is what [`read_block`] of its handle returns, so the block
    /// cache can hold them before anything reads the file. Empty for
    /// every other table.
    pub kf_blocks: Vec<(u64, Bytes)>,
}

/// One stream under construction, appending its data blocks to the
/// table's file as they fill.
pub(crate) struct TwoLevelBuilder {
    data: BlockBuilder,
    index: BlockBuilder,
    bloom: BloomBuilder,
    block_size: usize,
    /// The data blocks written so far, `(offset, payload)`, when the
    /// stream keeps them (a DTable's KF stream).
    kept: Option<Vec<(u64, Bytes)>>,
}

impl TwoLevelBuilder {
    /// A stream whose data blocks close at `block_size` bytes; with
    /// `keep`, it keeps each data block it writes.
    pub(crate) fn new(block_size: usize, keep: bool) -> Self {
        TwoLevelBuilder {
            data: BlockBuilder::new(RESTART_INTERVAL),
            index: BlockBuilder::new(1),
            bloom: BloomBuilder::new(BLOOM_BITS_PER_KEY),
            block_size,
            kept: keep.then(Vec::new),
        }
    }

    /// Append `key` (whose user key is `user_key`; the table checks the
    /// order), writing the data block out once it reaches the block size.
    pub(crate) fn add(
        &mut self,
        file: &mut dyn WritableFile,
        key: &[u8],
        value: &[u8],
        user_key: &[u8],
    ) -> Result<()> {
        self.bloom.add_key(user_key);
        self.data.add(key, value);
        if self.data.size_estimate() >= self.block_size {
            self.flush(file)?;
        }
        Ok(())
    }

    /// Bytes of the data block not yet written out.
    pub(crate) fn buffered(&self) -> usize {
        self.data.size_estimate()
    }

    fn flush(&mut self, file: &mut dyn WritableFile) -> Result<()> {
        if self.data.is_empty() {
            return Ok(());
        }
        let last_key = self.data.last_key().to_vec();
        let (handle, block) = write_block(file, self.data.finish())?;
        self.index.add(&last_key, &handle.encode());
        if let Some(kept) = &mut self.kept {
            kept.push((handle.offset, Bytes::from(block)));
        }
        Ok(())
    }

    /// Write out the last data block; returns the stream's serialized
    /// bloom filter and index block, for the table's tail, and the data
    /// blocks it kept.
    pub(crate) fn finish(mut self, file: &mut dyn WritableFile) -> Result<FinishedStream> {
        self.flush(file)?;
        Ok(FinishedStream {
            filter: self.bloom.finish(),
            index: self.index.finish(),
            kept: self.kept.unwrap_or_default(),
        })
    }
}

/// What a finished stream leaves for its table's tail and its reader.
pub(crate) struct FinishedStream {
    /// The serialized bloom filter.
    pub(crate) filter: Vec<u8>,
    /// The serialized index block.
    pub(crate) index: Vec<u8>,
    /// The data blocks the stream kept, `(offset, payload)`.
    pub(crate) kept: Vec<(u64, Bytes)>,
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

/// One stream of an open table: its index block and bloom filter, pinned
/// for the life of the reader, and the [`BlockKind`] and tier its data
/// blocks are cached under — `High` for a DTable's KF stream, `Low` for
/// a key SST's data blocks (a BTable's one stream, a DTable's KV stream),
/// `Bottom` for a value BTable's.
pub(crate) struct TwoLevel {
    pub(crate) index: Block,
    filter: Option<Bytes>,
    kind: BlockKind,
    pri: CachePriority,
}

impl TwoLevel {
    /// Point search: the first entry `>= target`, in the data block the
    /// index points it to (or a later one, when that block holds nothing
    /// `>= target`), with missed blocks cached at the stream's tier.
    /// `None` without a read when the bloom filter rules out `target`'s
    /// user key, whose [`bloom_hash`](crate::filter::bloom_hash) is
    /// `ukey_hash`. A malformed index or data block is
    /// [`Error::Corruption`], never "not found".
    pub(crate) fn get(
        &self,
        fetcher: &BlockFetcher,
        target: &[u8],
        ukey_hash: u32,
    ) -> Result<Option<BlockEntry>> {
        if let Some(f) = &self.filter {
            if !BloomReader::new(f).may_contain_hash(ukey_hash) {
                return Ok(None);
            }
        }
        let mut index_iter = self.index.iter();
        index_iter.seek(target);
        while index_iter.valid() {
            let handle = BlockHandle::decode_exact(&index_iter.value())?;
            let mut it = fetcher.fetch(handle, self.kind, self.pri)?.iter();
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

    /// Walk the stream in key order with blocks cached at the stream's
    /// tier. The iterator owns its fetcher, so it outlives the reader
    /// borrow.
    pub(crate) fn iter(&self, fetcher: &BlockFetcher) -> TwoLevelIter {
        TwoLevelIter {
            fetcher: fetcher.clone(),
            kind: self.kind,
            pri: self.pri,
            index_iter: self.index.iter(),
            data_iter: None,
            error: None,
        }
    }
}

/// Iterator over one stream: its index block's entries are handles of
/// data blocks, fetched lazily through the block cache.
pub struct TwoLevelIter {
    fetcher: BlockFetcher,
    kind: BlockKind,
    pri: CachePriority,
    index_iter: BlockIter,
    data_iter: Option<BlockIter>,
    error: Option<Error>,
}

impl TwoLevelIter {
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
                self.data_iter = Some(b.iter());
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

/// Which key-SST format a [`KTableBuilder`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KTableFormat {
    /// RocksDB-style BlockBasedTable: one stream (baselines).
    BTable,
    /// Scavenger's IndexDecoupledTable: a KF and a KV stream (paper
    /// §III-B2).
    DTable,
}

/// Streaming builder of a [`KTable`].
pub struct KTableBuilder {
    file: Box<dyn WritableFile>,
    /// A BTable's one stream; a DTable's KV stream (inline values).
    main: TwoLevelBuilder,
    /// A DTable's KF stream: references and tombstones.
    kf: Option<TwoLevelBuilder>,
    tracker: PropsTracker,
    smallest: Option<Vec<u8>>,
    largest: Vec<u8>,
}

impl KTableBuilder {
    /// Start building a `format` table into `file`, closing data blocks
    /// at `block_size` bytes: the index tree's `LsmOptions::block_size`,
    /// [`BLOCK_SIZE`](crate::BLOCK_SIZE) for a value BTable.
    pub fn new(file: Box<dyn WritableFile>, format: KTableFormat, block_size: usize) -> Self {
        let (table_type, kf) = match format {
            KTableFormat::BTable => (TableType::BTable, None),
            KTableFormat::DTable => (
                TableType::DTable,
                Some(TwoLevelBuilder::new(block_size, true)),
            ),
        };
        KTableBuilder {
            file,
            main: TwoLevelBuilder::new(block_size, false),
            kf,
            tracker: PropsTracker::new(table_type),
            smallest: None,
            largest: Vec::new(),
        }
    }

    /// Append an entry; internal keys must arrive in increasing order. A
    /// DTable routes `ValueRef` and `Deletion` entries to its KF stream
    /// and inline `Value` entries to its KV stream.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        debug_assert!(
            self.smallest.is_none() || cmp_internal(&self.largest, key).is_lt(),
            "keys must be added in strictly increasing order"
        );
        let parsed = parse_internal_key(key)?;
        if self.smallest.is_none() {
            self.smallest = Some(key.to_vec());
        }
        self.largest.clear();
        self.largest.extend_from_slice(key);
        self.tracker.observe(key, value);
        let stream = match &mut self.kf {
            Some(kf) if parsed.vtype != ValueType::Value => kf,
            _ => &mut self.main,
        };
        stream.add(self.file.as_mut(), key, value, parsed.user_key)
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.tracker.num_entries()
    }

    /// Bytes written so far plus the open data blocks (a lower bound on
    /// the final size).
    pub fn estimated_size(&self) -> u64 {
        let kf = self.kf.as_ref().map_or(0, TwoLevelBuilder::buffered);
        self.file.len() + (self.main.buffered() + kf) as u64
    }

    /// Finish the table: write the last data blocks, then the filters,
    /// props, metaindex, index blocks and footer. A DTable's
    /// [`BuiltTable::kf_blocks`] hold its KF data blocks.
    pub fn finish(mut self) -> Result<BuiltTable> {
        let main = self.main.finish(self.file.as_mut())?;
        let kf = match self.kf {
            Some(kf) => Some(kf.finish(self.file.as_mut())?),
            None => None,
        };
        let props = self.tracker.finish();
        let (metas, kf_blocks) = match kf {
            None => (
                vec![
                    (meta_keys::FILTER, main.filter),
                    (meta_keys::PROPS, props.encode()),
                ],
                Vec::new(),
            ),
            Some(kf) => (
                vec![
                    (meta_keys::FILTER_KV, main.filter),
                    (meta_keys::FILTER_KF, kf.filter),
                    (meta_keys::PROPS, props.encode()),
                    (meta_keys::KF_INDEX, kf.index),
                ],
                kf.kept,
            ),
        };
        let built = write_tail(
            self.file,
            metas,
            main.index,
            Vec::new(),
            props,
            self.smallest,
            self.largest,
        )?;
        Ok(BuiltTable { kf_blocks, ..built })
    }
}

/// An open BTable or DTable: its indexes, filters and props are read at
/// open and pinned for the life of the reader.
pub struct KTable {
    fetcher: BlockFetcher,
    /// A BTable's one stream; a DTable's KV stream.
    main: TwoLevel,
    /// A DTable's KF stream, whose missed blocks are cached at high
    /// priority so validation traffic stays resident. A table this
    /// process wrote starts with them cached ([`BuiltTable::kf_blocks`]).
    pub(crate) kf: Option<TwoLevel>,
    props: TableProps,
}

impl KTable {
    /// Open a BTable or DTable file, the format read from its properties.
    pub fn open(
        file: Arc<dyn RandomAccessFile>,
        file_number: u64,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<KTable> {
        let tail = read_tail(file.as_ref())?;
        KTable::from_tail(file, tail, file_number, cache)
    }

    /// [`open`](Self::open) with `file`'s tail already read — or born:
    /// the [`BuiltTable::born`] tail of the builder that wrote `file`.
    pub fn from_tail(
        file: Arc<dyn RandomAccessFile>,
        mut tail: Tail,
        file_number: u64,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<KTable> {
        let f = file.as_ref();
        let (filter, kf) = match tail.props.table_type {
            TableType::BTable => (tail.meta_block(f, meta_keys::FILTER)?, None),
            TableType::DTable => {
                let kf_index = tail
                    .meta_block(f, meta_keys::KF_INDEX)?
                    .ok_or_else(|| Error::corruption("missing kf index"))?;
                let kv_filter = tail.meta_block(f, meta_keys::FILTER_KV)?;
                let kf = TwoLevel {
                    index: Block::new(kf_index)?,
                    filter: tail.meta_block(f, meta_keys::FILTER_KF)?,
                    kind: BlockKind::KeyFile,
                    pri: CachePriority::High,
                };
                (kv_filter, Some(kf))
            }
            other => {
                return Err(Error::corruption(format!(
                    "{other:?} file is not a key SST"
                )))
            }
        };
        Ok(KTable {
            main: TwoLevel {
                index: tail.index,
                filter,
                kind: BlockKind::Data,
                pri: CachePriority::Low,
            },
            kf,
            props: tail.props,
            fetcher: BlockFetcher {
                file,
                cache,
                file_number,
            },
        })
    }

    /// This table as a value file (a value BTable): its one stream holds
    /// separated values, so its blocks enter the cache at
    /// [`CachePriority::Bottom`], below every key SST's.
    pub fn holding_values(mut self) -> KTable {
        self.main.pri = CachePriority::Bottom;
        self
    }

    /// Table properties.
    pub fn props(&self) -> &TableProps {
        &self.props
    }

    /// Point lookup: the first entry with internal key `>= target`, read
    /// in place from its (cached) block, or `None` if the table has no
    /// such entry. The caller checks that the user key matches. A DTable
    /// searches both streams, bloom-guarded, and returns the smaller
    /// candidate, so a key that alternates between inline and separated
    /// values is still found exactly.
    pub fn get(&self, target: &[u8]) -> Result<Option<BlockEntry>> {
        let ukey_hash = bloom_hash(extract_user_key(target));
        let kf = match &self.kf {
            Some(kf) => kf.get(&self.fetcher, target, ukey_hash)?,
            None => None,
        };
        let main = self.main.get(&self.fetcher, target, ukey_hash)?;
        Ok(match (kf, main) {
            (Some(a), Some(b)) if cmp_internal(a.key(), b.key()) == Ordering::Greater => Some(b),
            (a, b) => a.or(b),
        })
    }

    /// The first inline entry `>= target` that
    /// [`index_iter`](Self::index_iter) does not show: a point search of
    /// a DTable's KV stream, `None` for a BTable. This is the "is the
    /// reference shadowed by a newer inline version?" half of a
    /// GC-Lookup.
    pub fn get_inline(&self, target: &[u8]) -> Result<Option<BlockEntry>> {
        if self.kf.is_none() {
            return Ok(None);
        }
        let ukey_hash = bloom_hash(extract_user_key(target));
        self.main.get(&self.fetcher, target, ukey_hash)
    }

    /// Iterate all entries in internal-key order: a DTable's two streams
    /// merged. The iterator owns its fetcher and file, so it outlives the
    /// reader.
    pub fn iter(&self) -> Box<dyn InternalIterator> {
        let main = self.main.iter(&self.fetcher);
        match &self.kf {
            Some(kf) => Box::new(DTableIter::new(kf.iter(&self.fetcher), main)),
            None => Box::new(main),
        }
    }

    /// Iterate the table's **index entries** — references and tombstones
    /// — in internal-key order: a DTable's KF stream alone, no KV block
    /// touched. A BTable has one stream, so its inline entries come along
    /// and [`get_inline`](Self::get_inline) has nothing left to add.
    pub fn index_iter(&self) -> Box<dyn InternalIterator> {
        match &self.kf {
            Some(kf) => Box::new(kf.iter(&self.fetcher)),
            None => Box::new(self.main.iter(&self.fetcher)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::ikey;
    use scavenger_env::{Env, IoClass, MemEnv};
    use scavenger_util::ikey::{make_internal_key, ValueRef};

    fn kv(e: BlockEntry) -> (Vec<u8>, Bytes) {
        (e.key().to_vec(), e.value())
    }

    /// A BTable of `entries` with 256-byte data blocks.
    fn build_table(env: &MemEnv, path: &str, entries: &[(Vec<u8>, Vec<u8>)]) -> BuiltTable {
        let f = env.new_writable(path, IoClass::Flush).unwrap();
        let mut b = KTableBuilder::new(f, KTableFormat::BTable, 256);
        for (k, v) in entries {
            b.add(k, v).unwrap();
        }
        b.finish().unwrap()
    }

    fn open(env: &MemEnv, path: &str) -> KTable {
        let file = env.open_random_access(path, IoClass::FgIndexRead).unwrap();
        KTable::open(file, 1, None).unwrap()
    }

    fn sample_entries(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    ikey(&format!("key{i:05}")),
                    format!("value-{i}").repeat(3).into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn build_and_get_every_key() {
        let env = MemEnv::new();
        let entries = sample_entries(500);
        let built = build_table(&env, "t.sst", &entries);
        assert_eq!(built.props.num_entries, 500);
        assert_eq!(built.smallest, ikey("key00000"));
        assert_eq!(built.largest, ikey("key00499"));

        let reader = open(&env, "t.sst");
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
        build_table(&env, "t.sst", &entries);
        let reader = open(&env, "t.sst");
        // Key between key00010 and key00011.
        let got = reader.get(&ikey("key000105")).unwrap().map(kv);
        if let Some((k, _)) = got {
            assert_eq!(k, ikey("key00011"));
        }
        // Past the end.
        assert!(reader.get(&ikey("zzz")).unwrap().is_none());
    }

    #[test]
    fn bloom_filter_blocks_absent_keys_without_io() {
        let env = MemEnv::new();
        let entries = sample_entries(1000);
        build_table(&env, "t.sst", &entries);
        let reader = open(&env, "t.sst");
        let before = env.io_stats().snapshot();
        let mut found = 0;
        for i in 0..200 {
            if reader.get(&ikey(&format!("absent{i}"))).unwrap().is_some() {
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
        build_table(&env, "t.sst", &entries);
        let reader = open(&env, "t.sst");
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
        build_table(&env, "t.sst", &entries);
        let reader = open(&env, "t.sst");
        let mut it = reader.iter();
        it.seek(&ikey("key00050"));
        assert!(it.valid());
        assert_eq!(it.key(), ikey("key00050"));
        it.seek(&ikey("key000505"));
        assert!(it.valid());
        assert_eq!(it.key(), ikey("key00051"));
        it.seek(&ikey("zzzz"));
        assert!(!it.valid());
    }

    #[test]
    fn internal_keys_track_props_and_deps() {
        let env = MemEnv::new();
        let f = env.new_writable("t.sst", IoClass::Flush).unwrap();
        let mut b = KTableBuilder::new(f, KTableFormat::BTable, crate::BLOCK_SIZE);
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
        let reader = open(&env, "t.sst");
        assert_eq!(reader.props().total_ref_bytes(), 4096 + 8192 + 100);
    }

    #[test]
    fn internal_key_get_finds_visible_version() {
        let env = MemEnv::new();
        let f = env.new_writable("t.sst", IoClass::Flush).unwrap();
        let mut b = KTableBuilder::new(f, KTableFormat::BTable, crate::BLOCK_SIZE);
        b.add(&make_internal_key(b"k", 9, ValueType::Value), b"v9")
            .unwrap();
        b.add(&make_internal_key(b"k", 5, ValueType::Value), b"v5")
            .unwrap();
        b.finish().unwrap();
        let reader = open(&env, "t.sst");

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
        build_table(&env, "t.sst", &entries);
        let cache = Arc::new(BlockCache::with_capacity(1 << 20));
        let file = env
            .open_random_access("t.sst", IoClass::FgIndexRead)
            .unwrap();
        let reader = KTable::open(file, 42, Some(cache.clone())).unwrap();

        reader.get(&ikey("key00100")).unwrap().unwrap();
        let before = env.io_stats().snapshot();
        reader.get(&ikey("key00100")).unwrap().unwrap();
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
        build_table(&env, "t.sst", &entries);
        env.corrupt_byte("t.sst", 10).unwrap();
        let reader = open(&env, "t.sst");
        let err = reader.get(&ikey("key00000")).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)));
    }

    #[test]
    fn a_malformed_data_block_fails_lookups_and_scans() {
        // One checksummed data block whose 6th entry overruns, and an
        // index pointing at it: the CRC is fine, the entries are not.
        let env = MemEnv::new();
        let mut f = env.new_writable("bad.sst", IoClass::Flush).unwrap();
        let (handle, _) =
            write_block(f.as_mut(), crate::block::block_with_overrunning_entry()).unwrap();
        f.sync().unwrap();
        let mut index = BlockBuilder::new(1);
        index.add(&ikey("k19"), &handle.encode());
        let stream = TwoLevel {
            index: Block::new(Bytes::from(index.finish())).unwrap(),
            filter: None,
            kind: BlockKind::Data,
            pri: CachePriority::Low,
        };
        let fetcher = BlockFetcher {
            file: env
                .open_random_access("bad.sst", IoClass::FgIndexRead)
                .unwrap(),
            cache: None,
            file_number: 1,
        };
        let corrupt = |got: Result<()>| matches!(got, Err(Error::Corruption(_)));
        let get = |key: &str| {
            let hash = bloom_hash(key.as_bytes());
            stream.get(&fetcher, &ikey(key), hash)
        };

        assert!(corrupt(get("k10").map(|_| ())));
        assert_eq!(get("k02").unwrap().unwrap().key(), ikey("k02"));

        let mut it = stream.iter(&fetcher);
        it.seek(&ikey("k10"));
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

    /// The order check compares against the table's last key, which
    /// outlives the data block it went into: a key below the previous
    /// block's last key is caught at the first key of the next block.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn a_key_below_the_previous_blocks_last_key_is_refused() {
        let env = MemEnv::new();
        let f = env.new_writable("t.sst", IoClass::Flush).unwrap();
        // Every entry fills its data block.
        let mut b = KTableBuilder::new(f, KTableFormat::BTable, 1);
        b.add(&ikey("b"), b"v").unwrap();
        let _ = b.add(&ikey("a"), b"v");
    }

    #[test]
    fn empty_table_roundtrip() {
        let env = MemEnv::new();
        let built = build_table(&env, "t.sst", &[]);
        assert_eq!(built.props.num_entries, 0);
        let reader = open(&env, "t.sst");
        assert!(reader.get(&ikey("anything")).unwrap().is_none());
        let mut it = reader.iter();
        it.seek_to_first();
        assert!(!it.valid());
    }
}
