//! IndexDecoupledTable (DTable) — the Scavenger key SST (paper §III-B2).
//!
//! Baseline key SSTs (BTable) interleave two very different entry classes
//! in the same data blocks: **KF entries** (`key → value-file reference`,
//! tiny) and **KV records** (small inline values, bulky). A GC-Lookup only
//! needs KF entries, yet every block it touches is mostly small-value
//! payload — wasting I/O and cache space (the paper measured a 22% cache
//! hit-ratio drop under Mixed-8K).
//!
//! The DTable physically segregates the two classes:
//!
//! ```text
//! [kv block | kf block]*  [filter.kv] [filter.kf] [props] [kf index]
//!                         [metaindex] [kv index] [footer]
//! ```
//!
//! Each stream has its own index and bloom filter. KF blocks are fetched
//! with **high cache priority** so validation traffic stays resident.
//! Tombstones travel in the KF stream (they are index-only entries).
//! A point lookup consults both streams (bloom-guarded) and returns the
//! smaller candidate under the internal-key order, so lookups remain exact
//! even when a key alternates between inline and separated values.

use crate::block::{Block, BlockEntry};
use crate::blockio::write_block;
use crate::btable::{
    search, BlockCache, BlockFetcher, BuiltTable, PropsTracker, TableOptions, TwoLevelIter,
};
use crate::cache::CachePriority;
use crate::filter::{bloom_hash, BloomBuilder, BloomReader};
use crate::props::{meta_keys, TableProps, TableType};
use crate::tail::{read_tail, write_tail, Tail};
use crate::{BlockKind, InternalIterator, KeyCmp};
use bytes::Bytes;
use scavenger_env::{RandomAccessFile, WritableFile};
use scavenger_util::ikey::{extract_user_key, parse_internal_key, ValueType};
use scavenger_util::{Error, Result};
use std::cmp::Ordering;
use std::sync::Arc;

use crate::block::BlockBuilder;

/// One entry stream under construction (kv or kf).
struct StreamBuilder {
    data: BlockBuilder,
    index: BlockBuilder,
    bloom: BloomBuilder,
    block_size: usize,
}

impl StreamBuilder {
    fn new(block_size: usize, restart: usize, bloom_bits: usize) -> Self {
        StreamBuilder {
            data: BlockBuilder::new(restart),
            index: BlockBuilder::new(1),
            bloom: BloomBuilder::new(bloom_bits.max(1)),
            block_size,
        }
    }

    fn add(
        &mut self,
        file: &mut dyn WritableFile,
        key: &[u8],
        value: &[u8],
        ukey: &[u8],
    ) -> Result<()> {
        self.bloom.add_key(ukey);
        self.data.add(key, value);
        if self.data.size_estimate() >= self.block_size {
            self.flush(file)?;
        }
        Ok(())
    }

    fn flush(&mut self, file: &mut dyn WritableFile) -> Result<()> {
        if self.data.is_empty() {
            return Ok(());
        }
        let last_key = self.data.last_key().to_vec();
        let payload = self.data.finish();
        let handle = write_block(file, &payload)?;
        self.index.add(&last_key, &handle.encode());
        Ok(())
    }
}

/// Streaming builder for an IndexDecoupledTable.
pub struct DTableBuilder {
    file: Box<dyn WritableFile>,
    kv: StreamBuilder,
    kf: StreamBuilder,
    tracker: PropsTracker,
    smallest: Option<Vec<u8>>,
    largest: Vec<u8>,
    last_key: Vec<u8>,
    num_entries: u64,
}

impl DTableBuilder {
    /// Start building into `file`. DTables always use internal-key order
    /// (routing depends on the internal key's value type).
    pub fn new(file: Box<dyn WritableFile>, opts: TableOptions) -> Self {
        let bs = opts.block_size;
        let ri = opts.restart_interval;
        let bits = opts.bloom_bits_per_key;
        let _ = opts;
        DTableBuilder {
            file,
            kv: StreamBuilder::new(bs, ri, bits),
            // KF entries are tiny; smaller blocks keep point validation
            // reads cheap while still batching well.
            kf: StreamBuilder::new(bs, ri, bits),
            tracker: PropsTracker::new(TableType::DTable, KeyCmp::Internal),
            smallest: None,
            largest: Vec::new(),
            last_key: Vec::new(),
            num_entries: 0,
        }
    }

    /// Append an entry in internal-key order. Routing: `ValueRef` and
    /// `Deletion` entries go to the KF stream, inline `Value` entries to
    /// the KV stream.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        debug_assert!(
            self.last_key.is_empty() || KeyCmp::Internal.cmp(&self.last_key, key).is_lt(),
            "keys must be added in strictly increasing order"
        );
        let parsed = parse_internal_key(key)?;
        if self.smallest.is_none() {
            self.smallest = Some(key.to_vec());
        }
        self.largest.clear();
        self.largest.extend_from_slice(key);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.tracker.observe(key, value);
        self.num_entries += 1;
        match parsed.vtype {
            ValueType::Value => self.kv.add(self.file.as_mut(), key, value, parsed.user_key),
            ValueType::ValueRef | ValueType::Deletion => {
                self.kf.add(self.file.as_mut(), key, value, parsed.user_key)
            }
        }
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Bytes written so far (lower bound on final size).
    pub fn estimated_size(&self) -> u64 {
        self.file.len() + (self.kv.data.size_estimate() + self.kf.data.size_estimate()) as u64
    }

    /// Finish the table.
    pub fn finish(mut self) -> Result<BuiltTable> {
        self.kv.flush(self.file.as_mut())?;
        self.kf.flush(self.file.as_mut())?;
        let props = self.tracker.finish();
        write_tail(
            self.file,
            &[
                (meta_keys::FILTER_KV, self.kv.bloom.finish()),
                (meta_keys::FILTER_KF, self.kf.bloom.finish()),
                (meta_keys::PROPS, props.encode()),
                (meta_keys::KF_INDEX, self.kf.index.finish()),
            ],
            &self.kv.index.finish(),
            props,
            self.smallest,
            self.largest,
        )
    }
}

/// An open IndexDecoupledTable.
pub struct DTableReader {
    fetcher: BlockFetcher,
    kv_index: Block,
    kf_index: Block,
    kv_filter: Option<Bytes>,
    kf_filter: Option<Bytes>,
    props: TableProps,
}

impl DTableReader {
    /// Open a DTable file; indexes, filters, and props are pinned.
    pub fn open(
        file: Arc<dyn RandomAccessFile>,
        file_number: u64,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<DTableReader> {
        let tail = read_tail(file.as_ref())?;
        DTableReader::from_tail(file, tail, file_number, cache)
    }

    /// [`open`](Self::open) with `file`'s tail already read.
    pub fn from_tail(
        file: Arc<dyn RandomAccessFile>,
        mut tail: Tail,
        file_number: u64,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<DTableReader> {
        if tail.props.table_type != TableType::DTable {
            return Err(Error::corruption("not a DTable file"));
        }
        let kf_index = tail
            .meta_block(file.as_ref(), meta_keys::KF_INDEX)?
            .ok_or_else(|| Error::corruption("missing kf index"))?;
        Ok(DTableReader {
            kf_index: Block::new(kf_index)?,
            kv_filter: tail.meta_block(file.as_ref(), meta_keys::FILTER_KV)?,
            kf_filter: tail.meta_block(file.as_ref(), meta_keys::FILTER_KF)?,
            kv_index: tail.index,
            props: tail.props,
            fetcher: BlockFetcher {
                file,
                cache,
                file_number,
            },
        })
    }

    /// Table properties.
    pub fn props(&self) -> &TableProps {
        &self.props
    }

    fn search_stream(
        &self,
        index: &Block,
        filter: &Option<Bytes>,
        kind: BlockKind,
        pri: CachePriority,
        target: &[u8],
        ukey_hash: u32,
    ) -> Result<Option<BlockEntry>> {
        if let Some(f) = filter {
            if !BloomReader::new(f).may_contain_hash(ukey_hash) {
                return Ok(None);
            }
        }
        search(index, KeyCmp::Internal, target, |handle| {
            self.fetcher.fetch(handle, kind, pri)
        })
    }

    /// Point lookup: first entry (across both streams) with internal key
    /// `>= target`. KF blocks are fetched with high cache priority; the
    /// user key is hashed once for both streams' blooms.
    pub fn get(&self, target: &[u8]) -> Result<Option<BlockEntry>> {
        let ukey_hash = bloom_hash(extract_user_key(target));
        let kf = self.search_stream(
            &self.kf_index,
            &self.kf_filter,
            BlockKind::KeyFile,
            CachePriority::High,
            target,
            ukey_hash,
        )?;
        let kv = self.search_inline(target, ukey_hash)?;
        Ok(match (kf, kv) {
            (Some(a), Some(b)) => {
                if KeyCmp::Internal.cmp(a.key(), b.key()) == Ordering::Greater {
                    Some(b)
                } else {
                    Some(a)
                }
            }
            (a, b) => a.or(b),
        })
    }

    /// Point search of the KV stream alone: the first **inline** entry
    /// with internal key `>= target`, bloom-guarded (`FILTER_KV`) and
    /// fetched at low cache priority. This is the "is the reference
    /// shadowed by a newer inline version?" half of a GC-Lookup, whose
    /// sweep iterates [`kf_iter`](DTableReader::kf_iter) only.
    pub fn get_inline(&self, target: &[u8]) -> Result<Option<BlockEntry>> {
        self.search_inline(target, bloom_hash(extract_user_key(target)))
    }

    fn search_inline(&self, target: &[u8], ukey_hash: u32) -> Result<Option<BlockEntry>> {
        self.search_stream(
            &self.kv_index,
            &self.kv_filter,
            BlockKind::Data,
            CachePriority::Low,
            target,
            ukey_hash,
        )
    }

    /// Iterate the KF stream alone — references and tombstones, the
    /// table's *index entries* — through high-priority-cached KF blocks.
    /// No KV block is touched.
    pub fn kf_iter(&self) -> TwoLevelIter {
        TwoLevelIter::new(
            self.fetcher.clone(),
            self.kf_index.clone(),
            KeyCmp::Internal,
            BlockKind::KeyFile,
            CachePriority::High,
        )
    }

    /// Iterate both streams merged in internal-key order. The iterator is
    /// self-contained (owns its fetchers).
    pub fn iter(&self) -> DTableIter {
        DTableIter {
            kf: self.kf_iter(),
            kv: TwoLevelIter::new(
                self.fetcher.clone(),
                self.kv_index.clone(),
                KeyCmp::Internal,
                BlockKind::Data,
                CachePriority::Low,
            ),
            on_kf: true,
            error: None,
        }
    }
}

/// Merged iterator over a DTable's KF and KV streams.
///
/// The first error either stream meets stops the merge: the iterator
/// turns invalid and [`status`](InternalIterator::status) reports it.
/// Going on with the other stream alone would serve the entries after a
/// lost reference or tombstone as if it were not there.
pub struct DTableIter {
    kf: TwoLevelIter,
    kv: TwoLevelIter,
    on_kf: bool,
    error: Option<Error>,
}

impl DTableIter {
    fn pick(&mut self) {
        if self.error.is_none() {
            self.error = self.kf.status().and(self.kv.status()).err();
        }
        self.on_kf = match (self.kf.valid(), self.kv.valid()) {
            (true, true) => KeyCmp::Internal.cmp(self.kf.key(), self.kv.key()) != Ordering::Greater,
            (true, false) => true,
            _ => false,
        };
    }
}

impl InternalIterator for DTableIter {
    fn valid(&self) -> bool {
        self.error.is_none() && (self.kf.valid() || self.kv.valid())
    }

    fn seek_to_first(&mut self) {
        self.kf.seek_to_first();
        self.kv.seek_to_first();
        self.pick();
    }

    fn seek(&mut self, target: &[u8]) {
        self.kf.seek(target);
        self.kv.seek(target);
        self.pick();
    }

    fn next(&mut self) {
        if self.on_kf {
            self.kf.next();
        } else {
            self.kv.next();
        }
        self.pick();
    }

    fn key(&self) -> &[u8] {
        if self.on_kf {
            self.kf.key()
        } else {
            self.kv.key()
        }
    }

    fn value(&self) -> Bytes {
        if self.on_kf {
            self.kf.value()
        } else {
            self.kv.value()
        }
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
    use scavenger_util::ikey::{make_internal_key, ValueRef};

    fn kv(e: BlockEntry) -> (Vec<u8>, Bytes) {
        (e.key().to_vec(), e.value())
    }

    fn opts() -> TableOptions {
        TableOptions {
            block_size: 512,
            ..TableOptions::default()
        }
    }

    /// Build a table mixing inline small values and refs, like a
    /// KV-separated index LSM under the paper's Mixed workload.
    fn mixed_entries(n: usize) -> Vec<(Vec<u8>, Vec<u8>, ValueType)> {
        (0..n)
            .map(|i| {
                let key = format!("key{i:05}");
                if i % 2 == 0 {
                    // Small inline value.
                    (
                        make_internal_key(key.as_bytes(), 100 + i as u64, ValueType::Value),
                        vec![b'v'; 100 + (i % 100)],
                        ValueType::Value,
                    )
                } else {
                    let r = ValueRef {
                        file: 3,
                        size: 16384,
                        offset: (i * 16384) as u64,
                    };
                    (
                        make_internal_key(key.as_bytes(), 100 + i as u64, ValueType::ValueRef),
                        r.encode(),
                        ValueType::ValueRef,
                    )
                }
            })
            .collect()
    }

    fn build(env: &MemEnv, path: &str, es: &[(Vec<u8>, Vec<u8>, ValueType)]) -> BuiltTable {
        let f = env.new_writable(path, IoClass::Flush).unwrap();
        let mut b = DTableBuilder::new(f, opts());
        for (k, v, _) in es {
            b.add(k, v).unwrap();
        }
        b.finish().unwrap()
    }

    fn open(env: &MemEnv, path: &str, cache: Option<Arc<BlockCache>>) -> DTableReader {
        let file = env.open_random_access(path, IoClass::FgIndexRead).unwrap();
        DTableReader::open(file, 5, cache).unwrap()
    }

    #[test]
    fn build_and_get_both_streams() {
        let env = MemEnv::new();
        let es = mixed_entries(400);
        let built = build(&env, "d.sst", &es);
        assert_eq!(built.props.table_type, TableType::DTable);
        assert_eq!(built.props.num_refs, 200);
        assert_eq!(built.props.num_inline, 200);

        let r = open(&env, "d.sst", None);
        for (k, v, _) in &es {
            let (fk, fv) = r.get(k).unwrap().map(kv).expect("entry");
            assert_eq!(&fk, k);
            assert_eq!(&fv[..], v.as_slice());
        }
    }

    #[test]
    fn lookup_of_ref_keys_avoids_kv_blocks() {
        let env = MemEnv::new();
        let es = mixed_entries(2000);
        build(&env, "d.sst", &es);
        let cache = Arc::new(BlockCache::with_capacity(4 << 20));
        let r = open(&env, "d.sst", Some(cache));

        // Warm nothing; look up only ref keys and count read bytes.
        let before = env.io_stats().snapshot();
        for (k, _, _t) in es
            .iter()
            .filter(|(_, _, t)| *t == ValueType::ValueRef)
            .take(200)
        {
            r.get(k).unwrap().unwrap();
        }
        let d = env.io_stats().snapshot().delta(&before);
        let ref_lookup_bytes = d.class(IoClass::FgIndexRead).read_bytes;

        // Compare against an equivalent BTable where streams interleave.
        let f = env.new_writable("b.sst", IoClass::Flush).unwrap();
        let mut bb = crate::btable::BTableBuilder::new(
            f,
            TableOptions {
                block_size: 512,
                ..TableOptions::default()
            },
        );
        for (k, v, _) in &es {
            bb.add(k, v).unwrap();
        }
        bb.finish().unwrap();
        let bfile = env
            .open_random_access("b.sst", IoClass::FgIndexRead)
            .unwrap();
        let cache2 = Arc::new(BlockCache::with_capacity(4 << 20));
        let br =
            crate::btable::BTableReader::open(bfile, 6, Some(cache2), KeyCmp::Internal).unwrap();
        let before = env.io_stats().snapshot();
        for (k, _, _t) in es
            .iter()
            .filter(|(_, _, t)| *t == ValueType::ValueRef)
            .take(200)
        {
            br.get(k).unwrap().unwrap();
        }
        let d = env.io_stats().snapshot().delta(&before);
        let btable_bytes = d.class(IoClass::FgIndexRead).read_bytes;

        assert!(
            ref_lookup_bytes * 2 < btable_bytes,
            "DTable ref lookups should read far less: dtable={ref_lookup_bytes} btable={btable_bytes}"
        );
    }

    #[test]
    fn tombstones_live_in_kf_stream_and_are_found() {
        let env = MemEnv::new();
        let f = env.new_writable("d.sst", IoClass::Flush).unwrap();
        let mut b = DTableBuilder::new(f, opts());
        b.add(&make_internal_key(b"a", 5, ValueType::Deletion), b"")
            .unwrap();
        b.add(&make_internal_key(b"b", 4, ValueType::Value), b"small")
            .unwrap();
        let built = b.finish().unwrap();
        assert_eq!(built.props.num_deletions, 1);

        let r = open(&env, "d.sst", None);
        let t = make_internal_key(b"a", 100, ValueType::ValueRef);
        let (k, _) = r.get(&t).unwrap().map(kv).unwrap();
        let p = parse_internal_key(&k).unwrap();
        assert_eq!(p.user_key, b"a");
        assert_eq!(p.vtype, ValueType::Deletion);
    }

    #[test]
    fn newest_version_wins_across_streams() {
        // Key flip-flops: old separated value (seq 5), newer inline (seq 9).
        let env = MemEnv::new();
        let f = env.new_writable("d.sst", IoClass::Flush).unwrap();
        let mut b = DTableBuilder::new(f, opts());
        let r9 = make_internal_key(b"k", 9, ValueType::Value);
        let r5 = make_internal_key(b"k", 5, ValueType::ValueRef);
        b.add(&r9, b"new-inline").unwrap();
        b.add(
            &r5,
            &ValueRef {
                file: 1,
                size: 100,
                offset: 0,
            }
            .encode(),
        )
        .unwrap();
        b.finish().unwrap();

        let r = open(&env, "d.sst", None);
        let t = make_internal_key(b"k", 100, ValueType::ValueRef);
        let (k, v) = r.get(&t).unwrap().map(kv).unwrap();
        let p = parse_internal_key(&k).unwrap();
        assert_eq!(p.seq, 9);
        assert_eq!(p.vtype, ValueType::Value);
        assert_eq!(&v[..], b"new-inline");

        // At snapshot seq 6, the ref version is visible instead.
        let t = make_internal_key(b"k", 6, ValueType::ValueRef);
        let (k, _) = r.get(&t).unwrap().map(kv).unwrap();
        assert_eq!(parse_internal_key(&k).unwrap().seq, 5);
    }

    #[test]
    fn merged_iterator_yields_global_order() {
        let env = MemEnv::new();
        let es = mixed_entries(500);
        build(&env, "d.sst", &es);
        let r = open(&env, "d.sst", None);
        let mut it = r.iter();
        it.seek_to_first();
        for (k, v, _) in &es {
            assert!(it.valid());
            assert_eq!(it.key(), k.as_slice());
            assert_eq!(&it.value()[..], v.as_slice());
            it.next();
        }
        assert!(!it.valid());
        it.status().unwrap();
    }

    /// A flipped byte in the second KF block stops the merged iterator
    /// there with `Corruption`: no KV entry after the block is served as
    /// if the references and tombstones it held were not there.
    #[test]
    fn a_corrupt_kf_block_stops_the_merged_iterator() {
        let env = MemEnv::new();
        let es = mixed_entries(400);
        build(&env, "d.sst", &es);
        let r = open(&env, "d.sst", None);
        let mut blocks = r.kf_index.iter(KeyCmp::Internal);
        blocks.seek_to_first();
        let first_block_last = blocks.key().to_vec();
        blocks.next();
        let second = crate::handle::BlockHandle::decode_exact(&blocks.value()).unwrap();
        env.corrupt_byte("d.sst", second.offset + 1).unwrap();
        let is_corruption = |it: &DTableIter| matches!(it.status(), Err(Error::Corruption(_)));

        let mut it = r.iter();
        it.seek_to_first();
        let mut served = 0;
        while it.valid() {
            assert!(
                KeyCmp::Internal.cmp(it.key(), &first_block_last) != Ordering::Greater,
                "entry {served} comes after the corrupt KF block"
            );
            served += 1;
            it.next();
        }
        assert!(served > 0 && is_corruption(&it), "{:?}", it.status());

        // A seek into the broken block stops there too.
        let mut it = r.iter();
        let past = es
            .iter()
            .find(|(k, _, _)| KeyCmp::Internal.cmp(k, &first_block_last) == Ordering::Greater);
        it.seek(&past.unwrap().0);
        assert!(!it.valid() && is_corruption(&it), "{:?}", it.status());
    }

    #[test]
    fn merged_iterator_seek() {
        let env = MemEnv::new();
        let es = mixed_entries(100);
        build(&env, "d.sst", &es);
        let r = open(&env, "d.sst", None);
        let mut it = r.iter();
        it.seek(&es[37].0);
        assert!(it.valid());
        assert_eq!(it.key(), es[37].0.as_slice());
        // Seek past everything.
        it.seek(&make_internal_key(b"zzzz", 0, ValueType::Value));
        assert!(!it.valid());
    }

    #[test]
    fn all_ref_table_degenerates_gracefully() {
        // A DTable holding only refs (pure large-value workload) behaves
        // like a compact KF-only table.
        let env = MemEnv::new();
        let f = env.new_writable("d.sst", IoClass::Flush).unwrap();
        let mut b = DTableBuilder::new(f, opts());
        let mut keys = Vec::new();
        for i in 0..100 {
            let k = make_internal_key(format!("k{i:03}").as_bytes(), i, ValueType::ValueRef);
            b.add(
                &k,
                &ValueRef {
                    file: 2,
                    size: 1 << 14,
                    offset: 0,
                }
                .encode(),
            )
            .unwrap();
            keys.push(k);
        }
        b.finish().unwrap();
        let r = open(&env, "d.sst", None);
        for k in &keys {
            assert!(r.get(k).unwrap().is_some());
        }
        let mut it = r.iter();
        it.seek_to_first();
        let mut n = 0;
        while it.valid() {
            n += 1;
            it.next();
        }
        assert_eq!(n, 100);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn prop_dtable_roundtrip_mixed_routing(
            kinds in proptest::collection::vec(0u8..3, 1..80),
        ) {
            let env = MemEnv::new();
            let entries: Vec<(Vec<u8>, Vec<u8>)> = kinds
                .iter()
                .enumerate()
                .map(|(i, kind)| {
                    let ukey = format!("user{i:06}");
                    match kind {
                        0 => (
                            make_internal_key(ukey.as_bytes(), i as u64 + 1, ValueType::Value),
                            vec![b'v'; 50 + i % 200],
                        ),
                        1 => (
                            make_internal_key(ukey.as_bytes(), i as u64 + 1, ValueType::ValueRef),
                            ValueRef { file: 3, size: 1 << 14, offset: i as u64 }.encode(),
                        ),
                        _ => (
                            make_internal_key(ukey.as_bytes(), i as u64 + 1, ValueType::Deletion),
                            Vec::new(),
                        ),
                    }
                })
                .collect();
            let f = env.new_writable("p.sst", IoClass::Flush).unwrap();
            let mut b = DTableBuilder::new(f, opts());
            for (k, v) in &entries {
                b.add(k, v).unwrap();
            }
            b.finish().unwrap();
            let file = env.open_random_access("p.sst", IoClass::FgIndexRead).unwrap();
            let r = DTableReader::open(file, 1, None).unwrap();
            // Exact point lookups across all three entry kinds.
            for (k, v) in &entries {
                let (fk, fv) = r.get(k).unwrap().map(kv).unwrap();
                proptest::prop_assert_eq!(&fk, k);
                proptest::prop_assert_eq!(&fv[..], v.as_slice());
            }
            // Merged iteration yields global internal-key order.
            let mut it = r.iter();
            it.seek_to_first();
            for (k, _) in &entries {
                proptest::prop_assert!(it.valid());
                proptest::prop_assert_eq!(it.key(), k.as_slice());
                it.next();
            }
            proptest::prop_assert!(!it.valid());
        }
    }

    #[test]
    fn bloom_rejects_absent_user_keys() {
        let env = MemEnv::new();
        let es = mixed_entries(1000);
        build(&env, "d.sst", &es);
        let r = open(&env, "d.sst", None);
        let before = env.io_stats().snapshot();
        for i in 0..100 {
            let t = make_internal_key(format!("absent{i}").as_bytes(), 1, ValueType::Value);
            assert!(!r
                .get(&t)
                .unwrap()
                .map(kv)
                .map(|(k, _)| {
                    parse_internal_key(&k)
                        .unwrap()
                        .user_key
                        .starts_with(b"absent")
                })
                .unwrap_or(false));
        }
        let d = env.io_stats().snapshot().delta(&before);
        assert!(
            d.class(IoClass::FgIndexRead).read_ops <= 25,
            "bloom should stop most absent lookups, got {} reads",
            d.class(IoClass::FgIndexRead).read_ops
        );
    }
}
