//! RecordBasedTable (RTable) — the Scavenger value SST (paper §III-B1).
//!
//! Unlike a BTable, which packs many entries into shared data blocks and
//! keeps a *sparse* index (one entry per block), the RTable stores each
//! key-value pair as an individually checksummed **record** and keeps a
//! *dense* index: one `(key → record handle)` entry per record, organised
//! as a partitioned two-level index.
//!
//! ```text
//! [record | index partition]*  [top index]  [filter]  [props]  [metaindex]  [footer]
//! record := varint klen ++ key ++ varint vlen ++ value   (+ 5B crc trailer)
//! ```
//!
//! This buys the GC's **Lazy Read**: reading *only* the index partitions
//! yields every key in the file plus the exact location of its value, so
//! validity checks (GC-Lookup) run before a single value byte is fetched,
//! and only surviving values are ever read. A reader keeps the whole index
//! in memory for its lifetime, outside the block cache: the Table I
//! dense-index bytes, as a key SST's reader keeps its index and filter.

use crate::block::{Block, BlockBuilder};
use crate::blockio::{read_block, verify_block, write_block, BLOCK_TRAILER_LEN};
use crate::btable::{BlockCache, BlockFetcher, BuiltTable};
use crate::cache::CachePriority;
use crate::filter::{BloomBuilder, BloomReader};
use crate::handle::BlockHandle;
use crate::props::{meta_keys, PropsTracker, TableProps, TableType};
use crate::tail::{read_tail, write_tail, Tail};
use crate::{BlockKind, BLOOM_BITS_PER_KEY, INDEX_PARTITION_SIZE};
use bytes::Bytes;
use parking_lot::Mutex;
use scavenger_env::{Coalesce, RandomAccessFile, WritableFile};
use scavenger_util::coding::{get_length_prefixed_slice, put_length_prefixed_slice, varint64_len};
use scavenger_util::ikey::{cmp_internal, extract_user_key};
use scavenger_util::{Error, Result};
use std::sync::{Arc, OnceLock};

/// Streaming builder for a RecordBasedTable.
pub struct RTableBuilder {
    file: Box<dyn WritableFile>,
    partition: BlockBuilder,
    top_index: BlockBuilder,
    bloom: BloomBuilder,
    tracker: PropsTracker,
    smallest: Option<Vec<u8>>,
    largest: Vec<u8>,
    index_bytes: u64,
    /// Every index partition written, with its payload, in file order:
    /// the born tail hands them to the file's reader.
    partitions: Vec<(BlockHandle, Bytes)>,
    /// A record's encoded handle, reused from one `add` to the next.
    encoded: Vec<u8>,
}

impl RTableBuilder {
    /// Start building into `file`.
    pub fn new(file: Box<dyn WritableFile>) -> Self {
        RTableBuilder {
            file,
            partition: BlockBuilder::new(8),
            top_index: BlockBuilder::new(1),
            bloom: BloomBuilder::new(BLOOM_BITS_PER_KEY),
            tracker: PropsTracker::new(TableType::RTable),
            smallest: None,
            largest: Vec::new(),
            index_bytes: 0,
            partitions: Vec::new(),
            encoded: Vec::new(),
        }
    }

    /// Append a record; internal keys must arrive in increasing order.
    /// Returns the record's handle (useful for address-based callers).
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<BlockHandle> {
        debug_assert!(
            self.smallest.is_none() || cmp_internal(&self.largest, key).is_lt(),
            "keys must be added in strictly increasing order"
        );
        if self.smallest.is_none() {
            self.smallest = Some(key.to_vec());
        }
        self.largest.clear();
        self.largest.extend_from_slice(key);
        self.bloom.add_key(extract_user_key(key));
        self.tracker.observe(key, value);

        // Exactly the record and the trailer `write_block` seals it with:
        // one buffer, one copy of the value.
        let len = varint64_len(key.len() as u64)
            + key.len()
            + varint64_len(value.len() as u64)
            + value.len();
        let mut record = Vec::with_capacity(len + BLOCK_TRAILER_LEN);
        put_length_prefixed_slice(&mut record, key);
        put_length_prefixed_slice(&mut record, value);
        let (handle, _) = write_block(self.file.as_mut(), record)?;

        self.encoded.clear();
        handle.encode_to(&mut self.encoded);
        self.partition.add(key, &self.encoded);
        if self.partition.size_estimate() >= INDEX_PARTITION_SIZE {
            self.flush_partition()?;
        }
        Ok(handle)
    }

    fn flush_partition(&mut self) -> Result<()> {
        if self.partition.is_empty() {
            return Ok(());
        }
        let last_key = self.partition.last_key().to_vec();
        let (handle, payload) = write_block(self.file.as_mut(), self.partition.finish())?;
        self.index_bytes += handle.size + BLOCK_TRAILER_LEN as u64;
        self.top_index.add(&last_key, &handle.encode());
        self.partitions.push((handle, Bytes::from(payload)));
        Ok(())
    }

    /// Number of records added so far.
    pub fn num_entries(&self) -> u64 {
        self.tracker.num_entries()
    }

    /// Bytes written so far (lower bound on final size).
    pub fn estimated_size(&self) -> u64 {
        self.file.len() + self.partition.size_estimate() as u64
    }

    /// Finish the table. Its born tail holds every index partition, so
    /// the reader built from it holds the whole index without a read.
    pub fn finish(mut self) -> Result<BuiltTable> {
        self.flush_partition()?;
        let props = self.tracker.finish();
        write_tail(
            self.file,
            vec![
                (meta_keys::FILTER, self.bloom.finish()),
                (meta_keys::PROPS, props.encode()),
            ],
            self.top_index.finish(),
            self.partitions,
            props,
            self.smallest,
            self.largest,
        )
    }

    /// Bytes spent on index partitions so far — the dense-index overhead
    /// the paper measures in Table I.
    pub fn index_bytes(&self) -> u64 {
        self.index_bytes
    }
}

/// Decode a record payload into `(key, value)`, both zero-copy slices
/// of `payload`.
pub fn decode_record(payload: &Bytes) -> Result<(Bytes, Bytes)> {
    let mut cur = &payload[..];
    let klen = get_length_prefixed_slice(&mut cur)?.len();
    let key_end = payload.len() - cur.len();
    let vlen = get_length_prefixed_slice(&mut cur)?.len();
    if !cur.is_empty() {
        return Err(Error::corruption("trailing bytes in rtable record"));
    }
    // `cur` is empty, so the value is exactly the payload's last `vlen`
    // bytes, and the key the `klen` bytes before `key_end`.
    let value_off = payload.len() - vlen;
    Ok((
        payload.slice(key_end - klen..key_end),
        payload.slice(value_off..),
    ))
}

/// Read the `(offset, len)` byte ranges of `file`, fetching neighbours
/// that `limits` allows in one I/O — the one coalescing loop behind GC
/// Lazy-Read fetches, scan look-ahead and blob-log record reads, all of
/// which pass [`READ_SIZE`](scavenger_env::READ_SIZE). Returns
/// one buffer per range, in input order (zero-copy slices of the span
/// they were read in). Ranges should arrive sorted by offset: one that
/// starts before the current span simply opens a new span.
///
/// Records never overlap on disk, so a range that starts inside the
/// span and ends past it can only come from a corrupt index: it is
/// reported as [`Error::Corruption`], never sliced out of range.
pub fn read_coalesced(
    file: &dyn RandomAccessFile,
    ranges: &[(u64, u64)],
    limits: Coalesce,
) -> Result<Vec<Bytes>> {
    let end_of = |&(offset, len): &(u64, u64)| {
        offset
            .checked_add(len)
            .ok_or_else(|| Error::corruption("record range overflows the file offset space"))
    };
    let mut out = Vec::with_capacity(ranges.len());
    let mut i = 0;
    while i < ranges.len() {
        let start = ranges[i].0;
        let mut end = end_of(&ranges[i])?;
        let mut j = i + 1;
        while j < ranges.len() {
            let offset = ranges[j].0;
            let next_end = end_of(&ranges[j])?;
            if offset < start {
                break;
            }
            if offset < end {
                // A repeat of (or a range inside) what the span already
                // covers is served from it; its own checksum decides.
                if next_end > end {
                    return Err(Error::corruption(format!(
                        "overlapping record ranges at offset {offset}"
                    )));
                }
            } else if offset - end <= limits.max_gap && next_end - start <= limits.max_span {
                end = next_end;
            } else {
                break;
            }
            j += 1;
        }
        let span = usize::try_from(end - start)
            .map_err(|_| Error::corruption("record range exceeds addressable memory"))?;
        let buf = file.read_at(start, span)?;
        if buf.len() != span {
            return Err(Error::corruption("short coalesced read"));
        }
        for &(offset, len) in &ranges[i..j] {
            let at = (offset - start) as usize;
            out.push(buf.slice(at..at + len as usize));
        }
        i = j;
    }
    Ok(out)
}

/// One index partition of an open RTable: the top index's entry for it
/// and, once the reader holds it, the partition itself.
struct Partition {
    /// The last key the partition holds.
    last_key: Box<[u8]>,
    handle: BlockHandle,
    block: OnceLock<Block>,
}

/// The partitions a top index lists, in its order (which is file order),
/// none of them held yet.
fn partitions(top_index: &Block) -> Result<Vec<Partition>> {
    let mut out = Vec::new();
    let mut top = top_index.iter();
    top.seek_to_first();
    while top.valid() {
        out.push(Partition {
            last_key: top.key().into(),
            handle: BlockHandle::decode_exact(&top.value())?,
            block: OnceLock::new(),
        });
        top.next();
    }
    top.status()?;
    Ok(out)
}

/// An open RecordBasedTable.
pub struct RTableReader {
    fetcher: BlockFetcher,
    filter: Option<Bytes>,
    props: TableProps,
    open_bytes: u64,
    /// Every index partition, indexed by its ordinal in the top index;
    /// each is held for the reader's lifetime from the moment the reader
    /// has it.
    parts: Vec<Partition>,
    /// Taken to read a partition the reader does not hold yet, so that
    /// racing first uses read it once.
    fill: Mutex<()>,
}

impl RTableReader {
    /// Open an RTable file: one tail read, then
    /// [`from_tail`](Self::from_tail).
    pub fn open(
        file: Arc<dyn RandomAccessFile>,
        file_number: u64,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<RTableReader> {
        let tail = read_tail(file.as_ref())?;
        RTableReader::from_tail(file, tail, file_number, cache)
    }

    /// The reader of `file` built from its tail — read by
    /// [`open`](Self::open), or born: the [`BuiltTable::born`] tail of the
    /// builder that wrote it. Filter, props and the top index are held
    /// for the reader's lifetime, and so is every index partition: a
    /// born tail holds them all, an opened one those inside its
    /// [`TAIL_PREFETCH`](crate::TAIL_PREFETCH) bytes, CRC-checked, and the
    /// reader reads each other one once, on its first use. No partition
    /// enters the block cache. A partition that fails its checksum is
    /// never kept: every read that needs it reads it again and reports
    /// the corruption.
    pub fn from_tail(
        file: Arc<dyn RandomAccessFile>,
        mut tail: Tail,
        file_number: u64,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<RTableReader> {
        let filter = tail.meta_block(file.as_ref(), meta_keys::FILTER)?;
        if tail.props.table_type != TableType::RTable {
            return Err(Error::corruption("not an RTable file"));
        }
        let parts = partitions(&tail.index)?;
        for part in &parts {
            // One that fails its checksum is left to its first use.
            if let Some(Ok(payload)) = tail.prefetched(part.handle) {
                if let Ok(block) = Block::new(payload) {
                    let _ = part.block.set(block);
                }
            }
        }
        Ok(RTableReader {
            fetcher: BlockFetcher {
                file,
                cache,
                file_number,
            },
            filter,
            props: tail.props,
            open_bytes: tail.asked,
            parts,
            fill: Mutex::new(()),
        })
    }

    /// Bytes [`open`](Self::open) asks the file for — footer, top
    /// index, metaindex, properties and filter with their trailers —
    /// however many the tail prefetch moved to serve them; a born reader
    /// counts the same bytes.
    pub fn open_bytes(&self) -> u64 {
        self.open_bytes
    }

    /// Offsets of the index partitions the reader holds, in file order.
    #[cfg(test)]
    pub(crate) fn pinned_partitions(&self) -> Vec<u64> {
        self.parts
            .iter()
            .filter(|p| p.block.get().is_some())
            .map(|p| p.handle.offset)
            .collect()
    }

    /// Index partition `i`: held, or read once — CRC-checked — and held
    /// from then on.
    fn partition(&self, i: usize) -> Result<&Block> {
        let part = &self.parts[i];
        if let Some(block) = part.block.get() {
            return Ok(block);
        }
        let _first = self.fill.lock();
        if let Some(block) = part.block.get() {
            return Ok(block);
        }
        let block = Block::new(read_block(self.fetcher.file.as_ref(), part.handle)?)?;
        Ok(part.block.get_or_init(|| block))
    }

    /// Table properties.
    pub fn props(&self) -> &TableProps {
        &self.props
    }

    /// Bloom check on a user key.
    pub fn may_contain(&self, user_key: &[u8]) -> bool {
        match &self.filter {
            Some(f) => BloomReader::new(f).may_contain(user_key),
            None => true,
        }
    }

    /// Handle of the record stored under exactly `target`, reading no
    /// record bytes: one bloom probe, then one lookup in the index
    /// partition whose last key is the first `>= target` — the only one
    /// that can hold it — which costs a read only the first time an
    /// opened reader uses a partition outside its tail.
    pub fn find_exact(&self, target: &[u8]) -> Result<Option<BlockHandle>> {
        if !self.may_contain(extract_user_key(target)) {
            return Ok(None);
        }
        let i = self
            .parts
            .partition_point(|p| cmp_internal(&p.last_key, target).is_lt());
        if i == self.parts.len() {
            return Ok(None);
        }
        let mut it = self.partition(i)?.iter();
        it.seek(target);
        it.status()?;
        if it.valid() && it.key() == target {
            return BlockHandle::decode_exact(&it.value()).map(Some);
        }
        Ok(None)
    }

    /// Read and decode the record at `handle` — a point read, through the
    /// block cache keyed by the record's offset: a hit is served, a miss
    /// enters at [`CachePriority::Bottom`] once CRC-verified. Scans and GC
    /// read records around the cache with
    /// [`read_records`](Self::read_records).
    pub fn read_record(&self, handle: BlockHandle) -> Result<(Bytes, Bytes)> {
        decode_record(
            &self
                .fetcher
                .payload(handle, BlockKind::Data, CachePriority::Bottom)?,
        )
    }

    /// **Lazy Read** (paper Fig. 8 step ①): return every key in the file
    /// with its record handle, reading no record: a partition the reader
    /// holds costs nothing, and an opened reader reads each other one
    /// once.
    pub fn read_index(&self) -> Result<Vec<(Vec<u8>, BlockHandle)>> {
        let mut out = Vec::with_capacity(self.props.num_entries as usize);
        for i in 0..self.parts.len() {
            let mut it = self.partition(i)?.iter();
            it.seek_to_first();
            while it.valid() {
                out.push((it.key().to_vec(), BlockHandle::decode_exact(&it.value())?));
                it.next();
            }
            it.status()?;
        }
        Ok(out)
    }

    /// The handles of the index partitions, in file order: costs no I/O.
    pub fn partitions(&self) -> Vec<BlockHandle> {
        self.parts.iter().map(|p| p.handle).collect()
    }

    /// Bytes [`read_index`](Self::read_index) asks the file for: every
    /// index partition with its trailer, wherever it is served from.
    /// Costs no I/O; GC's pacing charge uses it.
    pub fn index_bytes(&self) -> u64 {
        self.parts.iter().fold(0u64, |total, p| {
            total.saturating_add(p.handle.size.saturating_add(BLOCK_TRAILER_LEN as u64))
        })
    }

    /// Fetch many records by handle through [`read_coalesced`]: handles
    /// that `limits` lets share a span are fetched in one I/O, and every
    /// record is CRC-verified and decoded individually either way.
    /// Handles must be sorted by offset for coalescing to help (an
    /// out-of-order handle just starts a new span).
    pub fn read_records(
        &self,
        handles: &[BlockHandle],
        limits: Coalesce,
    ) -> Result<Vec<(Bytes, Bytes)>> {
        let ranges: Vec<(u64, u64)> = handles
            .iter()
            .map(|h| (h.offset, h.size.saturating_add(BLOCK_TRAILER_LEN as u64)))
            .collect();
        let raws = read_coalesced(self.fetcher.file.as_ref(), &ranges, limits)?;
        let mut out = Vec::with_capacity(handles.len());
        for (raw, h) in raws.iter().zip(handles) {
            out.push(decode_record(&verify_block(raw, *h)?)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::ikey;
    use scavenger_env::{Env, IoClass, MemEnv};

    fn entries(n: usize, vlen: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| (ikey(&format!("user{i:06}")), vec![(i % 251) as u8; vlen]))
            .collect()
    }

    fn build(env: &MemEnv, path: &str, es: &[(Vec<u8>, Vec<u8>)]) -> BuiltTable {
        let f = env.new_writable(path, IoClass::Flush).unwrap();
        let mut b = RTableBuilder::new(f);
        for (k, v) in es {
            b.add(k, v).unwrap();
        }
        b.finish().unwrap()
    }

    fn open(env: &MemEnv, path: &str) -> RTableReader {
        let file = env.open_random_access(path, IoClass::FgValueRead).unwrap();
        RTableReader::open(file, 7, None).unwrap()
    }

    /// Point lookup the way the value store does it: locate, then fetch.
    fn get(r: &RTableReader, key: &[u8]) -> Option<(Bytes, Bytes)> {
        let handle = r.find_exact(key).unwrap()?;
        Some(r.read_record(handle).unwrap())
    }

    #[test]
    fn build_get_roundtrip() {
        let env = MemEnv::new();
        let es = entries(300, 64);
        let built = build(&env, "v.vsst", &es);
        assert_eq!(built.props.num_entries, 300);
        assert_eq!(built.props.table_type, TableType::RTable);
        let r = open(&env, "v.vsst");
        for (k, v) in &es {
            let (fk, fv) = get(&r, k).expect("record");
            assert_eq!(&fk[..], k.as_slice());
            assert_eq!(&fv[..], v.as_slice());
        }
        assert!(get(&r, &ikey("zzzz")).is_none());
    }

    #[test]
    fn read_index_returns_all_keys_without_touching_values() {
        let env = MemEnv::new();
        let es = entries(200, 4096); // 800 KB of values
        build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let before = env.io_stats().snapshot();
        let index = r.read_index().unwrap();
        let d = env.io_stats().snapshot().delta(&before);
        assert_eq!(index.len(), 200);
        for ((k, _), (ek, _)) in index.iter().zip(es.iter()) {
            assert_eq!(k, ek);
        }
        // Lazy read must cost a tiny fraction of the value bytes.
        let value_bytes: u64 = es.iter().map(|(_, v)| v.len() as u64).sum();
        assert!(
            d.class(IoClass::FgValueRead).read_bytes < value_bytes / 20,
            "lazy read cost {} vs values {}",
            d.class(IoClass::FgValueRead).read_bytes,
            value_bytes
        );
    }

    #[test]
    fn record_handles_fetch_exact_values() {
        let env = MemEnv::new();
        let es = entries(50, 128);
        build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let index = r.read_index().unwrap();
        for (i, (k, h)) in index.iter().enumerate() {
            let (rk, rv) = r.read_record(*h).unwrap();
            assert_eq!(&rk, k);
            assert_eq!(&rv[..], es[i].1.as_slice());
        }
    }

    #[test]
    fn dense_index_overhead_is_small_for_large_values() {
        let env = MemEnv::new();
        let es = entries(100, 16 * 1024);
        let f = env.new_writable("v.vsst", IoClass::Flush).unwrap();
        let mut b = RTableBuilder::new(f);
        for (k, v) in &es {
            b.add(k, v).unwrap();
        }
        let index_bytes = b.index_bytes();
        let built = b.finish().unwrap();
        // Paper Table I: ~0.04% extra space at 16K values. Give slack.
        assert!(
            (index_bytes as f64) < 0.01 * built.file_size as f64,
            "index {} of file {}",
            index_bytes,
            built.file_size
        );
    }

    /// One read per range, and the S-RH policy: anything inside the span.
    const PER_RECORD: Coalesce = Coalesce {
        max_gap: 0,
        max_span: 0,
    };
    const ANY_GAP: Coalesce = Coalesce {
        max_gap: u64::MAX,
        max_span: scavenger_env::READ_SIZE.max_span,
    };

    /// The dense index handed to `read_records` yields every record of
    /// the file in order, one read per record or coalesced.
    #[test]
    fn iter_scans_in_order_both_modes() {
        let env = MemEnv::new();
        let es = entries(150, 512);
        build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let handles: Vec<BlockHandle> = r.read_index().unwrap().iter().map(|(_, h)| *h).collect();
        for limits in [PER_RECORD, ANY_GAP] {
            let batched = r.read_records(&handles, limits).unwrap();
            assert_eq!(batched.len(), es.len());
            for ((k, v), (ek, ev)) in batched.iter().zip(&es) {
                assert_eq!(&k[..], ek.as_slice());
                assert_eq!(&v[..], ev.as_slice());
            }
        }
    }

    #[test]
    fn corrupt_record_detected() {
        let env = MemEnv::new();
        let es = entries(10, 64);
        build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let index = r.read_index().unwrap();
        // Corrupt the first record's payload.
        env.corrupt_byte("v.vsst", index[0].1.offset + 3).unwrap();
        assert!(r.read_record(index[0].1).is_err());
    }

    #[test]
    fn btable_reader_rejects_rtable_semantics() {
        let env = MemEnv::new();
        let es = entries(10, 64);
        build(&env, "v.vsst", &es);
        // RTableReader::open on a proper RTable works; a BTable opened as
        // RTable must be rejected via the props type check.
        let f = env.new_writable("b.sst", IoClass::Flush).unwrap();
        let mut b = crate::btable::KTableBuilder::new(
            f,
            crate::btable::KTableFormat::BTable,
            crate::BLOCK_SIZE,
        );
        b.add(&ikey("a"), b"1").unwrap();
        b.finish().unwrap();
        let file = env
            .open_random_access("b.sst", IoClass::FgValueRead)
            .unwrap();
        assert!(RTableReader::open(file, 1, None).is_err());
    }

    #[test]
    fn read_records_coalesced_equals_individual() {
        let env = MemEnv::new();
        let es = entries(300, 700);
        build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let index = r.read_index().unwrap();
        // Every third record, sorted by offset (as GC does).
        let mut handles: Vec<BlockHandle> = index.iter().step_by(3).map(|(_, h)| *h).collect();
        handles.sort_by_key(|h| h.offset);
        let a = &r;
        let individual = a.read_records(&handles, PER_RECORD).unwrap();
        let coalesced = a.read_records(&handles, ANY_GAP).unwrap();
        assert_eq!(individual.len(), coalesced.len());
        for (x, y) in individual.iter().zip(coalesced.iter()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1, y.1);
        }
        // Coalescing must use strictly fewer read ops.
        let before = env.io_stats().snapshot();
        a.read_records(&handles, PER_RECORD).unwrap();
        let mid = env.io_stats().snapshot();
        a.read_records(&handles, ANY_GAP).unwrap();
        let after = env.io_stats().snapshot();
        let ind_ops = mid.delta(&before).total_read_ops();
        let coa_ops = after.delta(&mid).total_read_ops();
        assert!(
            coa_ops < ind_ops,
            "coalesced {coa_ops} vs individual {ind_ops}"
        );
    }

    #[test]
    fn find_exact_matches_only_the_stored_key() {
        let env = MemEnv::new();
        let es = entries(300, 64);
        build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let index = r.read_index().unwrap();
        for (k, h) in &index {
            assert_eq!(r.find_exact(k).unwrap(), Some(*h));
        }
        // Between two stored keys, before the first and past the last.
        assert_eq!(r.find_exact(&ikey("user0000505")).unwrap(), None);
        assert_eq!(r.find_exact(&ikey("a")).unwrap(), None);
        assert_eq!(r.find_exact(&ikey("zzzz")).unwrap(), None);
    }

    /// A point read finds its index partition pinned (the file's one
    /// partition rode in the open's tail read) and caches its record (at
    /// the bottom tier), so a repeat costs no I/O; told not to — through
    /// `read_records` (scans, GC) — it reads around the cache.
    #[test]
    fn point_reads_cache_records_unless_told_not_to() {
        let env = MemEnv::new();
        let es = entries(50, 512);
        build(&env, "v.vsst", &es);
        let cache = Arc::new(BlockCache::with_capacity(1 << 20));
        let file = env
            .open_random_access("v.vsst", IoClass::FgValueRead)
            .unwrap();
        let r = RTableReader::open(file, 7, Some(cache.clone())).unwrap();
        let reads = |f: &dyn Fn()| {
            let before = env.io_stats().snapshot();
            f();
            let d = env.io_stats().snapshot().delta(&before);
            d.class(IoClass::FgValueRead).read_ops
        };
        let (key, value) = (es[10].0.as_slice(), es[10].1.as_slice());
        let found = std::cell::Cell::new(None);
        assert_eq!(
            r.pinned_partitions().len(),
            1,
            "the open pinned the partition"
        );
        assert_eq!(cache.usage(), 0, "and cached nothing");
        assert_eq!(reads(&|| found.set(r.find_exact(key).unwrap())), 0);
        let h = found.get().unwrap();
        assert_eq!(
            reads(&|| assert_eq!(r.find_exact(key).unwrap(), Some(h))),
            0
        );
        assert_eq!(reads(&|| assert_eq!(r.read_record(h).unwrap().1, value)), 1);
        assert!(cache.usage() > 0);
        assert_eq!(reads(&|| assert_eq!(r.read_record(h).unwrap().1, value)), 0);
        assert_eq!(
            reads(&|| drop(r.read_records(&[h], PER_RECORD).unwrap())),
            1
        );
    }

    /// A multi-partition file some of whose partitions lie outside the
    /// tail an open reads: its built table, the partitions' handles, and
    /// which of them that tail covers.
    fn multi_partition(env: &MemEnv, path: &str) -> (BuiltTable, Vec<BlockHandle>, Vec<bool>) {
        let built = build(env, path, &entries(300, 64));
        let start = env
            .file_size(path)
            .unwrap()
            .checked_sub(crate::TAIL_PREFETCH as u64)
            .expect("some partitions lie outside the tail read");
        let partitions = open(env, path).partitions();
        let covered: Vec<bool> = partitions.iter().map(|h| h.offset >= start).collect();
        assert!(covered.contains(&true) && covered.contains(&false));
        (built, partitions, covered)
    }

    /// Read ops `f` costs.
    fn reads(env: &MemEnv, f: impl FnOnce()) -> u64 {
        let before = env.io_stats().snapshot();
        f();
        env.io_stats().snapshot().delta(&before).total_read_ops()
    }

    /// Opening a reader holds, checksummed, the index partitions its tail
    /// read covers, and puts none in the block cache: a walk then reads
    /// only the ones outside it, once, into the reader — never into the
    /// cache — and yields the index an uncached reader reads.
    #[test]
    fn open_pins_the_partitions_its_tail_read_covered() {
        let env = MemEnv::new();
        let (_, partitions, covered) = multi_partition(&env, "v.vsst");
        let index = open(&env, "v.vsst").read_index().unwrap();
        let offsets = |want: bool| -> Vec<u64> {
            partitions
                .iter()
                .zip(&covered)
                .filter(|(_, &c)| c == want)
                .map(|(h, _)| h.offset)
                .collect()
        };
        let cache = Arc::new(BlockCache::with_capacity(1 << 20));
        let file = env
            .open_random_access("v.vsst", IoClass::FgValueRead)
            .unwrap();
        let r = std::cell::OnceCell::new();
        let n = reads(&env, || {
            drop(r.set(RTableReader::open(file, 7, Some(cache.clone())).unwrap()))
        });
        assert_eq!(n, 1, "one tail read");
        let r = r.get().unwrap();
        assert_eq!(r.pinned_partitions(), offsets(true));
        let walked = std::cell::OnceCell::new();
        let n = reads(&env, || drop(walked.set(r.read_index().unwrap())));
        assert_eq!(n, offsets(false).len() as u64);
        assert_eq!(walked.get().unwrap(), &index);
        assert_eq!(
            r.pinned_partitions(),
            r.partitions().iter().map(|h| h.offset).collect::<Vec<_>>()
        );
        assert_eq!(reads(&env, || drop(r.read_index().unwrap())), 0);
        assert_eq!(
            (cache.len(), cache.usage()),
            (0, 0),
            "no partition is cached"
        );
    }

    /// A born reader holds every partition its builder wrote: a lookup of
    /// every key, a miss and a walk cost no read.
    #[test]
    fn a_born_reader_answers_every_lookup_without_a_read() {
        let env = MemEnv::new();
        let (built, partitions, _) = multi_partition(&env, "v.vsst");
        let file = env
            .open_random_access("v.vsst", IoClass::FgValueRead)
            .unwrap();
        let r = RTableReader::from_tail(file, built.born, 7, None).unwrap();
        let all: Vec<u64> = partitions.iter().map(|h| h.offset).collect();
        assert_eq!(r.pinned_partitions(), all);
        let index = open(&env, "v.vsst").read_index().unwrap();
        let n = reads(&env, || {
            for (k, h) in &index {
                assert_eq!(r.find_exact(k).unwrap(), Some(*h));
            }
            assert_eq!(r.find_exact(&ikey("user0000505")).unwrap(), None);
            assert_eq!(r.read_index().unwrap(), index);
        });
        assert_eq!(n, 0);
    }

    /// An opened reader reads each partition outside its tail once, on
    /// the first lookup that needs it, however often lookups come back to
    /// it, and the block cache never sees one.
    #[test]
    fn an_opened_reader_reads_each_partition_outside_its_tail_once() {
        let env = MemEnv::new();
        let (_, _, covered) = multi_partition(&env, "v.vsst");
        let outside = covered.iter().filter(|&&c| !c).count() as u64;
        let index = open(&env, "v.vsst").read_index().unwrap();
        let cache = Arc::new(BlockCache::with_capacity(1 << 20));
        let file = env
            .open_random_access("v.vsst", IoClass::FgValueRead)
            .unwrap();
        let r = RTableReader::open(file, 7, Some(cache.clone())).unwrap();
        let lookups = || {
            for (k, h) in &index {
                assert_eq!(r.find_exact(k).unwrap(), Some(*h));
            }
        };
        assert_eq!(reads(&env, lookups), outside);
        for _ in 0..3 {
            assert_eq!(reads(&env, lookups), 0);
        }
        assert_eq!(reads(&env, || drop(r.read_index().unwrap())), 0);
        assert_eq!(cache.len(), 0);
    }

    /// A partition that fails its checksum — one the open's tail covered
    /// or one outside it — is never kept: every lookup that needs it reads
    /// it again and reports the corruption, and every other key is still
    /// found.
    #[test]
    fn a_partition_that_fails_its_checksum_is_never_kept() {
        let env = MemEnv::new();
        let (_, partitions, covered) = multi_partition(&env, "v.vsst");
        let index = open(&env, "v.vsst").read_index().unwrap();
        let in_tail = covered.iter().position(|&c| c).unwrap();
        let outside = covered.iter().position(|&c| !c).unwrap();
        for bad in [in_tail, outside] {
            let path = format!("v{bad}.vsst");
            build(&env, &path, &entries(300, 64));
            let h = partitions[bad];
            env.corrupt_byte(&path, h.offset + 1).unwrap();
            let file = env.open_random_access(&path, IoClass::FgValueRead).unwrap();
            let r = RTableReader::open(file, 7, None).unwrap();
            assert!(!r.pinned_partitions().contains(&h.offset));
            // A record's index entry sits in the first partition after it.
            let owner = |rec: &BlockHandle| partitions.iter().position(|p| rec.offset < p.offset);
            let key = &index
                .iter()
                .find(|(_, rec)| owner(rec) == Some(bad))
                .unwrap()
                .0;
            let at = format!("block checksum mismatch at offset {}", h.offset);
            for _ in 0..3 {
                let mut got = None;
                assert_eq!(reads(&env, || got = Some(r.find_exact(key))), 1);
                let err = got.unwrap().unwrap_err();
                assert!(matches!(&err, Error::Corruption(m) if *m == at), "{err}");
            }
            assert!(!r.pinned_partitions().contains(&h.offset));
            for (k, rec) in &index {
                if owner(rec) != Some(bad) {
                    assert_eq!(r.find_exact(k).unwrap(), Some(*rec));
                }
            }
        }
    }

    /// The gap / span limits decide what shares an I/O: neighbours merge
    /// under a small gap, a far record does not, and nothing merges past
    /// the span.
    #[test]
    fn coalesce_limits_bound_gap_and_span() {
        let env = MemEnv::new();
        let es = entries(64, 1000);
        build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let index = r.read_index().unwrap();
        let read_ops = |picks: &[usize], limits: Coalesce| {
            let handles: Vec<BlockHandle> = picks.iter().map(|&i| index[i].1).collect();
            let before = env.io_stats().snapshot();
            let recs = r.read_records(&handles, limits).unwrap();
            for (rec, &i) in recs.iter().zip(picks) {
                assert_eq!(rec.0, es[i].0);
                assert_eq!(&rec.1[..], es[i].1.as_slice());
            }
            let d = env.io_stats().snapshot().delta(&before);
            (d.total_read_ops(), d.total_read_bytes())
        };
        let near = Coalesce {
            max_gap: 2048,
            max_span: scavenger_env::READ_SIZE.max_span,
        };
        // 0,1,2 are adjacent; 4 sits one record (~1 KiB) further; 40 is far.
        let (ops, bytes) = read_ops(&[0, 1, 2, 4, 40], near);
        assert_eq!(ops, 2, "one span for 0..=4, one read for 40");
        let (_, exact) = read_ops(&[0, 1, 2, 4, 40], PER_RECORD);
        let gap = index[3].1.size + BLOCK_TRAILER_LEN as u64;
        assert!(
            bytes > exact && bytes <= exact + gap + 64,
            "only the one skipped record is read through: {bytes} vs {exact}"
        );
        // A span limit splits an otherwise adjacent run.
        let tight = Coalesce {
            max_gap: u64::MAX,
            max_span: 2500,
        };
        assert_eq!(read_ops(&[0, 1, 2, 3], tight).0, 2);
        assert_eq!(read_ops(&[0, 1, 2, 3], PER_RECORD).0, 4);
        // Unsorted handles still read correctly, one span each.
        assert_eq!(read_ops(&[5, 4, 3], near).0, 3);
    }

    /// Hand-built handles that overlap (a corrupt index) must come back
    /// as `Corruption`, not as an out-of-range slice.
    #[test]
    fn overlapping_handles_are_corruption_not_a_panic() {
        let env = MemEnv::new();
        let es = entries(8, 200);
        build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let index = r.read_index().unwrap();
        let (a, b) = (index[0].1, index[1].1);
        // Starts inside `a`'s bytes, ends past them.
        let straddle = BlockHandle::new(a.offset + 10, a.size + 50);
        for limits in [ANY_GAP, PER_RECORD] {
            let err = r.read_records(&[a, straddle, b], limits).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "{limits:?}: {err}");
        }
        // Contained in `a`: in range, so its own checksum rejects it.
        let inside = BlockHandle::new(a.offset + 10, 20);
        let err = r.read_records(&[a, inside], ANY_GAP).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");
        // An exact repeat is harmless.
        let twice = r.read_records(&[a, a, b], ANY_GAP).unwrap();
        assert_eq!(twice[0], twice[1]);
        // An offset + size that overflows is caught before any read.
        let huge = BlockHandle::new(u64::MAX - 2, 100);
        let err = r.read_records(&[huge], PER_RECORD).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn prop_rtable_roundtrip(
            lens in proptest::collection::vec(1usize..2000, 1..60),
        ) {
            let env = MemEnv::new();
            let es: Vec<(Vec<u8>, Vec<u8>)> = lens
                .iter()
                .enumerate()
                .map(|(i, l)| (ikey(&format!("user{i:06}")), vec![(i % 251) as u8; *l]))
                .collect();
            let f = env.new_writable("p.vsst", IoClass::Flush).unwrap();
            let mut b = RTableBuilder::new(f);
            for (k, v) in &es {
                b.add(k, v).unwrap();
            }
            let built = b.finish().unwrap();
            proptest::prop_assert_eq!(built.props.num_entries as usize, es.len());
            let file = env.open_random_access("p.vsst", IoClass::FgValueRead).unwrap();
            let r = RTableReader::open(file, 1, None).unwrap();
            for (k, v) in &es {
                let h = r.find_exact(k).unwrap().unwrap();
                let (fk, fv) = r.read_record(h).unwrap();
                proptest::prop_assert_eq!(&fk[..], k.as_slice());
                proptest::prop_assert_eq!(&fv[..], v.as_slice());
            }
            let idx = r.read_index().unwrap();
            proptest::prop_assert_eq!(idx.len(), es.len());
        }
    }

    #[test]
    fn empty_rtable() {
        let env = MemEnv::new();
        build(&env, "v.vsst", &[]);
        let r = open(&env, "v.vsst");
        assert!(r.read_index().unwrap().is_empty());
        assert!(get(&r, &ikey("x")).is_none());
    }
}
