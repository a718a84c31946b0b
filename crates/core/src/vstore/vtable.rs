//! Value-file writers and readers across the three formats.
//!
//! * **BTable** — TerarkDB's sorted value SST (sparse index).
//! * **RTable** — Scavenger's record-based table (dense partitioned index,
//!   enabling Lazy Read).
//! * **BlobLog** — BlobDB/Titan's append-ordered blob file; a reference
//!   names a value's `(offset, size)` and every record carries a CRC:
//!
//! ```text
//! record := varint32 klen | varint32 vlen | key | value | fixed32 crc
//! ```
//!
//! Keys inside value files are full internal keys `(user_key, seq, Value)`,
//! so multiple versions of a user key (kept alive by snapshots) never
//! collide, and GC validity checks can compare exact sequence numbers.
//!
//! A value is read as a whole record in every format: an RTable record
//! by its index handle, a blob-log record by the span [`ValueAt::blob`]
//! derives from a reference (the value's offset less the header and the
//! `user_key.len() + 8`-byte key, its size plus the CRC). Point reads,
//! batch fetches, BlobDB relocation and GC scans all hand a blob record
//! to one decoder, which checks its lengths, key and CRC before any
//! value byte leaves this module.

use crate::options::VFormat;
use bytes::Bytes;
use scavenger_env::{EnvRef, IoClass, RandomAccessFile, ReadaheadFile, WritableFile};
use scavenger_lsm::filename::value_file_path;
use scavenger_table::blockio::BLOCK_TRAILER_LEN;
use scavenger_table::btable::{cached_read, BlockCache, KTable, KTableBuilder, KTableFormat};
use scavenger_table::cache::{CacheKey, CachePriority, StoreCache};
use scavenger_table::handle::BlockHandle;
use scavenger_table::rtable::{
    read_coalesced, Coalesce, RTableBuilder, RTableReader, COALESCE_SPAN,
};
use scavenger_table::{read_tail, BlockKind, Tail, BLOCK_SIZE};
use scavenger_util::coding::{get_varint32, put_varint32, varint64_len};
use scavenger_util::ikey::{extract_user_key, make_internal_key, SeqNo, ValueRef, ValueType};
use scavenger_util::{crc32c, Error, Result};
use std::sync::Arc;

/// Path of a value file for the given format.
pub fn vfile_path(dir: &str, file: u64, format: VFormat) -> String {
    value_file_path(dir, file, super::format_tag(format))
}

/// Location of a record produced by a writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrittenRecord {
    /// For `BlobLog`: byte offset of the *value* within the file.
    /// For table formats: offset of the record (informational).
    pub offset: u64,
    /// Value size in bytes.
    pub size: u32,
}

/// Summary of a finished value file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VFileInfo {
    /// Final file size.
    pub size: u64,
    /// Number of records.
    pub entries: u64,
    /// Total value bytes stored.
    pub value_bytes: u64,
}

/// A value-file writer of any format.
// A job holds at most one live writer per route; the size gap between
// formats is fine.
#[allow(clippy::large_enum_variant)]
pub enum VWriter {
    /// RecordBasedTable writer (Scavenger).
    R(RTableBuilder),
    /// BlockBasedTable writer (TerarkDB).
    B(KTableBuilder),
    /// Blob-log writer (BlobDB/Titan).
    Blob(BlobLogWriter),
}

impl VWriter {
    /// Create a writer for `file` in `dir`.
    pub fn create(
        env: &EnvRef,
        dir: &str,
        file: u64,
        format: VFormat,
        class: IoClass,
    ) -> Result<VWriter> {
        let path = vfile_path(dir, file, format);
        let w = env.new_writable(&path, class)?;
        Ok(match format {
            VFormat::RTable => VWriter::R(RTableBuilder::new(w)),
            VFormat::BTable => VWriter::B(KTableBuilder::new(w, KTableFormat::BTable, BLOCK_SIZE)),
            VFormat::BlobLog => VWriter::Blob(BlobLogWriter::new(w)),
        })
    }

    /// Append a record keyed by `(user_key, seq)`. Keys must arrive in
    /// internal-key order for table formats.
    pub fn add(&mut self, user_key: &[u8], seq: SeqNo, value: &[u8]) -> Result<WrittenRecord> {
        let ikey = make_internal_key(user_key, seq, ValueType::Value);
        match self {
            VWriter::R(b) => {
                let h = b.add(&ikey, value)?;
                Ok(WrittenRecord {
                    offset: h.offset,
                    size: value.len() as u32,
                })
            }
            VWriter::B(b) => {
                let offset = b.estimated_size();
                b.add(&ikey, value)?;
                Ok(WrittenRecord {
                    offset,
                    size: value.len() as u32,
                })
            }
            VWriter::Blob(b) => b.add(&ikey, value),
        }
    }

    /// Bytes written so far.
    pub fn estimated_size(&self) -> u64 {
        match self {
            VWriter::R(b) => b.estimated_size(),
            VWriter::B(b) => b.estimated_size(),
            VWriter::Blob(b) => b.len(),
        }
    }

    /// Records written so far.
    pub fn num_entries(&self) -> u64 {
        match self {
            VWriter::R(b) => b.num_entries(),
            VWriter::B(b) => b.num_entries(),
            VWriter::Blob(b) => b.entries,
        }
    }

    /// Finish the file. A table also returns its born tail, from which
    /// [`VReader::open`] builds its reader without a read; a blob log
    /// has none — opening one reads nothing.
    pub fn finish(self) -> Result<(VFileInfo, Option<Tail>)> {
        let built = match self {
            VWriter::R(b) => b.finish()?,
            VWriter::B(b) => b.finish()?,
            VWriter::Blob(b) => return Ok((b.finish()?, None)),
        };
        let info = VFileInfo {
            size: built.file_size,
            entries: built.props.num_entries,
            value_bytes: built.props.raw_value_bytes,
        };
        Ok((info, Some(built.born)))
    }
}

/// Append-ordered blob-log writer.
pub struct BlobLogWriter {
    file: Box<dyn WritableFile>,
    /// Records written.
    pub entries: u64,
    /// Value bytes written.
    pub value_bytes: u64,
}

impl BlobLogWriter {
    /// Wrap a fresh writable file.
    pub fn new(file: Box<dyn WritableFile>) -> Self {
        BlobLogWriter {
            file,
            entries: 0,
            value_bytes: 0,
        }
    }

    /// Append a record; returns the value's address.
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) -> Result<WrittenRecord> {
        let mut header = Vec::with_capacity(10 + ikey.len());
        put_varint32(&mut header, ikey.len() as u32);
        put_varint32(&mut header, value.len() as u32);
        header.extend_from_slice(ikey);
        let value_offset = self.file.len() + header.len() as u64;
        self.file.append(&header)?;
        self.file.append(value)?;
        let crc = crc32c::extend(crc32c::value(ikey), value);
        self.file.append(&crc.to_le_bytes())?;
        self.entries += 1;
        self.value_bytes += value.len() as u64;
        Ok(WrittenRecord {
            offset: value_offset,
            size: value.len() as u32,
        })
    }

    /// Bytes written so far.
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    /// True if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.file.len() == 0
    }

    /// Finish the log.
    pub fn finish(mut self) -> Result<VFileInfo> {
        self.file.sync()?;
        Ok(VFileInfo {
            size: self.file.len(),
            entries: self.entries,
            value_bytes: self.value_bytes,
        })
    }
}

/// One record parsed from a blob log during a GC scan.
#[derive(Debug, Clone)]
pub struct BlobRecord {
    /// Full internal key.
    pub ikey: Vec<u8>,
    /// Value bytes.
    pub value: Bytes,
    /// Address of the value within the file.
    pub value_offset: u64,
}

/// Where one value sits inside its file, as [`VReader::locate`] (or a
/// blob reference, or a Lazy-Read index entry) found it.
#[derive(Debug, Clone)]
pub enum ValueAt {
    /// An RTable record: read, CRC-verified and key-checked at fetch.
    Record(BlockHandle),
    /// A whole blob-log record (see [`ValueAt::blob`]): read,
    /// CRC-verified and user-key-checked at fetch.
    BlobRecord {
        /// Offset of the record's first header byte.
        offset: u64,
        /// Record length: header, key, value and CRC.
        len: u64,
    },
    /// A BTable value: its (sparse-indexed) data block came through the
    /// block cache during the lookup, so the value is already in hand.
    Cached(Bytes),
}

impl ValueAt {
    /// The blob-log record that holds the value `vref` names for
    /// `user_key`. The reference addresses the value bytes; the record
    /// around them starts with the two length varints and the
    /// `user_key.len() + 8`-byte internal key, and ends with the CRC, so
    /// its span follows from the reference alone (RocksDB's blob reader
    /// widens its read the same way to verify checksums).
    pub fn blob(user_key: &[u8], vref: &ValueRef) -> Result<ValueAt> {
        let klen = user_key.len() as u64 + 8;
        let size = u64::from(vref.size);
        let head = varint64_len(klen) as u64 + varint64_len(size) as u64 + klen;
        let offset = vref
            .offset
            .checked_sub(head)
            .ok_or_else(|| Error::corruption("blob reference points inside its record's header"))?;
        Ok(ValueAt::BlobRecord {
            offset,
            len: head + size + BLOB_CRC_LEN as u64,
        })
    }

    /// File offset the fetch starts at — the sort key for coalescing.
    pub fn offset(&self) -> u64 {
        match self {
            ValueAt::Record(h) => h.offset,
            ValueAt::BlobRecord { offset, .. } => *offset,
            ValueAt::Cached(_) => 0,
        }
    }

    /// Bytes a fetch of this value asks its file for.
    pub fn fetch_len(&self) -> u64 {
        match self {
            ValueAt::Record(h) => h.size.saturating_add(BLOCK_TRAILER_LEN as u64),
            ValueAt::BlobRecord { len, .. } => *len,
            ValueAt::Cached(_) => 0,
        }
    }
}

/// The value of a fetched RTable record, once its key is the one asked
/// for.
fn record_value(ikey: &[u8], (key, value): (Bytes, Bytes)) -> Result<Bytes> {
    if key[..] != *ikey {
        return Err(Error::corruption(
            "value record key does not match its index entry",
        ));
    }
    Ok(value)
}

/// Bytes of a blob record's trailing CRC.
const BLOB_CRC_LEN: usize = 4;

/// The two lengths at the front of a blob-log record, `head`:
/// `(header bytes, key length, value length)`.
fn blob_lens(head: &[u8]) -> Result<(usize, usize, usize)> {
    let mut cur = head;
    let klen = get_varint32(&mut cur)? as usize;
    let vlen = get_varint32(&mut cur)? as usize;
    Ok((head.len() - cur.len(), klen, vlen))
}

/// Decode one whole blob-log record — the layout
/// [`BlobLogWriter::add`] writes — into its internal key and value
/// (zero-copy slices of `rec`). Its two lengths must fill `rec` exactly,
/// its key must carry `user_key` when one is given, and its CRC must
/// match; anything else is [`Error::Corruption`]. Only the user key is
/// compared: a Titan write-back re-indexes a record under a fresh
/// sequence while the record keeps its own.
fn decode_blob_record(rec: &Bytes, user_key: Option<&[u8]>) -> Result<(Bytes, Bytes)> {
    let (head, klen, vlen) = blob_lens(rec)?;
    if head + klen + vlen + BLOB_CRC_LEN != rec.len() {
        return Err(Error::corruption(
            "blob record lengths do not match its span",
        ));
    }
    let ikey = rec.slice(head..head + klen);
    let value = rec.slice(head + klen..head + klen + vlen);
    if user_key.is_some_and(|want| klen < 8 || extract_user_key(&ikey) != want) {
        return Err(Error::corruption(
            "blob record key does not match its reference",
        ));
    }
    let crc = rec[rec.len() - BLOB_CRC_LEN..].try_into();
    let stored = u32::from_le_bytes(crc.expect("the lengths leave four CRC bytes"));
    if stored != crc32c::extend(crc32c::value(&ikey), &value) {
        return Err(Error::corruption("blob record checksum mismatch"));
    }
    Ok((ikey, value))
}

/// A value-file reader of any format.
pub enum VReader {
    /// RecordBasedTable reader.
    R(RTableReader),
    /// BlockBasedTable reader.
    B(KTable),
    /// Blob-log reader: point reads go through `cache` under `cache_id`
    /// (the log's number under the store's namespace).
    Blob {
        /// The log.
        file: Arc<dyn RandomAccessFile>,
        /// Cache file id of the log.
        cache_id: u64,
        /// Block cache of point reads.
        cache: Option<Arc<BlockCache>>,
    },
}

impl VReader {
    /// Open `file` in `dir` for the given format; cached reads go through
    /// the store's `cache`. A table is built from `tail` when its writer
    /// handed one over (the reader is born: no read), else from one read
    /// of its tail.
    pub fn open(
        env: &EnvRef,
        dir: &str,
        file: u64,
        format: VFormat,
        tail: Option<Tail>,
        cache: Option<&StoreCache>,
        class: IoClass,
    ) -> Result<VReader> {
        let f = env.open_random_access(&vfile_path(dir, file, format), class)?;
        Self::from_file(f, file, format, tail, cache)
    }

    fn from_file(
        f: Arc<dyn RandomAccessFile>,
        file: u64,
        format: VFormat,
        tail: Option<Tail>,
        cache: Option<&StoreCache>,
    ) -> Result<VReader> {
        let cache_id = cache.map_or(file, |c| c.file_id(file));
        let cache = cache.map(|c| c.blocks().clone());
        if format == VFormat::BlobLog {
            return Ok(VReader::Blob {
                file: f,
                cache_id,
                cache,
            });
        }
        let tail = match tail {
            Some(tail) => tail,
            None => read_tail(f.as_ref())?,
        };
        Ok(match format {
            VFormat::RTable => VReader::R(RTableReader::from_tail(f, tail, cache_id, cache)?),
            _ => VReader::B(KTable::from_tail(f, tail, cache_id, cache)?),
        })
    }

    /// GC full scan (the "Read" step of every scheme but Lazy Read):
    /// every record of `file` with its value, charging the whole file in
    /// device-sized reads. A BTable or blob log is walked once, front to
    /// back, so it is opened behind a [`ReadaheadFile`] (one tail read,
    /// then [`COALESCE_SPAN`] spans) and around the block cache: GC never
    /// looks up or fills cached values. An RTable's index partitions sit
    /// *between* its records — walking them first would leave that
    /// forward window at the end of the file — so it takes the dense
    /// index (through `cache`) and then every record through
    /// [`read_coalesced`], which comes to the same span-sized reads.
    pub fn scan_file(
        env: &EnvRef,
        dir: &str,
        file: u64,
        format: VFormat,
        mut cache: Option<&StoreCache>,
        class: IoClass,
    ) -> Result<Vec<BlobRecord>> {
        let mut f = env.open_random_access(&vfile_path(dir, file, format), class)?;
        if format != VFormat::RTable {
            f = Arc::new(ReadaheadFile::open(f, COALESCE_SPAN as usize)?);
            cache = None;
        }
        Self::from_file(f, file, format, None, cache)?.scan_all()
    }

    /// **Locate** the exact version `ikey` in a keyed table without
    /// reading its record: one bloom probe, then one index lookup through
    /// the block cache, which keeps what misses. `None` when this file
    /// does not hold it. A BTable's data block holds values, so it is
    /// inserted at [`CachePriority::Bottom`].
    pub fn locate(&self, ikey: &[u8]) -> Result<Option<ValueAt>> {
        match self {
            VReader::R(r) => Ok(r.find_exact(ikey)?.map(ValueAt::Record)),
            VReader::B(r) => Ok(match r.get_cached_at(ikey, CachePriority::Bottom)? {
                Some(e) if e.key() == ikey => Some(ValueAt::Cached(e.value())),
                _ => None,
            }),
            VReader::Blob { .. } => Err(Error::invalid_argument("keyed lookup on a blob log")),
        }
    }

    /// **Fetch** one located value for a point read: served from the
    /// block cache, or a single read of its whole record, CRC-verified,
    /// that enters the cache at [`CachePriority::Bottom`]. The record's
    /// key is checked against `ikey` on a hit too. Scans, GC and
    /// relocation use [`fetch`](Self::fetch), which reads around the
    /// cache.
    pub fn fetch_one(&self, at: &ValueAt, ikey: &[u8]) -> Result<Bytes> {
        match (self, at) {
            (VReader::R(r), ValueAt::Record(h)) => record_value(ikey, r.read_record(*h)?),
            (
                VReader::Blob {
                    file,
                    cache_id,
                    cache,
                },
                &ValueAt::BlobRecord { offset, len },
            ) => {
                let ukey = Some(extract_user_key(ikey));
                let key = CacheKey::new(*cache_id, offset, BlockKind::Data);
                // Decoded before it may enter the cache, so the cache
                // holds only verified records; decoded again to serve it.
                let rec = cached_read(cache.as_deref(), key, CachePriority::Bottom, || {
                    let rec = file.read_at(offset, len as usize)?;
                    decode_blob_record(&rec, ukey)?;
                    Ok(rec)
                })?;
                Ok(decode_blob_record(&rec, ukey)?.1)
            }
            (VReader::B(_), ValueAt::Cached(v)) => Ok(v.clone()),
            _ => Err(Error::internal(
                "value location does not match its file format",
            )),
        }
    }

    /// **Fetch** many located values of this file, returned in input
    /// order. Neighbouring records that `limits` allows share one I/O
    /// ([`read_coalesced`]; pass them sorted by [`ValueAt::offset`]);
    /// every record is still CRC-verified and key-checked on its own.
    /// Nothing here looks up or fills the block cache; BTable values came
    /// through it at locate time and cost nothing here.
    pub fn fetch(&self, wants: &[(&ValueAt, &[u8])], limits: Coalesce) -> Result<Vec<Bytes>> {
        let mismatch = || Error::internal("value location does not match its file format");
        match self {
            VReader::R(r) => {
                let handles = wants
                    .iter()
                    .map(|(at, _)| match at {
                        ValueAt::Record(h) => Ok(*h),
                        _ => Err(mismatch()),
                    })
                    .collect::<Result<Vec<BlockHandle>>>()?;
                r.read_records(&handles, limits)?
                    .into_iter()
                    .zip(wants)
                    .map(|(rec, (_, ikey))| record_value(ikey, rec))
                    .collect()
            }
            VReader::Blob { file, .. } => {
                let ranges = wants
                    .iter()
                    .map(|(at, _)| match at {
                        ValueAt::BlobRecord { offset, len } => Ok((*offset, *len)),
                        _ => Err(mismatch()),
                    })
                    .collect::<Result<Vec<(u64, u64)>>>()?;
                read_coalesced(file.as_ref(), &ranges, limits)?
                    .iter()
                    .zip(wants)
                    .map(|(rec, (_, ikey))| {
                        Ok(decode_blob_record(rec, Some(extract_user_key(ikey)))?.1)
                    })
                    .collect()
            }
            VReader::B(_) => wants
                .iter()
                .map(|(at, ikey)| self.fetch_one(at, ikey))
                .collect(),
        }
    }

    /// Every record with its value, in file order — the body of
    /// [`scan_file`](Self::scan_file), which opens the file the way this
    /// walk wants it read.
    fn scan_all(&self) -> Result<Vec<BlobRecord>> {
        match self {
            VReader::Blob { file, .. } => scan_blob_log(file.as_ref()),
            VReader::B(r) => {
                let mut out = Vec::new();
                let mut it = r.iter();
                it.seek_to_first();
                while it.valid() {
                    out.push(BlobRecord {
                        ikey: it.key().to_vec(),
                        value: it.value(),
                        value_offset: 0,
                    });
                    it.next();
                }
                it.status()?;
                Ok(out)
            }
            VReader::R(r) => {
                let (ikeys, handles): (Vec<_>, Vec<_>) = r.read_index()?.into_iter().unzip();
                let records = r.read_records(&handles, super::GC_COALESCE)?;
                ikeys
                    .into_iter()
                    .zip(records)
                    .map(|(ikey, rec)| {
                        Ok(BlobRecord {
                            value: record_value(&ikey, rec)?,
                            ikey,
                            value_offset: 0,
                        })
                    })
                    .collect()
            }
        }
    }

    /// Lazy Read (paper §III-B1): all keys + record handles, index-only
    /// I/O. RTables only.
    pub fn read_lazy_index(&self) -> Result<Vec<(Vec<u8>, BlockHandle)>> {
        match self {
            VReader::R(r) => r.read_index(),
            _ => Err(Error::invalid_argument("lazy read requires an RTable")),
        }
    }

    /// Bytes opening this reader and
    /// [`read_lazy_index`](Self::read_lazy_index) ask the file for: the
    /// table's tail blocks and its index partitions. RTables only.
    pub fn lazy_index_bytes(&self) -> Result<u64> {
        match self {
            VReader::R(r) => Ok(r.open_bytes() + r.index_bytes()?),
            _ => Err(Error::invalid_argument("lazy read requires an RTable")),
        }
    }
}

/// Parse a whole blob log, front to back (the GC "Read" step for
/// BlobDB/Titan — this is the expensive full-file read the paper's Lazy
/// Read eliminates). Each record is two reads of `file` — its lengths,
/// then the whole record for the decoder — so the I/O size is the
/// file's: [`VReader::scan_file`] opens the log behind a
/// [`ReadaheadFile`], which serves both out of [`COALESCE_SPAN`] spans.
fn scan_blob_log(file: &dyn RandomAccessFile) -> Result<Vec<BlobRecord>> {
    /// Two max-length varint32s.
    const MAX_HEADER: u64 = 10;
    let len = file.len();
    let mut out = Vec::new();
    let mut off = 0u64;
    while off < len {
        let (head, klen, vlen) =
            blob_lens(&file.read_at(off, MAX_HEADER.min(len - off) as usize)?)?;
        let rec_len = (head + klen + vlen + BLOB_CRC_LEN) as u64;
        if len - off < rec_len {
            return Err(Error::corruption("truncated blob record"));
        }
        let (ikey, value) = decode_blob_record(&file.read_at(off, rec_len as usize)?, None)?;
        out.push(BlobRecord {
            ikey: ikey.to_vec(),
            value,
            value_offset: off + (head + klen) as u64,
        });
        off += rec_len;
    }
    Ok(out)
}

/// Extract `(user_key, seq)` from a value-file record key.
pub fn parse_record_key(ikey: &[u8]) -> Result<(&[u8], SeqNo)> {
    let p = scavenger_util::ikey::parse_internal_key(ikey)?;
    Ok((p.user_key, p.seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::MemEnv;

    fn is_corruption(got: Result<Bytes>) -> bool {
        matches!(got, Err(Error::Corruption(_)))
    }

    /// Write 100 records, read each one through every value read path —
    /// `fetch_one` (filling the cache, then served by it), the batched
    /// `fetch` and the GC `scan_file`
    /// — then flip one byte of one value: every read of that record is
    /// `Corruption`, every other record still reads. Every value fills
    /// a BTable data block, so a flip hits one record in every format.
    fn roundtrip(format: VFormat) {
        let env = MemEnv::shared();
        let eref: EnvRef = env.clone();
        let mut w = VWriter::create(&eref, "db", 9, format, IoClass::Flush).unwrap();
        let mut recs = Vec::new();
        for i in 0..100u64 {
            let key = format!("key{i:04}");
            let value = vec![(i % 251) as u8; BLOCK_SIZE + (i as usize % 64)];
            let r = w.add(key.as_bytes(), 1000 + i, &value).unwrap();
            recs.push((key, 1000 + i, value, r));
        }
        let (info, _) = w.finish().unwrap();
        assert_eq!(info.entries, 100);
        assert!(info.value_bytes >= 100 * BLOCK_SIZE as u64);
        let ikeys: Vec<Vec<u8>> = recs
            .iter()
            .map(|(k, s, _, _)| make_internal_key(k.as_bytes(), *s, ValueType::Value))
            .collect();

        let open = || {
            let cache = StoreCache::new(Arc::new(BlockCache::with_capacity(1 << 20)), false);
            VReader::open(
                &eref,
                "db",
                9,
                format,
                None,
                Some(&cache),
                IoClass::FgValueRead,
            )
            .unwrap()
        };
        // Where record `i` sits: a blob ref's record span, or a keyed
        // lookup (which reads a BTable's value block).
        let at = |r: &VReader, i: usize| -> Result<ValueAt> {
            let (key, _, _, rec) = &recs[i];
            match format {
                VFormat::BlobLog => {
                    let vref = ValueRef {
                        file: 9,
                        size: rec.size,
                        offset: rec.offset,
                    };
                    ValueAt::blob(key.as_bytes(), &vref)
                }
                _ => Ok(r.locate(&ikeys[i])?.expect("stored version")),
            }
        };
        let point = |r: &VReader, i: usize| r.fetch_one(&at(r, i)?, &ikeys[i]);
        let batch = |r: &VReader, picks: &[usize]| -> Result<Vec<Bytes>> {
            let ats = picks
                .iter()
                .map(|&i| at(r, i))
                .collect::<Result<Vec<_>>>()?;
            let wants: Vec<(&ValueAt, &[u8])> = ats
                .iter()
                .zip(picks)
                .map(|(a, &i)| (a, &ikeys[i][..]))
                .collect();
            r.fetch(&wants, crate::vstore::GC_COALESCE)
        };
        let scan = || VReader::scan_file(&eref, "db", 9, format, None, IoClass::GcRead);

        let r = open();
        let all: Vec<usize> = (0..recs.len()).collect();
        for _ in 0..2 {
            for (i, (_, _, value, _)) in recs.iter().enumerate() {
                assert_eq!(&point(&r, i).unwrap()[..], value.as_slice());
            }
        }
        // The batched fetch returns the same values, in input order.
        for (got, (_, _, value, _)) in batch(&r, &all).unwrap().iter().zip(&recs) {
            assert_eq!(&got[..], value.as_slice());
        }
        // GC scan sees everything in order.
        let scanned = scan().unwrap();
        assert_eq!(scanned.len(), 100);
        for (rec, (key, seq, value, _)) in scanned.iter().zip(recs.iter()) {
            let (uk, s) = parse_record_key(&rec.ikey).unwrap();
            assert_eq!(uk, key.as_bytes());
            assert_eq!(s, *seq);
            assert_eq!(&rec.value[..], value.as_slice());
        }
        // A record fetched for another key is rejected; a keyed table
        // misses a version it does not hold.
        if format != VFormat::BTable {
            assert!(is_corruption(r.fetch_one(&at(&r, 0).unwrap(), &ikeys[1])));
        }
        if format != VFormat::BlobLog {
            let wrong = make_internal_key(recs[0].0.as_bytes(), 1, ValueType::Value);
            assert!(r.locate(&wrong).unwrap().is_none());
        }

        // Flip a byte inside record 37's value; read through a fresh
        // cache, which never held the good bytes.
        let bad = 37;
        let path = vfile_path("db", 9, format);
        env.corrupt_byte(&path, recs[bad].3.offset + 100).unwrap();
        let r = open();
        assert!(is_corruption(point(&r, bad)), "{format:?}");
        assert!(is_corruption(batch(&r, &[bad]).map(|mut v| v.remove(0))));
        assert!(matches!(scan(), Err(Error::Corruption(_))), "{format:?}");
        let others: Vec<usize> = all.into_iter().filter(|&i| i != bad).collect();
        for (got, &i) in batch(&r, &others).unwrap().iter().zip(&others) {
            assert_eq!(&got[..], recs[i].2.as_slice());
            assert_eq!(&point(&r, i).unwrap()[..], recs[i].2.as_slice());
        }
    }

    #[test]
    fn btable_value_file_roundtrip() {
        roundtrip(VFormat::BTable);
    }

    #[test]
    fn rtable_value_file_roundtrip() {
        roundtrip(VFormat::RTable);
    }

    #[test]
    fn bloblog_value_file_roundtrip() {
        roundtrip(VFormat::BlobLog);
    }

    #[test]
    fn bloblog_scan_offsets_are_addressable() {
        let env: EnvRef = MemEnv::shared();
        let mut w = VWriter::create(&env, "db", 3, VFormat::BlobLog, IoClass::Flush).unwrap();
        w.add(b"a", 1, b"valueA").unwrap();
        w.add(b"b", 2, b"valueB").unwrap();
        w.finish().unwrap();
        let r =
            VReader::open(&env, "db", 3, VFormat::BlobLog, None, None, IoClass::GcRead).unwrap();
        let recs = r.scan_all().unwrap();
        for rec in recs {
            let vref = ValueRef {
                file: 3,
                size: rec.value.len() as u32,
                offset: rec.value_offset,
            };
            let (ukey, _) = parse_record_key(&rec.ikey).unwrap();
            let at = ValueAt::blob(ukey, &vref).unwrap();
            let direct = r.fetch_one(&at, &rec.ikey).unwrap();
            assert_eq!(direct, rec.value);
        }
    }

    #[test]
    fn bloblog_corruption_detected_on_scan() {
        let env = MemEnv::shared();
        let eref: EnvRef = env.clone();
        let mut w = VWriter::create(&eref, "db", 4, VFormat::BlobLog, IoClass::Flush).unwrap();
        w.add(b"k", 5, &vec![9u8; 500]).unwrap();
        w.finish().unwrap();
        env.corrupt_byte("db/000004.blob", 50).unwrap();
        let r = VReader::open(
            &eref,
            "db",
            4,
            VFormat::BlobLog,
            None,
            None,
            IoClass::GcRead,
        )
        .unwrap();
        assert!(r.scan_all().is_err());
    }

    #[test]
    fn lazy_index_only_for_rtable() {
        let env: EnvRef = MemEnv::shared();
        for (file, format) in [(1u64, VFormat::BTable), (2, VFormat::RTable)] {
            let mut w = VWriter::create(&env, "db", file, format, IoClass::Flush).unwrap();
            w.add(b"k", 1, &vec![1u8; 4096]).unwrap();
            w.finish().unwrap();
        }
        let b = VReader::open(&env, "db", 1, VFormat::BTable, None, None, IoClass::GcRead).unwrap();
        assert!(b.read_lazy_index().is_err());
        let r = VReader::open(&env, "db", 2, VFormat::RTable, None, None, IoClass::GcRead).unwrap();
        let idx = r.read_lazy_index().unwrap();
        assert_eq!(idx.len(), 1);
        let (uk, seq) = parse_record_key(&idx[0].0).unwrap();
        assert_eq!((uk, seq), (b"k".as_slice(), 1));
        let v = r.fetch_one(&ValueAt::Record(idx[0].1), &idx[0].0).unwrap();
        assert_eq!(v.len(), 4096);
    }

    #[test]
    fn vsst_and_blob_use_distinct_paths() {
        assert_eq!(vfile_path("db", 7, VFormat::RTable), "db/000007.vsst");
        assert_eq!(vfile_path("db", 7, VFormat::BTable), "db/000007.vsst");
        assert_eq!(vfile_path("db", 7, VFormat::BlobLog), "db/000007.blob");
    }
}
