//! Write batches: the atomic unit of the write path — plus the shared
//! per-call [`WriteOptions`] and the typed [`WriteReceipt`] every commit
//! returns.
//!
//! A batch serializes to one WAL record:
//!
//! ```text
//! fixed64 base_seq | fixed32 count | entry*
//! entry := type_byte | varint klen | key | [varint vlen | value]
//! ```
//!
//! (Tombstones carry no value field.) Sequence numbers are assigned when
//! the batch is committed: entry `i` receives `base_seq + i`. Under group
//! commit several batches are merged (see [`WriteBatch::append`]) into a
//! single record, so a torn tail at recovery drops the whole group as a
//! unit — never a partial group.

use bytes::Bytes;
use scavenger_util::coding::{
    get_fixed32, get_fixed64, get_length_prefixed_slice, put_fixed32, put_fixed64,
    put_length_prefixed_slice,
};
use scavenger_util::ikey::{SeqNo, ValueRef, ValueType};
use scavenger_util::{Error, Result};

/// Per-call write options: the single options type carried from the
/// server wire protocol down to the WAL append.
///
/// Every write entry point — `Lsm::write_opts`, the engine handle's
/// `put_with`/`delete_with`/`write_with`, transaction commits, and the
/// server's Put/Delete/Write requests — takes this struct; there are no
/// bare-bool durability knobs anywhere on the write path.
#[derive(Debug, Clone)]
pub struct WriteOptions {
    /// Fsync the WAL before acknowledging the write. With `false` the
    /// record is appended but not synced — group durability is traded
    /// for latency, and a crash may lose the unsynced tail. Under group
    /// commit a single fsync covers every `sync = true` rider in the
    /// group. Default `true`.
    pub sync: bool,
    /// Skip space-aware write throttling (paper §III-D) for this write.
    /// Maintenance writes that must land even while the store is over
    /// its space limit (e.g. tombstones that *reclaim* space) use this.
    /// Ignored below the engine facade (the LSM layer has no throttle).
    /// Default `false`.
    pub disable_throttle: bool,
    /// Transaction id to attach to this batch's change-stream events.
    /// The 2PC coordinator tags each shard's slice of a multi-shard
    /// commit with the transaction's id so change subscribers can
    /// regroup the slices. Purely observational: it never affects what
    /// is written. Default `None`.
    pub txn_id: Option<u64>,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            sync: true,
            disable_throttle: false,
            txn_id: None,
        }
    }
}

impl WriteOptions {
    /// Options with an explicit durability choice (other knobs default).
    pub fn with_sync(sync: bool) -> Self {
        WriteOptions {
            sync,
            ..WriteOptions::default()
        }
    }
}

/// Typed acknowledgment of a committed write, replacing the bare
/// `SeqNo` the legacy write path returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReceipt {
    /// Highest sequence number assigned to this batch (its commit
    /// point; the batch occupies the contiguous range ending here).
    pub seq: SeqNo,
    /// Number of batches in the commit group that carried this write
    /// (1 = no riders; 0 = the batch was empty and nothing committed).
    pub group_len: u64,
    /// True when an fsync covered this write before it was
    /// acknowledged — either requested by this writer or ridden for
    /// free on a `sync = true` group member that committed after it in
    /// the same WAL record. On a multi-shard `DbShards` batch the fsync
    /// is the coordinator log's: the write is durable through its
    /// `Prepare` record, not through the shard WALs it landed in.
    pub synced: bool,
}

/// One batched operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEntry {
    /// Entry kind.
    pub vtype: ValueType,
    /// User key.
    pub key: Vec<u8>,
    /// Value bytes (empty for tombstones; encoded [`ValueRef`] for refs).
    pub value: Bytes,
}

/// An ordered set of writes applied atomically.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    entries: Vec<BatchEntry>,
    byte_size: usize,
}

impl WriteBatch {
    /// Create an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a put of an inline value. A `Vec` value is adopted, not
    /// copied, and trimmed to its length, so what the batch holds is what
    /// [`byte_size`](Self::byte_size) charges the memtable for.
    pub fn put(&mut self, key: impl AsRef<[u8]>, value: impl Into<Bytes>) {
        let key = key.as_ref().to_vec();
        let value = value.into();
        self.byte_size += key.len() + value.len() + 16;
        self.entries.push(BatchEntry {
            vtype: ValueType::Value,
            key,
            value,
        });
    }

    /// Queue a put of a value reference (used by KV-separated engines for
    /// GC write-back and recovery paths).
    pub fn put_ref(&mut self, key: impl AsRef<[u8]>, vref: ValueRef) {
        let key = key.as_ref().to_vec();
        let value = Bytes::from(vref.encode());
        self.byte_size += key.len() + value.len() + 16;
        self.entries.push(BatchEntry {
            vtype: ValueType::ValueRef,
            key,
            value,
        });
    }

    /// Queue a deletion.
    pub fn delete(&mut self, key: impl AsRef<[u8]>) {
        let key = key.as_ref().to_vec();
        self.byte_size += key.len() + 16;
        self.entries.push(BatchEntry {
            vtype: ValueType::Deletion,
            key,
            value: Bytes::new(),
        });
    }

    /// Number of operations.
    pub fn count(&self) -> usize {
        self.entries.len()
    }

    /// True if no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate in-memory footprint (used for memtable accounting).
    pub fn byte_size(&self) -> usize {
        self.byte_size
    }

    /// The queued operations.
    pub fn entries(&self) -> &[BatchEntry] {
        &self.entries
    }

    /// Move every operation of `other` onto the end of this batch,
    /// preserving order. Group commit merges all queued batches through
    /// this before encoding, so the whole group becomes one WAL record.
    pub fn append(&mut self, other: WriteBatch) {
        self.byte_size += other.byte_size;
        if self.entries.is_empty() {
            // A group's first batch lends the group its buffer.
            self.entries = other.entries;
        } else {
            self.entries.extend(other.entries);
        }
    }

    /// Serialize with the given base sequence number.
    pub fn encode(&self, base_seq: SeqNo) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size + 16);
        put_fixed64(&mut out, base_seq);
        put_fixed32(&mut out, self.entries.len() as u32);
        for e in &self.entries {
            out.push(e.vtype as u8);
            put_length_prefixed_slice(&mut out, &e.key);
            if e.vtype != ValueType::Deletion {
                put_length_prefixed_slice(&mut out, &e.value);
            }
        }
        out
    }

    /// Parse a serialized batch, returning `(base_seq, batch)`.
    pub fn decode(mut src: &[u8]) -> Result<(SeqNo, WriteBatch)> {
        let base_seq = get_fixed64(&mut src)?;
        let count = get_fixed32(&mut src)? as usize;
        let mut batch = WriteBatch::new();
        for _ in 0..count {
            if src.is_empty() {
                return Err(Error::corruption("truncated write batch"));
            }
            let vtype = ValueType::from_u8(src[0])?;
            src = &src[1..];
            let key = get_length_prefixed_slice(&mut src)?.to_vec();
            let value = if vtype != ValueType::Deletion {
                Bytes::copy_from_slice(get_length_prefixed_slice(&mut src)?)
            } else {
                Bytes::new()
            };
            batch.byte_size += key.len() + value.len() + 16;
            batch.entries.push(BatchEntry { vtype, key, value });
        }
        if !src.is_empty() {
            return Err(Error::corruption("trailing bytes in write batch"));
        }
        Ok((base_seq, batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_ops() {
        let mut b = WriteBatch::new();
        b.put(b"alpha", Bytes::from_static(b"one"));
        b.delete(b"beta");
        b.put_ref(
            b"gamma",
            ValueRef {
                file: 42,
                size: 16384,
                offset: 7,
            },
        );
        let enc = b.encode(1000);
        let (seq, d) = WriteBatch::decode(&enc).unwrap();
        assert_eq!(seq, 1000);
        assert_eq!(d.count(), 3);
        assert_eq!(d.entries()[0].vtype, ValueType::Value);
        assert_eq!(d.entries()[0].key, b"alpha");
        assert_eq!(&d.entries()[0].value[..], b"one");
        assert_eq!(d.entries()[1].vtype, ValueType::Deletion);
        assert!(d.entries()[1].value.is_empty());
        assert_eq!(d.entries()[2].vtype, ValueType::ValueRef);
        let r = ValueRef::decode(&d.entries()[2].value).unwrap();
        assert_eq!(r.file, 42);
    }

    #[test]
    fn empty_batch_roundtrip() {
        let b = WriteBatch::new();
        assert!(b.is_empty());
        let (seq, d) = WriteBatch::decode(&b.encode(5)).unwrap();
        assert_eq!(seq, 5);
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn truncated_batch_is_corruption() {
        let mut b = WriteBatch::new();
        b.put(b"key", Bytes::from_static(b"value"));
        let enc = b.encode(1);
        for cut in 1..enc.len() {
            assert!(WriteBatch::decode(&enc[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_corruption() {
        let mut b = WriteBatch::new();
        b.put(b"key", Bytes::from_static(b"value"));
        let mut enc = b.encode(1);
        enc.push(0xff);
        assert!(WriteBatch::decode(&enc).is_err());
    }

    #[test]
    fn append_merges_batches_in_order() {
        let mut a = WriteBatch::new();
        a.put(b"k1", Bytes::from_static(b"v1"));
        let mut b = WriteBatch::new();
        b.delete(b"k2");
        b.put(b"k3", Bytes::from_static(b"v3"));
        let combined_size = a.byte_size() + b.byte_size();
        a.append(b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.byte_size(), combined_size);
        assert_eq!(a.entries()[0].key, b"k1");
        assert_eq!(a.entries()[1].key, b"k2");
        assert_eq!(a.entries()[1].vtype, ValueType::Deletion);
        assert_eq!(a.entries()[2].key, b"k3");
        // The merged batch round-trips as one record.
        let (seq, d) = WriteBatch::decode(&a.encode(77)).unwrap();
        assert_eq!(seq, 77);
        assert_eq!(d.count(), 3);
    }

    #[test]
    fn write_options_defaults_are_durable() {
        let o = WriteOptions::default();
        assert!(o.sync);
        assert!(!o.disable_throttle);
        assert!(!WriteOptions::with_sync(false).sync);
    }

    #[test]
    fn byte_size_tracks_growth() {
        let mut b = WriteBatch::new();
        let before = b.byte_size();
        b.put(b"key", Bytes::from(vec![0u8; 100]));
        assert!(b.byte_size() >= before + 100);
    }
}
