//! In-memory write buffer ordered by internal key.
//!
//! A `BTreeMap` under an `RwLock` keyed by encoded internal keys (with the
//! internal-key ordering). Writes are already serialized by the engine's
//! write mutex, so the lock is effectively uncontended on the write side;
//! reads take the shared lock. Frozen (immutable) memtables are only ever
//! read.

use bytes::Bytes;
use parking_lot::RwLock;
use scavenger_util::ikey::{
    cmp_internal, extract_user_key, make_internal_key, parse_internal_key, SeqNo, ValueType,
    MAX_SEQNO,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

/// Encoded internal key with internal-key ordering: owned by the map,
/// borrowed by a point lookup's probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemKey<'a>(pub Cow<'a, [u8]>);

impl Ord for MemKey<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_internal(&self.0, &other.0)
    }
}

impl PartialOrd for MemKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Outcome of a memtable point lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemGet {
    /// No version of the key is visible at the read sequence.
    NotFound,
    /// The visible version is a tombstone.
    Deleted(SeqNo),
    /// A visible value (inline or encoded reference).
    Found {
        /// Sequence of the found version.
        seq: SeqNo,
        /// Entry kind (`Value` or `ValueRef`).
        vtype: ValueType,
        /// Value payload.
        value: Bytes,
    },
}

/// The in-memory write buffer.
pub struct Memtable {
    map: RwLock<BTreeMap<MemKey<'static>, Bytes>>,
    approx_size: AtomicUsize,
}

impl Default for Memtable {
    fn default() -> Self {
        Self::new()
    }
}

impl Memtable {
    /// Create an empty memtable.
    pub fn new() -> Self {
        Memtable {
            map: RwLock::new(BTreeMap::new()),
            approx_size: AtomicUsize::new(0),
        }
    }

    /// Insert an entry.
    pub fn insert(&self, user_key: &[u8], seq: SeqNo, vtype: ValueType, value: Bytes) {
        let ikey = make_internal_key(user_key, seq, vtype);
        let charge = ikey.len() + value.len() + 32;
        self.map.write().insert(MemKey(Cow::Owned(ikey)), value);
        self.approx_size.fetch_add(charge, AtomicOrdering::Relaxed);
    }

    /// Look up the newest version of a user key visible at a read
    /// sequence: `target` is the lookup key
    /// [`lookup_key`](scavenger_util::ikey::lookup_key)`(user_key,
    /// read_seq, ValueType::ValueRef)`.
    pub fn get(&self, target: &[u8]) -> MemGet {
        let map = self.map.read();
        // The map is covariant in its key type, so it can be searched as a
        // map of keys borrowed for `target`'s lifetime: the probe borrows
        // `target` instead of copying it into an owned key.
        let map: &BTreeMap<MemKey<'_>, Bytes> = &map;
        let probe = MemKey(Cow::Borrowed(target));
        if let Some((k, v)) = map.range(&probe..).next() {
            let parsed = parse_internal_key(&k.0).expect("memtable key valid");
            if parsed.user_key == extract_user_key(target) {
                return match parsed.vtype {
                    ValueType::Deletion => MemGet::Deleted(parsed.seq),
                    t => MemGet::Found {
                        seq: parsed.seq,
                        vtype: t,
                        value: v.clone(),
                    },
                };
            }
        }
        MemGet::NotFound
    }

    /// Approximate memory footprint in bytes.
    pub fn approx_size(&self) -> usize {
        self.approx_size.load(AtomicOrdering::Relaxed)
    }

    /// Number of entries (versions, not distinct user keys).
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True if the memtable holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Point-in-time sorted snapshot of all entries (internal key, value).
    /// Values are `Bytes` so the copies are cheap reference bumps.
    pub fn snapshot(&self) -> Vec<(Vec<u8>, Bytes)> {
        self.map
            .read()
            .iter()
            .map(|(k, v)| (k.0.to_vec(), v.clone()))
            .collect()
    }

    /// Sorted snapshot of entries whose *user key* lies in
    /// `[lo, hi)` (`hi = None` means unbounded).
    pub fn snapshot_range(&self, lo: &[u8], hi: Option<&[u8]>) -> Vec<(Vec<u8>, Bytes)> {
        let start = MemKey(Cow::Owned(make_internal_key(
            lo,
            MAX_SEQNO,
            ValueType::ValueRef,
        )));
        self.map
            .read()
            .range((Bound::Included(start), Bound::Unbounded))
            .take_while(|(k, _)| match hi {
                Some(h) => {
                    let p = parse_internal_key(&k.0).expect("valid");
                    p.user_key < h
                }
                None => true,
            })
            .map(|(k, v)| (k.0.to_vec(), v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_util::ikey::lookup_key;

    fn get(m: &Memtable, user_key: &[u8], read_seq: SeqNo) -> MemGet {
        m.get(&lookup_key(user_key, read_seq, ValueType::ValueRef))
    }

    #[test]
    fn insert_then_get_latest() {
        let m = Memtable::new();
        m.insert(b"k", 1, ValueType::Value, Bytes::from_static(b"v1"));
        m.insert(b"k", 5, ValueType::Value, Bytes::from_static(b"v5"));
        match get(&m, b"k", MAX_SEQNO) {
            MemGet::Found { seq, value, .. } => {
                assert_eq!(seq, 5);
                assert_eq!(&value[..], b"v5");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn snapshot_sequence_respected() {
        let m = Memtable::new();
        m.insert(b"k", 10, ValueType::Value, Bytes::from_static(b"new"));
        m.insert(b"k", 3, ValueType::Value, Bytes::from_static(b"old"));
        match get(&m, b"k", 5) {
            MemGet::Found { seq, value, .. } => {
                assert_eq!(seq, 3);
                assert_eq!(&value[..], b"old");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(get(&m, b"k", 2), MemGet::NotFound);
    }

    #[test]
    fn tombstone_reported_as_deleted() {
        let m = Memtable::new();
        m.insert(b"k", 1, ValueType::Value, Bytes::from_static(b"v"));
        m.insert(b"k", 2, ValueType::Deletion, Bytes::new());
        assert_eq!(get(&m, b"k", MAX_SEQNO), MemGet::Deleted(2));
        // Older snapshot still sees the value.
        assert!(matches!(get(&m, b"k", 1), MemGet::Found { .. }));
    }

    #[test]
    fn get_does_not_bleed_to_neighbors() {
        let m = Memtable::new();
        m.insert(b"a", 1, ValueType::Value, Bytes::from_static(b"va"));
        m.insert(b"c", 1, ValueType::Value, Bytes::from_static(b"vc"));
        assert_eq!(get(&m, b"b", MAX_SEQNO), MemGet::NotFound);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let m = Memtable::new();
        m.insert(b"b", 2, ValueType::Value, Bytes::from_static(b"b2"));
        m.insert(b"a", 1, ValueType::Value, Bytes::from_static(b"a1"));
        m.insert(b"b", 7, ValueType::Deletion, Bytes::new());
        let snap = m.snapshot();
        assert_eq!(snap.len(), 3);
        // Order: a@1, b@7(del), b@2 (seq descending within user key).
        let parsed: Vec<_> = snap
            .iter()
            .map(|(k, _)| parse_internal_key(k).unwrap())
            .collect();
        assert_eq!(parsed[0].user_key, b"a");
        assert_eq!(parsed[1].user_key, b"b");
        assert_eq!(parsed[1].seq, 7);
        assert_eq!(parsed[2].seq, 2);
    }

    #[test]
    fn snapshot_range_bounds_by_user_key() {
        let m = Memtable::new();
        for (k, s) in [(b"a", 1u64), (b"b", 2), (b"c", 3), (b"d", 4)] {
            m.insert(k, s, ValueType::Value, Bytes::from_static(b"x"));
        }
        let snap = m.snapshot_range(b"b", Some(b"d"));
        let keys: Vec<_> = snap
            .iter()
            .map(|(k, _)| parse_internal_key(k).unwrap().user_key.to_vec())
            .collect();
        assert_eq!(keys, vec![b"b".to_vec(), b"c".to_vec()]);
        let snap = m.snapshot_range(b"c", None);
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn size_accounting_grows() {
        let m = Memtable::new();
        assert_eq!(m.approx_size(), 0);
        m.insert(b"key", 1, ValueType::Value, Bytes::from(vec![0u8; 1000]));
        assert!(m.approx_size() >= 1000);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }
}
