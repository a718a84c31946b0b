//! Prefix-compressed key-value blocks with restart points.
//!
//! The classic LevelDB block layout:
//!
//! ```text
//! entry*   := varint32 shared | varint32 non_shared | varint32 value_len
//!             | key_delta bytes | value bytes
//! trailer  := fixed32 restart_offset * num_restarts | fixed32 num_restarts
//! ```
//!
//! Every `restart_interval` entries the shared prefix resets to zero, and
//! the entry's offset is recorded in the restart array, enabling binary
//! search by key without decoding the whole block.

use crate::KeyCmp;
use bytes::Bytes;
use scavenger_util::coding::{get_varint32, put_fixed32, put_varint32};
use scavenger_util::{Error, Result};
use std::cmp::Ordering;

/// Builds a block from keys added in strictly increasing order.
pub struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    restart_interval: usize,
    count_since_restart: usize,
    last_key: Vec<u8>,
    num_entries: usize,
}

impl BlockBuilder {
    /// Create a builder with the given restart interval (LevelDB uses 16;
    /// index blocks typically use 1 for exact binary search).
    pub fn new(restart_interval: usize) -> Self {
        BlockBuilder {
            buf: Vec::new(),
            restarts: vec![0],
            restart_interval: restart_interval.max(1),
            count_since_restart: 0,
            last_key: Vec::new(),
            num_entries: 0,
        }
    }

    /// Append an entry. Keys must arrive in increasing order (the caller's
    /// comparator); this is debug-asserted bytewise at restart boundaries
    /// only, since ordering is the caller's contract.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        let shared = if self.count_since_restart < self.restart_interval {
            common_prefix_len(&self.last_key, key)
        } else {
            self.restarts.push(self.buf.len() as u32);
            self.count_since_restart = 0;
            0
        };
        let non_shared = key.len() - shared;
        put_varint32(&mut self.buf, shared as u32);
        put_varint32(&mut self.buf, non_shared as u32);
        put_varint32(&mut self.buf, value.len() as u32);
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.count_since_restart += 1;
        self.num_entries += 1;
    }

    /// Estimated size of the finished block in bytes.
    pub fn size_estimate(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 4
    }

    /// Number of entries added.
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// True if no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.num_entries == 0
    }

    /// Last key added (empty before the first `add`).
    pub fn last_key(&self) -> &[u8] {
        &self.last_key
    }

    /// Finish the block, returning its serialized bytes and resetting the
    /// builder for reuse.
    pub fn finish(&mut self) -> Vec<u8> {
        let mut out = std::mem::take(&mut self.buf);
        for &r in &self.restarts {
            put_fixed32(&mut out, r);
        }
        put_fixed32(&mut out, self.restarts.len() as u32);
        self.restarts.clear();
        self.restarts.push(0);
        self.count_since_restart = 0;
        self.last_key.clear();
        self.num_entries = 0;
        out
    }
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// An immutable, parsed block ready for iteration.
#[derive(Clone)]
pub struct Block {
    data: Bytes,
    restarts_offset: usize,
    num_restarts: usize,
}

impl Block {
    /// Parse a serialized block.
    pub fn new(data: Bytes) -> Result<Block> {
        if data.len() < 4 {
            return Err(Error::corruption("block too small"));
        }
        let num_restarts = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap()) as usize;
        let trailer = num_restarts
            .checked_mul(4)
            .and_then(|n| n.checked_add(4))
            .ok_or_else(|| Error::corruption("restart count overflow"))?;
        if trailer > data.len() {
            return Err(Error::corruption("restart array overruns block"));
        }
        Ok(Block {
            restarts_offset: data.len() - trailer,
            num_restarts,
            data,
        })
    }

    /// Size of the underlying serialized block.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the block holds no entries.
    pub fn is_empty(&self) -> bool {
        self.num_restarts == 0 || self.restarts_offset == 0
    }

    fn restart_point(&self, i: usize) -> usize {
        let off = self.restarts_offset + i * 4;
        u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap()) as usize
    }

    /// Create an iterator over this block.
    pub fn iter(&self, cmp: KeyCmp) -> BlockIter {
        BlockIter {
            block: self.clone(),
            cmp,
            offset: 0,
            next_offset: 0,
            key: Vec::new(),
            value_range: (0, 0),
            valid: false,
        }
    }
}

/// Iterator over a [`Block`]'s entries.
pub struct BlockIter {
    block: Block,
    cmp: KeyCmp,
    /// Offset of the current entry.
    offset: usize,
    /// Offset just past the current entry (start of the next one).
    next_offset: usize,
    key: Vec<u8>,
    value_range: (usize, usize),
    valid: bool,
}

impl BlockIter {
    /// True if the iterator is positioned on an entry.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// Current key. Only meaningful while [`valid`](Self::valid).
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.key
    }

    /// Current value as a zero-copy slice of the block.
    pub fn value(&self) -> Bytes {
        debug_assert!(self.valid);
        self.block
            .data
            .slice(self.value_range.0..self.value_range.1)
    }

    /// Position at the first entry.
    pub fn seek_to_first(&mut self) {
        self.key.clear();
        self.next_offset = 0;
        self.valid = false;
        self.parse_next();
    }

    /// Position at the first entry whose key is `>= target` under the
    /// iterator's comparator.
    pub fn seek(&mut self, target: &[u8]) {
        // Binary search restart points for the last restart with key < target.
        let (mut lo, mut hi) = (0usize, self.block.num_restarts.saturating_sub(1));
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            let off = self.block.restart_point(mid);
            match self.key_at_restart(off) {
                Some(k) if self.cmp.cmp(&k, target) == Ordering::Less => lo = mid,
                _ => hi = mid - 1,
            }
        }
        // Linear scan from that restart.
        self.key.clear();
        self.next_offset = if self.block.num_restarts == 0 {
            self.block.restarts_offset
        } else {
            self.block.restart_point(lo)
        };
        self.valid = false;
        loop {
            if !self.parse_next() {
                return;
            }
            if self.cmp.cmp(&self.key, target) != Ordering::Less {
                return;
            }
        }
    }

    /// Advance to the next entry.
    pub fn next(&mut self) {
        if self.valid {
            self.parse_next();
        }
    }

    fn key_at_restart(&self, offset: usize) -> Option<Vec<u8>> {
        let data = &self.block.data[..self.block.restarts_offset];
        let mut cur = &data[offset..];
        let shared = get_varint32(&mut cur).ok()?;
        if shared != 0 {
            return None; // corrupt: restart entries must have shared == 0
        }
        let non_shared = get_varint32(&mut cur).ok()? as usize;
        let _vlen = get_varint32(&mut cur).ok()?;
        if cur.len() < non_shared {
            return None;
        }
        Some(cur[..non_shared].to_vec())
    }

    /// Decode the entry at `next_offset` into the iterator state.
    /// Returns false (and invalidates) at end of block or on corruption.
    fn parse_next(&mut self) -> bool {
        let limit = self.block.restarts_offset;
        if self.next_offset >= limit {
            self.valid = false;
            return false;
        }
        self.offset = self.next_offset;
        let data = &self.block.data[..limit];
        let mut cur = &data[self.next_offset..];
        let before = cur.len();
        let (shared, non_shared, vlen) = match (
            get_varint32(&mut cur),
            get_varint32(&mut cur),
            get_varint32(&mut cur),
        ) {
            (Ok(a), Ok(b), Ok(c)) => (a as usize, b as usize, c as usize),
            _ => {
                self.valid = false;
                return false;
            }
        };
        let header = before - cur.len();
        if shared > self.key.len() || cur.len() < non_shared + vlen {
            self.valid = false;
            return false;
        }
        self.key.truncate(shared);
        self.key.extend_from_slice(&cur[..non_shared]);
        let vstart = self.next_offset + header + non_shared;
        self.value_range = (vstart, vstart + vlen);
        self.next_offset = vstart + vlen;
        self.valid = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(entries: &[(&[u8], &[u8])], interval: usize) -> Block {
        let mut b = BlockBuilder::new(interval);
        for (k, v) in entries {
            b.add(k, v);
        }
        Block::new(Bytes::from(b.finish())).unwrap()
    }

    #[test]
    fn empty_block_iterates_nothing() {
        let block = build(&[], 16);
        let mut it = block.iter(KeyCmp::Bytewise);
        it.seek_to_first();
        assert!(!it.valid());
        it.seek(b"anything");
        assert!(!it.valid());
    }

    #[test]
    fn iterate_in_order() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..100)
            .map(|i| {
                (
                    format!("key{i:04}").into_bytes(),
                    format!("val{i}").into_bytes(),
                )
            })
            .collect();
        let refs: Vec<(&[u8], &[u8])> = entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        for interval in [1, 2, 16, 1000] {
            let block = build(&refs, interval);
            let mut it = block.iter(KeyCmp::Bytewise);
            it.seek_to_first();
            for (k, v) in &entries {
                assert!(it.valid(), "interval {interval}");
                assert_eq!(it.key(), k.as_slice());
                assert_eq!(&it.value()[..], v.as_slice());
                it.next();
            }
            assert!(!it.valid());
        }
    }

    #[test]
    fn seek_finds_exact_and_successor() {
        let refs: Vec<(Vec<u8>, Vec<u8>)> = (0..50)
            .map(|i| (format!("k{:03}", i * 2).into_bytes(), vec![i as u8]))
            .collect();
        let entries: Vec<(&[u8], &[u8])> = refs
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        let block = build(&entries, 4);
        let mut it = block.iter(KeyCmp::Bytewise);

        it.seek(b"k010");
        assert!(it.valid());
        assert_eq!(it.key(), b"k010");

        it.seek(b"k011"); // between entries -> successor k012
        assert!(it.valid());
        assert_eq!(it.key(), b"k012");

        it.seek(b"k000");
        assert_eq!(it.key(), b"k000");

        it.seek(b"zzz");
        assert!(!it.valid());
    }

    #[test]
    fn prefix_compression_shrinks_blocks() {
        let long_prefix: Vec<(Vec<u8>, Vec<u8>)> = (0..64)
            .map(|i| {
                (
                    format!("common/long/prefix/{i:04}").into_bytes(),
                    vec![0u8; 4],
                )
            })
            .collect();
        let entries: Vec<(&[u8], &[u8])> = long_prefix
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        let compressed = build(&entries, 16);
        let uncompressed = build(&entries, 1);
        assert!(compressed.len() < uncompressed.len());
    }

    #[test]
    fn value_is_zero_copy_slice() {
        let block = build(&[(b"a", b"hello")], 16);
        let mut it = block.iter(KeyCmp::Bytewise);
        it.seek_to_first();
        let v = it.value();
        assert_eq!(&v[..], b"hello");
    }

    #[test]
    fn corrupt_restart_count_is_rejected() {
        let mut b = BlockBuilder::new(16);
        b.add(b"a", b"1");
        let mut data = b.finish();
        let n = data.len();
        data[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Block::new(Bytes::from(data)).is_err());
    }

    #[test]
    fn internal_key_ordering_seek() {
        use scavenger_util::ikey::{make_internal_key, ValueType};
        let mut b = BlockBuilder::new(4);
        // Same user key, descending seq = ascending internal order.
        let k_new = make_internal_key(b"k", 9, ValueType::Value);
        let k_old = make_internal_key(b"k", 3, ValueType::Value);
        b.add(&k_new, b"new");
        b.add(&k_old, b"old");
        let block = Block::new(Bytes::from(b.finish())).unwrap();
        let mut it = block.iter(KeyCmp::Internal);
        // Seek to seq 100 (higher than anything) -> lands on seq 9 entry.
        let target = make_internal_key(b"k", 100, ValueType::Value);
        it.seek(&target);
        assert!(it.valid());
        assert_eq!(&it.value()[..], b"new");
        // Seek to seq 5 -> first entry with seq <= 5 is the seq-3 one.
        let target = make_internal_key(b"k", 5, ValueType::Value);
        it.seek(&target);
        assert!(it.valid());
        assert_eq!(&it.value()[..], b"old");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_block_roundtrip(
            mut keys in proptest::collection::btree_set(
                proptest::collection::vec(any::<u8>(), 1..24), 1..120),
            interval in 1usize..32,
        ) {
            let keys: Vec<Vec<u8>> = std::mem::take(&mut keys).into_iter().collect();
            let mut b = BlockBuilder::new(interval);
            for (i, k) in keys.iter().enumerate() {
                b.add(k, &i.to_le_bytes());
            }
            let block = Block::new(Bytes::from(b.finish())).unwrap();
            let mut it = block.iter(KeyCmp::Bytewise);
            it.seek_to_first();
            for (i, k) in keys.iter().enumerate() {
                prop_assert!(it.valid());
                prop_assert_eq!(it.key(), k.as_slice());
                let expected = i.to_le_bytes();
                prop_assert_eq!(&it.value()[..], expected.as_slice());
                it.next();
            }
            prop_assert!(!it.valid());
            // Seeking to each key finds it.
            for k in keys.iter() {
                it.seek(k);
                prop_assert!(it.valid());
                prop_assert_eq!(it.key(), k.as_slice());
            }
        }
    }
}
