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
//! search by key without decoding the whole block. Keys are internal keys,
//! searched under [`cmp_internal`].

use bytes::Bytes;
use scavenger_util::coding::{get_varint32, put_fixed32, put_varint32};
use scavenger_util::ikey::{cmp_internal, KeyBuf};
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

    /// Append an entry. Keys must arrive in increasing internal-key order;
    /// the block does not check it — the table builders do.
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

    /// Decode the header of the entry at `offset`: `(shared, non_shared,
    /// value_len, header_len)`. `None` if a varint is malformed or the
    /// entry runs past the entries area.
    #[inline]
    fn entry_header(&self, offset: usize) -> Option<(usize, usize, usize, usize)> {
        let mut cur = self.data.get(offset..self.restarts_offset)?;
        let before = cur.len();
        let shared = get_varint32(&mut cur).ok()? as usize;
        let non_shared = get_varint32(&mut cur).ok()? as usize;
        let vlen = get_varint32(&mut cur).ok()? as usize;
        if cur.len() < non_shared + vlen {
            return None;
        }
        Some((shared, non_shared, vlen, before - cur.len()))
    }

    /// Create an iterator over this block.
    pub fn iter(&self) -> BlockIter {
        BlockIter {
            block: self.clone(),
            next_offset: 0,
            key: KeyAt::Block(0, 0),
            buf: KeyBuf::new(),
            value_range: (0, 0),
            valid: false,
            corrupt: None,
        }
    }
}

/// Where the current key of a [`BlockIter`] lives.
#[derive(Clone, Copy)]
enum KeyAt {
    /// Stored whole in its entry (`shared == 0`: every restart point, and
    /// every entry of an interval-1 index block): this byte range of the
    /// block, read in place.
    Block(usize, usize),
    /// Reassembled from a shared prefix and its delta in the iterator's
    /// buffer.
    Buf,
}

/// Iterator over a [`Block`]'s entries.
///
/// Keys are compared where they lie: a restart key or any key stored
/// whole is a slice of the block, and only a prefix-compressed key is
/// reassembled, in a buffer that stays on the stack for keys up to 64
/// bytes. A malformed entry ends the iteration with
/// [`status`](Self::status) reporting [`Error::Corruption`], never as a
/// silent end of block.
pub struct BlockIter {
    block: Block,
    /// Offset just past the current entry (start of the next one).
    next_offset: usize,
    key: KeyAt,
    buf: KeyBuf,
    value_range: (usize, usize),
    valid: bool,
    /// Set by the first malformed entry seen; the iterator stays invalid.
    corrupt: Option<&'static str>,
}

impl BlockIter {
    /// True if the iterator is positioned on an entry.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// Current key. Only meaningful while [`valid`](Self::valid).
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid);
        self.current_key()
    }

    fn current_key(&self) -> &[u8] {
        match self.key {
            KeyAt::Block(start, end) => &self.block.data[start..end],
            KeyAt::Buf => &self.buf,
        }
    }

    /// Current value as a zero-copy slice of the block.
    pub fn value(&self) -> Bytes {
        debug_assert!(self.valid);
        self.block
            .data
            .slice(self.value_range.0..self.value_range.1)
    }

    /// `Err(Corruption)` once a malformed entry has been met.
    pub fn status(&self) -> Result<()> {
        match self.corrupt {
            Some(what) => Err(Error::corruption(what)),
            None => Ok(()),
        }
    }

    /// Position at the first entry.
    pub fn seek_to_first(&mut self) {
        self.scan_from(0);
    }

    /// Position at the first entry whose key is `>= target`.
    pub fn seek(&mut self, target: &[u8]) {
        // Binary search restart points for the last restart with key < target.
        let (mut lo, mut hi) = (0usize, self.block.num_restarts.saturating_sub(1));
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            let Some((start, end)) = self.restart_key(mid) else {
                self.fail("malformed restart entry");
                return;
            };
            if cmp_internal(&self.block.data[start..end], target) == Ordering::Less {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        // Linear scan from that restart.
        self.scan_from(if self.block.num_restarts == 0 {
            self.block.restarts_offset
        } else {
            self.block.restart_point(lo)
        });
        while self.valid && cmp_internal(self.current_key(), target) == Ordering::Less {
            self.parse_next();
        }
    }

    /// Advance to the next entry.
    pub fn next(&mut self) {
        if self.valid {
            self.parse_next();
        }
    }

    /// The found entry, if the iterator is positioned on one.
    pub(crate) fn into_entry(self) -> Option<BlockEntry> {
        self.valid.then_some(BlockEntry(self))
    }

    /// Key range of restart `i`'s entry, which must store its key whole.
    fn restart_key(&self, i: usize) -> Option<(usize, usize)> {
        let offset = self.block.restart_point(i);
        match self.block.entry_header(offset)? {
            (0, non_shared, _, header) => Some((offset + header, offset + header + non_shared)),
            _ => None,
        }
    }

    /// Start a scan at `offset` (a restart point) and parse its entry.
    fn scan_from(&mut self, offset: usize) {
        self.valid = false;
        if self.corrupt.is_some() {
            return;
        }
        if offset > self.block.restarts_offset {
            self.fail("restart point past the block's entries");
            return;
        }
        self.next_offset = offset;
        self.key = KeyAt::Block(0, 0);
        self.parse_next();
    }

    fn fail(&mut self, what: &'static str) {
        self.valid = false;
        self.corrupt = Some(what);
    }

    /// Decode the entry at `next_offset` into the iterator state.
    /// Invalidates at end of block, and on corruption records it.
    fn parse_next(&mut self) {
        let offset = self.next_offset;
        if offset >= self.block.restarts_offset {
            self.valid = false;
            return;
        }
        let Some((shared, non_shared, vlen, header)) = self.block.entry_header(offset) else {
            self.fail("malformed block entry");
            return;
        };
        let kstart = offset + header;
        let vstart = kstart + non_shared;
        if shared == 0 {
            self.key = KeyAt::Block(kstart, vstart);
        } else {
            if shared > self.current_key().len() {
                self.fail("block entry shares more than the previous key");
                return;
            }
            let data = &self.block.data;
            match self.key {
                KeyAt::Block(start, _) => {
                    self.buf.clear();
                    self.buf.extend_from_slice(&data[start..start + shared]);
                }
                KeyAt::Buf => self.buf.truncate(shared),
            }
            self.buf.extend_from_slice(&data[kstart..vstart]);
            self.key = KeyAt::Buf;
        }
        self.value_range = (vstart, vstart + vlen);
        self.next_offset = vstart + vlen;
        self.valid = true;
    }
}

/// The entry a point lookup found, read in place: it keeps its block
/// referenced, so neither key nor value is copied out.
pub struct BlockEntry(BlockIter);

impl std::fmt::Debug for BlockEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockEntry")
            .field("key", &self.key())
            .field(
                "value_len",
                &self.0.value_range.1.saturating_sub(self.0.value_range.0),
            )
            .finish()
    }
}

impl BlockEntry {
    /// The entry's key.
    pub fn key(&self) -> &[u8] {
        self.0.key()
    }

    /// The entry's value as a zero-copy slice of the block.
    pub fn value(&self) -> Bytes {
        self.0.value()
    }
}

/// Test helper: `user_key` at seq 1 as an inline value's internal key.
#[cfg(test)]
pub(crate) fn ikey(user_key: &str) -> Vec<u8> {
    scavenger_util::ikey::make_internal_key(
        user_key.as_bytes(),
        1,
        scavenger_util::ikey::ValueType::Value,
    )
}

/// Test fixture: the serialized block of 20 entries `k00..k19` (internal
/// keys from [`ikey`]; value: the entry's index) at restart interval 16,
/// with entry 5's key and value lengths set past the end of the block's
/// entries.
#[cfg(test)]
pub(crate) fn block_with_overrunning_entry() -> Vec<u8> {
    let mut b = BlockBuilder::new(16);
    for i in 0..20u8 {
        b.add(&ikey(&format!("k{i:02}")), &[i]);
    }
    let mut data = b.finish();
    let limit = data.len() - 4 * 3; // two restarts + their count
                                    // Every varint here is one byte: walk to entry 5's header.
    let mut fifth = 0;
    for _ in 0..5 {
        fifth += 3 + data[fifth + 1] as usize + data[fifth + 2] as usize;
    }
    assert!(limit - (fifth + 3) < 2 * 0x7f);
    data[fifth + 1] = 0x7f;
    data[fifth + 2] = 0x7f;
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(entries: &[(Vec<u8>, Vec<u8>)], interval: usize) -> Block {
        let mut b = BlockBuilder::new(interval);
        for (k, v) in entries {
            b.add(k, v);
        }
        Block::new(Bytes::from(b.finish())).unwrap()
    }

    #[test]
    fn empty_block_iterates_nothing() {
        let block = build(&[], 16);
        let mut it = block.iter();
        it.seek_to_first();
        assert!(!it.valid());
        it.seek(&ikey("anything"));
        assert!(!it.valid());
    }

    #[test]
    fn iterate_in_order() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..100)
            .map(|i| (ikey(&format!("key{i:04}")), format!("val{i}").into_bytes()))
            .collect();
        for interval in [1, 2, 16, 1000] {
            let block = build(&entries, interval);
            let mut it = block.iter();
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
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..50)
            .map(|i| (ikey(&format!("k{:03}", i * 2)), vec![i as u8]))
            .collect();
        let block = build(&entries, 4);
        let mut it = block.iter();

        it.seek(&ikey("k010"));
        assert!(it.valid());
        assert_eq!(it.key(), ikey("k010"));

        it.seek(&ikey("k011")); // between entries -> successor k012
        assert!(it.valid());
        assert_eq!(it.key(), ikey("k012"));

        it.seek(&ikey("k000"));
        assert_eq!(it.key(), ikey("k000"));

        it.seek(&ikey("zzz"));
        assert!(!it.valid());
    }

    #[test]
    fn prefix_compression_shrinks_blocks() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..64)
            .map(|i| (ikey(&format!("common/long/prefix/{i:04}")), vec![0u8; 4]))
            .collect();
        let compressed = build(&entries, 16);
        let uncompressed = build(&entries, 1);
        assert!(compressed.len() < uncompressed.len());
    }

    #[test]
    fn value_is_zero_copy_slice() {
        let block = build(&[(ikey("a"), b"hello".to_vec())], 16);
        let mut it = block.iter();
        it.seek_to_first();
        let v = it.value();
        assert_eq!(&v[..], b"hello");
    }

    #[test]
    fn corrupt_restart_count_is_rejected() {
        let mut b = BlockBuilder::new(16);
        b.add(&ikey("a"), b"1");
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
        let mut it = block.iter();
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

    #[test]
    fn a_malformed_entry_is_corruption_not_end_of_block() {
        let block = Block::new(Bytes::from(block_with_overrunning_entry())).unwrap();
        let mut it = block.iter();
        // A later key is not reported missing: the seek fails.
        it.seek(&ikey("k10"));
        assert!(!it.valid());
        assert!(matches!(it.status(), Err(Error::Corruption(_))));
        // Iteration stops at the bad entry and says why.
        let mut it = block.iter();
        it.seek_to_first();
        let mut seen = 0;
        while it.valid() {
            seen += 1;
            it.next();
        }
        assert_eq!(seen, 5);
        assert!(matches!(it.status(), Err(Error::Corruption(_))));
        // Keys before the bad entry are still found.
        let mut it = block.iter();
        it.seek(&ikey("k03"));
        assert_eq!(it.key(), ikey("k03"));
        assert!(it.status().is_ok());
    }

    #[test]
    fn a_restart_entry_with_a_shared_prefix_is_corruption() {
        let mut b = BlockBuilder::new(4);
        for i in 0..12 {
            b.add(&ikey(&format!("k{i:02}")), b"v");
        }
        let mut data = b.finish();
        let limit = data.len() - 4 * 4;
        let second_restart = u32::from_le_bytes(data[limit + 4..limit + 8].try_into().unwrap());
        data[second_restart as usize] = 1; // shared = 1
        let block = Block::new(Bytes::from(data)).unwrap();
        let mut it = block.iter();
        it.seek(&ikey("k11"));
        assert!(!it.valid());
        assert!(matches!(it.status(), Err(Error::Corruption(_))));
    }

    #[test]
    fn a_restart_point_past_the_entries_is_corruption() {
        let mut b = BlockBuilder::new(2);
        for i in 0..6 {
            b.add(&ikey(&format!("k{i}")), b"v");
        }
        let mut data = b.finish();
        let limit = data.len() - 4 * 4;
        data[limit + 8..limit + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        let block = Block::new(Bytes::from(data)).unwrap();
        let mut it = block.iter();
        it.seek(&ikey("k5"));
        assert!(!it.valid());
        assert!(matches!(it.status(), Err(Error::Corruption(_))));
    }

    /// Sorted, distinct internal keys: user keys of 0 to 80 bytes (across
    /// [`KeyBuf`]'s inline size) drawn from a few long shared prefixes, so
    /// prefix compression and key reassembly get exercised, each with a
    /// trailer, and several versions of some user keys.
    fn sorted_keys(raw: &[(u8, u8, Vec<u8>, u64)]) -> Vec<Vec<u8>> {
        let prefixes: [&[u8]; 4] = [b"", b"user/", &[b'p'; 40], &[b'q'; 70]];
        let mut keys: Vec<Vec<u8>> = raw
            .iter()
            .map(|(p, cut, tail, seq)| {
                let mut k = prefixes[*p as usize % 4].to_vec();
                k.truncate(k.len().saturating_sub(*cut as usize % 8));
                k.extend_from_slice(tail);
                k.extend_from_slice(&((seq % 4) << 8 | 1).to_le_bytes());
                k
            })
            .collect();
        keys.sort_by(|a, b| cmp_internal(a, b));
        keys.dedup();
        keys
    }

    /// The reference for `seek`: the first stored key `>= target`, by a
    /// linear walk of the sorted list.
    fn linear_seek(keys: &[Vec<u8>], target: &[u8]) -> usize {
        keys.iter()
            .position(|k| cmp_internal(k, target) != Ordering::Less)
            .unwrap_or(keys.len())
    }

    /// Targets on every stored key, just before and after each (one
    /// byte more or less, or a neighbouring trailer), before all and
    /// past all; every target at least a trailer long.
    fn targets(keys: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut out = vec![vec![0; 8], [vec![0xff; 90], vec![0; 8]].concat()];
        for k in keys {
            out.push(k.clone());
            let mut longer = k.clone();
            longer.push(0);
            out.push(longer);
            if let Some((last, init)) = k.split_last() {
                out.push(init.to_vec());
                out.push([init, &[last.wrapping_add(1)]].concat());
            }
            let n = k.len() - 8;
            for seq in [0u64, 2, 9] {
                out.push([&k[..n], &(seq << 8 | 1).to_le_bytes()[..]].concat());
            }
        }
        out.retain(|t| t.len() >= 8);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `seek` and `next` over random blocks agree with a linear walk
        /// of the sorted entries, for restart intervals 1, 8 and 16.
        #[test]
        fn prop_seek_and_next_match_a_linear_reference(
            raw in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), proptest::collection::vec(0u8..4, 0..12), any::<u64>()),
                0..60,
            ),
        ) {
            let keys = sorted_keys(&raw);
            for interval in [1, 8, 16] {
                let mut b = BlockBuilder::new(interval);
                for (i, k) in keys.iter().enumerate() {
                    b.add(k, &i.to_le_bytes());
                }
                let block = Block::new(Bytes::from(b.finish())).unwrap();
                let mut it = block.iter();
                it.seek_to_first();
                for (i, k) in keys.iter().enumerate() {
                    prop_assert!(it.valid());
                    prop_assert_eq!(it.key(), k.as_slice());
                    prop_assert_eq!(&it.value()[..], &i.to_le_bytes()[..]);
                    it.next();
                }
                prop_assert!(!it.valid());
                for target in targets(&keys) {
                    let want = linear_seek(&keys, &target);
                    it.seek(&target);
                    // The landing entry and the two after it.
                    for k in keys.iter().skip(want).take(3) {
                        prop_assert!(it.valid(), "interval {}", interval);
                        prop_assert_eq!(it.key(), k.as_slice());
                        it.next();
                    }
                    if want + 3 >= keys.len() {
                        prop_assert!(!it.valid());
                    }
                    prop_assert!(it.status().is_ok());
                }
            }
        }

        #[test]
        fn prop_block_roundtrip(
            mut user_keys in proptest::collection::btree_set(
                proptest::collection::vec(any::<u8>(), 1..24), 1..120),
            interval in 1usize..32,
        ) {
            // A bytewise-sorted set of distinct user keys at one seq is
            // sorted under the internal order too.
            let keys: Vec<Vec<u8>> = std::mem::take(&mut user_keys)
                .into_iter()
                .map(|mut k| {
                    k.extend_from_slice(&(1u64 << 8 | 1).to_le_bytes());
                    k
                })
                .collect();
            let mut b = BlockBuilder::new(interval);
            for (i, k) in keys.iter().enumerate() {
                b.add(k, &i.to_le_bytes());
            }
            let block = Block::new(Bytes::from(b.finish())).unwrap();
            let mut it = block.iter();
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
