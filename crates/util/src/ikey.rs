//! Internal-key model and value-entry codec.
//!
//! The engine stores *internal keys*: `user_key ++ fixed64(seq << 8 | type)`.
//! Ordering is user-key ascending, then sequence number **descending**, then
//! type descending — so the freshest version of a key sorts first, exactly
//! like LevelDB/RocksDB.
//!
//! The value slot of an entry holds either the value bytes themselves
//! ([`ValueType::Value`]) or an encoded [`ValueRef`] pointing into the value
//! store ([`ValueType::ValueRef`]). Which of the two it is travels in the
//! internal key's type byte, so table builders (notably the DTable, which
//! physically separates the two classes) can route entries without decoding
//! the payload.

use crate::coding::{get_varint32, get_varint64, put_varint32, put_varint64};
use crate::error::{Error, Result};
use crate::inline_vec::InlineVec;
use std::cmp::Ordering;

/// Sequence number (56 usable bits).
pub type SeqNo = u64;

/// Largest representable sequence number.
pub const MAX_SEQNO: SeqNo = (1 << 56) - 1;

/// Kind of an entry, stored in the low byte of the internal-key trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ValueType {
    /// Tombstone: the key was deleted.
    Deletion = 0,
    /// The value bytes are stored inline in the index LSM-tree.
    Value = 1,
    /// The value lives in the value store; the payload is an encoded
    /// [`ValueRef`].
    ValueRef = 2,
}

impl ValueType {
    /// Parse a trailer type byte.
    pub fn from_u8(v: u8) -> Result<ValueType> {
        match v {
            0 => Ok(ValueType::Deletion),
            1 => Ok(ValueType::Value),
            2 => Ok(ValueType::ValueRef),
            other => Err(Error::corruption(format!("bad value type {other}"))),
        }
    }
}

/// Pack a `(seq, type)` pair into the 8-byte trailer.
pub fn pack_trailer(seq: SeqNo, t: ValueType) -> u64 {
    debug_assert!(seq <= MAX_SEQNO);
    (seq << 8) | t as u64
}

/// Append an internal key to `dst`.
pub fn append_internal_key(dst: &mut Vec<u8>, user_key: &[u8], seq: SeqNo, t: ValueType) {
    dst.extend_from_slice(user_key);
    dst.extend_from_slice(&pack_trailer(seq, t).to_le_bytes());
}

/// Build an internal key as an owned buffer.
pub fn make_internal_key(user_key: &[u8], seq: SeqNo, t: ValueType) -> Vec<u8> {
    let mut v = Vec::with_capacity(user_key.len() + 8);
    append_internal_key(&mut v, user_key, seq, t);
    v
}

/// An encoded key that stays on the stack up to 64 bytes: a point
/// lookup's target, or a key reassembled from a prefix-compressed block.
pub type KeyBuf = InlineVec<u8, 64>;

/// The internal key of a point lookup, built once per read and without
/// an allocation for user keys up to 56 bytes.
pub fn lookup_key(user_key: &[u8], seq: SeqNo, t: ValueType) -> KeyBuf {
    let mut k = KeyBuf::new();
    k.extend_from_slice(user_key);
    k.extend_from_slice(&pack_trailer(seq, t).to_le_bytes());
    k
}

/// A borrowed, decoded view of an internal key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedInternalKey<'a> {
    /// The application-visible key.
    pub user_key: &'a [u8],
    /// Sequence number of this version.
    pub seq: SeqNo,
    /// Entry kind.
    pub vtype: ValueType,
}

/// Parse an internal key, validating the trailer.
pub fn parse_internal_key(ikey: &[u8]) -> Result<ParsedInternalKey<'_>> {
    if ikey.len() < 8 {
        return Err(Error::corruption("internal key too short"));
    }
    let (user_key, trailer) = ikey.split_at(ikey.len() - 8);
    let t = u64::from_le_bytes(trailer.try_into().unwrap());
    Ok(ParsedInternalKey {
        user_key,
        seq: t >> 8,
        vtype: ValueType::from_u8((t & 0xff) as u8)?,
    })
}

/// Extract the user-key prefix of an internal key.
///
/// Panics in debug builds if the key is too short; in release it clamps,
/// because this sits on hot comparison paths.
pub fn extract_user_key(ikey: &[u8]) -> &[u8] {
    debug_assert!(ikey.len() >= 8, "internal key too short");
    &ikey[..ikey.len().saturating_sub(8)]
}

/// Extract the packed trailer of an internal key.
pub fn extract_trailer(ikey: &[u8]) -> u64 {
    debug_assert!(ikey.len() >= 8);
    let n = ikey.len();
    u64::from_le_bytes(ikey[n - 8..].try_into().unwrap())
}

/// Total order over encoded internal keys: user key ascending, then trailer
/// (seq, type) descending.
pub fn cmp_internal(a: &[u8], b: &[u8]) -> Ordering {
    match extract_user_key(a).cmp(extract_user_key(b)) {
        Ordering::Equal => extract_trailer(b).cmp(&extract_trailer(a)),
        ord => ord,
    }
}

/// A reference from the index LSM-tree into the value store.
///
/// * `file` — the value-SST (or blob-log) file number the value was written
///   to. TerarkDB/Scavenger modes resolve this through the inheritance
///   forest at read time, so it may name a long-deleted ancestor file.
/// * `size` — size in bytes of the value; used for compensated-size
///   compaction and garbage accounting without touching the value store.
/// * `offset` — byte offset within the file for address-based schemes
///   (BlobDB/Titan). Key-ordered vSST formats (BTable/RTable) locate the
///   record by key and leave this as the builder reported it (still useful
///   as a hint for sequential GC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueRef {
    /// Value-store file number.
    pub file: u64,
    /// Value size in bytes.
    pub size: u32,
    /// Byte offset of the record within the file (address-based modes).
    pub offset: u64,
}

impl ValueRef {
    /// Encode into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16);
        self.encode_to(&mut v);
        v
    }

    /// Append the encoding to `dst`.
    pub fn encode_to(&self, dst: &mut Vec<u8>) {
        put_varint64(dst, self.file);
        put_varint32(dst, self.size);
        put_varint64(dst, self.offset);
    }

    /// Decode from a byte slice (must consume it exactly).
    pub fn decode(mut src: &[u8]) -> Result<ValueRef> {
        let file = get_varint64(&mut src)?;
        let size = get_varint32(&mut src)?;
        let offset = get_varint64(&mut src)?;
        if !src.is_empty() {
            return Err(Error::corruption("trailing bytes after ValueRef"));
        }
        Ok(ValueRef { file, size, offset })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn trailer_roundtrip() {
        let k = make_internal_key(b"abc", 42, ValueType::Value);
        let p = parse_internal_key(&k).unwrap();
        assert_eq!(p.user_key, b"abc");
        assert_eq!(p.seq, 42);
        assert_eq!(p.vtype, ValueType::Value);
        assert_eq!(extract_user_key(&k), b"abc");
    }

    #[test]
    fn lookup_key_encodes_like_make_internal_key() {
        for len in [0, 1, 55, 56, 57, 200] {
            let ukey = vec![b'u'; len];
            let k = lookup_key(&ukey, 42, ValueType::ValueRef);
            assert_eq!(&k[..], make_internal_key(&ukey, 42, ValueType::ValueRef));
        }
    }

    #[test]
    fn ordering_user_key_ascending() {
        let a = make_internal_key(b"a", 5, ValueType::Value);
        let b = make_internal_key(b"b", 5, ValueType::Value);
        assert_eq!(cmp_internal(&a, &b), Ordering::Less);
    }

    #[test]
    fn ordering_seq_descending_within_key() {
        let newer = make_internal_key(b"k", 10, ValueType::Value);
        let older = make_internal_key(b"k", 3, ValueType::Value);
        assert_eq!(cmp_internal(&newer, &older), Ordering::Less);
    }

    #[test]
    fn ordering_type_descending_within_seq() {
        let vref = make_internal_key(b"k", 10, ValueType::ValueRef);
        let del = make_internal_key(b"k", 10, ValueType::Deletion);
        assert_eq!(cmp_internal(&vref, &del), Ordering::Less);
    }

    #[test]
    fn max_seqno_fits() {
        let k = make_internal_key(b"k", MAX_SEQNO, ValueType::Deletion);
        let p = parse_internal_key(&k).unwrap();
        assert_eq!(p.seq, MAX_SEQNO);
    }

    #[test]
    fn bad_type_is_corruption() {
        let mut k = make_internal_key(b"k", 1, ValueType::Value);
        let n = k.len();
        k[n - 8] = 99;
        assert!(parse_internal_key(&k).is_err());
    }

    #[test]
    fn value_ref_roundtrip() {
        let r = ValueRef {
            file: 123456,
            size: 16384,
            offset: 987654321,
        };
        assert_eq!(ValueRef::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn value_ref_rejects_trailing_bytes() {
        let mut enc = ValueRef {
            file: 1,
            size: 2,
            offset: 3,
        }
        .encode();
        enc.push(0);
        assert!(ValueRef::decode(&enc).is_err());
    }

    proptest! {
        #[test]
        fn prop_internal_key_roundtrip(
            ukey in proptest::collection::vec(any::<u8>(), 0..64),
            seq in 0u64..MAX_SEQNO,
            t in prop_oneof![Just(ValueType::Deletion), Just(ValueType::Value), Just(ValueType::ValueRef)],
        ) {
            let k = make_internal_key(&ukey, seq, t);
            let p = parse_internal_key(&k).unwrap();
            prop_assert_eq!(p.user_key, ukey.as_slice());
            prop_assert_eq!(p.seq, seq);
            prop_assert_eq!(p.vtype, t);
        }

        #[test]
        fn prop_cmp_internal_is_total_order_consistent(
            k1 in proptest::collection::vec(any::<u8>(), 0..8),
            k2 in proptest::collection::vec(any::<u8>(), 0..8),
            s1 in 0u64..1000, s2 in 0u64..1000,
        ) {
            let a = make_internal_key(&k1, s1, ValueType::Value);
            let b = make_internal_key(&k2, s2, ValueType::Value);
            let ab = cmp_internal(&a, &b);
            let ba = cmp_internal(&b, &a);
            prop_assert_eq!(ab, ba.reverse());
            if k1 == k2 && s1 == s2 {
                prop_assert_eq!(ab, Ordering::Equal);
            }
        }

        #[test]
        fn prop_value_ref_roundtrip(file: u64, size: u32, offset: u64) {
            let r = ValueRef { file, size, offset };
            prop_assert_eq!(ValueRef::decode(&r.encode()).unwrap(), r);
        }
    }
}
