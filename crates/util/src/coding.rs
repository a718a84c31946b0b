//! Integer and length-prefixed-slice codecs shared by every on-disk format.
//!
//! The encodings are the LevelDB classics:
//!
//! * fixed-width little-endian `u32` / `u64`;
//! * LEB128-style varints (`u32` up to 5 bytes, `u64` up to 10 bytes);
//! * length-prefixed byte slices (`varint32 len ++ bytes`).
//!
//! Decoding functions take a `&mut &[u8]` cursor and advance it past the
//! consumed bytes, which keeps multi-field record parsers compact and makes
//! partial-input failures explicit [`Error::Corruption`] values instead of
//! panics.

use crate::error::{Error, Result};

/// Append a little-endian `u32`.
pub fn put_fixed32(dst: &mut Vec<u8>, v: u32) {
    dst.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_fixed64(dst: &mut Vec<u8>, v: u64) {
    dst.extend_from_slice(&v.to_le_bytes());
}

/// Decode a little-endian `u32` from the front of `src`, advancing it.
pub fn get_fixed32(src: &mut &[u8]) -> Result<u32> {
    if src.len() < 4 {
        return Err(Error::corruption("truncated fixed32"));
    }
    let (head, tail) = src.split_at(4);
    *src = tail;
    Ok(u32::from_le_bytes(head.try_into().unwrap()))
}

/// Decode a little-endian `u64` from the front of `src`, advancing it.
pub fn get_fixed64(src: &mut &[u8]) -> Result<u64> {
    if src.len() < 8 {
        return Err(Error::corruption("truncated fixed64"));
    }
    let (head, tail) = src.split_at(8);
    *src = tail;
    Ok(u64::from_le_bytes(head.try_into().unwrap()))
}

/// Append a varint-encoded `u32` (1–5 bytes).
pub fn put_varint32(dst: &mut Vec<u8>, v: u32) {
    put_varint64(dst, v as u64);
}

/// Append a varint-encoded `u64` (1–10 bytes).
pub fn put_varint64(dst: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        dst.push((v as u8) | 0x80);
        v >>= 7;
    }
    dst.push(v as u8);
}

/// Decode a varint `u64` from the front of `src`, advancing it.
///
/// A one-byte value (every length and offset below 128) is decoded
/// inline; anything longer, and every error, takes the out-of-line full
/// decoder.
#[inline]
pub fn get_varint64(src: &mut &[u8]) -> Result<u64> {
    match src.split_first() {
        Some((&byte, rest)) if byte < 0x80 => {
            *src = rest;
            Ok(u64::from(byte))
        }
        _ => varint64_full(src),
    }
}

/// Decode a varint `u32` from the front of `src`, advancing it.
#[inline]
pub fn get_varint32(src: &mut &[u8]) -> Result<u32> {
    match src.split_first() {
        Some((&byte, rest)) if byte < 0x80 => {
            *src = rest;
            Ok(u32::from(byte))
        }
        _ => varint32_full(src),
    }
}

/// The whole varint `u64` decoder: any length, every check. The inline
/// one-byte paths of [`get_varint64`] / [`get_varint32`] must agree with
/// it on every input.
#[cold]
#[inline(never)]
fn varint64_full(src: &mut &[u8]) -> Result<u64> {
    let mut result: u64 = 0;
    for (i, &byte) in src.iter().enumerate().take(10) {
        // The 10th byte holds bit 63 alone; any higher bit would be lost.
        if i == 9 && byte > 0x01 {
            return Err(Error::corruption("varint64 overflows 64 bits"));
        }
        result |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            *src = &src[i + 1..];
            return Ok(result);
        }
    }
    Err(Error::corruption("malformed or truncated varint64"))
}

/// [`varint64_full`] narrowed to `u32`.
#[cold]
#[inline(never)]
fn varint32_full(src: &mut &[u8]) -> Result<u32> {
    let v = varint64_full(src)?;
    u32::try_from(v).map_err(|_| Error::corruption("varint32 overflow"))
}

/// Number of bytes `put_varint64` would emit for `v`.
pub fn varint64_len(v: u64) -> usize {
    // 1 + floor(bits/7); bits==0 still takes one byte.
    let bits = 64 - v.max(1).leading_zeros() as usize;
    bits.div_ceil(7).max(1)
}

/// Append a varint length prefix followed by the slice bytes.
pub fn put_length_prefixed_slice(dst: &mut Vec<u8>, s: &[u8]) {
    put_varint32(dst, s.len() as u32);
    dst.extend_from_slice(s);
}

/// Decode a length-prefixed slice from the front of `src`, advancing it.
/// Returns a sub-slice borrowing from the original input.
pub fn get_length_prefixed_slice<'a>(src: &mut &'a [u8]) -> Result<&'a [u8]> {
    let len = get_varint32(src)? as usize;
    if src.len() < len {
        return Err(Error::corruption("truncated length-prefixed slice"));
    }
    let (head, tail) = src.split_at(len);
    *src = tail;
    Ok(head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fixed_roundtrip() {
        let mut buf = Vec::new();
        put_fixed32(&mut buf, 0xdead_beef);
        put_fixed64(&mut buf, 0x0123_4567_89ab_cdef);
        let mut s = buf.as_slice();
        assert_eq!(get_fixed32(&mut s).unwrap(), 0xdead_beef);
        assert_eq!(get_fixed64(&mut s).unwrap(), 0x0123_4567_89ab_cdef);
        assert!(s.is_empty());
    }

    #[test]
    fn varint_boundaries() {
        // Each 7-bit boundary changes the encoded length.
        for (v, len) in [
            (0u64, 1usize),
            (127, 1),
            (128, 2),
            (16383, 2),
            (16384, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ] {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            assert_eq!(buf.len(), len, "value {v}");
            assert_eq!(varint64_len(v), len, "varint64_len for {v}");
            let mut s = buf.as_slice();
            assert_eq!(get_varint64(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn varint_truncated_is_corruption() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut s = &buf[..cut];
            assert!(get_varint64(&mut s).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn varint64_rejects_a_tenth_byte_above_one() {
        // Ten bytes carry 70 bits; only bit 63 may come from the last one.
        let mut zero_with_bit_64 = vec![0x80; 9];
        zero_with_bit_64.push(0x02);
        let mut max_with_high_bits = vec![0xff; 9];
        max_with_high_bits.push(0x7f);
        for input in [zero_with_bit_64, max_with_high_bits] {
            let mut s = input.as_slice();
            assert!(
                matches!(get_varint64(&mut s), Err(Error::Corruption(_))),
                "{input:02x?}"
            );
        }
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert_eq!(get_varint64(&mut max.as_slice()).unwrap(), u64::MAX);
    }

    #[test]
    fn varint32_rejects_overflow() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::from(u32::MAX) + 1);
        let mut s = buf.as_slice();
        assert!(get_varint32(&mut s).is_err());
    }

    #[test]
    fn length_prefixed_slice_roundtrip() {
        let mut buf = Vec::new();
        put_length_prefixed_slice(&mut buf, b"hello");
        put_length_prefixed_slice(&mut buf, b"");
        put_length_prefixed_slice(&mut buf, &[0u8; 300]);
        let mut s = buf.as_slice();
        assert_eq!(get_length_prefixed_slice(&mut s).unwrap(), b"hello");
        assert_eq!(get_length_prefixed_slice(&mut s).unwrap(), b"");
        assert_eq!(get_length_prefixed_slice(&mut s).unwrap(), &[0u8; 300]);
        assert!(s.is_empty());
    }

    #[test]
    fn length_prefixed_slice_truncated_is_corruption() {
        let mut buf = Vec::new();
        put_length_prefixed_slice(&mut buf, b"hello");
        let mut s = &buf[..3];
        assert!(get_length_prefixed_slice(&mut s).is_err());
    }

    /// The inline one-byte paths and the full decoders reach the same
    /// verdict on `input`: the same value (or a corruption error) with
    /// the same bytes left over.
    fn assert_fast_path_agrees(input: &[u8]) {
        let (mut fast, mut full) = (input, input);
        let (a, b) = (get_varint64(&mut fast), varint64_full(&mut full));
        assert_eq!(a, b, "varint64 {input:02x?}");
        assert!(a.is_ok() || matches!(a, Err(Error::Corruption(_))));
        if a.is_ok() {
            assert_eq!(fast, full, "varint64 rest {input:02x?}");
        }
        let (mut fast, mut full) = (input, input);
        let (a, b) = (get_varint32(&mut fast), varint32_full(&mut full));
        assert_eq!(a, b, "varint32 {input:02x?}");
        if a.is_ok() {
            assert_eq!(fast, full, "varint32 rest {input:02x?}");
        }
    }

    #[test]
    fn varint_fast_path_agrees_on_every_first_byte() {
        let tails: [&[u8]; 5] = [&[], &[0x00], &[0x7f, 0x01], &[0x80; 12], &[0xff; 9]];
        for first in 0..=u8::MAX {
            for tail in tails {
                let mut input = vec![first];
                input.extend_from_slice(tail);
                assert_fast_path_agrees(&input);
            }
        }
        assert_fast_path_agrees(&[]);
    }

    proptest! {
        /// Every 1- to 10-byte encoding — a 10th byte above 1 included,
        /// which overflows 64 bits — whole, followed by more bytes, and
        /// cut short.
        #[test]
        fn prop_varint_fast_path_agrees_with_the_full_decoder(
            len in 1usize..=10,
            body in proptest::collection::vec(any::<u8>(), 10..11),
            tail in proptest::collection::vec(any::<u8>(), 0..4),
            cut in 0usize..=10,
        ) {
            let mut input: Vec<u8> = body[..len]
                .iter()
                .enumerate()
                .map(|(i, &b)| if i + 1 < len { b | 0x80 } else { b & 0x7f })
                .collect();
            assert_fast_path_agrees(&input[..cut.min(len)]);
            input.extend_from_slice(&tail);
            assert_fast_path_agrees(&input);
        }

        #[test]
        fn prop_varint64_roundtrip(v: u64) {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            prop_assert_eq!(buf.len(), varint64_len(v));
            let mut s = buf.as_slice();
            prop_assert_eq!(get_varint64(&mut s).unwrap(), v);
            prop_assert!(s.is_empty());
        }

        #[test]
        fn prop_varint_sequences_roundtrip(vals in proptest::collection::vec(any::<u64>(), 0..64)) {
            let mut buf = Vec::new();
            for &v in &vals {
                put_varint64(&mut buf, v);
            }
            let mut s = buf.as_slice();
            for &v in &vals {
                prop_assert_eq!(get_varint64(&mut s).unwrap(), v);
            }
            prop_assert!(s.is_empty());
        }

        #[test]
        fn prop_slices_roundtrip(slices in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 0..16)) {
            let mut buf = Vec::new();
            for s in &slices {
                put_length_prefixed_slice(&mut buf, s);
            }
            let mut cur = buf.as_slice();
            for s in &slices {
                prop_assert_eq!(get_length_prefixed_slice(&mut cur).unwrap(), s.as_slice());
            }
            prop_assert!(cur.is_empty());
        }
    }
}
