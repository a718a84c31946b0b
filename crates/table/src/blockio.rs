//! Checksummed block I/O: every block (and every RTable record) is written
//! as `payload ++ type_byte ++ masked_crc32c`, and verified on read.

use crate::handle::BlockHandle;
use bytes::Bytes;
use scavenger_env::{RandomAccessFile, WritableFile};
use scavenger_util::{crc32c, Error, Result};

/// Size of the per-block trailer: 1 type byte + 4 CRC bytes.
pub const BLOCK_TRAILER_LEN: usize = 5;

/// Block payload type byte. Only `0` (uncompressed) is currently produced;
/// the byte exists so compression can be added without a format break.
pub const BLOCK_TYPE_RAW: u8 = 0;

/// Append a block (`payload ++ trailer`) to `file` in one write,
/// returning its handle.
pub fn write_block(file: &mut dyn WritableFile, payload: &[u8]) -> Result<BlockHandle> {
    let handle = BlockHandle::new(file.len(), payload.len() as u64);
    let mut trailer = [0u8; BLOCK_TRAILER_LEN];
    trailer[0] = BLOCK_TYPE_RAW;
    let crc = crc32c::extend(crc32c::value(payload), &trailer[..1]);
    trailer[1..].copy_from_slice(&crc32c::mask(crc).to_le_bytes());
    let mut buf = Vec::with_capacity(payload.len() + BLOCK_TRAILER_LEN);
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&trailer);
    file.append(&buf)?;
    Ok(handle)
}

/// Read and verify the block at `handle`.
pub fn read_block(file: &dyn RandomAccessFile, handle: BlockHandle) -> Result<Bytes> {
    let raw = file.read_at(handle.offset, handle.size as usize + BLOCK_TRAILER_LEN)?;
    verify_block(&raw, handle)
}

/// Verify an already-fetched `payload ++ trailer` buffer.
pub fn verify_block(raw: &Bytes, handle: BlockHandle) -> Result<Bytes> {
    let n = handle.size as usize;
    if raw.len() != n + BLOCK_TRAILER_LEN {
        return Err(Error::corruption("short block read"));
    }
    let block_type = raw[n];
    if block_type != BLOCK_TYPE_RAW {
        return Err(Error::corruption(format!(
            "unknown block type {block_type}"
        )));
    }
    let stored = u32::from_le_bytes(raw[n + 1..n + 5].try_into().unwrap());
    let actual = crc32c::extend(crc32c::value(&raw[..n]), &raw[n..n + 1]);
    if crc32c::unmask(stored) != actual {
        return Err(Error::corruption(format!(
            "block checksum mismatch at offset {}",
            handle.offset
        )));
    }
    Ok(raw.slice(0..n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::{Env, IoClass, MemEnv};

    #[test]
    fn write_read_roundtrip() {
        let env = MemEnv::new();
        let mut w = env.new_writable("f", IoClass::Flush).unwrap();
        let h1 = write_block(w.as_mut(), b"first block").unwrap();
        let h2 = write_block(w.as_mut(), b"second").unwrap();
        drop(w);
        let r = env.open_random_access("f", IoClass::FgIndexRead).unwrap();
        assert_eq!(&read_block(r.as_ref(), h1).unwrap()[..], b"first block");
        assert_eq!(&read_block(r.as_ref(), h2).unwrap()[..], b"second");
        assert_eq!(h2.offset, h1.size + BLOCK_TRAILER_LEN as u64);
    }

    #[test]
    fn corruption_detected() {
        let env = MemEnv::new();
        let mut w = env.new_writable("f", IoClass::Flush).unwrap();
        let h = write_block(w.as_mut(), b"data to protect").unwrap();
        drop(w);
        env.corrupt_byte("f", 3).unwrap();
        let r = env.open_random_access("f", IoClass::FgIndexRead).unwrap();
        let err = read_block(r.as_ref(), h).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");
    }

    #[test]
    fn corrupted_crc_itself_detected() {
        let env = MemEnv::new();
        let mut w = env.new_writable("f", IoClass::Flush).unwrap();
        let h = write_block(w.as_mut(), b"payload").unwrap();
        drop(w);
        env.corrupt_byte("f", h.size + 2).unwrap(); // inside the crc field
        let r = env.open_random_access("f", IoClass::FgIndexRead).unwrap();
        assert!(read_block(r.as_ref(), h).is_err());
    }

    #[test]
    fn empty_block_roundtrip() {
        let env = MemEnv::new();
        let mut w = env.new_writable("f", IoClass::Flush).unwrap();
        let h = write_block(w.as_mut(), b"").unwrap();
        drop(w);
        let r = env.open_random_access("f", IoClass::FgIndexRead).unwrap();
        assert_eq!(read_block(r.as_ref(), h).unwrap().len(), 0);
    }
}
