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

/// Append a block (`payload ++ trailer`) to `file` in one write, sealing
/// it in place: the trailer is pushed onto `payload`'s own buffer, so the
/// payload is not copied on its way to the file. Returns the block's
/// handle and the payload, trailer taken off again, for a caller that
/// keeps it.
pub fn write_block(
    file: &mut dyn WritableFile,
    mut payload: Vec<u8>,
) -> Result<(BlockHandle, Vec<u8>)> {
    let n = payload.len();
    let handle = BlockHandle::new(file.len(), n as u64);
    let crc = crc32c::extend(crc32c::value(&payload), &[BLOCK_TYPE_RAW]);
    payload.reserve_exact(BLOCK_TRAILER_LEN);
    payload.push(BLOCK_TYPE_RAW);
    payload.extend_from_slice(&crc32c::mask(crc).to_le_bytes());
    file.append(&payload)?;
    payload.truncate(n);
    Ok((handle, payload))
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
        let (h1, p1) = write_block(w.as_mut(), b"first block".to_vec()).unwrap();
        let (h2, _) = write_block(w.as_mut(), b"second".to_vec()).unwrap();
        assert_eq!(p1, b"first block");
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
        let h = write_block(w.as_mut(), b"data to protect".to_vec())
            .unwrap()
            .0;
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
        let h = write_block(w.as_mut(), b"payload".to_vec()).unwrap().0;
        drop(w);
        env.corrupt_byte("f", h.size + 2).unwrap(); // inside the crc field
        let r = env.open_random_access("f", IoClass::FgIndexRead).unwrap();
        assert!(read_block(r.as_ref(), h).is_err());
    }

    #[test]
    fn empty_block_roundtrip() {
        let env = MemEnv::new();
        let mut w = env.new_writable("f", IoClass::Flush).unwrap();
        let h = write_block(w.as_mut(), Vec::new()).unwrap().0;
        drop(w);
        let r = env.open_random_access("f", IoClass::FgIndexRead).unwrap();
        assert_eq!(read_block(r.as_ref(), h).unwrap().len(), 0);
    }
}
