//! Write-ahead log in the LevelDB 32 KiB-block record format.
//!
//! ```text
//! block   := record* (trailer of zeros if < 7 bytes remain)
//! record  := masked_crc32c(4) | length(2) | type(1) | payload
//! type    := FULL=1 | FIRST=2 | MIDDLE=3 | LAST=4
//! ```
//!
//! Records never span a block boundary unfragmented: large payloads are
//! split into FIRST/MIDDLE*/LAST fragments. The reader verifies CRCs and
//! treats a corrupt or truncated tail as a clean end-of-log (the standard
//! crash-tolerant behaviour), reporting how many bytes it dropped.
//!
//! The same format backs the manifest (version-edit log).

use bytes::Bytes;
use scavenger_env::WritableFile;
use scavenger_util::{crc32c, Result};

/// Log block size.
pub const BLOCK_SIZE: usize = 32 * 1024;
/// Per-record header: crc(4) + len(2) + type(1).
pub const HEADER_SIZE: usize = 7;

const FULL: u8 = 1;
const FIRST: u8 = 2;
const MIDDLE: u8 = 3;
const LAST: u8 = 4;

/// Appends records to a log file.
pub struct LogWriter {
    file: Box<dyn WritableFile>,
    block_offset: usize,
    /// Bytes were appended since the last successful sync.
    dirty: bool,
}

impl LogWriter {
    /// Wrap a writable file (assumed empty / fresh).
    pub fn new(file: Box<dyn WritableFile>) -> Self {
        LogWriter {
            file,
            block_offset: 0,
            dirty: false,
        }
    }

    /// Append one record, fragmenting across blocks as needed.
    pub fn add_record(&mut self, payload: &[u8]) -> Result<()> {
        self.dirty = true;
        let mut left = payload;
        let mut begin = true;
        loop {
            let leftover = BLOCK_SIZE - self.block_offset;
            if leftover < HEADER_SIZE {
                // Pad the tail of the block with zeros.
                if leftover > 0 {
                    self.file.append(&[0u8; HEADER_SIZE][..leftover])?;
                }
                self.block_offset = 0;
            }
            let avail = BLOCK_SIZE - self.block_offset - HEADER_SIZE;
            let fragment_len = left.len().min(avail);
            let end = fragment_len == left.len();
            let rtype = match (begin, end) {
                (true, true) => FULL,
                (true, false) => FIRST,
                (false, true) => LAST,
                (false, false) => MIDDLE,
            };
            self.emit(rtype, &left[..fragment_len])?;
            left = &left[fragment_len..];
            begin = false;
            if end {
                return Ok(());
            }
        }
    }

    fn emit(&mut self, rtype: u8, data: &[u8]) -> Result<()> {
        let mut header = [0u8; HEADER_SIZE];
        let crc = crc32c::extend(crc32c::value(&[rtype]), data);
        header[..4].copy_from_slice(&crc32c::mask(crc).to_le_bytes());
        header[4..6].copy_from_slice(&(data.len() as u16).to_le_bytes());
        header[6] = rtype;
        self.file.append(&header)?;
        self.file.append(data)?;
        self.block_offset += HEADER_SIZE + data.len();
        Ok(())
    }

    /// Durably sync the log. Free when nothing was appended since the
    /// last successful sync, so callers that need "everything so far is
    /// durable" (WAL close, the 2PC barrier) pay only for an unsynced tail.
    pub fn sync(&mut self) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        self.file.sync()?;
        self.dirty = false;
        Ok(())
    }

    /// Bytes written so far.
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.file.len() == 0
    }
}

/// Reads records back from log contents.
pub struct LogReader {
    data: Bytes,
    pos: usize,
    /// Bytes at the tail that could not be parsed (torn write at crash).
    pub dropped_bytes: usize,
    /// True if the log ended with a corrupt/truncated record.
    pub hit_corruption: bool,
}

impl LogReader {
    /// Wrap fully-read log contents.
    pub fn new(data: Bytes) -> Self {
        LogReader {
            data,
            pos: 0,
            dropped_bytes: 0,
            hit_corruption: false,
        }
    }

    /// Next record payload, or `None` at end of log. Corrupt tails end the
    /// log cleanly with `hit_corruption = true`.
    pub fn next_record(&mut self) -> Option<Vec<u8>> {
        let mut assembled: Option<Vec<u8>> = None;
        loop {
            match self.next_fragment() {
                Some((rtype, frag)) => match rtype {
                    FULL => {
                        if assembled.is_some() {
                            // FIRST without LAST followed by FULL: drop the
                            // partial record, return the full one.
                            self.hit_corruption = true;
                        }
                        return Some(frag);
                    }
                    FIRST => {
                        assembled = Some(frag);
                    }
                    MIDDLE => match assembled.as_mut() {
                        Some(a) => a.extend_from_slice(&frag),
                        None => {
                            self.hit_corruption = true;
                        }
                    },
                    LAST => match assembled.take() {
                        Some(mut a) => {
                            a.extend_from_slice(&frag);
                            return Some(a);
                        }
                        None => {
                            self.hit_corruption = true;
                        }
                    },
                    _ => {
                        self.hit_corruption = true;
                        return None;
                    }
                },
                None => {
                    if assembled.is_some() {
                        // Torn multi-fragment record at tail.
                        self.hit_corruption = true;
                    }
                    return None;
                }
            }
        }
    }

    fn next_fragment(&mut self) -> Option<(u8, Vec<u8>)> {
        let block_left = BLOCK_SIZE - (self.pos % BLOCK_SIZE);
        if block_left < HEADER_SIZE {
            self.pos += block_left; // skip trailer padding
        }
        if self.pos + HEADER_SIZE > self.data.len() {
            self.dropped_bytes += self.data.len().saturating_sub(self.pos);
            return None;
        }
        let h = &self.data[self.pos..self.pos + HEADER_SIZE];
        let stored_crc = u32::from_le_bytes(h[..4].try_into().unwrap());
        let len = u16::from_le_bytes(h[4..6].try_into().unwrap()) as usize;
        let rtype = h[6];
        if rtype == 0 && len == 0 && stored_crc == 0 {
            // Zero padding (pre-allocated tail); end of log.
            self.dropped_bytes += self.data.len() - self.pos;
            return None;
        }
        let start = self.pos + HEADER_SIZE;
        if start + len > self.data.len() {
            self.dropped_bytes += self.data.len() - self.pos;
            self.hit_corruption = true;
            return None;
        }
        let payload = &self.data[start..start + len];
        let actual = crc32c::extend(crc32c::value(&[rtype]), payload);
        if crc32c::unmask(stored_crc) != actual {
            self.dropped_bytes += self.data.len() - self.pos;
            self.hit_corruption = true;
            return None;
        }
        self.pos = start + len;
        Some((rtype, payload.to_vec()))
    }
}

/// Read every intact record from raw log bytes.
pub fn read_all_records(data: Bytes) -> (Vec<Vec<u8>>, bool) {
    let mut reader = LogReader::new(data);
    let mut out = Vec::new();
    while let Some(r) = reader.next_record() {
        out.push(r);
    }
    (out, reader.hit_corruption)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::{Env, IoClass, MemEnv};

    fn write_log(env: &MemEnv, path: &str, records: &[Vec<u8>]) {
        let f = env.new_writable(path, IoClass::Wal).unwrap();
        let mut w = LogWriter::new(f);
        for r in records {
            w.add_record(r).unwrap();
        }
        w.sync().unwrap();
    }

    fn read_log(env: &MemEnv, path: &str) -> (Vec<Vec<u8>>, bool) {
        read_all_records(env.read_file(path, IoClass::Wal).unwrap())
    }

    #[test]
    fn small_records_roundtrip() {
        let env = MemEnv::new();
        let records: Vec<Vec<u8>> = (0..100)
            .map(|i| format!("record-{i}").into_bytes())
            .collect();
        write_log(&env, "wal", &records);
        let (got, corrupt) = read_log(&env, "wal");
        assert!(!corrupt);
        assert_eq!(got, records);
    }

    #[test]
    fn large_records_fragment_across_blocks() {
        let env = MemEnv::new();
        let records = vec![
            vec![1u8; BLOCK_SIZE * 3 + 123], // FIRST/MIDDLE/MIDDLE/LAST
            vec![2u8; 10],
            vec![3u8; BLOCK_SIZE - HEADER_SIZE], // exactly one block
        ];
        write_log(&env, "wal", &records);
        let (got, corrupt) = read_log(&env, "wal");
        assert!(!corrupt);
        assert_eq!(got.len(), 3);
        assert_eq!(got, records);
    }

    #[test]
    fn empty_record_roundtrip() {
        let env = MemEnv::new();
        write_log(&env, "wal", &[vec![], b"after".to_vec()]);
        let (got, corrupt) = read_log(&env, "wal");
        assert!(!corrupt);
        assert_eq!(got, vec![Vec::<u8>::new(), b"after".to_vec()]);
    }

    #[test]
    fn torn_tail_returns_prefix() {
        let env = MemEnv::new();
        let records: Vec<Vec<u8>> = (0..50).map(|i| vec![i as u8; 200]).collect();
        write_log(&env, "wal", &records);
        let full_len = env.file_size("wal").unwrap();
        // Truncate in the middle of the last record.
        env.truncate_file("wal", full_len - 50).unwrap();
        let (got, corrupt) = read_log(&env, "wal");
        assert!(corrupt);
        assert_eq!(got.len(), 49, "all but the torn record survive");
        assert_eq!(got, records[..49].to_vec());
    }

    #[test]
    fn corrupt_middle_stops_cleanly() {
        let env = MemEnv::new();
        let records: Vec<Vec<u8>> = (0..20).map(|i| vec![i as u8; 100]).collect();
        write_log(&env, "wal", &records);
        // Corrupt record ~10's payload.
        env.corrupt_byte("wal", 10 * 107 + 20).unwrap();
        let (got, corrupt) = read_log(&env, "wal");
        assert!(corrupt);
        assert!(got.len() < 20);
        // Every returned record is intact.
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r, &records[i]);
        }
    }

    #[test]
    fn block_boundary_padding() {
        // A record that leaves < HEADER_SIZE bytes in the block forces
        // padding; the next record must still parse.
        let env = MemEnv::new();
        let first_len = BLOCK_SIZE - HEADER_SIZE - HEADER_SIZE - 3; // leaves 3 bytes
        let records = vec![vec![7u8; first_len], b"next".to_vec()];
        write_log(&env, "wal", &records);
        let (got, corrupt) = read_log(&env, "wal");
        assert!(!corrupt);
        assert_eq!(got, records);
    }

    #[test]
    fn empty_log_reads_empty() {
        let env = MemEnv::new();
        write_log(&env, "wal", &[]);
        let (got, corrupt) = read_log(&env, "wal");
        assert!(!corrupt);
        assert!(got.is_empty());
    }
}
