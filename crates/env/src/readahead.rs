//! Device-sized reads for a one-shot sequential scan of a finished file.
//!
//! A table reader fetches block by block — a few KiB per `read_at` — and
//! opens a table with half a dozen small reads of its tail. For a reader
//! that will walk the whole file once and forward (a compaction input)
//! that is one device op per block. [`ReadaheadFile`] sits between such a
//! reader and the file and turns the same calls into:
//!
//! * **one tail read** when the file is opened — footer, metaindex,
//!   filters and indexes are all served out of it (a file no longer than
//!   one span is read whole);
//! * **forward read-ahead** in spans of a fixed size over the part before
//!   the tail. The window keeps the previous span next to the current one,
//!   so two cursors walking the file a little apart (a DTable's KV and KF
//!   streams) do not evict each other's blocks at a span edge, and no byte
//!   is read from the device twice.
//!
//! The wrapper hands out the same bytes the file would — callers verify
//! block checksums exactly as before, now out of the buffer. A read the
//! window cannot serve (behind it, or larger than it) goes to the file
//! directly, which is what every read did without the wrapper.

use crate::RandomAccessFile;
use bytes::Bytes;
use parking_lot::Mutex;
use scavenger_util::{Error, Result};
use std::sync::Arc;

/// Smallest tail read of a file longer than one span.
const MIN_TAIL_READ: u64 = 16 * 1024;

/// A table's tail (filters at 10 bits per key, one index entry per block)
/// is a few percent of it; the tail read takes this fraction of the file.
const TAIL_DIVISOR: u64 = 16;

/// A buffered byte range of the file: `(offset, bytes)`.
type Piece = (u64, Bytes);

/// A [`RandomAccessFile`] read in device-sized ops by a forward scan.
pub struct ReadaheadFile {
    inner: Arc<dyn RandomAccessFile>,
    len: u64,
    span: u64,
    /// The file's last bytes, read once by [`open`](ReadaheadFile::open).
    tail: Piece,
    /// The previous and the current span of the part before the tail:
    /// ascending and contiguous.
    window: Mutex<[Piece; 2]>,
}

impl ReadaheadFile {
    /// Wrap `inner`, reading its tail now and the rest on demand in
    /// forward spans of `span` bytes ([`READ_SIZE`](crate::READ_SIZE)'s
    /// span outside tests).
    pub fn open(inner: Arc<dyn RandomAccessFile>, span: u64) -> Result<ReadaheadFile> {
        let len = inner.len();
        let span = span.max(1);
        let tail_len = if len <= span {
            len
        } else {
            (len / TAIL_DIVISOR).max(MIN_TAIL_READ).min(len)
        };
        let tail_off = len - tail_len;
        let tail = inner.read_at(tail_off, tail_len as usize)?;
        Ok(ReadaheadFile {
            inner,
            len,
            span,
            tail: (tail_off, tail),
            window: Mutex::new([(0, Bytes::new()), (0, Bytes::new())]),
        })
    }
}

/// `[off, off + n)` out of ascending `pieces`, if they cover it without a
/// gap: a zero-copy slice when one piece holds it all.
fn serve(pieces: [&Piece; 3], off: u64, n: usize) -> Option<Bytes> {
    let end = off + n as u64;
    let mut at = off;
    let mut joined = Vec::new();
    for (start, buf) in pieces {
        let piece_end = start + buf.len() as u64;
        if at < *start || at >= piece_end {
            continue;
        }
        let from = (at - start) as usize;
        let to = (end.min(piece_end) - start) as usize;
        if at == off && end <= piece_end {
            return Some(buf.slice(from..to));
        }
        joined.extend_from_slice(&buf[from..to]);
        at = start + to as u64;
    }
    (at == end).then(|| Bytes::from(joined))
}

impl RandomAccessFile for ReadaheadFile {
    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes> {
        let end = offset
            .checked_add(len as u64)
            .filter(|&e| e <= self.len)
            .ok_or_else(|| Error::corruption("read past eof"))?;
        if len == 0 {
            return Ok(Bytes::new());
        }
        let mut w = self.window.lock();
        if let Some(b) = serve([&w[0], &w[1], &self.tail], offset, len) {
            return Ok(b);
        }
        if offset >= w[0].0 {
            // Ahead of the window: slide it one span forward from where
            // it ends, or restart it at `offset` when that would leave a
            // gap. Either way it stops where the tail begins.
            let buffered_end = w[1].0 + w[1].1.len() as u64;
            let from = if offset < buffered_end + self.span {
                buffered_end
            } else {
                offset
            };
            let upto = (from + self.span).max(end).min(self.tail.0);
            if upto > from {
                let next = self.inner.read_at(from, (upto - from) as usize)?;
                let prev = if from == buffered_end {
                    w[1].clone()
                } else {
                    (from, Bytes::new())
                };
                *w = [prev, (from, next)];
                if let Some(b) = serve([&w[0], &w[1], &self.tail], offset, len) {
                    return Ok(b);
                }
            }
        }
        drop(w);
        self.inner.read_at(offset, len)
    }

    fn len(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Env, FaultEnv, FaultOp, FaultRule, IoClass, MemEnv};

    const SPAN: usize = 4096;

    fn file_of(env: &dyn Env, len: usize) -> Vec<u8> {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let mut w = env.new_writable("f", IoClass::Flush).unwrap();
        w.append(&data).unwrap();
        data
    }

    fn open(env: &dyn Env) -> ReadaheadFile {
        let f = env.open_random_access("f", IoClass::Compaction).unwrap();
        ReadaheadFile::open(f, SPAN as u64).unwrap()
    }

    fn reads(env: &MemEnv) -> (u64, u64) {
        let c = env.io_stats().snapshot().class(IoClass::Compaction);
        (c.read_ops, c.read_bytes)
    }

    #[test]
    fn forward_scan_reads_every_byte_once_in_spans() {
        let env = MemEnv::new();
        let len = 100_000;
        let data = file_of(&env, len);
        let f = open(&env);
        let tail = MIN_TAIL_READ as usize;
        // Open-time reads come out of the tail, back to front.
        assert_eq!(
            &f.read_at(len as u64 - 48, 48).unwrap()[..],
            &data[len - 48..]
        );
        assert_eq!(
            &f.read_at(len as u64 - 900, 700).unwrap()[..],
            &data[len - 900..len - 200]
        );
        assert_eq!(reads(&env), (1, tail as u64));
        // Then the scan: small reads, none aligned to a span or to the
        // tail's first byte.
        let mut off = 0;
        while off < len {
            let n = 300.min(len - off);
            assert_eq!(&f.read_at(off as u64, n).unwrap()[..], &data[off..off + n]);
            off += n;
        }
        let spans = (len - tail).div_ceil(SPAN) as u64;
        assert_eq!(reads(&env), (1 + spans, len as u64));
    }

    #[test]
    fn a_file_within_one_span_is_one_read() {
        let env = MemEnv::new();
        let data = file_of(&env, SPAN - 10);
        let f = open(&env);
        assert_eq!(&f.read_at(0, 100).unwrap()[..], &data[..100]);
        assert_eq!(&f.read_at(2000, 500).unwrap()[..], &data[2000..2500]);
        assert_eq!(reads(&env), (1, SPAN as u64 - 10));
        assert!(f.read_at(SPAN as u64 - 20, 11).is_err(), "past eof");
    }

    /// Two cursors a little apart — a DTable's streams — cross span edges
    /// without evicting each other: the window keeps the previous span.
    #[test]
    fn two_cursors_share_the_window() {
        let env = MemEnv::new();
        let len = 200_000;
        let data = file_of(&env, len);
        let f = open(&env);
        let body = len - (len / TAIL_DIVISOR as usize).max(MIN_TAIL_READ as usize);
        let lag = SPAN * 3 / 4;
        let mut lead = lag;
        while lead + 64 <= body {
            assert_eq!(
                &f.read_at(lead as u64, 64).unwrap()[..],
                &data[lead..lead + 64]
            );
            let behind = lead - lag;
            assert_eq!(
                &f.read_at(behind as u64, 64).unwrap()[..],
                &data[behind..behind + 64]
            );
            lead += 64;
        }
        let (ops, bytes) = reads(&env);
        assert!(ops <= 1 + body.div_ceil(SPAN) as u64, "{ops} reads");
        assert!(bytes <= len as u64, "{bytes} bytes");
    }

    #[test]
    fn a_read_behind_the_window_goes_to_the_file() {
        let env = MemEnv::new();
        let data = file_of(&env, 100_000);
        let f = open(&env);
        f.read_at(50_000, 10).unwrap();
        let before = reads(&env);
        assert_eq!(&f.read_at(1_000, 10).unwrap()[..], &data[1_000..1_010]);
        assert_eq!(reads(&env), (before.0 + 1, before.1 + 10));
        // The window did not move.
        f.read_at(50_100, 10).unwrap();
        assert_eq!(reads(&env).0, before.0 + 1);
    }

    #[test]
    fn a_failed_span_read_is_the_callers_error() {
        let mem = MemEnv::shared();
        file_of(mem.as_ref(), 100_000);
        let env = FaultEnv::wrap(mem, 1);
        let f = open(env.as_ref());
        env.add_rule(FaultRule::fail(FaultOp::Read));
        assert!(f.read_at(0, 100).is_err());
        env.clear_rules();
        assert_eq!(f.read_at(0, 100).unwrap().len(), 100);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn prop_any_read_returns_the_files_bytes(
            len in 1usize..60_000,
            reads in proptest::collection::vec((0usize..60_000, 1usize..9_000), 1..40),
        ) {
            let env = MemEnv::new();
            let data = file_of(&env, len);
            let f = open(&env);
            for (off, n) in reads {
                let off = off % len;
                let n = n.min(len - off);
                let got = f.read_at(off as u64, n).unwrap();
                proptest::prop_assert_eq!(&got[..], &data[off..off + n]);
            }
        }
    }
}
