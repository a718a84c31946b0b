//! In-memory environment with byte-accurate I/O accounting and fault hooks.
//!
//! `MemEnv` is the experimental substrate for every figure in the paper
//! reproduction: it is deterministic, fast, and counts exactly the bytes
//! each engine design moves. Fault-injection helpers (`truncate_file`,
//! `corrupt_byte`) support the crash-recovery and corruption tests.

use crate::io_stats::{IoClass, IoStats};
use crate::{Env, RandomAccessFile, WritableFile};
use bytes::Bytes;
use parking_lot::RwLock;
use scavenger_util::{Error, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Default)]
struct MemFile {
    data: RwLock<Vec<u8>>,
}

/// An in-memory filesystem. Paths are plain strings; directories are
/// implicit (any prefix works with [`Env::list_prefix`]).
pub struct MemEnv {
    files: RwLock<BTreeMap<String, Arc<MemFile>>>,
    stats: Arc<IoStats>,
}

impl Default for MemEnv {
    fn default() -> Self {
        Self::new()
    }
}

impl MemEnv {
    /// Create an empty in-memory filesystem.
    pub fn new() -> Self {
        MemEnv {
            files: RwLock::new(BTreeMap::new()),
            stats: Arc::new(IoStats::new()),
        }
    }

    /// Create an empty in-memory filesystem wrapped in an `Arc`.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    fn get(&self, path: &str) -> Result<Arc<MemFile>> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| Error::not_found(format!("mem file {path}")))
    }

    /// Fault injection: truncate a file to `len` bytes (simulates a torn
    /// write at crash time).
    pub fn truncate_file(&self, path: &str, len: u64) -> Result<()> {
        let f = self.get(path)?;
        let mut d = f.data.write();
        if (len as usize) < d.len() {
            d.truncate(len as usize);
        }
        Ok(())
    }

    /// Fault injection: flip one byte at `offset`.
    pub fn corrupt_byte(&self, path: &str, offset: u64) -> Result<()> {
        let f = self.get(path)?;
        let mut d = f.data.write();
        let i = offset as usize;
        if i >= d.len() {
            return Err(Error::invalid_argument("corrupt offset past end"));
        }
        d[i] ^= 0xff;
        Ok(())
    }
}

/// Write-buffer size: appends accumulate and are charged to the device in
/// buffer-sized operations, like an OS page cache in front of an SSD.
const WRITE_BUFFER: usize = 64 * 1024;

struct MemWritable {
    file: Arc<MemFile>,
    buf: Vec<u8>,
    stats: Arc<IoStats>,
    class: IoClass,
}

impl MemWritable {
    fn flush_buf(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.file.data.write().extend_from_slice(&self.buf);
        self.stats.record_write(self.class, self.buf.len() as u64);
        self.buf.clear();
    }
}

impl WritableFile for MemWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(data);
        if self.buf.len() >= WRITE_BUFFER {
            self.flush_buf();
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.flush_buf();
        self.stats.record_sync(self.class);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.file.data.read().len() as u64 + self.buf.len() as u64
    }
}

impl Drop for MemWritable {
    fn drop(&mut self) {
        self.flush_buf();
    }
}

struct MemReadable {
    file: Arc<MemFile>,
    stats: Arc<IoStats>,
    class: IoClass,
}

impl RandomAccessFile for MemReadable {
    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes> {
        let d = self.file.data.read();
        let start = offset as usize;
        let end = start
            .checked_add(len)
            .ok_or_else(|| Error::corruption("read range overflow"))?;
        if end > d.len() {
            return Err(Error::corruption(format!(
                "read past eof: {}..{} of {}",
                start,
                end,
                d.len()
            )));
        }
        self.stats.record_read(self.class, len as u64);
        Ok(Bytes::copy_from_slice(&d[start..end]))
    }

    fn len(&self) -> u64 {
        self.file.data.read().len() as u64
    }
}

impl Env for MemEnv {
    fn new_writable(&self, path: &str, class: IoClass) -> Result<Box<dyn WritableFile>> {
        let file = Arc::new(MemFile::default());
        self.files.write().insert(path.to_string(), file.clone());
        Ok(Box::new(MemWritable {
            file,
            buf: Vec::with_capacity(WRITE_BUFFER),
            stats: self.stats.clone(),
            class,
        }))
    }

    fn open_random_access(&self, path: &str, class: IoClass) -> Result<Arc<dyn RandomAccessFile>> {
        let file = self.get(path)?;
        Ok(Arc::new(MemReadable {
            file,
            stats: self.stats.clone(),
            class,
        }))
    }

    fn read_file(&self, path: &str, class: IoClass) -> Result<Bytes> {
        let f = self.get(path)?;
        let d = f.data.read();
        self.stats.record_read(class, d.len() as u64);
        Ok(Bytes::copy_from_slice(&d))
    }

    fn remove_file(&self, path: &str) -> Result<()> {
        self.files
            .write()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| Error::not_found(format!("remove {path}")))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut files = self.files.write();
        let f = files
            .remove(from)
            .ok_or_else(|| Error::not_found(format!("rename from {from}")))?;
        files.insert(to.to_string(), f);
        Ok(())
    }

    fn file_exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        Ok(self.get(path)?.data.read().len() as u64)
    }

    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>> {
        Ok(self
            .files
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn create_dir_all(&self, _path: &str) -> Result<()> {
        Ok(())
    }

    fn io_stats(&self) -> Arc<IoStats> {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn env() -> MemEnv {
        MemEnv::new()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_buffered_appends_preserve_content(
            chunks in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..40_000), 1..8),
        ) {
            let e = env();
            let mut w = e.new_writable("f", IoClass::Other).unwrap();
            let mut expected = Vec::new();
            for c in &chunks {
                w.append(c).unwrap();
                expected.extend_from_slice(c);
                prop_assert_eq!(w.len(), expected.len() as u64);
            }
            w.sync().unwrap();
            let got = e.read_file("f", IoClass::Other).unwrap();
            prop_assert_eq!(&got[..], expected.as_slice());
            // Reads at arbitrary offsets agree.
            if !expected.is_empty() {
                let r = e.open_random_access("f", IoClass::Other).unwrap();
                let mid = expected.len() / 2;
                let part = r.read_at(mid as u64, expected.len() - mid).unwrap();
                prop_assert_eq!(&part[..], &expected[mid..]);
            }
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let e = env();
        let mut w = e.new_writable("dir/a.sst", IoClass::Flush).unwrap();
        w.append(b"hello ").unwrap();
        w.append(b"world").unwrap();
        assert_eq!(w.len(), 11);
        drop(w);

        let r = e
            .open_random_access("dir/a.sst", IoClass::FgIndexRead)
            .unwrap();
        assert_eq!(r.len(), 11);
        assert_eq!(&r.read_at(0, 5).unwrap()[..], b"hello");
        assert_eq!(&r.read_at(6, 5).unwrap()[..], b"world");
    }

    #[test]
    fn read_past_eof_is_corruption() {
        let e = env();
        let mut w = e.new_writable("f", IoClass::Other).unwrap();
        w.append(b"abc").unwrap();
        let r = e.open_random_access("f", IoClass::Other).unwrap();
        assert!(r.read_at(1, 5).is_err());
        assert!(r.read_at(4, 1).is_err());
    }

    #[test]
    fn io_is_accounted_to_class() {
        let e = env();
        let mut w = e.new_writable("f", IoClass::GcWrite).unwrap();
        w.append(&[0u8; 128]).unwrap();
        w.sync().unwrap(); // flush the write buffer so the charge lands
        let r = e.open_random_access("f", IoClass::GcRead).unwrap();
        r.read_at(0, 64).unwrap();
        let snap = e.io_stats().snapshot();
        assert_eq!(snap.class(IoClass::GcWrite).write_bytes, 128);
        assert_eq!(snap.class(IoClass::GcRead).read_bytes, 64);
        assert_eq!(snap.class(IoClass::GcRead).read_ops, 1);
    }

    #[test]
    fn list_prefix_and_total_bytes() {
        let e = env();
        for (name, len) in [
            ("db/000001.sst", 10usize),
            ("db/000002.vsst", 20),
            ("other/x", 5),
        ] {
            let mut w = e.new_writable(name, IoClass::Other).unwrap();
            w.append(&vec![0u8; len]).unwrap();
        }
        let listed = e.list_prefix("db/").unwrap();
        assert_eq!(
            listed,
            vec!["db/000001.sst".to_string(), "db/000002.vsst".to_string()]
        );
        assert_eq!(e.total_file_bytes("db/").unwrap(), 30);
        assert_eq!(e.total_file_bytes("other/").unwrap(), 5);
    }

    #[test]
    fn rename_moves_file_atomically() {
        let e = env();
        let mut w = e.new_writable("tmp", IoClass::Manifest).unwrap();
        w.append(b"MANIFEST-1").unwrap();
        drop(w);
        e.rename("tmp", "CURRENT").unwrap();
        assert!(!e.file_exists("tmp"));
        assert_eq!(
            &e.read_file("CURRENT", IoClass::Manifest).unwrap()[..],
            b"MANIFEST-1"
        );
    }

    #[test]
    fn remove_missing_is_not_found() {
        let e = env();
        assert!(e.remove_file("nope").unwrap_err().is_not_found());
    }

    #[test]
    fn truncate_and_corrupt_faults() {
        let e = env();
        let mut w = e.new_writable("f", IoClass::Wal).unwrap();
        w.append(b"0123456789").unwrap();
        drop(w);
        e.truncate_file("f", 4).unwrap();
        assert_eq!(e.file_size("f").unwrap(), 4);
        e.corrupt_byte("f", 0).unwrap();
        let d = e.read_file("f", IoClass::Other).unwrap();
        assert_eq!(d[0], b'0' ^ 0xff);
        assert!(e.corrupt_byte("f", 100).is_err());
    }

    #[test]
    fn buffered_writes_charge_in_buffer_sized_ops() {
        let e = env();
        let mut w = e.new_writable("f", IoClass::Flush).unwrap();
        // 1000 tiny appends totalling ~195 KiB: expect ~3-4 device ops,
        // not 1000.
        for _ in 0..1000 {
            w.append(&[7u8; 200]).unwrap();
        }
        w.sync().unwrap();
        let snap = e.io_stats().snapshot();
        let c = snap.class(IoClass::Flush);
        assert_eq!(c.write_bytes, 200_000);
        assert!(c.write_ops <= 5, "ops {} should be buffered", c.write_ops);
    }

    #[test]
    fn overwrite_truncates_existing() {
        let e = env();
        let mut w = e.new_writable("f", IoClass::Other).unwrap();
        w.append(b"long content").unwrap();
        drop(w);
        let w2 = e.new_writable("f", IoClass::Other).unwrap();
        assert_eq!(w2.len(), 0);
    }
}
