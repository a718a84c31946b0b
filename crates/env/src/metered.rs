//! Per-handle I/O attribution: a transparent [`Env`] wrapper with its
//! own counters.
//!
//! A [`MeteredEnv`] delegates every operation to an inner env but
//! charges all bytes/ops flowing through it to a **private**
//! [`IoStats`] instance (the inner env keeps counting too, so an
//! env-global view stays intact). A sharded `scavenger::Db` opens each
//! shard under one of these so `stats().io` reports what *that shard*
//! did instead of the env-global snapshot — the attribution the metrics
//! endpoint needs to tell a GC-heavy shard from an idle one.

use crate::io_stats::{IoClass, IoStats};
use crate::{Env, EnvRef, RandomAccessFile, WritableFile};
use bytes::Bytes;
use scavenger_util::Result;
use std::sync::Arc;

/// An [`Env`] wrapper that additionally charges all I/O through it to
/// its own private [`IoStats`].
pub struct MeteredEnv {
    inner: EnvRef,
    stats: Arc<IoStats>,
}

impl MeteredEnv {
    /// Wrap `inner`, charging I/O through the returned env to a fresh
    /// private counter set (plus whatever the inner env records itself).
    pub fn new(inner: EnvRef) -> MeteredEnv {
        MeteredEnv {
            inner,
            stats: Arc::new(IoStats::new()),
        }
    }

    /// The wrapped env.
    pub fn inner(&self) -> &EnvRef {
        &self.inner
    }
}

struct MeteredWritable {
    inner: Box<dyn WritableFile>,
    stats: Arc<IoStats>,
    class: IoClass,
}

impl WritableFile for MeteredWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.inner.append(data)?;
        self.stats.record_write(self.class, data.len() as u64);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()?;
        self.stats.record_sync(self.class);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct MeteredReadable {
    inner: Arc<dyn RandomAccessFile>,
    stats: Arc<IoStats>,
    class: IoClass,
}

impl RandomAccessFile for MeteredReadable {
    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes> {
        let data = self.inner.read_at(offset, len)?;
        self.stats.record_read(self.class, data.len() as u64);
        Ok(data)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Env for MeteredEnv {
    fn new_writable(&self, path: &str, class: IoClass) -> Result<Box<dyn WritableFile>> {
        Ok(Box::new(MeteredWritable {
            inner: self.inner.new_writable(path, class)?,
            stats: self.stats.clone(),
            class,
        }))
    }

    fn open_random_access(&self, path: &str, class: IoClass) -> Result<Arc<dyn RandomAccessFile>> {
        Ok(Arc::new(MeteredReadable {
            inner: self.inner.open_random_access(path, class)?,
            stats: self.stats.clone(),
            class,
        }))
    }

    fn read_file(&self, path: &str, class: IoClass) -> Result<Bytes> {
        let data = self.inner.read_file(path, class)?;
        self.stats.record_read(class, data.len() as u64);
        Ok(data)
    }

    fn remove_file(&self, path: &str) -> Result<()> {
        self.inner.remove_file(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }

    fn file_exists(&self, path: &str) -> bool {
        self.inner.file_exists(path)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        self.inner.file_size(path)
    }

    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list_prefix(prefix)
    }

    fn create_dir_all(&self, path: &str) -> Result<()> {
        self.inner.create_dir_all(path)
    }

    /// The **private** counters: only I/O performed through this
    /// wrapper, not the env-global totals of the wrapped env.
    fn io_stats(&self) -> Arc<IoStats> {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemEnv;

    #[test]
    fn wrapper_attributes_io_without_hiding_global_counters() {
        let base = MemEnv::shared();
        let a: EnvRef = Arc::new(MeteredEnv::new(base.clone()));
        let b: EnvRef = Arc::new(MeteredEnv::new(base.clone()));

        {
            let mut f = a.new_writable("x/wal-1", IoClass::Wal).unwrap();
            f.append(&[0u8; 100]).unwrap();
            f.sync().unwrap();
        }
        {
            let mut f = b.new_writable("y/wal-1", IoClass::Wal).unwrap();
            f.append(&[0u8; 40]).unwrap();
        }
        let _ = a.read_file("x/wal-1", IoClass::Wal).unwrap();

        let sa = a.io_stats().snapshot();
        let sb = b.io_stats().snapshot();
        assert_eq!(sa.class(IoClass::Wal).write_bytes, 100);
        assert_eq!(sa.class(IoClass::Wal).read_bytes, 100);
        assert_eq!(sb.class(IoClass::Wal).write_bytes, 40);
        assert_eq!(sb.class(IoClass::Wal).read_bytes, 0);
        // The inner env still sees everything.
        let global = base.io_stats().snapshot();
        assert_eq!(global.class(IoClass::Wal).write_bytes, 140);
    }

    #[test]
    fn positional_reads_are_charged_to_the_opening_class() {
        let base = MemEnv::shared();
        let env: EnvRef = Arc::new(MeteredEnv::new(base));
        {
            let mut f = env.new_writable("f/v-1", IoClass::GcWrite).unwrap();
            f.append(&[7u8; 64]).unwrap();
        }
        let r = env.open_random_access("f/v-1", IoClass::GcRead).unwrap();
        let got = r.read_at(16, 32).unwrap();
        assert_eq!(got.len(), 32);
        assert_eq!(r.len(), 64);
        let s = env.io_stats().snapshot();
        assert_eq!(s.class(IoClass::GcRead).read_bytes, 32);
        assert_eq!(s.class(IoClass::GcRead).read_ops, 1);
        assert_eq!(s.class(IoClass::GcWrite).write_bytes, 64);
    }
}
