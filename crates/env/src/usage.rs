//! The one accounting wrapper a store directory gets: an [`Env`] that
//! keeps the directory's space ledger and its I/O ledger.
//!
//! * **Space** — the §III-D space throttle admits every write against the
//!   store's total on-disk footprint, and `stats().space` splits that
//!   footprint by file kind. Computing either with a directory walk is
//!   O(files) per call, and the file count grows with the store. A
//!   [`UsageEnv`] instead keeps books at the mutation points the trait
//!   already funnels through: file creation, appends, removal and rename
//!   each adjust a per-file size map and a running total, so
//!   [`SpaceTracker::total`] is a single atomic load and
//!   [`SpaceTracker::for_each`] hands out the map without touching the
//!   env.
//! * **I/O** — every read, append and sync through the wrapper is charged
//!   to its own [`IoStats`] (the inner env keeps counting too, so an
//!   env-global view stays intact), so a store's `stats().io` reports
//!   what *that directory* did — the attribution the metrics endpoint
//!   needs to tell a GC-heavy shard from an idle one.
//!
//! The space ledger is seeded with one walk at wrap time (reopen of an
//! existing store) and stays exact afterwards for everything written
//! *through* the wrapper — which is every file the engine creates,
//! including WAL segments retained for change-data-capture catch-up. An
//! `exclude` sub-prefix lets a sharded store's root wrapper skip the
//! member directories that carry their own wrappers.

use crate::io_stats::{IoClass, IoStats};
use crate::{Env, EnvRef, RandomAccessFile, WritableFile};
use bytes::Bytes;
use parking_lot::Mutex;
use scavenger_util::Result;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Live byte accounting for the files under one prefix. Shared between
/// the [`UsageEnv`] that maintains it and the engine that reads it on
/// every write admission and every `stats()` call.
pub struct SpaceTracker {
    prefix: String,
    exclude: Option<String>,
    total: AtomicU64,
    files: Mutex<HashMap<String, u64>>,
}

impl SpaceTracker {
    /// Current total bytes across tracked files — O(1), no directory
    /// walk.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Call `f` with the path and size of every tracked file (in no
    /// particular order), under the ledger's lock.
    pub fn for_each(&self, mut f: impl FnMut(&str, u64)) {
        for (path, &len) in self.files.lock().iter() {
            f(path, len);
        }
    }

    fn tracked(&self, path: &str) -> bool {
        path.starts_with(&self.prefix)
            && !self.exclude.as_ref().is_some_and(|e| path.starts_with(e))
    }

    fn set(&self, path: &str, len: u64) {
        let mut files = self.files.lock();
        let old = files.insert(path.to_string(), len).unwrap_or(0);
        if len >= old {
            self.total.fetch_add(len - old, Ordering::Relaxed);
        } else {
            self.total.fetch_sub(old - len, Ordering::Relaxed);
        }
    }

    fn add(&self, path: &str, delta: u64) {
        let mut files = self.files.lock();
        match files.get_mut(path) {
            Some(len) => *len += delta,
            None => {
                files.insert(path.to_string(), delta);
            }
        }
        self.total.fetch_add(delta, Ordering::Relaxed);
    }

    fn remove(&self, path: &str) {
        if let Some(old) = self.files.lock().remove(path) {
            self.total.fetch_sub(old, Ordering::Relaxed);
        }
    }

    fn rename(&self, from: &str, to: &str, to_tracked: bool) {
        let mut files = self.files.lock();
        let moved = files.remove(from);
        if let Some(len) = moved {
            if to_tracked {
                let old = files.insert(to.to_string(), len).unwrap_or(0);
                self.total.fetch_sub(old, Ordering::Relaxed);
            } else {
                self.total.fetch_sub(len, Ordering::Relaxed);
            }
        } else if to_tracked {
            // Renamed in from outside the tracked set: size unknown
            // until re-stated; record zero so removal stays balanced.
            let old = files.insert(to.to_string(), 0).unwrap_or(0);
            self.total.fetch_sub(old, Ordering::Relaxed);
        }
    }
}

/// An [`Env`] wrapper keeping a [`SpaceTracker`] for one prefix and
/// charging all I/O through it to a private [`IoStats`].
pub struct UsageEnv {
    inner: EnvRef,
    tracker: Arc<SpaceTracker>,
    stats: Arc<IoStats>,
}

impl UsageEnv {
    /// Wrap `inner`, tracking every file under `prefix` except those
    /// under `exclude`. Seeds the ledger with one directory walk (the
    /// last one the store will do outside its crash-leftover sweeps).
    pub fn wrap(
        inner: EnvRef,
        prefix: &str,
        exclude: Option<String>,
    ) -> Result<(EnvRef, Arc<SpaceTracker>)> {
        let tracker = Arc::new(SpaceTracker {
            prefix: prefix.to_string(),
            exclude,
            total: AtomicU64::new(0),
            files: Mutex::new(HashMap::new()),
        });
        for path in inner.list_prefix(prefix)? {
            if tracker.tracked(&path) {
                tracker.set(&path, inner.file_size(&path).unwrap_or(0));
            }
        }
        let env: EnvRef = Arc::new(UsageEnv {
            inner,
            tracker: tracker.clone(),
            stats: Arc::new(IoStats::new()),
        });
        Ok((env, tracker))
    }
}

struct LedgerWritable {
    inner: Box<dyn WritableFile>,
    stats: Arc<IoStats>,
    class: IoClass,
    /// The file's ledger entry; `None` outside the tracked prefix.
    tracked: Option<(Arc<SpaceTracker>, String)>,
}

impl WritableFile for LedgerWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.inner.append(data)?;
        self.stats.record_write(self.class, data.len() as u64);
        if let Some((tracker, path)) = &self.tracked {
            tracker.add(path, data.len() as u64);
        }
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

impl Env for UsageEnv {
    fn new_writable(&self, path: &str, class: IoClass) -> Result<Box<dyn WritableFile>> {
        let inner = self.inner.new_writable(path, class)?;
        let tracked = self.tracker.tracked(path).then(|| {
            // Creation truncates: any prior contents are gone.
            self.tracker.set(path, 0);
            (self.tracker.clone(), path.to_string())
        });
        Ok(Box::new(LedgerWritable {
            inner,
            stats: self.stats.clone(),
            class,
            tracked,
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
        self.inner.remove_file(path)?;
        if self.tracker.tracked(path) {
            self.tracker.remove(path);
        }
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)?;
        let from_tracked = self.tracker.tracked(from);
        let to_tracked = self.tracker.tracked(to);
        if from_tracked || to_tracked {
            self.tracker.rename(from, to, to_tracked);
            if to_tracked && !from_tracked {
                // Size unknown from bookkeeping alone; one stat call.
                let len = self.inner.file_size(to).unwrap_or(0);
                self.tracker.set(to, len);
            }
        }
        Ok(())
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

    fn write(env: &EnvRef, path: &str, n: usize) {
        let mut f = env.new_writable(path, IoClass::Flush).unwrap();
        f.append(&vec![7u8; n]).unwrap();
        f.sync().unwrap();
    }

    #[test]
    fn counter_tracks_create_append_remove_rename() {
        let base = MemEnv::shared();
        let (env, t) = UsageEnv::wrap(base.clone(), "db", None).unwrap();
        assert_eq!(t.total(), 0);

        write(&env, "db/000001.sst", 100);
        write(&env, "db/000002.log", 40);
        assert_eq!(t.total(), 140);
        assert_eq!(t.total(), env.total_file_bytes("db").unwrap());

        env.remove_file("db/000001.sst").unwrap();
        assert_eq!(t.total(), 40);

        write(&env, "db/MANIFEST-tmp", 9);
        env.rename("db/MANIFEST-tmp", "db/CURRENT").unwrap();
        assert_eq!(t.total(), 49);
        assert_eq!(t.total(), env.total_file_bytes("db").unwrap());

        // Recreating a file truncates: the old size must not leak.
        write(&env, "db/000002.log", 10);
        assert_eq!(t.total(), 19);
        assert_eq!(t.total(), env.total_file_bytes("db").unwrap());

        let mut files = Vec::new();
        t.for_each(|p, len| files.push((p.to_string(), len)));
        files.sort();
        assert_eq!(
            files,
            [("db/000002.log".to_string(), 10), ("db/CURRENT".into(), 9)]
        );
    }

    #[test]
    fn untracked_prefixes_pass_through() {
        let base = MemEnv::shared();
        let (env, t) = UsageEnv::wrap(base.clone(), "db", None).unwrap();
        write(&env, "elsewhere/file", 64);
        assert_eq!(t.total(), 0);
        assert_eq!(env.total_file_bytes("elsewhere").unwrap(), 64);
        // Its I/O is still this wrapper's.
        assert_eq!(
            env.io_stats().snapshot().class(IoClass::Flush).write_bytes,
            64
        );
    }

    #[test]
    fn wrap_seeds_from_existing_files() {
        let base = MemEnv::shared();
        {
            let e: EnvRef = base.clone();
            write(&e, "db/pre-existing", 77);
        }
        let (_env, t) = UsageEnv::wrap(base.clone(), "db", None).unwrap();
        assert_eq!(t.total(), 77);
    }

    #[test]
    fn exclusions_are_left_to_their_own_trackers() {
        let base = MemEnv::shared();
        {
            let e: EnvRef = base.clone();
            write(&e, "root/shard-000/f", 50);
            write(&e, "root/SHARDS", 8);
        }
        let (env, t) = UsageEnv::wrap(base.clone(), "root/", Some("root/shard-".into())).unwrap();
        assert_eq!(t.total(), 8);
        write(&env, "root/shard-001/g", 30);
        write(&env, "root/COORDLOG", 12);
        assert_eq!(t.total(), 20);
    }

    #[test]
    fn wrapper_attributes_io_without_hiding_global_counters() {
        let base = MemEnv::shared();
        let (a, _) = UsageEnv::wrap(base.clone(), "x/", None).unwrap();
        let (b, _) = UsageEnv::wrap(base.clone(), "y/", None).unwrap();

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
        assert_eq!(sa.class(IoClass::Wal).syncs, 1);
        assert_eq!(sb.class(IoClass::Wal).write_bytes, 40);
        assert_eq!(sb.class(IoClass::Wal).read_bytes, 0);
        // The inner env still sees everything.
        let global = base.io_stats().snapshot();
        assert_eq!(global.class(IoClass::Wal).write_bytes, 140);
        assert_eq!(global.class(IoClass::Wal).read_bytes, 100);
    }

    #[test]
    fn positional_reads_are_charged_to_the_opening_class() {
        let base = MemEnv::shared();
        let (env, _) = UsageEnv::wrap(base, "f/", None).unwrap();
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
        // A failed read is charged nothing.
        assert!(r.read_at(60, 8).is_err());
        assert_eq!(env.io_stats().snapshot().class(IoClass::GcRead).read_ops, 1);
    }
}
