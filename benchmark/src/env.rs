//! The benchmark's device: `TraceEnv(SimDiskEnv(MemEnv))`.
//!
//! [`SimDiskEnv`] is the stated flush policy — identical on both sides of
//! any comparison. Appends and reads go straight to `MemEnv`, whose
//! `IoStats` count every byte and op exactly; `sync()` is counted and then
//! blocks in a 100 µs sleep (no CPU burned, ±3 % run to run, where real
//! fsync on the sandbox's disk wandered ±35 %). [`device_seconds`] prices a
//! phase's counters with constants that live here and nowhere else.
//!
//! [`TraceEnv`] is only there in a traced run: it times every file call,
//! hands the span to [`crate::trace`], and keeps per-`IoClass` totals.

use crate::trace;
use bytes::Bytes;
use scavenger_env::io_stats::NUM_IO_CLASSES;
use scavenger_env::{
    Env, EnvRef, IoClass, IoStats, IoStatsSnapshot, RandomAccessFile, WritableFile,
};
use scavenger_util::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long one `sync()` blocks.
pub const SYNC_SLEEP: Duration = Duration::from_micros(100);

// Device model of `device_seconds`.
const READ_OP_S: f64 = 80e-6;
const READ_BYTES_PER_S: f64 = 3e9;
const WRITE_OP_S: f64 = 20e-6;
const WRITE_BYTES_PER_S: f64 = 2e9;
const SYNC_S: f64 = 100e-6;

/// Seconds the modelled device would need for `io` plus `syncs` flushes:
/// 80 µs + bytes/3 GB/s per read op, 20 µs + bytes/2 GB/s per write op,
/// 100 µs per sync. An exact function of exact counts.
pub fn device_seconds(io: &IoStatsSnapshot, syncs: u64) -> f64 {
    io.total_read_ops() as f64 * READ_OP_S
        + io.total_read_bytes() as f64 / READ_BYTES_PER_S
        + io.total_write_ops() as f64 * WRITE_OP_S
        + io.total_write_bytes() as f64 / WRITE_BYTES_PER_S
        + syncs as f64 * SYNC_S
}

type ClassCounters = [AtomicU64; NUM_IO_CLASSES];

fn load_all(c: &ClassCounters) -> [u64; NUM_IO_CLASSES] {
    std::array::from_fn(|i| c[i].load(Ordering::Relaxed))
}

/// `MemEnv` plus a sync that costs something.
pub struct SimDiskEnv {
    inner: EnvRef,
    syncs: Arc<ClassCounters>,
    sync_sleep: Duration,
}

impl SimDiskEnv {
    pub fn new(inner: EnvRef) -> Arc<SimDiskEnv> {
        SimDiskEnv::with_sync_sleep(inner, SYNC_SLEEP)
    }

    pub fn with_sync_sleep(inner: EnvRef, sync_sleep: Duration) -> Arc<SimDiskEnv> {
        Arc::new(SimDiskEnv {
            inner,
            syncs: Arc::default(),
            sync_sleep,
        })
    }

    /// `sync()` calls so far, indexed by `IoClass as usize`.
    pub fn syncs_by_class(&self) -> [u64; NUM_IO_CLASSES] {
        load_all(&self.syncs)
    }
}

struct SimWritable {
    inner: Box<dyn WritableFile>,
    syncs: Arc<ClassCounters>,
    class: IoClass,
    sync_sleep: Duration,
}

impl WritableFile for SimWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.inner.append(data)
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()?;
        self.syncs[self.class as usize].fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(self.sync_sleep);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

/// Every `Env` method but `new_writable` forwards unchanged; the two
/// wrappers differ only in how they wrap files.
macro_rules! forward_env {
    () => {
        fn read_file(&self, path: &str, class: IoClass) -> Result<Bytes> {
            self.inner.read_file(path, class)
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
        fn io_stats(&self) -> Arc<IoStats> {
            self.inner.io_stats()
        }
        fn total_file_bytes(&self, prefix: &str) -> Result<u64> {
            self.inner.total_file_bytes(prefix)
        }
    };
}

impl Env for SimDiskEnv {
    fn new_writable(&self, path: &str, class: IoClass) -> Result<Box<dyn WritableFile>> {
        Ok(Box::new(SimWritable {
            inner: self.inner.new_writable(path, class)?,
            syncs: self.syncs.clone(),
            class,
            sync_sleep: self.sync_sleep,
        }))
    }

    fn open_random_access(&self, path: &str, class: IoClass) -> Result<Arc<dyn RandomAccessFile>> {
        self.inner.open_random_access(path, class)
    }

    fn remove_file(&self, path: &str) -> Result<()> {
        self.inner.remove_file(path)
    }

    forward_env!();
}

/// Counters of one kind of file call, indexed by `IoClass as usize`.
/// Successful calls and their bytes are counted always (two relaxed adds);
/// a call is timed only while tracing is enabled.
#[derive(Default)]
struct CallCounters {
    calls: ClassCounters,
    bytes: ClassCounters,
    timed_calls: ClassCounters,
    timed_ns: ClassCounters,
}

/// A point-in-time copy of [`CallCounters`].
#[derive(Default, Clone, Copy, Debug, PartialEq)]
pub struct CallTotals {
    pub calls: [u64; NUM_IO_CLASSES],
    pub bytes: [u64; NUM_IO_CLASSES],
    pub timed_calls: [u64; NUM_IO_CLASSES],
    pub timed_ns: [u64; NUM_IO_CLASSES],
}

impl CallCounters {
    fn totals(&self) -> CallTotals {
        CallTotals {
            calls: load_all(&self.calls),
            bytes: load_all(&self.bytes),
            timed_calls: load_all(&self.timed_calls),
            timed_ns: load_all(&self.timed_ns),
        }
    }
}

impl CallTotals {
    fn delta(&self, earlier: &CallTotals) -> CallTotals {
        let sub = |a: &[u64; NUM_IO_CLASSES], b: &[u64; NUM_IO_CLASSES]| {
            std::array::from_fn(|i| a[i] - b[i])
        };
        CallTotals {
            calls: sub(&self.calls, &earlier.calls),
            bytes: sub(&self.bytes, &earlier.bytes),
            timed_calls: sub(&self.timed_calls, &earlier.timed_calls),
            timed_ns: sub(&self.timed_ns, &earlier.timed_ns),
        }
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Mean ns of a timed call of `classes` (all classes when empty).
    pub fn mean_ns(&self, classes: &[IoClass]) -> f64 {
        let pick = |a: &[u64; NUM_IO_CLASSES]| -> u64 {
            if classes.is_empty() {
                a.iter().sum()
            } else {
                classes.iter().map(|&c| a[c as usize]).sum()
            }
        };
        pick(&self.timed_ns) as f64 / pick(&self.timed_calls).max(1) as f64
    }

    /// Time in all calls of `classes`, estimated as the exact call count
    /// times the mean of the timed ones: a traced run times only every
    /// other slice, so that the same run also gives the untraced rate.
    pub fn estimated_ms(&self, classes: &[IoClass]) -> f64 {
        let calls: u64 = if classes.is_empty() {
            self.total_calls()
        } else {
            classes.iter().map(|&c| self.calls[c as usize]).sum()
        };
        calls as f64 * self.mean_ns(classes) / 1e6
    }
}

#[derive(Default)]
struct TraceCounters {
    append: CallCounters,
    read: CallCounters,
    sync: CallCounters,
    files_created: AtomicU64,
    files_removed: AtomicU64,
}

/// A point-in-time copy of a [`TraceEnv`]'s totals.
#[derive(Default, Clone, Copy, Debug, PartialEq)]
pub struct TraceTotals {
    pub append: CallTotals,
    pub read: CallTotals,
    pub sync: CallTotals,
    pub files_created: u64,
    pub files_removed: u64,
}

impl TraceTotals {
    pub fn delta(&self, earlier: &TraceTotals) -> TraceTotals {
        TraceTotals {
            append: self.append.delta(&earlier.append),
            read: self.read.delta(&earlier.read),
            sync: self.sync.delta(&earlier.sync),
            files_created: self.files_created - earlier.files_created,
            files_removed: self.files_removed - earlier.files_removed,
        }
    }
}

/// Counts and (while tracing is enabled) times every file call of the env
/// under it.
pub struct TraceEnv {
    inner: EnvRef,
    counters: Arc<TraceCounters>,
}

impl TraceEnv {
    pub fn new(inner: EnvRef) -> Arc<TraceEnv> {
        Arc::new(TraceEnv {
            inner,
            counters: Arc::default(),
        })
    }

    pub fn totals(&self) -> TraceTotals {
        let c = &self.counters;
        TraceTotals {
            append: c.append.totals(),
            read: c.read.totals(),
            sync: c.sync.totals(),
            files_created: c.files_created.load(Ordering::Relaxed),
            files_removed: c.files_removed.load(Ordering::Relaxed),
        }
    }
}

/// Run `call`, which reports the bytes it moved; count it, and when tracing
/// is on also time it and emit the env span.
fn counted<T>(
    kind: &'static str,
    class: IoClass,
    c: &CallCounters,
    call: impl FnOnce() -> Result<(T, u64)>,
) -> Result<T> {
    let tracing = trace::enabled();
    let t0 = if tracing { trace::now_ns() } else { 0 };
    let out = call();
    let i = class as usize;
    if let Ok((_, n)) = &out {
        c.calls[i].fetch_add(1, Ordering::Relaxed);
        c.bytes[i].fetch_add(*n, Ordering::Relaxed);
    }
    if tracing {
        let t1 = trace::now_ns();
        c.timed_calls[i].fetch_add(1, Ordering::Relaxed);
        c.timed_ns[i].fetch_add(t1 - t0, Ordering::Relaxed);
        trace::env_span(kind, class, t0, t1);
    }
    out.map(|(v, _)| v)
}

struct TraceWritable {
    inner: Box<dyn WritableFile>,
    counters: Arc<TraceCounters>,
    class: IoClass,
}

impl WritableFile for TraceWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let inner = &mut self.inner;
        counted("append", self.class, &self.counters.append, || {
            inner.append(data).map(|()| ((), data.len() as u64))
        })
    }

    fn sync(&mut self) -> Result<()> {
        let inner = &mut self.inner;
        counted("sync", self.class, &self.counters.sync, || {
            inner.sync().map(|()| ((), 0))
        })
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct TraceReadable {
    inner: Arc<dyn RandomAccessFile>,
    counters: Arc<TraceCounters>,
    class: IoClass,
}

impl RandomAccessFile for TraceReadable {
    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes> {
        counted("read", self.class, &self.counters.read, || {
            self.inner.read_at(offset, len).map(|b| {
                let n = b.len() as u64;
                (b, n)
            })
        })
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Env for TraceEnv {
    fn new_writable(&self, path: &str, class: IoClass) -> Result<Box<dyn WritableFile>> {
        let inner = self.inner.new_writable(path, class)?;
        self.counters.files_created.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(TraceWritable {
            inner,
            counters: self.counters.clone(),
            class,
        }))
    }

    fn open_random_access(&self, path: &str, class: IoClass) -> Result<Arc<dyn RandomAccessFile>> {
        Ok(Arc::new(TraceReadable {
            inner: self.inner.open_random_access(path, class)?,
            counters: self.counters.clone(),
            class,
        }))
    }

    fn remove_file(&self, path: &str) -> Result<()> {
        self.inner.remove_file(path)?;
        self.counters.files_removed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    forward_env!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::io_stats::ALL_IO_CLASSES;
    use scavenger_env::MemEnv;
    use std::time::Instant;

    /// The same little file workload through any env.
    fn exercise(env: &dyn Env) {
        env.create_dir_all("d").unwrap();
        for (i, class) in [IoClass::Wal, IoClass::Flush, IoClass::GcWrite]
            .into_iter()
            .enumerate()
        {
            let path = format!("d/f{i}");
            let mut w = env.new_writable(&path, class).unwrap();
            assert!(w.is_empty());
            w.append(&vec![i as u8; 1000 * (i + 1)]).unwrap();
            w.append(b"tail").unwrap();
            w.sync().unwrap();
            assert_eq!(w.len(), 1000 * (i as u64 + 1) + 4);
        }
        let r = env
            .open_random_access("d/f1", IoClass::FgValueRead)
            .unwrap();
        assert_eq!(r.len(), 2004);
        assert_eq!(r.read_at(2000, 4).unwrap().as_ref(), b"tail");
        assert!(r.read_at(2000, 5).is_err(), "errors pass through");
        assert_eq!(
            env.read_file("d/f0", IoClass::Manifest).unwrap().len(),
            1004
        );
        env.rename("d/f2", "d/g2").unwrap();
        assert!(env.file_exists("d/g2") && !env.file_exists("d/f2"));
        assert_eq!(env.file_size("d/g2").unwrap(), 3004);
        env.remove_file("d/f0").unwrap();
        assert!(env.remove_file("d/f0").is_err());
        assert_eq!(env.list_prefix("d/").unwrap().len(), 2);
        assert_eq!(env.total_file_bytes("d/").unwrap(), 2004 + 3004);
    }

    #[test]
    fn sim_disk_counts_and_delays_each_sync_once_and_passes_everything_else_through() {
        let bare = MemEnv::shared();
        exercise(&*bare);

        let mem = MemEnv::shared();
        let sim = SimDiskEnv::with_sync_sleep(mem.clone(), Duration::from_millis(5));
        let t = Instant::now();
        exercise(&*sim);
        let took = t.elapsed();
        assert!(
            took >= Duration::from_millis(15) && took < Duration::from_millis(200),
            "3 syncs x 5 ms, took {took:?}"
        );

        let by_class = sim.syncs_by_class();
        assert_eq!(by_class.iter().sum::<u64>(), 3);
        for class in ALL_IO_CLASSES {
            let want = u64::from(matches!(
                class,
                IoClass::Wal | IoClass::Flush | IoClass::GcWrite
            ));
            assert_eq!(by_class[class as usize], want, "{}", class.label());
        }
        assert!(
            Arc::ptr_eq(&sim.io_stats(), &mem.io_stats()),
            "io_stats() is the inner env's"
        );
        assert_eq!(
            mem.io_stats().snapshot(),
            bare.io_stats().snapshot(),
            "same I/O as the bare MemEnv"
        );
        assert_eq!(mem.list_prefix("").unwrap(), bare.list_prefix("").unwrap());
    }

    #[test]
    fn trace_env_totals_equal_mem_env_counters_per_class() {
        let mem = MemEnv::shared();
        let sim = SimDiskEnv::with_sync_sleep(mem.clone(), Duration::ZERO);
        let env = TraceEnv::new(sim.clone());
        assert!(Arc::ptr_eq(&env.io_stats(), &mem.io_stats()));

        trace::set_enabled(true);
        exercise(&*env);
        trace::set_enabled(false);

        let io = mem.io_stats().snapshot();
        let t = env.totals();
        for class in ALL_IO_CLASSES {
            let (i, c) = (class as usize, io.class(class));
            // MemEnv charges writes per 64 KiB buffer flush, so only bytes
            // compare on the write side; `read_file` (Manifest here) is not
            // a file-handle call, which is all TraceEnv times.
            let whole_file = u64::from(class == IoClass::Manifest);
            assert_eq!(t.append.bytes[i], c.write_bytes, "{}", class.label());
            assert_eq!(
                t.read.calls[i] + whole_file,
                c.read_ops,
                "{}",
                class.label()
            );
            assert_eq!(
                t.read.bytes[i] + whole_file * 1004,
                c.read_bytes,
                "{}",
                class.label()
            );
            assert_eq!(
                t.sync.calls[i],
                sim.syncs_by_class()[i],
                "{}",
                class.label()
            );
        }
        assert_eq!(t.append.total_calls(), 6);
        assert_eq!(
            t.read.timed_calls[IoClass::FgValueRead as usize],
            2,
            "the failed read is timed, not counted"
        );
        assert_eq!(t.read.calls[IoClass::FgValueRead as usize], 1);
        assert_eq!((t.files_created, t.files_removed), (3, 1));
        assert!(t.sync.estimated_ms(&[IoClass::Wal]) >= 0.0);

        // Disabled: counted, not timed, still a pass-through.
        let before = env.totals();
        let mut w = env.new_writable("d/untimed", IoClass::Wal).unwrap();
        w.append(b"x").unwrap();
        w.sync().unwrap();
        drop(w);
        let d = env.totals().delta(&before);
        assert_eq!(d.append.calls[IoClass::Wal as usize], 1);
        assert_eq!(d.sync.calls[IoClass::Wal as usize], 1);
        assert_eq!(d.append.timed_calls, [0; NUM_IO_CLASSES]);
        assert_eq!(d.sync.timed_ns, [0; NUM_IO_CLASSES]);
        assert_eq!(mem.file_size("d/untimed").unwrap(), 1);
    }
}
