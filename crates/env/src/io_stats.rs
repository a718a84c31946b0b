//! Per-class I/O accounting.
//!
//! Every file handle is opened under an [`IoClass`]; all bytes and
//! operations through that handle are charged to the class — except the
//! reads a thread issues inside [`reads_charged_to`], which go to the
//! class the scope names, whatever handle they pass through. So a job
//! names the kind of a read where it issues it, and a file needs only one
//! open handle whoever reads it. The classes mirror the paper's
//! instrumentation: foreground reads, WAL, flush, compaction
//! (read/write), and — the stars of Figure 12(c) — GC read and GC write.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a piece of I/O was performed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum IoClass {
    /// Write-ahead-log appends.
    Wal = 0,
    /// Memtable flush writes (kSST and vSST creation at flush time).
    Flush = 1,
    /// Index LSM-tree compaction reads and writes.
    Compaction = 2,
    /// Garbage-collection reads (vSST scans / lazy index reads / value
    /// fetch): charged by GC's [`reads_charged_to`] scope, whichever
    /// handle the read goes through.
    GcRead = 3,
    /// Garbage-collection writes (rewriting valid values).
    GcWrite = 4,
    /// Reads of key SSTs through the table cache's shared handles:
    /// foreground point and range reads, table-cache opens, and
    /// GC-Lookup's sweeps of the index (step ②).
    FgIndexRead = 5,
    /// Foreground value fetches from the value store.
    FgValueRead = 6,
    /// Manifest / CURRENT maintenance.
    Manifest = 7,
    /// Anything else.
    Other = 8,
}

/// Number of I/O classes.
pub const NUM_IO_CLASSES: usize = 9;

/// All classes, in index order.
pub const ALL_IO_CLASSES: [IoClass; NUM_IO_CLASSES] = [
    IoClass::Wal,
    IoClass::Flush,
    IoClass::Compaction,
    IoClass::GcRead,
    IoClass::GcWrite,
    IoClass::FgIndexRead,
    IoClass::FgValueRead,
    IoClass::Manifest,
    IoClass::Other,
];

impl IoClass {
    /// Short human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            IoClass::Wal => "wal",
            IoClass::Flush => "flush",
            IoClass::Compaction => "compaction",
            IoClass::GcRead => "gc-read",
            IoClass::GcWrite => "gc-write",
            IoClass::FgIndexRead => "fg-index-read",
            IoClass::FgValueRead => "fg-value-read",
            IoClass::Manifest => "manifest",
            IoClass::Other => "other",
        }
    }
}

thread_local! {
    /// The class [`reads_charged_to`] set on this thread, if any.
    static READ_CLASS: Cell<Option<IoClass>> = const { Cell::new(None) };
}

/// Run `f` with every read this thread issues charged to `class` instead
/// of the class its handle was opened under; the outer class comes back
/// when `f` returns, returns early or panics. Threads `f` starts do not
/// inherit the scope — a worker enters its own.
pub fn reads_charged_to<R>(class: IoClass, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<IoClass>);
    impl Drop for Restore {
        fn drop(&mut self) {
            READ_CLASS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(READ_CLASS.with(|c| c.replace(Some(class))));
    f()
}

#[derive(Default)]
struct ClassCounters {
    read_bytes: AtomicU64,
    read_ops: AtomicU64,
    write_bytes: AtomicU64,
    write_ops: AtomicU64,
    syncs: AtomicU64,
}

/// Thread-safe I/O counters, one set per [`IoClass`].
#[derive(Default)]
pub struct IoStats {
    classes: [ClassCounters; NUM_IO_CLASSES],
}

impl IoStats {
    /// Create zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge a read of `bytes` to `class`, or to the class of the
    /// [`reads_charged_to`] scope the calling thread is in.
    pub fn record_read(&self, class: IoClass, bytes: u64) {
        let class = READ_CLASS.with(Cell::get).unwrap_or(class);
        let c = &self.classes[class as usize];
        c.read_bytes.fetch_add(bytes, Ordering::Relaxed);
        c.read_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Charge a write of `bytes` to `class`.
    pub fn record_write(&self, class: IoClass, bytes: u64) {
        let c = &self.classes[class as usize];
        c.write_bytes.fetch_add(bytes, Ordering::Relaxed);
        c.write_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Charge one durability sync to `class`.
    pub fn record_sync(&self, class: IoClass) {
        self.classes[class as usize]
            .syncs
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Capture a point-in-time snapshot of all counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        let mut snap = IoStatsSnapshot::default();
        for (i, c) in self.classes.iter().enumerate() {
            snap.classes[i] = ClassSnapshot {
                read_bytes: c.read_bytes.load(Ordering::Relaxed),
                read_ops: c.read_ops.load(Ordering::Relaxed),
                write_bytes: c.write_bytes.load(Ordering::Relaxed),
                write_ops: c.write_ops.load(Ordering::Relaxed),
                syncs: c.syncs.load(Ordering::Relaxed),
            };
        }
        snap
    }
}

/// Counters for one class at a point in time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClassSnapshot {
    /// Bytes read.
    pub read_bytes: u64,
    /// Read operations.
    pub read_ops: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Write operations.
    pub write_ops: u64,
    /// Durability syncs (fsyncs) that returned success.
    pub syncs: u64,
}

/// A point-in-time copy of [`IoStats`], supporting deltas and totals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Per-class counters, indexed by `IoClass as usize`.
    pub classes: [ClassSnapshot; NUM_IO_CLASSES],
}

impl IoStatsSnapshot {
    /// Counters for one class.
    pub fn class(&self, c: IoClass) -> ClassSnapshot {
        self.classes[c as usize]
    }

    /// `self - earlier`, per class (saturating).
    pub fn delta(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        let mut out = IoStatsSnapshot::default();
        for i in 0..NUM_IO_CLASSES {
            out.classes[i] = ClassSnapshot {
                read_bytes: self.classes[i]
                    .read_bytes
                    .saturating_sub(earlier.classes[i].read_bytes),
                read_ops: self.classes[i]
                    .read_ops
                    .saturating_sub(earlier.classes[i].read_ops),
                write_bytes: self.classes[i]
                    .write_bytes
                    .saturating_sub(earlier.classes[i].write_bytes),
                write_ops: self.classes[i]
                    .write_ops
                    .saturating_sub(earlier.classes[i].write_ops),
                syncs: self.classes[i]
                    .syncs
                    .saturating_sub(earlier.classes[i].syncs),
            };
        }
        out
    }

    /// Add `other`'s per-class counters into `self` — used by the
    /// sharded engine to fold per-shard snapshots into one
    /// set-wide view.
    pub fn accumulate(&mut self, other: &IoStatsSnapshot) {
        for i in 0..NUM_IO_CLASSES {
            let ClassSnapshot {
                read_bytes,
                read_ops,
                write_bytes,
                write_ops,
                syncs,
            } = other.classes[i];
            self.classes[i].read_bytes += read_bytes;
            self.classes[i].read_ops += read_ops;
            self.classes[i].write_bytes += write_bytes;
            self.classes[i].write_ops += write_ops;
            self.classes[i].syncs += syncs;
        }
    }

    /// Total bytes read across all classes.
    pub fn total_read_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.read_bytes).sum()
    }

    /// Total bytes written across all classes.
    pub fn total_write_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.write_bytes).sum()
    }

    /// Total read operations across all classes.
    pub fn total_read_ops(&self) -> u64 {
        self.classes.iter().map(|c| c.read_ops).sum()
    }

    /// Total write operations across all classes.
    pub fn total_write_ops(&self) -> u64 {
        self.classes.iter().map(|c| c.write_ops).sum()
    }

    /// Total durability syncs across all classes.
    pub fn total_syncs(&self) -> u64 {
        self.classes.iter().map(|c| c.syncs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_accumulate_per_class() {
        let s = IoStats::new();
        s.record_read(IoClass::GcRead, 100);
        s.record_read(IoClass::GcRead, 50);
        s.record_write(IoClass::GcWrite, 70);
        let snap = s.snapshot();
        assert_eq!(snap.class(IoClass::GcRead).read_bytes, 150);
        assert_eq!(snap.class(IoClass::GcRead).read_ops, 2);
        assert_eq!(snap.class(IoClass::GcWrite).write_bytes, 70);
        assert_eq!(snap.class(IoClass::GcWrite).write_ops, 1);
        assert_eq!(snap.class(IoClass::Flush).write_bytes, 0);
    }

    #[test]
    fn totals_sum_all_classes() {
        let s = IoStats::new();
        s.record_read(IoClass::Compaction, 10);
        s.record_read(IoClass::FgIndexRead, 5);
        s.record_write(IoClass::Wal, 7);
        let snap = s.snapshot();
        assert_eq!(snap.total_read_bytes(), 15);
        assert_eq!(snap.total_write_bytes(), 7);
        assert_eq!(snap.total_read_ops(), 2);
        assert_eq!(snap.total_write_ops(), 1);
    }

    #[test]
    fn delta_subtracts_baseline() {
        let s = IoStats::new();
        s.record_write(IoClass::Flush, 100);
        let before = s.snapshot();
        s.record_write(IoClass::Flush, 25);
        let after = s.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.class(IoClass::Flush).write_bytes, 25);
        assert_eq!(d.class(IoClass::Flush).write_ops, 1);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let s = std::sync::Arc::new(IoStats::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s2 = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s2.record_read(IoClass::FgValueRead, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().class(IoClass::FgValueRead).read_ops, 8000);
    }

    fn read_ops(s: &IoStats, class: IoClass) -> u64 {
        s.snapshot().class(class).read_ops
    }

    /// A scope charges the reads inside it, a nested scope only its own,
    /// and each exit — normal or by panic — restores the outer class.
    #[test]
    fn scopes_nest_and_restore_the_outer_class() {
        let s = IoStats::new();
        let inner = reads_charged_to(IoClass::GcRead, || {
            s.record_read(IoClass::FgValueRead, 1);
            let inner = reads_charged_to(IoClass::Compaction, || {
                s.record_read(IoClass::FgValueRead, 1);
                7
            });
            s.record_read(IoClass::FgValueRead, 1);
            inner
        });
        assert_eq!(inner, 7, "the scope returns what its closure does");
        assert_eq!(read_ops(&s, IoClass::GcRead), 2);
        assert_eq!(read_ops(&s, IoClass::Compaction), 1);
        s.record_read(IoClass::FgValueRead, 1);
        assert_eq!(read_ops(&s, IoClass::FgValueRead), 1, "outside any scope");

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reads_charged_to(IoClass::GcRead, || panic!("inside the scope"))
        }));
        assert!(unwound.is_err());
        s.record_read(IoClass::FgValueRead, 1);
        assert_eq!(
            read_ops(&s, IoClass::FgValueRead),
            2,
            "restored by the unwind"
        );
    }

    /// A thread started inside a scope begins outside it.
    #[test]
    fn threads_do_not_inherit_the_scope() {
        let s = IoStats::new();
        reads_charged_to(IoClass::GcRead, || {
            std::thread::scope(|t| {
                t.spawn(|| s.record_read(IoClass::FgValueRead, 1));
            });
        });
        assert_eq!(read_ops(&s, IoClass::FgValueRead), 1);
        assert_eq!(read_ops(&s, IoClass::GcRead), 0);
    }

    /// The scope is honoured wherever a read is charged: a handle opened
    /// as `FgValueRead` and read inside a `GcRead` scope is charged
    /// `GcRead` by `MemEnv`, `FsEnv` and `UsageEnv` (in its own ledger and
    /// in the env's it wraps) alike, whole-file reads too; outside the
    /// scope the handle's class holds.
    #[test]
    fn every_env_charges_the_scope_class() {
        use crate::{EnvRef, FsEnv, MemEnv, UsageEnv};
        let dir = std::env::temp_dir().join(format!("scavenger-readscope-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs: EnvRef = Arc::new(FsEnv::new(&dir).unwrap());
        let mem: EnvRef = MemEnv::shared();
        let (usage, _) = UsageEnv::wrap(mem.clone(), "db", None).unwrap();
        for (name, env, ledgers) in [
            ("mem", mem.clone(), vec![mem.clone()]),
            ("fs", fs.clone(), vec![fs.clone()]),
            ("usage", usage.clone(), vec![usage.clone(), mem.clone()]),
        ] {
            let path = format!("db/{name}.vsst");
            let mut w = env.new_writable(&path, IoClass::Flush).unwrap();
            w.append(&[5u8; 100]).unwrap();
            w.sync().unwrap();
            let before: Vec<_> = ledgers.iter().map(|e| e.io_stats().snapshot()).collect();
            let f = env.open_random_access(&path, IoClass::FgValueRead).unwrap();
            reads_charged_to(IoClass::GcRead, || {
                assert_eq!(f.read_at(10, 30).unwrap().len(), 30);
                env.read_file(&path, IoClass::FgIndexRead).unwrap();
            });
            f.read_at(0, 20).unwrap();
            for (ledger, before) in ledgers.iter().zip(&before) {
                let d = ledger.io_stats().snapshot().delta(before);
                let gc = d.class(IoClass::GcRead);
                assert_eq!((gc.read_ops, gc.read_bytes), (2, 130), "{name}");
                let fg = d.class(IoClass::FgValueRead);
                assert_eq!((fg.read_ops, fg.read_bytes), (1, 20), "{name}");
                assert_eq!(d.class(IoClass::FgIndexRead).read_ops, 0, "{name}");
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn labels_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in ALL_IO_CLASSES {
            assert!(seen.insert(c.label()));
        }
    }
}
