//! One engine surface: the trait-based API of the engine handle
//! [`Db`], of every size.
//!
//! The paper's core claim is comparative — five
//! [`EngineMode`](crate::EngineMode)s on one substrate — and the engine
//! serves one substrate the same way: a plain store and a hash-sharded
//! set are one type, [`Db`] (a plain store is its one-member case), so
//! tests, benches, and applications written against these traits run on
//! both by construction:
//!
//! * [`KvRead`] — point/range reads, pinned views, snapshots. The
//!   associated types [`View`](KvRead::View) / [`Snap`](KvRead::Snap) /
//!   [`Iter`](KvRead::Iter) name the concrete read surfaces
//!   ([`ReadView`] / [`Snapshot`] / [`DbScanIter`]), and
//!   [`PinnedReader`] lets generic code read through either pin.
//! * [`KvWrite`] — puts, deletes, and atomic batches with
//!   [`WriteOptions`].
//! * [`Maintenance`] — flush/compaction/GC plus the stats and space
//!   introspection the harness consumes; [`GcReport`] holds one GC
//!   outcome per member.
//! * [`Engine`] — umbrella alias for `KvRead + KvWrite + Maintenance`
//!   (blanket-implemented).
//!
//! Per-call options are shared: one [`ReadOptions`] whose
//! [`ReadPin`](crate::ReadPin) names a view or snapshot of the handle,
//! one [`WriteOptions`]. A generic function needs no per-size code:
//!
//! ```
//! use scavenger::{Db, DbShards, Engine, EngineMode, MemEnv, Options, ShardedOptions};
//!
//! fn churn<E: Engine>(db: &E) -> scavenger::Result<u64> {
//!     db.put(b"k", vec![7u8; 2048].into())?;
//!     db.flush()?;
//!     db.compact_all()?;
//!     let report = db.run_gc()?;
//!     Ok(report.aggregate().bytes_reclaimed)
//! }
//!
//! let single = Db::open(Options::new(MemEnv::shared(), "e1", EngineMode::Scavenger)).unwrap();
//! let mut opts = ShardedOptions::new(MemEnv::shared(), "e2", EngineMode::Scavenger);
//! opts.num_shards = 2;
//! let sharded = DbShards::open(opts).unwrap();
//! churn(&single).unwrap();
//! churn(&sharded).unwrap();
//! ```
//!
//! ## How a new backend plugs in
//!
//! Every trait here has exactly one implementation, on [`Db`], and every
//! generic consumer — the conformance suite in
//! `tests/engine_conformance.rs`, the bench harness's `EngineKvStore`
//! adapter, the server, the examples — is written against it. A new
//! way to store a key range (WAL-time separation, a remote member, …)
//! therefore plugs in *below* the handle, as a new kind of member that
//! the set routes to, and inherits views, snapshots, scans,
//! transactions, change streams and maintenance fan-out unchanged. The
//! traits are object-safe (asserted by a compile-time test below), so
//! `dyn` dispatch works too.

use crate::db::{Db, DbScanIter, ScanEntry};
use crate::gc::GcOutcome;
use crate::stats::{DbStats, SpaceBreakdown};
use crate::view::{ReadOptions, ReadView, Snapshot, WriteOptions, WriteReceipt};
use bytes::Bytes;
use scavenger_lsm::WriteBatch;
use scavenger_util::Result;

/// Result of one [`Maintenance::run_gc`] call: each member's GC
/// outcome, indexed by shard (one slot for a plain store).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Each member's outcome for this pass (`None` where no candidate
    /// crossed the GC threshold), indexed by shard.
    pub outcomes: Vec<Option<GcOutcome>>,
}

impl GcReport {
    /// Did any member run a GC job this pass?
    pub fn ran(&self) -> bool {
        self.outcomes.iter().any(|o| o.is_some())
    }

    /// Number of GC jobs that actually ran.
    pub fn jobs(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_some()).count()
    }

    /// Sum of all outcomes — files collected, records rewritten, bytes
    /// reclaimed, read and written across the whole handle.
    pub fn aggregate(&self) -> GcOutcome {
        let mut total = GcOutcome::default();
        for o in self.outcomes.iter().flatten() {
            total.files_collected += o.files_collected;
            total.records_rewritten += o.records_rewritten;
            total.bytes_reclaimed += o.bytes_reclaimed;
            total.bytes_read += o.bytes_read;
            total.bytes_written += o.bytes_written;
        }
        total
    }
}

/// The scan-iterator surface: an [`Iterator`] over `Result<ScanEntry>`
/// plus [`collect_n`](ScanIterator::collect_n), the bounded pull. The
/// iterator resolves separated values a look-ahead batch at a time; `take(n)` cannot tell them how many rows the caller
/// wants, `collect_n(n)` does — so generic code with a row limit (the
/// wire server's `Scan`) resolves exactly the rows it sends.
pub trait ScanIterator: Iterator<Item = Result<ScanEntry>> {
    /// Collect up to `limit` entries, reading no value beyond them. An
    /// error drops the rows collected so far.
    fn collect_n(&mut self, limit: usize) -> Result<Vec<ScanEntry>>;
}

impl ScanIterator for DbScanIter {
    fn collect_n(&mut self, limit: usize) -> Result<Vec<ScanEntry>> {
        DbScanIter::collect_n(self, limit)
    }
}

/// A pinned read surface — a view or a snapshot. Everything readable
/// *through a pin* goes through this trait, so generic code can hold an
/// epoch and read it without caring which kind of pin it holds.
pub trait PinnedReader {
    /// Scan iterator over this pin (same type as the owning engine's
    /// [`KvRead::Iter`]).
    type Iter: ScanIterator;

    /// Value of `key` at the pin, or `None` if absent/deleted there.
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>>;

    /// Range scan over `[lo, hi)` (unbounded when `hi` is `None`) at
    /// the pin, resolving separated values.
    fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<Self::Iter>;
}

/// Read half of the unified engine surface: point lookups, range scans,
/// and the pinned-consistency machinery (views and snapshots).
///
/// Every scan iterator is a real [`Iterator`] over
/// `Result<`[`ScanEntry`]`>`; every pinned surface is a
/// [`PinnedReader`]. Per-call knobs ride in the shared [`ReadOptions`]
/// (whose [`pin`](ReadOptions::pin) takes a view or snapshot of the same
/// handle — a pin from another handle is an error, never a silent read
/// of the wrong store).
///
/// ```
/// use scavenger::{Db, EngineMode, KvRead, MemEnv, Options, PinnedReader, ReadOptions};
///
/// fn epoch_len<E: KvRead>(db: &E) -> usize {
///     let view = db.view(); // pinned: later writes stay invisible
///     view.scan(b"", None).unwrap().count()
/// }
///
/// let db = Db::open(Options::new(MemEnv::shared(), "kvread-doc", EngineMode::Scavenger)).unwrap();
/// db.put("a", vec![1u8; 600]).unwrap();
/// assert_eq!(epoch_len(&db), 1);
/// assert!(KvRead::get(&db, b"a").unwrap().is_some());
/// assert!(db.get_with(&ReadOptions::default(), b"missing").unwrap().is_none());
/// ```
pub trait KvRead {
    /// Pinned, strictly-consistent view type.
    type View: PinnedReader<Iter = Self::Iter>;
    /// RAII snapshot type (participates in snapshot-gated GC policy).
    type Snap: PinnedReader<Iter = Self::Iter>;
    /// Range-scan iterator type.
    type Iter: ScanIterator;

    /// Latest value of `key`, or `None` if absent/deleted.
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>>;

    /// Value of `key` as seen by `opts` (pin selection, cache control).
    fn get_with(&self, opts: &ReadOptions<'_>, key: &[u8]) -> Result<Option<Bytes>>;

    /// Range scan over `[lo, hi)` (unbounded when `hi` is `None`) at
    /// the latest state.
    fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<Self::Iter>;

    /// Range scan as seen by `opts`: bounds from
    /// [`lower_bound`](ReadOptions::lower_bound) /
    /// [`upper_bound`](ReadOptions::upper_bound), read point from
    /// [`pin`](ReadOptions::pin).
    fn scan_with(&self, opts: &ReadOptions<'_>) -> Result<Self::Iter>;

    /// Pin a strictly-consistent view of the current state.
    fn view(&self) -> Self::View;

    /// Take an RAII snapshot (registered read point until dropped).
    fn snapshot(&self) -> Self::Snap;
}

/// Write half of the unified engine surface. Every write returns a
/// [`WriteReceipt`] describing where the batch landed (its highest
/// sequence number), how many writer batches shared its commit group,
/// and whether the commit was covered by an fsync.
///
/// ```
/// use scavenger::{DbShards, EngineMode, KvWrite, MemEnv, ShardedOptions, WriteBatch, WriteReceipt};
///
/// fn bulk<E: KvWrite>(db: &E) -> scavenger::Result<WriteReceipt> {
///     let mut batch = WriteBatch::new();
///     batch.put("a", scavenger::Bytes::from(vec![1u8; 600]));
///     batch.put("b", scavenger::Bytes::from_static(b"inline"));
///     db.write(batch)?; // atomic even across shards — see `write_with`
///     db.delete(b"a")
/// }
///
/// let mut opts = ShardedOptions::new(MemEnv::shared(), "kvwrite-doc", EngineMode::Scavenger);
/// opts.num_shards = 2;
/// let db = DbShards::open(opts).unwrap();
/// assert!(bulk(&db).unwrap().synced);
/// assert!(db.get("a").unwrap().is_none());
/// ```
pub trait KvWrite {
    /// Insert or overwrite a key (default [`WriteOptions`]).
    fn put(&self, key: &[u8], value: Bytes) -> Result<WriteReceipt> {
        self.put_with(&WriteOptions::default(), key, value)
    }

    /// Insert or overwrite a key with explicit options.
    fn put_with(&self, opts: &WriteOptions, key: &[u8], value: Bytes) -> Result<WriteReceipt>;

    /// Delete a key (default [`WriteOptions`]).
    fn delete(&self, key: &[u8]) -> Result<WriteReceipt> {
        self.delete_with(&WriteOptions::default(), key)
    }

    /// Delete a key with explicit options.
    fn delete_with(&self, opts: &WriteOptions, key: &[u8]) -> Result<WriteReceipt>;

    /// Apply a batch (default [`WriteOptions`]). Atomicity scope is as
    /// documented on [`write_with`](KvWrite::write_with).
    fn write(&self, batch: WriteBatch) -> Result<WriteReceipt> {
        self.write_with(&WriteOptions::default(), batch)
    }

    /// Apply a batch with explicit options.
    ///
    /// # Atomicity
    ///
    /// A batch is atomic at every store size, crashes included. It
    /// routes by key: a batch whose keys all land on one member — every
    /// batch, on a plain store — commits there untouched, in one WAL
    /// record with zero extra I/O, while a batch spanning members goes
    /// through the set's two-phase commit coordinator — one fsynced
    /// `Prepare` record carrying the full redo payload, which is the
    /// batch's durable copy, then the per-shard sub-batch commits,
    /// unsynced. The coordinator log is
    /// retired only after a barrier has synced every shard's WAL, and
    /// recovery rolls every `Prepare` still in it forward, so a crash
    /// at any point surfaces the whole batch or none of it — and the
    /// whole of it once acknowledged.
    ///
    /// The price of that guarantee is that one fsync: a multi-shard
    /// batch pays it even under `sync = false` options (its receipt
    /// reports `synced = true`), and its receipt aggregates `seq` as
    /// the maximum across touched shards with `group_len` summed. A
    /// single-member batch keeps the requested sync behavior unchanged.
    /// Value references are engine-internal: a batch carrying one is
    /// refused with [`Error::InvalidArgument`](crate::Error) before
    /// anything is written.
    fn write_with(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<WriteReceipt>;
}

/// Maintenance and introspection half of the unified engine surface:
/// the operations the harness, throttle experiments, and examples drive
/// explicitly.
///
/// ```
/// use scavenger::{Db, EngineMode, Maintenance, MemEnv, Options};
///
/// fn reclaim<E: Maintenance>(db: &E) -> scavenger::Result<u64> {
///     db.flush()?;
///     db.compact_all()?; // exposes garbage
///     let report = db.run_gc()?; // one outcome slot per shard
///     assert_eq!(report.jobs(), report.outcomes.iter().flatten().count());
///     Ok(report.aggregate().bytes_reclaimed)
/// }
///
/// let db = Db::open(Options::new(MemEnv::shared(), "maint-doc", EngineMode::Scavenger)).unwrap();
/// db.put("k", vec![3u8; 2048]).unwrap();
/// reclaim(&db).unwrap();
/// assert!(db.stats().flushes >= 1);
/// assert!(db.space().total() > 0);
/// ```
pub trait Maintenance {
    /// Flush memtables and drain background work.
    fn flush(&self) -> Result<()>;

    /// Compact until every level score is under 1.
    fn compact_all(&self) -> Result<()>;

    /// Run one GC pass at the configured threshold: one job per member.
    fn run_gc(&self) -> Result<GcReport>;

    /// Run GC until no candidate crosses the threshold anywhere;
    /// returns the total number of jobs.
    fn run_gc_until_clean(&self) -> Result<usize>;

    /// Recover from read-only degraded mode after a permanent
    /// background failure: re-verify the manifest, clean orphan value
    /// files, clear the stored error, and re-enable writes on every
    /// member. See [`Db::resume`].
    fn resume(&self) -> Result<()>;

    /// Aggregate statistics snapshot (set-wide).
    fn stats(&self) -> DbStats;

    /// Per-member statistics, indexed by shard: one element for a plain
    /// store. The metrics exposition layer labels series per shard with
    /// it.
    fn per_shard_stats(&self) -> Vec<DbStats>;

    /// On-disk space breakdown (summed across members).
    fn space(&self) -> SpaceBreakdown;
}

/// The full unified surface: everything a backend must provide to serve
/// the conformance suite, the bench harness, and the examples.
/// Blanket-implemented for any `KvRead + KvWrite + Maintenance`.
pub trait Engine: KvRead + KvWrite + Maintenance {}

impl<T: KvRead + KvWrite + Maintenance> Engine for T {}

// ---------------- pinned surfaces ----------------

impl PinnedReader for ReadView {
    type Iter = DbScanIter;

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        ReadView::get(self, key)
    }

    fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<DbScanIter> {
        ReadView::scan(self, lo, hi)
    }
}

impl PinnedReader for Snapshot {
    type Iter = DbScanIter;

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        Snapshot::get(self, key)
    }

    fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<DbScanIter> {
        Snapshot::scan(self, lo, hi)
    }
}

// ---------------- the handle ----------------

impl KvRead for Db {
    type View = ReadView;
    type Snap = Snapshot;
    type Iter = DbScanIter;

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        Db::get(self, key)
    }

    fn get_with(&self, opts: &ReadOptions<'_>, key: &[u8]) -> Result<Option<Bytes>> {
        Db::get_with(self, opts, key)
    }

    fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<DbScanIter> {
        Db::scan(self, lo, hi)
    }

    fn scan_with(&self, opts: &ReadOptions<'_>) -> Result<DbScanIter> {
        Db::scan_with(self, opts)
    }

    fn view(&self) -> ReadView {
        Db::view(self)
    }

    fn snapshot(&self) -> Snapshot {
        Db::snapshot(self)
    }
}

impl KvWrite for Db {
    fn put_with(&self, opts: &WriteOptions, key: &[u8], value: Bytes) -> Result<WriteReceipt> {
        Db::put_with(self, opts, key, value)
    }

    fn delete_with(&self, opts: &WriteOptions, key: &[u8]) -> Result<WriteReceipt> {
        Db::delete_with(self, opts, key)
    }

    fn write_with(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<WriteReceipt> {
        Db::write_with(self, opts, batch)
    }
}

impl Maintenance for Db {
    fn flush(&self) -> Result<()> {
        Db::flush(self)
    }

    fn compact_all(&self) -> Result<()> {
        Db::compact_all(self)
    }

    fn run_gc(&self) -> Result<GcReport> {
        Db::run_gc(self)
    }

    fn run_gc_until_clean(&self) -> Result<usize> {
        Db::run_gc_until_clean(self)
    }

    fn resume(&self) -> Result<()> {
        Db::resume(self)
    }

    fn stats(&self) -> DbStats {
        Db::stats(self)
    }

    fn per_shard_stats(&self) -> Vec<DbStats> {
        Db::shard_stats(self)
    }

    fn space(&self) -> SpaceBreakdown {
        Db::space(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{EngineMode, Options};
    use crate::shards::ShardedOptions;
    use scavenger_env::MemEnv;

    /// Compile-time object-safety assertion: the traits must stay
    /// `dyn`-compatible (no generic methods, no `Self` returns outside
    /// associated types), so heterogeneous backends can sit behind one
    /// `dyn Engine<...>` pointer.
    #[allow(dead_code)]
    fn object_safety(
        _write: &dyn KvWrite,
        _maint: &dyn Maintenance,
        _read: &dyn KvRead<View = ReadView, Snap = Snapshot, Iter = DbScanIter>,
        _pin: &dyn PinnedReader<Iter = DbScanIter>,
        _engine: &dyn Engine<View = ReadView, Snap = Snapshot, Iter = DbScanIter>,
    ) {
    }

    /// Compile-time Send + Sync assertions on every public surface of
    /// the unified API: handles, pinned surfaces, and iterators all
    /// cross threads (the maintenance fan-out and the bench harness
    /// rely on it).
    #[test]
    fn surfaces_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Db>();
        assert_send_sync::<ReadView>();
        assert_send_sync::<Snapshot>();
        assert_send_sync::<GcReport>();
        assert_send::<DbScanIter>();
    }

    #[test]
    fn gc_report_normalizes_shapes() {
        let none = GcReport {
            outcomes: vec![None],
        };
        assert!(!none.ran());
        assert_eq!(none.jobs(), 0);
        assert_eq!(none.aggregate(), GcOutcome::default());

        let fanout = GcReport {
            outcomes: vec![
                Some(GcOutcome {
                    files_collected: 2,
                    records_rewritten: 10,
                    bytes_reclaimed: 4096,
                    bytes_read: 300,
                    bytes_written: 200,
                }),
                None,
                Some(GcOutcome {
                    files_collected: 1,
                    records_rewritten: 5,
                    bytes_reclaimed: 1024,
                    bytes_read: 30,
                    bytes_written: 20,
                }),
            ],
        };
        assert!(fanout.ran());
        assert_eq!(fanout.jobs(), 2);
        let total = fanout.aggregate();
        assert_eq!(total.files_collected, 3);
        assert_eq!(total.records_rewritten, 15);
        assert_eq!(total.bytes_reclaimed, 5120);
        assert_eq!(total.io_bytes(), 550);
    }

    /// One generic body, a store of one and of four: the blanket
    /// [`Engine`] bound is enough to drive the full write/read/maintain
    /// cycle.
    #[test]
    fn generic_cycle_runs_on_both_handles() {
        fn cycle<E: Engine>(db: &E) {
            for i in 0..30u32 {
                KvWrite::put(
                    db,
                    format!("key{i:02}").as_bytes(),
                    vec![i as u8; 1024].into(),
                )
                .unwrap();
            }
            db.flush().unwrap();
            assert_eq!(
                KvRead::get(db, b"key07").unwrap().unwrap(),
                Bytes::from(vec![7u8; 1024])
            );
            let view = db.view();
            KvWrite::delete(db, b"key07").unwrap();
            assert!(KvRead::get(db, b"key07").unwrap().is_none());
            assert_eq!(view.get(b"key07").unwrap().unwrap().len(), 1024);
            let collected: Vec<ScanEntry> = db
                .scan(b"key00", Some(b"key05"))
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
            assert_eq!(collected.len(), 5);
            db.compact_all().unwrap();
            let _ = db.run_gc().unwrap();
            assert!(db.stats().flushes >= 1);
            assert!(db.space().total() > 0);
        }
        let single = Db::open(Options::new(
            MemEnv::shared(),
            "eng-single",
            EngineMode::Scavenger,
        ))
        .unwrap();
        cycle(&single);
        let sharded = Db::open(ShardedOptions::new(
            MemEnv::shared(),
            "eng-sharded",
            EngineMode::Scavenger,
        ))
        .unwrap();
        cycle(&sharded);
    }
}
