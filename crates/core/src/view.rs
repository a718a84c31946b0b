//! Pinned read views and per-call read/write options — the public
//! consistency surface of the engine.
//!
//! Every historical read goes through a *registered* pin (a bare
//! sequence number pins nothing: an unregistered read point could see a
//! version whose value a concurrent GC already retired):
//!
//! * [`Db::view`](crate::db::Db::view) returns a [`ReadView`] — one
//!   atomically pinned superversion per member (memtables, SST version
//!   and visible sequence) whose reads are strictly consistent for the
//!   view's whole lifetime.
//! * [`Snapshot`] is an RAII handle *owning* a registered view: read it
//!   directly, or pass it to [`Db::get_with`](crate::db::Db::get_with) /
//!   [`Db::scan_with`](crate::db::Db::scan_with) as a [`ReadPin`]
//!   (`ReadOptions::pinned(&snap)`). The handle *is* the read point, and
//!   holding it is what keeps every version it can see resolvable.
//! * [`ReadOptions`] / [`WriteOptions`] carry per-call knobs; the plain
//!   `get`/`put`/`scan` entry points are thin wrappers over the
//!   defaults. [`WriteOptions`] is defined in the LSM crate and
//!   re-exported here: one write-options type travels from the server
//!   wire protocol all the way to the WAL append, and every write
//!   returns a [`WriteReceipt`] describing its commit group.

use crate::db::{Db, DbScanIter};
use crate::shard::ShardView;
use bytes::Bytes;
use scavenger_util::ikey::SeqNo;
use scavenger_util::Result;

/// A pinned, strictly-consistent read view of the database.
///
/// Created by [`Db::view`](crate::db::Db::view): one pinned view per
/// member, taken at that call. Each pins one superversion of its
/// member's index tree and registers its sequence as a read point, so
/// for as long as the view lives:
///
/// * every read resolves against the same point-in-time state — writes,
///   flushes, and compactions committed after creation are invisible;
/// * the garbage collector preserves every value version the view can
///   see (no dangling value references, no read retries).
///
/// Each member is strictly consistent for its own keys; the set is taken
/// at one call site, which is as much cross-shard ordering as a store
/// without a global sequence can promise.
pub struct ReadView {
    pub(crate) db: Db,
    pub(crate) members: Vec<ShardView>,
}

impl ReadView {
    /// The sequence this view reads at: sequences are per member, so on
    /// a store of several this is the newest member read point.
    pub fn sequence(&self) -> SeqNo {
        self.members
            .iter()
            .map(ShardView::sequence)
            .max()
            .unwrap_or(0)
    }

    /// The read point a transaction's conflict check for `key` compares
    /// against: the owning member's.
    pub(crate) fn sequence_for(&self, key: &[u8]) -> SeqNo {
        self.members[self.db.inner.shard_of(key)].sequence()
    }

    /// Value of `key` at the view, or `None` if absent/deleted.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Bytes>> {
        self.get_opt(key.as_ref(), true)
    }

    pub(crate) fn get_opt(&self, key: &[u8], fill_cache: bool) -> Result<Option<Bytes>> {
        self.members[self.db.inner.shard_of(key)].get_opt(key, fill_cache)
    }

    /// Range scan over `[lo, hi)` (unbounded when `hi` is `None`) at the
    /// view, resolving separated values. The iterator carries its own
    /// pins and stays valid after the view is dropped.
    pub fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<DbScanIter> {
        self.scan_opt(lo, hi, true)
    }

    pub(crate) fn scan_opt(
        &self,
        lo: &[u8],
        hi: Option<&[u8]>,
        fill_cache: bool,
    ) -> Result<DbScanIter> {
        let members = self.members.iter();
        Ok(DbScanIter::new(
            members
                .map(|m| m.scan_opt(lo, hi, fill_cache))
                .collect::<Result<_>>()?,
        ))
    }
}

/// A consistent point-in-time snapshot: an RAII handle owning a
/// registered [`ReadView`]. Dropping the snapshot unregisters its
/// sequences and releases the pinned structures.
///
/// It holds exactly what a [`ReadView`] holds — GC runs under it and
/// defers only the unlink of what it retires — and is counted in
/// [`DbStats::live_snapshots`](crate::DbStats::live_snapshots).
pub struct Snapshot {
    pub(crate) view: ReadView,
}

impl Snapshot {
    /// The snapshot's sequence number (diagnostics and ordering
    /// comparisons — reads go through the snapshot itself, which is the
    /// registered pin).
    pub fn sequence(&self) -> SeqNo {
        self.view.sequence()
    }

    /// The owned read view.
    pub fn view(&self) -> &ReadView {
        &self.view
    }

    /// Value of `key` at the snapshot.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Bytes>> {
        self.view.get(key)
    }

    /// Range scan at the snapshot.
    pub fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<DbScanIter> {
        self.view.scan(lo, hi)
    }
}

/// The read point a [`ReadOptions`] call resolves against: the latest
/// state, a pinned [`ReadView`], or a [`Snapshot`]. A pin is only valid
/// on the handle it was taken from; any other handle refuses it with
/// [`Error::InvalidArgument`](scavenger_util::Error::InvalidArgument)
/// rather than read a store it does not belong to.
#[derive(Clone, Copy, Default)]
pub enum ReadPin<'a> {
    /// No pin: read the latest state through a transient view.
    #[default]
    Latest,
    /// Read through a pinned view.
    View(&'a ReadView),
    /// Read at a snapshot.
    Snapshot(&'a Snapshot),
}

impl<'a> From<&'a ReadView> for ReadPin<'a> {
    fn from(v: &'a ReadView) -> Self {
        ReadPin::View(v)
    }
}

impl<'a> From<&'a Snapshot> for ReadPin<'a> {
    fn from(s: &'a Snapshot) -> Self {
        ReadPin::Snapshot(s)
    }
}

/// Per-call read options for [`Db::get_with`](crate::db::Db::get_with)
/// and [`Db::scan_with`](crate::db::Db::scan_with).
///
/// The read point comes from [`pin`](ReadOptions::pin): latest state by
/// default, or any of the pinned read surfaces via
/// [`ReadOptions::pinned`].
///
/// ```
/// use scavenger::{Db, EngineMode, MemEnv, Options, ReadOptions};
///
/// let db = Db::open(Options::new(MemEnv::shared(), "ro-demo", EngineMode::Scavenger)).unwrap();
/// for i in 0..20u8 {
///     db.put(format!("key{i:02}"), vec![i; 64]).unwrap();
/// }
/// // Bounded scan that bypasses the caches (one-shot cold read).
/// let ro = ReadOptions {
///     lower_bound: Some(b"key05".to_vec()),
///     upper_bound: Some(b"key10".to_vec()),
///     fill_cache: false,
///     ..ReadOptions::default()
/// };
/// let entries = db.scan_with(&ro).unwrap().collect_n(usize::MAX).unwrap();
/// assert_eq!(entries.len(), 5);
/// assert_eq!(entries[0].key, b"key05");
/// ```
pub struct ReadOptions<'a> {
    /// The read point: latest, or a pinned view/snapshot.
    pub pin: ReadPin<'a>,
    /// When `false`, the read inserts nothing into any cache, so a scan
    /// of cold data cannot evict the hot working set: index tables are
    /// read through one-shot readers around the table-handle and block
    /// caches, and a separated value's index partition, value block or
    /// record is served from the block cache if there but never inserted.
    /// Default `true`.
    pub fill_cache: bool,
    /// Inclusive lower key bound for
    /// [`Db::scan_with`](crate::db::Db::scan_with); unbounded (`""`)
    /// when `None`.
    pub lower_bound: Option<Vec<u8>>,
    /// Exclusive upper key bound for
    /// [`Db::scan_with`](crate::db::Db::scan_with); unbounded when
    /// `None`.
    pub upper_bound: Option<Vec<u8>>,
}

impl Default for ReadOptions<'_> {
    fn default() -> Self {
        ReadOptions {
            pin: ReadPin::Latest,
            fill_cache: true,
            lower_bound: None,
            upper_bound: None,
        }
    }
}

impl<'a> ReadOptions<'a> {
    /// Options reading at `pin` — a view or a snapshot converts:
    ///
    /// ```
    /// use scavenger::{Db, EngineMode, MemEnv, Options, ReadOptions};
    ///
    /// let db = Db::open(Options::new(MemEnv::shared(), "pin-demo", EngineMode::Scavenger)).unwrap();
    /// db.put(b"k", b"old".to_vec()).unwrap();
    /// let snap = db.snapshot();
    /// db.put(b"k", b"new".to_vec()).unwrap();
    /// let at_snap = db.get_with(&ReadOptions::pinned(&snap), b"k").unwrap().unwrap();
    /// assert_eq!(at_snap.as_ref(), b"old");
    /// ```
    pub fn pinned(pin: impl Into<ReadPin<'a>>) -> Self {
        ReadOptions {
            pin: pin.into(),
            ..ReadOptions::default()
        }
    }
}

/// Per-call write options for [`Db::put_with`](crate::db::Db::put_with),
/// [`Db::delete_with`](crate::db::Db::delete_with), and
/// [`Db::write_with`](crate::db::Db::write_with) — re-exported from the
/// LSM crate so the same struct travels from the server wire protocol
/// down to the WAL append.
///
/// ```
/// use scavenger::{Db, EngineMode, MemEnv, Options, WriteOptions};
///
/// let db = Db::open(Options::new(MemEnv::shared(), "wo-demo", EngineMode::Scavenger)).unwrap();
/// // Bulk load without per-write WAL fsyncs (group durability).
/// let nosync = WriteOptions { sync: false, ..WriteOptions::default() };
/// for i in 0..100u8 {
///     db.put_with(&nosync, format!("key{i:03}"), vec![i; 256]).unwrap();
/// }
/// db.flush().unwrap(); // flush makes the batch durable
/// assert_eq!(db.get(b"key042").unwrap().unwrap().as_ref(), &[42u8; 256][..]);
/// ```
pub use scavenger_lsm::WriteOptions;

/// Typed acknowledgment returned by every write — the sequence range it
/// committed at, how many batches shared its commit group, and whether
/// an fsync covered it. Re-exported from the LSM crate.
///
/// ```
/// use scavenger::{Db, EngineMode, MemEnv, Options};
///
/// let db = Db::open(Options::new(MemEnv::shared(), "wr-demo", EngineMode::Scavenger)).unwrap();
/// let receipt = db.put(b"k", b"v".to_vec()).unwrap();
/// assert!(receipt.synced);
/// assert_eq!(receipt.group_len, 1); // no concurrent riders
/// ```
pub use scavenger_lsm::WriteReceipt;
