//! Pinned read views and per-call write options — the public
//! consistency surface of the engine.
//!
//! A read is [`Db::get`](crate::db::Db::get) /
//! [`Db::scan`](crate::db::Db::scan) at the latest state, or the same
//! two methods on a pinned handle. Every historical read goes through a
//! *registered* pin (a bare sequence number pins nothing: an
//! unregistered read point could see a version whose value a concurrent
//! GC already retired):
//!
//! * [`Db::view`](crate::db::Db::view) returns a [`ReadView`] — one
//!   atomically pinned superversion per member (memtables, SST version
//!   and visible sequence) whose reads are strictly consistent for the
//!   view's whole lifetime. The view *is* the read point: holding it is
//!   what keeps every version it can see resolvable, and dropping it
//!   unregisters that point.
//! * [`Db::snapshot`](crate::db::Db::snapshot) returns the same
//!   [`ReadView`], registered as a snapshot, so it is counted in
//!   [`DbStats::live_snapshots`](crate::DbStats::live_snapshots).
//!
//! A pin reads the store it was taken from by construction: it carries
//! that store's handle, so no call can point it at another.
//! [`WriteOptions`] carries the per-call write knobs; the plain
//! `put`/`delete`/`write` entry points are thin wrappers over the
//! defaults. It is defined in the LSM crate and re-exported here: one
//! write-options type travels from the server wire protocol all the way
//! to the WAL append, and every write returns a [`WriteReceipt`]
//! describing its commit group.

use crate::db::{Db, DbScanIter};
use crate::shard::ShardView;
use bytes::Bytes;
use scavenger_util::ikey::SeqNo;
use scavenger_util::Result;

/// A pinned, strictly-consistent read view of the database.
///
/// Created by [`Db::view`](crate::db::Db::view) or, counted as a
/// snapshot, by [`Db::snapshot`](crate::db::Db::snapshot): one pinned
/// view per member, taken at that call. Each pins one superversion of
/// its member's index tree and registers its sequence as a read point,
/// so for as long as the view lives:
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
        let key = key.as_ref();
        self.members[self.db.inner.shard_of(key)].get(key)
    }

    /// Range scan over `[lo, hi)` (unbounded when `hi` is `None`) at the
    /// view, resolving separated values. The iterator carries its own
    /// pins and stays valid after the view is dropped.
    pub fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<DbScanIter> {
        Ok(DbScanIter::new(
            self.members
                .iter()
                .map(|m| m.scan(lo, hi))
                .collect::<Result<_>>()?,
        ))
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
