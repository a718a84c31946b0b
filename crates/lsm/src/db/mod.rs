//! The index LSM-tree engine, cut along its four jobs:
//!
//! * `write` — the write path: group commit onto the WAL, memtable
//!   rotation, admission and stalls;
//! * `background` — flush, compaction, obsolete-file purge and the
//!   retry / degrade / resume policy around them: one drain under one
//!   lock, run inline, on the background thread or by `flush`;
//! * `open` — open and recovery: WAL replay, the first WAL, the
//!   obsolete-file sweep;
//! * this module — the engine's state, its superversion installs and its
//!   reads.
//!
//! The tree's state is one [`SuperVersion`] (see [`crate::view`]): the
//! active memtable, the immutable memtables and the SST version. Every
//! structural change installs a changed copy of it, and a read pins one
//! bundle + registers its sequence.

mod background;
mod open;
mod write;

pub use write::{GuardedWrite, Precondition, MAX_IMM_MEMTABLES};

use crate::batch::WriteReceipt;
use crate::compaction::PickerState;
use crate::group::GroupCommit;
use crate::options::LsmOptions;
use crate::tcache::TableCache;
use crate::version::{FileNumbers, Manifest, Version};
use crate::view::{
    latest_version_seq, read_superversion, BatchReader, LsmView, ReadPointKind, ReadPointRegistry,
    SuperVersion,
};
use background::BgSignal;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};
use scavenger_util::ikey::{SeqNo, ValueType};
use scavenger_util::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use write::{QueuedWrite, WriterState};

/// Result of a point lookup against the index LSM-tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsmReadResult {
    /// No visible version.
    NotFound,
    /// Visible version is a tombstone.
    Deleted,
    /// Visible version found.
    Found {
        /// Sequence of the version.
        seq: SeqNo,
        /// `Value` (inline) or `ValueRef` (separated).
        vtype: ValueType,
        /// Payload.
        value: Bytes,
    },
}

/// Engine counters.
#[derive(Debug, Default)]
pub struct LsmCounters {
    /// Memtable flushes completed.
    pub flushes: AtomicU64,
    /// Compactions completed (excluding trivial moves).
    pub compactions: AtomicU64,
    /// Writer stalls (threaded mode).
    pub stalls: AtomicU64,
    /// Entries dropped by merges (exposed garbage events).
    pub merge_drops: AtomicU64,
    /// Background jobs that failed permanently (after retries) and
    /// degraded the engine to read-only mode.
    pub bg_errors: AtomicU64,
    /// Transient background-job failures that were retried.
    pub bg_retries: AtomicU64,
    /// WALs whose tail was torn or corrupt at recovery (the intact
    /// prefix was replayed; the tail was dropped).
    pub wal_tail_corruptions: AtomicU64,
    /// Commit groups written (each is one WAL record + at most one
    /// fsync, regardless of how many batches rode in it).
    pub group_commit_groups: AtomicU64,
    /// Batches committed through the group-commit path. Under writer
    /// contention this exceeds `group_commit_groups` — the gap is the
    /// amortization win.
    pub group_commit_batches: AtomicU64,
    /// Largest number of batches ever committed in one group.
    pub group_commit_max_group: AtomicU64,
    /// Fsyncs avoided by riders: for every group that synced, each
    /// `sync = true` member beyond the first would have paid its own
    /// fsync on the serialized path.
    pub group_commit_fsyncs_saved: AtomicU64,
}

struct Inner {
    opts: LsmOptions,
    tcache: Arc<TableCache>,
    /// The WAL and its commit queue: every write reaches the WAL through
    /// [`GroupCommit`], whose log lock is the writer lock.
    wal: GroupCommit<WriterState, QueuedWrite, Result<WriteReceipt>>,
    /// The version set behind the MANIFEST's commit queue.
    manifest: Manifest,
    seq: Arc<AtomicU64>,
    file_numbers: FileNumbers,
    picker: Mutex<PickerState>,
    read_points: Arc<ReadPointRegistry>,
    /// The tree's state: the memtables and the SST version. Replaced,
    /// never mutated, by [`Lsm::install`].
    sv: RwLock<Arc<SuperVersion>>,
    /// Serializes installs so a slow installer cannot overwrite a newer
    /// bundle with a stale one.
    sv_install: Mutex<()>,
    /// Held by every flush and compaction for its whole pick-and-run
    /// (taken only by `Lsm::lock_bg_work`), so no two jobs pick the same
    /// memtable or input files. Lock order: the engine's GC lock →
    /// `bg_work` → the writer and MANIFEST locks.
    bg_work: Mutex<()>,
    counters: LsmCounters,
    bg_signal: Mutex<BgSignal>,
    bg_cv: Condvar,
    stall_lock: Mutex<()>,
    stall_cv: Condvar,
    /// Cause of the current degraded state (kept for error messages and
    /// diagnostics; `degraded` is the gate).
    bg_error: Mutex<Option<Error>>,
    /// Read-only degraded mode: set by a permanent background failure,
    /// cleared by [`Lsm::resume`]. Writes fail fast with
    /// [`Error::ReadOnlyMode`]; reads, scans, and pinned views keep
    /// working.
    degraded: AtomicBool,
    /// Paths of files awaiting deletion once no live version references
    /// them: key SSTs replaced by compactions or unlisted at open, and
    /// the key SSTs and value files of failed edits.
    pending_deletions: Mutex<Vec<String>>,
    /// Numbers of the closed WALs still on disk: the writer adds each as
    /// it rotates away from it, open's sweep those it finds below the
    /// recovery floor, and a flush removes those the floor has passed and
    /// the change log no longer protects.
    closed_wals: Mutex<Vec<u64>>,
    /// Change-data-capture hub: publication ring, retained-WAL catalog,
    /// and subscriber registry (see [`crate::changelog`]).
    cdc: Arc<crate::changelog::ChangeLog>,
    closed: AtomicBool,
    /// Flush and compaction never elide a tombstone newer than this
    /// sequence (see [`Lsm::hold_tombstones_above`]).
    tombstone_hold: AtomicU64,
}

/// The index LSM-tree.
pub struct Lsm {
    inner: Arc<Inner>,
    bg_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

// A shard set's maintenance fan-out runs each member's flush,
// compaction and GC on scoped worker threads through `&Lsm`, and server
// connections share the engine; keep it `Send + Sync`.
#[allow(dead_code)]
fn _assert_lsm_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Lsm>();
}

impl Lsm {
    /// The change-data-capture hub: subscribe with
    /// [`ChangeLog::subscribe_from`](crate::changelog::ChangeLog) and
    /// friends; committed groups are published here in commit order.
    pub fn change_log(&self) -> Arc<crate::changelog::ChangeLog> {
        self.inner.cdc.clone()
    }

    /// The store's file-number counter, which the value files above the
    /// tree number themselves from too.
    pub fn file_numbers(&self) -> FileNumbers {
        self.inner.file_numbers.clone()
    }

    /// Engine counters.
    pub fn counters(&self) -> &LsmCounters {
        &self.inner.counters
    }

    /// Last committed sequence number.
    pub fn last_sequence(&self) -> SeqNo {
        self.inner.seq.load(Ordering::SeqCst)
    }

    /// Keep every tombstone newer than `seq`: until the hold is moved,
    /// flush and compaction do not elide them even at the bottom of the
    /// tree, so [`latest_seq`](Lsm::latest_seq) keeps answering "deleted
    /// at sequence s" rather than "never written". `MAX_SEQNO` releases
    /// the hold. The two-phase-commit coordinator holds each shard at the
    /// floor of the oldest prepare in its log: roll-forward tells a
    /// superseded entry from a lost one by that answer.
    ///
    /// A job reads the hold after its inputs are fixed, so a hold set at
    /// the current last sequence also binds jobs already running: their
    /// inputs hold nothing newer.
    pub fn hold_tombstones_above(&self, seq: SeqNo) {
        self.inner.tombstone_hold.store(seq, Ordering::SeqCst);
    }

    fn tombstone_hold(&self) -> SeqNo {
        self.inner.tombstone_hold.load(Ordering::SeqCst)
    }

    /// Numbers of the key SSTs whose reader the table cache keeps,
    /// ascending.
    pub fn table_readers(&self) -> Vec<u64> {
        self.inner.tcache.readers.file_numbers()
    }

    /// The live version (file layout).
    pub fn current_version(&self) -> Arc<Version> {
        self.inner.manifest.lock().log.current()
    }

    // ---------------- superversion ----------------

    /// Install a new superversion: copy the current bundle under the
    /// install lock, apply `change` to the copy, and store it. The lock
    /// linearizes installs, so every bundle carries every earlier change
    /// and a slow installer never stores a stale one.
    fn install(&self, change: impl FnOnce(&mut SuperVersion)) {
        let _install = self.inner.sv_install.lock();
        let mut sv = SuperVersion::clone(&self.inner.sv.read());
        change(&mut sv);
        *self.inner.sv.write() = Arc::new(sv);
    }

    /// Install the current SST version (after a compaction apply, trivial
    /// move or value-store edit). It is read under the install lock, not
    /// passed in, so racing installers converge on the newest version.
    fn install_version(&self) {
        self.install(|sv| sv.version = self.current_version());
    }

    /// Pin the current superversion without registering a read point.
    fn superversion(&self) -> Arc<SuperVersion> {
        self.inner.sv.read().clone()
    }

    /// Take a pinned, registered read view at the latest sequence. All
    /// reads through the view are strictly consistent: the versions
    /// visible at its sequence survive concurrent flush, compaction, and
    /// GC for as long as the view lives.
    pub fn view(&self) -> LsmView {
        self.registered_view(ReadPointKind::Pin)
    }

    fn registered_view(&self, kind: ReadPointKind) -> LsmView {
        // Register first (capturing the sequence under the registry
        // lock), then pin the bundle: the bundle can only be newer than
        // the registration, never miss data at the registered sequence.
        let pin = self.inner.read_points.register(kind);
        LsmView::new(self.superversion(), self.inner.tcache.clone(), pin)
    }

    // ---------------- reads ----------------

    /// Sequence of the newest version of `key` — **including
    /// tombstones** (unlike [`get`](Lsm::get), which folds a tombstone
    /// into `Deleted` without its sequence). `None` if no version of the
    /// key exists. This is the read-set validation primitive for
    /// optimistic transactions: a read of `key` at sequence `s` is still
    /// valid iff `latest_seq(key) <= s`.
    pub fn latest_seq(&self, key: &[u8]) -> Result<Option<SeqNo>> {
        let _pin = self.inner.read_points.pin_transient();
        let sv = self.superversion();
        latest_version_seq(&sv, &self.inner.tcache, key)
    }

    /// Latest visible version of `key`, through a transient pinned view
    /// (single pass, strictly consistent).
    ///
    /// The pin is released on return; callers that must resolve a
    /// returned `ValueRef` against an external value store should use
    /// [`get_resolved`](Lsm::get_resolved) so the resolution happens
    /// while the read point is still registered.
    pub fn get(&self, key: &[u8]) -> Result<LsmReadResult> {
        self.get_resolved(key, Ok)
    }

    /// Latest visible version of `key`, with `resolve` invoked while the
    /// read's transient pin is still registered — the whole
    /// index-lookup-then-value-fetch sequence observes one point in
    /// time. This is the engine-above's single-pass `get` path.
    ///
    /// Hand-rolled instead of going through [`view`](Lsm::view): a
    /// borrowed pin plus one superversion grab keeps the hot path free
    /// of owned-guard `Arc` traffic.
    pub fn get_resolved<T>(
        &self,
        key: &[u8],
        resolve: impl FnOnce(LsmReadResult) -> Result<T>,
    ) -> Result<T> {
        // Register before pinning the bundle, like `view()`.
        let pin = self.inner.read_points.pin_transient();
        let sv = self.superversion();
        let r = read_superversion(&sv, &self.inner.tcache, key, pin.sequence())?;
        resolve(r)
    }

    /// Version of `key` visible at `read_seq`, over the current pinned
    /// superversion.
    ///
    /// This does **not** register `read_seq`: strictness is only
    /// guaranteed when the caller holds an [`LsmView`] keeping that
    /// sequence registered — prefer reading through those
    /// handles directly.
    pub fn get_at(&self, key: &[u8], read_seq: SeqNo) -> Result<LsmReadResult> {
        read_superversion(&self.superversion(), &self.inner.tcache, key, read_seq)
    }

    /// Pin the current state into a reusable [`BatchReader`] for batched,
    /// co-sequential point lookups (the GC-Lookup path). The
    /// reader owns a registered view: concurrent writes after this call
    /// are not observed, and the versions visible at its sequence survive
    /// concurrent flush/compaction/GC — exactly the consistency a GC
    /// validation batch wants.
    pub fn batch_reader(&self) -> BatchReader {
        BatchReader::new(self.view())
    }

    /// A registered view counted as a user snapshot: it pins its versions
    /// as any view does, and the snapshot gauge of
    /// [`read_point_counts`](Lsm::read_point_counts) counts it. The
    /// engine above wraps this in its own snapshot handle.
    pub fn snapshot_view(&self) -> LsmView {
        self.registered_view(ReadPointKind::Snapshot)
    }

    /// All registered read points — snapshots *and* transient view pins —
    /// ascending and deduplicated. Flush, compaction, and GC must keep
    /// the versions visible at each of these sequences.
    pub fn read_points(&self) -> Vec<SeqNo> {
        self.inner.read_points.read_point_seqs()
    }

    /// The oldest registered read point, or `None` when no reader is in
    /// flight. The engine's value-file retirement barriers compare
    /// against this.
    pub fn oldest_read_point(&self) -> Option<SeqNo> {
        self.inner.read_points.oldest()
    }

    /// `(transient view pins, user snapshots)` currently registered.
    /// Gauges, not counters: a non-zero value means readers are in
    /// flight *right now*, holding back version retirement (and, in
    /// Titan/BlobDB modes, the unlink of retired value files).
    pub fn read_point_counts(&self) -> (usize, usize) {
        self.inner.read_points.counts()
    }
}

#[cfg(test)]
mod tests;
