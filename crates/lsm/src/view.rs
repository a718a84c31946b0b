//! Pinned read views (RocksDB-style *superversions*).
//!
//! The tree's state is one immutable [`SuperVersion`]: an `Arc` bundle
//! of {active memtable, immutable memtables, SST [`Version`]}. It is the
//! only copy of the memtable list — the write path, flush and recovery
//! read and change the list through it too. Every structural mutation —
//! memtable rotation, flush, compaction apply, value-store edit —
//! installs a changed copy. A reader pins the bundle with **one** `Arc`
//! clone and walks it, so no interleaving of rotation/flush/compaction
//! can tear a read.
//!
//! Pinning the structures is only half of consistency: a view also
//! *registers* its visible sequence in the engine's read-point
//! registry. Flush, compaction, and the value GC all treat
//! registered sequences as **read points** whose visible versions must
//! survive, which is what makes a [`LsmView`] read *strict*: the exact
//! `(key → version)` mapping at the view's sequence stays resolvable for
//! the view's whole lifetime, even across flush + compaction + GC. (The
//! seed engine instead re-walked live structures per read and papered
//! over lost versions with a retry loop in the layer above.)
//!
//! Registration and sequence capture happen under one mutex, and the GC
//! reads the registry only *after* registering its own latest-sequence
//! pin. That ordering closes the race where a reader picks a sequence,
//! the GC (which never saw it) retires a value that sequence still
//! needs, and the reader dangles: any reader registered after the GC's
//! registry scan necessarily observes a sequence at or above the GC's
//! newest read point.

use crate::db::LsmReadResult;
use crate::iter::{BatchSweep, DbIter, Horizon, LevelIter, MergingIter, UserEntry, VecIter};
use crate::memtable::{MemGet, Memtable};
use crate::tcache::{KTable, TableCache};
use crate::version::Version;
use bytes::Bytes;
use parking_lot::Mutex;
use scavenger_table::InternalIterator;
use scavenger_util::ikey::{lookup_key, parse_internal_key, SeqNo, ValueType, MAX_SEQNO};
use scavenger_util::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An immutable snapshot of the tree's structure: the active memtable,
/// the frozen (immutable) memtables newest-first, and the SST file
/// layout. Installed atomically by every structural mutation; readers pin
/// it with a single `Arc` clone.
///
/// The active memtable keeps receiving concurrent inserts through the
/// shared `Arc`, but every insert carries a sequence above the reader's
/// visible sequence at pin time, so visibility filtering makes the view
/// immutable *as observed*.
#[derive(Clone)]
pub struct SuperVersion {
    pub(crate) mem: Arc<Memtable>,
    /// Immutable memtables, newest first.
    pub(crate) imms: Vec<Imm>,
    pub(crate) version: Arc<Version>,
}

/// A frozen memtable awaiting flush, with the WAL that covered it.
#[derive(Clone)]
pub(crate) struct Imm {
    pub(crate) mem: Arc<Memtable>,
    pub(crate) wal_number: u64,
    /// The WAL covering this memtable was durable to its last record
    /// when it was closed. False only after a WAL fault: then nothing
    /// short of flushing this memtable makes its entries durable.
    pub(crate) wal_durable: bool,
}

impl SuperVersion {
    /// An empty superversion (fresh tree).
    pub(crate) fn empty() -> SuperVersion {
        SuperVersion {
            mem: Arc::new(Memtable::new()),
            imms: Vec::new(),
            version: Arc::new(Version::empty()),
        }
    }
}

/// What a registered read point represents. Both kinds protect the
/// versions visible at their sequence alike; they differ only in which
/// gauge of [`ReadPointRegistry::counts`] counts them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadPointKind {
    /// A transient pin taken by an in-flight read or GC job.
    Pin,
    /// A user-visible snapshot handle.
    Snapshot,
}

#[derive(Default)]
struct RegistryInner {
    pins: Vec<SeqNo>,
    snapshots: Vec<SeqNo>,
}

/// Registry of sequences that in-flight readers still need. Flush,
/// compaction, and GC must preserve the versions visible at every
/// registered sequence (plus the latest).
pub(crate) struct ReadPointRegistry {
    /// The engine's last-sequence counter; read under the registry lock
    /// so registration and sequence capture are one atomic step.
    seq: Arc<AtomicU64>,
    inner: Mutex<RegistryInner>,
}

impl ReadPointRegistry {
    pub(crate) fn new(seq: Arc<AtomicU64>) -> Arc<ReadPointRegistry> {
        Arc::new(ReadPointRegistry {
            seq,
            inner: Mutex::new(RegistryInner::default()),
        })
    }

    /// Register a read point at the current last sequence. The sequence
    /// is read under the registry lock: anyone who scans the registry
    /// (under the same lock) and then reads the last sequence is
    /// guaranteed to cover this registration.
    pub(crate) fn register(self: &Arc<Self>, kind: ReadPointKind) -> ReadPointGuard {
        let mut inner = self.inner.lock();
        let seq = self.seq.load(Ordering::SeqCst);
        match kind {
            ReadPointKind::Pin => inner.pins.push(seq),
            ReadPointKind::Snapshot => inner.snapshots.push(seq),
        }
        ReadPointGuard {
            seq,
            kind,
            registry: self.clone(),
        }
    }

    /// Register an additional pin at an already-protected sequence (used
    /// by iterators that must outlive the view they were opened from).
    pub(crate) fn register_at(self: &Arc<Self>, seq: SeqNo, kind: ReadPointKind) -> ReadPointGuard {
        let mut inner = self.inner.lock();
        match kind {
            ReadPointKind::Pin => inner.pins.push(seq),
            ReadPointKind::Snapshot => inner.snapshots.push(seq),
        }
        ReadPointGuard {
            seq,
            kind,
            registry: self.clone(),
        }
    }

    /// All registered read points (pins and snapshots), ascending and
    /// deduplicated.
    pub(crate) fn read_point_seqs(&self) -> Vec<SeqNo> {
        let inner = self.inner.lock();
        let mut v: Vec<SeqNo> = inner
            .pins
            .iter()
            .chain(inner.snapshots.iter())
            .copied()
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The oldest registered read point, if any reader is in flight.
    pub(crate) fn oldest(&self) -> Option<SeqNo> {
        let inner = self.inner.lock();
        inner
            .pins
            .iter()
            .chain(inner.snapshots.iter())
            .copied()
            .min()
    }

    /// `(transient pins, snapshots)` currently registered — the gauges
    /// surfaced by the engine's stats.
    pub(crate) fn counts(&self) -> (usize, usize) {
        let inner = self.inner.lock();
        (inner.pins.len(), inner.snapshots.len())
    }
}

/// A borrowed, transient pin for one-shot reads (`Lsm::get`): same
/// registration semantics as [`ReadPointGuard`] without the `Arc`
/// traffic of an owned guard — the hot point-read path stays within
/// noise of the unpinned engine.
pub(crate) struct TransientPin<'a> {
    seq: SeqNo,
    registry: &'a ReadPointRegistry,
}

impl TransientPin<'_> {
    pub(crate) fn sequence(&self) -> SeqNo {
        self.seq
    }
}

impl Drop for TransientPin<'_> {
    fn drop(&mut self) {
        let mut inner = self.registry.inner.lock();
        if let Some(pos) = inner.pins.iter().position(|&s| s == self.seq) {
            inner.pins.swap_remove(pos);
        }
    }
}

impl ReadPointRegistry {
    /// Register a transient pin at the current last sequence, borrowing
    /// the registry instead of cloning its `Arc`.
    pub(crate) fn pin_transient(&self) -> TransientPin<'_> {
        let mut inner = self.inner.lock();
        let seq = self.seq.load(Ordering::SeqCst);
        inner.pins.push(seq);
        TransientPin {
            seq,
            registry: self,
        }
    }
}

/// RAII registration of one read point; dropping it unregisters the
/// sequence.
pub struct ReadPointGuard {
    seq: SeqNo,
    kind: ReadPointKind,
    registry: Arc<ReadPointRegistry>,
}

impl ReadPointGuard {
    /// The registered sequence.
    pub fn sequence(&self) -> SeqNo {
        self.seq
    }
}

impl Drop for ReadPointGuard {
    fn drop(&mut self) {
        let mut inner = self.registry.inner.lock();
        let list = match self.kind {
            ReadPointKind::Pin => &mut inner.pins,
            ReadPointKind::Snapshot => &mut inner.snapshots,
        };
        if let Some(pos) = list.iter().position(|&s| s == self.seq) {
            list.swap_remove(pos);
        }
    }
}

/// A pinned, registered, strictly-consistent read view of the tree.
///
/// Obtained from [`Lsm::view`](crate::db::Lsm::view) or, registered as
/// a snapshot, [`Lsm::snapshot_view`](crate::db::Lsm::snapshot_view).
/// All reads resolve against the pinned [`SuperVersion`]
/// at the view's sequence; concurrent writes, flushes, compactions, and
/// GC jobs are never observed and can never invalidate the view.
pub struct LsmView {
    sv: Arc<SuperVersion>,
    seq: SeqNo,
    tcache: Arc<TableCache>,
    pin: ReadPointGuard,
}

impl LsmView {
    pub(crate) fn new(sv: Arc<SuperVersion>, tcache: Arc<TableCache>, pin: ReadPointGuard) -> Self {
        LsmView {
            sv,
            seq: pin.sequence(),
            tcache,
            pin,
        }
    }

    /// The sequence this view reads at.
    pub fn sequence(&self) -> SeqNo {
        self.seq
    }

    /// The pinned file-layout version.
    pub fn version(&self) -> &Arc<Version> {
        &self.sv.version
    }

    /// Point lookup at the view's sequence.
    pub fn get(&self, key: &[u8]) -> Result<LsmReadResult> {
        read_superversion(&self.sv, &self.tcache, key, self.seq)
    }

    /// Point lookup at an earlier sequence than the view's own (e.g. a
    /// registered snapshot's). Sequences above the view's read whatever
    /// the pinned structures contain, which may be stale — pass only
    /// sequences `<=` [`sequence`](LsmView::sequence).
    pub fn get_at(&self, key: &[u8], read_seq: SeqNo) -> Result<LsmReadResult> {
        read_superversion(&self.sv, &self.tcache, key, read_seq)
    }

    /// Range scan of visible entries with `lo <= user_key < hi`
    /// (`hi = None` is unbounded) at the view's sequence. The returned
    /// iterator carries its own pin, so it stays strict even if the view
    /// is dropped first.
    pub fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<ScanIter> {
        let pin = self.pin.registry.register_at(self.seq, ReadPointKind::Pin);
        scan_superversion(self.sv.clone(), &self.tcache, lo, hi, self.seq, pin)
    }
}

/// Walk a pinned superversion for the newest version of `key` visible at
/// `read_seq` — a tombstone included, with its sequence: active
/// memtable, immutable memtables newest-first, then the SST levels.
fn newest_version(
    sv: &SuperVersion,
    tcache: &Arc<TableCache>,
    key: &[u8],
    read_seq: SeqNo,
) -> Result<MemGet> {
    let target = lookup_key(key, read_seq, ValueType::ValueRef);
    for mem in std::iter::once(&sv.mem).chain(sv.imms.iter().map(|imm| &imm.mem)) {
        match mem.get(&target) {
            MemGet::NotFound => {}
            newest => return Ok(newest),
        }
    }
    for f in sv.version.files_covering(key) {
        if let Some(entry) = tcache.get(f.file_number)?.get(&target)? {
            let parsed = parse_internal_key(entry.key())?;
            if parsed.user_key == key {
                return Ok(match parsed.vtype {
                    ValueType::Deletion => MemGet::Deleted(parsed.seq),
                    vtype => MemGet::Found {
                        seq: parsed.seq,
                        vtype,
                        value: entry.value(),
                    },
                });
            }
        }
    }
    Ok(MemGet::NotFound)
}

/// The version of `key` visible at `read_seq` in a pinned superversion,
/// a tombstone folded into `Deleted`.
pub(crate) fn read_superversion(
    sv: &SuperVersion,
    tcache: &Arc<TableCache>,
    key: &[u8],
    read_seq: SeqNo,
) -> Result<LsmReadResult> {
    Ok(match newest_version(sv, tcache, key, read_seq)? {
        MemGet::NotFound => LsmReadResult::NotFound,
        MemGet::Deleted(_) => LsmReadResult::Deleted,
        MemGet::Found { seq, vtype, value } => LsmReadResult::Found { seq, vtype, value },
    })
}

/// Sequence of the newest version of `key` in a pinned superversion —
/// **including tombstones**. This is the read-set validation primitive
/// for optimistic transactions: a key conflicts iff its newest version
/// (write *or* delete) is newer than the transaction's read point.
/// Returns `None` when no version of the key exists anywhere.
pub(crate) fn latest_version_seq(
    sv: &SuperVersion,
    tcache: &Arc<TableCache>,
    key: &[u8],
) -> Result<Option<SeqNo>> {
    Ok(match newest_version(sv, tcache, key, MAX_SEQNO)? {
        MemGet::NotFound => None,
        MemGet::Deleted(seq) | MemGet::Found { seq, .. } => Some(seq),
    })
}

/// Build a merged scan over a pinned superversion.
pub(crate) fn scan_superversion(
    sv: Arc<SuperVersion>,
    tcache: &Arc<TableCache>,
    lo: &[u8],
    hi: Option<&[u8]>,
    read_seq: SeqNo,
    pin: ReadPointGuard,
) -> Result<ScanIter> {
    let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
    children.push(Box::new(VecIter::new(sv.mem.snapshot_range(lo, hi))));
    for imm in &sv.imms {
        children.push(Box::new(VecIter::new(imm.mem.snapshot_range(lo, hi))));
    }
    for f in &sv.version.levels[0] {
        if f.user_range_overlaps(Some(lo), hi) {
            children.push(tcache.get(f.file_number)?.iter());
        }
    }
    for level in 1..sv.version.levels.len() {
        let files = sv.version.overlapping_files(level, Some(lo), hi);
        if !files.is_empty() {
            children.push(Box::new(LevelIter::new(
                files,
                tcache.clone(),
                KTable::iter,
            )));
        }
    }
    let mut it = DbIter::new(MergingIter::new(children), read_seq);
    it.seek(lo);
    Ok(ScanIter {
        inner: it,
        hi: hi.map(|h| h.to_vec()),
        done: false,
        _sv: sv,
        _pin: pin,
    })
}

/// User-facing scan iterator with an exclusive upper bound. Holds the
/// superversion it iterates (so lazily-opened table files cannot be
/// purged mid-scan) and its own read-point pin.
///
/// Also implements [`Iterator`] over `Result<UserEntry>` (fusing after
/// the first error or end-of-range), mirroring the engine-level scan
/// iterators built on top of it.
pub struct ScanIter {
    inner: DbIter,
    hi: Option<Vec<u8>>,
    done: bool,
    _sv: Arc<SuperVersion>,
    _pin: ReadPointGuard,
}

impl ScanIter {
    /// Advance the merged iterator and apply the exclusive upper bound.
    fn bounded_next(&mut self) -> Result<Option<UserEntry>> {
        match self.inner.next_entry()? {
            Some(e) => {
                if let Some(h) = &self.hi {
                    if e.user_key.as_slice() >= h.as_slice() {
                        return Ok(None);
                    }
                }
                Ok(Some(e))
            }
            None => Ok(None),
        }
    }

    /// Next visible entry, or `None` past the bound / end of data (thin
    /// wrapper over the [`Iterator`] impl, sharing its fuse).
    pub fn next_entry(&mut self) -> Result<Option<UserEntry>> {
        self.next().transpose()
    }
}

impl Iterator for ScanIter {
    type Item = Result<UserEntry>;

    fn next(&mut self) -> Option<Result<UserEntry>> {
        if self.done {
            return None;
        }
        let pulled = self.bounded_next();
        scavenger_util::iter::fuse(&mut self.done, pulled)
    }
}

/// A shared, sorted memtable snapshot pinned by a [`BatchReader`].
type PinnedMemtable = Arc<Vec<(Vec<u8>, Bytes)>>;

/// A pinned, registered view of the tree materialized for GC-Lookup:
/// any number of [`BatchSweep`]s can be opened cheaply — one per GC read
/// point — each a co-sequential pass over the memtables and the tree's
/// index entries. Produced by
/// [`Lsm::batch_reader`](crate::db::Lsm::batch_reader).
///
/// Built on an [`LsmView`], so the sweep sources are pinned *and* the
/// view's sequence is registered as a read point for the reader's whole
/// lifetime (the GC validation pipeline relies on this). The pinned
/// version is also what a sweep's inline check searches, so both halves
/// of a verdict see the same files.
///
/// A `BatchReader` is `Send + Sync` (asserted by a compile-time test):
/// a GC job builds one reader up front and hands it to stage workers —
/// the pipelined executor's validate stage, or `gc_threads` parallel
/// sweep workers — which open per-thread sweeps over the shared pin.
pub struct BatchReader {
    mem: PinnedMemtable,
    imms: Vec<PinnedMemtable>,
    view: LsmView,
}

impl BatchReader {
    pub(crate) fn new(view: LsmView) -> BatchReader {
        let mem = Arc::new(view.sv.mem.snapshot());
        let imms: Vec<PinnedMemtable> = view
            .sv
            .imms
            .iter()
            .map(|imm| Arc::new(imm.mem.snapshot()))
            .collect();
        BatchReader { mem, imms, view }
    }

    /// Open a GC-Lookup sweep of the pinned view at `read_seq`. Children
    /// are built newest-source-first so merged ties resolve like a point
    /// lookup: the memtables complete, every key SST as its index entries
    /// only (see [`BatchSweep`] for what that leaves to the inline check),
    /// each with the `Horizon` of files no older than it.
    pub fn sweep(&self, read_seq: SeqNo) -> Result<BatchSweep> {
        type Child = (Box<dyn InternalIterator>, Horizon);
        let memtable = Horizon {
            l0_files: 0,
            level: 0,
        };
        let mut children: Vec<Child> = Vec::new();
        children.push((Box::new(VecIter::from_shared(self.mem.clone())), memtable));
        for imm in &self.imms {
            children.push((Box::new(VecIter::from_shared(imm.clone())), memtable));
        }
        let version = &self.view.sv.version;
        for (pos, f) in version.levels[0].iter().enumerate() {
            let table = self.view.tcache.get(f.file_number)?;
            let horizon = Horizon {
                l0_files: pos + 1,
                level: 0,
            };
            children.push((table.index_iter(), horizon));
        }
        for level in 1..version.levels.len() {
            let files = &version.levels[level];
            if !files.is_empty() {
                let iter =
                    LevelIter::new(files.clone(), self.view.tcache.clone(), KTable::index_iter);
                let horizon = Horizon {
                    l0_files: version.levels[0].len(),
                    level,
                };
                children.push((Box::new(iter), horizon));
            }
        }
        Ok(BatchSweep::new(
            children,
            version.clone(),
            self.view.tcache.clone(),
            read_seq,
        ))
    }

    /// The pinned file-layout version (kept alive while sweeps run).
    pub fn version(&self) -> &Arc<Version> {
        self.view.version()
    }

    /// The sequence this reader's pin registered as a read point: every
    /// version visible at or below it stays resolvable for the reader's
    /// lifetime.
    pub fn sequence(&self) -> SeqNo {
        self.view.sequence()
    }

    /// The underlying registered view.
    pub fn view(&self) -> &LsmView {
        &self.view
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The GC executor hands one `BatchReader` (and the `LsmView` inside
    /// it) across stage threads; this must never silently regress.
    #[test]
    fn batch_reader_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BatchReader>();
        assert_send_sync::<LsmView>();
    }
}
