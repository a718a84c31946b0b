//! The index LSM-tree engine: write path, superversion-pinned read path,
//! snapshots, flush, compaction scheduling, WAL recovery, and
//! obsolete-file cleanup.
//!
//! All reads go through pinned [`LsmView`]s (see [`crate::view`]): the
//! engine installs a fresh [`SuperVersion`] at every structural mutation,
//! and a read pins one bundle + registers its sequence instead of walking
//! the live structures.

use crate::batch::{WriteBatch, WriteOptions, WriteReceipt};
use crate::compaction::{
    compute_targets, level_units, pick_compaction, run_output_job, Compaction, PickerState,
};
use crate::filename::{parse_path, table_path, wal_path, FileKind};
use crate::group::{GroupCommit, GroupLeader, Logged};
use crate::hooks::{FileNumAlloc, JobKind, PassthroughSession, ValueSession};
use crate::iter::{InternalIterator, MergingIter, TableEntryIter, VecIter};
use crate::memtable::Memtable;
use crate::options::{BackgroundMode, LsmOptions};
use crate::tcache::{ktable_from_file, TableCache};
use crate::version::{Manifest, ManifestLeader, Version, VersionEdit, VersionSet};
use crate::view::{
    latest_version_seq, read_superversion, BatchReader, LsmView, ReadPointKind, ReadPointRegistry,
    ScanIter, Snapshot, SuperVersion,
};
use crate::wal::LogWriter;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};
use scavenger_env::{IoClass, ReadaheadFile};
use scavenger_table::btable::BlockCache;
use scavenger_table::cache::cache_file_id;
use scavenger_util::ikey::{SeqNo, ValueRef, ValueType};
use scavenger_util::{Error, Result};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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

/// A conditional put used by Titan-style GC write-back: the new reference
/// is installed only if the key still points at the expected old location.
#[derive(Debug, Clone)]
pub struct GuardedWrite {
    /// User key.
    pub key: Vec<u8>,
    /// The reference the GC read the value through.
    pub expected: ValueRef,
    /// The reference to the relocated value.
    pub replacement: ValueRef,
}

/// What a write must still find when its commit group is written. The
/// WAL leader checks it under the log lock against the tree *and* the
/// keys earlier members of the same group wrote, so nothing can land
/// between the check and the write ([`Lsm::write_checked`]).
#[derive(Debug, Clone)]
pub enum Precondition {
    /// An optimistic transaction's read set: no key may have a version —
    /// write or tombstone — newer than the sequence it was read at. A
    /// stale read rejects the whole batch with [`Error::TxnConflict`].
    Reads(Vec<(Vec<u8>, SeqNo)>),
    /// Titan's write-back (paper §II-B): each entry is put only while its
    /// key still points at `expected`; the others are dropped.
    Guarded(Vec<GuardedWrite>),
}

/// Immutable memtables a threaded-mode writer tolerates before it
/// stalls for the flusher (RocksDB's `max_write_buffer_number - 1`).
pub const MAX_IMM_MEMTABLES: usize = 2;

/// Forward read-ahead span of a compaction input (RocksDB's
/// `compaction_readahead_size`): large enough that the device model's
/// per-op cost stops dominating a sequential scan, small next to a
/// compaction's other buffers. A constant, not an option — nothing
/// varies it.
const COMPACTION_READAHEAD: usize = 256 * 1024;

/// The live WAL. Its poison flag ([`Logged::poisoned`]) is set after an
/// append or `sync()` on it failed; the writer then rotates to a fresh
/// WAL before accepting new records — the fsync is never retried.
struct WriterState {
    wal: Option<LogWriter>,
    wal_number: u64,
}

/// The WAL's state behind the commit queue's log lock.
type Writer = Logged<WriterState>;

/// One writer's batch in the commit queue.
struct QueuedWrite {
    batch: WriteBatch,
    sync: bool,
    /// Change-stream transaction tag carried through from
    /// [`WriteOptions::txn_id`].
    txn_id: Option<u64>,
    check: Option<Precondition>,
}

/// The WAL's half of a group commit: a poisoned WAL is left behind by
/// freezing the memtable it covered, and a group is
/// [`commit_group`](Lsm::commit_group). A member's receipt is an error
/// when its precondition failed.
impl GroupLeader<WriterState, QueuedWrite, Result<WriteReceipt>> for Lsm {
    fn rotate(&self, ws: &mut Writer) -> Result<()> {
        self.rotate_memtable(ws)
    }

    fn write(
        &self,
        ws: &mut Writer,
        writes: Vec<QueuedWrite>,
    ) -> Result<Vec<Result<WriteReceipt>>> {
        self.commit_group(ws, writes)
    }
}

struct ImmEntry {
    mem: Arc<Memtable>,
    wal_number: u64,
    /// The WAL covering this memtable was durable to its last record
    /// when it was closed. False only after a WAL fault: then nothing
    /// short of flushing this memtable makes its entries durable.
    wal_durable: bool,
}

#[derive(Default)]
struct BgSignal {
    work_pending: bool,
    shutdown: bool,
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
    mem: RwLock<Arc<Memtable>>,
    imms: RwLock<Vec<ImmEntry>>,
    /// The version set behind the MANIFEST's commit queue.
    manifest: Manifest,
    seq: Arc<AtomicU64>,
    file_counter: Arc<AtomicU64>,
    picker: Mutex<PickerState>,
    read_points: Arc<ReadPointRegistry>,
    /// The current pinned-read bundle; replaced (never mutated) by
    /// [`Lsm::install_superversion`] after every structural change.
    sv: RwLock<Arc<SuperVersion>>,
    /// Serializes superversion rebuild+store so a slow installer cannot
    /// overwrite a newer bundle with a stale one.
    sv_install: Mutex<()>,
    /// Serializes [`Lsm::run_background_work`]: in inline mode every
    /// writer thread runs flushes/compactions on its own stack, and two
    /// threads picking the same imm to flush would double-flush it (one
    /// panics on the missing registration). Held for the whole
    /// flush-until-quiet loop.
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
    /// Key-SST files replaced by compactions, awaiting deletion once no
    /// in-flight reader's version references them.
    pending_deletions: Mutex<Vec<u64>>,
    /// Change-data-capture hub: publication ring, retained-WAL catalog,
    /// and subscriber registry (see [`crate::changelog`]).
    cdc: Arc<crate::changelog::ChangeLog>,
    closed: AtomicBool,
    /// Flush and compaction never elide a tombstone newer than this
    /// sequence (see [`Lsm::hold_tombstones_above`]).
    tombstone_hold: AtomicU64,
}

/// Allocates file numbers from the shared counter.
struct CounterAlloc(Arc<AtomicU64>);

impl FileNumAlloc for CounterAlloc {
    fn next_file_number(&self) -> u64 {
        self.0.fetch_add(1, Ordering::SeqCst)
    }
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
    /// Open (or create) the tree, recovering manifest and WALs. Returns the
    /// engine and the value-store edit history for replay by the layer
    /// above.
    pub fn open(opts: LsmOptions) -> Result<(Lsm, Vec<crate::hooks::ValueEditBundle>)> {
        let env = opts.env.clone();
        env.create_dir_all(&opts.dir)?;
        let recovered = VersionSet::open(env.clone(), &opts.dir, opts.num_levels)?;
        let vset = recovered.vset;
        let value_replay = recovered.value_replay;
        let seq = vset.seq_counter();
        let file_counter = vset.file_counter();
        let block_cache = opts
            .block_cache
            .clone()
            .unwrap_or_else(|| Arc::new(BlockCache::with_capacity(opts.block_cache_bytes)));
        let tcache = Arc::new(TableCache::new(&opts, block_cache));

        let cdc = crate::changelog::ChangeLog::new(
            env.clone(),
            opts.dir.clone(),
            seq.clone(),
            opts.cdc_retention,
            opts.cdc_ring_bytes,
        );

        let inner = Arc::new(Inner {
            tcache,
            cdc,
            wal: GroupCommit::new(WriterState {
                wal: None,
                wal_number: 0,
            }),
            mem: RwLock::new(Arc::new(Memtable::new())),
            imms: RwLock::new(Vec::new()),
            read_points: ReadPointRegistry::new(seq.clone()),
            sv: RwLock::new(Arc::new(SuperVersion::empty(opts.num_levels))),
            sv_install: Mutex::new(()),
            bg_work: Mutex::new(()),
            seq,
            file_counter,
            picker: Mutex::new(PickerState::new(opts.num_levels)),
            counters: LsmCounters::default(),
            bg_signal: Mutex::new(BgSignal::default()),
            bg_cv: Condvar::new(),
            stall_lock: Mutex::new(()),
            stall_cv: Condvar::new(),
            bg_error: Mutex::new(None),
            degraded: AtomicBool::new(false),
            pending_deletions: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
            tombstone_hold: AtomicU64::new(opts.tombstone_hold),
            manifest: Manifest::new(vset),
            opts,
        });

        let db = Lsm {
            inner,
            bg_thread: Mutex::new(None),
        };
        db.install_superversion();
        db.recover_wals()?;
        db.start_fresh_wal()?;
        // start_fresh_wal logged a manifest edit (new log number), which
        // produced a fresh current version; re-sync the bundle so the
        // CoW install chain starts from an exact mirror of the live
        // structures.
        db.install_superversion();
        db.delete_obsolete_files()?;
        if db.inner.opts.background == BackgroundMode::Threaded {
            db.spawn_bg_thread();
        }
        Ok((db, value_replay))
    }

    /// The engine options.
    pub fn options(&self) -> &LsmOptions {
        &self.inner.opts
    }

    /// The change-data-capture hub: subscribe with
    /// [`ChangeLog::subscribe_from`](crate::changelog::ChangeLog) and
    /// friends; committed groups are published here in commit order.
    pub fn change_log(&self) -> Arc<crate::changelog::ChangeLog> {
        self.inner.cdc.clone()
    }

    /// Shared block cache.
    pub fn block_cache(&self) -> Arc<BlockCache> {
        self.inner.tcache.block_cache()
    }

    /// A file-number allocator backed by the engine's global counter.
    pub fn file_alloc(&self) -> Arc<dyn FileNumAlloc> {
        Arc::new(CounterAlloc(self.inner.file_counter.clone()))
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

    /// The live version (file layout).
    pub fn current_version(&self) -> Arc<Version> {
        self.inner.manifest.lock().log.current()
    }

    // ---------------- superversion ----------------

    /// Rebuild the pinned-read bundle from the live structures and
    /// install it. This is the *full rebuild* path: it re-reads the
    /// active memtable, the immutable list, and the current version
    /// under their respective locks. Used at open/recovery, when no
    /// bundle exists yet to copy from; every steady-state mutation goes
    /// through the copy-on-write installers below instead, which swap
    /// only the member they changed.
    fn install_superversion(&self) {
        // Rebuild under the install lock so a slower concurrent installer
        // cannot overwrite this (newer) bundle with an older one.
        let _install = self.inner.sv_install.lock();
        let sv = {
            let mem = self.inner.mem.read().clone();
            let imms: Vec<Arc<Memtable>> = self
                .inner
                .imms
                .read()
                .iter()
                .rev()
                .map(|e| e.mem.clone())
                .collect();
            let version = self.current_version();
            Arc::new(SuperVersion { mem, imms, version })
        };
        *self.inner.sv.write() = sv;
    }

    // Copy-on-write installers. Each takes the install lock, clones the
    // *current* bundle's unchanged members (`Arc` clones, no structure
    // locks), swaps in the changed one, and stores the new bundle. The
    // install lock linearizes installs, so every bundle observes all
    // prior CoW updates — the mirror invariant (`sv` ≡ live structures
    // at quiescence) is preserved without ever re-reading the live
    // structures on the hot path.

    /// CoW install after a memtable rotation: `frozen` (the old active
    /// memtable) is prepended to the immutable list and `fresh` becomes
    /// the active member. The SST version is untouched — the bundle keeps
    /// whatever version is currently installed, which a concurrent
    /// version-swap installer may advance before or after this (both
    /// orders yield consistent bundles).
    fn install_sv_rotated(&self, fresh: Arc<Memtable>, frozen: Arc<Memtable>) {
        let _install = self.inner.sv_install.lock();
        let old = self.inner.sv.read().clone();
        let mut imms = Vec::with_capacity(old.imms.len() + 1);
        imms.push(frozen);
        imms.extend(old.imms.iter().cloned());
        *self.inner.sv.write() = Arc::new(SuperVersion {
            mem: fresh,
            imms,
            version: old.version.clone(),
        });
    }

    /// CoW install after a flush commit: the flushed immutable memtable
    /// leaves the bundle and the SST version advances to the current one
    /// (which contains the new L0 file) in a single swap — readers never
    /// observe the flushed data both as a memtable and as an SST missing,
    /// nor doubled. The version is re-read from the version set under the
    /// install lock so concurrent version installs can never regress.
    fn install_sv_flushed(&self, flushed: &Arc<Memtable>) {
        let _install = self.inner.sv_install.lock();
        let old = self.inner.sv.read().clone();
        let imms: Vec<Arc<Memtable>> = old
            .imms
            .iter()
            .filter(|m| !Arc::ptr_eq(m, flushed))
            .cloned()
            .collect();
        let version = self.current_version();
        *self.inner.sv.write() = Arc::new(SuperVersion {
            mem: old.mem.clone(),
            imms,
            version,
        });
    }

    /// CoW install after a version-only change (compaction apply, trivial
    /// move, value-store edit): only the SST version member is swapped.
    /// The version is read from the version set *under the install lock*,
    /// not passed in, so two racing version installers always converge on
    /// the newest version regardless of install order.
    fn install_sv_version(&self) {
        let _install = self.inner.sv_install.lock();
        let old = self.inner.sv.read().clone();
        let version = self.current_version();
        *self.inner.sv.write() = Arc::new(SuperVersion {
            mem: old.mem.clone(),
            imms: old.imms.clone(),
            version,
        });
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
        // Register first (capturing the sequence under the registry
        // lock), then pin the bundle: the bundle can only be newer than
        // the registration, never miss data at the registered sequence.
        let pin = self.inner.read_points.register(ReadPointKind::Pin);
        LsmView::new(self.superversion(), self.inner.tcache.clone(), pin)
    }

    fn registered_view(&self, kind: ReadPointKind) -> LsmView {
        let pin = self.inner.read_points.register(kind);
        LsmView::new(self.superversion(), self.inner.tcache.clone(), pin)
    }

    // ---------------- write path (group commit) ----------------

    /// Apply a batch atomically with a synced WAL record (default
    /// [`WriteOptions`]).
    pub fn write(&self, batch: WriteBatch) -> Result<WriteReceipt> {
        self.write_opts(&WriteOptions::default(), batch)
    }

    /// Apply a batch atomically through the group-commit queue
    /// ([`GroupCommit`]).
    ///
    /// The leader commits every queued batch as one group: one WAL record
    /// covering all of them, a single fsync if any member asked for
    /// `sync = true`, one memtable pass, and contiguous per-batch sequence
    /// ranges. Failure is group-scoped: a failed WAL append or fsync fails
    /// every member with the same error and poisons the WAL (the next
    /// group rotates away from it — fsyncgate semantics, never retried).
    /// Because the group is one WAL record, a crash tears it as a unit:
    /// recovery replays all of it or none of it.
    pub fn write_opts(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<WriteReceipt> {
        self.write_checked(opts, batch, None)
    }

    /// [`write_opts`](Lsm::write_opts) with a [`Precondition`], checked
    /// by the group's leader when the group is written, against the tree
    /// and against the keys earlier members of the group wrote. A
    /// transaction whose reads went stale gets [`Error::TxnConflict`] and
    /// writes nothing; a guarded write-back writes only the entries whose
    /// key still points at the expected reference. Either way the rest of
    /// the group is written, and a member that ends up writing nothing —
    /// a read-only transaction, a write-back whose every key moved on —
    /// gets an inert receipt (`group_len` 0).
    ///
    /// A read-only transaction does not queue: its validation is its whole
    /// commit, made under the log lock, so it neither waits for the sync
    /// of a group it adds nothing to nor fails on a poisoned WAL.
    pub fn write_checked(
        &self,
        opts: &WriteOptions,
        batch: WriteBatch,
        check: Option<Precondition>,
    ) -> Result<WriteReceipt> {
        let inert = |seq| WriteReceipt {
            seq,
            group_len: 0,
            synced: false,
        };
        match check {
            None if batch.is_empty() => return Ok(inert(self.last_sequence())),
            Some(reads @ Precondition::Reads(_)) if batch.is_empty() => {
                self.admit()?;
                let _ws = self.inner.wal.lock();
                self.checked_batch(reads, batch, &HashSet::new())?;
                return Ok(inert(self.last_sequence()));
            }
            _ => {}
        }
        self.admit()?;
        let before = self.last_sequence();
        let write = QueuedWrite {
            batch,
            sync: opts.sync,
            txn_id: opts.txn_id,
            check,
        };
        let (res, led) = self.inner.wal.commit(write, self);
        if led && self.last_sequence() > before {
            // Only the leader runs background work for the group, and
            // only when the group wrote something; followers are already
            // gone with their receipts.
            self.kick_background()?;
        }
        res?
    }

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

    /// The batch a checked write contributes to its group, or its
    /// rejection. Runs under the writer lock, so the tree is stable;
    /// `written` holds the keys earlier members of the group wrote,
    /// which the tree does not show yet.
    fn checked_batch(
        &self,
        check: Precondition,
        mut batch: WriteBatch,
        written: &HashSet<Vec<u8>>,
    ) -> Result<WriteBatch> {
        match check {
            Precondition::Reads(reads) => {
                for (key, read_seq) in &reads {
                    let when = if written.contains(key) {
                        "earlier in its commit group".to_string()
                    } else {
                        match self.latest_seq(key)? {
                            Some(seq) if seq > *read_seq => format!("at sequence {seq}"),
                            _ => continue,
                        }
                    };
                    return Err(Error::txn_conflict(format!(
                        "key {:?} was written {when}, after the transaction's read point \
                         {read_seq}",
                        String::from_utf8_lossy(key)
                    )));
                }
            }
            Precondition::Guarded(writes) => {
                for w in writes {
                    if !written.contains(&w.key) && self.points_at(&w.key, &w.expected)? {
                        batch.put_ref(&w.key, w.replacement);
                    }
                }
            }
        }
        Ok(batch)
    }

    /// True if the newest version of `key` is a reference to `expected`.
    fn points_at(&self, key: &[u8], expected: &ValueRef) -> Result<bool> {
        Ok(match self.get(key)? {
            LsmReadResult::Found {
                vtype: ValueType::ValueRef,
                value,
                ..
            } => ValueRef::decode(&value)
                .is_ok_and(|cur| cur.file == expected.file && cur.offset == expected.offset),
            _ => false,
        })
    }

    /// Commit one group under the writer lock: check each member's
    /// precondition, merge the batches of the members that pass into a
    /// single WAL record (so a torn tail drops the group as a unit),
    /// fsync once if any writing member requested it, apply to the
    /// memtable in one pass, and assign each batch its contiguous
    /// sequence range. Returns one receipt per member, in queue order; a
    /// failed precondition is that member's error alone. Reached only
    /// through the queue, which poisons the WAL if this fails.
    fn commit_group(
        &self,
        ws: &mut Writer,
        writes: Vec<QueuedWrite>,
    ) -> Result<Vec<Result<WriteReceipt>>> {
        let base = self.inner.seq.load(Ordering::SeqCst) + 1;
        // The keys the members admitted so far wrote; tracked only when
        // some member's precondition must see them.
        let mut written = writes.iter().any(|w| w.check.is_some()).then(HashSet::new);
        let mut merged = WriteBatch::new();
        // Per member: the end of its sequence range and whether it wrote.
        let mut ends: Vec<Result<(SeqNo, bool)>> = Vec::with_capacity(writes.len());
        let mut marks: Vec<(SeqNo, Option<u64>)> = Vec::with_capacity(writes.len());
        let (mut sync, mut riders) = (false, 0u64);
        for w in writes {
            let batch = match w.check {
                None => w.batch,
                Some(check) => {
                    let earlier = written.as_ref().expect("tracked for checked groups");
                    match self.checked_batch(check, w.batch, earlier) {
                        Ok(batch) => batch,
                        Err(e) => {
                            ends.push(Err(e));
                            continue;
                        }
                    }
                }
            };
            let wrote = !batch.is_empty();
            if wrote {
                if let Some(keys) = written.as_mut() {
                    keys.extend(batch.entries().iter().map(|e| e.key.clone()));
                }
                sync |= w.sync;
                riders += u64::from(w.sync);
                merged.append(batch);
            }
            let end = base + merged.count() as u64 - 1;
            if wrote {
                marks.push((end, w.txn_id));
            }
            ends.push(Ok((end, wrote)));
        }
        let group_len = marks.len() as u64;
        if group_len > 0 {
            self.write_merged(ws, base, merged, sync, marks)?;
            let c = &self.inner.counters;
            c.group_commit_groups.fetch_add(1, Ordering::Relaxed);
            c.group_commit_batches
                .fetch_add(group_len, Ordering::Relaxed);
            c.group_commit_max_group
                .fetch_max(group_len, Ordering::Relaxed);
            if sync {
                c.group_commit_fsyncs_saved
                    .fetch_add(riders - 1, Ordering::Relaxed);
            }
            if self.inner.mem.read().approx_size() >= self.inner.opts.memtable_size
                && self.rotate_memtable(ws).is_err()
            {
                // The group is in the memtable, past the sequence counter,
                // published and, if asked, synced: it committed, and
                // failing it would have its callers retry batches that
                // landed. The WAL it went to is poisoned instead, so the
                // next group rotates before it writes.
                ws.poisoned = true;
            }
        }
        Ok(ends
            .into_iter()
            .map(|end| {
                end.map(|(seq, wrote)| WriteReceipt {
                    seq,
                    group_len: if wrote { group_len } else { 0 },
                    synced: wrote && sync,
                })
            })
            .collect())
    }

    /// Append a group's merged batch to the WAL as one record, sync it
    /// if asked, insert it into the memtable, advance the sequence and
    /// publish it to the change stream.
    fn write_merged(
        &self,
        ws: &mut Writer,
        base: SeqNo,
        merged: WriteBatch,
        sync: bool,
        marks: Vec<(SeqNo, Option<u64>)>,
    ) -> Result<()> {
        if let Some(wal) = ws.log.wal.as_mut() {
            // A torn record ends the log for recovery: anything appended
            // after it would be unreachable, so the failure poisons it.
            wal.add_record(&merged.encode(base))?;
        }
        if sync {
            Self::sync_live_wal(ws)?;
        }
        let mem = self.inner.mem.read().clone();
        for (i, e) in merged.entries().iter().enumerate() {
            mem.insert(&e.key, base + i as u64, e.vtype, e.value.clone());
        }
        self.inner
            .seq
            .store(base + merged.count() as u64 - 1, Ordering::SeqCst);

        // Publish the committed group to the change stream — one
        // publish per group, in commit order (the writer lock is held),
        // after the sequence counter advanced so subscribers never see
        // events past the head. The merged batch is moved, not copied.
        let marks = if marks.iter().any(|(_, t)| t.is_some()) {
            marks
        } else {
            Vec::new()
        };
        self.inner.cdc.publish(base, merged, marks);
        Ok(())
    }

    /// Run background work after a write, a flush or a resume: inline,
    /// on this thread, or by waking the background thread.
    fn kick_background(&self) -> Result<()> {
        match self.inner.opts.background {
            BackgroundMode::Inline => self.run_background_with_retries(),
            BackgroundMode::Threaded => {
                self.wake_background();
                Ok(())
            }
        }
    }

    fn wake_background(&self) {
        self.inner.bg_signal.lock().work_pending = true;
        self.inner.bg_cv.notify_all();
    }

    /// Freeze the active memtable onto the immutable list and point the
    /// writer at a fresh WAL. A no-op on an empty memtable unless the
    /// live WAL is poisoned, which is always abandoned (never fsynced
    /// again): the frozen memtable holds everything it covered, so a
    /// flush persists that to SSTs.
    ///
    /// The closing WAL's unsynced tail is synced first, so WAL
    /// durability is a prefix of commit order *across* files: no record
    /// in a newer WAL can survive a crash that loses an older one. The
    /// 2PC barrier ([`sync_wal`](Lsm::sync_wal)) relies on it.
    fn rotate_memtable(&self, ws: &mut Writer) -> Result<()> {
        // Register the active memtable as immutable BEFORE swapping it
        // out, so no state ever lacks the entries. Readers pin complete
        // superversions, and the fresh bundle is installed below while
        // the writer lock (`ws`) is still held — no write can land in the
        // new active memtable before readers can see it.
        let cur = self.inner.mem.read().clone();
        if cur.is_empty() {
            if !ws.poisoned {
                return Ok(());
            }
        } else {
            let wal_durable = Self::sync_live_wal(ws).is_ok();
            self.inner.imms.write().push(ImmEntry {
                mem: cur.clone(),
                wal_number: ws.log.wal_number,
                wal_durable,
            });
            let fresh = Arc::new(Memtable::new());
            *self.inner.mem.write() = fresh.clone();
            self.install_sv_rotated(fresh, cur);
        }
        self.fresh_wal_locked(ws)
    }

    /// Point the writer at a brand-new WAL file (and clear any poison).
    fn fresh_wal_locked(&self, ws: &mut Writer) -> Result<()> {
        let closed = ws
            .log
            .wal
            .as_ref()
            .map(|w| (ws.log.wal_number, w.len(), ws.poisoned));
        let n = self.inner.file_counter.fetch_add(1, Ordering::SeqCst);
        let f = self
            .inner
            .opts
            .env
            .new_writable(&wal_path(&self.inner.opts.dir, n), IoClass::Wal)?;
        ws.log.wal = Some(LogWriter::new(f));
        ws.log.wal_number = n;
        ws.poisoned = false;
        // The old WAL becomes a retained catch-up segment (or is
        // released for deletion, per retention policy and subscribers).
        self.inner
            .cdc
            .rotate_live(closed, n, self.inner.seq.load(Ordering::SeqCst) + 1);
        Ok(())
    }

    /// Fsync the live WAL's unsynced tail (free when there is none). A
    /// failure — now or earlier — poisons the file: its tail may never
    /// reach disk even if a later fsync "succeeds" (fsyncgate), so the
    /// next write rotates away from it instead of retrying.
    fn sync_live_wal(ws: &mut Writer) -> Result<()> {
        if ws.poisoned {
            return Err(Error::io("WAL poisoned by an earlier append/fsync failure"));
        }
        if let Some(wal) = ws.log.wal.as_mut() {
            if let Err(e) = wal.sync() {
                ws.poisoned = true;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Make every write committed so far durable: one fsync of the live
    /// WAL's unsynced tail (closed WALs were synced when they were
    /// closed), free when there is none. After a WAL fault that fsync
    /// proves nothing, so the affected memtables are flushed instead.
    pub fn sync_wal(&self) -> Result<()> {
        {
            let mut ws = self.inner.wal.lock();
            let faulted = ws.poisoned || self.inner.imms.read().iter().any(|i| !i.wal_durable);
            if !faulted && Self::sync_live_wal(&mut ws).is_ok() {
                return Ok(());
            }
        }
        self.flush()
    }

    /// Admission, shared by every write entry point: refuse while the
    /// engine is degraded, wait out an immutable-memtable backlog, and
    /// refuse again if the engine degraded during the wait — a writer
    /// woken by [`enter_degraded`](Lsm::enter_degraded) must not commit.
    fn admit(&self) -> Result<()> {
        self.check_bg_error()?;
        self.maybe_stall();
        self.check_bg_error()
    }

    fn maybe_stall(&self) {
        if self.inner.opts.background != BackgroundMode::Threaded {
            return;
        }
        let mut guard = self.inner.stall_lock.lock();
        let mut stalled = false;
        while self.inner.imms.read().len() > MAX_IMM_MEMTABLES
            && !self.inner.closed.load(Ordering::SeqCst)
            && !self.inner.degraded.load(Ordering::SeqCst)
        {
            if !stalled {
                stalled = true;
                self.inner.counters.stalls.fetch_add(1, Ordering::Relaxed);
            }
            // Timed wait: the imm list is guarded by its own lock, so a
            // flush completing between our check and the wait could
            // otherwise be a lost wakeup.
            let _ = self
                .inner
                .stall_cv
                .wait_for(&mut guard, std::time::Duration::from_millis(20));
        }
    }

    fn check_bg_error(&self) -> Result<()> {
        if self.inner.degraded.load(Ordering::SeqCst) {
            let cause = self
                .inner
                .bg_error
                .lock()
                .as_ref()
                .map(|e| e.to_string())
                .unwrap_or_else(|| "unknown background error".into());
            return Err(Error::read_only(format!(
                "engine degraded by background failure: {cause}"
            )));
        }
        Ok(())
    }

    /// True when the engine is in read-only degraded mode (a background
    /// job failed permanently). Reads keep working; writes fail fast
    /// with [`Error::ReadOnlyMode`] until [`Lsm::resume`] clears it.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::SeqCst)
    }

    /// The background error that degraded the engine, if any.
    pub fn background_error(&self) -> Option<Error> {
        self.inner.bg_error.lock().clone()
    }

    /// Transient failures (I/O hiccups) are worth retrying; corruption
    /// and invariant violations are permanent.
    fn is_transient(e: &Error) -> bool {
        matches!(e, Error::Io(_))
    }

    /// Enter read-only degraded mode: record the cause, wake stalled
    /// writers (they fail fast instead of waiting forever).
    fn enter_degraded(&self, e: Error) {
        self.inner
            .counters
            .bg_errors
            .fetch_add(1, Ordering::Relaxed);
        *self.inner.bg_error.lock() = Some(e);
        self.inner.degraded.store(true, Ordering::SeqCst);
        self.inner.stall_cv.notify_all();
    }

    /// Run background work, retrying transient failures with bounded
    /// exponential backoff (`bg_retry_base * 2^attempt`, up to
    /// `bg_retry_limit` retries). A permanent failure — or exhausted
    /// retries — degrades the engine to read-only mode and returns the
    /// error. Used by both the inline write path and the background
    /// thread, so both execution modes share one error policy.
    fn run_background_with_retries(&self) -> Result<()> {
        let mut attempt = 0usize;
        loop {
            match self.run_background_work() {
                Ok(()) => return Ok(()),
                Err(e) => {
                    let retryable = Self::is_transient(&e)
                        && attempt < self.inner.opts.bg_retry_limit
                        && !self.inner.closed.load(Ordering::SeqCst);
                    if !retryable {
                        self.enter_degraded(e.clone());
                        return Err(e);
                    }
                    self.inner
                        .counters
                        .bg_retries
                        .fetch_add(1, Ordering::Relaxed);
                    let backoff = self
                        .inner
                        .opts
                        .bg_retry_base
                        .saturating_mul(1u32 << attempt.min(16));
                    attempt += 1;
                    std::thread::sleep(backoff);
                }
            }
        }
    }

    /// Leave read-only degraded mode after the underlying cause is
    /// fixed: repair the manifest if a failed commit poisoned it (a fresh
    /// file holding the full snapshot), verify it, clear the error, and
    /// restart background work. Returns an error — and stays degraded —
    /// if the manifest cannot be repaired or verified.
    pub fn resume(&self) -> Result<()> {
        self.inner
            .manifest
            .lock_repaired(&ManifestLeader)?
            .log
            .verify()?;
        *self.inner.bg_error.lock() = None;
        self.inner.degraded.store(false, Ordering::SeqCst);
        self.inner.stall_cv.notify_all();
        self.kick_background()
    }

    // ---------------- read path ----------------

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
        let r = read_superversion(&sv, &self.inner.tcache, key, pin.sequence(), true)?;
        resolve(r)
    }

    /// Version of `key` visible at `read_seq`, over the current pinned
    /// superversion.
    ///
    /// This does **not** register `read_seq`: strictness is only
    /// guaranteed when the caller holds a [`Snapshot`] or [`LsmView`]
    /// keeping that sequence registered — prefer reading through those
    /// handles directly.
    pub fn get_at(&self, key: &[u8], read_seq: SeqNo) -> Result<LsmReadResult> {
        read_superversion(
            &self.superversion(),
            &self.inner.tcache,
            key,
            read_seq,
            true,
        )
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

    /// Take a read snapshot: an RAII handle owning a registered view.
    /// Dropping it unregisters the sequence.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::new(self.snapshot_view())
    }

    /// A registered view with snapshot semantics: beyond pinning its
    /// versions, it participates in snapshot-gated policy (e.g. Titan's
    /// write-back GC defers while snapshots exist). The engine above
    /// wraps this in its own snapshot handle.
    pub fn snapshot_view(&self) -> LsmView {
        self.registered_view(ReadPointKind::Snapshot)
    }

    /// Sequences of all live user snapshots (ascending). Policy gates
    /// that specifically concern long-lived snapshots (e.g. Titan's
    /// defer-GC rule) read this; version-preservation decisions must use
    /// [`read_points`](Lsm::read_points) instead, which also covers
    /// transient view pins.
    pub fn snapshot_sequences(&self) -> Vec<SeqNo> {
        self.inner.read_points.snapshot_seqs()
    }

    /// All registered read points — snapshots *and* transient view pins —
    /// ascending and deduplicated. Flush, compaction, and GC must keep
    /// the versions visible at each of these sequences.
    pub fn read_points(&self) -> Vec<SeqNo> {
        self.inner.read_points.read_point_seqs()
    }

    /// The oldest registered read point, or `None` when no reader is in
    /// flight. Deferred-deletion barriers (Titan GC, BlobDB reaping)
    /// compare against this.
    pub fn oldest_read_point(&self) -> Option<SeqNo> {
        self.inner.read_points.oldest()
    }

    /// `(transient view pins, user snapshots)` currently registered.
    /// Gauges, not counters: a non-zero value means readers are in
    /// flight *right now*, holding back version retirement (and, in
    /// Titan/BlobDB modes, deferred blob reaping).
    pub fn read_point_counts(&self) -> (usize, usize) {
        self.inner.read_points.counts()
    }

    /// Range scan of visible entries with `lo <= user_key < hi`
    /// (`hi = None` is unbounded) at the latest sequence, through a
    /// pinned, registered view (the iterator owns the pin).
    pub fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<ScanIter> {
        self.view().scan(lo, hi)
    }

    // ---------------- background work ----------------

    /// Run flushes and compactions until no work remains (inline mode).
    /// Safe to call from concurrent writer threads: the whole loop runs
    /// under `bg_work`, so one thread drains the queue while latecomers
    /// wait and then see an empty (or refilled) queue.
    fn run_background_work(&self) -> Result<()> {
        let _guard = self.inner.bg_work.lock();
        loop {
            let flushed = self.flush_one_imm()?;
            let compacted = self.maybe_compact_once()?;
            if !flushed && !compacted {
                // All job-held version handles are gone now; retired files
                // queued during the loop can be removed.
                self.purge_unreferenced_tables();
                return Ok(());
            }
        }
    }

    /// Force-flush the active memtable and wait until the tree is quiet.
    pub fn flush(&self) -> Result<()> {
        {
            let mut ws = self.inner.wal.lock();
            self.rotate_memtable(&mut ws)?;
        }
        self.kick_background()?;
        if self.inner.opts.background == BackgroundMode::Threaded {
            // Wait for the background thread to drain.
            while !self.inner.imms.read().is_empty() {
                std::thread::sleep(std::time::Duration::from_micros(200));
                self.check_bg_error()?;
                // Re-signal in case the drain raced with our rotate.
                self.wake_background();
            }
        }
        Ok(())
    }

    /// Run compactions until every level score is below 1.
    pub fn compact_until_stable(&self) -> Result<()> {
        while self.maybe_compact_once()? {}
        Ok(())
    }

    /// Force one compaction even when all scores are below 1 — used by
    /// space-aware throttling (paper §III-D) to convert hidden garbage
    /// into exposed garbage when space runs out. Picks L0 if non-empty,
    /// otherwise the upper level carrying the most (compensated) bytes.
    /// Returns false if only the bottommost level holds data.
    pub fn force_compact_once(&self) -> Result<bool> {
        let version = self.current_version();
        let opts = &self.inner.opts;
        let pick = if version.num_files(0) > 0 {
            let output_level = compute_targets(&version, opts).base_level;
            let inputs = version.levels[0].clone();
            Some(Compaction::new(&version, 0, output_level, inputs, 0.0))
        } else {
            // Densest non-bottom level.
            (1..opts.num_levels - 1)
                .filter(|&l| !version.levels[l].is_empty())
                .max_by_key(|&l| level_units(&version, l, opts.compensated))
                .map(|level| {
                    let victim = version.levels[level]
                        .iter()
                        .max_by_key(|f| f.compensated_size())
                        .cloned()
                        .unwrap();
                    Compaction::new(&version, level, level + 1, vec![victim], 0.0)
                })
        };
        match pick {
            Some(c) if c.is_trivial_move() => {
                self.trivial_move(&c)?;
                Ok(true)
            }
            Some(c) => {
                self.run_compaction(&version, &c)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Apply a pick that needs no merge: its one input file changes level.
    fn trivial_move(&self, c: &Compaction) -> Result<()> {
        let f = &c.inputs_lo[0];
        let mut edit = VersionEdit::default();
        edit.deleted.push((c.level, f.file_number));
        edit.added.push((c.output_level, (**f).clone()));
        self.inner.manifest.log_and_apply(edit)?;
        self.install_sv_version();
        Ok(())
    }

    fn session_for(&self, kind: JobKind) -> Result<Box<dyn ValueSession>> {
        match &self.inner.opts.value_hook {
            Some(h) => h.session(
                kind,
                Arc::new(CounterAlloc(self.inner.file_counter.clone())),
            ),
            None => Ok(Box::new(PassthroughSession)),
        }
    }

    fn flush_one_imm(&self) -> Result<bool> {
        let Some(imm) = self.inner.imms.read().first().map(|e| e.mem.clone()) else {
            return Ok(false);
        };
        let version = self.current_version();
        let elide_upto = (version.total_files() == 0).then(|| self.tombstone_hold());
        let session = self.session_for(JobKind::Flush)?;
        let snapshots = self.read_points();
        let counter = self.inner.file_counter.clone();
        let alloc = move || counter.fetch_add(1, Ordering::SeqCst);
        let mut input = VecIter::new(imm.snapshot());
        let out = run_output_job(
            &self.inner.opts,
            &mut input,
            &snapshots,
            elide_upto,
            &|_| false,
            session,
            &alloc,
            IoClass::Flush,
        )?;
        self.inner
            .counters
            .merge_drops
            .fetch_add(out.stats.entries_dropped, Ordering::Relaxed);

        let mut edit = VersionEdit::default();
        for f in &out.files {
            edit.added.push((0, f.clone()));
        }
        edit.value = out.bundle.clone();
        // WALs strictly below the *next* imm's WAL (or the live WAL) are
        // obsolete once this flush commits. Lock order is writer -> imms
        // everywhere, so the imms guard must drop before the writer lock
        // is taken.
        let next_imm_wal = { self.inner.imms.read().get(1).map(|e| e.wal_number) };
        let next_needed = match next_imm_wal {
            Some(n) => n,
            None => self.inner.wal.lock().log.wal_number,
        };
        edit.log_number = Some(next_needed);
        self.inner.manifest.log_and_apply(edit)?;
        if let Some(h) = &self.inner.opts.value_hook {
            h.on_committed(&out.bundle);
        }
        {
            let mut imms = self.inner.imms.write();
            let pos = imms
                .iter()
                .position(|e| Arc::ptr_eq(&e.mem, &imm))
                .expect("flushed imm still registered");
            imms.remove(pos);
        }
        // Between log_and_apply and here, stale superversions double-count
        // the flushed imm alongside its new SST — identical versions, so
        // reads stay consistent; the fresh bundle drops the duplicate.
        // (During WAL recovery the flushed imm was never installed into a
        // bundle; the filter inside is then a no-op and only the version
        // member advances.)
        self.install_sv_flushed(&imm);
        self.delete_obsolete_wals()?;
        self.inner.counters.flushes.fetch_add(1, Ordering::Relaxed);
        self.inner.stall_cv.notify_all();
        Ok(true)
    }

    fn maybe_compact_once(&self) -> Result<bool> {
        let version = self.current_version();
        let pick = {
            let mut picker = self.inner.picker.lock();
            pick_compaction(&version, &self.inner.opts, &mut picker)
        };
        let Some(c) = pick else {
            self.purge_unreferenced_tables();
            return Ok(false);
        };
        if c.is_trivial_move() {
            drop(version);
            self.trivial_move(&c)?;
            return Ok(true);
        }
        self.run_compaction(&version, &c)?;
        drop(version);
        self.purge_unreferenced_tables();
        Ok(true)
    }

    fn run_compaction(&self, version: &Arc<Version>, c: &Compaction) -> Result<()> {
        // Open compaction-class readers (bypassing the table cache so
        // foreground I/O accounting stays clean; compaction reads do not
        // pollute the block cache, like RocksDB's fill_cache=false). Each
        // input is walked once, front to back, so it is read in
        // device-sized ops: one tail read at open, then forward spans.
        let opts = &self.inner.opts;
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        for f in c.inputs_lo.iter().chain(c.inputs_hi.iter()) {
            let file = opts
                .env
                .open_random_access(&table_path(&opts.dir, f.file_number), IoClass::Compaction)?;
            let t = Arc::new(ktable_from_file(
                Arc::new(ReadaheadFile::open(file, COMPACTION_READAHEAD)?),
                cache_file_id(opts.cache_namespace, f.file_number),
                None,
            )?);
            children.push(Box::new(TableEntryIter::new(t)));
        }
        let mut input = MergingIter::new(children);
        let session = self.session_for(JobKind::Compaction {
            output_level: c.output_level,
            bottommost: c.bottommost,
        })?;
        let snapshots = self.read_points();
        let counter = self.inner.file_counter.clone();
        let alloc = move || counter.fetch_add(1, Ordering::SeqCst);
        let ver = version.clone();
        let output_level = c.output_level;
        let may_exist_below = move |ukey: &[u8]| ver.key_may_exist_below(output_level, ukey);
        let out = run_output_job(
            &self.inner.opts,
            &mut input,
            &snapshots,
            c.bottommost.then(|| self.tombstone_hold()),
            &may_exist_below,
            session,
            &alloc,
            IoClass::Compaction,
        )?;
        self.inner
            .counters
            .merge_drops
            .fetch_add(out.stats.entries_dropped, Ordering::Relaxed);

        let mut edit = VersionEdit::default();
        for f in c.inputs_lo.iter() {
            edit.deleted.push((c.level, f.file_number));
        }
        for f in c.inputs_hi.iter() {
            edit.deleted.push((c.output_level, f.file_number));
        }
        for f in &out.files {
            edit.added.push((c.output_level, f.clone()));
        }
        edit.value = out.bundle.clone();
        self.inner.manifest.log_and_apply(edit)?;
        self.install_sv_version();
        if let Some(h) = &self.inner.opts.value_hook {
            h.on_committed(&out.bundle);
        }
        // Queue input files for deletion; they are removed once no
        // in-flight reader's version can still see them.
        {
            let mut pending = self.inner.pending_deletions.lock();
            pending.extend(
                c.inputs_lo
                    .iter()
                    .chain(c.inputs_hi.iter())
                    .map(|f| f.file_number),
            );
        }
        self.purge_unreferenced_tables();
        self.inner
            .counters
            .compactions
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Delete queued obsolete key SSTs that no live version references.
    fn purge_unreferenced_tables(&self) {
        let referenced = self.inner.manifest.lock().log.referenced_files();
        let mut pending = self.inner.pending_deletions.lock();
        pending.retain(|n| {
            if referenced.contains(n) {
                true
            } else {
                self.inner.tcache.evict(*n);
                let _ = self
                    .inner
                    .opts
                    .env
                    .remove_file(&table_path(&self.inner.opts.dir, *n));
                false
            }
        });
    }

    /// Log a value-store-only edit (used by the GC, which changes value
    /// files without touching the index layout).
    pub fn apply_value_edit(&self, bundle: crate::hooks::ValueEditBundle) -> Result<()> {
        let edit = VersionEdit {
            value: bundle,
            ..VersionEdit::default()
        };
        self.inner.manifest.log_and_apply(edit)?;
        self.install_sv_version();
        Ok(())
    }

    // ---------------- recovery & cleanup ----------------

    fn recover_wals(&self) -> Result<()> {
        let opts = &self.inner.opts;
        let min_log = self.inner.manifest.lock().log.log_number;
        let retain = self.inner.cdc.retains_history();
        let mut wals: Vec<u64> = opts
            .env
            .list_prefix(&format!("{}/", opts.dir))?
            .iter()
            .filter_map(|p| parse_path(&opts.dir, p))
            .filter(|(k, n)| *k == FileKind::Wal && (*n >= min_log || retain))
            .map(|(_, n)| n)
            .collect();
        wals.sort_unstable();
        let mut obsolete = Vec::new();
        let mut segs: Vec<(u64, SeqNo)> = Vec::new();
        for n in &wals {
            let path = wal_path(&opts.dir, *n);
            let data = opts.env.read_file(&path, IoClass::Wal)?;
            let total = data.len();
            let mut reader = crate::wal::LogReader::new(data);
            let mut records = Vec::new();
            while let Some(r) = reader.next_record() {
                records.push(r);
            }
            if reader.hit_corruption && *n >= min_log {
                // Torn or corrupt tail: the intact prefix is replayed,
                // the tail dropped. Count it and log the truncation
                // offset so operators can tell power-loss truncation
                // from silent data loss.
                self.inner
                    .counters
                    .wal_tail_corruptions
                    .fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "scavenger: WAL {path} has a torn/corrupt tail: \
                     replayed {} records, dropped {} bytes at offset {}",
                    records.len(),
                    reader.dropped_bytes,
                    total - reader.dropped_bytes
                );
            }
            // Sequence range of the file — the retained-segment
            // catalog entry for change-stream catch-up.
            let mut first_seq = None;
            let mut last_seq = 0;
            let replay = *n >= min_log;
            let mem = Memtable::new();
            let mut max_seq = self.inner.seq.load(Ordering::SeqCst);
            for rec in &records {
                let (base, batch) = WriteBatch::decode(rec)?;
                if batch.count() > 0 {
                    first_seq.get_or_insert(base);
                    last_seq = last_seq.max(base + batch.count() as u64 - 1);
                }
                if replay {
                    for (i, e) in batch.entries().iter().enumerate() {
                        mem.insert(&e.key, base + i as u64, e.vtype, e.value.clone());
                    }
                    max_seq = max_seq.max(base + batch.count() as u64 - 1);
                }
            }
            // Retained history stays on disk as a catch-up segment so
            // resumed subscribers can replay across the restart.
            // Register it *before* replaying: the flush below runs the
            // obsolete-WAL sweep, which must already see the file
            // protected.
            match first_seq {
                Some(first) if retain => {
                    self.inner
                        .cdc
                        .recovered_segment(*n, first, last_seq + 1, total as u64);
                    segs.push((*n, first));
                }
                _ => obsolete.push(*n),
            }
            if replay {
                self.inner.seq.store(max_seq, Ordering::SeqCst);
                if !mem.is_empty() {
                    self.inner.imms.write().push(ImmEntry {
                        mem: Arc::new(mem),
                        wal_number: *n,
                        wal_durable: true,
                    });
                    // Flush synchronously so recovery is complete when
                    // open returns.
                    self.flush_one_imm()?;
                }
            }
        }
        // Clamp each segment's exclusive end by its successor's first
        // sequence: a WAL poisoned by a failed fsync may end in an
        // intact but never-acknowledged record whose sequences were
        // reassigned to the successor — the clamp excises it from
        // served history.
        for i in 0..segs.len() {
            if let Some(&(_, next_first)) = segs.get(i + 1) {
                self.inner.cdc.clamp_segment(segs[i].0, next_first);
            }
        }
        // WALs that were neither retained nor protected are obsolete.
        for n in obsolete {
            if !self.inner.cdc.protects(n) {
                let _ = opts.env.remove_file(&wal_path(&opts.dir, n));
            }
        }
        Ok(())
    }

    fn start_fresh_wal(&self) -> Result<()> {
        let n = self.inner.file_counter.fetch_add(1, Ordering::SeqCst);
        let f = self
            .inner
            .opts
            .env
            .new_writable(&wal_path(&self.inner.opts.dir, n), IoClass::Wal)?;
        let mut ws = self.inner.wal.lock();
        ws.log.wal = Some(LogWriter::new(f));
        ws.log.wal_number = n;
        self.inner
            .cdc
            .rotate_live(None, n, self.inner.seq.load(Ordering::SeqCst) + 1);
        // Record in the manifest that older WALs are obsolete.
        let edit = VersionEdit {
            log_number: Some(n),
            ..VersionEdit::default()
        };
        self.inner.manifest.log_and_apply(edit)?;
        Ok(())
    }

    fn delete_obsolete_wals(&self) -> Result<()> {
        let opts = &self.inner.opts;
        let min_log = self.inner.manifest.lock().log.log_number;
        for p in opts.env.list_prefix(&format!("{}/", opts.dir))? {
            if let Some((FileKind::Wal, n)) = parse_path(&opts.dir, &p) {
                // A WAL below the recovery floor may still be a
                // retained change-stream segment: the catalog pins it
                // (for a registered subscriber or within the retention
                // budget) until the change log releases it.
                if n < min_log && !self.inner.cdc.protects(n) {
                    let _ = opts.env.remove_file(&p);
                }
            }
        }
        Ok(())
    }

    /// Delete key SSTs on disk that are not referenced by the live version
    /// (left over from a crash mid-compaction).
    fn delete_obsolete_files(&self) -> Result<()> {
        self.purge_unreferenced_tables();
        let opts = &self.inner.opts;
        let version = self.current_version();
        let live: HashSet<u64> = version
            .levels
            .iter()
            .flatten()
            .map(|f| f.file_number)
            .collect();
        for p in opts.env.list_prefix(&format!("{}/", opts.dir))? {
            if let Some((FileKind::Table, n)) = parse_path(&opts.dir, &p) {
                if !live.contains(&n) {
                    self.inner.tcache.evict(n);
                    let _ = opts.env.remove_file(&p);
                }
            }
        }
        self.delete_obsolete_wals()
    }

    // ---------------- threaded background ----------------

    fn spawn_bg_thread(&self) {
        let inner = self.inner.clone();
        let handle = std::thread::Builder::new()
            .name("scavenger-bg".into())
            .spawn(move || {
                let db = Lsm {
                    inner,
                    bg_thread: Mutex::new(None),
                };
                loop {
                    {
                        let mut sig = db.inner.bg_signal.lock();
                        while !sig.work_pending && !sig.shutdown {
                            db.inner.bg_cv.wait(&mut sig);
                        }
                        if sig.shutdown {
                            return;
                        }
                        sig.work_pending = false;
                    }
                    if db.inner.degraded.load(Ordering::SeqCst) {
                        // Parked, not dead: `resume()` clears the flag
                        // and re-signals, and this loop picks the
                        // backlog back up.
                        continue;
                    }
                    // On permanent failure the helper has already moved
                    // the engine to degraded mode; stay alive so resume
                    // can restart work without respawning the thread.
                    let _ = db.run_background_with_retries();
                }
            })
            .expect("spawn background thread");
        *self.bg_thread.lock() = Some(handle);
    }
}

impl Drop for Lsm {
    fn drop(&mut self) {
        self.inner.closed.store(true, Ordering::SeqCst);
        {
            let mut sig = self.inner.bg_signal.lock();
            sig.shutdown = true;
            self.inner.bg_cv.notify_all();
        }
        self.inner.stall_cv.notify_all();
        if let Some(h) = self.bg_thread.lock().take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::BatchSweep;
    use crate::options::KTableFormat;
    use scavenger_env::{Env, MemEnv};

    fn test_opts(dir: &str) -> LsmOptions {
        let mut o = LsmOptions::new(MemEnv::shared(), dir);
        o.memtable_size = 4 * 1024;
        o.base_level_bytes = 16 * 1024;
        o.target_file_size = 8 * 1024;
        o.block_size = 1024;
        o
    }

    fn open(o: LsmOptions) -> Lsm {
        Lsm::open(o).unwrap().0
    }

    fn put(db: &Lsm, k: &str, v: &str) {
        let mut b = WriteBatch::new();
        b.put(k.as_bytes(), Bytes::copy_from_slice(v.as_bytes()));
        db.write(b).unwrap();
    }

    fn put_ref(db: &Lsm, k: &str, offset: u64) {
        let mut b = WriteBatch::new();
        b.put_ref(
            k.as_bytes(),
            ValueRef {
                file: 7,
                size: 4096,
                offset,
            },
        );
        db.write(b).unwrap();
    }

    fn del(db: &Lsm, k: &str) {
        let mut b = WriteBatch::new();
        b.delete(k.as_bytes());
        db.write(b).unwrap();
    }

    fn get_str(db: &Lsm, k: &str) -> Option<String> {
        match db.get(k.as_bytes()).unwrap() {
            LsmReadResult::Found { value, .. } => Some(String::from_utf8(value.to_vec()).unwrap()),
            _ => None,
        }
    }

    #[test]
    fn write_receipt_reports_range_and_durability() {
        let db = open(test_opts("db"));
        let mut b = WriteBatch::new();
        b.put(b"a", Bytes::from_static(b"1"));
        b.put(b"b", Bytes::from_static(b"2"));
        b.delete(b"c");
        let r = db.write(b).unwrap();
        assert_eq!(r.seq, db.last_sequence());
        assert_eq!(r.group_len, 1, "uncontended write is its own group");
        assert!(r.synced);

        let mut b = WriteBatch::new();
        b.put(b"d", Bytes::from_static(b"4"));
        let r2 = db.write_opts(&WriteOptions::with_sync(false), b).unwrap();
        assert_eq!(r2.seq, r.seq + 1, "ranges stay contiguous");
        assert!(!r2.synced, "no sync rider in the group");

        let c = db.counters();
        assert_eq!(c.group_commit_groups.load(Ordering::Relaxed), 2);
        assert_eq!(c.group_commit_batches.load(Ordering::Relaxed), 2);
        assert_eq!(c.group_commit_max_group.load(Ordering::Relaxed), 1);
        assert_eq!(c.group_commit_fsyncs_saved.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn empty_write_receipt_is_inert() {
        let db = open(test_opts("db"));
        put(&db, "k", "v");
        let r = db.write(WriteBatch::new()).unwrap();
        assert_eq!(r.seq, db.last_sequence());
        assert_eq!(r.group_len, 0);
        assert!(!r.synced);
        assert_eq!(
            db.counters().group_commit_groups.load(Ordering::Relaxed),
            1,
            "empty batches never reach the commit queue"
        );
    }

    #[test]
    fn concurrent_writers_form_groups_with_contiguous_ranges() {
        let db = Arc::new(open(test_opts("db")));
        let threads = 8;
        let per_thread = 50;
        let receipts: Vec<(usize, usize, WriteReceipt)> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let db = db.clone();
                handles.push(s.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..per_thread {
                        let mut b = WriteBatch::new();
                        b.put(
                            format!("t{t:02}k{i:03}").as_bytes(),
                            Bytes::from(vec![t as u8; 32]),
                        );
                        b.put(
                            format!("t{t:02}k{i:03}x").as_bytes(),
                            Bytes::from(vec![i as u8; 32]),
                        );
                        let opts = WriteOptions::with_sync(i % 2 == 0);
                        out.push((t, i, db.write_opts(&opts, b).unwrap()));
                    }
                    out
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        // Every batch owns a contiguous 2-sequence range ending at its
        // receipt seq; across all writers the end sequences are unique
        // and the ranges tile [first, last] without overlap.
        let mut ends: Vec<SeqNo> = receipts.iter().map(|(_, _, r)| r.seq).collect();
        ends.sort_unstable();
        ends.dedup();
        assert_eq!(ends.len(), threads * per_thread, "no duplicated ranges");
        for pair in ends.windows(2) {
            assert_eq!(pair[1] - pair[0], 2, "2-entry batches tile the range");
        }
        // No lost keys: every written key resolves to its value.
        for (t, i, _) in &receipts {
            match db.get(format!("t{t:02}k{i:03}").as_bytes()).unwrap() {
                LsmReadResult::Found { value, .. } => {
                    assert_eq!(&value[..], &vec![*t as u8; 32][..]);
                }
                other => panic!("t{t} i{i}: {other:?}"),
            }
        }
        let c = db.counters();
        let batches = c.group_commit_batches.load(Ordering::Relaxed);
        assert_eq!(batches, (threads * per_thread) as u64);
        assert!(
            c.group_commit_groups.load(Ordering::Relaxed) <= batches,
            "groups can never exceed batches"
        );
    }

    #[test]
    fn put_get_delete_within_memtable() {
        let db = open(test_opts("db"));
        put(&db, "k1", "v1");
        assert_eq!(get_str(&db, "k1"), Some("v1".into()));
        del(&db, "k1");
        assert_eq!(get_str(&db, "k1"), None);
        assert_eq!(db.get(b"k1").unwrap(), LsmReadResult::Deleted);
        assert_eq!(db.get(b"nope").unwrap(), LsmReadResult::NotFound);
    }

    #[test]
    fn data_survives_flush_and_compaction() {
        let db = open(test_opts("db"));
        for i in 0..500 {
            put(&db, &format!("key{i:04}"), &format!("val{i}").repeat(10));
        }
        db.flush().unwrap();
        db.compact_until_stable().unwrap();
        for i in 0..500 {
            assert_eq!(
                get_str(&db, &format!("key{i:04}")),
                Some(format!("val{i}").repeat(10)),
                "key{i}"
            );
        }
        assert!(db.counters().flushes.load(Ordering::Relaxed) > 0);
        assert!(db.current_version().total_files() > 0);
    }

    #[test]
    fn updates_shadow_older_versions_across_levels() {
        let db = open(test_opts("db"));
        for round in 0..5 {
            for i in 0..200 {
                put(&db, &format!("key{i:03}"), &format!("r{round}-{i}"));
            }
        }
        db.flush().unwrap();
        for i in 0..200 {
            assert_eq!(get_str(&db, &format!("key{i:03}")), Some(format!("r4-{i}")));
        }
    }

    #[test]
    fn deletes_survive_flush() {
        let db = open(test_opts("db"));
        for i in 0..100 {
            put(&db, &format!("key{i:03}"), "value");
        }
        db.flush().unwrap();
        for i in 0..100 {
            if i % 2 == 0 {
                del(&db, &format!("key{i:03}"));
            }
        }
        db.flush().unwrap();
        db.compact_until_stable().unwrap();
        for i in 0..100 {
            let got = get_str(&db, &format!("key{i:03}"));
            if i % 2 == 0 {
                assert_eq!(got, None, "key{i} must stay deleted");
            } else {
                assert_eq!(got, Some("value".into()));
            }
        }
    }

    #[test]
    fn scan_merges_all_sources_in_order() {
        let db = open(test_opts("db"));
        for i in (0..100).step_by(2) {
            put(&db, &format!("key{i:03}"), &format!("flushed{i}"));
        }
        db.flush().unwrap();
        for i in (1..100).step_by(2) {
            put(&db, &format!("key{i:03}"), &format!("fresh{i}"));
        }
        let mut it = db.scan(b"key000", Some(b"key050")).unwrap();
        let mut seen = Vec::new();
        while let Some(e) = it.next_entry().unwrap() {
            seen.push(String::from_utf8(e.user_key).unwrap());
        }
        let expected: Vec<String> = (0..50).map(|i| format!("key{i:03}")).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn scan_skips_deleted() {
        let db = open(test_opts("db"));
        for i in 0..20 {
            put(&db, &format!("k{i:02}"), "v");
        }
        db.flush().unwrap();
        del(&db, "k05");
        del(&db, "k10");
        let mut it = db.scan(b"k", None).unwrap();
        let mut n = 0;
        while let Some(e) = it.next_entry().unwrap() {
            assert_ne!(e.user_key, b"k05");
            assert_ne!(e.user_key, b"k10");
            n += 1;
        }
        assert_eq!(n, 18);
    }

    #[test]
    fn snapshot_reads_see_frozen_state() {
        let db = open(test_opts("db"));
        put(&db, "k", "old");
        let snap = db.snapshot();
        put(&db, "k", "new");
        del(&db, "k");
        assert_eq!(db.get(b"k").unwrap(), LsmReadResult::Deleted);
        match db.get_at(b"k", snap.sequence()).unwrap() {
            LsmReadResult::Found { value, .. } => assert_eq!(&value[..], b"old"),
            other => panic!("{other:?}"),
        }
        // Flush + compact with the snapshot alive: old version must survive.
        db.flush().unwrap();
        db.compact_until_stable().unwrap();
        match db.get_at(b"k", snap.sequence()).unwrap() {
            LsmReadResult::Found { value, .. } => assert_eq!(&value[..], b"old"),
            other => panic!("{other:?}"),
        }
        drop(snap);
    }

    #[test]
    fn wal_recovery_restores_unflushed_writes() {
        let env = MemEnv::shared();
        {
            let mut o = LsmOptions::new(env.clone(), "db");
            o.memtable_size = 1 << 20; // never flush
            let db = open(o);
            put(&db, "durable", "yes");
            put(&db, "also", "this");
            // No flush: data only in WAL + memtable. Drop = crash.
        }
        {
            let o = LsmOptions::new(env.clone(), "db");
            let db = open(o);
            assert_eq!(get_str(&db, "durable"), Some("yes".into()));
            assert_eq!(get_str(&db, "also"), Some("this".into()));
        }
    }

    #[test]
    fn torn_wal_tail_recovers_prefix() {
        let env = MemEnv::shared();
        {
            let mut o = LsmOptions::new(env.clone(), "db");
            o.memtable_size = 1 << 20;
            let db = open(o);
            put(&db, "a", "1");
            put(&db, "b", "2");
        }
        // Tear the tail of the newest WAL.
        let wals: Vec<String> = env
            .list_prefix("db/")
            .unwrap()
            .into_iter()
            .filter(|p| p.ends_with(".log"))
            .collect();
        let last = wals.last().unwrap();
        let len = env.file_size(last).unwrap();
        env.truncate_file(last, len - 3).unwrap();
        let db = open(LsmOptions::new(env.clone(), "db"));
        // First write survives; the torn one is gone.
        assert_eq!(get_str(&db, "a"), Some("1".into()));
        assert_eq!(get_str(&db, "b"), None);
    }

    /// A `FaultEnv` that cuts exactly at the durable watermark, a store
    /// on it that never rotates on its own, and an unsynced put.
    fn fault_rig() -> (Arc<scavenger_env::FaultEnv>, LsmOptions) {
        let fault = scavenger_env::FaultEnv::wrap(MemEnv::shared(), 7);
        fault.set_torn_tail(false);
        let mut o = LsmOptions::new(fault.clone(), "db");
        o.memtable_size = 1 << 20;
        (fault, o)
    }

    fn put_nosync(db: &Lsm, k: &str, v: &str) -> Result<WriteReceipt> {
        let mut b = WriteBatch::new();
        b.put(k.as_bytes(), Bytes::copy_from_slice(v.as_bytes()));
        db.write_opts(&WriteOptions::with_sync(false), b)
    }

    fn fault_rule(
        op: scavenger_env::FaultOp,
        path: &str,
        nth: u64,
        kind: scavenger_env::FaultKind,
    ) -> scavenger_env::FaultRule {
        scavenger_env::FaultRule {
            op,
            path_contains: Some(path.into()),
            trigger: scavenger_env::Trigger::Nth(nth),
            kind,
            one_shot: true,
        }
    }

    #[test]
    fn closing_a_wal_makes_its_unsynced_tail_durable() {
        use scavenger_env::{FaultKind, FaultOp};
        let (fault, mut o) = fault_rig();
        o.memtable_size = 4 * 1024;
        let db = open(o.clone());
        // Power goes as the flush behind the first rotation opens its
        // SST: the frozen memtable exists nowhere but in the closed WAL.
        fault.add_rule(fault_rule(FaultOp::Open, ".sst", 1, FaultKind::Crash));
        let mut written = 0;
        while put_nosync(&db, &format!("k{written:03}"), &"v".repeat(200)).is_ok() {
            written += 1;
        }
        assert!(fault.crashed() && written > 0);
        drop(db);
        fault.heal();
        let db = open(o);
        // The put that observed the crash had landed too.
        for i in 0..=written {
            assert!(get_str(&db, &format!("k{i:03}")).is_some(), "k{i:03} lost");
        }
    }

    #[test]
    fn torn_wal_append_is_never_appended_behind() {
        use scavenger_env::{FaultKind, FaultOp};
        let (fault, o) = fault_rig();
        let db = open(o.clone());
        put(&db, "before", "1");
        // Header whole, payload torn: recovery stops reading this WAL here.
        fault.add_rule(fault_rule(FaultOp::Write, ".log", 2, FaultKind::Torn));
        assert!(put_nosync(&db, "torn", "x").is_err());
        put(&db, "after", "2");
        fault.crash();
        drop(db);
        fault.heal();
        let db = open(o);
        assert_eq!(get_str(&db, "before"), Some("1".into()));
        assert_eq!(get_str(&db, "torn"), None);
        assert_eq!(get_str(&db, "after"), Some("2".into()), "synced and acked");
    }

    #[test]
    fn held_tombstones_outlive_flush_compaction_and_the_recovery_flush() {
        let mut o = test_opts("held");
        o.tombstone_hold = 0;
        let db = open(o.clone());
        put(&db, "k", "v");
        del(&db, "k");
        // Reopen: the recovery flush goes into an empty tree.
        drop(db);
        let db = open(o);
        assert_eq!(db.latest_seq(b"k").unwrap(), Some(2), "held at open");
        put(&db, "pad", "x");
        db.flush().unwrap();
        while db.force_compact_once().unwrap() {}
        assert_eq!(db.latest_seq(b"k").unwrap(), Some(2), "held at the bottom");
        // Moving the hold frees older tombstones and keeps newer ones.
        db.hold_tombstones_above(db.last_sequence());
        put(&db, "j", "v");
        del(&db, "j");
        db.flush().unwrap();
        while db.force_compact_once().unwrap() {}
        assert!(db.latest_seq(b"j").unwrap().is_some(), "above the hold");
        db.hold_tombstones_above(scavenger_util::ikey::MAX_SEQNO);
        put(&db, "i", "v");
        del(&db, "i");
        db.flush().unwrap();
        while db.force_compact_once().unwrap() {}
        assert_eq!(db.latest_seq(b"i").unwrap(), None, "released");
    }

    #[test]
    fn sync_wal_is_one_fsync_or_after_a_wal_fault_a_flush() {
        use scavenger_env::{FaultKind, FaultOp};
        let (fault, o) = fault_rig();
        let db = open(o.clone());
        let syncs = || fault.io_stats().snapshot().total_syncs();
        put_nosync(&db, "a", "1").unwrap();
        let s0 = syncs();
        db.sync_wal().unwrap();
        db.sync_wal().unwrap();
        assert_eq!(syncs() - s0, 1, "a clean WAL costs nothing to sync");

        // The fsync fails: no later fsync of that file proves anything,
        // so the memtable it covered goes to an SST instead.
        put_nosync(&db, "b", "2").unwrap();
        fault.add_rule(fault_rule(FaultOp::Sync, ".log", 1, FaultKind::Fail));
        let flushes = db.counters().flushes.load(Ordering::Relaxed);
        db.sync_wal().unwrap();
        assert_eq!(db.counters().flushes.load(Ordering::Relaxed), flushes + 1);
        fault.crash();
        drop(db);
        fault.heal();
        let db = open(o);
        assert_eq!(get_str(&db, "a"), Some("1".into()));
        assert_eq!(get_str(&db, "b"), Some("2".into()));
    }

    #[test]
    fn sequence_numbers_survive_reopen() {
        let env = MemEnv::shared();
        let seq1;
        {
            let db = open(LsmOptions::new(env.clone(), "db"));
            put(&db, "x", "1");
            put(&db, "x", "2");
            seq1 = db.last_sequence();
            db.flush().unwrap();
        }
        let db = open(LsmOptions::new(env.clone(), "db"));
        assert!(db.last_sequence() >= seq1);
        put(&db, "y", "3");
        assert!(db.last_sequence() > seq1);
    }

    #[test]
    fn compaction_reduces_l0_files() {
        let mut o = test_opts("db");
        o.l0_trigger = 2;
        let db = open(o);
        for round in 0..6 {
            for i in 0..100 {
                put(&db, &format!("key{i:03}"), &format!("round{round}"));
            }
            db.flush().unwrap();
        }
        let v = db.current_version();
        assert!(
            v.num_files(0) < 2,
            "L0 should be drained by compaction, has {}",
            v.num_files(0)
        );
        assert!(db.counters().compactions.load(Ordering::Relaxed) > 0);
        // Data still correct.
        for i in 0..100 {
            assert_eq!(get_str(&db, &format!("key{i:03}")), Some("round5".into()));
        }
    }

    #[test]
    fn guarded_write_applies_only_when_ref_matches() {
        let db = open(test_opts("db"));
        let old_ref = ValueRef {
            file: 7,
            size: 100,
            offset: 40,
        };
        let new_ref = ValueRef {
            file: 9,
            size: 100,
            offset: 0,
        };
        let mut b = WriteBatch::new();
        b.put_ref(b"k1", old_ref);
        b.put_ref(b"k2", old_ref);
        db.write(b).unwrap();
        // k2 gets overwritten by the user before GC write-back.
        put(&db, "k2", "user-update");
        let before = db.last_sequence();
        let receipt = db
            .write_checked(
                &WriteOptions::default(),
                WriteBatch::new(),
                Some(Precondition::Guarded(vec![
                    GuardedWrite {
                        key: b"k1".to_vec(),
                        expected: old_ref,
                        replacement: new_ref,
                    },
                    GuardedWrite {
                        key: b"k2".to_vec(),
                        expected: old_ref,
                        replacement: new_ref,
                    },
                ])),
            )
            .unwrap();
        assert_eq!(
            receipt.seq,
            before + 1,
            "only k1 still points at the old ref"
        );
        match db.get(b"k1").unwrap() {
            LsmReadResult::Found {
                vtype: ValueType::ValueRef,
                value,
                ..
            } => {
                assert_eq!(ValueRef::decode(&value).unwrap().file, 9);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(get_str(&db, "k2"), Some("user-update".into()));
    }

    #[test]
    fn threaded_mode_round_trip() {
        let mut o = test_opts("db");
        o.background = BackgroundMode::Threaded;
        let db = open(o);
        for i in 0..2000 {
            put(&db, &format!("key{i:05}"), &format!("value-{i}"));
        }
        db.flush().unwrap();
        for i in (0..2000).step_by(97) {
            assert_eq!(
                get_str(&db, &format!("key{i:05}")),
                Some(format!("value-{i}"))
            );
        }
    }

    #[test]
    fn obsolete_files_deleted_after_compaction() {
        let mut o = test_opts("db");
        o.l0_trigger = 2;
        let env = o.env.clone();
        let db = open(o);
        for round in 0..8 {
            for i in 0..100 {
                put(&db, &format!("key{i:03}"), &format!("r{round}"));
            }
            db.flush().unwrap();
        }
        // On-disk .sst files must match the live version exactly.
        let version = db.current_version();
        let live: HashSet<u64> = version
            .levels
            .iter()
            .flatten()
            .map(|f| f.file_number)
            .collect();
        let on_disk: HashSet<u64> = env
            .list_prefix("db/")
            .unwrap()
            .iter()
            .filter_map(|p| parse_path("db", p))
            .filter(|(k, _)| *k == FileKind::Table)
            .map(|(_, n)| n)
            .collect();
        assert_eq!(live, on_disk);
    }

    #[test]
    fn empty_batch_is_noop() {
        let db = open(test_opts("db"));
        let before = db.last_sequence();
        db.write(WriteBatch::new()).unwrap();
        assert_eq!(db.last_sequence(), before);
    }

    /// What `BatchSweep::is_live` must reproduce: the version of `k`
    /// visible at `pt` through a point lookup of the pinned view, if it is
    /// a reference.
    fn point_visible_ref(reader: &BatchReader, k: &[u8], pt: SeqNo) -> Option<(SeqNo, ValueRef)> {
        match reader.view().get_at(k, pt).unwrap() {
            LsmReadResult::Found {
                seq,
                vtype: ValueType::ValueRef,
                value,
            } => Some((seq, ValueRef::decode(&value).unwrap())),
            _ => None,
        }
    }

    /// The reference the sweep calls live for `k` (identity check: accept
    /// anything, remember what was offered).
    fn sweep_visible_ref(sweep: &mut BatchSweep, k: &[u8]) -> Option<(SeqNo, ValueRef)> {
        let offered = std::cell::Cell::new(None);
        let live = sweep
            .is_live(k, &|seq, r| {
                offered.set(Some((seq, *r)));
                true
            })
            .unwrap();
        offered.get().filter(|_| live)
    }

    /// A co-sequential [`BatchReader::sweep`] must reach the verdict of a
    /// point `get_at` for every key at every read point, across memtable,
    /// L0 and deeper levels, over references, inline values (which a
    /// DTable keeps out of the sweep), tombstones and absent keys.
    #[test]
    fn validate_batch_matches_point_gets() {
        for format in [KTableFormat::BTable, KTableFormat::DTable] {
            let mut o = test_opts("db");
            o.ktable_format = format;
            let db = open(o);
            // Several generations, forcing data into multiple levels; the
            // last one lands in L0 after the others were compacted, so a
            // third of its inline values shadow an older level's refs.
            for round in 0..5u64 {
                for i in 0..150u64 {
                    let k = format!("key{i:04}");
                    if (i + round) % 3 == 0 {
                        put(&db, &k, &format!("r{round}-{i}"));
                    } else {
                        put_ref(&db, &k, round * 1000 + i);
                    }
                }
                db.flush().unwrap();
            }
            let snap = db.snapshot();
            for i in (0..150).step_by(3) {
                put(&db, &format!("key{i:04}"), "fresh");
            }
            for i in (0..150).step_by(7) {
                del(&db, &format!("key{i:04}"));
            }
            // Leave some writes unflushed so the memtable participates.
            let latest = db.last_sequence();

            let mut keys: Vec<Vec<u8>> = (0..150)
                .map(|i| format!("key{i:04}").into_bytes())
                .collect();
            keys.push(b"absent-key".to_vec());
            keys.sort();
            let reader = db.batch_reader();
            for pt in [snap.sequence(), latest] {
                let mut sweep = reader.sweep(pt).unwrap();
                let mut live = 0;
                for k in &keys {
                    let got = sweep_visible_ref(&mut sweep, k);
                    let want = point_visible_ref(&reader, k, pt);
                    assert_eq!(
                        got,
                        want,
                        "{format:?} key {:?} at {pt}",
                        String::from_utf8_lossy(k)
                    );
                    live += usize::from(got.is_some());
                }
                assert!(live > 20, "{format:?}: only {live} live refs at {pt}");
            }
        }
    }

    /// One step of [`prop_sweep_verdict_equals_point_lookup`]'s history.
    #[derive(Debug, Clone, Copy)]
    enum TreeOp {
        Inline(u8),
        Ref(u8),
        Delete(u8),
        Flush,
        Compact,
        Snapshot,
    }

    fn tree_op() -> impl proptest::strategy::Strategy<Value = TreeOp> {
        use proptest::prelude::*;
        (0u8..12, 0u8..6).prop_map(|(kind, key)| match kind {
            0..=2 => TreeOp::Inline(key),
            3..=6 => TreeOp::Ref(key),
            7 => TreeOp::Delete(key),
            8..=9 => TreeOp::Flush,
            10 => TreeOp::Compact,
            _ => TreeOp::Snapshot,
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// Random DTable trees under snapshots: keys flip between inline
        /// and separated values, so newer inline versions sit in the
        /// memtable, in a shallower level than the reference, or — pinned
        /// by a snapshot — in the very kSST that holds it. For every
        /// `(ukey, seq, read point)` the sweep's verdict equals the point
        /// lookup's.
        #[test]
        fn prop_sweep_verdict_equals_point_lookup(
            ops in proptest::collection::vec(tree_op(), 1..60),
        ) {
            let mut o = test_opts("db");
            o.ktable_format = KTableFormat::DTable;
            let db = open(o);
            let key = |k: u8| format!("key{k}");
            let mut seqs: Vec<(u8, SeqNo)> = Vec::new();
            let mut snaps = Vec::new();
            for (n, op) in ops.iter().enumerate() {
                match *op {
                    TreeOp::Inline(k) => put(&db, &key(k), &format!("inline-{n}")),
                    TreeOp::Ref(k) => put_ref(&db, &key(k), n as u64),
                    TreeOp::Delete(k) => del(&db, &key(k)),
                    TreeOp::Flush => db.flush().unwrap(),
                    TreeOp::Compact => db.compact_until_stable().unwrap(),
                    TreeOp::Snapshot => snaps.push(db.snapshot()),
                }
                if let TreeOp::Inline(k) | TreeOp::Ref(k) | TreeOp::Delete(k) = *op {
                    seqs.push((k, db.last_sequence()));
                }
            }
            seqs.sort_unstable();
            let reader = db.batch_reader();
            for pt in db.read_points() {
                let mut sweep = reader.sweep(pt).unwrap();
                for &(k, seq) in &seqs {
                    let ukey = key(k).into_bytes();
                    let want = point_visible_ref(&reader, &ukey, pt).is_some_and(|(s, _)| s == seq);
                    let got = sweep.is_live(&ukey, &|s, _| s == seq).unwrap();
                    proptest::prop_assert_eq!(got, want, "{} seq {} at {}", key(k), seq, pt);
                }
            }
        }
    }

    /// A sweep pins the pre-existing state: writes after `batch_reader`
    /// are invisible to it.
    #[test]
    fn batch_reader_pins_view() {
        let db = open(test_opts("db"));
        put_ref(&db, "k", 1);
        let seq = db.last_sequence();
        let reader = db.batch_reader();
        put_ref(&db, "k", 2);
        let mut sweep = reader.sweep(db.last_sequence()).unwrap();
        let (s, r) = sweep_visible_ref(&mut sweep, b"k").expect("pinned ref");
        assert_eq!((s, r.offset), (seq, 1));
    }

    /// A view pinned before rotation + flush + compaction still reads
    /// its epoch: the superversion bundle and the registered read point
    /// together keep every visible version resolvable.
    #[test]
    fn view_survives_rotate_flush_and_compaction() {
        let db = open(test_opts("db"));
        for i in 0..100 {
            put(&db, &format!("key{i:03}"), &format!("epoch0-{i}"));
        }
        let view = db.view();
        for round in 1..4 {
            for i in 0..100 {
                put(&db, &format!("key{i:03}"), &format!("epoch{round}-{i}"));
            }
            db.flush().unwrap();
        }
        db.compact_until_stable().unwrap();
        for i in (0..100).step_by(9) {
            match view.get(format!("key{i:03}").as_bytes()).unwrap() {
                LsmReadResult::Found { value, .. } => {
                    assert_eq!(&value[..], format!("epoch0-{i}").as_bytes());
                }
                other => panic!("view lost key{i}: {other:?}"),
            }
        }
        // Scans through the view also stay in the epoch.
        let mut it = view.scan(b"key", None).unwrap();
        let mut n = 0;
        while let Some(e) = it.next_entry().unwrap() {
            assert!(e.value.starts_with(b"epoch0-"), "scan mixed epochs");
            n += 1;
        }
        assert_eq!(n, 100);
        // The latest state reads the newest epoch.
        assert_eq!(get_str(&db, "key000"), Some("epoch3-0".into()));
    }

    /// Views register transient pins; snapshots register snapshot-kind
    /// read points; both unregister on drop.
    #[test]
    fn read_point_registration_is_raii() {
        let db = open(test_opts("db"));
        put(&db, "k", "v");
        assert!(db.oldest_read_point().is_none());
        let view = db.view();
        assert_eq!(db.oldest_read_point(), Some(view.sequence()));
        assert!(db.snapshot_sequences().is_empty());
        assert_eq!(db.read_points(), vec![view.sequence()]);
        let snap = db.snapshot();
        assert_eq!(db.snapshot_sequences(), vec![snap.sequence()]);
        drop(view);
        drop(snap);
        assert!(db.oldest_read_point().is_none());
        assert!(db.read_points().is_empty());
    }

    /// The batch reader owns a registered view, so GC validation batches
    /// hold a read point for their whole lifetime.
    #[test]
    fn batch_reader_registers_read_point() {
        let db = open(test_opts("db"));
        put(&db, "k", "v");
        let reader = db.batch_reader();
        assert_eq!(db.oldest_read_point(), Some(reader.view().sequence()));
        drop(reader);
        assert!(db.oldest_read_point().is_none());
    }

    /// The snapshot handle reads directly (get/scan) without the caller
    /// threading `sequence()` through `get_at`.
    #[test]
    fn snapshot_handle_reads_directly() {
        let db = open(test_opts("db"));
        put(&db, "k", "old");
        let snap = db.snapshot();
        put(&db, "k", "new");
        del(&db, "k");
        match snap.get(b"k").unwrap() {
            LsmReadResult::Found { value, .. } => assert_eq!(&value[..], b"old"),
            other => panic!("{other:?}"),
        }
        let mut it = snap.scan(b"", None).unwrap();
        let e = it.next_entry().unwrap().unwrap();
        assert_eq!(e.user_key, b"k");
        assert_eq!(&e.value[..], b"old");
        assert!(it.next_entry().unwrap().is_none());
    }

    /// After any quiescent sequence of mutations, the installed bundle
    /// must mirror the live structures exactly (same `Arc`s) — i.e. the
    /// copy-on-write install chain converges on precisely the bundle a
    /// full rebuild would produce.
    #[test]
    fn cow_install_mirrors_live_structures() {
        let db = open(test_opts("db"));
        let check = |db: &Lsm, stage: &str| {
            let sv = db.inner.sv.read().clone();
            assert!(
                Arc::ptr_eq(&sv.mem, &db.inner.mem.read()),
                "{stage}: active memtable diverged"
            );
            let imms = db.inner.imms.read();
            assert_eq!(sv.imms.len(), imms.len(), "{stage}: imm count");
            for (got, want) in sv.imms.iter().zip(imms.iter().rev()) {
                assert!(Arc::ptr_eq(got, &want.mem), "{stage}: imm order diverged");
            }
            drop(imms);
            assert!(
                Arc::ptr_eq(&sv.version, &db.current_version()),
                "{stage}: SST version diverged"
            );
        };
        check(&db, "fresh");
        for round in 0..5 {
            for i in 0..120 {
                put(&db, &format!("key{i:03}"), &format!("r{round}-{i}"));
            }
            check(&db, "after writes");
            db.flush().unwrap();
            check(&db, "after flush");
        }
        db.compact_until_stable().unwrap();
        check(&db, "after compaction");
        db.force_compact_once().unwrap();
        check(&db, "after forced compaction");
    }

    /// The CoW install path and a full rebuild must be observationally
    /// identical: same reads, same scans, same file layout, under an op
    /// mix that exercises rotation, flush, compaction, trivial moves,
    /// and long-lived views. The reference run replaces the installed
    /// bundle with a full rebuild before every read.
    #[test]
    fn cow_install_is_equivalent_to_rebuild() {
        let run = |rebuild: bool| {
            let db = open(test_opts(if rebuild { "db-rebuild" } else { "db-cow" }));
            let reference = |db: &Lsm| {
                if rebuild {
                    db.install_superversion();
                }
            };
            let mut pinned = Vec::new();
            for round in 0..6 {
                for i in 0..150 {
                    put(&db, &format!("key{i:04}"), &format!("r{round}-{i}"));
                }
                if round % 2 == 0 {
                    for i in (0..150).step_by(13) {
                        del(&db, &format!("key{i:04}"));
                    }
                }
                reference(&db);
                pinned.push(db.view());
                db.flush().unwrap();
            }
            db.compact_until_stable().unwrap();
            reference(&db);
            // Latest reads.
            let mut latest = Vec::new();
            for i in 0..150 {
                latest.push(get_str(&db, &format!("key{i:04}")));
            }
            // Full scan.
            let mut scanned = Vec::new();
            let mut it = db.scan(b"", None).unwrap();
            while let Some(e) = it.next_entry().unwrap() {
                scanned.push((e.user_key, e.value.to_vec()));
            }
            // Epoch reads through the pinned views.
            let mut epochs = Vec::new();
            for v in &pinned {
                epochs.push(match v.get(b"key0000").unwrap() {
                    LsmReadResult::Found { value, .. } => Some(value.to_vec()),
                    _ => None,
                });
            }
            // File layout.
            let version = db.current_version();
            let layout: Vec<Vec<u64>> = version
                .levels
                .iter()
                .map(|l| l.iter().map(|f| f.file_number).collect())
                .collect();
            drop(pinned);
            (latest, scanned, epochs, layout)
        };
        assert_eq!(run(false), run(true));
    }

    /// A compaction reads each input in device-sized ops — one tail
    /// read, then forward spans — and every byte exactly once, whichever
    /// table format interleaves however many streams.
    #[test]
    fn compaction_reads_inputs_in_spans_not_blocks() {
        for format in [KTableFormat::BTable, KTableFormat::DTable] {
            let env = MemEnv::shared();
            let mut o = LsmOptions::new(env.clone(), "db");
            o.ktable_format = format;
            o.memtable_size = 4 << 20;
            o.target_file_size = 4 << 20;
            let db = open(o);
            // One input of several spans, then small ones up to the L0
            // trigger; a third of the entries are references.
            let mut input_bytes = 0;
            let mut max_reads = 0;
            for (round, keys) in [6000u64, 100, 100, 100].into_iter().enumerate() {
                for i in 0..keys {
                    let k = format!("key{i:05}");
                    if i % 3 == 0 {
                        put_ref(&db, &k, i);
                    } else {
                        put(&db, &k, &format!("{round}-{i}-").repeat(30));
                    }
                }
                let before = env.io_stats().snapshot();
                db.flush().unwrap();
                let d = env.io_stats().snapshot().delta(&before);
                let size = d.class(IoClass::Flush).write_bytes;
                input_bytes += size;
                max_reads += 1 + size.div_ceil(COMPACTION_READAHEAD as u64);
                let compacted = d.class(IoClass::Compaction);
                if round < 3 {
                    assert_eq!(compacted.read_ops, 0, "{format:?}: compacted early");
                    continue;
                }
                assert!(input_bytes > 2 * COMPACTION_READAHEAD as u64);
                assert_eq!(compacted.read_bytes, input_bytes, "{format:?}");
                assert!(
                    compacted.read_ops <= max_reads,
                    "{format:?}: {} reads of {input_bytes} bytes in 4 files",
                    compacted.read_ops
                );
            }
            for i in (0..6000).step_by(97) {
                let got = db.get(format!("key{i:05}").as_bytes()).unwrap();
                assert!(
                    matches!(got, LsmReadResult::Found { .. }),
                    "{format:?} key {i}"
                );
            }
        }
    }

    /// Opening the fresh WAL behind a full memtable used to fail the group
    /// that filled it after the group had landed, so a caller retrying a
    /// non-idempotent batch applied it twice. The group keeps its
    /// receipts; the WAL is poisoned and the next group rotates first.
    #[test]
    fn a_failed_wal_rotation_does_not_fail_the_group_that_landed() {
        use scavenger_env::{FaultKind, FaultOp};
        let (fault, mut o) = fault_rig();
        o.memtable_size = 4 * 1024;
        // The store opens the first WAL; the second opens when the
        // memtable fills.
        fault.add_rule(fault_rule(FaultOp::Open, ".log", 2, FaultKind::Fail));
        let db = open(o.clone());
        let write = |k: &str| {
            let mut b = WriteBatch::new();
            b.put(k.as_bytes(), Bytes::from(vec![b'v'; 200]));
            db.write(b)
        };
        let mut n = 0;
        while db.counters().flushes.load(Ordering::Relaxed) == 0 {
            write(&format!("k{n:03}")).expect("the group that filled the memtable landed");
            n += 1;
        }
        write("after").expect("the next group rotates the poisoned WAL first");
        fault.crash();
        drop(db);
        fault.heal();
        let db = open(o);
        for i in 0..n {
            assert!(get_str(&db, &format!("k{i:03}")).is_some(), "k{i:03} lost");
        }
        assert!(get_str(&db, "after").is_some());
    }

    /// A store whose memtable never fills.
    fn roomy() -> Lsm {
        let mut o = LsmOptions::new(MemEnv::shared(), "db");
        o.memtable_size = 1 << 20;
        open(o)
    }

    fn batch(k: &str, v: &str) -> WriteBatch {
        let mut b = WriteBatch::new();
        b.put(k.as_bytes(), Bytes::copy_from_slice(v.as_bytes()));
        b
    }

    /// Wait up to ten seconds for `done`.
    fn wait_for(done: impl Fn() -> bool) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done() {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        true
    }

    /// Hold the WAL's log lock, so the next leader parks before it writes;
    /// queue `members` behind it one at a time and in order; let go.
    /// Returns each member's outcome. Two plain writes race to lead: the
    /// winner is a group of its own, the other queues first, so the
    /// members share one group with that filler ahead of them.
    ///
    /// Only the queue's length (`GroupCommit::queued`) shows that a writer
    /// has queued, and the order inside a group is what these tests stage,
    /// so they are unit tests rather than integration tests.
    fn queue_behind_a_parked_leader(
        db: &Lsm,
        members: Vec<(WriteBatch, Option<Precondition>)>,
    ) -> Vec<Result<WriteReceipt>> {
        let held = db.inner.wal.lock();
        std::thread::scope(|s| {
            let fillers = [
                s.spawn(|| db.write(batch("p0", "0"))),
                s.spawn(|| db.write(batch("p1", "1"))),
            ];
            let mut queued_in_order = wait_for(|| db.inner.wal.queued() == 1);
            let members: Vec<_> = members
                .into_iter()
                .enumerate()
                .map(|(i, (b, check))| {
                    let h = s.spawn(move || db.write_checked(&WriteOptions::default(), b, check));
                    queued_in_order &= wait_for(|| db.inner.wal.queued() == i + 2);
                    h
                })
                .collect();
            drop(held);
            for f in fillers {
                f.join().unwrap().unwrap();
            }
            assert!(queued_in_order, "a member did not queue behind the leader");
            members.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// A transaction on one member no longer validates and fsyncs alone
    /// under the writer lock: queued with plain writes, it commits in
    /// their group — one WAL record, one fsync.
    #[test]
    fn a_transaction_queued_with_plain_writes_shares_their_group() {
        let db = roomy();
        put(&db, "k", "v");
        let read_at = db.last_sequence();
        let groups = || db.counters().group_commit_groups.load(Ordering::Relaxed);
        let io = db.inner.opts.env.io_stats();
        let syncs = || io.snapshot().class(IoClass::Wal).syncs;
        let (groups0, syncs0) = (groups(), syncs());
        let reads = Precondition::Reads(vec![(b"k".to_vec(), read_at)]);
        let out = queue_behind_a_parked_leader(
            &db,
            vec![
                (batch("p2", "2"), None),
                (batch("t", "1"), Some(reads)),
                (batch("p3", "3"), None),
            ],
        );
        for r in &out {
            assert_eq!(r.as_ref().unwrap().group_len, 4, "one group of four");
        }
        assert_eq!(groups() - groups0, 2, "the parked group, then one record");
        assert_eq!(syncs() - syncs0, 2, "one fsync per group");
        assert_eq!(get_str(&db, "t"), Some("1".into()));
    }

    /// A check sees the keys written by members queued ahead of it in its
    /// own group, which the tree does not show yet: a transaction that
    /// read `k` before a groupmate's put of `k` conflicts, and a
    /// write-back of `k2` behind a groupmate's put of `k2` is dropped —
    /// while the puts land.
    #[test]
    fn a_check_sees_the_writes_of_its_groupmates() {
        let db = roomy();
        let old_ref = ValueRef {
            file: 7,
            size: 100,
            offset: 40,
        };
        put(&db, "k", "v0");
        let mut b = WriteBatch::new();
        b.put_ref(b"k2", old_ref);
        db.write(b).unwrap();
        let read_at = db.last_sequence();
        let write_back = Precondition::Guarded(vec![GuardedWrite {
            key: b"k2".to_vec(),
            expected: old_ref,
            replacement: ValueRef {
                file: 9,
                size: 100,
                offset: 0,
            },
        }]);
        let out = queue_behind_a_parked_leader(
            &db,
            vec![
                (batch("k", "v1"), None),
                (
                    batch("t", "1"),
                    Some(Precondition::Reads(vec![(b"k".to_vec(), read_at)])),
                ),
                (batch("k2", "user"), None),
                (WriteBatch::new(), Some(write_back)),
            ],
        );
        assert_eq!(out[0].as_ref().unwrap().group_len, 3);
        assert!(out[1].as_ref().unwrap_err().is_txn_conflict());
        assert_eq!(out[2].as_ref().unwrap().group_len, 3);
        assert_eq!(out[3].as_ref().unwrap().group_len, 0, "entry dropped");
        assert_eq!(get_str(&db, "k"), Some("v1".into()));
        assert_eq!(get_str(&db, "t"), None);
        assert_eq!(get_str(&db, "k2"), Some("user".into()));
    }

    /// A read-only transaction's validation is its whole commit: it does
    /// not queue, so a poisoned WAL that cannot be rotated does not fail
    /// it, and a stale read still conflicts.
    #[test]
    fn a_read_only_transaction_commits_on_a_poisoned_wal() {
        use scavenger_env::{FaultKind, FaultOp, FaultRule, Trigger};
        let (fault, o) = fault_rig();
        let db = open(o);
        put(&db, "k", "v");
        let read_at = db.last_sequence();
        fault.add_rule(fault_rule(FaultOp::Sync, ".log", 1, FaultKind::Fail));
        assert!(
            db.write(batch("y", "1")).is_err(),
            "the failed sync poisons the WAL"
        );
        fault.add_rule(FaultRule {
            trigger: Trigger::Always,
            one_shot: false,
            ..fault_rule(FaultOp::Open, ".log", 1, FaultKind::Fail)
        });
        assert!(
            db.write(batch("z", "1")).is_err(),
            "the WAL cannot be rotated"
        );
        let read_only = |seq| {
            db.write_checked(
                &WriteOptions::default(),
                WriteBatch::new(),
                Some(Precondition::Reads(vec![(b"k".to_vec(), seq)])),
            )
        };
        assert_eq!(read_only(read_at).unwrap().group_len, 0);
        assert!(read_only(read_at - 1).unwrap_err().is_txn_conflict());
    }

    /// Dense batches advance by stepping, not re-seeking every key.
    #[test]
    fn sweep_steps_instead_of_seeking_dense_batches() {
        let db = open(test_opts("db"));
        for i in 0..400 {
            put_ref(&db, &format!("key{i:04}"), i);
        }
        db.flush().unwrap();
        db.compact_until_stable().unwrap();
        let keys: Vec<Vec<u8>> = (0..400)
            .map(|i| format!("key{i:04}").into_bytes())
            .collect();
        let reader = db.batch_reader();
        let mut sweep = reader.sweep(db.last_sequence()).unwrap();
        for k in &keys {
            assert!(sweep.is_live(k, &|_, _| true).unwrap());
        }
        let stats = sweep.stats();
        assert!(
            stats.seeks < 40,
            "dense sweep should mostly step (seeks {}, steps {})",
            stats.seeks,
            stats.steps
        );
    }
}
