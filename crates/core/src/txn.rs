//! Optimistic transactions and the cross-shard two-phase-commit
//! coordinator.
//!
//! Two layers live here:
//!
//! 1. **[`Transaction`]** — an optimistic-concurrency-control (OCC)
//!    transaction on a [`Db`] of any size. Reads pin a view at begin
//!    time and record a *read set* (key → the sequence the view reads
//!    at); writes buffer locally and are invisible to other readers
//!    until commit. Commit validates the read set — every read key must
//!    still have no version newer than the transaction's read point —
//!    and then applies the write buffer atomically through the store's
//!    one commit rule (see [`Transactional`]). Validation failure
//!    surfaces as [`Error::TxnConflict`] with nothing written; the
//!    caller re-runs the transaction against current state.
//!
//! 2. **`Coordinator`** — the two-phase-commit log that makes a
//!    multi-shard [`Db`] batch crash-atomic for **one fsync**. A
//!    `Prepare` record carrying the full redo payload (per-shard
//!    sub-batch bytes + CRC digest + the shard's sequence floor) is
//!    fsynced *before* any shard write, and that record *is* the batch's
//!    durable copy: each shard sub-batch is then applied unsynced. The
//!    log is written through the same group commit as a WAL
//!    ([`GroupCommit`]): prepares queued behind a sync share the next
//!    one, and no lock that another commit's bookkeeping needs is held
//!    across it. A prepare may be forgotten only after a **barrier** —
//!    every shard's WAL synced with no apply in flight — followed by
//!    replacing the log with an empty one; it runs once the log passes
//!    1 MiB (by the commit that drains the last apply, or else by the
//!    next group before it appends), and when the store is flushed,
//!    compacted or closed. Recovery at
//!    [`Db::open`] **rolls forward** every
//!    prepare still in the log, in log order, re-applying each entry
//!    only if the key has no version newer than the prepare-time floor
//!    (a newer version means the entry already landed, or was legally
//!    superseded by a later write — either way re-applying would
//!    resurrect stale data), then runs the barrier itself before the log
//!    goes. A later *delete* is such a version only while its tombstone
//!    exists, so the shards hold back tombstone elision for as long as a
//!    prepare is in the log. There is no commit record: nothing cheaper
//!    than the barrier can vouch that a shard's unsynced apply survived.
//!    Torn or corrupt records describe transactions whose prepare never
//!    became durable, i.e. nothing was applied and nobody was told
//!    otherwise — they are discarded. A failed append or fsync poisons
//!    the log handle: that group's commits fail, and the next group waits
//!    out any commit still applying, runs the barrier and starts a fresh
//!    log first (a torn record would hide every later prepare from
//!    recovery; a failed fsync is never retried). A failed *shard apply*
//!    fails its commit and the batch is completed, under the same guard,
//!    as soon as the shard takes writes again. ARCHITECTURE.md "Transactions &
//!    two-phase commit" has the full durability argument.
//!
//! The coordinator log lives at `<root>/COORDLOG` so fault-injection
//! rules can target it by substring.

use std::collections::{BTreeMap, HashSet};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use scavenger_env::{EnvRef, IoClass};
use scavenger_lsm::wal::{read_all_records, LogWriter};
use scavenger_lsm::{GroupCommit, GroupLeader, Logged, Precondition, WriteBatch};
use scavenger_util::coding::{
    get_fixed32, get_fixed64, get_length_prefixed_slice, get_varint32, put_fixed32, put_fixed64,
    put_length_prefixed_slice, put_varint32,
};
use scavenger_util::ikey::{SeqNo, ValueType, MAX_SEQNO};
use scavenger_util::{crc32c, Error, Result};

use crate::db::{Db, ScanEntry};
use crate::shard::Shard;
use crate::view::{ReadView, WriteOptions, WriteReceipt};

// ---------------------------------------------------------------------------
// Transactional + Transaction
// ---------------------------------------------------------------------------

/// Optimistic transactions: [`begin`](Transactional::begin) on a [`Db`].
///
/// This is the crate's one trait, with one implementation. It exists
/// only because the benchmark harness
/// (`benchmark/src/workloads/shards_txn.rs`) imports it and names it as
/// a bound, and the harness changes only with the benchmark's
/// definition. Delete it — `begin` becomes an inherent method of
/// [`Db`] — in the `[benchmark]` PR of ROADMAP item 5.
///
/// ## Isolation
///
/// Reads inside a transaction see the engine at begin time (snapshot
/// isolation) plus the transaction's own buffered writes. Commit-time
/// validation rejects the transaction if any key it *read* has a newer
/// version than its read point, so transactions that commit are
/// serializable against each other (write-write conflicts are a special
/// case: blind writes alone never conflict, matching classic OCC — add
/// the key to the read set with [`Transaction::get`] to get write-write
/// detection). Range scans record the keys they return, not the range
/// itself, so phantoms (keys *inserted* into a scanned range after
/// begin) are not detected.
///
/// One commit rule covers every store size. Transactions whose keys
/// overlap serialize; disjoint ones commit concurrently. A commit waits
/// while any key it read or writes belongs to a commit still in flight,
/// then registers its own keys until its apply is done — overlapping
/// commits wait rather than abort, so blind writes still never conflict.
/// A transaction whose reads and writes all route to one member — every
/// transaction, on a plain store — joins that member's group-commit
/// queue like any write, and the group's leader validates it against the
/// tree and against the writes of the members queued ahead of it, under
/// the WAL's lock, as it writes the group; so it is serializable against
/// raw writes too, and it shares its group's WAL record and fsync. A
/// read-only one has nothing to queue: it is validated under that lock
/// and returns.
/// One that spans members is validated against the owning members'
/// latest sequences before it registers, and then applied like any
/// batch (2PC when its writes span members): a raw single-member write
/// racing it can land between validation and apply.
pub trait Transactional {
    /// Begin an optimistic transaction: pins a view of the store at
    /// the current sequence and returns an empty transaction against
    /// it.
    fn begin(&self) -> Transaction;
}

impl Transactional for Db {
    fn begin(&self) -> Transaction {
        Transaction {
            db: self.clone(),
            view: self.view(),
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
        }
    }
}

impl Db {
    /// Validate `reads` against current state and, if every read is
    /// still current, atomically apply `batch`: the commit of
    /// [`Transaction::commit_with`].
    pub(crate) fn txn_commit(
        &self,
        reads: Vec<(Vec<u8>, SeqNo)>,
        batch: WriteBatch,
        opts: &WriteOptions,
    ) -> Result<WriteReceipt> {
        let inner = &self.inner;
        let keys = reads.iter().map(|(k, _)| &k[..]);
        let keys: Vec<&[u8]> = keys
            .chain(batch.entries().iter().map(|e| &e.key[..]))
            .collect();
        let owner = inner.owner(keys.iter().copied());
        let entered = inner.in_flight.enter(&keys, || match owner {
            Some(_) => Ok(()),
            None => validate(self, &reads),
        });
        // `_in_flight` keeps the keys registered until the apply returns.
        let committed = entered.and_then(|_in_flight| match owner {
            Some(i) => inner.shards[i].commit(opts, batch, Some(Precondition::Reads(reads))),
            None => inner.commit_split(opts, batch),
        });
        match &committed {
            Ok(_) => inner.txn_commits.fetch_add(1, Ordering::Relaxed),
            Err(e) if e.is_txn_conflict() => inner.txn_conflicts.fetch_add(1, Ordering::Relaxed),
            Err(_) => 0,
        };
        committed
    }
}

/// Check every read of a transaction spanning members against its
/// owning member's latest sequence.
fn validate(db: &Db, reads: &[(Vec<u8>, SeqNo)]) -> Result<()> {
    for (key, read_seq) in reads {
        let shard = db.shard_of(key);
        if let Some(seq) = db.shard(shard).lsm().latest_seq(key)? {
            if seq > *read_seq {
                return Err(Error::txn_conflict(format!(
                    "key {:?} was written at sequence {seq} on shard {shard}, after \
                     the transaction's read point {read_seq}",
                    String::from_utf8_lossy(key)
                )));
            }
        }
    }
    Ok(())
}

/// The keys of every commit between its registration and the end of its
/// apply: the store's transaction lock covers only the wait, a
/// transaction's validation and the registration, so commits with
/// disjoint keys overlap their fsyncs and applies, and overlapping ones
/// run one after the other.
#[derive(Default)]
pub(crate) struct InFlight {
    keys: Mutex<HashSet<Vec<u8>>>,
    /// Signalled whenever a commit's keys leave the set.
    released: Condvar,
}

/// A commit's keys, registered in [`InFlight`] until this drops.
pub(crate) struct InFlightKeys<'a> {
    set: &'a InFlight,
    keys: Vec<Vec<u8>>,
}

impl InFlight {
    /// Wait until none of `keys` is in flight, run `check` while no other
    /// commit can register, and register `keys` unless it failed.
    pub(crate) fn enter(
        &self,
        keys: &[&[u8]],
        check: impl FnOnce() -> Result<()>,
    ) -> Result<InFlightKeys<'_>> {
        let mut set = self.keys.lock();
        while keys.iter().any(|k| set.contains(*k)) {
            self.released.wait(&mut set);
        }
        check()?;
        let keys: Vec<Vec<u8>> = keys.iter().map(|k| k.to_vec()).collect();
        set.extend(keys.iter().cloned());
        Ok(InFlightKeys { set: self, keys })
    }
}

impl Drop for InFlightKeys<'_> {
    fn drop(&mut self) {
        let mut set = self.set.keys.lock();
        for k in &self.keys {
            set.remove(k);
        }
        self.set.released.notify_all();
    }
}

/// An optimistic transaction on a [`Db`].
///
/// Created by [`Transactional::begin`]. Reads ([`get`](Self::get),
/// [`scan`](Self::scan)) see the engine as of begin time plus this
/// transaction's own writes; writes ([`put`](Self::put),
/// [`delete`](Self::delete)) buffer locally. [`commit`](Self::commit)
/// validates the read set and applies the buffer atomically —
/// all-or-nothing even across shards — or fails with
/// [`Error::TxnConflict`] having written nothing.
/// [`rollback`](Self::rollback) (or just dropping the transaction)
/// discards the buffer.
///
/// ```
/// use scavenger::{Db, EngineMode, MemEnv, Options, Transactional};
///
/// let db = Db::open(Options::new(MemEnv::shared(), "txn-demo", EngineMode::Scavenger)).unwrap();
/// db.put(b"balance", &b"100"[..]).unwrap();
///
/// let mut txn = db.begin();
/// let v = txn.get(b"balance").unwrap().unwrap();
/// assert_eq!(v.as_ref(), b"100");
/// txn.put(b"balance", &b"90"[..]);
/// txn.put(b"audit", &b"spent 10"[..]);
/// txn.commit().unwrap(); // both keys land atomically, or neither
/// ```
pub struct Transaction {
    db: Db,
    view: ReadView,
    /// Key → the sequence the pinned view reads it at. Commit fails if
    /// any of these keys gains a newer version before validation.
    reads: BTreeMap<Vec<u8>, SeqNo>,
    /// Key → buffered write (`None` = delete).
    writes: BTreeMap<Vec<u8>, Option<Bytes>>,
}

impl Transaction {
    /// Read `key`: the transaction's own buffered write if there is
    /// one, else the value at the transaction's read point. Either way
    /// the key joins the read set, so the commit fails if another
    /// writer changes it first.
    pub fn get(&mut self, key: impl AsRef<[u8]>) -> Result<Option<Bytes>> {
        let key = key.as_ref();
        let seq = self.view.sequence_for(key);
        self.reads.entry(key.to_vec()).or_insert(seq);
        if let Some(buffered) = self.writes.get(key) {
            return Ok(buffered.clone());
        }
        self.view.get(key)
    }

    /// Buffer a put of `key` → `value`. Visible to this transaction's
    /// own reads immediately; visible to everyone else only after
    /// [`commit`](Self::commit).
    pub fn put(&mut self, key: impl AsRef<[u8]>, value: impl Into<Bytes>) {
        self.writes
            .insert(key.as_ref().to_vec(), Some(value.into()));
    }

    /// Buffer a delete of `key`.
    pub fn delete(&mut self, key: impl AsRef<[u8]>) {
        self.writes.insert(key.as_ref().to_vec(), None);
    }

    /// Range scan over `[lo, hi)` (unbounded when `hi` is `None`) at
    /// the transaction's read point, overlaid with the transaction's
    /// own buffered writes. The result is materialized; every *base*
    /// key the scan observes joins the read set. Keys newly inserted
    /// into the range by other writers after begin are not tracked
    /// (no phantom protection).
    pub fn scan(&mut self, lo: &[u8], hi: Option<&[u8]>) -> Result<Vec<ScanEntry>> {
        if hi.is_some_and(|h| h <= lo) {
            return Ok(Vec::new());
        }
        let base: Vec<ScanEntry> = self.view.scan(lo, hi)?.collect::<Result<Vec<_>>>()?;
        let hi_bound = match hi {
            Some(h) => Bound::Excluded(h),
            None => Bound::Unbounded,
        };
        let mut overlay = self
            .writes
            .range::<[u8], _>((Bound::Included(lo), hi_bound))
            .peekable();
        let mut out = Vec::new();
        for entry in base {
            // Overlay-only keys strictly before this base key.
            while let Some((k, v)) = overlay.peek() {
                if k.as_slice() >= entry.key.as_slice() {
                    break;
                }
                if let Some(v) = v {
                    out.push(ScanEntry {
                        key: (*k).clone(),
                        value: v.clone(),
                    });
                }
                overlay.next();
            }
            let seq = self.view.sequence_for(&entry.key);
            self.reads.entry(entry.key.clone()).or_insert(seq);
            if let Some((k, v)) = overlay.peek() {
                if k.as_slice() == entry.key.as_slice() {
                    // Buffered write shadows the base version.
                    if let Some(v) = v {
                        out.push(ScanEntry {
                            key: entry.key.clone(),
                            value: v.clone(),
                        });
                    }
                    overlay.next();
                    continue;
                }
            }
            out.push(entry);
        }
        for (k, v) in overlay {
            if let Some(v) = v {
                out.push(ScanEntry {
                    key: k.clone(),
                    value: v.clone(),
                });
            }
        }
        Ok(out)
    }

    /// Commit with default [`WriteOptions`]. See
    /// [`commit_with`](Self::commit_with).
    pub fn commit(self) -> Result<WriteReceipt> {
        self.commit_with(&WriteOptions::default())
    }

    /// Validate the read set and atomically apply the write buffer.
    ///
    /// Returns [`Error::TxnConflict`] — with **nothing written** — if
    /// any key this transaction read has a version newer than its read
    /// point. A read-only transaction (empty write buffer) still
    /// validates, so it can be used as a consistency check; an empty
    /// transaction commits trivially.
    pub fn commit_with(self, opts: &WriteOptions) -> Result<WriteReceipt> {
        let Transaction {
            db,
            view,
            reads,
            writes,
        } = self;
        // The pinned view's job is done: validation compares against
        // durable per-key sequences, not the pin. Release it first so
        // the read point never blocks the commit's own maintenance.
        drop(view);
        let mut batch = WriteBatch::new();
        for (key, value) in &writes {
            match value {
                Some(v) => batch.put(key, v.clone()),
                None => batch.delete(key),
            }
        }
        let reads: Vec<(Vec<u8>, SeqNo)> = reads.into_iter().collect();
        db.txn_commit(reads, batch, opts)
    }

    /// Discard the transaction: buffered writes are dropped, nothing
    /// is written. Equivalent to dropping the value; provided for
    /// explicitness.
    pub fn rollback(self) {}
}

// ---------------------------------------------------------------------------
// Two-phase-commit coordinator
// ---------------------------------------------------------------------------

/// File name of the coordinator log under a sharded store's root. The name
/// is substring-targetable by fault-injection rules (`"COORD"`).
const COORD_LOG: &str = "COORDLOG";

/// The barrier cadence under load: once the coordinator log exceeds this
/// size, the shards are synced and the log is replaced by an empty one as
/// soon as no apply is in flight — by the commit whose apply was the last,
/// or else by the next group, which waits for the applies to drain before
/// it appends. So the log never exceeds this by more than one group.
const COORD_ROTATE_BYTES: u64 = 1 << 20;

const PREPARE_TAG: u8 = 1;

/// One prepare as it waits in the coordinator log's commit queue: each
/// part's shard and encoded sub-batch. The leader adds the txn id and
/// floors.
type Prepare = Vec<(usize, Vec<u8>)>;

fn encode_parts(parts: &[(usize, WriteBatch)]) -> Prepare {
    parts.iter().map(|(s, b)| (*s, b.encode(0))).collect()
}

/// What the leader hands back for a prepare it made durable.
struct Prepared {
    txn_id: u64,
    /// The record as logged, kept in case an apply fails.
    record: Vec<u8>,
}

/// One shard's slice of a prepared multi-shard transaction.
#[derive(Debug)]
struct PreparedPart {
    /// Index into the store's shard vector.
    shard: usize,
    /// The shard's last sequence at prepare time. Roll-forward re-applies
    /// an entry only if its key has no version newer than this floor.
    floor: SeqNo,
    /// The redo payload: the sub-batch destined for this shard.
    batch: WriteBatch,
}

#[derive(Debug)]
struct PrepareRecord {
    txn_id: u64,
    parts: Vec<PreparedPart>,
}

fn encode_prepare(txn_id: u64, parts: &[(usize, Vec<u8>)], floors: &[SeqNo]) -> Vec<u8> {
    let mut buf = vec![PREPARE_TAG];
    put_fixed64(&mut buf, txn_id);
    put_varint32(&mut buf, parts.len() as u32);
    for ((shard, bytes), floor) in parts.iter().zip(floors) {
        put_varint32(&mut buf, *shard as u32);
        put_fixed64(&mut buf, *floor);
        put_fixed32(&mut buf, crc32c::value(bytes));
        put_length_prefixed_slice(&mut buf, bytes);
    }
    buf
}

fn decode_prepare(mut src: &[u8]) -> Result<PrepareRecord> {
    let (&tag, rest) = src
        .split_first()
        .ok_or_else(|| Error::corruption("empty coordinator record"))?;
    if tag != PREPARE_TAG {
        return Err(Error::corruption(format!(
            "unknown coordinator record tag {tag}"
        )));
    }
    src = rest;
    let txn_id = get_fixed64(&mut src)?;
    let n = get_varint32(&mut src)? as usize;
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        let shard = get_varint32(&mut src)? as usize;
        let floor = get_fixed64(&mut src)?;
        let digest = get_fixed32(&mut src)?;
        let bytes = get_length_prefixed_slice(&mut src)?;
        if crc32c::value(bytes) != digest {
            return Err(Error::corruption(format!(
                "coordinator prepare {txn_id}: sub-batch digest mismatch"
            )));
        }
        let (_, batch) = WriteBatch::decode(bytes)?;
        parts.push(PreparedPart {
            shard,
            floor,
            batch,
        });
    }
    Ok(PrepareRecord { txn_id, parts })
}

/// The barrier: make every write the shards have applied durable in the
/// shards themselves (one fsync per shard with an unsynced WAL tail),
/// after which no prepare in the coordinator log is needed any more.
fn barrier(shards: &[Shard]) -> Result<()> {
    shards.iter().try_for_each(|s| s.lsm().sync_wal())
}

/// Move every shard's tombstone hold: to its current sequence — at or
/// below every floor the log is about to record — when a log takes its
/// first prepare, away when the log is retired. While a prepare is in
/// the log no shard elides a tombstone newer than the prepare's floor,
/// so the roll-forward guard can always tell "deleted since" from
/// "never landed".
fn hold_tombstones(shards: &[Shard], held: bool) {
    for lsm in shards.iter().map(Shard::lsm) {
        lsm.hold_tombstones_above(if held { lsm.last_sequence() } else { MAX_SEQNO });
    }
}

/// The coordinator's bookkeeping. Never held across an fsync; lock order
/// is the log (the group's log lock) before this.
struct CoordState {
    next_txn: u64,
    /// Prepares in the log whose applies are in flight. The log is only
    /// replaced when this is zero, so the barrier never drops a prepare
    /// that is still some shard's only copy.
    outstanding: usize,
    /// The log's length after the last group, so a commit that drains
    /// `outstanding` can tell whether the barrier is due without waiting
    /// for the log lock.
    log_bytes: u64,
    /// Prepares with a failed shard apply: the caller got the error and
    /// the batch is part-applied. They are completed under the
    /// roll-forward guard before the log is retired, or by the next open.
    failed: Vec<PrepareRecord>,
}

/// The sharded store's two-phase-commit coordinator: owns the coordinator
/// log and drives prepare → per-shard apply for multi-shard batches,
/// the barrier that retires the log, and roll-forward recovery at open.
pub(crate) struct Coordinator {
    env: EnvRef,
    path: String,
    /// The coordinator log behind its commit queue: a group is every
    /// queued prepare appended in order, then one fsync.
    log: GroupCommit<LogWriter, Prepare, Prepared>,
    state: Mutex<CoordState>,
    /// Signalled when `outstanding` reaches zero.
    drained: Condvar,
    /// Multi-shard batches committed through the 2PC path.
    pub commits: AtomicU64,
    /// Prepares that had at least one entry re-applied, at open or when
    /// a failed apply was completed.
    pub rollforwards: AtomicU64,
}

impl Coordinator {
    /// Roll every prepare still in the log forward against `shards`
    /// (which must already be open), then start an empty coordinator
    /// log. Called from `Db::open`.
    pub fn open(env: &EnvRef, root: &str, shards: &[Shard]) -> Result<Coordinator> {
        let path = format!("{root}/{COORD_LOG}");
        let mut rollforwards = 0;
        if env.file_exists(&path) {
            let (records, _torn_tail) = read_all_records(env.read_file(&path, IoClass::Wal)?);
            // A torn or corrupt record is a prepare whose fsync never
            // returned: it was not acknowledged and nothing of it was
            // applied, so skipping it preserves all-or-nothing.
            let prepares: Vec<PrepareRecord> = records
                .iter()
                .filter_map(|rec| decode_prepare(rec).ok())
                .collect();
            rollforwards = Self::roll_forward(shards, &prepares)?;
        }
        // Creation truncates: the old log goes only now, after
        // roll-forward's barrier. Members opened with every tombstone
        // held; with the log empty the hold can go.
        let log = LogWriter::new(env.new_writable(&path, IoClass::Wal)?);
        hold_tombstones(shards, false);
        Ok(Coordinator {
            env: env.clone(),
            path,
            log: GroupCommit::new(log),
            state: Mutex::new(CoordState {
                next_txn: 1,
                outstanding: 0,
                log_bytes: 0,
                failed: Vec::new(),
            }),
            drained: Condvar::new(),
            commits: AtomicU64::new(0),
            rollforwards: AtomicU64::new(rollforwards),
        })
    }

    /// Complete `prepares` — the log's at open, or the ones whose apply
    /// failed, before the log is retired — in log order: re-apply each
    /// entry whose key has no version newer than the prepare-time floor.
    /// A newer version (a tombstone counts: the hold keeps it) means the
    /// entry already landed or was superseded by a later write —
    /// re-applying would resurrect stale data. Ends in the barrier.
    ///
    /// Every guard is evaluated against the state the shards recovered
    /// to, *before* anything is re-applied, and each shard's re-applies
    /// go in as one batch — one WAL record, so a crash mid-recovery
    /// leaves all of them or none. Applying prepare by prepare would let
    /// an earlier prepare's re-apply (at a fresh sequence, above every
    /// floor in the log) masquerade as a newer version of the same key
    /// and suppress a later prepare's entry that was lost with it.
    ///
    /// Returns how many prepares had at least one entry re-applied.
    fn roll_forward(shards: &[Shard], prepares: &[PrepareRecord]) -> Result<u64> {
        let mut redo: Vec<WriteBatch> = shards.iter().map(|_| WriteBatch::new()).collect();
        let mut rolled = 0;
        for p in prepares {
            let mut reapplied = false;
            for part in &p.parts {
                let db = shards.get(part.shard).ok_or_else(|| {
                    Error::corruption(format!(
                        "coordinator prepare {} references shard {} of {}",
                        p.txn_id,
                        part.shard,
                        shards.len()
                    ))
                })?;
                for e in part.batch.entries() {
                    let newer = db
                        .lsm()
                        .latest_seq(&e.key)?
                        .is_some_and(|seq| seq > part.floor);
                    if newer {
                        continue;
                    }
                    match e.vtype {
                        ValueType::Value => redo[part.shard].put(&e.key, e.value.clone()),
                        ValueType::Deletion => redo[part.shard].delete(&e.key),
                        ValueType::ValueRef => {
                            return Err(Error::corruption(
                                "coordinator log contains a value-reference entry",
                            ))
                        }
                    }
                    reapplied = true;
                }
            }
            rolled += u64::from(reapplied);
        }
        let opts = WriteOptions {
            sync: false,
            disable_throttle: true,
            txn_id: None,
        };
        for (shard, batch) in shards.iter().zip(redo) {
            if !batch.is_empty() {
                shard.commit(&opts, batch, None)?;
            }
        }
        barrier(shards)?;
        Ok(rolled)
    }

    /// Commit a multi-shard batch (≥ 2 non-empty parts) atomically with
    /// one fsync: a prepare record carrying the full redo payload is
    /// fsynced to the coordinator log — together with every other prepare
    /// queued behind the previous fsync — then each sub-batch is applied to
    /// its shard *unsynced*. The fsynced prepare is the batch's durability
    /// record — which is why a multi-shard receipt reports `synced = true`
    /// whatever `opts.sync` says — until a later barrier makes the shards'
    /// own copies durable and retires the log. The fsync runs under the
    /// log lock only; the bookkeeping lock is taken for counter updates,
    /// so a commit that has finished its applies never waits on another's
    /// fsync to record it.
    ///
    /// If a shard apply fails, the error is surfaced and the prepare
    /// joins `failed`: the batch is completed as soon as the shard takes
    /// writes again (tried now, after every later commit, and at
    /// [`retire`](Self::retire)) or by the next open, so the write's fate
    /// is *indeterminate*, never partially applied for good. Once every
    /// part has landed nothing can fail the call.
    pub fn commit(
        &self,
        shards: &[Shard],
        parts: Vec<(usize, WriteBatch)>,
        opts: &WriteOptions,
    ) -> Result<WriteReceipt> {
        debug_assert!(
            parts.len() >= 2,
            "single-shard batches skip the coordinator"
        );
        let leader = Prepares {
            coord: self,
            shards,
        };
        let Prepared { txn_id, record } = self.log.commit(encode_parts(&parts), &leader).0?;
        let shard_opts = WriteOptions {
            sync: false,
            disable_throttle: opts.disable_throttle,
            txn_id: Some(txn_id),
        };
        let applied: Result<(SeqNo, u64)> =
            parts
                .into_iter()
                .try_fold((0, 0), |(seq, group_len), (shard, batch)| {
                    let r = shards[shard].commit(&shard_opts, batch, None)?;
                    Ok((seq.max(r.seq), group_len + r.group_len))
                });
        self.finish(shards, applied.is_err().then_some(&record[..]));
        let (seq, group_len) = applied?;
        self.commits.fetch_add(1, Ordering::Relaxed);
        Ok(WriteReceipt {
            seq,
            group_len,
            synced: true,
        })
    }

    /// Take a commit's prepare off `outstanding` — into `failed` when an
    /// apply failed — and, if that drained the last apply, run the
    /// barrier when it is due. Best effort: this batch's fate is settled,
    /// and on failure the log, and every prepare in it, stays.
    fn finish(&self, shards: &[Shard], failed: Option<&[u8]>) {
        let due = {
            let mut st = self.state.lock();
            st.outstanding -= 1;
            if let Some(record) = failed {
                st.failed
                    .push(decode_prepare(record).expect("a record just encoded decodes"));
            }
            if st.outstanding > 0 {
                return;
            }
            self.drained.notify_all();
            st.log_bytes > COORD_ROTATE_BYTES || !st.failed.is_empty()
        };
        if due {
            let mut log = self.log.lock();
            let mut st = self.state.lock();
            if st.outstanding == 0 && (log.log.len() > COORD_ROTATE_BYTES || !st.failed.is_empty())
            {
                let _ = self.barrier_and_rotate(&mut log, &mut st, shards);
            }
        }
    }

    /// Retire the log now unless a commit is mid-apply: the store calls
    /// this when it flushes, before it compacts and when the last handle
    /// drops, so an idle store does not carry prepares (and the tombstone
    /// hold) until another mebibyte of commits, and a clean reopen finds
    /// nothing to roll forward.
    pub fn retire(&self, shards: &[Shard]) -> Result<()> {
        let mut log = self.log.lock();
        let mut st = self.state.lock();
        let empty = log.log.is_empty() && !log.poisoned && st.failed.is_empty();
        if empty || st.outstanding > 0 {
            return Ok(());
        }
        self.barrier_and_rotate(&mut log, &mut st, shards)
    }

    /// Wait until no apply is in flight, then retire the log. Run by a
    /// group's leader, holding the log lock, so no prepare can join the
    /// log meanwhile; the applies it waits for need only the bookkeeping
    /// lock to finish.
    fn rotate_when_drained(&self, log: &mut Logged<LogWriter>, shards: &[Shard]) -> Result<()> {
        let mut st = self.state.lock();
        while st.outstanding > 0 {
            self.drained.wait(&mut st);
        }
        self.barrier_and_rotate(log, &mut st, shards)
    }

    /// Complete the failed prepares and run the barrier, then replace
    /// the log with an empty one and release the tombstone hold: every
    /// record is history the shards now hold durably themselves. Only
    /// with nothing outstanding. Creation truncates, so there is no step
    /// between "old log" and "empty log" to crash in, and a failure
    /// leaves the old log (and the poison flag) in place.
    fn barrier_and_rotate(
        &self,
        log: &mut Logged<LogWriter>,
        st: &mut CoordState,
        shards: &[Shard],
    ) -> Result<()> {
        debug_assert_eq!(st.outstanding, 0);
        let redone = Self::roll_forward(shards, &st.failed)?;
        self.rollforwards.fetch_add(redone, Ordering::Relaxed);
        st.failed.clear();
        log.log = LogWriter::new(self.env.new_writable(&self.path, IoClass::Wal)?);
        log.poisoned = false;
        st.log_bytes = 0;
        hold_tombstones(shards, false);
        Ok(())
    }
}

/// The coordinator log's half of a group commit, for one store's members.
struct Prepares<'a> {
    coord: &'a Coordinator,
    shards: &'a [Shard],
}

impl GroupLeader<LogWriter, Prepare, Prepared> for Prepares<'_> {
    /// A poisoned log may be some in-flight batch's only copy: wait for
    /// those applies, then run the barrier and start a fresh log.
    fn rotate(&self, log: &mut Logged<LogWriter>) -> Result<()> {
        self.coord.rotate_when_drained(log, self.shards)
    }

    /// Append every prepare in queue order, then sync once. Each prepare's
    /// floors are read here, after the tombstone hold moved and before any
    /// of its applies, and the prepares count as outstanding before the
    /// log lock is released.
    fn write(&self, log: &mut Logged<LogWriter>, prepares: Vec<Prepare>) -> Result<Vec<Prepared>> {
        let (coord, shards) = (self.coord, self.shards);
        if log.log.len() > COORD_ROTATE_BYTES {
            // Overlapping commits may never leave `outstanding` at zero
            // on their own; best effort, as in `finish`.
            let _ = coord.rotate_when_drained(log, shards);
        }
        if log.log.is_empty() {
            hold_tombstones(shards, true);
        }
        let first = {
            let mut st = coord.state.lock();
            let first = st.next_txn;
            st.next_txn += prepares.len() as u64;
            first
        };
        let prepared: Vec<Prepared> = (first..)
            .zip(&prepares)
            .map(|(txn_id, parts)| {
                let floors: Vec<SeqNo> = parts
                    .iter()
                    .map(|(s, _)| shards[*s].lsm().last_sequence())
                    .collect();
                Prepared {
                    txn_id,
                    record: encode_prepare(txn_id, parts, &floors),
                }
            })
            .collect();
        for p in &prepared {
            log.log.add_record(&p.record)?;
        }
        log.log.sync()?;
        let mut st = coord.state.lock();
        st.outstanding += prepared.len();
        st.log_bytes = log.log.len();
        Ok(prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_parts() -> Vec<(usize, WriteBatch)> {
        let mut b0 = WriteBatch::new();
        b0.put(b"alpha", &b"1"[..]);
        b0.delete(b"beta");
        let mut b3 = WriteBatch::new();
        b3.put(b"gamma", &b"33"[..]);
        vec![(0, b0), (3, b3)]
    }

    #[test]
    fn prepare_record_roundtrip() {
        let parts = sample_parts();
        let rec = encode_prepare(42, &encode_parts(&parts), &[17, 900]);
        let p = decode_prepare(&rec).unwrap();
        assert_eq!(p.txn_id, 42);
        assert_eq!(p.parts.len(), 2);
        assert_eq!(p.parts[0].shard, 0);
        assert_eq!(p.parts[0].floor, 17);
        assert_eq!(p.parts[0].batch.count(), 2);
        assert_eq!(p.parts[1].shard, 3);
        assert_eq!(p.parts[1].floor, 900);
        assert_eq!(p.parts[1].batch.entries()[0].key, b"gamma");
    }

    #[test]
    fn corrupt_sub_batch_is_rejected() {
        let rec = encode_prepare(1, &encode_parts(&sample_parts()), &[0, 0]);
        // Flip a byte in the tail (inside the last sub-batch payload):
        // the digest check must reject the whole record.
        let mut bad = rec.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        let err = decode_prepare(&bad).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "got {err}");
    }

    /// A range whose end is not past its start is empty, as on
    /// `Db::scan`: no rows, no reads, and the commit still lands.
    #[test]
    fn a_scan_whose_hi_is_below_lo_is_empty() {
        use crate::{EngineMode, MemEnv, Options};
        let db = Db::open(Options::new(
            MemEnv::shared(),
            "txn-rev",
            EngineMode::Scavenger,
        ))
        .unwrap();
        for k in ["a", "b", "c", "d"] {
            db.put(k, &b"v"[..]).unwrap();
        }
        assert_eq!(db.scan(b"c", Some(b"b")).unwrap().count(), 0);
        let mut txn = db.begin();
        txn.put("bb", &b"w"[..]);
        assert!(txn.scan(b"c", Some(b"b")).unwrap().is_empty());
        assert!(txn.scan(b"b", Some(b"b")).unwrap().is_empty());
        assert!(txn.reads.is_empty());
        assert_eq!(txn.scan(b"b", Some(b"c")).unwrap().len(), 2);
        txn.commit().unwrap();
        assert_eq!(db.get("bb").unwrap().unwrap().as_ref(), b"w");
    }

    #[test]
    fn unknown_tag_is_rejected() {
        // 2 was the `Commit` tag of logs written before prepares became
        // the durability record; such records are skipped like any other.
        assert!(decode_prepare(&[2, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(decode_prepare(&[9, 0, 0]).is_err());
        assert!(decode_prepare(&[]).is_err());
    }
}
