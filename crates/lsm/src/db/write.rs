//! The write path: group commit onto the WAL, memtable rotation,
//! admission and stalls.

use super::{Lsm, LsmReadResult};
use crate::batch::{WriteBatch, WriteOptions, WriteReceipt};
use crate::filename::wal_path;
use crate::group::{GroupLeader, Logged};
use crate::memtable::Memtable;
use crate::options::BackgroundMode;
use crate::view::Imm;
use crate::wal::LogWriter;
use scavenger_env::IoClass;
use scavenger_util::ikey::{SeqNo, ValueRef, ValueType};
use scavenger_util::{Error, Result};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

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

/// The live WAL. Its poison flag ([`Logged::poisoned`]) is set after an
/// append or `sync()` on it failed; the writer then rotates to a fresh
/// WAL before accepting new records — the fsync is never retried.
#[derive(Default)]
pub(super) struct WriterState {
    wal: Option<LogWriter>,
    pub(super) wal_number: u64,
}

/// The WAL's state behind the commit queue's log lock.
type Writer = Logged<WriterState>;

/// One writer's batch in the commit queue.
pub(super) struct QueuedWrite {
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

impl Lsm {
    /// Apply a batch atomically with a synced WAL record (default
    /// [`WriteOptions`]).
    pub fn write(&self, batch: WriteBatch) -> Result<WriteReceipt> {
        self.write_opts(&WriteOptions::default(), batch)
    }

    /// Apply a batch atomically through the group-commit queue
    /// ([`GroupCommit`](crate::group::GroupCommit)).
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
            // gone with their receipts. The group has landed, so a
            // failure here degrades the engine — the next write fails
            // fast — instead of failing the leader's write.
            let _ = self.kick_background();
        }
        res?
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
            if self.inner.sv.read().mem.approx_size() >= self.inner.opts.memtable_size
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
        let mem = self.inner.sv.read().mem.clone();
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
    pub(super) fn rotate_memtable(&self, ws: &mut Writer) -> Result<()> {
        // One install moves the active memtable to the head of the
        // immutable list and puts a fresh one in its place, while the
        // writer lock (`ws`) is held: no write can land in the new active
        // memtable before readers can see it. The SST version is
        // untouched, so rotation never takes the MANIFEST lock.
        if self.inner.sv.read().mem.is_empty() {
            if !ws.poisoned {
                return Ok(());
            }
        } else {
            let wal_durable = Self::sync_live_wal(ws).is_ok();
            let wal_number = ws.log.wal_number;
            self.install(|sv| {
                let mem = std::mem::replace(&mut sv.mem, Arc::new(Memtable::new()));
                sv.imms.insert(
                    0,
                    Imm {
                        mem,
                        wal_number,
                        wal_durable,
                    },
                );
            });
        }
        self.fresh_wal_locked(ws)
    }

    /// Point the writer at a brand-new WAL file (and clear any poison).
    pub(super) fn fresh_wal_locked(&self, ws: &mut Writer) -> Result<()> {
        let closed = ws
            .log
            .wal
            .as_ref()
            .map(|w| (ws.log.wal_number, w.len(), ws.poisoned));
        let n = self.inner.file_numbers.next();
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
            let faulted = ws.poisoned || self.superversion().imms.iter().any(|i| !i.wal_durable);
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
        while self.inner.sv.read().imms.len() > MAX_IMM_MEMTABLES
            && !self.inner.closed.load(Ordering::SeqCst)
            && !self.inner.degraded.load(Ordering::SeqCst)
        {
            if !stalled {
                stalled = true;
                self.inner.counters.stalls.fetch_add(1, Ordering::Relaxed);
            }
            // Timed wait: the imm list lives in the superversion, not
            // under this lock, so a flush completing between our check
            // and the wait could otherwise be a lost wakeup.
            let _ = self
                .inner
                .stall_cv
                .wait_for(&mut guard, std::time::Duration::from_millis(20));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{get_str, open};
    use super::*;
    use crate::options::LsmOptions;
    use bytes::Bytes;
    use scavenger_env::MemEnv;

    /// A rotation moves the active memtable to the head of the
    /// superversion's immutable list, tagged with the WAL that covered
    /// it, and starts the next WAL; reads keep finding every entry. An
    /// empty memtable on a healthy WAL is not rotated.
    #[test]
    fn rotation_freezes_the_memtable_newest_first_with_its_wal() {
        let mut o = LsmOptions::new(MemEnv::shared(), "db");
        o.memtable_size = 1 << 20;
        let db = open(o);
        // Straight through the commit queue: no inline flush follows to
        // drain the immutable list.
        let commit = |k: &str| {
            let mut batch = WriteBatch::new();
            batch.put(k.as_bytes(), Bytes::copy_from_slice(k.as_bytes()));
            let write = QueuedWrite {
                batch,
                sync: true,
                txn_id: None,
                check: None,
            };
            db.inner.wal.commit(write, &db).0.unwrap().unwrap();
        };
        let rotate = || db.rotate_memtable(&mut db.inner.wal.lock()).unwrap();
        let live_wal = || db.inner.wal.lock().log.wal_number;
        let mut wals = Vec::new();
        for k in ["a", "b"] {
            commit(k);
            wals.push(live_wal());
            rotate();
        }
        let sv = db.superversion();
        assert!(sv.mem.is_empty());
        let frozen: Vec<_> = sv
            .imms
            .iter()
            .map(|i| (i.wal_number, i.wal_durable))
            .collect();
        assert_eq!(frozen, vec![(wals[1], true), (wals[0], true)]);
        assert!(live_wal() > wals[1]);
        rotate();
        assert_eq!(db.superversion().imms.len(), 2, "nothing to freeze");
        assert_eq!(get_str(&db, "a"), Some("a".into()));
        assert_eq!(get_str(&db, "b"), Some("b".into()));
    }
}
