//! Targeted durability matrix for the one-fsync cross-shard commit.
//!
//! A multi-shard batch is durable through its fsynced `Prepare` in the
//! coordinator log; the shard applies are unsynced, and the log is only
//! retired after a barrier has synced every shard's WAL. Each case
//! below stages one hazard on a [`FaultEnv`], cuts the power (or just
//! closes, or kills the process), reopens on the surviving bytes, and
//! checks the same two things: every batch is all-or-nothing, and every
//! acknowledged batch is present — plus, where a key was deleted after
//! its batch, that recovery does not bring it back. The seeded harness
//! in `integration_crash_recovery.rs` covers the random interleavings;
//! this file covers the ones that need staging.

use bytes::Bytes;
use scavenger::{
    DbShards, EngineMode, MemEnv, ShardedOptions, SubscribeFrom, WriteBatch, WriteOptions,
};
use scavenger_env::{Env, EnvRef, FaultEnv, FaultKind, FaultOp, FaultRule, Trigger};
use std::sync::Arc;

const COORD: &str = "db/COORDLOG";
/// One batch of two of these passes the coordinator's 1 MiB barrier
/// cadence on its own.
const BARRIER_VALUE: usize = 600 * 1024;

struct Rig {
    fault: Arc<FaultEnv>,
    /// Memtable size of every shard: large keeps WAL rotation out of a
    /// case, small stages one.
    memtable: usize,
    /// Background work on a thread (so a blocked flush stalls nothing)
    /// instead of inline in the writer.
    threaded: bool,
}

impl Rig {
    fn new(memtable: usize, threaded: bool) -> Rig {
        let fault = FaultEnv::wrap(MemEnv::shared(), 0x2bc);
        // Cut exactly at the durable watermark: what survives is what
        // was fsynced, nothing more.
        fault.set_torn_tail(false);
        Rig {
            fault,
            memtable,
            threaded,
        }
    }

    fn open(&self) -> DbShards {
        let env: EnvRef = self.fault.clone();
        let mut so = ShardedOptions::new(env, "db", EngineMode::Scavenger);
        so.num_shards = 2;
        so.base.memtable_size = self.memtable;
        so.base.inline_background = !self.threaded;
        // A blocked flush retries for ~1.3 s before degrading the shard:
        // far longer than any case runs, short enough to join at drop.
        so.base.bg_retry_limit = 6;
        so.base.bg_retry_base = std::time::Duration::from_millis(20);
        DbShards::open(so).expect("open")
    }

    fn rule(&self, op: FaultOp, path: &str, nth: u64, kind: FaultKind) {
        self.fault.add_rule(FaultRule {
            op,
            path_contains: Some(path.into()),
            trigger: Trigger::Nth(nth),
            kind,
            one_shot: true,
        });
    }

    /// Keep every flush from starting until the power cut.
    fn block_flushes(&self) {
        self.fault.add_rule(FaultRule {
            path_contains: Some(".sst".into()),
            ..FaultRule::fail(FaultOp::Open)
        });
    }

    /// Power loss (unless a rule already cut it), then recovery.
    fn crash_and_reopen(&self, db: DbShards) -> DbShards {
        if !self.fault.crashed() {
            self.fault.crash();
        }
        drop(db);
        self.fault.heal();
        self.open()
    }

    /// The process dies without closing the store, the machine stays up:
    /// nothing runs at exit, and what survives is what reached the file —
    /// synced or not — but not the tail still in a handle's write buffer.
    /// (Inline stores only — a leaked handle keeps its threads.)
    fn kill_and_reopen(&self, db: DbShards) -> DbShards {
        assert!(!self.threaded);
        std::mem::forget(db);
        self.open()
    }
}

/// A key that routes to `shard`.
fn key_on(db: &DbShards, shard: usize, tag: &str) -> Vec<u8> {
    (0..)
        .map(|i| format!("{tag}-{i}").into_bytes())
        .find(|k| db.shard_of(k) == shard)
        .unwrap()
}

fn get(db: &DbShards, key: &[u8]) -> Option<Vec<u8>> {
    db.get(key).expect("get after recovery").map(|v| v.to_vec())
}

/// One staged batch: what it writes and whether the caller was told it
/// committed.
struct Staged {
    kv: Vec<(Vec<u8>, Vec<u8>)>,
    acked: bool,
}

/// Write `keys` as batch number `id` with `len`-byte values unique to
/// `(id, key)`.
fn stage(db: &DbShards, id: usize, keys: &[&[u8]], len: usize) -> Staged {
    let kv: Vec<(Vec<u8>, Vec<u8>)> = keys
        .iter()
        .map(|k| {
            let mut v = format!("batch{id}:{}:", String::from_utf8_lossy(k)).into_bytes();
            v.resize(len.max(v.len()), b'.');
            (k.to_vec(), v)
        })
        .collect();
    let mut batch = WriteBatch::new();
    for (k, v) in &kv {
        batch.put(k, Bytes::from(v.clone()));
    }
    let acked = db.write_with(&WriteOptions::default(), batch).is_ok();
    Staged { kv, acked }
}

/// The two oracles every case ends in. `staged` is in commit order;
/// batch `i` counts as applied on a key iff the key shows the value of
/// batch `i` or of a later batch that also wrote it.
fn check(db: &DbShards, staged: &[Staged]) {
    let visible = |key: &[u8]| -> Option<usize> {
        let got = get(db, key)?;
        let pos = staged
            .iter()
            .position(|b| b.kv.iter().any(|(k, v)| k == key && got == *v));
        Some(pos.unwrap_or_else(|| panic!("{key:?} recovered a value no batch wrote")))
    };
    for (i, b) in staged.iter().enumerate() {
        let applied: Vec<bool> =
            b.kv.iter()
                .map(|(k, _)| visible(k).is_some_and(|v| v >= i))
                .collect();
        let n = applied.iter().filter(|a| **a).count();
        assert!(
            n == 0 || n == applied.len(),
            "batch {i} partially applied after recovery: {applied:?}"
        );
        assert!(
            !b.acked || n == applied.len(),
            "acknowledged batch {i} lost after recovery"
        );
    }
}

fn rollforwards(db: &DbShards) -> u64 {
    db.stats().txn_2pc_rollforwards
}

fn coord_len(rig: &Rig) -> u64 {
    rig.fault.file_size(COORD).unwrap_or(0)
}

#[test]
fn crash_right_after_the_prepare_fsync() {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    // The prepare is fsynced, then the power goes on the first shard
    // WAL append: nothing applied, nobody acknowledged.
    rig.rule(FaultOp::Write, ".log", 1, FaultKind::Crash);
    let t = stage(&db, 0, &[&a, &b], 64);
    assert!(!t.acked && rig.fault.crashed());
    let db = rig.crash_and_reopen(db);
    // A durable prepare commits the batch: recovery completes it.
    assert!(db.get(&a).unwrap().is_some() && db.get(&b).unwrap().is_some());
    assert_eq!(rollforwards(&db), 1);
    check(&db, &[t]);
}

#[test]
fn crash_between_the_two_applies() {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    // Shard 0 has its half; the power goes on shard 1's WAL append.
    rig.rule(FaultOp::Write, "shard-001", 1, FaultKind::Crash);
    let t = stage(&db, 0, &[&a, &b], 64);
    assert!(!t.acked && rig.fault.crashed());
    let db = rig.crash_and_reopen(db);
    assert_eq!(rollforwards(&db), 1);
    assert!(get(&db, &a).is_some(), "prepared, so committed");
    check(&db, &[t]);
}

#[test]
fn crash_after_both_applies_with_neither_shard_synced() {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    let t = stage(&db, 0, &[&a, &b], 64);
    assert!(t.acked);
    let db = rig.crash_and_reopen(db);
    assert_eq!(rollforwards(&db), 1, "both shards lost their apply");
    check(&db, &[t]);
}

/// What a change stream sees of a batch recovery had to complete: each
/// entry once, at the sequence of its re-apply, without the transaction
/// id a live commit's slices carry (one re-apply group per shard may mix
/// several batches, so there is no boundary to mark).
#[test]
fn rolled_forward_entries_reach_change_streams_untagged() {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    let mut live = db.subscribe_changes(SubscribeFrom::Latest).unwrap();
    let t = stage(&db, 0, &[&a, &b], 64);
    let seen = live.poll_changes(16).unwrap();
    assert_eq!(seen.len(), 2);
    assert!(seen[0].txn_id.is_some() && seen[0].txn_id == seen[1].txn_id);
    drop(live);

    let db = rig.crash_and_reopen(db);
    assert_eq!(rollforwards(&db), 1);
    let mut s = db.subscribe_changes(SubscribeFrom::Oldest).unwrap();
    let mut keys: Vec<Vec<u8>> = Vec::new();
    for e in s.poll_changes(16).unwrap() {
        assert_eq!(e.txn_id, None, "{e:?}");
        keys.push(e.key);
    }
    keys.sort();
    assert_eq!(keys, [a, b]);
    check(&db, &[t]);
}

#[test]
fn one_shard_made_durable_by_an_unrelated_synced_put() {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    let t = stage(&db, 0, &[&a, &b], 64);
    assert!(t.acked);
    // Shard 0's WAL is a prefix log: syncing a later record makes the
    // 2PC apply before it durable. Shard 1 still holds its apply in an
    // unsynced tail.
    let other = key_on(&db, 0, "other");
    assert!(db.put(&other, &b"x"[..]).unwrap().synced);
    let db = rig.crash_and_reopen(db);
    assert_eq!(rollforwards(&db), 1);
    assert_eq!(db.get(&other).unwrap().unwrap().as_ref(), b"x");
    check(&db, &[t]);
}

#[test]
fn clean_close_retires_the_log() {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    let t = stage(&db, 0, &[&a, &b], 64);
    assert!(coord_len(&rig) > 0);
    drop(db);
    assert_eq!(
        coord_len(&rig),
        0,
        "close ran the barrier and emptied the log"
    );
    // What close made durable needs no prepare: a power cut changes nothing.
    rig.fault.crash();
    rig.fault.heal();
    let db = rig.open();
    assert_eq!(rollforwards(&db), 0);
    check(&db, &[t]);
}

#[test]
fn killed_process_with_durable_applies_rolls_nothing_forward() {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    let t = stage(&db, 0, &[&a, &b], 64);
    // A synced put behind each apply pushes it out of the write buffer.
    for shard in 0..2 {
        assert!(
            db.put(key_on(&db, shard, "other"), &b"x"[..])
                .unwrap()
                .synced
        );
    }
    let db = rig.kill_and_reopen(db);
    assert_eq!(rollforwards(&db), 0, "every entry was already in its shard");
    check(&db, &[t]);
}

/// The floor guard reads "no version newer than the floor" as "the entry
/// never landed". A delete after the batch is such a version only while
/// its tombstone exists, so a shard must not elide one while a prepare
/// that old is in the log — here the recovery flush at open, into an
/// empty tree, is what would.
#[test]
fn delete_after_a_batch_survives_a_kill_and_the_recovery_flush() {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    let t = stage(&db, 0, &[&a, &b], 64);
    assert!(t.acked);
    db.delete(&a).unwrap();
    let db = rig.kill_and_reopen(db);
    assert_eq!(get(&db, &a), None, "a delete is not undone by recovery");
    assert_eq!(get(&db, &b).as_ref(), Some(&t.kv[1].1));
    assert_eq!(rollforwards(&db), 1, "b's apply died in the write buffer");
}

/// The same through the maintenance calls: `flush` retires the log, so
/// the compaction that then drops the tombstone leaves no prepare behind
/// to misjudge the key, closed cleanly or not.
#[test]
fn delete_after_a_batch_survives_flush_compaction_and_reopen() {
    for clean in [true, false] {
        let rig = Rig::new(8 << 20, false);
        let db = rig.open();
        let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
        let t = stage(&db, 0, &[&a, &b], 64);
        db.delete(&a).unwrap();
        db.flush().unwrap();
        assert_eq!(coord_len(&rig), 0, "flush retired the log");
        db.compact_all().unwrap();
        while db.shard(0).lsm().force_compact_once().unwrap() {}
        assert_eq!(db.shard(0).lsm().latest_seq(&a).unwrap(), None, "elided");
        let db = if clean {
            drop(db);
            rig.open()
        } else {
            rig.crash_and_reopen(db)
        };
        assert_eq!(get(&db, &a), None, "clean close: {clean}");
        assert_eq!(get(&db, &b).as_ref(), Some(&t.kv[1].1));
        assert_eq!(rollforwards(&db), 0);
    }
}

/// And with the log still holding the prepare — the shard is flushed and
/// compacted on its own, as background work would: the tombstone is held
/// back until the log is retired, and only then elided.
#[test]
fn tombstones_are_held_while_a_prepare_is_in_the_log() {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    let old = key_on(&db, 0, "old");
    // Deleted before the log's first prepare: not the guard's business.
    db.put(&old, &b"x"[..]).unwrap();
    db.delete(&old).unwrap();
    let t = stage(&db, 0, &[&a, &b], 64);
    db.delete(&a).unwrap();
    let lsm = db.shard(0).lsm();
    lsm.flush().unwrap();
    while lsm.force_compact_once().unwrap() {}
    assert!(
        coord_len(&rig) > 0,
        "shard-level maintenance leaves the log"
    );
    assert_eq!(
        lsm.latest_seq(&old).unwrap(),
        None,
        "older tombstone elided"
    );
    assert!(lsm.latest_seq(&a).unwrap().is_some(), "newer one held");

    let db = rig.crash_and_reopen(db);
    assert_eq!(get(&db, &a), None, "a delete is not undone by recovery");
    assert_eq!(get(&db, &b).as_ref(), Some(&t.kv[1].1));
    // Recovery emptied the log and released the hold it opened with.
    let (lsm, gone) = (db.shard(0).lsm(), key_on(&db, 0, "gone"));
    db.put(&gone, &b"x"[..]).unwrap();
    db.delete(&gone).unwrap();
    lsm.flush().unwrap();
    while lsm.force_compact_once().unwrap() {}
    assert_eq!(lsm.latest_seq(&gone).unwrap(), None, "elided again");
}

/// Hazard (ii), recovery flavour: two batches on the same keys sit in a
/// WAL that is then closed, and a synced write lands in the next one.
/// Unless closing a WAL syncs it, the later write survives a crash that
/// loses both batches, and recovery re-applies them onto a shard whose
/// sequence has already moved past their floors.
#[test]
fn two_batches_on_one_key_then_a_wal_rotation_and_a_synced_write() {
    let rig = Rig::new(16 * 1024, true);
    let db = rig.open();
    let (a, b, other) = (
        key_on(&db, 0, "a"),
        key_on(&db, 1, "b"),
        key_on(&db, 0, "other"),
    );
    rig.block_flushes();
    let t1 = stage(&db, 0, &[&a, &b], 64);
    // Fills both shards' memtables: each rotates to a fresh WAL, and the
    // flush that would persist the frozen memtable never starts.
    let t2 = stage(&db, 1, &[&a, &b], 32 * 1024);
    assert!(t1.acked && t2.acked);
    assert!(db.put(&other, &b"x"[..]).unwrap().synced);
    let db = rig.crash_and_reopen(db);
    assert_eq!(db.get(&other).unwrap().unwrap().as_ref(), b"x");
    assert_eq!(get(&db, &a).as_ref(), Some(&t2.kv[0].1));
    assert_eq!(get(&db, &b).as_ref(), Some(&t2.kv[1].1));
    check(&db, &[t1, t2]);
}

/// Hazard (ii), barrier flavour: the apply sits in a WAL that was closed
/// before the barrier ran. The barrier only fsyncs live WALs, so it is
/// sound only if closing a WAL made it durable.
#[test]
fn barrier_covers_an_apply_in_an_already_closed_wal() {
    let rig = Rig::new(16 * 1024, true);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    rig.block_flushes();
    // One call: prepare, two applies that each rotate their shard's WAL,
    // then — the log being past 1 MiB — barrier and a fresh log.
    let t = stage(&db, 0, &[&a, &b], BARRIER_VALUE);
    assert!(t.acked);
    assert_eq!(coord_len(&rig), 0, "the prepare was retired");
    let db = rig.crash_and_reopen(db);
    check(&db, &[t]);
}

#[test]
fn crash_during_the_barrier_keeps_the_prepares() {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    // The memtables are large, so the next shard-WAL fsync is the
    // barrier's. The batch has landed by then: the call still succeeds.
    rig.rule(FaultOp::Sync, ".log", 1, FaultKind::Crash);
    let t = stage(&db, 0, &[&a, &b], BARRIER_VALUE);
    assert!(t.acked && rig.fault.crashed());
    let db = rig.crash_and_reopen(db);
    assert_eq!(rollforwards(&db), 1);
    check(&db, &[t]);
}

#[test]
fn crash_between_the_barrier_and_the_fresh_log() {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    rig.rule(FaultOp::Open, "COORD", 1, FaultKind::Crash);
    let t = stage(&db, 0, &[&a, &b], BARRIER_VALUE);
    assert!(t.acked && rig.fault.crashed());
    let db = rig.crash_and_reopen(db);
    assert_eq!(rollforwards(&db), 0, "the shards were already synced");
    check(&db, &[t]);
}

#[test]
fn crash_after_the_barrier_and_the_fresh_log() {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    let t1 = stage(&db, 0, &[&a, &b], BARRIER_VALUE);
    assert_eq!(coord_len(&rig), 0, "barrier ran and the log was replaced");
    // The next batch starts the new log and has only that to rely on.
    let t2 = stage(&db, 1, &[&a, &b], 64);
    assert!(t1.acked && t2.acked);
    let db = rig.crash_and_reopen(db);
    assert_eq!(rollforwards(&db), 1, "only the batch after the barrier");
    check(&db, &[t1, t2]);
}

/// A torn append or failed fsync on the coordinator log without a
/// crash: the log reader stops at the first bad record, so any prepare
/// appended behind it would be unreachable at recovery.
#[test]
fn coordinator_log_is_not_reused_after_a_torn_append_or_failed_fsync() {
    // The second append of a record is its payload: the header lands
    // whole, so the log ends in a record that fails its CRC.
    for (op, nth, kind) in [
        (FaultOp::Write, 2, FaultKind::Torn),
        (FaultOp::Write, 2, FaultKind::Fail),
        (FaultOp::Sync, 1, FaultKind::Fail),
    ] {
        let rig = Rig::new(8 << 20, false);
        let db = rig.open();
        let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
        let (c, d) = (key_on(&db, 0, "c"), key_on(&db, 1, "d"));
        let t0 = stage(&db, 0, &[&a, &b], 64);
        rig.rule(op, "COORD", nth, kind);
        let t1 = stage(&db, 1, &[&a, &b], 64);
        assert!(t0.acked && !t1.acked, "{op:?}/{kind:?}");
        assert_eq!(get(&db, &a).as_ref(), Some(&t0.kv[0].1), "nothing applied");
        let t2 = stage(&db, 2, &[&a, &b], 64);
        let t3 = stage(&db, 3, &[&c, &d], 64);
        assert!(t2.acked && t3.acked, "{op:?}/{kind:?}: commits resume");
        let db = rig.crash_and_reopen(db);
        assert_eq!(rollforwards(&db), 2, "{op:?}/{kind:?}");
        check(&db, &[t0, t1, t2, t3]);
    }
}

/// ENOSPC on shard 1's WAL, for as long as `f` runs: shard 0 has its half
/// of batch 0, the call fails, and a second batch fails the same way.
fn with_shard_one_refusing_writes(f: impl FnOnce(&Rig, DbShards, [Staged; 2])) {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    let (c, d) = (key_on(&db, 0, "c"), key_on(&db, 1, "d"));
    rig.fault.add_rule(FaultRule {
        path_contains: Some("shard-001".into()),
        ..FaultRule::fail(FaultOp::Write)
    });
    let t0 = stage(&db, 0, &[&a, &b], 64);
    let t1 = stage(&db, 1, &[&c, &d], 64);
    assert!(!t0.acked && !t1.acked);
    assert!(db.get(&a).unwrap().is_some() && db.get(&b).unwrap().is_none());
    // Nothing may retire a prepare that is a shard's only copy.
    assert!(db.flush().is_err());
    assert!(coord_len(&rig) > 0, "log kept whole");
    f(&rig, db, [t0, t1]);
}

#[test]
fn failed_shard_apply_is_completed_by_the_next_open() {
    with_shard_one_refusing_writes(|rig, db, [t0, t1]| {
        let db = rig.crash_and_reopen(db);
        assert_eq!(get(&db, &t0.kv[1].0).as_ref(), Some(&t0.kv[1].1), "whole");
        assert_eq!(rollforwards(&db), 2);
        check(&db, &[t0, t1]);
    });
}

#[test]
fn failed_shard_apply_is_completed_once_the_shard_takes_writes() {
    with_shard_one_refusing_writes(|rig, db, [t0, t1]| {
        rig.fault.clear_rules();
        // The next commit finds the shard healthy, completes both failed
        // batches behind its own applies, and retires the log.
        let keys: Vec<&[u8]> = t1.kv.iter().map(|(k, _)| k.as_slice()).collect();
        let t2 = stage(&db, 2, &keys, 64);
        assert!(t2.acked);
        assert_eq!(coord_len(rig), 0, "nothing failed or outstanding: retired");
        assert_eq!(rollforwards(&db), 1, "batch 1 was superseded by batch 2");
        assert_eq!(get(&db, &t0.kv[1].0).as_ref(), Some(&t0.kv[1].1), "whole");
        assert_eq!(
            get(&db, &t2.kv[1].0).as_ref(),
            Some(&t2.kv[1].1),
            "not undone"
        );
        let staged = [t0, t1, t2];
        check(&db, &staged);
        let db = rig.crash_and_reopen(db);
        assert_eq!(rollforwards(&db), 0);
        check(&db, &staged);
    });
}

/// A coordinator-log fault with other commits mid-apply: the poisoned log
/// is some in-flight batch's only copy, so the next prepare waits for
/// those applies instead of failing, and the only errors callers ever see
/// are the injected ones.
#[test]
fn poisoned_log_waits_for_in_flight_commits() {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    rig.fault.add_rule(FaultRule {
        path_contains: Some("COORD".into()),
        trigger: Trigger::Probability(0.05),
        ..FaultRule::fail(FaultOp::Sync)
    });
    let failures: usize = std::thread::scope(|s| {
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let (db, a, b) = (db.clone(), &a, &b);
                s.spawn(move || {
                    let mut failed = 0;
                    for i in 0..300 {
                        let mut batch = WriteBatch::new();
                        batch.put(a, Bytes::from(format!("{w}:{i}")));
                        batch.put(b, Bytes::from(format!("{w}:{i}")));
                        if let Err(e) = db.write_with(&WriteOptions::default(), batch) {
                            assert!(e.to_string().contains("injected"), "{e}");
                            failed += 1;
                        }
                    }
                    failed
                })
            })
            .collect();
        writers.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert!(failures > 0, "the rule never fired");
    assert_eq!(db.stats().txn_2pc_commits, 1200 - failures as u64);
    let db = rig.crash_and_reopen(db);
    assert_eq!(
        get(&db, &a),
        get(&db, &b),
        "applied in one order on both shards"
    );
}

/// Hazard (ii) reached through a WAL fault instead of a rotation: a
/// failed fsync poisons shard 0's WAL with two batches in its tail, the
/// next write moves to a fresh WAL and is synced there, and the power
/// goes before the frozen memtable is flushed. Recovery must re-apply
/// both batches; judging the second against the first's fresh re-apply
/// would skip it.
#[test]
fn two_lost_batches_on_one_key_behind_a_poisoned_wal() {
    let rig = Rig::new(8 << 20, false);
    let db = rig.open();
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    let (w1, w2) = (key_on(&db, 0, "w1"), key_on(&db, 0, "w2"));
    let t1 = stage(&db, 0, &[&a, &b], 64);
    let t2 = stage(&db, 1, &[&a, &b], 64);
    assert!(t1.acked && t2.acked);
    rig.rule(FaultOp::Sync, "shard-000", 1, FaultKind::Fail);
    assert!(db.put(&w1, &b"lost"[..]).is_err());
    // Rotates away from the poisoned WAL, is synced in the new one, and
    // then the flush of the frozen memtable dies at its manifest sync.
    rig.rule(FaultOp::Sync, "MANIFEST", 1, FaultKind::Crash);
    let _ = db.put(&w2, &b"kept"[..]);
    assert!(rig.fault.crashed());
    let db = rig.crash_and_reopen(db);
    assert_eq!(db.get(&w2).unwrap().unwrap().as_ref(), b"kept");
    assert_eq!(rollforwards(&db), 2);
    assert_eq!(get(&db, &a).as_ref(), Some(&t2.kv[0].1));
    check(&db, &[t1, t2]);
}

#[test]
fn a_cross_shard_commit_costs_exactly_one_fsync() {
    let env = MemEnv::shared();
    let mut so = ShardedOptions::new(env.clone(), "db", EngineMode::Scavenger);
    so.num_shards = 2;
    let db = DbShards::open(so).unwrap();
    let (a, b, c) = (
        key_on(&db, 0, "a"),
        key_on(&db, 1, "b"),
        key_on(&db, 0, "c"),
    );
    let syncs = || env.io_stats().snapshot().total_syncs();
    let coord = || env.file_size(COORD).unwrap();

    let (s0, c0) = (syncs(), coord());
    let t = stage(&db, 0, &[&a, &b], 64);
    assert!(t.acked);
    assert_eq!(syncs() - s0, 1, "the prepare's fsync and no other");
    assert!(coord() > c0);

    // Same shard twice: the fast path — its WAL's fsync, no coordinator.
    let (s1, c1) = (syncs(), coord());
    let t = stage(&db, 1, &[&a, &c], 64);
    assert!(t.acked);
    assert_eq!(syncs() - s1, 1);
    assert_eq!(coord(), c1, "no coordinator bytes for a one-shard batch");
    assert_eq!(db.stats().txn_2pc_commits, 1);
}
