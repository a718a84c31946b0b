//! Tests of the engine through its public surface: reads, writes, flush,
//! compaction and recovery together.

use super::*;
use crate::batch::{WriteBatch, WriteOptions};
use crate::filename::{parse_path, table_path, FileKind};
use crate::iter::BatchSweep;
use crate::options::{BackgroundMode, KTableFormat};
use scavenger_env::{Env, EnvRef, IoClass, MemEnv, READ_SIZE};
use scavenger_util::ikey::ValueRef;
use std::collections::HashSet;

pub(super) fn test_opts(dir: &str) -> LsmOptions {
    let mut o = LsmOptions::new(MemEnv::shared(), dir);
    o.memtable_size = 4 * 1024;
    o.base_level_bytes = 16 * 1024;
    o.target_file_size = 8 * 1024;
    o.block_size = 1024;
    o
}

pub(super) fn open(o: LsmOptions) -> Lsm {
    Lsm::open(o).unwrap().0
}

pub(super) fn put(db: &Lsm, k: &str, v: &str) {
    let mut b = WriteBatch::new();
    b.put(k.as_bytes(), Bytes::copy_from_slice(v.as_bytes()));
    db.write(b).unwrap();
}

pub(super) fn put_ref(db: &Lsm, k: &str, offset: u64) {
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

pub(super) fn get_str(db: &Lsm, k: &str) -> Option<String> {
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
    let mut it = db.view().scan(b"key000", Some(b"key050")).unwrap();
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
    let mut it = db.view().scan(b"k", None).unwrap();
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
    let snap = db.snapshot_view();
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
    let refused = loop {
        match put_nosync(&db, &format!("k{written:03}"), &"v".repeat(200)) {
            Ok(_) => written += 1,
            Err(e) => break e,
        }
    };
    assert!(fault.crashed() && written > 0);
    // The put whose flush met the crash had landed, so it returned its
    // receipt; the crash degraded the engine and refused the next one.
    assert!(refused.is_read_only(), "{refused}");
    drop(db);
    fault.heal();
    let db = open(o);
    for i in 0..written {
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

/// Threaded `flush()` keeps inline's contract: when it returns, the
/// flush and every compaction it leaves due have run and their inputs
/// are off the disk.
#[test]
fn threaded_mode_round_trip() {
    let mut o = test_opts("db");
    o.background = BackgroundMode::Threaded;
    let env = o.env.clone();
    let db = open(o);
    for i in 0..2000 {
        put(&db, &format!("key{i:05}"), &format!("value-{i}"));
    }
    db.flush().unwrap();
    assert_disk_holds_the_live_version(&db, &env);
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
    assert_disk_holds_the_live_version(&db, &env);
}

/// The key SSTs on disk are exactly the live version's files.
#[track_caller]
fn assert_disk_holds_the_live_version(db: &Lsm, env: &EnvRef) {
    let live: HashSet<u64> = db
        .current_version()
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

/// After every flush the WALs on disk are exactly the live WAL, the
/// unflushed memtables' WALs and the segments the change log protects —
/// with retention off and on, while a subscriber pins segments, once it
/// lets go (the next flush removes what the change log released), and
/// across a reopen, whose sweep finds the protected WALs by listing.
#[test]
fn the_wals_on_disk_are_the_live_the_unflushed_and_the_protected() {
    for retention in [0, 12 * 1024] {
        let mut o = test_opts("db");
        o.cdc_retention = retention;
        let env = o.env.clone();
        let mut seen = HashSet::new();
        let mut check = |db: &Lsm, when: &str| {
            let on_disk: HashSet<u64> = env
                .list_prefix("db/")
                .unwrap()
                .iter()
                .filter_map(|p| parse_path("db", p))
                .filter(|(k, _)| *k == FileKind::Wal)
                .map(|(_, n)| n)
                .collect();
            seen.extend(on_disk.iter().copied());
            let live = db.inner.wal.lock().log.wal_number;
            let unflushed: Vec<u64> = db
                .superversion()
                .imms
                .iter()
                .map(|i| i.wal_number)
                .collect();
            let want: HashSet<u64> = seen
                .iter()
                .copied()
                .filter(|&n| n == live || unflushed.contains(&n) || db.inner.cdc.protects(n))
                .collect();
            assert_eq!(on_disk, want, "retention {retention}, {when}");
        };
        let mut db = open(o.clone());
        let mut cursor = Some(db.change_log().subscribe_oldest().unwrap());
        for round in 0..6 {
            if round == 2 {
                // Released at the next rotation's trim, removed by the
                // flush that follows it.
                cursor = None;
            }
            if round == 4 {
                drop(db);
                db = open(o.clone());
                check(&db, "after the reopen");
            }
            for i in 0..150 {
                let flushes = db.counters().flushes.load(Ordering::Relaxed);
                put(&db, &format!("key{i:03}"), &format!("value-{round}-{i}"));
                if db.counters().flushes.load(Ordering::Relaxed) > flushes {
                    check(&db, &format!("round {round} put {i}"));
                }
            }
            db.flush().unwrap();
            check(&db, &format!("round {round} flush"));
        }
        assert!(cursor.is_none());
        assert!(seen.len() > 10, "{} WALs", seen.len());
    }
}

/// `MemEnv` whose first compaction-class open after the gate is armed
/// meets the test at the gate twice before it returns the handle, and
/// which names every other compaction-class open made while `witness`
/// is set.
struct ParkedCompactionEnv {
    inner: EnvRef,
    gate: Mutex<Option<Arc<std::sync::Barrier>>>,
    witness: Mutex<Option<std::sync::mpsc::Sender<String>>>,
}

impl Env for ParkedCompactionEnv {
    fn new_writable(
        &self,
        path: &str,
        class: IoClass,
    ) -> Result<Box<dyn scavenger_env::WritableFile>> {
        self.inner.new_writable(path, class)
    }
    fn open_random_access(
        &self,
        path: &str,
        class: IoClass,
    ) -> Result<Arc<dyn scavenger_env::RandomAccessFile>> {
        let f = self.inner.open_random_access(path, class)?;
        if class == IoClass::Compaction {
            let gate = self.gate.lock().take();
            if let Some(gate) = gate {
                gate.wait();
                gate.wait();
            } else if let Some(tx) = &*self.witness.lock() {
                let _ = tx.send(path.to_string());
            }
        }
        Ok(f)
    }
    fn read_file(&self, path: &str, class: IoClass) -> Result<Bytes> {
        self.inner.read_file(path, class)
    }
    fn remove_file(&self, path: &str) -> Result<()> {
        self.inner.remove_file(path)
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }
    fn file_exists(&self, path: &str) -> bool {
        self.inner.file_exists(path)
    }
    fn file_size(&self, path: &str) -> Result<u64> {
        self.inner.file_size(path)
    }
    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list_prefix(prefix)
    }
    fn create_dir_all(&self, path: &str) -> Result<()> {
        self.inner.create_dir_all(path)
    }
    fn io_stats(&self) -> Arc<scavenger_env::IoStats> {
        self.inner.io_stats()
    }
}

/// A foreground `compact_until_stable` waits for the background
/// compaction already running instead of picking the same L0 inputs
/// beside it: two edits deleting the same files would fail the second
/// in `Version::apply` and degrade the engine.
#[test]
fn a_foreground_compaction_waits_for_the_background_one() {
    let env = Arc::new(ParkedCompactionEnv {
        inner: MemEnv::shared(),
        gate: Mutex::new(None),
        witness: Mutex::new(None),
    });
    let mut o = test_opts("db");
    o.env = env.clone();
    o.background = BackgroundMode::Threaded;
    o.l0_trigger = 2;
    let db = Arc::new(open(o));
    let value = "v".repeat(100);
    for i in 0..20 {
        put(&db, &format!("key{i:03}"), &value);
    }
    db.flush().unwrap();
    assert_eq!(db.current_version().num_files(0), 1);

    // Write until a rotation: the background thread flushes the second
    // L0 file, picks the L0 compaction and parks opening its inputs.
    let gate = Arc::new(std::sync::Barrier::new(2));
    let (tx, rx) = std::sync::mpsc::channel();
    *env.witness.lock() = Some(tx);
    *env.gate.lock() = Some(gate.clone());
    for i in 0.. {
        put(&db, &format!("key{:03}", i % 20), &value);
        if db.superversion().mem.is_empty() {
            break;
        }
    }
    gate.wait();
    let foreground = std::thread::spawn({
        let db = db.clone();
        move || db.compact_until_stable()
    });
    let second = rx.recv_timeout(std::time::Duration::from_millis(200));
    *env.witness.lock() = None;
    gate.wait();
    let foreground = foreground.join().unwrap();
    assert!(
        second.is_err(),
        "a second compaction opened {second:?} while the first was parked"
    );
    foreground.unwrap();
    assert!(!db.is_degraded(), "{:?}", db.background_error());
    for i in 0..20 {
        assert_eq!(get_str(&db, &format!("key{i:03}")), Some(value.clone()));
    }
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
        let snap = db.snapshot_view();
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
                TreeOp::Snapshot => snaps.push(db.snapshot_view()),
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
    assert_eq!(db.read_point_counts(), (1, 0));
    assert_eq!(db.read_points(), vec![view.sequence()]);
    let snap = db.snapshot_view();
    assert_eq!(db.read_point_counts(), (1, 1));
    drop(view);
    drop(snap);
    assert!(db.oldest_read_point().is_none());
    assert!(db.read_points().is_empty());
    assert_eq!(db.read_point_counts(), (0, 0));
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
    let snap = db.snapshot_view();
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

/// A compaction reads each input in device-sized ops — one tail
/// read, then forward spans — and every byte exactly once, whichever
/// table format interleaves however many streams.
#[test]
fn compaction_reads_inputs_in_spans_not_blocks() {
    for format in [KTableFormat::BTable, KTableFormat::DTable] {
        let env = MemEnv::shared();
        let mut o = LsmOptions::new(env.clone(), "db");
        o.ktable_format = format;
        o.memtable_size = 16 << 20;
        o.target_file_size = 16 << 20;
        let db = open(o);
        // One input of several spans, then small ones up to the L0
        // trigger; a third of the entries are references.
        let mut input_bytes = 0;
        let mut max_reads = 0;
        for (round, keys) in [40_000u64, 100, 100, 100].into_iter().enumerate() {
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
            max_reads += 1 + size.div_ceil(READ_SIZE.max_span);
            let compacted = d.class(IoClass::Compaction);
            if round < 3 {
                assert_eq!(compacted.read_ops, 0, "{format:?}: compacted early");
                continue;
            }
            assert!(input_bytes > 2 * READ_SIZE.max_span);
            assert_eq!(compacted.read_bytes, input_bytes, "{format:?}");
            assert!(
                compacted.read_ops <= max_reads,
                "{format:?}: {} reads of {input_bytes} bytes in 4 files",
                compacted.read_ops
            );
        }
        for i in (0..40_000).step_by(97) {
            let got = db.get(format!("key{i:05}").as_bytes()).unwrap();
            assert!(
                matches!(got, LsmReadResult::Found { .. }),
                "{format:?} key {i}"
            );
        }
    }
}

/// A compaction input no larger than `READ_SIZE`'s span is one read —
/// its tail read is the whole file — in either table format.
#[test]
fn a_compaction_input_within_one_span_is_one_read() {
    for format in [KTableFormat::BTable, KTableFormat::DTable] {
        let env = MemEnv::shared();
        let mut o = LsmOptions::new(env.clone(), "db");
        o.ktable_format = format;
        o.memtable_size = 4 << 20;
        o.target_file_size = 4 << 20;
        let db = open(o);
        // One input per flush; the fourth reaches the L0 trigger.
        let mut sizes = Vec::new();
        for round in 0..4 {
            for i in 0..3000u64 {
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
            sizes.push(d.class(IoClass::Flush).write_bytes);
            let compacted = d.class(IoClass::Compaction);
            if round < 3 {
                assert_eq!(compacted.read_ops, 0, "{format:?}: compacted early");
            } else {
                let inputs: u64 = sizes.iter().sum();
                assert!(sizes
                    .iter()
                    .all(|&n| n > 256 << 10 && n <= READ_SIZE.max_span));
                assert_eq!(
                    (compacted.read_ops, compacted.read_bytes),
                    (4, inputs),
                    "{format:?}: inputs {sizes:?}"
                );
            }
        }
    }
}

/// A compaction whose input read fails mid-merge, then succeeds on
/// its retry, leaves no key SST of the failed attempt on disk: neither
/// the outputs it had finished nor the one it was writing.
#[test]
fn a_failed_compaction_removes_the_outputs_it_wrote() {
    use scavenger_env::{FaultKind, FaultOp};
    let (fault, mut o) = fault_rig();
    o.memtable_size = 16 << 20;
    o.target_file_size = 16 << 20;
    o.bg_retry_limit = 1;
    let env: EnvRef = fault.clone();
    let fill = |db: &Lsm, round: usize, keys: usize| {
        for i in 0..keys {
            put(
                db,
                &format!("key{i:05}"),
                &format!("{round}-{i}-").repeat(30),
            );
        }
        db.flush().unwrap();
    };
    // One input of several read-ahead spans, written whole.
    let big = {
        let db = open(o.clone());
        fill(&db, 0, 24_000);
        let version = db.current_version();
        let files: Vec<_> = version.levels.iter().flatten().collect();
        assert_eq!(files.len(), 1);
        assert!(files[0].file_size > 2 * READ_SIZE.max_span);
        files[0].file_number
    };
    // Small outputs, so the merge has finished some of them by the time
    // it reads the big input's second span — its third read — and fails.
    o.target_file_size = 64 * 1024;
    let db = open(o);
    let name = table_path("db", big);
    fault.add_rule(fault_rule(FaultOp::Read, &name, 3, FaultKind::Fail));
    for round in 1..4 {
        fill(&db, round, 100);
    }
    let counters = db.counters();
    let retries = counters.bg_retries.load(Ordering::Relaxed);
    assert_eq!(
        (retries, counters.compactions.load(Ordering::Relaxed)),
        (1, 1)
    );
    assert_disk_holds_the_live_version(&db, &env);
    assert_eq!(get_str(&db, "key23999"), Some("0-23999-".repeat(30)));
}

/// A DTable's KF stream fails in a block that holds the tombstones of
/// keys whose older inline values sit one level down. A scan returns
/// the error; it never serves one of those values.
#[test]
fn a_scan_stops_at_a_corrupt_kf_block_instead_of_serving_what_it_shadowed() {
    let mem = MemEnv::shared();
    let mut o = LsmOptions::new(mem.clone(), "db");
    o.ktable_format = KTableFormat::DTable;
    o.memtable_size = 1 << 20;
    o.block_size = 256;
    let key = |i: usize| format!("key{i:04}");
    let path = {
        let db = open(o.clone());
        for i in 0..200 {
            put(&db, &key(i), "old");
        }
        db.flush().unwrap();
        while db.force_compact_once().unwrap() {}
        // Tombstones (the KF stream) for the first half, newer inline
        // values (the KV stream) for the rest: the file opens with a KF
        // block.
        for i in 0..200 {
            if i < 100 {
                del(&db, &key(i));
            } else {
                put(&db, &key(i), "new");
            }
        }
        db.flush().unwrap();
        let version = db.current_version();
        assert_eq!(version.levels[0].len(), 1);
        assert!(version.levels[1..].iter().flatten().count() > 0);
        table_path("db", version.levels[0][0].file_number)
    };
    mem.corrupt_byte(&path, 1).unwrap();

    let db = open(o);
    let mut it = db.view().scan(b"", None).unwrap();
    let err = loop {
        match it.next_entry() {
            Ok(Some(e)) => assert_eq!(&e.value[..], b"new", "{:?}", e.user_key),
            Ok(None) => panic!("the scan ended without the error"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, Error::Corruption(_)), "{err}");
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
