//! Engine-conformance suite: ONE test body taking a `&Db`, run on a
//! plain [`Db`] and a 4-shard one ([`DbShards`] names the same type)
//! across the Scavenger, Titan, and Terark modes. Both sizes must
//! produce identical observable results — gets, pinned (view/snapshot)
//! reads, merged scan order and contents, and post-GC state.

use scavenger::{
    Db, DbShards, EngineMode, MemEnv, Options, ReadView, ShardedOptions, Transactional, WriteBatch,
    WriteOptions,
};

fn key(i: usize) -> String {
    format!("key{i:04}")
}

fn value(i: usize, len: usize) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; len];
    v[0] = (i >> 8) as u8;
    v[1] = (i & 0xff) as u8;
    v
}

fn small_options(dir: &str, mode: EngineMode) -> Options {
    let mut o = Options::new(MemEnv::shared(), dir, mode);
    o.memtable_size = 8 * 1024;
    o.vsst_target_size = 32 * 1024;
    o.base_level_bytes = 64 * 1024;
    o.ksst_target_size = 16 * 1024;
    o.auto_gc = false;
    o
}

fn single(dir: &str, mode: EngineMode) -> Db {
    Db::open(small_options(dir, mode)).unwrap()
}

fn sharded(dir: &str, mode: EngineMode) -> DbShards {
    let mut o = ShardedOptions::new(MemEnv::shared(), dir, mode);
    o.base = small_options(dir, mode);
    o.num_shards = 4;
    DbShards::open(o).unwrap()
}

/// Everything the generic driver can observe about an engine: latest
/// values, pinned-epoch values (a point get and a one-row scan each for
/// the view and the snapshot), scans, and post-GC latest state.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    latest_gets: Vec<(String, Option<Vec<u8>>)>,
    view_gets: Vec<Option<Vec<u8>>>,
    view_row_scans: Vec<Option<Vec<u8>>>,
    snap_gets: Vec<Option<Vec<u8>>>,
    snap_row_scans: Vec<Option<Vec<u8>>>,
    view_scan: Vec<(Vec<u8>, Vec<u8>)>,
    full_scan: Vec<(Vec<u8>, Vec<u8>)>,
    bounded_scan: Vec<(Vec<u8>, Vec<u8>)>,
    tail_scan: Vec<(Vec<u8>, Vec<u8>)>,
    post_gc_gets: Vec<(String, Option<Vec<u8>>)>,
}

/// Drain an engine iterator through its `Iterator` impl.
fn drain<I: Iterator<Item = scavenger::Result<scavenger::ScanEntry>>>(
    it: I,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    it.map(|e| {
        let e = e.unwrap();
        (e.key, e.value.to_vec())
    })
    .collect()
}

/// The one suite: no branching on the store's size anywhere.
fn drive(db: &Db) -> Observation {
    // Epoch 0: 80 keys, large enough to separate in KV-separated modes.
    for i in 0..80 {
        db.put(key(i), value(i, 2048)).unwrap();
    }
    db.flush().unwrap();

    // Pin the epoch both ways.
    let view = db.view();
    let snap = db.snapshot();

    // Churn: overwrites, deletes, and a mixed batch (split per shard on
    // the sharded handle — atomicity documented on `Db::write_with`),
    // then expose garbage and collect it.
    for round in 1..=3 {
        for i in 0..80 {
            db.put(key(i), value(round * 100 + i, 2048)).unwrap();
        }
        db.flush().unwrap();
    }
    for i in (0..80).step_by(9) {
        db.delete(key(i).as_bytes()).unwrap();
    }
    let mut batch = WriteBatch::new();
    for i in 200..216 {
        batch.put(key(i), scavenger::Bytes::from(value(i, 700)));
    }
    batch.delete(key(201));
    db.write(batch).unwrap();
    let nosync = WriteOptions {
        sync: false,
        ..WriteOptions::default()
    };
    db.put_with(&nosync, key(216), value(216, 700)).unwrap();
    db.flush().unwrap();
    db.compact_all().unwrap();

    // GC through the normalized report. Whether a job ran depends on the
    // mode's garbage, so assert only that the report is internally
    // consistent. Under the pins, Titan retires what it collects and
    // BlobDB's exhausted files wait: both stay readable below.
    let report = db.run_gc().unwrap();
    assert_eq!(report.jobs(), report.outcomes.iter().flatten().count());
    assert_eq!(report.ran(), report.jobs() > 0);
    db.run_gc_until_clean().unwrap();

    // The pinned epoch, read two ways per pin: a point get, and a scan
    // of the one-key range `[k, k\0)`.
    let row_scans = |pin: &ReadView| -> Vec<Option<Vec<u8>>> {
        (0..80)
            .map(|i| {
                let lo = key(i).into_bytes();
                let hi = [lo.as_slice(), b"\0"].concat();
                let mut row = drain(pin.scan(&lo, Some(&hi)).unwrap());
                assert!(row.len() <= 1);
                row.pop().map(|(_, v)| v)
            })
            .collect()
    };
    let view_gets = (0..80)
        .map(|i| view.get(key(i).as_bytes()).unwrap().map(|b| b.to_vec()))
        .collect();
    let view_row_scans = row_scans(&view);
    let snap_gets = (0..80)
        .map(|i| snap.get(key(i).as_bytes()).unwrap().map(|b| b.to_vec()))
        .collect();
    let snap_row_scans = row_scans(&snap);
    let view_scan = drain(view.scan(b"key0000", Some(b"key0010")).unwrap());

    // Release the pins: the next GC pass unlinks what they held.
    drop(view);
    drop(snap);
    db.run_gc_until_clean().unwrap();

    let latest_gets = (0..80)
        .map(|i| {
            (
                key(i),
                db.get(key(i).as_bytes()).unwrap().map(|b| b.to_vec()),
            )
        })
        .collect();
    let full_scan = drain(db.scan(b"", None).unwrap());
    let bounded_scan = drain(
        db.scan(key(40).as_bytes(), Some(key(60).as_bytes()))
            .unwrap(),
    );
    let tail_scan = drain(db.scan(key(200).as_bytes(), None).unwrap());
    let post_gc_gets = (200..217)
        .map(|i| {
            (
                key(i),
                db.get(key(i).as_bytes()).unwrap().map(|b| b.to_vec()),
            )
        })
        .collect();

    // Introspection sanity.
    let stats = db.stats();
    assert!(stats.flushes > 0, "flushes must be counted");
    assert!(stats.space.total() > 0, "stats.space must be populated");
    assert!(db.space().total() > 0, "space() must be populated");

    Observation {
        latest_gets,
        view_gets,
        view_row_scans,
        snap_gets,
        snap_row_scans,
        view_scan,
        full_scan,
        bounded_scan,
        tail_scan,
        post_gc_gets,
    }
}

/// Acceptance: the single generic suite runs over `Db` and a 4-shard
/// `DbShards` in Scavenger, Titan, and Terark modes, and the two
/// handles observe identical results everywhere.
#[test]
fn conformance_db_and_4shard_dbshards_match() {
    for mode in [EngineMode::Scavenger, EngineMode::Titan, EngineMode::Terark] {
        let s = drive(&single(&format!("conf-single-{mode:?}"), mode));
        let m = drive(&sharded(&format!("conf-sharded-{mode:?}"), mode));
        assert_eq!(
            s.latest_gets, m.latest_gets,
            "{mode:?}: latest gets diverged"
        );
        assert_eq!(s.view_gets, m.view_gets, "{mode:?}: view gets diverged");
        assert_eq!(
            s.view_row_scans, m.view_row_scans,
            "{mode:?}: view row scans diverged"
        );
        assert_eq!(s.snap_gets, m.snap_gets, "{mode:?}: snapshot gets diverged");
        assert_eq!(
            s.snap_row_scans, m.snap_row_scans,
            "{mode:?}: snapshot row scans diverged"
        );
        assert_eq!(s.view_scan, m.view_scan, "{mode:?}: view scan diverged");
        assert_eq!(s.full_scan, m.full_scan, "{mode:?}: full scan diverged");
        assert_eq!(
            s.bounded_scan, m.bounded_scan,
            "{mode:?}: bounded scan diverged"
        );
        assert_eq!(s.tail_scan, m.tail_scan, "{mode:?}: tail scan diverged");
        assert_eq!(
            s.post_gc_gets, m.post_gc_gets,
            "{mode:?}: post-GC gets diverged"
        );

        // Within each handle, every read path over the same pin agrees.
        assert_eq!(s.view_gets, s.view_row_scans);
        assert_eq!(s.view_gets, s.snap_gets);
        assert_eq!(s.snap_gets, s.snap_row_scans);
        // The pinned epoch is epoch 0, fully intact.
        for (i, got) in s.view_gets.iter().enumerate() {
            assert_eq!(
                got.as_deref(),
                Some(value(i, 2048).as_slice()),
                "{mode:?}: pinned epoch lost {}",
                key(i)
            );
        }
    }
}

/// Everything the generic driver can observe about an engine's
/// transaction surface. Same discipline as [`Observation`]: no
/// size-specific branching.
#[derive(Debug, PartialEq, Eq)]
struct TxnObservation {
    /// Latest values after a committed multi-key transaction.
    committed_gets: Vec<(String, Option<Vec<u8>>)>,
    /// Latest values after a rolled-back transaction (must be untouched).
    rollback_gets: Vec<(String, Option<Vec<u8>>)>,
    /// A write-write conflict (read key overwritten mid-txn) aborted.
    ww_conflicted: bool,
    /// A read-write conflict (read-set key moved; txn wrote elsewhere)
    /// aborted.
    rw_conflicted: bool,
    /// Values an in-flight transaction read while concurrent raw writes
    /// churned the same keys: its begin-time snapshot plus its own
    /// buffered writes.
    si_reads: Vec<Option<Vec<u8>>>,
    /// Scan inside a transaction: begin-time base overlaid with the
    /// transaction's own puts and deletes.
    txn_scan: Vec<(Vec<u8>, Vec<u8>)>,
    /// (commits, conflicts) growth observed via `stats()`.
    counters: (u64, u64),
}

/// The generic transaction suite: commit visibility, rollback
/// invisibility, W-W and R-W conflicts, snapshot-isolation reads — one
/// body for both handles.
fn drive_txn(db: &Db) -> TxnObservation {
    for i in 0..20 {
        db.put(key(i), value(i, 256)).unwrap();
    }
    let base = db.stats();

    // Commit visibility: a multi-key read-modify-write transaction
    // (keys straddle shards on the sharded handle) lands atomically.
    let mut t = db.begin();
    let seen = t.get(key(0).as_bytes()).unwrap().unwrap();
    assert_eq!(seen.as_ref(), value(0, 256).as_slice());
    t.put(key(100).as_bytes(), value(100, 300));
    t.put(key(101).as_bytes(), value(101, 300));
    t.delete(key(1).as_bytes());
    let receipt = t.commit().unwrap();
    assert!(receipt.synced, "default commit is durable");
    let committed_gets = [0, 1, 100, 101]
        .into_iter()
        .map(|i| {
            (
                key(i),
                db.get(key(i).as_bytes()).unwrap().map(|b| b.to_vec()),
            )
        })
        .collect();

    // Rollback invisibility: buffered writes die with the transaction.
    let mut t = db.begin();
    t.put(key(102).as_bytes(), value(102, 300));
    t.delete(key(2).as_bytes());
    t.rollback();
    let rollback_gets = [2, 102]
        .into_iter()
        .map(|i| {
            (
                key(i),
                db.get(key(i).as_bytes()).unwrap().map(|b| b.to_vec()),
            )
        })
        .collect();

    // W-W conflict: the transaction read key 3, then a raw writer
    // overwrote it; the commit (which also writes key 3) must abort
    // with nothing written.
    let mut t = db.begin();
    let _ = t.get(key(3).as_bytes()).unwrap();
    db.put(key(3), value(9003, 256)).unwrap();
    t.put(key(3).as_bytes(), value(7003, 256));
    t.put(key(103).as_bytes(), value(103, 256));
    let err = t.commit().expect_err("stale read-modify-write must abort");
    let ww_conflicted = err.is_txn_conflict();
    assert_eq!(
        db.get(key(3).as_bytes()).unwrap().unwrap().as_ref(),
        value(9003, 256).as_slice(),
        "aborted txn must write nothing"
    );
    assert!(
        db.get(key(103).as_bytes()).unwrap().is_none(),
        "aborted txn must write nothing, not even unconflicted keys"
    );

    // R-W conflict: the read set alone is validated — the transaction
    // never writes key 4, but having read it and committing elsewhere
    // must still abort once key 4 moves (no write skew on read keys).
    let mut t = db.begin();
    let _ = t.get(key(4).as_bytes()).unwrap();
    db.delete(key(4).as_bytes()).unwrap();
    t.put(key(104).as_bytes(), value(104, 256));
    let err = t.commit().expect_err("moved read-set key must abort");
    let rw_conflicted = err.is_txn_conflict();

    // Snapshot isolation: reads stay at begin time under concurrent
    // churn, the txn's own writes shadow them, and scan merges both.
    let mut t = db.begin();
    let pre = t.get(key(10).as_bytes()).unwrap();
    for i in 10..14 {
        db.put(key(i), value(8000 + i, 256)).unwrap();
    }
    let mut si_reads = vec![pre];
    si_reads.push(t.get(key(10).as_bytes()).unwrap()); // begin-time, not 8010
    t.put(key(11).as_bytes(), value(7011, 256));
    si_reads.push(t.get(key(11).as_bytes()).unwrap()); // own write wins
    t.delete(key(12).as_bytes());
    si_reads.push(t.get(key(12).as_bytes()).unwrap()); // own delete wins
    let si_reads = si_reads
        .into_iter()
        .map(|b| b.map(|b| b.to_vec()))
        .collect();
    let txn_scan = t
        .scan(key(10).as_bytes(), Some(key(14).as_bytes()))
        .unwrap()
        .into_iter()
        .map(|e| (e.key, e.value.to_vec()))
        .collect();
    // Reading churned keys poisoned the read set; this commit conflicts
    // (counted below), leaving the raw writes in place.
    assert!(t
        .commit()
        .expect_err("churned read set must abort")
        .is_txn_conflict());

    let stats = db.stats();
    TxnObservation {
        committed_gets,
        rollback_gets,
        ww_conflicted,
        rw_conflicted,
        si_reads,
        txn_scan,
        counters: (
            stats.txn_commits - base.txn_commits,
            stats.txn_conflicts - base.txn_conflicts,
        ),
    }
}

/// Acceptance: the transaction suite observes identical results on a
/// single `Db` and a 4-shard `DbShards` in every mode, and the typed
/// counters agree.
#[test]
fn txn_conformance_db_and_4shard_dbshards_match() {
    for mode in [EngineMode::Scavenger, EngineMode::Titan, EngineMode::Terark] {
        let s = drive_txn(&single(&format!("txnconf-single-{mode:?}"), mode));
        let m = drive_txn(&sharded(&format!("txnconf-sharded-{mode:?}"), mode));
        assert_eq!(s, m, "{mode:?}: txn observations diverged");

        assert!(s.ww_conflicted, "{mode:?}: W-W conflict not typed");
        assert!(s.rw_conflicted, "{mode:?}: R-W conflict not typed");
        // Commit visibility and rollback invisibility, by value.
        assert_eq!(s.committed_gets[0].1.as_deref(), Some(&value(0, 256)[..]));
        assert_eq!(s.committed_gets[1].1, None, "txn delete must commit");
        assert_eq!(s.committed_gets[2].1.as_deref(), Some(&value(100, 300)[..]));
        assert_eq!(s.committed_gets[3].1.as_deref(), Some(&value(101, 300)[..]));
        assert_eq!(s.rollback_gets[0].1.as_deref(), Some(&value(2, 256)[..]));
        assert_eq!(s.rollback_gets[1].1, None, "rolled-back put leaked");
        // Snapshot isolation: begin-time value, then own write/delete.
        assert_eq!(s.si_reads[0].as_deref(), Some(&value(10, 256)[..]));
        assert_eq!(s.si_reads[1].as_deref(), Some(&value(10, 256)[..]));
        assert_eq!(s.si_reads[2].as_deref(), Some(&value(7011, 256)[..]));
        assert_eq!(s.si_reads[3], None);
        // Scan: keys 10 (base), 11 (own put), 13 (base); 12 deleted.
        assert_eq!(
            s.txn_scan,
            vec![
                (key(10).into_bytes(), value(10, 256)),
                (key(11).into_bytes(), value(7011, 256)),
                (key(13).into_bytes(), value(13, 256)),
            ],
            "{mode:?}: txn scan overlay wrong"
        );
        // 1 committed txn; 3 conflicted (W-W, R-W, churned-scan).
        assert_eq!(s.counters, (1, 3), "{mode:?}: txn counters wrong");
    }
}

/// `WriteBatch` (and the `Bytes` alias it uses) are reachable from the
/// crate root: `Db::write(WriteBatch)` works with no `scavenger-lsm`
/// or `bytes` dependency in the caller's manifest.
#[test]
fn write_batch_is_usable_from_crate_root() {
    let db = single("root-batch", EngineMode::Scavenger);
    let mut batch = scavenger::WriteBatch::new();
    batch.put("a", scavenger::Bytes::from(vec![1u8; 600]));
    batch.put("b", scavenger::Bytes::from_static(b"inline"));
    batch.delete("a");
    db.write(batch).unwrap();
    assert!(db.get("a").unwrap().is_none());
    assert_eq!(
        db.get("b").unwrap().unwrap(),
        scavenger::Bytes::from_static(b"inline")
    );
}
