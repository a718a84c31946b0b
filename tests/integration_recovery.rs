//! Crash-recovery integration: WAL replay, manifest replay, value-store
//! reconstruction, and fault injection (torn WAL tails).

use scavenger::{Db, EngineMode, MemEnv, Options};
use scavenger_env::{Env, EnvRef};
use std::sync::Arc;

fn opts(env: EnvRef, mode: EngineMode) -> Options {
    let mut o = Options::new(env, "db", mode);
    o.memtable_size = 32 * 1024;
    o.base_level_bytes = 128 * 1024;
    o.vsst_target_size = 128 * 1024;
    o
}

fn value(i: u64, round: u64) -> Vec<u8> {
    let mut v = vec![(i + round) as u8; 3000];
    v[..8].copy_from_slice(&round.to_le_bytes());
    v
}

#[test]
fn reopen_after_clean_shutdown_every_mode() {
    for mode in EngineMode::ALL {
        let env = MemEnv::shared();
        {
            let db = Db::open(opts(env.clone(), mode)).unwrap();
            for i in 0..150u64 {
                db.put(format!("k{i:04}"), value(i, 0)).unwrap();
            }
            db.flush().unwrap();
            for i in 0..150u64 {
                db.put(format!("k{i:04}"), value(i, 1)).unwrap();
            }
            // No final flush: the tail lives in the WAL.
        }
        let db = Db::open(opts(env.clone(), mode)).unwrap();
        for i in 0..150u64 {
            assert_eq!(
                db.get(format!("k{i:04}")).unwrap().unwrap(),
                bytes::Bytes::from(value(i, 1)),
                "{mode:?} k{i}"
            );
        }
    }
}

#[test]
fn repeated_reopen_cycles_preserve_everything() {
    let env = MemEnv::shared();
    let mut version = 0u64;
    for cycle in 0..5 {
        let db = Db::open(opts(env.clone(), EngineMode::Scavenger)).unwrap();
        // Verify previous cycle.
        if cycle > 0 {
            for i in 0..100u64 {
                assert_eq!(
                    db.get(format!("k{i:03}")).unwrap().unwrap(),
                    bytes::Bytes::from(value(i, version)),
                    "cycle {cycle} key {i}"
                );
            }
        }
        version = cycle + 1;
        for i in 0..100u64 {
            db.put(format!("k{i:03}"), value(i, version)).unwrap();
        }
        if cycle % 2 == 0 {
            db.flush().unwrap();
            db.compact_all().unwrap();
            db.run_gc_until_clean().unwrap();
        }
    }
}

#[test]
fn torn_wal_tail_loses_only_the_torn_batch() {
    let env = MemEnv::shared();
    {
        let mut o = opts(env.clone(), EngineMode::Scavenger);
        o.memtable_size = 10 << 20; // keep everything in the WAL
        let db = Db::open(o).unwrap();
        db.put("stable", vec![1u8; 2000]).unwrap();
        db.put("torn", vec![2u8; 2000]).unwrap();
    }
    // Tear mid-way through the last record of the newest WAL.
    let wal = env
        .list_prefix("db/")
        .unwrap()
        .into_iter()
        .rfind(|p| p.ends_with(".log"))
        .unwrap();
    let len = env.file_size(&wal).unwrap();
    env.truncate_file(&wal, len - 100).unwrap();

    let db = Db::open(opts(env.clone(), EngineMode::Scavenger)).unwrap();
    assert!(db.get("stable").unwrap().is_some(), "intact batch survives");
    assert!(
        db.get("torn").unwrap().is_none(),
        "torn batch dropped cleanly"
    );
    // The engine keeps working after recovery.
    db.put("after", vec![3u8; 2000]).unwrap();
    assert!(db.get("after").unwrap().is_some());
}

#[test]
fn recovery_reconstructs_value_store_state() {
    let env = MemEnv::shared();
    let exposed_before;
    {
        let mut o = opts(env.clone(), EngineMode::Scavenger);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        for round in 0..3u64 {
            for i in 0..120u64 {
                db.put(format!("k{i:03}"), value(i, round)).unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();
        exposed_before = db.stats().exposed_garbage_bytes;
        assert!(exposed_before > 0, "churn must expose garbage");
    }
    {
        let mut o = opts(env.clone(), EngineMode::Scavenger);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        let exposed_after = db.stats().exposed_garbage_bytes;
        assert_eq!(
            exposed_after, exposed_before,
            "garbage accounting must survive restarts"
        );
        // And GC still works on the recovered state.
        let jobs = db.run_gc_until_clean().unwrap();
        assert!(jobs > 0);
        for i in 0..120u64 {
            assert_eq!(
                db.get(format!("k{i:03}")).unwrap().unwrap(),
                bytes::Bytes::from(value(i, 2))
            );
        }
    }
}

fn blob_count(env: &Arc<scavenger_env::MemEnv>) -> usize {
    env.list_prefix("db/")
        .unwrap()
        .iter()
        .filter(|p| p.ends_with(".blob"))
        .count()
}

/// Titan's write-back GC defers blob deletion while a read point
/// predates the write-back barrier. That queue is in-memory: a crash
/// loses it. The collected-but-undeleted files must survive the crash
/// (they are still registered — a pre-crash reader could still address
/// them) and must be re-collected after reopen, not leaked forever.
#[test]
fn titan_deferred_deletion_queue_is_recovered_after_crash() {
    let env = MemEnv::shared();
    let deferred_blobs;
    {
        let mut o = opts(env.clone(), EngineMode::Titan);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        for i in 0..100u64 {
            db.put(format!("k{i:03}"), value(i, 0)).unwrap();
        }
        db.flush().unwrap();
        // Partial overwrite: round-0 files keep live records, so GC
        // must relocate (not just drop) and deletion is barrier-gated.
        for i in 0..50u64 {
            db.put(format!("k{i:03}"), value(i, 1)).unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        // Pin a view, then advance the sequence so the write-back
        // barrier postdates the pin.
        let view = db.view();
        for i in 0..5u64 {
            db.put(format!("x{i:03}"), value(i, 2)).unwrap();
        }
        let exposed_before = db.stats().exposed_garbage_bytes;
        let files_before = db.stats().value_files;
        let jobs = db.run_gc_until_clean().unwrap();
        assert!(jobs > 0, "churn must give write-back GC something to do");
        let s = db.stats();
        assert!(
            s.value_files >= files_before,
            "deferred files must stay registered while the pin predates \
             the barrier ({files_before} files before GC, {} after)",
            s.value_files
        );
        assert!(
            s.exposed_garbage_bytes >= exposed_before,
            "deferred files keep their exposed garbage until reaped"
        );
        deferred_blobs = blob_count(&env);
        for i in 0..50u64 {
            assert_eq!(
                view.get(format!("k{i:03}")).unwrap().unwrap(),
                bytes::Bytes::from(value(i, 1)),
                "reader predating the barrier must still resolve"
            );
        }
        // Drop without reaping: the queue dies with the process.
    }
    let mut o = opts(env.clone(), EngineMode::Titan);
    o.auto_gc = false;
    let db = Db::open(o).unwrap();
    // The stale collected files are pure garbage now; GC re-collects
    // them instead of leaking them forever.
    let jobs = db.run_gc_until_clean().unwrap();
    assert!(jobs > 0, "recovered garbage must be re-collected");
    assert!(
        blob_count(&env) < deferred_blobs,
        "stale deferred blobs must be reclaimed after reopen \
         ({deferred_blobs} before, {} after)",
        blob_count(&env)
    );
    assert_eq!(db.stats().exposed_garbage_bytes, 0);
    for i in 0..50u64 {
        assert_eq!(
            db.get(format!("k{i:03}")).unwrap().unwrap(),
            bytes::Bytes::from(value(i, 1))
        );
    }
    for i in 50..100u64 {
        assert_eq!(
            db.get(format!("k{i:03}")).unwrap().unwrap(),
            bytes::Bytes::from(value(i, 0))
        );
    }
}

/// BlobDB deletes a blob file once fully exhausted through compaction.
/// The manifest commit and the physical unlink are separate steps — a
/// crash (or injected I/O failure) between them leaves orphan blob
/// files on disk. Reopen must reap them via orphan cleanup.
#[test]
fn blobdb_orphaned_exhausted_files_are_reaped_on_reopen() {
    use scavenger_env::{FaultEnv, FaultKind, FaultOp, FaultRule, Trigger};
    let fault = FaultEnv::wrap(MemEnv::shared(), 0xb10b);
    let env: EnvRef = fault.clone();
    {
        let mut o = opts(env.clone(), EngineMode::BlobDb);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        for i in 0..100u64 {
            db.put(format!("k{i:03}"), value(i, 0)).unwrap();
        }
        db.flush().unwrap();
        // Every physical blob unlink now fails: the overwrite round's
        // inline flushes/compactions exhaust the round-0 files and
        // commit their deletion to the manifest, but the files linger
        // on disk.
        fault.add_rule(FaultRule {
            op: FaultOp::Delete,
            path_contains: Some(".blob".to_string()),
            trigger: Trigger::Always,
            kind: FaultKind::Fail,
            one_shot: false,
        });
        for i in 0..100u64 {
            db.put(format!("k{i:03}"), value(i, 1)).unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        let s = db.stats();
        let on_disk = env
            .list_prefix("db/")
            .unwrap()
            .iter()
            .filter(|p| p.ends_with(".blob"))
            .count();
        assert!(
            (on_disk as u64) > s.value_files,
            "exhausted files must linger as orphans while unlinks fail \
             ({on_disk} on disk, {} registered)",
            s.value_files
        );
    }
    fault.clear_rules();
    let mut o = opts(env.clone(), EngineMode::BlobDb);
    o.auto_gc = false;
    let db = Db::open(o).unwrap();
    let s = db.stats();
    let on_disk = env
        .list_prefix("db/")
        .unwrap()
        .iter()
        .filter(|p| p.ends_with(".blob"))
        .count();
    assert_eq!(
        on_disk as u64, s.value_files,
        "reopen must reap orphaned exhausted blobs"
    );
    for i in 0..100u64 {
        assert_eq!(
            db.get(format!("k{i:03}")).unwrap().unwrap(),
            bytes::Bytes::from(value(i, 1))
        );
    }
}

#[test]
fn orphan_value_files_are_cleaned_on_open() {
    let env = MemEnv::shared();
    {
        let db = Db::open(opts(env.clone(), EngineMode::Scavenger)).unwrap();
        db.put("k", vec![5u8; 4096]).unwrap();
        db.flush().unwrap();
    }
    // Simulate a crash that left a half-written vSST behind.
    {
        let mut w = env
            .new_writable("db/999999.vsst", scavenger::IoClass::Other)
            .unwrap();
        w.append(b"partial garbage").unwrap();
        w.sync().unwrap();
    }
    let db = Db::open(opts(env.clone(), EngineMode::Scavenger)).unwrap();
    assert!(
        !Arc::clone(&env).file_exists("db/999999.vsst"),
        "orphan removed during open"
    );
    assert_eq!(db.get("k").unwrap().unwrap().len(), 4096);
}
