//! Pinned `ReadView` / RAII `Snapshot` integration: a view outlives
//! flush + compaction + GC and still reads its epoch; snapshots register
//! and unregister their read points; the read point is the handle read
//! through; per-call `WriteOptions` behave as documented.

use scavenger::{Db, EngineMode, MemEnv, Options, WriteOptions};

fn small_opts(mode: EngineMode) -> Options {
    let mut o = Options::new(MemEnv::shared(), "db", mode);
    o.memtable_size = 8 * 1024;
    o.vsst_target_size = 32 * 1024;
    o.base_level_bytes = 64 * 1024;
    o.ksst_target_size = 16 * 1024;
    o.block_cache_bytes = 256 * 1024;
    o.auto_gc = false;
    o
}

fn value(i: usize, len: usize) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; len];
    v[0] = (i >> 8) as u8;
    v
}

/// The tentpole guarantee: a view pinned at epoch 0 keeps reading epoch
/// 0 — point gets and scans — after the engine flushes, compacts, and
/// garbage-collects away every structure the epoch lived in.
#[test]
fn view_outlives_flush_compaction_and_gc() {
    for mode in [EngineMode::Scavenger, EngineMode::Terark] {
        let db = Db::open(small_opts(mode)).unwrap();
        for i in 0..60 {
            db.put(format!("key{i:03}"), value(i, 2048)).unwrap();
        }
        db.flush().unwrap();

        let view = db.view();

        // Churn: overwrite everything several times, flush each round,
        // compact (exposing the old values as garbage), then GC.
        for round in 1..=4 {
            for i in 0..60 {
                db.put(format!("key{i:03}"), value(round * 100 + i, 2048))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();
        let jobs = db.run_gc_until_clean().unwrap();
        assert!(jobs > 0, "{mode:?}: GC must actually run for this test");

        // The pinned epoch is fully intact...
        for i in 0..60 {
            assert_eq!(
                view.get(format!("key{i:03}")).unwrap().unwrap(),
                bytes::Bytes::from(value(i, 2048)),
                "{mode:?}: view lost key{i} after flush+compact+GC"
            );
        }
        let mut it = view.scan(b"key", None).unwrap();
        let mut n = 0;
        while let Some(e) = it.next_entry().unwrap() {
            let i: usize = std::str::from_utf8(&e.key[3..]).unwrap().parse().unwrap();
            assert_eq!(e.value, bytes::Bytes::from(value(i, 2048)), "{mode:?}");
            n += 1;
        }
        assert_eq!(n, 60, "{mode:?}: view scan covers the whole epoch");

        // ...while the latest state moved on.
        for i in (0..60).step_by(7) {
            assert_eq!(
                db.get(format!("key{i:03}")).unwrap().unwrap(),
                bytes::Bytes::from(value(400 + i, 2048)),
                "{mode:?}"
            );
        }
    }
}

/// Snapshots are RAII: creating one registers its sequence, dropping it
/// unregisters, and a scan opened from a view stays valid after the view
/// itself is dropped (the iterator owns its own pin).
#[test]
fn snapshot_registers_and_unregisters_on_drop() {
    let db = Db::open(small_opts(EngineMode::Scavenger)).unwrap();
    db.put("a", value(1, 100)).unwrap();
    assert_eq!(db.stats().live_snapshots, 0);

    let snap = db.snapshot();
    assert_eq!(db.stats().live_snapshots, 1);
    assert_eq!(db.shard(0).lsm().oldest_read_point(), Some(snap.sequence()));
    let snap2 = db.snapshot();
    assert_eq!(db.stats().live_snapshots, 2);
    drop(snap2);
    assert_eq!(db.stats().live_snapshots, 1);

    db.put("a", value(2, 100)).unwrap();
    assert_eq!(snap.get("a").unwrap().unwrap(), value(1, 100));

    // An iterator opened from the snapshot's view survives the snapshot.
    let mut it = snap.scan(b"", None).unwrap();
    drop(snap);
    assert_eq!(db.stats().live_snapshots, 0);
    let e = it.next_entry().unwrap().unwrap();
    assert_eq!(e.key, b"a");
    assert_eq!(e.value, value(1, 100));
}

/// Transient view pins also register (as pins, not snapshots) and clear
/// on drop — the GC read-point machinery depends on this accounting.
#[test]
fn view_pins_register_as_read_points() {
    let db = Db::open(small_opts(EngineMode::Scavenger)).unwrap();
    db.put("k", value(1, 100)).unwrap();
    assert!(db.shard(0).lsm().oldest_read_point().is_none());
    let view = db.view();
    assert_eq!(db.shard(0).lsm().oldest_read_point(), Some(view.sequence()));
    assert_eq!(
        db.stats().live_snapshots,
        0,
        "a plain view is a pin, not a snapshot"
    );
    drop(view);
    assert!(db.shard(0).lsm().oldest_read_point().is_none());
}

/// The read point is the handle read through: latest, view or snapshot;
/// scan bounds are `[lo, hi)` on any of them.
#[test]
fn pins_select_the_read_point_and_scans_take_bounds() {
    let db = Db::open(small_opts(EngineMode::Scavenger)).unwrap();
    for i in 0..30 {
        db.put(format!("key{i:02}"), value(i, 600)).unwrap();
    }
    let view = db.view();
    let snap = db.snapshot();
    for i in 0..30 {
        db.put(format!("key{i:02}"), value(100 + i, 600)).unwrap();
    }
    db.flush().unwrap();

    // Latest, at-view, and at-snapshot reads of the same key.
    assert_eq!(db.get("key07").unwrap().unwrap(), value(107, 600));
    assert_eq!(view.get("key07").unwrap().unwrap(), value(7, 600));
    assert_eq!(snap.get("key07").unwrap().unwrap(), value(7, 600));

    // Bounded scans through the snapshot and at the latest state.
    let entries = snap
        .scan(b"key10", Some(b"key20"))
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap();
    assert_eq!(entries.len(), 10);
    for (j, e) in entries.iter().enumerate() {
        assert_eq!(e.key, format!("key{:02}", j + 10).into_bytes());
        assert_eq!(e.value, bytes::Bytes::from(value(j + 10, 600)));
    }
    let latest = db
        .scan(b"key10", Some(b"key20"))
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap();
    assert_eq!(latest.len(), 10);
    assert_eq!(latest[0].value, bytes::Bytes::from(value(110, 600)));
}

/// `WriteOptions::disable_throttle` bypasses space-aware admission:
/// writes land even while the store is over its limit, with no throttle
/// activations.
#[test]
fn write_options_disable_throttle_skips_admission_control() {
    let mut o = small_opts(EngineMode::Scavenger);
    o.space_limit = Some(200 * 1024);
    let db = Db::open(o).unwrap();
    let unthrottled = WriteOptions {
        disable_throttle: true,
        ..WriteOptions::default()
    };
    // ~1 MiB of separated values: far over the 200 KiB quota.
    for round in 0..8 {
        for i in 0..32 {
            db.put_with(&unthrottled, format!("key{i:02}"), value(round + i, 4096))
                .unwrap();
        }
    }
    db.flush().unwrap();
    assert_eq!(
        db.stats().throttle_stalls,
        0,
        "disable_throttle writes must never activate the throttle"
    );
    assert!(
        db.space().total() > 200 * 1024,
        "space ran past the limit because admission control was bypassed"
    );
    // Data is intact.
    for i in 0..32 {
        assert_eq!(
            db.get(format!("key{i:02}")).unwrap().unwrap(),
            bytes::Bytes::from(value(7 + i, 4096))
        );
    }
}

/// `WriteOptions::sync = false` writes are acknowledged without a WAL
/// fsync but remain readable and flushable.
#[test]
fn write_options_nosync_writes_round_trip() {
    let db = Db::open(small_opts(EngineMode::Scavenger)).unwrap();
    let nosync = WriteOptions {
        sync: false,
        ..WriteOptions::default()
    };
    for i in 0..50 {
        db.put_with(&nosync, format!("key{i:02}"), value(i, 1024))
            .unwrap();
    }
    for i in 0..50 {
        assert_eq!(
            db.get(format!("key{i:02}")).unwrap().unwrap(),
            value(i, 1024)
        );
    }
    db.flush().unwrap();
    assert_eq!(db.get("key07").unwrap().unwrap(), value(7, 1024));
}

/// BlobDB relocates values inside compaction *without advancing the
/// sequence*, so exhausted-file reaping must defer while any read point
/// is registered at all — a pinned view may hold a pre-relocation
/// superversion whose index entries still address the exhausted file.
#[test]
fn blobdb_defers_exhausted_reaping_under_pinned_view() {
    let mut o = small_opts(EngineMode::BlobDb);
    o.auto_gc = true; // reaping runs on the write path
    let db = Db::open(o).unwrap();
    for i in 0..40 {
        db.put(format!("key{i:02}"), value(i, 2048)).unwrap();
    }
    db.flush().unwrap();

    let view = db.view();

    // Churn + compact repeatedly: compaction-triggered relocation drains
    // the old blob files until they exhaust; the write path then tries
    // to reap them on every put.
    for round in 1..=12 {
        for i in 0..40 {
            db.put(format!("key{i:02}"), value(round * 50 + i, 2048))
                .unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
    }

    // Strict: the pinned view still reads every epoch-0 value, whether
    // or not its blob files have exhausted in the meantime.
    for i in 0..40 {
        assert_eq!(
            view.get(format!("key{i:02}")).unwrap().unwrap(),
            bytes::Bytes::from(value(i, 2048)),
            "pinned view must survive BlobDB relocation + reaping"
        );
    }
    drop(view);

    // The riskiest window: a view pinned with NO writes afterwards, then
    // compactions that relocate records (and reap on their maintenance
    // pass) without ever advancing the sequence. A sequence-based gate
    // cannot tell this reader from a safe one — only defer-on-any-pin
    // protects it.
    let late_view = db.view();
    for _ in 0..3 {
        db.compact_all().unwrap();
        db.flush().unwrap();
    }
    for i in 0..40 {
        assert_eq!(
            late_view.get(format!("key{i:02}")).unwrap().unwrap(),
            bytes::Bytes::from(value(600 + i, 2048)),
            "view pinned across write-free compactions must stay resolvable"
        );
    }
    drop(late_view);

    // With no read points left, a write-path pass may reap exhausted
    // files; the latest state stays fully readable either way.
    db.put("poke", value(0, 600)).unwrap();
    db.flush().unwrap();
    for i in 0..40 {
        assert_eq!(
            db.get(format!("key{i:02}")).unwrap().unwrap(),
            bytes::Bytes::from(value(600 + i, 2048))
        );
    }
}

/// Collected Titan files held back by a read point are *pinned* space —
/// no GC round can free them while the reader lives — so they count in
/// `pinned_bytes`, which the §III-D throttle discounts, as BlobDB's
/// exhausted-but-deferred files do. Once the reader is gone they are
/// reclaimable again and the count drops back to zero.
#[test]
fn titan_deferred_files_count_as_pinned_bytes() {
    let db = Db::open(small_opts(EngineMode::Titan)).unwrap();
    for i in 0..40 {
        db.put(format!("key{i:02}"), value(i, 2048)).unwrap();
    }
    db.flush().unwrap();
    for i in 10..40 {
        db.put(format!("key{i:02}"), value(500 + i, 2048)).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    assert_eq!(db.stats().pinned_bytes, 0, "nothing pinned before GC");

    let view = db.view();
    assert!(db.run_gc_until_clean().unwrap() > 0, "GC must collect");
    let vstore = db.shard(0).value_store();
    let lingering: u64 = vstore
        .all_files()
        .iter()
        .filter(|m| m.garbage_ratio() >= 0.2)
        .map(|m| m.size)
        .sum();
    assert!(lingering > 0, "the view must hold collected files back");
    assert_eq!(
        db.stats().pinned_bytes,
        lingering,
        "files waiting on the view's read point are pinned"
    );

    drop(view);
    assert_eq!(
        db.stats().pinned_bytes,
        0,
        "with no read point left the deferred files are reclaimable"
    );
    db.run_gc_until_clean().unwrap();
    assert!(
        vstore.all_files().iter().all(|m| m.garbage_ratio() < 0.2),
        "the next GC pass reaps them"
    );
}

/// Titan (write-back GC) cannot preserve superseded versions through
/// inheritance, so collected blob files are deleted *deferred*: a view
/// pinned below the write-back barrier keeps reading relocated records
/// through the old file; once the view drops, the next GC pass reaps it.
///
/// The scenario: keys 0..10 stay live in blob files whose *other*
/// records (keys 10..40, overwritten and exposed by compaction before
/// the view existed) push the garbage ratio over the GC threshold. The
/// GC rewrites the live records and write-back re-points the index — but
/// the pinned view, below that barrier, still resolves them through the
/// old addresses.
#[test]
fn titan_defers_blob_deletion_under_pinned_view() {
    let db = Db::open(small_opts(EngineMode::Titan)).unwrap();
    for i in 0..40 {
        db.put(format!("key{i:02}"), value(i, 2048)).unwrap();
    }
    db.flush().unwrap();
    let old_files: Vec<u64> = db
        .shard(0)
        .value_store()
        .all_files()
        .iter()
        .map(|m| m.file)
        .collect();
    assert!(!old_files.is_empty());

    // Expose most of the old records as garbage *before* pinning, so the
    // files are GC candidates despite the live remainder.
    for i in 10..40 {
        db.put(format!("key{i:02}"), value(500 + i, 2048)).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();

    // The files the GC will actually collect: garbage ratio over the
    // default 0.2 threshold. (Old files holding only still-live records
    // stay below it and legitimately survive GC.)
    let candidates: Vec<u64> = db
        .shard(0)
        .value_store()
        .all_files()
        .iter()
        .filter(|m| old_files.contains(&m.file) && m.garbage_ratio() >= 0.2)
        .map(|m| m.file)
        .collect();
    assert!(!candidates.is_empty(), "setup must create GC candidates");
    // Candidates still holding live records force a write-back: their
    // barrier lands *above* the view, so deletion must defer. (Fully-dead
    // candidates have nothing to write back and may be reaped at once —
    // no read point can resolve into them.)
    let mixed: Vec<u64> = db
        .shard(0)
        .value_store()
        .all_files()
        .iter()
        .filter(|m| candidates.contains(&m.file) && m.garbage_ratio() < 1.0)
        .map(|m| m.file)
        .collect();
    assert!(
        !mixed.is_empty(),
        "setup must create mixed live/dead candidates"
    );

    let view = db.view();
    let jobs = db.run_gc_until_clean().unwrap();
    assert!(jobs > 0, "write-back GC must collect the exposed files");

    // The view predates the write-back barrier: its index entries for
    // keys 0..10 still address the collected files, which therefore must
    // linger (deferred) and keep resolving.
    assert!(
        mixed
            .iter()
            .all(|f| db.shard(0).value_store().meta(*f).is_some()),
        "collected blob files must linger while a read point predates the barrier"
    );
    for i in 0..10 {
        assert_eq!(
            view.get(format!("key{i:02}")).unwrap().unwrap(),
            bytes::Bytes::from(value(i, 2048)),
            "view must survive Titan GC via deferred deletion"
        );
    }

    drop(view);
    // With the pin gone, the next GC pass reaps the deferred files.
    db.run_gc_until_clean().unwrap();
    assert!(
        candidates
            .iter()
            .all(|f| db.shard(0).value_store().meta(*f).is_none()),
        "deferred blob files must be reaped once no read point needs them"
    );
    // Live records were relocated and written back; everything reads.
    for i in 0..40 {
        let want = if i < 10 {
            value(i, 2048)
        } else {
            value(500 + i, 2048)
        };
        assert_eq!(
            db.get(format!("key{i:02}")).unwrap().unwrap(),
            bytes::Bytes::from(want)
        );
    }
}
