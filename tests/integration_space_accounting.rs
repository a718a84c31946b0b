//! Space-accounting invariants: garbage bookkeeping, GC reclamation,
//! space-aware throttling, the paper's space-amplification metrics, and
//! the per-directory ledgers — files and I/O — they all read.

use scavenger::{
    Bytes, Db, EngineMode, FsEnv, IoClass, IoStatsSnapshot, MemEnv, Options, ShardedOptions,
    SpaceBreakdown, WriteBatch, WriteOptions,
};
use scavenger_env::{EnvRef, FaultEnv};
use scavenger_lsm::filename::{parse_path, FileKind};
use std::sync::Arc;

fn opts(env: EnvRef, mode: EngineMode) -> Options {
    let mut o = Options::new(env, "db", mode);
    o.memtable_size = 32 * 1024;
    o.base_level_bytes = 128 * 1024;
    o.vsst_target_size = 128 * 1024;
    o
}

fn churn(db: &Db, keys: u64, rounds: u64, vsize: usize) {
    for r in 0..rounds {
        for i in 0..keys {
            db.put(format!("k{i:04}"), vec![(r + i) as u8; vsize])
                .unwrap();
        }
        db.flush().unwrap();
    }
}

#[test]
fn exposed_garbage_never_exceeds_store_bytes() {
    for mode in [EngineMode::Scavenger, EngineMode::Terark, EngineMode::Titan] {
        let env: EnvRef = MemEnv::shared();
        let mut o = opts(env, mode);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        churn(&db, 150, 4, 3000);
        db.compact_all().unwrap();
        let s = db.stats();
        assert!(s.exposed_garbage_bytes > 0, "{mode:?}");
        assert!(
            s.exposed_garbage_bytes <= s.value_store_bytes,
            "{mode:?}: exposed {} > store {}",
            s.exposed_garbage_bytes,
            s.value_store_bytes
        );
    }
}

#[test]
fn gc_reduces_exposed_garbage_and_space() {
    for mode in [EngineMode::Scavenger, EngineMode::Terark] {
        let env: EnvRef = MemEnv::shared();
        let mut o = opts(env, mode);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        churn(&db, 150, 5, 3000);
        db.compact_all().unwrap();
        let before = db.stats();
        db.run_gc_until_clean().unwrap();
        let after = db.stats();
        assert!(
            after.exposed_garbage_bytes < before.exposed_garbage_bytes,
            "{mode:?}: exposed garbage must shrink"
        );
        assert!(
            after.space.value_bytes < before.space.value_bytes,
            "{mode:?}: value store must shrink"
        );
        // After GC at threshold 0.2, no live file should exceed ~the
        // threshold by much.
        for meta in db.shard(0).value_store().all_files() {
            assert!(
                meta.garbage_ratio() < 0.5,
                "{mode:?}: file {} ratio {}",
                meta.file,
                meta.garbage_ratio()
            );
        }
    }
}

#[test]
fn space_amp_converges_near_gc_threshold_with_unpaced_gc() {
    // With unlimited GC bandwidth the steady-state exposed-garbage ratio
    // should approach the paper's ideal 1/(1-0.2) = 1.25 for the value
    // store.
    let env: EnvRef = MemEnv::shared();
    let mut o = opts(env, EngineMode::Scavenger);
    o.gc_bandwidth_factor = 1e9;
    let db = Db::open(o).unwrap();
    churn(&db, 200, 6, 3000);
    let logical_values = 200 * 3000u64;
    let s = db.stats();
    let value_amp = s.space.value_bytes as f64 / logical_values as f64;
    assert!(
        value_amp < 1.8,
        "value-store amplification {value_amp} should be near 1.25"
    );
}

#[test]
fn throttling_keeps_space_near_quota() {
    let env: EnvRef = MemEnv::shared();
    let mut o = opts(env, EngineMode::Scavenger);
    let logical = 150u64 * 3000;
    o.space_limit = Some((logical as f64 * 1.5) as u64);
    // Disable auto-GC so reclamation happens only through the throttle —
    // the paper's "space-aware throttling" must carry the quota alone.
    o.auto_gc = false;
    let db = Db::open(o).unwrap();
    churn(&db, 150, 8, 3000);
    let s = db.stats();
    assert!(s.throttle_stalls > 0, "quota must have been hit");
    // Transient overshoot allowed (one memtable + one vSST), but space is
    // pulled back toward the quota.
    assert!(
        s.space.total() < (logical as f64 * 1.5) as u64 + 512 * 1024,
        "total {} too far above quota",
        s.space.total()
    );
    // Data intact under pressure.
    for i in 0..150u64 {
        assert_eq!(db.get(format!("k{i:04}")).unwrap().unwrap().len(), 3000);
    }
}

#[test]
fn index_space_amp_is_sane() {
    for mode in EngineMode::ALL {
        let env: EnvRef = MemEnv::shared();
        let db = Db::open(opts(env, mode)).unwrap();
        churn(&db, 200, 3, 2000);
        db.compact_all().unwrap();
        let sa = db.stats().index_space_amp;
        assert!((1.0..10.0).contains(&sa), "{mode:?}: index SA {sa}");
    }
}

#[test]
fn space_breakdown_sums_to_total_disk() {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(opts(env.clone(), EngineMode::Scavenger)).unwrap();
    churn(&db, 100, 2, 4000);
    let s = db.stats().space;
    let on_disk: u64 = scavenger_env::Env::total_file_bytes(&*env, "db/").unwrap();
    assert_eq!(s.total(), on_disk);
    assert!(s.ksst_bytes > 0 && s.value_bytes > 0 && s.manifest_bytes > 0);
    assert_eq!(s.other_bytes, 0, "no unclassified files");
}

#[test]
fn hot_files_accumulate_garbage_faster() {
    let env: EnvRef = MemEnv::shared();
    let mut o = opts(env, EngineMode::Scavenger);
    o.auto_gc = false;
    let db = Db::open(o).unwrap();
    // Cold base + hot churn to teach the DropCache.
    for i in 0..150u64 {
        db.put(format!("cold{i:03}"), vec![1u8; 3000]).unwrap();
    }
    for r in 0..10u64 {
        for i in 0..15u64 {
            db.put(format!("hot{i:02}"), vec![r as u8; 3000]).unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    // More churn now that hot keys are known.
    for r in 0..6u64 {
        for i in 0..15u64 {
            db.put(format!("hot{i:02}"), vec![(r + 50) as u8; 3000])
                .unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    let files = db.shard(0).value_store().all_files();
    let avg = |hot: bool| {
        let v: Vec<f64> = files
            .iter()
            .filter(|m| m.hot == hot && m.entries > 0)
            .map(|m| m.garbage_ratio())
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let hot_avg = avg(true);
    let cold_avg = avg(false);
    assert!(
        hot_avg >= cold_avg,
        "hot files should carry at least as much garbage: hot {hot_avg} vs cold {cold_avg}"
    );
}

/// A directory for an [`FsEnv`] under the system temp dir, removed on
/// drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("scavenger-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn env(&self) -> EnvRef {
        Arc::new(FsEnv::new(&self.0).unwrap())
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The directory walk `stats().space` did on every call before the
/// ledger, kept as its oracle: every file under the root, classified by
/// name within the member directory it sits in. A set's root-level files
/// (routing meta, coordinator log) are no member's and count as other.
fn walked_space(env: &EnvRef, db: &Db) -> SpaceBreakdown {
    let root = db.options().dir.as_str();
    let members: Vec<String> = (0..db.num_shards())
        .map(|i| format!("{}/", db.shard(i).options().dir))
        .collect();
    let mut s = SpaceBreakdown::default();
    for p in env.list_prefix(&format!("{root}/")).unwrap() {
        // Zero for a file deleted since the listing (background work).
        let size = env.file_size(&p).unwrap_or(0);
        let dir = members
            .iter()
            .find(|m| p.starts_with(m.as_str()))
            .map_or(root, |m| m.trim_end_matches('/'));
        match parse_path(dir, &p) {
            Some((FileKind::Table, _)) => s.ksst_bytes += size,
            Some((FileKind::ValueTable | FileKind::BlobLog, _)) => s.value_bytes += size,
            Some((FileKind::Wal, _)) => s.wal_bytes += size,
            Some((FileKind::Manifest | FileKind::Current, _)) => s.manifest_bytes += size,
            None => s.other_bytes += size,
        }
    }
    s
}

/// `space()` and `stats().space` read the ledger; both must equal the
/// walk, and their total the env's own sum over the directory.
#[track_caller]
fn assert_ledger(env: &EnvRef, db: &Db, step: &str) {
    let walked = walked_space(env, db);
    assert_eq!(db.space(), walked, "{step}: space()");
    assert_eq!(db.stats().space, walked, "{step}: stats().space");
    let root = format!("{}/", db.options().dir);
    assert_eq!(
        db.space().total(),
        env.total_file_bytes(&root).unwrap(),
        "{step}: total"
    );
}

fn ledger_opts(env: EnvRef, dir: &str, mode: EngineMode, shards: usize) -> ShardedOptions {
    let mut o = opts(env, mode);
    o.dir = dir.to_string();
    o.memtable_size = 16 * 1024;
    o.ksst_target_size = 16 * 1024;
    o.auto_gc = false;
    let mut so: ShardedOptions = o.into();
    so.num_shards = shards;
    so
}

/// One round of overwrites (every third value small enough to stay
/// inline), deletes of every fifth key, and one batch spanning members
/// — the coordinator log's traffic in a set of several.
fn overwrite_delete(db: &Db, round: usize, wo: &WriteOptions) {
    for i in 0..120usize {
        let len = if i % 3 == 0 { 100 } else { 1500 };
        db.put_with(wo, format!("k{i:03}"), vec![(round + i) as u8; len])
            .unwrap();
    }
    for i in (0..120usize).step_by(5) {
        db.delete_with(wo, format!("k{i:03}")).unwrap();
    }
    let mut batch = WriteBatch::new();
    for i in 0..8 {
        batch.put(format!("b{i}"), Bytes::from(vec![round as u8; 700]));
    }
    db.write_with(wo, batch).unwrap();
}

/// The ledger equals a directory walk after every kind of step that
/// creates, grows or deletes files — in every mode, plain and sharded:
/// churn, flush, compaction, GC, a GC whose deletions a live view
/// defers (Titan's write-back barrier, BlobDB's exhausted-file reaping),
/// reopen, and a power-loss crash followed by reopen.
///
/// The env is a [`FaultEnv`] over an [`FsEnv`]: a file's size on a
/// filesystem counts every byte appended to it, synced or not, as the
/// ledger does. (A `MemEnv` keeps up to 64 KiB of an open file's
/// unsynced appends — a member's 2PC applies, say — in a write buffer
/// its `file_size` does not count yet.)
#[test]
fn the_ledger_equals_a_directory_walk_after_every_step() {
    let scratch = ScratchDir::new("ledger");
    let fault = FaultEnv::wrap(scratch.env(), 0x5ace);
    let env: EnvRef = fault.clone();
    let unsynced = WriteOptions {
        sync: false,
        ..WriteOptions::default()
    };
    for mode in EngineMode::ALL {
        for shards in [1, 4] {
            let ctx = format!("{mode:?} x{shards}");
            let dir = format!("{mode:?}-{shards}");
            let open = || Db::open(ledger_opts(env.clone(), &dir, mode, shards)).unwrap();
            let db = open();
            assert_ledger(&env, &db, &format!("{ctx}: open"));

            for round in 0..3 {
                overwrite_delete(&db, round, &unsynced);
            }
            assert_ledger(&env, &db, &format!("{ctx}: churn"));
            db.flush().unwrap();
            assert_ledger(&env, &db, &format!("{ctx}: flush"));
            db.compact_all().unwrap();
            assert_ledger(&env, &db, &format!("{ctx}: compact_all"));
            db.run_gc_until_clean().unwrap();
            assert_ledger(&env, &db, &format!("{ctx}: run_gc_until_clean"));

            // A live read point holds back deletion: Titan's collected
            // files wait behind their write-back barrier, BlobDB's
            // exhausted files wait to be reaped.
            let view = db.view();
            for round in 3..6 {
                overwrite_delete(&db, round, &unsynced);
            }
            db.flush().unwrap();
            db.compact_all().unwrap();
            db.run_gc_until_clean().unwrap();
            if matches!(mode, EngineMode::Titan | EngineMode::BlobDb) {
                assert!(db.stats().pinned_bytes > 0, "{ctx}: nothing deferred");
            }
            assert_ledger(&env, &db, &format!("{ctx}: GC under a live view"));
            drop(view);
            db.run_gc_until_clean().unwrap();
            db.flush().unwrap();
            assert_eq!(db.stats().pinned_bytes, 0, "{ctx}: deferred files stay");
            assert_ledger(&env, &db, &format!("{ctx}: deferred deletions"));

            drop(db);
            let db = open();
            assert_ledger(&env, &db, &format!("{ctx}: reopen"));

            // Unsynced writes, then power loss: the crash truncates or
            // removes what was never synced behind every ledger's back;
            // the reopened store's ledgers start from what survived.
            overwrite_delete(&db, 6, &unsynced);
            fault.crash();
            drop(db);
            fault.heal();
            let db = open();
            assert_ledger(&env, &db, &format!("{ctx}: crash + reopen"));
            overwrite_delete(&db, 7, &unsynced);
            db.flush().unwrap();
            assert_ledger(&env, &db, &format!("{ctx}: writes after recovery"));
        }
    }
}

/// The ledger under concurrency: four writers against a 4-shard set whose
/// flushes and compactions run on background threads and whose GC runs
/// after writes, compared at quiescent points: writers joined, then one
/// `flush()`, which returns once the background work it left due has run.
#[test]
#[ignore = "threaded; run with --include-ignored"]
fn the_ledger_equals_a_directory_walk_under_background_work() {
    let scratch = ScratchDir::new("ledger-threaded");
    let env = scratch.env();
    for mode in [EngineMode::Scavenger, EngineMode::Titan, EngineMode::BlobDb] {
        let mut o = ledger_opts(env.clone(), &format!("{mode:?}"), mode, 4);
        o.base.inline_background = false;
        o.base.auto_gc = true;
        o.base.gc_threads = 2;
        let db = Db::open(o).unwrap();
        for phase in 0..4usize {
            std::thread::scope(|s| {
                for t in 0..4usize {
                    let db = &db;
                    s.spawn(move || {
                        for r in 0..3 {
                            for i in (t..160).step_by(4) {
                                let v = vec![(phase + r + i) as u8; 100 + (i % 4) * 800];
                                db.put(format!("k{i:03}"), v).unwrap();
                            }
                            db.delete(format!("k{:03}", t * 7 + r)).unwrap();
                        }
                    });
                }
            });
            db.flush().unwrap();
            assert_ledger(&env, &db, &format!("{mode:?}: phase {phase}"));
        }
        db.compact_all().unwrap();
        db.run_gc_until_clean().unwrap();
        db.flush().unwrap();
        assert_ledger(&env, &db, &format!("{mode:?}: after compact + GC"));
    }
}

/// Writes (some batches spanning members), flushes, compaction, GC,
/// point reads and a scan: every `IoClass` the engine charges but
/// `Other`.
fn io_workload(db: &Db) {
    for round in 0..3 {
        churn(db, 96, 1, 1500 + round);
        let mut batch = WriteBatch::new();
        for i in 0..6 {
            batch.put(format!("txn{i}"), Bytes::from(vec![round as u8; 64]));
        }
        db.write(batch).unwrap();
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    db.run_gc_until_clean().unwrap();
    for i in 0..96u64 {
        assert!(db.get(format!("k{i:04}")).unwrap().is_some());
    }
    assert_eq!(db.scan(b"k", Some(b"l")).unwrap().count(), 96);
}

/// Run [`io_workload`] on the store `open` creates, leave writes in its
/// WAL and close it; then reopen it — recovery reads CURRENT, the
/// MANIFEST and the WAL (and a set's SHARDS and coordinator log) whole
/// — and run the workload again. Returns the reopened store and the
/// env's counters since the reopen began.
fn reopened_after_io(env: &EnvRef, open: impl Fn() -> Db) -> (Db, IoStatsSnapshot) {
    {
        let db = open();
        io_workload(&db);
        for i in 0..16 {
            db.put(format!("wal{i}"), vec![7u8; 700]).unwrap();
        }
    }
    let before = env.io_stats().snapshot();
    let db = open();
    io_workload(&db);
    (db, env.io_stats().snapshot().delta(&before))
}

/// A plain store that is its env's only user is charged every byte and
/// op the env counts, class by class. The env is an [`FsEnv`], which —
/// like the store's wrapper — charges one write per append (a `MemEnv`
/// coalesces appends into 64 KiB device writes, so its write-op count is
/// smaller).
#[test]
fn a_plain_stores_io_is_its_envs() {
    let scratch = ScratchDir::new("io-plain");
    let env = scratch.env();
    let mut o = opts(env.clone(), EngineMode::Scavenger);
    o.auto_gc = false;
    let (db, global) = reopened_after_io(&env, || Db::open(o.clone()).unwrap());
    assert!(
        global.class(IoClass::Manifest).read_bytes > 0,
        "MANIFEST replay"
    );
    assert!(global.class(IoClass::Wal).read_bytes > 0, "WAL replay");
    assert!(global.class(IoClass::GcRead).read_ops > 0);
    assert!(global.class(IoClass::FgValueRead).read_ops > 0);
    assert_eq!(db.stats().io, global);
}

/// Gets and GC on the same value files share each file's one reader: the
/// gets open it as `FgValueRead`, GC charges its reads through it to
/// `GcRead` with a per-thread scope, on the caller's thread and on each
/// of the 4 fetch workers. The store's ledger (a wrapper over the env)
/// and the env's own still agree class by class.
#[test]
fn gets_and_gc_on_shared_readers_charge_the_store_as_the_env() {
    let scratch = ScratchDir::new("io-shared");
    let env = scratch.env();
    let mut o = opts(env.clone(), EngineMode::Scavenger);
    o.auto_gc = false;
    o.gc_threads = 4;
    let before = env.io_stats().snapshot();
    let db = Db::open(o).unwrap();
    let (mut gc_ops, mut fg_ops) = (0, 0);
    churn(&db, 96, 1, 1500);
    for round in 0..4u64 {
        // A third of the keys keep their value: GC has survivors to fetch.
        for i in (0..96u64).filter(|i| i % 3 != round % 3) {
            db.put(format!("k{i:04}"), vec![round as u8; 1500 + i as usize])
                .unwrap();
        }
        db.flush().unwrap();
        for i in (0..96u64).filter(|i| i % 2 == round % 2) {
            assert!(db.get(format!("k{i:04}")).unwrap().is_some());
        }
        db.compact_all().unwrap();
        let io = env.io_stats().snapshot();
        db.run_gc_until_clean().unwrap();
        for i in 0..96u64 {
            assert!(db.get(format!("k{i:04}")).unwrap().is_some());
        }
        let d = env.io_stats().snapshot().delta(&io);
        gc_ops += d.class(IoClass::GcRead).read_ops;
        fg_ops += d.class(IoClass::FgValueRead).read_ops;
    }
    assert!(
        gc_ops > 0 && fg_ops > 0,
        "GC read {gc_ops}, gets read {fg_ops}"
    );
    assert_eq!(db.stats().io, env.io_stats().snapshot().delta(&before));
}

/// In a 4-shard set every byte and op the env counts is charged to
/// exactly one ledger: a member's (`shard_stats()[i].io`, whose fold is
/// `stats().io`) or the root's (routing meta, coordinator log), class by
/// class.
#[test]
fn a_sets_member_and_root_io_add_up_to_the_envs() {
    let scratch = ScratchDir::new("io-set");
    let env = scratch.env();
    let o = ledger_opts(env.clone(), "db", EngineMode::Scavenger, 4);
    let (db, global) = reopened_after_io(&env, || Db::open(o.clone()).unwrap());
    let root = db.options().env.io_stats().snapshot();
    assert!(root.class(IoClass::Other).read_bytes > 0, "SHARDS");
    assert!(root.class(IoClass::Wal).syncs > 0, "coordinator log");
    let per = db.shard_stats();
    assert!(per
        .iter()
        .all(|s| s.io.class(IoClass::Flush).write_bytes > 0));
    let mut members = IoStatsSnapshot::default();
    for s in &per {
        members.accumulate(&s.io);
    }
    assert_eq!(db.stats().io, members);
    let mut all = members;
    all.accumulate(&root);
    assert_eq!(all, global);
}
