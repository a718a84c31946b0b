//! Value-file retirement: one queue decides when a collected value file
//! may be unlinked. Titan retires the files its GC collected at the
//! write-back commit sequence; BlobDB retires a blob file at `MAX_SEQNO`
//! once compaction has exhausted it. A read point below the barrier — a
//! snapshot or a view, alike — holds the files on disk and readable; the
//! first maintenance after it drops unlinks them.

use scavenger::{
    Bytes, Db, EngineMode, FsEnv, Options, ReadView, ShardedOptions, Snapshot, SpaceBreakdown,
};
use scavenger_env::EnvRef;
use scavenger_lsm::filename::{parse_path, FileKind};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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

/// Every file under the store's root, classified by name within the
/// member directory it sits in (a set's root-level files count as
/// other).
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

#[track_caller]
fn assert_ledger(env: &EnvRef, db: &Db, step: &str) {
    assert_eq!(db.stats().space, walked_space(env, db), "{step}: ledger");
}

/// Value-file numbers on disk in member `shard`'s directory.
fn value_files_on_disk(env: &EnvRef, db: &Db, shard: usize) -> BTreeSet<u64> {
    let dir = db.shard(shard).options().dir.clone();
    env.list_prefix(&format!("{dir}/"))
        .unwrap()
        .iter()
        .filter_map(|p| match parse_path(&dir, p) {
            Some((FileKind::ValueTable | FileKind::BlobLog, n)) => Some(n),
            _ => None,
        })
        .collect()
}

fn opts(env: EnvRef, dir: &str, mode: EngineMode, shards: usize) -> ShardedOptions {
    let mut o = Options::new(env, dir, mode);
    o.memtable_size = 8 * 1024;
    o.vsst_target_size = 32 * 1024;
    o.base_level_bytes = 64 * 1024;
    o.ksst_target_size = 16 * 1024;
    o.auto_gc = false;
    let mut so: ShardedOptions = o.into();
    so.num_shards = shards;
    so
}

/// A separated value that names its key and round.
fn value(key: usize, round: usize) -> Vec<u8> {
    let mut v = format!("key{key:03}@{round}:").into_bytes();
    v.resize(1500, (key + round) as u8);
    v
}

fn key(i: usize) -> String {
    format!("key{i:03}")
}

/// A read point of either kind: retirement treats them alike.
enum Pin {
    Snapshot(Snapshot),
    View(ReadView),
}

impl Pin {
    fn take(db: &Db, snapshot: bool) -> Pin {
        if snapshot {
            Pin::Snapshot(db.snapshot())
        } else {
            Pin::View(db.view())
        }
    }

    fn get(&self, key: &str) -> Option<Bytes> {
        match self {
            Pin::Snapshot(s) => s.get(key),
            Pin::View(v) => v.get(key),
        }
        .unwrap()
    }
}

const KEYS: usize = 60;

/// Overwrite keys `from..KEYS` with `round`, flush and compact.
fn overwrite(db: &Db, model: &mut BTreeMap<String, Vec<u8>>, from: usize, round: usize) {
    for i in from..KEYS {
        db.put(key(i), value(i, round)).unwrap();
        model.insert(key(i), value(i, round));
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
}

/// What a mode has retired: per member, the files that are registered
/// but will never be collected again — Titan's GC candidates that
/// outlived their job, BlobDB's exhausted files.
fn retired(db: &Db, titan_candidates: &[BTreeSet<u64>]) -> Vec<BTreeSet<u64>> {
    (0..db.num_shards())
        .map(|s| {
            let vstore = db.shard(s).value_store();
            vstore
                .all_files()
                .iter()
                .filter(|m| match db.mode() {
                    EngineMode::Titan => titan_candidates[s].contains(&m.file),
                    _ => m.is_exhausted(),
                })
                .map(|m| m.file)
                .collect()
        })
        .collect()
}

/// Titan and BlobDB × {snapshot, view} × {1, 4 shards}: a read point
/// taken before GC keeps reading its values while the files that held
/// them are retired; retired files count in `pinned_bytes`, are no GC
/// candidates, and are unlinked by the first maintenance after the read
/// point drops. The ledger equals a directory walk after every step.
#[test]
fn retired_files_wait_for_the_read_point_then_go() {
    let scratch = ScratchDir::new("retirement");
    let env = scratch.env();
    for mode in [EngineMode::Titan, EngineMode::BlobDb] {
        for snapshot in [true, false] {
            for shards in [1, 4] {
                let ctx = format!("{mode:?} snapshot={snapshot} x{shards}");
                let dir = format!("{mode:?}-{snapshot}-{shards}");
                let db = Db::open(opts(env.clone(), &dir, mode, shards)).unwrap();
                let mut model = BTreeMap::new();
                overwrite(&db, &mut model, 0, 0);
                // Keys 20.. move on, so the round-0 files are mostly
                // garbage but keep live records.
                overwrite(&db, &mut model, 20, 1);
                assert_ledger(&env, &db, &format!("{ctx}: load"));

                let pin = Pin::take(&db, snapshot);
                let pinned = model.clone();
                let mut titan_candidates = vec![BTreeSet::new(); shards];
                for round in 2..=13 {
                    overwrite(&db, &mut model, 20, round);
                    for (s, c) in titan_candidates.iter_mut().enumerate() {
                        c.extend(
                            db.shard(s)
                                .value_store()
                                .gc_candidates(0.2)
                                .iter()
                                .map(|m| m.file),
                        );
                    }
                    db.run_gc_until_clean().unwrap();
                    assert_ledger(&env, &db, &format!("{ctx}: round {round}"));
                }

                let held = retired(&db, &titan_candidates);
                assert!(held.iter().any(|f| !f.is_empty()), "{ctx}: nothing retired");
                for (k, v) in &pinned {
                    assert_eq!(pin.get(k).as_deref(), Some(v.as_slice()), "{ctx}: {k}");
                }
                let mut held_bytes = 0;
                for (s, files) in held.iter().enumerate() {
                    let vstore = db.shard(s).value_store();
                    held_bytes += files
                        .iter()
                        .map(|&f| vstore.meta(f).unwrap().size)
                        .sum::<u64>();
                    let candidates: BTreeSet<u64> =
                        vstore.gc_candidates(0.0).iter().map(|m| m.file).collect();
                    assert!(
                        candidates.is_disjoint(files),
                        "{ctx}: shard {s} lists retired files as GC candidates"
                    );
                    assert!(
                        files.is_subset(&value_files_on_disk(&env, &db, s)),
                        "{ctx}: shard {s} unlinked a file the read point holds"
                    );
                }
                assert_eq!(db.stats().pinned_bytes, held_bytes, "{ctx}: pinned bytes");

                drop(pin);
                // The first maintenance after the drop — here every
                // member's, after a flush — unlinks them.
                db.flush().unwrap();
                assert_eq!(db.stats().pinned_bytes, 0, "{ctx}: pinned after the drop");
                for (s, files) in held.iter().enumerate() {
                    let on_disk = value_files_on_disk(&env, &db, s);
                    for &f in files {
                        assert!(db.shard(s).value_store().meta(f).is_none(), "{ctx}: {f}");
                        assert!(!on_disk.contains(&f), "{ctx}: file {f} left on disk");
                    }
                }
                assert_ledger(&env, &db, &format!("{ctx}: reaped"));
                for (k, v) in &model {
                    assert_eq!(
                        db.get(k).unwrap().as_deref(),
                        Some(v.as_slice()),
                        "{ctx}: {k}"
                    );
                }
            }
        }
    }
}

/// The matrix under concurrency: 4 shards with flush and compaction on
/// background threads and paced GC after writes, while readers hold
/// views and snapshots across Titan GC and BlobDB compaction retiring
/// files under them. Every read through a pin returns its key's value
/// and the same bytes twice; once the readers are gone, nothing stays
/// pinned and the ledger equals a directory walk.
#[test]
#[ignore = "threaded; run with --include-ignored"]
fn retirement_under_background_work_and_concurrent_readers() {
    let scratch = ScratchDir::new("retirement-threaded");
    let env = scratch.env();
    for mode in [EngineMode::Titan, EngineMode::BlobDb] {
        let mut o = opts(env.clone(), &format!("{mode:?}"), mode, 4);
        o.base.inline_background = false;
        o.base.auto_gc = true;
        o.base.gc_threads = 2;
        let db = Db::open(o).unwrap();
        for i in 0..KEYS {
            db.put(key(i), value(i, 0)).unwrap();
        }
        db.flush().unwrap();
        std::thread::scope(|s| {
            for t in 0..2usize {
                let db = &db;
                s.spawn(move || {
                    for round in 1..=20 {
                        for i in (20 + t..KEYS).step_by(2) {
                            db.put(key(i), value(i, round)).unwrap();
                        }
                        if t == 0 {
                            db.flush().unwrap();
                            db.run_gc().unwrap();
                        }
                    }
                });
            }
            for r in 0..2usize {
                let db = &db;
                s.spawn(move || {
                    for n in 0..40 {
                        let pin = Pin::take(db, (r + n) % 2 == 0);
                        let first: Vec<Option<Bytes>> =
                            (0..KEYS).map(|i| pin.get(&key(i))).collect();
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        for (i, v) in first.iter().enumerate() {
                            let v = v
                                .as_ref()
                                .unwrap_or_else(|| panic!("{mode:?}: key {i} lost"));
                            assert!(v.starts_with(format!("key{i:03}@").as_bytes()), "{mode:?}");
                            assert_eq!(
                                pin.get(&key(i)).as_ref(),
                                Some(v),
                                "{mode:?}: key {i} moved"
                            );
                        }
                    }
                });
            }
        });
        db.flush().unwrap();
        db.compact_all().unwrap();
        db.run_gc_until_clean().unwrap();
        db.flush().unwrap();
        // Background compactions may still retire files: let the tree
        // settle, then reap once more.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while (db.stats().pinned_bytes > 0 || walked_space(&env, &db) != db.stats().space)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(20));
            db.flush().unwrap();
        }
        assert_eq!(
            db.stats().pinned_bytes,
            0,
            "{mode:?}: pinned with no reader"
        );
        assert_ledger(&env, &db, &format!("{mode:?}: settled"));
        for i in 0..KEYS {
            let v = db.get(key(i)).unwrap().unwrap();
            assert!(v.starts_with(format!("key{i:03}@").as_bytes()), "{mode:?}");
        }
    }
}
