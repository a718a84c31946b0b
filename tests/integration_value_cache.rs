//! Point reads of separated values through the block cache, in the four
//! separated modes (on `MemEnv`, counting `FgValueRead` ops):
//!
//! * a `get` reads its value once, then serves repeats from the cache;
//! * after GC (or BlobDB's relocation) moves a cached value, `get`
//!   returns the same bytes, read once from the file that holds it now;
//! * two stores on one caller-supplied cache, whose file numbers
//!   collide, each read their own values;
//! * a flipped byte in a stored value is reported as `Corruption` by
//!   `get`, a repeat `get` and `scan`, never served — and BlobDB's
//!   relocation does not copy it into a new blob file under a fresh CRC;
//! * (ignored, run by the multi-core CI job) gets against a tiny shared
//!   cache while a threaded GC retires value files return the model's
//!   bytes and never a dangling reference.

use scavenger::vstore::vtable::{parse_record_key, vfile_path, VReader};
use scavenger::{
    Bytes, Db, DbShards, EngineMode, Env, EnvRef, Error, IoClass, MemEnv, Options, Result,
    ShardedOptions, VFormat,
};
use scavenger_lsm::filename::{parse_path, FileKind};
use scavenger_lsm::LsmReadResult;
use scavenger_table::btable::BlockCache;
use scavenger_util::ikey::{ValueRef, ValueType};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SEPARATED: [EngineMode; 4] = [
    EngineMode::BlobDb,
    EngineMode::Titan,
    EngineMode::Terark,
    EngineMode::Scavenger,
];

/// Above a BTable's 4 KiB block: every Terark value has a data block of
/// its own, like a record or a blob value.
const VLEN: usize = 5000;
const N: usize = 40;

fn key(i: usize) -> Vec<u8> {
    format!("key{i:05}").into_bytes()
}

fn value(i: usize, version: u8) -> Vec<u8> {
    let mut v = vec![version; VLEN];
    v[..8].copy_from_slice(&(i as u64).to_le_bytes());
    v
}

fn opts(env: EnvRef, dir: &str, mode: EngineMode) -> Options {
    let mut o = Options::new(env, dir, mode);
    o.memtable_size = 64 << 20; // flush only when asked
    o.vsst_target_size = 8 << 20; // one value file per flush
    o.block_cache_bytes = 8 << 20;
    o.auto_gc = false;
    o
}

fn value_reads(db: &Db, f: impl FnOnce()) -> u64 {
    let before = db.options().env.io_stats().snapshot();
    f();
    let d = db.options().env.io_stats().snapshot().delta(&before);
    d.class(IoClass::FgValueRead).read_ops
}

/// Asserts `key(i)` reads `want`, costing `reads` value-file reads.
fn get_costs(db: &Db, i: usize, want: &[u8], reads: u64, what: &str) {
    let ops = value_reads(db, || {
        assert_eq!(db.get(key(i)).unwrap().unwrap(), want, "{what}: key {i}");
    });
    assert_eq!(ops, reads, "{what}: key {i}");
}

/// `N` keys in one value file; the even ones read once, which opens the
/// file's reader and caches its index, so an odd key's first get pays
/// for its own value alone.
fn store(env: Arc<MemEnv>, mode: EngineMode) -> Db {
    let db = Db::open(opts(env, "vc", mode)).unwrap();
    for i in 0..N {
        db.put(key(i), value(i, 1)).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.shard(0).value_store().all_files().len(), 1);
    for i in (0..N).step_by(2) {
        db.get(key(i)).unwrap().unwrap();
    }
    db
}

#[test]
fn a_repeat_get_reads_no_value() {
    for mode in SEPARATED {
        let db = store(MemEnv::shared(), mode);
        for i in (1..N).step_by(2) {
            get_costs(&db, i, &value(i, 1), 1, &format!("{mode:?} first get"));
            get_costs(&db, i, &value(i, 1), 0, &format!("{mode:?} repeat get"));
        }
    }
}

/// Overwrite a quarter of the keys until GC (BlobDB: compaction's
/// sampled relocation, then the reaping of the exhausted file on a later
/// write) has moved every survivor out of `file` and retired it.
fn move_out_of(db: &Db, mode: EngineMode, file: u64) {
    let vstore = db.shard(0).value_store();
    for round in 2..64u8 {
        if vstore.meta(file).is_none() {
            return;
        }
        for i in (0..N).filter(|i| i % 4 == 0) {
            db.put(key(i), value(i, round)).unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        db.run_gc_until_clean().unwrap();
    }
    panic!("{mode:?}: value file {file} was never retired");
}

#[test]
fn a_get_after_gc_reads_the_moved_value_from_its_new_file() {
    for mode in SEPARATED {
        let db = store(MemEnv::shared(), mode);
        let file = db.shard(0).value_store().all_files()[0].file;
        for i in 0..N {
            db.get(key(i)).unwrap().unwrap(); // every value cached
        }
        move_out_of(&db, mode, file);
        let survivors: Vec<usize> = (0..N).filter(|i| i % 4 != 0).collect();
        // One get opens the reader of the file that holds the survivors
        // now and caches its index; every other survivor then costs
        // exactly its own value's read, once.
        let (first, rest) = survivors.split_first().unwrap();
        db.get(key(*first)).unwrap().unwrap();
        for &i in rest {
            get_costs(&db, i, &value(i, 1), 1, &format!("{mode:?} moved"));
            get_costs(&db, i, &value(i, 1), 0, &format!("{mode:?} moved, repeat"));
        }
    }
}

/// Two plain stores opened on one caller-supplied cache number their
/// files alike — both count from 1 — so only the namespace each store
/// takes on a shared cache keeps their cached blocks apart. Under the
/// same keys, same-sized values and the same operations, every `get` and
/// `scan` of either store returns its own values: after a flush, and
/// after overwrites, compaction and GC have moved them.
#[test]
fn two_stores_on_one_cache_read_their_own_values() {
    for mode in SEPARATED {
        let env = MemEnv::shared();
        let cache = Arc::new(BlockCache::with_capacity(8 << 20));
        let stores: Vec<(Db, u8)> = [("a", 1), ("b", 101)]
            .into_iter()
            .map(|(dir, tag)| {
                let mut o = opts(env.clone(), dir, mode);
                o.block_cache = Some(cache.clone());
                (Db::open(o).unwrap(), tag)
            })
            .collect();
        // Keys `i % 4 == 0` hold their store's `tag + round`, the rest `tag`.
        let check = |round: u8| {
            let files: Vec<Vec<u64>> = stores
                .iter()
                .map(|(db, _)| db.shard(0).value_store().live_file_numbers())
                .collect();
            assert_eq!(
                files[0], files[1],
                "{mode:?} round {round}: the numbers collide"
            );
            for (db, tag) in &stores {
                let want = |i: usize| value(i, tag + if i.is_multiple_of(4) { round } else { 0 });
                for i in 0..N {
                    let got = db.get(key(i)).unwrap().unwrap();
                    assert_eq!(got, want(i), "{mode:?} round {round}: store {tag} get {i}");
                }
                let rows: Vec<_> = db.scan(b"", None).unwrap().map(|r| r.unwrap()).collect();
                assert_eq!(rows.len(), N, "{mode:?} round {round}: store {tag}");
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(
                        row.value,
                        want(i),
                        "{mode:?} round {round}: store {tag} scan {i}"
                    );
                }
            }
        };
        for (db, tag) in &stores {
            for i in 0..N {
                db.put(key(i), value(i, *tag)).unwrap();
            }
            db.flush().unwrap();
        }
        check(0);
        // Overwrite rounds until GC has moved values in both stores
        // (BlobDB: until compaction has relocated some).
        for round in 1..=8 {
            for (db, tag) in &stores {
                for i in (0..N).filter(|i| i % 4 == 0) {
                    db.put(key(i), value(i, tag + round)).unwrap();
                }
                db.flush().unwrap();
                db.compact_all().unwrap();
                db.run_gc_until_clean().unwrap();
            }
            check(round);
            let moved = |db: &Db| match mode {
                EngineMode::BlobDb => db.stats().compactions > 0,
                _ => db.stats().gc.runs > 0,
            };
            if stores.iter().all(|(db, _)| moved(db)) {
                break;
            }
            assert!(round < 8, "{mode:?}: no value moved");
        }
    }
}

/// Flip one byte inside `key(i)`'s stored value. A blob reference names
/// the value's first byte, an RTable's its record and a BTable's its
/// block: 100 bytes on is inside the value in every format.
fn flip_value_byte(db: &Db, env: &MemEnv, i: usize) {
    let LsmReadResult::Found {
        vtype: ValueType::ValueRef,
        value,
        ..
    } = db.shard(0).lsm().get(&key(i)).unwrap()
    else {
        panic!("key {i} is separated");
    };
    let vref = ValueRef::decode(&value).unwrap();
    let format = db.shard(0).value_store().meta(vref.file).unwrap().format;
    let path = vfile_path("vc", vref.file, format);
    env.corrupt_byte(&path, vref.offset + 100).unwrap();
}

fn is_corruption<T>(got: &Result<T>) -> bool {
    matches!(got, Err(Error::Corruption(_)))
}

/// What a read returned, short enough for an assertion message.
fn summary(got: &Result<Option<Bytes>>) -> String {
    match got {
        Ok(v) => format!("Ok({:?} bytes)", v.as_ref().map(|b| b.len())),
        Err(e) => format!("Err({e})"),
    }
}

/// A flipped value byte is `Corruption` to every foreground read of its
/// key — a `get`, a repeat of it, a scan over it — while every other
/// key still reads.
#[test]
fn a_flipped_value_byte_is_reported_not_served() {
    const BAD: usize = 5; // odd: `store` left it out of the cache
    for mode in SEPARATED {
        let env = MemEnv::shared();
        let db = store(env.clone(), mode);
        flip_value_byte(&db, &env, BAD);
        let got = db.get(key(BAD));
        assert!(is_corruption(&got), "{mode:?} get: {}", summary(&got));
        // The failed read cached nothing: a repeat fails the same way.
        let got = db.get(key(BAD));
        assert!(
            is_corruption(&got),
            "{mode:?} repeat get: {}",
            summary(&got)
        );
        let scanned = db
            .scan(b"", None)
            .and_then(|it| it.collect::<Result<Vec<_>>>());
        assert!(
            is_corruption(&scanned),
            "{mode:?} scan: {}",
            match &scanned {
                Ok(rows) => format!("Ok({} rows)", rows.len()),
                Err(e) => format!("Err({e})"),
            }
        );
        for i in (0..N).filter(|&i| i != BAD) {
            assert_eq!(db.get(key(i)).unwrap().unwrap(), value(i, 1), "{mode:?}");
        }
    }
}

/// BlobDB relocates sampled values of its oldest blob file inside
/// compaction. The compaction that reaches a corrupt record fails with
/// `Corruption`, and no blob file on disk — registered or left behind
/// by the failed job — holds a copy of that record.
#[test]
fn blobdb_relocation_does_not_copy_a_corrupt_record() {
    const BAD: usize = 5;
    let env = MemEnv::shared();
    let db = store(env.clone(), EngineMode::BlobDb);
    let file = db.shard(0).value_store().all_files()[0].file;
    flip_value_byte(&db, &env, BAD);
    // Overwrite other keys until a compaction samples the bad one.
    let err = (2..64u8)
        .find_map(|round| {
            for i in (0..N).filter(|i| i % 4 == 0) {
                db.put(key(i), value(i, round)).unwrap();
            }
            db.flush().and_then(|()| db.compact_all()).err()
        })
        .expect("a compaction relocates the corrupt record");
    assert!(matches!(err, Error::Corruption(_)), "{err}");
    let got = db.get(key(BAD));
    assert!(
        is_corruption(&got),
        "get after relocation: {}",
        summary(&got)
    );
    let eref: EnvRef = env.clone();
    for path in env.list_prefix("vc/").unwrap() {
        let Some((FileKind::BlobLog, n)) = parse_path("vc", &path) else {
            continue;
        };
        if n == file {
            continue;
        }
        let recs = VReader::scan_file(&eref, "vc", n, VFormat::BlobLog, None, IoClass::GcRead);
        for rec in recs.unwrap() {
            let (ukey, _) = parse_record_key(&rec.ikey).unwrap();
            assert_ne!(
                ukey,
                key(BAD),
                "blob file {n} holds a copy of the corrupt record"
            );
        }
    }
}

/// Threaded background work: a writer keeps overwriting the even keys
/// while auto-GC retires value files; concurrent readers `get` every key
/// through a block cache a seventh the size of the data, shared by two
/// shards. An odd key must always read its one loaded value, an even key
/// some whole version of its own — never a dangling reference. Needs
/// real parallelism to mean anything, so CI runs it on the multi-core job
/// (`-- --include-ignored`).
#[test]
#[ignore = "threaded get-under-GC stress; run with --include-ignored on a multi-core box"]
fn gets_through_a_tiny_cache_survive_concurrent_gc() {
    const KEYS: usize = 400;
    let fill = |i: usize, version: usize| {
        let mut v = vec![(version % 251) as u8; 700 + (i * 13) % 900];
        v[..8].copy_from_slice(&(i as u64).to_le_bytes());
        v
    };
    for mode in [EngineMode::Scavenger, EngineMode::Titan] {
        let env: EnvRef = MemEnv::shared();
        let mut o = ShardedOptions::new(env.clone(), "stress", mode);
        o.base = opts(env, "stress", mode);
        o.base.memtable_size = 16 * 1024;
        o.base.vsst_target_size = 32 * 1024;
        o.base.base_level_bytes = 64 * 1024;
        o.base.ksst_target_size = 16 * 1024;
        o.base.inline_background = false;
        o.base.auto_gc = true;
        let cache = Arc::new(BlockCache::with_capacity(64 * 1024));
        o.base.block_cache = Some(cache.clone());
        o.num_shards = 2;
        let db = DbShards::open(o).unwrap();
        for i in 0..KEYS {
            db.put(key(i), fill(i, 0)).unwrap();
        }
        db.flush().unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (db, stop) = (db.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut version = 1;
                while !stop.load(Ordering::SeqCst) {
                    for i in (0..KEYS).step_by(2) {
                        db.put(key(i), fill(i, version)).unwrap();
                    }
                    version += 1;
                }
                version
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for round in 0..100 {
                        for i in (0..KEYS).map(|i| (i * 7 + round * 31 + t * 101) % KEYS) {
                            let got = db
                                .get(key(i))
                                .unwrap_or_else(|e| panic!("{mode:?}: key {i}: {e}"))
                                .expect("every key stays present");
                            if i % 2 == 1 {
                                assert_eq!(got, fill(i, 0), "{mode:?}: key {i}");
                            } else {
                                assert_eq!(got[..8], (i as u64).to_le_bytes(), "{mode:?}: key {i}");
                                let body = &got[8..];
                                assert!(body.iter().all(|&b| b == body[0]), "{mode:?}: key {i}");
                            }
                        }
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().expect("reader");
        }
        stop.store(true, Ordering::SeqCst);
        let versions = writer.join().expect("writer");
        assert!(
            versions > 2,
            "{mode:?}: the writer must have lapped its keys"
        );
        assert!(
            db.stats().gc.files_collected > 0,
            "{mode:?}: GC must have retired files under the gets"
        );
        assert!(cache.stats().0 > 0, "{mode:?}: some gets must have hit");
    }
}
