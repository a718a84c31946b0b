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
//! * a Scavenger cache whose high pool holds its KF stream keeps that
//!   stream under inline and separated gets: each costs exactly its KV
//!   block or its record;
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
        let recs = VReader::scan_file(&eref, "vc", n, VFormat::BlobLog, IoClass::GcRead);
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

/// The cache holds live files only. Gets read every file through the
/// cache, then flush, compaction and GC delete some of those files;
/// after each round no resident entry names a key SST outside the live
/// version or a value file outside the value store.
#[test]
fn no_cached_block_outlives_its_file() {
    for mode in SEPARATED {
        let db = Db::open(opts(MemEnv::shared(), "vc", mode)).unwrap();
        let shard = db.shard(0);
        let mut seen = std::collections::BTreeSet::new();
        let mut dead = 0;
        for round in 1..=8u8 {
            for i in (0..N).filter(|i| round == 1 || i % 4 == 0) {
                db.put(key(i), value(i, round)).unwrap();
            }
            db.flush().unwrap();
            for i in 0..N {
                db.get(key(i)).unwrap().unwrap();
            }
            let cached = shard.cached_files();
            db.compact_all().unwrap();
            db.run_gc_until_clean().unwrap();
            let mut live = shard.value_store().live_file_numbers();
            let version = shard.lsm().current_version();
            live.extend(version.levels.iter().flatten().map(|f| f.file_number));
            seen.extend(cached);
            dead = seen.iter().filter(|f| !live.contains(f)).count();
            let stale: Vec<u64> = shard
                .cached_files()
                .into_iter()
                .filter(|f| !live.contains(f))
                .collect();
            assert!(
                stale.is_empty(),
                "{mode:?} round {round}: deleted files {stale:?} still cached"
            );
        }
        assert!(dead > 0, "{mode:?}: no cached file was deleted");
    }
}

/// Splitmix64: the deterministic stream the aged store below draws from.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A store aged as the benchmark's read set-up ages one — a load, then
/// one skewed overwrite pass while GC runs, then a flush — with a cache
/// larger than its live data: after a first read of every key, a second
/// reads no value. Each deleted file's blocks leave the cache with it;
/// kept, their high-priority blocks crowded 34 values out.
#[test]
fn an_aged_store_whose_cache_fits_its_live_data_reads_each_value_once() {
    const KEYS: u64 = 4096;
    let size = |id: u64, version: u64| 100 + (mix(id ^ (version << 32)) % 1900) as usize;
    let val = |id: u64, version: u64| {
        let mut v = vec![version as u8; size(id, version)];
        v[..8].copy_from_slice(&id.to_le_bytes());
        v
    };
    let live: u64 = (0..KEYS).map(|id| size(id, 1) as u64).sum();
    let env = MemEnv::shared();
    let mut o = Options::new(env, "aged", EngineMode::Scavenger);
    o.memtable_size = 256 << 10;
    o.ksst_target_size = 128 << 10;
    o.vsst_target_size = 512 << 10;
    o.base_level_bytes = live / 32;
    // 1.2x the live values: room for them and the index blocks that
    // find them, none for the index blocks of deleted files.
    o.block_cache = Some(Arc::new(BlockCache::with_capacity((live * 6 / 5) as usize)));
    let db = Db::open(o).unwrap();
    let mut versions = vec![1u64; KEYS as usize];
    for id in 0..KEYS {
        db.put(key(id as usize), val(id, 1)).unwrap();
    }
    for n in 0..KEYS {
        // Skewed toward low ids: a square of a uniform draw.
        let u = mix(n ^ 0xa9ed) % KEYS;
        let id = u * u / KEYS;
        versions[id as usize] += 1;
        db.put(key(id as usize), val(id, versions[id as usize]))
            .unwrap();
    }
    db.flush().unwrap();
    let pass = || {
        value_reads(&db, || {
            for id in 0..KEYS {
                let got = db.get(key(id as usize)).unwrap().unwrap();
                assert_eq!(got, val(id, versions[id as usize]), "key {id}");
            }
        })
    };
    let first = pass();
    assert!(first > 0);
    assert_eq!(pass(), 0, "the second pass (the first read {first} values)");
}

/// A Scavenger store on a one-shard cache whose high pool holds its KF
/// stream, with a few blocks to spare, but not its values: after a warm
/// pass every separated `get` reads its record and nothing else, and
/// every inline `get` its KV block and nothing else. The store is
/// reopened on a fresh cache, so a `get` reads each KF block into the
/// high pool; inline KV blocks (`Low`) and records (`Bottom`) churn
/// through the low list and never evict one. Cut into 16 shards, the
/// same cache gives each a high pool of about one block, and the KF
/// blocks a shard cannot hold there are evicted by the values. Inline
/// keys sort before separated ones, so a get's search of the other
/// stream ends at that stream's index (a bloom false positive included).
#[test]
fn a_cache_whose_high_pool_fits_the_kf_stream_keeps_it_under_inline_and_separated_gets() {
    const PAIRS: usize = 4000;
    const INLINE_LEN: usize = 400;
    const SEPARATED_LEN: usize = 1000;
    let inline = |i: usize| format!("a{i:05}").into_bytes();
    let separated = |i: usize| format!("b{i:05}").into_bytes();
    let val = |i: usize, len: usize| {
        let mut v = vec![(i % 251) as u8; len];
        v[..8].copy_from_slice(&(i as u64).to_le_bytes());
        v
    };
    let open = |env: EnvRef, cache: usize, threads: usize| {
        let mut o = Options::new(env, "kf", EngineMode::Scavenger);
        o.memtable_size = 64 << 20; // flush only when asked
        o.vsst_target_size = 8 << 20; // one value file per flush
        o.ksst_target_size = 8 << 20; // and one key SST
        o.auto_gc = false;
        o.gc_threads = threads;
        let blocks = Arc::new(BlockCache::with_capacity(cache));
        o.block_cache = Some(blocks.clone());
        (Db::open(o).unwrap(), blocks)
    };
    let reads = |db: &Db, f: &dyn Fn()| {
        let before = db.options().env.io_stats().snapshot();
        f();
        let d = db.options().env.io_stats().snapshot().delta(&before);
        let ops = |class| d.class(class).read_ops;
        (ops(IoClass::FgIndexRead), ops(IoClass::FgValueRead))
    };
    for threads in [1, 4] {
        let env: EnvRef = MemEnv::shared();
        // Written through an 8 MiB cache, which the new DTable's KF
        // stream is born into: its size.
        let (db, blocks) = open(env.clone(), 8 << 20, threads);
        for i in 0..PAIRS {
            db.put(inline(i), val(i, INLINE_LEN)).unwrap();
            db.put(separated(i), val(i, SEPARATED_LEN)).unwrap();
        }
        db.flush().unwrap();
        let kf_bytes = blocks.usage();
        assert!(kf_bytes > 10 * 4096, "{kf_bytes} bytes of KF blocks");
        drop(db);

        // A high pool of the KF stream and two 4 KiB blocks; the values
        // take ≈ 5.6 MB.
        let (db, blocks) = open(env, 2 * kf_bytes + (16 << 10), threads);
        assert_eq!(blocks.usage(), 0, "{threads} threads: a fresh cache");
        // Warm: the even separated keys, which reach every KF block.
        for i in (0..PAIRS).step_by(2) {
            assert_eq!(
                db.get(separated(i)).unwrap().unwrap(),
                val(i, SEPARATED_LEN)
            );
        }
        // Interleaved: an odd separated key, never read before, then an
        // inline key from a KV block never read before (a block holds
        // about ten values, never twenty).
        for n in 0..PAIRS / 40 {
            let i = 40 * n + 1;
            let got = reads(&db, &|| {
                let v = db.get(separated(i)).unwrap().unwrap();
                assert_eq!(v, val(i, SEPARATED_LEN), "separated key {i}");
            });
            assert_eq!(got, (0, 1), "{threads} threads, get {n}: separated key {i}");
            let j = 20 * n;
            let got = reads(&db, &|| {
                let v = db.get(inline(j)).unwrap().unwrap();
                assert_eq!(v, val(j, INLINE_LEN), "inline key {j}");
            });
            assert_eq!(got, (1, 0), "{threads} threads, get {n}: inline key {j}");
        }
    }
}

/// A compaction's born KF blocks enter a cache the inputs' blocks have
/// already left: after one flush into 7 key SSTs and the compaction that
/// rewrites them into 7, a cache with room for the outputs' KF stream and
/// 16 KiB more — not for the inputs' too — holds every born block, as an
/// 8 MiB cache does.
#[test]
fn a_compactions_born_kf_blocks_fit_a_cache_sized_for_them() {
    let resident = |capacity: usize| {
        let cache = Arc::new(BlockCache::with_capacity(capacity));
        let mut o = opts(MemEnv::shared(), "kf", EngineMode::Scavenger);
        o.ksst_target_size = 80 << 10;
        o.block_cache = Some(cache.clone());
        let db = Db::open(o).unwrap();
        for i in 0..8000 {
            let len = if i % 2 == 0 { 100 } else { 600 };
            db.put(key(i), vec![i as u8; len]).unwrap();
        }
        db.flush().unwrap();
        let flushed = db.shard(0).lsm().current_version().total_files();
        db.compact_all().unwrap();
        let version = db.shard(0).lsm().current_version();
        (flushed, version.total_files(), cache.usage())
    };
    let (flushed, outputs, kf) = resident(8 << 20);
    assert_eq!((flushed, outputs), (7, 7), "one flush and its compaction");
    assert!(kf > 16 << 10, "{kf} KF bytes");
    assert_eq!(resident(kf + (16 << 10)), (7, 7, kf));
}
