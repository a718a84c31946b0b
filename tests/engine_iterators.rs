//! `Iterator` conformance for the engine scan iterator ([`DbScanIter`],
//! on a plain store and as the k-way merge of a sharded one): bound
//! handling through the adapter toolbox, early termination via `take`,
//! error propagation (an errored iterator yields `Some(Err)` once, then
//! fuses to `None`), and `collect_n` / `next_entry` equivalence with the
//! `Iterator` impl at both store sizes.

use scavenger::{
    Db, DbScanIter, DbShards, EngineMode, EnvRef, MemEnv, Options, Result, ScanEntry,
    ShardedOptions,
};
use scavenger_env::{FaultEnv, FaultOp, FaultRule};
use std::sync::Arc;

fn key(i: usize) -> String {
    format!("key{i:04}")
}

fn value(i: usize, len: usize) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; len];
    v[0] = (i >> 8) as u8;
    v
}

fn small_options(env: EnvRef, dir: &str) -> Options {
    let mut o = Options::new(env, dir, EngineMode::Scavenger);
    o.memtable_size = 8 * 1024;
    o.vsst_target_size = 32 * 1024;
    o.auto_gc = false;
    o
}

fn single(env: EnvRef, dir: &str) -> Db {
    Db::open(small_options(env, dir)).unwrap()
}

fn sharded(env: EnvRef, dir: &str) -> DbShards {
    let mut o = ShardedOptions::new(env.clone(), dir, EngineMode::Scavenger);
    o.base = small_options(env, dir);
    o.num_shards = 3;
    DbShards::open(o).unwrap()
}

fn load(db: &Db, n: usize) {
    for i in 0..n {
        db.put(key(i), value(i, 1024)).unwrap();
    }
    db.flush().unwrap();
}

/// At any store size: iterator results honor scan bounds, agree with
/// `collect_n` and `next_entry`, and `take` terminates early without
/// draining the range.
fn check_iterator_contract(db: &Db) {
    load(db, 60);

    // Bounds: lower inclusive, upper exclusive, in global key order.
    let bounded: Vec<ScanEntry> = db
        .scan(b"key0010", Some(b"key0020"))
        .unwrap()
        .collect::<Result<_>>()
        .unwrap();
    assert_eq!(bounded.len(), 10);
    assert_eq!(bounded[0].key, key(10).into_bytes());
    assert_eq!(bounded[9].key, key(19).into_bytes());
    assert!(bounded.windows(2).all(|w| w[0].key < w[1].key));

    // Empty and inverted ranges yield nothing.
    assert_eq!(db.scan(b"key0030", Some(b"key0030")).unwrap().count(), 0);
    assert_eq!(db.scan(b"key0040", Some(b"key0030")).unwrap().count(), 0);

    // Early termination via `take`: exactly 3 entries, no further pull.
    let taken: Vec<ScanEntry> = db
        .scan(b"", None)
        .unwrap()
        .take(3)
        .collect::<Result<_>>()
        .unwrap();
    assert_eq!(
        taken.iter().map(|e| e.key.clone()).collect::<Vec<_>>(),
        vec![
            key(0).into_bytes(),
            key(1).into_bytes(),
            key(2).into_bytes()
        ]
    );

    // `by_ref().take` composes: the same iterator continues afterwards.
    let mut it = db.scan(b"", None).unwrap();
    let first: Vec<ScanEntry> = it.by_ref().take(2).collect::<Result<_>>().unwrap();
    let next = it.next().unwrap().unwrap();
    assert_eq!(first.len(), 2);
    assert_eq!(next.key, key(2).into_bytes());

    // collect_n is equivalent to take+collect on a fresh iterator.
    let via_collect_n = db.scan(b"", None).unwrap().collect_n(7).unwrap();
    let via_take: Vec<ScanEntry> = db
        .scan(b"", None)
        .unwrap()
        .take(7)
        .collect::<Result<_>>()
        .unwrap();
    assert_eq!(via_collect_n, via_take);

    // collect_n after a partial `next()` continues where it left off,
    // collect_n(0) consumes nothing, and past the end it returns the
    // remainder, then nothing.
    let all: Vec<ScanEntry> = db.scan(b"", None).unwrap().collect::<Result<_>>().unwrap();
    assert_eq!(all.len(), 60);
    let mut it = db.scan(b"", None).unwrap();
    let mut got = vec![it.next().unwrap().unwrap(), it.next().unwrap().unwrap()];
    assert!(it.collect_n(0).unwrap().is_empty());
    got.extend(it.collect_n(20).unwrap());
    got.push(it.next().unwrap().unwrap());
    got.extend(it.collect_n(1000).unwrap());
    assert_eq!(got, all);
    assert!(it.collect_n(5).unwrap().is_empty());
    assert!(it.next().is_none());

    // next_entry is a thin wrapper over Iterator::next.
    let mut a: DbScanIter = db.scan(b"key0005", Some(b"key0008")).unwrap();
    let mut b = db.scan(b"key0005", Some(b"key0008")).unwrap();
    loop {
        let ea = a.next_entry().unwrap();
        let eb = b.next().transpose().unwrap();
        assert_eq!(ea, eb);
        if ea.is_none() {
            break;
        }
    }
    // Exhausted iterators stay exhausted through both surfaces.
    assert!(a.next_entry().unwrap().is_none());
    assert!(b.next().is_none());
}

#[test]
fn iterator_contract_on_db() {
    check_iterator_contract(&single(MemEnv::shared(), "iter-db"));
}

#[test]
fn iterator_contract_on_db_shards() {
    check_iterator_contract(&sharded(MemEnv::shared(), "iter-shards"));
}

/// A `MemEnv` behind a [`FaultEnv`], and the store's env on it.
fn faulty() -> (Arc<FaultEnv>, EnvRef) {
    let fault = FaultEnv::wrap(MemEnv::shared(), 0x17e2);
    let env: EnvRef = fault.clone();
    (fault, env)
}

/// Fail every read of `files` from now on, behind the engine's back —
/// the readers the store built as it wrote them included — so the first
/// separated-value resolve that reads one fails.
fn fail_reads_of(fault: &FaultEnv, files: &[String]) {
    assert!(!files.is_empty(), "setup must have created value files");
    for f in files {
        fault.add_rule(FaultRule {
            path_contains: Some(f.clone()),
            ..FaultRule::fail(FaultOp::Read)
        });
    }
}

/// The value files under `root`.
fn value_files(env: &EnvRef, root: &str) -> Vec<String> {
    let files = env.list_prefix(&format!("{root}/")).unwrap();
    files
        .into_iter()
        .filter(|f| f.ends_with(".vsst") || f.ends_with(".blob"))
        .collect()
}

#[test]
fn errored_db_iterator_yields_err_then_fuses() {
    let (fault, env) = faulty();
    let db = single(env.clone(), "iter-err-db");
    // Written and flushed, then every value-file read fails: the scan's
    // first resolve must surface the error.
    load(&db, 20);
    fail_reads_of(&fault, &value_files(&env, "iter-err-db"));

    let mut it = db.scan(b"", None).unwrap();
    let first = it.next();
    assert!(
        matches!(first, Some(Err(_))),
        "first pull must surface the resolve error, got {first:?}"
    );
    assert!(it.next().is_none(), "errored iterator must fuse");
    assert!(it.next().is_none(), "fused means fused");
    // The wrappers see the same fused state.
    assert!(it.next_entry().unwrap().is_none());
    assert!(it.collect_n(10).unwrap().is_empty());

    // A fresh iterator errors again through next_entry/collect_n too.
    assert!(db.scan(b"", None).unwrap().next_entry().is_err());
    assert!(db.scan(b"", None).unwrap().collect_n(5).is_err());
}

/// Value look-ahead never resolves past what the caller asked for.
/// Rows 0..10 live in intact value files; every read of a file behind
/// rows 10.. fails. `collect_n(10)` and ten `next()`s must not notice; the
/// error waits for row 10, and the rows before it in the failing batch
/// are still delivered.
#[test]
fn lookahead_never_resolves_past_the_requested_rows() {
    let (fault, env) = faulty();
    let db = single(env.clone(), "iter-lookahead");
    load(&db, 10);
    let intact = value_files(&env, "iter-lookahead");
    for i in 10..40 {
        db.put(key(i).as_bytes(), value(i, 1024)).unwrap();
    }
    db.flush().unwrap();
    let mut broken = value_files(&env, "iter-lookahead");
    broken.retain(|f| !intact.contains(f));
    fail_reads_of(&fault, &broken);

    let ten = db.scan(b"", None).unwrap().collect_n(10).unwrap();
    assert_eq!(ten.len(), 10);
    assert_eq!(ten[9].key, key(9).into_bytes());
    assert!(db.scan(b"", None).unwrap().collect_n(11).is_err());

    // The ramp's fourth batch (rows 7..15) straddles the boundary: rows
    // 7, 8, 9 come out, then the error, then nothing.
    let mut it = db.scan(b"", None).unwrap();
    for i in 0..10 {
        assert_eq!(it.next().unwrap().unwrap().key, key(i).into_bytes());
    }
    assert!(matches!(it.next(), Some(Err(_))));
    assert!(it.next().is_none());
    assert!(it.collect_n(3).unwrap().is_empty());

    // A collect_n that stops short of the bad rows leaves the iterator
    // usable up to them.
    let mut it = db.scan(b"", None).unwrap();
    assert_eq!(it.collect_n(4).unwrap().len(), 4);
    assert_eq!(it.collect_n(6).unwrap().len(), 6);
    assert!(it.collect_n(1).is_err());
    assert!(it.next().is_none());
}

/// A refill failure after a head has been popped must not drop the
/// popped (already-resolved) entry: the merge delivers it first and
/// surfaces the error on the next pull — same behavior as a single
/// `Db`, which yields every resolved entry before the error.
#[test]
fn merge_refill_error_does_not_drop_resolved_entry() {
    let (fault, env) = faulty();
    let db = sharded(env.clone(), "iter-err-refill");

    // One shard is the "broken" one: its first entry in key order is a
    // small (inline, never fails) value that sorts before everything
    // else globally, followed by separated values whose files fail
    // every read. All other shards hold only inline values.
    let broken = db.shard_of("z-000");
    let afirst = (0..1000)
        .map(|i| format!("a-{i:03}"))
        .find(|k| db.shard_of(k) == broken)
        .unwrap();
    let zkeys: Vec<String> = (0..1000)
        .map(|i| format!("z-{i:03}"))
        .filter(|k| db.shard_of(k) == broken)
        .take(3)
        .collect();
    let fillers: Vec<String> = (0..1000)
        .map(|i| format!("m-{i:03}"))
        .filter(|k| db.shard_of(k) != broken)
        .take(5)
        .collect();
    db.put(afirst.as_bytes(), b"inline".to_vec()).unwrap();
    for (n, z) in zkeys.iter().enumerate() {
        db.put(z.as_bytes(), value(n, 2048)).unwrap();
    }
    for f in &fillers {
        db.put(f.as_bytes(), b"inline-too".to_vec()).unwrap();
    }
    db.flush().unwrap();
    let root = format!("iter-err-refill/shard-{broken:03}");
    fail_reads_of(&fault, &value_files(&env, &root));

    // Priming succeeds (the broken shard's head is the inline `afirst`).
    let mut it = db.scan(b"", None).unwrap();
    // The popped entry survives the failed refill behind it...
    let first = it.next().unwrap().unwrap();
    assert_eq!(
        first.key,
        afirst.clone().into_bytes(),
        "resolved entry was dropped"
    );
    // ...then the deferred refill error surfaces, and the iterator fuses.
    assert!(matches!(it.next(), Some(Err(_))));
    assert!(it.next().is_none());
    assert!(it.next_entry().unwrap().is_none());
}

#[test]
fn errored_shards_iterator_yields_err_then_fuses() {
    let (fault, env) = faulty();
    let db = sharded(env.clone(), "iter-err-shards");
    load(&db, 30);
    fail_reads_of(&fault, &value_files(&env, "iter-err-shards"));

    // The merge iterator primes one head per shard on its first pull,
    // so with every shard broken the error surfaces there (an error at
    // `scan` would satisfy the contract too); if an iterator was handed
    // out, it must fuse after its first error.
    match db.scan(b"", None) {
        Err(_) => {}
        Ok(mut it) => {
            assert!(matches!(it.next(), Some(Err(_))));
            assert!(it.next().is_none(), "errored merge iterator must fuse");
            assert!(it.next_entry().unwrap().is_none());
        }
    }
}

/// A corrupt block in the newest key SST stops a scan with
/// `Error::Corruption`; it never lets the older versions the block was
/// shadowing through. Two thousand keys live in a deeper level; all of
/// them are rewritten into one newer L0 file, and a byte a third of the
/// way into that file is flipped. Every row a scan yields before the
/// error must be a new version, through `collect_n` and `Iterator` alike,
/// in every engine mode.
#[test]
fn corrupt_newer_block_mid_scan_fails_instead_of_serving_older_versions() {
    const KEYS: usize = 2000;
    const VLEN: usize = 24; // inline in every mode
    for mode in EngineMode::ALL {
        let mem = MemEnv::shared();
        let env: EnvRef = mem.clone();
        let mut o = Options::new(env.clone(), "iter-corrupt", mode);
        o.memtable_size = 4 << 20;
        o.ksst_target_size = 4 << 20;
        o.auto_gc = false;
        let old = |i: usize| value(i, VLEN);
        let new = |i: usize| {
            let mut v = value(i, VLEN);
            v[VLEN - 1] ^= 0xff;
            v
        };
        let path = {
            let db = Db::open(o.clone()).unwrap();
            for i in 0..KEYS {
                db.put(key(i), old(i)).unwrap();
            }
            db.flush().unwrap();
            while db.shard(0).lsm().force_compact_once().unwrap() {}
            for i in 0..KEYS {
                db.put(key(i), new(i)).unwrap();
            }
            db.flush().unwrap();
            let version = db.shard(0).lsm().current_version();
            assert_eq!(version.levels[0].len(), 1, "{mode:?}: one newer L0 file");
            let f = &version.levels[0][0];
            assert!(
                version.levels[1..].iter().flatten().count() > 0,
                "{mode:?}: the old versions sit below it"
            );
            let path = scavenger_lsm::filename::table_path("iter-corrupt", f.file_number);
            mem.corrupt_byte(&path, f.file_size / 3).unwrap();
            path
        };
        // Reopened: no cached block hides the flip.
        let db = Db::open(o).unwrap();
        let is_new = |e: &ScanEntry| {
            let i: usize = std::str::from_utf8(&e.key[3..]).unwrap().parse().unwrap();
            e.value[..] == new(i)[..]
        };

        match db.scan(b"", None).unwrap().collect_n(KEYS) {
            Err(err) => assert!(
                matches!(err, scavenger::Error::Corruption(_)),
                "{mode:?}: {err}"
            ),
            Ok(rows) => panic!(
                "{mode:?}: collect_n returned {} rows, {} of them stale",
                rows.len(),
                rows.iter().filter(|e| !is_new(e)).count()
            ),
        }

        let mut rows = 0;
        let mut failed = None;
        for item in db.scan(b"", None).unwrap() {
            match item {
                Ok(e) => {
                    assert!(is_new(&e), "{mode:?}: stale row {:?}", e.key);
                    rows += 1;
                }
                Err(e) => failed = Some(e),
            }
        }
        assert!(
            matches!(failed, Some(scavenger::Error::Corruption(_))),
            "{mode:?}: {path} scanned to the end ({rows} rows) without the error: {failed:?}"
        );
        assert!(rows < KEYS, "{mode:?}: the error must stop the scan");
    }
}

/// A corrupt block inside one file of a sorted level stops a scan with
/// `Error::Corruption`; the level's iterator does not move on to the
/// next file as if the broken one had ended.
#[test]
fn corrupt_block_in_a_level_fails_the_scan_instead_of_skipping_the_file() {
    const KEYS: usize = 2000;
    for mode in EngineMode::ALL {
        let mem = MemEnv::shared();
        let env: EnvRef = mem.clone();
        let mut o = Options::new(env.clone(), "iter-level", mode);
        o.memtable_size = 4 << 20;
        o.ksst_target_size = 16 * 1024;
        o.auto_gc = false;
        {
            let db = Db::open(o.clone()).unwrap();
            for i in 0..KEYS {
                db.put(key(i), value(i, 24)).unwrap();
            }
            db.flush().unwrap();
            while db.shard(0).lsm().force_compact_once().unwrap() {}
            let version = db.shard(0).lsm().current_version();
            let level = version
                .levels
                .iter()
                .find(|files| files.len() > 2)
                .expect("one level of several files");
            let f = &level[level.len() / 2];
            let path = scavenger_lsm::filename::table_path("iter-level", f.file_number);
            mem.corrupt_byte(&path, f.file_size / 3).unwrap();
        }
        let db = Db::open(o).unwrap();
        let mut rows = 0;
        let mut failed = None;
        for item in db.scan(b"", None).unwrap() {
            match item {
                Ok(_) => rows += 1,
                Err(e) => failed = Some(e),
            }
        }
        assert!(
            matches!(failed, Some(scavenger::Error::Corruption(_))),
            "{mode:?}: scanned {rows} rows without the error: {failed:?}"
        );
        assert!(rows < KEYS, "{mode:?}");
    }
}
