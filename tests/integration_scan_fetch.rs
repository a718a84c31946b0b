//! Scan look-ahead (locate + coalesced fetch) against the per-row
//! reference `get`:
//!
//! * equivalence — for every `EngineMode` and for a 4-shard `DbShards`,
//!   after load → overwrite → GC (inherited, un-written-back refs) and
//!   under a snapshot taken before the overwrites, `scan` equals
//!   `[get(k)]` row for row however it is consumed;
//! * I/O counts on `MemEnv` — adjacent separated rows share I/Os, and
//!   `collect_n(n)` reads no value beyond its `n` rows;
//! * the error-prefix contract under a `FaultEnv` read fault on one
//!   value file, on both handle types;
//! * (ignored, run by the multi-core CI job) scans racing a threaded GC
//!   never see a retired file or a dangling reference.

use scavenger::vstore::vtable::vfile_path;
use scavenger::vstore::SCAN_COALESCE;
use scavenger::{
    Bytes, Db, DbShards, EngineMode, EnvRef, IoClass, MemEnv, Options, ReadView, Result, ScanEntry,
    ShardedOptions,
};
use scavenger_env::fault::{FaultEnv, FaultOp, FaultRule};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn key(i: usize) -> Vec<u8> {
    format!("key{i:05}").into_bytes()
}

/// Every third value stays inline (< 512 B); the rest are separated.
fn value(i: usize, version: usize) -> Vec<u8> {
    let len = if i.is_multiple_of(3) {
        64 + i % 100
    } else {
        900 + (i * 37) % 1500
    };
    let mut v = vec![(i % 251) as u8; len];
    v[0] = version as u8;
    v[1] = (i >> 8) as u8;
    v
}

fn small_opts(env: EnvRef, dir: &str, mode: EngineMode) -> Options {
    let mut o = Options::new(env, dir, mode);
    o.memtable_size = 16 * 1024;
    o.vsst_target_size = 32 * 1024;
    o.base_level_bytes = 64 * 1024;
    o.ksst_target_size = 16 * 1024;
    o.block_cache_bytes = 256 * 1024;
    o.auto_gc = false;
    o
}

/// An unbounded scan from `lo` at `snap` (the latest state when `None`)
/// must equal `[get(k)]` there for the keys `lo..`, row for row, under
/// every way of consuming the iterator.
fn assert_scan_equals_gets(db: &Db, snap: Option<&ReadView>, n_keys: usize, what: &str) {
    for lo in [0, n_keys / 3] {
        let expected: Vec<ScanEntry> = (lo..n_keys)
            .filter_map(|i| {
                let got = match snap {
                    Some(s) => s.get(key(i)),
                    None => db.get(key(i)),
                };
                got.unwrap().map(|value| ScanEntry { key: key(i), value })
            })
            .collect();
        assert!(expected.len() > 60, "{what}: setup left too few rows");
        let scan = || {
            match snap {
                Some(s) => s.scan(&key(lo), None),
                None => db.scan(&key(lo), None),
            }
            .unwrap()
        };

        // One `next()` at a time, to the end.
        let all: Vec<ScanEntry> = scan().collect::<Result<_>>().unwrap();
        assert_eq!(all, expected, "{what}: next() from {lo}");

        for n in [1usize, 7, 50, 1000] {
            let want = &expected[..n.min(expected.len())];
            assert_eq!(
                scan().collect_n(n).unwrap(),
                want,
                "{what}: collect_n({n}) from {lo}"
            );
            // `next()` first (the ramp's one-row batch), then `collect_n`,
            // then the same iterator keeps going.
            let mut it = scan();
            let mut got = vec![it.next().unwrap().unwrap()];
            got.extend(it.collect_n(n).unwrap());
            let tail = it.next().transpose().unwrap();
            assert_eq!(
                got,
                &expected[..(n + 1).min(expected.len())],
                "{what}: next() then collect_n({n}) from {lo}"
            );
            assert_eq!(
                tail.as_ref(),
                expected.get(n + 1),
                "{what}: row after collect_n({n})"
            );
        }
    }
}

/// Load → snapshot → overwrite (and delete a few) → compact → GC, then
/// hold scans to gets at the snapshot and at the latest state; drop the
/// snapshot, GC again (unlinking the files it held), re-check.
fn check_scan_equivalence(db: &Db, what: &str) {
    const N: usize = 240;
    for i in 0..N {
        db.put(key(i), value(i, 1)).unwrap();
    }
    db.flush().unwrap();
    let snap = db.snapshot();
    for round in 2..=4 {
        for i in (0..N).filter(|i| i % round != 1) {
            db.put(key(i), value(i, round)).unwrap();
        }
        db.flush().unwrap();
    }
    for i in (0..N).step_by(17) {
        db.delete(key(i)).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    let jobs: usize = db.run_gc_until_clean().unwrap();

    assert_scan_equals_gets(
        db,
        Some(&snap),
        N,
        &format!("{what} @snapshot ({jobs} GC jobs)"),
    );
    assert_scan_equals_gets(db, None, N, &format!("{what} @latest ({jobs} GC jobs)"));
    for i in (0..N).step_by(11) {
        assert_eq!(
            snap.get(key(i)).unwrap().unwrap(),
            Bytes::from(value(i, 1)),
            "{what}: snapshot lost key {i}"
        );
    }
    drop(snap);
    db.compact_all().unwrap();
    db.run_gc_until_clean().unwrap();
    assert_scan_equals_gets(db, None, N, &format!("{what} @latest after snapshot drop"));
}

#[test]
fn scan_equals_gets_in_every_mode() {
    for mode in EngineMode::ALL {
        let db = Db::open(small_opts(MemEnv::shared(), "eq", mode)).unwrap();
        check_scan_equivalence(&db, &format!("{mode:?}"));
        if mode == EngineMode::Scavenger {
            assert!(
                db.stats().gc.runs > 0,
                "Scavenger must have GC'd: the scan has to cross inherited refs"
            );
        }
    }
}

#[test]
fn scan_equals_gets_on_four_shards() {
    for mode in [EngineMode::Scavenger, EngineMode::Titan] {
        let env: EnvRef = MemEnv::shared();
        let mut o = ShardedOptions::new(env.clone(), "eq-shards", mode);
        o.base = small_opts(env, "eq-shards", mode);
        o.num_shards = 4;
        let db = DbShards::open(o).unwrap();
        check_scan_equivalence(&db, &format!("4 shards {mode:?}"));
    }
}

/// One flush of `n` sorted keys with `len`-byte values: one value file,
/// records adjacent in key order. Caches are warmed (readers opened,
/// index partitions cached) so the counted reads are record reads only.
fn adjacent_store(n: usize, len: usize) -> Db {
    let mut o = small_opts(MemEnv::shared(), "adj", EngineMode::Scavenger);
    o.memtable_size = 4 << 20;
    o.vsst_target_size = 8 << 20;
    o.block_cache_bytes = 8 << 20;
    let db = Db::open(o).unwrap();
    for i in 0..n {
        db.put(key(i), vec![(i % 251) as u8; len]).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(
        db.shard(0).value_store().all_files().len(),
        1,
        "one value file"
    );
    assert_eq!(db.scan(b"", None).unwrap().count(), n);
    db
}

fn value_reads(db: &Db, f: impl FnOnce()) -> (u64, u64) {
    let io = || db.options().env.io_stats().snapshot();
    let before = io();
    f();
    let d = io().delta(&before);
    let c = d.class(IoClass::FgValueRead);
    (c.read_ops, c.read_bytes)
}

#[test]
fn adjacent_rows_share_reads_up_to_the_span() {
    const K: usize = 200;
    const LEN: usize = 2000;
    let db = adjacent_store(K, LEN);
    let file = &db.shard(0).value_store().all_files()[0];
    // Mean on-disk record (key, lengths, value, CRC trailer): the file
    // minus its index and footer is a lower bound, the file an upper one.
    let record = file.size / K as u64;
    let span = SCAN_COALESCE.max_span;
    let bound = (K as u64 * record).div_ceil(span);
    assert_eq!(bound, 2, "test sized for two spans");

    let (ops, _) = value_reads(&db, || {
        assert_eq!(db.scan(b"", None).unwrap().collect_n(K).unwrap().len(), K);
    });
    assert!(
        ops <= bound,
        "collect_n({K}) took {ops} reads, bound {bound}"
    );

    // Row-at-a-time consumption climbs the ramp (1, 2, 4 …): a read per
    // batch, still an order of magnitude under a read per row.
    let (ops, _) = value_reads(&db, || {
        assert_eq!(db.scan(b"", None).unwrap().count(), K);
    });
    assert!(
        ops <= 10,
        "next()-driven scan took {ops} reads for {K} rows"
    );
}

/// A point read's record enters the block cache; a scan's never does.
/// `collect_n(n)` reads exactly the bytes of its rows' records — what `n`
/// first gets read — in one I/O, even when every one of those records
/// is cached.
#[test]
fn collect_n_reads_no_more_value_bytes_than_gets() {
    let db = adjacent_store(64, 1500);
    for (lo, n) in [(20usize, 1usize), (30, 10)] {
        let gets = || {
            value_reads(&db, || {
                for i in lo..lo + n {
                    db.get(key(i)).unwrap().unwrap();
                }
            })
        };
        let (get_ops, get_bytes) = gets();
        assert_eq!(get_ops, n as u64, "a first get is one record read");
        assert_eq!(gets().0, 0, "a repeat get reads nothing");
        let (scan_ops, scan_bytes) = value_reads(&db, || {
            let rows = db.scan(&key(lo), None).unwrap().collect_n(n).unwrap();
            assert_eq!(rows.len(), n);
        });
        assert_eq!(
            scan_bytes, get_bytes,
            "collect_n({n}) must read exactly its rows' records"
        );
        assert_eq!(scan_ops, 1, "collect_n({n}): adjacent rows, one read");
    }
}

/// A plain store's scan is its one member's scan, read for read: a
/// 50-row window (the benchmark's `scan`) over rows spread across many
/// value files issues exactly the value-file reads the single-engine
/// iterator issued before the two handles became one — through
/// `collect_n`, and through the `next()` ramp. Point reads caching every
/// value first changes none of those reads: a scan reads around them.
#[test]
fn one_member_scan_issues_the_single_engine_reads() {
    let db = Db::open(small_opts(MemEnv::shared(), "exact", EngineMode::Scavenger)).unwrap();
    for round in 0..3 {
        for i in (0..300).filter(|i| i % 3 != round) {
            db.put(key(i), value(i, round)).unwrap();
        }
        db.flush().unwrap();
    }
    assert_eq!(db.scan(b"", None).unwrap().count(), 300);
    let window = |lo: usize, collect: bool| {
        value_reads(&db, || {
            let mut it = db.scan(&key(lo), None).unwrap();
            let rows = match collect {
                true => it.collect_n(50).unwrap(),
                false => it.take(50).collect::<Result<_>>().unwrap(),
            };
            assert_eq!(rows.len(), 50);
        })
        .0
    };
    let reads = || -> Vec<u64> {
        [0, 97, 200]
            .into_iter()
            .flat_map(|lo| [window(lo, true), window(lo, false)])
            .collect()
    };
    assert_eq!(reads(), [4, 13, 6, 14, 4, 14]);
    for i in 0..300 {
        db.get(key(i)).unwrap().unwrap();
    }
    assert_eq!(reads(), [4, 13, 6, 14, 4, 14], "after a get of every key");
}

/// Keys `0..120` in three flushes of 40, so each third lives in its own
/// value file; returns the path of the middle one.
fn three_file_store(db: &Db) -> String {
    for third in 0..3 {
        for i in third * 40..(third + 1) * 40 {
            db.put(key(i), vec![7u8; 1500]).unwrap();
        }
        db.flush().unwrap();
    }
    let files = db.shard(0).value_store().all_files();
    assert_eq!(files.len(), 3);
    vfile_path(&db.options().dir, files[1].file, files[1].format)
}

fn fail_reads_of(env: &FaultEnv, path: &str) {
    env.add_rule(FaultRule {
        path_contains: Some(path.to_string()),
        ..FaultRule::fail(FaultOp::Read)
    });
}

/// Rows before the failing one, then one `Err`, then `None`.
fn assert_prefix_then_error(mut it: impl Iterator<Item = Result<ScanEntry>>, prefix: &[Vec<u8>]) {
    for (n, want) in prefix.iter().enumerate() {
        match it.next() {
            Some(Ok(e)) => assert_eq!(&e.key, want, "row {n}"),
            other => panic!("row {n}: expected a resolved row, got {other:?}"),
        }
    }
    assert!(matches!(it.next(), Some(Err(_))), "then the error, once");
    assert!(it.next().is_none(), "then fused");
    assert!(it.next().is_none());
}

#[test]
fn read_fault_mid_batch_yields_prefix_then_error_on_db() {
    let mem: EnvRef = MemEnv::shared();
    let env = FaultEnv::wrap(mem, 1);
    let mut o = small_opts(env.clone(), "fault-db", EngineMode::Scavenger);
    o.memtable_size = 1 << 20;
    o.vsst_target_size = 1 << 20;
    let db = Db::open(o).unwrap();
    let middle = three_file_store(&db);
    // Open every reader before the fault, so it hits record reads.
    assert_eq!(db.scan(b"", None).unwrap().count(), 120);
    fail_reads_of(&env, &middle);

    // Rows 0..40 precede the faulted file. The ramp's sixth batch (rows
    // 31..63) straddles the boundary: it fails as a batch and is
    // re-resolved row by row up to row 39.
    let prefix: Vec<Vec<u8>> = (0..40).map(key).collect();
    assert_prefix_then_error(db.scan(b"", None).unwrap(), &prefix);
    // `collect_n` puts rows 20..60 in one batch; the error wins.
    assert!(db.scan(&key(20), None).unwrap().collect_n(40).is_err());
    // A range clear of the file is untouched.
    assert_eq!(
        db.scan(&key(80), None)
            .unwrap()
            .collect_n(100)
            .unwrap()
            .len(),
        40
    );
    env.clear_rules();
    assert_eq!(db.scan(b"", None).unwrap().count(), 120);
}

#[test]
fn read_fault_mid_batch_yields_prefix_then_error_on_shards() {
    let mem: EnvRef = MemEnv::shared();
    let env = FaultEnv::wrap(mem, 1);
    let mut o = ShardedOptions::new(env.clone(), "fault-shards", EngineMode::Scavenger);
    o.base = small_opts(env.clone(), "fault-shards", EngineMode::Scavenger);
    o.base.memtable_size = 1 << 20;
    o.base.vsst_target_size = 1 << 20;
    o.num_shards = 4;
    let db = DbShards::open(o).unwrap();
    // Two flushes: keys 0..80, then 80..160. Fault the value file that
    // holds shard 1's share of the second flush.
    for half in 0..2 {
        for i in half * 80..(half + 1) * 80 {
            db.put(key(i), vec![9u8; 1500]).unwrap();
        }
        db.flush().unwrap();
    }
    let shard = db.shard(1);
    let files = shard.value_store().all_files();
    assert_eq!(files.len(), 2);
    let second = vfile_path(&shard.options().dir, files[1].file, files[1].format);
    assert_eq!(db.scan(b"", None).unwrap().count(), 160);
    fail_reads_of(&env, &second);

    // Shard 1 resolves its rows of the first flush, then fails. The merge
    // surfaces a shard's error when it needs that shard's next row, so
    // the stream runs through shard 1's last good row, then errors.
    let last_good = (0..80).rev().find(|&i| db.shard_of(key(i)) == 1).unwrap();
    let prefix: Vec<Vec<u8>> = (0..=last_good).map(key).collect();
    assert_prefix_then_error(db.scan(b"", None).unwrap(), &prefix);
    assert!(db.scan(b"", None).unwrap().collect_n(160).is_err());
    assert_eq!(
        db.scan(b"", None)
            .unwrap()
            .collect_n(last_good + 1)
            .unwrap()
            .len(),
        last_good + 1,
        "collect_n stops at its limit and never asks shard 1 for more"
    );
}

/// Threaded background work: a writer keeps overwriting while auto-GC
/// retires value files; concurrent scans (both consumption styles) must
/// resolve every row — no `NotFound`, no dangling reference, no torn
/// row. Needs real parallelism to mean anything, so CI runs it on the
/// multi-core job (`-- --include-ignored`).
#[test]
#[ignore = "threaded scan-under-GC stress; run with --include-ignored on a multi-core box"]
fn scans_survive_concurrent_gc_retiring_files() {
    const N: usize = 400;
    let mut o = small_opts(MemEnv::shared(), "race", EngineMode::Scavenger);
    o.inline_background = false;
    o.auto_gc = true;
    let db = Db::open(o).unwrap();
    let fill = |i: usize, version: usize| {
        let mut v = vec![(version % 251) as u8; 700 + (i * 13) % 900];
        v[..8].copy_from_slice(&(i as u64).to_le_bytes());
        v
    };
    for i in 0..N {
        db.put(key(i), fill(i, 0)).unwrap();
    }
    db.flush().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (db, stop) = (db.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut version = 1;
            while !stop.load(Ordering::SeqCst) {
                for i in (0..N).filter(|i| (i + version) % 3 != 0) {
                    db.put(key(i), fill(i, version)).unwrap();
                }
                version += 1;
            }
            version
        })
    };
    let scanners: Vec<_> = (0..2)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                for round in 0..150 {
                    let lo = (round * 37 + t * 101) % N;
                    let mut it = db.scan(&key(lo), None).unwrap();
                    let rows: Vec<ScanEntry> = if (round + t) % 2 == 0 {
                        it.collect_n(120).unwrap()
                    } else {
                        it.take(120).collect::<Result<_>>().unwrap()
                    };
                    assert_eq!(rows.len(), 120.min(N - lo), "every key stays present");
                    for (e, i) in rows.iter().zip(lo..) {
                        assert_eq!(e.key, key(i));
                        assert_eq!(e.value[..8], (i as u64).to_le_bytes(), "row {i} is its own");
                        let body = &e.value[8..];
                        assert!(body.iter().all(|&b| b == body[0]), "row {i} is one version");
                    }
                }
            })
        })
        .collect();
    for s in scanners {
        s.join().expect("scanner");
    }
    stop.store(true, Ordering::SeqCst);
    let versions = writer.join().expect("writer");
    assert!(versions > 2, "the writer must have lapped the key space");
    assert!(
        db.stats().gc.files_collected > 0,
        "GC must have retired files under the scans"
    );
}
