//! Sharded-engine equivalence and routing-stability suite.
//!
//! The contract under test: a 4-shard [`Db`] is observationally
//! identical to a plain one — same gets, same merged scan order and
//! contents, same snapshot reads — under a random op sequence with
//! flush/compaction/GC interleavings; routing is stable across reopen;
//! neither layout opens as the other; cross-shard scans honor bound
//! edges exactly; and the §III-D space budget is enforced globally
//! across shards.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scavenger::{Db, DbShards, EngineMode, MemEnv, Options, ShardedOptions, WriteOptions};
use scavenger_env::EnvRef;

fn single_opts(env: EnvRef, dir: &str, mode: EngineMode) -> Options {
    let mut o = Options::new(env, dir, mode);
    o.memtable_size = 8 * 1024;
    o.vsst_target_size = 32 * 1024;
    o.base_level_bytes = 64 * 1024;
    o.ksst_target_size = 16 * 1024;
    o.auto_gc = false;
    o
}

fn sharded_opts(env: EnvRef, dir: &str, mode: EngineMode, shards: usize) -> ShardedOptions {
    let mut o = ShardedOptions::new(env.clone(), dir, mode);
    o.num_shards = shards;
    o.base = single_opts(env, dir, mode);
    o
}

fn value(i: usize, len: usize) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; len];
    v[0] = (i >> 8) as u8;
    v[1] = (i & 0xff) as u8;
    v
}

/// One random operation, replayable against both engines.
#[derive(Debug, Clone)]
enum Op {
    Put(usize, usize),
    Delete(usize),
    Flush,
    Compact,
    Gc,
}

fn random_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let roll: u32 = rng.gen_range(0..100u32);
        ops.push(match roll {
            0..=59 => Op::Put(rng.gen_range(0..150usize), rng.gen_range(64..3000usize)),
            60..=74 => Op::Delete(rng.gen_range(0..150usize)),
            75..=87 => Op::Flush,
            88..=93 => Op::Compact,
            _ => Op::Gc,
        });
    }
    ops
}

fn key(i: usize) -> String {
    format!("key{i:04}")
}

/// The full observable state: every key's latest value, the merged full
/// scan, a bounded scan, and snapshot reads taken mid-sequence.
type Observation = (
    Vec<(String, Option<Vec<u8>>)>,
    Vec<(Vec<u8>, Vec<u8>)>,
    Vec<(Vec<u8>, Vec<u8>)>,
    Vec<(String, Option<Vec<u8>>)>,
);

/// Replay `ops` against a store, snapshotting at `snap_at` ops, and
/// collect the full observable state.
fn replay(db: &Db, ops: &[Op], snap_at: usize) -> Observation {
    let mut snap = None;
    for (i, op) in ops.iter().enumerate() {
        if i == snap_at {
            snap = Some(db.snapshot());
        }
        match op {
            Op::Put(k, len) => drop(db.put(key(*k), value(*k + len, *len)).unwrap()),
            Op::Delete(k) => drop(db.delete(key(*k)).unwrap()),
            Op::Flush => db.flush().unwrap(),
            Op::Compact => db.compact_all().unwrap(),
            Op::Gc => drop(db.run_gc().unwrap()),
        }
    }
    let scan = |lo: &[u8], hi: Option<&[u8]>| {
        let it = db.scan(lo, hi).unwrap();
        it.map(|e| e.map(|e| (e.key, e.value.to_vec())))
            .collect::<scavenger::Result<Vec<_>>>()
            .unwrap()
    };
    let gets = (0..150)
        .map(|i| (key(i), db.get(key(i)).unwrap().map(|b| b.to_vec())))
        .collect();
    let snap_reads = match &snap {
        Some(s) => (0..150)
            .map(|i| (key(i), s.get(key(i)).unwrap().map(|b| b.to_vec())))
            .collect(),
        None => Vec::new(),
    };
    (
        gets,
        scan(b"", None),
        scan(b"key0040", Some(b"key0090")),
        snap_reads,
    )
}

/// Open a fresh store of `shards` members (1: a plain store) and replay.
fn replay_on(
    env: EnvRef,
    ops: &[Op],
    snap_at: usize,
    mode: EngineMode,
    shards: usize,
) -> Observation {
    let db = Db::open(sharded_opts(env, "replay", mode, shards)).unwrap();
    assert_eq!(db.num_shards(), shards);
    replay(&db, ops, snap_at)
}

/// The acceptance equivalence suite: one type at two sizes — a store of
/// four shards must match a plain store result-for-result under random
/// op sequences interleaving puts/deletes with flush, compaction, and GC,
/// including reads through a snapshot taken mid-sequence.
#[test]
fn four_shards_match_single_db_under_random_ops() {
    for (seed, mode) in [
        (11, EngineMode::Scavenger),
        (12, EngineMode::Scavenger),
        (13, EngineMode::Terark),
        (14, EngineMode::Titan),
    ] {
        let ops = random_ops(seed, 400);
        let single = replay_on(MemEnv::shared(), &ops, 200, mode, 1);
        let sharded = replay_on(MemEnv::shared(), &ops, 200, mode, 4);
        assert_eq!(single.0, sharded.0, "seed {seed} {mode:?}: gets diverged");
        assert_eq!(
            single.1, sharded.1,
            "seed {seed} {mode:?}: merged full scan diverged"
        );
        assert_eq!(
            single.2, sharded.2,
            "seed {seed} {mode:?}: bounded scan diverged"
        );
        assert_eq!(
            single.3, sharded.3,
            "seed {seed} {mode:?}: snapshot reads diverged"
        );
    }
}

/// Cross-shard scan ordering at bound edges: bounds exactly on keys,
/// bounds between keys, empty ranges, a range owned entirely by one
/// shard (every other shard's iterator is empty — "reverse-empty"), and
/// bounds on a pinned view set.
#[test]
fn cross_shard_scan_bound_edges() {
    let db = DbShards::open(sharded_opts(
        MemEnv::shared(),
        "bounds",
        EngineMode::Scavenger,
        4,
    ))
    .unwrap();
    for i in 0..100 {
        db.put(key(i), value(i, 600)).unwrap();
    }
    db.flush().unwrap();

    // Exact-key bounds: lower inclusive, upper exclusive.
    let got = db
        .scan(b"key0010", Some(b"key0020"))
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap();
    assert_eq!(got.len(), 10);
    assert_eq!(got[0].key, b"key0010");
    assert_eq!(got[9].key, b"key0019");

    // Bounds between keys.
    let got = db
        .scan(b"key0010x", Some(b"key0012x"))
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap();
    assert_eq!(
        got.iter().map(|e| e.key.clone()).collect::<Vec<_>>(),
        vec![b"key0011".to_vec(), b"key0012".to_vec()]
    );

    // Empty range (lower == upper) and inverted range.
    assert!(db
        .scan(b"key0050", Some(b"key0050"))
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap()
        .is_empty());
    assert!(db
        .scan(b"key0060", Some(b"key0050"))
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap()
        .is_empty());

    // Range past the end of the data.
    assert!(db
        .scan(b"key9000", None)
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap()
        .is_empty());

    // A single-key range: exactly one shard contributes; all other
    // shard iterators come up empty and the merge must still terminate
    // in order.
    let got = db
        .scan(b"key0042", Some(b"key0043"))
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].key, b"key0042");
    assert_eq!(got[0].value, bytes::Bytes::from(value(42, 600)));

    // A lower bound alone.
    let got = db
        .scan(b"key0095", None)
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap();
    assert_eq!(got.len(), 5);
    assert!(got.windows(2).all(|w| w[0].key < w[1].key));

    // Bounded scan through a pinned view set: later writes invisible.
    let view = db.view();
    db.put("key0011", b"overwritten".to_vec()).unwrap();
    let got = view
        .scan(b"key0010", Some(b"key0012"))
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap();
    assert_eq!(got.len(), 2);
    assert_eq!(got[1].value, bytes::Bytes::from(value(11, 600)));
}

/// Routing must be byte-stable across close + reopen: every key routes
/// to the shard that owns its data, even when the caller passes a
/// different (ignored) seed at reopen, and all data reads back.
#[test]
fn shard_routing_stable_across_reopen() {
    let env: EnvRef = MemEnv::shared();
    let placements: Vec<usize>;
    {
        let mut o = sharded_opts(env.clone(), "reopen", EngineMode::Scavenger, 4);
        o.route_seed = 0x1234_5678;
        let db = DbShards::open(o).unwrap();
        for i in 0..200 {
            db.put(key(i), value(i, 1024)).unwrap();
        }
        db.flush().unwrap();
        placements = (0..200).map(|i| db.shard_of(key(i))).collect();
        assert_eq!(db.route_seed(), 0x1234_5678);
    }
    {
        // Different caller seed: the stored routing contract wins.
        let mut o = sharded_opts(env.clone(), "reopen", EngineMode::Scavenger, 4);
        o.route_seed = 0xdead_beef;
        let db = DbShards::open(o).unwrap();
        assert_eq!(db.route_seed(), 0x1234_5678, "stored seed is authoritative");
        for (i, &placed) in placements.iter().enumerate() {
            assert_eq!(
                db.shard_of(key(i)),
                placed,
                "key{i} moved shards across reopen"
            );
            assert_eq!(
                db.get(key(i)).unwrap().unwrap(),
                bytes::Bytes::from(value(i, 1024)),
                "key{i} unreadable after reopen"
            );
        }
        // The data actually lives on the routed shard.
        for i in (0..200).step_by(17) {
            assert!(db.shard(placements[i]).get(key(i)).unwrap().is_some());
        }
    }
}

/// Reopening with a different shard count must fail loudly, not
/// silently route keys away from their data.
#[test]
fn reopen_with_wrong_shard_count_is_refused() {
    let env: EnvRef = MemEnv::shared();
    {
        let db = DbShards::open(sharded_opts(
            env.clone(),
            "countdb",
            EngineMode::Scavenger,
            4,
        ))
        .unwrap();
        db.put("k", b"v".to_vec()).unwrap();
    }
    let err = DbShards::open(sharded_opts(
        env.clone(),
        "countdb",
        EngineMode::Scavenger,
        8,
    ));
    let err = err.err().expect("shard-count mismatch must refuse to open");
    assert!(
        matches!(err, scavenger_util::Error::InvalidArgument(_)),
        "a wrong shard count is the caller's mistake: {err:?}"
    );
    // The original count still works.
    let db = DbShards::open(sharded_opts(env, "countdb", EngineMode::Scavenger, 4)).unwrap();
    assert_eq!(
        db.get("k").unwrap().unwrap(),
        bytes::Bytes::from_static(b"v")
    );
}

/// Every file under `prefix`, sorted.
fn listing(env: &EnvRef, prefix: &str) -> Vec<String> {
    let mut files = env.list_prefix(prefix).unwrap();
    files.sort();
    files
}

/// A plain open of a sharded root would create a fresh empty store
/// beside the shards: it is refused, naming what the directory holds,
/// and nothing is written.
#[test]
fn plain_open_of_a_sharded_root_is_refused() {
    let env: EnvRef = MemEnv::shared();
    let db = DbShards::open(sharded_opts(
        env.clone(),
        "layout-sh",
        EngineMode::Scavenger,
        4,
    ))
    .unwrap();
    db.put("k", b"v".to_vec()).unwrap();
    drop(db);
    let files = listing(&env, "layout-sh/");
    let err = Db::open(single_opts(env.clone(), "layout-sh", EngineMode::Scavenger))
        .err()
        .expect("a plain open of a sharded root must be refused");
    assert!(
        matches!(&err, scavenger_util::Error::InvalidArgument(m) if m.contains("4-shard")),
        "{err:?}"
    );
    assert_eq!(listing(&env, "layout-sh/"), files);
}

/// A sharded open of a plain store's directory would write `SHARDS` and
/// empty shards beside the data (and charge the old files to the space
/// budget): it is refused, and nothing is written.
#[test]
fn sharded_open_of_a_plain_store_is_refused() {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(single_opts(
        env.clone(),
        "layout-plain",
        EngineMode::Scavenger,
    ))
    .unwrap();
    db.put("k", b"v".to_vec()).unwrap();
    drop(db);
    let files = listing(&env, "layout-plain/");
    let err = DbShards::open(sharded_opts(
        env.clone(),
        "layout-plain",
        EngineMode::Scavenger,
        4,
    ))
    .err()
    .expect("a sharded open of a plain store must be refused");
    assert!(
        matches!(&err, scavenger_util::Error::InvalidArgument(m) if m.contains("unsharded")),
        "{err:?}"
    );
    assert_eq!(listing(&env, "layout-plain/"), files);
    // The plain store is intact.
    let db = Db::open(single_opts(env, "layout-plain", EngineMode::Scavenger)).unwrap();
    assert_eq!(db.num_shards(), 1);
    assert_eq!(
        db.get("k").unwrap().unwrap(),
        bytes::Bytes::from_static(b"v")
    );
}

/// The §III-D throttle enforces ONE budget across shards: total space
/// is pulled back toward the global limit even though each admission
/// check runs on a single shard, and activations aggregate on the
/// shared throttle.
#[test]
fn space_budget_is_global_across_shards() {
    let mut o = sharded_opts(MemEnv::shared(), "quota", EngineMode::Scavenger, 4);
    o.base.space_limit = Some(900 * 1024); // global cap, ~225 KiB/shard
    let db = DbShards::open(o).unwrap();
    // ~3 MiB of updates over a small key set: garbage everywhere.
    for round in 0..16 {
        for i in 0..96 {
            db.put(format!("key{i:02}"), value(round + i, 2048))
                .unwrap();
        }
    }
    db.flush().unwrap();
    let stalls: u64 = db.throttle().activation_count();
    assert!(stalls > 0, "global throttle must have activated");
    // Per-shard stats see the same shared counter.
    for s in db.shard_stats() {
        assert_eq!(s.throttle_stalls, stalls);
    }
    // All data correct under throttling.
    for i in 0..96 {
        assert_eq!(
            db.get(format!("key{i:02}")).unwrap().unwrap(),
            bytes::Bytes::from(value(15 + i, 2048))
        );
    }
    // Aggregate space pulled back toward the quota (allow one memtable +
    // one vSST of transient overshoot per shard).
    let total = db.space().total();
    assert!(
        total < (900 + 4 * 160) * 1024,
        "global space {total} should be near the 900 KiB budget"
    );
}

/// `DbShards::stats` is every shard's snapshot folded field by field,
/// plus the state that lives at the set level. One field of every fold
/// rule is recomputed here from `shard_stats()` on a store that has
/// flushed, collected garbage, throttled, committed transactions (one of
/// them across shards), and holds a snapshot and a lagging subscriber.
#[test]
fn stats_fold_per_shard_values_by_rule() {
    use scavenger::{SubscribeFrom, Transactional};
    let env: EnvRef = MemEnv::shared();
    let mut o = sharded_opts(env.clone(), "fold", EngineMode::Scavenger, 4);
    o.base.space_limit = Some(900 * 1024);
    let db = DbShards::open(o).unwrap();
    let _feed = db.subscribe_changes(SubscribeFrom::Oldest).unwrap();
    for round in 0..16 {
        for i in 0..96 {
            db.put(format!("key{i:02}"), value(round + i, 2048))
                .unwrap();
        }
    }
    db.flush().unwrap();
    db.run_gc_until_clean().unwrap();
    let mut txn = db.begin();
    for i in 0..8 {
        txn.put(format!("txn{i}"), value(i, 64));
    }
    txn.commit().unwrap();
    let snap = db.snapshot();
    db.put("after-snap", value(1, 64)).unwrap();

    let per = db.shard_stats();
    let s = db.stats();
    let sum = |f: fn(&scavenger::DbStats) -> u64| per.iter().map(f).sum::<u64>();
    let max = |f: fn(&scavenger::DbStats) -> u64| per.iter().map(f).max().unwrap();

    // Sum.
    assert!(s.flushes >= 4 && s.gc.records_scanned > 0);
    assert_eq!(s.flushes, sum(|p| p.flushes));
    assert_eq!(s.gc.records_scanned, sum(|p| p.gc.records_scanned));
    let wal = scavenger::IoClass::Wal;
    assert_eq!(
        s.io.class(wal).write_bytes,
        sum(|p| p.io.class(scavenger::IoClass::Wal).write_bytes)
    );
    // Max: the largest group anywhere; the slowest subscriber's lag in
    // its own shard's sequence space (nothing was polled, so it is > 0).
    assert_eq!(s.group_commit_max_group, max(|p| p.group_commit_max_group));
    assert!(s.cdc_lag_seqs > 0);
    assert_eq!(s.cdc_lag_seqs, max(|p| p.cdc_lag_seqs));
    assert!(s.cdc_lag_seqs < sum(|p| p.cdc_lag_seqs));
    // Or.
    assert!(!s.degraded && per.iter().all(|p| !p.degraded));
    // Minimum of the `Some`s.
    let oldest = per.iter().filter_map(|p| p.oldest_read_point).min();
    assert!(oldest.is_some(), "the snapshot pins every shard");
    assert_eq!(s.oldest_read_point, oldest);
    assert_eq!(s.live_snapshots, 4);
    // Mean weighted by key-SST bytes.
    let ksst = sum(|p| p.space.ksst_bytes);
    let weighted: f64 = per
        .iter()
        .map(|p| p.index_space_amp * p.space.ksst_bytes as f64)
        .sum();
    assert!(ksst > 0);
    assert!((s.index_space_amp - weighted / ksst as f64).abs() < 1e-9);
    // Set level: the shared throttle, the set's own transaction
    // counters, the 2PC coordinator.
    assert!(s.throttle_stalls > 0, "the 900 KiB budget must have bitten");
    assert_eq!(s.throttle_stalls, db.throttle().activation_count());
    assert_eq!(sum(|p| p.txn_commits), 0, "commits count at the set");
    assert_eq!((s.txn_commits, s.txn_2pc_commits), (1, 1));
    // Root-level files are nobody's shard: they land in `other_bytes`.
    let root = env.file_size("fold/SHARDS").unwrap() + env.file_size("fold/COORDLOG").unwrap();
    assert!(root > 0);
    assert_eq!(s.space.other_bytes, sum(|p| p.space.other_bytes) + root);
    assert_eq!(s.space, db.space());
    drop(snap);
}

/// Pinned-read-point gauges: views and snapshots show up in stats while
/// registered and disappear on drop.
#[test]
fn read_point_gauges_track_views_and_snapshots() {
    let db = Db::open(single_opts(
        MemEnv::shared(),
        "gauges",
        EngineMode::Scavenger,
    ))
    .unwrap();
    db.put("k", value(1, 900)).unwrap();
    let s = db.stats();
    assert_eq!(s.pinned_views, 0);
    assert_eq!(s.live_snapshots, 0);
    assert!(s.oldest_read_point.is_none());

    let view = db.view();
    let snap = db.snapshot();
    let s = db.stats();
    assert_eq!(s.pinned_views, 1, "one live ReadView");
    assert_eq!(s.live_snapshots, 1, "one live Snapshot");
    assert_eq!(s.oldest_read_point, Some(view.sequence()));

    drop(view);
    drop(snap);
    let s = db.stats();
    assert_eq!(s.pinned_views, 0);
    assert_eq!(s.live_snapshots, 0);
    assert!(s.oldest_read_point.is_none());
}

/// Batched writes with per-call options route through shards, and
/// `WriteOptions::sync = false` stays functional through the sharded
/// entry points.
#[test]
fn sharded_write_options_and_batches() {
    let db = DbShards::open(sharded_opts(
        MemEnv::shared(),
        "wopts",
        EngineMode::Scavenger,
        3,
    ))
    .unwrap();
    let nosync = WriteOptions {
        sync: false,
        ..WriteOptions::default()
    };
    let mut batch = scavenger_lsm::WriteBatch::new();
    for i in 0..60 {
        batch.put(key(i), bytes::Bytes::from(value(i, 128)));
    }
    db.write_with(&nosync, batch).unwrap();
    for i in 0..60 {
        db.put_with(&nosync, key(i + 100), value(i, 700)).unwrap();
    }
    db.flush().unwrap();
    for i in 0..60 {
        assert!(db.get(key(i)).unwrap().is_some());
        assert!(db.get(key(i + 100)).unwrap().is_some());
    }
}

/// Multi-core acceptance check (run with `--include-ignored` in the CI
/// multicore job, `gc_threads = 4`): after a garbage-heavy workload
/// touching every shard, one `run_gc` fan-out must leave **every**
/// shard's GC stats non-zero — all shards did GC work through the
/// scoped-thread maintenance pool, i.e. background work parallelizes
/// across shards rather than serializing on one scheduler.
#[test]
#[ignore = "needs multiple cores to demonstrate parallel per-shard GC; CI runs it"]
fn multicore_gc_runs_on_every_shard() {
    let mut o = sharded_opts(MemEnv::shared(), "mc", EngineMode::Scavenger, 4);
    o.base.gc_threads = 4;
    let db = DbShards::open(o).unwrap();
    // Updates over a fixed key set → exposed garbage on every shard.
    for round in 0..6 {
        for i in 0..240 {
            db.put(key(i), value(round * 300 + i, 2048)).unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    let jobs = db.run_gc_until_clean().unwrap();
    assert!(jobs >= 4, "expected GC work on all shards, ran {jobs} jobs");
    let stats = db.shard_stats();
    for (i, s) in stats.iter().enumerate() {
        assert!(
            s.gc.runs > 0,
            "shard {i} ran no GC jobs (runs per shard: {:?})",
            stats.iter().map(|s| s.gc.runs).collect::<Vec<_>>()
        );
        assert!(s.gc.reclaimed_bytes > 0, "shard {i} reclaimed nothing");
    }
    // All data survives parallel cross-shard GC.
    for i in 0..240 {
        assert_eq!(
            db.get(key(i)).unwrap().unwrap(),
            bytes::Bytes::from(value(5 * 300 + i, 2048))
        );
    }
}
