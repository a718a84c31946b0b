//! Multicore optimistic-transaction stress: N threads hammer a small
//! hot key set with read-modify-write transactions (retrying on
//! conflict), on both engine handles.
//!
//! Every transaction reads two counters and writes both back
//! incremented, so OCC validation makes the committed history
//! serializable and every serial order produces the same state: the
//! final counters must equal a sequential re-execution of exactly the
//! committed records — nothing lost, nothing double-applied, no torn
//! multi-key commits. The typed counters must agree with the client's
//! own bookkeeping: `txn_commits` == committed transactions,
//! `txn_conflicts` == observed retries, and on the sharded handle the
//! cross-shard commits show up in `txn_2pc_commits`.
//!
//! Thread and iteration counts scale down under `TXN_STRESS_LIGHT=1`
//! so the suite stays quick in smoke runs; CI's multicore job runs the
//! full shape.

use scavenger::{Db, DbShards, Engine, EngineMode, MemEnv, Options, ShardedOptions, Transactional};
use std::collections::BTreeMap;

const KEYS: u32 = 8;

fn threads() -> usize {
    if std::env::var("TXN_STRESS_LIGHT").is_ok() {
        2
    } else {
        4
    }
}

fn txns_per_thread() -> usize {
    if std::env::var("TXN_STRESS_LIGHT").is_ok() {
        50
    } else {
        150
    }
}

fn key(k: u32) -> Vec<u8> {
    format!("ctr{k:02}").into_bytes()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn decode(v: &[u8]) -> u64 {
    u64::from_le_bytes(v.try_into().expect("8-byte counter"))
}

/// One worker: commit `n` increment transactions, retrying each until
/// it validates. Returns the committed `(key_a, key_b)` records and
/// the number of conflicted (retried) commit attempts.
fn worker<E: Engine + Transactional>(db: &E, seed: u64, n: usize) -> (Vec<(u32, u32)>, u64) {
    let mut rng = seed;
    let mut committed = Vec::with_capacity(n);
    let mut retries = 0u64;
    for _ in 0..n {
        let a = (splitmix64(&mut rng) % u64::from(KEYS)) as u32;
        let mut b = (splitmix64(&mut rng) % u64::from(KEYS)) as u32;
        if b == a {
            b = (b + 1) % KEYS;
        }
        loop {
            let mut t = db.begin();
            let va = decode(&t.get(key(a)).unwrap().expect("counter seeded"));
            let vb = decode(&t.get(key(b)).unwrap().expect("counter seeded"));
            t.put(key(a), (va + 1).to_le_bytes().to_vec());
            t.put(key(b), (vb + 1).to_le_bytes().to_vec());
            match t.commit() {
                Ok(_) => break,
                Err(e) if e.is_txn_conflict() => retries += 1,
                Err(e) => panic!("non-conflict commit failure: {e}"),
            }
        }
        committed.push((a, b));
    }
    (committed, retries)
}

fn stress<E: Engine + Transactional + Send + Sync>(db: &E, label: &str) -> (u64, u64) {
    for k in 0..KEYS {
        db.put(&key(k), 0u64.to_le_bytes().to_vec().into()).unwrap();
    }
    let base = db.stats();

    let (records, retries): (Vec<Vec<(u32, u32)>>, Vec<u64>) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads())
            .map(|t| {
                let db = db.clone();
                let n = txns_per_thread();
                s.spawn(move || worker(&db, 0x7a17 ^ (t as u64) << 32, n))
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).unzip()
    });

    // Sequential re-execution oracle: replay exactly the committed
    // records one by one (increments commute, so every serial order —
    // in particular the OCC commit order — yields this state) and the
    // store must land on it.
    let mut model: BTreeMap<u32, u64> = (0..KEYS).map(|k| (k, 0)).collect();
    for (a, b) in records.iter().flatten() {
        *model.get_mut(a).unwrap() += 1;
        *model.get_mut(b).unwrap() += 1;
    }
    for (k, expect) in &model {
        let got = decode(&db.get(&key(*k)).unwrap().expect("counter present"));
        assert_eq!(
            got, *expect,
            "{label}: counter {k} diverged from sequential re-execution"
        );
    }
    let total: u64 = model.values().sum();
    assert_eq!(
        total,
        2 * (threads() * txns_per_thread()) as u64,
        "{label}: committed transaction count wrong"
    );

    // The typed counters must match the client-side bookkeeping.
    let stats = db.stats();
    let commits = stats.txn_commits - base.txn_commits;
    let conflicts = stats.txn_conflicts - base.txn_conflicts;
    assert_eq!(
        commits,
        (threads() * txns_per_thread()) as u64,
        "{label}: txn_commits must count every committed transaction"
    );
    assert_eq!(
        conflicts,
        retries.iter().sum::<u64>(),
        "{label}: txn_conflicts must count exactly the observed retries"
    );
    (conflicts, stats.txn_2pc_commits - base.txn_2pc_commits)
}

/// A deterministic interleaving that must conflict, so the suite never
/// passes vacuously on a machine where the stress threads happened to
/// serialize.
fn forced_conflict<E: Engine + Transactional>(db: &E, label: &str) {
    let before = db.stats().txn_conflicts;
    let mut t1 = db.begin();
    let v = decode(&t1.get(key(0)).unwrap().expect("counter seeded"));
    let mut t2 = db.begin();
    let v2 = decode(&t2.get(key(0)).unwrap().expect("counter seeded"));
    t2.put(key(0), (v2 + 1).to_le_bytes().to_vec());
    t2.commit().unwrap();
    t1.put(key(0), (v + 1).to_le_bytes().to_vec());
    let err = t1.commit().expect_err("stale read must abort");
    assert!(err.is_txn_conflict(), "{label}: wrong error class: {err}");
    assert_eq!(
        db.stats().txn_conflicts,
        before + 1,
        "{label}: forced conflict not counted"
    );
}

#[test]
fn txn_stress_single_db() {
    let opts = Options::new(MemEnv::shared(), "txn-stress-db", EngineMode::Scavenger);
    let db = Db::open(opts).unwrap();
    let (_, twopc) = stress(&db, "Db");
    assert_eq!(twopc, 0, "a single Db never needs the 2PC coordinator");
    forced_conflict(&db, "Db");
}

#[test]
fn txn_stress_4shard_dbshards() {
    let mut opts =
        ShardedOptions::new(MemEnv::shared(), "txn-stress-shards", EngineMode::Scavenger);
    opts.num_shards = 4;
    let db = DbShards::open(opts).unwrap();
    let (_, twopc) = stress(&db, "DbShards");
    assert!(
        twopc > 0,
        "two-key transactions over 4 shards must exercise 2PC"
    );
    forced_conflict(&db, "DbShards");
}
