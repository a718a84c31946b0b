//! Change-stream conformance: the CDC contract end to end, against
//! both engine handles (single [`Db`], 4-shard [`DbShards`]) across
//! the KV-separated engine modes (Scavenger, Titan, Terark).
//!
//! The contract under test:
//!
//! * **Exactly committed history** — a subscriber from `Oldest` sees
//!   every committed `(key, op)` exactly once, in per-key commit
//!   order, with per-shard sequence numbers strictly increasing; GC
//!   write-back relocations are invisible.
//! * **Resume tokens** — a stream dropped mid-replay resumes from its
//!   token on a fresh stream with no loss and no duplicates, even
//!   with flush/compaction/GC churn in between.
//! * **Subscriber pinning** — WAL reclamation never deletes history a
//!   registered subscriber still needs, no matter how much churn runs
//!   while the subscriber lags (`cdc_retention = 0`, so only the
//!   registration protects it).
//! * **Crash recovery** — with a speculative retention budget, a
//!   resume token minted before a crash replays the exact remainder
//!   after reopen.

use scavenger::{
    ChangeOp, ChangeRecord, Db, DbChangeStream, DbShards, EngineMode, MemEnv, Options,
    ShardedOptions, SubscribeFrom, WriteBatch, WriteOptions,
};
use scavenger_env::EnvRef;
use std::collections::HashMap;

/// Per-key oracle: the exact committed mutation history, in commit
/// order (`Some(value)` = put, `None` = delete).
type Oracle = HashMap<Vec<u8>, Vec<Option<Vec<u8>>>>;

fn key(i: u32) -> Vec<u8> {
    format!("cdckey{:04}", i).into_bytes()
}

fn val(i: u32, round: u32) -> Vec<u8> {
    // Big enough to force value separation in every KV-separated mode.
    let mut v = format!("v{round:03}-").into_bytes();
    v.resize(256, (i % 251) as u8);
    v
}

/// Drive a deterministic churny workload: overwrite rounds, deletes,
/// atomic batches, with flush + GC between rounds so history crosses
/// WAL rotations, compactions, and value-log rewrites.
fn churn(db: &Db, oracle: &mut Oracle, rounds: u32, keys: u32) {
    let opts = WriteOptions::default();
    for round in 0..rounds {
        for i in 0..keys {
            let k = key(i);
            let v = val(i, round);
            db.put_with(&opts, &k, v.clone()).unwrap();
            oracle.entry(k).or_default().push(Some(v));
        }
        // Delete a sliding window of keys each round.
        for i in (round * 3) % keys..((round * 3) % keys + 3).min(keys) {
            let k = key(i);
            db.delete_with(&opts, &k).unwrap();
            oracle.entry(k).or_default().push(None);
        }
        // One atomic batch per round.
        let mut batch = WriteBatch::new();
        for i in 0..4 {
            let k = key(keys + i);
            let v = val(keys + i, round);
            batch.put(k.clone(), v.clone());
            oracle.entry(k).or_default().push(Some(v));
        }
        db.write_with(&opts, batch).unwrap();
        db.flush().unwrap();
        let _ = db.run_gc();
    }
}

fn drain(s: &mut DbChangeStream) -> Vec<ChangeRecord> {
    let mut out = Vec::new();
    loop {
        let batch = s.poll_changes(173).unwrap();
        if batch.is_empty() {
            return out;
        }
        out.extend(batch);
    }
}

/// Check delivered events against the oracle: exact per-key history,
/// nothing extra (no GC relocations), per-shard seqs strictly
/// increasing.
fn assert_exact_history(events: &[ChangeRecord], oracle: &Oracle) {
    let mut last_seq: HashMap<usize, u64> = HashMap::new();
    let mut got: Oracle = HashMap::new();
    for e in events {
        if let Some(prev) = last_seq.insert(e.shard, e.seq) {
            assert!(e.seq > prev, "shard {} seq regressed", e.shard);
        }
        let entry = match &e.op {
            ChangeOp::Put(v) => Some(v.as_ref().to_vec()),
            ChangeOp::Delete => None,
        };
        got.entry(e.key.clone()).or_default().push(entry);
    }
    assert_eq!(
        got.len(),
        oracle.len(),
        "key coverage mismatch: {} streamed vs {} committed",
        got.len(),
        oracle.len()
    );
    for (k, want) in oracle {
        let have = got
            .get(k)
            .unwrap_or_else(|| panic!("key {:?} missing from stream", String::from_utf8_lossy(k)));
        assert_eq!(
            have,
            want,
            "history mismatch for key {:?}",
            String::from_utf8_lossy(k)
        );
    }
}

fn single(env: EnvRef, dir: &str, mode: EngineMode) -> Db {
    let mut o = Options::new(env, dir, mode);
    o.memtable_size = 8 * 1024;
    o.cdc_ring_bytes = 64 * 1024;
    Db::open(o).unwrap()
}

fn sharded(env: EnvRef, dir: &str, mode: EngineMode) -> DbShards {
    let mut so = ShardedOptions::new(env.clone(), dir, mode);
    so.base = Options::new(env, dir, mode);
    so.base.memtable_size = 8 * 1024;
    so.base.cdc_ring_bytes = 64 * 1024;
    so.num_shards = 4;
    DbShards::open(so).unwrap()
}

/// A subscriber registered *before* the churn holds its low-water mark
/// through every flush/compaction/GC cycle, then replays the exact
/// committed history — with `cdc_retention = 0`, only the registration
/// keeps that WAL history alive.
fn slow_subscriber_sees_exact_history(db: &Db) {
    let mut early = db.subscribe_changes(SubscribeFrom::Oldest).unwrap();
    let mut oracle = Oracle::new();
    churn(db, &mut oracle, 6, 20);
    let events = drain(&mut early);
    assert_exact_history(&events, &oracle);
    assert_eq!(early.lag(), 0, "drained stream must report zero lag");
}

/// Stop mid-replay, throw the stream away, churn more, resume from the
/// token: the concatenation is exactly the committed history.
fn resume_token_survives_churn(db: &Db) {
    let mut oracle = Oracle::new();
    churn(db, &mut oracle, 3, 16);

    let mut first = db.subscribe_changes(SubscribeFrom::Oldest).unwrap();
    let mut head = Vec::new();
    while head.len() < 30 {
        let batch = first.poll_changes(7).unwrap();
        assert!(!batch.is_empty(), "history exhausted before the cut point");
        head.extend(batch);
    }
    let token = first.resume_token();
    drop(first);

    // More churn between disconnect and resume.
    churn(db, &mut oracle, 2, 16);

    let mut second = db.subscribe_changes(SubscribeFrom::Token(token)).unwrap();
    let tail = drain(&mut second);
    let mut all = head;
    all.extend(tail);
    assert_exact_history(&all, &oracle);
}

fn run_single(mode: EngineMode, dir: &str) {
    let db = single(MemEnv::shared(), dir, mode);
    slow_subscriber_sees_exact_history(&db);
}

fn run_sharded(mode: EngineMode, dir: &str) {
    let db = sharded(MemEnv::shared(), dir, mode);
    slow_subscriber_sees_exact_history(&db);
}

#[test]
fn exact_history_db_scavenger() {
    run_single(EngineMode::Scavenger, "cdc-sc");
}

#[test]
fn exact_history_db_titan() {
    run_single(EngineMode::Titan, "cdc-ti");
}

#[test]
fn exact_history_db_terark() {
    run_single(EngineMode::Terark, "cdc-te");
}

#[test]
fn exact_history_shards_scavenger() {
    run_sharded(EngineMode::Scavenger, "cdc-sh-sc");
}

#[test]
fn exact_history_shards_titan() {
    run_sharded(EngineMode::Titan, "cdc-sh-ti");
}

#[test]
fn exact_history_shards_terark() {
    run_sharded(EngineMode::Terark, "cdc-sh-te");
}

#[test]
fn resume_across_churn_db() {
    let db = single(MemEnv::shared(), "cdc-res", EngineMode::Scavenger);
    resume_token_survives_churn(&db);
}

#[test]
fn resume_across_churn_shards() {
    let db = sharded(MemEnv::shared(), "cdc-res-sh", EngineMode::Scavenger);
    resume_token_survives_churn(&db);
}

/// Crash (drop without flush) mid-stream, reopen on the surviving
/// bytes, resume from the pre-crash token: the replayed remainder plus
/// the pre-crash head is exactly the synced committed history. Needs a
/// speculative retention budget — subscriber registrations do not
/// survive the process.
fn crash_resume(open: impl Fn(EnvRef, &str) -> Db, dir: &str) {
    let env = MemEnv::shared();
    let mut oracle = Oracle::new();
    let head;
    let token;
    {
        let db = open(env.clone(), dir);
        let opts = WriteOptions {
            sync: true,
            ..Default::default()
        };
        for round in 0..4u32 {
            for i in 0..12u32 {
                let k = key(i);
                let v = val(i, round);
                db.put_with(&opts, &k, v.clone()).unwrap();
                oracle.entry(k).or_default().push(Some(v));
            }
            db.flush().unwrap();
        }
        let mut s = db.subscribe_changes(SubscribeFrom::Oldest).unwrap();
        let mut h = Vec::new();
        while h.len() < 17 {
            h.extend(s.poll_changes(5).unwrap());
        }
        token = s.resume_token();
        head = h;
        // Crash: drop the handle with the stream still open — no
        // graceful close, no final flush.
    }

    let db = open(env, dir);
    let mut s = db.subscribe_changes(SubscribeFrom::Token(token)).unwrap();
    let tail = drain(&mut s);
    let mut all = head;
    all.extend(tail);
    assert_exact_history(&all, &oracle);
}

#[test]
fn crash_resume_db() {
    crash_resume(
        |env, dir| {
            let mut o = Options::new(env, dir, EngineMode::Scavenger);
            o.memtable_size = 8 * 1024;
            o.cdc_ring_bytes = 64 * 1024;
            o.cdc_retention = 64 * 1024 * 1024;
            Db::open(o).unwrap()
        },
        "cdc-crash",
    );
}

#[test]
fn crash_resume_shards() {
    crash_resume(
        |env, dir| {
            let mut so = ShardedOptions::new(env.clone(), dir, EngineMode::Scavenger);
            so.base = Options::new(env, dir, EngineMode::Scavenger);
            so.base.memtable_size = 8 * 1024;
            so.base.cdc_ring_bytes = 64 * 1024;
            so.base.cdc_retention = 64 * 1024 * 1024;
            so.num_shards = 4;
            DbShards::open(so).unwrap()
        },
        "cdc-crash-sh",
    );
}
