//! Threaded-background-mode integration: concurrent readers and writers
//! with flush/compaction on a background thread.
//!
//! Readers assert *strict* consistency: every read goes through a pinned
//! superversion with a registered read point, so a seeded key must never
//! transiently read as absent and no dangling-value retry exists to
//! paper over a lost version — any inconsistency fails the test
//! immediately.

use scavenger::{Db, EngineMode, MemEnv, Options};
use scavenger_env::EnvRef;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn threaded_opts(env: EnvRef, mode: EngineMode) -> Options {
    let mut o = Options::new(env, "db", mode);
    o.memtable_size = 32 * 1024;
    o.base_level_bytes = 128 * 1024;
    o.inline_background = false;
    o
}

#[test]
fn concurrent_readers_during_writes() {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(threaded_opts(env, EngineMode::Scavenger)).unwrap();
    // Seed.
    for i in 0..200u64 {
        db.put(format!("k{i:04}"), encode(i, 0)).unwrap();
    }
    db.flush().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for t in 0..3 {
        let db = db.clone();
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let mut checked = 0u64;
            let mut i = t as u64;
            while !stop.load(Ordering::Relaxed) {
                let key = format!("k{:04}", i % 200);
                // Strict: the key was seeded and is never deleted, so a
                // `None` would mean a reader observed a torn state (the
                // pre-view engine tolerated transient `None` here).
                let v = db
                    .get(&key)
                    .unwrap()
                    .unwrap_or_else(|| panic!("strict consistency violated: {key} read as absent"));
                let (k, _ver) = decode(&v);
                assert_eq!(k, i % 200, "reader saw torn value");
                checked += 1;
                i += 7;
            }
            checked
        }));
    }

    // Writer churns versions.
    for round in 1..=20u64 {
        for i in 0..200u64 {
            db.put(format!("k{i:04}"), encode(i, round)).unwrap();
        }
    }
    db.flush().unwrap();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let checked = r.join().unwrap();
        assert!(checked > 0, "readers made progress");
    }
    // Final state correct.
    for i in 0..200u64 {
        let (k, ver) = decode(&db.get(format!("k{i:04}")).unwrap().unwrap());
        assert_eq!(k, i);
        assert_eq!(ver, 20);
    }
}

/// A pinned view taken mid-churn keeps reading its exact epoch while
/// writers, flushes, and compactions proceed underneath it.
#[test]
fn pinned_views_stay_consistent_during_churn() {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(threaded_opts(env, EngineMode::Scavenger)).unwrap();
    for i in 0..100u64 {
        db.put(format!("k{i:03}"), encode(i, 0)).unwrap();
    }
    db.flush().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..2 {
        let db = db.clone();
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let mut pinned_reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Pin an epoch, then verify every key reads a version
                // from *one* round (the view must never mix epochs).
                let view = db.view();
                let mut round = None;
                for i in (0..100u64).step_by(13) {
                    let v = view
                        .get(format!("k{i:03}"))
                        .unwrap()
                        .expect("pinned view lost a seeded key");
                    let (k, ver) = decode(&v);
                    assert_eq!(k, i);
                    match round {
                        None => round = Some(ver),
                        // Writers fill rounds key-by-key, so a pinned
                        // view may straddle two *adjacent* rounds — but
                        // never resurrect older epochs or see the future.
                        Some(r) => assert!(
                            ver == r || ver + 1 == r || ver == r + 1,
                            "view mixed epochs: {ver} vs {r}"
                        ),
                    }
                    pinned_reads += 1;
                }
            }
            pinned_reads
        }));
    }

    for round in 1..=15u64 {
        for i in 0..100u64 {
            db.put(format!("k{i:03}"), encode(i, round)).unwrap();
        }
    }
    db.flush().unwrap();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }
}

#[test]
fn concurrent_writers_interleave_safely() {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(threaded_opts(env, EngineMode::Terark)).unwrap();
    let mut writers = Vec::new();
    for t in 0..4u64 {
        let db = db.clone();
        writers.push(std::thread::spawn(move || {
            for i in 0..300u64 {
                let key = format!("t{t}-k{i:04}");
                db.put(key, encode(i, t)).unwrap();
            }
        }));
    }
    for w in writers {
        w.join().unwrap();
    }
    db.flush().unwrap();
    for t in 0..4u64 {
        for i in (0..300u64).step_by(17) {
            let v = db.get(format!("t{t}-k{i:04}")).unwrap().unwrap();
            let (k, ver) = decode(&v);
            assert_eq!((k, ver), (i, t));
        }
    }
}

#[test]
fn snapshot_isolation_under_concurrent_churn() {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(threaded_opts(env, EngineMode::Scavenger)).unwrap();
    for i in 0..100u64 {
        db.put(format!("k{i:03}"), encode(i, 0)).unwrap();
    }
    db.flush().unwrap();
    let snap = db.snapshot();

    let db2 = db.clone();
    let churn = std::thread::spawn(move || {
        for round in 1..=10u64 {
            for i in 0..100u64 {
                db2.put(format!("k{i:03}"), encode(i, round)).unwrap();
            }
        }
    });
    // Snapshot reads stay at version 0 throughout.
    for _ in 0..200 {
        let v = snap.get("k037").unwrap().unwrap();
        assert_eq!(decode(&v), (37, 0));
    }
    churn.join().unwrap();
    let v = snap.get("k037").unwrap().unwrap();
    assert_eq!(decode(&v), (37, 0));
    drop(snap);
}

fn encode(key: u64, version: u64) -> Vec<u8> {
    let mut v = vec![0u8; 2048];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

fn decode(v: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(v[..8].try_into().unwrap()),
        u64::from_le_bytes(v[8..16].try_into().unwrap()),
    )
}
