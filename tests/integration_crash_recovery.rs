//! Crash-recovery property harness: seeded random workloads against
//! both engine handles under fault injection.
//!
//! Each cycle wraps a fresh store in a [`FaultEnv`], drives a seeded op
//! sequence ([`scavenger_workload::crash`]), crashes at an injected
//! point (an op-count fuse on even cycles; a targeted power-loss rule
//! on WAL/manifest/SST/value-file I/O on odd cycles), reopens on the
//! surviving bytes, and checks:
//!
//! * reopen always succeeds — recovery never wedges on a torn tail;
//! * every synced acknowledged write (and everything older than the
//!   last acknowledged flush) survived;
//! * nothing partially applied or reordered is visible: the recovered
//!   state is a prefix of the op sequence (single `Db`) or per-key
//!   prefix-consistent (`DbShards`, whose shards persist WALs
//!   independently);
//! * the workload can resume on the reopened store and lands exactly
//!   on the model state.
//!
//! Cycle count and base seed come from `CRASH_CYCLES` / `CRASH_SEED`
//! (defaults: 200 cycles per engine × mode combination, seed
//! `0xdecaf`), so CI can pin seeds and crank coverage.

use scavenger::gc::GC_THRESHOLD;
use scavenger::{Db, DbShards, EngineMode, MemEnv, Options, ShardedOptions, WriteOptions};
use scavenger_env::{Env, EnvRef, FaultEnv, FaultKind, FaultOp, FaultRule, IoClass, Trigger};
use scavenger_workload::crash::{self, CrashOp, Model};
use std::sync::Arc;

fn cycles() -> u64 {
    std::env::var("CRASH_CYCLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
}

fn base_seed() -> u64 {
    std::env::var("CRASH_SEED")
        .ok()
        .and_then(|s| match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => s.parse().ok(),
        })
        .unwrap_or(0xdecaf)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Small-file options so 60 ops cross flush/compaction/GC boundaries.
fn small_opts(env: EnvRef, mode: EngineMode) -> Options {
    let mut o = Options::new(env, "db", mode);
    o.memtable_size = 16 * 1024;
    o.base_level_bytes = 64 * 1024;
    o.vsst_target_size = 32 * 1024;
    o.bg_retry_limit = 1;
    o.bg_retry_base = std::time::Duration::from_millis(1);
    o
}

fn open_single(env: EnvRef, mode: EngineMode) -> scavenger::Result<Db> {
    Db::open(small_opts(env, mode))
}

fn open_sharded(env: EnvRef, mode: EngineMode) -> scavenger::Result<DbShards> {
    let mut so = ShardedOptions::new(env.clone(), "db", mode);
    so.base = small_opts(env, mode);
    so.num_shards = 4;
    DbShards::open(so)
}

fn apply_op(db: &Db, op: &CrashOp) -> scavenger::Result<()> {
    match *op {
        CrashOp::Put {
            key,
            stamp,
            len,
            sync,
        } => db
            .put_with(
                &WriteOptions {
                    sync,
                    ..Default::default()
                },
                crash::key_bytes(key),
                crash::value_bytes(key, stamp, len),
            )
            .map(|_| ()),
        CrashOp::Delete { key, sync } => db
            .delete_with(
                &WriteOptions {
                    sync,
                    ..Default::default()
                },
                crash::key_bytes(key),
            )
            .map(|_| ()),
        CrashOp::Flush => db.flush(),
        CrashOp::Gc => db.run_gc().map(|_| ()),
        CrashOp::TxnBatch { keys, stamp, len } => {
            let mut batch = scavenger::WriteBatch::new();
            for k in keys {
                batch.put(
                    crash::txn_key_bytes(k),
                    bytes::Bytes::from(crash::value_bytes(k, stamp, len)),
                );
            }
            db.write_with(
                &WriteOptions {
                    sync: true,
                    ..Default::default()
                },
                batch,
            )
            .map(|_| ())
        }
    }
}

fn recovered_model(db: &Db, ctx: &str) -> Model {
    let mut m = Model::new();
    for entry in db
        .scan(b"", None)
        .unwrap_or_else(|e| panic!("{ctx}: scan failed after recovery: {e}"))
    {
        let e = entry.unwrap_or_else(|e| panic!("{ctx}: scan entry failed after recovery: {e}"));
        m.insert(e.key.clone(), e.value.to_vec());
    }
    m
}

/// Crash points targeted on odd cycles: power loss on the n-th matching
/// I/O op. Covers the WAL append/sync path, manifest writes, flush
/// (key-SST) writes, and the GC/flush value-file writes of every
/// format.
const CRASH_POINTS: &[(FaultOp, &str)] = &[
    (FaultOp::Write, ".log"),
    (FaultOp::Sync, ".log"),
    (FaultOp::Write, "MANIFEST"),
    (FaultOp::Sync, "MANIFEST"),
    (FaultOp::Write, ".sst"),
    (FaultOp::Sync, ".sst"),
    (FaultOp::Write, ".vsst"),
    (FaultOp::Write, ".blob"),
    (FaultOp::Rename, "CURRENT"),
    // 2PC coordinator log (sharded handle only; no-op on a single Db,
    // where the op-count fuse still forces a crash): power loss while
    // appending a Prepare/Commit record and during the prepare fsync.
    (FaultOp::Write, "COORD"),
    (FaultOp::Sync, "COORD"),
];

fn run_cycle<O: Fn(EnvRef) -> scavenger::Result<Db>>(
    open: &O,
    per_key_only: bool,
    seed: u64,
    cycle: u64,
    label: &str,
) {
    let ctx = format!("{label} seed={seed} cycle={cycle}");
    let mut rng = seed ^ cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let fault = FaultEnv::wrap(MemEnv::shared(), seed ^ cycle);
    let env: EnvRef = fault.clone();

    let ops = crash::gen_ops(seed ^ cycle, 60, 48);
    let db = open(env.clone()).unwrap_or_else(|e| panic!("{ctx}: clean open failed: {e}"));

    // Arm the crash point *after* open so the store always starts whole.
    if cycle.is_multiple_of(2) {
        fault.crash_after_ops(40 + splitmix64(&mut rng) % 600);
    } else {
        let (op, pat) = CRASH_POINTS[(splitmix64(&mut rng) as usize) % CRASH_POINTS.len()];
        fault.add_rule(FaultRule {
            op,
            path_contains: Some(pat.to_string()),
            trigger: Trigger::Nth(1 + splitmix64(&mut rng) % 8),
            kind: FaultKind::Crash,
            one_shot: true,
        });
    }

    let mut acked = 0usize;
    let mut failed = false;
    for op in &ops {
        match apply_op(&db, op) {
            Ok(()) => acked += 1,
            Err(_) => {
                failed = true;
                break;
            }
        }
    }
    // The op that observed the error may have partially landed; nothing
    // beyond it ran.
    let attempted = if failed { acked + 1 } else { acked };
    if !fault.crashed() {
        // The armed point never fired (or all ops survived it): force
        // power loss now so every cycle exercises recovery.
        fault.crash();
    }
    drop(db);
    fault.heal();

    let db = open(env.clone()).unwrap_or_else(|e| panic!("{ctx}: reopen after crash failed: {e}"));
    let recovered = recovered_model(&db, &ctx);
    let floor = crash::durable_floor(&ops, acked);
    // All-or-nothing: no crash point — including mid-2PC on the sharded
    // handle — may surface a partially applied txn batch.
    crash::check_txn_atomic(&recovered, &ops, acked, attempted)
        .unwrap_or_else(|e| panic!("{ctx}: txn batch atomicity violated: {e}"));
    let matched = if per_key_only {
        crash::check_per_key_consistent(&recovered, &ops, acked, attempted)
            .unwrap_or_else(|e| panic!("{ctx}: per-key consistency violated: {e}"));
        None
    } else {
        Some(
            crash::check_prefix_consistent(&recovered, &ops, floor, attempted)
                .unwrap_or_else(|e| panic!("{ctx}: prefix consistency violated: {e}")),
        )
    };

    // The store must accept and persist new work after recovery.
    let more = crash::gen_ops(seed ^ cycle ^ 0xab1e, 15, 48);
    for op in &more {
        apply_op(&db, op).unwrap_or_else(|e| panic!("{ctx}: post-recovery op failed: {e}"));
    }
    let mut expect = match matched {
        Some(k) => crash::apply_ops(&ops[..k]),
        None => recovered.clone(),
    };
    crash::apply_more(&mut expect, &more);
    let after = recovered_model(&db, &ctx);
    assert_eq!(after, expect, "{ctx}: post-recovery state diverged");
}

fn drive_single(mode: EngineMode) {
    let seed = base_seed();
    for cycle in 0..cycles() {
        run_cycle(
            &|env| open_single(env, mode),
            false,
            seed,
            cycle,
            &format!("Db/{mode:?}"),
        );
    }
}

fn drive_sharded(mode: EngineMode) {
    let seed = base_seed();
    for cycle in 0..cycles() {
        run_cycle(
            &|env| open_sharded(env, mode),
            true,
            seed,
            cycle,
            &format!("DbShards/{mode:?}"),
        );
    }
}

#[test]
fn crash_recovery_db_scavenger() {
    drive_single(EngineMode::Scavenger);
}

#[test]
fn crash_recovery_db_titan() {
    drive_single(EngineMode::Titan);
}

#[test]
fn crash_recovery_db_terark() {
    drive_single(EngineMode::Terark);
}

#[test]
fn crash_recovery_shards_scavenger() {
    drive_sharded(EngineMode::Scavenger);
}

#[test]
fn crash_recovery_shards_titan() {
    drive_sharded(EngineMode::Titan);
}

#[test]
fn crash_recovery_shards_terark() {
    drive_sharded(EngineMode::Terark);
}

/// A permanent background failure degrades the engine to read-only —
/// reads and scans keep working, writes fail fast with a typed error —
/// and `resume()` restores write availability once the fault clears.
#[test]
fn degraded_mode_serves_reads_and_resume_restores_writes() {
    let fault = FaultEnv::wrap(MemEnv::shared(), 0xfee1);
    let env: EnvRef = fault.clone();
    let db = open_single(env, EngineMode::Scavenger).unwrap();
    for i in 0..40u32 {
        db.put(crash::key_bytes(i), crash::value_bytes(i, 1, 700))
            .unwrap();
    }
    db.flush().unwrap();

    // Every key-SST write now fails: the next flush exhausts its
    // retries and degrades the engine.
    fault.add_rule(FaultRule {
        op: FaultOp::Write,
        path_contains: Some(".sst".to_string()),
        trigger: Trigger::Always,
        kind: FaultKind::Fail,
        one_shot: false,
    });
    for i in 40..80u32 {
        let _ = db.put(crash::key_bytes(i), crash::value_bytes(i, 1, 700));
    }
    let err = db.flush().expect_err("flush must fail under the fault");
    assert!(
        matches!(
            err,
            scavenger::Error::Io(_) | scavenger::Error::ReadOnlyMode(_)
        ),
        "unexpected error class: {err}"
    );
    assert!(db.is_degraded(), "engine must be degraded after retries");
    let stats = db.stats();
    assert!(stats.degraded);
    assert!(
        stats.bg_errors >= 1,
        "bg_errors gauge must count the failure"
    );
    assert!(stats.bg_retries >= 1, "transient failure must be retried");

    // Writes fail fast with the typed error; reads and scans still work.
    let werr = db
        .put(crash::key_bytes(0), crash::value_bytes(0, 2, 700))
        .expect_err("writes must fail in degraded mode");
    assert!(werr.is_read_only(), "got {werr}");
    assert!(db.shard(0).background_error().is_some());
    assert_eq!(
        db.get(crash::key_bytes(5)).unwrap().unwrap(),
        bytes::Bytes::from(crash::value_bytes(5, 1, 700))
    );
    assert!(db.scan(b"", None).unwrap().count() >= 40);

    // Clear the fault; resume re-verifies the manifest and re-enables
    // writes.
    fault.clear_rules();
    db.resume().expect("resume after the fault cleared");
    assert!(!db.is_degraded());
    assert!(db.shard(0).background_error().is_none());
    db.put(crash::key_bytes(0), crash::value_bytes(0, 3, 700))
        .unwrap();
    db.flush().unwrap();
    assert_eq!(
        db.get(crash::key_bytes(0)).unwrap().unwrap(),
        bytes::Bytes::from(crash::value_bytes(0, 3, 700))
    );
}

/// Puts `key(i)` for `i` from `from` on, each returning its receipt,
/// until the maintenance after one of them fails and degrades the store.
/// The next put fails fast with `ReadOnlyMode`; once `fault` clears, the
/// degraded store reads the landed put's value. Returns the landed key.
fn put_until_degraded(db: &Db, fault: &FaultEnv, from: u32, stamp: u64) -> u32 {
    let landed = (from..from + 400)
        .find(|&i| {
            db.put(crash::key_bytes(i), crash::value_bytes(i, stamp, 700))
                .unwrap_or_else(|e| panic!("put {i} failed: {e}"));
            db.is_degraded()
        })
        .expect("the fault degrades the store");
    let err = db
        .put(crash::key_bytes(0), crash::value_bytes(0, stamp, 700))
        .expect_err("the next write fails fast");
    assert!(err.is_read_only(), "got {err}");
    fault.clear_rules();
    assert_eq!(
        db.get(crash::key_bytes(landed)).unwrap().unwrap(),
        bytes::Bytes::from(crash::value_bytes(landed, stamp, 700))
    );
    landed
}

/// A put whose paced GC fails after the put landed returns its receipt;
/// the failure degrades the store, and `resume` restores writes once
/// the fault clears.
#[test]
fn a_put_whose_gc_fails_lands_and_degrades_the_store() {
    let fault = FaultEnv::wrap(MemEnv::shared(), 0xfee4);
    let env: EnvRef = fault.clone();
    let mut o = small_opts(env, EngineMode::Scavenger);
    o.auto_gc = true;
    let db = Db::open(o).unwrap();
    for stamp in 1..=3 {
        for i in 0..40u32 {
            db.put(crash::key_bytes(i), crash::value_bytes(i, stamp, 700))
                .unwrap();
        }
    }
    fault.add_rule(FaultRule {
        op: FaultOp::Read,
        path_contains: Some(".vsst".to_string()),
        trigger: Trigger::Always,
        kind: FaultKind::Fail,
        one_shot: false,
    });
    put_until_degraded(&db, &fault, 0, 4);
    let cause = db.shard(0).background_error().unwrap().to_string();
    assert!(cause.contains(".vsst"), "the GC read is the cause: {cause}");
    db.resume().expect("resume after the fault cleared");
    db.put(crash::key_bytes(0), crash::value_bytes(0, 5, 700))
        .unwrap();
    for i in 1..40u32 {
        assert!(db.get(crash::key_bytes(i)).unwrap().is_some());
    }
}

/// An inline flush that fails after the put that filled the memtable
/// landed: the put returns its receipt, the store degrades, and `resume`
/// restores writes once the fault clears.
#[test]
fn a_put_whose_inline_flush_fails_lands_and_degrades_the_store() {
    let fault = FaultEnv::wrap(MemEnv::shared(), 0xfee5);
    let env: EnvRef = fault.clone();
    let db = open_single(env, EngineMode::Scavenger).unwrap();
    for i in 0..40u32 {
        db.put(crash::key_bytes(i), crash::value_bytes(i, 1, 700))
            .unwrap();
    }
    db.flush().unwrap();
    fault.add_rule(FaultRule {
        op: FaultOp::Write,
        path_contains: Some(".sst".to_string()),
        trigger: Trigger::Always,
        kind: FaultKind::Fail,
        one_shot: false,
    });
    let landed = put_until_degraded(&db, &fault, 40, 1);
    db.resume().expect("resume after the fault cleared");
    db.put(crash::key_bytes(0), crash::value_bytes(0, 2, 700))
        .unwrap();
    db.flush().unwrap();
    for i in 1..=landed {
        assert!(db.get(crash::key_bytes(i)).unwrap().is_some(), "key {i}");
    }
}

/// A failed MANIFEST sync fails the flush whose edit it carried and
/// poisons the manifest; `resume()` then writes a fresh `MANIFEST-N`
/// holding the full snapshot and value-store history, swings `CURRENT`
/// to it and removes the poisoned file, and a reopen finds the same
/// version, value store and data.
#[test]
fn a_poisoned_manifest_is_rewritten_whole_on_resume() {
    let fault = FaultEnv::wrap(MemEnv::shared(), 0xfee3);
    let env: EnvRef = fault.clone();
    let mut o = small_opts(env.clone(), EngineMode::Scavenger);
    o.bg_retry_limit = 0;
    let db = Db::open(o.clone()).unwrap();
    let current = || {
        let name = env.read_file("db/CURRENT", IoClass::Manifest).unwrap();
        format!("db/{}", String::from_utf8_lossy(&name).trim())
    };
    for i in 0..44u32 {
        db.put(crash::key_bytes(i), crash::value_bytes(i, 1, 700))
            .unwrap();
        if i == 39 {
            db.flush().unwrap();
        }
    }
    let poisoned = current();
    fault.add_rule(FaultRule {
        op: FaultOp::Sync,
        path_contains: Some("MANIFEST".to_string()),
        trigger: Trigger::Nth(1),
        kind: FaultKind::Fail,
        one_shot: true,
    });
    db.flush().expect_err("the flush's manifest sync fails");
    assert!(db.is_degraded());
    assert_eq!(
        current(),
        poisoned,
        "nothing rotates before the next commit"
    );

    db.resume().expect("resume rewrites the poisoned manifest");
    let fresh = current();
    assert_ne!(fresh, poisoned);
    assert!(env.file_exists(&fresh));
    assert!(
        !env.file_exists(&poisoned),
        "the poisoned manifest is removed"
    );

    let state = |db: &Db| {
        let shard = db.shard(0);
        let levels: Vec<Vec<u64>> = shard
            .lsm()
            .current_version()
            .levels
            .iter()
            .map(|l| l.iter().map(|f| f.file_number).collect())
            .collect();
        let mut values: Vec<(u64, u64, u64)> = shard
            .value_store()
            .all_files()
            .iter()
            .map(|f| (f.file, f.size, f.entries))
            .collect();
        values.sort_unstable();
        (levels, values, recovered_model(db, "manifest rewrite"))
    };
    let before = state(&db);
    assert!(!before.1.is_empty(), "value files to recover");
    assert_eq!(before.2.len(), 44);
    drop(db);
    let db = Db::open(o).unwrap();
    assert_eq!(state(&db), before);
}

/// Same availability contract on a sharded store: one `resume` clears
/// every degraded shard.
#[test]
fn degraded_shard_set_resumes_through_the_trait() {
    let fault = FaultEnv::wrap(MemEnv::shared(), 0xfee2);
    let env: EnvRef = fault.clone();
    let db = open_sharded(env, EngineMode::Scavenger).unwrap();
    for i in 0..60u32 {
        db.put(crash::key_bytes(i), crash::value_bytes(i, 1, 700))
            .unwrap();
    }
    db.flush().unwrap();

    fault.add_rule(FaultRule {
        op: FaultOp::Write,
        path_contains: Some(".sst".to_string()),
        trigger: Trigger::Always,
        kind: FaultKind::Fail,
        one_shot: false,
    });
    for i in 60..120u32 {
        let _ = db.put(crash::key_bytes(i), crash::value_bytes(i, 1, 700));
    }
    let _ = db.flush().expect_err("flush must fail under the fault");
    assert!(db.is_degraded(), "at least one shard must be degraded");
    assert!(db.stats().degraded, "aggregate stats OR the shard gauges");
    // Reads still served (possibly minus the unsynced tail on the
    // degraded shard — but everything flushed earlier is there).
    assert!(db.scan(b"", None).unwrap().count() >= 60);

    fault.clear_rules();
    db.resume().expect("resume clears every shard");
    assert!(!db.is_degraded());
    db.put(crash::key_bytes(0), crash::value_bytes(0, 9, 700))
        .unwrap();
    db.flush().unwrap();
}

/// `heal()` without `crash()` must be a no-op on durability: a fault
/// env wrapped store that never crashes recovers everything, synced or
/// not (sanity check that the harness itself doesn't lose data).
#[test]
fn no_crash_cycle_loses_nothing() {
    let fault = FaultEnv::wrap(MemEnv::shared(), 0x900d);
    let env: EnvRef = fault.clone();
    let ops = crash::gen_ops(0x900d, 80, 32);
    {
        let db = open_single(env.clone(), EngineMode::Scavenger).unwrap();
        for op in &ops {
            apply_op(&db, op).unwrap();
        }
    }
    let db = open_single(env, EngineMode::Scavenger).unwrap();
    let recovered = recovered_model(&db, "no-crash");
    assert_eq!(recovered, crash::apply_ops(&ops));
    let _ = Arc::clone(&fault); // keep the env alive to the end
}

/// Value files on disk that the value store has not registered.
fn unregistered_value_files(env: &EnvRef, db: &Db) -> Vec<String> {
    let live = db.shard(0).value_store().live_file_numbers();
    env.list_prefix("db/")
        .unwrap()
        .into_iter()
        .filter(|p| {
            p.strip_prefix("db/")
                .and_then(|n| n.strip_suffix(".vsst").or_else(|| n.strip_suffix(".blob")))
                .is_some_and(|n| !live.contains(&n.parse().unwrap()))
        })
        .collect()
}

/// One memtable of separated values, flushed only when asked, into
/// value files small enough that a flush (or a GC job) writes several.
fn one_flush_opts(env: EnvRef) -> Options {
    let mut o = Options::new(env, "db", EngineMode::Scavenger);
    o.memtable_size = 1 << 20;
    o.vsst_target_size = 64 * 1024;
    o.auto_gc = false;
    o.bg_retry_base = std::time::Duration::from_millis(1);
    o
}

/// A flush that fails after writing its value files and succeeds on the
/// retry must not leave the first attempt's files behind: nothing
/// registers them, so GC never sees them and only the next open would
/// delete them, while the throttle counts their bytes.
#[test]
fn retried_flush_leaves_no_unregistered_value_files() {
    let fault = FaultEnv::wrap(MemEnv::shared(), 0x1eaf);
    let env: EnvRef = fault.clone();
    let db = Db::open(one_flush_opts(env.clone())).unwrap();
    for i in 0..200u32 {
        db.put(crash::key_bytes(i), crash::value_bytes(i, 1, 2048))
            .unwrap();
    }
    fault.add_rule(FaultRule {
        op: FaultOp::Write,
        path_contains: Some(".sst".to_string()),
        trigger: Trigger::Always,
        kind: FaultKind::Fail,
        one_shot: true,
    });
    db.flush().expect("the retry succeeds");
    assert!(db.stats().bg_retries >= 1, "the first attempt must fail");
    assert!(!db.shard(0).value_store().live_file_numbers().is_empty());
    assert_eq!(unregistered_value_files(&env, &db), Vec::<String>::new());
    for i in 0..200u32 {
        assert_eq!(
            db.get(crash::key_bytes(i)).unwrap().unwrap(),
            bytes::Bytes::from(crash::value_bytes(i, 1, 2048))
        );
    }
}

/// The GC twin: a job whose write stage fails part-way has finished
/// some output files and half-written another; none of them reaches the
/// manifest, so none may stay on disk — and the next job still collects.
#[test]
fn failed_gc_write_stage_leaves_no_unregistered_value_files() {
    let fault = FaultEnv::wrap(MemEnv::shared(), 0x1eb0);
    let env: EnvRef = fault.clone();
    let mut o = one_flush_opts(env.clone());
    o.vsst_target_size = 16 * 1024;
    o.gc_batch_files = 32;
    let db = Db::open(o).unwrap();
    for i in 0..200u32 {
        db.put(crash::key_bytes(i), crash::value_bytes(i, 1, 2048))
            .unwrap();
    }
    db.flush().unwrap();
    for i in (0..200u32).step_by(2) {
        db.put(crash::key_bytes(i), crash::value_bytes(i, 2, 2048))
            .unwrap();
    }
    db.flush().unwrap();
    // Merge the two runs so the overwritten versions are exposed.
    while db.shard(0).lsm().force_compact_once().unwrap() {}

    fault.add_rule(FaultRule {
        op: FaultOp::Write,
        path_contains: Some(".vsst".to_string()),
        trigger: Trigger::Nth(20),
        kind: FaultKind::Fail,
        one_shot: true,
    });
    db.run_gc().expect_err("the write stage must hit the fault");
    assert_eq!(unregistered_value_files(&env, &db), Vec::<String>::new());

    assert!(db.run_gc_until_clean().unwrap() > 0, "a clean job collects");
    assert_eq!(unregistered_value_files(&env, &db), Vec::<String>::new());
    for i in 0..200u32 {
        let version = if i % 2 == 0 { 2 } else { 1 };
        assert_eq!(
            db.get(crash::key_bytes(i)).unwrap().unwrap(),
            bytes::Bytes::from(crash::value_bytes(i, version, 2048))
        );
    }
}

/// 2,400 separated records in 16 KiB value files, every other key
/// overwritten and the garbage exposed: the first GC job spans three
/// pipeline batches, so it has written output by the time its last
/// batch is fetched.
fn three_batch_gc_job(env: EnvRef) -> Db {
    let mut o = one_flush_opts(env);
    o.memtable_size = 4 << 20;
    o.vsst_target_size = 16 * 1024;
    o.gc_batch_files = 256;
    let db = Db::open(o).unwrap();
    for i in 0..2400u32 {
        db.put(crash::key_bytes(i), crash::value_bytes(i, 1, 600))
            .unwrap();
    }
    db.flush().unwrap();
    for i in (0..2400u32).step_by(2) {
        db.put(crash::key_bytes(i), crash::value_bytes(i, 2, 600))
            .unwrap();
    }
    db.flush().unwrap();
    while db.shard(0).lsm().force_compact_once().unwrap() {}
    db
}

/// The read-side twin: a device error in step ③ — the last coalesced
/// fetch of a job whose earlier batches are already written — fails the
/// job with the env's error and leaves none of its output behind.
#[test]
fn failed_gc_fetch_stage_leaves_no_unregistered_value_files() {
    // The job's value-file reads, counted on a clean twin: opens and
    // index partitions first, then the fetches, batch by batch.
    let clean = MemEnv::shared();
    let twin = three_batch_gc_job(clean.clone());
    let before = clean.io_stats().snapshot();
    let outcome = twin
        .shard(0)
        .run_gc_at(GC_THRESHOLD)
        .unwrap()
        .expect("a candidate");
    assert!(outcome.records_rewritten > 1024, "more than one batch");
    let reads = clean
        .io_stats()
        .snapshot()
        .delta(&before)
        .class(scavenger::IoClass::GcRead)
        .read_ops;

    let fault = FaultEnv::wrap(MemEnv::shared(), 0x1eb1);
    let env: EnvRef = fault.clone();
    let db = three_batch_gc_job(env.clone());
    let files_before = db.shard(0).value_store().live_file_numbers();
    fault.add_rule(FaultRule {
        op: FaultOp::Read,
        path_contains: Some(".vsst".to_string()),
        trigger: Trigger::Nth(reads),
        kind: FaultKind::Fail,
        one_shot: true,
    });
    let err = db.run_gc().expect_err("the fetch stage must hit the fault");
    assert!(matches!(err, scavenger::Error::Io(_)), "{err}");
    assert_eq!(db.shard(0).value_store().live_file_numbers(), files_before);
    assert_eq!(unregistered_value_files(&env, &db), Vec::<String>::new());

    assert_eq!(
        db.shard(0).run_gc_at(GC_THRESHOLD).unwrap(),
        Some(outcome),
        "a clean job collects"
    );
    assert_eq!(unregistered_value_files(&env, &db), Vec::<String>::new());
    for i in 0..2400u32 {
        let version = if i % 2 == 0 { 2 } else { 1 };
        assert_eq!(
            db.get(crash::key_bytes(i)).unwrap().unwrap(),
            bytes::Bytes::from(crash::value_bytes(i, version, 600))
        );
    }
}

/// A writer already waiting on the immutable-memtable backlog when the
/// background thread gives up must be woken and fail with the typed
/// error, not wait for a `resume()` nobody may ever call. The retry
/// backoff (1.5 s in total) is what orders the two events: the writer
/// needs a few milliseconds to pile up three memtables while the
/// background thread sleeps between attempts.
#[test]
fn writer_stalled_when_engine_degrades_fails_fast() {
    let fault = FaultEnv::wrap(MemEnv::shared(), 0x57a1);
    let env: EnvRef = fault.clone();
    let mut o = small_opts(env, EngineMode::Scavenger);
    o.inline_background = false;
    o.bg_retry_limit = 4;
    o.bg_retry_base = std::time::Duration::from_millis(100);
    let db = Db::open(o).unwrap();
    fault.add_rule(FaultRule {
        path_contains: Some(".sst".to_string()),
        ..FaultRule::fail(FaultOp::Write)
    });
    let (tx, rx) = std::sync::mpsc::channel();
    let writer = {
        let db = db.clone();
        std::thread::spawn(move || {
            for i in 0u32.. {
                if let Err(e) = db.put(crash::key_bytes(i % 64), crash::value_bytes(i, 1, 700)) {
                    tx.send(e).unwrap();
                    return;
                }
            }
        })
    };
    let err = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a stalled writer must be woken when the engine degrades");
    assert!(err.is_read_only(), "got {err}");
    assert!(db.is_degraded());
    assert!(
        db.stats().write_stalls >= 1,
        "the writer must have been stalled when the engine degraded"
    );
    writer.join().unwrap();
}

/// Which job's MANIFEST append fails in
/// [`a_failed_commit_keeps_no_reader_and_its_outputs_go`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailedCommit {
    Flush,
    Compaction,
    GcPublish,
}

/// The numbers of the key SSTs and of the value files in `db/`.
fn files_on_disk(env: &EnvRef) -> (Vec<u64>, Vec<u64>) {
    let (mut ssts, mut values) = (Vec::new(), Vec::new());
    for path in env.list_prefix("db/").unwrap() {
        let name = path.strip_prefix("db/").unwrap();
        if let Some(n) = name.strip_suffix(".sst") {
            ssts.push(n.parse().unwrap());
        } else if let Some(n) = name.strip_suffix(".vsst") {
            values.push(n.parse().unwrap());
        }
    }
    ssts.sort_unstable();
    values.sort_unstable();
    (ssts, values)
}

/// The key SSTs and value files `db` lists as live.
fn live_files(db: &Db) -> (Vec<u64>, Vec<u64>) {
    let version = db.shard(0).lsm().current_version();
    let mut ssts: Vec<u64> = version
        .levels
        .iter()
        .flatten()
        .map(|f| f.file_number)
        .collect();
    ssts.sort_unstable();
    (ssts, db.shard(0).value_store().live_file_numbers())
}

/// A flush, a compaction or a GC publish whose MANIFEST append fails
/// after the job built its files keeps no reader of them: the readers a
/// job builds from its writers' bytes enter the table cache and the value
/// store only once its edit has committed. `resume` removes the outputs
/// (not before: until the manifest is rewritten, the failed edit may sit
/// in it), and a reopen opens every file from disk and reads the same
/// values.
#[test]
fn a_failed_commit_keeps_no_reader_and_its_outputs_go() {
    let check = |db: &Db, ctx: &str| {
        for i in 0..200u32 {
            let stamp = if i % 2 == 0 { 2 } else { 1 };
            assert_eq!(
                db.get(crash::key_bytes(i)).unwrap().unwrap(),
                bytes::Bytes::from(crash::value_bytes(i, stamp, 2048)),
                "{ctx}: key {i}"
            );
        }
    };
    for job in [
        FailedCommit::Flush,
        FailedCommit::Compaction,
        FailedCommit::GcPublish,
    ] {
        let fault = FaultEnv::wrap(MemEnv::shared(), 0x1eb1);
        let env: EnvRef = fault.clone();
        let mut o = one_flush_opts(env.clone());
        o.bg_retry_limit = 0;
        let db = Db::open(o.clone()).unwrap();
        for i in 0..200u32 {
            db.put(crash::key_bytes(i), crash::value_bytes(i, 1, 2048))
                .unwrap();
        }
        db.flush().unwrap();
        for i in (0..200u32).step_by(2) {
            db.put(crash::key_bytes(i), crash::value_bytes(i, 2, 2048))
                .unwrap();
        }
        if job != FailedCommit::Flush {
            db.flush().unwrap();
        }
        if job == FailedCommit::GcPublish {
            while db.shard(0).lsm().force_compact_once().unwrap() {}
        }
        let before = files_on_disk(&env);
        fault.add_rule(FaultRule {
            op: FaultOp::Write,
            path_contains: Some("MANIFEST".to_string()),
            trigger: Trigger::Nth(1),
            kind: FaultKind::Fail,
            one_shot: true,
        });
        let failed = match job {
            FailedCommit::Flush => db.flush().map(|_| ()),
            FailedCommit::Compaction => db.shard(0).lsm().force_compact_once().map(|_| ()),
            FailedCommit::GcPublish => db.run_gc().map(|_| ()),
        };
        assert!(failed.is_err(), "{job:?}: the commit fails");

        let (disk, live) = (files_on_disk(&env), live_files(&db));
        let outputs = |disk: &[u64], before: &[u64]| -> Vec<u64> {
            disk.iter()
                .copied()
                .filter(|n| !before.contains(n))
                .collect()
        };
        let sst_outputs = outputs(&disk.0, &before.0);
        let value_outputs = outputs(&disk.1, &before.1);
        let built = match job {
            FailedCommit::Flush => !sst_outputs.is_empty() && !value_outputs.is_empty(),
            FailedCommit::Compaction => !sst_outputs.is_empty() && value_outputs.is_empty(),
            FailedCommit::GcPublish => sst_outputs.is_empty() && !value_outputs.is_empty(),
        };
        assert!(
            built,
            "{job:?}: the job built {sst_outputs:?} / {value_outputs:?}"
        );
        let tables = db.shard(0).lsm().table_readers();
        let values = db.shard(0).value_store().reader_files();
        assert!(
            tables.iter().all(|n| !sst_outputs.contains(n)),
            "{job:?}: {tables:?}"
        );
        assert!(
            values.iter().all(|n| !value_outputs.contains(n)),
            "{job:?}: {values:?}"
        );
        assert!(
            values.iter().all(|n| live.1.contains(n)),
            "{job:?}: {values:?}"
        );

        db.resume().unwrap();
        db.flush().unwrap();
        let (disk, live) = (files_on_disk(&env), live_files(&db));
        assert_eq!(disk, live, "{job:?}: only live files stay on disk");
        assert!(
            sst_outputs.iter().all(|n| !disk.0.contains(n))
                && value_outputs.iter().all(|n| !disk.1.contains(n)),
            "{job:?}: the failed job's outputs are removed"
        );
        check(&db, &format!("{job:?}"));

        drop(db);
        let db = Db::open(o).unwrap();
        assert!(db.shard(0).lsm().table_readers().is_empty());
        assert!(db.shard(0).value_store().reader_files().is_empty());
        check(&db, &format!("{job:?} after a reopen"));
        assert_eq!(files_on_disk(&env), live_files(&db));
    }
}
