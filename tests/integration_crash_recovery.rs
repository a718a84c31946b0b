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
use scavenger_env::{Env, EnvRef, FaultEnv, FaultKind, FaultOp, FaultRule, Trigger};
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
