//! Group-commit write-path integration: multi-writer batches through
//! the public `Db`/`DbShards` surface must keep contiguous per-batch
//! sequence ranges and lose nothing whatever groups form, and a failed
//! group fsync must degrade the *whole* group — never a partial batch —
//! with post-crash recovery still honoring the durable-floor oracle.

use scavenger::{
    Db, DbShards, EngineMode, MemEnv, Options, ShardedOptions, WriteBatch, WriteOptions,
    WriteReceipt,
};
use scavenger_env::{
    Env, EnvRef, FaultEnv, FaultKind, FaultOp, FaultRule, IoClass, IoStats, RandomAccessFile,
    Trigger, WritableFile,
};
use scavenger_util::Result;
use scavenger_workload::crash::{self, CrashOp, Model};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// `MemEnv` whose `sync()` takes as long as a fast device's: a group
/// leader is then off the CPU mid-commit while the next writers arrive,
/// so commit groups form from queueing, not from how many cores the
/// scheduler has to hand out.
struct SlowSyncEnv(EnvRef);

struct SlowSyncFile(Box<dyn WritableFile>);

impl WritableFile for SlowSyncFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.0.append(data)
    }
    fn sync(&mut self) -> Result<()> {
        std::thread::sleep(Duration::from_micros(200));
        self.0.sync()
    }
    fn len(&self) -> u64 {
        self.0.len()
    }
}

impl Env for SlowSyncEnv {
    fn new_writable(&self, path: &str, class: IoClass) -> Result<Box<dyn WritableFile>> {
        Ok(Box::new(SlowSyncFile(self.0.new_writable(path, class)?)))
    }
    fn open_random_access(&self, path: &str, class: IoClass) -> Result<Arc<dyn RandomAccessFile>> {
        self.0.open_random_access(path, class)
    }
    fn read_file(&self, path: &str, class: IoClass) -> Result<scavenger::Bytes> {
        self.0.read_file(path, class)
    }
    fn remove_file(&self, path: &str) -> Result<()> {
        self.0.remove_file(path)
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.0.rename(from, to)
    }
    fn file_exists(&self, path: &str) -> bool {
        self.0.file_exists(path)
    }
    fn file_size(&self, path: &str) -> Result<u64> {
        self.0.file_size(path)
    }
    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>> {
        self.0.list_prefix(prefix)
    }
    fn create_dir_all(&self, path: &str) -> Result<()> {
        self.0.create_dir_all(path)
    }
    fn io_stats(&self) -> Arc<IoStats> {
        self.0.io_stats()
    }
}

fn plain_opts(env: EnvRef) -> Options {
    let mut o = Options::new(env, "db", EngineMode::Scavenger);
    // Keep sequence arithmetic exact: no GC write-back consuming
    // sequence numbers behind the test's back.
    o.auto_gc = false;
    o
}

/// Small-file options matching the crash-recovery harness, so the
/// oracle run crosses flush boundaries.
fn small_opts(env: EnvRef) -> Options {
    let mut o = Options::new(env, "db", EngineMode::Scavenger);
    o.memtable_size = 16 * 1024;
    o.base_level_bytes = 64 * 1024;
    o.vsst_target_size = 32 * 1024;
    o.bg_retry_limit = 1;
    o.bg_retry_base = std::time::Duration::from_millis(1);
    o
}

/// Drive `threads` writers, each committing `per_thread` two-entry
/// batches with alternating sync, and verify receipts and data; returns
/// the final stats for contention assertions.
fn stress_round(threads: usize, per_thread: usize) -> scavenger::DbStats {
    let env: EnvRef = Arc::new(SlowSyncEnv(MemEnv::shared()));
    let db = Db::open(plain_opts(env)).unwrap();
    let barrier = Barrier::new(threads);
    let receipts: Vec<(usize, usize, bool, WriteReceipt)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let db = db.clone();
            let barrier = &barrier;
            handles.push(s.spawn(move || {
                barrier.wait();
                let mut out = Vec::new();
                for i in 0..per_thread {
                    let mut b = WriteBatch::new();
                    b.put(
                        format!("t{t:02}k{i:04}").as_bytes(),
                        scavenger::Bytes::from(vec![t as u8; 32]),
                    );
                    b.put(
                        format!("t{t:02}k{i:04}x").as_bytes(),
                        scavenger::Bytes::from(vec![i as u8; 32]),
                    );
                    let sync = i % 2 == 0;
                    let r = db.write_with(&WriteOptions::with_sync(sync), b).unwrap();
                    out.push((t, i, sync, r));
                }
                out
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    // Contiguous ranges: every batch owns a 2-sequence range ending at
    // its receipt seq, the ends are unique, and the ranges tile the
    // whole span without gap or overlap.
    let mut ends: Vec<u64> = receipts.iter().map(|(_, _, _, r)| r.seq).collect();
    ends.sort_unstable();
    ends.dedup();
    assert_eq!(ends.len(), threads * per_thread, "duplicated receipt seq");
    for pair in ends.windows(2) {
        assert_eq!(pair[1] - pair[0], 2, "2-entry batches must tile the range");
    }
    // Receipts honor the requested durability: a sync rider is always
    // covered (it may additionally cover nosync groupmates).
    for (t, i, sync, r) in &receipts {
        assert!(r.group_len >= 1, "t{t} i{i}: committed batch in no group");
        if *sync {
            assert!(r.synced, "t{t} i{i}: sync write without fsync coverage");
        }
    }
    // No lost keys, no torn values.
    for (t, i, _, _) in &receipts {
        let v = db.get(format!("t{t:02}k{i:04}")).unwrap().unwrap();
        assert_eq!(&v[..], &vec![*t as u8; 32][..], "t{t} i{i}: wrong value");
    }
    // No invented keys either: the scan sees exactly the written set.
    let mut it = db.scan(b"", None).unwrap();
    let mut n = 0usize;
    while it.next_entry().unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, threads * per_thread * 2, "scan key count mismatch");

    let stats = db.stats();
    assert_eq!(stats.group_commit_batches, (threads * per_thread) as u64);
    assert!(stats.group_commit_groups >= 1);
    assert!(stats.group_commit_groups <= stats.group_commit_batches);
    stats
}

/// Whether contending writers actually share a group depends on the
/// scheduler; the group-commit unit tests in `scavenger-lsm`
/// (`crates/lsm/src/group.rs`) stage it deterministically. Here the
/// properties hold whatever the grouping.
fn assert_contention_keeps_ranges_and_data(threads: usize, per_thread: usize) {
    let stats = stress_round(threads, per_thread);
    // Only sync riders can amortize an fsync away.
    let sync_writes = (threads * per_thread / 2) as u64;
    assert!(stats.group_commit_fsyncs_saved <= sync_writes);
}

#[test]
fn four_writers_form_groups_with_contiguous_ranges() {
    assert_contention_keeps_ranges_and_data(4, 200);
}

#[test]
fn eight_writers_form_groups_with_contiguous_ranges() {
    assert_contention_keeps_ranges_and_data(8, 200);
}

/// A failed group fsync fails every member of the group and none of it
/// reaches the memtable; after a crash the group is torn as a unit —
/// either every NACKed write recovered (the single WAL record survived)
/// or none did — while every acked sync write survives.
#[test]
fn fsync_failure_degrades_the_whole_group() {
    let fault = FaultEnv::wrap(MemEnv::shared(), 0x6f51);
    let env: EnvRef = fault.clone();
    let db = Db::open(plain_opts(env.clone())).unwrap();
    // Durable baseline before the fault arms (puts default to sync).
    for i in 0..8u32 {
        db.put(format!("base{i:02}"), vec![i as u8; 64]).unwrap();
    }
    // The next WAL fsync fails once; the write path must poison that
    // WAL and rotate away from it (fsyncgate), not retry the sync.
    fault.add_rule(FaultRule {
        op: FaultOp::Sync,
        path_contains: Some(".log".to_string()),
        trigger: Trigger::Nth(1),
        kind: FaultKind::Fail,
        one_shot: true,
    });

    let threads = 4usize;
    let per_thread = 16usize;
    let barrier = Barrier::new(threads);
    let results: Vec<(String, Vec<u8>, bool)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let db = db.clone();
            let barrier = &barrier;
            handles.push(s.spawn(move || {
                barrier.wait();
                let mut out = Vec::new();
                for i in 0..per_thread {
                    let key = format!("t{t}k{i:03}");
                    let value = vec![(t * 32 + i) as u8; 128];
                    let acked = db
                        .put_with(&WriteOptions::with_sync(true), &key, value.clone())
                        .is_ok();
                    out.push((key, value, acked));
                }
                out
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let nacked: Vec<_> = results.iter().filter(|(_, _, acked)| !acked).collect();
    assert!(!nacked.is_empty(), "armed fsync failure never surfaced");
    // Group-scoped failure: a NACKed write must not be readable — the
    // failed group never reached the memtable, partially or otherwise.
    for (key, _, _) in &nacked {
        assert_eq!(
            db.get(key).unwrap(),
            None,
            "{key}: NACKed write visible before crash"
        );
    }
    for (key, value, acked) in &results {
        if *acked {
            assert_eq!(
                db.get(key).unwrap().as_deref(),
                Some(&value[..]),
                "{key}: acked write lost before crash"
            );
        }
    }

    fault.crash();
    drop(db);
    fault.heal();
    let db = Db::open(plain_opts(env)).unwrap();

    // Every acked write was fsync-covered and must have survived.
    for i in 0..8u32 {
        assert_eq!(
            db.get(format!("base{i:02}")).unwrap().as_deref(),
            Some(&vec![i as u8; 64][..]),
            "baseline write lost"
        );
    }
    for (key, value, acked) in &results {
        if *acked {
            assert_eq!(
                db.get(key).unwrap().as_deref(),
                Some(&value[..]),
                "{key}: synced write lost across crash"
            );
        }
    }
    // Torn as a unit: the failed group is one WAL record, so recovery
    // must resurrect all of its members or none of them.
    let mut survivors = 0usize;
    for (key, value, _) in &nacked {
        if let Some(v) = db.get(key).unwrap() {
            assert_eq!(&v[..], &value[..], "{key}: torn value recovered");
            survivors += 1;
        }
    }
    assert!(
        survivors == 0 || survivors == nacked.len(),
        "failed group partially recovered: {survivors} of {} members",
        nacked.len()
    );
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

fn recovered_model(db: &Db) -> Model {
    let mut m = Model::new();
    for entry in db.scan(b"", None).expect("scan after recovery") {
        let e = entry.expect("scan entry after recovery");
        m.insert(e.key.clone(), e.value.to_vec());
    }
    m
}

/// A mid-stream WAL fsync failure (the write is NACKed, the store keeps
/// running on a rotated WAL) followed by power loss still recovers to a
/// state the durable-floor oracle accepts: every synced acknowledged
/// write survives, nothing partially applied or reordered shows up.
#[test]
fn fsync_failure_then_crash_matches_durable_floor_oracle() {
    let seed = 0x6f52u64;
    let fault = FaultEnv::wrap(MemEnv::shared(), seed);
    let env: EnvRef = fault.clone();
    let ops = crash::gen_ops(seed, 80, 32);
    let db = Db::open(small_opts(env.clone())).unwrap();
    fault.add_rule(FaultRule {
        op: FaultOp::Sync,
        path_contains: Some(".log".to_string()),
        trigger: Trigger::Nth(3),
        kind: FaultKind::Fail,
        one_shot: true,
    });

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
    assert!(
        failed,
        "armed fsync failure never surfaced in {} ops",
        acked
    );
    let attempted = acked + 1;

    // Ride out the failure, then lose power and reopen on the
    // surviving bytes.
    fault.crash();
    drop(db);
    fault.heal();
    let db = Db::open(small_opts(env)).unwrap();
    let recovered = recovered_model(&db);
    let floor = crash::durable_floor(&ops, acked);
    let matched = crash::check_prefix_consistent(&recovered, &ops, floor, attempted)
        .unwrap_or_else(|e| panic!("seed={seed}: durable-floor oracle violated: {e}"));

    // The reopened store accepts new work on top of the matched prefix.
    let more = crash::gen_ops(seed ^ 0xab1e, 15, 32);
    for op in &more {
        apply_op(&db, op).unwrap_or_else(|e| panic!("post-recovery op failed: {e}"));
    }
    let mut expect = crash::apply_ops(&ops[..matched]);
    crash::apply_more(&mut expect, &more);
    assert_eq!(recovered_model(&db), expect, "post-recovery state diverged");
}

/// Sharded group-commit counters aggregate across shards, and a
/// multi-shard batch write returns one coherent aggregate receipt.
#[test]
fn sharded_stats_aggregate_group_commit_counters() {
    let env: EnvRef = MemEnv::shared();
    let mut so = ShardedOptions::new(env.clone(), "db", EngineMode::Scavenger);
    so.base = plain_opts(env);
    so.num_shards = 4;
    let db = DbShards::open(so).unwrap();
    for i in 0..64u32 {
        let r = db
            .put_with(
                &WriteOptions::with_sync(i % 2 == 0),
                format!("k{i:03}"),
                vec![i as u8; 64],
            )
            .unwrap();
        if i % 2 == 0 {
            assert!(r.synced, "k{i:03}: sync put without fsync coverage");
        }
    }
    // One batch fanned out to every shard: the aggregate receipt is
    // synced only if every shard covered its slice.
    let mut b = WriteBatch::new();
    for i in 0..16u32 {
        b.put(
            format!("fan{i:02}").as_bytes(),
            scavenger::Bytes::from(vec![i as u8; 32]),
        );
    }
    let r = db.write_with(&WriteOptions::default(), b).unwrap();
    assert!(r.synced, "default options are durable");
    assert!(r.group_len >= 1);
    assert!(r.seq > 0);

    let stats = db.stats();
    assert!(
        stats.group_commit_batches >= 64,
        "every shard-level commit counts as a batch"
    );
    assert!(stats.group_commit_groups >= 1);
    assert!(stats.group_commit_groups <= stats.group_commit_batches);
    assert!(stats.group_commit_max_group >= 1);
}
