//! GC executor equivalence: serial file I/O (`gc_threads = 1`) and the
//! parallel fetch pool (`gc_threads = 4`) must be *bit-identical* — same
//! `GcOutcome` sequence, same surviving records, same hot/cold file
//! routing — under overwrites, deletes, snapshots pinning old versions,
//! and inheritance chains built by repeated GC; and one op sequence must
//! always produce the same value-file bytes, whether a job runs its
//! stages inline (one batch) or overlapped (several).

use proptest::prelude::*;
use scavenger::gc::GC_THRESHOLD;
use scavenger::{Db, EngineMode, GcOutcome, MemEnv, Options};
use scavenger_env::EnvRef;

fn opts(env: EnvRef, mode: EngineMode, threads: usize) -> Options {
    let mut o = Options::new(env, "db", mode);
    o.memtable_size = 8 * 1024;
    o.vsst_target_size = 32 * 1024;
    o.base_level_bytes = 64 * 1024;
    o.ksst_target_size = 16 * 1024;
    o.auto_gc = false;
    o.gc_threads = threads;
    o
}

/// Options under which one GC job spans several pipeline batches:
/// flushes happen only when asked, so the records sit in a few large
/// value files, all of which one job may pick up.
fn big_job_opts(env: EnvRef, mode: EngineMode, threads: usize) -> Options {
    let mut o = opts(env, mode, threads);
    o.memtable_size = 64 << 20; // flush only when asked
    o.vsst_target_size = 1 << 20;
    o.ksst_target_size = 256 * 1024;
    o.base_level_bytes = 16 << 20;
    o.gc_batch_files = 8;
    o
}

/// Load `n` separated values across `slices` flushes, overwrite every
/// other key, and push the garbage down so it is exposed: each source
/// file is left with a ~50% live mix, and the first GC job covers more
/// records than one pipeline batch holds. A slice is a contiguous key
/// range, or, `interleaved`, every `slices`-th key, so that each source
/// file spans the whole key range as random updates leave them.
fn load_big_job(db: &Db, n: usize, slices: usize, interleaved: bool) {
    let per = n / slices;
    for s in 0..slices {
        let keys: Vec<usize> = if interleaved {
            (s..n).step_by(slices).collect()
        } else {
            ((s * per)..(s + 1) * per).collect()
        };
        for i in keys {
            db.put(format!("key{i:06}"), value(i, 700)).unwrap();
        }
        db.flush().unwrap();
    }
    for i in (0..n).step_by(2) {
        db.put(format!("key{i:06}"), value(9000 + i, 700)).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    let mut forced = 0;
    while db.shard(0).lsm().force_compact_once().unwrap() {
        forced += 1;
        assert!(forced < 1024, "runaway forced compaction");
    }
}

fn value(i: usize, len: usize) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; len];
    v[0] = (i >> 8) as u8;
    v
}

/// `(key, latest value, snapshot view)` for one surviving record.
type Survivor = (Vec<u8>, Vec<u8>, Option<Vec<u8>>);

/// `(file, hot, entries, size)` for every live value file — the full
/// observable result of hot/cold routing and write batching.
type FileSet = Vec<(u64, bool, u64, u64)>;

fn surviving_records(db: &Db, snap: Option<&scavenger::Snapshot>) -> Vec<Survivor> {
    let mut out = Vec::new();
    let mut it = db.scan(b"", None).unwrap();
    while let Some(e) = it.next_entry().unwrap() {
        // Pinned read through the snapshot when one is held; otherwise
        // the latest state (nothing writes concurrently here, so that
        // is the same epoch the scan observed).
        let snap_view = match snap {
            Some(s) => s.get(&e.key).unwrap(),
            None => db.get(&e.key).unwrap(),
        }
        .map(|b| b.to_vec());
        out.push((e.key, e.value.to_vec(), snap_view));
    }
    out
}

fn value_file_set(db: &Db) -> FileSet {
    let mut files: FileSet = db
        .shard(0)
        .value_store()
        .all_files()
        .iter()
        .map(|m| (m.file, m.hot, m.entries, m.size))
        .collect();
    files.sort();
    files
}

/// Drive one full workload: load, overwrite (hot skew), delete,
/// snapshot-pin, then GC to a fixed point — twice, so the second round
/// collects records that already live behind inheritance edges.
fn run_workload(mode: EngineMode, threads: usize) -> (Vec<GcOutcome>, Vec<Survivor>, FileSet) {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(opts(env, mode, threads)).unwrap();

    for i in 0..120 {
        db.put(format!("key{i:03}"), value(i, 2048)).unwrap();
    }
    db.flush().unwrap();
    let snap = db.snapshot();
    for round in 1..=3 {
        for i in 0..60 {
            db.put(format!("key{i:03}"), value(round * 1000 + i, 2048))
                .unwrap();
        }
        db.flush().unwrap();
    }
    for i in (90..120).step_by(2) {
        db.delete(format!("key{i:03}")).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();

    let mut outcomes = Vec::new();
    while let Some(out) = db.shard(0).run_gc_at(0.05).unwrap() {
        outcomes.push(out);
        assert!(outcomes.len() < 256, "runaway GC");
    }
    for i in 0..40 {
        db.put(format!("key{i:03}"), value(7000 + i, 2048)).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    while let Some(out) = db.shard(0).run_gc_at(0.05).unwrap() {
        outcomes.push(out);
        assert!(outcomes.len() < 256, "runaway GC");
    }

    let survivors = surviving_records(&db, Some(&snap));
    let files = value_file_set(&db);
    drop(snap);
    (outcomes, survivors, files)
}

fn assert_executors_equivalent(mode: EngineMode) {
    let (base_outcomes, base_survivors, base_files) = run_workload(mode, 1);
    assert!(
        !base_outcomes.is_empty(),
        "{mode:?}: workload must trigger GC jobs"
    );
    let (outcomes, survivors, files) = run_workload(mode, 4);
    assert_eq!(
        base_outcomes, outcomes,
        "{mode:?}: parallel fetch changed the GcOutcome sequence"
    );
    assert_eq!(
        base_survivors, survivors,
        "{mode:?}: parallel fetch changed the surviving record set"
    );
    assert_eq!(
        base_files, files,
        "{mode:?}: parallel fetch changed the value-file set (hot/cold routing, \
         rollover boundaries, file numbers)"
    );
}

#[test]
fn scavenger_executors_equivalent() {
    assert_executors_equivalent(EngineMode::Scavenger);
}

#[test]
fn terark_executors_equivalent() {
    assert_executors_equivalent(EngineMode::Terark);
}

#[test]
fn titan_executors_equivalent() {
    assert_executors_equivalent(EngineMode::Titan);
}

/// "Enabled" is decided per job from its size: a job that fits in one
/// batch runs its stages inline and leaves the pipeline counters alone;
/// a larger one flows through the overlapped executor — under every
/// standalone scheme, Titan's write-back included — and still rewrites
/// exactly the live records. Overlap itself is asserted only in the
/// multi-core CI smoke below — on a single-core runner the scheduler may
/// serialize the stage threads.
#[test]
fn pipeline_counters_move_only_when_enabled() {
    let small = Db::open(opts(MemEnv::shared(), EngineMode::Scavenger, 4)).unwrap();
    for i in 0..120 {
        small.put(format!("key{i:03}"), value(i, 2048)).unwrap();
    }
    small.flush().unwrap();
    // Overwrite alternating keys: every value file keeps a live/dead
    // mix, so GC actually rewrites (and batches) survivors.
    for round in 0..3 {
        for i in (0..120).step_by(2) {
            small
                .put(format!("key{i:03}"), value(round * 200 + i, 2048))
                .unwrap();
        }
        small.flush().unwrap();
    }
    small.compact_all().unwrap();
    assert!(small.run_gc_until_clean().unwrap() > 0);
    let gc = small.stats().gc;
    assert_eq!(gc.pipeline_jobs, 0, "one-batch jobs run inline");
    assert_eq!(gc.pipeline_batches, 0);
    assert_eq!(gc.pipeline_overlaps, 0);

    // Titan also runs over interleaved slices: its batches keep scan
    // order, so there every batch spans the key range, and a job that
    // validated batch by batch would sweep the index once per file.
    for (mode, interleaved) in [
        (EngineMode::Scavenger, false),
        (EngineMode::Terark, false),
        (EngineMode::Titan, false),
        (EngineMode::Titan, true),
    ] {
        let big = Db::open(big_job_opts(MemEnv::shared(), mode, 4)).unwrap();
        let n = 6_000;
        load_big_job(&big, n, 3, interleaved);
        let out = big
            .shard(0)
            .run_gc_at(GC_THRESHOLD)
            .unwrap()
            .expect("garbage is exposed");
        let gc = big.stats().gc;
        assert_eq!(
            gc.pipeline_jobs, 1,
            "{mode:?}: a multi-batch job must overlap"
        );
        assert!(
            gc.pipeline_batches > 1,
            "{mode:?}: job must span several batches (got {})",
            gc.pipeline_batches
        );
        if mode == EngineMode::Titan {
            // Titan validates its whole pending set, one sorted sweep
            // per read point, before the batches are cut.
            assert_eq!(gc.validate_batches, 1, "{mode:?}: one validation per job");
        }
        assert_eq!(out.records_rewritten, gc.records_valid, "{mode:?}");
        assert_eq!(
            gc.records_valid,
            gc.records_scanned - (n / 2) as u64,
            "{mode:?}"
        );
        for i in 0..n {
            let tag = if i % 2 == 0 { 9000 + i } else { i };
            assert_eq!(
                big.get(format!("key{i:06}")).unwrap().unwrap(),
                bytes::Bytes::from(value(tag, 700)),
                "{mode:?}: key{i:06} after an overlapped job"
            );
        }
    }
}

/// The same op sequence run twice yields byte-identical value files
/// under identical file numbers — through an overlapped multi-batch job
/// with the fetch pool on, so neither thread scheduling nor batch
/// hand-off order leaks into what GC writes.
#[test]
fn same_ops_yield_byte_identical_value_files() {
    let run = || {
        let env: EnvRef = MemEnv::shared();
        let db = Db::open(big_job_opts(env.clone(), EngineMode::Scavenger, 4)).unwrap();
        load_big_job(&db, 6_000, 3, false);
        db.run_gc_until_clean().unwrap();
        assert!(db.stats().gc.pipeline_jobs > 0, "overlapped path must run");
        let files: Vec<(String, Vec<u8>)> = env
            .list_prefix("db/")
            .unwrap()
            .into_iter()
            .filter(|p| p.ends_with(".vsst") || p.ends_with(".blob"))
            .map(|p| {
                let bytes = env.read_file(&p, scavenger_env::IoClass::Other).unwrap();
                (p, bytes.to_vec())
            })
            .collect();
        (files, value_file_set(&db))
    };
    let (files_a, set_a) = run();
    let (files_b, set_b) = run();
    assert!(!files_a.is_empty());
    assert_eq!(set_a, set_b, "value-file set (numbers, routing, sizes)");
    assert!(files_a == files_b, "value-file bytes diverged between runs");
}

/// Multi-core CI smoke (run with `-- --ignored`): under `gc_threads = 4`
/// on a multi-core runner, parallel file I/O — Lazy Read's fetch, Titan's
/// whole-file scans — must dispatch workers and the pipelined executor
/// must report actual stage overlap, write-back included.
#[test]
#[ignore = "needs a multi-core runner; exercised by the CI multicore job"]
fn multicore_pipeline_overlap_smoke() {
    for mode in [EngineMode::Scavenger, EngineMode::Titan] {
        let db = Db::open(big_job_opts(MemEnv::shared(), mode, 4)).unwrap();
        // Several source files, each left with a ~50% live mix, so one GC
        // job spans many batches with real Fetch + Write work per stage.
        load_big_job(&db, 12_000, 6, false);
        db.run_gc_until_clean().unwrap();
        let gc = db.stats().gc;
        assert!(gc.pipeline_jobs > 0, "{mode:?}: pipeline must run");
        assert!(gc.pipeline_batches > 2, "{mode:?}: job must span batches");
        assert!(
            gc.pipeline_overlaps > 0,
            "{mode:?}: stages must overlap on a multi-core runner (batches={}, backpressure={})",
            gc.pipeline_batches,
            gc.pipeline_backpressure
        );
        assert!(
            gc.fetch_parallel_jobs > 0,
            "{mode:?}: parallel file I/O must dispatch workers"
        );
    }
}

/// Regression (write-phase file allocation): a Titan GC whose candidates
/// hold only dead records must not allocate a value file — and no GC
/// path may ever surface a zero-entry value file, even when the size
/// target makes the writer roll over on the very last record.
#[test]
fn all_dead_candidates_never_emit_value_files() {
    let env: EnvRef = MemEnv::shared();
    let mut o = opts(env, EngineMode::Titan, 1);
    o.vsst_target_size = 16 * 1024;
    let db = Db::open(o).unwrap();
    for i in 0..60 {
        db.put(format!("key{i:03}"), value(i, 2048)).unwrap();
    }
    db.flush().unwrap();
    // Overwrite everything: the first blob file becomes 100% garbage.
    for i in 0..60 {
        db.put(format!("key{i:03}"), value(9000 + i, 2048)).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    let files_before: Vec<u64> = db
        .shard(0)
        .value_store()
        .all_files()
        .iter()
        .map(|m| m.file)
        .collect();
    let outcome = db.shard(0).run_gc_at(0.95); // only all-dead files qualify
    if let Ok(Some(out)) = &outcome {
        assert_eq!(
            out.records_rewritten, 0,
            "an all-dead candidate set rewrites nothing"
        );
    }
    let metas = db.shard(0).value_store().all_files();
    assert!(
        metas.iter().all(|m| m.entries > 0),
        "no value file may be empty: {metas:?}"
    );
    // No new file may have appeared: nothing was rewritten.
    let files_after: Vec<u64> = metas.iter().map(|m| m.file).collect();
    for f in &files_after {
        assert!(
            files_before.contains(f),
            "GC allocated file {f} despite rewriting no records"
        );
    }
}

/// Rollover landing exactly on the final record of a job must not leave
/// an empty trailing file (the eager-allocation bug this PR removes):
/// after GC under a tiny size target, every live value file holds
/// records and every on-disk value file is tracked.
#[test]
fn rollover_at_job_end_leaves_no_empty_files() {
    for mode in [EngineMode::Scavenger, EngineMode::Terark, EngineMode::Titan] {
        let env: EnvRef = MemEnv::shared();
        let mut o = opts(env.clone(), mode, 2);
        // Tiny target: many rollovers per job, so some job ends exactly
        // at a rollover boundary.
        o.vsst_target_size = 8 * 1024;
        let db = Db::open(o).unwrap();
        for round in 0..4 {
            for i in 0..80 {
                db.put(format!("key{i:03}"), value(round * 100 + i, 2048))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();
        db.run_gc_until_clean().unwrap();
        let metas = db.shard(0).value_store().all_files();
        assert!(
            metas.iter().all(|m| m.entries > 0),
            "{mode:?}: empty value file surfaced"
        );
        // Every value file on disk is accounted for in the store: no
        // orphaned empty files left behind by an abandoned writer.
        let live: std::collections::BTreeSet<u64> = metas.iter().map(|m| m.file).collect();
        for path in env.list_prefix("db/").unwrap() {
            if let Some(num) = path
                .strip_prefix("db/")
                .and_then(|p| p.strip_suffix(".vsst").or_else(|| p.strip_suffix(".blob")))
            {
                let n: u64 = num.parse().unwrap();
                assert!(live.contains(&n), "{mode:?}: orphan value file {path}");
            }
        }
        // Data still correct.
        for i in 0..80 {
            assert_eq!(
                db.get(format!("key{i:03}")).unwrap().unwrap(),
                bytes::Bytes::from(value(300 + i, 2048)),
                "{mode:?}: key{i}"
            );
        }
    }
}

// ---------------- property test ----------------

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u16),
    Delete(u8),
    Snapshot,
    DropSnapshot,
    Flush,
    Compact,
    Gc,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), 600u16..3000).prop_map(|(k, len)| Op::Put(k, len)),
        2 => any::<u8>().prop_map(Op::Delete),
        1 => Just(Op::Snapshot),
        1 => Just(Op::DropSnapshot),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
        2 => Just(Op::Gc),
    ]
}

/// Replay `ops` under one `gc_threads` setting; returns every
/// observable: GC outcomes, final records (latest + oldest-snapshot
/// view), and the value-file set.
fn replay(ops: &[Op], threads: usize) -> (Vec<GcOutcome>, Vec<Survivor>, FileSet) {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(opts(env, EngineMode::Scavenger, threads)).unwrap();
    let mut outcomes = Vec::new();
    let mut snapshots = Vec::new();
    let mut gen: u32 = 0;
    for op in ops {
        match op {
            Op::Put(k, len) => {
                gen += 1;
                db.put(
                    format!("key{k:03}"),
                    value(*k as usize + gen as usize, *len as usize),
                )
                .unwrap();
            }
            Op::Delete(k) => {
                db.delete(format!("key{k:03}")).unwrap();
            }
            Op::Snapshot => snapshots.push(db.snapshot()),
            Op::DropSnapshot => {
                snapshots.pop();
            }
            Op::Flush => db.flush().unwrap(),
            Op::Compact => db.compact_all().unwrap(),
            Op::Gc => {
                while let Some(out) = db.shard(0).run_gc_at(0.05).unwrap() {
                    outcomes.push(out);
                    assert!(outcomes.len() < 512, "runaway GC");
                }
            }
        }
    }
    db.flush().unwrap();
    let survivors = surviving_records(&db, snapshots.first());
    let files = value_file_set(&db);
    drop(snapshots);
    (outcomes, survivors, files)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case replays a full DB lifecycle twice; keep CI time sane
        ..ProptestConfig::default()
    })]

    /// Parallel fetch is observationally identical to serial file I/O on
    /// arbitrary op sequences — including snapshots pinning old versions,
    /// overwrites, deletes, and whatever inheritance chains the
    /// interleaved GC calls build.
    #[test]
    fn executors_equivalent_on_random_workloads(
        ops in proptest::collection::vec(op_strategy(), 1..100)
    ) {
        let base = replay(&ops, 1);
        let parfetch = replay(&ops, 4);
        prop_assert_eq!(&base, &parfetch, "parallel fetch diverged");
    }
}
