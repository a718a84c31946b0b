//! GC-Lookup against a point-lookup oracle: the engine's one validation
//! path (a co-sequential sweep per read point) must reach the verdicts
//! of the paper's profiled baseline — one serial `get_at` per record per
//! read point, written out below from public API only — for keyed
//! identity (Scavenger, TerarkDB) and `(file, offset)` identity (Titan),
//! under overwrites, deletes, snapshots pinning old versions, keys that
//! flip between inline and separated values, and inheritance chains built
//! by repeated GC. Then the two properties the point-lookup loop does not
//! have: GC-Lookup reads a DTable's KF stream only (as a byte count), and
//! a fault in its one KV-stream read fails the job, not the data.

use scavenger::vstore::vtable::parse_record_key;
use scavenger::{Db, EngineMode, GcValidationReport, MemEnv, Options, ReadView};
use scavenger_env::{Env, EnvRef, FaultEnv, FaultOp, FaultRule, IoClass};
use scavenger_lsm::filename::table_path;
use scavenger_lsm::tcache::open_ktable;
use scavenger_lsm::{FileMetaData, LsmReadResult};
use scavenger_util::ikey::{ValueRef, ValueType};
use scavenger_util::Error;
use std::collections::BTreeMap;
use std::sync::Arc;

fn opts(env: EnvRef, mode: EngineMode) -> Options {
    let mut o = Options::new(env, "db", mode);
    o.memtable_size = 8 * 1024;
    o.vsst_target_size = 32 * 1024;
    o.base_level_bytes = 64 * 1024;
    o.ksst_target_size = 16 * 1024;
    o.auto_gc = false;
    o.gc_threads = 4;
    o
}

fn value(i: usize, len: usize) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; len];
    v[0] = (i >> 8) as u8;
    v
}

/// The reference GC-Lookup: for every record of value file `file`, one
/// point lookup per registered read point; the record is live if some
/// read point's visible version is a reference to it. Identity is
/// `(user_key, seq)` resolved through inheritance for the no-writeback
/// engines, and `(file, offset)` for Titan, whose write-back re-inserts
/// index entries under fresh sequence numbers.
fn oracle_validate(db: &Db, file: u64) -> GcValidationReport {
    let lsm = db.shard(0).lsm();
    let vstore = db.shard(0).value_store();
    // Pin the latest sequence first so it is among the read points, as
    // the GC's own reader does.
    let _pin = lsm.view();
    let read_points = lsm.read_points();
    let addressed = db.mode() == EngineMode::Titan;
    let records = vstore.gc_scan(file).unwrap();
    let mut valid = 0;
    for rec in &records {
        let (ukey, seq) = parse_record_key(&rec.ikey).unwrap();
        let live = read_points.iter().any(|&pt| {
            let LsmReadResult::Found {
                seq: s,
                vtype: ValueType::ValueRef,
                value,
            } = lsm.get_at(ukey, pt).unwrap()
            else {
                return false;
            };
            let r = ValueRef::decode(&value).unwrap();
            if addressed {
                r.file == file && r.offset == rec.value_offset
            } else {
                s == seq && vstore.resolves_to(r.file, file)
            }
        });
        valid += u64::from(live);
    }
    GcValidationReport {
        records: records.len() as u64,
        valid,
    }
}

/// Run GC to a fixed point. Before every job the dry-run verdict of
/// every live value file must equal the oracle's, and the job itself
/// must collect exactly the candidate set and rewrite exactly the
/// records the oracle calls live.
fn gc_wave_against_oracle(db: &Db, threshold: f64) -> usize {
    let mut jobs = 0;
    loop {
        for meta in db.shard(0).value_store().all_files() {
            assert_eq!(
                db.shard(0).gc_validate_file(meta.file).unwrap(),
                oracle_validate(db, meta.file),
                "{:?}: dry-run verdict of file {} diverged from point lookups",
                db.mode(),
                meta.file
            );
        }
        let candidates: Vec<u64> = db
            .shard(0)
            .value_store()
            .gc_candidates(threshold)
            .iter()
            .take(db.options().gc_batch_files)
            .map(|m| m.file)
            .collect();
        let live: u64 = candidates
            .iter()
            .map(|&f| oracle_validate(db, f).valid)
            .sum();
        let Some(out) = db.shard(0).run_gc_at(threshold).unwrap() else {
            assert!(
                candidates.is_empty(),
                "{:?}: GC skipped {candidates:?}",
                db.mode()
            );
            return jobs;
        };
        assert_eq!(out.files_collected, candidates.len(), "{:?}", db.mode());
        assert_eq!(
            out.records_rewritten,
            live,
            "{:?}: job over {candidates:?} rewrote a different record set than point lookups keep",
            db.mode()
        );
        jobs += 1;
        assert!(jobs < 256, "runaway GC");
    }
}

/// Every key reads back as the model says, at the latest sequence and
/// through the snapshot.
fn assert_reads_match(
    db: &Db,
    latest: &BTreeMap<String, Vec<u8>>,
    pinned: Option<&(ReadView, BTreeMap<String, Vec<u8>>)>,
) {
    let mut scanned = BTreeMap::new();
    let mut it = db.scan(b"", None).unwrap();
    while let Some(e) = it.next_entry().unwrap() {
        scanned.insert(String::from_utf8(e.key).unwrap(), e.value.to_vec());
    }
    assert_eq!(&scanned, latest, "{:?}: latest state diverged", db.mode());
    if let Some((snap, model)) = pinned {
        for (k, v) in model {
            let got = snap.get(k).unwrap();
            assert_eq!(
                got.as_deref(),
                Some(v.as_slice()),
                "{:?}: snapshot view of {k} lost",
                db.mode()
            );
        }
    }
}

/// A value under `SEP_THRESHOLD`: stored inline in the key SST — in a
/// DTable's KV stream, which the GC-Lookup sweep does not iterate.
const INLINE: usize = 100;
/// A separated value.
const LARGE: usize = 2048;

/// One full workload: load, overwrite (hot skew), delete, snapshot-pin,
/// keys flipping between inline and separated values, then GC to a fixed
/// point — twice, so the second wave validates records that already live
/// behind inheritance edges.
fn assert_gc_matches_oracle(mode: EngineMode) {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(opts(env, mode)).unwrap();
    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let put = |model: &mut BTreeMap<String, Vec<u8>>, i: usize, tag: usize, len: usize| {
        let (k, v) = (format!("key{i:03}"), value(tag, len));
        db.put(&k, v.clone()).unwrap();
        model.insert(k, v);
    };
    let delete = |model: &mut BTreeMap<String, Vec<u8>>, i: usize| {
        let k = format!("key{i:03}");
        db.delete(&k).unwrap();
        model.remove(&k);
    };

    // Every tenth key starts inline and turns separated in the rounds.
    for i in 0..120 {
        put(&mut model, i, i, if i % 10 == 7 { INLINE } else { LARGE });
    }
    db.flush().unwrap();
    // Snapshot pins the loaded versions through the GC waves.
    let snap = (db.snapshot(), model.clone());
    // Overwrites: hot head of the keyspace, several rounds.
    for round in 1..=3 {
        for i in 0..60 {
            put(&mut model, i, round * 1000 + i, LARGE);
        }
        db.flush().unwrap();
    }
    for i in (90..120).step_by(2) {
        delete(&mut model, i);
    }
    db.flush().unwrap();
    // The last round's references are what the latest read point sees
    // and no snapshot pins. Shadow thirty of them with a newer inline
    // version or a tombstone; the reference stays the newest *index
    // entry*, so only the inline check can call its record dead:
    // (c) inline in the same kSST as the reference — a snapshot pins
    // both through the compaction, and is gone before GC looks;
    let both = db.snapshot();
    for i in 0..10 {
        put(&mut model, i, 4000 + i, INLINE);
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    drop(both);
    // (b) inline in a shallower level than the reference, next to
    // tombstones over references;
    for i in 10..20 {
        put(&mut model, i, 5000 + i, INLINE);
    }
    for i in 25..28 {
        delete(&mut model, i);
    }
    db.flush().unwrap();
    // (a) inline, and a tombstone, still in the memtable.
    for i in 20..25 {
        put(&mut model, i, 6000 + i, INLINE);
    }
    for i in 28..30 {
        delete(&mut model, i);
    }

    // First GC wave: collects original files, building inheritance edges.
    let first = gc_wave_against_oracle(&db, 0.05);
    assert!(first > 0, "{mode:?}: workload must trigger GC jobs");
    // More churn on top of GC outputs, then a second wave so validation
    // must resolve through inheritance chains.
    for i in 0..40 {
        put(&mut model, i, 7000 + i, LARGE);
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    let second = gc_wave_against_oracle(&db, 0.05);
    assert!(second > 0, "{mode:?}: second wave must collect GC outputs");

    assert_reads_match(&db, &model, Some(&snap));
}

/// "Modes" in the test names below are engine modes: validation in each
/// is equivalent to the point-lookup oracle.
#[test]
fn scavenger_validation_modes_equivalent() {
    assert_gc_matches_oracle(EngineMode::Scavenger);
}

#[test]
fn terark_validation_modes_equivalent() {
    assert_gc_matches_oracle(EngineMode::Terark);
}

#[test]
fn titan_validation_modes_equivalent() {
    assert_gc_matches_oracle(EngineMode::Titan);
}

/// Snapshot versions survive GC even when the snapshot is the *only*
/// thing keeping a record alive — in both keyed engines, and in Titan,
/// which must defer the job instead.
#[test]
fn snapshot_pinned_records_survive_in_all_modes() {
    for mode in [EngineMode::Scavenger, EngineMode::Terark, EngineMode::Titan] {
        let env: EnvRef = MemEnv::shared();
        let db = Db::open(opts(env, mode)).unwrap();
        db.put("pinned", value(1, 4096)).unwrap();
        db.flush().unwrap();
        let snap = db.snapshot();
        // Make the original file collectible: overwrite and churn.
        for round in 0..4 {
            db.put("pinned", value(100 + round, 4096)).unwrap();
            for i in 0..30 {
                db.put(format!("fill{i:02}"), value(i, 2048)).unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();
        gc_wave_against_oracle(&db, scavenger::gc::GC_THRESHOLD);
        assert_eq!(
            snap.get("pinned").unwrap().unwrap(),
            bytes::Bytes::from(value(1, 4096)),
            "{mode:?}: snapshot version lost"
        );
        assert_eq!(
            db.get("pinned").unwrap().unwrap(),
            bytes::Bytes::from(value(103, 4096)),
            "{mode:?}: latest version wrong"
        );
        drop(snap);
    }
}

/// The dry-run validation report agrees with the oracle and with the
/// file's actual live-record count, across engine modes.
#[test]
fn dry_run_validation_agrees_across_modes() {
    for mode in [EngineMode::Scavenger, EngineMode::Terark, EngineMode::Titan] {
        let env: EnvRef = MemEnv::shared();
        let mut o = opts(env, mode);
        o.memtable_size = 1 << 20; // one flush ...
        o.vsst_target_size = 4 << 20; // ... -> one value file
        let db = Db::open(o).unwrap();
        for i in 0..300 {
            db.put(format!("key{i:03}"), value(i, 1024)).unwrap();
        }
        db.flush().unwrap();
        // Overwrite a third; those records in the original file become
        // dead (their newer versions live in a newer value file).
        for i in 0..100 {
            db.put(format!("key{i:03}"), value(9000 + i, 1024)).unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();

        let first = db
            .shard(0)
            .value_store()
            .all_files()
            .iter()
            .map(|m| m.file)
            .min()
            .expect("value files exist");
        let report = db.shard(0).gc_validate_file(first).unwrap();
        assert_eq!(report, oracle_validate(&db, first), "{mode:?}");
        assert_eq!(report.records, 300, "{mode:?}");
        assert_eq!(
            report.valid, 200,
            "{mode:?}: 100 of 300 records were overwritten"
        );
    }
}

/// Validation actually exercises the sweep machinery (counters move), so
/// the equivalence above is not vacuous.
#[test]
fn merge_mode_reports_sweep_counters() {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(opts(env, EngineMode::Scavenger)).unwrap();
    for round in 0..4 {
        for i in 0..80 {
            db.put(format!("key{i:03}"), value(round * 100 + i, 2048))
                .unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    db.run_gc_until_clean().unwrap();
    let gc = db.stats().gc;
    assert!(gc.validate_batches > 0, "validation ran");
    assert!(gc.validate_sweeps > 0, "merge sweeps ran");
    assert!(
        gc.validate_sweep_steps + gc.validate_sweep_seeks > 0,
        "sweeps did work"
    );
}

/// Write-back (Titan) dry-run validation uses address identity: records
/// relocated by GC stay live even though their written-back index
/// entries carry fresh sequence numbers.
#[test]
fn dry_run_uses_address_identity_for_writeback() {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(opts(env, EngineMode::Titan)).unwrap();
    for round in 0..4 {
        for i in 0..40 {
            db.put(format!("key{i:03}"), value(round * 64 + i, 2048))
                .unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    assert!(
        db.run_gc_until_clean().unwrap() > 0,
        "Titan GC must relocate"
    );
    // The newest blob file is a GC output holding only live records.
    let newest = db
        .shard(0)
        .value_store()
        .all_files()
        .iter()
        .map(|m| m.file)
        .max()
        .expect("value files exist");
    let rep = db.shard(0).gc_validate_file(newest).unwrap();
    assert!(rep.records > 0);
    assert_eq!(
        rep.valid, rep.records,
        "relocated records must all be live despite fresh index seqs"
    );
    assert_eq!(rep, oracle_validate(&db, newest));
}

/// `FgIndexRead` traffic of a dry-run GC-Lookup over every value file of
/// a store opened cold (empty table cache, empty block cache), and the
/// live records it found.
/// The number of entries in key SST `f`, from its properties block.
fn entries(env: &Arc<MemEnv>, f: &FileMetaData) -> u64 {
    let env: EnvRef = env.clone();
    let t = open_ktable(&env, "db", f.file_number, None, IoClass::Other).unwrap();
    t.props().num_entries
}

fn cold_lookup(env: &Arc<MemEnv>, o: &Options) -> (scavenger_env::io_stats::ClassSnapshot, u64) {
    let db = Db::open(o.clone()).unwrap();
    let before = env.io_stats().snapshot();
    let live = db
        .shard(0)
        .value_store()
        .all_files()
        .iter()
        .map(|m| db.shard(0).gc_validate_file(m.file).unwrap().valid)
        .sum();
    let d = env.io_stats().snapshot().delta(&before);
    (d.class(IoClass::FgIndexRead), live)
}

/// §III-B2 as a count. A quarter of the keys hold separated values, the
/// rest inline ones that fill the key SSTs' KV blocks. GC-Lookup of the
/// separated records reads the KF stream and the tables' metadata — not
/// the KV blocks — and, once some of those keys have a newer inline
/// version in one file, at most one KV block per such record on top.
#[test]
fn gc_lookup_reads_the_kf_stream_not_the_kv_blocks() {
    const KEYS: usize = 800;
    const INLINE_LEN: usize = 400;
    const SHADOWED: usize = 20;
    let env = MemEnv::shared();
    let mut o = opts(env.clone(), EngineMode::Scavenger);
    o.memtable_size = 4 << 20;
    o.vsst_target_size = 8 << 20;
    // Key SSTs well past the 16 KiB tail prefetch: a table that fits in
    // it is read whole by its open, KV blocks and all, in that one read.
    o.ksst_target_size = 256 * 1024;
    let separated = |i: usize| i.is_multiple_of(4);
    let (refs, ksst_bytes) = {
        let db = Db::open(o.clone()).unwrap();
        for i in 0..KEYS {
            let len = if separated(i) { LARGE } else { INLINE_LEN };
            db.put(format!("key{i:04}"), value(i, len)).unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        let version = db.shard(0).lsm().current_version();
        let ksst_bytes: u64 = version.levels.iter().flatten().map(|f| f.file_size).sum();
        (
            (0..KEYS).filter(|&i| separated(i)).count() as u64,
            ksst_bytes,
        )
    };
    let inline_payload = (KEYS as u64 - refs) * INLINE_LEN as u64;

    let (clean, live) = cold_lookup(&env, &o);
    assert_eq!(live, refs, "every separated record is live");
    assert!(
        clean.read_bytes <= ksst_bytes - inline_payload / 2,
        "GC-Lookup of {refs} ref records read {} of {ksst_bytes} key-SST bytes, \
         {inline_payload} of them inline values it has no use for",
        clean.read_bytes
    );

    // A newer inline version of a few separated keys, in one L0 file.
    {
        let db = Db::open(o.clone()).unwrap();
        for i in (0..KEYS).filter(|&i| separated(i)).take(SHADOWED) {
            db.put(format!("key{i:04}"), value(9000 + i, INLINE))
                .unwrap();
        }
        db.flush().unwrap();
    }
    let (shadowed, live) = cold_lookup(&env, &o);
    assert_eq!(
        live,
        refs - SHADOWED as u64,
        "inline versions shadow their refs"
    );
    // Opening the new DTable is one tail read. Its KF stream is empty.
    const OPEN_READS: u64 = 1;
    assert!(
        shadowed.read_ops <= clean.read_ops + OPEN_READS + SHADOWED as u64,
        "{SHADOWED} shadowed records cost {} reads over {}",
        shadowed.read_ops,
        clean.read_ops
    );
}

/// How the inline check's read goes wrong in
/// [`fault_in_inline_check_fails_the_job_not_the_data`].
#[derive(Debug, Clone, Copy)]
enum KvFault {
    ReadError,
    FlippedByte,
}

/// The second half of the rule reads a KV block; when that read fails or
/// the block is corrupt, the verdict is unknown — never "not shadowed".
/// The job must fail whole: no candidate deleted, no output left behind
/// (an earlier batch of the same job has already written some), and the
/// next clean job reaches the oracle's verdict.
#[test]
fn fault_in_inline_check_fails_the_job_not_the_data() {
    const KEYS: usize = 1100; // more than one GC pipeline batch
    const SHADOWED: std::ops::Range<usize> = 1080..1100; // in the last batch
    for fault in [KvFault::ReadError, KvFault::FlippedByte] {
        let mem = MemEnv::shared();
        let env = FaultEnv::wrap(mem.clone(), 21);
        let mut o = opts(env.clone(), EngineMode::Scavenger);
        o.memtable_size = 8 << 20;
        o.vsst_target_size = 8 << 20;
        o.base_level_bytes = 64 << 20;
        let db = Db::open(o).unwrap();
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let put = |model: &mut BTreeMap<String, Vec<u8>>, i: usize, tag: usize, len: usize| {
            let (k, v) = (format!("key{i:04}"), value(tag, len));
            db.put(&k, v.clone()).unwrap();
            model.insert(k, v);
        };
        for i in 0..KEYS {
            put(&mut model, i, i, 600);
        }
        db.flush().unwrap();
        // Expose garbage in the loaded value file so it is a candidate:
        // enough flushes for an L0 compaction, the only kind this tree
        // (see `base_level_bytes` above) ever runs.
        for round in 0..4 {
            for i in round * 50..(round + 1) * 50 {
                put(&mut model, i, 2000 + i, 600);
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();
        // Inline versions over the last keys' refs, alone in a key SST.
        for i in SHADOWED {
            put(&mut model, i, 3000 + i, INLINE);
        }
        db.flush().unwrap();
        // That file holds the inline versions and nothing else.
        let version = db.shard(0).lsm().current_version();
        let inline_file = version
            .levels
            .iter()
            .flatten()
            .find(|f| {
                entries(&mem, f) == SHADOWED.len() as u64 && f.user_range_contains(b"key1080")
            })
            .expect("the flush of the inline versions is a file of its own");
        let inline_path = table_path("db", inline_file.file_number);
        // Open that file's reader without caching any of its blocks (an
        // absent key inside its range), so the fault below can only hit
        // the inline check's KV-block read.
        assert_eq!(db.get("key1085x").unwrap(), None);

        let candidates: Vec<u64> = db
            .shard(0)
            .value_store()
            .gc_candidates(0.05)
            .iter()
            .map(|m| m.file)
            .collect();
        assert!(!candidates.is_empty(), "{fault:?}: nothing to collect");
        let files_before = mem.list_prefix("db/").unwrap();
        match fault {
            KvFault::ReadError => env.add_rule(FaultRule {
                path_contains: Some(inline_path.clone()),
                ..FaultRule::fail(FaultOp::Read)
            }),
            KvFault::FlippedByte => mem.corrupt_byte(&inline_path, 10).unwrap(),
        }
        let err = db.shard(0).run_gc_at(0.05).expect_err("the job must fail");
        match fault {
            KvFault::ReadError => assert!(matches!(err, Error::Io(_)), "{err}"),
            KvFault::FlippedByte => assert!(matches!(err, Error::Corruption(_)), "{err}"),
        }
        assert!(
            db.stats().gc.pipeline_jobs > 0,
            "{fault:?}: the job must span batches for an output to exist when it fails"
        );
        assert_eq!(
            mem.list_prefix("db/").unwrap(),
            files_before,
            "{fault:?}: a failed job deleted a candidate or left an output"
        );
        for f in &candidates {
            assert!(
                db.shard(0).value_store().meta(*f).is_some(),
                "{fault:?}: file {f}"
            );
        }

        match fault {
            KvFault::ReadError => env.clear_rules(),
            KvFault::FlippedByte => mem.corrupt_byte(&inline_path, 10).unwrap(),
        }
        assert!(gc_wave_against_oracle(&db, 0.05) > 0, "{fault:?}");
        assert_reads_match(&db, &model, None);
    }
}

/// The inline check searches only files no older than the reference's
/// source. Older inline versions of the swept keys fill a deeper level;
/// their references sit in one newer L0 file, whose KF stream is one
/// block. A cold GC-Lookup then opens every key SST once and reads that
/// block — and no KV block of the deeper level, whose versions are all
/// older than the references.
#[test]
fn gc_lookup_reads_no_kv_block_older_than_the_reference() {
    const KEYS: usize = 400;
    const INLINE_LEN: usize = 400;
    let swept = |i: usize| i.is_multiple_of(10);
    let env = MemEnv::shared();
    let mut o = opts(env.clone(), EngineMode::Scavenger);
    o.memtable_size = 4 << 20;
    o.vsst_target_size = 8 << 20;
    let key_ssts = {
        let db = Db::open(o.clone()).unwrap();
        for i in 0..KEYS {
            db.put(format!("key{i:04}"), value(i, INLINE_LEN)).unwrap();
        }
        db.flush().unwrap();
        while db.shard(0).lsm().force_compact_once().unwrap() {}
        for i in (0..KEYS).filter(|&i| swept(i)) {
            db.put(format!("key{i:04}"), value(9000 + i, LARGE))
                .unwrap();
        }
        db.flush().unwrap();
        let version = db.shard(0).lsm().current_version();
        assert_eq!(version.levels[0].len(), 1, "the references' own L0 file");
        let deeper: Vec<_> = version.levels[1..].iter().flatten().collect();
        assert!(deeper.len() > 2, "the inline versions span several files");
        assert!(deeper.iter().all(|f| entries(&env, f) > 0));
        version.levels.iter().flatten().count() as u64
    };
    let (lookup, live) = cold_lookup(&env, &o);
    assert_eq!(live, (0..KEYS).filter(|&i| swept(i)).count() as u64);
    assert_eq!(
        lookup.read_ops,
        key_ssts + 1,
        "{key_ssts} key-SST opens and one KF block, no KV block"
    );
}

/// Where the inline check still looks, it still decides: references
/// shadowed by a newer inline version in their own L0 file, in a newer L0
/// file, or in the memtable are dead, and the same records stay live at
/// a snapshot taken before the inline versions. Every dry-run verdict
/// equals the point-lookup oracle's on that layout and before each GC
/// job once compaction has exposed the garbage, and reads after GC match
/// the model.
#[test]
fn gc_lookup_horizon_keeps_the_oracle_verdict() {
    let env: EnvRef = MemEnv::shared();
    let mut o = opts(env, EngineMode::Scavenger);
    o.memtable_size = 4 << 20;
    let db = Db::open(o).unwrap();
    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let put = |model: &mut BTreeMap<String, Vec<u8>>, i: usize, tag: usize, len: usize| {
        let (k, v) = (format!("key{i:03}"), value(tag, len));
        db.put(&k, v.clone()).unwrap();
        model.insert(k, v);
    };
    // References of every key, pushed below L0.
    for i in 0..60 {
        put(&mut model, i, i, LARGE);
    }
    db.flush().unwrap();
    while db.shard(0).lsm().force_compact_once().unwrap() {}
    // (a) A reference and a newer inline version in one L0 file: a
    // snapshot keeps both through the flush and is gone before GC.
    let both = db.snapshot();
    for i in 0..10 {
        put(&mut model, i, 1000 + i, LARGE);
    }
    let both_after_refs = db.snapshot();
    drop(both);
    for i in 0..10 {
        put(&mut model, i, 2000 + i, INLINE);
    }
    db.flush().unwrap();
    drop(both_after_refs);
    // (b) References in one L0 file and newer inline versions in a newer
    // one. A snapshot between the references of keys 20..30 and those of
    // keys 10..20 keeps the former live at its read point, and the
    // deeper references of keys 10..20.
    for i in 20..30 {
        put(&mut model, i, 3000 + i, LARGE);
    }
    let snap = (db.snapshot(), model.clone());
    for i in 10..20 {
        put(&mut model, i, 3000 + i, LARGE);
    }
    db.flush().unwrap();
    for i in 10..30 {
        put(&mut model, i, 4000 + i, INLINE);
    }
    db.flush().unwrap();
    assert_eq!(db.shard(0).lsm().current_version().levels[0].len(), 3);
    // (c) Inline versions over deeper references, and references, in the
    // memtable.
    for i in 30..35 {
        put(&mut model, i, 5000 + i, INLINE);
    }
    for i in 35..40 {
        put(&mut model, i, 5000 + i, LARGE);
    }

    // Checked on this layout first, then again once compaction has
    // exposed the garbage and GC collects it.
    gc_wave_against_oracle(&db, 0.05);
    while db.shard(0).lsm().force_compact_once().unwrap() {}
    assert!(gc_wave_against_oracle(&db, 0.05) > 0, "GC must run");
    assert_reads_match(&db, &model, Some(&snap));
}
