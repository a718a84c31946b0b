//! GC-Lookup against a point-lookup oracle: the engine's one validation
//! path (a co-sequential sweep per read point) must reach the verdicts
//! of the paper's profiled baseline — one serial `get_at` per record per
//! read point, written out below from public API only — for keyed
//! identity (Scavenger, TerarkDB) and `(file, offset)` identity (Titan),
//! under overwrites, deletes, snapshots pinning old versions, and
//! inheritance chains built by repeated GC.

use scavenger::vstore::vtable::parse_record_key;
use scavenger::{Db, EngineMode, GcValidationReport, MemEnv, Options, ReadOptions, Snapshot};
use scavenger_env::EnvRef;
use scavenger_lsm::LsmReadResult;
use scavenger_util::ikey::{ValueRef, ValueType};
use std::collections::BTreeMap;

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
    let lsm = db.lsm();
    let vstore = db.value_store();
    // Pin the latest sequence first so it is among the read points, as
    // the GC's own reader does.
    let _pin = lsm.view();
    let read_points = lsm.read_points();
    let addressed = db.mode() == EngineMode::Titan;
    let records = vstore.gc_reader(file).unwrap().scan_all().unwrap();
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
        for meta in db.value_store().all_files() {
            assert_eq!(
                db.gc_validate_file(meta.file).unwrap(),
                oracle_validate(db, meta.file),
                "{:?}: dry-run verdict of file {} diverged from point lookups",
                db.mode(),
                meta.file
            );
        }
        // Titan defers the whole job while a snapshot exists.
        let deferred = db.mode() == EngineMode::Titan && !db.lsm().snapshot_sequences().is_empty();
        let candidates: Vec<u64> = db
            .value_store()
            .gc_candidates(threshold)
            .iter()
            .take(if deferred {
                0
            } else {
                db.options().gc_batch_files
            })
            .map(|m| m.file)
            .collect();
        let live: u64 = candidates
            .iter()
            .map(|&f| oracle_validate(db, f).valid)
            .sum();
        let Some(out) = db.run_gc_at(threshold).unwrap() else {
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
    pinned: Option<&(Snapshot, BTreeMap<String, Vec<u8>>)>,
) {
    let mut scanned = BTreeMap::new();
    let mut it = db.scan(b"", None).unwrap();
    while let Some(e) = it.next_entry().unwrap() {
        scanned.insert(String::from_utf8(e.key).unwrap(), e.value.to_vec());
    }
    assert_eq!(&scanned, latest, "{:?}: latest state diverged", db.mode());
    if let Some((snap, model)) = pinned {
        for (k, v) in model {
            let got = db.get_with(&ReadOptions::pinned(snap), k).unwrap();
            assert_eq!(
                got.as_deref(),
                Some(v.as_slice()),
                "{:?}: snapshot view of {k} lost",
                db.mode()
            );
        }
    }
}

/// One full workload: load, overwrite (hot skew), delete, snapshot-pin,
/// then GC to a fixed point — twice, so the second wave validates records
/// that already live behind inheritance edges.
fn assert_gc_matches_oracle(mode: EngineMode) {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(opts(env, mode)).unwrap();
    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let put = |model: &mut BTreeMap<String, Vec<u8>>, i: usize, tag: usize| {
        let (k, v) = (format!("key{i:03}"), value(tag, 2048));
        db.put(&k, v.clone()).unwrap();
        model.insert(k, v);
    };

    for i in 0..120 {
        put(&mut model, i, i);
    }
    db.flush().unwrap();
    // Snapshot pins the loaded versions. Titan defers GC entirely while
    // snapshots exist, so only the no-writeback schemes hold one through
    // the GC waves.
    let snap = (mode != EngineMode::Titan).then(|| (db.snapshot(), model.clone()));
    // Overwrites: hot head of the keyspace, several rounds.
    for round in 1..=3 {
        for i in 0..60 {
            put(&mut model, i, round * 1000 + i);
        }
        db.flush().unwrap();
    }
    for i in (90..120).step_by(2) {
        let k = format!("key{i:03}");
        db.delete(&k).unwrap();
        model.remove(&k);
    }
    db.flush().unwrap();
    db.compact_all().unwrap();

    // First GC wave: collects original files, building inheritance edges.
    let first = gc_wave_against_oracle(&db, 0.05);
    assert!(first > 0, "{mode:?}: workload must trigger GC jobs");
    // More churn on top of GC outputs, then a second wave so validation
    // must resolve through inheritance chains.
    for i in 0..40 {
        put(&mut model, i, 7000 + i);
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    let second = gc_wave_against_oracle(&db, 0.05);
    assert!(second > 0, "{mode:?}: second wave must collect GC outputs");

    assert_reads_match(&db, &model, snap.as_ref());
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
            db.get_with(&ReadOptions::pinned(&snap), "pinned")
                .unwrap()
                .unwrap(),
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
            .value_store()
            .all_files()
            .iter()
            .map(|m| m.file)
            .min()
            .expect("value files exist");
        let report = db.gc_validate_file(first).unwrap();
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
        .value_store()
        .all_files()
        .iter()
        .map(|m| m.file)
        .max()
        .expect("value files exist");
    let rep = db.gc_validate_file(newest).unwrap();
    assert!(rep.records > 0);
    assert_eq!(
        rep.valid, rep.records,
        "relocated records must all be live despite fresh index seqs"
    );
    assert_eq!(rep, oracle_validate(&db, newest));
}
