//! Space-accounting invariants: garbage bookkeeping, GC reclamation,
//! space-aware throttling, and the paper's space-amplification metrics.

use scavenger::{Db, EngineMode, MemEnv, Options};
use scavenger_env::EnvRef;

fn opts(env: EnvRef, mode: EngineMode) -> Options {
    let mut o = Options::new(env, "db", mode);
    o.memtable_size = 32 * 1024;
    o.base_level_bytes = 128 * 1024;
    o.vsst_target_size = 128 * 1024;
    o
}

fn churn(db: &Db, keys: u64, rounds: u64, vsize: usize) {
    for r in 0..rounds {
        for i in 0..keys {
            db.put(format!("k{i:04}"), vec![(r + i) as u8; vsize])
                .unwrap();
        }
        db.flush().unwrap();
    }
}

#[test]
fn exposed_garbage_never_exceeds_store_bytes() {
    for mode in [EngineMode::Scavenger, EngineMode::Terark, EngineMode::Titan] {
        let env: EnvRef = MemEnv::shared();
        let mut o = opts(env, mode);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        churn(&db, 150, 4, 3000);
        db.compact_all().unwrap();
        let s = db.stats();
        assert!(s.exposed_garbage_bytes > 0, "{mode:?}");
        assert!(
            s.exposed_garbage_bytes <= s.value_store_bytes,
            "{mode:?}: exposed {} > store {}",
            s.exposed_garbage_bytes,
            s.value_store_bytes
        );
    }
}

#[test]
fn gc_reduces_exposed_garbage_and_space() {
    for mode in [EngineMode::Scavenger, EngineMode::Terark] {
        let env: EnvRef = MemEnv::shared();
        let mut o = opts(env, mode);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        churn(&db, 150, 5, 3000);
        db.compact_all().unwrap();
        let before = db.stats();
        db.run_gc_until_clean().unwrap();
        let after = db.stats();
        assert!(
            after.exposed_garbage_bytes < before.exposed_garbage_bytes,
            "{mode:?}: exposed garbage must shrink"
        );
        assert!(
            after.space.value_bytes < before.space.value_bytes,
            "{mode:?}: value store must shrink"
        );
        // After GC at threshold 0.2, no live file should exceed ~the
        // threshold by much.
        for meta in db.shard(0).value_store().all_files() {
            assert!(
                meta.garbage_ratio() < 0.5,
                "{mode:?}: file {} ratio {}",
                meta.file,
                meta.garbage_ratio()
            );
        }
    }
}

#[test]
fn space_amp_converges_near_gc_threshold_with_unpaced_gc() {
    // With unlimited GC bandwidth the steady-state exposed-garbage ratio
    // should approach the paper's ideal 1/(1-0.2) = 1.25 for the value
    // store.
    let env: EnvRef = MemEnv::shared();
    let mut o = opts(env, EngineMode::Scavenger);
    o.gc_bandwidth_factor = 1e9;
    let db = Db::open(o).unwrap();
    churn(&db, 200, 6, 3000);
    let logical_values = 200 * 3000u64;
    let s = db.stats();
    let value_amp = s.space.value_bytes as f64 / logical_values as f64;
    assert!(
        value_amp < 1.8,
        "value-store amplification {value_amp} should be near 1.25"
    );
}

#[test]
fn throttling_keeps_space_near_quota() {
    let env: EnvRef = MemEnv::shared();
    let mut o = opts(env, EngineMode::Scavenger);
    let logical = 150u64 * 3000;
    o.space_limit = Some((logical as f64 * 1.5) as u64);
    // Disable auto-GC so reclamation happens only through the throttle —
    // the paper's "space-aware throttling" must carry the quota alone.
    o.auto_gc = false;
    let db = Db::open(o).unwrap();
    churn(&db, 150, 8, 3000);
    let s = db.stats();
    assert!(s.throttle_stalls > 0, "quota must have been hit");
    // Transient overshoot allowed (one memtable + one vSST), but space is
    // pulled back toward the quota.
    assert!(
        s.space.total() < (logical as f64 * 1.5) as u64 + 512 * 1024,
        "total {} too far above quota",
        s.space.total()
    );
    // Data intact under pressure.
    for i in 0..150u64 {
        assert_eq!(db.get(format!("k{i:04}")).unwrap().unwrap().len(), 3000);
    }
}

#[test]
fn index_space_amp_is_sane() {
    for mode in EngineMode::ALL {
        let env: EnvRef = MemEnv::shared();
        let db = Db::open(opts(env, mode)).unwrap();
        churn(&db, 200, 3, 2000);
        db.compact_all().unwrap();
        let sa = db.stats().index_space_amp;
        assert!((1.0..10.0).contains(&sa), "{mode:?}: index SA {sa}");
    }
}

#[test]
fn space_breakdown_sums_to_total_disk() {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(opts(env.clone(), EngineMode::Scavenger)).unwrap();
    churn(&db, 100, 2, 4000);
    let s = db.stats().space;
    let on_disk: u64 = scavenger_env::Env::total_file_bytes(&*env, "db/").unwrap();
    assert_eq!(s.total(), on_disk);
    assert!(s.ksst_bytes > 0 && s.value_bytes > 0 && s.manifest_bytes > 0);
    assert_eq!(s.other_bytes, 0, "no unclassified files");
}

#[test]
fn hot_files_accumulate_garbage_faster() {
    let env: EnvRef = MemEnv::shared();
    let mut o = opts(env, EngineMode::Scavenger);
    o.auto_gc = false;
    let db = Db::open(o).unwrap();
    // Cold base + hot churn to teach the DropCache.
    for i in 0..150u64 {
        db.put(format!("cold{i:03}"), vec![1u8; 3000]).unwrap();
    }
    for r in 0..10u64 {
        for i in 0..15u64 {
            db.put(format!("hot{i:02}"), vec![r as u8; 3000]).unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    // More churn now that hot keys are known.
    for r in 0..6u64 {
        for i in 0..15u64 {
            db.put(format!("hot{i:02}"), vec![(r + 50) as u8; 3000])
                .unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    let files = db.shard(0).value_store().all_files();
    let avg = |hot: bool| {
        let v: Vec<f64> = files
            .iter()
            .filter(|m| m.hot == hot && m.entries > 0)
            .map(|m| m.garbage_ratio())
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let hot_avg = avg(true);
    let cold_avg = avg(false);
    assert!(
        hot_avg >= cold_avg,
        "hot files should carry at least as much garbage: hot {hot_avg} vs cold {cold_avg}"
    );
}
