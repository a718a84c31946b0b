//! Hotness-aware writing in action (paper §III-B3).
//!
//! A small set of hot keys is overwritten constantly while a large cold
//! set sits untouched. The DropCache learns the hot keys from compaction
//! drops; flush and GC then route them into *hot* value SSTs. Watch the
//! garbage concentrate in hot files — which is what lets the
//! ratio-triggered GC reclaim a lot of space for very little I/O.
//!
//! Run with: `cargo run --release --example hot_cold_gc`

use scavenger::{Db, EngineMode, IoClass, MemEnv, Options};
use scavenger_env::EnvRef;

fn main() -> scavenger::Result<()> {
    let env: EnvRef = MemEnv::shared();
    let mut opts = Options::new(env.clone(), "db", EngineMode::Scavenger);
    opts.memtable_size = 64 * 1024;
    opts.base_level_bytes = 256 * 1024;
    opts.auto_gc = false; // run GC by hand below so we can observe it
    let db = Db::open(opts)?;

    // 200 cold keys, written once.
    for i in 0..200 {
        db.put(format!("cold{i:04}"), vec![1u8; 4096])?;
    }
    // 10 hot keys, overwritten 40 times each.
    for round in 0..40 {
        for i in 0..10 {
            db.put(format!("hot{i:02}"), vec![round as u8; 4096])?;
        }
    }
    db.flush()?;
    db.compact_all()?;

    let detected = (0..10)
        .filter(|i| {
            db.shard(0)
                .drop_cache()
                .contains(format!("hot{i:02}").as_bytes())
        })
        .count();
    println!("DropCache learned {detected}/10 hot keys from compaction drops");

    println!("\n-- value files before GC --");
    let mut hot_garbage = 0.0;
    let mut cold_garbage = 0.0;
    let mut hot_n = 0;
    let mut cold_n = 0;
    for meta in db.shard(0).value_store().all_files() {
        if meta.hot {
            hot_garbage += meta.garbage_ratio();
            hot_n += 1;
        } else {
            cold_garbage += meta.garbage_ratio();
            cold_n += 1;
        }
    }
    println!(
        "hot files : {hot_n:3}  avg garbage ratio {:.2}",
        if hot_n > 0 {
            hot_garbage / hot_n as f64
        } else {
            0.0
        }
    );
    println!(
        "cold files: {cold_n:3}  avg garbage ratio {:.2}",
        if cold_n > 0 {
            cold_garbage / cold_n as f64
        } else {
            0.0
        }
    );

    let before = env.io_stats().snapshot();
    let jobs = db.run_gc_until_clean()?;
    let d = env.io_stats().snapshot().delta(&before);
    println!("\n-- GC --");
    println!("jobs: {jobs}");
    println!(
        "GC read {} KiB / GC write {} KiB (lazy read skips garbage values)",
        d.class(IoClass::GcRead).read_bytes / 1024,
        d.class(IoClass::GcWrite).write_bytes / 1024
    );
    let stats = db.stats();
    println!(
        "space after GC: {} KiB total, {} KiB values",
        stats.space.total() / 1024,
        stats.space.value_bytes / 1024
    );

    // Correctness: everything still readable.
    for i in 0..200 {
        assert!(db.get(format!("cold{i:04}"))?.is_some());
    }
    for i in 0..10 {
        assert_eq!(db.get(format!("hot{i:02}"))?.unwrap()[0], 39);
    }
    println!("all keys verified after GC");
    Ok(())
}
