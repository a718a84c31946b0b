//! Quickstart: open a Scavenger database with the typed options
//! builder, write, read, scan, delete, take pinned views/snapshots,
//! and inspect the space statistics — then run the *same* code against
//! a sharded store: a plain store and a sharded one are the same
//! handle, `Db`.
//!
//! Run with: `cargo run --release --example quickstart`

use scavenger::{Db, DbShards, EngineMode, MemEnv, Options, ShardedOptions, WriteOptions};

/// Written once; works on a `Db` of any size.
fn tour(db: &Db, label: &str) -> scavenger::Result<()> {
    println!("=== {label} ===");

    // Small values stay inline in the index LSM-tree; values >= 512 B
    // are separated into value SSTs (RecordBasedTables).
    db.put(b"config:theme", b"dark".to_vec())?;
    db.put(b"blob:avatar", vec![0xAB; 16 * 1024])?;

    let theme = db.get(b"config:theme")?.expect("present");
    println!("config:theme = {:?}", std::str::from_utf8(&theme).unwrap());
    let avatar = db.get(b"blob:avatar")?.expect("present");
    println!("blob:avatar  = {} bytes (separated)", avatar.len());

    // A snapshot is an RAII handle over a pinned read view: it keeps
    // reading this exact state until dropped, no matter what the engine
    // does underneath (writes, flushes, compactions, GC).
    let snapshot = db.snapshot();

    // Overwrites create garbage in the value store; deletes write
    // tombstones. Batched loads can skip the per-write WAL fsync.
    let bulk = WriteOptions {
        sync: false,
        ..WriteOptions::default()
    };
    for version in 0..50u8 {
        db.put_with(&bulk, b"blob:avatar", vec![version; 16 * 1024])?;
    }
    db.delete(b"config:theme")?;
    assert!(db.get(b"config:theme")?.is_none());

    // Force the pipeline end-to-end: flush -> compaction (exposes
    // garbage) -> GC (reclaims it). `run_gc` reports one outcome per
    // shard through the `GcReport` (a plain store fills one slot), so
    // this code never branches on the store's size.
    db.flush()?;
    db.compact_all()?;
    let jobs = db.run_gc_until_clean()?;
    let report = db.run_gc()?; // store is clean: nothing left to do
    assert!(!report.ran());
    println!("garbage collection ran {jobs} job(s)");

    // The snapshot still reads its epoch — strictly, with no retries:
    // the GC preserved every version the snapshot can see.
    let old_avatar = snapshot.get(b"blob:avatar")?.expect("pinned");
    assert_eq!(old_avatar[0], 0xAB, "snapshot reads the pre-update value");
    let old_theme = snapshot.get(b"config:theme")?.expect("pinned");
    println!(
        "snapshot still sees theme {:?} and the original avatar",
        std::str::from_utf8(&old_theme).unwrap()
    );
    drop(snapshot); // unregisters the read point

    // A range scan over `[lo, hi)`: here every `blob:` key. Scans read
    // values around the block cache, so they do not evict the hot
    // working set. Scan iterators are real `Iterator`s over
    // `Result<ScanEntry>`.
    for entry in db.scan(b"blob:", Some(b"blob;"))? {
        let entry = entry?;
        println!(
            "range scan: {} -> {} bytes",
            String::from_utf8_lossy(&entry.key),
            entry.value.len()
        );
    }

    let stats = db.stats();
    println!("-- space breakdown --");
    println!("key SSTs   : {} bytes", stats.space.ksst_bytes);
    println!("value files: {} bytes", stats.space.value_bytes);
    println!("WAL        : {} bytes", stats.space.wal_bytes);
    println!("index SA   : {:.3}", stats.index_space_amp);
    println!("exposed garbage: {} bytes\n", stats.exposed_garbage_bytes);
    Ok(())
}

fn main() -> scavenger::Result<()> {
    // An in-memory environment keeps the example self-contained; swap in
    // `FsEnv::new("/tmp/scavenger-demo")?` for real files. Every knob
    // is a public field of `Options`, set after `Options::new`.
    let mut opts = Options::new(MemEnv::shared(), "quickstart-db", EngineMode::Scavenger);
    opts.auto_gc = false; // the tour drives GC explicitly
    let single = Db::open(opts)?;
    tour(&single, "plain store (Db, 1 shard)")?;

    // Same tour, zero new code: a 4-shard store is the same handle.
    let mut opts =
        ShardedOptions::new(MemEnv::shared(), "quickstart-shards", EngineMode::Scavenger);
    opts.num_shards = 4;
    opts.base.auto_gc = false;
    let sharded = DbShards::open(opts)?;
    tour(&sharded, "sharded store (Db, 4 shards)")?;
    Ok(())
}
