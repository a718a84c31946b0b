//! Sharded store tour: open a 4-shard `Db` (`DbShards`), watch keys route,
//! scan across shards in one global order, run per-shard GC through the
//! maintenance fan-out, and verify routing survives a reopen.
//!
//! Run with: `cargo run --release --example sharded`

use scavenger::{DbShards, EngineMode, EnvRef, MemEnv, ShardedOptions};

fn main() -> scavenger::Result<()> {
    let env: EnvRef = MemEnv::shared();
    // Shard-layer settings sit on `ShardedOptions`, per-shard engine
    // knobs on its `base`; small files so the example generates real
    // flush/GC work.
    let mut opts = ShardedOptions::new(env.clone(), "sharded-demo", EngineMode::Scavenger);
    opts.num_shards = 4;
    opts.base.memtable_size = 32 * 1024;
    opts.base.vsst_target_size = 64 * 1024;
    opts.base.auto_gc = false;

    let db = DbShards::open(opts.clone())?;
    println!(
        "opened {} shards (routing seed {:#x})\n",
        db.num_shards(),
        db.route_seed()
    );

    // Writes hash-route to one shard each; values >= 512 B separate into
    // that shard's value store.
    for user in 0..200 {
        db.put(format!("user:{user:04}"), vec![user as u8; 1024])?;
    }
    db.flush()?;

    println!("-- routing --");
    for user in [0, 1, 2, 3] {
        let key = format!("user:{user:04}");
        println!("{key} lives on shard {}", db.shard_of(&key));
    }
    let owned: Vec<usize> = (0..db.num_shards())
        .map(|s| {
            (0..200)
                .filter(|u| db.shard_of(format!("user:{u:04}")) == s)
                .count()
        })
        .collect();
    println!("keys per shard: {owned:?}\n");

    // A scan merges every shard's iterator into one global key order.
    let mut it = db.scan(b"user:0010", Some(b"user:0015"))?;
    println!("-- merged scan [user:0010, user:0015) --");
    while let Some(e) = it.next_entry()? {
        println!(
            "{} ({} bytes, shard {})",
            String::from_utf8_lossy(&e.key),
            e.value.len(),
            db.shard_of(&e.key)
        );
    }

    // Overwrite everything a few times: garbage lands on every shard.
    // One run_gc call fans per-shard GC jobs across the gc_threads pool.
    for round in 1..=3 {
        for user in 0..200 {
            db.put(format!("user:{user:04}"), vec![(user + round) as u8; 1024])?;
        }
        db.flush()?;
    }
    db.compact_all()?;
    let jobs = db.run_gc_until_clean()?;
    println!("\nGC ran {jobs} job(s) across shards");
    println!("-- per-shard stats --");
    for (i, s) in db.shard_stats().iter().enumerate() {
        println!(
            "shard {i}: {} GC runs, {} bytes reclaimed, {} flushes",
            s.gc.runs, s.gc.reclaimed_bytes, s.flushes
        );
    }
    // One more pass through the GcReport: outcomes are indexed
    // by shard, and the aggregate sums the whole set.
    let report = db.run_gc()?;
    println!(
        "follow-up run_gc: {} job(s), {} bytes reclaimed in aggregate",
        report.jobs(),
        report.aggregate().bytes_reclaimed
    );
    // Aggregate stats mirror Db::stats for the whole set.
    let agg = db.stats();
    println!(
        "aggregate: {} flushes, {} GC runs, cache hit ratio {:.2}",
        agg.flushes, agg.gc.runs, agg.cache_hit_ratio
    );
    let space = db.space();
    println!(
        "total space: {} bytes ({} key SSTs + {} value files)\n",
        space.total(),
        space.ksst_bytes,
        space.value_bytes
    );

    // Routing is persisted: a reopen (even with a different seed in the
    // options) loads the stored contract and every key finds its data.
    let placements: Vec<usize> = (0..200)
        .map(|u| db.shard_of(format!("user:{u:04}")))
        .collect();
    drop(db);
    let mut reopen = opts;
    reopen.route_seed = 0xffff; // ignored: the SHARDS meta file wins
    let db = DbShards::open(reopen)?;
    for (user, &placed) in placements.iter().enumerate() {
        let key = format!("user:{user:04}");
        assert_eq!(db.shard_of(&key), placed, "placement moved");
        let v = db.get(&key)?.expect("survives reopen");
        assert_eq!(v[0], (user + 3) as u8, "latest round visible");
    }
    println!("reopen: all 200 keys route to their original shards ✓");
    Ok(())
}
