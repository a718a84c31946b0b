//! The paper's core experiment in miniature: run the same update-heavy
//! workload against all five engine designs and print the space-time
//! trade-off each one lands on (paper Figures 2 and 14).
//!
//! Run with: `cargo run --release --example space_time_tradeoff`

use scavenger::{Db, DeviceModel, EngineMode, MemEnv, Options};
use scavenger_env::EnvRef;

fn main() -> scavenger::Result<()> {
    let value_size = 8 * 1024; // the paper's Fixed-8K workload
    let num_keys = 400u64;
    let updates = 4 * num_keys;

    println!("Fixed-8K: load {num_keys} keys, apply {updates} hotspot updates\n");
    println!(
        "{:>10}  {:>12}  {:>10}  {:>10}  {:>10}",
        "engine", "sim MB/s", "space amp", "index SA", "gc runs"
    );

    for mode in EngineMode::ALL {
        let env: EnvRef = MemEnv::shared();
        let mut opts = Options::new(env.clone(), "db", mode);
        opts.memtable_size = 64 * 1024;
        opts.base_level_bytes = 256 * 1024;
        let db = Db::open(opts)?;

        // Load.
        for i in 0..num_keys {
            db.put(key(i), value(i, 0, value_size))?;
        }
        db.flush()?;

        // Update with a simple hotspot pattern (20% of keys get 80% of
        // updates), measuring I/O for the simulated-throughput figure.
        let before = env.io_stats().snapshot();
        let mut user_bytes = 0u64;
        for n in 0..updates {
            let i = if n % 5 == 0 {
                n % num_keys
            } else {
                n % (num_keys / 5)
            };
            db.put(key(i), value(i, n + 1, value_size))?;
            user_bytes += 24 + value_size as u64;
        }
        db.flush()?;
        let io = env.io_stats().snapshot().delta(&before);
        let secs = DeviceModel::nvme().simulated_seconds(&io);

        let stats = db.stats();
        let logical = num_keys * (24 + value_size as u64);
        println!(
            "{:>10}  {:>12.2}  {:>10.2}  {:>10.2}  {:>10}",
            mode.label(),
            user_bytes as f64 / 1e6 / secs,
            stats.space.total() as f64 / logical as f64,
            stats.index_space_amp,
            stats.gc.runs,
        );
    }
    println!("\nThe trade-off the paper closes: KV separation buys write speed");
    println!("but inflates space; Scavenger keeps the speed at near-vanilla SA.");
    Ok(())
}

fn key(i: u64) -> Vec<u8> {
    format!("user{i:020}").into_bytes()
}

fn value(i: u64, version: u64, size: usize) -> Vec<u8> {
    let mut v = vec![(i ^ version) as u8; size];
    v[..8].copy_from_slice(&version.to_le_bytes());
    v
}
