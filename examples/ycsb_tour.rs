//! Run the six YCSB core workloads against a Scavenger database (paper
//! §IV-C) and report per-workload throughput — then replay workload A
//! on a sharded store through the *same* adapter, written once against
//! the one handle type, `Db`.
//!
//! Run with: `cargo run --release --example ycsb_tour`

use scavenger::{Db, DbShards, EngineMode, MemEnv, Options, ShardedOptions, WriteOptions};
use scavenger_env::EnvRef;

// The workload crate drives any KvStore; examples implement the adapter
// inline to show the full integration surface. Written against `Db`,
// it serves a store of any size unchanged. Writes route through the
// explicit-options entry points: YCSB writes skip the per-write WAL
// fsync (the benchmark measures engine throughput, not fsync latency).
struct Adapter<'a>(&'a Db, WriteOptions);

impl<'a> Adapter<'a> {
    fn new(db: &'a Db) -> Self {
        Adapter(
            db,
            WriteOptions {
                sync: false,
                ..WriteOptions::default()
            },
        )
    }
}

use scavenger_workload::runner::Runner;
use scavenger_workload::values::ValueGen;
use scavenger_workload::ycsb::YcsbWorkload;
use scavenger_workload::KvStore;

impl KvStore for Adapter<'_> {
    fn put(&self, key: &[u8], value: &[u8]) -> scavenger::Result<()> {
        self.0.put_with(&self.1, key, value.to_vec()).map(|_| ())
    }
    fn get(&self, key: &[u8]) -> scavenger::Result<Option<Vec<u8>>> {
        Ok(self.0.get(key)?.map(|b| b.to_vec()))
    }
    fn delete(&self, key: &[u8]) -> scavenger::Result<()> {
        self.0.delete_with(&self.1, key).map(|_| ())
    }
    fn scan(&self, start: &[u8], limit: usize) -> scavenger::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        // Scan iterators are plain `Iterator`s over Result<ScanEntry>.
        self.0
            .scan(start, None)?
            .take(limit)
            .map(|e| e.map(|e| (e.key, e.value.to_vec())))
            .collect()
    }
}

/// The whole tour, at any store size: load, run A–F, report.
fn run_tour(db: &Db, n: u64) -> scavenger::Result<()> {
    let store = Adapter::new(db);
    let mut runner = Runner::new(n * 2, ValueGen::mixed_8k(), 7).with_verification();
    println!("loading {n} keys (Mixed-8K values)...");
    runner.load(&store, n)?;
    db.flush()?;

    println!(
        "\n{:>9}  {:>8}  {:>12}  {:>13}",
        "workload", "ops", "wall ops/s", "notes"
    );
    for w in YcsbWorkload::ALL {
        let rep = runner.ycsb(&store, w, 0.99, 2_000, 50)?;
        let notes = match w {
            YcsbWorkload::A => "50r/50u zipf",
            YcsbWorkload::B => "95r/5u zipf",
            YcsbWorkload::C => "100r zipf",
            YcsbWorkload::D => "95r/5i latest",
            YcsbWorkload::E => "95scan/5i",
            YcsbWorkload::F => "50r/50rmw",
        };
        println!(
            "{:>9}  {:>8}  {:>12.0}  {:>13}",
            w.label(),
            rep.ops,
            rep.ops as f64 / rep.wall_secs.max(1e-9),
            notes
        );
    }

    let stats = db.stats();
    println!(
        "\nfinal space: {} KiB across {} value files (index SA {:.2})",
        stats.space.total() / 1024,
        stats.value_files,
        stats.index_space_amp
    );
    Ok(())
}

fn main() -> scavenger::Result<()> {
    let env: EnvRef = MemEnv::shared();
    let mut opts = Options::new(env, "db", EngineMode::Scavenger);
    opts.memtable_size = 128 * 1024;
    opts.base_level_bytes = 512 * 1024;
    let db = Db::open(opts)?;
    println!("=== single engine (Db) ===");
    run_tour(&db, 1_000)?;

    // Identical adapter + tour on a sharded store: it is the same
    // handle type.
    let mut opts = ShardedOptions::new(MemEnv::shared(), "db-shards", EngineMode::Scavenger);
    opts.num_shards = 4;
    opts.base.memtable_size = 128 * 1024;
    opts.base.base_level_bytes = 512 * 1024;
    let sharded = DbShards::open(opts)?;
    println!("\n=== sharded engine (DbShards, 4 shards) ===");
    run_tour(&sharded, 1_000)?;
    Ok(())
}
