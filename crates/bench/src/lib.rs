//! Experiment harness regenerating every table and figure of the paper.
//!
//! The `figures` binary (`src/bin/figures.rs`) holds every figure as one
//! table of cells — engine × experiment point × metric — and runs each
//! distinct experiment once, at a laptop-scale configuration
//! (ARCHITECTURE.md "Configuration" has the paper→scaled mapping). This
//! library is what it runs: [`run_experiment`] and [`run_ycsb`] on a fresh
//! in-memory store per call, [`Scale`] for the dataset size, and
//! [`print_table`].
//!
//! Throughput is reported two ways:
//! * `sim MB/s` — user bytes over *simulated device seconds* from the
//!   calibrated NVMe [`DeviceModel`] applied to exact I/O counters (the
//!   primary, hardware-independent metric);
//! * `wall MB/s` — wall-clock, for reference.

#![forbid(unsafe_code)]

use scavenger::{Db, DeviceModel, EngineMode, Features, IoStatsSnapshot, Options};
use scavenger_env::{EnvRef, MemEnv};
use scavenger_util::Result;
use scavenger_workload::dist::KeyDist;
use scavenger_workload::runner::{PhaseReport, Runner};
use scavenger_workload::values::ValueGen;
use scavenger_workload::ycsb::YcsbWorkload;
use scavenger_workload::KvStore;

/// Adapter: drive a [`Db`] of any size through the workload crate's
/// [`KvStore`].
pub struct DbKvStore<'a>(pub &'a Db);

impl KvStore for DbKvStore<'_> {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.0
            .put(key, scavenger::Bytes::copy_from_slice(value))
            .map(|_| ())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.0.get(key)?.map(|b| b.to_vec()))
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.0.delete(key).map(|_| ())
    }

    fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.0
            .scan(start, None)?
            .take(limit)
            .map(|e| e.map(|e| (e.key, e.value.to_vec())))
            .collect()
    }
}

/// An engine under test: a paper baseline or a custom feature set
/// (ablations).
#[derive(Clone)]
pub struct EngineSpec {
    /// Row label in the output tables.
    pub label: String,
    /// Base mode (used for defaults).
    pub mode: EngineMode,
    /// Feature overrides.
    pub features: Features,
}

impl EngineSpec {
    /// A paper baseline.
    pub fn mode(mode: EngineMode) -> Self {
        EngineSpec {
            label: mode.label().to_string(),
            mode,
            features: Features::for_mode(mode),
        }
    }

    /// A custom feature set with a label (ablations, …).
    pub fn custom(label: &str, mode: EngineMode, features: Features) -> Self {
        EngineSpec {
            label: label.to_string(),
            mode,
            features,
        }
    }

    /// All five paper baselines.
    pub fn all_modes() -> Vec<EngineSpec> {
        EngineMode::ALL
            .iter()
            .map(|m| EngineSpec::mode(*m))
            .collect()
    }
}

/// Scaled experiment dimensions. `default()` targets tens-of-seconds runs;
/// `--scale` multiplies the dataset.
#[derive(Clone, Copy)]
pub struct Scale {
    /// Target unique-dataset bytes (paper: 100 GB).
    pub dataset_bytes: u64,
    /// Update volume as a multiple of the dataset (paper: 3×).
    pub update_factor: f64,
    /// Point reads in read phases.
    pub read_ops: u64,
    /// Range scans in scan phases.
    pub scan_ops: u64,
    /// Max scan length (paper: uniform 1–1000; scaled down).
    pub scan_max_len: usize,
    /// YCSB operations per workload.
    pub ycsb_ops: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            dataset_bytes: 6 * 1024 * 1024,
            update_factor: 3.0,
            read_ops: 3_000,
            scan_ops: 150,
            scan_max_len: 100,
            ycsb_ops: 4_000,
            seed: 42,
        }
    }
}

impl Scale {
    /// Grow the dataset and every operation count by `f×` (`--scale F`).
    pub fn times(self, f: f64) -> Scale {
        Scale {
            dataset_bytes: (self.dataset_bytes as f64 * f) as u64,
            read_ops: (self.read_ops as f64 * f) as u64,
            scan_ops: (self.scan_ops as f64 * f) as u64,
            ycsb_ops: (self.ycsb_ops as f64 * f) as u64,
            ..self
        }
    }

    /// Number of keys for a value generator averaging `mean` bytes.
    pub fn num_keys(&self, value_gen: &ValueGen) -> u64 {
        let per_key = value_gen.mean_size() + 24.0;
        ((self.dataset_bytes as f64 / per_key) as u64).max(64)
    }
}

/// Build engine options at the scaled sizes (ARCHITECTURE.md
/// "Configuration").
pub fn build_options(
    spec: &EngineSpec,
    env: EnvRef,
    dir: &str,
    scale: &Scale,
    space_limit: Option<u64>,
) -> Options {
    let mut o = Options::new(env, dir, spec.mode);
    o.features = spec.features;
    o.memtable_size = 256 * 1024;
    o.ksst_target_size = 256 * 1024;
    o.vsst_target_size = 1024 * 1024;
    // Base level sized so the (compensated) tree builds 2–3 levels at the
    // default dataset — preserving the paper's multi-level structure.
    o.base_level_bytes = (scale.dataset_bytes / 32).max(64 * 1024);
    o.block_cache_bytes = (scale.dataset_bytes / 100).max(256 * 1024) as usize;
    o.space_limit = space_limit;
    o
}

/// Everything measured in one engine run.
pub struct RunOut {
    /// Engine label.
    pub label: String,
    /// Load (insert) phase.
    pub insert: PhaseReport,
    /// I/O during load.
    pub io_insert: IoStatsSnapshot,
    /// Update phase.
    pub update: PhaseReport,
    /// I/O during updates.
    pub io_update: IoStatsSnapshot,
    /// GC-step deltas during updates.
    pub gc_update: scavenger::GcStepTimes,
    /// Read phase (if run).
    pub read: Option<PhaseReport>,
    /// I/O during reads.
    pub io_read: IoStatsSnapshot,
    /// Scan phase (if run).
    pub scan: Option<PhaseReport>,
    /// I/O during scans.
    pub io_scan: IoStatsSnapshot,
    /// Final total space.
    pub space_total: u64,
    /// Final key-SST bytes.
    pub ksst_bytes: u64,
    /// Final value bytes on disk.
    pub value_bytes: u64,
    /// Exact logical dataset size.
    pub logical_bytes: u64,
    /// Index LSM space amplification (paper Eq. 1).
    pub index_sa: f64,
    /// Exposed garbage / valid-value-bytes ratio (paper Fig. 5b).
    pub exposed_valid: f64,
    /// Block cache hit ratio.
    pub cache_hit_ratio: f64,
    /// Throttle activations.
    pub throttle_stalls: u64,
}

impl RunOut {
    /// Overall space amplification.
    pub fn space_amp(&self) -> f64 {
        if self.logical_bytes == 0 {
            1.0
        } else {
            self.space_total as f64 / self.logical_bytes as f64
        }
    }

    /// Simulated MB/s of a phase's user bytes over its device time.
    pub fn sim_mbps(user_bytes: u64, io: &IoStatsSnapshot) -> f64 {
        let secs = DeviceModel::nvme().simulated_seconds(io);
        if secs <= 0.0 {
            0.0
        } else {
            user_bytes as f64 / 1e6 / secs
        }
    }

    /// Simulated update throughput, MB/s.
    pub fn update_mbps(&self) -> f64 {
        Self::sim_mbps(self.update.user_write_bytes, &self.io_update)
    }

    /// Simulated insert throughput, MB/s.
    pub fn insert_mbps(&self) -> f64 {
        Self::sim_mbps(self.insert.user_write_bytes, &self.io_insert)
    }

    /// Simulated read throughput, K ops/s.
    pub fn read_kops(&self) -> f64 {
        match &self.read {
            Some(r) => {
                let secs = DeviceModel::nvme().simulated_seconds(&self.io_read);
                if secs <= 0.0 {
                    0.0
                } else {
                    r.ops as f64 / 1e3 / secs
                }
            }
            None => 0.0,
        }
    }

    /// Simulated scan throughput, MB/s of rows returned.
    pub fn scan_mbps(&self) -> f64 {
        match &self.scan {
            Some(r) => Self::sim_mbps(r.user_read_bytes, &self.io_scan),
            None => 0.0,
        }
    }
}

/// Phases to run in [`run_experiment`].
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Run the update phase.
    pub update: bool,
    /// Run the read phase.
    pub read: bool,
    /// Run the scan phase.
    pub scan: bool,
}

impl Phases {
    /// Load + update only (most figures).
    pub fn load_update() -> Self {
        Phases {
            update: true,
            read: false,
            scan: false,
        }
    }

    /// The full microbenchmark suite (Fig. 12).
    pub fn all() -> Self {
        Phases {
            update: true,
            read: true,
            scan: true,
        }
    }
}

/// How [`run_experiment`] picks the keys its update, read and scan
/// phases touch.
#[derive(Debug, Clone, Copy)]
pub enum Keys {
    /// Scrambled Zipfian with constant θ (the paper's default is 0.9).
    Zipf(f64),
    /// Uniform over the loaded keys.
    Uniform,
}

impl Keys {
    fn dist(self, n: u64) -> KeyDist {
        match self {
            Keys::Zipf(theta) => KeyDist::zipfian(n, theta),
            Keys::Uniform => KeyDist::uniform(n),
        }
    }
}

/// The standard experiment: load the dataset, apply updates (the paper's
/// GC-stressing phase), optionally read and scan; measure everything.
pub fn run_experiment(
    spec: &EngineSpec,
    value_gen: ValueGen,
    keys: Keys,
    scale: &Scale,
    space_limit_factor: Option<f64>,
    phases: Phases,
) -> Result<RunOut> {
    let env: EnvRef = MemEnv::shared();
    let n = scale.num_keys(&value_gen);
    let space_limit = space_limit_factor.map(|f| (scale.dataset_bytes as f64 * f) as u64);
    let opts = build_options(spec, env.clone(), "bench-db", scale, space_limit);
    let db = Db::open(opts)?;
    let store = DbKvStore(&db);
    // Extra capacity for YCSB-D style growth is not needed here.
    let mut runner = Runner::new(n, value_gen, scale.seed);

    let io0 = env.io_stats().snapshot();
    let insert = runner.load(&store, n)?;
    db.flush()?;
    let io1 = env.io_stats().snapshot();

    let dist = keys.dist(n);
    let gc0 = db.stats().gc;
    let update = if phases.update {
        let bytes = (scale.dataset_bytes as f64 * scale.update_factor) as u64;
        let rep = runner.update_bytes(&store, &dist, bytes)?;
        db.flush()?;
        rep
    } else {
        PhaseReport::default()
    };
    let io2 = env.io_stats().snapshot();
    let gc1 = db.stats().gc;

    let read = if phases.read {
        Some(runner.read(&store, &dist, scale.read_ops)?)
    } else {
        None
    };
    let io3 = env.io_stats().snapshot();

    let scan = if phases.scan {
        Some(runner.scan(&store, &dist, scale.scan_ops, scale.scan_max_len)?)
    } else {
        None
    };
    let io4 = env.io_stats().snapshot();

    let stats = db.stats();
    let logical = runner.logical_bytes();
    let valid_value_bytes = logical.saturating_sub(runner.num_keys() * 24).max(1);
    Ok(RunOut {
        label: spec.label.clone(),
        insert,
        io_insert: io1.delta(&io0),
        update,
        io_update: io2.delta(&io1),
        gc_update: gc1.delta(&gc0),
        read,
        io_read: io3.delta(&io2),
        scan,
        io_scan: io4.delta(&io3),
        space_total: stats.space.total(),
        ksst_bytes: stats.space.ksst_bytes,
        value_bytes: stats.space.value_bytes,
        logical_bytes: logical,
        index_sa: stats.index_space_amp,
        exposed_valid: stats.exposed_garbage_bytes as f64 / valid_value_bytes as f64,
        cache_hit_ratio: stats.cache_hit_ratio,
        throttle_stalls: stats.throttle_stalls,
    })
}

/// Run YCSB workload `w` after the standard load+update warmup; returns
/// `(ops/s simulated, report, final RunOut-ish space numbers)`.
pub fn run_ycsb(
    spec: &EngineSpec,
    value_gen: ValueGen,
    w: YcsbWorkload,
    scale: &Scale,
    space_limit_factor: Option<f64>,
) -> Result<(f64, PhaseReport, f64)> {
    let env: EnvRef = MemEnv::shared();
    let n = scale.num_keys(&value_gen);
    let space_limit = space_limit_factor.map(|f| (scale.dataset_bytes as f64 * f) as u64);
    let opts = build_options(spec, env.clone(), "bench-db", scale, space_limit);
    let db = Db::open(opts)?;
    let store = DbKvStore(&db);
    // Allow keyspace growth for insert-bearing workloads (D/E).
    let mut runner = Runner::new(n * 2, value_gen, scale.seed);
    runner.load(&store, n)?;
    let dist = KeyDist::zipfian(n, 0.9);
    runner.update_bytes(&store, &dist, scale.dataset_bytes)?;
    db.flush()?;

    let io0 = env.io_stats().snapshot();
    let rep = runner.ycsb(&store, w, 0.99, scale.ycsb_ops, scale.scan_max_len)?;
    let io1 = env.io_stats().snapshot();
    let d = io1.delta(&io0);
    let secs = DeviceModel::nvme().simulated_seconds(&d);
    let ops_per_sec = if secs <= 0.0 {
        0.0
    } else {
        rep.ops as f64 / secs
    };
    let logical = runner.logical_bytes().max(1);
    let space_amp = db.stats().space.total() as f64 / logical as f64;
    Ok((ops_per_sec, rep, space_amp))
}

// ---------------- output formatting ----------------

/// Print an aligned table: `headers` then `rows`.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let head: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    println!("  {}", head.join("  "));
    println!(
        "  {}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", cells.join("  "));
    }
}

/// Format a fraction as `x.xx`.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format MB.
pub fn mb(x: u64) -> String {
    format!("{:.2}", x as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_adapter_roundtrip() {
        let env: EnvRef = MemEnv::shared();
        let opts = Options::new(env, "db", EngineMode::Scavenger);
        let db = Db::open(opts).unwrap();
        let store = DbKvStore(&db);
        store.put(b"k", &vec![7u8; 2048]).unwrap();
        assert_eq!(store.get(b"k").unwrap().unwrap(), vec![7u8; 2048]);
        let rows = store.scan(b"", 10).unwrap();
        assert_eq!(rows.len(), 1);
        store.delete(b"k").unwrap();
        assert!(store.get(b"k").unwrap().is_none());
    }

    #[test]
    fn tiny_experiment_runs_all_modes() {
        let scale = Scale {
            dataset_bytes: 256 * 1024,
            update_factor: 1.0,
            read_ops: 50,
            scan_ops: 5,
            scan_max_len: 10,
            ycsb_ops: 50,
            seed: 1,
        };
        for spec in EngineSpec::all_modes() {
            let out = run_experiment(
                &spec,
                ValueGen::fixed(2048),
                Keys::Zipf(0.9),
                &scale,
                None,
                Phases::all(),
            )
            .unwrap();
            assert!(
                out.space_amp() >= 0.9,
                "{}: SA {}",
                out.label,
                out.space_amp()
            );
            assert!(out.update.ops > 0);
            assert!(out.read.unwrap().ops == 50);
        }
    }

    #[test]
    fn tiny_ycsb_runs() {
        let scale = Scale {
            dataset_bytes: 128 * 1024,
            update_factor: 1.0,
            read_ops: 10,
            scan_ops: 2,
            scan_max_len: 5,
            ycsb_ops: 100,
            seed: 2,
        };
        let spec = EngineSpec::mode(EngineMode::Scavenger);
        let (ops, rep, sa) =
            run_ycsb(&spec, ValueGen::fixed(1024), YcsbWorkload::A, &scale, None).unwrap();
        assert!(ops > 0.0);
        assert_eq!(rep.ops, 100);
        assert!(sa > 0.5);
    }
}

#[cfg(test)]
mod titan_repro {
    use super::*;
    use scavenger_workload::dist::KeyDist;
    use scavenger_workload::runner::Runner;
    use scavenger_workload::values::ValueGen;

    #[test]
    fn titan_update_verified() {
        let scale = Scale {
            dataset_bytes: 1024 * 1024,
            update_factor: 3.0,
            read_ops: 500,
            scan_ops: 0,
            scan_max_len: 1,
            ycsb_ops: 0,
            seed: 9,
        };
        let env: EnvRef = MemEnv::shared();
        let spec = EngineSpec::mode(EngineMode::Titan);
        let value_gen = ValueGen::fixed(4096);
        let n = scale.num_keys(&value_gen);
        let opts = build_options(&spec, env.clone(), "db", &scale, None);
        let db = Db::open(opts).unwrap();
        let store = DbKvStore(&db);
        let mut runner = Runner::new(n, value_gen, scale.seed).with_verification();
        runner.load(&store, n).unwrap();
        db.flush().unwrap();
        let dist = KeyDist::zipfian(n, 0.9);
        runner.update_bytes(&store, &dist, 3 * 1024 * 1024).unwrap();
        db.flush().unwrap();
        // verify everything
        let dist = KeyDist::uniform(n);
        runner.read(&store, &dist, n * 2).unwrap();
        let logical = runner.logical_bytes();
        let total = db.stats().space.total();
        assert!(
            total as f64 >= logical as f64 * 0.98,
            "SA<1: total {total} logical {logical}"
        );
    }
}
