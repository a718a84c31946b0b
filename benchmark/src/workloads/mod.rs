//! The workloads and what they share: the env stack, the engine options,
//! the thrice-timed set-up, and the reductions from public engine stats to
//! named metrics.
//!
//! Sizing. `--seconds S` fixes the measured phase's op count at
//! `S x nominal rate` (a constant per workload, below), which takes about
//! `S` seconds on the 2-core reference box. The op count ends the phase,
//! not the clock, so that I/O counts, space and write amplification repeat
//! exactly for a seed. Data sets are a quarter of the paper-shaped sizes the
//! issue sketched (and the engine's file sizes with them, so flushes,
//! compactions and GC runs per data-set turn stay the same), because the
//! driver times three set-ups in every run.

pub mod aged_read;
pub mod crash_audit;
pub mod shards_txn;
pub mod update_gc;
pub mod wire_mixed;

use crate::env::{device_seconds, SimDiskEnv, TraceEnv, TraceTotals};
use crate::gen::{DataSet, KEY_LEN};
use crate::measure::{self, percentile_us, Phase};
use crate::metrics::{mb, MetricSet};
use crate::trace;
use scavenger::{DbStats, EngineMode, Options, WriteOptions};
use scavenger_env::io_stats::NUM_IO_CLASSES;
use scavenger_env::{Env, EnvRef, IoClass, IoStatsSnapshot, MemEnv};
use scavenger_table::btable::BlockCache;
use std::sync::Arc;
use std::time::Instant;

pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Params {
    /// Ops of a phase whose nominal rate is `per_second`; at least one
    /// per slice so every slice has a rate.
    pub fn ops(&self, per_second: f64) -> u64 {
        ((self.seconds * per_second) as u64).max(measure::SLICES as u64)
    }
}

/// Closed-loop clients of the concurrent workloads, recorded as `cores`.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
    /// What went wrong, one line per failed check.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Count `n` checks of which `bad` failed.
    pub fn check(&mut self, what: &str, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.problems.push(format!("{what}: {bad} of {n} wrong"));
        }
    }
}

pub fn run(workload: &str, p: &Params) -> Result<Outcome, String> {
    trace::set_enabled(false);
    let mut out = match workload {
        "update_gc" => update_gc::run(p),
        "read_cold" => aged_read::run(p, aged_read::Kind::Cold),
        "read_hot" => aged_read::run(p, aged_read::Kind::Hot),
        "scan" => aged_read::run(p, aged_read::Kind::Scan),
        "wire_mixed" => wire_mixed::run(p),
        "shards_txn" => shards_txn::run(p),
        other => return Err(format!("unknown workload {other:?}")),
    }
    .map_err(|e| format!("{workload}: {e}"))?;
    if p.trace {
        out.metrics.extend(crate::probes::run(p.seed)?);
    }
    Ok(out)
}

/// `TraceEnv(SimDiskEnv(MemEnv))`, the tracer only in a traced run.
pub struct Stack {
    pub mem: Arc<MemEnv>,
    pub sim: Arc<SimDiskEnv>,
    pub tracer: Option<Arc<TraceEnv>>,
    pub env: EnvRef,
}

impl Stack {
    pub fn new(traced: bool) -> Stack {
        let mem = MemEnv::shared();
        let sim = SimDiskEnv::new(mem.clone());
        let tracer = traced.then(|| TraceEnv::new(sim.clone()));
        let env: EnvRef = match &tracer {
            Some(t) => t.clone(),
            None => sim.clone(),
        };
        Stack {
            mem,
            sim,
            tracer,
            env,
        }
    }

    pub fn counters(&self) -> EnvCounters {
        EnvCounters {
            io: self.mem.io_stats().snapshot(),
            syncs: self.sim.syncs_by_class(),
            traced: self.tracer.as_ref().map(|t| t.totals()),
        }
    }
}

/// The env stack's counters at one instant.
pub struct EnvCounters {
    pub io: IoStatsSnapshot,
    pub syncs: [u64; NUM_IO_CLASSES],
    pub traced: Option<TraceTotals>,
}

impl EnvCounters {
    pub fn total_syncs(&self) -> u64 {
        self.syncs.iter().sum()
    }
}

/// Engine options: defaults, except the sizes that must track the data set
/// (paper §IV-A: cache 1 % of the data; base level 1/32 of it) and file
/// sizes scaled with it. The caller picks background mode and space limit.
pub fn engine_options(
    env: EnvRef,
    dir: &str,
    dataset_bytes: u64,
    cache: Arc<BlockCache>,
) -> Options {
    let mut o = Options::new(env, dir, EngineMode::Scavenger);
    o.memtable_size = 1024 * 1024;
    o.ksst_target_size = 512 * 1024;
    o.vsst_target_size = 2 * 1024 * 1024;
    o.base_level_bytes = dataset_bytes / 32;
    o.block_cache = Some(cache);
    o
}

pub fn block_cache_for(dataset_bytes: u64) -> Arc<BlockCache> {
    Arc::new(BlockCache::with_capacity((dataset_bytes / 100) as usize))
}

pub fn nosync() -> WriteOptions {
    WriteOptions::with_sync(false)
}

/// Key ids `0..n` in a seeded order that is neither sorted nor clustered:
/// `i -> (a*i + b) mod n` with `a` odd and `n` a power of two.
pub fn load_order(n: u64, seed: u64) -> impl Iterator<Item = u64> {
    assert!(n.is_power_of_two());
    let a = crate::gen::mix64(seed) | 1;
    let b = crate::gen::mix64(seed ^ 0xb);
    (0..n).map(move |i| a.wrapping_mul(i).wrapping_add(b) & (n - 1))
}

/// Build a store, timed.
pub fn timed_build<S>(build: &mut impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let t = Instant::now();
    let store = build()?;
    Ok((store, t.elapsed().as_secs_f64()))
}

/// Drop a store and wait until the engine's background threads have let go
/// of its env, so that no thread and no memory of it outlives the call.
pub fn release<S: AsRef<Stack>>(store: S) -> Result<(), String> {
    let mem = Arc::downgrade(&store.as_ref().mem);
    drop(store);
    let waited = Instant::now();
    while mem.strong_count() > 0 {
        if waited.elapsed().as_secs() >= 10 {
            return Err("a dropped store still holds its env after 10 s".into());
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    Ok(())
}

/// `setup_s`: the median of three timed set-ups. The first is the store the
/// run measured (built before the phase, `first_s`); the other two are
/// built and released here, after peak memory has been read, so what the
/// allocator keeps of them cannot show in `peak_rss_mb`.
pub fn setup_median<S: AsRef<Stack>>(
    measured: S,
    first_s: f64,
    mut build: impl FnMut() -> Result<S, String>,
) -> Result<f64, String> {
    release(measured)?;
    let mut times = vec![first_s];
    for _ in 0..2 {
        let (store, secs) = timed_build(&mut build)?;
        times.push(secs);
        release(store)?;
    }
    Ok(measure::median(&mut times))
}

/// Run `f(index, state)` for each client state on its own named thread and
/// collect the results in client order.
pub fn on_client_threads<S: Send, T: Send>(
    states: Vec<S>,
    f: impl Fn(usize, S) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(index, state)| {
                std::thread::Builder::new()
                    .name(format!("bench-client-{index}"))
                    .spawn_scoped(s, move || f(index, state))
                    .expect("spawn client thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Final audit by point reads: how many of the keys `0..versions.len()` do
/// not read back as exactly the model's current value.
pub fn wrong_keys(db: &scavenger::Db, ds: &DataSet, versions: &[u32]) -> u64 {
    (0u64..)
        .zip(versions)
        .filter(|&(id, &v)| !matches!(db.get(ds.key(id)), Ok(Some(got)) if ds.check(id, v, &got)))
        .count() as u64
}

/// The shape of every workload: build the store (timed), measure on it,
/// then — in an untraced run, which is the one that reports `setup_s` —
/// time two more set-ups.
pub fn run_on_store<S: AsRef<Stack>>(
    p: &Params,
    mut build: impl FnMut() -> Result<S, String>,
    measure: impl FnOnce(&mut S) -> Result<Outcome, String>,
) -> Result<Outcome, String> {
    let (mut store, first_s) = timed_build(&mut build)?;
    let mut out = measure(&mut store)?;
    if p.trace {
        release(store)?;
    } else {
        out.metrics
            .set("setup_s", setup_median(store, first_s, build)?);
    }
    Ok(out)
}

/// The end-to-end numbers every workload derives the same way.
pub struct EndToEndInputs<'a> {
    pub phase: &'a Phase,
    /// Kind of the primary op among the phase's samples.
    pub primary_kind: u8,
    pub before: &'a EnvCounters,
    pub after: &'a EnvCounters,
    pub disk_bytes: u64,
    pub logical_bytes: u64,
    /// User bytes (keys + values) written since the store was created.
    pub user_bytes_written: u64,
}

pub fn end_to_end(m: &mut MetricSet, x: EndToEndInputs<'_>) {
    m.set("ops_per_s", x.phase.ops_per_s());
    m.set("mean_us", x.phase.mean_latency_us(x.primary_kind));
    m.set("space_amp", x.disk_bytes as f64 / x.logical_bytes as f64);
    m.set(
        "write_amp",
        x.after.io.total_write_bytes() as f64 / x.user_bytes_written as f64,
    );
    m.set(
        "device_s",
        device_seconds(
            &x.after.io.delta(&x.before.io),
            x.after.total_syncs() - x.before.total_syncs(),
        ),
    );
    m.set("peak_rss_mb", measure::peak_rss_mb());
}

/// Bytes a put of `(key, value)` counts as user data.
pub fn user_bytes(value_len: usize) -> u64 {
    (KEY_LEN + value_len) as u64
}

/// Env-layer metrics of the measured phase, plus the harness's own.
pub fn env_and_bench_layers(
    m: &mut MetricSet,
    phase: &Phase,
    primary_kind: u8,
    before: &EnvCounters,
    after: &EnvCounters,
) {
    let syncs = after.total_syncs() - before.total_syncs();
    m.set("env.syncs", syncs as f64);
    m.set(
        "env.manifest_syncs",
        (after.syncs[IoClass::Manifest as usize] - before.syncs[IoClass::Manifest as usize]) as f64,
    );
    if let (Some(b), Some(a)) = (&before.traced, &after.traced) {
        let d = a.delta(b);
        m.set("env.appends", d.append.total_calls() as f64);
        m.set("env.append_mb", mb(d.append.total_bytes()));
        m.set("env.append_ms", d.append.estimated_ms(&[]));
        m.set("env.reads", d.read.total_calls() as f64);
        m.set("env.read_mb", mb(d.read.total_bytes()));
        m.set("env.read_ms", d.read.estimated_ms(&[]));
        m.set("env.sync_wait_ms", d.sync.estimated_ms(&[]));
        m.set("env.files_created", d.files_created as f64);
        m.set("env.files_removed", d.files_removed as f64);
        m.set("lsm.wal_append_ns", d.append.mean_ns(&[IoClass::Wal]));
        m.set("lsm.wal_sync_wait_ms", d.sync.estimated_ms(&[IoClass::Wal]));
    }
    m.set("bench.trace_overhead_pct", phase.trace_overhead_pct());
    m.set("bench.traced_ops_per_s", phase.ops_per_s());
    m.set("bench.generator_ns_per_op", phase.client_ns_per_op);
    m.set("bench.primary_p50_us", phase.latency_us(primary_kind, 50.0));
    m.set("bench.primary_p99_us", phase.latency_us(primary_kind, 99.0));
}

/// Core- and lsm-layer metrics from the public stats, over the phase.
pub fn engine_layers(m: &mut MetricSet, before: &DbStats, after: &DbStats) {
    let gc = after.gc.delta(&before.gc);
    let ms = |ns: u64| ns as f64 / 1e6;
    m.set("core.gc.runs", gc.runs as f64);
    m.set("core.gc.read_ms", ms(gc.read_ns));
    m.set("core.gc.lookup_ms", ms(gc.lookup_ns));
    m.set("core.gc.write_ms", ms(gc.write_ns));
    m.set("core.gc.write_index_ms", ms(gc.write_index_ns));
    m.set("core.gc.records_scanned", gc.records_scanned as f64);
    m.set(
        "core.gc.valid_ratio",
        gc.records_valid as f64 / gc.records_scanned.max(1) as f64,
    );
    m.set("core.gc.reclaimed_mb", mb(gc.reclaimed_bytes));
    let io = after.io.delta(&before.io);
    let gc_io = io.class(IoClass::GcRead).read_bytes + io.class(IoClass::GcWrite).write_bytes;
    m.set(
        "core.gc.io_bytes_per_reclaimed_byte",
        gc_io as f64 / gc.reclaimed_bytes.max(1) as f64,
    );
    m.set(
        "core.throttle.stalls",
        (after.throttle_stalls - before.throttle_stalls) as f64,
    );
    m.set("core.space.ksst_mb", mb(after.space.ksst_bytes));
    m.set("core.space.value_mb", mb(after.space.value_bytes));
    m.set("core.space.wal_mb", mb(after.space.wal_bytes));
    m.set("core.space.index_amp", after.index_space_amp);
    m.set(
        "core.space.exposed_garbage_mb",
        mb(after.exposed_garbage_bytes),
    );

    m.set("lsm.flushes", (after.flushes - before.flushes) as f64);
    m.set(
        "lsm.compactions",
        (after.compactions - before.compactions) as f64,
    );
    m.set(
        "lsm.merge_drops",
        (after.merge_drops - before.merge_drops) as f64,
    );
    m.set("lsm.wal_mb", mb(io.class(IoClass::Wal).write_bytes));
    m.set("lsm.flush_mb", mb(io.class(IoClass::Flush).write_bytes));
    m.set(
        "lsm.compaction_read_mb",
        mb(io.class(IoClass::Compaction).read_bytes),
    );
    m.set(
        "lsm.compaction_write_mb",
        mb(io.class(IoClass::Compaction).write_bytes),
    );
    let groups = after.group_commit_groups - before.group_commit_groups;
    let batches = after.group_commit_batches - before.group_commit_batches;
    m.set("lsm.group_commit.groups", groups as f64);
    m.set("lsm.group_commit.batches", batches as f64);
    m.set(
        "lsm.group_commit.mean_group",
        batches as f64 / groups.max(1) as f64,
    );
    m.set(
        "lsm.group_commit.max_group",
        after.group_commit_max_group as f64,
    );
    m.set(
        "lsm.group_commit.fsyncs_saved",
        (after.group_commit_fsyncs_saved - before.group_commit_fsyncs_saved) as f64,
    );
}

/// Table-layer metrics of a read phase: block-cache hit ratio over the
/// phase and device reads per get, from the foreground I/O classes.
pub fn table_layers(
    m: &mut MetricSet,
    cache: (&(u64, u64, u64), &(u64, u64, u64)),
    io: &IoStatsSnapshot,
    gets: u64,
    scan_rows: u64,
) {
    let (hits, misses) = (cache.1 .0 - cache.0 .0, cache.1 .1 - cache.0 .1);
    m.set(
        "table.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let (index, value) = (
        io.class(IoClass::FgIndexRead),
        io.class(IoClass::FgValueRead),
    );
    if gets > 0 {
        m.set(
            "table.index_reads_per_get",
            index.read_ops as f64 / gets as f64,
        );
        m.set(
            "table.index_bytes_per_get",
            index.read_bytes as f64 / gets as f64,
        );
        m.set(
            "table.value_reads_per_get",
            value.read_ops as f64 / gets as f64,
        );
        m.set(
            "table.value_bytes_per_get",
            value.read_bytes as f64 / gets as f64,
        );
    }
    if scan_rows > 0 {
        m.set(
            "table.reads_per_scan_row",
            (index.read_ops + value.read_ops) as f64 / scan_rows as f64,
        );
    }
}

/// `benchmark/out` under the working directory — the root of the checkout,
/// where the driver and the README run the command from: trace files and
/// `results.json`.
pub fn out_dir() -> Result<std::path::PathBuf, String> {
    let dir = std::path::PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Write the traced run's spans to `out/trace-<workload>.json`.
pub fn write_trace_file(workload: &str) -> Result<(), String> {
    let path = out_dir()?.join(format!("trace-{workload}.json"));
    std::fs::write(&path, trace::drain().to_json(workload))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_order_is_a_permutation_that_depends_on_the_seed() {
        let mut a: Vec<u64> = load_order(1024, 1).collect();
        let b: Vec<u64> = load_order(1024, 2).collect();
        assert_ne!(a, b);
        assert!(a.windows(2).any(|w| w[1] < w[0]), "not sorted");
        a.sort_unstable();
        assert_eq!(a, (0..1024).collect::<Vec<_>>());
    }

    struct Built(Stack);

    impl AsRef<Stack> for Built {
        fn as_ref(&self) -> &Stack {
            &self.0
        }
    }

    #[test]
    fn setup_median_times_two_more_builds_with_one_store_alive_at_a_time() {
        let mut alive: Vec<std::sync::Weak<MemEnv>> = Vec::new();
        let mut build = || {
            assert!(
                alive.iter().all(|w| w.strong_count() == 0),
                "the earlier store is gone"
            );
            std::thread::sleep(std::time::Duration::from_millis(if alive.len() == 1 {
                30
            } else {
                5
            }));
            let stack = Stack::new(false);
            alive.push(Arc::downgrade(&stack.mem));
            Ok(Built(stack))
        };
        let (first, first_s) = timed_build(&mut build).unwrap();
        let secs = setup_median(first, first_s, &mut build).unwrap();
        assert!(
            (0.005..0.03).contains(&secs),
            "median ignores the slow build: {secs}"
        );
        assert_eq!(alive.len(), 3);
        assert!(
            alive.iter().all(|w| w.strong_count() == 0),
            "every store released"
        );
    }
}
