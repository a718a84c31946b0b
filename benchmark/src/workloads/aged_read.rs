//! The three read-only workloads on one aged tree: `read_cold`, `read_hot`
//! and `scan`. Set-up loads Pareto-1K values (inline and separated mixed),
//! overwrites the data once with Zipf-0.9 keys and flushes, which leaves a
//! multi-level index, GC'd value files and inherited records. The measured
//! phase only reads: table cache, block cache, SST and value-store fetch do
//! all the work; WAL, group commit, flush, compaction and GC do none, so a
//! write-path or GC change must predict "no change" here.
//!
//! `read_cold` and `scan` run with a block cache of 1 % of the data (paper
//! §IV-A), which uniform gets miss almost always. `read_hot` issues the
//! same uniform gets against a cache as large as the data, so that after
//! the first pass every cacheable block hits: the same key stream on the
//! two sides of "fits the cache". (A hot *key set* under the 1 % cache was
//! tried first; which few blocks it landed on made the result hang on the
//! seed by +-15 %.)

use super::*;
use crate::gen::{mix64, KeyDist, Rng, ValueSizes};
use scavenger::Db;

/// 32 Ki keys x ~1 KiB = ~34 MB, against a ~0.34 MB block cache.
const KEYS: u64 = 32 * 1024;
const SCAN_ROWS: usize = 50;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Cold,
    Hot,
    Scan,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "read_cold",
            Kind::Hot => "read_hot",
            Kind::Scan => "scan",
        }
    }

    /// Primary ops per `--seconds`.
    fn nominal_rate(self) -> f64 {
        match self {
            Kind::Cold => 110_000.0,
            Kind::Hot => 140_000.0,
            Kind::Scan => 5_800.0,
        }
    }
}

struct Store {
    stack: Stack,
    db: Db,
    cache: Arc<BlockCache>,
    versions: Vec<u32>,
    user_bytes: u64,
}

impl AsRef<Stack> for Store {
    fn as_ref(&self) -> &Stack {
        &self.stack
    }
}

fn build(p: &Params, ds: &DataSet, kind: Kind) -> Result<Store, String> {
    let stack = Stack::new(p.trace);
    let mut versions = vec![1u32; KEYS as usize];
    let dataset = ds.logical_bytes(&versions);
    let cache = if kind == Kind::Hot {
        Arc::new(BlockCache::with_capacity(dataset as usize))
    } else {
        block_cache_for(dataset)
    };
    let db = Db::open(engine_options(
        stack.env.clone(),
        "db",
        dataset,
        cache.clone(),
    ))
    .map_err(|e| e.to_string())?;
    let mut written = 0;
    let mut put = |id: u64, version: u32| {
        let value = ds.value(id, version);
        written += user_bytes(value.len());
        db.put_with(&nosync(), ds.key(id), value)
            .map(|_| ())
            .map_err(|e| e.to_string())
    };
    for id in load_order(KEYS, p.seed) {
        put(id, 1)?;
    }
    let dist = KeyDist::zipf(KEYS, 0.9, mix64(p.seed));
    let mut rng = Rng::new(p.seed, 1);
    for _ in 0..KEYS {
        let id = dist.next(&mut rng);
        versions[id as usize] += 1;
        put(id, versions[id as usize])?;
    }
    db.flush().map_err(|e| e.to_string())?;
    Ok(Store {
        stack,
        db,
        cache,
        versions,
        user_bytes: written,
    })
}

/// Scan `SCAN_ROWS` rows from `start`; the rows must be ids `start..`.
fn scan_ok(
    ds: &DataSet,
    versions: &[u32],
    start: u64,
    rows: scavenger::Result<Vec<scavenger::ScanEntry>>,
) -> bool {
    rows.is_ok_and(|rows| {
        rows.len() == SCAN_ROWS.min((KEYS - start) as usize)
            && rows
                .iter()
                .zip(start..)
                .all(|(e, id)| e.key == ds.key(id) && ds.check(id, versions[id as usize], &e.value))
    })
}

pub fn run(p: &Params, kind: Kind) -> Result<Outcome, String> {
    let ds = DataSet {
        seed: p.seed,
        sizes: ValueSizes::Pareto1K,
    };
    run_on_store(
        p,
        || build(p, &ds, kind),
        |store| measure(p, kind, &ds, store),
    )
}

fn measure(p: &Params, kind: Kind, ds: &DataSet, store: &Store) -> Result<Outcome, String> {
    let Store {
        stack,
        db,
        cache,
        versions,
        user_bytes,
    } = store;

    let uniform = KeyDist::uniform(KEYS);
    let mut rng = Rng::new(p.seed, 2);

    let n = p.ops(kind.nominal_rate());
    let before = stack.counters();
    let cache_before = cache.stats();

    let log = measure::drive(Instant::now(), n, p.trace, |i, timer| {
        let id = uniform.next(&mut rng);
        if kind == Kind::Scan {
            let key = ds.key(id);
            let (rows, sample) = timer.time(i, "core", "scan", 0, || {
                db.scan(&key, None)
                    .and_then(|mut it| it.collect_n(SCAN_ROWS))
            });
            (sample, scan_ok(ds, versions, id, rows))
        } else {
            let key = ds.key(id);
            let (got, sample) = timer.time(i, "core", "get", 0, || db.get(key));
            (
                sample,
                matches!(got, Ok(Some(v)) if ds.check(id, versions[id as usize], &v)),
            )
        }
    });
    let phase = Phase::merge(vec![log]);
    let after = stack.counters();
    let cache_after = cache.stats();

    let mut out = Outcome::default();
    out.check(
        if kind == Kind::Scan { "scans" } else { "gets" },
        phase.ops(),
        phase.failed,
    );
    // Final audit: one scan over the whole key space, every row checked.
    let all = db
        .scan(b"", None)
        .and_then(|it| it.collect::<scavenger::Result<Vec<_>>>());
    let wrong = match all {
        Ok(rows) if rows.len() as u64 == KEYS => rows
            .iter()
            .zip(0u64..)
            .filter(|(e, id)| {
                !(e.key == ds.key(*id) && ds.check(*id, versions[*id as usize], &e.value))
            })
            .count() as u64,
        _ => KEYS,
    };
    out.check("final audit of every key", KEYS, wrong);

    let m = &mut out.metrics;
    if p.trace {
        env_and_bench_layers(m, &phase, 0, &before, &after);
        let io = after.io.delta(&before.io);
        let self_times = phase.self_times(0);
        if kind == Kind::Scan {
            let rows = phase.ops() * SCAN_ROWS as u64;
            table_layers(m, (&cache_before, &cache_after), &io, 0, rows);
            let mean_self = self_times.iter().sum::<u64>() as f64 / self_times.len().max(1) as f64;
            m.set("core.scan_row_ns", mean_self / SCAN_ROWS as f64);
        } else {
            table_layers(m, (&cache_before, &cache_after), &io, phase.ops(), 0);
            m.set("core.get_self_p50_us", percentile_us(&self_times, 50.0));
        }
        let stats = db.stats();
        m.set("core.space.ksst_mb", mb(stats.space.ksst_bytes));
        m.set("core.space.value_mb", mb(stats.space.value_bytes));
        m.set("core.space.index_amp", stats.index_space_amp);
        m.set(
            "core.space.exposed_garbage_mb",
            mb(stats.exposed_garbage_bytes),
        );
        write_trace_file(kind.name())?;
    } else {
        end_to_end(
            m,
            EndToEndInputs {
                phase: &phase,
                primary_kind: 0,
                before: &before,
                after: &after,
                disk_bytes: stack
                    .mem
                    .total_file_bytes("db/")
                    .map_err(|e| e.to_string())?,
                logical_bytes: ds.logical_bytes(versions),
                user_bytes_written: *user_bytes,
            },
        );
    }
    Ok(out)
}
