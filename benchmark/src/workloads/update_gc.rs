//! `update_gc` — the paper's Fig. 12 update phase. One client overwrites a
//! loaded Mixed-8K data set with Zipf-0.9 keys, `sync = false` (db_bench's
//! default, as in the paper), background work inline, under a space limit
//! of 1.5x the data. core GC, lsm flush/compaction and the throttle do most
//! of the work; the read path and the server do none.

use super::*;
use crate::gen::{mix64, KeyDist, Rng, ValueSizes};
use scavenger::Db;

/// 16 Ki keys x ~8.3 KiB = ~136 MB.
const KEYS: u64 = 16 * 1024;
/// Puts per `--seconds`; ~115 MB/s, so 6 s overwrite the data ~5 times.
const NOMINAL_PUTS_PER_S: f64 = 14_000.0;
/// Op kinds. Mixed-8K is half small values (inline in the index) and half
/// 16 KiB ones (separated), so the median put sits on the edge between two
/// modes and wanders with the seed. Latencies are therefore those of the
/// separated puts, the class the paper's design is about; the small ones
/// count toward throughput only.
const LARGE: u8 = 0;
const SMALL: u8 = 1;
/// A put slower than this is a stall.
const STALL_NS: u64 = 1_000_000;

struct Store {
    stack: Stack,
    db: Db,
    versions: Vec<u32>,
    user_bytes: u64,
}

impl AsRef<Stack> for Store {
    fn as_ref(&self) -> &Stack {
        &self.stack
    }
}

fn build(p: &Params, ds: &DataSet) -> Result<Store, String> {
    let stack = Stack::new(p.trace);
    let versions = vec![1u32; KEYS as usize];
    let dataset = ds.logical_bytes(&versions);
    let mut opts = engine_options(stack.env.clone(), "db", dataset, block_cache_for(dataset));
    opts.space_limit = Some(dataset * 3 / 2);
    let db = Db::open(opts).map_err(|e| e.to_string())?;
    let mut written = 0;
    for id in load_order(KEYS, p.seed) {
        let value = ds.value(id, 1);
        written += user_bytes(value.len());
        db.put_with(&nosync(), ds.key(id), value)
            .map_err(|e| e.to_string())?;
    }
    db.flush().map_err(|e| e.to_string())?;
    Ok(Store {
        stack,
        db,
        versions,
        user_bytes: written,
    })
}

/// Which background job a stalled put ran, from the counters that moved
/// since the previous stall.
#[derive(Default)]
struct Stalls {
    count: u64,
    ns: [u64; 4],
}

const STALL_NAMES: [&str; 4] = [
    "core.put_stall_ms.throttle",
    "core.put_stall_ms.gc",
    "core.put_stall_ms.compaction",
    "core.put_stall_ms.flush",
];

impl Stalls {
    fn attribute(&mut self, lat_ns: u64, prev: &DbStats, now: &DbStats) {
        self.count += 1;
        let cause = if now.throttle_stalls > prev.throttle_stalls {
            0
        } else if now.gc.runs > prev.gc.runs {
            1
        } else if now.compactions > prev.compactions {
            2
        } else {
            3
        };
        self.ns[cause] += lat_ns;
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    run_tampered(p, |_| {})
}

/// `run`, with a hook on the oracle just before the final audit, so a test
/// can show that one wrong expected value fails the run.
pub fn run_tampered(p: &Params, tamper: impl FnOnce(&mut [u32])) -> Result<Outcome, String> {
    let ds = DataSet {
        seed: p.seed,
        sizes: ValueSizes::Mixed8K,
    };
    run_on_store(p, || build(p, &ds), |store| measure(p, &ds, store, tamper))
}

fn measure(
    p: &Params,
    ds: &DataSet,
    store: &mut Store,
    tamper: impl FnOnce(&mut [u32]),
) -> Result<Outcome, String> {
    let Store {
        stack,
        db,
        versions,
        user_bytes: written,
    } = store;

    let dist = KeyDist::zipf(KEYS, 0.9, mix64(p.seed));
    let mut rng = Rng::new(p.seed, 1);
    let n = p.ops(NOMINAL_PUTS_PER_S);
    let stats_before = db.stats();
    let before = stack.counters();
    let mut stalls = Stalls::default();
    let mut last_stats = p.trace.then(|| stats_before.clone());

    let log = measure::drive(Instant::now(), n, p.trace, |i, timer| {
        let id = dist.next(&mut rng);
        let version = versions[id as usize] + 1;
        let value = ds.value(id, version);
        *written += user_bytes(value.len());
        let key = ds.key(id);
        let kind = if value.len() >= 16 * 1024 {
            LARGE
        } else {
            SMALL
        };
        let (res, sample) = timer.time(i, "core", "put", kind, || {
            db.put_with(&nosync(), key, value)
        });
        if res.is_ok() {
            versions[id as usize] = version;
        }
        if let (Some(prev), true) = (last_stats.as_mut(), sample.lat_ns >= STALL_NS) {
            let now = db.stats();
            stalls.attribute(sample.lat_ns, prev, &now);
            *prev = now;
        }
        (sample, res.is_ok())
    });
    let phase = Phase::merge(vec![log]);
    let after = stack.counters();
    let stats_after = db.stats();

    let mut out = Outcome::default();
    out.check("puts", phase.ops(), phase.failed);
    tamper(versions);
    out.check(
        "final audit of every key",
        KEYS,
        wrong_keys(db, ds, versions),
    );

    let m = &mut out.metrics;
    if p.trace {
        env_and_bench_layers(m, &phase, LARGE, &before, &after);
        engine_layers(m, &stats_before, &stats_after);
        m.set(
            "core.put_self_p50_us",
            percentile_us(&phase.self_times(LARGE), 50.0),
        );
        m.set(
            "core.put_p999_us",
            percentile_us(&phase.latencies(LARGE), 99.9),
        );
        m.set("core.put_stalls", stalls.count as f64);
        for (name, ns) in STALL_NAMES.iter().zip(stalls.ns) {
            m.set(name, ns as f64 / 1e6);
        }
        write_trace_file("update_gc")?;
    } else {
        end_to_end(
            m,
            EndToEndInputs {
                phase: &phase,
                primary_kind: LARGE,
                before: &before,
                after: &after,
                disk_bytes: stack
                    .mem
                    .total_file_bytes("db/")
                    .map_err(|e| e.to_string())?,
                logical_bytes: ds.logical_bytes(versions),
                user_bytes_written: *written,
            },
        );
    }
    Ok(out)
}
