//! `wire_mixed` — the client-observed op over the wire. An in-process
//! `Server` on 127.0.0.1 over a `Db` with threaded background work;
//! `clients()` blocking `Client` connections each run 50 % `get` / 50 %
//! `put(sync = true)` of 1 KiB values, Zipf-0.99 over the preloaded keys.
//! The server's codec, dispatch and thread hand-off and the lsm commit queue
//! under concurrent sync writers beside readers do the work — the same
//! write path `update_gc` drives with one no-sync writer, so a group-commit
//! change that helps one and costs the other shows.
//!
//! Each client reads and writes only its own residue class of key ids, so
//! every reply can be checked exactly without a shared model; contention is
//! on the commit queue and the caches, not on keys.

use super::*;
use crate::gen::{mix64, KeyDist, Rng, ValueSizes};
use scavenger::Db;
use scavenger_server::{Client, Server, ServerConfig, ServerHandle};

/// 128 Ki keys x 1 KiB = ~137 MB preloaded: large against the 2 MiB value
/// files, so that one GC run more or less at the end moves space by ~1 %.
const KEYS: u64 = 128 * 1024;
const VALUE_LEN: usize = 1024;
/// Ops per connection per `--seconds`.
const NOMINAL_OPS_PER_CONN_PER_S: f64 = 5_000.0;
const PUT: u8 = 0;
const GET: u8 = 1;

struct Store {
    stack: Stack,
    db: Db,
    server: ServerHandle,
    conns: Vec<Client>,
    user_bytes: u64,
}

impl AsRef<Stack> for Store {
    fn as_ref(&self) -> &Stack {
        &self.stack
    }
}

fn build(p: &Params, ds: &DataSet, n_clients: usize) -> Result<Store, String> {
    let stack = Stack::new(p.trace);
    let dataset = KEYS * user_bytes(VALUE_LEN);
    let mut opts = engine_options(stack.env.clone(), "db", dataset, block_cache_for(dataset));
    opts.inline_background = false;
    let db = Db::open(opts).map_err(|e| e.to_string())?;
    for id in load_order(KEYS, p.seed) {
        db.put_with(&nosync(), ds.key(id), ds.value(id, 1))
            .map_err(|e| e.to_string())?;
    }
    db.flush().map_err(|e| e.to_string())?;
    let server = Server::start(db.clone(), ServerConfig::default()).map_err(|e| e.to_string())?;
    let conns = (0..n_clients)
        .map(|_| Client::connect(server.addr()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Store {
        stack,
        db,
        server,
        conns,
        user_bytes: dataset,
    })
}

/// What one client thread returns: its log, its slice of the model, and
/// the user bytes it wrote.
struct ClientResult {
    log: measure::ClientLog,
    versions: Vec<u32>,
    written: u64,
}

fn client_loop(
    conn: &mut Client,
    ds: &DataSet,
    seed: u64,
    (index, n_clients): (usize, usize),
    n_ops: u64,
    phase_start: Instant,
    toggles: bool,
) -> ClientResult {
    let own_keys = KEYS / n_clients as u64;
    let dist = KeyDist::zipf(own_keys, 0.99, mix64(seed ^ index as u64));
    let mut rng = Rng::new(seed, 10 + index as u64);
    let mut versions = vec![1u32; own_keys as usize];
    let mut written = 0;
    let log = measure::drive(phase_start, n_ops, toggles, |i, timer| {
        let slot = dist.next(&mut rng);
        let id = slot * n_clients as u64 + index as u64;
        let key = ds.key(id);
        let op_id = i * n_clients as u64 + index as u64;
        if rng.next_u64() & 1 == 0 {
            let version = versions[slot as usize] + 1;
            let value = ds.value(id, version);
            let (res, sample) = timer.time(op_id, "server", "client.put", PUT, || {
                conn.put(&key, &value)
            });
            if res.is_ok() {
                versions[slot as usize] = version;
                written += user_bytes(value.len());
            }
            (sample, res.is_ok_and(|r| r.synced))
        } else {
            let (got, sample) = timer.time(op_id, "server", "client.get", GET, || conn.get(&key));
            (
                sample,
                matches!(got, Ok(Some(v)) if ds.check(id, versions[slot as usize], &v)),
            )
        }
    });
    ClientResult {
        log,
        versions,
        written,
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let n_clients = clients();
    let ds = DataSet {
        seed: p.seed,
        sizes: ValueSizes::Fixed(VALUE_LEN),
    };
    run_on_store(
        p,
        || build(p, &ds, n_clients),
        |store| measure(p, &ds, n_clients, store),
    )
}

fn measure(
    p: &Params,
    ds: &DataSet,
    n_clients: usize,
    store: &mut Store,
) -> Result<Outcome, String> {
    let Store {
        stack,
        db,
        server,
        conns,
        user_bytes: written,
    } = store;
    let n = p.ops(NOMINAL_OPS_PER_CONN_PER_S);

    let mut ping_ns = Vec::new();
    if p.trace {
        for _ in 0..1000 {
            let t = Instant::now();
            conns[0].ping().map_err(|e| e.to_string())?;
            ping_ns.push(t.elapsed().as_nanos() as u64);
        }
        ping_ns.sort_unstable();
    }

    let stats_before = db.stats();
    let before = stack.counters();
    let phase_start = Instant::now();
    let results = on_client_threads(conns.iter_mut().collect(), |index, conn| {
        let toggles = p.trace && index == 0;
        client_loop(
            conn,
            ds,
            p.seed,
            (index, n_clients),
            n,
            phase_start,
            toggles,
        )
    });
    let after = stack.counters();
    let stats_after = db.stats();

    let mut versions = vec![1u32; KEYS as usize];
    let mut logs = Vec::new();
    for (index, r) in results.into_iter().enumerate() {
        for (slot, v) in r.versions.iter().enumerate() {
            versions[slot * n_clients + index] = *v;
        }
        *written += r.written;
        logs.push(r.log);
    }
    let phase = Phase::merge(logs);

    let mut out = Outcome::default();
    out.check(
        "gets and sync puts over the wire",
        phase.ops(),
        phase.failed,
    );
    out.check(
        "final audit of every key",
        KEYS,
        wrong_keys(db, ds, &versions),
    );
    let (acked, lost) = crash_audit::wire(p.seed)?;
    out.check("acknowledged sync puts readable after a crash", acked, lost);

    let m = &mut out.metrics;
    if p.trace {
        env_and_bench_layers(m, &phase, PUT, &before, &after);
        engine_layers(m, &stats_before, &stats_after);
        let (put_lat, get_lat) = (phase.latencies(PUT), phase.latencies(GET));
        let sm = server.metrics();
        // The server's public histograms have power-of-two buckets; only
        // their mean (of whole microseconds) is exact, so the wire's share
        // is taken between means.
        let handled_mean = |op: &str| sm.latency_snapshot(op).map_or(0.0, |h| h.mean());
        let client_mean =
            |lat: &[u64]| lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64 / 1e3;
        m.set("server.ping_rtt_p50_us", percentile_us(&ping_ns, 50.0));
        m.set("server.handle_get_mean_us", handled_mean("get"));
        m.set("server.handle_put_mean_us", handled_mean("put"));
        m.set("server.client_get_p50_us", phase.latency_us(GET, 50.0));
        m.set("server.client_get_p99_us", phase.latency_us(GET, 99.0));
        m.set(
            "server.wire_get_overhead_us",
            client_mean(&get_lat) - handled_mean("get"),
        );
        m.set(
            "server.wire_put_overhead_us",
            client_mean(&put_lat) - handled_mean("put"),
        );
        use std::sync::atomic::Ordering::Relaxed;
        m.set("server.requests_ok", sm.requests_ok.load(Relaxed) as f64);
        m.set("server.requests_err", sm.requests_err.load(Relaxed) as f64);
        m.set("server.slow_queries", sm.slow_queries.load(Relaxed) as f64);
        write_trace_file("wire_mixed")?;
    } else {
        end_to_end(
            m,
            EndToEndInputs {
                phase: &phase,
                primary_kind: PUT,
                before: &before,
                after: &after,
                disk_bytes: stack
                    .mem
                    .total_file_bytes("db/")
                    .map_err(|e| e.to_string())?,
                logical_bytes: KEYS * user_bytes(VALUE_LEN),
                user_bytes_written: *written,
            },
        );
    }
    Ok(out)
}
