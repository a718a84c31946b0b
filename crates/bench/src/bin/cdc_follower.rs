//! CDC follower benchmark: one writer, four tailing subscribers.
//!
//! Runs the [`scavenger_workload::follower`] three-phase workload
//! (preload → parallel catch-up → live tail) against a store of one
//! shard and one of four, Scavenger mode — and writes `BENCH_cdc.json`
//! at the workspace root:
//!
//! * `preload_kops` — uncontended writer throughput (the baseline the
//!   ratios below are taken against, so host speed cancels);
//! * `catchup_kevents_s` — the *slowest* follower's backlog replay
//!   rate (what bounds bringing a cold replica online);
//! * `tail_lag_p50` / `tail_lag_p99` — worst follower's stream lag in
//!   sequence numbers while tailing a live writer;
//! * `catchup_vs_write` — catch-up floor ÷ preload rate; the CI
//!   regression guard pins this within-run ratio.
//!
//! Env knobs: `CDC_OPS` (per phase, default 30000), `CDC_SUBS`
//! (default 4), `CDC_JSON` (output path).

use scavenger::{
    Db, DbChangeStream, DbShards, EngineMode, MemEnv, Options, ShardedOptions, SubscribeFrom,
    WriteOptions,
};
use scavenger_util::Result;
use scavenger_workload::follower::{
    follower_key, follower_value, run_follower, ChangeTail, FollowerConfig, FollowerReport,
};
use std::process::ExitCode;

/// Adapter: an engine change stream as a workload [`ChangeTail`].
struct EngineTail(DbChangeStream);

impl ChangeTail for EngineTail {
    fn poll_tail(&mut self, max: usize) -> Result<(u64, u64)> {
        let events = self.0.poll_changes(max)?;
        Ok((events.len() as u64, self.0.lag()))
    }
}

struct Row {
    handle: &'static str,
    report: FollowerReport,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn bench_handle(handle: &'static str, db: Db, cfg: &FollowerConfig) -> Result<Row> {
    let opts = WriteOptions::default();
    let writer = &db;
    let report = run_follower(
        cfg,
        move |op| {
            writer
                .put_with(&opts, follower_key(op), follower_value(op, 256))
                .map(|_| ())
        },
        || Ok(EngineTail(db.subscribe_changes(SubscribeFrom::Oldest)?)),
    )?;
    Ok(Row { handle, report })
}

fn write_json(path: &str, rows: &[Row], cores: usize) -> std::io::Result<()> {
    let mut out =
        format!("{{\n  \"bench\": \"cdc_follower\",\n  \"cores\": {cores},\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let rep = &r.report;
        out.push_str(&format!(
            "    {{\"handle\": \"{}\", \"subs\": {}, \"write_ops\": {}, \"preload_kops\": {:.1}, \"catchup_kevents_s\": {:.1}, \"tail_lag_p50\": {:.0}, \"tail_lag_p99\": {:.0}}}{}\n",
            r.handle,
            rep.subs.len(),
            rep.write_ops,
            rep.preload_ops_s() / 1e3,
            rep.catchup_floor_events_s() / 1e3,
            rep.subs
                .iter()
                .filter(|s| s.lag.count() > 0)
                .map(|s| s.lag.percentile(50.0))
                .fold(0.0, f64::max),
            rep.worst_lag_p99(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"catchup_vs_write\": {\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {:.3}{}\n",
            r.handle,
            r.report.catchup_floor_events_s() / r.report.preload_ops_s().max(1e-9),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    std::fs::write(path, out)
}

fn default_json_path() -> String {
    std::env::var("CDC_JSON").unwrap_or_else(|_| {
        let root = std::env::var("CARGO_MANIFEST_DIR")
            .map(|d| format!("{d}/../.."))
            .unwrap_or_else(|_| ".".into());
        format!("{root}/BENCH_cdc.json")
    })
}

fn main() -> ExitCode {
    let ops = env_u64("CDC_OPS", 30_000);
    let cfg = FollowerConfig {
        preload_ops: ops,
        live_ops: ops,
        subscribers: env_u64("CDC_SUBS", 4) as usize,
        poll_chunk: 512,
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut rows = Vec::new();

    let db = {
        let mut o = Options::new(MemEnv::shared(), "cdc-bench-db", EngineMode::Scavenger);
        o.cdc_ring_bytes = 8 * 1024 * 1024;
        // Cold followers subscribe *after* the preload: the backlog
        // must survive in retained WAL segments, not just the ring.
        o.cdc_retention = 1 << 30;
        Db::open(o).expect("open Db")
    };
    match bench_handle("db", db, &cfg) {
        Ok(row) => rows.push(row),
        Err(e) => {
            eprintln!("cdc_follower: db run failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    let shards = {
        let env = MemEnv::shared();
        let mut so = ShardedOptions::new(env.clone(), "cdc-bench-sh", EngineMode::Scavenger);
        so.base = Options::new(env, "cdc-bench-sh", EngineMode::Scavenger);
        so.base.cdc_ring_bytes = 8 * 1024 * 1024;
        so.base.cdc_retention = 1 << 30;
        so.num_shards = 4;
        DbShards::open(so).expect("open DbShards")
    };
    match bench_handle("shards4", shards, &cfg) {
        Ok(row) => rows.push(row),
        Err(e) => {
            eprintln!("cdc_follower: shards4 run failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    for r in &rows {
        let rep = &r.report;
        eprintln!(
            "cdc_follower[{}]: {} subs, preload {:.1} kops, catch-up floor {:.1} kevents/s, lag p99 {:.0} seqs",
            r.handle,
            rep.subs.len(),
            rep.preload_ops_s() / 1e3,
            rep.catchup_floor_events_s() / 1e3,
            rep.worst_lag_p99(),
        );
        for sub in &rep.subs {
            if sub.catchup_events != rep.write_ops / 2 || sub.tail_events != rep.write_ops / 2 {
                eprintln!(
                    "cdc_follower: FOLLOWER LOST EVENTS on {}: caught {} + tailed {} of {}",
                    r.handle, sub.catchup_events, sub.tail_events, rep.write_ops
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let path = default_json_path();
    if let Err(e) = write_json(&path, &rows, cores) {
        eprintln!("cdc_follower: writing {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("cdc_follower: wrote {path}");
    ExitCode::SUCCESS
}
