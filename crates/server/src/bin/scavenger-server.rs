//! The `scavenger-server` binary: open a store on a local directory
//! and serve it over TCP.
//!
//! ```text
//! scavenger-server --data-dir /var/lib/scavenger --addr 127.0.0.1:7272 \
//!     --metrics-addr 127.0.0.1:7273 --shards 4 \
//!     --global-rate 50000 --conn-rate 5000 --max-conns 256 \
//!     --slow-query-ms 100 --pin-ttl-secs 30
//! ```
//!
//! `--shards N` opens a [`Db`] of N members (`1`, the default, is a
//! plain store at the root) — one handle, one path into [`Server`]. The
//! process runs until a client sends the `Shutdown` request (the load
//! generator's `--shutdown` flag, for instance), then drains and exits 0.

use scavenger::{Db, EngineMode, FsEnv, ShardedOptions};
use scavenger_server::{Server, ServerConfig, ServerHandle};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    data_dir: String,
    shards: usize,
    cfg: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        data_dir: String::new(),
        shards: 1,
        cfg: ServerConfig {
            addr: "127.0.0.1:7272".to_string(),
            ..ServerConfig::default()
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--data-dir" => args.data_dir = val("--data-dir")?,
            "--addr" => args.cfg.addr = val("--addr")?,
            "--metrics-addr" => args.cfg.metrics_addr = Some(val("--metrics-addr")?),
            "--shards" => {
                args.shards = val("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--max-conns" => {
                args.cfg.max_conns = val("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?
            }
            "--global-rate" => {
                args.cfg.global_rate = val("--global-rate")?
                    .parse()
                    .map_err(|e| format!("--global-rate: {e}"))?;
                if args.cfg.global_burst == 0.0 {
                    args.cfg.global_burst = args.cfg.global_rate;
                }
            }
            "--conn-rate" => {
                args.cfg.conn_rate = val("--conn-rate")?
                    .parse()
                    .map_err(|e| format!("--conn-rate: {e}"))?;
                if args.cfg.conn_burst == 0.0 {
                    args.cfg.conn_burst = args.cfg.conn_rate;
                }
            }
            "--global-burst" => {
                args.cfg.global_burst = val("--global-burst")?
                    .parse()
                    .map_err(|e| format!("--global-burst: {e}"))?
            }
            "--conn-burst" => {
                args.cfg.conn_burst = val("--conn-burst")?
                    .parse()
                    .map_err(|e| format!("--conn-burst: {e}"))?
            }
            "--slow-query-ms" => {
                let ms: u64 = val("--slow-query-ms")?
                    .parse()
                    .map_err(|e| format!("--slow-query-ms: {e}"))?;
                args.cfg.slow_query_threshold = Duration::from_millis(ms);
            }
            "--pin-ttl-secs" => {
                let s: u64 = val("--pin-ttl-secs")?
                    .parse()
                    .map_err(|e| format!("--pin-ttl-secs: {e}"))?;
                args.cfg.pin_ttl = Duration::from_secs(s);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.data_dir.is_empty() {
        return Err(format!("--data-dir is required\n{USAGE}"));
    }
    Ok(args)
}

const USAGE: &str = "usage: scavenger-server --data-dir DIR [--addr HOST:PORT] \
[--metrics-addr HOST:PORT] [--shards N] [--max-conns N] \
[--global-rate R] [--global-burst B] [--conn-rate R] [--conn-burst B] \
[--slow-query-ms MS] [--pin-ttl-secs S]";

fn start(args: &Args) -> scavenger::Result<ServerHandle> {
    let env = Arc::new(FsEnv::new(args.data_dir.clone())?);
    let opts = ShardedOptions {
        num_shards: args.shards,
        ..ShardedOptions::new(env, "db", EngineMode::Scavenger)
    };
    Server::start(Db::open(opts)?, args.cfg.clone())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let handle = match start(&args) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("scavenger-server: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "scavenger-server: serving {} shard(s) from {} on {}{}",
        args.shards,
        args.data_dir,
        handle.addr(),
        match handle.metrics_addr() {
            Some(m) => format!(", metrics on http://{m}/metrics"),
            None => String::new(),
        }
    );
    // Runs until a wire Shutdown request flips the flag; wait() then
    // returns after the full drain (workers joined, pins dropped,
    // engine flushed).
    handle.wait();
    eprintln!("scavenger-server: drained, exiting");
    ExitCode::SUCCESS
}
