//! End-to-end service-layer tests: real TCP connections against a
//! [`Server`] hosting a [`Db`] of one shard and of four
//! ([`DbShards`]) through ONE suite (the same discipline as
//! `engine_conformance`).
//!
//! Covered here, over actual sockets (no in-process shortcuts):
//! acked-write durability across graceful shutdown + reopen with four
//! concurrent clients, strict snapshot consistency under concurrent
//! writers, token-bucket rejection, pin-table TTL expiry, the
//! connection cap, and the `/metrics` endpoint (including per-shard
//! I/O attribution).

use scavenger::{Bytes, Db, DbShards, EngineMode, MemEnv, Options, ShardedOptions, WriteOptions};
use scavenger_server::{
    is_pin_expired, is_rate_limited, scrape_metrics, Client, Server, ServerConfig, SubscribeSpec,
    WireChange,
};
use scavenger_workload::ops::{AckOracle, ClientOp, OpMix, OpStream};
use std::time::Duration;

const CLIENTS: u64 = 4;
const OPS_PER_CLIENT: u64 = 250;
const STRIPE: u64 = 500;

fn small_cfg() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    }
}

/// Drive one client over TCP with its deterministic stream; every
/// acked op goes into the returned oracle.
fn drive(addr: std::net::SocketAddr, client_id: u64) -> AckOracle {
    let mut client = Client::connect(addr).expect("connect");
    let mut stream = OpStream::new(7, client_id, STRIPE, OpMix::write_heavy());
    let mut oracle = AckOracle::new();
    for _ in 0..OPS_PER_CLIENT {
        let op = stream.next_op();
        let acked = match &op {
            ClientOp::Get { key } => client.get(key).is_ok(),
            ClientOp::Put { key, value } => client.put(key, value).is_ok(),
            ClientOp::Delete { key } => client.delete(key).is_ok(),
            ClientOp::Scan { lo, limit } => client.scan(None, lo, None, *limit).is_ok(),
        };
        assert!(acked, "unlimited server rejected {}", op.label());
        oracle.ack(&op);
    }
    oracle
}

/// Acked writes from 4 concurrent TCP clients must be readable from
/// the reopened engine after a graceful shutdown.
fn durability_across_shutdown(engine: Db, reopen: impl FnOnce() -> Db) {
    let handle = Server::start(engine, small_cfg()).expect("start server");
    let addr = handle.addr();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|id| std::thread::spawn(move || drive(addr, id)))
        .collect();
    let oracles: Vec<AckOracle> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    // Graceful drain: joins every connection, drops pins, flushes.
    handle.shutdown_and_wait();

    let db = reopen();
    for (id, oracle) in oracles.iter().enumerate() {
        assert!(oracle.acked_writes() > 0, "client {id} never wrote");
        let checked = oracle
            .check(|key| db.get(key).unwrap().map(|b| b.as_ref().to_vec()))
            .unwrap_or_else(|e| panic!("client {id}: {e}"));
        assert!(checked > 0);
    }
}

/// A pinned snapshot must keep answering with its frozen state no
/// matter how hard concurrent clients overwrite the same keys.
fn snapshot_strict_consistency(engine: Db) {
    let handle = Server::start(engine, small_cfg()).expect("start server");
    let addr = handle.addr();
    let mut setup = Client::connect(addr).unwrap();
    for i in 0..20u32 {
        setup
            .put(format!("snapkey{i:02}").as_bytes(), b"frozen")
            .unwrap();
    }
    let snap = setup.snap_open().unwrap();

    let writer_done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer_flag = writer_done.clone();
    let writer = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        for round in 0..50u32 {
            for i in 0..20u32 {
                c.put(
                    format!("snapkey{i:02}").as_bytes(),
                    format!("overwrite-{round}").as_bytes(),
                )
                .unwrap();
            }
        }
        writer_flag.store(true, std::sync::atomic::Ordering::SeqCst);
    });

    let mut reader = Client::connect(addr).unwrap();
    let mut saw_live_change = false;
    while !writer_done.load(std::sync::atomic::Ordering::SeqCst) {
        // Pinned reads: always the frozen value.
        let v = reader.get_pinned(snap, b"snapkey07").unwrap();
        assert_eq!(v.as_deref(), Some(&b"frozen"[..]), "snapshot read moved");
        // Pinned scan: every entry still frozen, all 20 present.
        let entries = reader
            .scan(Some(snap), b"snapkey", Some(b"snapkez"), 0)
            .unwrap();
        assert_eq!(entries.len(), 20);
        assert!(entries.iter().all(|(_, v)| v == b"frozen"));
        // Unpinned reads observe the writer eventually.
        if reader.get(b"snapkey07").unwrap().as_deref() != Some(&b"frozen"[..]) {
            saw_live_change = true;
        }
    }
    writer.join().unwrap();
    assert!(saw_live_change, "live reads never saw the writer");
    // After the dust settles the pin still answers with day-one state.
    assert_eq!(
        reader.get_pinned(snap, b"snapkey00").unwrap().as_deref(),
        Some(&b"frozen"[..])
    );
    reader.snap_close(snap).unwrap();
    let err = reader.get_pinned(snap, b"snapkey00").unwrap_err();
    assert!(is_pin_expired(&err), "closed pin should be gone: {err}");
    handle.shutdown_and_wait();
}

/// An empty token bucket must reject with a typed RATE_LIMITED error,
/// and the connection must remain usable afterwards.
fn rate_limiter_rejects(engine: Db) {
    let cfg = ServerConfig {
        global_rate: 20.0,
        global_burst: 5.0,
        ..small_cfg()
    };
    let handle = Server::start(engine, cfg).expect("start server");
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut rejected = 0;
    let mut accepted = 0;
    for i in 0..60u32 {
        match client.put(format!("rl{i:02}").as_bytes(), b"x") {
            Ok(_) => accepted += 1,
            Err(e) => {
                assert!(is_rate_limited(&e), "unexpected error class: {e}");
                rejected += 1;
            }
        }
    }
    assert!(accepted >= 5, "burst should admit at least the bucket size");
    assert!(rejected > 0, "60 rapid writes never tripped a 20/s limit");
    // Throttled, not broken: the connection still serves pings and the
    // counter shows up in metrics.
    client.ping().unwrap();
    assert_eq!(
        handle
            .metrics()
            .rate_limited
            .load(std::sync::atomic::Ordering::Relaxed),
        rejected
    );
    handle.shutdown_and_wait();
}

/// Idle pins expire after the TTL and come back as PIN_EXPIRED.
fn pin_ttl_expires(engine: Db) {
    let cfg = ServerConfig {
        pin_ttl: Duration::from_millis(100),
        ..small_cfg()
    };
    let handle = Server::start(engine, cfg).expect("start server");
    let mut client = Client::connect(handle.addr()).unwrap();
    client.put(b"ttl-key", b"v").unwrap();
    let snap = client.snap_open().unwrap();
    assert!(client.get_pinned(snap, b"ttl-key").unwrap().is_some());
    std::thread::sleep(Duration::from_millis(300));
    let err = client.get_pinned(snap, b"ttl-key").unwrap_err();
    assert!(is_pin_expired(&err), "expected TTL expiry, got: {err}");
    handle.shutdown_and_wait();
}

/// Connections beyond the cap get a typed CONN_LIMIT error frame.
fn connection_cap_rejects(engine: Db) {
    let cfg = ServerConfig {
        max_conns: 2,
        ..small_cfg()
    };
    let handle = Server::start(engine, cfg).expect("start server");
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();
    // Third connection: accepted at the TCP level, then told why it is
    // being turned away.
    let mut c = Client::connect(handle.addr()).unwrap();
    let err = c.ping().unwrap_err();
    assert!(
        err.to_string().contains("connection limit"),
        "expected connection-cap rejection, got: {err}"
    );
    // The admitted connections are unaffected.
    a.ping().unwrap();
    b.ping().unwrap();
    assert!(
        handle
            .metrics()
            .conns_rejected
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    handle.shutdown_and_wait();
}

/// The /metrics endpoint serves engine + per-shard + server series.
fn metrics_endpoint_serves(engine: Db, want_shards: usize) {
    let cfg = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..small_cfg()
    };
    let handle = Server::start(engine, cfg).expect("start server");
    let mut client = Client::connect(handle.addr()).unwrap();
    for i in 0..50u32 {
        client
            .put(format!("mkey{i:03}").as_bytes(), &[7u8; 256])
            .unwrap();
    }
    client.flush().unwrap();
    let _ = client.get(b"mkey007").unwrap();
    let snap = client.snap_open().unwrap();

    let text = scrape_metrics(handle.metrics_addr().unwrap()).expect("scrape");
    // Engine series.
    assert!(text.contains("scavenger_gc_runs_total"), "missing gc stats");
    assert!(
        text.contains("scavenger_space_bytes"),
        "missing space stats"
    );
    // Per-shard I/O attribution: one series set per member.
    assert!(text.contains(&format!("scavenger_shard_count {want_shards}")));
    for shard in 0..want_shards {
        assert!(
            text.contains(&format!("shard=\"{shard}\"")),
            "missing I/O series for shard {shard}"
        );
    }
    // Server series, reflecting the traffic just sent.
    assert!(text.contains("scavenger_server_connections_active 1"));
    assert!(text.contains("scavenger_server_pinned_snapshots 1"));
    assert!(text.contains("op=\"put\",quantile=\"0.99\""));
    // The wire Stats request returns the same exposition text shape.
    let wire_text = client.stats().unwrap();
    assert!(wire_text.contains("scavenger_server_requests_total"));

    client.snap_close(snap).unwrap();
    handle.shutdown_and_wait();
}

// ---------------- change streams ----------------

/// Per-shard sequence numbers must be strictly increasing across the
/// delivered events (the wire contract: gap-free, ordered history).
fn assert_shard_ordered(events: &[WireChange]) {
    let mut last: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for e in events {
        if let Some(prev) = last.insert(e.shard, e.seq) {
            assert!(
                e.seq > prev,
                "shard {} went backwards: {} after {}",
                e.shard,
                e.seq,
                prev
            );
        }
    }
}

/// Subscribe-from-oldest replays exactly the committed history, a
/// subsequent poll tails only new writes, and a closed stream id
/// answers PIN_EXPIRED.
fn change_stream_over_the_wire(engine: Db) {
    let opts = WriteOptions::default();
    for i in 0..40u32 {
        engine
            .put_with(
                &opts,
                format!("cdc{i:03}").as_bytes(),
                Bytes::from(vec![i as u8; 8]),
            )
            .unwrap();
    }
    engine.delete_with(&opts, b"cdc000").unwrap();

    let handle = Server::start(engine.clone(), small_cfg()).expect("start server");
    let mut client = Client::connect(handle.addr()).unwrap();
    let stream = client.subscribe_changes(SubscribeSpec::Oldest).unwrap();
    let batch = client.poll_changes(stream, 0).unwrap();
    assert_eq!(batch.events.len(), 41, "full history: 40 puts + 1 delete");
    assert_eq!(batch.lag, 0, "drained stream should report zero lag");
    assert_shard_ordered(&batch.events);
    let puts: Vec<_> = batch.events.iter().filter(|e| e.value.is_some()).collect();
    let dels: Vec<_> = batch.events.iter().filter(|e| e.value.is_none()).collect();
    assert_eq!(puts.len(), 40);
    assert_eq!(dels.len(), 1);
    assert_eq!(dels[0].key, b"cdc000");
    for e in &puts {
        let i: u8 = String::from_utf8_lossy(&e.key[3..]).parse::<u32>().unwrap() as u8;
        assert_eq!(e.value.as_deref(), Some(&[i; 8][..]));
    }

    // Caught up: an idle poll returns an empty batch, not an error.
    assert!(client.poll_changes(stream, 0).unwrap().events.is_empty());

    // Tail live writes through the server.
    client.put(b"cdc-live", b"tail").unwrap();
    let live = client.poll_changes(stream, 0).unwrap();
    assert_eq!(live.events.len(), 1);
    assert_eq!(live.events[0].key, b"cdc-live");
    assert_eq!(live.events[0].value.as_deref(), Some(&b"tail"[..]));

    client.close_stream(stream).unwrap();
    let err = client.poll_changes(stream, 0).unwrap_err();
    assert!(is_pin_expired(&err), "closed stream should be gone: {err}");
    handle.shutdown_and_wait();
}

/// A client that disconnects mid-stream resumes from its last chunk's
/// token on a brand-new connection without losing or repeating events.
fn change_stream_resumes_via_token(engine: Db) {
    let opts = WriteOptions::default();
    for i in 0..60u32 {
        engine
            .put_with(
                &opts,
                format!("res{i:03}").as_bytes(),
                Bytes::from(vec![1u8]),
            )
            .unwrap();
    }

    let handle = Server::start(engine.clone(), small_cfg()).expect("start server");

    // First client: take a bounded bite, keep the resume token.
    let mut first = Client::connect(handle.addr()).unwrap();
    let s1 = first.subscribe_changes(SubscribeSpec::Oldest).unwrap();
    let head = first.poll_changes(s1, 25).unwrap();
    assert_eq!(head.events.len(), 25);
    assert!(head.lag > 0, "25 of 60 delivered, lag must be visible");
    let token = head.resume.clone();
    drop(first); // connection lost; server-side stream left to its TTL

    // Second client: resume from the token, drain the rest.
    let mut second = Client::connect(handle.addr()).unwrap();
    let s2 = second
        .subscribe_changes(SubscribeSpec::Token(token))
        .unwrap();
    let tail = second.poll_changes(s2, 0).unwrap();
    assert_eq!(
        head.events.len() + tail.events.len(),
        60,
        "resume must neither lose nor repeat"
    );
    let mut keys: Vec<Vec<u8>> = head
        .events
        .iter()
        .chain(tail.events.iter())
        .map(|e| e.key.clone())
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), 60, "duplicate or missing keys across resume");
    assert_shard_ordered(&tail.events);

    // A garbage token is a typed error, not a hung stream.
    assert!(second
        .subscribe_changes(SubscribeSpec::Token(vec![9, 9, 9]))
        .is_err());
    second.close_stream(s2).unwrap();
    handle.shutdown_and_wait();
}

/// Streamed chunks pay rate-limit tokens. A backlogged poll on a
/// throttled connection is truncated (short batch, `lag > 0`) instead
/// of erroring — and because chunks are charged *before* events leave
/// the cursor, patient re-polls still deliver every event exactly
/// once. Scans pay per chunk too, and trip the usual RATE_LIMITED.
fn change_chunks_pay_rate_tokens(engine: Db) {
    let opts = WriteOptions::default();
    for i in 0..64u32 {
        engine
            .put_with(
                &opts,
                format!("tok{i:03}").as_bytes(),
                Bytes::from(vec![2u8]),
            )
            .unwrap();
    }
    let cfg = ServerConfig {
        conn_rate: 4.0,
        conn_burst: 3.0,
        scan_chunk: 4,
        ..small_cfg()
    };
    let handle = Server::start(engine.clone(), cfg).expect("start server");
    let mut client = Client::connect(handle.addr()).unwrap();
    let stream = client.subscribe_changes(SubscribeSpec::Oldest).unwrap();

    // 64 events / 4-per-chunk needs 16 chunk tokens; the bucket holds
    // 3, so the first greedy poll must come back truncated.
    let first = client.poll_changes(stream, 0).unwrap();
    assert!(
        first.events.len() < 64,
        "a 3-token bucket let {} events through",
        first.events.len()
    );
    assert!(first.lag > 0, "truncated poll must advertise its backlog");
    assert!(
        handle
            .metrics()
            .rate_limited
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "throttled chunks must be counted"
    );

    // Patient re-polls drain the rest without loss or duplication.
    let mut got: Vec<WireChange> = first.events;
    let mut stalls = 0;
    while got.len() < 64 && stalls < 100 {
        match client.poll_changes(stream, 4) {
            Ok(batch) if batch.events.is_empty() => {
                stalls += 1;
                std::thread::sleep(Duration::from_millis(100));
            }
            Ok(batch) => got.extend(batch.events),
            Err(e) if is_rate_limited(&e) => {
                stalls += 1;
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => panic!("unexpected error draining stream: {e}"),
        }
    }
    assert_eq!(got.len(), 64, "throttled polls lost or duplicated events");
    assert_shard_ordered(&got);
    let mut keys: Vec<Vec<u8>> = got.iter().map(|e| e.key.clone()).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), 64);

    // Scans pay per chunk too: wide scans on a drained bucket trip the
    // limiter (scans have no cursor to truncate, so they error).
    let mut tripped = false;
    for _ in 0..5 {
        match client.scan(None, b"tok", None, 0) {
            Err(e) if is_rate_limited(&e) => {
                tripped = true;
                break;
            }
            _ => {}
        }
    }
    assert!(
        tripped,
        "64-key scan in 4-entry chunks never hit the bucket"
    );
    client.close_stream(stream).unwrap();
    handle.shutdown_and_wait();
}

/// A wire `Scan` with `limit = N` must resolve exactly N rows: the
/// stream is pulled in bounded chunks (`collect_n`), so the engine's
/// value look-ahead never fetches row N + 1. Proven from the bytes the
/// scan reads out of the value files (`FgValueRead`), which for N
/// adjacent equal-sized records is N records exactly.
#[test]
fn scan_limit_resolves_exactly_limit_rows() {
    const CHUNK: usize = 8;
    let env = MemEnv::shared();
    let mut o = Options::new(env, "scan-limit", EngineMode::Scavenger);
    o.memtable_size = 1 << 20;
    let db = Db::open(o).unwrap();
    for i in 0..64u32 {
        db.put(format!("row{i:03}"), vec![i as u8; 1500]).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.shard(0).value_store().all_files().len(), 1);
    let value_bytes = |f: &mut dyn FnMut()| {
        let io = || db.options().env.io_stats().snapshot();
        let before = io();
        f();
        io().delta(&before)
            .class(scavenger::IoClass::FgValueRead)
            .read_bytes
    };
    // Warm up: open the reader, cache the index partitions.
    assert_eq!(db.scan(b"", None).unwrap().count(), 64);

    let cfg = ServerConfig {
        scan_chunk: CHUNK,
        ..small_cfg()
    };
    let handle = Server::start(db.clone(), cfg).expect("start server");
    let mut client = Client::connect(handle.addr()).unwrap();
    for n in [1usize, CHUNK, CHUNK + 3] {
        let engine_n = value_bytes(&mut || {
            assert_eq!(
                db.scan(b"row", None).unwrap().collect_n(n).unwrap().len(),
                n
            );
        });
        let engine_n_plus_1 = value_bytes(&mut || {
            db.scan(b"row", None).unwrap().collect_n(n + 1).unwrap();
        });
        assert!(engine_n > 0 && engine_n < engine_n_plus_1);
        let wire = value_bytes(&mut || {
            let rows = client.scan(None, b"row", None, n as u32).unwrap();
            assert_eq!(rows.len(), n);
        });
        assert_eq!(
            wire, engine_n,
            "limit = {n}: the server resolved more rows than it sent"
        );
    }
    handle.shutdown_and_wait();
}

/// A scan whose `limit` is a multiple of the chunk size ends with its
/// last full chunk: the client gets its rows, and a connection whose
/// bucket held exactly the one token the request paid is not charged
/// for an empty trailing chunk.
#[test]
fn scan_limit_at_chunk_multiple_costs_one_token() {
    let db = open_db(MemEnv::shared(), "srv-scan-chunk");
    for i in 0..8u32 {
        db.put(format!("row{i:03}"), vec![i as u8; 64]).unwrap();
    }
    let cfg = ServerConfig {
        scan_chunk: 4,
        conn_rate: 0.001,
        conn_burst: 1.0,
        ..small_cfg()
    };
    let handle = Server::start(db, cfg).expect("start server");
    let mut client = Client::connect(handle.addr()).unwrap();
    let rows = client
        .scan(None, b"row", None, 4)
        .expect("all rows delivered");
    assert_eq!(rows.len(), 4);
    handle.shutdown_and_wait();
}

/// What a connection sends over its *own* limit must be refused without
/// costing the other connections a global token: the per-connection
/// bucket is charged first, the global one second. Both refill rates are
/// negligible (0.001/s), so the bursts are the whole budget: A gets its
/// 5, then B still finds 5 of the global 10 waiting.
#[test]
fn noisy_neighbour_cannot_drain_global_bucket() {
    let cfg = ServerConfig {
        conn_rate: 0.001,
        conn_burst: 5.0,
        global_rate: 0.001,
        global_burst: 10.0,
        ..small_cfg()
    };
    let db = open_db(MemEnv::shared(), "srv-noisy");
    let handle = Server::start(db, cfg).expect("start server");
    let admitted = |client: &mut Client, gets: usize| {
        let mut ok = 0;
        for _ in 0..gets {
            match client.get(b"k") {
                Ok(_) => ok += 1,
                Err(e) => assert!(is_rate_limited(&e), "unexpected error class: {e}"),
            }
        }
        ok
    };
    let mut noisy = Client::connect(handle.addr()).unwrap();
    assert_eq!(admitted(&mut noisy, 100), 5, "A's own burst");
    let mut quiet = Client::connect(handle.addr()).unwrap();
    assert_eq!(
        admitted(&mut quiet, 5),
        5,
        "A's 95 refused requests drained the global bucket"
    );
    handle.shutdown_and_wait();
}

// ---------------- instantiations ----------------

fn open_db(env: scavenger::EnvRef, dir: &str) -> Db {
    let mut o = Options::new(env, dir, EngineMode::Scavenger);
    o.memtable_size = 32 * 1024;
    Db::open(o).unwrap()
}

fn open_shards(env: scavenger::EnvRef, dir: &str) -> DbShards {
    let mut o = ShardedOptions::new(env, dir, EngineMode::Scavenger);
    o.num_shards = 4;
    o.base.memtable_size = 32 * 1024;
    DbShards::open(o).unwrap()
}

#[test]
fn durability_single_db() {
    let env = MemEnv::shared();
    let reopen_env = env.clone();
    durability_across_shutdown(open_db(env, "srv-dur"), move || {
        open_db(reopen_env, "srv-dur")
    });
}

#[test]
fn durability_sharded() {
    let env = MemEnv::shared();
    let reopen_env = env.clone();
    durability_across_shutdown(open_shards(env, "srv-dur-sh"), move || {
        open_shards(reopen_env, "srv-dur-sh")
    });
}

#[test]
fn snapshot_consistency_single_db() {
    snapshot_strict_consistency(open_db(MemEnv::shared(), "srv-snap"));
}

#[test]
fn snapshot_consistency_sharded() {
    snapshot_strict_consistency(open_shards(MemEnv::shared(), "srv-snap-sh"));
}

#[test]
fn rate_limit_single_db() {
    rate_limiter_rejects(open_db(MemEnv::shared(), "srv-rl"));
}

#[test]
fn rate_limit_sharded() {
    rate_limiter_rejects(open_shards(MemEnv::shared(), "srv-rl-sh"));
}

#[test]
fn pin_ttl_single_db() {
    pin_ttl_expires(open_db(MemEnv::shared(), "srv-ttl"));
}

#[test]
fn pin_ttl_sharded() {
    pin_ttl_expires(open_shards(MemEnv::shared(), "srv-ttl-sh"));
}

#[test]
fn conn_cap_single_db() {
    connection_cap_rejects(open_db(MemEnv::shared(), "srv-cap"));
}

#[test]
fn metrics_single_db() {
    metrics_endpoint_serves(open_db(MemEnv::shared(), "srv-met"), 1);
}

#[test]
fn change_stream_single_db() {
    change_stream_over_the_wire(open_db(MemEnv::shared(), "srv-cdc"));
}

#[test]
fn change_stream_sharded() {
    change_stream_over_the_wire(open_shards(MemEnv::shared(), "srv-cdc-sh"));
}

#[test]
fn change_stream_resume_single_db() {
    change_stream_resumes_via_token(open_db(MemEnv::shared(), "srv-cdc-res"));
}

#[test]
fn change_stream_resume_sharded() {
    change_stream_resumes_via_token(open_shards(MemEnv::shared(), "srv-cdc-res-sh"));
}

#[test]
fn change_chunk_rate_limit_single_db() {
    change_chunks_pay_rate_tokens(open_db(MemEnv::shared(), "srv-cdc-rl"));
}

#[test]
fn change_chunk_rate_limit_sharded() {
    change_chunks_pay_rate_tokens(open_shards(MemEnv::shared(), "srv-cdc-rl-sh"));
}

#[test]
fn metrics_sharded() {
    metrics_endpoint_serves(open_shards(MemEnv::shared(), "srv-met-sh"), 4);
}
