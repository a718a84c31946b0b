//! The TCP server: accept loop, connection threads, graceful drain.
//!
//! [`Server::start`] takes the engine handle — a [`Db`] of any size —
//! and serves the framed protocol from [`crate::protocol`] on a TCP
//! listener, with an optional second listener speaking just enough
//! HTTP/1.0 to answer `GET /metrics` with Prometheus exposition text.
//!
//! Production behaviors, in the order a request meets them:
//!
//! 1. **Connection cap** — at accept time, a connection over
//!    [`ServerConfig::max_conns`] gets a typed `CONN_LIMIT` error
//!    frame and is closed; it never reaches a worker thread.
//! 2. **Rate limiting** — every data op ([`Request::is_data_op`]) takes
//!    a token from the connection's own bucket, then from the global
//!    one; an empty bucket means an immediate `RATE_LIMITED` error
//!    frame (no queueing, no sleep).
//! 3. **Slow-query log** — any request slower than
//!    [`ServerConfig::slow_query_threshold`] is logged to stderr with
//!    its op, key size, and latency, and counted in `/metrics`.
//! 4. **Graceful drain** — shutdown (wire request or
//!    [`ServerHandle::shutdown_and_wait`]) stops the accept loop,
//!    lets in-flight requests finish (idle connections notice the flag
//!    at their next read-timeout tick), answers anything that arrives
//!    after the flag with `SHUTTING_DOWN`, joins every worker, drops
//!    the pin table (releasing GC read points), and flushes the engine
//!    before returning — acknowledged writes survive a reopen.

use crate::metrics::{render_metrics, ServerMetrics};
use crate::pins::PinTable;
use crate::protocol::{
    write_frame, BatchOp, FrameBuffer, Request, Response, SubscribeSpec, WireChange, WireCode,
    DEFAULT_MAX_FRAME,
};
use crate::rate_limit::TokenBucket;
use parking_lot::Mutex;
use scavenger::{
    Bytes, ChangeOp, ChangeRecord, Db, DbChangeStream, DbScanIter, ResumeToken, Snapshot,
    SubscribeFrom, Transaction, Transactional, WriteBatch, WriteOptions, WriteReceipt,
};
use scavenger_util::{Error, Result};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Data-plane listen address (use port 0 to let the OS pick).
    pub addr: String,
    /// Metrics HTTP listen address, or `None` to disable the endpoint.
    pub metrics_addr: Option<String>,
    /// Maximum concurrent connections; further accepts are rejected
    /// with `CONN_LIMIT`.
    pub max_conns: usize,
    /// Global sustained requests/second across all connections
    /// (`0.0` = unlimited).
    pub global_rate: f64,
    /// Global burst size.
    pub global_burst: f64,
    /// Per-connection sustained requests/second (`0.0` = unlimited).
    pub conn_rate: f64,
    /// Per-connection burst size.
    pub conn_burst: f64,
    /// Requests at or above this latency are logged and counted.
    pub slow_query_threshold: Duration,
    /// Idle server-side snapshots expire after this long.
    pub pin_ttl: Duration,
    /// Maximum frame payload accepted or produced.
    pub max_frame: usize,
    /// Entries per streamed `ScanChunk` frame.
    pub scan_chunk: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            metrics_addr: None,
            max_conns: 256,
            global_rate: 0.0,
            global_burst: 0.0,
            conn_rate: 0.0,
            conn_burst: 0.0,
            slow_query_threshold: Duration::from_millis(100),
            pin_ttl: Duration::from_secs(30),
            max_frame: DEFAULT_MAX_FRAME,
            scan_chunk: 256,
        }
    }
}

/// How often idle loops re-check the shutdown flag.
const POLL_TICK: Duration = Duration::from_millis(20);

struct Shared {
    engine: Db,
    cfg: ServerConfig,
    metrics: Arc<ServerMetrics>,
    pins: PinTable<Snapshot>,
    /// Server-side transactions, keyed like snapshots (clients cannot
    /// hold a [`Transaction`] across the network, so the server does).
    /// The inner `Option` lets commit/rollback *take* the transaction
    /// out while other requests still resolve the id to a typed error
    /// instead of a race.
    txns: PinTable<Mutex<Option<Transaction>>>,
    /// Server-side change streams, keyed like snapshots. Each live
    /// stream pins retained WAL history in the engine, so the same TTL
    /// sweep that bounds abandoned snapshots bounds abandoned streams.
    streams: PinTable<Mutex<DbChangeStream>>,
    global_bucket: TokenBucket,
    shutdown: Arc<AtomicBool>,
}

/// A running server. Dropping the handle without calling
/// [`shutdown_and_wait`](ServerHandle::shutdown_and_wait) requests
/// shutdown but does not wait for the drain.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    accept_join: Option<JoinHandle<()>>,
    metrics_join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Bound data-plane address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bound metrics address, if the endpoint is enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The server's live counters (shared with the worker threads).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Request shutdown and block until the drain completes: accept
    /// loop stopped, every connection joined, pin table dropped,
    /// engine flushed.
    pub fn shutdown_and_wait(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join_threads();
    }

    /// Block until the server shuts down by itself (a wire `Shutdown`
    /// request, typically). Used by the binary's main thread.
    pub fn wait(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(j) = self.accept_join.take() {
            let _ = j.join();
        }
        if let Some(j) = self.metrics_join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join_threads();
    }
}

/// The server entry point; see the module docs for behavior.
pub struct Server;

impl Server {
    /// Bind the listeners and spawn the accept loop. Returns once the
    /// server is ready to take connections.
    pub fn start(engine: Db, cfg: ServerConfig) -> Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let metrics_listener = match &cfg.metrics_addr {
            Some(a) => {
                let l = TcpListener::bind(a)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServerMetrics::new());
        let shared = Arc::new(Shared {
            global_bucket: TokenBucket::new(cfg.global_rate, cfg.global_burst),
            pins: PinTable::new(cfg.pin_ttl),
            txns: PinTable::new(cfg.pin_ttl),
            streams: PinTable::new(cfg.pin_ttl),
            engine,
            metrics: metrics.clone(),
            shutdown: shutdown.clone(),
            cfg,
        });

        let accept_shared = shared.clone();
        let accept_join = std::thread::Builder::new()
            .name("scv-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| Error::io(format!("spawn accept thread: {e}")))?;

        let metrics_join = match metrics_listener {
            Some(l) => {
                let m_shared = shared.clone();
                Some(
                    std::thread::Builder::new()
                        .name("scv-metrics".to_string())
                        .spawn(move || metrics_loop(l, m_shared))
                        .map_err(|e| Error::io(format!("spawn metrics thread: {e}")))?,
                )
            }
            None => None,
        };

        Ok(ServerHandle {
            addr,
            metrics_addr,
            shutdown,
            metrics,
            accept_join: Some(accept_join),
            metrics_join: Some(metrics_join).flatten(),
        })
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                workers.retain(|j| !j.is_finished());
                let m = &shared.metrics;
                let admitted = m
                    .conns_active
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                        if (n as usize) < shared.cfg.max_conns {
                            Some(n + 1)
                        } else {
                            None
                        }
                    })
                    .is_ok();
                if !admitted {
                    m.conns_rejected.fetch_add(1, Ordering::Relaxed);
                    reject_conn(stream);
                    continue;
                }
                m.conns_total.fetch_add(1, Ordering::Relaxed);
                let conn_shared = shared.clone();
                match std::thread::Builder::new()
                    .name("scv-conn".to_string())
                    .spawn(move || {
                        serve_conn(stream, &conn_shared);
                        conn_shared
                            .metrics
                            .conns_active
                            .fetch_sub(1, Ordering::SeqCst);
                    }) {
                    Ok(j) => workers.push(j),
                    Err(_) => {
                        shared.metrics.conns_active.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL_TICK),
            Err(_) => std::thread::sleep(POLL_TICK),
        }
    }
    // Drain: workers notice the flag at their next tick and exit once
    // their in-flight request (if any) has been answered.
    for j in workers {
        let _ = j.join();
    }
    // All GC read points and pinned WAL history held on behalf of
    // clients are released before the final flush — including
    // uncommitted transactions, whose buffered writes are discarded (a
    // client that never committed has nothing durable to lose).
    shared.pins.clear();
    shared.txns.clear();
    shared.streams.clear();
    if let Err(e) = shared.engine.flush() {
        eprintln!("scavenger-server: flush on shutdown failed: {e}");
    }
}

/// Tell an over-cap client why it is being dropped: one typed error
/// frame, best-effort, then close.
fn reject_conn(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let payload = Response::error(WireCode::ConnLimit, "server at connection limit").encode();
    let _ = write_frame(&mut stream, &payload);
}

fn serve_conn(mut stream: TcpStream, shared: &Shared) {
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let conn_bucket = TokenBucket::new(shared.cfg.conn_rate, shared.cfg.conn_burst);
    let mut frames = FrameBuffer::new(shared.cfg.max_frame);
    let mut read_buf = vec![0u8; 64 << 10];
    loop {
        match stream.read(&mut read_buf) {
            Ok(0) => return,
            Ok(n) => frames.extend(&read_buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shared.shutdown.load(Ordering::SeqCst) && frames.buffered() == 0 {
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        loop {
            let payload = match frames.pop() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(e) => {
                    // Framing is unrecoverable after a bad length
                    // prefix: answer and close.
                    let _ = send(
                        &mut stream,
                        &Response::error(WireCode::Protocol, e.to_string()),
                    );
                    return;
                }
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                let _ = send(
                    &mut stream,
                    &Response::error(WireCode::ShuttingDown, "server is draining"),
                );
                return;
            }
            let req = match Request::decode(&payload) {
                Ok(r) => r,
                Err(e) => {
                    // Opcode-level garbage: the stream itself is still
                    // framed correctly, but trust is gone — close.
                    let _ = send(
                        &mut stream,
                        &Response::error(WireCode::Protocol, e.to_string()),
                    );
                    return;
                }
            };
            if !handle_request(&mut stream, shared, &conn_bucket, req) {
                return;
            }
        }
    }
}

fn send(stream: &mut TcpStream, resp: &Response) -> Result<()> {
    write_frame(stream, &resp.encode())
}

impl From<WriteReceipt> for Response {
    fn from(r: WriteReceipt) -> Response {
        Response::Written {
            seq: r.seq,
            group_len: r.group_len,
            synced: r.synced,
        }
    }
}

impl From<Option<Bytes>> for Response {
    fn from(value: Option<Bytes>) -> Response {
        Response::Value {
            value: value.map(|b| b.as_ref().to_vec()),
        }
    }
}

impl From<()> for Response {
    fn from((): ()) -> Response {
        Response::Done
    }
}

/// The reply to an engine call: its success value put on the wire
/// through the `From` impls above, or the typed error frame.
fn reply<T: Into<Response>>(result: Result<T>) -> Response {
    match result {
        Ok(v) => v.into(),
        Err(e) => Response::from_error(&e),
    }
}

/// Typed `PIN_EXPIRED` reply for a snapshot, transaction or change
/// stream id that is unknown, TTL-expired, or already closed.
fn pin_gone(m: &ServerMetrics, kind: &str, id: u64) -> Response {
    m.pin_misses.fetch_add(1, Ordering::Relaxed);
    Response::error(
        WireCode::PinExpired,
        format!("{kind} {id} unknown, expired, or already closed"),
    )
}

/// Count the request's outcome and send its single reply frame.
fn finish(m: &ServerMetrics, stream: &mut TcpStream, resp: Response) -> bool {
    let outcome = match resp {
        Response::Err { .. } => &m.requests_err,
        _ => &m.requests_ok,
    };
    outcome.fetch_add(1, Ordering::Relaxed);
    send(stream, &resp).is_ok()
}

impl Shared {
    /// Charge one rate-limit token: the connection's own bucket first,
    /// the global one second, so whatever a connection sends over its
    /// own limit is refused without costing the other connections a
    /// global token. A data op pays on admission, which covers its first
    /// reply frame; every further `ScanChunk` or `ChangeChunk` frame
    /// pays again, so a single request cannot smuggle an unbounded
    /// reply past the rate limiter.
    fn admit(&self, conn_bucket: &TokenBucket) -> bool {
        conn_bucket.try_take() && self.global_bucket.try_take()
    }

    /// Run `f` on a live server-side transaction.
    fn with_txn(&self, id: u64, f: impl FnOnce(&mut Transaction) -> Response) -> Response {
        let cell = self.txns.get(id);
        let live = cell.and_then(|cell| cell.lock().as_mut().map(f));
        live.unwrap_or_else(|| pin_gone(&self.metrics, "transaction", id))
    }

    /// Take a transaction out of its cell (commit and rollback consume
    /// it), then drop the table entry; a concurrent request for the
    /// same id resolves to a typed error.
    fn take_txn(&self, id: u64) -> Option<Transaction> {
        let t = self.txns.get(id).and_then(|cell| cell.lock().take())?;
        self.txns.close(id);
        Some(t)
    }
}

/// Handle one request; returns `false` when the connection should
/// close (shutdown request or write failure).
fn handle_request(
    stream: &mut TcpStream,
    shared: &Shared,
    conn_bucket: &TokenBucket,
    req: Request,
) -> bool {
    let m = &shared.metrics;
    if req.is_data_op() && !shared.admit(conn_bucket) {
        m.rate_limited.fetch_add(1, Ordering::Relaxed);
        let resp = Response::error(WireCode::RateLimited, "rate limit exceeded");
        return finish(m, stream, resp);
    }

    let label = req.label();
    let key_bytes = request_key_bytes(&req);
    let start = Instant::now();
    let keep_open = dispatch(stream, shared, conn_bucket, req);
    let elapsed = start.elapsed();

    m.record_latency(label, elapsed);
    if elapsed >= shared.cfg.slow_query_threshold {
        m.slow_queries.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "scavenger-server: slow query op={label} key_bytes={key_bytes} latency_us={}",
            elapsed.as_micros()
        );
    }
    keep_open
}

/// Key payload size for the slow-query log: key length for point ops,
/// total key bytes for batches, lower-bound length for scans.
fn request_key_bytes(req: &Request) -> usize {
    match req {
        Request::Get { key, .. }
        | Request::Put { key, .. }
        | Request::Delete { key, .. }
        | Request::TxnGet { key, .. }
        | Request::TxnPut { key, .. }
        | Request::TxnDelete { key, .. } => key.len(),
        Request::Write { ops, .. } => ops
            .iter()
            .map(|op| match op {
                BatchOp::Put { key, .. } | BatchOp::Delete { key } => key.len(),
            })
            .sum(),
        Request::Scan { lo, .. } => lo.len(),
        _ => 0,
    }
}

fn dispatch(
    stream: &mut TcpStream,
    shared: &Shared,
    conn_bucket: &TokenBucket,
    req: Request,
) -> bool {
    let m = &shared.metrics;
    let engine = &shared.engine;
    let resp = match req {
        Request::Ping => Response::Pong,
        Request::Get { snap: None, key } => reply(engine.get(&key)),
        Request::Get {
            snap: Some(id),
            key,
        } => match shared.pins.get(id) {
            Some(s) => reply(s.get(&key)),
            None => pin_gone(m, "snapshot", id),
        },
        Request::Put { key, value, sync } => {
            reply(engine.put_with(&WriteOptions::with_sync(sync), &key, Bytes::from(value)))
        }
        Request::Delete { key, sync } => {
            reply(engine.delete_with(&WriteOptions::with_sync(sync), &key))
        }
        Request::Write { ops, sync } => {
            let mut batch = WriteBatch::new();
            for op in ops {
                match op {
                    BatchOp::Put { key, value } => batch.put(key, Bytes::from(value)),
                    BatchOp::Delete { key } => batch.delete(key),
                }
            }
            reply(engine.write_with(&WriteOptions::with_sync(sync), batch))
        }
        Request::Scan {
            snap,
            lo,
            hi,
            limit,
        } => {
            let iter = match snap {
                None => engine.scan(&lo, hi.as_deref()),
                Some(id) => match shared.pins.get(id) {
                    Some(s) => s.scan(&lo, hi.as_deref()),
                    None => return finish(m, stream, pin_gone(m, "snapshot", id)),
                },
            };
            match iter {
                Ok(it) => return stream_scan(stream, shared, conn_bucket, it, limit),
                Err(e) => Response::from_error(&e),
            }
        }
        Request::SnapOpen => Response::SnapId {
            id: shared.pins.open(engine.snapshot()),
        },
        Request::SnapClose { id } => {
            if shared.pins.close(id) {
                Response::Done
            } else {
                pin_gone(m, "snapshot", id)
            }
        }
        Request::Flush => reply(engine.flush()),
        Request::RunGc => reply(engine.run_gc().map(|report| {
            let agg = report.aggregate();
            Response::GcDone {
                jobs: report.jobs() as u32,
                files_collected: agg.files_collected as u64,
                records_rewritten: agg.records_rewritten,
                bytes_reclaimed: agg.bytes_reclaimed,
            }
        })),
        Request::Stats => Response::Stats {
            text: render_metrics(engine, m, shared.pins.len(), shared.streams.len()),
        },
        Request::Shutdown => {
            finish(m, stream, Response::Done);
            shared.shutdown.store(true, Ordering::SeqCst);
            return false;
        }
        Request::TxnBegin => Response::TxnId {
            id: shared.txns.open(Mutex::new(Some(engine.begin()))),
        },
        Request::TxnGet { txn, key } => shared.with_txn(txn, |t| reply(t.get(&key))),
        Request::TxnPut { txn, key, value } => shared.with_txn(txn, |t| {
            t.put(key, Bytes::from(value));
            Response::Done
        }),
        Request::TxnDelete { txn, key } => shared.with_txn(txn, |t| {
            t.delete(key);
            Response::Done
        }),
        Request::TxnCommit { txn, sync } => match shared.take_txn(txn) {
            Some(t) => reply(t.commit_with(&WriteOptions::with_sync(sync))),
            None => pin_gone(m, "transaction", txn),
        },
        Request::TxnRollback { txn } => match shared.take_txn(txn) {
            Some(t) => {
                t.rollback();
                Response::Done
            }
            None => pin_gone(m, "transaction", txn),
        },
        Request::SubscribeChanges { from } => {
            let from = match from {
                SubscribeSpec::Oldest => Ok(SubscribeFrom::Oldest),
                SubscribeSpec::Latest => Ok(SubscribeFrom::Latest),
                SubscribeSpec::Token(raw) => ResumeToken::decode(&raw).map(SubscribeFrom::Token),
            };
            let opened = from.and_then(|from| engine.subscribe_changes(from));
            reply(opened.map(|s| Response::StreamId {
                id: shared.streams.open(Mutex::new(s)),
            }))
        }
        Request::PollChanges { stream: sid, max } => match shared.streams.get(sid) {
            Some(cell) => return stream_changes(stream, shared, conn_bucket, &cell, max),
            None => pin_gone(m, "change stream", sid),
        },
        Request::CloseStream { stream: sid } => {
            if shared.streams.close(sid) {
                Response::Done
            } else {
                pin_gone(m, "change stream", sid)
            }
        }
    };
    finish(m, stream, resp)
}

/// Stream a scan as chunked frames; the final chunk carries
/// `last = true`. An iterator error mid-stream is sent as a trailing
/// error frame (clients treat it as terminating the scan). Every chunk
/// after the first takes a fresh rate-limit token; exhaustion ends the
/// scan with a `RATE_LIMITED` error frame.
///
/// Rows are pulled a chunk at a time through
/// [`DbScanIter::collect_n`], never more than `limit` still allows,
/// so the engine resolves exactly the rows that go on the wire.
fn stream_scan(
    stream: &mut TcpStream,
    shared: &Shared,
    conn_bucket: &TokenBucket,
    mut iter: DbScanIter,
    limit: u32,
) -> bool {
    let m = &shared.metrics;
    let chunk_cap = shared.cfg.scan_chunk.max(1);
    let mut remaining = if limit == 0 {
        usize::MAX
    } else {
        limit as usize
    };
    let mut first_chunk = true;
    loop {
        let rows = match iter.collect_n(remaining.min(chunk_cap)) {
            Ok(rows) => rows,
            Err(e) => return finish(m, stream, Response::from_error(&e)),
        };
        remaining -= rows.len();
        // A short chunk (range exhausted) or the limit reached ends the
        // scan: no empty trailing chunk, which would cost another token.
        let last = rows.len() < chunk_cap || remaining == 0;
        if !first_chunk && !shared.admit(conn_bucket) {
            m.rate_limited.fetch_add(1, Ordering::Relaxed);
            let resp = Response::error(WireCode::RateLimited, "rate limit exceeded mid-scan");
            return finish(m, stream, resp);
        }
        first_chunk = false;
        let chunk = Response::ScanChunk {
            entries: rows
                .into_iter()
                .map(|e| (e.key, e.value.as_ref().to_vec()))
                .collect(),
            last,
        };
        if send(stream, &chunk).is_err() {
            return false;
        }
        if last {
            m.requests_ok.fetch_add(1, Ordering::Relaxed);
            return true;
        }
    }
}

/// Put one committed change event on the wire.
fn wire_change(r: ChangeRecord) -> WireChange {
    WireChange {
        shard: r.shard as u32,
        seq: r.seq,
        key: r.key,
        value: match r.op {
            ChangeOp::Put(v) => Some(v.as_ref().to_vec()),
            ChangeOp::Delete => None,
        },
        txn: r.txn_id,
    }
}

/// Deliver pending changes from a stream as chunked `ChangeChunk`
/// frames. Each chunk carries a resume token for the position *after*
/// it, so a client that disconnects mid-poll can re-subscribe without
/// loss. A short chunk means the stream is caught up (`last = true`,
/// possibly with zero events). Like scans, every chunk after the first
/// pays a rate-limit token; exhaustion truncates the poll with an early
/// `last = true` chunk rather than an error frame — the chunk's `lag`
/// tells the client there is more, and because the bucket is charged
/// *before* events leave the cursor, a throttled poll can never drop
/// history (unlike a scan, a change stream is a position, not a
/// request-scoped iterator, so truncation is lossless).
fn stream_changes(
    stream: &mut TcpStream,
    shared: &Shared,
    conn_bucket: &TokenBucket,
    cell: &Mutex<DbChangeStream>,
    max: u32,
) -> bool {
    let m = &shared.metrics;
    let chunk_cap = shared.cfg.scan_chunk.max(1);
    let mut remaining = if max == 0 { u64::MAX } else { max as u64 };
    let mut s = cell.lock();
    let mut first_chunk = true;
    loop {
        // Charge *before* polling: a rejected chunk must not consume
        // events from the stream's cursor, or they would be lost — the
        // stream keeps its position and the client re-polls later.
        if !first_chunk && !shared.admit(conn_bucket) {
            m.rate_limited.fetch_add(1, Ordering::Relaxed);
            let trunc = Response::ChangeChunk {
                events: Vec::new(),
                resume: s.resume_token().encode(),
                lag: s.lag(),
                last: true,
            };
            if send(stream, &trunc).is_err() {
                return false;
            }
            break;
        }
        first_chunk = false;
        let take = chunk_cap.min(remaining.min(usize::MAX as u64) as usize);
        let events = match s.poll_changes(take) {
            Ok(v) => v,
            Err(e) => return finish(m, stream, Response::from_error(&e)),
        };
        remaining -= events.len() as u64;
        let last = events.len() < take || remaining == 0;
        m.cdc_events_streamed
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        let chunk = Response::ChangeChunk {
            events: events.into_iter().map(wire_change).collect(),
            resume: s.resume_token().encode(),
            lag: s.lag(),
            last,
        };
        if send(stream, &chunk).is_err() {
            return false;
        }
        if last {
            break;
        }
    }
    m.requests_ok.fetch_add(1, Ordering::Relaxed);
    true
}

// ---------------- metrics endpoint ----------------

fn metrics_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => serve_metrics_conn(stream, &shared),
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL_TICK),
            Err(_) => std::thread::sleep(POLL_TICK),
        }
    }
}

/// Answer one HTTP/1.0 request on the metrics listener. Only
/// `GET /metrics` exists; everything else is a 404.
fn serve_metrics_conn(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 4096];
    let mut req = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                req.extend_from_slice(&buf[..n]);
                if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 16 << 10 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let first_line = req.split(|b| *b == b'\r').next().unwrap_or(&[]);
    let (status, body) = if first_line.starts_with(b"GET /metrics") {
        (
            "200 OK",
            render_metrics(
                &shared.engine,
                &shared.metrics,
                shared.pins.len(),
                shared.streams.len(),
            ),
        )
    } else {
        ("404 Not Found", "only GET /metrics is served\n".to_string())
    };
    let resp = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(resp.as_bytes());
}

/// Fetch `GET /metrics` from a running server over plain TCP; returns
/// the body. Used by the load generator and tests (no HTTP client
/// dependency exists in this workspace).
pub fn scrape_metrics(addr: impl ToSocketAddrs) -> Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut resp = String::new();
    stream.read_to_string(&mut resp)?;
    let Some(split) = resp.find("\r\n\r\n") else {
        return Err(Error::io("malformed http response from metrics endpoint"));
    };
    if !resp.starts_with("HTTP/1.0 200") {
        return Err(Error::io(format!(
            "metrics endpoint returned: {}",
            resp.lines().next().unwrap_or("")
        )));
    }
    Ok(resp[split + 4..].to_string())
}
