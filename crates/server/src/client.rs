//! A blocking client for the framed protocol.
//!
//! One [`Client`] wraps one TCP connection; requests are synchronous
//! (send a frame, read the reply). Error frames come back as typed
//! [`Error`]s via [`WireCode::to_error`], so `err.is_read_only()`
//! detects a degraded server and [`WireCode::of`] recovers the exact
//! wire code (`RATE_LIMITED`, `PIN_EXPIRED`, ...) client-side. Writes
//! return the engine's [`WriteReceipt`] reconstructed from the
//! [`Response::Written`] frame, so a caller can check `synced` (and
//! observe group-commit amortization through `group_len`) end to end.

use crate::protocol::{
    read_frame, write_frame, BatchOp, Request, Response, SubscribeSpec, WireChange, WireCode,
    DEFAULT_MAX_FRAME,
};
use scavenger::WriteReceipt;
use scavenger_util::{Error, Result};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking connection to a scavenger server.
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
}

impl Client {
    /// Connect to a server's data-plane address.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Send one request and read one response frame.
    pub fn request(&mut self, req: &Request) -> Result<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response> {
        match read_frame(&mut self.stream, self.max_frame)? {
            Some(payload) => Response::decode(&payload),
            None => Err(Error::io("server closed the connection")),
        }
    }

    /// Unwrap a reply: `pick` takes the expected variant apart (or
    /// hands anything else back), an error frame becomes its typed
    /// [`Error`], and any other variant is an internal error.
    fn expect<T>(
        resp: Response,
        pick: impl FnOnce(Response) -> std::result::Result<T, Response>,
    ) -> Result<T> {
        match resp {
            Response::Err { code, message } => Err(code.to_error(&message)),
            other => pick(other)
                .map_err(|other| Error::internal(format!("unexpected response {other:?}"))),
        }
    }

    fn expect_done(resp: Response) -> Result<()> {
        Self::expect(resp, |r| match r {
            Response::Done => Ok(()),
            r => Err(r),
        })
    }

    fn expect_value(resp: Response) -> Result<Option<Vec<u8>>> {
        Self::expect(resp, |r| match r {
            Response::Value { value } => Ok(value),
            r => Err(r),
        })
    }

    fn expect_written(resp: Response) -> Result<WriteReceipt> {
        Self::expect(resp, |r| match r {
            Response::Written {
                seq,
                group_len,
                synced,
            } => Ok(WriteReceipt {
                seq,
                group_len,
                synced,
            }),
            r => Err(r),
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        Self::expect(self.request(&Request::Ping)?, |r| match r {
            Response::Pong => Ok(()),
            r => Err(r),
        })
    }

    /// Point lookup against the latest state.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_impl(None, key)
    }

    /// Point lookup through a pinned server-side snapshot.
    pub fn get_pinned(&mut self, snap: u64, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_impl(Some(snap), key)
    }

    fn get_impl(&mut self, snap: Option<u64>, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let key = key.to_vec();
        Self::expect_value(self.request(&Request::Get { snap, key })?)
    }

    /// Insert or overwrite one key (durable: `sync = true`).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<WriteReceipt> {
        self.put_sync(key, value, true)
    }

    /// Insert or overwrite one key with an explicit sync flag.
    pub fn put_sync(&mut self, key: &[u8], value: &[u8], sync: bool) -> Result<WriteReceipt> {
        let resp = self.request(&Request::Put {
            key: key.to_vec(),
            value: value.to_vec(),
            sync,
        })?;
        Self::expect_written(resp)
    }

    /// Delete one key (durable: `sync = true`).
    pub fn delete(&mut self, key: &[u8]) -> Result<WriteReceipt> {
        self.delete_sync(key, true)
    }

    /// Delete one key with an explicit sync flag.
    pub fn delete_sync(&mut self, key: &[u8], sync: bool) -> Result<WriteReceipt> {
        let resp = self.request(&Request::Delete {
            key: key.to_vec(),
            sync,
        })?;
        Self::expect_written(resp)
    }

    /// Apply an atomic batch (durable: `sync = true`).
    pub fn write(&mut self, ops: Vec<BatchOp>) -> Result<WriteReceipt> {
        self.write_sync(ops, true)
    }

    /// Apply an atomic batch with an explicit sync flag.
    pub fn write_sync(&mut self, ops: Vec<BatchOp>, sync: bool) -> Result<WriteReceipt> {
        let resp = self.request(&Request::Write { ops, sync })?;
        Self::expect_written(resp)
    }

    /// Bounded scan; collects the streamed chunks into one vector.
    /// `limit = 0` means unlimited.
    pub fn scan(
        &mut self,
        snap: Option<u64>,
        lo: &[u8],
        hi: Option<&[u8]>,
        limit: u32,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        write_frame(
            &mut self.stream,
            &Request::Scan {
                snap,
                lo: lo.to_vec(),
                hi: hi.map(|h| h.to_vec()),
                limit,
            }
            .encode(),
        )?;
        let mut out = Vec::new();
        loop {
            let (entries, last) = Self::expect(self.read_response()?, |r| match r {
                Response::ScanChunk { entries, last } => Ok((entries, last)),
                r => Err(r),
            })?;
            out.extend(entries);
            if last {
                return Ok(out);
            }
        }
    }

    /// Open a server-side snapshot; returns its id.
    pub fn snap_open(&mut self) -> Result<u64> {
        Self::expect(self.request(&Request::SnapOpen)?, |r| match r {
            Response::SnapId { id } => Ok(id),
            r => Err(r),
        })
    }

    /// Close a server-side snapshot.
    pub fn snap_close(&mut self, id: u64) -> Result<()> {
        let resp = self.request(&Request::SnapClose { id })?;
        Self::expect_done(resp)
    }

    /// Flush the engine's memtables.
    pub fn flush(&mut self) -> Result<()> {
        let resp = self.request(&Request::Flush)?;
        Self::expect_done(resp)
    }

    /// Run one GC pass; returns `(jobs, files_collected,
    /// records_rewritten, bytes_reclaimed)`.
    pub fn run_gc(&mut self) -> Result<(u32, u64, u64, u64)> {
        Self::expect(self.request(&Request::RunGc)?, |r| match r {
            Response::GcDone {
                jobs,
                files_collected,
                records_rewritten,
                bytes_reclaimed,
            } => Ok((jobs, files_collected, records_rewritten, bytes_reclaimed)),
            r => Err(r),
        })
    }

    /// Fetch the Prometheus exposition text over the data plane.
    pub fn stats(&mut self) -> Result<String> {
        Self::expect(self.request(&Request::Stats)?, |r| match r {
            Response::Stats { text } => Ok(text),
            r => Err(r),
        })
    }

    /// Ask the server to begin its graceful shutdown.
    pub fn shutdown(&mut self) -> Result<()> {
        let resp = self.request(&Request::Shutdown)?;
        Self::expect_done(resp)
    }

    // ---------------- transactions ----------------

    /// Begin a server-side optimistic transaction; returns its id.
    /// The transaction follows snapshot TTL rules: left idle past the
    /// server's `pin_ttl` it expires (discarding its buffered writes)
    /// and further ops report `PIN_EXPIRED`.
    pub fn txn_begin(&mut self) -> Result<u64> {
        Self::expect(self.request(&Request::TxnBegin)?, |r| match r {
            Response::TxnId { id } => Ok(id),
            r => Err(r),
        })
    }

    /// Read a key inside a transaction (joins its read set).
    pub fn txn_get(&mut self, txn: u64, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let key = key.to_vec();
        Self::expect_value(self.request(&Request::TxnGet { txn, key })?)
    }

    /// Buffer a put inside a transaction.
    pub fn txn_put(&mut self, txn: u64, key: &[u8], value: &[u8]) -> Result<()> {
        let resp = self.request(&Request::TxnPut {
            txn,
            key: key.to_vec(),
            value: value.to_vec(),
        })?;
        Self::expect_done(resp)
    }

    /// Buffer a delete inside a transaction.
    pub fn txn_delete(&mut self, txn: u64, key: &[u8]) -> Result<()> {
        let resp = self.request(&Request::TxnDelete {
            txn,
            key: key.to_vec(),
        })?;
        Self::expect_done(resp)
    }

    /// Commit a transaction (durable: `sync = true`). On conflict the
    /// error satisfies [`Error::is_txn_conflict`] (also
    /// [`is_txn_conflict`]) and nothing was written — re-run the
    /// transaction from [`txn_begin`](Client::txn_begin).
    pub fn txn_commit(&mut self, txn: u64) -> Result<WriteReceipt> {
        self.txn_commit_sync(txn, true)
    }

    /// Commit a transaction with an explicit sync flag.
    pub fn txn_commit_sync(&mut self, txn: u64, sync: bool) -> Result<WriteReceipt> {
        let resp = self.request(&Request::TxnCommit { txn, sync })?;
        Self::expect_written(resp)
    }

    /// Discard a transaction without writing.
    pub fn txn_rollback(&mut self, txn: u64) -> Result<()> {
        let resp = self.request(&Request::TxnRollback { txn })?;
        Self::expect_done(resp)
    }

    // ---------------- change streams ----------------

    /// Open a server-side change stream; returns its id. The stream
    /// follows snapshot TTL rules: left unpolled past the server's
    /// `pin_ttl` it expires (releasing its pinned WAL history) and
    /// further polls report `PIN_EXPIRED` — re-subscribe with the last
    /// resume token to continue without loss.
    pub fn subscribe_changes(&mut self, from: SubscribeSpec) -> Result<u64> {
        Self::expect(
            self.request(&Request::SubscribeChanges { from })?,
            |r| match r {
                Response::StreamId { id } => Ok(id),
                r => Err(r),
            },
        )
    }

    /// Drain pending changes from a stream, collecting the chunked
    /// frames into one [`ChangeBatch`]. `max = 0` means the server
    /// default (deliver until caught up). An empty batch means the
    /// stream is caught up, not ended.
    pub fn poll_changes(&mut self, stream: u64, max: u32) -> Result<ChangeBatch> {
        write_frame(
            &mut self.stream,
            &Request::PollChanges { stream, max }.encode(),
        )?;
        let mut batch = ChangeBatch {
            events: Vec::new(),
            resume: Vec::new(),
            lag: 0,
        };
        loop {
            let last = Self::expect(self.read_response()?, |r| match r {
                Response::ChangeChunk {
                    events,
                    resume,
                    lag,
                    last,
                } => {
                    batch.events.extend(events);
                    batch.resume = resume;
                    batch.lag = lag;
                    Ok(last)
                }
                r => Err(r),
            })?;
            if last {
                return Ok(batch);
            }
        }
    }

    /// Close a change stream, releasing its pinned WAL history.
    pub fn close_stream(&mut self, stream: u64) -> Result<()> {
        let resp = self.request(&Request::CloseStream { stream })?;
        Self::expect_done(resp)
    }
}

/// One `poll_changes` reply: the delivered events plus the position to
/// resume from if the connection (or the stream's TTL) is lost.
#[derive(Debug, Clone)]
pub struct ChangeBatch {
    /// Committed change events, in stream order.
    pub events: Vec<WireChange>,
    /// Encoded resume token for the position after the last event.
    pub resume: Vec<u8>,
    /// Sequence numbers still trailing the commit head after this poll.
    pub lag: u64,
}

/// True if `err` is a rate-limit rejection from the server.
pub fn is_rate_limited(err: &Error) -> bool {
    WireCode::of(err) == Some(WireCode::RateLimited)
}

/// True if `err` reports an unknown/expired snapshot pin.
pub fn is_pin_expired(err: &Error) -> bool {
    WireCode::of(err) == Some(WireCode::PinExpired)
}

/// True if `err` is a transaction-conflict rejection (the typed
/// [`Error::TxnConflict`] also survives the wire, so
/// `err.is_txn_conflict()` works equally).
pub fn is_txn_conflict(err: &Error) -> bool {
    WireCode::of(err) == Some(WireCode::TxnConflict)
}
