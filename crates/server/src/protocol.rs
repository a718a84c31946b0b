//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! ```text
//! frame    := len:u32-LE payload            (len = payload length)
//! payload  := opcode:u8 body
//! body     := the op's fields, in the order its table row lists them
//! ```
//!
//! **The message tables in this file are the wire spec.** Each op is
//! one row of [`Request`] or [`Response`]: variant, opcode byte, (for
//! requests) metrics label and admission class, then the fields *in
//! wire order*, each naming a field codec (`fixed64`, `var32`, `blob`,
//! ... — defined once, by the `field!` macro in `codec.rs`). The enums,
//! `encode`, `decode`, [`Request::label`], [`Request::is_data_op`] and
//! the property-test strategies are all generated from those rows, so
//! an op is spelled once. Field order in a row *is* the wire order —
//! callers build variants by field name, so it never shows in Rust
//! code, but reordering a row is a wire-format change (the frozen-bytes
//! test fails).
//!
//! Requests cover the whole [`Engine`](scavenger::Engine) trait surface
//! — point ops, batches, bounded scans (streamed back in chunked
//! frames), snapshot open/read/close against the server's pin table,
//! and maintenance (flush, GC, stats, shutdown). Integers and length
//! prefixes use the same `scavenger-util` coding helpers the storage
//! formats use.
//!
//! Decoding is defensive by construction: a frame length above the
//! negotiated cap is rejected **before** any allocation, unknown
//! opcodes and trailing bytes are protocol errors, and every error is
//! reported as a typed [`WireCode`] on an [`Response::Err`] frame —
//! never a dropped connection, never a panic (the frozen-bytes,
//! round-trip and adversarial-input tests in this module enforce that).

use crate::codec::*;
use scavenger_util::{Error, Result};
use std::io::{Read, Write};

/// Default cap on a single frame's payload (16 MiB). Guards against a
/// hostile or corrupt length prefix causing a huge allocation.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

// ---------------- error codes ----------------

/// [`WireCode`] from one list of `Variant = byte, "TAG", ErrorVariant`
/// rows; the last column is the [`Error`] variant a client rebuilds.
macro_rules! wire_codes {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $byte:literal, $tag:literal, $err:ident ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $name { $( $(#[$vmeta])* $variant = $byte ),+ }

        /// All wire codes, for iteration in tests.
        pub const ALL_WIRE_CODES: [$name; [$($byte),+].len()] = [$($name::$variant),+];

        impl $name {
            /// Stable uppercase tag, embedded in client-side error
            /// messages so the precise code survives the trip through
            /// [`Error`].
            pub fn tag(self) -> &'static str {
                match self {
                    $( $name::$variant => $tag ),+
                }
            }

            /// Reconstruct a typed [`Error`] client-side. Engine-mirroring
            /// codes map back to their variant (so `err.is_read_only()`
            /// works across the wire); protocol/service codes become
            /// [`Error::Io`]-category errors. Every message is prefixed
            /// with `[wire:TAG]` so [`WireCode::of`] can recover the
            /// exact code.
            pub fn to_error(self, message: &str) -> Error {
                let msg = format!("[wire:{}] {message}", self.tag());
                match self {
                    $( $name::$variant => Error::$err(msg) ),+
                }
            }
        }
    };
}

wire_codes! {
    /// Typed error codes carried on [`Response::Err`] frames (one byte
    /// on the wire).
    ///
    /// The first block mirrors [`Error`]'s variants one-to-one; the second
    /// block is protocol/service conditions that have no engine
    /// counterpart. `DEGRADED` is the typed surfacing of
    /// [`Error::ReadOnlyMode`]: a degraded engine answers writes with it
    /// instead of dropping the connection.
    pub enum WireCode {
        /// Key or resource not found ([`Error::NotFound`]).
        NotFound = 1, "NOT_FOUND", NotFound,
        /// Persistent structure failed validation ([`Error::Corruption`]).
        Corruption = 2, "CORRUPTION", Corruption,
        /// Environment / I/O failure ([`Error::Io`]).
        Io = 3, "IO", Io,
        /// Caller misuse ([`Error::InvalidArgument`]).
        InvalidArgument = 4, "INVALID_ARGUMENT", InvalidArgument,
        /// Engine invariant violation ([`Error::Internal`]).
        Internal = 5, "INTERNAL", Internal,
        /// Engine is in read-only degraded mode ([`Error::ReadOnlyMode`]).
        Degraded = 6, "DEGRADED", ReadOnlyMode,
        /// Malformed frame: bad length, unknown opcode, trailing bytes.
        Protocol = 7, "PROTOCOL", InvalidArgument,
        /// Request rejected by the per-connection or global token bucket.
        RateLimited = 8, "RATE_LIMITED", Io,
        /// Connection rejected at accept time: server at its connection cap.
        ConnLimit = 9, "CONN_LIMIT", Io,
        /// Snapshot id unknown — never opened, closed, or expired by TTL.
        PinExpired = 10, "PIN_EXPIRED", Io,
        /// Server is draining: it stopped taking new requests for shutdown.
        ShuttingDown = 11, "SHUTTING_DOWN", Io,
        /// Optimistic transaction failed commit-time validation
        /// ([`Error::TxnConflict`]): nothing was written, the client
        /// re-runs the transaction.
        TxnConflict = 12, "TXN_CONFLICT", TxnConflict,
    }
}

impl WireCode {
    /// Decode a wire byte.
    pub fn from_u8(v: u8) -> Option<WireCode> {
        ALL_WIRE_CODES.into_iter().find(|c| *c as u8 == v)
    }

    /// Map an engine [`Error`] to its wire code.
    ///
    /// The match destructures every variant with no wildcard arm — the
    /// same pattern as `SpaceBreakdown::accumulate` — so adding an
    /// `Error` variant is a compile error here until someone decides
    /// its wire code, rather than a silent fall-through to a generic
    /// one.
    pub fn from_error(err: &Error) -> WireCode {
        match err {
            Error::NotFound(_) => WireCode::NotFound,
            Error::Corruption(_) => WireCode::Corruption,
            Error::Io(_) => WireCode::Io,
            Error::InvalidArgument(_) => WireCode::InvalidArgument,
            Error::Internal(_) => WireCode::Internal,
            Error::ReadOnlyMode(_) => WireCode::Degraded,
            Error::TxnConflict(_) => WireCode::TxnConflict,
        }
    }

    /// Recover the wire code from an [`Error`] produced by
    /// [`to_error`](WireCode::to_error), if any.
    pub fn of(err: &Error) -> Option<WireCode> {
        let msg = match err {
            Error::NotFound(m)
            | Error::Corruption(m)
            | Error::Io(m)
            | Error::InvalidArgument(m)
            | Error::Internal(m)
            | Error::ReadOnlyMode(m)
            | Error::TxnConflict(m) => m,
        };
        let rest = msg.strip_prefix("[wire:")?;
        let end = rest.find(']')?;
        ALL_WIRE_CODES.into_iter().find(|c| c.tag() == &rest[..end])
    }

    fn put(&self, dst: &mut Vec<u8>) {
        dst.push(*self as u8);
    }

    fn get(src: &mut &[u8]) -> Result<WireCode> {
        let byte = get_u8(src)?;
        WireCode::from_u8(byte).ok_or_else(|| perr(format!("unknown wire code {byte}")))
    }

    #[cfg(test)]
    fn arb() -> impl Strategy<Value = WireCode> {
        (0..ALL_WIRE_CODES.len()).prop_map(|i| ALL_WIRE_CODES[i])
    }
}

// ---------------- nested bodies ----------------

wire_enum! {
    /// One operation inside a [`Request::Write`] batch.
    pub enum BatchOp ("batch op tag") {
        /// Insert or overwrite `key`.
        Put = 0 {
            /// User key.
            key: blob,
            /// Value bytes.
            value: blob,
        },
        /// Delete `key`.
        Delete = 1 {
            /// User key.
            key: blob,
        },
    }
}

wire_enum! {
    /// Where a [`Request::SubscribeChanges`] starts — the wire form of
    /// [`scavenger::SubscribeFrom`].
    pub enum SubscribeSpec ("subscribe tag") {
        /// The oldest retained change.
        Oldest = 0,
        /// The current commit head (only future changes).
        Latest = 1,
        /// An encoded [`scavenger::ResumeToken`]
        /// captured from an earlier stream's chunks.
        Token = 2 (token: blob),
    }
}

wire_struct! {
    /// One committed change event on the wire — the serialized form of
    /// [`scavenger::ChangeRecord`].
    pub struct WireChange {
        /// Shard the write committed on (0 on a single-`Db` server).
        pub shard: var32,
        /// Sequence number in the shard's commit order.
        pub seq: var64,
        /// User key.
        pub key: blob,
        /// `Some(value)` for a put, `None` for a delete.
        pub value: opt_blob,
        /// 2PC transaction id when the write was a multi-shard commit.
        pub txn: opt_u64,
    }
}

// ---------------- the message tables ----------------

// Row format: `Variant = opcode, "label", class { fields in wire order }`.
messages! {
    /// A client request frame. Covers the full `Engine` trait surface.
    pub enum Request ("request opcode") {
        /// Liveness probe.
        Ping = 0x01, "ping", control,
        /// Point lookup, optionally through a pinned snapshot.
        Get = 0x02, "get", data {
            /// Server-side snapshot id from [`Response::SnapId`], or `None`
            /// for the latest state.
            snap: opt_u64,
            /// User key.
            key: blob,
        },
        /// Insert or overwrite one key.
        Put = 0x03, "put", data {
            /// Require the commit to be fsync-covered before replying
            /// (rides the engine's group-commit path: one fsync may cover
            /// many concurrent writers).
            sync: bool,
            /// User key.
            key: blob,
            /// Value bytes.
            value: blob,
        },
        /// Delete one key.
        Delete = 0x04, "delete", data {
            /// Require the commit to be fsync-covered before replying.
            sync: bool,
            /// User key.
            key: blob,
        },
        /// Atomic batch (per shard — the engine's `write_with` contract).
        Write = 0x05, "write", data {
            /// Require the commit to be fsync-covered before replying.
            sync: bool,
            /// Operations applied as one batch.
            ops: [BatchOp],
        },
        /// Bounded range scan, streamed back as [`Response::ScanChunk`]
        /// frames (the last one has `last = true`).
        Scan = 0x06, "scan", data {
            /// Server-side snapshot id, or `None` for the latest state.
            snap: opt_u64,
            /// Inclusive lower bound.
            lo: blob,
            /// Exclusive upper bound (`None` = unbounded).
            hi: opt_blob,
            /// Maximum entries to return (`0` = unlimited).
            limit: var32,
        },
        /// Open a server-side snapshot; pinned until closed or TTL-expired.
        SnapOpen = 0x07, "snap_open", control,
        /// Close a server-side snapshot.
        SnapClose = 0x08, "snap_close", control {
            /// Id from [`Response::SnapId`].
            id: fixed64,
        },
        /// Flush memtables and drain background work.
        Flush = 0x09, "flush", control,
        /// Run one GC pass.
        RunGc = 0x0a, "run_gc", control,
        /// Engine + server statistics in Prometheus exposition text.
        Stats = 0x0b, "stats", control,
        /// Begin graceful shutdown: stop accepting, drain in-flight
        /// requests, drop the pin table, flush, exit.
        Shutdown = 0x0c, "shutdown", control,
        /// Begin a server-side optimistic transaction; answered with
        /// [`Response::TxnId`]. The transaction lives in the server's
        /// transaction table until committed, rolled back, or TTL-expired.
        TxnBegin = 0x0d, "txn_begin", control,
        /// Read a key inside a transaction (records it in the read set).
        TxnGet = 0x0e, "txn_get", data {
            /// Id from [`Response::TxnId`].
            txn: fixed64,
            /// User key.
            key: blob,
        },
        /// Buffer a put inside a transaction.
        TxnPut = 0x0f, "txn_put", data {
            /// Id from [`Response::TxnId`].
            txn: fixed64,
            /// User key.
            key: blob,
            /// Value bytes.
            value: blob,
        },
        /// Buffer a delete inside a transaction.
        TxnDelete = 0x10, "txn_delete", data {
            /// Id from [`Response::TxnId`].
            txn: fixed64,
            /// User key.
            key: blob,
        },
        /// Validate and commit a transaction. Answers
        /// [`Response::Written`] on success, or a
        /// [`WireCode::TxnConflict`] error (nothing written) on validation
        /// failure. Either way the transaction id is consumed.
        TxnCommit = 0x11, "txn_commit", data {
            /// Id from [`Response::TxnId`].
            txn: fixed64,
            /// Require the commit to be fsync-covered before replying.
            sync: bool,
        },
        /// Discard a transaction without writing.
        TxnRollback = 0x12, "txn_rollback", control {
            /// Id from [`Response::TxnId`].
            txn: fixed64,
        },
        /// Open a server-side change stream; answered with
        /// [`Response::StreamId`]. The stream lives in the server's pin
        /// table until closed or TTL-expired, and pins the WAL history its
        /// cursor still needs.
        SubscribeChanges = 0x13, "subscribe_changes", data {
            /// Where the subscription starts.
            from: SubscribeSpec,
        },
        /// Deliver pending changes from a stream, as chunked
        /// [`Response::ChangeChunk`] frames (the last one has
        /// `last = true`). An empty final chunk means the stream is caught
        /// up, not ended.
        PollChanges = 0x14, "poll_changes", data {
            /// Id from [`Response::StreamId`].
            stream: fixed64,
            /// Maximum events to deliver across all chunks (`0` = server
            /// default).
            max: var32,
        },
        /// Close a change stream, releasing its pinned WAL history.
        CloseStream = 0x15, "close_stream", control {
            /// Id from [`Response::StreamId`].
            stream: fixed64,
        },
    }
}

// Row format: `Variant = opcode { fields in wire order }`.
messages! {
    /// A server response frame.
    pub enum Response ("response opcode") {
        /// Reply to [`Request::Ping`].
        Pong = 0x81,
        /// Reply to [`Request::Get`].
        Value = 0x82 {
            /// The value, or `None` if the key is absent/deleted.
            value: opt_blob,
        },
        /// Generic success (flush, snapshot close, shutdown ack).
        Done = 0x83,
        /// One chunk of a streamed scan.
        ScanChunk = 0x84 {
            /// True on the final chunk of this scan.
            last: bool,
            /// Key/value pairs in key order.
            entries: [(blob, blob)],
        },
        /// Reply to [`Request::SnapOpen`].
        SnapId = 0x85 {
            /// Server-side snapshot id for subsequent pinned reads.
            id: fixed64,
        },
        /// Reply to [`Request::Stats`]: Prometheus exposition text.
        Stats = 0x86 {
            /// The rendered metrics page.
            text: utf8,
        },
        /// Reply to [`Request::RunGc`].
        GcDone = 0x87 {
            /// GC jobs that ran (one per shard at most).
            jobs: var32,
            /// Value files collected.
            files_collected: var64,
            /// Valid records rewritten.
            records_rewritten: var64,
            /// Garbage bytes reclaimed.
            bytes_reclaimed: var64,
        },
        /// Reply to a write ([`Request::Put`] / [`Request::Delete`] /
        /// [`Request::Write`]): the engine's
        /// [`WriteReceipt`](scavenger::WriteReceipt) on the wire.
        Written = 0x88 {
            /// Highest sequence number the write landed at (max across
            /// shards on a sharded engine).
            seq: var64,
            /// Writer batches sharing the commit group (max across shards).
            group_len: var64,
            /// True if the commit was covered by an fsync before replying.
            synced: bool,
        },
        /// Reply to [`Request::TxnBegin`].
        TxnId = 0x89 {
            /// Server-side transaction id for subsequent txn ops.
            id: fixed64,
        },
        /// Reply to [`Request::SubscribeChanges`].
        StreamId = 0x8a {
            /// Server-side change-stream id for subsequent polls.
            id: fixed64,
        },
        /// One chunk of a streamed [`Request::PollChanges`] reply.
        ChangeChunk = 0x8b {
            /// True on the final chunk of this poll.
            last: bool,
            /// How far the stream still trails the commit head, in
            /// sequence numbers.
            lag: var64,
            /// Resume token capturing the stream position *after* this
            /// chunk — persist it to survive disconnects.
            resume: blob,
            /// Committed change events, in stream order.
            events: [WireChange],
        },
        /// Typed failure.
        Err = 0xff {
            /// The wire code.
            code: WireCode,
            /// Human-readable detail.
            message: utf8,
        },
    }
}

impl Response {
    /// Build an [`Response::Err`] from an engine error.
    pub fn from_error(err: &Error) -> Response {
        Response::Err {
            code: WireCode::from_error(err),
            message: err.to_string(),
        }
    }

    /// Build an [`Response::Err`] from an explicit code.
    pub fn error(code: WireCode, message: impl Into<String>) -> Response {
        Response::Err {
            code,
            message: message.into(),
        }
    }
}

// ---------------- framing ----------------

/// Write one frame (`len` prefix + payload) to `w`. Header and payload
/// go out in a single write so a small response is one packet (two
/// writes would trip Nagle + delayed-ACK and cost ~40ms per request).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    Ok(())
}

/// Read one frame from `r`, blocking until complete. Returns `None` on
/// clean EOF at a frame boundary; EOF mid-frame is a protocol error.
/// A length prefix above `max_frame` is rejected before any allocation.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(perr("eof inside frame header")),
            Ok(n) => filled += n,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(perr(format!(
            "frame of {len} bytes exceeds cap {max_frame}"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            perr("eof inside frame body")
        } else {
            e.into()
        }
    })?;
    Ok(Some(payload))
}

/// Incremental frame assembler for non-blocking reads: feed raw bytes
/// with [`extend`](FrameBuffer::extend), pop complete frames with
/// [`pop`](FrameBuffer::pop). Rejects an oversized length prefix as
/// soon as the 4-byte header arrives, before buffering its body.
pub struct FrameBuffer {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameBuffer {
    /// Create an assembler with the given frame cap.
    pub fn new(max_frame: usize) -> FrameBuffer {
        FrameBuffer {
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Feed raw bytes from the socket.
    pub fn extend(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes currently buffered (incomplete frame data).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pop the next complete frame payload, if one is buffered.
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > self.max_frame {
            return Err(perr(format!(
                "frame of {len} bytes exceeds cap {}",
                self.max_frame
            )));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wire_code_error_mapping_round_trips() {
        let errs = [
            Error::not_found("k"),
            Error::corruption("bad"),
            Error::io("disk"),
            Error::invalid_argument("opt"),
            Error::internal("bug"),
            Error::read_only("degraded"),
            Error::txn_conflict("k1 moved"),
        ];
        for err in &errs {
            let code = WireCode::from_error(err);
            let back = code.to_error("msg");
            assert_eq!(
                WireCode::from_error(&back),
                code,
                "error {err:?} did not round-trip through {code:?}"
            );
            assert_eq!(WireCode::of(&back), Some(code));
        }
        // ReadOnlyMode survives as a typed DEGRADED error end to end.
        let degraded = WireCode::from_error(&Error::read_only("x"));
        assert_eq!(degraded, WireCode::Degraded);
        assert!(degraded.to_error("x").is_read_only());
        // TxnConflict survives typed too, so client-side retry loops
        // can branch on `is_txn_conflict()` across the wire.
        let conflict = WireCode::from_error(&Error::txn_conflict("x"));
        assert_eq!(conflict, WireCode::TxnConflict);
        assert!(conflict.to_error("x").is_txn_conflict());
    }

    #[test]
    fn wire_codes_are_distinct_and_decodable() {
        let mut bytes = std::collections::HashSet::new();
        let mut tags = std::collections::HashSet::new();
        for c in ALL_WIRE_CODES {
            assert!(bytes.insert(c as u8), "duplicate byte for {c:?}");
            assert!(tags.insert(c.tag()), "duplicate tag for {c:?}");
            assert_eq!(WireCode::from_u8(c as u8), Some(c));
        }
        assert_eq!(WireCode::from_u8(0), None);
        assert_eq!(WireCode::from_u8(200), None);
    }

    #[test]
    fn frame_round_trip_via_reader() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        // 4 GiB length prefix, no body: must error out without trying
        // to allocate or read 4 GiB.
        let wire = u32::MAX.to_le_bytes();
        let mut r = &wire[..];
        let err = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap_err();
        assert!(err.to_string().contains("exceeds cap"), "{err}");

        let mut fb = FrameBuffer::new(DEFAULT_MAX_FRAME);
        fb.extend(&wire);
        assert!(fb.pop().is_err());
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        // Header cut mid-way.
        let mut r = &wire[..2];
        assert!(read_frame(&mut r, 1024).is_err());
        // Body cut mid-way.
        let mut r = &wire[..6];
        assert!(read_frame(&mut r, 1024).is_err());
    }

    #[test]
    fn frame_buffer_reassembles_byte_at_a_time() {
        let (snap, key) = (Some(7), b"k".to_vec());
        let want = vec![Request::Ping, Request::Get { snap, key }];
        let mut wire = Vec::new();
        for req in &want {
            write_frame(&mut wire, &req.encode()).unwrap();
        }
        let mut fb = FrameBuffer::new(1024);
        let mut got = Vec::new();
        for b in &wire {
            fb.extend(&[*b]);
            while let Some(p) = fb.pop().unwrap() {
                got.push(Request::decode(&p).unwrap());
            }
        }
        assert_eq!(got, want);
        assert_eq!(fb.buffered(), 0);
    }

    /// The frozen wire bytes: one `req <hex>` / `resp <hex>` line per
    /// golden sample, generated from the hand-written codec this table
    /// replaced. A mismatch prints the line the current codec produces.
    const WIRE_V1: &str = include_str!("../../../tests/fixtures/wire_v1.txt");

    fn b(s: &str) -> Vec<u8> {
        s.as_bytes().to_vec()
    }

    /// Every request opcode with its edge shapes, in fixture order.
    #[rustfmt::skip]
    fn golden_requests() -> Vec<Request> {
        let (key, value) = (b("key"), b("value"));
        vec![
            Request::Ping,
            Request::Get { snap: None, key: key.clone() },
            Request::Get { snap: Some(7), key: vec![] },
            Request::Put { key: key.clone(), value: value.clone(), sync: true },
            Request::Put { key: vec![], value: vec![0xab; 130], sync: false },
            Request::Delete { key: key.clone(), sync: true },
            Request::Write { ops: vec![], sync: false },
            Request::Write {
                ops: vec![
                    BatchOp::Put { key: b("a"), value: b("1") },
                    BatchOp::Delete { key: b("b") },
                    BatchOp::Put { key: vec![], value: vec![] },
                ],
                sync: true,
            },
            Request::Scan { snap: None, lo: vec![], hi: None, limit: 0 },
            Request::Scan { snap: Some(u64::MAX), lo: b("a"), hi: Some(b("z")), limit: 300 },
            Request::SnapOpen,
            Request::SnapClose { id: 9 },
            Request::Flush,
            Request::RunGc,
            Request::Stats,
            Request::Shutdown,
            Request::TxnBegin,
            Request::TxnGet { txn: 3, key: key.clone() },
            Request::TxnPut { txn: 3, key: key.clone(), value },
            Request::TxnDelete { txn: 3, key },
            Request::TxnCommit { txn: 1 << 40, sync: true },
            Request::TxnRollback { txn: 3 },
            Request::SubscribeChanges { from: SubscribeSpec::Oldest },
            Request::SubscribeChanges { from: SubscribeSpec::Latest },
            Request::SubscribeChanges { from: SubscribeSpec::Token(b("tok")) },
            Request::PollChanges { stream: 5, max: 1000 },
            Request::CloseStream { stream: 5 },
        ]
    }

    /// Every response opcode with its edge shapes and every
    /// [`WireCode`], in fixture order.
    #[rustfmt::skip]
    fn golden_responses() -> Vec<Response> {
        let change = |seq, value, txn| WireChange { shard: 2, seq, key: b("k"), value, txn };
        let mut out = vec![
            Response::Pong,
            Response::Value { value: None },
            Response::Value { value: Some(b("v")) },
            Response::Value { value: Some(vec![]) },
            Response::Done,
            Response::Written { seq: 300, group_len: 1, synced: true },
            Response::ScanChunk { entries: vec![], last: true },
            Response::ScanChunk { entries: vec![(b("a"), b("1")), (b("b"), vec![])], last: false },
            Response::SnapId { id: 1 },
            Response::TxnId { id: 2 },
            Response::Stats { text: "scavenger_up 1\n".to_string() },
            Response::GcDone { jobs: 4, files_collected: 2, records_rewritten: 1 << 40, bytes_reclaimed: u64::MAX },
            Response::StreamId { id: 3 },
            Response::ChangeChunk { events: vec![], resume: vec![], lag: 0, last: true },
            Response::ChangeChunk {
                events: vec![change(10, Some(b("v")), None), change(11, None, None), change(300, Some(vec![]), Some(77))],
                resume: b("resume"),
                lag: 12345,
                last: false,
            },
        ];
        out.extend(ALL_WIRE_CODES.iter().map(|c| Response::error(*c, c.tag())));
        out
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        let digits = s.as_bytes().chunks(2);
        let byte = |d: &[u8]| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap();
        digits.map(byte).collect()
    }

    /// `encode(sample)` is the fixture line and `decode(line)` is the
    /// sample, for both directions: the bytes on the wire cannot change
    /// without this fixture changing.
    #[test]
    fn wire_v1_bytes_are_frozen() {
        let fixture: Vec<&str> = WIRE_V1.lines().filter(|l| !l.starts_with('#')).collect();
        let (reqs, resps) = (golden_requests(), golden_responses());
        assert_eq!(fixture.len(), reqs.len() + resps.len(), "sample count");
        let (req_lines, resp_lines) = fixture.split_at(reqs.len());
        for (line, req) in req_lines.iter().zip(&reqs) {
            assert_eq!(format!("req {}", hex(&req.encode())), *line, "{req:?}");
            assert_eq!(Request::decode(&unhex(&line[4..])).unwrap(), *req);
        }
        for (line, resp) in resp_lines.iter().zip(&resps) {
            assert_eq!(format!("resp {}", hex(&resp.encode())), *line, "{resp:?}");
            assert_eq!(Response::decode(&unhex(&line[5..])).unwrap(), *resp);
        }
    }

    fn distinct<T: Eq + std::hash::Hash>(items: &[T]) -> bool {
        items.iter().collect::<std::collections::HashSet<_>>().len() == items.len()
    }

    /// No two rows of a table share a tag or a label, and every op the
    /// metrics layer histograms is still a label in the request table
    /// (a renamed label must not silently stop being recorded).
    #[test]
    fn table_tags_and_labels_are_unique() {
        for tags in [
            Request::TAGS,
            Response::TAGS,
            BatchOp::TAGS,
            SubscribeSpec::TAGS,
        ] {
            assert!(distinct(tags), "duplicate tag in {tags:02x?}");
        }
        assert!(distinct(Request::LABELS), "duplicate request label");
        for op in crate::metrics::OP_LABELS {
            assert!(
                Request::LABELS.contains(&op),
                "metrics op {op:?} is not a request label"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Every request survives encode → frame → unframe → decode.
        #[test]
        fn request_round_trip(req in Request::arb()) {
            let payload = req.encode();
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            let mut r = &wire[..];
            let framed = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap();
            prop_assert_eq!(Request::decode(&framed).unwrap(), req);
        }

        /// Every response survives encode → frame → unframe → decode.
        #[test]
        fn response_round_trip(resp in Response::arb()) {
            let payload = resp.encode();
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            let mut r = &wire[..];
            let framed = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap();
            prop_assert_eq!(Response::decode(&framed).unwrap(), resp);
        }

        /// Arbitrary garbage never panics the decoder: it either decodes
        /// to something (that re-encodes) or fails with a typed error.
        /// (Truncated length prefixes surface as `Corruption` from the
        /// shared coding helpers; structural violations as
        /// `InvalidArgument` — both are protocol-class on the wire.)
        #[test]
        fn garbage_decode_never_panics(payload in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..256)) {
            match Request::decode(&payload) {
                Ok(req) => prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req),
                Err(e) => prop_assert!(matches!(e, Error::InvalidArgument(_) | Error::Corruption(_))),
            }
            match Response::decode(&payload) {
                Ok(resp) => prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp),
                Err(e) => prop_assert!(matches!(e, Error::InvalidArgument(_) | Error::Corruption(_))),
            }
        }

        /// Truncating a valid request payload anywhere still yields a
        /// clean typed error or a (shorter) valid request — no panic,
        /// no bogus trailing state.
        #[test]
        fn truncated_request_decode_is_clean(req in Request::arb(), cut in proptest::strategy::any::<u16>()) {
            let payload = req.encode();
            let cut = (cut as usize) % (payload.len() + 1);
            match Request::decode(&payload[..cut]) {
                Ok(short) => prop_assert_eq!(Request::decode(&short.encode()).unwrap(), short),
                Err(e) => prop_assert!(matches!(e, Error::InvalidArgument(_) | Error::Corruption(_))),
            }
        }
    }
}
