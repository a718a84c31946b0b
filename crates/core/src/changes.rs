//! Change streams: ordered, gap-free subscriptions to the engine's
//! committed history, built on the LSM crate's change log (publication
//! ring + retained WAL segments).
//!
//! # Surface
//!
//! [`Db::subscribe_changes`] opens a [`DbChangeStream`]. A stream is
//! pulled, not pushed — [`DbChangeStream::poll_changes`] returns the
//! next batch of committed events and advances the cursor, so the
//! caller (a wire server, a follower workload, a test oracle) controls
//! pacing and backpressure.
//!
//! # Ordering and completeness contract
//!
//! * **Per shard, the stream is exactly the committed history**: every
//!   event of every acknowledged write appears exactly once, in
//!   sequence order, with no gaps — including events replayed from
//!   retained WAL segments after the in-memory ring has moved on.
//! * **Internal relocation writes are filtered.** KV-separation GC
//!   (Titan-style write-back) re-issues `ValueRef` entries through the
//!   write path; those carry no user-visible change and never surface
//!   through this API. Subscribers see logical operations only:
//!   [`ChangeOp::Put`] and [`ChangeOp::Delete`].
//! * **Across shards**, sequences are per-shard namespaces, so there
//!   is no single commit order to reproduce. The stream merges one
//!   cursor per shard, interleaving deterministically by `(seq, shard)`
//!   over the events pending at each poll, and preserves each shard's
//!   order exactly — on a plain store it is the one cursor's history. A multi-shard transactional batch is split across shards
//!   by 2PC; its events carry the coordinator's transaction id
//!   ([`ChangeRecord::txn_id`]) so a consumer can regroup the slices.
//!   The id is a best-effort hint, not a boundary to rely on: WAL
//!   catch-up drops it, and entries that 2PC roll-forward re-applies
//!   (after a crash, or to finish a batch whose shard apply failed)
//!   surface once, at the sequence of the re-apply, untagged.
//!
//! # Resume tokens
//!
//! [`DbChangeStream::resume_token`] captures the stream's exact position
//! as a portable byte string (`"CDC1"` magic, shard count, one next
//! sequence per shard). A new subscription via
//! [`SubscribeFrom::Token`] continues precisely where the old stream
//! stopped — across disconnects, process restarts, and crash recovery
//! — as long as the history is still retained (see
//! [`Options::cdc_retention`](crate::Options::cdc_retention); history a
//! registered subscriber needs is always retained, tokens only cover
//! *disconnected* gaps). Subscribing with a token whose position has
//! been reclaimed fails loudly rather than silently skipping history.
//!
//! ```
//! use scavenger::{ChangeOp, Db, EngineMode, MemEnv, Options, SubscribeFrom};
//!
//! let db = Db::open(Options::new(MemEnv::shared(), "cdc-demo", EngineMode::Scavenger)).unwrap();
//! let mut stream = db.subscribe_changes(SubscribeFrom::Oldest).unwrap();
//! db.put(b"k", b"v1".to_vec()).unwrap();
//! db.delete(b"k").unwrap();
//! let events = stream.poll_changes(16).unwrap();
//! assert_eq!(events.len(), 2);
//! assert!(matches!(events[0].op, ChangeOp::Put(_)));
//! assert!(matches!(events[1].op, ChangeOp::Delete));
//! // Capture the position, drop the stream, resume later.
//! let token = stream.resume_token();
//! drop(stream);
//! db.put(b"k2", b"v2".to_vec()).unwrap();
//! let mut resumed = db.subscribe_changes(SubscribeFrom::Token(token)).unwrap();
//! let next = resumed.poll_changes(16).unwrap();
//! assert_eq!(next.len(), 1);
//! assert_eq!(next[0].key, b"k2");
//! ```

use crate::db::Db;
use bytes::Bytes;
use scavenger_lsm::{ChangeCursor, ChangeEvent};
use scavenger_util::coding::{get_fixed32, get_fixed64, put_fixed32, put_fixed64};
use scavenger_util::ikey::{SeqNo, ValueType};
use scavenger_util::{Error, Result};
use std::collections::VecDeque;

/// The logical operation a change event describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangeOp {
    /// The key was inserted or overwritten with this value.
    Put(Bytes),
    /// The key was deleted.
    Delete,
}

/// One committed logical change, as delivered to a subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeRecord {
    /// Shard the write committed on (`0` on a plain store).
    pub shard: usize,
    /// The operation's sequence number in its shard's commit order.
    pub seq: SeqNo,
    /// User key.
    pub key: Vec<u8>,
    /// The operation.
    pub op: ChangeOp,
    /// Transaction id, when the write committed through the 2PC
    /// coordinator (multi-shard batches): every slice of one
    /// transaction carries the same id, so a consumer can regroup
    /// them. `None` for plain writes, for events reconstructed from
    /// WAL catch-up (the WAL does not encode ids), and for entries the
    /// coordinator re-applied to complete a batch — at open after a
    /// crash, or after a failed shard apply: one re-apply group per
    /// shard may mix several batches, so it carries no marks.
    pub txn_id: Option<u64>,
}

/// Where a new subscription starts.
#[derive(Debug, Clone)]
pub enum SubscribeFrom {
    /// The oldest change still retained (ring or retained WAL
    /// segments).
    Oldest,
    /// The current tail: only changes committed after the subscribe
    /// call are delivered.
    Latest,
    /// The exact position captured by
    /// [`DbChangeStream::resume_token`] on an earlier stream. Fails if
    /// that history has since been reclaimed (no silent skips) or if
    /// the token's shard count does not match the handle.
    Token(ResumeToken),
}

const TOKEN_MAGIC: &[u8; 4] = b"CDC1";

/// A portable position in a change stream: one next-sequence cursor per
/// shard. Encode/decode round-trips through an opaque byte string fit
/// for the wire protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeToken {
    shards: Vec<SeqNo>,
}

impl ResumeToken {
    /// A token from explicit per-shard positions (each the next
    /// sequence to deliver on that shard).
    pub fn new(shards: Vec<SeqNo>) -> ResumeToken {
        ResumeToken { shards }
    }

    /// Per-shard next-sequence positions, indexed by shard.
    pub fn shard_positions(&self) -> &[SeqNo] {
        &self.shards
    }

    /// Serialize: `"CDC1" | fixed32 nshards | fixed64 next_seq per
    /// shard`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 * self.shards.len());
        out.extend_from_slice(TOKEN_MAGIC);
        put_fixed32(&mut out, self.shards.len() as u32);
        for &s in &self.shards {
            put_fixed64(&mut out, s);
        }
        out
    }

    /// Parse a serialized token.
    pub fn decode(data: &[u8]) -> Result<ResumeToken> {
        if data.len() < 4 || &data[..4] != TOKEN_MAGIC {
            return Err(Error::invalid_argument("resume token has wrong magic"));
        }
        let mut src = &data[4..];
        let n = get_fixed32(&mut src)? as usize;
        if n == 0 || n > 256 {
            return Err(Error::invalid_argument(format!(
                "resume token shard count {n} out of range"
            )));
        }
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(get_fixed64(&mut src)?);
        }
        if !src.is_empty() {
            return Err(Error::invalid_argument("trailing bytes in resume token"));
        }
        Ok(ResumeToken { shards })
    }
}

/// Events fetched per cursor poll while refilling a shard buffer.
const FEED_CHUNK: usize = 256;

/// One shard's cursor plus its undelivered-event buffer.
struct ShardFeed {
    shard: usize,
    cursor: ChangeCursor,
    buf: VecDeque<ChangeRecord>,
}

impl ShardFeed {
    fn new(shard: usize, cursor: ChangeCursor) -> ShardFeed {
        ShardFeed {
            shard,
            cursor,
            buf: VecDeque::new(),
        }
    }

    /// Translate one LSM-level event, filtering internal relocation
    /// writes.
    fn record(shard: usize, e: ChangeEvent) -> Option<ChangeRecord> {
        let op = match e.vtype {
            ValueType::Value => ChangeOp::Put(e.value),
            ValueType::Deletion => ChangeOp::Delete,
            // GC write-back relocations: no user-visible change.
            ValueType::ValueRef => return None,
        };
        Some(ChangeRecord {
            shard,
            seq: e.seq,
            key: e.key,
            op,
            txn_id: e.txn_id,
        })
    }

    /// Refill the buffer until it holds at least one record or the
    /// cursor is caught up (a chunk may consist entirely of filtered
    /// relocation events, so one poll is not necessarily enough).
    fn refill(&mut self) -> Result<()> {
        while self.buf.is_empty() {
            let events = self.cursor.poll(FEED_CHUNK)?;
            if events.is_empty() {
                return Ok(());
            }
            for e in events {
                if let Some(r) = Self::record(self.shard, e) {
                    self.buf.push_back(r);
                }
            }
        }
        Ok(())
    }

    /// The next sequence this feed would deliver: the head of the
    /// buffer if events are staged, the cursor position otherwise.
    fn next_seq(&self) -> SeqNo {
        self.buf
            .front()
            .map(|r| r.seq)
            .unwrap_or_else(|| self.cursor.next_seq())
    }

    /// Head-lag of this feed, counting buffered-but-undelivered
    /// events.
    fn lag(&self) -> u64 {
        self.cursor.lag() + self.buf.len() as u64
    }
}

impl std::fmt::Debug for ShardFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardFeed")
            .field("shard", &self.shard)
            .field("next_seq", &self.next_seq())
            .field("buffered", &self.buf.len())
            .finish()
    }
}

/// A pull-based subscription to a [`Db`]'s committed changes, opened by
/// [`Db::subscribe_changes`]: one cursor per shard, merged
/// deterministically by `(seq, shard)` over the events pending at each
/// poll. Each shard's substream is exactly its committed history, in
/// order, gap-free. Dropping the stream unregisters its cursors
/// (releasing any WAL history they pinned).
#[derive(Debug)]
pub struct DbChangeStream {
    feeds: Vec<ShardFeed>,
}

impl DbChangeStream {
    /// Deliver up to `max` pending changes, advancing the stream. An
    /// empty result means the stream is caught up with the commit
    /// head, not that it ended — poll again after more writes.
    pub fn poll_changes(&mut self, max: usize) -> Result<Vec<ChangeRecord>> {
        let mut out = Vec::new();
        while out.len() < max {
            for feed in &mut self.feeds {
                if feed.buf.is_empty() {
                    feed.refill()?;
                }
            }
            let mut min: Option<(SeqNo, usize)> = None;
            for (i, feed) in self.feeds.iter().enumerate() {
                if let Some(r) = feed.buf.front() {
                    let key = (r.seq, i);
                    if min.is_none_or(|m| key < m) {
                        min = Some(key);
                    }
                }
            }
            match min {
                Some((_, i)) => {
                    out.push(self.feeds[i].buf.pop_front().expect("head just observed"))
                }
                None => break,
            }
        }
        Ok(out)
    }

    /// The stream's exact current position, as a token a later
    /// [`SubscribeFrom::Token`] subscription continues from. Buffered
    /// but undelivered events are *not* considered delivered: resuming
    /// from the token re-delivers them.
    pub fn resume_token(&self) -> ResumeToken {
        ResumeToken::new(self.feeds.iter().map(|f| f.next_seq()).collect())
    }

    /// How far the stream trails the commit head, in sequence numbers
    /// (max across shards; `0` when fully caught up).
    pub fn lag(&self) -> u64 {
        self.feeds.iter().map(|f| f.lag()).max().unwrap_or(0)
    }
}

impl Db {
    /// Open a subscription to committed changes starting at `from`.
    ///
    /// While the subscription lives, the engine retains every WAL
    /// segment the cursor still needs — reclamation never deletes
    /// history out from under a registered subscriber, at the price of
    /// disk space accounted as pinned bytes toward the §III-D
    /// throttle.
    pub fn subscribe_changes(&self, from: SubscribeFrom) -> Result<DbChangeStream> {
        let n = self.num_shards();
        if let SubscribeFrom::Token(t) = &from {
            if t.shard_positions().len() != n {
                return Err(Error::invalid_argument(format!(
                    "resume token is for a {}-shard store, this handle has {n}",
                    t.shard_positions().len()
                )));
            }
        }
        let feeds = (0..n).map(|i| {
            let log = self.shard(i).lsm().change_log();
            let cursor = match &from {
                SubscribeFrom::Oldest => log.subscribe_oldest()?,
                SubscribeFrom::Latest => log.subscribe_tail()?,
                SubscribeFrom::Token(t) => log.subscribe_from(t.shard_positions()[i])?,
            };
            Ok(ShardFeed::new(i, cursor))
        });
        Ok(DbChangeStream {
            feeds: feeds.collect::<Result<_>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{EngineMode, Options};
    use crate::shards::ShardedOptions;
    use crate::view::WriteOptions;
    use scavenger_env::MemEnv;
    use scavenger_lsm::WriteBatch;

    fn db(dir: &str) -> Db {
        let mut o = Options::new(MemEnv::shared(), dir, EngineMode::Scavenger);
        o.memtable_size = 8 * 1024;
        Db::open(o).unwrap()
    }

    #[test]
    fn token_roundtrip_and_rejects_garbage() {
        let t = ResumeToken::new(vec![1, 99, 12345]);
        let enc = t.encode();
        assert_eq!(&enc[..4], b"CDC1");
        assert_eq!(ResumeToken::decode(&enc).unwrap(), t);
        assert!(ResumeToken::decode(b"").is_err());
        assert!(ResumeToken::decode(b"XXXX\x01\x00\x00\x00").is_err());
        assert!(ResumeToken::decode(&enc[..enc.len() - 1]).is_err());
        let mut trailing = enc.clone();
        trailing.push(0);
        assert!(ResumeToken::decode(&trailing).is_err());
        // Zero shards is malformed.
        assert!(ResumeToken::decode(b"CDC1\x00\x00\x00\x00").is_err());
    }

    #[test]
    fn db_stream_delivers_ordered_history() {
        let db = db("chg-db");
        let mut s = db.subscribe_changes(SubscribeFrom::Oldest).unwrap();
        for i in 0..20u32 {
            db.put(format!("key{i:02}"), vec![i as u8; 600]).unwrap();
        }
        db.delete("key05").unwrap();
        let events = s.poll_changes(1024).unwrap();
        assert_eq!(events.len(), 21);
        for w in events.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1, "gap-free, ordered");
        }
        assert!(matches!(events[20].op, ChangeOp::Delete));
        assert_eq!(events[20].key, b"key05");
        assert_eq!(s.lag(), 0);
        // Caught up: an empty poll, not an error.
        assert!(s.poll_changes(16).unwrap().is_empty());
    }

    #[test]
    fn latest_skips_existing_history() {
        let db = db("chg-latest");
        db.put("before", vec![1u8; 100]).unwrap();
        let mut s = db.subscribe_changes(SubscribeFrom::Latest).unwrap();
        db.put("after", vec![2u8; 100]).unwrap();
        let events = s.poll_changes(16).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].key, b"after");
    }

    #[test]
    fn token_resumes_where_stream_stopped() {
        let db = db("chg-token");
        let mut s = db.subscribe_changes(SubscribeFrom::Oldest).unwrap();
        for i in 0..10u32 {
            db.put(format!("a{i}"), vec![0u8; 64]).unwrap();
        }
        let first = s.poll_changes(4).unwrap();
        assert_eq!(first.len(), 4);
        let token = s.resume_token();
        drop(s);
        let mut resumed = db
            .subscribe_changes(SubscribeFrom::Token(
                ResumeToken::decode(&token.encode()).unwrap(),
            ))
            .unwrap();
        let rest = resumed.poll_changes(64).unwrap();
        assert_eq!(rest.len(), 6);
        assert_eq!(rest[0].seq, first[3].seq + 1, "no gap, no duplicate");
    }

    #[test]
    fn wrong_shard_count_token_is_rejected() {
        let db = db("chg-wrongtoken");
        let err = db
            .subscribe_changes(SubscribeFrom::Token(ResumeToken::new(vec![1, 1])))
            .unwrap_err();
        assert!(err.to_string().contains("2-shard"), "{err}");
    }

    #[test]
    fn sharded_stream_merges_and_regroups_transactions() {
        let mut o = ShardedOptions::new(MemEnv::shared(), "chg-shards", EngineMode::Scavenger);
        o.num_shards = 4;
        o.base.memtable_size = 8 * 1024;
        let db = Db::open(o).unwrap();
        let mut s = db.subscribe_changes(SubscribeFrom::Oldest).unwrap();

        // Single-key writes land on one shard each.
        for i in 0..30u32 {
            db.put(format!("key{i:02}"), vec![i as u8; 64]).unwrap();
        }
        // A multi-shard batch goes through the 2PC coordinator and must
        // carry one txn id across its slices.
        let mut batch = WriteBatch::new();
        for i in 0..16u32 {
            batch.put(format!("txn{i:02}"), Bytes::from(vec![9u8; 32]));
        }
        db.write_with(&WriteOptions::default(), batch).unwrap();

        let events = s.poll_changes(4096).unwrap();
        assert_eq!(events.len(), 46);
        // Per-shard order is exactly commit order, gap-free.
        for shard in 0..4 {
            let seqs: Vec<u64> = events
                .iter()
                .filter(|e| e.shard == shard)
                .map(|e| e.seq)
                .collect();
            for w in seqs.windows(2) {
                assert!(w[1] > w[0], "shard {shard} out of order");
            }
        }
        // The transactional slice events all carry the same id.
        let txn_ids: Vec<Option<u64>> = events
            .iter()
            .filter(|e| e.key.starts_with(b"txn"))
            .map(|e| e.txn_id)
            .collect();
        assert_eq!(txn_ids.len(), 16);
        assert!(txn_ids[0].is_some(), "2PC slices must be tagged");
        assert!(txn_ids.iter().all(|id| *id == txn_ids[0]));
        // Plain writes carry no id.
        assert!(events
            .iter()
            .filter(|e| e.key.starts_with(b"key"))
            .all(|e| e.txn_id.is_none()));

        // Token resume on the sharded stream.
        let token = s.resume_token();
        assert_eq!(token.shard_positions().len(), 4);
        drop(s);
        db.put("late", vec![1u8; 32]).unwrap();
        let mut resumed = db.subscribe_changes(SubscribeFrom::Token(token)).unwrap();
        let next = resumed.poll_changes(64).unwrap();
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].key, b"late");
    }

    #[test]
    fn streams_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DbChangeStream>();
    }

    /// One tailing body serves a store of any size.
    #[test]
    fn trait_is_generic_over_both_handles() {
        fn tail(db: &Db) -> Vec<ChangeRecord> {
            let mut s = db.subscribe_changes(SubscribeFrom::Oldest).unwrap();
            s.poll_changes(1024).unwrap()
        }
        let single = db("chg-generic-single");
        single.put("k", vec![1u8; 64]).unwrap();
        assert_eq!(tail(&single).len(), 1);
        let sharded = Db::open(ShardedOptions::new(
            MemEnv::shared(),
            "chg-generic-sharded",
            EngineMode::Scavenger,
        ))
        .unwrap();
        sharded.put("k", vec![1u8; 64]).unwrap();
        assert_eq!(tail(&sharded).len(), 1);
    }
}
