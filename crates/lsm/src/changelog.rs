//! Change-data-capture: an ordered, gap-free stream of committed write
//! events built on the group-commit/WAL infrastructure.
//!
//! Every committed group is published into a bounded in-memory ring at
//! apply time — one publish per group, under the writer lock, so the
//! ring observes exactly the commit order. The published unit is the
//! group's merged [`WriteBatch`] (moved, not copied: publication adds
//! zero byte copies to the write path) plus the per-member sequence
//! marks that let multi-batch groups keep per-transaction attribution.
//!
//! A subscriber holds a [`ChangeCursor`]: a registered low-water mark
//! (modeled on the read-point registry) naming the next sequence it
//! needs. Polling serves from the ring when the cursor is at or above
//! the ring's floor; below the floor it **catches up from retained WAL
//! segments** — closed WAL files are catalogued instead of deleted, and
//! the catalog pins them against reclamation for as long as a
//! registered subscriber still needs them. History kept for *future*
//! subscribers (no one registered below the floor) is bounded by
//! `cdc_retention` bytes; history a live subscriber needs is never
//! dropped, it is accounted as pinned bytes instead.
//!
//! Ordering/atomicity contract: events are delivered in strictly
//! increasing sequence order with no gaps and no duplicates, and only
//! for committed groups (a group that failed its WAL sync is never
//! published, and its torn WAL record is excluded from catch-up by the
//! segment's sequence range). Transaction ids tag live ring events;
//! catch-up replay reconstructs `(seq, key, op, value)` from the WAL,
//! which does not encode txn ids.

use crate::batch::WriteBatch;
use crate::filename::wal_path;
use bytes::Bytes;
use parking_lot::Mutex;
use scavenger_env::{EnvRef, IoClass};
use scavenger_util::ikey::{SeqNo, ValueType};
use scavenger_util::{Error, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One committed write operation, as observed by a change subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeEvent {
    /// The operation's sequence number (its position in commit order).
    pub seq: SeqNo,
    /// Operation kind: `Value` (put), `Deletion` (tombstone), or
    /// `ValueRef` (an internal KV-separation relocation write).
    pub vtype: ValueType,
    /// User key.
    pub key: Vec<u8>,
    /// Value bytes (empty for tombstones; an encoded ref for
    /// `ValueRef` entries).
    pub value: Bytes,
    /// Transaction id for events committed through a transactional
    /// write, when known. `None` for plain writes and for events
    /// reconstructed from WAL catch-up (the WAL does not encode ids).
    pub txn_id: Option<u64>,
}

/// A published commit group: the merged batch plus per-member marks.
struct Group {
    base: SeqNo,
    batch: WriteBatch,
    /// `(last_seq_of_member, txn_id)` per group member, in order.
    /// Empty when no member carried a transaction id.
    marks: Vec<(SeqNo, Option<u64>)>,
}

impl Group {
    fn last(&self) -> SeqNo {
        self.base + self.batch.count() as u64 - 1
    }

    fn txn_for(&self, seq: SeqNo) -> Option<u64> {
        for (end, id) in &self.marks {
            if seq <= *end {
                return *id;
            }
        }
        None
    }
}

/// A WAL file retained for catch-up: covers sequences
/// `[first_seq, end_seq)`.
#[derive(Debug, Clone)]
struct Segment {
    number: u64,
    first_seq: SeqNo,
    /// Exclusive upper bound. Events at or past this bound in the file
    /// (a torn record from a poisoned WAL) were never committed and
    /// must not be served.
    end_seq: SeqNo,
    bytes: u64,
}

/// The WAL file currently being written.
#[derive(Debug, Clone, Copy)]
struct LiveWal {
    number: u64,
    first_seq: SeqNo,
}

struct SubEntry {
    id: u64,
    next_seq: SeqNo,
}

struct LogInner {
    ring: VecDeque<Group>,
    ring_bytes: u64,
    segments: VecDeque<Segment>,
    segment_bytes: u64,
    live: Option<LiveWal>,
    subs: Vec<SubEntry>,
}

/// The change-data-capture hub for one LSM tree: publication ring,
/// retained-segment catalog, and subscriber registry.
pub struct ChangeLog {
    env: EnvRef,
    dir: String,
    retention: u64,
    ring_budget: u64,
    /// Shared with the engine's sequence counter: the head of the
    /// stream is by definition the last committed sequence.
    seq: Arc<AtomicU64>,
    inner: Mutex<LogInner>,
    next_sub: AtomicU64,
    events_published: AtomicU64,
    catchup_reads: AtomicU64,
}

/// A snapshot of the change log's counters and gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChangeLogStats {
    /// Total events published since open.
    pub events_published: u64,
    /// Registered subscribers.
    pub subscribers: u64,
    /// Bytes of closed WAL segments retained for catch-up.
    pub retained_wal_bytes: u64,
    /// Bytes held by the in-memory publication ring.
    pub ring_bytes: u64,
    /// WAL files read by catch-up polls since open.
    pub catchup_reads: u64,
    /// Head minus the slowest subscriber's cursor (0 when none lag).
    pub lag_seqs: u64,
}

impl ChangeLog {
    pub(crate) fn new(
        env: EnvRef,
        dir: String,
        seq: Arc<AtomicU64>,
        retention: u64,
        ring_budget: u64,
    ) -> Arc<ChangeLog> {
        Arc::new(ChangeLog {
            env,
            dir,
            retention,
            ring_budget,
            seq,
            inner: Mutex::new(LogInner {
                ring: VecDeque::new(),
                ring_bytes: 0,
                segments: VecDeque::new(),
                segment_bytes: 0,
                live: None,
                subs: Vec::new(),
            }),
            next_sub: AtomicU64::new(1),
            events_published: AtomicU64::new(0),
            catchup_reads: AtomicU64::new(0),
        })
    }

    // ---------------- write-path hooks ----------------

    /// Publish one committed group. Called by the commit path under the
    /// writer lock, after the sequence counter has advanced; the merged
    /// batch is moved in, so publication copies nothing.
    pub(crate) fn publish(&self, base: SeqNo, batch: WriteBatch, marks: Vec<(SeqNo, Option<u64>)>) {
        let count = batch.count() as u64;
        if count == 0 {
            return;
        }
        let bytes = batch.byte_size() as u64;
        let mut inner = self.inner.lock();
        inner.ring.push_back(Group { base, batch, marks });
        inner.ring_bytes += bytes;
        while inner.ring_bytes > self.ring_budget && inner.ring.len() > 1 {
            if let Some(g) = inner.ring.pop_front() {
                inner.ring_bytes -= g.batch.byte_size() as u64;
            }
        }
        drop(inner);
        self.events_published.fetch_add(count, Ordering::Relaxed);
    }

    /// The writer rotated to a fresh WAL. `closed` describes the file
    /// being rotated away (`(number, bytes, poisoned)`), if one was
    /// open. Poisoned files may end in a torn, never-acknowledged
    /// record; the segment's sequence range already excludes it because
    /// the failed group never advanced the sequence counter — but a
    /// poisoned file is dropped from the catalog entirely when it holds
    /// no committed history.
    pub(crate) fn rotate_live(
        &self,
        closed: Option<(u64, u64, bool)>,
        new_number: u64,
        new_first_seq: SeqNo,
    ) {
        let mut inner = self.inner.lock();
        if let Some(live) = inner.live.take() {
            if let Some((number, bytes, _poisoned)) = closed {
                debug_assert_eq!(live.number, number);
                if new_first_seq > live.first_seq {
                    let seg_bytes = bytes;
                    inner.segments.push_back(Segment {
                        number: live.number,
                        first_seq: live.first_seq,
                        end_seq: new_first_seq,
                        bytes: seg_bytes,
                    });
                    inner.segment_bytes += seg_bytes;
                }
            }
        }
        inner.live = Some(LiveWal {
            number: new_number,
            first_seq: new_first_seq,
        });
        self.trim_locked(&mut inner);
    }

    /// Register a WAL file found on disk at recovery as a retained
    /// catch-up segment covering `[first_seq, end_seq)`.
    pub(crate) fn recovered_segment(
        &self,
        number: u64,
        first_seq: SeqNo,
        end_seq: SeqNo,
        bytes: u64,
    ) {
        if end_seq <= first_seq {
            return;
        }
        let mut inner = self.inner.lock();
        inner.segments.push_back(Segment {
            number,
            first_seq,
            end_seq,
            bytes,
        });
        inner.segment_bytes += bytes;
        self.trim_locked(&mut inner);
    }

    /// Lower a recovered segment's exclusive end to `max_end`,
    /// removing the segment entirely when nothing remains. Recovery
    /// registers each WAL as it reads it and clamps afterwards, once
    /// the successor's first sequence is known, to excise
    /// never-acknowledged records from poisoned tails.
    pub(crate) fn clamp_segment(&self, number: u64, max_end: SeqNo) {
        let mut inner = self.inner.lock();
        if let Some(pos) = inner.segments.iter().position(|s| s.number == number) {
            let seg = &mut inner.segments[pos];
            if seg.end_seq <= max_end {
                return;
            }
            if max_end <= seg.first_seq {
                let bytes = seg.bytes;
                inner.segments.remove(pos);
                inner.segment_bytes -= bytes;
            } else {
                seg.end_seq = max_end;
            }
        }
    }

    /// True when WAL file `number` must not be deleted: it is either
    /// the live WAL or a retained catch-up segment.
    pub(crate) fn protects(&self, number: u64) -> bool {
        let inner = self.inner.lock();
        if inner.live.map(|l| l.number) == Some(number) {
            return true;
        }
        inner.segments.iter().any(|s| s.number == number)
    }

    /// Speculative retention is configured (`cdc_retention > 0`):
    /// recovery keeps replayed WALs as catch-up segments instead of
    /// deleting them.
    pub(crate) fn retains_history(&self) -> bool {
        self.retention > 0
    }

    // ---------------- subscriber surface ----------------

    /// The last committed sequence (the stream head).
    pub fn head_seq(&self) -> SeqNo {
        self.seq.load(Ordering::SeqCst)
    }

    /// The oldest sequence still servable (ring or retained WAL), or
    /// `head + 1` when no history is available.
    pub fn earliest_seq(&self) -> SeqNo {
        let inner = self.inner.lock();
        self.earliest_locked(&inner)
    }

    fn earliest_locked(&self, inner: &LogInner) -> SeqNo {
        let mut earliest = match inner.segments.front() {
            Some(s) => s.first_seq,
            None => match inner.live {
                Some(l) => l.first_seq,
                None => self.head_seq() + 1,
            },
        };
        if let Some(front) = inner.ring.front() {
            earliest = earliest.min(front.base);
        }
        earliest
    }

    /// Register a subscriber whose next wanted sequence is `from_seq`.
    /// Fails when that history has already been reclaimed (the error
    /// names the earliest still-available sequence).
    pub fn subscribe_from(self: &Arc<Self>, from_seq: SeqNo) -> Result<ChangeCursor> {
        let mut inner = self.inner.lock();
        let earliest = self.earliest_locked(&inner);
        let head = self.head_seq();
        if from_seq < earliest {
            return Err(Error::invalid_argument(format!(
                "change history before seq {earliest} has been reclaimed \
                 (requested {from_seq}); resubscribe from {earliest} or later"
            )));
        }
        if from_seq > head + 1 {
            return Err(Error::invalid_argument(format!(
                "cannot subscribe from future seq {from_seq} (head is {head})"
            )));
        }
        let id = self.next_sub.fetch_add(1, Ordering::Relaxed);
        inner.subs.push(SubEntry {
            id,
            next_seq: from_seq,
        });
        drop(inner);
        Ok(ChangeCursor {
            log: self.clone(),
            id,
            next_seq: from_seq,
        })
    }

    /// Subscribe from the oldest available history.
    pub fn subscribe_oldest(self: &Arc<Self>) -> Result<ChangeCursor> {
        let from = self.earliest_seq();
        self.subscribe_from(from)
    }

    /// Subscribe from the next write (tail the stream).
    pub fn subscribe_tail(self: &Arc<Self>) -> Result<ChangeCursor> {
        self.subscribe_from(self.head_seq() + 1)
    }

    fn unsubscribe(&self, id: u64) {
        let mut inner = self.inner.lock();
        inner.subs.retain(|s| s.id != id);
        self.trim_locked(&mut inner);
    }

    /// Serve up to `max` events at or past the cursor. Events come
    /// back in strictly increasing, gap-free sequence order; an empty
    /// result means the subscriber is caught up (or history it needs
    /// is not yet visible — e.g. an unsynced live-WAL tail) and should
    /// poll again later.
    fn poll(&self, id: u64, cursor: SeqNo, max: usize) -> Result<Vec<ChangeEvent>> {
        if max == 0 {
            return Ok(Vec::new());
        }
        let head = self.head_seq();
        if cursor > head {
            return Ok(Vec::new());
        }
        let mut events: Vec<ChangeEvent> = Vec::new();
        let mut next = cursor;

        // Catch-up below the ring floor: replay retained WAL files.
        loop {
            let plan = {
                let inner = self.inner.lock();
                let ring_floor = inner.ring.front().map(|g| g.base);
                if ring_floor.is_some_and(|f| next >= f) {
                    None // servable from the ring
                } else {
                    self.plan_catchup_locked(&inner, next)
                }
            };
            let Some((path, end_seq)) = plan else { break };
            let start = next;
            let served = self.replay_file(&path, &mut next, end_seq, head, max, &mut events);
            // A closed segment holds every sequence below its end, and
            // this subscriber's own cursor pins the file: a failed read
            // or a replay that stops short is a damaged WAL, not a race.
            if end_seq != SeqNo::MAX {
                served?;
                let want = end_seq.min(head.saturating_add(1));
                if events.len() < max && next < want {
                    return Err(Error::corruption(format!(
                        "CDC catch-up: WAL {path} stops at sequence {next}, short of {want}"
                    )));
                }
            } else if served.is_err() {
                // The live WAL vanished in a rotation race: serve what
                // we have; the next poll re-plans from the fresh catalog.
                break;
            }
            // No progress on the live WAL: its tail is not yet synced.
            if next == start || events.len() >= max {
                break;
            }
        }

        // Serve from the ring once the cursor reaches its floor.
        if events.len() < max && next <= head {
            let inner = self.inner.lock();
            if inner.ring.front().is_some_and(|g| next >= g.base) {
                for g in &inner.ring {
                    if g.last() < next {
                        continue;
                    }
                    for (i, e) in g.batch.entries().iter().enumerate() {
                        let seq = g.base + i as u64;
                        if seq < next || seq > head {
                            continue;
                        }
                        debug_assert_eq!(seq, next);
                        events.push(ChangeEvent {
                            seq,
                            vtype: e.vtype,
                            key: e.key.clone(),
                            value: e.value.clone(),
                            txn_id: g.txn_for(seq),
                        });
                        next = seq + 1;
                        if events.len() >= max {
                            break;
                        }
                    }
                    if events.len() >= max {
                        break;
                    }
                }
            }
        }

        if next != cursor {
            let mut inner = self.inner.lock();
            if let Some(sub) = inner.subs.iter_mut().find(|s| s.id == id) {
                sub.next_seq = next;
            }
            self.trim_locked(&mut inner);
        }
        Ok(events)
    }

    /// Pick the next catalog file that covers `next`, if catch-up is
    /// needed. Returns `(path, exclusive_end_seq)`.
    fn plan_catchup_locked(&self, inner: &LogInner, next: SeqNo) -> Option<(String, SeqNo)> {
        for s in &inner.segments {
            if s.end_seq > next {
                if s.first_seq > next {
                    // Hole below the oldest retained history: the
                    // subscriber was registered at/above `earliest`,
                    // so this only happens transiently; treat as
                    // nothing to serve.
                    return None;
                }
                return Some((wal_path(&self.dir, s.number), s.end_seq));
            }
        }
        let live = inner.live?;
        if live.first_seq <= next {
            return Some((wal_path(&self.dir, live.number), SeqNo::MAX));
        }
        None
    }

    /// Replay one WAL file, appending events in `[next, end_seq)` with
    /// `seq <= head`, up to `max` total, advancing `next` past each. It
    /// stops early at a damaged record or a gap in the sequence.
    fn replay_file(
        &self,
        path: &str,
        next: &mut SeqNo,
        end_seq: SeqNo,
        head: SeqNo,
        max: usize,
        events: &mut Vec<ChangeEvent>,
    ) -> Result<()> {
        let data = self.env.read_file(path, IoClass::Wal)?;
        self.catchup_reads.fetch_add(1, Ordering::Relaxed);
        let (records, _corrupt) = crate::wal::read_all_records(data);
        for rec in records {
            let Ok((base, batch)) = WriteBatch::decode(&rec) else {
                break;
            };
            for (i, e) in batch.entries().iter().enumerate() {
                let seq = base + i as u64;
                if seq < *next {
                    continue;
                }
                // A gap inside a file would mean lost history; stop
                // rather than serve out of order.
                if seq >= end_seq || seq > head || seq != *next {
                    return Ok(());
                }
                events.push(ChangeEvent {
                    seq,
                    vtype: e.vtype,
                    key: e.key.clone(),
                    value: e.value.clone(),
                    txn_id: None,
                });
                *next = seq + 1;
                if events.len() >= max {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Drop retained segments past the retention budget — but never a
    /// segment a registered subscriber still needs. Files dropped from
    /// the catalog become unprotected and are deleted by the engine's
    /// normal obsolete-WAL sweep.
    fn trim_locked(&self, inner: &mut LogInner) {
        let min_sub = inner.subs.iter().map(|s| s.next_seq).min();
        while inner.segment_bytes > self.retention {
            let Some(front) = inner.segments.front() else {
                break;
            };
            if min_sub.is_some_and(|m| m < front.end_seq) {
                break; // pinned by a live subscriber
            }
            let bytes = front.bytes;
            inner.segments.pop_front();
            inner.segment_bytes -= bytes;
        }
    }

    // ---------------- observability ----------------

    /// Counter/gauge snapshot.
    pub fn stats(&self) -> ChangeLogStats {
        let inner = self.inner.lock();
        let head = self.head_seq();
        let min_sub = inner.subs.iter().map(|s| s.next_seq).min();
        let lag = match min_sub {
            Some(m) if m <= head => head - m + 1,
            _ => 0,
        };
        ChangeLogStats {
            events_published: self.events_published.load(Ordering::Relaxed),
            subscribers: inner.subs.len() as u64,
            retained_wal_bytes: inner.segment_bytes,
            ring_bytes: inner.ring_bytes,
            catchup_reads: self.catchup_reads.load(Ordering::Relaxed),
            lag_seqs: lag,
        }
    }

    /// Bytes of on-disk history pinned for catch-up (retained WAL
    /// segments) — the CDC contribution to the §III-D pinned-bytes
    /// accounting.
    pub fn pinned_bytes(&self) -> u64 {
        self.inner.lock().segment_bytes
    }
}

/// A registered change subscriber: an RAII low-water mark. Dropping
/// the cursor unregisters it, releasing any WAL retention it pinned.
pub struct ChangeCursor {
    log: Arc<ChangeLog>,
    id: u64,
    next_seq: SeqNo,
}

impl ChangeCursor {
    /// Serve up to `max` events at the cursor, advancing it past
    /// everything returned. Events are strictly ordered and gap-free;
    /// an empty result means "caught up, poll again later".
    pub fn poll(&mut self, max: usize) -> Result<Vec<ChangeEvent>> {
        let events = self.log.poll(self.id, self.next_seq, max)?;
        if let Some(last) = events.last() {
            self.next_seq = last.seq + 1;
        }
        Ok(events)
    }

    /// The next sequence this cursor will deliver — the resume point.
    pub fn next_seq(&self) -> SeqNo {
        self.next_seq
    }

    /// Head minus cursor: how many committed events remain unseen.
    pub fn lag(&self) -> u64 {
        (self.log.head_seq() + 1).saturating_sub(self.next_seq)
    }
}

impl std::fmt::Debug for ChangeCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChangeCursor")
            .field("id", &self.id)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl Drop for ChangeCursor {
    fn drop(&mut self) {
        self.log.unsubscribe(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Lsm;
    use crate::options::LsmOptions;
    use scavenger_env::MemEnv;

    fn small_opts(env: EnvRef, dir: &str) -> LsmOptions {
        let mut o = LsmOptions::new(env, dir);
        o.memtable_size = 4 * 1024;
        o.base_level_bytes = 16 * 1024;
        o.target_file_size = 8 * 1024;
        o.block_size = 1024;
        o
    }

    fn put(db: &Lsm, k: &str, v: &[u8]) {
        let mut b = WriteBatch::new();
        b.put(k.as_bytes(), Bytes::copy_from_slice(v));
        db.write(b).unwrap();
    }

    /// Drain a cursor to the head, asserting strict gap-free ordering.
    fn drain(cur: &mut ChangeCursor) -> Vec<ChangeEvent> {
        let mut out: Vec<ChangeEvent> = Vec::new();
        loop {
            let batch = cur.poll(7).unwrap();
            if batch.is_empty() {
                break;
            }
            for e in batch {
                if let Some(prev) = out.last() {
                    assert_eq!(e.seq, prev.seq + 1, "gap or duplicate in stream");
                }
                out.push(e);
            }
        }
        out
    }

    #[test]
    fn tail_subscriber_sees_live_events_in_order() {
        let db = Lsm::open(small_opts(MemEnv::shared(), "db")).unwrap().0;
        let log = db.change_log();
        let mut cur = log.subscribe_tail().unwrap();
        assert!(cur.poll(16).unwrap().is_empty(), "nothing committed yet");

        let mut b = WriteBatch::new();
        b.put(b"a", Bytes::from_static(b"1"));
        b.delete(b"b");
        db.write(b).unwrap();
        put(&db, "c", b"3");

        let events = drain(&mut cur);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].key, b"a");
        assert_eq!(events[0].vtype, ValueType::Value);
        assert_eq!(events[1].key, b"b");
        assert_eq!(events[1].vtype, ValueType::Deletion);
        assert_eq!(events[2].key, b"c");
        assert_eq!(events[2].seq, db.last_sequence());
        assert_eq!(cur.lag(), 0);
        assert!(cur.poll(16).unwrap().is_empty(), "caught up");

        let stats = log.stats();
        assert_eq!(stats.events_published, 3);
        assert_eq!(stats.subscribers, 1);
    }

    #[test]
    fn txn_marks_tag_only_their_member() {
        let db = Lsm::open(small_opts(MemEnv::shared(), "db")).unwrap().0;
        let log = db.change_log();
        let mut cur = log.subscribe_tail().unwrap();
        let mut b = WriteBatch::new();
        b.put(b"t", Bytes::from_static(b"v"));
        let wo = crate::batch::WriteOptions {
            txn_id: Some(42),
            ..Default::default()
        };
        db.write_opts(&wo, b).unwrap();
        put(&db, "plain", b"v");
        let events = drain(&mut cur);
        assert_eq!(events[0].txn_id, Some(42));
        assert_eq!(events[1].txn_id, None);
    }

    #[test]
    fn catchup_replays_wal_below_ring_floor() {
        let env = MemEnv::shared();
        let mut opts = small_opts(env, "db");
        opts.cdc_retention = 64 * 1024 * 1024;
        opts.cdc_ring_bytes = 1; // evict down to one group per publish
        let db = Lsm::open(opts).unwrap().0;
        // Enough volume to roll the memtable (and thus the WAL) several
        // times, so history spans closed segments + the live WAL.
        for i in 0..120 {
            put(&db, &format!("key{i:04}"), &[b'v'; 128]);
        }
        let log = db.change_log();
        assert_eq!(log.earliest_seq(), 1, "history retained from seq 1");

        let mut cur = log.subscribe_oldest().unwrap();
        let events = drain(&mut cur);
        assert_eq!(events.len(), 120);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[0].key, b"key0000");
        assert_eq!(events[119].key, b"key0119");
        assert!(log.stats().catchup_reads > 0, "served from WAL replay");
    }

    /// A damaged or missing closed segment fails the catch-up poll with
    /// a typed error instead of serving empty polls forever.
    #[test]
    fn catchup_over_a_damaged_closed_segment_is_an_error() {
        use scavenger_env::Env;
        let env = MemEnv::shared();
        let mut opts = small_opts(env.clone(), "db");
        opts.cdc_retention = 64 * 1024 * 1024;
        opts.cdc_ring_bytes = 1;
        let db = Lsm::open(opts).unwrap().0;
        for i in 0..120 {
            put(&db, &format!("key{i:04}"), &[b'v'; 128]);
        }
        let log = db.change_log();
        let path = {
            let inner = log.inner.lock();
            wal_path(
                "db",
                inner.segments.front().expect("a closed segment").number,
            )
        };
        env.corrupt_byte(&path, 200).unwrap();
        let mut cur = log.subscribe_oldest().unwrap();
        let err = (0..50)
            .find_map(|_| cur.poll(7).err())
            .expect("the damaged segment fails a poll");
        assert!(
            matches!(&err, Error::Corruption(m) if m.contains(&path)),
            "{err}"
        );
        assert!(cur.poll(7).is_err(), "the error repeats, it is not skipped");
        env.remove_file(&path).unwrap();
        assert!(cur.poll(7).is_err(), "a missing segment is an error too");
    }

    #[test]
    fn slow_subscriber_pins_history_with_zero_retention() {
        let env = MemEnv::shared();
        let opts = small_opts(env, "db"); // cdc_retention = 0
        let db = Lsm::open(opts).unwrap().0;
        put(&db, "first", b"v");
        let log = db.change_log();
        let mut cur = log.subscribe_from(1).unwrap();

        // Roll WALs: without the subscriber these files would be
        // reclaimed as soon as their memtables flush.
        for i in 0..120 {
            put(&db, &format!("key{i:04}"), &[b'v'; 128]);
        }
        assert!(
            log.pinned_bytes() > 0,
            "subscriber at seq 1 pins rotated WAL history"
        );

        let events = drain(&mut cur);
        assert_eq!(events.len(), 121, "full history despite retention = 0");
        assert_eq!(events[0].key, b"first");

        // Cursor caught up: retention 0 means the catalog drains, and
        // the sweep may now reclaim the files.
        assert_eq!(log.pinned_bytes(), 0);
        drop(cur);
        assert_eq!(log.stats().subscribers, 0);
    }

    #[test]
    fn reopen_recovers_retained_segments() {
        let env: EnvRef = MemEnv::shared();
        let mk = |env: &EnvRef| {
            let mut o = small_opts(env.clone(), "db");
            o.cdc_retention = 64 * 1024 * 1024;
            o
        };
        let total = {
            let db = Lsm::open(mk(&env)).unwrap().0;
            for i in 0..60 {
                put(&db, &format!("key{i:04}"), &[b'v'; 128]);
            }
            db.last_sequence()
        };
        let db = Lsm::open(mk(&env)).unwrap().0;
        let log = db.change_log();
        assert_eq!(log.earliest_seq(), 1, "recovered WALs re-catalogued");
        let mut cur = log.subscribe_oldest().unwrap();
        let events = drain(&mut cur);
        assert_eq!(events.len(), total as usize);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events.last().unwrap().seq, total);
    }

    #[test]
    fn subscribe_outside_available_range_errors() {
        let mut opts = small_opts(MemEnv::shared(), "db");
        opts.cdc_ring_bytes = 1; // no ring history either
        let db = Lsm::open(opts).unwrap().0;
        // Retention 0: roll history away, then ask for it.
        for i in 0..120 {
            put(&db, &format!("key{i:04}"), &[b'v'; 128]);
        }
        let log = db.change_log();
        assert!(log.earliest_seq() > 1, "old history reclaimed");
        let err = log.subscribe_from(1).unwrap_err();
        assert!(err.to_string().contains("reclaimed"), "{err}");
        let head = log.head_seq();
        let err = log.subscribe_from(head + 2).unwrap_err();
        assert!(err.to_string().contains("future"), "{err}");
        // The two boundary cases that must succeed.
        log.subscribe_from(head + 1).unwrap();
        log.subscribe_oldest().unwrap();
    }
}
