//! The engine handle: a set of [`Shard`] members behind one routing
//! rule. A plain store is the set of one, living at `dir` itself; a
//! sharded store (see [`crate::shards`]) has N members under
//! `dir/shard-NNN`. The whole engine surface is this one type's
//! methods, the same at every size.
//!
//! * **Writes** route by key. A batch whose keys all land on one member
//!   commits through that member unchanged; one that spans members goes
//!   through the two-phase-commit coordinator (see [`crate::txn`]).
//! * **Reads** route too: [`get`](Db::get) asks the owning member, a
//!   [`ReadView`] (from [`view`](Db::view) or
//!   [`snapshot`](Db::snapshot)) pins one registered view per member and
//!   reads through the same `get` / `scan` pair, and [`DbScanIter`]
//!   merges the members' scans in key order.
//! * **Maintenance** fans out across members on up to
//!   [`gc_threads`](crate::Options::gc_threads) workers, and
//!   [`stats`](Db::stats) folds the members' snapshots.
//!
//! Code that takes a `&Db` needs no per-size code:
//!
//! ```
//! use scavenger::{Db, DbShards, EngineMode, MemEnv, Options, ShardedOptions};
//!
//! fn churn(db: &Db) -> scavenger::Result<u64> {
//!     db.put(b"k", vec![7u8; 2048])?;
//!     db.flush()?;
//!     db.compact_all()?;
//!     let report = db.run_gc()?;
//!     Ok(report.aggregate().bytes_reclaimed)
//! }
//!
//! let single = Db::open(Options::new(MemEnv::shared(), "e1", EngineMode::Scavenger)).unwrap();
//! let mut opts = ShardedOptions::new(MemEnv::shared(), "e2", EngineMode::Scavenger);
//! opts.num_shards = 2;
//! let sharded = DbShards::open(opts).unwrap();
//! churn(&single).unwrap();
//! churn(&sharded).unwrap();
//! ```
//!
//! # How a new backend plugs in
//!
//! Below the handle. A new way to store a key range (WAL-time
//! separation, a remote member, …) becomes a new kind of member that the
//! set routes to, and inherits views, snapshots, scans, transactions,
//! change streams and maintenance fan-out unchanged; the tests, the
//! bench harness, the server and the examples keep taking a `&Db`.

use crate::gc::GcReport;
use crate::shard::{Shard, ShardScan};
use crate::stats::{DbStats, SpaceBreakdown};
use crate::throttle::Throttle;
use crate::txn::{Coordinator, InFlight};
use crate::view::{ReadView, WriteOptions, WriteReceipt};
use crate::{EngineMode, Options};
use bytes::Bytes;
use scavenger_env::SpaceTracker;
use scavenger_lsm::WriteBatch;
use scavenger_util::ikey::ValueType;
use scavenger_util::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One entry produced by a range scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanEntry {
    /// User key.
    pub key: Vec<u8>,
    /// Value (resolved through the value store if separated).
    pub value: Bytes,
}

pub(crate) struct DbInner {
    /// The caller's options; `dir` is the root, `env` the root's
    /// [`UsageEnv`](scavenger_env::UsageEnv).
    pub(crate) opts: Options,
    pub(crate) shards: Vec<Shard>,
    /// The routing-hash seed (unused by a set of one).
    pub(crate) seed: u64,
    /// Two-phase-commit log for multi-shard batches; `None` for a plain
    /// store, which has nothing to coordinate.
    pub(crate) coord: Option<Coordinator>,
    /// The ledger of a set's root-level files (routing meta, coordinator
    /// log); `None` for a plain store, whose member's ledger is the
    /// root's.
    pub(crate) root_space: Option<Arc<SpaceTracker>>,
    /// The keys of every transaction and multi-member batch between
    /// registration and the end of its apply. Its lock — the transaction
    /// lock — covers only the wait for overlapping keys, a spanning
    /// transaction's validation and the registration, so commits with
    /// disjoint keys overlap their fsyncs and applies while overlapping
    /// ones serialize.
    pub(crate) in_flight: InFlight,
    /// Transactions that passed validation and committed.
    pub(crate) txn_commits: AtomicU64,
    /// Transactions rejected at commit time with [`Error::TxnConflict`].
    pub(crate) txn_conflicts: AtomicU64,
}

impl DbInner {
    /// The member `key` routes to — without hashing in a set of one.
    pub(crate) fn shard_of(&self, key: &[u8]) -> usize {
        match self.shards.len() {
            1 => 0,
            n => crate::shards::route(self.seed, key, n),
        }
    }

    /// The member every key routes to, or `None` when they span several
    /// (no key at all routes to member 0).
    pub(crate) fn owner<'k>(&self, mut keys: impl Iterator<Item = &'k [u8]>) -> Option<usize> {
        if self.shards.len() == 1 {
            return Some(0);
        }
        let first = keys.next().map_or(0, |k| self.shard_of(k));
        keys.all(|k| self.shard_of(k) == first).then_some(first)
    }

    /// Commit a batch that may span members: through 2PC when its keys
    /// land on several, else on the one member they land on (member 0
    /// for an empty batch).
    pub(crate) fn commit_split(
        &self,
        opts: &WriteOptions,
        batch: WriteBatch,
    ) -> Result<WriteReceipt> {
        let mut parts: Vec<WriteBatch> = self.shards.iter().map(|_| WriteBatch::new()).collect();
        for e in batch.entries() {
            let part = &mut parts[self.shard_of(&e.key)];
            match e.vtype {
                ValueType::Deletion => part.delete(&e.key),
                _ => part.put(&e.key, e.value.clone()),
            }
        }
        let mut parts: Vec<(usize, WriteBatch)> = parts
            .into_iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .collect();
        if parts.len() < 2 {
            let (i, part) = parts.pop().unwrap_or((0, batch));
            return self.shards[i].commit(opts, part, None);
        }
        let coord = self
            .coord
            .as_ref()
            .expect("a set of several has a coordinator");
        coord.commit(&self.shards, parts, opts)
    }
}

impl Drop for DbInner {
    /// Clean close: retire the coordinator log (best effort — after a
    /// simulated crash every handle is fenced), so the next open finds
    /// no prepare to judge.
    fn drop(&mut self) {
        if let Some(coord) = &self.coord {
            let _ = coord.retire(&self.shards);
        }
    }
}

/// A Scavenger database handle (cheaply cloneable): one [`Shard`] for a
/// plain store, N hash-partitioned ones for a sharded store, opened by
/// [`Db::open`].
#[derive(Clone)]
pub struct Db {
    pub(crate) inner: Arc<DbInner>,
}

impl Db {
    // ---------------- routing ----------------

    /// Number of members (1 for a plain store).
    pub fn num_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The routing-hash seed (persisted for a sharded store).
    pub fn route_seed(&self) -> u64 {
        self.inner.seed
    }

    /// The member `key` routes to — stable across reopen.
    pub fn shard_of(&self, key: impl AsRef<[u8]>) -> usize {
        self.inner.shard_of(key.as_ref())
    }

    /// Member `index`: the experiment accessors ([`Shard::lsm`],
    /// [`Shard::value_store`], [`Shard::run_gc_at`], …) live there.
    pub fn shard(&self, index: usize) -> &Shard {
        &self.inner.shards[index]
    }

    fn member(&self, key: &[u8]) -> &Shard {
        &self.inner.shards[self.inner.shard_of(key)]
    }

    /// The space throttle every member admits writes through (global
    /// limit + counters).
    pub fn throttle(&self) -> &Arc<Throttle> {
        &self.inner.shards[0].inner.throttle
    }

    // ---------------- writes ----------------

    /// Insert or overwrite a key (default [`WriteOptions`]).
    pub fn put(&self, key: impl AsRef<[u8]>, value: impl Into<Bytes>) -> Result<WriteReceipt> {
        self.put_with(&WriteOptions::default(), key, value)
    }

    /// Insert or overwrite a key with explicit options.
    pub fn put_with(
        &self,
        opts: &WriteOptions,
        key: impl AsRef<[u8]>,
        value: impl Into<Bytes>,
    ) -> Result<WriteReceipt> {
        let mut b = WriteBatch::new();
        b.put(key.as_ref(), value.into());
        self.write_with(opts, b)
    }

    /// Delete a key (default [`WriteOptions`]).
    pub fn delete(&self, key: impl AsRef<[u8]>) -> Result<WriteReceipt> {
        self.delete_with(&WriteOptions::default(), key)
    }

    /// Delete a key with explicit options.
    pub fn delete_with(&self, opts: &WriteOptions, key: impl AsRef<[u8]>) -> Result<WriteReceipt> {
        let mut b = WriteBatch::new();
        b.delete(key.as_ref());
        self.write_with(opts, b)
    }

    /// Apply a batch atomically (default [`WriteOptions`]).
    pub fn write(&self, batch: WriteBatch) -> Result<WriteReceipt> {
        self.write_with(&WriteOptions::default(), batch)
    }

    /// Apply a batch atomically with explicit options: `sync = false`
    /// skips the per-write WAL fsync, `disable_throttle = true` bypasses
    /// space-aware admission throttling. A batch that spans members
    /// first waits out any transaction or multi-member batch in flight
    /// on one of its keys — so two batches on the same keys land in the
    /// same order on every member.
    ///
    /// ```
    /// use scavenger::{DbShards, EngineMode, MemEnv, ShardedOptions, WriteBatch};
    ///
    /// let mut opts = ShardedOptions::new(MemEnv::shared(), "write-doc", EngineMode::Scavenger);
    /// opts.num_shards = 2;
    /// let db = DbShards::open(opts).unwrap();
    /// let mut batch = WriteBatch::new();
    /// batch.put("a", scavenger::Bytes::from(vec![1u8; 600]));
    /// batch.put("b", scavenger::Bytes::from_static(b"inline"));
    /// db.write(batch).unwrap(); // atomic even across shards
    /// assert!(db.delete(b"a").unwrap().synced);
    /// assert!(db.get("a").unwrap().is_none());
    /// ```
    ///
    /// # Atomicity
    ///
    /// A batch is atomic at every store size, crashes included. It
    /// routes by key: a batch whose keys all land on one member — every
    /// batch, on a plain store — commits there untouched, in one WAL
    /// record with zero extra I/O, while a batch spanning members goes
    /// through the set's two-phase commit coordinator — one fsynced
    /// `Prepare` record carrying the full redo payload, which is the
    /// batch's durable copy, then the per-shard sub-batch commits,
    /// unsynced. The coordinator log is retired only after a barrier has
    /// synced every shard's WAL, and recovery rolls every `Prepare` still
    /// in it forward, so a crash at any point surfaces the whole batch
    /// or none of it — and the whole of it once acknowledged.
    ///
    /// The price of that guarantee is that one fsync: a multi-shard
    /// batch pays it even under `sync = false` options (its receipt
    /// reports `synced = true`), and its receipt aggregates `seq` as
    /// the maximum across touched shards with `group_len` summed. A
    /// single-member batch keeps the requested sync behavior unchanged.
    /// Value references are engine-internal: a batch carrying one is
    /// refused with [`Error::InvalidArgument`] before anything is
    /// written.
    pub fn write_with(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<WriteReceipt> {
        let inner = &self.inner;
        if batch
            .entries()
            .iter()
            .any(|e| e.vtype == ValueType::ValueRef)
        {
            return Err(Error::invalid_argument(
                "value references are engine-internal and cannot be written through a handle",
            ));
        }
        if let Some(i) = inner.owner(batch.entries().iter().map(|e| &e.key[..])) {
            return inner.shards[i].commit(opts, batch, None);
        }
        let keys: Vec<&[u8]> = batch.entries().iter().map(|e| &e.key[..]).collect();
        let _in_flight = inner.in_flight.enter(&keys, || Ok(()))?;
        inner.commit_split(opts, batch)
    }

    // ---------------- reads ----------------

    /// Latest value of `key`, or `None` if absent/deleted: one lookup on
    /// the owning member, through a transient pinned view (see
    /// [`Shard::get`]).
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Bytes>> {
        let key = key.as_ref();
        self.member(key).get(key)
    }

    /// Take a pinned, registered [`ReadView`] at the latest state: one
    /// view per member, taken at this call. All reads through it are
    /// strictly consistent per member for its lifetime: writes,
    /// flushes, compactions, and GC committed after creation are
    /// invisible, and every version it can see stays resolvable.
    ///
    /// ```
    /// use scavenger::{Db, EngineMode, MemEnv, Options};
    ///
    /// let db = Db::open(Options::new(MemEnv::shared(), "view-demo", EngineMode::Scavenger)).unwrap();
    /// db.put(b"k", b"old".to_vec()).unwrap();
    /// let view = db.view();
    /// db.put(b"k", b"new".to_vec()).unwrap();
    /// // The view still reads its epoch; the latest read sees the update.
    /// assert_eq!(view.get(b"k").unwrap().unwrap().as_ref(), b"old");
    /// assert_eq!(db.get(b"k").unwrap().unwrap().as_ref(), b"new");
    /// ```
    pub fn view(&self) -> ReadView {
        ReadView {
            members: self.inner.shards.iter().map(Shard::view).collect(),
            db: self.clone(),
        }
    }

    /// Take a consistent snapshot: a [`ReadView`] that pins exactly what
    /// a [`view`](Db::view) pins and is counted in
    /// [`DbStats::live_snapshots`]. Dropping it unregisters every
    /// member's read point.
    pub fn snapshot(&self) -> ReadView {
        ReadView {
            members: self.inner.shards.iter().map(Shard::snapshot_view).collect(),
            db: self.clone(),
        }
    }

    /// Range scan over `[lo, hi)` (unbounded when `hi` is `None`),
    /// resolving separated values, through a transient pinned view (the
    /// iterator owns the pin).
    ///
    /// ```
    /// use scavenger::{Db, EngineMode, MemEnv, Options};
    ///
    /// let db = Db::open(Options::new(MemEnv::shared(), "scan-doc", EngineMode::Scavenger)).unwrap();
    /// db.put("a", vec![1u8; 600]).unwrap();
    /// let view = db.view(); // pinned: later writes stay invisible
    /// db.put("b", vec![2u8; 600]).unwrap();
    /// assert_eq!(view.scan(b"", None).unwrap().count(), 1);
    /// assert_eq!(db.scan(b"", None).unwrap().count(), 2);
    /// assert!(db.get(b"missing").unwrap().is_none());
    /// ```
    pub fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<DbScanIter> {
        self.view().scan(lo, hi)
    }

    // ---------------- maintenance ----------------

    /// Flush every member, then retire the 2PC coordinator log: every
    /// batch it vouches for is in the members' SSTs now.
    pub fn flush(&self) -> Result<()> {
        self.for_each_shard(Shard::flush)?;
        match &self.inner.coord {
            Some(coord) => coord.retire(&self.inner.shards),
            None => Ok(()),
        }
    }

    /// Compact every member until every level score is under 1. The
    /// coordinator log is retired first if it can be, so no prepare left
    /// over from earlier commits holds tombstones back from this
    /// compaction; if it cannot, they are merely kept a while longer.
    pub fn compact_all(&self) -> Result<()> {
        if let Some(coord) = &self.inner.coord {
            let _ = coord.retire(&self.inner.shards);
        }
        self.for_each_shard(Shard::compact_all).map(|_| ())
    }

    /// Run one GC job per member at
    /// [`GC_THRESHOLD`](crate::gc::GC_THRESHOLD); the [`GcReport`] holds
    /// each member's outcome, indexed by shard.
    ///
    /// ```
    /// use scavenger::{Db, EngineMode, MemEnv, Options};
    ///
    /// let db = Db::open(Options::new(MemEnv::shared(), "gc-doc", EngineMode::Scavenger)).unwrap();
    /// db.put("k", vec![3u8; 2048]).unwrap();
    /// db.flush().unwrap();
    /// db.compact_all().unwrap(); // exposes garbage
    /// let report = db.run_gc().unwrap(); // one outcome slot per shard
    /// assert_eq!(report.jobs(), report.outcomes.iter().flatten().count());
    /// assert!(db.stats().flushes >= 1);
    /// assert!(db.space().total() > 0);
    /// ```
    pub fn run_gc(&self) -> Result<GcReport> {
        Ok(GcReport {
            outcomes: self.for_each_shard(|s| s.run_gc_at(crate::gc::GC_THRESHOLD))?,
        })
    }

    /// Run GC on every member until no candidate crosses the threshold.
    /// Returns the total number of jobs.
    pub fn run_gc_until_clean(&self) -> Result<usize> {
        Ok(self
            .for_each_shard(Shard::run_gc_until_clean)?
            .into_iter()
            .sum())
    }

    /// Recover from read-only degraded mode after a permanent background
    /// failure: every member re-verifies (and if needed rewrites) its
    /// manifest, deletes orphan value files left behind by a crashed GC
    /// write stage, clears its stored background error, and re-enables
    /// writes. The first member whose verification fails aborts the
    /// sweep with its error, leaving it degraded.
    pub fn resume(&self) -> Result<()> {
        self.for_each_shard(Shard::resume).map(|_| ())
    }

    /// True while any member is in read-only degraded mode (writes to
    /// it fail fast with [`Error::ReadOnlyMode`]; see [`Db::resume`]).
    pub fn is_degraded(&self) -> bool {
        self.inner.shards.iter().any(Shard::is_degraded)
    }

    /// Run `f` over every member, fanning across up to
    /// [`gc_threads`](crate::Options::gc_threads) scoped workers
    /// ([`parallel_map_ordered`](crate::gc_exec::parallel_map_ordered));
    /// `gc_threads = 1` and a set of one degenerate to a sequential
    /// sweep. Results are returned in shard order; the first error wins.
    fn for_each_shard<R, F>(&self, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(&Shard) -> Result<R> + Sync,
    {
        crate::gc_exec::parallel_map_ordered(&self.inner.shards, self.inner.opts.gc_threads, f)
    }

    // ---------------- introspection ----------------

    /// The options the store was opened with (`dir` is its root).
    pub fn options(&self) -> &Options {
        &self.inner.opts
    }

    /// The engine mode.
    pub fn mode(&self) -> EngineMode {
        self.inner.opts.mode
    }

    /// Per-member statistics, indexed by shard (each member counts its
    /// own I/O and files through its directory's
    /// [`UsageEnv`](scavenger_env::UsageEnv)).
    pub fn shard_stats(&self) -> Vec<DbStats> {
        self.inner.shards.iter().map(Shard::stats).collect()
    }

    /// Aggregate statistics: every member's snapshot folded field by
    /// field (a set of one reports its member's bit for bit), then the state that lives at the set level — transaction
    /// counters, the 2PC coordinator, the root-level files — added on
    /// top.
    pub fn stats(&self) -> DbStats {
        let inner = &self.inner;
        let mut s = DbStats::merge(&self.shard_stats());
        s.space.other_bytes += inner.root_space.as_ref().map_or(0, |t| t.total());
        s.txn_commits += inner.txn_commits.load(Ordering::Relaxed);
        s.txn_conflicts += inner.txn_conflicts.load(Ordering::Relaxed);
        if let Some(coord) = &inner.coord {
            s.txn_2pc_commits += coord.commits.load(Ordering::Relaxed);
            s.txn_2pc_rollforwards += coord.rollforwards.load(Ordering::Relaxed);
        }
        s
    }

    /// On-disk space breakdown across every member (plus, for a sharded
    /// store, the root-level routing meta and coordinator log under
    /// `other_bytes`).
    pub fn space(&self) -> SpaceBreakdown {
        let mut total = SpaceBreakdown::default();
        for s in &self.inner.shards {
            total.accumulate(&s.space());
        }
        total.other_bytes += self.inner.root_space.as_ref().map_or(0, |t| t.total());
        total
    }
}

/// Scan iterator resolving separated values: a k-way ordered merge over
/// one scan per member, each carrying the pinned view it was opened
/// from, so both index entries and their separated values stay
/// resolvable for the whole scan.
///
/// Hash partitioning makes the member streams *disjoint* (a user key
/// lives on exactly one member), so merging is a pure smallest-head pick
/// — ties (impossible by construction) go to the lowest shard index.
/// A set of one has nothing to merge: its scan is the member's, read for
/// read.
///
/// # Value look-ahead
///
/// Rows are resolved a batch at a time per member, not one dependent
/// random read per row: a member pulls its next index entries,
/// [locates](crate::vstore::ValueStore::locate) every separated value,
/// fetches them per value file with neighbouring records coalesced into
/// one I/O ([`ValueStore::fetch`](crate::vstore::ValueStore::fetch)), and
/// yields the rows in key order. How far it looks ahead is private to
/// the iterator:
///
/// * plain [`Iterator::next`] climbs a ramp — batches of 1, 2, 4 … rows
///   up to [`SCAN_BATCH_ROWS`](crate::shard::SCAN_BATCH_ROWS) rows or
///   [`SCAN_BATCH_BYTES`](crate::shard::SCAN_BATCH_BYTES) of separated
///   values — so a scan abandoned after a few rows resolved at most
///   about as many again;
/// * [`collect_n(limit)`](DbScanIter::collect_n) resolves exactly the
///   rows it returns on a set of one (in chunks of at most
///   `SCAN_BATCH_ROWS`), and at most `limit` rows per member otherwise.
///
/// # Errors
///
/// Implements [`Iterator`] over `Result<ScanEntry>`, so the whole
/// adapter toolbox applies (`take`, `map`, `collect::<Result<Vec<_>>>`).
/// Every row resolved before a failing one is yielded first; then the
/// error, once; after that the iterator is *fused* and every `next`
/// returns `None` — a scan cannot resume past a failed resolve. (When a
/// batch fails, its rows are re-resolved one by one to find that
/// prefix; a member's error surfaces when the merge next needs a row
/// from that member.) [`next_entry`](DbScanIter::next_entry) is a thin
/// wrapper over the `Iterator` impl.
pub struct DbScanIter {
    members: Vec<ShardScan>,
    /// Each member's smallest row not yet handed out.
    heads: Vec<Option<ScanEntry>>,
    /// Members whose head the next pull must fetch first: every member
    /// at the start, then the one handed out last — so the merge
    /// resolves nothing past the last entry it yields, and a failure
    /// surfaces *after* that entry instead of replacing it.
    refill: Vec<usize>,
    done: bool,
}

impl DbScanIter {
    pub(crate) fn new(members: Vec<ShardScan>) -> DbScanIter {
        DbScanIter {
            heads: members.iter().map(|_| None).collect(),
            refill: (0..members.len()).collect(),
            members,
            done: false,
        }
    }

    /// Refill the heads consumed since the previous pull, then pick and
    /// yield the smallest head.
    fn merge_next(&mut self) -> Result<Option<ScanEntry>> {
        while let Some(i) = self.refill.pop() {
            self.heads[i] = self.members[i].next_entry()?;
        }
        let heads = &self.heads;
        let min = (0..heads.len())
            .filter(|&i| heads[i].is_some())
            .min_by(|&a, &b| {
                heads[a]
                    .as_ref()
                    .unwrap()
                    .key
                    .cmp(&heads[b].as_ref().unwrap().key)
            });
        Ok(min.and_then(|i| {
            self.refill.push(i);
            self.heads[i].take()
        }))
    }

    /// Next entry, or `None` at the end of the range (thin wrapper over
    /// the [`Iterator`] impl).
    pub fn next_entry(&mut self) -> Result<Option<ScanEntry>> {
        self.next().transpose()
    }

    /// Collect up to `limit` entries. Unlike `take(limit)` this tells the
    /// iterator how many rows are wanted, so their values are fetched in
    /// coalesced batches and **no value beyond the returned rows is
    /// read** on a set of one; on a set of several no member resolves
    /// more than `limit` rows. An error drops the rows collected so far,
    /// like `collect` into a `Result`; one that lies beyond the
    /// `limit`-th row waits for the next pull.
    pub fn collect_n(&mut self, limit: usize) -> Result<Vec<ScanEntry>> {
        if let [only] = &mut self.members[..] {
            return only.collect_n(limit);
        }
        for it in &mut self.members {
            it.limit_lookahead(Some(limit));
        }
        let out = self.by_ref().take(limit).collect();
        for it in &mut self.members {
            it.limit_lookahead(None);
        }
        out
    }
}

impl Iterator for DbScanIter {
    type Item = Result<ScanEntry>;

    fn next(&mut self) -> Option<Result<ScanEntry>> {
        if let [only] = &mut self.members[..] {
            return only.next();
        }
        if self.done {
            return None;
        }
        let pulled = self.merge_next();
        scavenger_util::iter::fuse(&mut self.done, pulled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::GC_THRESHOLD;
    use crate::Transactional;
    use scavenger_env::MemEnv;

    fn small_opts(mode: EngineMode) -> Options {
        let mut o = Options::new(MemEnv::shared(), "db", mode);
        o.memtable_size = 8 * 1024;
        o.vsst_target_size = 32 * 1024;
        o.base_level_bytes = 64 * 1024;
        o.ksst_target_size = 16 * 1024;
        o.block_cache_bytes = 256 * 1024;
        o
    }

    fn value(i: usize, len: usize) -> Vec<u8> {
        let mut v = vec![(i % 251) as u8; len];
        v[0] = (i >> 8) as u8;
        v
    }

    #[test]
    fn gc_validate_file_without_separation_is_invalid_argument() {
        let db = Db::open(small_opts(EngineMode::Rocks)).unwrap();
        let err = db.shard(0).gc_validate_file(1).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err:?}");
    }

    #[test]
    fn roundtrip_small_and_large_all_modes() {
        for mode in EngineMode::ALL {
            let db = Db::open(small_opts(mode)).unwrap();
            // Small values stay inline; large get separated (except Rocks).
            for i in 0..50 {
                db.put(format!("small{i:03}"), value(i, 100)).unwrap();
                db.put(format!("large{i:03}"), value(i, 2048)).unwrap();
            }
            db.flush().unwrap();
            for i in 0..50 {
                assert_eq!(
                    db.get(format!("small{i:03}")).unwrap().unwrap(),
                    Bytes::from(value(i, 100)),
                    "{mode:?} small{i}"
                );
                assert_eq!(
                    db.get(format!("large{i:03}")).unwrap().unwrap(),
                    Bytes::from(value(i, 2048)),
                    "{mode:?} large{i}"
                );
            }
            assert!(db.get("absent").unwrap().is_none());
            // Separated modes must have created value files.
            let has_vfiles = !db.shard(0).value_store().all_files().is_empty();
            assert_eq!(has_vfiles, mode != EngineMode::Rocks, "{mode:?}");
        }
    }

    #[test]
    fn deletes_and_overwrites_resolve_correctly() {
        for mode in EngineMode::ALL {
            let db = Db::open(small_opts(mode)).unwrap();
            db.put("k", value(1, 4096)).unwrap();
            db.put("k", value(2, 4096)).unwrap();
            db.flush().unwrap();
            assert_eq!(db.get("k").unwrap().unwrap(), Bytes::from(value(2, 4096)));
            db.delete("k").unwrap();
            assert!(db.get("k").unwrap().is_none(), "{mode:?}");
            db.flush().unwrap();
            assert!(db.get("k").unwrap().is_none(), "{mode:?} after flush");
        }
    }

    #[test]
    fn scan_resolves_separated_values_in_order() {
        for mode in [EngineMode::Scavenger, EngineMode::Terark, EngineMode::Titan] {
            let db = Db::open(small_opts(mode)).unwrap();
            for i in 0..40 {
                db.put(format!("key{i:03}"), value(i, 1500)).unwrap();
            }
            db.flush().unwrap();
            let mut it = db.scan(b"key010", Some(b"key020")).unwrap();
            let entries = it.collect_n(usize::MAX).unwrap();
            assert_eq!(entries.len(), 10, "{mode:?}");
            for (j, e) in entries.iter().enumerate() {
                assert_eq!(e.key, format!("key{:03}", j + 10).into_bytes());
                assert_eq!(e.value, Bytes::from(value(j + 10, 1500)));
            }
        }
    }

    #[test]
    fn updates_generate_garbage_and_gc_reclaims() {
        for mode in [EngineMode::Scavenger, EngineMode::Terark] {
            let mut o = small_opts(mode);
            o.auto_gc = false; // drive GC manually
            let db = Db::open(o).unwrap();
            // Load then update everything several times.
            for round in 0..4 {
                for i in 0..60 {
                    db.put(format!("key{i:03}"), value(round * 100 + i, 2048))
                        .unwrap();
                }
                db.flush().unwrap();
            }
            db.compact_all().unwrap();
            let before = db.stats();
            assert!(
                before.exposed_garbage_bytes > 0,
                "{mode:?}: compaction must expose garbage"
            );
            let jobs = db.run_gc_until_clean().unwrap();
            assert!(jobs > 0, "{mode:?}: GC should run");
            let after = db.stats();
            assert!(
                after.space.value_bytes < before.space.value_bytes,
                "{mode:?}: GC must shrink the value store ({} -> {})",
                before.space.value_bytes,
                after.space.value_bytes
            );
            // All data still readable after GC (refs resolve through
            // inheritance).
            for i in 0..60 {
                assert_eq!(
                    db.get(format!("key{i:03}")).unwrap().unwrap(),
                    Bytes::from(value(300 + i, 2048)),
                    "{mode:?} key{i} after GC"
                );
            }
        }
    }

    #[test]
    fn titan_gc_rewrites_index_entries() {
        let mut o = small_opts(EngineMode::Titan);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        for round in 0..4 {
            for i in 0..40 {
                db.put(format!("key{i:03}"), value(round * 64 + i, 2048))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();
        let jobs = db.run_gc_until_clean().unwrap();
        assert!(jobs > 0);
        let gc = db.stats().gc;
        assert!(gc.write_index_ns > 0, "Titan pays the Write-Index step");
        for i in 0..40 {
            assert_eq!(
                db.get(format!("key{i:03}")).unwrap().unwrap(),
                Bytes::from(value(192 + i, 2048))
            );
        }
    }

    #[test]
    fn blobdb_reclaims_only_exhausted_files() {
        let mut o = small_opts(EngineMode::BlobDb);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        for round in 0..6 {
            for i in 0..40 {
                db.put(format!("key{i:03}"), value(round * 64 + i, 2048))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        // Standalone GC does nothing in BlobDB mode.
        assert!(!db.run_gc().unwrap().ran());
        db.compact_all().unwrap();
        for i in 0..40 {
            assert_eq!(
                db.get(format!("key{i:03}")).unwrap().unwrap(),
                Bytes::from(value(320 + i, 2048))
            );
        }
    }

    #[test]
    fn scavenger_gc_does_lazy_read() {
        let mut o = small_opts(EngineMode::Scavenger);
        o.auto_gc = false;
        // One ~200 KiB value file per round: a file shorter than the
        // 16 KiB tail prefetch is read whole by its open, and would say
        // nothing about Lazy Read.
        o.memtable_size = 1 << 20;
        o.vsst_target_size = 256 * 1024;
        let db = Db::open(o).unwrap();
        for round in 0..4 {
            for i in 0..50 {
                db.put(format!("key{i:03}"), value(round + i, 4096))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();

        let io_before = db.options().env.io_stats().snapshot();
        let outcome = db.shard(0).run_gc_at(GC_THRESHOLD).unwrap();
        let io_after = db.options().env.io_stats().snapshot();
        let out = outcome.expect("three dead files to collect");
        assert!(out.files_collected > 0);
        let d = io_after.delta(&io_before);
        let gc_read = d.class(scavenger_env::IoClass::GcRead).read_bytes;
        // Lazy read: GC read bytes must be far below the bytes of the
        // collected files (which are mostly garbage values we skip).
        assert!(gc_read > 0);
        assert!(
            gc_read * 4 < out.bytes_reclaimed + out.records_rewritten * 4096,
            "gc_read {gc_read} should not re-read entire files"
        );
    }

    #[test]
    fn space_limit_throttles_and_reclaims() {
        let mut o = small_opts(EngineMode::Scavenger);
        o.auto_gc = false; // force the throttle to do the reclamation
        o.space_limit = Some(600 * 1024); // ~600 KiB quota
        let db = Db::open(o).unwrap();
        // Write ~1.5 MiB of updates over a small key set: garbage galore.
        for round in 0..16 {
            for i in 0..48 {
                db.put(format!("key{i:02}"), value(round + i, 2048))
                    .unwrap();
            }
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert!(stats.throttle_stalls > 0, "throttle must have activated");
        // All data remains correct under throttling.
        for i in 0..48 {
            assert_eq!(
                db.get(format!("key{i:02}")).unwrap().unwrap(),
                Bytes::from(value(15 + i, 2048))
            );
        }
        // Space should be near the quota (allow transient overshoot of one
        // memtable + one vSST).
        let total = db.space().total();
        assert!(
            total < (600 + 512) * 1024,
            "space {total} should be pulled back toward the 600 KiB quota"
        );
    }

    #[test]
    fn stats_report_space_breakdown() {
        let db = Db::open(small_opts(EngineMode::Scavenger)).unwrap();
        for i in 0..80 {
            db.put(format!("key{i:03}"), value(i, 3000)).unwrap();
        }
        db.flush().unwrap();
        let s = db.stats();
        assert!(s.space.ksst_bytes > 0, "index files exist");
        assert!(s.space.value_bytes > 0, "value files exist");
        assert!(s.space.manifest_bytes > 0);
        assert!(s.space.total() >= s.space.ksst_bytes + s.space.value_bytes);
        assert!(s.index_space_amp >= 1.0);
        assert!(s.value_files > 0);
    }

    #[test]
    fn recovery_restores_separated_values() {
        let env = MemEnv::shared();
        for mode in [EngineMode::Scavenger, EngineMode::Terark, EngineMode::Titan] {
            let dir = format!("db-{mode:?}");
            {
                let mut o = small_opts(mode);
                o.env = env.clone();
                o.dir = dir.clone();
                let db = Db::open(o).unwrap();
                for i in 0..60 {
                    db.put(format!("key{i:03}"), value(i, 2048)).unwrap();
                }
                db.flush().unwrap();
                // A few unflushed writes live only in the WAL.
                for i in 0..10 {
                    db.put(format!("fresh{i:02}"), value(i, 2048)).unwrap();
                }
            }
            {
                let mut o = small_opts(mode);
                o.env = env.clone();
                o.dir = dir.clone();
                let db = Db::open(o).unwrap();
                for i in 0..60 {
                    assert_eq!(
                        db.get(format!("key{i:03}")).unwrap().unwrap(),
                        Bytes::from(value(i, 2048)),
                        "{mode:?} key{i}"
                    );
                }
                for i in 0..10 {
                    assert_eq!(
                        db.get(format!("fresh{i:02}")).unwrap().unwrap(),
                        Bytes::from(value(i, 2048)),
                        "{mode:?} fresh{i}"
                    );
                }
            }
        }
    }

    #[test]
    fn recovery_after_gc_preserves_inheritance() {
        let env = MemEnv::shared();
        {
            let mut o = small_opts(EngineMode::Scavenger);
            o.env = env.clone();
            o.auto_gc = false;
            let db = Db::open(o).unwrap();
            for round in 0..4 {
                for i in 0..50 {
                    db.put(format!("key{i:03}"), value(round + i, 2048))
                        .unwrap();
                }
                db.flush().unwrap();
            }
            db.compact_all().unwrap();
            db.run_gc_until_clean().unwrap();
        }
        {
            let mut o = small_opts(EngineMode::Scavenger);
            o.env = env.clone();
            let db = Db::open(o).unwrap();
            for i in 0..50 {
                assert_eq!(
                    db.get(format!("key{i:03}")).unwrap().unwrap(),
                    Bytes::from(value(3 + i, 2048)),
                    "key{i} readable after GC + reopen"
                );
            }
        }
    }

    #[test]
    fn snapshot_survives_gc_in_no_writeback_modes() {
        let mut o = small_opts(EngineMode::Scavenger);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        db.put("k", value(1, 4096)).unwrap();
        db.flush().unwrap();
        let snap = db.snapshot();
        // Overwrite enough to make the old vSST collectible.
        for round in 0..4 {
            db.put("k", value(100 + round, 4096)).unwrap();
            for i in 0..30 {
                db.put(format!("fill{i:02}"), value(i, 2048)).unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();
        db.run_gc_until_clean().unwrap();
        // The snapshot's version was rewritten by GC but must remain
        // reachable through inheritance.
        assert_eq!(snap.get("k").unwrap().unwrap(), Bytes::from(value(1, 4096)));
        assert_eq!(db.get("k").unwrap().unwrap(), Bytes::from(value(103, 4096)));
        drop(snap);
    }

    #[test]
    fn hot_cold_separation_marks_files() {
        let mut o = small_opts(EngineMode::Scavenger);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        // Hot keys: overwritten repeatedly; cold keys written once.
        for i in 0..20 {
            db.put(format!("cold{i:02}"), value(i, 2048)).unwrap();
        }
        for round in 0..6 {
            for i in 0..8 {
                db.put(format!("hot{i:02}"), value(round * 10 + i, 2048))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();
        db.flush().unwrap();
        // After drops have been observed, hot keys should be in the cache.
        let hot_in_cache = (0..8)
            .filter(|i| {
                db.shard(0)
                    .drop_cache()
                    .contains(format!("hot{i:02}").as_bytes())
            })
            .count();
        assert!(hot_in_cache >= 6, "hot keys detected: {hot_in_cache}/8");
        // And subsequent flushes should produce hot-marked files.
        for round in 0..2 {
            for i in 0..8 {
                db.put(format!("hot{i:02}"), value(round * 7 + i, 2048))
                    .unwrap();
            }
        }
        db.flush().unwrap();
        let any_hot = db.shard(0).value_store().all_files().iter().any(|m| m.hot);
        assert!(any_hot, "hot vSSTs should exist");
    }

    #[test]
    fn rocks_mode_never_creates_value_files() {
        let db = Db::open(small_opts(EngineMode::Rocks)).unwrap();
        for i in 0..100 {
            db.put(format!("key{i:03}"), value(i, 8192)).unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        assert!(db.shard(0).value_store().all_files().is_empty());
        assert_eq!(db.space().value_bytes, 0);
        assert!(!db.run_gc().unwrap().ran());
        for i in (0..100).step_by(7) {
            assert_eq!(
                db.get(format!("key{i:03}")).unwrap().unwrap(),
                Bytes::from(value(i, 8192))
            );
        }
    }

    /// Overwrite `keys` keys `rounds` times through `Db::write`; returns
    /// the pacing credits those writes were granted.
    fn churn(db: &Db, prefix: &str, keys: usize, rounds: usize) -> i64 {
        let mut granted = 0i64;
        for round in 0..rounds {
            for i in 0..keys {
                let mut b = WriteBatch::new();
                b.put(format!("{prefix}{i:03}"), value(round + i, 2048));
                granted += (b.byte_size() as f64 * db.options().gc_bandwidth_factor) as i64;
                db.write(b).unwrap();
            }
        }
        granted
    }

    /// Credits granted minus credits left: what paced GC charged.
    fn charged(db: &Db, granted: i64) -> u64 {
        assert!(granted < 64 * 1024 * 1024, "the credit cap must not bind");
        (granted - *db.shard(0).inner.gc_credits.lock()) as u64
    }

    /// Two engines on one env: a paced job is charged what it reports,
    /// so the neighbour's GC traffic — which the env-wide `GcRead` /
    /// `GcWrite` counters cannot tell from its own — costs it nothing.
    #[test]
    fn paced_gc_is_not_charged_for_a_neighbours_gc() {
        let env = MemEnv::shared();
        let open = |dir: &str, auto_gc: bool| {
            let mut o = small_opts(EngineMode::Scavenger);
            o.env = env.clone();
            o.dir = dir.to_string();
            o.auto_gc = auto_gc;
            Db::open(o).unwrap()
        };
        let (noisy, paced) = (open("noisy", false), open("paced", true));
        let noisy_granted = churn(&noisy, "key", 64, 24);
        noisy.compact_all().unwrap();
        assert!(!noisy
            .shard(0)
            .value_store()
            .gc_candidates(GC_THRESHOLD)
            .is_empty());

        let start = std::sync::Barrier::new(2);
        let granted = std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                assert!(noisy.run_gc_until_clean().unwrap() > 0);
            });
            start.wait();
            churn(&paced, "key", 64, 24)
        });
        let jobs = paced.stats().gc;
        assert!(jobs.runs > 0, "the paced engine must have run GC");
        assert_eq!(charged(&paced, granted), jobs.requested_bytes);
        assert_eq!(charged(&noisy, noisy_granted), 0, "manual GC is not paced");
    }

    /// Four writers pacing one engine: a thread that waited for `gc_lock`
    /// while another ran a job must not pay for that job too — the total
    /// charge is the sum of the jobs' own `io_bytes`.
    #[test]
    fn concurrent_writers_charge_each_gc_job_once() {
        let db = Db::open(small_opts(EngineMode::Scavenger)).unwrap();
        let start = std::sync::Barrier::new(4);
        let granted: i64 = std::thread::scope(|s| {
            let writers: Vec<_> = (0..4)
                .map(|t| {
                    let (db, start) = (&db, &start);
                    s.spawn(move || {
                        start.wait();
                        churn(db, &format!("w{t}-"), 32, 24)
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let jobs = db.stats().gc;
        assert!(jobs.runs > 4, "paced GC must have run: {}", jobs.runs);
        assert_eq!(charged(&db, granted), jobs.requested_bytes);
    }

    /// A transaction commits through the same member primitive as a
    /// plain write, so it earns the same GC credit: a store that only
    /// ever commits transactions still runs paced GC.
    #[test]
    fn transactions_earn_gc_credit() {
        let db = Db::open(small_opts(EngineMode::Scavenger)).unwrap();
        assert!(db.options().auto_gc && db.options().space_limit.is_none());
        for round in 0..24 {
            for i in 0..64 {
                let mut txn = db.begin();
                txn.put(format!("key{i:03}"), value(round + i, 2048));
                txn.commit().unwrap();
            }
        }
        let s = db.stats();
        assert_eq!(s.txn_commits, 24 * 64);
        assert!(s.gc.runs > 0, "paced GC never ran on a txn-only store");
    }

    /// Compile-time Send + Sync assertions on every public surface: the
    /// handle, pinned surfaces, and iterators all cross threads (the
    /// maintenance fan-out, the server and the bench harness rely on it).
    #[test]
    fn surfaces_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Db>();
        assert_send_sync::<ReadView>();
        assert_send_sync::<GcReport>();
        assert_send::<DbScanIter>();
        assert_send::<crate::Transaction>();
        assert_send::<crate::DbChangeStream>();
    }

    /// One body, a store of one and of four: the full
    /// write/read/maintain cycle through `&Db`.
    #[test]
    fn cycle_runs_on_both_sizes() {
        fn cycle(db: &Db) {
            for i in 0..30u32 {
                db.put(format!("key{i:02}"), vec![i as u8; 1024]).unwrap();
            }
            db.flush().unwrap();
            assert_eq!(
                db.get(b"key07").unwrap().unwrap(),
                Bytes::from(vec![7u8; 1024])
            );
            let view = db.view();
            db.delete(b"key07").unwrap();
            assert!(db.get(b"key07").unwrap().is_none());
            assert_eq!(view.get(b"key07").unwrap().unwrap().len(), 1024);
            let collected: Vec<ScanEntry> = db
                .scan(b"key00", Some(b"key05"))
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
            assert_eq!(collected.len(), 5);
            db.compact_all().unwrap();
            let _ = db.run_gc().unwrap();
            assert!(db.stats().flushes >= 1);
            assert!(db.space().total() > 0);
        }
        let single = Db::open(Options::new(
            MemEnv::shared(),
            "eng-single",
            EngineMode::Scavenger,
        ))
        .unwrap();
        cycle(&single);
        let sharded = Db::open(crate::ShardedOptions::new(
            MemEnv::shared(),
            "eng-sharded",
            EngineMode::Scavenger,
        ))
        .unwrap();
        assert_eq!(sharded.num_shards(), 4);
        cycle(&sharded);
    }
}
