//! One member of a [`Db`](crate::Db): the index LSM-tree, value store,
//! GC runner and throttle wiring of one key range, and the one
//! member-level commit every write goes through.
//!
//! A plain store is a set of one member living at `dir` itself; a
//! sharded store has one member per `dir/shard-NNN`. Either way
//! [`Db::shard`](crate::Db::shard) reaches a member, which is where the
//! experiment accessors live ([`lsm`](Shard::lsm),
//! [`value_store`](Shard::value_store), [`run_gc_at`](Shard::run_gc_at),
//! …).

use crate::db::ScanEntry;
use crate::dropcache::{DropCache, DROPCACHE_KEYS};
use crate::gc::{GcOutcome, GcRunner, GC_THRESHOLD};
use crate::hook::{EngineHook, HookConfig};
use crate::options::{GcScheme, Options};
use crate::stats::{DbStats, GcStats, SpaceBreakdown};
use crate::throttle::{Throttle, MAX_THROTTLE_ROUNDS};
use crate::view::{WriteOptions, WriteReceipt};
use crate::vstore::ValueStore;
use bytes::Bytes;
use parking_lot::Mutex;
use scavenger_env::SpaceTracker;
use scavenger_lsm::filename::{parse_path, FileKind};
use scavenger_lsm::{Lsm, LsmReadResult, LsmView, Precondition, WriteBatch};
use scavenger_table::btable::BlockCache;
use scavenger_table::cache::StoreCache;
use scavenger_util::ikey::{SeqNo, ValueRef, ValueType};
use scavenger_util::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The footprint the §III-D throttle compares against the limit: the
/// member's own for a set of one, the sum over every member otherwise.
pub(crate) type SpaceUsageFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// What the set hands every member at open: its throttle and usage
/// source, so the §III-D limit is one budget; its block cache, so one
/// memory budget serves every member; and whether a 2PC coordinator may
/// need the members' tombstones at recovery.
pub(crate) struct Wiring {
    pub(crate) throttle: Arc<Throttle>,
    pub(crate) usage: SpaceUsageFn,
    pub(crate) cache: Arc<BlockCache>,
    /// Whether other stores read through `cache` too (the caller handed
    /// it in, or the set has several members), so the member's
    /// [`StoreCache`] takes a namespace of its own.
    pub(crate) shared_cache: bool,
    pub(crate) coordinated: bool,
}

pub(crate) struct ShardInner {
    opts: Options,
    lsm: Lsm,
    vstore: Arc<ValueStore>,
    dropcache: Arc<DropCache>,
    gc: Option<GcRunner>,
    gc_stats: Arc<GcStats>,
    /// The set's throttle: one limit and one set of counters.
    pub(crate) throttle: Arc<Throttle>,
    usage: SpaceUsageFn,
    /// The ledger of this member's directory: every file's size, kept
    /// current by the member's env on each append.
    space: Arc<SpaceTracker>,
    /// Serializes GC jobs and value-file reaping.
    gc_lock: Mutex<()>,
    /// Byte credits for paced auto-GC (see `Options::gc_bandwidth_factor`).
    pub(crate) gc_credits: Mutex<i64>,
    /// The member's handle on the set's one block cache, which its
    /// index tree and value store read through.
    pub(crate) cache: StoreCache,
}

impl ShardInner {
    /// Resolve an index read result into the user value, fetching
    /// separated values through the value store and the block cache.
    fn resolve_read(&self, key: &[u8], r: LsmReadResult) -> Result<Option<Bytes>> {
        match r {
            LsmReadResult::NotFound | LsmReadResult::Deleted => Ok(None),
            LsmReadResult::Found {
                vtype: ValueType::Value,
                value,
                ..
            } => Ok(Some(value)),
            LsmReadResult::Found {
                vtype: ValueType::ValueRef,
                seq,
                value,
            } => {
                let vref = ValueRef::decode(&value)?;
                Ok(Some(self.vstore.read_ref(key, seq, &vref)?))
            }
            LsmReadResult::Found {
                vtype: ValueType::Deletion,
                ..
            } => Err(Error::internal(
                "tombstone escaped the read path".to_string(),
            )),
        }
    }
}

/// One member of a [`Db`](crate::Db) (cheaply cloneable).
#[derive(Clone)]
pub struct Shard {
    pub(crate) inner: Arc<ShardInner>,
}

impl Shard {
    /// Open (or recover) the member at `opts.dir`, whose `opts.env` is
    /// the directory's [`UsageEnv`](scavenger_env::UsageEnv) keeping
    /// `space`.
    pub(crate) fn open(opts: Options, space: Arc<SpaceTracker>, wiring: &Wiring) -> Result<Shard> {
        let cache = StoreCache::new(wiring.cache.clone(), wiring.shared_cache);
        let vstore = Arc::new(
            ValueStore::new(opts.env.clone(), opts.dir.clone(), cache.clone())
                .retiring_exhausted(opts.features.gc == GcScheme::CompactionTriggered),
        );
        let dropcache = Arc::new(DropCache::new(DROPCACHE_KEYS));
        let gc_stats = Arc::new(GcStats::default());

        let mut lsm_opts = opts.lsm_options();
        lsm_opts.cache = Some(cache.clone());
        if wiring.coordinated {
            // A coordinated member elides no tombstone — not even in the
            // WAL-recovery flush inside `Lsm::open` — until the set's 2PC
            // roll-forward has judged every prepare against this shard.
            lsm_opts.tombstone_hold = 0;
        }
        if opts.features.separate {
            lsm_opts.value_hook = Some(Arc::new(EngineHook::new(
                HookConfig {
                    features: opts.features,
                    vsst_target: opts.vsst_target_size,
                },
                vstore.clone(),
                dropcache.clone(),
                gc_stats.clone(),
            )));
        }

        // `Lsm::open` hands the hook the MANIFEST's value history; the
        // WAL-recovery flush then commits through it like any other.
        let (lsm, _) = Lsm::open(lsm_opts)?;
        // The backstop after a crash: finished value files no edit named.
        if opts.features.separate {
            vstore.delete_orphans()?;
        }

        let gc = if opts.features.separate {
            Some(GcRunner::new(
                opts.features,
                crate::gc::GcConfig {
                    vsst_target: opts.vsst_target_size,
                    batch_files: opts.gc_batch_files,
                    threads: opts.gc_threads,
                },
                vstore.clone(),
                dropcache.clone(),
                gc_stats.clone(),
            ))
        } else {
            None
        };

        Ok(Shard {
            inner: Arc::new(ShardInner {
                opts,
                lsm,
                vstore,
                dropcache,
                gc,
                gc_stats,
                throttle: wiring.throttle.clone(),
                usage: wiring.usage.clone(),
                space,
                gc_lock: Mutex::new(()),
                gc_credits: Mutex::new(0),
                cache,
            }),
        })
    }

    // ---------------- writes ----------------

    /// The one member-level commit, shared by plain writes, transactions
    /// and 2PC applies: throttle admission, the LSM's group-commit queue —
    /// whose leader checks a transaction's reads against the tree and the
    /// writes queued ahead of it — the batch's GC credit, then post-write
    /// maintenance. Once the batch has landed its receipt is returned: a
    /// maintenance failure degrades the member (the next write fails
    /// fast with [`Error::ReadOnlyMode`]) rather than failing this write.
    pub(crate) fn commit(
        &self,
        opts: &WriteOptions,
        batch: WriteBatch,
        check: Option<Precondition>,
    ) -> Result<WriteReceipt> {
        let inner = &self.inner;
        if !opts.disable_throttle {
            self.enforce_space_limit()?;
        }
        let credit = (batch.byte_size() as f64 * inner.opts.gc_bandwidth_factor) as i64;
        let receipt = inner.lsm.write_checked(opts, batch, check)?;
        {
            let mut c = inner.gc_credits.lock();
            // Cap the accumulator so an idle period cannot bank unbounded
            // GC bandwidth.
            *c = (*c + credit).min(64 * 1024 * 1024);
        }
        let _ = self.post_write_maintenance();
        Ok(receipt)
    }

    /// Bytes held only because something pins them: WAL history
    /// retained for registered change-stream subscribers, plus retired
    /// value files a live read point holds on disk (the value store's
    /// retirement queue). Reclaiming cannot free these — the
    /// throttle discounts them when deciding whether stalling writers can
    /// still help.
    pub fn pinned_bytes(&self) -> u64 {
        let inner = &self.inner;
        inner.lsm.change_log().pinned_bytes() + inner.vstore.pinned_bytes(&inner.lsm)
    }

    /// Space-aware throttling (paper §III-D): before admitting a write,
    /// reclaim aggressively while over the limit.
    fn enforce_space_limit(&self) -> Result<()> {
        let inner = &self.inner;
        if inner.throttle.limit().is_none() {
            return Ok(());
        }
        if !inner.throttle.over_limit((inner.usage)()) {
            return Ok(());
        }
        // Discount pinned bytes (CDC-retained WAL history, retired value
        // files a reader holds): reclamation cannot touch them, so when
        // the *reclaimable* footprint is under the limit, stalling
        // writers on GC rounds would burn I/O for nothing.
        let reclaimable = || (inner.usage)().saturating_sub(self.pinned_bytes());
        if !inner.throttle.over_limit(reclaimable()) {
            return Ok(());
        }
        inner.throttle.note_activation();
        let aggressive = Throttle::aggressive_threshold(GC_THRESHOLD);
        for _ in 0..MAX_THROTTLE_ROUNDS {
            if !inner.throttle.over_limit(reclaimable()) {
                return Ok(());
            }
            let mut progressed = false;
            if let Some(gc) = &inner.gc {
                let _g = inner.gc_lock.lock();
                if gc.run_once(&inner.lsm, aggressive)?.is_some() {
                    inner.throttle.gc_rounds.fetch_add(1, Ordering::Relaxed);
                    progressed = true;
                }
            }
            if !progressed {
                // No GC candidate yet: force compaction to expose hidden
                // garbage, then try again.
                if inner.lsm.force_compact_once()? {
                    inner
                        .throttle
                        .forced_compactions
                        .fetch_add(1, Ordering::Relaxed);
                } else {
                    break;
                }
            }
        }
        if inner.throttle.over_limit(reclaimable()) {
            inner.throttle.unresolved.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Reap retired value files and run paced GC under the index tree's
    /// retry / degrade rule ([`Lsm::run_with_retries`]), which flush and
    /// compaction share.
    fn post_write_maintenance(&self) -> Result<()> {
        let inner = &self.inner;
        inner.lsm.run_with_retries(|| {
            // With nothing retired — every write of the keyed schemes —
            // this takes no lock beyond the queue's own.
            if inner.vstore.has_retired() {
                let _g = inner.gc_lock.lock();
                inner.vstore.reap(&inner.lsm)?;
            }
            if inner.opts.auto_gc {
                self.run_paced_gc()?;
            }
            Ok(())
        })
    }

    /// Auto-GC under the bandwidth budget: run jobs while candidates exist
    /// and credits remain, charging each job what it reports
    /// ([`GcOutcome::io_bytes`]) — so a job is charged once, to the
    /// engine that ran it, whoever else was doing GC I/O on the env
    /// meanwhile.
    fn run_paced_gc(&self) -> Result<()> {
        let inner = &self.inner;
        let Some(gc) = &inner.gc else { return Ok(()) };
        loop {
            if *inner.gc_credits.lock() <= 0 {
                return Ok(());
            }
            let ran = {
                let _g = inner.gc_lock.lock();
                gc.run_once(&inner.lsm, GC_THRESHOLD)?
            };
            let Some(job) = ran else { return Ok(()) };
            *inner.gc_credits.lock() -= job.io_bytes() as i64;
        }
    }

    // ---------------- reads ----------------

    /// Latest value of `key` in this member, or `None` if absent/deleted.
    ///
    /// Single-pass and strictly consistent: the read goes through a
    /// transient pinned view, so the index version it observes and the
    /// value it resolves belong to the same point in time even under
    /// concurrent flush/compaction/GC.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Bytes>> {
        let key = key.as_ref();
        self.inner
            .lsm
            .get_resolved(key, |r| self.inner.resolve_read(key, r))
    }

    /// A pinned, registered view at the latest sequence.
    pub(crate) fn view(&self) -> ShardView {
        ShardView {
            view: self.inner.lsm.view(),
            shard: self.inner.clone(),
        }
    }

    /// A view registered as a snapshot (the `live_snapshots` gauge
    /// counts it).
    pub(crate) fn snapshot_view(&self) -> ShardView {
        ShardView {
            view: self.inner.lsm.snapshot_view(),
            shard: self.inner.clone(),
        }
    }

    // ---------------- maintenance ----------------

    /// Flush the memtable and drain background work.
    pub(crate) fn flush(&self) -> Result<()> {
        self.inner.lsm.flush()?;
        self.post_write_maintenance()
    }

    /// Compact until every level score is under 1.
    pub(crate) fn compact_all(&self) -> Result<()> {
        self.inner.lsm.compact_until_stable()?;
        self.post_write_maintenance()
    }

    /// Run one GC job at an explicit threshold (`None` when no value file
    /// crosses it, or the mode separates nothing).
    pub fn run_gc_at(&self, threshold: f64) -> Result<Option<GcOutcome>> {
        let inner = &self.inner;
        match &inner.gc {
            Some(gc) => {
                let _g = inner.gc_lock.lock();
                gc.run_once(&inner.lsm, threshold)
            }
            None => Ok(None),
        }
    }

    /// Run GC jobs until no candidate crosses [`GC_THRESHOLD`].
    pub(crate) fn run_gc_until_clean(&self) -> Result<usize> {
        let mut jobs = 0;
        while self.run_gc_at(GC_THRESHOLD)?.is_some() {
            jobs += 1;
            if jobs > 1024 {
                return Err(Error::internal("runaway GC loop"));
            }
        }
        Ok(jobs)
    }

    /// Dry-run the GC-Lookup validation phase over one value file without
    /// moving data: reports how many of its records are still live.
    pub fn gc_validate_file(&self, file: u64) -> Result<crate::GcValidationReport> {
        let inner = &self.inner;
        match &inner.gc {
            Some(gc) => {
                let _g = inner.gc_lock.lock();
                gc.validate_file(&inner.lsm, file)
            }
            None => Err(Error::invalid_argument(
                "engine mode has no value separation to validate",
            )),
        }
    }

    /// Recover from read-only degraded mode: re-verify (and if needed
    /// rewrite) the manifest, clear the stored background error, and
    /// re-enable writes. No value-file sweep: a failed edit's files wait
    /// in the tree's purge queue, and a resumed job's are its own.
    pub(crate) fn resume(&self) -> Result<()> {
        self.inner.lsm.resume()
    }

    /// True while the member is in read-only degraded mode.
    pub(crate) fn is_degraded(&self) -> bool {
        self.inner.lsm.is_degraded()
    }

    /// The background error that degraded the member, if any.
    pub fn background_error(&self) -> Option<Error> {
        self.inner.lsm.background_error()
    }

    // ---------------- introspection ----------------

    /// The member's options (`dir` is its own directory).
    pub fn options(&self) -> &Options {
        &self.inner.opts
    }

    /// On-disk space breakdown of the member's directory: its ledger's
    /// files, classified by name.
    pub(crate) fn space(&self) -> SpaceBreakdown {
        let dir = &self.inner.opts.dir;
        let mut s = SpaceBreakdown::default();
        self.inner.space.for_each(|path, size| {
            let bucket = match parse_path(dir, path) {
                Some((FileKind::Table, _)) => &mut s.ksst_bytes,
                Some((FileKind::ValueTable | FileKind::BlobLog, _)) => &mut s.value_bytes,
                Some((FileKind::Wal, _)) => &mut s.wal_bytes,
                Some((FileKind::Manifest | FileKind::Current, _)) => &mut s.manifest_bytes,
                None => &mut s.other_bytes,
            };
            *bucket += size;
        });
        s
    }

    /// The member's statistics. Transactions and the 2PC coordinator
    /// live at the set, so their counters read zero here.
    pub(crate) fn stats(&self) -> DbStats {
        let inner = &self.inner;
        let version = inner.lsm.current_version();
        let counters = inner.lsm.counters();
        let (pinned_views, live_snapshots) = inner.lsm.read_point_counts();
        let cdc = inner.lsm.change_log().stats();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        DbStats {
            io: inner.opts.env.io_stats().snapshot(),
            gc: inner.gc_stats.snapshot(),
            space: self.space(),
            index_space_amp: version.index_space_amp(),
            exposed_garbage_bytes: inner.vstore.total_exposed_bytes(),
            value_store_bytes: inner.vstore.total_bytes(),
            value_files: inner.vstore.all_files().len() as u64,
            cache_hit_ratio: inner.cache.blocks().hit_ratio(),
            flushes: load(&counters.flushes),
            compactions: load(&counters.compactions),
            merge_drops: load(&counters.merge_drops),
            write_stalls: load(&counters.stalls),
            throttle_stalls: inner.throttle.activation_count(),
            oldest_read_point: inner.lsm.oldest_read_point(),
            pinned_views: pinned_views as u64,
            live_snapshots: live_snapshots as u64,
            bg_errors: load(&counters.bg_errors),
            bg_retries: load(&counters.bg_retries),
            degraded: inner.lsm.is_degraded(),
            wal_tail_corruptions: load(&counters.wal_tail_corruptions),
            group_commit_groups: load(&counters.group_commit_groups),
            group_commit_batches: load(&counters.group_commit_batches),
            group_commit_max_group: load(&counters.group_commit_max_group),
            group_commit_fsyncs_saved: load(&counters.group_commit_fsyncs_saved),
            txn_commits: 0,
            txn_conflicts: 0,
            txn_2pc_commits: 0,
            txn_2pc_rollforwards: 0,
            cdc_events_published: cdc.events_published,
            cdc_subscribers: cdc.subscribers,
            cdc_retained_wal_bytes: cdc.retained_wal_bytes,
            cdc_lag_seqs: cdc.lag_seqs,
            cdc_catchup_reads: cdc.catchup_reads,
            pinned_bytes: self.pinned_bytes(),
        }
    }

    /// The underlying index LSM-tree (exposed for experiments/tests).
    pub fn lsm(&self) -> &Lsm {
        &self.inner.lsm
    }

    /// The value store (exposed for experiments/tests).
    pub fn value_store(&self) -> &Arc<ValueStore> {
        &self.inner.vstore
    }

    /// The DropCache (exposed for experiments/tests).
    pub fn drop_cache(&self) -> &Arc<DropCache> {
        &self.inner.dropcache
    }
}

/// One member's pinned view: an index-tree view plus the member that
/// resolves its separated values. A [`ReadView`](crate::ReadView) holds
/// one per member.
pub(crate) struct ShardView {
    view: LsmView,
    shard: Arc<ShardInner>,
}

impl ShardView {
    pub(crate) fn sequence(&self) -> SeqNo {
        self.view.sequence()
    }

    pub(crate) fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        let r = self.view.get(key)?;
        self.shard.resolve_read(key, r)
    }

    pub(crate) fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<ShardScan> {
        Ok(ShardScan::new(self.view.scan(lo, hi)?, self.shard.clone()))
    }
}

/// Most rows one look-ahead batch resolves: the ceiling of the ramp
/// (1, 2, 4 …) that plain [`Iterator::next`] climbs, and the chunk
/// [`DbScanIter::collect_n`](crate::DbScanIter::collect_n) works in.
pub const SCAN_BATCH_ROWS: usize = 256;

/// Separated-value bytes after which a look-ahead batch stops pulling
/// index entries (it always takes at least one row).
pub const SCAN_BATCH_BYTES: u64 = 1 << 20;

/// One member's scan: index entries from its pinned view, separated
/// values resolved a look-ahead batch at a time (the contract is on
/// [`DbScanIter`](crate::DbScanIter)).
pub(crate) struct ShardScan {
    inner: scavenger_lsm::ScanIter,
    shard: Arc<ShardInner>,
    /// The current look-ahead batch: resolved rows not yet yielded.
    ready: std::vec::IntoIter<ScanEntry>,
    /// What ended the look-ahead; surfaces once `ready` has drained.
    failed: Option<Error>,
    /// Rows the next ramp batch resolves.
    ramp: usize,
    /// Rows the ramp may still resolve ahead of demand, when a caller
    /// that knows its own limit set one (see
    /// [`limit_lookahead`](Self::limit_lookahead)).
    budget: Option<usize>,
    done: bool,
}

impl ShardScan {
    fn new(inner: scavenger_lsm::ScanIter, shard: Arc<ShardInner>) -> ShardScan {
        ShardScan {
            inner,
            shard,
            ready: Vec::new().into_iter(),
            failed: None,
            ramp: 1,
            budget: None,
            done: false,
        }
    }

    /// Cap the rows the ramp resolves from here on (`None` lifts the
    /// cap): the k-way merge's `collect_n(limit)` needs at most `limit`
    /// rows from any one member.
    pub(crate) fn limit_lookahead(&mut self, rows: Option<usize>) {
        self.budget = rows;
    }

    /// Pull up to `rows` index entries (fewer once [`SCAN_BATCH_BYTES`]
    /// of separated values are pending) and resolve them. Returns the
    /// rows that resolved, in key order; whatever stopped the batch
    /// short — end of range excepted — is left in `failed`.
    fn fill(&mut self, rows: usize) -> Vec<ScanEntry> {
        let mut batch: Vec<ScanEntry> = Vec::with_capacity(rows);
        // The batch's separated rows: (index in `batch`, seq, reference).
        // Until resolved, such a row's `value` holds the encoded reference.
        let mut separated: Vec<(usize, SeqNo, ValueRef)> = Vec::new();
        let mut bytes = 0u64;
        while batch.len() < rows && bytes < SCAN_BATCH_BYTES {
            let e = match self.inner.next() {
                None => break,
                Some(Err(e)) => {
                    self.failed = Some(e);
                    break;
                }
                Some(Ok(e)) => e,
            };
            match e.vtype {
                ValueType::Value => {}
                ValueType::ValueRef => match ValueRef::decode(&e.value) {
                    Ok(vref) => {
                        bytes += u64::from(vref.size);
                        separated.push((batch.len(), e.seq, vref));
                    }
                    Err(err) => {
                        self.failed = Some(err);
                        break;
                    }
                },
                ValueType::Deletion => {
                    self.failed = Some(Error::internal("tombstone in scan output"));
                    break;
                }
            }
            batch.push(ScanEntry {
                key: e.user_key,
                value: e.value,
            });
        }
        if let Err((row, e)) = self.resolve(&mut batch, &separated) {
            batch.truncate(row);
            self.failed = Some(e);
        }
        batch
    }

    /// Replace the encoded reference of every separated row with its
    /// value: one [`locate`](ValueStore::locate) per row, then one
    /// coalesced [`fetch`](ValueStore::fetch) for the lot. A lone
    /// separated row gains nothing from batching, and a failed batch
    /// falls back to the same row-by-row path, which finds the first row
    /// that cannot be resolved (returned with its error). Either way the
    /// records are read around the block cache: a scan neither looks up
    /// nor fills the values point reads cache.
    fn resolve(
        &self,
        batch: &mut [ScanEntry],
        separated: &[(usize, SeqNo, ValueRef)],
    ) -> std::result::Result<(), (usize, Error)> {
        let vstore = &self.shard.vstore;
        if separated.len() > 1 {
            let fetched = separated
                .iter()
                .map(|(row, seq, vref)| vstore.locate(&batch[*row].key, *seq, vref))
                .collect::<Result<Vec<_>>>()
                .and_then(|locs| vstore.fetch(&locs));
            if let Ok(values) = fetched {
                for ((row, ..), value) in separated.iter().zip(values) {
                    batch[*row].value = value;
                }
                return Ok(());
            }
        }
        for (row, seq, vref) in separated {
            let fetched = vstore
                .locate(&batch[*row].key, *seq, vref)
                .and_then(|loc| vstore.fetch(std::slice::from_ref(&loc)));
            match fetched {
                Ok(mut value) => batch[*row].value = value.remove(0),
                Err(e) => return Err((*row, e)),
            }
        }
        Ok(())
    }

    /// The next ramp step (1, 2, 4 … [`SCAN_BATCH_ROWS`]), within the
    /// look-ahead budget when one is set.
    fn ramp_step(&mut self) -> usize {
        let step = self.ramp.min(self.budget.unwrap_or(usize::MAX)).max(1);
        self.ramp = (self.ramp * 2).min(SCAN_BATCH_ROWS);
        if let Some(b) = &mut self.budget {
            *b = b.saturating_sub(step);
        }
        step
    }

    pub(crate) fn next_entry(&mut self) -> Result<Option<ScanEntry>> {
        self.next().transpose()
    }

    /// Collect up to `limit` entries, resolving exactly those rows (in
    /// chunks of at most [`SCAN_BATCH_ROWS`]).
    pub(crate) fn collect_n(&mut self, limit: usize) -> Result<Vec<ScanEntry>> {
        if self.done {
            return Ok(Vec::new());
        }
        // Rows an earlier look-ahead already resolved come first.
        let mut out: Vec<ScanEntry> = self.ready.by_ref().take(limit).collect();
        while out.len() < limit && self.failed.is_none() {
            let batch = self.fill((limit - out.len()).min(SCAN_BATCH_ROWS));
            if batch.is_empty() && self.failed.is_none() {
                self.done = true; // end of range
                return Ok(out);
            }
            if out.is_empty() {
                out = batch;
            } else {
                out.extend(batch);
            }
        }
        if out.len() < limit {
            if let Some(e) = self.failed.take() {
                self.done = true;
                return Err(e);
            }
        }
        Ok(out)
    }
}

impl Iterator for ShardScan {
    type Item = Result<ScanEntry>;

    fn next(&mut self) -> Option<Result<ScanEntry>> {
        if self.done {
            return None;
        }
        if self.ready.len() == 0 && self.failed.is_none() {
            let rows = self.ramp_step();
            self.ready = self.fill(rows).into_iter();
        }
        let pulled = match self.ready.next() {
            Some(e) => Ok(Some(e)),
            None => self.failed.take().map_or(Ok(None), Err),
        };
        scavenger_util::iter::fuse(&mut self.done, pulled)
    }
}
