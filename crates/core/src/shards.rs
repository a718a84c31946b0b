//! Sharded engine: N independent [`Db`] shards behind one handle.
//!
//! A single [`Db`] serializes writes on one writer lock and runs all
//! background work on one scheduler — one core's worth of ceiling no
//! matter the hardware. [`DbShards`] removes that ceiling the standard
//! way: the key space is hash-partitioned across `N` fully independent
//! engines (each with its own WAL, memtables, index tree, value store,
//! and GC runner), so writes to different shards never contend and
//! flush/compaction/GC run per shard — fanned across the
//! [`gc_threads`](crate::Options::gc_threads) pool by the maintenance
//! entry points, which is where multi-core finally pays off.
//!
//! What stays **global**:
//!
//! * **Routing** — a seeded, platform-independent hash of the user key
//!   picks the shard. The `(shard count, seed)` pair is persisted in a
//!   `SHARDS` meta file at first open and re-loaded on reopen, so a key
//!   always routes to the shard that owns its data; reopening with a
//!   different shard count is refused rather than silently misrouting.
//! * **The block cache** — one 16-way-sharded [`BlockCache`] is handed
//!   to every shard, so a single memory budget serves the whole store.
//!   (Table-*reader* caches stay per shard: file numbers are per-shard
//!   namespaces. The block cache is where the memory lives.)
//! * **The space budget** — one [`Throttle`] with the §III-D limit is
//!   shared by all shards, and each shard's admission check compares the
//!   limit against the *sum* of all shard footprints. A shard that finds
//!   the store over budget reclaims locally (aggressive GC + forced
//!   compaction) until the global total is back under.
//!
//! Reads compose naturally: [`get`](DbShards::get) routes to one shard;
//! [`scan`](DbShards::scan) runs a k-way ordered merge over per-shard
//! iterators (hash partitioning makes shard streams disjoint, so the
//! merge is a pure min-heads pick); [`view`](DbShards::view) /
//! [`snapshot`](DbShards::snapshot) pin one registered view per shard as
//! a coordinated set. Each member view is strictly consistent for its
//! shard; the set is taken at one call site, which is as much cross-shard
//! ordering as a store without a global sequence can promise —
//! single-key consistency is exactly [`Db`]'s.
//!
//! Multi-shard batch writes are **crash-atomic across shards** for one
//! fsync: a two-phase-commit coordinator log at the store root records
//! the full redo payload, fsynced, before any shard is touched; the
//! shards then apply unsynced, and recovery at open rolls every prepare
//! still in the log forward (see [`crate::txn`]). Single-shard batches
//! skip the coordinator entirely — the common case pays zero extra I/O.

use crate::db::{Db, DbScanIter, ScanEntry, SetWiring, SpaceUsageFn};
use crate::engine::GcReport;
use crate::options::Options;
use crate::stats::{DbStats, SpaceBreakdown};
use crate::throttle::Throttle;
use crate::txn::{Coordinator, TxnCounters};
use crate::view::{ReadOptions, ReadPin, ReadView, Snapshot, WriteOptions, WriteReceipt};
use bytes::Bytes;
use parking_lot::Mutex;
use scavenger_env::usage::UsageEnv;
use scavenger_env::IoClass;
use scavenger_lsm::WriteBatch;
use scavenger_table::btable::BlockCache;
use scavenger_util::ikey::ValueType;
use scavenger_util::{Error, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Options for opening a [`DbShards`].
///
/// `base` configures every shard identically (mode, feature toggles,
/// tuning); its `dir` is the *root* directory — shard `i` lives under
/// `dir/shard-NNN`. `base.space_limit` is interpreted as the **global**
/// budget across all shards.
#[derive(Clone)]
pub struct ShardedOptions {
    /// Per-shard engine options; `dir` is the sharded store's root.
    pub base: Options,
    /// Number of shards (1 ..= 256). Fixed at first open: the key →
    /// shard mapping is persisted, and reopening with a different count
    /// is refused.
    pub num_shards: usize,
    /// Seed for the routing hash. Only consulted at *first* open (then
    /// persisted); reopen uses the stored seed so routing never moves.
    pub route_seed: u64,
}

impl ShardedOptions {
    /// Scaled defaults: 4 shards over [`Options::new`].
    pub fn new(
        env: scavenger_env::EnvRef,
        dir: impl Into<String>,
        mode: crate::options::EngineMode,
    ) -> ShardedOptions {
        ShardedOptions {
            base: Options::new(env, dir, mode),
            num_shards: 4,
            route_seed: 0x5ca7_e26e,
        }
    }

    /// Builder for the shard-layer settings over [`ShardedOptions::new`].
    /// Per-shard knobs are plain fields of [`Options`]: set them on an
    /// `Options` value and hand it over with
    /// [`base`](ShardedOptionsBuilder::base).
    ///
    /// ```
    /// use scavenger::{EngineMode, MemEnv, Options, ShardedOptions, ShardedOptionsBuilder};
    ///
    /// let env = MemEnv::shared();
    /// let mut base = Options::new(env.clone(), "sb-demo", EngineMode::Scavenger);
    /// base.gc_threads = 2;
    /// base.memtable_size = 32 * 1024;
    /// let b: ShardedOptionsBuilder = ShardedOptions::builder(env, "sb-demo", EngineMode::Scavenger);
    /// let db = b.base(base).num_shards(2).open().unwrap();
    /// assert_eq!(db.num_shards(), 2);
    /// assert_eq!(db.shard(0).options().memtable_size, 32 * 1024);
    /// ```
    pub fn builder(
        env: scavenger_env::EnvRef,
        dir: impl Into<String>,
        mode: crate::options::EngineMode,
    ) -> ShardedOptionsBuilder {
        ShardedOptionsBuilder {
            sharded: ShardedOptions::new(env, dir, mode),
        }
    }
}

/// Builder for [`ShardedOptions`]: exactly the shard-layer settings
/// ([`base`](ShardedOptionsBuilder::base),
/// [`num_shards`](ShardedOptionsBuilder::num_shards),
/// [`route_seed`](ShardedOptionsBuilder::route_seed)), ending in
/// [`build`](ShardedOptionsBuilder::build) or
/// [`open`](ShardedOptionsBuilder::open).
#[derive(Clone)]
pub struct ShardedOptionsBuilder {
    sharded: ShardedOptions,
}

impl ShardedOptionsBuilder {
    /// Number of shards (1 ..= 256); fixed at first open.
    #[must_use]
    pub fn num_shards(mut self, n: usize) -> Self {
        self.sharded.num_shards = n;
        self
    }

    /// Routing-hash seed, consulted only at first open (then persisted).
    #[must_use]
    pub fn route_seed(mut self, seed: u64) -> Self {
        self.sharded.route_seed = seed;
        self
    }

    /// The per-shard base [`Options`]; its `dir` is the store's root and
    /// its `space_limit` the global budget.
    #[must_use]
    pub fn base(mut self, base: Options) -> Self {
        self.sharded.base = base;
        self
    }

    /// Finish the chain: the configured [`ShardedOptions`].
    pub fn build(self) -> ShardedOptions {
        self.sharded
    }

    /// Build and open the sharded store in one step.
    pub fn open(self) -> Result<DbShards> {
        DbShards::open(self.build())
    }
}

/// The persisted routing contract: shard count + hash seed, written to
/// `<root>/SHARDS` at first open and authoritative from then on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardMeta {
    shards: usize,
    seed: u64,
}

const META_MAGIC: &str = "scavenger-shards v1";

impl ShardMeta {
    fn encode(&self) -> String {
        format!(
            "{META_MAGIC}\nshards={}\nseed={:#018x}\n",
            self.shards, self.seed
        )
    }

    fn decode(data: &[u8]) -> Result<ShardMeta> {
        let text =
            std::str::from_utf8(data).map_err(|_| Error::corruption("SHARDS meta is not UTF-8"))?;
        let mut lines = text.lines();
        if lines.next() != Some(META_MAGIC) {
            return Err(Error::corruption("SHARDS meta has wrong magic"));
        }
        let mut shards = None;
        let mut seed = None;
        for line in lines {
            if let Some(v) = line.strip_prefix("shards=") {
                shards = v.parse::<usize>().ok();
            } else if let Some(v) = line.strip_prefix("seed=") {
                let v = v.strip_prefix("0x").unwrap_or(v);
                seed = u64::from_str_radix(v, 16).ok();
            }
        }
        match (shards, seed) {
            (Some(shards), Some(seed)) if shards >= 1 => Ok(ShardMeta { shards, seed }),
            _ => Err(Error::corruption("SHARDS meta is malformed")),
        }
    }
}

/// Directory of shard `index` under `root`.
fn shard_dir(root: &str, index: usize) -> String {
    format!("{root}/shard-{index:03}")
}

/// Route a user key to a shard: seeded FNV-1a over the key bytes with a
/// splitmix-style finalizer. Pure integer arithmetic — byte-for-byte
/// stable across platforms, builds, and process restarts, which is what
/// makes the persisted `(count, seed)` pair sufficient for reopen-stable
/// placement.
fn route(seed: u64, key: &[u8], num_shards: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    (h % num_shards as u64) as usize
}

struct ShardsInner {
    shards: Vec<Db>,
    meta: ShardMeta,
    root: String,
    env: scavenger_env::EnvRef,
    throttle: Arc<Throttle>,
    cache: Arc<BlockCache>,
    /// Cross-shard maintenance fan-out width (from `base.gc_threads`).
    maintenance_threads: usize,
    /// Two-phase-commit log for multi-shard batches (see [`crate::txn`]).
    coord: Coordinator,
    /// Serializes optimistic-transaction commits: validation and apply
    /// happen under this lock, so committed transactions serialize
    /// against each other even when they span shards.
    txn_lock: Mutex<()>,
    /// Optimistic-transaction commit/conflict counters (shard-set level;
    /// the per-shard `Db` counters stay zero — commits route here).
    txn: TxnCounters,
}

impl ShardsInner {
    fn shard_of(&self, key: &[u8]) -> usize {
        route(self.meta.seed, key, self.meta.shards)
    }
}

impl Drop for ShardsInner {
    /// Clean close: retire the coordinator log (best effort — after a
    /// simulated crash every handle is fenced), so the next open finds
    /// no prepare to judge.
    fn drop(&mut self) {
        let _ = self.coord.retire(&self.shards);
    }
}

/// A sharded Scavenger store: one handle over `N` hash-partitioned
/// [`Db`] shards (cheaply cloneable).
///
/// ```
/// use scavenger::{DbShards, EngineMode, MemEnv, ShardedOptions};
///
/// let opts = ShardedOptions::new(MemEnv::shared(), "sharded-demo", EngineMode::Scavenger);
/// let db = DbShards::open(opts).unwrap();
/// for i in 0..32 {
///     db.put(format!("user{i:02}"), vec![i as u8; 1024]).unwrap();
/// }
/// db.flush().unwrap();
/// // Point reads route to one shard; scans merge all shards in key order.
/// assert_eq!(db.get(b"user07").unwrap().unwrap().len(), 1024);
/// let mut it = db.scan(b"user00", Some(b"user10")).unwrap();
/// let entries = it.collect_n(usize::MAX).unwrap();
/// assert_eq!(entries.len(), 10);
/// assert!(entries.windows(2).all(|w| w[0].key < w[1].key));
/// ```
#[derive(Clone)]
pub struct DbShards {
    inner: Arc<ShardsInner>,
}

impl DbShards {
    /// Open (or recover) a sharded store.
    ///
    /// First open persists the `(num_shards, route_seed)` routing
    /// contract to `<root>/SHARDS`; later opens load the stored seed
    /// (the caller's `route_seed` is ignored) and refuse a mismatched
    /// shard count instead of silently re-routing keys away from their
    /// data.
    pub fn open(opts: ShardedOptions) -> Result<DbShards> {
        if opts.num_shards == 0 || opts.num_shards > 256 {
            return Err(Error::invalid_argument(format!(
                "num_shards must be in 1..=256, got {}",
                opts.num_shards
            )));
        }
        let env = opts.base.env.clone();
        let root = opts.base.dir.clone();
        env.create_dir_all(&root)?;
        let meta_path = format!("{root}/SHARDS");
        let meta = if env.file_exists(&meta_path) {
            let stored = ShardMeta::decode(&env.read_file(&meta_path, IoClass::Other)?)?;
            if stored.shards != opts.num_shards {
                return Err(Error::invalid_argument(format!(
                    "store was created with {} shards, reopened with {} — \
                     hash routing would move keys away from their data",
                    stored.shards, opts.num_shards
                )));
            }
            stored
        } else {
            let meta = ShardMeta {
                shards: opts.num_shards,
                seed: opts.route_seed,
            };
            // Write-temp + fsync + atomic rename so a crash mid-create
            // never leaves a torn SHARDS file: reopen either sees the
            // complete meta or none at all (and re-creates it).
            let tmp_path = format!("{meta_path}.tmp");
            {
                let mut f = env.new_writable(&tmp_path, IoClass::Other)?;
                f.append(meta.encode().as_bytes())?;
                f.sync()?;
            }
            env.rename(&tmp_path, &meta_path)?;
            meta
        };

        // One block cache and one throttle for the whole set; the usage
        // source sums every shard's incremental space tracker plus a
        // root-level tracker (routing meta, coordinator log), so the
        // §III-D limit is a single global budget no matter which shard
        // admits the write — and checking it is O(shards) atomic loads,
        // not a directory walk.
        let cache = opts.base.block_cache.clone().unwrap_or_else(|| {
            Arc::new(BlockCache::with_capacity(
                opts.base.block_cache_bytes.max(4096),
            ))
        });
        let throttle = Arc::new(Throttle::new(opts.base.space_limit));
        let shard_prefixes: Vec<String> = (0..meta.shards)
            .map(|i| format!("{}/", shard_dir(&root, i)))
            .collect();
        let (root_env, root_tracker) =
            UsageEnv::wrap_excluding(env.clone(), &format!("{root}/"), shard_prefixes.clone())?;

        // Build every shard's env layer first (metered for per-shard I/O
        // attribution, usage-tracked for space), so the usage closure can
        // close over the complete tracker set before any shard opens.
        let mut shard_envs = Vec::with_capacity(meta.shards);
        let mut trackers = vec![root_tracker];
        for prefix in &shard_prefixes {
            let metered: scavenger_env::EnvRef =
                Arc::new(scavenger_env::MeteredEnv::new(env.clone()));
            let (shard_env, tracker) = UsageEnv::wrap(metered, prefix)?;
            shard_envs.push(shard_env);
            trackers.push(tracker);
        }
        let usage: SpaceUsageFn = Arc::new(move || trackers.iter().map(|t| t.total()).sum());

        let mut shards = Vec::with_capacity(meta.shards);
        for shard_env in shard_envs {
            let i = shards.len();
            let mut shard_opts = opts.base.clone();
            shard_opts.dir = shard_dir(&root, i);
            // Per-shard I/O attribution: every shard runs under its own
            // metered wrapper, so `shard.stats().io` counts only that
            // shard's traffic (the shared env keeps the global totals).
            shard_opts.env = shard_env;
            shard_opts.block_cache = Some(cache.clone());
            let set = SetWiring {
                throttle: throttle.clone(),
                usage: usage.clone(),
            };
            shards.push(Db::open_member(shard_opts, Some(set))?);
        }

        // All shards are open: roll forward every multi-shard batch
        // whose 2PC prepare is still in the coordinator log (a shard may
        // have lost its unsynced apply), then start a fresh log. The
        // coordinator writes through the root usage wrapper so its log
        // bytes count toward the global budget.
        let coord = Coordinator::open(&root_env, &root, &shards)?;

        Ok(DbShards {
            inner: Arc::new(ShardsInner {
                shards,
                meta,
                root,
                env: root_env,
                throttle,
                cache,
                maintenance_threads: opts.base.gc_threads.max(1),
                coord,
                txn_lock: Mutex::new(()),
                txn: TxnCounters::default(),
            }),
        })
    }

    // ---------------- routing ----------------

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.inner.meta.shards
    }

    /// The persisted routing seed.
    pub fn route_seed(&self) -> u64 {
        self.inner.meta.seed
    }

    /// The shard index `key` routes to — stable across reopen.
    pub fn shard_of(&self, key: impl AsRef<[u8]>) -> usize {
        self.inner.shard_of(key.as_ref())
    }

    /// Direct handle to shard `index` (experiments, per-shard stats).
    pub fn shard(&self, index: usize) -> &Db {
        &self.inner.shards[index]
    }

    /// The shared block cache.
    pub fn block_cache(&self) -> &Arc<BlockCache> {
        &self.inner.cache
    }

    /// The shared space throttle (global limit + counters).
    pub fn throttle(&self) -> &Arc<Throttle> {
        &self.inner.throttle
    }

    // ---------------- writes ----------------

    /// Insert or overwrite a key (routed; default [`WriteOptions`]).
    pub fn put(&self, key: impl AsRef<[u8]>, value: impl Into<Bytes>) -> Result<WriteReceipt> {
        let key = key.as_ref();
        self.inner.shards[self.inner.shard_of(key)].put(key, value)
    }

    /// Insert or overwrite a key with explicit options.
    pub fn put_with(
        &self,
        opts: &WriteOptions,
        key: impl AsRef<[u8]>,
        value: impl Into<Bytes>,
    ) -> Result<WriteReceipt> {
        let key = key.as_ref();
        self.inner.shards[self.inner.shard_of(key)].put_with(opts, key, value)
    }

    /// Delete a key (routed; default [`WriteOptions`]).
    pub fn delete(&self, key: impl AsRef<[u8]>) -> Result<WriteReceipt> {
        let key = key.as_ref();
        self.inner.shards[self.inner.shard_of(key)].delete(key)
    }

    /// Delete a key with explicit options.
    pub fn delete_with(&self, opts: &WriteOptions, key: impl AsRef<[u8]>) -> Result<WriteReceipt> {
        let key = key.as_ref();
        self.inner.shards[self.inner.shard_of(key)].delete_with(opts, key)
    }

    /// Apply a batch (default [`WriteOptions`]). See
    /// [`write_with`](DbShards::write_with) for atomicity scope.
    pub fn write(&self, batch: WriteBatch) -> Result<WriteReceipt> {
        self.write_with(&WriteOptions::default(), batch)
    }

    /// Apply a batch atomically: entries are split by shard (preserving
    /// per-key order). A batch that lands on **one** shard commits
    /// through that shard's write path directly — the fast path, zero
    /// coordination I/O. A batch spanning **multiple** shards commits
    /// through the two-phase-commit coordinator: the full redo payload
    /// is fsynced to the coordinator log before any shard is touched —
    /// the batch's one fsync and its durable copy — every sub-batch is
    /// then applied unsynced, and recovery at the next open rolls every
    /// prepare still in the log forward — so a crash can never surface
    /// half the batch, and never loses an acknowledged one.
    ///
    /// The returned [`WriteReceipt`] is an aggregate over the touched
    /// shards: sequences are per-shard namespaces, so `seq` and
    /// `group_len` are maxima/sums across sub-batch receipts. A
    /// multi-shard receipt always reports `synced == true` (the prepare
    /// is fsynced regardless of `opts.sync`: atomicity needs it durable
    /// before the first apply); a single-shard receipt reports whatever
    /// its shard's commit did. An empty batch returns an inert receipt
    /// (`group_len == 0`, `synced == false`).
    pub fn write_with(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<WriteReceipt> {
        let n = self.inner.meta.shards;
        let mut per_shard: Vec<WriteBatch> = (0..n).map(|_| WriteBatch::new()).collect();
        for e in batch.entries() {
            let s = self.inner.shard_of(&e.key);
            match e.vtype {
                ValueType::Value => per_shard[s].put(&e.key, e.value.clone()),
                ValueType::Deletion => per_shard[s].delete(&e.key),
                ValueType::ValueRef => {
                    return Err(Error::invalid_argument(
                        "value references are engine-internal and cannot be routed \
                         through a sharded write",
                    ))
                }
            }
        }
        let mut parts: Vec<(usize, WriteBatch)> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .collect();
        match parts.len() {
            0 => Ok(WriteReceipt {
                seq: 0,
                group_len: 0,
                synced: false,
            }),
            1 => {
                let (i, b) = parts.pop().expect("len checked");
                self.inner.shards[i].write_with(opts, b)
            }
            _ => self.inner.coord.commit(&self.inner.shards, parts, opts),
        }
    }

    /// Validate a transaction's read set against current per-shard
    /// sequences and, if every read is still current, apply its write
    /// buffer through [`write_with`](DbShards::write_with) (2PC when it
    /// spans shards). Commits serialize on the store-wide transaction
    /// lock, so concurrent transactions are serializable against each
    /// other; raw non-transactional writes can still land between
    /// validation and apply, as documented on
    /// [`Transactional`](crate::Transactional).
    pub(crate) fn txn_commit_raw(
        &self,
        reads: &[(Vec<u8>, scavenger_util::ikey::SeqNo)],
        batch: WriteBatch,
        opts: &WriteOptions,
    ) -> Result<WriteReceipt> {
        let inner = &self.inner;
        let _commit_guard = inner.txn_lock.lock();
        for (key, read_seq) in reads {
            let shard = inner.shard_of(key);
            if let Some(seq) = inner.shards[shard].lsm().latest_seq(key)? {
                if seq > *read_seq {
                    inner.txn.conflicted();
                    return Err(Error::txn_conflict(format!(
                        "key {:?} was written at sequence {seq} on shard {shard}, after \
                         the transaction's read point {read_seq}",
                        String::from_utf8_lossy(key)
                    )));
                }
            }
        }
        let receipt = self.write_with(opts, batch)?;
        inner.txn.committed();
        Ok(receipt)
    }

    // ---------------- reads ----------------

    /// Latest value of `key`, or `None` — one shard lookup.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Bytes>> {
        let key = key.as_ref();
        self.inner.shards[self.inner.shard_of(key)].get(key)
    }

    /// Value of `key` as seen by `opts` (routed to the key's shard).
    /// The pin must be a sharded one
    /// ([`ReadPin::ShardsView`] /
    /// [`ReadPin::ShardsSnapshot`]) or
    /// [`ReadPin::Latest`]; a single-engine pin
    /// is an error on a sharded handle.
    pub fn get_with(&self, opts: &ReadOptions<'_>, key: impl AsRef<[u8]>) -> Result<Option<Bytes>> {
        let key = key.as_ref();
        match opts.pin {
            ReadPin::ShardsView(v) => v.get_opt(key, opts.fill_cache),
            ReadPin::ShardsSnapshot(s) => s.get_opt(key, opts.fill_cache),
            // No pinned set: route straight to the owning shard — one
            // transient pin there, not a coordinated pin on every shard.
            ReadPin::Latest => {
                let ro = ReadOptions {
                    fill_cache: opts.fill_cache,
                    ..ReadOptions::default()
                };
                self.inner.shards[self.inner.shard_of(key)].get_with(&ro, key)
            }
            ReadPin::View(_) | ReadPin::Snapshot(_) => Err(Error::invalid_argument(
                "single-engine pin passed to a sharded read",
            )),
        }
    }

    /// Pin a coordinated view set: one registered [`ReadView`] per
    /// shard, taken at this call. Reads through it are strictly
    /// consistent per shard for the set's lifetime.
    pub fn view(&self) -> ShardsView {
        ShardsView {
            views: self.inner.shards.iter().map(|s| s.view()).collect(),
            inner: self.inner.clone(),
        }
    }

    /// Take a coordinated snapshot set: one RAII [`Snapshot`] per shard.
    /// Participates in snapshot-gated GC policy on every shard (e.g.
    /// Titan's defer-while-snapshots-exist rule).
    pub fn snapshot(&self) -> ShardsSnapshot {
        ShardsSnapshot {
            snaps: self.inner.shards.iter().map(|s| s.snapshot()).collect(),
            inner: self.inner.clone(),
        }
    }

    /// Range scan over `[lo, hi)` across all shards, in one merged key
    /// order, pinned at a coordinated view set taken by this call.
    pub fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<ShardsScanIter> {
        self.view().scan(lo, hi)
    }

    /// Range scan as seen by `opts`: bounds from `lower/upper_bound`,
    /// the read point from the given sharded view or snapshot set (a
    /// fresh coordinated set otherwise). A single-engine pin is an
    /// error on a sharded handle.
    pub fn scan_with(&self, opts: &ReadOptions<'_>) -> Result<ShardsScanIter> {
        let lo = opts.lower_bound.as_deref().unwrap_or(b"");
        let hi = opts.upper_bound.as_deref();
        match opts.pin {
            ReadPin::ShardsView(v) => v.scan_opt(lo, hi, opts.fill_cache),
            ReadPin::ShardsSnapshot(s) => s.view_scan_opt(lo, hi, opts.fill_cache),
            ReadPin::Latest => self.view().scan_opt(lo, hi, opts.fill_cache),
            ReadPin::View(_) | ReadPin::Snapshot(_) => Err(Error::invalid_argument(
                "single-engine pin passed to a sharded scan",
            )),
        }
    }

    // ---------------- maintenance ----------------

    /// Flush every shard (fanned across the maintenance pool), then
    /// retire the 2PC coordinator log: every batch it vouches for is in
    /// the shards' SSTs now.
    pub fn flush(&self) -> Result<()> {
        self.for_each_shard(|db| db.flush())?;
        self.inner.coord.retire(&self.inner.shards)
    }

    /// Compact every shard until stable (fanned across the pool). The
    /// coordinator log is retired first if it can be, so no prepare left
    /// over from earlier commits holds tombstones back from this
    /// compaction; if it cannot, they are merely kept a while longer.
    pub fn compact_all(&self) -> Result<()> {
        let _ = self.inner.coord.retire(&self.inner.shards);
        self.for_each_shard(|db| db.compact_all()).map(|_| ())
    }

    /// Run one GC job per shard (fanned across the pool). The
    /// [`GcReport`] holds each shard's outcome, indexed by shard — the
    /// same shape [`Db::run_gc`](crate::engine::Maintenance) reports
    /// through the trait surface with a single slot, so generic callers
    /// never branch on the handle type.
    pub fn run_gc(&self) -> Result<GcReport> {
        Ok(GcReport {
            outcomes: self.for_each_shard(|db| db.run_gc())?,
        })
    }

    /// Run GC on every shard until no candidate crosses the threshold.
    /// Returns the total number of jobs across shards.
    pub fn run_gc_until_clean(&self) -> Result<usize> {
        Ok(self
            .for_each_shard(|db| db.run_gc_until_clean())?
            .into_iter()
            .sum())
    }

    /// Recover every shard from read-only degraded mode (see
    /// [`Db::resume`]): shards that are healthy are verified and left
    /// untouched; degraded shards have their manifest re-verified, orphan
    /// value files cleaned, and writes re-enabled. The first shard whose
    /// verification fails aborts the sweep with its error.
    pub fn resume(&self) -> Result<()> {
        self.for_each_shard(|db| db.resume()).map(|_| ())
    }

    /// True if *any* shard is in read-only degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.inner.shards.iter().any(|s| s.is_degraded())
    }

    /// Run `f` over every shard, fanning across up to
    /// [`gc_threads`](crate::Options::gc_threads) scoped workers (the
    /// same knob that sizes per-shard GC I/O fan-out); `gc_threads = 1`
    /// degenerates to a deterministic sequential sweep. Results are
    /// returned in shard order; the first error wins.
    fn for_each_shard<R, F>(&self, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(&Db) -> Result<R> + Sync,
    {
        let shards = &self.inner.shards;
        let workers = self.inner.maintenance_threads.min(shards.len());
        if workers <= 1 {
            return shards.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<R>>>> =
            shards.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= shards.len() {
                        break;
                    }
                    *slots[i].lock() = Some(f(&shards[i]));
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("worker filled every slot"))
            .collect()
    }

    // ---------------- introspection ----------------

    /// Per-shard statistics snapshots, indexed by shard.
    pub fn shard_stats(&self) -> Vec<DbStats> {
        self.inner.shards.iter().map(|s| s.stats()).collect()
    }

    /// Aggregate statistics across the whole shard set — the sharded
    /// analogue of [`Db::stats`]: every shard's snapshot folded by
    /// `DbStats::merge` (each shard runs under its own
    /// [`MeteredEnv`](scavenger_env::MeteredEnv), so `io` is true
    /// shard-set attribution rather than the env-global snapshot; only
    /// the SHARDS meta-file I/O escapes it), then the state that lives
    /// at the set level added on top.
    pub fn stats(&self) -> DbStats {
        let inner = &self.inner;
        let mut s = DbStats::merge(&self.shard_stats());
        // Reuses the per-shard breakdowns instead of re-walking every
        // shard directory through self.space().
        s.space.other_bytes += self.root_file_bytes();
        // Transactions commit at the set level (the per-shard counters
        // merged above are zero by construction), and only the set has
        // a 2PC coordinator.
        s.txn_commits += inner.txn.commits();
        s.txn_conflicts += inner.txn.conflicts();
        s.txn_2pc_commits += inner.coord.commits.load(Ordering::Relaxed);
        s.txn_2pc_rollforwards += inner.coord.rollforwards.load(Ordering::Relaxed);
        s
    }

    /// Aggregate on-disk space across every shard (plus the root-level
    /// routing meta and coordinator log, under `other_bytes`).
    pub fn space(&self) -> SpaceBreakdown {
        let mut total = SpaceBreakdown::default();
        for s in &self.inner.shards {
            total.accumulate(&s.space());
        }
        total.other_bytes += self.root_file_bytes();
        total
    }

    /// Bytes of the store-level files living at the root (the `SHARDS`
    /// routing meta and the 2PC coordinator log).
    fn root_file_bytes(&self) -> u64 {
        let env = &self.inner.env;
        let root = &self.inner.root;
        env.file_size(&format!("{root}/SHARDS")).unwrap_or(0)
            + env
                .file_size(&format!("{root}/{}", crate::txn::COORD_LOG))
                .unwrap_or(0)
    }
}

/// A coordinated, pinned view set: one registered [`ReadView`] per
/// shard. Point reads route to the owning shard's view; scans merge all
/// shard views in key order. Each member is strictly consistent for its
/// shard for the set's whole lifetime.
pub struct ShardsView {
    views: Vec<ReadView>,
    inner: Arc<ShardsInner>,
}

impl ShardsView {
    /// Value of `key` at the view set.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Bytes>> {
        self.get_opt(key.as_ref(), true)
    }

    pub(crate) fn get_opt(&self, key: &[u8], fill_cache: bool) -> Result<Option<Bytes>> {
        self.views[self.inner.shard_of(key)].get_opt(key, fill_cache)
    }

    /// Merged range scan over `[lo, hi)` across every shard's view.
    pub fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<ShardsScanIter> {
        self.scan_opt(lo, hi, true)
    }

    pub(crate) fn scan_opt(
        &self,
        lo: &[u8],
        hi: Option<&[u8]>,
        fill_cache: bool,
    ) -> Result<ShardsScanIter> {
        let mut iters = Vec::with_capacity(self.views.len());
        for v in &self.views {
            iters.push(v.scan_opt(lo, hi, fill_cache)?);
        }
        ShardsScanIter::new(iters)
    }

    /// The per-shard views, indexed by shard.
    pub fn shard_views(&self) -> &[ReadView] {
        &self.views
    }

    /// The sequence a transaction's conflict check for `key` compares
    /// against: the owning shard's view sequence (sequences are
    /// per-shard namespaces, so the key's shard is the only one that
    /// matters).
    pub(crate) fn read_seq_for(&self, key: &[u8]) -> scavenger_util::ikey::SeqNo {
        self.views[self.inner.shard_of(key)].sequence()
    }
}

/// A coordinated snapshot set: one RAII [`Snapshot`] per shard.
/// Dropping it releases every shard's read point.
pub struct ShardsSnapshot {
    snaps: Vec<Snapshot>,
    inner: Arc<ShardsInner>,
}

impl ShardsSnapshot {
    /// Value of `key` at the snapshot set.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Bytes>> {
        let key = key.as_ref();
        self.snaps[self.inner.shard_of(key)].get(key)
    }

    pub(crate) fn get_opt(&self, key: &[u8], fill_cache: bool) -> Result<Option<Bytes>> {
        self.snaps[self.inner.shard_of(key)]
            .view()
            .get_opt(key, fill_cache)
    }

    /// Merged range scan at the snapshot set.
    pub fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<ShardsScanIter> {
        self.view_scan_opt(lo, hi, true)
    }

    pub(crate) fn view_scan_opt(
        &self,
        lo: &[u8],
        hi: Option<&[u8]>,
        fill_cache: bool,
    ) -> Result<ShardsScanIter> {
        let mut iters = Vec::with_capacity(self.snaps.len());
        for s in &self.snaps {
            iters.push(s.view().scan_opt(lo, hi, fill_cache)?);
        }
        ShardsScanIter::new(iters)
    }

    /// The per-shard snapshots, indexed by shard.
    pub fn shard_snapshots(&self) -> &[Snapshot] {
        &self.snaps
    }
}

/// K-way ordered merge over per-shard scan iterators — the
/// [`KvRead::Iter`](crate::engine::KvRead) of [`DbShards`]. Not
/// re-exported at the crate root: name it through the trait's
/// associated type (`<DbShards as KvRead>::Iter`) or this module path.
///
/// Hash partitioning makes the shard streams *disjoint* (a user key
/// lives on exactly one shard), so merging is a pure smallest-head pick
/// — no cross-shard version shadowing to resolve. Ties (impossible by
/// construction) would resolve to the lowest shard index, keeping the
/// iterator deterministic even under a buggy router.
///
/// Implements [`Iterator`] over `Result<ScanEntry>` with the same
/// contract as [`DbScanIter`]: every resolved entry is yielded before an
/// error, the error once, then the iterator is fused. (A shard's error
/// surfaces when the merge next needs a row from that shard — right
/// after the last row that shard resolved, even if other shards still
/// hold smaller keys.) Value look-ahead rides on the per-shard
/// iterators (each climbs its own ramp);
/// [`next_entry`](ShardsScanIter::next_entry) is a thin wrapper over the
/// `Iterator` impl.
pub struct ShardsScanIter {
    iters: Vec<DbScanIter>,
    heads: Vec<Option<ScanEntry>>,
    /// Shard whose head was handed out last. Its refill waits for the
    /// next pull, so the merge resolves nothing past the last entry it
    /// yields, and a refill failure surfaces *after* that entry instead
    /// of replacing it.
    refill: Option<usize>,
    done: bool,
}

impl ShardsScanIter {
    fn new(mut iters: Vec<DbScanIter>) -> Result<ShardsScanIter> {
        let mut heads = Vec::with_capacity(iters.len());
        for it in &mut iters {
            heads.push(it.next_entry()?);
        }
        Ok(ShardsScanIter {
            iters,
            heads,
            refill: None,
            done: false,
        })
    }

    /// Refill the head consumed by the previous pull, then pick and
    /// yield the smallest head.
    fn merge_next(&mut self) -> Result<Option<ScanEntry>> {
        if let Some(i) = self.refill.take() {
            self.heads[i] = self.iters[i].next_entry()?;
        }
        let mut min: Option<usize> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some(e) = head {
                min = match min {
                    Some(m) if self.heads[m].as_ref().unwrap().key <= e.key => Some(m),
                    _ => Some(i),
                };
            }
        }
        Ok(min.and_then(|i| {
            self.refill = Some(i);
            self.heads[i].take()
        }))
    }

    /// Next entry in global key order, or `None` when every shard is
    /// exhausted (thin wrapper over the [`Iterator`] impl).
    pub fn next_entry(&mut self) -> Result<Option<ScanEntry>> {
        self.next().transpose()
    }

    /// Collect up to `limit` entries. No shard can contribute more than
    /// `limit` of them, so for the duration of the call every per-shard
    /// iterator's look-ahead budget is capped at `limit` rows: a small
    /// `limit` on a wide store resolves a few rows per shard, not a full
    /// ramp on each.
    pub fn collect_n(&mut self, limit: usize) -> Result<Vec<ScanEntry>> {
        for it in &mut self.iters {
            it.limit_lookahead(Some(limit));
        }
        let out = self.by_ref().take(limit).collect();
        for it in &mut self.iters {
            it.limit_lookahead(None);
        }
        out
    }
}

impl Iterator for ShardsScanIter {
    type Item = Result<ScanEntry>;

    fn next(&mut self) -> Option<Result<ScanEntry>> {
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
    use crate::options::EngineMode;
    use scavenger_env::MemEnv;

    fn small_sharded(dir: &str, shards: usize) -> ShardedOptions {
        let mut o = ShardedOptions::new(MemEnv::shared(), dir, EngineMode::Scavenger);
        o.num_shards = shards;
        o.base.memtable_size = 8 * 1024;
        o.base.vsst_target_size = 32 * 1024;
        o.base.base_level_bytes = 64 * 1024;
        o.base.ksst_target_size = 16 * 1024;
        o
    }

    #[test]
    fn routing_is_deterministic_and_spreads() {
        let n = 8;
        let seed = 0xdead_beef;
        let mut counts = vec![0usize; n];
        for i in 0..4000 {
            let key = format!("user-{i:05}");
            let a = route(seed, key.as_bytes(), n);
            let b = route(seed, key.as_bytes(), n);
            assert_eq!(a, b, "routing must be a pure function");
            counts[a] += 1;
        }
        // 4000 keys over 8 shards: expect ~500 each; a shard below 250
        // or above 1000 means the hash is badly skewed.
        for (i, c) in counts.iter().enumerate() {
            assert!((250..1000).contains(c), "shard {i} got {c} of 4000 keys");
        }
        // A different seed produces a different placement for at least
        // some keys (the seed actually participates).
        let moved = (0..1000)
            .filter(|i| {
                let key = format!("user-{i:05}");
                route(seed, key.as_bytes(), n) != route(seed + 1, key.as_bytes(), n)
            })
            .count();
        assert!(moved > 100, "seed changes placement ({moved}/1000 moved)");
    }

    #[test]
    fn meta_roundtrip_and_rejects_garbage() {
        let m = ShardMeta {
            shards: 12,
            seed: 0x0123_4567_89ab_cdef,
        };
        assert_eq!(ShardMeta::decode(m.encode().as_bytes()).unwrap(), m);
        assert!(ShardMeta::decode(b"not a meta file").is_err());
        assert!(ShardMeta::decode(b"scavenger-shards v1\nshards=0\nseed=0x1\n").is_err());
        assert!(ShardMeta::decode(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn get_put_delete_route_consistently() {
        let db = DbShards::open(small_sharded("shards-db", 4)).unwrap();
        for i in 0..200 {
            db.put(format!("key{i:03}"), format!("v{i}").into_bytes())
                .unwrap();
        }
        for i in 0..200 {
            assert_eq!(
                db.get(format!("key{i:03}")).unwrap().unwrap(),
                Bytes::from(format!("v{i}").into_bytes())
            );
        }
        // Every shard should own some keys at this scale.
        for s in 0..4 {
            let owned = (0..200)
                .filter(|i| db.shard_of(format!("key{i:03}")) == s)
                .count();
            assert!(owned > 0, "shard {s} owns no keys");
        }
        db.delete("key005").unwrap();
        assert!(db.get("key005").unwrap().is_none());
        // The key is really gone from its owning shard, not merely
        // invisible through routing.
        assert!(db
            .shard(db.shard_of("key005"))
            .get("key005")
            .unwrap()
            .is_none());
    }

    #[test]
    fn merged_scan_is_globally_ordered() {
        let db = DbShards::open(small_sharded("shards-scan", 4)).unwrap();
        for i in 0..300 {
            db.put(format!("key{i:04}"), vec![(i % 251) as u8; 64])
                .unwrap();
        }
        db.flush().unwrap();
        let mut it = db.scan(b"", None).unwrap();
        let entries = it.collect_n(usize::MAX).unwrap();
        assert_eq!(entries.len(), 300);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.key, format!("key{i:04}").into_bytes());
        }
    }

    #[test]
    fn multi_shard_batch_splits_and_applies() {
        let db = DbShards::open(small_sharded("shards-batch", 4)).unwrap();
        let mut b = WriteBatch::new();
        for i in 0..40 {
            b.put(format!("batch{i:02}"), Bytes::from(vec![i as u8; 32]));
        }
        b.delete("batch07");
        db.write(b).unwrap();
        assert!(db.get("batch07").unwrap().is_none());
        for i in (0..40).filter(|&i| i != 7) {
            assert_eq!(
                db.get(format!("batch{i:02}")).unwrap().unwrap(),
                Bytes::from(vec![i as u8; 32])
            );
        }
    }

    #[test]
    fn shards_handle_is_send_sync_and_cloneable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DbShards>();
        assert_send_sync::<ShardsView>();
        assert_send_sync::<ShardsSnapshot>();
        let db = DbShards::open(small_sharded("shards-clone", 2)).unwrap();
        let db2 = db.clone();
        db.put("k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(db2.get("k").unwrap().unwrap(), Bytes::from_static(b"v"));
    }

    #[test]
    fn shard_count_out_of_range_is_invalid_argument() {
        for n in [0, 257] {
            let err = DbShards::open(small_sharded("shards-range", n))
                .err()
                .expect("out-of-range shard count must refuse to open");
            assert!(matches!(err, Error::InvalidArgument(_)), "{n}: {err:?}");
        }
    }

    #[test]
    fn value_ref_in_sharded_batch_is_invalid_argument() {
        let db = DbShards::open(small_sharded("shards-vref", 2)).unwrap();
        let mut b = WriteBatch::new();
        b.put("k", Bytes::from_static(b"v"));
        b.put_ref(
            "r",
            scavenger_util::ikey::ValueRef {
                file: 1,
                size: 1,
                offset: 0,
            },
        );
        let err = db.write(b).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err:?}");
        assert!(db.get("k").unwrap().is_none(), "nothing was applied");
    }
}
