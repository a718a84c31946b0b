//! The shard layer: how a [`Db`] of N members is laid out on disk,
//! routed, and opened.
//!
//! A single member serializes writes on one writer lock and runs all
//! background work on one scheduler — one core's worth of ceiling no
//! matter the hardware. A set of N removes that ceiling the standard
//! way: the key space is hash-partitioned across `N` fully independent
//! [`Shard`]s (each with its own WAL, memtables, index tree, value store,
//! and GC runner), so writes to different shards never contend and
//! flush/compaction/GC run per shard — fanned across the
//! [`gc_threads`](crate::Options::gc_threads) pool by the maintenance
//! entry points, which is where multi-core finally pays off.
//!
//! # The one-member case and the layout rule
//!
//! A plain store is the set of one: [`Db::open`] with [`Options`] (or a
//! [`ShardedOptions`] with `num_shards = 1`) on a new directory lives at
//! `dir` itself — no `SHARDS` file, no coordinator log, no `shard-NNN/`,
//! its own block cache and throttle, and the key never hashed. A new
//! store with N > 1 writes `dir/SHARDS` and puts member `i` under
//! `dir/shard-NNN`. On reopen a `SHARDS` file, when present, decides
//! the layout (an existing one-shard set still opens as `shard-000`);
//! otherwise the directory is a plain store.
//!
//! # The refusal rule
//!
//! Opening the other layout never serves an empty store beside the
//! data: a shard count that differs from the stored one (a plain open of
//! a sharded root included) and a sharded open of a plain store's
//! directory fail with [`Error::InvalidArgument`] naming the layout
//! found, and write nothing.
//!
//! What stays **global** in a set of several:
//!
//! * **Routing** — a seeded, platform-independent hash of the user key
//!   picks the shard. The `(shard count, seed)` pair is persisted in
//!   `SHARDS` at first open and re-loaded on reopen, so a key always
//!   routes to the shard that owns its data.
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
//! What stays **per directory** at every size is the ledger: the root
//! and each `shard-NNN/` are opened through a [`UsageEnv`] of their own,
//! which keeps the size of every file under it and charges every read
//! and write through it. The throttle, `stats().space`, `/metrics` and a
//! member's `stats().io` all read those ledgers; a plain store's member
//! ledger is the root's.
//!
//! Multi-shard batch writes are **crash-atomic across shards** for one
//! fsync through the two-phase-commit coordinator log at the root (see
//! [`crate::txn`]); single-shard batches skip it entirely.

use crate::db::{Db, DbInner};
use crate::options::Options;
use crate::shard::{Shard, Wiring};
use crate::throttle::Throttle;
use crate::txn::{Coordinator, InFlight};
use scavenger_env::{EnvRef, IoClass, SpaceTracker, UsageEnv};
use scavenger_lsm::filename::current_path;
use scavenger_table::btable::BlockCache;
use scavenger_util::{Error, Result};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Options for opening a [`Db`] of one or more members.
///
/// `base` configures every shard identically (mode, feature toggles,
/// tuning); its `dir` is the *root* directory. `base.space_limit` is
/// interpreted as the **global** budget across all shards. A plain
/// [`Options`] converts into a set of one.
#[derive(Clone)]
pub struct ShardedOptions {
    /// Per-shard engine options; `dir` is the store's root.
    pub base: Options,
    /// Number of shards (1 ..= 256). Fixed at first open: the key →
    /// shard mapping is persisted, and reopening with a different count
    /// is refused.
    pub num_shards: usize,
    /// Seed for the routing hash. Only consulted at *first* open (then
    /// persisted); reopen uses the stored seed so routing never moves.
    pub route_seed: u64,
}

const DEFAULT_ROUTE_SEED: u64 = 0x5ca7_e26e;

impl ShardedOptions {
    /// Scaled defaults: 4 shards over [`Options::new`].
    pub fn new(
        env: scavenger_env::EnvRef,
        dir: impl Into<String>,
        mode: crate::options::EngineMode,
    ) -> ShardedOptions {
        ShardedOptions {
            num_shards: 4,
            ..Options::new(env, dir, mode).into()
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

impl From<Options> for ShardedOptions {
    /// A plain store: the set of one at `base.dir`.
    fn from(base: Options) -> ShardedOptions {
        ShardedOptions {
            base,
            num_shards: 1,
            route_seed: DEFAULT_ROUTE_SEED,
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

    /// Build and open the store in one step.
    pub fn open(self) -> Result<Db> {
        Db::open(self.build())
    }
}

/// A sharded Scavenger store — the same handle as a plain one: [`Db`]
/// is the set of members, and a plain store is its one-member case.
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
pub type DbShards = Db;

/// Name of the routing meta file at a sharded store's root.
const META_FILE: &str = "SHARDS";

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

/// Route a user key to a shard: seeded FNV-1a over the key bytes with a
/// splitmix-style finalizer. Pure integer arithmetic — byte-for-byte
/// stable across platforms, builds, and process restarts, which is what
/// makes the persisted `(count, seed)` pair sufficient for reopen-stable
/// placement.
pub(crate) fn route(seed: u64, key: &[u8], num_shards: usize) -> usize {
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

impl Db {
    /// Open (or recover) a store. A plain [`Options`] opens the set of
    /// one at `dir` itself; a [`ShardedOptions`] with N > 1 a set of N
    /// under `dir/shard-NNN`, whose persisted routing contract wins over
    /// the caller's `route_seed` on reopen (see the [module
    /// docs](crate::shards) for the layout and refusal rules).
    pub fn open(opts: impl Into<ShardedOptions>) -> Result<Db> {
        let ShardedOptions {
            mut base,
            num_shards,
            route_seed,
        } = opts.into();
        if !(1..=256).contains(&num_shards) {
            return Err(Error::invalid_argument(format!(
                "num_shards must be in 1..=256, got {num_shards}"
            )));
        }
        let raw = base.env.clone();
        let root = base.dir.clone();
        raw.create_dir_all(&root)?;
        // The root directory's ledger. A set's members keep their own,
        // so it skips every `shard-NNN/`.
        let (env, root_space) = UsageEnv::wrap(
            raw.clone(),
            &format!("{root}/"),
            Some(format!("{root}/shard-")),
        )?;
        base.env = env.clone();
        let meta_path = format!("{root}/{META_FILE}");
        let stored = if env.file_exists(&meta_path) {
            Some(ShardMeta::decode(
                &env.read_file(&meta_path, IoClass::Other)?,
            )?)
        } else {
            None
        };
        let found = match stored {
            Some(m) if m.shards != num_shards => Some(format!("a {}-shard store", m.shards)),
            None if num_shards > 1 && env.file_exists(&current_path(&root)) => {
                Some("an unsharded store (no SHARDS file)".to_string())
            }
            _ => None,
        };
        if let Some(found) = found {
            return Err(Error::invalid_argument(format!(
                "{root} holds {found}; opening it with {num_shards} shard(s) would \
                 route keys away from their data"
            )));
        }
        let throttle = Arc::new(Throttle::new(base.space_limit));
        let cache = base.block_cache.clone().unwrap_or_else(|| {
            Arc::new(BlockCache::with_capacity(base.block_cache_bytes.max(4096)))
        });
        let (shards, coord, seed, root_space) = match stored {
            None if num_shards == 1 => {
                // A plain store: the one member at the root, whose ledger
                // is the root's.
                let space = root_space.clone();
                let wiring = Wiring {
                    throttle,
                    usage: Arc::new(move || space.total()),
                    cache,
                    shared_cache: base.block_cache.is_some(),
                    coordinated: false,
                };
                let shard = Shard::open(base.clone(), root_space, &wiring)?;
                (vec![shard], None, route_seed, None)
            }
            stored => {
                let meta = match stored {
                    Some(meta) => meta,
                    None => create_meta(&env, &meta_path, num_shards, route_seed)?,
                };
                let (shards, coord) = open_set(
                    &base,
                    &raw,
                    meta.shards,
                    root_space.clone(),
                    throttle,
                    cache,
                )?;
                (shards, Some(coord), meta.seed, Some(root_space))
            }
        };
        Ok(Db {
            inner: Arc::new(DbInner {
                opts: base,
                shards,
                seed,
                coord,
                root_space,
                in_flight: InFlight::default(),
                txn_commits: AtomicU64::new(0),
                txn_conflicts: AtomicU64::new(0),
            }),
        })
    }
}

/// Persist a new store's routing contract. Write-temp + fsync + atomic
/// rename, so a crash mid-create never leaves a torn SHARDS file: reopen
/// either sees the complete meta or none at all (and re-creates it).
fn create_meta(env: &EnvRef, path: &str, shards: usize, seed: u64) -> Result<ShardMeta> {
    let meta = ShardMeta { shards, seed };
    let tmp_path = format!("{path}.tmp");
    {
        let mut f = env.new_writable(&tmp_path, IoClass::Other)?;
        f.append(meta.encode().as_bytes())?;
        f.sync()?;
    }
    env.rename(&tmp_path, path)?;
    Ok(meta)
}

/// Open the `n` members of a sharded store under `base.dir` and its
/// coordinator. Each member gets a [`UsageEnv`] of its own over `raw`,
/// so its stats count only its own files and traffic; the coordinator
/// writes through the root's (`base.env`), so its log bytes count toward
/// the global budget.
///
/// One block cache and one throttle serve the whole set; the usage
/// source sums every member's ledger plus the root's (routing meta,
/// coordinator log), so the §III-D limit is a single global budget no
/// matter which shard admits the write — and checking it is O(shards)
/// atomic loads, not a directory walk.
fn open_set(
    base: &Options,
    raw: &EnvRef,
    n: usize,
    root_space: Arc<SpaceTracker>,
    throttle: Arc<Throttle>,
    cache: Arc<BlockCache>,
) -> Result<(Vec<Shard>, Coordinator)> {
    // Every member's ledger comes first, so the usage source closes over
    // the complete set before any member opens.
    let mut ledgers = vec![root_space];
    let mut members = Vec::with_capacity(n);
    for i in 0..n {
        let dir = format!("{}/shard-{i:03}", base.dir);
        let (env, space) = UsageEnv::wrap(raw.clone(), &format!("{dir}/"), None)?;
        ledgers.push(space.clone());
        members.push((
            Options {
                dir,
                env,
                ..base.clone()
            },
            space,
        ));
    }
    let wiring = Wiring {
        throttle,
        usage: Arc::new(move || ledgers.iter().map(|t| t.total()).sum()),
        cache,
        shared_cache: true,
        coordinated: true,
    };
    let shards = members
        .into_iter()
        .map(|(opts, space)| Shard::open(opts, space, &wiring))
        .collect::<Result<Vec<_>>>()?;

    // All members are open: roll forward every multi-shard batch whose
    // 2PC prepare is still in the coordinator log (a member may have lost
    // its unsynced apply), then start a fresh log.
    let coord = Coordinator::open(&base.env, &base.dir, &shards)?;
    Ok((shards, coord))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::EngineMode;
    use bytes::Bytes;
    use scavenger_env::MemEnv;
    use scavenger_lsm::WriteBatch;

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
        assert_send_sync::<crate::ReadView>();
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

    /// A user-made `ValueRef` would make a later `get` resolve an
    /// arbitrary file and offset: every handle refuses it before
    /// routing, a plain store included.
    #[test]
    fn value_ref_in_sharded_batch_is_invalid_argument() {
        for shards in [2, 1] {
            let db = DbShards::open(small_sharded("shards-vref", shards)).unwrap();
            let seqs = || {
                (0..shards)
                    .map(|i| db.shard(i).lsm().last_sequence())
                    .collect::<Vec<_>>()
            };
            let before = seqs();
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
            assert!(
                matches!(err, Error::InvalidArgument(_)),
                "{shards}: {err:?}"
            );
            assert!(
                db.get("k").unwrap().is_none(),
                "{shards}: nothing was applied"
            );
            assert_eq!(seqs(), before, "{shards}: no sequence was consumed");
        }
    }
}
