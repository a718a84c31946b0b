//! Engine configuration: modes, feature toggles, and tuning knobs.
//!
//! [`Options`] holds only what some benchmark workload, test or figure
//! binary actually varies (ARCHITECTURE.md "Configuration" lists who
//! moves each field). Parameters nothing ever moved are constants next
//! to the code that reads them: [`SEP_THRESHOLD`](crate::hook::SEP_THRESHOLD),
//! [`GC_THRESHOLD`](crate::gc::GC_THRESHOLD),
//! [`DROPCACHE_KEYS`](crate::dropcache::DROPCACHE_KEYS),
//! [`THROTTLE_GC_FACTOR`](crate::throttle::THROTTLE_GC_FACTOR), and in
//! the index tree `L0_TRIGGER`, `BLOCK_SIZE`, `BLOOM_BITS_PER_KEY`
//! ([`scavenger_lsm::options`]) and `LEVEL_MULTIPLIER`
//! ([`scavenger_lsm::compaction`]).

use scavenger_env::EnvRef;
use scavenger_lsm::KTableFormat;
use scavenger_table::btable::BlockCache;
use std::sync::Arc;

/// The five engine designs the paper compares (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineMode {
    /// Vanilla leveled LSM-tree, values inline (RocksDB baseline).
    Rocks,
    /// KV separation with compaction-triggered relocation; blob files are
    /// reclaimed only once fully exhausted (BlobDB baseline, §II-C).
    BlobDb,
    /// KV separation with standalone GC that rewrites valid values and
    /// writes the new address back through the write path (Titan baseline).
    Titan,
    /// KV separation with no-writeback GC via file-number inheritance
    /// (TerarkDB baseline, §II-B).
    Terark,
    /// TerarkDB plus every contribution of the paper (§III).
    Scavenger,
}

impl EngineMode {
    /// All modes, in the paper's presentation order.
    pub const ALL: [EngineMode; 5] = [
        EngineMode::Rocks,
        EngineMode::BlobDb,
        EngineMode::Titan,
        EngineMode::Terark,
        EngineMode::Scavenger,
    ];

    /// Display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            EngineMode::Rocks => "RocksDB",
            EngineMode::BlobDb => "BlobDB",
            EngineMode::Titan => "Titan",
            EngineMode::Terark => "TerarkDB",
            EngineMode::Scavenger => "Scavenger",
        }
    }
}

/// On-disk format of value files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VFormat {
    /// Sorted value SST with a sparse index (TerarkDB's vSST).
    BTable,
    /// RecordBasedTable with a dense partitioned index (paper §III-B1).
    /// Under a keyed GC scheme (no write-back) this is **R**, Lazy Read:
    /// GC reads the dense index first and fetches only valid values.
    RTable,
    /// Append-ordered blob log, address-based (BlobDB/Titan).
    BlobLog,
}

/// Garbage-collection scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcScheme {
    /// No standalone GC; values relocate during index compaction and a
    /// file dies only when fully exhausted (BlobDB).
    CompactionTriggered,
    /// Standalone GC; valid values are rewritten and the new address is
    /// written back through the LSM write path (Titan).
    Writeback,
    /// Standalone GC with no index write-back: the new file inherits the
    /// old file's identity (TerarkDB / Scavenger).
    NoWriteback,
}

/// Individual design features; ablation experiments (paper Fig. 16/17)
/// toggle these directly. How GC *batches* its reads is not one of them:
/// every mode fetches survivors under
/// [`GC_COALESCE`](crate::vstore::GC_COALESCE) and walks whole files in
/// [`COALESCE_SPAN`](scavenger_table::rtable::COALESCE_SPAN) spans (the
/// paper's S-RH, §IV-A, for all — an engine-fair device-sized I/O).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// Separate values ≥ [`SEP_THRESHOLD`](crate::hook::SEP_THRESHOLD)
    /// into the value store at flush.
    pub separate: bool,
    /// Value-file format.
    pub vformat: VFormat,
    /// GC scheme (ignored when `separate` is false).
    pub gc: GcScheme,
    /// **L**: Index-record separation — key SSTs are DTables (§III-B2).
    /// A GC-Lookup iterates their KF streams only, through
    /// high-priority-cached KF blocks; it reads a KV block only to ask
    /// whether a reference it would keep is shadowed by a newer inline
    /// version (one bloom-guarded point search per covering file).
    pub dtable_index: bool,
    /// **W**: Hotness-aware writing — DropCache-guided hot/cold vSST
    /// routing at flush and GC (§III-B3).
    pub hotness: bool,
    /// **C**: Space-aware compaction by compensated size (§III-C).
    pub compensated: bool,
}

impl Features {
    /// The feature set of a baseline mode.
    pub fn for_mode(mode: EngineMode) -> Features {
        match mode {
            EngineMode::Rocks => Features {
                separate: false,
                vformat: VFormat::BTable,
                gc: GcScheme::NoWriteback,
                dtable_index: false,
                hotness: false,
                compensated: false,
            },
            EngineMode::BlobDb => Features {
                separate: true,
                vformat: VFormat::BlobLog,
                gc: GcScheme::CompactionTriggered,
                dtable_index: false,
                hotness: false,
                compensated: false,
            },
            EngineMode::Titan => Features {
                separate: true,
                vformat: VFormat::BlobLog,
                gc: GcScheme::Writeback,
                dtable_index: false,
                hotness: false,
                compensated: false,
            },
            EngineMode::Terark => Features {
                separate: true,
                vformat: VFormat::BTable,
                gc: GcScheme::NoWriteback,
                dtable_index: false,
                hotness: false,
                compensated: false,
            },
            EngineMode::Scavenger => Features {
                separate: true,
                vformat: VFormat::RTable,
                gc: GcScheme::NoWriteback,
                dtable_index: true,
                hotness: true,
                compensated: true,
            },
        }
    }

    /// TerarkDB + compensated compaction only — the paper's **TDB-C**
    /// ablation (Fig. 16a).
    pub fn tdb_compensated() -> Features {
        Features {
            compensated: true,
            ..Features::for_mode(EngineMode::Terark)
        }
    }
}

/// Options for opening a [`Db`](crate::db::Db).
#[derive(Clone)]
pub struct Options {
    /// Storage environment.
    pub env: EnvRef,
    /// Directory prefix for all files.
    pub dir: String,
    /// Base engine design.
    pub mode: EngineMode,
    /// Feature toggles (defaults to `Features::for_mode(mode)`).
    pub features: Features,
    /// Target value-SST size (paper: 256 MB; scaled default 1 MiB).
    pub vsst_target_size: u64,
    /// Max candidate files merged per GC job.
    pub gc_batch_files: usize,
    /// Run GC automatically on the write path when candidates exist.
    pub auto_gc: bool,
    /// Auto-GC bandwidth budget as a multiple of foreground write bytes
    /// (GC shares the device with foreground traffic; the paper's
    /// baselines fall behind garbage generation exactly because their GC
    /// needs many I/O bytes per reclaimed byte). Each paced job is
    /// charged [`GcOutcome::io_bytes`](crate::GcOutcome::io_bytes) — the
    /// bytes it asked for and wrote, as the job itself reports them, not
    /// the env-wide counters (which other engines on the same env share)
    /// and not the dead bytes a coalesced read rides through. Manual
    /// `run_gc` and throttle-driven GC are not paced.
    pub gc_bandwidth_factor: f64,
    /// Worker threads for fanning the GC Fetch phase's per-file coalesced
    /// reads out across source files, for every whole-file GC Read scan,
    /// and for [`DbShards`](crate::DbShards)' cross-shard maintenance
    /// fan-out. `1` disables the pool and makes maintenance fully
    /// sequential. GC outputs do not depend on it.
    ///
    /// ```
    /// use scavenger::{Db, EngineMode, MemEnv, Options};
    ///
    /// let mut opts = Options::new(MemEnv::shared(), "gc-threads-demo", EngineMode::Scavenger);
    /// opts.gc_threads = 1; // serial GC I/O, e.g. for reproducible accounting
    /// let db = Db::open(opts).unwrap();
    /// db.put(b"k", vec![0u8; 2048]).unwrap();
    /// db.flush().unwrap();
    /// ```
    pub gc_threads: usize,
    /// Space limit in bytes; `None` disables space-aware throttling
    /// (paper §III-D). When set, a write that finds the store over the
    /// limit triggers aggressive reclamation — GC at a lowered threshold
    /// plus forced compactions — before it is admitted.
    ///
    /// ```
    /// use scavenger::{Db, EngineMode, MemEnv, Options};
    ///
    /// let mut opts = Options::new(MemEnv::shared(), "quota-demo", EngineMode::Scavenger);
    /// opts.space_limit = Some(64 * 1024 * 1024); // 64 MiB global footprint cap
    /// let db = Db::open(opts).unwrap();
    /// db.put(b"k", vec![1u8; 4096]).unwrap();
    /// assert_eq!(db.stats().throttle_stalls, 0); // far under the quota
    /// ```
    pub space_limit: Option<u64>,
    /// Memtable size.
    pub memtable_size: usize,
    /// Base level target bytes (compensated units in Scavenger mode).
    pub base_level_bytes: u64,
    /// Key-SST target size.
    pub ksst_target_size: u64,
    /// Block cache capacity (paper: 1% of dataset).
    pub block_cache_bytes: usize,
    /// Run background work inline (deterministic) or on threads.
    pub inline_background: bool,
    /// How many times a *transient* failure of background work — flush,
    /// compaction, and the reaping and paced GC that follow a write — is
    /// retried, with bounded exponential backoff, before the engine
    /// degrades to read-only mode. Permanent failures (corruption,
    /// invariant violations) degrade immediately. A write that landed
    /// before its maintenance failed still returns its receipt; the next
    /// one fails fast with `Error::ReadOnlyMode`, as every write does
    /// until [`Db::resume`](crate::Db::resume) clears the state. A
    /// degraded engine serves reads, scans, and pinned views. Manual
    /// `flush` and `compact_all` fall under this rule too, and with
    /// `run_gc` return their errors.
    pub bg_retry_limit: usize,
    /// Base delay of the exponential backoff between background retries
    /// (`bg_retry_base * 2^attempt`).
    pub bg_retry_base: std::time::Duration,
    /// A block cache the caller supplies, e.g. to size it apart from the
    /// store or to share it between stores. When `None`,
    /// [`Db::open`](crate::Db::open) builds one of
    /// [`block_cache_bytes`](Self::block_cache_bytes). Either way that
    /// one cache serves every member of the set.
    pub block_cache: Option<Arc<BlockCache>>,
    /// Change-data-capture WAL retention budget, in bytes. Closed WAL
    /// segments are kept on disk for change-stream catch-up instead of
    /// being deleted, up to this many bytes of *speculative* history.
    /// History a registered subscriber still needs is always retained
    /// regardless of this budget (and accounted as pinned bytes toward
    /// the §III-D throttle). `0` (the default) disables speculative
    /// retention; change streams still work, but a disconnected
    /// subscriber can only resume as far back as live subscribers and
    /// the in-memory ring preserve.
    pub cdc_retention: u64,
    /// Byte budget of the in-memory change-event ring serving tailing
    /// subscribers; cursors that fall below the ring's floor catch up
    /// from retained WAL segments.
    pub cdc_ring_bytes: u64,
}

impl Options {
    /// Scaled defaults for the given mode: the paper's §IV-A setup with
    /// every size divided by ~256 (ARCHITECTURE.md "Configuration").
    pub fn new(env: EnvRef, dir: impl Into<String>, mode: EngineMode) -> Options {
        Options {
            env,
            dir: dir.into(),
            mode,
            features: Features::for_mode(mode),
            vsst_target_size: 1024 * 1024,
            gc_batch_files: 4,
            auto_gc: true,
            gc_bandwidth_factor: 1.0,
            gc_threads: 4,
            space_limit: None,
            memtable_size: 256 * 1024,
            base_level_bytes: 4 * 1024 * 1024,
            ksst_target_size: 256 * 1024,
            block_cache_bytes: 1024 * 1024,
            inline_background: true,
            bg_retry_limit: 3,
            bg_retry_base: std::time::Duration::from_millis(10),
            block_cache: None,
            cdc_retention: 0,
            cdc_ring_bytes: 1024 * 1024,
        }
    }

    /// Derive the index-LSM options (the value hook is attached by
    /// [`Db::open`](crate::db::Db::open)).
    pub(crate) fn lsm_options(&self) -> scavenger_lsm::LsmOptions {
        let mut o = scavenger_lsm::LsmOptions::new(self.env.clone(), self.dir.clone());
        o.memtable_size = self.memtable_size;
        o.base_level_bytes = self.base_level_bytes;
        o.target_file_size = self.ksst_target_size;
        o.compensated = self.features.compensated;
        o.ktable_format = if self.features.dtable_index {
            KTableFormat::DTable
        } else {
            KTableFormat::BTable
        };
        o.background = if self.inline_background {
            scavenger_lsm::BackgroundMode::Inline
        } else {
            scavenger_lsm::BackgroundMode::Threaded
        };
        o.bg_retry_limit = self.bg_retry_limit;
        o.bg_retry_base = self.bg_retry_base;
        o.cdc_retention = self.cdc_retention;
        o.cdc_ring_bytes = self.cdc_ring_bytes;
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::MemEnv;

    #[test]
    fn mode_feature_matrix_matches_paper() {
        let r = Features::for_mode(EngineMode::Rocks);
        assert!(!r.separate);

        let b = Features::for_mode(EngineMode::BlobDb);
        assert!(b.separate);
        assert_eq!(b.vformat, VFormat::BlobLog);
        assert_eq!(b.gc, GcScheme::CompactionTriggered);

        let t = Features::for_mode(EngineMode::Titan);
        assert_eq!(t.gc, GcScheme::Writeback);

        let k = Features::for_mode(EngineMode::Terark);
        assert_eq!(k.vformat, VFormat::BTable);
        assert_eq!(k.gc, GcScheme::NoWriteback);
        assert!(!k.compensated);

        let s = Features::for_mode(EngineMode::Scavenger);
        // Lazy Read is the RTable format under a keyed scheme.
        assert_eq!((s.vformat, s.gc), (VFormat::RTable, GcScheme::NoWriteback));
        assert!(s.dtable_index && s.hotness && s.compensated);
    }

    #[test]
    fn tdb_c_is_terark_plus_compensation_only() {
        let f = Features::tdb_compensated();
        assert!(f.compensated);
        assert!(!f.dtable_index && !f.hotness);
        // No Lazy Read: a BTable has no dense index to read first.
        assert_eq!(f.vformat, VFormat::BTable);
    }

    #[test]
    fn paper_constants_are_defaults() {
        assert_eq!(crate::hook::SEP_THRESHOLD, 512);
        assert_eq!(crate::gc::GC_THRESHOLD, 0.2);
        assert_eq!(crate::dropcache::DROPCACHE_KEYS, 64 * 1024);
        assert_eq!(crate::throttle::THROTTLE_GC_FACTOR, 0.25);
        assert_eq!(scavenger_lsm::compaction::LEVEL_MULTIPLIER, 10);
        let o = Options::new(MemEnv::shared(), "db", EngineMode::Scavenger);
        let l = o.lsm_options();
        assert_eq!((l.l0_trigger, l.block_size), (4, 4096));
        assert_eq!(l.table_options().bloom_bits_per_key, 10);
        assert!(o.space_limit.is_none());
        assert!(o.gc_threads >= 1);
    }

    #[test]
    fn lsm_options_inherit_format_and_scoring() {
        let o = Options::new(MemEnv::shared(), "db", EngineMode::Scavenger);
        let l = o.lsm_options();
        assert!(l.compensated);
        assert_eq!(l.ktable_format, KTableFormat::DTable);
        let o = Options::new(MemEnv::shared(), "db", EngineMode::Terark);
        let l = o.lsm_options();
        assert!(!l.compensated);
        assert_eq!(l.ktable_format, KTableFormat::BTable);
    }
}
