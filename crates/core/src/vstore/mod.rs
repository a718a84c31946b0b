//! The value store: value-file registry, garbage accounting, inheritance,
//! and reference resolution.
//!
//! This is where the paper's space-amplification bookkeeping lives
//! (§II-D): every value file tracks its **exposed garbage** — bytes whose
//! index entries have already been merged away by compaction. The
//! ratio-triggered GC consumes this accounting; the experiment harness
//! reads it to reproduce Figures 5 and 18.
//!
//! It is also the only place a value file is written: every producer
//! (flush, BlobDB relocation, both GC schemes) appends through
//! `route::RouteWriters`, the one caller of [`vtable::VWriter::create`],
//! which numbers each file from the index tree's
//! [`FileNumbers`](scavenger_lsm::FileNumbers). And the only place one is
//! opened: the store keeps one reader per live file in a [`ReaderMap`] —
//! the map the index tree keeps its key SSTs in — and reads through the
//! member's [`StoreCache`], which names the file's cached blocks. A file
//! a job of this process wrote gets its reader born, built from the tail
//! its writer held once the job has committed (`ValueStore::adopt`);
//! any other file's is opened by its first lookup
//! ([`ValueStore::reader`]).
//!
//! The store learns every committed value edit one way: the engine's
//! [`ValueHook`](scavenger_lsm::ValueHook), whose `on_committed` the
//! index tree calls for a flush's, a compaction's and a GC's edit, and
//! for each bundle its MANIFEST replays at open. It applies the bundle
//! ([`ValueStore::apply_bundle`]) and adopts the born readers.
//!
//! And the only place one is unlinked late. Where a scheme cannot let
//! go of a file at once — Titan after its write-back, BlobDB once
//! compaction has exhausted a blob file (§II-B, §II-C) — it
//! retires the file behind a read-point barrier (`ValueStore::retire`);
//! `ValueStore::reap` unlinks what the oldest read point has
//! passed. The GC candidate list, the pinned-bytes gauge and the
//! throttle's discount all read that one queue.

pub(crate) mod fetch;
pub mod inherit;
pub(crate) mod route;
pub mod vtable;

use crate::options::VFormat;
use bytes::Bytes;
use fetch::Want;
use inherit::{Files, InheritForest};
use parking_lot::{Mutex, RwLock};
use scavenger_env::{EnvRef, IoClass};
use scavenger_lsm::{BornTails, Lsm, NewValueFile, ValueEditBundle};
use scavenger_table::cache::{ReaderMap, StoreCache};
use scavenger_table::props::TableType;
use scavenger_table::Tail;
use scavenger_util::hash::IntMap;
use scavenger_util::ikey::{lookup_key, KeyBuf, SeqNo, ValueRef, ValueType, MAX_SEQNO};
use scavenger_util::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vtable::{vfile_path, BlobRecord, VReader, ValueAt};

/// Metadata for one value file.
#[derive(Debug)]
pub struct VsstMeta {
    /// File number.
    pub file: u64,
    /// On-disk size.
    pub size: u64,
    /// Number of records.
    pub entries: u64,
    /// Total value bytes stored.
    pub value_bytes: u64,
    /// Hot-classified file (paper §III-B3).
    pub hot: bool,
    /// On-disk format.
    pub format: VFormat,
    /// Exposed garbage, bytes.
    pub exposed_bytes: AtomicU64,
    /// Exposed garbage, entries.
    pub exposed_entries: AtomicU64,
}

impl VsstMeta {
    /// Exposed-garbage ratio in `[0, 1]` — the GC trigger metric.
    pub fn garbage_ratio(&self) -> f64 {
        if self.value_bytes == 0 {
            return if self.entries > 0 { 1.0 } else { 0.0 };
        }
        (self.exposed_bytes.load(Ordering::Relaxed) as f64 / self.value_bytes as f64).min(1.0)
    }

    /// True once every record has been exposed as garbage (BlobDB's
    /// deletion condition: the file "exhausted its data through
    /// compaction", §II-C).
    pub fn is_exhausted(&self) -> bool {
        self.entries > 0 && self.exposed_entries.load(Ordering::Relaxed) >= self.entries
    }

    /// Estimated live value bytes remaining.
    pub fn live_bytes(&self) -> u64 {
        self.value_bytes
            .saturating_sub(self.exposed_bytes.load(Ordering::Relaxed))
    }
}

fn format_tag(format: VFormat) -> u8 {
    match format {
        VFormat::BTable => TableType::BTable as u8,
        VFormat::RTable => TableType::RTable as u8,
        VFormat::BlobLog => TableType::BlobLog as u8,
    }
}

fn tag_format(tag: u8) -> Result<VFormat> {
    match tag {
        t if t == TableType::BTable as u8 => Ok(VFormat::BTable),
        t if t == TableType::RTable as u8 => Ok(VFormat::RTable),
        t if t == TableType::BlobLog as u8 => Ok(VFormat::BlobLog),
        other => Err(Error::corruption(format!(
            "bad value-file format tag {other}"
        ))),
    }
}

/// A reference whose value no live file holds.
fn dangling(user_key: &[u8], seq: SeqNo, vref: &ValueRef) -> Error {
    Error::corruption(format!(
        "dangling value reference: file {} (user key {} bytes, seq {seq})",
        vref.file,
        user_key.len()
    ))
}

/// Build the manifest record for a new value file.
pub fn new_value_file_record(
    file: u64,
    info: vtable::VFileInfo,
    hot: bool,
    format: VFormat,
) -> NewValueFile {
    NewValueFile {
        file,
        size: info.size,
        entries: info.entries,
        value_bytes: info.value_bytes,
        hot,
        format: format_tag(format),
    }
}

/// A value reference resolved by [`ValueStore::locate`]: the live file
/// that holds the value now, the file's reader, and where
/// in the file the value sits. Holding the reader keeps the file's bytes
/// reachable even if a GC retires it before the fetch.
pub struct ValueLoc {
    /// The file holding the value: the referenced one, or the heir that
    /// inherited the record.
    pub file: u64,
    reader: Arc<VReader>,
    at: ValueAt,
    /// Internal key of the record (a blob record's user key is checked).
    ikey: KeyBuf,
}

/// Value files retired behind one barrier: no longer GC candidates,
/// still registered and on disk while a read point below `barrier` may
/// address them.
struct Retired {
    barrier: SeqNo,
    files: Vec<u64>,
}

/// The value store.
pub struct ValueStore {
    env: EnvRef,
    dir: String,
    cache: StoreCache,
    files: RwLock<IntMap<u64, Arc<VsstMeta>>>,
    forest: RwLock<InheritForest>,
    readers: ReaderMap<VReader>,
    /// Whether the garbage charge that exhausts a file retires it
    /// (BlobDB's reclamation rule).
    retire_exhausted: bool,
    /// The retirement queue: every value file whose unlink waits on a
    /// read point.
    retired: Mutex<Vec<Retired>>,
}

impl ValueStore {
    /// Create an empty value store rooted at `dir`, reading through the
    /// store's `cache`.
    pub fn new(env: EnvRef, dir: impl Into<String>, cache: StoreCache) -> Self {
        ValueStore {
            env,
            dir: dir.into(),
            cache,
            files: RwLock::new(IntMap::default()),
            forest: RwLock::new(InheritForest::new()),
            readers: ReaderMap::default(),
            retire_exhausted: false,
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Retire each file at [`MAX_SEQNO`] when the garbage charge that
    /// exhausts it lands (BlobDB, §II-C). Relocation moves records
    /// inside compaction without advancing the sequence, so no sequence
    /// tells a reader that may still address the file from one that
    /// cannot: any read point holds it.
    pub(crate) fn retiring_exhausted(mut self, on: bool) -> Self {
        self.retire_exhausted = on;
        self
    }

    /// Apply a committed bundle: register its new files, record its
    /// inheritance edges and garbage, and retire its deleted files —
    /// their readers, cached blocks and disk files included.
    pub fn apply_bundle(&self, bundle: &ValueEditBundle) {
        for nf in &bundle.new_files {
            if let Ok(format) = tag_format(nf.format) {
                self.files.write().insert(
                    nf.file,
                    Arc::new(VsstMeta {
                        file: nf.file,
                        size: nf.size,
                        entries: nf.entries,
                        value_bytes: nf.value_bytes,
                        hot: nf.hot,
                        format,
                        exposed_bytes: AtomicU64::new(0),
                        exposed_entries: AtomicU64::new(0),
                    }),
                );
            }
        }
        {
            let mut forest = self.forest.write();
            for (old, new) in &bundle.inherits {
                forest.add_edge(*old, *new);
            }
        }
        for (file, bytes, entries) in &bundle.garbage {
            self.add_garbage(*file, *bytes, *entries);
        }
        for file in &bundle.deleted_files {
            // Out of `files` before out of `readers`: a reader inserted
            // after this eviction is evicted by `reader` itself.
            let removed = self.files.write().remove(file);
            if let Some(meta) = removed {
                self.forget(*file);
                let _ = self
                    .env
                    .remove_file(&vfile_path(&self.dir, *file, meta.format));
            }
        }
        if !bundle.deleted_files.is_empty() {
            self.retired.lock().retain_mut(|r| {
                r.files.retain(|f| !bundle.deleted_files.contains(f));
                !r.files.is_empty()
            });
        }
    }

    /// Keep, for each registered file in `born`, the reader built from
    /// the tail its writer held: the files' bundle has committed and been
    /// applied, and the build reads nothing. A reader whose file a commit
    /// removed meanwhile is evicted again, as in [`reader`](Self::reader).
    /// Best effort: a failed build leaves the file to its first lookup.
    pub(crate) fn adopt(&self, born: BornTails) {
        for (file, tail) in born {
            if let Ok(reader) = self.open_reader(file, Some(tail)) {
                self.readers.insert(file, reader);
                if !self.files.read().contains_key(&file) {
                    self.forget(file);
                }
            }
        }
    }

    /// Retire `files` behind `barrier`: they stop being GC candidates now
    /// and stay on disk until a [`reap`](Self::reap) finds no read point
    /// below `barrier`. Titan's write-back retires its candidates at the
    /// write-back commit sequence — a reader at or above it sees the
    /// relocated references; an exhausted BlobDB file is retired at
    /// [`MAX_SEQNO`] (see [`retiring_exhausted`](Self::retiring_exhausted)).
    pub(crate) fn retire(&self, barrier: SeqNo, files: Vec<u64>) {
        self.retired.lock().push(Retired { barrier, files });
    }

    /// Whether any retired file awaits its unlink — checked before
    /// [`reap`](Self::reap), so a write with nothing to reap takes no
    /// other lock.
    pub(crate) fn has_retired(&self) -> bool {
        !self.retired.lock().is_empty()
    }

    /// Unlink, in one manifest edit, every retired file whose barrier the
    /// oldest read point has passed. The queue is read before the read
    /// points: a reader that registers after that observes the state
    /// every queued retirement left behind, which no longer addresses
    /// the files. The edit commits through the index tree
    /// ([`Lsm::apply_value_edit`]), whose hook applies it; a failed edit
    /// leaves them queued for the next reap. Callers serialize reaps with
    /// GC jobs, which retire files.
    pub(crate) fn reap(&self, lsm: &Lsm) -> Result<()> {
        let ripe: Vec<u64> = {
            let queue = self.retired.lock();
            if queue.is_empty() {
                return Ok(());
            }
            let oldest = lsm.oldest_read_point();
            queue
                .iter()
                .filter(|r| oldest.is_none_or(|o| o >= r.barrier))
                .flat_map(|r| r.files.iter().copied())
                .collect()
        };
        if ripe.is_empty() {
            return Ok(());
        }
        let bundle = ValueEditBundle {
            deleted_files: ripe,
            ..Default::default()
        };
        lsm.apply_value_edit(bundle, BornTails::new())
    }

    /// Bytes of retired files a live read point still holds on disk:
    /// space no reclamation can free until that reader is gone.
    pub(crate) fn pinned_bytes(&self, lsm: &Lsm) -> u64 {
        let held: Vec<u64> = {
            let queue = self.retired.lock();
            let Some(oldest) = queue.first().and_then(|_| lsm.oldest_read_point()) else {
                return 0;
            };
            queue
                .iter()
                .filter(|r| oldest < r.barrier)
                .flat_map(|r| r.files.iter().copied())
                .collect()
        };
        held.iter()
            .filter_map(|&file| self.meta(file))
            .map(|m| m.size)
            .sum()
    }

    /// Charge exposed garbage to `file`, resolving through the inheritance
    /// forest if the file was already collected. (Resolution at charge
    /// time may pick among several leaves; the first live one is charged —
    /// an approximation that only shifts *which* descendant is collected
    /// first, never the total.) Under BlobDB the charge that exhausts a
    /// file retires it.
    pub fn add_garbage(&self, file: u64, bytes: u64, entries: u64) {
        let exhausted = {
            let files = self.files.read();
            let holder = files.get(&file).or_else(|| {
                let leaves = self.forest.read().leaves(file);
                leaves.iter().find_map(|leaf| files.get(leaf))
            });
            // The entire lineage is gone; nothing to charge.
            let Some(meta) = holder else { return };
            meta.exposed_bytes.fetch_add(bytes, Ordering::Relaxed);
            let before = meta.exposed_entries.fetch_add(entries, Ordering::Relaxed);
            (before < meta.entries && before + entries >= meta.entries).then_some(meta.file)
        };
        if let Some(file) = exhausted.filter(|_| self.retire_exhausted) {
            self.retire(MAX_SEQNO, vec![file]);
        }
    }

    /// Metadata of a live file.
    pub fn meta(&self, file: u64) -> Option<Arc<VsstMeta>> {
        self.files.read().get(&file).cloned()
    }

    /// All live files, in file-number order (deterministic).
    pub fn all_files(&self) -> Vec<Arc<VsstMeta>> {
        let mut v: Vec<Arc<VsstMeta>> = self.files.read().values().cloned().collect();
        v.sort_unstable_by_key(|m| m.file);
        v
    }

    /// Live file numbers, ascending (deterministic — callers iterate
    /// these for orphan cleanup and relocation targeting).
    pub fn live_file_numbers(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.files.read().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// GC candidates: live files with `garbage_ratio >= threshold`,
    /// hottest-garbage first (paper: "prioritizes files with higher
    /// garbage ratios"). Equal ratios break by file number so candidate
    /// selection — and therefore the whole GC job sequence — is
    /// deterministic rather than following `HashMap` iteration order.
    /// Retired files are not candidates: their records are dead in the
    /// index, so collecting them again would reclaim nothing.
    pub fn gc_candidates(&self, threshold: f64) -> Vec<Arc<VsstMeta>> {
        let retired: Vec<u64> = self
            .retired
            .lock()
            .iter()
            .flat_map(|r| r.files.iter().copied())
            .collect();
        let mut v: Vec<Arc<VsstMeta>> = self
            .files
            .read()
            .values()
            .filter(|m| m.garbage_ratio() >= threshold && !retired.contains(&m.file))
            .cloned()
            .collect();
        v.sort_by(|a, b| {
            b.garbage_ratio()
                .partial_cmp(&a.garbage_ratio())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.file.cmp(&b.file))
        });
        v
    }

    /// Total bytes across live value files.
    pub fn total_bytes(&self) -> u64 {
        self.files.read().values().map(|m| m.size).sum()
    }

    /// Total exposed garbage bytes (the numerator of the paper's
    /// Exposed/Valid ratio, Fig. 5b / 18b).
    pub fn total_exposed_bytes(&self) -> u64 {
        self.files
            .read()
            .values()
            .map(|m| m.exposed_bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// Current holders of whatever survived from `file`, ascending.
    pub fn resolve_leaves(&self, file: u64) -> Files {
        self.forest.read().leaves(file)
    }

    /// GC validity: does `candidate` descend from `file`?
    pub fn resolves_to(&self, file: u64, candidate: u64) -> bool {
        self.forest.read().resolves_to(file, candidate)
    }

    /// Format of live value file `file`.
    fn format_of(&self, file: u64) -> Result<VFormat> {
        self.meta(file)
            .map(|m| m.format)
            .ok_or_else(|| Error::not_found(format!("value file {file}")))
    }

    /// The reader of `file`: one per live value file, born with it
    /// (`ValueStore::adopt`) or opened by whoever reads it first, and
    /// shared by every later read — foreground gets,
    /// scans, GC's Lazy Read and BlobDB relocation alike. Its handle is
    /// opened as `FgValueRead`; a job charges its own reads to another
    /// class with [`reads_charged_to`](scavenger_env::reads_charged_to).
    /// A reader opened while a GC commit removed the file still serves
    /// its caller, but is not kept: the commit drops the file from
    /// `files` before it evicts the reader, so the opener, which inserts
    /// before it looks at `files`, evicts a reader the commit missed.
    pub fn reader(&self, file: u64) -> Result<Arc<VReader>> {
        let mut opened = false;
        let reader = self.readers.get_or_open(file, || {
            opened = true;
            self.open_reader(file, None)
        })?;
        if opened && !self.files.read().contains_key(&file) {
            self.forget(file);
        }
        Ok(reader)
    }

    /// Let go of `file`, which a commit removed: its reader and its
    /// blocks in the cache leave together.
    fn forget(&self, file: u64) {
        self.readers.evict(file);
        self.cache.erase(file);
    }

    /// Open live file `file`'s reader, as `FgValueRead`, through the
    /// store's cache: built from `tail` when its writer handed one over,
    /// else from one tail read.
    fn open_reader(&self, file: u64, tail: Option<Tail>) -> Result<VReader> {
        let format = self.format_of(file)?;
        let cache = Some(&self.cache);
        VReader::open(
            &self.env,
            &self.dir,
            file,
            format,
            tail,
            cache,
            IoClass::FgValueRead,
        )
    }

    /// Numbers of the value files whose reader the store keeps,
    /// ascending.
    pub fn reader_files(&self) -> Vec<u64> {
        self.readers.file_numbers()
    }

    /// GC full scan of `file`, accounted as GC read: every record with
    /// its value, the whole file read in device-sized ops
    /// ([`VReader::scan_file`]).
    pub fn gc_scan(&self, file: u64) -> Result<Vec<BlobRecord>> {
        let format = self.format_of(file)?;
        VReader::scan_file(&self.env, &self.dir, file, format, IoClass::GcRead)
    }

    /// **Locate**: resolve a reference to the live file and in-file
    /// location that hold its value right now, reading no record bytes
    /// (BTables excepted — see [`ValueAt::Cached`]). The reference's
    /// offset is load-bearing, not informational: a live file is read at
    /// it.
    ///
    /// * A live RTable or blob log is addressed: the reference was
    ///   written by the file's own writer (file numbers are never
    ///   reused), so [`ValueAt::record`] / [`ValueAt::blob`] derive the
    ///   whole record's span from it — no bloom probe, no index search.
    /// * A live BTable is looked up by key: one bloom probe and one index
    ///   lookup, its value block through the block cache.
    /// * A reference to a file GC collected resolves through the leaves
    ///   of its subtree in the inheritance forest; each candidate costs
    ///   one bloom probe and, if that passes, one lookup in the reader's
    ///   own index for the exact `(user_key, seq)` version.
    ///
    /// A concurrent GC can retire a file between the resolution and the
    /// reader open; on that narrow race the resolution runs once more
    /// (the forest already knows the file's heirs).
    pub fn locate(&self, user_key: &[u8], seq: SeqNo, vref: &ValueRef) -> Result<ValueLoc> {
        match self.locate_once(user_key, seq, vref) {
            Err(Error::NotFound(_)) => self.locate_once(user_key, seq, vref),
            other => other,
        }
    }

    fn locate_once(&self, user_key: &[u8], seq: SeqNo, vref: &ValueRef) -> Result<ValueLoc> {
        let loc = |file, reader, at, ikey| ValueLoc {
            file,
            reader,
            at,
            ikey,
        };
        let ikey = lookup_key(user_key, seq, ValueType::Value);
        // Fast path: the file is live (no GC touched it).
        if let Some(meta) = self.meta(vref.file) {
            let reader = self.reader(vref.file)?;
            let at = match meta.format {
                VFormat::RTable => Some(ValueAt::record(user_key, vref)),
                VFormat::BlobLog => Some(ValueAt::blob(user_key, vref)?),
                VFormat::BTable => reader.locate(&ikey)?,
            };
            return match at {
                Some(at) => Ok(loc(vref.file, reader, at, ikey)),
                None => Err(dangling(user_key, seq, vref)),
            };
        }
        for &leaf in self.resolve_leaves(vref.file).iter() {
            if self.meta(leaf).is_none() {
                continue;
            }
            let reader = self.reader(leaf)?;
            if let Some(at) = reader.locate(&ikey)? {
                return Ok(loc(leaf, reader, at, ikey));
            }
        }
        Err(dangling(user_key, seq, vref))
    }

    /// **Fetch** a batch of located values, returned in input order:
    /// grouped per file, sorted by offset, neighbours under
    /// [`READ_SIZE`](scavenger_env::READ_SIZE) read in one I/O, around the
    /// block cache — the scan iterator's look-ahead. (GC step ③ runs the
    /// same grouping and coalescing loop over its Lazy-Read handles.)
    pub fn fetch(&self, locs: &[ValueLoc]) -> Result<Vec<Bytes>> {
        let wants: Vec<Want<'_>> = locs
            .iter()
            .map(|l| Want {
                file: l.file,
                reader: &l.reader,
                at: &l.at,
                ikey: &l.ikey,
            })
            .collect();
        fetch::fetch(&wants, &fetch::inline)
    }

    /// Resolve and read the value behind a reference — a point read:
    /// [`locate`](Self::locate) plus a fetch of one, with no batch
    /// plumbing in between. The record is served from the block cache, or
    /// read once — CRC-verified — and inserted at [`CachePriority::Bottom`](scavenger_table::cache::CachePriority::Bottom),
    /// so a repeat read of the same key costs no value I/O. Its key is
    /// checked against `(user_key, seq)` on a hit too. A cold read of a
    /// live RTable or blob log costs that one read and nothing else.
    pub fn read_ref(&self, user_key: &[u8], seq: SeqNo, vref: &ValueRef) -> Result<Bytes> {
        let loc = self.locate(user_key, seq, vref)?;
        loc.reader.fetch_one(&loc.at, &loc.ikey)
    }

    /// Remove on-disk value files not present in the registry (crash
    /// leftovers). Returns how many were removed.
    pub fn delete_orphans(&self) -> Result<usize> {
        use scavenger_lsm::filename::{parse_path, FileKind};
        let live: std::collections::HashSet<u64> = self.live_file_numbers().into_iter().collect();
        let mut removed = 0;
        for p in self.env.list_prefix(&format!("{}/", self.dir))? {
            if let Some((kind, n)) = parse_path(&self.dir, &p) {
                if matches!(kind, FileKind::ValueTable | FileKind::BlobLog) && !live.contains(&n) {
                    let _ = self.env.remove_file(&p);
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }

    /// Environment handle.
    pub fn env(&self) -> &EnvRef {
        &self.env
    }

    /// Directory prefix.
    pub fn dir(&self) -> &str {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::vtable::{VFileInfo, VWriter};
    use super::*;
    use scavenger_env::MemEnv;
    use scavenger_table::btable::BlockCache;

    fn cache(bytes: usize) -> StoreCache {
        StoreCache::new(Arc::new(BlockCache::with_capacity(bytes)), false)
    }

    fn store() -> ValueStore {
        let env: EnvRef = MemEnv::shared();
        ValueStore::new(env, "db", cache(1 << 20))
    }

    fn nf(file: u64, entries: u64, value_bytes: u64) -> NewValueFile {
        new_value_file_record(
            file,
            VFileInfo {
                size: value_bytes + 100,
                entries,
                value_bytes,
            },
            false,
            VFormat::RTable,
        )
    }

    #[test]
    fn register_and_garbage_ratio() {
        let vs = store();
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![nf(1, 10, 1000)],
            ..Default::default()
        });
        let m = vs.meta(1).unwrap();
        assert_eq!(m.garbage_ratio(), 0.0);
        vs.add_garbage(1, 250, 2);
        assert!((m.garbage_ratio() - 0.25).abs() < 1e-9);
        assert_eq!(m.live_bytes(), 750);
        assert!(!m.is_exhausted());
        vs.add_garbage(1, 750, 8);
        assert!(m.is_exhausted());
        assert!(!vs.has_retired(), "only BlobDB retires on exhaustion");
        assert_eq!(vs.gc_candidates(0.2).len(), 1);
    }

    #[test]
    fn the_exhausting_charge_retires_the_file_once() {
        let vs = store().retiring_exhausted(true);
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![nf(1, 10, 1000), nf(2, 10, 1000)],
            ..Default::default()
        });
        vs.add_garbage(1, 900, 9);
        assert!(!vs.has_retired());
        vs.add_garbage(1, 100, 1);
        vs.add_garbage(1, 100, 1); // a late charge past exhaustion
        vs.add_garbage(2, 500, 5);
        assert_eq!(vs.retired.lock().len(), 1);
        let files: Vec<u64> = vs.gc_candidates(0.2).iter().map(|m| m.file).collect();
        assert_eq!(files, vec![2], "a retired file is no GC candidate");
        // Unlinking the file takes it off the queue.
        vs.apply_bundle(&ValueEditBundle {
            deleted_files: vec![1],
            ..Default::default()
        });
        assert!(!vs.has_retired());
    }

    #[test]
    fn candidates_sorted_by_ratio() {
        let vs = store();
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![nf(1, 10, 1000), nf(2, 10, 1000), nf(3, 10, 1000)],
            ..Default::default()
        });
        vs.add_garbage(1, 300, 3);
        vs.add_garbage(2, 800, 8);
        vs.add_garbage(3, 100, 1);
        let c = vs.gc_candidates(0.2);
        let order: Vec<u64> = c.iter().map(|m| m.file).collect();
        assert_eq!(order, vec![2, 1], "ratio-desc, file 3 below threshold");
    }

    #[test]
    fn garbage_follows_inheritance_to_leaves() {
        let vs = store();
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![nf(1, 10, 1000)],
            ..Default::default()
        });
        // GC moved file 1 into file 2.
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![nf(2, 8, 800)],
            deleted_files: vec![1],
            inherits: vec![(1, 2)],
            ..Default::default()
        });
        assert!(vs.meta(1).is_none());
        // Late-arriving garbage for dead file 1 lands on its heir.
        vs.add_garbage(1, 400, 4);
        assert!((vs.meta(2).unwrap().garbage_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn totals_track_live_files_only() {
        let vs = store();
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![nf(1, 10, 1000), nf(2, 10, 2000)],
            ..Default::default()
        });
        vs.add_garbage(1, 100, 1);
        assert_eq!(vs.total_bytes(), 3200);
        assert_eq!(vs.total_exposed_bytes(), 100);
        vs.apply_bundle(&ValueEditBundle {
            deleted_files: vec![1],
            ..Default::default()
        });
        assert_eq!(vs.total_bytes(), 2100);
        assert_eq!(vs.total_exposed_bytes(), 0);
    }

    #[test]
    fn read_ref_resolves_through_gc_moves() {
        let env: EnvRef = MemEnv::shared();
        let vs = ValueStore::new(env.clone(), "db", cache(1 << 20));

        // Original file 5 holds k@7.
        let mut w = VWriter::create(&env, "db", 5, VFormat::RTable, IoClass::Flush).unwrap();
        let rec = w.add(b"k", 7, b"the-value").unwrap();
        let (info, _) = w.finish().unwrap();
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![new_value_file_record(5, info, false, VFormat::RTable)],
            ..Default::default()
        });
        let vref = ValueRef {
            file: 5,
            size: rec.size,
            offset: rec.offset,
        };
        assert_eq!(&vs.read_ref(b"k", 7, &vref).unwrap()[..], b"the-value");

        // GC moves contents to file 9; the stale ref still resolves.
        let mut w = VWriter::create(&env, "db", 9, VFormat::RTable, IoClass::GcWrite).unwrap();
        w.add(b"k", 7, b"the-value").unwrap();
        let (info, _) = w.finish().unwrap();
        assert!(env.file_exists("db/000005.vsst"));
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![new_value_file_record(9, info, false, VFormat::RTable)],
            deleted_files: vec![5],
            inherits: vec![(5, 9)],
            ..Default::default()
        });
        assert!(
            !env.file_exists("db/000005.vsst"),
            "applying the bundle deletes the files it removes"
        );
        assert_eq!(&vs.read_ref(b"k", 7, &vref).unwrap()[..], b"the-value");
        // A key that never existed: dangling.
        let bad = ValueRef {
            file: 5,
            size: 3,
            offset: 0,
        };
        assert!(vs.read_ref(b"zz", 1, &bad).is_err());
    }

    /// `MemEnv` whose next `open_random_access` opens the file, then
    /// meets the test at `gate` twice before it returns the handle.
    struct GatedEnv {
        inner: EnvRef,
        gate: Mutex<Option<Arc<std::sync::Barrier>>>,
    }

    impl scavenger_env::Env for GatedEnv {
        fn new_writable(
            &self,
            path: &str,
            class: IoClass,
        ) -> Result<Box<dyn scavenger_env::WritableFile>> {
            self.inner.new_writable(path, class)
        }
        fn open_random_access(
            &self,
            path: &str,
            class: IoClass,
        ) -> Result<Arc<dyn scavenger_env::RandomAccessFile>> {
            let f = self.inner.open_random_access(path, class)?;
            if let Some(gate) = self.gate.lock().take() {
                gate.wait();
                gate.wait();
            }
            Ok(f)
        }
        fn read_file(&self, path: &str, class: IoClass) -> Result<Bytes> {
            self.inner.read_file(path, class)
        }
        fn remove_file(&self, path: &str) -> Result<()> {
            self.inner.remove_file(path)
        }
        fn rename(&self, from: &str, to: &str) -> Result<()> {
            self.inner.rename(from, to)
        }
        fn file_exists(&self, path: &str) -> bool {
            self.inner.file_exists(path)
        }
        fn file_size(&self, path: &str) -> Result<u64> {
            self.inner.file_size(path)
        }
        fn list_prefix(&self, prefix: &str) -> Result<Vec<String>> {
            self.inner.list_prefix(prefix)
        }
        fn create_dir_all(&self, path: &str) -> Result<()> {
            self.inner.create_dir_all(path)
        }
        fn io_stats(&self) -> Arc<scavenger_env::IoStats> {
            self.inner.io_stats()
        }
    }

    /// A get that opens a file while a GC commit removes it still reads
    /// through the reader it opened, but the store does not keep that
    /// reader: file numbers are never reused, so nothing would drop it,
    /// and it would pin the removed file's bytes (an fd to an unlinked
    /// file on a real filesystem) for the life of the store.
    #[test]
    fn a_reader_opened_across_its_files_removal_is_not_kept() {
        let gate = Arc::new(std::sync::Barrier::new(2));
        let mem: EnvRef = MemEnv::shared();
        let gated = Arc::new(GatedEnv {
            inner: mem.clone(),
            gate: Mutex::new(None),
        });
        let env: EnvRef = gated.clone();
        let vs = Arc::new(ValueStore::new(env.clone(), "db", cache(1 << 20)));
        let mut w = VWriter::create(&env, "db", 5, VFormat::RTable, IoClass::Flush).unwrap();
        w.add(b"k", 7, b"the-value").unwrap();
        let (info, _) = w.finish().unwrap();
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![new_value_file_record(5, info, false, VFormat::RTable)],
            ..Default::default()
        });

        *gated.gate.lock() = Some(gate.clone());
        let get = std::thread::spawn({
            let vs = vs.clone();
            move || {
                vs.reader(5)
                    .and_then(|r| r.locate(&lookup_key(b"k", 7, ValueType::Value)))
            }
        });
        gate.wait(); // the get has the file open
        vs.apply_bundle(&ValueEditBundle {
            deleted_files: vec![5],
            ..Default::default()
        });
        assert!(!mem.file_exists("db/000005.vsst"));
        gate.wait();
        assert!(get.join().unwrap().unwrap().is_some(), "the get is served");
        assert!(vs.readers.is_empty(), "the removed file's reader is kept");
        assert!(vs.reader(5).is_err(), "the file is gone");
    }

    #[test]
    fn orphan_cleanup_removes_unregistered_files() {
        let env = MemEnv::shared();
        let eref: EnvRef = env.clone();
        let vs = ValueStore::new(eref.clone(), "db", cache(1024));
        let mut w = VWriter::create(&eref, "db", 3, VFormat::RTable, IoClass::Flush).unwrap();
        w.add(b"k", 1, b"v").unwrap();
        w.finish().unwrap();
        assert!(eref.file_exists("db/000003.vsst"));
        assert_eq!(vs.delete_orphans().unwrap(), 1);
        assert!(!eref.file_exists("db/000003.vsst"));
    }
}
