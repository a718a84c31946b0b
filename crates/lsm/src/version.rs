//! Versions, version edits, and the manifest.
//!
//! A [`Version`] is an immutable snapshot of the LSM-tree's file layout
//! (which key SSTs live at which level). Mutations are expressed as
//! [`VersionEdit`]s, logged to the MANIFEST (in the WAL record format) and
//! applied copy-on-write to produce the next version — LevelDB's classic
//! design. Edits reach the MANIFEST through its group-commit queue
//! ([`Manifest`]): edits queued behind a sync share the next one.
//!
//! Version edits also carry **value-store records** (new/deleted value
//! files, inheritance edges, exposed-garbage increments). The index LSM
//! owns the manifest, so these commit atomically with index changes; on
//! recovery they are replayed back to the value store in order.

use crate::filename::{current_path, manifest_path};
use crate::group::{GroupCommit, GroupLeader, Logged};
use crate::hooks::{NewValueFile, ValueEditBundle};
use crate::options::NUM_LEVELS;
use crate::wal::{read_all_records, LogWriter};
use scavenger_env::{EnvRef, IoClass};
use scavenger_table::props::ValueDep;
use scavenger_util::coding::{
    get_length_prefixed_slice, get_varint32, get_varint64, put_length_prefixed_slice, put_varint32,
    put_varint64,
};
use scavenger_util::ikey::{cmp_internal, extract_user_key, SeqNo};
use scavenger_util::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Metadata for one key SST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMetaData {
    /// File number.
    pub file_number: u64,
    /// On-disk size in bytes.
    pub file_size: u64,
    /// Smallest internal key in the file.
    pub smallest: Vec<u8>,
    /// Largest internal key in the file.
    pub largest: Vec<u8>,
    /// Number of entries.
    pub num_entries: u64,
    /// Total bytes of separated values referenced by this file — the
    /// *compensation* term of the paper's compensated size (§III-C).
    pub ref_bytes: u64,
    /// Per-value-file dependency stats.
    pub deps: Vec<ValueDep>,
}

impl FileMetaData {
    /// `file_size + ref_bytes`: the size this file would have had in a
    /// non-separated LSM-tree.
    pub fn compensated_size(&self) -> u64 {
        self.file_size + self.ref_bytes
    }

    /// True if the file's user-key range contains `ukey`.
    pub fn user_range_contains(&self, ukey: &[u8]) -> bool {
        extract_user_key(&self.smallest) <= ukey && ukey <= extract_user_key(&self.largest)
    }

    /// True if the file's user-key range overlaps `[lo, hi]`
    /// (`None` bounds are unbounded).
    pub fn user_range_overlaps(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> bool {
        let smallest = extract_user_key(&self.smallest);
        let largest = extract_user_key(&self.largest);
        if let Some(h) = hi {
            if smallest > h {
                return false;
            }
        }
        if let Some(l) = lo {
            if largest < l {
                return false;
            }
        }
        true
    }
}

/// A change to the file layout and/or the value store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionEdit {
    /// Updated next-file-number counter.
    pub next_file_number: Option<u64>,
    /// Updated last-sequence counter.
    pub last_sequence: Option<SeqNo>,
    /// WAL number below which logs are obsolete.
    pub log_number: Option<u64>,
    /// Files added, as `(level, meta)`.
    pub added: Vec<(usize, FileMetaData)>,
    /// Files removed, as `(level, file_number)`.
    pub deleted: Vec<(usize, u64)>,
    /// Value-store changes.
    pub value: ValueEditBundle,
}

impl VersionEdit {
    /// True if the edit changes nothing.
    pub fn is_empty(&self) -> bool {
        self.next_file_number.is_none()
            && self.last_sequence.is_none()
            && self.log_number.is_none()
            && self.added.is_empty()
            && self.deleted.is_empty()
            && self.value.is_empty()
    }

    /// Serialize to a manifest record.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(128);
        if let Some(n) = self.next_file_number {
            v.push(1);
            put_varint64(&mut v, n);
        }
        if let Some(n) = self.last_sequence {
            v.push(2);
            put_varint64(&mut v, n);
        }
        if let Some(n) = self.log_number {
            v.push(3);
            put_varint64(&mut v, n);
        }
        for (level, f) in &self.added {
            v.push(4);
            put_varint32(&mut v, *level as u32);
            put_varint64(&mut v, f.file_number);
            put_varint64(&mut v, f.file_size);
            put_length_prefixed_slice(&mut v, &f.smallest);
            put_length_prefixed_slice(&mut v, &f.largest);
            put_varint64(&mut v, f.num_entries);
            put_varint64(&mut v, f.ref_bytes);
            put_varint32(&mut v, f.deps.len() as u32);
            for d in &f.deps {
                put_varint64(&mut v, d.file);
                put_varint64(&mut v, d.entries);
                put_varint64(&mut v, d.ref_bytes);
            }
        }
        for (level, file) in &self.deleted {
            v.push(5);
            put_varint32(&mut v, *level as u32);
            put_varint64(&mut v, *file);
        }
        for f in &self.value.new_files {
            v.push(6);
            put_varint64(&mut v, f.file);
            put_varint64(&mut v, f.size);
            put_varint64(&mut v, f.entries);
            put_varint64(&mut v, f.value_bytes);
            v.push(u8::from(f.hot));
            v.push(f.format);
        }
        for f in &self.value.deleted_files {
            v.push(7);
            put_varint64(&mut v, *f);
        }
        for (old, new) in &self.value.inherits {
            v.push(8);
            put_varint64(&mut v, *old);
            put_varint64(&mut v, *new);
        }
        for (file, bytes, entries) in &self.value.garbage {
            v.push(9);
            put_varint64(&mut v, *file);
            put_varint64(&mut v, *bytes);
            put_varint64(&mut v, *entries);
        }
        v
    }

    /// Parse a manifest record.
    pub fn decode(mut src: &[u8]) -> Result<VersionEdit> {
        let mut edit = VersionEdit::default();
        while !src.is_empty() {
            let tag = src[0];
            src = &src[1..];
            match tag {
                1 => edit.next_file_number = Some(get_varint64(&mut src)?),
                2 => edit.last_sequence = Some(get_varint64(&mut src)?),
                3 => edit.log_number = Some(get_varint64(&mut src)?),
                4 => {
                    let level = get_varint32(&mut src)? as usize;
                    let file_number = get_varint64(&mut src)?;
                    let file_size = get_varint64(&mut src)?;
                    let smallest = get_length_prefixed_slice(&mut src)?.to_vec();
                    let largest = get_length_prefixed_slice(&mut src)?.to_vec();
                    let num_entries = get_varint64(&mut src)?;
                    let ref_bytes = get_varint64(&mut src)?;
                    let ndeps = get_varint32(&mut src)? as usize;
                    let mut deps = Vec::with_capacity(ndeps.min(1024));
                    for _ in 0..ndeps {
                        deps.push(ValueDep {
                            file: get_varint64(&mut src)?,
                            entries: get_varint64(&mut src)?,
                            ref_bytes: get_varint64(&mut src)?,
                        });
                    }
                    edit.added.push((
                        level,
                        FileMetaData {
                            file_number,
                            file_size,
                            smallest,
                            largest,
                            num_entries,
                            ref_bytes,
                            deps,
                        },
                    ));
                }
                5 => {
                    let level = get_varint32(&mut src)? as usize;
                    let file = get_varint64(&mut src)?;
                    edit.deleted.push((level, file));
                }
                6 => {
                    let file = get_varint64(&mut src)?;
                    let size = get_varint64(&mut src)?;
                    let entries = get_varint64(&mut src)?;
                    let value_bytes = get_varint64(&mut src)?;
                    if src.len() < 2 {
                        return Err(Error::corruption("truncated value-file record"));
                    }
                    let hot = src[0] != 0;
                    let format = src[1];
                    src = &src[2..];
                    edit.value.new_files.push(NewValueFile {
                        file,
                        size,
                        entries,
                        value_bytes,
                        hot,
                        format,
                    });
                }
                7 => edit.value.deleted_files.push(get_varint64(&mut src)?),
                8 => {
                    let old = get_varint64(&mut src)?;
                    let new = get_varint64(&mut src)?;
                    edit.value.inherits.push((old, new));
                }
                9 => {
                    let file = get_varint64(&mut src)?;
                    let bytes = get_varint64(&mut src)?;
                    let entries = get_varint64(&mut src)?;
                    edit.value.garbage.push((file, bytes, entries));
                }
                other => {
                    return Err(Error::corruption(format!("unknown edit tag {other}")));
                }
            }
        }
        Ok(edit)
    }
}

/// Immutable snapshot of the LSM-tree's file layout.
#[derive(Debug, Clone)]
pub struct Version {
    /// `levels[0]` is sorted newest-first (by file number descending);
    /// deeper levels are sorted by smallest key and non-overlapping.
    pub levels: Vec<Vec<Arc<FileMetaData>>>,
}

impl Version {
    /// An empty version with [`NUM_LEVELS`] levels.
    pub fn empty() -> Version {
        Version {
            levels: vec![Vec::new(); NUM_LEVELS],
        }
    }

    /// Apply an edit, producing the next version.
    pub fn apply(&self, edit: &VersionEdit) -> Result<Version> {
        let mut levels = self.levels.clone();
        for (level, file) in &edit.deleted {
            let lv = levels
                .get_mut(*level)
                .ok_or_else(|| Error::corruption("delete level out of range"))?;
            let before = lv.len();
            lv.retain(|f| f.file_number != *file);
            if lv.len() == before {
                return Err(Error::internal(format!(
                    "deleting missing file {file} at level {level}"
                )));
            }
        }
        for (level, meta) in &edit.added {
            let lv = levels
                .get_mut(*level)
                .ok_or_else(|| Error::corruption("add level out of range"))?;
            lv.push(Arc::new(meta.clone()));
        }
        // Restore invariants.
        levels[0].sort_by_key(|f| std::cmp::Reverse(f.file_number));
        for lv in levels.iter_mut().skip(1) {
            lv.sort_by(|a, b| cmp_internal(&a.smallest, &b.smallest));
            debug_assert!(
                lv.windows(2).all(|w| {
                    extract_user_key(&w[0].largest) < extract_user_key(&w[1].smallest)
                }),
                "level files must be disjoint"
            );
        }
        Ok(Version { levels })
    }

    /// Total bytes at `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|f| f.file_size).sum()
    }

    /// Total compensated bytes at `level` (paper §III-C).
    pub fn level_compensated(&self, level: usize) -> u64 {
        self.levels[level]
            .iter()
            .map(|f| f.compensated_size())
            .sum()
    }

    /// Number of files at `level`.
    pub fn num_files(&self, level: usize) -> usize {
        self.levels[level].len()
    }

    /// Total key-SST bytes across all levels.
    pub fn total_bytes(&self) -> u64 {
        (0..self.levels.len()).map(|l| self.level_bytes(l)).sum()
    }

    /// Total number of files.
    pub fn total_files(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Deepest level holding any file, or `None` if the tree is empty.
    pub fn bottommost_nonempty_level(&self) -> Option<usize> {
        (0..self.levels.len())
            .rev()
            .find(|&l| !self.levels[l].is_empty())
    }

    /// Files at `level` whose user-key range overlaps `[lo, hi]`.
    pub fn overlapping_files(
        &self,
        level: usize,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
    ) -> Vec<Arc<FileMetaData>> {
        self.levels[level]
            .iter()
            .filter(|f| f.user_range_overlaps(lo, hi))
            .cloned()
            .collect()
    }

    /// The files whose user-key range covers `ukey`, newest source first:
    /// every such L0 file (newest first), then at most one file per
    /// deeper level — the walk of a point lookup.
    pub fn files_covering<'a>(
        &'a self,
        ukey: &'a [u8],
    ) -> impl Iterator<Item = &'a Arc<FileMetaData>> + 'a {
        self.files_covering_within(ukey, usize::MAX, usize::MAX)
    }

    /// [`files_covering`](Version::files_covering) cut to the newest
    /// `l0_files` L0 files and the levels `1..=last_level`: the part of
    /// the tree no older than a given source of `ukey`.
    pub(crate) fn files_covering_within<'a>(
        &'a self,
        ukey: &'a [u8],
        l0_files: usize,
        last_level: usize,
    ) -> impl Iterator<Item = &'a Arc<FileMetaData>> + 'a {
        let (l0, deeper) = self.levels.split_first().expect("a version has levels");
        let l0 = &l0[..l0_files.min(l0.len())];
        let deeper = &deeper[..last_level.min(deeper.len())];
        let deeper = deeper.iter().filter_map(move |files| {
            let idx = files.partition_point(|f| extract_user_key(&f.largest) < ukey);
            files.get(idx)
        });
        l0.iter()
            .chain(deeper)
            .filter(move |f| f.user_range_contains(ukey))
    }

    /// True if any file *below* `level` could contain `ukey` — used to
    /// decide whether a bottom-level tombstone may be dropped.
    pub fn key_may_exist_below(&self, level: usize, ukey: &[u8]) -> bool {
        self.levels
            .iter()
            .skip(level + 1)
            .any(|lv| lv.iter().any(|f| f.user_range_contains(ukey)))
    }

    /// The index-LSM space amplification estimate of the paper (§II-D,
    /// Eq. 1): total size over bottommost-level size.
    pub fn index_space_amp(&self) -> f64 {
        match self.bottommost_nonempty_level() {
            Some(l) => {
                let last = self.level_bytes(l) as f64;
                if last == 0.0 {
                    1.0
                } else {
                    self.total_bytes() as f64 / last
                }
            }
            None => 1.0,
        }
    }
}

/// Owns the current [`Version`], the counters, and the manifest log. A
/// failed manifest append or sync poisons it ([`Logged::poisoned`]): the
/// unsynced tail of that file may never become durable even if a later
/// fsync reports success, so the next group rotates to a fresh manifest
/// file before committing anything else.
pub struct VersionSet {
    env: EnvRef,
    dir: String,
    current: Arc<Version>,
    next_file: Arc<AtomicU64>,
    last_seq: Arc<AtomicU64>,
    /// WALs numbered below this are obsolete.
    pub log_number: u64,
    /// The live manifest file; `None` only while [`open`](Self::open)
    /// has yet to write the first one.
    manifest: Option<LogWriter>,
    manifest_number: u64,
    /// Every committed value-store bundle, in commit order — the same
    /// history a fresh open replays. Kept so a manifest rotation can
    /// rewrite a complete snapshot without consulting the value store.
    value_history: Vec<ValueEditBundle>,
    /// Weak handles to every version ever installed; used to decide when
    /// an obsolete file is no longer visible to any in-flight reader.
    live_versions: Vec<Weak<Version>>,
}

/// Result of opening a [`VersionSet`].
pub struct RecoveredState {
    /// The version set, positioned at the recovered (or fresh) state.
    pub vset: VersionSet,
    /// Value-store edits replayed from the manifest, in commit order.
    pub value_replay: Vec<ValueEditBundle>,
}

impl VersionSet {
    /// Open or create the version set in `dir`.
    pub fn open(env: EnvRef, dir: &str) -> Result<RecoveredState> {
        env.create_dir_all(dir)?;
        let mut version = Version::empty();
        let mut next_file: u64 = 1;
        let mut last_seq: SeqNo = 0;
        let mut log_number: u64 = 0;
        let mut value_replay: Vec<ValueEditBundle> = Vec::new();
        let mut manifest_number = 0;

        let cur = current_path(dir);
        if env.file_exists(&cur) {
            let name = String::from_utf8(env.read_file(&cur, IoClass::Manifest)?.to_vec())
                .map_err(|_| Error::corruption("CURRENT not utf-8"))?;
            let name = name.trim().to_string();
            let mpath = format!("{dir}/{name}");
            let number: u64 = name
                .strip_prefix("MANIFEST-")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| Error::corruption("bad CURRENT contents"))?;
            let data = env.read_file(&mpath, IoClass::Manifest)?;
            let total = data.len();
            let (records, corrupt) = read_all_records(data);
            if corrupt {
                // A torn manifest tail is the expected power-loss shape:
                // the intact prefix is the committed history. Log it so
                // operators can distinguish truncation from data loss.
                eprintln!(
                    "scavenger: manifest {mpath} has a torn/corrupt tail \
                     (file is {total} bytes); recovering the intact prefix"
                );
            }
            for rec in records {
                let edit = VersionEdit::decode(&rec)?;
                if let Some(n) = edit.next_file_number {
                    next_file = next_file.max(n);
                }
                if let Some(n) = edit.last_sequence {
                    last_seq = last_seq.max(n);
                }
                if let Some(n) = edit.log_number {
                    log_number = log_number.max(n);
                }
                version = version.apply(&edit)?;
                if !edit.value.is_empty() {
                    value_replay.push(edit.value.clone());
                }
            }
            manifest_number = number;
        }

        // Track the initial version like every later one: a pinned read
        // view may hold it across edits, and `referenced_files` must keep
        // its files on disk until that view drops.
        let current = Arc::new(version);
        let live_versions = vec![Arc::downgrade(&current)];
        let mut vset = VersionSet {
            env,
            dir: dir.to_string(),
            current,
            next_file: Arc::new(AtomicU64::new(next_file)),
            last_seq: Arc::new(AtomicU64::new(last_seq)),
            log_number,
            manifest: None,
            manifest_number,
            value_history: value_replay.clone(),
            live_versions,
        };
        vset.rotate()?;
        Ok(RecoveredState { vset, value_replay })
    }

    /// The live version.
    pub fn current(&self) -> Arc<Version> {
        self.current.clone()
    }

    /// Shared next-file-number counter (for
    /// [`FileNumAlloc`](crate::hooks::FileNumAlloc)).
    pub fn file_counter(&self) -> Arc<AtomicU64> {
        self.next_file.clone()
    }

    /// Shared last-sequence counter.
    pub fn seq_counter(&self) -> Arc<AtomicU64> {
        self.last_seq.clone()
    }

    /// Allocate a fresh file number.
    pub fn new_file_number(&self) -> u64 {
        self.next_file.fetch_add(1, Ordering::SeqCst)
    }

    /// Current last sequence.
    pub fn last_sequence(&self) -> SeqNo {
        self.last_seq.load(Ordering::SeqCst)
    }

    /// Start a fresh manifest file holding a snapshot of the committed
    /// state — the index layout, the counters and the whole value-store
    /// history — swing `CURRENT` to it and delete the old file. Open
    /// starts every manifest this way, and so does the rotation away from
    /// a poisoned one, which is never fsynced again: a lying retried fsync
    /// can't silently commit its tail.
    fn rotate(&mut self) -> Result<()> {
        let number = self.new_file_number();
        let mpath = manifest_path(&self.dir, number);
        let mut manifest = LogWriter::new(self.env.new_writable(&mpath, IoClass::Manifest)?);
        let mut snapshot = VersionEdit {
            next_file_number: Some(self.next_file.load(Ordering::SeqCst)),
            last_sequence: Some(self.last_sequence()),
            log_number: Some(self.log_number),
            ..VersionEdit::default()
        };
        for (level, files) in self.current.levels.iter().enumerate() {
            for f in files {
                snapshot.added.push((level, (**f).clone()));
            }
        }
        manifest.add_record(&snapshot.encode())?;
        for bundle in &self.value_history {
            let edit = VersionEdit {
                value: bundle.clone(),
                ..VersionEdit::default()
            };
            manifest.add_record(&edit.encode())?;
        }
        manifest.sync()?;
        set_current(&self.env, &self.dir, number)?;
        if self.manifest_number > 0 {
            let old = manifest_path(&self.dir, self.manifest_number);
            let _ = self.env.remove_file(&old);
        }
        self.manifest = Some(manifest);
        self.manifest_number = number;
        Ok(())
    }

    /// Verify the on-disk manifest is consistent with this version set:
    /// `CURRENT` must point at this manifest and every record in it must
    /// decode and apply cleanly. `resume()` runs this on a repaired
    /// manifest ([`GroupCommit::lock_repaired`]) before clearing a
    /// degraded state.
    pub fn verify(&self) -> Result<()> {
        let cur = current_path(&self.dir);
        let name = String::from_utf8(self.env.read_file(&cur, IoClass::Manifest)?.to_vec())
            .map_err(|_| Error::corruption("CURRENT not utf-8"))?;
        let expect = format!("MANIFEST-{:06}", self.manifest_number);
        if name.trim() != expect {
            return Err(Error::corruption(format!(
                "CURRENT points at {} but the live manifest is {expect}",
                name.trim()
            )));
        }
        let mpath = manifest_path(&self.dir, self.manifest_number);
        let (records, corrupt) = read_all_records(self.env.read_file(&mpath, IoClass::Manifest)?);
        if corrupt {
            return Err(Error::corruption(format!(
                "manifest {mpath} has a corrupt record"
            )));
        }
        let mut version = Version::empty();
        for rec in records {
            let edit = VersionEdit::decode(&rec)?;
            version = version.apply(&edit)?;
        }
        Ok(())
    }

    /// File numbers visible to the current version or to any version an
    /// in-flight reader still holds.
    pub fn referenced_files(&self) -> std::collections::HashSet<u64> {
        let mut live: std::collections::HashSet<u64> = self
            .current
            .levels
            .iter()
            .flatten()
            .map(|f| f.file_number)
            .collect();
        for w in &self.live_versions {
            if let Some(v) = w.upgrade() {
                live.extend(v.levels.iter().flatten().map(|f| f.file_number));
            }
        }
        live
    }

    /// Manifest file number (for obsolete-file scans).
    pub fn manifest_number(&self) -> u64 {
        self.manifest_number
    }

    /// Directory this version set lives in.
    pub fn dir(&self) -> &str {
        &self.dir
    }
}

/// The MANIFEST behind its commit queue: every edit is committed through
/// [`log_and_apply`](Manifest::log_and_apply), and everything else locks
/// the version set it guards.
pub type Manifest = GroupCommit<VersionSet, VersionEdit, Result<()>>;

impl Manifest {
    /// Log `edit` to the manifest and apply it to the current version,
    /// through the commit queue. An edit that does not apply to the
    /// version it lands on is refused alone; a failed append or sync
    /// fails its whole group and poisons the manifest.
    pub fn log_and_apply(&self, edit: VersionEdit) -> Result<()> {
        self.commit(edit, &ManifestLeader).0?
    }
}

/// The MANIFEST's half of a group commit.
pub struct ManifestLeader;

impl GroupLeader<VersionSet, VersionEdit, Result<()>> for ManifestLeader {
    fn rotate(&self, m: &mut Logged<VersionSet>) -> Result<()> {
        m.log.rotate()
    }

    /// Apply the edits in queue order, each on top of the last one that
    /// applied, appending one record per applied edit; then sync once and
    /// install the last version. An edit that does not apply is refused
    /// before any of it is written.
    fn write(
        &self,
        m: &mut Logged<VersionSet>,
        edits: Vec<VersionEdit>,
    ) -> Result<Vec<Result<()>>> {
        let vs = &mut m.log;
        let manifest = vs
            .manifest
            .as_mut()
            .expect("open writes the first manifest");
        let mut next = vs.current.clone();
        let mut applied = Vec::with_capacity(edits.len());
        let mut outcomes = Vec::with_capacity(edits.len());
        for mut edit in edits {
            edit.next_file_number = Some(vs.next_file.load(Ordering::SeqCst));
            edit.last_sequence = Some(vs.last_seq.load(Ordering::SeqCst));
            match next.apply(&edit) {
                Ok(version) => {
                    manifest.add_record(&edit.encode())?;
                    next = Arc::new(version);
                    applied.push(edit);
                    outcomes.push(Ok(()));
                }
                Err(e) => outcomes.push(Err(e)),
            }
        }
        if applied.is_empty() {
            return Ok(outcomes);
        }
        manifest.sync()?;
        for edit in applied {
            if let Some(n) = edit.log_number {
                vs.log_number = vs.log_number.max(n);
            }
            if !edit.value.is_empty() {
                vs.value_history.push(edit.value);
            }
        }
        vs.current = next;
        vs.live_versions.push(Arc::downgrade(&vs.current));
        vs.live_versions.retain(|w| w.strong_count() > 0);
        Ok(outcomes)
    }
}

fn set_current(env: &EnvRef, dir: &str, manifest_number: u64) -> Result<()> {
    let tmp = format!("{dir}/CURRENT.tmp");
    let mut f = env.new_writable(&tmp, IoClass::Manifest)?;
    f.append(format!("MANIFEST-{manifest_number:06}").as_bytes())?;
    f.sync()?;
    drop(f);
    env.rename(&tmp, &current_path(dir))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::MemEnv;
    use scavenger_util::ikey::{make_internal_key, ValueType};

    fn meta(number: u64, lo: &[u8], hi: &[u8]) -> FileMetaData {
        FileMetaData {
            file_number: number,
            file_size: 1000,
            smallest: make_internal_key(lo, 100, ValueType::Value),
            largest: make_internal_key(hi, 1, ValueType::Value),
            num_entries: 10,
            ref_bytes: 0,
            deps: vec![],
        }
    }

    #[test]
    fn edit_roundtrip_full() {
        let edit = VersionEdit {
            next_file_number: Some(42),
            last_sequence: Some(9000),
            log_number: Some(7),
            added: vec![(
                1,
                FileMetaData {
                    file_number: 12,
                    file_size: 4096,
                    smallest: b"aaa\x01\x00\x00\x00\x00\x00\x00\x01".to_vec(),
                    largest: b"zzz\x01\x00\x00\x00\x00\x00\x00\x01".to_vec(),
                    num_entries: 55,
                    ref_bytes: 123456,
                    deps: vec![ValueDep {
                        file: 3,
                        entries: 10,
                        ref_bytes: 100000,
                    }],
                },
            )],
            deleted: vec![(0, 5), (0, 6)],
            value: ValueEditBundle {
                new_files: vec![NewValueFile {
                    file: 77,
                    size: 1 << 20,
                    entries: 100,
                    value_bytes: 900_000,
                    hot: true,
                    format: 1,
                }],
                deleted_files: vec![70],
                inherits: vec![(70, 77)],
                garbage: vec![(71, 5000, 3)],
            },
        };
        let decoded = VersionEdit::decode(&edit.encode()).unwrap();
        assert_eq!(decoded, edit);
    }

    #[test]
    fn edit_rejects_unknown_tag() {
        assert!(VersionEdit::decode(&[99]).is_err());
    }

    #[test]
    fn version_apply_adds_and_deletes() {
        let v0 = Version::empty();
        let mut edit = VersionEdit::default();
        edit.added.push((0, meta(1, b"a", b"m")));
        edit.added.push((0, meta(2, b"n", b"z")));
        let v1 = v0.apply(&edit).unwrap();
        assert_eq!(v1.num_files(0), 2);
        // L0 sorted newest (highest number) first.
        assert_eq!(v1.levels[0][0].file_number, 2);

        let mut edit2 = VersionEdit::default();
        edit2.deleted.push((0, 1));
        edit2.added.push((1, meta(3, b"a", b"m")));
        let v2 = v1.apply(&edit2).unwrap();
        assert_eq!(v2.num_files(0), 1);
        assert_eq!(v2.num_files(1), 1);
        assert_eq!(v2.total_files(), 2);
        // Deleting a missing file is an error.
        assert!(v2.apply(&edit2).is_err());
    }

    #[test]
    fn version_queries() {
        let v0 = Version::empty();
        let mut edit = VersionEdit::default();
        edit.added.push((1, meta(1, b"a", b"f")));
        edit.added.push((1, meta(2, b"m", b"p")));
        edit.added.push((2, meta(3, b"a", b"z")));
        let v = v0.apply(&edit).unwrap();
        assert_eq!(v.bottommost_nonempty_level(), Some(2));
        assert_eq!(v.overlapping_files(1, Some(b"e"), Some(b"n")).len(), 2);
        assert_eq!(v.overlapping_files(1, Some(b"g"), Some(b"h")).len(), 0);
        assert!(v.key_may_exist_below(1, b"q"));
        assert!(!v.key_may_exist_below(2, b"q"));
        assert_eq!(v.level_bytes(1), 2000);
        // index SA = total / last = 3000/1000.
        assert!((v.index_space_amp() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn fresh_open_then_reopen_recovers_state() {
        let env = MemEnv::shared();
        let eref: EnvRef = env.clone();
        {
            let rec = VersionSet::open(eref.clone(), "db").unwrap();
            let vset = Manifest::new(rec.vset);
            assert!(rec.value_replay.is_empty());
            let n1 = vset.lock().log.new_file_number();
            let mut edit = VersionEdit::default();
            edit.added.push((0, meta(n1, b"a", b"z")));
            edit.value.new_files.push(NewValueFile {
                file: 99,
                size: 10,
                entries: 1,
                value_bytes: 5,
                hot: false,
                format: 1,
            });
            vset.log_and_apply(edit).unwrap();
            vset.lock().log.seq_counter().store(500, Ordering::SeqCst);
            let mut edit2 = VersionEdit::default();
            edit2.value.garbage.push((99, 3, 1));
            vset.log_and_apply(edit2).unwrap();
        }
        // Reopen: file layout, counters, and value history must survive.
        let rec = VersionSet::open(eref, "db").unwrap();
        assert_eq!(rec.vset.current().num_files(0), 1);
        assert_eq!(rec.vset.last_sequence(), 500);
        assert_eq!(rec.value_replay.len(), 2);
        assert_eq!(rec.value_replay[0].new_files[0].file, 99);
        assert_eq!(rec.value_replay[1].garbage[0], (99, 3, 1));
        // File numbers keep increasing.
        assert!(rec.vset.new_file_number() > 1);
    }

    #[test]
    fn reopen_twice_keeps_value_history_once() {
        let env = MemEnv::shared();
        let eref: EnvRef = env.clone();
        {
            let vset = Manifest::new(VersionSet::open(eref.clone(), "db").unwrap().vset);
            let mut edit = VersionEdit::default();
            edit.value.new_files.push(NewValueFile {
                file: 5,
                size: 10,
                entries: 1,
                value_bytes: 5,
                hot: false,
                format: 1,
            });
            vset.log_and_apply(edit).unwrap();
        }
        for _ in 0..3 {
            let rec = VersionSet::open(eref.clone(), "db").unwrap();
            assert_eq!(rec.value_replay.len(), 1, "history must not duplicate");
        }
    }

    #[test]
    fn corrupt_current_is_reported() {
        let env = MemEnv::shared();
        let eref: EnvRef = env.clone();
        let _ = VersionSet::open(eref.clone(), "db").unwrap();
        // Overwrite CURRENT with garbage.
        {
            let mut w = eref
                .new_writable(&current_path("db"), IoClass::Manifest)
                .unwrap();
            w.append(b"not-a-manifest-name").unwrap();
            w.sync().unwrap();
        }
        assert!(VersionSet::open(eref, "db").is_err());
    }

    #[test]
    fn torn_manifest_tail_recovers_prefix() {
        let env = MemEnv::shared();
        let eref: EnvRef = env.clone();
        let manifest_path_str;
        {
            let vset = Manifest::new(VersionSet::open(eref.clone(), "db").unwrap().vset);
            manifest_path_str = manifest_path("db", vset.lock().log.manifest_number());
            let mut e1 = VersionEdit::default();
            e1.added
                .push((0, meta(vset.lock().log.new_file_number(), b"a", b"m")));
            vset.log_and_apply(e1).unwrap();
            let mut e2 = VersionEdit::default();
            e2.added
                .push((0, meta(vset.lock().log.new_file_number(), b"n", b"z")));
            vset.log_and_apply(e2).unwrap();
        }
        // Tear the last few bytes of the manifest (crash mid-append).
        let len = eref.file_size(&manifest_path_str).unwrap();
        env.truncate_file(&manifest_path_str, len - 3).unwrap();
        // Recovery keeps the intact prefix: at least the first add-file
        // edit survives; the torn one is dropped cleanly.
        let rec = VersionSet::open(eref, "db").unwrap();
        let files = rec.vset.current().num_files(0);
        assert!(files >= 1, "prefix edits recovered, got {files} files");
        assert!(files <= 2);
    }

    #[test]
    fn current_pointer_is_atomic_swap() {
        let env = MemEnv::shared();
        let eref: EnvRef = env.clone();
        let _ = VersionSet::open(eref.clone(), "db").unwrap();
        let cur = eref
            .read_file(&current_path("db"), IoClass::Manifest)
            .unwrap();
        assert!(std::str::from_utf8(&cur).unwrap().starts_with("MANIFEST-"));
        assert!(!eref.file_exists("db/CURRENT.tmp"));
    }
}
