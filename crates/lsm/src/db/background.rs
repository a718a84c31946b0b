//! Background work: flush, compaction, obsolete-file purge, and the
//! retry / degrade / resume policy around them — one drain, run under
//! one lock on the writer's thread (inline), on the background thread,
//! or on the thread that asks for a flush or a compaction.

use super::Lsm;
use crate::compaction::{
    compute_targets, level_units, pick_compaction, run_output_job, BornTable, Compaction,
};
use crate::filename::{parse_path, table_path, value_file_path, wal_path, FileKind};
use crate::hooks::{BornTails, JobKind, PassthroughSession, ValueEditBundle, ValueSession};
use crate::iter::{MergingIter, VecIter};
use crate::options::{BackgroundMode, NUM_LEVELS};
use crate::version::{ManifestLeader, Version, VersionEdit};
use crate::view::SuperVersion;
use parking_lot::{Mutex, MutexGuard};
use scavenger_env::{IoClass, ReadaheadFile, READ_SIZE};
use scavenger_table::btable::KTable;
use scavenger_table::InternalIterator;
use scavenger_util::ikey::SeqNo;
use scavenger_util::{Error, Result};
use std::sync::atomic::Ordering;
use std::sync::Arc;

#[derive(Default)]
pub(super) struct BgSignal {
    work_pending: bool,
    shutdown: bool,
}

impl Lsm {
    /// Run background work after a write or a resume: inline, on this
    /// thread, or by waking the background thread.
    pub(super) fn kick_background(&self) -> Result<()> {
        match self.inner.opts.background {
            BackgroundMode::Inline => self.run_background_work(),
            BackgroundMode::Threaded => {
                self.inner.bg_signal.lock().work_pending = true;
                self.inner.bg_cv.notify_all();
                Ok(())
            }
        }
    }

    pub(super) fn check_bg_error(&self) -> Result<()> {
        if self.inner.degraded.load(Ordering::SeqCst) {
            let cause = self
                .inner
                .bg_error
                .lock()
                .as_ref()
                .map(|e| e.to_string())
                .unwrap_or_else(|| "unknown background error".into());
            return Err(Error::read_only(format!(
                "engine degraded by background failure: {cause}"
            )));
        }
        Ok(())
    }

    /// True when the engine is in read-only degraded mode (a background
    /// job failed permanently). Reads keep working; writes fail fast
    /// with [`Error::ReadOnlyMode`] until [`Lsm::resume`] clears it.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::SeqCst)
    }

    /// The background error that degraded the engine, if any.
    pub fn background_error(&self) -> Option<Error> {
        self.inner.bg_error.lock().clone()
    }

    /// Transient failures (I/O hiccups) are worth retrying; corruption
    /// and invariant violations are permanent.
    fn is_transient(e: &Error) -> bool {
        matches!(e, Error::Io(_))
    }

    /// Enter read-only degraded mode: record the cause, wake stalled
    /// writers (they fail fast instead of waiting forever).
    fn enter_degraded(&self, e: Error) {
        self.inner
            .counters
            .bg_errors
            .fetch_add(1, Ordering::Relaxed);
        *self.inner.bg_error.lock() = Some(e);
        self.inner.degraded.store(true, Ordering::SeqCst);
        self.inner.stall_cv.notify_all();
    }

    /// Run background `job`, retrying transient failures with bounded
    /// exponential backoff (`bg_retry_base * 2^attempt`, up to
    /// `bg_retry_limit` retries). A permanent failure — or exhausted
    /// retries — degrades the engine to read-only mode and returns the
    /// error. Every drain of flushes and compactions runs through it
    /// (background, inline, [`flush`](Lsm::flush) and
    /// [`compact_until_stable`](Lsm::compact_until_stable)), and the
    /// engine above runs its own post-write maintenance (value-file
    /// reaping, paced GC) through it, so all of them share one error
    /// policy.
    pub fn run_with_retries(&self, mut job: impl FnMut() -> Result<()>) -> Result<()> {
        let mut attempt = 0usize;
        loop {
            match job() {
                Ok(()) => return Ok(()),
                Err(e) => {
                    let retryable = Self::is_transient(&e)
                        && attempt < self.inner.opts.bg_retry_limit
                        && !self.inner.closed.load(Ordering::SeqCst);
                    if !retryable {
                        self.enter_degraded(e.clone());
                        return Err(e);
                    }
                    self.inner
                        .counters
                        .bg_retries
                        .fetch_add(1, Ordering::Relaxed);
                    let backoff = self
                        .inner
                        .opts
                        .bg_retry_base
                        .saturating_mul(1u32 << attempt.min(16));
                    attempt += 1;
                    std::thread::sleep(backoff);
                }
            }
        }
    }

    /// Leave read-only degraded mode after the underlying cause is
    /// fixed: repair the manifest if a failed commit poisoned it (a fresh
    /// file holding the full snapshot), verify it, clear the error, and
    /// restart background work. Returns an error — and stays degraded —
    /// if the manifest cannot be repaired or verified.
    pub fn resume(&self) -> Result<()> {
        self.inner
            .manifest
            .lock_repaired(&ManifestLeader)?
            .log
            .verify()?;
        *self.inner.bg_error.lock() = None;
        self.inner.degraded.store(false, Ordering::SeqCst);
        self.inner.stall_cv.notify_all();
        self.kick_background()
    }

    /// Take `bg_work`, the lock every flush and compaction runs under:
    /// the one place it is taken.
    fn lock_bg_work(&self) -> MutexGuard<'_, ()> {
        self.inner.bg_work.lock()
    }

    /// The one maintenance path: flush every immutable memtable and run
    /// due compactions until none is left, under `bg_work` and the
    /// retry / degrade rule. A caller that finds another thread draining
    /// waits for it, then drains what is left.
    fn run_background_work(&self) -> Result<()> {
        self.run_with_retries(|| {
            let _guard = self.lock_bg_work();
            loop {
                let flushed = self.flush_one_imm()?;
                let compacted = self.maybe_compact_once()?;
                if !flushed && !compacted {
                    // All job-held version handles are gone now; retired
                    // files queued during the loop can be removed.
                    self.purge_unreferenced_tables();
                    return Ok(());
                }
            }
        })
    }

    /// Force-flush the active memtable, then drain background work: in
    /// both modes the flush and every compaction it leaves due have run
    /// when this returns, and no job is left running.
    pub fn flush(&self) -> Result<()> {
        self.rotate_memtable(&mut self.inner.wal.lock())?;
        self.run_background_work()
    }

    /// Run compactions until every level score is below 1: the drain
    /// [`flush`](Lsm::flush) runs, under its retry / degrade rule.
    pub fn compact_until_stable(&self) -> Result<()> {
        self.run_background_work()
    }

    /// Force one compaction even when all scores are below 1 — used by
    /// space-aware throttling (paper §III-D) to convert hidden garbage
    /// into exposed garbage when space runs out. Picks L0 if non-empty,
    /// otherwise the upper level carrying the most (compensated) bytes.
    /// The pick and the run hold `bg_work`, as every compaction does.
    /// Returns false if only the bottommost level holds data.
    pub fn force_compact_once(&self) -> Result<bool> {
        let _guard = self.lock_bg_work();
        let version = self.current_version();
        let opts = &self.inner.opts;
        let pick = if version.num_files(0) > 0 {
            let output_level = compute_targets(&version, opts).base_level;
            let inputs = version.levels[0].clone();
            Some(Compaction::new(&version, 0, output_level, inputs, 0.0))
        } else {
            // Densest non-bottom level.
            (1..NUM_LEVELS - 1)
                .filter(|&l| !version.levels[l].is_empty())
                .max_by_key(|&l| level_units(&version, l, opts.compensated))
                .map(|level| {
                    let victim = version.levels[level]
                        .iter()
                        .max_by_key(|f| f.compensated_size())
                        .cloned()
                        .unwrap();
                    Compaction::new(&version, level, level + 1, vec![victim], 0.0)
                })
        };
        self.compact(version, pick)
    }

    /// One score-driven compaction, if any level scores at least 1.
    fn maybe_compact_once(&self) -> Result<bool> {
        let version = self.current_version();
        let pick = pick_compaction(&version, &self.inner.opts, &mut self.inner.picker.lock());
        self.compact(version, pick)
    }

    /// Run a picked compaction of `version` (a trivial move or a merge),
    /// then let go of `version` and purge the key SSTs no reader still
    /// sees, the merge's inputs among them. False when nothing was picked.
    fn compact(&self, version: Arc<Version>, pick: Option<Compaction>) -> Result<bool> {
        let compacted = match pick {
            None => false,
            Some(c) if c.is_trivial_move() => {
                let f = &c.inputs_lo[0];
                let mut edit = VersionEdit::default();
                edit.deleted.push((c.level, f.file_number));
                edit.added.push((c.output_level, (**f).clone()));
                self.inner.manifest.log_and_apply(edit)?;
                self.install_version();
                true
            }
            Some(c) => {
                self.run_compaction(&version, &c)?;
                true
            }
        };
        drop(version);
        self.purge_unreferenced_tables();
        Ok(compacted)
    }

    /// Flush the oldest immutable memtable to L0, if there is one.
    pub(super) fn flush_one_imm(&self) -> Result<bool> {
        let Some(imm) = self.superversion().imms.last().cloned() else {
            return Ok(false);
        };
        let elide_upto = (self.current_version().total_files() == 0).then(|| self.tombstone_hold());
        let mut input = VecIter::new(imm.mem.snapshot());
        // WALs below the one covering the next-newer memtable (the next
        // imm's, or the live WAL) are obsolete once this flush commits.
        // A rotation keeps that WAL number; it is read under the writer
        // lock, which every rotation holds, so none lands in between.
        let log_number = {
            let ws = self.inner.wal.lock();
            let newer = self
                .superversion()
                .imms
                .iter()
                .rev()
                .nth(1)
                .map(|i| i.wal_number);
            newer.unwrap_or(ws.log.wal_number)
        };
        self.run_job(
            JobKind::Flush,
            &mut input,
            elide_upto,
            &|_| false,
            VersionEdit {
                log_number: Some(log_number),
                ..VersionEdit::default()
            },
            |sv| sv.imms.retain(|i| !Arc::ptr_eq(&i.mem, &imm.mem)),
        )?;
        self.delete_obsolete_wals();
        self.inner.counters.flushes.fetch_add(1, Ordering::Relaxed);
        self.inner.stall_cv.notify_all();
        Ok(true)
    }

    fn run_compaction(&self, version: &Arc<Version>, c: &Compaction) -> Result<()> {
        // Open compaction-class readers (bypassing the table cache so
        // foreground I/O accounting stays clean; they open without a
        // block cache, so compaction reads do not pollute it). Each
        // input is walked once, front to back, so it is read in
        // `READ_SIZE` ops: one tail read at open, then forward spans (an
        // input no larger than a span is that one read).
        let opts = &self.inner.opts;
        let inputs = || c.inputs_lo.iter().chain(c.inputs_hi.iter());
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        for f in inputs() {
            let file = opts
                .env
                .open_random_access(&table_path(&opts.dir, f.file_number), IoClass::Compaction)?;
            let file = Arc::new(ReadaheadFile::open(file, READ_SIZE.max_span)?);
            let t = KTable::open(file, f.file_number, None)?;
            children.push(t.iter());
        }
        let output_level = c.output_level;
        let may_exist_below = |ukey: &[u8]| version.key_may_exist_below(output_level, ukey);
        self.run_job(
            JobKind::Compaction {
                output_level,
                bottommost: c.bottommost,
            },
            &mut MergingIter::new(children),
            c.bottommost.then(|| self.tombstone_hold()),
            &may_exist_below,
            VersionEdit {
                deleted: c
                    .inputs_lo
                    .iter()
                    .map(|f| (c.level, f.file_number))
                    .chain(c.inputs_hi.iter().map(|f| (output_level, f.file_number)))
                    .collect(),
                ..VersionEdit::default()
            },
            |_| {},
        )?;
        // Queue input files for deletion; they are removed once no
        // in-flight reader's version can still see them.
        let dir = &opts.dir;
        self.inner
            .pending_deletions
            .lock()
            .extend(inputs().map(|f| table_path(dir, f.file_number)));
        self.inner
            .counters
            .compactions
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Run one flush or compaction job: write `input` through a value
    /// session into new key SSTs, and [commit](Self::commit_edit) `edit`
    /// with them and the session's value bundle.
    fn run_job(
        &self,
        kind: JobKind,
        input: &mut dyn InternalIterator,
        elide_upto: Option<SeqNo>,
        may_exist_below: &dyn Fn(&[u8]) -> bool,
        mut edit: VersionEdit,
        install: impl FnOnce(&mut SuperVersion),
    ) -> Result<()> {
        let (output_level, io_class) = match kind {
            JobKind::Flush => (0, IoClass::Flush),
            JobKind::Compaction { output_level, .. } => (output_level, IoClass::Compaction),
        };
        let session: Box<dyn ValueSession> = match &self.inner.opts.value_hook {
            Some(h) => h.session(kind, self.file_numbers())?,
            None => Box::new(PassthroughSession),
        };
        let snapshots = self.read_points();
        let out = run_output_job(
            &self.inner.opts,
            input,
            &snapshots,
            elide_upto,
            may_exist_below,
            session,
            &self.inner.file_numbers,
            io_class,
        )?;
        self.inner
            .counters
            .merge_drops
            .fetch_add(out.stats.entries_dropped, Ordering::Relaxed);
        edit.added
            .extend(out.files.into_iter().map(|f| (output_level, f)));
        edit.value = out.bundle;
        self.commit_edit(edit, out.born, out.value_born, install)
    }

    /// The one commit of an edit that carries a value bundle (a flush's,
    /// a compaction's, GC's): log `edit`, drop the readers and cached
    /// blocks of the key SSTs it deletes, keep its key SSTs' born readers
    /// and put their KF blocks in the block cache, hand the hook the
    /// bundle's new files with `value_born`, install
    /// the current version plus `install`, and only then hand the hook the
    /// rest — so no reader meets a reference the store cannot resolve, and
    /// no file this edit exhausts is reaped while the installed version
    /// points at it. A failed edit keeps no reader and queues its key SSTs
    /// and value files for the purge, which removes them once a rewritten
    /// manifest can no longer hold the edit.
    fn commit_edit(
        &self,
        edit: VersionEdit,
        born: Vec<BornTable>,
        value_born: BornTails,
        install: impl FnOnce(&mut SuperVersion),
    ) -> Result<()> {
        let dir = &self.inner.opts.dir;
        let outputs: Vec<String> = edit
            .added
            .iter()
            .map(|(_, f)| table_path(dir, f.file_number))
            .chain(
                edit.value
                    .new_files
                    .iter()
                    .map(|f| value_file_path(dir, f.file, f.format)),
            )
            .collect();
        let mut rest = edit.value.clone();
        let dead: Vec<u64> = edit.deleted.iter().map(|&(_, n)| n).collect();
        if let Err(e) = self.inner.manifest.log_and_apply(edit) {
            self.inner.pending_deletions.lock().extend(outputs);
            return Err(e);
        }
        // The key SSTs this edit deletes leave the cache before the born
        // ones enter it, so a cache too small for both keeps the born
        // blocks; the files themselves wait for the purge.
        for n in dead {
            self.inner.tcache.forget(n);
        }
        for table in born {
            self.inner.tcache.adopt(table);
        }
        let new_files = ValueEditBundle {
            new_files: std::mem::take(&mut rest.new_files),
            ..ValueEditBundle::default()
        };
        let hook = self.inner.opts.value_hook.as_ref();
        if let Some(h) = hook {
            h.on_committed(&new_files, value_born);
        }
        self.install(|sv| {
            install(sv);
            sv.version = self.current_version();
        });
        if let Some(h) = hook {
            h.on_committed(&rest, BornTails::new());
        }
        Ok(())
    }

    /// Delete the queued files — replaced key SSTs, and the outputs of
    /// failed edits — that no live version references; a key SST's reader
    /// and cached blocks leave with it. An empty queue returns before the
    /// MANIFEST lock. Nothing is deleted while a failed commit has
    /// poisoned the manifest: the
    /// failed edit, which may name queued outputs, can sit in it on disk
    /// until the next commit rewrites it.
    pub(super) fn purge_unreferenced_tables(&self) {
        if self.inner.pending_deletions.lock().is_empty() {
            return;
        }
        let referenced = {
            let manifest = self.inner.manifest.lock();
            if manifest.poisoned {
                return;
            }
            manifest.log.referenced_files()
        };
        let opts = &self.inner.opts;
        let mut pending = self.inner.pending_deletions.lock();
        pending.retain(|path| {
            if let Some((FileKind::Table, n)) = parse_path(&opts.dir, path) {
                if referenced.contains(&n) {
                    return true;
                }
                self.inner.tcache.forget(n);
            }
            let _ = opts.env.remove_file(path);
            false
        });
    }

    /// Commit a value-only edit (GC's publish and reaping) through the one
    /// commit function; `born` holds the born tails of its new files. It
    /// runs outside the drain, so it purges itself: its commit may have
    /// rewritten a manifest that held a failed edit's outputs back.
    pub fn apply_value_edit(&self, bundle: ValueEditBundle, born: BornTails) -> Result<()> {
        let edit = VersionEdit {
            value: bundle,
            ..VersionEdit::default()
        };
        self.commit_edit(edit, Vec::new(), born, |_| {})?;
        self.purge_unreferenced_tables();
        Ok(())
    }

    /// Remove the closed WALs below the recovery floor. One there may
    /// still be a retained change-stream segment: the catalog pins it
    /// (for a registered subscriber or within the retention budget), and
    /// it stays listed until a flush after the change log releases it.
    pub(super) fn delete_obsolete_wals(&self) {
        let opts = &self.inner.opts;
        let min_log = self.inner.manifest.lock().log.log_number;
        self.inner.closed_wals.lock().retain(|&n| {
            if n >= min_log || self.inner.cdc.protects(n) {
                return true;
            }
            let _ = opts.env.remove_file(&wal_path(&opts.dir, n));
            false
        });
    }

    pub(super) fn spawn_bg_thread(&self) {
        let inner = self.inner.clone();
        let handle = std::thread::Builder::new()
            .name("scavenger-bg".into())
            .spawn(move || {
                let db = Lsm {
                    inner,
                    bg_thread: Mutex::new(None),
                };
                loop {
                    {
                        let mut sig = db.inner.bg_signal.lock();
                        while !sig.work_pending && !sig.shutdown {
                            db.inner.bg_cv.wait(&mut sig);
                        }
                        if sig.shutdown {
                            return;
                        }
                        sig.work_pending = false;
                    }
                    if db.inner.degraded.load(Ordering::SeqCst) {
                        // Parked, not dead: `resume()` clears the flag
                        // and re-signals, and this loop picks the
                        // backlog back up.
                        continue;
                    }
                    // On permanent failure the helper has already moved
                    // the engine to degraded mode; stay alive so resume
                    // can restart work without respawning the thread.
                    let _ = db.run_background_work();
                }
            })
            .expect("spawn background thread");
        *self.bg_thread.lock() = Some(handle);
    }
}

impl Drop for Lsm {
    fn drop(&mut self) {
        self.inner.closed.store(true, Ordering::SeqCst);
        {
            let mut sig = self.inner.bg_signal.lock();
            sig.shutdown = true;
            self.inner.bg_cv.notify_all();
        }
        self.inner.stall_cv.notify_all();
        if let Some(h) = self.bg_thread.lock().take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{open, put, put_ref, test_opts};
    use super::*;
    use crate::db::LsmReadResult;
    use crate::hooks::{DropCause, NewValueFile, ValueHook};
    use crate::version::FileNumbers;
    use bytes::Bytes;
    use scavenger_util::ikey::{ValueRef, ValueType};
    use std::collections::HashMap;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{OnceLock, Weak};

    /// A BlobDB-style value store: every compaction relocates each
    /// reference it writes into one new value file and charges the old
    /// file the moved entry as garbage. The store keeps each known file's
    /// live entries and, as BlobDB with no reader in flight may, deletes
    /// a file the moment its last entry is charged. Around applying each bundle it
    /// reads every key back through the tree and counts the references to
    /// a file it does not know — the reads a `get` would fail on.
    #[derive(Default)]
    struct Relocating {
        db: OnceLock<Weak<Lsm>>,
        keys: Vec<Vec<u8>>,
        /// Known file → live entries.
        live: Mutex<HashMap<u64, u64>>,
        reaped: AtomicUsize,
        dangling: AtomicUsize,
    }

    impl Relocating {
        fn count_dangling(&self, live: &HashMap<u64, u64>) {
            let Some(db) = self.db.get().and_then(Weak::upgrade) else {
                return;
            };
            for k in &self.keys {
                if let LsmReadResult::Found {
                    vtype: ValueType::ValueRef,
                    value,
                    ..
                } = db.get(k).unwrap()
                {
                    if !live.contains_key(&ValueRef::decode(&value).unwrap().file) {
                        self.dangling.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    struct RelocateSession {
        numbers: FileNumbers,
        relocate: bool,
        file: Option<u64>,
        entries: u64,
        garbage: HashMap<u64, u64>,
    }

    impl ValueSession for RelocateSession {
        fn entry(
            &mut self,
            _user_key: &[u8],
            _seq: SeqNo,
            vtype: ValueType,
            value: Bytes,
        ) -> Result<(ValueType, Bytes)> {
            if !self.relocate || vtype != ValueType::ValueRef {
                return Ok((vtype, value));
            }
            let numbers = &self.numbers;
            let file = *self.file.get_or_insert_with(|| numbers.next());
            self.entries += 1;
            let old = ValueRef::decode(&value)?;
            *self.garbage.entry(old.file).or_default() += 1;
            let moved = ValueRef { file, ..old };
            Ok((vtype, Bytes::from(moved.encode())))
        }

        fn drop_entry(&mut self, _: &[u8], _: SeqNo, _: ValueType, _: &[u8], _: DropCause) {}

        fn finish(&mut self) -> Result<(ValueEditBundle, BornTails)> {
            let new_files = self.file.map(|file| NewValueFile {
                file,
                size: 0,
                entries: self.entries,
                value_bytes: 0,
                hot: false,
                format: 0,
            });
            let bundle = ValueEditBundle {
                new_files: new_files.into_iter().collect(),
                garbage: self.garbage.drain().map(|(f, n)| (f, 0, n)).collect(),
                ..ValueEditBundle::default()
            };
            Ok((bundle, BornTails::new()))
        }
    }

    impl ValueHook for Relocating {
        fn session(&self, kind: JobKind, numbers: FileNumbers) -> Result<Box<dyn ValueSession>> {
            Ok(Box::new(RelocateSession {
                numbers,
                relocate: matches!(kind, JobKind::Compaction { .. }),
                file: None,
                entries: 0,
                garbage: HashMap::new(),
            }))
        }

        fn on_committed(&self, bundle: &ValueEditBundle, _born: BornTails) {
            let mut live = self.live.lock();
            self.count_dangling(&live);
            live.extend(bundle.new_files.iter().map(|f| (f.file, f.entries)));
            for &(file, _, entries) in &bundle.garbage {
                let left = live.get_mut(&file).unwrap();
                *left -= entries;
                if *left == 0 {
                    live.remove(&file);
                    self.reaped.fetch_add(1, Ordering::Relaxed);
                }
            }
            self.count_dangling(&live);
        }
    }

    /// A relocating compaction publishes its SSTs only after the value
    /// store knows the file they point at, and charges the old file its
    /// garbage only after publishing them: a `get` at any point reads
    /// references to a file the store still holds.
    #[test]
    fn a_relocating_compaction_publishes_between_new_files_and_garbage() {
        let keys: Vec<_> = (0..240)
            .map(|i| format!("key{i:03}").into_bytes())
            .collect();
        let hook = Arc::new(Relocating {
            live: Mutex::new(HashMap::from([(7, keys.len() as u64)])),
            keys,
            ..Relocating::default()
        });
        let mut o = test_opts("db");
        o.value_hook = Some(hook.clone());
        let db = Arc::new(open(o));
        hook.db.set(Arc::downgrade(&db)).unwrap();
        for (i, k) in hook.keys.iter().enumerate() {
            put_ref(&db, std::str::from_utf8(k).unwrap(), i as u64);
        }
        db.flush().unwrap();
        while db.force_compact_once().unwrap() {}
        assert!(db.counters().compactions.load(Ordering::Relaxed) > 0);
        assert!(hook.reaped.load(Ordering::Relaxed) > 0, "no file exhausted");
        assert_eq!(hook.dangling.load(Ordering::Relaxed), 0);
    }

    /// A forced compaction lets go of the version it picked from before
    /// it purges: its merged inputs leave the disk and the table cache
    /// when it returns, not at a later drain.
    #[test]
    fn a_forced_compaction_removes_its_inputs() {
        let o = test_opts("db");
        let env = o.env.clone();
        let db = open(o);
        for round in 0..2 {
            for i in 0..300 {
                let value = format!("value-{i}-{round}-").repeat(10);
                put(&db, &format!("key{i:03}"), &value);
            }
            db.flush().unwrap();
        }
        // One L0 file over the bottom level: the forced pick merges.
        for i in (0..300).step_by(30) {
            put(&db, &format!("key{i:03}"), "new");
        }
        db.flush().unwrap();
        for i in 0..300 {
            db.get(format!("key{i:03}").as_bytes()).unwrap();
        }
        let files = |db: &Lsm| -> Vec<u64> {
            let version = db.current_version();
            version
                .levels
                .iter()
                .flatten()
                .map(|f| f.file_number)
                .collect()
        };
        let before = files(&db);
        let cached = db.table_readers();
        assert!(db.force_compact_once().unwrap());
        let after = files(&db);
        let inputs: Vec<u64> = before.into_iter().filter(|n| !after.contains(n)).collect();
        assert!(inputs.len() > 1, "a merge, not a trivial move: {inputs:?}");
        assert!(inputs.iter().all(|n| cached.contains(n)), "{cached:?}");
        let readers = db.table_readers();
        for n in &inputs {
            assert!(!env.file_exists(&table_path("db", *n)), "input {n} on disk");
            assert!(!readers.contains(n), "input {n} in the table cache");
        }
    }
}
