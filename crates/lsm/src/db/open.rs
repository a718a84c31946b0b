//! Open and recovery: replay the WALs the MANIFEST still needs, start a
//! fresh WAL, and sweep the files no version references.

use super::{Inner, Lsm, LsmCounters};
use crate::batch::WriteBatch;
use crate::compaction::PickerState;
use crate::filename::{parse_path, wal_path, FileKind};
use crate::group::GroupCommit;
use crate::memtable::Memtable;
use crate::options::{BackgroundMode, LsmOptions, CACHE_BYTES};
use crate::tcache::TableCache;
use crate::version::{Manifest, VersionEdit, VersionSet};
use crate::view::{Imm, ReadPointRegistry, SuperVersion};
use parking_lot::{Condvar, Mutex, RwLock};
use scavenger_env::IoClass;
use scavenger_table::btable::BlockCache;
use scavenger_table::cache::StoreCache;
use scavenger_util::ikey::SeqNo;
use scavenger_util::Result;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

impl Lsm {
    /// Open (or create) the tree, recovering manifest and WALs; the value
    /// hook receives each bundle the MANIFEST replays before WAL recovery
    /// flushes. Returns the engine and that history, kept for callers
    /// that open a tree without a hook.
    pub fn open(opts: LsmOptions) -> Result<(Lsm, Vec<crate::hooks::ValueEditBundle>)> {
        let env = opts.env.clone();
        env.create_dir_all(&opts.dir)?;
        let recovered = VersionSet::open(env.clone(), &opts.dir)?;
        let vset = recovered.vset;
        let value_replay = recovered.value_replay;
        let seq = vset.seq_counter();
        let file_numbers = vset.file_numbers();
        let cache = opts.cache.clone().unwrap_or_else(|| {
            StoreCache::new(Arc::new(BlockCache::with_capacity(CACHE_BYTES)), false)
        });
        let tcache = Arc::new(TableCache::new(&opts, cache));

        let cdc = crate::changelog::ChangeLog::new(
            env.clone(),
            opts.dir.clone(),
            seq.clone(),
            opts.cdc_retention,
            opts.cdc_ring_bytes,
        );

        let inner = Arc::new(Inner {
            tcache,
            cdc,
            wal: GroupCommit::new(Default::default()),
            read_points: ReadPointRegistry::new(seq.clone()),
            sv: RwLock::new(Arc::new(SuperVersion::empty())),
            sv_install: Mutex::new(()),
            bg_work: Mutex::new(()),
            seq,
            file_numbers,
            picker: Mutex::new(PickerState::new()),
            counters: LsmCounters::default(),
            bg_signal: Mutex::new(Default::default()),
            bg_cv: Condvar::new(),
            stall_lock: Mutex::new(()),
            stall_cv: Condvar::new(),
            bg_error: Mutex::new(None),
            degraded: AtomicBool::new(false),
            pending_deletions: Mutex::new(Vec::new()),
            closed_wals: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
            tombstone_hold: AtomicU64::new(opts.tombstone_hold),
            manifest: Manifest::new(vset),
            opts,
        });

        let db = Lsm {
            inner,
            bg_thread: Mutex::new(None),
        };
        if let Some(h) = &db.inner.opts.value_hook {
            for bundle in &value_replay {
                h.on_committed(bundle, Vec::new());
            }
        }
        db.recover_wals()?;
        db.start_fresh_wal()?;
        db.install_version();
        db.delete_obsolete_files()?;
        if db.inner.opts.background == BackgroundMode::Threaded {
            db.spawn_bg_thread();
        }
        Ok((db, value_replay))
    }

    fn recover_wals(&self) -> Result<()> {
        let opts = &self.inner.opts;
        let min_log = self.inner.manifest.lock().log.log_number;
        let retain = self.inner.cdc.retains_history();
        let mut wals: Vec<u64> = opts
            .env
            .list_prefix(&format!("{}/", opts.dir))?
            .iter()
            .filter_map(|p| parse_path(&opts.dir, p))
            .filter(|(k, n)| *k == FileKind::Wal && (*n >= min_log || retain))
            .map(|(_, n)| n)
            .collect();
        wals.sort_unstable();
        let mut obsolete = Vec::new();
        let mut segs: Vec<(u64, SeqNo)> = Vec::new();
        for n in &wals {
            let path = wal_path(&opts.dir, *n);
            let data = opts.env.read_file(&path, IoClass::Wal)?;
            let total = data.len();
            let mut reader = crate::wal::LogReader::new(data);
            let mut records = Vec::new();
            while let Some(r) = reader.next_record() {
                records.push(r);
            }
            if reader.hit_corruption && *n >= min_log {
                // Torn or corrupt tail: the intact prefix is replayed,
                // the tail dropped. Count it and log the truncation
                // offset so operators can tell power-loss truncation
                // from silent data loss.
                self.inner
                    .counters
                    .wal_tail_corruptions
                    .fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "scavenger: WAL {path} has a torn/corrupt tail: \
                     replayed {} records, dropped {} bytes at offset {}",
                    records.len(),
                    reader.dropped_bytes,
                    total - reader.dropped_bytes
                );
            }
            // Sequence range of the file — the retained-segment
            // catalog entry for change-stream catch-up.
            let mut first_seq = None;
            let mut last_seq = 0;
            let replay = *n >= min_log;
            let mem = Memtable::new();
            let mut max_seq = self.inner.seq.load(Ordering::SeqCst);
            for rec in &records {
                let (base, batch) = WriteBatch::decode(rec)?;
                if batch.count() > 0 {
                    first_seq.get_or_insert(base);
                    last_seq = last_seq.max(base + batch.count() as u64 - 1);
                }
                if replay {
                    for (i, e) in batch.entries().iter().enumerate() {
                        mem.insert(&e.key, base + i as u64, e.vtype, e.value.clone());
                    }
                    max_seq = max_seq.max(base + batch.count() as u64 - 1);
                }
            }
            // Retained history stays on disk as a catch-up segment so
            // resumed subscribers can replay across the restart: open's
            // obsolete-file sweep keeps a WAL the catalog protects.
            match first_seq {
                Some(first) if retain => {
                    self.inner
                        .cdc
                        .recovered_segment(*n, first, last_seq + 1, total as u64);
                    segs.push((*n, first));
                }
                _ => obsolete.push(*n),
            }
            if replay {
                self.inner.seq.store(max_seq, Ordering::SeqCst);
                if !mem.is_empty() {
                    let imm = Imm {
                        mem: Arc::new(mem),
                        wal_number: *n,
                        wal_durable: true,
                    };
                    self.install(|sv| sv.imms.insert(0, imm));
                    // Flush synchronously so recovery is complete when
                    // open returns.
                    self.flush_one_imm()?;
                }
            }
        }
        // Clamp each segment's exclusive end by its successor's first
        // sequence: a WAL poisoned by a failed fsync may end in an
        // intact but never-acknowledged record whose sequences were
        // reassigned to the successor — the clamp excises it from
        // served history.
        for i in 0..segs.len() {
            if let Some(&(_, next_first)) = segs.get(i + 1) {
                self.inner.cdc.clamp_segment(segs[i].0, next_first);
            }
        }
        // WALs that were neither retained nor protected are obsolete.
        for n in obsolete {
            if !self.inner.cdc.protects(n) {
                let _ = opts.env.remove_file(&wal_path(&opts.dir, n));
            }
        }
        Ok(())
    }

    /// Open the first WAL and record in the manifest that older WALs are
    /// obsolete.
    fn start_fresh_wal(&self) -> Result<()> {
        let n = {
            let mut ws = self.inner.wal.lock();
            self.fresh_wal_locked(&mut ws)?;
            ws.log.wal_number
        };
        self.inner.manifest.log_and_apply(VersionEdit {
            log_number: Some(n),
            ..VersionEdit::default()
        })
    }

    /// Delete key SSTs on disk that no version references (left over
    /// from a crash mid-compaction), then obsolete WALs: every WAL the
    /// listing finds below the recovery floor is closed, and one the
    /// change log still protects stays listed for a later flush.
    fn delete_obsolete_files(&self) -> Result<()> {
        let opts = &self.inner.opts;
        let (live, min_log) = {
            let manifest = self.inner.manifest.lock();
            (manifest.log.referenced_files(), manifest.log.log_number)
        };
        let mut tables = Vec::new();
        let mut wals = Vec::new();
        for p in opts.env.list_prefix(&format!("{}/", opts.dir))? {
            match parse_path(&opts.dir, &p) {
                Some((FileKind::Table, n)) if !live.contains(&n) => tables.push(p),
                Some((FileKind::Wal, n)) if n < min_log => wals.push(n),
                _ => {}
            }
        }
        self.inner.pending_deletions.lock().extend(tables);
        self.purge_unreferenced_tables();
        self.inner.closed_wals.lock().extend(wals);
        self.delete_obsolete_wals();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{open, put, test_opts};
    use crate::filename::{parse_path, table_path, FileKind};
    use scavenger_env::IoClass;
    use std::collections::HashSet;

    /// Open deletes a key SST the MANIFEST does not list — the output of
    /// a compaction that crashed before it committed — and keeps every
    /// one it does.
    #[test]
    fn open_deletes_unlisted_key_ssts_and_keeps_live_ones() {
        let o = test_opts("db");
        let env = o.env.clone();
        let db = open(o.clone());
        for i in 0..300 {
            put(
                &db,
                &format!("key{i:03}"),
                &format!("value-{i}-").repeat(10),
            );
        }
        db.flush().unwrap();
        drop(db);
        let tables = || -> HashSet<u64> {
            env.list_prefix("db/")
                .unwrap()
                .iter()
                .filter_map(|p| parse_path("db", p))
                .filter_map(|(kind, n)| (kind == FileKind::Table).then_some(n))
                .collect()
        };
        let live = tables();
        assert!(live.len() > 1, "the store wrote {} key SSTs", live.len());
        let stray = live.iter().max().unwrap() + 1000;
        let mut f = env
            .new_writable(&table_path("db", stray), IoClass::Compaction)
            .unwrap();
        f.append(b"an SST no version lists").unwrap();
        f.sync().unwrap();
        drop(f);

        let db = open(o);
        assert_eq!(tables(), live, "the stray SST is gone, the live ones stay");
        assert!(
            db.inner.pending_deletions.lock().is_empty(),
            "open queued a live SST for deletion"
        );
        let listed: HashSet<u64> = db
            .current_version()
            .levels
            .iter()
            .flatten()
            .map(|f| f.file_number)
            .collect();
        assert_eq!(listed, live);
        for i in (0..300).step_by(7) {
            assert!(db.get(format!("key{i:03}").as_bytes()).is_ok());
        }
    }
}
