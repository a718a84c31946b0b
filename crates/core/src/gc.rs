//! Garbage collection strategies.
//!
//! Three schemes, mirroring the systems the paper studies (§II):
//!
//! * [`GcScheme::NoWriteback`] — TerarkDB/Scavenger. Valid records are
//!   moved to new value files and the old→new **inheritance** edge is
//!   recorded; index entries are never rewritten. Scavenger additionally
//!   enables **Lazy Read** (only the RTable's dense index is read before
//!   validation, and only *valid* values are fetched — paper Fig. 8) and
//!   **hot/cold routing** of rewritten values.
//! * [`GcScheme::Writeback`] — Titan. The whole blob file is scanned,
//!   valid values are rewritten, and the new addresses are written back
//!   through the LSM write path (the *Write-Index* step of Fig. 3),
//!   guarded against concurrent user writes.
//! * [`GcScheme::CompactionTriggered`] — BlobDB. No standalone GC: value
//!   relocation happens inside compaction (see [`crate::hook`]), and a
//!   blob file is deleted only once every record in it has been exposed
//!   as garbage ([`exhausted`](crate::vstore::VsstMeta::is_exhausted)).
//!
//! Both standalone schemes run one job, `GcRunner::collect`. They differ
//! in four places only: record identity (`(user_key, seq)` through
//! inheritance, or Titan's `(file, offset)`), write order (internal-key
//! order, or Titan's scan order, so its blob logs hold what Titan writes),
//! the route (by hotness, or always cold) and the job's last step,
//! **publish**: an inheritance edit, or Titan's Write-Index.
//!
//! Every phase is wall-clock timed into [`GcStats`], reproducing the
//! paper's Figure 3 latency breakdown. Value-file I/O — steps ①, ③ and
//! ④ — is charged to `IoClass::GcRead` / `IoClass::GcWrite` for Figure
//! 12(c): the writes by their handles, the reads by the
//! [`reads_charged_to`] scope GC enters where it issues them, since a
//! value file has one reader that GC borrows from the value store. Step
//! ② is not: GC-Lookup reads the index through the table
//! cache's shared readers, whose handles are opened as
//! `IoClass::FgIndexRead`, so its key-SST reads are counted there (on a
//! workload with no foreground reads, all of `FgIndexRead` is GC-Lookup).
//!
//! # The validation pipeline (GC-Lookup, Fig. 8 step ② / Fig. 10)
//!
//! A GC job moves through five phases, named after the paper's Fig. 8:
//!
//! | phase | Fig. 8 | what happens here |
//! |---|---|---|
//! | **Read**   | step ① | value-file keys (Lazy Read: the file's one reader, `ValueStore::reader`, borrowed — one tail read if no `get` opened it first, which caches every index partition that read holds — then the partitions outside it, walked on the caller's thread, so a file whose index sits in its last 16 KiB costs at most that one read) or whole records (each file walked once in 256 KiB spans, the files fanned out across the `gc_threads` pool) are loaded into the pending batch |
//! | **GC-Lookup** | step ② | every pending record is validated against the index LSM-tree at each read point |
//! | **Fetch** | step ③ | surviving values are fetched (lazy), survivors within [`GC_COALESCE`] of each other in one I/O; the per-file reads fan out across the `gc_threads` pool, merged in deterministic file order |
//! | **Write** | step ④ | survivors are appended one by one to the job's `RouteWriters` (`vstore::route`), which routes hot/cold, rolls files at the size target and deletes its files if the job fails |
//! | **Publish** | Titan: Write-Index | keyed schemes: one manifest edit deletes the candidates and records inheritance. Titan: commit the new files, push the new addresses through the write path, retire the candidates (`ValueStore::retire`) behind a read-point barrier |
//!
//! Steps ②–④ of every job *overlap* once the job is larger than one
//! batch: the pending set is split into contiguous batches of
//! `gc_exec::PIPELINE_BATCH` records and threaded through a
//! bounded-channel executor (`gc_exec`), so batch *k+1* validates while
//! batch *k* fetches and batch *k−1* writes. Titan's job runs through the
//! same executor, but validates its whole pending set first: its batches
//! keep scan order, where every candidate file spans the key range, so
//! batch-by-batch validation would sweep the index once per file. A job
//! that fits in one batch runs the same three stage closures inline.
//! Batch boundaries never show in the output: value files, file numbers,
//! and [`GcOutcome`]s are a function of the op sequence alone (asserted
//! by `tests/integration_gc_pipeline.rs`), and per-stage queue/overlap
//! counters land in [`GcStats`].
//!
//! The paper's Fig. 10 profiles GC-Lookup — one serial `get_at` point
//! query per record per read point — as the dominant GC cost. Here the
//! phase is one function, `GcRunner::validate`: the batch is sorted by
//! user key and resolved with **one co-sequential sweep of the pinned
//! tree's index entries per read point** ([`scavenger_lsm::BatchSweep`]):
//! memtables complete, a DTable as its KF stream alone (§III-B2), a
//! BTable whole. A record `(ukey, seq)` is live at read point `pt` ⇔ the
//! newest index entry `<= pt` is a reference that passes the scheme's
//! identity check, **and** no inline version of `ukey` with
//! `found_seq < s <= pt` exists in any KV stream of the pinned version —
//! asked only after the first half passed, per key SST covering `ukey`,
//! as one bloom-guarded point search of the KV stream, and only of the
//! key SSTs no older than the one the reference came from (none when it
//! came from a memtable): an older file holds only older versions of the
//! key, the order a point lookup relies on. So a dead record costs KF
//! entries out of high-priority-cached KF blocks and nothing else, a live
//! one a KV-block read only where a newer file may shadow it, and the
//! inline small values are never paged through the block cache to be
//! skipped. A read or checksum failure in either half fails
//! the job. The paper's point-lookup loop survives only as the oracle of
//! `tests/integration_gc_validation.rs`, which holds the sweep's verdicts
//! to it.

use crate::dropcache::DropCache;
use crate::gc_exec::{self, PIPELINE_BATCH};
use crate::options::{Features, GcScheme, VFormat};
use crate::stats::GcStats;
use crate::vstore::fetch::{self, Want};
use crate::vstore::route::{Route, RouteWriters};
use crate::vstore::vtable::{parse_record_key, VReader, ValueAt};
use crate::vstore::{ValueStore, VsstMeta, GC_COALESCE};
use bytes::Bytes;
use scavenger_env::{reads_charged_to, IoClass};
use scavenger_lsm::{
    BatchReader, BornTails, GuardedWrite, Lsm, NewValueFile, Precondition, ValueEditBundle,
    WriteBatch, WriteOptions,
};
use scavenger_util::ikey::{cmp_internal, SeqNo, ValueRef};
use scavenger_util::{Error, Result};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Garbage ratio at which a value file becomes a GC candidate (paper
/// §IV-A: 0.2). A constant, not an option: the experiments move the
/// space *limit* (which lowers the effective threshold through
/// [`THROTTLE_GC_FACTOR`](crate::throttle::THROTTLE_GC_FACTOR)), never
/// this; tests that need another value call
/// [`Shard::run_gc_at`](crate::Shard::run_gc_at).
pub const GC_THRESHOLD: f64 = 0.2;

/// Outcome of a dry-run [`GcRunner::validate_file`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcValidationReport {
    /// Records examined.
    pub records: u64,
    /// Records still referenced from some read point.
    pub valid: u64,
}

/// Result of one GC job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Value files collected (deleted).
    pub files_collected: usize,
    /// Valid records rewritten.
    pub records_rewritten: u64,
    /// Bytes freed: deleted file sizes minus new file sizes.
    pub bytes_reclaimed: u64,
    /// Bytes the job *asked* its candidate files for: per file Lazy Read
    /// walked, its tail blocks (whoever opened the reader), the index
    /// partitions and the surviving records fetched; the whole size of a
    /// file that was scanned. Not in it: what rode along — the rest of a tail
    /// prefetch, the dead records a coalesced fetch reads through. How
    /// reads are batched is the device's business, what the job needed
    /// is the policy's.
    pub bytes_read: u64,
    /// Bytes of the value files the job wrote.
    pub bytes_written: u64,
}

impl GcOutcome {
    /// What paced auto-GC charges this job against the budget
    /// [`Options::gc_bandwidth_factor`](crate::Options::gc_bandwidth_factor)
    /// grants: the bytes it asked for plus the bytes it wrote.
    pub fn io_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Result of one [`Db::run_gc`](crate::Db::run_gc) call: each member's
/// GC outcome, indexed by shard (one slot for a plain store).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Each member's outcome for this pass (`None` where no candidate
    /// crossed the GC threshold), indexed by shard.
    pub outcomes: Vec<Option<GcOutcome>>,
}

impl GcReport {
    /// Did any member run a GC job this pass?
    pub fn ran(&self) -> bool {
        self.outcomes.iter().any(|o| o.is_some())
    }

    /// Number of GC jobs that actually ran.
    pub fn jobs(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_some()).count()
    }

    /// Sum of all outcomes — files collected, records rewritten, bytes
    /// reclaimed, read and written across the whole handle.
    pub fn aggregate(&self) -> GcOutcome {
        let mut total = GcOutcome::default();
        for o in self.outcomes.iter().flatten() {
            total.files_collected += o.files_collected;
            total.records_rewritten += o.records_rewritten;
            total.bytes_reclaimed += o.bytes_reclaimed;
            total.bytes_read += o.bytes_read;
            total.bytes_written += o.bytes_written;
        }
        total
    }
}

/// Tuning knobs for the GC runner.
#[derive(Debug, Clone, Copy)]
pub struct GcConfig {
    /// Target size of rewritten value files.
    pub vsst_target: u64,
    /// Max candidate files merged per GC job.
    pub batch_files: usize,
    /// Worker threads for parallel file I/O (Fetch fan-out, whole-file
    /// Read scans).
    pub threads: usize,
}

/// Drives GC jobs for one engine.
pub struct GcRunner {
    features: Features,
    cfg: GcConfig,
    vstore: Arc<ValueStore>,
    dropcache: Arc<DropCache>,
    stats: Arc<GcStats>,
}

/// A record read from a candidate file (step ①), awaiting validation.
struct Pending {
    ikey: Vec<u8>,
    source: u64,
    /// Where the value sits in `source`: for a blob log, the address an
    /// index reference carries — write-back's record identity.
    offset: u64,
    loc: Loc,
}

enum Loc {
    /// Value already in memory (whole-file scan, TerarkDB-style Read).
    Inline(Bytes),
    /// Only the record's location is known (Lazy Read); the value is
    /// fetched after validation.
    Lazy(ValueAt),
}

/// What step ① read from a job's candidate files.
#[derive(Default)]
struct ReadOut {
    /// Every record, file by file in candidate order.
    pending: Vec<Pending>,
    /// The readers of the Lazy-Read files, for step ③.
    readers: HashMap<u64, Arc<VReader>>,
    /// Bytes asked of the files ([`GcOutcome::bytes_read`]).
    bytes: u64,
}

/// What the Fetch stage hands the Write stage: each survivor with its
/// value, and the record bytes it asked the source files for.
type Fetched = (Vec<(Pending, Bytes)>, u64);

/// A job's read points, pinned until it publishes, and the reader that
/// validates against them — handed to whichever thread runs the
/// GC-Lookup stage (the caller for a one-batch job, the validate stage
/// worker otherwise).
///
/// The reader's view registers the latest sequence *before*
/// [`Lsm::read_points`] scans the registry, so the point set is
/// race-free: any reader registered after the scan observes a sequence
/// at or above the view's, whose visible versions this GC preserves. The
/// reader also materializes the memtable snapshots once per job.
struct Pin {
    reader: BatchReader,
    points: Vec<SeqNo>,
}

impl Pin {
    fn new(lsm: &Lsm) -> Pin {
        let reader = lsm.batch_reader();
        // User snapshots plus in-flight view pins — our own included, so
        // the latest sequence is covered.
        let points = lsm.read_points();
        Pin { reader, points }
    }
}

impl GcRunner {
    /// Create a runner.
    pub fn new(
        features: Features,
        cfg: GcConfig,
        vstore: Arc<ValueStore>,
        dropcache: Arc<DropCache>,
        stats: Arc<GcStats>,
    ) -> Self {
        GcRunner {
            features,
            cfg,
            vstore,
            dropcache,
            stats,
        }
    }

    /// Reap what the read points have released (`ValueStore::reap`), then
    /// run one GC job if any file crosses `threshold`. Returns `None`
    /// when there is nothing to collect (or the scheme has no standalone
    /// GC).
    pub fn run_once(&self, lsm: &Lsm, threshold: f64) -> Result<Option<GcOutcome>> {
        self.vstore.reap(lsm)?;
        match self.features.gc {
            GcScheme::CompactionTriggered => Ok(None),
            GcScheme::NoWriteback | GcScheme::Writeback => self.collect(lsm, threshold),
        }
    }

    fn writeback(&self) -> bool {
        self.features.gc == GcScheme::Writeback
    }

    /// [`gc_exec::parallel_map_ordered`] over the `gc_threads` pool,
    /// counting the workers it dispatches into
    /// [`GcStats::fetch_parallel_jobs`](crate::stats::GcStats).
    fn fan_out<T, R>(&self, jobs: &[T], f: impl Fn(&T) -> Result<R> + Sync) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
    {
        let workers = gc_exec::workers(jobs.len(), self.cfg.threads);
        if workers > 1 {
            self.stats.add(|g| g.fetch_parallel_jobs += workers as u64);
        }
        gc_exec::parallel_map_ordered(jobs, self.cfg.threads, f)
    }

    /// Step ① **Read** over `files`. Lazy Read walks an RTable's dense
    /// index on the caller's thread: its partitions come through the
    /// block cache, whose state depends on their order. Every other file
    /// is scanned whole, the scans fanned out across the `gc_threads`
    /// pool and merged back in file order.
    fn read(&self, files: &[Arc<VsstMeta>]) -> Result<ReadOut> {
        // Write-back identity is `(file, offset)`, which the lazy index
        // does not carry.
        let lazy = |m: &VsstMeta| m.format == VFormat::RTable && !self.writeback();
        let scanned: Vec<u64> = files.iter().filter(|m| !lazy(m)).map(|m| m.file).collect();
        let mut scans = self
            .fan_out(&scanned, |&file| self.vstore.gc_scan(file))?
            .into_iter();
        let mut out = ReadOut::default();
        for meta in files {
            let source = meta.file;
            if lazy(meta) {
                let (reader, index) = reads_charged_to(IoClass::GcRead, || {
                    let reader = self.vstore.reader(source)?;
                    let index = reader.read_lazy_index()?;
                    Ok::<_, Error>((reader, index))
                })?;
                out.bytes += reader.lazy_index_bytes()?;
                for (ikey, handle) in index {
                    out.pending.push(Pending {
                        ikey,
                        source,
                        offset: handle.offset,
                        loc: Loc::Lazy(ValueAt::Record(handle)),
                    });
                }
                out.readers.insert(source, reader);
            } else {
                out.bytes += meta.size;
                for rec in scans.next().expect("one scan per scanned file") {
                    out.pending.push(Pending {
                        ikey: rec.ikey,
                        source,
                        offset: rec.value_offset,
                        loc: Loc::Inline(rec.value),
                    });
                }
            }
        }
        Ok(out)
    }

    /// Step ② **GC-Lookup** over one batch: the records some read point
    /// still references, in input order. The batch is visited in user-key
    /// order by one co-sequential sweep of the job's pinned
    /// [`BatchReader`] per read point; each verdict is the sweep's
    /// [`is_live`](scavenger_lsm::BatchSweep::is_live) under the scheme's
    /// record identity:
    ///
    /// * keyed (no write-back): the visible reference carries the
    ///   record's `seq` and resolves, through inheritance, to its source
    ///   file;
    /// * write-back (Titan): the visible reference points at the record's
    ///   exact `(file, offset)`. Sequences must NOT be matched: write-back
    ///   re-inserts index entries under fresh sequence numbers while the
    ///   relocated blob record keeps the original one.
    fn validate(&self, pin: &Pin, batch: Vec<Pending>) -> Result<Vec<Pending>> {
        if batch.is_empty() {
            return Ok(batch);
        }
        self.stats.add(|g| g.validate_batches += 1);
        let keys = batch
            .iter()
            .map(|rec| parse_record_key(&rec.ikey))
            .collect::<Result<Vec<_>>>()?;
        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.sort_by(|&a, &b| keys[a].0.cmp(keys[b].0));
        let writeback = self.writeback();
        let mut valid = vec![false; batch.len()];
        for &pt in &pin.points {
            let mut sweep = pin.reader.sweep(pt)?;
            for &i in &order {
                if valid[i] {
                    continue;
                }
                let (rec, (ukey, seq)) = (&batch[i], keys[i]);
                valid[i] = sweep.is_live(ukey, &|found_seq, r| {
                    if writeback {
                        r.file == rec.source && r.offset == rec.offset
                    } else {
                        found_seq == seq && self.vstore.resolves_to(r.file, rec.source)
                    }
                })?;
            }
            let s = sweep.stats();
            self.stats.add(|g| {
                g.validate_sweeps += 1;
                g.validate_sweep_steps += s.steps;
                g.validate_sweep_seeks += s.seeks;
            });
        }
        Ok(batch
            .into_iter()
            .zip(valid)
            .filter_map(|(rec, ok)| ok.then_some(rec))
            .collect())
    }

    /// Dry-run steps ① and ② over every record of value file `file`
    /// without moving any data: how many records are still live?
    pub fn validate_file(&self, lsm: &Lsm, file: u64) -> Result<GcValidationReport> {
        let meta = self
            .vstore
            .meta(file)
            .ok_or_else(|| Error::not_found(format!("value file {file}")))?;
        let pending = self.read(&[meta])?.pending;
        let records = pending.len() as u64;
        Ok(GcValidationReport {
            records,
            valid: self.validate(&Pin::new(lsm), pending)?.len() as u64,
        })
    }

    /// The one GC job: pick the candidates crossing `threshold`, then
    /// steps ①–④, then the scheme's [`publish`](Self::publish) step.
    fn collect(&self, lsm: &Lsm, threshold: f64) -> Result<Option<GcOutcome>> {
        let writeback = self.writeback();
        // ---- Pick ----
        let candidates: Vec<_> = self
            .vstore
            .gc_candidates(threshold)
            .into_iter()
            .take(self.cfg.batch_files.max(1))
            .collect();
        if candidates.is_empty() {
            return Ok(None);
        }
        let sources: Vec<u64> = candidates.iter().map(|m| m.file).collect();
        let deleted_bytes: u64 = candidates.iter().map(|m| m.size).sum();

        // ---- Read (paper Fig. 8 step ① / §II-C "Read") ----
        let t_read = Instant::now();
        let ReadOut {
            mut pending,
            readers,
            bytes: mut bytes_read,
        } = self.read(&candidates)?;
        // Keyed schemes sort the whole pending set by internal key up
        // front: validation verdicts are order-independent, the Fetch
        // phase and the table formats want this order, and the pipeline's
        // batches must be contiguous sorted ranges so that records are
        // written — and value files rolled — at boundaries the batch size
        // cannot move. Titan's blob logs take the scan order.
        if !writeback {
            pending.sort_by(|a, b| cmp_internal(&a.ikey, &b.ikey));
        }
        self.stats.add(|g| {
            g.read_ns += t_read.elapsed().as_nanos() as u64;
            g.records_scanned += pending.len() as u64;
        });

        // ---- GC-Lookup / Fetch / Write (Fig. 8 steps ②–④) ----
        // The reader pin stays alive until the job publishes: every
        // version it protects is then rewritten, reachable through
        // inheritance, or in a file whose deletion waits for it.
        let pin = Pin::new(lsm);
        // Relocated values are cold whatever their key's hotness.
        let route = if writeback {
            Route::Cold
        } else {
            Route::ByHotness
        };
        let mut writers = RouteWriters::new(
            &self.vstore,
            self.features,
            self.cfg.vsst_target,
            IoClass::GcWrite,
            lsm.file_numbers(),
            &self.dropcache,
        );
        let mut guarded: Vec<GuardedWrite> = Vec::new();
        let mut rewritten: u64 = 0;

        let lookup = |batch: Vec<Pending>| -> Result<Vec<Pending>> {
            let t = Instant::now();
            let out = self.validate(&pin, batch);
            self.stats.add(|g| {
                g.lookup_ns += t.elapsed().as_nanos() as u64;
                g.records_valid += out.as_ref().map_or(0, |v| v.len() as u64);
            });
            out
        };
        // Write-back batches keep scan order, and under random updates
        // every candidate file spans the key range: validated batch by
        // batch, the index would be swept once per candidate file. So
        // write-back validates the whole set, one sorted sweep per read
        // point, before it is cut into batches, and its batches pass the
        // GC-Lookup stage as they are.
        if writeback {
            pending = lookup(pending)?;
        }
        let validate_stage = move |batch| if writeback { Ok(batch) } else { lookup(batch) };
        let fetch_stage = |valid: Vec<Pending>| -> Result<Fetched> {
            let t = Instant::now();
            let out = self.fetch_values(&readers, valid);
            self.stats
                .add(|g| g.read_ns += t.elapsed().as_nanos() as u64);
            out
        };
        let (writers_ref, guarded_ref) = (&mut writers, &mut guarded);
        let (rewritten_ref, bytes_read_ref) = (&mut rewritten, &mut bytes_read);
        let write_stage = move |(survivors, fetched_bytes): Fetched| -> Result<()> {
            let t = Instant::now();
            *rewritten_ref += survivors.len() as u64;
            *bytes_read_ref += fetched_bytes;
            let out = survivors.iter().try_for_each(|(rec, value)| {
                let (ukey, seq) = parse_record_key(&rec.ikey)?;
                let (file, w) = writers_ref.add(route, ukey, seq, value)?;
                if writeback {
                    guarded_ref.push(GuardedWrite {
                        key: ukey.to_vec(),
                        expected: ValueRef {
                            file: rec.source,
                            size: value.len() as u32,
                            offset: rec.offset,
                        },
                        replacement: ValueRef {
                            file,
                            size: w.size,
                            offset: w.offset,
                        },
                    });
                }
                Ok(())
            });
            self.stats
                .add(|g| g.write_ns += t.elapsed().as_nanos() as u64);
            out
        };
        let mut chunks: Vec<Vec<Pending>> =
            Vec::with_capacity(pending.len().div_ceil(PIPELINE_BATCH));
        let mut it = pending.into_iter();
        loop {
            let chunk: Vec<Pending> = it.by_ref().take(PIPELINE_BATCH).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        gc_exec::run_overlapped(
            chunks,
            validate_stage,
            fetch_stage,
            write_stage,
            &self.stats,
        )?;
        let (new_files, born) = writers.finish()?;
        let new_bytes: u64 = new_files.iter().map(|f| f.size).sum();
        self.publish(lsm, pin, &sources, new_files, born, guarded)?;

        let job = GcOutcome {
            files_collected: sources.len(),
            records_rewritten: rewritten,
            bytes_reclaimed: deleted_bytes.saturating_sub(new_bytes),
            bytes_read,
            bytes_written: new_bytes,
        };
        self.stats.add(|g| {
            g.runs += 1;
            g.files_collected += job.files_collected as u64;
            g.reclaimed_bytes += job.bytes_reclaimed;
            g.requested_bytes += job.io_bytes();
        });
        Ok(Some(job))
    }

    /// The Fetch phase (the lazy part of Lazy Read, step ③) for one batch
    /// of surviving records: inline values pass through; Lazy-Read
    /// handles go to the value store's shared [`fetch`](fetch::fetch) —
    /// grouped per source file, sorted by offset, survivors within
    /// [`GC_COALESCE`] of each other sharing one I/O — with the per-file
    /// jobs fanned out across the `gc_threads` pool and merged back in
    /// file order.
    fn fetch_values(
        &self,
        readers: &HashMap<u64, Arc<VReader>>,
        valid: Vec<Pending>,
    ) -> Result<Fetched> {
        let wants: Vec<Want<'_>> = valid
            .iter()
            .filter_map(|rec| match &rec.loc {
                Loc::Inline(_) => None,
                Loc::Lazy(at) => Some(Want {
                    file: rec.source,
                    reader: &readers[&rec.source],
                    at,
                    ikey: &rec.ikey,
                }),
            })
            .collect();
        let asked: u64 = wants.iter().map(|w| w.at.fetch_len()).sum();
        let mut fetched = fetch::fetch(&wants, GC_COALESCE, &|n, run| {
            let jobs: Vec<usize> = (0..n).collect();
            self.fan_out(&jobs, |&j| reads_charged_to(IoClass::GcRead, || run(j)))
        })?
        .into_iter();
        drop(wants);
        let records = valid
            .into_iter()
            .map(|rec| {
                let value = match &rec.loc {
                    Loc::Inline(value) => value.clone(),
                    Loc::Lazy(_) => fetched.next().expect("one fetched value per lazy record"),
                };
                (rec, value)
            })
            .collect();
        Ok((records, asked))
    }

    /// The job's last step. Keyed schemes delete the candidates in one
    /// manifest edit that records inheritance instead of rewriting index
    /// entries (§II-B). The new files' readers are born from `born` once
    /// the edit registering them commits.
    /// Write-back publishes through Titan's Write-Index step.
    fn publish(
        &self,
        lsm: &Lsm,
        pin: Pin,
        sources: &[u64],
        new_files: Vec<NewValueFile>,
        born: BornTails,
        guarded: Vec<GuardedWrite>,
    ) -> Result<()> {
        if !self.writeback() {
            let inherits = sources
                .iter()
                .flat_map(|&old| new_files.iter().map(move |nf| (old, nf.file)))
                .collect();
            return lsm.apply_value_edit(
                ValueEditBundle {
                    new_files,
                    deleted_files: sources.to_vec(),
                    inherits,
                    garbage: Vec::new(),
                },
                born,
            );
        }
        // ---- Commit the new files *before* writing back any address
        // that points into them. The manifest edit is fsynced, so by the
        // time a written-back reference can become durable (through the
        // WAL) its target file is already registered. The reverse order
        // has a crash window that recovers WAL records pointing at a
        // file the manifest never heard of — open-time orphan cleanup
        // unlinks the file and every recovered reference dangles. This
        // way a crash between commit and write-back merely leaves an
        // unreferenced file for a later GC pass to reclaim. (Same
        // ordering also closes a live race under threaded background
        // work: a reader must never observe a written-back address
        // before the value store can resolve it.)
        if !new_files.is_empty() {
            let bundle = ValueEditBundle {
                new_files,
                ..Default::default()
            };
            lsm.apply_value_edit(bundle, born)?;
        }

        // ---- Write-Index: push the new addresses through the write path
        // (Titan's extra step, ~38% of GC time in the paper's Fig. 3) ----
        let t_wi = Instant::now();
        if !guarded.is_empty() {
            // Write-back is durability-critical (the old value files are
            // retired below), so the default synced options.
            lsm.write_checked(
                &WriteOptions::default(),
                WriteBatch::new(),
                Some(Precondition::Guarded(guarded)),
            )?;
        }
        self.stats
            .add(|g| g.write_index_ns += t_wi.elapsed().as_nanos() as u64);

        // ---- Retire ----
        // Write-back has no inheritance edges, so a reader pinned below
        // the write-back commit still resolves through the collected
        // files: they are retired behind that barrier, not deleted. With
        // the job's own pin released, the reap unlinks them at once
        // unless another reader is in flight.
        self.vstore.retire(lsm.last_sequence(), sources.to_vec());
        drop(pin);
        self.vstore.reap(lsm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gc_report_normalizes_shapes() {
        let none = GcReport {
            outcomes: vec![None],
        };
        assert!(!none.ran());
        assert_eq!(none.jobs(), 0);
        assert_eq!(none.aggregate(), GcOutcome::default());

        let fanout = GcReport {
            outcomes: vec![
                Some(GcOutcome {
                    files_collected: 2,
                    records_rewritten: 10,
                    bytes_reclaimed: 4096,
                    bytes_read: 300,
                    bytes_written: 200,
                }),
                None,
                Some(GcOutcome {
                    files_collected: 1,
                    records_rewritten: 5,
                    bytes_reclaimed: 1024,
                    bytes_read: 30,
                    bytes_written: 20,
                }),
            ],
        };
        assert!(fanout.ran());
        assert_eq!(fanout.jobs(), 2);
        let total = fanout.aggregate();
        assert_eq!(total.files_collected, 3);
        assert_eq!(total.records_rewritten, 15);
        assert_eq!(total.bytes_reclaimed, 5120);
        assert_eq!(total.io_bytes(), 550);
    }
}
