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
//! Every phase is wall-clock timed into [`GcStats`], reproducing the
//! paper's Figure 3 latency breakdown. Value-file I/O — steps ①, ③ and
//! ④ — is charged to `IoClass::GcRead` / `IoClass::GcWrite` for Figure
//! 12(c). Step ② is not: GC-Lookup reads the index through the table
//! cache's shared readers, whose handles are opened as
//! `IoClass::FgIndexRead`, so its key-SST reads are counted there (on a
//! workload with no foreground reads, all of `FgIndexRead` is GC-Lookup).
//!
//! # The validation pipeline (GC-Lookup, Fig. 8 step ② / Fig. 10)
//!
//! A GC job moves through four phases, named after the paper's Fig. 8:
//!
//! | phase | Fig. 8 | what happens here |
//! |---|---|---|
//! | **Read**   | step ① | value-file keys (Lazy Read: one tail read to open the RTable, then its index partitions) or whole records (the file walked once in 256 KiB spans) are loaded into the pending batch; Titan's full-file scans fan out across the `gc_threads` pool |
//! | **GC-Lookup** | step ② | every pending record is validated against the index LSM-tree at each read point |
//! | **Fetch** | step ③ | surviving values are fetched (lazy), survivors within [`GC_COALESCE`] of each other in one I/O; the per-file reads fan out across the `gc_threads` pool, merged in deterministic file order |
//! | **Write** | step ④ | survivors are appended one by one to the job's `RouteWriters` (`vstore::route`), which routes hot/cold, rolls files at the size target and deletes its files if the job fails |
//! | **Write-Index** | Titan only | new addresses are pushed back through the write path |
//!
//! Steps ②–④ of a no-writeback job *overlap* once the job is larger
//! than one batch: the sorted pending set is split into contiguous
//! batches of `gc_exec::PIPELINE_BATCH` records and threaded through a
//! bounded-channel executor (`gc_exec`), so batch *k+1* validates while
//! batch *k* fetches and batch *k−1* writes. A job that fits in one batch
//! runs the same three stage closures inline. Batch boundaries never
//! show in the output: value files, file numbers, and [`GcOutcome`]s are
//! a function of the op sequence alone (asserted by
//! `tests/integration_gc_pipeline.rs`), and per-stage queue/overlap
//! counters land in [`GcStats`].
//!
//! The paper's Fig. 10 profiles GC-Lookup — one serial `get_at` point
//! query per record per read point — as the dominant GC cost. Here the
//! phase is one function, `GcRunner::validate_items`: the batch is
//! sorted by user key (the fetch phase wants that order anyway) and
//! resolved with **one co-sequential sweep of the pinned tree's index
//! entries per read point** ([`scavenger_lsm::BatchSweep`]): memtables
//! complete, a DTable as its KF stream alone (§III-B2), a BTable whole.
//! A record `(ukey, seq)` is live at read point `pt` ⇔ the newest index
//! entry `<= pt` is a reference that passes the scheme's identity check,
//! **and** no inline version of `ukey` with `found_seq < s <= pt` exists
//! in any KV stream of the pinned version — asked only after the first
//! half passed, per key SST covering `ukey`, as one bloom-guarded point
//! search of the KV stream. So a dead record costs KF entries out of
//! high-priority-cached KF blocks and nothing else, and the inline small
//! values are never paged through the block cache to be skipped. A read
//! or checksum failure in either half fails the job. The paper's
//! point-lookup loop survives only as the oracle of
//! `tests/integration_gc_validation.rs`, which holds the sweep's
//! verdicts to it.

use crate::dropcache::DropCache;
use crate::gc_exec::{self, PIPELINE_BATCH};
use crate::options::{Features, GcScheme, VFormat};
use crate::stats::GcStats;
use crate::vstore::fetch::{self, Want};
use crate::vstore::route::{Route, RouteWriters};
use crate::vstore::vtable::{parse_record_key, VReader, ValueAt};
use crate::vstore::{ValueStore, GC_COALESCE};
use bytes::Bytes;
use parking_lot::Mutex;
use scavenger_env::IoClass;
use scavenger_lsm::{BatchReader, GuardedWrite, Lsm, ValueEditBundle};
use scavenger_table::btable::TableOptions;
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
    /// opened, its tail blocks, the index partitions walked and the
    /// surviving records fetched; the whole size of a file that was
    /// scanned. Not in it: what rode along — the rest of a tail
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
    /// Worker threads for parallel file I/O (Fetch fan-out, Titan Read
    /// scans).
    pub threads: usize,
}

/// Drives GC jobs for one engine.
pub struct GcRunner {
    features: Features,
    cfg: GcConfig,
    table_opts: TableOptions,
    vstore: Arc<ValueStore>,
    dropcache: Arc<DropCache>,
    stats: Arc<GcStats>,
    /// Write-back (Titan) GC cannot preserve superseded versions through
    /// inheritance, so collected blob files are deleted *deferred*: only
    /// once no registered read point predates the job's write-back
    /// barrier (see [`GcRunner::reap_deferred`]).
    deferred: Mutex<Vec<DeferredDeletion>>,
}

/// Blob files awaiting deletion until every read point that could still
/// address them has drained.
struct DeferredDeletion {
    /// Sequence of the GC job's write-back commit: readers at or above it
    /// observe the relocated references.
    barrier: SeqNo,
    files: Vec<u64>,
}

/// A record awaiting validation.
struct Pending {
    ikey: Vec<u8>,
    source: u64,
    loc: Loc,
}

enum Loc {
    /// Value already in memory (full-file scan, TerarkDB-style Read).
    Inline(Bytes),
    /// Only the record's location is known (Lazy Read); the value is
    /// fetched after validation.
    Lazy(ValueAt),
}

/// What the Fetch stage hands the Write stage: `(internal key, value)`
/// per survivor, and the record bytes it asked the source files for.
type Fetched = (Vec<(Vec<u8>, Bytes)>, u64);

/// One record's identity inside a validation batch.
struct ValItem {
    ukey: Vec<u8>,
    seq: SeqNo,
}

/// Everything the GC-Lookup stage needs, pinned once per job and handed
/// to whichever thread runs the stage (the caller for a one-batch job,
/// the validate stage worker otherwise).
///
/// The [`BatchReader`] doubles as the job's read-point pin: it registers
/// its sequence *before* [`Lsm::read_points`] scans the registry (see
/// [`GcRunner::read_points`]), and materializes the memtable snapshots
/// exactly once per job instead of once per validation call.
struct ValidateCtx<'a> {
    reader: &'a BatchReader,
    read_points: &'a [SeqNo],
}

impl GcRunner {
    /// Create a runner.
    pub fn new(
        features: Features,
        cfg: GcConfig,
        table_opts: TableOptions,
        vstore: Arc<ValueStore>,
        dropcache: Arc<DropCache>,
        stats: Arc<GcStats>,
    ) -> Self {
        GcRunner {
            features,
            cfg,
            table_opts,
            vstore,
            dropcache,
            stats,
            deferred: Mutex::new(Vec::new()),
        }
    }

    /// Run one GC job if any file crosses `threshold`. Returns `None` when
    /// there is nothing to collect (or the scheme has no standalone GC).
    pub fn run_once(&self, lsm: &Lsm, threshold: f64) -> Result<Option<GcOutcome>> {
        self.reap_deferred(lsm)?;
        match self.features.gc {
            GcScheme::CompactionTriggered => Ok(None),
            GcScheme::NoWriteback => self.gc_no_writeback(lsm, threshold),
            GcScheme::Writeback => self.gc_writeback(lsm, threshold),
        }
    }

    /// Count a committed job into the stats.
    fn job_done(&self, job: GcOutcome) -> GcOutcome {
        self.stats.add(|g| {
            g.runs += 1;
            g.files_collected += job.files_collected as u64;
            g.reclaimed_bytes += job.bytes_reclaimed;
            g.requested_bytes += job.io_bytes();
        });
        job
    }

    /// The job's output files (step ④ **Write**), charged to GC write I/O.
    fn route_writers(&self, lsm: &Lsm) -> RouteWriters {
        RouteWriters::new(
            &self.vstore,
            self.features,
            self.table_opts.clone(),
            self.cfg.vsst_target,
            IoClass::GcWrite,
            lsm.file_alloc(),
            &self.dropcache,
        )
    }

    /// Read points for validity, pinned for the duration of the job.
    ///
    /// The returned reader's view registers the latest sequence *before*
    /// the registry is scanned, so the point set is race-free: any reader
    /// registered after the scan necessarily observes a sequence at or
    /// above the view's — whose visible versions this GC preserves. The
    /// caller must keep the reader alive until the job commits.
    fn read_points(&self, lsm: &Lsm) -> (BatchReader, Vec<SeqNo>) {
        let reader = lsm.batch_reader();
        // All registered read points: user snapshots plus in-flight view
        // pins (including our own, so the latest sequence is covered).
        let pts = lsm.read_points();
        (reader, pts)
    }

    /// The GC-Lookup phase: decide for every pending record whether any
    /// read point still references it. The batch is visited in user-key
    /// order by one co-sequential sweep of the job's pinned
    /// [`BatchReader`] per read point; each verdict is the sweep's
    /// [`is_live`](scavenger_lsm::BatchSweep::is_live) under the scheme's
    /// record identity.
    ///
    /// `require_seq_match` is true for keyed (no-writeback) schemes, where
    /// record identity is `(user_key, seq)`. Address-based write-back GC
    /// (Titan) must NOT match sequences: its write-back re-inserts index
    /// entries under fresh sequence numbers while the relocated blob
    /// record keeps the original one — there, `(file, offset)` is the
    /// record's identity, which `check_ref` tests.
    ///
    /// Returns one bool per item, in input order.
    fn validate_items(
        &self,
        cx: &ValidateCtx<'_>,
        items: &[ValItem],
        require_seq_match: bool,
        check_ref: &dyn Fn(usize, &ValueRef) -> bool,
    ) -> Result<Vec<bool>> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        self.stats.add(|g| g.validate_batches += 1);
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by(|&a, &b| items[a].ukey.cmp(&items[b].ukey));
        let mut valid = vec![false; items.len()];
        for &pt in cx.read_points {
            let mut sweep = cx.reader.sweep(pt)?;
            for &i in &order {
                if valid[i] {
                    continue;
                }
                let item = &items[i];
                valid[i] = sweep.is_live(&item.ukey, &|seq, r| {
                    (!require_seq_match || seq == item.seq) && check_ref(i, r)
                })?;
            }
            let s = sweep.stats();
            self.stats.add(|g| {
                g.validate_sweeps += 1;
                g.validate_sweep_steps += s.steps;
                g.validate_sweep_seeks += s.seeks;
            });
        }
        Ok(valid)
    }

    /// Dry-run the GC-Lookup phase over every record of value file `file`
    /// without moving any data: how many records are still live?
    pub fn validate_file(&self, lsm: &Lsm, file: u64) -> Result<GcValidationReport> {
        let meta = self
            .vstore
            .meta(file)
            .ok_or_else(|| Error::not_found(format!("value file {file}")))?;
        let mut items: Vec<ValItem> = Vec::new();
        let mut offsets: Vec<u64> = Vec::new();
        // Write-back identity is `(file, offset)`, so its records must be
        // materialized via a full scan (the lazy index carries no offsets).
        let need_addresses = self.features.gc == GcScheme::Writeback;
        if !need_addresses && self.features.lazy_read && meta.format == VFormat::RTable {
            for (ikey, _) in self.vstore.gc_reader(file)?.read_lazy_index()? {
                let (u, s) = parse_record_key(&ikey)?;
                items.push(ValItem {
                    ukey: u.to_vec(),
                    seq: s,
                });
            }
        } else {
            for rec in self.vstore.gc_scan(file)? {
                let (u, s) = parse_record_key(&rec.ikey)?;
                items.push(ValItem {
                    ukey: u.to_vec(),
                    seq: s,
                });
                offsets.push(rec.value_offset);
            }
        }
        let (reader, read_points) = self.read_points(lsm);
        let cx = ValidateCtx {
            reader: &reader,
            read_points: &read_points,
        };
        // Record identity must mirror the scheme's own GC (see
        // `validate_items`): keyed for no-writeback, `(file, offset)` for
        // write-back, where rewritten index entries carry fresh seqs.
        let keyed = |_i: usize, r: &ValueRef| self.vstore.resolves_to(r.file, file);
        let addressed = |i: usize, r: &ValueRef| r.file == file && r.offset == offsets[i];
        let verdicts = match self.features.gc {
            GcScheme::Writeback => self.validate_items(&cx, &items, false, &addressed)?,
            _ => self.validate_items(&cx, &items, true, &keyed)?,
        };
        Ok(GcValidationReport {
            records: items.len() as u64,
            valid: verdicts.iter().filter(|&&v| v).count() as u64,
        })
    }

    // ---------------- TerarkDB / Scavenger ----------------

    fn gc_no_writeback(&self, lsm: &Lsm, threshold: f64) -> Result<Option<GcOutcome>> {
        let candidates: Vec<_> = self
            .vstore
            .gc_candidates(threshold)
            .into_iter()
            .take(self.cfg.batch_files.max(1))
            .collect();
        if candidates.is_empty() {
            return Ok(None);
        }
        let candidate_files: Vec<u64> = candidates.iter().map(|m| m.file).collect();
        let deleted_bytes: u64 = candidates.iter().map(|m| m.size).sum();

        // ---- Read (paper Fig. 8 step ① / §II-C "Read") ----
        let t_read = Instant::now();
        let mut readers: HashMap<u64, VReader> = HashMap::new();
        let mut pending: Vec<Pending> = Vec::new();
        let mut bytes_read: u64 = 0;
        for meta in &candidates {
            if self.features.lazy_read && meta.format == VFormat::RTable {
                let reader = self.vstore.gc_reader(meta.file)?;
                bytes_read += reader.lazy_index_bytes()?;
                for (ikey, handle) in reader.read_lazy_index()? {
                    pending.push(Pending {
                        ikey,
                        source: meta.file,
                        loc: Loc::Lazy(ValueAt::Record(handle)),
                    });
                }
                readers.insert(meta.file, reader);
            } else {
                bytes_read += meta.size;
                for rec in self.vstore.gc_scan(meta.file)? {
                    pending.push(Pending {
                        ikey: rec.ikey,
                        source: meta.file,
                        loc: Loc::Inline(rec.value),
                    });
                }
            }
        }
        // Sort the whole pending set by internal key up front: validation
        // verdicts are order-independent, the Fetch phase wants this
        // order anyway, and the pipeline's batches must be contiguous
        // sorted ranges so that records are written — and value files
        // rolled — at boundaries the batch size cannot move.
        pending.sort_by(|a, b| cmp_internal(&a.ikey, &b.ikey));
        self.stats.add(|g| {
            g.read_ns += t_read.elapsed().as_nanos() as u64;
            g.records_scanned += pending.len() as u64;
        });

        // ---- GC-Lookup / Fetch / Write (Fig. 8 steps ②–④) ----
        // The reader pin stays alive until the job commits: every version
        // it protects is either rewritten or reachable through
        // inheritance.
        let (reader, read_points) = self.read_points(lsm);
        let cx = ValidateCtx {
            reader: &reader,
            read_points: &read_points,
        };
        let mut route_writers = self.route_writers(lsm);
        let mut rewritten: u64 = 0;

        let validate_stage = |batch: Vec<Pending>| -> Result<Vec<Pending>> {
            let t = Instant::now();
            let out = self.validate_pending(&cx, batch);
            self.stats
                .add(|g| g.lookup_ns += t.elapsed().as_nanos() as u64);
            out
        };
        let fetch_stage = |valid: Vec<Pending>| -> Result<Fetched> {
            let t = Instant::now();
            let out = self.fetch_values(&readers, valid);
            self.stats
                .add(|g| g.read_ns += t.elapsed().as_nanos() as u64);
            out
        };
        let route_writers_ref = &mut route_writers;
        let rewritten_ref = &mut rewritten;
        let bytes_read_ref = &mut bytes_read;
        let write_stage = move |(materialized, fetched_bytes): Fetched| -> Result<()> {
            let t = Instant::now();
            *rewritten_ref += materialized.len() as u64;
            *bytes_read_ref += fetched_bytes;
            let out = materialized.iter().try_for_each(|(ikey, value)| {
                let (ukey, seq) = parse_record_key(ikey)?;
                route_writers_ref.add(Route::ByHotness, ukey, seq, value)?;
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
        let outputs = route_writers.finish()?;

        // ---- Commit: inheritance instead of index rewrites (§II-B) ----
        let mut bundle = ValueEditBundle {
            new_files: outputs,
            deleted_files: candidate_files.clone(),
            inherits: Vec::new(),
            garbage: Vec::new(),
        };
        for old in &candidate_files {
            for nf in &bundle.new_files {
                bundle.inherits.push((*old, nf.file));
            }
        }
        let new_bytes: u64 = bundle.new_files.iter().map(|f| f.size).sum();
        lsm.apply_value_edit(bundle.clone())?;
        let removed = self.vstore.apply_bundle(&bundle);
        for (file, format) in removed {
            self.vstore.delete_file(file, format);
        }

        Ok(Some(self.job_done(GcOutcome {
            files_collected: candidate_files.len(),
            records_rewritten: rewritten,
            bytes_reclaimed: deleted_bytes.saturating_sub(new_bytes),
            bytes_read,
            bytes_written: new_bytes,
        })))
    }

    /// GC-Lookup (step ②) over one batch of pending records (keyed
    /// identity): returns the subset still referenced from some read
    /// point, preserving input order.
    fn validate_pending(&self, cx: &ValidateCtx<'_>, batch: Vec<Pending>) -> Result<Vec<Pending>> {
        if batch.is_empty() {
            return Ok(batch);
        }
        let mut items = Vec::with_capacity(batch.len());
        for rec in &batch {
            let (u, s) = parse_record_key(&rec.ikey)?;
            items.push(ValItem {
                ukey: u.to_vec(),
                seq: s,
            });
        }
        let sources: Vec<u64> = batch.iter().map(|r| r.source).collect();
        // Keyed identity: alive if some read point's visible reference
        // resolves (through inheritance) to the record's source file.
        let check = |i: usize, r: &ValueRef| self.vstore.resolves_to(r.file, sources[i]);
        let verdicts = self.validate_items(cx, &items, true, &check)?;
        let valid: Vec<Pending> = batch
            .into_iter()
            .zip(&verdicts)
            .filter_map(|(rec, &ok)| ok.then_some(rec))
            .collect();
        self.stats.add(|g| g.records_valid += valid.len() as u64);
        Ok(valid)
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
        readers: &HashMap<u64, VReader>,
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
            gc_exec::parallel_map_ordered(&jobs, self.cfg.threads, &self.stats, |&j| run(j))
        })?
        .into_iter();
        drop(wants);
        let records = valid
            .into_iter()
            .map(|rec| match rec.loc {
                Loc::Inline(value) => (rec.ikey, value),
                Loc::Lazy(_) => (
                    rec.ikey,
                    fetched.next().expect("one fetched value per lazy record"),
                ),
            })
            .collect();
        Ok((records, asked))
    }

    // ---------------- Titan ----------------

    /// Delete deferred write-back candidates whose barrier has cleared:
    /// no registered read point predates the job's write-back commit, so
    /// no in-flight reader can still hold a pre-relocation reference.
    ///
    /// Entries that cannot be reaped — barrier not cleared, or the
    /// manifest write failed — go back on the queue; an error never
    /// drops the remaining entries (they would leak their disk files and
    /// escape `gc_writeback`'s re-pick exclusion).
    fn reap_deferred(&self, lsm: &Lsm) -> Result<()> {
        let mut pending = {
            let mut deferred = self.deferred.lock();
            if deferred.is_empty() {
                return Ok(());
            }
            std::mem::take(&mut *deferred)
        };
        let oldest = lsm.oldest_read_point();
        let mut kept = Vec::new();
        let mut result = Ok(());
        for d in pending.drain(..) {
            if result.is_err() || oldest.is_some_and(|o| o < d.barrier) {
                kept.push(d);
                continue;
            }
            let bundle = ValueEditBundle {
                deleted_files: d.files,
                ..Default::default()
            };
            match lsm.apply_value_edit(bundle.clone()) {
                Ok(()) => {
                    let removed = self.vstore.apply_bundle(&bundle);
                    for (file, format) in removed {
                        self.vstore.delete_file(file, format);
                    }
                }
                Err(e) => {
                    result = Err(e);
                    kept.push(DeferredDeletion {
                        barrier: d.barrier,
                        files: bundle.deleted_files,
                    });
                }
            }
        }
        if !kept.is_empty() {
            self.deferred.lock().extend(kept);
        }
        result
    }

    fn gc_writeback(&self, lsm: &Lsm, threshold: f64) -> Result<Option<GcOutcome>> {
        // Titan gates blob deletion on the oldest snapshot; we take the
        // conservative equivalent and defer GC while snapshots exist.
        if !lsm.snapshot_sequences().is_empty() {
            return Ok(None);
        }
        // Files already collected but awaiting barrier-gated deletion
        // must not be re-picked: their records are dead in the index, so
        // a second pass would churn without reclaiming anything.
        let in_flight: Vec<u64> = {
            let deferred = self.deferred.lock();
            deferred
                .iter()
                .flat_map(|d| d.files.iter().copied())
                .collect()
        };
        let candidates: Vec<_> = self
            .vstore
            .gc_candidates(threshold)
            .into_iter()
            .filter(|m| !in_flight.contains(&m.file))
            .take(self.cfg.batch_files.max(1))
            .collect();
        if candidates.is_empty() {
            return Ok(None);
        }
        let candidate_files: Vec<u64> = candidates.iter().map(|m| m.file).collect();
        let deleted_bytes: u64 = candidates.iter().map(|m| m.size).sum();

        // ---- Read: full scan of each blob file (step ①), fanned out
        // across the `gc_threads` pool — one job per candidate file,
        // results concatenated in candidate order so the record stream
        // (and everything downstream) is deterministic ----
        let t_read = Instant::now();
        let scans = gc_exec::parallel_map_ordered(
            &candidate_files,
            self.cfg.threads,
            &self.stats,
            |&file| {
                Ok(self
                    .vstore
                    .gc_scan(file)?
                    .into_iter()
                    .map(|rec| (file, rec))
                    .collect::<Vec<_>>())
            },
        )?;
        let mut records: Vec<(u64, crate::vstore::vtable::BlobRecord)> = Vec::new();
        for scan in scans {
            records.extend(scan);
        }
        self.stats.add(|g| {
            g.read_ns += t_read.elapsed().as_nanos() as u64;
            g.records_scanned += records.len() as u64;
        });

        // ---- GC-Lookup: validate the batch against the index ----
        let t_lookup = Instant::now();
        let (reader, read_points) = self.read_points(lsm);
        let cx = ValidateCtx {
            reader: &reader,
            read_points: &read_points,
        };
        let mut items = Vec::with_capacity(records.len());
        for (_, rec) in &records {
            let (u, s) = parse_record_key(&rec.ikey)?;
            items.push(ValItem {
                ukey: u.to_vec(),
                seq: s,
            });
        }
        let addrs: Vec<(u64, u64)> = records
            .iter()
            .map(|(source, rec)| (*source, rec.value_offset))
            .collect();
        // Address identity (Titan): alive if some read point's visible
        // reference still points at this exact `(file, offset)`.
        let check = |i: usize, r: &ValueRef| r.file == addrs[i].0 && r.offset == addrs[i].1;
        let verdicts = self.validate_items(&cx, &items, false, &check)?;
        let valid: Vec<(u64, crate::vstore::vtable::BlobRecord)> = records
            .into_iter()
            .zip(&verdicts)
            .filter_map(|(rec, &ok)| ok.then_some(rec))
            .collect();
        self.stats.add(|g| {
            g.lookup_ns += t_lookup.elapsed().as_nanos() as u64;
            g.records_valid += valid.len() as u64;
        });

        // ---- Write: rewrite valid values into fresh blob files (step
        // ④, `features.vformat` being a blob log wherever write-back
        // runs), always cold. Writers (and their file numbers) are
        // allocated lazily, so an all-dead candidate set allocates
        // nothing ----
        let t_write = Instant::now();
        let mut writers = self.route_writers(lsm);
        let mut guarded: Vec<GuardedWrite> = Vec::with_capacity(valid.len());
        for (source, rec) in &valid {
            let (ukey, seq) = parse_record_key(&rec.ikey)?;
            let (file, w) = writers.add(Route::Cold, ukey, seq, &rec.value)?;
            guarded.push(GuardedWrite {
                key: ukey.to_vec(),
                expected: ValueRef {
                    file: *source,
                    size: rec.value.len() as u32,
                    offset: rec.value_offset,
                },
                replacement: ValueRef {
                    file,
                    size: w.size,
                    offset: w.offset,
                },
            });
        }
        let new_files = writers.finish()?;
        self.stats
            .add(|g| g.write_ns += t_write.elapsed().as_nanos() as u64);

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
        let bundle = ValueEditBundle {
            new_files,
            deleted_files: Vec::new(),
            inherits: Vec::new(),
            garbage: Vec::new(),
        };
        let new_bytes: u64 = bundle.new_files.iter().map(|f| f.size).sum();
        if !bundle.new_files.is_empty() {
            lsm.apply_value_edit(bundle.clone())?;
            self.vstore.apply_bundle(&bundle);
        }

        // ---- Write-Index: push the new addresses through the write path
        // (Titan's extra step, ~38% of GC time in the paper's Fig. 3) ----
        let t_wi = Instant::now();
        let rewritten = guarded.len() as u64;
        if !guarded.is_empty() {
            // Write-back is durability-critical (old value files are
            // queued for deletion below), so the default synced options.
            lsm.write_guarded(&scavenger_lsm::WriteOptions::default(), &guarded)?;
        }
        self.stats
            .add(|g| g.write_index_ns += t_wi.elapsed().as_nanos() as u64);

        // ---- Queue deletion ----
        // The collected files are only *queued* for deletion behind a
        // barrier at the write-back commit sequence. Write-back has no
        // inheritance edges, so an in-flight reader pinned below the
        // barrier still resolves through the old file — deleting it now
        // would dangle that read.
        self.deferred.lock().push(DeferredDeletion {
            barrier: lsm.last_sequence(),
            files: candidate_files.clone(),
        });
        // Release the job's own read-point pin, then try to reap: in the
        // quiet case (no other readers in flight) the files are deleted
        // immediately, matching the previous delete-at-commit behaviour.
        drop(reader);
        self.reap_deferred(lsm)?;

        Ok(Some(self.job_done(GcOutcome {
            files_collected: candidate_files.len(),
            records_rewritten: rewritten,
            bytes_reclaimed: deleted_bytes.saturating_sub(new_bytes),
            bytes_read: deleted_bytes,
            bytes_written: new_bytes,
        })))
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
