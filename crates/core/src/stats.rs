//! Engine statistics: GC step breakdown (paper Fig. 3), space breakdown,
//! and the aggregate snapshot the experiment harness consumes.

use scavenger_env::IoStatsSnapshot;
use scavenger_util::ikey::SeqNo;
use std::sync::atomic::{AtomicU64, Ordering};

/// Accumulated per-step GC cost. The four steps are exactly the paper's
/// (§II-C): Read, GC-Lookup, Write, Write-Index.
#[derive(Debug, Default)]
pub struct GcStats {
    /// Wall nanoseconds in the Read step.
    pub read_ns: AtomicU64,
    /// Wall nanoseconds in the GC-Lookup step.
    pub lookup_ns: AtomicU64,
    /// Wall nanoseconds in the Write step.
    pub write_ns: AtomicU64,
    /// Wall nanoseconds in the Write-Index step (Titan only).
    pub write_index_ns: AtomicU64,
    /// GC jobs run.
    pub runs: AtomicU64,
    /// Value files collected.
    pub files_collected: AtomicU64,
    /// Records examined.
    pub records_scanned: AtomicU64,
    /// Records found valid and rewritten.
    pub records_valid: AtomicU64,
    /// Bytes of garbage reclaimed (file bytes deleted minus bytes
    /// rewritten).
    pub reclaimed_bytes: AtomicU64,
    /// Validation batches executed (one per pipeline batch; one per job
    /// for write-back GC).
    pub validate_batches: AtomicU64,
    /// Co-sequential merge sweeps run (batches × read points).
    pub validate_sweeps: AtomicU64,
    /// Forward iterator steps taken by merge sweeps.
    pub validate_sweep_steps: AtomicU64,
    /// Full merged re-seeks taken by merge sweeps.
    pub validate_sweep_seeks: AtomicU64,
    /// Worker tasks dispatched by parallel GC file I/O (the Fetch phase's
    /// per-file fan-out and Titan's full-file Read scans).
    pub fetch_parallel_jobs: AtomicU64,
    /// Record batches staged through `VWriter::add_batch` by the Write
    /// phase's route writers.
    pub write_batches: AtomicU64,
    /// GC jobs larger than one batch, whose stages ran overlapped.
    pub pipeline_jobs: AtomicU64,
    /// Record batches pushed through the overlapped stages.
    pub pipeline_batches: AtomicU64,
    /// Stage executions that began while another pipeline stage was
    /// mid-batch — the direct measure of stage overlap.
    pub pipeline_overlaps: AtomicU64,
    /// Inter-stage handoffs that found the downstream queue full
    /// (backpressure from a slower stage).
    pub pipeline_backpressure: AtomicU64,
}

impl GcStats {
    /// Point-in-time copy.
    pub fn snapshot(&self) -> GcStepTimes {
        GcStepTimes {
            read_ns: self.read_ns.load(Ordering::Relaxed),
            lookup_ns: self.lookup_ns.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
            write_index_ns: self.write_index_ns.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
            files_collected: self.files_collected.load(Ordering::Relaxed),
            records_scanned: self.records_scanned.load(Ordering::Relaxed),
            records_valid: self.records_valid.load(Ordering::Relaxed),
            reclaimed_bytes: self.reclaimed_bytes.load(Ordering::Relaxed),
            validate_batches: self.validate_batches.load(Ordering::Relaxed),
            validate_sweeps: self.validate_sweeps.load(Ordering::Relaxed),
            validate_sweep_steps: self.validate_sweep_steps.load(Ordering::Relaxed),
            validate_sweep_seeks: self.validate_sweep_seeks.load(Ordering::Relaxed),
            fetch_parallel_jobs: self.fetch_parallel_jobs.load(Ordering::Relaxed),
            write_batches: self.write_batches.load(Ordering::Relaxed),
            pipeline_jobs: self.pipeline_jobs.load(Ordering::Relaxed),
            pipeline_batches: self.pipeline_batches.load(Ordering::Relaxed),
            pipeline_overlaps: self.pipeline_overlaps.load(Ordering::Relaxed),
            pipeline_backpressure: self.pipeline_backpressure.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of [`GcStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStepTimes {
    /// Read-step nanoseconds.
    pub read_ns: u64,
    /// GC-Lookup-step nanoseconds.
    pub lookup_ns: u64,
    /// Write-step nanoseconds.
    pub write_ns: u64,
    /// Write-Index-step nanoseconds.
    pub write_index_ns: u64,
    /// GC jobs run.
    pub runs: u64,
    /// Files collected.
    pub files_collected: u64,
    /// Records examined.
    pub records_scanned: u64,
    /// Records rewritten.
    pub records_valid: u64,
    /// Garbage bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Validation batches executed.
    pub validate_batches: u64,
    /// Co-sequential merge sweeps run.
    pub validate_sweeps: u64,
    /// Forward iterator steps taken by merge sweeps.
    pub validate_sweep_steps: u64,
    /// Full merged re-seeks taken by merge sweeps.
    pub validate_sweep_seeks: u64,
    /// Worker tasks dispatched by parallel GC file I/O (Fetch fan-out and
    /// Titan Read scans).
    pub fetch_parallel_jobs: u64,
    /// Record batches staged through `VWriter::add_batch` by the Write
    /// phase.
    pub write_batches: u64,
    /// GC jobs larger than one batch, whose stages ran overlapped.
    pub pipeline_jobs: u64,
    /// Record batches pushed through the overlapped stages.
    pub pipeline_batches: u64,
    /// Stage executions that overlapped another stage.
    pub pipeline_overlaps: u64,
    /// Handoffs that hit a full inter-stage queue (backpressure).
    pub pipeline_backpressure: u64,
}

impl GcStepTimes {
    /// Total nanoseconds across all steps.
    pub fn total_ns(&self) -> u64 {
        self.read_ns + self.lookup_ns + self.write_ns + self.write_index_ns
    }

    /// Per-step share of GC time as `(read, lookup, write, write_index)`
    /// percentages — the paper's Figure 3 latency breakdown.
    pub fn percentages(&self) -> (f64, f64, f64, f64) {
        let t = self.total_ns() as f64;
        if t == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            100.0 * self.read_ns as f64 / t,
            100.0 * self.lookup_ns as f64 / t,
            100.0 * self.write_ns as f64 / t,
            100.0 * self.write_index_ns as f64 / t,
        )
    }

    /// Add `other`'s counters into `self` — used by
    /// [`DbShards::stats`](crate::DbShards::stats) to fold per-shard GC
    /// breakdowns into one set-wide snapshot. The exhaustive
    /// destructuring (no `..`) makes the compiler flag any field added
    /// to the struct but forgotten here.
    pub fn accumulate(&mut self, other: &GcStepTimes) {
        let GcStepTimes {
            read_ns,
            lookup_ns,
            write_ns,
            write_index_ns,
            runs,
            files_collected,
            records_scanned,
            records_valid,
            reclaimed_bytes,
            validate_batches,
            validate_sweeps,
            validate_sweep_steps,
            validate_sweep_seeks,
            fetch_parallel_jobs,
            write_batches,
            pipeline_jobs,
            pipeline_batches,
            pipeline_overlaps,
            pipeline_backpressure,
        } = *other;
        self.read_ns += read_ns;
        self.lookup_ns += lookup_ns;
        self.write_ns += write_ns;
        self.write_index_ns += write_index_ns;
        self.runs += runs;
        self.files_collected += files_collected;
        self.records_scanned += records_scanned;
        self.records_valid += records_valid;
        self.reclaimed_bytes += reclaimed_bytes;
        self.validate_batches += validate_batches;
        self.validate_sweeps += validate_sweeps;
        self.validate_sweep_steps += validate_sweep_steps;
        self.validate_sweep_seeks += validate_sweep_seeks;
        self.fetch_parallel_jobs += fetch_parallel_jobs;
        self.write_batches += write_batches;
        self.pipeline_jobs += pipeline_jobs;
        self.pipeline_batches += pipeline_batches;
        self.pipeline_overlaps += pipeline_overlaps;
        self.pipeline_backpressure += pipeline_backpressure;
    }

    /// `self - earlier`, saturating.
    pub fn delta(&self, earlier: &GcStepTimes) -> GcStepTimes {
        GcStepTimes {
            read_ns: self.read_ns.saturating_sub(earlier.read_ns),
            lookup_ns: self.lookup_ns.saturating_sub(earlier.lookup_ns),
            write_ns: self.write_ns.saturating_sub(earlier.write_ns),
            write_index_ns: self.write_index_ns.saturating_sub(earlier.write_index_ns),
            runs: self.runs.saturating_sub(earlier.runs),
            files_collected: self.files_collected.saturating_sub(earlier.files_collected),
            records_scanned: self.records_scanned.saturating_sub(earlier.records_scanned),
            records_valid: self.records_valid.saturating_sub(earlier.records_valid),
            reclaimed_bytes: self.reclaimed_bytes.saturating_sub(earlier.reclaimed_bytes),
            validate_batches: self
                .validate_batches
                .saturating_sub(earlier.validate_batches),
            validate_sweeps: self.validate_sweeps.saturating_sub(earlier.validate_sweeps),
            validate_sweep_steps: self
                .validate_sweep_steps
                .saturating_sub(earlier.validate_sweep_steps),
            validate_sweep_seeks: self
                .validate_sweep_seeks
                .saturating_sub(earlier.validate_sweep_seeks),
            fetch_parallel_jobs: self
                .fetch_parallel_jobs
                .saturating_sub(earlier.fetch_parallel_jobs),
            write_batches: self.write_batches.saturating_sub(earlier.write_batches),
            pipeline_jobs: self.pipeline_jobs.saturating_sub(earlier.pipeline_jobs),
            pipeline_batches: self
                .pipeline_batches
                .saturating_sub(earlier.pipeline_batches),
            pipeline_overlaps: self
                .pipeline_overlaps
                .saturating_sub(earlier.pipeline_overlaps),
            pipeline_backpressure: self
                .pipeline_backpressure
                .saturating_sub(earlier.pipeline_backpressure),
        }
    }
}

/// Where the engine's bytes live on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceBreakdown {
    /// Key SSTs (the index LSM-tree).
    pub ksst_bytes: u64,
    /// Value SSTs / blob logs.
    pub value_bytes: u64,
    /// Write-ahead logs.
    pub wal_bytes: u64,
    /// Manifest + CURRENT.
    pub manifest_bytes: u64,
    /// Anything else.
    pub other_bytes: u64,
}

impl SpaceBreakdown {
    /// Total engine footprint.
    pub fn total(&self) -> u64 {
        self.ksst_bytes + self.value_bytes + self.wal_bytes + self.manifest_bytes + self.other_bytes
    }

    /// Add `other`'s per-category bytes into `self` — used by
    /// [`DbShards`](crate::DbShards) to fold per-shard breakdowns into
    /// one set-wide total. Exhaustively destructured (no `..`) so a new
    /// category cannot be silently dropped from aggregation.
    pub fn accumulate(&mut self, other: &SpaceBreakdown) {
        let SpaceBreakdown {
            ksst_bytes,
            value_bytes,
            wal_bytes,
            manifest_bytes,
            other_bytes,
        } = *other;
        self.ksst_bytes += ksst_bytes;
        self.value_bytes += value_bytes;
        self.wal_bytes += wal_bytes;
        self.manifest_bytes += manifest_bytes;
        self.other_bytes += other_bytes;
    }
}

/// Aggregate engine statistics for the harness.
#[derive(Debug, Clone)]
pub struct DbStats {
    /// Per-class I/O counters.
    pub io: IoStatsSnapshot,
    /// GC step breakdown.
    pub gc: GcStepTimes,
    /// On-disk space breakdown.
    pub space: SpaceBreakdown,
    /// Index LSM-tree space amplification (paper Eq. 1).
    pub index_space_amp: f64,
    /// Total exposed garbage bytes in the value store.
    pub exposed_garbage_bytes: u64,
    /// Total value bytes in live value files.
    pub value_store_bytes: u64,
    /// Live value files.
    pub value_files: u64,
    /// Block cache hit ratio.
    pub cache_hit_ratio: f64,
    /// Flushes.
    pub flushes: u64,
    /// Compactions.
    pub compactions: u64,
    /// Entries dropped by merges.
    pub merge_drops: u64,
    /// Write-path throttle activations (space-aware throttling, §III-D).
    /// When the engine is a [`DbShards`](crate::DbShards) member, the
    /// counter is shared — every shard reports the set-wide total.
    pub throttle_stalls: u64,
    /// The oldest registered read point (gauge), or `None` when no
    /// reader is in flight. Everything visible at this sequence is
    /// preserved: compaction keeps the pinned versions, no-writeback GC
    /// validates against it, Titan's write-back GC holds collected blob
    /// files in its deferred queue until no read point predates the
    /// relocation, and BlobDB defers exhausted-file reaping entirely
    /// while it is `Some`. A value that stays old for a long time is the
    /// signature of a leaked view/snapshot — space cannot be reclaimed
    /// past it, which space-aware throttling (§III-D) will eventually
    /// surface as activations that cannot get back under the limit.
    pub oldest_read_point: Option<SeqNo>,
    /// Pinned transient views currently registered (gauge): in-flight
    /// `get`s/scans, live [`ReadView`](crate::ReadView)s, and GC
    /// validation readers.
    pub pinned_views: u64,
    /// User [`Snapshot`](crate::Snapshot)s currently registered (gauge).
    /// Beyond pinning versions like any read point, snapshots gate
    /// Titan's whole-job GC deferral.
    pub live_snapshots: u64,
    /// Background jobs that exhausted their transient-failure retries (or
    /// failed permanently) and degraded the engine to read-only mode.
    pub bg_errors: u64,
    /// Transient background-job failures that were retried with backoff
    /// (see `Options::bg_retry_limit` / `Options::bg_retry_base`).
    pub bg_retries: u64,
    /// True while the engine is in read-only degraded mode after a
    /// permanent background failure; writes fail fast with
    /// [`Error::ReadOnlyMode`](scavenger_util::Error::ReadOnlyMode) until
    /// `resume()` clears the condition. For a [`DbShards`](crate::DbShards)
    /// set this is the OR across shards.
    pub degraded: bool,
    /// WAL files whose tail was found torn/corrupt during recovery; the
    /// intact record prefix was replayed and the rest discarded.
    pub wal_tail_corruptions: u64,
    /// Commit groups formed by the group-commit write path (each group is
    /// one WAL record, one memtable pass, and at most one fsync).
    pub group_commit_groups: u64,
    /// Writer batches committed through those groups. Equal to
    /// `group_commit_groups` when writers never contend; greater under
    /// concurrency.
    pub group_commit_batches: u64,
    /// Largest number of batches ever merged into a single group.
    pub group_commit_max_group: u64,
    /// Fsyncs elided by riding a group leader's sync: for every synced
    /// group this grows by `sync_riders - 1`.
    pub group_commit_fsyncs_saved: u64,
    /// Optimistic transactions committed through this handle (validated
    /// read set, batch applied). For a [`DbShards`](crate::DbShards) set
    /// this sums the set-level commits with any per-shard commits.
    pub txn_commits: u64,
    /// Optimistic transactions rejected at commit-time validation: a
    /// read-set key was overwritten after the transaction's read point.
    pub txn_conflicts: u64,
    /// Multi-shard batches committed through the two-phase coordinator
    /// log (prepare + commit records). Always 0 on a single
    /// [`Db`](crate::Db);
    /// single-shard batches bypass the coordinator entirely.
    pub txn_2pc_commits: u64,
    /// Prepared-but-uncommitted coordinator transactions rolled forward
    /// during recovery (crash between prepare and the last shard apply).
    pub txn_2pc_rollforwards: u64,
    /// Change events published to the CDC ring at group-commit apply
    /// time (counter; includes internal relocation events the
    /// subscriber API filters out).
    pub cdc_events_published: u64,
    /// Registered change-stream cursors (gauge). For a
    /// [`DbShards`](crate::DbShards) set this sums per-shard cursors,
    /// so one merged subscription counts once per shard.
    pub cdc_subscribers: u64,
    /// WAL bytes retained beyond the durability horizon for change-
    /// stream catch-up — the CDC share of [`DbStats::pinned_bytes`].
    pub cdc_retained_wal_bytes: u64,
    /// How far the slowest registered subscriber trails the commit head
    /// in sequence numbers (gauge; max across shards, 0 when caught up
    /// or no subscribers).
    pub cdc_lag_seqs: u64,
    /// Cursor polls served from retained WAL segments rather than the
    /// in-memory ring (counter) — nonzero means subscribers fell behind
    /// the ring and took the catch-up path.
    pub cdc_catchup_reads: u64,
    /// Bytes the engine is currently holding *only* because something
    /// pins them — WAL history retained for change streams plus value
    /// files whose reclamation is deferred by read points (gauge).
    /// Space-aware throttling (§III-D) discounts these: reclamation
    /// cannot get rid of them, so stalling writers on them is pointless.
    pub pinned_bytes: u64,
}

// ---------------- Prometheus exposition ----------------

/// Append one metric line in Prometheus text exposition format:
/// `name{labels} value`. `labels` is the raw label-pair string (e.g.
/// `r#"class="wal",shard="3""#`), or `""` for none — the braces are
/// omitted entirely in that case.
pub fn prom_line(out: &mut String, name: &str, labels: &str, value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    if value.fract() == 0.0 && value.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", value as i64));
    } else {
        out.push_str(&format!("{value}"));
    }
    out.push('\n');
}

/// Append a `# HELP` / `# TYPE` header for a metric.
pub fn prom_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Append per-[`IoClass`](scavenger_env::IoClass) I/O counters in
/// exposition format, one series per class, with `extra_labels`
/// (e.g. `r#"shard="2""#`) appended to each class label.
pub fn render_io_prometheus(out: &mut String, io: &IoStatsSnapshot, extra_labels: &str) {
    for class in scavenger_env::io_stats::ALL_IO_CLASSES {
        let c = io.class(class);
        let labels = if extra_labels.is_empty() {
            format!("class=\"{}\"", class.label())
        } else {
            format!("class=\"{}\",{extra_labels}", class.label())
        };
        prom_line(
            out,
            "scavenger_io_read_bytes_total",
            &labels,
            c.read_bytes as f64,
        );
        prom_line(
            out,
            "scavenger_io_read_ops_total",
            &labels,
            c.read_ops as f64,
        );
        prom_line(
            out,
            "scavenger_io_write_bytes_total",
            &labels,
            c.write_bytes as f64,
        );
        prom_line(
            out,
            "scavenger_io_write_ops_total",
            &labels,
            c.write_ops as f64,
        );
    }
}

impl DbStats {
    /// Render this snapshot in Prometheus text exposition format,
    /// appending `labels` to every series. Covers the per-class I/O
    /// counters, the GC step breakdown, the space breakdown, and every
    /// scalar gauge — the engine half of a `/metrics` scrape (the
    /// server layer adds its own connection/latency series on top).
    pub fn render_prometheus(&self, out: &mut String, labels: &str) {
        let DbStats {
            io,
            gc,
            space,
            index_space_amp,
            exposed_garbage_bytes,
            value_store_bytes,
            value_files,
            cache_hit_ratio,
            flushes,
            compactions,
            merge_drops,
            throttle_stalls,
            oldest_read_point,
            pinned_views,
            live_snapshots,
            bg_errors,
            bg_retries,
            degraded,
            wal_tail_corruptions,
            group_commit_groups,
            group_commit_batches,
            group_commit_max_group,
            group_commit_fsyncs_saved,
            txn_commits,
            txn_conflicts,
            txn_2pc_commits,
            txn_2pc_rollforwards,
            cdc_events_published,
            cdc_subscribers,
            cdc_retained_wal_bytes,
            cdc_lag_seqs,
            cdc_catchup_reads,
            pinned_bytes,
        } = self;
        render_io_prometheus(out, io, labels);
        let g = |out: &mut String, name: &str, v: f64| prom_line(out, name, labels, v);
        g(out, "scavenger_gc_runs_total", gc.runs as f64);
        g(
            out,
            "scavenger_gc_files_collected_total",
            gc.files_collected as f64,
        );
        g(
            out,
            "scavenger_gc_records_scanned_total",
            gc.records_scanned as f64,
        );
        g(
            out,
            "scavenger_gc_records_valid_total",
            gc.records_valid as f64,
        );
        g(
            out,
            "scavenger_gc_reclaimed_bytes_total",
            gc.reclaimed_bytes as f64,
        );
        for (step, ns) in [
            ("read", gc.read_ns),
            ("lookup", gc.lookup_ns),
            ("write", gc.write_ns),
            ("write_index", gc.write_index_ns),
        ] {
            let step_labels = if labels.is_empty() {
                format!("step=\"{step}\"")
            } else {
                format!("step=\"{step}\",{labels}")
            };
            prom_line(
                out,
                "scavenger_gc_step_seconds_total",
                &step_labels,
                ns as f64 / 1e9,
            );
        }
        for (kind, bytes) in [
            ("ksst", space.ksst_bytes),
            ("value", space.value_bytes),
            ("wal", space.wal_bytes),
            ("manifest", space.manifest_bytes),
            ("other", space.other_bytes),
        ] {
            let kind_labels = if labels.is_empty() {
                format!("kind=\"{kind}\"")
            } else {
                format!("kind=\"{kind}\",{labels}")
            };
            prom_line(out, "scavenger_space_bytes", &kind_labels, bytes as f64);
        }
        g(out, "scavenger_index_space_amp", *index_space_amp);
        g(
            out,
            "scavenger_exposed_garbage_bytes",
            *exposed_garbage_bytes as f64,
        );
        g(
            out,
            "scavenger_value_store_bytes",
            *value_store_bytes as f64,
        );
        g(out, "scavenger_value_files", *value_files as f64);
        g(out, "scavenger_cache_hit_ratio", *cache_hit_ratio);
        g(out, "scavenger_flushes_total", *flushes as f64);
        g(out, "scavenger_compactions_total", *compactions as f64);
        g(out, "scavenger_merge_drops_total", *merge_drops as f64);
        g(
            out,
            "scavenger_throttle_stalls_total",
            *throttle_stalls as f64,
        );
        // Absent ⇒ no reader in flight; emit presence + value so a
        // scraper can tell "no pin" from "pinned at sequence 0".
        g(
            out,
            "scavenger_oldest_read_point_present",
            if oldest_read_point.is_some() {
                1.0
            } else {
                0.0
            },
        );
        g(
            out,
            "scavenger_oldest_read_point",
            oldest_read_point.unwrap_or(0) as f64,
        );
        g(out, "scavenger_pinned_views", *pinned_views as f64);
        g(out, "scavenger_live_snapshots", *live_snapshots as f64);
        g(out, "scavenger_bg_errors_total", *bg_errors as f64);
        g(out, "scavenger_bg_retries_total", *bg_retries as f64);
        g(out, "scavenger_degraded", if *degraded { 1.0 } else { 0.0 });
        g(
            out,
            "scavenger_wal_tail_corruptions_total",
            *wal_tail_corruptions as f64,
        );
        g(
            out,
            "scavenger_group_commit_groups_total",
            *group_commit_groups as f64,
        );
        g(
            out,
            "scavenger_group_commit_batches_total",
            *group_commit_batches as f64,
        );
        g(
            out,
            "scavenger_group_commit_max_group",
            *group_commit_max_group as f64,
        );
        g(
            out,
            "scavenger_group_commit_fsyncs_saved_total",
            *group_commit_fsyncs_saved as f64,
        );
        g(out, "scavenger_txn_commits_total", *txn_commits as f64);
        g(out, "scavenger_txn_conflicts_total", *txn_conflicts as f64);
        g(
            out,
            "scavenger_txn_2pc_commits_total",
            *txn_2pc_commits as f64,
        );
        g(
            out,
            "scavenger_txn_2pc_rollforwards_total",
            *txn_2pc_rollforwards as f64,
        );
        g(
            out,
            "scavenger_cdc_events_published_total",
            *cdc_events_published as f64,
        );
        g(out, "scavenger_cdc_subscribers", *cdc_subscribers as f64);
        g(
            out,
            "scavenger_cdc_retained_wal_bytes",
            *cdc_retained_wal_bytes as f64,
        );
        g(out, "scavenger_cdc_lag_seqs", *cdc_lag_seqs as f64);
        g(
            out,
            "scavenger_cdc_catchup_reads_total",
            *cdc_catchup_reads as f64,
        );
        g(out, "scavenger_pinned_bytes", *pinned_bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages_sum_to_100() {
        let t = GcStepTimes {
            read_ns: 500,
            lookup_ns: 300,
            write_ns: 150,
            write_index_ns: 50,
            ..Default::default()
        };
        let (r, l, w, wi) = t.percentages();
        assert!((r + l + w + wi - 100.0).abs() < 1e-9);
        assert!((r - 50.0).abs() < 1e-9);
        assert!((wi - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_percentages_are_zero() {
        let t = GcStepTimes::default();
        assert_eq!(t.percentages(), (0.0, 0.0, 0.0, 0.0));
        assert_eq!(t.total_ns(), 0);
    }

    #[test]
    fn delta_subtracts() {
        let a = GcStepTimes {
            read_ns: 100,
            runs: 2,
            ..Default::default()
        };
        let b = GcStepTimes {
            read_ns: 250,
            runs: 5,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.read_ns, 150);
        assert_eq!(d.runs, 3);
    }

    #[test]
    fn space_total_sums_components() {
        let s = SpaceBreakdown {
            ksst_bytes: 1,
            value_bytes: 2,
            wal_bytes: 3,
            manifest_bytes: 4,
            other_bytes: 5,
        };
        assert_eq!(s.total(), 15);
    }

    #[test]
    fn prom_line_formats_labels_and_integers() {
        let mut out = String::new();
        prom_line(&mut out, "m", "", 3.0);
        prom_line(&mut out, "m", "a=\"b\"", 0.5);
        assert_eq!(out, "m 3\nm{a=\"b\"} 0.5\n");
    }

    #[test]
    fn io_render_emits_every_class_with_extra_labels() {
        let io = IoStatsSnapshot::default();
        let mut out = String::new();
        render_io_prometheus(&mut out, &io, "shard=\"1\"");
        assert!(out.contains("scavenger_io_read_bytes_total{class=\"wal\",shard=\"1\"} 0"));
        assert!(out.contains("class=\"gc-write\""));
        assert_eq!(
            out.lines().count(),
            4 * scavenger_env::io_stats::NUM_IO_CLASSES
        );
    }

    #[test]
    fn gc_stats_atomics_accumulate() {
        let g = GcStats::default();
        g.read_ns.fetch_add(10, Ordering::Relaxed);
        g.read_ns.fetch_add(5, Ordering::Relaxed);
        g.runs.fetch_add(1, Ordering::Relaxed);
        let s = g.snapshot();
        assert_eq!(s.read_ns, 15);
        assert_eq!(s.runs, 1);
    }
}
