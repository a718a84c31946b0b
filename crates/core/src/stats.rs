//! Engine statistics: GC step breakdown (paper Fig. 3), space breakdown,
//! and the aggregate snapshot the experiment harness consumes.
//!
//! Every counter is listed once per struct: the two all-`u64` structs
//! come from `counter_struct!` (field list → struct + field-wise
//! combinator), and [`DbStats`]' scalar series come from one table that
//! carries each field's cross-shard fold rule and its Prometheus
//! exposition, so adding a counter is one line here plus the line in
//! [`Db::stats`](crate::Db::stats) that reads it.

use parking_lot::Mutex;
use scavenger_env::io_stats::{ClassSnapshot, ALL_IO_CLASSES};
use scavenger_env::IoStatsSnapshot;
use scavenger_util::ikey::SeqNo;

/// Declares a `Copy` struct of plain `u64` counters. The invocation is
/// the only place the fields are listed; `zip` combines two values field
/// by field (sum, saturating difference, …).
macro_rules! counter_struct {
    ($(#[$meta:meta])* $name:ident { $($(#[$doc:meta])* $field:ident,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl $name {
            fn zip(&self, other: &$name, f: impl Fn(u64, u64) -> u64) -> $name {
                $name {
                    $($field: f(self.$field, other.$field),)*
                }
            }
        }
    };
}

counter_struct! {
    /// Accumulated per-step GC cost. The four steps are exactly the
    /// paper's (§II-C): Read, GC-Lookup, Write, Write-Index.
    GcStepTimes {
        /// Wall nanoseconds in the Read step.
        read_ns,
        /// Wall nanoseconds in the GC-Lookup step.
        lookup_ns,
        /// Wall nanoseconds in the Write step.
        write_ns,
        /// Wall nanoseconds in the Write-Index step (Titan only).
        write_index_ns,
        /// GC jobs run.
        runs,
        /// Value files collected.
        files_collected,
        /// Records examined.
        records_scanned,
        /// Records found valid and rewritten.
        records_valid,
        /// Bytes of garbage reclaimed (file bytes deleted minus bytes
        /// rewritten).
        reclaimed_bytes,
        /// Bytes GC jobs asked their candidate files for plus bytes they
        /// wrote (Σ [`GcOutcome::io_bytes`](crate::GcOutcome::io_bytes))
        /// — the pacing charge's unit; the env's `GcRead` counters also
        /// hold what rode along in coalesced reads.
        requested_bytes,
        /// Validation batches executed (one per pipeline batch; one per
        /// job for write-back GC).
        validate_batches,
        /// Co-sequential merge sweeps run (batches × read points).
        validate_sweeps,
        /// Forward iterator steps taken by merge sweeps.
        validate_sweep_steps,
        /// Full merged re-seeks taken by merge sweeps.
        validate_sweep_seeks,
        /// Worker tasks dispatched by parallel GC file I/O (the Fetch
        /// phase's per-file fan-out and every whole-file Read scan).
        fetch_parallel_jobs,
        /// GC jobs larger than one batch, whose stages ran overlapped.
        pipeline_jobs,
        /// Record batches pushed through the overlapped stages.
        pipeline_batches,
        /// Stage executions that began while another pipeline stage was
        /// mid-batch — the direct measure of stage overlap.
        pipeline_overlaps,
        /// Inter-stage handoffs that found the downstream queue full
        /// (backpressure from a slower stage).
        pipeline_backpressure,
    }
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

    /// Add `other`'s counters into `self`.
    pub fn accumulate(&mut self, other: &GcStepTimes) {
        *self = self.zip(other, |a, b| a + b);
    }

    /// `self - earlier`, saturating.
    pub fn delta(&self, earlier: &GcStepTimes) -> GcStepTimes {
        self.zip(earlier, u64::saturating_sub)
    }
}

/// The live GC accumulator shared by the GC runner, its executor and
/// the BlobDB relocation hook: one [`GcStepTimes`] behind a lock.
/// Writers call `add` once per batch or per job, never
/// per record, so the lock is off every hot loop.
#[derive(Debug, Default)]
pub struct GcStats(Mutex<GcStepTimes>);

impl GcStats {
    /// Apply `f` to the accumulated counters.
    pub(crate) fn add(&self, f: impl FnOnce(&mut GcStepTimes)) {
        f(&mut self.0.lock())
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> GcStepTimes {
        *self.0.lock()
    }
}

counter_struct! {
    /// Where the engine's bytes live on disk.
    SpaceBreakdown {
        /// Key SSTs (the index LSM-tree).
        ksst_bytes,
        /// Value SSTs / blob logs.
        value_bytes,
        /// Write-ahead logs.
        wal_bytes,
        /// Manifest + CURRENT.
        manifest_bytes,
        /// Anything else.
        other_bytes,
    }
}

impl SpaceBreakdown {
    /// Total engine footprint.
    pub fn total(&self) -> u64 {
        self.ksst_bytes + self.value_bytes + self.wal_bytes + self.manifest_bytes + self.other_bytes
    }

    /// Add `other`'s per-category bytes into `self`.
    pub fn accumulate(&mut self, other: &SpaceBreakdown) {
        *self = self.zip(other, |a, b| a + b);
    }
}

// Fold rules for the scalar table below: how one field of several
// members' snapshots becomes the set-wide value.
fn sum(values: impl Iterator<Item = u64>) -> u64 {
    values.sum()
}
fn max(values: impl Iterator<Item = u64>) -> u64 {
    values.max().unwrap_or(0)
}
/// The same for the composite fields, which bring their own `accumulate`.
fn fold<T: Default>(parts: &[DbStats], add: impl Fn(&mut T, &DbStats)) -> T {
    let mut acc = T::default();
    for p in parts {
        add(&mut acc, p);
    }
    acc
}

/// Declares [`DbStats`] from its scalar table. One line per `u64` series:
/// `field: fold-rule, "prometheus_name", "kind", "help";` — the struct
/// field, its place in [`DbStats::merge`] and its `/metrics` series are
/// all generated from that line, so none of the three can be forgotten.
/// The composite fields (I/O, GC, space, the two ratios, the read-point
/// gauge, the degraded flag) are written out by hand in each spot.
macro_rules! db_stats {
    ($($(#[$doc:meta])* $field:ident: $fold:ident, $name:literal, $kind:literal, $help:literal;)*) => {
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
            /// Block cache hit ratio.
            pub cache_hit_ratio: f64,
            /// The oldest registered read point (gauge), or `None` when
            /// no reader is in flight. Everything visible at this
            /// sequence is preserved: compaction keeps the pinned
            /// versions, GC validates against it, and a retired value
            /// file — Titan's collected blob files, retired at their
            /// write-back commit; BlobDB's exhausted ones, retired at
            /// `MAX_SEQNO` — stays on disk while this is below its
            /// barrier (see [`pinned_bytes`](DbStats::pinned_bytes)).
            /// A value that stays old for a long time is the
            /// signature of a leaked view/snapshot — space cannot be
            /// reclaimed past it, which space-aware throttling (§III-D)
            /// will eventually surface as activations that cannot get
            /// back under the limit.
            pub oldest_read_point: Option<SeqNo>,
            /// True while the engine is in read-only degraded mode after
            /// a permanent background failure; writes fail fast with
            /// [`Error::ReadOnlyMode`](scavenger_util::Error::ReadOnlyMode)
            /// until `resume()` clears the condition. For a
            /// [`DbShards`](crate::DbShards) set this is the OR across
            /// shards.
            pub degraded: bool,
            $($(#[$doc])* pub $field: u64,)*
        }

        impl DbStats {
            /// Fold the members' snapshots into one set-wide snapshot.
            /// Counters, space and I/O sum; "largest anywhere" gauges and
            /// counters every member reads from shared state take the
            /// max; `degraded` is the OR; `oldest_read_point` the minimum
            /// of the `Some`s (sequences are per-member, so it is a
            /// conservative "oldest anywhere"); `index_space_amp` the
            /// ksst-byte-weighted mean (1.0 for an empty set). One part
            /// is returned bit for bit: `(x * w) / w` is not always `x`.
            pub(crate) fn merge(parts: &[DbStats]) -> DbStats {
                if let [one] = parts {
                    return one.clone();
                }
                let ksst = sum(parts.iter().map(|s| s.space.ksst_bytes));
                let amp_weighted = parts
                    .iter()
                    .map(|s| s.index_space_amp * s.space.ksst_bytes as f64);
                DbStats {
                    io: fold(parts, |a: &mut IoStatsSnapshot, s| a.accumulate(&s.io)),
                    gc: fold(parts, |a: &mut GcStepTimes, s| a.accumulate(&s.gc)),
                    space: fold(parts, |a: &mut SpaceBreakdown, s| a.accumulate(&s.space)),
                    index_space_amp: if ksst == 0 {
                        1.0
                    } else {
                        amp_weighted.sum::<f64>() / ksst as f64
                    },
                    // Members of a set share one block cache and all
                    // report its ratio.
                    cache_hit_ratio: parts.iter().map(|s| s.cache_hit_ratio).fold(0.0, f64::max),
                    oldest_read_point: parts.iter().filter_map(|s| s.oldest_read_point).min(),
                    degraded: parts.iter().any(|s| s.degraded),
                    $($field: $fold(parts.iter().map(|s| s.$field)),)*
                }
            }

            /// Every engine series of this snapshot except per-class I/O
            /// (see [`io_prom_rows`], which callers label per member),
            /// with `labels` appended to each.
            pub fn prom_rows(&self, labels: &str) -> Vec<PromRow> {
                // No `..`: a field added to the struct by hand has to be
                // named here, next to the reminder that it needs a series
                // in `composite_rows`.
                let DbStats {
                    io: _,
                    gc: _,
                    space: _,
                    index_space_amp: _,
                    cache_hit_ratio: _,
                    oldest_read_point: _,
                    degraded: _,
                    $($field,)*
                } = self;
                let mut rows = composite_rows(self, labels);
                $(rows.push(($name, $kind, $help, labels.to_string(), *$field as f64));)*
                rows
            }
        }
    };
}

db_stats! {
    /// Total exposed garbage bytes in the value store.
    exposed_garbage_bytes: sum, "scavenger_exposed_garbage_bytes", "gauge", "Exposed garbage bytes in the value store.";
    /// Total value bytes in live value files.
    value_store_bytes: sum, "scavenger_value_store_bytes", "gauge", "Value bytes in live value files.";
    /// Live value files.
    value_files: sum, "scavenger_value_files", "gauge", "Live value files.";
    /// Flushes.
    flushes: sum, "scavenger_flushes_total", "counter", "Memtable flushes completed.";
    /// Compactions.
    compactions: sum, "scavenger_compactions_total", "counter", "Compactions completed.";
    /// Entries dropped by merges.
    merge_drops: sum, "scavenger_merge_drops_total", "counter", "Entries dropped by flush and compaction merges.";
    /// Writers that stalled on the immutable-memtable backlog (threaded
    /// background mode only; an inline engine flushes on the writer's
    /// own stack and never stalls).
    write_stalls: sum, "scavenger_write_stalls_total", "counter", "Writers stalled on the immutable-memtable backlog.";
    /// Write-path throttle activations (space-aware throttling, §III-D).
    /// When the engine is a [`DbShards`](crate::DbShards) member, the
    /// counter is shared — every shard reports the set-wide total.
    throttle_stalls: max, "scavenger_throttle_stalls_total", "counter", "Space-throttle activations on the write path.";
    /// Pinned transient views currently registered (gauge): in-flight
    /// `get`s/scans, live [`ReadView`](crate::ReadView)s, and GC
    /// validation readers.
    pinned_views: sum, "scavenger_pinned_views", "gauge", "Transient read views currently registered.";
    /// User [`Snapshot`](crate::Snapshot)s currently registered (gauge).
    /// A snapshot is a read point like a view; only this gauge tells
    /// them apart.
    live_snapshots: sum, "scavenger_live_snapshots", "gauge", "User snapshots currently registered.";
    /// Background jobs that exhausted their transient-failure retries (or
    /// failed permanently) and degraded the engine to read-only mode.
    bg_errors: sum, "scavenger_bg_errors_total", "counter", "Background jobs that degraded the engine to read-only.";
    /// Transient background-job failures that were retried with backoff
    /// (see `Options::bg_retry_limit` / `Options::bg_retry_base`).
    bg_retries: sum, "scavenger_bg_retries_total", "counter", "Transient background failures retried.";
    /// WAL files whose tail was found torn/corrupt during recovery; the
    /// intact record prefix was replayed and the rest discarded.
    wal_tail_corruptions: sum, "scavenger_wal_tail_corruptions_total", "counter", "WAL files recovered with a torn tail.";
    /// Commit groups formed by the group-commit write path (each group is
    /// one WAL record, one memtable pass, and at most one fsync).
    group_commit_groups: sum, "scavenger_group_commit_groups_total", "counter", "Commit groups written.";
    /// Writer batches committed through those groups. Equal to
    /// `group_commit_groups` when writers never contend; greater under
    /// concurrency.
    group_commit_batches: sum, "scavenger_group_commit_batches_total", "counter", "Writer batches committed through groups.";
    /// Largest number of batches ever merged into a single group (max
    /// across shards: groups never merge across them).
    group_commit_max_group: max, "scavenger_group_commit_max_group", "gauge", "Largest commit group so far.";
    /// Fsyncs elided by riding a group leader's sync: for every synced
    /// group this grows by `sync_riders - 1`.
    group_commit_fsyncs_saved: sum, "scavenger_group_commit_fsyncs_saved_total", "counter", "Fsyncs elided by riding a group leader's sync.";
    /// Optimistic transactions committed through this handle (validated
    /// read set, batch applied). For a [`DbShards`](crate::DbShards) set
    /// this sums the set-level commits with any per-shard commits.
    txn_commits: sum, "scavenger_txn_commits_total", "counter", "Optimistic transactions committed.";
    /// Optimistic transactions rejected at commit-time validation: a
    /// read-set key was overwritten after the transaction's read point.
    txn_conflicts: sum, "scavenger_txn_conflicts_total", "counter", "Optimistic transactions rejected at validation.";
    /// Multi-shard batches committed through the two-phase coordinator
    /// log (prepare + commit records). Always 0 on a single
    /// [`Db`](crate::Db); single-shard batches bypass the coordinator
    /// entirely.
    txn_2pc_commits: sum, "scavenger_txn_2pc_commits_total", "counter", "Multi-shard batches committed through the 2PC log.";
    /// Prepared 2PC batches that had at least one entry re-applied: at
    /// recovery (a shard lost its unsynced apply), or in-process when a
    /// failed shard apply was completed.
    txn_2pc_rollforwards: sum, "scavenger_txn_2pc_rollforwards_total", "counter", "Prepared 2PC batches rolled forward at recovery.";
    /// Change events published to the CDC ring at group-commit apply
    /// time (counter; includes internal relocation events the
    /// subscriber API filters out).
    cdc_events_published: sum, "scavenger_cdc_events_published_total", "counter", "Change events published to the CDC ring.";
    /// Registered change-stream cursors (gauge). For a
    /// [`DbShards`](crate::DbShards) set this sums per-shard cursors,
    /// so one merged subscription counts once per shard.
    cdc_subscribers: sum, "scavenger_cdc_subscribers", "gauge", "Registered change-stream cursors.";
    /// WAL bytes retained beyond the durability horizon for change-
    /// stream catch-up — the CDC share of [`DbStats::pinned_bytes`].
    cdc_retained_wal_bytes: sum, "scavenger_cdc_retained_wal_bytes", "gauge", "WAL bytes retained for change-stream catch-up.";
    /// How far the slowest registered subscriber trails the commit head
    /// in sequence numbers (gauge; 0 when caught up or no subscribers).
    /// Max across shards, not sum: per-shard sequences are independent
    /// namespaces, so the slowest subscriber is the worst shard.
    cdc_lag_seqs: max, "scavenger_cdc_lag_seqs", "gauge", "Sequences the slowest subscriber trails the head by.";
    /// Cursor polls served from retained WAL segments rather than the
    /// in-memory ring (counter) — nonzero means subscribers fell behind
    /// the ring and took the catch-up path.
    cdc_catchup_reads: sum, "scavenger_cdc_catchup_reads_total", "counter", "Cursor polls served from retained WAL segments.";
    /// Bytes the engine is currently holding *only* because something
    /// pins them — WAL history retained for change streams plus retired
    /// value files a read point below their barrier holds (gauge).
    /// Space-aware throttling (§III-D) discounts these: reclamation
    /// cannot get rid of them, so stalling writers on them is pointless.
    pinned_bytes: sum, "scavenger_pinned_bytes", "gauge", "Bytes held only because a subscriber or read point pins them.";
}

// ---------------- Prometheus exposition ----------------

/// One exposition sample: `(name, kind, help, labels, value)`, where
/// `labels` is the raw label-pair string (`""` for none).
pub type PromRow = (&'static str, &'static str, &'static str, String, f64);

/// `a,b`, or whichever side is non-empty.
fn join_labels(a: &str, b: &str) -> String {
    match (a.is_empty(), b.is_empty()) {
        (_, true) => a.to_string(),
        (true, _) => b.to_string(),
        _ => format!("{a},{b}"),
    }
}

/// The hand-written half of [`DbStats::prom_rows`]: the fields that are
/// not one `u64` → one series.
fn composite_rows(s: &DbStats, labels: &str) -> Vec<PromRow> {
    let (gc, space, oldest) = (&s.gc, &s.space, s.oldest_read_point);
    const STEP: &str = "GC wall seconds by step (paper Fig. 3).";
    const SPACE: &str = "On-disk bytes by file kind.";
    #[rustfmt::skip]
    let table = [
        ("scavenger_gc_runs_total", "counter", "GC jobs run.", "", gc.runs as f64),
        ("scavenger_gc_files_collected_total", "counter", "Value files collected by GC.", "", gc.files_collected as f64),
        ("scavenger_gc_records_scanned_total", "counter", "Records examined by GC.", "", gc.records_scanned as f64),
        ("scavenger_gc_records_valid_total", "counter", "Records GC found valid and rewrote.", "", gc.records_valid as f64),
        ("scavenger_gc_reclaimed_bytes_total", "counter", "Garbage bytes reclaimed by GC.", "", gc.reclaimed_bytes as f64),
        ("scavenger_gc_step_seconds_total", "counter", STEP, "step=\"read\"", gc.read_ns as f64 / 1e9),
        ("scavenger_gc_step_seconds_total", "counter", STEP, "step=\"lookup\"", gc.lookup_ns as f64 / 1e9),
        ("scavenger_gc_step_seconds_total", "counter", STEP, "step=\"write\"", gc.write_ns as f64 / 1e9),
        ("scavenger_gc_step_seconds_total", "counter", STEP, "step=\"write_index\"", gc.write_index_ns as f64 / 1e9),
        ("scavenger_space_bytes", "gauge", SPACE, "kind=\"ksst\"", space.ksst_bytes as f64),
        ("scavenger_space_bytes", "gauge", SPACE, "kind=\"value\"", space.value_bytes as f64),
        ("scavenger_space_bytes", "gauge", SPACE, "kind=\"wal\"", space.wal_bytes as f64),
        ("scavenger_space_bytes", "gauge", SPACE, "kind=\"manifest\"", space.manifest_bytes as f64),
        ("scavenger_space_bytes", "gauge", SPACE, "kind=\"other\"", space.other_bytes as f64),
        ("scavenger_index_space_amp", "gauge", "Index LSM-tree space amplification (paper Eq. 1).", "", s.index_space_amp),
        ("scavenger_cache_hit_ratio", "gauge", "Block cache hit ratio.", "", s.cache_hit_ratio),
        // Absent ⇒ no reader in flight; presence + value lets a scraper
        // tell "no pin" from "pinned at sequence 0".
        ("scavenger_oldest_read_point_present", "gauge", "1 while any read point is registered.", "", oldest.is_some() as u8 as f64),
        ("scavenger_oldest_read_point", "gauge", "Oldest registered read point (0 when none).", "", oldest.unwrap_or(0) as f64),
        ("scavenger_degraded", "gauge", "1 while the engine is read-only after a background failure.", "", s.degraded as u8 as f64),
    ];
    table
        .into_iter()
        .map(|(name, kind, help, own, value)| (name, kind, help, join_labels(own, labels), value))
        .collect()
}

/// Per-[`IoClass`](scavenger_env::IoClass) I/O series for `parts` — one
/// `(labels, snapshot)` pair per member, e.g. `shard="2"` — grouped by
/// metric name so each gets one header however many members report.
pub fn io_prom_rows(parts: &[(String, IoStatsSnapshot)]) -> Vec<PromRow> {
    type Get = fn(&ClassSnapshot) -> u64;
    #[rustfmt::skip]
    let metrics: &[(&str, &str, Get)] = &[
        ("scavenger_io_read_bytes_total", "Bytes read, by I/O class.", |c| c.read_bytes),
        ("scavenger_io_read_ops_total", "Read operations, by I/O class.", |c| c.read_ops),
        ("scavenger_io_write_bytes_total", "Bytes written, by I/O class.", |c| c.write_bytes),
        ("scavenger_io_write_ops_total", "Write operations, by I/O class.", |c| c.write_ops),
    ];
    let mut rows = Vec::with_capacity(4 * parts.len() * ALL_IO_CLASSES.len());
    for &(name, help, get) in metrics {
        for (labels, io) in parts {
            for class in ALL_IO_CLASSES {
                let own = format!("class=\"{}\"", class.label());
                let value = get(&io.class(class)) as f64;
                rows.push((name, "counter", help, join_labels(&own, labels), value));
            }
        }
    }
    rows
}

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

/// Append `rows` in text exposition format: the one loop behind every
/// `/metrics` series. A metric's header is written once, before its
/// first sample, so the rows of one metric must be adjacent.
pub fn render_rows<L: AsRef<str>>(out: &mut String, rows: &[(&str, &str, &str, L, f64)]) {
    let mut last = "";
    for (name, kind, help, labels, value) in rows {
        if *name != last {
            prom_header(out, name, kind, help);
            last = name;
        }
        prom_line(out, name, labels.as_ref(), *value);
    }
}

impl DbStats {
    /// Render this snapshot in Prometheus text exposition format,
    /// appending `labels` to every series: the per-class I/O counters,
    /// the GC step breakdown, the space breakdown, and every scalar.
    pub fn render_prometheus(&self, out: &mut String, labels: &str) {
        let mut rows = io_prom_rows(&[(labels.to_string(), self.io)]);
        rows.extend(self.prom_rows(labels));
        render_rows(out, &rows);
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
        let mut b = GcStepTimes {
            read_ns: 250,
            runs: 5,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.read_ns, 150);
        assert_eq!(d.runs, 3);
        assert_eq!(a.delta(&b).read_ns, 0, "saturating");
        b.accumulate(&a);
        assert_eq!((b.read_ns, b.runs), (350, 7));
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
        let rows = io_prom_rows(&[("shard=\"1\"".to_string(), io)]);
        let mut out = String::new();
        render_rows(&mut out, &rows);
        assert!(out.contains("scavenger_io_read_bytes_total{class=\"wal\",shard=\"1\"} 0"));
        assert!(out.contains("class=\"gc-write\""));
        let samples = out.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(samples, 4 * scavenger_env::io_stats::NUM_IO_CLASSES);
        // One header per metric name, not per class or member.
        assert_eq!(out.matches("# TYPE ").count(), 4);
    }

    /// A plain store reports its one member's snapshot unchanged — even
    /// an `index_space_amp` the weighted mean would not round-trip.
    #[test]
    fn merge_of_one_part_is_that_part() {
        let mut s = DbStats::merge(&[]);
        s.index_space_amp = 0.1;
        s.space.ksst_bytes = 3;
        s.flushes = 7;
        s.oldest_read_point = Some(5);
        let w = s.space.ksst_bytes as f64;
        assert_ne!(
            (s.index_space_amp * w) / w,
            s.index_space_amp,
            "the weight must not round-trip"
        );
        let merged = DbStats::merge(std::slice::from_ref(&s));
        assert_eq!(
            merged.index_space_amp.to_bits(),
            s.index_space_amp.to_bits()
        );
        assert_eq!(format!("{merged:?}"), format!("{s:?}"));
    }

    #[test]
    fn gc_stats_add_accumulates() {
        let g = GcStats::default();
        g.add(|t| t.read_ns += 10);
        g.add(|t| {
            t.read_ns += 5;
            t.runs += 1;
        });
        let s = g.snapshot();
        assert_eq!(s.read_ns, 15);
        assert_eq!(s.runs, 1);
    }
}
