//! Golden `/metrics` pages: the table-driven renderers emit exactly the
//! sample lines the hand-written ones did.
//!
//! `tests/fixtures/*.prom` were captured from `DbStats::render_prometheus`
//! and `ServerMetrics::render` as they stood before the renderers became
//! tables, for the values built below. Headers (`# HELP` / `# TYPE`) and
//! line order are free to change; the multiset of `name{labels} value`
//! lines is not — the only addition since the capture is
//! `scavenger_write_stalls_total`.

use scavenger::{DbStats, GcStepTimes, SpaceBreakdown};
use scavenger_env::IoStatsSnapshot;
use scavenger_server::ServerMetrics;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// A snapshot with a distinct value in every field, so a series wired to
/// the wrong field cannot go unnoticed.
fn golden_stats() -> DbStats {
    let mut io = IoStatsSnapshot::default();
    for (i, c) in io.classes.iter_mut().enumerate() {
        let b = 1000 * (i as u64 + 1);
        c.read_bytes = b + 1;
        c.read_ops = b + 2;
        c.write_bytes = b + 3;
        c.write_ops = b + 4;
    }
    DbStats {
        io,
        gc: GcStepTimes {
            read_ns: 1_500_000_000,
            lookup_ns: 2_250_000_000,
            write_ns: 3_125_000_000,
            write_index_ns: 4_000_000_000,
            runs: 105,
            files_collected: 106,
            records_scanned: 107,
            records_valid: 108,
            reclaimed_bytes: 109,
            requested_bytes: 115,
            validate_batches: 110,
            validate_sweeps: 111,
            validate_sweep_steps: 112,
            validate_sweep_seeks: 113,
            fetch_parallel_jobs: 114,
            pipeline_jobs: 116,
            pipeline_batches: 117,
            pipeline_overlaps: 118,
            pipeline_backpressure: 119,
        },
        space: SpaceBreakdown {
            ksst_bytes: 201,
            value_bytes: 202,
            wal_bytes: 203,
            manifest_bytes: 204,
            other_bytes: 205,
        },
        index_space_amp: 1.25,
        exposed_garbage_bytes: 301,
        value_store_bytes: 302,
        value_files: 303,
        cache_hit_ratio: 0.875,
        flushes: 304,
        compactions: 305,
        merge_drops: 306,
        throttle_stalls: 307,
        oldest_read_point: Some(308),
        pinned_views: 309,
        live_snapshots: 310,
        bg_errors: 311,
        bg_retries: 312,
        degraded: true,
        wal_tail_corruptions: 313,
        group_commit_groups: 314,
        group_commit_batches: 315,
        group_commit_max_group: 316,
        group_commit_fsyncs_saved: 317,
        txn_commits: 318,
        txn_conflicts: 319,
        txn_2pc_commits: 320,
        txn_2pc_rollforwards: 321,
        cdc_events_published: 322,
        cdc_subscribers: 323,
        cdc_retained_wal_bytes: 324,
        cdc_lag_seqs: 325,
        cdc_catchup_reads: 326,
        pinned_bytes: 327,
        write_stalls: 328,
    }
}

fn sorted_samples(page: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = page.lines().filter(|l| !l.starts_with('#')).collect();
    lines.sort_unstable();
    lines
}

/// Every sample's metric name was introduced by a `# TYPE` line above it
/// (`_count` / `_sum` belong to their summary), and no `name{labels}`
/// pair repeats — what the `server-smoke` CI job checks on a live page.
fn assert_typed_and_unique(page: &str) {
    let mut typed = std::collections::HashSet::new();
    let mut seen = std::collections::HashSet::new();
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            assert!(typed.insert(rest.split(' ').next().unwrap()), "{line}");
        } else if !line.starts_with('#') {
            let series = line.rsplit_once(' ').unwrap().0;
            assert!(seen.insert(series), "duplicate series {series}");
            let name = series.split('{').next().unwrap();
            let family = name
                .strip_suffix("_count")
                .or(name.strip_suffix("_sum"))
                .filter(|f| typed.contains(f))
                .unwrap_or(name);
            assert!(typed.contains(family), "untyped series {series}");
        }
    }
}

#[test]
fn db_stats_page_matches_golden_plus_write_stalls() {
    for (labels, fixture, new_line) in [
        (
            "",
            include_str!("fixtures/db_stats.prom"),
            "scavenger_write_stalls_total 328",
        ),
        (
            "shard=\"2\"",
            include_str!("fixtures/db_stats_shard2.prom"),
            "scavenger_write_stalls_total{shard=\"2\"} 328",
        ),
    ] {
        let mut page = String::new();
        golden_stats().render_prometheus(&mut page, labels);
        let mut want = sorted_samples(fixture);
        want.push(new_line);
        want.sort_unstable();
        assert_eq!(sorted_samples(&page), want, "labels {labels:?}");
        assert_typed_and_unique(&page);
    }
}

#[test]
fn server_metrics_page_matches_golden() {
    let m = ServerMetrics::new();
    m.conns_total.store(401, Ordering::Relaxed);
    m.conns_active.store(402, Ordering::Relaxed);
    m.conns_rejected.store(403, Ordering::Relaxed);
    m.rate_limited.store(404, Ordering::Relaxed);
    m.slow_queries.store(405, Ordering::Relaxed);
    m.requests_ok.store(406, Ordering::Relaxed);
    m.requests_err.store(407, Ordering::Relaxed);
    m.pin_misses.store(408, Ordering::Relaxed);
    m.cdc_events_streamed.store(409, Ordering::Relaxed);
    m.record_latency("get", Duration::from_micros(100));
    m.record_latency("get", Duration::from_micros(300));
    m.record_latency("put", Duration::from_micros(700));
    let mut page = String::new();
    m.render(&mut page, 410, 411);
    let fixture = include_str!("fixtures/server_metrics.prom");
    assert_eq!(sorted_samples(&page), sorted_samples(fixture));
    assert_typed_and_unique(&page);
    // The server half was already typed: its headers are unchanged too.
    assert_eq!(page, fixture);
}

/// The whole `/metrics` page, on both handle types: every series typed
/// once, none repeated, and I/O attributed per shard only — an
/// unlabelled aggregate next to the `shard="i"` series would make
/// `sum by (class)` double-count.
#[test]
fn full_page_is_typed_and_io_is_per_shard_only() {
    use scavenger::{Db, DbShards, EngineMode, MemEnv, Options, ShardedOptions};
    fn check<E: scavenger::Maintenance>(engine: &E, shards: usize) {
        let page = scavenger_server::render_metrics(engine, &ServerMetrics::new(), 0, 0);
        assert_typed_and_unique(&page);
        assert!(page.contains(&format!("scavenger_shard_count {shards}\n")));
        let io: Vec<&str> = sorted_samples(&page)
            .into_iter()
            .filter(|l| l.starts_with("scavenger_io_"))
            .collect();
        assert_eq!(
            io.len(),
            4 * scavenger_env::io_stats::NUM_IO_CLASSES * shards
        );
        assert!(io.iter().all(|l| l.contains("shard=\"")), "{io:?}");
        assert!(page.contains("# TYPE scavenger_write_stalls_total counter\n"));
    }
    let db = Db::open(Options::new(
        MemEnv::shared(),
        "page",
        EngineMode::Scavenger,
    ))
    .unwrap();
    db.put(b"k", vec![1u8; 2048]).unwrap();
    check(&db, 1);
    let opts = ShardedOptions::new(MemEnv::shared(), "page-sh", EngineMode::Scavenger);
    let db = DbShards::open(opts).unwrap();
    db.put(b"k", vec![1u8; 2048]).unwrap();
    check(&db, 4);
}
