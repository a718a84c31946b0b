//! Server-side counters and the Prometheus exposition page.
//!
//! [`ServerMetrics`] is the service layer's own telemetry — connection
//! accounting, rate-limit and slow-query counters, per-op latency
//! histograms. [`render_metrics`] stitches it together with the
//! engine's [`DbStats`](scavenger::DbStats) exposition (including
//! per-shard I/O attribution from [`Db::shard_stats`]) into
//! the single text page served on the `/metrics` HTTP listener and the
//! `Stats` wire request.

use parking_lot::Mutex;
use scavenger::stats::{io_prom_rows, prom_header, prom_line, render_rows};
use scavenger::Db;
use scavenger_util::hist::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Request-op classes tracked by the per-op latency histograms.
pub const OP_LABELS: [&str; 5] = ["get", "put", "delete", "write", "scan"];

/// Live counters for the service layer. All methods are lock-free or
/// take a short histogram lock; safe to share across connection
/// threads via `Arc`.
#[derive(Default)]
pub struct ServerMetrics {
    /// Connections accepted over the server's lifetime.
    pub conns_total: AtomicU64,
    /// Connections currently being served.
    pub conns_active: AtomicU64,
    /// Connections rejected at accept time (connection cap).
    pub conns_rejected: AtomicU64,
    /// Requests rejected by a token bucket.
    pub rate_limited: AtomicU64,
    /// Requests whose latency crossed the slow-query threshold.
    pub slow_queries: AtomicU64,
    /// Requests answered, by outcome.
    pub requests_ok: AtomicU64,
    /// Requests answered with an error frame.
    pub requests_err: AtomicU64,
    /// Pinned-read requests that named an unknown/expired snapshot id.
    pub pin_misses: AtomicU64,
    /// Change events delivered in `ChangeChunk` frames.
    pub cdc_events_streamed: AtomicU64,
    /// Per-op latency histograms (microseconds), indexed like
    /// [`OP_LABELS`].
    latency_us: [Mutex<Histogram>; 5],
}

impl ServerMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// Record one request's latency under its op label. Ops outside
    /// [`OP_LABELS`] (maintenance, snapshots) are counted in
    /// `requests_ok`/`requests_err` but not histogrammed.
    pub fn record_latency(&self, op: &str, latency: Duration) {
        if let Some(idx) = OP_LABELS.iter().position(|l| *l == op) {
            self.latency_us[idx]
                .lock()
                .record(latency.as_micros() as u64);
        }
    }

    /// Snapshot one op's histogram (for rendering and tests).
    pub fn latency_snapshot(&self, op: &str) -> Option<Histogram> {
        let idx = OP_LABELS.iter().position(|l| *l == op)?;
        Some(self.latency_us[idx].lock().clone())
    }

    /// Append the service-layer series to a Prometheus page.
    pub fn render(&self, out: &mut String, pinned: usize, change_streams: usize) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
        const REQUESTS: &str = "Requests answered, by outcome.";
        #[rustfmt::skip]
        let table = [
            ("scavenger_server_connections_total", "counter", "Connections accepted since start.", "", load(&self.conns_total)),
            ("scavenger_server_connections_active", "gauge", "Connections currently open.", "", load(&self.conns_active)),
            ("scavenger_server_connections_rejected_total", "counter", "Connections refused at accept time by the connection cap.", "", load(&self.conns_rejected)),
            ("scavenger_server_rate_limited_total", "counter", "Requests rejected by a token bucket.", "", load(&self.rate_limited)),
            ("scavenger_server_slow_queries_total", "counter", "Requests slower than the slow-query threshold.", "", load(&self.slow_queries)),
            ("scavenger_server_requests_total", "counter", REQUESTS, "outcome=\"ok\"", load(&self.requests_ok)),
            ("scavenger_server_requests_total", "counter", REQUESTS, "outcome=\"error\"", load(&self.requests_err)),
            ("scavenger_server_pin_misses_total", "counter", "Pinned reads that named an unknown or expired snapshot id.", "", load(&self.pin_misses)),
            ("scavenger_server_pinned_snapshots", "gauge", "Snapshots currently held in the server pin table.", "", pinned as f64),
            ("scavenger_server_change_streams", "gauge", "Change streams currently held in the server stream table.", "", change_streams as f64),
            ("scavenger_server_cdc_events_streamed_total", "counter", "Change events delivered in ChangeChunk frames.", "", load(&self.cdc_events_streamed)),
        ];
        render_rows(out, &table);

        // One summary family: quantiles, then `_count` / `_sum`, per op.
        let name = "scavenger_server_op_latency_us";
        prom_header(
            out,
            name,
            "summary",
            "Per-op request latency in microseconds.",
        );
        for (idx, op) in OP_LABELS.iter().enumerate() {
            let h = self.latency_us[idx].lock();
            if h.count() == 0 {
                continue;
            }
            for (q, p) in [("0.5", 50.0), ("0.99", 99.0)] {
                let labels = format!("op=\"{op}\",quantile=\"{q}\"");
                prom_line(out, name, &labels, h.percentile(p));
            }
            let op_label = format!("op=\"{op}\"");
            prom_line(out, &format!("{name}_count"), &op_label, h.count() as f64);
            prom_line(out, &format!("{name}_sum"), &op_label, h.sum() as f64);
        }
    }
}

/// Render the full `/metrics` page: the engine's aggregate series, I/O
/// attributed per shard (never also as an unlabelled aggregate, which
/// `sum by (class)` would double-count; an unsharded engine reports a
/// single `shard="0"`), and the service-layer counters.
pub fn render_metrics(
    engine: &Db,
    metrics: &ServerMetrics,
    pinned: usize,
    change_streams: usize,
) -> String {
    let mut rows = engine.stats().prom_rows("");
    let shards = engine.shard_stats();
    rows.push((
        "scavenger_shard_count",
        "gauge",
        "Members reporting per-shard statistics.",
        String::new(),
        shards.len() as f64,
    ));
    let io = shards.iter().enumerate();
    let io: Vec<_> = io.map(|(i, s)| (format!("shard=\"{i}\""), s.io)).collect();
    rows.extend(io_prom_rows(&io));
    let mut out = String::new();
    render_rows(&mut out, &rows);
    metrics.render(&mut out, pinned, change_streams);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_counters_and_latency_quantiles() {
        let m = ServerMetrics::new();
        m.conns_total.store(5, Ordering::Relaxed);
        m.rate_limited.store(2, Ordering::Relaxed);
        m.record_latency("get", Duration::from_micros(100));
        m.record_latency("get", Duration::from_micros(300));
        m.cdc_events_streamed.store(7, Ordering::Relaxed);
        let mut out = String::new();
        m.render(&mut out, 3, 2);
        assert!(out.contains("scavenger_server_connections_total 5\n"));
        assert!(out.contains("scavenger_server_rate_limited_total 2\n"));
        assert!(out.contains("scavenger_server_pinned_snapshots 3\n"));
        assert!(out.contains("scavenger_server_change_streams 2\n"));
        assert!(out.contains("scavenger_server_cdc_events_streamed_total 7\n"));
        assert!(out.contains("op=\"get\",quantile=\"0.99\""));
        assert!(out.contains("scavenger_server_op_latency_us_count{op=\"get\"} 2\n"));
        // Ops never recorded are omitted rather than emitting zeros.
        assert!(!out.contains("op=\"scan\""));
    }

    #[test]
    fn unknown_op_label_is_ignored() {
        let m = ServerMetrics::new();
        m.record_latency("flush", Duration::from_micros(1));
        for op in OP_LABELS {
            assert_eq!(m.latency_snapshot(op).unwrap().count(), 0);
        }
        assert!(m.latency_snapshot("flush").is_none());
    }
}
