//! The metric registry: every number the benchmark prints, with its unit,
//! direction, bound, owning layer and the end-to-end metric it is expected
//! to move. `BENCHMARK.json` at the repo root is generated from this
//! (`manifest` subcommand) and held to it by a test in `main.rs`.

use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "update_gc",
        why: "Zipf-0.9 overwrites of Mixed-8K values under a 1.5x space limit (paper Fig. 12): GC, flush, compaction, throttle; no reads, no server",
    },
    Workload {
        name: "read_cold",
        why: "uniform gets on an aged tree 100x the block cache: table cache, block cache misses, SST and value-file reads; write path and GC idle",
    },
    Workload {
        name: "read_hot",
        why: "the same uniform gets with a block cache as large as the data, so every cacheable block hits: the cache-hit path; write path and GC idle",
    },
    Workload {
        name: "scan",
        why: "50-row range scans from uniform start keys on the same aged tree: merging iterators and per-row value fetch; write path idle",
    },
    Workload {
        name: "wire_mixed",
        why: "50/50 get / sync put of 1 KiB over TCP from concurrent blocking clients, Zipf-0.99: codec, dispatch, thread hand-off, group commit beside readers",
    },
    Workload {
        name: "shards_txn",
        why: "OCC transfers on 4 shards, ~75% cross-shard so they take 2PC: coordinator log and forced-sync applies; read, GC and server layers idle",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// The sandbox's CPU speed wanders by about +-10 % over seconds (a fixed
/// crc32c loop reads 3.2 or 3.8 us from one process to the next), so no
/// timing here resolves less; the count-derived metrics repeat exactly for a
/// seed and their bounds only have to cover the spread across seeds.
const TIMING_BOUND: f64 = 0.25;

/// Every workload reports every one of these (untraced run).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
        what: "primary ops per second, median of 8 slices (put / get / 50-row scan / get+put / transfer)",
    },
    EndToEnd {
        name: "mean_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
        what: "mean latency of the primary op (update_gc: the 16 KiB put; wire_mixed: the sync put), median of 8 slices",
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.06,
        what: "bytes on disk / logical bytes (keys + live values) at the end of the run",
    },
    EndToEnd {
        name: "write_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
        what: "device bytes written / user bytes written, since the store was created",
    },
    EndToEnd {
        name: "device_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
        what: "modelled device time of the measured phase's exact I/O and sync counts",
    },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.15, what: "peak resident set, read after the measured phase and its audits" },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, what: "median of three timed set-ups (load, age, open, connect)" },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Where it moves an end-to-end number; everywhere else: no change.
    pub moves: &'static str,
}

impl PerLayer {
    /// The product crate that owns the metric: the name's first segment.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or("")
    }
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher as H, Lower as L};

const WIRE: &str = "ops_per_s, mean_us on wire_mixed";
const WIRE_READ: &str = "ops_per_s on wire_mixed (the get half)";
const UPD: &str = "ops_per_s, mean_us, device_s on update_gc";
const UPD_SPACE: &str = "space_amp, write_amp, device_s on update_gc";
const TXN: &str = "ops_per_s, mean_us on shards_txn";
const COMMIT: &str = "ops_per_s, mean_us on wire_mixed and shards_txn";
const READ: &str = "ops_per_s, mean_us, device_s on read_cold, read_hot, scan";
const DEV: &str = "device_s on every workload";
const SELF: &str = "at most its share of core.put_self_p50_us";

/// Every workload reports every one of these (traced run); a metric whose
/// layer the workload bypasses reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // server
    pl("server.ping_rtt_p50_us", "us", L, WIRE),
    pl("server.codec_put_ns", "ns", L, WIRE),
    pl("server.codec_get_ns", "ns", L, WIRE),
    pl("server.handle_get_mean_us", "us", L, WIRE_READ),
    pl("server.handle_put_mean_us", "us", L, WIRE),
    pl("server.client_get_p50_us", "us", L, WIRE_READ),
    pl("server.client_get_p99_us", "us", L, WIRE_READ),
    pl("server.wire_get_overhead_us", "us", L, WIRE_READ),
    pl("server.wire_put_overhead_us", "us", L, WIRE),
    pl("server.requests_ok", "count", H, WIRE),
    pl("server.requests_err", "count", L, WIRE),
    pl("server.slow_queries", "count", L, "mean_us on wire_mixed"),
    // core
    pl(
        "core.put_self_p50_us",
        "us",
        L,
        "ops_per_s, mean_us on update_gc",
    ),
    pl(
        "core.get_self_p50_us",
        "us",
        L,
        "ops_per_s, mean_us on read_cold, read_hot",
    ),
    pl("core.scan_row_ns", "ns", L, "ops_per_s on scan"),
    pl(
        "core.put_p999_us",
        "us",
        L,
        "mean_us on update_gc (the stall tail)",
    ),
    pl("core.put_stalls", "count", L, UPD),
    pl("core.put_stall_ms.flush", "ms", L, UPD),
    pl("core.put_stall_ms.compaction", "ms", L, UPD),
    pl("core.put_stall_ms.gc", "ms", L, UPD),
    pl("core.put_stall_ms.throttle", "ms", L, UPD),
    pl("core.gc.runs", "count", L, UPD),
    pl("core.gc.read_ms", "ms", L, UPD),
    pl("core.gc.lookup_ms", "ms", L, UPD),
    pl("core.gc.write_ms", "ms", L, UPD),
    pl("core.gc.write_index_ms", "ms", L, UPD),
    pl("core.gc.records_scanned", "count", L, UPD),
    pl("core.gc.valid_ratio", "ratio", L, UPD_SPACE),
    pl("core.gc.reclaimed_mb", "MB", H, UPD_SPACE),
    pl("core.gc.io_bytes_per_reclaimed_byte", "ratio", L, UPD_SPACE),
    pl("core.throttle.stalls", "count", L, UPD),
    pl("core.space.ksst_mb", "MB", L, UPD_SPACE),
    pl("core.space.value_mb", "MB", L, UPD_SPACE),
    pl("core.space.wal_mb", "MB", L, UPD_SPACE),
    pl("core.space.index_amp", "ratio", L, UPD_SPACE),
    pl("core.space.exposed_garbage_mb", "MB", L, UPD_SPACE),
    pl("core.txn.commit_p50_us", "us", L, TXN),
    pl("core.txn.conflicts", "count", L, TXN),
    pl("core.txn.retries", "count", L, TXN),
    pl("core.2pc.commits", "count", L, TXN),
    pl("core.2pc.share", "ratio", L, TXN),
    pl("core.2pc.syncs_per_commit", "ratio", L, TXN),
    pl(
        "core.txn.db_commit_p50_us",
        "us",
        L,
        "nothing: the same transfer on one Db, the floor for shards_txn",
    ),
    pl("core.shards.put_p50_us", "us", L, TXN),
    // lsm
    pl("lsm.flushes", "count", L, UPD),
    pl("lsm.compactions", "count", L, UPD),
    pl("lsm.merge_drops", "count", H, UPD_SPACE),
    pl("lsm.wal_mb", "MB", L, UPD_SPACE),
    pl("lsm.flush_mb", "MB", L, UPD_SPACE),
    pl("lsm.compaction_read_mb", "MB", L, UPD_SPACE),
    pl("lsm.compaction_write_mb", "MB", L, UPD_SPACE),
    pl("lsm.wal_append_ns", "ns", L, "ops_per_s on update_gc"),
    pl("lsm.group_commit.groups", "count", L, COMMIT),
    pl("lsm.group_commit.batches", "count", H, COMMIT),
    pl("lsm.group_commit.mean_group", "ratio", H, COMMIT),
    pl("lsm.group_commit.max_group", "count", H, COMMIT),
    pl("lsm.group_commit.fsyncs_saved", "count", H, COMMIT),
    pl("lsm.wal_sync_wait_ms", "ms", L, COMMIT),
    pl(
        "lsm.write_probe_ns",
        "ns",
        L,
        "ops_per_s on update_gc, wire_mixed",
    ),
    pl("lsm.get_mem_probe_ns", "ns", L, READ),
    pl("lsm.get_sst_probe_ns", "ns", L, READ),
    pl("lsm.flush_probe_ms", "ms", L, UPD),
    pl("lsm.compact_probe_ms", "ms", L, UPD),
    // table
    pl("table.cache_hit_ratio", "ratio", H, READ),
    pl("table.index_reads_per_get", "ratio", L, READ),
    pl("table.index_bytes_per_get", "B", L, READ),
    pl("table.value_reads_per_get", "ratio", L, READ),
    pl("table.value_bytes_per_get", "B", L, READ),
    pl(
        "table.reads_per_scan_row",
        "ratio",
        L,
        "ops_per_s, device_s on scan",
    ),
    pl("table.cache_hit_probe_ns", "ns", L, "ops_per_s on read_hot"),
    pl(
        "table.cache_insert_probe_ns",
        "ns",
        L,
        "ops_per_s on read_cold",
    ),
    // env
    pl("env.appends", "count", L, DEV),
    pl("env.append_mb", "MB", L, DEV),
    pl("env.append_ms", "ms", L, DEV),
    pl("env.reads", "count", L, DEV),
    pl("env.read_mb", "MB", L, DEV),
    pl("env.read_ms", "ms", L, DEV),
    pl(
        "env.syncs",
        "count",
        L,
        "device_s everywhere; ops_per_s on wire_mixed and shards_txn only",
    ),
    pl("env.sync_wait_ms", "ms", L, COMMIT),
    pl("env.manifest_syncs", "count", L, UPD),
    pl("env.files_created", "count", L, DEV),
    pl("env.files_removed", "count", L, DEV),
    // util
    pl("util.crc32c_4k_ns", "ns", L, SELF),
    pl("util.varint_roundtrip_ns", "ns", L, SELF),
    // the harness itself
    pl(
        "bench.trace_overhead_pct",
        "%",
        L,
        "nothing: throughput lost in the traced slices of the traced run",
    ),
    pl(
        "bench.traced_ops_per_s",
        "1/s",
        H,
        "nothing: ops_per_s of the traced run, against the untraced run's",
    ),
    pl(
        "bench.generator_ns_per_op",
        "ns",
        L,
        "nothing: client time per op spent making inputs and checking outputs",
    ),
    // Percentiles of the primary op did not hold a bound on every workload
    // (the median of a two-mode distribution jumps between the modes; the
    // 99th percentile of a 25 us get is the sandbox's jitter), so they are
    // reported here and `mean_us` carries the bound.
    pl(
        "bench.primary_p50_us",
        "us",
        L,
        "mean_us on the same workload",
    ),
    pl(
        "bench.primary_p99_us",
        "us",
        L,
        "mean_us on the same workload",
    ),
];

/// Named values of one run.
#[derive(Default, Clone)]
pub struct MetricSet(BTreeMap<&'static str, f64>);

impl MetricSet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "metric {name} is not in the registry"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: MetricSet) {
        self.0.extend(other.0);
    }
}

pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_is_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(legal_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        for m in END_TO_END {
            assert!(
                legal_name(m.name) && legal_unit(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(
                legal_name(m.name) && legal_unit(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
            assert!(
                ["server", "core", "lsm", "table", "env", "util", "bench"].contains(&m.layer()),
                "{}",
                m.name
            );
        }
        assert!(
            (2..=8).contains(&WORKLOADS.len()) && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128
        );
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
