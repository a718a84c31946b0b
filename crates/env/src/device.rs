//! NVMe device cost model: converts I/O counters into simulated seconds.
//!
//! The paper's throughput numbers come from a real KIOXIA NVMe SSD. We
//! reproduce the *shape* of those results by charging each I/O operation a
//! latency and each byte a bandwidth cost:
//!
//! ```text
//! time = read_ops·lat_r + read_bytes/bw_r + write_ops·lat_w + write_bytes/bw_w
//! ```
//!
//! Small random reads (GC-Lookup misses, lazy-read index fetches, per-block
//! vSST scans with readahead disabled) are dominated by the per-op latency;
//! large sequential transfers (flush, compaction, full-file GC reads with
//! readahead) are dominated by the bandwidth term — exactly the trade-off
//! the paper's GC analysis (§II-C) revolves around.
//!
//! The same two read terms set how large every GC, compaction and scan
//! read is: [`READ_SIZE`], the one read-size rule.

use crate::io_stats::IoStatsSnapshot;

/// How far apart two wanted byte ranges of a file may sit and still
/// share one read, and how many bytes one read fetches. Build it with
/// [`DeviceModel::read_size`]; every engine read follows [`READ_SIZE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coalesce {
    /// Most unwanted bytes a read passes through to reach the next range.
    pub max_gap: u64,
    /// Most bytes one read fetches (a single range larger than this is
    /// still read whole).
    pub max_span: u64,
}

/// A span is this many gaps: its one per-op cost is then at most a tenth
/// of its transfer time.
const GAPS_PER_SPAN: u64 = 10;

/// The one read-size rule, from [`DeviceModel::nvme`]: a 240,000 B gap
/// and a 2.4 MB span. GC step ③ in every mode, whole-file GC walks,
/// BlobDB relocation, foreground scans and compaction inputs all read
/// this way, so a 2 MiB value file or a key SST is one read.
pub const READ_SIZE: Coalesce = DeviceModel::nvme().read_size();

/// Cost parameters for a storage device.
#[derive(Debug, Clone, Copy)]
pub struct DeviceModel {
    /// Sequential read bandwidth, bytes/second.
    pub read_bw: f64,
    /// Sequential write bandwidth, bytes/second.
    pub write_bw: f64,
    /// Per-read-operation latency, seconds.
    pub read_lat: f64,
    /// Per-write-operation latency, seconds.
    pub write_lat: f64,
}

impl DeviceModel {
    /// A datacenter NVMe SSD roughly calibrated to the paper's testbed
    /// (KIOXIA 500 GB NVMe): ~3 GB/s reads, ~2 GB/s writes, ~80 µs random
    /// read, ~20 µs submission overhead per write.
    pub const fn nvme() -> Self {
        DeviceModel {
            read_bw: 3.0e9,
            write_bw: 2.0e9,
            read_lat: 80e-6,
            write_lat: 20e-6,
        }
    }

    /// The read sizes this device favours. **Gap** = `read_lat ×
    /// read_bw`: reading through fewer dead bytes than that costs less
    /// than a second operation. **Span** = ten gaps: one operation adds
    /// at most 10 % to a full span's transfer time.
    pub const fn read_size(&self) -> Coalesce {
        let gap = (self.read_lat * self.read_bw).round() as u64;
        Coalesce {
            max_gap: gap,
            max_span: GAPS_PER_SPAN * gap,
        }
    }

    /// Simulated seconds consumed by the I/O in `snap`.
    pub fn simulated_seconds(&self, snap: &IoStatsSnapshot) -> f64 {
        let r_ops = snap.total_read_ops() as f64;
        let r_bytes = snap.total_read_bytes() as f64;
        let w_ops = snap.total_write_ops() as f64;
        let w_bytes = snap.total_write_bytes() as f64;
        r_ops * self.read_lat
            + r_bytes / self.read_bw
            + w_ops * self.write_lat
            + w_bytes / self.write_bw
    }

    /// Simulated throughput in bytes/second for `user_bytes` of foreground
    /// work that required the I/O in `snap`. Returns `f64::INFINITY` when
    /// no I/O was performed.
    pub fn simulated_throughput(&self, user_bytes: u64, snap: &IoStatsSnapshot) -> f64 {
        let secs = self.simulated_seconds(snap);
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            user_bytes as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_stats::{IoClass, IoStats};

    fn snap_with(reads: &[(u64, u64)], writes: &[(u64, u64)]) -> IoStatsSnapshot {
        let s = IoStats::new();
        for &(ops, bytes) in reads {
            for _ in 0..ops.saturating_sub(1) {
                s.record_read(IoClass::Other, 0);
            }
            if ops > 0 {
                s.record_read(IoClass::Other, bytes);
            }
        }
        for &(ops, bytes) in writes {
            for _ in 0..ops.saturating_sub(1) {
                s.record_write(IoClass::Other, 0);
            }
            if ops > 0 {
                s.record_write(IoClass::Other, bytes);
            }
        }
        s.snapshot()
    }

    /// The rule is the NVMe model's: 80 µs of latency moves 240,000 B at
    /// 3 GB/s, and a span is ten of those.
    #[test]
    fn the_read_size_rule_is_the_nvme_models() {
        let want = Coalesce {
            max_gap: 240_000,
            max_span: 2_400_000,
        };
        assert_eq!(READ_SIZE, want);
        assert_eq!(DeviceModel::nvme().read_size(), want);
        let m = DeviceModel::nvme();
        let op = m.read_lat;
        let gap = READ_SIZE.max_gap as f64 / m.read_bw;
        assert!((op - gap).abs() < 1e-12, "one op costs one gap's transfer");
        let span = READ_SIZE.max_span as f64 / m.read_bw;
        assert!(op <= 0.1 * span + 1e-12);
    }

    #[test]
    fn zero_io_costs_nothing() {
        let m = DeviceModel::nvme();
        let snap = IoStatsSnapshot::default();
        assert_eq!(m.simulated_seconds(&snap), 0.0);
        assert_eq!(m.simulated_throughput(100, &snap), f64::INFINITY);
    }

    #[test]
    fn bandwidth_term_scales_with_bytes() {
        let m = DeviceModel::nvme();
        let small = snap_with(&[(1, 1 << 20)], &[]);
        let large = snap_with(&[(1, 1 << 30)], &[]);
        let ts = m.simulated_seconds(&small);
        let tl = m.simulated_seconds(&large);
        assert!(tl > ts * 100.0, "1GB should cost far more than 1MB");
    }

    #[test]
    fn many_small_reads_cost_more_than_one_big_read() {
        // Same total bytes, 1024 ops vs 1 op: latency term dominates.
        let m = DeviceModel::nvme();
        let mut many = IoStatsSnapshot::default();
        many.classes[0].read_ops = 1024;
        many.classes[0].read_bytes = 4 << 20;
        let mut one = IoStatsSnapshot::default();
        one.classes[0].read_ops = 1;
        one.classes[0].read_bytes = 4 << 20;
        assert!(m.simulated_seconds(&many) > 10.0 * m.simulated_seconds(&one));
    }

    #[test]
    fn throughput_inversely_proportional_to_io() {
        let m = DeviceModel::nvme();
        let light = snap_with(&[], &[(1, 1 << 20)]);
        let heavy = snap_with(&[], &[(1, 10 << 20)]);
        let t_light = m.simulated_throughput(1 << 20, &light);
        let t_heavy = m.simulated_throughput(1 << 20, &heavy);
        assert!(t_light > t_heavy * 5.0);
    }
}
