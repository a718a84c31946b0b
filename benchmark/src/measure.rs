//! The client side of a measured phase: time each op, slice the phase, and
//! reduce the samples to the numbers the benchmark reports.
//!
//! A phase is a fixed number of ops (so counts repeat), run by one or more
//! closed-loop clients. Rates are the median over [`SLICES`] equal
//! op-count slices of the completion-ordered op stream. In a traced run
//! client 0 switches tracing on for every other slice, so one run yields
//! both the traced spans and the untraced rate the overhead is taken
//! against.

use crate::trace;
use std::time::Instant;

pub const SLICES: usize = 8;

/// One op as its client saw it.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Completion time, ns since the phase started.
    pub done_ns: u64,
    pub lat_ns: u64,
    /// Latency minus the env time spent under the call on this thread;
    /// only meaningful when `traced`.
    pub self_ns: u64,
    pub traced: bool,
    /// Workload-defined op kind (0 is the primary op).
    pub kind: u8,
}

/// What one client brings back.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    /// Ops whose result was an error or failed verification.
    pub failed: u64,
    /// When client 0 crossed each slice boundary (ns since phase start).
    boundaries: Vec<u64>,
    wall_ns: u64,
}

/// Time `call` as op `op_id`; with tracing on it also opens the op span.
pub struct Timer {
    phase_start: Instant,
}

impl Timer {
    pub fn time<T>(
        &self,
        op_id: u64,
        layer: &'static str,
        name: &'static str,
        kind: u8,
        call: impl FnOnce() -> T,
    ) -> (T, Sample) {
        let traced = trace::enabled();
        if traced {
            trace::op_begin(op_id);
        }
        let t0 = Instant::now();
        let out = call();
        let lat_ns = t0.elapsed().as_nanos() as u64;
        let self_ns = if traced {
            trace::op_end(layer, name).1
        } else {
            0
        };
        let done_ns = self.phase_start.elapsed().as_nanos() as u64;
        (
            out,
            Sample {
                done_ns,
                lat_ns,
                self_ns,
                traced,
                kind,
            },
        )
    }
}

/// Run `n_ops` ops on the calling thread. `op(i, timer)` generates its
/// input, makes the call through `timer`, verifies the result, and returns
/// the sample and whether the op was correct. `toggles` marks the one
/// client that switches tracing per slice in a traced run.
pub fn drive(
    phase_start: Instant,
    n_ops: u64,
    toggles: bool,
    mut op: impl FnMut(u64, &Timer) -> (Sample, bool),
) -> ClientLog {
    let timer = Timer { phase_start };
    let per_slice = n_ops.div_ceil(SLICES as u64).max(1);
    let mut log = ClientLog {
        samples: Vec::with_capacity(n_ops as usize),
        ..ClientLog::default()
    };
    let began = phase_start.elapsed().as_nanos() as u64;
    for i in 0..n_ops {
        if i % per_slice == 0 {
            log.boundaries.push(phase_start.elapsed().as_nanos() as u64);
            if toggles {
                trace::set_enabled((i / per_slice) % 2 == 1);
            }
        }
        let (sample, ok) = op(i, &timer);
        log.samples.push(sample);
        log.failed += u64::from(!ok);
    }
    let ended = phase_start.elapsed().as_nanos() as u64;
    log.boundaries.push(ended);
    if toggles {
        trace::set_enabled(false);
    }
    log.wall_ns = ended - began;
    log
}

/// All clients' logs of one phase, merged.
pub struct Phase {
    /// Completion-ordered.
    pub samples: Vec<Sample>,
    pub failed: u64,
    boundaries: Vec<u64>,
    /// Mean over clients of (wall − Σ latency) / ops: input generation and
    /// output checking, the client's think time.
    pub client_ns_per_op: f64,
}

impl Phase {
    pub fn merge(logs: Vec<ClientLog>) -> Phase {
        let clients = logs.len();
        let client_ns_per_op = logs
            .iter()
            .map(|l| {
                let busy: u64 = l.samples.iter().map(|s| s.lat_ns).sum();
                l.wall_ns.saturating_sub(busy) as f64 / l.samples.len().max(1) as f64
            })
            .sum::<f64>()
            / clients.max(1) as f64;
        let boundaries = logs
            .first()
            .map(|l| l.boundaries.clone())
            .unwrap_or_default();
        let failed = logs.iter().map(|l| l.failed).sum();
        let mut samples: Vec<Sample> = logs.into_iter().flat_map(|l| l.samples).collect();
        samples.sort_by_key(|s| s.done_ns);
        Phase {
            samples,
            failed,
            boundaries,
            client_ns_per_op,
        }
    }

    pub fn ops(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Ops per second: median over `SLICES` equal-count slices, each
    /// running from the previous slice's last completion to its own.
    pub fn ops_per_s(&self) -> f64 {
        let n = self.samples.len();
        let mut rates = Vec::with_capacity(SLICES);
        let mut prev_end = self.boundaries.first().copied().unwrap_or(0);
        for s in 0..SLICES {
            let (lo, hi) = (n * s / SLICES, n * (s + 1) / SLICES);
            if hi == lo {
                continue;
            }
            let end = self.samples[hi - 1].done_ns;
            rates.push((hi - lo) as f64 / ((end - prev_end).max(1) as f64 / 1e9));
            prev_end = end;
        }
        median(&mut rates)
    }

    /// A statistic of the latencies (sorted, ns) of ops of `kind`, taken in
    /// each slice, then the median across slices — a disturbance that hits
    /// a minority of the slices does not move it, where it would move a
    /// statistic over the whole phase.
    fn over_slices(&self, kind: u8, stat: impl Fn(&[u64]) -> f64) -> f64 {
        let n = self.samples.len();
        let mut per_slice: Vec<f64> = (0..SLICES)
            .filter_map(|s| {
                let mut lat: Vec<u64> = self.samples[n * s / SLICES..n * (s + 1) / SLICES]
                    .iter()
                    .filter(|x| x.kind == kind)
                    .map(|x| x.lat_ns)
                    .collect();
                lat.sort_unstable();
                (!lat.is_empty()).then(|| stat(&lat))
            })
            .collect();
        median(&mut per_slice)
    }

    /// Percentile `p` of the latency of ops of `kind`, in µs.
    pub fn latency_us(&self, kind: u8, p: f64) -> f64 {
        self.over_slices(kind, |lat| percentile_us(lat, p))
    }

    /// Mean latency of ops of `kind`, in µs.
    pub fn mean_latency_us(&self, kind: u8) -> f64 {
        self.over_slices(kind, |lat| {
            lat.iter().sum::<u64>() as f64 / lat.len() as f64 / 1e3
        })
    }

    /// Sorted latencies (ns) of ops of `kind`.
    pub fn latencies(&self, kind: u8) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.lat_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Sorted self times (ns) of traced ops of `kind`.
    pub fn self_times(&self, kind: u8) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.traced && s.kind == kind)
            .map(|s| s.self_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Percent of throughput lost while tracing was on: ops completed per
    /// second in client 0's traced slices against its untraced ones.
    pub fn trace_overhead_pct(&self) -> f64 {
        let mut rates = [Vec::new(), Vec::new()];
        for (slice, w) in self.boundaries.windows(2).enumerate() {
            let done = self
                .samples
                .iter()
                .filter(|s| s.done_ns > w[0] && s.done_ns <= w[1])
                .count();
            rates[slice % 2].push(done as f64 / ((w[1] - w[0]).max(1) as f64 / 1e9));
        }
        let [mut untraced, mut traced] = rates;
        let (u, t) = (median(&mut untraced), median(&mut traced));
        if u > 0.0 {
            100.0 * (u - t) / u
        } else {
            0.0
        }
    }
}

pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Percentile `p` in [0, 100] of sorted ns, in µs, interpolating between
/// the two nearest ranks. Empty input reads 0.
pub fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted_ns.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let frac = rank - lo as f64;
    (sorted_ns[lo] as f64 * (1.0 - frac) + sorted_ns[hi] as f64 * frac) / 1e3
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_median_handles_both_parities() {
        let ns: Vec<u64> = (1..=101).map(|i| i * 1000).collect();
        assert_eq!(percentile_us(&ns, 0.0), 1.0);
        assert_eq!(percentile_us(&ns, 50.0), 51.0);
        assert_eq!(percentile_us(&ns, 99.0), 100.0);
        assert_eq!(percentile_us(&ns, 99.5), 100.5);
        assert_eq!(percentile_us(&[], 50.0), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn rate_is_the_median_slice_and_failures_are_counted() {
        let start = Instant::now();
        let log = drive(start, 80, false, |i, timer| {
            let ((), s) = timer.time(i, "core", "put", (i % 2) as u8, || {
                // One slow slice must not move the median.
                if (10..20).contains(&i) {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
            (s, i != 7)
        });
        let phase = Phase::merge(vec![log]);
        assert_eq!((phase.ops(), phase.failed), (80, 1));
        assert_eq!(phase.latencies(0).len(), 40);
        assert!(phase.self_times(0).is_empty(), "nothing traced");
        assert!(
            phase.ops_per_s() > 10_000.0,
            "median slice has no sleeps: {}",
            phase.ops_per_s()
        );
        assert!(peak_rss_mb() > 1.0);
    }
}
