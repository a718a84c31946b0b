//! Direct probes of lower-layer public functions, about a second in all,
//! run at the end of every traced run. They put a number on layers whose
//! cost the workloads only see mixed into an op (checksums, varints, the
//! cache, the bare index LSM, the wire codec), so a later change to one of
//! them has a before/after of its own.

use crate::gen::{mix64, DataSet, ValueSizes};
use crate::metrics::MetricSet;
use scavenger_env::MemEnv;
use scavenger_lsm::{Lsm, LsmOptions, LsmReadResult, WriteBatch, WriteOptions};
use scavenger_server::{Request, Response};
use scavenger_table::cache::{CacheKey, CachePriority, LruCache};
use scavenger_util::{coding, crc32c};
use std::hint::black_box;
use std::time::Instant;

/// Mean ns of `iters` calls of `f(i)`.
fn mean_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn util(m: &mut MetricSet, seed: u64) {
    let block: Vec<u8> = (0..4096u64).map(|i| mix64(seed ^ i) as u8).collect();
    m.set(
        "util.crc32c_4k_ns",
        mean_ns(20_000, |_| {
            black_box(crc32c::value(black_box(&block)));
        }),
    );
    let mut buf = Vec::with_capacity(16);
    m.set(
        "util.varint_roundtrip_ns",
        mean_ns(500_000, |i| {
            buf.clear();
            // Lengths and offsets as the formats store them: 1 to 5 bytes.
            coding::put_varint64(&mut buf, black_box(mix64(i) >> (36 + i % 28)));
            black_box(coding::get_varint64(&mut buf.as_slice()).expect("round trip"));
        }),
    );
}

fn table(m: &mut MetricSet) {
    // 1 MiB of 4 KiB charges: 256 resident entries.
    let cache: LruCache<u64> = LruCache::with_capacity(1 << 20);
    let key = |i: u64| CacheKey {
        file: 1 + i / 64,
        offset: (i % 64) * 4096,
        kind: 0,
    };
    m.set(
        "table.cache_insert_probe_ns",
        mean_ns(100_000, |i| {
            cache.insert(key(i), i, 4096, CachePriority::Low)
        }),
    );
    let resident: Vec<u64> = (0..100_000)
        .filter(|&i| cache.get(&key(i)).is_some())
        .collect();
    assert!(!resident.is_empty(), "cache probe: nothing resident");
    m.set(
        "table.cache_hit_probe_ns",
        mean_ns(200_000, |i| {
            black_box(cache.get(&key(resident[(i % resident.len() as u64) as usize])));
        }),
    );
}

fn lsm(m: &mut MetricSet, seed: u64) -> Result<(), String> {
    const N: u64 = 20_000;
    let ds = DataSet {
        seed,
        sizes: ValueSizes::Fixed(100),
    };
    let mut opts = LsmOptions::new(MemEnv::shared(), "probe");
    // Nothing flushes until told to, and a flush makes one L0 file, so
    // no compaction runs before the one the probe forces.
    opts.memtable_size = 64 << 20;
    opts.target_file_size = 64 << 20;
    let (lsm, _) = Lsm::open(opts).map_err(|e| e.to_string())?;
    let nosync = WriteOptions::with_sync(false);
    let write_round = |version: u32| -> Result<f64, String> {
        let t = Instant::now();
        for i in 0..N {
            let id = mix64(seed ^ i) % N;
            let mut batch = WriteBatch::new();
            batch.put(ds.key(id), ds.value(id, version));
            lsm.write_opts(&nosync, batch).map_err(|e| e.to_string())?;
        }
        Ok(t.elapsed().as_nanos() as f64 / N as f64)
    };
    m.set("lsm.write_probe_ns", write_round(1)?);
    let get_round = || {
        mean_ns(N, |i| {
            let found = lsm.get(&ds.key(mix64(seed ^ i) % N));
            assert!(
                matches!(found, Ok(LsmReadResult::Found { .. })),
                "lsm probe: key missing"
            );
        })
    };
    m.set("lsm.get_mem_probe_ns", get_round());
    let t = Instant::now();
    lsm.flush().map_err(|e| e.to_string())?;
    m.set("lsm.flush_probe_ms", t.elapsed().as_secs_f64() * 1e3);
    m.set("lsm.get_sst_probe_ns", get_round());
    // A second overlapping L0 file, then merge the two.
    write_round(2)?;
    lsm.flush().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let compacted = lsm.force_compact_once().map_err(|e| e.to_string())?;
    assert!(compacted, "lsm probe: nothing to compact");
    m.set("lsm.compact_probe_ms", t.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

fn server(m: &mut MetricSet, seed: u64) {
    let ds = DataSet {
        seed,
        sizes: ValueSizes::Fixed(1024),
    };
    let (key, value) = (ds.key(0).to_vec(), ds.value(0, 1));
    let round_trip = |req: &Request, resp: &Response| {
        let wire = black_box(req.encode());
        black_box(Request::decode(&wire).expect("request decodes"));
        let wire = black_box(resp.encode());
        black_box(Response::decode(&wire).expect("response decodes"));
    };
    let put = Request::Put {
        key: key.clone(),
        value: value.clone(),
        sync: true,
    };
    let written = Response::Written {
        seq: 1 << 20,
        group_len: 1,
        synced: true,
    };
    m.set(
        "server.codec_put_ns",
        mean_ns(100_000, |_| round_trip(&put, &written)),
    );
    let get = Request::Get { snap: None, key };
    let got = Response::Value { value: Some(value) };
    m.set(
        "server.codec_get_ns",
        mean_ns(100_000, |_| round_trip(&get, &got)),
    );
}

pub fn run(seed: u64) -> Result<MetricSet, String> {
    let mut m = MetricSet::default();
    util(&mut m, seed);
    table(&mut m);
    lsm(&mut m, seed)?;
    server(&mut m, seed);
    Ok(m)
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_probe_reports_a_positive_number() {
        let m = super::run(5).unwrap();
        for name in [
            "util.crc32c_4k_ns",
            "util.varint_roundtrip_ns",
            "table.cache_insert_probe_ns",
            "table.cache_hit_probe_ns",
            "lsm.write_probe_ns",
            "lsm.get_mem_probe_ns",
            "lsm.get_sst_probe_ns",
            "lsm.flush_probe_ms",
            "lsm.compact_probe_ms",
            "server.codec_put_ns",
            "server.codec_get_ns",
        ] {
            assert!(m.get(name).unwrap() > 0.0, "{name}");
        }
    }
}
