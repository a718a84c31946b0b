//! Drives a [`KvStore`] through the paper's phases (load → update → read →
//! scan → YCSB), tracking the logical dataset size exactly.

use crate::dist::KeyDist;
use crate::keys::encode_key;
use crate::values::{make_value, ValueGen};
use crate::ycsb::{YcsbOp, YcsbWorkload};
use crate::KvStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scavenger_util::Result;

/// Per-phase report.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseReport {
    /// Operations performed.
    pub ops: u64,
    /// User bytes written (keys + values of writes).
    pub user_write_bytes: u64,
    /// User bytes read.
    pub user_read_bytes: u64,
    /// Wall-clock seconds.
    pub wall_secs: f64,
}

/// Workload driver holding the per-key version/size ground truth.
pub struct Runner {
    rng: StdRng,
    value_gen: ValueGen,
    /// Current version of each key (0 = never written).
    versions: Vec<u64>,
    /// Current value size of each key.
    sizes: Vec<u32>,
    /// Number of keys inserted so far.
    num_keys: u64,
    verify_reads: bool,
}

impl Runner {
    /// Create a runner for up to `capacity` keys.
    pub fn new(capacity: u64, value_gen: ValueGen, seed: u64) -> Self {
        Runner {
            rng: StdRng::seed_from_u64(seed),
            value_gen,
            versions: vec![0; capacity as usize],
            sizes: vec![0; capacity as usize],
            num_keys: 0,
            verify_reads: false,
        }
    }

    /// Enable read verification (tests): read values are checked against
    /// the deterministic expected payload.
    pub fn with_verification(mut self) -> Self {
        self.verify_reads = true;
        self
    }

    /// Keys inserted so far.
    pub fn num_keys(&self) -> u64 {
        self.num_keys
    }

    /// Exact logical dataset size: Σ (key length + current value size) —
    /// the denominator of space amplification.
    pub fn logical_bytes(&self) -> u64 {
        let key_len = crate::keys::KEY_LEN as u64;
        self.sizes
            .iter()
            .take(self.num_keys as usize)
            .map(|&s| key_len + u64::from(s))
            .sum()
    }

    fn write_key(&mut self, store: &impl KvStore, id: u64) -> Result<u64> {
        let size = self.value_gen.next_size(&mut self.rng);
        let version = self.versions[id as usize] + 1;
        self.versions[id as usize] = version;
        self.sizes[id as usize] = size as u32;
        let value = make_value(id, version, size);
        store.put(&encode_key(id), &value)?;
        Ok((crate::keys::KEY_LEN + value.len()) as u64)
    }

    /// Load phase: insert keys `[num_keys, num_keys + n)` in random order
    /// (the paper loads uniformly random data).
    pub fn load(&mut self, store: &impl KvStore, n: u64) -> Result<PhaseReport> {
        let start = std::time::Instant::now();
        let mut report = PhaseReport::default();
        let base = self.num_keys;
        let mut ids: Vec<u64> = (base..base + n).collect();
        // Fisher-Yates with the runner's RNG for determinism.
        for i in (1..ids.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            ids.swap(i, j);
        }
        self.num_keys = base + n;
        for id in ids {
            report.user_write_bytes += self.write_key(store, id)?;
            report.ops += 1;
        }
        report.wall_secs = start.elapsed().as_secs_f64();
        Ok(report)
    }

    /// Update phase: `n` overwrites with keys drawn from `dist`.
    pub fn update(&mut self, store: &impl KvStore, dist: &KeyDist, n: u64) -> Result<PhaseReport> {
        let start = std::time::Instant::now();
        let mut report = PhaseReport::default();
        for _ in 0..n {
            let id = dist.next(&mut self.rng, self.num_keys);
            report.user_write_bytes += self.write_key(store, id)?;
            report.ops += 1;
        }
        report.wall_secs = start.elapsed().as_secs_f64();
        Ok(report)
    }

    /// Update until `bytes` user bytes have been written (the paper's
    /// "update 300 GB" phases).
    pub fn update_bytes(
        &mut self,
        store: &impl KvStore,
        dist: &KeyDist,
        bytes: u64,
    ) -> Result<PhaseReport> {
        let start = std::time::Instant::now();
        let mut report = PhaseReport::default();
        while report.user_write_bytes < bytes {
            let id = dist.next(&mut self.rng, self.num_keys);
            report.user_write_bytes += self.write_key(store, id)?;
            report.ops += 1;
        }
        report.wall_secs = start.elapsed().as_secs_f64();
        Ok(report)
    }

    /// Read phase: `n` point lookups.
    pub fn read(&mut self, store: &impl KvStore, dist: &KeyDist, n: u64) -> Result<PhaseReport> {
        let start = std::time::Instant::now();
        let mut report = PhaseReport::default();
        for _ in 0..n {
            let id = dist.next(&mut self.rng, self.num_keys);
            let got = store.get(&encode_key(id))?;
            if let Some(v) = &got {
                report.user_read_bytes += v.len() as u64;
                if self.verify_reads {
                    let expected = make_value(
                        id,
                        self.versions[id as usize],
                        self.sizes[id as usize] as usize,
                    );
                    assert_eq!(v, &expected, "read verification failed for key {id}");
                }
            } else if self.verify_reads && self.versions[id as usize] > 0 {
                panic!("key {id} missing but was written");
            }
            report.ops += 1;
        }
        report.wall_secs = start.elapsed().as_secs_f64();
        Ok(report)
    }

    /// Scan phase: `n` range scans of random length in `[1, max_len]`.
    pub fn scan(
        &mut self,
        store: &impl KvStore,
        dist: &KeyDist,
        n: u64,
        max_len: usize,
    ) -> Result<PhaseReport> {
        let start = std::time::Instant::now();
        let mut report = PhaseReport::default();
        for _ in 0..n {
            let id = dist.next(&mut self.rng, self.num_keys);
            let len = self.rng.gen_range(1..=max_len.max(1));
            let rows = store.scan(&encode_key(id), len)?;
            for (_, v) in &rows {
                report.user_read_bytes += v.len() as u64;
            }
            report.ops += 1;
        }
        report.wall_secs = start.elapsed().as_secs_f64();
        Ok(report)
    }

    /// Run `n` YCSB operations of workload `w` with skew `theta`.
    pub fn ycsb(
        &mut self,
        store: &impl KvStore,
        w: YcsbWorkload,
        theta: f64,
        n: u64,
        scan_max_len: usize,
    ) -> Result<PhaseReport> {
        let start = std::time::Instant::now();
        let mut report = PhaseReport::default();
        let dist = w.key_dist(self.num_keys.max(1), theta);
        for _ in 0..n {
            match w.next_op(&mut self.rng) {
                YcsbOp::Read => {
                    let id = dist.next(&mut self.rng, self.num_keys);
                    if let Some(v) = store.get(&encode_key(id))? {
                        report.user_read_bytes += v.len() as u64;
                    }
                }
                YcsbOp::Update => {
                    let id = dist.next(&mut self.rng, self.num_keys);
                    report.user_write_bytes += self.write_key(store, id)?;
                }
                YcsbOp::Insert => {
                    if (self.num_keys as usize) < self.versions.len() {
                        let id = self.num_keys;
                        self.num_keys += 1;
                        report.user_write_bytes += self.write_key(store, id)?;
                    }
                }
                YcsbOp::Scan => {
                    let id = dist.next(&mut self.rng, self.num_keys);
                    let len = self.rng.gen_range(1..=scan_max_len.max(1));
                    let rows = store.scan(&encode_key(id), len)?;
                    for (_, v) in &rows {
                        report.user_read_bytes += v.len() as u64;
                    }
                }
                YcsbOp::ReadModifyWrite => {
                    let id = dist.next(&mut self.rng, self.num_keys);
                    if let Some(v) = store.get(&encode_key(id))? {
                        report.user_read_bytes += v.len() as u64;
                    }
                    report.user_write_bytes += self.write_key(store, id)?;
                }
            }
            report.ops += 1;
        }
        report.wall_secs = start.elapsed().as_secs_f64();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::BTreeMap;

    /// A trivial in-memory KvStore for runner tests.
    #[derive(Default)]
    struct MapStore {
        map: Mutex<BTreeMap<Vec<u8>, Vec<u8>>>,
    }

    impl KvStore for MapStore {
        fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
            self.map.lock().insert(key.to_vec(), value.to_vec());
            Ok(())
        }
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
            Ok(self.map.lock().get(key).cloned())
        }
        fn delete(&self, key: &[u8]) -> Result<()> {
            self.map.lock().remove(key);
            Ok(())
        }
        fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
            Ok(self
                .map
                .lock()
                .range(start.to_vec()..)
                .take(limit)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect())
        }
    }

    #[test]
    fn load_then_read_verifies() {
        let store = MapStore::default();
        let mut r = Runner::new(500, ValueGen::fixed(256), 1).with_verification();
        let rep = r.load(&store, 500).unwrap();
        assert_eq!(rep.ops, 500);
        assert_eq!(rep.user_write_bytes, 500 * (24 + 256));
        assert_eq!(r.num_keys(), 500);
        assert_eq!(r.logical_bytes(), 500 * (24 + 256));
        let dist = KeyDist::uniform(500);
        let rep = r.read(&store, &dist, 1000).unwrap();
        assert_eq!(rep.ops, 1000);
        assert!(rep.user_read_bytes > 0);
    }

    #[test]
    fn updates_track_logical_size() {
        let store = MapStore::default();
        let mut r = Runner::new(100, ValueGen::mixed_8k(), 2).with_verification();
        r.load(&store, 100).unwrap();
        let before = r.logical_bytes();
        let dist = KeyDist::zipfian(100, 0.9);
        r.update(&store, &dist, 500).unwrap();
        // Logical size changed (value sizes re-drawn) but key count did not.
        assert_eq!(r.num_keys(), 100);
        let after = r.logical_bytes();
        assert!(after > 0 && (after != before || before > 0));
        // Verify all current values match ground truth.
        r.read(&store, &dist, 200).unwrap();
    }

    #[test]
    fn update_bytes_reaches_target() {
        let store = MapStore::default();
        let mut r = Runner::new(50, ValueGen::fixed(1000), 3);
        r.load(&store, 50).unwrap();
        let dist = KeyDist::uniform(50);
        let rep = r.update_bytes(&store, &dist, 100_000).unwrap();
        assert!(rep.user_write_bytes >= 100_000);
        assert!(rep.ops >= 97);
    }

    #[test]
    fn scan_reads_rows() {
        let store = MapStore::default();
        let mut r = Runner::new(200, ValueGen::fixed(100), 4);
        r.load(&store, 200).unwrap();
        let dist = KeyDist::uniform(200);
        let rep = r.scan(&store, &dist, 50, 10).unwrap();
        assert_eq!(rep.ops, 50);
        assert!(rep.user_read_bytes > 0);
    }

    #[test]
    fn ycsb_a_mixes_reads_and_writes() {
        let store = MapStore::default();
        let mut r = Runner::new(1000, ValueGen::fixed(500), 5);
        r.load(&store, 500).unwrap();
        let rep = r.ycsb(&store, YcsbWorkload::A, 0.99, 2000, 100).unwrap();
        assert_eq!(rep.ops, 2000);
        assert!(rep.user_write_bytes > 0);
        assert!(rep.user_read_bytes > 0);
    }

    #[test]
    fn ycsb_d_inserts_grow_keyspace() {
        let store = MapStore::default();
        let mut r = Runner::new(2000, ValueGen::fixed(100), 6);
        r.load(&store, 1000).unwrap();
        r.ycsb(&store, YcsbWorkload::D, 0.99, 4000, 100).unwrap();
        assert!(r.num_keys() > 1000, "inserts happened: {}", r.num_keys());
        assert!(r.num_keys() <= 2000);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let store = MapStore::default();
            let mut r = Runner::new(100, ValueGen::mixed_8k(), seed);
            r.load(&store, 100).unwrap();
            let dist = KeyDist::zipfian(100, 0.9);
            r.update(&store, &dist, 100).unwrap();
            r.logical_bytes()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
