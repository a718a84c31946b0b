//! DropCache: the hotness detector behind hot/cold value separation
//! (paper §III-B3).
//!
//! Compaction (and flush deduplication) drops a key's older versions
//! exactly when the key was overwritten or deleted — i.e. when the key is
//! *hot-write* data. The DropCache records those keys in an LRU, and the
//! flush/GC write paths consult it to route values into hot vs. cold value
//! SSTs. Over time hot files accumulate garbage faster, so the
//! ratio-triggered GC preferentially collects them — reclaiming more space
//! per byte of GC I/O while leaving cold data untouched.
//!
//! The cache stores only keys (~32 B/key per the paper) and serves no
//! foreground requests.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// DropCache capacity, in keys, of every engine (§III-B3; ~32 B/key, so
/// about 2 MiB). A constant, not an option: no experiment sizes it.
pub const DROPCACHE_KEYS: usize = 64 * 1024;

/// Capacity at which [`DropCache::new`] starts sharding. Below this a
/// single shard preserves exact global LRU order (and the tiny caches used
/// in tests/experiments); above it, contention matters more than strict
/// cross-shard recency.
const SHARD_CAPACITY_MIN: usize = 4096;

/// Shard count for large caches (power of two for mask indexing).
const NUM_SHARDS: usize = 16;

/// LRU set of recently-dropped (hot-write) user keys.
///
/// Sharded: compaction worker threads insert while the flush and GC write
/// paths call [`contains`](DropCache::contains) for every record they
/// route, so a single global mutex here sits directly on the engine's
/// hottest background paths. Each shard is an independent LRU guarding
/// `capacity / shards` keys; a key's shard is fixed by its hash, so
/// `insert`/`contains` for the same key always agree.
pub struct DropCache {
    shards: Vec<Mutex<Shard>>,
    /// Power-of-two mask over the key hash.
    shard_mask: usize,
    per_shard_capacity: usize,
}

#[derive(Default)]
struct Shard {
    // Key -> generation stamp. The queue holds `(key, stamp)` pairs and
    // lazy expiration skips stale entries, avoiding a doubly-linked list.
    // The `Arc<[u8]>` key allocation is shared between map and queue, so
    // an insert allocates the key bytes exactly once.
    map: HashMap<Arc<[u8]>, u64>,
    queue: VecDeque<(Arc<[u8]>, u64)>,
    next_stamp: u64,
}

impl Shard {
    fn insert(&mut self, key: &[u8], capacity: usize) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        // Reuse the existing allocation when refreshing a resident key.
        let shared: Arc<[u8]> = match self.map.get_key_value(key) {
            Some((k, _)) => k.clone(),
            None => Arc::from(key),
        };
        self.map.insert(shared.clone(), stamp);
        self.queue.push_back((shared, stamp));
        // Evict while over capacity, skipping stale queue entries.
        while self.map.len() > capacity {
            match self.queue.pop_front() {
                Some((k, s)) => {
                    if self.map.get(&k) == Some(&s) {
                        self.map.remove(&k);
                    }
                }
                None => break,
            }
        }
        // Repeated re-inserts of hot keys leave stale `(key, old_stamp)`
        // entries behind; compact the queue (drop every stale entry in one
        // O(len) pass) before it outgrows 2× capacity.
        if self.queue.len() > capacity * 2 {
            let map = &self.map;
            self.queue.retain(|(k, s)| map.get(k) == Some(s));
        }
    }
}

impl DropCache {
    /// Create a DropCache remembering up to `capacity` keys. Large caches
    /// are sharded; small ones keep a single shard (exact LRU order).
    pub fn new(capacity: usize) -> Self {
        let shards = if capacity >= SHARD_CAPACITY_MIN {
            NUM_SHARDS
        } else {
            1
        };
        DropCache::with_shards(capacity, shards)
    }

    /// Create with an explicit shard count (rounded up to a power of two).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        DropCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_mask: shards - 1,
            per_shard_capacity: (capacity.max(1)).div_ceil(shards),
        }
    }

    fn shard_for(&self, key: &[u8]) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.shard_mask]
    }

    /// Record a dropped key (refreshes recency).
    pub fn insert(&self, key: &[u8]) {
        self.shard_for(key)
            .lock()
            .insert(key, self.per_shard_capacity);
    }

    /// Is `key` a recent hot-write key?
    pub fn contains(&self, key: &[u8]) -> bool {
        self.shard_for(key).lock().map.contains_key(key)
    }

    /// Number of remembered keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True if no keys are remembered.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().map.is_empty())
    }

    /// Total lazy-expiration queue entries across shards (bounded at
    /// `2 × capacity + 1` per shard, which the tests check).
    #[cfg(test)]
    fn queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().queue.len()).sum()
    }

    /// Number of shards (exposed for tests/diagnostics).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_contains() {
        let c = DropCache::new(100);
        c.insert(b"hot-key");
        assert!(c.contains(b"hot-key"));
        assert!(!c.contains(b"cold-key"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let c = DropCache::new(3);
        for k in ["a", "b", "c", "d"] {
            c.insert(k.as_bytes());
        }
        assert_eq!(c.len(), 3);
        assert!(!c.contains(b"a"), "oldest evicted");
        assert!(c.contains(b"b") && c.contains(b"c") && c.contains(b"d"));
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let c = DropCache::new(3);
        c.insert(b"a");
        c.insert(b"b");
        c.insert(b"c");
        c.insert(b"a"); // refresh a
        c.insert(b"d"); // evicts b, not a
        assert!(c.contains(b"a"));
        assert!(!c.contains(b"b"));
    }

    #[test]
    fn heavy_reinsertion_stays_bounded() {
        let c = DropCache::new(8);
        for i in 0..10_000u64 {
            c.insert(format!("k{}", i % 4).as_bytes());
        }
        assert!(c.len() <= 8);
        for i in 0..4u64 {
            assert!(c.contains(format!("k{i}").as_bytes()));
        }
        assert!(
            c.queue_len() <= 8 * 2 + 1,
            "queue compacted, got {}",
            c.queue_len()
        );
    }

    #[test]
    fn large_caches_shard_and_stay_bounded() {
        let c = DropCache::new(16 * 1024);
        assert!(c.num_shards() > 1, "large capacity must shard");
        // Hammer a hot working set much larger than any one shard.
        for round in 0..4u64 {
            for i in 0..8_192u64 {
                c.insert(format!("key-{i:05}-{}", round % 2).as_bytes());
            }
        }
        assert!(c.len() <= 16 * 1024 + c.num_shards());
        assert!(c.queue_len() <= 2 * (16 * 1024) + c.num_shards());
        // Recently inserted keys are still present.
        let hits = (0..8_192u64)
            .filter(|i| c.contains(format!("key-{i:05}-1").as_bytes()))
            .count();
        assert!(hits > 8_000, "recent keys resident: {hits}/8192");
    }

    #[test]
    fn explicit_shard_count_preserves_per_key_routing() {
        let c = DropCache::with_shards(64, 8);
        assert_eq!(c.num_shards(), 8);
        for i in 0..64u64 {
            c.insert(format!("k{i}").as_bytes());
        }
        // Every key routes to the same shard on lookup as on insert.
        let present = (0..64u64)
            .filter(|i| c.contains(format!("k{i}").as_bytes()))
            .count();
        assert!(present >= 48, "most keys resident: {present}");
    }
}
