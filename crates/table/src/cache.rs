//! Sharded LRU block cache with a high-priority pool.
//!
//! Mirrors RocksDB's `LRUCache` with `high_pri_pool_ratio`: entries are
//! inserted into either the high- or low-priority LRU list; eviction drains
//! the low-priority list first, and the high-priority pool overflows into
//! the low list when it exceeds its share of capacity.
//!
//! Scavenger leans on the priority split (paper §III-B2): DTable KF blocks
//! and RTable index partitions are inserted high-priority so GC-Lookups and
//! Lazy Reads stay cache-resident while key-SST data blocks churn through
//! the low-priority pool.
//!
//! Separated values sit one tier lower still, at [`CachePriority::Bottom`]:
//! a point read's value record (or value-file BTable block) enters at the
//! low list's LRU end, is promoted like any entry on a hit, and is never
//! admitted at the cost of a high-priority entry. Values fill a cache that
//! has room; in a full one a new value mostly evicts the last one that
//! was never hit again. Scans and GC read values around the cache.
//!
//! A store reads through the cache as a [`StoreCache`], which names its
//! files' blocks under the store's namespace, and keeps its open readers
//! in [`ReaderMap`]s: one for its key SSTs, one for its value files.

use crate::btable::BlockCache;
use crate::BlockKind;
use parking_lot::Mutex;
use scavenger_util::hash::IntMap;
use scavenger_util::Result;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Priority class of a cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePriority {
    /// Evicted last (index / KF blocks).
    High,
    /// Evicted first (key-SST data blocks).
    Low,
    /// Below `Low` (separated values): inserted at the low list's LRU end,
    /// so it is the next victim unless a hit promotes it to the low list's
    /// MRU end first; not admitted if it could only fit by evicting a
    /// `High` entry (an oversized one is simply not cached).
    Bottom,
}

/// Cache key: `(file_id, block_offset, kind_tag)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Owning file id: the file number under the store's namespace
    /// ([`StoreCache::file_id`]).
    pub file: u64,
    /// Block offset within the file.
    pub offset: u64,
    /// Stream tag (data / index / KF) so different streams never collide.
    pub kind: u8,
}

impl CacheKey {
    /// The key of `kind`'s block (or record) at `offset` of cache file id
    /// `file`.
    pub fn new(file: u64, offset: u64, kind: BlockKind) -> CacheKey {
        let kind = match kind {
            BlockKind::Data => 0,
            BlockKind::Index => 1,
            BlockKind::KeyFile => 2,
        };
        CacheKey { file, offset, kind }
    }
}

/// Bits of [`CacheKey::file`] carrying the real file number; the bits
/// above hold the store's cache namespace.
const CACHE_FILE_BITS: u32 = 40;

static NAMESPACES: AtomicU64 = AtomicU64::new(1);

/// A store's identity in the block cache: the cache it reads through and
/// the namespace its cache keys carry. The one place a file number
/// becomes a [`CacheKey::file`] id ([`file_id`](Self::file_id)).
#[derive(Clone)]
pub struct StoreCache {
    blocks: Arc<BlockCache>,
    namespace: u64,
}

impl StoreCache {
    /// A store's handle on `blocks`. When the cache is `shared` — other
    /// stores read through it too: the shards of a set, or stores opened
    /// on one caller-supplied cache — they number their files from 1 just
    /// as this one does, so the store takes a process-unique namespace
    /// and never serves another's blocks. A private cache's namespace is
    /// 0: a file's cache id is its number.
    pub fn new(blocks: Arc<BlockCache>, shared: bool) -> Self {
        let namespace = match shared {
            true => NAMESPACES.fetch_add(1, Ordering::Relaxed) << CACHE_FILE_BITS,
            false => 0,
        };
        StoreCache { blocks, namespace }
    }

    /// The block cache.
    pub fn blocks(&self) -> &Arc<BlockCache> {
        &self.blocks
    }

    /// The [`CacheKey::file`] id of the store's file `file_number`.
    pub fn file_id(&self, file_number: u64) -> u64 {
        debug_assert_eq!(
            file_number >> CACHE_FILE_BITS,
            0,
            "file number overflows the cache-id namespace split"
        );
        self.namespace | file_number
    }
}

/// Reader-map shards: as many as the block cache has (16), so parallel
/// lookups — GC validation workers above all — rarely share a mutex.
const READER_SHARDS: usize = 16;

/// A store's open readers of one kind — key SSTs or value files — keyed
/// by file number. A miss opens the reader outside any lock; when two
/// first lookups race, the first insert wins and both callers share it.
/// The owner evicts a file's reader when it deletes the file.
pub struct ReaderMap<R> {
    shards: [Mutex<IntMap<u64, Arc<R>>>; READER_SHARDS],
}

impl<R> Default for ReaderMap<R> {
    fn default() -> Self {
        let shards = std::array::from_fn(|_| Mutex::default());
        ReaderMap { shards }
    }
}

impl<R> ReaderMap<R> {
    fn shard(&self, file_number: u64) -> &Mutex<IntMap<u64, Arc<R>>> {
        // File numbers are sequential; mix them so neighbours land in
        // different shards.
        let h = file_number.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize % READER_SHARDS]
    }

    /// The reader of `file_number`, opened with `open` on a miss.
    pub fn get_or_open(
        &self,
        file_number: u64,
        open: impl FnOnce() -> Result<R>,
    ) -> Result<Arc<R>> {
        let shard = self.shard(file_number);
        if let Some(r) = shard.lock().get(&file_number) {
            return Ok(r.clone());
        }
        let reader = Arc::new(open()?);
        Ok(shard.lock().entry(file_number).or_insert(reader).clone())
    }

    /// Drop the reader of `file_number`, if one is kept.
    pub fn evict(&self, file_number: u64) {
        self.shard(file_number).lock().remove(&file_number);
    }

    /// Number of kept readers.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if no reader is kept.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }
}

const NIL: u32 = u32::MAX;

struct Node<V> {
    key: CacheKey,
    value: V,
    charge: usize,
    pri: CachePriority,
    prev: u32,
    next: u32,
}

#[derive(Clone, Copy, Default)]
struct ListEnds {
    head: u32, // MRU
    tail: u32, // LRU
}

struct Shard<V> {
    /// Keys are engine-chosen `(file, offset, kind)` triples, so the
    /// in-shard map uses the cheap [`IntMap`] hasher.
    map: IntMap<CacheKey, u32>,
    nodes: Vec<Option<Node<V>>>,
    free: Vec<u32>,
    lists: [ListEnds; 2], // [high, low]
    usage: usize,
    high_usage: usize,
    capacity: usize,
    high_capacity: usize,
}

fn list_index(p: CachePriority) -> usize {
    match p {
        CachePriority::High => 0,
        CachePriority::Low | CachePriority::Bottom => 1,
    }
}

impl<V: Clone> Shard<V> {
    fn new(capacity: usize, high_ratio: f64) -> Self {
        Shard {
            map: IntMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            lists: [ListEnds {
                head: NIL,
                tail: NIL,
            }; 2],
            usage: 0,
            high_usage: 0,
            capacity,
            high_capacity: (capacity as f64 * high_ratio) as usize,
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next, pri) = {
            let n = self.nodes[idx as usize].as_ref().unwrap();
            (n.prev, n.next, n.pri)
        };
        let list = &mut self.lists[list_index(pri)];
        if prev != NIL {
            self.nodes[prev as usize].as_mut().unwrap().next = next;
        } else {
            list.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].as_mut().unwrap().prev = prev;
        } else {
            list.tail = prev;
        }
    }

    fn push_mru(&mut self, idx: u32, pri: CachePriority) {
        let list = &mut self.lists[list_index(pri)];
        let old_head = list.head;
        list.head = idx;
        if list.tail == NIL {
            list.tail = idx;
        }
        {
            let n = self.nodes[idx as usize].as_mut().unwrap();
            n.pri = pri;
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].as_mut().unwrap().prev = idx;
        }
    }

    /// Link `idx` at the low list's LRU end (a [`CachePriority::Bottom`]
    /// insert); from there on it is an ordinary low entry.
    fn push_lru(&mut self, idx: u32) {
        let list = &mut self.lists[list_index(CachePriority::Low)];
        let old_tail = list.tail;
        list.tail = idx;
        if list.head == NIL {
            list.head = idx;
        }
        {
            let n = self.nodes[idx as usize].as_mut().unwrap();
            n.pri = CachePriority::Low;
            n.prev = old_tail;
            n.next = NIL;
        }
        if old_tail != NIL {
            self.nodes[old_tail as usize].as_mut().unwrap().next = idx;
        }
    }

    fn remove_node(&mut self, idx: u32) -> Node<V> {
        self.unlink(idx);
        let node = self.nodes[idx as usize].take().unwrap();
        self.free.push(idx);
        self.map.remove(&node.key);
        self.usage -= node.charge;
        if node.pri == CachePriority::High {
            self.high_usage -= node.charge;
        }
        node
    }

    fn alloc(&mut self, node: Node<V>) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Some(node);
            idx
        } else {
            self.nodes.push(Some(node));
            (self.nodes.len() - 1) as u32
        }
    }

    /// Demote from the high pool into the low pool while the high pool is
    /// over its share.
    fn maintain_pools(&mut self) {
        while self.high_usage > self.high_capacity {
            let victim = self.lists[0].tail;
            if victim == NIL {
                break;
            }
            self.unlink(victim);
            let charge = self.nodes[victim as usize].as_ref().unwrap().charge;
            self.high_usage -= charge;
            self.push_mru(victim, CachePriority::Low);
        }
    }

    /// Evict until under capacity, never evicting `keep`.
    fn evict(&mut self, keep: u32) -> usize {
        let mut evicted = 0;
        while self.usage > self.capacity {
            let mut victim = self.lists[1].tail;
            if victim == keep {
                victim = {
                    let n = self.nodes[victim as usize].as_ref().unwrap();
                    n.prev
                };
            }
            if victim == NIL {
                // Low list exhausted: take from high list.
                victim = self.lists[0].tail;
                if victim == keep {
                    victim = self.nodes[victim as usize].as_ref().unwrap().prev;
                }
            }
            if victim == NIL {
                break;
            }
            self.remove_node(victim);
            evicted += 1;
        }
        evicted
    }

    /// Insert `key`; false when a [`CachePriority::Bottom`] entry is not
    /// admitted.
    fn insert(&mut self, key: CacheKey, value: V, charge: usize, pri: CachePriority) -> bool {
        // Evicting the whole low list frees `capacity - high_usage` bytes
        // at most; a Bottom entry that needs more would cost a High one.
        if pri == CachePriority::Bottom && charge > self.capacity.saturating_sub(self.high_usage) {
            return false;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.remove_node(idx);
        }
        let idx = self.alloc(Node {
            key,
            value,
            charge,
            pri,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, idx);
        self.usage += charge;
        if pri == CachePriority::High {
            self.high_usage += charge;
        }
        match pri {
            CachePriority::Bottom => self.push_lru(idx),
            _ => self.push_mru(idx, pri),
        }
        self.maintain_pools();
        self.evict(idx);
        true
    }

    fn get(&mut self, key: &CacheKey) -> Option<V> {
        let idx = *self.map.get(key)?;
        let pri = self.nodes[idx as usize].as_ref().unwrap().pri;
        self.unlink(idx);
        self.push_mru(idx, pri);
        Some(self.nodes[idx as usize].as_ref().unwrap().value.clone())
    }
}

/// A sharded LRU cache with high/low priority pools and hit/miss counters.
pub struct LruCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl<V: Clone> LruCache<V> {
    /// Create a cache of `capacity` bytes split over `shards` shards, with
    /// `high_ratio` of capacity reserved for the high-priority pool.
    pub fn new(capacity: usize, shards: usize, high_ratio: f64) -> Self {
        let shards = shards.max(1);
        let per_shard = (capacity / shards).max(1);
        LruCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard, high_ratio.clamp(0.0, 1.0))))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// Create with RocksDB-ish defaults: 16 shards, 50% high-pri pool.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(capacity, 16, 0.5)
    }

    /// The shard holding `key`. The mapping decides which entries share
    /// an LRU list, so it is part of every eviction (and hence every I/O
    /// count): keep it bit-for-bit.
    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard<V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let i = (h.finish() as usize) % self.shards.len();
        &self.shards[i]
    }

    /// Insert (or replace) an entry. A [`CachePriority::Bottom`] entry
    /// that is not admitted leaves the cache as it was and is not counted
    /// as an insert.
    pub fn insert(&self, key: CacheKey, value: V, charge: usize, pri: CachePriority) {
        if self.shard_of(&key).lock().insert(key, value, charge, pri) {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Look up an entry, promoting it to MRU on hit.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        let got = self.shard_of(key).lock().get(key);
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Current total charged bytes.
    pub fn usage(&self) -> usize {
        self.shards.iter().map(|s| s.lock().usage).sum()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True if the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses, inserts)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.inserts.load(Ordering::Relaxed),
        )
    }

    /// Hit ratio in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits.load(Ordering::Relaxed) as f64;
        let m = self.misses.load(Ordering::Relaxed) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> CacheKey {
        CacheKey {
            file: 1,
            offset: i,
            kind: 0,
        }
    }

    fn single_shard(capacity: usize, high_ratio: f64) -> LruCache<u64> {
        LruCache::new(capacity, 1, high_ratio)
    }

    #[test]
    fn insert_get_roundtrip() {
        let c = single_shard(1000, 0.5);
        c.insert(key(1), 11, 10, CachePriority::Low);
        c.insert(key(2), 22, 10, CachePriority::High);
        assert_eq!(c.get(&key(1)), Some(11));
        assert_eq!(c.get(&key(2)), Some(22));
        assert_eq!(c.get(&key(3)), None);
        let (h, m, i) = c.stats();
        assert_eq!((h, m, i), (2, 1, 2));
    }

    #[test]
    fn evicts_lru_low_priority_first() {
        let c = single_shard(30, 0.5);
        c.insert(key(1), 1, 10, CachePriority::Low);
        c.insert(key(2), 2, 10, CachePriority::High);
        c.insert(key(3), 3, 10, CachePriority::Low);
        // Cache full (30). Inserting another 10 evicts LRU low = key 1.
        c.insert(key(4), 4, 10, CachePriority::Low);
        assert_eq!(c.get(&key(1)), None);
        assert_eq!(c.get(&key(2)), Some(2), "high-pri survives");
        assert_eq!(c.get(&key(3)), Some(3));
        assert_eq!(c.get(&key(4)), Some(4));
    }

    #[test]
    fn get_promotes_to_mru() {
        let c = single_shard(30, 0.0);
        c.insert(key(1), 1, 10, CachePriority::Low);
        c.insert(key(2), 2, 10, CachePriority::Low);
        c.insert(key(3), 3, 10, CachePriority::Low);
        assert_eq!(c.get(&key(1)), Some(1)); // 1 becomes MRU
        c.insert(key(4), 4, 10, CachePriority::Low); // evicts 2 (LRU)
        assert_eq!(c.get(&key(2)), None);
        assert_eq!(c.get(&key(1)), Some(1));
    }

    #[test]
    fn bottom_entry_is_evicted_before_any_low_entry() {
        let c = single_shard(30, 0.0);
        c.insert(key(1), 1, 10, CachePriority::Low);
        c.insert(key(2), 2, 10, CachePriority::Bottom);
        c.insert(key(3), 3, 10, CachePriority::Low);
        // Full. Key 2 went in after key 1 but at the LRU end.
        c.insert(key(4), 4, 10, CachePriority::Low);
        assert_eq!(c.get(&key(2)), None);
        assert_eq!(c.get(&key(1)), Some(1));
        assert_eq!(c.get(&key(3)), Some(3));
        assert_eq!(c.get(&key(4)), Some(4));
    }

    #[test]
    fn bottom_entries_in_a_full_cache_evict_each_other() {
        let c = single_shard(30, 0.0);
        c.insert(key(1), 1, 10, CachePriority::Low);
        c.insert(key(2), 2, 10, CachePriority::Low);
        c.insert(key(3), 3, 10, CachePriority::Bottom);
        c.insert(key(4), 4, 10, CachePriority::Bottom);
        assert_eq!(c.get(&key(3)), None, "the un-hit Bottom entry goes");
        assert_eq!(c.get(&key(1)), Some(1));
        assert_eq!(c.get(&key(2)), Some(2));
        assert_eq!(c.get(&key(4)), Some(4));
    }

    #[test]
    fn bottom_hit_promotes_to_the_low_mru_end() {
        let c = single_shard(30, 0.0);
        c.insert(key(1), 1, 10, CachePriority::Bottom);
        c.insert(key(2), 2, 10, CachePriority::Low);
        c.insert(key(3), 3, 10, CachePriority::Low);
        assert_eq!(c.get(&key(1)), Some(1)); // 1 becomes the low MRU
        c.insert(key(4), 4, 10, CachePriority::Low); // evicts 2 (LRU)
        c.insert(key(5), 5, 10, CachePriority::Bottom); // evicts 3
        assert_eq!(c.get(&key(2)), None);
        assert_eq!(c.get(&key(3)), None);
        assert_eq!(c.get(&key(1)), Some(1));
        assert_eq!(c.get(&key(4)), Some(4));
        assert_eq!(c.get(&key(5)), Some(5));
    }

    #[test]
    fn bottom_insert_is_not_admitted_at_the_cost_of_a_high_entry() {
        let c = single_shard(40, 0.5);
        c.insert(key(1), 1, 20, CachePriority::High);
        c.insert(key(2), 2, 10, CachePriority::Low);
        // Emptying the low list frees 20 bytes: 25 could only fit by
        // evicting key 1.
        c.insert(key(3), 3, 25, CachePriority::Bottom);
        assert_eq!(c.usage(), 30);
        assert_eq!(c.stats().2, 2, "a refused entry is not an insert");
        assert_eq!(c.get(&key(3)), None);
        assert_eq!(c.get(&key(1)), Some(1));
        assert_eq!(c.get(&key(2)), Some(2));
        // 20 fits by evicting the low entry alone.
        c.insert(key(4), 4, 20, CachePriority::Bottom);
        assert_eq!(c.get(&key(2)), None);
        assert_eq!(c.get(&key(1)), Some(1));
        assert_eq!(c.get(&key(4)), Some(4));
        // An oversized entry is simply not cached.
        c.insert(key(5), 5, 100, CachePriority::Bottom);
        assert_eq!(c.get(&key(5)), None);
        assert_eq!(c.usage(), 40);
    }

    #[test]
    fn high_pool_overflow_demotes() {
        // High pool limited to 20 of 40; third high insert demotes the LRU
        // high entry instead of evicting it.
        let c = single_shard(40, 0.5);
        c.insert(key(1), 1, 10, CachePriority::High);
        c.insert(key(2), 2, 10, CachePriority::High);
        c.insert(key(3), 3, 10, CachePriority::High);
        assert_eq!(c.usage(), 30);
        // All three still present (demotion, not eviction).
        assert_eq!(c.get(&key(1)), Some(1));
        assert_eq!(c.get(&key(2)), Some(2));
        assert_eq!(c.get(&key(3)), Some(3));
        // Now fill with low-pri: demoted high entries compete as low.
        c.insert(key(4), 4, 10, CachePriority::Low);
        c.insert(key(5), 5, 10, CachePriority::Low);
        assert!(c.usage() <= 40);
    }

    #[test]
    fn replacing_key_updates_value_and_charge() {
        let c = single_shard(100, 0.5);
        c.insert(key(1), 1, 60, CachePriority::Low);
        c.insert(key(1), 100, 10, CachePriority::Low);
        assert_eq!(c.get(&key(1)), Some(100));
        assert_eq!(c.usage(), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn oversized_entry_can_exceed_capacity_alone() {
        let c = single_shard(10, 0.5);
        c.insert(key(1), 1, 100, CachePriority::Low);
        // The entry itself is never evicted during its own insert.
        assert_eq!(c.get(&key(1)), Some(1));
        // But the next insert pushes it out.
        c.insert(key(2), 2, 5, CachePriority::Low);
        assert_eq!(c.get(&key(1)), None);
        assert_eq!(c.get(&key(2)), Some(2));
    }

    #[test]
    fn kind_tag_distinguishes_streams() {
        let c = single_shard(100, 0.5);
        let a = CacheKey {
            file: 1,
            offset: 0,
            kind: 0,
        };
        let b = CacheKey {
            file: 1,
            offset: 0,
            kind: 1,
        };
        c.insert(a, 1, 10, CachePriority::Low);
        c.insert(b, 2, 10, CachePriority::Low);
        assert_eq!(c.get(&a), Some(1));
        assert_eq!(c.get(&b), Some(2));
    }

    #[test]
    fn many_shards_distribute() {
        let c: LruCache<u64> = LruCache::new(16_000, 16, 0.5);
        for i in 0..1000 {
            c.insert(
                CacheKey {
                    file: i,
                    offset: i,
                    kind: 0,
                },
                i,
                16,
                CachePriority::Low,
            );
        }
        assert!(c.len() <= 1000);
        assert!(c.usage() <= 16_000);
        // Recently inserted keys should mostly be present.
        let hits = (900..1000)
            .filter(|&i| {
                c.get(&CacheKey {
                    file: i,
                    offset: i,
                    kind: 0,
                })
                .is_some()
            })
            .count();
        assert!(hits > 50, "expected most recent keys cached, got {hits}");
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = std::sync::Arc::new(LruCache::<u64>::with_capacity(64 * 1024));
        let mut handles = Vec::new();
        for t in 0..4 {
            let c2 = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    let k = CacheKey {
                        file: t,
                        offset: i % 100,
                        kind: 0,
                    };
                    c2.insert(k, i, 64, CachePriority::Low);
                    c2.get(&k);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.usage() <= 64 * 1024);
    }
}
