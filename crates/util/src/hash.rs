//! A cheap hasher for maps keyed by engine-internal integers.
//!
//! File numbers and block-cache keys are chosen by the engine, never by
//! a client, so the maps on the read path that are keyed by them (the
//! block cache's shards, the table cache, the value store's registries,
//! the inheritance forest) need no protection against crafted
//! collisions. [`IntHasher`] replaces SipHash there with one multiply
//! per word. Keep the standard hasher for keys that arrive from outside.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over the words written to it (the scheme of
/// rustc's `FxHasher`).
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

const SEED: u64 = 0xf135_7aea_2e62_a9c5;

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(SEED);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its best bits on top; hash tables index by
        // the low ones.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash(v: impl Hash) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    #[test]
    fn sequential_file_numbers_spread_over_buckets() {
        // The low bits pick the bucket: 1024 neighbours fill 1024 slots
        // nearly evenly.
        let mut buckets = [0u32; 1024];
        for n in 1..=1024u64 {
            buckets[(hash(n) % 1024) as usize] += 1;
        }
        assert!(buckets.iter().all(|&b| b <= 4), "{buckets:?}");
    }

    #[test]
    fn a_map_finds_what_it_holds() {
        let mut m: IntMap<(u64, u64, u8), u64> = IntMap::default();
        for i in 0..1000u64 {
            m.insert((i / 7, i * 4096, (i % 3) as u8), i);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i / 7, i * 4096, (i % 3) as u8)), Some(&i));
        }
        assert_eq!(m.get(&(0, 1, 0)), None);
    }
}
