//! Bloom filter (LevelDB-style double hashing); every table builds its
//! filters at [`BLOOM_BITS_PER_KEY`](crate::BLOOM_BITS_PER_KEY).
//!
//! One filter per table (or per DTable stream) over *user keys*, so point
//! lookups and GC-Lookups can skip files — and, for the DTable, skip whole
//! entry streams — that cannot contain the key.

/// Murmur-inspired hash used by the bloom filter (LevelDB's `Hash`).
pub fn bloom_hash(data: &[u8]) -> u32 {
    const SEED: u32 = 0xbc9f1d34;
    const M: u32 = 0xc6a4a793;
    let mut h = SEED ^ (data.len() as u32).wrapping_mul(M);
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        let w = u32::from_le_bytes(c.try_into().unwrap());
        h = h.wrapping_add(w).wrapping_mul(M);
        h ^= h >> 16;
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut w = 0u32;
        for (i, &b) in rest.iter().enumerate() {
            w |= u32::from(b) << (8 * i);
        }
        h = h.wrapping_add(w).wrapping_mul(M);
        h ^= h >> 24;
    }
    h
}

/// Builds a bloom filter from a set of key hashes.
pub struct BloomBuilder {
    bits_per_key: usize,
    hashes: Vec<u32>,
}

impl BloomBuilder {
    /// `bits_per_key` controls the false-positive rate (10 ≈ 1%).
    pub fn new(bits_per_key: usize) -> Self {
        BloomBuilder {
            bits_per_key: bits_per_key.max(1),
            hashes: Vec::new(),
        }
    }

    /// Add a key.
    pub fn add_key(&mut self, key: &[u8]) {
        self.hashes.push(bloom_hash(key));
    }

    /// Number of keys added so far.
    pub fn num_keys(&self) -> usize {
        self.hashes.len()
    }

    /// Serialize the filter: bit array followed by a one-byte probe count.
    pub fn finish(&self) -> Vec<u8> {
        // k = bits_per_key * ln(2), clamped to [1, 30].
        let k = ((self.bits_per_key as f64 * 0.69) as usize).clamp(1, 30);
        let bits = (self.hashes.len() * self.bits_per_key).max(64);
        let bytes = bits.div_ceil(8);
        let bits = bytes * 8;
        let mut out = vec![0u8; bytes + 1];
        out[bytes] = k as u8;
        for &h in &self.hashes {
            let mut h = h;
            let delta = h.rotate_right(17);
            for _ in 0..k {
                let pos = (h as usize) % bits;
                out[pos / 8] |= 1 << (pos % 8);
                h = h.wrapping_add(delta);
            }
        }
        out
    }
}

/// Query interface over a serialized bloom filter.
pub struct BloomReader<'a> {
    data: &'a [u8],
}

impl<'a> BloomReader<'a> {
    /// Wrap serialized filter bytes.
    pub fn new(data: &'a [u8]) -> Self {
        BloomReader { data }
    }

    /// May the filter contain `key`? False means definitely absent.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hash(bloom_hash(key))
    }

    /// Same as [`may_contain`](Self::may_contain) given a precomputed hash.
    pub fn may_contain_hash(&self, mut h: u32) -> bool {
        if self.data.len() < 2 {
            return true; // degenerate filter: claim maybe
        }
        let bytes = self.data.len() - 1;
        let bits = bytes * 8;
        let k = self.data[bytes] as usize;
        if k > 30 {
            return true; // reserved for future encodings
        }
        let delta = h.rotate_right(17);
        for _ in 0..k {
            let pos = (h as usize) % bits;
            if self.data[pos / 8] & (1 << (pos % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    #[test]
    fn empty_filter_rejects_most_keys() {
        let b = BloomBuilder::new(10);
        let f = b.finish();
        let r = BloomReader::new(&f);
        let misses = (0..100).filter(|&i| !r.may_contain(&key(i))).count();
        assert!(misses > 90, "empty filter should reject nearly everything");
    }

    #[test]
    fn no_false_negatives() {
        for n in [1usize, 10, 100, 5000] {
            let mut b = BloomBuilder::new(10);
            for i in 0..n {
                b.add_key(&key(i as u64));
            }
            let f = b.finish();
            let r = BloomReader::new(&f);
            for i in 0..n {
                assert!(r.may_contain(&key(i as u64)), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        let n = 10_000u64;
        let mut b = BloomBuilder::new(10);
        for i in 0..n {
            b.add_key(&key(i));
        }
        let f = b.finish();
        let r = BloomReader::new(&f);
        let fps = (n..2 * n).filter(|&i| r.may_contain(&key(i))).count();
        let rate = fps as f64 / n as f64;
        assert!(rate < 0.03, "false positive rate {rate} too high");
    }

    #[test]
    fn fewer_bits_means_more_false_positives() {
        let n = 5_000u64;
        let rate_for = |bits: usize| {
            let mut b = BloomBuilder::new(bits);
            for i in 0..n {
                b.add_key(&key(i));
            }
            let f = b.finish();
            let r = BloomReader::new(&f);
            (n..2 * n).filter(|&i| r.may_contain(&key(i))).count() as f64 / n as f64
        };
        assert!(rate_for(4) > rate_for(12));
    }

    #[test]
    fn hash_distributes_distinct_keys() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            seen.insert(bloom_hash(&key(i)));
        }
        assert!(
            seen.len() > 995,
            "hash collisions too frequent: {}",
            seen.len()
        );
    }
}
