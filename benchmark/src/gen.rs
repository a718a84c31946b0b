//! Seeded input generators. `--seed` is the only source of randomness in
//! the benchmark; the engine sees nothing but what these produce.
//!
//! A value is a function of `(seed, key id, version)` alone — its size
//! and every byte — so the oracle keeps one `u32` version per key and can
//! still check every byte a read returns.

/// Keys are 24 bytes, as in the paper (§IV-A).
pub const KEY_LEN: usize = 24;
/// Header every value starts with: key id (8) + version (4) + length (4).
pub const VALUE_HEADER: usize = 16;

/// splitmix64: one multiply-xorshift round per draw, full 64-bit period.
#[derive(Clone)]
pub struct Rng(u64);

pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// A stream for `(seed, stream)`: workloads give each phase and each
    /// client its own stream so adding a draw to one never shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix64(
            seed ^ mix64(stream.wrapping_add(0x9e37_79b9_7f4a_7c15)),
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias < 2^-40 for our `n`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Which key the next operation touches.
pub enum KeyDist {
    Uniform {
        n: u64,
    },
    /// YCSB's scrambled Zipfian (Gray et al. inversion): rank `r` is drawn
    /// with weight `1/(r+1)^theta`, then hashed over the key space so the
    /// hot keys are not neighbours.
    Zipf {
        n: u64,
        theta: f64,
        alpha: f64,
        zetan: f64,
        eta: f64,
        salt: u64,
    },
}

impl KeyDist {
    pub fn uniform(n: u64) -> KeyDist {
        KeyDist::Uniform { n }
    }

    /// `salt` comes from the seed, so two seeds have different hot keys.
    pub fn zipf(n: u64, theta: f64, salt: u64) -> KeyDist {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        KeyDist::Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
            salt,
        }
    }

    pub fn next(&self, rng: &mut Rng) -> u64 {
        match *self {
            KeyDist::Uniform { n } => rng.below(n),
            KeyDist::Zipf {
                n,
                theta,
                alpha,
                zetan,
                eta,
                salt,
            } => {
                let u = rng.unit();
                let uz = u * zetan;
                let rank = if uz < 1.0 {
                    0
                } else if uz < 1.0 + 0.5f64.powf(theta) {
                    1
                } else {
                    ((n as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64).min(n - 1)
                };
                mix64(rank ^ salt) % n
            }
        }
    }
}

/// Value-size distributions of the paper's §IV-A.
#[derive(Clone, Copy)]
pub enum ValueSizes {
    /// Every value the same size.
    Fixed(usize),
    /// Mixed-8K: half small (uniform 100–512 B, stay inline in the index),
    /// half 16 KiB (separated); mean ≈ 8.3 KiB.
    Mixed8K,
    /// Pareto-1K: generalized Pareto, shape 0.2, mean ≈ 1 KiB, clamped to
    /// [32 B, 64 KiB] — a mix of inline and separated values.
    Pareto1K,
}

impl ValueSizes {
    fn size(self, h: u64) -> usize {
        match self {
            ValueSizes::Fixed(n) => n,
            ValueSizes::Mixed8K => {
                if h & 1 == 0 {
                    100 + ((h >> 1) % 413) as usize
                } else {
                    16 * 1024
                }
            }
            ValueSizes::Pareto1K => {
                let u = ((h >> 11) as f64 / (1u64 << 53) as f64).min(0.999_999);
                let (sigma, xi) = (1024.0 * 0.8, 0.2);
                let x = sigma * ((1.0 - u).powf(-xi) - 1.0) / xi;
                (x as usize).clamp(32, 64 * 1024)
            }
        }
    }
}

/// The data of one run: key encoding plus the value function.
#[derive(Clone, Copy)]
pub struct DataSet {
    pub seed: u64,
    pub sizes: ValueSizes,
}

impl DataSet {
    /// `key<20-digit id>`: lexicographic order is id order, so a scan from
    /// key `i` returns ids `i, i+1, …`.
    pub fn key(&self, id: u64) -> [u8; KEY_LEN] {
        let mut k = *b"key-00000000000000000000";
        let mut x = id;
        for b in k.iter_mut().rev().take(20) {
            *b = b'0' + (x % 10) as u8;
            x /= 10;
        }
        k
    }

    pub fn value_len(&self, id: u64, version: u32) -> usize {
        let h = mix64(self.seed ^ mix64(id.wrapping_mul(0x100_0000_01b3) ^ version as u64));
        self.sizes.size(h).max(VALUE_HEADER)
    }

    /// Header, then a filler whose 8-byte words are a counter hashed with
    /// `(seed, id, version)` — no two values share a block worth of bytes.
    pub fn value(&self, id: u64, version: u32) -> Vec<u8> {
        let len = self.value_len(id, version);
        let mut v = Vec::with_capacity(len);
        v.extend_from_slice(&id.to_le_bytes());
        v.extend_from_slice(&version.to_le_bytes());
        v.extend_from_slice(&(len as u32).to_le_bytes());
        let base = mix64(self.seed ^ id.rotate_left(17) ^ ((version as u64) << 40));
        let mut i = 0u64;
        while v.len() + 8 <= len {
            v.extend_from_slice(
                &base
                    .wrapping_add(i)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .to_le_bytes(),
            );
            i += 1;
        }
        v.resize(len, base as u8);
        v
    }

    /// Is `got` exactly `value(id, version)`? The header and both ends are
    /// compared first, so a wrong version fails without regenerating.
    pub fn check(&self, id: u64, version: u32, got: &[u8]) -> bool {
        got.len() == self.value_len(id, version)
            && got[..8] == id.to_le_bytes()
            && got[8..12] == version.to_le_bytes()
            && got == self.value(id, version).as_slice()
    }

    /// Logical bytes of the live data: keys plus current values.
    pub fn logical_bytes(&self, versions: &[u32]) -> u64 {
        versions
            .iter()
            .enumerate()
            .map(|(id, &v)| (KEY_LEN + self.value_len(id as u64, v)) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over an op stream.
    struct Digest(u64);

    impl Digest {
        fn new() -> Digest {
            Digest(0xcbf2_9ce4_8422_2325)
        }

        fn feed(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
    }

    fn stream_digest(seed: u64) -> u64 {
        let ds = DataSet {
            seed,
            sizes: ValueSizes::Pareto1K,
        };
        let dist = KeyDist::zipf(5000, 0.9, mix64(seed));
        let mut rng = Rng::new(seed, 1);
        let mut d = Digest::new();
        for version in 1..=2000u32 {
            let id = dist.next(&mut rng);
            d.feed(&ds.key(id));
            d.feed(&ds.value(id, version));
        }
        d.0
    }

    #[test]
    fn one_seed_gives_a_byte_identical_op_stream_and_two_seeds_differ() {
        assert_eq!(stream_digest(7), stream_digest(7));
        assert_ne!(stream_digest(7), stream_digest(8));
    }

    #[test]
    fn keys_are_24_bytes_and_order_like_their_ids() {
        let ds = DataSet {
            seed: 1,
            sizes: ValueSizes::Fixed(64),
        };
        let ids = [0u64, 9, 10, 99, 100, 123_456_789_012, u64::MAX];
        for w in ids.windows(2) {
            assert_eq!(ds.key(w[0]).len(), KEY_LEN);
            assert!(ds.key(w[0]) < ds.key(w[1]));
        }
        assert_eq!(&ds.key(42), b"key-00000000000000000042");
    }

    #[test]
    fn check_accepts_only_the_exact_value() {
        let ds = DataSet {
            seed: 3,
            sizes: ValueSizes::Mixed8K,
        };
        let v = ds.value(4, 2);
        assert!(ds.check(4, 2, &v));
        assert!(!ds.check(4, 3, &v));
        assert!(!ds.check(5, 2, &v));
        let mut bad = v.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(!ds.check(4, 2, &bad));
        assert!(!ds.check(4, 2, &v[..v.len() - 1]));
    }

    #[test]
    fn size_distributions_have_the_stated_means() {
        for (sizes, lo, hi) in [
            (ValueSizes::Mixed8K, 8000.0, 8700.0),
            (ValueSizes::Pareto1K, 950.0, 1100.0),
        ] {
            let ds = DataSet { seed: 11, sizes };
            let n = 200_000u64;
            let mean = (0..n).map(|id| ds.value_len(id, 0) as f64).sum::<f64>() / n as f64;
            assert!(mean > lo && mean < hi, "mean {mean}");
        }
    }

    #[test]
    fn zipf_is_skewed_scrambled_and_in_range() {
        let n = 1000u64;
        let dist = KeyDist::zipf(n, 0.99, 42);
        let mut rng = Rng::new(1, 0);
        let mut hits = vec![0u32; n as usize];
        for _ in 0..100_000 {
            hits[dist.next(&mut rng) as usize] += 1;
        }
        let hottest = (0..n as usize).max_by_key(|&i| hits[i]).unwrap();
        assert!(hits[hottest] > 5_000, "rank 0 carries >5% at theta 0.99");
        assert_ne!(hottest, 0, "scrambling moves the hot key off id 0");
        let mut sorted = hits.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = sorted[..10].iter().sum();
        assert!(top10 > 30_000, "top 1% of keys draw >30% of accesses");
    }
}
