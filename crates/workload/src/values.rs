//! Value-size generators (paper §IV-A) and deterministic value payloads.

use crate::dist::GenPareto;
use rand::Rng;

/// Value-size distribution.
#[derive(Debug, Clone, Copy)]
pub enum ValueGen {
    /// Every value is `len` bytes (Fixed-NK workloads).
    Fixed {
        /// Value length.
        len: usize,
    },
    /// The paper's Mixed workload: small values uniform in
    /// `[small_lo, small_hi]`, large values exactly `large`, with
    /// `small_parts : large_parts` mixing (Mixed-8K is 1:1 → mean ≈ 8 KB).
    Mixed {
        /// Smallest small value.
        small_lo: usize,
        /// Largest small value.
        small_hi: usize,
        /// Large value size.
        large: usize,
        /// Small parts per `small_parts + large_parts`.
        small_parts: u32,
        /// Large parts.
        large_parts: u32,
    },
    /// Generalized Pareto (Pareto-1K).
    Pareto(GenPareto),
}

impl ValueGen {
    /// Fixed-size values.
    pub fn fixed(len: usize) -> Self {
        ValueGen::Fixed { len }
    }

    /// The paper's Mixed-8K: 1:1 small (uniform 100–512 B) to large (16 KB).
    pub fn mixed_8k() -> Self {
        ValueGen::Mixed {
            small_lo: 100,
            small_hi: 512,
            large: 16 * 1024,
            small_parts: 1,
            large_parts: 1,
        }
    }

    /// Mixed with an explicit `small:large` ratio (paper Fig. 19b sweeps
    /// 1:9 … 9:1).
    pub fn mixed_ratio(small_parts: u32, large_parts: u32) -> Self {
        ValueGen::Mixed {
            small_lo: 100,
            small_hi: 512,
            large: 16 * 1024,
            small_parts,
            large_parts,
        }
    }

    /// The paper's Pareto-1K (≈1 KB mean).
    pub fn pareto_1k() -> Self {
        ValueGen::Pareto(GenPareto::with_mean(1024.0))
    }

    /// Draw a value size.
    pub fn next_size(&self, rng: &mut impl Rng) -> usize {
        match self {
            ValueGen::Fixed { len } => *len,
            ValueGen::Mixed {
                small_lo,
                small_hi,
                large,
                small_parts,
                large_parts,
            } => {
                let total = small_parts + large_parts;
                if rng.gen_range(0..total) < *small_parts {
                    rng.gen_range(*small_lo..=*small_hi)
                } else {
                    *large
                }
            }
            ValueGen::Pareto(p) => p.next(rng),
        }
    }

    /// Expected mean size (approximate; used for sizing datasets).
    pub fn mean_size(&self) -> f64 {
        match self {
            ValueGen::Fixed { len } => *len as f64,
            ValueGen::Mixed {
                small_lo,
                small_hi,
                large,
                small_parts,
                large_parts,
            } => {
                let small_mean = (*small_lo + *small_hi) as f64 / 2.0;
                let total = (*small_parts + *large_parts) as f64;
                (small_mean * *small_parts as f64 + *large as f64 * *large_parts as f64) / total
            }
            ValueGen::Pareto(_) => 1024.0,
        }
    }
}

/// Deterministic value payload for `(key_id, version)` of the given size —
/// verifiable without storing expected values.
pub fn make_value(key_id: u64, version: u64, size: usize) -> Vec<u8> {
    let mut v = vec![0u8; size.max(9)];
    v[0] = 0x5c;
    v[1..9].copy_from_slice(&(key_id ^ version.rotate_left(32)).to_le_bytes());
    let mut x = key_id.wrapping_mul(0x9e3779b97f4a7c15) ^ version;
    for b in v.iter_mut().skip(9) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = x as u8;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = ValueGen::fixed(4096);
        for _ in 0..100 {
            assert_eq!(g.next_size(&mut rng), 4096);
        }
        assert_eq!(g.mean_size(), 4096.0);
    }

    #[test]
    fn mixed_8k_mean_is_about_8k() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = ValueGen::mixed_8k();
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| g.next_size(&mut rng) as u64).sum();
        let mean = sum as f64 / n as f64;
        // (306 + 16384) / 2 ≈ 8345.
        assert!((mean - 8345.0).abs() < 200.0, "mean {mean}");
        assert!((g.mean_size() - 8345.0).abs() < 10.0);
    }

    #[test]
    fn mixed_sizes_come_from_both_classes() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = ValueGen::mixed_8k();
        let mut small = 0;
        let mut large = 0;
        for _ in 0..10_000 {
            let s = g.next_size(&mut rng);
            if s <= 512 {
                small += 1;
            } else {
                assert_eq!(s, 16 * 1024);
                large += 1;
            }
        }
        let ratio = small as f64 / large as f64;
        assert!((ratio - 1.0).abs() < 0.15, "ratio {ratio}");
    }

    #[test]
    fn mixed_ratio_9_1_is_mostly_small() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = ValueGen::mixed_ratio(9, 1);
        let small = (0..10_000).filter(|_| g.next_size(&mut rng) <= 512).count();
        assert!(small > 8_500, "small: {small}");
    }

    #[test]
    fn make_value_deterministic_and_distinct() {
        let a = make_value(5, 1, 4096);
        let b = make_value(5, 1, 4096);
        let c = make_value(5, 2, 4096);
        let d = make_value(6, 1, 4096);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.len(), 4096);
    }

    #[test]
    fn make_value_minimum_size() {
        assert_eq!(make_value(1, 1, 4).len(), 9, "clamped to header size");
    }
}
