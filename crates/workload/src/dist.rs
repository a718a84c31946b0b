//! Key-choice distributions: uniform, (scrambled) Zipfian, latest.

use rand::Rng;

/// YCSB-style Zipfian generator over `[0, n)`.
///
/// Uses Gray et al.'s rejection-free inversion with precomputed
/// `zeta(n, theta)`. With `scrambled`, ranks are hashed so the hot items
/// spread over the keyspace (YCSB's `ScrambledZipfianGenerator`).
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    scrambled: bool,
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Direct sum for the sizes used in experiments (≤ a few million).
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

/// FNV-1a 64-bit, used to scramble ranks.
pub fn fnv1a(mut x: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for _ in 0..8 {
        h ^= x & 0xff;
        h = h.wrapping_mul(0x100000001b3);
        x >>= 8;
    }
    h
}

impl Zipfian {
    /// Create a generator over `[0, n)` with skew `theta` (0 < theta < 1;
    /// the paper sweeps 0.5–0.99).
    pub fn new(n: u64, theta: f64, scrambled: bool) -> Self {
        assert!(n > 0, "zipfian over empty domain");
        let theta = theta.clamp(0.01, 0.9999);
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            scrambled,
        }
    }

    /// Draw the next rank.
    pub fn next(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        let rank = rank.min(self.n - 1);
        if self.scrambled {
            fnv1a(rank) % self.n
        } else {
            rank
        }
    }
}

/// How operation keys are chosen.
pub enum KeyDist {
    /// Uniform over `[0, n)`.
    Uniform {
        /// Domain size.
        n: u64,
    },
    /// Zipfian (optionally scrambled).
    Zipfian(Zipfian),
    /// Skewed toward the most recently inserted keys (YCSB-D): the
    /// zipfian rank is measured back from the end of the key space.
    Latest {
        /// Underlying zipfian over recency ranks.
        zipf: Zipfian,
    },
}

impl KeyDist {
    /// Uniform over `n` keys.
    pub fn uniform(n: u64) -> Self {
        KeyDist::Uniform { n }
    }

    /// Scrambled zipfian over `n` keys.
    pub fn zipfian(n: u64, theta: f64) -> Self {
        KeyDist::Zipfian(Zipfian::new(n, theta, true))
    }

    /// Latest-skewed over `n` keys.
    pub fn latest(n: u64, theta: f64) -> Self {
        KeyDist::Latest {
            zipf: Zipfian::new(n, theta, false),
        }
    }

    /// Draw a key id given the current total number of keys `n_now`
    /// (needed by `Latest` as the keyspace grows).
    pub fn next(&self, rng: &mut impl Rng, n_now: u64) -> u64 {
        match self {
            KeyDist::Uniform { n } => rng.gen_range(0..(*n).min(n_now.max(1))),
            KeyDist::Zipfian(z) => z.next(rng) % n_now.max(1),
            KeyDist::Latest { zipf } => {
                let back = zipf.next(rng) % n_now.max(1);
                n_now.saturating_sub(1).saturating_sub(back)
            }
        }
    }
}

/// Generalized Pareto value-size sampler (paper §IV-A; Hosking & Wallis).
///
/// `X = mu + sigma * ((1-U)^(-xi) - 1) / xi`, clamped to `[min, max]`.
/// With shape `xi < 1`, the mean is `mu + sigma / (1 - xi)`.
#[derive(Debug, Clone, Copy)]
pub struct GenPareto {
    mu: f64,
    sigma: f64,
    xi: f64,
    min: usize,
    max: usize,
}

impl GenPareto {
    /// Construct with explicit parameters.
    pub fn new(mu: f64, sigma: f64, xi: f64, min: usize, max: usize) -> Self {
        GenPareto {
            mu,
            sigma,
            xi,
            min,
            max,
        }
    }

    /// A sampler with the requested mean (the paper's Pareto-1K uses mean
    /// ≈ 1024 B with a heavy tail).
    pub fn with_mean(mean: f64) -> Self {
        let xi = 0.2;
        let sigma = mean * (1.0 - xi);
        GenPareto::new(0.0, sigma, xi, 16, 64 * 1024)
    }

    /// Draw a value size.
    pub fn next(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen_range(0.0f64..1.0).min(0.999_999);
        let x = if self.xi.abs() < 1e-9 {
            self.mu - self.sigma * (1.0 - u).ln()
        } else {
            self.mu + self.sigma * ((1.0 - u).powf(-self.xi) - 1.0) / self.xi
        };
        (x.max(0.0) as usize).clamp(self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipfian_stays_in_range_and_is_skewed() {
        let mut rng = StdRng::seed_from_u64(7);
        let z = Zipfian::new(1000, 0.99, false);
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            let v = z.next(&mut rng);
            assert!(v < 1000);
            counts[v as usize] += 1;
        }
        // Rank 0 must dominate under high skew: P(rank 0) = 1/zeta(n)
        // which is ~12.8% for n=1000, theta=0.99.
        assert!(counts[0] > 10_000, "rank0: {}", counts[0]);
        assert!(counts[0] > counts[10] * 5);
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_ranks() {
        let mut rng = StdRng::seed_from_u64(7);
        let z = Zipfian::new(1000, 0.99, true);
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            counts[z.next(&mut rng) as usize] += 1;
        }
        // The hottest key is no longer id 0 (scrambling moved it).
        let hottest = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .unwrap()
            .0;
        assert_ne!(hottest, 0);
        let max = counts[hottest];
        assert!(max > 10_000, "still skewed: {max}");
    }

    #[test]
    fn lower_theta_is_less_skewed() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut hot_share = |theta: f64| {
            let z = Zipfian::new(1000, theta, false);
            let mut hot = 0u64;
            for _ in 0..50_000 {
                if z.next(&mut rng) < 10 {
                    hot += 1;
                }
            }
            hot
        };
        assert!(hot_share(0.99) > hot_share(0.5) + 5_000);
    }

    #[test]
    fn uniform_covers_domain() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = KeyDist::uniform(100);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            seen.insert(d.next(&mut rng, 100));
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn latest_prefers_recent_keys() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = KeyDist::latest(10_000, 0.99);
        let mut recent = 0;
        for _ in 0..10_000 {
            if d.next(&mut rng, 10_000) >= 9_900 {
                recent += 1;
            }
        }
        assert!(recent > 5_000, "recent hits: {recent}");
    }

    #[test]
    fn pareto_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = GenPareto::with_mean(1024.0);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| p.next(&mut rng) as u64).sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - 1024.0).abs() < 150.0,
            "mean {mean} should be near 1024"
        );
    }

    #[test]
    fn pareto_has_heavy_tail_but_clamps() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = GenPareto::with_mean(1024.0);
        let mut max = 0;
        for _ in 0..200_000 {
            max = max.max(p.next(&mut rng));
        }
        assert!(max > 8 * 1024, "tail reaches large values: {max}");
        assert!(max <= 64 * 1024);
    }

    #[test]
    fn fnv_is_deterministic_and_spreading() {
        assert_eq!(fnv1a(1), fnv1a(1));
        assert_ne!(fnv1a(1), fnv1a(2));
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(fnv1a(i) % 10_000);
        }
        assert!(seen.len() > 6_000, "spread: {}", seen.len());
    }
}
