//! Token-bucket rate limiting.
//!
//! Two buckets gate every request: a **global** bucket shared by all
//! connections (protects the engine) and a **per-connection** bucket
//! (protects other clients from one noisy neighbour). A request must
//! take a token from both — the connection's first, the global one
//! second, so requests a connection sends over its own limit never
//! drain the global bucket; failing either returns a typed
//! `RATE_LIMITED` wire error immediately — the server never queues or
//! sleeps on behalf of a throttled client, so a throttled connection
//! cannot occupy a thread that compliant ones need.

use parking_lot::Mutex;
use std::time::Instant;

/// A classic token bucket: capacity `burst`, refilled at `rate` tokens
/// per second. Thread-safe; cheap enough to sit on every request.
pub struct TokenBucket {
    state: Mutex<BucketState>,
    rate: f64,
    burst: f64,
}

struct BucketState {
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// Create a bucket that admits `rate` requests/second sustained
    /// with bursts up to `burst`. A `rate` of `0.0` disables limiting
    /// (every [`try_take`](TokenBucket::try_take) succeeds).
    pub fn new(rate: f64, burst: f64) -> TokenBucket {
        TokenBucket {
            state: Mutex::new(BucketState {
                tokens: burst,
                last: Instant::now(),
            }),
            rate,
            burst,
        }
    }

    /// Unlimited bucket: never rejects.
    pub fn unlimited() -> TokenBucket {
        TokenBucket::new(0.0, 0.0)
    }

    /// Try to take one token. Returns `false` when the bucket is empty
    /// (the caller should reject with `RATE_LIMITED`).
    pub fn try_take(&self) -> bool {
        if self.rate <= 0.0 {
            return true;
        }
        let mut s = self.state.lock();
        let now = Instant::now();
        let elapsed = now.duration_since(s.last).as_secs_f64();
        s.last = now;
        s.tokens = (s.tokens + elapsed * self.rate).min(self.burst);
        if s.tokens >= 1.0 {
            s.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_reject() {
        // 1 req/s sustained, burst of 3: the first three calls drain
        // the burst, the fourth is rejected (no meaningful time has
        // passed to refill).
        let b = TokenBucket::new(1.0, 3.0);
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take());
    }

    #[test]
    fn refills_over_time() {
        let b = TokenBucket::new(1000.0, 1.0);
        assert!(b.try_take());
        assert!(!b.try_take());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(b.try_take(), "10ms at 1000/s should refill a token");
    }

    #[test]
    fn unlimited_never_rejects() {
        let b = TokenBucket::unlimited();
        for _ in 0..10_000 {
            assert!(b.try_take());
        }
    }

    #[test]
    fn tokens_cap_at_burst() {
        // After a long idle period the bucket must not have accumulated
        // more than `burst` tokens.
        let b = TokenBucket::new(1_000_000.0, 2.0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(b.try_take());
        assert!(b.try_take());
        // Allow at most a couple more from refill during the calls
        // themselves, then it must reject.
        let extra = (0..10).filter(|_| b.try_take()).count();
        assert!(extra < 10, "bucket failed to cap at burst");
    }
}
