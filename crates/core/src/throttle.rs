//! Space-aware throttling (paper §III-D).
//!
//! "As space nears full capacity, the strategy slows or halts foreground
//! writes, lowering the garbage ratio threshold for aggressive GC.
//! Foreground writing can resume after space reclamation."
//!
//! The policy lives here; [`Db`](crate::db::Db) consults it before every
//! write. When usage exceeds the limit, the engine runs aggressive
//! reclamation rounds: GC at a lowered threshold, plus *forced*
//! compactions to convert hidden garbage into exposed garbage when no GC
//! candidate exists yet.
//!
//! One `Throttle` is **shared across a store's members**: a sharded
//! [`Db`](crate::Db) opens every shard with the same
//! instance together with a usage source summing all shard footprints,
//! so the limit is one global budget and the counters aggregate
//! set-wide. A shard that finds the store over budget reclaims
//! *locally* until the global total is back under — each shard polices
//! its own garbage, but they answer to one quota.
//!
//! A caveat the stats gauges make visible: reclamation cannot drain past
//! the oldest registered read point
//! ([`DbStats::oldest_read_point`](crate::DbStats::oldest_read_point)) —
//! compaction preserves pinned versions and GC validates against them —
//! so a leaked view or snapshot eventually shows up here as activations
//! whose rounds end [`unresolved`](Throttle::unresolved).

use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum reclamation rounds per throttled write before giving up and
/// letting the write proceed (a full halt would deadlock a workload whose
/// live data simply exceeds the quota).
pub const MAX_THROTTLE_ROUNDS: usize = 12;

/// While throttling, the GC threshold is multiplied by this factor
/// (aggressive reclamation, §III-D).
pub const THROTTLE_GC_FACTOR: f64 = 0.25;

/// Space-limit policy + counters.
pub struct Throttle {
    limit: Option<u64>,
    /// Times the write path entered throttling.
    pub activations: AtomicU64,
    /// Aggressive GC rounds executed.
    pub gc_rounds: AtomicU64,
    /// Forced compactions executed to expose garbage.
    pub forced_compactions: AtomicU64,
    /// Rounds that ended with usage still above the limit.
    pub unresolved: AtomicU64,
}

impl Throttle {
    /// Create a policy; `limit = None` disables throttling.
    pub fn new(limit: Option<u64>) -> Self {
        Throttle {
            limit,
            activations: AtomicU64::new(0),
            gc_rounds: AtomicU64::new(0),
            forced_compactions: AtomicU64::new(0),
            unresolved: AtomicU64::new(0),
        }
    }

    /// The configured limit.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// True if `usage` exceeds the limit.
    pub fn over_limit(&self, usage: u64) -> bool {
        matches!(self.limit, Some(l) if usage > l)
    }

    /// The lowered GC threshold used while throttled.
    pub fn aggressive_threshold(base: f64) -> f64 {
        (base * THROTTLE_GC_FACTOR).max(0.01)
    }

    /// Record one throttle activation.
    pub fn note_activation(&self) {
        self.activations.fetch_add(1, Ordering::Relaxed);
    }

    /// Total activations so far.
    pub fn activation_count(&self) -> u64 {
        self.activations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_throttle_never_limits() {
        let t = Throttle::new(None);
        assert!(!t.over_limit(u64::MAX));
        assert_eq!(t.limit(), None);
    }

    #[test]
    fn over_limit_is_strict() {
        let t = Throttle::new(Some(1000));
        assert!(!t.over_limit(1000));
        assert!(t.over_limit(1001));
    }

    #[test]
    fn aggressive_threshold_scales_and_floors() {
        assert!((Throttle::aggressive_threshold(0.2) - 0.05).abs() < 1e-9);
        assert_eq!(Throttle::aggressive_threshold(0.0), 0.01);
    }

    #[test]
    fn counters_accumulate() {
        let t = Throttle::new(Some(10));
        t.note_activation();
        t.note_activation();
        assert_eq!(t.activation_count(), 2);
    }
}
