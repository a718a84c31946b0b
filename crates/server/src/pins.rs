//! Server-side snapshot pin table.
//!
//! Clients cannot hold RAII guards across a network boundary, so the
//! server holds them: `SnapOpen` stores the engine's snapshot in this
//! table and returns a numeric id; pinned `Get`/`Scan` requests name
//! the id; `SnapClose` drops the guard (releasing the engine's GC
//! read-point pin).
//!
//! A disconnected or crashed client must not pin the engine's oldest
//! read point forever — that would stall snapshot-gated GC. Every
//! entry therefore carries a TTL, refreshed on use, and expired
//! entries are swept on the next table access. Using an expired or
//! unknown id yields a typed `PIN_EXPIRED` wire error, never a stale
//! read.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct PinEntry<S> {
    snap: Arc<S>,
    deadline: Instant,
}

/// Table of live server-side snapshots, keyed by wire id.
///
/// Generic over the engine's snapshot type (whatever `Engine::Snap`
/// names), so the table never names the handle.
pub struct PinTable<S> {
    inner: Mutex<PinTableInner<S>>,
    ttl: Duration,
}

struct PinTableInner<S> {
    entries: HashMap<u64, PinEntry<S>>,
    next_id: u64,
}

impl<S> PinTable<S> {
    /// Create a table whose entries expire `ttl` after their last use.
    pub fn new(ttl: Duration) -> PinTable<S> {
        PinTable {
            inner: Mutex::new(PinTableInner {
                entries: HashMap::new(),
                next_id: 1,
            }),
            ttl,
        }
    }

    /// Store a snapshot; returns its wire id.
    pub fn open(&self, snap: S) -> u64 {
        let mut t = self.inner.lock();
        let now = Instant::now();
        Self::sweep_locked(&mut t, now);
        let id = t.next_id;
        t.next_id += 1;
        t.entries.insert(
            id,
            PinEntry {
                snap: Arc::new(snap),
                deadline: now + self.ttl,
            },
        );
        id
    }

    /// Look up a snapshot by id, refreshing its TTL. Returns `None`
    /// for unknown or expired ids. The returned `Arc` keeps the
    /// snapshot (and its GC pin) alive for the duration of the read
    /// even if the entry is closed or expires mid-request.
    pub fn get(&self, id: u64) -> Option<Arc<S>> {
        let mut t = self.inner.lock();
        let now = Instant::now();
        Self::sweep_locked(&mut t, now);
        let entry = t.entries.get_mut(&id)?;
        entry.deadline = now + self.ttl;
        Some(entry.snap.clone())
    }

    /// Drop a snapshot. Returns `false` if the id was unknown (already
    /// closed or expired).
    pub fn close(&self, id: u64) -> bool {
        let mut t = self.inner.lock();
        Self::sweep_locked(&mut t, Instant::now());
        t.entries.remove(&id).is_some()
    }

    /// Number of live (unexpired) pins.
    pub fn len(&self) -> usize {
        let mut t = self.inner.lock();
        Self::sweep_locked(&mut t, Instant::now());
        t.entries.len()
    }

    /// True when no pins are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every pin (shutdown path: release all GC read points
    /// before the final flush).
    pub fn clear(&self) {
        self.inner.lock().entries.clear();
    }

    fn sweep_locked(t: &mut PinTableInner<S>, now: Instant) {
        t.entries.retain(|_, e| e.deadline > now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_get_close_lifecycle() {
        let table: PinTable<&'static str> = PinTable::new(Duration::from_secs(60));
        let id = table.open("snap");
        assert_eq!(table.len(), 1);
        assert_eq!(*table.get(id).unwrap(), "snap");
        assert!(table.close(id));
        assert!(!table.close(id), "double close must report unknown id");
        assert!(table.get(id).is_none());
        assert!(table.is_empty());
    }

    #[test]
    fn ids_are_never_reused() {
        let table: PinTable<u32> = PinTable::new(Duration::from_secs(60));
        let a = table.open(1);
        table.close(a);
        let b = table.open(2);
        assert_ne!(a, b);
    }

    #[test]
    fn entries_expire_after_ttl() {
        let table: PinTable<u32> = PinTable::new(Duration::from_millis(20));
        let id = table.open(7);
        assert!(table.get(id).is_some());
        std::thread::sleep(Duration::from_millis(40));
        assert!(table.get(id).is_none(), "entry should have expired");
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn use_refreshes_ttl() {
        let table: PinTable<u32> = PinTable::new(Duration::from_millis(60));
        let id = table.open(7);
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(25));
            assert!(table.get(id).is_some(), "active pin must not expire");
        }
    }

    #[test]
    fn get_keeps_snapshot_alive_past_close() {
        let table: PinTable<String> = PinTable::new(Duration::from_secs(60));
        let id = table.open("held".to_string());
        let held = table.get(id).unwrap();
        table.close(id);
        // The Arc we took before close still works.
        assert_eq!(*held, "held");
    }
}
