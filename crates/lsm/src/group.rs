//! Group commit: the one leader/follower queue every log in the engine is
//! written through — the LSM's WAL, its MANIFEST and the shard set's
//! two-phase-commit coordinator log.
//!
//! A writer enqueues its entry; the first writer to find no leader active
//! becomes the **leader**. It drains the queue (its own entry included),
//! takes the log lock and hands every drained entry, in queue order, to one
//! [`GroupLeader::write`] call — the log-specific work: for the WAL each
//! member's precondition checked, one merged record, a sync if any member
//! asked and one memtable pass; for the MANIFEST each edit applied in
//! order, one record per edit and one sync; for the coordinator log every
//! prepare appended in order and one sync. It fills each member's result
//! slot, steps down and wakes everyone; a queued straggler leads the next
//! group. A writer that arrives while a group is syncing therefore waits
//! for that sync once and rides the next one.
//!
//! Failure is group-scoped and follows the fsyncgate rule: a failed write
//! fails every member of the group with the same error and **poisons** the
//! log. A torn append hides every later record from recovery, and after a
//! failed fsync the unsynced tail can never be trusted to reach disk, so a
//! poisoned log takes no more records and is never synced again: the next
//! group first has it [rotated](GroupLeader::rotate) to a fresh one. A
//! member whose receipt is itself a refusal — a transaction whose reads
//! went stale, an edit that does not apply — is that member's outcome, not
//! a group failure: the others are written and the log is not poisoned.

use parking_lot::{Condvar, Mutex, MutexGuard};
use scavenger_util::{Error, Result};
use std::sync::Arc;

/// A log and its poison flag, guarded by the group's log lock.
pub struct Logged<L> {
    /// The log's state.
    pub log: L,
    /// A group write on `log` failed: the next group rotates it first.
    pub poisoned: bool,
}

/// The log-specific half of a group commit, run by the leader with the
/// log lock held.
pub trait GroupLeader<L, E, R> {
    /// Replace a poisoned log with a fresh one before the next group is
    /// written. On failure that group fails with the error and the log
    /// stays poisoned.
    fn rotate(&self, log: &mut Logged<L>) -> Result<()>;

    /// Write one group: `entries` in queue order, returning one receipt
    /// per entry in the same order. An error fails every member and
    /// poisons the log.
    fn write(&self, log: &mut Logged<L>, entries: Vec<E>) -> Result<Vec<R>>;
}

impl<L> Logged<L> {
    /// Rotate the log first if an earlier group poisoned it.
    fn repair<E, R>(&mut self, leader: &impl GroupLeader<L, E, R>) -> Result<()> {
        if self.poisoned {
            leader.rotate(self)?;
            self.poisoned = false;
        }
        Ok(())
    }

    /// Write one group on the locked log under the poison rule: a
    /// poisoned log is rotated first, and a failed write poisons it.
    fn write_group<E, R>(
        &mut self,
        leader: &impl GroupLeader<L, E, R>,
        entries: Vec<E>,
    ) -> Result<Vec<R>> {
        self.repair(leader)?;
        let written = leader.write(self, entries);
        if written.is_err() {
            self.poisoned = true;
        }
        written
    }
}

/// Where the leader leaves one member's outcome.
type Slot<R> = Arc<Mutex<Option<Result<R>>>>;

struct Queue<E, R> {
    waiting: Vec<(E, Slot<R>)>,
    leader_active: bool,
}

/// The leader stepping down, on its way out of [`GroupCommit::commit`]
/// even if its group write panicked: then every member still waiting gets
/// an error rather than waiting on a leader that is gone, and the log,
/// which may hold part of the group, is poisoned.
struct StepDown<'a, L, E, R> {
    group: &'a GroupCommit<L, E, R>,
    slots: &'a [Slot<R>],
}

impl<L, E, R> Drop for StepDown<'_, L, E, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.group.log.lock().poisoned = true;
            for s in self.slots {
                s.lock()
                    .get_or_insert_with(|| Err(Error::internal("the group's leader panicked")));
            }
        }
        self.group.queue.lock().leader_active = false;
        self.group.wake.notify_all();
    }
}

/// A log of state `L` written through group commit: members bring
/// entries `E` and get receipts `R`.
pub struct GroupCommit<L, E, R> {
    queue: Mutex<Queue<E, R>>,
    /// Wakes queued members when a leader has filled their slot or stepped
    /// down.
    wake: Condvar,
    log: Mutex<Logged<L>>,
}

impl<L, E, R> GroupCommit<L, E, R> {
    /// A queue in front of `log`, which starts unpoisoned.
    pub fn new(log: L) -> Self {
        GroupCommit {
            queue: Mutex::new(Queue {
                waiting: Vec::new(),
                leader_active: false,
            }),
            wake: Condvar::new(),
            log: Mutex::new(Logged {
                log,
                poisoned: false,
            }),
        }
    }

    /// Lock the log for work outside the queue — reading its state, a
    /// rotation, a barrier. Waits for a leader that is writing a group.
    pub fn lock(&self) -> MutexGuard<'_, Logged<L>> {
        self.log.lock()
    }

    /// [`lock`](Self::lock) the log, rotating it first if a failed group
    /// poisoned it — what the next group would do before it writes.
    pub fn lock_repaired(
        &self,
        leader: &impl GroupLeader<L, E, R>,
    ) -> Result<MutexGuard<'_, Logged<L>>> {
        let mut log = self.log.lock();
        log.repair(leader)?;
        Ok(log)
    }

    /// Commit `entry` through the queue. Returns this member's receipt, or
    /// its group's error, and whether this caller led the group.
    pub fn commit(&self, entry: E, leader: &impl GroupLeader<L, E, R>) -> (Result<R>, bool) {
        let slot: Slot<R> = Arc::new(Mutex::new(None));
        let mut q = self.queue.lock();
        q.waiting.push((entry, slot.clone()));
        loop {
            if let Some(res) = slot.lock().take() {
                return (res, false);
            }
            if !q.leader_active {
                break;
            }
            self.wake.wait(&mut q);
        }
        q.leader_active = true;
        // Drained, not taken: the queue keeps its buffer for the next group.
        let (entries, slots): (Vec<E>, Vec<Slot<R>>) = q.waiting.drain(..).unzip();
        drop(q);

        let step_down = StepDown {
            group: self,
            slots: &slots,
        };
        let written = self.log.lock().write_group(leader, entries);
        match written {
            Ok(receipts) => {
                debug_assert_eq!(receipts.len(), slots.len(), "one receipt per entry");
                for (s, r) in slots.iter().zip(receipts) {
                    *s.lock() = Some(Ok(r));
                }
            }
            Err(e) => {
                for s in &slots {
                    *s.lock() = Some(Err(e.clone()));
                }
            }
        }
        drop(step_down);
        let res = slot
            .lock()
            .take()
            .expect("the leader's own entry is written with its group");
        (res, true)
    }

    /// Entries waiting for the next leader.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.queue.lock().waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_util::Error;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// What the test log saw: each group's entries, syncs, rotations.
    #[derive(Default)]
    struct Seen {
        groups: Vec<Vec<u32>>,
        syncs: usize,
        rotations: usize,
    }

    /// A leader whose sync parks on a gate while it is closed, and fails
    /// for group number `fail_group` (1-based).
    struct Gated {
        closed: Mutex<bool>,
        opened: Condvar,
        parked: AtomicBool,
        fail_group: Option<usize>,
    }

    impl Gated {
        fn new(fail_group: Option<usize>) -> Gated {
            Gated {
                closed: Mutex::new(true),
                opened: Condvar::new(),
                parked: AtomicBool::new(false),
                fail_group,
            }
        }

        fn open(&self) {
            *self.closed.lock() = false;
            self.opened.notify_all();
        }
    }

    impl GroupLeader<Seen, u32, u32> for Gated {
        fn rotate(&self, log: &mut Logged<Seen>) -> Result<()> {
            log.log.rotations += 1;
            Ok(())
        }

        fn write(&self, log: &mut Logged<Seen>, entries: Vec<u32>) -> Result<Vec<u32>> {
            log.log.groups.push(entries.clone());
            let mut closed = self.closed.lock();
            while *closed {
                self.parked.store(true, Ordering::SeqCst);
                self.opened.wait(&mut closed);
            }
            log.log.syncs += 1;
            if self.fail_group == Some(log.log.groups.len()) {
                return Err(Error::io("injected sync failure"));
            }
            Ok(entries)
        }
    }

    fn poll(done: impl Fn() -> bool) {
        while !done() {
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// The leader of group 1 parks in its sync; `followers` members queue
    /// behind it; then the gate opens. Returns each follower's outcome and
    /// whether it led.
    fn park_then_queue(
        group: &GroupCommit<Seen, u32, u32>,
        leader: &Gated,
        followers: u32,
    ) -> Vec<(u32, Result<u32>, bool)> {
        std::thread::scope(|s| {
            let first = s.spawn(|| group.commit(0, leader));
            poll(|| leader.parked.load(Ordering::SeqCst));
            let queued: Vec<_> = (1..=followers)
                .map(|i| s.spawn(move || (i, group.commit(i, leader))))
                .collect();
            poll(|| group.queued() == followers as usize);
            leader.open();
            let (res, led) = first.join().unwrap();
            assert!(led && res.is_ok());
            queued
                .into_iter()
                .map(|h| {
                    let (i, (res, led)) = h.join().unwrap();
                    (i, res, led)
                })
                .collect()
        })
    }

    #[test]
    fn members_queued_behind_a_sync_form_the_next_group_with_one_sync() {
        let group = GroupCommit::new(Seen::default());
        let leader = Gated::new(None);
        let out = park_then_queue(&group, &leader, 5);
        for (i, res, _) in &out {
            assert_eq!(res.as_ref().unwrap(), i, "each member gets its own receipt");
        }
        assert_eq!(out.iter().filter(|(_, _, led)| *led).count(), 1);
        let log = group.lock();
        assert_eq!(log.log.groups.len(), 2);
        assert_eq!(log.log.groups[0], [0]);
        let mut second = log.log.groups[1].clone();
        second.sort_unstable();
        assert_eq!(second, [1, 2, 3, 4, 5], "every queued member in one group");
        assert_eq!(log.log.syncs, 2, "one sync per group");
        assert!(!log.poisoned);
    }

    /// A leader that panics mid-group still steps down: its groupmates get
    /// an error instead of waiting forever, the log is poisoned, and the
    /// next group rotates it.
    #[test]
    fn a_leader_that_panics_steps_down_and_poisons_the_log() {
        struct Panics;
        impl GroupLeader<Seen, u32, u32> for Panics {
            fn rotate(&self, _: &mut Logged<Seen>) -> Result<()> {
                unreachable!("the log is not poisoned before the panic")
            }
            fn write(&self, _: &mut Logged<Seen>, _: Vec<u32>) -> Result<Vec<u32>> {
                panic!("leader bug");
            }
        }
        let group = &GroupCommit::new(Seen::default());
        let gated = &Gated::new(None);
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let first = s.spawn(|| group.commit(0, gated));
            poll(|| gated.parked.load(Ordering::SeqCst));
            let queued: Vec<_> = (1..=2)
                .map(|i| s.spawn(move || group.commit(i, &Panics)))
                .collect();
            poll(|| group.queued() == 2);
            gated.open();
            assert_eq!(first.join().unwrap().0.unwrap(), 0);
            queued.into_iter().map(|h| h.join()).collect()
        });
        assert_eq!(
            outcomes.iter().filter(|o| o.is_err()).count(),
            1,
            "one leader panicked"
        );
        let (res, led) = outcomes.into_iter().find_map(|o| o.ok()).unwrap();
        assert!(!led);
        assert!(res.unwrap_err().to_string().contains("panicked"));
        assert!(group.lock().poisoned);
        let (res, led) = group.commit(3, gated);
        assert!(led);
        assert_eq!(res.unwrap(), 3);
        assert_eq!(group.lock().log.rotations, 1);
    }

    #[test]
    fn a_failed_sync_fails_the_whole_group_and_the_next_group_rotates() {
        let group = GroupCommit::new(Seen::default());
        let leader = Gated::new(Some(2));
        let out = park_then_queue(&group, &leader, 4);
        let errors: Vec<String> = out
            .iter()
            .map(|(_, res, _)| res.as_ref().unwrap_err().to_string())
            .collect();
        assert!(errors
            .iter()
            .all(|e| *e == errors[0] && e.contains("injected")));
        {
            let log = group.lock();
            assert!(log.poisoned, "a failed sync poisons the log");
            assert_eq!(log.log.rotations, 0);
        }
        let (res, led) = group.commit(9, &leader);
        assert_eq!(res.unwrap(), 9);
        assert!(led);
        let log = group.lock();
        assert_eq!(log.log.rotations, 1, "rotated before the next group");
        assert!(!log.poisoned);
        assert_eq!(log.log.groups.last().unwrap(), &[9]);
    }
}
