//! Short, untimed acked-write audits for the two workloads that promise
//! durability (`sync = true`): run the same kind of traffic on
//! `FaultEnv::wrap(MemEnv)`, cut the power mid-run with `crash()` (unsynced
//! bytes are discarded, a torn tail may survive), reopen, and require every
//! acknowledged write to be readable — all-or-nothing per transfer. The
//! one op per client that was in flight at the crash may have landed or not.
//!
//! "In flight" includes an op whose reply arrives after the crash began:
//! `FaultEnv::crash()` called from another thread can fall between a
//! `sync()`'s fault check and its watermark update, and that sync then
//! reports success for bytes the crash discarded. [`PowerCut`] raises a
//! flag before it cuts, and a client that finds the flag up when its op
//! returns does not count the op as acknowledged.

use super::shards_txn::{account_key, account_value, balance_of, transfer, OPENING_BALANCE};
use super::*;
use crate::gen::{Rng, ValueSizes};
use scavenger::{Db, DbShards, ShardedOptions};
use scavenger_env::FaultEnv;
use scavenger_server::{Client, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const CLIENTS: usize = 2;
const KEYS_PER_CLIENT: u64 = 8;
/// Acknowledged writes to wait for before cutting the power.
const ACKS_BEFORE_CRASH: u64 = 200;

/// The acks counted so far and whether the power cut has begun.
#[derive(Default)]
struct PowerCut {
    acks: AtomicU64,
    begun: AtomicBool,
}

impl PowerCut {
    /// Called by a client when an op returned success. `false`: the cut had
    /// begun, the op counts as in flight and the client must stop.
    fn acknowledge(&self) -> bool {
        if self.begun.load(Ordering::SeqCst) {
            return false;
        }
        self.acks.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// Wait for `ACKS_BEFORE_CRASH` acks, then crash the env.
    fn cut_after_acks(&self, fault: &FaultEnv) {
        while self.acks.load(Ordering::SeqCst) < ACKS_BEFORE_CRASH {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        self.begun.store(true, Ordering::SeqCst);
        fault.crash();
    }
}

fn small_options(env: EnvRef, dir: &str) -> Options {
    engine_options(env, dir, 1 << 20, block_cache_for(1 << 20))
}

/// Sync puts over the wire. Returns `(acknowledged puts, keys lost)`.
pub fn wire(seed: u64) -> Result<(u64, u64), String> {
    let fault = FaultEnv::wrap(MemEnv::shared(), seed);
    let ds = DataSet {
        seed,
        sizes: ValueSizes::Fixed(1024),
    };
    let db = Db::open(small_options(fault.clone(), "audit")).map_err(|e| e.to_string())?;
    let server = Server::start(db.clone(), ServerConfig::default()).map_err(|e| e.to_string())?;
    let cut = PowerCut::default();

    // Per client: the last acknowledged version of each of its keys.
    let acked: Vec<Vec<u32>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (cut, addr, ds) = (&cut, server.addr(), &ds);
                s.spawn(move || {
                    let mut versions = vec![0u32; KEYS_PER_CLIENT as usize];
                    let Ok(mut conn) = Client::connect(addr) else {
                        return versions;
                    };
                    let mut rng = Rng::new(seed, 30 + c as u64);
                    loop {
                        let slot = rng.below(KEYS_PER_CLIENT) as usize;
                        let id = c as u64 * KEYS_PER_CLIENT + slot as u64;
                        let version = versions[slot] + 1;
                        match conn.put(&ds.key(id), &ds.value(id, version)) {
                            Ok(r) if r.synced && cut.acknowledge() => versions[slot] = version,
                            _ => return versions,
                        }
                    }
                })
            })
            .collect();
        cut.cut_after_acks(&fault);
        handles
            .into_iter()
            .map(|h| h.join().expect("audit client panicked"))
            .collect()
    });
    server.shutdown_and_wait();
    drop(db);

    fault.heal();
    let db = Db::open(small_options(fault.clone(), "audit"))
        .map_err(|e| format!("reopen after crash: {e}"))?;
    let mut lost = 0;
    for (c, versions) in acked.iter().enumerate() {
        for (slot, &v) in versions.iter().enumerate() {
            let id = c as u64 * KEYS_PER_CLIENT + slot as u64;
            let ok = match db.get(ds.key(id)) {
                Ok(Some(got)) => ds.check(id, v, &got) || ds.check(id, v + 1, &got),
                Ok(None) => v == 0,
                Err(_) => false,
            };
            lost += u64::from(!ok);
        }
    }
    Ok((cut.acks.load(Ordering::SeqCst), lost))
}

fn audit_shards(fault: &Arc<FaultEnv>) -> scavenger::Result<DbShards> {
    let base = small_options(fault.clone(), "audit");
    DbShards::open(
        ShardedOptions::builder(base.env.clone(), "audit", EngineMode::Scavenger)
            .base(base)
            .num_shards(4)
            .build(),
    )
}

/// What one transfer thread knows at the crash: its accounts' balances as
/// of its last acknowledged commit, and the transfer that was in flight.
struct Ledger {
    balances: Vec<u64>,
    in_flight: Option<(usize, usize, u64)>,
}

/// Cross-shard transfers. Returns `(acknowledged transfers, accounts whose
/// state is neither before nor after the in-flight transfer)`; a broken
/// total counts every account.
pub fn shards(seed: u64) -> Result<(u64, u64), String> {
    let fault = FaultEnv::wrap(MemEnv::shared(), seed);
    let db = audit_shards(&fault).map_err(|e| e.to_string())?;
    let accounts = CLIENTS as u64 * KEYS_PER_CLIENT;
    for id in 0..accounts {
        db.put(account_key(id), account_value(id, OPENING_BALANCE))
            .map_err(|e| e.to_string())?;
    }
    let cut = PowerCut::default();

    // Thread `c` owns accounts `c*K .. (c+1)*K`, so its ledger is exact.
    let ledgers: Vec<Ledger> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (cut, db) = (&cut, &db);
                s.spawn(move || {
                    let k = KEYS_PER_CLIENT;
                    let mut rng = Rng::new(seed, 40 + c as u64);
                    let mut ledger = Ledger {
                        balances: vec![OPENING_BALANCE; k as usize],
                        in_flight: None,
                    };
                    loop {
                        let a = rng.below(k) as usize;
                        let b = (a + 1 + rng.below(k - 1) as usize) % k as usize;
                        let amount = 1 + rng.below(10);
                        let moved = amount.min(ledger.balances[a]);
                        ledger.in_flight = Some((a, b, moved));
                        let base = c as u64 * k;
                        let done = transfer(db, base + a as u64, base + b as u64, amount);
                        if done.is_err() || !cut.acknowledge() {
                            return ledger;
                        }
                        ledger.balances[a] -= moved;
                        ledger.balances[b] += moved;
                    }
                })
            })
            .collect();
        cut.cut_after_acks(&fault);
        handles
            .into_iter()
            .map(|h| h.join().expect("audit client panicked"))
            .collect()
    });
    drop(db);

    fault.heal();
    let db = audit_shards(&fault).map_err(|e| format!("reopen after crash: {e}"))?;
    let mut wrong = 0;
    let mut total = 0;
    for (c, ledger) in ledgers.iter().enumerate() {
        let found: Vec<Option<u64>> = (0..KEYS_PER_CLIENT)
            .map(|i| {
                let id = c as u64 * KEYS_PER_CLIENT + i;
                db.get(account_key(id))
                    .ok()
                    .flatten()
                    .and_then(|v| balance_of(id, &v))
            })
            .collect();
        total += found.iter().flatten().sum::<u64>();
        let before: Vec<Option<u64>> = ledger.balances.iter().map(|&b| Some(b)).collect();
        let mut after = before.clone();
        if let Some((a, b, moved)) = ledger.in_flight {
            after[a] = Some(ledger.balances[a] - moved);
            after[b] = Some(ledger.balances[b] + moved);
        }
        if found != before && found != after {
            wrong += found.iter().zip(&before).filter(|(f, b)| f != b).count() as u64;
        }
    }
    if total != accounts * OPENING_BALANCE {
        wrong = accounts;
    }
    Ok((cut.acks.load(Ordering::SeqCst), wrong))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Several seeds, because what the audits can get wrong is a race
    /// with the cut, which one seed rarely hits.
    #[test]
    fn both_audits_pass_on_the_engine_as_it_is() {
        for seed in 0..25 {
            let (acked, lost) = wire(seed).unwrap();
            assert!(acked >= ACKS_BEFORE_CRASH);
            assert_eq!(lost, 0, "wire, seed {seed}");
            let (acked, wrong) = shards(seed).unwrap();
            assert!(acked >= ACKS_BEFORE_CRASH);
            assert_eq!(wrong, 0, "shards, seed {seed}");
        }
    }
}
