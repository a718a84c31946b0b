//! `shards_txn` — where the 2PC cliff lives. An embedded `DbShards` with 4
//! shards and threaded background work; `clients()` threads each run OCC
//! "transfers": read two accounts, write both, `commit()` with the default
//! (sync) options, retrying on conflict. About 3 in 4 transfers touch two
//! shards and so take the two-phase commit of core `txn.rs`: a synced
//! coordinator record plus a forced-sync apply per shard. The read path, GC
//! and the server are idle. The conserved total balance is the atomicity
//! oracle.

use super::*;
use crate::gen::{mix64, Rng};
use scavenger::{Db, DbShards, ShardedOptions, Transactional};

pub const ACCOUNTS: u64 = 64 * 1024;
pub const ACCOUNT_LEN: usize = 1024;
pub const OPENING_BALANCE: u64 = 1000;
const SHARDS: usize = 4;
/// Transfers per thread per `--seconds`.
const NOMINAL_TRANSFERS_PER_THREAD_PER_S: f64 = 900.0;

pub fn account_key(id: u64) -> Vec<u8> {
    format!("acct-{id:019}").into_bytes()
}

/// id (8) + balance (8) + padding derived from the id, 1 KiB in all.
pub fn account_value(id: u64, balance: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(ACCOUNT_LEN);
    v.extend_from_slice(&id.to_le_bytes());
    v.extend_from_slice(&balance.to_le_bytes());
    let mut word = 0u64;
    while v.len() < ACCOUNT_LEN {
        v.extend_from_slice(&mix64(id ^ word.rotate_left(32)).to_le_bytes());
        word += 1;
    }
    v
}

/// The balance, if `value` is a well-formed record of account `id`.
pub fn balance_of(id: u64, value: &[u8]) -> Option<u64> {
    let balance = u64::from_le_bytes(value.get(8..16)?.try_into().ok()?);
    (value == account_value(id, balance).as_slice()).then_some(balance)
}

/// Move `amount` (or what is there) from `a` to `b` in one transaction,
/// retrying conflicts. Returns the commit latencies of every attempt's
/// final `commit()` and the number of retries, or the error.
pub fn transfer<E: Transactional>(
    db: &E,
    a: u64,
    b: u64,
    amount: u64,
) -> Result<(u64, u64), String> {
    let (ka, kb) = (account_key(a), account_key(b));
    let mut retries = 0;
    loop {
        let mut txn = db.begin();
        let mut read = |id: u64, key: &[u8]| -> Result<u64, String> {
            let v = txn
                .get(key)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("account {id} missing"))?;
            balance_of(id, &v).ok_or_else(|| format!("account {id} malformed"))
        };
        let (bal_a, bal_b) = (read(a, &ka)?, read(b, &kb)?);
        let moved = amount.min(bal_a);
        txn.put(&ka, account_value(a, bal_a - moved));
        txn.put(&kb, account_value(b, bal_b + moved));
        let t = Instant::now();
        match txn.commit() {
            Ok(_) => return Ok((t.elapsed().as_nanos() as u64, retries)),
            Err(e) if e.is_txn_conflict() => retries += 1,
            Err(e) => return Err(e.to_string()),
        }
    }
}

struct Store {
    stack: Stack,
    db: DbShards,
    user_bytes: u64,
}

impl AsRef<Stack> for Store {
    fn as_ref(&self) -> &Stack {
        &self.stack
    }
}

fn sharded_options(env: EnvRef, dataset: u64) -> ShardedOptions {
    let mut base = engine_options(env, "shards", dataset, block_cache_for(dataset));
    base.inline_background = false;
    ShardedOptions::builder(base.env.clone(), "shards", EngineMode::Scavenger)
        .base(base)
        .num_shards(SHARDS)
        .build()
}

fn build(p: &Params) -> Result<Store, String> {
    let stack = Stack::new(p.trace);
    let dataset = ACCOUNTS * user_bytes(ACCOUNT_LEN);
    let db =
        DbShards::open(sharded_options(stack.env.clone(), dataset)).map_err(|e| e.to_string())?;
    for id in load_order(ACCOUNTS, p.seed) {
        db.put_with(
            &nosync(),
            account_key(id),
            account_value(id, OPENING_BALANCE),
        )
        .map_err(|e| e.to_string())?;
    }
    db.flush().map_err(|e| e.to_string())?;
    Ok(Store {
        stack,
        db,
        user_bytes: dataset,
    })
}

struct ClientResult {
    log: measure::ClientLog,
    commit_ns: Vec<u64>,
    retries: u64,
}

/// Run `n` transfers per client on `db` from `n_clients` threads.
fn run_clients<E: Transactional + Sync>(
    db: &E,
    accounts: u64,
    p: &Params,
    n_clients: usize,
    n: u64,
    toggles: bool,
) -> Vec<ClientResult> {
    let phase_start = Instant::now();
    let client = move |index: usize| {
        let mut rng = Rng::new(p.seed, 20 + index as u64);
        let mut commit_ns = Vec::with_capacity(n as usize);
        let mut retries = 0;
        let log = measure::drive(phase_start, n, toggles && index == 0, |i, timer| {
            let a = rng.below(accounts);
            let b = (a + 1 + rng.below(accounts - 1)) % accounts;
            let amount = 1 + rng.below(10);
            let op_id = i * n_clients as u64 + index as u64;
            let (res, sample) =
                timer.time(op_id, "core", "transfer", 0, || transfer(db, a, b, amount));
            if let Ok((ns, r)) = &res {
                commit_ns.push(*ns);
                retries += r;
            }
            (sample, res.is_ok())
        });
        ClientResult {
            log,
            commit_ns,
            retries,
        }
    };
    on_client_threads(vec![(); n_clients], |index, ()| client(index))
}

/// Sum of all balances, or `None` if any account is missing or malformed.
fn total_balance(db: &DbShards) -> Option<u64> {
    (0..ACCOUNTS)
        .map(|id| balance_of(id, &db.get(account_key(id)).ok()??))
        .sum()
}

/// The same transfers on one `Db`: the floor a sharded commit is held to.
fn single_db_commit_p50_us(p: &Params, n_clients: usize) -> Result<f64, String> {
    const PROBE_ACCOUNTS: u64 = 1024;
    let stack = Stack::new(false);
    let dataset = PROBE_ACCOUNTS * user_bytes(ACCOUNT_LEN);
    let mut opts = engine_options(
        stack.env.clone(),
        "probe",
        dataset,
        block_cache_for(dataset),
    );
    opts.inline_background = false;
    let db = Db::open(opts).map_err(|e| e.to_string())?;
    for id in 0..PROBE_ACCOUNTS {
        db.put_with(
            &nosync(),
            account_key(id),
            account_value(id, OPENING_BALANCE),
        )
        .map_err(|e| e.to_string())?;
    }
    let results = run_clients(&db, PROBE_ACCOUNTS, p, n_clients, 1500, false);
    let mut commit_ns: Vec<u64> = results.into_iter().flat_map(|r| r.commit_ns).collect();
    commit_ns.sort_unstable();
    Ok(percentile_us(&commit_ns, 50.0))
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    run_on_store(p, || build(p), |store| measure(p, store))
}

fn measure(p: &Params, store: &Store) -> Result<Outcome, String> {
    let n_clients = clients();
    let Store {
        stack,
        db,
        user_bytes: loaded,
    } = store;
    let n = p.ops(NOMINAL_TRANSFERS_PER_THREAD_PER_S);

    let stats_before = db.stats();
    let before = stack.counters();
    let results = run_clients(db, ACCOUNTS, p, n_clients, n, p.trace);
    let after = stack.counters();
    let stats_after = db.stats();

    let retries: u64 = results.iter().map(|r| r.retries).sum();
    let mut commit_ns: Vec<u64> = results
        .iter()
        .flat_map(|r| r.commit_ns.iter().copied())
        .collect();
    commit_ns.sort_unstable();
    let phase = Phase::merge(results.into_iter().map(|r| r.log).collect());

    let mut out = Outcome::default();
    out.check("transfers", phase.ops(), phase.failed);
    let conserved = total_balance(db) == Some(ACCOUNTS * OPENING_BALANCE);
    out.check(
        "every account well-formed and the total balance conserved",
        ACCOUNTS,
        if conserved { 0 } else { ACCOUNTS },
    );
    let (acked, lost) = crash_audit::shards(p.seed)?;
    out.check(
        "acknowledged transfers all-or-nothing after a crash",
        acked,
        lost,
    );

    let m = &mut out.metrics;
    if p.trace {
        env_and_bench_layers(m, &phase, 0, &before, &after);
        engine_layers(m, &stats_before, &stats_after);
        let commits = stats_after.txn_commits - stats_before.txn_commits;
        let two_phase = stats_after.txn_2pc_commits - stats_before.txn_2pc_commits;
        m.set("core.txn.commit_p50_us", percentile_us(&commit_ns, 50.0));
        m.set(
            "core.txn.conflicts",
            (stats_after.txn_conflicts - stats_before.txn_conflicts) as f64,
        );
        m.set("core.txn.retries", retries as f64);
        m.set("core.2pc.commits", two_phase as f64);
        m.set("core.2pc.share", two_phase as f64 / commits.max(1) as f64);
        m.set(
            "core.2pc.syncs_per_commit",
            (after.total_syncs() - before.total_syncs()) as f64 / commits.max(1) as f64,
        );
        m.set(
            "core.txn.db_commit_p50_us",
            single_db_commit_p50_us(p, n_clients)?,
        );
        let mut put_ns = Vec::with_capacity(300);
        for i in 0..300u64 {
            let id = mix64(p.seed ^ i) % ACCOUNTS;
            let value = db
                .get(account_key(id))
                .map_err(|e| e.to_string())?
                .ok_or("account missing")?;
            let t = Instant::now();
            db.put(account_key(id), value).map_err(|e| e.to_string())?;
            put_ns.push(t.elapsed().as_nanos() as u64);
        }
        put_ns.sort_unstable();
        m.set("core.shards.put_p50_us", percentile_us(&put_ns, 50.0));
        write_trace_file("shards_txn")?;
    } else {
        // Each transfer rewrites two accounts.
        let written = loaded + phase.ops() * 2 * user_bytes(ACCOUNT_LEN);
        end_to_end(
            m,
            EndToEndInputs {
                phase: &phase,
                primary_kind: 0,
                before: &before,
                after: &after,
                disk_bytes: stack
                    .mem
                    .total_file_bytes("shards/")
                    .map_err(|e| e.to_string())?,
                logical_bytes: ACCOUNTS * user_bytes(ACCOUNT_LEN),
                user_bytes_written: written,
            },
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn account_records_round_trip_and_reject_damage() {
        let v = account_value(7, 1234);
        assert_eq!(v.len(), ACCOUNT_LEN);
        assert_eq!(balance_of(7, &v), Some(1234));
        assert_eq!(balance_of(8, &v), None);
        let mut bad = v.clone();
        bad[500] ^= 1;
        assert_eq!(balance_of(7, &bad), None);
        assert_eq!(balance_of(7, &v[..100]), None);
    }
}
