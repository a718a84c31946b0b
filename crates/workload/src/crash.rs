//! Crash-recovery property workload: seeded operation sequences with a
//! replayable model, for driving an engine under fault injection.
//!
//! The harness contract (used by `tests/integration_crash_recovery.rs`
//! in the workspace root):
//!
//! 1. [`gen_ops`] produces a deterministic op sequence from a seed.
//! 2. The test applies a prefix of it to a real engine over a
//!    `FaultEnv`, which crashes at an injected point.
//! 3. After reopening on the surviving bytes, the recovered key space
//!    must equal the model state after *some* prefix of the acknowledged
//!    ops ([`check_prefix_consistent`]) — no reordering, no partial
//!    batches — and that prefix must cover at least the durable floor
//!    ([`durable_floor`]): every synced write and everything older than
//!    the last completed flush must have survived.
//!
//! Values are a pure function of `(key, stamp)` ([`value_bytes`]), so
//! the model never stores payloads — only which `(key, stamp, len)` is
//! live — and a recovered value can be checked byte-for-byte.

use std::collections::BTreeMap;

/// One operation in a generated crash workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashOp {
    /// Insert or overwrite `key` with [`value_bytes`]`(key, stamp, len)`.
    Put {
        /// Key index (see [`key_bytes`]).
        key: u32,
        /// Version stamp mixed into the value payload.
        stamp: u64,
        /// Value payload length.
        len: usize,
        /// Fsync the WAL record before acknowledging.
        sync: bool,
    },
    /// Delete `key`.
    Delete {
        /// Key index (see [`key_bytes`]).
        key: u32,
        /// Fsync the WAL record before acknowledging.
        sync: bool,
    },
    /// Flush memtables — a durability point for everything before it.
    Flush,
    /// Run one GC pass (no logical state change; exercises the value
    /// store's crash surface).
    Gc,
    /// Atomically write all three keys (drawn from the dedicated
    /// [`txn_key_bytes`] space, which only this op touches) with the
    /// same stamp, through the engine's atomic-batch path with
    /// `sync = true`. On a sharded store the keys usually straddle
    /// shards, exercising the 2PC coordinator; recovery must surface
    /// the batch all-or-nothing ([`check_txn_atomic`]).
    TxnBatch {
        /// Three distinct key indices in the txn key space.
        keys: [u32; 3],
        /// Version stamp shared by every member (unique per op).
        stamp: u64,
        /// Value payload length for every member.
        len: usize,
    },
}

/// Size of the dedicated transactional key space ([`txn_key_bytes`]).
/// Small on purpose: batches overlap heavily, so partial application
/// would collide with concurrent history and be caught.
pub const TXN_KEY_SPACE: u32 = 12;

/// Key bytes for txn-batch key index `k` — a namespace disjoint from
/// [`key_bytes`], touched only by [`CrashOp::TxnBatch`].
pub fn txn_key_bytes(k: u32) -> Vec<u8> {
    format!("txn{k:04}").into_bytes()
}

/// The logical key space state: key bytes → expected value bytes.
pub type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// splitmix64 — the same tiny deterministic generator the fault env
/// uses; good enough statistical quality for workload shaping and has
/// no dependencies.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Key bytes for key index `k` (fixed-width, so scan order == index
/// order).
pub fn key_bytes(k: u32) -> Vec<u8> {
    format!("key{k:06}").into_bytes()
}

/// Deterministic value payload for `(key, stamp)`: `len` bytes whose
/// prefix encodes the pair (so mismatches identify themselves) and
/// whose tail is seeded pseudo-random filler.
pub fn value_bytes(key: u32, stamp: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&u64::from(key).to_le_bytes());
    v.extend_from_slice(&stamp.to_le_bytes());
    let mut rng = stamp ^ (u64::from(key) << 32) ^ 0x5eed_5eed_5eed_5eed;
    while v.len() < len {
        v.extend_from_slice(&splitmix64(&mut rng).to_le_bytes());
    }
    v.truncate(len);
    v
}

/// Generate a deterministic sequence of `n` operations over a key space
/// of `key_space` keys. The mix is write-heavy with occasional deletes,
/// flushes, and GC passes; value sizes straddle the KV-separation
/// threshold so both inline and separated paths are exercised; roughly
/// a third of the writes are synced.
pub fn gen_ops(seed: u64, n: usize, key_space: u32) -> Vec<CrashOp> {
    let mut rng = seed ^ 0xc4a5_4c4a_5c4a_54c4;
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let roll = splitmix64(&mut rng) % 100;
        let key = (splitmix64(&mut rng) % u64::from(key_space.max(1))) as u32;
        let sync = splitmix64(&mut rng).is_multiple_of(3);
        if roll < 62 {
            // Size classes: small (inline), medium, large (separated).
            let len = match splitmix64(&mut rng) % 3 {
                0 => 64 + (splitmix64(&mut rng) % 128) as usize,
                1 => 600 + (splitmix64(&mut rng) % 512) as usize,
                _ => 2048 + (splitmix64(&mut rng) % 2048) as usize,
            };
            ops.push(CrashOp::Put {
                key,
                stamp: (i as u64) << 20 | (seed & 0xf_ffff),
                len,
                sync,
            });
        } else if roll < 72 {
            // Three distinct keys from the (small) txn space — on a
            // 4-shard store they straddle shards more often than not.
            let a = (splitmix64(&mut rng) % u64::from(TXN_KEY_SPACE)) as u32;
            let mut b = (splitmix64(&mut rng) % u64::from(TXN_KEY_SPACE)) as u32;
            while b == a {
                b = (b + 1) % TXN_KEY_SPACE;
            }
            let mut c = (splitmix64(&mut rng) % u64::from(TXN_KEY_SPACE)) as u32;
            while c == a || c == b {
                c = (c + 1) % TXN_KEY_SPACE;
            }
            ops.push(CrashOp::TxnBatch {
                keys: [a, b, c],
                stamp: (i as u64) << 20 | (seed & 0xf_ffff),
                len: 64 + (splitmix64(&mut rng) % 700) as usize,
            });
        } else if roll < 85 {
            ops.push(CrashOp::Delete { key, sync });
        } else if roll < 95 {
            ops.push(CrashOp::Flush);
        } else {
            ops.push(CrashOp::Gc);
        }
    }
    ops
}

/// Replay `ops` into a fresh model and return the resulting state.
pub fn apply_ops(ops: &[CrashOp]) -> Model {
    let mut m = Model::new();
    apply_more(&mut m, ops);
    m
}

/// Replay `ops` on top of an existing model state.
pub fn apply_more(model: &mut Model, ops: &[CrashOp]) {
    for op in ops {
        match *op {
            CrashOp::Put {
                key, stamp, len, ..
            } => {
                model.insert(key_bytes(key), value_bytes(key, stamp, len));
            }
            CrashOp::Delete { key, .. } => {
                model.remove(&key_bytes(key));
            }
            CrashOp::Flush | CrashOp::Gc => {}
            CrashOp::TxnBatch { keys, stamp, len } => {
                for k in keys {
                    model.insert(txn_key_bytes(k), value_bytes(k, stamp, len));
                }
            }
        }
    }
}

/// The durable floor after the first `acked` ops were acknowledged
/// `Ok`: the smallest prefix length every correct recovery must cover.
/// A synced write makes the whole WAL prefix durable; a completed flush
/// makes everything before it durable. Unsynced writes after the last
/// such point may legally be lost.
pub fn durable_floor(ops: &[CrashOp], acked: usize) -> usize {
    let mut floor = 0;
    for (i, op) in ops.iter().take(acked).enumerate() {
        match op {
            CrashOp::Put { sync: true, .. } | CrashOp::Delete { sync: true, .. } => {
                floor = i + 1;
            }
            // Flush persists everything *before* it; the flush op
            // itself mutates nothing, so covering `i` is equivalent
            // and keeps the arithmetic uniform.
            CrashOp::Flush => floor = i + 1,
            // Txn batches are always applied with `sync = true`, so on
            // the single-WAL engines this floor is for an ack makes the
            // whole prefix durable like any synced write. (A sharded
            // store's 2PC batch is durable through the coordinator log
            // and syncs no shard WAL; its harness checks per key.)
            CrashOp::TxnBatch { .. } => floor = i + 1,
            _ => {}
        }
    }
    floor
}

/// Check that `recovered` equals the model after some prefix `k` of
/// `ops` with `floor <= k <= attempted` (prefix consistency: nothing
/// reordered, nothing below the durable floor lost, nothing beyond the
/// attempted ops invented). Returns the matching `k`, or a diagnostic
/// describing the closest mismatch.
pub fn check_prefix_consistent(
    recovered: &Model,
    ops: &[CrashOp],
    floor: usize,
    attempted: usize,
) -> Result<usize, String> {
    let attempted = attempted.min(ops.len());
    let mut model = apply_ops(&ops[..floor.min(attempted)]);
    if model == *recovered {
        return Ok(floor);
    }
    for k in floor..attempted {
        apply_more(&mut model, &ops[k..k + 1]);
        if model == *recovered {
            return Ok(k + 1);
        }
    }
    // No prefix matched — describe the divergence from the floor state
    // (the weakest state recovery was allowed to return).
    let model = apply_ops(&ops[..floor.min(attempted)]);
    let mut diffs = Vec::new();
    for (k, v) in recovered {
        match model.get(k) {
            None => diffs.push(format!("extra key {}", String::from_utf8_lossy(k))),
            Some(mv) if mv != v => diffs.push(format!(
                "key {} has {}B, floor model expects {}B",
                String::from_utf8_lossy(k),
                v.len(),
                mv.len()
            )),
            _ => {}
        }
    }
    for k in model.keys() {
        if !recovered.contains_key(k) {
            diffs.push(format!("missing key {}", String::from_utf8_lossy(k)));
        }
    }
    diffs.truncate(8);
    Err(format!(
        "no prefix in [{floor}, {attempted}] matches recovered state \
         ({} keys recovered, {} at floor): {}",
        recovered.len(),
        model.len(),
        diffs.join("; ")
    ))
}

/// Per-key crash consistency, for engines without one global WAL order
/// (a sharded store persists each shard's WAL independently, so the
/// recovered state need not be a prefix of the *global* op sequence).
///
/// For every key, its recovered value must equal the result of some
/// prefix of the ops *on that key*, and that prefix must cover every op
/// of the key that is guaranteed durable: a key's synced acknowledged
/// write (same key → same shard → same WAL, so earlier ops on the key
/// are below it in the log), any write older than the last acknowledged
/// flush (flush persists every shard), and nothing beyond `attempted`
/// may be visible. Weaker than [`check_prefix_consistent`] — use that
/// one for single-WAL engines.
pub fn check_per_key_consistent(
    recovered: &Model,
    ops: &[CrashOp],
    acked: usize,
    attempted: usize,
) -> Result<(), String> {
    let attempted = attempted.min(ops.len());
    let last_flush = ops
        .iter()
        .take(acked)
        .rposition(|o| matches!(o, CrashOp::Flush));
    // Gather, per key, the mutation subsequence within `attempted`.
    let mut per_key: BTreeMap<u32, Vec<(usize, CrashOp)>> = BTreeMap::new();
    for (i, op) in ops.iter().take(attempted).enumerate() {
        if let CrashOp::Put { key, .. } | CrashOp::Delete { key, .. } = *op {
            per_key.entry(key).or_default().push((i, *op));
        }
    }
    for (key, seq) in &per_key {
        let kb = key_bytes(*key);
        // Durable floor within this key's subsequence.
        let mut floor = 0;
        for (pos, (i, op)) in seq.iter().enumerate() {
            let synced = matches!(
                op,
                CrashOp::Put { sync: true, .. } | CrashOp::Delete { sync: true, .. }
            );
            if (synced && *i < acked) || last_flush.is_some_and(|f| *i < f) {
                floor = pos + 1;
            }
        }
        // Allowed values: the key's state after each prefix length in
        // [floor, seq.len()] (absent counts as a state).
        let got = recovered.get(&kb);
        let mut ok = false;
        for j in floor..=seq.len() {
            let state = match j.checked_sub(1).map(|p| &seq[p].1) {
                None => None,
                Some(CrashOp::Put {
                    key, stamp, len, ..
                }) => Some(value_bytes(*key, *stamp, *len)),
                Some(CrashOp::Delete { .. }) => None,
                Some(CrashOp::Flush | CrashOp::Gc | CrashOp::TxnBatch { .. }) => {
                    unreachable!("only per-key mutations collected")
                }
            };
            if got == state.as_ref() {
                ok = true;
                break;
            }
        }
        if !ok {
            return Err(format!(
                "key {} recovered to {} which matches no durable prefix \
                 (floor {floor} of {} ops on the key)",
                String::from_utf8_lossy(&kb),
                got.map_or("<absent>".into(), |v| format!("{}B", v.len())),
                seq.len()
            ));
        }
    }
    // No invented keys. Txn-space keys are validated (prefix, stamp,
    // atomicity) by [`check_txn_atomic`]; here just confirm membership.
    let txn_keys: std::collections::BTreeSet<u32> = ops
        .iter()
        .take(attempted)
        .filter_map(|o| match o {
            CrashOp::TxnBatch { keys, .. } => Some(keys),
            _ => None,
        })
        .flatten()
        .copied()
        .collect();
    for k in recovered.keys() {
        let s = std::str::from_utf8(k).unwrap_or("");
        let ok = if let Some(n) = s.strip_prefix("key") {
            n.parse::<u32>().is_ok_and(|n| per_key.contains_key(&n))
        } else if let Some(n) = s.strip_prefix("txn") {
            n.parse::<u32>().is_ok_and(|n| txn_keys.contains(&n))
        } else {
            false
        };
        if !ok {
            return Err(format!(
                "recovered key {} was never written",
                String::from_utf8_lossy(k)
            ));
        }
    }
    Ok(())
}

/// All-or-nothing oracle for [`CrashOp::TxnBatch`]: no recovered state
/// may reflect a *partial* batch, acked or not — that is the 2PC
/// coordinator's whole guarantee.
///
/// Each txn key's recovered value identifies (via its embedded stamp)
/// the last batch applied on it, and per-shard WAL recovery is
/// prefix-ordered per key, so batch `i` was applied on key `k` iff
/// `k`'s visible batch index is `>= i`. The oracle checks, for every
/// batch in `ops[..attempted]`:
///
/// * **atomicity** — all member keys agree on whether the batch
///   applied;
/// * **durability** — an acknowledged batch (index `< acked`; txn
///   batches are always synced) applied on *all* members;
/// * **honesty** — every recovered txn value byte-matches a batch that
///   actually wrote that key.
pub fn check_txn_atomic(
    recovered: &Model,
    ops: &[CrashOp],
    acked: usize,
    attempted: usize,
) -> Result<(), String> {
    let attempted = attempted.min(ops.len());
    // (global op index, keys, stamp, len) of every batch in scope.
    let batches: Vec<(usize, [u32; 3], u64, usize)> = ops
        .iter()
        .take(attempted)
        .enumerate()
        .filter_map(|(i, o)| match *o {
            CrashOp::TxnBatch { keys, stamp, len } => Some((i, keys, stamp, len)),
            _ => None,
        })
        .collect();
    // Visible batch position per txn key: index into `batches` of the
    // batch the key's recovered value came from.
    let mut visible: BTreeMap<u32, usize> = BTreeMap::new();
    for k in 0..TXN_KEY_SPACE {
        let Some(v) = recovered.get(&txn_key_bytes(k)) else {
            continue;
        };
        if v.len() < 16 {
            return Err(format!("txn key {k} recovered {}B, too short", v.len()));
        }
        let stamp = u64::from_le_bytes(v[8..16].try_into().unwrap());
        let pos = batches
            .iter()
            .position(|(_, keys, s, _)| *s == stamp && keys.contains(&k))
            .ok_or_else(|| {
                format!("txn key {k} recovered stamp {stamp:#x} from no batch writing it")
            })?;
        let (_, _, s, len) = batches[pos];
        if *v != value_bytes(k, s, len) {
            return Err(format!("txn key {k} value bytes mismatch stamp {stamp:#x}"));
        }
        visible.insert(k, pos);
    }
    for (pos, &(op_idx, keys, stamp, _)) in batches.iter().enumerate() {
        let applied: Vec<bool> = keys
            .iter()
            .map(|k| {
                visible.get(k).is_some_and(|&v| {
                    // Applied iff the key's visible batch is this one or
                    // a later batch also containing the key.
                    v >= pos && batches[v].1.contains(k)
                })
            })
            .collect();
        let n = applied.iter().filter(|a| **a).count();
        if n != 0 && n != keys.len() {
            return Err(format!(
                "batch op {op_idx} stamp {stamp:#x} partially applied: \
                 {n}/{} members visible (keys {keys:?})",
                keys.len()
            ));
        }
        if op_idx < acked && n != keys.len() {
            return Err(format!(
                "acked synced batch op {op_idx} stamp {stamp:#x} lost \
                 ({n}/{} members visible, keys {keys:?})",
                keys.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_ops_is_deterministic() {
        let a = gen_ops(42, 200, 32);
        let b = gen_ops(42, 200, 32);
        assert_eq!(a, b);
        let c = gen_ops(43, 200, 32);
        assert_ne!(a, c);
        assert!(a.iter().any(|o| matches!(o, CrashOp::Put { .. })));
        assert!(a.iter().any(|o| matches!(o, CrashOp::Flush)));
    }

    #[test]
    fn value_bytes_encode_identity() {
        let v = value_bytes(7, 99, 600);
        assert_eq!(v.len(), 600);
        assert_eq!(&v[..8], &7u64.to_le_bytes());
        assert_eq!(&v[8..16], &99u64.to_le_bytes());
        assert_eq!(v, value_bytes(7, 99, 600));
        assert_ne!(v, value_bytes(7, 100, 600));
    }

    #[test]
    fn durable_floor_advances_on_sync_and_flush() {
        let ops = vec![
            CrashOp::Put {
                key: 0,
                stamp: 1,
                len: 64,
                sync: false,
            },
            CrashOp::Put {
                key: 1,
                stamp: 2,
                len: 64,
                sync: true,
            },
            CrashOp::Put {
                key: 2,
                stamp: 3,
                len: 64,
                sync: false,
            },
            CrashOp::Flush,
            CrashOp::Put {
                key: 3,
                stamp: 4,
                len: 64,
                sync: false,
            },
        ];
        assert_eq!(durable_floor(&ops, 0), 0);
        assert_eq!(durable_floor(&ops, 1), 0); // unsynced: may be lost
        assert_eq!(durable_floor(&ops, 2), 2); // synced write
        assert_eq!(durable_floor(&ops, 3), 2);
        assert_eq!(durable_floor(&ops, 4), 4); // flush covers the tail
        assert_eq!(durable_floor(&ops, 5), 4);
    }

    #[test]
    fn prefix_check_accepts_any_prefix_at_or_above_floor() {
        let ops = gen_ops(7, 50, 8);
        let floor = durable_floor(&ops, 50);
        for k in [floor, (floor + 50) / 2, 50] {
            let state = apply_ops(&ops[..k]);
            let got = check_prefix_consistent(&state, &ops, floor, 50).unwrap();
            // The matching prefix need not be exactly k (adjacent ops can
            // be no-ops on the state), but replaying to it must reproduce
            // the state.
            assert_eq!(apply_ops(&ops[..got]), state);
        }
    }

    #[test]
    fn prefix_check_rejects_non_prefix_states() {
        let ops = gen_ops(9, 60, 8);
        let floor = durable_floor(&ops, 60);
        // A state with an invented key matches no prefix.
        let mut bogus = apply_ops(&ops[..30]);
        bogus.insert(b"zzz-not-a-key".to_vec(), vec![1, 2, 3]);
        let err = check_prefix_consistent(&bogus, &ops, floor, 60).unwrap_err();
        assert!(err.contains("no prefix"), "{err}");
    }

    #[test]
    fn per_key_check_allows_per_shard_divergence_but_not_lost_sync() {
        let ops = vec![
            // key 0: unsynced put — may be lost.
            CrashOp::Put {
                key: 0,
                stamp: 1,
                len: 64,
                sync: false,
            },
            // key 1: synced put — must survive.
            CrashOp::Put {
                key: 1,
                stamp: 2,
                len: 64,
                sync: true,
            },
        ];
        // Sharded recovery may keep the later synced write while losing
        // the earlier unsynced one (different shard WALs): fine per-key,
        // while the global prefix check would need key 0 present too.
        let mut partial = Model::new();
        partial.insert(key_bytes(1), value_bytes(1, 2, 64));
        check_per_key_consistent(&partial, &ops, 2, 2).unwrap();
        assert!(check_prefix_consistent(&partial, &ops, 0, 2).is_err());
        // Losing the synced write is a violation either way.
        let mut lost = Model::new();
        lost.insert(key_bytes(0), value_bytes(0, 1, 64));
        assert!(check_per_key_consistent(&lost, &ops, 2, 2).is_err());
        // A value that matches no stamp ever written is a violation.
        let mut bogus = Model::new();
        bogus.insert(key_bytes(1), vec![9; 64]);
        assert!(check_per_key_consistent(&bogus, &ops, 2, 2).is_err());
        // An invented key is a violation.
        let mut extra = partial.clone();
        extra.insert(b"stray".to_vec(), vec![1]);
        assert!(check_per_key_consistent(&extra, &ops, 2, 2).is_err());
    }

    #[test]
    fn prefix_check_rejects_states_below_the_floor() {
        // Build ops by hand: put k0 (synced), put k1 (synced). Floor = 2.
        let ops = vec![
            CrashOp::Put {
                key: 0,
                stamp: 1,
                len: 64,
                sync: true,
            },
            CrashOp::Put {
                key: 1,
                stamp: 2,
                len: 64,
                sync: true,
            },
        ];
        // Recovery that lost the second synced write is a violation.
        let lost = apply_ops(&ops[..1]);
        assert!(check_prefix_consistent(&lost, &ops, 2, 2).is_err());
        // With an honest floor of 1 it would be accepted.
        assert_eq!(check_prefix_consistent(&lost, &ops, 1, 2).unwrap(), 1);
    }
}
