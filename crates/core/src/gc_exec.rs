//! The pipelined GC executor: stage orchestration for a GC job.
//!
//! A GC job — either standalone scheme's — is the paper's four-step
//! pipeline (Fig. 8):
//!
//! | Fig. 8 | stage | infrastructure here |
//! |---|---|---|
//! | step ① **Read**      | load value-file keys (Lazy Read) or whole records | [`parallel_map_ordered`] fans every whole-file scan across the `gc_threads` pool |
//! | step ② **GC-Lookup** | validate every pending record against the index   | the *validate* stage of [`run_overlapped`] |
//! | step ③ **Fetch**     | read the surviving values                         | the *fetch* stage; per-file coalesced reads fan out via [`parallel_map_ordered`] |
//! | step ④ **Write**     | rewrite survivors, hot/cold routed                | the *write* stage; one [`RouteWriters::add`] per survivor |
//!
//! Two orthogonal levers are provided:
//!
//! * **Intra-stage parallelism** — [`parallel_map_ordered`] runs
//!   per-file I/O jobs across scoped worker threads and returns results
//!   in job order, so callers merge them deterministically regardless of
//!   thread scheduling. Used by the Fetch phase (step ③, one job per
//!   source value file), by every whole-file Read (step ①), and by
//!   [`Db`](crate::Db)'s fan-out of maintenance across its members.
//! * **Inter-stage overlap** — [`run_overlapped`] threads batches of
//!   [`PIPELINE_BATCH`] records through the ② → ③ → ④ stages over
//!   bounded channels, so batch *k+1* validates while batch *k* fetches
//!   and batch *k−1* writes. A job of one batch has nothing to overlap
//!   and runs the same stage closures inline on the caller's thread.
//!
//! Determinism rules the whole design: batches are contiguous ranges of
//! the pending set in the job's write order (sorted for keyed schemes;
//! for write-back, Titan's scan order, and only the survivors of a
//! validation that ran before the batches were cut), channels deliver
//! them in order, and
//! a single write stage consumes them in order, appending record by
//! record to the job's [`RouteWriters`] — so neither the batch size nor
//! thread scheduling can change the bytes of a value file, the file
//! numbers allocated, or the reported
//! [`GcOutcome`](crate::gc::GcOutcome) (asserted by
//! `tests/integration_gc_pipeline.rs` and the frozen bytes of
//! `tests/integration_value_files.rs`).
//!
//! [`RouteWriters`]: crate::vstore::route::RouteWriters
//! [`RouteWriters::add`]: crate::vstore::route::RouteWriters::add

use crate::stats::GcStats;
use scavenger_util::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};

/// Records per pipeline batch. Smaller batches overlap sooner but
/// amortize less of the per-batch sweep set-up; most jobs (≈158 records
/// on the `update_gc` benchmark) fit in one batch and run inline.
pub(crate) const PIPELINE_BATCH: usize = 1024;

/// Bounded depth of each inter-stage queue. Depth 1 would serialize
/// producer and consumer on every handoff; depth 2 absorbs one batch of
/// jitter per stage while keeping at most `3 stages + 2·2 queued` batches
/// of values in flight.
pub(crate) const PIPELINE_DEPTH: usize = 2;

/// Mark a stage execution as started; counts an overlap if any other
/// stage is currently mid-batch.
fn stage_enter(active: &AtomicU64, stats: &GcStats) {
    if active.fetch_add(1, Ordering::SeqCst) > 0 {
        stats.add(|g| g.pipeline_overlaps += 1);
    }
}

fn stage_exit(active: &AtomicU64) {
    active.fetch_sub(1, Ordering::SeqCst);
}

/// Hand `item` downstream, counting a backpressure event when the queue
/// is full. Returns `false` when the stage should stop producing (the
/// item was an error, or the consumer is gone).
fn feed<T>(tx: &SyncSender<Result<T>>, item: Result<T>, stats: &GcStats) -> bool {
    let keep_going = item.is_ok();
    match tx.try_send(item) {
        Ok(()) => keep_going,
        Err(TrySendError::Full(item)) => {
            stats.add(|g| g.pipeline_backpressure += 1);
            tx.send(item).is_ok() && keep_going
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
}

/// Run `inputs` through three stages — validate (②), fetch (③), write
/// (④) — overlapped on bounded channels: while batch *k* writes, batch
/// *k+1* fetches and batch *k+2* validates.
///
/// Ordering: each stage runs on one thread and channels are FIFO, so the
/// write stage consumes batches in input order — overlap changes
/// wall-clock, never output. The first stage error wins; downstream
/// stages forward it and skip their work, upstream stages stop producing.
///
/// With at most one input there is nothing to overlap: the stages run
/// inline on the caller's thread and the pipeline counters stay put.
pub(crate) fn run_overlapped<A, B, C, FV, FF, FW>(
    inputs: Vec<A>,
    validate: FV,
    fetch: FF,
    mut write: FW,
    stats: &GcStats,
) -> Result<()>
where
    A: Send,
    B: Send,
    C: Send,
    FV: Fn(A) -> Result<B> + Send,
    FF: Fn(B) -> Result<C> + Send,
    FW: FnMut(C) -> Result<()> + Send,
{
    if inputs.len() <= 1 {
        for input in inputs {
            write(fetch(validate(input)?)?)?;
        }
        return Ok(());
    }
    stats.add(|g| {
        g.pipeline_jobs += 1;
        g.pipeline_batches += inputs.len() as u64;
    });
    let active = AtomicU64::new(0);
    let mut first_err: Option<Error> = None;
    std::thread::scope(|scope| {
        let active = &active;
        let (tx_vf, rx_vf) = sync_channel::<Result<B>>(PIPELINE_DEPTH);
        let (tx_fw, rx_fw) = sync_channel::<Result<C>>(PIPELINE_DEPTH);
        scope.spawn(move || {
            for input in inputs {
                stage_enter(active, stats);
                let out = validate(input);
                stage_exit(active);
                if !feed(&tx_vf, out, stats) {
                    break;
                }
            }
        });
        scope.spawn(move || {
            for item in rx_vf {
                let out = match item {
                    Ok(batch) => {
                        stage_enter(active, stats);
                        let r = fetch(batch);
                        stage_exit(active);
                        r
                    }
                    Err(e) => Err(e),
                };
                if !feed(&tx_fw, out, stats) {
                    break;
                }
            }
        });
        // The write stage runs on the scope's own thread: it is the only
        // stateful stage (`FnMut`). On the first error — its own or one
        // forwarded from upstream — it breaks out, dropping the receiver;
        // upstream stages then stop at their next handoff (`feed` treats
        // a disconnected queue as "stop producing"), so no further
        // validation or fetch work runs on a failing job and nobody can
        // block on a full queue.
        for item in rx_fw {
            match item {
                Ok(batch) => {
                    stage_enter(active, stats);
                    let r = write(batch);
                    stage_exit(active);
                    if let Err(e) = r {
                        first_err = Some(e);
                        break;
                    }
                }
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
    });
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Scoped workers [`parallel_map_ordered`] spawns for `jobs` inputs on
/// `threads` threads: one per contiguous chunk, 1 when it runs inline.
pub(crate) fn workers(jobs: usize, threads: usize) -> usize {
    match threads.clamp(1, jobs.max(1)) {
        1 => 1,
        threads => jobs.div_ceil(jobs.div_ceil(threads)),
    }
}

/// Run one fallible job per input across up to `threads` scoped workers
/// — one contiguous chunk of inputs each — returning results **in input
/// order** (worker scheduling never leaks into the output); the first
/// error in input order wins. Falls back to an inline loop when
/// parallelism cannot help.
pub(crate) fn parallel_map_ordered<T, R, F>(jobs: &[T], threads: usize, f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R> + Sync,
{
    if workers(jobs.len(), threads) == 1 {
        return jobs.iter().map(&f).collect();
    }
    let chunk = jobs.len().div_ceil(threads);
    let worker_results: Vec<Result<Vec<R>>> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|range| scope.spawn(move || range.iter().map(f).collect::<Result<Vec<R>>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(Error::internal("fan-out worker panicked")))
            })
            .collect()
    });
    let mut out = Vec::with_capacity(jobs.len());
    for res in worker_results {
        out.extend(res?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapped_preserves_input_order() {
        let stats = GcStats::default();
        let inputs: Vec<u64> = (0..50).collect();
        let mut seen = Vec::new();
        run_overlapped(
            inputs,
            |x| Ok(x * 2),
            |x| Ok(x + 1),
            |x| {
                seen.push(x);
                Ok(())
            },
            &stats,
        )
        .unwrap();
        let expected: Vec<u64> = (0..50).map(|x| x * 2 + 1).collect();
        assert_eq!(seen, expected);
        assert_eq!(stats.snapshot().pipeline_jobs, 1);
        assert_eq!(stats.snapshot().pipeline_batches, 50);
    }

    #[test]
    fn single_batch_runs_inline() {
        let stats = GcStats::default();
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        run_overlapped(
            vec![7u64],
            |x| {
                assert_eq!(std::thread::current().id(), caller);
                Ok(x * 2)
            },
            |x| Ok(x + 1),
            |x| {
                seen.push(x);
                Ok(())
            },
            &stats,
        )
        .unwrap();
        assert_eq!(seen, [15]);
        assert_eq!(stats.snapshot().pipeline_jobs, 0);
        assert_eq!(stats.snapshot().pipeline_batches, 0);
    }

    #[test]
    fn overlapped_propagates_first_error_and_stops_writes() {
        let stats = GcStats::default();
        let inputs: Vec<u64> = (0..20).collect();
        let mut written = Vec::new();
        let err = run_overlapped(
            inputs,
            |x| {
                if x == 5 {
                    Err(Error::internal("validate boom"))
                } else {
                    Ok(x)
                }
            },
            Ok,
            |x| {
                written.push(x);
                Ok(())
            },
            &stats,
        )
        .unwrap_err();
        assert!(err.to_string().contains("validate boom"), "{err}");
        // Batches 0..5 may have flowed through before the error; nothing
        // at or after the failing batch is written.
        assert!(written.iter().all(|&x| x < 5), "{written:?}");
    }

    #[test]
    fn overlapped_write_error_does_not_deadlock() {
        let stats = GcStats::default();
        let inputs: Vec<u64> = (0..30).collect();
        let err = run_overlapped(
            inputs,
            Ok,
            Ok,
            |x| {
                if x == 2 {
                    Err(Error::internal("write boom"))
                } else {
                    Ok(())
                }
            },
            &stats,
        )
        .unwrap_err();
        assert!(err.to_string().contains("write boom"), "{err}");
    }

    #[test]
    fn parallel_map_matches_serial_order() {
        let jobs: Vec<u64> = (0..37).collect();
        let serial = parallel_map_ordered(&jobs, 1, |&x| Ok(x * 3)).unwrap();
        let parallel = parallel_map_ordered(&jobs, 4, |&x| Ok(x * 3)).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(workers(37, 4), 4);
        assert_eq!(workers(5, 4), 3, "chunks of two");
        assert_eq!(workers(1, 4), 1);
        assert_eq!(workers(0, 4), 1);
        assert_eq!(workers(9, 1), 1);
    }

    #[test]
    fn parallel_map_surfaces_errors() {
        let jobs: Vec<u64> = (0..16).collect();
        let err = parallel_map_ordered(&jobs, 4, |&x| {
            if x == 11 {
                Err(Error::internal("fetch boom"))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("fetch boom"), "{err}");
    }
}
