//! **Fetch** — the batched half of value resolution, shared by GC step ③
//! (Lazy-Read handles of surviving records) and the scan iterator's
//! look-ahead (handles [`ValueStore::locate`](super::ValueStore::locate)
//! found). One place groups the wanted values per file, orders them by
//! offset and hands them to [`VReader::fetch`], whose single coalescing
//! loop turns neighbouring records into one I/O. Both callers read around
//! the block cache: only point reads cache values.

use super::vtable::{VReader, ValueAt};
use bytes::Bytes;
use scavenger_util::Result;

/// One value to fetch: the open reader of the file that holds it, where
/// in that file it sits, and the internal key its record must carry.
pub(crate) struct Want<'a> {
    /// File number (the grouping key).
    pub file: u64,
    /// The file's reader; the caller's read scope names the I/O class.
    pub reader: &'a VReader,
    /// Location inside the file.
    pub at: &'a ValueAt,
    /// Internal key of the record (only its user key for a blob record).
    pub ikey: &'a [u8],
}

/// Runs per-file fetch jobs `0..n` and returns their results in job
/// order: inline for a scan, fanned out over `gc_threads` for GC.
pub(crate) type MapFiles<'m> =
    &'m dyn Fn(usize, &(dyn Fn(usize) -> Result<Vec<Bytes>> + Sync)) -> Result<Vec<Vec<Bytes>>>;

/// Run the jobs one after another on the caller's thread.
pub(crate) fn inline(
    n: usize,
    run: &(dyn Fn(usize) -> Result<Vec<Bytes>> + Sync),
) -> Result<Vec<Vec<Bytes>>> {
    (0..n).map(run).collect()
}

/// Read every wanted value; results come back in `wants` order.
///
/// Wants are grouped per file in ascending file number, each group sorted
/// by offset (stable), and each group is one job: a single
/// [`VReader::fetch`] call. Job order and every job's read
/// sequence are a function of `wants` alone, so the I/O trace does not
/// depend on how `map_files` schedules them.
pub(crate) fn fetch(wants: &[Want<'_>], map_files: MapFiles<'_>) -> Result<Vec<Bytes>> {
    let mut order: Vec<usize> = (0..wants.len()).collect();
    order.sort_by_key(|&i| (wants[i].file, wants[i].at.offset()));
    let jobs: Vec<&[usize]> = order
        .chunk_by(|&a, &b| wants[a].file == wants[b].file)
        .collect();
    let run = |j: usize| {
        let job = jobs[j];
        let pairs: Vec<(&ValueAt, &[u8])> =
            job.iter().map(|&i| (wants[i].at, wants[i].ikey)).collect();
        wants[job[0]].reader.fetch(&pairs)
    };
    let fills = map_files(jobs.len(), &run)?;
    let mut out = vec![Bytes::new(); wants.len()];
    for (job, values) in jobs.iter().zip(fills) {
        for (&i, value) in job.iter().zip(values) {
            out[i] = value;
        }
    }
    Ok(out)
}
