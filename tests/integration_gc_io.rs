//! Exact device I/O of a GC job, on `MemEnv`: one tail read per file
//! opened, survivors fetched in spans ([`GC_COALESCE`]) or whole files
//! walked in spans (`ReadaheadFile`), Lazy Read still paying only for
//! what lives — and the faults that can hide inside the bigger reads.
//!
//! Every count is asserted for `gc_threads` 1 and 4: the per-file fetch
//! jobs fan out over the pool, the I/O they issue must not depend on it.

use scavenger::gc::GC_THRESHOLD;
use scavenger::vstore::vtable::{vfile_path, VReader};
use scavenger::vstore::GC_COALESCE;
use scavenger::{Db, EngineMode, Env, Error, GcOutcome, IoClass, MemEnv, Options, VFormat};
use scavenger_env::io_stats::ClassSnapshot;
use scavenger_env::{EnvRef, FaultEnv, FaultOp, FaultRule};
use scavenger_table::handle::BlockHandle;
use scavenger_table::TAIL_PREFETCH;

const VLEN: usize = 16_000;

fn opts(env: EnvRef, mode: EngineMode, threads: usize) -> Options {
    let mut o = Options::new(env, "db", mode);
    o.memtable_size = 64 << 20; // flush only when asked
    o.vsst_target_size = 8 << 20; // one value file per flush
    o.auto_gc = false;
    o.gc_threads = threads;
    o
}

fn key(i: usize) -> String {
    format!("key{i:06}")
}

fn value(i: usize, stamp: u8) -> Vec<u8> {
    let mut v = vec![stamp; VLEN];
    v[..8].copy_from_slice(&(i as u64).to_le_bytes());
    v
}

/// `n` separated values in one value file, then a second version of
/// every key `dead` selects in another, merged so the first file's
/// garbage is exposed. Returns the first file's number.
fn load(db: &Db, n: usize, dead: impl Fn(usize) -> bool) -> u64 {
    for i in 0..n {
        db.put(key(i), value(i, 1)).unwrap();
    }
    db.flush().unwrap();
    let files = db.shard(0).value_store().live_file_numbers();
    assert_eq!(files.len(), 1, "one value file per flush");
    for i in (0..n).filter(|&i| dead(i)) {
        db.put(key(i), value(i, 2)).unwrap();
    }
    db.flush().unwrap();
    while db.shard(0).lsm().force_compact_once().unwrap() {}
    files[0]
}

fn check_values(db: &Db, n: usize, dead: impl Fn(usize) -> bool) {
    for i in 0..n {
        let stamp = if dead(i) { 2 } else { 1 };
        assert_eq!(db.get(key(i)).unwrap().unwrap(), value(i, stamp), "key {i}");
    }
}

/// Run one GC job; its outcome and the `GcRead` ops and bytes it cost.
fn gc_job(db: &Db, env: &MemEnv) -> (GcOutcome, ClassSnapshot) {
    let before = env.io_stats().snapshot();
    let outcome = db
        .shard(0)
        .run_gc_at(GC_THRESHOLD)
        .unwrap()
        .expect("a candidate");
    let d = env.io_stats().snapshot().delta(&before);
    (outcome, d.class(IoClass::GcRead))
}

/// The dense index of RTable `file`, the number of reads (= index
/// partitions) a reader without a block cache pays for it, and the bytes
/// opening the table and walking the index ask for.
fn dense_index(env: &EnvRef, file: u64) -> (Vec<(Vec<u8>, BlockHandle)>, u64, u64) {
    let reader =
        VReader::open(env, "db", file, VFormat::RTable, None, IoClass::FgValueRead).unwrap();
    let VReader::R(r) = &reader else {
        panic!("file {file} is not an RTable")
    };
    let before = env.io_stats().snapshot();
    let index = r.read_index().unwrap();
    let d = env.io_stats().snapshot().delta(&before);
    let c = d.class(IoClass::FgValueRead);
    assert_eq!(c.read_bytes, r.index_bytes().unwrap());
    assert!(r.open_bytes() > 48 && r.open_bytes() < TAIL_PREFETCH as u64);
    (index, c.read_ops, reader.lazy_index_bytes().unwrap())
}

/// How many index partitions of RTable `file` lie outside the last
/// [`TAIL_PREFETCH`] bytes — the ones Lazy Read still reads on its own:
/// opening the file's reader caches the rest out of its tail read.
fn partitions_outside_prefetch(env: &EnvRef, file: u64) -> u64 {
    let prefetch_start = env
        .file_size(&vfile_path("db", file, VFormat::RTable))
        .unwrap()
        .saturating_sub(TAIL_PREFETCH as u64);
    let reader =
        VReader::open(env, "db", file, VFormat::RTable, None, IoClass::FgValueRead).unwrap();
    let VReader::R(r) = &reader else {
        panic!("file {file} is not an RTable")
    };
    let partitions = r.partitions().unwrap();
    assert!(!partitions.is_empty());
    partitions
        .iter()
        .filter(|h| h.offset < prefetch_start)
        .count() as u64
}

/// A 2 MiB file with every other record live: each mode reads it in
/// device-sized ops — 1 tail read, the index partitions (Lazy Read
/// only), and one read per 256 KiB of file.
#[test]
fn half_live_file_is_read_in_spans_in_every_mode() {
    const N: usize = 128;
    let dead = |i: usize| i % 2 == 1;
    let mut outcomes = Vec::new();
    for mode in [EngineMode::Scavenger, EngineMode::Terark, EngineMode::Titan] {
        for threads in [1, 4] {
            let env = MemEnv::shared();
            let eref: EnvRef = env.clone();
            let db = Db::open(opts(eref.clone(), mode, threads)).unwrap();
            let file = load(&db, N, dead);
            let meta = db.shard(0).value_store().meta(file).unwrap();
            assert!(meta.size > 2_000_000 && meta.size < (2 << 20) + 65_536);
            let spans = meta.size.div_ceil(GC_COALESCE.max_span);
            let (partitions, index_bytes) = match mode {
                EngineMode::Scavenger => {
                    let (_, partitions, asked) = dense_index(&eref, file);
                    (partitions, asked)
                }
                _ => (0, 0),
            };

            let before = db.shard(0).value_store().live_file_numbers();
            let (outcome, io) = gc_job(&db, &env);
            assert_eq!(outcome.files_collected, 1, "{mode:?}");
            assert_eq!(outcome.records_rewritten, (N / 2) as u64, "{mode:?}");
            assert!(
                io.read_ops <= 1 + partitions + spans,
                "{mode:?}/{threads}: {} GcRead ops for 1 tail + {partitions} partitions + {spans} spans",
                io.read_ops
            );
            // What the job reports is what it needed, not what the
            // device moved: Lazy Read asked for the tail blocks, the
            // index and the live half, a full scan for the file.
            let live_bytes = (N / 2) as u64 * (VLEN as u64 + 30);
            match mode {
                EngineMode::Scavenger => {
                    assert!(outcome.bytes_read >= index_bytes + (N / 2 * VLEN) as u64);
                    assert!(outcome.bytes_read <= index_bytes + live_bytes);
                    assert!(io.read_bytes > outcome.bytes_read, "gaps ride along");
                }
                _ => {
                    assert_eq!(outcome.bytes_read, meta.size);
                    assert_eq!(io.read_bytes, meta.size, "every byte once");
                }
            }
            let written: u64 = db
                .shard(0)
                .value_store()
                .all_files()
                .iter()
                .filter(|m| !before.contains(&m.file))
                .map(|m| m.size)
                .sum();
            assert_eq!(outcome.bytes_written, written, "{mode:?}");
            check_values(&db, N, dead);
            outcomes.push((mode, outcome, io));
        }
    }
    // `gc_threads` changes neither the outcome nor the I/O.
    for pair in outcomes.chunks(2) {
        assert_eq!(pair[0], pair[1]);
    }
}

/// Lazy Read's point survives the coalescing: one live record of 100
/// costs the tail, the index and about that record — not the file.
#[test]
fn mostly_dead_file_costs_its_live_bytes() {
    const N: usize = 100;
    let dead = |i: usize| i != 40;
    for threads in [1, 4] {
        let env = MemEnv::shared();
        let eref: EnvRef = env.clone();
        let db = Db::open(opts(eref.clone(), EngineMode::Scavenger, threads)).unwrap();
        let file = load(&db, N, dead);
        let (index, partitions, index_bytes) = dense_index(&eref, file);
        let outside = partitions_outside_prefetch(&eref, file);
        assert!(outside < partitions, "the last partition rides in the tail");
        let record = index[40].1.size + 5;

        let (outcome, io) = gc_job(&db, &env);
        assert_eq!(outcome.records_rewritten, 1);
        assert_eq!(
            io.read_ops,
            1 + outside + 1,
            "tail, the index outside it, one record"
        );
        assert!(
            io.read_bytes < 2 * (TAIL_PREFETCH as u64 + index_bytes + record),
            "{} bytes read for one {record}-byte record",
            io.read_bytes
        );
        assert_eq!(outcome.bytes_read, index_bytes + record);
        check_values(&db, N, dead);
    }
}

/// A file whose whole dense index sits in its last [`TAIL_PREFETCH`]
/// bytes costs Lazy Read one tail read and its fetch spans: the open
/// caches every partition out of that read, checksummed, where a reader
/// without a cache reads each again. After a `get` opened the file it
/// costs the spans alone: a value file has one reader, and GC borrows
/// it. The job still reports the bytes it asked for.
#[test]
fn index_inside_the_tail_prefetch_costs_no_partition_read() {
    const N: usize = 20;
    // Two survivors more than `GC_COALESCE.max_gap` apart: two spans.
    let dead = |i: usize| i != 2 && i != 15;
    for (threads, get_first) in [(1, false), (4, false), (1, true), (4, true)] {
        let env = MemEnv::shared();
        let eref: EnvRef = env.clone();
        let db = Db::open(opts(eref.clone(), EngineMode::Scavenger, threads)).unwrap();
        let file = load(&db, N, dead);
        let (index, partitions, index_bytes) = dense_index(&eref, file);
        assert!(partitions >= 1, "a plain reader reads the index");
        assert_eq!(partitions_outside_prefetch(&eref, file), 0);
        let (a, b) = (index[2].1, index[15].1);
        assert!(b.offset - (a.offset + a.size + 5) > GC_COALESCE.max_gap);
        let before = env.io_stats().snapshot();
        if get_first {
            assert_eq!(db.get(key(2)).unwrap().unwrap(), value(2, 1));
        }
        let get = env.io_stats().snapshot().delta(&before);

        let (outcome, io) = gc_job(&db, &env);
        assert_eq!(outcome.records_rewritten, 2);
        let tail = u64::from(!get_first);
        assert_eq!(
            io.read_ops,
            tail + 2,
            "{threads}/{get_first}: tail, two spans"
        );
        assert_eq!(outcome.bytes_read, index_bytes + a.size + 5 + b.size + 5);
        // The get paid the tail, whose open cached the index, and the
        // record, all of it `FgValueRead`.
        let (fg, gc) = (get.class(IoClass::FgValueRead), get.class(IoClass::GcRead));
        assert_eq!((fg.read_ops, gc.read_ops), (2 - 2 * tail, 0));
        check_values(&db, N, dead);
    }
}

/// BlobDB relocation borrows the reader a `get` opened too: once gets
/// have opened every blob log, no relocation opens one again — every
/// open of those logs fails from then on, and compaction still relocates,
/// charging each record's exact read to `GcRead`.
#[test]
fn blobdb_relocation_borrows_the_reader_a_get_opened() {
    for threads in [1, 4] {
        let mem = MemEnv::shared();
        let fault = FaultEnv::wrap(mem.clone(), 7);
        let mut o = opts(fault.clone(), EngineMode::BlobDb, threads);
        o.memtable_size = 256 * 1024;
        o.base_level_bytes = 256 * 1024;
        let db = Db::open(o).unwrap();
        let round = |stamp: u8| {
            for i in (0..200).filter(|i| stamp == 0 || i % 3 != 0) {
                db.put(key(i), value(i, stamp)).unwrap();
            }
            db.flush().unwrap();
            db.compact_all().unwrap();
        };
        (0..3).for_each(round);
        for i in 0..200 {
            assert!(db.get(key(i)).unwrap().is_some());
        }
        for file in db.shard(0).value_store().live_file_numbers() {
            fault.add_rule(FaultRule {
                path_contains: Some(vfile_path("db", file, VFormat::BlobLog)),
                ..FaultRule::fail(FaultOp::Open)
            });
        }
        let before = mem.io_stats().snapshot().class(IoClass::GcRead);
        (3..6).for_each(round);
        let gc = mem.io_stats().snapshot().class(IoClass::GcRead);
        let (ops, bytes) = (
            gc.read_ops - before.read_ops,
            gc.read_bytes - before.read_bytes,
        );
        assert!(
            ops > 0,
            "{threads} threads: the rounds must relocate something"
        );
        assert_eq!(bytes, ops * (VLEN + 24) as u64);
        for i in 0..200 {
            let stamp = if i % 3 == 0 { 0 } else { 5 };
            assert_eq!(db.get(key(i)).unwrap().unwrap(), value(i, stamp), "key {i}");
        }
    }
}

/// BlobDB relocates inside compaction with one exact read per value's
/// whole record — the two length varints, the internal key, the value
/// and the CRC, so the decoder can check it: no tail (a blob log has
/// none), no read-ahead.
#[test]
fn blobdb_relocation_reads_exactly_the_values_it_moves() {
    let env = MemEnv::shared();
    let mut o = opts(env.clone(), EngineMode::BlobDb, 1);
    o.memtable_size = 256 * 1024;
    o.base_level_bytes = 256 * 1024;
    let db = Db::open(o).unwrap();
    for round in 0..6u8 {
        for i in 0..200 {
            if round == 0 || i % 3 != 0 {
                db.put(key(i), value(i, round)).unwrap();
            }
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
    }
    let gc = env.io_stats().snapshot().class(IoClass::GcRead);
    assert!(gc.read_ops > 0, "the workload must relocate something");
    // `key(i)` is 9 bytes: a 17-byte internal key (1-byte varint) and a
    // 16,000-byte value (2-byte varint).
    let record = 1 + 2 + (key(0).len() + 8) + VLEN + 4;
    assert_eq!(record, VLEN + 24);
    assert_eq!(gc.read_bytes, gc.read_ops * record as u64);
}

/// The records of `file` GC will keep (`live`) and drop, by offset.
fn record_offsets(env: &EnvRef, file: u64, dead: impl Fn(usize) -> bool) -> (Vec<u64>, Vec<u64>) {
    let (index, _, _) = dense_index(env, file);
    let mut live = Vec::new();
    let mut gone = Vec::new();
    for (i, (_, h)) in index.iter().enumerate() {
        if dead(i) {
            gone.push(h.offset);
        } else {
            live.push(h.offset);
        }
    }
    (live, gone)
}

/// A flipped byte in a dead record a span reads through is nobody's
/// business; one in a live record of the same span fails the job with
/// that record's checksum error, and nothing is written.
#[test]
fn corruption_in_a_span_is_charged_to_the_record_it_hits() {
    const N: usize = 64;
    let dead = |i: usize| i % 2 == 1;
    let env = MemEnv::shared();
    let eref: EnvRef = env.clone();
    let db = Db::open(opts(eref.clone(), EngineMode::Scavenger, 1)).unwrap();
    let file = load(&db, N, dead);
    let path = vfile_path("db", file, VFormat::RTable);
    let (live, gone) = record_offsets(&eref, file, dead);

    // Record 3 is dead and sits between live 2 and live 4.
    env.corrupt_byte(&path, gone[1] + 100).unwrap();
    let files_before = db.shard(0).value_store().live_file_numbers();
    // Record 4 rides in the same span, right after that gap.
    env.corrupt_byte(&path, live[2] + 100).unwrap();
    let err = db.run_gc().unwrap_err();
    let at = format!("block checksum mismatch at offset {}", live[2]);
    assert!(
        matches!(&err, Error::Corruption(m) if *m == at),
        "expected {at:?}, got {err}"
    );
    assert_eq!(db.shard(0).value_store().live_file_numbers(), files_before);

    // Heal the live record (the flip is its own inverse): the job now
    // goes through, dead gap still corrupt.
    env.corrupt_byte(&path, live[2] + 100).unwrap();
    let (outcome, _) = gc_job(&db, &env);
    assert_eq!(outcome.records_rewritten, (N / 2) as u64);
    check_values(&db, N, dead);
}

/// The whole-file walkers verify every record they hand on, out of the
/// read-ahead buffer as out of a 4 KiB chunk.
#[test]
fn corruption_inside_a_scanned_span_fails_the_scan() {
    for mode in [EngineMode::Terark, EngineMode::Titan] {
        let env = MemEnv::shared();
        let db = Db::open(opts(env.clone(), mode, 1)).unwrap();
        let file = load(&db, 64, |i| i % 2 == 1);
        let format = db.shard(0).value_store().meta(file).unwrap().format;
        env.corrupt_byte(&vfile_path("db", file, format), 300_000)
            .unwrap();
        let err = db.run_gc().unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{mode:?}: {err}");
    }
}

/// Same workload, same bytes: what GC leaves behind — and what it read
/// to get there — does not depend on how the fetch jobs were scheduled
/// (the frozen fixture of `integration_value_files.rs` holds the output
/// bytes themselves).
#[test]
fn outcomes_and_io_do_not_depend_on_gc_threads() {
    const N: usize = 300;
    let dead = |i: usize| !i.is_multiple_of(3);
    let run = |threads: usize| {
        let env = MemEnv::shared();
        let mut o = opts(env.clone(), EngineMode::Scavenger, threads);
        o.vsst_target_size = 256 * 1024;
        o.gc_batch_files = 8;
        let db = Db::open(o).unwrap();
        for i in 0..N {
            db.put(key(i), value(i, 1)).unwrap();
        }
        db.flush().unwrap();
        for i in (0..N).filter(|&i| dead(i)) {
            db.put(key(i), value(i, 2)).unwrap();
        }
        db.flush().unwrap();
        while db.shard(0).lsm().force_compact_once().unwrap() {}
        let mut outcomes = Vec::new();
        while let Some(o) = db.shard(0).run_gc_at(GC_THRESHOLD).unwrap() {
            outcomes.push(o);
        }
        check_values(&db, N, dead);
        let files: Vec<(u64, u64, u64)> = db
            .shard(0)
            .value_store()
            .all_files()
            .iter()
            .map(|m| (m.file, m.entries, m.size))
            .collect();
        let io = env.io_stats().snapshot().class(IoClass::GcRead);
        (outcomes, files, io)
    };
    let serial = run(1);
    assert!(serial.0.len() >= 2, "several jobs of several files each");
    assert_eq!(serial, run(4));
}
