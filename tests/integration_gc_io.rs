//! Exact device I/O of a GC job, on `MemEnv`: no tail read for a file
//! this store wrote (its reader was born with it) and one per file opened
//! from disk, survivors fetched in spans ([`READ_SIZE`]) or whole files
//! walked in spans (`ReadaheadFile`), Lazy Read still paying only for
//! what lives — and the faults that can hide inside the bigger reads.
//!
//! Every count is asserted for `gc_threads` 1 and 4: the per-file fetch
//! jobs fan out over the pool, the I/O they issue must not depend on it.

use scavenger::gc::GC_THRESHOLD;
use scavenger::vstore::vtable::{parse_record_key, vfile_path, VReader};
use scavenger::{Db, EngineMode, Env, Error, GcOutcome, IoClass, MemEnv, Options, VFormat};
use scavenger_env::io_stats::ClassSnapshot;
use scavenger_env::{EnvRef, FaultEnv, FaultOp, FaultRule, READ_SIZE};
use scavenger_table::btable::KTable;
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

/// The dense index of RTable `file`, its number of index partitions, and
/// the bytes opening the table and walking the index ask for. A reader
/// opened without a block cache reads exactly the partitions outside its
/// tail: it pins the others out of its tail read.
fn dense_index(env: &EnvRef, file: u64) -> (Vec<(Vec<u8>, BlockHandle)>, u64, u64) {
    let reader = VReader::open(
        env,
        "db",
        file,
        VFormat::RTable,
        None,
        None,
        IoClass::FgValueRead,
    )
    .unwrap();
    let VReader::R(r) = &reader else {
        panic!("file {file} is not an RTable")
    };
    let before = env.io_stats().snapshot();
    let index = r.read_index().unwrap();
    let d = env.io_stats().snapshot().delta(&before);
    let c = d.class(IoClass::FgValueRead);
    assert_eq!(c.read_ops, partitions_outside_prefetch(env, file));
    assert!(c.read_bytes <= r.index_bytes());
    assert!(r.open_bytes() > 48 && r.open_bytes() < TAIL_PREFETCH as u64);
    let partitions = r.partitions().len() as u64;
    (index, partitions, reader.lazy_index_bytes().unwrap())
}

/// How many index partitions of RTable `file` lie outside the last
/// [`TAIL_PREFETCH`] bytes — the ones a reader opened from disk reads on
/// their first use: it holds the rest from its tail read, and a reader
/// born with the file holds them all.
fn partitions_outside_prefetch(env: &EnvRef, file: u64) -> u64 {
    let prefetch_start = env
        .file_size(&vfile_path("db", file, VFormat::RTable))
        .unwrap()
        .saturating_sub(TAIL_PREFETCH as u64);
    let reader = VReader::open(
        env,
        "db",
        file,
        VFormat::RTable,
        None,
        None,
        IoClass::FgValueRead,
    )
    .unwrap();
    let VReader::R(r) = &reader else {
        panic!("file {file} is not an RTable")
    };
    let partitions = r.partitions();
    assert!(!partitions.is_empty());
    partitions
        .iter()
        .filter(|h| h.offset < prefetch_start)
        .count() as u64
}

/// A 2 MiB file with every other record live is one [`READ_SIZE`] span,
/// so each mode reads it in exactly one op: Lazy Read's survivors sit a
/// record apart, well inside the gap, and its reader was born with the
/// file and holds its whole index; a whole-file walk's one tail read is
/// the whole file.
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
            assert!(meta.size <= READ_SIZE.max_span);
            let index_bytes = match mode {
                EngineMode::Scavenger => {
                    assert!(partitions_outside_prefetch(&eref, file) > 0);
                    dense_index(&eref, file).2
                }
                _ => 0,
            };

            let before = db.shard(0).value_store().live_file_numbers();
            let (outcome, io) = gc_job(&db, &env);
            assert_eq!(outcome.files_collected, 1, "{mode:?}");
            assert_eq!(outcome.records_rewritten, (N / 2) as u64, "{mode:?}");
            assert_eq!(io.read_ops, 1, "{mode:?}/{threads}: one span");
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
/// costs the index outside the tail and about that record — not the
/// file, and no tail read: the file's reader was born with it.
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
            outside + 1,
            "the index outside the tail, one record"
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

/// The `FgIndexRead` and `GcRead` traffic of the first GC read of a
/// value file of 400 records, one of them live: a dry-run GC-Lookup right
/// after the flush that wrote it (`dry`), or the job that collects it
/// once a second flush and a compaction exposed its garbage — on the
/// store that wrote the files, or after a reopen. Also returns how many
/// key SSTs the GC-Lookup sweeps, how many KF blocks they hold, and how
/// many of the value file's index partitions lie outside its tail.
fn first_gc_reads(
    threads: usize,
    dry: bool,
    reopen: bool,
) -> (ClassSnapshot, ClassSnapshot, u64, u64, u64) {
    const N: usize = 400;
    let dead = |i: usize| i != 40;
    let env = MemEnv::shared();
    let eref: EnvRef = env.clone();
    let o = opts(eref.clone(), EngineMode::Scavenger, threads);
    let mut db = Db::open(o.clone()).unwrap();
    let file = if dry {
        for i in 0..N {
            db.put(key(i), value(i, 1)).unwrap();
        }
        db.flush().unwrap();
        db.shard(0).value_store().live_file_numbers()[0]
    } else {
        load(&db, N, dead)
    };
    if reopen {
        drop(db);
        db = Db::open(o).unwrap();
    }
    let version = db.shard(0).lsm().current_version();
    let kssts = version.levels.iter().flatten().count() as u64;
    let kf_blocks = version
        .levels
        .iter()
        .flatten()
        .map(|f| kf_blocks(&eref, f.file_number))
        .sum();
    let outside = partitions_outside_prefetch(&eref, file);
    let before = env.io_stats().snapshot();
    if dry {
        let report = db.shard(0).gc_validate_file(file).unwrap();
        assert_eq!(report.valid, N as u64);
    } else {
        let (outcome, _) = gc_job(&db, &env);
        assert_eq!(outcome.records_rewritten, 1);
    }
    let d = env.io_stats().snapshot().delta(&before);
    check_values(&db, N, |i| !dry && dead(i));
    (
        d.class(IoClass::FgIndexRead),
        d.class(IoClass::GcRead),
        kssts,
        kf_blocks,
        outside,
    )
}

/// How many KF blocks DTable `number` holds: the reads a walk of its KF
/// stream costs a reader without a block cache.
fn kf_blocks(env: &EnvRef, number: u64) -> u64 {
    let path = scavenger_lsm::filename::table_path("db", number);
    let file = env.open_random_access(&path, IoClass::Other).unwrap();
    let table = KTable::open(file, number, None).unwrap();
    let before = env.io_stats().snapshot();
    let mut it = table.index_iter();
    it.seek_to_first();
    while it.valid() {
        it.next();
    }
    it.status().unwrap();
    env.io_stats().snapshot().delta(&before).total_read_ops()
}

/// The first GC read of files this store wrote opens none of them: the
/// key SSTs a flush or a compaction wrote, which GC-Lookup sweeps, cost
/// no tail read, and the value file's Lazy Read costs exactly its fetch
/// spans — its born reader holds every index partition. After a reopen
/// the same reads open every file from disk: one tail read per key SST
/// the sweep meets and each of its KF blocks, which a DTable this store
/// wrote was born with in the cache (`FgIndexRead`), and one tail read
/// for the value file plus each index partition outside that tail
/// (`GcRead`).
#[test]
fn the_first_gc_of_files_this_store_wrote_reads_no_tail() {
    for threads in [1, 4] {
        for dry in [true, false] {
            let what = format!("{threads} threads, dry run {dry}");
            let (fg, gc, kssts, kf, outside) = first_gc_reads(threads, dry, false);
            let (cold_fg, cold_gc, cold_kssts, cold_kf, _) = first_gc_reads(threads, dry, true);
            assert!(
                outside > 0,
                "{what}: an index partition lies outside the tail"
            );
            assert!(kssts > 0 && kssts == cold_kssts, "{what}");
            assert!(kf > 0 && kf == cold_kf, "{what}");
            let spans = u64::from(!dry);
            assert_eq!(gc.read_ops, spans, "{what}");
            assert_eq!(cold_gc.read_ops, 1 + outside + spans, "{what}");
            assert_eq!(cold_fg.read_ops, fg.read_ops + kssts + kf, "{what}");
        }
    }
}

/// A DTable is born with its KF blocks in the block cache: the first
/// GC-Lookup of the value file a flush just wrote sweeps the flush's key
/// SST — and the one after a compaction, the compaction's — without one
/// `FgIndexRead`, at either thread count.
#[test]
fn the_first_gc_lookup_of_a_new_dtable_reads_no_kf_block() {
    for threads in [1, 4] {
        for dry in [true, false] {
            let (fg, _, kssts, kf, _) = first_gc_reads(threads, dry, false);
            assert!(kssts > 0 && kf >= kssts);
            assert_eq!(fg.read_ops, 0, "{threads} threads, dry run {dry}");
        }
    }
}

/// How a file's reader came to be before its GC job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FirstReader {
    /// Born as the flush wrote the file.
    Born,
    /// Born, then used by a `get`.
    Get,
    /// Opened from disk by the job, after a reopen of the store.
    Reopen,
}

/// A file whose whole dense index sits in its last [`TAIL_PREFETCH`]
/// bytes costs Lazy Read its fetch spans alone: the reader built as the
/// flush wrote the file pins every partition, and costs no tail read. A
/// `get` before the job shares that reader (a value file has one, and
/// GC borrows it) and pays just its record. After a reopen the job opens
/// the file from disk — one tail read, which pins every partition too,
/// where a reader without a block cache reads each again. The job
/// reports the bytes it asked for every way.
#[test]
fn index_inside_the_tail_prefetch_costs_no_partition_read() {
    const N: usize = 40;
    // Two survivors more than `READ_SIZE.max_gap` apart: two spans.
    let dead = |i: usize| i != 2 && i != 30;
    for first in [FirstReader::Born, FirstReader::Get, FirstReader::Reopen] {
        for threads in [1, 4] {
            let env = MemEnv::shared();
            let eref: EnvRef = env.clone();
            let mut db = Db::open(opts(eref.clone(), EngineMode::Scavenger, threads)).unwrap();
            let file = load(&db, N, dead);
            let (index, partitions, index_bytes) = dense_index(&eref, file);
            assert!(partitions >= 1);
            assert_eq!(partitions_outside_prefetch(&eref, file), 0);
            let (a, b) = (index[2].1, index[30].1);
            assert!(b.offset - (a.offset + a.size + 5) > READ_SIZE.max_gap);
            if first == FirstReader::Reopen {
                drop(db);
                db = Db::open(opts(eref.clone(), EngineMode::Scavenger, threads)).unwrap();
            }
            let before = env.io_stats().snapshot();
            if first == FirstReader::Get {
                assert_eq!(db.get(key(2)).unwrap().unwrap(), value(2, 1));
            }
            let get = env.io_stats().snapshot().delta(&before);

            let (outcome, io) = gc_job(&db, &env);
            assert_eq!(outcome.records_rewritten, 2);
            let tail = u64::from(first == FirstReader::Reopen);
            assert_eq!(
                io.read_ops,
                tail + 2,
                "{first:?}/{threads}: {tail} tail, two spans"
            );
            assert_eq!(outcome.bytes_read, index_bytes + a.size + 5 + b.size + 5);
            // The get paid the record alone, `FgValueRead`.
            let (fg, gc) = (get.class(IoClass::FgValueRead), get.class(IoClass::GcRead));
            let record = u64::from(first == FirstReader::Get);
            assert_eq!((fg.read_ops, gc.read_ops), (record, 0));
            check_values(&db, N, dead);
        }
    }
}

/// After GC, with a block cache too small to keep a record, every `get`
/// is cold and costs its record alone: one `FgValueRead` for a reference
/// to a live file, read at the offset the reference names, and one
/// through the inheritance forest to the file GC wrote, whose born
/// reader holds every index partition. After a reopen a file's first
/// `get` also pays its tail read, and the first that needs an index
/// partition outside that tail pays the partition, once.
#[test]
fn a_cold_get_reads_its_record_and_nothing_else() {
    const N: usize = 400;
    let dead = |i: usize| i % 2 == 1;
    for threads in [1, 4] {
        let env = MemEnv::shared();
        let eref: EnvRef = env.clone();
        let mut o = opts(eref.clone(), EngineMode::Scavenger, threads);
        o.block_cache_bytes = 4 << 10;
        let mut db = Db::open(o.clone()).unwrap();
        let collected = load(&db, N, dead);
        let live = db.shard(0).value_store().live_file_numbers();
        let (outcome, _) = gc_job(&db, &env);
        assert_eq!(outcome.files_collected, 1);
        assert_eq!(outcome.records_rewritten, (N / 2) as u64);
        let files = db.shard(0).value_store().live_file_numbers();
        assert!(!files.contains(&collected));
        let heir: Vec<u64> = files.into_iter().filter(|f| !live.contains(f)).collect();
        let [heir] = heir[..] else {
            panic!("one file holds the survivors: {heir:?}")
        };

        // The index partition of the heir each survivor's entry sits in,
        // and whether an open's tail read covers it.
        let size = env
            .file_size(&vfile_path("db", heir, VFormat::RTable))
            .unwrap();
        let (index, _, _) = dense_index(&eref, heir);
        let reader = VReader::open(
            &eref,
            "db",
            heir,
            VFormat::RTable,
            None,
            None,
            IoClass::Other,
        );
        let VReader::R(r) = reader.unwrap() else {
            panic!("file {heir} is not an RTable")
        };
        let partitions = r.partitions();
        let outside: Vec<bool> = partitions
            .iter()
            .map(|p| p.offset + (TAIL_PREFETCH as u64) < size)
            .collect();
        assert!(outside.contains(&true) && outside.contains(&false));
        let mut partition_of = vec![None; N];
        for (ikey, h) in &index {
            let (ukey, _) = parse_record_key(ikey).unwrap();
            let i: usize = std::str::from_utf8(&ukey[3..]).unwrap().parse().unwrap();
            partition_of[i] = partitions.iter().position(|p| h.offset < p.offset);
        }
        assert!((0..N).all(|i| partition_of[i].is_some() != dead(i)));

        let get = |db: &Db, i: usize, reads: u64, what: &str| {
            let before = env.io_stats().snapshot();
            let stamp = if dead(i) { 2 } else { 1 };
            assert_eq!(db.get(key(i)).unwrap().unwrap(), value(i, stamp));
            let d = env.io_stats().snapshot().delta(&before);
            let fg = d.class(IoClass::FgValueRead).read_ops;
            assert_eq!(fg, reads, "{threads} threads, {what}: key {i}");
        };
        for round in 0..2 {
            for i in 0..N {
                let what = if dead(i) { "live file" } else { "forest" };
                get(&db, i, 1, &format!("{what}, round {round}"));
            }
        }

        drop(db);
        db = Db::open(o.clone()).unwrap();
        let (mut opened_live, mut opened_heir) = (false, false);
        let mut held = vec![false; partitions.len()];
        for round in 0..2 {
            for (i, partition) in partition_of.iter().enumerate() {
                let mut reads = 1;
                match *partition {
                    None => reads += u64::from(!std::mem::replace(&mut opened_live, true)),
                    Some(p) => {
                        reads += u64::from(!std::mem::replace(&mut opened_heir, true));
                        reads += u64::from(outside[p] && !std::mem::replace(&mut held[p], true));
                    }
                }
                get(&db, i, reads, &format!("reopened, round {round}"));
            }
        }
        assert!(held.iter().zip(&outside).all(|(h, o)| h == o));
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
